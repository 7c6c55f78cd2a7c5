"""The seeded verification suites, end to end.

Each suite samples random instances from an explicit seed and checks one
structural statement exactly: the word-category expansion has the
coproduct as its colimit (and the same form at a larger cap), coproducts
of monos stay mono (with the expansion as a cross-check), filtered
colimits preserve kernels, colimits interchange with finite limits, and
fixed points pass through filtered colimits.
"""

import time

from abcat.verify import run_suite

SEED = 20260808

for prop, trials in (("harting", 10), ("ab4", 10), ("ab5", 10), ("commute", 20),
                     ("fixpoints", 10)):
    start = time.perf_counter()
    report = run_suite(prop, trials, SEED, stability_cap=3)
    elapsed = time.perf_counter() - start
    flag = "ok" if report.ok else "FAILED"
    print(f"{report.name:45s} {flag}  ({trials} trials, {elapsed:.2f} s)")
