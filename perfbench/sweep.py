#!/usr/bin/env python3
"""Ungated size sweeps: each time printed next to the sizes that drive it.

Not a workload and not a gate; run it by hand from the repository root:

    python3 perfbench/sweep.py

- ``smith`` (with transforms) and ``smith_diagonal`` on n x n matrices
  with |entry| <= 9, n = 10, 15, 20, with the largest transform entry in
  bits;
- word-category colimits at (letters, cap) = (2,3), (3,3), (4,3), (2,4):
  enumeration, expansion, colimit build and canonical form, with the
  morphism and relation-column counts;
- ``is_sifted(chain_category(n))`` at n = 6, 10, 14.

The rows are also written to ``.perfbench_out/sweep.json``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench.common import max_bits  # noqa: E402

SEED = 0
REPEATS = 3                     # Smith matrices per size
SMITH_SIZES = (10, 15, 20)
HX_CASES = ((2, 3), (3, 3), (4, 3), (2, 4))
SIFTED_SIZES = (6, 10, 14)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def smith_rows(rng):
    from abcat.intmat import smith, smith_diagonal
    from abcat.sampling import random_matrix
    rows = []
    for n in SMITH_SIZES:
        for k in range(REPEATS):
            m = random_matrix(rng, n, n, 9)
            dec, t_full = timed(smith, m)
            _, t_diag = timed(smith_diagonal, m)
            rows.append({"case": "smith", "n": n, "repeat": k, "shape": [n, n],
                         "smith_s": t_full, "smith_diagonal_s": t_diag,
                         "max_bits": max_bits(dec.u.data, dec.v.data, dec.u_inv.data,
                                              dec.v_inv.data)})
    return rows


def hx_rows(rng):
    from abcat.abdiag import ab_colimit
    from abcat.abgrp import FGAbGroup
    from abcat.harting import harting_expand, hx_category
    from abcat.intmat import IntMatrix
    from abcat.setdiag import FinSet
    rows = []
    for letters, cap in HX_CASES:
        family = [FGAbGroup(2, IntMatrix([[rng.randint(2, 9), 0], [0, rng.randint(2, 9)]]))
                  for _ in range(letters)]
        hx, t_hx = timed(hx_category, FinSet(letters), cap)
        diagram, t_expand = timed(harting_expand, family, hx)
        colim, t_colim = timed(ab_colimit, diagram)
        form, t_form = timed(lambda: colim.carrier.canonical_form)
        rows.append({"case": "hx_colimit", "letters": letters, "cap": cap,
                     "objects": len(hx.objects), "morphisms": len(hx.morphisms),
                     "relation_cols": colim.carrier.relations.cols,
                     "gens": colim.carrier.gens, "hx_category_s": t_hx,
                     "harting_expand_s": t_expand, "ab_colimit_s": t_colim,
                     "canonical_form_s": t_form, "form": repr(form)})
    return rows


def sifted_rows():
    from abcat.fincat import chain_category, is_sifted
    rows = []
    for n in SIFTED_SIZES:
        cat = chain_category(n)
        rep, t = timed(is_sifted, cat)
        rows.append({"case": "is_sifted_chain", "n": n, "objects": cat.n_objects,
                     "morphisms": cat.n_morphisms, "sifted": rep.sifted, "is_sifted_s": t})
    return rows


def main() -> int:
    rng = random.Random(SEED)
    rows = smith_rows(rng) + hx_rows(rng) + sifted_rows()
    for row in rows:
        print(" ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in row.items()))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "sweep.json").write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
