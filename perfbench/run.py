#!/usr/bin/env python3
"""abcat benchmark: one closed-loop workload per run (one caller, one thread).

Usage, from the repository root:

    python3 perfbench/run.py --workload expansion --seed 1 --seconds 15 --trace 0

The seed chooses the values of the inputs and never their sizes.  The
number of operations is fixed by ``--seconds`` and the workload's nominal
rate, so one operation list is timed on every run of the same arguments
(it takes about ``--seconds`` on the machine described in NOTES.md).
Every verdict is checked after the timed loop.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` times the list untraced, then again with
timing wrappers on each layer, and prints the per-layer metrics.  The
last line of standard output is the JSON result; operation logs, spans
and a summary go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# import the benchmark as a package from the checkout root, and abcat from
# the checkout's sources; the script directory itself is not a search path
sys.path[0] = str(ROOT)
sys.path.insert(1, str(SRC))

WORKLOADS = ("expansion", "presentations", "cli")
ABCAT_MODULES = ("abcat", "abcat.intmat", "abcat.fincat", "abcat.setdiag",
                 "abcat.abgrp", "abcat.abdiag", "abcat.harting", "abcat.sampling",
                 "abcat.verify", "abcat.documents", "abcat.cli")
SETUP_REPS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
RUN_LIMIT_S = 150.0     # every run must end within 180 s, checks included

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mib", "MiB"))
PER_LAYER_CALLS = ("abdiag.ab_colimit", "intmat.lattice_invariants", "intmat.smith_diagonal",
                   "intmat.smith", "intmat.matmul", "intmat.column_lattice",
                   "abgrp.hom_equal", "documents.parse_document")
PER_LAYER_SIZES = (("abdiag.ab_colimit.relation_cols", "count"),
                   ("abdiag.ab_colimit.gens", "count"),
                   ("intmat.lattice_invariants.rel_cols", "count"),
                   ("intmat.smith_diagonal.max_dim", "count"),
                   ("intmat.smith.max_bits", "bits"),
                   ("harting.hx_category.morphisms", "count"),
                   ("setdiag.set_limit.tuples", "count"),
                   ("documents.bytes", "bytes"),
                   ("verify.failed", "count"))


def import_workload(name):
    """Import all of abcat from the checkout, then the workload module."""
    for module in ABCAT_MODULES:
        importlib.import_module(module)
    workload = importlib.import_module(f"perfbench.{name}")
    if Path(sys.modules["abcat"].__file__).resolve().parent != SRC / "abcat":
        raise SystemExit("error: abcat was not imported from the checkout")
    return workload


def tail_percentile(n_ops: int) -> float:
    """Highest percentile with at least ten operations beyond it."""
    for p in TAIL_LADDER:
        if n_ops * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(p * 10) - 1]


def timed_pass(workload, ops, deadline, tracer=None):
    """Run every operation once; per-operation seconds, results, counters."""
    times, results, sizes = [], [], []
    for op in ops:
        if time.perf_counter() > deadline:
            break
        t0 = time.perf_counter()
        try:
            res = workload.run(op)
        except Exception as exc:        # a raising operation is a failed one
            res = {"error": repr(exc)}
        times.append(time.perf_counter() - t0)
        results.append(res)
        if tracer is not None:
            sizes.append(tracer.settle())
    return times, results, sizes


def check_all(workload, ops, results):
    verdicts, sizes = [], []
    for op, res in zip(ops, results):
        if "error" in res:
            verdicts.append(False)
            sizes.append({})
            continue
        try:
            ok, sz = workload.check(op, res)
        except Exception as exc:        # a malformed result fails its check
            ok, sz = False, {"check_error": repr(exc)}
        verdicts.append(bool(ok))
        sizes.append(sz)
    return verdicts, sizes


def op_class(op):
    return f"{op['kind']}-{op['n']}" if "n" in op else (
        f"{op['kind']}-{op['letters']}" if "letters" in op else op["kind"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="abcat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    if not (SRC / "abcat" / "__init__.py").is_file():
        raise SystemExit(f"error: abcat sources not found under {SRC}")
    t0 = time.perf_counter()
    workload = import_workload(args.workload)
    import_s = time.perf_counter() - t0
    per_cycle = max(1, round(args.seconds * workload.OPS_PER_SECOND / workload.CYCLE))
    n_ops = workload.CYCLE * per_cycle
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_tmp" / f"{tag}-{os.getpid()}"
    try:
        return _measure(args, workload, n_ops, tag, out_dir, work, began, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:             # another run still has its directory there
            pass


def _setup(workload, seed, n_ops, work):
    """Generate inputs, write documents, one untimed warm-up."""
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    ops = workload.prepare(random.Random(seed), n_ops, work)
    warm = workload.run(ops[0])
    elapsed = time.perf_counter() - t0
    ok, _ = workload.check(ops[0], warm)
    return elapsed, ops, ok


def _measure(args, workload, n_ops, tag, out_dir, work, began, import_s):
    # setup_s is the import of abcat plus the median of SETUP_REPS set-ups,
    # spread over the run so that the median is not taken inside one phase
    # of the machine's speed swings.  Only the first set-up's inputs are
    # used; the others re-measure it.
    deadline = began + (0.4 if args.trace else 1.0) * RUN_LIMIT_S
    setup_times, setup_ok, ops, times, results = [], True, None, [], []
    for rep in range(SETUP_REPS):
        elapsed, rep_ops, ok = _setup(workload, args.seed, n_ops, work / f"setup{rep}")
        setup_times.append(elapsed)
        setup_ok = setup_ok and ok
        ops = ops or rep_ops
        chunk = ops[len(times):n_ops * (rep + 1) // SETUP_REPS]
        chunk_times, chunk_results, _ = timed_pass(workload, chunk, deadline)
        times += chunk_times
        results += chunk_results
    setup_s = import_s + statistics.median(setup_times)
    verdicts, sizes = check_all(workload, ops, results)
    done = len(times)
    wall = sum(times) * n_ops / done
    log = [{"i": i, "class": op_class(op), "ms": round(t * 1000, 4), "ok": v, **sz}
           for i, (op, t, v, sz) in enumerate(zip(ops, times, verdicts, sizes))]
    failed = verdicts.count(False)
    attempted = done
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "operations": n_ops, "completed": done, "import_s": import_s,
               "setup_runs_s": setup_times}
    correct = setup_ok and failed == 0
    if done < n_ops:
        print(f"warning: time limit reached after {done} of {n_ops} operations; "
              f"wall_s is extrapolated")

    if not args.trace:
        p = tail_percentile(n_ops)
        metrics = {"setup_s": setup_s, "wall_s": wall,
                   "op_p50_ms": statistics.median(times) * 1000,
                   "op_tail_ms": percentile(times, p) * 1000,
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        summary.update(tail_percentile=p, metrics=metrics)
        print(f"{args.workload}: {n_ops} operations, seed {args.seed}, "
              f"{failed} failed, setup runs {[round(t, 4) for t in setup_times]}")
        for name, unit in END_TO_END:
            note = f"   (p{p:g} of {done} operations)" if name == "op_tail_ms" else ""
            print(f"{name:>14} {metrics[name]:12.4f} {unit}{note}")
        units = dict(END_TO_END)
    else:
        metrics, units, traced_done, traced_failed = _traced(
            args, workload, n_ops, results, out_dir, tag, wall, work, log, began)
        attempted += traced_done
        failed += traced_failed
        correct = correct and traced_failed == 0
        summary.update(metrics=metrics)

    with open(out_dir / f"{tag}.ops.jsonl", "w", encoding="utf-8") as fh:
        for row in log:
            fh.write(json.dumps(row) + "\n")
    summary.update(correct=correct, attempted=attempted, failed=failed)
    (out_dir / f"{tag}.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in metrics}}))
    return 0


def _traced(args, workload, n_ops, untraced, out_dir, tag, untraced_wall, work, log, began):
    """Trace a set-up (for sampling) and the same operation list."""
    from perfbench.spans import SAMPLING, TARGETS, Tracer
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        _, ops, _ = _setup(workload, args.seed, n_ops, work / "traced")
        tracer.active = False
        setup_layers, _ = tracer.layer_times()
        tracer.reset()
        tracer.active = True
        times, results, sizes = timed_pass(workload, ops, began + RUN_LIMIT_S - 5, tracer)
        tracer.active = False
    finally:
        tracer.uninstall()
    done = len(times)
    traced_wall = sum(times) * n_ops / done
    layers, roots = tracer.layer_times()
    failed = 0
    for i, (res, t, sz) in enumerate(zip(results, times, sizes)):
        same = i < len(untraced) and "error" not in res and workload.same(untraced[i], res)
        failed += 0 if same else 1
        if i < len(log):
            log[i].update(traced_ms=round(t * 1000, 4), traced_same=same, **sz)
    tracer.write(out_dir / f"{tag}.spans.tsv.gz")

    metrics, units = {}, {}
    for name in dict.fromkeys(t[2] for t in TARGETS):
        metrics[f"{name}.self_s"] = layers.get(name, (0.0, 0))[0]
        units[f"{name}.self_s"] = "s"
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = layers.get(name, (0.0, 0))[1]
        units[f"{name}.calls"] = "count"
    for name, unit in PER_LAYER_SIZES:
        metrics[name] = tracer.counters.get(name, 0)
        units[name] = unit
    tuples = tracer.counters.get("setdiag.set_limit.tuples", 0)
    metrics["setdiag.set_limit.yield"] = (
        tracer.counters.get("setdiag.set_limit.compatible", 0) / tuples if tuples else 0.0)
    units["setdiag.set_limit.yield"] = "ratio"
    metrics[f"{SAMPLING}.self_s"] = setup_layers.get(SAMPLING, (0.0, 0))[0]
    units[f"{SAMPLING}.self_s"] = "s"
    metrics["bench.self_s"] = sum(times) - roots
    units["bench.self_s"] = "s"
    metrics["trace.wall_s"] = traced_wall
    units["trace.wall_s"] = "s"
    metrics["trace.overhead"] = traced_wall / untraced_wall
    units["trace.overhead"] = "ratio"
    print(f"{args.workload}: traced {done} of {n_ops} operations, seed {args.seed}, "
          f"{len(tracer.start)} spans, {failed} traced results differ")
    accounted = sum(v for k, v in metrics.items()
                    if k.endswith(".self_s") and k != f"{SAMPLING}.self_s")
    print(f"layer self times + bench self = {accounted:.4f} s, traced sum of operations = "
          f"{sum(times):.4f} s")
    for name, value in metrics.items():
        print(f"{name:>40} {value:14.6f} {units[name]}")
    return metrics, units, done, failed


if __name__ == "__main__":
    sys.exit(main())
