"""Timing wrappers for the traced run, installed from outside the library.

Each wrapped function records a span (name, start, end, parent) while
tracing is active.  A wrapper replaces the function in every abcat module
namespace that holds the same function object, and methods are patched
on their class, so calls between library modules are seen too.  Size
counters are read from arguments and results after each operation, so
their cost falls outside every span.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from functools import update_wrapper

from .common import max_bits

# counters that keep the largest value seen; every other counter is a sum
MAX_COUNTERS = ("intmat.smith_diagonal.max_dim", "intmat.smith.max_bits")


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _max(counters, key, value):
    counters[key] = max(counters.get(key, 0), value)


def _colimit_sizes(c, args, result):
    _add(c, "abdiag.ab_colimit.relation_cols", result.carrier.relations.cols)
    _add(c, "abdiag.ab_colimit.gens", result.carrier.gens)


def _lattice_sizes(c, args, result):
    _add(c, "intmat.lattice_invariants.rel_cols", args[0].cols)


def _diagonal_sizes(c, args, result):
    _max(c, "intmat.smith_diagonal.max_dim", max(args[0].shape))


def _smith_sizes(c, args, result):
    _max(c, "intmat.smith.max_bits",
         max_bits(result.u.data, result.v.data, result.u_inv.data, result.v_inv.data))


def _hx_sizes(c, args, result):
    _add(c, "harting.hx_category.morphisms", len(result.morphisms))


def _limit_sizes(c, args, result):
    tuples = 1
    for s in args[0].sets:
        tuples *= s.size
    _add(c, "setdiag.set_limit.tuples", tuples)
    _add(c, "setdiag.set_limit.compatible", result[0].size)


def _document_sizes(c, args, result):
    _add(c, "documents.bytes", len(args[0]))


def _verify_sizes(c, args, result):
    _add(c, "verify.failed", 0 if result.ok else 1)


# (module, attribute or Class.method, span name, size counter)
TARGETS = [
    ("abcat.intmat", "IntMatrix.from_columns", "intmat.build", None),
    ("abcat.intmat", "hstack", "intmat.build", None),
    ("abcat.intmat", "vstack", "intmat.build", None),
    ("abcat.intmat", "block_diagonal", "intmat.build", None),
    ("abcat.intmat", "lattice_invariants", "intmat.lattice_invariants", _lattice_sizes),
    ("abcat.intmat", "smith_diagonal", "intmat.smith_diagonal", _diagonal_sizes),
    ("abcat.intmat", "smith", "intmat.smith", _smith_sizes),
    ("abcat.intmat", "kernel_basis", "intmat.kernel_basis", None),
    ("abcat.intmat", "preimage_basis", "intmat.preimage_basis", None),
    ("abcat.intmat", "solve_many", "intmat.solve_many", None),
    ("abcat.intmat", "IntMatrix.__matmul__", "intmat.matmul", None),
    ("abcat.intmat", "ColumnLattice.add", "intmat.column_lattice", None),
    ("abcat.intmat", "ColumnLattice.contains", "intmat.column_lattice", None),
    ("abcat.abgrp", "kernel", "abgrp.kernel", None),
    ("abcat.abgrp", "cokernel", "abgrp.cokernel", None),
    ("abcat.abgrp", "canonicalize", "abgrp.canonicalize", None),
    ("abcat.abgrp", "hom_equal", "abgrp.hom_equal", None),
    ("abcat.abdiag", "ab_colimit", "abdiag.ab_colimit", _colimit_sizes),
    ("abcat.abdiag", "AbColimit.factor", "abdiag.factor", None),
    ("abcat.abdiag", "induced_map_on_colimits", "abdiag.induced_map_on_colimits", None),
    ("abcat.harting", "hx_category", "harting.hx_category", _hx_sizes),
    ("abcat.harting", "harting_expand", "harting.harting_expand", None),
    ("abcat.harting", "harting_compare", "harting.harting_compare", None),
    ("abcat.setdiag", "set_limit", "setdiag.set_limit", _limit_sizes),
    ("abcat.setdiag", "set_colimit", "setdiag.set_colimit", None),
    ("abcat.setdiag", "commute_check", "setdiag.commute_check", None),
    ("abcat.fincat", "is_sifted", "fincat.is_sifted", None),
    ("abcat.fincat", "is_final", "fincat.is_final", None),
    ("abcat.fincat", "comma_category", "fincat.comma_category", None),
    ("abcat.fincat", "product_category", "fincat.product_category", None),
    ("abcat.fincat", "is_filtered", "fincat.is_filtered", None),
    ("abcat.fincat", "validate_category", "fincat.validate_category", None),
    ("abcat.documents", "parse_document", "documents.parse_document", _document_sizes),
    ("abcat.cli", "main", "cli.main", None),
] + [("abcat.verify", v, "verify." + v, _verify_sizes)
     for v in ("verify_harting", "verify_ab4", "verify_ab5", "verify_commute",
               "verify_fixpoints")]

SAMPLING = "sampling"


def _sampling_targets():
    mod = sys.modules["abcat.sampling"]
    return [("abcat.sampling", name, SAMPLING, None) for name, fn in sorted(vars(mod).items())
            if callable(fn) and getattr(fn, "__module__", None) == "abcat.sampling"
            and not name.startswith("_") and not isinstance(fn, type)]


class Tracer:
    """In-memory spans plus size counters; off until ``active`` is set."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.pending = []
        self.counters = {}
        self.active = False
        self._undo = []

    def _wrap(self, name, fn, sizer):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        tracer, clock = self, time.perf_counter
        stack, name_id, start, end, parent = (self.stack, self.name_id, self.start,
                                              self.end, self.parent)
        pending = self.pending

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if sizer is not None:
                pending.append((sizer, args, result))
            return result

        return update_wrapper(wrapper, fn)

    def install(self):
        for module, attr, name, sizer in TARGETS + _sampling_targets():
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, sizer))
                else:
                    new = self._wrap(name, raw, sizer)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(name, fn, sizer)
            for mname, other in list(sys.modules.items()):
                if other is None or not (mname == "abcat" or mname.startswith("abcat.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapper)
                        self._undo.append((other, key, fn))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def settle(self) -> dict:
        """Size counters of the calls made since the last settle.

        They are returned, and added to the run's totals.
        """
        op = {}
        for sizer, args, result in self.pending:
            sizer(op, args, result)
        self.pending.clear()
        for key, value in op.items():
            (_max if key in MAX_COUNTERS else _add)(self.counters, key, value)
        return op

    def reset(self):
        for arr in (self.name_id, self.start, self.end, self.parent):
            del arr[:]
        self.stack.clear()
        self.pending.clear()
        self.counters.clear()

    def layer_times(self):
        """Per span name: (self time, calls), and the total of root spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        roots = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            self_s[self.name_id[i]] += dur - child[i]
            calls[self.name_id[i]] += 1
            if self.parent[i] < 0:
                roots += dur
        return ({name: (self_s[k], calls[k]) for k, name in enumerate(self.names)}, roots)

    def write(self, path):
        """Spans as gzip-compressed tab-separated lines: name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")
