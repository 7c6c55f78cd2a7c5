"""Workload ``expansion``: colimits over truncated word categories.

Operations go round-robin over four classes: ``verify_harting`` on
families of 2 and of 3 letters (cap 2, stability cap 3) and
``verify_ab4`` on families of 2 and of 3 letters (cross cap 2).  Every
source group is Z^2 modulo a 2 x 2 diagonal relation matrix with entries
in 2..9, and every mono target is source + Z/c on 3 generators, its
generators permuted with signs, so relation-column and morphism counts
never depend on the seed.  A dense unimodular scramble of the targets is
left out: it lets the Smith form inside ``is_mono`` of the induced map
blow up (see NOTES.md), and dense Smith growth is the ``presentations``
workload's regime.
"""

from __future__ import annotations

from abcat import abgrp, intmat, verify

from .common import block_diag, describe, form_of_cyclics, mat_mul, presented_group

NAME = "expansion"
CLASSES = (("harting", 2), ("harting", 3), ("ab4", 2), ("ab4", 3))
CYCLE = len(CLASSES)
OPS_PER_SECOND = 3.5
CAP = 2
STABILITY_CAP = 3


def _source(rng):
    return ((rng.randint(2, 9), 0), (0, rng.randint(2, 9)))


def _mono_target(rng, source):
    """source + Z/c with permuted, signed generators, and the inclusion."""
    plain = block_diag(source, ((rng.randint(2, 9),),))
    order = [0, 1, 2]
    rng.shuffle(order)
    p = tuple(tuple(rng.choice((-1, 1)) if order[i] == j else 0 for j in range(3))
              for i in range(3))
    return mat_mul(p, plain), tuple(row[:2] for row in p), plain[2][2]


def prepare(rng, n_ops, workdir):
    ops = []
    for i in range(n_ops):
        kind, letters = CLASSES[i % CYCLE]
        sources = [_source(rng) for _ in range(letters)]
        orders = [s[k][k] for s in sources for k in range(2)]
        op = {"kind": kind, "letters": letters, "sources": sources,
              "source_form": describe(form_of_cyclics(0, orders))}
        if kind == "ab4":
            targets = [_mono_target(rng, s) for s in sources]
            op["targets"] = [t[0] for t in targets]
            op["monos"] = [t[1] for t in targets]
            op["target_form"] = describe(form_of_cyclics(0, orders + [t[2] for t in targets]))
        ops.append(op)
    return ops


def run(op):
    family = [presented_group(r) for r in op["sources"]]
    if op["kind"] == "harting":
        report = verify.verify_harting(family, cap=CAP, stability_cap=STABILITY_CAP)
    else:
        targets = [presented_group(r) for r in op["targets"]]
        monos = [abgrp.AbHom(a, b, intmat.IntMatrix(m, shape=(3, 2)))
                 for a, b, m in zip(family, targets, op["monos"])]
        report = verify.verify_ab4(family, targets, monos, cross_cap=CAP)
    return {"ok": report.ok, "details": dict(report.details)}


def check(op, res):
    """The report is ok and its forms match the family's own forms."""
    d = res["details"]
    if op["kind"] == "harting":
        ok = (res["ok"] and d["canonical form"] == op["source_form"]
              and d[f"form at cap {STABILITY_CAP}"] == op["source_form"]
              and d["cap stable"] is True and "failures" not in d)
    else:
        ok = (res["ok"] and d["direct sum source"] == op["source_form"]
              and d["direct sum target"] == op["target_form"]
              and d["kernel of induced"] == "0" and d["induced mono"] is True
              and d["expansion route agrees"] is True
              and d["expansion route mono agrees"] is True)
    return ok, {"letters": op["letters"], "cap": CAP}


def same(a, b):
    return a == b
