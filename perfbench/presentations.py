"""Workload ``presentations``: dense Smith forms with transforms.

Three operations in four take a dense (n+2) x n presentation M with
|entry| <= 9, n cycling through 6..16, and compute the Smith form with
transforms (checked by U M V == S), the canonical form, an isomorphism
with a scrambled copy, and whether the scrambling map is mono and epi.
The fourth is ``verify_ab5`` on a chain of length 3 whose generator and
relation counts are fixed.  The seed chooses entries, never sizes.
"""

from __future__ import annotations

from abcat import abdiag, fincat, sampling, verify
from abcat import abgrp as ag
from abcat import intmat as im

from .common import (block_diag, combine_columns, describe, divisibility_chain,
                     form_of_cyclics, in_column_lattice, mat_mul, mat_vec, max_bits,
                     presented_group, unimodular)

NAME = "presentations"
SIZES = tuple(range(6, 17))
CHAIN = 3
CYCLE = 4 * len(SIZES)          # every n three times, plus 11 ab5 operations
OPS_PER_SECOND = 32.0


def _presentation(rng, n):
    m = sampling.random_matrix(rng, n + 2, n, 9).data
    p, p_inv = unimodular(rng, n + 2)
    s_rels = combine_columns(rng, mat_mul(p, m), 2)
    return {"kind": "snf", "n": n, "m": m, "p": p, "p_inv": p_inv, "s_rels": s_rels,
            "freivalds": [[rng.randint(-2**20, 2**20) for _ in range(k)]
                          for k in (n, n + 2)]}


def _inclusion(rows, cols):
    return tuple(tuple(1 if i == j else 0 for j in range(cols)) for i in range(rows))


def _scrambled_chain(rng, orders):
    """Scrambled presentations of Z/o_0 + ... + Z/o_c for c < CHAIN."""
    groups, q, q_inv = [], [], []
    for c in range(CHAIN):
        plain = block_diag(*[((o,),) for o in orders[:c + 1]])
        u, ui = unimodular(rng, c + 1)
        groups.append(combine_columns(rng, mat_mul(u, plain), 1))
        q.append(u)
        q_inv.append(ui)
    return groups, q, q_inv


def _ab5(rng):
    """D = scrambled E + K over chain(3), E scrambled, eta the projection."""
    e_orders = [rng.randint(2, 9) for _ in range(CHAIN)]
    k_orders = [rng.randint(2, 9) for _ in range(CHAIN)]
    e_groups, q, q_inv = _scrambled_chain(rng, e_orders)
    d_groups, t, t_inv = [], [], []
    for c in range(CHAIN):
        plain = block_diag(*[((o,),) for o in e_orders[:c + 1]],
                           *[((o,),) for o in k_orders[:c + 1]])
        u, ui = unimodular(rng, 2 * (c + 1))
        d_groups.append(combine_columns(rng, mat_mul(u, plain), 1))
        t.append(u)
        t_inv.append(ui)
    e_homs, d_homs = {}, {}
    for a in range(CHAIN):
        for b in range(a, CHAIN):
            j = _inclusion(b + 1, a + 1)
            e_homs[(a, b)] = mat_mul(mat_mul(q[b], j), q_inv[a])
            d_homs[(a, b)] = mat_mul(mat_mul(t[b], block_diag(j, j)), t_inv[a])
    eta = []
    for c in range(CHAIN):
        proj = tuple(tuple(1 if i == j else 0 for j in range(2 * (c + 1)))
                     for i in range(c + 1))
        eta.append(mat_mul(mat_mul(q[c], proj), t_inv[c]))
    return {"kind": "ab5", "d_groups": d_groups, "d_homs": d_homs, "e_groups": e_groups,
            "e_homs": e_homs, "eta": eta,
            "kernel_form": describe(form_of_cyclics(0, k_orders))}


def prepare(rng, n_ops, workdir):
    ops = []
    for i in range(n_ops):
        if i % 4 == 3:
            ops.append(_ab5(rng))
        else:
            ops.append(_presentation(rng, SIZES[(i - i // 4) % len(SIZES)]))
    return ops


def _diagram(base, groups_raw, homs_raw):
    groups = [presented_group(r) for r in groups_raw]
    homs = []
    for m in range(base.n_morphisms):
        a, b = base.dom[m], base.cod[m]
        homs.append(ag.AbHom(groups[a], groups[b],
                             im.IntMatrix(homs_raw[(a, b)],
                                          shape=(groups[b].gens, groups[a].gens))))
    return abdiag.AbDiagram(base, groups, homs)


def run(op):
    if op["kind"] == "ab5":
        base = fincat.chain_category(CHAIN)
        d = _diagram(base, op["d_groups"], op["d_homs"])
        e = _diagram(base, op["e_groups"], op["e_homs"])
        eta = [ag.AbHom(d.groups[c], e.groups[c],
                        im.IntMatrix(op["eta"][c], shape=(e.groups[c].gens, d.groups[c].gens)))
               for c in range(CHAIN)]
        report = verify.verify_ab5(d, e, eta)
        return {"ok": report.ok, "details": dict(report.details)}
    n = op["n"]
    m = im.IntMatrix(op["m"], shape=(n + 2, n))
    group = ag.group_from_presentation(m)
    dec = im.smith(m)
    umv = (dec.u @ m) @ dec.v == dec.s
    form = group.canonical_form
    scrambled = presented_group(op["s_rels"])
    to_scrambled = ag.AbHom(group, scrambled, im.IntMatrix(op["p"], shape=(n + 2, n + 2)))
    iso, maps = ag.are_isomorphic(group, scrambled)
    fb_id = iso and ag.hom_equal(ag.hom_compose(maps[0], maps[1]),
                                 ag.identity_hom(scrambled))
    mono = ag.is_mono(to_scrambled)
    epi = ag.is_epi(to_scrambled)
    return {"s": dec.s.data, "u": dec.u.data, "v": dec.v.data, "u_inv": dec.u_inv.data,
            "v_inv": dec.v_inv.data, "umv": umv, "form": form, "iso": iso,
            "fwd": maps[0].matrix.data if iso else None,
            "bwd": maps[1].matrix.data if iso else None,
            "fb_id": fb_id, "mono": mono, "epi": epi}


def check(op, res):
    """(verdict holds, sizes) for one operation, by independent arithmetic."""
    if op["kind"] == "ab5":
        d = res["details"]
        ok = (res["ok"] and d["colimit of kernels"] == op["kernel_form"]
              and d["kernel of induced"] == op["kernel_form"]
              and d["comparison mono"] is True and d["comparison epi"] is True)
        return ok, {"chain": CHAIN, "d_gens": [2 * (c + 1) for c in range(CHAIN)]}
    n = op["n"]
    rows = n + 2
    u, v, s = res["u"], res["v"], res["s"]
    diagonal = [s[i][i] for i in range(n)]
    ok = all(res[k] is True for k in ("umv", "iso", "fb_id", "mono", "epi"))
    ok = ok and all(s[i][j] == 0 for i in range(rows) for j in range(n) if i != j)
    ok = ok and divisibility_chain(diagonal)
    # Freivalds: U (M (V x)) == S x, and both inverses are inverses
    x, y = op["freivalds"]
    ok = ok and mat_vec(u, mat_vec(op["m"], mat_vec(v, x))) == mat_vec(s, x)
    ok = ok and mat_vec(u, mat_vec(res["u_inv"], y)) == y
    ok = ok and mat_vec(v, mat_vec(res["v_inv"], x)) == x
    rank = sum(1 for d in diagonal if d)
    ok = ok and res["form"] == (rows - rank, tuple(d for d in diagonal if d >= 2))
    if ok:
        # forward o backward == id modulo the scrambled relations, which are
        # P M plus combinations of it: pull back by P^-1 and test membership
        # in the column lattice of M through the checked Smith form
        fb = mat_mul(res["fwd"], res["bwd"])
        diff = [[fb[i][j] - (i == j) for j in range(rows)] for i in range(rows)]
        pulled = mat_mul(op["p_inv"], diff)
        ok = all(in_column_lattice(u, diagonal, col) for col in zip(*pulled))
    return ok, {"shape": [rows, n], "max_bits": max_bits(u, v, res["u_inv"], res["v_inv"])}


def same(a, b):
    """Do two runs of one operation agree on every verdict?"""
    if "details" in a:
        return a == b
    keys = ("s", "umv", "form", "iso", "fb_id", "mono", "epi")
    return all(a[k] == b[k] for k in keys)
