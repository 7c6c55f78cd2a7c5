"""Workload ``cli``: in-process ``abcat.cli.main`` over written documents.

Operations go round-robin over eight command classes, each in machine
format.  Documents are written during set-up, each is checked to parse
back to the in-memory value it was serialized from, and the expected
machine output is computed there by the same library call on that
in-memory value.  Every base category carries object labels: a set
diagram over the product of two unlabelled factors serializes object
names that ``parse_document`` rejects (see NOTES.md), so the chain and
shape factors are labelled rather than dropped.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from abcat import abgrp as ag
from abcat import cli as abcat_cli
from abcat import documents as docs
from abcat import fincat as fc
from abcat import sampling
from abcat import setdiag as sd
from abcat import verify as vf

NAME = "cli"
CLASSES = ("sifted", "filtered", "final", "colimit", "commute", "limit", "fixpoints", "snf")
CYCLE = len(CLASSES)
OPS_PER_SECOND = 65.0
POOL = 12                       # distinct documents per seeded class
CHAINS = (8, 9, 10, 11)         # chain_category sizes for sifted and filtered
GRID = (3, 4)                   # final: full subcategories of a 3 x 4 grid poset
SUBSET = 6
SHAPE_CHAIN = 3                 # colimit and commute: chain(3) x shape
SHAPE_CARRIER = 3
LIMIT_CARRIER = 7               # limit: every carrier has 7 elements
FIX_CHAIN = 4                   # fixpoints: chain(4) x B(Z/2), odd carriers
FIX_CARRIER = 5
SNF_SHAPE = (8, 10)


def _labelled(cat, prefix):
    """The same category with object labels, so documents name objects."""
    comp = {(g, f): cat.compose(g, f) for (g, f) in cat.composable_pairs()}
    names = [cat.morphism_label(m) for m in range(cat.n_morphisms)]
    return fc.FinCategory(cat.n_objects, cat.dom, cat.cod, cat.identity, comp,
                                  object_labels=[f"{prefix}{i}" for i in range(cat.n_objects)],
                                  morphism_labels=names)


def _chain(n):
    return _labelled(fc.chain_category(n), "c")


def _shapes():
    return (fc.span_category(), _labelled(fc.parallel_pair_category(), "p"),
            fc.discrete_category(2, labels=["x", "y"]))


def _table(rng, size_from, size_to):
    return tuple(rng.randrange(size_to) for _ in range(size_from))


def _nonid(cat):
    return [m for m in range(cat.n_morphisms) if cat.identity[cat.dom[m]] != m]


def _shape_tables(rng, shape, size):
    nonid = _nonid(shape)
    return [_table(rng, size, size) if m in nonid else tuple(range(size))
            for m in range(shape.n_morphisms)]


def _natural_step(rng, shape, tables, size):
    """Tables of a second diagram on ``shape`` and a natural map into it.

    No two non-identity arrows of the shapes used here compose, so any
    tables give a functor; the map is redrawn until naturality can be
    forced, and falls back to the identity map onto a copy.
    """
    nonid = _nonid(shape)
    for _ in range(200):
        tau = [_table(rng, size, size) for _ in range(shape.n_objects)]
        new = [list(t) for t in _shape_tables(rng, shape, size)]
        ok = True
        for m in nonid:
            a, b = shape.dom[m], shape.cod[m]
            forced = {}
            for x in range(size):
                want = tau[b][tables[m][x]]
                if forced.setdefault(tau[a][x], want) != want:
                    ok = False
                    break
            if not ok:
                break
            for y, v in forced.items():
                new[m][y] = v
        if ok:
            return [tuple(t) for t in new], tau
    return list(tables), [tuple(range(size))] * shape.n_objects


def _chain_shape_diagram(rng, shape):
    """A diagram on chain(3) x shape built from a chain of natural maps."""
    chain = _chain(SHAPE_CHAIN)
    stages = [_shape_tables(rng, shape, SHAPE_CARRIER)]
    taus = []
    for _ in range(SHAPE_CHAIN - 1):
        tables, tau = _natural_step(rng, shape, stages[-1], SHAPE_CARRIER)
        stages.append(tables)
        taus.append(tau)
    base = fc.product_category(chain, shape)
    sets = [sd.FinSet(SHAPE_CARRIER)] * base.n_objects
    tables = []
    for p in range(chain.n_morphisms):
        i, j = chain.dom[p], chain.cod[p]
        for q in range(shape.n_morphisms):
            c = shape.dom[q]
            move = list(range(SHAPE_CARRIER))
            for k in range(i, j):
                move = [taus[k][c][v] for v in move]
            tables.append(tuple(stages[j][q][move[x]] for x in range(SHAPE_CARRIER)))
    return sd.SetFunctor(base, sets, tables)


def _gset_chain(rng):
    """Z/2-sets of odd size on a chain, so fixed points always have images."""
    table = ((0, 1), (1, 0))
    bg = fc.group_as_category(table, labels=["e", "g"])
    chain = _chain(FIX_CHAIN)
    invs = [sampling.random_involution(rng, FIX_CARRIER) for _ in range(FIX_CHAIN)]
    steps = []
    for i in range(FIX_CHAIN - 1):
        s1, s2 = invs[i], invs[i + 1]
        fixed = [y for y in range(FIX_CARRIER) if s2[y] == y]
        t = [None] * FIX_CARRIER
        for x in range(FIX_CARRIER):
            if t[x] is None:
                if s1[x] == x:
                    t[x] = rng.choice(fixed)
                else:
                    y = rng.randrange(FIX_CARRIER)
                    t[x], t[s1[x]] = y, s2[y]
        steps.append(t)
    base = fc.product_category(chain, bg)
    tables = []
    for p in range(chain.n_morphisms):
        i, j = chain.dom[p], chain.cod[p]
        move = list(range(FIX_CARRIER))
        for k in range(i, j):
            move = [steps[k][v] for v in move]
        for q in range(bg.n_morphisms):
            tables.append(tuple(move) if q == bg.identity[0]
                          else tuple(invs[j][v] for v in move))
    return table, bg, sd.SetFunctor(base, [sd.FinSet(FIX_CARRIER)] * base.n_objects,
                                             tables)


def _grid():
    rows, cols = GRID
    rel = [(r1 * cols + c1, r2 * cols + c2)
           for r1 in range(rows) for c1 in range(cols)
           for r2 in range(r1, rows) for c2 in range(c1, cols)
           if (r1, c1) != (r2, c2)]
    return fc.poset_category(rows * cols, rel,
                                     labels=[f"g{r}{c}" for r in range(rows) for c in range(cols)])


def _payload(value, cls, extra=None):
    """The machine payload the CLI should print, from the in-memory value."""
    if cls == "sifted":
        rep = fc.is_sifted(value)
        out = {"check": "sifted", "holds": rep.sifted}
        if not rep.sifted:
            out["reason"] = rep.reason
            out["failing_pairs"] = [list(p) for p in rep.failing_pairs[:5]]
    elif cls == "filtered":
        rep = fc.is_filtered(value)
        out = {"check": "filtered", "holds": rep.filtered}
        if not rep.filtered:
            out["reason"] = rep.reason
            out["failing"] = list(rep.failing) if rep.failing else None
    elif cls == "final":
        rep = fc.is_final(value)
        out = {"check": "final", "holds": rep.final}
        if not rep.final:
            out["failing_objects"] = list(rep.failing)
    elif cls == "colimit":
        carrier, cocone = sd.set_colimit(value)
        out = {"colimit_size": carrier.size, "classes": list(carrier.labels or ()),
               "insertions": [list(t) for t in cocone.components]}
    elif cls == "limit":
        carrier, cone = sd.set_limit(value)
        out = {"limit_size": carrier.size, "tuples": list(carrier.labels or ()),
               "projections": [list(t) for t in cone.components]}
    elif cls == "commute":
        rep = vf.verify_commute(value.base.left, value.base.right, value)
        out = {"verify": "commute", "ok": rep.ok, "seed": 0, **rep.details}
    elif cls == "fixpoints":
        table, bg = extra
        rep = vf.verify_fixpoints(table, value.base.left, bg, value)
        out = {"verify": "fixpoints", "ok": rep.ok, "seed": 0, **rep.details}
    else:
        s, u, v = ag.smith_normal_form(value.relations)
        out = {"diagonal": [s.data[i][i] for i in range(min(s.rows, s.cols))],
               "canonical_form": ag.describe_form(value.canonical_form),
               "s": [list(r) for r in s.data], "u": [list(r) for r in u.data],
               "v": [list(r) for r in v.data]}
    return json.loads(json.dumps({str(k): v for k, v in out.items()},
                                 sort_keys=True, default=str))


def _instances(rng):
    """(class, document kind, in-memory value, expected exit code, extra)."""
    shapes = _shapes()
    grid = _grid()
    top = grid.n_objects - 1
    limit_shapes = (fc.span_category(), _labelled(fc.cospan_category(), "q"), shapes[1])
    out = []
    for n in CHAINS:
        out.append(("sifted", "category", _chain(n), 0, None))
        out.append(("filtered", "category", _chain(n), 0, None))
    for k in range(POOL):
        subset = sorted(rng.sample(range(grid.n_objects), SUBSET))
        _, incl = fc.full_subcategory(grid, subset)
        out.append(("final", "functor", incl, 0 if top in subset else 1, None))
        out.append(("colimit", "setdiagram", _chain_shape_diagram(rng, shapes[k % 3]), 0, None))
        out.append(("commute", "setdiagram", _chain_shape_diagram(rng, shapes[k % 3]), 0, None))
        shape = limit_shapes[k % 3]
        sets = [sd.FinSet(LIMIT_CARRIER)] * shape.n_objects
        out.append(("limit", "setdiagram",
                    sd.SetFunctor(shape, sets, _shape_tables(rng, shape, LIMIT_CARRIER)), 0, None))
        table, bg, diagram = _gset_chain(rng)
        out.append(("fixpoints", "setdiagram", diagram, 0, (table, bg)))
        relations = sampling.random_matrix(rng, *SNF_SHAPE, 9)
        out.append(("snf", "abgroup", ag.group_from_presentation(relations), 0, None))
    return out


ARGV = {"sifted": ["check", "sifted"], "filtered": ["check", "filtered"],
        "final": ["check", "final"], "colimit": ["colimit"], "limit": ["limit"],
        "commute": ["verify", "commute"], "fixpoints": ["verify", "fixpoints"],
        "snf": ["ab", "snf"]}


def prepare(rng, n_ops, workdir):
    """Write one document per instance and check that it parses back."""
    pools = {cls: [] for cls in CLASSES}
    for k, (cls, kind, value, code, extra) in enumerate(_instances(rng)):
        text = docs.serialize_document(docs.Document(kind, value))
        if docs.parse_document(text).value != value:
            raise RuntimeError(f"{cls} document {k} does not parse back to its value")
        path = workdir / f"{cls}-{len(pools[cls])}.json"
        path.write_text(text, encoding="utf-8")
        pools[cls].append({"kind": cls, "command": " ".join(ARGV[cls]),
                           "argv": ARGV[cls] + [str(path), "--format", "machine"],
                           "code": code, "payload": _payload(value, cls, extra),
                           "bytes": len(text)})
    ops = []
    for i in range(n_ops):
        pool = pools[CLASSES[i % CYCLE]]
        ops.append(pool[(i // CYCLE) % len(pool)])
    return ops


def run(op):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = abcat_cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def check(op, res):
    """The exit code is the expected one and the JSON fields match."""
    ok = res["code"] == op["code"]
    try:
        ok = ok and json.loads(res["out"]) == op["payload"]
    except json.JSONDecodeError:
        ok = False
    return ok, {"command": op["command"], "bytes": op["bytes"]}


def same(a, b):
    return a == b
