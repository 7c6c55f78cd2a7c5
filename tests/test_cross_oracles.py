"""Brute-force finite-group oracles for the presented (co)limit machinery.

For diagrams of finite groups everything is enumerable: the direct sum
is a finite set of coordinate tuples, the glued subgroup is an additive
closure, the colimit is a literal quotient, and the limit is a filtered
product. Comparing sizes and annihilator counts (a complete invariant
for bounded exponent) against the canonical forms computed by the
presentation route exercises that entire pipeline independently.
"""

import random
from itertools import product as iproduct
from math import gcd, prod

from abcat.abdiag import AbDiagram, ab_colimit, ab_limit, validate_diagram
from abcat.abgrp import (AbHom, FGAbGroup, biproduct, canonicalize, from_canonical_form,
                         hom_compose, identity_hom, summand_offsets)
from abcat.fincat import (FinCategory, chain_category, diamond_category,
                          group_as_category, parallel_pair_category, poset_category,
                          span_category)
from abcat.harting import harting_expand, hx_category
from abcat.intmat import IntMatrix, block_diagonal, hstack
from abcat.sampling import (DIAMOND_COVERS, random_family, random_poset_functor,
                            scramble_group)
from abcat.setdiag import FinSet, SetFunctor, set_limit
from cat_corpus import random_hom

EXPONENT_FACTORS = [(2,), (3,), (4,), (2, 2), (2, 4), (3, 3), (4, 4), (2, 2)]


def random_torsion_group(rng):
    return from_canonical_form(0, rng.choice(EXPONENT_FACTORS))


def free_shape_diagram(rng, base):
    """Any hom assignment works when no non-identity pairs compose."""
    plain = [random_torsion_group(rng) for _ in range(base.n_objects)]
    scrambles = [scramble_group(rng, g) for g in plain]
    groups = [s[0] for s in scrambles]
    homs = []
    for m in range(base.n_morphisms):
        a, b = base.dom[m], base.cod[m]
        if base.identity[a] == m:
            homs.append(identity_hom(groups[a]))
        else:
            homs.append(hom_compose(scrambles[b][1],
                                    hom_compose(random_hom(rng, plain[a], plain[b]),
                                                scrambles[a][2])))
    return AbDiagram(base, groups, homs)


def chain_diagram(rng, base):
    """Composable by construction: transitions are composites of steps."""
    n = base.n_objects
    plain = [random_torsion_group(rng) for _ in range(n)]
    scrambles = [scramble_group(rng, g) for g in plain]
    groups = [s[0] for s in scrambles]
    steps = [random_hom(rng, plain[i], plain[i + 1]) for i in range(n - 1)]
    homs = []
    for m in range(base.n_morphisms):
        a, b = base.dom[m], base.cod[m]
        h = identity_hom(plain[a])
        for i in range(a, b):
            h = hom_compose(steps[i], h)
        homs.append(hom_compose(scrambles[b][1], hom_compose(h, scrambles[a][2])))
    return AbDiagram(base, groups, homs)


def shift_module_diagram(rng, base):
    """One-object Z/3 base: the action cycles three copies of a group."""
    a = random_torsion_group(rng)
    tripled, injections, projections = biproduct([a, a, a])
    shift = hom_compose(injections[1], projections[0]) + \
        hom_compose(injections[2], projections[1]) + \
        hom_compose(injections[0], projections[2])
    scrambled, fwd, bwd = scramble_group(rng, tripled)
    action = hom_compose(fwd, hom_compose(shift, bwd))
    action2 = hom_compose(action, action)
    ident = base.identity[0]
    homs = []
    for m in range(base.n_morphisms):
        if m == ident:
            homs.append(identity_hom(scrambled))
        elif m == (ident + 1) % 3:
            homs.append(action)
        else:
            homs.append(action2)
    return AbDiagram(base, [scrambled], homs)


def involution_module_diagram(rng, base):
    """One-object Z/2 base: the action is a swap on a doubled group."""
    a = random_torsion_group(rng)
    doubled, injections, projections = biproduct([a, a])
    swap = hom_compose(injections[0], projections[1]) + \
        hom_compose(injections[1], projections[0])
    scrambled, fwd, bwd = scramble_group(rng, doubled)
    action = hom_compose(fwd, hom_compose(swap, bwd))
    ident = base.identity[0]
    homs = [identity_hom(scrambled) if m == ident else action
            for m in range(base.n_morphisms)]
    return AbDiagram(base, [scrambled], homs)


BASES = [
    (parallel_pair_category(), free_shape_diagram),
    (span_category(), free_shape_diagram),
    (chain_category(3), chain_diagram),
    (group_as_category([[0, 1], [1, 0]]), involution_module_diagram),
    (group_as_category([[0, 1, 2], [1, 2, 0], [2, 0, 1]]), shift_module_diagram),
]


def direct_sum_coordinates(orders_per_object):
    offsets = []
    acc = 0
    for orders in orders_per_object:
        offsets.append(acc)
        acc += len(orders)
    flat_orders = [d for orders in orders_per_object for d in orders]
    return offsets, flat_orders


def closure(generators, flat_orders):
    """Additive closure of generator tuples inside the finite direct sum."""
    zero = tuple(0 for _ in flat_orders)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(v % d for v, d in zip(g, flat_orders)) for g in generators]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % d for a, b, d in zip(x, g, flat_orders))
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def annihilator_counts_of_form(form, ks):
    """#{x : k x = 0} in the canonical group, per k."""
    free, factors = form
    assert free == 0
    return {k: prod(gcd(k, d) for d in factors) for k in ks}


KS = tuple(range(1, 13))


def brute_force_colimit_invariants(diagram):
    """(size, annihilator counts) of the colimit, by literal quotient."""
    base = diagram.base
    canons = [canonicalize(g) for g in diagram.groups]
    orders_per_object = []
    for c in canons:
        free, factors = c.canonical.canonical_form
        assert free == 0
        orders_per_object.append(list(factors))
    offsets, flat_orders = direct_sum_coordinates(orders_per_object)
    total = len(flat_orders)
    generators = []
    for m in range(base.n_morphisms):
        a, b = base.dom[m], base.cod[m]
        if base.identity[a] == m:
            continue
        transported = hom_compose(canons[b].to_canonical,
                                  hom_compose(diagram.hom(m), canons[a].from_canonical))
        mat = transported.matrix
        for j in range(len(orders_per_object[a])):
            g = [0] * total
            for i in range(len(orders_per_object[b])):
                g[offsets[b] + i] += mat.data[i][j]
            g[offsets[a] + j] -= 1
            generators.append(tuple(g))
    subgroup = closure(generators, flat_orders)
    ambient = prod(flat_orders) if flat_orders else 1
    size = ambient // len(subgroup)
    counts = {}
    for k in KS:
        hits = 0
        for x in iproduct(*(range(d) for d in flat_orders)):
            scaled = tuple((k * v) % d for v, d in zip(x, flat_orders))
            if scaled in subgroup:
                hits += 1
        counts[k] = hits // len(subgroup)
    return size, counts


def brute_force_limit_invariants(diagram):
    """(size, annihilator counts) of the limit, by filtering the product."""
    base = diagram.base
    canons = [canonicalize(g) for g in diagram.groups]
    orders_per_object = []
    for c in canons:
        free, factors = c.canonical.canonical_form
        assert free == 0
        orders_per_object.append(list(factors))
    transported = {}
    for m in range(base.n_morphisms):
        a, b = base.dom[m], base.cod[m]
        if base.identity[a] == m:
            continue
        transported[m] = hom_compose(
            canons[b].to_canonical,
            hom_compose(diagram.hom(m), canons[a].from_canonical)).matrix
    members = []
    spaces = [list(iproduct(*(range(d) for d in orders))) for orders in orders_per_object]
    for combo in iproduct(*spaces):
        ok = True
        for m, mat in transported.items():
            a, b = base.dom[m], base.cod[m]
            image = mat.apply(combo[a])
            if any((image[i] - combo[b][i]) % orders_per_object[b][i]
                   for i in range(len(orders_per_object[b]))):
                ok = False
                break
        if ok:
            members.append(combo)
    member_set = set(members)
    counts = {}
    for k in KS:
        hits = 0
        for combo in members:
            scaled = tuple(tuple((k * v) % d for v, d in zip(part, orders))
                           for part, orders in zip(combo, orders_per_object))
            if all(all(v == 0 for v in part) for part in scaled):
                hits += 1
        counts[k] = hits
    return len(members), counts


def test_colimit_against_literal_finite_quotient():
    rng = random.Random(42424242)
    checked = 0
    for trial in range(24):
        base, builder = BASES[trial % len(BASES)]
        diagram = builder(rng, base)
        assert validate_diagram(diagram).ok, trial
        ambient = prod(d for g in diagram.groups for d in g.canonical_form[1])
        if ambient > 5000:
            continue
        size, counts = brute_force_colimit_invariants(diagram)
        col = ab_colimit(diagram)
        free, factors = col.carrier.canonical_form
        assert free == 0, (trial, col.carrier.canonical_form)
        assert prod(factors) == size, (trial, factors, size)
        assert annihilator_counts_of_form((free, factors), KS) == counts, trial
        checked += 1
    assert checked >= 18


def test_limit_against_literal_finite_product():
    rng = random.Random(24242424)
    checked = 0
    for trial in range(24):
        base, builder = BASES[trial % len(BASES)]
        diagram = builder(rng, base)
        assert validate_diagram(diagram).ok, trial
        ambient = prod(d for g in diagram.groups for d in g.canonical_form[1])
        if ambient > 5000:
            continue
        size, counts = brute_force_limit_invariants(diagram)
        lim = ab_limit(diagram)
        free, factors = lim.carrier.canonical_form
        assert free == 0, (trial, lim.carrier.canonical_form)
        assert prod(factors) == size, (trial, factors, size)
        assert annihilator_counts_of_form((free, factors), KS) == counts, trial
        checked += 1
    assert checked >= 18


def full_relation_relations(diagram, morphisms=None):
    """Colimit relations glued along every non-identity morphism.

    The reference for the generator shortcut in ab_colimit: one column
    per (morphism, source generator), whatever the base's generators.
    ``morphisms`` restricts the gluing to those morphisms.
    """
    base = diagram.base
    offsets = [0]
    for g in diagram.groups:
        offsets.append(offsets[-1] + g.gens)
    total = offsets[-1]
    cols = []
    for m in range(base.n_morphisms) if morphisms is None else morphisms:
        a, b = base.dom[m], base.cod[m]
        if base.identity[a] == m:
            continue
        mat = diagram.hom(m).matrix
        for j in range(diagram.groups[a].gens):
            col = [0] * total
            for i in range(diagram.groups[b].gens):
                col[offsets[b] + i] += mat.entry(i, j)
            col[offsets[a] + j] -= 1
            cols.append(col)
    object_rels = block_diagonal([g.relations for g in diagram.groups])
    return hstack(object_rels, IntMatrix.from_columns(cols, total))


def pair_expansion(family, hx):
    """Word (n, x) -> the sum over position pairs (i, j) of family[x_i];
    an index map f routes summand (i, j) to (f(i), f(j)).

    Unlike the plain expansion, its gluing along merges and transpositions
    does not follow from that along insertions, so a generating set that
    misses either changes this colimit.
    """
    groups, offsets = [], []
    for obj in hx.objects:
        parts = [family[obj.word[i]] for i in range(obj.arity) for _ in range(obj.arity)]
        starts = [0]
        for g in parts:
            starts.append(starts[-1] + g.gens)
        offsets.append(starts)
        groups.append(FGAbGroup(starts[-1], block_diagonal([g.relations for g in parts])
                                if parts else IntMatrix.zeros(0, 0)))
    homs = []
    for si, ti, f in hx.morphisms:
        n, m = hx.objects[si].arity, hx.objects[ti].arity
        mat = [[0] * groups[si].gens for _ in range(groups[ti].gens)]
        for i in range(n):
            for j in range(n):
                src, tgt = offsets[si][i * n + j], offsets[ti][f[i] * m + f[j]]
                for t in range(family[hx.objects[si].word[i]].gens):
                    mat[tgt + t][src + t] = 1
        homs.append(AbHom(groups[si], groups[ti],
                          IntMatrix(mat, shape=(groups[ti].gens, groups[si].gens))))
    return AbDiagram(hx, groups, homs)


def signed_expansion(family, hx):
    """The expansion with generator i of object c negated when c + i is odd,
    so that gluing identifies generators up to either sign."""
    diagram = harting_expand(family, hx)
    signs = [[(-1) ** (c + i) for i in range(g.gens)] for c, g in enumerate(diagram.groups)]

    def flip(m, rows, cols):
        return IntMatrix([[rows[i] * x * cols[j] for j, x in enumerate(r)]
                          for i, r in enumerate(m.data)], shape=m.shape)

    groups = [FGAbGroup(g.gens, flip(g.relations, s, [1] * g.relations.cols))
              for g, s in zip(diagram.groups, signs)]
    base = diagram.base
    homs = [AbHom(groups[base.dom[m]], groups[base.cod[m]],
                  flip(h.matrix, signs[base.cod[m]], signs[base.dom[m]]))
            for m, h in enumerate(diagram.homs)]
    return AbDiagram(base, groups, homs)


def test_generator_colimit_matches_full_relation_colimit():
    # (letters, cap) -> seeded family draws, for each diagram builder
    cases = [(harting_expand, {(1, 2): 4, (2, 2): 4, (2, 3): 4, (3, 3): 2}),
             (pair_expansion, {(1, 2): 3, (2, 2): 3, (1, 3): 2, (2, 3): 2}),
             (signed_expansion, {(1, 2): 3, (2, 2): 3, (2, 3): 3, (3, 3): 1})]
    for build, sizes in cases:
        for (letters, cap), draws in sizes.items():
            hx = hx_category(FinSet(letters), cap)
            assert hx.generators is not None
            rng = random.Random(1000 * letters + cap)
            for trial in range(draws):
                diagram = build(random_family(rng, letters), hx)
                colim = ab_colimit(diagram)
                generated = colim.carrier
                full = full_relation_relations(diagram)
                # the gluing along generators spans a sublattice of the
                # full-relation lattice, so membership there proves
                # membership in it, at a fraction of the lattice's cost
                sub = FGAbGroup(full.rows, full_relation_relations(diagram,
                                                                   hx.generators))
                # q: the cocone legs side by side, Z^total -> carrier; s: the
                # section picking each carrier generator's representative
                q = hstack(*[leg.matrix for leg in colim.cocone.components])
                offsets = summand_offsets(diagram.groups)
                live = [offsets[c] + i for c, i in colim.representatives]
                s = IntMatrix.from_columns(
                    [[1 if r == k else 0 for r in range(full.rows)] for k in live], full.rows)
                # both maps are well defined, and mutually inverse modulo the
                # full-relation lattice: the carrier is its quotient
                assert generated.relations.cols < full.cols
                for col in (q @ full).columns():
                    assert generated.contains_relation(col), (build, letters, cap, trial)
                for col in (s @ generated.relations).columns():
                    assert sub.contains_relation(col), (build, letters, cap, trial)
                assert q @ s == IntMatrix.identity(len(live))
                for col in (s @ q - IntMatrix.identity(full.rows)).columns():
                    assert sub.contains_relation(col), (build, letters, cap, trial)
                assert generated.canonical_form == FGAbGroup(full.rows, full).canonical_form


def with_cover_generators(poset, covers):
    """The same poset category with its cover relations as ``generators``."""
    labels = [poset.morphism_label(m) for m in range(poset.n_morphisms)]
    table = {(g, f): poset.compose(g, f) for g, f in poset.composable_pairs()}
    return FinCategory(poset.n_objects, poset.dom, poset.cod, poset.identity, table,
                       object_labels=poset.object_labels, morphism_labels=labels,
                       generators=[labels.index(f"{a}<={b}") for a, b in covers])


def linearized(rng, x: SetFunctor):
    """The diagram (Z/n)[X] of a set diagram, in scrambled presentations."""
    n = rng.choice([0, 2, 3, 4])
    plain = []
    for s in x.sets:
        columns = [[n * (i == j) for i in range(s.size)] for j in range(s.size)] if n else []
        plain.append(FGAbGroup(s.size, IntMatrix.from_columns(columns, s.size)))
    scrambles = [scramble_group(rng, g) for g in plain]
    homs = []
    for m, table in enumerate(x.tables):
        a, b = x.base.dom[m], x.base.cod[m]
        rows = [[int(table[j] == i) for j in range(len(table))] for i in range(plain[b].gens)]
        linear = AbHom(plain[a], plain[b], IntMatrix(rows, shape=(plain[b].gens, plain[a].gens)))
        homs.append(hom_compose(scrambles[b][1], hom_compose(linear, scrambles[a][2])))
    return AbDiagram(x.base, [s[0] for s in scrambles], homs)


def test_limits_along_covers_match_limits_along_every_morphism():
    # a functor agreeing along the covers agrees along every relation, and
    # both limits are canonical, so reading the covers alone changes nothing
    rng = random.Random(2024)
    shapes = [(chain_category(4), ((0, 1), (1, 2), (2, 3))),
              (diamond_category(), DIAMOND_COVERS),
              (poset_category(3, [(0, 1), (0, 2)]), ((0, 1), (0, 2)))]
    for poset, covers in shapes:
        generated = with_cover_generators(poset, covers)
        for _ in range(6):
            x = random_poset_functor(rng, poset, covers)
            assert set_limit(x) == set_limit(SetFunctor(generated, x.sets, x.tables))
            d = linearized(rng, x)
            assert validate_diagram(d).ok
            full = ab_limit(d)
            along_covers = ab_limit(AbDiagram(generated, d.groups, d.homs))
            assert along_covers.carrier == full.carrier
            assert along_covers.cone.components == full.cone.components
