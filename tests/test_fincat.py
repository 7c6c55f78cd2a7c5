"""Finite category structure: validation, constructions, and the
decidable checks, cross-checked against independent enumeration."""

import random
from itertools import permutations

import pytest

from abcat.errors import InputError, PreconditionError
from abcat.fincat import (CoconeWitness, FinCategory, FinFunctor, ZigZag, chain_category,
                          comma_category, cone_search, cospan_category, diamond_category,
                          diagonal_functor, discrete_category, find_zigzag,
                          full_subcategory, generator_closure, group_as_category,
                          identity_functor, is_connected, is_filtered, is_final, is_sifted,
                          parallel_pair_category, poset_category, product_category,
                          terminal_category, validate_category, validate_functor)
from abcat.documents import Document, parse_document, serialize_document
from abcat.harting import hx_category
from abcat.setdiag import FinSet
from cat_corpus import Z2_TABLE, Z3_TABLE, category_corpus, semilattice_corpus


def test_validate_one_object_identity_only():
    cat = discrete_category(1)
    assert validate_category(cat).ok


def test_validate_reports_broken_identity():
    # one object, two endomorphisms; composition makes id fail neutrality
    cat = FinCategory(1, [0, 0], [0, 0], [0],
                      {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0},
                      morphism_labels=["id", "f"])
    report = validate_category(cat)
    assert not report.ok
    assert any("identity fails for morphism 1" in p for p in report.problems)


def test_validate_chain_poset_full_composites():
    # oracle: a poset category is valid by construction; every law holds
    cat = chain_category(3)
    assert validate_category(cat).ok
    # brute-force recount of composable pairs
    pairs = sum(1 for f in range(cat.n_morphisms) for g in range(cat.n_morphisms)
                if cat.cod[f] == cat.dom[g])
    assert pairs == len(list(cat.composable_pairs()))


def test_validate_rejects_out_of_range():
    cat = FinCategory(1, [0], [5], [0], {(0, 0): 0})
    with pytest.raises(InputError):
        validate_category(cat)


def test_validate_associativity_failure_named():
    # one object, morphisms id, a, b; a*a = b, a*b = b, b*a = a makes
    # (a a) a = a but a (a a) = b
    comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
            (1, 1): 2, (1, 2): 2, (2, 1): 1, (2, 2): 2}
    bad = FinCategory(1, [0, 0, 0], [0, 0, 0], [0], comp)
    report = validate_category(bad)
    assert any("associativity fails" in p for p in report.problems)


def test_generator_closure():
    cat = chain_category(3)
    # generators: the two covering steps; everything is a composite
    labels = [cat.morphism_label(m) for m in range(cat.n_morphisms)]
    covers = [labels.index("0<=1"), labels.index("1<=2")]
    table = {k: cat.compose(*k) for k in cat.composable_pairs()}
    with_gens = FinCategory(cat.n_objects, cat.dom, cat.cod, cat.identity,
                            table, generators=covers)
    assert validate_category(with_gens).ok
    missing = FinCategory(cat.n_objects, cat.dom, cat.cod, cat.identity,
                          table, generators=[covers[0]])
    report = validate_category(missing)
    assert any("not a composite of generators" in p for p in report.problems)


def test_validate_names_each_table_and_rule_fault():
    # chain(2): 0 = 0<=0, 1 = 0<=1, 2 = 1<=1
    c = chain_category(2)
    table = dict(c.with_composition_table()._table)
    cases = [
        (FinCategory(2, c.dom, c.cod, [0, 1], table),
         ("identity of object 1 has endpoints (0,1)", "right identity fails for morphism 2")),
        (FinCategory(2, c.dom, c.cod, c.identity, {**table, (1, 1): 1}),
         ("composite defined for non-composable pair (1,1)",)),
        (FinCategory(2, c.dom, c.cod, c.identity, {**table, (2, 1): 2}),
         ("composite (2,1) has wrong endpoints", "left identity fails for morphism 1")),
        (FinCategory(2, c.dom, c.cod, c.identity, {k: v for k, v in table.items() if k != (2, 1)}),
         ("composite (2,1) undefined",)),
        (FinCategory(2, c.dom, c.cod, c.identity,
                     compose_rule=lambda g, f: 0 if (g, f) == (2, 1) else table[g, f]),
         ("composite (2,1) has wrong endpoints", "left identity fails for morphism 1")),
    ]
    for cat, problems in cases:
        assert validate_category(cat).problems == problems


def test_generator_closure_skips_missing_composites():
    cat = chain_category(3)
    # covers 0<=1 (1) and 1<=2 (4); their composite 0<=2 (2) is left out
    table = {k: v for k, v in cat.with_composition_table()._table.items() if k != (4, 1)}
    partial = FinCategory(3, cat.dom, cat.cod, cat.identity, table, generators=[1, 4])
    assert generator_closure(partial, table) == {0, 1, 3, 4, 5}


def test_product_terminal_unit():
    d = chain_category(3)
    p = product_category(terminal_category(), d)
    assert p.n_objects == d.n_objects
    assert p.n_morphisms == d.n_morphisms
    assert validate_category(p).ok


def test_product_discrete_counts():
    p = product_category(discrete_category(2), discrete_category(3))
    assert p.n_objects == 6
    assert p.n_morphisms == 6
    assert validate_category(p).ok


def test_product_chain2_squared():
    # oracle: pairs of objects and morphisms
    c = chain_category(2)
    p = product_category(c, c)
    assert p.n_objects == c.n_objects ** 2 == 4
    assert p.n_morphisms == c.n_morphisms ** 2 == 9
    assert validate_category(p).ok


def test_product_of_chain20_squared_composes_componentwise():
    # 44,100 morphisms and over 2,000,000 composable pairs: no table is built
    c = chain_category(20)
    p = product_category(c, c)
    assert p.n_morphisms == c.n_morphisms ** 2
    rng = random.Random(20)
    for _ in range(200):
        f1, f2 = rng.randrange(c.n_morphisms), rng.randrange(c.n_morphisms)
        g1 = rng.choice(c.morphisms_from(c.cod[f1]))
        g2 = rng.choice(c.morphisms_from(c.cod[f2]))
        gf = p.compose(p.pair_morphism(g1, g2), p.pair_morphism(f1, f2))
        assert gf == p.pair_morphism(c.compose(g1, f1), c.compose(g2, f2))
    words = hx_category(FinSet(1), 2).category
    q = product_category(words, discrete_category(2))
    assert q.n_morphisms == 2 * words.n_morphisms
    assert validate_category(q).ok


def test_group_as_category_trivial_and_z2():
    t = group_as_category([[0]])
    assert t.n_objects == 1 and t.n_morphisms == 1
    bz2 = group_as_category(Z2_TABLE)
    assert bz2.compose(1, 1) == 0
    assert validate_category(bz2).ok


def test_group_as_category_z3_table_oracle():
    bz3 = group_as_category(Z3_TABLE)
    for g in range(3):
        for f in range(3):
            assert bz3.compose(g, f) == (g + f) % 3
    assert validate_category(bz3).ok


def test_group_as_category_rejects_non_groups():
    with pytest.raises(InputError, match="identity"):
        group_as_category([[1, 1], [1, 1]])
    with pytest.raises(InputError, match="associative"):
        group_as_category([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    with pytest.raises(InputError, match="closed"):
        group_as_category([[0, 5], [1, 0]])


def up_set_size(n, c):
    return n - c


def test_comma_identity_poset_up_set():
    for n in (2, 3, 4):
        cat = chain_category(n)
        for c in range(n):
            k = comma_category(c, identity_functor(cat))
            # oracle: morphisms c -> d exist exactly for d >= c
            assert k.n_objects == up_set_size(n, c)
            assert validate_category(k).ok


def test_comma_over_group_category():
    bz3 = group_as_category(Z3_TABLE)
    k = comma_category(0, identity_functor(bz3))
    assert k.n_objects == 3
    assert validate_category(k).ok


def test_comma_of_empty_source():
    empty = FinCategory(0, [], [], [])
    f = FinFunctor(empty, chain_category(2), [], [])
    k = comma_category(0, f)
    assert k.n_objects == 0


def test_connectivity():
    assert is_connected(chain_category(3)).connected
    rep = is_connected(discrete_category(2))
    assert not rep.connected
    assert rep.components == ((0,), (1,))
    assert not is_connected(FinCategory(0, [], [], [])).connected


def test_zigzag_cospan():
    cat = cospan_category()
    z = find_zigzag(cat, 0, 1)
    assert z is not None
    assert z.length == 1
    assert z.check(cat)
    # independent check that the path uses l forward then r backward
    assert z.steps == ((3, True), (4, False))
    assert find_zigzag(discrete_category(2), 0, 1) is None
    trivial = find_zigzag(cat, 2, 2)
    assert trivial.length == 0 and trivial.check(cat)


def test_zigzag_padding_alternates():
    cat = chain_category(4)
    z = find_zigzag(cat, 0, 3)
    assert z.check(cat)


@pytest.mark.parametrize("zigzag", [
    ZigZag(0, 1, ((3, True),)),                    # odd number of steps
    ZigZag(0, 1, ((3, False), (4, True))),         # starts backward
    ZigZag(0, 1, ((4, True), (4, False))),         # forward step from the wrong object
    ZigZag(0, 1, ((3, True), (0, False))),         # backward step into the wrong object
    ZigZag(0, 0, ((3, True), (4, False))),         # ends at the wrong object
], ids=["odd", "starts_backward", "wrong_dom", "wrong_cod", "wrong_target"])
def test_zigzag_check_rejects_a_corrupted_witness(zigzag):
    cat = cospan_category()
    assert ZigZag(0, 1, ((3, True), (4, False))).check(cat)
    assert not zigzag.check(cat)


def test_final_identity_and_inclusions():
    cat = chain_category(3)
    assert is_final(identity_functor(cat)).final
    _, top = full_subcategory(cat, [2])
    rep = is_final(top)
    assert rep.final
    # every slice c/top is the single morphism c <= 2
    assert all(len(comp) == 1 for comp in rep.slice_components)
    _, bottom = full_subcategory(cat, [0])
    rep = is_final(bottom)
    assert not rep.final
    # oracle: slices over 1 and 2 are empty (no morphism back down)
    assert rep.failing == (1, 2)


def test_filtered():
    assert is_filtered(chain_category(3)).filtered
    rep = is_filtered(discrete_category(2))
    assert not rep.filtered and rep.failing == (0, 1)
    rep = is_filtered(group_as_category(Z2_TABLE))
    assert not rep.filtered
    assert rep.reason == "no coequalizing arrow"
    # oracle: exhaustive h-search over the group table
    table = Z2_TABLE
    assert not any(table[h][0] == table[h][1] for h in range(2))


def test_filtered_witnesses_commute():
    cat = diamond_category()
    rep = is_filtered(cat)
    assert rep.filtered
    for (a, b), (d, f, g) in rep.upper_bounds.items():
        assert cat.dom[f] == a and cat.cod[f] == d
        assert cat.dom[g] == b and cat.cod[g] == d
    for (f, g), h in rep.coequalizers.items():
        assert cat.compose(h, f) == cat.compose(h, g)


def test_sifted():
    assert is_sifted(terminal_category()).sifted
    rep = is_sifted(discrete_category(2))
    assert not rep.sifted
    assert (0, 1) in rep.failing_pairs
    for name, cat in semilattice_corpus():
        assert is_sifted(cat).sifted, name


def _square_cases():
    corpus = dict(category_corpus())
    pairs = [("discrete2", "chain2"), ("bz2", "chain2"), ("vee", "span"),
             ("parallel", "cospan"), ("chain3", "diamond")]
    return list(corpus.items()) + [
        (f"{x}*{y}", product_category(corpus[x], corpus[y])) for x, y in pairs]


def _final_cases(rng):
    """Identity functors, and full-subcategory inclusions final or not."""
    cases = [("grid3x3", product_category(chain_category(3), chain_category(3)))]
    cases += _square_cases()
    for name, cat in cases:
        yield name, identity_functor(cat)
        for _ in range(4):
            size = rng.randrange(1, cat.n_objects + 1)
            objects = sorted(rng.sample(range(cat.n_objects), size))
            yield f"{name}{objects}", full_subcategory(cat, objects)[1]


def test_sifted_via_slice_enumeration_oracle():
    # (c,c')/diag connected checked directly against comma construction
    import random
    seen_failing = set()
    for name, cat in _square_cases():
        diag, prod = diagonal_functor(cat)
        expected = tuple(
            (a, b) for a in range(cat.n_objects) for b in range(cat.n_objects)
            if not is_connected(comma_category(prod.pair_object(a, b), diag)).connected)
        rep = is_sifted(cat)
        assert rep.failing_pairs == expected, name
        assert rep.sifted == (not expected), name
        if expected:
            seen_failing.add(name)
    assert {"discrete2", "vee"} <= seen_failing
    finals = []
    for name, f in _final_cases(random.Random(5)):
        rep = is_final(f)
        expected = tuple(is_connected(comma_category(c, f)).components
                         for c in range(f.target.n_objects))
        assert rep.slice_components == expected, name
        assert rep.failing == tuple(c for c, comps in enumerate(expected)
                                    if len(comps) != 1), name
        finals.append(rep.final)
    assert True in finals and False in finals


def test_one_pass_sifted_check_matches_the_comma_oracle():
    # every slice decided in one element_classes call, each k∘p composed once
    idem = FinCategory(1, [0, 0], [0, 0], [0],
                       {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert validate_category(idem).ok
    chain = chain_category(6)
    covers = [m for m in range(chain.n_morphisms) if chain.cod[m] == chain.dom[m] + 1]
    chain6 = FinCategory(6, chain.dom, chain.cod, chain.identity,
                         {pair: chain.compose(*pair) for pair in chain.composable_pairs()},
                         generators=covers)
    cases = [("idempotent", idem),
             ("chain3*idempotent", product_category(chain_category(3), idem)),
             ("chain6 covers", chain6), ("discrete2", discrete_category(2)),
             ("vee", dict(category_corpus())["vee"])]
    failing = {}
    for name, cat in cases:
        diag, prod = diagonal_functor(cat)
        expected = tuple(
            (a, b) for a in range(cat.n_objects) for b in range(cat.n_objects)
            if not is_connected(comma_category(prod.pair_object(a, b), diag)).connected)
        rep = is_sifted(cat)
        assert rep.failing_pairs == expected, name
        assert rep.sifted == (not expected), name
        failing[name] = expected
    assert failing["discrete2"] == ((0, 1), (1, 0))
    assert failing["vee"] == ((1, 2), (2, 1))
    assert not failing["idempotent"] and not failing["chain3*idempotent"]
    # e coequalizes the parallel pair (1, e), since e∘1 = e = e∘e
    rep = is_filtered(idem)
    assert rep.filtered and rep.coequalizers == {(0, 1): 1}


def test_sifted_and_final_never_build_the_square(monkeypatch):
    import abcat.fincat as fincat
    grid = product_category(chain_category(3), chain_category(4))
    _, incl = full_subcategory(grid, [0, 5, 11])

    def refuse(*args, **kwargs):
        raise AssertionError("square or comma category built")

    for name in ("product_category", "diagonal_functor", "comma_category"):
        monkeypatch.setattr(fincat, name, refuse)
    assert is_sifted(chain_category(14)).sifted
    rep = is_sifted(discrete_category(2))
    assert not rep.sifted and rep.failing_pairs == ((0, 1), (1, 0))
    rep = is_final(incl)
    assert rep.final and len(rep.slice_components) == grid.n_objects


def test_slices_glue_along_generators_only():
    class Recording(FinCategory):
        def compose(self, g, f):
            pushed.append(g)
            return super().compose(g, f)

    chain = chain_category(5)
    covers = [m for m in range(chain.n_morphisms) if chain.cod[m] == chain.dom[m] + 1]
    table = {pair: chain.compose(*pair) for pair in chain.composable_pairs()}
    cat = Recording(5, chain.dom, chain.cod, chain.identity, table, generators=covers)
    pushed = []
    assert validate_category(cat).ok
    pushed.clear()
    assert is_sifted(cat).sifted
    assert is_final(identity_functor(cat)).final
    assert set(pushed) == set(covers)


def test_cone_search_chain_top():
    cat = chain_category(3)
    shape = discrete_category(2)
    diagram = FinFunctor(shape, cat, [0, 1], [cat.identity[0], cat.identity[1]])
    witness = cone_search(diagram)
    assert witness is not None
    assert witness.check(diagram)
    # deterministic: the least upper bound is found first
    assert witness.vertex == 1


def test_cone_search_empty_diagram():
    empty = FinCategory(0, [], [], [])
    cat = chain_category(2)
    witness = cone_search(FinFunctor(empty, cat, [], []))
    assert witness.vertex == 0 and witness.legs == ()


def test_cone_search_parallel_pair_into_filtered_poset():
    cat = diamond_category()
    shape = parallel_pair_category()
    arrow = cat.hom(0, 1)[0]
    diagram = FinFunctor(shape, cat, [0, 1],
                         [cat.identity[0], cat.identity[1], arrow, arrow])
    witness = cone_search(diagram, require_filtered=True)
    assert witness is not None and witness.check(diagram)


def test_cone_search_always_succeeds_on_filtered_targets():
    # a filtered target admits a cocone for every small diagram
    import random
    rng = random.Random(271)
    targets = [chain_category(3), chain_category(4), diamond_category()]
    shapes = [discrete_category(2), parallel_pair_category(), cospan_category()]
    for _ in range(30):
        target = rng.choice(targets)
        shape = rng.choice(shapes)
        on_obj = [rng.randrange(target.n_objects) for _ in range(shape.n_objects)]
        on_mor = []
        retry = False
        for m in range(shape.n_morphisms):
            a, b = shape.dom[m], shape.cod[m]
            if shape.identity[a] == m and a == b:
                on_mor.append(target.identity[on_obj[a]])
                continue
            candidates = target.hom(on_obj[a], on_obj[b])
            if not candidates:
                retry = True
                break
            on_mor.append(rng.choice(candidates))
        if retry:
            continue
        diagram = FinFunctor(shape, target, on_obj, on_mor)
        if not validate_functor(diagram).ok:
            continue
        witness = cone_search(diagram, require_filtered=True)
        assert witness is not None
        assert witness.check(diagram)


def test_cocone_check_rejects_corrupted_legs():
    cat = parallel_pair_category()
    diagram = identity_functor(cat)
    # a leg out of the wrong object, a leg into another vertex, legs that commute
    # with f but not with g
    for vertex, legs in ((1, (1, 1)), (0, (0, 1)), (1, (2, 1))):
        assert not CoconeWitness(vertex, legs).check(diagram)


def test_cone_search_finds_no_cocone_on_an_unequalized_pair():
    # the parallel pair's own arrows f != g: every vertex is rejected
    cat = parallel_pair_category()
    assert cone_search(identity_functor(cat)) is None


def test_cone_search_precondition():
    shape = discrete_category(1)
    target = discrete_category(2)
    diagram = FinFunctor(shape, target, [0], [target.identity[0]])
    with pytest.raises(PreconditionError):
        cone_search(diagram, require_filtered=True)
    assert cone_search(diagram) is not None


def test_validate_functor_laws():
    cat = chain_category(3)
    assert validate_functor(identity_functor(cat)).ok
    # break identity preservation
    broken = FinFunctor(discrete_category(1), cat, [0], [cat.hom(0, 1)[0]])
    assert not validate_functor(broken).ok


# --- corpus-wide invariants ------------------------------------------------


def test_filtered_implies_sifted_on_corpus():
    for name, cat in category_corpus():
        if is_filtered(cat).filtered:
            assert is_sifted(cat).sifted, name


def test_terminal_object_implies_filtered_connected():
    for name, cat in category_corpus():
        has_terminal = any(all(len(cat.hom(a, t)) == 1 for a in range(cat.n_objects))
                           for t in range(cat.n_objects))
        if has_terminal:
            assert is_filtered(cat).filtered, name
            assert is_connected(cat).connected, name


def test_constructors_validate_on_corpus():
    for name, cat in category_corpus():
        assert validate_category(cat).ok, name
    for name, cat in category_corpus():
        if cat.n_objects and cat.n_objects <= 3 and cat.n_morphisms <= 6:
            p = product_category(cat, chain_category(2))
            assert validate_category(p).ok, name
            k = comma_category(0, identity_functor(cat))
            assert validate_category(k).ok, name


class QuickUnionFind:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            x = self.p[x]
        return x

    def union(self, a, b):
        self.p[self.find(a)] = self.find(b)


def test_connectivity_against_union_find_oracle():
    for name, cat in category_corpus():
        if cat.n_objects == 0:
            continue
        uf = QuickUnionFind(cat.n_objects)
        for m in range(cat.n_morphisms):
            uf.union(cat.dom[m], cat.cod[m])
        roots = {uf.find(x) for x in range(cat.n_objects)}
        assert is_connected(cat).connected == (len(roots) == 1), name


def test_zigzag_witnesses_on_connected_corpus():
    for name, cat in category_corpus():
        rep = is_connected(cat)
        if not rep.connected:
            continue
        for a in range(cat.n_objects):
            for b in range(cat.n_objects):
                z = find_zigzag(cat, a, b)
                assert z is not None and z.check(cat), name


# ---------------------------------------------------------------------------
# composition by rule: equal to the tabulated copy, verdicts unchanged

def grid_poset(rows, cols):
    rel = [(r1 * cols + c1, r2 * cols + c2)
           for r1 in range(rows) for c1 in range(cols)
           for r2 in range(r1, rows) for c2 in range(c1, cols) if (r1, c1) != (r2, c2)]
    return poset_category(rows * cols, rel)


def permutation_group_table(n):
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(g[f[x]] for x in range(n))] for f in perms] for g in perms]


def built_categories():
    """Categories composed by rule, from every library constructor."""
    corpus = category_corpus()
    cats = list(corpus)
    cats += [(f"{a}x{b}", product_category(c, d)) for a, c in corpus for b, d in corpus]
    grid = grid_poset(3, 4)
    cats.append(("grid", grid))
    cats += [(f"grid/{c}", comma_category(c, identity_functor(grid))) for c in range(12)]
    rng = random.Random(34)
    for k in (1, 4, 6, 9):
        objects = sorted(rng.sample(range(12), k))
        sub, incl = full_subcategory(grid, objects)
        cats += [(f"grid{objects}", sub), (f"0/grid{objects}", comma_category(0, incl))]
    klein = [[a ^ b for b in range(4)] for a in range(4)]
    for name, table in (("z2", Z2_TABLE), ("z3", Z3_TABLE), ("klein", klein),
                        ("s3", permutation_group_table(3))):
        cats.append((name, group_as_category(table)))
    return cats


def test_built_categories_equal_their_tabulated_copies():
    for name, cat in built_categories():
        table = cat.with_composition_table()
        assert cat == table and table == cat, name
        assert validate_category(cat).ok, name


def test_equality_compares_composites_however_stored():
    assert chain_category(6) == chain_category(6)
    assert chain_category(6) != chain_category(5)
    chain = chain_category(6)
    doc = parse_document(serialize_document(Document("category", chain)))
    assert doc.value == chain and chain == doc.value
    # one composite changed in the table breaks equality with the rule
    table = dict(chain.with_composition_table()._table)
    table[(chain.identity[0], chain.identity[0])] = 1
    assert FinCategory(6, chain.dom, chain.cod, chain.identity, table,
                       morphism_labels=chain.morphism_labels) != chain
    # lazily listed truncations have no structural key: equal only to themselves
    words = hx_category(FinSet(1), 2).category
    assert words == words and words != words.with_composition_table()


def test_verdicts_of_built_categories_match_their_tables():
    for name, cat in built_categories():
        table = cat.with_composition_table()
        assert is_connected(cat) == is_connected(table), name
        assert is_filtered(cat) == is_filtered(table), name
        assert is_sifted(cat) == is_sifted(table), name
