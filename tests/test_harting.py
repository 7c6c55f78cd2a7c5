"""The truncated word category and the coproduct expansion."""

import hashlib
import random
import time
from collections import Counter
from itertools import combinations, product as iproduct

import pytest

from abcat.abdiag import (AbColimit, AbDiagram, ab_colimit, ab_limit,
                          induced_map_on_colimits, validate_diagram)
from abcat.abgrp import (AbHom, FGAbGroup, biproduct, cyclic, describe_form, direct_sum,
                         free_abelian, hom, hom_compose, hom_equal, identity_hom, zero_group)
from abcat import harting, setdiag
from abcat.errors import BudgetError, InputError, PreconditionError, TruncationError
from abcat.fincat import (Cocone, FinCategory, FinFunctor, identity_functor, is_connected,
                          is_final, validate_category, validate_functor)
from abcat.harting import (HXMorphism, HXObject, h_embedding, harting_compare,
                           harting_expand, hx_category, hx_coproduct,
                           hx_filtered_bounded_report, hx_sifted_bounded_report, hx_skeleton)
from abcat.intmat import IntMatrix
from abcat.sampling import random_family
from abcat.setdiag import FinSet, SetFunctor
from abcat.verify import run_suite, verify_harting
from test_cross_oracles import pair_expansion, signed_expansion

AB = FinSet(2, ("a", "b"))


def test_object_counts():
    single = hx_category(FinSet(1, ("a",)), 2)
    assert len(single.objects) == 3  # (), (a), (aa)
    two = hx_category(AB, 2)
    # oracle: 1 + 2 + 4 words
    assert len(two.objects) == sum(2 ** n for n in range(3)) == 7


def test_objects_ordered_by_arity_then_word():
    two = hx_category(AB, 2)
    words = [(o.arity, o.word) for o in two.objects]
    assert words == sorted(words)


def test_hom_single_morphism():
    two = hx_category(AB, 2)
    src = two.object_index(HXObject(1, (0,)))
    tgt = two.object_index(HXObject(2, (0, 1)))
    # oracle: exhaustive search over maps 1 -> 2 with the word condition
    valid = [f for f in iproduct(range(2), repeat=1) if (0, 1)[f[0]] == 0]
    assert valid == [(0,)]
    homs = two.hom(src, tgt)
    assert len(homs) == 1
    assert two.morphisms[homs[0]][2] == (0,)


def test_category_laws_small():
    two = hx_category(AB, 2)
    assert validate_category(two).ok


def test_generators_generate_the_truncation():
    for letters, cap, expected in ((1, 2, 4), (2, 3, 40), (3, 3, 114)):
        cat = hx_category(FinSet(letters), cap)
        assert len(cat.generators) == expected
        assert all(cat.identity[cat.dom[g]] != g for g in cat.generators)
    # no generator gap, and the category laws hold
    for letters, cap in ((2, 3), (3, 2), (3, 3)):
        assert validate_category(hx_category(FinSet(letters), cap)).ok


def test_budget_error():
    with pytest.raises(BudgetError):
        hx_category(FinSet(3), 4, max_morphisms=1000)
    # the budget holds on every request, also after a build under a larger one
    assert len(hx_category(FinSet(2), 3, max_morphisms=10 ** 6).morphisms) == 389
    with pytest.raises(BudgetError):
        hx_category(FinSet(2), 3, max_morphisms=388)


@pytest.mark.parametrize("letters, cap, morphisms", [
    (4, 5, 4_373_513), (3, 6, 46_033_573),
    (2, 30, 278_784_155_593_371_945_483_008_204_983_844_928_230_639_566_965_697_747),
    (4, 20, 133_274_566_037_409_517_515_975_326_171_311_837_061)])
def test_oversized_word_categories_are_refused_before_the_build(letters, cap, morphisms):
    # the budget is checked on counts per pair of letter contents, before
    # any offset of a pair of words is filled in
    start = time.perf_counter()
    with pytest.raises(BudgetError) as refused:
        hx_category(FinSet(letters), cap)
    assert time.perf_counter() - start < 0.5
    assert str(refused.value) == f"HX truncation holds {morphisms} morphisms, budget is 500000"


def test_word_morphisms_are_counted_in_closed_form():
    # each of the L ** n words of length n takes n ** m maps from each word
    # of length m; the count is exact, so one less refuses the build
    for letters, cap in iproduct(range(4), range(1, 4)):
        closed = sum(letters ** n * n ** m for n in range(cap + 1) for m in range(cap + 1))
        assert len(hx_category(FinSet(letters), cap).morphisms) == closed
        with pytest.raises(BudgetError, match=f"holds {closed} morphisms, budget is {closed - 1}$"):
            hx_category(FinSet(letters), cap, max_morphisms=closed - 1)


def test_skeleton_morphisms_are_counted_in_closed_form():
    # a word of content s has prod_v t_v ** s_v maps into a word of content
    # t; the count over the listed pairs of contents is exact, so one less
    # refuses the build
    from collections import Counter
    from itertools import combinations_with_replacement
    from math import prod
    for letters, cap in iproduct(range(5), range(1, 5)):
        contents = [Counter(c) for n in range(cap + 1)
                    for c in combinations_with_replacement(range(letters), n)]
        listed = sum(prod(t[v] ** k for v, k in s.items()) for s in contents for t in contents)
        skeleton = hx_skeleton(FinSet(letters), cap, max_morphisms=10 ** 6)
        assert len(skeleton.morphisms) == skeleton.n_morphisms == listed
        with pytest.raises(BudgetError, match=f"holds {listed} morphisms, budget is {listed - 1}$"):
            hx_skeleton(FinSet(letters), cap, max_morphisms=listed - 1)


def test_oversized_skeletons_are_refused_before_listing_contents():
    # (40, 5) has 1,221,759 letter contents; the count needs none of them
    start = time.perf_counter()
    with pytest.raises(BudgetError) as refused:
        hx_skeleton(FinSet(40), 5)
    assert time.perf_counter() - start < 0.5
    assert str(refused.value) == "HX truncation holds 369196397 morphisms, budget is 500000"


def test_equal_requests_share_one_truncation():
    first, second = hx_category(FinSet(2), 2), hx_category(FinSet(2), 2)
    assert first is second and first == second
    family = random_family(random.Random(3), 2)
    d = harting_expand(family, first)
    e = harting_expand(family, second)
    induced, colim_d, _ = induced_map_on_colimits(
        d, e, [identity_hom(g) for g in d.groups])
    assert hom_equal(induced, identity_hom(colim_d.carrier))
    # labels are part of the key
    labelled = hx_category(AB, 2)
    assert labelled is not first and labelled.alphabet == AB
    assert labelled.object_labels != first.object_labels


def test_truncations_kept_are_bounded():
    harting._truncation.cache_clear()
    first = hx_category(FinSet(1), 1)
    kept = harting._truncation.cache_info().maxsize
    for letters in range(2, kept + 2):
        hx_category(FinSet(letters), 1)
    assert harting._truncation.cache_info().currsize == kept
    rebuilt = hx_category(FinSet(1), 1)
    assert rebuilt is not first and rebuilt == first


def test_seeded_suite_builds_each_truncation_once(monkeypatch):
    builds = []
    build = harting._build_truncation

    def counted(alphabet, cap, max_morphisms, skeleton):
        builds.append((alphabet, cap, skeleton))
        return build(alphabet, cap, max_morphisms, skeleton)

    harting._truncation.cache_clear()
    monkeypatch.setattr(harting, "_build_truncation", counted)
    assert run_suite("harting", 12, 5, stability_cap=3).ok
    # skeletons on 1-3 letters, each at cap 2 and stability cap 3
    assert len(builds) == len(set(builds)) <= 6
    assert builds and all(skeleton for _, _, skeleton in builds)


def test_a_rebuilt_truncation_equals_the_evicted_one():
    family = random_family(random.Random(7), 2)
    harting._truncation.cache_clear()
    first = hx_skeleton(FinSet(2), 2)
    d = harting_expand(family, first)
    for letters in range(3, 3 + harting._truncation.cache_info().maxsize):
        hx_skeleton(FinSet(letters), 1)
    rebuilt = hx_skeleton(FinSet(2), 2)
    assert rebuilt is not first and rebuilt == first and hash(rebuilt) == hash(first)
    e = harting_expand(family, rebuilt)
    assert d == e
    induced, colim_d, _ = induced_map_on_colimits(d, e, [identity_hom(g) for g in d.groups])
    assert hom_equal(induced, identity_hom(colim_d.carrier))


@pytest.mark.parametrize("build", [hx_category, hx_skeleton])
@pytest.mark.parametrize("letters, cap", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_truncation_is_a_category_with_its_table_hom_sets(build, letters, cap):
    h = build(FinSet(letters), cap)
    table = h.with_composition_table()
    assert isinstance(h, FinCategory) and type(table) is FinCategory
    for a, b in iproduct(range(h.n_objects), repeat=2):
        assert list(h.hom(a, b)) == list(table.hom(a, b))
    emb = h_embedding(h)
    assert emb.target is h and validate_functor(emb).ok
    # a truncation equals its tabulated copy, and hashes like it
    assert h == table and table == h and hash(h) == hash(table)


def test_truncations_compare_by_alphabet_cap_and_kind():
    words = hx_category(FinSet(2), 2)
    wider = hx_category(FinSet(2), 2, max_morphisms=10 ** 6)
    assert wider is not words and wider == words and hash(wider) == hash(words)
    assert hx_category(AB, 2) != words and hx_category(FinSet(2), 3) != words
    # on one letter the words are the sorted words: one category, however built
    one, sorted_one = hx_category(FinSet(1), 2), hx_skeleton(FinSet(1), 2)
    assert one.with_composition_table() == sorted_one.with_composition_table()
    assert one == sorted_one and sorted_one == one and hash(one) == hash(sorted_one)


def test_coproduct_examples():
    two = hx_category(AB, 2)
    a = HXObject(1, (0,))
    b = HXObject(1, (1,))
    target, left, right = hx_coproduct(two, a, b)
    assert target == HXObject(2, (0, 1))
    assert left.mapping == (0,) and right.mapping == (1,)
    empty = HXObject(0, ())
    t2, l2, r2 = hx_coproduct(two, empty, a)
    assert t2 == a and r2.mapping == (0,)
    t3, _, _ = hx_coproduct(two, a, a)
    assert t3 == HXObject(2, (0, 0))


def test_coproduct_cap_exceeded():
    two = hx_category(AB, 2)
    with pytest.raises(TruncationError, match="cap"):
        hx_coproduct(two, HXObject(2, (0, 0)), HXObject(1, (1,)))


def test_coproduct_universal_property_exhaustive():
    two = hx_category(AB, 2)
    u = HXObject(1, (0,))
    v = HXObject(1, (1,))
    target, left, right = hx_coproduct(two, u, v)
    ui, vi, ti = (two.object_index(o) for o in (u, v, target))
    for wi, w in enumerate(two.objects):
        for p in two.hom(ui, wi):
            pm = two.morphisms[p][2]
            for q in two.hom(vi, wi):
                qm = two.morphisms[q][2]
                mediating = [m for m in two.hom(ti, wi)
                             if all(two.morphisms[m][2][left.mapping[i]] == pm[i]
                                    for i in range(u.arity))
                             and all(two.morphisms[m][2][right.mapping[j]] == qm[j]
                                     for j in range(v.arity))]
                assert len(mediating) == 1


def test_embedding():
    single = hx_category(FinSet(1, ("x",)), 2)
    emb = h_embedding(single)
    assert validate_functor(emb).ok
    assert single.objects[emb.on_objects[0]] == HXObject(1, (0,))
    two = hx_category(AB, 2)
    emb2 = h_embedding(two)
    assert len(set(emb2.on_objects)) == 2


def test_expand_recovers_family_at_singletons():
    two = hx_category(AB, 2)
    family = [free_abelian(1), cyclic(2)]
    diagram = harting_expand(family, two)
    emb = h_embedding(two)
    for x in range(2):
        assert diagram.groups[emb.on_objects[x]] == family[x]


def test_expand_morphism_matrices():
    single = hx_category(FinSet(1, ("a",)), 2)
    family = [free_abelian(1)]
    diagram = harting_expand(family, single)
    # identity morphisms carry identity matrices
    for oi in range(len(single.objects)):
        ident = single.identity[oi]
        assert diagram.hom(ident).matrix == IntMatrix.identity(diagram.groups[oi].gens)
    # the fold (2,aa) -> (1,a) adds the two coordinates
    src = single.object_index(HXObject(2, (0, 0)))
    tgt = single.object_index(HXObject(1, (0,)))
    fold = [m for m in single.hom(src, tgt)][0]
    assert diagram.hom(fold).matrix == IntMatrix([[1, 1]])
    # an injection lands in the matching summand
    two = hx_category(AB, 2)
    family2 = [free_abelian(1), free_abelian(1)]
    diagram2 = harting_expand(family2, two)
    src2 = two.object_index(HXObject(1, (0,)))
    tgt2 = two.object_index(HXObject(2, (1, 0)))
    arrows = two.hom(src2, tgt2)
    assert len(arrows) == 1
    assert diagram2.hom(arrows[0]).matrix == IntMatrix([[0], [1]])


def test_expand_is_functorial_random():
    rng = random.Random(97)
    two = hx_category(AB, 2)
    family = random_family(rng, 2)
    diagram = harting_expand(family, two)
    assert validate_diagram(diagram).ok


def test_expand_preserves_pointwise_products():
    # the expansion of a pointwise sum is the pointwise sum of expansions,
    # up to the canonical summand shuffle, naturally in the morphisms
    two = hx_category(AB, 2)
    fam_a = [free_abelian(1), cyclic(2)]
    fam_b = [cyclic(4), free_abelian(1)]
    fam_sum = [biproduct([a, b])[0] for a, b in zip(fam_a, fam_b)]
    d_sum = harting_expand(fam_sum, two)
    d_a = harting_expand(fam_a, two)
    d_b = harting_expand(fam_b, two)
    from abcat.intmat import block_diagonal
    shuffles = {}
    for oi, obj in enumerate(two.objects):
        mixed = d_sum.groups[oi]
        split, _, _ = biproduct([d_a.groups[oi], d_b.groups[oi]])
        # shuffle: per-letter blocks (a_i, b_i) regrouped to (all a, all b)
        shuffles[oi] = _shuffle_matrix(obj, fam_a, fam_b)
        assert shuffles[oi].rows == split.gens and shuffles[oi].cols == mixed.gens
    # naturality of the shuffle on every morphism
    for mi, (si, ti, _) in enumerate(two.morphisms):
        lhs = shuffles[ti] @ d_sum.hom(mi).matrix
        rhs = block_diagonal([d_a.hom(mi).matrix, d_b.hom(mi).matrix]) @ shuffles[si]
        assert lhs == rhs


def _shuffle_matrix(obj, fam_a, fam_b):
    per_letter = [(fam_a[v].gens, fam_b[v].gens) for v in obj.word]
    mixed_total = sum(a + b for a, b in per_letter)
    a_total = sum(a for a, _ in per_letter)
    rows = []
    # target rows: first all a-blocks, then all b-blocks
    mixed_offsets = []
    acc = 0
    for a, b in per_letter:
        mixed_offsets.append(acc)
        acc += a + b
    out = [[0] * mixed_total for _ in range(mixed_total)]
    row = 0
    for i, (a, _) in enumerate(per_letter):
        for t in range(a):
            out[row][mixed_offsets[i] + t] = 1
            row += 1
    for i, (a, b) in enumerate(per_letter):
        for t in range(b):
            out[row][mixed_offsets[i] + a + t] = 1
            row += 1
    return IntMatrix(out, shape=(mixed_total, mixed_total))


def test_compare_singleton():
    single = hx_category(FinSet(1, ("a",)), 2)
    rep = harting_compare([cyclic(4)], single)
    assert rep.ok
    assert rep.canonical_form == (0, (4,))


def test_compare_two_letters():
    two = hx_category(AB, 2)
    rep = harting_compare([free_abelian(1), cyclic(2)], two)
    assert rep.ok, rep.failures
    assert rep.canonical_form == (1, (2,))
    assert hom_equal(hom_compose(rep.forward, rep.backward),
                     identity_hom(rep.direct_sum))


def test_compare_zero_family():
    two = hx_category(AB, 2)
    rep = harting_compare([zero_group(), zero_group()], two)
    assert rep.ok
    assert rep.canonical_form == (0, ())
    # a zero-group letter among nonzero ones: glued homs land in 0 rows
    mixed = [cyclic(2), zero_group(), free_abelian(1)]
    rep = harting_compare(mixed, hx_category(FinSet(3), 3))
    assert rep.ok, rep.failures
    assert rep.canonical_form == biproduct(mixed)[0].canonical_form == (1, (2,))


def test_compare_cap_stability():
    rng = random.Random(103)
    for _ in range(4):
        family = random_family(rng, 2)
        small = harting_compare(family, hx_category(FinSet(2), 2))
        big = ab_colimit(harting_expand(family, hx_category(FinSet(2), 3)))
        assert small.ok
        assert big.carrier.canonical_form == small.canonical_form


def test_compare_cap_four_stability():
    rng = random.Random(404)
    for letters in (1, 2):
        hx2 = hx_category(FinSet(letters), 2)
        hx4 = hx_category(FinSet(letters), 4)
        for _ in range(3):
            family = random_family(rng, letters)
            small = harting_compare(family, hx2)
            big = harting_compare(family, hx4)
            assert small.ok and big.ok, (small.failures, big.failures)
            assert big.canonical_form == small.canonical_form


@pytest.mark.parametrize("letters,cap", [(3, 3), (3, 4)])
def test_expansion_colimit_is_presented_on_the_family(letters, cap):
    # the gluing identifies every copy of a letter's generators, so the
    # carrier keeps the family's generators and no more relations
    hx = hx_category(FinSet(letters), cap)
    rng = random.Random(100 * letters + cap)
    for _ in range(3):
        family = random_family(rng, letters)
        carrier = ab_colimit(harting_expand(family, hx)).carrier
        assert carrier.gens == sum(g.gens for g in family)
        assert carrier.relations.cols <= sum(g.relations.cols for g in family)


@pytest.mark.parametrize("build", [hx_category, hx_skeleton])
def test_expansion_is_the_left_kan_extension_along_the_letters(build):
    # Lan_h A at a word w sums A_x once per map from the letter x into w,
    # and its colimit is the family's sum on every truncation, cap 1 too
    for letters, cap in iproduct(range(1, 4), range(1, 4)):
        h = build(FinSet(letters), cap)
        family = random_family(random.Random(10 * letters + cap), letters)
        expanded = harting_expand(family, h)
        singles = [h.object_index(HXObject(1, (x,))) for x in range(letters)]
        for w in range(len(h.objects)):
            assert expanded.groups[w].gens == sum(
                len(h.hom(s, w)) * group.gens for s, group in zip(singles, family))
        if cap == 1:
            assert ab_colimit(expanded).carrier.canonical_form == \
                direct_sum(family).canonical_form


def test_bounded_reports_small():
    two = hx_category(AB, 2)
    filtered = hx_filtered_bounded_report(two)
    sifted = hx_sifted_bounded_report(two)
    assert filtered.ok and sifted.ok
    for (f, g), h in filtered.witnesses["coequalizers"].items():
        fm = two.morphisms[f][2]
        gm = two.morphisms[g][2]
        hm = two.morphisms[h][2]
        assert all(hm[fm[i]] == hm[gm[i]] for i in range(len(fm)))


@pytest.mark.parametrize("letters,cap,pairs", [(1, 3, 425), (2, 2, 14), (2, 3, 1198),
                                               (3, 3, 2319)])
def test_quotient_words_coequalize_every_parallel_pair(letters, cap, pairs):
    # brute force over every parallel pair f, g: u -> v: the quotient by the
    # partition of v's positions that f(i) ~ g(i) generates coequalizes the
    # pair, and every coequalizing map out of v factors through it once
    hx = hx_category(FinSet(letters), cap)
    rep = hx_filtered_bounded_report(hx)
    assert rep.ok
    quotients, coequalizers = rep.witnesses["quotients"], rep.witnesses["coequalizers"]
    n = len(hx.objects)
    out_of = [[hx.morphisms[m][1:] for t in range(n) for m in hx.hom(v, t)] for v in range(n)]
    after = {}     # (vi, q) -> how often each (t, d o q) arises, d out of the quotient word
    seen, small = 0, set()
    for ui, vi in iproduct(range(n), repeat=2):
        for f, g in combinations(hx.hom(ui, vi), 2):
            fm, gm = hx.morphisms[f][2], hx.morphisms[g][2]
            classes = [{j} for j in range(hx.objects[vi].arity)]
            for i in range(len(fm)):
                a, b = (next(c for c in classes if j in c) for j in (fm[i], gm[i]))
                if a is not b:
                    classes = [c for c in classes if c is not b]
                    a |= b
            classes.sort(key=min)
            q = tuple(next(k for k, c in enumerate(classes) if j in c)
                      for j in range(hx.objects[vi].arity))
            m = quotients[vi, q]
            ti = hx.morphisms[m][1]
            assert hx.morphisms[m] == (vi, ti, q)
            assert hx.compose(m, f) == hx.compose(m, g)
            if (vi, q) not in after:
                after[vi, q] = Counter((t, tuple(dm[j] for j in q)) for t, dm in out_of[ti])
            for t, cm in out_of[vi]:
                if all(cm[i] == cm[j] for i, j in zip(fm, gm)):
                    assert after[vi, q][t, cm] == 1, (f, g, t, cm)
            if max(hx.objects[ui].arity, hx.objects[vi].arity) <= 2:
                assert coequalizers[f, g] == m
                small.add((f, g))
            seen += 1
    assert seen == pairs
    assert set(coequalizers) == small


def test_bounded_reports_refuse_a_skeleton():
    # concatenation is the coproduct only in the word category: (b) + (a, a)
    # is no sorted word
    sorted_words = hx_skeleton(FinSet(2), 3)
    for report in (hx_sifted_bounded_report, hx_filtered_bounded_report):
        with pytest.raises(PreconditionError, match="word category"):
            report(sorted_words)


def test_bounded_sifted_agrees_with_slice_connectivity():
    # cross-check on a tiny instance: the diagonal slices of pairs with
    # combined arity within the cap are connected by the comma machinery
    from abcat.fincat import comma_category
    from cat_corpus import diagonal_functor
    single = hx_category(FinSet(1, ("a",)), 2)
    cat = single.with_composition_table()
    diag, prod = diagonal_functor(cat)
    rep = hx_sifted_bounded_report(single)
    assert rep.ok
    for (ui, vi) in rep.witnesses:
        k = comma_category(prod.pair_object(ui, vi), diag)
        assert is_connected(k).connected


def test_expand_respects_word_validation():
    two = hx_category(AB, 2)
    with pytest.raises(InputError):
        harting_expand([free_abelian(1)], two)  # one group for two letters
    with pytest.raises(InputError):
        HXMorphism(HXObject(1, (0,)), HXObject(1, (1,)), (0,))


def _enumerated(letters, cap):
    """Reference truncation by listing every index map: objects by (arity,
    word), morphisms by (source, target, mapping), with the index of each
    map, the hom lists, the identities, the generators, composition as
    index-map composition, and ``previous``, the larger generating set of
    every order-preserving insertion and every adjacent merge."""
    objects = [HXObject(n, w) for n in range(cap + 1)
               for w in iproduct(range(letters), repeat=n)]
    where = {o: i for i, o in enumerate(objects)}
    morphisms, index, homs = [], {}, {}
    for si, src in enumerate(objects):
        for ti, tgt in enumerate(objects):
            choices = [[j for j, y in enumerate(tgt.word) if y == x] for x in src.word]
            for mapping in iproduct(*choices):
                index[(si, ti, mapping)] = len(morphisms)
                homs.setdefault((si, ti), []).append(len(morphisms))
                morphisms.append((si, ti, mapping))
    identities = [index[(i, i, tuple(range(o.arity)))] for i, o in enumerate(objects)]

    def arrow(si, target, mapping):
        return index[(si, where[HXObject(len(target), target)], tuple(mapping))]

    # generators: adjacent transpositions, the merge of the last two
    # positions and appending a letter
    generators, previous = set(), set()
    for si, src in enumerate(objects):
        n, w = src.arity, src.word
        ident = tuple(range(n))
        for k in range(n - 1):
            swap = arrow(si, w[:k] + (w[k + 1], w[k]) + w[k + 2:],
                         ident[:k] + (k + 1, k) + ident[k + 2:])
            generators.add(swap)
            previous.add(swap)
            if w[k] == w[k + 1]:
                previous.add(arrow(si, w[:k + 1] + w[k + 2:], (i - (i > k) for i in ident)))
        if n >= 2 and w[-1] == w[-2]:
            generators.add(arrow(si, w[:-1], (min(i, n - 2) for i in ident)))
        for v in range(letters) if n < cap else ():
            generators.add(arrow(si, w + (v,), ident))
            for k in range(n + 1):
                previous.add(arrow(si, w[:k] + (v,) + w[k:], (i + (i >= k) for i in ident)))

    def compose(g, f):
        s1, _, fmap = morphisms[f]
        _, t2, gmap = morphisms[g]
        return index[(s1, t2, tuple(gmap[j] for j in fmap))]

    return objects, morphisms, homs, identities, sorted(generators), compose, sorted(previous)


@pytest.mark.parametrize("letters,cap", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4)])
def test_closed_form_matches_enumeration(letters, cap):
    objects, morphisms, homs, identities, generators, compose, _ = _enumerated(letters, cap)
    hx = hx_category(FinSet(letters), cap)
    assert list(hx.objects) == objects
    assert list(hx.morphisms) == morphisms and len(hx.morphisms) == len(morphisms)
    assert list(hx.dom) == [m[0] for m in morphisms]
    assert list(hx.cod) == [m[1] for m in morphisms]
    for si in range(len(objects)):
        for ti in range(len(objects)):
            assert list(hx.hom(si, ti)) == homs.get((si, ti), [])
    for m, (si, ti, mapping) in enumerate(morphisms):
        assert hx.morphism_index(HXMorphism(objects[si], objects[ti], mapping)) == m
    assert list(hx.identity) == identities
    assert list(hx.generators) == generators
    rng = random.Random(1000 * letters + cap)
    for _ in range(500):
        f = rng.randrange(len(morphisms))
        following = list(hx.hom(morphisms[f][1], rng.randrange(len(objects))))
        if following:
            g = rng.choice(following)
            assert hx.compose(g, f) == compose(g, f)


@pytest.mark.parametrize("letters,cap", [(2, 3), (3, 3)])
def test_previous_generating_set_gives_the_same_colimits_and_limits(letters, cap):
    # the same truncation, glued along every insertion and adjacent merge
    hx = hx_category(FinSet(letters), cap)
    previous = _enumerated(letters, cap)[-1]
    assert len(previous) > len(hx.generators)
    wider = FinCategory(hx.n_objects, hx.dom, hx.cod, hx.identity,
                        compose_rule=hx._compose, generators=previous)
    rng = random.Random(10 * letters + cap)
    for build in (harting_expand, pair_expansion, signed_expansion):
        d = build(random_family(rng, letters), hx)
        colim, again = ab_colimit(d), ab_colimit(AbDiagram(wider, d.groups, d.hom))
        assert colim.representatives == again.representatives, build
        assert colim.carrier.relations == again.carrier.relations, build
        assert [leg.matrix for leg in colim.cocone.components] == \
            [leg.matrix for leg in again.cocone.components], build
    d = harting_expand(random_family(rng, letters), hx)
    lim, again = ab_limit(d), ab_limit(AbDiagram(wider, d.groups, d.hom))
    assert lim.carrier.relations == again.carrier.relations
    assert lim._inclusion.matrix == again._inclusion.matrix


@pytest.mark.parametrize("letters,cap", [(2, 6), (3, 5)])
def test_compare_past_the_enumeration_wall(letters, cap):
    # millions of index maps, valued only at the generators
    hx = hx_category(FinSet(letters), cap, max_morphisms=10 ** 9)
    assert len(hx.morphisms) > 10 ** 6
    family = random_family(random.Random(10 * letters + cap), letters)
    rep = harting_compare(family, hx)
    assert rep.ok, rep.failures
    assert rep.canonical_form == biproduct(family)[0].canonical_form
    assert len(rep.colimit.diagram._cache) <= len(hx.generators)


def test_limit_of_expansion_values_homs_at_generators_only():
    hx = hx_category(FinSet(1), 3)
    d = harting_expand(random_family(random.Random(13), 1), hx)
    lim = ab_limit(d)
    assert set(d._cache) <= set(hx.generators) < set(range(hx.n_morphisms))
    # the same diagram on the same category without generators
    plain = FinCategory(hx.n_objects, list(hx.dom), list(hx.cod), hx.identity,
                        {(g, f): hx.compose(g, f) for g, f in hx.composable_pairs()})
    full = ab_limit(AbDiagram(plain, d.groups, d.homs))
    assert (lim.carrier, lim.cone.components) == (full.carrier, full.cone.components)


def test_non_natural_component_at_one_generator_is_rejected():
    hx = hx_category(AB, 2)
    d = harting_expand([free_abelian(1), cyclic(3)], hx)
    components = [identity_hom(g) for g in d.groups]
    a = hx.object_index(HXObject(1, (0,)))
    components[a] = hom(d.groups[a], d.groups[a], [[2]])
    # natural everywhere but at the maps into and out of the word (a)
    with pytest.raises(InputError, match="not natural"):
        induced_map_on_colimits(d, d, components)
    components[a] = identity_hom(d.groups[a])
    induced, _, _ = induced_map_on_colimits(d, d, components)
    assert hom_equal(induced, identity_hom(induced.source))


# ---------------------------------------------------------------------------
# the skeleton on sorted words, with the word category as its oracle

SKELETON_SIZES = [(2, 3), (3, 3), (2, 4), (3, 4)]


def _inclusion(letters, cap):
    """The skeleton's inclusion into the word category, as a FinFunctor."""
    words, skeleton = hx_category(FinSet(letters), cap), hx_skeleton(FinSet(letters), cap)
    on_obj = [words.object_index(o) for o in skeleton.objects]
    on_mor = [words.morphism_index(HXMorphism(skeleton.objects[si], skeleton.objects[ti], m))
              for si, ti, m in skeleton.morphisms]
    return FinFunctor(skeleton, words, on_obj, on_mor)


def _generated(cat):
    """Morphisms reached from the identities by composing generators on the left."""
    out = {}
    for g in cat.generators:
        out.setdefault(cat.dom[g], []).append(g)
    reached, frontier = set(cat.identity), list(cat.identity)
    while frontier:
        frontier = sorted({cat.compose(g, f) for f in frontier
                           for g in out.get(cat.cod[f], ())} - reached)
        reached.update(frontier)
    return reached


@pytest.mark.parametrize("letters,cap", SKELETON_SIZES)
def test_skeleton_is_the_full_subcategory_on_sorted_words(letters, cap):
    inc = _inclusion(letters, cap)
    skeleton, words = hx_skeleton(FinSet(letters), cap), hx_category(FinSet(letters), cap)
    assert [o.word for o in skeleton.objects] == sorted(
        {tuple(sorted(o.word)) for o in words.objects}, key=lambda w: (len(w), w))
    for si, ti in iproduct(range(len(skeleton.objects)), repeat=2):
        # full: the hom-sets are the word category's, in the same order
        assert list(map(inc.on_morphisms.__getitem__, skeleton.hom(si, ti))) == \
            list(words.hom(inc.on_objects[si], inc.on_objects[ti]))
    assert all(inc.on_morphisms[skeleton.identity[x]] == words.identity[inc.on_objects[x]]
               for x in range(skeleton.n_objects))
    rng = random.Random(10 * letters + cap)
    for _ in range(300):
        f = rng.randrange(skeleton.n_morphisms)
        following = skeleton.morphisms_from(skeleton.cod[f])
        g = rng.choice(following)
        assert inc.on_morphisms[skeleton.compose(g, f)] == \
            words.compose(inc.on_morphisms[g], inc.on_morphisms[f])
    assert _generated(skeleton) == set(range(skeleton.n_morphisms))


@pytest.mark.parametrize("letters,cap", [(2, 3), (3, 3), (2, 4)])
def test_skeleton_inclusion_is_final(letters, cap):
    assert is_final(_inclusion(letters, cap)).final


@pytest.mark.parametrize("letters,cap", [(2, 3), (3, 3), (2, 4)])
def test_skeleton_validates(letters, cap):
    assert validate_category(hx_skeleton(FinSet(letters), cap)).ok


def _associative(cat, table):
    """Associativity on every composable triple, read from ``table``."""
    cod = tuple(cat.cod)
    return all(table[h, table[g, f]] == table[table[h, g], f]
               for (g, f) in table for h in cat.morphisms_from(cod[g]))


@pytest.mark.parametrize("build,letters,cap", [(hx_skeleton, 2, 3), (hx_skeleton, 3, 3),
                                               (hx_category, 2, 2), (hx_category, 2, 3)])
def test_validation_rejects_one_redirected_composite(build, letters, cap):
    # validate_category checks associativity only with a generator outside;
    # a composite g∘f of two non-identities sent to another map with the
    # same endpoints is still caught, as the full triple loop catches it
    h = build(FinSet(letters), cap)
    dom, cod = tuple(h.dom), tuple(h.cod)
    table = {(g, f): h.compose(g, f) for f in range(h.n_morphisms)
             for g in h.morphisms_from(cod[f])}
    pairs = [(g, f) for g, f in table if g not in h.identity and f not in h.identity
             and len(h.hom(dom[f], cod[g])) > 1]
    rng = random.Random(10 * letters + cap)
    for _ in range(5):
        g, f = rng.choice(pairs)
        other = rng.choice([m for m in h.hom(dom[f], cod[g]) if m != table[g, f]])
        bad = {**table, (g, f): other}
        tampered = FinCategory(h.n_objects, h.dom, h.cod, h.identity,
                               compose_rule=lambda b, a: bad[b, a], generators=h.generators)
        report = validate_category(tampered)
        assert not report.ok
        assert report.ok == _associative(tampered, bad)


@pytest.mark.parametrize("build", [hx_category, hx_skeleton])
def test_the_word_listing_the_alphabet_is_terminal_exactly_when_it_fits(build):
    for letters, cap in iproduct(range(1, 5), repeat=2):
        h = build(FinSet(letters), cap)
        objects = range(len(h.objects))
        if cap >= letters:
            top = h.object_index(HXObject(letters, tuple(range(letters))))
            assert all(len(h.hom(s, top)) == 1 for s in objects)
        else:
            singles = [h.object_index(HXObject(1, (x,))) for x in range(letters)]
            assert not any(all(h.hom(s, t) for s in singles) for t in objects)


@pytest.mark.parametrize("letters,cap", SKELETON_SIZES)
def test_expansion_colimits_and_limits_agree_on_both_bases(letters, cap):
    words, skeleton = hx_category(FinSet(letters), cap), hx_skeleton(FinSet(letters), cap)
    for seed in range(4):
        family = random_family(random.Random(seed), letters)
        on_words = ab_colimit(harting_expand(family, words)).carrier
        on_skeleton = ab_colimit(harting_expand(family, skeleton)).carrier
        assert on_skeleton.canonical_form == on_words.canonical_form
        assert on_skeleton.relations == on_words.relations
        # the word-category limit at (3, 4) takes seconds per seed
        if (letters, cap) != (3, 4) or seed == 1:
            assert ab_limit(harting_expand(family, skeleton)).carrier.canonical_form == \
                ab_limit(harting_expand(family, words)).carrier.canonical_form


def test_skeleton_counts_match_the_closed_form_table():
    skeleton = hx_skeleton(FinSet(3), 4)
    assert (len(skeleton.objects), len(skeleton.morphisms),
            len(skeleton.generators)) == (35, 3_675, 135)
    # ranked, not enumerated
    skeleton = hx_skeleton(FinSet(4), 6, max_morphisms=2_000_000)
    assert (len(skeleton.objects), len(skeleton.morphisms),
            len(skeleton.generators)) == (210, 1_260_001, 1_288)
    with pytest.raises(BudgetError):
        hx_skeleton(FinSet(4), 6)


# SHA-256 of both truncations' structure at eight sizes, recorded while hom
# offsets were stored for every pair of words: a change of storage must
# keep every index, hom-set, generator and composite
STRUCTURE_DIGEST = "1f5dc0edf289d24618eab592facbf30d88a33f2eae0218db171603d977769d1a"


def test_truncation_structure_is_pinned():
    sha = hashlib.sha256()
    for build, (letters, cap) in iproduct((hx_category, hx_skeleton),
                                          [(1, 1), (1, 3), (2, 2), (2, 3),
                                           (3, 2), (3, 3), (2, 4), (4, 2)]):
        h = build(FinSet(letters), cap)
        objects = range(h.n_objects)
        for part in (list(h.dom), list(h.cod), h.identity, h.generators, list(h.morphisms),
                     [list(h.hom(a, b)) for a, b in iproduct(objects, objects)],
                     [(g, f, h.compose(g, f)) for g, f in h.law_pairs()]):
            sha.update(repr(part).encode())
    assert sha.hexdigest() == STRUCTURE_DIGEST


def test_skeleton_is_cached_apart_from_the_word_category():
    skeleton = hx_skeleton(FinSet(2), 3)
    assert skeleton is hx_skeleton(FinSet(2), 3) and skeleton is not hx_category(FinSet(2), 3)
    assert len(skeleton.objects) == 10 and len(hx_category(FinSet(2), 3).objects) == 15


def test_verify_harting_counts_words_past_the_word_budget():
    # the word category at (4, 5) holds 4,373,513 index maps, its skeleton 86,651
    report = verify_harting(random_family(random.Random(5), 4), cap=4, stability_cap=5)
    assert report.ok, report.details
    assert report.details["objects"] == sum(4 ** n for n in range(5)) == 341


def test_truncation_guards_name_what_they_refuse():
    hx = hx_category(FinSet(1), 1)    # words () and (0), three index maps
    with pytest.raises(IndexError) as err:
        hx.morphisms[len(hx.morphisms)]
    assert str(err.value) == "morphism index 3 out of range"
    with pytest.raises(InputError) as err:
        hx.object_index(HXObject(2, (0, 0)))
    assert str(err.value) == "object HXObject(arity=2, word=(0, 0)) is not in the truncation"
    with pytest.raises(InputError) as err:
        hx_skeleton(FinSet(2), 0)
    assert str(err.value) == "cap must be at least 1"
    # the expansion is Lan along the one-letter words, so cap 1 compares
    assert harting_compare([free_abelian(1)], hx).ok


def test_comparison_describes_its_canonical_form():
    rep = harting_compare([free_abelian(1), cyclic(3)], hx_skeleton(AB, 2))
    assert rep.describe() == describe_form(rep.canonical_form) == "Z x Z/3"


# ---------------------------------------------------------------------------
# failing checks


def _with_carrier(colim, carrier, legs):
    return AbColimit(carrier, Cocone(carrier, tuple(legs)), colim.diagram,
                     colim.representatives)


def extra_relation(colim):
    """The colimit with its first generator killed, legs unchanged."""
    carrier = colim.carrier
    kill = IntMatrix.identity(carrier.gens).column(0)
    bigger = FGAbGroup(carrier.gens, IntMatrix.from_columns(
        [*carrier.relations.columns(), kill], carrier.gens))
    return _with_carrier(colim, bigger, [AbHom(leg.source, bigger, leg.matrix)
                                       for leg in colim.cocone.components])


def test_compare_names_each_failed_check(monkeypatch):
    family = [free_abelian(1), cyclic(3)]
    hx = hx_category(AB, 2)
    a = hx.object_index(HXObject(1, (0,)))

    def negated_leg(colim):
        legs = list(colim.cocone.components)
        legs[a] = -legs[a]
        return _with_carrier(colim, colim.carrier, legs)

    texts = {}
    for tamper in (negated_leg, extra_relation):
        monkeypatch.setattr(harting, "ab_colimit", lambda d: tamper(ab_colimit(d)))
        rep = harting_compare(family, hx)
        assert not rep.ok
        texts[tamper.__name__] = rep.failures
    assert texts["negated_leg"] == (
        "forward o backward is not the identity on the coproduct",
        "backward o forward is not the identity on the colimit",
        f"forward breaks the cocone at object {a}")
    assert texts["extra_relation"] == ("canonical forms differ: Z x Z/3 vs Z/3",)


def test_verify_harting_reports_the_failed_checks(monkeypatch):
    monkeypatch.setattr(harting, "ab_colimit", lambda d: extra_relation(ab_colimit(d)))
    rep = verify_harting([free_abelian(1), cyclic(3)])
    assert not rep.ok
    assert rep.details["failures"] == "canonical forms differ: Z x Z/3 vs Z/3"


class _Tampered(harting.HXCategory):
    """A word category whose ``_maps`` edits the maps of the pairs in ``edits``."""

    def __init__(self, h, edits):
        super().__init__(h.alphabet, h.cap, h.objects, h._spots, h._hom_cache, False)
        self.edits = edits

    def _maps(self, src, tgt):
        maps = list(super()._maps(src, tgt))
        return self.edits[(src, tgt)](maps) if (src, tgt) in self.edits else maps


class _Forgetful(harting.HXCategory):
    """A word category whose object index has lost ``word``; ``object_index``,
    which the concatenations read, still finds it."""

    def __init__(self, h, word):
        super().__init__(h.alphabet, h.cap, h.objects, h._spots, h._hom_cache, False)
        self.every_word = dict(self._object_index)
        del self._object_index[word]

    def object_index(self, obj):
        return self.every_word[obj]


def test_sifted_report_names_a_reordered_pair():
    hx = hx_category(AB, 2)
    aa = hx.object_index(HXObject(2, (0, 0)))
    rep = hx_sifted_bounded_report(_Tampered(hx, {(aa, aa): lambda maps: maps[::-1]}))
    assert not rep.ok and rep.failures
    # each failure (u, v, other, p, q) reads the maps from the concatenation of u and v
    assert {(rep.witnesses[(u, v)][0], other) for u, v, other, _, _ in rep.failures} == \
        {(aa, aa)}


def test_filtered_report_names_a_missing_quotient_word():
    hx = _Forgetful(hx_category(AB, 2), HXObject(1, (0,)))
    a, aa = (hx.object_index(HXObject(n, (0,) * n)) for n in (1, 2))
    rep = hx_filtered_bounded_report(hx)
    assert not rep.ok
    # (a) is the quotient of (a) by its one block and of (a, a) by the merge
    assert rep.failures == (("quotient", a, (0,)), ("quotient", aa, (0,)))
    assert (aa, (0, 1)) in rep.witnesses["quotients"]
    assert (aa, (0, 0)) not in rep.witnesses["quotients"]
    # the parallel pair (a) => (a, a) has no coequalizer left to name
    assert tuple(hx.hom(a, aa)) not in rep.witnesses["coequalizers"]


# ---------------------------------------------------------------------------
# functor laws read at the generator-led pairs of a generated base


def _set_expansion(h, sizes, read=None):
    """The diagram of sets sending a word w to the disjoint union of the
    S_(w_i), whose elements are pairs (i, s), and an index map f to
    (i, s) -> (f(i), s).  Given a list ``read``, it is a rule that
    appends to ``read`` each morphism it values; else it is tabled."""
    points = [[(i, s) for i, v in enumerate(o.word) for s in range(sizes[v])]
              for o in h.objects]
    where = [{p: k for k, p in enumerate(ps)} for ps in points]

    def table(m):
        si, ti, mapping = h.morphisms[m]
        return [where[ti][mapping[i], s] for i, s in points[si]]
    sets = [FinSet(len(ps)) for ps in points]
    if read is None:
        return SetFunctor(h, sets, map(table, range(h.n_morphisms)))
    return SetFunctor(h, sets, lambda m: read.append(m) or table(m))


def test_set_colimit_reads_only_the_generator_tables():
    h = hx_skeleton(FinSet(4), 4)
    assert (h.n_morphisms, len(h.generating())) == (7_087, 284)
    read = []
    carrier, cocone = setdiag.set_colimit(_set_expansion(h, (1, 2, 1, 3), read))
    assert sorted(read) == list(h.generating())
    tabled = setdiag.set_colimit(_set_expansion(h, (1, 2, 1, 3)))
    assert (carrier, cocone) == tabled and carrier.size == 7


def test_set_limit_reads_only_the_generator_tables():
    # every word carries two points and every index map fixes them
    h = hx_skeleton(FinSet(2), 2)
    read = []

    def table(m):
        read.append(m)
        return (0, 1)
    limit = setdiag.set_limit(SetFunctor(h, [FinSet(2)] * h.n_objects, table))
    assert sorted(read) == list(h.generating()) and len(read) < h.n_morphisms
    tabled = SetFunctor(h, [FinSet(2)] * h.n_objects, [(0, 1)] * h.n_morphisms)
    assert limit == setdiag.set_limit(tabled) and limit[0].size == 2


def _redirected(h, rng):
    """A non-generator non-identity morphism and another with its endpoints."""
    m = rng.choice([m for m in range(h.n_morphisms) if m not in h.generators
                    and m not in h.identity and len(h.hom(h.dom[m], h.cod[m])) > 1])
    return m, rng.choice([k for k in h.hom(h.dom[m], h.cod[m]) if k != m])


def test_law_pairs_are_every_pair_or_the_generator_led_ones():
    h = hx_skeleton(FinSet(2), 3)
    assert list(h.law_pairs()) == [(g, f) for g in h.generating()
                                   for f in h.morphisms_to(h.dom[g])]
    assert len(list(h.law_pairs())) < len(list(h.composable_pairs()))
    plain = FinCategory(h.n_objects, list(h.dom), list(h.cod), h.identity,
                        compose_rule=h.compose)
    assert list(plain.law_pairs()) == list(plain.composable_pairs())


@pytest.mark.parametrize("sizes", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_set_functor_laws_at_generator_led_pairs(sizes):
    h = hx_skeleton(FinSet(2), 3)

    def all_pairs(x):
        return all(x.tables[h.compose(g, f)] == tuple(x.tables[g][v] for v in x.tables[f])
                   for g, f in h.composable_pairs())
    good = _set_expansion(h, sizes)
    assert setdiag.validate_functor(good).ok and all_pairs(good)
    rng = random.Random(sum(sizes))
    for _ in range(5):
        m, _other = _redirected(h, rng)
        tables = [list(t) for t in good.tables]
        x = rng.randrange(len(tables[m]))
        tables[m][x] = rng.choice([y for y in range(good.sets[h.cod[m]].size)
                                   if y != tables[m][x]])
        bad = SetFunctor(h, good.sets, tables)
        assert not setdiag.validate_functor(bad).ok
        assert setdiag.validate_functor(bad).ok == all_pairs(bad)


def test_diagram_laws_at_generator_led_pairs():
    h = hx_skeleton(FinSet(2), 3)

    def all_pairs(d):
        return all(hom_equal(d.hom(h.compose(g, f)), hom_compose(d.hom(g), d.hom(f)))
                   for g, f in h.composable_pairs())
    for seed in range(2):
        good = harting_expand([cyclic(0), cyclic(3 + seed)], h)
        assert validate_diagram(good).ok and all_pairs(good)
        m, other = _redirected(h, random.Random(seed))
        bad = AbDiagram(h, good.groups, lambda k: good.hom(other if k == m else k))
        assert not validate_diagram(bad).ok
        assert validate_diagram(bad).ok == all_pairs(bad)
    family = random_family(random.Random(5), 2)
    assert validate_diagram(harting_expand(family, h)).ok


def test_functor_laws_at_generator_led_pairs():
    h = hx_skeleton(FinSet(2), 3)

    def all_pairs(f):
        return all(f.on_morphisms[h.compose(g, k)] ==
                   h.compose(f.on_morphisms[g], f.on_morphisms[k])
                   for g, k in h.composable_pairs())
    good = identity_functor(h)
    assert validate_functor(good).ok and all_pairs(good)
    rng = random.Random(7)
    for _ in range(5):
        m, other = _redirected(h, rng)
        images = list(good.on_morphisms)
        images[m] = other
        bad = FinFunctor(h, h, good.on_objects, images)
        assert not validate_functor(bad).ok
        assert validate_functor(bad).ok == all_pairs(bad)
