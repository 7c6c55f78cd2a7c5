"""Acceptance criteria, one test per criterion.

Every check is exact (canonical-form equality); each test prints one
pass/fail line with its runtime and enforces the stated time budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from itertools import combinations
from math import gcd

from abcat.abdiag import (ab_colimit, coinvariants, generator_check, gmodule,
                          invariants)
from abcat.abgrp import (biproduct, cyclic, free_abelian, hom, hom_compose,
                         hom_equal, identity_hom, is_mono, is_zero_hom,
                         smith_normal_form, zero_hom)
from abcat.cli import main as cli_main
from abcat.fincat import (chain_category, discrete_category, full_subcategory,
                          is_filtered, is_final, is_sifted, parallel_pair_category,
                          span_category)
from abcat.harting import (harting_compare, harting_expand, hx_category,
                           hx_filtered_bounded_report, hx_sifted_bounded_report)
from abcat.intmat import IntMatrix
from abcat.sampling import (random_commute_instance, random_family, random_group,
                            random_gset_chain, random_mono_family,
                            random_ab5_instance, random_poset_functor,
                            DIAMOND_COVERS)
from abcat.setdiag import FinSet, SetFunctor
from abcat.verify import (verify_ab4, verify_ab5, verify_commute,
                          verify_final_restriction, verify_fixpoints,
                          verify_notlex, verify_sifted_products)
from cat_corpus import category_corpus, determinant, random_hom
from abcat.fincat import diamond_category


class Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {status} ({elapsed:.2f} s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"criterion {self.number} exceeded its {self.seconds} s budget"
        return False


def test_criterion_01_coinvariants_of_negation():
    with Budget(1, "coinvariants and invariants of the negation action", 1.0):
        z = free_abelian(1)
        module = gmodule([[0, 1], [1, 0]], z, {1: hom(z, z, [[-1]])})
        co, _ = coinvariants(module)
        inv, _ = invariants(module)
        assert co.canonical_form == (0, (2,))
        assert inv.canonical_form == (0, ())


def test_criterion_02_left_exactness_counterexample(capsys):
    with Budget(2, "mono of actions with non-mono induced map", 1.0):
        z = free_abelian(1)
        z2 = free_abelian(2)
        table = [[0, 1], [1, 0]]
        negation = gmodule(table, z, {1: hom(z, z, [[-1]])})
        swap = gmodule(table, z2, {1: hom(z2, z2, [[0, 1], [1, 0]])})
        component = hom(z, z2, [[-1], [1]])
        assert is_mono(component)
        report = verify_notlex(negation, swap, component)
        assert report.ok
        assert report.details["coinvariants source"] == "Z/2"
        assert report.details["coinvariants target"] == "Z"
        assert report.details["induced map zero"] is True
        assert report.details["induced map mono"] is False
        # the CLI agrees: exit 0 with the certificate
        code = cli_main(["verify", "notlex"])
        out = capsys.readouterr().out
        assert code == 0
        assert "induced map mono: False" in out


def test_criterion_03_expansion_colimit_comparison():
    with Budget(3, "coproduct expansion comparison with cap stability", 60.0):
        rng = random.Random(20260803)
        for trial in range(20):
            size = rng.randint(1, 3)
            family = random_family(rng, size)
            hx2 = hx_category(FinSet(size), 2)
            comparison = harting_compare(family, hx2)
            assert comparison.ok, (trial, comparison.failures)
            # explicit isomorphism, mutually inverse, commuting with the
            # insertions (checked inside harting_compare; re-assert the core)
            assert hom_equal(hom_compose(comparison.forward, comparison.backward),
                             identity_hom(comparison.direct_sum))
            # cap stability: same canonical form one level up
            hx3 = hx_category(FinSet(size), 3)
            form3 = ab_colimit(harting_expand(family, hx3)).carrier.canonical_form
            assert form3 == comparison.canonical_form, trial


def test_criterion_04_word_category_bounded_structure():
    with Budget(4, "bounded filteredness and siftedness of word categories", 60.0):
        for letters in (1, 2, 3):
            hx = hx_category(FinSet(letters), 4)
            filtered = hx_filtered_bounded_report(hx)
            assert filtered.ok, (letters, filtered.failures[:3])
            # upper bounds exist for every pair with combined arity <= 4
            pairs = sum(1 for ui in range(len(hx.objects))
                        for vi in range(ui, len(hx.objects))
                        if hx.objects[ui].arity + hx.objects[vi].arity <= 4)
            assert len(filtered.witnesses["bounds"]) == pairs
            # coequalizing arrows really coequalize
            for (f, g), h in filtered.witnesses["coequalizers"].items():
                fm = hx.morphisms[f][2]
                gm = hx.morphisms[g][2]
                hm = hx.morphisms[h][2]
                assert all(hm[fm[i]] == hm[gm[i]] for i in range(len(fm)))
            sifted = hx_sifted_bounded_report(hx)
            assert sifted.ok, (letters, sifted.failures[:3])


def test_criterion_05_interchange_trials():
    with Budget(5, "filtered colimits commute with finite limits", 30.0):
        rng = random.Random(20260805)
        shapes = [discrete_category(2), parallel_pair_category(), span_category()]
        for trial in range(50):
            shape = shapes[trial % 3]
            f_cat, _, diagram = random_commute_instance(
                rng, rng.randint(2, 4), shape, max_size=4)
            report = verify_commute(f_cat, shape, diagram)
            assert report.ok, (trial, report.details)


def test_criterion_06_coproduct_exactness():
    with Budget(6, "coproducts of monos and filtered kernel exactness", 60.0):
        rng = random.Random(20260806)
        for trial in range(25):
            src, tgt, monos = random_mono_family(rng, rng.randint(1, 3))
            report = verify_ab4(src, tgt, monos, cross_cap=2)
            assert report.ok, (trial, report.details)
        for trial in range(25):
            d, e, eta = random_ab5_instance(rng, rng.randint(2, 3))
            report = verify_ab5(d, e, eta)
            assert report.ok, (trial, report.details)


def test_criterion_07_fixed_points_interchange():
    with Budget(7, "fixed points of colimits of involution sets", 10.0):
        rng = random.Random(20260807)
        for trial in range(10):
            table, f_cat, bg, _, diagram = random_gset_chain(
                rng, rng.randint(2, 4), max_size=5)
            report = verify_fixpoints(table, f_cat, bg, diagram)
            assert report.ok, (trial, report.details)


def test_criterion_08_final_restriction_and_sifted_products():
    with Budget(8, "final restriction invariance and sifted products", 30.0):
        rng = random.Random(20260808)
        for length in (2, 3, 4, 5):
            cat = chain_category(length)
            _, incl = full_subcategory(cat, [length - 1])
            assert is_final(incl).final
            sizes = [rng.randint(1, 4) for _ in range(length)]
            sets = [FinSet(s) for s in sizes]
            tables = []
            for m in range(cat.n_morphisms):
                a, b = cat.dom[m], cat.cod[m]
                if a == b:
                    tables.append(tuple(range(sizes[a])))
                else:
                    tables.append(tuple(rng.randrange(sizes[b]) if a + 1 == b else 0
                                        for _ in range(sizes[a])))
            # rebuild transitively consistent tables from the cover steps
            steps = {a: tables[[m for m in range(cat.n_morphisms)
                                if cat.dom[m] == a and cat.cod[m] == a + 1][0]]
                     for a in range(length - 1)}
            tables = []
            for m in range(cat.n_morphisms):
                a, b = cat.dom[m], cat.cod[m]
                table = list(range(sizes[a]))
                for k in range(a, b):
                    table = [steps[k][v] for v in table]
                tables.append(tuple(table))
            diagram = SetFunctor(cat, sets, tables)
            report = verify_final_restriction(incl, diagram)
            assert report.ok, (length, report.details)
        diamond = diamond_category()
        for trial in range(10):
            g = random_poset_functor(rng, diamond, DIAMOND_COVERS, max_size=3,
                                     top_objects=(3,))
            h = random_poset_functor(rng, diamond, DIAMOND_COVERS, max_size=3,
                                     top_objects=(3,))
            report = verify_sifted_products(g, h)
            assert report.ok, (trial, report.details)


def minors_gcd(m, k):
    best = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntMatrix([[m.data[i][j] for j in cols] for i in rows])
            best = gcd(best, determinant(sub))
    return best


def test_criterion_09_smith_property_suite():
    with Budget(9, "Smith normal form property suite", 30.0):
        rng = random.Random(20260809)
        for _ in range(100):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntMatrix([[rng.randint(-20, 20) for _ in range(cols)]
                           for _ in range(rows)])
            s, u, v = smith_normal_form(m)
            assert (u @ m @ v) == s
            assert abs(determinant(u)) == 1
            assert abs(determinant(v)) == 1
            diag = [s.data[i][i] for i in range(min(rows, cols))]
            for a, b in zip(diag, diag[1:]):
                assert a >= 0 and (b % a == 0 if a else b == 0)
            running = 1
            for k in range(1, min(rows, cols, 3) + 1):
                dk = minors_gcd(m, k)
                expected = diag[k - 1] * running
                assert dk == abs(expected)
                running = expected if expected else running


def test_criterion_10_structural_suites():
    with Budget(10, "structural suites", 30.0):
        # filtered implies sifted across the whole corpus
        for name, cat in category_corpus():
            if is_filtered(cat).filtered:
                assert is_sifted(cat).sifted, name
        # biproduct identities
        rng = random.Random(20260810)
        for _ in range(10):
            groups = [random_group(rng) for _ in range(rng.randint(0, 3))]
            total, injections, projections = biproduct(groups)
            for i in range(len(groups)):
                for j in range(len(groups)):
                    comp = hom_compose(projections[i], injections[j])
                    if i == j:
                        assert hom_equal(comp, identity_hom(groups[i]))
                    else:
                        assert is_zero_hom(comp)
            acc = zero_hom(total, total)
            for i in range(len(groups)):
                acc = acc + hom_compose(injections[i], projections[i])
            assert hom_equal(acc, identity_hom(total))
        # kernel/cokernel probe universality
        from abcat.abgrp import (cokernel, kernel, factor_through_cokernel,
                                 factor_through_kernel)
        probes = [free_abelian(1), cyclic(2), cyclic(4), cyclic(6)]
        for _ in range(10):
            a, b = random_group(rng), random_group(rng)
            h = random_hom(rng, a, b)
            k, incl = kernel(h)
            c, proj = cokernel(h)
            assert is_zero_hom(hom_compose(h, incl))
            assert is_zero_hom(hom_compose(proj, h))
            for probe in probes:
                t = random_hom(rng, b, probe)
                if is_zero_hom(hom_compose(t, h)):
                    factored = factor_through_cokernel(proj, t)
                    assert hom_equal(hom_compose(factored, proj), t)
                u = random_hom(rng, probe, a)
                if is_zero_hom(hom_compose(h, u)):
                    lifted = factor_through_kernel(incl, u)
                    assert hom_equal(hom_compose(incl, lifted), u)
        # a distinguishing Z-probe exists for every distinct pair
        distinct = 0
        for _ in range(40):
            a, b = random_group(rng), random_group(rng)
            f = random_hom(rng, a, b)
            g = random_hom(rng, a, b)
            report = generator_check(f, g)
            assert report.ok
            if not report.equal:
                distinct += 1
                assert not hom_equal(hom_compose(f, report.witness),
                                     hom_compose(g, report.witness))
        assert distinct >= 10
