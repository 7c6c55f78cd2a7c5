"""Presented abelian groups: canonical forms, homs, kernels, cokernels.

Independent oracles: the minors-gcd characterization of invariant
factors, brute-force lattice membership, and element-by-element
injectivity checks on finite (torsion) instances.
"""

import random
from itertools import product as iproduct
from math import gcd, isqrt

import pytest

from abcat.abgrp import (are_isomorphic, biproduct, canonicalize,
                         cokernel, cyclic, describe_form, direct_sum, factor_through_cokernel,
                         factor_through_kernel, free_abelian, from_canonical_form,
                         group_from_presentation, hom, hom_compose, hom_equal,
                         hom_validate, identity_hom, is_epi, is_mono, is_zero_hom,
                         kernel, zero_group, zero_hom)
from abcat.errors import InputError
from abcat.intmat import ColumnLattice, IntMatrix, hstack
from abcat.sampling import random_group, random_matrix, random_mono_family, scramble_group
from cat_corpus import determinant, random_hom


def test_presentation_basics():
    assert group_from_presentation(IntMatrix([[2]])).canonical_form == (0, (2,))
    assert free_abelian(2).canonical_form == (2, ())
    assert cyclic(0) == free_abelian(1) and cyclic(0).canonical_form == (1, ())
    assert zero_group().is_trivial


def test_one_lattice_per_presented_group(monkeypatch):
    built = []
    init = ColumnLattice.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ColumnLattice, "__init__", counting_init)
    g = group_from_presentation(IntMatrix([[2, 4, 1, 0], [6, 8, 0, 0], [0, 0, 0, 6]]))
    assert g.canonical_form == (0, (2, 6))
    assert g.reduced_relations.cols == 3
    assert g.contains_relation((4, 12, 0)) and not g.contains_relation((0, 0, 3))
    assert canonicalize(g).canonical == from_canonical_form(0, (2, 6))
    assert len(built) == 1


def test_presentation_diag_2_3_is_z6():
    # minors oracle: d1 = gcd(2,3) = 1, d1*d2 = det = 6, so factors are (6,)
    m = IntMatrix([[2, 0], [0, 3]])
    assert gcd(2, 3) == 1 and abs(determinant(m)) == 6
    g = group_from_presentation(m)
    assert g.canonical_form == (0, (6,))
    assert describe_form(g.canonical_form) == "Z/6"


def test_canonical_form_idempotent():
    rng = random.Random(31)
    for _ in range(25):
        g = random_group(rng)
        scrambled, _, _ = scramble_group(rng, g)
        assert scrambled.canonical_form == g.canonical_form
        again = from_canonical_form(*scrambled.canonical_form)
        assert again.canonical_form == scrambled.canonical_form


def test_from_canonical_form_rejects_what_is_not_a_canonical_form():
    with pytest.raises(InputError, match="negative free rank"):
        from_canonical_form(-1, (2, 4))
    with pytest.raises(InputError, match="do not each divide the next"):
        from_canonical_form(0, (2, 3))
    with pytest.raises(InputError, match="invariant factors must be at least 2"):
        from_canonical_form(0, (1, 2))


def test_hom_validate_examples():
    assert hom_validate(identity_hom(cyclic(6))).ok
    assert hom_validate(hom(cyclic(2), cyclic(4), [[2]])).ok
    report = hom_validate(hom(cyclic(2), cyclic(4), [[1]]))
    assert not report.ok
    assert "relation column 0" in report.problems[0]


def test_hom_equal_examples():
    z2 = cyclic(2)
    assert hom_equal(hom(z2, z2, [[1]]), hom(z2, z2, [[3]]))
    z = free_abelian(1)
    assert not hom_equal(hom(z, z, [[1]]), hom(z, z, [[2]]))
    h = hom(z, z2, [[1]])
    assert hom_equal(h, h)
    with pytest.raises(InputError):
        hom_equal(hom(z, z, [[1]]), hom(z2, z2, [[1]]))


def test_kernel_examples():
    z = free_abelian(1)
    k, incl = kernel(hom(z, z, [[2]]))
    assert k.is_trivial
    # sum: Z^2 -> Z has kernel Z generated by (1, -1)
    k2, incl2 = kernel(hom(free_abelian(2), z, [[1, 1]]))
    assert k2.canonical_form == (1, ())
    col = incl2.matrix.column(0)
    assert sorted(col) == [-1, 1]
    # oracle: small box enumeration of the actual kernel
    span = set()
    for t in range(-4, 5):
        span.add((t * col[0], t * col[1]))
    for a, b in iproduct(range(-3, 4), repeat=2):
        if a + b == 0:
            assert (a, b) in span


def test_cokernel_examples():
    z = free_abelian(1)
    c, proj = cokernel(hom(z, z, [[2]]))
    assert c.canonical_form == (0, (2,))
    assert is_zero_hom(hom_compose(proj, hom(z, z, [[2]])))


def test_kernel_cokernel_compose_zero_random():
    rng = random.Random(37)
    for _ in range(25):
        a = random_group(rng)
        b = random_group(rng)
        h = random_hom(rng, a, b)
        assert hom_validate(h).ok
        k, incl = kernel(h)
        c, proj = cokernel(h)
        assert is_zero_hom(hom_compose(h, incl))
        assert is_zero_hom(hom_compose(proj, h))


def test_biproduct_identities():
    groups = [free_abelian(1), cyclic(2), zero_group(), cyclic(4)]
    total, injections, projections = biproduct(groups)
    assert total.canonical_form == (1, (2, 4))
    assert direct_sum(groups) == total and direct_sum(iter(groups)) == total
    assert direct_sum([]) == biproduct([])[0] == zero_group()
    for i in range(4):
        for j in range(4):
            comp = hom_compose(projections[i], injections[j])
            if i == j:
                assert hom_equal(comp, identity_hom(groups[i]))
            else:
                assert is_zero_hom(comp)
    acc = zero_hom(total, total)
    for i in range(4):
        acc = acc + hom_compose(injections[i], projections[i])
    assert hom_equal(acc, identity_hom(total))


def test_biproduct_is_product_probe():
    # universal property against cyclic probes: any pair of maps factors
    # uniquely through the projections
    groups = [cyclic(2), free_abelian(1)]
    total, injections, projections = biproduct(groups)
    for probe in (free_abelian(1), cyclic(2)):
        rng = random.Random(101)
        legs = [random_hom(rng, probe, groups[0]), random_hom(rng, probe, groups[1])]
        mediating = hom_compose(injections[0], legs[0]) + hom_compose(injections[1], legs[1])
        for i in range(2):
            assert hom_equal(hom_compose(projections[i], mediating), legs[i])


def test_mono_epi_examples():
    z = free_abelian(1)
    doubling = hom(z, z, [[2]])
    assert is_mono(doubling) and not is_epi(doubling)
    quotient = hom(z, cyclic(2), [[1]])
    assert is_epi(quotient) and not is_mono(quotient)


def test_is_mono_against_finite_enumeration():
    # independent oracle on torsion groups: enumerate all elements
    rng = random.Random(41)
    for _ in range(20):
        a = from_canonical_form(0, rng.choice([(2,), (4,), (2, 2), (3,), (6,), (2, 4)]))
        b = from_canonical_form(0, rng.choice([(2,), (4,), (2, 2), (3, 3), (6,), (8,)]))
        h = random_hom(rng, a, b)
        orders_a = [d for d in a.canonical_form[1]]
        elements = list(iproduct(*[range(d) for d in orders_a]))
        images = {}
        injective = True
        for e in elements:
            img = tuple(h.matrix.apply(e))
            key = tuple(x % d for x, d in zip(img, b.canonical_form[1]))
            if key in images and images[key] != e:
                injective = False
            images[key] = e
        assert is_mono(h) == injective


def test_is_mono_matches_trivial_kernel():
    # is_mono tests containment of the preimage; the kernel route builds the
    # kernel group and reads its canonical form
    rng = random.Random(43)
    seen = set()
    for trial in range(150):
        a = random_group(rng, max_gens=3)
        b = random_group(rng, max_gens=3)
        if trial % 3 == 0:
            a = scramble_group(rng, a)[0]
        if trial % 3 == 1:
            b = scramble_group(rng, b)[0]
        h = random_hom(rng, a, b)
        expected = kernel(h)[0].is_trivial
        assert is_mono(h) == expected
        seen.add(expected)
    for h in random_mono_family(rng, 20)[2]:
        assert is_mono(h) and kernel(h)[0].is_trivial
    assert seen == {True, False}


def test_is_epi_matches_trivial_cokernel():
    # is_epi reads the pivots of the graph lattice; the cokernel route builds
    # the quotient group and reads its canonical form
    rng = random.Random(47)
    seen = set()
    for trial in range(150):
        a = random_group(rng, max_gens=3)
        b = random_group(rng, max_gens=3)
        if trial % 3 == 0:
            a = scramble_group(rng, a)[0]
        if trial % 3 == 1:
            b = scramble_group(rng, b)[0]
        h = random_hom(rng, a, b)
        if trial % 5 == 0:
            # a projection onto a quotient is epi
            h = cokernel(h)[1]
        expected = cokernel(h)[0].is_trivial
        assert is_epi(h) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_are_isomorphic_with_witness():
    z2z3, _, _ = biproduct([cyclic(2), cyclic(3)])
    ok, witness = are_isomorphic(z2z3, cyclic(6))
    assert ok
    fwd, bwd = witness
    assert hom_validate(fwd).ok and hom_validate(bwd).ok
    assert hom_equal(hom_compose(fwd, bwd), identity_hom(cyclic(6)))
    assert hom_equal(hom_compose(bwd, fwd), identity_hom(z2z3))
    assert not are_isomorphic(cyclic(2), cyclic(4))[0]


def test_canonicalize_round_trip():
    rng = random.Random(43)
    for _ in range(25):
        g, _, _ = scramble_group(rng, random_group(rng))
        c = canonicalize(g)
        assert hom_validate(c.to_canonical).ok
        assert hom_validate(c.from_canonical).ok
        assert hom_equal(hom_compose(c.to_canonical, c.from_canonical),
                         identity_hom(c.canonical))
        assert hom_equal(hom_compose(c.from_canonical, c.to_canonical),
                         identity_hom(g))


def test_cokernel_probe_universality():
    # probes that kill the map factor uniquely through the cokernel
    rng = random.Random(47)
    probes = [free_abelian(1), cyclic(2), cyclic(4), cyclic(6)]
    for _ in range(12):
        a = random_group(rng)
        b = random_group(rng)
        h = random_hom(rng, a, b)
        c, proj = cokernel(h)
        for probe in probes:
            t = random_hom(rng, b, probe)
            killer = hom_compose(t, h)
            if not is_zero_hom(killer):
                continue
            factored = factor_through_cokernel(proj, t)
            assert hom_equal(hom_compose(factored, proj), t)
            # uniqueness: proj is epi, so any two factorizations agree
            assert is_epi(proj)


def test_kernel_probe_universality():
    rng = random.Random(53)
    probes = [free_abelian(1), cyclic(2), cyclic(4), cyclic(6)]
    for _ in range(12):
        a = random_group(rng)
        b = random_group(rng)
        h = random_hom(rng, a, b)
        k, incl = kernel(h)
        for probe in probes:
            u = random_hom(rng, probe, a)
            if not is_zero_hom(hom_compose(h, u)):
                continue
            factored = factor_through_kernel(incl, u)
            assert hom_equal(hom_compose(incl, factored), u)
            assert is_mono(incl)


def test_hom_shape_errors():
    with pytest.raises(InputError):
        hom(free_abelian(2), free_abelian(1), [[1]])  # wrong column count
    with pytest.raises(InputError):
        hom_compose(hom(free_abelian(1), free_abelian(1), [[1]]),
                    hom(free_abelian(1), cyclic(2), [[1]]))


def hadamard_bits(m: IntMatrix) -> int:
    """Bit length of the product of the largest min(rows, cols) column norms."""
    squares = sorted((sum(x * x for x in col) for col in m.columns()), reverse=True)
    bound = 1
    for s in squares[:min(m.rows, m.cols)]:
        bound *= s
    return isqrt(bound).bit_length()


def max_entry_bits(m: IntMatrix) -> int:
    return max((abs(x).bit_length() for row in m.data for x in row), default=0)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_coefficients_stay_within_the_hadamard_bound(n):
    rng = random.Random(600 + n)
    group = group_from_presentation(random_matrix(rng, n + 2, n, 9))
    scrambled, h, _ = scramble_group(rng, group)
    for g in (group, scrambled):
        assert max_entry_bits(g.reduced_relations) <= hadamard_bits(g.relations)
    inclusion = kernel(h)[1].matrix
    bound = hadamard_bits(hstack(h.matrix, scrambled.reduced_relations))
    assert max_entry_bits(inclusion) <= bound


def test_groups_and_homs_refuse_bad_shapes():
    import re
    from abcat.abgrp import AbHom, FGAbGroup
    z, z2 = free_abelian(1), free_abelian(2)
    for build, message in (
            (lambda: FGAbGroup(-1), "negative generator count"),
            (lambda: FGAbGroup(2, IntMatrix.zeros(3, 0)), "relation matrix has 3 rows, expected 2"),
            (lambda: cyclic(-1), "negative order"),
            (lambda: AbHom(z, z2, IntMatrix.zeros(1, 2)),
             "matrix shape (1, 2) does not match (2, 1)"),
            (lambda: identity_hom(z) + identity_hom(z2), "sum of homs with different endpoints")):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            build()


def test_factorizations_refuse_maps_that_do_not_factor():
    z, z2 = free_abelian(1), free_abelian(2)
    _, diagonal = kernel(hom(z2, z, [[1, -1]]))
    _, quotient = cokernel(hom(z, z2, [[1], [1]]))
    for factor, through, u, message in (
            (factor_through_kernel, diagonal, identity_hom(z),
             "map does not land in the kernel's ambient group"),
            (factor_through_kernel, diagonal, hom(z, z2, [[1], [0]]),
             "map does not factor through the kernel"),
            (factor_through_cokernel, quotient, identity_hom(z),
             "map does not start at the cokernel's ambient group"),
            (factor_through_cokernel, quotient, hom(z2, z, [[1, 0]]),
             "map does not kill the image; no factorization exists")):
        with pytest.raises(InputError, match=f"^{message}$"):
            factor(through, u)
