"""Diagrams of abelian groups: (co)limits by presentation, group actions,
induced maps, and the coproduct-exactness checks.

Universality is probed against the fixed bounded surface {Z, Z/2, Z/4,
Z/6}; factorizations are compared by hom equality modulo relations.
"""

import itertools
import json
import random

import pytest

from abcat.abdiag import (AbDiagram, _signed_quotient, ab4_check, ab_colimit,
                          ab_limit, coinvariants, generator_check,
                          gmodule, induced_map_on_colimits, invariants,
                          validate_diagram)
from abcat.abgrp import (AbHom, FGAbGroup, are_isomorphic, biproduct, cyclic, direct_sum,
                         free_abelian, hom, hom_compose, hom_equal, hom_validate,
                         identity_hom, is_epi, is_mono, is_zero_hom, zero_group, zero_hom)
from abcat.documents import abgroup_body, parse_document
from abcat.errors import InputError, PreconditionError
from abcat.fincat import (FinCategory, FinFunctor, chain_category, discrete_category,
                          full_subcategory, identity_functor, is_final,
                          parallel_pair_category, restrict_along, span_category)
from abcat.harting import harting_expand, hx_category
from abcat.intmat import ColumnLattice, IntMatrix, block_diagonal, smith_diagonal
from abcat.sampling import (random_ab5_instance, random_family, random_group,
                            random_mono_chain, random_mono_family,
                            scramble_group)
from abcat.setdiag import FinSet, SetFunctor
from abcat.verify import verify_ab4, verify_ab5, verify_notlex
from cat_corpus import (Z2_TABLE, Z3_TABLE, constant_diagram, permutation_group_table,
                        random_hom)

Z = free_abelian(1)


def parallel_diagram(first, second):
    base = parallel_pair_category()
    return AbDiagram(base, [Z, Z], [identity_hom(Z), identity_hom(Z),
                                    hom(Z, Z, [[first]]), hom(Z, Z, [[second]])])


def test_colimit_discrete_is_biproduct():
    base = discrete_category(2)
    d = AbDiagram(base, [Z, cyclic(2)], [identity_hom(Z), identity_hom(cyclic(2))])
    col = ab_colimit(d)
    assert col.carrier.canonical_form == (1, (2,))


def test_colimit_coequalizer_x2_zero():
    # oracle: presentation has columns (2, -1) and (0, -1); its Smith
    # diagonal is (1, 2), leaving Z/2
    cols = IntMatrix.from_columns([(-1, 2), (-1, 0)], 2)
    assert tuple(smith_diagonal(cols)) == (1, 2)
    col = ab_colimit(parallel_diagram(2, 0))
    assert col.carrier.canonical_form == (0, (2,))


def test_colimit_pushout_coprime():
    # pushout of x2, x3 out of Z; oracle: cokernel of (2, -3) on Z^2 and
    # gcd(2, 3) = 1 makes it free of rank 1
    base = span_category()
    d = AbDiagram(base, [Z, Z, Z],
                  [identity_hom(Z)] * 3 + [hom(Z, Z, [[2]]), hom(Z, Z, [[3]])])
    col = ab_colimit(d)
    assert col.carrier.canonical_form == (1, ())


def test_colimit_gluing_into_the_zero_group():
    # Z -> 0 over 0 <= 1: the gluing column of the one generator has no
    # entry in the target, so it kills the generator and the colimit is 0
    base = chain_category(2)
    groups = [Z, zero_group()]
    d = AbDiagram(base, groups, lambda m: identity_hom(groups[base.dom[m]])
                  if base.dom[m] == base.cod[m] else zero_hom(Z, groups[1]))
    col = ab_colimit(d)
    assert col.carrier.gens == 0 and col.carrier.canonical_form == (0, ())
    assert col.representatives == ()
    assert col.cocone.components[0].matrix.shape == (0, 1)


def test_colimit_cocone_commutes():
    d = parallel_diagram(2, 0)
    col = ab_colimit(d)
    base = d.base
    for m in range(base.n_morphisms):
        a, b = base.dom[m], base.cod[m]
        assert hom_equal(hom_compose(col.cocone.components[b], d.hom(m)),
                         col.cocone.components[a])


def test_limit_discrete_is_product():
    base = discrete_category(2)
    d = AbDiagram(base, [Z, cyclic(4)], [identity_hom(Z), identity_hom(cyclic(4))])
    lim = ab_limit(d)
    assert lim.carrier.canonical_form == (1, (4,))


def test_limit_equalizer_x2_zero():
    lim = ab_limit(parallel_diagram(2, 0))
    assert lim.carrier.is_trivial


@pytest.mark.parametrize("build", [
    lambda: constant_diagram(chain_category(3), cyclic(6)),
    # the empty word is initial; the limit is a kernel into 164 relations
    lambda: harting_expand(random_family(random.Random(1), 2), hx_category(FinSet(2), 3)),
], ids=["chain", "hx_words"])
def test_limit_initial_object(build):
    d = build()  # object 0 is initial in both bases
    lim = ab_limit(d)
    ok, _ = are_isomorphic(lim.carrier, d.groups[0])
    assert ok


def test_limit_over_the_empty_base_is_zero():
    lim = ab_limit(AbDiagram(discrete_category(0), [], []))
    assert lim.carrier.is_trivial
    u = lim.factor([])
    assert u.source.is_trivial and u.target is lim.carrier


def test_validate_diagram():
    base = parallel_pair_category()
    good = parallel_diagram(1, 1)
    assert validate_diagram(good).ok
    broken = AbDiagram(base, [Z, Z], [hom(Z, Z, [[2]]), identity_hom(Z),
                                      hom(Z, Z, [[1]]), hom(Z, Z, [[0]])])
    assert not validate_diagram(broken).ok


# --- universality probes -----------------------------------------------------


PROBES = [free_abelian(1), cyclic(2), cyclic(4), cyclic(6)]


def probe_cocones(d, probe, rng, count=4):
    """Random cocones with the probe vertex, built by factoring random maps
    through the colimit and reading the components back."""
    col = ab_colimit(d)
    for _ in range(count):
        u = random_hom(rng, col.carrier, probe)
        yield [hom_compose(u, col.cocone.components[c])
               for c in range(d.base.n_objects)], u, col


def test_colimit_couniversality_probes():
    rng = random.Random(61)
    diagrams = [parallel_diagram(2, 0),
                AbDiagram(discrete_category(2), [Z, cyclic(2)],
                          [identity_hom(Z), identity_hom(cyclic(2))])]
    for d in diagrams:
        for probe in PROBES:
            for components, u, col in probe_cocones(d, probe, rng):
                factored = col.factor(components)
                assert hom_equal(factored, u)
                for c in range(d.base.n_objects):
                    assert hom_equal(hom_compose(factored, col.cocone.components[c]),
                                     components[c])


def test_limit_universality_probes():
    rng = random.Random(67)
    diagrams = [parallel_diagram(3, 1),
                AbDiagram(discrete_category(2), [Z, cyclic(4)],
                          [identity_hom(Z), identity_hom(cyclic(4))])]
    for d in diagrams:
        lim = ab_limit(d)
        for probe in PROBES:
            for _ in range(4):
                u = random_hom(rng, probe, lim.carrier)
                components = [hom_compose(lim.cone.components[c], u)
                              for c in range(d.base.n_objects)]
                factored = lim.factor(components)
                assert hom_equal(factored, u)


# --- group actions -----------------------------------------------------------


def negation_module():
    return gmodule(Z2_TABLE, Z, {1: hom(Z, Z, [[-1]])})


def swap_module():
    z2 = free_abelian(2)
    return gmodule(Z2_TABLE, z2, {1: hom(z2, z2, [[0, 1], [1, 0]])})


def test_coinvariants_paper_values():
    co, proj = coinvariants(negation_module())
    assert co.canonical_form == (0, (2,))
    assert is_epi(proj)
    co2, _ = coinvariants(swap_module())
    assert co2.canonical_form == (1, ())


def test_invariants_paper_values():
    inv, incl = invariants(negation_module())
    assert inv.is_trivial
    inv2, incl2 = invariants(swap_module())
    assert inv2.canonical_form == (1, ())
    # oracle: the kernel of (swap - id) is the diagonal
    col = incl2.matrix.column(0)
    assert col[0] == col[1] != 0


def _doubling_then_reduction():
    """Z --x2--> Z --> Z/6 on chain(3), whose colimit is Z/6 and limit Z."""
    chain, z6 = chain_category(3), cyclic(6)
    double, reduce = hom(Z, Z, [[2]]), hom(Z, z6, [[1]])
    return AbDiagram(chain, (Z, Z, z6), [identity_hom(Z), double, hom_compose(reduce, double),
                                         identity_hom(Z), reduce, identity_hom(z6)])


def test_invariants_and_coinvariants_refuse_a_base_of_several_objects():
    double = AbDiagram(chain_category(2), (Z, Z), [identity_hom(Z), hom(Z, Z, [[2]]),
                                                   identity_hom(Z)])
    assert ab_colimit(double).carrier.canonical_form == (1, ())
    assert ab_limit(double).carrier.canonical_form == (1, ())
    for reduction in (coinvariants, invariants):
        with pytest.raises(InputError, match=r"^\(co\)invariants require a one-object base$"):
            reduction(double)


def test_restriction_of_a_group_diagram():
    d = _doubling_then_reduction()
    assert validate_diagram(d).ok
    assert restrict_along(identity_functor(d.base), d) == d
    # the top of a chain is a final subcategory, so restriction keeps the colimit
    _, top = full_subcategory(d.base, [2])
    assert is_final(top).final
    at_top = restrict_along(top, d)
    assert isinstance(at_top, AbDiagram) and at_top.groups == (cyclic(6),)
    assert ab_colimit(at_top).carrier.canonical_form == \
        ab_colimit(d).carrier.canonical_form == (0, (6,))


def test_trivial_action():
    a = cyclic(6)
    m = gmodule([[0]], a, {})
    co, _ = coinvariants(m)
    inv, _ = invariants(m)
    assert co.canonical_form == a.canonical_form
    assert inv.canonical_form == a.canonical_form


def test_gmodule_rejects_bad_actions():
    with pytest.raises(InputError, match="generate"):
        gmodule(Z2_TABLE, Z, {})
    with pytest.raises(InputError, match="inconsistent|identity"):
        gmodule(Z2_TABLE, Z, {1: hom(Z, Z, [[2]])})  # 2*2 = 4 != 1


def test_gmodule_on_a_non_abelian_group():
    # S_3 permuting the basis of Z^3; 1 = (0 2 1) is a transposition and
    # 3 = (1 2 0) a 3-cycle, which together generate
    s3 = permutation_group_table(3)
    perms = sorted(itertools.permutations(range(3)))
    z3 = free_abelian(3)
    action = [hom(z3, z3, [[int(p[x] == y) for x in range(3)] for y in range(3)]) for p in perms]
    module = gmodule(s3, z3, {1: action[1], 3: action[3]})
    assert module == gmodule(s3, z3, {g: action[g] for g in range(1, 6)})
    assert all(module.hom(g).matrix == action[g].matrix for g in range(6))
    with pytest.raises(InputError, match="action is inconsistent"):
        gmodule(s3, z3, {1: action[1], 3: action[1]})


KLEIN_TABLE = tuple(tuple(a ^ b for b in range(4)) for a in range(4))


def random_action(seed, table, given):
    """A seeded module over the group of ``table``, given at the elements
    ``given``: the regular permutation module, a sign character on Z and a
    group with trivial action, summed and scrambled."""
    rng = random.Random(seed)
    n = len(table)
    characters = [chi for chi in itertools.product((1, -1), repeat=n)
                  if all(chi[table[a][b]] == chi[a] * chi[b] for a in range(n) for b in range(n))]
    chi = rng.choice(characters)
    still = random_group(rng)
    summed = direct_sum([free_abelian(n), Z, still])
    scrambled, to_scrambled, from_scrambled = scramble_group(rng, summed)

    def action(g):
        regular = IntMatrix([[int(table[g][x] == y) for x in range(n)] for y in range(n)])
        block = block_diagonal([regular, IntMatrix([[chi[g]]]), IntMatrix.identity(still.gens)])
        return to_scrambled @ AbHom(summed, summed, block) @ from_scrambled

    return gmodule(table, scrambled, {g: action(g) for g in given})


def actions():
    """The two Z/2 actions of the paper, and seeded actions over Z/3 and
    the Klein four-group given at redundant generating sets."""
    yield "negation", negation_module()
    yield "swap", swap_module()
    for seed in range(3):
        for table, given in ((Z3_TABLE, (1, 2)), (Z3_TABLE, (0, 1, 2)),
                             (KLEIN_TABLE, (1, 2, 3)), (KLEIN_TABLE, (0, 1, 2, 3))):
            yield f"seed {seed}, order {len(table)}, at {given}", \
                random_action(seed, table, given)


def test_coinvariants_match_colimit_over_group_category():
    for action, module in actions():
        co, proj = coinvariants(module)
        col = ab_colimit(module)
        assert col.carrier.canonical_form == co.canonical_form, action
        # the comparison map built from the universal properties is iso
        comparison = col.factor([proj])
        assert is_mono(comparison) and is_epi(comparison), action
        # dually for invariants: the inclusion is a cone, and its
        # factorization through the limit is an isomorphism
        lim = ab_limit(module)
        inv, incl = invariants(module)
        assert lim.carrier.canonical_form == inv.canonical_form, action
        lifted = lim.factor([incl])
        assert is_mono(lifted) and is_epi(lifted), action


def test_gmodule_is_its_full_action():
    module = random_action(5, Z3_TABLE, (1,))
    a, h = module.groups[0], module.hom(1)
    again = gmodule(Z3_TABLE, a, {1: h, 2: h @ h})
    assert gmodule(Z3_TABLE, a, {1: h}) == again
    assert hash(module) == hash(again)


def test_family_colimit_is_the_direct_sum():
    # a family document is a diagram on a discrete base, and its colimit
    # over that base is the coproduct
    rng = random.Random(83)
    for _ in range(10):
        groups = [scramble_group(rng, g)[0] for g in random_family(rng, rng.randint(0, 4))]
        names = [f"x{i}" for i in range(len(groups))]
        text = json.dumps({"kind": "family", "index": names,
                           "groups": {x: abgroup_body(g) for x, g in zip(names, groups)}})
        family = parse_document(text).value
        assert family.base == discrete_category(len(names), labels=names)
        assert ab_colimit(family).carrier.canonical_form == \
            direct_sum(family.groups).canonical_form


# --- induced maps and the exactness checks ----------------------------------


def test_induced_identity():
    d = parallel_diagram(2, 0)
    ind, col1, col2 = induced_map_on_colimits(d, d, [identity_hom(Z), identity_hom(Z)])
    assert hom_equal(ind, identity_hom(col1.carrier))


def test_induced_not_mono_counterexample():
    # the equivariant mono 1 -> (-1, 1) between negation and swap kills
    # the coinvariants map
    neg, swp = negation_module(), swap_module()
    eta = hom(Z, swp.groups[0], [[-1], [1]])
    assert is_mono(eta)
    ind, c1, c2 = induced_map_on_colimits(neg, swp, [eta])
    assert c1.carrier.canonical_form == (0, (2,))
    assert c2.carrier.canonical_form == (1, ())
    assert is_zero_hom(ind)
    assert not is_mono(ind)


def test_induced_componentwise_doubling():
    base = discrete_category(2)
    d = AbDiagram(base, [Z, Z], [identity_hom(Z)] * 2)
    ind, _, _ = induced_map_on_colimits(d, d, [hom(Z, Z, [[2]])] * 2)
    # oracle: matrix assembly gives diag(2, 2)
    assert ind.matrix == IntMatrix([[2, 0], [0, 2]])
    assert is_mono(ind)


def test_induced_rejects_non_natural():
    neg, swp = negation_module(), swap_module()
    bad = hom(Z, swp.groups[0], [[1], [0]])
    with pytest.raises(InputError, match="natural"):
        induced_map_on_colimits(neg, swp, [bad])


def test_induced_refuses_diagrams_on_different_bases():
    with pytest.raises(InputError) as err:
        induced_map_on_colimits(negation_module(), parallel_diagram(2, 0), [identity_hom(Z)])
    assert str(err.value) == "diagrams live on different bases"


def test_induced_needs_one_component_per_object():
    d = parallel_diagram(2, 0)
    with pytest.raises(InputError) as err:
        induced_map_on_colimits(d, d, [identity_hom(Z)])
    assert str(err.value) == "one component per object required"


def test_induced_names_a_component_with_wrong_endpoints():
    d = parallel_diagram(2, 0)
    with pytest.raises(InputError) as err:
        induced_map_on_colimits(d, d, [identity_hom(Z), identity_hom(cyclic(2))])
    assert str(err.value) == "component at object 1 has wrong endpoints"


def test_notlex_refuses_a_component_off_the_carriers():
    with pytest.raises(InputError) as err:
        verify_notlex(negation_module(), swap_module(), identity_hom(Z))
    assert str(err.value) == "component does not map the carriers"


def test_notlex_refuses_modules_over_different_groups():
    trivial = gmodule(Z3_TABLE, Z, {1: identity_hom(Z)})
    with pytest.raises(InputError) as err:
        verify_notlex(negation_module(), trivial, identity_hom(Z))
    assert str(err.value) == "modules are over different groups"


def test_ab4_check_examples():
    rep = ab4_check([Z, Z], [Z, Z], [hom(Z, Z, [[2]]), hom(Z, Z, [[3]])])
    assert rep.ok
    assert rep.induced.matrix == IntMatrix([[2, 0], [0, 3]])
    ident = ab4_check([Z], [Z], [identity_hom(Z)])
    assert ident.ok
    with pytest.raises(PreconditionError):
        ab4_check([Z], [Z], [zero_hom(Z, Z)])


def test_ab4_random_monos():
    rng = random.Random(71)
    for _ in range(10):
        src, tgt, monos = random_mono_family(rng, rng.randint(1, 3))
        rep = ab4_check(src, tgt, monos)
        assert rep.ok
        assert rep.kernel_group.is_trivial


def test_verify_ab4_reads_each_input_once():
    src, tgt, monos = random_mono_family(random.Random(1), 2)
    listed = verify_ab4(src, tgt, monos)
    assert listed.ok
    assert verify_ab4(iter(src), iter(tgt), iter(monos)).details == listed.details


def test_signed_quotient_certificate():
    """``where`` and ``residual`` against the lattice of the input columns:
    each dropped coordinate lies in it, each kept one differs from its
    class representative by a lattice vector, and the quotient keeps its
    canonical form.  Columns repeat rows, kill coordinates (dead roots),
    carry +-2 entries and link coordinates into chains of merges."""
    rng = random.Random(18)
    for _ in range(400):
        n = rng.randint(1, 10)
        cols = [[(rng.randrange(n), rng.choice((-2, -1, 1, 2, 3)))
                 for _ in range(rng.choice((1, 2, 2, 2, 3)))]
                for _ in range(rng.randint(0, 10))]
        chain = rng.sample(range(n), rng.randint(1, n))
        cols += [[(a, rng.choice((-1, 1))), (b, rng.choice((-1, 1)))]
                 for a, b in zip(chain, chain[1:])]
        if rng.random() < 0.5:
            cols.append([(rng.choice(chain), rng.choice((-1, 1)))])
        rng.shuffle(cols)
        live, where, residual = _signed_quotient(n, cols)

        def unit(i):
            return [1 if r == i else 0 for r in range(n)]

        dense = []
        for col in cols:
            v = [0] * n
            for i, x in col:
                v[i] += x
            dense.append(v)
        lattice = ColumnLattice(n, dense)
        for i, hit in enumerate(where):
            if hit is None:
                assert lattice.contains(unit(i))
            else:
                k, sign = hit
                rep = unit(live[k])
                assert lattice.contains([x - sign * y for x, y in zip(unit(i), rep)])
        full = FGAbGroup(n, IntMatrix.from_columns(dense, n))
        small = FGAbGroup(len(live), IntMatrix.from_columns(residual, len(live)))
        assert full.canonical_form == small.canonical_form


def test_generator_check_examples():
    eq = generator_check(hom(Z, Z, [[5]]), hom(Z, Z, [[5]]))
    assert eq.ok and eq.equal and eq.witness is None
    neq = generator_check(hom(Z, Z, [[1]]), hom(Z, Z, [[2]]))
    assert neq.ok and not neq.equal
    assert neq.witness_generator == 0
    # two distinct maps Z/2 -> Z/2 + Z/2 distinguished by a Z-probe
    z2 = cyclic(2)
    pair, injections, _ = biproduct([z2, z2])
    f = injections[0]
    g = injections[1]
    rep = generator_check(f, g)
    assert rep.ok and not rep.equal
    left = hom_compose(f, rep.witness)
    right = hom_compose(g, rep.witness)
    assert not hom_equal(left, right)


def test_generator_check_random_pairs():
    rng = random.Random(73)
    found = 0
    for _ in range(30):
        a = random_group(rng)
        b = random_group(rng)
        f = random_hom(rng, a, b)
        g = random_hom(rng, a, b)
        rep = generator_check(f, g)
        assert rep.ok
        if not rep.equal:
            found += 1
            assert not hom_equal(hom_compose(f, rep.witness),
                                 hom_compose(g, rep.witness))
    assert found > 5


def test_generator_report_rejects_a_witness_that_does_not_separate():
    z2 = free_abelian(2)
    f, g = hom(z2, Z, [[1, 0]]), hom(z2, Z, [[1, 1]])
    rep = generator_check(f, g)
    assert rep.check() and rep.witness_generator == 1
    # f and g differ only at the second generator; the first goes to 1 under both
    first = hom(Z, z2, [[1], [0]])
    assert not rep._replace(witness=first).ok
    assert not rep._replace(witness=None).ok
    assert not rep._replace(equal=True, witness=None).ok
    # into Z/2, the probe 2 goes to 0 under both
    z_2 = cyclic(2)
    rep = generator_check(hom(Z, z_2, [[1]]), hom(Z, z_2, [[0]]))
    assert rep.ok
    assert not rep._replace(witness=hom(Z, Z, [[2]])).ok
    assert generator_check(hom(Z, z_2, [[1]]), hom(Z, z_2, [[3]])).check()


def test_ab5_small_instance():
    rng = random.Random(79)
    d, e, eta = random_ab5_instance(rng, 2)
    for c in range(2):
        assert hom_validate(eta[c]).ok
    rep = verify_ab5(d, e, eta)
    assert rep.ok, rep.details


def test_mono_chain_transitions_are_mono():
    rng = random.Random(83)
    diag = random_mono_chain(rng, 3)
    assert validate_diagram(diag).ok
    for m in range(diag.base.n_morphisms):
        assert is_mono(diag.hom(m))


def test_biproduct_edges():
    total, injections, _ = biproduct([])
    assert total.is_trivial and injections == []
    single, injections, _ = biproduct([cyclic(4)])
    assert single.canonical_form == (0, (4,))
    both, _, _ = biproduct([Z, cyclic(2)])
    assert both.canonical_form == (1, (2,))


def test_colim_preserves_pointwise_biproduct():
    # colimit of a pointwise direct sum is the direct sum of colimits
    base = chain_category(3)
    rng = random.Random(89)
    d1 = random_mono_chain(rng, 3)
    d2 = random_mono_chain(rng, 3)
    sums = [biproduct([d1.groups[c], d2.groups[c]]) for c in range(3)]
    homs = []
    for m in range(base.n_morphisms):
        a, b = base.dom[m], base.cod[m]
        h = hom_compose(sums[b][1][0], hom_compose(d1.hom(m), sums[a][2][0])) + \
            hom_compose(sums[b][1][1], hom_compose(d2.hom(m), sums[a][2][1]))
        homs.append(h)
    dsum = AbDiagram(base, [s[0] for s in sums], homs)
    assert validate_diagram(dsum).ok
    col_sum = ab_colimit(dsum)
    col1 = ab_colimit(d1)
    col2 = ab_colimit(d2)
    expected, _, _ = biproduct([col1.carrier, col2.carrier])
    ok, _ = are_isomorphic(col_sum.carrier, expected)
    assert ok


# --- value protocols ---------------------------------------------------------


def _values():
    z3, c3 = cyclic(3), chain_category(3)
    return [
        (AbDiagram(discrete_category(1), [Z], [identity_hom(Z)]), None),
        (z3, "<FGAbGroup Z/3 on 1 generators>"),
        (hom(Z, z3, [[1]]), "<AbHom Z -> Z/3>"),
        (c3, "<FinCategory 3 objects, 6 morphisms>"),
        (FinFunctor(discrete_category(1), c3, [2], [5]), "<FinFunctor 1->3 objects>"),
        (IntMatrix([[1, -2]]), "IntMatrix([[1, -2]], shape=(1, 2))"),
        (SetFunctor(discrete_category(1), [FinSet(2)], [(0, 1)]), None),
    ]


@pytest.mark.parametrize("value, text", _values(),
                         ids=["AbDiagram", "FGAbGroup", "AbHom", "FinCategory", "FinFunctor",
                              "IntMatrix", "SetFunctor"])
def test_values_defer_foreign_comparisons_and_print_their_shape(value, text):
    assert value.__eq__("x") is NotImplemented
    assert value != "x" and value == value
    if text is not None:
        assert repr(value) == text


def test_rule_categories_of_different_shapes_are_unequal():
    def discrete_by_rule(n):
        return FinCategory(n, list(range(n)), list(range(n)), range(n),
                           compose_rule=lambda g, f: g)

    one = discrete_by_rule(1)
    assert one == one and one != discrete_by_rule(2)


Z_Z2 = direct_sum([Z, cyclic(2)])

GUARDS = [
    (lambda: AbDiagram(parallel_pair_category(), [Z, Z],
                       [identity_hom(Z), identity_hom(Z), hom(Z, cyclic(2), [[1]]),
                        identity_hom(Z)]),
     "hom for morphism 2 has wrong endpoints"),
    (lambda: ab_colimit(parallel_diagram(2, 0)).factor([identity_hom(Z)]),
     "one cocone component per object required"),
    (lambda: ab_colimit(parallel_diagram(2, 0)).factor([identity_hom(Z)] * 2),
     "components do not form a cocone at morphism 2"),
    (lambda: ab_limit(parallel_diagram(2, 0)).factor([identity_hom(Z)]),
     "one cone component per object required"),
    (lambda: ab_limit(parallel_diagram(2, 0)).factor([identity_hom(Z)] * 2),
     "components do not form a cone at morphism 2"),
    (lambda: gmodule(Z2_TABLE, Z, {2: identity_hom(Z)}), "action generator 2 out of range"),
    (lambda: gmodule(Z2_TABLE, Z, {1: hom(Z, cyclic(2), [[1]])}),
     "action of 1 is not an endomorphism of the carrier"),
    # the swap sends the relation 2 e_2 to 2 e_1, a nonzero element of Z
    (lambda: gmodule(Z2_TABLE, Z_Z2, {1: hom(Z_Z2, Z_Z2, [[0, 1], [1, 0]])}),
     "action of 1 is not well defined on the carrier"),
    (lambda: gmodule(Z2_TABLE, Z, {0: hom(Z, Z, [[-1]])}),
     "action of 0 conflicts with the identity"),
    (lambda: ab4_check([Z, Z], [Z], [identity_hom(Z)] * 2), "family sizes differ"),
    (lambda: ab4_check([Z], [Z], [hom(Z, cyclic(2), [[1]])]),
     "component 0 has wrong endpoints"),
    (lambda: generator_check(identity_hom(Z), zero_hom(Z, cyclic(2))),
     "homs with different endpoints"),
]


@pytest.mark.parametrize("call,message", GUARDS, ids=[message for _, message in GUARDS])
def test_each_guard_names_its_input(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message
