"""Verification harnesses for the structural theorems on exact instances.

Each ``verify_*`` function checks one statement on concrete data and
returns a report with an ``ok`` flag plus the certificate details a
caller can print.  ``PROPERTIES`` is the command line's table, keyed by
property: a row holds the document kind, the check of such a document,
and the trial that ``run_suite`` samples for the seeded suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable

from .abdiag import (AbDiagram, ab_colimit, coinvariants, gmodule, induced_map_on_colimits,
                     invariants, ab4_check, validate_diagram)
from .abgrp import (AbHom, describe_form, factor_through_kernel, free_abelian, hom,
                    hom_compose, hom_equal, is_epi, is_mono, is_zero_hom, kernel)
from .documents import AbNaturalMap
from .errors import InputError
from .fincat import (FinCategory, FinFunctor, ProductCategory, discrete_category,
                     is_final, is_sifted, parallel_pair_category, span_category,
                     validate_category)
from .intmat import block_diagonal
from .harting import harting_compare, harting_expand, hx_category
from .setdiag import (SetFunctor, commute_check, fixed_point_indices, restrict_along,
                      set_colimit, pointwise_product, FinSet)
from . import sampling


@dataclass
class VerifyReport:
    name: str
    ok: bool
    details: dict = field(default_factory=dict)

    def lines(self):
        yield f"{self.name}: {'ok' if self.ok else 'FAILED'}"
        for key in self.details:
            yield f"  {key}: {self.details[key]}"


def verify_notlex(source: AbDiagram, target: AbDiagram, component: AbHom) -> VerifyReport:
    """A mono of G-modules whose induced map on coinvariants is not mono.

    ``source`` and ``target`` are one-object diagrams over the same group
    (see ``gmodule``).  Verifies equivariance and monomorphy of the
    component, computes both coinvariant groups, and certifies that the
    induced map between the one-object colimits is zero and fails to be
    injective.
    """
    if component.source != source.groups[0] or component.target != target.groups[0]:
        raise InputError("component does not map the carriers")
    if source.base != target.base:
        raise InputError("modules are over different groups")
    for g in range(source.base.n_morphisms):
        if not hom_equal(hom_compose(target.hom(g), component),
                         hom_compose(component, source.hom(g))):
            raise InputError(f"component is not equivariant at group element {g}")
    details = {}
    mono = is_mono(component)
    details["component mono"] = mono
    co_s, _ = coinvariants(source)
    co_t, _ = coinvariants(target)
    inv_s, _ = invariants(source)
    inv_t, _ = invariants(target)
    details["coinvariants source"] = describe_form(co_s.canonical_form)
    details["coinvariants target"] = describe_form(co_t.canonical_form)
    details["invariants source"] = describe_form(inv_s.canonical_form)
    details["invariants target"] = describe_form(inv_t.canonical_form)
    induced, col_s, col_t = induced_map_on_colimits(source, target, [component])
    iso_ok = col_s.carrier.canonical_form == co_s.canonical_form \
        and col_t.carrier.canonical_form == co_t.canonical_form
    details["colimits match coinvariants"] = iso_ok
    zero = is_zero_hom(induced)
    induced_mono = is_mono(induced)
    ker, _ = kernel(induced)
    details["induced map zero"] = zero
    details["induced map mono"] = induced_mono
    details["induced kernel"] = describe_form(ker.canonical_form)
    ok = mono and iso_ok and not induced_mono
    return VerifyReport("left-exactness counterexample", ok, details)


def verify_harting(family, cap: int = 2, stability_cap: int | None = None) -> VerifyReport:
    """Expansion colimit equals the coproduct, with an explicit isomorphism."""
    family = list(family)
    alphabet = FinSet(len(family))
    hx = hx_category(alphabet, cap)
    comparison = harting_compare(family, hx)
    details = {
        "canonical form": describe_form(comparison.canonical_form),
        "cap": hx.cap,
        "objects": len(hx.objects),
    }
    if comparison.failures:
        details["failures"] = "; ".join(comparison.failures)
    ok = comparison.ok
    if stability_cap is not None and stability_cap != hx.cap:
        bigger = hx_category(alphabet, stability_cap)
        expanded = harting_expand(family, bigger)
        form = ab_colimit(expanded).carrier.canonical_form
        stable = form == comparison.canonical_form
        details[f"form at cap {stability_cap}"] = describe_form(form)
        details["cap stable"] = stable
        ok = ok and stable
    return VerifyReport("coproduct expansion comparison", ok, details)


def verify_ab4(source_family, target_family, monos, *, cross_cap: int = 2) -> VerifyReport:
    """Coproducts of monos are mono, cross-checked through the word-category
    expansion route with words of length at most ``cross_cap``."""
    source_family, target_family, monos = list(source_family), list(target_family), list(monos)
    report = ab4_check(source_family, target_family, monos)
    details = {
        "direct sum source": describe_form(report.source_sum.canonical_form),
        "direct sum target": describe_form(report.target_sum.canonical_form),
        "kernel of induced": describe_form(report.kernel_group.canonical_form),
        "induced mono": report.ok,
    }
    ok = report.ok
    if source_family:
        hx = hx_category(FinSet(len(source_family)), cross_cap)
        cmp_src = harting_compare(source_family, hx)
        cmp_tgt = harting_compare(target_family, hx)
        d_src = cmp_src.colimit.diagram
        d_tgt = cmp_tgt.colimit.diagram
        components = []
        for oi, obj in enumerate(hx.objects):
            mat = block_diagonal([monos[v].matrix for v in obj.word])
            components.append(AbHom(d_src.groups[oi], d_tgt.groups[oi], mat))
        induced_hx, _, _ = induced_map_on_colimits(d_src, d_tgt, components,
                                                   cmp_src.colimit, cmp_tgt.colimit)
        transported = hom_compose(cmp_tgt.forward,
                                  hom_compose(induced_hx, cmp_src.backward))
        agrees = hom_equal(transported, report.induced)
        mono_match = is_mono(induced_hx) == report.ok
        details["expansion route agrees"] = agrees
        details["expansion route mono agrees"] = mono_match
        ok = ok and agrees and mono_match and cmp_src.ok and cmp_tgt.ok
    return VerifyReport("coproducts preserve monos", ok, details)


def verify_ab5(d: AbDiagram, e: AbDiagram, components) -> VerifyReport:
    """Colimits over a filtered base preserve kernels, on explicit data.

    Builds the kernel diagram, compares its colimit with the kernel of
    the induced map through the canonical comparison, and certifies that
    the comparison is an isomorphism.
    """
    components = list(components)
    base = d.base
    kernels = [kernel(components[c]) for c in range(base.n_objects)]
    k_groups = [k for k, _ in kernels]

    def k_hom(m):
        return factor_through_kernel(kernels[base.cod[m]][1],
                                     hom_compose(d.hom(m), kernels[base.dom[m]][1]))

    k_diag = AbDiagram(base, k_groups, k_hom)
    colim_k = ab_colimit(k_diag)
    induced, colim_d, colim_e = induced_map_on_colimits(d, e, components)
    big_kernel, big_incl = kernel(induced)
    legs = []
    for c in range(base.n_objects):
        into_colim = hom_compose(colim_d.cocone.components[c], kernels[c][1])
        legs.append(factor_through_kernel(big_incl, into_colim))
    comparison = colim_k.factor(legs, check=False)
    mono = is_mono(comparison)
    epi = is_epi(comparison)
    details = {
        "colimit of kernels": describe_form(colim_k.carrier.canonical_form),
        "kernel of induced": describe_form(big_kernel.canonical_form),
        "comparison mono": mono,
        "comparison epi": epi,
    }
    return VerifyReport("filtered colimits preserve kernels", mono and epi, details)


def verify_commute(f_cat: FinCategory, d_cat: FinCategory, x: SetFunctor) -> VerifyReport:
    """Colimit-limit interchange for a diagram on a product base."""
    rep = commute_check(f_cat, d_cat, x)
    details = {
        "colim of limits": rep.lhs.size,
        "limit of colims": rep.rhs.size,
    }
    if rep.failure:
        details["failure"] = rep.failure
    return VerifyReport("filtered colimit commutes with finite limit",
                        rep.bijective, details)


def verify_fixpoints(table, f_cat: FinCategory, bg: FinCategory,
                     x: SetFunctor) -> VerifyReport:
    """Fixed points of a colimit of group-sets equal the colimit of the
    fixed points: ``commute_check`` over ``f_cat`` x ``bg`` (functor laws
    included), and at each stage a the points of lim_BG X(a, -) are
    exactly the fixed points of X(a, -).  ``table`` is ignored; the group
    is read off ``bg``.
    """
    rep = commute_check(f_cat, bg, x)
    base = x.base
    pointwise = True
    for a, points in enumerate(rep.limits):
        stage = FinFunctor(bg, base, [base.pair_object(a, 0)],
                           [base.pair_morphism(f_cat.identity[a], m)
                            for m in range(bg.n_morphisms)])
        fixed = fixed_point_indices(restrict_along(stage, x))
        pointwise = pointwise and fixed == tuple(p for (p,) in points)
    details = {
        "colim of fixed points": rep.lhs.size,
        "fixed points of colim": rep.rhs.size,
        "interchange bijective": rep.bijective,
    }
    return VerifyReport("fixed points commute with filtered colimit",
                        rep.bijective and pointwise, details)


def _canonical_map(pairs, size: int, target_size: int) -> tuple[bool, bool]:
    """Read the canonical map out of a colimit of ``size`` classes from
    (class, image) pairs.  Returns whether no class is sent two ways, and
    whether the map is a bijection onto ``target_size`` classes."""
    mapping = [None] * size
    consistent = True
    for k, v in pairs:
        if mapping[k] is not None and mapping[k] != v:
            consistent = False
        mapping[k] = v
    bij = None not in mapping and len(set(mapping)) == size and size == target_size
    return consistent, bij


def verify_final_restriction(f: FinFunctor, d: SetFunctor) -> VerifyReport:
    """Restriction along a final functor leaves the colimit unchanged."""
    fin = is_final(f)
    restricted = restrict_along(f, d)
    colim_full, cocone_full = set_colimit(d)
    colim_res, cocone_res = set_colimit(restricted)
    consistent, bij = _canonical_map(
        ((cocone_res.components[c][e], cocone_full.components[f.on_objects[c]][e])
         for c in range(f.source.n_objects) for e in range(restricted.sets[c].size)),
        colim_res.size, colim_full.size)
    details = {
        "final": fin.final,
        "colimit before": colim_full.size,
        "colimit after restriction": colim_res.size,
        "canonical bijection": bij,
    }
    return VerifyReport("final restriction preserves colimits",
                        fin.final and consistent and bij, details)


def verify_sifted_products(g: SetFunctor, h: SetFunctor) -> VerifyReport:
    """Colimits over a sifted base commute with binary products of sets."""
    base = g.base
    sift = is_sifted(base)
    prod_diag, pair, _ = pointwise_product(g, h)
    colim_prod, cocone_prod = set_colimit(prod_diag)
    colim_g, cocone_g = set_colimit(g)
    colim_h, cocone_h = set_colimit(h)
    consistent, bij = _canonical_map(
        ((cocone_prod.components[c][pair(c, i, j)],
          (cocone_g.components[c][i], cocone_h.components[c][j]))
         for c in range(base.n_objects)
         for i in range(g.sets[c].size) for j in range(h.sets[c].size)),
        colim_prod.size, colim_g.size * colim_h.size)
    details = {
        "sifted base": sift.sifted,
        "colim of product": colim_prod.size,
        "product of colims": colim_g.size * colim_h.size,
        "canonical bijection": bij,
    }
    return VerifyReport("sifted colimits commute with products",
                        sift.sifted and consistent and bij, details)


# ---------------------------------------------------------------------------
# the verification table
#
# Rows call the verifiers through their module-level names, looked up at
# call time, so a verifier replaced on this module is seen by every row.

COMMUTE_SHAPES = (discrete_category(2), parallel_pair_category(), span_category())
MAX_CHAIN = 4   # longest chain a commute or fixpoints trial samples


def _notlex_example() -> AbNaturalMap:
    """Negation on Z into the swap on Z^2, over Z/2."""
    z = free_abelian(1)
    z2 = free_abelian(2)
    table = ((0, 1), (1, 0))
    return AbNaturalMap(gmodule(table, z, {1: hom(z, z, [[-1]])}),
                        gmodule(table, z2, {1: hom(z2, z2, [[0, 1], [1, 0]])}),
                        (hom(z, z2, [[-1], [1]]),))


def _notlex(value, **_):
    if not isinstance(value, AbNaturalMap):
        raise InputError("notlex expects a gmodule document with target and map")
    return verify_notlex(value.source, value.target, value.components[0])


def _harting(value, **options):
    family = value.source if isinstance(value, AbNaturalMap) else value
    return verify_harting(list(family.groups), **options)


def _ab4(value, cap, **_):
    if not isinstance(value, AbNaturalMap):
        raise InputError("ab4 expects a family document with target_groups and maps")
    return verify_ab4(list(value.source.groups), list(value.target.groups),
                      list(value.components), cross_cap=cap)


def _ab5(value, **_):
    if not isinstance(value, AbNaturalMap):
        raise InputError("ab5 expects an abdiagram document with target and maps")
    # naturality is checked at generators only, which presumes functors
    validate_category(value.source.base).require("invalid category")
    validate_diagram(value.source).require("invalid diagram")
    validate_diagram(value.target).require("invalid target diagram")
    return verify_ab5(value.source, value.target, list(value.components))


def _checked_factors(value, prop: str) -> ProductCategory:
    """The product base of a setdiagram, once both factors pass the
    category laws (a product of categories is then a category)."""
    base = value.base
    if not isinstance(base, ProductCategory):
        raise InputError(f"{prop} expects a setdiagram with factors")
    validate_category(base.left).require("invalid category")
    validate_category(base.right).require("invalid category")
    return base


def _commute(value, **_):
    base = _checked_factors(value, "commute")
    return verify_commute(base.left, base.right, value)


def _fixpoints(value, **_):
    base = _checked_factors(value, "fixpoints")
    right = base.right
    morphisms = range(right.n_morphisms)
    # with one object every pair composes; a group inverts each morphism on both sides
    if right.n_objects != 1 or not all(any(
            right.compose(g, m) == right.identity[0] == right.compose(m, g) for g in morphisms)
            for m in morphisms):
        raise InputError("the second factor must be a one-object group category")
    return verify_fixpoints(None, base.left, right, value)


@dataclass(frozen=True)
class Property:
    """A row: a document of kind ``kind`` is checked by ``check(value,
    cap=, stability_cap=)``; ``trial(rng, t, cap=, stability_cap=)``
    samples and checks trial ``t`` of the seeded suite named ``suite``.
    A property without a suite checks ``example()`` instead."""

    kind: str
    check: Callable
    suite: str | None = None
    trial: Callable | None = None
    example: Callable | None = None


PROPERTIES = {
    "ab4": Property("family", _ab4, "randomized coproduct mono suite",
                    lambda rng, t, cap, **_: verify_ab4(
                        *sampling.random_mono_family(rng, rng.randint(1, 3)), cross_cap=cap)),
    "ab5": Property("abdiagram", _ab5, "randomized filtered exactness suite",
                    lambda rng, t, **_: verify_ab5(
                        *sampling.random_ab5_instance(rng, rng.randint(2, 3)))),
    "harting": Property("family", _harting, "randomized coproduct expansion suite",
                        lambda rng, t, **options: verify_harting(
                            sampling.random_family(rng, rng.randint(1, 3)), **options)),
    # a sampled set diagram on a product base is checked as a document is
    "commute": Property("setdiagram", _commute, "randomized interchange suite",
                        lambda rng, t, **_: _commute(sampling.random_commute_instance(
                            rng, rng.randint(2, MAX_CHAIN),
                            COMMUTE_SHAPES[t % len(COMMUTE_SHAPES)])[-1])),
    "fixpoints": Property("setdiagram", _fixpoints, "randomized fixed point suite",
                          lambda rng, t, **_: _fixpoints(sampling.random_gset_chain(
                              rng, rng.randint(2, MAX_CHAIN))[-1])),
    "notlex": Property("gmodule", _notlex, example=_notlex_example),
}


def run_suite(prop: str, trials: int, seed: int, *, cap: int = 2,
              stability_cap: int | None = None) -> VerifyReport:
    """The seeded suite of ``prop``, keeping the first three failing
    (trial, details) pairs."""
    if trials < 1:
        raise InputError("trials must be at least 1")
    row = PROPERTIES[prop]
    if row.trial is None:
        raise InputError(f"{prop} has no seeded suite")
    rng = Random(seed)
    failures = []
    for t in range(trials):
        rep = row.trial(rng, t, cap=cap, stability_cap=stability_cap)
        if not rep.ok:
            failures.append((t, rep.details))
    return VerifyReport(row.suite, not failures,
                        {"trials": trials, "seed": seed, "failures": failures[:3]})
