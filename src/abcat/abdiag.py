"""Diagrams of finitely generated abelian groups over finite categories.

Colimits and limits glue along the base's ``generating()`` morphisms:
its non-identity generators when it has them, else every non-identity
morphism.  Colimits are computed by presentation (coproduct of all
object groups, plus one relation column per source generator of each
gluing morphism), presented on the quotient: a signed union-find over
the sparse columns consumes those that kill a generator or identify two
up to sign, so the carrier keeps one generator per surviving class.
Limits are kernels inside the product.

A module over a finite groupoid X is a diagram on X.  A family of groups
is a diagram on a discrete base, whose colimit is the direct sum; an
action is the diagram ``gmodule`` builds on the one-object category of
the group, whose colimit is the coinvariants and whose limit is the
invariants.  Those two, induced maps on colimits, and the checks behind
the coproduct-exactness results all live here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgrp import (AbHom, FGAbGroup, biproduct, cokernel, direct_sum,
                    factor_through_kernel, free_abelian, hom_compose, hom_equal, hom_validate,
                    identity_hom, is_mono, kernel, summand_offsets, zero_group,
                    zero_hom)
from .errors import InputError, PreconditionError
from .fincat import FinCategory, ValidationReport, group_as_category
from .intmat import IntMatrix, block_diagonal, hstack, vstack


class AbDiagram:
    """Functor from a finite category into f.g. abelian groups.

    ``homs`` is one hom per morphism, or a rule ``m -> AbHom`` that values
    the diagram only at the morphisms read.  ``hom(m)`` is the accessor:
    it checks the endpoints of each hom on first use and caches it.  A
    tuple of homs is checked in full at construction.
    """

    __slots__ = ("base", "groups", "_rule", "_cache")

    def __init__(self, base: FinCategory, groups, homs):
        self.base = base
        self.groups = tuple(groups)
        if len(self.groups) != base.n_objects:
            raise InputError("one group per object required")
        self._cache = {}
        if callable(homs):
            self._rule = homs
            return
        homs = tuple(homs)
        if len(homs) != base.n_morphisms:
            raise InputError("one hom per morphism required")
        self._rule = homs.__getitem__
        for m in range(len(homs)):
            self.hom(m)

    def hom(self, m: int) -> AbHom:
        h = self._cache.get(m)
        if h is None:
            h = self._rule(m)
            if (h.source != self.groups[self.base.dom[m]]
                    or h.target != self.groups[self.base.cod[m]]):
                raise InputError(f"hom for morphism {m} has wrong endpoints")
            self._cache[m] = h
        return h

    @property
    def homs(self) -> tuple:
        """Every hom, in morphism order."""
        return tuple(self.hom(m) for m in range(self.base.n_morphisms))

    def __eq__(self, other):
        if not isinstance(other, AbDiagram):
            return NotImplemented
        return (self.base == other.base and self.groups == other.groups
                and self.homs == other.homs)

    def __hash__(self):
        return hash((self.base, self.groups))


def validate_diagram(d: AbDiagram) -> ValidationReport:
    """Functor laws up to hom equality modulo relations, and every hom
    carrying its source relations into the target's."""
    problems = []
    for c in range(d.base.n_objects):
        if not hom_equal(d.hom(d.base.identity[c]), identity_hom(d.groups[c])):
            problems.append(f"hom of identity morphism at object {c} is not the identity")
    for (g, f) in d.base.composable_pairs():
        gf = d.base.compose(g, f)
        if not hom_equal(d.hom(gf), hom_compose(d.hom(g), d.hom(f))):
            problems.append(f"homs break composite ({g},{f})")
    for m in range(d.base.n_morphisms):
        if hom_validate(d.hom(m)).problems:
            problems.append(f"hom for morphism {m} does not respect the relations")
    return ValidationReport(tuple(problems))


def constant_diagram(base: FinCategory, group: FGAbGroup) -> AbDiagram:
    return AbDiagram(base, (group,) * base.n_objects,
                     tuple(identity_hom(group) for _ in range(base.n_morphisms)))


@dataclass(frozen=True)
class AbCocone:
    vertex: FGAbGroup
    components: tuple


@dataclass(frozen=True)
class AbCone:
    vertex: FGAbGroup
    components: tuple


class AbColimit:
    """Colimit presentation with its cocone and factorization.

    Generator k of the carrier is the class of generator i of object c,
    for (c, i) == ``representatives[k]``.
    """

    __slots__ = ("carrier", "cocone", "diagram", "representatives")

    def __init__(self, carrier, cocone, diagram, representatives):
        self.carrier = carrier
        self.cocone = cocone
        self.diagram = diagram
        self.representatives = representatives

    def factor(self, components, *, check: bool = True) -> AbHom:
        """The unique map out of the colimit matching a cocone, read at the
        ``representatives``.  ``check`` tests the cocone condition at the
        base's generators.  Over the empty base the vertex is the zero
        group.
        """
        components = list(components)
        if len(components) != self.diagram.base.n_objects:
            raise InputError("one cocone component per object required")
        if check:
            base = self.diagram.base
            for m in base.generating():
                a, b = base.dom[m], base.cod[m]
                if not hom_equal(hom_compose(components[b], self.diagram.hom(m)),
                                 components[a]):
                    raise InputError(f"components do not form a cocone at morphism {m}")
        vertex = components[0].target if components else zero_group()
        matrix = IntMatrix.from_columns(
            [components[c].matrix.column(i) for c, i in self.representatives], vertex.gens)
        return AbHom(self.carrier, vertex, matrix)


class AbLimit:
    """Limit subgroup with its cone and factorization."""

    __slots__ = ("carrier", "cone", "diagram", "_inclusion")

    def __init__(self, carrier, cone, diagram, inclusion):
        self.carrier = carrier
        self.cone = cone
        self.diagram = diagram
        self._inclusion = inclusion

    def factor(self, components) -> AbHom:
        """The unique map into the limit matching a cone, after testing
        the cone condition at the base's generators.  Over the empty base
        the vertex is the zero group.
        """
        components = list(components)
        base = self.diagram.base
        if len(components) != base.n_objects:
            raise InputError("one cone component per object required")
        for m in base.generating():
            a, b = base.dom[m], base.cod[m]
            if not hom_equal(hom_compose(self.diagram.hom(m), components[a]),
                             components[b]):
                raise InputError(f"components do not form a cone at morphism {m}")
        if not components:
            return zero_hom(zero_group(), self.carrier)
        source = components[0].source
        combined = AbHom(source, self._inclusion.target,
                         vstack(*[c.matrix for c in components]))
        return factor_through_kernel(self._inclusion, combined)


def _signed_quotient(n: int, columns) -> tuple[list, list, list]:
    """Present Z^n modulo ``columns`` on fewer coordinates.

    ``columns`` are sparse lists of (row, value) pairs.  A signed
    union-find sweep, repeated to a fixed point, consumes every column
    that kills one coordinate or identifies two up to sign (the bulk of
    colimit presentations).  Returns ``live``, the surviving root
    coordinates in increasing order; ``where``, holding for each
    coordinate i either (k, sign), meaning e_i == sign * e_live[k] modulo
    the columns, or None when e_i lies in their lattice; and the other
    columns written densely on ``live``, zero columns and repeats dropped,
    in first-seen order.  Z^n modulo ``columns`` is Z^len(live) modulo
    those.
    """
    parent = list(range(n))
    rel_sign = [1] * n
    alive = [True] * n

    def find(i):
        p = parent[i]
        if parent[p] == p:      # i is a root, whose rel_sign stays 1, or a root's child
            return p, rel_sign[i]
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        run = 1
        for j in reversed(path):
            run *= rel_sign[j]
            parent[j] = i
            rel_sign[j] = run
        return i, run

    pending = [col for col in columns if col]
    while True:
        changed = False
        nxt = []
        for col in pending:
            if len(col) == 2:   # most gluing columns: two finds, no dict or sort
                (r1, s1), (r2, s2) = find(col[0][0]), find(col[1][0])
                w1, w2 = s1 * col[0][1], s2 * col[1][1]
                if r1 == r2:
                    pairs = ((r1, w1 + w2),)
                else:
                    pairs = ((r1, w1), (r2, w2)) if r1 < r2 else ((r2, w2), (r1, w1))
            else:
                acc = {}
                for i, val in col:
                    r, s = find(i)
                    acc[r] = acc.get(r, 0) + s * val
                pairs = sorted(acc.items())
            entries = [(r, w) for r, w in pairs if w and alive[r]]
            if not entries:
                continue
            if len(entries) == 1 and abs(entries[0][1]) == 1:
                alive[entries[0][0]] = False
                changed = True
            elif len(entries) == 2 and abs(entries[0][1]) == 1 and abs(entries[1][1]) == 1:
                (r1, w1), (r2, w2) = entries
                parent[r2] = r1
                rel_sign[r2] = -w1 * w2
                changed = True
            else:
                nxt.append(entries)
        pending = nxt
        if not changed:
            break

    live = [i for i in range(n) if parent[i] == i and alive[i]]
    index = {r: k for k, r in enumerate(live)}
    where = []
    for i in range(n):
        r, s = find(i)
        where.append((index[r], s) if alive[r] else None)
    residual = {}
    for col in pending:
        dense = [0] * len(live)
        for i, val in col:
            if where[i] is not None:
                dense[where[i][0]] += where[i][1] * val
        if any(dense):
            residual.setdefault(tuple(dense), None)
    return live, where, list(residual)



def ab_colimit(d: AbDiagram) -> AbColimit:
    """Colimit by presentation, on the quotient of the sum's generators.

    The relations are every object's, plus one column per (glued morphism,
    source generator) gluing image to source.  The glued morphisms are the
    base's ``generating()`` morphisms, since the gluing of a composite g∘f
    follows from those of g and f.  ``_signed_quotient`` consumes the
    sparse columns that kill a generator or identify two up to sign: the
    carrier has one generator per surviving class and the columns left
    over, and each leg sends a generator to its class with a sign, or to 0.
    """
    base = d.base
    offsets = summand_offsets(d.groups)
    cols = []   # sparse (row, value) lists
    for g, off in zip(d.groups, offsets):
        cols.extend([(off + i, x) for i, x in enumerate(c) if x]
                    for c in g.relations.columns())
    for m in base.generating():
        source, target = offsets[base.dom[m]], offsets[base.cod[m]]
        for j, c in enumerate(d.hom(m).matrix.columns()):
            col = [(target + i, x) for i, x in enumerate(c) if x]
            col.append((source + j, -1))
            cols.append(col)
    live, where, residual = _signed_quotient(offsets[-1], cols)
    carrier = FGAbGroup(len(live), IntMatrix.from_columns(residual, len(live)))
    components = []
    for c, group in enumerate(d.groups):
        leg = [[0] * group.gens for _ in live]
        for i, hit in enumerate(where[offsets[c]:offsets[c + 1]]):
            if hit is not None:
                leg[hit[0]][i] = hit[1]
        components.append(AbHom(group, carrier, IntMatrix._trusted(
            tuple(map(tuple, leg)), len(live), group.gens)))
    coords = [(c, i) for c, group in enumerate(d.groups) for i in range(group.gens)]
    representatives = tuple(coords[r] for r in live)
    return AbColimit(carrier, AbCocone(carrier, tuple(components)), d, representatives)


def ab_limit(d: AbDiagram) -> AbLimit:
    """Limit as the kernel of the combined difference map out of the product.

    The difference map has one block per morphism of the base's
    ``generating()``; a tuple agreeing along those agrees along every
    composite.  The kernel is Hermite-reduced, so the carrier does not
    depend on which generating set is read.
    """
    base = d.base
    product, _, projections = biproduct(d.groups)
    glued = base.generating()
    if not glued:
        cone = AbCone(product, tuple(projections))
        return AbLimit(product, cone, d, identity_hom(product))
    blocks = []
    targets = []
    for m in glued:
        a, b = base.dom[m], base.cod[m]
        row = hom_compose(d.hom(m), projections[a]) - projections[b]
        blocks.append(row.matrix)
        targets.append(d.groups[b])
    q = direct_sum(targets)
    diff = AbHom(product, q, vstack(*blocks))
    carrier, inclusion = kernel(diff)
    components = tuple(hom_compose(projections[c], inclusion)
                       for c in range(base.n_objects))
    return AbLimit(carrier, AbCone(carrier, components), d, inclusion)


# ---------------------------------------------------------------------------
# group actions


def gmodule(table, carrier: FGAbGroup, generator_action) -> AbDiagram:
    """The one-object diagram of a group action, over ``group_as_category(table)``.

    The action is given on a generating set and extended to every group
    element by closure; any inconsistency with the multiplication table
    raises InputError.  The diagram holds the full action, so two
    presentations of one action give equal diagrams.
    """
    base = group_as_category(table)
    n = base.n_morphisms
    generator_action = dict(generator_action)
    for g, h in generator_action.items():
        if not 0 <= g < n:
            raise InputError(f"action generator {g} out of range")
        if h.source != carrier or h.target != carrier:
            raise InputError(f"action of {g} is not an endomorphism of the carrier")
        if hom_validate(h).problems:
            raise InputError(f"action of {g} is not well defined on the carrier")
    known = {base.identity[0]: identity_hom(carrier)}
    for g, h in generator_action.items():
        if g in known:
            if not hom_equal(known[g], h):
                raise InputError(f"action of {g} conflicts with the identity")
        else:
            known[g] = h
    frontier = list(known)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(known):
                for prod, ha, hb in ((base.compose(a, b), known[a], known[b]),
                                     (base.compose(b, a), known[b], known[a])):
                    composite = hom_compose(ha, hb)
                    if prod in known:
                        if not hom_equal(known[prod], composite):
                            raise InputError(f"action is inconsistent at product {prod}")
                    else:
                        known[prod] = composite
                        fresh.append(prod)
        frontier = fresh
    if len(known) != n:
        missing = sorted(set(range(n)) - set(known))
        raise InputError(f"action generators do not generate: missing {missing}")
    return AbDiagram(base, (carrier,), tuple(known[g] for g in range(n)))


def coinvariants(d: AbDiagram) -> tuple[FGAbGroup, AbHom]:
    """Quotient of the carrier of a one-object diagram by all differences
    g.a - a, g over ``generating()`` (every non-identity element of a
    group), with projection."""
    carrier = d.groups[0]
    blocks = [(d.hom(g) - identity_hom(carrier)).matrix for g in d.base.generating()]
    stacked = direct_sum([carrier] * len(blocks))
    return cokernel(AbHom(stacked, carrier, hstack(IntMatrix.zeros(carrier.gens, 0), *blocks)))


def invariants(d: AbDiagram) -> tuple[FGAbGroup, AbHom]:
    """Subgroup of the carrier of a one-object diagram fixed by every
    ``generating()`` morphism, with inclusion."""
    carrier = d.groups[0]
    blocks = [(d.hom(g) - identity_hom(carrier)).matrix for g in d.base.generating()]
    stacked = direct_sum([carrier] * len(blocks))
    return kernel(AbHom(carrier, stacked, vstack(IntMatrix.zeros(0, carrier.gens), *blocks)))


# ---------------------------------------------------------------------------
# families and induced maps


def induced_map_on_colimits(d: AbDiagram, e: AbDiagram, components,
                            colim_d: AbColimit | None = None,
                            colim_e: AbColimit | None = None):
    """The unique map between colimits commuting with both cocones.

    ``components`` is a natural family of homs D(c) -> E(c); naturality
    is checked at the base's generators, which implies it at every
    composite for functors, and an InputError names the first failing
    morphism.
    Returns (hom, colimit of d, colimit of e).
    """
    components = list(components)
    if d.base is not e.base and d.base != e.base:
        raise InputError("diagrams live on different bases")
    base = d.base
    if len(components) != base.n_objects:
        raise InputError("one component per object required")
    for c in range(base.n_objects):
        if components[c].source != d.groups[c] or components[c].target != e.groups[c]:
            raise InputError(f"component at object {c} has wrong endpoints")
    for m in base.generating():
        a, b = base.dom[m], base.cod[m]
        if not hom_equal(hom_compose(components[b], d.hom(m)),
                         hom_compose(e.hom(m), components[a])):
            raise InputError(f"components are not natural at morphism {m}")
    if colim_d is None:
        colim_d = ab_colimit(d)
    if colim_e is None:
        colim_e = ab_colimit(e)
    induced = colim_d.factor(
        [hom_compose(colim_e.cocone.components[c], components[c])
         for c in range(base.n_objects)],
        check=False)
    for c in range(base.n_objects):
        if not hom_equal(hom_compose(induced, colim_d.cocone.components[c]),
                         hom_compose(colim_e.cocone.components[c], components[c])):
            raise RuntimeError("induced map fails to commute with the cocones")
    return induced, colim_d, colim_e


@dataclass(frozen=True)
class Ab4Report:
    ok: bool
    induced: AbHom
    kernel_group: FGAbGroup
    source_sum: FGAbGroup
    target_sum: FGAbGroup


def ab4_check(source_family, target_family, monos) -> Ab4Report:
    """Does a family of monomorphisms induce a mono on direct sums?

    Every component must be a monomorphism (PreconditionError otherwise);
    the certificate is the kernel of the induced map.
    """
    source_family = list(source_family)
    target_family = list(target_family)
    monos = list(monos)
    if not len(source_family) == len(target_family) == len(monos):
        raise InputError("family sizes differ")
    for i, h in enumerate(monos):
        if h.source != source_family[i] or h.target != target_family[i]:
            raise InputError(f"component {i} has wrong endpoints")
        if not is_mono(h):
            raise PreconditionError(f"component {i} is not a monomorphism")
    source_sum = direct_sum(source_family)
    target_sum = direct_sum(target_family)
    induced = AbHom(source_sum, target_sum, block_diagonal([h.matrix for h in monos]))
    ker, _ = kernel(induced)
    return Ab4Report(ker.is_trivial, induced, ker, source_sum, target_sum)


@dataclass(frozen=True)
class GeneratorReport:
    """Parallel homs f and f', whether they are equal, and if not a
    Z-probe ``witness`` (the source's ``witness_generator``-th generator)."""

    f: AbHom
    f_prime: AbHom
    equal: bool
    witness: AbHom | None
    witness_generator: int | None

    def check(self) -> bool:
        """The homs are equal as claimed, or the witness w separates them:
        f∘w != f'∘w modulo the target's relations."""
        if self.equal:
            return hom_equal(self.f, self.f_prime)
        w = self.witness
        return w is not None and not hom_equal(hom_compose(self.f, w), hom_compose(self.f_prime, w))

    @property
    def ok(self) -> bool:
        return self.check()


def generator_check(f: AbHom, f_prime: AbHom) -> GeneratorReport:
    """Z is a generator: distinct parallel homs differ on some Z-probe.

    For equal homs the check holds vacuously; otherwise a probe g with
    f @ g != f' @ g is found among the standard generators.  The report's
    ``ok`` re-checks its claim.
    """
    if f.source != f_prime.source or f.target != f_prime.target:
        raise InputError("homs with different endpoints")
    if hom_equal(f, f_prime):
        return GeneratorReport(f, f_prime, True, None, None)
    diff = f.matrix - f_prime.matrix
    # unequal homs differ modulo the target's relations at some generator
    j = next(j for j in range(diff.cols) if not f.target.contains_relation(diff.column(j)))
    col = [[1 if i == j else 0] for i in range(f.source.gens)]
    witness = AbHom(free_abelian(1), f.source, IntMatrix(col, shape=(f.source.gens, 1)))
    return GeneratorReport(f, f_prime, False, witness, j)
