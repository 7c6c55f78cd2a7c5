"""Diagrams of finite sets on finite categories: limits, colimits, and
the commutation harness for filtered colimits against finite limits.

Limits are cut out of products by exhaustive tuple filtering; a colimit
is the set of components of the diagram's category of elements, from
``fincat.element_classes``.  Both come with their (co)cones, and both
pick canonical representatives so golden tests stay byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product as iproduct

from .errors import InputError, PreconditionError
from .fincat import (FinCategory, FinFunctor, ProductCategory, ValidationReport,
                     element_classes, is_filtered)


@dataclass(frozen=True)
class FinSet:
    """A finite set: canonical indices 0..size-1, optionally labelled."""

    size: int
    labels: tuple | None = None

    def __post_init__(self):
        if self.size < 0:
            raise InputError("negative set size")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise InputError("label count does not match size")
            if len(set(self.labels)) != self.size:
                raise InputError("labels are not distinct")

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)


class SetFunctor:
    """Diagram of finite sets: a carrier per object, a table per morphism."""

    __slots__ = ("base", "sets", "tables")

    def __init__(self, base: FinCategory, sets, tables):
        self.base = base
        self.sets = tuple(sets)
        self.tables = tuple(tuple(int(x) for x in t) for t in tables)
        if len(self.sets) != base.n_objects:
            raise InputError("one carrier per object required")
        if len(self.tables) != base.n_morphisms:
            raise InputError("one table per morphism required")
        for m, t in enumerate(self.tables):
            if len(t) != self.sets[base.dom[m]].size:
                raise InputError(f"table for morphism {m} has arity {len(t)}, "
                                 f"expected {self.sets[base.dom[m]].size}")
            limit = self.sets[base.cod[m]].size
            for x, y in enumerate(t):
                if not 0 <= y < limit:
                    raise InputError(f"table for morphism {m} sends {x} to {y}, "
                                     f"outside codomain of size {limit}")

    def __eq__(self, other):
        if not isinstance(other, SetFunctor):
            return NotImplemented
        return (self.base == other.base and self.sets == other.sets
                and self.tables == other.tables)

    def __hash__(self):
        return hash((self.sets, self.tables))


def constant_functor(base: FinCategory, value: FinSet) -> SetFunctor:
    ident = tuple(range(value.size))
    return SetFunctor(base, (value,) * base.n_objects, (ident,) * base.n_morphisms)


def validate_functor(d: SetFunctor) -> ValidationReport:
    """Check identity and composition laws of a set-valued diagram."""
    base = d.base
    problems = []
    for c in range(base.n_objects):
        t = d.tables[base.identity[c]]
        if any(t[x] != x for x in range(len(t))):
            problems.append(f"table of identity morphism {base.identity[c]} is not the identity")
    for (g, f) in base.composable_pairs():
        gf = base.compose(g, f)
        tf, tg, tgf = d.tables[f], d.tables[g], d.tables[gf]
        if any(tg[tf[x]] != tgf[x] for x in range(len(tf))):
            problems.append(f"tables break composite ({g},{f})")
    return ValidationReport(tuple(problems))


@dataclass(frozen=True)
class Cone:
    """Vertex plus one projection table per object."""

    vertex: FinSet
    components: tuple


@dataclass(frozen=True)
class Cocone:
    """Vertex plus one insertion table per object."""

    vertex: FinSet
    components: tuple


def set_limit(d: SetFunctor) -> tuple[FinSet, Cone]:
    """Limit carrier and projection cone.

    The carrier consists of all tuples compatible along the base's
    ``generating()`` morphisms (for a functor, along all of them),
    enumerated in lexicographic order (object index first, element index
    second).  The limit over an empty base is a singleton.
    """
    base = d.base
    points = []
    glued = base.generating()
    for x in iproduct(*(range(s.size) for s in d.sets)):
        if all(d.tables[m][x[base.dom[m]]] == x[base.cod[m]] for m in glued):
            points.append(x)
    labels = tuple("(" + ",".join(d.sets[c].label(v) for c, v in enumerate(x)) + ")"
                   for x in points)
    carrier = FinSet(len(points), labels)
    components = tuple(tuple(x[c] for x in points) for c in range(base.n_objects))
    return carrier, Cone(carrier, components)


def limit_points(cone: Cone) -> list:
    """Recover the compatible tuples from a limit cone."""
    n = cone.vertex.size
    return [tuple(comp[i] for comp in cone.components) for i in range(n)]


def set_colimit(d: SetFunctor) -> tuple[FinSet, Cocone]:
    """Colimit carrier and insertion cocone.

    Classes of the tagged disjoint union under the closure of
    (c, x) ~ (c', table(x)): the components of the diagram's category of
    elements, from ``element_classes`` (which glues along the base's
    ``generating()`` morphisms).  Representatives are the least pair in
    (object index, element index) order.
    """
    base = d.base
    elements = [(c, x) for c in range(base.n_objects) for x in range(d.sets[c].size)]
    classes = element_classes(base, elements, lambda m, x: d.tables[m][x])
    class_of = [0] * len(elements)
    labels = []
    for k, members in enumerate(classes):
        for i in members:
            class_of[i] = k
        c, x = elements[members[0]]
        labels.append(f"{base.object_label(c)}.{d.sets[c].label(x)}")
    carrier = FinSet(len(classes), tuple(labels))
    flat = iter(class_of)
    components = tuple(tuple(islice(flat, s.size)) for s in d.sets)
    return carrier, Cocone(carrier, components)


def restrict_along(f: FinFunctor, d: SetFunctor) -> SetFunctor:
    """Precompose a diagram with a functor into its base."""
    if d.base is not f.target and d.base != f.target:
        raise InputError("diagram is not defined on the functor's target")
    sets = tuple(d.sets[f.on_objects[c]] for c in range(f.source.n_objects))
    tables = tuple(d.tables[f.on_morphisms[m]] for m in range(f.source.n_morphisms))
    return SetFunctor(f.source, sets, tables)


@dataclass(frozen=True)
class CommuteReport:
    """Result of comparing colim-of-limits against limit-of-colimits."""

    bijective: bool
    mapping: tuple
    lhs: FinSet
    rhs: FinSet
    failure: str | None


def commute_check(f_cat: FinCategory, d_cat: FinCategory, x: SetFunctor) -> CommuteReport:
    """Compare colim_F lim_D X with lim_D colim_F X via the canonical map.

    ``x`` must live on product_category(f_cat, d_cat); the first factor
    must be filtered (checked, PreconditionError otherwise).  The
    comparison map is assembled explicitly from the cone and cocone
    components and tested for bijectivity.
    """
    base = x.base
    if not isinstance(base, ProductCategory):
        raise InputError("diagram base is not a product category")
    if ((base.left is not f_cat and base.left != f_cat)
            or (base.right is not d_cat and base.right != d_cat)):
        raise InputError("diagram base is not the product of the given factors")
    rep = is_filtered(f_cat)
    if not rep.filtered:
        raise PreconditionError(f"first factor is not filtered: {rep.reason}")

    # limits along the finite factor, one per object of the filtered factor
    lim_carriers = []
    lim_points = []
    lim_index = []
    for a in range(f_cat.n_objects):
        inj = FinFunctor(d_cat, base,
                         [base.pair_object(a, c) for c in range(d_cat.n_objects)],
                         [base.pair_morphism(f_cat.identity[a], m)
                          for m in range(d_cat.n_morphisms)])
        carrier, cone = set_limit(restrict_along(inj, x))
        pts = limit_points(cone)
        lim_carriers.append(carrier)
        lim_points.append(pts)
        lim_index.append({p: i for i, p in enumerate(pts)})
    lim_tables = []
    for u in range(f_cat.n_morphisms):
        a, a2 = f_cat.dom[u], f_cat.cod[u]
        table = []
        for p in lim_points[a]:
            q = tuple(x.tables[base.pair_morphism(u, d_cat.identity[c])][p[c]]
                      for c in range(d_cat.n_objects))
            if q not in lim_index[a2]:
                return CommuteReport(False, (), lim_carriers[a], lim_carriers[a],
                                     f"limit transition along morphism {u} leaves the limit")
            table.append(lim_index[a2][q])
        lim_tables.append(tuple(table))
    lim_diagram = SetFunctor(f_cat, lim_carriers, lim_tables)
    lhs, lhs_cocone = set_colimit(lim_diagram)

    # colimits along the filtered factor, one per object of the finite factor
    colim_carriers = []
    colim_cocones = []
    for c in range(d_cat.n_objects):
        inj = FinFunctor(f_cat, base,
                         [base.pair_object(a, c) for a in range(f_cat.n_objects)],
                         [base.pair_morphism(m, d_cat.identity[c])
                          for m in range(f_cat.n_morphisms)])
        carrier, cocone = set_colimit(restrict_along(inj, x))
        colim_carriers.append(carrier)
        colim_cocones.append(cocone)
    colim_tables = []
    for v in range(d_cat.n_morphisms):
        c, c2 = d_cat.dom[v], d_cat.cod[v]
        table = [None] * colim_carriers[c].size
        for a in range(f_cat.n_objects):
            tv = x.tables[base.pair_morphism(f_cat.identity[a], v)]
            for e in range(x.sets[base.pair_object(a, c)].size):
                k = colim_cocones[c].components[a][e]
                img = colim_cocones[c2].components[a][tv[e]]
                if table[k] is not None and table[k] != img:
                    return CommuteReport(False, (), lhs, lhs,
                                         f"colimit transition along morphism {v} ill-defined")
                table[k] = img
        colim_tables.append(tuple(table))
    colim_diagram = SetFunctor(d_cat, colim_carriers, colim_tables)
    rhs, rhs_cone = set_limit(colim_diagram)
    rhs_index = {p: i for i, p in enumerate(limit_points(rhs_cone))}

    # canonical comparison: a class of (a, limit point) maps to the tuple
    # of classes of its coordinates
    reps = {}
    for a in range(f_cat.n_objects):
        for i in range(lim_carriers[a].size):
            k = lhs_cocone.components[a][i]
            if k not in reps:
                reps[k] = (a, i)
    mapping = []
    for k in range(lhs.size):
        a, i = reps[k]
        point = lim_points[a][i]
        image = tuple(colim_cocones[c].components[a][point[c]]
                      for c in range(d_cat.n_objects))
        j = rhs_index.get(image)
        if j is None:
            return CommuteReport(False, (), lhs, rhs,
                                 "comparison image is not a compatible tuple")
        mapping.append(j)
    bij = len(set(mapping)) == lhs.size and lhs.size == rhs.size
    return CommuteReport(bij, tuple(mapping), lhs, rhs,
                         None if bij else "comparison map is not a bijection")


def fixed_points(table, x: SetFunctor) -> FinSet:
    """Elements fixed by every morphism of a one-object group action."""
    fixed = fixed_point_indices(x)
    if x.base.n_morphisms != len(table):
        raise InputError("base does not match the group table")
    return FinSet(len(fixed), tuple(x.sets[0].label(i) for i in fixed))


def fixed_point_indices(x: SetFunctor) -> tuple:
    """Indices of the elements fixed by every morphism of a one-object base."""
    if x.base.n_objects != 1:
        raise InputError("fixed points require a one-object base")
    carrier = x.sets[0]
    return tuple(i for i in range(carrier.size)
                 if all(x.tables[m][i] == i for m in range(x.base.n_morphisms)))


def pointwise_product(g: SetFunctor, h: SetFunctor):
    """Pointwise product diagram on a shared base, plus pair codecs.

    Returns (diagram, pair, unpair) where pair(c, i, j) is the index of
    the element (i, j) in the product carrier at object c.
    """
    if g.base is not h.base and g.base != h.base:
        raise InputError("pointwise product needs a shared base")
    base = g.base
    sizes = [(g.sets[c].size, h.sets[c].size) for c in range(base.n_objects)]
    sets = tuple(FinSet(a * b) for a, b in sizes)
    tables = []
    for m in range(base.n_morphisms):
        c, c2 = base.dom[m], base.cod[m]
        _, hb = sizes[c]
        _, hb2 = sizes[c2]
        tg, th = g.tables[m], h.tables[m]
        table = []
        for i in range(sizes[c][0]):
            for j in range(hb):
                table.append(tg[i] * hb2 + th[j])
        tables.append(tuple(table))
    diagram = SetFunctor(base, sets, tables)

    def pair(c, i, j):
        return i * sizes[c][1] + j

    def unpair(c, k):
        return divmod(k, sizes[c][1])

    return diagram, pair, unpair
