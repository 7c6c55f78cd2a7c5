"""Diagrams of finite sets on finite categories: limits, colimits, and
the colimit-limit interchange on a product base, one comparison for
filtered colimits against finite limits and for sifted colimits against
finite products.

A set diagram's tables are a sequence or a rule, each checked when first
read.  Limits are cut out of products by exhaustive tuple filtering; a
colimit is the set of components of the diagram's category of elements,
from ``fincat.element_classes``.  Both read only the generators' tables,
come with their (co)cones, and pick canonical representatives so golden
tests stay byte-stable.
"""

from __future__ import annotations

from itertools import islice, product as iproduct
from typing import NamedTuple

from .errors import InputError, PreconditionError
from .fincat import (Cocone, Cone, Diagram, FinCategory, FinFunctor, ProductCategory,
                     ValidationReport, element_classes, is_filtered, restrict_along)


class _FinSet(NamedTuple):
    size: int
    labels: tuple | None = None


class FinSet(_FinSet):
    """A finite set: canonical indices 0..size-1, optionally labelled."""

    __slots__ = ()
    # ``_replace`` builds through ``_make``; send it through the checks
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, size: int, labels=None):
        if size < 0:
            raise InputError("negative set size")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != size:
                raise InputError("label count does not match size")
            if len(set(labels)) != size:
                raise InputError("labels are not distinct")
        return super().__new__(cls, size, labels)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)


class SetFunctor(Diagram):
    """Diagram of finite sets: a carrier per object, a table per morphism,
    read by ``table(m)``."""

    __slots__ = ()
    _names = ("carrier", "table")
    sets, table, tables = Diagram.objects, Diagram.value, Diagram.values

    def _check(self, m: int, t) -> tuple:
        t = tuple(int(x) for x in t)
        size = self.sets[self.base.dom[m]].size
        if len(t) != size:
            raise InputError(f"table for morphism {m} has arity {len(t)}, expected {size}")
        limit = self.sets[self.base.cod[m]].size
        for x, y in enumerate(t):
            if not 0 <= y < limit:
                raise InputError(f"table for morphism {m} sends {x} to {y}, "
                                 f"outside codomain of size {limit}")
        return t


def validate_functor(d: SetFunctor) -> ValidationReport:
    """Check identity and composition laws at ``law_pairs()`` of a valid base."""
    base = d.base
    problems = []
    for c in range(base.n_objects):
        t = d.table(base.identity[c])
        if any(t[x] != x for x in range(len(t))):
            problems.append(f"table of identity morphism {base.identity[c]} is not the identity")
    for (g, f) in base.law_pairs():
        gf = base.compose(g, f)
        tf, tg, tgf = d.table(f), d.table(g), d.table(gf)
        if any(tg[tf[x]] != tgf[x] for x in range(len(tf))):
            problems.append(f"tables break composite ({g},{f})")
    return ValidationReport(tuple(problems))


def set_limit(d: SetFunctor) -> tuple[FinSet, Cone]:
    """Limit carrier and projection cone.

    The carrier consists of all tuples compatible along the base's
    ``generating()`` morphisms (for a functor, along all of them),
    enumerated in lexicographic order (object index first, element index
    second).  The limit over an empty base is a singleton.
    """
    base = d.base
    glued = [(base.dom[m], base.cod[m], d.table(m)) for m in base.generating()]
    points = [x for x in iproduct(*(range(s.size) for s in d.sets))
              if all(t[x[a]] == x[b] for a, b, t in glued)]
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
    tables = {m: d.table(m) for m in base.generating()}
    elements = [(c, x) for c in range(base.n_objects) for x in range(d.sets[c].size)]
    classes = element_classes(base, elements, lambda m, x: tables[m][x])
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


class CommuteReport(NamedTuple):
    """Result of comparing colim-of-limits against limit-of-colimits;
    ``limits[a]`` lists the points of lim_D X(a, -) in element order."""

    bijective: bool
    mapping: tuple
    lhs: FinSet
    rhs: FinSet
    failure: str | None
    limits: tuple


def commute_check(f_cat: FinCategory, d_cat: FinCategory, x: SetFunctor) -> CommuteReport:
    """Compare colim_F lim_D X with lim_D colim_F X via the canonical map.

    ``x`` must live on product_category(f_cat, d_cat) and obey the functor
    laws (InputError otherwise); the first factor must be filtered
    (PreconditionError otherwise).  The comparison is ``interchange(x)``.
    """
    base = x.base
    if not isinstance(base, ProductCategory):
        raise InputError("diagram base is not a product category")
    if ((base.left is not f_cat and base.left != f_cat)
            or (base.right is not d_cat and base.right != d_cat)):
        raise InputError("diagram base is not the product of the given factors")
    validate_functor(x).require("diagram breaks functor laws")
    rep = is_filtered(f_cat)
    if not rep.filtered:
        raise PreconditionError(f"first factor is not filtered: {rep.reason}")
    return interchange(x)


def interchange(x: SetFunctor) -> CommuteReport:
    """Compare colim_F lim_D X with lim_D colim_F X via the canonical map,
    for X on a product base F x D, with no hypothesis on either factor.

    The comparison map is assembled explicitly from the cone and cocone
    components and tested for bijectivity; X is presumed a functor.
    """
    base = x.base
    if not isinstance(base, ProductCategory):
        raise InputError("diagram base is not a product category")
    f_cat, d_cat = base.left, base.right

    # limits along the second factor, one per object of the first;
    # a functor carries compatible tuples to compatible tuples
    lim_carriers = []
    lim_points = []
    for a in range(f_cat.n_objects):
        inj = FinFunctor(d_cat, base,
                         [base.pair_object(a, c) for c in range(d_cat.n_objects)],
                         lambda m, e=f_cat.identity[a]: base.pair_morphism(e, m))
        carrier, cone = set_limit(restrict_along(inj, x))
        lim_carriers.append(carrier)
        lim_points.append(tuple(limit_points(cone)))
    lim_index = [{p: i for i, p in enumerate(pts)} for pts in lim_points]

    def lim_table(u):
        moves = [x.table(base.pair_morphism(u, d_cat.identity[c]))
                 for c in range(d_cat.n_objects)]
        index = lim_index[f_cat.cod[u]]
        return [index[tuple(t[e] for t, e in zip(moves, p))] for p in lim_points[f_cat.dom[u]]]
    lhs, lhs_cocone = set_colimit(SetFunctor(f_cat, lim_carriers, lim_table))

    # colimits along the first factor, one per object of the second;
    # a functor makes each transition well defined on classes
    colim_carriers = []
    colim_cocones = []
    for c in range(d_cat.n_objects):
        inj = FinFunctor(f_cat, base,
                         [base.pair_object(a, c) for a in range(f_cat.n_objects)],
                         lambda m, e=d_cat.identity[c]: base.pair_morphism(m, e))
        carrier, cocone = set_colimit(restrict_along(inj, x))
        colim_carriers.append(carrier)
        colim_cocones.append(cocone)

    def colim_table(v):
        into, into2 = colim_cocones[d_cat.dom[v]], colim_cocones[d_cat.cod[v]]
        table = [0] * colim_carriers[d_cat.dom[v]].size
        for a in range(f_cat.n_objects):
            tv = x.table(base.pair_morphism(f_cat.identity[a], v))
            for e, k in enumerate(into.components[a]):
                table[k] = into2.components[a][tv[e]]
        return table
    rhs, rhs_cone = set_limit(SetFunctor(d_cat, colim_carriers, colim_table))
    rhs_index = {p: i for i, p in enumerate(limit_points(rhs_cone))}

    # canonical comparison: a class of (a, limit point) maps to the tuple
    # of classes of its coordinates, which every member must agree on
    mapping, consistent, bij = _canonical_map(
        ((lhs_cocone.components[a][i], rhs_index[tuple(
            cocone.components[a][e] for cocone, e in zip(colim_cocones, point))])
         for a, points in enumerate(lim_points) for i, point in enumerate(points)),
        lhs.size, rhs.size)
    failure = ("comparison map is not well defined" if not consistent
               else None if bij else "comparison map is not a bijection")
    return CommuteReport(failure is None, mapping, lhs, rhs, failure, tuple(lim_points))


def _canonical_map(pairs, size: int, target_size: int) -> tuple[tuple, bool, bool]:
    """Read the canonical map out of a colimit of ``size`` classes from
    (class, image) pairs.  Returns the map, with each class sent to the
    image of its last member, whether no class is sent two ways, and
    whether the map is a bijection onto ``target_size`` classes."""
    mapping = [None] * size
    consistent = True
    for k, v in pairs:
        if mapping[k] is not None and mapping[k] != v:
            consistent = False
        mapping[k] = v
    bij = None not in mapping and len(set(mapping)) == size and size == target_size
    return tuple(mapping), consistent, bij


def fixed_points(x: SetFunctor) -> FinSet:
    """Elements fixed by every morphism of a one-object group action."""
    fixed = fixed_point_indices(x)
    return FinSet(len(fixed), tuple(x.sets[0].label(i) for i in fixed))


def fixed_point_indices(x: SetFunctor) -> tuple:
    """Indices of the elements fixed by every morphism of a one-object base."""
    if x.base.n_objects != 1:
        raise InputError("fixed points require a one-object base")
    carrier = x.sets[0]
    return tuple(i for i in range(carrier.size)
                 if all(x.table(m)[i] == i for m in range(x.base.n_morphisms)))
