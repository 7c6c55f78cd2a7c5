"""Finite categories as explicit data, with decidable structural checks.

A category here is fully enumerated: objects and morphisms are canonical
index ranges, and every law can be checked by exhaustive enumeration.
Composition is a table only where a table is the input (a parsed
document, or ``with_composition_table()``); every category the library
builds, the four hand-drawn shapes among them, composes by rule, through
the data it was built from.  On top of that sit the decidable notions
this package revolves around: connectedness by zig-zags, finality of a
functor, filteredness, siftedness, being a groupoid, and exhaustive
cocone search.  Functors, set diagrams and group diagrams hold their
values in a ``Diagram``, and ``restrict_along`` precomposes any of them
with a functor.
"""

from __future__ import annotations

from copy import copy
from itertools import product as iproduct
from typing import NamedTuple

from .errors import BudgetError, InputError, PreconditionError


class ValidationReport(NamedTuple):
    """Outcome of an exhaustive law check; empty problem list means valid."""

    problems: tuple

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, what: str) -> None:
        """Raise InputError naming ``what`` and the first three problems."""
        if self.problems:
            raise InputError(f"{what}: " + "; ".join(self.problems[:3]))


class FinCategory:
    """Fully enumerated finite category.

    Objects are indices 0..n_objects-1 and morphisms 0..n_morphisms-1.
    ``composition`` maps composable pairs (g, f) with cod(f) == dom(g) to
    the index of g∘f; it is for input, and only ``parse_category_body`` and
    ``with_composition_table()`` give one.  Every category the library
    builds supplies ``compose_rule`` instead, and may then give ``dom`` and
    ``cod`` as read-only sequences that compute their entries on demand.
    Equality compares the shape, then composites however they are stored.
    Optional ``generators`` must reach every morphism from the identities
    by composing on the left; limits, colimits and (co)cone checks read
    them alone.  Values are immutable after construction.
    """

    __slots__ = ("n_objects", "dom", "cod", "identity", "_table", "_rule",
                 "object_labels", "morphism_labels", "generators",
                 "_hom_cache", "_out_cache", "_in_cache", "_generating",
                 "_generating_from")

    def __init__(self, n_objects, dom, cod, identity, composition=None, *,
                 compose_rule=None, object_labels=None, morphism_labels=None,
                 generators=None):
        self.n_objects = int(n_objects)
        lazy = compose_rule is not None and not isinstance(dom, (list, tuple))
        self.dom = dom if lazy else tuple(int(x) for x in dom)
        self.cod = cod if lazy else tuple(int(x) for x in cod)
        self.identity = tuple(int(x) for x in identity)
        if len(self.dom) != len(self.cod):
            raise InputError("dom and cod tables differ in length")
        if len(self.identity) != self.n_objects:
            raise InputError(f"identity table has {len(self.identity)} entries, expected {self.n_objects}")
        self._table = dict(composition or {}) if compose_rule is None else None
        self._rule = compose_rule
        self.object_labels = tuple(object_labels) if object_labels is not None else None
        self.morphism_labels = tuple(morphism_labels) if morphism_labels is not None else None
        if self.object_labels is not None and len(self.object_labels) != self.n_objects:
            raise InputError("object label count mismatch")
        if self.morphism_labels is not None and len(self.morphism_labels) != len(self.dom):
            raise InputError("morphism label count mismatch")
        self.generators = tuple(int(g) for g in generators) if generators is not None else None
        self._hom_cache = None
        self._out_cache = None
        self._in_cache = None
        self._generating = None
        self._generating_from = None

    @property
    def n_morphisms(self) -> int:
        return len(self.dom)

    def generating(self) -> tuple:
        """The non-identity generators when given, else every non-identity
        morphism, in index order.

        For a functor, a (co)cone or naturality condition that holds at
        these holds at every morphism, so limits, colimits and their
        checks read only these.
        """
        if self._generating is None:
            pool = sorted(set(self.generators)) if self.generators is not None \
                else range(self.n_morphisms)
            self._generating = tuple(m for m in pool if self.identity[self.dom[m]] != m)
        return self._generating

    def generating_from(self, x: int) -> tuple:
        """The ``generating()`` morphisms with domain x, in index order."""
        if self._generating_from is None:
            out = [[] for _ in range(self.n_objects)]
            for m in self.generating():
                out[self.dom[m]].append(m)
            self._generating_from = tuple(map(tuple, out))
        return self._generating_from[x]

    def compose(self, g: int, f: int) -> int:
        """Index of g∘f; requires cod(f) == dom(g)."""
        n = len(self.dom)
        if not (0 <= f < n and 0 <= g < n):
            raise InputError(f"morphism index out of range in compose({g}, {f})")
        if self.cod[f] != self.dom[g]:
            raise InputError(f"morphisms {g} and {f} are not composable")
        if self._table is not None:
            try:
                return self._table[(g, f)]
            except KeyError:
                raise InputError(f"composite ({g}, {f}) missing from table") from None
        return self._rule(g, f)

    def _build_caches(self):
        out = [[] for _ in range(self.n_objects)]
        inc = [[] for _ in range(self.n_objects)]
        for m in range(self.n_morphisms):
            out[self.dom[m]].append(m)
            inc[self.cod[m]].append(m)
        self._out_cache = tuple(tuple(v) for v in out)
        self._in_cache = tuple(tuple(v) for v in inc)

    def morphisms_from(self, c: int) -> tuple:
        if self._out_cache is None:
            self._build_caches()
        return self._out_cache[c]

    def morphisms_to(self, c: int) -> tuple:
        if self._in_cache is None:
            self._build_caches()
        return self._in_cache[c]

    def hom(self, a: int, b: int) -> tuple:
        if self._hom_cache is None:
            table = {}
            for m in range(self.n_morphisms):
                table.setdefault((self.dom[m], self.cod[m]), []).append(m)
            self._hom_cache = {k: tuple(v) for k, v in table.items()}
        return self._hom_cache.get((a, b), ())

    def composable_pairs(self):
        """All (g, f) with cod(f) == dom(g), sorted."""
        for g in range(self.n_morphisms):
            for f in self.morphisms_to(self.dom[g]):
                yield (g, f)

    def law_pairs(self):
        """Where functor laws are read: ``composable_pairs()``, or with
        ``generators`` each g in ``generating()`` with each f into dom g; on
        a valid category these give every pair (see ``validate_category``)."""
        if self.generators is None:
            return self.composable_pairs()
        return ((g, f) for g in self.generating() for f in self.morphisms_to(self.dom[g]))

    def with_composition_table(self, max_pairs: int = 2_000_000) -> "FinCategory":
        """Materialize the composition rule into an explicit table."""
        if self._table is not None:
            return self
        table = {}
        for g, f in self.composable_pairs():
            table[(g, f)] = self._rule(g, f)
            if len(table) > max_pairs:
                raise BudgetError(f"composition table exceeds {max_pairs} pairs")
        return FinCategory(self.n_objects, self.dom, self.cod, self.identity, table,
                           object_labels=self.object_labels,
                           morphism_labels=self.morphism_labels,
                           generators=self.generators)

    def object_label(self, c: int) -> str:
        return self.object_labels[c] if self.object_labels else str(c)

    def morphism_label(self, m: int) -> str:
        return self.morphism_labels[m] if self.morphism_labels else f"m{m}"

    def _shape(self):
        """Counts, identities, generating set (``None`` when not given),
        endpoints and names."""
        return (self.n_objects, self.identity, tuple(self.dom), tuple(self.cod),
                None if self.generators is None else self.generating(),
                list(map(self.object_label, range(self.n_objects))),
                list(map(self.morphism_label, range(self.n_morphisms))))

    def _structure(self):
        return sorted(self._table.items()) if self._table is not None \
            else [(p, self._rule(*p)) for p in self.composable_pairs()]

    def __eq__(self, other):
        if not isinstance(other, FinCategory):
            return NotImplemented
        return self is other or (self._shape() == other._shape()
                                 and self._structure() == other._structure())

    def __hash__(self):
        return hash((self.n_objects, self.n_morphisms, self.identity))

    def __repr__(self):
        return f"<FinCategory {self.n_objects} objects, {self.n_morphisms} morphisms>"


class Diagram:
    """A functor out of a finite category: one value per object, and one
    per morphism given as a sequence or as a rule ``m -> value``.

    ``value(m)`` checks a value with the subclass's ``_check(m, value)``
    on first read and caches it; a sequence is checked in full at
    construction.  ``_names`` says what messages call the two kinds of
    value.  Diagrams of one kind are equal when bases, targets and values are.
    """

    __slots__ = ("base", "objects", "_rule", "_cache")
    target = None   # a functor's target category; sets and groups need none

    def __init__(self, base: FinCategory, objects, values):
        self.base = base
        self.objects = tuple(objects)
        if len(self.objects) != base.n_objects:
            raise InputError(f"one {self._names[0]} per object required")
        self._cache, self._rule = {}, values
        if not callable(values):
            values = tuple(values)
            if len(values) != base.n_morphisms:
                raise InputError(f"one {self._names[1]} per morphism required")
            self._rule = values.__getitem__
            for m in range(len(values)):
                self.value(m)

    def value(self, m: int):
        v = self._cache.get(m)
        if v is None:
            v = self._cache[m] = self._check(m, self._rule(m))
        return v

    @property
    def values(self) -> tuple:
        """Every value, in morphism order."""
        return tuple(map(self.value, range(self.base.n_morphisms)))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.base == other.base and self.objects == other.objects
                and self.values == other.values and self.target == other.target)

    def __hash__(self):
        return hash((self.base, self.objects))


class FinFunctor(Diagram):
    """Functor between finite categories: an object of ``target`` per
    object of ``source``, and a morphism index of ``target`` per morphism,
    read by ``value(m)``."""

    __slots__ = ("target",)
    _names = ("object image", "morphism image")
    source, on_objects, on_morphisms = Diagram.base, Diagram.objects, Diagram.values

    def __init__(self, source: FinCategory, target: FinCategory, on_objects, on_morphisms):
        self.target = target
        on_objects = tuple(int(x) for x in on_objects)
        for x, o in enumerate(on_objects):
            if not 0 <= o < target.n_objects:
                raise InputError(f"on_objects[{x}] = {o} out of range")
        super().__init__(source, on_objects, on_morphisms)

    def _check(self, m: int, o) -> int:
        o = int(o)
        if not 0 <= o < self.target.n_morphisms:
            raise InputError(f"on_morphisms[{m}] = {o} out of range")
        return o

    def __repr__(self):
        return f"<FinFunctor {self.source.n_objects}->{self.target.n_objects} objects>"


class Cone(NamedTuple):
    """Vertex plus one projection per object: tables for sets, homs for groups."""

    vertex: object
    components: tuple


class Cocone(NamedTuple):
    """Vertex plus one insertion per object: tables for sets, homs for groups."""

    vertex: object
    components: tuple


def identity_functor(c: FinCategory) -> FinFunctor:
    return FinFunctor(c, c, range(c.n_objects), lambda m: m)


def restrict_along(f: FinFunctor, d: Diagram) -> Diagram:
    """Precompose a diagram of any kind with a functor into its base: a
    diagram of the same kind on ``f.source``, reading ``f`` and ``d`` only
    at the morphisms read.  Along a functor g it is the composite g∘f."""
    if d.base is not f.target and d.base != f.target:
        raise InputError("diagram is not defined on the functor's target")
    r = copy(d)     # same kind, sharing what else it holds, such as a target
    r.base, r.objects = f.source, tuple(d.objects[o] for o in f.objects)
    r._rule, r._cache = (lambda m: d.value(f.value(m))), {}
    return r


class ZigZag(NamedTuple):
    """Alternating chain of morphisms connecting two objects.

    ``steps`` lists (morphism, forward) pairs; directions strictly
    alternate forward, backward, ...  Length n means 2n steps; n == 0 is
    the equality witness between equal objects.
    """

    source: int
    target: int
    steps: tuple

    @property
    def length(self) -> int:
        return len(self.steps) // 2

    def check(self, cat: FinCategory) -> bool:
        if len(self.steps) % 2:
            return False
        position = self.source
        expected = True
        for m, forward in self.steps:
            if forward != expected:
                return False
            if forward:
                if cat.dom[m] != position:
                    return False
                position = cat.cod[m]
            else:
                if cat.cod[m] != position:
                    return False
                position = cat.dom[m]
            expected = not expected
        return position == self.target


# ---------------------------------------------------------------------------
# construction


def _arrows_category(n: int, arrows, object_labels=None, morphism_labels=None) -> FinCategory:
    """The free category on n objects and ``arrows``, (dom, cod) pairs no
    two of which compose: identities 0..n-1, then one morphism per arrow,
    and g∘f is whichever of g and f is not an identity."""
    dom = [*range(n), *(a for a, _ in arrows)]
    cod = [*range(n), *(b for _, b in arrows)]
    return FinCategory(n, dom, cod, range(n), compose_rule=lambda g, f: f if g < n else g,
                       object_labels=object_labels, morphism_labels=morphism_labels)


def discrete_category(n: int, labels=None) -> FinCategory:
    """n objects with identity morphisms only."""
    return _arrows_category(n, (), labels, [f"id_{i}" for i in range(n)])


def poset_category(n: int, relation, labels=None) -> FinCategory:
    """Category of a partial order on 0..n-1.

    ``relation`` is an iterable of (a, b) pairs meaning a <= b; reflexive
    pairs are added automatically, transitivity is required and checked.
    """
    leq = {(i, i) for i in range(n)} | {(int(a), int(b)) for a, b in relation}
    for a, b in list(leq):
        if not (0 <= a < n and 0 <= b < n):
            raise InputError(f"poset pair ({a}, {b}) out of range")
    for a, b in leq:
        for c in range(n):
            if (b, c) in leq and (a, c) not in leq:
                raise InputError(f"poset relation not transitive: ({a},{b}),({b},{c})")
        if a != b and (b, a) in leq:
            raise InputError(f"poset relation not antisymmetric at ({a}, {b})")
    pairs = sorted(leq)
    index = {p: i for i, p in enumerate(pairs)}
    dom = [a for a, _ in pairs]
    cod = [b for _, b in pairs]
    ident = [index[(i, i)] for i in range(n)]
    mlabels = [f"{a}<={b}" for a, b in pairs]
    return FinCategory(n, dom, cod, ident, compose_rule=lambda g, f: index[(dom[f], cod[g])],
                       object_labels=labels, morphism_labels=mlabels)


def chain_category(n: int) -> FinCategory:
    """The linear order 0 <= 1 <= ... <= n-1."""
    return poset_category(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def diamond_category() -> FinCategory:
    """The poset bottom <= a, b <= top; a finite join-semilattice."""
    return poset_category(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)],
                          labels=["bot", "a", "b", "top"])


def parallel_pair_category() -> FinCategory:
    """Two objects with two parallel arrows between them (equalizer shape)."""
    return _arrows_category(2, [(0, 1), (0, 1)], None, ["id0", "id1", "f", "g"])


def span_category() -> FinCategory:
    """Three objects 0 <- s -> 1 with apex s (pushout shape)."""
    return _arrows_category(3, [(0, 1), (0, 2)], ["apex", "left", "right"],
                            ["id_apex", "id_left", "id_right", "l", "r"])


def cospan_category() -> FinCategory:
    """Three objects 0 -> 2 <- 1 (pullback shape)."""
    return _arrows_category(3, [(0, 2), (1, 2)], None, ["id0", "id1", "id2", "l", "r"])


def group_as_category(table, labels=None) -> FinCategory:
    """One-object category whose endomorphisms multiply by the group table.

    Raises InputError unless the table is square with entries below its
    size, has a two-sided identity, is associative and inverts every element.
    """
    table = tuple(tuple(int(x) for x in row) for row in table)
    n = len(table)
    if any(len(row) != n or not all(0 <= x < n for x in row) for row in table):
        raise InputError(f"group table not closed: expected {n} rows of {n} entries below {n}")
    unit = next((e for e in range(n)
                 if all(table[e][x] == x == table[x][e] for x in range(n))), None)
    if unit is None:
        raise InputError("group table has no two-sided identity")
    cat = FinCategory(1, [0] * n, [0] * n, [unit], compose_rule=lambda g, f: table[g][f],
                      object_labels=["*"], morphism_labels=labels)
    validate_category(cat).require("group table is not associative")
    if not is_groupoid(cat):
        raise InputError("group table has an element with no inverse")
    return cat


class ProductCategory(FinCategory):
    """Product of two finite categories, with pair index helpers."""

    __slots__ = ("left", "right")

    def __init__(self, left: FinCategory, right: FinCategory, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.left = left
        self.right = right

    def pair_object(self, a: int, b: int) -> int:
        return a * self.right.n_objects + b

    def pair_morphism(self, p: int, q: int) -> int:
        return p * self.right.n_morphisms + q

def product_category(c: FinCategory, d: FinCategory) -> ProductCategory:
    """Componentwise product, composed through its factors; objects and
    morphisms are index pairs."""
    no, nm = d.n_objects, d.n_morphisms
    dom = [c.dom[p] * no + d.dom[q] for p in range(c.n_morphisms) for q in range(nm)]
    cod = [c.cod[p] * no + d.cod[q] for p in range(c.n_morphisms) for q in range(nm)]
    ident = [c.identity[a] * nm + d.identity[b]
             for a in range(c.n_objects) for b in range(no)]
    olabels = [f"({c.object_label(a)},{d.object_label(b)})"
               for a in range(c.n_objects) for b in range(no)]

    def compose(g, f):
        (g1, g2), (f1, f2) = divmod(g, nm), divmod(f, nm)
        return c.compose(g1, f1) * nm + d.compose(g2, f2)
    return ProductCategory(c, d, c.n_objects * no, dom, cod, ident, compose_rule=compose,
                           object_labels=olabels)


def comma_category(c: int, f: FinFunctor) -> FinCategory:
    """The slice category c / F for an object c of F's target; its objects
    are the pairs (x, c -> F(x)), labelled ``x|arrow``."""
    target = f.target
    source = f.source
    if not 0 <= c < target.n_objects:
        raise InputError(f"object {c} out of range")
    objs = []
    for x in range(source.n_objects):
        for arrow in target.hom(c, f.on_objects[x]):
            objs.append((x, arrow))
    obj_index = {ob: i for i, ob in enumerate(objs)}
    mors = []
    for si, (x, arrow) in enumerate(objs):
        for k in source.morphisms_from(x):
            y = source.cod[k]
            img = target.compose(f.value(k), arrow)
            ti = obj_index.get((y, img))
            if ti is not None:
                mors.append((si, ti, k))
    mors.sort()
    mor_index = {m: i for i, m in enumerate(mors)}
    dom = [m[0] for m in mors]
    cod = [m[1] for m in mors]
    ident = [mor_index[(i, i, source.identity[x])] for i, (x, _) in enumerate(objs)]

    def compose(g, h):
        return mor_index[(mors[h][0], mors[g][1], source.compose(mors[g][2], mors[h][2]))]
    olabels = [f"{source.object_label(x)}|{target.morphism_label(a)}" for x, a in objs]
    return FinCategory(len(objs), dom, cod, ident, compose_rule=compose, object_labels=olabels)


def full_subcategory(cat: FinCategory, objects) -> tuple[FinCategory, FinFunctor]:
    """Full subcategory on the given objects plus its inclusion functor."""
    objects = [int(x) for x in objects]
    for i, o in enumerate(objects):
        if not 0 <= o < cat.n_objects:
            raise InputError(f"object {o} out of range")
        if o in objects[:i]:
            raise InputError(f"object {o} repeated")
    oset = set(objects)
    obj_index = {o: i for i, o in enumerate(objects)}
    keep = [m for m in range(cat.n_morphisms)
            if cat.dom[m] in oset and cat.cod[m] in oset]
    mor_index = {m: i for i, m in enumerate(keep)}
    dom = [obj_index[cat.dom[m]] for m in keep]
    cod = [obj_index[cat.cod[m]] for m in keep]
    ident = [mor_index[cat.identity[o]] for o in objects]
    sub = FinCategory(len(objects), dom, cod, ident,
                      compose_rule=lambda g, f: mor_index[cat.compose(keep[g], keep[f])],
                      object_labels=[cat.object_label(o) for o in objects],
                      morphism_labels=[cat.morphism_label(m) for m in keep])
    incl = FinFunctor(sub, cat, objects, keep)
    return sub, incl


# ---------------------------------------------------------------------------
# validation


def validate_category(cat: FinCategory) -> ValidationReport:
    """Check all category laws; index range errors raise.

    The report lists every violation found: dom/cod mismatches of
    composites, identity failures, associativity failures, undefined or
    spurious table entries, and generator closure gaps.  Every composable
    pair is read once, and (h∘g)∘f = h∘(g∘f) is checked for every h, or
    for the generators h alone when there are ``generators``.  That
    suffices when identities are units and each morphism h is g∘h' for a
    generator g and an h' reached earlier from the identities: inductively
    (h∘a)∘b = (g∘(h'∘a))∘b = g∘((h'∘a)∘b) = g∘(h'∘(a∘b)) = h∘(a∘b).
    """
    n, m = cat.n_objects, cat.n_morphisms
    dom, cod = tuple(cat.dom), tuple(cat.cod)
    for i, x in enumerate(dom):
        if not 0 <= x < n:
            raise InputError(f"dom[{i}] = {x} out of range")
    for i, x in enumerate(cod):
        if not 0 <= x < n:
            raise InputError(f"cod[{i}] = {x} out of range")
    for c, x in enumerate(cat.identity):
        if not 0 <= x < m:
            raise InputError(f"identity[{c}] = {x} out of range")
    if cat.generators is not None:
        for g in cat.generators:
            if not 0 <= g < m:
                raise InputError(f"generator {g} out of range")

    problems = []
    for c in range(n):
        e = cat.identity[c]
        if dom[e] != c or cod[e] != c:
            problems.append(f"identity of object {c} has endpoints ({dom[e]},{cod[e]})")

    table = cat._table
    for g, f in sorted(table or ()):
        if not (0 <= f < m and 0 <= g < m):
            raise InputError(f"composition key ({g},{f}) out of range")
        if cod[f] != dom[g]:
            problems.append(f"composite defined for non-composable pair ({g},{f})")

    # every composable pair once; rows[f] maps g to g∘f
    composites, rows = {}, [{} for _ in range(m)]
    for f in range(m):
        for g in cat.morphisms_from(cod[f]):
            gf = cat._rule(g, f) if table is None else table.get((g, f))
            if gf is None:
                problems.append(f"composite ({g},{f}) undefined")
                continue
            if not 0 <= gf < m:
                raise InputError(f"composition value for ({g},{f}) out of range")
            if dom[gf] != dom[f] or cod[gf] != cod[g]:
                problems.append(f"composite ({g},{f}) has wrong endpoints")
            composites[(g, f)] = rows[f][g] = gf

    for f in range(m):
        left = rows[f].get(cat.identity[cod[f]])
        right = rows[cat.identity[dom[f]]].get(f)
        if left is not None and left != f:
            problems.append(f"left identity fails for morphism {f}")
        if right is not None and right != f:
            problems.append(f"right identity fails for morphism {f}")

    leads = cat.morphisms_from if cat.generators is None else cat.generating_from
    after = [[(h, rows[g][h]) for h in leads(cod[g]) if h in rows[g]] for g in range(m)]
    for f, row in enumerate(rows):
        for g, gf in row.items():
            for h, hg in after[g]:
                hg_f, h_gf = row.get(hg), rows[gf].get(h)
                if hg_f != h_gf and hg_f is not None and h_gf is not None:
                    problems.append(f"associativity fails on triple ({h},{g},{f})")

    if cat.generators is not None:
        reachable = generator_closure(cat, composites)
        for f in range(m):
            if f not in reachable:
                problems.append(f"morphism {f} is not a composite of generators")

    return ValidationReport(tuple(problems))


def left_tree(cat: FinCategory, generators_from, compose) -> dict:
    """The left-search tree: each morphism h reached from the identities by
    composing ``generators_from(x)`` maps on the left, mapped to a parent
    (g, p) with h = g∘p, g in ``generators_from(cod p)`` and p found before
    h, in breadth-first discovery order; identities map to None.
    ``compose(g, p)`` returns None for a missing composite, so a partial or
    faulty table is safe to search."""
    tree = dict.fromkeys(cat.identity)
    queue = list(tree)
    for p in queue:
        for g in generators_from(cat.cod[p]):
            h = compose(g, p)
            if h is not None and h not in tree:
                tree[h] = (g, p)
                queue.append(h)
    return tree


def generator_closure(cat: FinCategory, composites: dict) -> set:
    """The key set of the ``left_tree`` of ``generating()`` maps in
    ``composites``, a map from pairs (g, f) to g∘f that may miss some."""
    return set(left_tree(cat, cat.generating_from, lambda g, f: composites.get((g, f))))


def _extend_from_generators(cat: FinCategory, values: dict, generators, compose, equal):
    """Extend ``values`` from the identities and ``generators`` along their
    ``left_tree`` by F(g∘p) = compose(F(g), F(p)), in place; return the
    first (g, f), f in discovery order, with F(g∘f) not ``equal`` to
    compose(F(g), F(f)), or None, and the sorted morphisms not reached."""
    tree = left_tree(cat, lambda x: [g for g in generators if cat.dom[g] == x], cat.compose)
    for h, parent in tree.items():
        if h not in values:
            values[h] = compose(values[parent[0]], values[parent[1]])
    broken = ((g, f) for g in generators for f in tree if cat.cod[f] == cat.dom[g]
              and not equal(values[cat.compose(g, f)], compose(values[g], values[f])))
    return next(broken, None), [m for m in range(cat.n_morphisms) if m not in tree]


def validate_functor(f: FinFunctor) -> ValidationReport:
    """Check a functor preserves endpoints, identities, and composites at
    ``law_pairs()`` of its source, which must be a valid category."""
    src, tgt = f.source, f.target
    problems = []
    for m in range(src.n_morphisms):
        fm = f.value(m)
        if tgt.dom[fm] != f.on_objects[src.dom[m]]:
            problems.append(f"functor breaks dom at morphism {m}")
        if tgt.cod[fm] != f.on_objects[src.cod[m]]:
            problems.append(f"functor breaks cod at morphism {m}")
    for c in range(src.n_objects):
        if f.value(src.identity[c]) != tgt.identity[f.on_objects[c]]:
            problems.append(f"functor breaks identity at object {c}")
    for (g, h) in src.law_pairs():
        lhs = f.value(src.compose(g, h))
        try:
            rhs = tgt.compose(f.value(g), f.value(h))
        except InputError:
            problems.append(f"functor images of ({g},{h}) are not composable")
            continue
        if lhs != rhs:
            problems.append(f"functor breaks composite ({g},{h})")
    return ValidationReport(tuple(problems))


# ---------------------------------------------------------------------------
# structural checks


class ConnectivityReport(NamedTuple):
    connected: bool
    components: tuple


def element_classes(cat: FinCategory, elements, push) -> tuple:
    """Components of a category of elements, by union-find.

    ``elements`` lists pairs (x, e), x an object of ``cat``; a generating
    morphism k: x -> y joins (x, e) to (y, push(k, e)), and is skipped
    when that pair is not listed.  For a functor the generating morphisms
    join what all morphisms join.  Classes are sorted tuples of indices
    into ``elements``, ordered by their smallest member.
    """
    index = {el: i for i, el in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    cod = cat.cod
    for i, (x, e) in enumerate(elements):
        ri = find(i)
        for k in cat.generating_from(x):
            j = index.get((cod[k], push(k, e)))
            if j is not None:
                rj = find(j)
                if rj < ri:
                    parent[ri] = rj
                    ri = rj
                elif rj > ri:
                    parent[rj] = ri
    # roots are least members, so one pass in index order resolves them
    classes = {}
    for i, p in enumerate(parent):
        parent[i] = parent[p]
        classes.setdefault(parent[i], []).append(i)
    return tuple(map(tuple, classes.values()))


def is_connected(cat: FinCategory) -> ConnectivityReport:
    """Nonempty, and every pair of objects joined by a zig-zag."""
    comps = element_classes(cat, [(x, None) for x in range(cat.n_objects)],
                            lambda k, e: None)
    return ConnectivityReport(len(comps) == 1, comps)


def find_zigzag(cat: FinCategory, a: int, b: int) -> ZigZag | None:
    """Shortest zig-zag from a to b; ties broken by smallest morphism index.

    Returns None when a and b sit in different components.  The result is
    padded with identities so that directions strictly alternate.
    """
    if not (0 <= a < cat.n_objects and 0 <= b < cat.n_objects):
        raise InputError("object index out of range")
    parent = {a: None}
    queue = [a]
    while queue and b not in parent:
        u = queue.pop(0)
        edges = [(m, True, cat.cod[m]) for m in cat.morphisms_from(u)]
        edges += [(m, False, cat.dom[m]) for m in cat.morphisms_to(u)]
        edges.sort(key=lambda e: (e[0], not e[1]))
        for m, forward, v in edges:
            if v not in parent:
                parent[v] = (u, m, forward)
                queue.append(v)
    if b not in parent:
        return None
    path = []
    node = b
    while parent[node] is not None:
        u, m, forward = parent[node]
        path.append((m, forward))
        node = u
    path.reverse()

    steps = []
    position = a
    expect = True
    for m, forward in path:
        if forward != expect:
            steps.append((cat.identity[position], expect))
            expect = not expect
        steps.append((m, forward))
        position = cat.cod[m] if forward else cat.dom[m]
        expect = not expect
    if len(steps) % 2:
        steps.append((cat.identity[position], False))
    return ZigZag(a, b, tuple(steps))


class FinalityReport(NamedTuple):
    final: bool
    failing: tuple
    slice_components: tuple


def is_final(f: FinFunctor) -> FinalityReport:
    """True iff every slice c / F is connected, for c in the target.

    Each slice's objects (x, c -> F x) are glued by ``element_classes``
    along the source's generating morphisms; no comma category is built.
    When ``f`` is a functor, ``slice_components`` equals
    ``is_connected(comma_category(c, f)).components`` for each c.
    """
    source, target = f.source, f.target
    failing = []
    slice_components = []
    for c in range(target.n_objects):
        arrows = [(x, a) for x in range(source.n_objects)
                  for a in target.hom(c, f.on_objects[x])]
        comps = element_classes(
            source, arrows, lambda k, a: target.compose(f.value(k), a))
        slice_components.append(comps)
        if len(comps) != 1:
            failing.append(c)
    return FinalityReport(not failing, tuple(failing), tuple(slice_components))


class FilteredReport(NamedTuple):
    filtered: bool
    reason: str | None
    failing: tuple | None
    upper_bounds: dict
    coequalizers: dict


def is_filtered(cat: FinCategory) -> FilteredReport:
    """Nonempty, every pair bounded above, every parallel pair coequalized.

    Witnesses are recorded for every instance; on failure the first
    failing instance is reported.
    """
    if cat.n_objects == 0:
        return FilteredReport(False, "category is empty", None, {}, {})
    bounds = {}
    for a in range(cat.n_objects):
        for b in range(a, cat.n_objects):
            found = None
            for d in range(cat.n_objects):
                fs = cat.hom(a, d)
                gs = cat.hom(b, d)
                if fs and gs:
                    found = (d, fs[0], gs[0])
                    break
            if found is None:
                return FilteredReport(False, "no upper bound", (a, b), bounds, {})
            bounds[(a, b)] = found
    coeqs = {}
    for f in range(cat.n_morphisms):
        for g in range(f + 1, cat.n_morphisms):
            if cat.dom[f] != cat.dom[g] or cat.cod[f] != cat.cod[g]:
                continue
            found = None
            for h in cat.morphisms_from(cat.cod[f]):
                if cat.compose(h, f) == cat.compose(h, g):
                    found = h
                    break
            if found is None:
                return FilteredReport(False, "no coequalizing arrow", (f, g), bounds, coeqs)
            coeqs[(f, g)] = found
    return FilteredReport(True, None, None, bounds, coeqs)


def is_groupoid(cat: FinCategory) -> bool:
    """Every morphism m has some g: cod m -> dom m with g∘m and m∘g identities."""
    return all(any(cat.compose(g, m) == cat.identity[cat.dom[m]]
                   and cat.compose(m, g) == cat.identity[cat.cod[m]]
                   for g in cat.hom(cat.cod[m], cat.dom[m]))
               for m in range(cat.n_morphisms))


class SiftedReport(NamedTuple):
    sifted: bool
    reason: str | None
    failing_pairs: tuple


def is_sifted(cat: FinCategory) -> SiftedReport:
    """Nonempty with a final diagonal into the square of the category.

    The slice (a, b) / Δ has objects (x, (p, q)) with p: a -> x and
    q: b -> x, and k: x -> y sends (p, q) to (k∘p, k∘q).  No arrow joins
    two slices, so one ``element_classes`` call over the pairs of every
    slice, listed by x through ``morphisms_to(x)``, decides them all: the
    slice (a, b) is connected when exactly one class has dom p = a and
    dom q = b.  Each k∘p, for k generating out of x and p into x, is
    composed once.  No product, diagonal or comma category is built; when
    Δ is a functor the slices' components are ``comma_category``'s.
    ``failing_pairs`` lists the pairs (a, b) with a disconnected slice,
    in the order of ``product_category(cat, cat)``'s objects.
    """
    if cat.n_objects == 0:
        return SiftedReport(False, "category is empty", ())
    n, dom = cat.n_objects, cat.dom
    pairs = [(x, (p, q)) for x in range(n)
             for p in cat.morphisms_to(x) for q in cat.morphisms_to(x)]
    after = {k: {p: cat.compose(k, p) for p in cat.morphisms_to(x)}
             for x in range(n) for k in cat.generating_from(x)}
    count = [[0] * n for _ in range(n)]
    for c in element_classes(cat, pairs, lambda k, pq: (after[k][pq[0]], after[k][pq[1]])):
        _, (p, q) = pairs[c[0]]
        count[dom[p]][dom[q]] += 1
    failing = tuple((a, b) for a in range(n) for b in range(n) if count[a][b] != 1)
    reason = "disconnected diagonal slice" if failing else None
    return SiftedReport(not failing, reason, failing)


class CoconeWitness(NamedTuple):
    vertex: int
    legs: tuple

    def check(self, diagram: FinFunctor) -> bool:
        tgt = diagram.target
        src = diagram.source
        for d, leg in enumerate(self.legs):
            if tgt.dom[leg] != diagram.on_objects[d] or tgt.cod[leg] != self.vertex:
                return False
        for m in range(src.n_morphisms):
            a, b = src.dom[m], src.cod[m]
            if tgt.compose(self.legs[b], diagram.value(m)) != self.legs[a]:
                return False
        return True


def cone_search(diagram: FinFunctor, *, require_filtered: bool = False) -> CoconeWitness | None:
    """Exhaustive search for a cocone under a finite diagram.

    ``diagram`` must be a functor: legs are tested only at the source's
    ``generating()`` morphisms.  Vertices are tried in ascending order and
    legs in lexicographic order, so the witness is deterministic.  With
    ``require_filtered`` the target is checked first and a
    PreconditionError raised if it is not filtered.
    """
    target = diagram.target
    source = diagram.source
    if require_filtered:
        rep = is_filtered(target)
        if not rep.filtered:
            raise PreconditionError(f"target category is not filtered: {rep.reason}")
    glued = source.generating()
    for v in range(target.n_objects):
        candidate_legs = [target.hom(diagram.on_objects[d], v)
                          for d in range(source.n_objects)]
        if any(not legs for legs in candidate_legs):
            continue
        for legs in iproduct(*candidate_legs):
            ok = True
            for m in glued:
                a, b = source.dom[m], source.cod[m]
                if target.compose(legs[b], diagram.value(m)) != legs[a]:
                    ok = False
                    break
            if ok:
                return CoconeWitness(v, tuple(legs))
    return None
