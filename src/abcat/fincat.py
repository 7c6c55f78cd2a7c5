"""Finite categories as explicit data, with decidable structural checks.

A category here is fully enumerated: objects and morphisms are canonical
index ranges, and every law can be checked by exhaustive enumeration.
Composition is a table only where a table is the input (documents and
the hand-drawn shapes); every category the library builds composes by
rule, through the data it was built from.  On top of that sit the
decidable notions this package revolves around: connectedness by
zig-zags, finality of a functor, filteredness, siftedness, and
exhaustive cocone search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import BudgetError, InputError, PreconditionError


@dataclass(frozen=True)
class ValidationReport:
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
    the index of g∘f; it is for input.  Built categories supply
    ``compose_rule`` instead, and may then give ``dom`` and ``cod`` as
    read-only sequences that compute their entries on demand.  Equality
    compares composites however they are stored.  Optional
    ``generators`` must reach every morphism from the identities by
    composing on the left; group colimits glue along them alone.
    Values are immutable after construction.
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

    def _structure(self):
        """Shape, composites, names and generators, however they are stored."""
        comp = sorted(self._table.items()) if self._table is not None \
            else [(p, self._rule(*p)) for p in self.composable_pairs()]
        return (self.n_objects, self.dom, self.cod, self.identity, comp,
                [self.object_label(c) for c in range(self.n_objects)],
                [self.morphism_label(m) for m in range(self.n_morphisms)], self.generators)

    def __eq__(self, other):
        if not isinstance(other, FinCategory):
            return NotImplemented
        if self is other:
            return True
        # lazily listed categories (word truncations) have no structural key yet
        if not isinstance(self.dom, tuple) or not isinstance(other.dom, tuple):
            return False
        return self._structure() == other._structure()

    def __hash__(self):
        return hash((self.n_objects, self.dom, self.cod, self.identity))

    def __repr__(self):
        return f"<FinCategory {self.n_objects} objects, {self.n_morphisms} morphisms>"


class FinFunctor:
    """Functor between finite categories, as object and morphism tables."""

    __slots__ = ("source", "target", "on_objects", "on_morphisms")

    def __init__(self, source: FinCategory, target: FinCategory, on_objects, on_morphisms):
        self.source = source
        self.target = target
        self.on_objects = tuple(int(x) for x in on_objects)
        self.on_morphisms = tuple(int(x) for x in on_morphisms)
        if len(self.on_objects) != source.n_objects:
            raise InputError("functor object table length mismatch")
        if len(self.on_morphisms) != source.n_morphisms:
            raise InputError("functor morphism table length mismatch")

    def __eq__(self, other):
        if not isinstance(other, FinFunctor):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.on_objects == other.on_objects
                and self.on_morphisms == other.on_morphisms)

    def __hash__(self):
        return hash((self.on_objects, self.on_morphisms))

    def __repr__(self):
        return f"<FinFunctor {self.source.n_objects}->{self.target.n_objects} objects>"


def identity_functor(c: FinCategory) -> FinFunctor:
    return FinFunctor(c, c, range(c.n_objects), range(c.n_morphisms))


@dataclass(frozen=True)
class ZigZag:
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


def discrete_category(n: int, labels=None) -> FinCategory:
    """n objects with identity morphisms only."""
    comp = {(i, i): i for i in range(n)}
    return FinCategory(n, range(n), range(n), range(n), comp,
                       object_labels=labels,
                       morphism_labels=[f"id_{i}" for i in range(n)])


def terminal_category() -> FinCategory:
    return discrete_category(1)


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
    dom = [0, 1, 0, 0]
    cod = [0, 1, 1, 1]
    comp = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2, (3, 0): 3, (1, 3): 3}
    return FinCategory(2, dom, cod, [0, 1], comp,
                       morphism_labels=["id0", "id1", "f", "g"])


def span_category() -> FinCategory:
    """Three objects 0 <- s -> 1 with apex s (pushout shape)."""
    dom = [0, 1, 2, 0, 0]
    cod = [0, 1, 2, 1, 2]
    comp = {(0, 0): 0, (1, 1): 1, (2, 2): 2,
            (3, 0): 3, (1, 3): 3, (4, 0): 4, (2, 4): 4}
    return FinCategory(3, dom, cod, [0, 1, 2], comp,
                       object_labels=["apex", "left", "right"],
                       morphism_labels=["id_apex", "id_left", "id_right", "l", "r"])


def cospan_category() -> FinCategory:
    """Three objects 0 -> 2 <- 1 (pullback shape)."""
    dom = [0, 1, 2, 0, 1]
    cod = [0, 1, 2, 2, 2]
    comp = {(0, 0): 0, (1, 1): 1, (2, 2): 2,
            (3, 0): 3, (2, 3): 3, (4, 1): 4, (2, 4): 4}
    return FinCategory(3, dom, cod, [0, 1, 2], comp,
                       morphism_labels=["id0", "id1", "id2", "l", "r"])


def validate_group_table(table) -> tuple:
    """Check a multiplication table is a group; return (table, identity index).

    Raises InputError naming the first failed axiom.
    """
    table = tuple(tuple(int(x) for x in row) for row in table)
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise InputError(f"group table row {i} has {len(row)} entries, expected {n}")
        for j, x in enumerate(row):
            if not 0 <= x < n:
                raise InputError(f"group table not closed: entry ({i},{j}) = {x}")
    if n == 0:
        raise InputError("group table is empty")
    unit = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            unit = e
            break
    if unit is None:
        raise InputError("group table has no two-sided identity")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise InputError(f"group table not associative at ({i},{j},{k})")
    for x in range(n):
        if not any(table[x][y] == unit and table[y][x] == unit for y in range(n)):
            raise InputError(f"group table element {x} has no inverse")
    return table, unit


def group_as_category(table, labels=None) -> FinCategory:
    """One-object category whose endomorphisms multiply by the group table."""
    table, unit = validate_group_table(table)
    n = len(table)
    return FinCategory(1, [0] * n, [0] * n, [unit], compose_rule=lambda g, f: table[g][f],
                       object_labels=["*"], morphism_labels=labels)


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


def diagonal_functor(c: FinCategory) -> tuple[FinFunctor, ProductCategory]:
    """The functor x -> (x, x) into the product of c with itself."""
    p = product_category(c, c)
    on_obj = [p.pair_object(a, a) for a in range(c.n_objects)]
    on_mor = [p.pair_morphism(m, m) for m in range(c.n_morphisms)]
    return FinFunctor(c, p, on_obj, on_mor), p


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
            img = target.compose(f.on_morphisms[k], arrow)
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
    for (g, f), gf in sorted((table or {}).items()):
        if not (0 <= f < m and 0 <= g < m):
            raise InputError(f"composition key ({g},{f}) out of range")
        if cod[f] != dom[g]:
            problems.append(f"composite defined for non-composable pair ({g},{f})")
            continue
        if not 0 <= gf < m:
            raise InputError(f"composition value for ({g},{f}) out of range")
        if dom[gf] != dom[f] or cod[gf] != cod[g]:
            problems.append(f"composite ({g},{f}) has wrong endpoints")

    # every composable pair once; rows[f] maps g to g∘f
    composites, rows = {}, [{} for _ in range(m)]
    for f in range(m):
        for g in cat.morphisms_from(cod[f]):
            if table is None:
                gf = cat._rule(g, f)
                if not 0 <= gf < m:
                    raise InputError(f"composition value for ({g},{f}) out of range")
                if dom[gf] != dom[f] or cod[gf] != cod[g]:
                    problems.append(f"composite ({g},{f}) has wrong endpoints")
            elif (g, f) in table:
                gf = table[g, f]
            else:
                problems.append(f"composite ({g},{f}) undefined")
                continue
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


def generator_closure(cat: FinCategory, composites: dict) -> set:
    """Morphisms reached from the identities by composing ``generating()``
    maps on the left.

    ``composites`` maps pairs (g, f) to g∘f; missing pairs are skipped, so
    a partial or faulty table is safe to pass.
    """
    reached, frontier = set(cat.identity), list(cat.identity)
    while frontier:
        f = frontier.pop()
        for g in cat.generating_from(cat.cod[f]):
            gf = composites.get((g, f))
            if gf is not None and gf not in reached:
                reached.add(gf)
                frontier.append(gf)
    return reached


def validate_functor(f: FinFunctor) -> ValidationReport:
    """Check a functor preserves endpoints, identities, and composites."""
    src, tgt = f.source, f.target
    for x, o in enumerate(f.on_objects):
        if not 0 <= o < tgt.n_objects:
            raise InputError(f"on_objects[{x}] = {o} out of range")
    for x, o in enumerate(f.on_morphisms):
        if not 0 <= o < tgt.n_morphisms:
            raise InputError(f"on_morphisms[{x}] = {o} out of range")
    problems = []
    for m in range(src.n_morphisms):
        fm = f.on_morphisms[m]
        if tgt.dom[fm] != f.on_objects[src.dom[m]]:
            problems.append(f"functor breaks dom at morphism {m}")
        if tgt.cod[fm] != f.on_objects[src.cod[m]]:
            problems.append(f"functor breaks cod at morphism {m}")
    for c in range(src.n_objects):
        if f.on_morphisms[src.identity[c]] != tgt.identity[f.on_objects[c]]:
            problems.append(f"functor breaks identity at object {c}")
    for (g, h) in src.composable_pairs():
        lhs = f.on_morphisms[src.compose(g, h)]
        try:
            rhs = tgt.compose(f.on_morphisms[g], f.on_morphisms[h])
        except InputError:
            problems.append(f"functor images of ({g},{h}) are not composable")
            continue
        if lhs != rhs:
            problems.append(f"functor breaks composite ({g},{h})")
    return ValidationReport(tuple(problems))


# ---------------------------------------------------------------------------
# structural checks


@dataclass(frozen=True)
class ConnectivityReport:
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


@dataclass(frozen=True)
class FinalityReport:
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
            source, arrows, lambda k, a: target.compose(f.on_morphisms[k], a))
        slice_components.append(comps)
        if len(comps) != 1:
            failing.append(c)
    return FinalityReport(not failing, tuple(failing), tuple(slice_components))


@dataclass(frozen=True)
class FilteredReport:
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


@dataclass(frozen=True)
class SiftedReport:
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
    in the order of ``diagonal_functor``'s product objects.
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


@dataclass(frozen=True)
class CoconeWitness:
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
            if tgt.compose(self.legs[b], diagram.on_morphisms[m]) != self.legs[a]:
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
                if target.compose(legs[b], diagram.on_morphisms[m]) != legs[a]:
                    ok = False
                    break
            if ok:
                return CoconeWitness(v, tuple(legs))
    return None
