"""The category of finite words over a set, and the coproduct expansion.

Objects of HX are pairs (n, word) with word a length-n tuple over a fixed
finite set X; a morphism (n, x) -> (m, y) is an index map f with
x == y o f pointwise.  HX has coproducts (concatenation), every pair of
words is bounded above, and parallel index maps are coequalized by
quotienting the target positions, which is what makes colimits over HX
behave like filtered colimits.

The expansion functor turns a family of abelian groups A : X -> Ab into
a diagram on HX sending (n, x) to the direct sum of the A(x_i), with
morphisms routing summands along f and adding up over fibres.  Its
colimit recovers the coproduct of the family, and the comparison
machinery here produces the isomorphism explicitly.

The full HX is infinite, so instances are truncated at an arity cap.
All identifications needed for the coproduct are witnessed by arity <= 2
objects; cap stability is covered by the property suites.  A truncation
holds its words and hom-set sizes and ranks index maps in closed form,
and an expansion values its routing homs only at the morphisms read, so
colimits cost per generator, not per index map.  Equal (alphabet, cap)
requests share one truncation; each request checks the morphism budget.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct
from math import prod

from .abdiag import AbDiagram, ab_colimit, AbColimit
from .abgrp import (AbHom, FGAbGroup, biproduct, describe_form, direct_sum, hom_compose,
                    hom_equal, identity_hom, summand_offsets)
from .errors import BudgetError, InputError, PreconditionError, TruncationError
from .fincat import FinCategory, FinFunctor, discrete_category
from .intmat import IntMatrix, hstack
from .setdiag import FinSet


@dataclass(frozen=True)
class HXObject:
    """A finite word (n, x) over the index set."""

    arity: int
    word: tuple

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(int(v) for v in self.word))
        if len(self.word) != self.arity:
            raise InputError("word length does not match arity")


@dataclass(frozen=True)
class HXMorphism:
    """Index map f with source word equal to target word composed with f."""

    source: HXObject
    target: HXObject
    mapping: tuple

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(int(v) for v in self.mapping))
        if len(self.mapping) != self.source.arity:
            raise InputError("mapping length does not match source arity")
        for i, j in enumerate(self.mapping):
            if not 0 <= j < self.target.arity:
                raise InputError(f"mapping sends {i} outside the target word")
            if self.source.word[i] != self.target.word[j]:
                raise InputError(f"words disagree at position {i}")


class _Lazy(Sequence):
    """A read-only sequence of ``length`` items computed by ``item``."""

    __slots__ = ("_length", "_item")

    def __init__(self, length: int, item):
        self._length = length
        self._item = item

    def __len__(self):
        return self._length

    def __getitem__(self, m):
        if not 0 <= m < self._length:
            raise IndexError(f"morphism index {m} out of range")
        return self._item(m)

    def __iter__(self):
        return map(self._item, range(self._length))


class HXCategory:
    """Truncation of HX at a given arity cap, realized as a FinCategory.

    Objects are ordered by (arity, word) and held eagerly; morphisms are
    ordered by (source, target, mapping) and never enumerated.  The maps
    of one (source, target) pair form a contiguous block starting at the
    prefix offset ``_starts[source * len(objects) + target]``, and a map's
    place in its block is its mapping in mixed radix: digit i chooses one
    of the target positions carrying letter i of the source word, the
    last digit running fastest.  ``morphisms``, the category's ``dom``
    and ``cod``, its identities, generators and composition rule are all
    read off that ranking.
    """

    __slots__ = ("alphabet", "cap", "category", "objects", "morphisms",
                 "_object_index", "_spots", "_starts")

    def __init__(self, alphabet: FinSet, cap: int, objects, spots, starts):
        self.alphabet = alphabet
        self.cap = cap
        self.objects = tuple(objects)
        self._object_index = {o: i for i, o in enumerate(self.objects)}
        self._spots = spots
        self._starts = starts
        total, n = starts[-1], len(self.objects)
        self.morphisms = _Lazy(total, self._unrank)
        ident = [self._index(i, i, tuple(range(o.arity))) for i, o in enumerate(self.objects)]
        self.category = FinCategory(
            n, _Lazy(total, lambda m: (bisect_right(starts, m) - 1) // n),
            _Lazy(total, lambda m: (bisect_right(starts, m) - 1) % n), ident, None,
            compose_rule=self._compose, object_labels=map(self.word_label, self.objects),
            generators=_elementary_maps(self))

    def _unrank(self, m: int) -> tuple:
        p = bisect_right(self._starts, m) - 1
        si, ti = divmod(p, len(self.objects))
        spots = self._spots[ti]
        rest = m - self._starts[p]
        mapping = []
        for v in reversed(self.objects[si].word):
            rest, digit = divmod(rest, len(spots[v]))
            mapping.append(spots[v][digit])
        return si, ti, tuple(reversed(mapping))

    def _index(self, si: int, ti: int, mapping) -> int | None:
        """Index of ``mapping``, of the source's length, from object si to
        object ti, or None when it is not an index map between their words."""
        word, target, spots = self.objects[si].word, self.objects[ti].word, self._spots[ti]
        rank = 0
        for v, j in zip(word, mapping):
            if not 0 <= j < len(target) or target[j] != v:
                return None
            rank = rank * len(spots[v]) + spots[v].index(j)
        return self._starts[si * len(self.objects) + ti] + rank

    def _compose(self, g: int, f: int) -> int:
        s1, _, fmap = self._unrank(f)
        _, t2, gmap = self._unrank(g)
        return self._index(s1, t2, tuple(gmap[j] for j in fmap))

    def object_index(self, obj: HXObject) -> int:
        try:
            return self._object_index[obj]
        except KeyError:
            raise InputError(f"object {obj} is not in the truncation") from None

    def morphism_index(self, mor: HXMorphism) -> int:
        return self._index(self.object_index(mor.source), self.object_index(mor.target),
                           mor.mapping)

    def hom_indices(self, src: int, tgt: int) -> range:
        p = src * len(self.objects) + tgt
        return range(self._starts[p], self._starts[p + 1])

    def _maps(self, src: int, tgt: int):
        """(index, mapping) for each morphism src -> tgt, in index order."""
        spots = self._spots[tgt]
        return zip(self.hom_indices(src, tgt),
                   iproduct(*(spots.get(v, ()) for v in self.objects[src].word)))

    def word_label(self, obj: HXObject) -> str:
        return "(" + ",".join(self.alphabet.label(v) for v in obj.word) + ")"


MAX_TRUNCATIONS = 8     # a seeded suite asks for 6 at most: 1-3 letters x 2 caps
_truncations = OrderedDict()    # least recently requested first


def hx_category(alphabet: FinSet, cap: int, *, max_morphisms: int = 500_000) -> HXCategory:
    """All words of arity <= cap, with the index maps between them in
    closed form.

    Only the objects and the size of each hom-set are computed; the
    category's generators are the elementary index maps, so colimits over
    it glue along those alone.  Equal ``(alphabet, cap)``, labels included,
    share one truncation.  Raises BudgetError, on every request and before
    a build, when it holds more than ``max_morphisms`` index maps.
    """
    if cap < 1:
        raise InputError("cap must be at least 1")
    key = (alphabet, cap)
    h = _truncations.pop(key, None) or _build_truncation(alphabet, cap, max_morphisms)
    _truncations[key] = h
    if len(_truncations) > MAX_TRUNCATIONS:
        _truncations.popitem(last=False)
    _check_budget(len(h.morphisms), max_morphisms)
    return h


def _check_budget(morphisms: int, max_morphisms: int):
    if morphisms > max_morphisms:
        raise BudgetError(f"HX truncation holds {morphisms} morphisms, "
                          f"budget is {max_morphisms}")


def _build_truncation(alphabet: FinSet, cap: int, max_morphisms: int) -> HXCategory:
    objects = [HXObject(n, word) for n in range(cap + 1)
               for word in iproduct(range(alphabet.size), repeat=n)]
    # positions of each letter inside each word; a morphism out of a word
    # chooses, per position, one matching position of the target word
    spots = [{v: tuple(j for j, y in enumerate(o.word) if y == v) for v in o.word}
             for o in objects]
    starts = [0]
    for src in objects:
        for target in spots:
            starts.append(starts[-1] + prod(len(target.get(v, ())) for v in src.word))
    _check_budget(starts[-1], max_morphisms)
    return HXCategory(alphabet, cap, objects, spots, starts)


def _elementary_maps(h: HXCategory) -> list:
    """Sorted indices of the adjacent transpositions, the order-preserving
    insertions of one position and the order-preserving merges of two
    adjacent equal letters.

    They generate the truncation: an index map is a permutation (a product
    of adjacent transpositions) onto a word where it is monotone, then
    merges of the positions it identifies, then insertions of the positions
    it misses, and every word in between has arity at most that of the
    source or the target.
    """
    found = []
    for si, obj in enumerate(h.objects):
        n, word = obj.arity, obj.word
        ident = tuple(range(n))
        steps = []
        for k in range(n - 1):
            swapped = word[:k] + (word[k + 1], word[k]) + word[k + 2:]
            steps.append((swapped, ident[:k] + (k + 1, k) + ident[k + 2:]))
            if word[k] == word[k + 1]:
                steps.append((word[:k + 1] + word[k + 2:],
                              ident[:k + 1] + tuple(i - 1 for i in ident[k + 1:])))
        if n < h.cap:
            for k in range(n + 1):
                shifted = ident[:k] + tuple(i + 1 for i in ident[k:])
                for v in range(h.alphabet.size):
                    steps.append((word[:k] + (v,) + word[k:], shifted))
        for target, mapping in steps:
            found.append(h._index(si, h._object_index[HXObject(len(target), target)],
                                  mapping))
    return sorted(found)


def hx_coproduct(h: HXCategory, u: HXObject, v: HXObject):
    """Concatenation with its two injections; the coproduct inside HX.

    Raises TruncationError when the combined arity exceeds the cap.
    """
    if u.arity + v.arity > h.cap:
        raise TruncationError(
            f"coproduct arity {u.arity + v.arity} exceeds cap {h.cap}; rebuild "
            f"the truncation with a larger cap")
    target = HXObject(u.arity + v.arity, u.word + v.word)
    left = HXMorphism(u, target, tuple(range(u.arity)))
    right = HXMorphism(v, target, tuple(u.arity + i for i in range(v.arity)))
    return target, left, right


def h_embedding(h: HXCategory) -> FinFunctor:
    """The discrete index set embedded as the arity-one words."""
    src = discrete_category(h.alphabet.size,
                            labels=[h.alphabet.label(i) for i in range(h.alphabet.size)])
    on_obj = [h.object_index(HXObject(1, (x,))) for x in range(h.alphabet.size)]
    on_mor = [h.category.identity[o] for o in on_obj]
    return FinFunctor(src, h.category, on_obj, on_mor)


def harting_expand(family, h: HXCategory) -> AbDiagram:
    """Expansion of a family of groups into a diagram on the truncation.

    Object (n, x) carries the direct sum of the family at the letters of
    x; a morphism routes summand i into summand f(i) identically and the
    routing matrix adds up over the fibres of f.  The object groups are
    built eagerly, the routing homs only at the morphisms read.
    """
    family = list(family)
    if len(family) != h.alphabet.size:
        raise InputError("one group per letter required")
    groups = []
    offset_tables = []
    for obj in h.objects:
        parts = [family[v] for v in obj.word]
        groups.append(direct_sum(parts))
        offset_tables.append(summand_offsets(parts))

    def route(m):
        si, ti, mapping = h.morphisms[m]
        src_group, tgt_group = groups[si], groups[ti]
        mat = [[0] * src_group.gens for _ in range(tgt_group.gens)]
        for i, j in enumerate(mapping):
            part = family[h.objects[si].word[i]]
            for t in range(part.gens):
                mat[offset_tables[ti][j] + t][offset_tables[si][i] + t] = 1
        return AbHom(src_group, tgt_group,
                     IntMatrix._trusted(tuple(map(tuple, mat)), tgt_group.gens, src_group.gens))

    return AbDiagram(h.category, groups, route)


@dataclass(frozen=True)
class HartingComparison:
    """Explicit isomorphism between the expanded colimit and the coproduct."""

    ok: bool
    canonical_form: tuple
    forward: AbHom
    backward: AbHom
    direct_sum: FGAbGroup
    colimit: AbColimit
    failures: tuple

    def describe(self) -> str:
        return describe_form(self.canonical_form)


def harting_compare(family, h: HXCategory) -> HartingComparison:
    """Check that the expansion has the same colimit as the family.

    Builds the colimit of the expanded diagram and mutually inverse homs
    against the plain direct sum, verifying that ``forward`` carries each
    colimit leg to the sum's insertion (``backward`` is the legs at the
    one-letter words, so it matches them by construction).  Any failed
    check is listed by name.  The truncation must have cap at least 2,
    so that the identifications gluing two summands together are present.
    """
    if h.cap < 2:
        raise PreconditionError("colimit comparison needs an arity cap of at least 2")
    family = list(family)
    expanded = harting_expand(family, h)
    colim = ab_colimit(expanded)
    total, injections, _ = biproduct(family)
    sum_cocone = [AbHom(group, total,
                        hstack(*[injections[v].matrix for v in obj.word]) if obj.word
                        else IntMatrix.zeros(total.gens, 0))
                  for obj, group in zip(h.objects, expanded.groups)]
    forward = colim.factor(sum_cocone, check=False)

    arity_one = [h.object_index(HXObject(1, (x,))) for x in range(h.alphabet.size)]
    backward = AbHom(total, colim.carrier,
                     hstack(*[colim.cocone.components[i].matrix for i in arity_one])
                     if family else IntMatrix.zeros(colim.carrier.gens, 0))

    failures = []
    if not hom_equal(hom_compose(forward, backward), identity_hom(total)):
        failures.append("forward o backward is not the identity on the coproduct")
    if not hom_equal(hom_compose(backward, forward), identity_hom(colim.carrier)):
        failures.append("backward o forward is not the identity on the colimit")
    for oi in range(len(h.objects)):
        if not hom_equal(hom_compose(forward, colim.cocone.components[oi]),
                         sum_cocone[oi]):
            failures.append(f"forward breaks the cocone at object {oi}")
            break
    form_sum = total.canonical_form
    form_col = colim.carrier.canonical_form
    if form_sum != form_col:
        failures.append(f"canonical forms differ: {describe_form(form_sum)} vs "
                        f"{describe_form(form_col)}")
    return HartingComparison(not failures, form_sum, forward, backward, total,
                             colim, tuple(failures))


# ---------------------------------------------------------------------------
# bounded structural reports


@dataclass(frozen=True)
class BoundedReport:
    ok: bool
    checked: int
    failures: tuple
    witnesses: dict


def hx_sifted_bounded_report(h: HXCategory) -> BoundedReport:
    """Connectivity of diagonal slices, for pairs with combined arity <= cap.

    Every cospan out of such a pair factors through the concatenation
    cospan, which links the whole slice in zig-zags of length one; the
    check finds the mediating map of every cospan.
    """
    failures = []
    witnesses = {}
    checked = 0
    n = len(h.objects)
    reach = [{t for t in range(n) if h.hom_indices(s, t)} for s in range(n)]
    maps = cache(lambda s, t: tuple(h._maps(s, t)))
    for ui in range(n):
        u = h.objects[ui]
        for vi in range(n):
            v = h.objects[vi]
            if u.arity + v.arity > h.cap:
                continue
            checked += 1
            target, left, right = hx_coproduct(h, u, v)
            wi = h.object_index(target)
            witnesses[(ui, vi)] = (wi, left.mapping, right.mapping)
            for other in sorted(reach[ui] & reach[vi]):
                # the maps out of the concatenation come in the order of
                # the cospans they mediate: left positions first
                mediating = iter(maps(wi, other))
                for (p, pm), (q, qm) in iproduct(maps(ui, other), maps(vi, other)):
                    if next(mediating, (None, None))[1] != pm + qm:
                        failures.append((ui, vi, other, p, q))
    return BoundedReport(not failures, checked, tuple(failures), witnesses)


def hx_filtered_bounded_report(h: HXCategory) -> BoundedReport:
    """Filteredness within the truncation.

    Upper bounds via concatenation for pairs of combined arity <= cap;
    coequalizing arrows searched exhaustively for every parallel pair
    between objects of arity <= 2.
    """
    failures = []
    witnesses = {"bounds": {}, "coequalizers": {}}
    checked = 0
    n = len(h.objects)
    if n == 0:
        return BoundedReport(False, 0, (("empty",),), witnesses)
    for ui in range(n):
        u = h.objects[ui]
        for vi in range(ui, n):
            v = h.objects[vi]
            if u.arity + v.arity > h.cap:
                continue
            checked += 1
            target, left, right = hx_coproduct(h, u, v)
            wi = h.object_index(target)
            witnesses["bounds"][(ui, vi)] = (wi, h._index(ui, wi, left.mapping),
                                             h._index(vi, wi, right.mapping))
    small = [i for i, o in enumerate(h.objects) if o.arity <= 2]
    for ui in small:
        for vi in small:
            pairs = list(h._maps(ui, vi))
            for a in range(len(pairs)):
                for b in range(a + 1, len(pairs)):
                    checked += 1
                    (f, fm), (g, gm) = pairs[a], pairs[b]
                    found = None
                    for wi2 in range(n):
                        for hi, hm in h._maps(vi, wi2):
                            if all(hm[fm[i]] == hm[gm[i]] for i in range(len(fm))):
                                found = hi
                                break
                        if found is not None:
                            break
                    if found is None:
                        failures.append(("coequalizer", f, g))
                    else:
                        witnesses["coequalizers"][(f, g)] = found
    return BoundedReport(not failures, checked, tuple(failures), witnesses)
