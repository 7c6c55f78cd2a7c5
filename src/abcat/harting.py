"""The category of finite words over a set, and the coproduct expansion.

Objects of HX are pairs (n, word) with word a length-n tuple over a fixed
finite set X; a morphism (n, x) -> (m, y) is an index map f with
x == y o f pointwise.  HX is filtered, after Harting's construction of
the internal coproduct: concatenation is a coproduct, bounding every pair
of words, and a parallel pair into a word v is coequalized by the quotient
of v's positions under the classes it generates, one letter per class, a
word of arity <= |v|.  The bounded reports build both, not search them.

The expansion functor turns a family of abelian groups A : X -> Ab into
a diagram on HX sending (n, x) to the direct sum of the A(x_i), with
morphisms routing summands along f and adding up over fibres.  It is the
left Kan extension Lan_h A along the one-letter words h (``h_embedding``),
so its colimit is colim_X A, the coproduct of the family, on every
truncation, filtered or not; the comparison machinery here produces that
isomorphism of the Kan adjunction explicitly.

The full HX is infinite, so instances are truncated at an arity cap.
Every cap >= 1 holds the one-letter words, hence the whole comparison;
the property suites check that the canonical form does not move with
the cap.  A truncation holds its words, one block of indices per pair
of words that has maps, and ranks index maps in closed form.  It is
generated by the adjacent transpositions, the merge of the last two
positions and the appending of one letter, and an expansion values its
routing homs only at the morphisms read, so colimits cost per
generator, not per index map.

A word is isomorphic to each of its permutations, so the full subcategory
on the sorted words, one per finite sub-multiset of X, is a skeleton: its
inclusion is an equivalence, hence final and initial, and every colimit
and limit over a truncation is the one over its skeleton.  ``hx_skeleton``
builds it by the same closed form, generated inside each letter's block
of positions.  Truncations are FinCategories, and compare as any category
does, at once when (alphabet, cap, skeleton) agree; the last eight
requested are kept, and each build checks the morphism budget first.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Sequence
from functools import cache, lru_cache
from itertools import accumulate, chain, combinations_with_replacement, product as iproduct
from math import prod
from typing import NamedTuple

from .abdiag import AbDiagram, ab_colimit, AbColimit
from .abgrp import (AbHom, FGAbGroup, biproduct, describe_form, direct_sum, hom_compose,
                    hom_equal, identity_hom, summand_offsets)
from .errors import BudgetError, InputError, PreconditionError, TruncationError
from .fincat import FinCategory, FinFunctor, discrete_category
from .intmat import IntMatrix, hstack
from .setdiag import FinSet


class _HXObject(NamedTuple):
    arity: int
    word: tuple


class HXObject(_HXObject):
    """A finite word (n, x) over the index set."""

    __slots__ = ()
    # ``_replace`` builds through ``_make``; send it through the checks
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, arity: int, word):
        word = tuple(int(v) for v in word)
        if len(word) != arity:
            raise InputError("word length does not match arity")
        return super().__new__(cls, arity, word)


class _HXMorphism(NamedTuple):
    source: HXObject
    target: HXObject
    mapping: tuple


class HXMorphism(_HXMorphism):
    """Index map f with source word equal to target word composed with f."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, source: HXObject, target: HXObject, mapping):
        mapping = tuple(int(v) for v in mapping)
        if len(mapping) != source.arity:
            raise InputError("mapping length does not match source arity")
        for i, j in enumerate(mapping):
            if not 0 <= j < target.arity:
                raise InputError(f"mapping sends {i} outside the target word")
            if source.word[i] != target.word[j]:
                raise InputError(f"words disagree at position {i}")
        return super().__new__(cls, source, target, mapping)


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


class HXCategory(FinCategory):
    """Truncation of HX at a given arity cap, or its skeleton on the sorted
    words.  It compares as any category does, and equals a truncation of
    equal (alphabet, cap, skeleton) without reading a composite, so a
    rebuilt one equals the first at once.

    Objects are ordered by (arity, word) and held eagerly; morphisms are
    ordered by (source, target, mapping) and never enumerated.  The maps
    of a (source, target) pair form a block, a ``range`` of indices kept
    only for the pairs that have maps, and a map's place in its block is
    its mapping in mixed radix: digit i chooses one of the target
    positions carrying letter i of the source word, the last digit running
    fastest.  ``morphisms``, ``dom`` and ``cod`` bisect the block starts;
    they, ``hom``, identities, generators and composition are read off
    that ranking, and a pair without a block has an empty ``hom``.
    """

    __slots__ = ("alphabet", "cap", "skeleton", "objects", "morphisms",
                 "_object_index", "_spots", "_block_starts", "_block_pairs")

    def __init__(self, alphabet: FinSet, cap: int, objects, spots, blocks, skeleton: bool):
        self.alphabet, self.cap, self.skeleton = alphabet, cap, skeleton
        self.objects = tuple(objects)
        self._object_index = {o: i for i, o in enumerate(self.objects)}
        self._spots, self._hom_cache = spots, blocks    # ``_index`` reads the blocks
        self._block_pairs = pairs = list(blocks)
        self._block_starts = starts = [r.start for r in blocks.values()]
        total = next(reversed(blocks.values())).stop
        self.morphisms = _Lazy(total, self._unrank)
        ident = [self._index(i, i, tuple(range(o.arity))) for i, o in enumerate(self.objects)]
        super().__init__(
            len(self.objects), _Lazy(total, lambda m: pairs[bisect_right(starts, m) - 1][0]),
            _Lazy(total, lambda m: pairs[bisect_right(starts, m) - 1][1]), ident,
            compose_rule=self._compose, object_labels=map(self.word_label, self.objects),
            generators=_generators(self, _block_steps if skeleton else _elementary_steps))
        self._hom_cache = blocks    # ``super`` cleared it; ``FinCategory.hom`` reads it

    def __eq__(self, other):
        return isinstance(other, HXCategory) and (self.alphabet, self.cap, self.skeleton) \
            == (other.alphabet, other.cap, other.skeleton) or super().__eq__(other)

    __hash__ = FinCategory.__hash__     # an ``__eq__`` of its own would unset it

    def _unrank(self, m: int) -> tuple:
        p = bisect_right(self._block_starts, m) - 1
        si, ti = self._block_pairs[p]
        spots = self._spots[ti]
        rest = m - self._block_starts[p]
        mapping = []
        for v in reversed(self.objects[si].word):
            rest, digit = divmod(rest, len(spots[v]))
            mapping.append(spots[v][digit])
        return si, ti, tuple(reversed(mapping))

    def _index(self, si: int, ti: int, mapping) -> int:
        """Index of the index map ``mapping`` from object si to object ti."""
        spots, rank = self._spots[ti], 0
        for v, j in zip(self.objects[si].word, mapping):
            rank = rank * len(spots[v]) + spots[v].index(j)
        return self._hom_cache[si, ti].start + rank

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

    def _maps(self, src: int, tgt: int):
        """(index, mapping) for each morphism src -> tgt, in index order."""
        spots = self._spots[tgt]
        return zip(self.hom(src, tgt),
                   iproduct(*(spots.get(v, ()) for v in self.objects[src].word)))

    def word_label(self, obj: HXObject) -> str:
        return "(" + ",".join(self.alphabet.label(v) for v in obj.word) + ")"


def hx_category(alphabet: FinSet, cap: int, *, max_morphisms: int = 500_000) -> HXCategory:
    """All words of arity <= cap, with the index maps between them in
    closed form.

    Only the objects and the size of each hom-set are computed; the
    category's generators are the adjacent transpositions, the last-pair
    merges and the appends of one letter, so colimits over it glue along
    those alone.  Equal ``(alphabet, cap)``, labels included, give equal
    truncations, shared per budget.  Raises BudgetError, before a build,
    when it holds more than ``max_morphisms`` index maps.

    Its skeleton, ``hx_skeleton``, keeps the sorted words, one per letter
    content, generated inside each letter's block of positions.  A word is
    isomorphic to its sorted permutation, so the inclusion is an
    equivalence and colimits and limits over the two agree; this category
    is the skeleton's oracle.
    """
    return _truncation(alphabet, cap, max_morphisms, False)


def hx_skeleton(alphabet: FinSet, cap: int, *, max_morphisms: int = 500_000) -> HXCategory:
    """The full subcategory of ``hx_category(alphabet, cap)`` on its sorted
    words, one per finite sub-multiset of the alphabet.

    Colimits and limits over the truncation are computed here.  Generated,
    inside each letter's block of positions, by the adjacent
    transpositions, the merge of the block's last two positions and the
    insertion of the letter at the block's end.  Shared and budgeted like
    ``hx_category``, counting the skeleton's morphisms.
    """
    return _truncation(alphabet, cap, max_morphisms, True)


@lru_cache(maxsize=8)    # a seeded suite asks for 6 at most: 1-3 letters x 2 caps
def _truncation(alphabet: FinSet, cap: int, max_morphisms: int, skeleton: bool) -> HXCategory:
    if cap < 1:
        raise InputError("cap must be at least 1")
    return _build_truncation(alphabet, cap, max_morphisms, skeleton)


def _build_truncation(alphabet: FinSet, cap: int, max_morphisms: int,
                      skeleton: bool) -> HXCategory:
    letters, sizes = range(alphabet.size), range(cap + 1)
    # a word of content s has prod_v t_v ** s_v maps into a word of content
    # t, none unless t holds every letter of s, and a word of length m has
    # n ** m into each of the L ** n of length n: count before listing words,
    # the skeleton's pairs of contents by their sizes, one letter at a time
    if skeleton:
        by_sizes = [[int(a == b == 0) for b in sizes] for a in sizes]
        for _ in letters:
            by_sizes = [[sum(by_sizes[a - i][b - j] * j ** i for i in range(a + 1)
                             for j in range(b + 1)) for b in sizes] for a in sizes]
        morphisms = sum(map(sum, by_sizes))
    else:
        morphisms = sum(alphabet.size ** n * n ** m for n in sizes for m in sizes)
    if morphisms > max_morphisms:
        raise BudgetError(f"HX truncation holds {morphisms} morphisms, "
                          f"budget is {max_morphisms}")
    contents = [c for n in sizes for c in combinations_with_replacement(letters, n)]
    tallies = [Counter(c) for c in contents]
    holding = [{t for t, tally in enumerate(tallies) if v in tally} for v in letters]
    everywhere = set(range(len(contents)))
    words = contents if skeleton else [w for n in sizes for w in iproduct(letters, repeat=n)]
    content_index = {c: i for i, c in enumerate(contents)}
    content_of = [content_index[tuple(sorted(w))] for w in words]
    members = [[] for _ in contents]
    for i, c in enumerate(content_of):
        members[c].append(i)

    @cache
    def targets(s):
        """The words receiving maps from content s, in object order, and their map counts."""
        counts = {t: prod(tallies[t][v] ** k for v, k in tallies[s].items())
                  for t in everywhere.intersection(*(holding[v] for v in tallies[s]))}
        return tuple(zip(*sorted((w, counts[t]) for t in counts for w in members[t])))
    # the maps of each pair of words that has any, as one block of indices
    pairs = [(si, ti) for si, s in enumerate(content_of) for ti in targets(s)[0]]
    ends = list(accumulate(chain.from_iterable(targets(s)[1] for s in content_of), initial=0))
    blocks = dict(zip(pairs, map(range, ends, ends[1:])))
    objects = [HXObject(len(w), w) for w in words]
    # positions of each letter inside each word; a morphism out of a word
    # chooses, per position, one matching position of the target word
    spots = [{v: tuple(j for j, y in enumerate(w) if y == v) for v in w} for w in words]
    return HXCategory(alphabet, cap, objects, spots, blocks, skeleton)


def _generators(h: HXCategory, steps) -> list:
    """Sorted indices of the maps ``steps(word, h)`` lists, as (target
    word, mapping) pairs, out of each object."""
    return sorted(h._index(si, h._object_index[HXObject(len(target), target)], mapping)
                  for si, obj in enumerate(h.objects) for target, mapping in steps(obj.word, h))


def _elementary_steps(word: tuple, h: HXCategory) -> list:
    """The adjacent transpositions, the merge of the last two positions
    when they carry the same letter, and the appending of one letter at
    the end.

    They generate the truncation: an index map is a permutation (a product
    of adjacent transpositions) onto a word where it is monotone, then
    merges of the adjacent positions it identifies, then insertions of the
    positions it misses.  A merge of positions k, k+1 is the last-pair
    merge conjugated by a permutation, and an insertion at position k is
    an append followed by adjacent transpositions, so every word in
    between has arity at most that of the source or the target.
    """
    n, ident = len(word), tuple(range(len(word)))
    steps = [(word[:k] + (word[k + 1], word[k]) + word[k + 2:],
              ident[:k] + (k + 1, k) + ident[k + 2:]) for k in range(n - 1)]
    if n >= 2 and word[-2] == word[-1]:
        steps.append((word[:-1], ident[:-1] + (n - 2,)))
    if n < h.cap:
        steps.extend((word + (v,), ident) for v in range(h.alphabet.size))
    return steps


def _block_steps(word: tuple, h: HXCategory) -> list:
    """On a sorted word, for each letter v and the block [s, e) of its
    positions: the adjacent transpositions inside the block, the merge of
    its last two positions and the insertion of v at position e.

    They generate the skeleton: an index map between sorted words maps
    each letter's block into that letter's block, and a map of blocks is
    a permutation of its source (adjacent transpositions) followed by a
    monotone map.  That is merges of adjacent positions, each the last-pair
    merge conjugated by a permutation, then insertions, each an insertion
    at the block's end followed by transpositions; every word in between
    is sorted and has arity at most that of the source or the target.
    """
    n, ident, steps = len(word), tuple(range(len(word))), []
    for v in range(h.alphabet.size):
        s, e = bisect_left(word, v), bisect_right(word, v)
        steps.extend((word, ident[:k] + (k + 1, k) + ident[k + 2:]) for k in range(s, e - 1))
        if e - s >= 2:
            steps.append((word[:e - 1] + word[e:], tuple(i - (i >= e - 1) for i in ident)))
        if n < h.cap:
            steps.append((word[:e] + (v,) + word[e:], tuple(i + (i >= e) for i in ident)))
    return steps


def hx_coproduct(h: HXCategory, u: HXObject, v: HXObject):
    """Concatenation with its two injections; the coproduct inside HX.

    Raises PreconditionError on a skeleton and TruncationError past the cap.
    """
    if h.skeleton:
        raise PreconditionError("concatenation is the coproduct only in the word category")
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
    on_mor = [h.identity[o] for o in on_obj]
    return FinFunctor(src, h, on_obj, on_mor)


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

    return AbDiagram(h, groups, route)


class HartingComparison(NamedTuple):
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
    check is listed by name.  The expansion is Lan_h of the family along
    the one-letter words, so the comparison is the Kan adjunction's
    isomorphism colim Lan_h A = colim_X A and holds at every cap.
    """
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


class BoundedReport(NamedTuple):
    ok: bool
    checked: int
    failures: tuple
    witnesses: dict


def _concatenations(h: HXCategory, both_orders: bool = True):
    """(ui, vi, wi, left, right) per pair of words u, v of combined arity
    <= cap, ui <= vi unless ``both_orders``; left, right inject into u + v."""
    for ui, u in enumerate(h.objects):
        first = 0 if both_orders else ui
        for vi, v in enumerate(h.objects[first:], first):
            if u.arity + v.arity <= h.cap:
                target, left, right = hx_coproduct(h, u, v)
                yield ui, vi, h.object_index(target), left, right


def hx_sifted_bounded_report(h: HXCategory) -> BoundedReport:
    """Connectivity of diagonal slices, for pairs with combined arity <= cap.

    Every cospan out of such a pair factors through the concatenation
    cospan, which links the whole slice in zig-zags of length one; the
    check finds the mediating map of every cospan.  The concatenations are
    the filtered report's upper bounds.
    """
    failures, witnesses, n = [], {}, len(h.objects)
    reach = [{t for t in range(n) if (s, t) in h._hom_cache} for s in range(n)]
    maps = cache(lambda s, t: tuple(h._maps(s, t)))
    for ui, vi, wi, left, right in _concatenations(h):
        witnesses[(ui, vi)] = (wi, left.mapping, right.mapping)
        for other in sorted(reach[ui] & reach[vi]):
            # the maps out of the concatenation come in the order of
            # the cospans they mediate: left positions first
            mediating = iter(maps(wi, other))
            for (p, pm), (q, qm) in iproduct(maps(ui, other), maps(vi, other)):
                if next(mediating, (None, None))[1] != pm + qm:
                    failures.append((ui, vi, other, p, q))
    return BoundedReport(not failures, len(witnesses), tuple(failures), witnesses)


def hx_filtered_bounded_report(h: HXCategory) -> BoundedReport:
    """Filteredness within the truncation, by construction.

    Upper bounds are the concatenations of the pairs u <= v of combined
    arity <= cap.  For every word v and every partition of its positions
    with one letter per block, the report builds the quotient word, blocks
    numbered by first position, and fails with ("quotient", vi, word) where
    the truncation lacks it: the quotient by the partition a parallel pair
    into v generates coequalizes the pair, and every coequalizing map out
    of v factors through it once.  Witnesses: "bounds" and "quotients"
    ((vi, q) -> index of q).  It counts the bounds and partitions it checked.
    """
    bounds = {(ui, vi): (wi, h._index(ui, wi, left.mapping), h._index(vi, wi, right.mapping))
              for ui, vi, wi, left, right in _concatenations(h, both_orders=False)}
    failures, quotients = [], {}
    for vi, v in enumerate(h.objects):
        partitions = [((), ())]    # (q, quotient word) on the positions read so far
        for x in v.word:
            partitions = [(q + (b,), word + (x,) * (b == len(word))) for q, word in partitions
                          for b in range(len(word) + 1) if b == len(word) or word[b] == x]
        for q, word in partitions:
            wi = h._object_index.get((len(word), word))    # equal to HXObject(len, word)
            if wi is None:
                failures.append(("quotient", vi, word))
            else:
                quotients[vi, q] = h._index(vi, wi, q)
    return BoundedReport(not failures, len(bounds) + len(quotients) + len(failures),
                         tuple(failures), {"bounds": bounds, "quotients": quotients})
