"""Finitely generated abelian groups presented by integer relation matrices.

A group is Z^g modulo the column lattice of its relation matrix; a
homomorphism is an integer matrix on generators, considered modulo the
codomain's relations.  Each group builds one Hermite column lattice of
its relations, and kernels, membership, factorizations and invariant
factors (the Smith diagonal of its basis) all read it; the isomorphisms
with canonical forms come from Smith's transforms of that basis.

>>> g = group_from_presentation(IntMatrix([[2, 0], [0, 3]]))
>>> g.canonical_form
(0, (6,))
>>> describe_form(g.canonical_form)
'Z/6'
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .errors import InputError
from .fincat import ValidationReport
from .intmat import (ColumnLattice, IntMatrix, block_diagonal, graph_lattice, hstack,
                     lattice_invariants, preimage_basis, smith, smith_normal_form,
                     solve_many)

__all__ = [
    "FGAbGroup", "AbHom", "Canonicalization",
    "group_from_presentation", "free_abelian", "cyclic", "from_canonical_form",
    "zero_group", "describe_form",
    "hom", "identity_hom", "zero_hom", "hom_validate", "hom_equal", "hom_compose",
    "is_zero_hom",
    "kernel", "cokernel", "direct_sum", "biproduct", "is_mono", "is_epi",
    "canonicalize", "are_isomorphic",
    "factor_through_kernel", "factor_through_cokernel",
    "smith", "smith_normal_form", "IntMatrix",
]


class FGAbGroup:
    """Z^gens modulo the column lattice of ``relations``."""

    __slots__ = ("gens", "relations", "_lattice", "_canon", "_basis")

    def __init__(self, gens: int, relations: IntMatrix | None = None):
        gens = int(gens)
        if gens < 0:
            raise InputError("negative generator count")
        if relations is None:
            relations = IntMatrix.zeros(gens, 0)
        if relations.rows != gens:
            raise InputError(f"relation matrix has {relations.rows} rows, expected {gens}")
        self.gens = gens
        self.relations = relations
        self._lattice = None
        self._canon = None
        self._basis = None

    @property
    def lattice(self) -> ColumnLattice:
        if self._lattice is None:
            self._lattice = ColumnLattice(self.gens, self.relations.columns())
        return self._lattice

    @property
    def reduced_relations(self) -> IntMatrix:
        """An independent column basis of the relation lattice."""
        if self._basis is None:
            self._basis = self.lattice.basis_matrix()
        return self._basis

    @property
    def canonical_form(self) -> tuple[int, tuple]:
        """(free rank, invariant factors >= 2 in divisibility order)."""
        if self._canon is None:
            self._canon = lattice_invariants(self.reduced_relations)
        return self._canon

    @property
    def is_trivial(self) -> bool:
        return self.canonical_form == (0, ())

    def contains_relation(self, col) -> bool:
        return self.lattice.contains(col)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FGAbGroup):
            return NotImplemented
        return self.gens == other.gens and self.relations == other.relations

    def __hash__(self):
        return hash((self.gens, self.relations))

    def __repr__(self):
        return f"<FGAbGroup {describe_form(self.canonical_form)} on {self.gens} generators>"


def describe_form(form) -> str:
    """Human-readable canonical form, torsion factors in ascending order.

    >>> describe_form((2, (2, 6)))
    'Z^2 x Z/2 x Z/6'
    >>> describe_form((0, ()))
    '0'
    """
    free, factors = form
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{d}" for d in factors)
    return " x ".join(parts) if parts else "0"


def group_from_presentation(relations: IntMatrix) -> FGAbGroup:
    """Group with one generator per matrix row, relations as columns.

    >>> group_from_presentation(IntMatrix([[2]])).canonical_form
    (0, (2,))
    """
    return FGAbGroup(relations.rows, relations)


def free_abelian(rank: int) -> FGAbGroup:
    return FGAbGroup(rank)


def cyclic(order: int) -> FGAbGroup:
    """Z/order, with order 0 meaning the infinite cyclic group."""
    if order < 0:
        raise InputError("negative order")
    if order == 0:
        return free_abelian(1)
    return FGAbGroup(1, IntMatrix([[order]]))


def from_canonical_form(free_rank: int, factors) -> FGAbGroup:
    """Canonical presentation: torsion generators first, then free ones.

    The factors must each be at least 2 and divide the next, so that the
    group's canonical form is the one given.
    """
    factors = tuple(int(d) for d in factors)
    if free_rank < 0:
        raise InputError(f"negative free rank {free_rank}")
    if any(d < 2 for d in factors):
        raise InputError("invariant factors must be at least 2")
    if any(b % a for a, b in zip(factors, factors[1:])):
        raise InputError(f"invariant factors {factors} do not each divide the next")
    gens = len(factors) + free_rank
    cols = []
    for i, d in enumerate(factors):
        col = [0] * gens
        col[i] = d
        cols.append(col)
    return FGAbGroup(gens, IntMatrix.from_columns(cols, gens))


def zero_group() -> FGAbGroup:
    return FGAbGroup(0, IntMatrix.zeros(0, 0))


class AbHom:
    """Homomorphism as a (target gens x source gens) integer matrix."""

    __slots__ = ("source", "target", "matrix", "_graph")

    def __init__(self, source: FGAbGroup, target: FGAbGroup, matrix: IntMatrix):
        if matrix.shape != (target.gens, source.gens):
            raise InputError(f"matrix shape {matrix.shape} does not match "
                             f"({target.gens}, {source.gens})")
        self.source = source
        self.target = target
        self.matrix = matrix
        self._graph = None

    def _graph_lattice(self) -> ColumnLattice:
        """The columns (M_j; e_j) and the target's relation basis (R_k; 0),
        built once; kernel, ``is_mono`` and ``is_epi`` read it."""
        if self._graph is None:
            self._graph = graph_lattice(self.matrix, self.target.reduced_relations.columns())
        return self._graph

    def __matmul__(self, other: "AbHom") -> "AbHom":
        return hom_compose(self, other)

    def __add__(self, other: "AbHom") -> "AbHom":
        if self.source != other.source or self.target != other.target:
            raise InputError("sum of homs with different endpoints")
        return AbHom(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other: "AbHom") -> "AbHom":
        return self + (-other)

    def __neg__(self) -> "AbHom":
        return AbHom(self.source, self.target, -self.matrix)

    def __eq__(self, other):
        if not isinstance(other, AbHom):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"<AbHom {describe_form(self.source.canonical_form)} -> " \
               f"{describe_form(self.target.canonical_form)}>"


def hom(source: FGAbGroup, target: FGAbGroup, rows) -> AbHom:
    return AbHom(source, target, IntMatrix(rows, shape=(target.gens, source.gens)))


def identity_hom(group: FGAbGroup) -> AbHom:
    return AbHom(group, group, IntMatrix.identity(group.gens))


def zero_hom(source: FGAbGroup, target: FGAbGroup) -> AbHom:
    return AbHom(source, target, IntMatrix.zeros(target.gens, source.gens))


def hom_validate(h: AbHom) -> ValidationReport:
    """Well-definedness: the matrix must carry source relations into the
    target relation lattice."""
    problems = []
    image = h.matrix @ h.source.relations
    for j in range(image.cols):
        if not h.target.contains_relation(image.column(j)):
            problems.append(f"relation column {j} is not sent into the target lattice")
    return ValidationReport(tuple(problems))


def hom_equal(h1: AbHom, h2: AbHom) -> bool:
    """Equality modulo the target relations."""
    if h1.source != h2.source or h1.target != h2.target:
        raise InputError("homs with different endpoints are never compared")
    a, b = h1.matrix.data, h2.matrix.data
    for j in range(h1.matrix.cols):
        col = tuple(r1[j] - r2[j] for r1, r2 in zip(a, b))
        if any(col) and not h1.target.contains_relation(col):
            return False
    return True


def is_zero_hom(h: AbHom) -> bool:
    return hom_equal(h, zero_hom(h.source, h.target))


def hom_compose(g: AbHom, f: AbHom) -> AbHom:
    if f.target != g.source:
        raise InputError("homs are not composable")
    return AbHom(f.source, g.target, g.matrix @ f.matrix)


def kernel(h: AbHom) -> tuple[FGAbGroup, AbHom]:
    """Kernel subgroup with its inclusion.

    Generators of the kernel are a basis of the preimage of the target
    relation lattice; its relations are the vectors that land in the
    source relation lattice.
    """
    pre = h._graph_lattice().bottom_basis(h.target.gens)
    rels = preimage_basis(pre, h.source.reduced_relations)
    k = FGAbGroup(pre.cols, rels)
    return k, AbHom(k, h.source, pre)


def cokernel(h: AbHom) -> tuple[FGAbGroup, AbHom]:
    """Quotient of the target by the image, with the projection."""
    rels = hstack(h.target.relations, h.matrix) if h.target.gens else IntMatrix.zeros(0, 0)
    c = FGAbGroup(h.target.gens, rels)
    return c, AbHom(h.target, c, IntMatrix.identity(h.target.gens))


def summand_offsets(groups) -> list:
    """Where each group's generators start in the direct sum, followed by
    the sum's generator count."""
    return [0, *accumulate(g.gens for g in groups)]


def direct_sum(groups) -> FGAbGroup:
    """Direct sum alone, with block-diagonal relations; see ``biproduct``."""
    rels = block_diagonal([g.relations for g in groups])
    return FGAbGroup(rels.rows, rels)


def biproduct(groups) -> tuple[FGAbGroup, list, list]:
    """Direct sum with injections and projections.

    Satisfies proj_i @ inj_j == delta_ij and sum inj_i @ proj_i == id.
    """
    groups = list(groups)
    offsets = summand_offsets(groups)
    total = offsets[-1]
    summed = direct_sum(groups)
    injections = []
    projections = []
    for k, g in enumerate(groups):
        zero = (0,) * g.gens
        inj = (zero,) * offsets[k] + IntMatrix.identity(g.gens).data \
            + (zero,) * (total - offsets[k + 1])
        injections.append(AbHom(g, summed, IntMatrix._trusted(inj, total, g.gens)))
        projections.append(AbHom(summed, g, IntMatrix._trusted(tuple(zip(*inj)), g.gens, total)))
    return summed, injections, projections


def is_mono(h: AbHom) -> bool:
    """Monomorphism test: the preimage of the target relations, which
    generates the kernel, lies in the source relations."""
    pre = h._graph_lattice().bottom_basis(h.target.gens)
    return all(h.source.contains_relation(col) for col in pre.columns())


def is_epi(h: AbHom) -> bool:
    """Epimorphism test: trivial cokernel, that is, the image and the
    target relations span Z^gens, the top rows of the graph lattice."""
    return h._graph_lattice().spans_top(h.target.gens)


class Canonicalization(NamedTuple):
    """Isomorphism with the canonical presentation of a group."""

    canonical: FGAbGroup
    to_canonical: AbHom
    from_canonical: AbHom


def canonicalize(group: FGAbGroup) -> Canonicalization:
    """Explicit mutually inverse isomorphisms with the canonical form."""
    basis = group.reduced_relations
    dec = smith(basis)
    g = group.gens
    k = basis.cols
    torsion = [i for i in range(k) if dec.s.data[i][i] >= 2]
    free = list(range(k, g))
    keep = torsion + free
    factors = tuple(dec.s.data[i][i] for i in torsion)
    canon = from_canonical_form(len(free), factors)
    to_matrix = IntMatrix._trusted(tuple(dec.u.data[i] for i in keep), len(keep), g)
    from_matrix = IntMatrix._trusted(tuple(tuple(row[i] for i in keep) for row in dec.u_inv.data),
                                     g, len(keep))
    return Canonicalization(canon, AbHom(group, canon, to_matrix), AbHom(canon, group, from_matrix))


def are_isomorphic(a: FGAbGroup, b: FGAbGroup) -> tuple[bool, tuple | None]:
    """Compare canonical forms; on success return mutually inverse homs."""
    if a.canonical_form != b.canonical_form:
        return False, None
    ca = canonicalize(a)
    cb = canonicalize(b)
    forward = cb.from_canonical @ ca.to_canonical
    backward = ca.from_canonical @ cb.to_canonical
    return True, (forward, backward)


def factor_through_kernel(inclusion: AbHom, u: AbHom) -> AbHom:
    """Unique factorization of ``u`` through a kernel inclusion.

    Requires that the composite being killed actually kills ``u``; the
    columns of ``u`` then lie in the lattice spanned by the inclusion's
    independent columns, and reducing them against the Hermite basis of
    its graph reads off the one exact integer solution.
    """
    if u.target != inclusion.target:
        raise InputError("map does not land in the kernel's ambient group")
    x = solve_many(inclusion.matrix, list(u.matrix.columns()))
    if x is None:
        raise InputError("map does not factor through the kernel")
    return AbHom(u.source, inclusion.source, x)


def factor_through_cokernel(projection: AbHom, t: AbHom) -> AbHom:
    """Unique factorization of ``t`` through a cokernel projection.

    ``t`` must kill the image being quotiented; cokernels here share the
    target's generators, so the factoring matrix is t's own matrix.
    """
    if t.source != projection.source:
        raise InputError("map does not start at the cokernel's ambient group")
    candidate = AbHom(projection.target, t.target, t.matrix)
    if hom_validate(candidate).problems:
        raise InputError("map does not kill the image; no factorization exists")
    return candidate
