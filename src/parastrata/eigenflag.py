"""Exact flag linear algebra over cyclotomic fields: nested eigenbases
of finite-order flag automorphisms, descent of a weighted flag to
per-fiber data, and the weighted-flag morphism predicate.

A flag automorphism of order d is diagonalizable with eigenvalues among
the d-th roots of unity, so everything here happens inside Q(zeta_d);
for d <= 2 that field is just the rationals in a length-one power
basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import (
    Cyclotomic,
    ExactMatrix,
    ResidueMap,
    cyclotomic_field,
    eigen_nullities,
    kernel,
    reduced_row_basis,
    residue_rank,
    residue_rows,
    rref,
    to_fraction,
)
from .parabolic import PointWeights
from .strata import MultiplicityMatrix

Vector = tuple


def _span_contains(field, basis_rows: Sequence[Vector], vectors: Sequence[Vector]) -> bool:
    """Whether the vectors lie in the span of `basis_rows`, which must
    already be a canonical (reduced echelon) basis."""
    extended = reduced_row_basis(field, list(basis_rows) + list(vectors))
    return len(extended) == len(basis_rows)


def _intersect(field, rows_a: Sequence[Vector], rows_b: Sequence[Vector], n: int) -> tuple[Vector, ...]:
    """Canonical basis of span(rows_a) intersected with span(rows_b)."""
    if not rows_a or not rows_b:
        return ()
    na, nb = len(rows_a), len(rows_b)
    # columns carry the coefficients: sum u_s a_s - sum v_t b_t = 0
    flat = []
    for i in range(n):
        flat.extend(rows_a[s][i] for s in range(na))
        flat.extend(-rows_b[t][i] for t in range(nb))
    m = ExactMatrix(field, n, na + nb, flat)
    vectors = []
    for kv in kernel(m):
        vec = [field.zero] * n
        for s in range(na):
            if kv[s]:
                for i in range(n):
                    vec[i] = vec[i] + kv[s] * rows_a[s][i]
        vectors.append(tuple(vec))
    return reduced_row_basis(field, vectors)


def _extend_basis(field, inner: Sequence[Vector], outer_basis: Sequence[Vector]) -> list[Vector]:
    """Extend a basis of a subspace to one of an enclosing space by
    greedily taking rows of the enclosing space's canonical basis: the
    pivot columns of the vectors set side by side, inner ones first."""
    vectors = list(inner) + list(outer_basis)
    pivots = rref(ExactMatrix.from_rows(field, zip(*vectors)))[1]
    if pivots[: len(inner)] != tuple(range(len(inner))):
        raise ValueError("inner vectors are not independent")
    return [vectors[p] for p in pivots]


class WeightedFlag:
    """Strictly decreasing chain of subspaces with increasing weights.

    The first subspace must be the whole ambient space; each subspace
    is given by a full-row-rank basis matrix over Q(zeta_d) and is
    checked to contain the next one.  Both checks are ranks taken by
    the fraction-free kernel on the basis rows cleared of denominators,
    which the flag keeps for ``descend``.  The first containment needs
    no rank: n independent rows of length n span the whole space.
    """

    __slots__ = ("field_order", "subspaces", "weights", "field", "dims", "_residues")

    def __init__(self, field_order: int, subspaces: Sequence[ExactMatrix], weights: Sequence[Fraction]):
        field = cyclotomic_field(field_order)
        subspaces = tuple(subspaces)
        weights = tuple(to_fraction(w) for w in weights)
        if not subspaces:
            raise ValueError("a flag needs at least one subspace")
        if len(weights) != len(subspaces):
            raise ValueError("one weight per subspace is required")
        prev_w = None
        for w in weights:
            if not (0 <= w < 1):
                raise ValueError(f"weight {w} outside [0, 1)")
            if prev_w is not None and w <= prev_w:
                raise ValueError("weights must be strictly increasing")
            prev_w = w
        n = subspaces[0].cols
        residues = []
        for sub in subspaces:
            if sub.field != field:
                raise ValueError("subspace bases must live over the flag's cyclotomic field")
            if sub.cols != n:
                raise ValueError("subspace bases must share the ambient dimension")
            rows = residue_rows(sub)
            if residue_rank(field, rows) != sub.rows:
                raise ValueError("subspace basis rows are not independent")
            residues.append(rows)
        dims = [sub.rows for sub in subspaces]
        if dims[0] != n:
            raise ValueError("the first subspace must be the full ambient space")
        for i in range(len(dims) - 1):
            if dims[i + 1] >= dims[i]:
                raise ValueError("subspace dimensions must strictly decrease")
            # V_0 is the whole space; V_i's rows are independent, so
            # V_{i+1} adds no rank exactly when V_i contains it
            if i and residue_rank(field, residues[i] + residues[i + 1]) != dims[i]:
                raise ValueError("each subspace must contain the next one")
        if dims[-1] < 1:
            raise ValueError("the last subspace must be nonzero")
        self.field_order = field_order
        self.field = field
        self.subspaces = subspaces
        self.weights = weights
        self.dims = tuple(dims)
        self._residues = tuple(residues)

    @staticmethod
    def of(field_order: int, subspaces: Sequence[Sequence[Sequence]], weights) -> "WeightedFlag":
        field = cyclotomic_field(field_order)
        mats = [ExactMatrix.from_rows(field, rows) for rows in subspaces]
        return WeightedFlag(field_order, mats, weights)

    @property
    def ambient_dim(self) -> int:
        return self.subspaces[0].cols

    @property
    def length(self) -> int:
        return len(self.subspaces)

    def canonical_basis(self, level: int) -> tuple[Vector, ...]:
        """Canonical (reduced echelon) basis of the level-th subspace,
        0-based, row reduced on each call."""
        return reduced_row_basis(self.field, list(self.subspaces[level].iter_rows()))

    def point_weights(self) -> PointWeights:
        mults = [self.dims[i] - (self.dims[i + 1] if i + 1 < self.length else 0)
                 for i in range(self.length)]
        return PointWeights.of(self.weights, mults)


class FlagAutomorphism:
    """Square matrix over Q(zeta_d) whose d-th power is the identity,
    carried with ``nullities[e]``, the dimension of its zeta_d**e
    eigenspace.  They are its order check: x**d - 1 has d distinct roots
    in characteristic 0, so phi**d = 1 exactly when they sum to n.

    ``exact.eigen_nullities`` reads them off the characteristic
    polynomial where its root zeta_d**e is simple (nullity 1), and takes
    n - rank(phi - zeta_d**e I) by the fraction-free rank kernel only at
    a repeated root.  A matrix that is not diagonalizable has a repeated
    root whose nullity falls short of its multiplicity, so it fails the
    check there.
    """

    __slots__ = ("matrix", "order", "nullities")

    def __init__(self, matrix: ExactMatrix, order: int):
        if matrix.rows != matrix.cols:
            raise ValueError("automorphism matrix must be square")
        field = cyclotomic_field(order)
        if matrix.field != field:
            raise ValueError("matrix must live over the order-d cyclotomic field")
        self.nullities = eigen_nullities(matrix)
        if sum(self.nullities) != matrix.rows:
            raise ValueError(f"matrix to the power {order} is not the identity")
        self.matrix = matrix
        self.order = order

    @property
    def eigenspaces(self) -> tuple[tuple[Vector, ...], ...]:
        """``eigenspaces[e]``, the canonical basis of the zeta_d**e
        eigenspace, taken as a kernel on each access where the nullity
        is nonzero.  ``nested_eigenbasis`` reads it; ``descend`` does not."""
        m, field = self.matrix, self.matrix.field
        ident = ExactMatrix.identity(field, m.rows)
        return tuple(kernel(m - ident.scaled(field.zeta(e))) if k else ()
                     for e, k in enumerate(self.nullities))

    @staticmethod
    def of(order: int, rows: Sequence[Sequence]) -> "FlagAutomorphism":
        field = cyclotomic_field(order)
        return FlagAutomorphism(ExactMatrix.from_rows(field, rows), order)

    @property
    def dimension(self) -> int:
        return self.matrix.rows


class EigenVector(NamedTuple):
    vector: Vector
    exponent: int
    eigenvalue: Cyclotomic


@dataclass(frozen=True)
class NestedEigenbasis:
    """Bases B_1 >= B_2 >= ... of the flag subspaces, every vector an
    exact eigenvector tagged with its root-of-unity eigenvalue."""

    levels: tuple[tuple[EigenVector, ...], ...]


def _check_pair(phi: FlagAutomorphism, flag: WeightedFlag) -> None:
    if flag.field_order != phi.order:
        raise ValueError("flag and automorphism must share the same field order")
    if phi.dimension != flag.ambient_dim:
        raise ValueError("automorphism dimension does not match the flag")


def nested_eigenbasis(phi: FlagAutomorphism, flag: WeightedFlag) -> NestedEigenbasis:
    """Eigenvector bases of every flag subspace, nested bottom-up.

    The deepest subspace is eigen-decomposed first; within each
    eigenvalue the basis of the intersection with the next subspace is
    extended deterministically through the chain.  Output order: by
    eigenvalue exponent, then deepest-level vectors first.

    phi is diagonalizable, so it preserves a subspace exactly when the
    eigenvectors inside the subspace span it, i.e. when the subspace's
    intersections with the eigenspaces have dimensions summing to its
    own; a flag failing this at some level is rejected.  ``descend``
    counts the same dimensions by rank without building the vectors.
    """
    _check_pair(phi, flag)
    field = flag.field
    n = flag.ambient_dim
    ell = flag.length
    levels: list[list[EigenVector]] = [[] for _ in range(ell)]
    bases = [None] + [flag.canonical_basis(level) for level in range(1, ell)]
    for exp, eig in enumerate(phi.eigenspaces):
        if not eig:
            continue
        zeta = field.zeta(exp)
        chain: list[Vector] = []
        for level in range(ell - 1, -1, -1):
            inter = _intersect(field, eig, bases[level], n) if level else eig
            chain = _extend_basis(field, chain, inter) if chain else list(inter)
            levels[level].extend(EigenVector(v, exp, zeta) for v in chain)
    if any(len(levels[i]) != flag.dims[i] for i in range(ell)):
        raise ValueError("automorphism does not preserve the flag")
    return NestedEigenbasis(tuple(tuple(lv) for lv in levels))


@dataclass(frozen=True)
class DescentResult:
    """Per-fiber weighted data split off a flag along an automorphism.

    Fiber j (1-based, j in [1, d]) collects the eigenvectors with
    eigenvalue zeta_d**j; its weighted multiplicities are the dimension
    drops of the induced chain, zero drops discarded.  An eigenvalue
    that does not occur yields an empty fiber (None).
    """

    fiber_weights: tuple[PointWeights | None, ...]
    eigen_dims: tuple[int, ...]
    matrix: MultiplicityMatrix


def descend(phi: FlagAutomorphism, flag: WeightedFlag, d: int) -> DescentResult:
    """Split the flag along phi's eigenspaces, counting dimensions only.

    dim(V_k cap E_z) = |B_k| - rank{phi b - z b : b in B_k} for the
    basis B_k of V_k, as for any linear map: it is the nullity of
    phi - z restricted to V_k.  Each phi b is formed once per level in
    integer residues by ``exact.ResidueMap``, and each rank is taken by
    the fraction-free kernel: no eigenvector, no canonical basis, no
    field inverse.  phi is diagonalizable, so V_k is invariant exactly
    when its counts add up to dim V_k; a flag failing this is rejected
    exactly where ``nested_eigenbasis`` rejects it.  A count is not
    taken where it must be 0: below a level whose count is 0, or once
    the counts at a level reach its dimension, since the eigenspaces of
    distinct eigenvalues are independent.
    """
    if d != phi.order:
        raise ValueError("descent degree must equal the automorphism order")
    _check_pair(phi, flag)
    ell = flag.length
    phi_map = ResidueMap(phi.matrix)
    # counts[e][k] = dim(V_k cap E_e); V_0 is the whole space
    counts = {e: [k] for e, k in enumerate(phi.nullities) if k}
    for level in range(1, ell):
        nullity = phi_map.restricted(flag._residues[level])
        left = flag.dims[level]
        for e, c in counts.items():
            if not (left and c[-1]):
                c.append(0)
                continue
            c.append(nullity(e))
            left -= c[-1]
    if any(sum(c[k] for c in counts.values()) != flag.dims[k] for k in range(ell)):
        raise ValueError("automorphism does not preserve the flag")
    for c in counts.values():
        c.append(0)  # closed by the zero subspace
    absent = [0] * (ell + 1)
    fibers: list[PointWeights | None] = []
    dims: list[int] = []
    rows: list[tuple[int, ...]] = []
    for j in range(1, d + 1):
        c = counts.get(j % d, absent)
        row = tuple(c[k] - c[k + 1] for k in range(ell))
        rows.append(row)
        dims.append(c[0])
        kept = [(flag.weights[k], row[k]) for k in range(ell) if row[k]]
        fibers.append(PointWeights(tuple(kept)) if kept else None)
    return DescentResult(tuple(fibers), tuple(dims), MultiplicityMatrix(tuple(rows)))


def fixed_point_shape(res: DescentResult, r: int, d: int) -> bool:
    """True when every eigenvalue contributes an eigenspace of dimension
    exactly r/d (in particular d must divide r)."""
    if len(res.eigen_dims) != d:
        raise ValueError("result does not match the given degree")
    return r % d == 0 and all(dim == r // d for dim in res.eigen_dims)


def check_parabolic_morphism(
    src: WeightedFlag,
    dst: WeightedFlag,
    f: ExactMatrix,
    convention: str = "strict",
) -> bool:
    """Does f send each source step into the next deeper target step
    whenever the source weight exceeds the target weight?

    Under the strict convention the trigger is alpha_i > beta_j, under
    the non-strict one alpha_i >= beta_j (which rules out the identity
    as an endomorphism of any nontrivial flag).  The step after the
    last one is the zero subspace.
    """
    if convention not in ("strict", "non-strict"):
        raise ValueError(f"unknown convention {convention!r}")
    if src.field_order != dst.field_order or f.field != src.field:
        raise ValueError("flags and map must share one field")
    if f.cols != src.ambient_dim or f.rows != dst.ambient_dim:
        raise ValueError("map shape does not match the flags")
    field = src.field
    strict = convention == "strict"
    # target step j + 1 of every j, the step after the last one zero
    targets = [dst.canonical_basis(j) for j in range(1, dst.length)] + [()]
    for i, alpha in enumerate(src.weights):
        images = None  # taken only once some target step triggers
        for j, beta in enumerate(dst.weights):
            triggered = alpha > beta if strict else alpha >= beta
            if not triggered:
                continue
            if images is None:
                images = [f.apply(v) for v in src.canonical_basis(i)]
            target = targets[j]
            if not target:
                if any(any(c for c in img) for img in images):
                    return False
            elif not _span_contains(field, target, images):
                return False
    return True
