"""Exact flag linear algebra over cyclotomic fields: nested eigenbases
of finite-order flag automorphisms, descent of a weighted flag to its
d x l multiplicity table (the `strata.Table` that indexes a fixed-point
stratum), and the weighted-flag morphism predicate.

A flag automorphism of order d is diagonalizable with eigenvalues among
the d-th roots of unity, so everything here happens inside Q(zeta_d);
for d <= 2 that field is just the rationals in a length-one power
basis.
"""

from __future__ import annotations

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
from .parabolic import PointWeights, check_weights

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
    is given by a full-row-rank basis matrix over the first basis's
    field Q(zeta_d) and is checked to contain the next one.  Both
    checks are ranks taken by the fraction-free kernel on the basis rows
    cleared of denominators.
    The first containment needs no rank: n independent rows of length n
    span the whole space.
    """

    __slots__ = ("subspaces", "weights", "field", "dims")

    def __init__(self, subspaces: Sequence[ExactMatrix], weights: Sequence[Fraction]):
        subspaces = tuple(subspaces)
        weights = tuple(to_fraction(w) for w in weights)
        if not subspaces:
            raise ValueError("a flag needs at least one subspace")
        if len(weights) != len(subspaces):
            raise ValueError("one weight per subspace is required")
        check_weights(weights)
        field = subspaces[0].field
        n = subspaces[0].cols
        for sub in subspaces:
            if sub.field != field:
                raise ValueError("subspace bases must live over the flag's cyclotomic field")
            if sub.cols != n:
                raise ValueError("subspace bases must share the ambient dimension")
            if residue_rank(field, residue_rows(sub)) != sub.rows:
                raise ValueError("subspace basis rows are not independent")
        dims = [sub.rows for sub in subspaces]
        if dims[0] != n:
            raise ValueError("the first subspace must be the full ambient space")
        for i in range(len(dims) - 1):
            if dims[i + 1] >= dims[i]:
                raise ValueError("subspace dimensions must strictly decrease")
            # V_0 is the whole space; V_i's rows are independent, so
            # V_{i+1} adds no rank exactly when V_i contains it
            if i and residue_rank(field, residue_rows(subspaces[i]) + residue_rows(subspaces[i + 1])) != dims[i]:
                raise ValueError("each subspace must contain the next one")
        if dims[-1] < 1:
            raise ValueError("the last subspace must be nonzero")
        self.field = field
        self.subspaces = subspaces
        self.weights = weights
        self.dims = tuple(dims)

    @staticmethod
    def of(field_order: int, subspaces: Sequence[Sequence[Sequence]], weights) -> "WeightedFlag":
        field = cyclotomic_field(field_order)
        return WeightedFlag([ExactMatrix.from_rows(field, rows) for rows in subspaces], weights)

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
    """Square matrix over Q(zeta_d) whose d-th power is the identity, d
    being its field's order, carried with ``nullities[e]``, the dimension of its zeta_d**e
    eigenspace.  They are its order check: x**d - 1 has d distinct roots
    in characteristic 0, so phi**d = 1 exactly when they sum to n.

    ``exact.eigen_nullities`` reads them off the characteristic
    polynomial where its root zeta_d**e is simple (nullity 1), and takes
    n - rank(phi - zeta_d**e I) by the fraction-free rank kernel only at
    a repeated root.  A matrix that is not diagonalizable has a repeated
    root whose nullity falls short of its multiplicity, so it fails the
    check there.
    """

    __slots__ = ("matrix", "nullities")

    def __init__(self, matrix: ExactMatrix):
        if matrix.rows != matrix.cols:
            raise ValueError("automorphism matrix must be square")
        self.nullities = eigen_nullities(matrix)
        if sum(self.nullities) != matrix.rows:
            raise ValueError(f"matrix to the power {matrix.field.order} is not the identity")
        self.matrix = matrix

    @property
    def order(self) -> int:
        """d, the order of the matrix's field Q(zeta_d)."""
        return self.matrix.field.order

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
        return FlagAutomorphism(ExactMatrix.from_rows(cyclotomic_field(order), rows))

    @property
    def dimension(self) -> int:
        return self.matrix.rows


class EigenVector(NamedTuple):
    vector: Vector
    exponent: int
    eigenvalue: Cyclotomic


def _check_pair(phi: FlagAutomorphism, flag: WeightedFlag) -> None:
    if flag.field != phi.matrix.field:
        raise ValueError("flag and automorphism must share the same field order")
    if phi.dimension != flag.ambient_dim:
        raise ValueError("automorphism dimension does not match the flag")


def nested_eigenbasis(phi: FlagAutomorphism, flag: WeightedFlag) -> tuple[tuple[EigenVector, ...], ...]:
    """Eigenvector bases B_0 >= B_1 >= ... of the flag subspaces, nested
    bottom-up: one tuple per level, each vector an exact eigenvector
    tagged with its root-of-unity eigenvalue.

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
    return tuple(tuple(lv) for lv in levels)


def descend(phi: FlagAutomorphism, flag: WeightedFlag) -> tuple[tuple[int, ...], ...]:
    """The d x l multiplicity table of the flag split along phi's
    eigenspaces, in `strata.Table` form: row j - 1 holds fiber j's
    dimension drops, j = 1..d, the eigenvalue zeta_d**j's, zero rows
    kept.  A row sums to that eigenspace's dimension, and its nonzero
    entries, read against the flag's weights, are the fiber's weighted
    multiplicities.

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
    _check_pair(phi, flag)
    ell = flag.length
    phi_map = ResidueMap(phi.matrix)
    # counts[e][k] = dim(V_k cap E_e); V_0 is the whole space
    counts = {e: [k] for e, k in enumerate(phi.nullities) if k}
    for level in range(1, ell):
        nullity = phi_map.restricted(residue_rows(flag.subspaces[level]))
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
    d = phi.order
    absent = [0] * (ell + 1)
    return tuple(tuple(c[k] - c[k + 1] for k in range(ell))
                 for c in (counts.get(j % d, absent) for j in range(1, d + 1)))


def fixed_point_shape(table: Sequence[Sequence[int]]) -> bool:
    """True when every eigenspace has the same dimension, exactly r/d:
    the rows of a `descend` table sum alike."""
    return len(set(map(sum, table))) == 1


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
    if dst.field != src.field or f.field != src.field:
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
