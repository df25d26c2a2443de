"""Fixed-point strata: index enumeration, margin-constrained
multiplicity matrices, and exact dimension/codimension accounting.

A stratum over a degree-d cover is indexed, at each marked point, by a
d-tuple of nonempty weight subsets of size at most r/d, together with a
d x l matrix of non-negative integers whose support matches the subsets
(condition a), whose rows each sum to r/d, and whose k-th column sums
to the k-th multiplicity (condition b).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Mapping, NamedTuple, Sequence

from .parabolic import ParabolicDatum, PointWeights


@dataclass(frozen=True)
class ModuliSpec(ParabolicDatum):
    """A parabolic datum plus the genus; ``degree`` is the degree of the
    fixed determinant."""

    genus: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.genus, int) or self.genus < 2:
            raise ValueError("genus must be an integer >= 2")

    @staticmethod
    def of(
        genus: int, rank: int, points: Mapping[str, PointWeights], xi_degree: int = 0
    ) -> "ModuliSpec":
        return ModuliSpec(rank, xi_degree, tuple(sorted(points.items())), genus)

    @property
    def delta(self) -> int:
        """The determinant degree modulo the rank."""
        return self.degree % self.rank


@dataclass(frozen=True)
class StratumIndex:
    """Per point, a d-tuple of weight subsets (0-based index tuples)."""

    entries: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]


@dataclass(frozen=True)
class MultiplicityMatrix:
    """Rectangular block of non-negative integers, rows indexed by fiber
    position and columns by weight position."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("matrix needs at least one row")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise ValueError(f"non-negative integer entry expected, got {v!r}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(r) for r in self.entries)

    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(r[k] for r in self.entries) for k in range(self.cols))

    def supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(k for k, v in enumerate(r) if v) for r in self.entries)


def _check_cover_degree(r: int, d: int) -> int:
    if not isinstance(d, int) or d < 2:
        raise ValueError("cover degree must be an integer >= 2")
    if r % d != 0:
        raise ValueError(f"cover degree {d} does not divide rank {r}")
    return r // d


def weight_subsets(pw: PointWeights, max_size: int) -> tuple[tuple[int, ...], ...]:
    """All nonempty subsets of the weight positions of size <= max_size,
    as sorted index tuples in lexicographic order."""
    n = pw.length
    subs = []
    for size in range(1, min(n, max_size) + 1):
        subs.extend(itertools.combinations(range(n), size))
    subs.sort()
    return tuple(subs)


def subset_count(length: int, max_size: int) -> int:
    """The number of `weight_subsets` of a point with `length` weights:
    sum_{k=1}^{min(length, max_size)} C(length, k)."""
    return sum(comb(length, k) for k in range(1, min(length, max_size) + 1))


def enumerate_stratum_indices(spec: ModuliSpec, d: int) -> Iterator[StratumIndex]:
    """All stratum indices, lazily, in lexicographic order.

    Per point there are |P|**d tuples where P collects the nonempty
    weight subsets of size at most r/d; across points the tuples are
    combined as a full product.
    """
    q = _check_cover_degree(spec.rank, d)
    per_point = []
    for pid, pw in spec.points:
        subs = weight_subsets(pw, q)
        per_point.append([(pid, t) for t in itertools.product(subs, repeat=d)])
    for combo in itertools.product(*per_point):
        yield StratumIndex(tuple(combo))


def margin_tables(mults: Sequence[int], q: int, d: int) -> Iterator[MultiplicityMatrix]:
    """Every d x l table of non-negative integers whose rows sum to q and
    whose k-th column sums to mults[k], in lexicographic row-major order.

    Each row is filled column by column, entries 0 upward, bounded by the
    remaining column sums and by what the row still needs.  Because
    sum(mults) = d q, the columns left after any completed rows can
    always be filled (north-west-corner rule), so only a row's last
    column needs a check: it must absorb the rest of the row.
    """
    width = len(mults)
    if sum(mults) != d * q:
        raise ValueError(f"multiplicities sum to {sum(mults)}, expected {d} * {q}")
    col_rem = list(mults)
    table = [[0] * width for _ in range(d)]

    def fill(j: int, k: int, need: int) -> Iterator[MultiplicityMatrix]:
        for v in range(need if k == width - 1 else 0, min(col_rem[k], need) + 1):
            table[j][k] = v
            col_rem[k] -= v
            if k < width - 1:
                yield from fill(j, k + 1, need - v)
            elif j < d - 1:
                yield from fill(j + 1, 0, q)
            else:
                yield MultiplicityMatrix(tuple(map(tuple, table)))
            col_rem[k] += v

    yield from fill(0, 0, q)


def enumerate_matrices(
    t_point: Sequence[tuple[int, ...]],
    m: PointWeights,
    r: int,
    d: int,
) -> Iterator[MultiplicityMatrix]:
    """All matrices for one point compatible with the given subset tuple.

    Conditions: entry (j, k) is nonzero exactly when k lies in the j-th
    subset; each row sums to r/d; column k sums to the k-th
    multiplicity.  These are the `margin_tables` whose row supports are
    the subsets, in the same lexicographic (row-major) order.  The
    result may be empty.
    """
    q = _check_cover_degree(r, d)
    width = m.length
    supports = tuple(tuple(sorted(set(s))) for s in t_point)
    if len(supports) != d:
        raise ValueError(f"expected {d} subsets, got {len(supports)}")
    for s in supports:
        if not s:
            raise ValueError("subsets must be nonempty")
        if len(s) > q:
            raise ValueError(f"subset of size {len(s)} exceeds r/d = {q}")
        for k in s:
            if not (0 <= k < width):
                raise ValueError(f"weight index {k} out of range")
    for mat in margin_tables(m.multiplicities, q, d):
        if mat.supports() == supports:
            yield mat


def point_systems(
    pw: PointWeights, r: int, d: int
) -> Iterator[tuple[tuple[tuple[int, ...], ...], list[MultiplicityMatrix]]]:
    """Per subset d-tuple at one point, in lexicographic order, the tuple
    and the list of its matrices, which may be empty.

    The row supports of a margin table have size <= r/d and so form one
    of the tuples: the tables are enumerated once and grouped by support.
    """
    q = _check_cover_degree(r, d)
    by_support: dict[tuple[tuple[int, ...], ...], list[MultiplicityMatrix]] = {}
    for mat in margin_tables(pw.multiplicities, q, d):
        by_support.setdefault(mat.supports(), []).append(mat)
    for t in itertools.product(weight_subsets(pw, q), repeat=d):
        yield t, by_support.get(t, [])


def matrix_to_multiplicity_system(
    mat: MultiplicityMatrix, weights: PointWeights
) -> tuple[PointWeights, ...]:
    """Per-fiber weighted multiplicities read off the rows of a matrix.

    Row j becomes the data at the j-th fiber point: weight k enters
    with multiplicity equal to the (j, k) entry whenever that entry is
    positive, in increasing weight order.
    """
    if mat.cols != weights.length:
        raise ValueError("matrix width does not match the number of weights")
    out = []
    for row in mat.entries:
        kept = [(weights.weights[k], v) for k, v in enumerate(row) if v]
        if not kept:
            raise ValueError("matrix row without positive entries")
        out.append(PointWeights(tuple(kept)))
    return tuple(out)


def flag_dimension(mults: Sequence[int]) -> int:
    """Dimension of the variety of flags with the given dimension drops:
    sum over i < j of m_i m_j, that is (n^2 - sum m_i^2) / 2 with n the
    sum of the m_i."""
    for m in mults:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"positive integer multiplicity expected, got {m!r}")
    return (sum(mults) ** 2 - sum(m * m for m in mults)) // 2


def moduli_dimension(spec: ModuliSpec) -> int:
    """(r^2 - 1)(g - 1) plus the flag dimension at every marked point."""
    total = (spec.rank**2 - 1) * (spec.genus - 1)
    for _, pw in spec.points:
        total += flag_dimension(pw.multiplicities)
    return total


def matrix_flag_term(mat: MultiplicityMatrix) -> int:
    """Sum over the rows of the flag dimension of their positive entries,
    (sum(row)^2 - sum v^2) / 2, to which a zero entry adds nothing: one
    point's contribution to the dimension of its stratum."""
    return sum((sum(row) ** 2 - sum(v * v for v in row)) // 2 for row in mat.entries)


def _check_matrix_margins(mat: MultiplicityMatrix, pw: PointWeights, q: int, d: int) -> None:
    if mat.rows != d:
        raise ValueError(f"matrix has {mat.rows} rows, expected {d}")
    if mat.cols != pw.length:
        raise ValueError("matrix width does not match the number of weights")
    if mat.row_sums() != (q,) * d:
        raise ValueError(f"rows must sum to {q}")
    if mat.col_sums() != pw.multiplicities:
        raise ValueError("columns must sum to the point multiplicities")


def stratum_dimension(
    spec: ModuliSpec, d: int, mats: Mapping[str, MultiplicityMatrix]
) -> int:
    """(g-1)(r^2/d - 1) plus, per point and fiber row, the flag
    dimension of the positive entries of that row."""
    q = _check_cover_degree(spec.rank, d)
    if set(mats) != set(spec.point_ids):
        raise ValueError("matrices must be given for exactly the marked points")
    total = (spec.genus - 1) * (spec.rank**2 // d - 1)
    for pid, pw in spec.points:
        mat = mats[pid]
        _check_matrix_margins(mat, pw, q, d)
        total += matrix_flag_term(mat)
    return total


def enumerate_strata(
    spec: ModuliSpec, d: int
) -> Iterator[tuple[StratumIndex, dict[str, MultiplicityMatrix]]]:
    """All (index, matrix system) pairs, lazily; indices whose matrix
    collection is empty at some point are skipped."""
    systems = [dict(point_systems(pw, spec.rank, d)) for _, pw in spec.points]
    for t in enumerate_stratum_indices(spec, d):
        per_point = [by_tuple[subs] for by_tuple, (_, subs) in zip(systems, t.entries)]
        for combo in itertools.product(*per_point):
            yield t, dict(zip(spec.point_ids, combo))


class CodimReport(NamedTuple):
    """Exact dimension/codimension summary for one configuration.  A
    named tuple: built as one tuple, compared and hashed as one, with
    the repr of a dataclass of the same fields."""

    genus: int
    rank: int
    cover_degree: int
    dim_moduli: int
    num_indices: int
    num_systems: int
    max_stratum_dim: int
    codim: int
    bound: Fraction
    meets_bound: bool
    codim_at_least_three: bool


def point_survey(mults: Sequence[int], q: int, d: int) -> tuple[int, int]:
    """The number of margin tables of one point and the largest
    `matrix_flag_term` among them, without listing the tables; read
    from the point's cached `_point_term`.

    A row summing to q has flag term (q^2 - sum v^2)/2, so a table has
    (d q^2 - sum v^2)/2, and `best` comes from the smallest sum v^2:
    each column m_k split as evenly as possible, d - r_k entries f_k and
    r_k entries f_k + 1, where f_k, r_k = divmod(m_k, d).  Placed
    cyclically, column after column, the larger entries of a column land
    in distinct rows and every row sums to q, so

        best = (d q^2 - sum_k [d f_k^2 + r_k (2 f_k + 1)]) / 2.

    `count` fills the table column by column.  A relabelling of the rows
    keeps the count, so the state is the remaining columns with the
    sorted tuple of remaining row sums, memoized (Diaconis and Gangolli,
    "Rectangular arrays with fixed margins", 1995).
    """
    _, count, best, _ = _point_term(tuple(mults), q, d)
    return count, best


@functools.lru_cache(maxsize=4096)
def _point_term(mults: tuple[int, ...], q: int, d: int) -> tuple[int, int, int, int]:
    """What `codim_report` needs from one point, kept per key: its
    `flag_dimension`, (n^2 - sum m_k^2)/2 with n = d q, the (count,
    best) of `point_survey` and its number of subset d-tuples.  The
    flag term is read from the same sums of squares as `best`, so a
    zero multiplicity, which `margin_tables` accepts, is accepted here
    too.  The memo of the count's states lives for one key only, so the
    cache holds four integers per key."""
    if sum(mults) != d * q:
        raise ValueError(f"multiplicities sum to {sum(mults)}, expected {d} * {q}")
    twice_flag = (d * q) ** 2
    twice_best = d * q * q
    for m in mults:
        f, rem = divmod(m, d)
        twice_flag -= m * m
        twice_best -= d * f * f + rem * (2 * f + 1)
    count = _tables_left(mults, (q,) * d, {})
    return twice_flag // 2, count, twice_best // 2, subset_count(len(mults), q) ** d


def _tables_left(mults: tuple[int, ...], caps: tuple[int, ...], memo: dict) -> int:
    """Tables with column sums `mults` and row sums `caps` (sorted), where
    sum(mults) == sum(caps): the first column is taken out in every way
    the row sums allow, and the last column is what the rows still need."""
    if len(mults) == 1:
        return 1
    key = (len(mults), caps)
    if key not in memo:
        splits = _column_splits(mults[0], caps)
        memo[key] = sum(_tables_left(mults[1:], tuple(sorted(left)), memo) for left in splits)
    return memo[key]


def _column_splits(m: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The row sums left after taking a column summing to m, entry j at
    most caps[j], in every possible way."""
    if len(caps) == 1:
        if m <= caps[0]:
            yield (caps[0] - m,)
        return
    for v in range(min(m, caps[0]) + 1):
        for rest in _column_splits(m - v, caps[1:]):
            yield (caps[0] - v, *rest)


@functools.lru_cache(maxsize=4096)
def _bound(bound_num: int, d: int) -> Fraction:
    """The bound r^2 (g-1)(d-1)/d as a `Fraction`, built once per key: a
    sweep states the same bound for every system of a (g, r, d)."""
    return Fraction(bound_num, d)


def codim_report(spec: ModuliSpec, d: int) -> CodimReport:
    """Survey every stratum and compare the exact codimension against
    the analytic lower bound r^2 (g-1) (1 - 1/d).

    The per-point contributions are independent, so the report is a fold
    over the points of one cached per-key term, `_point_term(mults, q,
    d)`: a point costs one lookup.  Its flag dimensions add up to
    `moduli_dimension`, its `point_survey` maxima to the maximum stratum
    dimension, its table counts multiply to the stratum count and its
    `subset_count(l, q) ** d` subset tuples to the index count.  Nothing
    walks the margin tables; `point_survey` states the closed forms.

    With slack_p = flag_dimension(m_p) - best_p, where best_p is the
    largest flag term at point p, the genus terms give exactly

        codim = bound + sum_p slack_p,

    and since an even split of m_k into d parts has sum v^2 >= m_k^2/d,
    2 d slack_p >= (d - 1)(r^2 - sum_k m_k^2) >= 0, with slack_p = 0
    exactly when the point has a single weight.  So `meets_bound` holds
    for every configuration, and codim < 3 only when g = r = d = 2 and
    every point has a single weight: the bound is 2 there and at least 4
    (g = 3, r = d = 2) for every other (g, r, d).  `meets_bound` is
    still computed; the tests check the identity.

    This is the one place where `codim`, `bound`, `meets_bound` and
    `codim_at_least_three` are stated: the CLI writes the fields of the
    returned `CodimReport`, one tuple, as they are, in a `codim` report
    and in each sweep line alike.
    """
    q = _check_cover_degree(spec.rank, d)
    g, r = spec.genus, spec.rank
    dim_m = (r * r - 1) * (g - 1)
    max_dim = (g - 1) * (r * r // d - 1)
    num_indices = 1
    num_systems = 1
    for _, pw in spec.points:
        flag, count, best, tuples = _point_term(pw.multiplicities, q, d)
        dim_m += flag
        max_dim += best
        num_systems *= count
        num_indices *= tuples

    bound_num = r * r * (g - 1) * (d - 1)
    codim = dim_m - max_dim
    # positional, in field order: keywords would double the cost
    return CodimReport(
        g, r, d, dim_m, num_indices, num_systems, max_dim, codim,
        _bound(bound_num, d),  # bound
        codim * d >= bound_num,  # meets_bound
        codim >= 3,  # codim_at_least_three
    )
