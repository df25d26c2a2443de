"""Parabolic data at marked points: weighted multiplicity systems,
parabolic degree and slope, and the genericity wall test.

A weight system attaches to each marked point a strictly increasing
sequence of rational weights in [0, 1), each carrying a positive
multiplicity; the multiplicities at every point sum to the rank.  A
point's system is stored as these two columns, and `check_weights` is
the one check of a weight sequence, shared with `eigenflag`'s flags.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exact import to_fraction


def check_weights(weights) -> None:
    """Check a weight sequence: Fractions, strictly increasing inside [0, 1)."""
    prev = None
    for w in weights:
        if not isinstance(w, Fraction):
            raise TypeError(f"weight must be a Fraction, got {w!r}")
        if not (0 <= w < 1):
            raise ValueError(f"weight {w} outside [0, 1)")
        if prev is not None and w <= prev:
            raise ValueError("weights must be strictly increasing")
        prev = w


@dataclass(frozen=True)
class PointWeights:
    """Weighted multiplicities at a single marked point.

    ``weights`` are strictly increasing inside [0, 1) and
    ``multiplicities`` holds a positive integer for each of them.
    """

    weights: tuple[Fraction, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.multiplicities):
            raise ValueError("weights and multiplicities differ in length")
        if not self.weights:
            raise ValueError("at least one weight is required")
        check_weights(self.weights)
        for m in self.multiplicities:
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"multiplicity must be a positive integer, got {m!r}")

    @staticmethod
    def of(weights, mults) -> "PointWeights":
        return PointWeights(tuple(map(to_fraction, weights)), tuple(mults))

    @property
    def length(self) -> int:
        return len(self.weights)

    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)

    def weighted_sum(self) -> Fraction:
        return sum((m * w for w, m in zip(self.weights, self.multiplicities)), Fraction(0))

    def dimension_profile(self) -> tuple[int, ...]:
        """Dimensions of the flag steps: entry i is the sum of the
        multiplicities from position i on."""
        out = []
        acc = 0
        for m in reversed(self.multiplicities):
            acc += m
            out.append(acc)
        return tuple(reversed(out))


@dataclass(frozen=True)
class ParabolicDatum:
    """Rank, integer degree, and per-point weighted multiplicities.

    Points are keyed by string ids and are kept sorted so that every
    iteration order is deterministic.
    """

    rank: int
    degree: int
    points: tuple[tuple[str, PointWeights], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or isinstance(self.rank, bool) or self.rank < 1:
            raise ValueError("rank must be a positive integer")
        if not isinstance(self.degree, int) or isinstance(self.degree, bool):
            raise ValueError("degree must be an integer")
        seen = set()
        prev = None
        for pid, pw in self.points:
            if not isinstance(pid, str):
                raise TypeError("point ids must be strings")
            if pid in seen:
                raise ValueError(f"duplicate point id {pid!r}")
            seen.add(pid)
            if prev is not None and pid < prev:
                raise ValueError("points must be sorted by id")
            prev = pid
            if pw.total_multiplicity() != self.rank:
                raise ValueError(
                    f"multiplicities at {pid!r} sum to {pw.total_multiplicity()}, expected rank {self.rank}"
                )

    @staticmethod
    def of(rank: int, degree: int, points: Mapping[str, PointWeights]) -> "ParabolicDatum":
        items = tuple(sorted(points.items()))
        return ParabolicDatum(rank, degree, items)

    @property
    def point_ids(self) -> tuple[str, ...]:
        return tuple(pid for pid, _ in self.points)

    def weights_at(self, pid: str) -> PointWeights:
        for q, pw in self.points:
            if q == pid:
                return pw
        raise KeyError(pid)

    def point_map(self) -> dict[str, PointWeights]:
        return dict(self.points)


def par_degree(d: ParabolicDatum) -> Fraction:
    """Integer degree plus the weighted multiplicity sum over all points."""
    return Fraction(d.degree) + sum((pw.weighted_sum() for _, pw in d.points), Fraction(0))


def par_slope(d: ParabolicDatum) -> Fraction:
    return par_degree(d) / d.rank


@dataclass(frozen=True)
class GenericityWitness:
    """A numerically admissible sub-datum of equal parabolic slope."""

    sub_rank: int
    sub_degree: int
    sub_multiplicities: tuple[tuple[str, tuple[int, ...]], ...]


def _sub_vectors(mults: tuple[int, ...], target: int):
    """All vectors n with 0 <= n_i <= m_i and sum(n) = target, in
    lexicographic order."""
    for combo in itertools.product(*(range(m + 1) for m in mults)):
        if sum(combo) == target:
            yield combo


def genericity_witness(d: ParabolicDatum) -> GenericityWitness | None:
    """First admissible sub-datum achieving equal slope, if any.

    Enumeration order: increasing sub-rank, then lexicographic in the
    per-point sub-multiplicity vectors (points in sorted id order).
    Returns None when the weight system is generic.  The test is purely
    numerical: it does not ask whether the sub-datum is realized by an
    actual subobject.
    """
    slope = par_slope(d)
    ids = d.point_ids
    for sub_rank in range(1, d.rank):
        # never empty: a point's multiplicities sum to the rank > sub_rank
        per_point = [list(_sub_vectors(pw.multiplicities, sub_rank)) for _, pw in d.points]
        for combo in itertools.product(*per_point):
            wsum = Fraction(0)
            for (_, pw), vec in zip(d.points, combo):
                for w, n in zip(pw.weights, vec):
                    if n:
                        wsum += n * w
            e_sub = sub_rank * slope - wsum
            if e_sub.denominator == 1:
                return GenericityWitness(sub_rank, int(e_sub), tuple(zip(ids, combo)))
    return None


def is_generic(d: ParabolicDatum) -> bool:
    """True when no admissible sub-datum achieves the same slope.

    Rank one is vacuously generic.
    """
    return genericity_witness(d) is None
