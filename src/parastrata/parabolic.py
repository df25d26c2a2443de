"""Parabolic data at marked points: weighted multiplicity systems,
parabolic degree and slope, and the genericity wall test.

A weight system attaches to each marked point a strictly increasing
sequence of rational weights in [0, 1), each carrying a positive
multiplicity; the multiplicities at every point sum to the rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .exact import to_fraction


@dataclass(frozen=True)
class PointWeights:
    """Weighted multiplicities at a single marked point.

    ``entries`` is a tuple of (weight, multiplicity) pairs with the
    weights strictly increasing inside [0, 1) and every multiplicity a
    positive integer.  ``weights`` and ``multiplicities`` are its two
    columns, stored once and left out of ``repr``, ``==`` and ``hash``.
    """

    entries: tuple[tuple[Fraction, int], ...]
    weights: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    multiplicities: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("at least one weight is required")
        prev = None
        for w, m in self.entries:
            if not isinstance(w, Fraction):
                raise TypeError(f"weight must be a Fraction, got {w!r}")
            if not (0 <= w < 1):
                raise ValueError(f"weight {w} outside [0, 1)")
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"multiplicity must be a positive integer, got {m!r}")
            if prev is not None and w <= prev:
                raise ValueError("weights must be strictly increasing")
            prev = w
        object.__setattr__(self, "weights", tuple(w for w, _ in self.entries))
        object.__setattr__(self, "multiplicities", tuple(m for _, m in self.entries))

    @staticmethod
    def of(weights, mults) -> "PointWeights":
        ws = [to_fraction(w) for w in weights]
        ms = list(mults)
        if len(ws) != len(ms):
            raise ValueError("weights and multiplicities differ in length")
        return PointWeights(tuple(zip(ws, ms)))

    @property
    def length(self) -> int:
        return len(self.entries)

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def weighted_sum(self) -> Fraction:
        return sum((m * w for w, m in self.entries), Fraction(0))

    def dimension_profile(self) -> tuple[int, ...]:
        """Dimensions of the flag steps: entry i is the sum of the
        multiplicities from position i on."""
        out = []
        acc = 0
        for _, m in reversed(self.entries):
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
                for (w, _), n in zip(pw.entries, vec):
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
