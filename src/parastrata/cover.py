"""Combinatorial model of a cyclic unramified cover and the parabolic
push-forward / pull-back along it.

A cover of degree d is pure bookkeeping: each base point has an
ordered fiber of d distinct points, and the Galois generator shifts
each fiber cyclically (the j-th fiber point goes to the (j+1)-st,
indices mod d).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .parabolic import ParabolicDatum, PointWeights


@dataclass(frozen=True)
class CoverSpec:
    """Degree-d cyclic cover given by its ordered fibers."""

    degree: int
    fibers: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.degree, int) or isinstance(self.degree, bool) or self.degree < 1:
            raise ValueError("cover degree must be a positive integer")
        seen_base: set[str] = set()
        seen_fiber: set[str] = set()
        prev = None
        for base, fib in self.fibers:
            if not isinstance(base, str):
                raise TypeError("point ids must be strings")
            if base in seen_base:
                raise ValueError(f"duplicate base point {base!r}")
            seen_base.add(base)
            if prev is not None and base < prev:
                raise ValueError("base points must be sorted by id")
            prev = base
            if len(fib) != self.degree:
                raise ValueError(f"fiber over {base!r} has {len(fib)} points, expected {self.degree}")
            for q in fib:
                if not isinstance(q, str):
                    raise TypeError("point ids must be strings")
                if q in seen_fiber:
                    raise ValueError(f"fiber point {q!r} appears twice")
                seen_fiber.add(q)

    @staticmethod
    def of(degree: int, fibers: Mapping[str, Sequence[str]]) -> "CoverSpec":
        items = tuple(sorted((base, tuple(fib)) for base, fib in fibers.items()))
        return CoverSpec(degree, items)

    @property
    def base_points(self) -> tuple[str, ...]:
        return tuple(base for base, _ in self.fibers)

    @property
    def fiber_points(self) -> tuple[str, ...]:
        return tuple(q for _, fib in self.fibers for q in fib)


def covering_genus(base_genus: int, degree: int) -> int:
    """Genus of the total space of a degree-d unramified cover."""
    return degree * (base_genus - 1) + 1


def pushforward_point(fiber_data: Sequence[PointWeights]) -> PointWeights:
    """Merge the weighted flags on one fiber into base-point data.

    The merged weight set is the sorted union of the fiber weight sets.
    The multiplicity of each merged weight, the dimension drop of the
    induced filtration there, is the sum of that weight's multiplicities
    over the fibers.
    """
    merged: Counter = Counter()
    for pw in fiber_data:
        merged.update(dict(zip(pw.weights, pw.multiplicities)))
    if not merged:
        raise ValueError("no fiber point carries data")
    return PointWeights(*zip(*sorted(merged.items())))


def _check_point_sets(c: CoverSpec, f: ParabolicDatum) -> None:
    if set(f.point_ids) != set(c.fiber_points):
        raise ValueError("datum points must coincide with the fiber points of the cover")


def pushforward(c: CoverSpec, f: ParabolicDatum) -> ParabolicDatum:
    """Push a datum on the fiber points down to the base points.

    The rank multiplies by the cover degree; the integer degree is
    carried through unchanged, which makes the parabolic degree an
    exact invariant of the operation.
    """
    _check_point_sets(c, f)
    data = f.point_map()
    pts = {base: pushforward_point([data[q] for q in fib]) for base, fib in c.fibers}
    return ParabolicDatum.of(c.degree * f.rank, f.degree, pts)


def pullback(c: CoverSpec, e: ParabolicDatum) -> ParabolicDatum:
    """Copy base-point data to every fiber point; degree multiplies by d."""
    if set(e.point_ids) != set(c.base_points):
        raise ValueError("datum points must coincide with the base points of the cover")
    data = e.point_map()
    pts = {q: data[base] for base, fib in c.fibers for q in fib}
    return ParabolicDatum.of(e.rank, c.degree * e.degree, pts)


def galois_twist(c: CoverSpec, f: ParabolicDatum, i: int) -> ParabolicDatum:
    """Relabel fiber data along the i-th power of the cyclic action.

    The point in position j of each fiber receives the data previously
    held at position j+i (mod d).  Rank, degree and the multiset of
    point data are preserved.
    """
    _check_point_sets(c, f)
    d = c.degree
    data = f.point_map()
    pts = {q: data[fib[(j + i) % d]] for _, fib in c.fibers for j, q in enumerate(fib)}
    return ParabolicDatum.of(f.rank, f.degree, pts)
