"""Root-system combinatorics: Weyl group Poincare polynomials, Levi
subdiagram classification, Betti numbers and Picard ranks of flag
varieties G/P, and the Kunneth assembly of second Betti numbers.

A Poincare polynomial is the tuple of its coefficients in the variable
q, constant term first, as `q_ratio` returns it: entry k is the Betti
number in (real) degree 2k, since all spaces modeled here have
cohomology in even degrees only.  A parabolic is the tuple of its
per-component index tuples: for each simple component, the strictly
increasing 1-based simple-root indices kept in the Levi.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .exact import q_ratio

_RANK_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

# Degrees of the fundamental invariants; their product is the Weyl
# group order and they generate the Poincare polynomial.
_DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "C": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "D": lambda n: tuple(range(2, 2 * n - 1, 2)) + (n,),
    "E": lambda n: {
        6: (2, 5, 6, 8, 9, 12),
        7: (2, 6, 8, 10, 12, 14, 18),
        8: (2, 8, 12, 14, 18, 20, 24, 30),
    }[n],
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}


@dataclass(frozen=True)
class CartanType:
    """List of simple components (family letter, rank), kept sorted."""

    components: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        for fam, n in self.components:
            if fam not in _RANK_RULES:
                raise ValueError(f"unknown family {fam!r}")
            if not isinstance(n, int) or isinstance(n, bool) or not _RANK_RULES[fam](n):
                raise ValueError(f"invalid rank {n} for family {fam}")
        if list(self.components) != sorted(self.components):
            raise ValueError("components must be sorted canonically")

    @staticmethod
    def of(components) -> "CartanType":
        comps = sorted((str(f), int(n)) for f, n in components)
        return CartanType(tuple(comps))

    @property
    def total_rank(self) -> int:
        return sum(n for _, n in self.components)


# per component, the strictly increasing 1-based simple-root indices
# kept in the Levi
Parabolic = tuple[tuple[int, ...], ...]


def _check_subset(t: CartanType, I: Parabolic) -> None:
    if len(I) != len(t.components):
        raise ValueError(f"{len(I)} index subsets for {len(t.components)} components")
    for (fam, n), sub in zip(t.components, I):
        for i in sub:
            if not (1 <= i <= n):
                raise ValueError(f"simple-root index {i} out of range for {fam}{n}")
        if any(a >= b for a, b in zip(sub, sub[1:])):
            raise ValueError(f"simple-root indices {list(sub)} are not strictly increasing")


def fundamental_degrees(t: CartanType) -> tuple[int, ...]:
    degs: list[int] = []
    for fam, n in t.components:
        degs.extend(_DEGREES[fam](n))
    return tuple(degs)


def weyl_poincare(t: CartanType) -> tuple[int, ...]:
    """Length generating function of the Weyl group: the product of the
    q-integers [d]_q = (q**d - 1)/(q - 1) over the fundamental degrees."""
    return q_ratio(fundamental_degrees(t), ())


# --- Dynkin diagrams -------------------------------------------------------
#
# Nodes are 1..n.  Every connected Dynkin diagram is a path, the spine,
# with at most one node off it, the branch, bonded to one spine node,
# the joint (Bourbaki, Lie Groups and Lie Algebras, Ch. IV-VI, Plates
# I-IX).  The short simple roots tell B from C pieces.


def _shape(fam: str, n: int) -> tuple[tuple[int, ...], int | None, int | None, dict[int, int], frozenset[int]]:
    """(spine, branch, joint, bonds, short): the spine's nodes in order,
    the node off the spine and the spine node it hangs from (both None
    for a path), the multiple bond keyed by its lower node, and the
    short simple roots."""
    nodes = tuple(range(1, n + 1))
    if fam == "D":
        return nodes[:-1], n, n - 2, {}, frozenset()
    if fam == "E":
        return (1,) + nodes[2:], 2, 4, {}, frozenset()
    if fam == "B":
        return nodes, None, None, {n - 1: 2}, frozenset((n,))
    if fam == "C":
        return nodes, None, None, {n - 1: 2}, frozenset(nodes[:-1])
    if fam == "F":
        return nodes, None, None, {2: 2}, frozenset((3, 4))
    if fam == "G":
        return nodes, None, None, {1: 3}, frozenset((1,))
    return nodes, None, None, {}, frozenset()


def cartan_matrix(fam: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix C with C[i][j] = 2 (a_i, a_j) / (a_j, a_j): -bond
    where a long node a_i meets a short one a_j, -1 on every other edge."""
    spine, branch, joint, bonds, short = _shape(fam, n)
    edges = [(u, v, bonds.get(u, 1)) for u, v in zip(spine, spine[1:])]
    if branch is not None:
        edges.append((joint, branch, 1))
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for u, v, bond in edges:
        for a, b in ((u, v), (v, u)):
            mat[a - 1][b - 1] = -bond if b in short and a not in short else -1
    return tuple(tuple(row) for row in mat)


@functools.lru_cache(maxsize=None)
def _component_order(fam: str, n: int) -> int:
    cm = cartan_matrix(fam, n)
    # rho = (1, ..., 1) is regular; s_i subtracts lam_i times alpha_i,
    # whose fundamental-weight coordinates are row i of the Cartan matrix
    start = (1,) * n
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for lam in frontier:
            for i in range(n):
                w = tuple(lam[j] - lam[i] * cm[i][j] for j in range(n))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def weyl_bfs_order(t: CartanType) -> int:
    """Weyl group order by breadth-first closure of the orbit of the
    regular weight rho under the simple reflections, in fundamental-weight
    coordinates.

    Independent of the fundamental-degree tables; guarded to total rank
    at most 6.
    """
    if t.total_rank > 6:
        raise ValueError("rank guard: breadth-first order is limited to total rank <= 6")
    order = 1
    for fam, n in t.components:
        order *= _component_order(fam, n)
    return order


def levi_components(t: CartanType, I: Parabolic) -> CartanType:
    """Classify the Dynkin subdiagram spanned by the retained simple
    roots into simple components: the runs of retained nodes along the
    spine, with the branch node joined to the run that holds its joint,
    or else an A1 of its own."""
    _check_subset(t, I)
    pieces: list[tuple[str, int]] = []
    for (fam, n), sub in zip(t.components, I):
        spine, branch, joint, bonds, short = _shape(fam, n)
        keep = set(sub)
        runs: list[list[int]] = [[]]
        for v in spine:
            if v in keep:
                runs[-1].append(v)
            elif runs[-1]:
                runs.append([])
        forked = branch in keep and joint in keep
        if branch in keep and not forked:
            pieces.append(("A", 1))
        for run in filter(None, runs):
            hub = forked and joint in run
            k = len(run) + hub
            left = run.index(joint) if hub else 0
            if 0 < left < k - 2:
                # arms of 1, left and k - 2 - left nodes around the joint
                pieces.append(("D" if min(left, k - 2 - left) == 1 else "E", k))
            elif not any(u in run[:-1] for u in bonds):
                pieces.append(("A", k))
            elif fam == "G":
                pieces.append(("G", 2))
            else:
                shorts = len(short.intersection(run))
                pieces.append(("F" if k == 4 and shorts == 2 else "B" if shorts == 1 else "C", k))
    return CartanType.of(pieces)


def _flag_ratio(t: CartanType, levis: Sequence[CartanType]) -> tuple[int, ...]:
    """prod_i W(q) / W_(L_i)(q) over the given Levi types, as one ratio of
    q-integers: G's degrees once per Levi over all the Levis' degrees,
    with the degrees they share cancelled first.  A G/P is connected
    with non-negative Betti numbers, so any other result is a fault."""
    num = Counter(fundamental_degrees(t) * len(levis))
    den = Counter(deg for levi in levis for deg in fundamental_degrees(levi))
    poly = q_ratio((num - den).elements(), (den - num).elements())
    if poly[0] != 1 or min(poly) < 0:
        raise ArithmeticError("a G/P Poincare polynomial has constant term 1 and no negative entry")
    return poly


def flag_poincare(t: CartanType, I: Parabolic) -> tuple[int, ...]:
    """Poincare polynomial of G/P: the Weyl polynomial divided exactly
    by the Weyl polynomial of the Levi."""
    return _flag_ratio(t, (levi_components(t, I),))


def pic_rank_flag(t: CartanType, I: Parabolic) -> int:
    """Picard rank of G/P: the number of deleted simple roots."""
    _check_subset(t, I)
    return t.total_rank - sum(map(len, I))


@dataclass(frozen=True)
class KunnethReport:
    """Second-Betti-number assembly for a product of flag varieties;
    ``weyl`` is W(G)'s Poincare polynomial and ``levis[i]`` the Levi
    type of the i-th parabolic.  Each factor, and their product, is one
    ratio of q-integers over the fundamental degrees."""

    factors: tuple[tuple[int, ...], ...]
    product: tuple[int, ...]
    pic_ranks: tuple[int, ...]
    b1: int
    b2: int
    b3: int
    rank_t: int
    assembled_b2: int
    weyl: tuple[int, ...]
    levis: tuple[CartanType, ...]


def kunneth_report(
    t: CartanType,
    parabolics: Sequence[Parabolic],
    pic_rank_qg: int = 1,
    b2_mg: int = 1,
) -> KunnethReport:
    """Betti/Picard bookkeeping for the product of G/P_i factors.

    Odd Betti numbers vanish structurally; b2 of the product is the sum
    of the per-factor Picard ranks; the free rank on the homogeneous
    side is that sum plus the supplied ambient Picard rank; and the
    assembled b2 adds the supplied moduli-side contribution.
    """
    if not parabolics:
        raise ValueError("at least one parabolic subset is required")
    if not isinstance(pic_rank_qg, int) or pic_rank_qg < 1:
        raise ValueError("ambient Picard rank must be a positive integer")
    if not isinstance(b2_mg, int) or b2_mg < 0:
        raise ValueError("moduli-side b2 must be a non-negative integer")
    weyl = weyl_poincare(t)
    levis = tuple(levi_components(t, I) for I in parabolics)
    factors = tuple(_flag_ratio(t, (levi,)) for levi in levis)
    product = _flag_ratio(t, levis)
    ranks = tuple(pic_rank_flag(t, I) for I in parabolics)
    b2 = product[1] if len(product) > 1 else 0
    if b2 != sum(ranks):
        raise ArithmeticError("b2 of the product disagrees with the Picard ranks")
    return KunnethReport(
        factors=factors,
        product=product,
        pic_ranks=ranks,
        b1=0,
        b2=b2,
        b3=0,
        rank_t=pic_rank_qg + sum(ranks),
        assembled_b2=b2_mg + b2,
        weyl=weyl,
        levis=levis,
    )
