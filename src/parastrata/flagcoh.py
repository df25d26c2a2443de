"""Root-system combinatorics: Weyl group Poincare polynomials, Levi
subdiagram classification, Betti numbers and Picard ranks of flag
varieties G/P, and the Kunneth assembly of second Betti numbers.

Poincare polynomials live in the variable q, where the coefficient of
q**k records the Betti number in (real) degree 2k; all spaces modeled
here have cohomology in even degrees only.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .exact import IntPolynomial, q_ratio

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

    def __str__(self) -> str:
        if not self.components:
            return "1"
        return " x ".join(f"{f}{n}" for f, n in self.components)


@dataclass(frozen=True)
class ParabolicSubset:
    """Per component, the 1-based simple-root indices kept in the Levi."""

    per_component: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(subsets) -> "ParabolicSubset":
        return ParabolicSubset(tuple(tuple(sorted(set(int(i) for i in s))) for s in subsets))

    @property
    def size(self) -> int:
        return sum(len(s) for s in self.per_component)


def _check_subset(t: CartanType, I: ParabolicSubset) -> None:
    if len(I.per_component) != len(t.components):
        raise ValueError(
            f"{len(I.per_component)} index subsets for {len(t.components)} components"
        )
    for (fam, n), sub in zip(t.components, I.per_component):
        for i in sub:
            if not (1 <= i <= n):
                raise ValueError(f"simple-root index {i} out of range for {fam}{n}")


@dataclass(frozen=True)
class PoincarePolynomial:
    """Generating function of even Betti numbers: coefficient of q**k is
    the Betti number in degree 2k."""

    poly: IntPolynomial

    def __post_init__(self) -> None:
        if self.poly.is_zero() or self.poly.coeffs[0] != 1:
            raise ValueError("constant term must be one (connected space)")
        if any(c < 0 for c in self.poly.coeffs):
            raise ValueError("Betti numbers must be non-negative")

    def betti(self, k: int) -> int:
        return self.poly.coefficient(k)

    def total(self) -> int:
        """Euler number of the even-cohomology model, i.e. value at q=1."""
        return self.poly(1)

    def is_palindromic(self) -> bool:
        return self.poly.coeffs == tuple(reversed(self.poly.coeffs))

    def coefficients(self) -> tuple[int, ...]:
        return self.poly.coeffs


def fundamental_degrees(t: CartanType) -> tuple[int, ...]:
    degs: list[int] = []
    for fam, n in t.components:
        degs.extend(_DEGREES[fam](n))
    return tuple(degs)


def weyl_poincare(t: CartanType) -> PoincarePolynomial:
    """Length generating function of the Weyl group: the product of the
    q-integers [d]_q = (q**d - 1)/(q - 1) over the fundamental degrees."""
    return PoincarePolynomial(IntPolynomial(q_ratio(fundamental_degrees(t), ())))


# --- Dynkin diagrams -------------------------------------------------------
#
# Nodes are 1..n.  Edges carry a bond count (1, 2 or 3); node lengths
# record relative squared root lengths, which the subdiagram classifier
# needs to tell B from C pieces.


def _diagram(fam: str, n: int) -> tuple[dict[frozenset[int], int], dict[int, int]]:
    edges: dict[frozenset[int], int] = {}
    lengths = {i: 2 for i in range(1, n + 1)}
    if fam == "A":
        for i in range(1, n):
            edges[frozenset((i, i + 1))] = 1
    elif fam == "B":
        for i in range(1, n):
            edges[frozenset((i, i + 1))] = 1
        edges[frozenset((n - 1, n))] = 2
        lengths[n] = 1
    elif fam == "C":
        for i in range(1, n):
            edges[frozenset((i, i + 1))] = 1
        edges[frozenset((n - 1, n))] = 2
        for i in range(1, n):
            lengths[i] = 1
    elif fam == "D":
        for i in range(1, n - 1):
            edges[frozenset((i, i + 1))] = 1
        edges[frozenset((n - 2, n))] = 1
    elif fam == "E":
        spine = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(spine, spine[1:]):
            edges[frozenset((a, b))] = 1
        edges[frozenset((2, 4))] = 1
    elif fam == "F":
        edges[frozenset((1, 2))] = 1
        edges[frozenset((2, 3))] = 2
        edges[frozenset((3, 4))] = 1
        lengths[3] = 1
        lengths[4] = 1
    elif fam == "G":
        edges[frozenset((1, 2))] = 3
        lengths[1] = 1
        lengths[2] = 3
    else:
        raise ValueError(f"unknown family {fam!r}")
    return edges, lengths


def cartan_matrix(fam: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix C with C[i][j] = 2 (a_i, a_j) / (a_j, a_j)."""
    edges, lengths = _diagram(fam, n)
    mat = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        mat[i - 1][i - 1] = 2
    for edge, bonds in edges.items():
        u, v = sorted(edge)
        for a, b in ((u, v), (v, u)):
            mat[a - 1][b - 1] = -1 if lengths[a] <= lengths[b] else -bonds
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


def _classify_piece(
    nodes: list[int],
    edges: dict[frozenset[int], int],
    lengths: dict[int, int],
) -> tuple[str, int]:
    k = len(nodes)
    if k == 1:
        return ("A", 1)
    node_set = set(nodes)
    sub_edges = {e: b for e, b in edges.items() if e <= node_set}
    bonds = set(sub_edges.values())
    if 3 in bonds:
        return ("G", 2)
    if 2 in bonds:
        lens = sorted({lengths[v] for v in nodes})
        shorts = sum(1 for v in nodes if lengths[v] == lens[0])
        longs = k - shorts
        if k == 4 and shorts == 2:
            return ("F", 4)
        if shorts == 1:
            return ("B", k)
        if longs == 1:
            return ("C", k)
        raise ValueError("unrecognized multiply-laced subdiagram")
    # simply laced: a path, a fork, or an E shape
    deg = {v: 0 for v in nodes}
    adj = {v: [] for v in nodes}
    for e in sub_edges:
        u, v = tuple(e)
        deg[u] += 1
        deg[v] += 1
        adj[u].append(v)
        adj[v].append(u)
    branch = [v for v in nodes if deg[v] >= 3]
    if not branch:
        return ("A", k)
    if len(branch) > 1 or deg[branch[0]] > 3:
        raise ValueError("unrecognized simply-laced subdiagram")
    b = branch[0]
    arm_lengths = []
    for start in adj[b]:
        length = 1
        prev, cur = b, start
        while True:
            nxts = [w for w in adj[cur] if w != prev]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            length += 1
        arm_lengths.append(length)
    arms = tuple(sorted(arm_lengths))
    if arms[:2] == (1, 1):
        return ("D", k)
    if arms == (1, 2, 2):
        return ("E", 6)
    if arms == (1, 2, 3):
        return ("E", 7)
    if arms == (1, 2, 4):
        return ("E", 8)
    raise ValueError("unrecognized simply-laced subdiagram")


def levi_components(t: CartanType, I: ParabolicSubset) -> CartanType:
    """Classify the Dynkin subdiagram spanned by the retained simple
    roots into simple components."""
    _check_subset(t, I)
    pieces: list[tuple[str, int]] = []
    for (fam, n), sub in zip(t.components, I.per_component):
        if not sub:
            continue
        edges, lengths = _diagram(fam, n)
        keep = set(sub)
        unvisited = set(sub)
        while unvisited:
            seed = min(unvisited)
            comp = {seed}
            frontier = [seed]
            while frontier:
                v = frontier.pop()
                for e, _ in edges.items():
                    if v in e:
                        (w,) = e - {v}
                        if w in keep and w not in comp:
                            comp.add(w)
                            frontier.append(w)
            unvisited -= comp
            pieces.append(_classify_piece(sorted(comp), edges, lengths))
    return CartanType.of(pieces)


def _flag_ratio(t: CartanType, levis: Sequence[CartanType]) -> PoincarePolynomial:
    """prod_i W(q) / W_(L_i)(q) over the given Levi types, as one ratio of
    q-integers: G's degrees once per Levi over all the Levis' degrees,
    with the degrees they share cancelled first."""
    num = Counter(fundamental_degrees(t) * len(levis))
    den = Counter(deg for levi in levis for deg in fundamental_degrees(levi))
    return PoincarePolynomial(IntPolynomial(q_ratio((num - den).elements(), (den - num).elements())))


def flag_poincare(t: CartanType, I: ParabolicSubset) -> PoincarePolynomial:
    """Poincare polynomial of G/P: the Weyl polynomial divided exactly
    by the Weyl polynomial of the Levi."""
    return _flag_ratio(t, (levi_components(t, I),))


def pic_rank_flag(t: CartanType, I: ParabolicSubset) -> int:
    """Picard rank of G/P: the number of deleted simple roots."""
    _check_subset(t, I)
    return t.total_rank - I.size


@dataclass(frozen=True)
class KunnethReport:
    """Second-Betti-number assembly for a product of flag varieties;
    ``weyl`` is W(G)'s Poincare polynomial and ``levis[i]`` the Levi
    type of the i-th parabolic.  Each factor, and their product, is one
    ratio of q-integers over the fundamental degrees."""

    factors: tuple[PoincarePolynomial, ...]
    product: PoincarePolynomial
    pic_ranks: tuple[int, ...]
    b1: int
    b2: int
    b3: int
    rank_t: int
    assembled_b2: int
    weyl: PoincarePolynomial
    levis: tuple[CartanType, ...]


def kunneth_report(
    t: CartanType,
    parabolics: Sequence[ParabolicSubset],
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
    b2 = product.betti(1)
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
