"""Seeded inputs for the parastrata benchmark.

Nothing here imports parastrata: the inputs, and the time spent making
them, must not move when the library changes.  Each workload is an
endless sequence of rounds.  A round has a fixed composition (the same
request kinds and sizes every time), so the work per round barely
depends on the seed and a run can stop at a round boundary.  Every
request carries the facts its output check needs, computed here with
the benchmark's own integer and Fraction arithmetic.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

SWEEP_RANKS = (2, 3, 4, 6)
DESCEND_ORDERS = (2, 3, 4, 5, 6, 8, 12)
DESCEND_RANKS = range(2, 9)
# orders 15-30 whose field degree phi(d) is at most 8
DESCEND_HIGH_ORDERS = (15, 16, 18, 20, 24, 30)
DESCEND_HIGH_RANKS = (1, 2, 3)
CONVENTIONS = ("strict", "non-strict")
# Warm-up draws keys the timed requests never use: r = 5 strata keys
# and cyclotomic orders 7, 11 and 13.
WARMUP_ORDERS = (7, 11, 13)
WARMUP_RANK = 5

_WEIGHT_POOL = sorted({Fraction(num, den) for den in range(2, 13) for num in range(den)})


@dataclass
class Request:
    kind: str
    argv: list[str]
    payload: object
    expect: dict = field(default_factory=dict)

    @property
    def stdin(self) -> bytes:
        return json.dumps(self.payload).encode()


def frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def random_weights(rng: random.Random, length: int) -> list[Fraction]:
    return sorted(rng.sample(_WEIGHT_POOL, length))


def random_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def compositions(total: int, max_parts: int):
    """All compositions of total into at most max_parts positive parts."""
    for parts in range(1, min(total, max_parts) + 1):
        for cuts in itertools.combinations(range(1, total), parts - 1):
            yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))


def point_doc(weights, mults) -> dict:
    return {"weights": [frac_str(w) for w in weights], "mults": list(mults)}


def flag_dimension(mults) -> int:
    total, suffix = 0, sum(mults)
    for m in mults:
        suffix -= m
        total += m * suffix
    return total


# --- sweep --------------------------------------------------------------------


def sweep_line_count(ranks, max_points: int = 2, max_len: int = 3) -> int:
    """Configurations one genus contributes to a codim sweep."""
    total = 0
    for r in ranks:
        per_point = sum(comb(r - 1, k - 1) for k in range(1, min(max_len, r) + 1))
        systems = sum(per_point**n for n in range(max_points + 1))
        total += systems * sum(1 for d in range(2, r + 1) if r % d == 0)
    return total


def sweep_request(g: int, ranks, max_points: int = 2) -> Request:
    payload = {"g": [g], "r": list(ranks)}
    if max_points != 2:
        payload["max_points"] = max_points
    return Request("sweep", ["codim", "--sweep"], payload, {"lines": sweep_line_count(ranks, max_points)})


def sweep_rounds(rng: random.Random):
    # Per-point work does not depend on the genus, so each request is a
    # one-genus slice of the acceptance grid g = 2..5.
    while True:
        yield [sweep_request(rng.randint(2, 5), SWEEP_RANKS)]


def sweep_warmup(rng: random.Random) -> list[Request]:
    return [
        sweep_request(rng.randint(2, 5), (WARMUP_RANK,), max_points=1),
        codim_request(rng, WARMUP_RANK, WARMUP_RANK, [(1, 1, 3)]),
    ]


# --- cyclotomic arithmetic for descend inputs ----------------------------------


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (den monic), low degree first."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        for i, b in enumerate(den):
            num[k + i] -= c * b
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cyclotomic_poly(d: int, _cache: dict = {}) -> list[int]:
    if d not in _cache:
        acc = [1]
        for e in range(1, d):
            if d % e == 0:
                acc = _poly_mul(acc, cyclotomic_poly(e))
        _cache[d] = _poly_divexact([-1] + [0] * (d - 1) + [1], acc)
    return _cache[d]


def power_table(d: int) -> list[list[int]]:
    """Row k: coefficients of x^k mod Phi_d in the power basis, k < d."""
    mod = cyclotomic_poly(d)
    deg = len(mod) - 1
    rows = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(d):
        rows.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * m for c, m in zip(cur, mod)]
    return rows


def field_degree(d: int) -> int:
    return len(cyclotomic_poly(d)) - 1


def scalar_doc(coeffs: list[int]):
    if not any(coeffs[1:]):
        return str(coeffs[0])
    return [str(c) for c in coeffs]


def unimodular_pair(rng: random.Random, n: int, template: int) -> tuple[list[list[int]], list[list[int]]]:
    """An integer matrix P with det +-1 and its integral inverse.

    P is S T for a fixed template T (2n elementary row operations with
    multipliers +-1, drawn from the template number alone) and a seeded
    signed permutation S.  The size of P's entries, which drives the
    cost of exact elimination, is then the same for every seed."""
    t_rng = random.Random(f"unimodular/{n}/{template}")
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    t_inv = [row[:] for row in t]
    for _ in range(2 * n if n > 1 else 0):
        i, j = t_rng.sample(range(n), 2)
        c = t_rng.choice((-1, 1))
        t[j] = [a + c * b for a, b in zip(t[j], t[i])]  # row_j += c row_i
        for row in t_inv:  # column_i -= c column_j
            row[i] -= c * row[j]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = [[signs[i] * x for x in t[perm[i]]] for i in range(n)]
    p_inv = [[signs[j] * row[perm[j]] for j in range(n)] for row in t_inv]
    return p, p_inv


def descend_request(
    rng: random.Random, d: int, n: int, convention: str, length: int, uniform: bool, template: int
) -> Request:
    """phi = P diag(zeta^e) P^-1 with a flag of the given length spanned
    by nested subsets of P's columns, so the expected multiplicity
    matrix is known.  With uniform set (and d dividing n) every
    eigenvalue occurs n/d times: the fixed-point shape."""
    if uniform and n % d == 0:
        exps = [k % d for k in range(n)]  # fixed-point shape: each eigenvalue n/d times
        rng.shuffle(exps)
    else:
        exps = [rng.randrange(d) for _ in range(n)]
    p, pinv = unimodular_pair(rng, n, template)
    table = power_table(d)
    deg = len(table[0])
    matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = [0] * deg
            for k in range(n):
                c = p[i][k] * pinv[k][j]
                if c:
                    acc = [a + c * t for a, t in zip(acc, table[exps[k]])]
            row.append(scalar_doc(acc))
        matrix.append(row)
    sizes = [n] + sorted(rng.sample(range(1, n), length - 1), reverse=True)
    order = list(range(n))
    rng.shuffle(order)
    columns = [[str(p[i][k]) for i in range(n)] for k in range(n)]
    subspaces = [[columns[k] for k in order[:s]] for s in sizes]
    weights = random_weights(rng, length)
    # fiber j (1..d) holds eigenvalue zeta^(j mod d); column k counts the
    # columns of P in step k but not in step k + 1 with that eigenvalue
    expected = []
    for j in range(1, d + 1):
        row = []
        for k, s in enumerate(sizes):
            below = sizes[k + 1] if k + 1 < len(sizes) else 0
            row.append(sum(1 for c in order[below:s] if exps[c] == j % d))
        expected.append(row)
    payload = {
        "order": d,
        "automorphism": matrix,
        "flag": {"weights": [frac_str(w) for w in weights], "subspaces": subspaces},
    }
    return Request(
        "descend",
        ["descend", "--convention", convention],
        payload,
        {
            "rank": n,
            "order": d,
            "mults": [s - (sizes[k + 1] if k + 1 < len(sizes) else 0) for k, s in enumerate(sizes)],
            "matrix": expected,
            "fixed_point_shape": n % d == 0 and all(exps.count(e) == n // d for e in range(d)),
            "holds": convention == "strict",
        },
    )


DESCEND_CELLS = [(d, n) for d in DESCEND_ORDERS for n in DESCEND_RANKS] + [
    (d, n) for d in DESCEND_HIGH_ORDERS for n in DESCEND_HIGH_RANKS
]


def descend_rounds(rng: random.Random):
    # The shape of each cell (flag length, convention, fixed-point shape
    # or not, unimodular template) is fixed, so every round and every
    # seed does about the same work; the seed draws the rest.
    while True:
        reqs = [
            descend_request(rng, d, n, CONVENTIONS[i % 2], 1 + i % n, (n // d) % 2 == 1, i % 4)
            for i, (d, n) in enumerate(DESCEND_CELLS)
        ]
        rng.shuffle(reqs)
        yield reqs


def descend_warmup(rng: random.Random) -> list[Request]:
    return [descend_request(rng, d, 2, CONVENTIONS[i % 2], 2, False, i) for i, d in enumerate(WARMUP_ORDERS)]


# --- requests: a mix of small documented-style requests -----------------------


def dim_request(rng: random.Random) -> Request:
    g = rng.randint(2, 6)
    r = rng.randint(1, 6)
    points = []
    for _ in range(rng.randint(0, 3)):
        length = rng.randint(1, min(3, r))
        points.append((random_weights(rng, length), random_composition(rng, r, length)))
    dimension = (r * r - 1) * (g - 1) + sum(flag_dimension(m) for _, m in points)
    payload = {"g": g, "r": r, "points": [point_doc(w, m) for w, m in points]}
    return Request("dim", ["dim"], payload, {"dimension": dimension})


def generic_request(rng: random.Random) -> Request:
    rank = rng.randint(1, 4)
    degree = rng.randint(-3, 3)
    points = []
    for _ in range(rng.randint(0, 3)):
        length = rng.randint(1, min(3, rank))
        points.append((random_weights(rng, length), random_composition(rng, rank, length)))
    payload = {"rank": rank, "degree": degree, "points": [point_doc(w, m) for w, m in points]}
    return Request("generic", ["generic"], payload, {"rank": rank, "degree": degree, "points": points})


def codim_keys(ranks, max_len: int = 3) -> list[tuple[int, int, tuple[int, ...]]]:
    """Per-point survey keys (r, d, mults): the survey of one point
    depends only on the multiplicities, r/d and d."""
    return [
        (r, d, m)
        for r in ranks
        for d in range(2, r + 1)
        if r % d == 0
        for m in compositions(r, max_len)
    ]


def codim_request(rng: random.Random, r: int, d: int, mults_list) -> Request:
    g = rng.randint(2, 5)
    e = rng.randint(-6, 6)
    points = [(random_weights(rng, len(m)), list(m)) for m in mults_list]
    payload = {"g": g, "r": r, "d": d, "e": e, "points": [point_doc(w, m) for w, m in points]}
    q = r // d
    num_indices = 1
    for _, m in points:
        num_indices *= sum(comb(len(m), k) for k in range(1, min(len(m), q) + 1)) ** d
    return Request(
        "codim",
        ["codim"],
        payload,
        {
            "dim_M": (r * r - 1) * (g - 1) + sum(flag_dimension(m) for _, m in points),
            "bound": Fraction(r * r * (g - 1) * (d - 1), d),
            "delta": e % r,
            "num_indices": num_indices,
            "base": (g - 1) * (r * r // d - 1),
        },
    )


class KeyPool:
    """Survey keys handed out without repeats until the pool is spent,
    then reshuffled."""

    def __init__(self, rng: random.Random, keys):
        self.rng = rng
        self.keys = list(keys)
        self.left: list = []

    def take(self, match=None):
        if not self.left:
            self.left = self.keys[:]
            self.rng.shuffle(self.left)
        for i, key in enumerate(self.left):
            if match is None or key[:2] == match:
                return self.left.pop(i)
        return None


def codim_from_pool(rng: random.Random, pool: KeyPool) -> Request:
    r, d, m = pool.take()
    mults = [m]
    if rng.random() < 0.5:
        other = pool.take((r, d))
        if other is not None:
            mults.append(other[2])
    return codim_request(rng, r, d, mults)


# strata listings between roughly 3 and 73 KB of report
STRATA_KEYS = [(4, 2, (1, 2, 1)), (4, 2, (2, 1, 1)), (4, 2, (1, 1, 2)), (4, 4, (1, 2, 1)),
               (4, 4, (2, 1, 1)), (4, 4, (1, 1, 2)), (4, 2, (2, 2)), (6, 3, (2, 2, 2)),
               (6, 3, (1, 2, 3)), (6, 2, (2, 2, 2)), (6, 3, (4, 1, 1)), (3, 3, (1, 1, 1))]


def strata_request(rng: random.Random, key) -> Request:
    r, d, m = key
    req = codim_request(rng, r, d, [m])
    req.kind = "strata"
    req.argv = ["strata"]
    req.expect["points"] = [(r // d, d, list(m))]
    return req


def pushforward_request(rng: random.Random) -> Request:
    degree = rng.randint(1, 4)
    rank = rng.randint(1, 3)
    deg = rng.randint(-5, 5)
    fibers = {f"p{b + 1}": [f"q{b + 1}_{j + 1}" for j in range(degree)] for b in range(rng.randint(1, 2))}
    data = {}
    for fib in fibers.values():
        for q in fib:
            length = rng.randint(1, min(3, rank))
            data[q] = (random_weights(rng, length), random_composition(rng, rank, length))
    merged = {}
    par_deg = Fraction(deg)
    for base, fib in fibers.items():
        acc: dict[Fraction, int] = {}
        for q in fib:
            for w, m in zip(*data[q]):
                acc[w] = acc.get(w, 0) + m
                par_deg += m * w
        merged[base] = point_doc(sorted(acc), [acc[w] for w in sorted(acc)])
    payload = {
        "cover": {"degree": degree, "fibers": fibers},
        "datum": {"rank": rank, "degree": deg, "points": {q: point_doc(*v) for q, v in data.items()}},
    }
    return Request(
        "pushforward",
        ["pushforward"],
        payload,
        {
            "rank": degree * rank,
            "degree": deg,
            "points": merged,
            "par_degree": frac_str(par_deg),
            "par_slope": frac_str(par_deg / (degree * rank)),
        },
    )


_FAMILIES = [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)] + [
    ("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)] + [
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def flagcoh_request(rng: random.Random, total_rank: int) -> Request:
    """A Cartan type of exactly the given total rank (components sorted)."""
    comps = []
    left = total_rank
    while left:
        fits = [c for c in _FAMILIES if c[1] <= left]
        comp = rng.choice(fits)
        comps.append(comp)
        left -= comp[1]
    comps.sort()
    parabolics = []
    for _ in range(rng.randint(1, 3)):
        parabolics.append([sorted(rng.sample(range(1, n + 1), rng.randint(0, n))) for _, n in comps])
    payload = {
        "type": [list(c) for c in comps],
        "parabolics": parabolics if len(comps) > 1 else [p[0] for p in parabolics],
        "pic_rank_qg": rng.randint(1, 3),
        "b2_mg": rng.randint(0, 3),
    }
    return Request(
        "flagcoh",
        ["flagcoh"],
        payload,
        {
            "pic_ranks": [total_rank - sum(len(s) for s in p) for p in parabolics],
            "pic_rank_qg": payload["pic_rank_qg"],
            "b2_mg": payload["b2_mg"],
        },
    )


REQUESTS_MIX = ("dim", "dim", "generic", "generic", "codim", "strata", "pushforward", "pushforward",
                "flagcoh", "flagcoh")


def requests_rounds(rng: random.Random):
    pool = KeyPool(rng, codim_keys(SWEEP_RANKS))
    strata_pool = KeyPool(rng, STRATA_KEYS)
    makers = {
        "dim": lambda: dim_request(rng),
        "generic": lambda: generic_request(rng),
        "codim": lambda: codim_from_pool(rng, pool),
        "strata": lambda: strata_request(rng, strata_pool.take()),
        "pushforward": lambda: pushforward_request(rng),
        "flagcoh": lambda: flagcoh_request(rng, rng.randint(1, 8)),
    }
    while True:
        reqs = [makers[kind]() for kind in REQUESTS_MIX]
        rng.shuffle(reqs)
        yield reqs


def requests_warmup(rng: random.Random) -> list[Request]:
    return [
        dim_request(rng),
        generic_request(rng),
        codim_request(rng, WARMUP_RANK, WARMUP_RANK, [(2, 3)]),
        strata_request(rng, (WARMUP_RANK, WARMUP_RANK, (1, 4))),
        pushforward_request(rng),
        flagcoh_request(rng, 8),
    ]


WORKLOADS = {
    "sweep": (sweep_rounds, sweep_warmup),
    "descend": (descend_rounds, descend_warmup),
    "requests": (requests_rounds, requests_warmup),
}


def streams(workload: str, seed: int):
    """(timed rounds, warm-up requests), from separate seed streams."""
    rounds, warmup = WORKLOADS[workload]
    return rounds(random.Random(f"{workload}/timed/{seed}")), warmup(random.Random(f"{workload}/warmup/{seed}"))
