"""Shared helpers for the test suite: seeded random generators for
parabolic data, covers, and finite-order flag automorphisms; matrix
powers; and a reference arithmetic for Q(zeta_d) on ``Fraction``
coefficients (schoolbook product, extended-Euclid inverse); the
benchmark's input generator, loaded as a module; the tree-built
``strata`` report, the slow oracle for the CLI's listing; and the
``descend`` scalar parse through ``Cyclotomic`` values, the oracle for
the CLI's residue parse."""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

from parastrata import (
    CoverSpec,
    ExactMatrix,
    FlagAutomorphism,
    ParabolicDatum,
    PointWeights,
    WeightedFlag,
    cyclotomic_field,
    inverse,
    rank,
)
from parastrata import strata as st
from parastrata.cli import VERSION, _parse_strata_common, echo_point, frac_str, parse_fraction


def benchmark_gen(monkeypatch):
    """``perfbench/gen.py``, which makes the benchmark's inputs from a
    seed, imported under a name registered for the test's duration."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen


def strata_report_oracle(payload) -> bytes:
    """The ``strata`` report for a valid payload, built as a tree with one
    dict per index and one list per matrix row, and written by
    ``json.dumps(indent=2, ensure_ascii=False)``."""
    echo, spec, d = _parse_strata_common(payload)
    per_point = []
    num_indices = 1
    num_systems = 1
    for pid, pw in spec.points:
        point = echo_point(pw)
        labels = point["weights"]
        indices = [
            {
                "subsets": [[labels[k] for k in sub] for sub in t],
                "matrices": [
                    {"entries": [list(row) for row in mat.entries], "flag_term": st.matrix_flag_term(mat)}
                    for mat in mats
                ],
            }
            for t, mats in st.point_systems(pw, spec.rank, d)
        ]
        num_indices *= len(indices)
        num_systems *= sum(len(index["matrices"]) for index in indices)
        subset_count = st.subset_count(pw.length, spec.rank // d)
        per_point.append({"point": pid, **point, "subset_count": subset_count, "indices": indices})
    result = {"num_indices": num_indices, "num_systems": num_systems, "per_point": per_point}
    report = {"version": VERSION, "subcommand": "strata", "input": echo, "result": result}
    return (json.dumps(report, indent=2, ensure_ascii=False) + "\n").encode()


def random_weights(rng, length, max_den=12):
    """Strictly increasing rationals in [0, 1)."""
    pool = sorted({Fraction(num, den) for den in range(2, max_den + 1) for num in range(den)})
    picks = rng.sample(pool, length)
    return sorted(picks)


def random_composition(rng, total, parts):
    """A composition of `total` into `parts` positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    prev = 0
    out = []
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return out


def random_point_weights(rng, rank_value, max_len=3):
    length = rng.randint(1, min(max_len, rank_value))
    mults = random_composition(rng, rank_value, length)
    return PointWeights.of(random_weights(rng, length), mults)


def random_cover(rng, degree, n_base):
    fibers = {}
    for b in range(n_base):
        base = f"p{b + 1}"
        fibers[base] = [f"q{b + 1}_{j + 1}" for j in range(degree)]
    return CoverSpec.of(degree, fibers)


def random_total_datum(rng, cover, rank_value, max_len=3):
    degree = rng.randint(-5, 5)
    points = {q: random_point_weights(rng, rank_value, max_len) for q in cover.fiber_points}
    return ParabolicDatum.of(rank_value, degree, points)


def random_base_datum(rng, cover, rank_value, max_len=3):
    degree = rng.randint(-5, 5)
    points = {p: random_point_weights(rng, rank_value, max_len) for p in cover.base_points}
    return ParabolicDatum.of(rank_value, degree, points)


def random_invertible(rng, field, n, low=-3, high=3):
    while True:
        rows = [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]
        m = ExactMatrix.from_rows(field, rows)
        if rank(m) == n:
            return m


def random_flag_automorphism(rng, r, d, max_len=3, uniform=False):
    """A pair (phi, flag) with phi**d = 1 and phi preserving the flag.

    Eigenvector columns come from a random invertible matrix; the flag
    subspaces are spanned by nested subsets of those columns, so the
    construction realizes every invariant-flag situation.  With
    ``uniform`` each eigenvalue exponent occurs exactly r/d times.
    """
    field = cyclotomic_field(d)
    if uniform:
        assert r % d == 0
        exponents = [e for e in range(d) for _ in range(r // d)]
        rng.shuffle(exponents)
    else:
        exponents = [rng.randrange(d) for _ in range(r)]
    p = random_invertible(rng, field, r)
    diag = ExactMatrix(
        field, r, r,
        [field.zeta(exponents[i]) if i == j else field.zero
         for i in range(r) for j in range(r)],
    )
    phi_matrix = p * diag * inverse(p)
    phi = FlagAutomorphism(phi_matrix, d)

    columns = [p.column(s) for s in range(r)]
    length = rng.randint(1, min(max_len, r))
    dims = [r] + sorted(rng.sample(range(1, r), length - 1), reverse=True)
    chain = [list(range(r))]
    for size in dims[1:]:
        chain.append(sorted(rng.sample(chain[-1], size)))
    subspaces = [
        ExactMatrix.from_rows(field, [columns[s] for s in subset]) for subset in chain
    ]
    weights = random_weights(rng, length)
    flag = WeightedFlag(d, subspaces, weights)
    return phi, flag


def is_identity(m):
    return m == ExactMatrix.identity(m.field, m.rows) if m.rows == m.cols else False


def matrix_power(m, n):
    """m**n by repeated squaring, for n >= 0."""
    if m.rows != m.cols or n < 0:
        raise ValueError("power of a non-square matrix or negative power")
    acc = ExactMatrix.identity(m.field, m.rows)
    while n:
        if n & 1:
            acc = acc * m
        m = m * m
        n >>= 1
    return acc


# --- reference arithmetic in Q(zeta_d): Fraction coefficient lists --------------


def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _poly_divmod(a, b):
    rem = list(a)
    quot = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    for k in range(len(rem) - 1, len(b) - 2, -1):
        if rem[k]:
            f = rem[k] if b[-1] == 1 else rem[k] / b[-1]  # integers stay integers
            quot[k - len(b) + 1] = f
            for i, m in enumerate(b):
                rem[k - len(b) + 1 + i] -= f * m
    return _trim(quot), _trim(rem)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_reduce(field, coeffs):
    """The coefficients of a polynomial modulo the field's modulus, by
    long division, padded to the field degree.  The modulus is monic, so
    Fraction coefficients give Fractions and integer ones integers."""
    rem = _poly_divmod(list(coeffs), list(field.modulus.coeffs))[1]
    return tuple(rem + [Fraction(0)] * (field.degree - len(rem)))


def ref_mul(field, a, b):
    return ref_reduce(field, _poly_mul(list(a), list(b)))


def ref_inverse(field, a):
    """Inverse of a nonzero residue by the extended Euclidean algorithm:
    s*a = g modulo the modulus, with g a nonzero constant."""
    r0, r1 = _trim(list(a)), [Fraction(c) for c in field.modulus.coeffs]
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        qs = _poly_mul(q, s1)
        nxt = s0 + [Fraction(0)] * max(0, len(qs) - len(s0))
        for i, c in enumerate(qs):
            nxt[i] -= c
        s0, s1 = s1, _trim(nxt)
    assert len(r0) == 1, "gcd with the modulus is not constant"
    return ref_reduce(field, [c / r0[0] for c in s0])


# --- descend scalars through Cyclotomic values ---------------------------------


def scalar_value(x, field):
    """A valid raw ``descend`` scalar, a rational string or a coefficient
    list, as a ``Cyclotomic``: through ``Fraction`` values, by
    ``field.element`` and ``field.from_rational``."""
    if isinstance(x, list):
        return field.element([parse_fraction(c, "$") for c in x])
    return field.from_rational(parse_fraction(x, "$"))


def scalar_json(value):
    """A field element as ``descend`` echoes it: a rational string, or
    the rational strings of its power-basis coefficients."""
    if value.is_rational():
        return frac_str(value.rational_value())
    return [frac_str(c) for c in value.coeffs]
