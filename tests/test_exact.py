import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as hs

from parastrata import (
    RATIONALS,
    CyclotomicField,
    ExactMatrix,
    charpoly,
    cyclotomic_field,
    cyclotomic_polynomial,
    hessenberg,
    inverse,
    kernel,
    rank,
    rref,
    solve,
)
from parastrata.exact import divisors, q_ratio, to_fraction
from util import is_identity, matrix_power, random_flag_automorphism, ref_inverse, ref_mul, ref_reduce


# --- independent oracles -----------------------------------------------------


def mobius(n):
    result = 1
    k = 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    if n > 1:
        result = -result
    return result


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divide_exact(num, den):
    """Fraction-based long division; asserts zero remainder."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(num) - 1, len(den) - 2, -1):
        c = num[k]
        if c:
            f = c / den[-1]
            out[k - len(den) + 1] = f
            for i, m in enumerate(den):
                num[k - len(den) + 1 + i] -= f * m
    assert all(c == 0 for c in num)
    return out


def cyclotomic_by_mobius(d):
    """Mobius-product oracle: prod over e | d of (x^(d/e) - 1)^mu(e)."""
    num = [1]
    den = [1]
    for e in divisors(d):
        mu = mobius(e)
        factor = [-1] + [0] * (d // e - 1) + [1]
        if mu == 1:
            num = poly_mul(num, factor)
        elif mu == -1:
            den = poly_mul(den, factor)
    q = poly_divide_exact(num, den)
    return tuple(int(c) for c in q)


def independent_rank(m):
    """Rank by elimination scanning columns right-to-left, picking the
    last nonzero row as pivot (a different pivot rule than rref)."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    used = [False] * len(rows)
    rk = 0
    for c in range(m.cols - 1, -1, -1):
        sel = None
        for i in range(len(rows) - 1, -1, -1):
            if not used[i] and rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        used[sel] = True
        rk += 1
        piv = rows[sel][c]
        for i in range(len(rows)):
            if not used[i] and rows[i][c]:
                f = rows[i][c] / piv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[sel])]
    return rk


# --- cyclotomic polynomials --------------------------------------------------


def test_cyclotomic_polynomial_base_case():
    assert cyclotomic_polynomial(1) == (-1, 1)


def test_cyclotomic_polynomial_small_orders():
    # frozen from the long-division oracle below
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == cyclotomic_by_mobius(4)
    assert cyclotomic_polynomial(3) == cyclotomic_by_mobius(3)


def test_cyclotomic_polynomial_against_mobius_oracle():
    for d in range(1, 31):
        assert cyclotomic_polynomial(d) == cyclotomic_by_mobius(d)


def test_cyclotomic_product_identity():
    """x**d - 1 is the product of the e-th cyclotomic polynomials over the
    divisors e of d, multiplied out densely."""
    for d in range(1, 51):
        prod = [1]
        for e in divisors(d):
            prod = poly_mul(prod, cyclotomic_polynomial(e))
        assert prod == [-1] + [0] * (d - 1) + [1]


def test_q_ratio_against_dense_arithmetic():
    """[4][6] / ([2][3]) by dense product and long division, in either
    order of the divisors; the empty ratio is 1."""
    assert q_ratio((), ()) == (1,)
    num = poly_mul([1] * 4, [1] * 6)
    expected = poly_divide_exact(num, poly_mul([1] * 2, [1] * 3))
    assert q_ratio([4, 6], [2, 3]) == tuple(expected)
    assert q_ratio([4, 6], [3, 2]) == tuple(expected)


@pytest.mark.parametrize("num, den", [([2], [3]), ([6], [4]), ([3, 3], [5]), ([2], [7]), ([0], []), ([2], [0])])
def test_q_ratio_refuses_what_is_not_a_polynomial(num, den):
    """[2]/[3] and [2]/[7]: a divisor longer than the dividend; [6]/[4]
    and [3]^2/[5]: a nonzero remainder; [0]_q: not a q-integer."""
    with pytest.raises(ValueError):
        q_ratio(num, den)


# --- cyclotomic arithmetic ---------------------------------------------------


def test_zeta4_squares_to_minus_one():
    f = cyclotomic_field(4)
    z = f.zeta()
    assert z * z == -1


def test_inverse_of_one_plus_zeta3():
    f = cyclotomic_field(3)
    a = f.one + f.zeta()
    inv = a.inverse()
    assert inv == -f.zeta()
    assert a * inv == 1


def test_number_divided_by_element():
    z = cyclotomic_field(5).zeta()
    assert 1 / z == z.inverse()
    assert (2 / z) * z == 2
    with pytest.raises(TypeError):
        "x" / z


def test_field_and_matrix_reprs():
    assert repr(cyclotomic_field(5)) == "QQ(zeta_5)"
    m = ExactMatrix.from_rows(cyclotomic_field(1), [[1, 0], [0, Fraction(1, 2)]])
    assert repr(m) == "ExactMatrix(2x2 over QQ(zeta_1): 1, 0; 0, 1/2)"


def test_additive_identity():
    f = cyclotomic_field(5)
    a = f.element([Fraction(2, 3), Fraction(-1), Fraction(0), Fraction(4)])
    assert a + f.zero == a


def test_order_mismatch_rejected():
    a = cyclotomic_field(3).zeta()
    b = cyclotomic_field(4).zeta()
    with pytest.raises(ValueError):
        a + b


def test_from_rational_rejects_floats():
    for order in (1, 3):
        with pytest.raises(TypeError):
            cyclotomic_field(order).from_rational(0.5)
    assert cyclotomic_field(1).from_rational("1/2") == Fraction(1, 2)


def test_to_fraction_passes_fractions_and_refuses_floats():
    f = Fraction(3, 4)
    assert to_fraction(f) is f

    class Half(Fraction):
        pass

    out = to_fraction(Half(1, 2))
    assert type(out) is Fraction and out == Fraction(1, 2)
    for x in (0.5, 1e300, float("inf")):
        with pytest.raises(TypeError):
            to_fraction(x)
    assert to_fraction(3) == 3 and type(to_fraction(3)) is Fraction
    assert to_fraction("-6/8") == Fraction(-3, 4)


def test_element_rejects_floats():
    for order in (1, 3):
        field = cyclotomic_field(order)
        with pytest.raises(TypeError):
            field.element([0.1])
        with pytest.raises(TypeError):
            field.element([Fraction(1, 2), 0.5])
    assert cyclotomic_field(3).element(["1/10", 2]).coeffs == (Fraction(1, 10), Fraction(2))


def test_inversion_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        cyclotomic_field(6).zero.inverse()


def test_random_inverses_multiply_to_one():
    rng = random.Random(71)
    for _ in range(200):
        d = rng.randint(1, 12)
        f = cyclotomic_field(d)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(f.degree)]
        a = f.element(coeffs)
        if not a:
            continue
        assert a * a.inverse() == 1


def test_zeta_has_exact_order():
    for d in range(1, 13):
        f = cyclotomic_field(d)
        z = f.zeta()
        assert z**d == 1
        for k in range(1, d):
            assert z**k != 1 or d == 1


def test_field_axioms_on_random_elements():
    rng = random.Random(5)
    f = cyclotomic_field(8)
    def rnd():
        return f.element([Fraction(rng.randint(-3, 3)) for _ in range(f.degree)])
    for _ in range(50):
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


# --- kernels -----------------------------------------------------------------


def test_kernel_rank_one_matrix():
    m = ExactMatrix.from_rows(RATIONALS, [[1, 1], [1, 1]])
    assert kernel(m) == ((Fraction(1), Fraction(-1)),)


def test_kernel_of_identity_is_empty():
    m = ExactMatrix.identity(RATIONALS, 3)
    assert kernel(m) == ()


def test_kernel_cyclotomic_eigenvector():
    f = cyclotomic_field(4)
    z = f.zeta()
    m = ExactMatrix.from_rows(f, [[0, -1], [1, 0]])
    shifted = m - ExactMatrix.identity(f, 2).scaled(z)
    basis = kernel(shifted)
    assert basis == ((f.one, -z),)
    # direct verification: m v = zeta v
    v = basis[0]
    assert m.apply(v) == tuple(z * c for c in v)


def test_random_kernels_rational():
    rng = random.Random(99)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ExactMatrix(
            RATIONALS, rows, cols,
            [Fraction(rng.randint(-3, 3)) for _ in range(rows * cols)],
        )
        basis = kernel(m)
        zero = (Fraction(0),) * rows
        for v in basis:
            assert m.apply(v) == zero
        assert len(basis) == cols - independent_rank(m)


def test_random_kernels_cyclotomic():
    rng = random.Random(17)
    f = cyclotomic_field(3)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        ents = [f.element([Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))])
                for _ in range(rows * cols)]
        m = ExactMatrix(f, rows, cols, ents)
        basis = kernel(m)
        zero = (f.zero,) * rows
        for v in basis:
            assert m.apply(v) == zero
        assert len(basis) == cols - independent_rank(m)


def test_kernel_of_zero_rows_is_full_space():
    m = ExactMatrix.zeros(RATIONALS, 0, 3)
    basis = kernel(m)
    assert len(basis) == 3


# --- elimination helpers -----------------------------------------------------


def test_rref_is_idempotent_and_pivots_sorted():
    rng = random.Random(3)
    for _ in range(40):
        m = ExactMatrix(
            RATIONALS, 4, 5,
            [Fraction(rng.randint(-2, 2)) for _ in range(20)],
        )
        red, pivots = rref(m)
        again, pivots2 = rref(red)
        assert red == again
        assert pivots == pivots2
        assert list(pivots) == sorted(pivots)


def test_solve_and_inverse():
    m = ExactMatrix.from_rows(RATIONALS, [[2, 1], [1, 1]])
    x = solve(m, [Fraction(3), Fraction(2)])
    assert x == (Fraction(1), Fraction(1))
    inv = inverse(m)
    assert is_identity(m * inv)
    singular = ExactMatrix.from_rows(RATIONALS, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        inverse(singular)
    assert solve(singular, [Fraction(0), Fraction(1)]) is None


def test_matrix_power_and_rank():
    f = cyclotomic_field(4)
    m = ExactMatrix.from_rows(f, [[0, -1], [1, 0]])
    assert is_identity(matrix_power(m, 4))
    assert not is_identity(matrix_power(m, 2))
    assert rank(m) == 2


# --- the fraction-free rank kernel ---------------------------------------------

RANK_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12, 15, 30)


@hs.composite
def low_rank_matrices(draw):
    """A B with A rows x k and B k x cols, so of rank at most k, with
    entries over rational denominators, some zero; then some rows,
    columns and single entries set to zero."""
    field = cyclotomic_field(draw(hs.sampled_from(RANK_ORDERS)))
    rows, cols = draw(hs.integers(1, 5)), draw(hs.integers(1, 5))
    k = draw(hs.integers(0, min(rows, cols)))
    coeff = hs.fractions(min_value=-3, max_value=3, max_denominator=4)
    scalar = hs.one_of(
        hs.just(field.zero),
        hs.lists(coeff, min_size=1, max_size=field.degree).map(field.element),
    )
    a = ExactMatrix(field, rows, k, draw(hs.lists(scalar, min_size=rows * k, max_size=rows * k)))
    b = ExactMatrix(field, k, cols, draw(hs.lists(scalar, min_size=k * cols, max_size=k * cols)))
    m = a * b
    zero_rows = draw(hs.sets(hs.integers(0, rows - 1), max_size=rows))
    zero_cols = draw(hs.sets(hs.integers(0, cols - 1), max_size=cols))
    holes = draw(hs.sets(hs.tuples(hs.integers(0, rows - 1), hs.integers(0, cols - 1))))
    entries = [field.zero if i in zero_rows or j in zero_cols or (i, j) in holes else m.entry(i, j)
               for i in range(rows) for j in range(cols)]
    return ExactMatrix(field, rows, cols, entries)


@settings(max_examples=200)
@given(low_rank_matrices())
def test_rank_kernel_matches_rref(m):
    assert rank(m) == len(rref(m)[1])


@settings(max_examples=60)
@given(hs.sampled_from(RANK_ORDERS), hs.integers(1, 4), hs.integers(0, 4), hs.data())
def test_matrix_from_residues_equals_matrix_from_elements(order, rows, cols, data):
    """A matrix built from rows of ``(num, den)`` residues, as the CLI
    builds it, is the matrix built from the same values as ``Cyclotomic``
    entries: equal, with the same hash, entries, rows and single
    entries.  The stored rows are canonical, so changing an entry's
    value changes the matrix."""
    field = cyclotomic_field(order)
    coeff = hs.fractions(min_value=-3, max_value=3, max_denominator=6)
    raw = data.draw(hs.lists(hs.lists(coeff, max_size=field.degree), min_size=rows * cols, max_size=rows * cols))
    elements = [field.element(c) for c in raw]
    by_rows = [[field.residue([(f.numerator, f.denominator) for f in c]) for c in raw[i * cols:(i + 1) * cols]]
               for i in range(rows)]
    m = ExactMatrix.from_residues(field, by_rows)
    for other in (ExactMatrix(field, rows, cols, elements),
                  ExactMatrix.from_rows(field, [elements[i * cols:(i + 1) * cols] for i in range(rows)])):
        assert (m.rows, m.cols) == (other.rows, other.cols)
        assert m == other and hash(m) == hash(other)
    assert m.entries == tuple(elements)
    for i in range(rows):
        assert m.row(i) == tuple(elements[i * cols:(i + 1) * cols])
        for j in range(cols):
            e, x = m.entry(i, j), elements[i * cols + j]
            assert (e.num, e.den) == (x.num, x.den)
    if cols:
        changed = list(elements)
        changed[-1] = changed[-1] + Fraction(1, 2)
        assert ExactMatrix(field, rows, cols, changed) != m
    # equal residues over different denominators
    assert ExactMatrix.from_rows(field, [[Fraction(1, 2)]]) != ExactMatrix.from_rows(field, [[Fraction(1, 3)]])


def test_rank_kernel_edge_shapes():
    f = cyclotomic_field(5)
    assert rank(ExactMatrix.zeros(f, 0, 0)) == 0
    assert rank(ExactMatrix.zeros(f, 3, 4)) == 0
    assert rank(ExactMatrix.identity(f, 4)) == 4
    z = f.zeta()
    # rows proportional over Q(zeta_5) but not over Q
    assert rank(ExactMatrix.from_rows(f, [[1, z], [z, z * z]])) == 1
    assert rank(ExactMatrix.from_rows(f, [[1, z], [z, 1]])) == 2


def test_rank_kernel_integers_grow_as_minors(monkeypatch):
    """The kernel's rows stay integer multiples of Bareiss's rows, whose
    entries are minors: on dense matrices with coefficients in [-2, 2]
    no product it forms exceeds 400 bits.  Dividing out integer
    contents alone leaves a pivot's factor in every row at each step,
    and the products reach 1000 bits at 10 x 10 over Q(zeta_7) and 2700
    at 12 x 12 over Q(zeta_5).  The products are read where they are
    made: ``_times`` and the fused update ``_cross`` over Q(zeta_d), and
    on rows over Q, ranked on plain ints, each updated row as its content
    is taken."""
    import parastrata.exact as ex

    longest = [0]

    def measure(ints):
        longest[0] = max(longest[0], *(abs(t).bit_length() for t in ints))

    def measured(f):
        def wrapped(*args):
            out = f(*args)
            if out is not None:
                measure(out)
            return out
        return wrapped

    def measured_gcd(*args):
        measure(args)
        return gcd(*args)

    monkeypatch.setattr(CyclotomicField, "_times", measured(CyclotomicField._times))
    monkeypatch.setattr(CyclotomicField, "_cross", measured(CyclotomicField._cross))
    monkeypatch.setattr(ex, "gcd", measured_gcd)
    for d, n, rational in ((7, 10, False), (5, 12, False), (5, 12, True)):
        f = cyclotomic_field(d)
        rng = random.Random(d)
        degree = 1 if rational else f.degree
        m = ExactMatrix.from_rows(f, [[f.element([rng.randint(-2, 2) for _ in range(degree)])
                                       for _ in range(n)] for _ in range(n)])
        assert (ex._rational_rows(ex.residue_rows(m)) is not None) == rational
        longest[0] = 0
        assert rank(m) == n
        assert 0 < longest[0] <= 400


# fields of degree 2 to 8
_IRRATIONAL_ORDERS = tuple(d for d in RANK_ORDERS if cyclotomic_field(d).degree > 1)


@settings(max_examples=100)
@given(hs.sampled_from(_IRRATIONAL_ORDERS), hs.integers(1, 5), hs.integers(1, 5), hs.data())
def test_rank_kernel_on_rational_rows_matches_rref(order, rows, cols, data):
    """Rows over Q in a field of degree 2 to 8, of rank at most k, are
    ranked on plain ints, and that rank is rref's; with one entry made
    irrational the rows take the general elimination, again against
    rref."""
    import parastrata.exact as ex

    field = cyclotomic_field(order)
    k = data.draw(hs.integers(0, min(rows, cols)))
    coeff = hs.one_of(hs.just(Fraction(0)), hs.fractions(min_value=-4, max_value=4, max_denominator=5))
    a = [[data.draw(coeff) for _ in range(k)] for _ in range(rows)]
    b = [[data.draw(coeff) for _ in range(cols)] for _ in range(k)]
    entries = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(cols)]
               for i in range(rows)]
    m = ExactMatrix.from_rows(field, entries)
    assert ex._rational_rows(ex.residue_rows(m)) is not None
    assert rank(m) == len(rref(m)[1])
    i, j = data.draw(hs.integers(0, rows - 1)), data.draw(hs.integers(0, cols - 1))
    power = data.draw(hs.integers(1, field.degree - 1))
    entries[i][j] = entries[i][j] + data.draw(hs.integers(1, 3)) * field.zeta(power)
    m = ExactMatrix.from_rows(field, entries)
    assert ex._rational_rows(ex.residue_rows(m)) is None
    assert rank(m) == len(rref(m)[1])


def test_cross_is_one_fused_update():
    """``_cross(a, u, x, v)`` is a * u - x * v as ``_times`` and
    ``_minus`` make it, None standing for zero in u, v and the result."""
    from parastrata.exact import _minus

    rng = random.Random(53)
    for d in RANK_ORDERS:
        f = cyclotomic_field(d)
        zero = [0] * f.degree

        def residue(rational):
            c = [rng.randint(-3, 3) for _ in range(1 if rational else f.degree)]
            return tuple(c + [0] * (f.degree - len(c)))

        for _ in range(40):
            a, x = residue(rng.random() < 0.3), residue(rng.random() < 0.3)
            u, v = (None if rng.random() < 0.25 else residue(rng.random() < 0.3) for _ in range(2))
            au = None if u is None else f._times(a, u)
            xv = zero if v is None else f._times(x, v)
            assert f._cross(a, u, x, v) == _minus(au, xv), (d, a, u, x, v)
        assert f._cross(residue(False), None, residue(False), None) is None


def test_hessenberg_rank_matches_matrix_rank():
    """H = hessenberg(phi) is upper Hessenberg, shares phi's
    characteristic polynomial, and rank(H - z I) = rank(phi - z I) at
    every d-th root of unity z: the ranks behind FlagAutomorphism's
    nullities, against rref on phi itself."""
    rng = random.Random(41)
    for d in (1, 2, 3, 4, 5, 6, 8, 12, 15, 30):
        field = cyclotomic_field(d)
        for _ in range(3):
            phi = random_flag_automorphism(rng, rng.randint(1, 6), d)[0].matrix
            n = phi.rows
            h = hessenberg(phi)
            assert all(not h.entry(i, j) for i in range(n) for j in range(i - 1))
            assert charpoly(h) == charpoly(phi)
            ident = ExactMatrix.identity(field, n)
            for e in range(d):
                z = ident.scaled(field.zeta(e))
                assert rank(h - z) == len(rref(phi - z)[1])


# --- integer-numerator arithmetic against the Fraction reference ---------------


def random_coefficients(rng, field, bound=10**6):
    """Sparse or dense, over one shared or over separate denominators."""
    shared = rng.randint(1, bound)
    out = []
    for _ in range(field.degree):
        if rng.random() < 0.3:
            out.append(Fraction(0))
        else:
            den = shared if rng.random() < 0.5 else rng.randint(1, bound)
            out.append(Fraction(rng.randint(-bound, bound), den))
    return tuple(out)


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(2026)
    for d in range(1, 31):
        field = cyclotomic_field(d)
        for _ in range(5):
            a, b = random_coefficients(rng, field), random_coefficients(rng, field)
            if rng.random() < 0.2:
                b = a
            x, y = field.element(a), field.element(b)
            assert x.coeffs == a and y.coeffs == b
            results = {
                "+": ((x + y).coeffs, tuple(p + q for p, q in zip(a, b))),
                "-": ((x - y).coeffs, tuple(p - q for p, q in zip(a, b))),
                "*": ((x * y).coeffs, ref_mul(field, a, b)),
            }
            if any(b):
                inv = y.inverse()
                if field.degree <= 12:
                    results["inverse"] = (inv.coeffs, ref_inverse(field, b))
                else:  # the reference xgcd takes seconds here; check the product
                    results["inverse"] = (ref_mul(field, inv.coeffs, b), field.one.coeffs)
            for op, (got, want) in results.items():
                assert got == want, (d, op)
            assert (x == y) == (a == b)
            for z in (x + y, x - y, x * y, -x):
                assert z.den > 0 and gcd(z.den, *z.num) == 1
                again = field.element(z.coeffs)
                assert again == z and hash(again) == hash(z)
            # a longer sequence is reduced like the reference does it
            long = a + random_coefficients(rng, field)[: rng.randint(0, field.degree)]
            assert field.element(long).coeffs == ref_mul(field, long, (Fraction(1),))


def test_rational_elements_equal_and_hash_like_fractions():
    rng = random.Random(13)
    for d in range(1, 31):
        field = cyclotomic_field(d)
        for _ in range(5):
            r = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            x = field.from_rational(r)
            assert x == r and r == x and hash(x) == hash(r)
            if r:
                assert x.inverse() == 1 / r and hash(x.inverse()) == hash(1 / r)
            if r.denominator == 1:
                assert x == r.numerator and hash(x) == hash(r.numerator)
        z = field.zeta()
        assert (z * z.inverse()) == 1 and hash(z * z.inverse()) == hash(1)
        assert (z == 1) == (d == 1)


# --- powers of zeta and Galois conjugates against the polynomial reference ----


def test_zeta_powers_and_conjugates_match_reference():
    """zeta(e) is x**e reduced by long division over Q, for e in 0..2d,
    and sigma_j sends sum a_i x**i to sum a_i x**(i j) reduced, for every
    j in (Z/d)^*, on random sparse and dense residues; d in 1..40."""
    rng = random.Random(16)
    for d in range(1, 41):
        field = cyclotomic_field(d)
        for e in range(2 * d + 1):
            assert field.zeta(e).coeffs == ref_reduce(field, [0] * e + [1]), (d, e)
        for _ in range(2):
            num = tuple(rng.randint(-10**6, 10**6) if rng.random() < 0.7 else 0
                        for _ in range(field.degree))
            for j in field.units:
                poly = [0] * ((field.degree - 1) * j + 1)
                for i, a in enumerate(num):
                    poly[i * j] += a
                assert tuple(field._conjugate(num, j)) == ref_reduce(field, poly), (d, j)


def test_field_memory_does_not_grow_with_order_times_degree():
    """A field holds no table of the powers of zeta: building Q(zeta_2000)
    (degree 800), its cyclotomic polynomial already cached, peaks under
    1 MiB, where a table of its 2000 powers takes about 12 MiB."""
    cyclotomic_polynomial(2000)
    tracemalloc.start()
    try:
        CyclotomicField(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- characteristic polynomial -------------------------------------------------


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row (oracle)."""
    if not rows:
        return 1
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = a * laplace_det(minor)
            total = total + term if j % 2 == 0 else total - term
    return total


def polynomial_at_matrix(coeffs, m):
    ident = ExactMatrix.identity(m.field, m.rows)
    acc = ExactMatrix.zeros(m.field, m.rows, m.rows)
    for c in reversed(coeffs):
        acc = acc * m + ident.scaled(c)
    return acc


def test_charpoly_small_examples():
    f = cyclotomic_field(4)
    assert charpoly(ExactMatrix.from_rows(f, [[0, -1], [1, 0]])) == (1, 0, 1)
    # the first subdiagonal entry is zero, so the reduction swaps rows 1 and 2
    m = ExactMatrix.from_rows(RATIONALS, [[1, 2, 3], [0, 4, 5], [6, 7, 8]])
    assert charpoly(m) == (15, -9, -13, 1)
    assert charpoly(ExactMatrix.zeros(RATIONALS, 0, 0)) == (1,)
    with pytest.raises(ValueError):
        charpoly(ExactMatrix.zeros(RATIONALS, 2, 3))


def test_charpoly_matches_determinant_and_cayley_hamilton():
    """det(t I - m) at n + 1 points t fixes a degree-n polynomial; the
    matrix is also a root of its own characteristic polynomial."""
    rng = random.Random(37)
    for d in (1, 2, 3, 4, 5, 8, 12, 15):
        field = cyclotomic_field(d)
        for _ in range(6):
            n = rng.randint(1, 5)
            density = rng.choice([0.3, 0.7, 1.0])
            m = ExactMatrix(field, n, n, [
                field.element([rng.randint(-3, 3) for _ in range(field.degree)])
                if rng.random() < density else field.zero
                for _ in range(n * n)
            ])
            cp = charpoly(m)
            assert len(cp) == n + 1 and cp[-1] == 1
            for t in range(n + 1):
                shifted = ExactMatrix.identity(field, n).scaled(t) - m
                value = sum((c * t**i for i, c in enumerate(cp)), field.zero)
                assert value == laplace_det([list(r) for r in shifted.iter_rows()])
            assert polynomial_at_matrix(cp, m) == ExactMatrix.zeros(field, n, n)

