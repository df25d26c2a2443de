import random
from fractions import Fraction

import pytest

from parastrata import (
    RATIONALS,
    ExactMatrix,
    IntPolynomial,
    cyclotomic_field,
    cyclotomic_polynomial,
    inverse,
    kernel,
    rank,
    rref,
    solve,
)
from parastrata.exact import divisors


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
    assert cyclotomic_polynomial(1).coeffs == (-1, 1)


def test_cyclotomic_polynomial_small_orders():
    # frozen from the long-division oracle below
    assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
    assert cyclotomic_polynomial(3).coeffs == (1, 1, 1)
    assert cyclotomic_polynomial(4).coeffs == cyclotomic_by_mobius(4)
    assert cyclotomic_polynomial(3).coeffs == cyclotomic_by_mobius(3)


def test_cyclotomic_polynomial_against_mobius_oracle():
    for d in range(1, 31):
        assert cyclotomic_polynomial(d).coeffs == cyclotomic_by_mobius(d)


def test_cyclotomic_product_identity():
    for d in range(1, 51):
        prod = IntPolynomial.one()
        for e in divisors(d):
            prod = prod * cyclotomic_polynomial(e)
        expected = IntPolynomial.x_power(d) - IntPolynomial.one()
        assert prod == expected


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
    assert (m * inv).is_identity()
    singular = ExactMatrix.from_rows(RATIONALS, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        inverse(singular)
    assert solve(singular, [Fraction(0), Fraction(1)]) is None


def test_matrix_power_and_rank():
    f = cyclotomic_field(4)
    m = ExactMatrix.from_rows(f, [[0, -1], [1, 0]])
    assert (m**4).is_identity()
    assert not (m**2).is_identity()
    assert rank(m) == 2
