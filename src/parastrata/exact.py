"""Exact scalars and exact linear algebra.

Three scalar domains, all immutable and arbitrary precision:

* plain rationals -- ``fractions.Fraction`` from the standard library;
* ``IntPolynomial`` -- the coefficients of an integer polynomial in one
  variable; every product and quotient of them is ``q_ratio``'s, a ratio
  of q-integers [k]_q = 1 + q + ... + q**(k-1);
* ``Cyclotomic`` -- elements of the field Q(zeta_d), stored as residues
  modulo the d-th cyclotomic polynomial in the power basis
  1, x, ..., x^(phi(d)-1): integer numerators over one positive
  denominator, in lowest terms.  A product is an integer convolution
  reduced by the monic modulus; an inverse is the product of the other
  Galois conjugates over the norm.  zeta**d = 1, so a power of zeta,
  a conjugate or a sum of shifted residues is a cyclic shift modulo
  x**d - 1 and one reduction.

``ExactMatrix`` keeps a rectangular block of scalars from one
``CyclotomicField`` as rows of integer residues cleared of denominators
(``residue_rows``); the rationals are ``RATIONALS = cyclotomic_field(1)``,
whose elements equal and hash like the ``Fraction`` they hold.

Ranks come from one fraction-free kernel, ``residue_rank``, on such
rows: Bareiss elimination in which the previous pivot's other Galois
conjugates and the integer content stand in for the division by that
pivot, so no inverse is taken and no ``Cyclotomic`` is built; rows over
Q are ranked by the same elimination on plain ints.  ``rank`` uses it,
and so does every check of ``eigenflag.descend``: the flag's
independence and containment, the automorphism's eigenspace dimensions
(``eigen_nullities``: read off the characteristic polynomial of the
``hessenberg`` form, one at a simple root, and ranked only at a repeated
root), and the level counts (``ResidueMap``, which also keeps the shift
by a root of unity in the residue format).
``rref``, ``kernel``, ``reduced_row_basis``, ``solve`` and ``inverse``
share one row reducer that normalizes pivots to one, leftmost first, so
their outputs are canonical; the tests' oracles use them.  No floating
point anywhere.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import sub


def to_fraction(x) -> Fraction:
    """``Fraction(x)``, refusing binary floats: ``Fraction(0.1)`` is not 1/10."""
    if type(x) is Fraction:
        return x
    if isinstance(x, numbers.Real) and not isinstance(x, numbers.Rational):
        raise TypeError(f"inexact number {x!r}: pass an int, a Fraction or a string")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients; ``coeffs[i]`` multiplies x**i.

    Normalized: the highest-index coefficient is nonzero, and the zero
    polynomial is the empty tuple.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for c in self.coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficients not normalized (trailing zero)")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else "-" if c == -1 else f"{c}*"
                terms.append(f"{head}x^{i}" if i > 1 else f"{head}x")
        return " + ".join(terms)


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("positive integer expected")
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def q_ratio(num, den) -> tuple[int, ...]:
    """The coefficients of prod_a [a]_q / prod_b [b]_q over the positive
    integers a in ``num`` and b in ``den``, where the q-integer [k]_q is
    1 + q + ... + q**(k-1) = (1 - q**k) / (1 - q).

    Multiplying by [a]_q is multiplying by 1 - q**a, then a running sum;
    dividing by [b]_q is multiplying by 1 - q, then a running sum in each
    residue class mod b, the recurrence x_k = c_k - c_(k-1) + x_(k-b).
    The numerator is multiplied out first, so a ratio that is a
    polynomial is a polynomial after each division.  A division is exact
    iff x_n, ..., x_(len-1) vanish, n = len - b + 1; otherwise, and for a
    divisor longer than the dividend, ``ValueError``.
    """
    num, den = tuple(num), tuple(den)
    if any(k < 1 for k in num + den):
        raise ValueError("q-integers [k]_q need k >= 1")
    c = [1]
    for a in num:
        c = list(accumulate(map(sub, c + [0] * (a - 1), [0] * a + c)))
    for b in den:
        n = len(c) - b + 1
        if n < 1:
            raise ValueError(f"[{b}]_q is longer than the dividend")
        c = list(map(sub, c, [0] + c))
        for r in range(b):
            c[r::b] = accumulate(c[r::b])
        if any(c[n:]):
            raise ValueError(f"division by [{b}]_q is not exact")
        del c[n:]
    return tuple(c)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial, monic and irreducible over the
    rationals: prod_(e | d) (x**e - 1)**mu(d/e).  For d > 1 the exponents
    sum to 0, so the factors x - 1 cancel and it is the ratio of the
    q-integers [e]_x with mu(d/e) = 1 over those with mu(d/e) = -1.
    """
    if d < 1:
        raise ValueError("positive order expected")
    if d == 1:
        return IntPolynomial((-1, 1))
    divs = divisors(d)
    mu: dict[int, int] = {}
    for m in divs:  # mu(m) = -sum of mu over the proper divisors of m
        mu[m] = 1 if m == 1 else -sum(mu[k] for k in divs if k < m and m % k == 0)
    by_sign = {s: [e for e in divs if mu[d // e] == s] for s in (1, -1)}
    return IntPolynomial(q_ratio(by_sign[1], by_sign[-1]))


# ---------------------------------------------------------------------------
# Cyclotomic fields
# ---------------------------------------------------------------------------


def _lowest(field: "CyclotomicField", num: list[int], den: int) -> "Cyclotomic":
    """The element num/den (den > 0), put in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return Cyclotomic(field, tuple(num), den)


class Cyclotomic:
    """An element of Q(zeta_d): integer numerators ``num`` over one
    positive denominator ``den``, in lowest terms, of a residue modulo
    the d-th cyclotomic polynomial in the power basis.

    Equal elements have equal ``(num, den)``.  Arithmetic mixes freely
    with ``int`` and ``Fraction``.  Equality (and hashing) against plain
    rationals holds exactly when the element lies in the rational
    subfield.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "CyclotomicField", num: tuple[int, ...], den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as rationals."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _lift(self, other):
        if isinstance(other, Cyclotomic):
            if other.field.order != self.field.order:
                raise ValueError(
                    f"cyclotomic order mismatch: {self.field.order} vs {other.field.order}"
                )
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            return self.field._rational(other)
        return None

    def __bool__(self) -> bool:
        return any(self.num)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _lowest(self.field, [a + b for a, b in zip(self.num, o.num)], da)
        return _lowest(self.field, [a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _lowest(self.field, [a - b for a, b in zip(self.num, o.num)], da)
        return _lowest(self.field, [a * db - b * da for a, b in zip(self.num, o.num)], da * db)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _lowest(self.field, self.field._times(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """By the norm: a^-1 = prod_{j in (Z/d)^*, j != 1} sigma_j(a) / N(a),
        where sigma_j sends zeta to zeta^j and N(a) is the product of all
        the conjugates, a rational number."""
        if not self:
            raise ZeroDivisionError("inversion of zero")
        field, num, den = self.field, self.num, self.den
        if field.degree == 1:
            n = num[0]
            return Cyclotomic(field, (den if n > 0 else -den,), abs(n))
        cofactor, norm = field._cofactor(num)
        if norm < 0:
            norm, den = -norm, -den
        return _lowest(field, [c * den for c in cofactor], norm)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            return (self.field.order == other.field.order
                    and self.den == other.den and self.num == other.num)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return (self.is_rational() and self.den == other.denominator
                    and self.num[0] == other.numerator)
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.field.order, self.num, self.den))

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{self.field.order}" + (f"^{i}" if i > 1 else "")
                terms.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return " + ".join(terms) if terms else "0"


class CyclotomicField:
    """The field Q(zeta_d).  Obtain instances via ``cyclotomic_field(d)``.

    Every power of zeta is computed when asked for: x**(e mod d)
    reduced by the cyclotomic polynomial, which divides x**d - 1.
    ``units`` lists (Z/d)^*, starting at 1.
    """

    __slots__ = ("order", "modulus", "degree", "units", "_tail", "_pad", "zero", "one")

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("positive order expected")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        k = self.degree = self.modulus.degree
        # x**k = -sum_j tail_j x**j modulo the (monic) modulus
        self._tail = tuple((j, m) for j, m in enumerate(self.modulus.coeffs[:k]) if m)
        self._pad = (0,) * (k - 1)
        self.units = tuple(j for j in range(1, order + 1) if gcd(j, order) == 1)
        self.zero = Cyclotomic(self, (0,) * k)
        self.one = Cyclotomic(self, (1,) + self._pad)

    def _reduce(self, c: list[int]) -> list[int]:
        """An integer coefficient list modulo the modulus, in place."""
        k = self.degree
        if len(c) < k:
            c += [0] * (k - len(c))
        for i in range(len(c) - 1, k - 1, -1):
            t = c[i]
            if t:
                for j, m in self._tail:
                    c[i - k + j] -= t * m
        del c[k:]
        return c

    def _times(self, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
        """The product of two integer residues, reduced."""
        if not any(b[1:]):  # b is rational, as is every residue when the degree is 1
            y = b[0]
            return [x * y for x in a]
        if not any(a[1:]):  # a is rational
            x = a[0]
            return [x * y for y in b]
        nonzero = [(j, y) for j, y in enumerate(b) if y]
        conv = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero:
                    conv[i + j] += x * y
        return self._reduce(conv)

    def _cross(self, a, u, x, v) -> list[int] | None:
        """a * u - x * v for integer residues, u or v None for zero: one
        convolution and one reduction, None if the result is zero."""
        conv = [0] * (2 * self.degree - 1)
        if u is not None:
            for i, s in enumerate(a):
                if s:
                    for j, t in enumerate(u, i):
                        conv[j] += s * t
        if v is not None:
            for i, s in enumerate(x):
                if s:
                    for j, t in enumerate(v, i):
                        conv[j] -= s * t
        out = self._reduce(conv)
        return out if any(out) else None

    def _shifted_sum(self, pairs, e: int) -> list[int]:
        """sum_k c_k zeta**(e k), reduced, for pairs ``(k, c_k)`` of
        integer residues: zeta**d = 1 and the modulus divides x**d - 1, so
        each term is c_k shifted cyclically by e k modulo x**d - 1, and the
        sum is reduced once."""
        d = self.order
        acc = [0] * d
        for k, c in pairs:
            s = e * k
            for i, a in enumerate(c):
                acc[(s + i) % d] += a
        return self._reduce(acc)

    def _conjugate(self, num: tuple[int, ...], j: int) -> list[int]:
        """sigma_j(num): zeta**i goes to zeta**(i*j)."""
        return self._shifted_sum([(i, (a,)) for i, a in enumerate(num) if a], j)

    def _cofactor(self, num: tuple[int, ...]) -> tuple[list[int], int]:
        """``(c, N)`` with num * c = N: c is the product of the Galois
        conjugates of num other than num itself, and N, its norm, is a
        nonzero integer when num is nonzero."""
        if self.degree == 1:
            return [1], num[0]
        cofactor = None
        for j in self.units[1:]:
            conj = self._conjugate(num, j)
            cofactor = conj if cofactor is None else self._times(cofactor, conj)
        return cofactor, self._times(num, cofactor)[0]

    def _rational(self, x) -> Cyclotomic:
        return Cyclotomic(self, (x.numerator,) + self._pad, x.denominator)

    def residue(self, ratios) -> tuple[tuple[int, ...] | None, int]:
        """``(num, den)`` for sum_i (n_i / d_i) x**i, d_i > 0, as a
        ``Cyclotomic`` holds it (one denominator, lowest terms), num None
        for zero."""
        den = lcm(*[d for _, d in ratios])
        num = self._reduce([n * (den // d) for n, d in ratios])
        g = gcd(den, *num)
        return (tuple([c // g for c in num]), den // g) if any(num) else (None, 1)

    def element(self, coeffs) -> Cyclotomic:
        """Reduce an arbitrary-length rational coefficient sequence."""
        num, den = self.residue([(f.numerator, f.denominator) for f in map(to_fraction, coeffs)])
        return Cyclotomic(self, num, den) if num else self.zero

    def from_rational(self, x) -> Cyclotomic:
        return self._rational(to_fraction(x))

    def zeta(self, power: int = 1) -> Cyclotomic:
        """zeta_d ** power, with zeta_d a fixed primitive d-th root of unity."""
        return Cyclotomic(self, tuple(self._reduce([0] * (power % self.order) + [1])))

    def coerce(self, value) -> Cyclotomic:
        if isinstance(value, Cyclotomic):
            if value.field.order != self.order:
                raise ValueError(
                    f"cyclotomic order mismatch: {self.order} vs {value.field.order}"
                )
            return value
        if isinstance(value, bool):
            raise TypeError("boolean is not a scalar")
        if isinstance(value, (int, Fraction)):
            return self._rational(value)
        raise TypeError(f"cannot coerce {value!r} into Q(zeta_{self.order})")

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("cyclotomic", self.order))

    def __repr__(self) -> str:
        return f"QQ(zeta_{self.order})"


@functools.lru_cache(maxsize=None)
def cyclotomic_field(order: int) -> CyclotomicField:
    return CyclotomicField(order)


RATIONALS = cyclotomic_field(1)


# ---------------------------------------------------------------------------
# Exact matrices and elimination
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Immutable matrix over one cyclotomic field, kept by rows: row i is
    D_i, the lcm of its denominators, and the integer residues of D_i
    times its entries, None for zero.  The form is canonical, so it
    decides ``==`` and the hash; an entry is built only when read."""

    __slots__ = ("field", "rows", "cols", "_dens", "_residues")

    def __init__(self, field, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        ents = [field.coerce(e) for e in entries]
        if len(ents) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ents)}")
        pairs = [(e.num, e.den) if e else (None, 1) for e in ents]
        self._set(field, cols, [pairs[i * cols : (i + 1) * cols] for i in range(rows)])

    def _set(self, field, cols: int, rows) -> "ExactMatrix":
        self.field, self.rows, self.cols = field, len(rows), cols
        self._dens, self._residues = zip(*map(_integral, rows)) if rows else ((), ())
        return self

    @staticmethod
    def from_residues(field, rows) -> "ExactMatrix":
        """The matrix with rows of entries ``(num, den)``, as
        ``CyclotomicField.residue`` gives them; no ``Cyclotomic`` is built."""
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        return object.__new__(ExactMatrix)._set(field, len(rows[0]) if rows else 0, rows)

    @staticmethod
    def from_rows(field, rows) -> "ExactMatrix":
        return ExactMatrix.from_residues(
            field, [[(e.num, e.den) if e else (None, 1) for e in map(field.coerce, r)] for r in rows])

    @staticmethod
    def identity(field, n: int) -> "ExactMatrix":
        ents = [field.one if i == j else field.zero for i in range(n) for j in range(n)]
        return ExactMatrix(field, n, n, ents)

    @staticmethod
    def zeros(field, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(field, rows, cols, [field.zero] * (rows * cols))

    @property
    def entries(self) -> tuple:
        return tuple(e for i in range(self.rows) for e in self.row(i))

    def entry(self, i: int, j: int):
        v = self._residues[i][j]
        return self.field.zero if v is None else _lowest(self.field, v, self._dens[i])

    def row(self, i: int) -> tuple:
        field, den = self.field, self._dens[i]
        return tuple(field.zero if v is None else _lowest(field, v, den) for v in self._residues[i])

    def iter_rows(self):
        for i in range(self.rows):
            yield self.row(i)

    def column(self, j: int) -> tuple:
        return tuple(self.entry(i, j) for i in range(self.rows))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(
            self.field, self.rows, self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(
            self.field, self.rows, self.cols,
            [a - b for a, b in zip(self.entries, other.entries)],
        )

    def scaled(self, s) -> "ExactMatrix":
        s = self.field.coerce(s)
        return ExactMatrix(self.field, self.rows, self.cols, [s * e for e in self.entries])

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        zero = self.field.zero
        ocols = [other.column(j) for j in range(other.cols)]
        out = [sum((a * b for a, b in zip(r, col) if a and b), zero)
               for r in self.iter_rows() for col in ocols]
        return ExactMatrix(self.field, self.rows, other.cols, out)

    def apply(self, vector) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        v = [self.field.coerce(x) for x in vector]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        zero = self.field.zero
        return tuple(sum((a * b for a, b in zip(r, v) if a and b), zero) for r in self.iter_rows())

    def _same_shape(self, other: "ExactMatrix") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._dens == other._dens
            and self._residues == other._residues
        )

    def __hash__(self) -> int:
        return hash((self.field, self.cols, self._dens, self._residues))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(repr(e) for e in self.row(i)) for i in range(self.rows))
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field!r}: {body})"


def _rref_in_place(field, rows: list[list]) -> list[int]:
    """Reduce to reduced row echelon form; return the pivot columns."""
    pivots: list[int] = []
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        sel = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][c]
        if piv != field.one:
            inv = piv.inverse()
            rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = _rref_in_place(m.field, rows)
    flat = [e for r in rows for e in r]
    return ExactMatrix(m.field, m.rows, m.cols, flat), tuple(pivots)


def reduced_row_basis(field, vectors) -> tuple[tuple, ...]:
    """Canonical (reduced echelon) basis of the span of the given rows."""
    rows = [list(v) for v in vectors]
    if not rows:
        return ()
    pivots = _rref_in_place(field, rows)
    return tuple(tuple(r) for r in rows[: len(pivots)])


def kernel(m: ExactMatrix) -> tuple[tuple, ...]:
    """Basis of the null space, itself in reduced echelon form.

    Vectors are ordered by pivot position; the empty tuple means the
    kernel is zero.
    """
    red, pivots = rref(m)
    field = m.field
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    raw = []
    for f in free:
        v = [field.zero] * m.cols
        v[f] = field.one
        for r_idx, pc in enumerate(pivots):
            coeff = red.entry(r_idx, f)
            if coeff:
                v[pc] = -coeff
        raw.append(v)
    return reduced_row_basis(field, raw)


def solve(m: ExactMatrix, rhs) -> tuple | None:
    """One exact solution of m*x = rhs, or None if inconsistent.

    Free variables, if any, are set to zero.
    """
    field = m.field
    b = [field.coerce(x) for x in rhs]
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    rows = [list(m.row(i)) + [b[i]] for i in range(m.rows)]
    if not rows:
        return (field.zero,) * m.cols
    pivots = _rref_in_place(field, rows)
    if m.cols in pivots:
        return None
    x = [field.zero] * m.cols
    for r_idx, pc in enumerate(pivots):
        x[pc] = rows[r_idx][m.cols]
    return tuple(x)


def inverse(m: ExactMatrix) -> ExactMatrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    field = m.field
    ident = ExactMatrix.identity(field, n)
    rows = [list(m.row(i)) + list(ident.row(i)) for i in range(n)]
    pivots = _rref_in_place(field, rows)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is not invertible")
    flat = [e for r in rows for e in r[n:]]
    return ExactMatrix(field, n, n, flat)


def _integral(row) -> tuple[int, tuple]:
    """``(D, residues)`` for a row of entries ``(num, den)``: D is the lcm of
    the denominators and ``residues[j]`` D times entry j, None for zero."""
    den = lcm(*(d for _, d in row))
    return den, tuple(num if d == den or num is None else tuple(c * (den // d) for c in num)
                      for num, d in row)


def residue_rows(m: ExactMatrix) -> tuple[tuple, ...]:
    """m's rows for ``residue_rank``, as m keeps them: each row times the
    lcm of its denominators, as integer residues, with None for a zero
    entry.  Scaling a row by a nonzero integer keeps the row space."""
    return m._residues


def _minus(x, y: list):
    """x - y for integer residues, None standing for zero either way."""
    out = [-t for t in y] if x is None else [u - t for u, t in zip(x, y)]
    return out if any(out) else None


def _rational_rows(rows) -> list[list[int]] | None:
    """The constant coefficients of rows of integer residues, zero for
    None, if every entry is rational; None otherwise."""
    out = []
    for row in rows:
        ints = []
        for v in row:
            if v is None:
                ints.append(0)
            elif any(v[1:]):
                return None
            else:
                ints.append(v[0])
        out.append(ints)
    return out


def _integer_rank(rows: list[list[int]]) -> int:
    """Rank over Q of integer rows, which it modifies: ``residue_rank``'s
    elimination on plain ints.  A row holding x under the pivot a becomes
    a * row - x * pivot, its content divided out, which takes Bareiss's
    divisor since every pivot is an integer."""
    width = len(rows[0]) if rows else 0
    rank = 0
    for c in range(width):
        for i, r in enumerate(rows):
            if r[c]:
                break
        else:
            continue
        pivot = rows.pop(i)
        rank += 1
        a = pivot[c]
        kept = []
        for r in rows:
            x = r[c]
            if x:
                r = [a * u - x * v for u, v in zip(r, pivot)]
                g = gcd(*r)
                if not g:
                    continue
                if g != 1:
                    r = [t // g for t in r]
            kept.append(r)
        if not kept:
            break
        rows = kept
    return rank


def residue_rank(field, rows) -> int:
    """Rank over Q(zeta_d) of rows of integer residues, zero entries
    None, as ``residue_rows`` gives them.  The rows are not modified.

    Fraction-free elimination after Bareiss (Math. Comp. 22, 1968): a
    row holding x under the pivot a becomes a * row - x * pivot, which
    Bareiss divides exactly by the pivot p of the step before.  Here it
    is multiplied by p's other Galois conjugates instead
    (``CyclotomicField._cofactor``), which turns that divisor into p's
    norm, an integer, and then the row's integer content is divided
    out; that takes the norm and every other integer factor.  Each row
    thus stays an integer multiple of Bareiss's row, whose entries are
    minors of the input, and no inverse is taken and no ``Cyclotomic``
    built.  Every step scales a row by a nonzero element of the field
    or subtracts a multiple of another row, so the rank is kept.

    A row with nothing under a pivot is left as it is: Bareiss would
    multiply it by a / p, and those factors telescope, so the row keeps
    the step it was last reduced at and is multiplied by the conjugates
    of the pivot before that step when next reduced; a pivot row is
    brought up to date first.  A row reduced for the first time needs
    no conjugates, nor does a rational p, whose factor is an integer
    that the content takes: on a Hessenberg matrix, whose rows are each
    reduced once, and over Q, rows are only made primitive.

    Rows over Q, every entry None or rational, are ranked on their
    constant coefficients as plain ints (``_rational_rows``,
    ``_integer_rank``), with the same pivots: their rank over Q(zeta_d)
    is their rank over Q.
    """
    ints = _rational_rows(rows)
    if ints is not None:
        return _integer_rank(ints)
    times, cross = field._times, field._cross
    conjugates: dict = {}  # s -> those of the pivot of step s - 1, None if rational

    def primitive(row, s):
        """The row times the conjugates of the pivot before step s, its
        integer content divided out; None if it is zero."""
        if s:
            if s not in conjugates:
                p = pivots[s - 1]
                conjugates[s] = field._cofactor(p)[0] if any(p[1:]) else None
            c = conjugates[s]
            if c is not None:
                row = [None if v is None else times(v, c) for v in row]
        g = 0
        for v in row:
            if v is not None:
                g = gcd(g, *v)
        if not g:
            return None
        return row if g == 1 else [None if v is None else [t // g for t in v] for v in row]

    work = [(0, r) for r in rows]  # (steps the row is reduced to, row)
    width = len(work[0][1]) if work else 0
    pivots: list = []
    for c in range(width):
        sel = next((i for i, (_, r) in enumerate(work) if r[c] is not None), None)
        if sel is None:
            continue
        s, pivot = work.pop(sel)
        if s < len(pivots):  # Bareiss's row: times the last pivot over the one before step s
            p = pivots[-1]
            if any(p[1:]):
                pivot = [None if v is None else times(p, v) for v in pivot]
            pivot = primitive(pivot, s)
        a = pivot[c]
        pivots.append(a)
        k = len(pivots)
        rest = pivot[c + 1:]
        kept = []
        for s, r in work:
            x = r[c]
            if x is None:
                kept.append((s, r))
                continue
            new = [None] * (c + 1)
            new += [None if u is None and v is None else cross(a, u, x, v) for u, v in zip(r[c + 1:], rest)]
            new = primitive(new, s)
            if new is not None:
                kept.append((k, new))
        work = kept
        if not work:
            break
    return len(pivots)


def rank(m: ExactMatrix) -> int:
    """The rank of m, by the fraction-free kernel ``residue_rank``."""
    return residue_rank(m.field, residue_rows(m))


class ResidueMap:
    """A square matrix m over Q(zeta_d) prepared for the ranks of
    m - zeta_d**e: row i times the lcm D_i of its denominators, as
    integer residues.  The shift by zeta_d**e is then D_i zeta_d**e in
    row i, and these row scalings keep every rank below."""

    __slots__ = ("field", "dens", "rows")

    def __init__(self, m: ExactMatrix):
        if m.rows != m.cols:
            raise ValueError("a residue map needs a square matrix")
        self.field, self.dens, self.rows = m.field, m._dens, m._residues

    def bits(self) -> int:
        """The total length in bits of the integers held."""
        return sum(abs(t).bit_length() for row in self.rows for v in row if v is not None for t in v)

    def _shift(self, e: int) -> list[list[int]]:
        z = self.field._shifted_sum([(1, (1,))], e)  # zeta_d**e
        return [[den * t for t in z] for den in self.dens]

    def nullity(self, e: int) -> int:
        """n - rank(m - zeta_d**e I), the shift on the diagonal only."""
        shifted = [row[:i] + (_minus(row[i], z),) + row[i + 1:]
                   for i, (row, z) in enumerate(zip(self.rows, self._shift(e)))]
        return len(shifted) - residue_rank(self.field, shifted)

    def restricted(self, vectors):
        """e -> dim(span(vectors) cap ker(m - zeta_d**e)) for independent
        rows b of integer residues (``residue_rows``), counted as
        |vectors| - rank{m b - zeta_d**e b}: the nullity of m - zeta_d**e
        restricted to their span, for any m.  Each m b is formed once,
        entry i scaled by D_i, which scales a column and keeps the rank."""
        field = self.field
        times = field._times
        images = []
        for b in vectors:
            img = []
            for row in self.rows:
                acc = None
                for x, y in zip(row, b):
                    if x is not None and y is not None:
                        p = times(x, y)
                        acc = p if acc is None else [u + t for u, t in zip(acc, p)]
                img.append(acc if acc is not None and any(acc) else None)
            images.append(img)

        def nullity(e: int) -> int:
            shift = self._shift(e)
            shifted = [
                [x if y is None else _minus(x, times(z, y)) for x, y, z in zip(img, b, shift)]
                for b, img in zip(vectors, images)
            ]
            return len(shifted) - residue_rank(field, shifted)

        return nullity


def hessenberg(m: ExactMatrix) -> ExactMatrix:
    """An upper Hessenberg matrix H = T m T^-1 similar to m.

    Cohen, A Course in Computational Algebraic Number Theory, 1993,
    Alg. 2.2.9: elimination below the subdiagonal, each step undone on
    the columns so that the result stays similar; one inverse per
    column.  Similar matrices share their rank after any shift by a
    scalar, so rank(m - z I) = rank(H - z I).
    """
    if m.rows != m.cols:
        raise ValueError("Hessenberg form of a non-square matrix")
    n = m.rows
    h = [list(m.row(i)) for i in range(n)]
    for c in range(n - 2):
        p = next((i for i in range(c + 1, n) if h[i][c]), None)
        if p is None:
            continue
        s = c + 1
        if p != s:
            h[p], h[s] = h[s], h[p]
            for row in h:
                row[p], row[s] = row[s], row[p]
        inv = h[s][c].inverse()
        for i in range(s + 1, n):
            if h[i][c]:
                u = h[i][c] * inv
                h[i] = [a - u * b if b else a for a, b in zip(h[i], h[s])]
                for row in h:
                    if row[i]:
                        row[s] = row[s] + u * row[i]
    return ExactMatrix(m.field, n, n, [e for row in h for e in row])


def _hessenberg_charpoly(h: ExactMatrix) -> list[list[int]]:
    """det(x D - R) = det(D) det(x I - h) in integer residues, constant
    term first, for an upper Hessenberg h = D^-1 R in integral rows, D =
    diag(D_i).  Read off by the recurrence over the leading principal
    minors (Cohen 1993, Alg. 2.2.9) with D_k x for x: no inverse."""
    times = h.field._times
    dens, rows = h._dens, h._residues
    one = h.field.one.num
    polys = [[one]]
    for k in range(h.rows):
        # p_{k+1} = (D_k x - R_kk) p_k - sum_{r<k} R_rk R_{r+1,r} ... R_{k,k-1} p_r
        p = [[0] * len(one)] + [[dens[k] * t for t in c] for c in polys[k]]
        acc = one
        for r in range(k, -1, -1):
            if rows[r][k] is not None:
                coef = times(acc, rows[r][k])
                for t, c in enumerate(polys[r]):
                    p[t] = [a - b for a, b in zip(p[t], times(coef, c))]
            if not r or rows[r][r - 1] is None:
                break
            acc = times(acc, rows[r][r - 1])
        polys.append(p)
    return polys[-1]


def charpoly(m: ExactMatrix) -> tuple:
    """Coefficients of det(x I - m), constant term first; monic, of
    length n + 1, read off ``hessenberg(m)``: O(n^3) field operations
    and one inverse per column."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    poly = _hessenberg_charpoly(hessenberg(m))
    return tuple(_lowest(m.field, c, poly[-1][0]) for c in poly)


def _root_exponents(field, poly) -> list[tuple[int, bool]]:
    """``(e, repeated)`` for each exponent e in 0..d-1 at which zeta_d**e
    is a root of the polynomial with coefficients ``poly``, integer
    residues (None for zero) over one positive integer, constant term
    first; ``repeated`` says whether the derivative vanishes there too,
    that is whether (x - zeta_d**e)**2 divides the polynomial.
    Evaluated by ``CyclotomicField._shifted_sum``, one reduction per
    evaluation and no product; the derivative's term k c_k x**(k-1) is
    k c_k shifted by e (k - 1)."""
    terms = [(k, c) for k, c in enumerate(poly) if c and any(c)]
    derivative = [(k - 1, [k * a for a in c]) for k, c in terms if k]

    def vanishes(pairs, e: int) -> bool:
        return not any(field._shifted_sum(pairs, e))

    return [(e, vanishes(derivative, e)) for e in range(field.order) if vanishes(terms, e)]


def eigen_nullities(m: ExactMatrix) -> tuple[int, ...]:
    """``nullities[e] = n - rank(m - zeta_d**e I)`` for e in 0..d-1, d
    the order of m's field: the dimensions of m's eigenspaces at the
    d-th roots of unity.  Zero where zeta_d**e is not a root of the
    characteristic polynomial, read off the Hessenberg form H of m, and
    one at a simple root, since 1 <= geometric multiplicity <= algebraic
    multiplicity for any matrix; a rank is taken only at a repeated
    root.  H has the ranks of m, and a step of the rank kernel reduces
    one of its rows, so those ranks are taken on H unless its integer
    residues are longer than m's: the similarity transform can swell
    them when m has denominators."""
    h = hessenberg(m)
    nullities = [0] * m.field.order
    repeated = []
    for e, twice in _root_exponents(m.field, _hessenberg_charpoly(h)):
        if twice:
            repeated.append(e)
        else:
            nullities[e] = 1
    if repeated:
        shifts = min(ResidueMap(h), ResidueMap(m), key=ResidueMap.bits)
        for e in repeated:
            nullities[e] = shifts.nullity(e)
    return tuple(nullities)
