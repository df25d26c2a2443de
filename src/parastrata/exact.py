"""Exact scalars and exact linear algebra.

Three scalar domains, all immutable and arbitrary precision:

* plain rationals -- ``fractions.Fraction`` from the standard library;
* ``IntPolynomial`` -- integer-coefficient polynomials in one variable;
* ``Cyclotomic`` -- elements of the field Q(zeta_d), stored as residues
  modulo the d-th cyclotomic polynomial in the power basis
  1, x, ..., x^(phi(d)-1).

``ExactMatrix`` carries a rectangular block of scalars from one
``CyclotomicField``; the rationals are ``RATIONALS = cyclotomic_field(1)``,
whose elements equal and hash like the ``Fraction`` they hold.  The
elimination routines (``rref``, ``rank``, ``kernel``, ``solve``,
``inverse``) share one row reducer.  Pivoting is leftmost-first and
pivots are normalized to one, so every output is deterministic.  No
floating point anywhere.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from fractions import Fraction


def to_fraction(x) -> Fraction:
    """``Fraction(x)``, refusing binary floats: ``Fraction(0.1)`` is not 1/10."""
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

    @staticmethod
    def of(coeffs) -> "IntPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(cs))

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

    @staticmethod
    def x_power(k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative exponent")
        return IntPolynomial((0,) * k + (1,))

    @staticmethod
    def geometric(n: int) -> "IntPolynomial":
        """1 + x + ... + x**(n-1), i.e. (x**n - 1)/(x - 1)."""
        if n < 0:
            raise ValueError("negative length")
        return IntPolynomial((1,) * n)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial.of(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.of(out)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod_monic(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division by a monic divisor, staying inside the integers."""
        if divisor.is_zero() or divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        dd = divisor.degree
        if len(rem) - 1 < dd:
            return IntPolynomial(), self
        quot = [0] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c:
                quot[k - dd] = c
                for i, m in enumerate(divisor.coeffs):
                    rem[k - dd + i] -= c * m
        return IntPolynomial.of(quot), IntPolynomial.of(rem)

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        q, r = self.divmod_monic(divisor)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

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


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial.

    Computed by exact division of x**d - 1 by the product of the lower
    cyclotomic polynomials over the proper divisors of d; monic and
    irreducible over the rationals.
    """
    if d < 1:
        raise ValueError("positive order expected")
    numerator = IntPolynomial.x_power(d) - IntPolynomial.one()
    acc = IntPolynomial.one()
    for e in divisors(d):
        if e < d:
            acc = acc * cyclotomic_polynomial(e)
    return numerator.exact_div(acc)


# ---------------------------------------------------------------------------
# Rational polynomial helpers (internal, for cyclotomic inversion)
# ---------------------------------------------------------------------------


def _qp_trim(c: list[Fraction]) -> list[Fraction]:
    while c and not c[-1]:
        c.pop()
    return c


def _qp_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    lead = b[-1]
    for k in range(len(rem) - 1, len(b) - 2, -1):
        c = rem[k]
        if c:
            f = c / lead
            quot[k - len(b) + 1] = f
            for i, m in enumerate(b):
                rem[k - len(b) + 1 + i] -= f * m
    return _qp_trim(quot), _qp_trim(rem)


def _qp_xgcd(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Return (g, s) with s*a = g modulo b, g a gcd of a and b."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _qp_divmod(r0, r1)
        r0, r1 = r1, r
        # s_next = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    prod[i + j] += qc * sc
        nxt = list(s0) + [Fraction(0)] * max(0, len(prod) - len(s0))
        for i, c in enumerate(prod):
            nxt[i] -= c
        s0, s1 = s1, _qp_trim(nxt)
    return r0, s0


# ---------------------------------------------------------------------------
# Cyclotomic fields
# ---------------------------------------------------------------------------


class Cyclotomic:
    """An element of Q(zeta_d), as a residue modulo the d-th cyclotomic
    polynomial in the power basis.

    Arithmetic mixes freely with ``int`` and ``Fraction``.  Equality
    (and hashing) against plain rationals holds exactly when the element
    lies in the rational subfield.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "CyclotomicField", coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

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
            return self.field.from_rational(Fraction(other))
        return None

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        k = self.field.degree
        conv = [Fraction(0)] * (2 * k - 1) if k > 0 else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        return self.field.element(conv)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("inversion of zero")
        mod = [Fraction(c) for c in self.field.modulus.coeffs]
        g, s = _qp_xgcd(list(self.coeffs), mod)
        # modulus irreducible, so the gcd is a nonzero constant
        if len(g) != 1:
            raise ArithmeticError("gcd with the cyclotomic modulus is not constant")
        inv = [c / g[0] for c in s]
        return self.field.element(inv)

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
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            return self.field.order == other.field.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.is_rational() and self.rational_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.field.order, self.coeffs))

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
    """The field Q(zeta_d).  Obtain instances via ``cyclotomic_field(d)``."""

    __slots__ = ("order", "modulus", "degree", "zero", "one")

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("positive order expected")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = self.modulus.degree
        self.zero = Cyclotomic(self, (Fraction(0),) * self.degree)
        self.one = self.element([Fraction(1)])

    def element(self, coeffs) -> Cyclotomic:
        """Reduce an arbitrary-length rational coefficient sequence."""
        c = [Fraction(v) for v in coeffs]
        mod = self.modulus.coeffs
        k = self.degree
        if len(c) < k:
            c += [Fraction(0)] * (k - len(c))
        for i in range(len(c) - 1, k - 1, -1):
            t = c[i]
            if t:
                for j in range(k):
                    c[i - k + j] -= t * mod[j]
        return Cyclotomic(self, tuple(c[:k]))

    def from_rational(self, x) -> Cyclotomic:
        return self.element([to_fraction(x)])

    def zeta(self, power: int = 1) -> Cyclotomic:
        """zeta_d ** power, with zeta_d a fixed primitive d-th root of unity."""
        return self.element([Fraction(0)] * (power % self.order) + [Fraction(1)])

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
            return self.from_rational(value)
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
    """Immutable row-major matrix over one exact field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        ents = tuple(field.coerce(e) for e in entries)
        if len(ents) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ents)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = ents

    @staticmethod
    def from_rows(field, rows) -> "ExactMatrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        flat = [e for r in rows for e in r]
        return ExactMatrix(field, len(rows), ncols, flat)

    @staticmethod
    def identity(field, n: int) -> "ExactMatrix":
        ents = [field.one if i == j else field.zero for i in range(n) for j in range(n)]
        return ExactMatrix(field, n, n, ents)

    @staticmethod
    def zeros(field, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(field, rows, cols, [field.zero] * (rows * cols))

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def iter_rows(self):
        for i in range(self.rows):
            yield self.row(i)

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

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
        out = []
        ocols = [other.column(j) for j in range(other.cols)]
        for i in range(self.rows):
            r = self.row(i)
            for col in ocols:
                acc = zero
                for a, b in zip(r, col):
                    if a and b:
                        acc = acc + a * b
                out.append(acc)
        return ExactMatrix(self.field, self.rows, other.cols, out)

    def apply(self, vector) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        v = [self.field.coerce(x) for x in vector]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        zero = self.field.zero
        out = []
        for i in range(self.rows):
            acc = zero
            for a, b in zip(self.row(i), v):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def __pow__(self, n: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if n < 0:
            raise ValueError("negative matrix power")
        acc = ExactMatrix.identity(self.field, self.rows)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one, zero = self.field.one, self.field.zero
        for i in range(self.rows):
            for j in range(self.cols):
                if self.entry(i, j) != (one if i == j else zero):
                    return False
        return True

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
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.entries))

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
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = _rref_in_place(m.field, rows)
    flat = [e for r in rows for e in r]
    return ExactMatrix(m.field, m.rows, m.cols, flat), tuple(pivots)


def rank(m: ExactMatrix) -> int:
    return len(rref(m)[1])


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
