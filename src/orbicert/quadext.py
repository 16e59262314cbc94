"""Exact arithmetic in real quadratic extensions of the rationals.

Values have the canonical form a + b*sqrt(delta) with rational a, b and a
squarefree nonnegative integer delta.  delta == 0 exactly when the value is
rational, so equality of canonical forms is equality of real numbers.  All
comparisons are decided by sign case analysis and integer squaring; floating
point never participates in a verdict.

Construction normalizes: ``QuadExt(a, b, delta)`` splits the square part out
of an arbitrary rational radicand, once, with ``sqrt_parts``.  Arithmetic
carries the operands' radicand, which is already squarefree, so ``+ - * /``,
comparisons and the continued fractions behind ``rational_below`` and
``rational_above`` never split a radicand again.  Splitting trial-divides
only up to the cube root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

from .lattice import InternalError

Rational = Union[int, Fraction]


class CrossFieldError(ValueError):
    """Arithmetic attempted between two distinct irrational extensions."""


class NoRealRootError(ValueError):
    """Negative radicand under a square root."""


class NoPositiveRootError(ValueError):
    """The quadratic has real roots but none of them is positive."""


def _square_split(n: int) -> tuple[int, int]:
    # n = s*s*f with f squarefree.  Once d^3 > m, every prime left in m
    # exceeds its cube root, so m is 1, p, p*q or p^2
    if n < 0:
        raise ValueError("negative radicand")
    s, f, m = 1, 1, n
    d = 2
    while d * d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    r = isqrt(m)
    if m > 1 and r * r == m:
        return s * r, f
    return s, f * m


def sqrt_parts(r: Rational) -> tuple[Rational, int]:
    """(s, f) with sqrt(r) = s*sqrt(f) and f squarefree; (0, 1) at r = 0.

    sqrt(p/q) = sqrt(p*q)/q, so s is an int whenever r is.
    """
    p, q = r.numerator, r.denominator
    if p == 0:
        return 0, 1
    s, f = _square_split(p * q)
    return (s if q == 1 else Fraction(s, q)), f


def _sgn(x: Fraction | int) -> int:
    return (x > 0) - (x < 0)


def _sign(a: Rational, b: Rational, d: int) -> int:
    # sign of a + b*sqrt(d), d >= 0, decided on numerators and denominators
    an, bn = a.numerator, b.numerator
    if bn == 0:
        return _sgn(an)
    if an == 0:
        return _sgn(bn)
    if (an > 0) == (bn > 0):
        return _sgn(an)
    # opposite signs: a^2 - b^2 d has the sign of an^2 bd^2 - bn^2 d ad^2
    ad, bd = a.denominator, b.denominator
    s = _sgn(an * an * bd * bd - bn * bn * d * ad * ad)
    return s if an > 0 else -s


@dataclass(frozen=True)
class QuadExt:
    """Canonical a + b*sqrt(delta); construction normalizes arguments."""

    a: Fraction
    b: Fraction = Fraction(0)
    delta: int = 0

    def __post_init__(self) -> None:
        a, b, delta = Fraction(self.a), Fraction(self.b), Fraction(self.delta)
        if delta < 0:
            raise NoRealRootError("negative radicand")
        s, f = sqrt_parts(delta) if b else (0, 1)
        b *= s
        if f == 1:
            # no radicand, or a square one: the value is rational
            a, b, f = a + b, Fraction(0), 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "delta", f)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def of(value: "QuadExt | Rational") -> "QuadExt":
        if isinstance(value, QuadExt):
            return value
        return _make(Fraction(value), _ZERO, 0)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- ring operations --------------------------------------------------

    def _join_delta(self, other: "QuadExt") -> int:
        if self.b == 0:
            return other.delta
        if other.b == 0 or self.delta == other.delta:
            return self.delta
        raise CrossFieldError(
            f"sqrt({self.delta}) and sqrt({other.delta}) do not share a field"
        )

    def __add__(self, other: "QuadExt | Rational") -> "QuadExt":
        o = QuadExt.of(other)
        d = self._join_delta(o)
        return _make(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return _make(-self.a, -self.b, self.delta)

    def __sub__(self, other: "QuadExt | Rational") -> "QuadExt":
        return self + (-QuadExt.of(other))

    def __rsub__(self, other: "QuadExt | Rational") -> "QuadExt":
        return QuadExt.of(other) + (-self)

    def __mul__(self, other: "QuadExt | Rational") -> "QuadExt":
        o = QuadExt.of(other)
        d = self._join_delta(o)
        return _make(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "QuadExt | Rational") -> "QuadExt":
        o = QuadExt.of(other)
        if o.a == 0 and o.b == 0:
            raise ZeroDivisionError("division by zero")
        if o.b == 0:
            return _make(self.a / o.a, self.b / o.a, self.delta)
        d = self._join_delta(o)
        norm = o.a * o.a - o.b * o.b * d
        # conjugate trick; norm is rational and nonzero for nonzero o
        num = self * _make(o.a, -o.b, d)
        return _make(num.a / norm, num.b / norm, num.delta)

    def __rtruediv__(self, other: "QuadExt | Rational") -> "QuadExt":
        return QuadExt.of(other) / self

    def __pow__(self, n: int) -> "QuadExt":
        if n < 0:
            return _ONE / self ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        return _sign(self.a, self.b, self.delta)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (QuadExt, int, Fraction)):
            return compare_cross(self, other) == 0
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.delta))

    def __lt__(self, other: "QuadExt | Rational") -> bool:
        return compare_cross(self, other) < 0

    def __le__(self, other: "QuadExt | Rational") -> bool:
        return compare_cross(self, other) <= 0

    def __gt__(self, other: "QuadExt | Rational") -> bool:
        return compare_cross(self, other) > 0

    def __ge__(self, other: "QuadExt | Rational") -> bool:
        return compare_cross(self, other) >= 0

    def __floor__(self) -> int:
        if self.b == 0:
            return self.a.numerator // self.a.denominator
        p, q, n = _cf_state(self)
        return _partial_quotient(p, q, isqrt(n))

    # -- presentation -------------------------------------------------------

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        tail = f"sqrt({self.delta})"
        if abs(self.b) != 1:
            tail = f"{abs(self.b)}*{tail}"
        op = "+" if self.b > 0 else "-"
        if self.a == 0:
            return tail if self.b > 0 else f"-{tail}"
        return f"{self.a} {op} {tail}"

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.delta})"


_ZERO = Fraction(0)


def _make(a: Fraction, b: Fraction, delta: int) -> QuadExt:
    """a + b*sqrt(delta) without normalization: a and b are Fractions and
    delta is already squarefree, as it is for any operand's radicand."""
    x = object.__new__(QuadExt)
    if b == 0:
        b, delta = _ZERO, 0
    object.__setattr__(x, "a", a)
    object.__setattr__(x, "b", b)
    object.__setattr__(x, "delta", delta)
    return x


_ONE = _make(Fraction(1), _ZERO, 0)


def compare_cross(x: QuadExt | Rational, y: QuadExt | Rational) -> int:
    """Sign of x - y for values from possibly different quadratic fields.

    Same-field differences reduce to a single sign test.  Otherwise write
    x - y = P + Q with P in one field and Q a pure multiple of the other
    square root; opposite signs are resolved by comparing P^2 with the
    rational Q^2.  One squaring always suffices.  A rational operand on
    either side is subtracted from the other's rational part directly.
    """
    if isinstance(x, QuadExt):
        if isinstance(y, (int, Fraction)):
            return _sign(x.a - y, x.b, x.delta)
    elif isinstance(y, QuadExt) and isinstance(x, (int, Fraction)):
        return -_sign(y.a - x, y.b, y.delta)
    xq, yq = QuadExt.of(x), QuadExt.of(y)
    if xq.b == 0 or yq.b == 0 or xq.delta == yq.delta:
        d = xq.delta if xq.b != 0 else yq.delta
        return _sign(xq.a - yq.a, xq.b - yq.b, d)
    # P = pa + xb*sqrt(xd), Q = -yb*sqrt(yd)
    pa, xb, xd = xq.a - yq.a, xq.b, xq.delta
    sp = _sign(pa, xb, xd)
    sq = _sgn(-yq.b)
    if sp == 0:
        return sq
    if sq == 0 or sp == sq:
        return sp
    # sign of P^2 - Q^2 = (pa^2 + xb^2 xd - yb^2 yd) + 2 pa xb sqrt(xd)
    return sp * _sign(pa * pa + xb * xb * xd - yq.b * yq.b * yq.delta, 2 * pa * xb, xd)


def _cf_state(x: QuadExt) -> tuple[int, int, int]:
    # write x = (P + sqrt(N)) / Q with integers, Q | N - P^2
    denom = x.a.denominator * x.b.denominator // gcd(
        x.a.denominator, x.b.denominator
    )
    a_int = x.a.numerator * (denom // x.a.denominator)
    b_int = x.b.numerator * (denom // x.b.denominator)
    n = b_int * b_int * x.delta
    p, q = a_int, denom
    if b_int < 0:
        p, q = -p, -q
    if (n - p * p) % q != 0:
        p, q, n = p * abs(q), q * abs(q), n * q * q
    return p, q, n


def rational_below(x: QuadExt, gap: Rational) -> Fraction:
    """A rational r with x - gap < r < x; x must exceed every returned r.

    Rational x gets x - gap/2.  Irrational x gets an even-index continued
    fraction convergent, which is strictly below the value.
    """
    gap = Fraction(gap)
    if gap <= 0:
        raise ValueError("gap must be positive")
    if x.is_rational:
        return x.as_fraction() - gap / 2
    return _cf_bound(x, gap, below=True)


def rational_above(x: QuadExt, gap: Rational) -> Fraction:
    """A rational r with x < r < x + gap (strictly above)."""
    gap = Fraction(gap)
    if gap <= 0:
        raise ValueError("gap must be positive")
    if x.is_rational:
        return x.as_fraction() + gap / 2
    return _cf_bound(x, gap, below=False)


def _partial_quotient(p: int, q: int, s: int) -> int:
    """floor((p + sqrt(n)) / q) for q != 0 and s = isqrt(n), n not a square.

    sqrt(n) lies strictly between s and s + 1, so for q > 0 no integer
    multiple of q falls between p + s and p + sqrt(n); for q < 0 the value
    is minus an irrational, whose floor is minus its floor, minus one.
    """
    if q > 0:
        return (p + s) // q
    return -((p + s) // -q) - 1


_CF_STEPS = 10_000


def _cf_bound(x: QuadExt, gap: Fraction, below: bool) -> Fraction:
    # PQa recurrence (Jacobson and Williams, Solving the Pell Equation, ch. 3):
    # every complete quotient is (p + sqrt(n)) / q with integers p, q and
    # the same n, so isqrt(n) once gives every partial quotient
    p, q, n = _cf_state(x)
    s = isqrt(n)
    side = 1 if below else -1
    h_prev, h = 1, None
    k_prev, k = 0, None
    for step in range(_CF_STEPS):
        a_k = _partial_quotient(p, q, s)
        if h is None:
            h, k = a_k, 1
        else:
            h, h_prev = a_k * h + h_prev, h
            k, k_prev = a_k * k + k_prev, k
        conv = Fraction(h, k)
        is_below = step % 2 == 0
        # accept 0 < side * (x - conv) < gap
        if is_below == below and (
            _sign(x.a - conv, x.b, x.delta) == side
            and _sign(x.a - conv - side * gap, x.b, x.delta) == -side
        ):
            return conv
        p = a_k * q - p
        q = (n - p * p) // q
        if q == 0:
            break
    raise InternalError("continued fraction failed to converge")
