"""Dense univariate polynomial helpers over the rationals.

Polynomials are tuples of coefficients, constant term first, with no
trailing zeros; the zero polynomial is the empty tuple.  Valuations,
degrees and radicals are invariant under nonzero rational scaling, so most
routines work on primitive integer tuples and rational inputs are cleared
to that form once at the boundary.  Both kernels evaluate at one point
instead of dividing: ``valuations`` evaluates a once, at a point X = 2^k
that Hadamard's and Mignotte's bounds make exact for every place at once,
and counts how often each p(X) divides a(X); ``gcd_poly`` proves a gcd
read off the integer gcd of two values (Char, Geddes and Gonnet,
J. Symbolic Comput. 7 (1989)).  Repeated
``exact_quotient`` division and the primitive pseudo-remainder sequence,
which they replaced, are the tests' references.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Sequence

IntPoly = tuple[int, ...]

ZERO: IntPoly = ()
ONE: IntPoly = (1,)


def trim(coeffs: Sequence[int]) -> IntPoly:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def degree(p: IntPoly) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(p) - 1


def is_zero(p: IntPoly) -> bool:
    return not p


def content(p: IntPoly) -> int:
    g = 0
    for c in p:
        g = gcd(g, c)
    return g


def primitive(p: IntPoly) -> IntPoly:
    g = content(p)
    if g in (0, 1):
        return p
    return tuple(c // g for c in p)


def clear_rationals(coeffs: Iterable[Fraction | int]) -> IntPoly:
    """Primitive integer polynomial with the same roots and valuations."""
    fracs = [Fraction(c) for c in coeffs]
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // gcd(scale, f.denominator)
    return primitive(trim([int(f * scale) for f in fracs]))


def add(a: IntPoly, b: IntPoly) -> IntPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def neg(a: IntPoly) -> IntPoly:
    return tuple(-c for c in a)


def scale(a: IntPoly, k: int) -> IntPoly:
    if k == 0:
        return ZERO
    return tuple(c * k for c in a)


def mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return ZERO
    if len(a) == 1:
        return b if a[0] == 1 else scale(b, a[0])
    if len(b) == 1:
        return a if b[0] == 1 else scale(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def pow_(a: IntPoly, n: int) -> IntPoly:
    if n == 0:
        return ONE
    if n == 1:
        return a
    out = ONE
    while True:
        if n & 1:
            out = mul(out, a)
        n >>= 1
        if not n:
            return out
        a = mul(a, a)


def derivative(a: IntPoly) -> IntPoly:
    return trim([i * c for i, c in enumerate(a)][1:])


def eval_int(a: IntPoly, x: int) -> int:
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def exact_quotient(a: IntPoly, p: IntPoly) -> IntPoly | None:
    """The integer cofactor a / p, or None when it is not in Z[t].

    By Gauss's lemma a primitive p that divides a in Q[t] leaves an integer
    cofactor, so for primitive p None means that p does not divide a.  The
    long division stops at the first coefficient that lead(p) fails to divide.
    """
    if not p:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ZERO
    top = len(p) - 1
    if len(a) <= top:
        return None
    lead = p[-1]
    rem = list(a)
    quo = [0] * (len(a) - top)
    for shift in range(len(quo) - 1, -1, -1):
        if lead == 1:
            coef = rem[shift + top]
        else:
            coef, r = divmod(rem[shift + top], lead)
            if r:
                return None
        if coef:
            quo[shift] = coef
            for j in range(top):
                rem[shift + j] -= coef * p[j]
    if any(rem[:top]):
        return None
    return tuple(quo)


def valuations(ps: Sequence[IntPoly], a: IntPoly) -> list[int]:
    """Multiplicity v of each primitive irreducible p in ps, of degree d >= 1, in a.

    Write a = p^v * b with p not dividing b, so b is in Z[t] (Gauss's lemma)
    and the nonzero Res(p, b) lies in the ideal (p, b): gcd(p(X), b(X))
    divides it.  Hadamard's bound and Mignotte's |b|_2 <= 2^deg b * |a|_2
    (Math. Comp. 28 (1974)) give, for n = deg a and p2 = sum p_i^2,
    Res(p, b)^2 <= p2^n * 4^(n d) * ((n + 1) * |a|_inf^2)^d < 2^bits.
    Any X with p(X)^2 >= 2^bits makes p(X) never divide b(X), so one X = 2^k,
    grown until that holds for every p of degree at most n, serves them all:
    v counts the divisions of the nonzero a(X) by p(X).
    """
    if not a:
        raise ValueError("valuation of the zero polynomial")
    n = len(a) - 1
    a_bits = 2 * n + (n + 1).bit_length() + 2 * max(map(abs, a)).bit_length()
    live, k = [], 0  # live: (index, bits) of each p of degree at most n
    for i, p in enumerate(ps):
        d = len(p) - 1
        if d < 1:
            raise ValueError("valuation at a divisor of degree below 1")
        if d <= n:
            bits = n * _square_norm_bits(p) + d * a_bits
            k = max(k, bits // (2 * d) + 1)
            live.append((i, bits))
    while True:
        big_ps = [_at_power_of_two(ps[i], k) for i, _ in live]
        if all((big_p * big_p) >> bits for big_p, (_, bits) in zip(big_ps, live)):
            break
        k += 1
    out = [0] * len(ps)
    big_a = _at_power_of_two(a, k)
    for (i, _), big_p in zip(live, big_ps):
        quo, rem = divmod(big_a, big_p)
        while not rem:
            out[i] += 1
            quo, rem = divmod(quo, big_p)
    return out


@lru_cache(maxsize=256)
def _square_norm_bits(p: IntPoly) -> int:
    """Bits of sum p_i^2: a place's part of the bound, the same on every call."""
    return sum(c * c for c in p).bit_length()


def _at_power_of_two(a: IntPoly, k: int) -> int:
    """a(2^k), by Horner's rule on shifts."""
    out = 0
    for c in reversed(a):
        out = (out << k) + c
    return out


def gcd_poly(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Q[t] with a positive leading coefficient.

    Each evaluation point xi proposes a candidate, and the first candidate
    proven right is returned (see ``_gcd_at``).  The points start at
    2 * min(|a|_inf, |b|_inf) + 2 for the primitive parts a and b and grow
    by the factor 73794/27011 of Geddes, Czapor and Labahn, "Algorithms for
    Computer Algebra", section 7.7.  The loop ends: a wrong candidate carries
    an integer factor that divides Res(a / g, b / g), and once xi outgrows
    it and every coefficient involved, the digits are exact.
    """
    a, b = primitive(a), primitive(b)
    if not a:
        return _pos_lead(b)
    if not b:
        return _pos_lead(a)
    if len(a) == 1 or len(b) == 1:
        return ONE
    for xi in _evaluation_points(a, b):
        g = _gcd_at(a, b, xi)
        if g is not None:
            return g


def _evaluation_points(a: IntPoly, b: IntPoly) -> Iterator[int]:
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    while True:
        yield xi
        xi = xi * 73794 // 27011


def _gcd_at(a: IntPoly, b: IntPoly, xi: int) -> IntPoly | None:
    """gcd(a, b) for primitive nonconstant a and b, proven from the values
    at xi >= 2 * min(|a|_inf, |b|_inf) + 2, or None when xi proves nothing.

    Let h be the primitive part of the balanced base-xi digits of
    gamma = gcd(a(xi), b(xi)).  Say a has the smaller norm.  Every root of a
    has modulus below 1 + |a|_inf <= xi / 2 (Cauchy), so each nonconstant
    factor c of a has |c(xi)| > xi / 2.  The true gcd g divides gamma at xi,
    so a nonconstant g makes |gamma| > xi / 2, which takes two digits: a
    constant h proves gcd 1 (Geddes, Czapor and Labahn, Theorem 7.7).  A
    nonconstant h is returned only after h * (a / h) == a and
    h * (b / h) == b, with the cofactors read off the digits of a(xi) / h(xi)
    and b(xi) / h(xi).  Then g = h * c, and c(xi) divides the content of
    gamma's digits, which is at most xi / 2, so c is a unit.  The proof runs
    on ``mul`` alone, never on ``exact_quotient``.
    """
    h = primitive(_digits(gcd(eval_int(a, xi), eval_int(b, xi)), xi))
    if len(h) == 1:
        return ONE
    h_xi = eval_int(h, xi)
    for p in (a, b):
        cofactor, rem = divmod(eval_int(p, xi), h_xi)
        if rem or mul(h, _digits(cofactor, xi)) != p:
            return None
    return _pos_lead(h)


def _digits(n: int, xi: int) -> IntPoly:
    """The balanced base-xi digits of n, constant first: the polynomial p
    with p(xi) = n and every coefficient in (-xi / 2, xi / 2]."""
    half = xi // 2
    out = []
    while n:
        d = n % xi
        if d > half:
            d -= xi
        out.append(d)
        n = (n - d) // xi
    return tuple(out)


def _pos_lead(p: IntPoly) -> IntPoly:
    if p and p[-1] < 0:
        return neg(p)
    return p


def radical_degree(a: IntPoly) -> int:
    """Number of distinct roots in an algebraic closure (degree of a/gcd(a, a'))."""
    if not a:
        raise ValueError("radical of the zero polynomial")
    if len(a) == 1:
        return 0
    return len(a) - len(gcd_poly(a, derivative(a)))


def to_string(p: IntPoly, var: str = "t") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
        parts.append(("-" if c < 0 else "+", term))
    sign0, term0 = parts[0]
    text = ("-" if sign0 == "-" else "") + term0
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text
