"""Field axioms, ordering and rounding for the quadratic extension type.

Comparisons are cross-checked against 60-digit decimal evaluation; the
decimal side only ever confirms, never decides, so disagreements point at
the exact code.
"""

import math
import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert import quadext
from orbicert.catalog import load_builtin
from orbicert.certifier import boundary_pairings
from orbicert.lattice import InternalError
from orbicert.quadext import (
    CrossFieldError,
    NoPositiveRootError,
    NoRealRootError,
    QuadExt,
    compare_cross,
    rational_above,
    rational_below,
)

getcontext().prec = 60


def approx(x: QuadExt) -> Decimal:
    root = Decimal(x.delta).sqrt() if x.delta else Decimal(0)
    return (
        Decimal(x.a.numerator) / Decimal(x.a.denominator)
        + Decimal(x.b.numerator) / Decimal(x.b.denominator) * root
    )


def random_value(rng: random.Random, delta: int) -> QuadExt:
    a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return QuadExt(a, b, delta)


def test_canonical_form():
    x = QuadExt(Fraction(1, 2), Fraction(3), 12)
    assert (x.a, x.b, x.delta) == (Fraction(1, 2), Fraction(6), 3)
    y = QuadExt(Fraction(1), Fraction(2), 9)
    assert y.is_rational and y.as_fraction() == 7
    z = QuadExt(Fraction(5), Fraction(0), 7)
    assert z.delta == 0
    w = QuadExt(Fraction(0), Fraction(1), Fraction(1, 2))
    assert (w.b, w.delta) == (Fraction(1, 2), 2)


def test_negative_radicand_rejected():
    with pytest.raises(NoRealRootError):
        QuadExt(Fraction(0), Fraction(1), -3)


def test_field_axioms_random():
    rng = random.Random(20260814)
    for _ in range(4000):
        delta = rng.choice([2, 3, 5, 7])
        x = random_value(rng, delta)
        y = random_value(rng, delta)
        z = random_value(rng, delta)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x - x == QuadExt(Fraction(0))
        if y.sign() != 0:
            assert (x / y) * y == x
            assert 1 / (1 / y) == y
        assert x ** 3 == x * x * x
        if x.sign() != 0:
            assert x ** -2 == 1 / (x * x)


def test_scalar_coercion():
    x = QuadExt(Fraction(1), Fraction(1), 3)
    assert 2 + x == x + 2
    assert 2 * x == x * 2
    assert 5 - x == -(x - 5)
    assert (6 / x) * x == QuadExt(Fraction(6))
    assert x + Fraction(1, 2) == QuadExt(Fraction(3, 2), Fraction(1), 3)


def test_cross_field_arithmetic_rejected():
    with pytest.raises(CrossFieldError):
        QuadExt(Fraction(0), Fraction(1), 2) + QuadExt(Fraction(0), Fraction(1), 3)
    with pytest.raises(CrossFieldError):
        QuadExt(Fraction(1), Fraction(1), 2) * QuadExt(Fraction(1), Fraction(1), 5)


def test_sign_tight_cases():
    assert QuadExt(Fraction(-7), Fraction(4), 3).sign() == -1
    assert QuadExt(Fraction(7), Fraction(-4), 3).sign() == 1
    # 26/15 is within 4e-5 of sqrt(3)
    assert QuadExt(Fraction(-26, 15), Fraction(1), 3).sign() == -1
    assert QuadExt(Fraction(26, 15), Fraction(-1), 3).sign() == 1
    assert QuadExt(Fraction(0)).sign() == 0
    assert QuadExt(Fraction(0), Fraction(-2), 5).sign() == -1


def test_sign_matches_decimal():
    rng = random.Random(7)
    for _ in range(4000):
        x = random_value(rng, rng.choice([2, 3, 5, 6, 7, 10]))
        got = x.sign()
        num = approx(x)
        if abs(num) > Decimal("1e-45"):
            assert got == (num > 0) - (num < 0), x


def test_compare_cross_distinct_fields():
    assert compare_cross(QuadExt(Fraction(0), Fraction(1), 2), QuadExt(Fraction(0), Fraction(1), 3)) < 0
    assert compare_cross(QuadExt(Fraction(1), Fraction(1), 2), QuadExt(Fraction(0), Fraction(1), 6)) < 0
    assert compare_cross(QuadExt(Fraction(0), Fraction(2), 3), QuadExt(Fraction(0), Fraction(1), 12)) == 0
    rng = random.Random(11)
    for _ in range(3000):
        x = random_value(rng, rng.choice([2, 3, 5, 7]))
        y = random_value(rng, rng.choice([2, 3, 5, 7]))
        got = compare_cross(x, y)
        num = approx(x) - approx(y)
        if abs(num) > Decimal("1e-45"):
            assert got == (num > 0) - (num < 0), (x, y)
        assert got == -compare_cross(y, x)


def test_order_operators_and_equality():
    x = QuadExt(Fraction(15), Fraction(-4), 3)
    assert x > 8 and x < 9
    assert x <= x and x >= x and x == x
    assert QuadExt(Fraction(7)) == Fraction(7) == QuadExt(Fraction(7), Fraction(0), 3)
    assert hash(QuadExt(Fraction(7))) == hash(Fraction(7))
    assert QuadExt(Fraction(0), Fraction(1), 2) != QuadExt(Fraction(0), Fraction(1), 3)


def bracket_floor(x: QuadExt) -> int:
    """Reference floor: bracket b*sqrt(delta) by isqrt, then step up exactly."""
    if x.b == 0:
        return math.floor(x.a)
    r = x.b * x.b * x.delta
    root = math.isqrt(r.numerator * r.denominator)
    mag_lo = Fraction(root, r.denominator)
    mag_hi = Fraction(root + 1, r.denominator)
    n = math.floor(x.a + (mag_lo if x.b > 0 else -mag_hi))
    while compare_cross(x, n + 1) >= 0:
        n += 1
    return n


def test_floor():
    assert math.floor(QuadExt(Fraction(0), Fraction(1), 3)) == 1
    assert math.floor(QuadExt(Fraction(0), Fraction(-1), 3)) == -2
    assert math.floor(QuadExt(Fraction(15), Fraction(-4), 3)) == 8
    assert math.floor(QuadExt(Fraction(7, 2))) == 3
    assert math.floor(QuadExt(Fraction(-7, 2))) == -4
    rng = random.Random(13)
    for _ in range(2000):
        x = random_value(rng, rng.choice([2, 3, 5, 7]))
        n = math.floor(x)
        assert compare_cross(x, n) >= 0
        assert compare_cross(x, n + 1) < 0


def min_root_quadratic(a_coeff, b_coeff, c_coeff) -> QuadExt:
    """Smallest positive solution of A*x^2 - 2*B*x + C = 0, in generic QuadExt.

    The reference for the closed-form truncation roots: degenerate A == 0
    gives the linear solution C / (2*B).  A negative quarter discriminant
    B^2 - A*C raises NoRealRootError; real roots with no positive one raise
    NoPositiveRootError.
    """
    a = Fraction(a_coeff)
    b = Fraction(b_coeff)
    c = Fraction(c_coeff)
    if a == 0:
        if b == 0:
            raise NoPositiveRootError("degenerate equation")
        linear = c / (2 * b)
        if linear <= 0:
            raise NoPositiveRootError("linear solution is nonpositive")
        return QuadExt(linear)
    disc = b * b - a * c
    if disc < 0:
        raise NoRealRootError(f"quarter discriminant {disc} < 0")
    root = QuadExt(Fraction(0), Fraction(1), disc)
    # (B -+ sqrt(disc)) / A in increasing order for either sign of A
    low = (QuadExt(b) - root) / a if a > 0 else (QuadExt(b) + root) / a
    if low.sign() > 0:
        return low
    high = (QuadExt(b) + root) / a if a > 0 else (QuadExt(b) - root) / a
    if high.sign() > 0:
        return high
    raise NoPositiveRootError("both roots nonpositive")


def test_min_root_quadratic():
    assert min_root_quadratic(1, 3, 9) == QuadExt(Fraction(3))
    assert min_root_quadratic(1, 15, 177) == QuadExt(Fraction(15), Fraction(-4), 3)
    assert min_root_quadratic(0, 2, 10) == QuadExt(Fraction(5, 2))
    assert min_root_quadratic(-1, -1, 3) == QuadExt(Fraction(3))
    with pytest.raises(NoRealRootError):
        min_root_quadratic(1, 1, 2)
    with pytest.raises(NoPositiveRootError):
        min_root_quadratic(0, -1, 4)
    with pytest.raises(NoPositiveRootError):
        min_root_quadratic(1, -1, 1)


def test_min_root_is_least_positive_root():
    rng = random.Random(17)
    hits = 0
    while hits < 800:
        a = rng.randint(-6, 6)
        b = rng.randint(-12, 12)
        c = rng.randint(-12, 12)
        try:
            root = min_root_quadratic(a, b, c)
        except (NoRealRootError, NoPositiveRootError, ZeroDivisionError):
            continue
        hits += 1
        assert root.sign() > 0
        value = a * root * root - 2 * b * root + c
        assert value.sign() == 0, (a, b, c, root)
        if a != 0:
            other = QuadExt(Fraction(2 * b, a)) - root
            if other.sign() > 0:
                assert compare_cross(root, other) <= 0


def test_rational_bounds():
    sqrt3 = QuadExt(Fraction(0), Fraction(1), 3)
    for k in (4, 10, 30, 48):
        gap = Fraction(1, 2 ** k)
        lo = rational_below(sqrt3, gap)
        hi = rational_above(sqrt3, gap)
        assert compare_cross(QuadExt(lo), sqrt3) < 0
        assert compare_cross(sqrt3 - QuadExt(lo), gap) < 0
        assert compare_cross(QuadExt(hi), sqrt3) > 0
        assert compare_cross(QuadExt(hi) - sqrt3, gap) < 0
    r = rational_below(QuadExt(Fraction(5, 3)), Fraction(1, 100))
    assert r == Fraction(5, 3) - Fraction(1, 200)
    with pytest.raises(ValueError):
        rational_below(sqrt3, 0)


def test_rational_bounds_random():
    rng = random.Random(19)
    for _ in range(400):
        x = random_value(rng, rng.choice([2, 3, 5, 7]))
        gap = Fraction(1, 2 ** rng.randint(3, 40))
        lo = rational_below(x, gap)
        hi = rational_above(x, gap)
        assert compare_cross(QuadExt(lo), x) < 0 < compare_cross(QuadExt(hi), x)
        assert compare_cross(x - QuadExt(lo), gap) < 0
        assert compare_cross(QuadExt(hi) - x, gap) < 0


def test_str_repr():
    assert str(QuadExt(Fraction(15), Fraction(-4), 3)) == "15 - 4*sqrt(3)"
    assert str(QuadExt(Fraction(0), Fraction(1), 2)) == "sqrt(2)"
    assert str(QuadExt(Fraction(-3, 2))) == "-3/2"
    x = QuadExt(Fraction(1, 3), Fraction(-1), 5)
    assert eval(repr(x), {"QuadExt": QuadExt, "Fraction": Fraction}) == x


# -- one radicand split per construction ------------------------------------------

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)

# primes near 1e9, for cofactors the cube-root bound leaves behind
BIG_PRIMES = (999999929, 999999937, 998244353, 1000000007, 1000000009, 1000000021)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 97, 101, 997, 1009, 65537)


def square_split_reference(n: int) -> tuple[int, int]:
    # n = s*s*f with f squarefree, trial division up to sqrt(n)
    s, f, m, d = 1, 1, n, 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        s *= d ** (e // 2)
        f *= d ** (e % 2)
        d += 1
    return s, f * m


def split_from_factors(factors: dict[int, int]) -> tuple[int, int]:
    s = f = 1
    for p, e in factors.items():
        s *= p ** (e // 2)
        f *= p ** (e % 2)
    return s, f


fractions = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)
)
radicands = st.sampled_from((2, 3, 5, 6, 7, 10, 4001, 48088059, 999999937 * 1009))


@st.composite
def same_field_pairs(draw):
    delta = draw(radicands)
    parts = []
    for _ in range(2):
        b = draw(st.one_of(st.just(Fraction(0)), fractions))
        parts.append(QuadExt(draw(fractions), b, delta))
    return parts


@PROPERTY
@given(same_field_pairs(), st.integers(-3, 3))
def test_arithmetic_results_are_canonical(pair, e):
    x, y = pair
    # y is rational in about half the draws; x / (-7/3) divides by one always
    results = [x + y, x - y, y - x, x * y, -x, x - x, x + 1, Fraction(1, 3) * y]
    results.append(x / Fraction(-7, 3))
    if y.sign() != 0:
        results += [x / y, 2 / y]
    if x.sign() != 0 or e >= 0:
        results.append(x ** e)
    for r in results:
        rebuilt = QuadExt(r.a, r.b, r.delta)
        assert repr(r) == repr(rebuilt)
        assert hash(r) == hash(rebuilt)


def test_arithmetic_never_splits_a_radicand(monkeypatch):
    rng = random.Random(23)
    values = [random_value(rng, 48088059) for _ in range(40)] + [QuadExt(Fraction(3))]
    other_field = QuadExt(Fraction(1), Fraction(2), 7)

    def refuse(n):
        raise AssertionError(f"radicand {n} split during arithmetic")

    monkeypatch.setattr(quadext, "_square_split", refuse)
    for x, y in zip(values, values[1:]):
        results = [x + y, x - y, x * y, -x, x ** 3, 1 - x, math.floor(x)]
        if y.sign() != 0:
            results += [x / y, 3 / y]
        signs = {compare_cross(x, y), compare_cross(x, other_field), (x < 5) - (x > 5)}
        assert results and signs <= {-1, 0, 1}


@PROPERTY
@given(
    st.integers(-10**12, 10**12),
    st.integers(-10**9, 10**9).filter(bool),
    st.integers(2, 10**12),
)
def test_partial_quotient_is_the_floor(p, q, n):
    if math.isqrt(n) ** 2 == n:
        n += 1
    expected = bracket_floor(QuadExt(Fraction(p, q), Fraction(1, q), n))
    assert quadext._partial_quotient(p, q, math.isqrt(n)) == expected


@PROPERTY
@given(
    st.integers(2, 10**12),
    fractions.filter(bool),
    st.integers(-10**6, 10**6),
    st.sampled_from((-1, 1)),
    st.integers(0, 100),
)
def test_floor_matches_bracket_reference(n, b, k, side, digits):
    # a + b*sqrt(n) within 10^-digits of the integer k, on either side
    if math.isqrt(n) ** 2 == n:
        n += 1
    surd = QuadExt(Fraction(0), b, n)
    gap = Fraction(1, 10**digits)
    near = rational_below(surd, gap) if side > 0 else rational_above(surd, gap)
    x = QuadExt(k - near, b, n)
    assert 0 < (x - k) * side < gap
    assert math.floor(x) == bracket_floor(x) == (k if side > 0 else k - 1)


def test_continued_fraction_builds_no_value(monkeypatch):
    x = QuadExt(Fraction(-7, 3), Fraction(5, 11), 48088059)

    def refuse(*args):
        raise AssertionError("QuadExt built inside the continued fraction")

    monkeypatch.setattr(quadext.QuadExt, "__post_init__", refuse)
    monkeypatch.setattr(quadext, "_make", refuse)
    for k in (1, 20, 200):
        gap = Fraction(1, 2**k)
        lo, hi = rational_below(x, gap), rational_above(x, gap)
        assert lo < hi and hi - lo < 2 * gap


def test_continued_fraction_failure_is_internal(monkeypatch):
    monkeypatch.setattr(quadext, "_CF_STEPS", 3)
    sqrt2 = QuadExt(Fraction(0), Fraction(1), 2)
    with pytest.raises(InternalError):
        rational_below(sqrt2, Fraction(1, 10**30))


@PROPERTY
@given(st.integers(0, 10**10))
def test_square_split_matches_reference(n):
    assert quadext._square_split(n) == square_split_reference(n)


@PROPERTY
@given(
    st.lists(
        st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(1, 4)),
        min_size=1,
        max_size=5,
    )
)
def test_square_split_products_of_prime_powers(pairs):
    factors: dict[int, int] = {}
    for p, e in pairs:
        factors[p] = factors.get(p, 0) + e
    n = math.prod(p**e for p, e in factors.items())
    assert quadext._square_split(n) == split_from_factors(factors)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from(BIG_PRIMES),
    st.sampled_from(BIG_PRIMES),
    st.integers(1, 1000),
    st.sampled_from(["p^2", "p*q", "p^2*k"]),
)
def test_square_split_large_cofactors(p, q, k, shape):
    if shape == "p^2":
        n, expected = p * p, (p, 1)
    elif shape == "p*q":
        n, expected = p * q, (p, 1) if p == q else (1, p * q)
    else:
        s, f = square_split_reference(k)
        n, expected = p * p * k, (p * s, f)
    assert quadext._square_split(n) == expected


def sqrt_parts_reference(r: Fraction) -> tuple:
    # numerator and denominator are coprime, so sqrt(n*d) splits each apart
    n, d = r.numerator, r.denominator
    if n == 0:
        return 0, 1
    (sn, fn), (sd, fd) = square_split_reference(n), square_split_reference(d)
    s = Fraction(sn * sd, d)
    return (s.numerator if d == 1 else s), fn * fd


@PROPERTY
@given(st.integers(0, 10**12), st.integers(1, 10**12), fractions, fractions)
def test_sqrt_parts_matches_reference(p, q, a, b):
    r = Fraction(p, q)
    s, f = sqrt_parts_reference(r)
    got = quadext.sqrt_parts(r)
    assert got == (s, f) and type(got[0]) is type(s)
    x = QuadExt(a, b, r)
    want = (a + b * s, 0, 0) if f == 1 or b == 0 else (a, b * s, f)
    assert (x.a, x.b, x.delta) == want


@pytest.mark.parametrize(
    "r, want",
    [
        (0, (0, 1)),
        (Fraction(0), (0, 1)),
        (49, (7, 1)),
        (10**24, (10**12, 1)),
        (Fraction(9, 4), (Fraction(3, 2), 1)),
        (Fraction(1, 10**24), (Fraction(1, 10**12), 1)),
        (Fraction(8, 3), (Fraction(2, 3), 6)),
        (12, (2, 3)),
    ],
)
def test_sqrt_parts_at_zero_and_squares(r, want):
    got = quadext.sqrt_parts(r)
    assert got == want and type(got[0]) is type(want[0])


@PROPERTY
@given(
    st.lists(
        st.one_of(
            st.integers(1, 10**6),
            st.builds(Fraction, st.integers(1, 1000), st.integers(1, 12)),
        ),
        min_size=4,
        max_size=4,
    )
)
def test_boundary_sqrt_split_matches_reference(weights):
    bp = boundary_pairings(load_builtin("four-lines"), weights)
    assert bp.sqrt_split == sqrt_parts_reference(Fraction(bp.paired_square))


def test_square_split_of_a_large_semiprime_is_fast():
    n = 1000000007 * 998244353
    start = time.perf_counter()
    assert quadext._square_split(n) == (1, n)
    assert time.perf_counter() - start < 1.0


# -- the integer sign kernel --------------------------------------------------------


def sign_reference(a: Fraction, b: Fraction, d: int) -> int:
    """The Fraction sign test _sign replaced: square a and b as Fractions."""
    if b == 0:
        return quadext._sgn(a)
    if a == 0:
        return quadext._sgn(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    s = quadext._sgn(a * a - b * b * d)
    return s if a > 0 else -s


big_fractions = st.builds(
    Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)
)


@PROPERTY
@given(big_fractions, big_fractions, st.integers(0, 10**12))
def test_sign_matches_the_fraction_reference(a, b, d):
    assert quadext._sign(a, b, d) == sign_reference(a, b, d)
    assert quadext._sign(-a, -b, d) == -sign_reference(a, b, d)


@PROPERTY
@given(big_fractions, st.sampled_from((0, 1, 4)), st.integers(-2, 2))
def test_sign_at_the_square_tie(b, d, nudge):
    # a = -b sqrt(d) gives a^2 = b^2 d; the nudge steps a to either side
    a = -b * math.isqrt(d) + Fraction(nudge, b.denominator + 7)
    for x, y in ((a, b), (-a, -b), (a, Fraction(0)), (Fraction(0), b)):
        assert quadext._sign(x, y, d) == sign_reference(x, y, d)
    if nudge == 0 and d:
        assert quadext._sign(a, b, d) == 0


rationals = st.one_of(
    st.integers(-10**20, 10**20), big_fractions, st.booleans()
)


@PROPERTY
@given(big_fractions, big_fractions, radicands, rationals)
def test_compare_cross_with_a_rational_matches_the_coerced_route(a, b, delta, r):
    for x in (QuadExt(a, b, delta), QuadExt(a)):
        coerced = compare_cross(x, QuadExt.of(r))
        assert compare_cross(x, r) == coerced
        assert compare_cross(r, x) == -coerced == compare_cross(QuadExt.of(r), x)
        assert (x < r, x == r, r < x) == (coerced < 0, coerced == 0, coerced > 0)
