"""Univariate polynomial helpers: ring identities and valuations.

Random products with known factorizations act as the oracle for the
valuation, gcd and radical routines.  Long division over Q, kept here as
``rational_divmod``, is the oracle for the integer division kernel; repeated
exact division, kept here as ``reference_valuation``, is the oracle for the
valuation by evaluation; and the primitive pseudo-remainder sequence, kept
here as ``prs_gcd``, is the oracle for the gcd by evaluation.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert import polys
from orbicert.ffheights import _PLACE_POOL, Place
from orbicert.polys import (
    ONE,
    ZERO,
    add,
    clear_rationals,
    content,
    degree,
    derivative,
    eval_int,
    exact_quotient,
    gcd_poly,
    is_zero,
    mul,
    neg,
    pow_,
    primitive,
    radical_degree,
    scale,
    to_string,
    trim,
    valuations,
)


def random_poly(rng: random.Random, max_deg: int, bound: int = 9) -> tuple:
    return trim([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg) + 1)])


def nonzero_poly(rng: random.Random, max_deg: int, bound: int = 9) -> tuple:
    while True:
        p = random_poly(rng, max_deg, bound)
        if not is_zero(p):
            return p


def test_trim_degree_content():
    assert trim([1, 2, 0, 0]) == (1, 2)
    assert trim([0, 0]) == ()
    assert degree(()) == -1
    assert degree((5,)) == 0
    assert content((6, -9, 12)) == 3
    assert primitive((6, -9, 12)) == (2, -3, 4)
    assert primitive(ZERO) == ZERO
    assert clear_rationals([Fraction(1, 2), Fraction(3, 4)]) == (2, 3)


def test_ring_identities_via_evaluation():
    # evaluation at integers is a ring morphism, so it spots any slip
    rng = random.Random(101)
    for _ in range(2500):
        a = random_poly(rng, 5)
        b = random_poly(rng, 5)
        c = rng.randint(-7, 7)
        x = rng.randint(-5, 5)
        assert eval_int(add(a, b), x) == eval_int(a, x) + eval_int(b, x)
        assert eval_int(add(a, neg(b)), x) == eval_int(a, x) - eval_int(b, x)
        assert eval_int(mul(a, b), x) == eval_int(a, x) * eval_int(b, x)
        assert eval_int(scale(a, c), x) == c * eval_int(a, x)
        assert eval_int(neg(a), x) == -eval_int(a, x)
        assert mul(a, b) == mul(b, a)
        assert mul(a, ONE) == a


def test_pow_matches_repeated_mul():
    rng = random.Random(103)
    for _ in range(300):
        a = random_poly(rng, 3)
        n = rng.randint(0, 5)
        expected = ONE
        for _ in range(n):
            expected = mul(expected, a)
        assert pow_(a, n) == expected


def test_derivative_product_rule():
    rng = random.Random(107)
    for _ in range(800):
        a = nonzero_poly(rng, 4)
        b = nonzero_poly(rng, 4)
        lhs = derivative(mul(a, b))
        rhs = add(mul(derivative(a), b), mul(a, derivative(b)))
        assert lhs == rhs


def rational_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder in Q[t], by long division over Fractions."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        coef = rem[shift + len(b) - 1] / b[-1]
        quo[shift] = coef
        for j, c in enumerate(b):
            rem[shift + j] -= coef * c
    return tuple(quo), trim(rem)


def reference_quotient(a: tuple, p: tuple) -> tuple | None:
    """a / p when p divides a in Q[t] with an integer cofactor, else None."""
    quo, rem = rational_divmod(a, p)
    if rem or any(q.denominator != 1 for q in quo):
        return None
    return trim([int(q) for q in quo])


def value(p, x: Fraction) -> Fraction:
    return sum(c * x**i for i, c in enumerate(p))


def test_rational_divmod_reference():
    rng = random.Random(109)
    for _ in range(600):
        a = random_poly(rng, 7)
        b = nonzero_poly(rng, 4)
        quo, rem = rational_divmod(a, b)
        assert len(rem) < len(b) or not rem
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert value(a, x) == value(b, x) * value(quo, x) + value(rem, x)
    with pytest.raises(ZeroDivisionError):
        rational_divmod((1, 1), ZERO)


def test_exact_quotient_known_cases():
    assert exact_quotient((1, 2, 1), (1, 1)) == (1, 1)
    assert exact_quotient((2, 1), (1, 1)) is None
    assert exact_quotient((0, 0, 4), (0, 2)) == (0, 2)
    assert exact_quotient((2, 7, 3), (1, 3)) == (2, 1)
    assert exact_quotient((2, 8, 3), (1, 3)) is None
    # the raw cofactor, not its primitive part
    assert exact_quotient((2, 2), (1, 1)) == (2,)
    assert exact_quotient((-6, -3), (2, 1)) == (-3,)
    assert exact_quotient(ZERO, (1, 3)) == ZERO
    assert exact_quotient((5,), (1, 1)) is None
    with pytest.raises(ZeroDivisionError):
        exact_quotient((1, 1), ZERO)
    rng = random.Random(113)
    for _ in range(500):
        p = nonzero_poly(rng, 3)
        if degree(p) < 1:
            continue
        q = nonzero_poly(rng, 4)
        assert exact_quotient(mul(p, q), p) == q


PROPERTY = settings(max_examples=400, deadline=None, database=None, derandomize=True)

coefficient_lists = st.lists(st.integers(-60, 60), min_size=1, max_size=7)


@st.composite
def primitive_divisors(draw):
    """Primitive integer polynomials of degree 1 to 3, leads of either sign."""
    lower = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=3))
    lead = draw(st.integers(-9, 9).filter(bool))
    return primitive(tuple(lower) + (lead,))


@PROPERTY
@given(primitive_divisors(), coefficient_lists, coefficient_lists, st.booleans())
def test_exact_quotient_matches_rational_division(p, q, extra, exact):
    a = mul(p, trim(q))
    if not exact:
        a = add(a, trim(extra))
    assert exact_quotient(a, p) == reference_quotient(a, p)
    if exact:
        assert exact_quotient(a, p) == trim(q)


@PROPERTY
@given(primitive_divisors(), coefficient_lists, coefficient_lists, st.integers(2, 12))
def test_exact_quotient_of_coordinates_sharing_a_factor(p, q1, q2, k):
    # two coordinates with the common factor p but contents 1 and k
    for q in (primitive(trim(q1)) or ONE, scale(trim(q2), k) or (k,)):
        got = exact_quotient(mul(p, q), p)
        assert got == q == reference_quotient(mul(p, q), p)


def test_valuation_known_factorizations():
    rng = random.Random(127)
    irreducibles = [(0, 1), (-1, 1), (3, 2), (1, 0, 1), (-2, 0, 1)]
    for _ in range(400):
        exps = [rng.randint(0, 3) for _ in irreducibles]
        f = (rng.choice([1, 2, -3, 5]),)
        for p, e in zip(irreducibles, exps):
            f = mul(f, pow_(p, e))
        assert valuations(irreducibles, f) == exps, f
        for p, e in zip(irreducibles, exps):
            assert valuations([p], f) == [e], (p, f)
    # b = t + 241 and p = t^2 + 1 take the same value 257 at t = 16, so the
    # evaluation point must outgrow the bound, not just the coefficients
    assert eval_int((241, 1), 16) == eval_int((1, 0, 1), 16) == 257
    assert valuations([(1, 0, 1)], mul((241, 1), (1, 0, 1))) == [1]
    # a place of degree above deg a gets 0; no place at all gives no values
    assert valuations([(1, 1, 0, 1), (0, 1), (1, 0, 1)], (0, 5)) == [0, 1, 0]
    assert valuations([], (7,)) == []


def test_valuations_value_errors():
    for ps in ([], [(0, 1)], [(0, 1), (1, 0, 1)]):
        with pytest.raises(ValueError, match="zero polynomial"):
            valuations(ps, ZERO)
    # a constant divisor is no place: it would divide its own values forever
    for p, a in (((1,), (1, 2)), ((2,), (4,)), (ZERO, (1, 1))):
        for ps in ([p], [(0, 1), p], [p, (1, 0, 1)]):
            with pytest.raises(ValueError, match="degree below 1"):
                valuations(ps, a)


def reference_valuation(p: tuple, a: tuple) -> int:
    """Multiplicity of the primitive p in the nonzero a, by dividing until
    the integer cofactor fails to exist (Gauss's lemma)."""
    v = 0
    cur = exact_quotient(a, p)
    while cur is not None:
        v += 1
        cur = exact_quotient(cur, p)
    return v


PLACES = [
    (0, 1), (-1, 2), (5, 3), (1, 0, 1), (1, 0, 3), (-2, 0, 1), (1, 1, 1),
    (1, 1, 0, 1), (5, -1, 0, 2), (-2, 0, 0, 1), (3, -4, 1, 7),
]


@st.composite
def linear_places(draw):
    num = draw(st.integers(-40, 40))
    den = draw(st.integers(1, 40))
    return primitive((-num, den)) if num else (0, 1)


@PROPERTY
@given(
    st.one_of(st.sampled_from(PLACES), linear_places()),
    st.integers(0, 6),
    st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=6).filter(any),
    st.booleans(),
)
def test_valuation_matches_repeated_division(p, e, cofactor, flip):
    assert Place.finite(p).poly == p  # certified primitive and irreducible
    a = mul(pow_(p, e), trim(cofactor))
    place = neg(p) if flip else p
    v = reference_valuation(p, a)
    assert v >= e
    assert valuations([place], a) == [v]


@st.composite
def places_and_values(draw):
    """Distinct places of degree 1 to 3, leads of either sign, in any order,
    and a nonzero a = c * prod p^e with each e up to 8 and coefficients of c
    up to 10^30; bare draws keep every e at 0 and c of degree at most 2, so
    a falls below the degree of a cubic place."""
    ps = draw(
        st.lists(
            st.one_of(st.sampled_from(PLACES), linear_places()),
            min_size=1, max_size=4, unique=True,
        )
    )
    bare = draw(st.booleans())
    cofactor = draw(
        st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=3).filter(any)
    )
    a = trim(cofactor)
    for p in ps:
        a = mul(a, pow_(p, 0 if bare else draw(st.integers(0, 8))))
    flips = draw(st.lists(st.booleans(), min_size=len(ps), max_size=len(ps)))
    return [neg(p) if flip else p for p, flip in zip(ps, flips)], a


@PROPERTY
@given(places_and_values())
def test_valuations_match_repeated_division(case):
    ps, a = case
    assert valuations(ps, a) == [reference_valuation(p, a) for p in ps]


def test_valuations_on_the_product_pool():
    # every element the product suite draws, at c = 1 and c = -1
    powers = [[pow_(p, e) for e in range(4)] for p in _PLACE_POOL]
    for exps in itertools.product(range(4), repeat=len(_PLACE_POOL)):
        f = ONE
        for table, e in zip(powers, exps):
            f = mul(f, table[e])
        assert valuations(_PLACE_POOL, f) == list(exps), exps
        assert valuations(_PLACE_POOL, neg(f)) == list(exps), exps


def test_valuation_linear_matches_general():
    # Place.valuation sends linear places through the same kernel
    rng = random.Random(131)
    for _ in range(600):
        num = rng.randint(-6, 6)
        den = rng.randint(1, 5)
        place = Place.finite([-Fraction(num, den), 1])
        f = nonzero_poly(rng, 6)
        assert place.valuation(f) == reference_valuation(place.poly, f)


def test_gcd_poly_contains_common_factor():
    rng = random.Random(137)
    for _ in range(500):
        g = nonzero_poly(rng, 3)
        a = mul(g, nonzero_poly(rng, 3))
        b = mul(g, nonzero_poly(rng, 3))
        d = gcd_poly(a, b)
        assert exact_quotient(d, primitive(g)) is not None
        assert exact_quotient(a, d) is not None
        assert exact_quotient(b, d) is not None
        assert d[-1] > 0
    assert gcd_poly(ZERO, (2, 4)) == (1, 2)
    assert gcd_poly((3,), (0, 5)) == (1,)


def prs_gcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd in Q[t], positive lead, via a primitive pseudo-remainder
    sequence."""
    a, b = primitive(a), primitive(b)
    if degree(a) < degree(b):
        a, b = b, a
    while b:
        # in-place pseudo-remainder keeps everything in Z[t]; reducing to
        # the primitive part after every step blocks coefficient blowup and
        # only changes the result by a unit
        r = list(a)
        lead = b[-1]
        while len(r) >= len(b):
            factor = r[-1]
            shift = len(r) - len(b)
            for j in range(len(b) - 1):
                r[shift + j] = lead * r[shift + j] - factor * b[j]
            for j in range(shift):
                r[j] *= lead
            r.pop()
            while r and r[-1] == 0:
                r.pop()
            r = list(primitive(tuple(r)))
        a, b = b, tuple(r)
    return neg(a) if a and a[-1] < 0 else a


def evaluation_points_used(a: tuple, b: tuple) -> int:
    """How many evaluation points gcd_poly tries on nonconstant a and b."""
    a, b = primitive(a), primitive(b)
    for used, xi in enumerate(polys._evaluation_points(a, b), 1):
        if polys._gcd_at(a, b, xi) is not None:
            return used


small_polys = st.lists(st.integers(-60, 60), max_size=6).map(trim)


@st.composite
def gcd_pairs(draw):
    """Pairs with a planted common factor, coprime pairs whose coefficients
    sit near xi / 2 for the first evaluation point xi, and free pairs, the
    zero polynomial and constants among them; leads of either sign."""
    kind = draw(st.sampled_from(("planted", "near-bound", "free")))
    if kind == "planted":
        g = draw(small_polys)
        a, b = mul(g, draw(small_polys)), mul(g, draw(small_polys))
    elif kind == "near-bound":
        n = draw(st.integers(1, 60))
        near = st.integers(max(0, n - 1), n + 1).flatmap(
            lambda c: st.sampled_from((c, -c))
        )
        a, b = (trim(draw(st.lists(near, min_size=2, max_size=7))) for _ in "ab")
    else:
        a, b = draw(small_polys), draw(small_polys)
    if draw(st.booleans()):
        a = neg(a)
    return a, b


@PROPERTY
@given(gcd_pairs())
def test_gcd_poly_matches_prs_reference(pair):
    a, b = pair
    expected = prs_gcd(a, b)
    assert gcd_poly(a, b) == expected
    assert gcd_poly(b, a) == expected


@PROPERTY
@given(small_polys, small_polys, st.integers(1, 3))
def test_radical_degree_matches_prs_reference(g, q, k):
    a = mul(pow_(g, k), q)
    if is_zero(a):
        return
    assert radical_degree(a) == degree(a) - degree(prs_gcd(a, derivative(a)))


def test_gcd_poly_pins_pairs_that_need_several_points():
    # the first point's candidate fails to divide, so xi has to grow
    for a, b, used, expected in (
        ((2, 1, -5, -1, 6, -2, -4), (2, -1, 2, -2, -4), 2, (-2, 1, 2)),
        ((-120, -147, -1014, 930), (0, 40, 9, 9, 9, -31), 4, (-40, 31)),
    ):
        assert evaluation_points_used(a, b) == used
        assert gcd_poly(a, b) == prs_gcd(a, b) == expected


def test_radical_degree_counts_distinct_roots():
    rng = random.Random(139)
    for _ in range(300):
        roots = rng.sample(range(-8, 9), rng.randint(1, 5))
        f = (rng.choice([1, 2, 3]),)
        for r in roots:
            f = mul(f, pow_((-r, 1), rng.randint(1, 3)))
        assert radical_degree(f) == len(roots)
    assert radical_degree((7,)) == 0
    assert radical_degree(mul((1, 0, 1), (1, 0, 1))) == 2
    with pytest.raises(ValueError):
        radical_degree(ZERO)


def test_to_string():
    assert to_string(ZERO) == "0"
    assert to_string((1, -2, 1)) == "t^2 - 2*t + 1"
    assert to_string((-3,)) == "-3"
    assert to_string((0, 1)) == "t"
