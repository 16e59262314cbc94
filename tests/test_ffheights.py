"""Places, heights, counting functions, the subspace inequality, the probe."""

import itertools
import math
import multiprocessing
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import orbicert
from orbicert import polys, sampling
from orbicert.catalog import load_builtin
from orbicert.ffheights import (
    DegenerateError,
    HForm,
    Place,
    PlaneRealization,
    ProbeExcluded,
    RatMap,
    _certify_irreducible,
    _local_value,
    _parse,
    _sweep,
    counting_functions,
    gaussian_rank,
    height_bound_probe,
    parse_form,
    probe_sweep,
    product_formula_sweep,
    random_hyperplanes,
    random_map,
    random_places,
    realization_from_config,
    subspace_inequality,
    subspace_sweep,
)
from orbicert.lattice import ConfigError, SurfaceConfig
from orbicert.positivity import WeightedBoundary
from test_internal_checks import time_limit

FOUR_LINES = load_builtin("four-lines")
WEIGHTS = WeightedBoundary.make([4, 4, 4, 3])


# -- places ---------------------------------------------------------------------


def test_place_normalization():
    assert Place.finite([2, 4]) == Place.finite([1, 2])
    assert Place.finite([Fraction(1, 2), 1]) == Place.finite([1, 2])
    assert Place.finite([1, -1]).poly == (-1, 1)
    assert str(Place.finite([0, 1])) == "(t)"
    assert str(Place.infinite()) == "inf"
    assert Place.infinite().is_infinite
    assert Place.finite([1, 0, 1]).degree == 2
    with pytest.raises(ConfigError):
        Place.finite([3])
    with pytest.raises(ConfigError):
        Place.finite([-1, 0, 1])  # (t-1)(t+1)


PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)

coeffs = st.integers(min_value=-(10**12), max_value=10**12)
nonzero = coeffs.filter(bool)


def sympy_irreducible(poly: tuple[int, ...]) -> bool:
    import sympy

    t = sympy.Symbol("t")
    expr = sum(c * t**i for i, c in enumerate(poly))
    return sympy.Poly(expr, t, domain="QQ").is_irreducible


@st.composite
def quadratics_and_cubics(draw) -> tuple[int, ...]:
    lower = draw(st.lists(coeffs, min_size=2, max_size=3))
    return tuple(lower) + (draw(nonzero),)


@st.composite
def reducible_products(draw) -> tuple[int, ...]:
    """A linear factor with a non-unit leading coefficient times a poly of degree 1 or 2."""
    small = st.integers(min_value=-(10**6), max_value=10**6)
    linear = (draw(small), draw(small.filter(bool)))
    rest = tuple(draw(st.lists(small, min_size=1, max_size=2))) + (draw(small.filter(bool)),)
    return polys.mul(linear, rest)


@PROPERTY
@given(quadratics_and_cubics())
def test_irreducibility_against_sympy(poly):
    assert _certify_irreducible(poly) == sympy_irreducible(poly)


@PROPERTY
@given(reducible_products())
def test_products_are_reducible(poly):
    assert not _certify_irreducible(poly)
    assert not sympy_irreducible(poly)
    with pytest.raises(ConfigError):
        Place.finite(poly)


def has_rational_root(poly: tuple[int, ...]) -> bool:
    """The rational root theorem, by divisor enumeration: small coefficients only."""
    if poly[0] == 0:
        return True
    nums = [p for p in range(1, abs(poly[0]) + 1) if poly[0] % p == 0]
    dens = [q for q in range(1, abs(poly[-1]) + 1) if poly[-1] % q == 0]
    return any(
        sum(c * Fraction(sign * p, q) ** i for i, c in enumerate(poly)) == 0
        for p in nums
        for q in dens
        for sign in (1, -1)
    )


def test_small_quadratics_and_cubics_exhaustively():
    """Degree 2 and 3 are reducible over Q exactly when they have a rational root."""
    cubics = itertools.product(range(-5, 6), range(-5, 6), range(-5, 6), range(1, 6))
    quadratics = itertools.product(range(-9, 10), range(-9, 10), range(1, 10))
    for poly in itertools.chain(cubics, quadratics):
        assert _certify_irreducible(poly) != has_rational_root(poly), poly


REDUCIBLE = {
    "(2t - 1)(t^2 + t + 1)": polys.mul((-1, 2), (1, 1, 1)),
    "(3t + 2)(5t^2 - 7)": polys.mul((2, 3), (-7, 0, 5)),
    "t^3": (0, 0, 0, 1),
    "t^2 - 2t + 1": (1, -2, 1),
    "(t - 1)(t - 2)(t - 3)": polys.mul(polys.mul((-1, 1), (-2, 1)), (-3, 1)),
    "(6t - 5)(10t - 7)(15t - 11)": polys.mul(polys.mul((-5, 6), (-7, 10)), (-11, 15)),
}
IRREDUCIBLE = {
    "t^3 - 2": (-2, 0, 0, 1),
    "t^2 - 2": (-2, 0, 1),
    "t^2 + 1": (1, 0, 1),
    "t^3 + t + 1": (1, 1, 0, 1),
    "t^3 - 3t + 1": (1, -3, 0, 1),
}


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_reducible_edge_cases(name):
    poly = REDUCIBLE[name]
    assert not _certify_irreducible(poly)
    assert not sympy_irreducible(poly)
    with pytest.raises(ConfigError, match="reducible place"):
        Place.finite(poly)


@pytest.mark.parametrize("name", sorted(IRREDUCIBLE))
def test_irreducible_edge_cases(name):
    poly = IRREDUCIBLE[name]
    assert sympy_irreducible(poly)
    assert Place.finite(poly).poly == poly


def test_places_above_degree_three_are_refused():
    for poly in [
        (1, 0, 0, 0, 1),  # t^4 + 1, irreducible
        polys.mul((1, 0, 1), (-2, 0, 1)),  # (t^2 + 1)(t^2 - 2)
        (1, 1, 0, 0, 0, 1),  # t^5 + t + 1
        (Fraction(1, 2), 0, 0, 0, 0, 3),
    ]:
        with pytest.raises(ConfigError, match="limited to degree 3"):
            Place.finite(poly)


def test_irreducibility_cost_is_polynomial():
    """128-bit coefficients: a factoring or divisor search would not finish."""
    n = 2**127 - 1
    cases = [
        ((-n, 0, 0, 1), True),  # t^3 - N
        ((n, n - 2, n + 4, n), True),
        ((n, n + 2, n), True),
        (polys.mul((-1, n), (n, 0, 1)), False),  # (N t - 1)(t^2 + N)
        ((-(n * n), 0, 1), False),  # t^2 - N^2
    ]
    for poly, irreducible in cases:
        start = time.perf_counter()
        if irreducible:
            Place.finite(poly)
        else:
            with pytest.raises(ConfigError):
                Place.finite(poly)
        assert time.perf_counter() - start < 1.0


SWEEPS_WITHOUT_SYMPY = """
import importlib.abc
import sys


class NoSympy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "sympy":
            raise ImportError("sympy is blocked")


sys.meta_path.insert(0, NoSympy())

from orbicert import catalog, cli, ffheights
from orbicert.positivity import WeightedBoundary

cfg = catalog.load_builtin("four-lines")
real = ffheights.realization_from_config(cfg)
wb = WeightedBoundary.make([4, 4, 4, 3])
for poly in ffheights._PLACE_POOL:
    ffheights.Place.finite(poly)
ffheights.product_formula_sweep(10, seed=1)
ffheights.subspace_sweep(10, seed=1)
ffheights.probe_sweep(cfg, wb, real, 10, seed=1)
for suite in ("subspace", "product", "probe"):
    cli.main(["stress", "--suite", suite, "--samples", "6", "--threads", "2"])

# every subcommand, with its usual exit code
for argv, code in [
    ("certify --builtin four-lines "
     "--multiplicities 2000000,2000000,2000000,2000000", 0),
    ("certify --builtin plane-one-line", 1),
    ("search --builtin four-lines", 0),
    ("constants --builtin four-lines", 0),
    ("beta --plane 5", 0),
    ("beta --builtin four-lines", 0),
    ("stress --suite boundary --samples 20", 0),
    ("stress --suite subspace --samples 20", 0),
    ("stress --suite product --samples 20", 0),
    ("stress --builtin four-lines --suite probe --samples 20", 0),
]:
    assert cli.main(argv.split()) == code, argv
assert "sympy" not in sys.modules, "the command line imported sympy"
"""


def test_sweeps_never_import_sympy():
    src = str(Path(orbicert.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", SWEEPS_WITHOUT_SYMPY],
        capture_output=True,
        text=True,
        # keep the caller's bytecode settings, so no __pycache__ lands in src
        env={"PYTHONPATH": src, **{
            k: os.environ[k] for k in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
            if k in os.environ
        }},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_valuations():
    f = polys.mul(polys.pow_((0, 1), 3), (-1, 1))  # t^3 (t - 1)
    assert Place.finite([0, 1]).valuation(f) == 3
    assert Place.finite([-1, 1]).valuation(f) == 1
    assert Place.finite([2, 1]).valuation(f) == 0
    assert Place.infinite().valuation(f) == -4
    g = polys.mul(polys.pow_((1, 0, 1), 2), (1, 1))
    assert Place.finite([1, 0, 1]).valuation(g) == 2
    with pytest.raises(ValueError):
        Place.finite([0, 1]).valuation(())


def test_degree_weighted_valuations_sum_to_zero():
    f = polys.mul(polys.mul((6,), polys.pow_((0, 1), 2)), polys.mul((-1, 1), (1, 0, 1)))
    finite = [Place.finite(p) for p in ((0, 1), (-1, 1), (1, 0, 1), (2, 1))]
    total = sum(p.degree * p.valuation(f) for p in finite)
    total += Place.infinite().valuation(f)
    assert total == 0


# -- points ---------------------------------------------------------------------


def test_ratmap_canonical():
    x = RatMap.make([[2, 4], [6]])
    assert x.coords == ((1, 2), (3,))
    x = RatMap.make([[Fraction(1, 2)], [1]])
    assert x.coords == ((1,), (2,))
    x = RatMap.make([[-1, 0, 1], [1, 1]])  # common factor t + 1
    assert x.coords == ((-1, 1), (1,))
    x = RatMap.make([[-2], [-4, -2]])
    assert x.coords == ((1,), (2, 1))
    # zero coordinate: the common factor t + 1 divides out, the point is constant
    x = RatMap.make([[0], [1, 1]])
    assert x.coords == ((), (1,))
    assert x.m == 1 and x.height == 0
    with pytest.raises(ConfigError):
        RatMap.make([[0], [0]])


def test_ratmap_keeps_unequal_contents_of_the_cofactors():
    # (2t + 2, 3t + 3): the common factor t + 1 leaves the raw cofactors 2 and 3
    assert RatMap.make([[2, 2], [3, 3]]).coords == ((2,), (3,))
    assert RatMap.make([[-2, 0, 2], [3, 3], [0]]).coords == ((-2, 2), (3,), ())


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(polys.trim)


@st.composite
def points_and_places(draw):
    """A place, and coordinates p^e_j r_j g: some divisible by the place, all
    by a common factor g that RatMap divides out."""
    place = draw(st.sampled_from([
        Place.infinite(), Place.finite([0, 1]), Place.finite([-2, 3]),
        Place.finite([1, 0, 1]), Place.finite([-2, 0, 1]), Place.finite([1, 1, 1]),
    ]))
    g = draw(small_polys.filter(lambda p: not polys.is_zero(p)))
    raw = []
    for _ in range(draw(st.integers(2, 4))):
        r = draw(small_polys)
        if not place.is_infinite:
            r = polys.mul(r, polys.pow_(place.poly, draw(st.integers(0, 2))))
        raw.append(polys.mul(r, g))
    if all(polys.is_zero(p) for p in raw):
        raw[0] = g
    return RatMap.make(raw), place


def coordinate_minimum(x: RatMap, place: Place) -> int:
    """min_j v(x_j), by valuing every nonzero coordinate."""
    return min(place.valuation(c) for c in x.coords if not polys.is_zero(c))


@st.composite
def forms_at_points(draw):
    """A point and a place from points_and_places, and a form of degree 1 to
    3 in the point's coordinates that does not vanish at the point."""
    x, place = draw(points_and_places())
    e = draw(st.integers(1, 3))
    exps = [
        p for p in itertools.product(range(e + 1), repeat=len(x.coords)) if sum(p) == e
    ]
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(exps), max_size=len(exps)))
    assume(any(coeffs))
    form = HForm.make(len(x.coords), dict(zip(exps, coeffs)))
    assume(not polys.is_zero(form.evaluate(x)))
    return form, x, place


@PROPERTY
@given(forms_at_points())
def test_local_value_matches_its_definition(case):
    form, x, place = case
    fx = form.evaluate(x)
    want = place.valuation(fx) - form.degree * coordinate_minimum(x, place)
    assert _local_value(place, fx, form.degree, x) == want


def test_random_places_are_two_to_four_distinct_places():
    rng = random.Random(5)
    counts = set()
    for _ in range(300):
        places = random_places(rng)
        assert 2 <= len(places) <= 4
        assert len(set(places)) == len(places)
        counts.add(len(places))
    assert counts == {2, 3, 4}


def test_ratmap_str():
    x = RatMap.make([[1], [0, 1], [0, 0, 1]])
    assert str(x) == "[1 : t : t^2]"


def rank_rule(x: RatMap) -> bool:
    """Independent coordinates by the rank of their coefficient rows: the
    free function that RatMap.nondegenerate replaced."""
    width = max(polys.degree(c) for c in x.coords) + 1
    rows = [list(c) + [0] * (width - len(c)) for c in x.coords]
    return gaussian_rank(rows) == len(x.coords)


def test_ratmap_nondegenerate():
    assert RatMap.make([[1], [0, 1], [0, 0, 1]]).nondegenerate
    assert not RatMap.make([[1], [0, 1], [1, 1]]).nondegenerate
    assert not RatMap.make([[2], [3]]).nondegenerate


@st.composite
def coordinate_lists(draw):
    """1-4 small coordinates; the last is sometimes a combination of the
    others, so that the coordinates depend."""
    small = st.lists(st.integers(-2, 2), min_size=1, max_size=4)
    coords = draw(st.lists(small, min_size=1, max_size=4))
    if len(coords) > 1 and draw(st.booleans()):
        ks = draw(st.lists(st.integers(-2, 2), min_size=len(coords) - 1,
                           max_size=len(coords) - 1))
        width = max(map(len, coords))
        coords[-1] = [
            sum(k * (c[i] if i < len(c) else 0) for k, c in zip(ks, coords))
            for i in range(width)
        ]
    assume(any(any(c) for c in coords))
    return coords


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(coordinate_lists())
def test_nondegenerate_matches_the_rank_rule(coords):
    x = RatMap.make(coords)
    assert x.nondegenerate == rank_rule(x)
    # the proof is kept on the map: a second read runs no rank pass
    assert x.__dict__["nondegenerate"] == rank_rule(x)


# -- forms ----------------------------------------------------------------------


def test_hform_make_validation():
    with pytest.raises(ConfigError):
        HForm.make(3, {(1, 0, 0): 1, (2, 0, 0): 1})
    with pytest.raises(ConfigError):
        HForm.make(3, {(1, 0, 0): Fraction(1, 2)})
    with pytest.raises(ConfigError):
        HForm.make(3, {(1, 0, 0): 1, (1, 0, 0, 0): 1})
    with pytest.raises(ConfigError):
        HForm.make(3, {(1, 0, 0): 0})
    form = HForm.make(3, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 0})
    assert form.degree == 1
    assert form.linear_vector() == (1, -1, 0)
    assert HForm.make(3, {(1, 0, 0): Fraction(4, 2), (0, 1, 0): 3}) == HForm.make(
        3, {(1, 0, 0): 2, (0, 1, 0): 3}
    )
    with pytest.raises(ConfigError):
        HForm.make(3, {(2, 0, 0): 1}).linear_vector()


def test_evaluate_matches_point_substitution():
    rng = random.Random(1103)
    for _ in range(200):
        nvars = rng.randint(2, 4)
        degree = rng.randint(1, 3)
        from orbicert.ffheights import _random_form

        form = _random_form(rng, nvars, degree, 9)
        coords = [
            [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
            for _ in range(nvars)
        ]
        if all(all(c == 0 for c in row) for row in coords):
            continue
        x = RatMap.make(coords)
        t0 = rng.randint(-4, 4)
        lhs = polys.eval_int(form.evaluate(x), t0)
        rhs = evaluate_point_reference(form, [polys.eval_int(c, t0) for c in x.coords])
        assert lhs == rhs


def evaluate_point_reference(form: HForm, point: list[int]) -> int:
    """F at an integer point, term by term."""
    total = 0
    for exps, coeff in form.terms:
        term = coeff
        for v, e in zip(point, exps):
            term *= v**e
        total += term
    return total


def product_loop_evaluate(form: HForm, x: RatMap) -> tuple:
    """F(x) as a sum of coefficient times products of coordinate powers."""
    total = ()
    for exps, coeff in form.terms:
        term = (coeff,)
        for coord, e in zip(x.coords, exps):
            term = polys.mul(term, polys.pow_(coord, e))
        total = polys.add(total, term)
    return total


def test_linear_evaluate_matches_product_loop():
    rng = random.Random(1109)
    for _ in range(300):
        m = rng.randint(1, 4)
        form = random_hyperplanes(rng, m, 1, rng.choice([1, 9, 1000]))[0]
        assert all(type(c) is int for c in form.linear_vector())
        x = random_map(rng, m, rng.randint(0, 5), rng.choice([1, 9, 1000]))
        assert form.evaluate(x) == product_loop_evaluate(form, x)
    # cancellation in the low terms, and down to the zero polynomial
    form = parse_form("2*X - Y", 2)
    assert form.evaluate(RatMap.make([[1, 2], [2, 4, 1]])) == (0, 0, -1)
    assert form.evaluate(RatMap.make([[1], [2]])) == ()


def test_parse_form():
    form = parse_form("X + Y + Z")
    assert form.degree == 1 and form.linear_vector() == (1, 1, 1)
    quad = parse_form("(X - Y)^2 - 3*Z^2")
    assert quad.degree == 2
    assert quad.evaluate(RatMap.make([[2], [1], [1]])) == (-2,)
    with pytest.raises(ConfigError):
        parse_form("X + 1")
    with pytest.raises(ConfigError):
        parse_form("X + Q")
    with pytest.raises(ConfigError):
        parse_form("X + (Y")
    with pytest.raises(ConfigError):
        parse_form("X @ Y")
    # given a degree, a larger power or product is refused before it is formed
    assert parse_form("(X - Y)^2", degree=2) == parse_form("X^2 - 2*X*Y + Y^2")
    for text in ("X*Y*Z", "(X*Y)^2", "Z*(X - Y)^2"):
        with pytest.raises(ConfigError, match="exceeds"):
            parse_form(text, degree=2)


def test_form_str_round_trip():
    rng = random.Random(1201)
    from orbicert.ffheights import _random_form

    for _ in range(150):
        form = _random_form(rng, rng.randint(2, 4), rng.randint(1, 3), 9)
        assert parse_form(str(form), form.nvars) == form


# -- the hand-written tokenizer and parser class the form reader replaced ----------


def _old_tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ConfigError(f"bad character {ch!r} in form")
    return tokens


def _poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _poly_scale(a, k):
    return {e: c * k for e, c in a.items() if c * k}


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


class _OldParser:
    """Recursive descent over +, -, *, ^ and parentheses; ^e takes e products."""

    def __init__(self, tokens, names):
        self.tokens = tokens
        self.pos = 0
        self.names = {name: j for j, name in enumerate(names)}
        self.nvars = len(names)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ConfigError("unexpected end of form")
        self.pos += 1
        return tok

    def parse(self):
        try:
            out = self.expr()
        except RecursionError:
            raise ConfigError("form nested too deeply") from None
        if self.peek() is not None:
            raise ConfigError(f"trailing token {self.peek()!r}")
        return out

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        total = _poly_scale(self.term(), sign)
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            total = _poly_add(total, _poly_scale(self.term(), sign))
        return total

    def term(self):
        total = self.factor()
        while self.peek() == "*":
            self.take()
            total = _poly_mul(total, self.factor())
        return total

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ConfigError(f"bad exponent {tok!r}")
            out = {(0,) * self.nvars: 1}
            for _ in range(int(tok)):
                out = _poly_mul(out, base)
            return out
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ConfigError("unbalanced parentheses")
            return inner
        if tok.isdigit():
            return {(0,) * self.nvars: int(tok)}
        if tok in self.names:
            exps = [0] * self.nvars
            exps[self.names[tok]] = 1
            return {tuple(exps): 1}
        raise ConfigError(f"unknown token {tok!r}")


def _old_parse_form(text, nvars=3):
    names = ("X", "Y", "Z", "W")[:nvars] if nvars <= 4 else [f"X{j}" for j in range(nvars)]
    return HForm.make(nvars, _OldParser(_old_tokenize(text), names).parse())


def _outcome(parse, text, old):
    """The parsed value, or "reject"; int('\u00b2') made the old side raise a
    plain ValueError, which counts as a rejection too."""
    try:
        return parse(text)
    except ValueError as exc:
        if not old:
            assert isinstance(exc, ConfigError), exc
        return "reject"


_ODD = ["\t", "\n", "\u00b2", "\u00e9", "@"]
_EXPR = st.recursive(
    st.sampled_from(["X", "Y", "Z", "t", "0", "1", "2", "17"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " - -", "+-", "* "]), inner).map(
            "".join
        ),
        st.tuples(inner, st.sampled_from("012")).map(lambda p: f"({p[0]})^{p[1]}"),
        inner.map(lambda e: "-" + e),
    ),
    max_leaves=8,
)
_FORM_TEXT = st.one_of(
    _EXPR,
    st.lists(
        st.sampled_from(
            ["X", "Y", "Z", "W", "t", "X1", "X10", "0", "2", "12", *"+-*^() ", *_ODD]
        ),
        max_size=12,
    ).map("".join),
    st.text(st.sampled_from(["X", "Y", "Z", "t", *"0129+-*^() ", *_ODD]), max_size=16),
)


@settings(max_examples=3000, deadline=None, database=None, derandomize=True)
@given(_FORM_TEXT)
def test_form_reader_matches_the_old_parser(text):
    # two-digit exponents and deep powers would take the old parser too long
    assume(not re.search(r"\^\s*\d\d", text) and text.count("^") <= 4)
    xyz = ("X", "Y", "Z")
    for parse, old in [
        (partial(_parse, names=xyz), lambda t: _OldParser(_old_tokenize(t), xyz).parse()),
        (parse_form, _old_parse_form),
        (partial(parse_form, nvars=11), partial(_old_parse_form, nvars=11)),
    ]:
        assert _outcome(parse, text, False) == _outcome(old, text, True), text


def test_form_reader_pins():
    for text in ["(X+Y+Z)^9", "--X", "-(X - -Y)^3*Z", "X^0*Y", "0^0*X", "2*X - 2*X + Y"]:
        assert parse_form(text) == _old_parse_form(text), text
    for text, message in [
        ("X é Y", "bad character 'é' in form"),
        ("X + ", "unexpected end of form"),
        ("(X + Y", "unexpected end of form"),
        ("(X Y)", "unbalanced parentheses"),
        ("X^Y", "bad exponent 'Y'"),
        ("X + Q", "unknown token 'Q'"),
        ("X Y", "trailing token 'Y'"),
        ("(" * 5000 + "X" + ")" * 5000, "form nested too deeply"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_form(text)


def test_powers_by_squaring():
    with time_limit(1):
        assert parse_form("X^99999999").terms == (((99999999, 0, 0), 1),)
        assert _parse("(t + 1)^1000", ("t",))[(500,)] == math.comb(1000, 500)
    assert parse_form("(X+Y+Z)^40") == _old_parse_form("(X+Y+Z)^40")


def test_nested_constant_powers_are_refused():
    def nested(k):
        return "(" * k + "9" + ")^2" * k + "*X"

    with time_limit(1):
        with pytest.raises(ConfigError, match="coefficients above 65536 bits"):
            parse_form(nested(22), degree=2)
    # 9^(2^14) has 51937 bits; 9^(2^15) would need 103873
    assert parse_form(nested(14), degree=2).terms == (((1, 0, 0), 9 ** 2**14),)
    with pytest.raises(ConfigError, match="coefficients above 65536 bits"):
        parse_form(nested(15), degree=2)
    assert parse_form("(X+Y+Z)^3") == _old_parse_form("(X+Y+Z)^3")


# -- heights and counting ---------------------------------------------------------


XYZ = parse_form("X*Y*Z")
X_T_T2 = RatMap.make([[1], [0, 1], [0, 0, 1]])


def weil(form, x, place):
    """The local Weil value v(F(x)) - deg(F) * min_j v(x_j) at one place."""
    return counting_functions(form, x, [place]).proximity // place.degree


def test_weil_local_values():
    assert weil(XYZ, X_T_T2, Place.finite([0, 1])) == 3
    assert weil(XYZ, X_T_T2, Place.infinite()) == 3
    assert weil(XYZ, X_T_T2, Place.finite([-1, 1])) == 0


def test_counting_worked_example():
    s = [Place.finite([0, 1]), Place.infinite()]
    c = counting_functions(XYZ, X_T_T2, s)
    assert c.total == 6
    assert c.proximity == 6
    assert c.counting == 0
    assert c.counting_truncated == 0

    s = [Place.finite([-1, 1])]
    c = counting_functions(XYZ, X_T_T2, s)
    assert c.proximity == 0
    assert c.counting == 6
    assert c.counting_truncated == 2  # t (multiplicity 3) and infinity

    c = counting_functions(XYZ, X_T_T2, s, truncated=False)
    assert c.counting_truncated is None
    assert c.counting == 6


def test_counting_errors():
    with pytest.raises(ConfigError):
        counting_functions(XYZ, X_T_T2, [Place.infinite(), Place.infinite()])
    on_surface = RatMap.make([[0], [0, 1], [0, 0, 1]])
    with pytest.raises(DegenerateError):
        counting_functions(XYZ, on_surface, [Place.infinite()])


def test_height_identity_random():
    rng = random.Random(1301)
    from orbicert.ffheights import _random_form

    for _ in range(400):
        m = rng.randint(1, 3)
        x = random_map(rng, m, 5, 9)
        form = _random_form(rng, m + 1, rng.randint(1, 3), 9)
        fx = form.evaluate(x)
        if polys.is_zero(fx):
            continue
        places = random_places(rng)
        c = counting_functions(form, x, places)
        assert c.proximity + c.counting == c.total == form.degree * x.height
        assert 0 <= c.counting_truncated <= c.counting
        for place in places:
            assert weil(form, x, place) >= 0


# -- linear algebra ----------------------------------------------------------------


def test_gaussian_rank_against_sympy():
    import sympy

    rng = random.Random(1409)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        if rng.random() < 0.3:
            mat = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
        else:
            mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        assert gaussian_rank(mat) == sympy.Matrix(mat).rank()


def _draw(rng, *params):
    return rng.randrange(10**9), params


def test_split(request):
    # sample i draws from (suite, seed, i) alone, whatever the process count
    want = [(random.Random(f"t:3:{i}").randrange(10**9), ("p",)) for i in range(10)]
    for processes in (1, 2, 4, 8):
        assert _sweep(_draw, "t", 10, 3, processes, ("p",)) == want
    assert _sweep(_draw, "t", 0, 3, 2, ()) == []
    with pytest.raises(ConfigError, match="^samples -1 must not be negative$"):
        _sweep(_draw, "t", -1, 0, 2, ())
    # one contiguous chunk per process asked for, in index order, on a pool
    # of at most one process per sample and per CPU
    pool = request.getfixturevalue("stand_in_pool")
    assert _sweep(_draw, "t", 10, 3, 4, ("p",)) == want
    _sweep(_draw, "t", 3, 3, 4, ())
    _sweep(_draw, "t", 7, 3, 0, ())
    _sweep(_draw, "t", 10, 3, 8, ())
    assert pool.sizes == [4, 3, 4]
    assert pool.tasks == [
        [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]],
        [[0], [1], [2]],
        [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]],
    ]


def _fail_at(rng, failing):
    # raises at the sample whose first draw is failing
    value = rng.randrange(10**9)
    if value == failing:
        raise ArithmeticError(f"sample drew {value}")
    return value


def test_a_failing_sample_raises_alike_at_any_process_count(monkeypatch):
    monkeypatch.setattr(sampling.os, "cpu_count", lambda: 2)
    failing = random.Random("t:3:7").randrange(10**9)
    for processes in (1, 2):
        with pytest.raises(ArithmeticError, match=f"^sample drew {failing}$"):
            _sweep(_fail_at, "t", 10, 3, processes, (failing,))
    assert multiprocessing.active_children() == []


# -- subspace inequality ------------------------------------------------------------


def test_subspace_worked_example():
    hyperplanes = [parse_form(f) for f in ("X", "Y", "Z", "X + Y + Z")]
    places = [Place.finite([0, 1]), Place.finite([-1, 1]), Place.infinite()]
    report = subspace_inequality(X_T_T2, hyperplanes, places)
    assert report.family_rank == 3
    assert report.lhs == 6
    assert report.rhs == 9
    assert report.holds


def test_subspace_errors():
    hyperplanes = [parse_form(f) for f in ("X", "Y", "Z")]
    places = [Place.finite([0, 1]), Place.infinite()]
    with pytest.raises(DegenerateError):
        subspace_inequality(RatMap.make([[1], [0, 1], [1, 1]]), hyperplanes, places)
    with pytest.raises(ConfigError):
        subspace_inequality(X_T_T2, [], places)
    with pytest.raises(ConfigError):
        subspace_inequality(X_T_T2, [parse_form("X^2")], places)
    with pytest.raises(ConfigError):
        subspace_inequality(X_T_T2, hyperplanes, [Place.infinite(), Place.infinite()])
    with pytest.raises(ConfigError):
        subspace_inequality(RatMap.make([[1], [0, 1]]), hyperplanes, places)


def test_random_hyperplanes_general_position():
    rng = random.Random(1511)
    for _ in range(30):
        m = rng.randint(1, 3)
        q = rng.randint(m + 1, m + 3)
        forms = random_hyperplanes(rng, m, q, 9)
        assert len(forms) == q
        vectors = [f.linear_vector() for f in forms]
        k = min(q, m + 1)
        for combo in itertools.combinations(range(q), k):
            assert gaussian_rank([vectors[j] for j in combo]) == k


def enumerated_subspace(x, hyperplanes, places):
    """(lhs, family rank) by listing every basis of the family."""
    vectors = [hp.linear_vector() for hp in hyperplanes]
    rank = gaussian_rank(vectors)
    bases = [
        combo
        for combo in itertools.combinations(range(len(vectors)), rank)
        if gaussian_rank([vectors[j] for j in combo]) == rank
    ]
    lhs = 0
    for place in places:
        base = coordinate_minimum(x, place)
        lams = [place.valuation(hp.evaluate(x)) - base for hp in hyperplanes]
        lhs += place.degree * max(sum(lams[j] for j in combo) for combo in bases)
    return lhs, rank


def linear_forms(vectors):
    n = len(vectors[0])
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return [HForm.make(n, dict(zip(unit, vec))) for vec in vectors]


@st.composite
def dependent_families(draw):
    """Small maps and 1-7 hyperplanes with repeats and multiples, so that
    values at the places tie and subfamilies of the family's rank depend."""
    m = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    x = random_map(rng, m, m + 2, 1, nondegenerate=True)
    vectors = []
    for _ in range(draw(st.integers(1, 7))):
        if vectors and draw(st.booleans()):
            earlier = draw(st.sampled_from(vectors))
            k = draw(st.sampled_from([1, -1, 2, -3]))
            vectors.append(tuple(k * c for c in earlier))
        else:
            small = st.lists(st.integers(-1, 1), min_size=m + 1, max_size=m + 1)
            vectors.append(tuple(draw(small.filter(any))))
    return x, linear_forms(vectors), random_places(rng)


@st.composite
def sampler_families(draw):
    """The draws of the subspace sweep."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = rng.randint(1, 3)
    x = random_map(rng, m, 6, 20, nondegenerate=True)
    hyperplanes = random_hyperplanes(rng, m, rng.randint(m + 1, m + 3), 9)
    return x, hyperplanes, random_places(rng)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.one_of(dependent_families(), sampler_families()), st.sampled_from([0, 1, 4]))
def test_greedy_basis_matches_enumeration(family, at_most):
    # S with no place and with one place as well as the sweep's 2 to 4
    x, hyperplanes, places = family
    places = places[:at_most]
    report = subspace_inequality(x, hyperplanes, places)
    assert (report.lhs, report.family_rank) == enumerated_subspace(x, hyperplanes, places)


def test_subspace_inequality_reuses_the_proofs_of_a_drawn_map(monkeypatch):
    rng = random.Random(1543)
    for _ in range(60):
        m = rng.randint(1, 3)
        x = random_map(rng, m, 6, 20, nondegenerate=True)
        hyperplanes = random_hyperplanes(rng, m, rng.randint(m + 1, m + 3), 9)
        places = random_places(rng)
        calls = []
        monkeypatch.setattr(
            orbicert.ffheights, "gaussian_rank", lambda rows: calls.append(rows) or 0
        )
        subspace_inequality(x, hyperplanes, places)
        # the greedy bases give the family rank when S has two places or more
        assert calls == []
        monkeypatch.undo()
        # below two places, one pass in the family's own order is the second
        assert subspace_inequality(x, hyperplanes, places[:1]).family_rank == m + 1


@pytest.mark.parametrize("m, q", [(3, 40), (4, 30)])
def test_subspace_inequality_scales_with_the_family(m, q):
    # listing every subfamily of rank m + 1 takes seconds on these families
    rng = random.Random(1531 + m)
    x = random_map(rng, m, 6, 20, nondegenerate=True)
    hyperplanes = linear_forms(
        [[rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(m)] for _ in range(q)]
    )
    places = [Place.infinite(), Place.finite([0, 1]), Place.finite([-1, 1])]
    with time_limit(1):
        report = subspace_inequality(x, hyperplanes, places)
    assert report.family_rank == m + 1


def test_random_forms_reject_a_bound_below_one():
    from orbicert.ffheights import _random_form

    for bound in (0, -3):
        with time_limit(1), pytest.raises(ConfigError, match="coefficient bound"):
            random_hyperplanes(random.Random(1), 2, 3, bound)
        with time_limit(1), pytest.raises(ConfigError, match="coefficient bound"):
            _random_form(random.Random(1), 3, 2, bound)


def test_random_hyperplanes_give_up_without_general_position():
    # {-1, 0, 1}^2 holds only four pairwise independent directions, so no
    # draw of five lines in P^1 is in general position
    with time_limit(5), pytest.raises(ConfigError, match="general position"):
        random_hyperplanes(random.Random(1), 1, 5, 1)


def test_random_map_canonical():
    rng = random.Random(1601)
    for _ in range(150):
        x = random_map(rng, rng.randint(1, 3), 6, 9, nondegenerate=True)
        assert rank_rule(x)
        assert x.height >= 1
        lead = next(p for p in x.coords if not polys.is_zero(p))
        assert lead[-1] > 0
        from math import gcd

        g = 0
        poly_gcd = ()
        for p in x.coords:
            if not polys.is_zero(p):
                g = gcd(g, polys.content(p))
                poly_gcd = polys.gcd_poly(poly_gcd, p)
        assert g == 1
        assert polys.degree(poly_gcd) == 0


def test_random_map_gives_up_after_a_bounded_number_of_draws(monkeypatch):
    monkeypatch.setattr(orbicert.ffheights, "_MAP_TRIES", 50)
    rng = random.Random(3)
    # four coordinates of degree <= 2 are never independent
    with pytest.raises(ConfigError, match="in 50 draws"):
        random_map(rng, 3, 2, 9, nondegenerate=True)
    with pytest.raises(ConfigError, match="in 50 draws"):
        random_map(rng, 2, 4, 0)
    assert random_map(rng, 3, 3, 1, nondegenerate=True).height >= 1
    # the one coordinate of a point of P^0 is constant: refused before a draw
    state = rng.getstate()
    with pytest.raises(ConfigError, match="no nondegenerate map to P\\^0"):
        random_map(rng, 0, 3, 5, nondegenerate=True)
    assert rng.getstate() == state


def test_sweeps_reject_unsatisfiable_parameters():
    realization = realization_from_config(FOUR_LINES)
    with pytest.raises(ConfigError, match="below max_m"):
        subspace_sweep(0, max_m=3, max_deg=2)
    with pytest.raises(ConfigError, match="coefficient bound"):
        subspace_sweep(0, bound=0)
    with pytest.raises(ConfigError, match="coefficient bound"):
        probe_sweep(FOUR_LINES, WEIGHTS, realization, 0, bound=0)
    assert subspace_sweep(4, seed=2, max_m=3, max_deg=3, bound=1)["samples"] >= 0
    # boundary_sweep(-3) used to return an all-zero record, and max_degree=0
    # to raise randrange's bare ValueError
    for kwargs, message in [
        ({"passes": -3}, "passes -3 must not be negative"),
        ({"passes": 2, "max_degree": 0}, "max degree 0 must be at least 1"),
        ({"passes": 2, "bound": 0}, "coefficient bound 0 must be at least 1"),
    ]:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            sampling.boundary_sweep(**kwargs)


def test_subspace_sweep_small():
    out = subspace_sweep(300, seed=5)
    assert out["violations"] == 0
    assert out["fmt_failures"] == 0
    assert out["samples"] >= 250
    again = subspace_sweep(300, seed=5)
    assert again == out


def test_product_formula_sweep_small():
    out = product_formula_sweep(500, seed=3)
    assert out == {"samples": 500, "failures": 0}


# -- realizations and the probe -----------------------------------------------------


def test_realization_loads_and_validates():
    real = realization_from_config(FOUR_LINES)
    assert [str(f) for f in real.boundary_forms] == ["X", "Y", "Z", "X + Y + Z"]
    assert real.pairing_forms[3] is None
    assert dict(real.blown_points)["P1.1"] == (0, 1, 1)


def test_realization_tampering_raises():
    real = realization_from_config(FOUR_LINES)
    points = dict(real.blown_points)

    moved = dict(points)
    moved["P1.1"] = (1, 1, 1)  # not on X = 0
    with pytest.raises(ConfigError):
        PlaneRealization.make(
            real.boundary_forms, real.pairing_forms, moved
        ).validate_against(FOUR_LINES)

    collide = dict(points)
    collide["P2.1"] = (0, 2, 2)  # same projective point as P1.1
    with pytest.raises(ConfigError):
        PlaneRealization.make(
            real.boundary_forms, real.pairing_forms, collide
        ).validate_against(FOUR_LINES)

    for bad in [(0, 0, 0), (0, 1)]:  # no projective point, a point of P^1
        odd = dict(points)
        odd["P1.1"] = bad
        with pytest.raises(ConfigError):
            PlaneRealization.make(
                real.boundary_forms, real.pairing_forms, odd
            ).validate_against(FOUR_LINES)

    foreign = dict(points)
    foreign["P9.9"] = (5, 7, 11)  # an id the config does not blow up
    with pytest.raises(ConfigError, match="P9.9 is not a blown point"):
        PlaneRealization.make(
            real.boundary_forms, real.pairing_forms, foreign
        ).validate_against(FOUR_LINES)

    missing = dict(points)
    del missing["P3.1"]
    with pytest.raises(ConfigError):
        PlaneRealization.make(
            real.boundary_forms, real.pairing_forms, missing
        ).validate_against(FOUR_LINES)

    wrong_degree = (parse_form("X^2"),) + real.boundary_forms[1:]
    with pytest.raises(ConfigError):
        PlaneRealization.make(
            wrong_degree, real.pairing_forms, points
        ).validate_against(FOUR_LINES)

    no_pairing = (None,) + real.pairing_forms[1:]
    with pytest.raises(ConfigError):
        PlaneRealization.make(
            real.boundary_forms, no_pairing, points
        ).validate_against(FOUR_LINES)

    from orbicert.lattice import SurfaceConfig

    bare = SurfaceConfig.build([1, 1, 1], [1, 1, 1], hyperplane=True)
    with pytest.raises(ConfigError):
        realization_from_config(bare)


@pytest.mark.parametrize("twin", [(-1, -1, -1), (3, 3, 3)], ids=["sign", "content"])
def test_realization_points_collide_projectively(twin):
    # four points on one conic, so a twin of P1.1 passes every incidence check
    realization = {
        "forms": ["X*Y - Z^2", "Z + 10*X"],
        "pairings": {"0": "(Y - X)*(Y - 4*X)"},
        "points": {"P1.1": [1, 1, 1], "P1.2": [1, 1, -1], "P1.3": [1, 4, 2], "P1.4": [1, 4, -2]},
    }
    doc = {
        "components": [{"degree": 2, "paired": True}, {"degree": 1, "paired": False}],
        "points": [{"id": f"P1.{k}", "on": [0]} for k in range(1, 5)],
        "metadata": {"realization": realization},
    }
    assert len(realization_from_config(SurfaceConfig.from_json_dict(doc)).blown_points) == 4
    realization["points"]["P1.2"] = list(twin)
    with pytest.raises(ConfigError, match="blown points collide"):
        realization_from_config(SurfaceConfig.from_json_dict(doc))


@pytest.mark.parametrize(
    "where, text, message",
    [
        ("forms", "(X+Y+Z)^200", "exponent 200 exceeds the form's degree 1"),
        ("forms", "9^9999999*X", "exponent 9999999 exceeds the form's degree 1"),
        ("forms", "X*(X+Y)", "a product in the form exceeds degree 1"),
        ("pairings", "(X-Y)^200", "exponent 200 exceeds the form's degree 1"),
    ],
)
def test_realization_forms_are_read_at_their_degree(where, text, message):
    doc = load_builtin("four-lines").to_json_dict()
    realization = doc["metadata"]["realization"]
    if where == "forms":
        realization["forms"][0] = text
    else:
        realization["pairings"]["0"] = text
    cfg = SurfaceConfig.from_json_dict(doc)
    with time_limit(1), pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        realization_from_config(cfg)


def test_realization_counts_are_checked_before_any_form():
    doc = load_builtin("four-lines").to_json_dict()
    realization = doc["metadata"]["realization"]
    realization["forms"].append("(X+Y+Z)^200")
    with time_limit(1), pytest.raises(ConfigError, match="one form per boundary"):
        realization_from_config(SurfaceConfig.from_json_dict(doc))
    # component 3 is unpaired, so no degree would bound its pairing form
    realization["forms"].pop()
    realization["pairings"]["3"] = "(X+Y+Z)^200"
    with time_limit(1), pytest.raises(ConfigError, match="'3' is not a paired"):
        realization_from_config(SurfaceConfig.from_json_dict(doc))


def test_probe_known_curve():
    real = realization_from_config(FOUR_LINES)
    x = RatMap.make([[0, 1], [1, 1], [3, 1]])
    record = height_bound_probe(FOUR_LINES, WEIGHTS, real, x)
    assert record.height == 1
    assert record.pullback_degree == 15
    assert record.support_count == 4
    assert record.ratio == Fraction(15, 2)


def test_probe_exclusions():
    real = realization_from_config(FOUR_LINES)

    with pytest.raises(ProbeExcluded):  # constant curve
        height_bound_probe(FOUR_LINES, WEIGHTS, real, RatMap.make([[1], [2], [3]]))
    with pytest.raises(ProbeExcluded):  # inside boundary component 0
        height_bound_probe(
            FOUR_LINES, WEIGHTS, real, RatMap.make([[0], [0, 1], [0, 0, 1]])
        )
    with pytest.raises(ProbeExcluded):  # inside the pairing curve of component 0
        height_bound_probe(
            FOUR_LINES, WEIGHTS, real, RatMap.make([[1], [0, 1], [0, 1]])
        )
    with pytest.raises(ProbeExcluded):  # passes through P1.1 at t = 0
        height_bound_probe(
            FOUR_LINES, WEIGHTS, real, RatMap.make([[0, 1], [1, 2], [1]])
        )
    with pytest.raises(ProbeExcluded):  # tends to P3.1 = [1:1:0] at infinity
        height_bound_probe(
            FOUR_LINES, WEIGHTS, real, RatMap.make([[0, 1], [2, 1], [1]])
        )
    with pytest.raises(ConfigError):
        height_bound_probe(FOUR_LINES, WEIGHTS, real, RatMap.make([[1], [0, 1]]))


def test_probe_sweep_small():
    real = realization_from_config(FOUR_LINES)
    out = probe_sweep(FOUR_LINES, WEIGHTS, real, 300, seed=2)
    assert out["samples"] + out["excluded"] == 300
    assert out["samples"] > 0
    alpha = Fraction(out["alpha_emp"])
    assert alpha > 0
    assert out["worst"] is not None
    again = probe_sweep(FOUR_LINES, WEIGHTS, real, 300, seed=2)
    assert again == out


def test_sweeps_on_two_processes_are_pinned():
    # sample i draws from (suite, seed, i), so one process and two draw the
    # same samples and name the same worst case
    real = realization_from_config(FOUR_LINES)
    small = {"max_deg": 3, "bound": 5}
    for processes in (1, 2):
        assert subspace_sweep(60, seed=5, processes=processes, max_deg=4, bound=3) == {
            "samples": 60,
            "violations": 0,
            "fmt_failures": 0,
            "degenerate": 0,
        }
        assert product_formula_sweep(51, seed=5, processes=processes) == {
            "samples": 51,
            "failures": 0,
        }
        out = probe_sweep(
            FOUR_LINES, WEIGHTS, real, 100, seed=5, processes=processes, **small
        )
        assert out == {
            "samples": 83,
            "excluded": 17,
            "alpha_emp": "15",
            "alpha_emp_float": 15.0,
            "worst": {"index": 20, "height": 1, "degree": "15", "support": 3},
        }
        out = probe_sweep(
            FOUR_LINES, WEIGHTS, real, 300, seed=5, processes=processes, **small
        )
        assert (out["samples"], out["excluded"], out["alpha_emp"]) == (246, 54, "30")
        assert out["worst"]["index"] == 204


@pytest.mark.parametrize("seed", [0, 5, 77])
def test_sweeps_do_not_depend_on_the_process_count(seed):
    real = realization_from_config(FOUR_LINES)
    sweeps = {
        "subspace": partial(subspace_sweep, 24, seed=seed, max_deg=4, bound=5),
        "product": partial(product_formula_sweep, 40, seed=seed),
        "probe": partial(
            probe_sweep, FOUR_LINES, WEIGHTS, real, 60, seed=seed, max_deg=3, bound=5
        ),
    }
    for suite, sweep in sweeps.items():
        one = sweep(processes=1)
        assert sweep(processes=2) == one, suite
        assert sweep(processes=8) == one, suite
