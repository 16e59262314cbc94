"""Weighted boundary classes, ampleness certification, orbifold degrees."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from orbicert.lattice import ConfigError, DivisorClass, SurfaceConfig, intersect
from orbicert.positivity import (
    WeightedBoundary,
    ample_class_sufficient,
    ample_sufficient,
    boundary_class,
    check_multiplicity,
    orbifold_canonical_big,
    orbifold_coefficient,
)

FOUR_LINES = SurfaceConfig.build([1, 1, 1], [1, 1, 1], hyperplane=True)


def test_weighted_boundary_make():
    wb = WeightedBoundary.make([4, "4", Fraction(8, 2), Fraction(3, 1)])
    assert wb.weights == (4, 4, 4, 3)
    assert all(isinstance(w, int) for w in wb.weights)
    half = WeightedBoundary.make([Fraction(1, 2)])
    assert half.weights == (Fraction(1, 2),)
    for bad in (0, -1, Fraction(-1, 2), "0"):
        with pytest.raises(ConfigError):
            WeightedBoundary.make([4, bad])


@pytest.mark.parametrize(
    "raw, want",
    [(True, 1), ("4", 4), (Fraction(6, 2), 3), (Fraction(1, 2), Fraction(1, 2)), (7, 7)],
    ids=["bool", "string", "whole-fraction", "half", "int"],
)
def test_weighted_boundary_make_pins(raw, want):
    (w,) = WeightedBoundary.make([raw]).weights
    assert w == want and type(w) is type(want)


@pytest.mark.parametrize("raw", [0, -1, False, "-4", Fraction(-1, 2)])
def test_weighted_boundary_make_rejects_nonpositive(raw):
    with pytest.raises(ConfigError, match=rf"^weight {raw} must be positive$"):
        WeightedBoundary.make([3, raw])


def test_weighted_boundary_make_rejects_floats():
    # Fraction(0.1) is the binary expansion 3602879701896397/2**55, not 1/10
    for raw in (0.1, 2.0):
        with pytest.raises(ConfigError, match=rf"^weight {raw} is a float"):
            WeightedBoundary.make([3, raw])


def test_weighted_boundary_make_keeps_an_int():
    big = 10**40 + 1
    assert WeightedBoundary.make([big]).weights[0] is big


def test_weight_count_must_match():
    with pytest.raises(ConfigError):
        boundary_class(FOUR_LINES, WeightedBoundary.make([4, 4, 4]))


def test_boundary_class_four_lines():
    d = boundary_class(FOUR_LINES, WeightedBoundary.make([4, 4, 4, 3]))
    assert d.h == 15
    assert d.c == (4, 4, 4, 0)
    assert intersect(d, d) == 177


def test_ample_four_lines():
    verdict = ample_sufficient(FOUR_LINES, WeightedBoundary.make([4, 4, 4, 3]))
    assert verdict.certified
    assert bool(verdict)
    assert verdict.reason == ""
    assert dict(verdict.checks) == {
        "self_intersection_positive": True,
        "exceptional_pairings_positive": True,
        "bezout_residue_positive": True,
    }


def test_ample_failure_square():
    d = DivisorClass.make(FOUR_LINES, 1, [1, 0, 0, 0])
    verdict = ample_class_sufficient(FOUR_LINES, d)
    assert not verdict
    assert verdict.reason == "self_intersection_positive"


def test_ample_failure_missing_exceptional():
    d = DivisorClass.make(FOUR_LINES, 10, [4, 4, 0, 0])
    verdict = ample_class_sufficient(FOUR_LINES, d)
    assert not verdict
    assert verdict.reason == "exceptional_pairings_positive"
    assert dict(verdict.checks)["self_intersection_positive"]


def test_ample_failure_bezout():
    d = DivisorClass.make(FOUR_LINES, 7, [4, 4, 4, 0])
    assert intersect(d, d) == 1
    verdict = ample_class_sufficient(FOUR_LINES, d)
    assert not verdict
    assert verdict.reason == "bezout_residue_positive"


def test_square_zero_is_inconclusive():
    cfg = SurfaceConfig.build([2], [2], hyperplane=False, allow_single_component=True)
    d = boundary_class(cfg, WeightedBoundary.make([1]))
    assert intersect(d, d) == 0
    verdict = ample_class_sufficient(cfg, d)
    assert not verdict
    assert verdict.reason == "self_intersection_positive"


def test_certified_scales():
    rng = random.Random(307)
    certified = 0
    for _ in range(400):
        weights = WeightedBoundary.make([rng.randint(1, 30) for _ in range(4)])
        verdict = ample_sufficient(FOUR_LINES, weights)
        assert verdict.certified == all(ok for _, ok in verdict.checks)
        if verdict:
            certified += 1
            k = rng.randint(2, 5)
            d = k * boundary_class(FOUR_LINES, weights)
            assert ample_class_sufficient(FOUR_LINES, d).certified
    assert certified > 50


def test_orbifold_coefficient():
    assert orbifold_coefficient(1) == 0
    assert orbifold_coefficient(2) == Fraction(1, 2)
    assert orbifold_coefficient(3) == Fraction(2, 3)
    assert orbifold_coefficient(math.inf) == 1


def test_check_multiplicity_rejects_junk():
    check_multiplicity(1)
    check_multiplicity(10**9)
    check_multiplicity(math.inf)
    for bad in (0, -1, 2.5, True, "3", float("nan"), float("-inf"), Decimal("Infinity")):
        with pytest.raises(ConfigError):
            check_multiplicity(bad)


def test_orbifold_canonical_big():
    inf = math.inf
    verdict = orbifold_canonical_big(FOUR_LINES, [inf, inf, inf, inf])
    assert verdict.certified
    assert verdict.value == 1

    verdict = orbifold_canonical_big(FOUR_LINES, [2, 2, 2, 2])
    assert not verdict
    assert verdict.value == -1
    assert verdict.reason == "orbifold_degree_nonpositive"

    verdict = orbifold_canonical_big(FOUR_LINES, [4, 4, 4, inf])
    assert verdict.certified
    assert verdict.value == Fraction(1, 4)

    with pytest.raises(ConfigError):
        orbifold_canonical_big(FOUR_LINES, [inf, inf])
