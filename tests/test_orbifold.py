"""Pullback profiles, induced multiplicities, counting bound, twist threshold."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert.catalog import load_builtin
from orbicert.lattice import ConfigError, DivisorClass, SurfaceConfig, strict_transform
from orbicert.orbifold import (
    INF,
    ProfilePoint,
    PullbackProfile,
    ample_twist_threshold,
    induced_multiplicities,
    is_orbifold_morphism,
    support_bound,
)
from orbicert.positivity import (
    WeightedBoundary,
    ample_class_sufficient,
    ample_sufficient,
    boundary_class,
)
from orbicert.sampling import random_config, random_passing_candidate
from test_internal_checks import time_limit

FOUR_LINES = load_builtin("four-lines")
WEIGHTS = WeightedBoundary.make([4, 4, 4, 3])


def test_twist_multiplicity_vector():
    for bad in ([INF] * 3, [INF] * 5, [INF, INF, 0, INF], [INF, True, INF, INF]):
        with pytest.raises(ConfigError):
            ample_twist_threshold(FOUR_LINES, WEIGHTS, 100, bad)
    # an entry of 1 stays out of T: twisting by the three lines leaves 4 - 100/m
    # on each line and the residue 3; adding the hyperplane drops the residue
    # to 3 - 100/m
    assert ample_twist_threshold(FOUR_LINES, WEIGHTS, 100, [1, 1, 1, 1]) == 1
    assert ample_twist_threshold(FOUR_LINES, WEIGHTS, 100, [2, 2, 2, 1]) == 26
    assert ample_twist_threshold(FOUR_LINES, WEIGHTS, 100, [2, 2, 2, INF]) == 34


def test_profile_point_make():
    p = ProfilePoint.make("a", {1: 2, 0: 3})
    assert p.contacts == ((0, 3), (1, 2))
    assert p.t_total == 5
    q = ProfilePoint.make("b", [(2, 1)])
    assert q.t_total == 1
    for bad in ({}, {0: 0}, {0: -1}, {-1: 2}, {0: Fraction(1, 2)}):
        with pytest.raises(ConfigError):
            ProfilePoint.make("c", bad)
    with pytest.raises(ConfigError):
        ProfilePoint.make("d", [(0, 1), (0, 2)])


def test_profile_validation():
    with pytest.raises(ConfigError):
        PullbackProfile.make([("a", {0: 1}), ("a", {1: 1})], 2)
    with pytest.raises(ConfigError):
        PullbackProfile.make([("a", {5: 1})], 2)


def test_profile_pullback_degrees():
    profile = PullbackProfile.make(
        [("a", {0: 2, 1: 1}), ("b", {0: 3}), ("c", {2: 4})], 4
    )
    assert profile.pullback_degree(0) == 5
    assert profile.pullback_degree(1) == 1
    assert profile.pullback_degree(3) == 0


def test_induced_multiplicities():
    profile = PullbackProfile.make([("a", {0: 2, 1: 1})], 2)
    assert induced_multiplicities(profile, [7, 5]) == (3,)
    assert induced_multiplicities(profile, [INF, 5]) == (INF,)
    assert induced_multiplicities(profile, [1, 1]) == (1,)
    assert induced_multiplicities(profile, [6, 9]) == (3,)
    with pytest.raises(ConfigError):
        induced_multiplicities(profile, [7])


def test_morphism_rules():
    profile = PullbackProfile.make([("a", {0: 3}), ("b", {1: 2})], 2)
    assert is_orbifold_morphism(profile, [4, 5], [12, 10])
    assert not is_orbifold_morphism(profile, [3, 5], [12, 10])
    assert is_orbifold_morphism(profile, [INF, 5], [INF, 10])
    assert not is_orbifold_morphism(profile, [9, 5], [INF, 10])
    assert is_orbifold_morphism(profile, [1, 1], [1, 1])
    with pytest.raises(ConfigError):
        is_orbifold_morphism(profile, [4], [12, 10])
    with pytest.raises(ConfigError):
        is_orbifold_morphism(profile, [0, 5], [12, 10])


def random_profile(rng: random.Random):
    n_comp = rng.randint(1, 4)
    points = []
    for i in range(rng.randint(1, 5)):
        met = rng.sample(range(n_comp), rng.randint(1, n_comp))
        points.append((f"x{i}", {j: rng.randint(1, 4) for j in met}))
    target = [
        INF if rng.random() < 0.25 else rng.randint(1, 9) for _ in range(n_comp)
    ]
    return PullbackProfile.make(points, n_comp), target


def test_induced_is_minimal_morphism_random():
    rng = random.Random(907)
    for _ in range(500):
        profile, target = random_profile(rng)
        induced = induced_multiplicities(profile, target)
        assert is_orbifold_morphism(profile, induced, target)
        for k, n in enumerate(induced):
            if n == INF:
                lowered = list(induced)
                lowered[k] = 10**9
                assert not is_orbifold_morphism(profile, lowered, target)
            elif n >= 2:
                lowered = list(induced)
                lowered[k] = int(n) - 1
                assert not is_orbifold_morphism(profile, lowered, target)


def test_support_bound_random():
    rng = random.Random(1009)
    for _ in range(800):
        profile, target = random_profile(rng)
        lhs, rhs = support_bound(profile, target)
        assert lhs == len(profile.points)
        assert lhs <= rhs


def test_support_bound_equality_all_infinite():
    profile = PullbackProfile.make([("a", {0: 1}), ("b", {1: 3})], 2)
    lhs, rhs = support_bound(profile, [INF, INF])
    assert lhs == rhs == 2


def test_twist_threshold_four_lines():
    full = (INF,) * 4
    assert ample_twist_threshold(FOUR_LINES, WEIGHTS, 1, full) == 1
    assert ample_twist_threshold(FOUR_LINES, WEIGHTS, 0, full) == 1
    assert ample_twist_threshold(FOUR_LINES, WEIGHTS, 7, (1,) * 4) == 1
    # residue 3 - 100/m first turns positive at m = 34
    assert ample_twist_threshold(FOUR_LINES, WEIGHTS, 100, full) == 34
    assert ample_twist_threshold(FOUR_LINES, WEIGHTS, Fraction(7, 2), full) == 2


def test_twist_threshold_errors():
    with pytest.raises(ConfigError):
        ample_twist_threshold(FOUR_LINES, WEIGHTS, -1, (INF,) * 4)
    bad = SurfaceConfig.build([2], [2], hyperplane=False, allow_single_component=True)
    with pytest.raises(ValueError):
        ample_twist_threshold(bad, WeightedBoundary.make([1]), 1, (2,))


def test_twist_threshold_answers_in_the_size_of_alpha():
    with time_limit(1):
        m = ample_twist_threshold(FOUR_LINES, WEIGHTS, 10**30, (INF,) * 4)
    assert m == 10**30 // 3 + 1


def scan_twist_threshold(cfg, wb, alpha, multiplicities, cap=4096):
    """Least m <= cap at which the lattice test certifies the twist, or None."""
    dp = boundary_class(cfg, wb)
    support = [j for j, m in enumerate(multiplicities) if m > 1]
    twist = sum((strict_transform(cfg, j) for j in support), 0 * dp)
    for m in range(1, cap + 1):
        if ample_class_sufficient(cfg, dp - (Fraction(alpha) / m) * twist).certified:
            return m
    return None


def exact_numbers(low, high):
    return st.one_of(
        st.integers(low, high),
        st.fractions(min_value=low, max_value=high, max_denominator=12),
    )


@st.composite
def twist_cases(draw):
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        cfg, wb = random_passing_candidate(rng, max_degree=5, bound=200)
    else:
        cfg = random_config(rng, max_degree=5)
        weights = draw(st.lists(exact_numbers(1, 200), min_size=cfg.r, max_size=cfg.r))
        wb = WeightedBoundary.make(weights)
    support = draw(st.lists(st.integers(0, cfg.r - 1), unique=True))
    mults = st.sampled_from([2, 5, 1000, INF])
    multiplicities = [1] * cfg.r
    for j in support:
        multiplicities[j] = draw(mults)
    return cfg, wb, draw(exact_numbers(0, 3000)), multiplicities


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(twist_cases())
def test_twist_threshold_matches_the_scan(case):
    cfg, wb, alpha, multiplicities = case
    if not ample_sufficient(cfg, wb).certified:
        with pytest.raises(ValueError):
            ample_twist_threshold(cfg, wb, alpha, multiplicities)
        return
    expected = scan_twist_threshold(cfg, wb, alpha, multiplicities)
    m = ample_twist_threshold(cfg, wb, alpha, multiplicities)
    assert m == expected if expected is not None else m > 4096


@st.composite
def random_classes(draw):
    cfg = random_config(draw(st.randoms(use_true_random=False)), max_degree=5)
    c = draw(st.lists(exact_numbers(-3, 40), min_size=cfg.r, max_size=cfg.r))
    return cfg, DivisorClass.make(cfg, draw(exact_numbers(-5, 400)), c)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(random_classes())
def test_linear_checks_imply_the_square_check(case):
    checks = dict(ample_class_sufficient(*case).checks)
    if checks["exceptional_pairings_positive"] and checks["bezout_residue_positive"]:
        assert checks["self_intersection_positive"]
