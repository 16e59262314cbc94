"""Closed-form weights, exhaustive weight search, random samplers."""

import itertools
import random
from fractions import Fraction

import pytest

from orbicert.catalog import load_builtin
from orbicert.certifier import build_report, certify
from orbicert import sampling, weights
from orbicert.lattice import ConfigError, InternalError, SurfaceConfig
from orbicert.positivity import WeightedBoundary
from orbicert.quadext import compare_cross
from orbicert.sampling import (
    ordered_map,
    random_config,
    random_passing_candidate,
    random_weights,
)
from orbicert.weights import proportional_weights, search_weights

FOUR_LINES = load_builtin("four-lines")


def test_proportional_known_values():
    assert proportional_weights(FOUR_LINES).weights == (4, 4, 4, 3)
    cfg = SurfaceConfig.build([1, 1, 2], [1, 1, 2], hyperplane=True)
    assert proportional_weights(cfg).weights == (8, 8, 4, 6)
    cfg = SurfaceConfig.build([2, 3, 4], [1, 1, 1], hyperplane=True)
    assert proportional_weights(cfg).weights == (48, 32, 24, 72)
    # 3c/4 < c/d_i only where d_i = 1: the hyperplane is not the least weight
    cfg = SurfaceConfig.build([1, 2, 2], hyperplane=True)
    assert proportional_weights(cfg).weights == (16, 8, 8, 12)


def test_proportional_weights_pass():
    rng = random.Random(513)
    for _ in range(40):
        degrees = [rng.randint(1, 4) for _ in range(3)]
        pairings = [rng.randint(1, d) for d in degrees]
        cfg = SurfaceConfig.build(degrees, pairings, hyperplane=True)
        report = build_report(cfg, proportional_weights(cfg))
        assert report.ample.certified
        assert all(c.inequality_holds for c in report.components)
        assert report.slack is not None and report.slack.sign() > 0


def test_proportional_requires_shape():
    with pytest.raises(ConfigError):
        proportional_weights(SurfaceConfig.build([1, 1], [1, 1], hyperplane=True))
    with pytest.raises(ConfigError):
        proportional_weights(
            SurfaceConfig.build([1, 1, 1], [1, 1, 1], hyperplane=False)
        )


def test_search_bound_four():
    result = search_weights(FOUR_LINES, 4)
    assert result.objective == "min-sum"
    assert result.feasible_count == 1
    assert result.best is not None
    assert result.best.weights == (4, 4, 4, 3)
    assert result.best.slack_lower == Fraction(1, 176)
    assert result.hits == (result.best,)


@pytest.mark.parametrize("bound, count", [(12, 87), (20, 533)])
def test_four_lines_counts_every_permutation(bound, count):
    result = search_weights(FOUR_LINES, bound)
    assert result.feasible_count == count == len(result.hits)
    found = {h.weights: h for h in result.hits}
    assert len(found) == count
    for hit in result.hits:
        *lines, plane = hit.weights
        for perm in itertools.permutations(lines):
            twin = found[(*perm, plane)]
            assert (twin.slack, twin.slack_lower) == (hit.slack, hit.slack_lower)


def test_search_bound_three_empty():
    result = search_weights(FOUR_LINES, 3)
    assert result.feasible_count == 0
    assert result.best is None
    assert result.hits == ()


@pytest.mark.parametrize(
    "cfg",
    [FOUR_LINES, SurfaceConfig.build([1, 2, 2], hyperplane=True)],
    ids=["four-lines", "built-1-2-2"],
)
@pytest.mark.parametrize("objective", ["min-sum", "max-slack"])
def test_search_pool_matches_one_process(cfg, objective):
    one = search_weights(cfg, 5, objective, processes=1)
    assert one.feasible_count == 2
    assert search_weights(cfg, 5, objective, processes=2) == one


def test_search_objectives_and_limit():
    small = search_weights(FOUR_LINES, 5, limit=3)
    assert len(small.hits) <= 3
    assert small.feasible_count >= 1
    by_eps = search_weights(FOUR_LINES, 5, objective="max-slack")
    assert by_eps.best is not None
    for hit in by_eps.hits:
        assert compare_cross(by_eps.best.slack, hit.slack) >= 0
    again = search_weights(FOUR_LINES, 5, objective="max-slack")
    assert again.best == by_eps.best
    assert again.hits == by_eps.hits


def test_search_builds_weights_without_make(monkeypatch):
    # the walk's ints are in range by construction; the result is the one
    # search has printed at bound 6 since the orbit walk came in
    def refuse(weights):
        raise AssertionError("search called WeightedBoundary.make")

    monkeypatch.setattr(WeightedBoundary, "make", staticmethod(refuse))
    result = search_weights(FOUR_LINES, 6)
    assert [(h.weights, str(h.slack)) for h in result.hits] == [
        ((4, 4, 4, 3), "1/176"),
        ((5, 5, 5, 4), "3/140"),
        ((5, 6, 6, 5), "1/128"),
        ((6, 5, 6, 5), "1/128"),
        ((6, 6, 5, 5), "1/128"),
        ((6, 6, 6, 5), "13/408"),
    ]
    assert result.feasible_count == 6 and result.best == result.hits[0]


def test_search_applies_the_config_hypotheses():
    # certify fails every vector of a config whose components may meet three
    # at a point; search once passed (4, 4, 4, 3) and five more here
    cfg = SurfaceConfig.from_json_dict({**FOUR_LINES.to_json_dict(), "no_three_meet": False})
    cert = certify(cfg, WeightedBoundary.make([4, 4, 4, 3]))
    assert (cert.overall, cert.first_failure) == ("fail", "no_three_meet")
    result = search_weights(cfg, 6)
    assert (result.feasible_count, result.best, result.hits) == (0, None, ())


def test_search_argument_validation():
    with pytest.raises(ConfigError):
        search_weights(FOUR_LINES, 4, objective="fastest")
    with pytest.raises(ConfigError):
        search_weights(FOUR_LINES, 0)


def test_search_limit_keeps_or_rejects():
    full = search_weights(FOUR_LINES, 6)
    assert search_weights(FOUR_LINES, 6, limit=0).hits == ()
    assert search_weights(FOUR_LINES, 6, limit=len(full.hits)).hits == full.hits
    # a negative limit once sliced the last hit off instead of failing
    for bad in (-1, -len(full.hits)):
        with pytest.raises(ConfigError, match="limit"):
            search_weights(FOUR_LINES, 6, limit=bad)


def test_random_config_valid():
    rng = random.Random(617)
    for _ in range(300):
        cfg = random_config(rng)
        assert cfg.r >= 2
        assert all(c.degree <= 4 for c in cfg.components)
        wb = random_weights(rng, cfg)
        assert len(wb.weights) == cfg.r
        assert all(1 <= w <= 50 for w in wb.weights)


def test_random_passing_candidate_mix():
    rng = random.Random(719)
    passes = 0
    for _ in range(200):
        cfg, wb = random_passing_candidate(rng)
        assert cfg.r == 4
        assert all(1 <= w <= 50 for w in wb.weights)
        report = build_report(cfg, wb)
        if report.ample.certified and all(
            c.inequality_holds for c in report.components
        ):
            passes += 1
    assert passes >= 60


def test_search_hit_without_slack_is_internal_error(monkeypatch):
    # a vector the integer decision passes must have a positive QuadExt slack
    monkeypatch.setattr(weights, "checklist_holds", lambda cfg, wb: True)
    with pytest.raises(InternalError, match="slack None"):
        search_weights(FOUR_LINES, 2)


def _mapped(items, processes, chunk=1):
    with ordered_map((2).__mul__, items, processes, chunk) as results:
        return list(results)


def test_ordered_map_bounds_the_pool(stand_in_pool, monkeypatch):
    # at most one process per item and per CPU, chunk items per task
    assert _mapped([1, 2, 3], 64) == [2, 4, 6]
    assert _mapped(list(range(10)), 64) == [2 * a for a in range(10)]
    assert _mapped(list(range(10)), 3, chunk=4) == [2 * a for a in range(10)]
    assert stand_in_pool.sizes == [3, 4, 3]
    assert stand_in_pool.tasks[2] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    # one item, one process or an unknown CPU count: no pool at all
    assert _mapped([5], 64) == [10]
    assert _mapped([1, 2], 1) == [2, 4]
    monkeypatch.setattr(sampling.os, "cpu_count", lambda: None)
    assert _mapped([1, 2], 64) == [2, 4]
    assert stand_in_pool.sizes == [3, 4, 3]


def test_search_maps_one_first_weight_per_task(stand_in_pool):
    one = search_weights(FOUR_LINES, 4, processes=1)
    assert stand_in_pool.sizes == []
    assert search_weights(FOUR_LINES, 4, processes=2) == one
    assert stand_in_pool.sizes == [2]
    assert stand_in_pool.tasks == [[[(FOUR_LINES, 4, first)] for first in range(1, 5)]]
