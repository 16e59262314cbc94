"""Feasibility constants: section counts, the derived chain, verification."""

import random
from dataclasses import replace
from fractions import Fraction
from math import comb, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert import constants, quadext
from orbicert.catalog import load_builtin
from orbicert.certifier import build_report
from orbicert.constants import (
    ChainMismatchError,
    InfeasibleError,
    feasible_chain,
    filtration_sections_lower,
    sections_certified,
    sections_power_exact,
    verify_chain,
)
from orbicert.lattice import Component, DivisorClass, SurfaceConfig
from orbicert.positivity import WeightedBoundary
from orbicert.quadext import QuadExt, compare_cross

FOUR_LINES = load_builtin("four-lines")
WEIGHTS = WeightedBoundary.make([4, 4, 4, 3])


def plane(weight: int) -> tuple[SurfaceConfig, WeightedBoundary]:
    cfg = SurfaceConfig.build(
        [], [], hyperplane=True, allow_single_component=True
    )
    return cfg, WeightedBoundary.make([weight])


def test_sections_certified_plane_binomials():
    cfg, wb = plane(1)
    h = DivisorClass.make(cfg, 1)
    for d in range(0, 12):
        lower, exact = sections_certified(cfg, d * h, h)
        assert exact == comb(d + 2, 2)
        assert lower == exact


def test_sections_certified_guards():
    cfg, wb = plane(1)
    h = DivisorClass.make(cfg, 1)
    with pytest.raises(ValueError):
        sections_certified(cfg, DivisorClass.make(cfg, Fraction(1, 2)), h)
    with pytest.raises(ValueError):
        sections_certified(cfg, h, DivisorClass.make(cfg, 0))
    # negative plane degree: h^2 obstruction cannot be ruled in, only bounded
    lower, exact = sections_certified(cfg, -4 * h, h)
    assert lower == 0 and exact is None


def test_sections_certified_four_lines():
    dp = 15 * DivisorClass.make(FOUR_LINES, 1) - DivisorClass.make(
        FOUR_LINES, 0, [-4, -4, -4, 0]
    )
    assert dp.c == (4, 4, 4, 0)
    for n in range(1, 6):
        lower, exact = sections_certified(FOUR_LINES, n * dp, dp)
        assert exact == 1 + Fraction(177 * n * n + 33 * n, 2)
        assert sections_power_exact(FOUR_LINES, WEIGHTS, n) == exact


def test_plane_sum_matches_closed_form():
    for a in (1, 2, 3, 5):
        cfg, wb = plane(a)
        report = build_report(cfg, wb)
        closed = report.components[0].volume_ratio
        assert closed == QuadExt(Fraction(a, 3))
        for n in (1, 2, 7, 40):
            s = filtration_sections_lower(cfg, wb, 0, n)
            m = sections_power_exact(cfg, wb, n)
            assert m == comb(a * n + 2, 2)
            assert Fraction(s, n * m) == Fraction(a, 3)


def test_filtration_sections_guards():
    cfg, wb = plane(3)
    with pytest.raises(ValueError):
        filtration_sections_lower(cfg, wb, 0, 0)
    with pytest.raises(ValueError):
        filtration_sections_lower(cfg, WeightedBoundary.make([Fraction(1, 2)]), 0, 3)
    bad = SurfaceConfig.build([2], [2], hyperplane=False, allow_single_component=True)
    with pytest.raises(ValueError):
        filtration_sections_lower(bad, WeightedBoundary.make([1]), 0, 3)
    # a component index is never read from the end
    for i in (-1, 4):
        with pytest.raises(ValueError, match=f"no boundary component {i} among 4"):
            filtration_sections_lower(FOUR_LINES, WEIGHTS, i, 5)


def test_sum_matches_naive_enumeration():
    # brute-force the certified lower bounds straight from the definitions
    dp_class = 15 * DivisorClass.make(FOUR_LINES, 1) - DivisorClass.make(
        FOUR_LINES, 0, [-4, -4, -4, 0]
    )
    report = build_report(FOUR_LINES, WEIGHTS)
    for n in (1, 2, 3):
        for i in range(4):
            from orbicert.lattice import strict_transform

            di = strict_transform(FOUR_LINES, i)
            cap = floor(report.components[i].truncation_root * n)
            total = 0
            for m in range(1, cap + 1):
                lower, _ = sections_certified(
                    FOUR_LINES, n * dp_class - m * di, dp_class
                )
                total += lower
            assert filtration_sections_lower(FOUR_LINES, WEIGHTS, i, n) == total


FROZEN = dict(
    n=21,
    m_sections=39376,
    sums=(3321696, 3321696, 3321696, 2919644),
    argmax=3,
    b=37950,
    c_const=Fraction(353, 291067392),
    q_const=Fraction(15508246393, 58404665),
    m0=1458913,
)


def test_chain_frozen_values():
    chain = feasible_chain(FOUR_LINES, WEIGHTS, None, Fraction(1, 176))
    assert chain.eps_target == Fraction(1, 176)
    assert chain.eps_half == Fraction(1, 352)
    assert chain.n == FROZEN["n"]
    assert chain.m_sections == FROZEN["m_sections"]
    assert chain.sums == FROZEN["sums"]
    assert chain.ratios[0] == QuadExt(Fraction(435597, 434984))
    assert chain.argmax == FROZEN["argmax"]
    assert chain.b == FROZEN["b"]
    assert chain.c_const == FROZEN["c_const"]
    assert chain.q_const == FROZEN["q_const"]
    assert chain.beta_upper[0] == Fraction(1947, 484)
    assert chain.m0 == FROZEN["m0"]
    doc = chain.to_json_dict()
    assert doc["N"] == 21
    assert doc["multiplicity_threshold"] == FROZEN["m0"]
    assert doc["ratio_argmax"] == 3


def test_chain_verifies():
    chain = feasible_chain(FOUR_LINES, WEIGHTS, None, Fraction(1, 176))
    assert verify_chain(FOUR_LINES, WEIGHTS, chain) is True


def test_verify_rejects_tampering():
    chain = feasible_chain(FOUR_LINES, WEIGHTS, None, Fraction(1, 176))

    def with_m0(**fields):
        # a lowered bound together with the m0 it implies, so only the bound fails
        c = replace(chain, **fields)
        return replace(c, m0=floor(c.q_const * sum(c.beta_upper) / c.eps_half) + 1)

    for broken in (
        replace(chain, m0=chain.m0 + 1),
        replace(chain, m0=chain.m0 - 1),
        replace(chain, b=chain.b - 1),
        replace(chain, b=chain.b + 1),
        replace(chain, n=chain.n - 1),
        replace(chain, m_sections=chain.m_sections + 1),
        replace(chain, sums=(1, 1, 1, 1)),
        replace(chain, argmax=0),
        replace(chain, c_const=chain.c_const * 2),
        replace(chain, q_const=chain.q_const - 1),
        replace(chain, eps_half=chain.eps_half * 2),
        replace(chain, eps_target=chain.eps_target * 2),
        replace(chain, ratios=(chain.ratios[0] * 2,) + chain.ratios[1:]),
        replace(chain, ratio_max=chain.ratio_max * 2),
        replace(chain, n=chain.n + 1),
        with_m0(beta_upper=(chain.beta_upper[0] / 2,) + chain.beta_upper[1:]),
        with_m0(q_const=chain.q_const / 2),
    ):
        with pytest.raises(ChainMismatchError):
            verify_chain(FOUR_LINES, WEIGHTS, broken)


def test_chain_argument_validation():
    with pytest.raises(ValueError):
        feasible_chain(FOUR_LINES, WEIGHTS, None, Fraction(0))
    with pytest.raises(ValueError):
        feasible_chain(FOUR_LINES, WEIGHTS, None, Fraction(-1, 2))
    with pytest.raises(InfeasibleError):
        feasible_chain(FOUR_LINES, WEIGHTS, None, Fraction(1, 176), cap=5)
    bad = SurfaceConfig.build([2], [2], hyperplane=False, allow_single_component=True)
    with pytest.raises(InfeasibleError):
        feasible_chain(bad, WeightedBoundary.make([1]), None, Fraction(1, 10))


def test_chain_needs_the_whole_checklist():
    # ample boundary, but the filtration inequality fails at component 3
    ones = WeightedBoundary.make([1, 1, 1, 1])
    report = build_report(FOUR_LINES, ones)
    assert report.ample.certified and report.slack is None
    assert not report.components[3].inequality_holds
    with pytest.raises(InfeasibleError, match="checklist does not pass"):
        feasible_chain(FOUR_LINES, ones, report, Fraction(1, 176))
    with pytest.raises(InfeasibleError, match="checklist does not pass"):
        feasible_chain(FOUR_LINES, ones, None, Fraction(1, 176))


def test_chain_respects_precomputed_report():
    report = build_report(FOUR_LINES, WEIGHTS)
    fresh = feasible_chain(FOUR_LINES, WEIGHTS, report, report.slack_lower)
    again = feasible_chain(FOUR_LINES, WEIGHTS, None, Fraction(1, 176))
    assert fresh == again


def test_chain_reads_its_roots_from_the_report(monkeypatch):
    report = build_report(FOUR_LINES, WEIGHTS)

    def refuse(*args):
        raise AssertionError("the chain recomputed what the report holds")

    monkeypatch.setattr(constants, "build_report", refuse)
    monkeypatch.setattr(quadext, "sqrt_parts", refuse)
    chain = feasible_chain(FOUR_LINES, WEIGHTS, report, Fraction(1, 176))
    assert (chain.n, chain.m_sections, chain.b, chain.m0) == (
        FROZEN["n"], FROZEN["m_sections"], FROZEN["b"], FROZEN["m0"]
    )


def test_chain_on_random_passing_weights():
    from orbicert.sampling import random_passing_candidate

    rng = random.Random(811)
    checked = 0
    while checked < 3:
        cfg, wb = random_passing_candidate(rng, max_degree=2)
        report = build_report(cfg, wb)
        if report.slack_lower is None or report.slack_lower <= 0:
            continue
        try:
            chain = feasible_chain(cfg, wb, report, report.slack_lower, cap=60)
        except InfeasibleError:
            continue
        assert verify_chain(cfg, wb, chain)
        checked += 1


def _argmax(values, sign: int = 1) -> int:
    """Index of the first largest value, or of the first least for sign -1."""
    best = 0
    for i in range(1, len(values)):
        if sign * compare_cross(values[i], values[best]) > 0:
            best = i
    return best


# rationals beside elements of Q(sqrt 2) and Q(sqrt 3), some of them close
# (99/70 against sqrt 2) and some equal in two spellings (3/2 and QuadExt(3/2))
ORDER_POOL = (
    0, 1, Fraction(3, 2), Fraction(99, 70), Fraction(-1, 3), QuadExt(Fraction(3, 2)),
    QuadExt(0, 1, 2), QuadExt(Fraction(1, 2), Fraction(1, 2), 2), QuadExt(2, -1, 2),
    QuadExt(0, 1, 3), QuadExt(Fraction(1, 2), Fraction(1, 2), 3), QuadExt(2, -1, 3),
)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.lists(st.sampled_from(ORDER_POOL), min_size=1, max_size=6))
def test_max_and_min_pick_the_first_extreme(values):
    n = len(values)
    assert max(range(n), key=values.__getitem__) == _argmax(values)
    assert min(range(n), key=values.__getitem__) == _argmax(values, -1)


def _lines(paired: int, unpaired: int) -> SurfaceConfig:
    comps = [Component(degree=1, paired=True)] * paired + [Component(degree=1)] * unpaired
    return SurfaceConfig(components=tuple(comps), points=None)


@pytest.mark.parametrize(
    "cfg, weights, first, second",
    [
        (_lines(3, 2), [1, 1, 1, 2, 2], 3, 4),
        (_lines(2, 2), [1, 1, 1, 1], 2, 3),
    ],
    ids=["three-paired", "two-paired"],
)
def test_chain_argmax_is_the_first_tied_component(cfg, weights, first, second):
    wb = WeightedBoundary.make(weights)
    report = build_report(cfg, wb)
    chain = feasible_chain(cfg, wb, report, report.slack_lower)
    assert chain.n == 4
    assert not chain.ratios[first].is_rational
    assert chain.ratios[first] == chain.ratios[second] == chain.ratio_max
    assert chain.argmax == first == _argmax(chain.ratios)
    assert chain.to_json_dict()["ratio_argmax"] == first
    assert verify_chain(cfg, wb, chain)
