"""The integer checklist decision against the exact QuadExt report.

checklist_holds decides ampleness and every filtration inequality from
closed-form pairings with integer arithmetic; build_report computes the
volume ratios in QuadExt and compares them with the weights.  The two are
independent computations of the same statement and must agree everywhere.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert import constants, sampling
from orbicert.catalog import load_builtin
from orbicert.certifier import build_report, checklist_holds
from orbicert.lattice import SurfaceConfig, canonical_class, intersect, strict_transform
from orbicert.positivity import WeightedBoundary, boundary_class
from orbicert.quadext import compare_cross
from orbicert.weights import SearchHit, SearchResult, search_weights

PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# three paired lines and an unpaired conic; (5, 5, 5, 2) passes
LINES_AND_CONIC = SurfaceConfig.from_json_dict(
    {"components": [{"degree": 1, "paired": True}] * 3 + [{"degree": 2}]}
)


def sampled_case(seed: int) -> tuple[SurfaceConfig, WeightedBoundary]:
    """A config and weights drawn the way the boundary stress suite draws them."""
    rng = random.Random(seed)
    if rng.random() < 0.7:
        return sampling.random_passing_candidate(rng)
    cfg = sampling.random_config(rng)
    return cfg, sampling.random_weights(rng, cfg)


@st.composite
def json_configs(draw) -> SurfaceConfig:
    """JSON configs whose components include an unpaired curve of degree 2 or 3."""
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        comps.append({"degree": d, "paired": True, "pairing_degree": draw(st.integers(1, d))})
    comps.append({"degree": draw(st.integers(2, 3))})
    comps = draw(st.permutations(comps))
    return SurfaceConfig.from_json_dict(
        {"components": comps, "hyperplane": draw(st.booleans())}
    )


@st.composite
def near_passing_weights(draw, cfg: SurfaceConfig, denominator: int = 1):
    """Weights around 4L/d on paired curves, anything up to 4L/d on the rest.

    Uniform weights almost never pass; about one vector in six of these
    does on configs with two or more paired curves.  With a denominator q
    each weight moves by at most 1/q off a multiple of the base vector.
    """
    scale = lcm(*(c.degree for c in cfg.components)) * draw(st.integers(1, 3))
    ws = []
    for comp in cfg.components:
        top = 4 * scale // comp.degree
        if comp.paired:
            w = max(1, top + draw(st.integers(-1, 1)))
        else:
            w = draw(st.integers(1, top))
        ws.append(max(Fraction(1, denominator), w + Fraction(draw(st.integers(-1, 1)), denominator)))
    return WeightedBoundary.make(ws)


def rational_weights(cfg: SurfaceConfig):
    generic = st.lists(
        st.fractions(min_value=Fraction(1, 6), max_value=60, max_denominator=6),
        min_size=cfg.r,
        max_size=cfg.r,
    ).map(WeightedBoundary.make)
    return generic | st.integers(2, 6).flatmap(lambda q: near_passing_weights(cfg, q))


def stated_inequality(report, check) -> bool:
    """2 D_p^2 x > (D_p . D_i) x^2 + 3 D_p^2 p_i at the truncation root x.

    The filtration inequality as stated, evaluated in QuadExt on the
    report's own numbers, apart from both verdicts build_report compares.
    """
    x = check.truncation_root
    dp2 = report.dp_square
    return 2 * dp2 * x > check.dp_pairing * x * x + 3 * dp2 * check.weight


def assert_decision_agrees(cfg: SurfaceConfig, wb: WeightedBoundary) -> bool:
    report = build_report(cfg, wb)
    decided = checklist_holds(cfg, wb)
    exceeds = bool(report.components) and all(c.exceeds_weight for c in report.components)
    assert decided == exceeds
    assert decided == (report.slack is not None and report.slack.sign() > 0)
    for check in report.components:
        assert check.exceeds_weight == stated_inequality(report, check)
    return decided


@PROPERTY
@given(seeds)
def test_decision_on_sampled_configs(seed):
    assert_decision_agrees(*sampled_case(seed))


@PROPERTY
@given(st.data())
def test_decision_on_json_configs_with_unpaired_curve(data):
    cfg = data.draw(json_configs())
    uniform = st.lists(st.integers(1, 40), min_size=cfg.r, max_size=cfg.r)
    wb = data.draw(uniform.map(WeightedBoundary.make) | near_passing_weights(cfg))
    assert_decision_agrees(cfg, wb)


@PROPERTY
@given(st.data())
def test_decision_on_rational_weights(data):
    if data.draw(st.booleans()):
        cfg = data.draw(json_configs())
    else:
        cfg, _ = sampled_case(data.draw(seeds))
    assert_decision_agrees(cfg, data.draw(rational_weights(cfg)))


def test_decision_sees_both_verdicts():
    # the properties above are only worth something if both verdicts occur
    verdicts = set()
    for seed in range(200):
        cfg, wb = sampled_case(seed)
        verdicts.add(checklist_holds(cfg, wb))
    assert verdicts == {True, False}
    assert checklist_holds(LINES_AND_CONIC, WeightedBoundary.make([5, 5, 5, 2]))
    assert not checklist_holds(LINES_AND_CONIC, WeightedBoundary.make([5, 5, 5, 3]))
    # homogeneity: a rational multiple keeps the verdict
    sevenths = [Fraction(w, 7) for w in (5, 5, 5, 2)]
    assert checklist_holds(LINES_AND_CONIC, WeightedBoundary.make(sevenths))


@PROPERTY
@given(st.data())
def test_closed_form_pairings_match_lattice(data):
    if data.draw(st.booleans()):
        cfg = data.draw(json_configs())
    else:
        cfg, _ = sampled_case(data.draw(seeds))
    wb = data.draw(rational_weights(cfg))
    report = build_report(cfg, wb)
    dp = boundary_class(cfg, wb)
    k = canonical_class(cfg)
    assert report.dp_square == intersect(dp, dp)
    if report.ample.certified:
        assert constants._dpk(report) == intersect(dp, k)
    for i, c in enumerate(report.components):
        di = strict_transform(cfg, i)
        assert c.dp_pairing == intersect(dp, di)
        assert c.self_square == intersect(di, di)
        assert constants._dik(c) == intersect(di, k)


def reference_hits(cfg: SurfaceConfig, bound: int) -> list[SearchHit]:
    """Exhaustive enumeration that consults only build_report."""
    hits = []
    for ws in itertools.product(range(1, bound + 1), repeat=cfg.r):
        report = build_report(cfg, WeightedBoundary.make(ws))
        if report.ample.certified and report.slack is not None and report.slack.sign() > 0:
            hits.append(SearchHit(ws, report.slack, report.slack_lower, sum(ws)))
    return sorted(hits, key=lambda h: (h.weight_sum, h.weights))


def reference_result(
    hits: list[SearchHit], bound: int, objective: str
) -> SearchResult:
    """The SearchResult search_weights must return for reference_hits."""
    best = hits[0] if hits else None
    if objective == "max-slack":
        for hit in hits:
            if compare_cross(hit.slack, best.slack) > 0:
                best = hit
    return SearchResult(objective, bound, len(hits), best, tuple(hits))


def test_search_matches_report_only_enumeration():
    cases = (
        (load_builtin("four-lines"), 4, 1),
        (SurfaceConfig.build([1, 2], [1, 1], hyperplane=True), 6, 0),
        (LINES_AND_CONIC, 5, 1),
    )
    for cfg, bound, least_hits in cases:
        hits = reference_hits(cfg, bound)
        assert len(hits) >= least_hits
        for objective in ("min-sum", "max-slack"):
            want = reference_result(hits, bound, objective)
            assert search_weights(cfg, bound, objective) == want


def test_orbit_search_matches_report_only_enumeration_on_built_shapes():
    # the orbit walk groups components by degree and paired flag only, so
    # repeated degrees with different pairing degrees share one group
    rng = random.Random(3011)
    with_hits = repeated = mixed_pairings = 0
    for _ in range(100):
        hyperplane = rng.random() < 0.8
        count = rng.choice((2, 3, 3, 3)) if hyperplane else rng.choice((2, 3, 4))
        degrees = [rng.choice((1, 1, 2, 2, 3)) for _ in range(count)]
        pairings = [rng.randint(1, d) for d in degrees]
        cfg = SurfaceConfig.build(degrees, pairings, hyperplane=hyperplane)
        bound = rng.randint(4, 6)
        hits = reference_hits(cfg, bound)
        for objective in ("min-sum", "max-slack"):
            want = reference_result(hits, bound, objective)
            assert search_weights(cfg, bound, objective) == want, (degrees, pairings)
        with_hits += bool(hits)
        repeated += len(set(degrees)) < len(degrees)
        mixed_pairings += any(
            len({b for d2, b in zip(degrees, pairings) if d2 == d}) > 1 for d in degrees
        )
    assert with_hits >= 40 and repeated >= 60 and mixed_pairings >= 15


def test_orbit_search_with_an_unpaired_component_first():
    # the first group, whose least weight names a pool task, is unpaired here
    cfg = SurfaceConfig.from_json_dict(
        {"components": [{"degree": 1}] + [{"degree": 1, "paired": True}] * 3}
    )
    hits = reference_hits(cfg, 5)
    assert len(hits) == 2
    for processes in (1, 2):
        got = search_weights(cfg, 5, "max-slack", processes=processes)
        assert got == reference_result(hits, 5, "max-slack")
    four = search_weights(load_builtin("four-lines"), 5)
    assert sorted(h.weights for h in hits) == sorted(
        (h.weights[3], *h.weights[:3]) for h in four.hits
    )
