"""One coefficient per component against the per-point lattice it stands for.

A class is stored as h*H - sum(c_i E_i), where E_i sums the exceptional
curves over the points on component i.  Here every class is expanded over
cfg.blown_points() into h*H - sum(e_Q E_Q) with one entry per blown point, paired
in the Gram form diag(1, -1, ..., -1), and the per-point ampleness test is
written out point by point.  intersect, the constructors and
ample_class_sufficient must agree with that expansion.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert.lattice import (
    DivisorClass,
    SurfaceConfig,
    canonical_class,
    intersect,
    strict_transform,
)
from orbicert.positivity import (
    WeightedBoundary,
    ample_class_sufficient,
    boundary_class,
)

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)

CHECKS = (
    "self_intersection_positive",
    "exceptional_pairings_positive",
    "bezout_residue_positive",
)


# -- the per-point semantics --------------------------------------------------


def expand(cfg: SurfaceConfig, d: DivisorClass) -> tuple[Fraction, dict[str, Fraction]]:
    """h and the coefficient e_Q of every blown point Q."""
    e = {}
    for ident, i in cfg.blown_points():
        e[ident] = Fraction(d.c[i])
    return Fraction(d.h), e


def point_pairing(a, b) -> Fraction:
    (ha, ea), (hb, eb) = a, b
    assert ea.keys() == eb.keys()
    return ha * hb - sum(ea[q] * eb[q] for q in ea)


def point_ample(cfg: SurfaceConfig, d: DivisorClass) -> tuple[tuple[str, bool], ...]:
    h, e = expand(cfg, d)
    square = point_pairing((h, e), (h, e))
    loss = Fraction(0)
    for i, comp in enumerate(cfg.components):
        on = [e[ident] for ident, j in cfg.blown_points() if j == i]
        if comp.paired and on:
            loss += comp.degree * max(Fraction(0), max(on))
    oks = (square > 0, all(v > 0 for v in e.values()), h - loss > 0)
    return tuple(zip(CHECKS, oks))


# -- strategies -----------------------------------------------------------------


@st.composite
def configs(draw) -> SurfaceConfig:
    """1-4 components of degree 1-6, paired and unpaired mixed."""
    comps = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 6))
        if draw(st.booleans()):
            comps.append({"degree": d, "paired": True, "pairing_degree": draw(st.integers(1, d))})
        else:
            comps.append({"degree": d})
    return SurfaceConfig.from_json_dict(
        {"components": comps, "allow_single_component": True}
    )


def coefficients(top: int):
    """Integers, or rationals with denominators up to 4, in [-top, top]."""
    return st.one_of(
        st.integers(-top, top),
        st.builds(Fraction, st.integers(-4 * top, 4 * top), st.integers(1, 4)),
    )


@st.composite
def classes(draw, cfg: SurfaceConfig) -> DivisorClass:
    """Arbitrary vectors, or weighted boundaries, twisted or multiplied."""
    if draw(st.booleans()):
        c = [draw(coefficients(8)) for _ in range(cfg.r)]
        return DivisorClass.make(cfg, draw(coefficients(80)), c)
    weights = [draw(st.integers(1, 12)) for _ in range(cfg.r)]
    d = boundary_class(cfg, WeightedBoundary.make(weights))
    i = draw(st.integers(0, cfg.r - 1))
    return draw(coefficients(3)) * d - draw(coefficients(12)) * strict_transform(cfg, i)


@st.composite
def config_and_classes(draw):
    cfg = draw(configs())
    return cfg, draw(classes(cfg)), draw(classes(cfg))


# -- properties -----------------------------------------------------------------


@PROPERTY
@given(config_and_classes())
def test_intersect_matches_point_expansion(case):
    cfg, a, b = case
    assert intersect(a, b) == point_pairing(expand(cfg, a), expand(cfg, b))
    assert intersect(a, a) == point_pairing(expand(cfg, a), expand(cfg, a))


@PROPERTY
@given(config_and_classes())
def test_ample_verdict_matches_point_expansion(case):
    cfg, a, b = case
    for d in (a, b, a + b):
        want = point_ample(cfg, d)
        verdict = ample_class_sufficient(cfg, d)
        assert verdict.checks == want
        failed = [name for name, ok in want if not ok]
        assert verdict.certified == (not failed)
        assert verdict.reason == (failed[0] if failed else "")


@PROPERTY
@given(configs(), st.data())
def test_constructors_match_point_definitions(cfg, data):
    k = expand(cfg, canonical_class(cfg))
    assert k == (-3, {ident: -1 for ident, _ in cfg.blown_points()})
    weights = [data.draw(st.integers(1, 12)) for _ in range(cfg.r)]
    dp = expand(cfg, boundary_class(cfg, WeightedBoundary.make(weights)))
    assert dp[0] == sum(w * c.degree for w, c in zip(weights, cfg.components))
    for i, comp in enumerate(cfg.components):
        di = expand(cfg, strict_transform(cfg, i))
        assert di == (comp.degree, {ident: int(j == i) for ident, j in cfg.blown_points()})
        assert all(dp[1][ident] == weights[i] for ident, j in cfg.blown_points() if j == i)
