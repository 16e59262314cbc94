"""Intersection lattice, Euler characteristics and config serialization."""

import random
from fractions import Fraction

import pytest

from orbicert.lattice import (
    BlownPoint,
    Component,
    ConfigError,
    DivisorClass,
    SurfaceConfig,
    canonical_class,
    chi,
    exceptional_class,
    intersect,
    strict_transform,
)

POINTS = [f"Q{i}" for i in range(6)]


def random_class(rng: random.Random, rational: bool = False) -> DivisorClass:
    def coeff():
        if rational:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randint(-9, 9)

    return DivisorClass.make(coeff(), {q: coeff() for q in rng.sample(POINTS, rng.randint(0, 4))})


def test_gram_matrix():
    h = DivisorClass.make(1)
    e = exceptional_class("Q0")
    assert intersect(h, h) == 1
    assert intersect(e, e) == -1
    assert intersect(h, e) == 0
    assert intersect(h + e, h + e) == 0


def test_make_drops_zero_coefficients():
    d = DivisorClass.make(2, {"A": 0, "B": 3})
    assert d.e_items == (("B", 3),)
    assert d.coefficient("A") == 0
    assert d.coefficient("B") == 3


def test_bilinearity_random():
    rng = random.Random(211)
    for _ in range(1500):
        a = random_class(rng)
        b = random_class(rng, rational=rng.random() < 0.3)
        c = random_class(rng)
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a + b, c) == intersect(a, c) + intersect(b, c)
        assert intersect(s * a, b) == s * intersect(a, b)
        assert intersect(a - b, c) == intersect(a, c) - intersect(b, c)
        assert intersect(-a, b) == -intersect(a, b)


def test_is_integral():
    assert DivisorClass.make(2, {"A": Fraction(4, 2)}).is_integral()
    assert not DivisorClass.make(Fraction(1, 2)).is_integral()
    assert not DivisorClass.make(1, {"A": Fraction(1, 3)}).is_integral()


def four_lines() -> SurfaceConfig:
    return SurfaceConfig.build([1, 1, 1], [1, 1, 1], hyperplane=True)


def test_build_four_lines_shape():
    cfg = four_lines()
    assert cfg.r == 4
    assert [c.degree for c in cfg.components] == [1, 1, 1, 1]
    assert [c.paired for c in cfg.components] == [True, True, True, False]
    assert cfg.components[3].role == "hyperplane"
    assert len(cfg.points) == 3
    assert not cfg.padded
    assert {p.ident for p in cfg.points} == {"P1.1", "P2.1", "P3.1"}


def test_build_padding():
    cfg = SurfaceConfig.build([2], [1], hyperplane=True)
    assert cfg.padded
    assert len(cfg.points_on(0)) == 4
    cfg2 = SurfaceConfig.build([3], [3], hyperplane=False, allow_single_component=True)
    assert not cfg2.padded
    assert len(cfg2.points) == 9


def test_strict_transform_classes():
    cfg = four_lines()
    line = strict_transform(cfg, 0)
    assert line.h == 1 and line.e == {"P1.1": 1}
    hyp = strict_transform(cfg, 3)
    assert hyp.h == 1 and hyp.e == {}
    assert intersect(line, line) == 0
    assert intersect(hyp, hyp) == 1
    assert intersect(line, hyp) == 1
    with pytest.raises(ConfigError):
        strict_transform(cfg, 4)


def test_canonical_class_and_chi():
    cfg = four_lines()
    k = canonical_class(cfg)
    assert k.h == -3 and all(c == -1 for c in k.e.values())
    assert intersect(k, k) == 9 - 3
    assert chi(cfg, DivisorClass.make(0)) == 1
    # h^0 of degree d plane curves through no points
    for d in range(0, 6):
        assert chi(cfg, DivisorClass.make(d)) == (d + 1) * (d + 2) // 2
    e = exceptional_class("P1.1")
    assert chi(cfg, e) == 1


def test_chi_integral_on_random_integral_classes():
    cfg = four_lines()
    rng = random.Random(223)
    names = [p.ident for p in cfg.points]
    for _ in range(800):
        d = DivisorClass.make(
            rng.randint(-8, 8), {q: rng.randint(-8, 8) for q in names}
        )
        value = chi(cfg, d)
        assert value.denominator == 1


def test_validation_errors():
    with pytest.raises(ConfigError):
        Component(degree=0)
    with pytest.raises(ConfigError):
        Component(degree=2, paired=True, pairing_degree=3)
    with pytest.raises(ConfigError):
        Component(degree=2, paired=False, pairing_degree=1)
    good = Component(degree=1, paired=True)
    assert good.pairing_degree == 1

    with pytest.raises(ConfigError):
        SurfaceConfig(components=(), points=())
    comp = (Component(degree=1, paired=True),)
    with pytest.raises(ConfigError):
        SurfaceConfig(components=comp, points=(BlownPoint.make("P", []),))
    with pytest.raises(ConfigError):
        SurfaceConfig(
            components=comp,
            points=(BlownPoint.make("P", [0]), BlownPoint.make("P", [0])),
        )
    with pytest.raises(ConfigError):
        SurfaceConfig(components=comp, points=(BlownPoint.make("P", [5]),))
    # paired degree-1 component needs exactly one point
    with pytest.raises(ConfigError):
        SurfaceConfig(components=comp, points=())
    free = (Component(degree=1),)
    with pytest.raises(ConfigError):
        SurfaceConfig(components=free, points=(BlownPoint.make("P", [0]),))


def test_json_round_trip():
    cfg = SurfaceConfig.build(
        [2, 1],
        [1, 1],
        hyperplane=True,
        name="sample",
        default_weights=("8", "4", "6"),
        default_multiplicities=("inf", "12", "inf"),
        metadata={"note": "round trip"},
    )
    text = cfg.to_json()
    back = SurfaceConfig.from_json(text)
    assert back.to_json() == text
    assert back.name == "sample"
    assert back.default_weights == ("8", "4", "6")
    assert back.metadata == {"note": "round trip"}


def test_from_json_generates_points():
    doc = {
        "components": [
            {"degree": 2, "paired": True, "pairing_degree": 2},
            {"degree": 1, "paired": False, "role": "hyperplane"},
        ]
    }
    cfg = SurfaceConfig.from_json_dict(doc)
    assert len(cfg.points) == 4
    assert cfg.points[0].ident == "P1.1"


def test_json_errors():
    with pytest.raises(ConfigError):
        SurfaceConfig.from_json("not json")
    with pytest.raises(ConfigError):
        SurfaceConfig.from_json("[1, 2]")
    with pytest.raises(ConfigError):
        SurfaceConfig.from_json_dict({"version": 99, "components": []})


def test_class_str():
    d = DivisorClass.make(15, {"A": 4, "B": -2})
    text = str(d)
    assert text.startswith("15H")
    assert "4E(A)" in text and "2E(B)" in text


def test_missing_keys_are_config_errors():
    with pytest.raises(ConfigError, match="missing key 'degree'"):
        SurfaceConfig.from_json_dict({"components": [{"paired": True}]})
    doc = {
        "components": [{"degree": 1, "paired": True}, {"degree": 1}],
        "points": [{"id": "P1.1"}],
    }
    with pytest.raises(ConfigError, match="missing key 'on'"):
        SurfaceConfig.from_json_dict(doc)
    with pytest.raises(ConfigError):
        SurfaceConfig.from_json_dict({"components": [1]})
    with pytest.raises(ConfigError):
        SurfaceConfig.from_json('{"components": [{"degree": null}]}')
