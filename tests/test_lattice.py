"""Intersection lattice, Euler characteristics and config serialization."""

import gc
import itertools
import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert.catalog import builtin_names, load_builtin
from orbicert.certifier import build_report, certify
from orbicert.ffheights import realization_from_config
from orbicert.lattice import (
    Component,
    ConfigError,
    DivisorClass,
    SurfaceConfig,
    canonical_class,
    chi,
    dump_json,
    intersect,
    strict_transform,
)
from orbicert.positivity import WeightedBoundary
from orbicert.sampling import _boundary_sample, _sample_rng
from orbicert.weights import proportional_weights


def four_lines() -> SurfaceConfig:
    return SurfaceConfig.build([1, 1, 1], [1, 1, 1], hyperplane=True)


# a conic (4 points), a line (1 point), a cubic (9 points) and a free line
MIXED = SurfaceConfig.build([2, 1, 3], [1, 1, 2], hyperplane=True)


def random_class(rng: random.Random, rational: bool = False) -> DivisorClass:
    def coeff():
        if rational:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randint(-9, 9)

    return DivisorClass.make(MIXED, coeff(), [coeff() for _ in range(MIXED.r)])


def exceptional_sum(cfg: SurfaceConfig, i: int) -> DivisorClass:
    """E_i, the sum of the exceptional curves over the points on component i."""
    c = [0] * cfg.r
    c[i] = -1
    return DivisorClass.make(cfg, 0, c)


def test_gram_matrix():
    cfg = four_lines()
    h = DivisorClass.make(cfg, 1)
    e = exceptional_sum(cfg, 0)
    assert intersect(h, h) == 1
    assert intersect(e, e) == -1
    assert intersect(h, e) == 0
    assert intersect(h + e, h + e) == 0
    # E_i^2 = -n_i and distinct E_i are orthogonal
    for i, n in enumerate((4, 1, 9)):
        ei = exceptional_sum(MIXED, i)
        assert intersect(ei, ei) == -n
        assert intersect(DivisorClass.make(MIXED, 1), ei) == 0
    assert intersect(exceptional_sum(MIXED, 0), exceptional_sum(MIXED, 2)) == 0


def test_make_drops_zero_coefficients():
    d = DivisorClass.make(four_lines(), 2, [0, 3, 0, 5])
    assert d.c == (0, 3, 0, 0)
    assert d.n == (1, 1, 1, 0)
    assert MIXED.point_counts == (4, 1, 9, 0)
    with pytest.raises(ConfigError):
        DivisorClass.make(four_lines(), 2, [1, 2])
    with pytest.raises(ConfigError):
        intersect(DivisorClass.make(four_lines(), 1), DivisorClass.make(MIXED, 1))


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
    cfg = four_lines()
    assert DivisorClass.make(cfg, 2, [Fraction(4, 2), 0, 0, 0]).is_integral()
    assert not DivisorClass.make(cfg, Fraction(1, 2)).is_integral()
    assert not DivisorClass.make(cfg, 1, [Fraction(1, 3), 0, 0, 0]).is_integral()
    # no points on the free line, so its coefficient is dropped
    assert DivisorClass.make(cfg, 1, [0, 0, 0, Fraction(1, 3)]).is_integral()


def test_build_four_lines_shape():
    cfg = four_lines()
    assert cfg.r == 4
    assert [c.degree for c in cfg.components] == [1, 1, 1, 1]
    assert [c.paired for c in cfg.components] == [True, True, True, False]
    assert cfg.components[3].role == "hyperplane"
    points = list(cfg.blown_points())
    assert len(points) == 3
    assert not cfg.padded
    assert {ident for ident, _ in points} == {"P1.1", "P2.1", "P3.1"}


def test_build_padding():
    cfg = SurfaceConfig.build([2], [1], hyperplane=True)
    assert cfg.padded
    assert len([i for _, i in cfg.blown_points() if i == 0]) == 4
    cfg2 = SurfaceConfig.build([3], [3], hyperplane=False, allow_single_component=True)
    assert not cfg2.padded
    assert len(list(cfg2.blown_points())) == 9


def test_strict_transform_classes():
    cfg = four_lines()
    line = strict_transform(cfg, 0)
    assert line.h == 1 and line.c == (1, 0, 0, 0)
    hyp = strict_transform(cfg, 3)
    assert hyp.h == 1 and hyp.c == (0, 0, 0, 0)
    assert intersect(line, line) == 0
    assert intersect(hyp, hyp) == 1
    assert intersect(line, hyp) == 1
    with pytest.raises(ConfigError):
        strict_transform(cfg, 4)


def test_canonical_class_and_chi():
    cfg = four_lines()
    k = canonical_class(cfg)
    assert k.h == -3 and k.c == (-1, -1, -1, 0)
    assert intersect(k, k) == 9 - 3
    assert chi(cfg, DivisorClass.make(cfg, 0)) == 1
    # h^0 of degree d plane curves through no points
    for d in range(0, 6):
        assert chi(cfg, DivisorClass.make(cfg, d)) == (d + 1) * (d + 2) // 2
    assert chi(cfg, exceptional_sum(cfg, 0)) == 1
    # K^2 = 9 - (number of points), and chi(E_i) = 1 on any component
    assert intersect(canonical_class(MIXED), canonical_class(MIXED)) == 9 - 14
    for i in range(3):
        assert chi(MIXED, exceptional_sum(MIXED, i)) == 1


def test_chi_integral_on_random_integral_classes():
    cfg = four_lines()
    rng = random.Random(223)
    for case in (cfg, MIXED):
        for _ in range(800):
            d = DivisorClass.make(
                case, rng.randint(-8, 8), [rng.randint(-8, 8) for _ in range(case.r)]
            )
            value = chi(case, d)
            assert value.denominator == 1


def test_validation_errors():
    with pytest.raises(ConfigError):
        Component(degree=0)
    with pytest.raises(ConfigError):
        Component(degree=2, paired=True, pairing_degree=3)
    with pytest.raises(ConfigError):
        Component(degree=2, paired=False, pairing_degree=1)
    with pytest.raises(ConfigError, match="paired component degree 101 exceeds 100"):
        Component(degree=101, paired=True)
    assert Component(degree=100, paired=True).pairing_degree == 100
    assert Component(degree=1000).degree == 1000  # no points, so no cap
    good = Component(degree=1, paired=True)
    assert good.pairing_degree == 1

    with pytest.raises(ConfigError):
        SurfaceConfig(components=(), points=())
    comp = (Component(degree=1, paired=True),)
    # a point on no component is refused where points are read, in the decoder
    with pytest.raises(ConfigError, match="must lie on exactly one component"):
        SurfaceConfig.from_json_dict(
            {
                "components": [{"degree": 1, "paired": True}],
                "points": [{"id": "P", "on": []}],
            }
        )
    with pytest.raises(ConfigError):
        SurfaceConfig(components=comp, points=(("P", 0), ("P", 0)))
    with pytest.raises(ConfigError):
        SurfaceConfig(components=comp, points=(("P", 5),))
    # paired degree-1 component needs exactly one point
    with pytest.raises(ConfigError):
        SurfaceConfig(components=comp, points=())
    free = (Component(degree=1),)
    with pytest.raises(ConfigError):
        SurfaceConfig(components=free, points=(("P", 0),))


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


def test_documents_do_not_share_the_config_metadata():
    cfg = load_builtin("four-lines")
    cfg.to_json_dict()["metadata"]["realization"]["forms"][0] = "X^2"
    cert = certify(cfg, WeightedBoundary.make([4, 4, 4, 3]))
    cert.config_echo["metadata"]["realization"]["pairings"]["0"] = "Y"
    assert cfg == load_builtin("four-lines")
    assert realization_from_config(cfg) == realization_from_config(load_builtin("four-lines"))


def test_config_does_not_share_the_source_document_metadata():
    doc = load_builtin("four-lines").to_json_dict()
    cfg = SurfaceConfig.from_json_dict(doc)
    before = json.dumps(cfg.metadata, sort_keys=True)
    realization = realization_from_config(cfg)
    doc["metadata"]["realization"]["forms"][0] = "X^2"
    assert json.dumps(cfg.metadata, sort_keys=True) == before
    assert cfg == load_builtin("four-lines")
    assert realization_from_config(cfg) == realization


class _Dict(dict):
    pass


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(
        lambda n: st.sampled_from([n, -n])
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f\n\t\"\\", "déjà vu", "\u2028", "\U0001f600 emoji"]),
)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4).map(_Dict),
    ),
    max_leaves=30,
)


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(_TREES)
def test_dump_json_matches_json_dumps(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_dump_json_pins():
    for doc in [{}, [], (), {"a": [[], {}, ()]}, [{"": _Dict()}], "\x00é\U0001f600", 2**70]:
        assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match="^Object of type Fraction is not JSON serializable$"):
        dump_json({"x": [Fraction(1, 2)]})


def test_dump_json_leaves_no_reference_cycle():
    cfg = load_builtin("four-lines")
    doc = certify(cfg, WeightedBoundary.make([4, 4, 4, 3]), [7, 7, 7, 7]).to_json_dict()
    gc.collect()
    gc.disable()
    try:
        dump_json(doc)
        # a writer that is a closure calling itself leaves its cell and
        # chunk list for the cyclic collector
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_from_json_generates_points():
    doc = {
        "components": [
            {"degree": 2, "paired": True, "pairing_degree": 2},
            {"degree": 1, "paired": False, "role": "hyperplane"},
        ]
    }
    cfg = SurfaceConfig.from_json_dict(doc)
    points = list(cfg.blown_points())
    assert len(points) == 4
    assert points[0] == ("P1.1", 0)


def test_json_errors():
    with pytest.raises(ConfigError):
        SurfaceConfig.from_json("not json")
    with pytest.raises(ConfigError):
        SurfaceConfig.from_json("[1, 2]")
    with pytest.raises(ConfigError):
        SurfaceConfig.from_json_dict({"version": 99, "components": []})


def test_class_str():
    d = DivisorClass.make(four_lines(), 15, [4, -2, 0, 7])
    text = str(d)
    assert text == "15H - 4E1 + 2E2"


def test_config_flags_are_booleans_and_degrees_integers():
    doc = load_builtin("four-lines").to_json_dict()
    # bool("false") would certify no_three_meet, int(1.7) would read degree 1
    with pytest.raises(ConfigError, match="^no_three_meet must be bool, not 'false'$"):
        SurfaceConfig.from_json_dict({**doc, "no_three_meet": "false"})
    comps = [{**doc["components"][0], "degree": 1.7}, *doc["components"][1:]]
    with pytest.raises(ConfigError, match=r"^degree must be int, not 1\.7$"):
        SurfaceConfig.from_json_dict({**doc, "components": comps})
    for name in builtin_names():
        cfg = load_builtin(name)
        assert SurfaceConfig.from_json_dict(cfg.to_json_dict()) == cfg


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


def test_readme_config_example_is_the_bundled_four_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    cfg = SurfaceConfig.from_json(blocks[0])
    assert cfg.to_json() == load_builtin("four-lines").to_json()


def test_built_and_generated_points_serialize_identically():
    for degrees, pairings in (([1, 1, 1], [1, 1, 1]), ([2, 3], [1, 3]), ([4], [2])):
        built = SurfaceConfig.build(degrees, pairings, hyperplane=True, name="x")
        doc = {
            "name": "x",
            "components": [
                {"degree": d, "paired": True, "pairing_degree": b}
                for d, b in zip(degrees, pairings)
            ],
            "hyperplane": True,
        }
        assert SurfaceConfig.from_json_dict(doc).to_json() == built.to_json()


# -- generated points against the eager reference -------------------------------


def generate_points_reference(comps) -> tuple[tuple[tuple[str, int], ...], bool]:
    """The eager generator SurfaceConfig.build used to run: degree^2 points
    P<i+1>.<k+1> per paired component, and whether any pad."""
    points = []
    padded = False
    for i, comp in enumerate(comps):
        if comp.paired:
            padded = padded or comp.pairing_degree < comp.degree
            points.extend((f"P{i + 1}.{k + 1}", i) for k in range(comp.degree**2))
    return tuple(points), padded


def built_shapes():
    """Every list of one or two paired degrees 1-6 with every pairing degree,
    with and without the hyperplane."""
    pairs = [(d, b) for d in range(1, 7) for b in range(1, d + 1)]
    for size in (1, 2):
        for shape in itertools.product(pairs, repeat=size):
            for hyperplane in (True, False):
                yield [d for d, _ in shape], [b for _, b in shape], hyperplane


def test_built_points_match_the_eager_reference():
    shapes = 0
    for degrees, pairings, hyperplane in built_shapes():
        kwargs = {"name": "shape", "allow_single_component": True}
        built = SurfaceConfig.build(degrees, pairings, hyperplane=hyperplane, **kwargs)
        points, padded = generate_points_reference(built.components)
        eager = SurfaceConfig(
            components=built.components, points=points, padded=padded, **kwargs
        )
        assert tuple(built.blown_points()) == points
        assert built.points is None and eager.points is None
        assert built.padded == padded
        assert built.to_json_dict() == eager.to_json_dict()
        assert built.to_json() == eager.to_json()
        assert built == eager and eager == built
        assert SurfaceConfig.from_json(built.to_json()) == built
        shapes += 1
    assert shapes == 2 * (21 + 21 * 21)


def test_built_configs_compare_by_value():
    a = SurfaceConfig.build([2, 3], [1, 3])
    assert a == SurfaceConfig.build([2, 3], [1, 3])
    assert a != SurfaceConfig.build([2, 3], [2, 3])
    assert a != SurfaceConfig.build([2, 3], [1, 3], name="other")
    renamed = list(a.blown_points())
    renamed[0] = ("Q", 0)
    assert a != SurfaceConfig(components=a.components, points=tuple(renamed), padded=True)


def test_reordered_declared_points_keep_their_order():
    built = SurfaceConfig.build([2, 1], [1, 1])
    swapped = list(built.blown_points())
    swapped[0], swapped[1] = swapped[1], swapped[0]
    cfg = SurfaceConfig(components=built.components, points=tuple(swapped), padded=True)
    assert cfg != built and cfg.points == tuple(swapped)
    echo = cfg.to_json_dict()["points"]
    assert [p["id"] for p in echo][:3] == ["P1.2", "P1.1", "P1.3"]
    assert SurfaceConfig.from_json_dict(cfg.to_json_dict()) == cfg


def test_replace_keeps_a_generated_list_generated():
    # replace used to read the generated list back as degree^2 declared points
    for cfg in (SurfaceConfig.build([100], [7]), load_builtin("four-lines")):
        single = replace(cfg, allow_single_component=True)
        assert cfg.points is None and single.points is None
        assert replace(single, allow_single_component=False) == cfg


class ReadCounter:
    """Counts SurfaceConfig.blown_points calls."""

    def __init__(self, monkeypatch):
        self.count = 0
        read = SurfaceConfig.blown_points

        def counted(cfg):
            self.count += 1
            return read(cfg)

        monkeypatch.setattr(SurfaceConfig, "blown_points", counted)


def test_build_and_report_construct_no_blown_point(monkeypatch):
    counter = ReadCounter(monkeypatch)
    slacks = set()
    certified = 0
    shapes = (([1, 1, 1], [1, 1, 1]), ([2, 3, 4], [1, 3, 2]), ([6, 5, 1], [6, 1, 1]))
    for degrees, pairings in shapes:
        cfg = SurfaceConfig.build(degrees, pairings, hyperplane=True)
        base = proportional_weights(cfg).weights
        for weights in (base, [3 * w - 1 for w in base], [1] * cfg.r):
            wb = WeightedBoundary.make(weights)
            slacks.add(build_report(cfg, wb).slack is not None)
            assert counter.count == certified
            certify(cfg, wb)
            certified += 1
            # the certificate echoes the config, points included, once
            assert counter.count == certified
    outcomes = [_boundary_sample(_sample_rng("boundary", 1, i), 6, 300) for i in range(60)]
    assert slacks == {True, False}
    assert {"passes", "not_ample"} <= {key for keys in outcomes for key in keys}
    assert counter.count == certified == 9
    # the counter sees a read
    assert len(list(cfg.blown_points())) == 36 + 25 + 1
    assert counter.count == certified + 1
