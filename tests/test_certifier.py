"""End-to-end certification on the bundled configs plus exact benchmark values."""

import dataclasses
import hashlib
import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert import certifier, quadext, sampling
from orbicert.catalog import builtin_names, load_builtin
from orbicert.certifier import (
    Certificate,
    build_report,
    certify,
    checklist_holds,
    decode_multiplicity,
    decode_number,
    encode_multiplicity,
    encode_number,
    weight_slack,
)
from orbicert.cli import main
from orbicert.lattice import ConfigError, InternalError, SurfaceConfig
from orbicert.positivity import WeightedBoundary, ample_sufficient
from orbicert.quadext import QuadExt, compare_cross, rational_below
from test_decision import json_configs, rational_weights
from test_quadext import min_root_quadratic

FOUR_LINES = load_builtin("four-lines")
WEIGHTS = WeightedBoundary.make([4, 4, 4, 3])


def test_builtin_catalog():
    assert "four-lines" in builtin_names()
    assert "plane-one-line" in builtin_names()
    with pytest.raises(ConfigError):
        load_builtin("no-such-config")


def test_four_lines_exact_numbers():
    report = build_report(FOUR_LINES, WEIGHTS)
    assert report.dp_square == 177
    for check in report.components[:3]:
        assert check.self_square == 0
        assert check.dp_pairing == 11
        assert check.truncation_root == QuadExt(Fraction(177, 22))
        assert check.volume_ratio == QuadExt(Fraction(1947, 484))
        assert check.inequality_holds and check.exceeds_weight
    hyp = report.components[3]
    assert hyp.self_square == 1
    assert hyp.dp_pairing == 15
    assert hyp.truncation_root == QuadExt(15, -4, 3)
    assert hyp.volume_ratio == QuadExt(Fraction(135, 59), Fraction(128, 177), 3)
    assert hyp.inequality_holds and hyp.exceeds_weight
    assert report.slack is not None
    assert report.slack.is_rational
    assert report.slack.as_fraction() == Fraction(1, 176)
    assert report.slack_lower == Fraction(1, 176)


def test_four_lines_certificate():
    cert = certify(FOUR_LINES, WEIGHTS)
    assert cert.overall == "pass"
    assert cert.first_failure is None
    statuses = {h.name: h.status for h in cert.hypotheses}
    assert statuses == {
        "component_count": "pass",
        "no_three_meet": "pass",
        "pairing_points_generic": "assumed",
        "ampleness": "pass",
        "filtration_inequality": "pass",
        "volume_ratio_exceeds_weight": "pass",
        "slack_positive": "pass",
    }
    assert cert.constants is None and cert.orbifold is None
    assert all(m == math.inf for m in cert.multiplicities)


def test_certificate_json_round_trip():
    cert = certify(FOUR_LINES, WEIGHTS, [1500000, 1500000, 1500000, 1500000])
    text = cert.to_json()
    back = Certificate.from_json(text)
    assert back.to_json() == text
    assert back.slack_lower == Fraction(1, 176)
    assert back.components[3].truncation_root == QuadExt(15, -4, 3)
    with pytest.raises(ConfigError):
        Certificate.from_json('{"version": 99}')


def test_certificate_missing_keys_are_config_errors():
    with pytest.raises(ConfigError, match="missing key 'components'"):
        Certificate.from_json('{"version": 1}')
    doc = json.loads(certify(FOUR_LINES, WEIGHTS).to_json())
    del doc["components"][0]["self_square"]
    with pytest.raises(ConfigError, match="missing key 'self_square'"):
        Certificate.from_json_dict(doc)
    with pytest.raises(ConfigError):
        Certificate.from_json("[1]")
    with pytest.raises(ConfigError):
        Certificate.from_json("{not json")


def test_plane_one_line_fails_filtration():
    cfg = load_builtin("plane-one-line")
    cert = certify(cfg, WeightedBoundary.make(["1"]))
    assert cert.overall == "fail"
    assert cert.first_failure == "filtration_inequality"
    statuses = {h.name: h.status for h in cert.hypotheses}
    assert statuses["component_count"] == "waived"
    assert statuses["ampleness"] == "pass"
    assert cert.components[0].truncation_root == QuadExt(1)


def test_no_three_meet_flag_fails():
    cfg = SurfaceConfig.build([1, 1, 1], [1, 1, 1], hyperplane=True, no_three_meet=False)
    cert = certify(cfg, WEIGHTS)
    assert cert.overall == "fail"
    assert cert.first_failure == "no_three_meet"


def test_checklist_holds_builds_no_pairing_record(monkeypatch):
    # the integer rule reads a, h and S; the lattice ampleness test and the
    # square-root split are build_report's
    cases = [
        ([4, 4, 4, 3], True),
        ([50, 1, 1, 1], False),
        ([Fraction(9, 2), Fraction(9, 2), Fraction(9, 2), Fraction(7, 2)], True),
    ]
    reports = [build_report(FOUR_LINES, WeightedBoundary.make(w)) for w, _ in cases]

    def refuse(*args):
        raise AssertionError("checklist_holds ran a report's computation")

    monkeypatch.setattr(certifier, "ample_sufficient", refuse)
    monkeypatch.setattr(quadext, "sqrt_parts", refuse)
    for (weights, want), report in zip(cases, reports):
        assert checklist_holds(FOUR_LINES, WeightedBoundary.make(weights)) is want
        assert all(c.inequality_holds for c in report.components) is want


def test_square_zero_goes_inconclusive():
    cfg = SurfaceConfig.build([2], [2], hyperplane=False, allow_single_component=True)
    cert = certify(cfg, WeightedBoundary.make([1]))
    assert cert.overall == "inconclusive"
    assert cert.first_failure is None
    statuses = {h.name: h.status for h in cert.hypotheses}
    assert statuses["component_count"] == "waived"
    assert statuses["ampleness"] == "inconclusive"
    assert statuses["filtration_inequality"] == "skipped"
    assert cert.slack is None


def test_encode_decode_numbers():
    doc = encode_number(Fraction(1947, 484))
    assert doc == {"kind": "rational", "value": "177/44", "tag": "exact-rational"}
    assert decode_number(doc) == Fraction(1947, 484)

    doc = encode_number(QuadExt(15, -4, 3))
    assert doc["kind"] == "quadratic"
    assert doc["tag"] == "exact-quadratic"
    assert decode_number(doc) == QuadExt(15, -4, 3)

    doc = encode_number(QuadExt(Fraction(5, 3)), tag="lower-bound")
    assert doc == {"kind": "rational", "value": "5/3", "tag": "lower-bound"}


def test_encode_decode_multiplicity():
    assert encode_multiplicity(math.inf) == "inf"
    assert encode_multiplicity(12) == 12
    assert decode_multiplicity("inf") == math.inf
    assert decode_multiplicity(None) == math.inf
    assert decode_multiplicity("7") == 7
    with pytest.raises(ConfigError):
        decode_multiplicity("0")


def test_certify_with_finite_multiplicities():
    cert = certify(FOUR_LINES, WEIGHTS, [1500000, 1500000, 1500000, 1500000])
    assert cert.overall == "pass"
    assert cert.constants is not None
    assert cert.constants["N"] == 21
    assert cert.orbifold is not None
    assert cert.orbifold["multiplicity_threshold"] == 1458913
    assert cert.orbifold["given_multiplicities_meet_threshold"] is True
    assert cert.orbifold["orbifold_canonical_big"] is True

    low = certify(FOUR_LINES, WEIGHTS, [5, 5, 5, 5])
    assert low.orbifold["given_multiplicities_meet_threshold"] is False

    bare = certify(
        FOUR_LINES, WEIGHTS, [1500000] * 4, include_constants=False
    )
    assert bare.constants is None and bare.orbifold is None


def test_certify_multiplicity_validation():
    with pytest.raises(ConfigError):
        certify(FOUR_LINES, WEIGHTS, [2, 2])
    with pytest.raises(ConfigError):
        certify(FOUR_LINES, WEIGHTS, [0, 2, 2, 2])


def with_components(report, components):
    """The report with its component records replaced; its verdicts stay."""
    return replace(report, make_components=lambda: components)


def test_weight_slack_empty_report_rejected():
    report = build_report(FOUR_LINES, WEIGHTS)

    with pytest.raises(ConfigError):
        weight_slack(with_components(report, ()))


def test_weight_slack_of_a_failing_report():
    # the last line of (1, 1, 1, 1) falls short by an irrational amount
    report = build_report(FOUR_LINES, WeightedBoundary.make([1, 1, 1, 1]))
    assert report.slack is None
    slack, lower = weight_slack(report)
    assert slack.sign() < 0 and not slack.is_rational
    assert QuadExt(lower) < slack < QuadExt(lower * (1 - Fraction(1, 2**30)))


def slack_gap_reference(slack: QuadExt) -> Fraction:
    """The loop weight_slack used to run: halve 1 while it is at least |slack|."""
    size = slack if slack.sign() > 0 else -slack
    gap = Fraction(1)
    while compare_cross(gap, size) >= 0:
        gap /= 2
    return gap / 2**40


@st.composite
def irrational_slacks(draw) -> QuadExt:
    """(a + b sqrt(delta)) / 2^e, of either sign, from far above 1 down to 2^-80."""
    a = draw(st.fractions(min_value=-1000, max_value=1000, max_denominator=50))
    b = draw(st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool))
    delta = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 13, 15, 1001, 2 * 3 * 5 * 7 * 11 * 13]))
    return QuadExt(a, b, delta) / 2 ** draw(st.integers(0, 80))


def report_with_slack(slack: QuadExt):
    """A report whose one component at weight 1 has ratio 1 + slack."""
    report = build_report(FOUR_LINES, WEIGHTS)
    check = replace(report.components[0], weight=Fraction(1), volume_ratio=slack + 1)
    return with_components(report, (check,))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(irrational_slacks())
def test_slack_lower_bound_matches_the_gap_halving_loop(slack):
    assert not slack.is_rational
    got, lower = weight_slack(report_with_slack(slack))
    assert got == slack
    assert lower == rational_below(slack, slack_gap_reference(slack))


def test_slack_gap_at_powers_of_two():
    # sqrt(2) - 1 < 1/2 < 2 - sqrt(2) < 1 < sqrt(2) < 3 + sqrt(5), each scaled
    # by powers of two and of either sign
    for slack in (QuadExt(0, 1, 2), QuadExt(-1, 1, 2), QuadExt(2, -1, 2), QuadExt(3, 1, 5)):
        for e in range(0, 12):
            for sign in (1, -1):
                x = sign * slack / 2**e
                assert weight_slack(report_with_slack(x))[1] == rational_below(
                    x, slack_gap_reference(x)
                )


def stated_inequality(report, check) -> bool:
    """2 D_p^2 x > (D_p . D_i) x^2 + 3 D_p^2 p_i at the truncation root x.

    The filtration inequality as stated, evaluated in QuadExt on the
    report's own numbers, apart from both verdicts build_report compares.
    """
    x = check.truncation_root
    dp2 = report.dp_square
    return 2 * dp2 * x > check.dp_pairing * x * x + 3 * dp2 * check.weight


def test_report_invariants_random_weights():
    rng = random.Random(411)
    for _ in range(150):
        wb = WeightedBoundary.make([rng.randint(1, 30) for _ in range(4)])
        report = build_report(FOUR_LINES, wb)
        assert report.ample.certified
        for check in report.components:
            assert check.exceeds_weight == stated_inequality(report, check)
        if all(c.inequality_holds for c in report.components):
            assert report.slack is not None
            for check in report.components:
                rel = (check.volume_ratio - check.weight) / check.weight
                assert compare_cross(report.slack, rel) <= 0
            assert QuadExt(report.slack_lower) <= report.slack or (
                report.slack.is_rational
                and report.slack_lower == report.slack.as_fraction()
            )
        else:
            assert report.slack is None


def assert_slack_follows_the_rule(report) -> None:
    """slack and slack_lower are weight_slack(report) exactly when ampleness
    is certified and every component holds, and both None otherwise."""
    passing = (
        report.ample.certified
        and bool(report.components)
        and all(c.inequality_holds for c in report.components)
    )
    if not passing:
        assert report.slack is None and report.slack_lower is None
        return
    slack, lower = weight_slack(report)
    assert repr(report.slack) == repr(slack)
    assert report.slack_lower == lower and type(report.slack_lower) is Fraction


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32), st.booleans())
def test_slack_is_computed_on_first_read_by_the_rule(seed, candidate):
    rng = random.Random(seed)
    if candidate:
        cfg, wb = sampling.random_passing_candidate(rng, max_degree=4, bound=50)
    else:
        cfg = sampling.random_config(rng, max_degree=4)
        wb = sampling.random_weights(rng, cfg, bound=50)
    report = build_report(cfg, wb)
    assert_slack_follows_the_rule(report)
    if not report.components:
        return
    # a replaced report computes its own pair, whatever the source has cached
    first = with_components(report, report.components[:1])
    assert_slack_follows_the_rule(first)
    last = report.components[-1]
    flipped = report.components[:-1] + (replace(last, inequality_holds=False),)
    assert with_components(report, flipped).slack is None
    assert_slack_follows_the_rule(with_components(report, ()))


def test_build_report_never_computes_the_slack(monkeypatch):
    def refuse(report):
        raise AssertionError("weight_slack called")

    monkeypatch.setattr(certifier, "weight_slack", refuse)
    report = build_report(FOUR_LINES, WEIGHTS)
    assert all(c.inequality_holds for c in report.components)
    with pytest.raises(AssertionError, match="weight_slack called"):
        report.slack


def components_config(*components) -> SurfaceConfig:
    """A config from (degree, paired) pairs."""
    return SurfaceConfig.from_json_dict(
        {"components": [{"degree": d, "paired": p} for d, p in components]}
    )


# two paired lines, so S = w1^2 + w2^2, beside an unpaired conic and cubic
TWO_UNPAIRED = components_config((1, True), (1, True), (2, False), (3, False))


def test_build_report_splits_each_irrational_root_once(monkeypatch):
    # sqrt(S) is split at most once per report, however many roots use it,
    # and the integer checklist decision splits nothing
    calls = []
    split = quadext._square_split
    monkeypatch.setattr(quadext, "_square_split", lambda n: calls.append(n) or split(n))
    cases = [(FOUR_LINES, w) for w in ([4, 4, 4, 3], [50, 1, 1, 1], [4001, 4003, 4007, 3002])]
    cases += [(TWO_UNPAIRED, [4, 5, 1, 1]), (TWO_UNPAIRED, [Fraction(7, 2), 5, 2, 1])]
    for cfg, weights in cases:
        wb = WeightedBoundary.make(weights)
        calls.clear()
        checklist_holds(cfg, wb)
        assert calls == [], (weights, calls)
        report = build_report(cfg, wb)
        irrational = sum(not c.truncation_root.is_rational for c in report.components)
        assert irrational >= (2 if cfg is TWO_UNPAIRED else 1)
        assert len(calls) <= 1, (weights, calls)


# -- closed-form roots and ratios against the generic root solver -------------------


def assert_closed_forms_match_reference(cfg: SurfaceConfig, weights) -> None:
    """The report's truncation roots and volume ratios, field by field and
    type by type, against min_root_quadratic and the stated ratio formula
    in QuadExt; an uncertified report has no components."""
    report = build_report(cfg, WeightedBoundary.make(weights))
    assert len(report.components) == (cfg.r if report.ample.certified else 0)
    dp2 = report.dp_square
    for i, c in enumerate(report.components):
        x = min_root_quadratic(c.self_square, c.dp_pairing, dp2)
        ratio = (Fraction(2, 3) * x * dp2 - Fraction(1, 3) * c.dp_pairing * x * x) / dp2
        for got, want in ((c.truncation_root, x), (c.volume_ratio, ratio)):
            fields = (got.a, got.b, got.delta)
            assert fields == (want.a, want.b, want.delta), (cfg.components, weights, i)
            assert tuple(map(type, fields)) == (Fraction, Fraction, int)


@st.composite
def pairing_cases(draw):
    """Configs of 1-4 components of degree 1-6, paired or not, with integer
    or rational weights."""
    cfg = components_config(*draw(st.lists(
        st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=4
    )))
    weight = draw(st.sampled_from([
        st.integers(1, 60),
        st.fractions(min_value=Fraction(1, 6), max_value=60, max_denominator=6),
    ]))
    return cfg, draw(st.lists(weight, min_size=cfg.r, max_size=cfg.r))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(pairing_cases())
def test_closed_forms_match_reference(case):
    assert_closed_forms_match_reference(*case)


@pytest.mark.parametrize(
    "cfg, weights",
    [
        (FOUR_LINES, [4, 4, 4, 3]),
        (FOUR_LINES, [Fraction(9, 2), 4, Fraction(11, 3), 3]),
        (TWO_UNPAIRED, [4, 5, 1, 1]),
        # one paired component: S = (w d)^2 is a perfect square
        (components_config((2, True), (2, False), (3, False)), [5, 2, 3]),
        (components_config((3, True), (1, False)), [Fraction(5, 3), 2]),
        # no paired component: S = 0
        (components_config((1, False), (2, False), (5, False)), [1, 2, 3]),
        (components_config((4, False), (6, False)), [Fraction(1, 2), Fraction(7, 5)]),
        # a lone paired component: D_p^2 = 0 and D_p . D_i = 0
        (components_config((3, True)), [2]),
    ],
    ids=["four-lines", "four-lines-rational", "two-unpaired", "square-S",
         "square-S-rational", "zero-S", "zero-S-rational", "zero-D"],
)
def test_closed_forms_on_edge_cases(cfg, weights):
    assert_closed_forms_match_reference(cfg, weights)


# -- component records built on first read, against the eager loop ------------------


def reference_records(cfg: SurfaceConfig, wb: WeightedBoundary) -> tuple:
    """The component records as one eager loop over a, h, S and the sqrt(S)
    split builds them, the way build_report once did; () when ampleness is
    not certified."""
    if not ample_sufficient(cfg, wb).certified:
        return ()
    a, h, sq = certifier._sums(cfg, wb.weights)
    dp2 = h * h - sq
    split = quadext.sqrt_parts(sq)
    surd = certifier._surd
    records = []
    for i, (w, ai, comp) in enumerate(zip(wb.weights, a, cfg.components)):
        d = comp.degree
        dpdi, di2 = (d * (h - ai), 0) if comp.paired else (d * h, d * d)
        if comp.paired:
            root = surd(dp2, 0, 2 * dpdi, split)
            ratio = surd(dp2, 0, 4 * dpdi, split)
        else:
            root = surd(h, -1, d, split)
            ratio = surd(h * (dp2 - 2 * sq), 2 * sq, 3 * dp2 * d, split)
        weight = Fraction(w)
        records.append(
            certifier.ComponentCheck(
                index=i,
                degree=d,
                weight=weight,
                self_square=Fraction(di2),
                dp_pairing=Fraction(dpdi),
                truncation_root=root,
                inequality_holds=certifier._component_holds(h, sq, ai, comp.paired),
                volume_ratio=ratio,
                exceeds_weight=ratio > weight,
            )
        )
    return tuple(records)


def exact_fields(value) -> tuple:
    """A value with its type, and a QuadExt's a, b and delta with theirs."""
    if isinstance(value, QuadExt):
        return (QuadExt,) + tuple((type(x), x) for x in (value.a, value.b, value.delta))
    return type(value), value


def assert_records_match_reference(cfg: SurfaceConfig, wb: WeightedBoundary) -> None:
    """Every record equals the reference field by field and type by type,
    the pass verdict is what the records say, and a second read returns
    the cached tuple."""
    report = build_report(cfg, wb)
    want = reference_records(cfg, wb)
    got = report.components
    assert report.components is got
    assert type(got) is tuple and len(got) == len(want)
    if not report.ample.certified:
        assert got == () and report.passes is False
    assert report.passes == (bool(got) and all(c.inequality_holds for c in got))
    for g, w in zip(got, want):
        for f in dataclasses.fields(certifier.ComponentCheck):
            assert exact_fields(getattr(g, f.name)) == exact_fields(getattr(w, f.name)), (
                cfg.components, wb.weights, g.index, f.name
            )


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32), st.booleans())
def test_records_match_the_eager_loop_on_sampled_draws(seed, candidate):
    rng = random.Random(seed)
    if candidate:
        cfg, wb = sampling.random_passing_candidate(rng, max_degree=4, bound=50)
    else:
        cfg = sampling.random_config(rng, max_degree=4)
        wb = sampling.random_weights(rng, cfg, bound=50)
    assert_records_match_reference(cfg, wb)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_records_match_the_eager_loop_on_json_configs(data):
    # an unpaired conic or cubic beside paired curves, integer or rational weights
    cfg = data.draw(json_configs())
    assert_records_match_reference(cfg, data.draw(rational_weights(cfg)))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(pairing_cases())
def test_records_match_the_eager_loop_on_pairing_cases(case):
    cfg, weights = case
    assert_records_match_reference(cfg, WeightedBoundary.make(weights))


@pytest.mark.parametrize(
    "cfg, weights",
    [
        (FOUR_LINES, [4, 4, 4, 3]),
        (FOUR_LINES, [1, 1, 1, 1]),
        (FOUR_LINES, [Fraction(9, 2), Fraction(9, 2), Fraction(9, 2), Fraction(7, 2)]),
        (FOUR_LINES, [Fraction(9, 2), 4, Fraction(11, 3), 3]),
        (TWO_UNPAIRED, [4, 5, 1, 1]),
        (TWO_UNPAIRED, [Fraction(7, 2), 5, 2, 1]),
        (components_config((1, True), (1, True), (1, True), (2, False)), [5, 5, 5, 2]),
        (components_config((1, True), (2, True), (3, False)), [12, 6, Fraction(3, 2)]),
        # every component paired: ampleness is not certified, so no record
        (components_config((1, True), (1, True), (2, True)), [3, 5, 7]),
    ],
    ids=["four-lines", "four-lines-failing", "four-lines-halves", "four-lines-rational",
         "two-unpaired", "two-unpaired-rational", "lines-and-conic", "unpaired-cubic",
         "all-paired"],
)
def test_records_match_the_eager_loop_on_edge_cases(cfg, weights):
    assert_records_match_reference(cfg, WeightedBoundary.make(weights))


def test_uncertified_report_has_no_records():
    cfg = components_config((1, True), (1, True), (2, True))
    report = build_report(cfg, WeightedBoundary.make([3, 5, 7]))
    assert not report.ample.certified and report.passes is False
    assert report.components == () and report.components is report.components
    assert report.slack is None and report.slack_lower is None


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
@pytest.mark.parametrize(
    "cfg, want",
    [
        (components_config((1, True), (1, True), (2, True)), False),
        (load_builtin("plane-one-line"), True),
        (components_config((1, True), (1, True), (1, False), (1, False)), True),
    ],
    ids=["all-paired", "plane-one-line", "two-paired-two-unpaired"],
)
def test_closed_form_ampleness_matches_the_lattice_test(cfg, want, rational):
    # D_p^2 > 0 is not tested: an unpaired component implies it
    weights = [Fraction(2 * i + 3, 2 if rational else 1) for i in range(cfg.r)]
    wb = WeightedBoundary.make(weights)
    closed_form = certifier._ample(cfg)
    assert closed_form == ample_sufficient(cfg, wb).certified == want


def test_certify_large_weights_with_multiplicities(tmp_path, capsys):
    # the constants chain takes rational bounds of a ratio whose radicand,
    # cleared of denominators, is far too large to factor by trial division
    out = tmp_path / "cert.json"
    start = time.perf_counter()
    code = main([
        "certify", "--builtin", "four-lines",
        "--weights", "4001,4003,4007,3002",
        "--multiplicities", "1000,1000,1000,1000",
        "--out", str(out),
    ])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 10.0
    # byte for byte the certificate that the square-root trial-division
    # arithmetic wrote, in about three minutes
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "00bfbf87f31db4bf2c02ca53f60aad22544e3d30b71ad7a4b9fc8a01891043c4"


def test_cross_checks_raise_internal_errors(monkeypatch, capsys):
    monkeypatch.setattr(certifier, "_component_holds", lambda *args: False)
    with pytest.raises(InternalError, match="component 0"):
        build_report(FOUR_LINES, WEIGHTS)
    monkeypatch.undo()

    real_ample = certifier._ample
    monkeypatch.setattr(certifier, "_ample", lambda cfg: not real_ample(cfg))
    with pytest.raises(InternalError, match="ampleness"):
        build_report(FOUR_LINES, WEIGHTS)
    # the command line reports it in one line with its own exit code
    assert main(["certify", "--builtin", "four-lines"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: closed-form ampleness")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
