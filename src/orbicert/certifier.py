"""Hyperbolicity hypothesis certificates for weighted boundary divisors.

The certified statement takes a blown-up plane with boundary components
D_1..D_r, positive integer weights p, and checks, in exact arithmetic:

* at least two boundary components, no three meeting at a point;
* the weighted divisor D_p = sum(p_i * D_i) passes the sufficient
  ampleness test;
* for every component, the filtration inequality
  2 * D_p^2 * x > (D_p . D_i) * x^2 + 3 * D_p^2 * p_i holds at the
  truncation root x of D_i^2 * x^2 - 2 (D_p . D_i) x + D_p^2;
* every volume-ratio lower bound exceeds its weight, with positive slack.

Roots and ratios are closed forms in h = sum(p_i d_i), S = the paired
square and D = D_p^2 = h^2 - S: a paired component has x = D / (2 D_p.D_i)
and ratio x/2, an unpaired one of degree d has x = (h - sqrt(S)) / d and
ratio (h (D - 2S) + 2 S sqrt(S)) / (3 D d).  build_report computes them
from h and S alone, and the report is the one record of the pairings.  A
certified D_p has an unpaired component, so sqrt(S) is split exactly once
per certified report, and never for an uncertified one or checklist_holds.
The report's verdicts, volume ratios and cross-checks are decided eagerly;
its per-component records, truncation roots included, are built from the
same a, h, S and split on first read.

Each check lands in a Certificate with a named pass/fail/inconclusive
status, exact values (rational or quadratic) and a serialization that
round-trips byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from fractions import Fraction
from math import floor
from typing import Callable, Mapping, Sequence

from . import __version__ as _tool_version
from .lattice import Coeff, Component, ConfigError, InternalError, SurfaceConfig
from .lattice import _typed, dump_json, load_json, malformed
from .lattice import intersect  # noqa: F401  importable from here; bench/test_bench.py relies on it
from .orbifold import ample_twist_threshold
from .positivity import (
    INF,
    Multiplicity,
    Verdict,
    WeightedBoundary,
    ample_sufficient,
    check_multiplicities,
    check_multiplicity,
    orbifold_canonical_big,
)
from . import quadext
from .quadext import QuadExt, rational_below

CERTIFICATE_FORMAT_VERSION = 1

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
WAIVED = "waived"
ASSUMED = "assumed"
SKIPPED = "skipped"

_BLOCKING = {FAIL: 2, INCONCLUSIVE: 1, SKIPPED: 1}


@dataclass(frozen=True)
class Hypothesis:
    name: str
    status: str
    detail: str = ""


@dataclass(frozen=True)
class ComponentCheck:
    """Exact per-component record for the filtration argument."""

    index: int
    degree: int
    weight: Fraction
    self_square: Fraction
    dp_pairing: Fraction
    truncation_root: QuadExt
    inequality_holds: bool
    volume_ratio: QuadExt
    exceeds_weight: bool


@dataclass(frozen=True)
class BoundaryReport:
    """Ampleness and the per-component checks of one weighted boundary.

    The verdicts are decided when the report is built: ample, and passes,
    which is True when ampleness is certified and every filtration
    inequality holds.  The component records are built on first read of
    components, by make_components, and are () when ampleness is not
    certified.  The slack and its rational lower bound are computed on
    first read too, as weight_slack(self) when ampleness is certified and
    every record's inequality holds, and are both None otherwise; a slack
    that is not positive then is an InternalError.  Callers that read only
    the verdicts, as stress --suite boundary does, never build a record or
    a slack.
    """

    dp_square: Fraction
    ample: Verdict
    passes: bool
    make_components: Callable[[], tuple[ComponentCheck, ...]] = field(
        repr=False, compare=False
    )

    @cached_property
    def components(self) -> tuple[ComponentCheck, ...]:
        return self.make_components()

    @cached_property
    def _slack_pair(self) -> tuple[QuadExt | None, Fraction | None]:
        holds = [c.inequality_holds for c in self.components]
        if not (self.ample.certified and holds and all(holds)):
            return None, None
        slack, lower = weight_slack(self)
        # every ratio exceeds its weight, so the least margin is positive
        if slack.sign() <= 0:
            raise InternalError(f"a passing report has slack {slack}")
        return slack, lower

    @property
    def slack(self) -> QuadExt | None:
        return self._slack_pair[0]

    @property
    def slack_lower(self) -> Fraction | None:
        return self._slack_pair[1]


def _sums(cfg: SurfaceConfig, weights: Sequence[Coeff]) -> tuple[list, Coeff, Coeff]:
    """a_i = w_i d_i, h = sum(a) and S = the sum of a_i^2 over paired components."""
    a = [w * c.degree for w, c in zip(weights, cfg.components)]
    return a, sum(a), sum(x * x for x, c in zip(a, cfg.components) if c.paired)


def _component_holds(h: Coeff, s: Coeff, a: Coeff, paired: bool) -> bool:
    """The filtration inequality of a component with a = p_i d_i, h and S = s
    as in _sums, without square roots: the one integer statement of the rule.

    A paired component has the linear root x = D_p^2 / (2 D_p.D_i), and the
    inequality reduces to h^2 - S > 4 (h - a) a.  An unpaired one has
    x = (h - sqrt(S)) / d when D_p^2 = h^2 - S > 0, and the inequality
    reduces to sqrt(S) u > 2 S - h u with u = h - 3 a, which one squaring
    decides; it fails whenever h^2 <= S.  Rational weights give the same
    exact verdict in Fractions.
    """
    if paired:
        return h * h - s > 4 * (h - a) * a
    u = h - 3 * a
    if h * h <= s or u <= 0:
        return False
    rhs = 2 * s - h * u
    return rhs < 0 or s * u * u > rhs * rhs


def _orbit_sums(
    kinds: Sequence[tuple[int, bool]], tuples: Sequence[Sequence[int]]
) -> tuple[int, int]:
    """h and S of _sums for weights given as one tuple per group of
    components, kinds[g] being group g's (degree, paired)."""
    h = s = 0
    for (d, paired), ws in zip(kinds, tuples):
        for w in ws:
            a = w * d
            h += a
            if paired:
                s += a * a
    return h, s


def _ample(cfg: SurfaceConfig) -> bool:
    # the sufficient test on D_p: every exceptional pairing is a positive
    # weight, and the Bezout residue is the degree on unpaired components.
    # D_p^2 > 0 then follows (the lemma in ample_class_sufficient)
    return not all(c.paired for c in cfg.components)


def checklist_holds(cfg: SurfaceConfig, wb: WeightedBoundary) -> bool:
    """Ampleness is certified and every filtration inequality holds.

    Decided by _ample and _component_holds from a, h and S alone, in
    integers (exact rationals for rational weights), with no pairing
    record and no QuadExt value; build_report reaches the same verdict
    through the exact volume ratios.
    """
    wb.check_against(cfg)
    a, h, s = _sums(cfg, wb.weights)
    return _ample(cfg) and all(
        _component_holds(h, s, ai, c.paired) for ai, c in zip(a, cfg.components)
    )


def weight_slack(report: BoundaryReport) -> tuple[QuadExt, Fraction]:
    """Minimum of (ratio - weight)/weight plus a rational lower bound.

    The minimum is taken with exact cross-field comparisons.  The rational
    bound equals the minimum when it is rational; otherwise it is an
    even-index continued fraction convergent, hence strictly below.
    """
    if not report.components:
        raise ConfigError("empty component list")
    slack = min((c.volume_ratio - c.weight) / c.weight for c in report.components)
    if slack.is_rational:
        return slack, slack.as_fraction()
    # a report with a failing component has a negative slack.  The gap is
    # 2^-40 times the largest 2^-k (k >= 0) below |slack|: 1/|slack| is
    # irrational, so 2^k > 1/|slack| exactly when 2^k > floor(1/|slack|)
    size = slack if slack.sign() > 0 else -slack
    k = floor(1 / size).bit_length()
    return slack, rational_below(slack, Fraction(1, 2 ** (k + 40)))


def _surd(a: Coeff, b: Coeff, den: Coeff, split: tuple[Coeff, int]) -> QuadExt:
    """(a + b sqrt(S)) / den in canonical form, given split = (s, f) with
    sqrt(S) = s sqrt(f) and f squarefree."""
    s, f = split
    if b and f != 1:
        return quadext._make(Fraction(a, den), Fraction(b * s, den), f)
    return quadext._make(Fraction(a + b * s, den), quadext._ZERO, 0)


def _root(
    h: Coeff, dp2: Coeff, dpdi: Coeff, comp: Component, split: tuple[Coeff, int]
) -> QuadExt:
    """The truncation root: D_p^2 / (2 D_p.D_i) on a paired component and
    (h - sqrt(S)) / d on an unpaired one."""
    if comp.paired:
        return _surd(dp2, 0, 2 * dpdi, split)
    return _surd(h, -1, comp.degree, split)


def _records(
    cfg: SurfaceConfig,
    weights: Sequence[Coeff],
    h: Coeff,
    dp2: Coeff,
    split: tuple[Coeff, int],
    checks: list[tuple[Coeff, QuadExt, bool]],
) -> tuple[ComponentCheck, ...]:
    """The component records of a certified report, from the h, D_p^2 and
    sqrt(S) split that build_report decided it with, and its
    (D_p . D_i, volume ratio, verdict) per component."""
    return tuple(
        ComponentCheck(
            index=i,
            degree=comp.degree,
            weight=Fraction(w),
            self_square=Fraction(0 if comp.paired else comp.degree * comp.degree),
            dp_pairing=Fraction(dpdi),
            truncation_root=_root(h, dp2, dpdi, comp, split),
            inequality_holds=ok,
            volume_ratio=ratio,
            exceeds_weight=ok,
        )
        for i, (w, comp, (dpdi, ratio, ok)) in enumerate(zip(weights, cfg.components, checks))
    )


def build_report(cfg: SurfaceConfig, wb: WeightedBoundary) -> BoundaryReport:
    """Evaluate ampleness and all per-component checks once.

    A valid config puts every blown point on exactly one paired component,
    d_i^2 points on a paired component of degree d_i.  So D_i . D_j = d_i d_j
    for i != j, and with a, h and S as in _sums, D_p^2 = h^2 - S, while
    D_p . D_i = d_i (h - a_i) and D_i^2 = 0 on a paired component and
    D_p . D_i = d_i h and D_i^2 = d_i^2 on an unpaired one.

    Every check and verdict is decided here; the truncation roots and the
    component records wait for the first read of report.components.
    """
    wb.check_against(cfg)
    a, h, sq = _sums(cfg, wb.weights)
    dp2 = h * h - sq
    ample = ample_sufficient(cfg, wb)
    closed_form = _ample(cfg)
    if ample.certified != closed_form:
        raise InternalError(f"closed-form ampleness {closed_form} disagrees with {ample}")
    if not ample.certified:
        return BoundaryReport(Fraction(dp2), ample, False, tuple)
    # a certified D_p has an unpaired component, whose ratio needs sqrt(S)
    split = quadext.sqrt_parts(sq)
    checks = []
    for i, (w, ai, comp) in enumerate(zip(wb.weights, a, cfg.components)):
        d = comp.degree
        dpdi = d * (h - ai) if comp.paired else d * h
        if dp2 <= 0 or dpdi <= 0:
            raise InternalError(
                f"certified ample D_p has D_p^2 = {dp2} and D_p . D_{i} = {dpdi}"
            )
        if comp.paired:
            ratio = _surd(dp2, 0, 4 * dpdi, split)
        else:
            ratio = _surd(h * (dp2 - 2 * sq), 2 * sq, 3 * dp2 * d, split)
        ok = _component_holds(h, sq, ai, comp.paired)
        exceeds = ratio > w
        # the square-root-free inequality and the QuadExt ratio bound
        # are the same statement, decided independently
        if ok != exceeds:
            raise InternalError(
                f"component {i}: inequality {ok} but ratio {ratio} exceeds weight "
                f"{w} is {exceeds} (root {_root(h, dp2, dpdi, comp, split)})"
            )
        checks.append((dpdi, ratio, ok))
    records = partial(_records, cfg, wb.weights, h, dp2, split, checks)
    return BoundaryReport(Fraction(dp2), ample, all(ok for _, _, ok in checks), records)


# -- number encoding ----------------------------------------------------------

TAG_RATIONAL = "exact-rational"
TAG_QUADRATIC = "exact-quadratic"
TAG_LOWER = "lower-bound"
TAG_UPPER = "upper-bound"


def encode_number(value, tag: str | None = None) -> dict:
    if isinstance(value, QuadExt) and not value.is_rational:
        return {
            "kind": "quadratic",
            "a": str(value.a),
            "b": str(value.b),
            "delta": value.delta,
            "text": str(value),
            "tag": tag or TAG_QUADRATIC,
        }
    if isinstance(value, QuadExt):
        value = value.as_fraction()
    frac = Fraction(value)
    return {"kind": "rational", "value": str(frac), "tag": tag or TAG_RATIONAL}


def decode_number(doc: Mapping):
    kind = _typed(doc["kind"], str, "number kind")
    if kind == "quadratic":
        a, b = (Fraction(_typed(doc[k], str, k)) for k in "ab")
        return QuadExt(a, b, _typed(doc["delta"], int, "delta"))
    if kind != "rational":
        raise ConfigError(f"unknown number kind {kind!r}")
    return Fraction(_typed(doc["value"], str, "value"))


def encode_multiplicity(m: Multiplicity):
    return "inf" if m == INF else int(m)


@malformed("multiplicity")
def decode_multiplicity(raw) -> Multiplicity:
    """An int, a string of ASCII digits (the command line's spelling) or inf."""
    if raw in ("inf", "Inf", "INF", None):
        return float("inf")
    if isinstance(raw, str) and raw.isascii() and raw.isdigit():
        raw = int(raw)
    check_multiplicity(_typed(raw, int, "multiplicity"))
    return raw


# -- certificate ---------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    config_echo: dict
    weights: tuple[Fraction, ...]
    multiplicities: tuple[Multiplicity, ...]
    dp_square: Fraction
    hypotheses: tuple[Hypothesis, ...]
    components: tuple[ComponentCheck, ...]
    slack: QuadExt | None
    slack_lower: Fraction | None
    overall: str
    first_failure: str | None
    constants: dict | None
    orbifold: dict | None
    formulas: tuple[tuple[str, str], ...]

    def to_json_dict(self) -> dict:
        doc = {
            "version": CERTIFICATE_FORMAT_VERSION,
            "tool": {"name": "orbicert", "version": _tool_version},
            "config": self.config_echo,
            "weights": [encode_number(w) for w in self.weights],
            "multiplicities": [encode_multiplicity(m) for m in self.multiplicities],
            "boundary_square": encode_number(self.dp_square),
            "hypotheses": [
                {"name": h.name, "status": h.status, "detail": h.detail}
                for h in self.hypotheses
            ],
            "components": [
                {
                    "index": c.index,
                    "degree": c.degree,
                    "weight": encode_number(c.weight),
                    "self_square": encode_number(c.self_square),
                    "boundary_pairing": encode_number(c.dp_pairing),
                    "truncation_root": encode_number(c.truncation_root),
                    "filtration_inequality": c.inequality_holds,
                    "volume_ratio_lower": encode_number(c.volume_ratio, TAG_LOWER),
                    "exceeds_weight": c.exceeds_weight,
                }
                for c in self.components
            ],
            "slack": encode_number(self.slack) if self.slack is not None else None,
            "slack_lower": (
                encode_number(self.slack_lower, TAG_LOWER)
                if self.slack_lower is not None
                else None
            ),
            "overall": self.overall,
            "first_failure": self.first_failure,
            "constants": self.constants,
            "orbifold": self.orbifold,
            "formulas": [list(pair) for pair in self.formulas],
        }
        return doc

    def to_json(self) -> str:
        return dump_json(self.to_json_dict()) + "\n"

    @staticmethod
    def from_json(text: str) -> "Certificate":
        return Certificate.from_json_dict(load_json(text, "certificate"))

    @staticmethod
    @malformed("certificate")
    def from_json_dict(doc: Mapping) -> "Certificate":
        if _typed(doc.get("version"), int, "version") != CERTIFICATE_FORMAT_VERSION:
            raise ConfigError(f"unsupported certificate version {doc['version']}")
        components = tuple(
            ComponentCheck(
                index=_typed(c["index"], int, "index"),
                degree=_typed(c["degree"], int, "degree"),
                weight=Fraction(decode_number(c["weight"])),
                self_square=Fraction(decode_number(c["self_square"])),
                dp_pairing=Fraction(decode_number(c["boundary_pairing"])),
                truncation_root=QuadExt.of(decode_number(c["truncation_root"])),
                inequality_holds=_typed(
                    c["filtration_inequality"], bool, "filtration_inequality"
                ),
                volume_ratio=QuadExt.of(decode_number(c["volume_ratio_lower"])),
                exceeds_weight=_typed(c["exceeds_weight"], bool, "exceeds_weight"),
            )
            for c in _typed(doc["components"], list, "components")
        )
        return Certificate(
            config_echo=_typed(doc["config"], dict, "config"),
            weights=tuple(
                Fraction(decode_number(w)) for w in _typed(doc["weights"], list, "weights")
            ),
            multiplicities=tuple(
                decode_multiplicity(m)
                for m in _typed(doc["multiplicities"], list, "multiplicities")
            ),
            dp_square=Fraction(decode_number(doc["boundary_square"])),
            hypotheses=tuple(
                Hypothesis(
                    _typed(h["name"], str, "hypothesis name"),
                    _typed(h["status"], str, "hypothesis status"),
                    _typed(h.get("detail", ""), str, "hypothesis detail"),
                )
                for h in _typed(doc["hypotheses"], list, "hypotheses")
            ),
            components=components,
            slack=(
                QuadExt.of(decode_number(doc["slack"]))
                if doc.get("slack") is not None
                else None
            ),
            slack_lower=(
                Fraction(decode_number(doc["slack_lower"]))
                if doc.get("slack_lower") is not None
                else None
            ),
            overall=_typed(doc["overall"], str, "overall"),
            first_failure=_typed(doc.get("first_failure"), str, "first_failure", null=True),
            constants=_typed(doc.get("constants"), dict, "constants", null=True),
            orbifold=_typed(doc.get("orbifold"), dict, "orbifold", null=True),
            formulas=tuple(
                _formula(f) for f in _typed(doc.get("formulas", []), list, "formulas")
            ),
        )


def _formula(raw) -> tuple[str, str]:
    name, text = _typed(raw, list, "formula")
    return _typed(name, str, "formula name"), _typed(text, str, "formula text")


_FORMULAS: tuple[tuple[str, str], ...] = (
    ("truncation_root", "least positive x with D_i^2 x^2 - 2 (D_p.D_i) x + D_p^2 = 0"),
    ("filtration_inequality", "2 D_p^2 x > (D_p.D_i) x^2 + 3 D_p^2 p_i at the truncation root"),
    ("volume_ratio_lower", "((2/3) x D_p^2 - (1/3) (D_p.D_i) x^2) / D_p^2"),
    ("slack", "min over components of (volume_ratio - weight) / weight"),
    ("sections_euler", "chi(d) = 1 + d.(d - K)/2"),
)


def config_hypotheses(cfg: SurfaceConfig) -> list[Hypothesis]:
    """The hypotheses that no weight changes, in certify's order: component
    count, no three components meeting, generic pairing points."""
    if cfg.r >= 2:
        count = Hypothesis("component_count", PASS, f"r = {cfg.r}")
    elif cfg.allow_single_component:
        count = Hypothesis("component_count", WAIVED, "single component accepted by config flag")
    else:
        count = Hypothesis("component_count", FAIL, "at least two boundary components required")
    hypotheses = [
        count,
        Hypothesis(
            "no_three_meet",
            PASS if cfg.no_three_meet else FAIL,
            "declared by the configuration; not derivable from blow-up data",
        ),
    ]
    if any(c.paired for c in cfg.components):
        hypotheses.append(
            Hypothesis(
                "pairing_points_generic",
                ASSUMED,
                "transversal pairing intersections and smooth padding points are assumed",
            )
        )
    return hypotheses


def config_blocker(cfg: SurfaceConfig) -> Hypothesis | None:
    """The first of config_hypotheses that fails every weight vector, or None."""
    return next((h for h in config_hypotheses(cfg) if h.status in _BLOCKING), None)


def certify(
    cfg: SurfaceConfig,
    wb: WeightedBoundary,
    multiplicities: Sequence[Multiplicity] | None = None,
    *,
    twist_alpha: Fraction | int = 1,
    constants_cap: int = 200,
    include_constants: bool = True,
) -> Certificate:
    """Run the full hypothesis checklist and assemble a certificate.

    Failures are certified too: the checklist keeps evaluating whatever
    remains meaningful, overall status aggregates to pass, fail or
    inconclusive, and first_failure names the earliest definite failure.
    When finite multiplicities are supplied and the checklist passes, the
    certificate additionally carries the feasibility constants chain and
    the orbifold thresholds, unless include_constants is False.  A negative
    twist_alpha is refused up front, whatever the multiplicities.
    """
    wb.check_against(cfg)
    if multiplicities is None:
        multiplicities = tuple(float("inf") for _ in cfg.components)
    multiplicities = tuple(multiplicities)
    check_multiplicities(multiplicities, cfg.r)
    twist_alpha = Fraction(twist_alpha)
    if twist_alpha < 0:
        raise ConfigError(f"twist alpha {twist_alpha} must be nonnegative")

    hypotheses = config_hypotheses(cfg)
    report = build_report(cfg, wb)
    if report.ample.certified:
        hypotheses.append(Hypothesis("ampleness", PASS, "sufficient criterion certified"))
    else:
        hypotheses.append(
            Hypothesis("ampleness", INCONCLUSIVE, f"failed check: {report.ample.reason}")
        )

    if report.components:
        bad = [c.index for c in report.components if not c.inequality_holds]
        hypotheses.append(
            Hypothesis(
                "filtration_inequality",
                PASS if not bad else FAIL,
                "" if not bad else f"fails at component index {bad[0]}",
            )
        )
        hypotheses.append(
            Hypothesis(
                "volume_ratio_exceeds_weight",
                PASS if not bad else FAIL,
                "" if not bad else f"ratio at most weight at component index {bad[0]}",
            )
        )
        if report.slack is not None:
            hypotheses.append(
                Hypothesis("slack_positive", PASS, f"slack lower bound {report.slack_lower}")
            )
    else:
        hypotheses.append(
            Hypothesis("filtration_inequality", SKIPPED, "ampleness not certified")
        )

    worst = max((_BLOCKING.get(h.status, 0) for h in hypotheses), default=0)
    overall = PASS if worst == 0 else (INCONCLUSIVE if worst == 1 else FAIL)
    first_failure = next((h.name for h in hypotheses if h.status == FAIL), None)

    constants_doc: dict | None = None
    orbifold_doc: dict | None = None
    finite = any(m != INF for m in multiplicities)
    if include_constants and finite and overall == PASS:
        constants_doc, orbifold_doc = _conclusion_sections(
            cfg, wb, report, multiplicities, twist_alpha, constants_cap
        )

    return Certificate(
        config_echo=cfg.to_json_dict(),
        weights=tuple(Fraction(w) for w in wb.weights),
        multiplicities=multiplicities,
        dp_square=report.dp_square,
        hypotheses=tuple(hypotheses),
        components=report.components,
        slack=report.slack,
        slack_lower=report.slack_lower,
        overall=overall,
        first_failure=first_failure,
        constants=constants_doc,
        orbifold=orbifold_doc,
        formulas=_FORMULAS,
    )


def _conclusion_sections(
    cfg: SurfaceConfig,
    wb: WeightedBoundary,
    report: BoundaryReport,
    multiplicities: tuple[Multiplicity, ...],
    twist_alpha: Fraction,
    constants_cap: int,
):
    # constants imports this module, so its import waits for the first call
    from .constants import InfeasibleError, feasible_chain

    try:
        chain = feasible_chain(
            cfg, wb, report, report.slack_lower, cap=constants_cap
        )
        constants_doc = chain.to_json_dict()
        # inf >= m0, so an infinite multiplicity always meets it
        threshold_met = all(m >= chain.m0 for m in multiplicities)
        mult_doc = {
            "multiplicity_threshold": chain.m0,
            "given_multiplicities_meet_threshold": threshold_met,
        }
    except InfeasibleError as exc:
        constants_doc = {"status": "infeasible-within-cap", "detail": str(exc)}
        mult_doc = {}

    twist = ample_twist_threshold(cfg, wb, twist_alpha, multiplicities)
    big = orbifold_canonical_big(cfg, multiplicities)
    orbifold_doc = {
        **mult_doc,
        "ample_twist_threshold": twist,
        "twist_alpha": encode_number(twist_alpha),
        "orbifold_canonical_big": big.certified,
        "orbifold_canonical_degree": encode_number(big.value),
    }
    return constants_doc, orbifold_doc
