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
ratio (h (D - 2S) + 2 S sqrt(S)) / (3 D d).  sqrt(S) is split at most
once per report, and only when an unpaired root or ratio needs it.

Each check lands in a Certificate with a named pass/fail/inconclusive
status, exact values (rational or quadratic) and a serialization that
round-trips byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from math import floor
from typing import Mapping, Sequence

from . import __version__ as _tool_version
from .lattice import Coeff, ConfigError, InternalError, SurfaceConfig
from .lattice import _typed, load_json, malformed
from .lattice import intersect  # noqa: F401  importable from here; bench/test_bench.py relies on it
from .positivity import (
    Multiplicity,
    Verdict,
    WeightedBoundary,
    ample_sufficient,
    check_multiplicity,
    orbifold_canonical_big,
)
from . import quadext
from .quadext import NoPositiveRootError, QuadExt, compare_cross, rational_below

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
    dp_square: Fraction
    ample: Verdict
    components: tuple[ComponentCheck, ...]
    slack: QuadExt | None
    slack_lower: Fraction | None


@dataclass(frozen=True)
class BoundaryPairings:
    """D_p^2, D_p . D_i, D_i^2 and the canonical pairings in closed form.

    A valid config puts every blown point on exactly one paired component,
    d_i^2 points on a paired component of degree d_i.  So D_i . D_j = d_i d_j
    for i != j, and with h = sum(w_i d_i) and S = sum over paired components
    of w_i^2 d_i^2:

        D_p^2 = h^2 - S
        D_p . D_i = d_i (h - [paired] w_i d_i)
        D_i^2 = [unpaired] d_i^2
        D_i . K = -3 d_i + [paired] d_i^2

    The values are ints for integer weights and Fractions otherwise.  With
    D = D_p^2, a paired component has truncation root x = D / (2 D_p.D_i) and
    volume ratio x/2; an unpaired one of degree d has x = (h - sqrt(S)) / d
    and ratio (h (D - 2S) + 2 S sqrt(S)) / (3 D d).  sqrt(S) = s sqrt(f) is
    split on first use and kept: at most once per report, never for
    checklist_holds.
    """

    h: Coeff
    paired_square: Coeff
    dp2: Coeff
    dpdi: tuple[Coeff, ...]
    di2: tuple[int, ...]
    dik: tuple[int, ...]
    dpk: Coeff
    degrees: tuple[int, ...]

    @cached_property
    def sqrt_split(self) -> tuple[Coeff, int]:
        """(s, f) with sqrt(S) = s sqrt(f), f squarefree; f == 1 for a square S."""
        num, den = self.paired_square.numerator, self.paired_square.denominator
        if num == 0:
            return 0, 1
        # sqrt(p/q) = sqrt(p q) / q
        s, f = quadext._square_split(num * den)
        return (s if den == 1 else Fraction(s, den)), f

    def _surd(self, a: Coeff, b: Coeff, den: Coeff) -> QuadExt:
        # (a + b sqrt(S)) / den in canonical form; b == 0 needs no split
        if b:
            s, f = self.sqrt_split
            if f != 1:
                return quadext._make(Fraction(a, den), Fraction(b * s, den), f)
            a += b * s
        return quadext._make(Fraction(a, den), quadext._ZERO, 0)

    def _check_root(self, i: int) -> None:
        if self.dp2 <= 0 or self.dpdi[i] <= 0:
            raise NoPositiveRootError(f"no positive truncation root for component {i}")

    def truncation_root(self, i: int) -> QuadExt:
        """Smallest positive root of D_i^2 x^2 - 2 (D_p . D_i) x + D_p^2.

        Raises NoPositiveRootError unless D_p^2 > 0 and D_p . D_i > 0, which
        a certified ample D_p gives.
        """
        self._check_root(i)
        if self.di2[i] == 0:
            return self._surd(self.dp2, 0, 2 * self.dpdi[i])
        return self._surd(self.h, -1, self.degrees[i])

    def volume_ratio(self, i: int) -> QuadExt:
        """Closed-form lower bound for the asymptotic section volume ratio.

        ((2/3) x D_p^2 - (1/3) (D_p . D_i) x^2) / D_p^2 at the truncation root x.
        """
        self._check_root(i)
        if self.di2[i] == 0:
            return self._surd(self.dp2, 0, 4 * self.dpdi[i])
        h, dp2, sq = self.h, self.dp2, self.paired_square
        return self._surd(h * (dp2 - 2 * sq), 2 * sq, 3 * dp2 * self.degrees[i])


def boundary_pairings(cfg: SurfaceConfig, weights: Sequence[Coeff]) -> BoundaryPairings:
    """The pairings of D_p = sum(w_i D_i) from per-component closed forms."""
    h = 0
    paired_square = 0
    for w, comp in zip(weights, cfg.components):
        h += w * comp.degree
        if comp.paired:
            paired_square += (w * comp.degree) ** 2
    dpdi, di2, dik = [], [], []
    dpk = -3 * h
    for w, comp in zip(weights, cfg.components):
        d = comp.degree
        if comp.paired:
            dpdi.append(d * (h - w * d))
            di2.append(0)
            dik.append(d * d - 3 * d)
            dpk += w * d * d
        else:
            dpdi.append(d * h)
            di2.append(d * d)
            dik.append(-3 * d)
    return BoundaryPairings(
        h=h,
        paired_square=paired_square,
        dp2=h * h - paired_square,
        dpdi=tuple(dpdi),
        di2=tuple(di2),
        dik=tuple(dik),
        dpk=dpk,
        degrees=tuple(c.degree for c in cfg.components),
    )


def _component_holds(
    cfg: SurfaceConfig, bp: BoundaryPairings, weights: Sequence[Coeff], i: int
) -> bool:
    """The filtration inequality of component i, without square roots.

    A paired component has the linear root x = D_p^2 / (2 D_p.D_i), and the
    inequality reduces to D_p^2 > 4 (D_p.D_i) p_i.  An unpaired component of
    degree d has x = (h - sqrt(S)) / d when D_p^2 > 0, and the inequality
    reduces to sqrt(S) u > 2 S - h u with u = h - 3 d p_i, which one squaring
    decides; it fails whenever D_p^2 <= 0.  Integer weights keep every step
    in integers; rational weights give the same exact verdict in Fractions.
    """
    comp = cfg.components[i]
    if comp.paired:
        bp._check_root(i)
        return bp.dp2 > 4 * bp.dpdi[i] * weights[i]
    u = bp.h - 3 * comp.degree * weights[i]
    if bp.dp2 <= 0 or u <= 0:
        return False
    rhs = 2 * bp.paired_square - bp.h * u
    return rhs < 0 or bp.paired_square * u * u > rhs * rhs


def _ample(cfg: SurfaceConfig, bp: BoundaryPairings) -> bool:
    # the sufficient test on D_p: every exceptional pairing is a positive
    # weight, and the Bezout residue is the degree on unpaired components
    return bp.dp2 > 0 and not all(c.paired for c in cfg.components)


def checklist_holds(cfg: SurfaceConfig, wb: WeightedBoundary) -> bool:
    """Ampleness is certified and every filtration inequality holds.

    Decided from closed-form pairings with integer arithmetic (exact
    rationals for rational weights) and no QuadExt value; build_report
    reaches the same verdict through the exact volume ratios.
    """
    wb.check_against(cfg)
    bp = boundary_pairings(cfg, wb.weights)
    return _ample(cfg, bp) and all(
        _component_holds(cfg, bp, wb.weights, i) for i in range(cfg.r)
    )


def weight_slack(report: BoundaryReport) -> tuple[QuadExt, Fraction]:
    """Minimum of (ratio - weight)/weight plus a rational lower bound.

    The minimum is taken with exact cross-field comparisons.  The rational
    bound equals the minimum when it is rational; otherwise it is an
    even-index continued fraction convergent, hence strictly below.
    """
    if not report.components:
        raise ConfigError("empty component list")
    slack: QuadExt | None = None
    for check in report.components:
        rel = (check.volume_ratio - check.weight) / check.weight
        if slack is None or compare_cross(rel, slack) < 0:
            slack = rel
    if slack is None:
        raise InternalError("no slack from a nonempty component list")
    if slack.is_rational:
        return slack, slack.as_fraction()
    # a report with a failing component has a negative slack.  The gap is
    # 2^-40 times the largest 2^-k (k >= 0) below |slack|: 1/|slack| is
    # irrational, so 2^k > 1/|slack| exactly when 2^k > floor(1/|slack|)
    size = slack if slack.sign() > 0 else -slack
    k = floor(1 / size).bit_length()
    return slack, rational_below(slack, Fraction(1, 2 ** (k + 40)))


def build_report(cfg: SurfaceConfig, wb: WeightedBoundary) -> BoundaryReport:
    """Evaluate ampleness and all per-component checks once."""
    wb.check_against(cfg)
    bp = boundary_pairings(cfg, wb.weights)
    ample = ample_sufficient(cfg, wb)
    closed_form = _ample(cfg, bp)
    if ample.certified != closed_form:
        raise InternalError(f"closed-form ampleness {closed_form} disagrees with {ample}")
    components: list[ComponentCheck] = []
    if ample.certified:
        for i, comp in enumerate(cfg.components):
            root = bp.truncation_root(i)
            weight = Fraction(wb.weights[i])
            holds = _component_holds(cfg, bp, wb.weights, i)
            ratio = bp.volume_ratio(i)
            exceeds = compare_cross(ratio, weight) > 0
            # the square-root-free inequality and the QuadExt ratio bound
            # are the same statement, decided independently
            if holds != exceeds:
                raise InternalError(
                    f"component {i}: inequality {holds} but ratio {ratio} "
                    f"exceeds weight {weight} is {exceeds} (root {root})"
                )
            components.append(
                ComponentCheck(
                    index=i,
                    degree=comp.degree,
                    weight=weight,
                    self_square=Fraction(bp.di2[i]),
                    dp_pairing=Fraction(bp.dpdi[i]),
                    truncation_root=root,
                    inequality_holds=holds,
                    volume_ratio=ratio,
                    exceeds_weight=exceeds,
                )
            )
    report = BoundaryReport(
        dp_square=Fraction(bp.dp2), ample=ample, components=tuple(components),
        slack=None, slack_lower=None,
    )
    if ample.certified and components and all(c.inequality_holds for c in components):
        slack, lower = weight_slack(report)
        report = replace(report, slack=slack, slack_lower=lower)
    return report


# -- number encoding ----------------------------------------------------------

TAG_RATIONAL = "exact-rational"
TAG_QUADRATIC = "exact-quadratic"
TAG_LOWER = "lower-bound"
TAG_UPPER = "upper-bound"
TAG_EMPIRICAL = "empirical"


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
    return "inf" if isinstance(m, float) else int(m)


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
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

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
            for c in doc["components"]
        )
        return Certificate(
            config_echo=_typed(doc["config"], dict, "config"),
            weights=tuple(Fraction(decode_number(w)) for w in doc["weights"]),
            multiplicities=tuple(
                decode_multiplicity(m) for m in doc["multiplicities"]
            ),
            dp_square=Fraction(decode_number(doc["boundary_square"])),
            hypotheses=tuple(
                Hypothesis(
                    _typed(h["name"], str, "hypothesis name"),
                    _typed(h["status"], str, "hypothesis status"),
                    _typed(h.get("detail", ""), str, "hypothesis detail"),
                )
                for h in doc["hypotheses"]
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
            formulas=tuple((k, v) for k, v in doc.get("formulas", [])),
        )


_FORMULAS: tuple[tuple[str, str], ...] = (
    ("truncation_root", "least positive x with D_i^2 x^2 - 2 (D_p.D_i) x + D_p^2 = 0"),
    ("filtration_inequality", "2 D_p^2 x > (D_p.D_i) x^2 + 3 D_p^2 p_i at the truncation root"),
    ("volume_ratio_lower", "((2/3) x D_p^2 - (1/3) (D_p.D_i) x^2) / D_p^2"),
    ("slack", "min over components of (volume_ratio - weight) / weight"),
    ("sections_euler", "chi(d) = 1 + d.(d - K)/2"),
)


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
    the orbifold thresholds, unless include_constants is False.
    """
    wb.check_against(cfg)
    if multiplicities is None:
        multiplicities = tuple(float("inf") for _ in cfg.components)
    multiplicities = tuple(multiplicities)
    if len(multiplicities) != len(cfg.components):
        raise ConfigError(
            f"{len(multiplicities)} multiplicities for {len(cfg.components)} components"
        )
    for m in multiplicities:
        check_multiplicity(m)

    hypotheses: list[Hypothesis] = []
    if cfg.r >= 2:
        hypotheses.append(Hypothesis("component_count", PASS, f"r = {cfg.r}"))
    elif cfg.allow_single_component:
        hypotheses.append(
            Hypothesis("component_count", WAIVED, "single component accepted by config flag")
        )
    else:
        hypotheses.append(
            Hypothesis("component_count", FAIL, "at least two boundary components required")
        )

    hypotheses.append(
        Hypothesis(
            "no_three_meet",
            PASS if cfg.no_three_meet else FAIL,
            "declared by the configuration; not derivable from blow-up data",
        )
    )
    if any(c.paired for c in cfg.components):
        hypotheses.append(
            Hypothesis(
                "pairing_points_generic",
                ASSUMED,
                "transversal pairing intersections and smooth padding points are assumed",
            )
        )

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
            positive = report.slack.sign() > 0
            hypotheses.append(
                Hypothesis(
                    "slack_positive",
                    PASS if positive else FAIL,
                    f"slack lower bound {report.slack_lower}",
                )
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
    finite = any(not isinstance(m, float) for m in multiplicities)
    if include_constants and finite and overall == PASS:
        constants_doc, orbifold_doc = _conclusion_sections(
            cfg, wb, report, multiplicities, Fraction(twist_alpha), constants_cap
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
    # local imports keep module dependencies acyclic
    from .constants import InfeasibleError, feasible_chain
    from .orbifold import OrbifoldDivisor, ample_twist_threshold

    try:
        chain = feasible_chain(
            cfg, wb, report, report.slack_lower, cap=constants_cap
        )
        constants_doc = chain.to_json_dict()
        finite = [m for m in multiplicities if not isinstance(m, float)]
        threshold_met = all(m >= chain.m0 for m in finite)
        mult_doc = {
            "multiplicity_threshold": chain.m0,
            "given_multiplicities_meet_threshold": threshold_met,
        }
    except InfeasibleError as exc:
        constants_doc = {"status": "infeasible-within-cap", "detail": str(exc)}
        mult_doc = {}

    delta = OrbifoldDivisor.make(
        [(i, m) for i, m in enumerate(multiplicities)]
    )
    twist = ample_twist_threshold(cfg, wb, twist_alpha, delta)
    big = orbifold_canonical_big(cfg, multiplicities)
    orbifold_doc = {
        **mult_doc,
        "ample_twist_threshold": twist,
        "twist_alpha": encode_number(twist_alpha),
        "orbifold_canonical_big": big.certified,
        "orbifold_canonical_degree": encode_number(big.value),
    }
    return constants_doc, orbifold_doc
