"""Sufficient positivity checks for divisor classes on the blown-up plane.

Ampleness is certified through a Nakai-Moishezon style argument that only
needs three verifiable facts about a class h*H - sum(c_i E_i): positive
self-intersection, positive pairing with every exceptional curve (c_i > 0
on every component that carries points), and a positive Bezout residue
h - sum over paired components of d_i * max(0, c_i) that bounds the
multiplicity loss of any non-exceptional curve against the points each
paired component carries.  The criterion is sufficient, never necessary,
so failures come back as inconclusive rather than as a certified negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .lattice import (
    Coeff,
    ConfigError,
    DivisorClass,
    SurfaceConfig,
    intersect,
)

Multiplicity = Union[int, float]  # float admits only math.inf
INF = float("inf")


@dataclass(frozen=True)
class Verdict:
    certified: bool
    reason: str = ""
    checks: tuple[tuple[str, bool], ...] = ()
    value: Fraction | None = None

    def __bool__(self) -> bool:
        return self.certified


@dataclass(frozen=True)
class WeightedBoundary:
    """Positive weights, one per boundary component in config order."""

    weights: tuple[Coeff, ...]

    @staticmethod
    def make(weights: Sequence[Coeff]) -> "WeightedBoundary":
        ws = []
        for w in weights:
            if type(w) is int:
                # the common case keeps its int; bool and int subclasses
                # take the Fraction path below
                if w <= 0:
                    raise ConfigError(f"weight {w} must be positive")
                ws.append(w)
                continue
            if isinstance(w, float):
                raise ConfigError(f"weight {w!r} is a float, not an exact number")
            try:
                f = Fraction(w)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"weight {w!r} is not a number: {exc}") from exc
            if f <= 0:
                raise ConfigError(f"weight {w} must be positive")
            ws.append(int(f) if f.denominator == 1 else f)
        return WeightedBoundary(tuple(ws))

    def check_against(self, cfg: SurfaceConfig) -> None:
        if len(self.weights) != len(cfg.components):
            raise ConfigError(
                f"{len(self.weights)} weights for {len(cfg.components)} components"
            )


def boundary_class(cfg: SurfaceConfig, wb: WeightedBoundary) -> DivisorClass:
    """The weighted boundary divisor: sum of w_i times each strict transform."""
    wb.check_against(cfg)
    h = sum(w * c.degree for w, c in zip(wb.weights, cfg.components))
    return DivisorClass.make(cfg, h, wb.weights)


def linear_checks(cfg: SurfaceConfig, d: DivisorClass) -> list[Coeff]:
    """c_i on each paired component, then the residue h - sum d_i * max(0, c_i)."""
    paired = [(c, comp.degree) for c, comp in zip(d.c, cfg.components) if comp.paired]
    return [c for c, _ in paired] + [d.h - sum(deg * max(0, c) for c, deg in paired)]


def ample_class_sufficient(cfg: SurfaceConfig, d: DivisorClass) -> Verdict:
    """Three-part sufficient ampleness test for an arbitrary class.

    A plane curve of degree e meets a degree d_i component in at most
    e*d_i points counted with multiplicity, so the worst loss per unit of
    plane degree against the points on that component is d_i * c_i.

    The square check follows from the other two: if every paired c_i > 0
    and h > sum d_i * c_i, then h > 0 and
    h^2 > (sum d_i * c_i)^2 >= sum d_i^2 * c_i^2.  So the test passes
    exactly when every entry of ``linear_checks`` is positive.  The square
    check still runs first because its name is the reason a failing
    certificate prints.
    """
    if d.n != cfg.point_counts:
        raise ConfigError(f"class with point counts {d.n} is not on this config")
    *exceptional, residue = linear_checks(cfg, d)
    checks = (
        ("self_intersection_positive", intersect(d, d) > 0),
        ("exceptional_pairings_positive", all(c > 0 for c in exceptional)),
        ("bezout_residue_positive", residue > 0),
    )
    for name, ok in checks:
        if not ok:
            return Verdict(False, name, checks)
    return Verdict(True, "", checks)


def ample_sufficient(cfg: SurfaceConfig, wb: WeightedBoundary) -> Verdict:
    """Sufficient ampleness of the weighted boundary divisor."""
    return ample_class_sufficient(cfg, boundary_class(cfg, wb))


def check_multiplicity(m: Multiplicity) -> None:
    if isinstance(m, float) and m == INF:
        return
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ConfigError(f"multiplicity {m!r} must be a positive integer or inf")


def check_multiplicities(multiplicities: Sequence[Multiplicity], r: int) -> None:
    """One valid multiplicity per boundary component."""
    if len(multiplicities) != r:
        raise ConfigError(f"{len(multiplicities)} multiplicities for {r} components")
    for m in multiplicities:
        check_multiplicity(m)


def orbifold_coefficient(m: Multiplicity) -> Fraction:
    """1 - 1/m, with the logarithmic value 1 at m = inf."""
    check_multiplicity(m)
    if m == INF:
        return Fraction(1)
    return 1 - Fraction(1, m)


def orbifold_canonical_big(
    cfg: SurfaceConfig, multiplicities: Sequence[Multiplicity]
) -> Verdict:
    """Plane-degree test for bigness of K plus the orbifold boundary.

    The class K + sum((1 - 1/m_i) * D_i) pushes forward to degree
    -3 + sum((1 - 1/m_i) * d_i); a positive total degree certifies bigness
    on the plane model, anything else is inconclusive.
    """
    check_multiplicities(multiplicities, cfg.r)
    total = Fraction(-3)
    for comp, m in zip(cfg.components, multiplicities):
        total += orbifold_coefficient(m) * comp.degree
    if total > 0:
        return Verdict(True, "", (("orbifold_degree_positive", True),), total)
    return Verdict(
        False, "orbifold_degree_nonpositive",
        (("orbifold_degree_positive", False),), total,
    )
