"""Orbifold multiplicities pulled back through a curve-to-surface map.

A pullback profile records, for finitely many points of the source curve,
the local intersection multiplicities with the boundary components they
meet.  Numerics follow the usual conventions for the infinite
multiplicity: 1 - 1/inf = 1, ceil(inf / t) = inf, and t / inf = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .lattice import ConfigError, InternalError, SurfaceConfig, strict_transform
from .positivity import (
    INF,
    Multiplicity,
    WeightedBoundary,
    ample_class_sufficient,
    boundary_class,
    check_multiplicities,
    check_multiplicity,
    linear_checks,
    orbifold_coefficient,
)


def _ceil_div(m: Multiplicity, t: int) -> Multiplicity:
    # inf // t is nan, not inf
    if m == INF:
        return INF
    return -(-int(m) // t)


@dataclass(frozen=True)
class ProfilePoint:
    """One source point with its local contact orders per component."""

    ident: str
    contacts: tuple[tuple[int, int], ...]

    @staticmethod
    def make(ident: str, contacts) -> "ProfilePoint":
        pairs = sorted(contacts.items()) if isinstance(contacts, Mapping) else sorted(contacts)
        if not pairs:
            raise ConfigError(f"point {ident} meets no component")
        seen = set()
        for j, t in pairs:
            if j in seen:
                raise ConfigError(f"point {ident} lists component {j} twice")
            seen.add(j)
            # type(), not isinstance(): True is no component index or order
            if not (type(j) is int and j >= 0):
                raise ConfigError(f"bad component index {j!r}")
            if not (type(t) is int and t >= 1):
                raise ConfigError(f"bad contact order {t!r} at point {ident}")
        return ProfilePoint(ident=ident, contacts=tuple(pairs))

    @property
    def t_total(self) -> int:
        return sum(t for _, t in self.contacts)


@dataclass(frozen=True)
class PullbackProfile:
    points: tuple[ProfilePoint, ...]
    n_components: int

    def __post_init__(self) -> None:
        idents = [p.ident for p in self.points]
        if len(set(idents)) != len(idents):
            raise ConfigError("duplicate point identifiers")
        for p in self.points:
            for j, _ in p.contacts:
                if j >= self.n_components:
                    raise ConfigError(
                        f"point {p.ident} meets component {j} of {self.n_components}"
                    )

    @staticmethod
    def make(points, n_components: int) -> "PullbackProfile":
        built = tuple(
            p if isinstance(p, ProfilePoint) else ProfilePoint.make(*p) for p in points
        )
        return PullbackProfile(points=built, n_components=n_components)

    def pullback_degree(self, j: int) -> int:
        return sum(t for p in self.points for jj, t in p.contacts if jj == j)


def induced_multiplicities(
    profile: PullbackProfile, target: Sequence[Multiplicity]
) -> tuple[Multiplicity, ...]:
    """Per-point multiplicities max over met components of ceil(m_j / t_total)."""
    check_multiplicities(target, profile.n_components)
    return tuple(
        max(_ceil_div(target[j], p.t_total) for j, _ in p.contacts)
        for p in profile.points
    )


def is_orbifold_morphism(
    profile: PullbackProfile,
    source: Sequence[Multiplicity],
    target: Sequence[Multiplicity],
) -> bool:
    """n_i * t_total(i) >= m_j for every point i and met component j."""
    check_multiplicities(target, profile.n_components)
    if len(source) != len(profile.points):
        raise ConfigError(
            f"{len(source)} source multiplicities for {len(profile.points)} points"
        )
    for n in source:
        check_multiplicity(n)
    # inf * t is inf, so an infinite m_j needs an infinite n_i
    return all(
        n * p.t_total >= target[j]
        for p, n in zip(profile.points, source)
        for j, _ in p.contacts
    )


def support_bound(
    profile: PullbackProfile, target: Sequence[Multiplicity]
) -> tuple[Fraction, Fraction]:
    """(number of points, orbifold counting bound); left never exceeds right.

    The right side is sum(1 - 1/induced_i) + sum_j deg(pullback of D_j)/m_j.
    The per-point inequality 1/induced_i <= sum_j t_ij / m_j makes the
    bound hold for every profile.
    """
    induced = induced_multiplicities(profile, target)
    lhs = Fraction(len(profile.points))
    rhs = sum((orbifold_coefficient(m) for m in induced), Fraction(0))
    for j, m in enumerate(target):
        deg = profile.pullback_degree(j)
        if deg and m != INF:
            rhs += Fraction(deg, m)
    return lhs, rhs


def ample_twist_threshold(
    cfg: SurfaceConfig,
    wb: WeightedBoundary,
    alpha: Fraction | int,
    multiplicities: Sequence[Multiplicity],
) -> int:
    """Least m >= 1 keeping D_p - (alpha/m) * T ample, T = sum of D_j with m_j > 1.

    The sufficient test certifies a class exactly when every entry of
    ``positivity.linear_checks`` is positive: c_i on each paired component,
    then the residue h - sum d_i * max(0, c_i).  Where every c_i > 0 the
    max is c_i, so each entry l is linear, and D_p and T have no c_i < 0.
    Each check then reads l(D_p) - (alpha/m) * l(T) > 0 with l(D_p) > 0,
    that is m > alpha * l(T) / l(D_p), so the least m is one more than the
    largest floor of these bounds, or 1.  The lattice test must pass at m
    and fail at m - 1; otherwise the lemma or the arithmetic is broken.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ConfigError("alpha must be nonnegative")
    check_multiplicities(multiplicities, cfg.r)
    dp = boundary_class(cfg, wb)
    if not ample_class_sufficient(cfg, dp).certified:
        raise ValueError("weighted boundary is not certified ample")
    support = (j for j, m_j in enumerate(multiplicities) if m_j > 1)
    twist = sum((strict_transform(cfg, j) for j in support), 0 * dp)
    bounds = zip(linear_checks(cfg, dp), linear_checks(cfg, twist))
    m = 1 + max(0, *(alpha * t // p for p, t in bounds))

    def certified(k: int) -> bool:
        return ample_class_sufficient(cfg, dp - (alpha / k) * twist).certified

    if not certified(m) or (m > 1 and certified(m - 1)):
        raise InternalError(f"twist threshold {m} disagrees with the lattice test")
    return m
