"""Orbifold multiplicities pulled back through a curve-to-surface map.

A pullback profile records, for finitely many points of the source curve,
the local intersection multiplicities with the boundary components they
meet.  Numerics follow the usual conventions for the infinite
multiplicity: 1 - 1/inf = 1, ceil(inf / t) = inf, and t / inf = 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .lattice import ConfigError, SurfaceConfig, strict_transform
from .lattice import _typed, load_json, malformed
from .positivity import (
    INF,
    Multiplicity,
    WeightedBoundary,
    _is_inf,
    ample_class_sufficient,
    boundary_class,
    check_multiplicity,
)


def _ceil_div(m: Multiplicity, t: int) -> Multiplicity:
    if _is_inf(m):
        return INF
    return -(-int(m) // t)


@dataclass(frozen=True)
class OrbifoldDivisor:
    """Component indices with multiplicities above 1."""

    items: tuple[tuple[int, Multiplicity], ...]

    @staticmethod
    def make(pairs: Iterable[tuple[int, Multiplicity]]) -> "OrbifoldDivisor":
        seen = {}
        for j, m in pairs:
            check_multiplicity(m)
            if j < 0:
                raise ConfigError(f"negative component index {j}")
            if j in seen:
                raise ConfigError(f"component {j} listed twice")
            if _is_inf(m) or m > 1:
                seen[j] = m
        return OrbifoldDivisor(items=tuple(sorted(seen.items())))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.items)

    def multiplicity(self, j: int) -> Multiplicity:
        for jj, m in self.items:
            if jj == j:
                return m
        return 1


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

    def to_json_dict(self) -> dict:
        return {
            "components": self.n_components,
            "points": [
                {"ident": p.ident, "contacts": [[j, t] for j, t in p.contacts]}
                for p in self.points
            ],
        }

    @staticmethod
    @malformed("profile")
    def from_json_dict(doc: Mapping) -> "PullbackProfile":
        return PullbackProfile.make(
            [
                (_typed(p["ident"], str, "point ident"), [(j, t) for j, t in p["contacts"]])
                for p in doc["points"]
            ],
            _typed(doc["components"], int, "components"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "PullbackProfile":
        return PullbackProfile.from_json_dict(load_json(text, "profile"))


def induced_multiplicities(
    profile: PullbackProfile, target: Sequence[Multiplicity]
) -> tuple[Multiplicity, ...]:
    """Per-point multiplicities max over met components of ceil(m_j / t_total)."""
    _check_target(profile, target)
    out = []
    for p in profile.points:
        t = p.t_total
        best: Multiplicity = 1
        for j, _ in p.contacts:
            cand = _ceil_div(target[j], t)
            if _is_inf(cand) or (not _is_inf(best) and cand > best):
                best = cand
        out.append(best)
    return tuple(out)


def is_orbifold_morphism(
    profile: PullbackProfile,
    source: Sequence[Multiplicity],
    target: Sequence[Multiplicity],
) -> bool:
    """n_i * t_total(i) >= m_j for every point i and met component j."""
    _check_target(profile, target)
    if len(source) != len(profile.points):
        raise ConfigError(
            f"{len(source)} source multiplicities for {len(profile.points)} points"
        )
    for n in source:
        check_multiplicity(n)
    for p, n in zip(profile.points, source):
        t = p.t_total
        for j, _ in p.contacts:
            m = target[j]
            if _is_inf(m):
                if not _is_inf(n):
                    return False
            elif not _is_inf(n) and n * t < m:
                return False
    return True


def support_bound(
    profile: PullbackProfile, target: Sequence[Multiplicity]
) -> tuple[Fraction, Fraction]:
    """(number of points, orbifold counting bound); left never exceeds right.

    The right side is sum(1 - 1/induced_i) + sum_j deg(pullback of D_j)/m_j.
    The per-point inequality 1/induced_i <= sum_j t_ij / m_j makes the
    bound hold for every profile.
    """
    _check_target(profile, target)
    induced = induced_multiplicities(profile, target)
    lhs = Fraction(len(profile.points))
    rhs = Fraction(0)
    for m in induced:
        rhs += 1 if _is_inf(m) else 1 - Fraction(1, int(m))
    for j in range(profile.n_components):
        m = target[j]
        if _is_inf(m):
            continue
        deg = profile.pullback_degree(j)
        if deg:
            rhs += Fraction(deg, int(m))
    return lhs, rhs


def _check_target(profile: PullbackProfile, target: Sequence[Multiplicity]) -> None:
    if len(target) != profile.n_components:
        raise ConfigError(
            f"{len(target)} multiplicities for {profile.n_components} components"
        )
    for m in target:
        check_multiplicity(m)


_MAX_TWIST_M = 4096


def ample_twist_threshold(
    cfg: SurfaceConfig,
    wb: WeightedBoundary,
    alpha: Fraction | int,
    delta: OrbifoldDivisor,
) -> int:
    """Least m >= 1 keeping D_p - (alpha/m) * sum of support components ample.

    The threshold is checked by direct scan; the sufficient ampleness test
    is not monotone in m a priori, so the least passing m is the answer by
    definition.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ConfigError("alpha must be nonnegative")
    for j in delta.support:
        if j >= len(cfg.components):
            raise ConfigError(f"support index {j} out of range")
    dp = boundary_class(cfg, wb)
    if not ample_class_sufficient(cfg, dp).certified:
        raise ValueError("weighted boundary is not certified ample")
    twist = None
    for j in delta.support:
        term = strict_transform(cfg, j)
        twist = term if twist is None else twist + term
    if twist is None or alpha == 0:
        return 1
    for m in range(1, _MAX_TWIST_M + 1):
        candidate = dp - (alpha / m) * twist
        if ample_class_sufficient(cfg, candidate).certified:
            return m
    raise ValueError(f"no admissible twist denominator at or below {_MAX_TWIST_M}")
