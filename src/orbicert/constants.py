"""Exact feasibility constants for the degeneracy conclusion.

Everything here reduces to certified section counts.  For a divisor class
d and a certified-ample reference class A:

* if (K - d) . A < 0 then h^2 vanishes and h^0 >= max(0, chi(d));
* if additionally d - K passes the ampleness test then h^1 and h^2 both
  vanish and h^0 = chi(d) exactly.

The chain searches the least N for which the scaled ratio
beta_i * N * M / S_i(N) leaves room below 1 + eps/2 for every component,
then derives the least admissible b together with the constants C, Q and
the multiplicity threshold m0.  All comparisons are exact; the only
rounding is the explicit continued fraction bound used for Q and for the
upper bounds on the volume ratios, which only ever rounds in the safe
direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from math import floor

from .certifier import (
    TAG_UPPER,
    BoundaryPairings,
    BoundaryReport,
    boundary_pairings,
    build_report,
    encode_number,
)
from .lattice import (
    DivisorClass,
    InternalError,
    SurfaceConfig,
    canonical_class,
    chi,
    intersect,
)
from .positivity import WeightedBoundary, ample_class_sufficient, boundary_class
from .quadext import QuadExt, rational_above


class InfeasibleError(Exception):
    """No admissible N at or below the requested cap."""


class ChainMismatchError(Exception):
    """A recorded constant disagrees with its recomputation."""


def sections_certified(
    cfg: SurfaceConfig, d: DivisorClass, ample: DivisorClass
) -> tuple[int, int | None]:
    """Certified (lower bound, exact value or None) for h^0 of d.

    The reference class must itself pass the ampleness test; the pairing
    (K - d) . ample < 0 rules out h^2, and ampleness of d - K rules out
    h^1 as well.
    """
    if not d.is_integral():
        raise ValueError("section counts need an integral class")
    if not ample_class_sufficient(cfg, ample).certified:
        raise ValueError("reference class is not certified ample")
    k = canonical_class(cfg)
    if not intersect(k - d, ample) < 0:
        return 0, None
    value = chi(cfg, d)
    lower = max(0, int(value))
    if ample_class_sufficient(cfg, d - k).certified:
        if value < 0:
            raise InternalError(f"chi({d}) = {value} < 0 for a certified h^0")
        return int(value), int(value)
    return lower, None


def _pairings(cfg: SurfaceConfig, wb: WeightedBoundary) -> BoundaryPairings:
    # Fraction pairings on purpose: integer ones run the section sums about
    # 4x faster, which waits on a benchmark fix (ROADMAP items 1 and 2)
    return boundary_pairings(cfg, [Fraction(w) for w in wb.weights])


def _sum_lower_fast(bp: BoundaryPairings, root: QuadExt, i: int, n: int) -> int:
    """Sum over m of the certified lower bounds for h^0(n D_p - m D_i),
    m = 1..floor(root * n) for the truncation root of component i."""
    cap = floor(root * n)
    total = 0
    for m in range(1, cap + 1):
        # h^2 guard: (K - d) . D_p < 0 for d = n D_p - m D_i
        if not bp.dpk - (n * bp.dp2 - m * bp.dpdi[i]) < 0:
            continue
        sq = n * n * bp.dp2 - 2 * n * m * bp.dpdi[i] + m * m * bp.di2[i]
        dk = n * bp.dpk - m * bp.dik[i]
        value = 1 + Fraction(sq - dk, 2)
        if value > 0:
            if value.denominator != 1:
                raise InternalError(f"h^0 bound {value} at {(i, n, m)} is not integral")
            total += int(value)
    return total


def _require_integer_weights(wb: WeightedBoundary) -> None:
    if any(Fraction(w).denominator != 1 for w in wb.weights):
        raise ValueError("section counting needs integer weights")


def filtration_sections_lower(
    cfg: SurfaceConfig, wb: WeightedBoundary, i: int, n: int
) -> int:
    """Certified lower bound for sum_m h^0(n D_p - m D_i), m = 1..floor(x_i n)."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= i < len(cfg.components):
        raise ValueError(f"no boundary component {i} among {len(cfg.components)}")
    _require_integer_weights(wb)
    dp = boundary_class(cfg, wb)
    if not ample_class_sufficient(cfg, dp).certified:
        raise ValueError("weighted boundary is not certified ample")
    bp = _pairings(cfg, wb)
    return _sum_lower_fast(bp, bp.truncation_root(i), i, n)


def sections_power_exact(cfg: SurfaceConfig, wb: WeightedBoundary, n: int) -> int | None:
    """Exact h^0(n D_p) when certifiable, else None."""
    dp = boundary_class(cfg, wb)
    _, exact = sections_certified(cfg, n * dp, dp)
    return exact


@dataclass(frozen=True)
class ConstantsChain:
    eps_target: Fraction
    eps_half: Fraction
    n: int
    m_sections: int
    sums: tuple[int, ...]
    ratios: tuple[QuadExt, ...]
    ratio_max: QuadExt
    argmax: int
    b: int
    c_const: Fraction
    q_const: Fraction
    beta_upper: tuple[Fraction, ...]
    m0: int

    def to_json_dict(self) -> dict:
        return {
            "eps_target": encode_number(self.eps_target),
            "eps_half": encode_number(self.eps_half),
            "N": self.n,
            "sections_of_power": self.m_sections,
            "filtration_sums": list(self.sums),
            "ratios": [encode_number(r) for r in self.ratios],
            "ratio_max": encode_number(self.ratio_max),
            "ratio_argmax": self.argmax,
            "b": self.b,
            "C": encode_number(self.c_const),
            "Q": encode_number(self.q_const, TAG_UPPER),
            "volume_ratio_upper": [encode_number(u, TAG_UPPER) for u in self.beta_upper],
            "multiplicity_threshold": self.m0,
        }


_CF_GAP = Fraction(1, 2**48)


def _q_exact(
    m_sections: int, n: int, eps_half: Fraction, betas: tuple[QuadExt, ...]
) -> QuadExt:
    """Q = (M - 1) / (2N) * (1 + eps/2) over the least volume ratio."""
    return Fraction(m_sections - 1, 2 * n) * (1 + eps_half) / min(betas)


def _upper(q: QuadExt) -> Fraction:
    """q itself when rational, else a rational above q by at most _CF_GAP."""
    return q.as_fraction() if q.is_rational else rational_above(q, _CF_GAP)


def feasible_chain(
    cfg: SurfaceConfig,
    wb: WeightedBoundary,
    report: BoundaryReport | None,
    eps_target: Fraction,
    *,
    cap: int = 500,
) -> ConstantsChain:
    """Least N and b satisfying the scaled feasibility inequality, plus C, Q, m0.

    The inequality applied with eps/2 reads
    (1 + 2/b) * beta_i * N * M / S_i(N) < 1 + eps/2 for every component i.
    """
    eps_target = Fraction(eps_target)
    if eps_target <= 0:
        raise ValueError("eps_target must be positive")
    _require_integer_weights(wb)
    if report is None:
        report = build_report(cfg, wb)
    if not report.ample.certified or report.slack is None:
        raise InfeasibleError("hypothesis checklist does not pass")
    eps_half = eps_target / 2
    target = 1 + eps_half
    bp = _pairings(cfg, wb)
    roots = tuple(c.truncation_root for c in report.components)
    betas = tuple(c.volume_ratio for c in report.components)

    for n in range(1, cap + 1):
        m_sections = sections_power_exact(cfg, wb, n)
        if m_sections is None or m_sections <= 0:
            continue
        # the first sum at or below 0 rules out level n; later ones are skipped
        sums = tuple(takewhile(
            lambda s: s > 0, (_sum_lower_fast(bp, x, i, n) for i, x in enumerate(roots))
        ))
        if len(sums) < len(roots):
            continue
        ratios = tuple(
            beta * Fraction(n * m_sections, s) for beta, s in zip(betas, sums)
        )
        # max keeps the first of equal ratios
        worst = max(range(len(ratios)), key=ratios.__getitem__)
        if ratios[worst] < target:
            break
    else:
        raise InfeasibleError(f"no admissible N at or below {cap}")
    r_max = ratios[worst]

    # least b with (1 + 2/b) r < 1 + eps/2, so b > 2r / (1 + eps/2 - r)
    b = floor((2 * r_max) / (target - r_max)) + 1

    c_const = (1 + eps_half) / Fraction(m_sections * n)

    q_const = _upper(_q_exact(m_sections, n, eps_half, betas))
    beta_upper = tuple(map(_upper, betas))
    m0 = floor(q_const * sum(beta_upper) / eps_half) + 1

    return ConstantsChain(
        eps_target=eps_target,
        eps_half=eps_half,
        n=n,
        m_sections=m_sections,
        sums=sums,
        ratios=ratios,
        ratio_max=r_max,
        argmax=worst,
        b=b,
        c_const=c_const,
        q_const=q_const,
        beta_upper=beta_upper,
        m0=m0,
    )


# fields a verified chain must reproduce exactly; Q and the volume ratio
# upper bounds need only bound their exact values
_REBUILT_FIELDS = (
    "eps_half", "n", "m_sections", "sums", "ratios", "ratio_max", "argmax", "b",
    "c_const",
)


def verify_chain(
    cfg: SurfaceConfig, wb: WeightedBoundary, chain: ConstantsChain
) -> bool:
    """Rebuild the chain up to its level, then check the bounds it records.

    The rebuild reproduces every exact link, minimality of N included; the
    checks below re-derive b, Q, the volume ratio bounds and m0 by routes
    independent of feasible_chain.
    """
    report = build_report(cfg, wb)
    try:
        rebuilt = feasible_chain(cfg, wb, report, chain.eps_target, cap=chain.n)
    except InfeasibleError as exc:
        raise ChainMismatchError(f"chain does not rebuild: {exc}") from None
    for field in _REBUILT_FIELDS:
        if getattr(rebuilt, field) != getattr(chain, field):
            raise ChainMismatchError(f"{field} differs from its rebuilt value")

    # b satisfies the inequality and b - 1 does not
    target = 1 + chain.eps_half
    factor = Fraction(chain.b + 2, chain.b)
    if not factor * chain.ratio_max < target:
        raise ChainMismatchError("recorded b does not satisfy the inequality")
    if chain.b > 1:
        prev = Fraction(chain.b + 1, chain.b - 1)
        if prev * chain.ratio_max < target:
            raise ChainMismatchError("b is not minimal")

    betas = tuple(c.volume_ratio for c in report.components)
    q_exact = _q_exact(chain.m_sections, chain.n, chain.eps_half, betas)
    if not chain.q_const >= q_exact:
        raise ChainMismatchError("Q is not an upper bound")
    if len(chain.beta_upper) != len(betas) or any(
        u < beta for u, beta in zip(chain.beta_upper, betas)
    ):
        raise ChainMismatchError("a volume ratio upper bound fails")

    x = chain.q_const * sum(chain.beta_upper) / chain.eps_half
    if not chain.m0 > x:
        raise ChainMismatchError("m0 does not clear the threshold")
    if chain.m0 - 1 > x:
        raise ChainMismatchError("m0 is not minimal")
    return True
