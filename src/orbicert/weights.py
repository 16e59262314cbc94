"""Weight selection for the boundary components.

proportional_weights reproduces the closed-form choice for three paired
components plus a hyperplane: with degrees d1, d2, d3 set c = 4 d1 d2 d3,
give component i the weight c / d_i and the hyperplane 3c/4.  All four
are integers and the hyperplane weight is smaller than each of the others
whenever some d_i = 1.

search_weights enumerates positive integer weight vectors up to a bound
and keeps those whose full hypothesis checklist passes, optimizing either
the weight sum or the certified slack.  The checklist is decided with
integers first; only passing vectors get a full report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .certifier import build_report, checklist_holds
from .lattice import ConfigError, InternalError, SurfaceConfig
from .positivity import WeightedBoundary
from .quadext import QuadExt
from .sampling import ordered_map


def proportional_weights(cfg: SurfaceConfig) -> WeightedBoundary:
    """Closed-form weights for three paired components and one hyperplane."""
    paired = [c for c in cfg.components if c.paired]
    free = [c for c in cfg.components if not c.paired]
    if len(paired) != 3 or len(free) != 1 or free[0].degree != 1:
        raise ConfigError(
            "proportional weights need exactly three paired components and one line"
        )
    d1, d2, d3 = (c.degree for c in paired)
    c = 4 * d1 * d2 * d3
    return WeightedBoundary.make(
        [c // comp.degree if comp.paired else 3 * c // 4 for comp in cfg.components]
    )


@dataclass(frozen=True)
class SearchHit:
    weights: tuple[int, ...]
    slack: QuadExt
    slack_lower: Fraction
    weight_sum: int


@dataclass(frozen=True)
class SearchResult:
    objective: str
    bound: int
    feasible_count: int
    best: SearchHit | None
    hits: tuple[SearchHit, ...]


def _evaluate(cfg: SurfaceConfig, weights: tuple[int, ...]) -> SearchHit | None:
    # the integer decision rejects almost every vector; exact values are
    # built only for the vectors that pass
    wb = WeightedBoundary.make(weights)
    if not checklist_holds(cfg, wb):
        return None
    report = build_report(cfg, wb)
    if report.slack is None or report.slack.sign() <= 0:
        raise InternalError(
            f"weights {weights} pass the integer checklist but have slack {report.slack}"
        )
    return SearchHit(
        weights=weights,
        slack=report.slack,
        slack_lower=report.slack_lower,
        weight_sum=sum(weights),
    )


def _search_chunk(args) -> list[SearchHit]:
    cfg, bound, first = args
    r = len(cfg.components)
    hits = []
    for rest in itertools.product(range(1, bound + 1), repeat=r - 1):
        hit = _evaluate(cfg, (first, *rest))
        if hit is not None:
            hits.append(hit)
    return hits


def search_weights(
    cfg: SurfaceConfig,
    bound: int,
    objective: str = "min-sum",
    *,
    limit: int | None = None,
    processes: int = 1,
) -> SearchResult:
    """Exhaust integer weights in [1, bound]^r and rank passing vectors."""
    if objective not in ("min-sum", "max-slack"):
        raise ConfigError(f"unknown objective {objective!r}")
    if bound < 1:
        raise ConfigError("bound must be at least 1")
    if limit is not None and limit < 0:
        raise ConfigError(f"limit {limit} must not be negative")
    r = len(cfg.components)
    if r == 0:
        raise ConfigError("empty component list")

    tasks = [(cfg, bound, first) for first in range(1, bound + 1)]
    with ordered_map(_search_chunk, tasks, processes, 1) as chunks:
        hits: list[SearchHit] = [h for chunk in chunks for h in chunk]
    # ties break toward the smaller sum, then the lex smaller vector
    ordered = sorted(hits, key=lambda h: (h.weight_sum, h.weights))
    if objective == "max-slack":
        # max returns the first of equal slacks, the first in the order above
        best = max(ordered, key=lambda h: h.slack, default=None)
    else:
        best = ordered[0] if ordered else None
    if limit is not None:
        ordered = ordered[:limit]
    return SearchResult(
        objective=objective,
        bound=bound,
        feasible_count=len(hits),
        best=best,
        hits=tuple(ordered),
    )
