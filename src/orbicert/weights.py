"""Weight selection for the boundary components.

proportional_weights reproduces the closed-form choice for three paired
components plus a hyperplane: with degrees d1, d2, d3 set c = 4 d1 d2 d3,
give component i the weight c / d_i and the hyperplane 3c/4.  All four
are integers.  Since 3c/4 < c/d_i exactly when d_i = 1, the hyperplane
weight is the least of the four only when every paired degree is 1:
degrees (1, 2, 2) give (16, 8, 8, 12).

search_weights enumerates positive integer weight vectors up to a bound
and keeps those whose full hypothesis checklist passes, optimizing either
the weight sum or the certified slack.  Permuting weights among
interchangeable components never changes a verdict, so the search decides
one sorted representative per orbit and expands each passing orbit into
its permutations.  The checklist is decided with integers first; only
passing orbits get a full report.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .certifier import _BLOCKING, build_report, checklist_holds, config_hypotheses
from .lattice import ConfigError, InternalError, SurfaceConfig
from .positivity import WeightedBoundary
from .quadext import QuadExt
from .sampling import ordered_map


def proportional_weights(cfg: SurfaceConfig) -> WeightedBoundary:
    """Closed-form weights for three paired components and one hyperplane.

    The hyperplane gets 3c/4, below c/d_i only where d_i = 1; so it is the
    least weight only when all three paired degrees are 1.
    """
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
    # the walk's ints lie in [1, bound] and need no WeightedBoundary.make;
    # exact values are built only for the vectors the integer rule passes
    wb = WeightedBoundary(weights)
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


def _orbit_groups(cfg: SurfaceConfig) -> list[list[int]]:
    """Component indices grouped by the data the checklist reads.

    _component_holds, the closed forms in build_report and
    ample_class_sufficient read a component's degree and paired flag and
    nothing else of it: its point count is d^2 exactly when it is paired
    (SurfaceConfig.validate enforces this), and its pairing degree plays no
    part.  Permuting weights within a group only reorders the report's
    components, so every vector of an orbit shares its verdict, slack and
    slack_lower.  Groups come in order of their first component, so
    component 0 lies in the first group.
    """
    groups: dict[tuple[int, bool], list[int]] = {}
    for i, comp in enumerate(cfg.components):
        groups.setdefault((comp.degree, comp.paired), []).append(i)
    return list(groups.values())


def _distinct_permutations(items: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every distinct ordering of a sorted tuple, in lexicographic order."""
    perm = list(items)
    while True:
        yield tuple(perm)
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1 :] = reversed(perm[i + 1 :])


def _orbits(
    sizes: list[int], bound: int, first: int | None = None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """One sorted tuple in [1, bound] per group size, lazily.

    The first group's least weight is ``first`` when it is given.
    itertools.product would first store every group's tuples, about
    bound^k / k! of them for a group of k components.
    """
    if not sizes:
        yield ()
        return
    cwr = itertools.combinations_with_replacement
    if first is None:
        heads = cwr(range(1, bound + 1), sizes[0])
    else:
        heads = ((first, *t) for t in cwr(range(first, bound + 1), sizes[0] - 1))
    for head in heads:
        for rest in _orbits(sizes[1:], bound):
            yield (head, *rest)


def _place(tuples, slot: list[int]) -> tuple[int, ...]:
    """The weight vector in component order from one tuple per group."""
    flat = tuple(itertools.chain.from_iterable(tuples))
    return tuple(flat[k] for k in slot)


def _search_chunk(args) -> list[SearchHit]:
    """Every passing vector whose first group has least weight ``first``.

    One sorted tuple per group names an orbit; _evaluate decides one vector
    of it, and a passing orbit yields a hit for each distinct permutation.
    """
    cfg, bound, first = args
    groups = _orbit_groups(cfg)
    order = [i for group in groups for i in group]
    # slot[i]: where component i's weight sits in the group-ordered tuple
    slot = [order.index(i) for i in range(cfg.r)]
    hits = []
    for orbit in _orbits([len(g) for g in groups], bound, first):
        hit = _evaluate(cfg, _place(orbit, slot))
        if hit is not None:
            hits.extend(
                SearchHit(_place(perm, slot), hit.slack, hit.slack_lower, hit.weight_sum)
                for perm in itertools.product(*map(_distinct_permutations, orbit))
            )
    return hits


def search_weights(
    cfg: SurfaceConfig,
    bound: int,
    objective: str = "min-sum",
    *,
    limit: int | None = None,
    processes: int = 1,
) -> SearchResult:
    """Exhaust integer weights in [1, bound]^r and rank passing vectors.

    The walk decides one vector per orbit of interchangeable components
    (_orbit_groups); feasible_count and hits still count every vector.  A
    config that fails one of certify's weight-independent hypotheses
    (config_hypotheses) has no passing vector.
    """
    if objective not in ("min-sum", "max-slack"):
        raise ConfigError(f"unknown objective {objective!r}")
    if bound < 1:
        raise ConfigError("bound must be at least 1")
    if limit is not None and limit < 0:
        raise ConfigError(f"limit {limit} must not be negative")
    if not cfg.components:
        raise ConfigError("empty component list")
    if any(h.status in _BLOCKING for h in config_hypotheses(cfg)):
        # certify passes no weights at all on such a config
        return SearchResult(objective, bound, 0, None, ())

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
