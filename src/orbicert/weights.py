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
its permutations.  Orbits are not tested one by one: the walk fixes every
weight but the largest, t, of one unpaired group, and the passing t then
form one interval, whose ends certifier._component_holds decides in
integers by bisection.  Each passing orbit gets one full report, whose
verdict admits it, and checklist_holds refuses the two neighbours just
outside each interval.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .certifier import _ample, _component_holds, _orbit_sums
from .certifier import build_report, checklist_holds, config_blocker
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


def _evaluate(cfg: SurfaceConfig, weights: tuple[int, ...]) -> SearchHit:
    """The hit of a vector the kernel admitted, with its exact slack.

    The walk's ints lie in [1, bound] and need no WeightedBoundary.make.
    build_report decides the vector again, apart from the kernel; a
    disagreement, or a slack that is not positive, is an InternalError.
    """
    report = build_report(cfg, WeightedBoundary(weights))
    if not report.passes:
        raise InternalError(f"search admitted weights {weights}, which build_report rejects")
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
    slack_lower.  Groups come in order of their first component.
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


def _least(holds, low: int, high: int) -> int:
    """The least t in [low, high] with holds(t), or high + 1, for a holds
    that is false and then true on the range.  The result is confirmed on
    both sides: holds(t) was true, and holds(t - 1) false unless t = low."""
    while low <= high:
        mid = (low + high) // 2
        if holds(mid):
            high = mid - 1
        else:
            low = mid + 1
    return low


def _passing(kinds, prefix, low: int, high: int) -> range:
    """The t in [low, high] for which the orbit prefix + (t,) passes.

    With h and S fixed each rule only gets harder as a = p_i d_i grows:
    a paired component holds iff h - 2a > sqrt(S) (the other root of
    (h - 2a)^2 > S would need a > h), an unpaired one iff
    3a < h - 2S/(h + sqrt(S)).  So a group holds iff its largest weight does.

    kinds[-1] is an unpaired group of degree d, and t its largest weight.
    S is fixed and h = H0 + d t.  Every other group's rule, at its largest
    weight, only gets easier as h grows, so those rules hold from some t
    on.  t's own rule only gets harder wherever h > sqrt(S), which those
    rules imply: 3 d t grows faster than h - 2S/(h + sqrt(S)), whose slope
    is below 3d/2.  The caller confirms each end: build_report admits the
    orbits inside, and checklist_holds refuses the neighbours outside.
    """
    d = kinds[-1][0]
    h0, s = _orbit_sums(kinds, prefix)
    tops = [(ws[-1] * dg, paired) for (dg, paired), ws in zip(kinds, prefix[:-1])]

    def others_hold(t: int) -> bool:
        return all(_component_holds(h0 + d * t, s, a, paired) for a, paired in tops)

    def own_fails(t: int) -> bool:
        return not _component_holds(h0 + d * t, s, d * t, False)

    start = _least(others_hold, low, high)
    return range(start, _least(own_fails, start, high))


def _walk(cfg: SurfaceConfig) -> tuple[list[list[int]], list[tuple[int, bool]]]:
    """_orbit_groups with its last unpaired group moved to the end, and
    each group's (degree, paired).  The config has an unpaired component."""
    groups = _orbit_groups(cfg)
    kinds = [(cfg.components[g[0]].degree, cfg.components[g[0]].paired) for g in groups]
    last = max(g for g, (_, paired) in enumerate(kinds) if not paired)
    groups.append(groups.pop(last))
    kinds.append(kinds.pop(last))
    return groups, kinds


def _search_chunk(cfg: SurfaceConfig, bound: int, first: int) -> list[SearchHit]:
    """Every passing vector whose first walked group has least weight ``first``.

    Ampleness needs an unpaired component.  The walk puts one unpaired group
    last and fixes every weight but that group's largest, t; the passing t
    then form one interval (_passing).  _evaluate decides one vector per
    passing orbit, and each distinct permutation of it is a hit; the vector
    just outside each end must fail checklist_holds.
    """
    if not _ample(cfg):
        return []
    groups, kinds = _walk(cfg)
    order = [i for group in groups for i in group]
    # slot[i]: where component i's weight sits in the group-ordered tuple
    slot = [order.index(i) for i in range(cfg.r)]
    sizes = [len(g) for g in groups]
    sizes[-1] -= 1
    # a lone component's weight t is itself the first walked group's least
    lone = sizes == [0]
    hits = []
    for prefix in [((),)] if lone else _orbits(sizes, bound, first):
        # t is at least the other weights of its group
        low, high = (first, first) if lone else (max(prefix[-1], default=1), bound)
        ts = _passing(kinds, prefix, low, high)
        for t in (ts[0] - 1, ts[-1] + 1) if ts else ():
            outside = _place((*prefix[:-1], (*prefix[-1], t)), slot)
            if low <= t <= high and checklist_holds(cfg, WeightedBoundary(outside)):
                raise InternalError(f"orbit prefix {prefix}: {outside} passes outside {ts}")
        for t in ts:
            orbit = (*prefix[:-1], (*prefix[-1], t))
            hit = _evaluate(cfg, _place(orbit, slot))
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

    The walk decides one interval of orbits of interchangeable components
    (_orbit_groups) per orbit prefix (_passing); feasible_count and hits
    still count every vector.  A config that fails one of certify's
    weight-independent hypotheses (config_blocker) has no passing vector.
    """
    if objective not in ("min-sum", "max-slack"):
        raise ConfigError(f"unknown objective {objective!r}")
    if bound < 1:
        raise ConfigError("bound must be at least 1")
    if limit is not None and limit < 0:
        raise ConfigError(f"limit {limit} must not be negative")
    if not cfg.components:
        raise ConfigError("empty component list")
    if config_blocker(cfg) is not None:
        # certify passes no weights at all on such a config
        return SearchResult(objective, bound, 0, None, ())

    decide = partial(_search_chunk, cfg, bound)
    with ordered_map(decide, range(1, bound + 1), processes, 1) as chunks:
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
