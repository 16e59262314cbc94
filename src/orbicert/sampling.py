"""Random configurations and weight vectors, the per-index sweep, the
boundary stress suite and the process pools.

Uniform weights almost never satisfy the filtration inequalities, so the
passing-candidate sampler scales the proportional vector: with three
paired components of degrees d1, d2, d3 and L = lcm(d), the weights
(4L/d1, 4L/d2, 4L/d3, 3L) pass, multiples pass by homogeneity, and small
jitter keeps a useful mix of passing and failing neighbours.

Every stress suite runs on _sweep: sample i draws from (suite, seed, i)
alone, so no process count changes a record and any index replays.
run_chunks maps chunks over worker processes: searches and sweeps hand it
their chunk arguments and merge what it returns.  It starts a pool per call,
unless the caller passes one: boundary_sweep keeps one pool for all its
rounds.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from contextlib import nullcontext
from math import lcm
from multiprocessing import Pool

from .certifier import build_report
from .lattice import InternalError, SurfaceConfig
from .positivity import WeightedBoundary

_MAX_PAIRED = 3


def random_config(rng: random.Random, max_degree: int = 4) -> SurfaceConfig:
    """A random boundary arrangement with at least two components."""
    n_paired = rng.randint(1, _MAX_PAIRED)
    degrees = [rng.randint(1, max_degree) for _ in range(n_paired)]
    pairings = [rng.randint(1, d) for d in degrees]
    hyperplane = n_paired == 1 or rng.random() < 0.8
    return SurfaceConfig.build(degrees, pairings, hyperplane=hyperplane)


def random_weights(
    rng: random.Random, cfg: SurfaceConfig, bound: int = 50
) -> WeightedBoundary:
    return WeightedBoundary.make(
        [rng.randint(1, bound) for _ in cfg.components]
    )


def random_passing_candidate(
    rng: random.Random, max_degree: int = 4, bound: int = 50
) -> tuple[SurfaceConfig, WeightedBoundary]:
    """Config plus weights with a high pass rate; jitter adds near misses."""
    degrees = [rng.randint(1, max_degree) for _ in range(3)]
    pairings = [rng.randint(1, d) for d in degrees]
    cfg = SurfaceConfig.build(degrees, pairings, hyperplane=True)
    scale = lcm(*degrees)
    base = [4 * scale // d for d in degrees] + [3 * scale]
    k = rng.randint(1, max(1, bound // max(base)))
    weights = [k * b for b in base]
    if rng.random() < 0.5:
        slot = rng.randrange(len(weights))
        weights[slot] = max(1, min(bound, weights[slot] + rng.choice((-1, 1))))
    return cfg, WeightedBoundary.make(weights)


def run_chunks(worker, args: list, processes: int, pool=None) -> list:
    """[worker(a) for a in args], mapped over a pool when more than one
    process would get work: at most one process per argument and per CPU,
    whatever processes asks for.  The pool is the given one, or else one
    started for this call."""
    processes = min(processes, len(args), os.cpu_count() or 1)
    if processes <= 1:
        return [worker(a) for a in args]
    if pool is not None:
        return pool.map(worker, args)
    with Pool(processes) as own:
        return own.map(worker, args)


def _sample_rng(suite: str, seed: int, index: int) -> random.Random:
    """Sample index's generator; the string key is injective and independent
    of PYTHONHASHSEED."""
    return random.Random(f"{suite}:{seed}:{index}")


def _run_range(args) -> list:
    sample, suite, seed, start, stop, params = args
    return [sample(_sample_rng(suite, seed, i), *params) for i in range(start, stop)]


def _sweep(
    sample, suite: str, samples: int, seed: int, processes: int, params: tuple, *,
    start=0, pool=None,
) -> list:
    """[sample(rng_i, *params) for i in range(start, start + samples)], rng_i
    drawn from (suite, seed, i).

    The indices are split into max(1, processes) contiguous ranges that run
    in index order, so no process count changes the result.  pool, if
    given, runs them instead of a pool of this call's own.
    """
    if samples < 0:
        raise ValueError("negative sample count")
    parts = max(1, processes)
    ends = [start + samples * k // parts for k in range(parts + 1)]
    args = [(sample, suite, seed, lo, hi, params) for lo, hi in zip(ends, ends[1:])]
    return [r for chunk in run_chunks(_run_range, args, processes, pool) for r in chunk]


def _tally(keys: tuple[str, ...], outcomes: list[tuple[str, ...]]) -> dict:
    """How many samples counted in each key; a sample names its keys."""
    counts = Counter(key for outcome in outcomes for key in outcome)
    return {key: counts[key] for key in keys}


def _boundary_sample(rng: random.Random, max_degree: int, bound: int) -> tuple[str, ...]:
    if rng.random() < 0.7:
        cfg, wb = random_passing_candidate(rng, max_degree=max_degree, bound=bound)
    else:
        cfg = random_config(rng, max_degree=max_degree)
        wb = random_weights(rng, cfg, bound=bound)
    # build_report cross-checks the square-root-free inequalities against
    # the exact volume ratios, and the closed-form ampleness against the
    # lattice test; a disagreement is an InternalError
    try:
        report = build_report(cfg, wb)
    except InternalError:
        return ("samples", "violations")
    if not report.ample.certified:
        return ("samples", "not_ample")
    if all(c.inequality_holds for c in report.components):
        return ("samples", "passes")
    return ("samples",)


def boundary_sweep(
    passes: int, *, seed: int = 0, processes: int = 1, max_degree: int = 4, bound: int = 50
) -> dict:
    """Boundary samples 0, 1, 2, ... until passes of them pass or 50 * passes
    are drawn; returns the tallies of the drawn samples.

    Each round draws as many new indices as passes are still missing, so the
    draws end at the last pass (or the cap) whatever the process count.  All
    rounds share one pool, started only when more than one CPU would work.
    """
    params = (max_degree, bound)
    cap, missing, outcomes = 50 * passes, passes, []
    workers = min(processes, os.cpu_count() or 1)
    with Pool(workers) if workers > 1 and passes > 0 else nullcontext() as pool:
        while missing > 0 and len(outcomes) < cap:
            start = len(outcomes)
            count = min(missing, cap - start)
            drawn = _sweep(
                _boundary_sample, "boundary", count, seed, processes, params,
                start=start, pool=pool,
            )
            missing -= sum("passes" in outcome for outcome in drawn)
            outcomes += drawn
    return _tally(("samples", "passes", "not_ample", "violations"), outcomes)
