"""Random configurations and weight vectors, the per-index sweep, the
boundary stress suite and the ordered sample stream.

Uniform weights almost never satisfy the filtration inequalities, so the
passing-candidate sampler scales the proportional vector: with three
paired components of degrees d1, d2, d3 and L = lcm(d), the weights
(4L/d1, 4L/d2, 4L/d3, 3L) pass, multiples pass by homogeneity, and small
jitter keeps a useful mix of passing and failing neighbours.

Sample i of a stress suite, _sample_at(..., i), draws from (suite, seed, i)
alone, so no process count changes a record and any index replays.  The
sweeps read ordered_map's in-order stream whole; boundary_sweep stops at
its last pass.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from contextlib import contextmanager
from functools import partial
from math import lcm
from multiprocessing import Pool

from .certifier import build_report
from .lattice import MAX_PAIRED_DEGREE, ConfigError, InternalError, SurfaceConfig
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


@contextmanager
def ordered_map(worker, items, processes: int, chunk: int):
    """Yields worker(a) for a in items, in item order; a pool of at most one
    process per item and per CPU runs chunk items per task when more than
    one would work, and ends with the block, early exits included."""
    workers = min(processes, len(items), os.cpu_count() or 1)
    if workers <= 1:
        yield map(worker, items)
        return
    with Pool(workers) as pool:
        yield pool.imap(worker, items, chunk)


def _sample_rng(suite: str, seed: int, index: int) -> random.Random:
    """Sample index's generator; the string key is injective and independent
    of PYTHONHASHSEED."""
    return random.Random(f"{suite}:{seed}:{index}")


def _sample_at(sample, suite: str, seed: int, params: tuple, index: int):
    """Sample index of a suite; every sweep draws through here, so any index
    replays on its own."""
    return sample(_sample_rng(suite, seed, index), *params)


def _sweep(
    sample, suite: str, samples: int, seed: int, processes: int, params: tuple
) -> list:
    """[_sample_at(sample, suite, seed, params, i) for i in range(samples)],
    in contiguous chunks of ceil(samples / processes) indices."""
    if samples < 0:
        raise ConfigError(f"samples {samples} must not be negative")
    at = partial(_sample_at, sample, suite, seed, params)
    chunk = -(-samples // max(1, processes))
    with ordered_map(at, range(samples), processes, chunk) as outcomes:
        return list(outcomes)


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
    # lattice test; a disagreement is an InternalError.  Only the verdicts
    # are read, so the report never builds a component record or a slack
    try:
        report = build_report(cfg, wb)
    except InternalError:
        return ("samples", "violations")
    if not report.ample.certified:
        return ("samples", "not_ample")
    if report.passes:
        return ("samples", "passes")
    return ("samples",)


def boundary_sweep(
    passes: int, *, seed: int = 0, processes: int = 1, max_degree: int = 4, bound: int = 50
) -> dict:
    """Tallies of boundary samples 0, 1, 2, ... up to the passes-th pass, or
    to 50 * passes samples.  The stream is read in index order, so the draws
    end there at any process count; what a pool computed past it is dropped.
    """
    if passes < 0:
        raise ConfigError(f"passes {passes} must not be negative")
    for name, value in (("max degree", max_degree), ("coefficient bound", bound)):
        if value < 1:
            raise ConfigError(f"{name} {value} must be at least 1")
    if max_degree > MAX_PAIRED_DEGREE:
        raise ConfigError(f"max degree {max_degree} must be at most {MAX_PAIRED_DEGREE}")
    at = partial(_sample_at, _boundary_sample, "boundary", seed, (max_degree, bound))
    chunk = -(-passes // max(1, processes))
    outcomes, passed = [], 0
    with ordered_map(at, range(50 * passes), processes, chunk) as stream:
        for outcome in stream:
            outcomes.append(outcome)
            passed += "passes" in outcome
            if passed == passes:
                break
    return _tally(("samples", "passes", "not_ample", "violations"), outcomes)
