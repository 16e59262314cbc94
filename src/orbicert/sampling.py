"""Random configurations and weight vectors for sweeps, and the one process pool.

Uniform weights almost never satisfy the filtration inequalities, so the
passing-candidate sampler scales the proportional vector: with three
paired components of degrees d1, d2, d3 and L = lcm(d), the weights
(4L/d1, 4L/d2, 4L/d3, 3L) pass, multiples pass by homogeneity, and small
jitter keeps a useful mix of passing and failing neighbours.

run_chunks is the only place that starts worker processes: searches and
sweeps hand it their chunk arguments and merge what it returns.
"""

from __future__ import annotations

import os
import random
from math import lcm
from multiprocessing import Pool

from .lattice import SurfaceConfig
from .positivity import WeightedBoundary


def random_config(
    rng: random.Random, max_degree: int = 4, max_paired: int = 3
) -> SurfaceConfig:
    """A random boundary arrangement with at least two components."""
    n_paired = rng.randint(1, max_paired)
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


def run_chunks(worker, args: list, processes: int) -> list:
    """[worker(a) for a in args], mapped over a pool when more than one
    process would get work.  The pool has at most one process per argument
    and per CPU, whatever processes asks for."""
    processes = min(processes, len(args), os.cpu_count() or 1)
    if processes > 1:
        with Pool(processes) as pool:
            return pool.map(worker, args)
    return [worker(a) for a in args]
