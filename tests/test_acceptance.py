"""Acceptance gate: one test per published criterion, with runtime budgets.

Every test prints a single criterion line so a verbose run reads as a
checklist.  All arithmetic assertions are exact; the only floating point
below is the Decimal interval cross-check, which uses directed rounding.
"""

import contextlib
import io
import itertools
import json
import os
import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction

from orbicert import cli
from orbicert.catalog import load_builtin
from orbicert.certifier import build_report
from orbicert.constants import feasible_chain, verify_chain
from orbicert.ffheights import (
    probe_sweep,
    product_formula_sweep,
    random_map,
    realization_from_config,
    subspace_sweep,
)
from orbicert.ffheights import height_bound_probe, ProbeExcluded
from orbicert.lattice import SurfaceConfig
from orbicert.orbifold import (
    PullbackProfile,
    induced_multiplicities,
    is_orbifold_morphism,
    support_bound,
)
from orbicert.positivity import WeightedBoundary
from orbicert.quadext import QuadExt, compare_cross
from orbicert.constants import filtration_sections_lower, sections_power_exact

FOUR_LINES = load_builtin("four-lines")
WEIGHTS = WeightedBoundary.make([4, 4, 4, 3])
INF_PLACES = float("inf")


def _report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_four_lines_exact_values():
    start = time.monotonic()
    report = build_report(FOUR_LINES, WEIGHTS)

    assert report.dp_square == 177
    for check in report.components[:3]:
        assert check.dp_pairing == 11
        assert check.truncation_root == QuadExt(Fraction(177, 22))
        # at the root the inequality reduces to 177 > 4 * 4 * 11
        assert 177 > 4 * 4 * 11
        assert check.inequality_holds == (177 > 176)
    hyp = report.components[3]
    assert hyp.dp_pairing == 15
    xi = hyp.truncation_root
    assert xi == QuadExt(15, -4, 3)
    assert xi.a == 15 and xi.b == -4 and xi.delta == 3
    lhs = 2 * 177 * xi
    rhs = 15 * xi * xi + 9 * 177
    assert (lhs - rhs).sign() > 0
    assert hyp.inequality_holds

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(f"criterion 1 (exact benchmark values): PASS in {elapsed:.3f}s")


def test_criterion_2_plane_ratio_closed_form():
    start = time.monotonic()
    for a in (1, 3):
        cfg = SurfaceConfig.build(
            [], [], hyperplane=True, allow_single_component=True
        )
        wb = WeightedBoundary.make([a])
        report = build_report(cfg, wb)
        closed = report.components[0].volume_ratio
        assert closed == QuadExt(Fraction(a, 3))
        for n in range(1, 201):
            s = filtration_sections_lower(cfg, wb, 0, n)
            m = sections_power_exact(cfg, wb, n)
            assert m is not None and m > 0
            assert Fraction(s, n * m) == Fraction(a, 3)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(
        f"criterion 2 (plane ratio equals a/3 at every level to 200): "
        f"PASS in {elapsed:.3f}s"
    )


def test_criterion_3_line_ratio_and_slack_cross_check():
    start = time.monotonic()
    report = build_report(FOUR_LINES, WEIGHTS)
    for check in report.components[:3]:
        assert check.volume_ratio == QuadExt(Fraction(1947, 484))
    assert report.slack_lower == Fraction(1, 176)
    assert report.slack == QuadExt(Fraction(1, 176))

    # rebuild the line value from the closed formula with bare Fractions
    x = Fraction(177, 22)
    beta_line = (Fraction(2, 3) * x * 177 - Fraction(1, 3) * 11 * x * x) / 177
    assert beta_line == Fraction(1947, 484)
    assert (beta_line - 4) / 4 == Fraction(1, 176)

    # 50-digit interval for sqrt(3): pad the rounded value by one ulp each
    # way, then prove the bounds exactly (sqrt ignores directed rounding)
    getcontext().prec = 50
    mid = Fraction(str(Decimal(3).sqrt()))
    ulp = Fraction(1, 10**49)
    lo, hi = mid - ulp, mid + ulp
    assert lo * lo <= 3 <= hi * hi
    assert hi - lo < Fraction(1, 10**45)

    # the truncation root interval brackets the canonical quadratic value
    xi_lo, xi_hi = 15 - 4 * hi, 15 - 4 * lo
    assert xi_lo < xi_hi
    q = lambda v: v * v - 30 * v + 177
    assert q(xi_lo) * q(xi_hi) <= 0
    xi = report.components[3].truncation_root
    assert QuadExt(xi_lo) < xi < QuadExt(xi_hi)

    # hyperplane slack stays above 1/176, so the minimum is the line value
    beta4_lo = Fraction(135, 59) + Fraction(128, 177) * lo
    assert (beta4_lo - 3) / 3 > Fraction(1, 176)

    elapsed = time.monotonic() - start
    _report(
        f"criterion 3 (line ratio 1947/484, slack 1/176, interval check): "
        f"PASS in {elapsed:.3f}s"
    )


def test_criterion_4_randomized_equivalence():
    start = time.monotonic()
    # the boundary stress suite runs build_report on every sample, and the
    # report raises when an inequality and its volume ratio disagree
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["stress", "--suite", "boundary", "--samples", "500", "--seed", "2024"])
    final = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert final["violations"] == 0
    assert final["passes"] >= 500
    elapsed = time.monotonic() - start
    _report(
        f"criterion 4 (inequality implies ratio above weight on {final['passes']} "
        f"passing configs, {final['samples']} sampled): PASS in {elapsed:.3f}s"
    )


def test_criterion_5_constants_chain_reverifies():
    start = time.monotonic()
    chain = feasible_chain(FOUR_LINES, WEIGHTS, None, Fraction(1, 176), cap=500)
    assert verify_chain(FOUR_LINES, WEIGHTS, chain) is True

    # the scaled feasibility inequality at the recorded b, and minimality of m0
    target = QuadExt(1 + chain.eps_half)
    factor = QuadExt(Fraction(chain.b + 2, chain.b))
    assert compare_cross(factor * chain.ratio_max, target) < 0
    x = chain.q_const * sum(chain.beta_upper) / chain.eps_half
    assert chain.m0 > x
    assert not (chain.m0 - 1 > x)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        f"criterion 5 (constants chain N={chain.n}, b={chain.b}, "
        f"m0={chain.m0} re-verifies): PASS in {elapsed:.3f}s"
    )


def test_criterion_6_subspace_and_product_sweeps():
    start = time.monotonic()
    # the process count only spreads the work: sample i draws from
    # (suite, seed, i), so every machine tests the same maps
    processes = os.cpu_count() or 1
    out = subspace_sweep(
        100_000, seed=2026, processes=processes, max_m=3, max_deg=10, bound=100
    )
    assert out["violations"] == 0
    assert out["fmt_failures"] == 0
    assert out["samples"] >= 99_000

    formula = product_formula_sweep(10_000, seed=2026, processes=processes)
    assert formula["samples"] == 10_000
    assert formula["failures"] == 0

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        f"criterion 6 (subspace inequality on {out['samples']} maps, "
        f"height identity on every sample, product formula on 10000): "
        f"PASS in {elapsed:.3f}s"
    )


def test_criterion_7_profile_bound_and_induced_minimality():
    start = time.monotonic()
    rng = random.Random(4096)
    for _ in range(10_000):
        n_comp = rng.randint(1, 4)
        points = []
        for i in range(rng.randint(1, 5)):
            met = rng.sample(range(n_comp), rng.randint(1, n_comp))
            points.append((f"x{i}", {j: rng.randint(1, 4) for j in met}))
        target = [
            INF_PLACES if rng.random() < 0.25 else rng.randint(1, 9)
            for _ in range(n_comp)
        ]
        profile = PullbackProfile.make(points, n_comp)
        lhs, rhs = support_bound(profile, target)
        assert lhs <= rhs

    cases = 0
    for delta in range(1, 4):
        for orders in itertools.product(range(1, 5), repeat=delta):
            profile = PullbackProfile.make(
                [("p", {j: orders[j] for j in range(delta)})], delta
            )
            t_total = sum(orders)
            for targets in itertools.product(range(1, 10), repeat=delta):
                induced = induced_multiplicities(profile, targets)
                n = induced[0]
                assert n == max(-(-targets[j] // t_total) for j in range(delta))
                assert is_orbifold_morphism(profile, [n], targets)
                if n >= 2:
                    assert not is_orbifold_morphism(profile, [n - 1], targets)
                cases += 1
    elapsed = time.monotonic() - start
    _report(
        f"criterion 7 (counting bound on 10000 profiles, induced minimal "
        f"on {cases} exhaustive cases): PASS in {elapsed:.3f}s"
    )


def test_criterion_8_probe_self_consistency():
    start = time.monotonic()
    realization = realization_from_config(FOUR_LINES)
    samples = 14_000
    seed = 77
    out = probe_sweep(
        FOUR_LINES,
        WEIGHTS,
        realization,
        samples,
        seed=seed,
        processes=1,
        max_deg=8,
        bound=50,
    )
    assert out["samples"] >= 10_000
    alpha = Fraction(out["alpha_emp"])
    assert alpha > 0

    def replay(index):
        x = random_map(random.Random(f"probe:{seed}:{index}"), 2, 8, 50)
        return height_bound_probe(FOUR_LINES, WEIGHTS, realization, x)

    # replay every sample from its index and check each curve individually
    seen = 0
    worst = Fraction(0)
    for index in range(samples):
        try:
            record = replay(index)
        except ProbeExcluded:
            continue
        seen += 1
        bound = alpha * max(1, record.support_count - 2)
        assert record.pullback_degree <= bound
        worst = max(worst, record.ratio)
    assert seen == out["samples"]
    assert worst == alpha
    # the worst case alone, rebuilt from its index, gives alpha_emp exactly
    record = replay(out["worst"]["index"])
    assert record.ratio == alpha
    assert (record.height, str(record.pullback_degree), record.support_count) == (
        out["worst"]["height"], out["worst"]["degree"], out["worst"]["support"]
    )

    elapsed = time.monotonic() - start
    _report(
        f"criterion 8 (no curve among {seen} beats alpha_emp={alpha}): "
        f"PASS in {elapsed:.3f}s"
    )
