"""Checks of the benchmark itself, on tiny blocks.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done


def run_ok(workload, trace, calls=4, seed=3):
    done = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--calls", str(calls),
    )
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(workload):
    record, result = run_ok(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == record["calls"] >= 4
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("git_sha", "python", "sympy", "nproc", "seed", "sha256"):
        assert key in record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced(workload):
    plain, _ = run_ok(workload, trace=0)
    traced, result = run_ok(workload, trace=1)
    assert result["correct"] is True
    assert traced["sha256"] == traced["sha256_traced"] == plain["sha256"]
    assert traced["tally"] == traced["tally_traced"] == plain["tally"]
    assert "trace_overhead" in traced
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    spans = (ROOT / traced["trace_file"]).read_text().splitlines()
    assert len(spans) == traced["spans_kept"] > 0
    first = json.loads(spans[0])
    assert set(first) == {"name", "start", "end", "span", "parent", "call"}


def _snapshot(modules):
    """Identity of every attribute of the modules and of their classes."""
    out = {}
    for m in modules:
        for attr, obj in vars(m).items():
            out[(m.__name__, attr)] = id(obj)
            if isinstance(obj, type) and obj.__module__ == m.__name__:
                for name, raw in vars(obj).items():
                    out[(m.__name__, attr, name)] = id(raw)
    return out


def test_tracer_restores_every_name():
    import importlib

    import run
    from tracer import Tracer

    modules = [importlib.import_module(f"orbicert.{m}") for m in run.MODULES]
    import orbicert
    import workloads

    holders = [orbicert, *modules, workloads]
    before = _snapshot(holders)
    lattice, certifier, quadext = (
        importlib.import_module(f"orbicert.{m}") for m in ("lattice", "certifier", "quadext")
    )
    original = lattice.intersect
    tracer = Tracer()
    tracer.install(modules, extra_modules=(workloads,))
    try:
        # names imported with "from .lattice import intersect" are rebound too
        assert lattice.intersect is not original
        assert certifier.intersect is lattice.intersect is orbicert.intersect
        wl = workloads.Certify(seed=5)
        tracer.active = True
        wl.execute(wl.prepare(1))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert _snapshot(holders) == before
    assert lattice.intersect is original
    stats = tracer.stats()
    assert stats["certifier.certify"][0] == 1
    assert stats["quadext.construct"][0] > 0
    assert stats["lattice.intersect"][0] > 0
    for calls, self_s, total_s in stats.values():
        assert self_s <= total_s + 1e-9


def test_fails_without_the_program():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
