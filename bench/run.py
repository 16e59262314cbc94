"""orbicert benchmark: one closed-loop caller, one process, exact outputs checked.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a record of the run: versions, git sha, CPU count, seed, the sha256 of the
outputs of the first block of calls, tallies and, with ``--trace 1``, the
tracing overhead.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "out"

MODULES = (
    "quadext", "polys", "lattice", "positivity", "certifier", "constants",
    "orbifold", "ffheights", "weights", "sampling", "catalog", "cli",
)
MIN_REPEATS = 3
# the reference kernel's time on an idle moment of a 2-CPU x86-64 VM with
# Python 3.11; measured times are reported at that speed (see README)
REFERENCE_QUIET_S = 1.35e-3
PROBE_INTERVAL_S = 0.2
SETUP_BUDGET_S = 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def user_setup(workload: str) -> None:
    """What a user pays on every run: imports, bundled configs, lazy pools."""
    import orbicert.cli  # noqa: F401  (loads every module the command line uses)
    from orbicert import catalog, ffheights

    configs = {n: catalog.load_builtin(n) for n in catalog.builtin_names()}
    if workload == "sweeps":
        ffheights.realization_from_config(configs["four-lines"])
        # the first sample builds the sympy-certified place pool
        ffheights.product_formula_sweep(1)


def reference_kernel() -> Fraction:
    """Fixed pure-Python work of the kind orbicert does: rationals and dicts."""
    acc = Fraction(0)
    buckets: dict[int, int] = {}
    for k in range(1, 500):
        acc += Fraction(k % 7 + 1, k)
        buckets[k % 17] = buckets.get(k % 17, 0) + k
    return acc


def reference_s() -> float:
    """Seconds the reference kernel takes now: the least of two runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def to_quiet(elapsed: float, refs: list[float]) -> float:
    """Scale a time measured while the reference kernel took ``refs`` to the
    machine speed at which it takes REFERENCE_QUIET_S."""
    return elapsed * REFERENCE_QUIET_S / statistics.fmean(refs)


_SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run
before = run.reference_s()
start = time.perf_counter()
run.user_setup(sys.argv[3])
elapsed = time.perf_counter() - start
print(repr(run.to_quiet(elapsed, [before, run.reference_s()])))
"""


def measure_setup(workload: str, budget_s: float) -> list[float]:
    """Set-up seconds in fresh interpreters, one after another, for about
    ``budget_s`` seconds and at least twice."""
    out = []
    start = time.perf_counter()
    while len(out) < 2 or time.perf_counter() - start < budget_s:
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(BENCH_DIR), str(SRC), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    from importlib import metadata

    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = "missing"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "sympy": sympy_version,
        "nproc": nproc,
        "seed": seed,
    }


class Block:
    """One pass over the calls of a block, in order: latencies and outputs."""

    def __init__(self, workload, tracer=None, probe=True):
        self.workload = workload
        self.tracer = tracer
        self.probe = probe
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.ref = reference_s()
        self.blobs: list[bytes | None] = []
        self.ops = 0
        self.failures: list[str] = []
        self.tally: dict = {}

    def run(self) -> "Block":
        for index in range(self.workload.block):
            self._call(index)
        return self

    def _call(self, index: int) -> None:
        wl = self.workload
        prepared = wl.prepare(index)
        tracer = self.tracer
        if tracer is not None:
            tracer.call_id = index
            tracer.active = True
        # the reference kernel's time before, every PROBE_INTERVAL_S during,
        # and after the call; the probing time is taken out of the call's
        refs = [self.ref]
        probe = [0.0, True]  # seconds spent probing, call still running

        def tick(signum, frame):
            if probe[1]:
                begin = time.perf_counter()
                refs.append(reference_s())
                probe[0] += time.perf_counter() - begin

        if self.probe:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            start = time.perf_counter()
            try:
                out = wl.execute(prepared)
                error = None
            except Exception as exc:  # a call that raises counts as failed
                out, error = None, exc
            probe[1] = False
            end = time.perf_counter()
        finally:
            if self.probe:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        if tracer is not None:
            tracer.active = False
        elapsed = end - start - probe[0]
        self.ref = reference_s()
        refs.append(self.ref)
        self.raw_latencies.append(elapsed)
        self.latencies.append(to_quiet(elapsed, refs))
        blob = None
        if error is None:
            try:
                blob = wl.check(prepared, out, self.tally)
            except Exception as exc:  # a wrong output counts as failed
                error = exc
        if error is not None:
            self.failures.append(
                f"call {index} ({prepared.kind}): "
                + "".join(traceback.format_exception_only(type(error), error)).strip()
            )
        else:
            self.ops += prepared.ops
        self.blobs.append(blob)

    def digest(self) -> str:
        h = hashlib.sha256()
        for blob in self.blobs:
            blob = b"FAILED" if blob is None else blob
            h.update(len(blob).to_bytes(8, "big") + blob)
        return h.hexdigest()


def call_metrics(ops: int, times: list[float]) -> dict:
    return {
        "throughput_ops_per_s": ops / sum(times),
        "latency_p50_ms": statistics.median(times) * 1000.0,
        "latency_p90_ms": statistics.quantiles(times, n=10)[8] * 1000.0,
    }


def run_untraced(workload, seconds: float) -> tuple[dict, dict]:
    """Repeat the first block until ``seconds`` of calls and MIN_REPEATS
    passes are done; each call's time is the median of its repeats.

    Set-up is timed before each of the first MIN_REPEATS passes, so that its
    samples are spread over the run like the calls are.
    """
    passes: list[Block] = []
    setup_samples: list[float] = []
    busy = 0.0
    while len(passes) < MIN_REPEATS or busy < seconds:
        if len(passes) < MIN_REPEATS:
            setup_samples += measure_setup(workload.name, SETUP_BUDGET_S / MIN_REPEATS)
        done = Block(workload).run()
        busy += sum(done.latencies)
        passes.append(done)
    first = passes[0]
    failures = [f for p in passes for f in p.failures]
    for p in passes[1:]:
        for index, (a, b) in enumerate(zip(first.blobs, p.blobs)):
            if a is not None and b is not None and a != b:
                failures.append(f"call {index}: output differs between repeats")
    times = [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]
    raw = [statistics.median(lat) for lat in zip(*(p.raw_latencies for p in passes))]
    attempted = workload.block * len(passes)
    metrics = {"setup_s": statistics.median(setup_samples), **call_metrics(first.ops, times)}
    record = {
        "calls": attempted,
        "repeats": len(passes),
        "ops_per_repeat": first.ops,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:5],
        "digest_calls": workload.block,
        "sha256": first.digest(),
        "tally": first.tally,
        "busy_s": busy,
        "setup_samples_s": setup_samples,
        "wall_clock": call_metrics(first.ops, raw),
    }
    return metrics, record


def run_traced(make_workload, module_objs, workload_module) -> tuple[dict, dict]:
    """Traced set-up, then the first block untraced and the same block traced.

    The tracer is removed for the untraced block, so that block is the
    baseline for the tracing overhead and for the outputs to compare.
    """
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(module_objs, extra_modules=(workload_module,))
    try:
        tracer.active = True
        workload = make_workload()
    finally:
        tracer.uninstall()
    plain = Block(workload, probe=False).run()
    tracer.install(module_objs, extra_modules=(workload_module,))
    try:
        traced = Block(workload, tracer, probe=False).run()
    finally:
        tracer.uninstall()
    failures = plain.failures + traced.failures
    if plain.digest() != traced.digest() or plain.tally != traced.tally:
        failures.append("traced outputs differ from untraced outputs")
    base = sum(plain.latencies)
    record = {
        "calls": 2 * workload.block,
        "failed": len(failures),
        "error_rate": len(failures) / (2 * workload.block),
        "failures": failures[:5],
        "digest_calls": workload.block,
        "sha256": plain.digest(),
        "sha256_traced": traced.digest(),
        "tally": plain.tally,
        "tally_traced": traced.tally,
        "untraced_s": base,
        "traced_s": sum(traced.latencies),
        "trace_overhead": sum(traced.latencies) / base - 1.0,
        "spans_kept": len(tracer.span_name),
        "spans_dropped": tracer.dropped,
    }
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{workload.name}-{workload.seed}.jsonl"
    tracer.write_jsonl(trace_path)
    record["trace_file"] = str(trace_path.relative_to(ROOT))
    # per-layer times are reported at the same machine speed as call times
    record["time_scale"] = sum(traced.latencies) / sum(traced.raw_latencies)
    return layer_metrics(tracer, traced.tally, record["time_scale"]), record


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, tally: dict, time_scale: float) -> dict:
    stats = tracer.stats()

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    json_names = [
        n for n in stats
        if n.startswith("certifier.Certificate.") or n.startswith((
            "certifier.encode_", "certifier.decode_"))
    ]
    boundary = tally.get("boundary_samples", 0)
    subspace = tally.get("subspace_requested", 0)
    probe = tally.get("probe_requested", 0)
    m = {
        "quadext.construct.calls": (calls("quadext.construct"), "count"),
        "quadext.compare_cross.calls": (calls("quadext.compare_cross"), "count"),
        "quadext.min_root_quadratic.calls": (calls("quadext.min_root_quadratic"), "count"),
        "quadext.self_s": (tracer.layer_self_s("quadext"), "s"),
        "quadext.radicand_bits_max": (tracer.radicand_bits_max, "bits"),
        "lattice.intersect.calls": (calls("lattice.intersect"), "count"),
        "lattice.strict_transform.calls": (calls("lattice.strict_transform"), "count"),
        "lattice.self_s": (tracer.layer_self_s("lattice"), "s"),
        "positivity.ample_class_sufficient.calls": (
            calls("positivity.ample_class_sufficient"), "count"),
        "positivity.boundary_class.calls": (calls("positivity.boundary_class"), "count"),
        "positivity.self_s": (tracer.layer_self_s("positivity"), "s"),
        "certifier.build_report.calls": (calls("certifier.build_report"), "count"),
        "certifier.certify.calls": (calls("certifier.certify"), "count"),
        "certifier.self_s": (tracer.layer_self_s("certifier"), "s"),
        "certifier.json_s": (sum(self_s(n) for n in json_names), "s"),
        "constants.feasible_chain.self_s": (self_s("constants.feasible_chain"), "s"),
        "constants.verify_chain.self_s": (self_s("constants.verify_chain"), "s"),
        "constants.levels_tried": (tally.get("levels_tried", 0), "count"),
        "constants.sections_certified.calls": (
            calls("constants.sections_certified"), "count"),
        "constants.infeasible": (tally.get("infeasible", 0), "count"),
        "orbifold.ample_twist_threshold.self_s": (
            self_s("orbifold.ample_twist_threshold"), "s"),
        "orbifold.twist_m_scanned": (tally.get("twist_m_scanned", 0), "count"),
        "weights.search_weights.self_s": (self_s("weights.search_weights"), "s"),
        "weights.vectors_evaluated": (tally.get("vectors", 0), "count"),
        "weights.feasible_ratio": (
            _ratio(tally.get("feasible", 0), tally.get("vectors", 0)), "ratio"),
        "sampling.self_s": (tracer.layer_self_s("sampling"), "s"),
        "cli.self_s": (tracer.layer_self_s("cli"), "s"),
        "cli.boundary.pass_ratio": (
            _ratio(tally.get("boundary_passes", 0), boundary), "ratio"),
        "cli.boundary.not_ample_ratio": (
            _ratio(tally.get("boundary_not_ample", 0), boundary), "ratio"),
        "ffheights.place_finite.s": (
            stats.get("ffheights.place_finite", (0, 0.0, 0.0))[2], "s"),
        "ffheights.subspace_inequality.calls": (
            calls("ffheights.subspace_inequality"), "count"),
        "ffheights.subspace_inequality.self_s": (
            self_s("ffheights.subspace_inequality"), "s"),
        "ffheights.counting_functions.self_s": (
            self_s("ffheights.counting_functions"), "s"),
        "ffheights.height_bound_probe.self_s": (
            self_s("ffheights.height_bound_probe"), "s"),
        "ffheights.gaussian_rank.calls": (calls("ffheights.gaussian_rank"), "count"),
        "ffheights.gaussian_rank.self_s": (self_s("ffheights.gaussian_rank"), "s"),
        "ffheights.ratmap_make.self_s": (self_s("ffheights.ratmap_make"), "s"),
        "ffheights.degenerate_ratio": (
            _ratio(tally.get("subspace_degenerate", 0), subspace), "ratio"),
        "ffheights.excluded_ratio": (
            _ratio(tally.get("probe_excluded", 0), probe), "ratio"),
    }
    for fn in ("mul", "gcd_poly", "valuation", "radical_degree"):
        m[f"polys.{fn}.calls"] = (calls(f"polys.{fn}"), "count")
        m[f"polys.{fn}.self_s"] = (self_s(f"polys.{fn}"), "s")
    return {
        k: {"value": v * time_scale if u == "s" else v, "unit": u}
        for k, (v, u) in m.items()
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "search", "sweeps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--calls", type=int,
        help="calls per block instead of the workload's own (small checks only)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orbicert" / "__init__.py").is_file():
        print(f"bench: no orbicert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    module_objs = [importlib.import_module(f"orbicert.{m}") for m in MODULES]
    import workloads

    def make_workload():
        user_setup(args.workload)
        workload = workloads.WORKLOADS[args.workload](args.seed)
        if args.calls:
            workload.block = args.calls
        return workload

    if args.trace:
        metrics, record = run_traced(make_workload, module_objs, workloads)
    else:
        metrics, record = run_untraced(make_workload(), args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    record = {"workload": args.workload, "trace": args.trace, **environment(args.seed), **record}
    print(json.dumps({"record": record}, sort_keys=True))
    attempted = record["calls"]
    failed = record["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
