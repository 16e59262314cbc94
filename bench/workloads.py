"""The three benchmark workloads: seeded call streams with correctness checks.

Call ``i`` of a workload is rebuilt from (workload, seed, i) alone.  Calls
come in blocks of fixed composition: the position inside a block fixes every
parameter that sets a call's cost (request kind, degrees, bound, batch size),
and the seed draws the rest (pairing degrees, component order, weights,
multiplicities, sweep seeds).  So every seed runs the same mix, and a run made
of whole blocks has the same latency profile on every seed.

Each workload splits a call into ``prepare`` (build inputs; untimed),
``execute`` (the library calls a user waits for; timed) and ``check``
(untimed): check raises ``CheckFailed`` on a wrong output, adds to the tally
and returns the bytes that go into the workload digest.

Library functions are looked up through their modules at call time, so a
tracer that rebinds module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from orbicert import catalog, certifier, cli, constants, ffheights, lattice
from orbicert import positivity, quadext, weights


class CheckFailed(Exception):
    """An output differs from what the benchmark knows to be correct."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _dumps(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@dataclass
class Prepared:
    kind: str
    args: dict
    ops: int = 1


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _layout(block: int, special: dict[int, str]) -> list[tuple[str, int]]:
    """(kind, ordinal among calls of that kind in the block) per position."""
    counts: dict[str, int] = {}
    out = []
    for pos in range(block):
        kind = special.get(pos, "filler")
        out.append((kind, counts.get(kind, 0)))
        counts[kind] = counts.get(kind, 0) + 1
    return out


# -- certify ---------------------------------------------------------------------

# one paired-degree tuple per largest degree 2..6; four-lines covers degree 1
CHAIN_DEGREES = ((1, 2, 2), (2, 2, 3), (3, 3, 4), (3, 4, 5), (4, 5, 6))
# checklist-only weights are log-uniform on [10, 10**CHECKLIST_LOG10_MAX];
# their paired degrees cycle through CHECKLIST_DEGREES
CHECKLIST_LOG10_MAX = 5.0
CHECKLIST_DEGREES = ((1, 1, 2), (1, 2, 3), (2, 3, 4), (1, 4, 4), (2, 2, 3), (3, 3, 4))

FOUR_LINES_PINS = {
    "dp_square": Fraction(177),
    "roots": ["177/22"] * 3 + ["15 - 4*sqrt(3)"],
    "slack": Fraction(1, 176),
    "N": 21,
    "sections_of_power": 39376,
    "b": 37950,
    "multiplicity_threshold": 1458913,
}


def decode_chain(doc: dict) -> constants.ConstantsChain:
    """Rebuild a constants chain from the JSON document a certificate carries."""
    num = certifier.decode_number
    return constants.ConstantsChain(
        eps_target=Fraction(num(doc["eps_target"])),
        eps_half=Fraction(num(doc["eps_half"])),
        n=int(doc["N"]),
        m_sections=int(doc["sections_of_power"]),
        sums=tuple(int(s) for s in doc["filtration_sums"]),
        ratios=tuple(quadext.QuadExt.of(num(r)) for r in doc["ratios"]),
        ratio_max=quadext.QuadExt.of(num(doc["ratio_max"])),
        argmax=int(doc["ratio_argmax"]),
        b=int(doc["b"]),
        c_const=Fraction(num(doc["C"])),
        q_const=Fraction(num(doc["Q"])),
        beta_upper=tuple(Fraction(num(u)) for u in doc["volume_ratio_upper"]),
        m0=int(doc["multiplicity_threshold"]),
    )


class Certify:
    """`orbicert certify` / `orbicert constants` requests in a closed loop.

    A block is 5 sub-blocks of 20 calls.  Each sub-block holds two
    four-lines chain requests, one built chain request (degrees from
    CHAIN_DEGREES in turn) and 17 checklist-only requests whose weight
    magnitudes are stratified over the log-uniform range.
    """

    name = "certify"
    block = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.four_lines = catalog.load_builtin("four-lines")
        special = {}
        for sub in range(5):
            special[20 * sub] = "four-lines"
            special[20 * sub + 7] = "chain"
            special[20 * sub + 14] = "four-lines"
        self.layout = _layout(self.block, special)
        self.checklist_per_block = sum(1 for k, _ in self.layout if k == "filler")

    def prepare(self, index: int) -> Prepared:
        rng = _rng(self.name, self.seed, index)
        kind, ordinal = self.layout[index % self.block]
        if kind == "four-lines":
            cfg = self.four_lines
            wb = positivity.WeightedBoundary.make([4, 4, 4, 3])
            return Prepared("four-lines", self._chain_args(rng, cfg, wb))
        if kind == "chain":
            degrees = list(CHAIN_DEGREES[ordinal % len(CHAIN_DEGREES)])
            rng.shuffle(degrees)
            pairings = [rng.randint(1, d) for d in degrees]
            cfg = lattice.SurfaceConfig.build(degrees, pairings, hyperplane=True)
            wb = weights.proportional_weights(cfg)
            return Prepared("chain", self._chain_args(rng, cfg, wb))
        degrees = list(CHECKLIST_DEGREES[ordinal % len(CHECKLIST_DEGREES)])
        rng.shuffle(degrees)
        pairings = [rng.randint(1, d) for d in degrees]
        cfg = lattice.SurfaceConfig.build(degrees, pairings, hyperplane=True)
        scale = math.lcm(*degrees)
        base = [4 * scale // d for d in degrees] + [3 * scale]
        stratum = (ordinal + rng.random()) / self.checklist_per_block
        magnitude = 10 ** (1 + (CHECKLIST_LOG10_MAX - 1) * stratum)
        ws = [
            max(1, round(magnitude * b / max(base) * (1 + rng.uniform(-0.03, 0.03))))
            for b in base
        ]
        return Prepared(
            "checklist", {"cfg": cfg, "wb": positivity.WeightedBoundary.make(ws)}
        )

    @staticmethod
    def _chain_args(rng, cfg, wb) -> dict:
        return {
            "cfg": cfg,
            "wb": wb,
            "mults": [rng.randint(1_000, 2_000_000) for _ in cfg.components],
            "twist_alpha": Fraction(rng.randint(1, 64)),
        }

    def execute(self, p: Prepared):
        a = p.args
        if p.kind == "checklist":
            cert = certifier.certify(a["cfg"], a["wb"])
        else:
            cert = certifier.certify(
                a["cfg"], a["wb"], a["mults"], twist_alpha=a["twist_alpha"]
            )
        text = cert.to_json()
        again = certifier.Certificate.from_json(text).to_json()
        chain_ok = chain_text = None
        if cert.constants is not None and "N" in cert.constants:
            chain = decode_chain(cert.constants)
            chain_ok = constants.verify_chain(a["cfg"], a["wb"], chain)
            chain_text = _dumps(chain.to_json_dict())
        return cert, text, again, chain_ok, chain_text

    def check(self, p: Prepared, out, tally: dict) -> bytes:
        cert, text, again, chain_ok, chain_text = out
        _require(again == text, "certificate JSON does not round-trip")
        _check_certificate(cert)
        tally[cert.overall] = tally.get(cert.overall, 0) + 1
        blob = text.encode()
        if p.kind == "checklist":
            _require(cert.constants is None, "checklist-only request built a chain")
            return blob
        _require(cert.overall == certifier.PASS, f"chain request {p.kind} did not pass")
        _require(cert.orbifold is not None, "chain request lacks the orbifold section")
        tally["twist_m_scanned"] = (
            tally.get("twist_m_scanned", 0) + cert.orbifold["ample_twist_threshold"]
        )
        if chain_text is None:
            tally["infeasible"] = tally.get("infeasible", 0) + 1
            return blob
        _require(chain_ok is True, "verify_chain rejected the chain")
        _require(chain_text == _dumps(cert.constants), "chain JSON does not round-trip")
        tally["chains"] = tally.get("chains", 0) + 1
        tally["levels_tried"] = tally.get("levels_tried", 0) + cert.constants["N"]
        if p.kind == "four-lines":
            _check_four_lines(cert)
        return blob + chain_text


def _check_certificate(cert) -> None:
    statuses = {h.name: h.status for h in cert.hypotheses}
    blocking = [s for s in statuses.values() if s in ("fail", "inconclusive", "skipped")]
    if "fail" in blocking:
        want = certifier.FAIL
    elif blocking:
        want = certifier.INCONCLUSIVE
    else:
        want = certifier.PASS
    _require(cert.overall == want, "overall verdict disagrees with the checklist")
    for c in cert.components:
        _require(c.inequality_holds == c.exceeds_weight, "inequality and ratio disagree")
    if cert.overall == certifier.PASS:
        _require(cert.slack_lower is not None and cert.slack_lower > 0, "no positive slack")
        _require(
            quadext.compare_cross(cert.slack_lower, cert.slack) <= 0,
            "rational slack bound exceeds the slack",
        )


def _check_four_lines(cert) -> None:
    pins = FOUR_LINES_PINS
    _require(cert.dp_square == pins["dp_square"], "four-lines D^2 changed")
    roots = [str(c.truncation_root) for c in cert.components]
    _require(roots == pins["roots"], f"four-lines roots changed: {roots}")
    _require(cert.slack_lower == pins["slack"], "four-lines slack changed")
    _require(cert.slack == quadext.QuadExt(pins["slack"]), "four-lines slack changed")
    for key in ("N", "sections_of_power", "b"):
        _require(cert.constants[key] == pins[key], f"four-lines {key} changed")
    _require(
        cert.orbifold["multiplicity_threshold"] == pins["multiplicity_threshold"],
        "four-lines m0 changed",
    )


# -- search ----------------------------------------------------------------------

# (config kind, bound, objective or None for seeded, paired degrees).  The
# five bound-3 searches on four-lines-shaped configs cost the same and cost
# more than any stress batch; with 13 searches in 100 calls the 90th
# percentile falls inside that group, not on the edge between two kinds.
SEARCH_PLAN = (
    ("four-lines", 3, "max-slack", None),
    ("built", 3, None, (1, 1, 1)),
    ("built", 5, None, (3, 3)),
    ("four-lines", 4, "min-sum", None),
    ("built", 3, None, (1, 1, 1)),
    ("built", 4, None, (1, 2, 2)),
    ("four-lines", 3, "min-sum", None),
    ("built", 6, None, (2, 2)),
    ("four-lines", 5, "max-slack", None),
    ("built", 3, None, (1, 1, 1)),
    ("built", 5, None, (1, 1, 2)),
    ("four-lines", 6, "min-sum", None),
    ("built", 6, None, (1, 3)),
)
STRESS_SAMPLES = 8


class Search:
    """Weight searches and `orbicert stress --suite boundary` batches.

    A block is 100 calls: the 13 searches of SEARCH_PLAN spread evenly and
    87 boundary stress batches of STRESS_SAMPLES passing samples each,
    run through ``cli.main`` with a seeded ``--seed``.
    """

    name = "search"
    block = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.four_lines = catalog.load_builtin("four-lines")
        special = {
            round(k * self.block / len(SEARCH_PLAN)): "search"
            for k in range(len(SEARCH_PLAN))
        }
        self.layout = _layout(self.block, special)

    def prepare(self, index: int) -> Prepared:
        rng = _rng(self.name, self.seed, index)
        kind, ordinal = self.layout[index % self.block]
        if kind == "filler":
            argv = [
                "stress", "--suite", "boundary", "--samples", str(STRESS_SAMPLES),
                "--seed", str(rng.randrange(2**31)),
            ]
            return Prepared("stress", {"argv": argv}, ops=0)
        source, bound, objective, degrees = SEARCH_PLAN[ordinal]
        if source == "four-lines":
            cfg = self.four_lines
        else:
            degrees = list(degrees)
            rng.shuffle(degrees)
            pairings = [rng.randint(1, d) for d in degrees]
            cfg = lattice.SurfaceConfig.build(degrees, pairings, hyperplane=True)
        objective = objective or rng.choice(("min-sum", "max-slack"))
        return Prepared(
            "search",
            {"cfg": cfg, "bound": bound, "objective": objective, "source": source},
            ops=bound ** cfg.r,
        )

    def execute(self, p: Prepared):
        a = p.args
        if p.kind == "search":
            return weights.search_weights(
                a["cfg"], a["bound"], a["objective"], limit=None, processes=1
            )
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(a["argv"])
        return code, buf.getvalue()

    def check(self, p: Prepared, out, tally: dict) -> bytes:
        if p.kind == "stress":
            return self._check_stress(p, out, tally)
        a = p.args
        result = out
        hits = result.hits
        _require(result.feasible_count == len(hits), "hit list is incomplete")
        _require(result.bound == a["bound"], "search reports another bound")
        for hit in hits:
            _require(max(hit.weights) <= a["bound"] and min(hit.weights) >= 1, "weights out of range")
            _require(hit.slack.sign() > 0, "a hit without positive slack")
        _require(
            list(hits) == sorted(hits, key=lambda h: (h.weight_sum, h.weights)),
            "hits are not ordered",
        )
        if hits:
            best = hits[0]
            if a["objective"] == "max-slack":
                for hit in hits[1:]:
                    if quadext.compare_cross(hit.slack, best.slack) > 0:
                        best = hit
            _require(result.best == best, "best hit is not optimal")
        else:
            _require(result.best is None, "best hit without hits")
        if a["source"] == "four-lines" and a["bound"] == 6 and a["objective"] == "min-sum":
            _require(result.best.weights == (4, 4, 4, 3), "four-lines best at bound 6 changed")
        tally["searches"] = tally.get("searches", 0) + 1
        tally["vectors"] = tally.get("vectors", 0) + p.ops
        tally["feasible"] = tally.get("feasible", 0) + result.feasible_count
        doc = {
            "objective": result.objective,
            "bound": result.bound,
            "feasible_count": result.feasible_count,
            "best": None if result.best is None else list(result.best.weights),
            "hits": [[list(h.weights), str(h.slack), str(h.slack_lower)] for h in hits],
        }
        return _dumps(doc)

    @staticmethod
    def _check_stress(p: Prepared, out, tally: dict) -> bytes:
        code, text = out
        _require(code == cli.EXIT_PASS, f"boundary stress exited {code}")
        final = json.loads(text.strip().splitlines()[-1])
        _require(final.get("done") is True, "boundary stress did not finish")
        _require(final["violations"] == 0, "boundary stress found a violation")
        _require(final["passes"] == STRESS_SAMPLES, "boundary stress passes differ")
        p.ops = final["samples"]
        for key in ("samples", "passes", "not_ample"):
            tally[f"boundary_{key}"] = tally.get(f"boundary_{key}", 0) + final[key]
        tally["stress_calls"] = tally.get("stress_calls", 0) + 1
        return text.encode()


# -- sweeps ----------------------------------------------------------------------

# suite -> samples per batch; the command line's default degrees and bounds
SWEEP_BATCH = {"subspace": 60, "product": 500, "probe": 250}
SWEEP_MAX_DEGREE = 4
SWEEP_COEFF_BOUND = 50


class Sweeps:
    """Seeded batches of the subspace, product and probe suites, in turn."""

    name = "sweeps"
    block = 102

    def __init__(self, seed: int):
        self.seed = seed
        self.four_lines = catalog.load_builtin("four-lines")
        self.weights = positivity.WeightedBoundary.make([4, 4, 4, 3])
        self.realization = ffheights.realization_from_config(self.four_lines)
        self.suites = tuple(SWEEP_BATCH)

    def prepare(self, index: int) -> Prepared:
        suite = self.suites[index % len(self.suites)]
        count = SWEEP_BATCH[suite]
        batch_seed = _rng(self.name, self.seed, index).randrange(2**31)
        return Prepared(suite, {"seed": batch_seed, "count": count}, ops=count)

    def execute(self, p: Prepared):
        a = p.args
        if p.kind == "subspace":
            return ffheights.subspace_sweep(
                a["count"], seed=a["seed"], processes=1, max_m=3,
                max_deg=SWEEP_MAX_DEGREE, bound=SWEEP_COEFF_BOUND,
            )
        if p.kind == "product":
            return ffheights.product_formula_sweep(a["count"], seed=a["seed"], processes=1)
        return ffheights.probe_sweep(
            self.four_lines, self.weights, self.realization, a["count"],
            seed=a["seed"], processes=1,
            max_deg=min(SWEEP_MAX_DEGREE, 8), bound=min(SWEEP_COEFF_BOUND, 50),
        )

    def check(self, p: Prepared, out, tally: dict) -> bytes:
        count = p.args["count"]
        if p.kind == "subspace":
            _require(out["violations"] == 0, "subspace inequality violated")
            _require(out["fmt_failures"] == 0, "height identity failed")
            _require(0 < out["samples"] <= count, "subspace sample count is off")
            keys = ("samples", "degenerate")
        elif p.kind == "product":
            _require(out["failures"] == 0, "product formula failed")
            _require(out["samples"] == count, "product sample count is off")
            keys = ("samples",)
        else:
            _require(out["samples"] + out["excluded"] == count, "probe sample count is off")
            _require(out["samples"] == 0 or Fraction(out["alpha_emp"]) > 0, "probe alpha is 0")
            keys = ("samples", "excluded")
        tally[f"{p.kind}_batches"] = tally.get(f"{p.kind}_batches", 0) + 1
        tally[f"{p.kind}_requested"] = tally.get(f"{p.kind}_requested", 0) + count
        for key in keys:
            tally[f"{p.kind}_{key}"] = tally.get(f"{p.kind}_{key}", 0) + out[key]
        return _dumps(out)


WORKLOADS = {w.name: w for w in (Certify, Search, Sweeps)}
