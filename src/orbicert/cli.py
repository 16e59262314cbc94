"""Command line entry points.

Exit codes: 0 the requested property is certified, 1 it is certified to
fail (or a stress sweep found a violation), 2 the run is inconclusive,
3 the input is malformed (a command line that argparse rejects included),
4 an internal cross-check failed (InternalError).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from . import ffheights, sampling
from .catalog import builtin_names, load_builtin
from .certifier import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    build_report,
    certify,
    decode_multiplicity,
)
from .constants import InfeasibleError, feasible_chain, verify_chain
from .constants import filtration_sections_lower, sections_power_exact
from .lattice import ConfigError, InternalError, SurfaceConfig, dump_json
from .positivity import WeightedBoundary
from .weights import proportional_weights, search_weights

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _load_config(args) -> SurfaceConfig:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = SurfaceConfig.from_json(handle.read())
    else:
        cfg = load_builtin(args.builtin or "four-lines")
    if args.allow_single_component:
        cfg = dataclasses.replace(cfg, allow_single_component=True)
    return cfg


def _entries(raw: str, flag: str) -> list[str]:
    parts = [p.strip() for p in raw.split(",")]
    if "" in parts:
        raise ConfigError(f"{flag} {raw!r} has an empty entry")
    return parts


def _resolve_weights(args, cfg: SurfaceConfig) -> WeightedBoundary:
    if args.weights is not None:
        return WeightedBoundary.make(_entries(args.weights, "--weights"))
    if cfg.default_weights is not None:
        return WeightedBoundary.make(cfg.default_weights)
    return proportional_weights(cfg)


def _resolve_multiplicities(args, cfg: SurfaceConfig):
    if args.multiplicities is not None:
        raw = _entries(args.multiplicities, "--multiplicities")
        return tuple(decode_multiplicity(m) for m in raw)
    if cfg.default_multiplicities is not None:
        return tuple(decode_multiplicity(m) for m in cfg.default_multiplicities)
    return None


def _require_positive(args, *options: str) -> None:
    for option in options:
        value = getattr(args, option)
        if value < 1:
            flag = "--" + option.replace("_", "-")
            raise ConfigError(f"{flag} {value} must be at least 1")


# -- certify ---------------------------------------------------------------------


def cmd_certify(args) -> int:
    _require_positive(args, "cap")
    cfg = _load_config(args)
    wb = _resolve_weights(args, cfg)
    mults = _resolve_multiplicities(args, cfg)
    cert = certify(
        cfg,
        wb,
        mults,
        twist_alpha=Fraction(args.twist_alpha),
        constants_cap=args.cap,
        include_constants=not args.skip_constants,
    )
    # the file first: a path that cannot be opened prints nothing
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(cert.to_json())
    for h in cert.hypotheses:
        line = f"{h.name:<28} {h.status:<13}"
        print(line + (h.detail if h.detail else ""))
    for check in cert.components:
        print(
            f"component {check.index}: degree {check.degree}, weight {check.weight}, "
            f"root {check.truncation_root}, ratio {check.volume_ratio}, "
            f"holds {check.inequality_holds}"
        )
    if cert.slack is not None:
        print(f"slack {cert.slack} (rational lower bound {cert.slack_lower})")
    if cert.constants is not None:
        print("constants:", json.dumps(cert.constants, sort_keys=True))
    if cert.orbifold is not None:
        print("orbifold:", json.dumps(cert.orbifold, sort_keys=True))
    print(f"overall: {cert.overall}")
    if cert.first_failure:
        print(f"first failure: {cert.first_failure}")
    return {PASS: EXIT_PASS, FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}[
        cert.overall
    ]


# -- search ----------------------------------------------------------------------


def cmd_search(args) -> int:
    _require_positive(args, "threads")
    cfg = _load_config(args)
    result = search_weights(
        cfg,
        args.bound,
        args.objective,
        limit=args.limit,
        processes=args.threads,
    )
    print(f"feasible weight vectors: {result.feasible_count}")
    for hit in result.hits:
        print(
            f"weights {','.join(str(w) for w in hit.weights)} "
            f"sum {hit.weight_sum} slack {hit.slack}"
        )
    if result.best is None:
        print("no passing weights at this bound")
        return EXIT_FAIL
    print(
        f"best ({result.objective}): "
        f"{','.join(str(w) for w in result.best.weights)} slack {result.best.slack}"
    )
    return EXIT_PASS


# -- constants -------------------------------------------------------------------


def cmd_constants(args) -> int:
    _require_positive(args, "cap")
    cfg = _load_config(args)
    wb = _resolve_weights(args, cfg)
    report = build_report(cfg, wb)
    if report.slack_lower is None or report.slack_lower <= 0:
        print("hypothesis checklist does not pass; no constants to derive")
        return EXIT_FAIL
    eps = Fraction(args.eps) if args.eps is not None else report.slack_lower
    try:
        chain = feasible_chain(cfg, wb, report, eps, cap=args.cap)
    except InfeasibleError as exc:
        print(f"inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
    verify_chain(cfg, wb, chain)
    doc = chain.to_json_dict()
    doc["verified"] = True
    text = dump_json(doc)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return EXIT_PASS


# -- beta ------------------------------------------------------------------------


def cmd_beta(args) -> int:
    _require_positive(args, "level")
    if args.plane is not None:
        cfg = load_builtin("plane-one-line")
        wb = WeightedBoundary.make([args.plane])
    else:
        cfg = _load_config(args)
        wb = _resolve_weights(args, cfg)
    report = build_report(cfg, wb)
    if not report.ample.certified:
        print(f"ampleness not certified: {report.ample.reason}")
        return EXIT_INCONCLUSIVE
    for check in report.components:
        print(
            f"component {check.index}: root {check.truncation_root}, "
            f"volume ratio {check.volume_ratio}"
        )
    if args.plane is not None:
        n = args.level
        s = filtration_sections_lower(cfg, wb, 0, n)
        m = sections_power_exact(cfg, wb, n)
        ratio = Fraction(s, n * m)
        closed = report.components[0].volume_ratio.as_fraction()
        print(f"section-count ratio at level {n}: {ratio}")
        print(f"closed form: {closed}")
        if ratio != closed:
            print("MISMATCH between the sum and the closed form")
            return EXIT_FAIL
    if report.slack is not None:
        print(f"slack {report.slack}")
    return EXIT_PASS


# -- stress ----------------------------------------------------------------------


def cmd_stress(args) -> int:
    _require_positive(args, "threads")
    if args.suite != "probe":  # the only suite that reads a configuration
        for option in ("config", "builtin", "weights", "allow_single_component"):
            if getattr(args, option) not in (None, False):
                flag = "--" + option.replace("_", "-")
                raise ConfigError(f"{flag} is read only by --suite probe")
    # sample i of every suite draws from (suite, seed, i) alone, so --threads
    # never changes the record
    if args.suite == "boundary":
        record = sampling.boundary_sweep(
            args.samples,
            seed=args.seed,
            processes=args.threads,
            max_degree=args.max_degree,
            bound=args.coeff_bound,
        )
        # --samples counts passes; the sweep stops at 50 draws per pass
        failed = record["violations"] or record["passes"] < args.samples
    elif args.suite == "subspace":
        record = ffheights.subspace_sweep(
            args.samples,
            seed=args.seed,
            processes=args.threads,
            max_deg=args.max_degree,
            bound=args.coeff_bound,
        )
        failed = record["violations"] or record["fmt_failures"]
    elif args.suite == "product":
        record = ffheights.product_formula_sweep(
            args.samples, seed=args.seed, processes=args.threads
        )
        failed = record["failures"]
    elif args.suite == "probe":
        cfg = _load_config(args)
        wb = _resolve_weights(args, cfg)
        record = ffheights.probe_sweep(
            cfg,
            wb,
            ffheights.realization_from_config(cfg),
            args.samples,
            seed=args.seed,
            processes=args.threads,
            max_deg=min(args.max_degree, 8),
            bound=min(args.coeff_bound, 50),
        )
        failed = False
    else:
        raise ConfigError(f"unknown suite {args.suite!r}")
    record["suite"] = args.suite
    record["done"] = True
    print(json.dumps(record, sort_keys=True), flush=True)
    return EXIT_FAIL if failed else EXIT_PASS


# -- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbicert",
        description="Exact certification of hyperbolicity hypotheses on blown-up planes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="path to a configuration JSON file")
        p.add_argument(
            "--builtin",
            choices=builtin_names(),
            help="bundled configuration name",
        )
        p.add_argument(
            "--allow-single-component",
            action="store_true",
            help="waive the two-component requirement",
        )
        p.add_argument("--weights", help="comma separated positive weights")

    p_cert = sub.add_parser("certify", help="run the full hypothesis checklist")
    add_config_args(p_cert)
    p_cert.add_argument("--multiplicities", help="comma separated, integers or inf")
    p_cert.add_argument("--out", help="write the certificate JSON here")
    p_cert.add_argument(
        "--twist-alpha", default="1", help="nonnegative rational alpha in D_p - (alpha/m) T"
    )
    p_cert.add_argument("--cap", type=int, default=200, help="level cap for constants")
    p_cert.add_argument(
        "--skip-constants", action="store_true", help="omit the constants chain"
    )
    p_cert.set_defaults(func=cmd_certify)

    p_search = sub.add_parser("search", help="enumerate passing weight vectors")
    add_config_args(p_search)
    p_search.add_argument("--bound", type=int, default=6)
    p_search.add_argument(
        "--objective", choices=["min-sum", "max-slack"], default="min-sum"
    )
    p_search.add_argument("--limit", type=int, default=10)
    p_search.add_argument("--threads", type=int, default=1)
    p_search.set_defaults(func=cmd_search)

    p_const = sub.add_parser("constants", help="derive the feasibility constants")
    add_config_args(p_const)
    p_const.add_argument("--eps", help="target slack, a fraction like 1/176")
    p_const.add_argument("--cap", type=int, default=500)
    p_const.add_argument("--out", help="write the chain JSON here")
    p_const.set_defaults(func=cmd_constants)

    p_beta = sub.add_parser("beta", help="volume ratio lower bounds")
    add_config_args(p_beta)
    p_beta.add_argument("--plane", type=int, help="single line on the plane, weight a")
    p_beta.add_argument("--level", type=int, default=10)
    p_beta.set_defaults(func=cmd_beta)

    p_stress = sub.add_parser("stress", help="randomized sweeps")
    add_config_args(p_stress)
    p_stress.add_argument(
        "--suite",
        choices=["boundary", "subspace", "product", "probe"],
        default="boundary",
    )
    p_stress.add_argument("--samples", type=int, default=500)
    p_stress.add_argument("--seed", type=int, default=0)
    p_stress.add_argument("--threads", type=int, default=1)
    p_stress.add_argument("--max-degree", type=int, default=4)
    p_stress.add_argument("--coeff-bound", type=int, default=50)
    p_stress.set_defaults(func=cmd_stress)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return EXIT_PASS if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
