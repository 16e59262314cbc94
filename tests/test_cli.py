"""Command line behaviour: exit codes, printed verdicts, artifact files."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import orbicert
from orbicert import certifier, cli, sampling
from orbicert.catalog import load_builtin
from orbicert.certifier import Certificate
from orbicert.cli import build_parser, main
from orbicert.constants import ChainMismatchError
from orbicert.sampling import _boundary_sample, _sample_rng, _tally
from test_internal_checks import time_limit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_default_passes(capsys):
    code, out, err = run(capsys, "certify")
    assert code == 0
    assert "overall: pass" in out
    assert "slack" in out
    assert "first failure" not in out
    assert err == ""


def test_certify_with_constants(capsys, tmp_path):
    target = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "certify",
        "--multiplicities",
        "1500000,1500000,1500000,1500000",
        "--out",
        str(target),
    )
    assert code == 0
    assert '"N": 21' in out
    cert = Certificate.from_json(target.read_text())
    assert cert.overall == "pass"
    assert cert.constants["N"] == 21
    assert cert.orbifold["given_multiplicities_meet_threshold"] is True


def test_certify_twist_threshold_above_4096(capsys):
    code, out, err = run(
        capsys,
        "certify",
        "--builtin",
        "four-lines",
        "--multiplicities",
        "2000000,2000000,2000000,2000000",
        "--twist-alpha",
        "100000",
    )
    assert code == 0 and err == ""
    line = next(l for l in out.splitlines() if l.startswith("orbifold: "))
    # the residue 3 - 100000/m first turns positive at m = 33334
    assert json.loads(line[len("orbifold: "):])["ample_twist_threshold"] == 33334


def test_certify_negative_twist_alpha_exits_3(capsys):
    for argv in [
        # a passing checklist with infinite multiplicities computes no twist
        ["--builtin", "four-lines"],
        # a failing checklist computes no twist either
        ["--weights", "1,1,1,9", "--multiplicities", "2,2,2,2"],
        ["--multiplicities", "7,7,7,7"],
    ]:
        code, out, err = run(capsys, "certify", *argv, "--twist-alpha=-1")
        assert code == 3, argv
        assert out == "" and "twist alpha -1 must be nonnegative" in err


def test_certify_skip_constants(capsys):
    code, out, _ = run(
        capsys, "certify", "--multiplicities", "7,7,7,7", "--skip-constants"
    )
    assert code == 0
    assert "constants:" not in out


def test_certify_plane_one_line_fails(capsys):
    code, out, _ = run(capsys, "certify", "--builtin", "plane-one-line")
    assert code == 1
    assert "overall: fail" in out
    assert "first failure: filtration_inequality" in out


def test_certify_bad_weights_fail(capsys):
    code, out, _ = run(capsys, "certify", "--weights", "50,1,1,1")
    assert code == 1
    assert "overall: fail" in out


def test_certify_custom_config(capsys, tmp_path):
    doc = {
        "components": [
            {"degree": 1, "paired": True, "pairing_degree": 1},
            {"degree": 1, "paired": True, "pairing_degree": 1},
            {"degree": 1, "paired": True, "pairing_degree": 1},
            {"degree": 1, "paired": False, "role": "hyperplane"},
        ]
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "certify", "--config", str(path), "--weights", "4,4,4,3")
    assert code == 0
    assert "overall: pass" in out


def test_certify_input_errors(capsys):
    code, _, err = run(capsys, "certify", "--config", "/no/such/file.json")
    assert code == 3 and "input error" in err
    code, _, err = run(capsys, "certify", "--weights", "0,4,4,3")
    assert code == 3 and "input error" in err
    code, _, err = run(capsys, "certify", "--weights", "x,4,4,3")
    assert code == 3 and "input error" in err
    code, _, err = run(capsys, "certify", "--multiplicities", "0,2,2,2")
    assert code == 3 and "input error" in err
    code, _, err = run(capsys, "certify", "--weights", "4,4,4")
    assert code == 3 and "input error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--weights"],
        ["certify", "--bogus"],
        ["search", "--bound", "x"],
        ["stress", "--suite", "nope"],
        ["search", "--bound", "4", "--threads", "0"],
        ["stress", "--samples", "5", "--threads", "0"],
        ["stress", "--suite", "product", "--samples", "5", "--threads", "-2"],
        ["stress", "--samples", "5", "--batches", "2"],
        ["stress", "--suite", "subspace", "--samples", "5", "--batches", "1"],
        ["constants", "--eps", "1/176", "--cap", "0"],
        ["certify", "--multiplicities", "2000000,2000000,2000000,2000000", "--cap", "-3"],
        # dropping an empty entry used to certify 4,4,4,3
        ["certify", "--builtin", "four-lines", "--weights", "4,,4,4,3"],
        ["certify", "--weights", "4,4,4,3,"],
        ["certify", "--weights", ""],
        ["certify", "--multiplicities", "7,7, ,7,7", "--skip-constants"],
        ["stress", "--suite", "probe", "--samples", "4", "--weights", ",4,4,4,3"],
        # the probe used to zip three weights with four forms, or drop a fifth
        ["stress", "--suite", "probe", "--builtin", "four-lines", "--weights", "1,1,1",
         "--samples", "50"],
        ["stress", "--suite", "probe", "--builtin", "four-lines", "--weights", "1,1,1,1,7",
         "--samples", "50"],
        ["stress", "--suite", "probe", "--weights", "1,1,1", "--samples", "0"],
        # --plane used to print the closed form before it read --level
        ["beta", "--plane", "3", "--level", "0"],
        # search reads no weights; it used to ignore them and exit 1
        ["search", "--builtin", "four-lines", "--bound", "2", "--weights", "x"],
    ],
    ids=["missing-value", "unknown-option", "bad-int", "bad-choice",
         "search-threads", "boundary-threads", "product-threads",
         "boundary-batches", "subspace-batches", "constants-cap", "certify-cap",
         "weights-inner-empty", "weights-trailing-comma", "weights-empty",
         "multiplicities-blank", "probe-weights-leading-comma", "probe-three-weights",
         "probe-five-weights", "probe-no-samples", "beta-level", "search-weights"],
)
def test_malformed_command_line_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--config="], "No such file or directory: ''"),
        (["constants", "--builtin", "four-lines", "--eps="], "Invalid literal for Fraction: ''"),
        (["beta", "--plane", "0", "--level", "3"], "weight 0 must be positive"),
        (["certify", "--builtin", "four-lines", "--skip-constants", "--out="],
         "No such file or directory: ''"),
        (["constants", "--builtin", "four-lines", "--cap", "50", "--out="],
         "No such file or directory: ''"),
    ],
    ids=["config-empty", "eps-empty", "plane-zero", "certify-out-empty",
         "constants-out-empty"],
)
def test_empty_or_zero_option_is_read_and_exits_3(capsys, argv, message):
    # each used to be taken for an absent option: four-lines, the slack,
    # four-lines, and no file for both --out
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and message in err and "Traceback" not in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: orbicert")
    code, out, _ = run(capsys, "certify", "--help")
    assert code == 0 and "--multiplicities" in out


def test_search_bounds(capsys):
    code, out, _ = run(capsys, "search", "--bound", "4")
    assert code == 0
    assert "feasible weight vectors: 1" in out
    assert "best (min-sum): 4,4,4,3" in out

    code, out, _ = run(capsys, "search", "--bound", "3")
    assert code == 1
    assert "no passing weights" in out


def test_search_fails_a_config_that_certify_fails(capsys, tmp_path):
    doc = {**load_builtin("four-lines").to_json_dict(), "no_three_meet": False}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "certify", "--config", str(path), "--weights", "4,4,4,3")
    assert code == 1 and "first failure: no_three_meet" in out
    code, out, _ = run(capsys, "search", "--config", str(path), "--bound", "6")
    assert code == 1
    assert out == "feasible weight vectors: 0\nno passing weights at this bound\n"


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


# every weight vector of three paired lines leaves ampleness inconclusive
THREE_PAIRED = {"components": [{"degree": 1, "paired": True}] * 3}


def test_search_on_a_config_never_ample_is_inconclusive(capsys, tmp_path):
    path = write_config(tmp_path, THREE_PAIRED)
    code, out, _ = run(capsys, "certify", "--config", path, "--weights", "1,1,1")
    assert code == 2 and "overall: inconclusive" in out
    code, out, _ = run(capsys, "search", "--config", path, "--bound", "5")
    assert code == 2
    assert out == (
        "feasible weight vectors: 0\n"
        "inconclusive: ampleness is not certified at any weights\n"
    )


def test_search_negative_limit_exits_3(capsys):
    code, out, err = run(capsys, "search", "--bound", "6", "--limit", "-1")
    assert code == 3
    assert "limit" in err
    code, out, _ = run(capsys, "search", "--bound", "6", "--limit", "0")
    assert code == 0
    assert "feasible weight vectors: 6" in out


def test_constants_command(capsys, tmp_path):
    target = tmp_path / "chain.json"
    code, out, _ = run(capsys, "constants", "--out", str(target))
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["N"] == 21
    assert doc["b"] == 37950
    assert doc["multiplicity_threshold"] == 1458913
    assert json.loads(target.read_text()) == doc
    assert target.read_text() == out

    code, out, _ = run(capsys, "constants", "--eps", "1/176", "--cap", "10")
    assert code == 2
    assert "inconclusive" in out


def test_constants_failing_config(capsys):
    code, out, _ = run(
        capsys, "constants", "--builtin", "plane-one-line"
    )
    assert code == 1
    assert "does not pass" in out


def test_constants_fails_a_config_that_certify_fails(capsys, tmp_path):
    doc = {**load_builtin("four-lines").to_json_dict(), "no_three_meet": False}
    path = write_config(tmp_path, doc)
    code, out, _ = run(capsys, "certify", "--config", path, "--weights", "4,4,4,3")
    assert code == 1 and "first failure: no_three_meet" in out
    code, out, _ = run(capsys, "constants", "--config", path, "--weights", "4,4,4,3")
    assert code == 1
    assert out == "hypothesis checklist does not pass: first failure no_three_meet\n"


def test_constants_on_a_config_never_ample_is_inconclusive(capsys, tmp_path):
    # constants says what beta says, with the same exit 2
    path = write_config(tmp_path, THREE_PAIRED)
    for command in ("beta", "constants"):
        code, out, _ = run(capsys, command, "--config", path, "--weights", "1,1,1")
        assert code == 2
        assert out == "ampleness not certified: bezout_residue_positive\n"


def test_constants_chain_failing_its_own_check_is_internal(capsys, monkeypatch, tmp_path):
    # a chain the command has just built must verify; when it does not, the
    # program is at fault: exit 4, not a traceback and exit 1
    def mismatch(cfg, wb, chain):
        raise ChainMismatchError("recomputed b differs")

    monkeypatch.setattr(cli, "verify_chain", mismatch)
    target = tmp_path / "chain.json"
    code, out, err = run(
        capsys, "constants", "--builtin", "four-lines", "--cap", "50", "--out", str(target)
    )
    assert code == 4
    assert out == ""
    assert "internal error" in err and "recomputed b differs" in err
    assert not target.exists()


def test_beta_plane(capsys):
    code, out, _ = run(capsys, "beta", "--plane", "3", "--level", "17")
    assert code == 0
    assert "closed form: 1" in out
    assert "section-count ratio at level 17: 1" in out

    code, out, _ = run(capsys, "beta")
    assert code == 0
    assert "volume ratio 1947/484" not in out  # printed in lowest terms
    assert "volume ratio 177/44" in out


@pytest.mark.parametrize(
    "option",
    [["--config", "/nonexistent.json"], ["--builtin", "four-lines"], ["--weights", "0,0"],
     ["--allow-single-component"]],
    ids=["config", "builtin", "weights", "single"],
)
def test_beta_plane_config_options_exit_3(capsys, option):
    # each used to be ignored, and --plane exited 0
    code, out, err = run(capsys, "beta", "--plane", "3", "--level", "5", *option)
    assert code == 3
    assert out == "" and f"{option[0]} is read only by beta without --plane" in err


def test_stress_boundary(capsys):
    code, out, _ = run(
        capsys, "stress", "--suite", "boundary", "--samples", "20", "--seed", "11"
    )
    assert code == 0
    last = json.loads(out.strip().splitlines()[-1])
    assert last["suite"] == "boundary"
    assert last["done"] is True
    assert last["violations"] == 0
    assert last["passes"] >= 20


BOUNDARY_PINNED = ["--samples", "200", "--max-degree", "6", "--coeff-bound", "300"]


BOUNDARY_DIGESTS = pytest.mark.parametrize(
    "seed, digest",
    [
        (11, "58719181e53716631b84a97757ab4826fcd13b0f6f5a6d5d00e73da4ad1ca3ec"),
        (2024, "8f1cb657bc47a518c3e1c21d895d20965ab1c0031f61cfc6a9ee232d9ef9adf0"),
        (77, "f7f11fd1d98b7f2480e4346208dcef4e73c094471e8d0a2a399d3e9ba7c854a4"),
    ],
    ids=["seed-11", "seed-2024", "seed-77"],
)


@BOUNDARY_DIGESTS
def test_stress_boundary_stdout_is_pinned(capsys, seed, digest):
    code, out, err = run(
        capsys, "stress", "--suite", "boundary", *BOUNDARY_PINNED, "--seed", str(seed)
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def refuse_weight_slack(report):
    raise AssertionError("the boundary suite computed a slack")


@BOUNDARY_DIGESTS
def test_stress_boundary_never_computes_a_slack(capsys, monkeypatch, seed, digest):
    monkeypatch.setattr(certifier, "weight_slack", refuse_weight_slack)
    code, out, err = run(
        capsys, "stress", "--suite", "boundary", *BOUNDARY_PINNED, "--seed", str(seed)
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def refuse_record(*args, **kwargs):
    raise AssertionError("the boundary suite built a component record")


def test_stress_boundary_builds_no_record(capsys, monkeypatch):
    argv = ["stress", "--suite", "boundary", "--samples", "50", "--seed", "7"]
    code, want, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(certifier, "ComponentCheck", refuse_record)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == want


def test_boundary_sweep_never_computes_a_slack(monkeypatch):
    monkeypatch.setattr(certifier, "weight_slack", refuse_weight_slack)
    tally = sampling.boundary_sweep(40, seed=3, max_degree=6, bound=300)
    assert tally["passes"] == 40 and tally["violations"] == 0


@pytest.mark.parametrize("seed", [11, 2024, 77])
def test_stress_boundary_stdout_does_not_depend_on_threads(capsys, seed):
    argv = ["stress", "--suite", "boundary", *BOUNDARY_PINNED, "--seed", str(seed)]
    code, one, err = run(capsys, *argv, "--threads", "1")
    assert code == 0 and err == ""
    assert run(capsys, *argv, "--threads", "2") == (0, one, "")


def test_boundary_sweep_starts_at_most_one_pool(monkeypatch):
    started = []
    real_pool = sampling.Pool

    def counting_pool(processes):
        started.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(sampling, "Pool", counting_pool)
    monkeypatch.setattr(sampling.os, "cpu_count", lambda: 2)
    args = {"seed": 5, "max_degree": 6, "bound": 300}
    one = sampling.boundary_sweep(200, processes=1, **args)
    assert started == []
    # several rounds: the first draws 200 indices and not all of them pass
    assert one["samples"] > 200
    assert sampling.boundary_sweep(200, processes=2, **args) == one
    assert started == [2]
    assert sampling.boundary_sweep(0, processes=2, **args)["samples"] == 0
    assert started == [2]


def test_boundary_sweep_leaves_no_child_process(monkeypatch):
    monkeypatch.setattr(sampling.os, "cpu_count", lambda: 2)
    record = sampling.boundary_sweep(200, processes=2, seed=5, max_degree=6, bound=300)
    # the stream stops at the 200th pass, long before the 10000-sample cap
    assert record["passes"] == 200 and record["samples"] < 10000
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("seed", [11, 2024, 77])
def test_stress_boundary_samples_replay_by_index(capsys, seed):
    code, out, _ = run(
        capsys, "stress", "--suite", "boundary", *BOUNDARY_PINNED, "--seed", str(seed)
    )
    assert code == 0
    record = json.loads(out)
    outcomes = [
        _boundary_sample(_sample_rng("boundary", seed, i), 6, 300)
        for i in range(record["samples"])
    ]
    assert record == {
        **_tally(("samples", "passes", "not_ample", "violations"), outcomes),
        "suite": "boundary",
        "done": True,
    }
    # --samples counts passes, and the draws end at the last one
    assert record["passes"] == 200 and outcomes[-1] == ("samples", "passes")


def test_stress_boundary_counts_cross_check_failures(capsys, monkeypatch):
    # a flipped inequality disagrees with the volume ratio on every ample
    # sample, so build_report raises and the suite counts a violation
    holds = certifier._component_holds
    monkeypatch.setattr(certifier, "_component_holds", lambda *args: not holds(*args))
    code, out, err = run(
        capsys, "stress", "--suite", "boundary", "--samples", "10", "--seed", "11"
    )
    assert code == 1
    last = json.loads(out.strip().splitlines()[-1])
    assert last["done"] is True and last["violations"] > 0
    assert last["passes"] == 0
    assert err == ""


def test_stress_boundary_stops_at_the_draw_cap(capsys, monkeypatch):
    # with every ample sample a violation nothing passes, so the suite draws
    # 50 samples per pass asked for and stops
    holds = certifier._component_holds
    monkeypatch.setattr(certifier, "_component_holds", lambda *args: not holds(*args))
    code, out, err = run(
        capsys, "stress", "--suite", "boundary", "--samples", "10", "--seed", "11"
    )
    assert code == 1 and err == ""
    record = json.loads(out)
    assert record["samples"] == 500 and record["passes"] == 0
    assert record["violations"] + record["not_ample"] == 500


def test_stress_subspace(capsys):
    code, out, _ = run(
        capsys, "stress", "--suite", "subspace", "--samples", "60", "--seed", "4"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 1
    assert lines[0]["done"] is True
    assert lines[0]["samples"] + lines[0]["degenerate"] >= 60
    assert lines[0]["violations"] == 0
    assert lines[0]["fmt_failures"] == 0


def test_stress_product(capsys):
    code, out, _ = run(capsys, "stress", "--suite", "product", "--samples", "200")
    assert code == 0
    assert json.loads(out) == {
        "done": True,
        "failures": 0,
        "samples": 200,
        "suite": "product",
    }


def test_stress_probe(capsys):
    code, out, _ = run(
        capsys, "stress", "--suite", "probe", "--samples", "120", "--seed", "9"
    )
    assert code == 0
    record = json.loads(out)
    assert record["suite"] == "probe" and record["done"] is True
    assert record["samples"] + record["excluded"] == 120
    assert record["alpha_emp_float"] > 0
    assert 0 <= record["worst"]["index"] < 120


@pytest.mark.parametrize("suite", ["boundary", "subspace", "product", "probe"])
def test_stress_prints_one_record(capsys, suite):
    code, out, err = run(capsys, "stress", "--suite", suite, "--samples", "30")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["suite"] == suite and record["done"] is True


@pytest.mark.parametrize("suite", ["subspace", "product", "probe"])
def test_stress_sweep_stdout_does_not_depend_on_threads(capsys, suite):
    argv = ["stress", "--suite", suite, "--samples", "40", "--seed", "5"]
    code, one, err = run(capsys, *argv, "--threads", "1")
    assert code == 0 and err == ""
    assert run(capsys, *argv, "--threads", "2") == (0, one, "")


def _realization_doc(**changes) -> dict:
    doc = load_builtin("four-lines").to_json_dict()
    realization = doc["metadata"]["realization"]
    realization.update(changes)
    for key, value in changes.items():
        if value is None:
            del realization[key]
    return doc


def _foreign_point_doc() -> dict:
    # coordinates for a point that the config does not blow up
    doc = _realization_doc()
    doc["metadata"]["realization"]["points"]["P9.9"] = [5, 7, 11]
    return doc


def _nested_power_doc() -> dict:
    # the hyperplane made a conic, so each (...)^2 stays within its degree
    doc = _realization_doc(forms=["X", "Y", "Z", "(" * 22 + "9" + ")^2" * 22 + "*X*Y"])
    doc["components"][3]["degree"] = 2
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _realization_doc(forms=["(" * 5000 + "X" + ")" * 5000, "Y", "Z", "X + Y + Z"]),
        _realization_doc(pairings={"0": "Y - Z", "1": "X - Z", "7": "X - Y"}),
        _realization_doc(forms=None),
        _realization_doc(points=[[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
        # int(0.4) used to read the point as (0, 1, 1), which is valid
        _realization_doc(points={"P1.1": [0.4, 1, 1], "P2.1": [1, 0, 1], "P3.1": [1, 1, 0]}),
        # a power used to cost one product per unit of its exponent
        _realization_doc(forms=["X^99999999", "Y", "Z", "X + Y + Z"]),
        # int("00") used to read component 0
        _realization_doc(pairings={"00": "Y - Z", "1": "X - Z", "2": "X - Y"}),
        # each form is read at its degree, before any product is expanded
        _realization_doc(forms=["(X+Y+Z)^200", "Y", "Z", "X + Y + Z"]),
        _realization_doc(pairings={"0": "(X-Y)^2000", "1": "X - Z", "2": "X - Y"}),
        _realization_doc(forms=["9^9999999*X", "Y", "Z", "X + Y + Z"]),
        # each nested square doubles the digits of the constant
        _nested_power_doc(),
        _foreign_point_doc(),
    ],
    ids=[
        "deep-parentheses", "pairing-key-7", "missing-forms", "points-as-list",
        "float-coordinate", "huge-exponent", "pairing-key-00", "form-power-200",
        "pairing-power-2000", "constant-power", "nested-constant-powers",
        "foreign-point",
    ],
)
def test_stress_probe_malformed_realization_exits_3(capsys, tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with time_limit(1):
        code, out, err = run(
            capsys, "stress", "--suite", "probe", "--samples", "4", "--config", str(path)
        )
    # the CLI reports time_limit's TimeoutError, an OSError, as an input error
    assert "still running" not in err
    assert code == 3
    assert err.startswith("input error") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--suite", "boundary", "--config", "/nonexistent.json"], "--config"),
        (["--suite", "subspace", "--weights", "1,,2"], "--weights"),
        (["--suite", "product", "--builtin", "four-lines"], "--builtin"),
        (["--suite", "boundary", "--allow-single-component"], "--allow-single-component"),
    ],
    ids=["boundary-config", "subspace-weights", "product-builtin", "boundary-single"],
)
def test_stress_config_options_outside_the_probe_exit_3(capsys, argv, flag):
    # each used to be ignored, and the sweep ran and exited 0
    code, out, err = run(capsys, "stress", "--samples", "3", *argv)
    assert code == 3
    assert out == "" and f"{flag} is read only by --suite probe" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["boundary", "subspace", "product", "probe"])
def test_stress_negative_samples_exits_3(capsys, suite):
    code, out, err = run(capsys, "stress", "--suite", suite, "--samples", "-3")
    assert code == 3
    assert "must not be negative" in err
    assert out == ""


@pytest.mark.parametrize(
    "where, value",
    [
        (("no_three_meet",), "false"),
        (("allow_single_component",), 0),
        (("padded",), None),
        (("hyperplane",), "yes"),
        (("components", 0, "paired"), 1),
        (("components", 0, "degree"), 1.7),
        (("components", 0, "degree"), True),
        (("components", 0, "pairing_degree"), "1"),
        (("points", 0, "on", 0), 0.0),
        # str() used to read these as text and dict() to copy any mapping
        (("name",), 7),
        (("components", 0, "role"), 7),
        (("points", 0, "id"), 7),
        (("metadata",), [["realization", {}]]),
        (("version",), True),
    ],
)
def test_config_mistyped_field_exits_3(capsys, tmp_path, where, value):
    # flags must be JSON booleans and degrees JSON integers
    doc = load_builtin("four-lines").to_json_dict()
    *path, key = where
    parent = doc
    for step in path:
        parent = parent[step]
    parent[key] = value
    config = tmp_path / "mistyped.json"
    config.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certify", "--config", str(config))
    assert code == 3
    assert err.startswith("input error") and f"not {value!r}" in err
    assert "overall" not in out


def test_config_missing_degree_exits_3(capsys, tmp_path):
    path = tmp_path / "no-degree.json"
    path.write_text(json.dumps({"components": [{"paired": True}, {"degree": 1}]}))
    code, out, err = run(capsys, "certify", "--config", str(path))
    assert code == 3
    assert "missing key 'degree'" in err
    assert "overall" not in out


def test_config_point_on_two_indices_exits_3(capsys, tmp_path):
    # [0, 0] used to be read as the set {0}
    doc = load_builtin("four-lines").to_json_dict()
    doc["points"][0]["on"] = [0, 0]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certify", "--config", str(path))
    assert code == 3
    assert "point 'P1.1' must lie on exactly one component" in err
    assert "overall" not in out


def _single_curve(tmp_path, degree: int) -> str:
    path = tmp_path / f"degree-{degree}.json"
    doc = {"components": [{"degree": degree, "paired": True}], "hyperplane": True}
    path.write_text(json.dumps(doc))
    return str(path)


def test_paired_degree_above_the_cap_exits_3(capsys, tmp_path):
    # degree 1000 used to build its 10^6 points for seconds, then exit 1
    for degree in (1000, 101):
        start = time.perf_counter()
        code, out, err = run(capsys, "certify", "--config", _single_curve(tmp_path, degree),
                             "--weights", "1,1")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert f"paired component degree {degree} exceeds 100" in err
    code, out, _ = run(capsys, "certify", "--config", _single_curve(tmp_path, 100),
                       "--weights", "1,1")
    assert code == 1
    assert "component 0: degree 100, weight 1, root 201/200, ratio 201/400, holds False" in out
    assert out.endswith("overall: fail\nfirst failure: filtration_inequality\n")


def run_module(*argv) -> subprocess.CompletedProcess:
    """python -m orbicert in a fresh interpreter."""
    src = str(Path(orbicert.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "orbicert", *argv],
        capture_output=True,
        text=True,
        # keep the caller's bytecode settings, so no __pycache__ lands in src
        env={"PYTHONPATH": src, **{
            k: os.environ[k] for k in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
            if k in os.environ
        }},
        timeout=120,
    )


def test_python_dash_m_entry_point():
    done = run_module("search", "--bound", "4")
    assert done.returncode == 0, done.stderr
    assert "best (min-sum): 4,4,4,3" in done.stdout


def test_parser_is_built_once_and_reused(capsys):
    # a usage error and --help leave nothing behind in the shared parser
    assert build_parser() is build_parser()
    assert run(capsys, "search", "--bound", "x")[0] == 3
    assert run(capsys, "--help")[0] == 0
    argv = ("stress", "--suite", "boundary", "--samples", "8", "--seed", "11")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == 0 and first == second
    fresh = run_module(*argv)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == first


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "subspace", "--max-degree", "2"], "max degree 2 is below max_m 3"),
        (["--suite", "subspace", "--coeff-bound", "0"], "coefficient bound 0"),
        (["--suite", "probe", "--coeff-bound", "0"], "coefficient bound 0"),
        (["--suite", "probe", "--max-degree", "-1"], "max degree -1 must not be"),
        (["--suite", "boundary", "--coeff-bound", "0"], "coefficient bound 0 must be"),
        (["--suite", "boundary", "--max-degree", "0"], "max degree 0 must be"),
        (["--suite", "boundary", "--max-degree", "101"], "max degree 101 must be at most 100"),
        (["--suite", "subspace", "--max-degree", "101"], "max degree 101 must be at most 100"),
        (["--suite", "subspace", "--max-degree", "1000000"],
         "max degree 1000000 must be at most 100"),
    ],
    ids=["subspace-degree", "subspace-bound", "probe-bound", "probe-degree",
         "boundary-bound", "boundary-degree", "boundary-degree-cap",
         "subspace-degree-cap", "subspace-degree-far-above-cap"],
)
def test_stress_unsatisfiable_parameters_exit_3(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "stress", "--samples", "5", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err.startswith("input error") and message in err
    assert out == ""


def test_stress_subspace_runs_at_the_degree_cap(capsys):
    # a sample's cost grows with its degree; the cap itself still runs
    code, out, _ = run(
        capsys, "stress", "--suite", "subspace", "--samples", "5",
        "--coeff-bound", "1", "--max-degree", "100",
    )
    assert code == 0
    assert json.loads(out)["samples"] == 5


ONE_PROCESS = """
import sys
from orbicert import cli

for argv in (["search", "--bound", "4"],
             ["stress", "--suite", "boundary", "--samples", "8"]):
    assert cli.main([*argv, "--threads", "1"]) == 0
print("multiprocessing" in sys.modules)
"""


def test_one_process_never_imports_multiprocessing():
    src = str(Path(orbicert.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", ONE_PROCESS],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
