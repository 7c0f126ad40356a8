"""Scenario schema round-trips and the command-line pipeline."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from lqmfg import DivergenceError, UsageError, cli
from lqmfg.cli import main, run
from lqmfg.model import COEFFICIENTS, coefficient_shapes
from lqmfg.scenario import (ScenarioConfig, build_candidates, parse_scenario,
                            preset, serialize_scenario)


def write_config(tmp_path, cfg_dict, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg_dict))
    return str(path)


def closed_form_dict(**model_over):
    d = preset("netsec-closed-form").to_dict()
    d["model"].update(model_over)
    return d


# --------------------------------------------------------------- scenarios

def test_presets_round_trip_identically():
    for name in ("netsec-closed-form", "netsec-numeric"):
        cfg = preset(name)
        again = parse_scenario(serialize_scenario(cfg))
        assert again == cfg
        assert parse_scenario(serialize_scenario(again)) == again


def test_preset_models_build_and_validate():
    import lqmfg
    for name in ("netsec-closed-form", "netsec-numeric"):
        cfg = preset(name)
        model = cfg.model.build(cfg.solver.steps)
        assert model.n == 1 and model.k == 1
        assert lqmfg.validate(model).all_passed
    closed = preset("netsec-closed-form")
    assert closed.model.coefficients["Q"] == ((3.0,),)
    assert closed.experiment.kind == "solve"
    numeric = preset("netsec-numeric")
    assert numeric.experiment.kind == "simulate"
    assert numeric.experiment.N == 50


def test_unknown_preset_lists_available_names():
    with pytest.raises(UsageError) as err:
        preset("does-not-exist")
    message = str(err.value)
    assert "netsec-closed-form" in message and "netsec-numeric" in message


def test_schedule_coefficient_round_trips():
    d = closed_form_dict(steps=4,
                         A={"schedule": [[[0.1 * j]] for j in range(5)]})
    cfg = parse_scenario(json.dumps(d))
    assert np.ndim(cfg.model.coefficients["A"]) == 3    # a schedule
    assert parse_scenario(serialize_scenario(cfg)) == cfg
    model = cfg.model.build()
    assert model.A[3][0, 0] == pytest.approx(0.3)


def test_parse_reports_json_position():
    with pytest.raises(UsageError) as err:
        parse_scenario('{"model": \n  broken}')
    assert "line 2" in str(err.value)


def test_unknown_keys_are_named():
    d = closed_form_dict()
    d["model"]["turbo"] = 1
    with pytest.raises(UsageError) as err:
        parse_scenario(json.dumps(d))
    assert "turbo" in str(err.value)
    d2 = preset("netsec-closed-form").to_dict()
    d2["extra_block"] = {}
    with pytest.raises(UsageError) as err2:
        parse_scenario(json.dumps(d2))
    assert "extra_block" in str(err2.value)


def test_schedule_must_cover_every_node():
    d = closed_form_dict(steps=4, A={"schedule": [[[1.0]]] * 3})
    with pytest.raises(UsageError):
        parse_scenario(json.dumps(d))


def test_steps_override_conflicts_with_explicit_schedule():
    d = closed_form_dict(steps=4,
                         A={"schedule": [[[1.0]]] * 5})
    cfg = parse_scenario(json.dumps(d))
    cfg.model.build()  # fine on its own grid
    with pytest.raises(UsageError, match="^model.A: schedule has 5 entries, "
                                         "grid has 9 nodes$"):
        cfg.model.build(steps_override=8)


def test_zero_steps_override_is_rejected():
    # 0 is an override like any other, not "use the scenario's own steps"
    with pytest.raises(UsageError):
        preset("netsec-closed-form").model.build(0)


@pytest.mark.parametrize("field, value", [
    ("n", 0), ("horizon", -1.0), ("steps", 0), ("n", 2),
    ("x0", (1.0, 2.0))])
def test_model_block_built_in_python_checks_its_sizes(field, value):
    # a block replaced in Python is checked as one read from JSON is
    with pytest.raises(UsageError):
        dataclasses.replace(preset("netsec-closed-form").model,
                            **{field: value})


@pytest.mark.parametrize("name", ["netsec-closed-form", "netsec-numeric"])
@pytest.mark.parametrize("field, value", [
    *[("n", v) for v in (0, 1, 2)], *[("k", v) for v in (0, 1, 2)],
    *[("steps", v) for v in (0, 1, 50)],
    *[("horizon", v) for v in (-1.0, 0.5, 2.0)],
    *[("r_min", v) for v in (-1.0, 1e-6, 0.5)],
    *[("x0", v) for v in ((), (1.0,), (1.0, 2.0))],
    ("G", ((2.0,),)), ("G", ((1.0, 0.0), (0.0, 1.0)))])
def test_model_block_constructs_only_when_its_echo_reparses(name, field,
                                                           value):
    # a block either raises at construction or its config echo re-parses
    # to an equal block that builds the same model
    cfg = preset(name)
    try:
        block = dataclasses.replace(cfg.model, **{field: value})
    except UsageError as exc:
        assert str(exc).startswith("model.")
        return
    again = parse_scenario(serialize_scenario(cfg.replace(model=block)))
    assert again.model == block
    built, rebuilt = block.build(), again.model.build()
    for f in dataclasses.fields(built):
        assert np.array_equal(getattr(built, f.name),
                              getattr(rebuilt, f.name)), f.name


def test_integral_float_sizes_read_as_integers():
    cfg = parse_scenario(json.dumps(closed_form_dict(steps=40.0, n=1.0)))
    assert cfg.model.steps == 40 and type(cfg.model.steps) is int
    assert cfg.model.n == 1 and type(cfg.model.n) is int
    assert cfg.model.build().grid.steps == 40


def test_wrong_format_version_rejected():
    d = closed_form_dict()
    d["format_version"] = 99
    with pytest.raises(UsageError):
        parse_scenario(json.dumps(d))


def test_candidate_family_from_config():
    block_cfg = {"gain_scales": [0.5, 1.0, 2.0], "include_zero": True,
                 "offsets": [0.25]}
    d = closed_form_dict()
    d["experiment"]["candidates"] = block_cfg
    cfg = parse_scenario(json.dumps(d))
    family = build_candidates(cfg.experiment.candidates)
    names = [c.name for c in family]
    # theta = 1 duplicates the equilibrium policy and is not repeated
    assert names == ["self", "gain_scale_0.5", "gain_scale_2",
                     "zero_control", "offset_+0.25"]
    default = __import__("lqmfg").default_candidate_family()
    assert build_candidates(None) == default
    # the default family is the family of its own parameters
    d["experiment"]["candidates"] = {
        "gain_scales": [0.0, 0.5, 0.8, 1.2, 1.5, 2.0], "include_zero": True,
        "offsets": [0.5, -0.5]}
    cfg = parse_scenario(json.dumps(d))
    assert build_candidates(cfg.experiment.candidates) == default


# --------------------------------------------------------------------- CLI

def test_cli_solve_writes_expected_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["--preset", "netsec-closed-form", "--out", str(out),
                 "--steps", "200"])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    names = sorted(os.path.basename(p) for p in printed)
    assert names == ["netsec-closed-form_manifest.json",
                     "netsec-closed-form_riccati.csv",
                     "netsec-closed-form_solve_report.json"]
    data = np.genfromtxt(out / "netsec-closed-form_riccati.csv",
                         delimiter=",", names=True)
    assert data.shape == (201,)
    t = data["t"]
    exact = (3.0 - np.exp(4.0 * (t - 1.0))) / (1.0 + np.exp(4.0 * (t - 1.0)))
    assert np.max(np.abs(data["P_1_1"] - exact)) < 1e-6
    assert np.max(np.abs(data["Phi_1"])) == 0.0
    manifest = json.loads((out / "netsec-closed-form_manifest.json").read_text())
    assert manifest["config"]["solver"]["steps"] == 200
    assert manifest["kind"] == "solve"


def test_cli_solve_report_carries_margins(tmp_path):
    # netsec-numeric has D, D0 != 0, so Sigma = R + D'PD + D0'PD0 moves with P
    d = preset("netsec-numeric").to_dict()
    d["model"]["steps"] = 40
    d["experiment"] = {"kind": "solve", "seed": 1}
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "m"}
    assert main(["--config", write_config(tmp_path, d), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "m_solve_report.json").read_text())
    cross = report["cross_check"]
    residuals = cross["iterative_residuals"]
    assert len(residuals) == cross["iterative_iterations"] >= 2
    assert residuals[-1] < d["solver"]["tol"] <= residuals[-2]
    data = np.genfromtxt(tmp_path / "out" / "m_riccati.csv", delimiter=",",
                         names=True)
    margins = data["Sigma_1_1"] - d["model"]["r_min"]
    node = int(np.argmin(margins))
    assert cross["sigma_margin"]["node"] == node
    assert cross["sigma_margin"]["t"] == data["t"][node]
    assert cross["sigma_margin"]["value"] == pytest.approx(margins[node],
                                                           rel=1e-12)


def test_cli_solve_report_carries_psd_margins(tmp_path):
    # n = 2 with alpha = delta I and beta = beta0 = 0, so both Gamma routes
    # run and the report carries the minimum eigenvalue of P and of Pi.
    d = preset("netsec-numeric").to_dict()
    d["model"].update({
        "n": 2, "k": 1, "steps": 40, "x0": [1.0, -0.5],
        "G": [[1.0, 0.3], [0.3, 0.5]],
        "A": [[-0.5, 0.4], [0.2, -0.3]], "B": [[1.0], [0.4]],
        "alpha": [[0.3, 0.0], [0.0, 0.3]], "b": [[0.5], [-0.2]],
        "C": [[0.2, 0.1], [0.0, 0.3]], "D": [[0.4], [0.2]],
        "beta": 0.0, "sigma": [[0.5], [0.4]], "C0": 0.0,
        "D0": [[0.3], [0.1]], "beta0": 0.0, "sigma0": [[0.3], [0.2]],
        "Q": [[1.0, 0.2], [0.2, 0.8]], "R": [[1.0]]})
    d["experiment"] = {"kind": "solve", "seed": 1}
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "m"}
    assert main(["--config", write_config(tmp_path, d), "--quiet"]) == 0
    cross = json.loads(
        (tmp_path / "out" / "m_solve_report.json").read_text())["cross_check"]
    data = np.genfromtxt(tmp_path / "out" / "m_riccati.csv", delimiter=",",
                         names=True)

    def matrices(name):
        return np.stack([[data[f"{name}_{i}_{j}"] for j in (1, 2)]
                         for i in (1, 2)]).transpose(2, 0, 1)

    # riccati.csv holds the direct route's Gamma, which differs from the
    # Pi route's Pi - P by at most gamma_agreement (Frobenius, per node),
    # and so does the minimum eigenvalue of P + Gamma from that of Pi
    P = matrices("P")
    for margin, X, tol in ((cross["p_psd_margin"], P, 0.0),
                           (cross["pi"]["psd_margin"], P + matrices("Gamma"),
                            cross["gamma_agreement"])):
        eigs = np.linalg.eigvalsh(X)[:, 0]
        node = int(np.argmin(eigs))
        assert margin["node"] == node
        assert margin["t"] == data["t"][node]
        assert margin["value"] == pytest.approx(eigs[node], rel=1e-12,
                                                abs=tol)
        assert margin["value"] > 0.0


def test_cli_gamma_escape_exits_4_with_one_record(tmp_path, capsys):
    # P stays bounded, but C (C + beta) = -2 drives Pi = P + Gamma negative
    # and Gamma through a pole near t = 0.212: node 21 of 100 is the first
    # node past it.  Only the direct Gamma route runs (beta != 0).
    d = closed_form_dict(steps=100, A=0.0, alpha=0.0, C=1.0, beta=-3.0,
                         Q=10.0, G=0.0)
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "pole"}
    code = main(["--config", write_config(tmp_path, d), "--quiet"])
    assert code == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "DivergenceError"
    assert record["message"].startswith("Gamma diverged at node 21 (t=0.21)")


def test_cli_quiet_suppresses_listing(tmp_path, capsys):
    code = main(["--preset", "netsec-closed-form", "--out", str(tmp_path),
                 "--steps", "50", "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_manifest_config_reproduces_the_run(tmp_path):
    out = tmp_path / "first"
    main(["--preset", "netsec-closed-form", "--out", str(out),
          "--steps", "80", "--quiet"])
    manifest = json.loads((out / "netsec-closed-form_manifest.json").read_text())
    echo = ScenarioConfig.from_dict(manifest["config"])
    run(echo, quiet=True)  # identical artifacts land in the same directory
    again = json.loads((out / "netsec-closed-form_manifest.json").read_text())
    assert again["config"] == manifest["config"]


def test_cli_usage_errors_exit_2_with_record(tmp_path, capsys):
    code = main(["--preset", "nope", "--out", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["exit_code"] == 2
    assert record["error"] == "UsageError"
    assert "netsec-numeric" in record["message"]


def test_cli_flag_errors_exit_2(capsys):
    assert main([]) == 2                       # a scenario source is required
    assert main(["--config", "a", "--preset", "b"]) == 2  # mutually exclusive
    capsys.readouterr()


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "absent.json")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "UsageError"


def test_cli_validation_failure_exits_3_and_writes_nothing(tmp_path, capsys):
    d = closed_form_dict(Q=-1.0)
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "bad"}
    code = main(["--config", write_config(tmp_path, d), "--quiet"])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"
    assert "Q" in record["message"]
    out = tmp_path / "out"
    assert not out.exists() or list(out.iterdir()) == []


def test_cli_numerical_failure_exits_4_and_writes_nothing(tmp_path, capsys):
    d = closed_form_dict(A=100.0, steps=4)
    d["solver"]["p_method"] = "direct"
    d["solver"]["gamma_method"] = "direct"
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "boom"}
    code = main(["--config", write_config(tmp_path, d), "--quiet"])
    assert code == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "DivergenceError"
    out = tmp_path / "out"
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("key, value, code", [
    ("T", 1e308, 4),    # the backward sweep overflows
    ("C", 1e200, 4),    # |C|^2 in the diagnostic used to raise OverflowError
    ("R", -1e308, 3),   # the symmetry check of R overflows
    ("D", 1e153, 0),    # Sigma overflows to inf, so the gain goes to zero
])
def test_cli_extreme_values_write_only_the_error_record(tmp_path, key, value,
                                                        code):
    # overflow ends in a typed error or a clean run: stderr holds the JSON
    # record alone, with no RuntimeWarning and no traceback
    d = closed_form_dict(steps=20, **{key: value})
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "big"}
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-m", "lqmfg.cli", "--config",
                          write_config(tmp_path, d), "--quiet"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == code, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == (1 if code else 0), out.stderr
    if code:
        assert json.loads(lines[0])["exit_code"] == code


def _assert_rejected_before_the_solve(tmp_path, capsys, experiment, key,
                                      flags=()):
    """The scenario exits 2 with one record naming ``key`` and no file."""
    d = closed_form_dict(steps=30)
    d["experiment"] = experiment
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "r"}
    code = main(["--config", write_config(tmp_path, d), "--quiet", *flags])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "UsageError" and record["exit_code"] == 2
    assert key in record["message"]
    assert not (tmp_path / "out").exists()


def test_cli_short_rate_ladder_exits_2(tmp_path, capsys):
    _assert_rejected_before_the_solve(
        tmp_path, capsys, {"kind": "rate_state", "seed": 3, "N": None,
                           "Ns": [4, 8, 16], "S": 4, "candidates": None},
        "experiment.Ns")


@pytest.mark.parametrize("kind, key", [
    ("simulate", "experiment.N"),
    ("deviation", "experiment.N"),
    ("rate_cost", "experiment.Ns"),
])
def test_cli_experiment_without_its_size_exits_2(tmp_path, capsys, kind,
                                                 key):
    _assert_rejected_before_the_solve(
        tmp_path, capsys, {"kind": kind, "seed": 3, "S": 4}, key)


@pytest.mark.parametrize("flag, value, key", [
    ("--steps", "0", "steps"),
    ("--seed", str(1 << 64), "seed"),
])
def test_cli_out_of_range_override_exits_2(tmp_path, capsys, flag, value,
                                           key):
    _assert_rejected_before_the_solve(
        tmp_path, capsys, {"kind": "solve", "seed": 3}, key, (flag, value))


def test_cli_population_too_large_for_memory_exits_2(tmp_path):
    # numpy refuses the 218 TiB noise block of N = 10**12 at once, so
    # nothing is allocated; simulate fails there, before the CLI lists the
    # N agent paths
    d = closed_form_dict(steps=30)
    d["experiment"] = {"kind": "simulate", "seed": 3, "N": 10 ** 12}
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "big"}
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-m", "lqmfg.cli", "--config",
                          write_config(tmp_path, d), "--quiet"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1, out.stderr
    record = json.loads(lines[0])
    assert record["exit_code"] == 2
    assert "allocate" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, runner", [
    ("simulate", "simulate_population"),
    ("rate_state", "rate_experiment_state"),
    ("deviation", "deviation_experiment"),
])
def test_cli_failure_after_the_solve_writes_nothing(tmp_path, capsys,
                                                    monkeypatch, kind,
                                                    runner):
    # the solve succeeds and the experiment fails: no solve artifact, and
    # no output directory, is left behind
    def diverge(*_, **__):
        raise DivergenceError("diverged in the experiment", node=3, t=0.1)

    monkeypatch.setattr(cli, runner, diverge)
    d = closed_form_dict(steps=30)
    d["experiment"] = {"kind": kind, "seed": 3, "N": 4,
                       "Ns": [2, 4, 8, 16], "S": 4}
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "f"}
    assert main(["--config", write_config(tmp_path, d), "--quiet"]) == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DivergenceError"
    assert not (tmp_path / "out").exists()


def test_cli_rate_kind_writes_fit_and_table(tmp_path):
    d = closed_form_dict(steps=30)
    d["experiment"] = {"kind": "rate_cost", "seed": 3, "N": None,
                       "Ns": [2, 4, 8, 16], "S": 4, "candidates": None}
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "r"}
    assert main(["--config", write_config(tmp_path, d), "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "r_rate_cost.json").read_text())
    assert rep["Ns"] == [2, 4, 8, 16]
    assert len(rep["values"]) == 4
    table = np.genfromtxt(tmp_path / "out" / "r_rate_cost.csv",
                          delimiter=",", names=True)
    assert list(table["N"]) == [2.0, 4.0, 8.0, 16.0]
    np.testing.assert_allclose(table["cost_gap"], rep["values"], rtol=1e-15)


def test_cli_degenerate_rate_fit_writes_strict_json(tmp_path):
    # no noise: every agent sits on the limit, the gaps read 0 and the
    # log-log fits are degenerate; their JSON must parse without NaN
    d = closed_form_dict(steps=30, A={"const": [[0.4]]},
                         alpha={"const": [[0.0]]}, sigma={"const": [[0.0]]},
                         sigma0={"const": [[0.0]]}, Q={"const": [[1.0]]},
                         G=[[0.5]])
    d["solver"] = {"p_method": "direct", "gamma_method": "direct"}
    d["experiment"] = {"kind": "rate_state", "seed": 3, "N": None,
                       "Ns": [2, 4, 8, 16], "S": 2, "candidates": None}
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "z"}
    assert main(["--config", write_config(tmp_path, d), "--quiet"]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    rep = json.loads((tmp_path / "out" / "z_rate_state.json").read_text(),
                     parse_constant=reject)
    fits = [rep] + rep["companions"]
    assert any(fit["degenerate"] for fit in fits)
    for fit in fits:
        if fit["degenerate"]:
            assert (fit["slope"], fit["intercept"],
                    fit["slope_stderr"]) == (None, None, None)


def test_cli_deviation_kind(tmp_path):
    d = closed_form_dict(steps=30)
    d["experiment"] = {"kind": "deviation", "seed": 5, "N": 4, "Ns": None,
                       "S": 4, "candidates": {"gain_scales": [0.0, 2.0],
                                              "include_zero": False,
                                              "offsets": []}}
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "d"}
    assert main(["--config", write_config(tmp_path, d), "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "d_deviation.json").read_text())
    assert [c["name"] for c in rep["candidates"]] == \
        ["self", "gain_scale_0", "gain_scale_2"]
    assert rep["candidates"][0]["gain"] == 0.0
    assert rep["max_gain"] <= 0.0 + 1e-15 or rep["max_gain"] == 0.0


def test_cli_pi_precondition_violation_is_recorded_not_fatal(tmp_path):
    d = closed_form_dict(beta=0.4)
    d["model"]["steps"] = 40
    d["solver"]["gamma_method"] = "both"
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "pi"}
    assert main(["--config", write_config(tmp_path, d), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "pi_solve_report.json").read_text())
    cross = report["cross_check"]
    assert cross["pi_error"] is not None and "beta" in cross["pi_error"]
    assert cross["pi"] is None
    assert cross["gamma_agreement"] is None
    assert (tmp_path / "out" / "pi_riccati.csv").exists()


def _closed_form_run(tmp_path, p_method, gamma_method, **model):
    """Exit code and output directory of a 200-step netsec-closed-form
    solve on the given routes."""
    name = f"{p_method}_{gamma_method}"
    d = closed_form_dict(steps=200, **model)
    d["solver"].update(p_method=p_method, gamma_method=gamma_method)
    d["output"] = {"directory": str(tmp_path / name), "prefix": "cf"}
    code = main(["--config", write_config(tmp_path, d, f"{name}.json"),
                 "--quiet"])
    return code, tmp_path / name


def test_cli_iterative_and_pi_routes_match_the_direct_run(tmp_path):
    # each alternative route as the only, primary route
    def artifacts(p_method, gamma_method):
        code, out = _closed_form_run(tmp_path, p_method, gamma_method)
        assert code == 0
        table = np.genfromtxt(out / "cf_riccati.csv", delimiter=",",
                              names=True)
        cross = json.loads(
            (out / "cf_solve_report.json").read_text())["cross_check"]
        return table, cross

    direct, _ = artifacts("direct", "direct")
    table, cross = artifacts("iterative", "direct")
    assert np.max(np.abs(table["P_1_1"] - direct["P_1_1"])) < 1e-8
    assert len(cross["iterative_residuals"]) == \
        cross["iterative_iterations"] >= 2
    assert cross["p_agreement"] is None
    table, cross = artifacts("direct", "pi_transform")
    assert np.max(np.abs(table["Gamma_1_1"] - direct["Gamma_1_1"])) < 1e-8
    assert cross["pi"] is not None
    assert cross["gamma_agreement"] is None and cross["pi_error"] is None


def test_cli_pi_route_alone_with_beta_exits_2(tmp_path, capsys):
    # without the direct route to fall back on, the Pi precondition is fatal
    code, out = _closed_form_run(tmp_path, "direct", "pi_transform",
                                 beta=0.5)
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["exit_code"] == 2 and "beta" in record["message"]
    assert not out.exists()


def test_cli_seed_and_steps_overrides_change_artifacts(tmp_path):
    d = preset("netsec-numeric").to_dict()
    d["model"]["steps"] = 40
    d["experiment"]["N"] = 2
    d["solver"]["p_method"] = "direct"
    d["solver"]["gamma_method"] = "direct"
    d["output"] = {"directory": str(tmp_path / "a"), "prefix": "x"}
    cfg_path = write_config(tmp_path, d)
    assert main(["--config", cfg_path, "--quiet"]) == 0
    base_mf = (tmp_path / "a" / "x_meanfield.csv").read_bytes()
    base_manifest = json.loads((tmp_path / "a" / "x_manifest.json").read_text())
    assert base_manifest["seed"] == 20250801

    assert main(["--config", cfg_path, "--out", str(tmp_path / "b"),
                 "--seed", "99", "--quiet"]) == 0
    other_mf = (tmp_path / "b" / "x_meanfield.csv").read_bytes()
    other_manifest = json.loads((tmp_path / "b" / "x_manifest.json").read_text())
    assert other_manifest["seed"] == 99
    assert other_mf != base_mf  # different common-noise draws

    assert main(["--config", cfg_path, "--out", str(tmp_path / "c"),
                 "--steps", "20", "--quiet"]) == 0
    rows = (tmp_path / "c" / "x_riccati.csv").read_text().strip().splitlines()
    assert len(rows) == 22  # header + 21 nodes


def test_cli_reruns_are_byte_identical(tmp_path):
    d = preset("netsec-numeric").to_dict()
    d["model"]["steps"] = 50
    d["experiment"]["N"] = 3
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "rep"}
    cfg_path = write_config(tmp_path, d)
    assert main(["--config", cfg_path, "--quiet"]) == 0
    out = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["--config", cfg_path, "--quiet"]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(first) == sorted(second)
    for name in first:
        if name.endswith("manifest.json"):
            a = json.loads(first[name])
            b = json.loads(second[name])
            a.pop("wall_time_s"), b.pop("wall_time_s")
            assert a == b
        else:
            assert first[name] == second[name], name
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("block, key, value", [
    ("model", "n", "abc"),
    ("model", "T", [1]),
    ("model", "x0", ["a"]),
    (None, "format_version", "x"),
    ("model", "steps", 1.5),
    ("experiment", "candidates", {"include_zero": "false"}),
    ("output", "directory", None),
    ("model", "x0", [float("nan")]),
    ("model", "r_min", float("inf")),
    ("experiment", "candidates", {"gain_scales": [float("inf")]}),
    ("experiment", "candidates", {"offsets": [float("inf")]}),
    ("solver", "tol", float("inf")),
])
def test_cli_malformed_value_exits_2(tmp_path, capsys, monkeypatch, block,
                                     key, value):
    monkeypatch.chdir(tmp_path)
    d = closed_form_dict()
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "bad"}
    (d if block is None else d[block])[key] = value
    code = main(["--config", write_config(tmp_path, d), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "UsageError" and record["exit_code"] == 2
    assert key in record["message"]


def test_cli_overflowing_horizon_exits_2(tmp_path, capsys):
    # JSON reads 1e400 as infinity: a config error naming the key, as a
    # non-finite r_min is
    d = closed_form_dict()
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "bad"}
    text = json.dumps(d)
    assert text.count('"T": 1.0') == 1
    path = tmp_path / "scenario.json"
    path.write_text(text.replace('"T": 1.0', '"T": 1e400'))
    assert main(["--config", str(path), "--quiet"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "UsageError"
    assert record["message"] == "model.T must be finite, got inf"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_cli_bad_mfg_threads_exits_2_before_the_solve(tmp_path, capsys,
                                                      monkeypatch, threads):
    monkeypatch.setenv("MFG_THREADS", threads)
    d = closed_form_dict(steps=20)
    d["experiment"] = {"kind": "rate_state", "Ns": [2, 4, 8, 16], "S": 2}
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "bad"}
    path = write_config(tmp_path, d)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the worker count was read")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "solve_riccati", no_solve)
        assert main(["--config", path, "--quiet"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "UsageError" and record["exit_code"] == 2
    assert "MFG_THREADS" in record["message"]
    assert not (tmp_path / "out").exists()
    # a solve runs no pool and ignores the variable
    d["experiment"] = {"kind": "solve"}
    assert main(["--config", write_config(tmp_path, d), "--quiet"]) == 0


@pytest.mark.parametrize("block, entries, key", [
    ("model", {"n": 0}, "n and k"),
    ("model", {"k": -1}, "n and k"),
    ("model", {"steps": 0}, "model steps"),
    ("model", {"T": 0}, "horizon T"),
    ("solver", {"p_method": "newton"}, "solver.p_method"),
    ("solver", {"gamma_method": "newton"}, "solver.gamma_method"),
    ("solver", {"max_iters": 0}, "solver.max_iters"),
    ("solver", {"tol": -1e-9}, "solver.tol"),
    ("experiment", {"kind": "sweep"}, "experiment.kind"),
    ("experiment", {"kind": "simulate", "N": 0}, "experiment.N"),
    ("experiment", {"S": 1}, "experiment.S"),
    ("output", {"prefix": "a/b"}, "output.prefix"),
    ("model", {"x0": [[1.0], [1.0, 2.0]]}, "model.x0"),
    ("model", {"A": 10 ** 400}, "model.A"),
    ("experiment", {"kind": "rate_state", "Ns": 8}, "experiment.Ns"),
    ("model", {"A": {"schedule": []}}, "model.A: schedule has no entries"),
    ("model", {"steps": 8, "A": {"schedule": [[[1.0]]] * 5}},
     "model.A: schedule has 5 entries, grid has 9 nodes"),
])
def test_cli_out_of_range_value_exits_2_writing_nothing(tmp_path, capsys,
                                                        block, entries, key):
    d = closed_form_dict()
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "bad"}
    d[block].update(entries)
    code = main(["--config", write_config(tmp_path, d), "--quiet"])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "UsageError" and record["exit_code"] == 2
    assert key in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("steps, code", [(10, 0), (20, 0), (3, 4), (5, 4)])
def test_cli_kleinman_order_check_on_coarse_grids(tmp_path, capsys, steps,
                                                  code):
    # on 10 and 20 steps the iterates leave the PSD order only by RK4's
    # step error and agree with the direct route; on 3 and 5 they diverge
    out = tmp_path / "out"
    assert main(["--preset", "netsec-closed-form", "--steps", str(steps),
                 "--out", str(out), "--quiet"]) == code
    if code:
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "MonotonicityError"
        assert not out.exists()
    else:
        report = json.loads(
            (out / "netsec-closed-form_solve_report.json").read_text())
        assert report["cross_check"]["p_agreement"] <= 1e-5


def test_cli_removed_solver_key_exits_2(tmp_path, capsys):
    # a removed key that scenarios and manifests written earlier still carry
    d = closed_form_dict()
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "old"}
    d["solver"]["m00_beta_literal"] = False
    code = main(["--config", write_config(tmp_path, d), "--quiet"])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "UsageError" and record["exit_code"] == 2
    assert "m00_beta_literal" in record["message"]


def n3_k2_dict(steps, n=3, k=2):
    """A solvable n = 3, k = 2 (or smaller) solve scenario with every slot
    nonzero."""
    rng = np.random.default_rng(23)

    def u(rows, cols):
        return rng.uniform(-1.0, 1.0, (rows, cols))

    Mq, Mr, Mg = u(n, n), u(k, k), u(n, n)
    model = {"n": n, "k": k, "T": 1.0, "steps": steps,
             "x0": [1.0, 0.5, -0.5][:n],
             "Q": Mq.T @ Mq, "R": np.eye(k) + Mr.T @ Mr, "G": Mg.T @ Mg}
    for name, (r, c) in coefficient_shapes(n, k).items():
        model.setdefault(name, u(r, c))
    return {"model": {key: value.tolist() if isinstance(value, np.ndarray)
                      else value for key, value in model.items()},
            "solver": {"p_method": "both"},
            "experiment": {"kind": "solve"}}


def test_cli_schedules_of_every_slot_match_constants(tmp_path):
    # every slot, the n x k control channels included, accepts a schedule;
    # a schedule repeating a constant gives the constant's artifacts
    steps = 30
    outputs = {}
    for form in ("const", "schedule"):
        d = n3_k2_dict(steps)
        for name in COEFFICIENTS:
            value = d["model"][name]
            d["model"][name] = ({"const": value} if form == "const" else
                                {"schedule": [value] * (steps + 1)})
        d["output"] = {"directory": str(tmp_path / form), "prefix": "m"}
        assert main(["--config", write_config(tmp_path, d, form + ".json"),
                     "--quiet"]) == 0
        outputs[form] = [(tmp_path / form / f"m_{name}").read_bytes()
                         for name in ("riccati.csv", "solve_report.json")]
    assert outputs["const"] == outputs["schedule"]


@pytest.mark.parametrize("B, message", [
    (3.0, "model.B: a nonzero scalar is only valid for 1x1 entries; give a "
          "3x2 matrix"),
    ({"schedule": [[[1.0, 0.0]] * 3] * 30 + [[[1.0]] * 3]},
     "model.B[30]: expected shape (3, 2), got (3, 1)"),
    ({"schedule": [[[1.0, 0.0]] * 3] * 30 + [[[1.0, float("inf")]] * 3]},
     "model.B[30]: non-finite entry"),
], ids=["scalar", "node-shape", "node-inf"])
def test_cli_malformed_slot_value_exits_2(tmp_path, capsys, B, message):
    d = n3_k2_dict(30)
    d["model"]["B"] = B
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "bad"}
    assert main(["--config", write_config(tmp_path, d), "--quiet"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "UsageError" and record["exit_code"] == 2
    assert record["message"] == message
    assert not (tmp_path / "out").exists()


def test_cli_out_naming_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    # the directory is made after the solve, which must therefore succeed,
    # as the preset's does at 30 steps (and at 20)
    code = main(["--preset", "netsec-closed-form", "--out", str(blocker),
                 "--steps", "30", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "FileExistsError" and record["exit_code"] == 2
    assert str(blocker) in record["message"]


def test_cli_agent_write_failure_in_a_pool_worker_exits_2(tmp_path, capfd,
                                                          monkeypatch):
    # a directory squats on one agent file: its worker's rename fails, and
    # the OSError crosses the process boundary to the one error record
    monkeypatch.setenv("MFG_THREADS", "2")
    d = preset("netsec-numeric").to_dict()
    d["model"]["steps"] = 20
    d["experiment"]["N"] = 4
    out = tmp_path / "out"
    d["output"] = {"directory": str(out), "prefix": "sq"}
    (out / "sq_agent_002.csv").mkdir(parents=True)
    assert main(["--config", write_config(tmp_path, d), "--quiet"]) == 2
    err = capfd.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "IsADirectoryError" and record["exit_code"] == 2
    assert "sq_agent_002.csv" in record["message"]
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]
    assert not (out / "sq_manifest.json").exists()


@pytest.mark.parametrize("scenario", ["netsec-numeric", "n2-k2"])
def test_cli_simulate_artifacts_do_not_depend_on_the_worker_count(
        tmp_path, monkeypatch, scenario):
    # 3 workers split N = 7 agents into uneven shares
    if scenario == "netsec-numeric":
        d = preset("netsec-numeric").to_dict()
        d["model"]["steps"] = 50
    else:
        d = n3_k2_dict(50, n=2, k=2)
    d["experiment"] = {"kind": "simulate", "seed": 13, "N": 7}
    runs = []
    for threads in (1, 2, 3):
        monkeypatch.setenv("MFG_THREADS", str(threads))
        out = tmp_path / str(threads)
        d["output"] = {"directory": str(out), "prefix": "w"}
        assert main(["--config", write_config(tmp_path, d), "--quiet"]) == 0
        manifest = json.loads((out / "w_manifest.json").read_text())
        files = {p.name: p.read_bytes() for p in out.iterdir()
                 if p.name != "w_manifest.json"}
        assert not [name for name in files if name.endswith(".tmp")]
        runs.append((manifest["artifacts"], files))
    names, files = runs[0]
    assert names == (["w_riccati.csv", "w_solve_report.json",
                      "w_meanfield.csv"]
                     + [f"w_agent_{i:03d}.csv" for i in range(1, 8)]
                     + ["w_costs.json"])
    assert sorted(files) == sorted(names)
    if scenario == "n2-k2":
        assert files["w_agent_007.csv"].startswith(b"t,zhat_1,zhat_2,u_1,u_2\n")
    for other in runs[1:]:
        assert other == runs[0]


def test_csv_cells_are_shortest_round_trip_reprs():
    from lqmfg.io import _csv
    from lqmfg.model import TimeGrid
    special = [-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 0.1, -2.5e-7]
    columns = [np.arange(len(special), dtype=float), np.array(special),
               np.array(special[::-1]), np.arange(len(special))]

    def reference(cols):
        return "\n".join(
            ["t,x,y,i"] + [",".join(repr(float(col[j])) for col in cols)
                           for j in range(len(special))]) + "\n"

    assert _csv(["t", "x", "y", "i"], columns) == reference(columns)
    # a grid-led table takes its node column from a template cached per
    # grid: grids of equal steps and different horizons must not share it
    for horizon in (0.7, 1.3, 0.7):
        grid = TimeGrid(horizon, len(special) - 1)
        assert (_csv(["t", "x", "y", "i"], columns[1:], grid)
                == reference([grid.nodes] + columns[1:]))


def test_agent_csv_with_preformatted_nodes_keeps_the_bytes(tmp_path):
    # an agent table's node column comes preformatted from the grid's cached
    # line template; the file is the plain table's with the nodes as a column
    from lqmfg.io import _csv, write_agent_csv
    from lqmfg.model import TimeGrid
    grid = TimeGrid(0.7, 9)
    rng = np.random.default_rng(3)
    z_hat = rng.standard_normal((10, 2)) * 10.0 ** rng.integers(-300, 300,
                                                                 (10, 2))
    u = rng.standard_normal((10, 1))
    z_hat[3, 0], u[5, 0] = -0.0, 5e-324
    reference = _csv(["t", "zhat_1", "zhat_2", "u_1"],
                     [grid.nodes, z_hat[:, 0], z_hat[:, 1], u[:, 0]])
    for _ in range(2):
        write_agent_csv(tmp_path / "agent.csv", grid, z_hat, u)
        assert (tmp_path / "agent.csv").read_bytes() == reference.encode()


def test_atomic_write_onto_a_directory_leaves_no_temp_file(tmp_path):
    from lqmfg.io import atomic_write_text
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "taken", "text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_write_json_writes_numpy_and_dataclass_values_as_plain_ones(
        tmp_path):
    from lqmfg.io import write_json

    @dataclasses.dataclass(frozen=True)
    class Inner:
        value: float
        count: int

    @dataclasses.dataclass(frozen=True)
    class Outer:
        inner: Inner
        pair: tuple
        flag: bool

    numpy = {"f": np.float64(0.1), "i": np.int64(-3), "b": np.bool_(True),
             "a": np.array([[1.5, -0.0], [5e-324, 2.0]]),
             "n": [np.float32(0.5), (np.int32(7), None)],
             "d": Outer(Inner(np.float64(1e300), np.int64(4)),
                        (np.float64(2.5), "x"), np.bool_(False))}
    python = {"f": 0.1, "i": -3, "b": True,
              "a": [[1.5, -0.0], [5e-324, 2.0]], "n": [0.5, [7, None]],
              "d": {"inner": {"value": 1e300, "count": 4},
                    "pair": [2.5, "x"], "flag": False}}
    write_json(tmp_path / "numpy.json", numpy)
    write_json(tmp_path / "python.json", python)
    assert ((tmp_path / "numpy.json").read_bytes()
            == (tmp_path / "python.json").read_bytes())
    with pytest.raises(TypeError):
        write_json(tmp_path / "set.json", {"s": {1, 2}})
    assert not (tmp_path / "set.json").exists()


# ------------------------------------------------------ mutated scenarios

_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 50)
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.text(alphabet="abcnkT01_-", max_size=6))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(alphabet="abnkT", max_size=3),
                                     inner, max_size=2)),
    max_leaves=6)


def _paths(node, prefix=()):
    """Every (container path, key) pair of a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


def _edit_json(d, data):
    """Replace or delete any node of the scenario tree."""
    parent_path, key = data.draw(st.sampled_from(list(_paths(d))))
    parent = d
    for part in parent_path:
        parent = parent[part]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(_JSON_VALUES)


def _perturb_coefficient(d, data):
    """Keep the schema; scale one nonzero real of the model by 10**(+-k),
    flip its sign or set it to zero."""
    leaves = []
    for parent_path, key in _paths(d["model"]):
        parent = d["model"]
        for part in parent_path:
            parent = parent[part]
        if isinstance(parent[key], float) and parent[key] != 0.0:
            leaves.append((parent, key))
    parent, key = data.draw(st.sampled_from(leaves))
    how = data.draw(st.sampled_from(["scale", "negate", "zero"]))
    if how == "scale":
        parent[key] *= 10.0 ** data.draw(st.integers(-300, 300).filter(bool))
    elif how == "negate":
        parent[key] = -parent[key]
    else:
        parent[key] = 0.0


# A JSON-level edit mostly fails to parse, while a perturbation mostly
# runs a whole solve (about 50 ms), so one example in four perturbs.
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["netsec-closed-form", "netsec-numeric"]),
       mutate=st.sampled_from([_edit_json] * 3 + [_perturb_coefficient]),
       data=st.data())
def test_cli_mutated_solve_scenarios_exit_cleanly(name, mutate, data):
    # any JSON-level edit of a preset, or any coefficient perturbation that
    # keeps its schema, run as a solve on at most 50 steps, ends in a
    # documented exit code with at most one stderr record
    d = preset(name).to_dict()
    d["experiment"] = {"kind": "solve", "seed": 1}
    mutate(d, data)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "scenario.json")
        with open(cfg, "w") as fh:
            json.dump(d, fh)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["--config", cfg, "--out", os.path.join(tmp, "out"),
                         "--steps", "30", "--quiet"])
    event(f"{mutate.__name__} exit {code}")
    assert code in (0, 2, 3, 4)
    assert not caught, [str(w.message) for w in caught]
    lines = err.getvalue().splitlines()
    assert len(lines) == (0 if code == 0 else 1), lines
    if lines:
        assert json.loads(lines[0])["exit_code"] == code
