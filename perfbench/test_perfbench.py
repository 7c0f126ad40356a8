"""Tests of the benchmark itself: tiny smoke runs and check sensitivity.

    python3 -m pytest perfbench/test_perfbench.py
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# Smoke-test sizes, in place of workloads.SIZES.  The ladder keeps five
# rungs and S=48 so that the state-gap slope stays in the O(1/N) band.
TINY = {
    "solve": {"steps": 40},
    "ladder": {"steps": 50, "Ns": [25, 50, 100, 200, 400], "S": 48},
    "simulate": {"steps": 40, "N": 6},
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TINY)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_restated_presets_match_the_package():
    from lqmfg.scenario import ModelBlock, preset
    for name, params in (("netsec-closed-form", workloads.NETSEC_CLOSED_FORM),
                         ("netsec-numeric", workloads.NETSEC_NUMERIC)):
        block = ModelBlock.from_dict(dict(params, steps=1000))
        assert block == preset(name).model, name


def test_scenarios_are_a_pure_function_of_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.scenario(w, 5) == workloads.scenario(w, 5)
        assert workloads.scenario(w, 5) != workloads.scenario(w, 6)


def test_reported_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _ in run.PER_LAYER]
    units = dict(run.END_TO_END + run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == units[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload, trace, tiny):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _scale_csv_cell(path, row, column, factor=1.001):
    with open(path) as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _edit_json(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


CORRUPTIONS = {
    "solve": lambda d: _scale_csv_cell(
        os.path.join(d, "solve_riccati.csv"), 5, "Gamma_1_2"),
    "ladder": lambda d: _edit_json(
        os.path.join(d, "ladder_rate_state.json"),
        lambda p: p.update(slope=-0.5)),
    "simulate": lambda d: _scale_csv_cell(
        os.path.join(d, "simulate_agent_004.csv"), 7, "u_1"),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_artifact_fails_its_check(workload, tmp_path, tiny):
    path, scenario = workloads.write_scenario(workload, 3, str(tmp_path))
    outdir = str(tmp_path / "out")
    run.run_child(["cli", path, outdir], str(tmp_path))
    assert checks.CHECKS[workload](outdir, scenario) == []
    CORRUPTIONS[workload](outdir)
    assert checks.CHECKS[workload](outdir, scenario) != []


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
