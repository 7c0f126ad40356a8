"""Command-line front end.

    lqmfg --preset netsec-closed-form --out results/
    lqmfg --config scenario.json --seed 7 --steps 2000

Exactly one of --config / --preset selects the scenario. Every run solves
the Riccati system first and writes the solve artifacts; the experiment
kind decides what else is produced:

* ``solve``      — Riccati tables and the solve report only;
* ``simulate``   — one N-agent population draw: mean-field CSV, one CSV per
  agent, and a cost summary;
* ``rate_state`` / ``rate_cost`` — gap statistics across the population
  ladder ``Ns`` with a log-log slope fit;
* ``deviation``  — unilateral-deviation sweep over the candidate family.

A manifest JSON is written last; it echoes the effective configuration, so
a run can be reproduced from its own manifest. All files are written
atomically, and everything except the manifest's wall-time entry is
byte-identical across reruns with the same seed.

Exit codes: 0 success, 2 usage/config error, unwritable output or a size
the machine cannot allocate, 3 model validation failure, 4 numerical
failure. Failures also emit a one-line JSON error record on stderr. The
scenario, flags included, is checked in full before the solve, so a bad
experiment block (no N or Ns, an invalid ladder) exits 2 writing nothing,
as does a bad ``MFG_THREADS`` for every kind but ``solve``, which ignores it.
The output directory is made only after the solve and the experiment have
run, so a run that fails in either leaves no file behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .errors import LqmfgError, UsageError, ValidationError
from .io import (plain, rate_report_dict, write_agent_csv, write_json,
                 write_meanfield_csv, write_rate_csv, write_riccati_csv)
from .meanfield import integrate_Em
from .model import validate, wellposedness_diagnostic
from .population import (deviation_experiment, map_tasks,
                         rate_experiment_cost, rate_experiment_state,
                         resolve_workers, simulate_population)
from .riccati import solve_riccati
from .scenario import (FORMAT_VERSION, ScenarioConfig, build_candidates,
                       load_scenario, preset)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqmfg",
        description="Solve and simulate linear-quadratic mean-field games "
                    "with common noise and filtered (partial) observations.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH",
                        help="scenario JSON file")
    source.add_argument("--preset", metavar="NAME",
                        help="built-in scenario "
                             "(netsec-closed-form, netsec-numeric)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the scenario)")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="experiment seed (overrides the scenario)")
    parser.add_argument("--steps", type=int, metavar="M",
                        help="time-grid steps (overrides the scenario)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the artifact listing on stdout")
    return parser


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    if args.steps is not None:
        config = config.replace(
            solver=dataclasses.replace(config.solver, steps=args.steps))
    if args.seed is not None:
        config = config.replace(
            experiment=dataclasses.replace(config.experiment,
                                           seed=args.seed))
    if args.out is not None:
        config = config.replace(
            output=dataclasses.replace(config.output, directory=args.out))
    return config


def _cross_check_dict(summary) -> dict:
    nodes = summary.solution.grid.nodes

    def margin(per_node):
        """The smallest of a per-node margin, with its node and time."""
        node = int(np.argmin(per_node))
        return {"value": per_node[node], "node": node, "t": nodes[node]}

    out = {"p_method": summary.p_method,
           "gamma_method": summary.gamma_method,
           "p_agreement": summary.p_agreement,
           "gamma_agreement": summary.gamma_agreement,
           "iterative_iterations": summary.iterative_iterations,
           "iterative_residuals": summary.iterative_residuals,
           "sigma_margin": margin(summary.sigma_margins),
           "p_psd_margin": margin(summary.p_psd_margins),
           "pi": None, "pi_error": summary.pi_error}
    if summary.pi_report is not None:
        rep = summary.pi_report
        out["pi"] = {"delta": rep.delta, "condition_ok": rep.condition_ok,
                     "min_margin": min(rep.condition_margins),
                     "violated_nodes": rep.violated_nodes,
                     "psd_margin": margin(rep.psd_margins)}
    return out


def _write_agents(payload, start: int, stop: int) -> None:
    """Integrate the zhat and u paths of agents ``start`` to ``stop - 1``
    and write their CSVs, one at a time."""
    paths, grid, sample = payload
    z_hat, u = sample.agent_paths(start, stop)
    for i, path in enumerate(paths[start:stop]):
        write_agent_csv(path, grid, z_hat[i], u[i])


def _agent_ranges(N: int, workers: int) -> list:
    """About four contiguous index ranges per worker, as keyed tasks."""
    count = min(N, 4 * workers)
    return [(j, N * j // count, N * (j + 1) // count) for j in range(count)]


def run(config: ScenarioConfig, quiet: bool = False) -> list[str]:
    """Execute a scenario; returns the artifact paths in creation order."""
    started = time.perf_counter()
    outdir = config.output.directory
    prefix = config.output.prefix

    def dest(suffix: str) -> str:
        return os.path.join(outdir, f"{prefix}_{suffix}")

    exp = config.experiment
    # a bad MFG_THREADS exits here, before the solve; a solve runs no pool
    workers = None if exp.kind == "solve" else resolve_workers()
    model = config.model.build(config.solver.steps)
    report = validate(model)
    if not report.all_passed:
        raise ValidationError(report)
    diag = wellposedness_diagnostic(model)

    solver = config.solver
    summary = solve_riccati(model, p_method=solver.p_method,
                            gamma_method=solver.gamma_method,
                            max_iters=solver.max_iters, tol=solver.tol)

    writes = []   # (paths, write), in creation order

    def emit(suffix, writer, *payload):
        path = dest(suffix)
        writes.append(([path], lambda: writer(path, *payload)))

    emit("riccati.csv", write_riccati_csv, summary.solution, summary.feedback)
    emit("solve_report.json", write_json, {
        "format_version": FORMAT_VERSION,
        "validation": report.checks,
        "diagnostic": dict(plain(diag), holds=diag.holds),
        "cross_check": _cross_check_dict(summary),
    })

    law = summary.feedback

    if exp.kind == "simulate":
        N = exp.N
        Em = integrate_Em(model, law)
        sample = simulate_population(model, law, Em, N, exp.seed)
        emit("meanfield.csv", write_meanfield_csv,
             model.grid, sample.m, sample.Em)
        width = max(3, len(str(N)))
        agents = [dest(f"agent_{i + 1:0{width}d}.csv") for i in range(N)]
        # formatting the agent files is most of the kind's time: the pool
        # writes them, each task integrating its own agents' zhat and u
        # from their streams, so no process holds every agent's paths
        writes.append((agents, lambda: map_tasks(
            _write_agents, (agents, model.grid, sample),
            _agent_ranges(N, workers), workers)))
        gaps = np.abs(sample.J_central - sample.J_limit)
        state_gap = float(np.max(
            np.sum((sample.state_average - sample.m) ** 2, axis=1)))
        emit("costs.json", write_json, {
            "format_version": FORMAT_VERSION,
            "N": N,
            "J_central": sample.J_central, "J_limit": sample.J_limit,
            "mean_J_central": math.fsum(sample.J_central) / N,
            "mean_J_limit": math.fsum(sample.J_limit) / N,
            "mean_abs_cost_gap": math.fsum(gaps) / N,
            "sup_sq_state_average_gap": state_gap,
        })
    elif exp.kind in ("rate_state", "rate_cost"):
        runner = (rate_experiment_state if exp.kind == "rate_state"
                  else rate_experiment_cost)
        rate = runner(model, law, exp.Ns, exp.S, exp.seed, workers=workers)
        emit(f"{exp.kind}.json", write_json,
             dict(rate_report_dict(rate), format_version=FORMAT_VERSION))
        emit(f"{exp.kind}.csv", write_rate_csv, rate)
    elif exp.kind == "deviation":
        candidates = build_candidates(exp.candidates)
        dev = deviation_experiment(model, law, exp.N, exp.S, candidates,
                                   exp.seed, workers=workers)
        emit("deviation.json", write_json,
             dict(plain(dev), format_version=FORMAT_VERSION))

    # only now, so a failed solve or experiment leaves no file behind
    os.makedirs(outdir, exist_ok=True)
    artifacts: list[str] = []
    for paths, write in writes:
        write()
        artifacts.extend(paths)

    manifest_path = dest("manifest.json")
    write_json(manifest_path, {
        "format_version": FORMAT_VERSION,
        "kind": exp.kind,
        "config": config.to_dict(),
        "seed": exp.seed,
        "versions": {"package": __version__,
                     "numpy": np.__version__,
                     "python": platform.python_version()},
        "wall_time_s": time.perf_counter() - started,
        "artifacts": [os.path.basename(p) for p in artifacts],
    })
    artifacts.append(manifest_path)

    if not quiet:
        for path in artifacts:
            print(path)
    return artifacts


def _fail(exc: Exception, code: int) -> int:
    record = {"error": type(exc).__name__, "message": str(exc),
              "exit_code": code}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return code


# stderr carries only the JSON error record: overflow on extreme inputs ends
# in the typed errors raised by the finite checks, not in RuntimeWarnings
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        if args.config is not None:
            config = load_scenario(args.config)
        else:
            config = preset(args.preset)
        config = _apply_overrides(config, args)
        run(config, quiet=args.quiet)
        return 0
    except UsageError as exc:
        return _fail(exc, 2)
    except ValidationError as exc:
        return _fail(exc, 3)
    except LqmfgError as exc:
        return _fail(exc, 4)
    except (OSError, MemoryError) as exc:  # an output write, an allocation
        return _fail(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
