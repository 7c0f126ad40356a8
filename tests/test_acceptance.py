"""Acceptance gate: the nine shipped guarantees, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py``; the verbose line per test is
the pass/fail line for that criterion, and each test prints its measured
numbers. Tolerances are pinned here as module constants.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from lqmfg import (LqMfgModel, TimeGrid, default_candidate_family,
                   deviation_experiment, integrate_Em,
                   limit_problem_experiment, lq_value_prediction,
                   rate_experiments, validate)
from lqmfg.cli import main
from lqmfg.riccati import (solve_Gamma_direct, solve_Gamma_via_Pi,
                           solve_P_direct, solve_P_iterative, solve_riccati)
from lqmfg.scenario import preset

SEED = 20250801

# criterion 1: closed-form solve at the preset grid
TOL_P = 1e-6
TOL_PI = 1e-6
TOL_GAMMA = 2e-6          # difference of two 1e-6 quantities
TOL_PHI = 1e-10
SOLVE_BUDGET_S = 1.0

# criterion 2: iterative-vs-direct agreement
TOL_ROUTE_P = 1e-5
ROUTE_BUDGET_S = 30.0
N_RANDOM_MODELS = 20
RANDOM_STEPS = 400

# criterion 3: Gamma-route agreement
TOL_ROUTE_GAMMA = 1e-5

# criterion 4: grid refinement of the closed-form error
REFINE_GRIDS = (250, 500, 1000)
REFINE_FACTOR = 8.0
REFINE_FLOOR = 1e-10

# criteria 5-7: population ladder on the closed-form preset
LADDER_NS = (25, 50, 100, 200, 400, 800)
LADDER_S = 256
STATE_SLOPE_RANGE = (-1.3, -0.7)
COST_SLOPE_RANGE = (-0.8, -0.2)
LADDER_BUDGET_S = 300.0 * max(1.0, 8.0 / (os.cpu_count() or 1))

# criterion 7: unilateral deviations
DEVIATION_N = 400
DEVIATION_S = 256

# criterion 8: value prediction on the decoupled scalar model
LIMIT_S = 4096
LIMIT_STEPS = 2000

def logistic_P(t, T=1.0):
    e = np.exp(4.0 * (t - T))
    return (3.0 - e) / (1.0 + e)


def logistic_Pi(t, T=1.0):
    return 3.0 / (1.0 + 2.0 * np.exp(3.0 * (t - T)))


@pytest.fixture(scope="module")
def closed_form_solve():
    cfg = preset("netsec-closed-form")
    model = cfg.model.build(cfg.solver.steps)   # M = 1000
    solve_riccati(cfg.model.build(50))          # warm-up at a small grid
    t0 = time.perf_counter()
    summary = solve_riccati(model)
    elapsed = time.perf_counter() - t0
    return model, summary, elapsed


@pytest.fixture(scope="module")
def ladder(closed_form_solve):
    model, summary, _ = closed_form_solve
    law = summary.feedback
    t0 = time.perf_counter()
    reports = rate_experiments(model, law, LADDER_NS, LADDER_S, SEED)
    elapsed = time.perf_counter() - t0
    return model, law, reports, elapsed


def random_general_model(rng, steps):
    n = int(rng.integers(1, 4))
    k = int(rng.integers(1, 3))

    def u(shape):
        return rng.uniform(-1.0, 1.0, shape)

    Mq, Mg, Mr = u((n, n)), u((n, n)), u((k, k))
    return LqMfgModel.from_constants(
        TimeGrid(1.0, steps), A=u((n, n)), B=u((n, k)), alpha=u((n, n)),
        b=u((n, 1)), C=u((n, n)), D=u((n, k)), beta=u((n, n)),
        sigma=u((n, 1)), C0=u((n, n)), D0=u((n, k)), beta0=u((n, n)),
        sigma0=u((n, 1)), Q=Mq.T @ Mq, R=np.eye(k) + Mr.T @ Mr,
        G=Mg.T @ Mg, x0=np.zeros(n))


def random_structured_model(rng, steps):
    # the shape required by the Pi substitution: alpha = delta*I,
    # beta = beta0 = 0, C0 = 0
    n = int(rng.integers(1, 4))
    k = int(rng.integers(1, 3))

    def u(shape):
        return rng.uniform(-1.0, 1.0, shape)

    Mq, Mg, Mr = u((n, n)), u((n, n)), u((k, k))
    return LqMfgModel.from_constants(
        TimeGrid(1.0, steps), A=u((n, n)), B=u((n, k)),
        alpha=float(rng.uniform(-1, 1)) * np.eye(n), b=u((n, 1)),
        C=u((n, n)), D=u((n, k)), sigma=u((n, 1)), D0=u((n, k)),
        sigma0=u((n, 1)), Q=Mq.T @ Mq, R=np.eye(k) + Mr.T @ Mr,
        G=Mg.T @ Mg, x0=np.zeros(n))


def test_criterion_1_closed_form_solve(closed_form_solve):
    model, summary, elapsed = closed_form_solve
    t = model.grid.nodes
    sol = summary.solution
    err_P = float(np.max(np.abs(sol.P[:, 0, 0] - logistic_P(t))))
    Pi = sol.P[:, 0, 0] + sol.Gamma[:, 0, 0]
    err_Pi = float(np.max(np.abs(Pi - logistic_Pi(t))))
    err_Gamma = float(np.max(np.abs(sol.Gamma[:, 0, 0]
                                    - (logistic_Pi(t) - logistic_P(t)))))
    max_Phi = float(np.max(np.abs(sol.Phi)))
    print(f"criterion 1: |P err|={err_P:.3e} |Pi err|={err_Pi:.3e} "
          f"|Gamma err|={err_Gamma:.3e} |Phi|={max_Phi:.3e} "
          f"solve={elapsed:.3f}s")
    assert err_P <= TOL_P
    assert err_Pi <= TOL_PI
    assert err_Gamma <= TOL_GAMMA
    assert max_Phi <= TOL_PHI
    assert elapsed <= SOLVE_BUDGET_S


def test_criterion_2_iterative_matches_direct():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("netsec-closed-form", "netsec-numeric"):
        cfg = preset(name)
        model = cfg.model.build(cfg.solver.steps)
        P_dir = solve_P_direct(model)
        P_it, info = solve_P_iterative(model)
        gap = float(np.sqrt(((P_dir - P_it) ** 2).sum(axis=(1, 2))).max())
        worst = max(worst, gap)
        print(f"criterion 2: {name}: gap={gap:.3e} "
              f"iters={info.iterations}")
    rng = np.random.default_rng(SEED)
    for trial in range(N_RANDOM_MODELS):
        model = random_general_model(rng, RANDOM_STEPS)
        assert validate(model).all_passed
        P_dir = solve_P_direct(model)
        P_it, _ = solve_P_iterative(model)  # raises on monotonicity loss
        gap = float(np.sqrt(((P_dir - P_it) ** 2).sum(axis=(1, 2))).max())
        worst = max(worst, gap)
        assert gap <= TOL_ROUTE_P, f"trial {trial}: {gap:.3e}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: worst gap={worst:.3e} over 2 presets + "
          f"{N_RANDOM_MODELS} random models, {elapsed:.1f}s")
    assert worst <= TOL_ROUTE_P
    assert elapsed <= ROUTE_BUDGET_S


def test_criterion_3_gamma_routes_agree():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for trial in range(N_RANDOM_MODELS):
        model = random_structured_model(rng, RANDOM_STEPS)
        assert validate(model).all_passed
        P = solve_P_direct(model)
        Gam = solve_Gamma_direct(model, P)
        Gam_pi, report = solve_Gamma_via_Pi(model, P)
        assert report.condition_ok
        gap = float(np.sqrt(((Gam - Gam_pi) ** 2).sum(axis=(1, 2))).max())
        worst = max(worst, gap)
        assert gap <= TOL_ROUTE_GAMMA, f"trial {trial}: {gap:.3e}"
    print(f"criterion 3: worst Gamma route gap={worst:.3e} over "
          f"{N_RANDOM_MODELS} structured models")
    assert worst <= TOL_ROUTE_GAMMA


def test_criterion_4_error_refines_at_fourth_order():
    cfg = preset("netsec-closed-form")
    errs = []
    for M in REFINE_GRIDS:
        model = cfg.model.build(M)
        P = solve_P_direct(model)
        errs.append(float(np.max(np.abs(P[:, 0, 0]
                                        - logistic_P(model.grid.nodes)))))
    print("criterion 4: errors "
          + ", ".join(f"M={M}: {e:.3e}" for M, e in zip(REFINE_GRIDS, errs)))
    checked = 0
    for coarse, fine in zip(errs, errs[1:]):
        if coarse < REFINE_FLOOR:
            print(f"criterion 4: error already {coarse:.3e} < "
                  f"{REFINE_FLOOR:g} before this halving, ratio check "
                  f"skipped")
            continue
        print(f"criterion 4: ratio {coarse / fine:.1f}")
        assert coarse / fine >= REFINE_FACTOR, (coarse, fine)
        checked += 1
    assert errs[-1] <= TOL_P
    assert checked >= 1 or errs[0] < REFINE_FLOOR


def test_criterion_5_state_gap_decays_like_one_over_N(ladder):
    _, _, reports, elapsed = ladder
    state = reports["state"]
    print(f"criterion 5: slope={state.slope:.3f} "
          f"(stderr {state.slope_stderr:.3f}), values="
          + ", ".join(f"{v:.3e}" for v in state.values)
          + f", ladder wall={elapsed:.1f}s (budget {LADDER_BUDGET_S:.0f}s)")
    assert not state.degenerate
    assert STATE_SLOPE_RANGE[0] <= state.slope <= STATE_SLOPE_RANGE[1]
    assert elapsed <= LADDER_BUDGET_S


def test_criterion_6_cost_gap_decays_like_one_over_sqrt_N(ladder):
    _, _, reports, _ = ladder
    cost = reports["cost"]
    print(f"criterion 6: slope={cost.slope:.3f} "
          f"(stderr {cost.slope_stderr:.3f}), values="
          + ", ".join(f"{v:.3e}" for v in cost.values))
    assert not cost.degenerate
    assert COST_SLOPE_RANGE[0] <= cost.slope <= COST_SLOPE_RANGE[1]


def test_criterion_7_no_profitable_unilateral_deviation(ladder):
    model, law, reports, _ = ladder
    cost = reports["cost"]
    # envelope: pin the slope at -1/2 and fit the constant on the ladder
    c = math.exp(math.fsum(
        math.log(v) + 0.5 * math.log(N)
        for v, N in zip(cost.values, cost.Ns)) / len(cost.Ns))
    envelope = c / math.sqrt(DEVIATION_N)
    report = deviation_experiment(model, law, DEVIATION_N, DEVIATION_S,
                                  default_candidate_family(), SEED)
    self_result = report.candidates[0]
    assert self_result.name == "self"
    print(f"criterion 7: baseline={report.baseline_mean_cost:.6f} "
          f"envelope c/sqrt(N)={envelope:.4e}")
    for r in report.candidates:
        bound = 3.0 * r.gain_stderr + envelope
        print(f"criterion 7:   {r.name:>16}: gain={r.gain:+.4e} "
              f"3SE+env={bound:.4e}")
        assert r.gain <= bound, r.name
    assert self_result.gain == 0.0


def test_criterion_8_simulated_cost_matches_riccati_value():
    model = LqMfgModel.from_constants(
        TimeGrid(1.0, LIMIT_STEPS), A=0.4, B=1.0, sigma=0.7, Q=1.2, R=0.8,
        G=0.9, x0=[0.0])
    summary = solve_riccati(model)
    V = lq_value_prediction(model, summary.solution.P)
    report = limit_problem_experiment(model, summary.feedback, LIMIT_S, SEED,
                                      candidates=default_candidate_family())
    gap = abs(report.baseline_mean_cost - V)
    print(f"criterion 8: V={V:.6f} simulated={report.baseline_mean_cost:.6f} "
          f"gap={gap:.2e} (3SE={3 * report.baseline_stderr:.2e})")
    assert gap <= 3.0 * report.baseline_stderr
    for r in report.candidates:
        print(f"criterion 8:   {r.name:>16}: gain={r.gain:+.4e} "
              f"3SE={3 * r.gain_stderr:.2e}")
        assert r.gain <= 3.0 * r.gain_stderr, r.name


def test_criterion_9_reruns_are_byte_identical(tmp_path):
    base = preset("netsec-numeric").to_dict()
    base["model"]["steps"] = 200
    base["experiment"]["N"] = 5
    runs = {
        "sim": dict(base, output={"directory": str(tmp_path / "sim"),
                                  "prefix": "sim"}),
    }
    rate = json.loads(json.dumps(base))
    rate["experiment"] = {"kind": "rate_cost", "seed": SEED, "N": None,
                          "Ns": [2, 4, 8, 16], "S": 8, "candidates": None}
    rate["output"] = {"directory": str(tmp_path / "rate"), "prefix": "rate"}
    runs["rate"] = rate

    for label, cfg in runs.items():
        cfg_path = tmp_path / f"{label}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path), "--quiet"]) == 0
        outdir = tmp_path / label
        first = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert main(["--config", str(cfg_path), "--quiet"]) == 0
        second = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert sorted(first) == sorted(second)
        identical = 0
        for name in first:
            if name.endswith("manifest.json"):
                a, b = json.loads(first[name]), json.loads(second[name])
                a.pop("wall_time_s"), b.pop("wall_time_s")
                assert a == b, name
            else:
                assert first[name] == second[name], name
                identical += 1
        print(f"criterion 9: {label}: {identical} artifacts byte-identical, "
              f"manifest equal modulo wall time")
