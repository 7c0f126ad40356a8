"""Forward integrators: seeds, noise streams, mean field, filtered state.

Oracles:

* pure-noise m (all drift coefficients zero, constant common diffusion) is
  exactly x0 + sigma0 * W0 on the grid — an identity of the Euler scheme;
* for the explicitly solvable family, Em(1) = exp(2 - I) with
  I = int_0^1 3/(1 + 2 e^{3(s-1)}) ds = 3 - ln 3 + ln(1 + 2 e^{-3})
  (antiderivative 3u - ln(1 + 2 e^{3u}));
* the noise-free filtered state solves a linear ODE whose coefficients are
  the known logistic solutions, integrated independently with solve_ivp;
* E[zhat_j] equals Em_j exactly in the discrete scheme (linear recursion,
  centred increments), so a Monte Carlo mean must match within noise;
* with additive noise the Euler scheme converges strongly at order one,
  checked by refining against a coupled finer path.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import lqmfg
from lqmfg import (DivergenceError, LqMfgModel, TimeGrid, UsageError,
                   derive_seed, gaussian_increments, integrate_Em,
                   integrate_m, integrate_z_hat, simulate_population)
from lqmfg.meanfield import fill_increments
from lqmfg.riccati import FeedbackLaw, solve_riccati
from lqmfg.scenario import preset


def closed_form(steps):
    cfg = preset("netsec-closed-form")
    model = cfg.model.build(steps)
    return model, solve_riccati(model).feedback


# ------------------------------------------------------------------- seeds

def test_derive_seed_is_deterministic_and_64bit():
    a = derive_seed(42, 7, 3)
    assert a == derive_seed(42, 7, 3)
    assert 0 <= a < (1 << 64)


def test_derive_seed_separates_arguments():
    seen = {derive_seed(s, N, i)
            for s in (0, 1, 2) for N in (25, 50) for i in range(50)}
    assert len(seen) == 3 * 2 * 50  # no collisions on this sweep
    assert derive_seed(1, 2) != derive_seed(2, 1)


def test_public_names_resolve_and_path_wrappers_are_gone():
    assert len(set(lqmfg.__all__)) == len(lqmfg.__all__)
    for name in lqmfg.__all__:
        assert hasattr(lqmfg, name), name
    # the oracles read and return plain arrays: meanfield defines no path
    # type, neither for the increments nor for zhat and u
    assert not [name for name, value in vars(lqmfg.meanfield).items()
                if isinstance(value, type)
                and value.__module__ == "lqmfg.meanfield"]


def test_increments_reproducible_and_stream_separated():
    grid = TimeGrid(1.0, 64)
    a = gaussian_increments(grid, 99, 0)
    b = gaussian_increments(grid, 99, 0)
    c = gaussian_increments(grid, 99, 1)
    d = gaussian_increments(grid, 100, 0)
    assert a.shape == (64,)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c) and np.any(a != d)


def test_rekeyed_increments_match_freshly_keyed_philox():
    M, h = 37, 0.03
    streams = (0, 1, 2 ** 32, 2 ** 64 - 1)
    for seed in (0, 2 ** 64 - 1):
        rows = fill_increments(np.empty((len(streams), M)), h, seed, streams)
        for row, stream in zip(rows, streams):
            gen = np.random.Generator(
                np.random.Philox(key=(seed << 64) + stream))
            np.testing.assert_array_equal(
                row, gen.standard_normal(M) * np.sqrt(h))


def test_increments_reject_out_of_range_ids():
    grid = TimeGrid(1.0, 8)
    for seed, stream in ((-1, 0), (1 << 64, 0), (3, -1), (3, 1 << 64)):
        with pytest.raises(UsageError):
            gaussian_increments(grid, seed, stream)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs about 6 MB of resident memory; it is imported when
    # the first noise stream is drawn, not with the package
    code = ("import sys, lqmfg, lqmfg.cli; "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("kind", ["simulate", "deviation", "rate_state"])
@pytest.mark.parametrize("threads, loaded", [("2", "False"), ("1", "True")])
def test_cli_draws_noise_in_process_only_with_one_worker(tmp_path, kind,
                                                         threads, loaded):
    # with more workers every experiment's kernel runs in pool workers, the
    # recorded population included, so the CLI process never imports
    # numpy.random; one worker runs every task in-process
    d = preset("netsec-closed-form").to_dict()
    d["model"]["steps"] = 20
    d["experiment"] = {"kind": kind, "seed": 3, "N": 3, "S": 2,
                       "Ns": [2, 4, 8, 16]}
    d["output"] = {"directory": str(tmp_path / "out"), "prefix": "p"}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(d))
    code = ("import sys, lqmfg.cli; "
            f"code = lqmfg.cli.main(['--config', {str(config)!r}, '--quiet']);"
            " print(code, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, MFG_THREADS=threads))
    assert out.stdout.split() == ["0", loaded]


def test_increment_scale_is_sqrt_h():
    grid = TimeGrid(2.0, 512)
    pooled = np.concatenate([gaussian_increments(grid, 5, s)
                             for s in range(40)])
    # var = h = 2/512; with ~20k draws the sample var sits within ~5%
    assert abs(pooled.var() / grid.h - 1.0) < 0.05
    assert abs(pooled.mean()) < 4.0 * math.sqrt(grid.h / pooled.size) * 2


def test_oracles_reject_increments_of_wrong_shape():
    model, law = closed_form(16)
    Em = integrate_Em(model, law)
    for dW in (np.zeros(7), np.zeros((16, 1))):
        for oracle in (integrate_m, integrate_z_hat):
            with pytest.raises(UsageError, match="increments shape"):
                oracle(model, law, Em, dW)


# --------------------------------------------------------------------- Em

def test_Em_is_the_forward_euler_recursion():
    model, law = closed_form(37)
    Em = integrate_Em(model, law)
    h = model.grid.h
    ref = np.empty_like(Em)
    ref[0] = model.x0
    for j in range(37):
        Eu = (law.K_z[j] + law.K_m[j]) @ ref[j] + law.c_u[j]
        drift = (model.A[j] + model.alpha[j]) @ ref[j] \
            + model.B[j] @ Eu + model.b[j][:, 0]
        ref[j + 1] = ref[j] + h * drift
    np.testing.assert_allclose(Em, ref, rtol=0, atol=1e-13)


def test_Em_closed_form_value_at_horizon():
    model, law = closed_form(2000)
    Em = integrate_Em(model, law)
    integral = 3.0 - np.log(3.0) + np.log(1.0 + 2.0 * np.exp(-3.0))
    exact = np.exp(2.0 - integral)
    assert Em[-1, 0] == pytest.approx(exact, rel=2e-3)


def test_Em_trivial_model_stays_at_x0():
    model = LqMfgModel.from_constants(TimeGrid(1.0, 25), A=0.0, B=0.0,
                                      Q=1.0, R=1.0, G=0.0, x0=[1.5])
    law = solve_riccati(model).feedback
    Em = integrate_Em(model, law)
    np.testing.assert_array_equal(Em[:, 0], np.full(26, 1.5))


def test_Em_rejects_mismatched_law():
    model, _ = closed_form(30)
    _, law_other = closed_form(31)
    with pytest.raises(UsageError):
        integrate_Em(model, law_other)


# ---------------------------------------------------------------------- m

def test_m_pure_noise_is_exactly_x0_plus_scaled_W0():
    model = LqMfgModel.from_constants(TimeGrid(1.0, 128), A=0.0, B=0.0,
                                      sigma0=1.5, Q=1.0, R=1.0, G=0.0,
                                      x0=[2.0])
    law = solve_riccati(model).feedback
    Em = integrate_Em(model, law)
    dW0 = gaussian_increments(model.grid, seed=17, stream=0)
    m = integrate_m(model, law, Em, dW0)
    expected = np.empty(129)
    expected[0] = 2.0
    for j in range(128):  # same accumulation order as the scheme
        expected[j + 1] = expected[j] + 1.5 * dW0[j]
    np.testing.assert_array_equal(m[:, 0], expected)


def test_m_equals_Em_when_common_diffusion_vanishes():
    # sigma0-free variant of the solvable family: every seed gives m = Em
    model = LqMfgModel.from_constants(TimeGrid(1.0, 200), A=1.0, B=1.0,
                                      alpha=1.0, sigma=1.0, Q=3.0, R=1.0,
                                      G=1.0, x0=[1.0])
    law = solve_riccati(model).feedback
    Em = integrate_Em(model, law)
    for seed in (1, 2, 3):
        m = integrate_m(model, law, Em,
                        gaussian_increments(model.grid, seed, 0))
        assert np.max(np.abs(m - Em)) < 1e-12


def test_m_fluctuates_when_common_diffusion_present():
    model, law = closed_form(200)
    Em = integrate_Em(model, law)
    m = integrate_m(model, law, Em, gaussian_increments(model.grid, 5, 0))
    assert np.max(np.abs(m - Em)) > 1e-3


def test_m_reads_beta0_not_beta():
    # beta != 0 while beta0 = C0 = D0 = sigma0 = 0: m's common-noise
    # diffusion (C0 + beta0) m + D0 E[u] + sigma0 vanishes, so both the
    # single-path integrator and the population kernel must reproduce Em; a
    # diffusion that read beta would drive m with 0.5 m dW0 instead.
    model = LqMfgModel.from_constants(TimeGrid(1.0, 100), A=0.3, B=1.0,
                                      alpha=0.2, beta=0.5, Q=1.0, R=1.0,
                                      G=0.5, x0=[1.0])
    law = solve_riccati(model).feedback
    Em = integrate_Em(model, law)
    m = integrate_m(model, law, Em, gaussian_increments(model.grid, 11, 0))
    assert np.max(np.abs(m - Em)) < 1e-12
    sample = simulate_population(model, law, Em, N=3, seed=11)
    assert np.max(np.abs(sample.m - Em)) < 1e-12


def test_strong_order_one_under_refinement():
    # additive common noise; coarse increments are sums of fine ones, so all
    # grids ride the same Brownian path and the Euler error scales like h
    model_of = {}
    for M in (100, 200, 1600):
        model_of[M] = LqMfgModel.from_constants(
            TimeGrid(1.0, M), A=0.8, B=0.0, sigma0=0.6, Q=1.0, R=1.0,
            G=0.0, x0=[1.0])
    laws = {M: solve_riccati(m).feedback for M, m in model_of.items()}
    Ems = {M: integrate_Em(model_of[M], laws[M]) for M in model_of}
    errs = {100: [], 200: []}
    for path in range(64):
        fine = gaussian_increments(model_of[1600].grid, derive_seed(88, path), 0)
        ref = integrate_m(model_of[1600], laws[1600], Ems[1600],
                          fine)[-1, 0]
        for M in (100, 200):
            coarse = fine.reshape(M, 1600 // M).sum(axis=1)
            m = integrate_m(model_of[M], laws[M], Ems[M], coarse)[-1, 0]
            errs[M].append((m - ref) ** 2)
    e100 = math.sqrt(math.fsum(errs[100]) / 64)
    e200 = math.sqrt(math.fsum(errs[200]) / 64)
    assert 1.5 < e100 / e200 < 2.8, (e100, e200)


# ------------------------------------------------------------------- zhat

def test_zhat_control_is_consistent_at_every_node():
    model, law = closed_form(150)
    Em = integrate_Em(model, law)
    z_hat, u = integrate_z_hat(model, law, Em,
                               gaussian_increments(model.grid, 9, 3))
    for j in range(model.grid.node_count):
        expected = law.K_z[j] @ z_hat[j] + law.K_m[j] @ Em[j] + law.c_u[j]
        np.testing.assert_allclose(u[j], expected, rtol=0, atol=1e-14)


def test_zhat_noise_free_against_independent_ode():
    model, law = closed_form(2000)
    Em = integrate_Em(model, law)
    z_hat, _ = integrate_z_hat(model, law, Em, np.zeros(2000))

    def P_exact(t):
        e = np.exp(4.0 * (t - 1.0))
        return (3.0 - e) / (1.0 + e)

    def Pi_exact(t):
        return 3.0 / (1.0 + 2.0 * np.exp(3.0 * (t - 1.0)))

    def rhs(t, y):
        Em_t, z = y
        P = P_exact(t)
        Gam = Pi_exact(t) - P
        return [(2.0 - Pi_exact(t)) * Em_t,
                (1.0 - P) * z + (1.0 - Gam) * Em_t]

    sol = solve_ivp(rhs, (0.0, 1.0), [1.0, 1.0], rtol=1e-10, atol=1e-12,
                    dense_output=True)
    z_exact = sol.sol(1.0)[1]
    assert z_hat[-1, 0] == pytest.approx(z_exact, rel=5e-3)


def test_zhat_mean_matches_Em():
    model, law = closed_form(50)
    Em = integrate_Em(model, law)
    S = 1024
    terminal = np.empty(S)
    for s in range(S):
        dW = gaussian_increments(model.grid, derive_seed(23, s), 1)
        terminal[s] = integrate_z_hat(model, law, Em, dW)[0][-1, 0]
    se = terminal.std(ddof=1) / math.sqrt(S)
    assert abs(terminal.mean() - Em[-1, 0]) < 4.0 * se


def test_mean_field_paths_reproducible():
    model, law = closed_form(60)
    Em = integrate_Em(model, law)
    np.testing.assert_array_equal(Em, integrate_Em(model, law))
    a, b = (integrate_m(model, law, Em, gaussian_increments(model.grid, 31, 0))
            for _ in range(2))
    np.testing.assert_array_equal(a, b)


def test_mean_paths_report_the_node_where_they_diverge():
    grid = TimeGrid(1.0, 10)
    law = FeedbackLaw(grid=grid, K_z=np.zeros((11, 1, 1)),
                      K_m=np.zeros((11, 1, 1)), c_u=np.zeros((11, 1)))
    # E[m] grows by 1 + hA per step: 1e199 at node 1, past floats at node 2
    model = LqMfgModel.from_constants(grid, A=1e200, B=1.0, Q=1.0, R=1.0,
                                      G=0.0, x0=1.0)
    with pytest.raises(DivergenceError,
                       match=r"^E\[m\] diverged at node 2 "):
        integrate_Em(model, law)
    # the common-noise diffusion C0 m against 1e200 increments overflows
    # on the first step
    model = LqMfgModel.from_constants(grid, A=0.0, B=1.0, Q=1.0, R=1.0,
                                      G=0.0, x0=1.0, C0=1e200)
    Em = integrate_Em(model, law)
    with pytest.raises(DivergenceError) as err:
        integrate_m(model, law, Em, np.full(grid.steps, 1e200))
    assert str(err.value).startswith("m diverged") and err.value.node == 1
