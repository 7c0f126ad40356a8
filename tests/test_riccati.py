"""Backward solvers against hand-derivable solutions and cross-route checks.

Oracles used here:

* A=0, B=R=Q=1, G=0 and no diffusion makes the P equation dP/dt = P^2 - 1,
  P(T) = 0, solved by P(t) = tanh(T - t).
* The explicitly solvable scalar family (A=B=alpha=sigma=sigma0=R=G=1, Q=3,
  T=1, no control diffusion) has logistic solutions
      P(t)  = (3 - e^{4(t-T)}) / (1 + e^{4(t-T)}),
      Pi(t) = 3 / (1 + 2 e^{3(t-T)}),
  with Gamma = Pi - P and Phi identically zero.
* With constant P, Gamma supplied by hand, the Phi equation is a scalar
  linear constant-coefficient ODE solved by quadrature.
* Terminal-node gains need no integration at all: K_z(T), K_m(T), c_u(T)
  follow from G and the coefficients alone.
"""

import dataclasses
import subprocess
import sys
import time

import numpy as np
import pytest

import lqmfg
from lqmfg import (ConvergenceError, DivergenceError, LqMfgModel,
                   SingularSigmaError, TimeGrid, UsageError)
from lqmfg.model import coefficient_shapes
from lqmfg.riccati import (_PEquation, _riccati_lift, build_feedback,
                           sigma_sequence, solve_Gamma_direct,
                           solve_Gamma_via_Pi, solve_P_direct,
                           solve_P_iterative, solve_Phi, solve_riccati)
from lqmfg.scenario import preset


def closed_form_model(steps=100):
    return LqMfgModel.from_constants(
        TimeGrid(1.0, steps), A=1.0, B=1.0, alpha=1.0, sigma=1.0,
        sigma0=1.0, Q=3.0, R=1.0, G=1.0, x0=[1.0])


def logistic_P(t, T=1.0):
    e = np.exp(4.0 * (t - T))
    return (3.0 - e) / (1.0 + e)


def logistic_Pi(t, T=1.0):
    return 3.0 / (1.0 + 2.0 * np.exp(3.0 * (t - T)))


# ------------------------------------------------------------------ P route

def test_P_matches_tanh_solution():
    model = LqMfgModel.from_constants(TimeGrid(1.0, 400), A=0.0, B=1.0,
                                      Q=1.0, R=1.0, G=0.0, x0=[0.0])
    P = solve_P_direct(model)
    exact = np.tanh(1.0 - model.grid.nodes)
    assert np.max(np.abs(P[:, 0, 0] - exact)) < 1e-8


def test_P_matches_logistic_solution():
    model = closed_form_model(100)
    P = solve_P_direct(model)
    err = np.max(np.abs(P[:, 0, 0] - logistic_P(model.grid.nodes)))
    assert err < 1e-7


def test_P_error_shrinks_with_fourth_order():
    errs = []
    for M in (50, 100, 200):
        model = closed_form_model(M)
        P = solve_P_direct(model)
        errs.append(np.max(np.abs(P[:, 0, 0] - logistic_P(model.grid.nodes))))
    assert errs[0] / errs[1] > 8.0
    assert errs[1] / errs[2] > 8.0


def test_P_terminal_condition_and_symmetry():
    rng = np.random.default_rng(3)
    Mx = rng.uniform(-1.0, 1.0, (2, 2))
    G = Mx.T @ Mx
    model = LqMfgModel.from_constants(
        TimeGrid(1.0, 50), A=rng.uniform(-1, 1, (2, 2)),
        B=rng.uniform(-1, 1, (2, 1)), C=rng.uniform(-1, 1, (2, 2)),
        D=rng.uniform(-1, 1, (2, 1)), Q=np.eye(2), R=np.eye(1) * 2.0,
        G=G, x0=[0.0, 0.0])
    P = solve_P_direct(model)
    np.testing.assert_allclose(P[-1], 0.5 * (G + G.T), atol=1e-15)
    asym = np.max(np.abs(P - np.transpose(P, (0, 2, 1))))
    assert asym == 0.0
    assert np.linalg.eigvalsh(P).min() > -1e-10


def test_singular_weighting_reported_with_location():
    # R = -0.5 is invalid, but the solver itself must diagnose it (validation
    # is the caller's job): Sigma(T) = R < r_min at the very first evaluation.
    model = LqMfgModel.from_constants(TimeGrid(1.0, 10), A=0.0, B=1.0,
                                      Q=1.0, R=-0.5, G=0.0, x0=[0.0])
    with pytest.raises(SingularSigmaError) as err:
        solve_P_direct(model)
    assert err.value.t == pytest.approx(1.0)
    assert err.value.min_eig == pytest.approx(-0.5)


def test_singular_weighting_on_stage_stacks_reports_latest_time():
    # Along a supplied P that is -2 up to t = 0.4 and 1 after, Sigma =
    # R + D'PD = 1 + P falls below r_min on every stage point at or before
    # t = 0.4; the routes that check the floor on precomputed stacks report
    # t = 0.4, the first failure a backward sweep meets.
    model = LqMfgModel.from_constants(TimeGrid(1.0, 10), A=0.0, B=1.0,
                                      D=1.0, Q=1.0, R=1.0, G=1.0, x0=[0.0])
    P = np.where(model.grid.nodes <= 0.4 + 1e-12, -2.0, 1.0)[:, None, None]
    for solve in (lambda: solve_Gamma_direct(model, P),
                  lambda: solve_Gamma_via_Pi(model, P),
                  lambda: solve_Phi(model, P, np.zeros_like(P))):
        with pytest.raises(SingularSigmaError) as err:
            solve()
        assert err.value.t == pytest.approx(0.4)
        assert err.value.min_eig == pytest.approx(-1.0)


def sigma_drop_model(R_low, D, Q, steps=100):
    """R = 1 on the intervals after t = 0.6 and ``R_low`` on the others."""
    grid = TimeGrid(1.0, steps)
    R = np.where(grid.nodes <= 0.6 + 1e-12, R_low, 1.0)[:, None, None]
    return LqMfgModel.from_constants(grid, A=0.0, B=1.0, D=D, Q=Q, R=R,
                                     G=1.0, x0=[0.0])


def test_singular_weighting_partway_reports_first_failure_of_the_sweep():
    # Sigma = R + D'PD first falls below r_min at the right node of
    # interval 60, t = 0.61, the first stage that reads R = -1; its minimum
    # eigenvalue there is -1 + P/4 at that stage.
    with pytest.raises(SingularSigmaError) as err:
        solve_P_direct(sigma_drop_model(-1.0, D=0.5, Q=1.0))
    assert err.value.t == pytest.approx(0.61)
    assert err.value.min_eig == pytest.approx(-0.7351375386755754, rel=1e-12)


def test_singular_weighting_inside_a_step_reports_its_stage():
    # Sigma = P (R = 0, D = 1) and dP/dt = -Q = 1: the first slope of the
    # last step sees Sigma = G = 0.25, the second the exactly singular
    # G - (h/2) * 1 = 0, at the midpoint t = 0.75.
    model = LqMfgModel.from_constants(TimeGrid(1.0, 2), A=0.0, B=0.0, D=1.0,
                                      Q=-1.0, R=0.0, G=0.25, x0=[0.0])
    with pytest.raises(SingularSigmaError) as err:
        solve_P_direct(model)
    assert err.value.t == 0.75 and err.value.min_eig == 0.0


def test_singular_weighting_wins_over_a_later_overflow():
    # With Sigma = -0.5 after t = 0.61 the equation turns into
    # dP/ds = Q + 2 P^2 backward in time, which overflows a few steps later;
    # the Sigma failure comes first in the sweep and is the one reported.
    with pytest.raises(SingularSigmaError) as err:
        solve_P_direct(sigma_drop_model(-0.5, D=0.0, Q=100.0))
    assert err.value.t == pytest.approx(0.61)
    assert err.value.min_eig == -0.5


def test_divergence_reports_node():
    # lambda*h far outside the RK4 stability region blows the iteration up
    model = LqMfgModel.from_constants(TimeGrid(1.0, 4), A=100.0, B=1.0,
                                      Q=1.0, R=1.0, G=0.0, x0=[0.0])
    with pytest.raises(DivergenceError) as err:
        solve_P_direct(model)
    assert err.value.node == 2
    assert err.value.t == 0.5
    assert str(err.value) == ("P lost positive semidefiniteness at node 2 "
                              "(t=0.5): min eigenvalue -1.506e+23")


def test_pi_psd_guard_reports_first_failing_node():
    # Pi(T) = G = -0.5 is not PSD; the terminal node is given, not checked,
    # so the first node the sweep computes, 19 of 20, is the one reported.
    model = LqMfgModel.from_constants(TimeGrid(1.0, 20), A=0.0, B=1.0,
                                      alpha=0.5, Q=1.0, R=1.0, G=-0.5,
                                      x0=[0.0])
    with pytest.raises(DivergenceError) as err:
        solve_Gamma_via_Pi(model, np.ones((21, 1, 1)))
    assert str(err.value) == ("Pi lost positive semidefiniteness at node 19 "
                              "(t=0.95): min eigenvalue -5.260e-01")


def test_lift_reports_finite_escape_time():
    # dY/dt = Y^2 with Y(1) = -2 is 1/(0.5 - t), with a pole at t = 0.5.
    # Its lift X = 2t - 1, V = -2 stays finite across the pole, so a sweep
    # that only renormalizes would return finite values beyond it (5.0 at
    # t = 0.3); the step whose X is not positive is the divergence.  The
    # pole sits on a node, so rounding reports that node or the one after
    # it in the sweep.
    for M, node in ((100, 50), (1000, 499)):
        zero, one = np.zeros((3, M, 1, 1)), np.ones((3, M, 1, 1))
        with pytest.raises(DivergenceError) as err:
            _riccati_lift(TimeGrid(1.0, M), zero, zero, zero, one,
                          np.full((1, 1), -2.0), "Gamma")
        assert err.value.node == node, M
        assert "finite escape time" in str(err.value)


def test_lift_reports_an_escape_of_repeated_eigenvalues():
    # Two copies of dY/dt = Y^2, Y(1) = -2: X = (2t - 1) I crosses zero with
    # both eigenvalues at once, so det X stays positive past the pole and
    # only X's eigenvalues show the escape.
    M = 100
    zero, eye = np.zeros((3, M, 2, 2)), np.broadcast_to(np.eye(2), (3, M, 2, 2))
    with pytest.raises(DivergenceError) as err:
        _riccati_lift(TimeGrid(1.0, M), zero, zero, zero, eye,
                      -2.0 * np.eye(2), "Gamma")
    assert err.value.node == 50
    assert "finite escape time" in str(err.value)


def test_lift_reports_an_exactly_singular_step():
    # dY/dt = Y^2 from Y(1) = -4 on steps of h = 1/4: the last step's
    # X = 1 + h Y(1) is exactly 0, so Y's solve fails at the pole's node
    M = 4
    zero, one = np.zeros((3, M, 1, 1)), np.ones((3, M, 1, 1))
    with pytest.raises(DivergenceError) as err:
        _riccati_lift(TimeGrid(1.0, M), zero, zero, zero, one,
                      np.full((1, 1), -4.0), "Gamma")
    assert err.value.node == 3
    assert "finite escape time" in str(err.value)


def test_gamma_reports_the_node_of_its_pole():
    # Along the supplied P = 0 (A = 0, B = R = 1, Q = 4) the Gamma equation
    # is dGamma/dt = Gamma^2 + 4 with Gamma(1) = 0, so Gamma(t) =
    # -2 tan(2 (1 - t)) has its pole at t = 1 - pi/4 = 0.2146, between
    # nodes 21 and 22 of 100: node 21 is the first node past it.
    model = LqMfgModel.from_constants(TimeGrid(1.0, 100), A=0.0, B=1.0,
                                      Q=4.0, R=1.0, G=0.0, x0=[0.0])
    with pytest.raises(DivergenceError) as err:
        solve_Gamma_direct(model, np.zeros((101, 1, 1)))
    assert err.value.node == 21 and err.value.t == pytest.approx(0.21)
    assert str(err.value) == ("Gamma diverged at node 21 (t=0.21): finite "
                              "escape time within the step")


def test_gamma_reports_the_pole_of_an_isotropic_model():
    # The n = k = 2 isotropic copy of the model above: Gamma = g(t) I has the
    # same pole, which det X = x^2 > 0 would hide.
    eye = np.eye(2)
    model = LqMfgModel.from_constants(TimeGrid(1.0, 100), A=0.0 * eye, B=eye,
                                      Q=4.0 * eye, R=eye, G=0.0 * eye,
                                      x0=[0.0, 0.0])
    with pytest.raises(DivergenceError) as err:
        solve_Gamma_direct(model, np.zeros((101, 2, 2)))
    assert str(err.value) == ("Gamma diverged at node 21 (t=0.21): finite "
                              "escape time within the step")


def test_linear_routes_report_divergence_node():
    # With A = 1e30 each step multiplies by about (2 A h)^4 / 24: the
    # Lyapunov iterate and Phi stay finite for two steps and overflow at the
    # third, node 1 of 4, the first non-finite node of the backward sweep.
    model = LqMfgModel.from_constants(TimeGrid(1.0, 4), A=1e30, B=1.0, b=1.0,
                                      Q=1.0, R=1.0, G=0.0, x0=[0.0])
    P = np.ones((5, 1, 1))
    for name, solve in (
            ("Lyapunov iterate", lambda: solve_P_iterative(model)),
            ("Phi", lambda: solve_Phi(model, P, np.zeros_like(P)))):
        with pytest.raises(DivergenceError) as err:
            solve()
        assert err.value.node == 1 and err.value.t == 0.25, name
        assert str(err.value) == f"{name} diverged at node 1 (t=0.25)"


# -------------------------------------------------------------- iterative P

def test_iterative_agrees_with_direct():
    model = closed_form_model(100)
    P_dir = solve_P_direct(model)
    P_it, info = solve_P_iterative(model)
    assert info.iterations >= 2
    assert info.residuals[-1] < 1e-10
    # residuals decrease monotonically once the scheme is in its basin
    assert all(a >= b for a, b in zip(info.residuals, info.residuals[1:]))
    assert np.max(np.abs(P_dir - P_it)) < 1e-8


def test_iterative_starts_above_solution():
    # the first Kleinman iterate (gain zero: uncontrolled) must dominate the
    # solution
    model = closed_form_model(50)
    P_it, _ = solve_P_iterative(model)
    P0, _ = _PEquation(model).kleinman(
        np.zeros((3, model.grid.steps, model.k, model.n)))
    gap = P0 - P_it
    assert np.linalg.eigvalsh(0.5 * (gap + np.transpose(gap, (0, 2, 1)))).min() \
        > -1e-10


def test_iterative_rejects_bad_settings():
    model = preset("netsec-closed-form").model.build(20)
    for max_iters, tol in ((0, 1e-10), (-3, 1e-10), (5, 0.0), (5, -1.0),
                           (5, float("nan")), (5, float("inf"))):
        with pytest.raises(UsageError):
            solve_P_iterative(model, max_iters=max_iters, tol=tol)
        with pytest.raises(UsageError):
            solve_riccati(model, "iterative", max_iters=max_iters, tol=tol)


def test_iteration_cap_raises():
    with pytest.raises(ConvergenceError) as err:
        solve_P_iterative(closed_form_model(50), max_iters=2)
    assert err.value.iterations == 2
    assert err.value.residual > err.value.tol


# ----------------------------------------------------------- Gamma and Phi

def test_gamma_from_logistic_difference():
    model = closed_form_model(100)
    P = solve_P_direct(model)
    Gam = solve_Gamma_direct(model, P)
    t = model.grid.nodes
    exact = logistic_Pi(t) - logistic_P(t)
    assert np.max(np.abs(Gam[:, 0, 0] - exact)) < 1e-7
    assert np.max(np.abs(Gam[-1])) == 0.0


def test_gamma_via_pi_matches_direct_on_structured_models():
    rng = np.random.default_rng(11)
    for trial in range(5):
        n = int(rng.integers(1, 3))
        Mx = rng.uniform(-1, 1, (n, n))
        G = Mx.T @ Mx
        Mq = rng.uniform(-1, 1, (n, n))
        model = LqMfgModel.from_constants(
            TimeGrid(1.0, 200),
            A=rng.uniform(-1, 1, (n, n)), B=rng.uniform(-1, 1, (n, 1)),
            alpha=float(rng.uniform(-1, 1)) * np.eye(n),
            C=rng.uniform(-1, 1, (n, n)), D=rng.uniform(-1, 1, (n, 1)),
            sigma=rng.uniform(-1, 1, (n, 1)),
            Q=Mq.T @ Mq, R=1.0 + float(rng.uniform(0, 1)), G=G,
            x0=np.zeros(n))
        P = solve_P_direct(model)
        Gam = solve_Gamma_direct(model, P)
        Gam_pi, report = solve_Gamma_via_Pi(model, P)
        assert report.condition_ok  # C0 = 0 kills the cross term
        assert np.max(np.abs(Gam - Gam_pi)) < 1e-8, f"trial {trial}"


def test_pi_route_rejects_nonscalar_alpha():
    model = LqMfgModel.from_constants(
        TimeGrid(1.0, 10), A=np.eye(2), B=np.ones((2, 1)),
        alpha=np.diag([1.0, 2.0]), Q=np.eye(2), R=1.0, G=np.eye(2),
        x0=[0.0, 0.0])
    P = solve_P_direct(model)
    with pytest.raises(UsageError):
        solve_Gamma_via_Pi(model, P)


def test_pi_route_rejects_nonzero_beta():
    model = closed_form_model(10)
    model = LqMfgModel.from_constants(model.grid, A=1.0, B=1.0, alpha=1.0,
                                      beta=0.3, Q=3.0, R=1.0, G=1.0,
                                      x0=[1.0])
    P = solve_P_direct(model)
    with pytest.raises(UsageError):
        solve_Gamma_via_Pi(model, P)


def test_phi_constant_coefficient_oracle_drift_channel():
    # With P = 0.7 and Gamma = 0.2 held constant, b = 1, the Phi equation is
    #   dPhi/dt = -(lam * Phi + f),  Phi(T) = 0,
    # lam = A - S B / Sigma - Gamma B^2 / Sigma = 0.5 - 0.7 - 0.2 = -0.4,
    # f = (P + Gamma) b = 0.9, so Phi(t) = (f / lam)(e^{lam (T - t)} - 1).
    grid = TimeGrid(1.0, 200)
    model = LqMfgModel.from_constants(grid, A=0.5, B=1.0, b=1.0, Q=1.0,
                                      R=1.0, G=0.0, x0=[0.0])
    cnt = grid.node_count
    P = np.full((cnt, 1, 1), 0.7)
    Gam = np.full((cnt, 1, 1), 0.2)
    Phi = solve_Phi(model, P, Gam)
    lam, f = -0.4, 0.9
    exact = (f / lam) * (np.exp(lam * (1.0 - grid.nodes)) - 1.0)
    assert np.max(np.abs(Phi[:, 0] - exact)) < 1e-10


def test_phi_constant_coefficient_oracle_diffusion_channel():
    # Same scheme but the forcing enters through the individual-noise channel:
    # A=0.2, B=1, C=0.3, D=0.5, sigma=2, R=1, P=0.6, Gamma=0.1 constant.
    grid = TimeGrid(1.0, 200)
    model = LqMfgModel.from_constants(grid, A=0.2, B=1.0, C=0.3, D=0.5,
                                      sigma=2.0, Q=1.0, R=1.0, G=0.0,
                                      x0=[0.0])
    cnt = grid.node_count
    Pv, Gv = 0.6, 0.1
    P = np.full((cnt, 1, 1), Pv)
    Gam = np.full((cnt, 1, 1), Gv)
    Phi = solve_Phi(model, P, Gam)
    Sig = 1.0 + 0.5 ** 2 * Pv
    S = Pv * 1.0 + 0.3 * Pv * 0.5
    lam = 0.2 - S / Sig - Gv / Sig
    f = (0.3 - S * 0.5 / Sig - Gv * 0.5 / Sig) * Pv * 2.0
    exact = (f / lam) * (np.exp(lam * (1.0 - grid.nodes)) - 1.0)
    assert np.max(np.abs(Phi[:, 0] - exact)) < 1e-10


def test_phi_zero_for_closed_form_family():
    model = closed_form_model(100)
    P = solve_P_direct(model)
    Gam = solve_Gamma_direct(model, P)
    Phi = solve_Phi(model, P, Gam)
    assert np.max(np.abs(Phi)) == 0.0  # zero forcing propagates exactly


# ------------------------------------------------------------ feedback law

def test_terminal_gains_need_no_integration():
    # At t = T the gains follow from G alone:
    # Sigma(T) = 2.5 + 2.5^2*5 + 6^2*5 = 213.75,
    # K_z(T) = -(2.8*5 + 2.5*5*0.6)/213.75 = -21.5/213.75,
    # K_m(T) = 0 (Gamma(T)=0, beta=beta0=0),
    # c_u(T) = -(2.5*5*0.8 + 6*5*0.3)/213.75 = -19/213.75.
    cfg = preset("netsec-numeric")
    model = cfg.model.build(50)
    summary = solve_riccati(model)
    law = summary.feedback
    assert summary.solution.Sigma[-1, 0, 0] == pytest.approx(213.75, abs=1e-12)
    assert law.K_z[-1, 0, 0] == pytest.approx(-21.5 / 213.75, abs=1e-12)
    assert law.K_m[-1, 0, 0] == pytest.approx(0.0, abs=1e-15)
    assert law.c_u[-1, 0] == pytest.approx(-19.0 / 213.75, abs=1e-12)


def test_feedback_shapes():
    model = LqMfgModel.from_constants(
        TimeGrid(1.0, 20), A=np.eye(2) * -0.5, B=np.ones((2, 1)),
        Q=np.eye(2), R=2.0, G=np.eye(2), x0=[0.0, 0.0])
    summary = solve_riccati(model)
    assert summary.feedback.K_z.shape == (21, 1, 2)
    assert summary.feedback.K_m.shape == (21, 1, 2)
    assert summary.feedback.c_u.shape == (21, 1)
    assert summary.solution.Sigma.shape == (21, 1, 1)


def test_feedback_from_a_non_finite_phi_is_diagnosed():
    model = closed_form_model(20)
    solution = solve_riccati(model).solution
    broken = dataclasses.replace(solution,
                                 Phi=np.full_like(solution.Phi, np.inf))
    with pytest.raises(DivergenceError,
                       match="^feedback component c_u is not finite$"):
        build_feedback(model, broken)


def test_sigma_sequence_matches_definition():
    model = closed_form_model(20)
    P = solve_P_direct(model)
    Sig = sigma_sequence(model, P)
    np.testing.assert_allclose(Sig[:, 0, 0], 1.0, atol=1e-15)  # D = D0 = 0


# ----------------------------------------------------------- orchestration

def test_solve_riccati_both_routes_bookkeeping():
    model = closed_form_model(100)
    summary = solve_riccati(model, p_method="both", gamma_method="both")
    assert summary.p_agreement is not None and summary.p_agreement < 1e-8
    assert summary.gamma_agreement is not None
    assert summary.gamma_agreement < 1e-7
    assert summary.iterative_iterations >= 2
    assert summary.pi_report is not None and summary.pi_report.condition_ok
    assert summary.pi_error is None


def test_solve_riccati_records_pi_precondition_failure():
    model = LqMfgModel.from_constants(TimeGrid(1.0, 20), A=1.0, B=1.0,
                                      alpha=1.0, beta=0.4, Q=3.0, R=1.0,
                                      G=1.0, x0=[1.0])
    summary = solve_riccati(model, gamma_method="both")
    assert summary.pi_error is not None
    assert "beta" in summary.pi_error
    assert summary.gamma_agreement is None
    assert summary.solution.Gamma.shape == (21, 1, 1)  # direct result kept


def test_solve_riccati_rejects_unknown_methods():
    model = closed_form_model(10)
    with pytest.raises(UsageError):
        solve_riccati(model, p_method="magic")
    with pytest.raises(UsageError):
        solve_riccati(model, gamma_method="magic")


def test_direct_solve_is_fast_enough_for_preset_grid():
    model = closed_form_model(1000)
    solve_riccati(model)  # warm-up
    t0 = time.perf_counter()
    solve_riccati(model)
    assert time.perf_counter() - t0 < 1.0


# ------------------------------------------------------ time-varying models

_COEFFS = ("A", "B", "alpha", "b", "C", "D", "beta", "sigma", "C0", "D0",
           "beta0", "sigma0", "Q", "R")


# Every coefficient moves by 0.3 dX, smoothly or in one jump at t = 0.5.
_WAVES = {"sine": lambda t: 0.3 * np.sin(2.0 * np.pi * t),
          "step": lambda t: 0.3 * (t >= 0.5)}


def time_varying_model(steps, wave, structured=False):
    """n = k = 2 with every coefficient a schedule X + w(t) dX.

    ``structured`` holds alpha = delta I constant and sets beta = beta0 =
    C0 = 0, the structure the Pi route requires.
    """
    grid = TimeGrid(1.0, steps)
    w = _WAVES[wave](grid.nodes)[:, None, None]
    rng = np.random.default_rng(7)
    shapes = {"nn": (2, 2), "nk": (2, 2), "n1": (2, 1), "kk": (2, 2)}
    codes = ("nn", "nk", "nn", "n1", "nn", "nk", "nn", "n1", "nn", "nk",
             "nn", "n1", "nn", "kk")
    scheds = {}
    for name, code in zip(_COEFFS, codes):
        X = rng.uniform(-0.5, 0.5, shapes[code])
        dX = rng.uniform(-1.0, 1.0, shapes[code])
        if name in ("Q", "R"):
            X, dX = X @ X.T + np.eye(2), dX + dX.T
        if structured and name in ("beta", "beta0", "C0"):
            X, dX = np.zeros_like(X), 0.0
        if structured and name == "alpha":
            X, dX = 0.4 * np.eye(2), 0.0
        scheds[name] = X[None] + w * dX
    return LqMfgModel(grid=grid, G=np.eye(2), x0=np.zeros(2), **scheds)


def interval_oracle(model):
    """(P, Gamma, Phi) by solve_ivp, one grid interval at a time, with the
    interval's left-node coefficients held fixed."""
    from scipy.integrate import solve_ivp
    n = model.n

    def rhs(_, y, c):
        A, B, al, b, C, D, be, sg, C0, D0, be0, sg0, Q, R = c
        P, Gam = y[:n * n].reshape(n, n), y[n * n:2 * n * n].reshape(n, n)
        Phi = y[2 * n * n:]
        Si = np.linalg.inv(R + D.T @ P @ D + D0.T @ P @ D0)
        S = P @ B + C.T @ P @ D + C0.T @ P @ D0
        dP = -(P @ A + A.T @ P + C.T @ P @ C + C0.T @ P @ C0 + Q
               - S @ Si @ S.T)
        Th = D.T @ P @ be + D0.T @ P @ be0
        Acl = A - B @ Si @ S.T
        dG = Q - (Gam @ Acl + Acl.T @ Gam - Gam @ B @ Si @ Th
                  + C.T @ P @ be + C0.T @ P @ be0 - S @ Si @ Th
                  + (P + Gam) @ al - Gam @ B @ Si @ B.T @ Gam)
        W = (S + Gam @ B) @ Si
        f = ((C.T - W @ D.T) @ P @ sg + (C0.T - W @ D0.T) @ P @ sg0
             + (P + Gam) @ b)[:, 0]
        dPhi = -((A.T - W @ B.T) @ Phi + f)
        return np.concatenate([dP.ravel(), dG.ravel(), dPhi])

    t, M = model.grid.nodes, model.grid.steps
    Y = np.empty((M + 1, 2 * n * n + n))
    Y[M] = np.concatenate([model.G.ravel(), np.zeros(n * n + n)])
    for j in range(M - 1, -1, -1):
        c = tuple(getattr(model, name)[j] for name in _COEFFS)
        sol = solve_ivp(rhs, (t[j + 1], t[j]), Y[j + 1], args=(c,),
                        method="DOP853", rtol=1e-12, atol=1e-13)
        Y[j] = sol.y[:, -1]
    return (Y[:, :n * n].reshape(-1, n, n),
            Y[:, n * n:2 * n * n].reshape(-1, n, n), Y[:, 2 * n * n:])


def test_time_varying_schedules_match_interval_oracle():
    # Every route reads a known sequence at interval midpoints through its
    # own equation with the interval's coefficients, so each stays fourth
    # order when the coefficients vary or jump: Gamma's error falls about
    # 16x per grid doubling.  A reading that ignores the equation, such as
    # a cubic node stencil across the jumps, is second order here: errors
    # above 1e-7, falling 4x.
    for wave in _WAVES:
        gamma_errs = []
        for M in (100, 200):
            model = time_varying_model(M, wave)
            P_or, Gam_or, Phi_or = interval_oracle(model)
            P = solve_P_direct(model)
            Gam = solve_Gamma_direct(model, P)
            gamma_errs.append(np.max(np.abs(Gam - Gam_or)))
        assert gamma_errs[0] / gamma_errs[1] >= 8.0, wave
        assert np.max(np.abs(P - P_or)) < 1e-8, wave
        assert gamma_errs[1] < 1e-8, wave
        assert np.max(np.abs(solve_Phi(model, P, Gam) - Phi_or)) < 1e-8, wave
        P_it, _ = solve_P_iterative(model)
        assert np.max(np.abs(P_it - P_or)) < 1e-8, wave


def test_pi_route_time_varying_matches_interval_oracle():
    # the structured models (C0 = 0 kills the cross term), and the sine one
    # with a constant C0 != 0, whose common-channel terms of A_hat and M the
    # route must carry; there the cross-term condition fails, and the report
    # must say so
    C0 = np.random.default_rng(3).uniform(-0.5, 0.5, (2, 2))
    for wave, common in (("sine", False), ("step", False), ("sine", True)):
        model = time_varying_model(200, wave, structured=True)
        if common:
            model = dataclasses.replace(model, C0=C0)
        _, Gam_or, _ = interval_oracle(model)
        Gam_pi, report = solve_Gamma_via_Pi(model, solve_P_direct(model))
        assert report.condition_ok is not common, wave
        assert np.max(np.abs(Gam_pi - Gam_or)) < 1e-8, wave


def test_feedback_matches_gains_written_out_per_node():
    # every channel nonzero, beta and beta0 included: Sigma and the three
    # gains of solve_riccati's law, against each node's written-out solve
    model = time_varying_model(40, "sine")
    summary = solve_riccati(model)
    sol, law = summary.solution, summary.feedback
    want = {"Sigma": [], "K_z": [], "K_m": [], "c_u": []}
    for j in range(model.grid.node_count):
        c = {name: getattr(model, name)[j] for name in _COEFFS}
        P, B, D, D0 = sol.P[j], c["B"], c["D"], c["D0"]
        Sig = c["R"] + D.T @ P @ D + D0.T @ P @ D0
        want["Sigma"].append(Sig)
        want["K_z"].append(-np.linalg.solve(
            Sig, B.T @ P + D.T @ P @ c["C"] + D0.T @ P @ c["C0"]))
        want["K_m"].append(-np.linalg.solve(
            Sig, B.T @ sol.Gamma[j] + D.T @ P @ c["beta"]
            + D0.T @ P @ c["beta0"]))
        want["c_u"].append(-np.linalg.solve(
            Sig, B.T @ sol.Phi[j][:, None] + D.T @ P @ c["sigma"]
            + D0.T @ P @ c["sigma0"])[:, 0])
    for name, got in (("Sigma", sol.Sigma), ("K_z", law.K_z),
                      ("K_m", law.K_m), ("c_u", law.c_u)):
        ref = np.array(want[name])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def stagewise_rk4(grid, terminal, rhs):
    """Classical backward RK4 in matrix form, one stage at a time:
    rhs(y, s, j) is dy/dt at stage s (right node, midpoint, left node) of
    interval j."""
    M, h = grid.steps, grid.h
    Y = np.empty((M + 1,) + terminal.shape)
    Y[M] = terminal
    for j in range(M - 1, -1, -1):
        y = Y[j + 1]
        k1 = rhs(y, 0, j)
        k2 = rhs(y - 0.5 * h * k1, 1, j)
        k3 = rhs(y - 0.5 * h * k2, 1, j)
        k4 = rhs(y - h * k3, 2, j)
        Y[j] = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Y


def random_schedule_model(n, k, steps, rng):
    """Every coefficient an independent random schedule, Q and R symmetric
    positive definite at every node."""
    grid = TimeGrid(1.0, steps)
    scheds = {}
    for name, shape in coefficient_shapes(n, k).items():
        X = rng.uniform(-1.0, 1.0, (steps + 1,) + shape)
        if name in ("Q", "R"):
            X = X @ np.swapaxes(X, -1, -2) + np.eye(shape[0])
        scheds[name] = X
    return LqMfgModel(grid=grid, G=np.eye(n) + 0.1 * np.ones((n, n)),
                      x0=np.zeros(n), **scheds)


def test_backward_solvers_match_stagewise_rk4():
    # A Kleinman iterate is the P equation linearized at stage gains Psi, in
    # vech coordinates through composed per-interval affine maps, and P is
    # stepped through per-interval maps of vech(P); both must reproduce the
    # plain stage-by-stage RK4 recursion of the equation written out here.
    rng = np.random.default_rng(23)
    for n, k in ((1, 1), (2, 2), (3, 2)):
        model = random_schedule_model(n, k, 40, rng)
        Psi = rng.uniform(-1.0, 1.0, (3, 40, k, n))
        c = {name: getattr(model, name) for name in _COEFFS}

        def closed_loop(P, s, j):
            Y = Psi[s, j]
            A, C, C0 = (c[x][j] - c[u][j] @ Y
                        for x, u in (("A", "B"), ("C", "D"), ("C0", "D0")))
            return -(P @ A + A.T @ P + C.T @ P @ C + C0.T @ P @ C0
                     + c["Q"][j] + Y.T @ c["R"][j] @ Y)

        P_ref = stagewise_rk4(model.grid, model.G, closed_loop)
        P, _ = _PEquation(model).kleinman(Psi)
        assert np.max(np.abs(P - P_ref)) <= 1e-12 * np.max(np.abs(P_ref)), n

    model = time_varying_model(40, "sine")
    c = [{name: getattr(model, name)[j] for name in _COEFFS}
         for j in range(model.grid.steps)]

    def riccati(P, s, j):
        A, B, C, D, C0, D0 = (c[j][x] for x in ("A", "B", "C", "D", "C0", "D0"))
        Sig = c[j]["R"] + D.T @ P @ D + D0.T @ P @ D0
        S = P @ B + C.T @ P @ D + C0.T @ P @ D0
        return -(P @ A + A.T @ P + C.T @ P @ C + C0.T @ P @ C0 + c[j]["Q"]
                 - S @ np.linalg.solve(Sig, S.T))

    P_ref = stagewise_rk4(model.grid, model.G, riccati)
    P = solve_P_direct(model)
    assert np.max(np.abs(P - P_ref)) <= 1e-12 * np.max(np.abs(P_ref))


def test_import_leaves_scipy_linalg_unloaded():
    code = ("import sys, lqmfg, lqmfg.cli; "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_unloaded():
    # no runtime module uses scipy, so the front end does not pay its import
    code = "import sys, lqmfg.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
