"""Backward solvers for the coupled Riccati system and the feedback gains.

Three routes are implemented:

* ``solve_P_direct`` integrates the quadratic matrix equation for P backward
  with classical RK4.  The equation is non-standard: the control enters both
  diffusion channels, so the weighting is Sigma = R + D'PD + D0'PD0 rather
  than R alone.
* ``solve_P_iterative`` runs the monotone fixed-point scheme (Kleinman's
  iteration): a linear Lyapunov equation per iterate, with gains recomputed
  from the previous iterate.  The iterates decrease in the PSD order, which
  is checked.
* ``solve_Gamma_via_Pi`` substitutes Pi = P + Gamma, which turns the
  non-symmetric Gamma equation into a symmetric Riccati equation whenever
  alpha is a scalar multiple of the identity and beta = beta0 = 0.

``solve_Gamma_direct`` and ``solve_Phi`` complete the system, and
``build_feedback`` produces the decentralized gains (K_z, K_m, c_u).

Every equation goes through one backward RK4 loop, ``_rk4_backward``, and
has one right-hand side (``_p_rhs``, ``_lyapunov_rhs``, ``_gamma_rhs``).
Coefficient schedules are piecewise-constant per grid interval (left node),
and the RK4 stages of interval j sit at its right node, midpoint and left
node.  A known sequence (P for Gamma/Phi/Pi, Gamma for Phi, each Lyapunov
iterate for the next) is read at midpoints through its own equation, by the
cubic Hermite interpolant of each interval; so every route stays fourth
order when the coefficients vary, and under constant coefficients a constant
sequence is read exactly.  What it determines (Sigma^{-1} with its r_min
check, the closed-loop matrices, the forcing terms) is built once per route
as stacked (3, M, ...) arrays.  ``solve_P_direct`` alone inverts Sigma at
every stage, since there Sigma depends on the stage value.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (ConvergenceError, DivergenceError, MonotonicityError,
                     SingularSigmaError, UsageError)
from .model import TOL_PSD, LqMfgModel, TimeGrid

DEFAULT_MAX_ITERS = 100
DEFAULT_ITER_TOL = 1e-10
PRECONDITION_ATOL = 1e-12

_NAMES = ("A", "B", "alpha", "b", "C", "D", "beta", "sigma",
          "C0", "D0", "beta0", "sigma0", "Q", "R")


def _T(X):
    return np.swapaxes(X, -1, -2)


def _sym(X):
    return 0.5 * (X + _T(X))


class _Coeffs:
    """Coefficient values on the first ``stop`` nodes, with transposes.

    ``c.A`` holds the (stop, n, n) values of A and ``c.At`` their transposes.
    Taken over the M left nodes, the arrays broadcast against (3, M, ...)
    stage stacks; taken over all nodes, against node sequences.
    """

    def __init__(self, model: LqMfgModel, stop: int | None = None):
        for name in _NAMES:
            values = getattr(model, name).values[:stop]
            setattr(self, name, values)
            setattr(self, name + "t", _T(values))

    def interval(self, j: int) -> "_Coeffs":
        """The values of one interval as plain matrices."""
        one = object.__new__(_Coeffs)
        for name, values in vars(self).items():
            setattr(one, name, values[j])
        return one


def _stage_times(grid: TimeGrid) -> np.ndarray:
    left = grid.nodes[:-1]
    return np.stack([grid.nodes[1:], left + 0.5 * grid.h, left])


def _hermite_stages(values, slope, h) -> np.ndarray:
    """A known node sequence at the RK4 stage points, (3, M, ...): right
    nodes, midpoints (y_j + y_{j+1})/2 + (h/8)(f_j - f_{j+1}) of each
    interval's cubic Hermite interpolant, left nodes.  ``slope(ends)`` is the
    sequence's own dy/dt at its (2, M, ...) right and left node values, with
    each interval's coefficients."""
    v = np.asarray(values, dtype=float)
    ends = np.stack([v[1:], v[:-1]])
    f = slope(ends)
    mid = 0.5 * (ends[0] + ends[1]) + (h / 8.0) * (f[1] - f[0])
    return np.stack([ends[0], mid, ends[1]])


def _sigma(c, P):
    return c.R + c.Dt @ P @ c.D + c.D0t @ P @ c.D0


def _sigma_inv(Sig, r_min, t):
    """Sigma^{-1} for one matrix or a stack, guarding the r_min floor.

    ``t`` holds the time of each point.  A point below the floor raises
    ``SingularSigmaError`` at the latest such time, the one that a backward
    sweep reaches first.
    """
    Sig = _sym(Sig)
    w = np.linalg.eigvalsh(Sig)[..., 0]
    bad = w < r_min
    if bad.any():
        t = np.broadcast_to(t, w.shape)
        i = np.flatnonzero(bad & (t == t[bad].max()))[-1]
        raise SingularSigmaError(t.flat[i], w.flat[i], r_min)
    return np.linalg.inv(Sig)


def _gain_terms(c, P, r_min, t):
    """Sigma^{-1} and S = PB + C'PD + C0'PD0, so that the feedback gain on
    the state is -Sigma^{-1} S'."""
    Sinv = _sigma_inv(_sigma(c, P), r_min, t)
    return Sinv, P @ c.B + c.Ct @ P @ c.D + c.C0t @ P @ c.D0


@np.errstate(over="ignore", invalid="ignore")
def _rk4_backward(grid: TimeGrid, terminal, rhs, name: str,
                  sym: bool = False, psd: bool = False) -> np.ndarray:
    """Classical RK4 from ``terminal`` at T back to 0, one grid step a time.

    ``rhs(y, stage, j)`` is dy/dt at stage 0 (right node), 1 (midpoint) or
    2 (left node) of interval j.  With ``sym`` every step is symmetrized;
    with ``psd`` its minimum eigenvalue must stay above -TOL_PSD.  Returns
    the (M+1, ...) node sequence.  Raises ``DivergenceError`` at the first
    node that is non-finite or fails the PSD check.
    """
    M, h, nodes = grid.steps, grid.h, grid.nodes
    Y = np.empty((M + 1,) + np.shape(terminal))
    Y[M] = terminal
    for j in range(M - 1, -1, -1):
        y = Y[j + 1]
        k1 = rhs(y, 0, j)
        k2 = rhs(y - 0.5 * h * k1, 1, j)
        k3 = rhs(y - 0.5 * h * k2, 1, j)
        k4 = rhs(y - h * k3, 2, j)
        yj = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if sym:
            yj = 0.5 * (yj + yj.T)
        if not np.isfinite(yj).all():
            raise DivergenceError(f"{name} diverged", node=j, t=nodes[j])
        if psd:
            w_min = float(np.linalg.eigvalsh(yj)[0])
            if w_min < -TOL_PSD:
                raise DivergenceError(f"{name} lost positive semidefiniteness",
                                      node=j, t=nodes[j],
                                      detail=f"min eigenvalue {w_min:.3e}")
        Y[j] = yj
    return Y


def solve_P_direct(model: LqMfgModel) -> np.ndarray:
    """Integrate the quadratic equation for P backward from P(T) = G.

    Classical RK4 on the grid step, symmetrizing after every step.  Returns
    the (M+1, n, n) node sequence.  Raises ``SingularSigmaError`` if the
    control weighting drops below r_min at any evaluation, and
    ``DivergenceError`` if an iterate goes non-finite or loses positive
    semidefiniteness beyond the tolerance.
    """
    cs = list(map(_Coeffs(model).interval, range(model.grid.steps)))
    t = _stage_times(model.grid)

    def rhs(P, s, j):
        return _p_rhs(cs[j], P, model.r_min, t[s, j])

    return _rk4_backward(model.grid, _sym(model.G), rhs, "P",
                         sym=True, psd=True)


def _p_rhs(c, P, r_min, t):
    """dP/dt of the quadratic equation, for one matrix or a stack."""
    Sinv, S = _gain_terms(c, P, r_min, t)
    return -(P @ c.A + c.At @ P + c.Ct @ P @ c.C + c.C0t @ P @ c.C0
             + c.Q - S @ Sinv @ _T(S))


def _p_stages(model: LqMfgModel, c, P):
    """A supplied P at the RK4 stage points, read through its own equation,
    with Sigma^{-1} and S there: three (3, M, ...) stacks."""
    t = _stage_times(model.grid)
    Ps = _hermite_stages(P, lambda ends: _p_rhs(c, ends, model.r_min, t[::2]),
                         model.grid.h)
    return (Ps,) + _gain_terms(c, Ps, model.r_min, t)


def _lyapunov_rhs(P, Ah, Aht, Ch, Cht, C0h, C0ht, Qh):
    return -(P @ Ah + Aht @ P + Cht @ P @ Ch + C0ht @ P @ C0h + Qh)


def _solve_lyapunov(grid: TimeGrid, G, Ah, Ch, C0h, Qh):
    """Backward RK4 for the linear Lyapunov equation

        -dP/dt = P Ah + Ah'P + Ch'P Ch + C0h'P C0h + Qh,   P(T) = G.

    Coefficients are (3, M, n, n) stage stacks, or (M, n, n) left-node
    values used at every stage.  Returns the node sequence and its (3, M,
    n, n) stage values, read through this equation.
    """
    Ah, Ch, C0h, Qh = (np.broadcast_to(X, (3,) + X.shape[-3:])
                       for X in (Ah, Ch, C0h, Qh))
    Aht, Cht, C0ht = _T(Ah), _T(Ch), _T(C0h)

    def rhs(P, s, j):
        return _lyapunov_rhs(P, Ah[s, j], Aht[s, j], Ch[s, j], Cht[s, j],
                             C0h[s, j], C0ht[s, j], Qh[s, j])

    Y = _rk4_backward(grid, _sym(G), rhs, "Lyapunov iterate", sym=True)
    ends = [X[::2] for X in (Ah, Aht, Ch, Cht, C0h, C0ht, Qh)]
    return Y, _hermite_stages(Y, lambda P: _lyapunov_rhs(P, *ends), grid.h)


def _psi_transform(c, P, r_min, t):
    """(A_hat, C_hat, C0_hat, Q_hat) for the Lyapunov step linearized at P,
    with gain Psi = Sigma^{-1} S'."""
    Sinv, S = _gain_terms(c, P, r_min, t)
    Psi = Sinv @ _T(S)
    return (c.A - c.B @ Psi, c.C - c.D @ Psi, c.C0 - c.D0 @ Psi,
            c.Q + _T(Psi) @ c.R @ Psi)


@dataclasses.dataclass(frozen=True)
class IterativeInfo:
    iterations: int
    residuals: tuple[float, ...]

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else 0.0


def solve_P_iterative(model: LqMfgModel, max_iters: int = DEFAULT_MAX_ITERS,
                      tol: float = DEFAULT_ITER_TOL):
    """Monotone Lyapunov iteration for P.

    P_0 solves the plain Lyapunov equation with weight Q; each subsequent
    iterate re-linearizes around the previous one (gain Psi_i) and solves a
    Lyapunov equation with weight Q + Psi' R Psi.  The sequence decreases in
    the PSD order down to the Riccati solution.

    Returns (P, IterativeInfo).  Raises ``MonotonicityError`` if an iterate
    fails to sit below its predecessor beyond tolerance, ``ConvergenceError``
    if max_iters is exhausted.
    """
    grid = model.grid
    c = _Coeffs(model, grid.steps)
    t = _stage_times(grid)
    P_prev, stages = _solve_lyapunov(grid, model.G, c.A, c.C, c.C0, c.Q)

    residuals = []
    for i in range(max_iters):
        P_next, stages = _solve_lyapunov(grid, model.G, *_psi_transform(
            c, stages, model.r_min, t))

        diff = P_prev - P_next
        min_eigs = np.linalg.eigvalsh(_sym(diff))[:, 0]
        worst = int(np.argmin(min_eigs))
        if min_eigs[worst] < -TOL_PSD:
            raise MonotonicityError(i + 1, worst, min_eigs[worst])

        res = float(np.sqrt((diff ** 2).sum(axis=(1, 2))).max())
        residuals.append(res)
        P_prev = P_next
        if res < tol:
            return P_next, IterativeInfo(i + 1, tuple(residuals))

    raise ConvergenceError(max_iters, residuals[-1], tol)


def solve_Gamma_direct(model: LqMfgModel, P) -> np.ndarray:
    """Integrate the mean-field correction Gamma backward from Gamma(T) = 0.

    ``P`` is the node sequence from either P-solver, read at midpoints
    through the P equation.  No symmetrization is applied: the equation is
    not symmetric in general, and neither is its solution.
    """
    P = np.asarray(P, float)
    c = _Coeffs(model, model.grid.steps)
    F, L, Aclt, N = _gamma_terms(c, *_p_stages(model, c, P))

    def rhs(Gam, s, j):
        return _gamma_rhs(Gam, F[s, j], L[s, j], Aclt[s, j], N[s, j])

    return _rk4_backward(model.grid, np.zeros(P.shape[1:]), rhs, "Gamma")


def _gamma_terms(c, Ps, Sinv, S):
    """(F, L, Acl', N) of -dGamma/dt = Gamma L + Acl' Gamma - Gamma N Gamma
    - F along stacked P values, with Sigma^{-1} and S there."""
    Th = c.Dt @ Ps @ c.beta + c.D0t @ Ps @ c.beta0
    BSinv = c.B @ Sinv
    Acl = c.A - BSinv @ _T(S)
    L = Acl - BSinv @ Th + c.alpha
    N = BSinv @ c.Bt
    F = (c.Q - c.Ct @ Ps @ c.beta - c.C0t @ Ps @ c.beta0 + S @ Sinv @ Th
         - Ps @ c.alpha)
    return F, L, _T(Acl), N


def _gamma_rhs(Gam, F, L, Aclt, N):
    return F - Gam @ L - Aclt @ Gam + Gam @ N @ Gam


@dataclasses.dataclass(frozen=True)
class PiTransformReport:
    """Per-node check of the cross-term condition backing the Pi substitution."""

    delta: float
    Pi: np.ndarray                  # (M+1, n, n)
    condition_margins: np.ndarray   # (M+1,) min eigenvalue of the cross term

    @property
    def condition_ok(self) -> bool:
        return bool(self.condition_margins.min() >= -TOL_PSD)

    @property
    def violated_nodes(self) -> np.ndarray:
        return np.nonzero(self.condition_margins < -TOL_PSD)[0]


def _pi_terms(c, P, Sinv):
    """A_hat = A - B Sigma^{-1}(D'PC + D0'PC0), the Pi equation's constant
    term M, and the cross term of M whose PSD-ness backs the substitution."""
    DtP, D0tP = c.Dt @ P, c.D0t @ P
    SigDtP, SigD0tP = Sinv @ DtP, Sinv @ D0tP
    Ahat = c.A - c.B @ Sinv @ (DtP @ c.C + D0tP @ c.C0)
    PD, PD0 = P @ c.D, P @ c.D0
    cross = -c.Ct @ PD @ (SigD0tP @ c.C0) - c.C0t @ PD0 @ (SigDtP @ c.C)
    Mterm = (c.Ct @ (P - PD @ SigDtP) @ c.C
             + c.C0t @ (P - PD0 @ SigD0tP) @ c.C0 + cross)
    return Ahat, Mterm, cross


def solve_Gamma_via_Pi(model: LqMfgModel, P):
    """Gamma through the substitution Pi = P + Gamma.

    Requires alpha = delta*I for a scalar delta and beta = beta0 = 0 (the
    structure that makes the Pi equation symmetric); raises ``UsageError``
    otherwise.  Integrates Pi backward from Pi(T) = G with symmetrization and
    a PSD guard, and evaluates the cross-term condition
    -C'PD Sigma^{-1} D0'PC0 - C0'PD0 Sigma^{-1} D'PC >= 0 at every node,
    recording the margin per node (a violation is reported, not fatal).

    Returns (Gamma, PiTransformReport).
    """
    P = np.asarray(P, float)
    grid = model.grid
    alpha = model.alpha.values
    delta = float(alpha[0, 0, 0])
    if np.abs(alpha - delta * np.eye(model.n)).max() > PRECONDITION_ATOL:
        raise UsageError("Pi substitution requires alpha = delta * identity "
                         "with one scalar delta at every node")
    if np.abs(model.beta.values).max() > PRECONDITION_ATOL or \
       np.abs(model.beta0.values).max() > PRECONDITION_ATOL:
        raise UsageError("Pi substitution requires beta = beta0 = 0")

    cn = _Coeffs(model)
    Sinv = _sigma_inv(_sigma(cn, P), model.r_min, grid.nodes)
    margins = np.linalg.eigvalsh(_sym(_pi_terms(cn, P, Sinv)[2]))[:, 0]

    c = _Coeffs(model, grid.steps)
    Ps, Sinv, _ = _p_stages(model, c, P)
    Ahat, Mterm, _ = _pi_terms(c, Ps, Sinv)
    Ahatt = _T(Ahat)
    N = c.B @ Sinv @ c.Bt

    def rhs(Pi, s, j):
        return -(Pi @ Ahat[s, j] + Ahatt[s, j] @ Pi + delta * Pi + Mterm[s, j]
                 - Pi @ N[s, j] @ Pi)

    Pi = _rk4_backward(grid, _sym(model.G), rhs, "Pi", sym=True, psd=True)
    report = PiTransformReport(delta=delta, Pi=Pi, condition_margins=margins)
    return Pi - P, report


def solve_Phi(model: LqMfgModel, P, Gamma) -> np.ndarray:
    """Integrate the affine offset Phi backward from Phi(T) = 0.

    Linear in Phi once P and Gamma are known; each is read at interval
    midpoints through its own equation.  Returns an (M+1, n) array.
    """
    c = _Coeffs(model, model.grid.steps)
    Ps, Sinv, S = _p_stages(model, c, P)
    ends = _gamma_terms(c, Ps[::2], Sinv[::2], S[::2])
    Gs = _hermite_stages(Gamma, lambda G: _gamma_rhs(G, *ends), model.grid.h)
    W = (S + Gs @ c.B) @ Sinv
    # -dPhi/dt = lam Phi + forcing
    lam = c.At - W @ c.Bt
    forcing = ((c.Ct - W @ c.Dt) @ (Ps @ c.sigma)
               + (c.C0t - W @ c.D0t) @ (Ps @ c.sigma0)
               + (Ps + Gs) @ c.b)[..., 0]

    def rhs(Phi, s, j):
        return -(lam[s, j] @ Phi + forcing[s, j])

    return _rk4_backward(model.grid, np.zeros(model.n), rhs, "Phi")


def sigma_sequence(model: LqMfgModel, P) -> np.ndarray:
    """Sigma(t_j) = R + D'PD + D0'PD0 at every node, shape (M+1, k, k)."""
    return _sigma(_Coeffs(model), np.asarray(P, float))


@dataclasses.dataclass(frozen=True)
class RiccatiSolution:
    """Node sequences of the full backward system plus the control weighting."""

    grid: TimeGrid
    P: np.ndarray       # (M+1, n, n), symmetric PSD
    Gamma: np.ndarray   # (M+1, n, n), possibly non-symmetric
    Phi: np.ndarray     # (M+1, n)
    Sigma: np.ndarray   # (M+1, k, k)


@dataclasses.dataclass(frozen=True)
class FeedbackLaw:
    """Decentralized feedback u_i(t) = K_z(t) zhat_i(t) + K_m(t) Em(t) + c_u(t)."""

    grid: TimeGrid
    K_z: np.ndarray   # (M+1, k, n)
    K_m: np.ndarray   # (M+1, k, n)
    c_u: np.ndarray   # (M+1, k)


def build_feedback(model: LqMfgModel, sol: RiccatiSolution) -> FeedbackLaw:
    """Gains from the solved system, per node.

    K_z = -Sigma^{-1}(B'P + D'PC + D0'PC0),
    K_m = -Sigma^{-1}(B'Gamma + D'P beta + D0'P beta0),
    c_u = -Sigma^{-1}(B'Phi + D'P sigma + D0'P sigma0).
    """
    c = _Coeffs(model)
    P = sol.P
    Sinv = _sigma_inv(sol.Sigma, model.r_min, model.grid.nodes)
    K_z = -(Sinv @ (c.Bt @ P + c.Dt @ P @ c.C + c.D0t @ P @ c.C0))
    K_m = -(Sinv @ (c.Bt @ sol.Gamma + c.Dt @ P @ c.beta
                    + c.D0t @ P @ c.beta0))
    c_u = -(Sinv @ (c.Bt @ sol.Phi[..., None] + c.Dt @ P @ c.sigma
                    + c.D0t @ P @ c.sigma0))[..., 0]
    law = FeedbackLaw(grid=model.grid, K_z=K_z, K_m=K_m, c_u=c_u)
    for name, arr in (("K_z", K_z), ("K_m", K_m), ("c_u", c_u)):
        if not np.isfinite(arr).all():
            raise DivergenceError(f"feedback component {name} is not finite")
    return law


@dataclasses.dataclass(frozen=True)
class SolveSummary:
    """Full solve with optional cross-validation between solution routes."""

    solution: RiccatiSolution
    feedback: FeedbackLaw
    p_method: str
    gamma_method: str
    p_agreement: float | None = None
    gamma_agreement: float | None = None
    iterative_iterations: int | None = None
    pi_report: PiTransformReport | None = None
    pi_error: str | None = None


def solve_riccati(model: LqMfgModel, p_method: str = "direct",
                  gamma_method: str = "direct",
                  max_iters: int = DEFAULT_MAX_ITERS,
                  tol: float = DEFAULT_ITER_TOL) -> SolveSummary:
    """Solve the full system and build the feedback law.

    ``p_method``/``gamma_method`` accept "direct", "iterative"/"pi_transform",
    or "both".  With "both" the primary output comes from the direct route and
    the maximum per-node Frobenius deviation between routes is recorded.  When
    gamma_method="both" and the Pi precondition fails, the direct result is
    kept and the precondition message is recorded instead of raising.
    """
    if p_method not in ("direct", "iterative", "both"):
        raise UsageError(f"unknown p_method '{p_method}'")
    if gamma_method not in ("direct", "pi_transform", "both"):
        raise UsageError(f"unknown gamma_method '{gamma_method}'")

    p_agreement = iterations = None
    if p_method == "direct":
        P = solve_P_direct(model)
    elif p_method == "iterative":
        P, info = solve_P_iterative(model, max_iters=max_iters, tol=tol)
        iterations = info.iterations
    else:
        P = solve_P_direct(model)
        P_it, info = solve_P_iterative(model, max_iters=max_iters, tol=tol)
        iterations = info.iterations
        p_agreement = float(np.sqrt(((P - P_it) ** 2).sum(axis=(1, 2))).max())

    gamma_agreement = pi_report = pi_error = None
    if gamma_method == "pi_transform":
        Gamma, pi_report = solve_Gamma_via_Pi(model, P)
    else:
        Gamma = solve_Gamma_direct(model, P)
    if gamma_method == "both":
        try:
            Gamma_pi, pi_report = solve_Gamma_via_Pi(model, P)
        except UsageError as exc:
            pi_error = str(exc)
        else:
            gamma_agreement = float(
                np.sqrt(((Gamma - Gamma_pi) ** 2).sum(axis=(1, 2))).max())

    Phi = solve_Phi(model, P, Gamma)
    Sigma = sigma_sequence(model, P)
    sol = RiccatiSolution(grid=model.grid, P=P, Gamma=Gamma, Phi=Phi, Sigma=Sigma)
    law = build_feedback(model, sol)
    return SolveSummary(solution=sol, feedback=law, p_method=p_method,
                        gamma_method=gamma_method, p_agreement=p_agreement,
                        gamma_agreement=gamma_agreement,
                        iterative_iterations=iterations,
                        pi_report=pi_report, pi_error=pi_error)
