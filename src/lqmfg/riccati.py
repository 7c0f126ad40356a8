"""Backward solvers for the coupled Riccati system and the feedback gains.

Three routes are implemented:

* ``solve_P_direct`` integrates the quadratic matrix equation for P backward
  with classical RK4.  The equation is non-standard: the control enters both
  diffusion channels, so the weighting is Sigma = R + D'PD + D0'PD0 rather
  than R alone.
* ``solve_P_iterative`` runs Kleinman's monotone iteration: each iterate
  solves the linear equation that the P equation becomes when linearized at
  the previous iterate's gain (the first at gain zero, a plain Lyapunov
  equation).  The iterates decrease in the PSD order, which is checked.
* ``solve_Gamma_via_Pi`` substitutes Pi = P + Gamma, which turns the
  non-symmetric Gamma equation into a symmetric Riccati equation whenever
  alpha is a scalar multiple of the identity and beta = beta0 = 0.

``solve_Gamma_direct`` and ``solve_Phi`` complete the system, and
``build_feedback`` produces the decentralized gains (K_z, K_m, c_u).
Every equation reads P through the two noise channels as X'PY + X0'PY0
(``_noise``); only the Pi route's cross-term condition reads them apart.

Coefficient schedules are piecewise-constant per grid interval (left node);
the RK4 stages of interval j sit at its right node, midpoint and left node.
Every interval's RK4 step of a linear equation is composed at once into an
affine map (``_rk4_step_maps``), and the sweep is one map per node.  The
linear equations, each Kleinman iterate (in vech coordinates, so exactly
symmetric) and Phi, go through ``_rk4_linear``.  Gamma and Pi are of
standard Riccati form, dY/dt = F - Y L - Acl' Y + Y N Y, so they go through
the step maps of their linear lift (``_riccati_lift``), with X restarted at
I on every node; a step in which X turns singular or gets an eigenvalue
with real part <= 0 is a finite escape time.
P is the one equation stepped stage by stage: its weighting Sigma depends on
P through D and D0.  Its stages come from per-interval affine maps of
vech(P) built once (``_PEquation``); Sigma is inverted directly, and the
r_min floor and the PSD check run on the whole sweep afterwards, reporting
the failure that the sweep met first.  ``_PEquation`` is the one statement
of the P equation: its maps are built from the right-hand side one basis
matrix at a time, and a Kleinman iterate's operator is their linearization
at the iterate's stage gains.  ``solve_riccati`` builds one ``_PEquation``
and one set of P stage stacks for all its routes.  A known sequence (P for
Gamma/Phi/Pi, Gamma for Phi, each Kleinman iterate for the next) is read at
midpoints through its own equation, by each interval's cubic Hermite
interpolant, so every route stays fourth order when coefficients vary.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import (ConvergenceError, DivergenceError, MonotonicityError,
                     SingularSigmaError, UsageError)
from .model import COEFFICIENTS, TOL_PSD, LqMfgModel, TimeGrid

DEFAULT_MAX_ITERS = 100
DEFAULT_ITER_TOL = 1e-10
PRECONDITION_ATOL = 1e-12


def _T(X):
    return X.swapaxes(-1, -2)


def _sym(X):
    return 0.5 * (X + _T(X))


def _max_frobenius(X, Y) -> float:
    """The largest per-node Frobenius norm of X - Y over (M+1, n, n)
    sequences."""
    return float(np.sqrt(((X - Y) ** 2).sum(axis=(1, 2))).max())


@functools.lru_cache(maxsize=None)
def _vech_index(n):
    """vech's (rows, columns) and each n x n matrix entry's vech position."""
    iu = np.triu_indices(n)
    pos = np.empty((n, n), dtype=int)
    pos[iu] = pos[iu[::-1]] = np.arange(len(iu[0]))
    return iu, pos


def _vech(X):
    return X[(...,) + _vech_index(X.shape[-1])[0]]


class _Coeffs:
    """Coefficient values on the first ``stop`` nodes, with transposes.

    ``c.A`` holds the (stop, n, n) values of A and ``c.At`` their transposes.
    Taken over the M left nodes, the arrays broadcast against (3, M, ...)
    stage stacks; taken over all nodes, against node sequences.
    """

    def __init__(self, model: LqMfgModel, stop: int | None = None):
        for name in COEFFICIENTS:
            values = getattr(model, name)[:stop]
            setattr(self, name, values)
            setattr(self, name + "t", _T(values))


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


def _noise(c, P, X, Y):
    """X'PY + X0'PY0 for X, Y among "C", "D", "beta" and "sigma": P read
    through the agent's own noise channel (X, Y) and the common one (X0,
    Y0), as every backward equation reads it."""
    own = getattr(c, X + "t") @ (P @ getattr(c, Y))
    return own + getattr(c, X + "0t") @ (P @ getattr(c, Y + "0"))


def _gain_forms(c, P):
    """D'PD + D0'PD0 and S = PB + C'PD + C0'PD0: the weighting is Sigma =
    R + D'PD + D0'PD0 and the feedback gain on the state -Sigma^{-1} S'."""
    return _noise(c, P, "D", "D"), P @ c.B + _noise(c, P, "C", "D")


def _sigma_inv(Sig, r_min, t):
    """Sigma^{-1} = V diag(1/w) V' for one matrix or a stack, by one
    eigendecomposition (of the lower triangle) that also guards r_min: a
    point below the floor raises ``SingularSigmaError`` at the latest of its
    times ``t``, the one that a backward sweep reaches first."""
    w, V = np.linalg.eigh(Sig)
    bad = w[..., 0] < r_min
    if bad.any():
        t = np.broadcast_to(t, bad.shape)
        i = np.flatnonzero(bad & (t == t[bad].max()))[-1]
        raise SingularSigmaError(t.flat[i], w[..., 0].flat[i], r_min)
    return (V / w[..., None, :]) @ _T(V)


def _psd_error(name, node, t, min_eig):
    return DivergenceError(f"{name} lost positive semidefiniteness", node=node,
                           t=t, detail=f"min eigenvalue {min_eig:.3e}")


@np.errstate(over="ignore", invalid="ignore")
def _rk4_step_maps(h, L, f):
    """Every interval's classical RK4 step backward for dy/dt = L y + f,
    composed in batch into the affine map y_j = T_j y_{j+1} + g_j, from the
    (3, M, p, p) operator and (3, M, p) forcing at every stage."""
    eye = np.eye(L.shape[-1])
    K = K_sum = L[0]          # stage slopes as affine maps k = K y + c
    c = c_sum = f[0]
    for s, a, weight in ((1, 0.5, 2.0), (1, 0.5, 2.0), (2, 1.0, 1.0)):
        c = f[s] - a * h * (L[s] @ c[..., None])[..., 0]
        K = L[s] @ (eye - a * h * K)
        K_sum, c_sum = K_sum + weight * K, c_sum + weight * c
    return eye - (h / 6.0) * K_sum, -(h / 6.0) * c_sum


@np.errstate(over="ignore", invalid="ignore")
def _rk4_linear(grid: TimeGrid, L, f, terminal, name: str) -> np.ndarray:
    """Classical RK4 from ``terminal`` at T back to 0 for dy/dt = L y + f,
    given the (3, M, p, p) operator and (3, M, p) forcing at every stage,
    one step map per node.  Returns the (M+1, p) node sequence; raises
    ``DivergenceError`` at the first non-finite node of the sweep."""
    T, g = _rk4_step_maps(grid.h, L, f)
    Y = np.empty((grid.steps + 1,) + np.shape(terminal))
    Y[-1] = terminal
    for j in range(grid.steps - 1, -1, -1):
        Y[j] = T[j] @ Y[j + 1] + g[j]
    bad = np.flatnonzero(~np.isfinite(Y).all(axis=1))
    if bad.size:  # the last one is the first the backward sweep meets
        raise DivergenceError(f"{name} diverged", node=int(bad[-1]),
                              t=grid.nodes[bad[-1]])
    return Y


@np.errstate(over="ignore", invalid="ignore")
def _riccati_lift(grid: TimeGrid, F, L, Aclt, N, terminal, name: str,
                  psd: bool = False):
    """Classical RK4 from ``terminal`` at T back to 0 for the standard-form
    Riccati equation dY/dt = F - Y L - Acl' Y + Y N Y, given its (3, M, n, n)
    terms at every stage, through the linear lift (Radon's lemma):
    Y = V X^{-1} with d[X; V]/dt = [[L, -N], [F, -Acl']] [X; V].

    The sweep restarts X at I on every node: Y_j = (T21 + T22 Y_{j+1})
    (T11 + T12 Y_{j+1})^{-1} with the lift's step maps T.  The lift steps
    through a pole of Y with finite values, so a step whose X is singular or
    has an eigenvalue with real part <= 0 is a finite escape time (det X
    would miss an even number of eigenvalues crossing zero at once, as in a
    model made of identical copies).  With ``psd`` every node
    is symmetrized and its minimum eigenvalue must stay above -TOL_PSD.
    Returns the (M+1, n, n) node sequence and, with ``psd``, the (M+1,)
    minimum eigenvalues.  Raises ``DivergenceError`` at the first node of
    the sweep that escapes, is non-finite or fails the eigenvalue check.
    """
    M, n = grid.steps, np.shape(terminal)[-1]
    H = np.block([[L, -N], [F, -Aclt]])
    T = _rk4_step_maps(grid.h, H, np.zeros(H.shape[:-1]))[0]
    Tx, Ty = T[..., :n], T[..., n:]
    Y = np.full((M + 1, n, n), np.nan)
    X = np.full((M, n, n), np.nan)
    escape = np.zeros(M, dtype=bool)
    Y[M] = terminal
    for j in range(M - 1, -1, -1):
        Z = Tx[j] + Ty[j] @ Y[j + 1]
        X[j] = Z[:n]
        try:
            Yj = np.linalg.solve(_T(Z[:n]), _T(Z[n:]))
        except np.linalg.LinAlgError:
            escape[j] = True
            break
        Y[j] = 0.5 * (Yj + Yj.T) if psd else Yj.T
    # X = I + O(h) on a step that no pole crosses; an eigenvalue with real
    # part <= 0 lies at least 1 from 1, so only X with |X - I|_F >= 1 can
    # have one
    d = ((X - np.eye(n)) ** 2).sum(axis=(1, 2))
    far = np.isfinite(d) & (d >= 1.0)
    escape[far] |= (np.linalg.eigvals(X[far]).real <= 0.0).any(axis=-1)
    # nodes the sweep did not reach are NaN and lie below its first failure
    finite = np.isfinite(Y).all(axis=(1, 2))
    bad = escape | ~finite[:M]
    lam = None
    if psd:
        lam = np.full(M + 1, -np.inf)
        lam[finite] = np.linalg.eigvalsh(Y[finite])[:, 0]
        bad |= lam[:M] < -TOL_PSD
    if bad.any():
        j = int(np.flatnonzero(bad)[-1])
        if escape[j] or not finite[j]:
            raise DivergenceError(
                f"{name} diverged", node=j, t=grid.nodes[j],
                detail="finite escape time within the step"
                if escape[j] else None)
        raise _psd_error(name, j, grid.nodes[j], lam[j])
    return Y, lam


class _PEquation:
    """The P equation on each interval as affine maps of vech(P), built once:
    ``W[j] @ vech(P) + w0[j]`` stacks, flattened, its Lyapunov part
    -(PA + A'P + C'PC + C0'PC0 + Q), Sigma and S with interval j's
    coefficients (cut apart by ``split``), and dP/dt = Lyapunov part +
    S Sigma^{-1} S'; every P route reads the equation from these maps."""

    def __init__(self, model: LqMfgModel):
        g, M, n, k = model.grid, model.grid.steps, model.n, model.k
        c = self.c = _Coeffs(model, M)
        self.grid, self.G, self.r_min = g, _sym(model.G), model.r_min
        self.n, self.k, self.h = n, k, g.h
        self.t = np.stack([g.nodes[1:], g.nodes[:-1] + 0.5 * g.h, g.nodes[:-1]])

        def flat(*parts):
            return np.concatenate([X.reshape(M, -1) for X in parts], axis=-1)

        def lyapunov(P):
            PA = P @ c.A
            return -(PA + _T(PA) + _noise(c, P, "C", "C"))

        # column i (last axis) is the linear part at E_i, vech(E_i) = e_i
        pos = self.pos = _vech_index(n)[1]
        basis = [(pos == i).astype(float) for i in range(pos.max() + 1)]
        self.W = np.stack([flat(lyapunov(E), *_gain_forms(c, E))
                           for E in basis], axis=-1)
        self.w0 = flat(-c.Q, c.R, np.zeros_like(c.B))

    def split(self, v):
        """Affine-map values (..., n*n + k*k + n*k) as the Lyapunov part,
        Sigma and S."""
        n, k, shape = self.n, self.k, v.shape[:-1]
        nn, kk = n * n, n * n + k * k
        return (v[..., :nn].reshape(shape + (n, n)),
                v[..., nn:kk].reshape(shape + (k, k)),
                v[..., kk:].reshape(shape + (n, k)))

    def __call__(self, P, s=slice(None)):
        """dP/dt, Sigma^{-1} and S at symmetric P, at stage s of every
        interval or stacked over stages and intervals."""
        L, Sig, S = self.split((self.W @ _vech(P)[..., None])[..., 0] + self.w0)
        Sinv = _sigma_inv(Sig, self.r_min, self.t[s])
        return L + S @ Sinv @ _T(S), Sinv, S

    def kleinman(self, Psi):
        """The Kleinman iterate at stage gains Psi (3, M, k, n): the P
        equation linearized there, dP/dt = Lyapunov part + S Psi + Psi'S' -
        Psi' Sigma Psi, from P(T) = G, with its vech operator from the columns
        of W and its forcing from w0, one stage at a time.  Returns the exactly
        symmetric node sequence and its (3, M, n, n) stage values."""
        def linearized(Lp, Sig, S, Y):
            return _vech(Lp + S @ Y + _T(S @ Y) - _T(Y) @ Sig @ Y)

        cols, w0 = self.split(_T(self.W)), self.split(self.w0)
        L = np.stack([_T(linearized(*cols, Y[:, None])) for Y in Psi])
        f = np.stack([linearized(*w0, Y) for Y in Psi])
        P = _rk4_linear(self.grid, L, f, _vech(self.G), "Lyapunov iterate")
        stages = _hermite_stages(
            P, lambda ends: (L[::2] @ ends[..., None])[..., 0] + f[::2], self.h)
        return P[..., self.pos], stages[..., self.pos]


# the stage (right node, midpoint, left node) of each RK4 slope
_SLOPE_STAGE = (0, 1, 1, 2)


@np.errstate(over="ignore", invalid="ignore")
def solve_P_direct(model: LqMfgModel, *, eq: _PEquation | None = None):
    """Integrate the quadratic equation for P backward from P(T) = G.

    Classical RK4 on the grid step, symmetrizing after every step.  ``eq``
    is the model's ``_PEquation`` when the caller already built it.
    Returns the (M+1, n, n) node sequence.  Raises ``SingularSigmaError`` if
    the control weighting drops below r_min at any evaluation, and
    ``DivergenceError`` if a node goes non-finite or loses positive
    semidefiniteness beyond the tolerance, whichever the sweep meets first.

    Each stage inverts Sigma without an eigendecomposition and records it;
    the r_min floor and the PSD check run on the whole sweep afterwards.
    The sweep stops at the first non-finite node or singular Sigma.
    """
    eq = _PEquation(model) if eq is None else eq
    grid, n, k, W, w0, split = model.grid, eq.n, eq.k, eq.W, eq.w0, eq.split
    M, h, iu = grid.steps, grid.h, _vech_index(n)[0]
    P = np.full((M + 1, n, n), np.nan)
    P[M] = eq.G
    Sig = np.full((M, 4, k, k), np.nan)   # each interval's slopes' Sigma

    def slope(y, j, i):
        L, sig, S = split(W[j] @ y[iu] + w0[j])
        Sig[j, i] = sig
        return L + S @ np.linalg.inv(sig) @ S.T

    singular = None   # (interval, slope) of a Sigma that inv rejects
    for j in range(M - 1, -1, -1):
        y, ks = P[j + 1], []
        try:
            ks.append(slope(y, j, 0))
            for i, a in ((1, 0.5), (2, 0.5), (3, 1.0)):
                ks.append(slope(y - a * h * ks[-1], j, i))
        except np.linalg.LinAlgError:
            singular = j, len(ks)
            break
        y = y - (h / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
        P[j] = 0.5 * (y + y.T)
        if not np.isfinite(P[j]).all():
            break

    # the first failure in sweep order: interval j's four slopes, then node
    # j; nodes the sweep did not reach are NaN and lie below it
    w = np.full((M, 4), np.inf)
    finite = np.isfinite(Sig).all(axis=(2, 3))
    w[finite] = np.linalg.eigvalsh(Sig[finite])[:, 0]
    reached = np.isfinite(P).all(axis=(1, 2))
    lam = np.full(M + 1, -np.inf)
    lam[reached] = np.linalg.eigvalsh(P[reached])[:, 0]
    bad = np.concatenate([w < eq.r_min, lam[:M, None] < -TOL_PSD], axis=1)
    if singular is not None:
        bad[singular] = True
    if bad.any():
        j = int(np.flatnonzero(bad.any(axis=1))[-1])
        i = int(np.argmax(bad[j]))
        if i < 4:
            raise SingularSigmaError(eq.t[_SLOPE_STAGE[i], j], w[j, i],
                                     eq.r_min)
        if not reached[j]:
            raise DivergenceError("P diverged", node=j, t=grid.nodes[j])
        raise _psd_error("P", j, grid.nodes[j], lam[j])
    return P


def _p_stages(eq: _PEquation, P):
    """A supplied P at the RK4 stage points, read through its own equation,
    with Sigma^{-1} and S there: the interval coefficients and three
    (3, M, ...) stacks, which every route of ``solve_riccati`` shares."""
    Ps = _hermite_stages(P, lambda ends: eq(ends, slice(None, None, 2))[0],
                         eq.h)
    return (eq.c, Ps) + eq(Ps)[1:]


def _stages_of(model, P, stages):
    """``stages``, or P's stage stacks built from the model."""
    return _p_stages(_PEquation(model), P) if stages is None else stages


@dataclasses.dataclass(frozen=True)
class IterativeInfo:
    iterations: int
    residuals: tuple[float, ...]


def solve_P_iterative(model: LqMfgModel, max_iters: int = DEFAULT_MAX_ITERS,
                      tol: float = DEFAULT_ITER_TOL, *,
                      eq: _PEquation | None = None):
    """Monotone Kleinman iteration for P.

    P_0 is the Kleinman iterate at gain Psi = 0, the plain Lyapunov equation
    with weight Q; each subsequent iterate linearizes the P equation at the
    previous one's gain Psi = Sigma^{-1} S' (``_PEquation.kleinman``).  The
    sequence decreases in the PSD order down to the Riccati solution.
    ``eq`` is the model's ``_PEquation`` when the caller already built it.

    Returns (P, IterativeInfo).  Raises ``UsageError`` unless max_iters >= 1
    and tol is positive and finite, ``MonotonicityError`` if an iterate
    fails to sit below its predecessor by more than TOL_PSD + h^5 max|P|,
    ``ConvergenceError`` if max_iters is exhausted.
    """
    if max_iters < 1 or not 0 < tol < np.inf:
        raise UsageError("solve_P_iterative needs max_iters >= 1 and a "
                         f"finite tol > 0, got {max_iters} and {tol}")
    eq = _PEquation(model) if eq is None else eq
    P_prev, stages = eq.kleinman(np.zeros((3, model.grid.steps, eq.k, eq.n)))

    residuals = []
    for i in range(max_iters):
        _, Sinv, S = eq(stages)   # the previous iterate's stage gains
        P_next, stages = eq.kleinman(Sinv @ _T(S))
        diff = P_prev - P_next
        min_eigs = np.linalg.eigvalsh(diff)[:, 0]
        worst = int(np.argmin(min_eigs))
        # exact iterates keep the order.  Next to T, where two differ
        # little, one RK4 step's O(h^5) local error relative to P can flip
        # it: far above TOL_PSD on a coarse grid, far below a divergence
        if min_eigs[worst] < -(TOL_PSD + eq.h ** 5 * np.abs(P_prev).max()):
            raise MonotonicityError(i + 1, worst, min_eigs[worst])
        res = _max_frobenius(P_prev, P_next)
        residuals.append(res)
        P_prev = P_next
        if res < tol:
            return P_next, IterativeInfo(i + 1, tuple(residuals))

    raise ConvergenceError(max_iters, residuals[-1], tol)


def solve_Gamma_direct(model: LqMfgModel, P, *, stages=None) -> np.ndarray:
    """Integrate the mean-field correction Gamma backward from Gamma(T) = 0.

    ``P`` is the node sequence from either P-solver, read at midpoints
    through the P equation; ``stages`` is its ``_p_stages`` when the caller
    already built them.  The equation is of standard Riccati form and goes
    through its linear lift.  No symmetrization is applied: the equation is
    not symmetric in general, and neither is its solution.
    """
    P = np.asarray(P, float)
    terms = _gamma_terms(*_stages_of(model, P, stages))
    return _riccati_lift(model.grid, *terms, np.zeros(P.shape[1:]), "Gamma")[0]


def _gamma_terms(c, Ps, Sinv, S):
    """(F, L, Acl', N) of -dGamma/dt = Gamma L + Acl' Gamma - Gamma N Gamma
    - F along stacked P values, with Sigma^{-1} and S there."""
    Th = _noise(c, Ps, "D", "beta")
    BSinv = c.B @ Sinv
    Acl = c.A - BSinv @ _T(S)
    L = Acl - BSinv @ Th + c.alpha
    N = BSinv @ c.Bt
    F = c.Q - _noise(c, Ps, "C", "beta") + S @ Sinv @ Th - Ps @ c.alpha
    return F, L, _T(Acl), N


def _gamma_rhs(Gam, F, L, Aclt, N):
    return F - Gam @ L - Aclt @ Gam + Gam @ N @ Gam


@dataclasses.dataclass(frozen=True)
class PiTransformReport:
    """Per-node check of the cross-term condition backing the Pi substitution."""

    delta: float
    Pi: np.ndarray                  # (M+1, n, n)
    condition_margins: np.ndarray   # (M+1,) min eigenvalue of the cross term
    psd_margins: np.ndarray         # (M+1,) min eigenvalue of Pi

    @property
    def condition_ok(self) -> bool:
        return bool(self.condition_margins.min() >= -TOL_PSD)

    @property
    def violated_nodes(self) -> np.ndarray:
        return np.nonzero(self.condition_margins < -TOL_PSD)[0]


def solve_Gamma_via_Pi(model: LqMfgModel, P, *, stages=None):
    """Gamma through the substitution Pi = P + Gamma.

    Requires alpha = delta*I for a scalar delta and beta = beta0 = 0 (the
    structure that makes the Pi equation symmetric); raises ``UsageError``
    otherwise.  Integrates Pi backward from Pi(T) = G through its linear lift
    with symmetrization and a PSD guard, whose minimum eigenvalue per node
    the report keeps, and evaluates the cross-term condition
    -C'PD Sigma^{-1} D0'PC0 - C0'PD0 Sigma^{-1} D'PC >= 0 at every node,
    recording the margin per node (a violation is reported, not fatal).
    ``stages`` is the ``_p_stages`` of P when the caller already built them.

    Returns (Gamma, PiTransformReport).
    """
    P = np.asarray(P, float)
    grid = model.grid
    alpha = model.alpha
    delta = float(alpha[0, 0, 0])
    if np.abs(alpha - delta * np.eye(model.n)).max() > PRECONDITION_ATOL:
        raise UsageError("Pi substitution requires alpha = delta * identity "
                         "with one scalar delta at every node")
    if np.abs(model.beta).max() > PRECONDITION_ATOL or \
       np.abs(model.beta0).max() > PRECONDITION_ATOL:
        raise UsageError("Pi substitution requires beta = beta0 = 0")

    # the cross term, the one place that reads P through each channel apart
    c = _Coeffs(model)
    Sinv = _sigma_inv(c.R + _gain_forms(c, P)[0], model.r_min, grid.nodes)
    cross = (-c.Ct @ (P @ c.D) @ (Sinv @ (c.D0t @ P) @ c.C0)
             - c.C0t @ (P @ c.D0) @ (Sinv @ (c.Dt @ P) @ c.C))
    margins = np.linalg.eigvalsh(_sym(cross))[:, 0]

    # -dPi/dt = Pi L + L'Pi + M - Pi B Sigma^{-1} B' Pi with
    # L = A - B Sigma^{-1} DPC + (delta/2) I, M = C'PC + C0'PC0
    # - DPC' Sigma^{-1} DPC and DPC = D'PC + D0'PC0
    c, Ps, Sinv, _ = _stages_of(model, P, stages)
    DPC = _noise(c, Ps, "D", "C")
    L = c.A - c.B @ Sinv @ DPC + 0.5 * delta * np.eye(model.n)
    Mterm = _noise(c, Ps, "C", "C") - _T(DPC) @ Sinv @ DPC
    Pi, psd_margins = _riccati_lift(grid, -Mterm, L, _T(L), c.B @ Sinv @ c.Bt,
                                    _sym(model.G), "Pi", psd=True)
    report = PiTransformReport(delta=delta, Pi=Pi, condition_margins=margins,
                               psd_margins=psd_margins)
    return Pi - P, report


def solve_Phi(model: LqMfgModel, P, Gamma, *, stages=None) -> np.ndarray:
    """Integrate the affine offset Phi backward from Phi(T) = 0.

    Linear in Phi once P and Gamma are known; each is read at interval
    midpoints through its own equation (``stages`` is the ``_p_stages`` of
    P when the caller already built them).  Returns an (M+1, n) array.
    """
    c, Ps, Sinv, S = _stages_of(model, np.asarray(P, float), stages)
    ends = _gamma_terms(c, Ps[::2], Sinv[::2], S[::2])
    Gs = _hermite_stages(Gamma, lambda G: _gamma_rhs(G, *ends), model.grid.h)
    W = (S + Gs @ c.B) @ Sinv
    # -dPhi/dt = lam Phi + forcing
    lam = c.At - W @ c.Bt
    forcing = (_noise(c, Ps, "C", "sigma") - W @ _noise(c, Ps, "D", "sigma")
               + (Ps + Gs) @ c.b)[..., 0]
    return _rk4_linear(model.grid, -lam, -forcing, np.zeros(model.n), "Phi")


def sigma_sequence(model: LqMfgModel, P) -> np.ndarray:
    """Sigma(t_j) = R + D'PD + D0'PD0 at every node, shape (M+1, k, k)."""
    c = _Coeffs(model)
    return c.R + _gain_forms(c, np.asarray(P, float))[0]


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

    K_z = -Sigma^{-1} S' with S = PB + C'PD + C0'PD0,
    K_m = -Sigma^{-1}(B'Gamma + D'P beta + D0'P beta0),
    c_u = -Sigma^{-1}(B'Phi + D'P sigma + D0'P sigma0).
    """
    c, P = _Coeffs(model), sol.P
    Sinv = _sigma_inv(sol.Sigma, model.r_min, model.grid.nodes)
    K_z = -(Sinv @ _T(_gain_forms(c, P)[1]))
    K_m = -(Sinv @ (c.Bt @ sol.Gamma + _noise(c, P, "D", "beta")))
    c_u = -(Sinv @ (c.Bt @ sol.Phi[..., None]
                    + _noise(c, P, "D", "sigma")))[..., 0]
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
    iterative_residuals: tuple[float, ...] | None = None
    pi_report: PiTransformReport | None = None
    pi_error: str | None = None
    sigma_margins: np.ndarray | None = None  # (M+1,) lambda_min(Sigma) - r_min
    p_psd_margins: np.ndarray | None = None  # (M+1,) lambda_min(P)


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
    One ``_PEquation`` and one set of P stage stacks serve every route.
    """
    if p_method not in ("direct", "iterative", "both"):
        raise UsageError(f"unknown p_method '{p_method}'")
    if gamma_method not in ("direct", "pi_transform", "both"):
        raise UsageError(f"unknown gamma_method '{gamma_method}'")

    eq = _PEquation(model)
    p_agreement = info = None
    if p_method == "direct":
        P = solve_P_direct(model, eq=eq)
    elif p_method == "iterative":
        P, info = solve_P_iterative(model, max_iters=max_iters, tol=tol, eq=eq)
    else:
        P = solve_P_direct(model, eq=eq)
        P_it, info = solve_P_iterative(model, max_iters=max_iters, tol=tol,
                                       eq=eq)
        p_agreement = _max_frobenius(P, P_it)

    stages = _p_stages(eq, P)
    gamma_agreement = pi_report = pi_error = None
    if gamma_method == "pi_transform":
        Gamma, pi_report = solve_Gamma_via_Pi(model, P, stages=stages)
    else:
        Gamma = solve_Gamma_direct(model, P, stages=stages)
    if gamma_method == "both":
        try:
            Gamma_pi, pi_report = solve_Gamma_via_Pi(model, P, stages=stages)
        except UsageError as exc:
            pi_error = str(exc)
        else:
            gamma_agreement = _max_frobenius(Gamma, Gamma_pi)

    Phi = solve_Phi(model, P, Gamma, stages=stages)
    Sigma = sigma_sequence(model, P)
    sol = RiccatiSolution(grid=model.grid, P=P, Gamma=Gamma, Phi=Phi, Sigma=Sigma)
    law = build_feedback(model, sol)
    return SolveSummary(
        solution=sol, feedback=law, p_method=p_method, gamma_method=gamma_method,
        p_agreement=p_agreement, gamma_agreement=gamma_agreement,
        iterative_iterations=None if info is None else info.iterations,
        iterative_residuals=None if info is None else info.residuals,
        pi_report=pi_report, pi_error=pi_error,
        sigma_margins=np.linalg.eigvalsh(Sigma)[:, 0] - model.r_min,
        p_psd_margins=np.linalg.eigvalsh(P)[:, 0])
