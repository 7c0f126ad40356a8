"""Data model for linear-quadratic mean-field games with common noise.

A population of exchangeable agents follows

    dx_i = [A x_i + B u_i + alpha x_avg + b] dt
         + [C x_i + D u_i + beta x_avg + sigma] dW_i
         + [C0 x_i + D0 u_i + beta0 x_avg + sigma0] dW0,

where ``x_avg`` is the population state-average, ``W_i`` the agent's own
Brownian motion and ``W0`` a Brownian motion common to all agents.  Each agent
pays a quadratic cost tracking the average, weighted by ``Q``, ``R`` and a
terminal ``G``.  This module holds the coefficient slots and their shapes, the
one rule that turns a value into a slot matrix, the one that turns it into a
slot's per-node array, and the time grid, plus validation and a solvability
diagnostic.  All coefficients are deterministic, piecewise-constant in time on
the grid intervals.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import StructureError

TOL_SYM = 1e-10
TOL_PSD = 1e-10
DEFAULT_R_MIN = 1e-8


@dataclasses.dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with nodes t_j = j*T/M, j = 0..M."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (float(self.horizon) > 0.0 and np.isfinite(self.horizon)):
            raise StructureError(f"horizon must be positive and finite, got {self.horizon}")
        if int(self.steps) < 1 or int(self.steps) != self.steps:
            raise StructureError(f"steps must be a positive integer, got {self.steps}")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def h(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    @property
    def node_count(self) -> int:
        return self.steps + 1


# The coefficient slots of LqMfgModel, in field order, with their shapes:
# n for the state dimension, k for the control dimension, 1 for one column.
COEFFICIENTS = {
    "A": "nn", "B": "nk", "alpha": "nn", "b": "n1",
    "C": "nn", "D": "nk", "beta": "nn", "sigma": "n1",
    "C0": "nn", "D0": "nk", "beta0": "nn", "sigma0": "n1",
    "Q": "nn", "R": "kk",
}


def coefficient_shapes(n: int, k: int) -> dict:
    """Each coefficient slot's (rows, columns) for dimensions n and k."""
    dims = {"n": n, "k": k, "1": 1}
    return {name: (dims[r], dims[c]) for name, (r, c) in COEFFICIENTS.items()}


def as_matrix(value, shape, name) -> np.ndarray:
    """``value`` as a finite float matrix of ``shape``.

    A scalar is valid for 1x1 slots, and 0 for any slot; a vector is one
    column.  Raises ``StructureError`` naming ``name`` otherwise.
    """
    arr = np.asarray(value, dtype=float)
    rows, cols = shape
    if arr.ndim == 0:
        if shape == (1, 1):
            arr = arr.reshape(1, 1)
        elif float(arr) == 0.0:
            arr = np.zeros(shape)
        else:
            raise StructureError(f"{name}: a nonzero scalar is only valid for "
                                 f"1x1 entries; give a {rows}x{cols} matrix")
    elif arr.ndim == 1 and cols == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape != shape:
        raise StructureError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise StructureError(f"{name}: non-finite entry")
    return arr


def _slot_shape(value):
    """(rows, columns) of a constant or an (M+1, r, c) array."""
    arr = np.asarray(value, dtype=float)
    return (arr.shape[0], 1) if arr.ndim == 1 else np.atleast_2d(arr).shape[-2:]


def _schedule(grid, value, shape, name):
    """A slot's read-only (M+1, r, c) float array, from an (M+1, r, c)
    array or a constant (``as_matrix``) repeated at every node.

    The value on [t_j, t_{j+1}) is entry j (left-node, piecewise-constant
    convention) and entry M is the value at the terminal time.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 3:
        mat = as_matrix(arr, shape, name)
        return _frozen(np.repeat(mat[None, :, :], grid.node_count, axis=0))
    if arr.shape[0] != grid.node_count:
        raise StructureError(f"{name}: schedule has {arr.shape[0]} entries, "
                             f"grid has {grid.node_count} nodes")
    if not np.isfinite(arr).all():
        node, *index = (int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise StructureError(f"{name}: non-finite schedule entry at node "
                             f"{node}, index {tuple(index)}")
    return _frozen(arr)


@dataclasses.dataclass(frozen=True)
class LqMfgModel:
    """Immutable coefficient bundle for one game instance.

    Each coefficient slot is a read-only (M+1, r, c) float array, one matrix
    per grid node: state feedthroughs A, C, C0 (n x n), control channels B,
    D, D0 (n x k), mean-field couplings alpha, beta, beta0 (n x n),
    affine/noise intensities b, sigma, sigma0 (n x 1), cost weights Q (n x n)
    and R (k x k).  The constructor, ``from_constants`` and
    ``dataclasses.replace`` alike take a slot as such an array or as a
    constant (``as_matrix``).  G is the constant terminal weight, x0 the
    shared initial state, and r_min the declared lower bound for R (and for
    the control weighting Sigma = R + D'PD + D0'PD0 derived from it).
    """

    grid: TimeGrid
    A: np.ndarray
    B: np.ndarray
    alpha: np.ndarray
    b: np.ndarray
    C: np.ndarray
    D: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    C0: np.ndarray
    D0: np.ndarray
    beta0: np.ndarray
    sigma0: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    G: np.ndarray
    x0: np.ndarray
    r_min: float = DEFAULT_R_MIN

    def __post_init__(self):
        shapes = coefficient_shapes(_slot_shape(self.A)[0],
                                    _slot_shape(self.B)[1])
        for name, shape in shapes.items():
            object.__setattr__(self, name, _schedule(
                self.grid, getattr(self, name), shape, name))
        n, k = self.n, self.k
        object.__setattr__(self, "G", _frozen(as_matrix(self.G, (n, n), "G")))
        object.__setattr__(self, "x0", _frozen(as_matrix(self.x0, (n, 1), "x0")[:, 0]))
        if not (self.r_min > 0.0 and np.isfinite(self.r_min)):
            raise StructureError(f"r_min must be positive and finite, got {self.r_min}")
        for name, shape in shapes.items():
            got = getattr(self, name).shape[1:]
            if got != shape:
                raise StructureError(
                    f"{name}: has shape {got}, expected {shape} "
                    f"(n={n} from A, k={k} from B)"
                )

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def k(self) -> int:
        return self.B.shape[2]

    @classmethod
    def from_constants(cls, grid, *, A, B, Q, R, G, x0, alpha=0.0, b=0.0,
                       C=0.0, D=0.0, beta=0.0, sigma=0.0, C0=0.0, D0=0.0,
                       beta0=0.0, sigma0=0.0, r_min=DEFAULT_R_MIN):
        """Build a model from a constant or an (M+1, r, c) array for each
        slot, every slot but A, B, Q, R defaulting to zero.

        A constant is a matrix, a vector (one column) or a scalar (1x1
        slots, or 0 anywhere).  n is read from the rows of A and k from the
        columns of B.
        """
        given = locals()  # the slot keywords by name, before any other local
        return cls(grid=grid, G=G, x0=x0, r_min=r_min,
                   **{name: given[name] for name in COEFFICIENTS})


def _frozen(arr):
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclasses.dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    node: int | None = None
    value: float | None = None
    threshold: float | None = None

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        msg = f"[{status}] {self.name}"
        if not self.passed:
            if self.node is not None:
                msg += f" at node {self.node}"
            if self.value is not None:
                msg += f": value {self.value:.6e}"
            if self.threshold is not None:
                msg += f" (threshold {self.threshold:.6e})"
        return msg


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        return "\n".join(c.describe() for c in self.checks)


def _worst_asymmetry(X):
    """(max |X - X'| over nodes, node index of the max)."""
    asym = np.abs(X - np.transpose(X, (0, 2, 1))).reshape(len(X), -1).max(axis=1)
    j = int(np.argmax(asym))
    return float(asym[j]), j


def _worst_min_eig(X):
    sym = 0.5 * (X + np.transpose(X, (0, 2, 1)))
    eigs = np.linalg.eigvalsh(sym)[:, 0]
    j = int(np.argmin(eigs))
    return float(eigs[j]), j


def validate(model: LqMfgModel) -> ValidationReport:
    """Check the standing assumptions on the cost weights.

    Structural consistency (shapes, grids, finiteness) is enforced at
    construction time; this reports the numeric conditions: symmetry of Q, R,
    G, positive semidefiniteness of Q and G, and R(t) bounded below by
    r_min * I at every node.  A model is usable by the full pipeline only when
    the report is all-pass, but the checks never raise so that failing models
    can be inspected.
    """
    checks = []

    a, j = _worst_asymmetry(model.Q)
    checks.append(ValidationCheck("Q symmetric", a <= TOL_SYM, j, a, TOL_SYM))
    a, j = _worst_asymmetry(model.R)
    checks.append(ValidationCheck("R symmetric", a <= TOL_SYM, j, a, TOL_SYM))
    ag = float(np.abs(model.G - model.G.T).max())
    checks.append(ValidationCheck("G symmetric", ag <= TOL_SYM, None, ag, TOL_SYM))

    e, j = _worst_min_eig(model.Q)
    checks.append(ValidationCheck("Q positive semidefinite", e >= -TOL_PSD, j, e, -TOL_PSD))
    eg = float(np.linalg.eigvalsh(0.5 * (model.G + model.G.T))[0])
    checks.append(ValidationCheck("G positive semidefinite", eg >= -TOL_PSD, None, eg, -TOL_PSD))

    e, j = _worst_min_eig(model.R)
    checks.append(ValidationCheck(
        f"R bounded below by r_min = {model.r_min:g}", e >= model.r_min, j, e, model.r_min))

    return ValidationReport(tuple(checks))


@dataclasses.dataclass(frozen=True)
class DiagnosticReport:
    """Result of the sufficient solvability inequality (advisory only)."""

    lambda_star: float
    norms: dict
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs < self.rhs


def _sup_opnorm(X):
    return float(np.linalg.norm(X, 2, axis=(1, 2)).max())


def wellposedness_diagnostic(model: LqMfgModel) -> DiagnosticReport:
    """Evaluate the sufficient condition for solvability of the coupled system.

    Computes lambda_star, the largest eigenvalue of (A + A')/2 over all nodes,
    and checks 4*lambda_star < -2|alpha| - 6|C|^2 - 6|C0|^2 - 5|beta|^2
    - 5|beta0|^2 with operator 2-norms taken sup over nodes.  The condition is
    sufficient, not necessary, so a failure is advisory and blocks nothing.
    """
    sym = 0.5 * (model.A + np.transpose(model.A, (0, 2, 1)))
    lambda_star = float(np.linalg.eigvalsh(sym)[:, -1].max())
    norms = {
        "alpha": _sup_opnorm(model.alpha),
        "C": _sup_opnorm(model.C),
        "C0": _sup_opnorm(model.C0),
        "beta": _sup_opnorm(model.beta),
        "beta0": _sup_opnorm(model.beta0),
    }
    lhs = 4.0 * lambda_star
    # products, not ** 2: a float power raises OverflowError past 1e154
    sq = {name: v * v for name, v in norms.items()}
    rhs = (-2.0 * norms["alpha"] - 6.0 * sq["C"] - 6.0 * sq["C0"]
           - 5.0 * sq["beta"] - 5.0 * sq["beta0"])
    return DiagnosticReport(lambda_star=lambda_star, norms=norms, lhs=lhs, rhs=rhs)
