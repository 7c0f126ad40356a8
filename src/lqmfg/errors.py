"""Exception types shared by the solver and simulation modules.

Every type survives a pickle round trip with its attributes and message, so
an error raised in a worker process reaches the caller unchanged.  Types
whose constructor does not take the message define ``__reduce__``.
"""


class LqmfgError(Exception):
    """Base class for every error raised by this package."""


class StructureError(LqmfgError):
    """Inconsistent shapes/grids or non-finite entries in model data."""


class ValidationError(LqmfgError):
    """A model failed one or more validation checks."""

    def __init__(self, report):
        self.report = report
        super().__init__("model validation failed\n" + report.summary())

    def __reduce__(self):
        return (type(self), (self.report,))


class UsageError(LqmfgError):
    """Bad arguments or a violated operation precondition."""


class SingularSigmaError(LqmfgError):
    """Control weighting Sigma(t) dropped below the r_min floor."""

    def __init__(self, t, min_eig, r_min):
        self.t = float(t)
        self.min_eig = float(min_eig)
        self.r_min = float(r_min)
        super().__init__(
            f"Sigma(t) not invertible at t={self.t:.6g}: "
            f"min eigenvalue {self.min_eig:.3e} < r_min {self.r_min:.3e}"
        )

    def __reduce__(self):
        return (type(self), (self.t, self.min_eig, self.r_min))


class DivergenceError(LqmfgError):
    """An integrator produced non-finite values or lost required definiteness."""

    def __init__(self, message, node=None, t=None, detail=None):
        self.node = node
        self.t = t
        self.detail = detail
        where = ""
        if node is not None:
            where = f" at node {node}"
            if t is not None:
                where += f" (t={t:.6g})"
        extra = f": {detail}" if detail is not None else ""
        super().__init__(message + where + extra)


class ConvergenceError(LqmfgError):
    """Iterative solver hit its iteration cap before meeting the tolerance."""

    def __init__(self, iterations, residual, tol):
        self.iterations = iterations
        self.residual = float(residual)
        self.tol = float(tol)
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"residual {self.residual:.3e} > tol {self.tol:.3e}"
        )

    def __reduce__(self):
        return (type(self), (self.iterations, self.residual, self.tol))


class MonotonicityError(LqmfgError):
    """The iterative scheme violated its decreasing-PSD-order guarantee."""

    def __init__(self, iteration, node, min_eig):
        self.iteration = iteration
        self.node = node
        self.min_eig = float(min_eig)
        super().__init__(
            f"iterate {iteration} not below its predecessor at node {node}: "
            f"min eigenvalue of difference {self.min_eig:.3e}"
        )

    def __reduce__(self):
        return (type(self), (self.iteration, self.node, self.min_eig))
