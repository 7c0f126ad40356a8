"""Mean-field limit paths and filtered decentralized states.

Integrates, on the shared time grid:

* ``integrate_Em`` — the deterministic mean E[m(t)] (forward Euler),
* ``integrate_m`` — one realization of the conditional mean m(t) driven by
  the common noise (Euler-Maruyama),
* ``integrate_z_hat`` — one agent's filtered state zhat_i(t) driven by that
  agent's own noise, with the decentralized control recorded at every node.

The last two are single-path oracles: each reads one stream's increments as
an (M,) array, the row ``gaussian_increments(grid, seed, stream)`` returns,
and the caller chooses the stream.  Stream 0 is the common noise W0, stream
i >= 1 is agent i's W_i.  Increments are a pure function of
(seed, stream id): a counter-based Philox generator is keyed with the
128-bit value (seed << 64) + stream, and standard normals are drawn through
numpy's ziggurat transform, which is fixed for a given numpy release line.
Distinct streams are independent by construction of the keyed counter
sequence, so paths may be generated in any order or in parallel without
changing results.  Because a Philox stream is fully determined by its key
and counter, one generator per process is rekeyed for every stream (counter
0, empty output buffer) instead of building a new one; the bits are those of
a freshly keyed generator.  ``numpy.random`` is imported on first use only.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError, UsageError
from .model import LqMfgModel, TimeGrid
from .riccati import FeedbackLaw

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """splitmix64 finalizer; full-period 64-bit mixing."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Deterministically fold integer labels into one 64-bit seed.

    Used to give every Monte-Carlo sample its own base seed from
    (experiment seed, population size, sample index) so that samples are
    independent and the assignment never collides across ladder rungs.
    """
    h = 0x8BADF00D5EEDC0DE
    for p in parts:
        h = _mix64(h ^ (int(p) & _MASK64))
    return h


_PHILOX = None   # (bit generator, Generator, state template), built lazily


def _philox():
    global _PHILOX
    if _PHILOX is None:
        bits = np.random.Philox()
        # plain ints: the state setter converts them faster than numpy's
        state = {"bit_generator": "Philox",
                 "state": {"counter": [0] * 4, "key": [0, 0]},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
                 "uinteger": 0}
        _PHILOX = bits, np.random.Generator(bits), state
    return _PHILOX


def fill_increments(out: np.ndarray, h: float, seed: int,
                    streams) -> np.ndarray:
    """Fill row r of ``out`` with the increments ~ N(0, h) of streams[r].

    Row r equals ``Generator(Philox(key=(seed << 64) + streams[r]))
    .standard_normal(M) * sqrt(h)`` bit for bit; ``out`` is (len(streams),
    M) and C-contiguous.  Returns ``out``.
    """
    if not 0 <= int(seed) <= _MASK64:
        raise UsageError("seed must fit in 64 bits")
    bits, gen, state = _philox()
    key = state["state"]["key"]
    key[1] = int(seed)
    for row, stream in zip(out, streams):
        if not 0 <= stream <= _MASK64:
            raise UsageError("stream id must be a non-negative 64-bit value")
        key[0] = stream
        bits.state = state
        gen.standard_normal(out=row)
    out *= np.sqrt(h)
    return out


def gaussian_increments(grid: TimeGrid, seed: int, stream: int) -> np.ndarray:
    """M Brownian increments ~ N(0, h), bit-reproducible in (seed, stream)."""
    return fill_increments(np.empty((1, grid.steps)), grid.h, seed,
                           (int(stream),))[0]


def _check_law(model: LqMfgModel, law: FeedbackLaw, dW=None):
    if law.grid.steps != model.grid.steps or \
            law.grid.horizon != model.grid.horizon:
        raise UsageError("feedback law grid does not match the model grid")
    if dW is not None and np.shape(dW) != (model.grid.steps,):
        raise UsageError(
            f"increments shape {np.shape(dW)} does not match grid with "
            f"{model.grid.steps} steps")


def _mean_control(law: FeedbackLaw, Em: np.ndarray, j: int) -> np.ndarray:
    # E[u] aggregates both gains because E[zhat_i] = E[m].
    return (law.K_z[j] + law.K_m[j]) @ Em[j] + law.c_u[j]


@np.errstate(over="ignore", invalid="ignore")
def integrate_Em(model: LqMfgModel, law: FeedbackLaw) -> np.ndarray:
    """Forward Euler for dE[m] = {(A + alpha) E[m] + B E[u] + b} dt, from x0."""
    _check_law(model, law)
    M, h = model.grid.steps, model.grid.h
    A, alpha = model.A, model.alpha
    B, b = model.B, model.b
    Em = np.empty((M + 1, model.n))
    Em[0] = model.x0
    for j in range(M):
        Eu = _mean_control(law, Em, j)
        drift = (A[j] + alpha[j]) @ Em[j] + B[j] @ Eu + b[j][:, 0]
        Em[j + 1] = Em[j] + h * drift
        if not np.isfinite(Em[j + 1]).all():
            raise DivergenceError("E[m] diverged", node=j + 1,
                                  t=model.grid.nodes[j + 1])
    return Em


@np.errstate(over="ignore", invalid="ignore")
def integrate_m(model: LqMfgModel, law: FeedbackLaw, Em: np.ndarray,
                dW0: np.ndarray) -> np.ndarray:
    """Euler-Maruyama for the conditional-mean SDE driven by dW0, (M,).

    Drift {(A + alpha) m + B E[u] + b}; diffusion
    {(C0 + beta0) m + D0 E[u] + sigma0} against dW0.  The state average
    enters the common-noise channel through beta0, the coefficient that the
    Riccati system reads there too.
    """
    _check_law(model, law, dW0)
    M, h = model.grid.steps, model.grid.h
    A, alpha = model.A, model.alpha
    B, b = model.B, model.b
    C0, D0, beta0, sigma0 = model.C0, model.D0, model.beta0, model.sigma0
    m = np.empty((M + 1, model.n))
    m[0] = model.x0
    Em = np.asarray(Em, float)
    for j in range(M):
        Eu = _mean_control(law, Em, j)
        drift = (A[j] + alpha[j]) @ m[j] + B[j] @ Eu + b[j][:, 0]
        diff = (C0[j] + beta0[j]) @ m[j] + D0[j] @ Eu + sigma0[j][:, 0]
        m[j + 1] = m[j] + h * drift + dW0[j] * diff
        if not np.isfinite(m[j + 1]).all():
            raise DivergenceError("m diverged", node=j + 1,
                                  t=model.grid.nodes[j + 1])
    return m


@np.errstate(over="ignore", invalid="ignore")
def integrate_z_hat(model: LqMfgModel, law: FeedbackLaw, Em: np.ndarray,
                    dW: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama for one agent's filtered state, control recorded.

    Drift (A + B K_z) zhat + (alpha + B K_m) Em + B c_u + b; diffusion
    (C + D K_z) zhat + (beta + D K_m) Em + D c_u + sigma against the agent's
    own increments dW, (M,).  Returns (zhat, u), (M+1, n) and (M+1, k); u
    satisfies u(t_j) = K_z(t_j) zhat(t_j) + K_m(t_j) Em(t_j) + c_u(t_j) at
    every node.
    """
    _check_law(model, law, dW)
    M, h = model.grid.steps, model.grid.h
    A, B, alpha, b = model.A, model.B, model.alpha, model.b
    C, D, beta, sigma = model.C, model.D, model.beta, model.sigma
    Em = np.asarray(Em, float)
    z = np.empty((M + 1, model.n))
    u = np.empty((M + 1, model.k))
    z[0] = model.x0
    for j in range(M):
        u[j] = law.K_z[j] @ z[j] + law.K_m[j] @ Em[j] + law.c_u[j]
        drift = A[j] @ z[j] + B[j] @ u[j] + alpha[j] @ Em[j] + b[j][:, 0]
        diff = C[j] @ z[j] + D[j] @ u[j] + beta[j] @ Em[j] + sigma[j][:, 0]
        z[j + 1] = z[j] + h * drift + dW[j] * diff
        if not np.isfinite(z[j + 1]).all():
            raise DivergenceError("zhat diverged", node=j + 1,
                                  t=model.grid.nodes[j + 1])
    u[M] = law.K_z[M] @ z[M] + law.K_m[M] @ Em[M] + law.c_u[M]
    return z, u
