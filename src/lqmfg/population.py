"""Coupled N-agent simulation, convergence-rate ladders, and deviation tests.

Within one Monte-Carlo sample every agent integrates three states on the
shared grid: the centralized state x_i driven by the empirical average
coupling, the filtered state zhat_i the control acts on (agent's own noise
only), and the limiting state zbar_i (both noises, mean-field path m in the
coupling slot).  Costs are accumulated by the trapezoid rule with an exact
terminal term; the centralized cost tracks the empirical average, the
limiting cost tracks m.

Reproducibility: sample s of a size-N experiment derives its own 64-bit seed
from (base seed, N, s); within a sample, stream 0 is the common noise and
stream i is agent i.  Sample results are reduced with exact compensated
summation (math.fsum) in sample-index order, so the outcome is independent
of scheduling.  Empirical averages over agents are computed as sorted sums,
which makes every aggregate exactly invariant under permuting agent labels
together with their streams.

Samples run in blocks: one kernel steps B samples of one population size
at once, where the C rows of a sample share its noise (row 0 the
equilibrium policy, the others deviation candidates of agent 0).  The
ladder, deviation and limiting-problem experiments cut their samples into
the same blocks (``_sample_tasks``): a block holds up to 2**18 // (N M)
samples, so its increments take at most 2 MB (or one sample's worth), and
every sample of a deviation or limiting-problem block carries each
candidate as a row.  The limiting problem is the kernel at N = 1, and a
recorded population is a block of one sample and one row that keeps zhat
and u.  Blocks are the tasks of the process pool, which one driver
(``_sample_stats``) maps for all three experiments.  Every block's
statistics equal those of its samples run one at a time, and a row's those
of its candidate run alone.

Only x couples the agents (through its sorted average), so the kernel steps
only x node by node.  m is built once per block; zhat, the controls, the
per-agent step factors, zbar and every statistic are built a chunk of steps
at a time in whole-array calls, and the rows share all of them but x and
agent 0's control and zbar.  A chunk's arrays take turns in three buffers
allocated once per block.  The chunk length counts the block's samples,
rows and agents (each at the max(n, k)**2 numbers of its step factor), and
a block holds few enough samples that a buffer takes at most 3 * 2**12
numbers, so a block's kernel needs less than 1 MB besides its noise; the
length never reaches the bits.  Coefficients come in one of two forms,
chosen from the model shape: scalar models (n = k = 1) keep no state axis
and multiply, matrix models apply each agent's factor matrix by matmul.  A
noise term whose coefficient is zero at every node is dropped.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import math
import os

import numpy as np

from .errors import DivergenceError, UsageError
from .meanfield import (_check_law, derive_seed, fill_increments,
                        integrate_Em)
from .model import COEFFICIENTS, LqMfgModel
from .riccati import FeedbackLaw

# Noise draws per block of samples: 2 MB of float64 increments.
_BLOCK_ELEMENTS = 2 ** 18
# Kernel chunks: from _CHUNK_MIN to _CHUNK_STEPS steps, and at most
# _CHUNK_ELEMENTS numbers in one chunk buffer of a block (three are live,
# besides the step factors that carry per-agent noise).  Below 3 steps a
# chunk's fixed cost of whole-array calls dominates: a 10-row deviation
# sample at N = 100 took 1.4-3 times as long at 1 or 2 steps as at 3.
_CHUNK_MIN = 3
_CHUNK_STEPS = 8
_CHUNK_ELEMENTS = 3 * 2 ** 12


@dataclasses.dataclass(frozen=True)
class DeviationCandidate:
    """Alternative feedback policy for the deviating agent.

    The candidate control is gain_scale * (K_z zhat) + K_m Em + c_u + offset,
    or identically zero when zero_control is set.  The filtered state zhat
    keeps its equilibrium dynamics; only the applied control changes.
    """

    name: str
    gain_scale: float = 1.0
    offset: float = 0.0
    zero_control: bool = False

    @property
    def is_self(self) -> bool:
        return (not self.zero_control and self.gain_scale == 1.0
                and self.offset == 0.0)


def candidate_family(gain_scales, include_zero, offsets
                     ) -> tuple[DeviationCandidate, ...]:
    """The equilibrium policy, then scaled gains, no control and shifted
    control; a gain scale of 1 or an offset of 0 would repeat the first."""
    family = [DeviationCandidate("self")]
    for theta in gain_scales:
        if theta != 1.0:
            family.append(DeviationCandidate(f"gain_scale_{theta:g}",
                                             gain_scale=theta))
    if include_zero:
        family.append(DeviationCandidate("zero_control", zero_control=True))
    for off in offsets:
        if off != 0.0:
            family.append(DeviationCandidate(f"offset_{off:+g}", offset=off))
    return tuple(family)


def default_candidate_family() -> tuple[DeviationCandidate, ...]:
    """Documented fixed family: scaled gains, no control, shifted control."""
    return candidate_family((0.0, 0.5, 0.8, 1.2, 1.5, 2.0), True, (0.5, -0.5))


# The slots of the state equation, in table order: all but the cost weights.
_STATE_SLOTS = tuple(name for name in COEFFICIENTS if name not in ("Q", "R"))


class _SimPayload:
    """Everything a block needs, precomputed once and shipped to workers.

    ``coeffs`` holds per-node coefficients for row-vector states (matrices
    transposed, columns as vectors).  The feedback ``kz``, ``kmc`` and the
    trapezoid-weighted costs ``qw``, ``rw`` are single arrays.  Every other
    entry is a triple (t0, t1, t2) whose factor for one step is
    t0 + dW_i t1 + dW_0 t2 (None marks an absent term): ``Fz`` and ``ez``
    step zhat, ``F``, ``K``, ``H`` and ``c`` multiply the state, the
    control and the coupling average and force the state, ``Fm`` and ``em``
    step m.
    """

    def __init__(self, model: LqMfgModel, law: FeedbackLaw, Em: np.ndarray):
        _check_law(model, law)
        grid = model.grid
        h = self.h = float(grid.h)
        self.M = int(grid.steps)
        self.n = model.n
        self.k = model.k
        self.agent_size = max(self.n, self.k) ** 2    # one step factor
        self.grid = grid
        self.x0 = np.asarray(model.x0, float)
        self.G = np.asarray(model.G, float)
        self.Em = np.asarray(Em, float)
        if self.Em.shape != (self.M + 1, self.n):
            raise UsageError("Em sequence does not match the grid and state "
                             "dimension")

        def transposed(X):
            return np.ascontiguousarray(X.transpose(0, 2, 1))

        slots = [getattr(model, name) for name in _STATE_SLOTS]
        A, B, alpha, b, C, D, beta, sigma, C0, D0, beta0, sigma0 = slots
        state = [X[:, :, 0].copy() if COEFFICIENTS[name] == "n1"
                 else transposed(X) for name, X in zip(_STATE_SLOTS, slots)]
        eye = np.eye(self.n)

        # Deterministic control pieces: K_m Em + c_u, and the mean control.
        kmc = np.einsum("jkn,jn->jk", law.K_m, self.Em) + law.c_u
        Euv = np.einsum("jkn,jn->jk", law.K_z, self.Em) + kmc

        # Filtered-state step: zhat' = P1 zhat + p0, diffusion Q1 zhat + q0.
        P1 = A + np.einsum("jnk,jkm->jnm", B, law.K_z)
        Q1 = C + np.einsum("jnk,jkm->jnm", D, law.K_z)
        p0 = (np.einsum("jnm,jm->jn", alpha, self.Em)
              + np.einsum("jnk,jk->jn", B, kmc) + b[:, :, 0])
        q0 = (np.einsum("jnm,jm->jn", beta, self.Em)
              + np.einsum("jnk,jk->jn", D, kmc) + sigma[:, :, 0])

        # Mean-field step: m' = (A + alpha) m + BEu, diffusion
        # (C0 + beta0) m + D0Eu.
        BEu = np.einsum("jnk,jk->jn", B, Euv) + b[:, :, 0]
        D0Eu = np.einsum("jnk,jk->jn", D0, Euv) + sigma0[:, :, 0]

        w = np.full(self.M + 1, h)
        w[0] = w[-1] = 0.5 * h
        w = w[:, None, None]
        def terms(t0, t1, t2):
            # a noise term that is zero at every node is dropped, so its
            # factor needs no per-agent array
            return (t0,) + tuple(None if t is None or not t.any() else t
                                 for t in (t1, t2))

        # the state equation's slots by channel (dt, dW_i, dW_0), each
        # ordered (state, control, coupling average, constant)
        drift = [h * X for X in state[:4]]
        drift[0] = eye + drift[0]
        F, K, H, c = (terms(*t) for t in zip(drift, state[4:8], state[8:]))
        self.coeffs = {
            "kz": transposed(law.K_z), "kmc": kmc,
            "qw": w * model.Q, "rw": w * model.R,
            "Fz": terms(eye + h * transposed(P1), transposed(Q1), None),
            "ez": terms(h * p0, q0, None),
            "F": F, "K": K, "H": H, "c": c,
            "Fm": terms(eye + h * transposed(A + alpha), None,
                        transposed(C0 + beta0)),
            "em": terms(h * BEu, None, D0Eu),
        }


@dataclasses.dataclass(frozen=True)
class _BlockStats:
    """Aggregates of a block of samples, without stored paths.

    Arrays are indexed (sample, row[, agent]); row 0 is the equilibrium
    policy, row r >= 1 the r-th candidate played by agent 0.
    """

    xbar_gap: np.ndarray     # (B, C) sup_t |xbar - m|^2
    agent_gaps: np.ndarray   # (B, C, N) sup_t |x_i - zbar_i|^2
    zbar_gap: np.ndarray     # (B, C) sup_t |mean(zbar) - m|^2
    J_central: np.ndarray    # (B, C, N)
    J_limit: np.ndarray      # (B, C, N)


@dataclasses.dataclass(frozen=True)
class PopulationSample:
    """One recorded joint simulation of the N-agent system.

    Each agent's filtered state and control are recorded, the paths that the
    ``simulate`` kind writes; its centralized state x_i and limiting state
    zbar_i are stepped but not stored, and reach the sample only through
    the state average and the two costs.  ``z_hat`` and ``u`` are agent-major
    views of time-major arrays, so ``z_hat[i]`` is agent i's (M+1, n) path.
    """

    N: int
    z_hat: np.ndarray          # (N, M+1, n), a view of a time-major array
    u: np.ndarray              # (N, M+1, k), a view of a time-major array
    state_average: np.ndarray  # (M+1, n)
    m: np.ndarray              # (M+1, n)
    Em: np.ndarray             # (M+1, n)
    J_central: np.ndarray      # (N,)
    J_limit: np.ndarray        # (N,)


def _block_noise(pl: _SimPayload, N: int, seeds):
    """Increments of samples ``seeds`` for the kernel.

    Returns dWi (B, N, M), agent i + 1's stream in row i, and dW0 (B, 1, M),
    the common stream; the kernel reads step j as dWi[..., j].
    """
    buf = np.empty((len(seeds), N + 1, pl.M))
    for b, seed in enumerate(seeds):
        fill_increments(buf[b], pl.h, seed, range(N + 1))
    return buf[:, 1:], buf[:, :1]


def _chunk_steps(N: int, B: int, C: int, d: int) -> int:
    """Steps per kernel chunk for a block of B samples of N agents, each
    with C rows, where one agent's step factor holds d numbers.

    From _CHUNK_MIN to _CHUNK_STEPS, and within those as many as one chunk
    buffer of _CHUNK_ELEMENTS numbers holds.  The length never reaches the
    bits: a step's arithmetic is the same in every chunk.
    """
    return max(_CHUNK_MIN,
               min(_CHUNK_STEPS, _CHUNK_ELEMENTS // (B * C * N * d) - 1))


def _row_arrays(cands, ndim):
    """Gain, offset and zero flag of the candidate rows, shaped to broadcast
    along the first of ``ndim`` trailing axes."""
    shape = (len(cands),) + (1,) * (ndim - 1)
    return (np.array([c.gain_scale for c in cands], float).reshape(shape),
            np.array([c.offset for c in cands], float).reshape(shape),
            np.array([c.zero_control for c in cands], bool).reshape(shape))


def _first_bad(a) -> int:
    """Index along the first axis of the first slot holding a non-finite
    value, or len(a)."""
    ok = np.isfinite(a).reshape(len(a), -1).all(axis=1)
    return len(a) if ok.all() else int(np.argmin(ok))


def _finish(pl, Jc, Jl, gap, sup_x, sup_z):
    """Halve the costs, check them and put samples first: (C, B) -> (B, C)."""
    Jc *= 0.5
    Jl *= 0.5
    if not (np.isfinite(Jc).all() and np.isfinite(Jl).all()
            and np.isfinite(gap).all()):
        raise DivergenceError("population state diverged",
                              node=pl.M, t=pl.grid.nodes[pl.M])
    return _BlockStats(*(np.swapaxes(v, 0, 1) for v in
                         (sup_x[..., 0], gap, sup_z[..., 0], Jc, Jl)))


@np.errstate(over="ignore", invalid="ignore")
def _block_kernel(pl: _SimPayload, dWi, dW0, cands=(), record: bool = False):
    """Step a block of samples; ``record`` needs B = C = 1.

    Returns the block's statistics, and with ``record`` also the
    ``PopulationSample``: then the kernel stores zhat and u, time-major as
    its chunks hold them, and the sorted state average, but not x or zbar.

    Only x couples the agents, through its sorted average, so only x is
    stepped node by node.  m is built once for the block.  Per chunk of
    steps the kernel builds zhat, u and the step factors (F of the state, H
    of the coupling average, E of the control and constant forcing) in
    whole-array calls, then zbar, which shares them with x, then x, and
    last the chunk's costs and gaps.  zhat, m and the other agents' u and
    zbar are shared by the rows: u and zbar carry one extra agent column per
    candidate row, agent 0 under that row's control.

    Scalar models (n = k = 1) keep no state axis and apply the factors by
    multiplication; matrix models give every state a trailing axis and
    apply each agent's factor matrix (transposed, for row vectors) by one
    batched matmul, so their quadratic forms reduce over that axis.
    """
    M, n = pl.M, pl.n
    B, N = dWi.shape[:2]
    R = len(cands)
    C, W = R + 1, N + R
    L = _chunk_steps(N, B, C, pl.agent_size)
    co = pl.coeffs
    x0, G = pl.x0, pl.G
    # op applies a factor to a state, quad(y, wt, out) is y' wt y per agent
    # (in ``out`` for scalar models) and norm2(e) is |e|^2 (in place for
    # scalar models)
    if n == pl.k == 1:
        vec = kv = mat = ()
        co = {key: (v.reshape(M + 1) if isinstance(v, np.ndarray) else
                    tuple(t if t is None else t.reshape(M + 1) for t in v))
              for key, v in co.items()}
        x0, G = float(x0[0]), float(G[0, 0])
        op = np.multiply

        def quad(y, wt, out):
            np.multiply(y, y, out=out)
            out *= wt
            return out

        def norm2(e):
            e *= e
            return e
    else:
        vec, kv, mat = (n,), (pl.k,), (n, n)

        def op(y, f, out=None):
            if out is not None:
                out = out[..., None, :]
            return np.matmul(y[..., None, :], f, out=out)[..., 0, :]

        def quad(y, wt, out):
            return (op(y, wt) * y).sum(axis=-1)

        def norm2(e):
            return (e * e).sum(axis=-1)

    def node(a, j0, j1, axes=2):
        """Coefficients of nodes j0..j1-1, broadcasting against arrays with
        ``axes`` agent axes after the node axis."""
        a = a[j0:j1]
        return a.reshape(a.shape[:1] + (1,) * axes + a.shape[1:])

    def factor(key, j0, j1, dwi, dw0, out=None):
        """t0 + dwi t1 + dw0 t2 for the steps j0..j1-1, in ``out[:j1 - j0]``
        if given, else in a new array that broadcasts against it."""
        t0, t1, t2 = co[key]
        lift = (1,) * (t0.ndim - 1)
        f = node(t0, j0, j1)
        if t2 is not None:
            f = f + dw0.reshape(dw0.shape + lift) * node(t2, j0, j1)
        if out is not None:
            out = out[:j1 - j0]
        if t1 is None:
            if out is None:
                return f
            out[...] = f
            return out
        np.multiply(dwi.reshape(dwi.shape + lift), node(t1, j0, j1), out=out)
        out += f
        return out

    def rows(v, out, copy=False):
        """(k, B, W, ...) -> (k, C, B, N, ...): row r >= 1 reads agent 0
        from column N + r - 1.  Without candidate rows this is a view of v,
        unless ``copy``; else it is written to ``out``."""
        if not (R or copy):
            return v[:, None]
        out = out[:len(v)]
        out[:] = v[:, None, :, :N]
        if R:
            out[:, 1:, :, 0] = v[:, :, N:].swapaxes(1, 2)
        return out

    # m, once for the block
    d0 = dW0.transpose(2, 0, 1)                      # (M, B, 1)
    m = np.empty((M + 1, B, 1) + vec)
    m[0] = x0
    for j0 in range(0, M, L):
        j1 = min(M, j0 + L)
        fm = factor("Fm", j0, j1, None, d0[j0:j1])
        em = factor("em", j0, j1, None, d0[j0:j1])
        for i, j in enumerate(range(j0, j1)):
            op(m[j], fm[i], out=m[j + 1])
            m[j + 1] += em[i]
    bad = _first_bad(m)

    if R:
        gain, offset, zero = _row_arrays(cands, 1 + len(kv))
    # Chunk memory: three arenas that each chunk's arrays take in turn
    # (noted at each use), the factors with per-agent noise terms, and the
    # forcing of x when rows differ in it.
    size = (L + 1) * B * max(C * N, W) * max(n, pl.k)
    a, b, c = (np.empty(size) for _ in range(3))
    fbuf = {key: np.empty((L, B, N if key == "Fz" else W)
                          + (kv + vec if key == "K" else mat))
            for key in ("Fz", "F", "H", "K") if co[key][1] is not None}
    Ex = np.empty((L, C, B, N) + vec) if R else None
    xm = np.empty((L + 1, C, B, 1) + vec)

    def view(arena, *shape):
        return arena[:math.prod(shape)].reshape(shape)

    # each chunk starts from the last node of the one before
    zh_last = np.full((B, N) + vec, x0)
    zb_last = np.full((B, W) + vec, x0)
    x_last = np.full((C, B, N) + vec, x0)
    Jc = np.zeros((C, B, N))        # the state costs
    Jl = np.zeros((B, W))
    RU = np.zeros((B, W))           # the control cost, shared by both
    gap = np.zeros((C, B, N))
    sup_x = np.zeros((C, B, 1))
    sup_z = np.zeros((C, B, 1))
    if record:
        rec_zh = np.empty((M + 1, N) + vec)
        rec_u = np.empty((M + 1, N) + kv)
        rec_xbar = np.empty((M + 1,) + vec)

    for j0 in range(0, M, L):
        j1 = min(M, j0 + L)
        steps = j1 - j0
        last = j1 == M
        k = steps + last          # the nodes whose statistics this chunk adds
        # the chunk's noise, time-major (arena a)
        dw = view(a, steps, B, W)
        dw[..., :N] = dWi[..., j0:j1].transpose(2, 0, 1)
        dw[..., N:] = dw[..., :1]
        d0c = d0[j0:j1]

        # zhat (arena c), then every agent's control (arena b)
        Fz = factor("Fz", j0, j1, dw[..., :N], None, fbuf.get("Fz"))
        ez = factor("ez", j0, j1, dw[..., :N], None,
                    view(b, steps, B, N, *vec))
        zh = view(c, steps + 1, B, N, *vec)
        zh[0] = zh_last
        for i in range(steps):
            op(zh[i], Fz[i], out=zh[i + 1])
            zh[i + 1] += ez[i]
        zh_last[...] = zh[steps]
        zh_bad = steps + 1 if np.isfinite(zh_last).all() else _first_bad(zh)
        u = view(b, steps + 1, B, W, *kv)
        kz, kmc = node(co["kz"], j0, j1 + 1), node(co["kmc"], j0, j1 + 1)
        op(zh, kz, out=u[:, :, :N])
        u[:, :, :N] += kmc
        if R:
            u[:, :, N:] = np.where(
                zero, 0.0, gain * op(zh[:, :, :1], kz) + kmc + offset)
        if record:
            rec_zh[j0:j0 + k] = zh[:k, 0]
            rec_u[j0:j0 + k] = u[:k, 0, :N]
        for t in quad(u[:k], node(co["rw"], j0, j0 + k), view(c, k, B, W)):
            RU += t

        # the step factors that zbar and x share: E (arena c), then zbar
        # (arena b) from its forcing (arena a)
        F = factor("F", j0, j1, dw, d0c, fbuf.get("F"))
        H = factor("H", j0, j1, dw, d0c, fbuf.get("H"))
        E = factor("c", j0, j1, dw, d0c, view(c, steps, B, W, *vec))
        K = factor("K", j0, j1, dw, d0c, fbuf.get("K"))
        E += op(u[:steps], K, out=None if kv else u[:steps])
        mc = m[j0:j1 + 1]
        Gz = np.add(E, op(mc[:steps], H), out=view(a, steps, B, W, *vec))
        zb = view(b, steps + 1, B, W, *vec)
        zb[0] = zb_last
        for i in range(steps):
            op(zb[i], F[i], out=zb[i + 1])
            zb[i + 1] += Gz[i]
        zb_last[...] = zb[steps]

        # x (arena a), node by node: its sorted average couples the agents
        Exc = rows(E, Ex)
        Fx, Hx = F[:, :, :N], H[:, :, :N]
        x = view(a, steps + 1, C, B, N, *vec)
        x[0] = x_last
        for i in range(k):
            np.sort(x[i], axis=2).sum(axis=2, keepdims=True, out=xm[i])
            xm[i] /= N
            if i < steps:
                op(x[i], Fx[i], out=x[i + 1])
                x[i + 1] += Exc[i]
                x[i + 1] += op(xm[i], Hx[i])
        x_last[...] = x[steps]

        if bad <= j1 or zh_bad <= steps or not (
                np.isfinite(zb_last).all() and np.isfinite(x_last).all()):
            at = min(bad, j0 + min(zh_bad, _first_bad(zb), _first_bad(x)))
            raise DivergenceError("population state diverged", node=at,
                                  t=pl.grid.nodes[at])

        # the chunk's trapezoid costs, added node by node, and its gaps
        # (arena c)
        mk = mc[:k]
        qw = node(co["qw"], j0, j0 + k)
        dz = np.subtract(zb[:k], mk, out=view(c, k, B, W, *vec))
        for t in quad(dz, qw, dz):
            Jl += t
        dx = np.subtract(x[:k], xm[:k], out=view(c, k, C, B, N, *vec))
        for t in quad(dx, node(co["qw"], j0, j0 + k, 3), dx):
            Jc += t
        e = view(c, k, C, B, N, *vec)
        np.subtract(x[:k], rows(zb[:k], e), out=e)
        np.maximum(gap, norm2(e).max(axis=0), out=gap)
        zr = rows(zb[:k], view(c, k, C, B, N, *vec), copy=True)
        zr.sort(axis=3)
        e = zr.sum(axis=3, keepdims=True) / N - mk[:, None]
        np.maximum(sup_z, norm2(e).max(axis=0), out=sup_z)
        e = xm[:k] - mk[:, None]
        np.maximum(sup_x, norm2(e).max(axis=0), out=sup_x)
        if record:
            rec_xbar[j0:j0 + k] = xm[:k, 0, 0, 0]

    Jc += quad(x_last, G, np.empty((C, B, N)))
    Jl += quad(zb_last, G, np.empty((B, W)))
    Jl += RU
    Jc += rows(RU[None], np.empty((1, C, B, N)))[0]
    Jl = rows(Jl[None], np.empty((1, C, B, N)))[0]
    stats = _finish(pl, Jc, Jl, gap, sup_x, sup_z)
    if not record:
        return stats
    sample = PopulationSample(N=N,
                              z_hat=rec_zh.reshape(M + 1, N, n).swapaxes(0, 1),
                              u=rec_u.reshape(M + 1, N, pl.k).swapaxes(0, 1),
                              state_average=rec_xbar.reshape(M + 1, n),
                              m=m[:, 0, 0].reshape(M + 1, n),
                              Em=pl.Em.copy(), J_central=Jc[0, 0],
                              J_limit=Jl[0, 0])
    return stats, sample


def _run_block(pl: _SimPayload, N: int, seeds, cands=()) -> _BlockStats:
    """Stats of samples ``seeds`` of size N, with candidate rows ``cands``."""
    return _block_kernel(pl, *_block_noise(pl, N, seeds), cands)


def simulate_population(model: LqMfgModel, law: FeedbackLaw, Em, N: int,
                        seed: int) -> PopulationSample:
    """Joint simulation of N agents, recording each agent's zhat and u.

    Stream 0 drives the common noise and the mean-field path m; agent i uses
    stream i of the same seed.  The coupling term uses the same-step
    empirical average (explicit scheme), computed as a sorted sum so agent
    relabeling cannot change it.  The run holds its noise and two per-agent
    paths, zhat and u; x and zbar are stepped but not stored, and enter
    only the state average and the costs.  Raises ``UsageError`` if ``law``
    or ``Em`` was solved on another grid than the model's.
    """
    N = int(N)
    if N < 1:
        raise UsageError("population size must be at least 1")
    pl = _SimPayload(model, law, Em)
    _, sample = _block_kernel(pl, *_block_noise(pl, N, (int(seed),)),
                              record=True)
    return sample


# ---------------------------------------------------------------------------
# Process pool

_WORKER = None  # (run, payload) of a pool worker, set by its initializer


def _worker_init(run, payload):
    global _WORKER
    _WORKER = (run, payload)


def _worker_call(task):
    run, payload = _WORKER
    return task[0], run(payload, *task[1:])


def resolve_workers(workers=None) -> int:
    """Worker count: explicit argument, else MFG_THREADS, else CPU count."""
    source = "worker count"
    if workers is None:
        env = os.environ.get("MFG_THREADS", "").strip()
        if env:
            source = "MFG_THREADS"
            try:
                workers = int(env)
            except ValueError:
                raise UsageError(f"MFG_THREADS must be an integer, got "
                                 f"'{env}'") from None
        else:
            workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise UsageError(f"{source} must be at least 1, got {workers}")
    return workers


def map_tasks(run, payload, tasks, workers: int) -> dict:
    """``{key: run(payload, *args)}`` over the tasks ``(key, *args)``.

    More than one worker and task run the tasks in a process pool.  The
    payload reaches the workers through the pool initializer, so forked
    workers share the parent's arrays instead of receiving pickled copies;
    ``run`` is called there with it.  Results are keyed, so the caller fixes
    the reduction order whatever the completion order.  An exception raised
    by a task is raised here, after the pool has shut down.
    """
    # the pool starts all its workers up front: no more than there are tasks
    workers = min(workers, len(tasks))
    if workers <= 1:
        return {t[0]: run(payload, *t[1:]) for t in tasks}
    chunk = max(1, len(tasks) // (workers * 8))
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init,
            initargs=(run, payload)) as ex:
        return dict(ex.map(_worker_call, tasks, chunksize=chunk))


def _sample_tasks(pl: _SimPayload, N: int, S: int, seed: int, cands=()):
    """Blocks of the S samples of size N as tasks keyed (N, first sample).

    A block holds at most max(one sample, _BLOCK_ELEMENTS) increments, and
    few enough samples, with their candidate rows and the payload's agent
    size, that a chunk of _CHUNK_MIN steps fits _CHUNK_ELEMENTS.
    """
    width = (len(cands) + 1) * N * pl.agent_size    # a sample's step
    B = max(1, min(S, _BLOCK_ELEMENTS // (N * pl.M),
                   _CHUNK_ELEMENTS // ((_CHUNK_MIN + 1) * width)))
    return [((N, s0), N, tuple(derive_seed(seed, N, s)
                               for s in range(s0, min(S, s0 + B))), cands)
            for s0 in range(0, S, B)]


def _sample_stats(model: LqMfgModel, law: FeedbackLaw, Ns, S: int,
                  seed: int, rows=(), workers=None) -> dict[int, _BlockStats]:
    """``{N: stats}`` of the S samples of each population size in ``Ns``,
    every sample with the candidate rows ``rows``, stacked along the sample
    axis.  The blocks of every size are the tasks of one pool map."""
    S = int(S)
    if S < 2:
        raise UsageError("need at least 2 samples")
    workers = resolve_workers(workers)
    payload = _SimPayload(model, law, integrate_Em(model, law))
    tasks = {N: _sample_tasks(payload, N, S, seed, rows) for N in Ns}
    stats = map_tasks(_run_block, payload,
                      [t for N in Ns for t in tasks[N]], workers)
    stacked = {}
    for N in Ns:    # popped, so a size's blocks are freed once stacked
        blocks = [stats.pop(t[0]) for t in tasks[N]]
        stacked[N] = _BlockStats(*(
            np.concatenate([getattr(b, f.name) for b in blocks])
            for f in dataclasses.fields(_BlockStats)))
    return stacked


# ---------------------------------------------------------------------------
# Rate experiments

@dataclasses.dataclass(frozen=True)
class RateFitReport:
    """Log-log decay fit of one statistic over a population-size ladder."""

    name: str
    Ns: tuple[int, ...]
    values: tuple[float, ...]
    stderrs: tuple[float, ...]
    slope: float
    intercept: float
    slope_stderr: float
    degenerate: bool
    sample_count: int
    seed: int
    companions: tuple["RateFitReport", ...] = ()


def _mean_se(vals):
    vals = np.asarray(vals, float).tolist()
    S = len(vals)
    mean = math.fsum(vals) / S
    var = math.fsum((v - mean) ** 2 for v in vals) / (S - 1)
    return mean, math.sqrt(var / S)


def _fit_loglog(Ns, values):
    if min(values) <= 0.0:
        nan = float("nan")
        return nan, nan, nan, True
    x = np.log(np.asarray(Ns, float))
    y = np.log(np.asarray(values, float))
    coef, cov = np.polyfit(x, y, 1, cov=True)
    return float(coef[0]), float(coef[1]), float(np.sqrt(cov[0, 0])), False


def _make_report(name, Ns, values, stderrs, S, seed, companions=()):
    slope, intercept, sl_se, degen = _fit_loglog(Ns, values)
    return RateFitReport(name=name, Ns=tuple(Ns), values=tuple(values),
                         stderrs=tuple(stderrs), slope=slope,
                         intercept=intercept, slope_stderr=sl_se,
                         degenerate=degen, sample_count=S, seed=seed,
                         companions=tuple(companions))


def _check_ladder(Ns):
    Ns = tuple(int(N) for N in Ns)
    if len(Ns) < 4:
        raise UsageError("rate experiments need at least 4 population sizes")
    if Ns[0] < 1:
        raise UsageError("population sizes must be positive")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise UsageError("population sizes must be strictly increasing")
    return Ns


def rate_experiments(model: LqMfgModel, law: FeedbackLaw, Ns, S: int,
                     seed: int, workers=None) -> dict[str, RateFitReport]:
    """One ladder pass producing both decay reports.

    Returns {"state": ..., "cost": ...}.  The state report carries two
    companion fits over the same ladder: the worst per-agent gap to the
    limiting state (expected O(1/N)) and the gap of the limiting-state
    average to m (the conditional law of large numbers).
    """
    Ns = _check_ladder(Ns)
    stats = _sample_stats(model, law, Ns, S, seed, workers=workers)

    def fit(name, per_sample, companions=()):
        """Fit of the sample mean of ``per_sample(stats)`` over the ladder."""
        means, ses = zip(*(_mean_se(per_sample(stats[N])) for N in Ns))
        return _make_report(name, Ns, means, ses, int(S), seed, companions)

    def worst_agent(st):
        # the agent whose gap to its limiting state has the largest mean
        gaps = st.agent_gaps[:, 0]                       # (S, N)
        return gaps[:, int(np.argmax(gaps.mean(axis=0)))]

    def cost_gap(st):
        gap = np.abs(st.J_central[:, 0] - st.J_limit[:, 0])
        return [math.fsum(row.tolist()) / len(row) for row in gap]

    companions = (fit("agent_limit_gap", worst_agent),
                  fit("limit_average_gap", lambda st: st.zbar_gap[:, 0]))
    return {"state": fit("state_average_gap", lambda st: st.xbar_gap[:, 0],
                         companions),
            "cost": fit("cost_gap", cost_gap)}


def rate_experiment_state(model, law, Ns, S, seed, workers=None
                          ) -> RateFitReport:
    """Decay of E[sup_t |x^(N) - m|^2] over the ladder; expected slope -1."""
    return rate_experiments(model, law, Ns, S, seed, workers)["state"]


def rate_experiment_cost(model, law, Ns, S, seed, workers=None
                         ) -> RateFitReport:
    """Decay of the per-agent |centralized - limiting| cost gap; slope -1/2."""
    return rate_experiments(model, law, Ns, S, seed, workers)["cost"]


# ---------------------------------------------------------------------------
# Deviation experiment

@dataclasses.dataclass(frozen=True)
class CandidateResult:
    name: str
    mean_cost: float
    cost_stderr: float
    gain: float            # baseline cost minus candidate cost
    gain_stderr: float     # paired, thanks to common random numbers


@dataclasses.dataclass(frozen=True)
class DeviationReport:
    """Cost gains of unilateral deviations by agent 1, all agents else fixed."""

    N: int
    S: int
    seed: int
    baseline_mean_cost: float
    baseline_stderr: float
    results: tuple[CandidateResult, ...]
    max_gain: float


def _candidate_rows(candidates):
    """Kernel rows for ``candidates`` and each candidate's row index.

    Row 0 is the baseline.  A "self" candidate replays it bit for bit, so
    it reads row 0 instead of running again.
    """
    rows = tuple(c for c in candidates if not c.is_self)
    row = itertools.count(1)
    return rows, [0 if c.is_self else next(row) for c in candidates]


def _candidate_fields(J: np.ndarray, cols, candidates) -> dict:
    """The fields a candidate report shares, from (S, C) costs in which
    candidate i reads column cols[i]: sample count, baseline mean and SE,
    paired candidate results and their largest gain (NaN without any)."""
    base_mean, base_se = _mean_se(J[:, 0])
    results = []
    for col, cand in zip(cols, candidates):
        mean, se = _mean_se(J[:, col])
        gain, gain_se = _mean_se(J[:, 0] - J[:, col])
        results.append(CandidateResult(name=cand.name, mean_cost=mean,
                                       cost_stderr=se, gain=gain,
                                       gain_stderr=gain_se))
    return {"S": len(J), "baseline_mean_cost": base_mean,
            "baseline_stderr": base_se, "results": tuple(results),
            "max_gain": max((r.gain for r in results), default=float("nan"))}


def deviation_experiment(model: LqMfgModel, law: FeedbackLaw, N: int, S: int,
                         candidates, seed: int, workers=None
                         ) -> DeviationReport:
    """Common-random-number deviation test.

    Every candidate replays the same sample streams as the baseline, so cost
    differences are paired per sample; a candidate equal to the equilibrium
    policy reproduces the baseline trajectories bit for bit and gains
    exactly zero.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise UsageError("deviation experiment needs at least one candidate")
    N = int(N)
    if N < 1:
        raise UsageError("population size must be at least 1")
    rows, cols = _candidate_rows(candidates)
    stats = _sample_stats(model, law, (N,), S, seed, rows, workers)
    J = stats[N].J_central[:, :, 0]                    # agent 0, (S, C)
    return DeviationReport(N=N, seed=seed,
                           **_candidate_fields(J, cols, candidates))


# ---------------------------------------------------------------------------
# Limiting-problem cost check (decoupled optimality oracle)

def lq_value_prediction(model: LqMfgModel, P) -> float:
    """Optimal value of the limiting control problem when m and Phi vanish.

    In that regime the limiting cost is a plain LQ functional and its optimal
    value is x0' P(0) x0 / 2 plus half the time integral of
    sigma' P sigma + sigma0' P sigma0 (trapezoid on the grid nodes).  The
    caller is responsible for using a model whose mean-field path and affine
    offset are identically zero (e.g. x0 = 0, b = 0, alpha = 0 and no
    sigma-to-Phi forcing); otherwise the formula omits real terms.
    """
    P = np.asarray(P, float)
    grid = model.grid
    w = np.full(grid.node_count, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    sg = model.sigma[:, :, 0]
    sg0 = model.sigma0[:, :, 0]
    trace = np.einsum("jn,jnm,jm->j", sg, P, sg) \
        + np.einsum("jn,jnm,jm->j", sg0, P, sg0)
    x0 = np.asarray(model.x0, float)
    return float(0.5 * x0 @ P[0] @ x0 + 0.5 * (w * trace).sum())


@dataclasses.dataclass(frozen=True)
class LimitCostReport:
    """Monte-Carlo cost of the decentralized policy in the limiting problem."""

    S: int
    seed: int
    baseline_mean_cost: float
    baseline_stderr: float
    results: tuple[CandidateResult, ...]
    max_gain: float


def limit_problem_experiment(model: LqMfgModel, law: FeedbackLaw, S: int,
                             seed: int, candidates=()) -> LimitCostReport:
    """Costs of the policy (and optional deviations) in the limiting problem.

    Sample s is the population kernel at N = 1 on streams 0 (common) and 1
    (individual) of derive_seed(seed, 1, s); its limiting cost involves no
    population coupling.  Candidates are rows of the same samples, so they
    share streams with the baseline (common random numbers).
    """
    candidates = tuple(candidates)
    rows, cols = _candidate_rows(candidates)
    J = _sample_stats(model, law, (1,), S, seed, rows)[1].J_limit[:, :, 0]
    return LimitCostReport(seed=seed,
                           **_candidate_fields(J, cols, candidates))
