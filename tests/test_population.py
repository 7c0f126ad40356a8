"""Finite-population simulator, rate fits, and deviation experiments."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import lqmfg
from lqmfg import (DeviationCandidate, DivergenceError, LqMfgModel, TimeGrid,
                   UsageError, default_candidate_family, derive_seed,
                   deviation_experiment, gaussian_increments, integrate_Em,
                   integrate_m, integrate_z_hat, limit_problem_experiment,
                   lq_value_prediction, rate_experiment_state,
                   rate_experiments, resolve_workers, simulate_population)
from lqmfg.population import (_BLOCK_ELEMENTS, _agent_paths, _block_kernel,
                              _block_noise, _check_ladder, _chunk_steps,
                              _filtered, _fit_loglog, _run_block,
                              _sample_tasks, _SimPayload)
from lqmfg.riccati import FeedbackLaw, solve_riccati
from lqmfg.scenario import preset


def closed_form(steps):
    cfg = preset("netsec-closed-form")
    model = cfg.model.build(steps)
    law = solve_riccati(model).feedback
    return model, law, integrate_Em(model, law)


def payload(steps):
    model, law, Em = closed_form(steps)
    return _SimPayload(model, law, Em)


def matrix_model(steps):
    """A coupled n = 3, k = 2 model with every coefficient nonzero."""
    rng = np.random.default_rng(17)

    def u(shape):
        return rng.uniform(-1.0, 1.0, shape)

    Mq, Mg, Mr = u((3, 3)), u((3, 3)), u((2, 2))
    model = LqMfgModel.from_constants(
        TimeGrid(1.0, steps), A=u((3, 3)), B=u((3, 2)), alpha=u((3, 3)),
        b=u((3, 1)), C=u((3, 3)), D=u((3, 2)), beta=u((3, 3)),
        sigma=u((3, 1)), C0=u((3, 3)), D0=u((3, 2)), beta0=u((3, 3)),
        sigma0=u((3, 1)), Q=Mq.T @ Mq, R=np.eye(2) + Mr.T @ Mr,
        G=Mg.T @ Mg, x0=[1.0, 0.5, -0.5])
    law = solve_riccati(model).feedback
    return model, law, integrate_Em(model, law)


def netsec_model(steps, dim):
    """The netsec-numeric preset, or for dim > 1 its diagonal embedding
    (every coefficient c becomes c I, and x0, b, sigma, sigma0 repeat),
    with its law and Em."""
    base = preset("netsec-numeric").model.build(steps)
    if dim == 1:
        model = base
    else:
        eye = np.eye(dim)

        def c(name):
            return float(getattr(base, name)[0, 0, 0])

        model = LqMfgModel.from_constants(
            base.grid, x0=np.repeat(base.x0, dim), G=base.G[0, 0] * eye,
            r_min=base.r_min,
            **{name: c(name) * eye for name in
               ("A", "B", "alpha", "C", "D", "beta", "C0", "D0", "beta0",
                "Q", "R")},
            **{name: np.full((dim, 1), c(name)) for name in
               ("b", "sigma", "sigma0")})
    law = solve_riccati(model).feedback
    return model, law, integrate_Em(model, law)


def netsec_numeric(steps, dim):
    """The payload of ``netsec_model(steps, dim)``."""
    return _SimPayload(*netsec_model(steps, dim))


KERNEL_MODELS = {"scalar": closed_form, "matrix": matrix_model}


def state_oracle(model, u, dW, dW0, m=None):
    """States of agents i with controls u[i] and own increments dW[i], common
    increments dW0, stepped
    from the model's own coefficient matrices: the limiting states when the
    mean-field path m is given, else the centralized states coupled to
    their plain average."""
    c = {name: getattr(model, name)
         for name in ("A", "B", "alpha", "b", "C", "D", "beta", "sigma",
                      "C0", "D0", "beta0", "sigma0")}
    x = np.empty(u.shape[:2] + (model.n,))
    x[:, 0] = model.x0
    for j in range(model.grid.steps):
        avg = x[:, j].mean(axis=0) if m is None else m[j]

        def lin(a, d, b, s0):
            return (x[:, j] @ c[a][j].T + u[:, j] @ c[d][j].T
                    + c[b][j] @ avg + c[s0][j][:, 0])
        x[:, j + 1] = (x[:, j] + model.grid.h * lin("A", "B", "alpha", "b")
                       + dW[:, j, None] * lin("C", "D", "beta", "sigma")
                       + dW0[j] * lin("C0", "D0", "beta0", "sigma0"))
    return x


def oracle_paths(model, law, Em, N, seed):
    """m, zhat and u of sample ``seed`` from the meanfield.integrate_*
    oracles, and its agents' centralized states x and limiting states
    z_bar from state_oracle, on the streams the kernel reads."""
    dW0 = gaussian_increments(model.grid, seed, 0)
    m = integrate_m(model, law, Em, dW0)
    dW = np.array([gaussian_increments(model.grid, seed, i + 1)
                   for i in range(N)])
    paths = [integrate_z_hat(model, law, Em, row) for row in dW]
    z_hat = np.array([z for z, _ in paths])
    u = np.array([u for _, u in paths])
    return {"m": m, "z_hat": z_hat, "u": u,
            "z_bar": state_oracle(model, u, dW, dW0, m),
            "x": state_oracle(model, u, dW, dW0)}


def oracle_costs(model, states, target, u):
    """Halved trapezoid costs of the agents' (N, M+1, n) ``states`` tracking
    the (M+1, n) ``target`` under controls ``u``, with the terminal term."""
    grid = model.grid
    w = np.full(grid.node_count, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    e = states - target
    run = (np.einsum("j,ijn,jnm,ijm->i", w, e, model.Q, e)
           + np.einsum("j,ijk,jkl,ijl->i", w, u, model.R, u))
    end = np.einsum("in,nm,im->i", states[:, -1], model.G, states[:, -1])
    return 0.5 * (run + end)


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------- samples

def test_single_agent_population_degenerates_cleanly():
    # one agent is its own average: the state average is that agent's
    # centralized state, and its centralized cost tracks nothing but itself
    model, law, Em = closed_form(50)
    sample = simulate_population(model, law, Em, N=1, seed=4)
    assert sample.N == 1
    o = oracle_paths(model, law, Em, 1, 4)
    close(sample.state_average, o["x"][0])
    assert sample.J_central.shape == (1,) and sample.J_limit.shape == (1,)
    assert np.isfinite(sample.J_central).all()
    close(sample.J_central, oracle_costs(model, o["x"], o["x"][0], o["u"]))


def test_state_average_is_sorted_mean_of_agents():
    model, law, Em = closed_form(40)
    sample = simulate_population(model, law, Em, N=7, seed=12)
    close(sample.state_average,
          oracle_paths(model, law, Em, 7, 12)["x"].mean(axis=0))
    # sorting makes the aggregate exactly invariant under agent relabeling:
    # the agents' streams permuted, every agent keeps its bits and the
    # average keeps its own
    pl = _SimPayload(model, law, Em)
    dWi, dW0 = _block_noise(pl, 7, (12,))
    perm = np.random.default_rng(0).permutation(7)
    stats, _, state_average = _block_kernel(pl, dWi[:, perm], dW0,
                                            record=True)
    np.testing.assert_array_equal(state_average, sample.state_average)
    permuted = (*_agent_paths(pl, dWi[0, perm]), stats.J_central[0, 0],
                stats.J_limit[0, 0])
    for got, want in zip(permuted, (*sample.agent_paths(), sample.J_central,
                                    sample.J_limit)):
        np.testing.assert_array_equal(got, want[perm])


def test_costs_nonnegative_and_reproducible():
    model, law, Em = closed_form(60)
    a = simulate_population(model, law, Em, N=5, seed=77)
    b = simulate_population(model, law, Em, N=5, seed=77)
    assert (a.J_central >= 0.0).all() and (a.J_limit >= 0.0).all()
    for field in ("state_average", "J_central"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    for x, y in zip(a.agent_paths(), b.agent_paths()):
        np.testing.assert_array_equal(x, y)


def test_zero_noise_decoupled_population_hits_the_limit():
    # no noise, no coupling: every agent equals its limit trajectory and the
    # two cost functionals coincide
    model = LqMfgModel.from_constants(TimeGrid(1.0, 80), A=0.4, B=1.0,
                                      Q=1.0, R=1.0, G=0.5, x0=[1.0])
    law = solve_riccati(model).feedback
    Em = integrate_Em(model, law)
    pl = _SimPayload(model, law, Em)
    stats, m, state_average = _block_kernel(pl, *_block_noise(pl, 4, (9,)),
                                            record=True)
    # agent_gaps is sup_t |x_i - zbar_i|^2
    assert np.sqrt(np.max(stats.agent_gaps)) < 1e-12
    assert np.max(np.abs(stats.J_central - stats.J_limit)) < 1e-12
    assert np.max(np.abs(state_average - m)) < 1e-12


STAT_FIELDS = ("xbar_gap", "agent_gaps", "zbar_gap", "J_central", "J_limit")


def test_diagonal_embedding_doubles_every_statistic():
    # the scalar (float multiply) and matrix (matmul) coefficient forms on
    # one model: its n = k = 2 diagonal embedding runs two identical copies
    # of the scalar state, so every cost and gap doubles
    scalar, embedded = netsec_numeric(100, 1), netsec_numeric(100, 2)
    rows = default_candidate_family()[1:]
    for N in (1, 3, 16):
        seeds = [derive_seed(5, N, s) for s in range(3)]
        one = _run_block(scalar, N, seeds, rows)
        two = _run_block(embedded, N, seeds, rows)
        assert one.J_central.shape == (3, len(rows) + 1, N)
        for field in STAT_FIELDS:
            np.testing.assert_allclose(getattr(two, field),
                                       2.0 * getattr(one, field),
                                       rtol=1e-12, atol=1e-12)


def test_splitting_a_rung_into_blocks_keeps_bits(monkeypatch):
    # with and without the default candidate rows: the ladder, deviation
    # and limiting-problem experiments all group samples into blocks, and
    # the chunk length follows the block's samples and rows, so no chunk
    # length may change a bit either (scalar and matrix forms)
    import lqmfg.population as population
    N, S = 5, 6
    seeds = [derive_seed(8, N, s) for s in range(S)]
    for pl in (payload(60), netsec_numeric(60, 2)):
        for rows in ((), default_candidate_family()[1:]):
            whole = _run_block(pl, N, seeds, rows)
            for size in (1, 3):
                parts = [_run_block(pl, N, seeds[i:i + size], rows)
                         for i in range(0, S, size)]
                for field in STAT_FIELDS:
                    np.testing.assert_array_equal(
                        np.concatenate([getattr(p, field) for p in parts]),
                        getattr(whole, field))
            for L in (1, 4, 60):
                monkeypatch.setattr(population, "_chunk_steps",
                                    lambda *_, L=L: L)
                chunked = _run_block(pl, N, seeds, rows)
                monkeypatch.undo()
                for field in STAT_FIELDS:
                    np.testing.assert_array_equal(getattr(chunked, field),
                                                  getattr(whole, field))


@pytest.mark.parametrize("form", KERNEL_MODELS)
def test_block_kernel_matches_single_path_integrators(form):
    # the recorded block (one sample) and its agents' paths against the
    # independent meanfield.integrate_* oracles and state_oracle on the same
    # streams, on a grid whose last kernel chunk is a short one; x and
    # zbar, which the kernel steps but does not record, through the state
    # average, the costs and the gaps
    steps = 110
    model, law, Em = KERNEL_MODELS[form](steps)
    pl = _SimPayload(model, law, Em)
    for N in (4, 1):
        assert steps % _chunk_steps(N, 1, 1, pl.agent_size) != 0
        seed = derive_seed(3, N, 0)
        stats, m_got, xbar_got = _block_kernel(
            pl, *_block_noise(pl, N, (seed,)), record=True)
        z_hat, u_got = simulate_population(model, law, Em, N,
                                           seed).agent_paths()
        o = oracle_paths(model, law, Em, N, seed)
        x, zb, m, u = o["x"], o["z_bar"], o["m"], o["u"]
        xbar = x.mean(axis=0)
        for got, want in (
                (m_got, m),
                (z_hat, o["z_hat"]),
                (u_got, u),
                (xbar_got, xbar),
                (stats.J_central[0, 0], oracle_costs(model, x, xbar, u)),
                (stats.J_limit[0, 0], oracle_costs(model, zb, m, u)),
                (stats.agent_gaps[0, 0],
                 (((x - zb) ** 2).sum(axis=2)).max(axis=1)),
                (stats.zbar_gap[0, 0],
                 (((zb.mean(axis=0) - m) ** 2).sum(axis=1)).max())):
            close(got, want)


def test_population_rejects_bad_arguments():
    model, law, Em = closed_form(20)
    with pytest.raises(UsageError):
        simulate_population(model, law, Em, N=0, seed=1)
    with pytest.raises(UsageError):
        _SimPayload(model, law, Em[:-1])  # Em on the wrong grid
    # a law and its Em solved with the same steps on another horizon
    longer = dataclasses.replace(preset("netsec-closed-form").model,
                                 horizon=2.0).build(20)
    other = solve_riccati(longer).feedback
    with pytest.raises(UsageError, match="grid does not match"):
        simulate_population(model, other, integrate_Em(longer, other),
                            N=2, seed=1)


def test_deviation_rejects_an_empty_population():
    model, law, _ = closed_form(20)
    with pytest.raises(UsageError, match="population size"):
        deviation_experiment(model, law, 0, 4, default_candidate_family(), 1)


def test_population_cost_overflow_is_diagnosed(monkeypatch):
    # the states stay at x0 = 10, but the terminal cost overflows
    grid = TimeGrid(1.0, 10)
    model = LqMfgModel.from_constants(grid, A=0.0, B=1.0, Q=1.0, R=1.0,
                                      G=1e308, x0=10.0)
    law = FeedbackLaw(grid=grid, K_z=np.zeros((11, 1, 1)),
                      K_m=np.zeros((11, 1, 1)), c_u=np.zeros((11, 1)))
    Em = integrate_Em(model, law)
    # in the caller, and in a pool worker
    for threads in ("1", "2"):
        monkeypatch.setenv("MFG_THREADS", threads)
        with pytest.raises(DivergenceError) as err:
            simulate_population(model, law, Em, N=2, seed=1)
        assert err.value.node == 10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("form", KERNEL_MODELS)
def test_exploding_feedback_is_diagnosed(monkeypatch, form):
    # the kernel names the first node where a state is non-finite; with a
    # huge gain zhat overflows first, at the node the oracles name too, in
    # the caller or in a pool worker
    model, law, Em = KERNEL_MODELS[form](100)
    for gain in (1e155, 1e30):
        huge = FeedbackLaw(grid=law.grid, K_z=np.full_like(law.K_z, gain),
                           K_m=np.zeros_like(law.K_m),
                           c_u=np.zeros_like(law.c_u))
        integrate_m(model, huge, Em, gaussian_increments(model.grid, 2, 0))
        nodes = []
        for i in range(3):
            with pytest.raises(DivergenceError) as oracle:
                integrate_z_hat(model, huge, Em,
                                gaussian_increments(model.grid, 2, i + 1))
            nodes.append(oracle.value.node)
        for threads in ("1", "2"):
            monkeypatch.setenv("MFG_THREADS", threads)
            with pytest.raises(DivergenceError) as err:
                simulate_population(model, huge, Em, N=3, seed=2)
            assert err.value.node == min(nodes) < model.grid.steps


# ---------------------------------------------------------------- rate fit

def test_loglog_fit_recovers_synthetic_power_law():
    Ns = (25, 50, 100, 200)
    values = [3.1 * N ** -0.87 for N in Ns]
    slope, intercept, stderr, degenerate = _fit_loglog(Ns, values)
    assert not degenerate
    assert slope == pytest.approx(-0.87, abs=1e-10)
    assert intercept == pytest.approx(math.log(3.1), abs=1e-10)
    assert stderr < 1e-8


def test_loglog_fit_flags_degenerate_input():
    slope, _, _, degenerate = _fit_loglog((2, 4, 8, 16), [1.0, 0.5, 0.0, 0.2])
    assert degenerate and math.isnan(slope)


def test_ladder_validation():
    for bad in ((), (10,), (10, 20, 30), (10, 20, 20, 40), (10, 20, 15, 40),
                (0, 10, 20, 40)):
        with pytest.raises(UsageError):
            _check_ladder(bad)
    _check_ladder((2, 4, 8, 16))  # fine


def test_rate_experiments_share_one_pass_and_report_companions():
    model, law, Em = closed_form(50)
    out = rate_experiments(model, law, (2, 4, 8, 16), S=6, seed=3)
    state, cost = out["state"], out["cost"]
    assert state.name == "state_average_gap"
    assert cost.name == "cost_gap"
    assert state.sample_count == 6 and state.Ns == (2, 4, 8, 16)
    names = [c.name for c in state.companions]
    assert names == ["agent_limit_gap", "limit_average_gap"]
    assert all(len(c.values) == 4 for c in state.companions)
    # the wrapper returns the same numbers as the combined pass
    solo = rate_experiment_state(model, law, (2, 4, 8, 16), S=6, seed=3)
    assert solo.values == state.values
    assert solo.slope == state.slope


def test_rate_experiment_rejects_tiny_sample_count():
    model, law, Em = closed_form(20)
    with pytest.raises(UsageError):
        rate_experiments(model, law, (2, 4, 8, 16), S=1, seed=3)


def test_ladder_block_memory_stays_within_its_noise_and_one_megabyte():
    # the first block of 2**18 increments' worth of samples at the ladder
    # benchmark's grid, as a ladder block (full-size) and as a deviation
    # block with the default family's rows, in the scalar form and on the
    # n = k = 3 embedding, whose step factors are 3 x 3 per agent: the
    # kernel's chunk buffers must add at most 1 MB to the block's noise
    M = 125
    gaussian_increments(TimeGrid(1.0, 1), 1, 0)   # imports numpy.random
    ladder = (payload(M), ())
    family = default_candidate_family()[1:]
    deviation = (netsec_numeric(M, 1), family)
    embedded = netsec_numeric(M, 3)
    for (pl, rows), N in ([(ladder, N) for N in (25, 100, 800)]
                          + [(deviation, N) for N in (25, 100, 400)]
                          + [((embedded, ()), N) for N in (25, 100)]
                          + [((embedded, family), N) for N in (25, 100)]):
        task = _sample_tasks(pl, N, _BLOCK_ELEMENTS // (N * M), 1, rows)[0]
        _, _, seeds, _ = task
        assert rows or len(seeds) > 1
        noise = len(seeds) * (N + 1) * M * 8
        tracemalloc.start()
        try:
            _run_block(pl, N, seeds, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= noise + 2 ** 20, (N, peak - noise)


def test_recorded_population_and_an_agent_task_hold_no_more_than_theirs(
        tmp_path):
    # one recorded block of the simulate benchmark's size, in the scalar
    # form and on the n = k = 2 embedding: besides its noise it may hold at
    # most 1 MB, so no per-agent path; and one of the CLI's agent-range
    # tasks at that size (N = 400 over 8 ranges) may hold its range's
    # noise, zhat and u paths and at most 1 MB more
    from lqmfg.cli import _agent_ranges, _write_agents
    N, M = 400, 500
    seed = derive_seed(1, N, 0)
    gaussian_increments(TimeGrid(1.0, 1), 1, 0)   # imports numpy.random
    for dim in (1, 2):
        model, law, Em = netsec_model(M, dim)
        pl = _SimPayload(model, law, Em)
        noise = (N + 1) * M * 8
        tracemalloc.start()
        try:
            _block_kernel(pl, *_block_noise(pl, N, (seed,)), record=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= noise + 2 ** 20, (dim, peak - noise)

        sample = simulate_population(model, law, Em, N, seed)
        ranges = _agent_ranges(N, 2)
        assert len(ranges) == 8
        _, start, stop = ranges[0]
        A = stop - start
        own = A * M * 8 + A * (M + 1) * (pl.n + pl.k) * 8
        paths = [str(tmp_path / f"agent_{i}.csv") for i in range(N)]
        tracemalloc.start()
        try:
            _write_agents((paths, model.grid, sample), start, stop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= own + 2 ** 20, (dim, peak - own)


@pytest.mark.parametrize("dim", (1, 2))
def test_agent_ranges_give_the_kernels_paths_bit_for_bit(monkeypatch, dim):
    # the kernel's own zhat and u, caught as it steps the whole population,
    # against every split of [0, N) into ranges of 1, 3 and N agents, each
    # integrated from its agents' streams, in the scalar form and on the
    # n = k = 2 embedding, on a grid whose last chunk is a short one
    import lqmfg.population as population
    N, M = 7, 110
    model, law, Em = netsec_model(M, dim)
    pl = _SimPayload(model, law, Em)
    assert all(M % _chunk_steps(A, 1, 1, pl.agent_size) for A in (1, 3, N))
    zh = np.empty((M + 1, N, dim))
    u = np.empty((M + 1, N, dim))

    def caught(pl, j0, dw, z, v, *buffers):
        _filtered(pl, j0, dw, z, v, *buffers)
        zh[j0:j0 + len(z)] = z[:, 0].reshape(-1, N, dim)
        u[j0:j0 + len(v)] = v[:, 0].reshape(-1, N, dim)

    monkeypatch.setattr(population, "_filtered", caught)
    # one worker, so the kernel steps, and is caught, in this process
    monkeypatch.setenv("MFG_THREADS", "1")
    sample = simulate_population(model, law, Em, N, derive_seed(4, N, 0))
    monkeypatch.undo()
    for size in (1, 3, N):
        parts = [sample.agent_paths(i, min(N, i + size))
                 for i in range(0, N, size)]
        for got, want in zip(zip(*parts), (zh, u)):
            np.testing.assert_array_equal(np.concatenate(got),
                                          want.swapaxes(0, 1))
    with pytest.raises(UsageError):
        sample.agent_paths(3, N + 1)


def test_parallel_workers_bitwise_match_serial():
    model, law, Em = closed_form(50)
    serial = rate_experiments(model, law, (2, 4, 8, 16), S=4, seed=9,
                              workers=1)
    pooled = rate_experiments(model, law, (2, 4, 8, 16), S=4, seed=9,
                              workers=2)
    assert serial["state"].values == pooled["state"].values
    assert serial["cost"].values == pooled["cost"].values
    assert serial["state"].stderrs == pooled["state"].stderrs


def test_resolve_workers_sources(monkeypatch):
    assert resolve_workers(3) == 3
    with pytest.raises(UsageError):
        resolve_workers(0)
    monkeypatch.setenv("MFG_THREADS", "2")
    assert resolve_workers() == 2
    monkeypatch.setenv("MFG_THREADS", "many")
    with pytest.raises(UsageError):
        resolve_workers()
    monkeypatch.delenv("MFG_THREADS")
    assert resolve_workers() >= 1


def test_process_pool_is_capped_at_the_task_count(monkeypatch, tmp_path):
    # the pool starts all max_workers processes up front; a stand-in pool
    # records the size asked for and runs the tasks serially in-process
    import concurrent.futures
    import json
    import lqmfg.population as population
    from lqmfg.cli import main
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(population, "_WORKER", None)
    pl = payload(20)
    tasks = [((4, s), 4, (derive_seed(5, 4, s),), ()) for s in range(3)]
    run = population._run_block
    pooled = population.map_tasks(run, pl, tasks, workers=8)
    assert sizes == [3]
    serial = population.map_tasks(run, pl, tasks, workers=1)
    assert sizes == [3] and pooled.keys() == serial.keys()
    for key in serial:
        for field in STAT_FIELDS:
            np.testing.assert_array_equal(getattr(pooled[key], field),
                                          getattr(serial[key], field))
    # more than one worker pools even a single task
    population.map_tasks(run, pl, tasks[:1], workers=8)
    assert sizes == [3, 1]

    # the simulate kind runs its kernel as one pool task, then writes its
    # agent files through the same pool, in about four ranges per worker
    d = preset("netsec-numeric").to_dict()
    d["model"]["steps"] = 20
    config = tmp_path / "sim.json"
    for N, threads, pools in ((2, 3, [1, 2]), (7, 2, [1, 2]), (9, 3, [1, 3]),
                              (1, 3, [1, 1]), (5, 1, [])):
        sizes.clear()
        d["experiment"]["N"] = N
        d["output"] = {"directory": str(tmp_path / f"{N}-{threads}"),
                       "prefix": "sim"}
        config.write_text(json.dumps(d))
        monkeypatch.setenv("MFG_THREADS", str(threads))
        assert main(["--config", str(config), "--quiet"]) == 0
        assert sizes == pools
        assert len(list((tmp_path / f"{N}-{threads}").iterdir())) == N + 5


# --------------------------------------------------------------- deviation

def test_default_family_composition():
    family = default_candidate_family()
    assert family[0].is_self
    names = [c.name for c in family]
    assert "zero_control" in names
    assert len(names) == len(set(names))
    assert len(family) >= 8


def test_self_candidate_gain_is_exactly_zero():
    model, law, Em = closed_form(60)
    report = deviation_experiment(model, law, N=6, S=4,
                                  candidates=default_candidate_family(),
                                  seed=21)
    self_result = report.candidates[0]
    assert self_result.name == "self"
    assert self_result.gain == 0.0
    assert self_result.gain_stderr == 0.0
    assert self_result.mean_cost == report.baseline_mean_cost


def test_deviation_runs_no_self_replays(monkeypatch):
    # "self" candidates reuse the baseline's stats: the queued tasks hold
    # each of the S samples once, with the baseline and the other
    # candidates as its rows, S x (1 + non-self candidates) rows in all;
    # the same for the limiting problem
    import lqmfg.population as population
    model, law, Em = closed_form(40)
    family = default_candidate_family()
    non_self = sum(not cand.is_self for cand in family)
    real = population.map_tasks
    S = 3
    for experiment in (lambda: deviation_experiment(model, law, N=4, S=S,
                                                    candidates=family,
                                                    seed=21, workers=1),
                       lambda: limit_problem_experiment(model, law, S=S,
                                                        seed=21,
                                                        candidates=family)):
        queued = []

        def counting(run, payload, tasks, workers):
            queued.extend(tasks)
            return real(run, payload, tasks, workers)

        monkeypatch.setattr(population, "map_tasks", counting)
        report = experiment()
        N = queued[0][1]
        assert [seed for _, _, seeds, _ in queued for seed in seeds] == [
            derive_seed(21, N, s) for s in range(S)]
        assert sum(len(seeds) * (1 + len(rows))
                   for _, _, seeds, rows in queued) == S * (1 + non_self)
        assert report.candidates[0].name == "self"
        assert report.candidates[0].gain == 0.0


@pytest.mark.parametrize("N, dim", [(1, 1), (6, 1), (1, 2), (6, 2)],
                         ids=["1", "6", "1-embedded", "6-embedded"])
def test_self_candidate_replays_baseline_bit_for_bit(N, dim):
    # the property that lets deviation_experiment skip the "self" runs, in
    # the scalar form and the matrix form (the n = k = 2 embedding)
    pl = netsec_numeric(60, dim)
    noise = _block_noise(pl, N, [derive_seed(21, N, 0)])
    stats = _block_kernel(pl, *noise, (DeviationCandidate("self"),))
    for field in STAT_FIELDS:
        rows = getattr(stats, field)[0]
        np.testing.assert_array_equal(rows[1], rows[0])


@pytest.mark.parametrize("dim", [1, 2], ids=["scalar", "embedded"])
def test_candidate_rows_equal_their_one_row_blocks(dim):
    # a row's bits do not depend on the other rows of its block, in the
    # scalar form and the matrix form (the n = k = 2 embedding)
    pl = netsec_numeric(60, dim)
    family = default_candidate_family()
    for N in (1, 5):
        noise = _block_noise(pl, N, [derive_seed(9, N, s) for s in range(2)])
        block = _block_kernel(pl, *noise, family)
        for row, cand in enumerate(family, start=1):
            alone = _block_kernel(pl, *noise, (cand,))
            for field in STAT_FIELDS:
                got, want = getattr(block, field), getattr(alone, field)
                np.testing.assert_array_equal(got[:, [0, row]], want)


def test_deviation_report_reproducible_and_gain_sign():
    model, law, Em = closed_form(60)
    fam = (DeviationCandidate("self"),
           DeviationCandidate("zero_control", zero_control=True))
    a = deviation_experiment(model, law, N=6, S=6, candidates=fam, seed=2)
    b = deviation_experiment(model, law, N=6, S=6, candidates=fam, seed=2)
    assert a.baseline_mean_cost == b.baseline_mean_cost
    assert [r.gain for r in a.candidates] == [r.gain for r in b.candidates]
    # gain is baseline minus candidate: a worse candidate has negative gain
    zero = a.candidates[1]
    assert zero.mean_cost == pytest.approx(a.baseline_mean_cost - zero.gain,
                                           rel=1e-12)


def test_deviation_rejects_empty_family():
    model, law, Em = closed_form(20)
    with pytest.raises(UsageError):
        deviation_experiment(model, law, N=4, S=4, candidates=(), seed=1)


# ------------------------------------------------------- limiting problem

def test_limit_costs_match_single_path_integrators():
    # limiting cost of sample s rebuilt from the meanfield oracles on
    # streams 0 and 1 of derive_seed(seed, 1, s): zbar integrated against
    # m and the recorded control of zhat, trapezoid running cost
    model, law, Em = closed_form(80)
    grid, S = model.grid, 5
    w = np.full(grid.node_count, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    q, r = model.Q[:, 0, 0], model.R[:, 0, 0]
    costs = []
    for s in range(S):
        seed = derive_seed(13, 1, s)
        dW0 = gaussian_increments(grid, seed, 0)
        dW = gaussian_increments(grid, seed, 1)[None]
        m = integrate_m(model, law, Em, dW0)
        u = integrate_z_hat(model, law, Em, dW[0])[1]
        zb = state_oracle(model, u[None], dW, dW0, m)[0, :, 0]
        m, u = m[:, 0], u[:, 0]
        run = (w * (q * (zb - m) ** 2 + r * u ** 2)).sum()
        costs.append(0.5 * (run + model.G[0, 0] * zb[-1] ** 2))
    report = limit_problem_experiment(model, law, S=S, seed=13)
    assert report.baseline_mean_cost == pytest.approx(np.mean(costs),
                                                      rel=1e-12)


def test_limit_experiment_baseline_and_candidates():
    model, law, Em = closed_form(80)
    report = limit_problem_experiment(model, law, S=32, seed=5,
                                      candidates=default_candidate_family())
    assert report.candidates[0].gain == 0.0  # self, common random numbers
    assert report.baseline_stderr > 0.0
    assert report.max_gain == max(r.gain for r in report.candidates)


def test_value_prediction_matches_decoupled_simulation():
    # classical scalar problem: no coupling, no offsets, x0 = 0, so the
    # optimal cost is 0.5 * int P sigma^2 dt exactly
    model = LqMfgModel.from_constants(TimeGrid(1.0, 200), A=0.4, B=1.0,
                                      sigma=0.7, Q=1.2, R=0.8, G=0.9,
                                      x0=[0.0])
    summary = solve_riccati(model)
    law = summary.feedback
    V = lq_value_prediction(model, summary.solution.P)
    assert V > 0.0
    report = limit_problem_experiment(model, law, S=512, seed=7)
    assert abs(report.baseline_mean_cost - V) < 4.0 * report.baseline_stderr
