"""One measured run of the lqmfg CLI in a fresh interpreter.

    python3 child.py warm
    python3 child.py cli   SCENARIO OUTDIR
    python3 child.py trace SCENARIO OUTDIR SPANS

``warm`` imports the package once, so that byte-code compilation and cold
file caches are not charged to the first measured run.

``cli`` times set-up (importing lqmfg, loading the scenario, building the
model, validating it) and then ``lqmfg.cli.main`` on the scenario, and
prints one JSON line: exit code, setup_s, wall_s, cpu_s (this process plus
the pool workers it reaped) and peak_rss_mb (the larger of this process's
and its largest worker's peak resident set).

``trace`` wraps the package functions that ``lqmfg.cli.main`` reaches
(scenario loading, model building and validation, the Riccati routes, E[m],
the population experiments, the io writers) in spans, then calls
``lqmfg.cli.main`` unchanged.  Spans are kept in memory and written to
SPANS as JSON when the run ends.  After main returns, the wrappers are
removed and two probes run that main cannot isolate: noise-stream
generation alone, and the population experiment again with one worker
(for the pool speed-up).

The package is imported from the PYTHONPATH set by run.py.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import sys
import time

_T0 = time.perf_counter()


def _self_peak_kb() -> int:
    # ru_maxrss of this process keeps the high-water mark of the address
    # space it was spawned from (run.py's), while VmHWM starts afresh at
    # exec; use VmHWM where the kernel provides it.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rusage():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(_self_peak_kb(), kids.ru_maxrss)


def run_cli(scenario: str, outdir: str) -> dict:
    import lqmfg
    from lqmfg.cli import main

    config = lqmfg.load_scenario(scenario)
    model = config.model.build(config.solver.steps)
    if not lqmfg.validate(model).all_passed:
        raise SystemExit(f"scenario {scenario} does not validate")
    setup_s = time.perf_counter() - _T0

    cpu0, _ = _rusage()
    t0 = time.perf_counter()
    code = main(["--config", scenario, "--out", outdir, "--quiet"])
    wall_s = time.perf_counter() - t0
    cpu1, maxrss_kb = _rusage()
    return {"exit_code": code, "setup_s": setup_s, "wall_s": wall_s,
            "cpu_s": cpu1 - cpu0, "peak_rss_mb": maxrss_kb / 1024.0}


class Tracer:
    """In-memory spans (name, start, end, parent) and counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None,
                           "parent": self._stack[-1] if self._stack else None})
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def run_traced(scenario: str, outdir: str, spans_path: str) -> dict:
    """``lqmfg.cli.main`` unchanged, with spans around the layer functions.

    Each wrapped function is replaced on the module that looks it up at
    call time (``cli`` for the layer entry points, ``riccati`` for the
    routes inside ``solve_riccati``, ``population`` for its E[m] call), so
    the traced run does exactly the work of an untraced one.
    """
    from lqmfg import cli, population, riccati
    from lqmfg.meanfield import derive_seed, gaussian_increments
    from lqmfg.scenario import ModelBlock

    tr = Tracer()
    seen: dict = {}
    originals = []

    def wrap(owner, attr, name, after=None):
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tr.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        setattr(owner, attr, traced)
        return fn

    def steps(model):
        return model.grid.steps

    def rk4(result, model, *_, **__):
        tr.count("riccati.rk4_steps", steps(model))

    def iterative(result, model, *_, **__):
        iterations = result[1].iterations
        # the plain Lyapunov start plus one solve per iterate
        tr.count("riccati.rk4_steps", steps(model) * (iterations + 1))
        tr.count("riccati.P_iterations", iterations)

    def written(result, path, *_, **__):
        tr.count("io.files_written")
        tr.count("io.bytes_written", os.path.getsize(path))

    def experiment(agent_steps):
        def after(result, *args, **kwargs):
            tr.count("population.agent_steps", agent_steps(*args))
            seen["experiment_args"] = (args, kwargs)
        return after

    wrap(cli, "run", "cli.run")
    wrap(cli, "load_scenario", "scenario.load",
         lambda config, *_: seen.setdefault("config", config))
    wrap(ModelBlock, "build", "model.validate")
    wrap(cli, "validate", "model.validate")
    wrap(cli, "wellposedness_diagnostic", "model.validate")
    wrap(cli, "solve_riccati", "riccati.solve")
    wrap(riccati, "solve_P_direct", "riccati.P_direct", rk4)
    wrap(riccati, "solve_P_iterative", "riccati.P_iterative", iterative)
    wrap(riccati, "solve_Gamma_direct", "riccati.Gamma_direct", rk4)
    wrap(riccati, "solve_Gamma_via_Pi", "riccati.Gamma_pi", rk4)
    wrap(riccati, "solve_Phi", "riccati.Phi", rk4)
    wrap(riccati, "sigma_sequence", "riccati.feedback")
    wrap(riccati, "build_feedback", "riccati.feedback")
    wrap(cli, "integrate_Em", "meanfield.Em")
    wrap(population, "integrate_Em", "meanfield.Em")
    experiments = (
        ("simulate", "simulate_population", "population.simulate",
         lambda model, law, Em, N, *_: N * steps(model)),
        ("rate_state", "rate_experiment_state", "population.ladder",
         lambda model, law, Ns, S, *_: sum(Ns) * S * steps(model)),
    )
    runners = {kind: wrap(cli, attr, name, experiment(agent_steps))
               for kind, attr, name, agent_steps in experiments}
    for writer in ("write_riccati_csv", "write_json", "write_meanfield_csv",
                   "write_agent_csv", "write_rate_csv"):
        wrap(cli, writer, "io.write", written)

    with tr.span("cli.main"):
        code = cli.main(["--config", scenario, "--out", outdir, "--quiet"])
    for owner, attr, fn in originals:
        setattr(owner, attr, fn)
    if code != 0:
        return {"exit_code": code}

    # Probes on the inputs main used: one sample's noise streams at the
    # largest N, and the population experiment again with one worker.
    exp = seen["config"].experiment
    if exp.kind != "solve":
        args, kwargs = seen["experiment_args"]
        model = args[0]
        N = max(exp.Ns) if exp.Ns else exp.N
        stream_seed = derive_seed(exp.seed, N, 0)
        with tr.span("meanfield.noise"):
            for stream in range(N + 1):
                gaussian_increments(model.grid, stream_seed, stream)
        tr.count("meanfield.noise_streams", N + 1)
    if exp.kind == "rate_state":
        with tr.span("population.serial"):
            runners[exp.kind](*args, **dict(kwargs, workers=1))
    tr.dump(spans_path)
    return {"exit_code": 0}


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "warm":
        import lqmfg.cli  # noqa: F401
        result = {"exit_code": 0}
    elif mode == "cli":
        result = run_cli(*args)
    elif mode == "trace":
        result = run_traced(*args)
    else:
        raise SystemExit(f"unknown mode '{mode}'")
    print(json.dumps(result))
