"""lqmfg benchmark: the CLI end to end on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``; no
install is needed.  Each measured operation is one ``lqmfg.cli.main`` run in
a fresh interpreter (``child.py``), repeated while one more can end within
``--seconds`` (at least three times).  With ``--trace 0`` the last stdout
line reports the end-to-end metrics as medians over the runs; with
``--trace 1`` untraced runs alternate with traced ones and the per-layer
metrics are reported.

Every run's outputs are checked apart from the program (``checks.py``), and
every run of one invocation must produce the same artifact digests,
manifest excepted.  Scratch files go to ``perfbench/_runs/`` and are removed
at exit.  See README.md for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150.0
# process-pool workers of the ladder experiment
POOL_WORKERS = 2

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("scenario.load_s", "s"), ("model.validate_s", "s"),
    ("riccati.solve_s", "s"), ("riccati.P_direct_s", "s"),
    ("riccati.P_iterative_s", "s"), ("riccati.P_iterations", "count"),
    ("riccati.Gamma_direct_s", "s"), ("riccati.Gamma_pi_s", "s"),
    ("riccati.Phi_s", "s"), ("riccati.feedback_s", "s"),
    ("riccati.rk4_steps_per_s", "1/s"),
    ("meanfield.Em_s", "s"), ("meanfield.noise_streams_per_s", "1/s"),
    ("population.ladder_s", "s"), ("population.agent_steps_per_s", "1/s"),
    ("population.simulate_s", "s"),
    ("population.pool_speedup", "ratio"),
    ("io.write_s", "s"), ("io.files_written", "count"),
    ("io.bytes_written", "B"), ("io.MB_per_s", "MB/s"),
    ("cli.self_s", "s"), ("trace.overhead_s", "s"),
)

_RK4_ROUTES = ("riccati.P_direct", "riccati.P_iterative",
               "riccati.Gamma_direct", "riccati.Gamma_pi", "riccati.Phi")
_POPULATION = ("population.ladder", "population.simulate")


class ChildError(RuntimeError):
    pass


def run_child(args: list, cwd: str) -> dict:
    """Run child.py in a fresh interpreter and return its JSON line.

    The pool size is fixed at POOL_WORKERS whatever the caller's
    environment says.  The child leads a new process group, so on a timeout
    or an interrupt the whole group, pool workers included, is killed and
    reaped.
    """
    env = dict(os.environ, MFG_THREADS=str(POOL_WORKERS))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, CHILD] + args, cwd=cwd,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group has already exited
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildError(f"child {args[0]} timed out") from None
        raise
    if proc.returncode != 0:
        raise ChildError(f"child {args[0]} exited {proc.returncode}: "
                         + err.strip()[-2000:])
    result = json.loads(out.strip().splitlines()[-1])
    if result.get("exit_code") != 0:
        raise ChildError(f"lqmfg exited {result.get('exit_code')}: "
                         + err.strip()[-2000:])
    return result


def digest(outdir: str) -> str:
    """SHA-256 over the artifacts' names and bytes, manifest excepted."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name.endswith("_manifest.json"):
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run; a layer that did not run is 0."""
    spans, counters = trace["spans"], trace["counters"]
    total: dict[str, float] = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
    # the layer spans are the children of cli.main and of cli.run
    cli_spans = {i for i, s in enumerate(spans)
                 if s["name"] in ("cli.main", "cli.run")}
    root_s = total["cli.main"]
    layers_s = sum(s["end"] - s["start"] for s in spans
                   if s["parent"] in cli_spans and s["name"] != "cli.run")

    def rate(count_name, seconds):
        return counters.get(count_name, 0) / seconds if seconds > 0 else 0.0

    rk4_s = sum(total.get(name, 0.0) for name in _RK4_ROUTES)
    pop_s = sum(total.get(name, 0.0) for name in _POPULATION)
    serial_s = total.get("population.serial", 0.0)
    io_s = total.get("io.write", 0.0)
    m = {
        "scenario.load_s": total["scenario.load"],
        "model.validate_s": total["model.validate"],
        "riccati.solve_s": total["riccati.solve"],
        "riccati.P_iterations": counters.get("riccati.P_iterations", 0),
        "riccati.feedback_s": total["riccati.feedback"],
        "riccati.rk4_steps_per_s": rate("riccati.rk4_steps", rk4_s),
        "meanfield.Em_s": total.get("meanfield.Em", 0.0),
        "meanfield.noise_streams_per_s": rate(
            "meanfield.noise_streams", total.get("meanfield.noise", 0.0)),
        "population.agent_steps_per_s": rate("population.agent_steps", pop_s),
        "population.pool_speedup": serial_s / pop_s if serial_s else 0.0,
        "io.write_s": io_s,
        "io.files_written": counters.get("io.files_written", 0),
        "io.bytes_written": counters.get("io.bytes_written", 0),
        "io.MB_per_s": rate("io.bytes_written", io_s) / 1e6,
        "cli.self_s": root_s - layers_s,
        "traced_total_s": root_s,
    }
    for name in _RK4_ROUTES + _POPULATION:
        m[name + "_s"] = total.get(name, 0.0)
    return m


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    scratch = os.path.join(HERE, "_runs")
    rundir = os.path.join(scratch, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        scenario_path, scenario = workloads.write_scenario(
            workload, seed, rundir)
        run_child(["warm"], rundir)
        return _measure(workload, scenario_path, scenario, seconds, traced,
                        rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run is still using it
            pass


def _measure(workload, scenario_path, scenario, seconds, traced, rundir):
    runs, traces, digests, errors = [], [], set(), []
    attempted = failed = 0
    checked_dir = None
    started = time.perf_counter()
    # the longest operation so far: one is started only if it can end
    # within `seconds`, so a run does not overrun by a whole operation
    longest = 0.0
    while (len(runs) < (MIN_TRACED_PAIRS if traced else MIN_RUNS)
           or time.perf_counter() - started + longest <= seconds):
        op_started = time.perf_counter()
        attempted += 1
        outdir = os.path.join(rundir, f"run{attempted}")
        try:
            runs.append(run_child(["cli", scenario_path, outdir], rundir))
        except ChildError as exc:
            # a failed operation counts in `failed`, not against `correct`
            failed += 1
            print(f"RUN FAILED: {exc}", file=sys.stderr)
            if failed > attempted // 2:
                break
            continue
        run_digest = digest(outdir)
        digests.add(run_digest)
        if checked_dir is None:
            checked_dir = outdir
        else:
            shutil.rmtree(outdir)
        if traced:
            tdir = os.path.join(rundir, f"trace{attempted}")
            spans = os.path.join(rundir, f"trace{attempted}.spans.json")
            try:
                run_child(["trace", scenario_path, tdir, spans], rundir)
            except ChildError as exc:
                errors.append(f"traced run: {exc}")
                break
            with open(spans) as fh:
                traces.append(layer_metrics(json.load(fh)))
            if digest(tdir) != run_digest:
                errors.append("the traced run wrote different artifacts")
            shutil.rmtree(tdir)
        longest = max(longest, time.perf_counter() - op_started)

    if checked_dir is not None:
        errors += checks.CHECKS[workload](checked_dir, scenario)
    if len(digests) > 1:
        errors.append(f"{len(digests)} distinct artifact digests over "
                      f"{len(runs)} runs of one seed")
    for line in errors:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    def median(key, rows):
        return statistics.median(r[key] for r in rows) if rows else 0.0

    if traced:
        metrics = {name: (median(name, traces), unit)
                   for name, unit in PER_LAYER
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            median("traced_total_s", traces) - median("wall_s", runs), "s")
    else:
        metrics = {name: (median(name, runs), unit)
                   for name, unit in END_TO_END}
    return {"correct": not errors and bool(runs), "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < (1 << 63):
        parser.error("--seed must be in [0, 2**63)")
    if not os.path.isfile(os.path.join(SRC, "lqmfg", "cli.py")):
        print(f"lqmfg sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except ChildError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>9} {name:<32} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # turn SIGTERM into SystemExit so that children and scratch files are
    # cleaned up on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
