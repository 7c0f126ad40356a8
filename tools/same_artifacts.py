"""Check that two source trees write the same artifacts, byte for byte.

    python tools/same_artifacts.py PARENT_ROOT CHANGE_ROOT

Runs a fixed set of scenarios through ``python -m lqmfg.cli ... --quiet``
from each tree's ``src`` (with ``MFG_THREADS=2``) and compares
every artifact.  A manifest is compared without its wall time and without
the output directory of its configuration echo, the two entries that differ
between the trees' runs; the rest of it, the configuration echo included,
must match.  The scenarios are the benchmark workloads' (read from this
repository's ``perfbench/workloads.py``: ``solve`` at seed 501, ``ladder``
at seeds 917 and 3, ``simulate`` at seed 917), the ladder at seed 917 with
kind ``rate_cost`` (the one rate table without companion columns), both
presets, two deviation sweeps on the netsec-numeric model, a netsec-numeric
``simulate`` run whose solver steps override the model's, and one n = k = 2
``simulate`` run whose A and D0 are given node by node (``schedule``), the
only scenario with coefficients that vary in time.  Prints every file that differs or
exists in one tree only; exits 1 if there is one, else 0.

For a differing CSV or JSON artifact whose text and layout agree, it also
prints how far its numbers moved: how many moved, and the largest
|difference| over the largest |value| of either file's numbers, or that only
the sign of a zero changed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
sys.dont_write_bytecode = True      # leave perfbench/ as it is

import workloads  # noqa: E402


def _deviation(N: int, S: int, steps: int) -> dict:
    return {"format_version": 1,
            "model": dict(workloads.NETSEC_NUMERIC, steps=steps),
            "solver": {"p_method": "direct", "gamma_method": "direct"},
            "experiment": {"kind": "deviation", "seed": 917, "N": N, "S": S},
            "output": {"directory": "out", "prefix": "deviation"}}


def _time_varying(steps: int, N: int) -> dict:
    """n = k = 2 with A and D0 modulated by one sine period across the
    grid, each a ``schedule`` of steps + 1 matrices."""
    def wave(base, j):
        scale = 1.0 + 0.5 * math.sin(2.0 * math.pi * j / steps)
        return [[scale * v for v in row] for row in base]

    def schedule(base):
        return {"schedule": [wave(base, j) for j in range(steps + 1)]}

    model = {"n": 2, "k": 2, "T": 1.0, "steps": steps, "x0": [1.0, -0.5],
             "A": schedule([[-0.4, 0.3], [0.1, -0.5]]),
             "B": [[1.0, 0.2], [0.0, 0.8]], "alpha": [[0.2, 0.0], [0.0, 0.2]],
             "b": [0.3, -0.1], "C": [[0.2, 0.0], [0.1, 0.2]],
             "D": [[0.3, 0.0], [0.1, 0.2]], "sigma": [0.4, 0.3],
             "C0": [[0.1, 0.0], [0.0, 0.1]],
             "D0": schedule([[0.3, 0.1], [0.0, 0.4]]), "sigma0": [0.2, 0.3],
             "Q": [[2.0, 0.3], [0.3, 1.0]], "R": [[1.0, 0.1], [0.1, 0.8]],
             "G": [[1.0, 0.0], [0.0, 1.0]]}
    return {"format_version": 1, "model": model,
            "solver": {"p_method": "direct", "gamma_method": "direct"},
            "experiment": {"kind": "simulate", "seed": 917, "N": N},
            "output": {"directory": "out", "prefix": "schedule"}}


def scenarios() -> dict:
    """``{name: scenario dict, or the name of a preset}``."""
    runs = {f"{w}-{seed}": workloads.scenario(w, seed)
            for w, seed in (("solve", 501), ("ladder", 917), ("ladder", 3),
                            ("simulate", 917))}
    runs["rate_cost-917"] = workloads.scenario("ladder", 917)
    runs["rate_cost-917"]["experiment"]["kind"] = "rate_cost"
    runs["override-200"] = {
        "format_version": 1,
        "model": dict(workloads.NETSEC_NUMERIC, steps=1000),
        "solver": {"steps": 200},
        "experiment": {"kind": "simulate", "seed": 917, "N": 5},
        "output": {"directory": "out", "prefix": "override"}}
    runs["deviation-6"] = _deviation(6, 9, 200)
    runs["deviation-120"] = _deviation(120, 6, 300)
    runs["schedule-60"] = _time_varying(60, 5)
    for name in ("netsec-closed-form", "netsec-numeric"):
        runs[name] = name
    return runs


def run_tree(root: str, runs: dict, work: str) -> dict:
    """Run every scenario from ``root``'s src; ``{relative path: bytes}`` of
    the artifacts, each manifest as ``comparable_manifest`` gives it."""
    src = os.path.join(os.path.abspath(root), "src")
    env = dict(os.environ, MFG_THREADS="2", PYTHONPATH=src)
    os.makedirs(work)
    files = {}
    for name, spec in runs.items():
        out = os.path.join(work, name)
        if isinstance(spec, str):
            args = ["--preset", spec]
        else:
            args = ["--config", os.path.join(work, f"{name}.json")]
            with open(args[1], "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
        cmd = [sys.executable, "-m", "lqmfg.cli", *args, "--out", out,
               "--quiet"]
        done = subprocess.run(cmd, cwd=src, env=env, capture_output=True,
                              text=True)
        if done.returncode != 0:
            sys.exit(f"{root}: {name} exited {done.returncode}\n"
                     f"{done.stderr}")
        for entry in sorted(os.listdir(out)):
            with open(os.path.join(out, entry), "rb") as fh:
                data = fh.read()
            if entry.endswith("manifest.json"):
                data = comparable_manifest(data)
            files[f"{name}/{entry}"] = data
    return files


def comparable_manifest(data: bytes) -> bytes:
    """A manifest without its wall time and its output directory, written
    back in the manifest's own layout (``io.write_json``)."""
    manifest = json.loads(data)
    del manifest["wall_time_s"]
    del manifest["config"]["output"]["directory"]
    return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()


_NUMBER = object()   # a number's place in a layout


def _numbers(name: str, data: bytes):
    """(layout, numbers) of a CSV or JSON artifact: the numbers in reading
    order, and everything else with each number's place marked; None for
    another kind of file or one that does not parse."""
    numbers = []

    def walk(v):
        if isinstance(v, dict):
            return {key: walk(x) for key, x in v.items()}
        if isinstance(v, list):
            return [walk(x) for x in v]
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            numbers.append(float(v))
            return _NUMBER
        return v

    def cell(text):
        try:
            numbers.append(float(text))
        except ValueError:
            return text
        return _NUMBER

    try:
        text = data.decode("utf-8")
        if name.endswith(".json"):
            return walk(json.loads(text)), numbers
        if name.endswith(".csv"):
            return [[cell(c) for c in line.split(",")]
                    for line in text.splitlines()], numbers
    except ValueError:
        pass
    return None


def _same(x: float, y: float) -> bool:
    """x and y are the same number, the sign of a zero included."""
    return (x == y and math.copysign(1.0, x) == math.copysign(1.0, y)) or (
        math.isnan(x) and math.isnan(y))


def movement(name: str, old: bytes, new: bytes) -> str:
    """How far the numbers of one differing artifact moved, in words."""
    a, b = _numbers(name, old), _numbers(name, new)
    if a is None or b is None or a[0] != b[0]:
        return "text or layout differs"
    pairs = [(x, y) for x, y in zip(a[1], b[1]) if not _same(x, y)]
    if not pairs:
        return "same numbers, different text"
    zeros = sum(x == y for x, y in pairs)
    if zeros == len(pairs):
        return (f"only the sign of a zero changed, in {zeros} of "
                f"{len(a[1])} numbers")
    said = f"{len(pairs)} of {len(a[1])} numbers moved"
    if zeros:
        said += f", {zeros} of them only in the sign of a zero"
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pairs):
        return f"{said}, some to or from a non-finite value"
    scale = max(abs(v) for v in a[1] + b[1] if math.isfinite(v))
    diff = max(abs(x - y) for x, y in pairs)
    return f"{said}, max |diff| / max |value| = {diff / scale:.2e}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    runs = scenarios()
    with tempfile.TemporaryDirectory() as work:
        parent, change = (run_tree(root, runs, os.path.join(work, tag))
                          for tag, root in zip(("parent", "change"), argv))
        differ = sorted(name for name in parent.keys() | change.keys()
                        if parent.get(name) != change.get(name))
    for name in differ:
        if name in parent and name in change:
            print(f"differs: {name}: "
                  f"{movement(name, parent[name], change[name])}")
        else:
            print(f"differs: {name}: in one tree only")
    print(f"{len(parent.keys() | change.keys())} artifacts compared, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
