"""Artifact writers: CSV tables and JSON reports, written atomically.

Every writer goes through a temp-file-plus-rename so a crash mid-run never
leaves a truncated artifact behind. Floats are written with shortest
round-trip formatting (``%r``, which is ``repr``), so rerunning with the
same seed reproduces files byte for byte. Each table is filled from one
``%`` line template; a table led by a time grid's nodes takes a template
with the node column already formatted, cached per grid and width, so the
many agent tables of one population format their shared column once.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile

import numpy as np


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _jsonable(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                       default=_jsonable) + "\n")


def _matrix_headers(name: str, rows: int, cols: int) -> list[str]:
    return [f"{name}_{i + 1}_{j + 1}"
            for i in range(rows) for j in range(cols)]


def _vector_headers(name: str, rows: int) -> list[str]:
    return [f"{name}_{i + 1}" for i in range(rows)]


def _csv(headers, blocks, grid=None) -> str:
    """CSV text: ``headers``, then one line per row of ``blocks``.

    ``blocks`` are arrays of one row per line, set side by side; a block's
    trailing axes are flattened row-major, which is the header order of a
    matrix.  With ``grid``, each line starts with that grid's node time.
    """
    values = np.hstack([np.reshape(b, (len(b), -1)) for b in blocks]
                       ).astype(float, copy=False)
    rows, width = values.shape
    if grid is None:
        template = _line(width) * rows
    else:
        template = _node_lines(grid, width)
    return ",".join(headers) + "\n" + template % tuple(values.ravel().tolist())


def _line(width: int) -> str:
    return ",".join(["%r"] * width) + "\n"


@functools.lru_cache(maxsize=8)
def _node_lines(grid, width: int) -> str:
    """The line template of a ``width``-wide table led by ``grid``'s nodes:
    the node column formatted once per grid and width, not once per table."""
    line = _line(width)
    return "".join(f"{t!r},{line}" for t in grid.nodes.tolist())


def write_riccati_csv(path, solution, feedback) -> None:
    """One row per grid node: P, Gamma, Phi, Sigma, and the feedback law."""
    n = solution.P.shape[1]
    k = solution.Sigma.shape[1]
    headers = (["t"] + _matrix_headers("P", n, n)
               + _matrix_headers("Gamma", n, n)
               + _vector_headers("Phi", n)
               + _matrix_headers("Sigma", k, k)
               + _matrix_headers("K_z", k, n)
               + _matrix_headers("K_m", k, n)
               + _vector_headers("c_u", k))
    blocks = [solution.P, solution.Gamma, solution.Phi, solution.Sigma,
              feedback.K_z, feedback.K_m, feedback.c_u]
    atomic_write_text(path, _csv(headers, blocks, solution.grid))


def write_meanfield_csv(path, grid, m, Em) -> None:
    n = m.shape[1]
    headers = ["t"] + _vector_headers("m", n) + _vector_headers("Em", n)
    atomic_write_text(path, _csv(headers, [m, Em], grid))


def write_agent_csv(path, grid, z_hat, u) -> None:
    """One row per grid node: t, zhat, u."""
    n = z_hat.shape[1]
    k = u.shape[1]
    headers = (["t"] + _vector_headers("zhat", n) + _vector_headers("u", k))
    atomic_write_text(path, _csv(headers, [z_hat, u], grid))


def rate_report_dict(report) -> dict:
    """The fit as JSON; a degenerate fit has no slope, intercept or slope
    error, and writes ``null`` for them, which strict parsers accept."""
    degenerate = bool(report.degenerate)
    out = {
        "name": report.name,
        "Ns": list(report.Ns),
        "values": [float(v) for v in report.values],
        "stderrs": [float(v) for v in report.stderrs],
        **{key: None if degenerate else float(getattr(report, key))
           for key in ("slope", "intercept", "slope_stderr")},
        "degenerate": degenerate,
        "sample_count": int(report.sample_count),
        "seed": int(report.seed),
    }
    if report.companions:
        out["companions"] = [rate_report_dict(c) for c in report.companions]
    return out


def write_rate_csv(path, report) -> None:
    headers = ["N", report.name, f"{report.name}_stderr"]
    columns = [np.asarray(report.Ns, float),
               np.asarray(report.values), np.asarray(report.stderrs)]
    for comp in report.companions:
        headers += [comp.name, f"{comp.name}_stderr"]
        columns += [np.asarray(comp.values), np.asarray(comp.stderrs)]
    atomic_write_text(path, _csv(headers, columns))


def deviation_report_dict(report) -> dict:
    return {
        "N": int(report.N),
        "S": int(report.S),
        "seed": int(report.seed),
        "baseline_mean_cost": float(report.baseline_mean_cost),
        "baseline_stderr": float(report.baseline_stderr),
        "max_gain": float(report.max_gain),
        "candidates": [{
            "name": r.name,
            "mean_cost": float(r.mean_cost),
            "cost_stderr": float(r.cost_stderr),
            "gain": float(r.gain),
            "gain_stderr": float(r.gain_stderr),
        } for r in report.results],
    }
