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

import dataclasses
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


def plain(value):
    """``value`` in JSON's own types: a dataclass as the dict of its fields,
    a dict, list, tuple or array item by item, a numpy scalar as its Python
    value.  Any other type that JSON has no form for raises ``TypeError``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                       default=plain) + "\n")


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


def _table(path, named, grid=None) -> None:
    """Write the CSV table of the ``(name, block)`` pairs ``named``, led by
    a ``t`` column of ``grid``'s nodes if given.  A block's columns are
    ``name`` for a number per line, ``name_i`` for a vector and
    ``name_i_j`` for a matrix, in ``_csv``'s row-major order, from 1."""
    headers = [] if grid is None else ["t"]
    for name, block in named:
        names = [name]
        for size in np.shape(block)[1:]:
            names = [f"{head}_{i + 1}" for head in names for i in range(size)]
        headers += names
    atomic_write_text(path, _csv(headers, [b for _, b in named], grid))


def write_riccati_csv(path, solution, feedback) -> None:
    """One row per grid node: P, Gamma, Phi, Sigma, and the feedback law."""
    _table(path, [("P", solution.P), ("Gamma", solution.Gamma),
                  ("Phi", solution.Phi), ("Sigma", solution.Sigma),
                  ("K_z", feedback.K_z), ("K_m", feedback.K_m),
                  ("c_u", feedback.c_u)], solution.grid)


def write_meanfield_csv(path, grid, m, Em) -> None:
    _table(path, [("m", m), ("Em", Em)], grid)


def write_agent_csv(path, grid, z_hat, u) -> None:
    """One row per grid node: t, zhat, u."""
    _table(path, [("zhat", z_hat), ("u", u)], grid)


def rate_report_dict(report) -> dict:
    """The fit's fields as JSON.  A degenerate fit has no slope, intercept
    or slope error, and writes ``null`` for them, which strict parsers
    accept; companion fits recurse and are left out when there are none."""
    out = plain(report)
    if report.degenerate:
        out.update(slope=None, intercept=None, slope_stderr=None)
    del out["companions"]
    if report.companions:
        out["companions"] = [rate_report_dict(c) for c in report.companions]
    return out


def write_rate_csv(path, report) -> None:
    named = [("N", report.Ns)]
    for fit in (report, *report.companions):
        named += [(fit.name, fit.values), (f"{fit.name}_stderr", fit.stderrs)]
    _table(path, named)


def deviation_report_dict(report) -> dict:
    """The report's fields as JSON, its ``results`` named ``candidates``."""
    out = plain(report)
    out["candidates"] = out.pop("results")
    return out
