"""Seeded scenario files for the four benchmark workloads.

Every input the program sees is a scenario JSON written here from the
workload seed; the program is never handed a preset name.  The coefficients
of the two network-security presets are restated below rather than read
from the package, so a change to the package cannot change the inputs.
``test_perfbench.py`` checks that the restated values still equal the
presets.

Seed use per workload:

* ``solve``    -- the seed perturbs every entry of a fixed structured base
  model (n=3, k=2) by up to +-20%; the experiment seed is unused.
* ``ladder``   -- the seed is the experiment seed (sample noise only).
* ``simulate`` -- the seed is the experiment seed (agent noise only).

The perturbation keeps each entry's sign and order of magnitude, so the
amount of work (RK4 steps, Lyapunov iterations, samples, files) does not
depend on the seed; only the numbers do.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("solve", "ladder", "simulate")

# Problem sizes of the measured workloads.
SIZES = {
    "solve": {"steps": 500},
    "ladder": {"steps": 125, "Ns": [25, 50, 100, 200, 400, 800], "S": 32},
    "simulate": {"steps": 500, "N": 400},
}

# Coefficients of the lqmfg presets, as documented in the package README.
NETSEC_CLOSED_FORM = {
    "n": 1, "k": 1, "T": 1.0, "x0": [1.0],
    "A": 1.0, "B": 1.0, "alpha": 1.0, "b": 0.0,
    "C": 0.0, "D": 0.0, "beta": 0.0, "sigma": 1.0,
    "C0": 0.0, "D0": 0.0, "beta0": 0.0, "sigma0": 1.0,
    "Q": 3.0, "R": 1.0, "G": 1.0,
}
NETSEC_NUMERIC = {
    "n": 1, "k": 1, "T": 1.0, "x0": [1.0],
    "A": 1.5, "B": 2.8, "alpha": 1.0, "b": 2.0,
    "C": 0.6, "D": 2.5, "beta": 0.0, "sigma": 0.8,
    "C0": 0.0, "D0": 6.0, "beta0": 0.0, "sigma0": 0.3,
    "Q": 3.3, "R": 2.5, "G": 5.0,
}

# Structured base for `solve`: alpha = delta*I, beta = beta0 = 0 and C0 = 0,
# the shape under which the Pi = P + Gamma substitution applies, with
# nonzero D and D0 so that Sigma = R + D'PD + D0'PD0 depends on P.
SOLVE_BASE = {
    "A": [[-0.5, 0.3, 0.1], [0.2, -0.4, 0.3], [0.1, 0.2, -0.6]],
    "B": [[1.0, 0.2], [0.3, 0.8], [0.2, 0.5]],
    "delta": 0.3,
    "b": [[0.5], [-0.3], [0.2]],
    "C": [[0.2, 0.1, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.2]],
    "D": [[0.4, 0.1], [0.2, 0.3], [0.1, 0.2]],
    "D0": [[0.3, 0.0], [0.1, 0.4], [0.2, 0.1]],
    "sigma": [[0.5], [0.4], [0.3]],
    "sigma0": [[0.3], [0.2], [0.4]],
    # Q, R, G = L L' from these lower-triangular factors
    "LQ": [[1.0, 0.0, 0.0], [0.3, 0.9, 0.0], [0.2, 0.1, 0.8]],
    "LR": [[1.0, 0.0], [0.2, 0.8]],
    "LG": [[0.8, 0.0, 0.0], [0.1, 0.7, 0.0], [0.0, 0.2, 0.6]],
    "x0": [1.0, 0.5, -0.5],
    "r_min": 0.05,
}

PERTURBATION = 0.2


def _perturbed(rng, base: dict, names) -> dict:
    out = {}
    for name in names:
        value = np.asarray(base[name], float)
        out[name] = value * (1.0 + PERTURBATION
                             * rng.uniform(-1.0, 1.0, value.shape))
    return out


def _gram(L) -> list:
    L = np.asarray(L, float)
    return (L @ L.T).tolist()


def _model_block(base: dict, rng, steps: int) -> dict:
    names = ["A", "B", "b", "C", "D", "D0", "sigma", "sigma0",
             "LQ", "LR", "LG", "delta"]
    p = _perturbed(rng, base, names)
    n = len(base["x0"])
    model = {
        "n": n, "k": len(base["LR"]), "T": 1.0, "steps": steps,
        "x0": list(base["x0"]), "r_min": base["r_min"],
        "Q": _gram(p["LQ"]), "R": _gram(p["LR"]), "G": _gram(p["LG"]),
    }
    for name in names:
        if not name.startswith("L") and name != "delta":
            model[name] = p[name].tolist()
    model["alpha"] = (float(p["delta"]) * np.eye(n)).tolist()
    model["beta"] = model["beta0"] = model["C0"] = 0.0
    return model


def scenario(workload: str, seed: int) -> dict:
    """The scenario dict of one workload, a pure function of the seed."""
    sz = SIZES[workload]
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    direct = {"p_method": "direct", "gamma_method": "direct"}
    if workload == "solve":
        model = _model_block(SOLVE_BASE, rng, sz["steps"])
        solver = {"p_method": "both", "gamma_method": "both"}
        experiment = {"kind": "solve", "seed": int(seed)}
    elif workload == "ladder":
        model = dict(NETSEC_CLOSED_FORM, steps=sz["steps"])
        solver = direct
        experiment = {"kind": "rate_state", "seed": int(seed),
                      "Ns": sz["Ns"], "S": sz["S"]}
    elif workload == "simulate":
        model = dict(NETSEC_NUMERIC, steps=sz["steps"])
        solver = direct
        experiment = {"kind": "simulate", "seed": int(seed), "N": sz["N"]}
    else:
        raise ValueError(f"unknown workload '{workload}'")
    return {"format_version": 1, "model": model, "solver": solver,
            "experiment": experiment,
            "output": {"directory": "out", "prefix": workload}}


def write_scenario(workload: str, seed: int,
                   directory: str) -> tuple[str, dict]:
    """Write the workload's scenario JSON; returns (path, scenario dict)."""
    config = scenario(workload, seed)
    path = os.path.join(directory, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return path, config
