"""Output checks made apart from the program, one set per workload.

Each check reads the artifacts a CLI run wrote and the scenario dict the
benchmark generated, and recomputes what it can without lqmfg: the solve
oracle integrates the backward system with scipy's ``solve_ivp``, the
ladder uses the logistic closed forms, the simulate check replays the
feedback law and a forward-Euler E[m].  Every function returns a list of
failure messages; an empty list means the outputs are correct.  The
equations are written out in README.md.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
from scipy.integrate import solve_ivp

# Agreement between the program's fixed-step RK4 and the adaptive oracle.
ORACLE_TOL = 1e-7
# Recomputing a value from CSV columns (shortest round-trip floats).
RECOMPUTE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-6
STATE_SLOPE_RANGE = (-1.3, -0.7)
ROUTE_TOL = 1e-5

_SHAPES = {"A": "nn", "B": "nk", "alpha": "nn", "b": "n1", "C": "nn",
           "D": "nk", "beta": "nn", "sigma": "n1", "C0": "nn", "D0": "nk",
           "beta0": "nn", "sigma0": "n1", "Q": "nn", "R": "kk", "G": "nn"}


def coefficients(model: dict) -> dict:
    """Constant coefficient matrices of a scenario's model block."""
    dims = {"n": model["n"], "k": model["k"], "1": 1}
    out = {}
    for name, code in _SHAPES.items():
        shape = (dims[code[0]], dims[code[1]])
        value = np.asarray(model.get(name, 0.0), float)
        out[name] = (np.full(shape, float(value)) if value.ndim == 0
                     else value.reshape(shape))
    return out


def read_csv(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _matrix(table: dict, name: str, rows: int, cols: int) -> np.ndarray:
    return np.stack([np.stack([table[f"{name}_{i + 1}_{j + 1}"]
                               for j in range(cols)], axis=-1)
                     for i in range(rows)], axis=-2)


def _vector(table: dict, name: str, rows: int) -> np.ndarray:
    return np.stack([table[f"{name}_{i + 1}"] for i in range(rows)], axis=-1)


def riccati_table(path: str, n: int, k: int) -> dict:
    t = read_csv(path)
    return {"t": t["t"], "P": _matrix(t, "P", n, n),
            "Gamma": _matrix(t, "Gamma", n, n), "Phi": _vector(t, "Phi", n),
            "Sigma": _matrix(t, "Sigma", k, k),
            "K_z": _matrix(t, "K_z", k, n), "K_m": _matrix(t, "K_m", k, n),
            "c_u": _vector(t, "c_u", k)}


def _artifact(outdir: str, workload: str, suffix: str) -> str:
    return os.path.join(outdir, f"{workload}_{suffix}")


def _close(name, got, want, tol, failures):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    scale = max(1.0, float(np.max(np.abs(want))))
    if not err <= tol * scale:
        failures.append(f"{name}: max error {err:.3e} > {tol * scale:.3e}")


def backward_system(c: dict, n: int, with_pi: bool):
    """Right-hand side of d/dt [P, Gamma, Phi (, Pi)] for solve_ivp."""
    A, B, al, b = c["A"], c["B"], c["alpha"], c["b"][:, 0]
    C, D, be, sg = c["C"], c["D"], c["beta"], c["sigma"][:, 0]
    C0, D0, be0, sg0 = c["C0"], c["D0"], c["beta0"], c["sigma0"][:, 0]
    Q, R = c["Q"], c["R"]
    delta = al[0, 0]
    nn = n * n

    def rhs(t, y):
        P = y[:nn].reshape(n, n)
        G = y[nn:2 * nn].reshape(n, n)
        Phi = y[2 * nn:2 * nn + n]
        Sig = R + D.T @ P @ D + D0.T @ P @ D0

        def inv(X):
            return np.linalg.solve(Sig, X)

        S = P @ B + C.T @ P @ D + C0.T @ P @ D0
        dP = -(P @ A + A.T @ P + C.T @ P @ C + C0.T @ P @ C0 + Q
               - S @ inv(S.T))
        Th = D.T @ P @ be + D0.T @ P @ be0
        Acl = A - B @ inv(S.T)
        dG = Q - (G @ Acl + Acl.T @ G - G @ B @ inv(Th)
                  + C.T @ P @ be + C0.T @ P @ be0 - S @ inv(Th)
                  + (P + G) @ al - G @ B @ inv(B.T @ G))
        L = S + G @ B
        dPhi = -((A.T - L @ inv(B.T)) @ Phi
                 + (C.T - L @ inv(D.T)) @ (P @ sg)
                 + (C0.T - L @ inv(D0.T)) @ (P @ sg0) + (P + G) @ b)
        parts = [dP.ravel(), dG.ravel(), dPhi]
        if with_pi:
            Pi = y[2 * nn + n:].reshape(n, n)
            W = D.T @ P @ C + D0.T @ P @ C0
            Ah = A - B @ inv(W)
            Mt = (C.T @ (P - P @ D @ inv(D.T @ P)) @ C
                  + C0.T @ (P - P @ D0 @ inv(D0.T @ P)) @ C0
                  - C.T @ P @ D @ inv(D0.T @ P @ C0)
                  - C0.T @ P @ D0 @ inv(D.T @ P @ C))
            dPi = -(Pi @ Ah + Ah.T @ Pi + delta * Pi + Mt
                    - Pi @ B @ inv(B.T @ Pi))
            parts.append(dPi.ravel())
        return np.concatenate(parts)

    return rhs


def solve_oracle(model: dict, nodes: np.ndarray, with_pi: bool) -> dict:
    """P, Gamma, Phi (and Pi) at the grid nodes, by adaptive integration."""
    n = model["n"]
    c = coefficients(model)
    G = c["G"]
    y0 = [G.ravel(), np.zeros(n * n), np.zeros(n)]
    if with_pi:
        y0.append(G.ravel())
    T = float(model["T"])
    sol = solve_ivp(backward_system(c, n, with_pi), (T, 0.0),
                    np.concatenate(y0), method="DOP853", rtol=1e-12,
                    atol=1e-13, t_eval=nodes[::-1])
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    y = sol.y[:, ::-1].T
    nn = n * n
    out = {"P": y[:, :nn].reshape(-1, n, n),
           "Gamma": y[:, nn:2 * nn].reshape(-1, n, n),
           "Phi": y[:, 2 * nn:2 * nn + n]}
    if with_pi:
        out["Pi"] = y[:, 2 * nn + n:].reshape(-1, n, n)
    return out


def _check_feedback(tab: dict, c: dict, r_min: float, failures: list):
    """Sigma >= r_min and the gains equal -Sigma^{-1}(...) from the CSV."""
    P, Gam, Phi = tab["P"], tab["Gamma"], tab["Phi"]
    Dt, D0t = c["D"].T, c["D0"].T
    Sig = c["R"] + Dt @ P @ c["D"] + D0t @ P @ c["D0"]
    _close("Sigma vs R + D'PD + D0'PD0", tab["Sigma"], Sig, RECOMPUTE_TOL,
           failures)
    sig_min = float(np.linalg.eigvalsh(
        0.5 * (tab["Sigma"] + np.swapaxes(tab["Sigma"], 1, 2)))[:, 0].min())
    if not sig_min >= r_min:
        failures.append(f"Sigma min eigenvalue {sig_min:.3e} < r_min "
                        f"{r_min:.3e}")
    Bt = c["B"].T
    K_z = -np.linalg.solve(Sig, Bt @ P + Dt @ P @ c["C"] + D0t @ P @ c["C0"])
    K_m = -np.linalg.solve(Sig, Bt @ Gam + Dt @ P @ c["beta"]
                           + D0t @ P @ c["beta0"])
    rhs_c = (np.einsum("kn,jn->jk", Bt, Phi)
             + (Dt @ P @ c["sigma"] + D0t @ P @ c["sigma0"])[:, :, 0])
    c_u = -np.linalg.solve(Sig, rhs_c[:, :, None])[:, :, 0]
    _close("K_z", tab["K_z"], K_z, RECOMPUTE_TOL, failures)
    _close("K_m", tab["K_m"], K_m, RECOMPUTE_TOL, failures)
    _close("c_u", tab["c_u"], c_u, RECOMPUTE_TOL, failures)


def check_solve(outdir: str, scenario: dict) -> list:
    model = scenario["model"]
    n, k = model["n"], model["k"]
    c = coefficients(model)
    failures = []
    tab = riccati_table(_artifact(outdir, "solve", "riccati.csv"), n, k)
    P = tab["P"]
    asym = float(np.max(np.abs(P - np.swapaxes(P, 1, 2))))
    if asym > 1e-12 * max(1.0, float(np.max(np.abs(P)))):
        failures.append(f"P not symmetric: {asym:.3e}")
    p_min = float(np.linalg.eigvalsh(P)[:, 0].min())
    if p_min < -1e-10:
        failures.append(f"P not PSD: min eigenvalue {p_min:.3e}")

    ref = solve_oracle(model, tab["t"], with_pi=True)
    _close("oracle Gamma vs oracle Pi - P", ref["Gamma"],
           ref["Pi"] - ref["P"], ORACLE_TOL, failures)
    for name in ("P", "Gamma", "Phi"):
        _close(f"{name} vs oracle", tab[name], ref[name], ORACLE_TOL,
               failures)
    _check_feedback(tab, c, float(model["r_min"]), failures)

    with open(_artifact(outdir, "solve", "solve_report.json")) as fh:
        cross = json.load(fh)["cross_check"]
    for key in ("p_agreement", "gamma_agreement"):
        value = cross.get(key)
        if value is None or not value <= ROUTE_TOL:
            failures.append(f"solve report {key} = {value}")
    return failures


def logistic_P(t, T=1.0):
    e = np.exp(4.0 * (t - T))
    return (3.0 - e) / (1.0 + e)


def logistic_Pi(t, T=1.0):
    return 3.0 / (1.0 + 2.0 * np.exp(3.0 * (t - T)))


def check_ladder(outdir: str, scenario: dict) -> list:
    failures = []
    tab = riccati_table(_artifact(outdir, "ladder", "riccati.csv"), 1, 1)
    t = tab["t"]
    _close("P vs logistic closed form", tab["P"][:, 0, 0], logistic_P(t),
           CLOSED_FORM_TOL, failures)
    _close("Gamma vs logistic Pi - P", tab["Gamma"][:, 0, 0],
           logistic_Pi(t) - logistic_P(t), 2 * CLOSED_FORM_TOL, failures)
    with open(_artifact(outdir, "ladder", "rate_state.json")) as fh:
        rate = json.load(fh)
    exp = scenario["experiment"]
    if rate["Ns"] != exp["Ns"] or rate["sample_count"] != exp["S"]:
        failures.append(f"ladder shape {rate['Ns']} x {rate['sample_count']}"
                        f" != {exp['Ns']} x {exp['S']}")
    lo, hi = STATE_SLOPE_RANGE
    if rate["degenerate"] or not lo < rate["slope"] < hi:
        failures.append(f"state-gap slope {rate['slope']} outside "
                        f"({lo}, {hi})")
    return failures


def check_simulate(outdir: str, scenario: dict) -> list:
    model = scenario["model"]
    c = coefficients(model)
    failures = []
    tab = riccati_table(_artifact(outdir, "simulate", "riccati.csv"), 1, 1)
    Kz, Km, cu = tab["K_z"][:, 0, 0], tab["K_m"][:, 0, 0], tab["c_u"][:, 0]
    mf = read_csv(_artifact(outdir, "simulate", "meanfield.csv"))
    Em_csv = mf["Em_1"]

    h = float(model["T"]) / model["steps"]
    a = c["A"][0, 0] + c["alpha"][0, 0]
    B, b = c["B"][0, 0], c["b"][0, 0]
    Em = np.empty_like(Em_csv)
    Em[0] = model["x0"][0]
    for j in range(len(Em) - 1):
        Eu = (Kz[j] + Km[j]) * Em[j] + cu[j]
        Em[j + 1] = Em[j] + h * (a * Em[j] + B * Eu + b)
    _close("Em vs forward Euler", Em_csv, Em, RECOMPUTE_TOL, failures)

    agents = sorted(glob.glob(_artifact(outdir, "simulate", "agent_*.csv")))
    if len(agents) != scenario["experiment"]["N"]:
        failures.append(f"{len(agents)} agent files, expected "
                        f"{scenario['experiment']['N']}")
    worst = 0.0
    for path in agents:
        ag = read_csv(path)
        want = Kz * ag["zhat_1"] + Km * Em_csv + cu
        err = np.abs(ag["u_1"] - want) / (1.0 + np.abs(want))
        worst = max(worst, float(err.max()))
    if not worst <= RECOMPUTE_TOL:
        failures.append(f"agent u != K_z zhat + K_m Em + c_u: relative "
                        f"error {worst:.3e}")
    return failures


CHECKS = {"solve": check_solve, "ladder": check_ladder,
          "simulate": check_simulate}
