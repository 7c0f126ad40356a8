"""Scenario files: JSON schema, parsing, canonical serialization, presets.

A scenario bundles four blocks:

* ``model`` — dimensions, horizon, grid steps, initial state, coefficient
  entries (scalar, matrix, ``{"const": [[...]]}`` or
  ``{"schedule": [[[...]], ...]}`` with one matrix per grid node), terminal
  weight G and the R lower bound r_min;
* ``solver`` — optional steps override, P and Gamma route selection and
  iteration limits;
* ``experiment`` — what to run (solve, simulate, rate_state, rate_cost,
  deviation) and its parameters;
* ``output`` — destination directory and file-name prefix.

Parsing normalizes every coefficient to nested float rows, one matrix for a
constant and one per node for a schedule, and serialization writes them back
as ``const`` or ``schedule`` by their depth, so serializing a parsed config
and re-parsing it yields an identical config.
Two presets reproduce the network-security examples: ``netsec-closed-form``
(the explicitly solvable parameter set) and ``netsec-numeric`` (the 50-agent
simulation set).
"""

from __future__ import annotations

import dataclasses
import json
import numbers

import numpy as np

from .errors import StructureError, UsageError
from .io import plain
from .model import (COEFFICIENTS, DEFAULT_R_MIN, LqMfgModel, TimeGrid,
                    as_matrix, coefficient_shapes)
from .population import (DeviationCandidate, _check_ladder,
                         candidate_family, default_candidate_family)
from .riccati import DEFAULT_ITER_TOL, DEFAULT_MAX_ITERS

FORMAT_VERSION = 1

KINDS = ("solve", "simulate", "rate_state", "rate_cost", "deviation")
P_METHODS = ("direct", "iterative", "both")
GAMMA_METHODS = ("direct", "pi_transform", "both")
PRESET_NAMES = ("netsec-closed-form", "netsec-numeric")

def _require_keys(d, allowed, context):
    if not isinstance(d, dict):
        raise UsageError(f"{context} must be a JSON object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise UsageError(f"unknown key(s) {unknown} in {context}; "
                         f"allowed: {sorted(allowed)}")


def _int(value, context) -> int:
    """A JSON integer; an integral float such as 2.0 also counts."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise UsageError(f"{context} must be an integer, got {value!r}")


def _real(value, context) -> float:
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise UsageError(f"{context} must be a real number, got {value!r}")


def _finite(value, context) -> float:
    x = _real(value, context)
    if not np.isfinite(x):
        raise UsageError(f"{context} must be finite, got {x}")
    return x


def _bool(value, context) -> bool:
    if isinstance(value, bool):
        return value
    raise UsageError(f"{context} must be true or false, got {value!r}")


def _str(value, context) -> str:
    if isinstance(value, str):
        return value
    raise UsageError(f"{context} must be a string, got {value!r}")


def _list(value, context) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    raise UsageError(f"{context} must be a list, got {value!r}")


def _optional(parse):
    """parse, with JSON null read as None."""
    return lambda value, context: None if value is None else \
        parse(value, context)


def _tuple_of(parse):
    return lambda value, context: tuple(parse(v, context)
                                        for v in _list(value, context))


def _block(cls, d, parsers, context, name):
    """cls from the keys of d, each read by its parser with the context
    name.key; a key that d does not give keeps its field default, and a
    null block is the default block."""
    if d is None:
        return cls()
    _require_keys(d, parsers, context)
    return cls(**{key: parse(d[key], f"{name}.{key}")
                  for key, parse in parsers.items() if key in d})


def _real_array(value, context) -> np.ndarray:
    """A real number or a nested list of them, as a float array."""
    def check(v):
        if isinstance(v, (list, tuple)):
            for item in v:
                check(item)
        else:
            _real(v, context)
    check(value)
    try:
        return np.asarray(value, dtype=float)
    except ValueError:
        raise UsageError(f"{context}: nested lists of unequal "
                         f"length") from None


def _float_matrix(value, shape, context):
    """A JSON value as nested float rows of a slot matrix (model.as_matrix)."""
    try:
        arr = as_matrix(_real_array(value, context), shape, context)
    except StructureError as exc:
        raise UsageError(str(exc)) from None
    return tuple(tuple(float(v) for v in row) for row in arr)


def _parse_coefficient(name, value, shape):
    """A slot's nested float rows: one matrix for a constant, one matrix per
    node for a schedule."""
    context = f"model.{name}"
    if isinstance(value, dict):
        _require_keys(value, ("const", "schedule"), context)
        if len(value) != 1:
            raise UsageError(f"{context}: give exactly one of 'const' or "
                             f"'schedule'")
        if "const" in value:
            return _float_matrix(value["const"], shape, context)
        seq = _list(value["schedule"], context)
        if not seq:     # the model would read an empty one as a matrix
            raise UsageError(f"{context}: schedule has no entries")
        return tuple(_float_matrix(mat, shape, f"{context}[{j}]")
                     for j, mat in enumerate(seq))
    return _float_matrix(value, shape, context)


def _check_sizes(n, k, horizon, steps):
    """n, k and steps at least 1, T finite and positive."""
    if n < 1 or k < 1:
        raise UsageError("model dimensions n and k must be positive")
    if not np.isfinite(horizon):
        raise UsageError(f"model.T must be finite, got {horizon}")
    if not horizon > 0:
        raise UsageError(f"model horizon T must be positive, got {horizon}")
    if steps < 1:
        raise UsageError(f"model steps must be positive, got {steps}")


@dataclasses.dataclass(frozen=True)
class ModelBlock:
    """A scenario's model: its sizes, x0 and G as nested floats, and each
    coefficient slot's nested float rows (a matrix for a constant, one
    matrix per node for a schedule).  A block is valid exactly when its
    model builds with its n and k; construction raises ``UsageError``
    naming ``model.<slot>`` otherwise."""
    n: int
    k: int
    horizon: float
    steps: int
    x0: tuple[float, ...]
    coefficients: dict
    G: tuple
    r_min: float = DEFAULT_R_MIN

    def __post_init__(self):
        self.build()

    @classmethod
    def from_dict(cls, d) -> "ModelBlock":
        allowed = ("n", "k", "T", "steps", "x0", "G", "r_min", *COEFFICIENTS)
        _require_keys(d, allowed, "model block")
        for key in ("n", "k", "T", "steps", "x0"):
            if key not in d:
                raise UsageError(f"model block is missing '{key}'")
        n, k = _int(d["n"], "model.n"), _int(d["k"], "model.k")
        horizon = _real(d["T"], "model.T")
        steps = _int(d["steps"], "model.steps")
        # named before the entries that these sizes shape are read
        _check_sizes(n, k, horizon, steps)
        x0 = _float_matrix(d["x0"], (n, 1), "model.x0")
        coeffs = {name: _parse_coefficient(name, d.get(name, 0.0), shape)
                  for name, shape in coefficient_shapes(n, k).items()}
        G = _float_matrix(d.get("G", 0.0), (n, n), "model.G")
        given = {"r_min": _finite(d["r_min"], "model.r_min")} \
            if "r_min" in d else {}
        return cls(n=n, k=k, horizon=horizon, steps=steps,
                   x0=tuple(row[0] for row in x0), coefficients=coeffs,
                   G=G, **given)

    def to_dict(self):
        return {"n": self.n, "k": self.k, "T": self.horizon,
                "steps": self.steps, "x0": list(self.x0),
                "G": plain(self.G), "r_min": self.r_min,
                **{name: {"schedule" if np.ndim(value) == 3 else "const":
                          plain(value)}
                   for name, value in self.coefficients.items()}}

    def build(self, steps_override: int | None = None) -> LqMfgModel:
        steps = self.steps if steps_override is None else steps_override
        try:
            model = LqMfgModel.from_constants(
                TimeGrid(self.horizon, steps), G=self.G, x0=self.x0,
                r_min=self.r_min, **self.coefficients)
        except StructureError as exc:
            raise UsageError(f"model.{exc}") from None
        if (model.n, model.k) != (self.n, self.k):   # n from A, k from B
            raise UsageError(f"model.A, model.B: entries of n = {model.n}, "
                             f"k = {model.k} in a block of n = {self.n}, "
                             f"k = {self.k}")
        return model


@dataclasses.dataclass(frozen=True)
class SolverBlock:
    steps: int | None = None
    p_method: str = "direct"
    gamma_method: str = "direct"
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_ITER_TOL

    def __post_init__(self):
        if self.p_method not in P_METHODS:
            raise UsageError(f"solver.p_method must be one of {P_METHODS}, "
                             f"got '{self.p_method}'")
        if self.gamma_method not in GAMMA_METHODS:
            raise UsageError(f"solver.gamma_method must be one of "
                             f"{GAMMA_METHODS}, got '{self.gamma_method}'")
        if self.steps is not None and self.steps < 1:
            raise UsageError("solver.steps must be positive")
        if self.max_iters < 1:
            raise UsageError("solver.max_iters must be positive")
        if not self.tol > 0:
            raise UsageError("solver.tol must be positive")

    @classmethod
    def from_dict(cls, d) -> "SolverBlock":
        return _block(cls, d, {"steps": _optional(_int), "p_method": _str,
                               "gamma_method": _str, "max_iters": _int,
                               "tol": _finite}, "solver block", "solver")


@dataclasses.dataclass(frozen=True)
class CandidateFamilyBlock:
    gain_scales: tuple[float, ...] = ()
    include_zero: bool = True
    offsets: tuple[float, ...] = ()

    @classmethod
    def from_dict(cls, d) -> "CandidateFamilyBlock":
        ctx = "experiment.candidates"
        return _block(cls, d, {"gain_scales": _tuple_of(_finite),
                               "include_zero": _bool,
                               "offsets": _tuple_of(_finite)}, ctx, ctx)


def build_candidates(block: CandidateFamilyBlock | None
                     ) -> tuple[DeviationCandidate, ...]:
    """Candidate family from config; the equilibrium policy always leads."""
    if block is None:
        return default_candidate_family()
    return candidate_family(block.gain_scales, block.include_zero,
                            block.offsets)


@dataclasses.dataclass(frozen=True)
class ExperimentBlock:
    kind: str = "solve"
    seed: int = 0
    N: int | None = None
    Ns: tuple[int, ...] | None = None
    S: int = 256
    candidates: CandidateFamilyBlock | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"experiment.kind must be one of {KINDS}, "
                             f"got '{self.kind}'")
        if not 0 <= self.seed < (1 << 64):
            raise UsageError("experiment.seed must fit in 64 bits")
        if self.N is not None and self.N < 1:
            raise UsageError("experiment.N must be at least 1")
        if self.S < 2:
            raise UsageError("experiment.S must be at least 2")
        need = {"simulate": "N", "deviation": "N",
                "rate_state": "Ns", "rate_cost": "Ns"}.get(self.kind)
        if need and getattr(self, need) is None:
            raise UsageError(f"experiment.{need} is required for kind "
                             f"'{self.kind}'")
        if need == "Ns":
            try:
                _check_ladder(self.Ns)
            except UsageError as exc:
                raise UsageError(f"experiment.Ns: {exc}") from None

    @classmethod
    def from_dict(cls, d) -> "ExperimentBlock":
        return _block(cls, d, {
            "kind": _str, "seed": _int, "N": _optional(_int),
            "Ns": _optional(_tuple_of(_int)), "S": _int,
            "candidates": _optional(
                lambda v, _: CandidateFamilyBlock.from_dict(v))},
            "experiment block", "experiment")


def _prefix(value, context) -> str:
    prefix = _str(value, context)
    if not prefix or "/" in prefix or "\\" in prefix:
        raise UsageError(f"{context} must be a plain file-name prefix")
    return prefix


@dataclasses.dataclass(frozen=True)
class OutputBlock:
    directory: str = "."
    prefix: str = "run"

    @classmethod
    def from_dict(cls, d) -> "OutputBlock":
        return _block(cls, d, {"prefix": _prefix, "directory": _str},
                      "output block", "output")


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    model: ModelBlock
    solver: SolverBlock = SolverBlock()
    experiment: ExperimentBlock = ExperimentBlock()
    output: OutputBlock = OutputBlock()

    @classmethod
    def from_dict(cls, d) -> "ScenarioConfig":
        _require_keys(d, ("format_version", "model", "solver", "experiment",
                          "output"), "scenario")
        version = d.get("format_version", FORMAT_VERSION)
        if _int(version, "format_version") != FORMAT_VERSION:
            raise UsageError(f"unsupported format_version {version}; this "
                             f"build reads version {FORMAT_VERSION}")
        if "model" not in d:
            raise UsageError("scenario is missing the 'model' block")
        return cls(model=ModelBlock.from_dict(d["model"]),
                   solver=SolverBlock.from_dict(d.get("solver")),
                   experiment=ExperimentBlock.from_dict(d.get("experiment")),
                   output=OutputBlock.from_dict(d.get("output")))

    def to_dict(self):
        return {"format_version": FORMAT_VERSION,
                "model": self.model.to_dict(),
                **plain({"solver": self.solver,
                         "experiment": self.experiment,
                         "output": self.output})}

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)


def parse_scenario(text: str) -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"scenario parse error at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    return ScenarioConfig.from_dict(data)


def serialize_scenario(config: ScenarioConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read scenario file: {exc}") from None
    return parse_scenario(text)


def preset(name: str) -> ScenarioConfig:
    """Named built-in scenarios for the network-security examples."""
    if name == "netsec-closed-form":
        return ScenarioConfig.from_dict({
            "format_version": 1,
            "model": {
                "n": 1, "k": 1, "T": 1.0, "steps": 1000, "x0": [1.0],
                "A": 1.0, "B": 1.0, "alpha": 1.0, "b": 0.0,
                "C": 0.0, "D": 0.0, "beta": 0.0, "sigma": 1.0,
                "C0": 0.0, "D0": 0.0, "beta0": 0.0, "sigma0": 1.0,
                "Q": 3.0, "R": 1.0, "G": 1.0,
            },
            "solver": {"p_method": "both", "gamma_method": "both"},
            "experiment": {"kind": "solve", "seed": 20250801},
            "output": {"directory": "out", "prefix": "netsec-closed-form"},
        })
    if name == "netsec-numeric":
        return ScenarioConfig.from_dict({
            "format_version": 1,
            "model": {
                "n": 1, "k": 1, "T": 1.0, "steps": 1000, "x0": [1.0],
                "A": 1.5, "B": 2.8, "alpha": 1.0, "b": 2.0,
                "C": 0.6, "D": 2.5, "beta": 0.0, "sigma": 0.8,
                "C0": 0.0, "D0": 6.0, "beta0": 0.0, "sigma0": 0.3,
                "Q": 3.3, "R": 2.5, "G": 5.0,
            },
            "solver": {"p_method": "both", "gamma_method": "both"},
            "experiment": {"kind": "simulate", "seed": 20250801, "N": 50},
            "output": {"directory": "out", "prefix": "netsec-numeric"},
        })
    raise UsageError(f"unknown preset '{name}'; available presets: "
                     + ", ".join(PRESET_NAMES))
