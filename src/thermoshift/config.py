"""Run configuration: JSON ingestion with strict validation.

Schema (all sections optional unless a task needs them):

    {
      "model": {
        "alphabet_size": 2,
        "transition": [1, 1, 1, 0],          # row-major 0/1
        "potential": {
          "H": {"depth": 1, "values": {"0": 2.0, "1": 3.0}},
          "p": {"depth": 0, "values": {"": 0.5}}
        },
        "beta": 1.0,
        "depth": 4
      },
      "task": "rpf",
      "output": {"path": "out.json", "format": "json"},
      "numeric": {"tol": 1e-12, "max_iter": 10000, "seed": 0,
                  "starts": 5, "N": 4},
      "renewal": {"gamma": 3.0, "K": 100000, "beta_grid": [0.5, 0.8, 1.0]}
    }

Unknown keys anywhere are rejected and every section above is an object;
model.alphabet_size is at most 10 (word keys are one digit per symbol);
output.format "csv" is for renewal (verify-all ignores it in a file and
cli.main refuses it as a verify-all flag); renewal.K is at
most MAX_RENEWAL_K, the tables that numeric.depth, model.depth and (for ground,
or kms without a depth) numeric.N ask for hold at most wordcodes.MAX_WORDS
words, and those rpf writes out at most MAX_OUTPUT_WORDS.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import wordcodes
from .kms import GaugeSpec
from .shiftspace import CylinderFunction, ShiftModel, ShiftSpaceError

TASKS = ("rpf", "kms", "monomial-check", "optimize", "subaction", "ground",
         "renewal", "verify-all")

# Largest renewal truncation accepted.  The pressure curve and the transition
# report in the json output cost the same at every K (a run peaks at about
# 60 MB of RSS).
MAX_RENEWAL_K = 10 ** 7

# Largest table rpf writes out (eigenfunction and eigenmeasure, word by word):
# at this size a full 2-shift run peaks at about 290 MB of RSS, 176 MB one
# depth less.  The output document sets that peak: the solve itself allocates
# about 45 MB here.
MAX_OUTPUT_WORDS = 2 ** 18


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def require_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return value


def _reject_unknown(section, allowed, where: str):
    extra = set(require_object(section, where)) - set(allowed)
    if extra:
        raise ConfigError(f"unknown keys in {where}: {sorted(extra)}")


def _parse_potential(model: ShiftModel, spec: dict, name: str) -> CylinderFunction:
    _reject_unknown(spec, {"depth", "values"}, f"model.potential.{name}")
    if "depth" not in spec or "values" not in spec:
        raise ConfigError(f"model.potential.{name} needs 'depth' and 'values'")
    depth = spec["depth"]
    if not isinstance(depth, int) or depth < 0:
        raise ConfigError(f"model.potential.{name}.depth must be an integer >= 0")
    table = {}
    values = require_object(spec["values"], f"model.potential.{name}.values")
    for key, val in values.items():
        try:
            word = tuple(int(c) for c in key)
        except ValueError:
            raise ConfigError(
                f"model.potential.{name}: bad word key {key!r}") from None
        if len(word) != depth or not model.is_admissible(word):
            raise ConfigError(
                f"model.potential.{name}: word {key!r} not admissible at depth {depth}")
        table[word] = float(val)
    try:
        return CylinderFunction.from_dict(model, depth, table)
    except ShiftSpaceError as exc:
        raise ConfigError(f"model.potential.{name}: {exc}") from None


def _number(section: dict, key: str, default, cast, where: str):
    """section[key], or the default, converted by `cast`; never inf or nan."""
    try:
        value = cast(section.get(key, default))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}.{key} must be a number") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be finite, got {value}")
    return value


def _positive(section: dict, key: str, default, cast, where: str):
    """section[key], or the default, converted by `cast` and required > 0."""
    value = _number(section, key, default, cast, where)
    if not value > 0:
        raise ConfigError(f"{where}.{key} must be > 0, got {value}")
    return value


def _depth(section: dict, where: str) -> int | None:
    """section["depth"]: absent, or an integer >= 1."""
    depth = section.get("depth")
    if depth is not None and (not isinstance(depth, int) or depth < 1):
        raise ConfigError(f"{where}.depth must be an integer >= 1")
    return depth


def _reject_oversized(model: ShiftModel, depth: int, what: str,
                      limit: int = wordcodes.MAX_WORDS):
    """Reject a depth whose codes pass int64 or whose table passes `limit` words."""
    if not wordcodes.codes_fit(model, depth) or wordcodes.word_count(model, depth) > limit:
        raise ConfigError(
            f"{what} needs depth-{depth} word tables: over {limit} words or int64 codes")


@dataclass(frozen=True)
class NumericSection:
    tol: float = 1e-12
    max_iter: int = 10_000
    seed: int = 0
    depth: int | None = None
    starts: int = 5
    N: int = 4


@dataclass(frozen=True)
class RunConfig:
    task: str
    model: ShiftModel | None
    H: CylinderFunction | None
    p: CylinderFunction | None
    beta: float
    numeric: NumericSection
    out_path: str | None
    out_format: str
    renewal_gamma: float
    renewal_K: int
    renewal_beta_grid: tuple[float, ...]
    raw: dict = field(repr=False, default_factory=dict)

    def digest(self) -> str:
        """Hash of the run parameters; output destination excluded so the
        same computation gets the same digest wherever it is written."""
        import hashlib

        body = {k: v for k, v in self.raw.items() if k != "output"}
        return hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


def read_config(path: str) -> dict:
    """The JSON object in the file at `path`, not yet validated."""
    with open(path) as fh:
        try:
            return require_object(json.load(fh), "config")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None


def parse_config(raw: dict) -> RunConfig:
    _reject_unknown(raw, {"model", "task", "output", "numeric", "renewal"}, "config")
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")

    model = H = p = None
    beta = 1.0
    depth_override = None
    if "model" in raw:
        msec = raw["model"]
        _reject_unknown(msec, {"alphabet_size", "transition", "potential",
                               "beta", "depth"}, "model")
        k = msec.get("alphabet_size")
        if not isinstance(k, int) or not 2 <= k <= 10:
            raise ConfigError("model.alphabet_size must be an integer from 2 to 10 "
                              "(word keys are one digit per symbol)")
        flat = msec.get("transition")
        if not isinstance(flat, list) or len(flat) != k * k or \
                any(x not in (0, 1) for x in flat):
            raise ConfigError(
                f"model.transition must be a row-major 0/1 list of length {k * k}")
        rows = tuple(tuple(flat[i * k:(i + 1) * k]) for i in range(k))
        try:
            model = ShiftModel(k, rows)
        except ShiftSpaceError as exc:
            raise ConfigError(f"model.transition: {exc}") from None
        pot = msec.get("potential", {})
        _reject_unknown(pot, {"H", "p"}, "model.potential")
        if "H" in pot:
            H = _parse_potential(model, pot["H"], "H")
            if (H.values <= 0).any():
                raise ConfigError("model.potential.H must be strictly positive")
        if "p" in pot:
            p = _parse_potential(model, pot["p"], "p")
        beta = _number(msec, "beta", 1.0, float, "model")
        depth_override = _depth(msec, "model")

    out = raw.get("output", {})
    _reject_unknown(out, {"path", "format"}, "output")
    fmt = out.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError("output.format must be 'json' or 'csv'")
    if fmt == "csv" and task not in ("renewal", "verify-all"):
        raise ConfigError(f"output.format 'csv' is for the renewal task, not {task!r}")

    num = raw.get("numeric", {})
    _reject_unknown(num, {"tol", "max_iter", "seed", "depth", "starts", "N"},
                    "numeric")
    seed = _number(num, "seed", 0, int, "numeric")
    if seed < 0:
        raise ConfigError(f"numeric.seed must be >= 0, got {seed}")
    depth = _depth(num, "numeric")
    numeric = NumericSection(
        tol=_positive(num, "tol", 1e-12, float, "numeric"),
        max_iter=_positive(num, "max_iter", 10_000, int, "numeric"),
        seed=seed,
        depth=depth_override if depth_override is not None else depth,
        starts=_positive(num, "starts", 5, int, "numeric"),
        N=_positive(num, "N", 4, int, "numeric"),
    )
    if model is not None and numeric.depth is not None:
        where = "model" if depth_override is not None else "numeric"
        _reject_oversized(model, numeric.depth, f"{where}.depth")
    if model is not None and (task == "ground" or task == "kms" and not numeric.depth):
        # ground tabulates F_1..F_N at the working depth, and kms its state
        # unless numeric.depth is given (kms_iterate's tables do not need N)
        p_depth = (p if p is not None else default_p(model)).depth
        working = max(H.depth if H is not None else 0, p_depth, 1) + numeric.N + 1
        _reject_oversized(model, working, "numeric.N")
    if model is not None and task == "rpf":
        weight = H if H is not None else p
        out_depth = numeric.depth or max(weight.depth if weight is not None else 0, 1)
        _reject_oversized(model, out_depth, "rpf output", MAX_OUTPUT_WORDS)

    ren = raw.get("renewal", {})
    _reject_unknown(ren, {"gamma", "K", "beta_grid"}, "renewal")
    try:
        grid = tuple(float(b) for b in ren.get(
            "beta_grid", (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2)))
    except (TypeError, ValueError):
        raise ConfigError("renewal.beta_grid must be a list of numbers") from None
    if not all(map(math.isfinite, grid)):
        raise ConfigError(f"renewal.beta_grid must be finite, got {list(grid)}")
    renewal_K = _positive(ren, "K", 10_000, int, "renewal")
    if renewal_K > MAX_RENEWAL_K:
        raise ConfigError(
            f"renewal.K must be <= {MAX_RENEWAL_K}, got {renewal_K}")
    gamma = _number(ren, "gamma", 3.0, float, "renewal")

    if task == "renewal":
        if not gamma > 2:
            raise ConfigError("renewal.gamma must be > 2")
    elif task != "verify-all" or "model" in raw:
        if model is None:
            raise ConfigError(f"task {task!r} requires a model section")
        if H is None and task != "rpf":
            raise ConfigError(f"task {task!r} requires model.potential.H")

    return RunConfig(
        task=task,
        model=model,
        H=H,
        p=p,
        beta=beta,
        numeric=numeric,
        out_path=out.get("path"),
        out_format=fmt,
        renewal_gamma=gamma,
        renewal_K=renewal_K,
        renewal_beta_grid=grid,
        raw=raw,
    )


def gauge_spec(config: RunConfig) -> GaugeSpec:
    """The configured model, H, p and beta; H defaults to the constant 1 and
    p to `default_p`."""
    model = config.model
    H = config.H if config.H is not None else CylinderFunction.constant(model, 1.0)
    p = config.p if config.p is not None else default_p(model)
    return GaugeSpec(model, H, p, config.beta)


def default_p(model: ShiftModel) -> CylinderFunction:
    """p(z) = 1 / #preimages(T z): the weight making the transfer operator
    normalized.  The preimage count of T z is the column sum at the second
    symbol of z, so this is a depth-2 cylinder function (depth 0 on full
    shifts, where every column sums to the alphabet size)."""
    cols = model.matrix.sum(axis=0)
    if (cols == cols[0]).all():
        return CylinderFunction.constant(model, 1.0 / cols[0])
    second = wordcodes.window_index(model, 2, 1, 1)  # depth-1 positions are symbols
    return CylinderFunction(model, 2, 1.0 / cols[second])
