"""Run configuration: JSON schema, validation, canonical echo.

A config document is a JSON object with blocks ``model``, ``quench``,
``partition``, ``time``, ``entropy``, ``output`` (all but ``model``
optional).  Unknown keys anywhere are errors, reported with their dotted
path.  ``canonical_echo`` returns the fully defaulted document that the
CSV header embeds; feeding that echo back through ``parse_config``
reproduces the run byte for byte.
"""

from __future__ import annotations

import json
from itertools import product

import numpy as np

from . import __version__
from ._record import Value
from .bosehubbard import BoseHubbardSpec
from .chain import ChainSpec
from .entanglement import Partition, UniformGrid
from .ermakov import DEFAULT_TOLERANCE, QuenchSchedule
from .errors import ConfigError

_TOP_BLOCKS = ("version", "model", "quench", "partition", "time", "entropy", "output")

DEFAULT_DT = 0.01
DEFAULT_T_MAX = 100.0
DEFAULT_PRECISION = 12
MAX_PRECISION = 17  # significant digits that still tell apart every double

# Caps that keep a valid document runnable: at MAX_SITES the n x n mode
# basis alone is 134 MB, and MAX_TIME_POINTS rows of t alone are 80 MB.
MAX_SITES = 4096
MAX_TIME_POINTS = 10_000_000


class RunConfig(Value):
    """Validated run parameters plus the canonical document they came from.
    A ``schedule`` of None means a sudden quench."""

    __slots__ = ("chain", "schedule", "tolerance", "partition", "t_max", "dt", "alphas",
                 "output_path", "precision", "echo")

    def __init__(self, chain: ChainSpec, schedule: QuenchSchedule | None, tolerance: float,
                 partition: Partition, t_max: float, dt: float, alphas: tuple[int, ...],
                 output_path: str | None, precision: int, echo: dict):
        super().__init__(chain, schedule, tolerance, partition, t_max, dt, alphas,
                         output_path, precision, echo)

    @property
    def grid(self) -> UniformGrid:
        """The run's time grid, ``_uniform_grid(t_max, dt)``."""
        return _uniform_grid(self.t_max, self.dt)


def _uniform_grid(t_max: float, dt: float) -> UniformGrid:
    """Uniform grid 0, dt, ..., with floor(t_max/dt) + 1 points, as its
    step and size.  Raises ``ValueError`` unless t_max and dt are finite,
    dt > 0, t_max >= 0 and the grid has at most ``MAX_TIME_POINTS``
    points."""
    if not (np.isfinite(t_max) and np.isfinite(dt) and dt > 0 and t_max >= 0):
        raise ValueError(
            f"time grid needs finite dt > 0 and t_max >= 0, got t_max={t_max!r}, dt={dt!r}"
        )
    # floor(t_max/dt) + 1 as a float, infinite when t_max/dt overflows; the
    # small slack absorbs roundoff in t_max/dt for non-representable steps
    points = float(np.floor(t_max / dt + 1e-9)) + 1.0
    if points > MAX_TIME_POINTS:
        raise ValueError(f"t_max / dt gives {points:.0f} grid points, more than {MAX_TIME_POINTS}")
    return UniformGrid(dt, int(points))


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _as_block(raw: dict, name: str) -> dict:
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise _fail(name, f"expected an object, got {type(block).__name__}")
    return dict(block)


def _reject_unknown(block: dict, allowed, path: str) -> None:
    for key in block:
        if key not in allowed:
            raise _fail(f"{path}.{key}", "unknown key")


def _float(value, path: str) -> float:
    """A JSON number as a float; an integer beyond the float range is a
    ``ConfigError``, not an ``OverflowError``."""
    try:
        return float(value)
    except OverflowError:
        raise _fail(path, "integer is too large for a float") from None


def _number(block: dict, key: str, path: str, *, default=None, minimum=None,
            exclusive=False) -> float:
    if key not in block:
        if default is None:
            raise _fail(f"{path}.{key}", "required key is missing")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{path}.{key}", f"expected a number, got {value!r}")
    value = _float(value, f"{path}.{key}")
    if not np.isfinite(value):
        raise _fail(f"{path}.{key}", "must be finite")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise _fail(f"{path}.{key}", f"must be greater than {minimum:g}, got {value:g}")
        if not exclusive and value < minimum:
            raise _fail(f"{path}.{key}", f"must be at least {minimum:g}, got {value:g}")
    return value


def _integer(block: dict, key: str, path: str, *, default=None, minimum=None,
             maximum=None) -> int:
    if key not in block:
        if default is None:
            raise _fail(f"{path}.{key}", "required key is missing")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(f"{path}.{key}", f"must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise _fail(f"{path}.{key}", f"must be at most {maximum}, got {value}")
    return value


def _choice(block: dict, key: str, path: str, options, default=None) -> str:
    value = block.get(key, default)
    if value not in options:
        raise _fail(f"{path}.{key}", f"expected one of {sorted(options)}, got {value!r}")
    return value


def _parse_model(raw: dict):
    """Validate the ``model`` and ``quench`` blocks.  Returns the chain, the
    schedule (None for a sudden quench), the tolerance, and the ``model``
    and ``quench`` sections of the echo, built from the validated values."""
    model = _as_block(raw, "model")
    if not raw.get("model"):
        raise ConfigError("model: required block is missing")
    mode = _choice(model, "mode", "model", {"oscillator", "bose_hubbard"}, default="oscillator")
    quench = _as_block(raw, "quench")
    _reject_unknown(quench, {"kind", "table", "interpolation", "tolerance"}, "quench")
    kind = _choice(quench, "kind", "quench", {"sudden", "general"}, default="sudden")

    tolerance = _number(quench, "tolerance", "quench", default=DEFAULT_TOLERANCE,
                        minimum=0.0, exclusive=True)
    if kind == "sudden" and ("table" in quench or "interpolation" in quench):
        extra = "table" if "table" in quench else "interpolation"
        raise _fail(f"quench.{extra}", "only valid for quench.kind = general")

    if mode == "bose_hubbard":
        _reject_unknown(model, {"mode", "omega_bh_i", "omega_bh_f", "hop"}, "model")
        if kind == "general":
            raise _fail("quench.kind", "general protocols need model.mode = oscillator")
        omega_bh_i = _number(model, "omega_bh_i", "model", minimum=0.0, exclusive=True)
        omega_bh_f = _number(model, "omega_bh_f", "model", minimum=0.0)
        hop = _number(model, "hop", "model", minimum=0.0)
        try:
            chain = BoseHubbardSpec(omega_bh_i, omega_bh_f, hop).chain_spec()
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
        model_echo = {"mode": mode, "omega_bh_i": omega_bh_i, "omega_bh_f": omega_bh_f,
                      "hop": hop}
        return chain, None, tolerance, model_echo, {"kind": kind}

    allowed = {"mode", "n", "boundary", "omega_i", "k_i"}
    if kind == "sudden":
        allowed |= {"omega_f", "k_f"}
    elif "omega_f" in model or "k_f" in model:
        extra = "omega_f" if "omega_f" in model else "k_f"
        raise _fail(
            f"model.{extra}",
            "post-quench values come from the quench.table when quench.kind = general",
        )
    _reject_unknown(model, allowed, "model")
    model_echo = {
        "mode": mode,
        "n": _integer(model, "n", "model", minimum=2, maximum=MAX_SITES),
        "boundary": _choice(model, "boundary", "model", {"periodic", "open"},
                            default="periodic"),
        "omega_i": _number(model, "omega_i", "model", minimum=0.0, exclusive=True),
        "k_i": _number(model, "k_i", "model", minimum=0.0),
    }

    schedule = None
    if kind == "general":
        table = quench.get("table")
        if not isinstance(table, list) or not table:
            raise _fail("quench.table", "expected a non-empty list of [t, omega, k] rows")
        rows = []
        for i, row in enumerate(table):
            if (not isinstance(row, list) or len(row) != 3
                    or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in row)):
                raise _fail(f"quench.table[{i}]", "expected a [t, omega, k] number triple")
            values = [_float(v, f"quench.table[{i}]") for v in row]
            if not np.all(np.isfinite(values)):
                raise _fail(f"quench.table[{i}]", f"values must be finite, got {row}")
            rows.append(values)
        interpolation = _choice(
            quench, "interpolation", "quench", {"linear", "previous"}, default="linear"
        )
        arr = np.asarray(rows)
        try:
            schedule = QuenchSchedule(
                times=arr[:, 0], omegas=arr[:, 1], ks=arr[:, 2], interpolation=interpolation
            )
        except ValueError as exc:
            raise ConfigError(f"quench.table: {exc}") from exc
        omega_f, k_f = schedule.final_params
        quench_echo = {"kind": kind, "table": rows, "interpolation": interpolation,
                       "tolerance": tolerance}
    else:
        omega_f = model_echo["omega_f"] = _number(model, "omega_f", "model", minimum=0.0)
        k_f = model_echo["k_f"] = _number(model, "k_f", "model", minimum=0.0)
        quench_echo = {"kind": kind}

    try:
        chain = ChainSpec(
            n=model_echo["n"], omega_i=model_echo["omega_i"], k_i=model_echo["k_i"],
            omega_f=omega_f, k_f=k_f, boundary=model_echo["boundary"],
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    return chain, schedule, tolerance, model_echo, quench_echo


def _parse_partition(raw: dict, n: int) -> Partition:
    block = _as_block(raw, "partition")
    _reject_unknown(block, {"traced"}, "partition")
    traced = block.get("traced", "second_half")
    if traced == "second_half":
        return Partition.second_half(n)
    if not isinstance(traced, list) or not traced or any(
        isinstance(s, bool) or not isinstance(s, int) for s in traced
    ):
        raise _fail("partition.traced", 'expected "second_half" or a list of site numbers')
    try:
        return Partition.from_traced(traced, n)
    except ValueError as exc:
        raise ConfigError(f"partition.traced: {exc}") from exc


def from_dict(raw: dict) -> RunConfig:
    """Validate a parsed config document and materialize every default."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    for key in raw:
        if key not in _TOP_BLOCKS:
            raise ConfigError(f"{key}: unknown block")
    if "version" in raw and not isinstance(raw["version"], str):
        raise ConfigError("version: expected a string")

    chain, schedule, tolerance, model_echo, quench_echo = _parse_model(raw)
    partition = _parse_partition(raw, chain.n)

    time_block = _as_block(raw, "time")
    _reject_unknown(time_block, {"t_max", "dt"}, "time")
    dt = _number(time_block, "dt", "time", default=DEFAULT_DT, minimum=0.0, exclusive=True)
    t_max = _number(time_block, "t_max", "time", default=DEFAULT_T_MAX, minimum=0.0,
                    exclusive=True)
    if t_max < dt:
        raise _fail("time.t_max", f"must be at least dt = {dt:g}, got {t_max:g}")
    try:
        _uniform_grid(t_max, dt)
    except ValueError as exc:
        raise _fail("time.t_max", str(exc)) from exc

    entropy = _as_block(raw, "entropy")
    _reject_unknown(entropy, {"alphas"}, "entropy")
    alphas_raw = entropy.get("alphas", [1])
    if not isinstance(alphas_raw, list) or not alphas_raw or any(
        isinstance(a, bool) or not isinstance(a, int) or a < 1 for a in alphas_raw
    ):
        raise _fail("entropy.alphas", "expected a non-empty list of integers >= 1")
    for alpha in alphas_raw:
        _float(alpha, "entropy.alphas")
    alphas = tuple(sorted(set(alphas_raw)))

    output = _as_block(raw, "output")
    _reject_unknown(output, {"path", "precision"}, "output")
    path = output.get("path")
    if path is not None and not isinstance(path, str):
        raise _fail("output.path", f"expected a string, got {path!r}")
    precision = _integer(output, "precision", "output", default=DEFAULT_PRECISION, minimum=1,
                         maximum=MAX_PRECISION)

    echo = {
        "version": __version__,
        "model": model_echo,
        "quench": quench_echo,
        "partition": {"traced": list(partition.traced)},
        "time": {"t_max": t_max, "dt": dt},
        "entropy": {"alphas": list(alphas)},
        "output": {"precision": precision},
    }

    return RunConfig(
        chain=chain,
        schedule=schedule,
        tolerance=tolerance,
        partition=partition,
        t_max=t_max,
        dt=dt,
        alphas=alphas,
        output_path=path,
        precision=precision,
        echo=echo,
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return from_dict(raw)


def canonical_echo(config: RunConfig) -> str:
    """The canonical one-line JSON document embedded in CSV headers."""
    return json.dumps(config.echo, sort_keys=True, separators=(",", ":"))


def expand_sweep(raw: dict) -> list[tuple[str, dict]]:
    """Expand list-valued model parameters into a cartesian sweep.

    Returns (label, document) pairs, labels like ``omega_bh_f=2.15`` with
    swept keys in sorted order; a document with no list-valued model keys
    yields a single pair with an empty label.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    model = raw.get("model")
    if not isinstance(model, dict):
        raise ConfigError("model: required block is missing")
    swept = {k: v for k, v in model.items() if isinstance(v, list)}
    if not swept:
        return [("", dict(raw))]
    keys = sorted(swept)
    for key in keys:
        if not swept[key]:
            raise ConfigError(f"model.{key}: sweep list must be non-empty")
    combos = []
    for values in product(*(swept[k] for k in keys)):
        doc = dict(raw)
        doc["model"] = dict(model)
        for key, value in zip(keys, values):
            doc["model"][key] = value
        label = "_".join(f"{k}={json.dumps(v)}" for k, v in zip(keys, values))
        combos.append((label, doc))
    return combos
