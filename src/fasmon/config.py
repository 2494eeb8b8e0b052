"""Experiment configuration: file parsing, CLI overrides, and defaults.

Config files are either flat ``key = value`` text (``#`` comments allowed) or
a single JSON object with the same keys. Powers are given in dB and converted
to linear exactly once, here; everything downstream is linear. The gain ratio
``ratio_db`` sets both cross-link variances: sigma_g2 = sigma_f2 =
10^(ratio_db/10) * sigma_h2.

An empty file resolves to the reference setup: p_s 20 dB, p_m_max 30 dB,
ratio -18 dB, unit noise and SS-link variances, delta 0.05, 8 ports, W = 5,
experiment fig2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .channel import SystemParams
from .errors import ConfigError
from .optimize import Scheme

_ALL_SCHEMES = tuple(Scheme)

# canonical key -> accepted spellings
_ALIASES = {"ratio_db": "sigma_ratio_db"}

_FLOAT_KEYS = {"p_s_db", "p_m_max_db", "sigma_ratio_db", "sigma_h2",
               "sigma_d2", "sigma_m2", "delta", "aperture_w"}
_INT_KEYS = {"n_ports", "mc_samples", "seed"}
_STR_KEYS = {"experiment", "sweep_variable"}
_LIST_KEYS = {"sweep_values", "schemes"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _LIST_KEYS

_DEFAULTS = {
    "p_s_db": 20.0,
    "p_m_max_db": 30.0,
    "sigma_ratio_db": -18.0,
    "sigma_h2": 1.0,
    "sigma_d2": 1.0,
    "sigma_m2": 1.0,
    "delta": 0.05,
    "n_ports": 8,
    "aperture_w": 5.0,
    "experiment": "fig2",
    "mc_samples": 0,
    "seed": 12345,
}

_EXPERIMENTS = ("fig1", "fig2", "fig3", "custom")
_SWEEP_VARIABLES = ("p_m_db", "ratio_db", "n_ports")

# canonical sweep variable per named experiment
_FIG_VARIABLE = {"fig1": "p_m_db", "fig2": "ratio_db", "fig3": "n_ports"}


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved run description: base parameters plus the sweep."""

    experiment: str
    sweep_variable: str
    sweep_values: tuple[float, ...]
    schemes: tuple[Scheme, ...]
    params: SystemParams
    mc_samples: int
    seed: int


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def _linear(key: str, value_db: float) -> float:
    """db_to_linear, with a ConfigError naming key where 10^(dB/10)
    overflows a float."""
    try:
        return db_to_linear(value_db)
    except OverflowError:
        raise ConfigError(f"{key}: {value_db!r} dB overflows", key) from None


def _finite(key: str, value: float, line: int) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {value!r}", key, line)
    return value


def _parse_scalar(key: str, raw: str, line: int):
    if key in _FLOAT_KEYS:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: not a number: {raw!r}", key, line) from None
        return _finite(key, value, line)
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: not an integer: {raw!r}", key, line) from None
    return raw


def _parse_value(key: str, raw, line: int):
    """Normalize one config value. Text values arrive as strings; JSON values
    keep their native type."""
    if key in _LIST_KEYS:
        if isinstance(raw, str):
            items = [s.strip() for s in raw.split(",") if s.strip()]
        elif isinstance(raw, (list, tuple)):
            items = list(raw)
        else:
            raise ConfigError(f"{key}: expected a list", key, line)
        if key == "schemes":
            out = []
            for item in items:
                try:
                    out.append(Scheme(item))
                except ValueError:
                    known = ", ".join(s.value for s in Scheme)
                    raise ConfigError(
                        f"schemes: unknown scheme {item!r} (known: {known})",
                        key, line) from None
            return tuple(out)
        try:
            values = tuple(float(v) for v in items)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected numbers", key, line) from None
        return tuple(_finite(key, v, line) for v in values)
    if isinstance(raw, str):
        return _parse_scalar(key, raw.strip(), line)
    if key in _FLOAT_KEYS and isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return _finite(key, float(raw), line)
    if key in _INT_KEYS and isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if key in _STR_KEYS:
        raise ConfigError(f"{key}: expected a string", key, line)
    raise ConfigError(f"{key}: unexpected value {raw!r}", key, line)


def _canonical(key: str, line: int) -> str:
    key = _ALIASES.get(key, key)
    if key not in _ALL_KEYS:
        raise ConfigError(f"unknown key {key!r}", key, line)
    return key


def _read_text(text: str) -> dict:
    values = {}
    seen_lines = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", "", lineno)
        key_raw, _, val = line.partition("=")
        key = _canonical(key_raw.strip(), lineno)
        if key in values:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {seen_lines[key]})",
                key, lineno)
        values[key] = _parse_value(key, val, lineno)
        seen_lines[key] = lineno
    return values


def _read_mapping(obj: dict) -> dict:
    """Canonical keys and normalized values for a mapping of config values.
    Idempotent, so values that a reader already parsed pass unchanged."""
    values = {}
    for key_raw, val in obj.items():
        key = _canonical(str(key_raw), 0)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", key, 0)
        values[key] = _parse_value(key, val, 0)
    return values


def _read_json(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON config: {exc}", "", exc.lineno) from None
    if not isinstance(obj, dict):
        raise ConfigError("JSON config must be a single object", "", 1)
    return _read_mapping(obj)


def _default_sweep(experiment: str):
    if experiment == "fig1":
        values = tuple(30.0 * i / 120 for i in range(121))
        return "p_m_db", values, ()
    if experiment == "fig2":
        return "ratio_db", tuple(float(v) for v in range(-20, 1, 2)), _ALL_SCHEMES
    if experiment == "fig3":
        return "n_ports", tuple(float(n) for n in range(2, 17)), _ALL_SCHEMES
    return None


def _build_params(values: dict) -> SystemParams:
    sigma_h2 = values["sigma_h2"]
    cross = _linear("sigma_ratio_db", values["sigma_ratio_db"]) * sigma_h2
    return SystemParams(
        p_s=_linear("p_s_db", values["p_s_db"]),
        p_m_max=_linear("p_m_max_db", values["p_m_max_db"]),
        sigma_h2=sigma_h2,
        sigma_g2=cross,
        sigma_f2=cross,
        sigma_d2=values["sigma_d2"],
        sigma_m2=values["sigma_m2"],
        delta=values["delta"],
        n_ports=values["n_ports"],
        aperture_w=values["aperture_w"],
    )


def parse_overrides(pairs) -> dict:
    """Parse ``--set key=value`` pairs; later pairs win over earlier ones."""
    values = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must be key=value, got {pair!r}")
        key_raw, _, val = pair.partition("=")
        key = _canonical(key_raw.strip(), 0)
        values[key] = _parse_value(key, val, 0)
    return values


def resolve_config(file_values: dict, overrides: dict | None = None) -> ExperimentSpec:
    """Merge defaults, file values, and overrides into an ExperimentSpec.

    Both mappings may hold raw values (as a library caller writes them, for
    example ``{"schemes": "Passive"}``) or values the readers already parsed.
    """
    values = dict(_DEFAULTS)
    explicit = set()
    for source in (file_values, overrides or {}):
        source = _read_mapping(source)
        values.update(source)
        explicit |= set(source)

    experiment = values["experiment"]
    if experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(_EXPERIMENTS)}, got {experiment!r}",
            "experiment")
    if values["mc_samples"] < 0:
        raise ConfigError("mc_samples must be >= 0", "mc_samples")
    if values["seed"] < 0:
        raise ConfigError("seed must be >= 0", "seed")

    default = _default_sweep(experiment)
    if default is None and not {"sweep_variable", "sweep_values"} <= explicit:
        raise ConfigError(
            "custom experiment needs explicit sweep_variable and sweep_values",
            "experiment")

    if default is not None:
        var, def_values, def_schemes = default
        sweep_variable = values.get("sweep_variable", var)
        if "sweep_variable" in explicit and sweep_variable != var:
            raise ConfigError(
                f"{experiment} sweeps {var}; cannot set sweep_variable={sweep_variable}",
                "sweep_variable")
        sweep_values = values["sweep_values"] if "sweep_values" in explicit else def_values
        schemes = values["schemes"] if "schemes" in explicit else def_schemes
    else:
        sweep_variable = values["sweep_variable"]
        sweep_values = values["sweep_values"]
        default_schemes = () if sweep_variable == "p_m_db" else _ALL_SCHEMES
        schemes = values["schemes"] if "schemes" in explicit else default_schemes

    if sweep_variable not in _SWEEP_VARIABLES:
        raise ConfigError(
            f"sweep_variable must be one of {', '.join(_SWEEP_VARIABLES)}",
            "sweep_variable")
    if not sweep_values:
        raise ConfigError("sweep_values must be nonempty", "sweep_values")
    if any(b <= a for a, b in zip(sweep_values, sweep_values[1:])):
        raise ConfigError("sweep_values must be strictly increasing", "sweep_values")
    if sweep_variable == "n_ports":
        for v in sweep_values:
            if v != int(v) or v < 1:
                raise ConfigError(
                    f"n_ports sweep values must be positive integers, got {v}",
                    "sweep_values")
    else:
        # ratio_db and p_m_db are converted at every point
        for v in sweep_values:
            _linear("sweep_values", v)
    # a p_m sweep reports the three analytic rate curves, not scheme rows:
    # the schemes each pick their own p_m, so pinning one is contradictory
    if sweep_variable == "p_m_db":
        if "schemes" in explicit and values["schemes"]:
            raise ConfigError(
                "a p_m_db sweep reports the three analytic curves; "
                "schemes cannot be chosen", "schemes")
        schemes = ()
    elif not schemes:
        raise ConfigError("schemes must be nonempty", "schemes")

    try:
        params = _build_params(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return ExperimentSpec(
        experiment=experiment,
        sweep_variable=sweep_variable,
        sweep_values=tuple(float(v) for v in sweep_values),
        schemes=tuple(schemes),
        params=params,
        mc_samples=values["mc_samples"],
        seed=values["seed"],
    )


def parse_config(file_path: str, cli_overrides=()) -> ExperimentSpec:
    """Load a config file, apply overrides, and resolve the experiment."""
    with open(file_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    file_values = _read_json(text) if stripped.startswith("{") else _read_text(text)
    return resolve_config(file_values, parse_overrides(cli_overrides))
