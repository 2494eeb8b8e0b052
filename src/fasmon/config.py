"""Experiment configuration: file parsing, CLI overrides, and defaults.

Config files are either flat ``key = value`` text (``#`` comments allowed) or
a single JSON object with the same keys. Every source, text lines, JSON pairs,
``--set`` overrides and library mappings, yields (key, raw value, line)
entries to one parser, which maps aliases and refuses unknown and repeated
keys. Powers are given in dB and converted to linear exactly once, here;
everything downstream is linear. The gain ratio ``ratio_db`` sets both
cross-link variances, in ``_with_ratio``.

An empty file resolves to the reference setup: p_s 20 dB, p_m_max 30 dB,
ratio -18 dB, unit noise and SS-link variances, delta 0.05, 8 ports, W = 5,
experiment fig2.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

from .channel import SystemParams
from .errors import ConfigError
from .optimize import Scheme

# accepted spelling -> canonical key
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


def _with_ratio(params: SystemParams, ratio_db: float) -> SystemParams:
    """params at gain ratio ratio_db: sigma_g2 = sigma_f2 = 10^(ratio_db/10)
    sigma_h2."""
    cross = _linear("sigma_ratio_db", ratio_db) * params.sigma_h2
    return dataclasses.replace(params, sigma_g2=cross, sigma_f2=cross)


def _check_db(value: float) -> None:
    # a dB sweep value is converted at every point
    _linear("sweep_values", value)


def _check_ports(value: float) -> None:
    if value != int(value) or value < 1:
        raise ConfigError(f"n_ports sweep values must be positive integers, got {value}",
                          "sweep_values")


# sweep variable -> (check of one sweep value, the point's parameters from
# the base parameters and the value)
_SWEEPS = {
    "p_m_db": (_check_db, lambda params, x: params),
    "ratio_db": (_check_db, _with_ratio),
    "n_ports": (_check_ports, lambda params, x: dataclasses.replace(params, n_ports=int(x))),
}

# experiment -> (row-seed id, sweep variable, default sweep values); custom
# sets both
_EXPERIMENTS = {
    "fig1": (1, "p_m_db", tuple(30.0 * i / 120 for i in range(121))),
    "fig2": (2, "ratio_db", tuple(float(v) for v in range(-20, 1, 2))),
    "fig3": (3, "n_ports", tuple(float(n) for n in range(2, 17))),
    "custom": (0, None, None),
}


def _parse_number(key: str, raw, line: int, kind=float):
    """One number of type kind: a string in its syntax, or a number, not a
    bool, that is an int where kind is int. A float must be finite."""
    if isinstance(raw, str):
        try:
            raw = kind(raw.strip())
        except ValueError:
            what = "a number" if kind is float else "an integer"
            raise ConfigError(f"{key}: not {what}: {raw.strip()!r}", key, line) from None
    elif isinstance(raw, bool) or not isinstance(raw, numbers.Real if kind is float else int):
        raise ConfigError(f"{key}: unexpected value {raw!r}", key, line)
    if kind is int:
        return raw
    try:
        value = float(raw)
    except OverflowError:  # an int past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {value!r}", key, line)
    return value


def _parse_value(key: str, raw, line: int):
    """One config value, parsed. Text values arrive as strings, JSON and
    library values keep their native type, and a parsed value parses to
    itself."""
    if key in _LIST_KEYS:
        if isinstance(raw, str):
            items = [s.strip() for s in raw.split(",") if s.strip()]
        elif isinstance(raw, (list, tuple)):
            items = list(raw)
        else:
            raise ConfigError(f"{key}: expected a list", key, line)
        if key == "schemes":
            schemes = []
            for item in items:
                try:
                    scheme = Scheme(item)
                except ValueError:
                    known = ", ".join(s.value for s in Scheme)
                    raise ConfigError(f"schemes: unknown scheme {item!r} (known: {known})",
                                      key, line) from None
                if scheme in schemes:
                    raise ConfigError(f"schemes: {scheme.value} is listed twice", key, line)
                schemes.append(scheme)
            return tuple(schemes)
        return tuple(_parse_number(key, v, line) for v in items)
    if key in _STR_KEYS:
        if not isinstance(raw, str):
            raise ConfigError(f"{key}: expected a string", key, line)
        return raw.strip()
    return _parse_number(key, raw, line, float if key in _FLOAT_KEYS else int)


def _collect(entries, later_wins: bool = False) -> dict:
    """Canonical keys and parsed values of (key, raw value, line) entries,
    line 0 where it is unknown. A key that repeats, under any spelling, is a
    ConfigError unless later_wins, when the later entry wins."""
    values = {}
    lines = {}
    for key, raw, line in entries:
        key = _ALIASES.get(key, key)
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", key, line)
        if key in values and not later_wins:
            first = f" (first set on line {lines[key]})" if lines[key] else ""
            raise ConfigError(f"duplicate key {key!r}{first}", key, line)
        values[key] = _parse_value(key, raw, line)
        lines[key] = line
    return values


def _entry(text: str, line: int, form: str) -> tuple:
    """The (key, raw value, line) entry of one ``key = value`` text."""
    key, eq, raw = text.partition("=")
    if not eq:
        raise ConfigError(f"{form}, got {text!r}", "", line)
    return key.strip(), raw, line


def parse_overrides(pairs) -> dict:
    """Parse ``--set key=value`` pairs; later pairs win over earlier ones."""
    return _collect((_entry(pair, 0, "override must be key=value") for pair in pairs),
                    later_wins=True)


def resolve_config(file_values: dict, overrides: dict | None = None) -> ExperimentSpec:
    """Merge defaults, file values, and overrides into an ExperimentSpec.

    Both mappings may hold raw values (as a library caller writes them, for
    example ``{"schemes": "Passive"}``) or values the readers already parsed.
    """
    values = dict(_DEFAULTS)
    for source in (file_values, overrides or {}):
        values.update(_collect((str(key), raw, 0) for key, raw in source.items()))

    experiment = values["experiment"]
    if experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(_EXPERIMENTS)}, got {experiment!r}",
            "experiment")
    for key in ("mc_samples", "seed"):
        if values[key] < 0:
            raise ConfigError(f"{key} must be >= 0", key)

    _, var, default_values = _EXPERIMENTS[experiment]
    if var is None and not {"sweep_variable", "sweep_values"} <= values.keys():
        raise ConfigError(
            "custom experiment needs explicit sweep_variable and sweep_values",
            "experiment")
    sweep_variable = values.get("sweep_variable", var)
    if var is not None and sweep_variable != var:
        raise ConfigError(
            f"{experiment} sweeps {var}; cannot set sweep_variable={sweep_variable}",
            "sweep_variable")
    sweep_values = values.get("sweep_values", default_values)
    schemes = values.get("schemes", () if sweep_variable == "p_m_db" else tuple(Scheme))

    if sweep_variable not in _SWEEPS:
        raise ConfigError(
            f"sweep_variable must be one of {', '.join(_SWEEPS)}",
            "sweep_variable")
    if not sweep_values:
        raise ConfigError("sweep_values must be nonempty", "sweep_values")
    if any(b <= a for a, b in zip(sweep_values, sweep_values[1:])):
        raise ConfigError("sweep_values must be strictly increasing", "sweep_values")
    check_value, _ = _SWEEPS[sweep_variable]
    for v in sweep_values:
        check_value(v)
    # a p_m sweep reports the three analytic rate curves, not scheme rows:
    # the schemes each pick their own p_m, so pinning one is contradictory
    if sweep_variable == "p_m_db":
        if schemes:
            raise ConfigError(
                "a p_m_db sweep reports the three analytic curves; "
                "schemes cannot be chosen", "schemes")
    elif not schemes:
        raise ConfigError("schemes must be nonempty", "schemes")

    try:
        # the cross-link variances are set from the gain ratio
        params = _with_ratio(SystemParams(
            p_s=_linear("p_s_db", values["p_s_db"]),
            p_m_max=_linear("p_m_max_db", values["p_m_max_db"]),
            sigma_g2=1.0, sigma_f2=1.0,
            **{key: values[key] for key in ("sigma_h2", "sigma_d2", "sigma_m2",
                                            "delta", "n_ports", "aperture_w")},
        ), values["sigma_ratio_db"])
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
    if text.lstrip().startswith("{"):
        # the hook sees the pairs of every object, repeated keys included,
        # and those of the outermost object last
        objects = []

        def keep_pairs(pairs):
            objects.append(pairs)
            return dict(pairs)

        try:
            json.loads(text, object_pairs_hook=keep_pairs)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}", "", exc.lineno) from None
        file_values = _collect((key, raw, 0) for key, raw in objects[-1])
    else:
        lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
        file_values = _collect(_entry(line, n, "expected key = value")
                               for n, line in enumerate(lines, start=1) if line)
    return resolve_config(file_values, parse_overrides(cli_overrides))
