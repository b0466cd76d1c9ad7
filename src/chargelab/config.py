"""Experiment configuration: YAML/JSON key-value trees with strict schemas.

Each CLI command has a fixed set of allowed keys, and so has each body and
cone kind; unknown keys are rejected before any computation runs.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import yaml

from .geometry import ConvexBody, Cone, cone_has_interior

__all__ = ["ConfigError", "load_config", "validate", "SCHEMAS",
           "body_from_config", "cone_from_config"]


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


# key -> (type, default); None default means optional without substitute
SCHEMAS = {
    "verify": {
        "case": (str, "extremal-charge"),
        "d": (int, 2),
        "m": (int, 0),
        "h": ((int, float, list), 1.0),
        "grid": (int, 128),
        "tol": (float, 1e-3),
        "body": (dict, None),
        "cone": (dict, None),
    },
    "stechkin-curve": {
        "setting": (str, "charge"),
        "d": (int, 1),
        "m": (int, 0),
        "n_points": (int, 33),
        "n_min": (float, 0.05),
        "n_max": (float, 20.0),
        "delta_min": (float, 0.01),
        "delta_max": (float, 10.0),
        "h_attained": (list, [0.5, 1.0, 2.0]),
        "grid": (int, None),
    },
    "recover": {
        "d": (int, 1),
        "m": (int, 0),
        "deltas": (list, [0.01, 0.1, 1.0]),
        "grid": (int, 512),
        "seed": (int, 0),
    },
    "sharpness-search": {
        "d": (int, 2),
        "m": (int, 2),
        "h": (float, 1.0),
        "budget": (int, 20),
        "seed": (int, 0),
    },
}


def _each_positive(v, cfg) -> bool:
    """A positive finite number, or a list of them."""
    return all(isinstance(x, (int, float)) and 0 < x < math.inf
               for x in (v if isinstance(v, list) else [v]))


def _verify_radii(v, cfg) -> bool:
    """Positive finite radii h whose h^(d+1) and h^(-d), the scales of a
    verify report, are finite normal floats."""
    try:
        return _each_positive(v, cfg) and all(
            sys.float_info.min <= float(h) ** k
            for h in (v if isinstance(v, list) else [v])
            for k in (cfg["d"] + 1, -cfg["d"]))
    except OverflowError:  # a float power that overflows raises
        return False


VERIFY_CASES = ("extremal-charge", "gaussian-charge", "zero",
                "corrupted-extremal", "nagy-extremal", "mixed-m0", "mixed-m1")


# the smallest grid on which the density of a verify case, stechkin-curve
# setting or command keeps an empty boundary cell (the zero case: a center
# whose window fits), probed at d = 1..3 (recover: d = 1, 2); 2 elsewhere
_GRID_FLOORS = {"extremal-charge": 5, "corrupted-extremal": 5,
                "gaussian-charge": 9, "zero": 5, "charge": 5, "recover": 10}


def _grid_range(command: str):
    """The _RANGES entry of the grid key of a command: at least its floor."""
    def floor(cfg) -> tuple:
        for key in ("case", "setting"):
            if key in cfg:
                return _GRID_FLOORS.get(cfg[key], 2), f"{command} {key} {cfg[key]!r}"
        return _GRID_FLOORS.get(command, 2), command

    return (lambda v, cfg: v >= floor(cfg)[0],
            lambda cfg: "at least {} for {}".format(*floor(cfg)))


# key -> (test of a set value against the merged config, what it must be:
# text or a function of that config); (command, key) entries come first
_RANGES = {
    ("verify", "case"): (lambda v, cfg: v in VERIFY_CASES,
                         f"one of {', '.join(VERIFY_CASES)}"),
    ("stechkin-curve", "setting"): (lambda v, cfg: v in ("charge", "mixed"),
                                    "charge or mixed"),
    ("verify", "h"): (_verify_radii, "positive, with h^(d+1) and h^-d finite "
                                     "normal floats"),
    "d": (lambda v, cfg: v >= 1, "at least 1"),
    "m": (lambda v, cfg: 0 <= v <= cfg["d"], "in [0, d]"),
    ("sharpness-search", "m"): (lambda v, cfg: 1 <= v <= cfg["d"], "in [1, d]"),
    **{(command, "grid"): _grid_range(command)
       for command in ("verify", "stechkin-curve", "recover")},
    "tol": (lambda v, cfg: v >= 0, "nonnegative"),
    "budget": (lambda v, cfg: v >= 0, "nonnegative"),
    "n_points": (lambda v, cfg: v >= 1, "at least 1"),
    **{key: (_each_positive, "positive and finite")
       for key in ("h", "h_attained", "deltas", "n_min", "n_max",
                   "delta_min", "delta_max")},
}


def load_config(path) -> dict:
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse config {path}: {e}") from e
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a key-value mapping")
    return data


def validate(command: str, cfg: dict) -> dict:
    """Apply defaults and reject unknown keys, values of the wrong type and
    values out of range (_RANGES); returns the merged config."""
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    schema = SCHEMAS[command]
    unknown = set(cfg) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    out = {}
    for key, (typ, default) in schema.items():
        if key in cfg and cfg[key] is not None:
            val = cfg[key]
            if typ is float and isinstance(val, int):
                val = float(val)
            if typ is int and isinstance(val, float) and val == int(val):
                val = int(val)
            if not isinstance(val, typ):
                raise ConfigError(
                    f"config key {key!r} expects {typ}, got {type(val).__name__}"
                )
            out[key] = val
        else:
            out[key] = default
    for key in schema:
        check = _RANGES.get((command, key)) or _RANGES.get(key)
        if check and out[key] is not None and not check[0](out[key], out):
            what = check[1](out) if callable(check[1]) else check[1]
            raise ConfigError(f"config key {key!r} must be {what}, "
                              f"got {out[key]!r}")
    if command == "verify":
        _reject_unread(cfg, out)
    return out


def _reject_unread(raw: dict, cfg: dict) -> None:
    """Keys set in a verify config that its case would ignore: m, body and
    cone on a mixed case (its name fixes m; it runs on the box and the
    orthant), and m beside a cone (the cone spec holds its own m)."""
    given = {key for key, v in raw.items() if v is not None}
    if cfg["case"].startswith("mixed-"):
        unread = sorted(given & {"m", "body", "cone"})
        if unread:
            raise ConfigError(f"verify case {cfg['case']!r} reads no {unread}: "
                              "its name fixes m, and it runs on the box and "
                              "the orthant")
    elif {"m", "cone"} <= given:
        raise ConfigError("config key 'm' is not read beside a cone: "
                          "give the cone's own m")


# body and cone kind -> the keys its spec may hold
_BODY_KEYS = {"box": {"kind"}, "pball": {"kind", "p"},
              "polytope": {"kind", "vertices", "facets"}}
_CONE_KEYS = {"orthant": {"kind", "m"}, "halfspaces": {"kind", "normals"}}


def _spec_kind(what: str, spec: dict, keys: dict, default: str) -> str:
    kind = spec.get("kind", default)
    if kind not in keys:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    unknown = set(spec) - keys[kind]
    if unknown:
        raise ConfigError(f"unknown keys for {what} kind {kind!r}: {sorted(unknown)}")
    return kind


def body_from_config(d: int, spec: dict | None) -> ConvexBody:
    """The body a verify config names (the box by default); a spec that
    names no valid body raises ConfigError."""
    if spec is None:
        return ConvexBody.box(d)
    kind = _spec_kind("body", spec, _BODY_KEYS, "box")
    try:
        if kind == "box":
            return ConvexBody.box(d)
        if kind == "pball":
            return ConvexBody.pball(d, float(spec.get("p", 2.0)))
        return ConvexBody.polytope(
            d, vertices=spec.get("vertices"), facets=spec.get("facets")
        )
    except (ValueError, TypeError) as e:
        raise ConfigError(f"body {spec}: {e}") from e


def cone_from_config(d: int, spec: dict | None) -> Cone:
    """The cone a verify config names (R^d by default); a spec that names
    no valid cone in R^d, or a cone with an empty interior, raises
    ConfigError."""
    if spec is None:
        return Cone.orthant(d, 0)
    kind = _spec_kind("cone", spec, _CONE_KEYS, "orthant")
    m = spec.get("m", 0)
    if not isinstance(m, int):
        raise ConfigError(f"cone m must be an integer, got {m!r}")
    try:
        if kind == "orthant":
            return Cone.orthant(d, m)
        C = Cone.halfspaces(spec["normals"])
    except KeyError as e:
        raise ConfigError(f"cone kind {kind!r} needs {e}") from e
    except (ValueError, TypeError) as e:
        raise ConfigError(f"cone {spec}: {e}") from e
    if C.d != d:
        raise ConfigError(f"cone normals have dimension {C.d}, not d = {d}")
    if not cone_has_interior(C):
        raise ConfigError(f"cone {spec}: the halfspaces share no interior point")
    return C
