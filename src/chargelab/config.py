"""Experiment configuration: YAML/JSON key-value trees with strict schemas.

Each CLI command has a fixed set of allowed keys; unknown keys are rejected
before any computation runs.
"""

from __future__ import annotations

import math
from pathlib import Path

import yaml

from .geometry import ConvexBody, Cone, GeometryError

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
        "seed": (int, 0),
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
        "grid": (int, 512),
        "seed": (int, 0),
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
    """Apply defaults and reject unknown keys; returns the merged config."""
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
    return out


def body_from_config(d: int, spec: dict | None) -> ConvexBody:
    if spec is None:
        return ConvexBody.box(d)
    kind = spec.get("kind", "box")
    if kind == "box":
        return ConvexBody.box(d)
    if kind == "pball":
        p = spec.get("p", 2.0)
        if isinstance(p, str) and p in ("inf", "Inf", "infinity"):
            p = math.inf
        return ConvexBody.pball(d, float(p))
    if kind == "polytope":
        return ConvexBody.polytope(
            d, vertices=spec.get("vertices"), facets=spec.get("facets")
        )
    raise ConfigError(f"unknown body kind {kind!r}")


def cone_from_config(d: int, spec: dict | None) -> Cone:
    if spec is None:
        return Cone.orthant(d, 0)
    kind = spec.get("kind", "orthant")
    if kind == "orthant":
        return Cone.orthant(d, int(spec.get("m", 0)))
    if kind == "halfspaces":
        return Cone.halfspaces(spec["normals"])
    raise ConfigError(f"unknown cone kind {kind!r}")

