"""Closed forms for the three extremal problems and a working recovery loop.

On the class of charges with unit polar gradient bound: the modulus of
continuity Omega(delta), the best bounded-operator approximation error E_N,
and the optimal-recovery error (which equals Omega).  The mixed-derivative
setting uses the same formulas with mu = 2^(d-m) absorbed into the sup-norm
data term.  Numerics only cross-check attainment; the optimal operator is
the window average at the delta-matched radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .charges import Charge
from .geometry import ConvexBody, Cone, GeometryError, volume_body_cone
from .golden import golden_min
from .grids import GridField
from .steklov import (
    MixedParams,
    SteklovParams,
    mixed_operator_field,
    steklov_apply,
    steklov_field,
)

__all__ = [
    "ProblemSetting",
    "omega",
    "stechkin_error",
    "optimal_h_for_delta",
    "optimal_h_for_N",
    "sandwich_check",
    "RecoveryResult",
    "recover_derivative",
    "recovery_error",
]


@dataclass(frozen=True)
class ProblemSetting:
    """Charge setting (general K, C) or mixed setting (box + orthant).

    Both constructors take mu(K∩C) from geometry.volume_body_cone."""

    kind: str  # "charge" | "mixed"
    d: int
    m: int = 0
    mu: float = 1.0
    K: ConvexBody | None = None
    C: Cone | None = None

    @classmethod
    def charge(cls, K: ConvexBody, C: Cone) -> "ProblemSetting":
        return cls(kind="charge", d=K.d, m=C.m, mu=volume_body_cone(K, C).value,
                   K=K, C=C)

    @classmethod
    def mixed(cls, d: int, m: int) -> "ProblemSetting":
        setting = cls.charge(ConvexBody.box(d), Cone.orthant(d, m))
        return replace(setting, kind="mixed")


def omega(setting: ProblemSetting, delta: float) -> float:
    """Modulus of continuity of the derivative operator on the unit class."""
    if delta <= 0:
        raise GeometryError("delta must be positive")
    d = setting.d
    if setting.kind == "charge":
        return ((d + 1) * delta / setting.mu) ** (1.0 / (d + 1))
    return (2**setting.m * (d + 1) * delta) ** (1.0 / (d + 1))


def stechkin_error(setting: ProblemSetting, N: float) -> float:
    """Best approximation by bounded operators of norm <= N."""
    d = setting.d
    return d / (d + 1) * optimal_h_for_N(setting, N)


def optimal_h_for_delta(setting: ProblemSetting, delta: float) -> float:
    """Window radius minimizing the additive bound at data error delta.
    It has the closed form of omega(delta), which is also the bound's
    minimum value."""
    return omega(setting, delta)


def optimal_h_for_N(setting: ProblemSetting, N: float) -> float:
    """Window radius at which the operator norm equals N."""
    if N <= 0:
        raise GeometryError("N must be positive")
    d = setting.d
    if setting.kind == "charge":
        return (1.0 / (N * setting.mu)) ** (1.0 / d)
    return (2**setting.m / N) ** (1.0 / d)


def sandwich_check(setting: ProblemSetting, deltas, rel_tol: float = 1e-6):
    """For each delta: inf_N {E_N + N*delta} vs omega(delta).

    The infimum is taken over 64 log-spaced N in [1e-3/mu, 1e3/mu] followed
    by 80 golden-section steps between the neighbours of the best.  Returns
    (rows, ok) where each row records both sides.
    """
    rows = []
    ok = True
    for delta in deltas:
        if delta <= 0:
            raise GeometryError("delta grid must be positive")

        def bound(logN, _delta=delta):
            return stechkin_error(setting, math.exp(logN)) + math.exp(logN) * _delta

        lo = math.log(1e-3 / setting.mu)
        hi = math.log(1e3 / setting.mu)
        grid = np.linspace(lo, hi, 64)
        vals = [bound(t) for t in grid]
        j = int(np.argmin(vals))
        a = grid[max(j - 1, 0)]
        b = grid[min(j + 1, len(grid) - 1)]
        t, best = golden_min(bound, a, b, iters=80)
        om = omega(setting, delta)
        rel = abs(best - om) / om
        rows.append(
            {
                "delta": float(delta),
                "omega": om,
                "inf_EN_plus_Ndelta": best,
                "argmin_N": math.exp(t),
                "rel_err": rel,
            }
        )
        ok = ok and rel <= rel_tol
    return rows, ok


@dataclass
class RecoveryResult:
    estimate: np.ndarray  # values on the input grid
    valid: np.ndarray  # centers whose window fits the sampled region
    bound: float
    h: float
    params: SteklovParams | MixedParams


def recover_derivative(nu_noisy: Charge, delta: float,
                       setting: ProblemSetting) -> RecoveryResult:
    """Recover the density from delta-accurate data by the optimal window
    average; the guaranteed worst-case error is omega(delta)."""
    if delta <= 0:
        raise GeometryError("delta must be positive")
    h = optimal_h_for_delta(setting, delta)
    bound = omega(setting, delta)
    if setting.kind == "charge":
        p = SteklovParams(K=setting.K, C=setting.C, h=h, mu=setting.mu)
        est, valid = steklov_field(nu_noisy, p)
        return RecoveryResult(est, valid, bound, h, p)
    # mixed setting: snap h to whole cells of the coarsest axis
    sp = float(np.max(nu_noisy.density.grid.spacing))
    p = MixedParams(d=setting.d, m=setting.m, h=max(1, round(h / sp)) * sp)
    est, valid = mixed_operator_field(nu_noisy.density, p)
    return RecoveryResult(est, valid, bound, p.h, p)


def recovery_error(truth: GridField, nu_noisy: Charge,
                   result: RecoveryResult) -> float:
    """Measured sup |true density - estimate| over valid centers, plus, for
    a window-average estimate, the truth's deviation candidates (the origin
    and its registered points), each through one strict window."""
    diff = np.abs(truth.values - result.estimate)
    best = float(np.max(np.where(result.valid, diff, -np.inf)))
    if truth.value_fn is not None and isinstance(result.params, SteklovParams):
        for cand in truth.deviation_candidates(nu_noisy.cone):
            sval = steklov_apply(nu_noisy, result.params, cand)
            best = max(best, abs(float(truth.value_fn(cand[None, :])[0]) - sval))
    return best
