"""Window-averaging operators and mixed-difference apparatus.

S_h averages a charge over translated copies of hK∩C and is the optimal
bounded approximant to the density operator; its norm is 1/(h^d mu(K∩C)).
Window values, the mask of centers whose window fits the grid and the
choice of engine all come from charges.Charge.  The deviation sup
integrates the density exactly over each window (fractional windows, box
bodies with orthant cones only).  For the mixed-derivative setting (box
body, orthant cone) the same operator acts on functions as a composed
difference (forward on the first m axes, central on the others) scaled by
1/(2^(d-m) h^d), with norm 2^m/h^d: pointwise through the value callback,
or on the grid as slice differences of the sampled values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .charges import Charge
from .geometry import ConvexBody, Cone, GeometryError, volume_body_cone
from .grids import GridField, GridSpec

__all__ = [
    "SteklovParams",
    "MixedParams",
    "DeviationResult",
    "steklov_apply",
    "steklov_field",
    "steklov_norm",
    "deviation_sup",
    "mixed_operator_apply",
    "mixed_operator_field",
    "mixed_operator_norm",
    "fubini_residual",
]


@dataclass(frozen=True)
class SteklovParams:
    """Window average over hK∩C; create() takes mu(K∩C) from
    geometry.volume_body_cone."""

    K: ConvexBody
    C: Cone
    h: float
    mu: float  # mu(K∩C)

    @classmethod
    def create(cls, K: ConvexBody, C: Cone, h: float) -> "SteklovParams":
        if h <= 0:
            raise GeometryError("h must be positive")
        return cls(K=K, C=C, h=float(h), mu=volume_body_cone(K, C).value)

    @property
    def scale(self) -> float:
        return 1.0 / (self.h**self.K.d * self.mu)


def steklov_norm(p: SteklovParams) -> float:
    """Operator norm 1/(h^d mu(K∩C))."""
    return p.scale


def steklov_apply(nu: Charge, p: SteklovParams, x) -> float:
    """S_h nu(x) = nu(x + hK∩C) / (h^d mu(K∩C))."""
    return nu.window_value(p.K, np.asarray(x, dtype=float), p.h).value * p.scale


def steklov_field(nu: Charge, p: SteklovParams):
    """S_h nu at every grid center (Charge.window_values_all).

    Returns (values, valid_mask) where valid marks centers whose window is
    fully inside the sampled region (Charge.full_windows).
    """
    return nu.window_values_all(p.K, p.h) * p.scale, nu.full_windows(p.K, p.h)


@dataclass(frozen=True)
class DeviationResult:
    value: float
    argmax: np.ndarray
    coverage: float


def deviation_sup(nu: Charge, p: SteklovParams) -> DeviationResult:
    """Sup over the cone of |D_mu nu - S_h nu|.

    S_h integrates the density exactly over each window (strict center
    counting has an O(spacing) bias).  The sup runs over grid centers whose
    window lies inside the sampled region, plus, when the density has a
    value callback, its deviation candidates (GridField.deviation_candidates:
    the origin and the registered points) whose fractional window is not
    truncated; the fraction of usable centers is reported as coverage.
    """
    dev = nu.fractional_values_all(p.K, p.h)
    mask = nu.full_windows(p.K, p.h)
    if not mask.any():
        raise GeometryError("no grid center has its full window inside the grid")
    dev *= p.scale
    np.subtract(nu.density.values, dev, out=dev)
    np.abs(dev, out=dev)
    dev[~mask] = -np.inf
    i = int(np.argmax(dev))
    best = float(dev.reshape(-1)[i])
    arg = nu.density.grid.flat_to_point(i)
    value_fn = nu.density.value_fn
    cands = [] if value_fn is None else nu.density.deviation_candidates(nu.cone)
    for cand in cands:
        wv = nu.window_value(p.K, cand, p.h, "overlap")
        if wv.truncated:
            continue
        v = abs(float(value_fn(cand[None, :])[0]) - wv.value * p.scale)
        if v > best:
            best, arg = v, cand
    return DeviationResult(best, arg, float(mask.mean()))


# -- mixed-derivative operator --------------------------------------------


def _steps_for(grid: GridSpec, axis: int, h: float) -> int:
    sp = grid.spacing[axis]
    k = h / sp
    if abs(k - round(k)) > 1e-9 * max(1.0, k) or round(k) < 1:
        admissible = ", ".join(f"{j * sp:g}" for j in range(1, 5))
        raise GeometryError(
            f"step h={h:g} is not a multiple of the axis-{axis} spacing "
            f"{sp:g}; admissible steps: {admissible}, ..."
        )
    return int(round(k))


@dataclass(frozen=True)
class MixedParams:
    """Box body (-1,1)^d with orthant cone R^m_+ x R^(d-m) and step h; the
    composed-difference operator it defines has norm 2^m/h^d
    (mixed_operator_norm)."""

    d: int
    m: int
    h: float

    def __post_init__(self):
        if not (0 <= self.m <= self.d):
            raise GeometryError("need 0 <= m <= d")
        if self.h <= 0:
            raise GeometryError("h must be positive")

    @property
    def body(self) -> ConvexBody:
        return ConvexBody.box(self.d)

    @property
    def cone(self) -> Cone:
        return Cone.orthant(self.d, self.m)


def mixed_operator_norm(p: MixedParams) -> float:
    """Operator norm 2^m / h^d."""
    return 2**p.m / p.h**p.d


def _mixed_scale(p: MixedParams) -> float:
    """The composed differences' averaging factor 1/(2^(d-m) h^d)."""
    return 1.0 / (2 ** (p.d - p.m) * p.h**p.d)


def _corner_terms(p: MixedParams):
    """(offset vector, sign) pairs of the composed difference stencil."""
    per_axis = []
    for i in range(p.d):
        if i < p.m:
            per_axis.append([(p.h, 1.0), (0.0, -1.0)])
        else:
            per_axis.append([(p.h, 1.0), (-p.h, -1.0)])
    for combo in itertools.product(*per_axis):
        off = np.array([c[0] for c in combo])
        sign = math.prod(c[1] for c in combo)
        yield off, sign


def mixed_operator_apply(f: GridField, p: MixedParams,
                         X: np.ndarray) -> np.ndarray:
    """Composed-difference average at the rows of the (N, d) array X, via
    the value callback."""
    if f.value_fn is None:
        raise GeometryError("pointwise mixed operator needs a value callback")
    acc = np.zeros(X.shape[0])
    for off, sign in _corner_terms(p):
        acc += sign * f.value_fn(X + off[None, :])
    return acc * _mixed_scale(p)


def mixed_operator_field(f: GridField, p: MixedParams):
    """Composed-difference average at every grid center, from the stored
    values: forward differences of k cells on the first m axes, central
    ones on the others, k the step in cells of each axis.

    Returns (values, valid_mask) over the full grid, like steklov_field;
    values is NaN off the mask of centers whose stencil fits the grid.
    """
    grid = f.grid
    out = f.values
    inner = []
    for axis in range(grid.d):
        k = _steps_for(grid, axis, p.h)
        n = grid.shape[axis]
        below = 0 if axis < p.m else k  # cells the stencil reaches below
        if n - below - k < 2:
            raise GeometryError("grid too small for the requested stencil")
        pre = (slice(None),) * axis
        out = out[pre + (slice(below + k, n),)] - out[pre + (slice(0, n - below - k),)]
        inner.append(slice(below, n - k))
    values = np.full(grid.shape, np.nan)
    values[tuple(inner)] = _mixed_scale(p) * out
    valid = np.zeros(grid.shape, dtype=bool)
    valid[tuple(inner)] = True
    return values, valid


def fubini_residual(f: GridField, p: MixedParams, x) -> float:
    """|integral of the mixed derivative over x + hK∩C - composed diffs(x)|.

    The integral side is midpoint quadrature of the analytic mixed
    derivative; the difference side uses the value callback.  For exact
    callbacks the residual is pure quadrature error.
    """
    if f.mixed_fn is None or f.value_fn is None:
        raise GeometryError("fubini check needs value and mixed callbacks")
    mixed = GridField.from_callback(f.grid, f.mixed_fn)
    nu = Charge(mixed, p.cone, check_support=False)
    x = np.asarray(x, dtype=float)
    integral = nu.window_value(p.body, x, p.h).value
    diffs = mixed_operator_apply(f, p, x[None, :])[0] / _mixed_scale(p)
    return abs(integral - diffs)
