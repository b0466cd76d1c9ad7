"""Charges induced by grid-sampled densities and their window seminorms.

A charge is an absolutely continuous set function nu(Q) = integral of a
density over Q, evaluated by midpoint quadrature on the density's grid.
The central primitive is the window value nu(y + hK∩C).  Its values at every
grid center come from the prefix-sum engine for box bodies with orthant
cones, and from one lattice correlation of the density with the indicator
of hK∩C for every other body and cone; a single window off the lattice
(the origin, say) is summed through a direct membership mask.  On top of it
sit the two seminorms: the sup over translates at fixed h, and its supremum
over all h > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import windows
from .geometry import ConvexBody, Cone, GeometryError, _lattice_indicator
from .grids import GridField, GridSpec
from .golden import golden_min

__all__ = [
    "Charge",
    "WindowValue",
    "SeminormResult",
    "SeminormKResult",
    "seminorm_Kh",
    "seminorm_K",
    "extremal_density",
    "extremal_charge",
    "grad_sup_polar",
]

_SUPPORT_EPS = 1e-12


@dataclass(frozen=True)
class WindowValue:
    value: float
    truncated: bool


@dataclass(frozen=True)
class SeminormResult:
    value: float
    argmax: np.ndarray
    truncated: bool


@dataclass(frozen=True)
class SeminormKResult:
    value: float
    h_opt: float
    flagged: bool


class Charge:
    """Density + cone, with cached prefix table and support box."""

    def __init__(self, density: GridField, cone: Cone, check_support: bool = True):
        if density.grid.d != cone.d:
            raise GeometryError("density grid and cone dimensions differ")
        if cone.kind == "orthant" and cone.m > 0:
            if np.any(density.grid.lo[: cone.m] != 0.0):
                raise GeometryError(
                    "orthant-constrained axes must start at 0 in the grid"
                )
        self.density = density
        self.cone = cone
        self._prefix = None
        self._support_lo, self._support_hi = self._support_box()
        if check_support:
            self._assert_margin()

    # -- support bookkeeping ----------------------------------------------

    def _support_box(self):
        v = self.density.values
        scale = float(np.max(np.abs(v))) if v.size else 0.0
        if scale == 0.0:
            return None, None
        mask = np.abs(v) > _SUPPORT_EPS * scale
        lo = []
        hi = []
        g = self.density.grid
        for axis in range(g.d):
            other = tuple(i for i in range(g.d) if i != axis)
            line = mask.any(axis=other) if other else mask
            idx = np.nonzero(line)[0]
            lo.append(g.lo[axis] + idx[0] * g.spacing[axis])
            hi.append(g.lo[axis] + (idx[-1] + 1) * g.spacing[axis])
        return np.array(lo), np.array(hi)

    def _assert_margin(self):
        """Support must leave at least one empty boundary cell per axis (an
        orthant-constrained axis may touch lo = 0)."""
        if self._support_lo is None:
            return
        g = self.density.grid
        sp = g.spacing
        m = self.cone.m if self.cone.kind == "orthant" else 0
        for axis in range(g.d):
            if axis >= m and self._support_lo[axis] < g.lo[axis] + sp[axis] * 0.5:
                raise GeometryError(
                    f"density support touches the lower grid boundary on axis {axis}"
                )
            if self._support_hi[axis] > g.hi[axis] - sp[axis] * 0.5:
                raise GeometryError(
                    f"density support touches the upper grid boundary on axis {axis}"
                )

    @property
    def is_zero(self) -> bool:
        return self._support_lo is None

    def prefix(self) -> np.ndarray:
        if self._prefix is None:
            self._prefix = windows.build_prefix(self.density.values)
        return self._prefix

    def total(self) -> float:
        return self.density.total()

    # -- window geometry ---------------------------------------------------

    def _window_bounds(self, K: ConvexBody, y: np.ndarray, h: float):
        """Per-axis bounds of the window y + hK∩C: exact for a box body with
        an orthant cone, the bounding box of y + hK otherwise."""
        r = h * K.bounding_radii()
        lo = y - r
        if self.cone.kind == "orthant":
            lo = np.where(np.arange(self.cone.d) < self.cone.m, y, lo)
        return lo, y + r

    def _fast_path(self, K: ConvexBody) -> bool:
        return K.is_box and self.cone.kind == "orthant"

    def _truncation_flag(self, wlo, whi) -> bool:
        if self._support_lo is None:
            return False
        g = self.density.grid
        escapes = np.any(wlo < g.lo - 1e-12) or np.any(whi > g.hi + 1e-12)
        if not escapes:
            return False
        sp = g.spacing
        near = np.all(whi > self._support_lo - sp) and np.all(
            wlo < self._support_hi + sp
        )
        return bool(near)

    # -- window values -----------------------------------------------------

    def window_value(self, K: ConvexBody, y, h: float,
                     method: str = "auto") -> WindowValue:
        """nu(y + hK∩C) by midpoint quadrature."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.cone.d,):
            raise GeometryError("translate has wrong dimension")
        if h <= 0:
            raise GeometryError("h must be positive")
        g = self.density.grid
        if method == "auto":
            method = "prefix" if self._fast_path(K) else "mask"
        if method in ("prefix", "direct"):
            if not self._fast_path(K):
                raise GeometryError("prefix/direct paths need box body + orthant cone")
            wlo, whi = self._window_bounds(K, y, h)
            i0s, i1s = [], []
            for axis in range(g.d):
                i0, i1 = windows.index_range(
                    g.lo[axis], g.spacing[axis], g.shape[axis],
                    wlo[axis], whi[axis],
                )
                i0s.append(np.array([i0]))
                i1s.append(np.array([i1]))
            if method == "prefix":
                s = float(windows.box_window_sums(self.prefix(), i0s, i1s).reshape(-1)[0])
            else:
                s = windows.box_window_sum_direct(self.density.values, i0s, i1s)
            return WindowValue(s * g.cell_volume, self._truncation_flag(wlo, whi))
        if method == "overlap":
            # exact cell-overlap integration: boundary cells contribute
            # their fractional volume, removing the O(spacing) edge error
            # of the strict-center paths
            if not self._fast_path(K):
                raise GeometryError("overlap path needs box body + orthant cone")
            wlo, whi = self._window_bounds(K, y, h)
            sub = self.density.values
            wvecs = []
            for axis in range(g.d):
                j0, j1, w = windows.overlap_weights(
                    g.lo[axis], g.spacing[axis], g.shape[axis],
                    wlo[axis], whi[axis],
                )
                if j1 <= j0:
                    return WindowValue(0.0, self._truncation_flag(wlo, whi))
                sub = sub[(slice(None),) * len(wvecs) + (slice(j0, j1),)]
                wvecs.append(w)
            for w in wvecs:
                sub = np.tensordot(sub, w, axes=([0], [0]))
            return WindowValue(float(sub), self._truncation_flag(wlo, whi))
        if method == "mask":
            total = 0.0
            flat = self.density.values.reshape(-1)
            for sl, pts in g.iter_center_chunks():
                u = pts - y[None, :]
                inside = (K.gauge_many(u) < h) & self.cone.member_many(u)
                if inside.any():
                    total += float(flat[sl][inside].sum())
            wlo, whi = self._window_bounds(K, y, h)
            return WindowValue(total * g.cell_volume, self._truncation_flag(wlo, whi))
        raise GeometryError(f"unknown window method {method!r}")

    def window_values_all(self, K: ConvexBody, h: float) -> np.ndarray:
        """nu(y + hK∩C) for y at every grid center.

        A box body with an orthant cone answers the windows from the prefix
        table; every other body and cone correlates the density with the
        indicator of hK∩C at the lattice offsets.  Both exclude a cell center
        on the window's boundary, up to the same relative tie tolerance.
        """
        if h <= 0:
            raise GeometryError("h must be positive")
        if self._fast_path(K):
            return self._prefix_values_all(K, h)
        return self._correlation_values_all(K, h)

    def _prefix_values_all(self, K: ConvexBody, h: float) -> np.ndarray:
        g = self.density.grid
        m = self.cone.m
        i0s, i1s = [], []
        for axis in range(g.d):
            c = g.axis_centers(axis)
            a = c if axis < m else c - h
            b = c + h
            i0, i1 = windows.index_ranges_batch(
                g.lo[axis], g.spacing[axis], g.shape[axis], a, b
            )
            i0s.append(i0)
            i1s.append(i1)
        return windows.box_window_sums(self.prefix(), i0s, i1s) * g.cell_volume

    def _correlation_values_all(self, K: ConvexBody, h: float) -> np.ndarray:
        g = self.density.grid
        sp = g.spacing
        # offsets o * spacing within the bounding box of hK; an offset of n
        # cells or more along an axis reaches no cell from any center
        r = np.minimum(np.floor(h * K.bounding_radii() / sp),
                       np.asarray(g.shape) - 1).astype(int)
        axes = [np.arange(-rk, rk + 1) * s for rk, s in zip(r, sp)]
        ind = _lattice_indicator(K, self.cone, h - windows._TIE * float(np.min(sp)), axes)
        return windows.lattice_window_sums(self.density.values, ind) * g.cell_volume


def seminorm_Kh(nu: Charge, K: ConvexBody, h: float,
                extra_candidates=()) -> SeminormResult:
    """Sup over translate centers of |nu(y + hK∩C)|.

    Candidate centers are all grid cell centers, whose window values come
    in one batch (Charge.window_values_all), plus the origin and any extra
    candidates supplied; the extremal families attain the sup there.
    """
    if h <= 0:
        raise GeometryError("h must be positive")
    g = nu.density.grid
    S = np.abs(nu.window_values_all(K, h))
    i = int(np.argmax(S))
    best = float(S.reshape(-1)[i])
    arg = g.flat_to_point(i)
    truncated = nu._truncation_flag(*nu._window_bounds(K, arg, h))
    candidates = [np.zeros(g.d)] + [np.asarray(c, dtype=float) for c in extra_candidates]
    for y in candidates:
        wv = nu.window_value(K, y, h)
        if abs(wv.value) > best:
            best, arg, truncated = abs(wv.value), y, wv.truncated
    return SeminormResult(best, np.asarray(arg, dtype=float), truncated)


def seminorm_K(nu: Charge, K: ConvexBody, h_max: float,
               refine_iters: int = 20, scan_points: int = 32,
               include_h=()) -> SeminormKResult:
    """sup_{h > 0} of the fixed-h seminorm.

    Coarse log-spaced scan over (0, h_max] followed by golden-section
    refinement around the best probe.  Ties are broken to the smallest h
    achieving the supremum within 1e-9.  Requires h_max at least the
    gauge diameter of the support for the plateau argument to apply.
    """
    if h_max <= 0:
        raise GeometryError("h_max must be positive")
    if nu.is_zero:
        return SeminormKResult(0.0, h_max, flagged=True)
    hs = list(np.geomspace(h_max / 100.0, h_max, scan_points))
    hs.extend(float(h) for h in include_h if 0 < h <= h_max)
    hs = sorted(set(hs))
    vals = {h: seminorm_Kh(nu, K, h).value for h in hs}
    h_best = max(hs, key=lambda h: vals[h])
    # golden refinement on log h around the best probe
    i = hs.index(h_best)
    lo = hs[max(i - 1, 0)]
    hi = hs[min(i + 1, len(hs) - 1)]
    if hi > lo and refine_iters > 0:
        t, fval = golden_min(
            lambda u: -seminorm_Kh(nu, K, math.exp(u)).value,
            math.log(lo), math.log(hi), iters=refine_iters,
        )
        h_ref = math.exp(t)
        vals[h_ref] = -fval
        hs = sorted(vals)
    best = max(vals.values())
    tol = 1e-9 * (1.0 + abs(best))
    h_opt = min(h for h in hs if vals[h] >= best - tol)
    return SeminormKResult(best, h_opt, flagged=False)


# -- the extremal density -------------------------------------------------


def extremal_density(K: ConvexBody, C: Cone, h: float, grid: GridSpec) -> GridField:
    """Density (h - |x|_K)_+ restricted to the cone, with analytic value and
    gradient callbacks; the gradient has polar norm 1 on the support."""
    if h <= 0:
        raise GeometryError("h must be positive")
    r = h * K.bounding_radii()
    for axis in range(grid.d):
        lo_ok = grid.lo[axis] <= (0.0 if (C.kind == "orthant" and axis < C.m) else -r[axis])
        if not (lo_ok and grid.hi[axis] >= r[axis]):
            raise GeometryError("grid does not cover the support hK∩C")

    value_fn, grad_fn = _extremal_callbacks(K, C, h)
    fld = GridField.from_callback(grid, value_fn, grad_fn=grad_fn)
    fld.sup_candidates.append(np.zeros(grid.d))
    return fld


def _extremal_callbacks(K: ConvexBody, C: Cone, h: float):
    """Value and gradient callbacks of (h - |x|_K)_+ on the closed cone."""

    def value_fn(pts):
        w = h - K.gauge_many(pts)
        inside = C.member_closure_many(pts)
        return np.where(inside & (w > 0), w, 0.0)

    def grad_fn(pts):
        g = K.gauge_many(pts)
        outside = ~(C.member_closure_many(pts) & (g > 0) & (g < h))
        G = K.gauge_gradient_many(pts)
        for k in range(G.shape[1]):
            col = G[:, k]
            np.negative(col, out=col)
            np.copyto(col, 0.0, where=outside)
        return G

    return value_fn, grad_fn


def extremal_charge(K: ConvexBody, C: Cone, h: float, grid: GridSpec) -> Charge:
    return Charge(extremal_density(K, C, h, grid), C)


def grad_sup_polar(f: GridField, K: ConvexBody, C: Cone) -> float:
    """Sup over the cone of the polar norm of the gradient of f.

    Uses the analytic gradient callback when present; otherwise componentwise
    central differences (one-sided at the boundary)."""
    if f.grad_fn is not None:
        return f.sup_abs("grad", transform=K.polar_norm_many, cone=C).value
    grads = np.gradient(f.values, *[f.grid.axis_centers(i) for i in range(f.grid.d)])
    if f.grid.d == 1:
        grads = [grads]
    G = np.stack([g.reshape(-1) for g in grads], axis=-1)
    return float(np.max(K.polar_norm_many(G)))
