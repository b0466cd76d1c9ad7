"""Charges induced by grid-sampled densities and their window seminorms.

A charge is an absolutely continuous set function nu(Q) = integral of a
density over Q, evaluated by midpoint quadrature on the density's grid.
The central primitive is the window value nu(y + hK∩C), and this module
makes every decision about windows: their per-axis extent, whether they lie
inside the grid (Charge.full_windows), and which engine sums them
(box_path).  The values at every grid center come from the prefix-sum
engine for box bodies with orthant cones, and from one lattice correlation
of the density with the indicator of hK∩C for every other body and cone.  A
single window at any point (the origin, say) sums the density over the
cells of its own bounding box, under its batch engine's membership rule and
tie tolerance.  For box bodies with orthant cones the prefix table also
gives fractional windows, where cells cut by a face count with the fraction
inside.  On top of it sit the two seminorms: the sup over translates at
fixed h, and its supremum over all h > 0.  The windows gain or lose a cell
center only at the plateau edges (Charge.plateau_edges), where the fixed-h
seminorm can step.

A Charge caches what its density determines: the prefix table, the support
box, and a memo (Charge.memo) of small results that several reports on one
charge read: seminorm_Kh per body and h, and, for the report builders, the
density's sup and its polar-gradient sup per body and cone.  Bodies and
cones key the memo by identity.  Every cache assumes that the density does
not change once the charge is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import windows
from .geometry import (ConvexBody, Cone, GeometryError, _check_radius,
                       _lattice_gauges, _lattice_indicator)
from .grids import GridField, GridSpec
from .golden import golden_min

__all__ = [
    "box_path",
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
    gap: float  # bound on sup_h - value over h <= h_max; 0.0 when exact


def box_path(K: ConvexBody, C: Cone) -> bool:
    """Whether the windows of (K, C) take the prefix table: a box body with
    an orthant cone.  Every other pair correlates, and has no fractional
    windows."""
    return K.is_box and C.kind == "orthant"


class Charge:
    """Density + cone, with cached prefix table, support box and memo.

    The memo (Charge.memo) computes each keyed result once per charge, so
    the additive and the multiplicative report on one charge share one
    gradient sweep and one window sweep at h.  It holds small results only
    (sups, SeminormResult), never a grid-sized array.  Bodies and cones key
    it by identity, and each entry keeps its key objects, so that no id in
    a key is reused while the charge lives; an equal but distinct body
    recomputes.  Like the prefix table, the memo assumes that the density
    does not change after the charge is built.
    """

    def __init__(self, density: GridField, cone: Cone, check_support: bool = True):
        if density.grid.d != cone.d:
            raise GeometryError("density grid and cone dimensions differ")
        if cone.m > 0:
            if np.any(density.grid.lo[: cone.m] != 0.0):
                raise GeometryError(
                    "orthant-constrained axes must start at 0 in the grid"
                )
        self.density = density
        self.cone = cone
        self._prefix = None
        self._memo = {}
        self._support_lo, self._support_hi = self._support_box()
        if check_support:
            self._assert_margin()

    # -- support bookkeeping ----------------------------------------------

    def _support_box(self):
        a = np.abs(self.density.values)
        d = a.ndim
        # an axis is occupied where the max of |v| over the other axes passes
        # the threshold; the max over the first axis holds every such line
        # but the first axis' own, which the max over the last axis holds
        head, tail = (a.max(axis=0), a.max(axis=-1)) if d > 1 else (a, a)
        scale = float(head.max())
        if scale == 0.0:
            return None, None
        lines = [tail.max(axis=tuple(range(1, d - 1)))] + [
            head.max(axis=tuple(i for i in range(d - 1) if i != axis - 1))
            for axis in range(1, d)]
        lo = []
        hi = []
        g = self.density.grid
        for axis, line in enumerate(lines):
            idx = np.nonzero(line > _SUPPORT_EPS * scale)[0]
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
        m = self.cone.m
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

    def memo(self, name: str, objs: tuple, compute, h: float | None = None):
        """compute(), once per charge for each name, identity of every
        object in objs and value of h; compute must depend on nothing else
        that changes.  Every hit returns the stored object itself, which
        callers must not modify."""
        key = (name, tuple(map(id, objs)), h)
        if key not in self._memo:
            self._memo[key] = (objs, compute())
        return self._memo[key][1]

    # -- window geometry ---------------------------------------------------

    def _window_bounds(self, K: ConvexBody, h: float, centers=None):
        """Per-axis ends of the windows y + hK∩C: exact for a box body with
        an orthant cone, the bounding box of y + hK otherwise.  For one
        point y, the ends of its window; for centers=None, per axis the ends
        of the windows at every grid center's coordinate along that axis."""
        if centers is None:
            g = self.density.grid
            centers = [g.axis_centers(axis) for axis in range(g.d)]
        r = h * K.bounding_radii()
        m = self.cone.m
        return ([c if k < m else c - r[k] for k, c in enumerate(centers)],
                [c + r[k] for k, c in enumerate(centers)])

    def _inside_grid(self, wlo, whi) -> list:
        """Per axis, whether the window ends lie inside the sampled region."""
        g = self.density.grid
        return [(a >= lo - 1e-12) & (b <= hi + 1e-12)
                for a, b, lo, hi in zip(wlo, whi, g.lo, g.hi)]

    def full_windows(self, K: ConvexBody, h: float) -> np.ndarray:
        """Boolean array over grid centers whose window y + hK∩C (its
        per-axis ends) lies fully inside the sampled region."""
        ok = self._inside_grid(*self._window_bounds(K, h))
        mask = ok[0]
        for a in ok[1:]:
            mask = np.multiply.outer(mask, a)
        return mask.reshape(self.density.grid.shape)

    def _fast_path(self, K: ConvexBody) -> bool:
        return box_path(K, self.cone)

    def _truncation_flag(self, wlo, whi) -> bool:
        if self._support_lo is None or all(self._inside_grid(wlo, whi)):
            return False
        sp = self.density.grid.spacing
        near = np.all(np.asarray(whi) > self._support_lo - sp) and np.all(
            np.asarray(wlo) < self._support_hi + sp
        )
        return bool(near)

    # -- window values -----------------------------------------------------

    def window_value(self, K: ConvexBody, y, h: float,
                     method: str = "auto") -> WindowValue:
        """nu(y + hK∩C) by midpoint quadrature, summed over the cells of
        the window's own bounding box under the rule of its batch engine
        (window_values_all): "auto" counts the cells whose centers lie
        inside, and "overlap" (box body with orthant cone) takes the
        fractional window of fractional_values_all.

        A box body with an orthant cone holds the cells of the per-axis
        index ranges of its ends (windows.index_ranges_batch).  Every other
        body and cone widens those ranges by one cell on each side and keeps
        the centers c with c - y in the open set (h - tie) K∩C, the
        tolerance of the lattice correlation."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.cone.d,):
            raise GeometryError("translate has wrong dimension")
        _check_radius(h)
        if method not in ("auto", "overlap"):
            raise GeometryError(f"unknown window method {method!r}")
        g = self.density.grid
        wlo, whi = self._window_bounds(K, h, y)
        truncated = self._truncation_flag(wlo, whi)
        box = self._fast_path(K)
        if method == "overlap":
            if not box:
                raise GeometryError("overlap path needs box body + orthant cone")
            s = self._box_sums([np.array([a]) for a in wlo],
                               [np.array([b]) for b in whi], fractional=True)
            return WindowValue(float(s.reshape(-1)[0]), truncated)
        n = np.array(g.shape)
        i0s, i1s = windows.index_ranges_batch(g.lo, g.spacing, n, wlo, whi)
        if not box:
            i0s, i1s = np.maximum(i0s - 1, 0), np.minimum(i1s + 1, n)
        if (i1s <= i0s).any():
            return WindowValue(0.0, truncated)
        cells = self.density.values[tuple(map(slice, i0s, i1s))]
        if not box:
            offsets = [g.axis_centers(k)[i0:i1] - y[k]
                       for k, (i0, i1) in enumerate(zip(i0s, i1s))]
            tie = self._kernel_lattice(K, h)[1]
            cells = cells * _lattice_indicator(K, self.cone, h - tie, offsets)
        return WindowValue(float(cells.sum()) * g.cell_volume, truncated)

    def window_values_all(self, K: ConvexBody, h: float) -> np.ndarray:
        """nu(y + hK∩C) for y at every grid center.

        A box body with an orthant cone answers the windows from the prefix
        table; every other body and cone correlates the density with the
        indicator of hK∩C at the lattice offsets.  Both exclude a cell center
        on the window's boundary, up to the same relative tie tolerance.
        """
        _check_radius(h)
        if self._fast_path(K):
            return self._box_sums(*self._window_bounds(K, h))
        return self._correlation_values_all(K, h)

    def fractional_values_all(self, K: ConvexBody, h: float) -> np.ndarray:
        """nu(y + hK∩C) for y at every grid center, cells cut by a window's
        faces counting with the fraction inside: the exact integral of the
        piecewise-constant density.  Box body with orthant cone only."""
        _check_radius(h)
        if not self._fast_path(K):
            raise GeometryError("fractional windows need box body + orthant cone")
        return self._box_sums(*self._window_bounds(K, h), fractional=True)

    def _box_sums(self, wlos, whis, fractional: bool = False) -> np.ndarray:
        """nu over the boxes with per-axis ends [wlos[k], whis[k]], one per
        combination, from the prefix table: strict boxes count the cells
        whose centers lie inside, fractional ones also the cells cut by a
        face, with the fraction inside (the exact integral)."""
        g = self.density.grid
        if fractional:
            i0s = [(a - lo) / sp for a, lo, sp in zip(wlos, g.lo, g.spacing)]
            i1s = [(b - lo) / sp for b, lo, sp in zip(whis, g.lo, g.spacing)]
        else:
            i0s, i1s = zip(*(windows.index_ranges_batch(lo, sp, n, a, b)
                             for lo, sp, n, a, b
                             in zip(g.lo, g.spacing, g.shape, wlos, whis)))
        out = windows.box_window_sums(self.prefix(), i0s, i1s)
        out *= g.cell_volume
        return out

    def _kernel_lattice(self, K: ConvexBody, h: float):
        """The lattice correlation's kernel at h: per axis the offsets
        o * spacing within the bounding box of hK, under n cells (a longer
        one reaches no cell), and its tie tolerance windows._TIE * min(sp)."""
        g = self.density.grid
        sp = g.spacing
        r = np.minimum(np.floor(h * K.bounding_radii() / sp),
                       np.asarray(g.shape) - 1).astype(int)
        return ([np.arange(-rk, rk + 1) * s for rk, s in zip(r, sp)],
                windows._TIE * float(np.min(sp)))

    def _correlation_values_all(self, K: ConvexBody, h: float) -> np.ndarray:
        axes, tie = self._kernel_lattice(K, h)
        ind = _lattice_indicator(K, self.cone, h - tie, axes)
        return (windows.lattice_window_sums(self.density.values, ind)
                * self.density.grid.cell_volume)

    def plateau_edges(self, K: ConvexBody, h_max: float) -> np.ndarray:
        """Sorted h in (0, h_max) past which some window y + hK∩C of
        seminorm_Kh (at a grid center or the origin) gains a cell center.
        No window changes its cells on (b_prev, b] between consecutive
        edges, so neither does seminorm_Kh.

        A window holds the centers strictly inside it, a tie tolerance
        (windows._TIE cells) away from its boundary.  On the prefix path
        the ends of a grid center's window pass the centers j = 0, 1, ...
        cells away at h = (j + tie) sp_k / r_k, and the origin's pass the
        center c at (|c| + tie sp_k) / r_k (r the bounding radii of K).  On
        the correlation path a grid center's window admits a kernel offset o
        in the cone at h = |o|_K + tie min(sp), and the origin's a center c
        in the cone at h = |c|_K + tie min(sp)."""
        g = self.density.grid
        if self._fast_path(K):
            sp, radii, tie = g.spacing, K.bounding_radii(), windows._TIE
            edges = np.concatenate(
                [part for k in range(g.d) for part in (
                    (np.arange(g.shape[k]) + tie) * sp[k] / radii[k],
                    (np.abs(g.axis_centers(k)) + tie * sp[k]) / radii[k])])
        else:
            offsets, tie = self._kernel_lattice(K, h_max)
            centers = [g.axis_centers(k) for k in range(g.d)]
            edges = np.concatenate(
                [_lattice_gauges(K, self.cone, h_max - tie, a) + tie
                 for a in (offsets, centers)])
        edges = np.unique(edges)
        return edges[(edges > 0) & (edges < h_max)]


def seminorm_Kh(nu: Charge, K: ConvexBody, h: float) -> SeminormResult:
    """Sup over translate centers of |nu(y + hK∩C)|.

    Candidate centers are all grid cell centers, whose window values come
    in one batch (Charge.window_values_all), plus the origin, where the
    extremal families attain the sup.  The result is memoized on the charge
    per K (by identity) and h.
    """
    _check_radius(h)
    return nu.memo("seminorm_Kh", (K,), lambda: _seminorm_sweep(nu, K, h),
                   float(h))


def _seminorm_sweep(nu: Charge, K: ConvexBody, h: float) -> SeminormResult:
    g = nu.density.grid
    S = nu.window_values_all(K, h)
    np.abs(S, out=S)
    i = int(np.argmax(S))
    best = float(S.reshape(-1)[i])
    arg = g.flat_to_point(i)
    truncated = nu._truncation_flag(*nu._window_bounds(K, h, arg))
    origin = np.zeros(g.d)
    wv = nu.window_value(K, origin, h)
    if abs(wv.value) > best:
        best, arg, truncated = abs(wv.value), origin, wv.truncated
    return SeminormResult(best, arg, truncated)


def seminorm_K(nu: Charge, K: ConvexBody, h_max: float,
               include_h=()) -> SeminormKResult:
    """sup over 0 < h <= h_max of the fixed-h seminorm (value), an h_opt
    that attains it within 1e-9 * (1 + value), and a bound (gap) on how far
    the value may fall short of the sup.

    K∩C is star-shaped about 0, so each window y + hK∩C, and the set of
    cell centers it holds, grows with h.  A charge of one sign on every
    cell therefore has a nondecreasing seminorm_Kh, constant on (b_prev, b]
    between consecutive plateau edges (Charge.plateau_edges).  Its value is
    one sweep at h_max, exact on the lattice: gap 0.0.  h_opt is the
    smallest include_h value in (0, h_max] that attains, else the smallest
    edge (or h_max) that does, the right end of the first plateau that
    attains; each is a bisection at one sweep per step.

    A signed charge keeps a scan: 32 log-spaced probes over
    [h_max/100, h_max] plus the include_h values, then 20 golden-section
    steps on log h between the neighbours of the best probe; h_opt is the
    smallest of these h that attains.  For h <= h_max,
    |nu(y + hK∩C)| <= max(nu+, nu-)(y + h_max K∩C), so two sweeps at h_max,
    over the positive and negative parts, bound every window the scan may
    have missed: gap is that bound less the value (at least 0.0).

    h_max should be at least the gauge diameter of the support, for the
    sup over h <= h_max to be the sup over every h > 0.
    """
    _check_radius(h_max, "h_max")
    if nu.is_zero:
        return SeminormKResult(0.0, h_max, 0.0)
    v = nu.density.values
    extra = sorted({float(h) for h in include_h if 0 < h <= h_max})
    if np.all(v >= 0) or np.all(v <= 0):
        best = seminorm_Kh(nu, K, h_max).value
        tol = 1e-9 * (1.0 + best)

        def attains(h):
            return seminorm_Kh(nu, K, h).value >= best - tol

        i = _first(attains, extra)
        if i < len(extra):
            return SeminormKResult(best, extra[i], 0.0)
        edges = nu.plateau_edges(K, h_max)
        # every edge up to the largest include_h value falls short
        hs = [float(b) for b in edges[edges > (extra[-1] if extra else 0.0)]]
        return SeminormKResult(best, (hs + [h_max])[_first(attains, hs)], 0.0)
    hs = sorted(set(np.geomspace(h_max / 100.0, h_max, 32)).union(extra))
    vals = {h: seminorm_Kh(nu, K, h).value for h in hs}
    h_best = max(hs, key=lambda h: vals[h])
    # golden refinement on log h around the best probe
    i = hs.index(h_best)
    lo = hs[max(i - 1, 0)]
    hi = hs[min(i + 1, len(hs) - 1)]
    if hi > lo:
        t, fval = golden_min(
            lambda u: -seminorm_Kh(nu, K, math.exp(u)).value,
            math.log(lo), math.log(hi), iters=20,
        )
        h_ref = math.exp(t)
        vals[h_ref] = -fval
        hs = sorted(vals)
    best = max(vals.values())
    tol = 1e-9 * (1.0 + abs(best))
    h_opt = min(h for h in hs if vals[h] >= best - tol)
    bound = max(seminorm_Kh(Charge(GridField(nu.density.grid, part), nu.cone,
                                   check_support=False), K, h_max).value
                for part in (np.maximum(v, 0.0), np.maximum(-v, 0.0)))
    return SeminormKResult(best, h_opt, max(bound - best, 0.0))


def _first(pred, xs) -> int:
    """Index of the first x in the sorted list xs with pred(x), len(xs) when
    there is none, by bisection: pred must be False, then True along xs."""
    lo, hi = -1, len(xs)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(xs[mid]):
            hi = mid
        else:
            lo = mid
    return hi


# -- the extremal density -------------------------------------------------


def extremal_density(K: ConvexBody, C: Cone, h: float, grid: GridSpec) -> GridField:
    """Density (h - |x|_K)_+ restricted to the cone, with analytic value and
    gradient callbacks; the gradient has polar norm 1 on the support."""
    _check_radius(h)
    r = h * K.bounding_radii()
    for axis in range(grid.d):
        lo_ok = grid.lo[axis] <= (0.0 if axis < C.m else -r[axis])
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
    """Sup over the cone of the polar norm of the gradient of f, from its
    analytic gradient callback (GeometryError when f has none)."""
    return f.sup_abs("grad", transform=K.polar_norm_many, cone=C).value
