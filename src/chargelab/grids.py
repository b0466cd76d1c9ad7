"""Uniform rectangular grids and densities sampled at their cell centers.

Fields carry the sampled values plus optional analytic callbacks: the value
itself, its gradient, the full mixed derivative d^d f/dx_1..dx_d, and the
gradient of that mixed derivative.  Callbacks take an (N, d) array of points
and are preferred over finite differences wherever they exist, so that
sharpness checks are not polluted by discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import Cone, GeometryError, _lattice_slabs

__all__ = ["GridSpec", "GridField", "SupResult"]

PointFn = Callable[[np.ndarray], np.ndarray]
"""A callback: an (N, d) array of points to N values ((N, d) for a vector
callback).  The sweeps pass slabs of one array that they overwrite for the
next chunk, possibly column-major: a callback reads its points during the
call and keeps neither the array nor a view of it."""


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned uniform grid; samples live at cell centers."""

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if lo.shape != hi.shape or lo.shape != (len(self.shape),):
            raise GeometryError("inconsistent grid bounds/shape")
        if np.any(hi <= lo):
            raise GeometryError("grid bounds must satisfy hi > lo")
        if any(n < 2 for n in self.shape):
            raise GeometryError("need at least 2 cells per axis")

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / np.asarray(self.shape, dtype=float)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def axis_centers(self, i: int) -> np.ndarray:
        n = self.shape[i]
        return self.lo[i] + (np.arange(n) + 0.5) * self.spacing[i]

    def iter_center_chunks(self):
        """Yield (flat_slice, points) chunks covering every center once, in
        flat (C) order.  points is an (N, d) array that every chunk reuses
        (see `PointFn`)."""
        block = self.size // self.shape[0]
        axes = [self.axis_centers(i) for i in range(self.d)]
        for j, pts in enumerate(_lattice_slabs(axes)):
            yield slice(j * block, j * block + len(pts)), pts

    def flat_to_point(self, flat_index: int) -> np.ndarray:
        idx = np.unravel_index(flat_index, self.shape)
        return np.array(
            [self.lo[i] + (idx[i] + 0.5) * self.spacing[i] for i in range(self.d)]
        )

    @classmethod
    def for_cone(cls, d: int, m: int, radius: float, n: int,
                 margin: float = 0.0) -> "GridSpec":
        """Grid covering the radius-box around the origin, clipped to the
        orthant cone on the first m axes (lo = 0 there)."""
        r = radius + margin
        lo = np.array([0.0 if i < m else -r for i in range(d)])
        hi = np.full(d, r)
        return cls(lo, hi, (n,) * d)

    def refine(self, factor: int) -> "GridSpec":
        return GridSpec(self.lo, self.hi, tuple(n * factor for n in self.shape))

    def trim(self, lo_cells: Sequence[int], hi_cells: Sequence[int]) -> "GridSpec":
        """Drop cells from each end of every axis (for difference stencils)."""
        sp = self.spacing
        lo = self.lo + np.asarray(lo_cells) * sp
        hi = self.hi - np.asarray(hi_cells) * sp
        shape = tuple(
            n - a - b for n, a, b in zip(self.shape, lo_cells, hi_cells)
        )
        return GridSpec(lo, hi, shape)

    def key(self) -> str:
        return "x".join(str(n) for n in self.shape)


@dataclass(frozen=True)
class SupResult:
    value: float
    argmax: np.ndarray


@dataclass
class GridField:
    """Density/function samples on a GridSpec, with optional callbacks.

    Invariant: when value_fn is given, `values` holds its samples at the
    cell centers (`from_callback` builds them so), which lets `sup_abs`
    read the value sup from `values`; `check_callback_consistency` measures
    how far a field departs from it (fields of shifted differences agree
    only to rounding).
    """

    grid: GridSpec
    values: np.ndarray
    value_fn: Optional[PointFn] = None
    grad_fn: Optional[PointFn] = None
    mixed_fn: Optional[PointFn] = None
    mixed_grad_fn: Optional[PointFn] = None
    sup_candidates: list = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GeometryError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    @classmethod
    def from_callback(cls, grid: GridSpec, value_fn: PointFn, **kw) -> "GridField":
        values = np.empty(grid.shape, dtype=float)
        flat = values.reshape(-1)
        for sl, pts in grid.iter_center_chunks():
            flat[sl] = value_fn(pts)
        return cls(grid=grid, values=values, value_fn=value_fn, **kw)

    # -- sups over the sampled region -------------------------------------

    def _callback(self, which: str) -> Optional[PointFn]:
        return {
            "value": self.value_fn,
            "grad": self.grad_fn,
            "mixed": self.mixed_fn,
            "mixed_grad": self.mixed_grad_fn,
        }[which]

    def sup_abs(self, which: str = "value", transform=None,
                cone: Cone | None = None) -> SupResult:
        """Sup of |f| (or |transform(gradient rows)|) over cell centers plus
        any registered candidate points in the closure of `cone`.

        The value sup over the centers reads the stored `values`; callbacks
        run at the candidates and, for the other callbacks, at every center.
        transform maps an (N, d) array of gradients to (N,) scalars; when
        given, `which` must name a vector callback.
        """
        fn = self._callback(which)
        if which == "value" and transform is None:
            mag = np.abs(self.values.reshape(-1))
            i = int(np.argmax(mag))
            best, arg = float(mag[i]), self.grid.flat_to_point(i)
        elif fn is None:
            raise GeometryError(f"field has no analytic {which} callback")
        else:
            best, arg = -np.inf, None
            for _, pts in self.grid.iter_center_chunks():
                out = fn(pts)
                mag = np.abs(out) if transform is None else np.abs(transform(out))
                j = int(np.argmax(mag))
                if mag[j] > best:
                    best = float(mag[j])
                    arg = pts[j].copy()  # pts is overwritten by the next chunk
        if fn is not None:
            for cand in self.sup_candidates:
                cand = np.asarray(cand, dtype=float)
                if cone is not None and not cone.member_closure(cand):
                    continue
                out = fn(cand[None, :])
                mag = np.abs(out) if transform is None else np.abs(transform(out))
                if float(mag[0]) > best:
                    best = float(mag[0])
                    arg = cand
        return SupResult(best, np.asarray(arg, dtype=float))

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values))) * self.grid.cell_volume

    def total(self) -> float:
        return float(np.sum(self.values)) * self.grid.cell_volume

    def scaled(self, factor: float) -> "GridField":
        def wrap(fn):
            if fn is None:
                return None
            return lambda pts, _fn=fn: factor * _fn(pts)

        return GridField(
            grid=self.grid,
            values=factor * self.values,
            value_fn=wrap(self.value_fn),
            grad_fn=wrap(self.grad_fn),
            mixed_fn=wrap(self.mixed_fn),
            mixed_grad_fn=wrap(self.mixed_grad_fn),
            sup_candidates=list(self.sup_candidates),
        )

    def check_callback_consistency(self, atol: float = 1e-12) -> float:
        """Max |sampled - callback| over cell centers (should be ~0)."""
        if self.value_fn is None:
            return 0.0
        worst = 0.0
        flat = self.values.reshape(-1)
        for sl, pts in self.grid.iter_center_chunks():
            worst = max(worst, float(np.max(np.abs(flat[sl] - self.value_fn(pts)))))
        return worst
