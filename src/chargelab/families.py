"""Built-in analytic density/function families.

Everything here is separable: f(x) = prod_i g_i(x_i) with each per-axis
component carrying (g, g', g'').  That is enough to supply all callbacks a
GridField can hold -- value, gradient, full mixed derivative and its
gradient -- in closed form, which the sharpness checks rely on.  Compact
support is enforced with quartic bump factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import GeometryError
from .grids import GridField, GridSpec

__all__ = [
    "Component",
    "bump",
    "gaussian_component",
    "sine_component",
    "poly_component",
    "separable_field",
    "sum_fields",
    "make_density",
    "random_separable_field",
]


@dataclass(frozen=True)
class Component:
    """Per-axis factor with first and second derivatives."""

    g: Callable[[np.ndarray], np.ndarray]
    g1: Callable[[np.ndarray], np.ndarray]
    g2: Callable[[np.ndarray], np.ndarray]

    def __mul__(self, other: "Component") -> "Component":
        return Component(
            g=lambda t: self.g(t) * other.g(t),
            g1=lambda t: self.g1(t) * other.g(t) + self.g(t) * other.g1(t),
            g2=lambda t: (
                self.g2(t) * other.g(t)
                + 2.0 * self.g1(t) * other.g1(t)
                + self.g(t) * other.g2(t)
            ),
        )


def bump(center: float, radius: float) -> Component:
    """Quartic bump (1 - u^2)^2 on |u| < 1, u = (t - center)/radius."""

    def u(t):
        return (np.asarray(t, dtype=float) - center) / radius

    def g(t):
        v = u(t)
        w = np.maximum(1.0 - v * v, 0.0)
        return w * w

    def g1(t):
        v = u(t)
        w = np.maximum(1.0 - v * v, 0.0)
        return -4.0 * v * w / radius

    def g2(t):
        v = u(t)
        inside = np.abs(v) < 1.0
        return np.where(inside, (12.0 * v * v - 4.0) / radius**2, 0.0)

    return Component(g, g1, g2)


def gaussian_component(center: float, width: float, amp: float = 1.0) -> Component:
    def g(t):
        v = (np.asarray(t, dtype=float) - center) / width
        return amp * np.exp(-v * v)

    def g1(t):
        v = (np.asarray(t, dtype=float) - center) / width
        return amp * np.exp(-v * v) * (-2.0 * v / width)

    def g2(t):
        v = (np.asarray(t, dtype=float) - center) / width
        return amp * np.exp(-v * v) * (4.0 * v * v - 2.0) / width**2

    return Component(g, g1, g2)


def sine_component(freq: float, phase: float = 0.0, amp: float = 1.0) -> Component:
    return Component(
        g=lambda t: amp * np.sin(freq * np.asarray(t, dtype=float) + phase),
        g1=lambda t: amp * freq * np.cos(freq * np.asarray(t, dtype=float) + phase),
        g2=lambda t: -amp * freq**2 * np.sin(freq * np.asarray(t, dtype=float) + phase),
    )


def poly_component(coeffs) -> Component:
    """Polynomial sum_k c_k t^k."""
    p = np.polynomial.Polynomial(list(coeffs))
    p1 = p.deriv()
    p2 = p1.deriv()
    return Component(g=lambda t: p(np.asarray(t, dtype=float)),
                     g1=lambda t: p1(np.asarray(t, dtype=float)),
                     g2=lambda t: p2(np.asarray(t, dtype=float)))


def _product_callbacks(comps: list[Component]):
    """value_fn, grad_fn, mixed_fn and mixed_grad_fn of prod_i g_i(x_i): the
    product of the per-axis factors at derivative order 0 (the value) and
    1 (the mixed derivative), and its product-rule gradient at each."""

    def factors(pts, order):
        return [(c.g, c.g1, c.g2)[order](pts[:, i]) for i, c in enumerate(comps)]

    def product(order):
        def fn(pts):
            out = np.ones(pts.shape[0])
            for f in factors(pts, order):
                out *= f
            return out
        return fn

    def gradient(order):
        def fn(pts):
            vals, ders = factors(pts, order), factors(pts, order + 1)
            G = np.empty_like(pts)
            for j, col in enumerate(ders):
                G[:, j] = col
                for i, v in enumerate(vals):
                    if i != j:
                        G[:, j] *= v
            return G
        return fn

    return product(0), gradient(0), product(1), gradient(1)


def separable_field(grid: GridSpec, comps: list[Component]) -> GridField:
    if len(comps) != grid.d:
        raise GeometryError("need one component per axis")
    value_fn, grad_fn, mixed_fn, mixed_grad_fn = _product_callbacks(comps)
    return GridField.from_callback(
        grid, value_fn, grad_fn=grad_fn, mixed_fn=mixed_fn,
        mixed_grad_fn=mixed_grad_fn,
    )


def sum_fields(fields: list[GridField]) -> GridField:
    """Pointwise sum; callbacks are summed where every term has them."""
    grid = fields[0].grid
    values = sum(f.values for f in fields)

    def combine(name):
        fns = [getattr(f, name) for f in fields]
        if any(fn is None for fn in fns):
            return None
        return lambda pts: sum(fn(pts) for fn in fns)

    names = ("value_fn", "grad_fn", "mixed_fn", "mixed_grad_fn")
    return GridField(grid=grid, values=values, **{k: combine(k) for k in names},
                     sup_candidates=[c for f in fields for c in f.sup_candidates])


def _axis_bump(grid: GridSpec, axis: int):
    """Bump over the middle 88% of the axis, leaving a support margin."""
    lo, hi = grid.lo[axis], grid.hi[axis]
    return bump(0.5 * (lo + hi), 0.5 * (hi - lo) * 0.88)


def make_density(name: str, grid: GridSpec, *, width: float = 1.0) -> GridField:
    """Named built-in densities, each a separable product of a per-axis
    factor and an axis bump: "gaussian" exp(-(x_i/width)^2), "sin"
    sin(pi x_i) and "poly" x_i.  width applies to "gaussian" only."""
    if name == "gaussian":
        factors = [gaussian_component(0.0, width) for _ in range(grid.d)]
    elif name == "sin":
        factors = [sine_component(math.pi) for _ in range(grid.d)]
    elif name == "poly":
        factors = [poly_component([0.0, 1.0]) for _ in range(grid.d)]
    else:
        raise GeometryError(f"unknown density family {name!r}")
    return separable_field(
        grid, [g * _axis_bump(grid, i) for i, g in enumerate(factors)])


def random_separable_field(rng: np.random.Generator, grid: GridSpec) -> GridField:
    """Random compactly supported smooth field (mixture of separable terms)."""
    fields = []
    for _ in range(int(rng.integers(1, 4))):
        comps = []
        for i in range(grid.d):
            lo, hi = grid.lo[i], grid.hi[i]
            span = hi - lo
            c = rng.uniform(lo + 0.35 * span, hi - 0.35 * span)
            r = rng.uniform(0.15, 0.3) * span
            base = bump(c, r)
            kind = rng.integers(0, 2)
            if kind == 0:
                base = base * gaussian_component(
                    c + rng.uniform(-0.1, 0.1) * span,
                    rng.uniform(0.2, 0.6) * span,
                    rng.uniform(-1.5, 1.5) if i == 0 else 1.0,
                )
            else:
                base = base * sine_component(
                    rng.uniform(0.5, 4.0), rng.uniform(0, 2 * math.pi),
                    rng.uniform(-1.5, 1.5) if i == 0 else 1.0,
                )
            comps.append(base)
        fields.append(separable_field(grid, comps))
    return sum_fields(fields)
