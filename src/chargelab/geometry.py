"""Symmetric convex bodies and convex cones.

A body K is an open bounded convex set, symmetric about the origin, given
either as a polytope (vertices + facets) or as a p-ball.  It carries the
Minkowski gauge |x|_K, the dual (polar) norm |x|_{K°}, and the gradient of
the gauge.  Cones are either orthant products R^m_+ x R^(d-m) or finite
halfspace intersections.  Volumes of K∩C and the integral of the gauge over
hK∩C are computed exactly where a closed form exists and by grid or
Monte-Carlo quadrature otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConvexBody",
    "Cone",
    "GeometryError",
    "VolumeEstimate",
    "volume_body_cone",
    "layer_cake_integral",
    "layer_cake_closed_form",
]

_SYM_TOL = 1e-12


class GeometryError(ValueError):
    """Invalid body/cone input or unsupported method request."""


def _as_vector(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise GeometryError(f"expected a vector of dimension {d}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise GeometryError("non-finite input vector")
    return x


@dataclass(frozen=True)
class ConvexBody:
    """Open bounded convex body, symmetric about the origin.

    kind is "pball" (unit ball of the p-norm, p in [1, inf]) or "polytope"
    (vertices and facets both present; either can be completed from the
    other at construction for d <= 4).  Facets are (unit outward normal,
    offset) pairs with the body {x : (x, n_i) < delta_i for all i}.
    """

    d: int
    kind: str
    p: float | None = None
    vertices: np.ndarray | None = None  # (nv, d)
    facet_normals: np.ndarray | None = None  # (nf, d), unit rows
    facet_offsets: np.ndarray | None = None  # (nf,), > 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def box(cls, d: int) -> "ConvexBody":
        """The open cube (-1, 1)^d, i.e. the unit inf-ball."""
        return cls.pball(d, math.inf)

    @classmethod
    def pball(cls, d: int, p: float) -> "ConvexBody":
        if d < 1:
            raise GeometryError("dimension must be >= 1")
        if not (p >= 1):
            raise GeometryError("p must lie in [1, inf]")
        return cls(d=d, kind="pball", p=float(p))

    @classmethod
    def polytope(cls, d: int, vertices=None, facets=None) -> "ConvexBody":
        """Build a symmetric polytope from vertices and/or facets.

        Completion of the missing representation (convex hull or halfspace
        intersection) is supported for d <= 4.
        """
        if d < 1:
            raise GeometryError("dimension must be >= 1")
        if vertices is None and facets is None:
            raise GeometryError("need vertices or facets")
        verts = None if vertices is None else np.asarray(vertices, dtype=float)
        if facets is not None:
            normals = np.asarray([f[0] for f in facets], dtype=float)
            offsets = np.asarray([f[1] for f in facets], dtype=float)
            norms = np.linalg.norm(normals, axis=1)
            normals = normals / norms[:, None]
            offsets = offsets / norms
        else:
            normals = offsets = None

        if verts is None:
            if d > 4:
                raise GeometryError("vertex enumeration only supported for d <= 4")
            verts = _vertices_from_facets(d, normals, offsets)
        if normals is None:
            if d > 4:
                raise GeometryError("facet enumeration only supported for d <= 4")
            normals, offsets = _facets_from_vertices(d, verts)

        body = cls(
            d=d,
            kind="polytope",
            vertices=verts,
            facet_normals=normals,
            facet_offsets=offsets,
        )
        body._validate_polytope()
        return body

    def _validate_polytope(self) -> None:
        V, N, D = self.vertices, self.facet_normals, self.facet_offsets
        if V.ndim != 2 or V.shape[1] != self.d:
            raise GeometryError("vertex array must have shape (nv, d)")
        if np.any(D <= 0):
            raise GeometryError("origin must be interior: all facet offsets positive")
        # central symmetry of both lists
        for v in V:
            if np.min(np.linalg.norm(V + v, axis=1)) > 1e-9 * (1 + np.linalg.norm(v)):
                raise GeometryError("vertex set is not centrally symmetric")
        for n, dlt in zip(N, D):
            match = np.linalg.norm(N + n, axis=1) < 1e-9
            if not np.any(match & (np.abs(D - dlt) < 1e-9 * (1 + dlt))):
                raise GeometryError("facet set is not centrally symmetric")
        # every vertex on the boundary, tight on >= d facets
        S = V @ N.T  # (nv, nf)
        if np.any(S > D[None, :] * (1 + 1e-9) + 1e-9):
            raise GeometryError("vertex violates a facet inequality")
        tight = np.abs(S - D[None, :]) <= 1e-7 * (1 + D[None, :])
        if np.any(tight.sum(axis=1) < self.d):
            raise GeometryError("vertex not tight on at least d facets")

    # -- properties --------------------------------------------------------

    @property
    def is_box(self) -> bool:
        return self.kind == "pball" and self.p == math.inf

    def bounding_radii(self) -> np.ndarray:
        """Per-axis half-widths of the axis-aligned bounding box of K."""
        if self.kind == "pball":
            return np.ones(self.d)
        return np.max(np.abs(self.vertices), axis=0)

    # -- gauge / polar -----------------------------------------------------

    def gauge(self, x) -> float:
        x = _as_vector(x, self.d)
        return float(self.gauge_many(x[None, :])[0])

    def gauge_many(self, X: np.ndarray) -> np.ndarray:
        """Gauge |x|_K for an (N, d) array of points."""
        X = np.asarray(X, dtype=float)
        if self.kind == "pball":
            return _pnorm_many(X, self.p)
        return _column_max(self._facet_scores(X))

    def _facet_scores(self, X: np.ndarray) -> np.ndarray:
        """(x, n_i) / delta_i for every point x and facet i, shape (N, nf)."""
        scores = X @ self.facet_normals.T
        scores /= self.facet_offsets
        return scores

    def polar_norm(self, x) -> float:
        x = _as_vector(x, self.d)
        return float(self.polar_norm_many(x[None, :])[0])

    def polar_norm_many(self, X: np.ndarray) -> np.ndarray:
        """Dual norm |x|_{K°} = sup_{y in K} (x, y) for an (N, d) array."""
        X = np.asarray(X, dtype=float)
        if self.kind == "pball":
            return _pnorm_many(X, _conjugate_exponent(self.p))
        return _column_max(np.abs(X @ self.vertices.T))

    def gauge_gradient(self, x) -> np.ndarray:
        """Gradient of the gauge at x != 0.

        For a polytope this is n/delta of the active facet (piecewise
        constant); for a p-ball the smooth formula, with the usual sign
        convention at p = 1 or inf.  Returns the zero vector at the origin.
        """
        x = _as_vector(x, self.d)
        r = self.gauge(x)
        if r == 0.0:
            return np.zeros(self.d)
        if self.kind == "polytope":
            scores = self.facet_normals @ x / self.facet_offsets
            i = int(np.argmax(scores))
            return self.facet_normals[i] / self.facet_offsets[i]
        if self.p == math.inf:
            g = np.zeros(self.d)
            i = int(np.argmax(np.abs(x)))
            g[i] = np.sign(x[i])
            return g
        if self.p == 1:
            return np.sign(x)
        return np.sign(x) * (np.abs(x) / r) ** (self.p - 1)

    def gauge_gradient_many(self, X: np.ndarray) -> np.ndarray:
        """Vectorized gauge gradient for an (N, d) array; zero rows at the
        origin (and wherever the gauge vanishes).  Where several facets
        (polytope) or coordinates (box) attain the gauge, the first wins, as
        np.argmax would pick it.  The result is column-major."""
        X = np.asarray(X, dtype=float)
        r = self.gauge_many(X)
        ok = r > 0
        G = np.zeros(X.shape[::-1]).T
        if not np.any(ok):
            return G
        if self.kind == "polytope":
            W = self.facet_normals / self.facet_offsets[:, None]
            for i, hit in _first_attaining(self._facet_scores(X), r, ok):
                for k in range(self.d):
                    np.copyto(G[:, k], W[i, k], where=hit)
            return G
        if self.p == math.inf:
            for k, hit in _first_attaining(np.abs(X), r, ok):
                np.sign(X[:, k], out=G[:, k], where=hit)
            return G
        for k in range(self.d):
            col = G[:, k]
            if self.p == 1:
                np.sign(X[:, k], out=col, where=ok)
                continue
            np.divide(np.abs(X[:, k]), r, out=col, where=ok)
            col **= self.p - 1
            col *= np.sign(X[:, k])
        return G


def _column_max(A: np.ndarray) -> np.ndarray:
    """np.max(A, axis=-1) by one np.maximum pass per column of A, which is
    about 10x faster than a reduction over a short last axis."""
    out = A[..., 0].copy()
    for k in range(1, A.shape[-1]):
        np.maximum(out, A[..., k], out=out)
    return out


def _first_attaining(A: np.ndarray, rowmax: np.ndarray, rows: np.ndarray):
    """Yield (k, hit) for each column k of the (N, n) array A, where hit marks
    the rows in `rows` whose first column equal to `rowmax` (the exact row
    max of A) is k: the rows where np.argmax(A, axis=-1) == k."""
    free = rows.copy()
    for k in range(A.shape[-1]):
        hit = A[:, k] == rowmax
        hit &= free
        free ^= hit
        yield k, hit


def _pnorm_many(X: np.ndarray, p: float) -> np.ndarray:
    """The p-norm of each row of X, p in [1, inf], column by column.

    Bit-identical to the reductions over the last axis it replaces: a max is
    exact, and np.sum adds a short last axis left to right, as this loop
    does."""
    A = np.abs(X)
    if p == math.inf:
        return _column_max(A)
    if p != 1:
        A **= p
    out = A[..., 0].copy()
    for k in range(1, A.shape[-1]):
        out += A[..., k]
    if p != 1:
        out **= 1.0 / p
    return out


def _conjugate_exponent(p: float) -> float:
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _facets_from_vertices(d: int, verts: np.ndarray):
    if d == 1:
        v = float(np.max(np.abs(verts)))
        return np.array([[1.0], [-1.0]]), np.array([v, v])
    from scipy.spatial import ConvexHull

    hull = ConvexHull(verts)
    eqs = hull.equations  # n.x + b <= 0, |n| = 1
    normals = eqs[:, :-1]
    offsets = -eqs[:, -1]
    # dedupe coplanar facet copies
    keep = []
    for i in range(len(normals)):
        dup = False
        for j in keep:
            if (
                np.linalg.norm(normals[i] - normals[j]) < 1e-9
                and abs(offsets[i] - offsets[j]) < 1e-9
            ):
                dup = True
                break
        if not dup:
            keep.append(i)
    return normals[keep], offsets[keep]


def _vertices_from_facets(d: int, normals: np.ndarray, offsets: np.ndarray):
    if d == 1:
        v = float(np.min(offsets / np.abs(normals[:, 0])))
        return np.array([[v], [-v]])
    from scipy.spatial import HalfspaceIntersection

    halfspaces = np.hstack([normals, -offsets[:, None]])
    hs = HalfspaceIntersection(halfspaces, np.zeros(d))
    pts = hs.intersections
    # dedupe
    verts = []
    for p in pts:
        if all(np.linalg.norm(p - q) > 1e-9 for q in verts):
            verts.append(p)
    return np.array(verts)


# -- cones ----------------------------------------------------------------


@dataclass(frozen=True)
class Cone:
    """Open convex cone in R^d.

    kind "orthant": R^m_+ x R^(d-m) (first m coordinates positive).
    kind "halfspaces": intersection of open halfspaces (x, a_i) > 0.
    """

    d: int
    kind: str
    m: int = 0
    normals: np.ndarray | None = None

    @classmethod
    def orthant(cls, d: int, m: int) -> "Cone":
        if not (0 <= m <= d):
            raise GeometryError("need 0 <= m <= d")
        return cls(d=d, kind="orthant", m=m)

    @classmethod
    def halfspaces(cls, normals) -> "Cone":
        A = np.asarray(normals, dtype=float)
        A = A / np.linalg.norm(A, axis=1)[:, None]
        return cls(d=A.shape[1], kind="halfspaces", m=0, normals=A)

    def member(self, x) -> bool:
        x = _as_vector(x, self.d)
        if self.kind == "orthant":
            return bool(np.all(x[: self.m] > 0))
        return bool(np.all(self.normals @ x > 0))

    def member_closure(self, x) -> bool:
        x = _as_vector(x, self.d)
        if self.kind == "orthant":
            return bool(np.all(x[: self.m] >= 0))
        return bool(np.all(self.normals @ x >= 0))

    def member_many(self, X: np.ndarray) -> np.ndarray:
        return self._all_columns(X, np.greater)

    def member_closure_many(self, X: np.ndarray) -> np.ndarray:
        return self._all_columns(X, np.greater_equal)

    def _all_columns(self, X: np.ndarray, compare) -> np.ndarray:
        """Rows of X whose constrained coordinates (orthant) or normal
        products (halfspaces) all satisfy compare(., 0), one pass per column."""
        X = np.asarray(X, dtype=float)
        cols = X if self.kind == "orthant" else X @ self.normals.T
        count = self.m if self.kind == "orthant" else cols.shape[-1]
        out = np.ones(X.shape[:-1], dtype=bool)
        for k in range(count):
            out &= compare(cols[..., k], 0)
        return out


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    method: str
    stderr: float = 0.0
    seed: int | None = None


def _grid_points(K: ConvexBody, n: int):
    """Cell-center lattice over the bounding box of K, with cell volume."""
    radii = K.bounding_radii()
    axes = [(-r + (np.arange(n) + 0.5) * (2 * r / n)) for r in radii]
    cellvol = float(np.prod(2 * radii / n))
    return axes, cellvol


def _lattice_slabs(axes):
    """Yield the points of the cartesian product of the coordinate arrays in
    `axes` in C order, one (N, d) slab per entry of axes[0], N the product of
    the other lengths (one slab of every point when d = 1).  All slabs share
    one array, overwritten before each yield, so a consumer copies what it
    keeps.  The array is column-major, so that each coordinate column is
    contiguous for the column-wise gauges and cone tests."""
    d = len(axes)
    if d == 1:
        yield np.asarray(axes[0], dtype=float)[:, None]
        return
    rest = np.meshgrid(*axes[1:], indexing="ij")
    slab = np.empty((d, rest[0].size)).T
    for k, r in enumerate(rest, start=1):
        slab[:, k] = r.ravel()
    for x0 in axes[0]:
        slab[:, 0] = x0
        yield slab


def _mask_chunks(K: ConvexBody, C: Cone, h: float, n: int):
    """Yield (gauges, inside-mask, cell volume) slabs over the n^d cell-center
    lattice of the bounding box of hK."""
    axes, cellvol = _grid_points(K, n)
    axes = [h * a for a in axes]
    cellvol *= h**K.d
    for pts in _lattice_slabs(axes):
        g = K.gauge_many(pts)
        yield g, (g < h) & C.member_many(pts), cellvol


def _lattice_indicator(K: ConvexBody, C: Cone, h: float, axes) -> np.ndarray:
    """0/1 indicator of the open set hK∩C at the cartesian product of the
    coordinate arrays in `axes`, shape tuple(len(a) for a in axes)."""
    if K.d != C.d or len(axes) != K.d:
        raise GeometryError("body, cone and lattice dimensions differ")
    out = np.empty(tuple(len(a) for a in axes))
    # one row per slab: a single slab holds every point when d = 1
    rows = out.reshape(len(axes[0]), -1) if K.d > 1 else out[None, :]
    for row, pts in zip(rows, _lattice_slabs(axes)):
        row[:] = (K.gauge_many(pts) < h) & C.member_many(pts)
    return out


def volume_body_cone(K: ConvexBody, C: Cone, method="exact", *, n: int = 256,
                     samples: int = 100_000, seed: int = 0) -> VolumeEstimate:
    """Lebesgue measure of K∩C.

    method "exact" is available for box bodies with orthant cones
    (mu = 2^(d-m)); "grid" counts cell centers of an n^d lattice over the
    bounding box of K; "montecarlo" is unbiased uniform sampling with a
    reported standard error.
    """
    if K.d != C.d:
        raise GeometryError("body and cone dimensions differ")
    if method == "exact":
        if K.is_box and C.kind == "orthant":
            return VolumeEstimate(float(2 ** (K.d - C.m)), "exact")
        raise GeometryError("exact volume only for box body with orthant cone")
    if method == "grid":
        total = 0.0
        cellvol = None
        for _, mask, cv in _mask_chunks(K, C, 1.0, n):
            total += float(mask.sum())
            cellvol = cv
        vol = total * cellvol
        if vol <= 0:
            raise GeometryError("degenerate body/cone pair: zero grid volume")
        return VolumeEstimate(vol, "grid")
    if method == "montecarlo":
        rng = np.random.default_rng(seed)
        radii = K.bounding_radii()
        pts = rng.uniform(-radii, radii, size=(samples, K.d))
        inside = (K.gauge_many(pts) < 1.0) & C.member_many(pts)
        boxvol = float(np.prod(2 * radii))
        phat = inside.mean()
        vol = boxvol * phat
        if vol <= 0:
            raise GeometryError("degenerate body/cone pair: zero MC volume")
        stderr = boxvol * math.sqrt(phat * (1 - phat) / samples)
        return VolumeEstimate(vol, "montecarlo", stderr=stderr, seed=seed)
    raise GeometryError(f"unknown volume method {method!r}")


def volume_scaled(K: ConvexBody, C: Cone, h: float, method="exact", **kw) -> float:
    """mu(hK∩C) via the exact scaling law h^d * mu(K∩C)."""
    return h**K.d * volume_body_cone(K, C, method, **kw).value


def layer_cake_closed_form(K: ConvexBody, C: Cone, h: float, mu_KC: float) -> float:
    """Closed form d*h^(d+1)/(d+1) * mu(K∩C) of the gauge integral over hK∩C."""
    d = K.d
    return d * h ** (d + 1) / (d + 1) * mu_KC


def layer_cake_integral(K: ConvexBody, C: Cone, h: float, method="grid", *,
                        n: int = 256, samples: int = 100_000, seed: int = 0) -> float:
    """Numerical integral of |u|_K over hK∩C."""
    if h < 0:
        raise GeometryError("h must be nonnegative")
    if h == 0:
        return 0.0
    if K.d != C.d:
        raise GeometryError("body and cone dimensions differ")
    if method == "grid":
        total = 0.0
        for g, mask, cellvol in _mask_chunks(K, C, h, n):
            total += float(np.sum(g, where=mask)) * cellvol
        return total
    if method == "montecarlo":
        rng = np.random.default_rng(seed)
        radii = h * K.bounding_radii()
        pts = rng.uniform(-radii, radii, size=(samples, K.d))
        g = K.gauge_many(pts)
        inside = (g < h) & C.member_many(pts)
        boxvol = float(np.prod(2 * radii))
        return boxvol * float(np.mean(np.where(inside, g, 0.0)))
    raise GeometryError(f"unknown layer-cake method {method!r}")
