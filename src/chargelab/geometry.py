"""Symmetric convex bodies and convex cones.

A body K is an open bounded convex set, symmetric about the origin, given
either as a polytope (vertices + facets, either completed from the other in
NumPy by polar duality) or as a p-ball.  It carries the Minkowski gauge
|x|_K, the dual (polar) norm |x|_{K°}, and the gradient of the gauge.  Cones
are either orthant products R^m_+ x R^(d-m) or finite halfspace
intersections.  The volume of K∩C is exact (a closed form for p-ball
orthants, qhull for polytopes, the box and the 1-ball) except for a
p-ball with 1 < p < inf and a halfspaces cone, where a lattice count stands
in.  That count, the cell-center quadrature of the gauge over hK∩C and the
lattice indicators of windows all read one gauge-and-cone pass over blocks
of whole first-axis rows of a lattice (_cone_gauges).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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

        A missing representation comes from the other by polar duality
        (_polar_vertices): the facets (w, x) < 1 of K are the vertices w of
        {w : (v, w) <= 1 for every vertex v}, and the vertices of K are those
        of {x : (n_i, x) <= delta_i}.  Completion is supported for d <= 4.
        """
        if d < 1:
            raise GeometryError("dimension must be >= 1")
        if vertices is None and facets is None:
            raise GeometryError("need vertices or facets")
        verts = None if vertices is None else np.asarray(vertices, dtype=float)
        normals = offsets = None
        if facets is not None:
            normals = np.asarray([f[0] for f in facets], dtype=float)
            offsets = np.asarray([f[1] for f in facets], dtype=float)
            norms = np.linalg.norm(normals, axis=1)
            normals = normals / norms[:, None]
            offsets = offsets / norms
            if not np.all(offsets > 0):
                raise GeometryError("origin must be interior: all facet offsets positive")
        if verts is None:
            verts = _polar_vertices(d, normals / offsets[:, None], "facet normals")
        if normals is None:
            W = _polar_vertices(d, verts, "vertices")
            offsets = 1.0 / np.linalg.norm(W, axis=1)
            normals = W * offsets[:, None]
        body = cls(d=d, kind="polytope", vertices=verts, facet_normals=normals,
                   facet_offsets=offsets)
        body._validate_polytope()
        return body

    def _validate_polytope(self) -> None:
        V, N, D = self.vertices, self.facet_normals, self.facet_offsets
        if V.ndim != 2 or V.shape[1] != self.d:
            raise GeometryError("vertex array must have shape (nv, d)")
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

    def polar_norm_many(self, X: np.ndarray) -> np.ndarray:
        """Dual norm |x|_{K°} = sup_{y in K} (x, y) for an (N, d) array."""
        X = np.asarray(X, dtype=float)
        if self.kind == "pball":
            return _pnorm_many(X, _conjugate_exponent(self.p))
        return _column_max(np.abs(X @ self.vertices.T))

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
    """The p-norm of each row of X, p in [1, inf], column by column in two
    column-sized buffers.

    Bit-identical to the reductions over the last axis it replaces: a max is
    exact, and np.sum adds a short last axis left to right, as this loop
    does."""
    power = p not in (1, math.inf)
    combine = np.maximum if p == math.inf else np.add
    out, col = np.abs(X[..., 0]), None
    if power:
        out **= p
    for k in range(1, X.shape[-1]):
        col = np.abs(X[..., k], out=col)
        if power:
            col **= p
        combine(out, col, out=out)
    if power:
        out **= 1.0 / p
    return out


def _conjugate_exponent(p: float) -> float:
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _polar_vertices(d: int, P: np.ndarray, what: str) -> np.ndarray:
    """Vertices of {x : (p, x) <= 1 for every row p of P}, which has one iff
    the rows (`what` in errors) span R^d; for P = V, the polar of conv(V),
    whose vertices w are its facets (w, x) <= 1.  Each solves P_S x = 1 for a
    nonsingular d-subset S of the rows (walked in blocks of _BLOCK) and meets
    every row to a relative 1e-9; solutions tight on the same rows are one
    vertex, listed in the order of its first subset."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != d or not np.all(np.isfinite(P)):
        raise GeometryError(f"{what} must be a finite array of shape (n, {d})")
    if d > 4:
        raise GeometryError("polytope completion only supported for d <= 4")
    if len(P) < d or np.linalg.matrix_rank(P) < d:
        raise GeometryError(f"{what} do not span R^{d}: the polytope is "
                            + ("flat" if what == "vertices" else "unbounded"))
    norms = np.linalg.norm(P, axis=1)
    subsets = itertools.chain.from_iterable(itertools.combinations(range(len(P)), d))
    found = []
    while len(S := np.fromiter(itertools.islice(subsets, _BLOCK * d), np.intp)):
        A = P[S.reshape(-1, d)]
        # nonsingular: |det| well above rounding of Hadamard's bound
        A = A[np.abs(np.linalg.det(A)) > 1e-10 * np.prod(norms[S].reshape(-1, d), axis=1)]
        X = np.linalg.solve(A, np.ones(A.shape[:2] + (1,)))[..., 0]
        found.append(X[np.all(X @ P.T <= 1 + 1e-9, axis=1)])
    X = np.concatenate(found)
    tight = np.packbits(X @ P.T >= 1 - 1e-9, axis=1)
    return X[np.sort(np.unique(tight, axis=0, return_index=True)[1])]


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
        norms = np.linalg.norm(A, axis=1)
        if not (np.all(np.isfinite(A)) and np.all(norms > 0)):
            raise GeometryError("halfspace normals must be finite and nonzero")
        A = A / norms[:, None]
        return cls(d=A.shape[1], kind="halfspaces", m=0, normals=A)

    def member_closure(self, x) -> bool:
        return bool(self.member_closure_many(_as_vector(x, self.d)[None, :])[0])

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
    method: str  # "closed-form", "interval", "qhull" or "grid"


# points per block of a lattice walk: whole entries of the first axis up to
# this many points, or one entry when a single entry holds more
_BLOCK = 4096


def _lattice_slabs(axes):
    """Yield (rows, pts) blocks of the cartesian product of the coordinate
    arrays in `axes`, in C order: the slice of entries of axes[0] that fit in
    _BLOCK points (at least one) and the (N, d) array of their points.  All
    blocks share one column-major array (a contiguous column per coordinate),
    overwritten before each yield, so a consumer copies what it keeps."""
    d, n0 = len(axes), len(axes[0])
    size = math.prod(len(a) for a in axes[1:])
    step = min(max(_BLOCK // size, 1), n0)
    block = np.empty((d, step * size)).T
    # the other coordinates repeat along every entry of axes[0]
    for k, r in enumerate(np.meshgrid(*axes[1:], indexing="ij"), start=1):
        block[:, k].reshape(step, size)[:] = r.ravel()
    for start in range(0, n0, step):
        rows = slice(start, min(start + step, n0))
        pts = block[: (rows.stop - start) * size]
        pts[:, 0].reshape(-1, size)[:] = axes[0][rows, None]
        yield rows, pts


def _cone_gauges(K: ConvexBody, C: Cone, axes):
    """Yield (rows, |x|_K, x in the open cone C) for the points x of each
    block of the lattice walk over `axes` (_lattice_slabs): the one
    evaluation of K and C on a lattice."""
    if K.d != C.d or len(axes) != K.d:
        raise GeometryError("body, cone and lattice dimensions differ")
    for rows, pts in _lattice_slabs(axes):
        yield rows, K.gauge_many(pts), C.member_many(pts)


def _lattice_indicator(K: ConvexBody, C: Cone, h: float, axes) -> np.ndarray:
    """0/1 indicator of the open set hK∩C at the cartesian product of the
    coordinate arrays in `axes`, shape tuple(len(a) for a in axes)."""
    out = np.empty(tuple(len(a) for a in axes))
    by_row = out.reshape(len(axes[0]), -1)
    for rows, g, cone in _cone_gauges(K, C, axes):
        by_row[rows] = ((g < h) & cone).reshape(-1, by_row.shape[1])
    return out


def _lattice_gauges(K: ConvexBody, C: Cone, h: float, axes) -> np.ndarray:
    """Sorted distinct gauges below h of the points of the open cone C in
    the cartesian product of the coordinate arrays in `axes`."""
    return np.unique(np.concatenate([np.unique(g[(g < h) & cone])
                                     for _, g, cone in _cone_gauges(K, C, axes)]))


def volume_body_cone(K: ConvexBody, C: Cone) -> VolumeEstimate:
    """Lebesgue measure mu(K∩C), exact wherever K∩C is a p-ball orthant or a
    polytope.

    A p-ball with an orthant cone has the closed form
    (2 Gamma(1 + 1/p))^d / Gamma(1 + d/p) / 2^m (2^(d-m) for the box); at
    d = 1 the body is an interval cut by the cone; a polytope, the box or
    the 1-ball with any other cone is the qhull volume of the intersection
    of their halfspaces.  Only a p-ball (1 < p < inf) with a halfspaces cone
    falls back to counting the cell centers of a 256^d lattice over the
    bounding box of K.
    A pair whose intersection has an empty interior raises GeometryError.
    """
    if K.d != C.d:
        raise GeometryError("body and cone dimensions differ")
    d = K.d
    if K.kind == "pball" and C.kind == "orthant":
        g = (2.0 * math.gamma(1.0 + 1.0 / K.p)) ** d / math.gamma(1.0 + d / K.p)
        return VolumeEstimate(g / 2.0**C.m, "closed-form")
    normals = C.normals if C.kind == "halfspaces" else np.eye(d)[: C.m]
    if d == 1:
        r = float(K.bounding_radii()[0])
        lo = 0.0 if np.any(normals > 0) else -r
        hi = 0.0 if np.any(normals < 0) else r
        return VolumeEstimate(_nonempty(hi - lo), "interval")
    if K.kind == "polytope" or K.is_box or K.p == 1:
        return VolumeEstimate(_qhull_volume(K, normals), "qhull")
    radii, n = K.bounding_radii(), 256
    count = sum(int(np.count_nonzero((g < 1.0) & cone)) for _, g, cone
                in _cone_gauges(K, C, [-r + (np.arange(n) + 0.5) * (2 * r / n)
                                       for r in radii]))
    return VolumeEstimate(_nonempty(count * float(np.prod(2 * radii / n))), "grid")


_EMPTY = "degenerate body/cone pair: K∩C has empty interior"


def _nonempty(vol: float) -> float:
    if vol <= 0:
        raise GeometryError(_EMPTY)
    return vol


def _qhull_volume(K: ConvexBody, cone_normals: np.ndarray) -> float:
    """Volume of the polytope K (or the box, or the 1-ball) cut by the
    halfspaces (x, a) > 0, through qhull at the Chebyshev center of the
    intersection."""
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    d = K.d
    if K.is_box:
        facet_normals = np.vstack([np.eye(d), -np.eye(d)])
        offsets = np.ones(2 * d)
    elif K.kind == "pball":
        # the 1-ball: the 2^d facets (s, x) < 1, s in {-1, 1}^d
        bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
        facet_normals = 1.0 - 2.0 * bits
        offsets = np.ones(2**d)
    else:
        facet_normals, offsets = K.facet_normals, K.facet_offsets
    # K∩C = {x : A x <= b}; the cone rows (x, a) >= 0 have b = 0
    A = np.vstack([facet_normals, -cone_normals])
    b = np.r_[offsets, np.zeros(len(cone_normals))]
    center, radius = _chebyshev_center(A, b)
    # a largest inscribed ball of rounding size: no interior point for qhull
    if radius <= 1e-12 * float(np.max(offsets)):
        raise GeometryError(_EMPTY)
    hs = HalfspaceIntersection(np.hstack([A, -b[:, None]]), center)
    return float(ConvexHull(hs.intersections).volume)


def _chebyshev_center(A: np.ndarray, b: np.ndarray, max_radius=None):
    """Center and radius of a largest ball inside {x : A x <= b}, the
    radius capped at max_radius (None: uncapped); radius 0.0 when the
    linear program fails."""
    from scipy.optimize import linprog

    d = A.shape[1]
    # max y subject to A x + y |A_i| <= b
    lp = linprog(np.r_[np.zeros(d), -1.0],
                 A_ub=np.hstack([A, np.linalg.norm(A, axis=1)[:, None]]), b_ub=b,
                 bounds=[(None, None)] * d + [(0.0, max_radius)])
    if not lp.success:
        return None, 0.0
    return lp.x[:-1], float(lp.x[-1])


def cone_has_interior(C: Cone) -> bool:
    """Whether the open cone C is nonempty: a ball of radius 1 fits in the
    closed cone (scaling any inner ball up)."""
    if C.kind == "orthant":
        return True
    _, radius = _chebyshev_center(-C.normals, np.zeros(len(C.normals)), 1.0)
    return radius > 0.5


def layer_cake_closed_form(K: ConvexBody, C: Cone, h: float, mu_KC: float) -> float:
    """Closed form d*h^(d+1)/(d+1) * mu(K∩C) of the gauge integral over hK∩C."""
    d = K.d
    return d * h ** (d + 1) / (d + 1) * mu_KC


def layer_cake_integral(K: ConvexBody, C: Cone, h: float, *,
                        n: int = 256) -> float:
    """Integral of |u|_K over hK∩C by the cell-center rule on an n^d lattice
    over the bounding box of hK."""
    if n < 1:
        raise GeometryError("need n >= 1 lattice cells per axis")
    if h < 0:
        raise GeometryError("h must be nonnegative")
    if h == 0:
        return 0.0
    radii = K.bounding_radii()
    axes = [h * (-r + (np.arange(n) + 0.5) * (2 * r / n)) for r in radii]
    cellvol = float(np.prod(2 * radii / n)) * h**K.d
    return sum(float(np.sum(g, where=(g < h) & cone)) * cellvol
               for _, g, cone in _cone_gauges(K, C, axes))
