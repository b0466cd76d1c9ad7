"""Symmetric convex bodies and convex cones.

A body K is an open bounded convex set, symmetric about the origin, given
either as a polytope (vertices + facets, either completed from the other by
polar duality) or as a p-ball.  It carries the Minkowski gauge |x|_K, the
dual (polar) norm |x|_{K°}, and the gradient of the gauge.  Cones are either
orthant products R^m_+ x R^(d-m) or finite halfspace intersections.  One
NumPy vertex walk (_vertices) completes polytopes, tests cone interiors and
gives the exact volume of K∩C for a polytope, the box or the 1-ball.  Only
a p-ball (1 < p < inf) with a halfspaces cone takes a lattice count, which
reads the one gauge-and-cone pass over blocks of whole first-axis rows of a
lattice (_cone_gauges), as do the gauge quadrature and window indicators.
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
            normals, offsets = (np.asarray(c, dtype=float) for c in zip(*facets))
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
    whose vertices w are its facets (w, x) <= 1."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != d or not np.all(np.isfinite(P)):
        raise GeometryError(f"{what} must be a finite array of shape (n, {d})")
    if d > 4:
        raise GeometryError("polytope completion only supported for d <= 4")
    if len(P) < d or np.linalg.matrix_rank(P) < d:
        raise GeometryError(f"{what} do not span R^{d}: the polytope is "
                            + ("flat" if what == "vertices" else "unbounded"))
    return _vertices(P, np.ones(len(P)))[0]


def _vertices(A: np.ndarray, b: np.ndarray):
    """Vertices of {x : A x <= b}, whose rows span R^d, and the rows each is
    tight on.  Each solves A_S x = b_S for a nonsingular d-subset S of the
    rows (walked in blocks of _BLOCK) and meets every row to 1e-9 of max |b|;
    solutions tight on the same rows are one vertex, in first-subset order."""
    d, tol = A.shape[1], 1e-9 * np.max(np.abs(b))
    norms = np.linalg.norm(A, axis=1)
    subsets = itertools.chain.from_iterable(itertools.combinations(range(len(A)), d))
    found = []
    while len(S := np.fromiter(itertools.islice(subsets, _BLOCK * d), np.intp)):
        S = S.reshape(-1, d)
        M = A[S]
        # nonsingular: |det| well above rounding of Hadamard's bound
        keep = np.abs(np.linalg.det(M)) > 1e-10 * np.prod(norms[S], axis=1)
        X = np.linalg.solve(M[keep], b[S[keep]][..., None])[..., 0]
        found.append(X[np.all(X @ A.T <= b + tol, axis=1)])
    X = np.concatenate(found)
    tight = X @ A.T >= b - tol
    first = np.sort(np.unique(np.packbits(tight, axis=1), axis=0, return_index=True)[1])
    return X[first], tight[first]


def _face(X, tight, face, memo: dict):
    """(span, k-volume) of the face conv(X[face]) of a polytope whose vertices
    X are tight on the rows marked in `tight`: span is an orthonormal basis of
    the directions of its affine hull (singular directions above 1e-12 of the
    largest), k its rank.  A simplex's volume comes from its edges, any other
    face's from pyramids at its vertex mean over its facets, the groups of its
    vertices tight on one row that have rank k - 1."""
    if (key := face.tobytes()) in memo:  # faces are shared
        return memo[key]
    P = X[face]
    _, sv, Vt = np.linalg.svd(P[1:] - P[0], full_matrices=False)
    span = Vt[: np.count_nonzero(sv > 1e-12 * sv.max(initial=0.0))]
    k = len(span)
    if len(P) == k + 1:  # |det| of the edges in their span, over k!
        memo[key] = span, abs(np.linalg.det((P[1:] - P[0]) @ span.T)) / math.factorial(k)
        return memo[key]
    groups = tight & face[:, None]
    sizes = groups.sum(axis=0)
    center, volume = P.mean(axis=0), 0.0
    candidates = groups[:, (sizes >= k) & (sizes < len(P))].T
    for sub in {g.tobytes(): g for g in candidates}.values():
        sub_span, sub_volume = _face(X, tight, sub, memo)
        if len(sub_span) == k - 1:
            r = center - X[sub][0]
            volume += np.linalg.norm(r - sub_span.T @ (sub_span @ r)) * sub_volume / k
    memo[key] = span, volume
    return memo[key]


def _polytope_volume(A: np.ndarray, b: np.ndarray, cone: np.ndarray) -> float:
    """Volume of the bounded {x : A x <= b, (x, a) >= 0 for the rows a of
    cone}; 0.0 when its vertices do not span R^d (an empty interior)."""
    X, tight = _vertices(np.vstack([A, -cone]), np.r_[b, np.zeros(len(cone))])
    span, volume = _face(X, tight, np.ones(len(X), dtype=bool), {})
    return float(volume) if len(span) == A.shape[1] else 0.0


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
    method: str  # "closed-form", "polytope" or "grid"


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
    polytope: a closed form for a p-ball with an orthant cone, else, for a
    polytope, the box, the 1-ball or any body at d = 1, the volume of K's
    polytope pieces cut by the cone rows (x, a) >= 0 (_polytope_volume).
    Only a p-ball (1 < p < inf, d >= 2) with a halfspaces cone falls back to
    counting the cell centers of a 256^d lattice over the bounding box of K.
    An empty interior of K∩C raises GeometryError."""
    if K.d != C.d:
        raise GeometryError("body and cone dimensions differ")
    d = K.d
    if K.kind == "pball" and C.kind == "orthant":
        g = (2.0 * math.gamma(1.0 + 1.0 / K.p)) ** d / math.gamma(1.0 + d / K.p)
        return VolumeEstimate(g / 2.0**C.m, "closed-form")
    cone = C.normals if C.kind == "halfspaces" else np.eye(d)[: C.m]
    if K.kind == "polytope" or K.p in (1, math.inf) or d == 1:
        vol, method = math.fsum(_polytope_volume(*piece, cone)
                                for piece in _polytope_pieces(K)), "polytope"
    else:
        radii, n = K.bounding_radii(), 256
        count = sum(int(np.count_nonzero((g < 1.0) & inside)) for _, g, inside
                    in _cone_gauges(K, C, [-r + (np.arange(n) + 0.5) * (2 * r / n)
                                           for r in radii]))
        vol, method = count * float(np.prod(2 * radii / n)), "grid"
    if vol <= 0:
        raise GeometryError("degenerate body/cone pair: K∩C has empty interior")
    return VolumeEstimate(vol, method)


def _polytope_pieces(K: ConvexBody) -> list:
    """(A, b) of polytopes {x : A x <= b} that tile the closed polytope, box,
    1-ball or interval K: its facets, but the 1-ball's 2^d orthant simplices
    {s_i x_i >= 0, (s, x) <= 1}, as a walk over its 2^d facets would visit
    C(2^d + k, d) subsets."""
    d, eye = K.d, np.eye(K.d)
    if K.kind == "polytope":
        return [(K.facet_normals, K.facet_offsets)]
    if K.p == math.inf or d == 1:
        return [(np.vstack([eye, -eye]), np.ones(2 * d))]
    return [(np.vstack([-np.diag(s), s]), np.r_[np.zeros(d), 1.0])
            for s in itertools.product((1.0, -1.0), repeat=d)]


def cone_has_interior(C: Cone) -> bool:
    """Whether the open cone C is nonempty: whether the closed cone cut by the
    cube |x|_inf <= 1 has a volume."""
    return C.kind == "orthant" or _polytope_volume(
        *_polytope_pieces(ConvexBody.box(C.d))[0], C.normals) > 0


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
