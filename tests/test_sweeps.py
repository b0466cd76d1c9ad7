"""Column-wise reductions and the lattice sweeps that feed them.

The gauges, polar norms, gauge gradients, cone tests and the box-corner
antiderivative reduce over the d coordinates one column at a time.  Each is
checked here for exact equality (np.array_equal) against a row-by-row
reference written below, on inputs full of ties and in C-ordered,
F-ordered and non-contiguous layouts.  The polytope references take the
facet (or vertex) products from one matrix product, as the code does, and
reduce each row in Python.
"""

import math

import numpy as np
import pytest

from chargelab.charges import extremal_density
from chargelab.families import bump, separable_field
from chargelab.geometry import ConvexBody, Cone
from chargelab.grids import GridSpec
from chargelab.inequalities import box_corner_integral

HEX_VERTS = [
    [math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)
]
# the cube (-1, 1)^3 by its facets: facet products are exact, so points with
# |x_i| = |x_j| lie on two facets with exactly tied scores
CUBE_FACETS = [(s * np.eye(3)[i], 1.0) for i in range(3) for s in (1.0, -1.0)]
DIMS = (1, 2, 3, 4)
LAYOUTS = ("C", "F", "strided")


def sample_points(d, seed=0, n=600):
    """Points with many exact ties: small-lattice values, rows with
    |x_i| = |x_j|, zero rows, and random normals."""
    rng = np.random.default_rng(seed)
    lattice = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=(n, d))
    ties = rng.normal(size=(n // 2, d))
    ties[:, -1] = -ties[:, 0]
    normal = rng.normal(size=(n, d))
    return np.concatenate([lattice, ties, np.zeros((3, d)), normal])


def layout(X, kind):
    if kind == "C":
        return np.ascontiguousarray(X)
    if kind == "F":
        return np.asfortranarray(X)
    wide = np.zeros((2 * X.shape[0], 2 * X.shape[1]))
    wide[::2, ::2] = X
    return wide[::2, ::2]


def first_argmax(row):
    return max(range(len(row)), key=lambda i: row[i])


def pow1(x, e):
    """x ** e through the same ufunc as the code (libm and NumPy pow differ)."""
    return (np.array([x]) ** e)[0]


def pnorm_row(x, p):
    a = np.abs(x)
    if p == math.inf:
        return max(a)
    if p != 1:
        a = a**p
    total = 0.0
    for v in a:
        total += v
    return total if p == 1 else pow1(total, 1.0 / p)


def conjugate(p):
    if p in (1.0, math.inf):
        return 1.0 if p == math.inf else math.inf
    return p / (p - 1.0)


def gauge_ref(K, X):
    if K.kind == "pball":
        return np.array([pnorm_row(x, K.p) for x in X])
    S = X @ K.facet_normals.T / K.facet_offsets
    return np.array([max(row) for row in S])


def polar_ref(K, X):
    if K.kind == "pball":
        return np.array([pnorm_row(x, conjugate(K.p)) for x in X])
    return np.array([max(np.abs(row)) for row in X @ K.vertices.T])


def gradient_ref(K, X):
    r = gauge_ref(K, X)
    S = X @ K.facet_normals.T / K.facet_offsets if K.kind == "polytope" else None
    G = np.zeros(X.shape)
    for j, x in enumerate(X):
        if not r[j] > 0:
            continue
        if K.kind == "polytope":
            i = first_argmax(S[j])
            G[j] = K.facet_normals[i] / K.facet_offsets[i]
        elif K.p == math.inf:
            i = first_argmax(np.abs(x))
            G[j, i] = np.sign(x[i])
        elif K.p == 1:
            G[j] = np.sign(x)
        else:
            G[j] = np.sign(x) * (np.abs(x) / r[j]) ** (K.p - 1)
    return G


def member_ref(C, X, closed):
    cols = X if C.kind == "orthant" else X @ C.normals.T
    count = C.m if C.kind == "orthant" else C.normals.shape[0]
    ok = (lambda v: v >= 0) if closed else (lambda v: v > 0)
    return np.array([all(ok(row[k]) for k in range(count)) for row in cols])


def box_corner_ref(B, h):
    out = []
    for row in np.clip(B, 0.0, h):
        prod_b = row[0]
        for v in row[1:]:
            prod_b *= v
        I, prev, pref = 0.0, 0.0, 1.0
        for j, sj in enumerate(sorted(row)):
            q = len(row) - j
            I += prod_b * (sj - prev) - pref * (
                pow1(sj, q + 1) - pow1(prev, q + 1)) / (q + 1)
            pref *= sj
            prev = sj
        out.append(h * prod_b - I)
    return np.array(out)


def bodies(d):
    out = [ConvexBody.pball(d, p) for p in (1.0, 2.0, 3.5, math.inf)]
    if d == 2:
        out.append(ConvexBody.polytope(2, vertices=HEX_VERTS))
    if d == 3:
        out.append(ConvexBody.polytope(3, facets=CUBE_FACETS))
    return out


def cones(d):
    out = [Cone.orthant(d, m) for m in range(d + 1)]
    if d >= 2:
        normals = np.eye(d)[:2] + 0.25 * np.eye(d, k=1)[:2]
        out.append(Cone.halfspaces(np.vstack([normals, np.ones(d)])))
    return out


class TestColumnwiseBitIdentity:
    @pytest.mark.parametrize("kind", LAYOUTS)
    @pytest.mark.parametrize("d", DIMS)
    def test_gauge_polar_and_gradient(self, d, kind):
        X = sample_points(d, seed=d)
        if d == 2:  # hexagon vertices: each lies on two facets
            X = np.vstack([X] + [t * np.array(HEX_VERTS) for t in (0.5, 1.0, 3.0)])
        Y = layout(X, kind)
        for K in bodies(d):
            for name, got, want in [
                ("gauge", K.gauge_many(Y), gauge_ref(K, X)),
                ("polar", K.polar_norm_many(Y), polar_ref(K, X)),
                ("gradient", K.gauge_gradient_many(Y), gradient_ref(K, X)),
            ]:
                assert np.array_equal(got, want), (K.kind, K.p, name)

    @pytest.mark.parametrize("kind", LAYOUTS)
    @pytest.mark.parametrize("d", DIMS)
    def test_cone_membership(self, d, kind):
        X = sample_points(d, seed=10 + d)
        Y = layout(X, kind)
        for C in cones(d):
            assert np.array_equal(C.member_many(Y), member_ref(C, X, False))
            assert np.array_equal(C.member_closure_many(Y),
                                  member_ref(C, X, True))

    @pytest.mark.parametrize("kind", LAYOUTS)
    @pytest.mark.parametrize("d", DIMS)
    def test_box_corner_integral(self, d, kind):
        B = np.abs(sample_points(d, seed=20 + d))
        for h in (0.75, 1.5):
            assert np.array_equal(box_corner_integral(layout(B, kind), h),
                                  box_corner_ref(B, h))

    def test_ties_take_the_first_facet_or_coordinate(self):
        box = ConvexBody.box(3)
        G = box.gauge_gradient_many(np.array([[1.0, -1.0, 1.0], [0.5, -2.0, 2.0]]))
        assert np.array_equal(G, [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        cube = ConvexBody.polytope(3, facets=CUBE_FACETS)
        G = cube.gauge_gradient_many(np.array([[-1.0, 1.0, 0.0]]))
        assert np.array_equal(G, [[-1.0, 0.0, 0.0]])  # facet -e_1 precedes +e_2


def flat_sweep(fld, fn, transform=None):
    """Sup of |fn| (or |transform(fn)|) over every center, first flat index
    winning, with copies of the points: the reference for sup_abs."""
    best, arg = -np.inf, None
    for _, pts in fld.grid.iter_center_chunks():
        out = fn(pts)
        mag = np.abs(out if transform is None else transform(out))
        j = int(np.argmax(mag))
        if mag[j] > best:
            best, arg = float(mag[j]), pts[j].copy()
    return best, arg


class TestSweeps:
    @pytest.mark.parametrize("d", DIMS)
    def test_center_chunks_cover_every_center_in_flat_order(self, d):
        grid = GridSpec(-np.arange(1.0, d + 1), np.full(d, 0.5),
                        tuple(range(3, 3 + d)))
        chunks = [(sl, pts.copy()) for sl, pts in grid.iter_center_chunks()]
        assert chunks[0][0].start == 0 and chunks[-1][0].stop == grid.size
        for (a, _), (b, _) in zip(chunks, chunks[1:]):
            assert a.stop == b.start
        pts = np.concatenate([p for _, p in chunks])
        assert all(p.shape[0] == sl.stop - sl.start for sl, p in chunks)
        want = np.stack([grid.flat_to_point(i) for i in range(grid.size)])
        assert np.array_equal(pts, want)

    @pytest.mark.parametrize("case", ["center", "candidate"])
    def test_value_sup_reads_stored_samples(self, case):
        d, h = 2, 1.0
        grid = GridSpec.for_cone(d, 0, h, 36, margin=0.3 * h)
        cone = Cone.orthant(d, 1)
        if case == "center":
            fld = separable_field(grid, [bump(0.2, 0.9), bump(-0.1, 1.0)])
            # one candidate outside the cone, one that loses to the centers
            fld.sup_candidates.extend([np.array([-0.5, 0.2]),
                                       np.array([0.9, 0.9])])
        else:  # the sup h sits at the candidate 0, which is not a center
            fld = extremal_density(ConvexBody.pball(d, 2.0), Cone.orthant(d, 0),
                                   h, grid)
        inside = [np.asarray(c, dtype=float) for c in fld.sup_candidates
                  if cone.member_closure(c)]
        want = flat_sweep(fld, fld.value_fn)
        for cand in inside:
            v = abs(float(fld.value_fn(cand[None, :])[0]))
            if v > want[0]:
                want = (v, cand)
        calls = []

        def counting(pts, _fn=fld.value_fn):
            calls.append(pts.shape[0])
            return _fn(pts)

        fld.value_fn = counting
        got = fld.sup_abs("value", cone=cone)
        assert calls == [1] * len(inside)
        assert got.value == want[0]
        assert np.array_equal(got.argmax, want[1])
        if case == "candidate":
            assert got.value == h and np.array_equal(got.argmax, np.zeros(d))
        else:
            assert len(inside) == 1 and not np.array_equal(got.argmax, inside[0])

    def test_gradient_sup_argmax_survives_later_chunks(self):
        # a bump low on axis 0: the sup's chunk is far from the last one
        grid = GridSpec(np.full(3, -1.0), np.full(3, 1.0), (24, 16, 16))
        fld = separable_field(grid, [bump(-0.5, 0.4), bump(0.1, 0.8),
                                     bump(0.0, 0.9)])
        K = ConvexBody.pball(3, 2.0)
        value, arg = flat_sweep(fld, fld.grad_fn, K.polar_norm_many)
        assert arg[0] < grid.axis_centers(0)[-1]
        got = fld.sup_abs("grad", transform=K.polar_norm_many)
        fld.sup_abs("grad", transform=K.polar_norm_many)
        fld.check_callback_consistency()
        assert got.value == value
        assert np.array_equal(got.argmax, arg)
        assert K.polar_norm_many(fld.grad_fn(got.argmax[None, :]))[0] == value
