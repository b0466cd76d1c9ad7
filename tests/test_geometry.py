import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta

from chargelab.geometry import (
    ConvexBody,
    Cone,
    GeometryError,
    layer_cake_closed_form,
    layer_cake_integral,
    volume_body_cone,
)

HEX_VERTS = [
    [math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)
]

# gauge/polar values computed by an independent LP oracle
# (min sum(lam), V^T lam = x, lam >= 0) and frozen here
HEX_GAUGE_ORACLE = [
    ((0.3, 0.4), 0.5309401076758503),
    ((1.2, -0.7), 1.6041451884327378),
    ((-0.5, 0.5), 0.788675134594813),
    ((0.9, 0.0), 0.9),
    ((0.25, -0.95), 1.0969655114602892),
]
HEX_POLAR_ORACLE = [
    ((0.3, 0.4), 0.4964101615137755),
    ((1.2, -0.7), 1.2062177826491072),
    ((-0.5, 0.5), 0.6830127018922192),
    ((0.9, 0.0), 0.9),
    ((0.25, -0.95), 0.9477241335952167),
]


def finite_vectors(d, lo=-5.0, hi=5.0):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
        min_size=d, max_size=d,
    ).map(np.array)


def gauge(K, x) -> float:
    """|x|_K of one point, through the batched gauge."""
    return float(K.gauge_many(np.asarray([x], dtype=float))[0])


class TestGauge:
    def test_box_gauge_is_sup_norm(self):
        K = ConvexBody.box(3)
        assert gauge(K, [0.5, -0.25, 0.1]) == pytest.approx(0.5)
        assert gauge(K, [0.0, 0.0, 0.0]) == 0.0
        assert gauge(K, [2.0, -3.0, 1.0]) == pytest.approx(3.0)

    def test_pball_gauge_matches_numpy_norms(self):
        x = np.array([0.3, -1.2, 0.7])
        for p in (1.0, 2.0, 3.5):
            K = ConvexBody.pball(3, p)
            assert gauge(K, x) == pytest.approx(np.linalg.norm(x, ord=p))
        assert gauge(ConvexBody.pball(3, math.inf), x) == pytest.approx(1.2)

    def test_hexagon_gauge_against_lp_oracle(self):
        K = ConvexBody.polytope(2, vertices=HEX_VERTS)
        for pt, val in HEX_GAUGE_ORACLE:
            assert gauge(K, np.array(pt)) == pytest.approx(val, rel=1e-9)

    def test_hexagon_polar_against_vertex_sup(self):
        K = ConvexBody.polytope(2, vertices=HEX_VERTS)
        for pt, val in HEX_POLAR_ORACLE:
            assert K.polar_norm_many(np.array([pt]))[0] == pytest.approx(val, rel=1e-9)

    @given(finite_vectors(3), st.floats(0.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_gauge_positive_homogeneity(self, x, lam):
        K = ConvexBody.pball(3, 2.0)
        assert gauge(K, lam * x) == pytest.approx(lam * gauge(K, x), abs=1e-9)

    @given(finite_vectors(2), finite_vectors(2))
    @settings(max_examples=100, deadline=None)
    def test_gauge_triangle_inequality(self, x, y):
        K = ConvexBody.polytope(2, vertices=HEX_VERTS)
        assert gauge(K, x + y) <= gauge(K, x) + gauge(K, y) + 1e-9

    @given(finite_vectors(2))
    @settings(max_examples=100, deadline=None)
    def test_gauge_symmetry(self, x):
        K = ConvexBody.polytope(2, vertices=HEX_VERTS)
        assert gauge(K, -x) == pytest.approx(gauge(K, x), abs=1e-12)


class TestDuality:
    @pytest.mark.parametrize(
        "K",
        [
            ConvexBody.box(2),
            ConvexBody.pball(2, 1.0),
            ConvexBody.pball(2, 3.0),
            ConvexBody.polytope(2, vertices=HEX_VERTS),
        ],
        ids=["box", "l1", "p3", "hexagon"],
    )
    def test_pairing_bounded_by_gauge_times_polar(self, K):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(500, 2))
        Y = rng.normal(size=(500, 2))
        lhs = np.abs(np.sum(X * Y, axis=1))
        rhs = K.gauge_many(X) * K.polar_norm_many(Y)
        assert np.all(lhs <= rhs * (1 + 1e-9))

    def test_gradient_attains_duality(self):
        # |grad|x|_K|_{K deg} = 1 and (grad, x) = |x|_K away from kinks
        rng = np.random.default_rng(3)
        for K in (ConvexBody.pball(3, 2.0),
                  ConvexBody.polytope(2, vertices=HEX_VERTS)):
            X = rng.normal(size=(200, K.d))
            G = K.gauge_gradient_many(X)
            np.testing.assert_allclose(K.polar_norm_many(G), 1.0, atol=1e-9)
            np.testing.assert_allclose(
                np.sum(G * X, axis=1), K.gauge_many(X), atol=1e-9
            )


class TestPolytopeConstruction:
    def test_vertices_to_facets_roundtrip(self):
        Kv = ConvexBody.polytope(2, vertices=HEX_VERTS)
        facets = list(zip(Kv.facet_normals, Kv.facet_offsets))
        Kf = ConvexBody.polytope(2, facets=facets)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2))
        np.testing.assert_allclose(Kv.gauge_many(X), Kf.gauge_many(X),
                                   rtol=1e-9)

    def test_asymmetric_vertices_rejected(self):
        with pytest.raises(GeometryError):
            ConvexBody.polytope(2, vertices=[[1, 0], [0, 1], [-1, -0.5]])

    def test_interior_point_not_a_vertex_rejected(self):
        verts = [[1, 0], [-1, 0], [0, 1], [0, -1], [0.1, 0.1], [-0.1, -0.1]]
        with pytest.raises(GeometryError):
            ConvexBody.polytope(2, vertices=verts)

    def test_cross_polytope_is_l1_ball(self):
        verts = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                 [0, 0, 1], [0, 0, -1]]
        K = ConvexBody.polytope(3, vertices=verts)
        L1 = ConvexBody.pball(3, 1.0)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        np.testing.assert_allclose(K.gauge_many(X), L1.gauge_many(X),
                                   rtol=1e-9)


def qhull_facets(V):
    """Reference facets (unit normals, offsets) of conv(V) from qhull, one
    row per facet: qhull splits a facet into simplices that share its
    equation."""
    from scipy.spatial import ConvexHull

    eqs = ConvexHull(V).equations
    return distinct_rows(np.hstack([eqs[:, :-1], -eqs[:, -1:]]))


def qhull_vertices(normals, offsets):
    """Reference vertices of {x : (n_i, x) <= delta_i} from qhull."""
    from scipy.spatial import HalfspaceIntersection

    hs = HalfspaceIntersection(np.hstack([normals, -offsets[:, None]]),
                               np.zeros(normals.shape[1]))
    return distinct_rows(hs.intersections)


def distinct_rows(A, tol=1e-9):
    keep = []
    for a in A:
        if all(np.max(np.abs(a - b)) > tol for b in keep):
            keep.append(a)
    return np.array(keep)


def assert_same_rows(A, B, tol=1e-12):
    """A and B hold the same rows, in any order, to tol."""
    assert A.shape == B.shape
    dist = np.max(np.abs(A[:, None, :] - B[None, :, :]), axis=2)
    assert np.all(dist.min(axis=1) <= tol) and np.all(dist.min(axis=0) <= tol)


def facet_rows(K):
    return np.hstack([K.facet_normals, K.facet_offsets[:, None]])


def cross_polytope(d):
    return np.vstack([np.eye(d), -np.eye(d)])


def cell_24():
    """The 24 vertices +-e_i +- e_j (i < j) of the 24-cell."""
    E = np.eye(4)
    return np.array([s * E[i] + t * E[j] for i in range(4) for j in range(i + 1, 4)
                     for s in (1, -1) for t in (1, -1)])


def random_symmetric_hull(d, seed, points):
    """The vertices of the hull of fixed-seed normal points and their mirror
    images."""
    from scipy.spatial import ConvexHull

    P = np.random.default_rng(seed).normal(size=(points, d))
    V = np.vstack([P, -P])
    return V[ConvexHull(V).vertices]


CUBE_FACETS = [(s * np.eye(3)[i], 1.0) for i in range(3) for s in (1, -1)]

BY_VERTICES = {"hexagon": (2, np.array(HEX_VERTS)),
               "cross-polytope-4": (4, cross_polytope(4)),
               "24-cell": (4, cell_24()),
               # 8 points at d = 4 give 52 facets; completing the vertices
               # walks every 4-subset of them (12 points: 100 facets, 3.9 M
               # subsets, about 7 s)
               **{f"random-d{d}": (d, random_symmetric_hull(d, 40 + d, 12 if d < 4 else 8))
                  for d in (2, 3, 4)}}


class TestPolytopeCompletion:
    """The NumPy completion of ConvexBody.polytope against qhull."""

    @pytest.mark.parametrize("name", BY_VERTICES)
    def test_facets_match_qhull(self, name):
        d, V = BY_VERTICES[name]
        K = ConvexBody.polytope(d, vertices=V)
        assert_same_rows(facet_rows(K), qhull_facets(V))

    @pytest.mark.parametrize("name", [*BY_VERTICES, "cube"])
    def test_vertices_match_qhull_and_round_trip(self, name):
        # facets -> vertices -> facets
        if name == "cube":
            Kf = ConvexBody.polytope(3, facets=CUBE_FACETS)
        else:
            d, V = BY_VERTICES[name]
            Kv = ConvexBody.polytope(d, vertices=V)
            Kf = ConvexBody.polytope(d, facets=list(zip(Kv.facet_normals, Kv.facet_offsets)))
            assert_same_rows(Kf.vertices, V)
        assert_same_rows(Kf.vertices, qhull_vertices(Kf.facet_normals, Kf.facet_offsets))
        back = ConvexBody.polytope(Kf.d, vertices=Kf.vertices)
        assert_same_rows(facet_rows(back), facet_rows(Kf))

    def test_cube_vertices_and_facets(self):
        # 4 vertices on each facet: 4 triples of them give each facet
        K = ConvexBody.polytope(3, facets=CUBE_FACETS)
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        assert_same_rows(K.vertices, corners, tol=0)
        back = ConvexBody.polytope(3, vertices=corners)
        assert_same_rows(facet_rows(back), facet_rows(K), tol=0)

    @pytest.mark.parametrize("V", [[[1, 0], [-1, 0]],
                                   [[1, 1], [-1, -1], [2, 2], [-2, -2]],
                                   [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]],
                             ids=["segment", "collinear", "square-in-3d"])
    def test_flat_vertex_set_rejected(self, V):
        with pytest.raises(GeometryError, match="vertices do not span .* flat"):
            ConvexBody.polytope(len(V[0]), vertices=V)

    @pytest.mark.parametrize("normals", [[[1, 0], [-1, 0]],
                                         [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]],
                             ids=["slab", "prism"])
    def test_facets_that_do_not_span_rejected(self, normals):
        with pytest.raises(GeometryError, match="normals do not span .* unbounded"):
            ConvexBody.polytope(len(normals[0]), facets=[(n, 1.0) for n in normals])

    @pytest.mark.parametrize("d", [2, 3])
    def test_facets_from_an_iterator(self, d):
        # facets are read once, so an iterator builds the body a list builds
        hexagon = ConvexBody.polytope(2, vertices=HEX_VERTS)
        pairs = (list(zip(hexagon.facet_normals, hexagon.facet_offsets)) if d == 2
                 else CUBE_FACETS)
        Kl = ConvexBody.polytope(d, facets=pairs)
        Ki = ConvexBody.polytope(d, facets=iter(pairs))
        for a, b in zip(facet_rows(Ki), facet_rows(Kl)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(Ki.vertices, Kl.vertices)

    def test_non_positive_offset_rejected(self):
        facets = [([1, 0], 1.0), ([-1, 0], 1.0), ([0, 1], 0.0), ([0, -1], 1.0)]
        with pytest.raises(GeometryError, match="offsets positive"):
            ConvexBody.polytope(2, facets=facets)


class TestCone:
    def test_orthant_membership_open_vs_closed(self):
        C = Cone.orthant(3, 2)
        assert C.member_many(np.array([[0.1, 0.2, -5.0]]))[0]
        # boundary excluded (open)
        assert not C.member_many(np.array([[0.0, 0.2, 1.0]]))[0]
        assert C.member_closure([0.0, 0.2, 1.0])
        assert not C.member_closure([-0.1, 0.2, 1.0])

    def test_full_space_cone(self):
        C = Cone.orthant(2, 0)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        assert C.member_many(X).all()

    def test_halfspace_cone_matches_orthant(self):
        Ch = Cone.halfspaces(np.eye(2))
        Co = Cone.orthant(2, 2)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 2))
        np.testing.assert_array_equal(Ch.member_many(X), Co.member_many(X))


def pball_volume(d, p):
    """Volume of the unit p-ball by the slice recursion
    V_k = V_(k-1) * 2 * int_0^1 (1 - t^p)^((k-1)/p) dt, each integral a beta
    function."""
    if p == math.inf:
        return 2.0**d
    vol = 2.0
    for k in range(2, d + 1):
        vol *= 2.0 / p * beta(1.0 / p, (k - 1) / p + 1.0)
    return vol


class TestVolume:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pball_orthant_closed_form(self, d, p):
        for m in range(d + 1):
            v = volume_body_cone(ConvexBody.pball(d, p), Cone.orthant(d, m))
            assert v.method == "closed-form"
            assert v.value == pytest.approx(pball_volume(d, p) / 2**m,
                                            rel=1e-12, abs=0)

    def test_exact_box_orthant(self):
        for d in (1, 2, 3):
            for m in range(d + 1):
                v = volume_body_cone(ConvexBody.box(d), Cone.orthant(d, m))
                assert v.value == 2 ** (d - m)

    def test_hexagon_area(self):
        K = ConvexBody.polytope(2, vertices=HEX_VERTS)
        area = 3 * math.sqrt(3) / 2
        for C, share in [(Cone.orthant(2, 0), 1), (Cone.orthant(2, 1), 2),
                         (Cone.orthant(2, 2), 4),
                         (Cone.halfspaces([[1, 0], [0, 1]]), 4)]:
            v = volume_body_cone(K, C)
            assert v.method == "polytope"
            assert v.value == pytest.approx(area / share, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [3, 5, 6])
    def test_cube_with_halfspaces_cone(self, d):
        C = Cone.halfspaces(np.eye(d)[:2])
        v = volume_body_cone(ConvexBody.box(d), C)
        assert v.method == "polytope"
        assert v.value == pytest.approx(2.0**d / 4, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_l1_ball_with_halfspaces_cone(self, d):
        # the cross-polytope 2^d/d! cut by k coordinate halfspaces
        for k in range(1, d + 1):
            v = volume_body_cone(ConvexBody.pball(d, 1.0),
                                 Cone.halfspaces(np.eye(d)[:k]))
            assert v.method == "polytope"
            assert v.value == pytest.approx(2**d / (math.factorial(d) * 2**k),
                                            rel=1e-12, abs=0)

    def test_interval_at_d1(self):
        K = ConvexBody.polytope(1, vertices=[[0.7], [-0.7]])
        for C, want in [(Cone.orthant(1, 0), 1.4), (Cone.orthant(1, 1), 0.7),
                        (Cone.halfspaces([[-1.0]]), 0.7)]:
            v = volume_body_cone(K, C)
            assert v.method == "polytope"
            assert v.value == pytest.approx(want, rel=1e-12, abs=0)

    def test_grid_fallback_matches_exact_quadrant(self):
        C = Cone.halfspaces([[1, 0], [0, 1]])
        v = volume_body_cone(ConvexBody.pball(2, 2.0), C)
        assert v.method == "grid"
        assert v.value == pytest.approx(math.pi / 4, abs=1e-3)

    @pytest.mark.parametrize("K,normals", [
        (ConvexBody.box(1), [[1], [-1]]),
        (ConvexBody.box(2), [[1, 0], [-1, 0]]),
        (ConvexBody.pball(2, 2.0), [[1, 0], [-1, 0]]),
        (ConvexBody.pball(2, 1.0), [[1, 0], [-1, 0]]),
        (ConvexBody.polytope(2, vertices=HEX_VERTS), [[1, 0], [-1, 0]]),
    ], ids=["interval", "box", "disc", "diamond", "hexagon"])
    def test_empty_interior_rejected(self, K, normals):
        with pytest.raises(GeometryError, match="empty interior"):
            volume_body_cone(K, Cone.halfspaces(normals))


def qhull_volume(A, b):
    """Reference volume of the bounded {x : A x <= b} from qhull, started at
    the center of a largest inscribed ball (linprog)."""
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    d = A.shape[1]
    lp = linprog(np.r_[np.zeros(d), -1.0],
                 A_ub=np.hstack([A, np.linalg.norm(A, axis=1)[:, None]]), b_ub=b,
                 bounds=[(None, None)] * d + [(0.0, None)])
    assert lp.success and lp.x[-1] > 1e-6
    hs = HalfspaceIntersection(np.hstack([A, -b[:, None]]), lp.x[:-1])
    return ConvexHull(hs.intersections).volume


def facet_system(K):
    """(A, b) with K = {x : A x < b}: its facets, or those of the box and the
    1-ball."""
    if K.kind == "polytope":
        return K.facet_normals, K.facet_offsets
    if K.is_box:
        return np.vstack([np.eye(K.d), -np.eye(K.d)]), np.ones(2 * K.d)
    return np.array(list(itertools.product((1.0, -1.0), repeat=K.d))), np.ones(2**K.d)


def inner_cone(d, k, seed):
    """k fixed-seed normal halfspace normals tilted to hold a random unit
    vector u inside: (a_i, u) lies in [0.2, 1]."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    G = rng.normal(size=(k, d))
    return G - np.outer(G @ u - rng.uniform(0.2, 1.0, size=k), u)


VOLUME_BODIES = {**{name: (lambda d=d, V=V: ConvexBody.polytope(d, vertices=V))
                    for name, (d, V) in BY_VERTICES.items()},
                 "cube": lambda: ConvexBody.polytope(3, facets=CUBE_FACETS),
                 **{f"box-d{d}": (lambda d=d: ConvexBody.box(d)) for d in (2, 3, 4)},
                 **{f"l1-ball-d{d}": (lambda d=d: ConvexBody.pball(d, 1.0))
                    for d in (2, 3, 4)}}


class TestVolumeAgainstQhull:
    """mu(K∩C) from the vertex walk against qhull on the same halfspaces."""

    @pytest.mark.parametrize("name", VOLUME_BODIES)
    def test_matches_qhull(self, name):
        K = VOLUME_BODIES[name]()
        d = K.d
        # orthants m = 1..d (as halfspaces for a p-ball, whose orthants have
        # closed forms) and a random pointed cone with an interior
        cones = [Cone.orthant(d, m) if K.kind == "polytope"
                 else Cone.halfspaces(np.eye(d)[:m]) for m in range(1, d + 1)]
        cones.append(Cone.halfspaces(inner_cone(d, d, 10 + d)))
        A, b = facet_system(K)
        for C in cones:
            normals = C.normals if C.kind == "halfspaces" else np.eye(d)[: C.m]
            want = qhull_volume(np.vstack([A, -normals]),
                                np.r_[b, np.zeros(len(normals))])
            v = volume_body_cone(K, C)
            assert v.method == "polytope"
            assert v.value == pytest.approx(want, rel=1e-12, abs=0)


class TestLayerCake:
    @pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
    def test_grid_quadrature_matches_closed_form_box(self, h):
        K, C = ConvexBody.box(2), Cone.orthant(2, 1)
        mu = volume_body_cone(K, C).value
        num = layer_cake_integral(K, C, h, n=256)
        assert num == pytest.approx(layer_cake_closed_form(K, C, h, mu),
                                    rel=5e-3)

    def test_closed_form_euclidean_disc(self):
        # integral of |u| over the unit disc is 2*pi/3 = d/(d+1) * mu
        K, C = ConvexBody.pball(2, 2.0), Cone.orthant(2, 0)
        assert layer_cake_closed_form(K, C, 1.0, math.pi) == pytest.approx(
            2 * math.pi / 3
        )
        num = layer_cake_integral(K, C, 1.0, n=512)
        assert num == pytest.approx(2 * math.pi / 3, rel=2e-3)

    def test_zero_radius(self):
        K, C = ConvexBody.box(2), Cone.orthant(2, 0)
        assert layer_cake_integral(K, C, 0.0) == 0.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_lattice_rejected(self, n):
        K, C = ConvexBody.box(2), Cone.orthant(2, 0)
        with pytest.raises(GeometryError, match="n >= 1"):
            layer_cake_integral(K, C, 1.0, n=n)
