import math

import numpy as np
import pytest

from chargelab import windows
from chargelab.charges import (
    Charge,
    extremal_charge,
    extremal_density,
    grad_sup_polar,
    seminorm_K,
    seminorm_Kh,
)
from chargelab.families import (make_density, random_separable_field,
                                separable_field, sine_component)
from chargelab.geometry import ConvexBody, Cone, GeometryError
from chargelab.grids import GridField, GridSpec


def box_setting(d, m, h, n=96):
    K = ConvexBody.box(d)
    C = Cone.orthant(d, m)
    grid = GridSpec.for_cone(d, m, h, n, margin=0.3 * h)
    return K, C, grid


def _mask_window(nu, K, y, h):
    """Reference window value: the density summed over every grid center c
    with |c - y|_K < h and c - y in the open cone, with no tie tolerance."""
    grid = nu.density.grid
    flat = nu.density.values.reshape(-1)
    total = 0.0
    for sl, pts in grid.iter_center_chunks():
        u = pts - y[None, :]
        inside = (K.gauge_many(u) < h) & nu.cone.member_many(u)
        total += float(flat[sl][inside].sum())
    return total * grid.cell_volume


class TestWindowValue:
    def test_prefix_direct_mask_agree_box(self):
        K, C, grid = box_setting(2, 1, 1.0, 64)
        nu = extremal_charge(K, C, 1.0, grid)
        rng = np.random.default_rng(0)
        for _ in range(25):
            y = rng.uniform([-0.2, -1.0], [1.0, 1.0])
            h = rng.uniform(0.1, 0.8)
            vp = nu.window_value(K, y, h).value
            wlo, whi = nu._window_bounds(K, h, y)
            ranges = [windows.index_range(grid.lo[k], grid.spacing[k], grid.shape[k],
                                          wlo[k], whi[k]) for k in range(2)]
            vd = windows.box_window_sum_direct(
                nu.density.values, *zip(*ranges)) * grid.cell_volume
            vm = _mask_window(nu, K, y, h)
            assert vp == pytest.approx(vd, abs=1e-12)
            assert vp == pytest.approx(vm, abs=1e-12)

    def test_window_of_ball_body_against_fine_quadrature(self):
        # oracle: 4x-finer midpoint quadrature of the analytic density
        K2 = ConvexBody.pball(2, 2.0)
        C = Cone.orthant(2, 0)
        grid = GridSpec.for_cone(2, 0, 1.4, 64, margin=0.2)
        from chargelab.families import bump

        f = separable_field(
            grid,
            [sine_component(1.3) * bump(0.0, 1.2),
             sine_component(0.9) * bump(0.0, 1.2)],
        )
        nu = Charge(f, C)
        fine = GridSpec(grid.lo, grid.hi, tuple(4 * n for n in grid.shape))
        y, h = np.array([0.15, -0.1]), 0.6
        acc = 0.0
        for sl, pts in fine.iter_center_chunks():
            u = pts - y[None, :]
            inside = (K2.gauge_many(u) < h) & C.member_many(u)
            if inside.any():
                acc += float(f.value_fn(pts[inside]).sum())
        oracle = acc * fine.cell_volume
        got = nu.window_value(K2, y, h).value
        assert got == pytest.approx(oracle, abs=3e-3)

    def test_window_additivity_in_disjoint_translates(self):
        K, C, grid = box_setting(1, 0, 1.0, 128)
        nu = extremal_charge(K, C, 1.0, grid)
        whole = nu.window_value(K, np.array([0.0]), 1.0).value
        left = nu.window_value(K, np.array([-0.5]), 0.5).value
        right = nu.window_value(K, np.array([0.5]), 0.5).value
        assert whole == pytest.approx(left + right, abs=1e-12)

    def test_overlap_method_integrates_fractional_cells(self):
        # constant density 1 on (-0.5, 0.5): any window value is just the
        # overlap length, including windows cutting through cells
        grid = GridSpec(lo=np.array([-2.0]), hi=np.array([2.0]), shape=(64,))
        x = grid.axis_centers(0)
        vals = np.where(np.abs(x) < 0.5, 1.0, 0.0)
        nu = Charge(GridField(grid=grid, values=vals), Cone.orthant(1, 0))
        K = ConvexBody.box(1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = float(rng.uniform(-1, 1))
            h = float(rng.uniform(0.05, 1.0))
            got = nu.window_value(K, np.array([y]), h, "overlap").value
            lo, hi = max(y - h, -0.5), min(y + h, 0.5)
            want = max(hi - lo, 0.0)
            # only the support boundary cells are inexact (density jumps)
            assert got == pytest.approx(want, abs=float(grid.spacing[0]))

    def test_overlap_matches_prefix_on_aligned_windows(self):
        K, C, grid = box_setting(2, 0, 1.0, 64)
        nu = extremal_charge(K, C, 1.0, grid)
        sp = float(grid.spacing[0])
        for k in (4, 10, 16):
            y = grid.lo + 24 * grid.spacing
            h = k * sp
            vp = nu.window_value(K, y, h).value
            vo = nu.window_value(K, y, h, "overlap").value
            assert vo == pytest.approx(vp, abs=1e-12)

    def test_truncation_flag_near_support(self):
        K, C, grid = box_setting(1, 0, 1.0, 64)
        nu = extremal_charge(K, C, 1.0, grid)
        far = nu.window_value(K, np.array([0.0]), 0.5)
        assert not far.truncated
        # window reaching past the grid edge while overlapping the support
        big = nu.window_value(K, np.array([0.0]), 5.0)
        assert big.truncated

    @pytest.mark.parametrize("body", ["box", "ball"])
    @pytest.mark.parametrize("h_win,escapes", [(0.3, False), (3.0, True)])
    def test_seminorm_truncation_is_the_winners(self, body, h_win, escapes):
        # the box runs the prefix path, the 2-ball the lattice correlation; a
        # window of radius 3 about any center leaves the grid [-1.25, 1.25]^2
        K = ConvexBody.box(2) if body == "box" else ConvexBody.pball(2, 2.0)
        C = Cone.orthant(2, 0)
        grid = GridSpec.for_cone(2, 0, 1.0, 16, margin=0.25)
        nu = extremal_charge(K, C, 1.0, grid)
        res = seminorm_Kh(nu, K, h_win)
        assert res.truncated == escapes
        assert res.truncated == nu.window_value(K, res.argmax, h_win).truncated

    def test_window_values_all_matches_pointwise(self):
        K, C, grid = box_setting(2, 1, 0.8, 48)
        nu = extremal_charge(K, C, 0.8, grid)
        S = nu.window_values_all(K, 0.5)
        rng = np.random.default_rng(1)
        for _ in range(10):
            i = int(rng.integers(grid.size))
            y = grid.flat_to_point(i)
            assert S.reshape(-1)[i] == pytest.approx(
                nu.window_value(K, y, 0.5).value, abs=1e-12
            )

    def test_only_auto_and_overlap_methods(self):
        K, C, grid = box_setting(2, 1, 0.8, 16)
        nu = extremal_charge(K, C, 0.8, grid)
        y = np.array([0.1, 0.0])
        for method in ("prefix", "mask", "direct"):
            with pytest.raises(GeometryError):
                nu.window_value(K, y, 0.5, method)
        ball = ConvexBody.pball(2, 2.0)
        with pytest.raises(GeometryError):
            nu.window_value(ball, y, 0.5, "overlap")

    @pytest.mark.parametrize("body", ["box", "ball"])
    def test_window_off_the_grid_is_zero(self, body):
        # every per-axis index range is empty: no cell, value 0.0
        K = ConvexBody.box(2) if body == "box" else ConvexBody.pball(2, 2.0)
        grid = GridSpec.for_cone(2, 0, 1.0, 16, margin=0.25)
        nu = extremal_charge(K, Cone.orthant(2, 0), 1.0, grid)
        wv = nu.window_value(K, np.array([5.0, -7.0]), 0.5)
        assert wv.value == 0.0 and not wv.truncated


class TestSupportMargin:
    def test_density_touching_grid_edge_rejected(self):
        grid = GridSpec(lo=np.array([-1.0]), hi=np.array([1.0]), shape=(32,))
        f = GridField(grid=grid, values=np.ones(32))
        with pytest.raises(GeometryError):
            Charge(f, Cone.orthant(1, 0))

    def test_orthant_axis_may_touch_zero(self):
        grid = GridSpec(lo=np.array([0.0]), hi=np.array([1.0]), shape=(32,))
        vals = np.zeros(32)
        vals[:16] = 1.0  # mass down to x = 0 is fine on a cone axis
        Charge(GridField(grid=grid, values=vals), Cone.orthant(1, 1))

    def test_check_can_be_disabled(self):
        grid = GridSpec(lo=np.array([-1.0]), hi=np.array([1.0]), shape=(32,))
        f = GridField(grid=grid, values=np.ones(32))
        Charge(f, Cone.orthant(1, 0), check_support=False)


class TestSupportBox:
    @staticmethod
    def reference(values, grid):
        """Support box from the np.nonzero indices of the thresholded field."""
        a = np.abs(values)
        if a.max() == 0.0:
            return None, None
        idx = np.nonzero(a > 1e-12 * a.max())
        lo = [grid.lo[k] + idx[k].min() * grid.spacing[k] for k in range(grid.d)]
        hi = [grid.lo[k] + (idx[k].max() + 1) * grid.spacing[k] for k in range(grid.d)]
        return np.array(lo), np.array(hi)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_nonzero_reference(self, d):
        rng = np.random.default_rng(d)
        shape = tuple(int(k) for k in rng.integers(5, 9, size=d))
        grid = GridSpec(np.full(d, -1.0), np.linspace(1.0, 2.0, d), shape)
        cases = {"zero": np.zeros(shape)}
        for name in ("inner", "face"):
            v = np.zeros(shape)
            i0 = rng.integers(1, 3, size=d)
            i1 = [int(rng.integers(a + 1, s)) for a, s in zip(i0, shape)]
            if name == "face":
                i0[int(rng.integers(d))] = 0
            box = tuple(slice(a, b) for a, b in zip(i0, i1))
            v[box] = rng.normal(size=v[box].shape)
            # below the relative threshold: not support
            v[(-1,) * d] = 1e-13 * np.abs(v).max()
            cases[name] = v
        for name, v in cases.items():
            nu = Charge(GridField(grid=grid, values=v), Cone.orthant(d, 0),
                        check_support=False)
            lo, hi = self.reference(v, grid)
            if lo is None:
                assert nu.is_zero and nu._support_hi is None
                continue
            assert np.array_equal(nu._support_lo, lo), name
            assert np.array_equal(nu._support_hi, hi), name


class TestExtremalFamily:
    @pytest.mark.parametrize("d,m,h", [(1, 0, 1.0), (2, 0, 0.7), (2, 1, 1.0),
                                       (2, 2, 1.3), (3, 1, 1.0)])
    def test_sup_and_gradient_sup(self, d, m, h):
        K, C, grid = box_setting(d, m, h, 48)
        f = extremal_density(K, C, h, grid)
        assert f.sup_abs("value", cone=C).value == pytest.approx(h, abs=1e-12)
        assert grad_sup_polar(f, K, C) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d,m,h", [(1, 0, 1.0), (2, 1, 1.0), (2, 0, 0.7)])
    def test_seminorm_at_h_matches_closed_form(self, d, m, h):
        K, C, grid = box_setting(d, m, h, 96)
        nu = extremal_charge(K, C, h, grid)
        mu = 2.0 ** (d - m)
        want = h ** (d + 1) / (d + 1) * mu
        got = seminorm_Kh(nu, K, h)
        assert got.value == pytest.approx(want, rel=1e-3)
        np.testing.assert_allclose(got.argmax, np.zeros(d), atol=1e-9)

    def test_seminorm_K_plateaus_at_h(self):
        # windows larger than h add nothing once the support is covered
        d, m, h = 1, 0, 1.0
        K, C, grid = box_setting(d, m, h, 128)
        nu = extremal_charge(K, C, h, grid)
        res = seminorm_K(nu, K, h_max=3.0, include_h=[h])
        want = h ** (d + 1) / (d + 1) * 2.0
        assert res.value == pytest.approx(want, rel=2e-4)
        assert res.h_opt == pytest.approx(h, rel=0.05)

    def test_gradient_sup_needs_the_callback(self):
        K, C, grid = box_setting(1, 0, 1.0, 32)
        f = GridField(grid=grid, values=extremal_density(K, C, 1.0, grid).values)
        with pytest.raises(GeometryError, match="no analytic grad callback"):
            grad_sup_polar(f, K, C)

    def test_ball_body_extremal_gradient_unit_polar(self):
        K = ConvexBody.pball(2, 2.0)
        C = Cone.orthant(2, 0)
        grid = GridSpec.for_cone(2, 0, 1.0, 48, margin=0.3)
        f = extremal_density(K, C, 1.0, grid)
        assert grad_sup_polar(f, K, C) == pytest.approx(1.0, abs=1e-9)


HEXAGON = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def _general_bodies(d):
    bodies = [ConvexBody.pball(d, p) for p in (1.0, 2.0, 3.5)]
    if d == 2:
        bodies.append(ConvexBody.polytope(2, vertices=HEXAGON))
    return bodies


def _general_cones(d):
    cones = [Cone.orthant(d, m) for m in range(d + 1)]
    if d == 2:
        cones.append(Cone.halfspaces([[1.0, 0.3141], [0.2718, 1.0]]))
    return cones


def _offsets_off_boundary(K, C, h, grid) -> bool:
    """No lattice offset u = o * spacing sits within 1e-6 spacings of the
    boundary of hK∩C, so that rounding cannot split the two paths."""
    sp = grid.spacing
    r = np.minimum(np.ceil(h * K.bounding_radii() / sp), np.asarray(grid.shape) - 1)
    axes = [np.arange(-rk, rk + 1) * s for rk, s in zip(r, sp)]
    U = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.d)
    margin = 1e-6 * float(np.min(sp))
    g = K.gauge_many(U)
    if np.any(np.abs(g - h) <= margin):
        return False
    if C.kind == "halfspaces":
        inner = (g < h) & np.any(U != 0, axis=1)
        return bool(np.all(np.abs(U[inner] @ C.normals.T) > margin))
    return True


def _full_window_reference(grid, C, K, h):
    """Center by center: the window fits when, on every axis, the center
    plus h times K's bounding radius stays below grid.hi, and the center
    minus it above grid.lo unless the axis is orthant-constrained."""
    r = K.bounding_radii()
    mask = np.zeros(grid.shape, dtype=bool)
    for idx in np.ndindex(*grid.shape):
        y = [grid.axis_centers(k)[idx[k]] for k in range(grid.d)]
        mask[idx] = all(
            y[k] + r[k] * h <= grid.hi[k] + 1e-12
            and (k < C.m or y[k] - r[k] * h >= grid.lo[k] - 1e-12)
            for k in range(grid.d))
    return mask


class TestFullWindows:
    @pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 6)])
    def test_matches_pointwise_reference(self, d, n):
        bodies = [ConvexBody.box(d), ConvexBody.pball(d, 2.0)]
        if d == 2:
            bodies.append(ConvexBody.polytope(2, vertices=HEXAGON))
        cones = [Cone.orthant(d, m) for m in range(d + 1)]
        cones.append(Cone.halfspaces(np.eye(d)[: max(d - 1, 1)]))
        rng = np.random.default_rng(d)
        for C in cones:
            lo = np.array([0.0 if k < C.m else -1.0 for k in range(d)])
            grid = GridSpec(lo, np.ones(d), (n,) * d)
            nu = Charge(GridField(grid=grid, values=rng.standard_normal(grid.shape)),
                        C, check_support=False)
            # at h = 3.5 spacings the window of the fourth center from the
            # top ends exactly on grid.hi along the last axis
            edge = 3.5 * float(grid.spacing[-1])
            for K in bodies:
                for h in (0.2, edge, 0.9, 2.5):
                    ref = _full_window_reference(grid, C, K, h)
                    np.testing.assert_array_equal(
                        nu.full_windows(K, h), ref,
                        err_msg=f"{K.kind} p={K.p} {C.kind} m={C.m} h={h}")

    def test_window_edge_on_grid_hi_fits(self):
        grid = GridSpec(np.array([-1.0]), np.array([1.0]), (8,))
        nu = Charge(GridField(grid=grid, values=np.zeros(8)), Cone.orthant(1, 0))
        # centers -0.875, ..., 0.875: at h = 0.375 the windows about -0.625
        # and 0.625 end exactly on lo and hi, and fit
        mask = nu.full_windows(ConvexBody.box(1), 0.375)
        assert mask.tolist() == [False] + [True] * 6 + [False]


class TestLatticeCorrelation:
    @pytest.mark.parametrize("d,n", [(1, 24), (2, 12), (3, 7)])
    def test_correlation_matches_mask_at_every_center(self, d, n):
        rng = np.random.default_rng(d)
        for C in _general_cones(d):
            m = C.m if C.kind == "orthant" else 0
            grid = GridSpec.for_cone(d, m, 1.0, n)
            vals = rng.standard_normal(grid.shape)
            nu = Charge(GridField(grid=grid, values=vals), C, check_support=False)
            atol = 1e-12 * float(np.abs(vals).sum()) * grid.cell_volume
            for K in _general_bodies(d):
                for h in (0.37, 0.71):
                    assert _offsets_off_boundary(K, C, h, grid), (K, C, h)
                    S = nu._correlation_values_all(K, h)
                    mask = [_mask_window(nu, K, grid.flat_to_point(i), h)
                            for i in range(grid.size)]
                    np.testing.assert_allclose(
                        S.reshape(-1), mask, rtol=0, atol=atol,
                        err_msg=f"{K.kind} p={K.p} {C.kind} m={C.m} h={h}")

    def test_origin_window_keeps_the_correlation_tie(self):
        # h = one spacing puts the four nearest centers on the boundary of
        # the origin's window; a scan without tolerance kept some of them
        grid = GridSpec(np.full(2, -1.05), np.full(2, 1.05), (21, 21))
        vals = np.random.default_rng(0).random(grid.shape)
        nu = Charge(GridField(grid=grid, values=vals), Cone.orthant(2, 0),
                    check_support=False)
        K = ConvexBody.pball(2, 2.0)
        assert grid.axis_centers(0)[10] == 0.0
        single = nu.window_value(K, np.zeros(2), 0.1).value
        assert single == pytest.approx(nu.window_values_all(K, 0.1)[10, 10],
                                       rel=0, abs=1e-12)

    @pytest.mark.parametrize("d,n", [(1, 24), (2, 10), (3, 5)])
    def test_window_value_matches_batch_at_every_center(self, d, n):
        # h of one and two spacings puts centers on the window boundaries,
        # where the single window must apply its batch engine's tie rule
        rng = np.random.default_rng(20 + d)
        for C in _general_cones(d):
            m = C.m if C.kind == "orthant" else 0
            grid = GridSpec.for_cone(d, m, 1.0, n)
            sp = grid.spacing
            vals = rng.standard_normal(grid.shape)
            nu = Charge(GridField(grid=grid, values=vals), C, check_support=False)
            atol = 1e-12 * float(np.abs(vals).sum()) * grid.cell_volume
            for K in [ConvexBody.box(d)] + _general_bodies(d):
                for h in (float(np.min(sp)), 2 * float(np.max(sp)), 0.37):
                    single = [nu.window_value(K, grid.flat_to_point(i), h).value
                              for i in range(grid.size)]
                    np.testing.assert_allclose(
                        single, nu.window_values_all(K, h).reshape(-1),
                        rtol=0, atol=atol,
                        err_msg=f"{K.kind} p={K.p} {C.kind} m={C.m} h={h}")

    @pytest.mark.parametrize("d,n", [(1, 40), (2, 24), (3, 16)])
    def test_correlation_matches_prefix_on_ties(self, d, n):
        # windows of 3, 5 and 7 spacings, also off by rounding-sized
        # factors: every window boundary passes through cell centers, where
        # both paths must exclude the cell
        K = ConvexBody.box(d)
        rng = np.random.default_rng(10 + d)
        for m in range(d + 1):
            lo = np.array([0.0 if k < m else -1.3 for k in range(d)])
            shape = tuple(n // 2 if k < m else n for k in range(d))
            grid = GridSpec(lo, np.full(d, 1.3), shape)
            sp = float(grid.spacing[0])
            assert np.all(grid.spacing == sp)
            vals = rng.standard_normal(shape)
            C = Cone.orthant(d, m)
            nu = Charge(GridField(grid=grid, values=vals), C, check_support=False)
            atol = 1e-12 * float(np.abs(vals).sum()) * grid.cell_volume
            for k in (3, 5, 7):
                for h in (k * sp * (1 - 1e-12), k * sp, k * sp * (1 + 1e-12)):
                    np.testing.assert_allclose(
                        nu._correlation_values_all(K, h),
                        nu.window_values_all(K, h),
                        rtol=0, atol=atol, err_msg=f"m={m} h={h / sp!r} spacings")


class TestSeminormGeneralBody:
    def test_general_body_scan_matches_fast_path_for_box(self):
        # cross-check: the prefix path against a mask window at every center
        d, m, h = 1, 0, 0.8
        K, C, grid = box_setting(d, m, h, 48)
        nu = extremal_charge(K, C, h, grid)
        fast = seminorm_Kh(nu, K, h).value
        best = 0.0
        for _, pts in grid.iter_center_chunks():
            for y in pts:
                best = max(best, abs(_mask_window(nu, K, y, h)))
        assert fast == pytest.approx(best, abs=1e-10)

    def test_large_grid_general_body_matches_origin_window(self):
        K2 = ConvexBody.pball(2, 2.0)
        C = Cone.orthant(2, 0)
        grid = GridSpec.for_cone(2, 0, 1.0, 512, margin=0.3)
        nu = extremal_charge(K2, C, 1.0, grid)
        res = seminorm_Kh(nu, K2, 1.0)
        origin = nu.window_value(K2, np.zeros(2), 1.0).value
        assert res.value == pytest.approx(origin, rel=1e-12)
        np.testing.assert_array_equal(res.argmax, np.zeros(2))
        assert not res.truncated


SKEW_CONE = [[1.0, 0.3141], [0.2718, 1.0]]
# relative tolerances: windows with the same cells read the same up to the
# rounding of the FFT correlation, whose length changes with h
SAME_CELLS = 1e-12
ATTAINS = 1e-9  # seminorm_K's own tolerance for attaining the sup


def one_signed_charges():
    """id -> (nu, K, h_max) for nonnegative charges: extremal charges on the
    prefix path at d = 1..3, m = 0..d, and on the correlation path (2-ball,
    hexagon, skewed halfspaces cone), plus |random field| charges whose sup
    sits away from the origin."""
    h, cells = 0.9, {1: 24, 2: 14, 3: 7}
    settings = {f"box-d{d}-m{m}": box_setting(d, m, h, cells[d])
                for d in (1, 2, 3) for m in range(d + 1)}
    for name, K, C in [("ball", ConvexBody.pball(2, 2.0), Cone.orthant(2, 0)),
                       ("hexagon", ConvexBody.polytope(2, vertices=HEXAGON),
                        Cone.orthant(2, 1)),
                       ("halfspaces", ConvexBody.box(2), Cone.halfspaces(SKEW_CONE))]:
        settings[name] = (K, C, GridSpec.for_cone(2, C.m, h, 16, margin=0.3 * h))
    cases = {name: (lambda K=K, C=C, grid=grid:
                    (extremal_charge(K, C, h, grid), K, 2.5 * h))
             for name, (K, C, grid) in settings.items()}
    for d in (1, 2):
        cases[f"abs-random-d{d}"] = lambda d=d: abs_random_charge(d)
    return cases


def abs_random_charge(d):
    grid = GridSpec.for_cone(d, 0, 1.5, 24 if d == 1 else 14)
    f = random_separable_field(np.random.default_rng(d), grid)
    C = Cone.orthant(d, 0)
    return Charge(GridField(grid, np.abs(f.values)), C), ConvexBody.box(d), 3.0


ONE_SIGNED = one_signed_charges()


@pytest.fixture(params=sorted(ONE_SIGNED))
def one_signed(request):
    nu, K, h_max = ONE_SIGNED[request.param]()
    return nu, K, h_max, [float(b) for b in nu.plateau_edges(K, h_max)]


def seminorm_at(nu, K):
    return lambda h: seminorm_Kh(nu, K, h).value


class TestSeminormKExact:
    """The exact path of seminorm_K: a charge of one sign."""

    def test_value_is_one_sweep_at_h_max(self, one_signed):
        nu, K, h_max, _ = one_signed
        res = seminorm_K(nu, K, h_max)
        assert res.value == seminorm_Kh(nu, K, h_max).value
        assert res.gap == 0.0

    def test_value_bounds_a_dense_scan(self, one_signed):
        nu, K, h_max, edges = one_signed
        V = seminorm_at(nu, K)
        res = seminorm_K(nu, K, h_max)
        dense = set(edges) | set(np.linspace(h_max / 400, h_max, 400))
        dense |= {(a + b) / 2 for a, b in zip(edges, edges[1:])}
        assert max(V(h) for h in dense) <= res.value * (1 + SAME_CELLS)

    def test_seminorm_is_constant_between_edges(self, one_signed):
        # just above an edge and just below the next, seminorm_Kh reads the
        # same: the edges hold every step, each where it happens
        nu, K, h_max, edges = one_signed
        V = seminorm_at(nu, K)
        eps = 1e-3 * windows._TIE * float(np.min(nu.density.grid.spacing
                                                  / K.bounding_radii()))
        for a, b in zip([0.0] + edges, edges + [h_max]):
            if b - a <= 2 * eps:  # twins from rounding
                continue
            lo, hi = V(a + eps), V(b - eps)
            assert hi == pytest.approx(lo, rel=SAME_CELLS, abs=1e-300), (a, b)
            assert V((a + b) / 2) == pytest.approx(lo, rel=SAME_CELLS, abs=1e-300)

    def test_h_opt_attains_and_the_previous_edge_does_not(self, one_signed):
        nu, K, h_max, edges = one_signed
        V = seminorm_at(nu, K)
        res = seminorm_K(nu, K, h_max)
        candidates = edges + [h_max]
        i = candidates.index(res.h_opt)
        floor = res.value - ATTAINS * (1 + res.value)
        assert V(res.h_opt) >= floor
        assert i == 0 or V(candidates[i - 1]) < floor

    def test_include_h_that_attains_comes_first(self):
        K, C, grid = box_setting(2, 1, 0.9, 24)
        nu = extremal_charge(K, C, 0.9, grid)
        res = seminorm_K(nu, K, 2.25, include_h=[0.9, 2.0])
        assert res.h_opt == 0.9
        # a value that falls short is passed over for the edges above it
        res = seminorm_K(nu, K, 2.25, include_h=[0.3])
        assert 0.3 < res.h_opt < 0.9 * (1 + 0.05)
        assert res.h_opt in nu.plateau_edges(K, 2.25)

    def test_nonpositive_charge_mirrors(self):
        K, C, grid = box_setting(2, 0, 0.9, 14)
        nu = extremal_charge(K, C, 0.9, grid)
        neg = Charge(GridField(grid, -nu.density.values), C)
        a, b = seminorm_K(nu, K, 2.25), seminorm_K(neg, K, 2.25)
        assert (a.value, a.h_opt, a.gap) == (b.value, b.h_opt, b.gap)


class TestSeminormKSigned:
    @pytest.mark.parametrize("seed,d", [(0, 1), (1, 1), (2, 2), (3, 2)])
    def test_gap_bounds_every_probe(self, seed, d):
        grid = GridSpec.for_cone(d, 0, 1.5, 48 if d == 1 else 20)
        f = random_separable_field(np.random.default_rng(seed), grid)
        nu, K = Charge(f, Cone.orthant(d, 0)), ConvexBody.box(d)
        assert f.values.min() < 0 < f.values.max()
        h_max = 3.0
        res = seminorm_K(nu, K, h_max)
        assert res.gap >= 0.0
        probes = set(np.geomspace(h_max / 1000, h_max, 300))
        probes |= set(float(b) for b in nu.plateau_edges(K, h_max))
        for h in probes:
            assert seminorm_Kh(nu, K, h).value <= res.value + res.gap + 1e-12, h


class TestSeminormMemo:
    """seminorm_Kh is memoized on the charge per body (by identity) and h."""

    def test_memo_follows_h_and_the_body(self):
        d, m, h = 2, 1, 0.9
        K, C, grid = box_setting(d, m, h, 24)
        dens = extremal_density(K, C, h, grid)
        nu = Charge(dens, C)
        # bodies made afresh for each call: an id that a freed body leaves
        # behind must not bring back its entry
        bodies = (lambda: ConvexBody.box(d), lambda: ConvexBody.pball(d, 2.0),
                  lambda: ConvexBody.box(d))
        seen = set()
        for make_K in bodies:
            for r in (h / 2, h, 2 * h, h):
                got = seminorm_Kh(nu, make_K(), r)
                want = seminorm_Kh(Charge(dens, C), make_K(), r)
                assert got.value == want.value
                assert np.array_equal(got.argmax, want.argmax)
                assert got.truncated == want.truncated
                seen.add(got.value)
        # at 2h both windows hold the whole support; below, each body and
        # radius has its own value
        assert len(seen) >= 5

    def test_repeated_call_is_not_swept_again(self, monkeypatch):
        K, C, grid = box_setting(2, 0, 0.9, 24)
        nu = extremal_charge(K, C, 0.9, grid)
        calls = []
        kernel = windows.box_window_sums
        monkeypatch.setattr(windows, "box_window_sums",
                            lambda prefix, i0s, i1s: calls.append(1)
                            or kernel(prefix, i0s, i1s))
        first = seminorm_Kh(nu, K, 0.9)
        assert seminorm_Kh(nu, K, 0.9) is first
        assert seminorm_Kh(nu, ConvexBody.box(2), 0.9).value == first.value
        assert len(calls) == 2  # the second box is another key


class TestZeroCharge:
    def test_zero_charge_seminorms(self):
        grid = GridSpec.for_cone(1, 0, 1.0, 32, margin=0.3)
        nu = Charge(GridField(grid=grid, values=np.zeros(32)),
                    Cone.orthant(1, 0))
        assert nu.is_zero
        assert seminorm_Kh(nu, ConvexBody.box(1), 0.5).value == 0.0
        res = seminorm_K(nu, ConvexBody.box(1), 2.0)
        assert res.value == 0.0


class TestFamilies:
    def test_callbacks_match_grid_values(self):
        grid = GridSpec.for_cone(2, 1, 2.0, 48)
        for name in ("gaussian", "sin", "poly"):
            f = make_density(name, grid)
            assert f.check_callback_consistency() <= 1e-12, name

    def test_gaussian_density_supported_inside(self):
        grid = GridSpec.for_cone(2, 0, 2.0, 64)
        C = Cone.orthant(2, 0)
        f = make_density("gaussian", grid)
        Charge(f, C)  # margin assertion passes

    def test_unknown_keyword_rejected(self):
        grid = GridSpec.for_cone(2, 0, 2.0, 16)
        with pytest.raises(TypeError):
            make_density("gaussian", grid, widht=0.8)

    def test_gradient_callback_against_finite_differences(self):
        grid = GridSpec.for_cone(2, 0, 2.0, 32)
        f = make_density("sin", grid)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.0, 1.0, size=(40, 2))
        G = f.grad_fn(pts)
        eps = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = eps
            fd = (f.value_fn(pts + e) - f.value_fn(pts - e)) / (2 * eps)
            np.testing.assert_allclose(G[:, k], fd, atol=1e-6)


# every entry point that takes a window radius, on the d = 2 box extremal
# charge at grid 32; NaN and inf used to pass each `h <= 0` test
def _radius_entry_points():
    from chargelab.inequalities import lk_multiplicative_charge
    from chargelab.steklov import MixedParams, SteklovParams

    K, C, grid = box_setting(2, 0, 1.0, 32)
    nu = extremal_charge(K, C, 1.0, grid)
    return {
        "window_value": lambda h: nu.window_value(K, np.zeros(2), h),
        "window_values_all": lambda h: nu.window_values_all(K, h),
        "fractional_values_all": lambda h: nu.fractional_values_all(K, h),
        "seminorm_Kh": lambda h: seminorm_Kh(nu, K, h),
        "seminorm_K": lambda h: seminorm_K(nu, K, h),
        "extremal_density": lambda h: extremal_density(K, C, h, grid),
        "SteklovParams.create": lambda h: SteklovParams.create(K, C, h),
        "MixedParams": lambda h: MixedParams(d=2, m=1, h=h),
        "lk_multiplicative_charge": lambda h: lk_multiplicative_charge(
            nu, K, C, h_max=h),
    }


@pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", list(_radius_entry_points()))
def test_window_radius_must_be_positive_and_finite(entry, h):
    with pytest.raises(GeometryError, match="must be positive and finite"):
        _radius_entry_points()[entry](h)
