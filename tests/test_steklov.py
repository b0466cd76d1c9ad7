import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargelab.charges import Charge, extremal_charge, seminorm_Kh
from chargelab.families import (
    bump,
    make_density,
    poly_component,
    random_separable_field,
    separable_field,
    sine_component,
)
from chargelab.geometry import ConvexBody, Cone, GeometryError
from chargelab.grids import GridField, GridSpec
from chargelab.steklov import (
    MixedParams,
    SteklovParams,
    deviation_sup,
    fubini_residual,
    mixed_operator_apply,
    mixed_operator_field,
    mixed_operator_norm,
    steklov_apply,
    steklov_field,
    steklov_norm,
)


class TestOperatorNorm:
    @pytest.mark.parametrize("d,m,h", [(1, 0, 1.0), (2, 1, 0.5), (3, 2, 2.0)])
    def test_closed_form(self, d, m, h):
        p = SteklovParams.create(ConvexBody.box(d), Cone.orthant(d, m), h)
        assert steklov_norm(p) == pytest.approx(1.0 / (h**d * 2 ** (d - m)))

    def test_norm_bounds_field_on_random_charges(self):
        # |S_h nu(x)| <= ||S_h|| * ||nu||_{K,h} pointwise, and the extremal
        # charge attains it at the origin
        d, m, h = 2, 1, 0.6
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        p = SteklovParams.create(K, C, h)
        rng = np.random.default_rng(0)
        grid = GridSpec.for_cone(d, m, 1.5, 64)
        for _ in range(5):
            f = random_separable_field(rng, grid)
            nu = Charge(f, C)
            S, _ = steklov_field(nu, p)
            sem = seminorm_Kh(nu, K, h).value
            assert np.max(np.abs(S)) <= steklov_norm(p) * sem * (1 + 1e-9)

    def test_norm_attained_by_extremal(self):
        d, m, h = 2, 0, 0.8
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        grid = GridSpec.for_cone(d, m, h, 96, margin=0.3 * h)
        nu = extremal_charge(K, C, h, grid)
        p = SteklovParams.create(K, C, h)
        sem = seminorm_Kh(nu, K, h).value
        at_theta = abs(steklov_apply(nu, p, np.zeros(d)))
        assert at_theta == pytest.approx(steklov_norm(p) * sem, rel=1e-9)


class TestSteklovOnExtremal:
    @pytest.mark.parametrize("d,m,h", [(1, 0, 1.0), (2, 1, 1.0), (2, 0, 0.5),
                                       (3, 0, 1.0)])
    def test_value_at_origin(self, d, m, h):
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        grid = GridSpec.for_cone(d, m, h, 96, margin=0.3 * h)
        nu = extremal_charge(K, C, h, grid)
        p = SteklovParams.create(K, C, h)
        assert steklov_apply(nu, p, np.zeros(d)) == pytest.approx(
            h / (d + 1), rel=1e-3
        )

    @pytest.mark.parametrize("d,m,h", [(1, 0, 1.0), (2, 1, 1.0), (2, 0, 0.5)])
    def test_deviation_equality(self, d, m, h):
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        grid = GridSpec.for_cone(d, m, h, 96, margin=0.3 * h)
        nu = extremal_charge(K, C, h, grid)
        p = SteklovParams.create(K, C, h)
        dev = deviation_sup(nu, p)
        assert dev.value == pytest.approx(d * h / (d + 1), rel=1e-3)

    @pytest.mark.parametrize("d,m", [(1, 0), (2, 1), (3, 1)])
    def test_deviation_takes_the_origin_window_once(self, d, m, monkeypatch):
        # the extremal density registers the origin, which the deviation
        # sup also reads unasked; it takes that fractional window once
        h = 1.0
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        nu = extremal_charge(K, C, h, GridSpec.for_cone(d, m, h, 24,
                                                        margin=0.3 * h))
        assert any(not c.any() for c in nu.density.sup_candidates)
        p = SteklovParams.create(K, C, h)
        seen, window_value = [], Charge.window_value

        def counted(self, K, y, h, method="auto"):
            seen.append((tuple(np.asarray(y, dtype=float)), method))
            return window_value(self, K, y, h, method)

        monkeypatch.setattr(Charge, "window_value", counted)
        dev = deviation_sup(nu, p)
        assert seen.count(((0.0,) * d, "overlap")) == 1
        assert dev.value == pytest.approx(d * h / (d + 1), rel=2e-2)
        assert np.array_equal(dev.argmax, np.zeros(d))

    def test_deviation_bound_on_random_fields(self):
        # deviation <= (d h / (d+1)) * sup polar norm of the gradient
        from chargelab.charges import grad_sup_polar

        d, m, h = 2, 0, 0.5
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        p = SteklovParams.create(K, C, h)
        rng = np.random.default_rng(4)
        grid = GridSpec.for_cone(d, m, 1.5, 64)
        for _ in range(5):
            f = random_separable_field(rng, grid)
            nu = Charge(f, C)
            dev = deviation_sup(nu, p)
            bound = d * h / (d + 1) * grad_sup_polar(f, K, C)
            assert dev.value <= bound + 1e-6


def overlap_weights(lo, delta, n, a, b):
    """Cells [j0, j1) of one axis that meet [a, b], and each one's overlap
    length with it."""
    if b <= a:
        return 0, 0, np.zeros(0)
    j0 = max(int(np.floor((a - lo) / delta)), 0)
    j1 = min(int(np.ceil((b - lo) / delta)), n)
    if j1 <= j0:
        return j0, j0, np.zeros(0)
    edges = lo + np.arange(j0, j1 + 1) * delta
    w = np.minimum(b, edges[1:]) - np.maximum(a, edges[:-1])
    return j0, j1, np.clip(w, 0.0, None)


def overlap_window(values, grid, wlo, whi):
    """Reference: integral of the piecewise-constant values over the box
    [wlo, whi] cut to the grid, by per-axis overlap weights and tensordot."""
    sub, ws = values, []
    for axis in range(grid.d):
        j0, j1, w = overlap_weights(grid.lo[axis], grid.spacing[axis],
                                    grid.shape[axis], wlo[axis], whi[axis])
        if j1 <= j0:
            return 0.0
        sub = sub[(slice(None),) * axis + (slice(j0, j1),)]
        ws.append(w)
    for w in ws:
        sub = np.tensordot(sub, w, axes=([0], [0]))
    return float(sub)


def window_bounds(y, h, m):
    """Per-axis bounds of y + hK∩C for the box body and the orthant cone."""
    wlo = y - h
    wlo[:m] = y[:m]
    return wlo, y + h


class TestFractionalWindows:
    @given(st.integers(0, 1_000_000))
    @settings(max_examples=40, deadline=None)
    def test_field_matches_overlap_reference(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        m = int(rng.integers(0, d + 1))
        n = {1: 24, 2: 10, 3: 6}[d]
        shape = tuple(int(k) for k in rng.integers(n // 2, n + 1, size=d))
        sp = float(rng.uniform(0.05, 0.3))
        lo = np.array([0.0 if k < m else -rng.uniform(0.2, 0.8) * s * sp
                       for k, s in enumerate(shape)])
        grid = GridSpec(lo, lo + np.array(shape) * sp, shape)
        values = rng.normal(size=shape)
        C = Cone.orthant(d, m)
        nu = Charge(GridField(grid=grid, values=values), C, check_support=False)
        K = ConvexBody.box(d)
        # a random radius, up to past the grid, or a cell multiple a hair off
        if rng.random() < 0.5:
            h = float(rng.uniform(0.05, 1.5)) * max(shape) * sp
        else:
            h = (int(rng.integers(1, n + 1)) * float(grid.spacing[0])
                 * (1.0 + float(rng.choice([-1e-12, 0.0, 1e-12]))))
        got = nu.fractional_values_all(K, h)
        atol = 1e-12 * float(np.abs(values).sum()) * grid.cell_volume
        for i in range(grid.size):
            y = grid.flat_to_point(i)
            want = overlap_window(values, grid, *window_bounds(y, h, m))
            assert abs(got.reshape(-1)[i] - want) <= atol, (i, h)
        # a single window anywhere, the origin included
        for y in [np.zeros(d)] + [rng.uniform(lo - h, grid.hi) for _ in range(3)]:
            y[:m] = np.abs(y[:m])
            want = overlap_window(values, grid, *window_bounds(y, h, m))
            assert abs(nu.window_value(K, y, h, "overlap").value - want) <= atol

    def test_non_box_windows_rejected(self):
        grid = GridSpec.for_cone(2, 0, 1.0, 16, margin=0.3)
        K = ConvexBody.pball(2, 2.0)
        nu = extremal_charge(K, Cone.orthant(2, 0), 1.0, grid)
        with pytest.raises(GeometryError, match="box body"):
            nu.fractional_values_all(K, 0.5)
        with pytest.raises(GeometryError, match="box body"):
            deviation_sup(nu, SteklovParams.create(K, Cone.orthant(2, 0), 0.5))
        cone = Cone.halfspaces([[1.0, 0.0], [0.0, 1.0]])
        nu = Charge(nu.density, cone, check_support=False)
        with pytest.raises(GeometryError, match="box body"):
            deviation_sup(nu, SteklovParams.create(ConvexBody.box(2), cone, 0.5))

    @pytest.mark.parametrize("d,m", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                                     (3, 1)])
    def test_deviation_is_the_brute_force_sup(self, d, m):
        # every valid center through the reference, plus the origin
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        rng = np.random.default_rng(10 * d + m)
        grid = GridSpec.for_cone(d, m, 1.5, {1: 48, 2: 20, 3: 10}[d])
        for _ in range(3):
            f = random_separable_field(rng, grid)
            nu = Charge(f, C)
            values = f.values
            h = float(rng.uniform(0.2, 0.9))
            p = SteklovParams.create(K, C, h)
            best = -math.inf
            for i in range(grid.size):
                y = grid.flat_to_point(i)
                wlo, whi = window_bounds(y, h, m)
                if np.all(wlo >= grid.lo - 1e-12) and np.all(whi <= grid.hi + 1e-12):
                    S = overlap_window(values, grid, wlo, whi) * p.scale
                    best = max(best, abs(values.reshape(-1)[i] - S))
            origin = np.zeros(d)
            S0 = overlap_window(values, grid, *window_bounds(origin, h, m)) * p.scale
            best = max(best, abs(float(f.value_fn(origin[None, :])[0]) - S0))
            assert deviation_sup(nu, p).value == pytest.approx(best, rel=1e-12)


def stencil_reference(values, m, k, scale):
    """The composed difference at every center by its 2^d corners: sign *
    values at center + offset, summed, times scale; valid where every
    corner lies inside the grid.  Offsets are (k, +) and (0, -) on the
    first m axes, (k, +) and (-k, -) on the others."""
    d = values.ndim
    ref = np.zeros(values.shape)
    valid = np.ones(values.shape, dtype=bool)
    for corner in np.ndindex(*(2,) * d):
        offs = [(k if c == 0 else (0 if i < m else -k)) for i, c in enumerate(corner)]
        sign = (-1.0) ** sum(corner)
        for center in np.ndindex(*values.shape):
            at = tuple(c + o for c, o in zip(center, offs))
            if all(0 <= a < n for a, n in zip(at, values.shape)):
                ref[center] += sign * values[at]
            else:
                valid[center] = False
    return ref * scale, valid


class TestDifferenceOperators:
    def test_forward_difference_of_quadratic(self):
        grid = GridSpec.for_cone(1, 0, 2.0, 64)
        comp = poly_component([0.0, 0.0, 1.0])  # t^2
        f = separable_field(grid, [comp])
        h = 4.0 / 64 * 8  # 8 cells
        out, valid = mixed_operator_field(f, MixedParams(d=1, m=1, h=h))
        x = grid.axis_centers(0)[valid]
        np.testing.assert_allclose(out[valid] * h, (x + h) ** 2 - x**2, atol=1e-12)

    def test_central_difference_of_quadratic(self):
        grid = GridSpec.for_cone(1, 0, 2.0, 64)
        f = separable_field(grid, [poly_component([0.0, 0.0, 1.0])])
        h = 4.0 / 64 * 8
        out, valid = mixed_operator_field(f, MixedParams(d=1, m=0, h=h))
        x = grid.axis_centers(0)[valid]
        np.testing.assert_allclose(out[valid] * 2 * h, 4 * h * x, atol=1e-12)

    def test_incommensurate_step_rejected(self):
        grid = GridSpec.for_cone(1, 0, 2.0, 64)
        f = separable_field(grid, [poly_component([0.0, 1.0])])
        with pytest.raises(GeometryError, match="admissible"):
            mixed_operator_field(f, MixedParams(d=1, m=1, h=0.1234567))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_field_matches_stencil_reference(self, d):
        rng = np.random.default_rng(d)
        # equal spacings 0.1, a different cell count on each axis
        shape = tuple({1: 20, 2: 12, 3: 8}[d] + i for i in range(d))
        grid = GridSpec(np.zeros(d), 0.1 * np.array(shape), shape)
        f = GridField(grid=grid, values=rng.standard_normal(shape))
        atol = 1e-12 * float(np.abs(f.values).sum())
        for m in range(d + 1):
            for k in (1, 2, 3):
                p = MixedParams(d=d, m=m, h=k * float(grid.spacing[0]))
                out, valid = mixed_operator_field(f, p)
                ref, want = stencil_reference(f.values, m, k,
                                              1.0 / (2 ** (d - m) * p.h**d))
                np.testing.assert_array_equal(valid, want)
                assert np.all(np.isnan(out[~valid]))
                np.testing.assert_allclose(out[valid], ref[valid], rtol=0,
                                           atol=atol)

    def test_grid_too_small_rejected(self):
        grid = GridSpec.for_cone(1, 0, 1.0, 8)
        f = separable_field(grid, [poly_component([0.0, 1.0])])
        with pytest.raises(GeometryError, match="too small"):
            mixed_operator_field(f, MixedParams(d=1, m=0, h=4 * 0.25))


class TestMixedOperator:
    def test_norm_closed_form(self):
        for d, m, h in [(1, 0, 1.0), (2, 1, 0.5), (3, 3, 1.0)]:
            p = MixedParams(d=d, m=m, h=h)
            assert mixed_operator_norm(p) == pytest.approx(2**m / h**d)

    def test_apply_matches_field_at_centers(self):
        d, m = 2, 1
        grid = GridSpec.for_cone(d, m, 2.0, 48)
        f = make_density("sin", grid)
        h = float(grid.spacing[0]) * 6
        p = MixedParams(d=d, m=m, h=h)
        out, valid = mixed_operator_field(f, p)
        rng = np.random.default_rng(1)
        inside = np.argwhere(valid)
        for _ in range(10):
            idx = tuple(inside[int(rng.integers(len(inside)))])
            x = np.array([grid.axis_centers(k)[idx[k]] for k in range(d)])
            assert out[idx] == pytest.approx(
                mixed_operator_apply(f, p, x[None, :])[0], abs=1e-10
            )

    def test_averages_mixed_derivative_of_linear_product(self):
        # for f = prod x_i the mixed derivative is 1, so the operator
        # returns exactly 1 at every point
        d, m = 2, 1
        grid = GridSpec.for_cone(d, m, 2.0, 32)
        f = separable_field(grid, [poly_component([0.0, 1.0])] * d)
        p = MixedParams(d=d, m=m, h=float(grid.spacing[0]) * 4)
        out, valid = mixed_operator_field(f, p)
        assert valid.any()
        np.testing.assert_allclose(out[valid], 1.0, atol=1e-10)

    @pytest.mark.parametrize("d,m", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                                     (3, 1)])
    def test_fubini_residual_small(self, d, m):
        grid = GridSpec.for_cone(d, m, 2.0, 128 if d <= 2 else 64)
        f = make_density("sin", grid)
        h = float(grid.spacing[0]) * (32 if d <= 2 else 16)
        p = MixedParams(d=d, m=m, h=h)
        rng = np.random.default_rng(d * 10 + m)
        for _ in range(3):
            # snap to cell edges so the window boundary aligns with cells
            # and midpoint quadrature keeps its O(spacing^2) accuracy
            j = rng.integers(0, 8, size=d)
            x = grid.lo + (grid.shape[0] // 2 - 4 + j) * grid.spacing
            x[:m] = np.abs(x[:m])
            # quadrature error grows with window volume; the d=3 case runs
            # on a much coarser lattice
            assert fubini_residual(f, p, x) <= (1e-3 if d <= 2 else 2e-2)

    def test_fubini_residual_shrinks_with_refinement(self):
        d, m = 2, 1
        res = []
        for n in (32, 64):
            grid = GridSpec.for_cone(d, m, 2.0, n)
            f = make_density("sin", grid)
            h = float(grid.spacing[0]) * (n // 4)
            p = MixedParams(d=d, m=m, h=h)
            x = grid.lo + (np.array(grid.shape) // 2) * grid.spacing
            res.append(fubini_residual(f, p, x))
        assert res[1] <= res[0] / 2.0 + 1e-12
