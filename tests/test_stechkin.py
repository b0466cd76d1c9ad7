import math

import numpy as np
import pytest

from chargelab.charges import Charge, extremal_charge, extremal_density
from chargelab.geometry import ConvexBody, Cone, GeometryError
from chargelab.grids import GridField, GridSpec
from chargelab.stechkin import (
    ProblemSetting,
    omega,
    optimal_h_for_N,
    optimal_h_for_delta,
    recover_derivative,
    recovery_error,
    sandwich_check,
    stechkin_error,
)
from chargelab.steklov import SteklovParams, deviation_sup, steklov_norm


def charge_setting(d=1, m=0):
    return ProblemSetting.charge(ConvexBody.box(d), Cone.orthant(d, m))


class TestClosedForms:
    def test_normalized_values_d1(self):
        s = charge_setting(1, 0)  # mu = 2
        assert omega(s, 1.0) == pytest.approx(1.0)
        assert stechkin_error(s, 1.0) == pytest.approx(0.25)
        assert optimal_h_for_delta(s, 1.0) == pytest.approx(1.0)
        assert optimal_h_for_N(s, 0.5) == pytest.approx(1.0)

    def test_mixed_values(self):
        s = ProblemSetting.mixed(2, 1)
        assert omega(s, 1.0) == pytest.approx(6 ** (1 / 3))
        assert stechkin_error(s, 1.0) == pytest.approx(2 * math.sqrt(2) / 3)

    @pytest.mark.parametrize("d,m", [(1, 0), (2, 1), (3, 2)])
    def test_scaling_laws(self, d, m):
        s = charge_setting(d, m)
        for delta in (0.1, 1.0, 4.0):
            lam = 2.7
            # omega is (1/(d+1))-homogeneous in delta
            assert omega(s, lam * delta) == pytest.approx(
                omega(s, delta) * lam ** (1 / (d + 1))
            )
        for N in (0.3, 2.0):
            lam = 1.9
            assert stechkin_error(s, lam * N) == pytest.approx(
                stechkin_error(s, N) * lam ** (-1 / d)
            )

    def test_h_star_consistency(self):
        # at the optimal h, the additive bound collapses to omega and the
        # operator norm to the matching N
        s = charge_setting(2, 1)
        delta = 0.37
        h = optimal_h_for_delta(s, delta)
        d = s.d
        bound = d * h / (d + 1) + delta / (h**d * s.mu)
        assert bound == pytest.approx(omega(s, delta), rel=1e-12)
        N = 1.0 / (h**d * s.mu)
        assert optimal_h_for_N(s, N) == pytest.approx(h, rel=1e-12)

    def test_invalid_arguments(self):
        s = charge_setting()
        with pytest.raises(GeometryError):
            omega(s, 0.0)
        with pytest.raises(GeometryError):
            stechkin_error(s, -1.0)


class TestSandwich:
    @pytest.mark.parametrize("setting", [charge_setting(1, 0),
                                         charge_setting(2, 1),
                                         ProblemSetting.mixed(2, 1),
                                         ProblemSetting.mixed(3, 0)],
                             ids=["d1", "d2m1", "mix21", "mix30"])
    def test_infimum_matches_omega(self, setting):
        deltas = np.geomspace(1e-2, 1e1, 10)
        rows, ok = sandwich_check(setting, deltas, rel_tol=1e-6)
        assert ok
        for r in rows:
            assert r["rel_err"] <= 1e-6
            # sandwich: omega <= E_N + N delta at every N on the curve
            assert r["inf_EN_plus_Ndelta"] >= r["omega"] * (1 - 1e-12)

    def test_measured_deviation_sits_on_curve(self):
        # E_N from the closed form equals the deviation of the extremal
        # charge at the h whose operator norm is N
        s = charge_setting(1, 0)
        for h in (0.5, 1.0):
            grid = GridSpec.for_cone(1, 0, h, 256, margin=0.3 * h)
            nu = extremal_charge(s.K, s.C, h, grid)
            p = SteklovParams(K=s.K, C=s.C, h=h, mu=s.mu)
            N = steklov_norm(p)
            assert deviation_sup(nu, p).value == pytest.approx(
                stechkin_error(s, N), rel=1e-3
            )


class TestRecovery:
    def zero_charge(self, grid, C):
        return Charge(
            GridField(
                grid=grid,
                values=np.zeros(grid.shape),
                value_fn=lambda pts: np.zeros(pts.shape[0]),
                grad_fn=lambda pts: np.zeros_like(pts),
            ),
            C,
        )

    @pytest.mark.parametrize("delta", [0.01, 0.1, 1.0])
    def test_worst_case_error_attains_bound(self, delta):
        # truth = extremal density, observed data = zero charge (a
        # perturbation of exactly delta in the h-seminorm)
        s = charge_setting(1, 0)
        h = optimal_h_for_delta(s, delta)
        grid = GridSpec.for_cone(1, 0, h, 512, margin=0.3 * h)
        truth = extremal_density(s.K, s.C, h, grid)
        noisy = self.zero_charge(grid, s.C)
        res = recover_derivative(noisy, delta, s)
        assert res.h == pytest.approx(h)
        assert res.bound == pytest.approx(omega(s, delta))
        err = recovery_error(truth, noisy, res)
        assert err == pytest.approx(omega(s, delta), abs=1e-3)

    @pytest.mark.parametrize("d,m", [(1, 0), (2, 1)])
    def test_recovery_error_takes_the_origin_window_once(self, d, m,
                                                         monkeypatch):
        # the extremal truth registers the origin, which the error also
        # reads unasked; its strict window is taken once
        s = charge_setting(d, m)
        delta = 0.1
        h = optimal_h_for_delta(s, delta)
        grid = GridSpec.for_cone(d, m, h, 48, margin=0.3 * h)
        truth = extremal_density(s.K, s.C, h, grid)
        assert any(not c.any() for c in truth.sup_candidates)
        noisy = self.zero_charge(grid, s.C)
        res = recover_derivative(noisy, delta, s)
        seen, window_value = [], Charge.window_value

        def counted(self, K, y, h, method="auto"):
            seen.append(tuple(np.asarray(y, dtype=float)))
            return window_value(self, K, y, h, method)

        monkeypatch.setattr(Charge, "window_value", counted)
        err = recovery_error(truth, noisy, res)
        assert seen == [(0.0,) * d]
        assert err == h  # the truth's peak h at the origin, estimate 0

    @pytest.mark.parametrize("d,m", [(1, 0), (2, 1)])
    def test_zero_charge_estimate_and_mask(self, d, m):
        s = charge_setting(d, m)
        delta = 0.1
        h = optimal_h_for_delta(s, delta)
        grid = GridSpec.for_cone(d, m, h, 64, margin=0.3 * h)
        zero = recover_derivative(self.zero_charge(grid, s.C), delta, s)
        nonzero = recover_derivative(extremal_charge(s.K, s.C, h, grid), delta, s)
        # +0.0 everywhere: a -0.0 would print as "-0" in the estimate dump
        assert np.all(zero.estimate == 0.0) and not np.signbit(zero.estimate).any()
        assert zero.valid.any() and not zero.valid.all()
        np.testing.assert_array_equal(zero.valid, nonzero.valid)

    def test_recovery_of_smooth_truth_beats_bound(self):
        from chargelab.families import make_density

        s = charge_setting(1, 0)
        delta = 0.05
        grid = GridSpec.for_cone(1, 0, 2.0, 512)
        truth = make_density("gaussian", grid, width=0.7)
        noisy = Charge(truth, s.C)  # clean data
        res = recover_derivative(noisy, delta, s)
        err = recovery_error(truth, noisy, res)
        assert err <= omega(s, delta) + 1e-3

    def test_mixed_recovery_snaps_h(self):
        from chargelab.families import make_density

        s = ProblemSetting.mixed(2, 1)
        grid = GridSpec.for_cone(2, 1, 2.0, 64)
        f = make_density("sin", grid)
        nu = Charge(f, s.C)
        res = recover_derivative(nu, 0.123, s)
        k = res.h / float(grid.spacing[0])
        assert k == pytest.approx(round(k), abs=1e-9)
        assert res.valid.any()
        est = res.estimate[res.valid]
        assert np.all(np.isfinite(est))

    def test_estimate_close_to_mixed_derivative_on_clean_data(self):
        from chargelab.families import make_density

        s = ProblemSetting.mixed(2, 1)
        grid = GridSpec.for_cone(2, 1, 2.0, 128)
        f = make_density("sin", grid)
        res = recover_derivative(Charge(f, s.C), 1e-4, s)
        centers = [grid.axis_centers(k) for k in range(2)]
        mesh = np.meshgrid(*centers, indexing="ij")
        pts = np.stack([mm.ravel() for mm in mesh], axis=-1)
        truth = f.mixed_fn(pts).reshape(grid.shape)
        err = np.abs(truth - res.estimate)[res.valid].max()
        # clean data: the only error is the averaging deviation, bounded by
        # (d h / (d+1)) * sup polar norm of the mixed gradient
        gsup = f.sup_abs("mixed_grad", transform=s.K.polar_norm_many,
                         cone=s.C).value
        assert err <= s.d * res.h / (s.d + 1) * gsup + 1e-6

    def test_mixed_recovery_step_must_fit_every_axis(self):
        from chargelab.families import make_density

        # spacings 0.2 and 0.3: the step snaps to whole cells of the
        # coarser axis, and fits the finer one only at an even count
        s = ProblemSetting.mixed(2, 1)
        grid = GridSpec([0.0, -4.8], [4.0, 4.8], (20, 32))
        nu = Charge(make_density("sin", grid), s.C)
        with pytest.raises(GeometryError, match="admissible"):
            recover_derivative(nu, 0.9**3 / 6, s)  # h = 0.9: 4.5 cells
        res = recover_derivative(nu, 0.6**3 / 6, s)  # h = 0.6: 3 and 2 cells
        assert res.h == pytest.approx(0.6)
        assert res.valid.any() and np.all(np.isfinite(res.estimate[res.valid]))
