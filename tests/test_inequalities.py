import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import nquad

from chargelab import windows
from chargelab.charges import Charge, extremal_charge, extremal_density
from chargelab.families import make_density, random_separable_field
from chargelab.geometry import ConvexBody, Cone
from chargelab.grids import GridSpec
from chargelab.inequalities import (
    _grad_sup,
    _shifted_antiderivative,
    _shifted_sup,
    box_corner_integral,
    extremal_mixed_m0,
    extremal_mixed_m1,
    lk_additive_charge,
    lk_additive_mixed,
    lk_multiplicative_charge,
    lk_multiplicative_mixed,
    mixed_deviation_sup,
    nagy_inequality,
    sharpness_search,
    split_point,
)
from chargelab.steklov import MixedParams, SteklovParams, deviation_sup


def box_case(d, m, h, n=96):
    K, C = ConvexBody.box(d), Cone.orthant(d, m)
    grid = GridSpec.for_cone(d, m, h, n, margin=0.3 * h)
    return K, C, grid


class TestAdditiveCharge:
    @pytest.mark.parametrize("d,m,h", [(1, 0, 1.0), (2, 0, 1.0), (2, 1, 0.7),
                                       (3, 0, 1.0)])
    def test_equality_on_extremal(self, d, m, h):
        K, C, grid = box_case(d, m, h, 96 if d <= 2 else 64)
        nu = extremal_charge(K, C, h, grid)
        rep = lk_additive_charge(nu, K, C, h)
        assert rep.lhs == pytest.approx(h, abs=1e-12)
        assert abs(rep.slack) <= 1e-3
        assert rep.equality
        assert rep.chain_ordered()

    def test_holds_on_random_densities(self):
        d, m = 2, 1
        K, C, grid = box_case(d, m, 1.0, 64)
        grid = GridSpec.for_cone(d, m, 1.5, 64)
        rng = np.random.default_rng(0)
        for _ in range(8):
            f = random_separable_field(rng, grid)
            rep = lk_additive_charge(Charge(f, C), K, C, 0.5)
            assert rep.slack >= -1e-6
            assert rep.chain_ordered()

    def test_wrong_gradient_claim_reported_as_violation(self):
        from chargelab.grids import GridField

        d, m, h = 2, 0, 1.0
        K, C, grid = box_case(d, m, h)
        honest = extremal_density(K, C, h, grid)
        inflated = GridField(
            grid=grid,
            values=1.5 * honest.values,
            value_fn=lambda pts: 1.5 * honest.value_fn(pts),
            grad_fn=honest.grad_fn,
            sup_candidates=list(honest.sup_candidates),
        )
        rep = lk_additive_charge(Charge(inflated, C), K, C, h)
        assert rep.slack < -1e-3
        assert not rep.holds


class TestMultiplicativeCharge:
    @pytest.mark.parametrize("d,m,h", [(1, 0, 1.0), (2, 1, 1.0)])
    def test_equality_on_extremal(self, d, m, h):
        K, C, grid = box_case(d, m, h)
        nu = extremal_charge(K, C, h, grid)
        rep = lk_multiplicative_charge(nu, K, C, h_max=2.5 * h, include_h=[h])
        assert abs(rep.slack) <= 1e-3
        assert rep.extras["seminorm_K_h_opt"] == pytest.approx(h, rel=0.05)

    def test_holds_on_random_densities(self):
        d, m = 1, 0
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        grid = GridSpec.for_cone(d, m, 1.5, 128)
        rng = np.random.default_rng(1)
        for _ in range(8):
            f = random_separable_field(rng, grid)
            rep = lk_multiplicative_charge(Charge(f, C), K, C)
            assert rep.slack >= -1e-6


class TestNagy:
    def test_equality_on_extremal(self):
        d, m, h = 2, 0, 1.0
        K, C, grid = box_case(d, m, h, 128)
        f = extremal_density(K, C, h, grid)
        rep = nagy_inequality(f, K, C, h)
        assert abs(rep.slack) <= 1e-3

    def test_holds_on_smooth_families(self):
        d, m = 2, 0
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        grid = GridSpec.for_cone(d, m, 2.0, 64)
        for name in ("gaussian", "sin", "poly"):
            f = make_density(name, grid)
            rep = nagy_inequality(f, K, C, 0.8)
            assert rep.slack >= -1e-6


class TestReportFormulasBitwise:
    """Each report's rhs_terms and middle equal, bit for bit, the bound
    written out with the operator norm 1/(h^d mu) of its setting."""

    def test_additive_charge(self):
        d, m, h = 2, 1, 0.7
        K, C, grid = box_case(d, m, h, 48)
        nu = extremal_charge(K, C, h, grid)
        rep = lk_additive_charge(nu, K, C, h)
        gsup, sem = rep.extras["grad_sup_polar"], rep.extras["seminorm_Kh"]
        N = 1.0 / (h**d * 2.0 ** (d - m))
        dev = deviation_sup(nu, SteklovParams.create(K, C, h)).value
        assert rep.rhs_terms == {"deviation": d * h / (d + 1) * gsup,
                                 "norm": sem * N}
        assert rep.middle == dev + N * sem

    def test_multiplicative_charge(self):
        d, m, h = 2, 1, 0.7
        K, C, grid = box_case(d, m, h, 48)
        nu = extremal_charge(K, C, h, grid)
        rep = lk_multiplicative_charge(nu, K, C, h_max=2.5 * h, include_h=[h])
        gsup, semK = rep.extras["grad_sup_polar"], rep.extras["seminorm_K"]
        mu = 2.0 ** (d - m)
        assert rep.rhs_terms == {"product": ((d + 1) / mu) ** (1.0 / (d + 1))
                                 * gsup ** (d / (d + 1))
                                 * semK ** (1.0 / (d + 1))}
        assert rep.middle is None

    def test_nagy(self):
        d, m, h = 2, 0, 0.7
        K, C, grid = box_case(d, m, h, 48)
        rep = nagy_inequality(extremal_density(K, C, h, grid), K, C, h)
        gsup, l1 = rep.extras["grad_sup_polar"], rep.extras["l1_norm"]
        assert rep.rhs_terms == {"deviation": d * h / (d + 1) * gsup,
                                 "norm": l1 * (1.0 / (h**d * 2.0**d))}
        assert rep.middle is None

    @pytest.mark.parametrize("m", [0, 1])
    def test_additive_mixed(self, m):
        d, h = 2, 0.6
        p = MixedParams(d=d, m=m, h=h)
        build = extremal_mixed_m0 if m == 0 else extremal_mixed_m1
        f = build(h, d, GridSpec.for_cone(d, m, 1.5 * h, 32))
        rep = lk_additive_mixed(f, p)
        gsup, fsup = rep.extras["mixed_grad_sup"], rep.extras["f_sup"]
        assert rep.rhs_terms == {"deviation": h * d / (d + 1) * gsup,
                                 "norm": 2**m / h**d * fsup}
        assert rep.middle == mixed_deviation_sup(f, p) + 2**m / h**d * fsup

    @pytest.mark.parametrize("m", [0, 1])
    def test_multiplicative_mixed(self, m):
        d, h = 2, 0.6
        p = MixedParams(d=d, m=m, h=h)
        build = extremal_mixed_m0 if m == 0 else extremal_mixed_m1
        f = build(h, d, GridSpec.for_cone(d, m, 1.5 * h, 32))
        rep = lk_multiplicative_mixed(f, p)
        gsup, fsup = rep.extras["mixed_grad_sup"], rep.extras["f_sup"]
        assert rep.rhs_terms == {"product": (2**m * (d + 1) * fsup)
                                 ** (1.0 / (d + 1)) * gsup ** (d / (d + 1))}
        assert rep.middle is None


def _bits(x):
    """x with every float and array replaced by its bytes, for bit-for-bit
    comparison of reports."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (float, np.floating, np.ndarray)):
        a = np.asarray(x)
        return (a.dtype.str, a.shape, a.tobytes())
    return x


def _report_pair(nu, K, C, h):
    return (lk_additive_charge(nu, K, C, h),
            lk_multiplicative_charge(nu, K, C, h_max=2.5 * h, include_h=[h]))


class TestReportPairMemo:
    """The additive and the multiplicative report on one charge read the
    value sup, the gradient sup and seminorm_Kh at h through the charge's
    memo."""

    CASES = [(2, 1, 1.0, 48), (3, 1, 1.0, 20)]

    @pytest.mark.parametrize("d,m,h,n", CASES)
    def test_shared_charge_gives_the_same_reports(self, d, m, h, n):
        K, C, grid = box_case(d, m, h, n)
        dens = extremal_density(K, C, h, grid)
        shared = _report_pair(Charge(dens, C), K, C, h)
        fresh = (lk_additive_charge(Charge(dens, C), K, C, h),
                 lk_multiplicative_charge(Charge(dens, C), K, C, h_max=2.5 * h,
                                          include_h=[h]))
        for a, b in zip(shared, fresh):
            for f in dataclasses.fields(a):
                assert _bits(getattr(a, f.name)) == _bits(getattr(b, f.name)), f.name

    @pytest.mark.parametrize("d,m,h,n", CASES)
    def test_pair_sweeps_the_gradient_and_the_window_at_h_once(
            self, d, m, h, n, monkeypatch):
        K, C, grid = box_case(d, m, h, n)
        dens = extremal_density(K, C, h, grid)
        points, calls = [], []
        grad_fn = dens.grad_fn

        def counted_grad(pts):
            points.append(pts.shape[0])
            return grad_fn(pts)

        dens.grad_fn = counted_grad
        kernel = windows.box_window_sums
        monkeypatch.setattr(windows, "box_window_sums",
                            lambda prefix, i0s, i1s: calls.append(1)
                            or kernel(prefix, i0s, i1s))
        _report_pair(Charge(dens, C), K, C, h)
        assert sum(points) == n**d + len(dens.sup_candidates)
        # seminorm_Kh at h, the deviation's fractional field, its fractional
        # window at the origin and seminorm_K's sweep at h_max (include_h=[h]
        # finds h_opt in the memo, so no bisection sweep runs)
        assert len(calls) == 4

    def test_grad_sup_follows_the_body_and_the_cone(self):
        from chargelab.grids import GridField

        # gradient x on [-1.5, 1.5]^2 and a candidate point (-5, 2) that only
        # the half plane x_0 < 0 holds, so each body and cone has its own sup
        d = 2
        grid = GridSpec.for_cone(d, 0, 1.5, 16)
        f = GridField(grid, np.zeros(grid.shape),
                      grad_fn=lambda pts: np.array(pts, dtype=float),
                      sup_candidates=[np.array([-5.0, 2.0])])
        nu = Charge(f, Cone.orthant(d, 0))
        cones = (lambda: Cone.orthant(d, 1),
                 lambda: Cone.halfspaces([[-1.0, 0.0]]), lambda: Cone.orthant(d, 1))
        bodies = (lambda: ConvexBody.box(d), lambda: ConvexBody.pball(d, 1.0),
                  lambda: ConvexBody.box(d))

        def fresh(K, C):
            return _grad_sup(Charge(f, Cone.orthant(d, 0)), K, C)

        # one body and one cone object each, held across the calls
        held_K, held_C = [b() for b in bodies], [c() for c in cones]
        seen = set()
        for K in held_K:
            for C in held_C:
                assert _grad_sup(nu, K, C) == fresh(K, C)
                seen.add(_grad_sup(nu, K, C))
        assert len(seen) == 4  # two bodies and two cones, each pair its own
        # bodies and cones made afresh for each call: an id that a freed
        # object leaves behind must not bring back its entry
        for make_K in bodies:
            for make_C in cones:
                assert _grad_sup(nu, make_K(), make_C()) == fresh(make_K(), make_C())


class TestBoxCornerIntegral:
    def test_d1_closed_form(self):
        h = 1.0
        for b in (0.25, 0.7, 1.0):
            want = h * b - b**2 / 2
            got = float(box_corner_integral(np.array([b]), h)[0])
            assert got == pytest.approx(want, rel=1e-12)

    def test_full_corner_value(self):
        for d in (1, 2, 3, 4):
            h = 0.9
            got = float(box_corner_integral(np.full(d, h), h)[0])
            assert got == pytest.approx(h ** (d + 1) / (d + 1), rel=1e-12)

    def test_against_scipy_quadrature(self):
        h = 1.0
        rng = np.random.default_rng(2)
        for _ in range(4):
            b = rng.uniform(0.1, 1.0, size=2)
            want, _ = nquad(
                lambda x, y: max(h - max(abs(x), abs(y)), 0.0),
                [(0, b[0]), (0, b[1])],
            )
            got = float(box_corner_integral(b, h)[0])
            # nquad itself carries ~1e-8 error across the gauge kink
            assert got == pytest.approx(want, rel=1e-6)

    def test_clipping_beyond_h(self):
        # mass outside the window contributes nothing
        h = 0.5
        inside = float(box_corner_integral(np.array([0.5, 0.5]), h)[0])
        beyond = float(box_corner_integral(np.array([2.0, 3.0]), h)[0])
        assert inside == pytest.approx(beyond, rel=1e-12)


class TestSplitPoint:
    def test_d1_exact_value(self):
        assert split_point(1.0, 1) == pytest.approx(1 - 1 / math.sqrt(2),
                                                    abs=1e-9)

    def test_scaling_in_h(self):
        assert split_point(2.0, 1) == pytest.approx(2 * split_point(1.0, 1),
                                                    abs=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_within_one_ulp_of_a_50_digit_root(self, d):
        # a = h x_d, x_d the root in (0, 1) of (d+1) x - x^(d+1) = d/2
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            def F(t):
                return (d + 1) * t - t ** (d + 1) - mpmath.mpf(d) / 2

            x = mpmath.findroot(F, (mpmath.mpf(0), mpmath.mpf(1)),
                                solver="bisect")
            for h in (1e-3, 0.3, 0.75, 1.0, 1.25, 2.5, 7.0, 1e3):
                want = mpmath.mpf(h) * x
                got = split_point(h, d)
                assert abs(mpmath.mpf(got) - want) <= math.ulp(float(want)), h

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_splits_mass_in_half_on_a_grid(self, d):
        # independent cross-check by lattice quadrature of the density over
        # the half-window above/below the split level
        h = 1.0
        a = split_point(h, d)
        n = 160

        def mass(lo0, hi0):
            # midpoint quadrature with axis-0 cells aligned to [lo0, hi0]
            w0 = (hi0 - lo0) / n
            axes = [lo0 + (np.arange(n) + 0.5) * w0]
            axes += [np.linspace(-h, h, 2 * n, endpoint=False)
                     + h / (2 * n)] * (d - 1)
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([mm.ravel() for mm in mesh], axis=-1)
            w = np.clip(h - np.max(np.abs(pts), axis=1), 0.0, None)
            return w.sum() * w0 * (h / n) ** (d - 1)

        assert mass(0.0, a) == pytest.approx(mass(a, h), rel=5e-3)


class TestMixedInequalities:
    @pytest.mark.parametrize("d,h", [(1, 1.0), (2, 1.0), (2, 0.6), (3, 1.0)])
    def test_m0_equality(self, d, h):
        p = MixedParams(d=d, m=0, h=h)
        grid = GridSpec.for_cone(d, 0, 1.5 * h, 64 if d <= 2 else 40)
        f = extremal_mixed_m0(h, d, grid)
        assert f.sup_abs("value").value == pytest.approx(
            h ** (d + 1) / (d + 1), rel=1e-12
        )
        for rep in (lk_additive_mixed(f, p), lk_multiplicative_mixed(f, p)):
            assert abs(rep.slack) <= 1e-9
            assert rep.equality

    @pytest.mark.parametrize("d,h", [(1, 1.0), (2, 1.0), (3, 1.0)])
    def test_m1_equality(self, d, h):
        p = MixedParams(d=d, m=1, h=h)
        grid = GridSpec.for_cone(d, 1, 1.5 * h, 64 if d <= 2 else 40)
        f = extremal_mixed_m1(h, d, grid)
        assert f.sup_abs("value").value == pytest.approx(
            h ** (d + 1) / (2 * (d + 1)), rel=1e-9
        )
        for rep in (lk_additive_mixed(f, p), lk_multiplicative_mixed(f, p)):
            assert abs(rep.slack) <= 1e-9
            assert rep.equality

    def test_holds_on_smooth_families(self):
        d, m = 2, 1
        p = MixedParams(d=d, m=m, h=0.5)
        grid = GridSpec.for_cone(d, m, 2.0, 64)
        for name in ("gaussian", "sin"):
            f = make_density(name, grid)
            for rep in (lk_additive_mixed(f, p), lk_multiplicative_mixed(f, p)):
                assert rep.slack >= -1e-6

    def test_mixed_deviation_bounded(self):
        d, m, h = 2, 1, 1.0
        p = MixedParams(d=d, m=m, h=h)
        grid = GridSpec.for_cone(d, m, 1.5, 64)
        f = make_density("sin", grid)
        gsup = f.sup_abs(
            "mixed_grad", transform=p.body.polar_norm_many, cone=p.cone
        ).value
        assert mixed_deviation_sup(f, p) <= d * h / (d + 1) * gsup + 1e-6

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixed_deviation_reads_the_origin_once(self, d):
        # the field registers the origin too; the deviation sup lists it once
        h = 1.0
        p = MixedParams(d=d, m=1, h=h)
        f = extremal_mixed_m1(h, d, GridSpec.for_cone(d, 1, 1.5 * h, 16))
        assert any(not c.any() for c in f.sup_candidates)
        origins, mixed_fn = [], f.mixed_fn

        def counted(pts):
            origins.append(int(np.sum(~pts.any(axis=1))))
            return mixed_fn(pts)

        f.mixed_fn = counted
        dev = mixed_deviation_sup(f, p)
        assert sum(origins) == 1
        f.mixed_fn = mixed_fn
        assert dev == mixed_deviation_sup(f, p)


class TestSharpnessSearch:
    def test_m1_control_recovers_equality(self):
        res = sharpness_search(2, 1, 1.0, budget=8, seed=0)
        assert res.best_ratio == pytest.approx(1.0, abs=1e-3)
        assert res.best_ratio <= 1 + 1e-6
        # the optimal shift is the analytic split point
        assert res.best_shifts[0] == pytest.approx(split_point(1.0, 2),
                                                   abs=5e-3)

    def test_m2_stays_exploratory(self):
        res = sharpness_search(2, 2, 1.0, budget=6, seed=1)
        assert res.best_ratio <= 1 + 1e-6
        assert len(res.trajectory) > 0
        # pinned: a change of the inner sup must not move the search
        assert res.best_ratio == pytest.approx(0.9672637647247302, rel=1e-9)


class TestShiftedSup:
    @pytest.mark.parametrize("h", [0.75, 1.0, 1.25])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_split_point_sup_is_exact(self, d, h):
        want = h ** (d + 1) / (2 * (d + 1))
        assert _shifted_sup(h, d, 1, [split_point(h, d)]) == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unshifted_sup(self, d):
        assert _shifted_sup(1.0, d, 0, []) == pytest.approx(1 / (d + 1),
                                                            rel=1e-12)

    @pytest.mark.parametrize("d,m,n", [(1, 1, 1025), (2, 1, 257), (2, 2, 257),
                                       (3, 2, 65), (3, 3, 33)])
    def test_not_below_a_dense_lattice(self, d, m, n):
        rng = np.random.default_rng(15)
        axes = [np.linspace(0.0 if i < m else -1.0, 1.0, n) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        for _ in range(8):
            h = rng.uniform(0.75, 1.25)
            shifts = rng.uniform(0.05 * h, 0.95 * h, size=m)
            pts = h * np.stack([t.ravel() for t in mesh], axis=-1)
            dense = np.max(np.abs(_shifted_antiderivative(pts, h, shifts)))
            # the lattice holds every corner, and each row is computed alone
            assert _shifted_sup(h, d, m, shifts) == dense

    @pytest.mark.parametrize("d,m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2),
                                     (3, 3)])
    def test_monotone_along_axis_lines(self, d, m):
        # the reason the sup sits at a corner: g_s is monotone in each
        # coordinate, so along every axis-parallel line its steps share a sign
        rng = np.random.default_rng(16)
        lo = np.array([0.0 if i < m else -1.0 for i in range(d)])
        for _ in range(20):
            h = rng.uniform(0.75, 1.25)
            shifts = rng.uniform(0.05 * h, 0.95 * h, size=m)
            axis = rng.integers(d)
            pts = np.tile(h * rng.uniform(lo, 1.0), (201, 1))
            pts[:, axis] = h * np.linspace(lo[axis], 1.0, 201)
            steps = np.diff(_shifted_antiderivative(pts, h, shifts))
            tol = 1e-14 * h ** (d + 1)
            assert np.all(steps >= -tol) or np.all(steps <= tol)
