"""Acceptance suite: one test per criterion, named and numbered.

Each test prints a single PASS line on success (visible with pytest -s);
with plain pytest -v the PASSED/FAILED status of the numbered test is the
per-criterion verdict.  Tolerances are pinned in the assertions.
"""

import json
import math
import time

import numpy as np
import pytest

from chargelab.charges import (
    Charge,
    extremal_charge,
    extremal_density,
    grad_sup_polar,
    seminorm_Kh,
)
from chargelab.families import make_density, random_separable_field
from chargelab.geometry import (
    ConvexBody,
    Cone,
    layer_cake_closed_form,
    layer_cake_integral,
)
from chargelab.grids import GridSpec
from chargelab.inequalities import (
    extremal_mixed_m0,
    extremal_mixed_m1,
    lk_additive_charge,
    lk_additive_mixed,
    lk_multiplicative_charge,
    lk_multiplicative_mixed,
    mixed_deviation_sup,
    split_point,
)
from chargelab.report import CSV_COLUMNS, InequalityReport, write_csv
from chargelab.stechkin import (
    ProblemSetting,
    omega,
    optimal_h_for_delta,
    recover_derivative,
    recovery_error,
    sandwich_check,
    stechkin_error,
)
from chargelab.steklov import (
    MixedParams,
    SteklovParams,
    deviation_sup,
    fubini_residual,
    steklov_apply,
    steklov_field,
    steklov_norm,
)


def sweep():
    for d in (1, 2, 3):
        for m in range(d + 1):
            for h in (0.5, 1.0, 2.0):
                yield d, m, h


def report(k, text):
    print(f"ACCEPTANCE {k}: PASS — {text}", flush=True)


def extremal_case(d, m, h, n):
    K, C = ConvexBody.box(d), Cone.orthant(d, m)
    grid = GridSpec.for_cone(d, m, h, n, margin=0.3 * h)
    return K, C, grid, extremal_charge(K, C, h, grid)


def random_charge_suite(n_cases=100):
    """Deterministic pool of (nu, K, C, h) tuples for suite-wide checks."""
    rng = np.random.default_rng(12345)
    out = []
    for i in range(n_cases):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(0, d + 1))
        C = Cone.orthant(d, m)
        K = ConvexBody.box(d)
        grid = GridSpec.for_cone(d, m, 1.5, 96 if d == 1 else 64)
        f = random_separable_field(rng, grid)
        h = float(rng.uniform(0.2, 1.0))
        out.append((Charge(f, C), K, C, h))
    return out


def test_criterion_01_layer_cake_identity():
    t0 = time.time()
    worst = 0.0
    for d, m, h in sweep():
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        mu = 2.0 ** (d - m)
        want = layer_cake_closed_form(K, C, h, mu)
        got = layer_cake_integral(K, C, h, n=256)
        rel = abs(got - want) / want
        worst = max(worst, rel)
        assert rel <= 5e-3, (d, m, h, rel)
        # error halving under refinement (with an exactness floor: the d=1
        # box quadrature is exact, so both errors can be zero)
        e1 = abs(layer_cake_integral(K, C, h, n=64) - want)
        e2 = abs(layer_cake_integral(K, C, h, n=128) - want)
        assert e2 <= e1 / 1.8 + 1e-12, (d, m, h, e1, e2)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"layer-cake sweep took {elapsed:.1f}s"
    report(1, f"layer-cake worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_extremal_charge_triple():
    worst = 0.0
    for d, m, h in sweep():
        K, C, grid, nu = extremal_case(d, m, h, 256)
        mu = 2.0 ** (d - m)
        sup = nu.density.sup_abs("value", cone=C).value
        assert sup == pytest.approx(h, abs=1e-12), (d, m, h)
        gsup = grad_sup_polar(nu.density, K, C)
        assert gsup == pytest.approx(1.0, abs=1e-12), (d, m, h)
        want = h ** (d + 1) / (d + 1) * mu
        sem = seminorm_Kh(nu, K, h).value
        rel = abs(sem - want) / want
        worst = max(worst, rel)
        assert rel <= 1e-3, (d, m, h, rel)
    report(2, f"extremal triple worst seminorm rel err {worst:.2e}")


def test_criterion_03_operator_norm():
    # attainment on the extremal family
    for d, m, h in [(1, 0, 1.0), (2, 1, 0.5), (2, 0, 2.0), (3, 2, 1.0)]:
        K, C, grid, nu = extremal_case(d, m, h, 128 if d <= 2 else 96)
        p = SteklovParams.create(K, C, h)
        sem = seminorm_Kh(nu, K, h).value
        ratio = abs(steklov_apply(nu, p, np.zeros(d))) / sem
        want = 1.0 / (h**d * p.mu)
        assert ratio == pytest.approx(want, rel=1e-3), (d, m, h)
    # no charge in the 100-case suite exceeds the norm
    worst_excess = -math.inf
    for nu, K, C, h in random_charge_suite():
        p = SteklovParams.create(K, C, h)
        S, _ = steklov_field(nu, p)
        sem = seminorm_Kh(nu, K, h).value
        excess = float(np.max(np.abs(S))) - steklov_norm(p) * sem
        worst_excess = max(worst_excess, excess)
        assert excess <= 1e-6, (h, excess)
    report(3, f"operator norm attained; suite worst excess {worst_excess:.2e}")


def test_criterion_04_deviation_sharpness():
    for d, m, h in [(1, 0, 1.0), (2, 0, 0.5), (2, 1, 1.0), (3, 1, 1.0),
                    (3, 3, 2.0)]:
        K, C, grid, nu = extremal_case(d, m, h, 128 if d <= 2 else 96)
        p = SteklovParams.create(K, C, h)
        dev = deviation_sup(nu, p).value
        want = d * h / (d + 1)
        assert dev == pytest.approx(want, rel=1e-3), (d, m, h, dev)
    tol = 1e-3
    for nu, K, C, h in random_charge_suite():
        p = SteklovParams.create(K, C, h)
        dev = deviation_sup(nu, p).value
        bound = K.d * h / (K.d + 1) * grad_sup_polar(nu.density, K, C)
        assert dev <= bound + 2 * tol, (h, dev, bound)
    report(4, "deviation equals dh/(d+1) on extremals, bounded suite-wide")


def test_criterion_05_equality_slacks():
    t0 = time.time()
    worst = 0.0
    for d, m, h in sweep():
        n = 96 if d <= 2 else 48
        K, C, grid, nu = extremal_case(d, m, h, n)
        add = lk_additive_charge(nu, K, C, h)
        mult = lk_multiplicative_charge(nu, K, C, h_max=2.5 * h,
                                        include_h=[h])
        for rep in (add, mult):
            worst = max(worst, abs(rep.slack))
            assert abs(rep.slack) <= 1e-3, (rep.case, d, m, h, rep.slack)
    # suite-wide validity on non-extremal charges
    for nu, K, C, h in random_charge_suite(30):
        rep = lk_additive_charge(nu, K, C, h)
        assert rep.slack >= -1e-6, (h, rep.slack)
        rep = lk_multiplicative_charge(nu, K, C)
        assert rep.slack >= -1e-6, (h, rep.slack)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"equality sweep took {elapsed:.1f}s"
    report(5, f"worst extremal slack {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_modulus_and_stechkin_numbers():
    s = ProblemSetting.charge(ConvexBody.box(1), Cone.orthant(1, 0))
    assert omega(s, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert stechkin_error(s, 1.0) == pytest.approx(0.25, abs=1e-15)
    deltas = np.geomspace(1e-2, 1e2, 16)
    rows, ok = sandwich_check(s, deltas)
    assert ok
    worst = max(r["rel_err"] for r in rows)
    report(6, f"Omega(1)=1, E_1=1/4; sandwich worst rel err {worst:.2e}")


def test_criterion_07_mixed_extremal_equalities():
    for d in (1, 2, 3):
        for h in (0.5, 1.0, 2.0):
            grid = GridSpec.for_cone(d, 0, 1.5 * h, 48 if d == 3 else 64)
            f0 = extremal_mixed_m0(h, d, grid)
            p0 = MixedParams(d=d, m=0, h=h)
            assert f0.sup_abs("value").value == pytest.approx(
                h ** (d + 1) / (d + 1), rel=1e-12
            )
            assert abs(lk_additive_mixed(f0, p0).slack) <= 1e-3
            assert abs(lk_multiplicative_mixed(f0, p0).slack) <= 1e-3

            grid1 = GridSpec.for_cone(d, 1, 1.5 * h, 48 if d == 3 else 64)
            f1 = extremal_mixed_m1(h, d, grid1)
            p1 = MixedParams(d=d, m=1, h=h)
            assert f1.sup_abs("value").value == pytest.approx(
                h ** (d + 1) / (2 * (d + 1)), rel=1e-9
            )
            assert abs(lk_additive_mixed(f1, p1).slack) <= 1e-3
            assert abs(lk_multiplicative_mixed(f1, p1).slack) <= 1e-3
    assert split_point(1.0, 1) == pytest.approx(1 - 1 / math.sqrt(2),
                                                abs=1e-9)
    report(7, "m=0 and m=1 equality slacks <= 1e-3; split point exact")


def test_criterion_08_mixed_closed_forms_and_deviation():
    s = ProblemSetting.mixed(2, 1)
    assert omega(s, 1.0) == pytest.approx(6 ** (1 / 3), abs=1e-15)
    assert stechkin_error(s, 1.0) == pytest.approx(2 * math.sqrt(2) / 3,
                                                   abs=1e-15)
    for d, m, h in [(1, 0, 1.0), (2, 0, 0.5), (2, 1, 1.0), (3, 1, 1.0)]:
        grid = GridSpec.for_cone(d, m, 1.5 * h, 48 if d == 3 else 64)
        f = (extremal_mixed_m0(h, d, grid) if m == 0
             else extremal_mixed_m1(h, d, grid))
        p = MixedParams(d=d, m=m, h=h)
        dev = mixed_deviation_sup(f, p)
        N = 2**m / h**d
        want = stechkin_error(ProblemSetting.mixed(d, m), N)
        assert dev == pytest.approx(want, rel=1e-3), (d, m, h, dev)
        assert want == pytest.approx(d * h / (d + 1), rel=1e-12)
    report(8, "mixed Omega/E_N closed forms and measured deviation agree")


def test_criterion_09_recovery_demo():
    s = ProblemSetting.charge(ConvexBody.box(1), Cone.orthant(1, 0))
    rng = np.random.default_rng(0)
    for delta in (0.01, 0.1, 1.0):
        t0 = time.time()
        h = optimal_h_for_delta(s, delta)
        om = omega(s, delta)
        grid = GridSpec.for_cone(1, 0, h, 512, margin=0.3 * h)
        truth = extremal_density(s.K, s.C, h, grid)
        # worst case: observed data differs from the truth by the extremal
        # charge itself (exactly delta in the matched seminorm), so the
        # observation is the zero charge
        from chargelab.grids import GridField

        noisy = Charge(
            GridField(
                grid=grid,
                values=np.zeros(grid.shape),
                value_fn=lambda pts: np.zeros(pts.shape[0]),
                grad_fn=lambda pts: np.zeros_like(pts),
            ),
            s.C,
        )
        res = recover_derivative(noisy, delta, s)
        err = recovery_error(truth, noisy, res)
        assert om - 1e-3 <= err <= om + 1e-3, (delta, err, om)
        # typical case: smooth truth observed with small filtered noise
        grid2 = GridSpec.for_cone(1, 0, max(2.0, 1.5 * h), 512)
        base = make_density("gaussian", grid2, width=0.8)
        base = base.scaled(0.8 / grad_sup_polar(base, s.K, s.C))
        pert = random_separable_field(rng, grid2)
        pnorm = seminorm_Kh(Charge(pert, s.C), s.K, h).value
        pert = pert.scaled(0.9 * delta / max(pnorm, 1e-30))
        from chargelab.families import sum_fields

        noisy2 = Charge(sum_fields([base, pert]), s.C)
        res2 = recover_derivative(noisy2, delta, s)
        err2 = recovery_error(base, noisy2, res2)
        assert err2 < om, (delta, err2, om)
        assert time.time() - t0 < 60.0
    report(9, "worst-case error matches Omega(delta); typical stays below")


def test_criterion_10_property_suites(tmp_path):
    t0 = time.time()
    # duality inequality, 10^4 samples
    rng = np.random.default_rng(99)
    for K in (ConvexBody.box(2), ConvexBody.pball(2, 2.0),
              ConvexBody.pball(3, 1.0)):
        X = rng.normal(size=(10_000, K.d))
        Y = rng.normal(size=(10_000, K.d))
        lhs = np.abs(np.sum(X * Y, axis=1))
        rhs = K.gauge_many(X) * K.polar_norm_many(Y)
        assert np.all(lhs <= rhs * (1 + 1e-9))
    # prefix-sum vs direct window sums at 1e-10
    from chargelab import windows

    for d, n in [(1, 256), (2, 64), (3, 16)]:
        values = rng.random((n,) * d)
        prefix = windows.build_prefix(values)
        i0s = [rng.integers(0, n, size=6) for _ in range(d)]
        i1s = [np.minimum(a + rng.integers(1, n, size=6), n) for a in i0s]
        out = windows.box_window_sums(prefix, i0s, i1s)
        for idx in np.ndindex(*out.shape):
            a = [i0s[k][idx[k]] for k in range(d)]
            b = [i1s[k][idx[k]] for k in range(d)]
            ref = windows.box_window_sum_direct(values, a, b)
            assert abs(out[idx] - ref) <= 1e-10 * max(1.0, abs(ref))
    # Fubini residuals at grid 256 (cell-aligned windows)
    for m in (0, 1, 2):
        grid = GridSpec.for_cone(2, m, 2.0, 256)
        f = make_density("sin", grid)
        h = float(np.max(grid.spacing)) * 32
        p = MixedParams(d=2, m=m, h=h)
        for j in (0, 3, 7):
            x = grid.lo + (np.array(grid.shape) // 2 - 8 + j) * grid.spacing
            assert fubini_residual(f, p, x) <= 1e-3, (m, j)
    # determinism of CSV goldens
    reps = [
        InequalityReport(case="g", d=2, m=1, h=0.5, grid="64x64", lhs=1 / 3,
                         rhs_terms={"a": 0.25, "b": 0.0851}, tol=1e-3)
    ]
    p1, p2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    write_csv(p1, CSV_COLUMNS, [r.csv_row() for r in reps])
    write_csv(p2, CSV_COLUMNS, [r.csv_row() for r in reps])
    assert p1.read_bytes() == p2.read_bytes()
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(10, f"property suites green in {elapsed:.1f}s")
