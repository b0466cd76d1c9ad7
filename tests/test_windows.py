import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargelab import windows


def random_case(rng, d, n, q):
    values = rng.random((n,) * d)
    prefix = windows.build_prefix(values)
    i0s = [rng.integers(0, n, size=q) for _ in range(d)]
    i1s = [np.minimum(a + rng.integers(0, n, size=q), n) for a in i0s]
    return values, prefix, i0s, i1s


def corner_sums(prefix, i0s, i1s):
    """Reference: inclusion-exclusion over the 2^d corners of each window."""
    d = prefix.ndim
    out = np.zeros(tuple(len(a) for a in i0s))
    for corner in itertools.product((0, 1), repeat=d):
        sign = -1.0 if (d - sum(corner)) % 2 else 1.0
        idx = [i1s[k] if corner[k] else i0s[k] for k in range(d)]
        out += sign * prefix[np.ix_(*idx)]
    return out


class TestPrefixTable:
    @pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 12), (4, 6)])
    def test_batched_matches_direct_slicing(self, d, n):
        rng = np.random.default_rng(d)
        values, prefix, i0s, i1s = random_case(rng, d, n, 8)
        out = windows.box_window_sums(prefix, i0s, i1s)
        for idx in np.ndindex(*out.shape):
            a = [i0s[k][idx[k]] for k in range(d)]
            b = [i1s[k][idx[k]] for k in range(d)]
            ref = windows.box_window_sum_direct(values, a, b)
            assert abs(out[idx] - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_real_positions_at_integers_match_ranges(self):
        rng = np.random.default_rng(5)
        values, prefix, i0s, i1s = random_case(rng, 3, 12, 6)
        got = windows.box_window_sums(prefix, [a.astype(float) for a in i0s],
                                      [b.astype(float) for b in i1s])
        np.testing.assert_allclose(got, windows.box_window_sums(prefix, i0s, i1s),
                                   rtol=0, atol=1e-12 * values.sum())

    def test_empty_window_is_zero(self):
        values = np.ones((5, 5))
        prefix = windows.build_prefix(values)
        out = windows.box_window_sums(prefix, [np.array([2])] * 2,
                                      [np.array([2])] * 2)
        assert out[0, 0] == 0.0

    def test_full_window_is_total(self):
        rng = np.random.default_rng(0)
        values = rng.random((7, 7, 7))
        prefix = windows.build_prefix(values)
        out = windows.box_window_sums(prefix, [np.array([0])] * 3,
                                      [np.array([7])] * 3)
        assert out.reshape(()) == pytest.approx(values.sum(), rel=1e-12)

    @given(st.integers(0, 1_000_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_corner_sum_reference(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        n = 16
        # values on a 2^-20 lattice: every prefix entry, corner sum and axis
        # difference is exact in float64 (|sum| <= 16^4 needs 37 bits), so
        # the two summation orders must agree to the last bit; rounding of
        # full-precision data is covered against direct slicing above
        values = rng.integers(0, 1 << 20, size=(n,) * d) / float(1 << 20)
        prefix = windows.build_prefix(values)
        i0s = [rng.integers(0, n + 1, size=int(rng.integers(1, 6)))
               for _ in range(d)]
        i1s = [np.minimum(a + rng.integers(0, n, size=len(a)), n) for a in i0s]
        for i0, i1 in zip(i0s, i1s):
            i1[0] = i0[0]  # an empty window on every axis
        out = windows.box_window_sums(prefix, i0s, i1s)
        assert out.shape == tuple(len(a) for a in i0s)
        np.testing.assert_allclose(out, corner_sums(prefix, i0s, i1s),
                                   rtol=0, atol=1e-12)


class TestIndexRange:
    # grid: n cells of width delta starting at lo; centers lo + (j+0.5)delta
    def test_strict_interval_selects_interior_centers(self):
        # centers 0.5, 1.5, ..., 9.5; open interval (1.0, 4.0) -> cells 1..3
        i0, i1 = windows.index_range(0.0, 1.0, 10, 1.0, 4.0)
        assert (i0, i1) == (1, 4)

    def test_center_on_boundary_is_excluded(self):
        # open interval (0.5, 2.5) has centers 0.5 and 2.5 on its boundary
        i0, i1 = windows.index_range(0.0, 1.0, 10, 0.5, 2.5)
        assert (i0, i1) == (1, 2)

    def test_tiny_float_noise_does_not_flip_boundary(self):
        eps = 1e-13
        a, b = windows.index_range(0.0, 1.0, 10, 0.5 - eps, 2.5 + eps)
        assert (a, b) == (1, 2)

    def test_clipping_to_grid(self):
        i0, i1 = windows.index_range(0.0, 1.0, 10, -5.0, 50.0)
        assert (i0, i1) == (0, 10)

    def test_empty_interval(self):
        i0, i1 = windows.index_range(0.0, 1.0, 10, 3.0, 3.0)
        assert i0 == i1

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_is_sound(self, a, b):
        lo, delta, n = -3.0, 0.25, 40
        i0, i1 = windows.index_range(lo, delta, n, a, b)
        assert 0 <= i0 <= i1 <= n
        centers = lo + (np.arange(n) + 0.5) * delta
        inside = (centers > a + 1e-12) & (centers < b - 1e-12)
        picked = np.zeros(n, dtype=bool)
        picked[i0:i1] = True
        # strictly interior centers must be picked; picked centers must not
        # be strictly outside
        assert not np.any(inside & ~picked)
        outside = (centers < a - 1e-9) | (centers > b + 1e-9)
        assert not np.any(picked & outside)

    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(0.01, 2.0, allow_nan=False),
        st.integers(1, 60),
        # per window, in cells: its start, anywhere or on a cell edge or
        # center, and its width, also below the tie tolerance
        st.lists(st.tuples(
            st.one_of(st.floats(-70, 70), st.integers(-140, 140).map(lambda k: k / 2)),
            st.one_of(st.floats(-4, 4), st.floats(0, 1e-8))), min_size=1, max_size=16),
    )
    @settings(max_examples=300, deadline=None)
    def test_batch_is_sound(self, lo, delta, n, cells):
        # the center rule of test_range_is_sound, for every window of a batch
        bounds = [(lo + s * delta, lo + (s + w) * delta) for s, w in cells]
        a, b = (np.array(t) for t in zip(*bounds))
        i0s, i1s = windows.index_ranges_batch(lo, delta, n, a, b)
        centers = lo + (np.arange(n) + 0.5) * delta
        for i0, i1, (x, y) in zip(i0s.tolist(), i1s.tolist(), bounds):
            assert 0 <= i0 <= i1 <= n
            inside = (centers > x + 1e-12) & (centers < y - 1e-12)
            picked = np.zeros(n, dtype=bool)
            picked[i0:i1] = True
            assert not np.any(inside & ~picked)
            outside = (centers < x - 1e-9) | (centers > y + 1e-9)
            assert not np.any(picked & outside)


def test_kernel_name_reported():
    assert windows.KERNEL == "separable"


def scipy_window_sums(values, indicator):
    """The correlation by scipy.fft, as the NumPy passes mirror it."""
    from scipy import fft

    r = [(k - 1) // 2 for k in indicator.shape]
    shape = [fft.next_fast_len(n + rk, real=True) for n, rk in zip(values.shape, r)]
    axes = tuple(range(values.ndim))
    flipped = indicator[(slice(None, None, -1),) * values.ndim]
    spec = fft.rfftn(values, shape, axes=axes) * fft.rfftn(flipped, shape, axes=axes)
    full = fft.irfftn(spec, shape, axes=axes)
    return full[tuple(slice(rk, rk + n) for rk, n in zip(r, values.shape))]


class TestLatticeWindowSums:
    def test_next_fast_len_matches_scipy(self):
        from scipy import fft

        for n in range(1, 5001):
            assert windows._next_fast_len(n) == fft.next_fast_len(n, real=True), n

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_scipy_fft(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            shape = tuple(int(n) for n in rng.integers(2, 30 if d < 3 else 14, size=d))
            radii = [int(rng.integers(0, n)) for n in shape]
            values = rng.normal(size=shape)
            indicator = (rng.random([2 * r + 1 for r in radii]) < 0.5).astype(float)
            got = windows.lattice_window_sums(values, indicator)
            assert np.array_equal(got, scipy_window_sums(values, indicator))
