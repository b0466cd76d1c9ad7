import itertools
import math
import tracemalloc

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


def take_difference(table, i0s, i1s):
    """Reference: one unblocked difference pass per axis over the whole
    table, strict (a take pair) or fractional (linear interpolation), with
    the kernel's per-element arithmetic."""
    out = table
    for axis, (t0, t1) in enumerate(zip(i0s, i1s)):
        if np.issubdtype(np.asarray(t0).dtype, np.integer):
            out = np.take(out, t1, axis=axis) - np.take(out, t0, axis=axis)
            continue
        n = out.shape[axis] - 1
        ends = []
        for t in (t0, t1):
            t = np.clip(t, 0.0, n)
            k = np.minimum(t.astype(np.int64), n - 1)
            below = np.take(out, k, axis=axis)
            end = np.take(out, k + 1, axis=axis) - below
            end *= (t - k).reshape((-1,) + (1,) * (out.ndim - 1 - axis))
            ends.append(end + below)
        out = ends[1] - ends[0]
    return out


def query_case(rng, d, n, q, fractional):
    """q[k] windows on axis k of an n^d grid; fractional ends are real
    positions that may fall outside [0, n]."""
    i0s = [rng.integers(0, n, size=qk) for qk in q]
    i1s = [np.minimum(a + rng.integers(0, n, size=len(a)), n) for a in i0s]
    if fractional:
        i0s = [a + rng.random(len(a)) - 0.5 for a in i0s]
        i1s = [b + rng.random(len(b)) - 0.25 for b in i1s]
    return i0s, i1s


def all_centers(n, r, fractional):
    """One window of half-width r cells at each of n cell centers per axis,
    as lkbench's box-hsup sweeps (strict) and deviation_sup (fractional)
    ask for them."""
    c = np.arange(n)
    if fractional:
        return [c + 0.5 - r] * 3, [c + 0.5 + r] * 3
    r = int(r)
    return [np.clip(c - r, 0, n)] * 3, [np.clip(c + r + 1, 0, n)] * 3


class TestBlockedPasses:
    # d, cells per axis, queries per axis: the first axis spans several
    # blocks and ends in a partial one (d = 1: more than 2 * 2^15 queries)
    CASES = [(1, 1000, (2 * windows._BLOCK + 123,)), (2, 300, (250, 60)),
             (3, 40, (50, 7, 9)), (4, 12, (33, 5, 3, 4))]

    @pytest.mark.parametrize("fractional", [False, True])
    @pytest.mark.parametrize("d,n,q", CASES)
    def test_bit_identical_across_blocks(self, d, n, q, fractional):
        rng = np.random.default_rng(10 * d + fractional)
        prefix = windows.build_prefix(rng.random((n,) * d))
        i0s, i1s = query_case(rng, d, n, q, fractional)
        # the largest row (per first-axis query) of any pass's output
        row = max(math.prod(q[1:k + 1]) * (n + 1) ** (d - 1 - k) for k in range(d))
        block = windows._BLOCK // row
        assert q[0] > 2 * block and q[0] % block
        got = windows.box_window_sums(prefix, i0s, i1s)
        assert got.shape == q
        assert np.array_equal(got, take_difference(prefix, i0s, i1s))

    @pytest.mark.parametrize("fractional", [False, True])
    def test_bit_identical_all_centers(self, fractional):
        rng = np.random.default_rng(64)
        prefix = windows.build_prefix(rng.random((64,) * 3))
        i0s, i1s = all_centers(64, 16.3, fractional)
        got = windows.box_window_sums(prefix, i0s, i1s)
        assert np.array_equal(got, take_difference(prefix, i0s, i1s))

    def test_mixed_strict_and_fractional_axes(self):
        rng = np.random.default_rng(7)
        prefix = windows.build_prefix(rng.random((20, 20, 20)))
        s0, s1 = query_case(rng, 3, 20, (30, 6, 5), False)
        f0, f1 = query_case(rng, 3, 20, (30, 6, 5), True)
        i0s, i1s = [f0[0], s0[1], f0[2]], [f1[0], s1[1], f1[2]]
        assert np.array_equal(windows.box_window_sums(prefix, i0s, i1s),
                              take_difference(prefix, i0s, i1s))

    @pytest.mark.parametrize("fractional", [False, True])
    @pytest.mark.parametrize("empty", [0, 2])
    def test_zero_length_queries(self, empty, fractional):
        rng = np.random.default_rng(3)
        prefix = windows.build_prefix(rng.random((6, 7, 8)))
        i0s, i1s = query_case(rng, 3, 6, [0 if k == empty else 4 for k in range(3)],
                              fractional)
        out = windows.box_window_sums(prefix, i0s, i1s)
        assert out.shape == tuple(len(a) for a in i0s)
        assert out.size == 0

    @pytest.mark.parametrize("fractional", [False, True])
    def test_no_grid_sized_temporary(self, fractional):
        # NumPy reports its buffers to tracemalloc; the traced peak is the
        # result plus the scratch, at most 2 buffers per pass (3 with
        # fractional ends) but for the last, of at most _BLOCK float64 each
        prefix = windows.build_prefix(np.random.default_rng(1).random((64,) * 3))
        i0s, i1s = all_centers(64, 16.3, fractional)
        scratch = (3 * 3 - 1 if fractional else 2 * 3 - 1) * windows._BLOCK * 8
        tracemalloc.start()
        try:
            out = windows.box_window_sums(prefix, i0s, i1s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + scratch + (1 << 18), peak


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
