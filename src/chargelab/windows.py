"""The window-sum engine.

Two batched kernels.  Axis-aligned windows (box bodies with orthant cones)
are answered from zero-padded prefix (summed-area) tables: inclusion-exclusion
over a cartesian product of per-axis windows factorises by axis, so a batch
costs one difference pass per axis over the table instead of 2^d corner
lookups per window.  The passes run in cache-sized blocks of first-axis
queries through scratch buffers allocated once per call, so the result is
the only array of its size that a batch allocates.  A pass takes integer
cell ranges (strict windows: the cells whose centers lie inside) or real
cell positions (fractional windows: cells cut by a face count with the
fraction inside, the exact integral of the piecewise-constant values), the
latter by linear interpolation of the table.  A window of any other shape,
translated to every cell center, is a discrete correlation of the values
with the window's 0/1 indicator over integer cell offsets, computed by one
real FFT in NumPy, whose passes round as scipy.fft's do.  Direct slicing of
the values is kept as the oracle.
"""

from __future__ import annotations

import math

import numpy as np

# name of the window-sum engine, reported as provenance
KERNEL = "separable"

__all__ = ["KERNEL", "build_prefix", "index_range", "box_window_sums",
           "box_window_sum_direct", "lattice_window_sums"]

# relative tie tolerance for strict window-boundary comparisons: a cell
# center sitting exactly on the open window's boundary is excluded,
# deterministically, even under float rounding
_TIE = 1e-9

# float64 entries in each scratch buffer of box_window_sums: 256 KB, which
# stays in L2 and under glibc's mmap threshold, so that a call's buffers
# reuse heap pages instead of faulting in fresh ones (at 2^17 they do not)
_BLOCK = 1 << 15


def build_prefix(values: np.ndarray) -> np.ndarray:
    """Zero-padded cumulative-sum table over all axes."""
    d = values.ndim
    prefix = np.zeros(tuple(n + 1 for n in values.shape), dtype=float)
    core = prefix[tuple(slice(1, None) for _ in range(d))]
    core[...] = values
    for axis in range(d):
        np.cumsum(prefix, axis=axis, out=prefix)
    return prefix


def index_range(lo: float, delta: float, n: int, a: float, b: float):
    """Half-open cell index range [i0, i1) of centers strictly inside (a, b):
    index_ranges_batch for one window."""
    i0, i1 = index_ranges_batch(lo, delta, n, [a], [b])
    return int(i0[0]), int(i1[0])


def index_ranges_batch(lo: float, delta: float, n: int,
                       a: np.ndarray, b: np.ndarray):
    """Half-open cell index ranges [i0, i1) of the centers lo + (i + 0.5) *
    delta strictly inside the windows (a, b), i1 = i0 where b <= a; lo,
    delta and n may be arrays that broadcast with a and b.  Ties break
    towards exclusion by a small relative tolerance, so that a window edge
    landing exactly on a center gives a stable result."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t0 = (a - lo) / delta - 0.5
    t1 = (b - lo) / delta - 0.5
    i0 = np.floor(t0 + _TIE).astype(np.int64) + 1
    i1 = np.ceil(t1 - _TIE).astype(np.int64)
    # i0 into [0, n] and i1 into [i0, n] (np.clip costs more on a short
    # batch); b <= a gives t1 <= t0, so i1 <= i0 before and i1 = i0 after
    np.minimum(np.maximum(i0, 0, out=i0), n, out=i0)
    np.minimum(np.maximum(i1, i0, out=i1), n, out=i1)
    return i0, i1


def box_window_sums(prefix: np.ndarray, i0s, i1s) -> np.ndarray:
    """Window sums from a zero-padded prefix table.

    prefix has shape (n_1+1, ..., n_d+1) with prefix[j] the sum of values
    over cells < j in every axis (see build_prefix).  i0s/i1s hold, per axis,
    the ends of each query's window along that axis, in cells.  Integer
    arrays are half-open cell index ranges [i0, i1) with 0 <= i0, i1 <= n_k
    (an index outside clips to that range).  Real arrays are positions,
    clipped to [0, n_k]: a cell cut by an end counts with the fraction of it
    inside, so the sum is the exact integral, in cell units, of the
    piecewise-constant values over the box cut to the grid.  Returns one sum
    per combination of per-axis queries, with shape tuple(len(a) for a in
    i0s).

    The first-axis queries go in blocks, as many as keep every pass's
    output for a block within _BLOCK entries (at least one).  A block runs
    the d difference passes (_difference) through scratch buffers that the
    call allocates once, the last pass into its rows of the result, so the
    result is the only array of its size that a call allocates.
    """
    d = prefix.ndim
    ends = [_ends(i0, i1, n - 1, d - 1 - k)
            for k, (i0, i1, n) in enumerate(zip(i0s, i1s, prefix.shape))]
    q = [len(e[0]) for e in ends]
    out = np.empty(tuple(q))
    if out.size == 0:
        return out
    # a block's shape after pass k, less its first axis
    shapes = [tuple(q[1:k + 1]) + prefix.shape[k + 1:] for k in range(d)]
    block = min(q[0], max(1, _BLOCK // max(map(math.prod, shapes))))
    # per pass: its output (but for the last pass, which writes into the
    # result), lo and, for positions, below; allocated at the pass's first
    # use and dropped after its last, so that a call of one block holds one
    # pass's buffers and its input at a time
    bufs = [None] * d
    for r0 in range(0, q[0], block):
        r1 = r0 + block
        src = prefix
        for k, e in enumerate(ends):
            buf = bufs[k]
            if buf is None:
                buf = [np.empty((block,) + shapes[k])
                       for _ in range(1 + (len(e) > 2) + (k < d - 1))]
            bufs[k] = buf if r1 < q[0] else None
            if k == 0 and block < q[0]:
                e = [a[r0:r1] for a in e]
            if r1 > q[0]:
                buf = [x[:q[0] - r0] for x in buf]
            if k < d - 1:
                dst = buf[0]
                _difference(src, k, e, dst, *buf[1:])
            else:
                dst = out[r0:r1]
                _difference(src, k, e, dst, *buf)
            src = dst
    return out


def _ends(i0, i1, n: int, trail: int):
    """The take indices and weights of one axis pass: (i1, i0) for cell
    ranges, (k1 + 1, k1, w1, k0 + 1, k0, w0) for positions, where t is
    clipped to [0, n], k = min(floor t, n - 1) and w = t - k is shaped to
    broadcast over the trail axes after it."""
    i0, i1 = np.asarray(i0), np.asarray(i1)
    if i0.dtype.kind in "iu":
        return i1, i0
    out = ()
    for t in (i1, i0):
        t = np.clip(t, 0.0, n)
        k = np.minimum(t.astype(np.int64), n - 1)
        out += (k + 1, k, (t - k).reshape((-1,) + (1,) * trail))
    return out


def _difference(src, axis: int, ends, dst, lo, below=None) -> None:
    """dst = F(end) - F(start) along one axis of src, F the table (cell
    ranges) or its linear interpolant over integer positions; lo and below
    are scratch of dst's shape.  mode="raise" would buffer each take."""
    if len(ends) == 2:
        src.take(ends[0], axis, dst, "clip")
        src.take(ends[1], axis, lo, "clip")
    else:
        for (up, k, w), buf in ((ends[:3], dst), (ends[3:], lo)):
            src.take(up, axis, buf, "clip")
            src.take(k, axis, below, "clip")
            buf -= below
            buf *= w
            buf += below
    dst -= lo


def lattice_window_sums(values: np.ndarray, indicator: np.ndarray) -> np.ndarray:
    """Sum of the values over one window translated to every cell.

    indicator has odd length 2 r_k + 1 <= 2 n_k - 1 along each axis k, its
    middle entry standing for offset 0, so that the result at cell y is
    sum_o indicator[r + o] * values[y + o], values outside the grid counting
    as zero.  One real FFT correlation: a periodic length of n_k + r_k per
    axis already keeps wrapped terms out of the n_k cells returned.
    """
    r = [(k - 1) // 2 for k in indicator.shape]
    if any(k % 2 == 0 or rk >= n for k, rk, n in zip(indicator.shape, r, values.shape)):
        raise ValueError("indicator needs odd length 2r+1 with r < n on every axis")
    shape = [_next_fast_len(n + rk) for n, rk in zip(values.shape, r)]
    # correlation with the indicator is convolution with its reflection; the
    # passes go first to last axis and scale once, as scipy.fft does (np.fft's
    # rfftn goes last to first and scales per axis), so round as it does
    flipped = indicator[(slice(None, None, -1),) * values.ndim]
    specs = [np.fft.rfft(a, shape[-1], -1) for a in (values, flipped)]
    for axis, n in enumerate(shape[:-1]):
        specs = [np.fft.fft(spec, n, axis) for spec in specs]
    spec = specs[0] * specs[1]
    for axis, n in enumerate(shape[:-1]):
        spec = np.fft.ifft(spec, n, axis, norm="forward")
    full = np.fft.irfft(spec, shape[-1], -1, norm="forward")
    return full[tuple(slice(rk, rk + n) for rk, n in zip(r, values.shape))] * (
        1.0 / math.prod(shape))


def _next_fast_len(n: int) -> int:
    """The least 5-smooth length 2^a 3^b 5^c >= n, which the real FFT
    factors into its fastest radices (scipy.fft.next_fast_len(n, real=True))."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def box_window_sum_direct(values: np.ndarray, i0s, i1s) -> float:
    """Single window by direct slicing (no prefix table); oracle path."""
    sl = tuple(slice(int(a), int(b)) for a, b in zip(np.ravel(i0s), np.ravel(i1s)))
    return float(values[sl].sum())
