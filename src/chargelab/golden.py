"""Golden-section minimization of a univariate function on [a, b]."""

from __future__ import annotations

import math

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_min(f, a: float, b: float, iters: int):
    """Return (x, f(x)) near the minimizer of a unimodal f on [a, b].

    Runs `iters` golden-section steps.  On non-unimodal inputs it still
    converges to a local minimum inside the bracket.
    """
    a, b = min(a, b), max(a, b)
    h = b - a
    if h == 0:
        return a, f(a)
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(iters):
        if yc < yd:
            b, d, yd = d, c, yc
            h = INV_PHI * h
            c = a + INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = INV_PHI * h
            d = a + INV_PHI * h
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)
