"""Hand-emitted SVG line/point charts (no plotting dependency).

Fixed 800x600 viewBox; log-log axes with decade ticks.  Output is
deterministic, so rendered files can serve as diffable goldens.
"""

from __future__ import annotations

import math

__all__ = ["render_plot"]

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 50, 60

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


class _Axis:
    """Log axis over the positive values, with decade ticks."""

    def __init__(self, values, pix_lo: float, pix_hi: float):
        vals = [v for v in values if v > 0]
        if not vals:
            vals = [1.0, 10.0]
        self.lo = math.floor(math.log10(min(vals)))
        self.hi = math.ceil(math.log10(max(vals)))
        if self.hi == self.lo:
            self.hi += 1
        self.ticks = [(10.0**e, f"1e{e:d}") for e in range(self.lo, self.hi + 1)]
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def pix(self, v: float) -> float:
        frac = (math.log10(v) - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)


def render_plot(path, series, *, title="", xlabel="", ylabel="") -> None:
    """Write an SVG chart with log-log axes.

    series: list of dicts with keys x (list), y (list), label (str) and
    kind ("line" or "points").  Points with a nonpositive coordinate are
    not drawn.
    """
    xs = [v for s in series for v in s["x"]]
    ys = [v for s in series for v in s["y"]]
    ax = _Axis(xs, MARGIN_L, WIDTH - MARGIN_R)
    ay = _Axis(ys, HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="28" text-anchor="middle" '
        f'font-size="18" font-family="sans-serif">{title}</text>',
    ]
    # frame
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>'
    )
    # ticks and grid
    for v, lab in ax.ticks:
        px = ax.pix(v)
        parts.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.2f}" '
            f'y2="{MARGIN_T}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{lab}</text>'
        )
    for v, lab in ay.ticks:
        py = ay.pix(v)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{py:.2f}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{py:.2f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{lab}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{HEIGHT / 2}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif" transform="rotate(-90 20 {HEIGHT / 2})">{ylabel}</text>'
    )
    # data
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = [
            (ax.pix(x), ay.pix(y))
            for x, y in zip(s["x"], s["y"])
            if x > 0 and y > 0
        ]
        if s.get("kind", "line") == "line":
            poly = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
            parts.append(
                f'<polyline points="{poly}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
        else:
            for px, py in pts:
                parts.append(
                    f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{color}"/>'
                )
        # legend
        ly = MARGIN_T + 18 + 18 * i
        parts.append(
            f'<rect x="{WIDTH - MARGIN_R - 160}" y="{ly - 10}" width="12" '
            f'height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 142}" y="{ly}" font-size="12" '
            f'font-family="sans-serif">{s["label"]}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
