"""Hand-rolled SVG log-log plots of trace series.

One <polyline> per data series; axes, ticks and the reference-slope guide are
drawn with <path>/<line>/<text> so the polyline count equals the series count.
"""

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _text(value):
    # escaped for an XML text node: a problem may be named "A&B <x>"
    return str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _decades(lo, hi):
    start = math.floor(math.log10(lo))
    stop = math.ceil(math.log10(hi))
    return [10.0 ** k for k in range(start, stop + 1)]


def loglog_svg(path, curves, guide_slope=None, xlabel="x", ylabel="y",
               width=640, height=480, title=None):
    """Write a log-log SVG plot.

    curves -- list of (name, x array, y array); values must be positive.
    guide_slope -- optional slope for a dashed reference line anchored at the
    last point of the first curve.
    """
    margin = dict(left=70, right=20, top=30, bottom=50)
    xs = [float(v) for _, x, _ in curves for v in x]
    ys = [float(v) for _, _, y in curves for v in y]
    if not xs or min(xs) <= 0 or min(ys) <= 0:
        raise ValueError("log-log plot needs positive data")
    lx0, lx1 = math.log10(min(xs)), math.log10(max(xs))
    ly0, ly1 = math.log10(min(ys)), math.log10(max(ys))
    pad = 0.05
    lx0, lx1 = lx0 - pad * (lx1 - lx0 + 1e-9), lx1 + pad * (lx1 - lx0 + 1e-9)
    ly0, ly1 = ly0 - pad * (ly1 - ly0 + 1e-9), ly1 + pad * (ly1 - ly0 + 1e-9)
    box_w = width - margin["left"] - margin["right"]
    box_h = height - margin["top"] - margin["bottom"]

    def px(x):
        return margin["left"] + (math.log10(x) - lx0) / (lx1 - lx0) * box_w

    def py(y):
        return margin["top"] + (ly1 - math.log10(y)) / (ly1 - ly0) * box_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect class="axes" x="{margin["left"]}" y="{margin["top"]}" '
        f'width="{box_w}" height="{box_h}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2}" y="18" text-anchor="middle" '
                     f'font-size="13">{_text(title)}</text>')
    for tick in _decades(min(xs), max(xs)):
        if lx0 <= math.log10(tick) <= lx1:
            x = px(tick)
            parts.append(f'<line x1="{x:.2f}" y1="{margin["top"] + box_h}" '
                         f'x2="{x:.2f}" y2="{margin["top"] + box_h + 5}" stroke="black"/>')
            parts.append(f'<text x="{x:.2f}" y="{margin["top"] + box_h + 18}" '
                         f'text-anchor="middle" font-size="11">1e{int(math.log10(tick))}</text>')
    for tick in _decades(min(ys), max(ys)):
        if ly0 <= math.log10(tick) <= ly1:
            y = py(tick)
            parts.append(f'<line x1="{margin["left"] - 5}" y1="{y:.2f}" '
                         f'x2="{margin["left"]}" y2="{y:.2f}" stroke="black"/>')
            parts.append(f'<text x="{margin["left"] - 8}" y="{y + 4:.2f}" '
                         f'text-anchor="end" font-size="11">1e{int(math.log10(tick))}</text>')
    parts.append(f'<text x="{margin["left"] + box_w / 2}" y="{height - 8}" '
                 f'text-anchor="middle" font-size="12">{_text(xlabel)}</text>')
    parts.append(f'<text x="16" y="{margin["top"] + box_h / 2}" text-anchor="middle" '
                 f'font-size="12" transform="rotate(-90 16 {margin["top"] + box_h / 2})">'
                 f'{_text(ylabel)}</text>')

    for k, (name, x, y) in enumerate(curves):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{px(xi):.2f},{py(yi):.2f}" for xi, yi in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        lx, ly_ = px(float(x[-1])), py(float(y[-1]))
        parts.append(f'<text x="{lx - 4:.2f}" y="{ly_ - 6:.2f}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{_text(name)}</text>')

    if guide_slope is not None and curves:
        _, x, y = curves[0]
        x1, y1 = float(x[-1]), float(y[-1]) * 1.6
        x0 = float(x[max(0, len(x) - 7)])
        y0 = y1 * (x0 / x1) ** guide_slope
        parts.append(f'<path d="M {px(x0):.2f} {py(y0):.2f} L {px(x1):.2f} {py(y1):.2f}" '
                     f'stroke="gray" stroke-dasharray="6,4" fill="none"/>')
        parts.append(f'<text x="{px(x1):.2f}" y="{py(y1) - 6:.2f}" text-anchor="end" '
                     f'font-size="11" fill="gray">slope {guide_slope:g}</text>')

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
