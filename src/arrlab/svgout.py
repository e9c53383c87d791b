"""Deterministic SVG rendering of line arrangements.

Exactness discipline: all geometry (clipping, centroids, annotation anchors)
is computed in the arrangement's field; scalars are converted to 12
significant decimal digits only when written into the document, via an
integer-arithmetic expansion (sqrt5 is substituted by a 40-digit rational
approximation).  Nothing rendered here flows back into any computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .arrangement import LineArrangement
from .cells import build_complex, bounded_complex
from .falk import check_corners
from .scalar import GoldenScalar, sign

_SQRT5_SCALE = 10 ** 40
_SQRT5_APPROX = Fraction(isqrt(5 * _SQRT5_SCALE ** 2), _SQRT5_SCALE)


def _to_fraction(x) -> Fraction:
    if isinstance(x, GoldenScalar):
        return x.a + x.b * _SQRT5_APPROX
    return Fraction(x)


def decimal_str(x, sig: int = 12) -> str:
    """Plain decimal expansion of a scalar to `sig` significant digits."""
    fr = _to_fraction(x)
    if fr == 0:
        return "0"
    out = "-" if fr < 0 else ""
    fr = abs(fr)
    exp = 0
    while fr >= 10:
        fr /= 10
        exp += 1
    while fr < 1:
        fr *= 10
        exp -= 1
    scaled = round(fr * 10 ** (sig - 1))
    if scaled >= 10 ** sig:
        scaled //= 10
        exp += 1
    digits = str(scaled)
    if exp >= sig - 1:
        return out + digits + "0" * (exp - sig + 1)
    if exp >= 0:
        head, tail = digits[:exp + 1], digits[exp + 1:].rstrip("0")
        return out + head + ("." + tail if tail else "")
    tail = ("0" * (-exp - 1) + digits).rstrip("0")
    return out + "0." + tail


def _bbox(complex_, arr):
    """Bounding box of the vertices, padded 20 percent per side; falls back
    to a box around line anchor points when there are no vertices."""
    pts = [v.point for v in complex_.vertices]
    if not pts:
        for ln in arr.lines:
            # foot of the perpendicular from the origin
            d = ln.a * ln.a + ln.b * ln.b
            pts.append((ln.a * ln.c / d, ln.b * ln.c / d))
        if not pts:
            pts = [(Fraction(0), Fraction(0))]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    one = (xmax - xmin) * 0 + 1  # 1 in the ambient field
    wx = xmax - xmin
    wy = ymax - ymin
    pad_x = wx / 5 if sign(wx) else one
    pad_y = wy / 5 if sign(wy) else one
    return xmin - pad_x, xmax + pad_x, ymin - pad_y, ymax + pad_y


def _clip_line(ln, box):
    """Exact clip of a full line to the box; None if it misses."""
    xmin, xmax, ymin, ymax = box
    if sign(ln.b) != 0:
        p0 = (xmin, (ln.c - ln.a * xmin) / ln.b)
    else:
        p0 = (ln.c / ln.a, ymin)
    dx, dy = ln.direction()
    lo, hi = None, None
    for coord, d, vmin, vmax in ((p0[0], dx, xmin, xmax),
                                 (p0[1], dy, ymin, ymax)):
        if sign(d) == 0:
            if not (vmin <= coord <= vmax):
                return None
            continue
        t1 = (vmin - coord) / d
        t2 = (vmax - coord) / d
        if t1 > t2:
            t1, t2 = t2, t1
        lo = t1 if lo is None or t1 > lo else lo
        hi = t2 if hi is None or t2 < hi else hi
    if lo is None or hi is None or lo > hi:
        return None
    a = (p0[0] + lo * dx, p0[1] + lo * dy)
    b = (p0[0] + hi * dx, p0[1] + hi * dy)
    return a, b


def _xy(point) -> str:
    # SVG y axis points down; mirror so the picture matches the plane
    return f'{decimal_str(point[0])},{decimal_str(-point[1])}'


def render_svg(arr: LineArrangement, *, gamma: bool = False,
               weights=None) -> str:
    """SVG 1.1 document for a line arrangement.

    With ``gamma`` the bounded complex is emphasized: bounded faces get a
    light fill and bounded edges a bold stroke.  ``weights`` annotates each
    corner with its value, anchored 30 percent of the way from the vertex
    toward the face centroid.
    """
    parts = []
    if len(arr.lines) == 0:
        return ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                'viewBox="0 0 200 40">\n'
                '<text x="10" y="25" font-size="12">empty arrangement'
                '</text>\n</svg>\n')
    cx = build_complex(arr)
    box = _bbox(cx, arr)
    xmin, xmax, ymin, ymax = box
    vb = (f'{decimal_str(xmin)} {decimal_str(-ymax)} '
          f'{decimal_str(xmax - xmin)} {decimal_str(ymax - ymin)}')
    stroke = decimal_str((xmax - xmin) / 300)
    bold = decimal_str((xmax - xmin) * 3 / 300)
    fontsize = decimal_str((xmax - xmin) / 40)
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 f'viewBox="{vb}">')
    gam = bounded_complex(cx) if (gamma or weights) else None
    if gam is not None and gamma:
        for f in gam.faces:
            pts = " ".join(_xy(cx.vertices[v].point) for v in f.vertex_ids)
            parts.append(f'<polygon points="{pts}" fill="#c8d8f0" '
                         f'stroke="none"/>')
    for i, ln in enumerate(arr.lines):
        seg = _clip_line(ln, box)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = seg
        parts.append(f'<line x1="{decimal_str(x1)}" y1="{decimal_str(-y1)}" '
                     f'x2="{decimal_str(x2)}" y2="{decimal_str(-y2)}" '
                     f'stroke="#404040" stroke-width="{stroke}"/>')
    if gam is not None and gamma:
        # bounded edges as <path> so that <line> elements remain one per
        # arrangement line
        for e in gam.edges:
            p = cx.vertices[e.v0].point
            q = cx.vertices[e.v1].point
            parts.append(f'<path d="M {_xy(p)} L {_xy(q)}" '
                         f'stroke="#000000" stroke-width="{bold}" '
                         f'fill="none"/>')
    if weights is not None:
        if gam is None:
            gam = bounded_complex(cx)
        check_corners(gam, weights)
        for c in gam.corners:
            v = cx.vertices[c.vertex].point
            f = gam.faces[c.face]
            k = len(f.vertex_ids)
            centx = sum((cx.vertices[w].point[0] for w in f.vertex_ids),
                        v[0] * 0) / k
            centy = sum((cx.vertices[w].point[1] for w in f.vertex_ids),
                        v[1] * 0) / k
            ax = v[0] + (centx - v[0]) * 3 / 10
            ay = v[1] + (centy - v[1]) * 3 / 10
            label = str(Fraction(weights[c]))
            parts.append(f'<text x="{decimal_str(ax)}" '
                         f'y="{decimal_str(-ay)}" font-size="{fontsize}" '
                         f'text-anchor="middle">{label}</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
