"""Deterministic SVG rendering of rank-2 scattering diagrams and broken
lines: rays as lines in the M*-plane (y up), labels at 0.8 of the ray
length, wall functions truncated to three terms."""

from __future__ import annotations

from .scatter import ScatteringDiagram, Wall
from .theta import BrokenLine

VIEW = 320.0
MARGIN = 28.0
TERMS = 3  # wall-function terms shown in a label


def _norm(v):
    return (v[0] ** 2 + v[1] ** 2) ** 0.5


def _to_screen(x, y, scale):
    cx = cy = VIEW / 2
    return (cx + float(x) * scale, cy - float(y) * scale)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def wall_label(w: Wall) -> str:
    if w.kind == "classical":
        parts = ["1"]
        for j, c in sorted(w.function.items())[:TERMS - 1]:
            cs = c.render()
            mono = f"A^{{{tuple(j * x for x in w.direction)}}}"
            parts.append(mono if cs == "1" else f"{cs}*{mono}")
        txt = "+".join(parts)
        if len(w.function) > TERMS - 1:
            txt += "+..."
        return txt
    if w.kind == "dilog":
        h, coeff = w.dilog
        cs = coeff.render()
        arg = f"A^{{{w.direction}}}" if cs == "1" else f"{cs}*A^{{{w.direction}}}"
        return f"Psi[q^{h}]({arg})"
    parts = []
    for j, a in sorted(w.log_coeffs.items())[:TERMS]:
        parts.append(f"{a.render()}*Ahat^{{{tuple(j * x for x in w.direction)}}}")
    txt = "+".join(parts) if parts else "0"
    if len(w.log_coeffs) > TERMS:
        txt += "+..."
    return f"exp({txt})"


def diagram_svg(dg: ScatteringDiagram, radius: float = 2.5) -> str:
    """Byte-deterministic SVG for a rank-2 diagram."""
    scale = (VIEW / 2 - MARGIN) / radius
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(VIEW)}" '
        f'height="{int(VIEW)}" viewBox="0 0 {int(VIEW)} {int(VIEW)}">',
        f'<rect width="{int(VIEW)}" height="{int(VIEW)}" fill="white"/>',
    ]
    entries = []
    for w in dg.walls:
        for r in w.rays():
            entries.append((r, w))
    entries.sort(key=lambda e: (e[0], e[1].kind))
    for r, w in entries:
        ln = _norm(r)
        ux, uy = r[0] / ln, r[1] / ln
        x0, y0 = _to_screen(0, 0, scale)
        x1, y1 = _to_screen(ux * radius, uy * radius, scale)
        color = "#444444" if w.incoming else "#aa2222"
        lines.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
            f'y2="{_fmt(y1)}" stroke="{color}" stroke-width="1.5"/>')
        lx, ly = _to_screen(ux * radius * 0.8, uy * radius * 0.8, scale)
        # label once per wall, on its defining ray
        if r == w.ray:
            lines.append(
                f'<text x="{_fmt(lx + 4)}" y="{_fmt(ly - 4)}" '
                f'font-size="9" fill="{color}">{wall_label(w)}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def broken_line_svg(dg: ScatteringDiagram, lines_to_draw: list[BrokenLine]) -> str:
    """Diagram with broken-line polylines overlaid."""
    radius = 6.0  # of the plane drawn under the lines
    scale = (VIEW / 2 - MARGIN) / radius
    base = diagram_svg(dg, radius).rstrip("\n").rsplit("</svg>", 1)[0]
    out = [base]
    for bl in sorted(lines_to_draw,
                     key=lambda b: [s.exponent for s in b.segments]):
        pts = []
        if bl.bend_points:
            first = bl.bend_points[0]
            m0 = bl.segments[0].exponent
            ln = max(_norm(m0), 1e-9)
            start = (float(first[0]) + m0[0] / ln * radius * 0.9,
                     float(first[1]) + m0[1] / ln * radius * 0.9)
        else:
            m0 = bl.segments[0].exponent
            ln = max(_norm(m0), 1e-9)
            start = (float(bl.endpoint[0]) + m0[0] / ln * radius * 0.9,
                     float(bl.endpoint[1]) + m0[1] / ln * radius * 0.9)
        pts.append(start)
        pts.extend((float(x), float(y)) for x, y in bl.bend_points)
        pts.append((float(bl.endpoint[0]), float(bl.endpoint[1])))
        path = " ".join(
            f"{_fmt(_to_screen(x, y, scale)[0])},{_fmt(_to_screen(x, y, scale)[1])}"
            for x, y in pts)
        out.append(f'<polyline points="{path}" fill="none" stroke="#2222cc" '
                   f'stroke-width="1.5"/>')
        qx, qy = _to_screen(float(bl.endpoint[0]), float(bl.endpoint[1]), scale)
        out.append(f'<circle cx="{_fmt(qx)}" cy="{_fmt(qy)}" r="3" fill="#2222cc"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
