"""Deterministic SVG rendering of 2-d polytopes."""
from __future__ import annotations

from fractions import Fraction

from .geometry import Polytope, hull_ring_2d

_SIZE = 480
_CENTER = Fraction(_SIZE, 2)
_HALF_SPAN = Fraction(_SIZE, 2) * Fraction(9, 10)  # 10% margin


def _fmt(value: Fraction) -> str:
    return f"{float(value):.2f}"


def polytope_svg(p: Polytope) -> str:
    """Fixed 480x480 drawing: axes, the polytope outline, labeled vertices."""
    if p.dim != 2:
        raise ValueError("SVG rendering supports 2-d polytopes only")
    if p.is_empty:
        raise ValueError("cannot render the empty polytope")
    extent = max((max(abs(v[0]), abs(v[1])) for v in p.vertices), default=Fraction(0))
    if extent == 0:
        extent = Fraction(1)
    scale = _HALF_SPAN / extent

    def place(v: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        return _CENTER + v[0] * scale, _CENTER - v[1] * scale

    ring = hull_ring_2d(p)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<line x1="0" y1="{_fmt(_CENTER)}" x2="{_SIZE}" y2="{_fmt(_CENTER)}" '
        'stroke="#999" stroke-dasharray="4 4"/>',
        f'<line x1="{_fmt(_CENTER)}" y1="0" x2="{_fmt(_CENTER)}" y2="{_SIZE}" '
        'stroke="#999" stroke-dasharray="4 4"/>',
    ]
    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (place(v) for v in ring))
    if len(ring) >= 2:
        lines.append(f'<polygon points="{points}" fill="none" stroke="#000" stroke-width="2"/>')
    for v in p.vertices:
        x, y = place(v)
        label = f"({v[0]}, {v[1]})"
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#000"/>')
        lines.append(f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" font-size="12">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
