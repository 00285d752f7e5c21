"""SVG and TikZ pictures of orbit meanders.

Vertices are named by drawing position with a side suffix, position 1
leftmost, so the node for alpha_i on the top row is (p+) with
p = n + 1 - i.  Solid segments are diagram edges inside a side's subset;
a double or triple edge is drawn as that many parallel strokes in SVG and
as one double line in TikZ, wider apart when triple, with no arrowhead.
Dashed arcs are the involution pairs, filled circles mark membership.
"""
from __future__ import annotations

from .meander import OrbitMeander, Side

_X_STEP = 60
_ROW_Y = {Side.TOP: 80, Side.BOTTOM: 200}
_FORK_DY = 26


def _position(n: int, i: int) -> int:
    return n + 1 - i


def _geometry(m: OrbitMeander):
    """Vertex coordinates per (index, side) keyed by drawing position."""
    s = m.seaweed
    rs = s.root_system
    n = s.rank
    cols = rs.columns
    fam = rs.lie_type.family
    coords = {}
    for i in range(1, n + 1):
        x = 40 + cols[i] * _X_STEP // 2
        for side in Side:
            y = _ROW_Y[side]
            dy = 0
            if fam == "D" and i in (1, 2):
                dy = _FORK_DY if i == 1 else -_FORK_DY
            elif fam == "E" and i == 2:
                dy = -_FORK_DY
            coords[(i, side)] = (x, y + dy)
    return coords


def _solid_edges(m: OrbitMeander):
    s = m.seaweed
    rs = s.root_system
    out = []
    for side, subset in ((Side.TOP, s.pi1), (Side.BOTTOM, s.pi2)):
        for i in sorted(subset):
            for j in rs.neighbors(i):
                if j in subset and j > i:
                    out.append((side, i, j, rs.edge_multiplicity(i, j)))
    return out


def _dashed_arcs(m: OrbitMeander):
    out = []
    for side, inv in ((Side.TOP, m.i1), (Side.BOTTOM, m.i2)):
        n = m.seaweed.rank
        for i in range(1, n + 1):
            j = inv(i)
            if j > i:
                out.append((side, i, j))
    return out


def render_svg(m: OrbitMeander) -> str:
    """Standalone SVG document for an orbit meander."""
    s = m.seaweed
    n = s.rank
    coords = _geometry(m)
    width = 80 + max(x for x, _ in coords.values())
    height = 280
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<title>orbit meander of {s!r}</title>",
    ]
    for side, i, j, mult in _solid_edges(m):
        (x1, y1), (x2, y2) = coords[(i, side)], coords[(j, side)]
        for off in range(mult):
            shift = (off - (mult - 1) / 2) * 3
            parts.append(
                f'<line class="component" x1="{x1}" y1="{y1 + shift}" '
                f'x2="{x2}" y2="{y2 + shift}" stroke="black"/>')
    for side, i, j in _dashed_arcs(m):
        (x1, y1), (x2, y2) = coords[(i, side)], coords[(j, side)]
        sgn = -1 if side is Side.TOP else 1
        midx, midy = (x1 + x2) / 2, (y1 + y2) / 2 + sgn * (abs(x2 - x1) / 3 + 14)
        suffix = "+" if side is Side.TOP else "-"
        pi, pj = _position(n, i), _position(n, j)
        parts.append(
            f'<path id="arc-{min(pi, pj)}{suffix}-{max(pi, pj)}{suffix}" '
            f'class="involution" d="M {x1} {y1} Q {midx} {midy} {x2} {y2}" '
            'fill="none" stroke="black" stroke-dasharray="6,4"/>')
    for (i, side), (x, y) in sorted(coords.items(), key=lambda kv: kv[1]):
        member = i in (s.pi1 if side is Side.TOP else s.pi2)
        fill = "black" if member else "white"
        suffix = "+" if side is Side.TOP else "-"
        parts.append(
            f'<circle id="v{_position(n, i)}{suffix}" cx="{x}" cy="{y}" r="6" '
            f'fill="{fill}" stroke="black"/>')
        parts.append(
            f'<text x="{x}" y="{y + (20 if side is Side.BOTTOM else -14)}" '
            f'font-size="11" text-anchor="middle">a{i}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_tikz(m: OrbitMeander) -> str:
    """TikZ picture with nodes named (p+) / (p-) by drawing position."""
    s = m.seaweed
    n = s.rank
    coords = _geometry(m)
    lines = ["\\begin{tikzpicture}"]
    for (i, side), (x, y) in sorted(coords.items(), key=lambda kv: kv[1]):
        member = i in (s.pi1 if side is Side.TOP else s.pi2)
        fill = "black" if member else "white"
        suffix = "+" if side is Side.TOP else "-"
        name = f"{_position(n, i)}{suffix}"
        lines.append(
            f"\\draw ({x / 60:.2f},{-y / 60:.2f}) node[draw,circle,"
            f"fill={fill},minimum size=5pt,inner sep=0pt] ({name}) {{}};")
    for side, i, j, mult in _solid_edges(m):
        suffix = "+" if side is Side.TOP else "-"
        a, b = _position(n, i), _position(n, j)
        style = {1: "", 2: "[double distance=.8mm]", 3: "[double distance=1.2mm]"}[mult]
        lines.append(f"\\draw {style} ({a}{suffix}) to ({b}{suffix});")
    for side, i, j in _dashed_arcs(m):
        suffix = "+" if side is Side.TOP else "-"
        bend = "bend left=60" if side is Side.TOP else "bend right=60"
        a, b = sorted((_position(n, i), _position(n, j)))
        lines.append(f"\\draw [dashed] ({a}{suffix}) to [{bend}] ({b}{suffix});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines)
