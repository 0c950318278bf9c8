"""Deterministic SVG pictures of tile patches.

Rendering works from edge labels alone, so any tileset drawn by this module
shows exactly the information the matching rules see: line segments connect
the decorated edge points (through the shared corner when the two decorated
edges are perpendicular), arrows become small ticks on the edges, and parity
bits shade the tile background.  Output strings are byte-stable for fixed
input: no timestamps, no randomness, fixed decimal formatting.
"""

from __future__ import annotations

from .tiles import HOLE, InputError, Patch, Tileset

_LINE_COLOURS = {"r": "#c0392b", "b": "#2c3e50"}
_ARROW_TICK = 0.12


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _edge_point(edge: str, pos: int):
    u = 0.25 + 0.5 * pos
    if edge == "n":
        return (u, 1.0)
    if edge == "s":
        return (u, 0.0)
    if edge == "e":
        return (1.0, u)
    return (0.0, u)


def _tile_segments(tile):
    """Line segments in tile-local coordinates, grouped from decorated edges."""
    by_colour = {}
    for edge, lab in zip("nesw", tile.edges()):
        if lab.line is not None:
            if lab.pos is None:
                raise InputError(f"tile {tile.id}: line without position on edge {edge}")
            by_colour.setdefault(lab.line, []).append((edge, _edge_point(edge, lab.pos)))
    segments = []
    for colour, pts in sorted(by_colour.items()):
        if len(pts) != 2:
            raise InputError(f"tile {tile.id}: {len(pts)} decorated edges of colour {colour}")
        (e1, p1), (e2, p2) = pts
        perpendicular = (e1 in "ns") != (e2 in "ns")
        if perpendicular:
            va = p1 if e1 in "ns" else p2  # point on a horizontal edge: fixes x
            hb = p2 if e1 in "ns" else p1  # point on a vertical edge: fixes y
            corner = (va[0], hb[1])
            segments.append((colour, p1, corner))
            segments.append((colour, corner, p2))
        else:
            segments.append((colour, p1, p2))
    return segments


def _arrow_tick(edge: str, arrow: str):
    """A short tick at the edge midpoint pointing in the arrow direction."""
    mids = {"n": (0.5, 1.0), "e": (1.0, 0.5), "s": (0.5, 0.0), "w": (0.0, 0.5)}
    step = {"n": (0, 1), "e": (1, 0), "s": (0, -1), "w": (-1, 0)}[arrow]
    mx, my = mids[edge]
    t = _ARROW_TICK
    return (mx - step[0] * t, my - step[1] * t), (mx + step[0] * t, my + step[1] * t)


_TICK = 'stroke="#b8b8b8" stroke-width="0.7" marker-end="url(#tip)"'


def _tile_plan(tile, cell: int, show_arrows: bool):
    """What one tile draws at any position: its fill, whether it carries the
    bumpy-cross circle, and its lines as (x1, y1, x2, y2, attributes) with
    the tile-local endpoints already multiplied by `cell`."""
    bumpy = tile.template == "bumpy-cross"
    lines = []
    if show_arrows:
        for edge, lab in zip("nesw", tile.edges()):
            if lab.arrow is not None:
                (ax, ay), (bx, by) = _arrow_tick(edge, lab.arrow)
                lines.append((ax * cell, ay * cell, bx * cell, by * cell, _TICK))
    for colour, (ax, ay), (bx, by) in _tile_segments(tile):
        lines.append((ax * cell, ay * cell, bx * cell, by * cell,
                      f'stroke="{_LINE_COLOURS[colour]}" stroke-width="1.6" '
                      f'stroke-linecap="square"'))
    return ("#e2e2e2" if bumpy else "#f4f4f4"), bumpy, lines


class _Formatted(dict):
    """`_fmt` of each distinct coordinate, formatted on first use."""

    def __missing__(self, v):
        text = self[v] = _fmt(v)
        return text


def render_patch_svg(tileset: Tileset, patch: Patch, cell: int = 24,
                     show_arrows: bool = True) -> str:
    """The patch as SVG, `cell` pixels per tile.  Each tile id is planned
    once; a point is `x * cell + lx * cell`, `(height - y) * cell - ly * cell`
    for cell (x, y) and plan offsets (lx * cell, ly * cell)."""
    if cell < 1:
        raise InputError(f"cell must be >= 1 pixel, got {cell}")
    W = patch.width * cell
    H = patch.height * cell
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="#ffffff"/>',
    ]
    f = _Formatted()
    plans = {}
    left, top, mid = 0.0 * cell, 1.0 * cell, 0.5 * cell
    radius = _fmt(cell * 0.08)
    for y, row in enumerate(patch.grid.tolist()):
        cy = (patch.height - y) * cell
        for x, code in enumerate(row):
            if code == HOLE:
                continue
            plan = plans.get(code)
            if plan is None:
                tile = tileset.tile(patch.legend[code])
                plan = plans[code] = _tile_plan(tile, cell, show_arrows)
            fill, bumpy, lines = plan
            cx = x * cell
            out.append(
                f'<rect x="{f[cx + left]}" y="{f[cy - top]}" width="{cell}" '
                f'height="{cell}" fill="{fill}" stroke="#cccccc" stroke-width="0.5"/>'
            )
            for x1, y1, x2, y2, attributes in lines:
                out.append(
                    f'<line x1="{f[cx + x1]}" y1="{f[cy - y1]}" x2="{f[cx + x2]}" '
                    f'y2="{f[cy - y2]}" {attributes}/>'
                )
            if bumpy:
                out.append(
                    f'<circle cx="{f[cx + mid]}" cy="{f[cy - mid]}" r="{radius}" '
                    f'fill="#2c3e50"/>'
                )

    defs = (
        '<defs><marker id="tip" viewBox="0 0 4 4" refX="3" refY="2" markerWidth="3" '
        'markerHeight="3" orient="auto"><path d="M0,0 L4,2 L0,4 z" fill="#b8b8b8"/>'
        "</marker></defs>"
    )
    out.insert(1, defs)
    out.append("</svg>")
    return "\n".join(out) + "\n"
