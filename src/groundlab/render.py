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

# Slots of a tile's text: `text % y_strings` fills the y slots and turns each
# x slot into `%s`, which `% x_strings` then fills.  No fixed text holds `%`.
_X, _Y = "%%s", "%s"


def _tile_plan(tile, cell: int, show_arrows: bool):
    """What one tile draws at any position, as one text of all its elements
    (background, arrow ticks, lines, bumpy-cross circle) and the tile-local
    offsets of its x and y slots, already multiplied by `cell`."""
    bumpy = tile.template == "bumpy-cross"
    fill = "#e2e2e2" if bumpy else "#f4f4f4"
    elements = [f'<rect x="{_X}" y="{_Y}" width="{cell}" height="{cell}" '
                f'fill="{fill}" stroke="#cccccc" stroke-width="0.5"/>']
    xs, ys = [0.0 * cell], [1.0 * cell]
    ends = []
    if show_arrows:
        for edge, lab in zip("nesw", tile.edges()):
            if lab.arrow is not None:
                ends.append((*_arrow_tick(edge, lab.arrow), _TICK))
    for colour, a, b in _tile_segments(tile):
        ends.append((a, b, f'stroke="{_LINE_COLOURS[colour]}" stroke-width="1.6" '
                           f'stroke-linecap="square"'))
    for (ax, ay), (bx, by), attributes in ends:
        elements.append(f'<line x1="{_X}" y1="{_Y}" x2="{_X}" y2="{_Y}" {attributes}/>')
        xs += [ax * cell, bx * cell]
        ys += [ay * cell, by * cell]
    if bumpy:
        elements.append(f'<circle cx="{_X}" cy="{_Y}" r="{_fmt(cell * 0.08)}" '
                        f'fill="#2c3e50"/>')
        xs.append(0.5 * cell)
        ys.append(0.5 * cell)
    return "\n".join(elements), xs, ys


class _Formatted(dict):
    """`_fmt` of each distinct coordinate, formatted on first use."""

    def __missing__(self, v):
        text = self[v] = _fmt(v)
        return text


def render_patch_svg(tileset: Tileset, patch: Patch, cell: int = 24,
                     show_arrows: bool = True) -> str:
    """The patch as SVG, `cell` pixels per tile.  Each tile id is planned
    once as one text; a point is `x * cell + lx`, `(height - y) * cell - ly`
    for cell (x, y) and plan offsets (lx, ly).  Each row fills its tiles' y
    slots once, each (tile, column) pair formats its x strings once, and each
    cell is one `%` of the two."""
    if cell < 1:
        raise InputError(f"cell must be >= 1 pixel, got {cell}")
    W = patch.width * cell
    H = patch.height * cell
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        '<defs><marker id="tip" viewBox="0 0 4 4" refX="3" refY="2" markerWidth="3" '
        'markerHeight="3" orient="auto"><path d="M0,0 L4,2 L0,4 z" fill="#b8b8b8"/>'
        "</marker></defs>",
        f'<rect width="{W}" height="{H}" fill="#ffffff"/>',
    ]
    f = _Formatted()
    plans = {}
    x_strings = {}
    for y, row in enumerate(patch.grid.tolist()):
        cy = (patch.height - y) * cell
        row_texts = {}
        for x, code in enumerate(row):
            if code == HOLE:
                continue
            text = row_texts.get(code)
            if text is None:
                plan = plans.get(code)
                if plan is None:
                    plan = plans[code] = _tile_plan(
                        tileset.tile(patch.legend[code]), cell, show_arrows)
                text = row_texts[code] = plan[0] % tuple(f[cy - ly] for ly in plan[2])
            xs = x_strings.get((code, x))
            if xs is None:
                cx = x * cell
                xs = x_strings[code, x] = tuple(f[cx + lx] for lx in plans[code][1])
            out.append(text % xs)
    out.append("</svg>\n")
    return "\n".join(out)
