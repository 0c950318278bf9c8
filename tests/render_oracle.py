"""Straight-line SVG reference: every cell looks its tile up and formats every
coordinate on its own, through one `to_svg` per point.

`render.render_patch_svg` plans each tile id once as one text of all its
elements, fills its y strings once per row and its x strings once per column,
and formats each distinct coordinate once; tests/test_render.py checks its
bytes against this loop.
"""

import tiles_oracle
from groundlab.render import _LINE_COLOURS, _arrow_tick, _fmt, _tile_segments


def render_patch_svg(tileset, patch, cell=24, show_arrows=True):
    W = patch.width * cell
    H = patch.height * cell
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="#ffffff"/>',
    ]

    def to_svg(x, y, lx, ly):
        return (x * cell + lx * cell, (patch.height - y) * cell - ly * cell)

    for x, y, tid in tiles_oracle.cells(patch):
        tile = tileset.tile(tid)
        x0, y0 = to_svg(x, y, 0.0, 1.0)
        fill = "#f4f4f4"
        if tile.template == "bumpy-cross":
            fill = "#e2e2e2"
        out.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{cell}" height="{cell}" '
            f'fill="{fill}" stroke="#cccccc" stroke-width="0.5"/>'
        )
        if show_arrows:
            for edge, lab in zip("nesw", tile.edges()):
                if lab.arrow is None:
                    continue
                (ax, ay), (bx, by) = _arrow_tick(edge, lab.arrow)
                sx, sy = to_svg(x, y, ax, ay)
                ex, ey = to_svg(x, y, bx, by)
                out.append(
                    f'<line x1="{_fmt(sx)}" y1="{_fmt(sy)}" x2="{_fmt(ex)}" y2="{_fmt(ey)}" '
                    f'stroke="#b8b8b8" stroke-width="0.7" marker-end="url(#tip)"/>'
                )
        for colour, (ax, ay), (bx, by) in _tile_segments(tile):
            sx, sy = to_svg(x, y, ax, ay)
            ex, ey = to_svg(x, y, bx, by)
            out.append(
                f'<line x1="{_fmt(sx)}" y1="{_fmt(sy)}" x2="{_fmt(ex)}" y2="{_fmt(ey)}" '
                f'stroke="{_LINE_COLOURS[colour]}" stroke-width="1.6" '
                f'stroke-linecap="square"/>'
            )
        if tile.template == "bumpy-cross":
            cxs, cys = to_svg(x, y, 0.5, 0.5)
            out.append(
                f'<circle cx="{_fmt(cxs)}" cy="{_fmt(cys)}" r="{_fmt(cell * 0.08)}" '
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
