"""The pair-by-pair non-overlap scan that `markers.nonoverlap_violations`
replaced: for every pattern pair (i, j) and every shift (dx, dy), one array
compare of the overlap, appended in (i, j, dy, dx) loop order, with no hash.
Each pattern is encoded on its own here, cell by cell, not read from
`MarkerSet.codes`.

`marker_json` writes a marker file in the layout `verify-markers --markers`
reads, each pattern with the `origin` key such files carry.
"""

import json

import numpy as np

import tiles_oracle


def marker_json(patterns, tau=(0, 1)) -> str:
    """A marker file of the patterns, each given as its rows bottom-up."""
    return json.dumps({"tau": list(tau),
                       "patterns": [{"origin": [0, 0], "rows": rows} for rows in patterns]},
                      indent=1)


def encoded(markers):
    """The patterns as integer grids over one legend built cell by cell."""
    lut = {}
    grids = []
    for p in markers.patterns:
        g = np.empty((markers.height, markers.width), dtype=np.int64)
        for x, y, tid in tiles_oracle.cells(p):
            g[y, x] = lut.setdefault(tid, len(lut))
        grids.append(g)
    return grids


def nonoverlap_violations(markers):
    grids = encoded(markers)
    w, h = markers.width, markers.height
    out = []
    for i, u in enumerate(grids):
        for j, v in enumerate(grids):
            for dy in range(-(h - 1), h):
                for dx in range(-(w - 1), w):
                    if i == j and dx == 0 and dy == 0:
                        continue
                    x0, x1 = max(0, dx), min(w, w + dx)
                    y0, y1 = max(0, dy), min(h, h + dy)
                    if x0 >= x1 or y0 >= y1:
                        continue
                    a = u[y0:y1, x0:x1]
                    b = v[y0 - dy:y1 - dy, x0 - dx:x1 - dx]
                    if (a == b).all():
                        out.append((i, j, (dx, dy)))
    return out
