"""The pair-by-pair compatibility loop that `Tileset` replaced: every ordered
tile pair is matched on its own, east against west and north against south,
with no sharing between pairs of equal labels."""

import numpy as np

from groundlab.tiles import h_edges_match, v_edges_match


def compat_matrices(tiles):
    """(h_compat, v_compat): [a, b] when a may sit west of b, and south of b."""
    n = len(tiles)
    h_compat = np.zeros((n, n), dtype=bool)
    v_compat = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(tiles):
        for j, b in enumerate(tiles):
            h_compat[i, j] = h_edges_match(a.east, b.west)
            v_compat[i, j] = v_edges_match(a.north, b.south)
    return h_compat, v_compat
