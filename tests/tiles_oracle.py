"""Straight-line references for `groundlab.tiles`.

`h_edges_match` and `v_edges_match` are the edge predicates, a copy per
axis, that the library's one array comparison over the five label channels
replaced.  `compat_matrices` is the pair-by-pair compatibility loop that
`Tileset` replaced: every ordered tile pair is matched on its own with those
two predicates, east against west and north against south, with no sharing
between pairs of equal labels.  `same_cells` is the id-by-id comparison that
`Patch.same_cells` replaced.  `count_exhaustive` is the leaf-checking walk
that `count_admissible`'s one sweep replaced.

`rotated` is the quarter-turn reference of the rotation identity tests,
its arrows turned by `QUARTER_TURN`, `label_text` the five-character form
`EdgeLabel.decode` reads, and `cells` the filled cells of a patch, read off
its grid."""

import numpy as np

from groundlab.tiles import HOLE, CountResult, EdgeLabel, Tile

# each compass direction a quarter turn counterclockwise
QUARTER_TURN = {"n": "w", "w": "s", "s": "e", "e": "n"}


def _rot1(lab, flip_pos: bool):
    # one quarter turn counterclockwise: arrows turn with the plane,
    # parity bits swap because (x, y) -> (-y, x), and the line position
    # along the edge flips only on the east->north and west->south moves
    pos = lab.pos
    if flip_pos and pos is not None:
        pos = 1 - pos
    return EdgeLabel(line=lab.line, pos=pos,
                     arrow=QUARTER_TURN[lab.arrow] if lab.arrow else None,
                     px=lab.py, py=lab.px)


def rotated(t, quarter_turns: int = 1):
    """The tile turned counterclockwise by quarter_turns quarter turns."""
    for _ in range(quarter_turns % 4):
        t = Tile(
            id=t.id,
            north=_rot1(t.east, flip_pos=True),
            east=_rot1(t.south, flip_pos=False),
            south=_rot1(t.west, flip_pos=True),
            west=_rot1(t.north, flip_pos=False),
            template=t.template,
            rotation=(t.rotation + 1) % 4,
        )
    return t


def label_text(lab) -> str:
    """line, pos, arrow, px, py as one character each, '.' for None."""
    return "".join("." if v is None else str(v)
                   for v in (lab.line, lab.pos, lab.arrow, lab.px, lab.py))


def cells(patch):
    """(x, y, tile id) of every filled cell, row by row from the bottom."""
    for (y, x), v in np.ndenumerate(patch.grid):
        if v != HOLE:
            yield x, y, patch.legend[v]


def _parity_ok(a, b, flip: bool) -> bool:
    if a is None or b is None:
        return True
    return (b == 1 - a) if flip else (b == a)


def h_edges_match(east_of_a, west_of_b) -> bool:
    """May tile A sit immediately west of tile B?"""
    return (
        east_of_a.line == west_of_b.line
        and east_of_a.pos == west_of_b.pos
        and east_of_a.arrow == west_of_b.arrow
        and _parity_ok(east_of_a.px, west_of_b.px, flip=True)
        and _parity_ok(east_of_a.py, west_of_b.py, flip=False)
    )


def v_edges_match(north_of_a, south_of_b) -> bool:
    """May tile A sit immediately south of tile B?"""
    return (
        north_of_a.line == south_of_b.line
        and north_of_a.pos == south_of_b.pos
        and north_of_a.arrow == south_of_b.arrow
        and _parity_ok(north_of_a.px, south_of_b.px, flip=False)
        and _parity_ok(north_of_a.py, south_of_b.py, flip=True)
    )


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


def same_cells(a, b) -> bool:
    """Same shape, and the same id (or hole) at every cell, read one by one."""
    if a.grid.shape != b.grid.shape:
        return False
    for y in range(a.height):
        for x in range(a.width):
            if a.id_at(x, y) != b.id_at(x, y):
                return False
    return True


def count_exhaustive(tileset, n: int, budget: int = 2_000_000) -> CountResult:
    """The walk `count_admissible` took for tilesets with extra forbidden
    patterns: every n x n assignment in row-major order, the edge rules
    checked as each tile is placed, and each full patch checked against
    every placement of every forbidden pattern inside the grid, cell by
    cell.  Its `nodes` count every tile tried, so they differ from the
    sweep's."""
    ids = [t.id for t in tileset.tiles]
    h, v = tileset.h_compat, tileset.v_compat
    placements = []
    for pat in tileset.extra_forbidden:
        xs = [dx for dx, _, _ in pat.cells]
        ys = [dy for _, dy, _ in pat.cells]
        for ay in range(-min(ys), n - max(ys)):
            for ax in range(-min(xs), n - max(xs)):
                placements.append([(ax + dx, ay + dy, tid) for dx, dy, tid in pat.cells])
    grid = [[None] * n for _ in range(n)]
    nodes = 0
    count = 0
    overran = False

    def rec(cell):
        nonlocal nodes, count, overran
        if overran:
            return
        if cell == n * n:
            if not any(all(grid[y][x] == tid for x, y, tid in cells)
                       for cells in placements):
                count += 1
            return
        y, x = divmod(cell, n)
        for ti, tid in enumerate(ids):
            nodes += 1
            if nodes > budget:
                overran = True
                return
            if x > 0 and not h[tileset.index[grid[y][x - 1]], ti]:
                continue
            if y > 0 and not v[tileset.index[grid[y - 1][x]], ti]:
                continue
            grid[y][x] = tid
            rec(cell + 1)
            grid[y][x] = None

    rec(0)
    return CountResult(None if overran else count, nodes)
