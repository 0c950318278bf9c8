"""Wang tiles with structured edge labels, patches, local rules, exact patch counting.

A tile is a unit square with a label on each of its four edges.  Two tiles may
sit next to each other only if the shared edge carries compatible labels; the
compatibility relation is generated programmatically from the labels and kept
as two explicit adjacency matrices (horizontal and vertical), so tests can diff
the full table.  Patches are finite rectangular fragments with optional holes.

Edge labels carry up to four independent channels:
  line   colour of a decoration line crossing the edge ('r'/'b'), or None
  pos    where the line crosses the edge: 0 = nearer the low-coordinate end,
         1 = nearer the high-coordinate end (None when there is no line)
  arrow  compass direction of the signal arrow on the edge, or None
  px,py  parity bits of the owning tile (None = unconstrained)

Two abutting edges are compatible when line, pos and arrow agree exactly and
the parity bits are consistent with adjacent integer coordinates: px flips
across a vertical edge, py flips across a horizontal edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np


class InputError(ValueError):
    """Malformed input: unknown ids, bad shapes, invalid parameters."""


class BudgetExceeded(RuntimeError):
    """An exact search or count ran out of its node budget."""


_CCW = {"n": "w", "w": "s", "s": "e", "e": "n"}
_OPP = {"n": "s", "s": "n", "e": "w", "w": "e"}


def rotate_direction(d: str) -> str:
    return _CCW[d]


def opposite_direction(d: str) -> str:
    return _OPP[d]


@dataclass(frozen=True)
class EdgeLabel:
    line: Optional[str] = None
    pos: Optional[int] = None
    arrow: Optional[str] = None
    px: Optional[int] = None
    py: Optional[int] = None

    def __post_init__(self):
        if self.line is not None and self.line not in ("r", "b"):
            raise InputError(f"bad line colour {self.line!r}")
        if self.arrow is not None and self.arrow not in "nesw":
            raise InputError(f"bad arrow {self.arrow!r}")
        for v in (self.pos, self.px, self.py):
            if v is not None and v not in (0, 1):
                raise InputError(f"bad bit value {v!r}")

    @classmethod
    def decode(cls, s: str) -> "EdgeLabel":
        if len(s) != 5:
            raise InputError(f"bad edge label string: {s!r}")
        bit = lambda c: None if c == "." else int(c)
        return cls(
            line=None if s[0] == "." else s[0],
            pos=bit(s[1]),
            arrow=None if s[2] == "." else s[2],
            px=bit(s[3]),
            py=bit(s[4]),
        )


def _edges_match(a: EdgeLabel, b: EdgeLabel, fx: int, fy: int) -> bool:
    """May edge a abut edge b?  Line, pos and arrow agree, and a parity bit
    set on both sides flips across the edge when its flag (fx for px, fy for
    py) is 1 and agrees when it is 0; an unset bit matches anything."""
    return (a.line, a.pos, a.arrow, a.px, a.py) == (
        b.line, b.pos, b.arrow,
        a.px if a.px is None or b.px is None else b.px ^ fx,
        a.py if a.py is None or b.py is None else b.py ^ fy)


def h_edges_match(east_of_a: EdgeLabel, west_of_b: EdgeLabel) -> bool:
    """May tile A sit immediately west of tile B?  px flips across the edge."""
    return _edges_match(east_of_a, west_of_b, 1, 0)


def v_edges_match(north_of_a: EdgeLabel, south_of_b: EdgeLabel) -> bool:
    """May tile A sit immediately south of tile B?  py flips across the edge."""
    return _edges_match(north_of_a, south_of_b, 0, 1)


@dataclass(frozen=True)
class Tile:
    id: str
    north: EdgeLabel
    east: EdgeLabel
    south: EdgeLabel
    west: EdgeLabel
    template: str = ""
    rotation: int = 0

    def edges(self) -> tuple:
        return (self.north, self.east, self.south, self.west)


@dataclass(frozen=True)
class ForbiddenPattern:
    """Finite pattern banned at every position: cells are (dx, dy, tile_id)."""

    cells: tuple


def _compat(match, first: list, second: list) -> np.ndarray:
    """[i, j] = match(first[i], second[j]), matched once per distinct label pair."""
    (a, ia), (b, ib) = _distinct(first), _distinct(second)
    small = np.array([[match(x, y) for y in b] for x in a], dtype=bool)
    compat = small.reshape(len(a), len(b))[np.ix_(ia, ib)]
    compat.flags.writeable = False  # a tileset may be shared
    return compat


def _distinct(labels: list) -> tuple:
    """The distinct labels in first-seen order, and each label's position there."""
    seen: dict = {}
    positions = np.array([seen.setdefault(x, len(seen)) for x in labels], dtype=np.intp)
    return list(seen), positions


class Tileset:
    """A finite tile list plus adjacency relations generated from the labels."""

    def __init__(self, tiles: Iterable[Tile], extra_forbidden: Iterable[ForbiddenPattern] = ()):
        self.tiles = tuple(tiles)
        if len({t.id for t in self.tiles}) != len(self.tiles):
            raise InputError("duplicate tile ids")
        self.index = {t.id: i for i, t in enumerate(self.tiles)}
        self.extra_forbidden = tuple(extra_forbidden)
        if not all(p.cells for p in self.extra_forbidden):
            raise InputError("forbidden pattern with no cells")
        # the extra forbidden patterns as one kernel over the tile codes; a
        # pattern naming an id the tileset lacks never matches
        self.forbidden_index = PatternIndex(pattern_tables(
            [[(dy, dx, self.index.get(tid)) for dx, dy, tid in p.cells]
             for p in self.extra_forbidden]))
        # h_compat[a, b]: a may sit west of b; v_compat[a, b]: a may sit south of b
        self.h_compat = _compat(h_edges_match, [t.east for t in self.tiles],
                                [t.west for t in self.tiles])
        self.v_compat = _compat(v_edges_match, [t.north for t in self.tiles],
                                [t.south for t in self.tiles])

    def __len__(self) -> int:
        return len(self.tiles)

    def tile(self, tile_id: str) -> Tile:
        try:
            return self.tiles[self.index[tile_id]]
        except KeyError:
            raise InputError(f"unknown tile id: {tile_id!r}") from None

    @classmethod
    def from_json(cls, text: str) -> "Tileset":
        try:
            doc = json.loads(text)
            tiles = [
                Tile(
                    id=row["id"],
                    north=EdgeLabel.decode(row["north"]),
                    east=EdgeLabel.decode(row["east"]),
                    south=EdgeLabel.decode(row["south"]),
                    west=EdgeLabel.decode(row["west"]),
                    template=row.get("template", ""),
                    rotation=int(row.get("rotation", 0)),
                )
                for row in doc["tiles"]
            ]
            forbidden = [
                ForbiddenPattern(tuple((c["dx"], c["dy"], c["tile"]) for c in row["cells"]))
                for row in doc.get("forbidden", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed tileset json: {exc}") from exc
        if not all(isinstance(t.id, str) for t in tiles):
            raise InputError("malformed tileset json: tile ids must be strings")
        if not all(isinstance(tid, str) and type(dx) is int and type(dy) is int
                   for p in forbidden for dx, dy, tid in p.cells):
            raise InputError("malformed tileset json: forbidden cells need "
                             "integer dx, dy and a tile id string")
        return cls(tiles, forbidden)

HOLE = -1


class Patch:
    """Rectangular fragment of a configuration.  grid[y, x], y grows upward.

    The grid holds positions in `legend`, or HOLE.  The legend may list ids
    the grid does not hold, or one id twice; `codes_in` reads the grid in the
    codes of any other tile id -> code mapping."""

    def __init__(self, grid: np.ndarray, legend: tuple):
        grid = np.asarray(grid, dtype=np.int32)
        if grid.ndim != 2:
            raise InputError("patch grid must be 2-dimensional")
        self.grid = grid
        self.legend = tuple(legend)

    @property
    def height(self) -> int:
        return self.grid.shape[0]

    @property
    def width(self) -> int:
        return self.grid.shape[1]

    @classmethod
    def from_ids(cls, rows) -> "Patch":
        """rows: list of rows bottom-up, each a list of tile ids or None."""
        rows = id_rows(rows)
        legend = {}  # id -> code, in first-seen order
        h = len(rows)
        w = len(rows[0]) if h else 0
        grid = np.full((h, w), HOLE, dtype=np.int32)
        for y, row in enumerate(rows):
            if len(row) != w:
                raise InputError("ragged patch rows")
            for x, tid in enumerate(row):
                if tid is not None:
                    grid[y, x] = legend.setdefault(tid, len(legend))
        return cls(grid, tuple(legend))

    def id_at(self, x: int, y: int):
        if not (0 <= x < self.width and 0 <= y < self.height):
            return None
        v = self.grid[y, x]
        return None if v == HOLE else self.legend[v]

    def filled(self) -> bool:
        return bool((self.grid != HOLE).all())

    def subpatch(self, x0: int, y0: int, w: int, h: int) -> "Patch":
        if x0 < 0 or y0 < 0 or x0 + w > self.width or y0 + h > self.height:
            raise InputError("subpatch out of range")
        return Patch(self.grid[y0:y0 + h, x0:x0 + w].copy(), self.legend)

    def codes_in(self, code) -> np.ndarray:
        """The grid in the codes that `code` (a tile id -> code mapping)
        assigns; holes and ids the mapping lacks read HOLE."""
        lut = np.array([code.get(tid, HOLE) for tid in self.legend] + [HOLE], dtype=np.int32)
        return lut[self.grid]  # a hole indexes the trailing HOLE

    def same_cells(self, other: "Patch") -> bool:
        """Do both patches hold the same id, or a hole, at every cell?"""
        code = {tid: k for k, tid in enumerate(self.legend + other.legend)}
        return np.array_equal(self.codes_in(code), other.codes_in(code))


def id_rows(rows) -> tuple:
    """A grid of tile ids as a tuple of row tuples.  A string, for the rows
    or for one row, is refused: it would otherwise read as one-letter ids."""
    rows = rows if isinstance(rows, str) else tuple(rows)
    if isinstance(rows, str) or any(isinstance(row, str) for row in rows):
        raise InputError("rows must be lists of tile ids, not strings")
    return tuple(map(tuple, rows))


def pattern_tables(patterns) -> dict:
    """Group (dy, dx, code) cell lists by cell-offset shape into `PatternIndex`
    tables: {offsets: {codes: indices of the patterns}}, the codes read at
    the sorted offsets (one code for a 1-cell shape).  A pattern holding a
    None code (a tile the grid cannot hold) is left out."""
    tables = {}
    for n, cells in enumerate(patterns):
        if not cells:
            raise InputError("empty pattern")
        if any(code is None for _, _, code in cells):
            continue
        offsets, key = zip(*(((dy, dx), code) for dy, dx, code in sorted(cells)))
        if len(key) == 1:
            key = key[0]
        table = tables.setdefault(offsets, {})
        table[key] = table.get(key, ()) + (n,)
    return tables


class PatternIndex:
    """The one pattern-occurrence kernel: patterns hashed by cell-offset shape.

    `tables` maps each shape (a tuple of (dy, dx) offsets) to a dict from the
    codes read at those offsets, as a tuple, to a value: an integer weight or
    the indices of the patterns (`pattern_tables`).  A 1-cell shape is keyed
    by its one code.  The tables come in this final form, with no falsy
    value, and are kept as given: an anchor is one dict lookup per shape,
    however many patterns there are.

    Grids hold integer codes indexed [y, x].  With `wrap` the grid is a
    torus; without it an anchor counts only where its whole shape lies inside
    the grid.  Negative codes never match.  Plans are cached per grid shape;
    the grid is read on every call.
    """

    def __init__(self, tables: dict):
        self._shapes = list(tables.items())
        self._plans = {}
        self._by_cell = {}

    def _plan(self, shape: tuple, wrap: bool) -> list:
        """(table, anchor ys, anchor xs, flat cell indices per anchor) per shape."""
        if (shape, wrap) not in self._plans:
            h, w = shape
            plan = self._plans[shape, wrap] = []
            for offsets, table in self._shapes:
                dy, dx = np.array(offsets).T
                ys = np.arange(h) if wrap else np.arange(-dy.min(), h - dy.max())
                xs = np.arange(w) if wrap else np.arange(-dx.min(), w - dx.max())
                ay, ax = (a.ravel() for a in np.meshgrid(ys, xs, indexing="ij"))
                cy, cx = ay[:, None] + dy, ax[:, None] + dx
                if wrap:
                    cy, cx = cy % h, cx % w
                plan.append((table, ay, ax, cy * w + cx))
        return self._plans[shape, wrap]

    @staticmethod
    def _keys(grid: np.ndarray, cells: np.ndarray) -> list:
        """Each anchor's key: the codes at its cells (one code per 1-cell shape)."""
        if cells.shape[1] == 1:
            return grid.ravel()[cells[:, 0]].tolist()
        return list(map(tuple, grid.ravel()[cells].tolist()))

    def _lookup(self, grid: np.ndarray, wrap: bool):
        for table, ay, ax, cells in self._plan(grid.shape, wrap):
            yield ay, ax, cells, list(map(table.get, self._keys(grid, cells)))

    def cell_plan(self, shape: tuple, wrap: bool) -> list:
        """Per flat cell of a grid of `shape`: one (lookup, key) pair per
        pattern cell landing there, so that lookup(key(codes), 0) is the value
        of that cell's anchor in the flat code list `codes` (a shape wider
        than a torus can land on a cell twice)."""
        if (shape, wrap) not in self._by_cell:
            terms = [[] for _ in range(shape[0] * shape[1])]
            for table, _, _, cells in self._plan(shape, wrap):
                for row in cells.tolist():
                    term = (table.get, itemgetter(*row))
                    for p in row:
                        terms[p].append(term)
            self._by_cell[shape, wrap] = list(map(tuple, terms))
        return self._by_cell[shape, wrap]

    def total(self, grid: np.ndarray, wrap: bool = False) -> int:
        """Summed value of every occurrence in the grid."""
        return sum(sum(map(table.get, self._keys(grid, cells), repeat(0)))
                   for table, _, _, cells in self._plan(grid.shape, wrap))

    def row_counts(self, stacks: Iterable[np.ndarray], ncodes: int):
        """(values, counts per stack) for (B, H, w) stacks of windows: H rows
        of a torus of w columns, codes in range(ncodes), H at least every
        shape's height.  counts[b, j] is how many occurrences of value
        values[j] are anchored on the first row of window b, columns wrapping,
        so a torus's wrapped `total` sums sum(counts * values) of the windows
        of rows y .. y + H - 1 (mod side) over its rows y.  A shape of k cells
        reads each anchor's codes as one base-ncodes key, looked up in a table
        of ncodes**k value ids (0: none) built once per call: it suits small
        alphabets and shapes.  A stack is counted when it is read.
        """
        ids, luts = {}, []
        for offsets, table in self._shapes:
            keys = np.array(list(table), dtype=np.int64).reshape(len(table), len(offsets))
            fits = ((keys >= 0) & (keys < ncodes)).all(axis=1)
            luts.append(np.zeros(ncodes ** len(offsets), dtype=np.int32))
            luts[-1][keys[fits] @ ncodes ** np.arange(len(offsets) - 1, -1, -1)] = [
                ids.setdefault(value, len(ids) + 1) for value in compress(table.values(), fits)]

        def count(windows: np.ndarray) -> np.ndarray:
            # keys reach ncodes**k - 1, so they are int64 whatever the grid holds
            flat = windows.reshape(len(windows), -1).astype(np.int64, copy=False)
            # value id j of window b lands in bin b * (len(ids) + 1) + j
            bins = np.arange(len(windows))[:, None] * (len(ids) + 1)
            counts = np.zeros(bins.size * (len(ids) + 1), dtype=np.int64)
            for (_, ay, _, cells), lut in zip(self._plan(windows.shape[1:], True), luts):
                cells = cells[ay == 0]
                key = flat[:, cells[:, 0]]
                for column in cells.T[1:]:
                    key *= ncodes
                    key += flat[:, column]
                counts += np.bincount((bins + lut[key]).ravel(), minlength=counts.size)
            return counts.reshape(len(windows), -1)[:, 1:].astype(np.int32)
        return tuple(ids), map(count, stacks)

    def occurrences(self, grid: np.ndarray) -> list:
        """(y, x, value) of every occurrence in the open grid, by anchor."""
        return [(int(y), int(x), v) for ay, ax, _, values in self._lookup(grid, False)
                for y, x, v in zip(ay, ax, values) if v is not None]

    def covered(self, grid: np.ndarray, wrap: bool = False) -> np.ndarray:
        """Boolean map of the cells inside at least one occurrence."""
        mask = np.zeros(grid.size, dtype=bool)
        for _, _, cells, values in self._lookup(grid, wrap):
            mask[cells[np.array([v is not None for v in values], dtype=bool)]] = True
        return mask.reshape(grid.shape)


@dataclass(frozen=True)
class Violation:
    kind: str          # 'h', 'v' or 'forbidden'
    position: tuple    # cell coordinate (x, y) of the west/south/anchor cell
    detail: str = ""


def check_patch(tileset: Tileset, patch: Patch) -> list:
    """All local-rule violations inside the patch (edge rules + forbidden
    patterns), read over the patch's `codes_in(tileset.index)`.  An id the
    grid holds and the tileset lacks is an InputError naming the first such
    id in legend order; ids the legend lists but the grid does not hold are
    never looked at."""
    idx = patch.codes_in(tileset.index)
    unknown = patch.grid[(idx == HOLE) & (patch.grid != HOLE)]
    if unknown.size:
        raise InputError(f"patch uses unknown tile id {patch.legend[unknown.min()]!r}")
    out = []
    for kind, compat, dx, dy, sep in (("h", tileset.h_compat, 1, 0, "|"),
                                      ("v", tileset.v_compat, 0, 1, "/")):
        # each cell (x, y) against its neighbour (x + dx, y + dy); a HOLE
        # reads the padded last row or column, where every pair fits
        fits = np.pad(compat, (0, 1), constant_values=True)
        a, b = idx[:patch.height - dy, :patch.width - dx], idx[dy:, dx:]
        ys, xs = np.nonzero(~fits[a, b])
        out.extend(Violation(kind, (x, y),
                             f"{patch.id_at(x, y)} {sep} {patch.id_at(x + dx, y + dy)}")
                   for y, x in zip(ys.tolist(), xs.tolist()))
    found = sorted((y, x, pi) for y, x, hits in tileset.forbidden_index.occurrences(idx)
                   for pi in hits)
    out.extend(Violation("forbidden", (x, y), f"pattern {pi}") for y, x, pi in found)
    out.sort(key=lambda v: (v.position[1], v.position[0], v.kind))
    return out


@dataclass
class CountResult:
    count: Optional[int]  # None when the budget ran out
    nodes: int


def count_admissible(tileset: Tileset, n: int, budget: int = 10_000_000) -> CountResult:
    """Exact number of locally admissible n x n patches.

    One sweep over the cells in row-major order.  A state is the last
    max(n, reach) placed tiles, reach being the widest span of a forbidden
    pattern in row-major cell order, with its number of partial patches (an
    exact Python int).  A candidate must fit the tiles west of it and below
    it, and is dropped when it completes a forbidden occurrence, found by the
    forbidden kernel's per-cell plan.  The budget counts one node per (state,
    candidate) pair; when it runs out the count is abandoned, never
    approximated.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    flat = [[dy * n + dx for dx, dy, _ in p.cells] for p in tileset.extra_forbidden]
    keep = max([n] + [max(f) - min(f) for f in flat])
    edge = np.ones((1, len(tileset)), dtype=bool)  # row -1: no neighbour
    h, v = (np.vstack([compat, edge]) for compat in (tileset.h_compat, tileset.v_compat))
    fits = {}
    # cells past the one being placed stay -1, so a plan term matches only
    # an occurrence that this cell completes
    codes = [-1] * (n * n)
    states = {(): 1}
    nodes = 0
    for c, terms in enumerate(tileset.forbidden_index.cell_plan((n, n), wrap=False)):
        grown = {}
        for frontier, ways in states.items():
            pair = (frontier[-n] if c >= n else -1, frontier[-1] if c % n else -1)
            if pair not in fits:
                fits[pair] = np.flatnonzero(v[pair[0]] & h[pair[1]]).tolist()
            codes[c - len(frontier):c] = frontier
            for t in fits[pair]:
                nodes += 1
                if nodes > budget:
                    return CountResult(None, nodes)
                codes[c] = t
                if any(get(key(codes)) is not None for get, key in terms):
                    continue
                f = (frontier + (t,))[-keep:]
                grown[f] = grown.get(f, 0) + ways
        states = grown
    return CountResult(sum(states.values()), nodes)
