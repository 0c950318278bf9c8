"""Wang tiles with structured edge labels, patches, local rules, exact patch counting.

A tile is a unit square with a label on each of its four edges.  Two tiles may
sit next to each other only if the shared edge carries compatible labels; the
compatibility relation is generated programmatically from the labels and kept
as two explicit adjacency matrices (horizontal and vertical), so tests can diff
the full table.  Patches are finite rectangular fragments with optional holes.

Edge labels carry five independent channels:
  line   colour of a decoration line crossing the edge ('r'/'b'), or None
  pos    where the line crosses the edge: 0 = nearer the low-coordinate end,
         1 = nearer the high-coordinate end (None when there is no line)
  arrow  compass direction of the signal arrow on the edge, or None
  px,py  parity bits of the owning tile (None = unconstrained)

Two abutting edges are compatible when line, pos and arrow agree exactly and
the parity bits are consistent with adjacent integer coordinates: px flips
across a vertical edge, py flips across a horizontal edge.  A tileset reads
each edge label as five small ints and builds each matrix with one array
comparison of every tile's edge against every tile's facing edge, channel by
channel.

A pattern of cells is matched by array equality: `anchor_cells` gives each
anchor's flat cells, and an anchor holds an occurrence when the codes there
equal the pattern's.  `check_patch` reads the extra forbidden patterns so,
`count_admissible` lists each occurrence at the last cell it covers, and
`markers.MarkerSet.covered` compares a grid with all its patterns at once.

Every input file, a tileset, potential, marker or machine file, is parsed by
`_read_json`, which turns a wrongly shaped document into one InputError
"malformed {kind} json: ...".  A reader takes each field by `_json_field`,
only when its JSON type is exactly the one asked for, and each pair by
`_json_fraction`, only as two integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np


class InputError(ValueError):
    """Malformed input: unknown ids, bad shapes, invalid parameters."""


class BudgetExceeded(RuntimeError):
    """An exact search or count ran out of its node budget."""


def _read_json(kind: str, text: str, build):
    """build(doc) of the JSON document `text`, the one parse of every input
    file.  An error a wrongly shaped document raises in build, a missing key,
    a mistyped field or a refused value, is one InputError "malformed {kind}
    json: ..."; a check made after the read, such as `Machine`'s, keeps its
    own message."""
    try:
        return build(json.loads(text))
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise InputError(f"malformed {kind} json: {exc}") from exc


_REQUIRED = object()
# each JSON type in the plural, for the messages of `_json_field`
_JSON_TYPES = {dict: "objects", list: "lists", str: "strings", int: "integers",
               float: "floats", bool: "booleans", type(None): "nulls"}


def _json_field(obj: dict, key: str, kind: type, default=_REQUIRED, of: type = None):
    """obj[key], or default when absent and given, if its JSON type is exactly
    `kind`, and with `of` each entry's is `of`.  Anything else is a TypeError
    naming key: true, 1.9 and "2" are no int, a string is no list and a list
    no string, though int(), tuple() and str() take them."""
    if type(obj) is not dict:
        raise TypeError(f"expected an object holding {key}, not {_JSON_TYPES[type(obj)]}")
    value = obj[key] if default is _REQUIRED else obj.get(key, default)
    if type(value) is not kind:
        raise TypeError(f"{key} takes {_JSON_TYPES[kind]}, not "
                        f"{_JSON_TYPES[type(value)]}: {value!r}")
    wrong = [type(entry) for entry in value if type(entry) is not of] if of else []
    if wrong:
        raise TypeError(f"{key} takes lists of {_JSON_TYPES[of]}, not "
                        f"{_JSON_TYPES[wrong[0]]}: {value!r}")
    return value


def _json_fraction(obj: dict, key: str) -> Fraction:
    """The Fraction of the [numerator, denominator] pair obj[key]: exactly
    two integers, where `Fraction` would read true as 1."""
    pair = _json_field(obj, key, list)
    if len(pair) != 2:
        raise TypeError(f"{key} takes a [numerator, denominator] pair, got {pair!r}")
    if type(pair[0]) is not int or type(pair[1]) is not int:
        raise TypeError(f"expected two integers, got {pair!r}")
    return Fraction(*pair)


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
        if self.arrow is not None and self.arrow not in ("n", "e", "s", "w"):
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


# each channel value as a small int, an unset channel as -1
_CHANNEL = {None: -1, "r": 0, "b": 1, "n": 0, "e": 1, "s": 2, "w": 3, 0: 0, 1: 1}


def _compat(first: list, second: list, fx: int, fy: int) -> np.ndarray:
    """[i, j]: may edge first[i] abut edge second[j]?  One comparison over
    the five channels: line, pos and arrow agree, and a parity bit set on
    both sides flips across the edge when its flag (fx for px, fy for py) is
    1 and agrees when it is 0; an unset bit matches anything."""
    # channel-first and contiguous, so each channel compares as one block
    a, b = (np.array([[_CHANNEL[v] for v in (x.line, x.pos, x.arrow, x.px, x.py)]
                      for x in labels], dtype=np.int8).reshape(-1, 5).T.copy()
            for labels in (first, second))
    a, b = a[:, :, None], b[:, None]
    flip = np.array([0, 0, 0, fx, fy], dtype=np.int8)[:, None, None]
    parity = np.array([False, False, False, True, True])[:, None, None]
    compat = ((a == b ^ flip) | parity & ((a < 0) | (b < 0))).all(axis=0)
    compat.flags.writeable = False  # a tileset may be shared
    return compat


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
        # h_compat[a, b]: a may sit west of b; v_compat[a, b]: a may sit south of b
        # px flips across a vertical edge, py across a horizontal one
        self.h_compat = _compat([t.east for t in self.tiles],
                                [t.west for t in self.tiles], 1, 0)
        self.v_compat = _compat([t.north for t in self.tiles],
                                [t.south for t in self.tiles], 0, 1)

    def __len__(self) -> int:
        return len(self.tiles)

    def tile(self, tile_id: str) -> Tile:
        try:
            return self.tiles[self.index[tile_id]]
        except KeyError:
            raise InputError(f"unknown tile id: {tile_id!r}") from None

    @classmethod
    def from_json(cls, text: str) -> "Tileset":
        def read(doc):
            tiles = [Tile(_json_field(row, "id", str),
                          *(EdgeLabel.decode(_json_field(row, side, str))
                            for side in ("north", "east", "south", "west")),
                          template=_json_field(row, "template", str, ""),
                          rotation=_json_field(row, "rotation", int, 0))
                     for row in _json_field(doc, "tiles", list)]
            forbidden = [ForbiddenPattern(tuple(
                (_json_field(c, "dx", int), _json_field(c, "dy", int), _json_field(c, "tile", str))
                for c in _json_field(row, "cells", list)))
                for row in _json_field(doc, "forbidden", list, [])]
            return tiles, forbidden
        return cls(*_read_json("tileset", text, read))

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


def anchor_cells(offsets, shape: tuple, wrap: bool) -> tuple:
    """(anchor ys, anchor xs, flat cell indices per anchor) of the (dy, dx)
    `offsets` of one shape on a grid of `shape`, anchors in row-major order.
    With `wrap` the grid is a torus: every cell anchors and the cells are
    taken mod the sides; without it an anchor counts only where the whole
    shape lies inside the grid."""
    h, w = shape
    dy, dx = np.array(offsets).T
    ys = np.arange(h) if wrap else np.arange(-dy.min(), h - dy.max())
    xs = np.arange(w) if wrap else np.arange(-dx.min(), w - dx.max())
    ay, ax = (a.ravel() for a in np.meshgrid(ys, xs, indexing="ij"))
    cy, cx = ay[:, None] + dy, ax[:, None] + dx
    if wrap:
        cy, cx = cy % h, cx % w
    return ay, ax, cy * w + cx


@dataclass(frozen=True)
class Violation:
    kind: str          # 'h', 'v' or 'forbidden'
    position: tuple    # cell coordinate (x, y) of the west/south/anchor cell
    detail: str = ""


def _forbidden(tileset: Tileset):
    """Each extra forbidden pattern as its (dy, dx) offsets and the codes it
    bans there.  An id the tileset lacks reads HOLE - 1, a code no grid cell
    holds, so its pattern never matches."""
    for p in tileset.extra_forbidden:
        dx, dy, ids = zip(*p.cells)
        yield list(zip(dy, dx)), [tileset.index.get(tid, HOLE - 1) for tid in ids]


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
    found = []
    for pi, (offsets, want) in enumerate(_forbidden(tileset)):
        ay, ax, at = anchor_cells(offsets, idx.shape, False)
        hit = (idx.ravel()[at] == want).all(axis=1)
        found.extend(zip(ay[hit].tolist(), ax[hit].tolist(), repeat(pi)))
    found.sort()
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
    it, and is dropped when it completes a forbidden occurrence: each cell
    lists the occurrences whose last row-major cell it is, each as its cells
    and the codes banned there.  The budget counts one node per (state,
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
    ends = [[] for _ in range(n * n)]
    for offsets, want in _forbidden(tileset):
        want = tuple(want) if len(want) > 1 else want[0]  # as itemgetter reads it
        for at in anchor_cells(offsets, (n, n), False)[2].tolist():
            ends[max(at)].append((itemgetter(*at), want))
    codes = [HOLE] * (n * n)
    states = {(): 1}
    nodes = 0
    for c, ending in enumerate(ends):
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
                if any(get(codes) == want for get, want in ending):
                    continue
                f = (frontier + (t,))[-keep:]
                grown[f] = grown.get(f, 0) + ways
        states = grown
    return CountResult(sum(states.values()), nodes)
