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
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional

import numpy as np


class InputError(ValueError):
    """Malformed input: unknown ids, bad shapes, invalid parameters."""


class BudgetExceeded(RuntimeError):
    """An exact search or count ran out of its node budget."""


EDGE_NAMES = ("north", "east", "south", "west")

_CCW = {"n": "w", "w": "s", "s": "e", "e": "n"}
_OPP = {"n": "s", "s": "n", "e": "w", "w": "e"}


def rotate_direction(d: str, quarter_turns: int = 1) -> str:
    for _ in range(quarter_turns % 4):
        d = _CCW[d]
    return d


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

    def encode(self) -> str:
        enc = lambda v: "." if v is None else str(v)
        return f"{self.line or '.'}{enc(self.pos)}{self.arrow or '.'}{enc(self.px)}{enc(self.py)}"

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

    def _rot1(self, flip_pos: bool) -> "EdgeLabel":
        # one quarter turn counterclockwise: arrows turn with the plane,
        # parity bits swap because (x, y) -> (-y, x), and the line position
        # along the edge flips only on the east->north and west->south moves
        pos = self.pos
        if flip_pos and pos is not None:
            pos = 1 - pos
        return EdgeLabel(
            line=self.line,
            pos=pos,
            arrow=_CCW[self.arrow] if self.arrow else None,
            px=self.py,
            py=self.px,
        )


def _parity_ok(a: Optional[int], b: Optional[int], flip: bool) -> bool:
    if a is None or b is None:
        return True
    return (b == 1 - a) if flip else (b == a)


def h_edges_match(east_of_a: EdgeLabel, west_of_b: EdgeLabel) -> bool:
    """May tile A sit immediately west of tile B?"""
    return (
        east_of_a.line == west_of_b.line
        and east_of_a.pos == west_of_b.pos
        and east_of_a.arrow == west_of_b.arrow
        and _parity_ok(east_of_a.px, west_of_b.px, flip=True)
        and _parity_ok(east_of_a.py, west_of_b.py, flip=False)
    )


def v_edges_match(north_of_a: EdgeLabel, south_of_b: EdgeLabel) -> bool:
    """May tile A sit immediately south of tile B?"""
    return (
        north_of_a.line == south_of_b.line
        and north_of_a.pos == south_of_b.pos
        and north_of_a.arrow == south_of_b.arrow
        and _parity_ok(north_of_a.px, south_of_b.px, flip=False)
        and _parity_ok(north_of_a.py, south_of_b.py, flip=True)
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

    @property
    def rotation_class(self) -> tuple:
        return (self.template, self.rotation)

    def edges(self) -> tuple:
        return (self.north, self.east, self.south, self.west)

    def label_key(self) -> tuple:
        return tuple(lab.encode() for lab in self.edges())

    def rotated(self, quarter_turns: int = 1, new_id: Optional[str] = None) -> "Tile":
        t = self
        for _ in range(quarter_turns % 4):
            t = Tile(
                id=t.id,
                north=t.east._rot1(flip_pos=True),
                east=t.south._rot1(flip_pos=False),
                south=t.west._rot1(flip_pos=True),
                west=t.north._rot1(flip_pos=False),
                template=t.template,
                rotation=(t.rotation + 1) % 4,
            )
        if new_id is not None:
            t = Tile(new_id, t.north, t.east, t.south, t.west, t.template, t.rotation)
        return t


@dataclass(frozen=True)
class ForbiddenPattern:
    """Finite pattern banned at every position: cells are (dx, dy, tile_id)."""

    cells: tuple


class Tileset:
    """A finite tile list plus adjacency relations generated from the labels."""

    def __init__(self, tiles: Iterable[Tile], extra_forbidden: Iterable[ForbiddenPattern] = ()):
        self.tiles = tuple(tiles)
        if len({t.id for t in self.tiles}) != len(self.tiles):
            raise InputError("duplicate tile ids")
        self.index = {t.id: i for i, t in enumerate(self.tiles)}
        self.extra_forbidden = tuple(extra_forbidden)
        n = len(self.tiles)
        self.h_compat = np.zeros((n, n), dtype=bool)  # [a, b]: a sits west of b
        self.v_compat = np.zeros((n, n), dtype=bool)  # [a, b]: a sits south of b
        for i, a in enumerate(self.tiles):
            for j, b in enumerate(self.tiles):
                self.h_compat[i, j] = h_edges_match(a.east, b.west)
                self.v_compat[i, j] = v_edges_match(a.north, b.south)

    def __len__(self) -> int:
        return len(self.tiles)

    def tile(self, tile_id: str) -> Tile:
        try:
            return self.tiles[self.index[tile_id]]
        except KeyError:
            raise InputError(f"unknown tile id: {tile_id!r}") from None

    def templates(self) -> tuple:
        seen = []
        for t in self.tiles:
            if t.template not in seen:
                seen.append(t.template)
        return tuple(seen)

    def rotation_classes(self) -> tuple:
        seen = []
        for t in self.tiles:
            rc = t.rotation_class
            if rc not in seen:
                seen.append(rc)
        return tuple(seen)

    def dedup(self) -> "Tileset":
        """Merge tiles whose four edge labels coincide exactly."""
        seen = set()
        kept = []
        for t in self.tiles:
            key = t.label_key()
            if key not in seen:
                seen.add(key)
                kept.append(t)
        return Tileset(kept, self.extra_forbidden)

    # ---- serialization ----

    def to_json(self) -> str:
        doc = {
            "tiles": [
                {
                    "id": t.id,
                    "north": t.north.encode(),
                    "east": t.east.encode(),
                    "south": t.south.encode(),
                    "west": t.west.encode(),
                    "template": t.template,
                    "rotation": t.rotation,
                }
                for t in self.tiles
            ],
            "forbidden": [
                {"cells": [{"dx": dx, "dy": dy, "tile": tid} for dx, dy, tid in p.cells]}
                for p in self.extra_forbidden
            ],
        }
        return json.dumps(doc, indent=1, sort_keys=True)

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

    def adjacency_table(self) -> str:
        """Adjacency artifact: one 'dir,a,b' line per allowed neighbour pair."""
        lines = []
        for d, mat in (("h", self.h_compat), ("v", self.v_compat)):
            for i, j in np.argwhere(mat):
                lines.append(f"{d},{self.tiles[i].id},{self.tiles[j].id}")
        return "\n".join(lines) + "\n"


HOLE = -1


class Patch:
    """Rectangular fragment of a configuration.  grid[y, x], y grows upward."""

    def __init__(self, grid: np.ndarray, legend: tuple, origin: tuple = (0, 0)):
        grid = np.asarray(grid, dtype=np.int32)
        if grid.ndim != 2:
            raise InputError("patch grid must be 2-dimensional")
        self.grid = grid
        self.legend = tuple(legend)
        self.origin = tuple(origin)

    @property
    def height(self) -> int:
        return self.grid.shape[0]

    @property
    def width(self) -> int:
        return self.grid.shape[1]

    @classmethod
    def from_ids(cls, rows, origin=(0, 0)) -> "Patch":
        """rows: list of rows bottom-up, each a list of tile ids or None."""
        legend = []
        lut = {}
        h = len(rows)
        w = len(rows[0]) if h else 0
        grid = np.full((h, w), HOLE, dtype=np.int32)
        for y, row in enumerate(rows):
            if len(row) != w:
                raise InputError("ragged patch rows")
            for x, tid in enumerate(row):
                if tid is None:
                    continue
                if tid not in lut:
                    lut[tid] = len(legend)
                    legend.append(tid)
                grid[y, x] = lut[tid]
        return cls(grid, tuple(legend), origin)

    def id_at(self, x: int, y: int):
        if not (0 <= x < self.width and 0 <= y < self.height):
            return None
        v = self.grid[y, x]
        return None if v == HOLE else self.legend[v]

    def cells(self):
        for y in range(self.height):
            for x in range(self.width):
                v = self.grid[y, x]
                if v != HOLE:
                    yield (x, y, self.legend[v])

    def filled(self) -> bool:
        return bool((self.grid != HOLE).all())

    def subpatch(self, x0: int, y0: int, w: int, h: int) -> "Patch":
        if x0 < 0 or y0 < 0 or x0 + w > self.width or y0 + h > self.height:
            raise InputError("subpatch out of range")
        return Patch(self.grid[y0:y0 + h, x0:x0 + w].copy(), self.legend,
                     (self.origin[0] + x0, self.origin[1] + y0))

    def same_cells(self, other: "Patch") -> bool:
        if self.grid.shape != other.grid.shape:
            return False
        for y in range(self.height):
            for x in range(self.width):
                if self.id_at(x, y) != other.id_at(x, y):
                    return False
        return True

    def to_json(self) -> str:
        rows = [[self.id_at(x, y) for x in range(self.width)] for y in range(self.height)]
        return json.dumps({"origin": list(self.origin), "rows": rows}, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Patch":
        try:
            doc = json.loads(text)
            return cls.from_ids(doc["rows"], tuple(doc.get("origin", (0, 0))))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed patch json: {exc}") from exc


class PatternIndex:
    """The one pattern-occurrence kernel: patterns hashed by cell-offset shape.

    A pattern is a list of (dy, dx, code) cells matched against a grid of
    integer codes indexed [y, x]; a None code (a tile the grid cannot hold)
    drops it.  Each shape (offset tuple) maps the codes read at its offsets to
    the summed integer weight of its patterns when `weights` are given, else
    to the tuple of their indices; zero-weight keys are dropped.  An anchor is
    thus one dict lookup per shape, however many patterns there are.

    With `wrap` the grid is a torus; without it an anchor counts only where its
    whole shape lies inside the grid.  Negative codes never match.  Index
    arrays are cached per grid shape; the grid is read on every call.
    """

    def __init__(self, patterns, weights=None):
        shapes = {}
        for n, cells in enumerate(patterns):
            if not cells:
                raise InputError("empty pattern")
            if any(code is None for _, _, code in cells):
                continue
            offsets, key = zip(*(((dy, dx), code) for dy, dx, code in sorted(cells)))
            table = shapes.setdefault(offsets, {})
            value = (n,) if weights is None else weights[n]
            table[key] = table[key] + value if key in table else value
        self._shapes = [(offsets, {k: v for k, v in table.items() if v})
                        for offsets, table in shapes.items()]
        self._plans = {}
        self._cell_plans = {}
        self._dense = {}

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

    def _lookup(self, grid: np.ndarray, wrap: bool):
        for table, ay, ax, cells in self._plan(grid.shape, wrap):
            yield ay, ax, cells, [table.get(k) for k in map(tuple, grid.ravel()[cells].tolist())]

    def total(self, grid: np.ndarray, wrap: bool = False) -> int:
        """Summed value of every occurrence in the grid."""
        return sum(sum(map(table.get, map(tuple, grid.ravel()[cells].tolist()), repeat(0)))
                   for table, _, _, cells in self._plan(grid.shape, wrap))

    def value_counts(self, grids: np.ndarray, ncodes: int):
        """(values, counts) for a (B, h, w) stack of tori with codes in
        range(ncodes): counts[b, j] is how many occurrences of value values[j]
        torus b holds, so its wrapped `total` is sum(counts[b] * values).

        A shape of k cells reads each anchor's codes as one base-ncodes key
        and looks it up in a table of ncodes**k value ids (0: no value),
        built once per ncodes; it suits small alphabets and shapes only.
        """
        if ncodes not in self._dense:
            ids, luts = {}, []
            for offsets, table in self._shapes:
                radix = ncodes ** np.arange(len(offsets) - 1, -1, -1, dtype=np.int64)
                lut = np.zeros(ncodes ** len(offsets), dtype=np.int32)
                for key, value in table.items():
                    if all(0 <= c < ncodes for c in key):
                        lut[int(np.dot(key, radix))] = ids.setdefault(value, len(ids) + 1)
                luts.append((radix, lut))
            self._dense[ncodes] = tuple(ids), luts
        values, luts = self._dense[ncodes]
        flat = grids.reshape(len(grids), -1)
        # value id j of grid b lands in bin b * (len(values) + 1) + j
        bins = np.arange(len(grids))[:, None] * (len(values) + 1)
        counts = np.zeros(bins.size * (len(values) + 1), dtype=np.int64)
        for (_, _, _, cells), (radix, lut) in zip(self._plan(grids.shape[1:], True), luts):
            counts += np.bincount((bins + lut[flat[:, cells] @ radix]).ravel(),
                                  minlength=counts.size)
        return values, counts.reshape(len(grids), -1)[:, 1:].astype(np.int32)

    def occurrences(self, grid: np.ndarray, wrap: bool = False) -> list:
        """(y, x, value) of every occurrence, by anchor."""
        return [(int(y), int(x), v) for ay, ax, _, values in self._lookup(grid, wrap)
                for y, x, v in zip(ay, ax, values) if v is not None]

    def covered(self, grid: np.ndarray, wrap: bool = False) -> np.ndarray:
        """Boolean map of the cells inside at least one occurrence."""
        mask = np.zeros(grid.size, dtype=bool)
        for _, _, cells, values in self._lookup(grid, wrap):
            mask[cells[np.array([v is not None for v in values], dtype=bool)]] = True
        return mask.reshape(grid.shape)

    def covering(self, grid: np.ndarray, y: int, x: int, wrap: bool = False) -> list:
        """Values of the occurrences that cover cell (y, x), once per pattern
        cell landing there (a shape wider than a torus can land twice)."""
        if (grid.shape, wrap) not in self._cell_plans:
            # per cell: the flat indices of every anchor covering it, and the
            # (lookup, start, stop) that reads each anchor's key from them
            plans = [([], []) for _ in range(grid.size)]
            for table, _, _, cells in self._plan(grid.shape, wrap):
                for row in cells.tolist():
                    for p in row:
                        index, parts = plans[p]
                        parts.append((table.get, len(index), len(index) + len(row)))
                        index.extend(row)
            self._cell_plans[grid.shape, wrap] = [
                (np.array(index, dtype=np.intp), parts) for index, parts in plans]
        index, parts = self._cell_plans[grid.shape, wrap][y * grid.shape[1] + x]
        codes = grid.ravel()[index].tolist()
        return [v for get, a, b in parts if (v := get(tuple(codes[a:b]))) is not None]


@dataclass(frozen=True)
class Violation:
    kind: str          # 'h', 'v' or 'forbidden'
    position: tuple    # cell coordinate (x, y) of the west/south/anchor cell
    detail: str = ""


def check_patch(tileset: Tileset, patch: Patch) -> list:
    """All local-rule violations inside the patch (edge rules + forbidden patterns)."""
    tile_of = np.full(max(len(patch.legend), 1), -1, dtype=np.int64)
    for i, tid in enumerate(patch.legend):
        if tid not in tileset.index:
            raise InputError(f"patch uses unknown tile id {tid!r}")
        tile_of[i] = tileset.index[tid]
    g = patch.grid
    filled = g != HOLE
    idx = np.where(filled, tile_of[np.where(filled, g, 0)], -1)

    out = []
    if patch.width > 1:
        a, b = idx[:, :-1], idx[:, 1:]
        both = (a >= 0) & (b >= 0)
        bad = both & ~tileset.h_compat[np.where(both, a, 0), np.where(both, b, 0)]
        for y, x in np.argwhere(bad):
            out.append(Violation("h", (int(x), int(y)),
                                 f"{patch.id_at(x, y)} | {patch.id_at(x + 1, y)}"))
    if patch.height > 1:
        a, b = idx[:-1, :], idx[1:, :]
        both = (a >= 0) & (b >= 0)
        bad = both & ~tileset.v_compat[np.where(both, a, 0), np.where(both, b, 0)]
        for y, x in np.argwhere(bad):
            out.append(Violation("v", (int(x), int(y)),
                                 f"{patch.id_at(x, y)} / {patch.id_at(x, y + 1)}"))
    forbidden = PatternIndex([[(dy, dx, tileset.index.get(tid)) for dx, dy, tid in pat.cells]
                              for pat in tileset.extra_forbidden])
    found = sorted((y, x, pi) for y, x, hits in forbidden.occurrences(idx) for pi in hits)
    out.extend(Violation("forbidden", (x, y), f"pattern {pi}") for y, x, pi in found)
    out.sort(key=lambda v: (v.position[1], v.position[0], v.kind))
    return out


@dataclass
class CountResult:
    count: Optional[int]
    exact: bool
    nodes: int
    budget_exceeded: bool


def count_admissible(tileset: Tileset, n: int, budget: int = 10_000_000) -> CountResult:
    """Exact number of locally admissible n x n patches.

    Sweeps cells in row-major order keeping the last n placed tiles as the
    frontier (counts stay exact Python ints); node expansions are charged
    against the budget and the count is abandoned, never approximated, when
    the budget runs out.  Extra forbidden patterns force a slower exhaustive
    walk and are only practical for tiny n.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    T = len(tileset)
    if tileset.extra_forbidden:
        return _count_exhaustive(tileset, n, budget)
    if n == 1:
        return CountResult(T, True, T, False)

    h, v = tileset.h_compat, tileset.v_compat
    h_lists = [np.nonzero(h[a])[0] for a in range(T)]
    v_lists = [np.nonzero(v[a])[0] for a in range(T)]
    pair_lists = {}
    all_tiles = np.arange(T)

    def candidates(up: int, left: int) -> np.ndarray:
        if left < 0 and up < 0:
            return all_tiles
        if up < 0:
            return h_lists[left]
        if left < 0:
            return v_lists[up]
        key = (up, left)
        got = pair_lists.get(key)
        if got is None:
            got = np.nonzero(v[up] & h[left])[0]
            pair_lists[key] = got
        return got

    states = {(): 1}
    nodes = 0
    for cell in range(n * n):
        col = cell % n
        new_states = {}
        for frontier, cnt in states.items():
            up = frontier[0] if cell >= n else -1
            left = frontier[-1] if col > 0 else -1
            for t in candidates(up, left):
                nodes += 1
                if nodes > budget:
                    return CountResult(None, False, nodes, True)
                nf = frontier[1:] + (int(t),) if cell >= n else frontier + (int(t),)
                new_states[nf] = new_states.get(nf, 0) + cnt
        states = new_states
        if not states:
            return CountResult(0, True, nodes, False)
    return CountResult(sum(states.values()), True, nodes, False)


def _count_exhaustive(tileset: Tileset, n: int, budget: int) -> CountResult:
    ids = [t.id for t in tileset.tiles]
    h, v = tileset.h_compat, tileset.v_compat
    grid = [[None] * n for _ in range(n)]
    nodes = 0
    count = 0
    overran = False

    def rec(cell):
        nonlocal nodes, count, overran
        if overran:
            return
        if cell == n * n:
            patch = Patch.from_ids(grid)
            if not check_patch(tileset, patch):
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
    if overran:
        return CountResult(None, False, nodes, True)
    return CountResult(count, True, nodes, False)


def log2_count_per_site(result: CountResult, n: int) -> float:
    if result.count is None or result.count <= 0:
        raise InputError("no exact positive count available")
    return math.log2(result.count) / (n * n)
