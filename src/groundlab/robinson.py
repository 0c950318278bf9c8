"""Robinson-style hierarchical tileset: generator, macro-tiles, collected tile list.

The tiles decorate the square lattice with two alternating colours of square
outlines plus signal arrows and a parity grid.  Every admissible configuration
organises itself into nested macro-tiles of order n (squares of side 2^n - 1);
the module builds those macro-tiles by explicit recursion and derives the
finite tileset by collecting every cell state that occurs, closing under
rotation.

Cell states rather than raw tiles are the working currency: a cell is either a
cross (corner of one square outline of its scale, with an orientation naming
the quadrant that square occupies) or an arm (part of a straight signal line
belonging to the nearest cross along its spine).  Arms remember their distance
parity, whether they carry a square side (principal arms, hugging the square
interior on their left or right), and whether a perpendicular square side of
the opposite colour crosses them halfway.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .tiles import (
    EdgeLabel,
    InputError,
    Patch,
    Tile,
    Tileset,
    opposite_direction,
    rotate_direction,
)

ORIENTATIONS = ("ne", "nw", "sw", "se")
ARM_DIRECTIONS = ("s", "e", "n", "w")  # rotation 0..3 of the base south arm

_STEP = {"n": (0, 1), "e": (1, 0), "s": (0, -1), "w": (-1, 0)}


def colour_of_scale(s: int) -> str:
    """Square outlines alternate colour by scale: red on even, black on odd."""
    if s < 1:
        raise InputError("scale must be >= 1")
    return "r" if s % 2 == 0 else "b"


def normalize_orientation(vert: str, horiz: str) -> str:
    if vert not in "ns" or horiz not in "ew":
        raise InputError(f"bad orientation parts {vert!r} {horiz!r}")
    return vert + horiz


def rotate_orientation(q: str, quarter_turns: int = 1) -> str:
    a = rotate_direction(q[0], quarter_turns)
    b = rotate_direction(q[1], quarter_turns)
    if a in "ns":
        return normalize_orientation(a, b)
    return normalize_orientation(b, a)


@dataclass(frozen=True)
class CrossState:
    """Corner of one same-scale square outline; q names the square's quadrant."""

    q: str
    colour: str
    bumpy: bool

    def rotated(self, quarter_turns: int = 1) -> "CrossState":
        return CrossState(rotate_orientation(self.q, quarter_turns), self.colour, self.bumpy)


@dataclass(frozen=True)
class ArmState:
    """Straight line cell pointing away from its owning cross.

    par        parity of the free coordinate (position along the spine mod 2)
    principal  (colour, left) when the cell carries a square side along its
               spine; left means the line hugs the left side looking away
    crossing   colour of a perpendicular square side through this cell, if any
    """

    away: str
    par: int
    principal: Optional[tuple] = None
    crossing: Optional[str] = None

    def rotated(self, quarter_turns: int = 1) -> "ArmState":
        return ArmState(rotate_direction(self.away, quarter_turns), self.par,
                        self.principal, self.crossing)


def rotate_state(state, quarter_turns: int = 1):
    return state.rotated(quarter_turns)


# ---- naming ----

def state_tile_id(state) -> str:
    if isinstance(state, CrossState):
        if state.bumpy:
            return f"xb.{state.q}"
        return f"x.{state.q}.{state.colour}"
    parts = [f"a.{state.away}.p{state.par}"]
    if state.principal is not None:
        colour, left = state.principal
        parts.append(f"{colour}{'l' if left else 'r'}")
    if state.crossing is not None:
        parts.append(f"x{state.crossing}")
    return ".".join(parts)


def state_template(state) -> str:
    if isinstance(state, CrossState):
        return "bumpy-cross" if state.bumpy else "cross"
    name = "arm"
    if state.principal is not None:
        name += "-line-left" if state.principal[1] else "-line-right"
    if state.crossing is not None:
        name += "-crossed"
    return name


def state_rotation(state) -> int:
    if isinstance(state, CrossState):
        return ORIENTATIONS.index(state.q)
    return ARM_DIRECTIONS.index(state.away)


# ---- edge labels from a state ----

def _line_pos(edge: str, side_dir: str) -> int:
    # the line crosses `edge` nearer the end that side_dir points at
    if edge in "ns":
        return 1 if side_dir == "e" else 0
    return 1 if side_dir == "n" else 0


def tile_from_state(state) -> Tile:
    if isinstance(state, CrossState):
        par = 0 if state.bumpy else 1
        labels = {}
        for d in "nesw":
            if d in state.q:
                other = state.q[0] if state.q[1] == d else state.q[1]
                labels[d] = EdgeLabel(line=state.colour, pos=_line_pos(d, other),
                                      arrow=d, px=par, py=par)
            else:
                labels[d] = EdgeLabel(arrow=d, px=par, py=par)
    else:
        vertical = state.away in "ns"
        px = 1 if vertical else state.par
        py = state.par if vertical else 1
        along = ("n", "s") if vertical else ("e", "w")
        labels = {}
        for d in "nesw":
            if d in along:
                line = pos = None
                if state.principal is not None:
                    colour, left = state.principal
                    side_dir = rotate_direction(state.away) if left \
                        else opposite_direction(rotate_direction(state.away))
                    line, pos = colour, _line_pos(d, side_dir)
                labels[d] = EdgeLabel(line=line, pos=pos, arrow=state.away, px=px, py=py)
            else:
                line = pos = None
                if state.crossing is not None:
                    line, pos = state.crossing, _line_pos(d, opposite_direction(state.away))
                labels[d] = EdgeLabel(line=line, pos=pos,
                                      arrow=opposite_direction(d), px=px, py=py)
    return Tile(
        id=state_tile_id(state),
        north=labels["n"], east=labels["e"], south=labels["s"], west=labels["w"],
        template=state_template(state),
        rotation=state_rotation(state),
    )


# ---- macro-tile recursion ----

# sub-macros sit in the four corners and always open toward the centre
_QUADRANT_Q = {"bl": "ne", "br": "nw", "tr": "sw", "tl": "se"}

_grid_cache = {}

# an order-n macro-tile has side 2^n - 1: order 10 already holds ~10^6 cells,
# and each further order quadruples the allocation
MACRO_ORDER_CAP = 10


def build_state_grid(n: int, q: str = "ne") -> list:
    """State grid of the order-n macro-tile, rows bottom-up, side 2^n - 1."""
    if not 1 <= n <= MACRO_ORDER_CAP:
        raise InputError(f"macro-tile order must be in 1..{MACRO_ORDER_CAP}")
    if q not in ORIENTATIONS:
        raise InputError(f"bad orientation {q!r}")
    got = _grid_cache.get((n, q))
    if got is not None:
        return got

    size = 2 ** n - 1
    if n == 1:
        grid = [[CrossState(q, "b", True)]]
        _grid_cache[(n, q)] = grid
        return grid

    half = 2 ** (n - 1)
    c = half - 1
    grid = [[None] * size for _ in range(size)]
    for corner, (ox, oy) in (("bl", (0, 0)), ("br", (half, 0)),
                             ("tl", (0, half)), ("tr", (half, half))):
        sub = build_state_grid(n - 1, _QUADRANT_Q[corner])
        for yy in range(half - 1):
            row = grid[oy + yy]
            srow = sub[yy]
            for xx in range(half - 1):
                row[ox + xx] = srow[xx]

    for dx, dy, state in _centre_cells(n, q):
        grid[c + dy][c + dx] = state
    _grid_cache[(n, q)] = grid
    return grid


def _centre_cells(n: int, q: str):
    """(dx, dy, state) of the order-n macro-tile's centre cross and its arms,
    as offsets from the centre (n >= 2)."""
    colour = colour_of_scale(n)
    yield 0, 0, CrossState(q, colour, False)
    cross_at = 2 ** (n - 2)
    for d, (dx, dy) in _STEP.items():
        principal = None
        if d in q:
            other = q[0] if q[1] == d else q[1]
            left = rotate_direction(d) == other
            principal = (colour, left)
        for j in range(1, 2 ** (n - 1)):
            yield j * dx, j * dy, ArmState(
                away=d,
                par=(j + 1) % 2,
                principal=principal,
                crossing=colour_of_scale(n - 1) if j == cross_at else None,
            )


def build_macro_tile(n: int, q: str = "ne") -> Patch:
    grid = build_state_grid(n, q)
    return Patch.from_ids([[state_tile_id(st) for st in row] for row in grid])


@lru_cache(maxsize=None)
def _macro_states(n: int, q: str) -> frozenset:
    """The states of the order-n macro-tile: those of its four order-(n-1)
    quadrants plus its centre cross and arms, without building its grid."""
    if n == 1:
        return frozenset([CrossState(q, "b", True)])
    return frozenset().union(
        *(_macro_states(n - 1, sub) for sub in _QUADRANT_Q.values()),
        (state for _, _, state in _centre_cells(n, q)))


def collect_states(max_order: int = 7) -> set:
    return set().union(*(_macro_states(n, q) for n in range(1, max_order + 1)
                         for q in ORIENTATIONS))


def build_tileset(max_order: int = 7) -> Tileset:
    """The finite tileset: all states of macro-tiles up to max_order, rotation-closed."""
    states = collect_states(max_order)
    closed = set(states)
    for st in states:
        for k in (1, 2, 3):
            closed.add(rotate_state(st, k))
    tiles = sorted((tile_from_state(st) for st in closed), key=lambda t: t.id)
    return Tileset(tiles)
