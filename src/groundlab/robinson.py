"""Robinson-style hierarchical tileset: generator, macro-tiles, collected tile list.

The tiles decorate the square lattice with two alternating colours of square
outlines plus signal arrows and a parity grid.  Every admissible configuration
organises itself into nested macro-tiles of order n (squares of side 2^n - 1);
the module builds those macro-tiles by explicit recursion and derives the
finite tileset by collecting every cell state that occurs, in every order and
all four orientations, which makes the states rotation-closed by construction.

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
from typing import List, Optional

import numpy as np

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


@dataclass(frozen=True)
class CrossState:
    """Corner of one same-scale square outline; q names the square's quadrant."""

    q: str
    colour: str
    bumpy: bool


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

# an order-n macro-tile has side 2^n - 1: order 10 already holds ~10^6 cells,
# and each further order quadruples the allocation
MACRO_ORDER_CAP = 10


def _centre_cells(n: int, q: str):
    """(dx, dy, js, state) runs of the order-n macro-tile's centre cross and
    its arms: `state` sits at j * (dx, dy) from the centre for each j in the
    range js (n >= 2).  No run is empty."""
    colour = colour_of_scale(n)
    yield 0, 0, range(1), CrossState(q, colour, False)
    cross_at = 2 ** (n - 2)
    for d, (dx, dy) in _STEP.items():
        principal = None
        if d in q:
            other = q[0] if q[1] == d else q[1]
            principal = (colour, rotate_direction(d) == other)
        # the arm cell at distance j has parity (j + 1) % 2
        yield dx, dy, range(cross_at, cross_at + 1), ArmState(
            d, (cross_at + 1) % 2, principal, colour_of_scale(n - 1))
        for lo, hi in ((1, cross_at), (cross_at + 1, 2 ** (n - 1))):
            for par in (0, 1):
                js = range(lo + (lo + par + 1) % 2, hi, 2)
                if js:
                    yield dx, dy, js, ArmState(d, par, principal)


def collect_states(max_order: int) -> set:
    """The states of the macro-tiles up to max_order, without building their
    grids: each order-n tile holds its centre cross and arms plus the states
    of order-(n-1) tiles of all four orientations."""
    states = {CrossState(q, "b", True) for q in ORIENTATIONS}
    for n in range(2, max_order + 1):
        for q in ORIENTATIONS:
            states.update(state for *_, state in _centre_cells(n, q))
    return states


# every state a macro-tile of legal order holds; a state grid stores its
# index here, and a macro-tile's legend is the matching tile ids
STATES = tuple(sorted(collect_states(MACRO_ORDER_CAP), key=state_tile_id))
LEGEND = tuple(state_tile_id(st) for st in STATES)
_CODE = {st: k for k, st in enumerate(STATES)}


def build_state_grid(n: int, q: str = "ne") -> np.ndarray:
    """Read-only `STATES` codes of the order-n macro-tile, rows bottom-up,
    side 2^n - 1."""
    if not 1 <= n <= MACRO_ORDER_CAP:
        raise InputError(f"macro-tile order must be in 1..{MACRO_ORDER_CAP}")
    if q not in ORIENTATIONS:
        raise InputError(f"bad orientation {q!r}")
    return _state_grid(n, q)


@lru_cache(maxsize=None)
def _state_grid(n: int, q: str) -> np.ndarray:
    if n == 1:
        grid = np.array([[_CODE[CrossState(q, "b", True)]]], dtype=np.int32)
    else:
        half = 2 ** (n - 1)
        grid = np.empty((2 * half - 1, 2 * half - 1), dtype=np.int32)
        for corner, (ox, oy) in (("bl", (0, 0)), ("br", (half, 0)),
                                 ("tl", (0, half)), ("tr", (half, half))):
            grid[oy:oy + half - 1, ox:ox + half - 1] = \
                _state_grid(n - 1, _QUADRANT_Q[corner])
        c = half - 1
        for dx, dy, js, state in _centre_cells(n, q):
            j = np.arange(js.start, js.stop, js.step)
            grid[c + j * dy, c + j * dx] = _CODE[state]
    grid.setflags(write=False)
    return grid


def build_macro_tile(n: int, q: str = "ne") -> Patch:
    return Patch(build_state_grid(n, q), LEGEND)


_TILESET: List[Tileset] = []  # built on the first call


def build_tileset() -> Tileset:
    """One tile per state in `STATES`, in that order: a macro-tile's cell
    code is its tile's index.  The states are rotation-closed.  The tileset
    is built once per process and shared; its compat arrays are read-only."""
    if not _TILESET:
        _TILESET.append(Tileset(map(tile_from_state, STATES)))
    return _TILESET[0]
