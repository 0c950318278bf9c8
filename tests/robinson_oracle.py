"""Quarter turns of Robinson cell states, the reference of the rotation-closure
identity tests.

`robinson.collect_states` takes every macro-tile order in all four
orientations, so its states are closed under rotation without a rotation
step; tests/test_robinson.py checks that with these turns, and that turning
a state turns its tile as `tiles_oracle.rotated` does.
"""

from groundlab.robinson import ArmState, CrossState
from groundlab.tiles import InputError
from tiles_oracle import QUARTER_TURN


def _turn(d: str, quarter_turns: int) -> str:
    for _ in range(quarter_turns % 4):
        d = QUARTER_TURN[d]
    return d


def normalize_orientation(vert: str, horiz: str) -> str:
    if vert not in "ns" or horiz not in "ew":
        raise InputError(f"bad orientation parts {vert!r} {horiz!r}")
    return vert + horiz


def rotate_orientation(q: str, quarter_turns: int = 1) -> str:
    a = _turn(q[0], quarter_turns)
    b = _turn(q[1], quarter_turns)
    if a in "ns":
        return normalize_orientation(a, b)
    return normalize_orientation(b, a)


def rotated(state, quarter_turns: int = 1):
    """The cross or arm state turned counterclockwise by quarter_turns."""
    if isinstance(state, CrossState):
        return CrossState(rotate_orientation(state.q, quarter_turns), state.colour,
                          state.bumpy)
    return ArmState(_turn(state.away, quarter_turns), state.par, state.principal,
                    state.crossing)
