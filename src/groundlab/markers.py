"""Marker machinery: non-overlap verification, covering search, exact grid measures.

A marker set is a family of same-shape rectangular patterns.  Two axioms make
a family usable as a grounding device: no two patterns may agree on a proper
overlap (so occurrences cannot chain into ambiguity), and every admissible
window of side m must contain an occurrence (so markers appear everywhere).
Non-overlap is decided exactly by a shift scan; covering is searched for
counterexamples by a backtracking solver with arc-consistency propagation.

The grid measure puts an iid random marker at every site of an abutting
ell-periodic grid whose global offset is uniform in {0..ell-1}^2; cylinder
probabilities are exact rationals obtained by conditioning on the offset and
multiplying independent per-marker factors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .robinson import ORIENTATIONS, build_macro_tile
from .tiles import HOLE, InputError, Patch, PatternIndex, Tileset, pattern_tables


class MarkerSet:
    """Same-shape rectangular patterns with a margin factor tau.

    `codes` stacks the patterns as one read-only (P, h, w) array over the
    shared `legend` of tile ids, so shifted comparisons are array equality."""

    def __init__(self, patterns: Iterable[Patch], tau: Fraction = Fraction(0)):
        self.patterns = tuple(patterns)
        if not self.patterns:
            raise InputError("marker set needs at least one pattern")
        shape = self.patterns[0].grid.shape
        for p in self.patterns:
            if p.grid.shape != shape:
                raise InputError("marker patterns must share one shape")
            if not p.filled():
                raise InputError("marker patterns must be total (no holes)")
        self.height, self.width = shape
        self.tau = Fraction(tau)
        # the patterns' legends merged in first-seen order
        self.legend = tuple(dict.fromkeys(tid for p in self.patterns for tid in p.legend))
        code = {tid: k for k, tid in enumerate(self.legend)}
        self.codes = np.stack([p.codes_in(code) for p in self.patterns])
        self.codes.setflags(write=False)
        # a set of byte strings, not np.unique(axis=0): that imports numpy.ma
        if len({g.tobytes() for g in self.codes}) < len(self.codes):
            raise InputError("duplicate marker pattern")

    @property
    def ell(self) -> int:
        if self.width != self.height:
            raise InputError("marker side requested for non-square patterns")
        return self.width

    @property
    def m(self) -> int:
        """Covering window side: (2 + tau) * ell - 1, rounded up."""
        return math.ceil((2 + self.tau) * self.ell - 1)

    def __len__(self) -> int:
        return len(self.patterns)

    def index(self, code) -> PatternIndex:
        """The patterns as a pattern-occurrence kernel over the codes that
        `code` (a tile id -> code mapping) assigns; unknown ids never match."""
        lut = [code.get(tid) for tid in self.legend]
        return PatternIndex(pattern_tables(
            [[(y, x, lut[c]) for y, row in enumerate(g.tolist()) for x, c in enumerate(row)]
             for g in self.codes]))

    def to_json(self) -> str:
        doc = {
            "tau": [self.tau.numerator, self.tau.denominator],
            "patterns": [json.loads(p.to_json()) for p in self.patterns],
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "MarkerSet":
        try:
            doc = json.loads(text)
            tau = Fraction(doc["tau"][0], doc["tau"][1])
            patterns = [Patch.from_ids(p["rows"]) for p in doc["patterns"]]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"malformed marker json: {exc}") from exc
        return cls(patterns, tau)


def robinson_marker_set(n: int) -> MarkerSet:
    """The four order-n macro-tiles as markers; margin factor 6/ell."""
    ell = 2 ** n - 1
    return MarkerSet([build_macro_tile(n, q) for q in ORIENTATIONS],
                     tau=Fraction(6, ell))


def nonoverlap_violations(markers: MarkerSet) -> list:
    """All (i, j, (dx, dy)) where pattern j shifted by (dx, dy) agrees with
    pattern i on a nonempty proper overlap (i == j with zero shift excluded),
    sorted by (i, j, dy, dx).  Each shift compares all pattern pairs at once."""
    codes = markers.codes
    h, w = markers.height, markers.width
    hits = []
    for dy in range(-(h - 1), h):
        y0, y1 = max(0, dy), min(h, h + dy)
        for dx in range(-(w - 1), w):
            x0, x1 = max(0, dx), min(w, w + dx)
            a = codes[:, y0:y1, x0:x1]
            b = codes[:, y0 - dy:y1 - dy, x0 - dx:x1 - dx]
            agree = (a[:, None] == b[None]).all(axis=(2, 3))
            if dx == 0 and dy == 0:
                np.fill_diagonal(agree, False)
            hits.extend((int(i), int(j), dy, dx) for i, j in zip(*np.nonzero(agree)))
    hits.sort()
    return [(i, j, (dx, dy)) for i, j, dy, dx in hits]


def verify_nonoverlap(markers: MarkerSet):
    """None when the non-overlap axiom holds, else the first violating triple
    in (i, j, dy, dx) order."""
    bad = nonoverlap_violations(markers)
    return bad[0] if bad else None


@dataclass
class CoveringResult:
    status: str              # 'none' | 'witness' | 'budget'
    witness: Optional[Patch]
    nodes: int


class _BudgetStop(Exception):
    pass


def _propagate(domains, h_compat, v_compat, queue, m):
    """Arc consistency: shrink neighbour domains until a fixpoint or a wipeout."""
    pending = list(queue)
    while pending:
        cx, cy = pending.pop()
        d = domains[cy][cx]
        for nx, ny, mat, forward in (
            (cx + 1, cy, h_compat, True),
            (cx - 1, cy, h_compat, False),
            (cx, cy + 1, v_compat, True),
            (cx, cy - 1, v_compat, False),
        ):
            if not (0 <= nx < m and 0 <= ny < m):
                continue
            nd = domains[ny][nx]
            allowed = (mat[d] if forward else mat[:, d]).any(axis=0 if forward else 1)
            shrunk = nd & allowed
            if shrunk.sum() < nd.sum():
                domains[ny][nx] = shrunk
                if not shrunk.any():
                    return False
                pending.append((nx, ny))
    return True


def search_covering_counterexample(tileset: Tileset, markers: MarkerSet,
                                   budget: int = 2_000_000) -> CoveringResult:
    """Look for an admissible m x m patch (edge rules and the tileset's
    forbidden patterns) containing no marker occurrence.

    Exhausting the space proves the covering axiom for window side m.  The
    solver assigns cells in row-major order over per-cell candidate domains
    kept arc-consistent, so global parity-style forcings prune immediately.
    """
    m = markers.m
    T = len(tileset)
    index = markers.index(tileset.index)
    forbidden = tileset.forbidden_index

    full = np.ones(T, dtype=bool)
    if markers.width == 1 and markers.height == 1:
        # a 1x1 marker bans its tile outright; one the tileset lacks bans none
        banned = np.array([p.codes_in(tileset.index)[0, 0] for p in markers.patterns])
        full[banned[banned != HOLE]] = False
        if not full.any():
            return CoveringResult("none", None, 0)

    grid = np.full((m, m), -1, dtype=np.int64)
    nodes = 0

    def solve(cell, domains):
        nonlocal nodes
        if cell == m * m:
            return True
        y, x = divmod(cell, m)
        base = domains[y][x]
        for t in np.nonzero(base)[0]:
            nodes += 1
            if nodes > budget:
                raise _BudgetStop
            grid[y, x] = t
            # cells after (x, y) are unassigned (-1), so the only marker or
            # forbidden occurrences that can match are those (x, y) completes
            if index.covering(grid, y, x) or forbidden.covering(grid, y, x):
                grid[y, x] = -1
                continue
            trial = [row[:] for row in domains]
            one = np.zeros(T, dtype=bool)
            one[t] = True
            trial[y][x] = one
            if _propagate(trial, tileset.h_compat, tileset.v_compat, [(x, y)], m):
                if solve(cell + 1, trial):
                    return True
            grid[y, x] = -1
        return False

    domains = [[full.copy() for _ in range(m)] for _ in range(m)]
    if not _propagate(domains, tileset.h_compat, tileset.v_compat,
                      [(x, y) for y in range(m) for x in range(m)], m):
        return CoveringResult("none", None, 0)
    try:
        found = solve(0, domains)
    except _BudgetStop:
        return CoveringResult("budget", None, nodes)
    if not found:
        return CoveringResult("none", None, nodes)
    ids = [t.id for t in tileset.tiles]
    rows = [[ids[grid[y, x]] for x in range(m)] for y in range(m)]
    return CoveringResult("witness", Patch.from_ids(rows), nodes)


def occurrence_map(config: Patch, markers: MarkerSet) -> np.ndarray:
    """Boolean cell map: cells lying inside at least one marker occurrence.

    Config and markers are read in one tile id -> code mapping, built from
    the config's legend; a hole, or a marker naming an id that legend lacks,
    never matches."""
    code = {tid: i for i, tid in enumerate(config.legend)}
    return markers.index(code).covered(config.codes_in(code))


class StationaryGridMeasure:
    """Shift-invariant law of an abutting iid marker grid with uniform offset."""

    def __init__(self, markers: MarkerSet, weights: Optional[Iterable[Fraction]] = None):
        self.markers = markers
        ell = markers.ell  # requires square markers
        if weights is None:
            weights = [Fraction(1, len(markers))] * len(markers)
        self.weights = tuple(Fraction(w) for w in weights)
        if len(self.weights) != len(markers):
            raise InputError("need one weight per pattern")
        if any(w < 0 for w in self.weights):
            raise InputError("negative weight")
        if sum(self.weights) != 1:
            raise InputError("weights must sum to 1 exactly")
        self.ell = ell

    def probability(self, pattern: Patch) -> Fraction:
        """Exact cylinder probability of seeing `pattern` at its own origin."""
        ell = self.ell
        ox0, oy0 = pattern.origin
        cells = [(ox0 + x, oy0 + y, tid) for x, y, tid in pattern.cells()]
        if not cells:
            return Fraction(1)
        total = Fraction(0)
        for ox in range(ell):
            for oy in range(ell):
                # marker anchored at (ox + u*ell, oy + v*ell); collect the
                # constraint each block must satisfy
                blocks = {}
                for x, y, tid in cells:
                    u, bx = divmod(x - ox, ell)
                    v, by = divmod(y - oy, ell)
                    blocks.setdefault((u, v), []).append((bx, by, tid))
                prob = Fraction(1)
                for constraints in blocks.values():
                    p_block = Fraction(0)
                    for w, pat in zip(self.weights, self.markers.patterns):
                        if all(pat.id_at(bx, by) == tid for bx, by, tid in constraints):
                            p_block += w
                    prob *= p_block
                    if prob == 0:
                        break
                total += prob
        return total / (ell * ell)

    def entropy_per_site(self) -> float:
        h = 0.0
        for w in self.weights:
            if w > 0:
                h -= float(w) * math.log2(float(w))
        return h / (self.ell ** 2)
