"""Marker sets and their non-overlap verification.

A marker set is a family of same-shape rectangular patterns.  Two axioms make
a family usable as a grounding device: no two patterns may agree on a proper
overlap (so occurrences cannot chain into ambiguity), and every admissible
window of side m must contain an occurrence (so markers appear everywhere).
Non-overlap is decided exactly by a shift scan over every pattern pair.
Covering is not searched: `MarkerSet.m` gives the window side, which
`verify-markers` reports, and `gibbs.torus_coverage` measures how much of a
sampled torus the markers cover.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .robinson import ORIENTATIONS, build_macro_tile
from .tiles import InputError, Patch, PatternIndex, pattern_tables


class MarkerSet:
    """Same-shape rectangular patterns with a margin factor tau.

    `codes` stacks the patterns as one read-only (P, h, w) array over the
    shared `legend` of tile ids, so shifted comparisons are array equality."""

    def __init__(self, patterns: Iterable[Patch], tau: Fraction = Fraction(0)):
        self.patterns = tuple(patterns)
        if not self.patterns:
            raise InputError("marker set needs at least one pattern")
        shape = self.patterns[0].grid.shape
        if 0 in shape:
            raise InputError("marker patterns need at least one cell")
        for p in self.patterns:
            if p.grid.shape != shape:
                raise InputError("marker patterns must share one shape")
            if not p.filled():
                raise InputError("marker patterns must be total (no holes)")
        self.height, self.width = shape
        self.tau = Fraction(tau)
        if self.tau < 0:
            raise InputError("marker margin factor tau must be >= 0")
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

    @classmethod
    def from_json(cls, text: str) -> "MarkerSet":
        try:
            doc = json.loads(text)
            tau = Fraction(doc["tau"][0], doc["tau"][1])
            patterns = [Patch.from_ids(p["rows"]) for p in doc["patterns"]]
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
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
