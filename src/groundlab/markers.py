"""Marker sets and their non-overlap verification.

A marker set is a family of same-shape rectangular patterns.  Two axioms make
a family usable as a grounding device: no two patterns may agree on a proper
overlap (so occurrences cannot chain into ambiguity), and every admissible
window of side m must contain an occurrence (so markers appear everywhere).
Non-overlap is decided exactly: every overlap of every pattern pair is hashed
from 2-D prefix sums (Karp-Rabin), and array equality confirms each hash hit,
so a collision costs one compare and never changes the verdict.
Covering is not searched: `MarkerSet.m` gives the window side, which
`verify-markers` reports, and `gibbs.torus_coverage` measures how much of a
sampled torus the markers cover through `MarkerSet.covered`, which gathers
the grid at every anchor's cells and compares the result with all the
patterns in one array equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable

import numpy as np

from .robinson import ORIENTATIONS, build_macro_tile
from .tiles import HOLE, InputError, Patch, _json_field, _json_fraction, _read_json, anchor_cells


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
        # (grid shape, wrap) -> each anchor's flat cell indices, for `covered`
        self._anchors = {}

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

    def covered(self, grid: np.ndarray, code, wrap: bool = False) -> np.ndarray:
        """Boolean map of the cells of `grid` inside at least one occurrence,
        the patterns read in the codes that `code` (a tile id -> code
        mapping) assigns.  An id the mapping lacks reads HOLE - 1, a code no
        grid cell holds, so a HOLE never matches.  With `wrap` the grid is a
        torus; without it an anchor counts only where the whole pattern lies
        inside the grid."""
        lut = np.array([code.get(tid, HOLE - 1) for tid in self.legend])
        want = lut[self.codes].reshape(len(self), -1)
        key = grid.shape, wrap
        if key not in self._anchors:
            offsets = list(product(range(self.height), range(self.width)))
            self._anchors[key] = anchor_cells(offsets, grid.shape, wrap)[2]
            self._anchors[key].setflags(write=False)
        at = self._anchors[key]
        hit = (grid.ravel()[at][:, None] == want).all(axis=2).any(axis=1)
        mask = np.zeros(grid.size, dtype=bool)
        mask[at[hit]] = True
        return mask.reshape(grid.shape)

    @classmethod
    def from_json(cls, text: str) -> "MarkerSet":
        tau, patterns = _read_json("marker", text, lambda doc: (
            _json_fraction(doc, "tau"),
            [Patch.from_ids(_json_field(p, "rows", list, of=list))
             for p in _json_field(doc, "patterns", list)]))
        return cls(patterns, tau)


def robinson_marker_set(n: int) -> MarkerSet:
    """The four order-n macro-tiles as markers; margin factor 6/ell."""
    ell = 2 ** n - 1
    return MarkerSet([build_macro_tile(n, q) for q in ORIENTATIONS],
                     tau=Fraction(6, ell))


# Overlap hashes: a block's hash is the sum of (code + 1) * r^x * s^y over its
# cells, x and y counted from the block's corner, modulo a prime below 2^31.
_PRIME = 2 ** 31 - 1
_BASES = (48271, 39373)


def _violations(markers: MarkerSet):
    """Yield each (i, j, (dx, dy)) where pattern j shifted by (dx, dy) agrees
    with pattern i on a nonempty proper overlap (i == j with zero shift
    excluded), in (i, j, dy, dx) order.

    Every overlap is hashed from 2-D prefix sums, one numpy pass per row shift
    dy over all column shifts and pattern pairs; equal overlaps hash equal.
    The hash hits are sorted, and `np.array_equal` confirms each one only
    when the caller asks for it, so the hash only filters."""
    codes = markers.codes
    n, h, w = codes.shape
    p = _PRIME
    r, s = (b % p for b in _BASES)
    # Every residue is below p < 2^31.  A prefix sum of one row or column of
    # residues stays below 2^31 * 2^32, and a block's four-corner sum lies in
    # (-2p, 2p), so its product with a residue stays below 2^63: each fits in
    # int64 before its `% p`.
    rpow = np.array([pow(r, x, p) for x in range(w)], dtype=np.int64)
    spow = np.array([pow(s, y, p) for y in range(h)], dtype=np.int64)
    rinv = np.array([pow(r, -x, p) for x in range(w)], dtype=np.int64)
    sinv = [pow(s, -y, p) for y in range(h)]
    prefix = np.zeros((n, h + 1, w + 1), dtype=np.int64)
    cells = prefix[:, 1:, 1:]
    cells[...] = codes
    cells += 1
    cells *= rpow
    cells %= p
    cells *= spow[:, None]
    cells %= p
    np.cumsum(cells, axis=2, out=cells)
    cells %= p
    np.cumsum(cells, axis=1, out=cells)
    cells %= p

    dxs = np.arange(-(w - 1), w)
    ax0, ax1 = np.maximum(0, dxs), np.minimum(w, w + dxs)  # pattern i's columns
    bx0, bx1 = ax0 - dxs, ax1 - dxs                        # pattern j's columns
    ainv, binv = rinv[ax0], rinv[bx0]

    def overlap_hashes(y0, y1, x0, x1, xinv):
        """(n, 2w - 1) hashes of rows y0:y1 and columns x0[k]:x1[k]."""
        band = prefix[:, y1] - prefix[:, y0]
        v = band[:, x1] - band[:, x0]
        v *= xinv * sinv[y0] % p
        v %= p
        return v

    hits = [np.zeros((4, 0), np.intp)]   # (i, j, dy, column shift index) columns
    for dy in range(-(h - 1), h):
        y0, y1 = max(0, dy), min(h, h + dy)
        agree = (overlap_hashes(y0, y1, ax0, ax1, ainv)[:, None]
                 == overlap_hashes(y0 - dy, y1 - dy, bx0, bx1, binv)[None])
        if dy == 0:  # no pattern is compared with itself at zero shift
            agree[range(n), range(n), w - 1] = False
        if agree.any():
            i, j, k = np.nonzero(agree)
            hits.append(np.stack([i, j, np.full_like(i, dy), k]))
    hits = np.concatenate(hits, axis=1)
    # the column shift index runs with dx, so this is (i, j, dy, dx) order
    for i, j, dy, k in map(tuple, hits[:, np.lexsort(hits[::-1])].T):
        y0, y1 = max(0, dy), min(h, h + dy)
        if np.array_equal(codes[i, y0:y1, ax0[k]:ax1[k]],
                          codes[j, y0 - dy:y1 - dy, bx0[k]:bx1[k]]):
            yield int(i), int(j), (int(dxs[k]), int(dy))


def nonoverlap_violations(markers: MarkerSet) -> list:
    """Every violation of the non-overlap axiom, in (i, j, dy, dx) order."""
    return list(_violations(markers))


def verify_nonoverlap(markers: MarkerSet):
    """None when the non-overlap axiom holds, else the first violating triple
    in (i, j, dy, dx) order; no hash hit after it is confirmed."""
    return next(_violations(markers), None)
