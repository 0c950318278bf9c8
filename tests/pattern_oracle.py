"""The straight-line pattern matches that groundlab's occurrence keys and
array comparisons replace.

Each function below is the loop one library call site ran before its pattern
matches were vectorised, kept verbatim apart from taking its inputs as
arguments.  They share nothing with the library: every pattern is compared
cell by cell at every anchor, so they serve as the reference in the
differential tests.
"""

import math
from fractions import Fraction

import numpy as np

import tiles_oracle


class _CompiledPattern:
    __slots__ = ("grid", "weight", "support", "cells", "matchable")

    def __init__(self, rows, weight, index):
        h, w = len(rows), len(rows[0])
        self.grid = np.empty((h, w), dtype=np.int64)
        self.matchable = True
        for j in range(h):
            for i in range(w):
                code = index.get(rows[j][i])
                if code is None:
                    self.matchable = False
                    code = -1
                self.grid[j, i] = code
        self.weight = weight
        self.support = h * w
        self.cells = [(j, i, int(self.grid[j, i]))
                      for j in range(h) for i in range(w)]


def weighted_tables(patterns, weights) -> dict:
    """A weighted pattern list grouped by shape: (dy, dx, code) cell lists
    keyed by their sorted offsets, the weights of equal code tuples summed,
    zero sums dropped and None-code patterns left out; a 1-cell shape is
    keyed by its one code."""
    shapes = {}
    for n, cells in enumerate(patterns):
        if any(code is None for _, _, code in cells):
            continue
        offsets, key = zip(*(((dy, dx), code) for dy, dx, code in sorted(cells)))
        if len(key) == 1:
            key = key[0]
        table = shapes.setdefault(offsets, {})
        table[key] = table[key] + weights[n] if key in table else weights[n]
    return {offsets: {k: v for k, v in table.items() if v}
            for offsets, table in shapes.items()}


def denominator(pairs) -> int:
    """The lcm of the weight denominators of a (rows, weight) list, as given:
    duplicates, zero weights and unknown ids included; 1 for no pattern."""
    d = 1
    for _, w in pairs:
        d = math.lcm(d, Fraction(w).denominator)
    return d


def potential_tables(pairs, tileset) -> dict:
    """The former `TorusConfig` compile of a (rows, weight) list: each pattern
    as a cell list worth weight * support in units of 1/`denominator(pairs)`,
    grouped by `weighted_tables`."""
    d = denominator(pairs)
    patterns = [[(j, i, tileset.index.get(tid)) for j, row in enumerate(rows)
                 for i, tid in enumerate(row)] for rows, _ in pairs]
    return weighted_tables(patterns, [
        Fraction(w) * d * len(pattern) for (_, w), pattern in zip(pairs, patterns)])


def adjacency_pairs(tileset) -> list:
    """The former `adjacency_potential` loop: one forbidden domino of weight
    1 per incompatible pair, (a, b) in a row, or a below b."""
    pairs = []
    for i, a in enumerate(tileset.tiles):
        for j, b in enumerate(tileset.tiles):
            if not tileset.h_compat[i, j]:
                pairs.append((((a.id, b.id),), 1))
            if not tileset.v_compat[i, j]:
                pairs.append((((a.id,), (b.id,)), 1))
    return pairs


def keyed(potential) -> dict:
    """A potential keyed by tile ids, {(h, w): {id tuple: units}}, read from
    its legend and code rows."""
    ids = potential.ids
    return {shape: dict(zip((tuple(ids[c] for c in row) for row in codes.tolist()), units))
            for shape, (codes, units) in potential.rows.items()}


def compile_patterns(pairs, tileset) -> list:
    """The former `gibbs._compile` of a (rows, weight) list: the input of the
    two torus energy loops."""
    index = {t.id: i for i, t in enumerate(tileset.tiles)}
    return [_CompiledPattern(rows, Fraction(w), index) for rows, w in pairs]


def recompute_energy(compiled, cells) -> Fraction:
    """Full from-scratch torus energy (numpy roll per pattern cell)."""
    return torus_energies(compiled, np.asarray(cells)[None])[0]


def torus_energies(compiled, stack) -> list:
    """`recompute_energy` of each torus in a (B, side, side) stack by the same
    roll and compare, the energy formed once per distinct row of counts."""
    stack = np.asarray(stack)
    live = [pat for pat in compiled if pat.matchable and pat.weight != 0]
    counts = np.zeros((len(stack), len(live)), dtype=np.int64)
    for n, pat in enumerate(live):
        match = np.ones(stack.shape, dtype=bool)
        for j, i, code in pat.cells:
            match &= np.roll(stack, (-j, -i), (1, 2)) == code
        counts[:, n] = match.sum(axis=(1, 2))
    energy = {}
    for row in map(tuple, counts.tolist()):
        if row not in energy:
            energy[row] = sum((pat.weight * pat.support * c for pat, c in zip(live, row)),
                              Fraction(0))
    return [energy[row] for row in map(tuple, counts.tolist())]


def occurrences_at(compiled, cells, x: int, y: int) -> Fraction:
    """Energy carried by occurrences whose support covers torus cell (x, y)."""
    s = len(cells)
    total = Fraction(0)
    for pat in compiled:
        if not pat.matchable or pat.weight == 0:
            continue
        hits = 0
        for j0, i0, _ in pat.cells:
            ay, ax = (y - j0) % s, (x - i0) % s
            ok = True
            for j, i, code in pat.cells:
                if cells[(ay + j) % s, (ax + i) % s] != code:
                    ok = False
                    break
            if ok:
                hits += 1
        if hits:
            total += pat.weight * pat.support * hits
    return total


def torus_coverage(tileset, cells, markers) -> Fraction:
    """Fraction of torus cells inside some marker occurrence (wrap-aware)."""
    index = {t.id: i for i, t in enumerate(tileset.tiles)}
    cells = np.asarray(cells)
    s = cells.shape[0]
    covered = np.zeros((s, s), dtype=bool)
    for p in markers.patterns:
        match = np.ones((s, s), dtype=bool)
        ok = True
        for x, y, tid in tiles_oracle.cells(p):
            code = index.get(tid)
            if code is None:
                ok = False
                break
            match &= np.roll(cells, (-y, -x), (0, 1)) == code
        if not ok or not match.any():
            continue
        for x, y, _ in tiles_oracle.cells(p):
            covered |= np.roll(match, (y, x), (0, 1))
    return Fraction(int(covered.sum()), s * s)


def occurrence_map(config, markers) -> np.ndarray:
    """Boolean cell map: cells lying inside at least one marker occurrence."""
    covered = np.zeros((config.height, config.width), dtype=bool)
    w, h = markers.width, markers.height
    for ay in range(config.height - h + 1):
        for ax in range(config.width - w + 1):
            for p in markers.patterns:
                ok = True
                for yy in range(h):
                    for xx in range(w):
                        if config.id_at(ax + xx, ay + yy) != p.id_at(xx, yy):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    covered[ay:ay + h, ax:ax + w] = True
                    break
    return covered


def _bounds(pat) -> tuple:
    """The former `ForbiddenPattern.bounds`."""
    xs = [c[0] for c in pat.cells]
    ys = [c[1] for c in pat.cells]
    return (min(xs), min(ys), max(xs), max(ys))


def forbidden_violations(tileset, patch) -> list:
    """(anchor, pattern index) of every extra-forbidden occurrence in a patch,
    in the order `check_patch` appended them."""
    out = []
    for pi, pat in enumerate(tileset.extra_forbidden):
        x0, y0, x1, y1 = _bounds(pat)
        for ay in range(-y0, patch.height - y1):
            for ax in range(-x0, patch.width - x1):
                if all(patch.id_at(ax + dx, ay + dy) == tid for dx, dy, tid in pat.cells):
                    out.append(((ax, ay), pi))
    return out


def edge_violations(tileset, patch) -> list:
    """(kind, (x, y), detail) of every edge-rule violation in a patch: the
    former `check_patch` id mapping and its two loops, horizontal pairs
    first, each in row-major order."""
    g = patch.grid
    filled = g != -1
    tile_of = np.full(max(len(patch.legend), 1), -1, dtype=np.int64)
    for i in np.flatnonzero(np.bincount(g[filled], minlength=len(tile_of))):
        tile_of[i] = tileset.index[patch.legend[i]]
    idx = np.where(filled, tile_of[np.where(filled, g, 0)], -1)
    out = []
    if patch.width > 1:
        a, b = idx[:, :-1], idx[:, 1:]
        both = (a >= 0) & (b >= 0)
        bad = both & ~tileset.h_compat[np.where(both, a, 0), np.where(both, b, 0)]
        for y, x in np.argwhere(bad):
            out.append(("h", (int(x), int(y)),
                        f"{patch.id_at(x, y)} | {patch.id_at(x + 1, y)}"))
    if patch.height > 1:
        a, b = idx[:-1, :], idx[1:, :]
        both = (a >= 0) & (b >= 0)
        bad = both & ~tileset.v_compat[np.where(both, a, 0), np.where(both, b, 0)]
        for y, x in np.argwhere(bad):
            out.append(("v", (int(x), int(y)),
                        f"{patch.id_at(x, y)} / {patch.id_at(x, y + 1)}"))
    return out
