"""Layered blocking bookkeeping: schedules, phase decomposition, frozen mass.

Blocking happens only at scales of the form 3^k.  At each such scale a
hierarchical marker either hosts a blocked computation (phase B, one chance in
t_k) or passes through (phase H).  Inside a B marker a quarter of the area is
frozen for good and three quarters keep recursing.  Iterating this gives the
frozen-fraction recursion 1 - f_{k+1} = (1 - 1/(4 t_k)) (1 - f_k), whose exact
and float evaluations both live here, together with the map sending a chain of
frozen direction bits to a word.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

from .measures import ALPHABET, WordMeasure, word_index
from .tiles import InputError

FROZEN_SHARE = Fraction(1, 4)     # of a B marker, frozen immediately
RECURSE_SHARE = Fraction(3, 4)    # of a B marker, kept for deeper scales


def blockable(n: int) -> tuple:
    """(True, k) when n == 3^k, else (False, None)."""
    if n < 1:
        raise InputError("scale must be positive")
    k = 0
    m = n
    while m % 3 == 0:
        m //= 3
        k += 1
    return (True, k) if m == 1 else (False, None)


class OdometerSchedule:
    """Per-scale inverse blocking rates t_k >= 2."""

    def __init__(self, t: Callable[[int], int], name: str = "custom"):
        self._t = t
        self.name = name

    def t(self, k: int) -> int:
        v = self._t(k)
        if not isinstance(v, int) or v < 2:
            raise InputError(f"schedule value t({k}) = {v!r} must be an int >= 2")
        return v


_DEFAULT = OdometerSchedule(lambda k: max(2, (k + 1).bit_length()), name="default")


def default_schedule() -> OdometerSchedule:
    """t_k = max(2, ceil(log2(k + 2))): slowly growing, always >= 2.

    Always the same instance, so that the kernels below can recognise it and
    walk its runs without evaluating t."""
    return _DEFAULT


def constant_schedule(c: int) -> OdometerSchedule:
    if c < 2:
        raise InputError("constant schedule needs c >= 2")
    return OdometerSchedule(lambda k: c, name=f"const{c}")


@dataclass(frozen=True)
class PhasedMarker:
    """A hierarchical marker with its blocking phase at one scale."""
    k: int
    phase: str                      # 'H' passthrough, 'B' blocked, 'F' frozen
    frozen_bits: tuple = ()         # ((scale, 'u'|'d'), ...) sorted by scale
    seed: Optional[tuple] = None    # (x, y) seed words, only for phase 'B'

    def __post_init__(self):
        if self.phase not in ("H", "B", "F"):
            raise InputError(f"unknown phase {self.phase!r}")
        seen = set()
        for scale, bit in self.frozen_bits:
            if bit not in ALPHABET:
                raise InputError(f"frozen bit {bit!r} not in {ALPHABET}")
            if scale in seen:
                raise InputError(f"two frozen bits at scale {scale}")
            seen.add(scale)
        if self.phase == "B":
            if self.seed is None:
                raise InputError("blocked marker needs a seed")
            x, y = self.seed
            if len(x) != self.k or any(c not in "01" for c in x):
                raise InputError("seed x must be a k-bit word")
            if y.lstrip("1").strip("#") != "":
                raise InputError("seed y must be of the form 1^i #^j")
            if len(y) > self.k:
                raise InputError("seed y longer than k")
        elif self.seed is not None:
            raise InputError("only blocked markers carry seeds")


def decompose(marker: PhasedMarker, schedule: OdometerSchedule) -> dict:
    """Children of an H marker one scale up: B with rate 1/t_k, H with the rest."""
    if marker.phase != "H":
        raise InputError("only passthrough markers decompose")
    k = marker.k
    if k < 0:
        raise InputError("negative scale")
    t = schedule.t(k)
    return {"B": Fraction(1, t), "H": Fraction(t - 1, t)}


def freq_rows(kmax: int, schedule: OdometerSchedule,
              freq0: Fraction = Fraction(0)) -> Iterator[Fraction]:
    """Exact frozen fractions f_0 = freq0, f_1, ..., f_kmax of the recursion
    1 - f_{j+1} = (1 - 1/(4 t_j)) (1 - f_j)."""
    f = Fraction(freq0)
    yield f
    for j in range(kmax):
        f = f + (1 - f) * Fraction(1, 4 * schedule.t(j))
        yield f


def freq_frozen(k: int, schedule: OdometerSchedule,
                freq0: Fraction = Fraction(0)) -> Fraction:
    """Exact frozen fraction after blocking scales 0..k-1."""
    for f in freq_rows(k, schedule, freq0):
        pass
    return f


def schedule_runs(kmax: int, schedule: Optional[OdometerSchedule] = None
                  ) -> Iterator[tuple]:
    """Runs (t, start, stop) of constant t_j covering j = 0..kmax-1 in order.

    The default schedule (None or `default_schedule()`) is walked by its
    bit-length blocks; any other schedule is evaluated at every j.
    """
    if schedule is None or schedule is _DEFAULT:
        j = 0
        while j < kmax:
            b = (j + 1).bit_length()
            stop = min(kmax, 2 ** b - 1)  # j+1 < 2^b  <=>  j <= 2^b - 2
            yield max(2, b), j, stop
            j = stop
        return
    start, t = 0, None
    for j in range(kmax):
        v = schedule.t(j)
        if v != t:
            if j:
                yield t, start, j
            start, t = j, v
    if kmax:
        yield t, start, kmax


def freq_table_float(kmax: int, schedule: Optional[OdometerSchedule] = None) -> np.ndarray:
    """freq_frozen(k) for k = 0..kmax as float64, one cumulative log sum."""
    runs = list(schedule_runs(kmax, schedule))
    t = np.repeat(np.array([t for t, _, _ in runs], dtype=np.float64),
                  [stop - start for _, start, stop in runs])
    out = np.empty(kmax + 1, dtype=np.float64)
    out[0] = 0.0
    if kmax:
        log_keep = np.log1p(-0.25 / t)
        out[1:] = 1.0 - np.exp(np.cumsum(log_keep))
    return out


def freq_crossing(threshold: Fraction, schedule: OdometerSchedule,
                  kmax: int = 100_000) -> Optional[int]:
    """Smallest k <= kmax with freq_frozen(k) >= threshold, by exact iteration."""
    return next((k for k, f in enumerate(freq_rows(kmax, schedule)) if f >= threshold),
                None)


@dataclass
class FreqScan:
    """Rigorous enclosure of the frozen fraction over a whole range of k."""
    kmax: int
    monotone: bool           # lower bounds never decrease (exact integer check)
    bounded: bool            # upper bounds never exceed 1
    final_lo: Fraction
    final_hi: Fraction
    checkpoints: dict        # k -> (freq lower bound, freq upper bound)


def freq_bounds_scan(kmax: int, schedule: Optional[OdometerSchedule] = None,
                     scale_bits: int = 96, checkpoints=()) -> FreqScan:
    """Directed-rounding interval scan of freq_frozen for k = 0..kmax.

    The residual 1 - freq is tracked as an integer interval [lo, hi] / 2^B
    with floor/ceil rounding, so monotonicity and boundedness are exact
    integer comparisons at every step, at any kmax, with no float involved.
    A step is a function of (lo, hi) and d = 4 t alone, so once a step leaves
    (lo, hi) unchanged every later step of the same run of t does too: the
    scan records the checkpoints that run still holds and moves to the next.
    """
    one = 1 << scale_bits
    lo = hi = one
    monotone = True
    bounded = True
    marks = sorted(set(checkpoints))
    cps = set(marks)
    taken = {}

    def record(k):
        taken[k] = (Fraction(one - hi, one), Fraction(one - lo, one))

    if 0 in cps:
        record(0)
    for t, start, stop in schedule_runs(kmax, schedule):
        d = 4 * t
        for j in range(start, stop):
            new_lo = lo * (d - 1) // d
            new_hi = -((-hi * (d - 1)) // d)
            if new_hi > hi:
                monotone = False
            if new_lo < 0:
                bounded = False
            if new_lo == lo and new_hi == hi:
                for k in marks[bisect_right(marks, j):bisect_right(marks, stop)]:
                    record(k)
                break
            lo, hi = new_lo, new_hi
            if (j + 1) in cps:
                record(j + 1)
    return FreqScan(kmax, monotone, bounded,
                    Fraction(one - hi, one), Fraction(one - lo, one), taken)


def gamma_word(chain) -> str:
    """Word spelled by the frozen bits of a marker chain; scale j -> letter j.

    The chain's frozen bits must agree wherever scales repeat and must cover
    the scales 1..l for some l with no gaps.
    """
    bits = {}
    for marker in chain:
        for scale, bit in marker.frozen_bits:
            if scale in bits and bits[scale] != bit:
                raise InputError(f"conflicting frozen bits at scale {scale}")
            bits[scale] = bit
    if not bits:
        return ""
    scales = sorted(bits)
    if scales != list(range(1, len(scales) + 1)):
        raise InputError(f"frozen scales {scales} do not form 1..l")
    return "".join(bits[s] for s in scales)


def gamma_pushforward(dist: dict, depth: int) -> WordMeasure:
    """Push a distribution on depth-l frozen-bit assignments to words.

    An assignment is the tuple (b_1, ..., b_l) of per-scale bits; its image is
    the word b_1 ... b_l, so the map is an affine bijection on measures.
    """
    ws = [Fraction(0)] * (2 ** depth)
    total = Fraction(0)
    for bits, p in dist.items():
        if len(bits) != depth:
            raise InputError("assignment depth mismatch")
        word = "".join(bits)
        ws[word_index(word)] += Fraction(p)
        total += Fraction(p)
    if total != 1:
        raise InputError("assignment weights must sum to 1")
    return WordMeasure(depth, ws)


def gamma_pullback(measure: WordMeasure) -> dict:
    """Inverse of gamma_pushforward: word weights back to bit assignments."""
    out = {}
    for word, w in measure.as_dict().items():
        out[tuple(word)] = w
    return out
