"""Selector-rule perturbations of machine-driven measure flows.

A selector rule pins the routing word to 1^i#^* so that one registered word
machine handles every seed above the rule's threshold scale.  Adding the rule
to a base potential with any positive coefficient leaves the admissible set
unchanged, so the predicted flow depends on whether the coefficient is zero,
never on its size.  Reports therefore carry no coefficient at all: two runs
with different positive coefficients serialize byte-identically.

The flows here are the predicted word-measure marginals, mixed across scales
by the same blocking rates the layer construction uses; the lab makes no
claim about the tile-level limit itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

from .layers import default_schedule
from .machines import Machine, routing_index, selector_weights, word_measure
from .measures import (ConditionalGridMeasure, WordMeasure, _check_depth,
                       conditional_rows, mix, weak_star_distance)
from .sequences import AccumulationSet, tail_net
from .tiles import InputError

# the net radius of an accumulation view
ACCUMULATION_RADIUS = Fraction(1, 256)


@dataclass(frozen=True)
class SelectorRule:
    """Local rule forcing the routing word to 1^index #^*: it forbids 0 and #
    in routing cells 0..index-1 and 0 and 1 in cell index, so the diameter
    it spans, index + 1, is what a temperature-window analysis needs.
    """

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise InputError("selector index must be >= 1")

    @property
    def diameter(self) -> int:
        return self.index + 1

    @property
    def threshold(self) -> int:
        """Scales below this admit no seed at all under the rule."""
        return self.index

    def admits(self, x: str, y: str) -> bool:
        return (len(y) == len(x) and routing_index(y) == self.index
                and all(c in "01" for c in x))



def make_selector(i: int, enumeration: Sequence[Machine]) -> SelectorRule:
    """Rule pinning the routing word to the i-th registered machine."""
    if not 1 <= i <= len(enumeration):
        raise InputError(f"selector index {i} outside enumeration of "
                         f"{len(enumeration)}")
    return SelectorRule(i)


# ------------------------------------------------------------ flow report ---

def _scale_memo(depth: int) -> Callable[[Machine, int], WordMeasure]:
    """measure(machine, j): the word measure at scale max(j, depth), each
    (machine, scale) pair evaluated once for the memo's lifetime."""
    _check_depth(depth)
    table = {}

    def measure(machine: Machine, j: int) -> WordMeasure:
        key = (machine, max(j, depth))
        if key not in table:
            table[key] = word_measure(machine, key[1], depth)
        return table[key]

    return measure


def _routed(measure: Callable[[Machine, int], WordMeasure], base: Machine,
            enumeration: Sequence[Machine], j: int) -> WordMeasure:
    machines = (base, *enumeration)
    return mix([(weight, measure(machines[idx], j))
                for idx, weight in selector_weights(j, len(enumeration))])


def mixture_flow(base: Machine, enumeration: Sequence[Machine],
                 depth: int) -> Callable[[int], WordMeasure]:
    """Routing-weighted mixture: default machine except on the 1^i words."""
    return partial(_routed, _scale_memo(depth), base, enumeration)


def selector_flow(target: Machine, depth: int) -> Callable[[int], WordMeasure]:
    """Selector-forced flow: the target machine owns every admissible seed."""
    return partial(_scale_memo(depth), target)


@dataclass
class PerturbationReport:
    mode: str                 # "mixture" or "selector"
    depth: int
    horizon: int
    index: int
    threshold: int            # scales below this are excluded from blocking
    diameter: int
    rows: List[ConditionalGridMeasure]
    dist_to_base: List[Tuple[int, Fraction]]
    dist_to_target: List[Tuple[int, Fraction]]
    base_target: WordMeasure
    target_target: WordMeasure

    def to_json(self) -> str:
        """The report as `json.dumps(doc, indent=1)` writes it, each weight
        an exact [numerator, denominator] pair taken from integer rows."""
        def frac(q):
            return q.numerator, q.denominator

        def fracs(m):                # each m.nums[i] / m.den in lowest terms
            den = m.den
            return [(n // (g := math.gcd(n, den)), den // g) if n else _ZERO
                    for n in m.nums]

        doc = {
            "mode": self.mode,
            "depth": self.depth,
            "horizon": self.horizon,
            "index": self.index,
            "threshold": self.threshold,
            "diameter": self.diameter,
            "rows": [{
                "k": r.k,
                "raw": fracs(r),
                "residual": frac(r.residual),
                "renormalized": fracs(r.renormalized()),
            } for r in self.rows],
            "distances": {
                "to_base": [[k, frac(d)] for k, d in self.dist_to_base],
                "to_target": [[k, frac(d)] for k, d in self.dist_to_target],
            },
            "targets": {
                "base": {w: frac(v)
                         for w, v in sorted(self.base_target.as_dict().items())},
                "target": {w: frac(v) for w, v in
                           sorted(self.target_target.as_dict().items())},
            },
        }
        return _indent1(doc)


# a zero weight's lowest terms, shared so that its text is formatted once
_ZERO = (0, 1)


def _indent1(value, level: int = 0) -> str:
    """`value` as `json.dumps(value, indent=1)` writes it, `level` deep; a
    tuple is written as a list, and a list of (a, b) int pairs through one
    format string, not item by item, `_ZERO` formatted once.  Keys are field
    names and words over u and d, which need no escapes."""
    if type(value) is int:
        return str(value)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = "\n" + " " * (level + 1)
    if isinstance(value, dict):
        items = [f'"{k}": {_indent1(v, level + 1)}' for k, v in value.items()]
    elif isinstance(value[0], tuple):
        pair = f"[{inner} %d,{inner} %d{inner}]"
        zero = pair % _ZERO
        items = [zero if p is _ZERO else pair % p for p in value]
    else:
        items = [_indent1(v, level + 1) for v in value]
    start, end = "{}" if isinstance(value, dict) else "[]"
    return start + inner + ("," + inner).join(items) + "\n" + " " * level + end


def perturbed_flow(base_machine: Machine, target_machine: Machine,
                   epsilon, depth: int, horizon: int, index: int,
                   enumeration: Sequence[Machine]) -> PerturbationReport:
    """Predicted blocked-word flow with or without the selector rule, mixed
    across scales by the default schedule.

    epsilon == 0 runs the routing mixture (the target machine participates
    only through its enumeration slot, if any); epsilon > 0 forces the
    selector, so the flow is the target's alone and the report is the same
    for every positive epsilon.
    """
    eps = Fraction(epsilon)
    if eps < 0:
        raise InputError("epsilon must be >= 0")
    if depth < 1 or horizon < depth:
        raise InputError("need depth >= 1 and horizon >= depth")
    rule = make_selector(index, enumeration)

    measure = _scale_memo(depth)
    if eps == 0:
        mode = "mixture"
        flow = partial(_routed, measure, base_machine, enumeration)
        j_start = depth
        threshold = 0
    else:
        mode = "selector"
        flow = partial(measure, target_machine)
        j_start = max(depth, rule.threshold)
        threshold = rule.threshold

    base_target = measure(base_machine, horizon)
    target_target = measure(target_machine, horizon)

    rows = list(conditional_rows(flow, depth, default_schedule(), horizon, j_start))
    to_base = []
    to_target = []
    for row in rows:
        mu = row.renormalized()
        to_base.append((row.k, weak_star_distance(mu, base_target)))
        to_target.append((row.k, weak_star_distance(mu, target_target)))
    return PerturbationReport(mode, depth, horizon, index, threshold,
                              rule.diameter, rows, to_base, to_target,
                              base_target, target_target)


# ------------------------------------------------------ accumulation view ---

def report_accumulation(report: PerturbationReport, window: int) -> AccumulationSet:
    """Accumulation view of a perturbation report's renormalized tail, indexed
    by blocking scale."""
    if window < 0:
        raise InputError("need window >= 0")
    rows = {r.k: r for r in report.rows}
    if not rows:
        raise InputError("report has no renormalizable rows")
    scales = list(rows)[-1 - min(window, len(rows) - 1):]
    return tail_net(lambda k: rows[k].renormalized(), scales, ACCUMULATION_RADIUS)
