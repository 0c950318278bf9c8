"""Span tracer that wraps groundlab's public functions from outside the package.

Each wrapped call records one span: name, start, end, parent span and run id
(the benchmark job it belongs to).  Spans live in flat arrays while the
workload runs and are written out once at the end.  Nothing inside `src/` is
edited: a target is patched in every groundlab module that bound it by name,
and in every function default that holds it (`greedy_net` binds
`weak_star_distance` as its `metric` default).

A target that no longer exists, or a return-value counter whose field is
gone, is reported as missing rather than raising or reading zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


# Counter hooks: hook(tracer, result, arguments), where arguments() binds the
# call's arguments by name; binding costs more than most wrapped calls.

def _count_metropolis(tracer, result, arguments):
    tracer.counters["gibbs.metropolis.proposals"] += result.steps
    tracer.counters["gibbs.metropolis.accepted"] += result.accepted


def _count_boltzmann(tracer, result, arguments):
    tracer.counters["gibbs.boltzmann_exact.configs"] += len(result.probabilities)


def _count_run(tracer, result, arguments):
    tracer.counters["machines.run.steps"] += result.steps


def _count_word_measure(tracer, result, arguments):
    args = arguments()
    m = args["machine"]
    key = (m.states, m.initial, tuple(sorted(m.finals)),
           tuple(sorted(m.delta.items())),
           args["k"], args.get("depth"), args.get("budget"))
    tracer.distinct["machines.word_measure.distinct_args"].add(key)


def _count_svg(tracer, result, arguments):
    tracer.counters["render.svg_bytes"] += len(result.encode())


@dataclass(frozen=True)
class Target:
    module: str                  # groundlab submodule, e.g. "gibbs"
    qualname: str                # "metropolis" or "TorusConfig.__init__"
    hook: Optional[Callable] = None
    counts: Tuple[str, ...] = ()  # counters the hook fills

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


TARGETS = (
    Target("cli", "main"),
    Target("gibbs", "metropolis", _count_metropolis,
           ("gibbs.metropolis.proposals", "gibbs.metropolis.accepted")),
    Target("gibbs", "TorusConfig.__init__"),
    Target("gibbs", "TorusConfig.recompute_energy"),
    Target("gibbs", "torus_coverage"),
    Target("gibbs", "boltzmann_exact", _count_boltzmann,
           ("gibbs.boltzmann_exact.configs",)),
    Target("gibbs", "adjacency_potential"),
    Target("robinson", "build_tileset"),
    Target("robinson", "build_macro_tile"),
    Target("markers", "robinson_marker_set"),
    Target("markers", "verify_nonoverlap"),
    Target("machines", "word_measure", _count_word_measure,
           ("machines.word_measure.distinct_args",)),
    Target("machines", "run", _count_run, ("machines.run.steps",)),
    Target("measures", "conditional_grid_measure"),
    Target("measures", "mix"),
    Target("measures", "weak_star_distance"),
    Target("measures", "greedy_net"),
    Target("perturbation", "perturbed_flow"),
    Target("sequences", "finite_accumulation"),
    Target("layers", "freq_table_float"),
    Target("layers", "freq_bounds_scan"),
    Target("thermo", "thermo_table"),
    Target("thermo", "entropy_criterion"),
    Target("render", "render_patch_svg", _count_svg, ("render.svg_bytes",)),
)


def _groundlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "groundlab"
                                  or name.startswith("groundlab."))]


def _functions_in(module):
    """Functions and class-level functions defined in a module, unwrapped."""
    for value in vars(module).values():
        if isinstance(value, types.FunctionType):
            yield inspect.unwrap(value)
        elif (isinstance(value, type)
              and getattr(value, "__module__", None) == module.__name__):
            for attr in vars(value).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                if isinstance(attr, types.FunctionType):
                    yield attr


class Tracer:
    """Wraps TARGETS, records spans in memory, derives per-layer numbers."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names: List[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name_id = array("q")
        self.run = array("q")
        self.run_id = 0
        self._stack: List[int] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.distinct: Dict[str, set] = defaultdict(set)
        self.missing: Dict[str, str] = {}   # span or counter name -> reason
        self._undo: List[Callable[[], None]] = []

    # ---------------------------------------------------------- patching ---

    def install(self) -> "Tracer":
        for target in self.targets:
            try:
                self._install(target)
            except (ImportError, AttributeError) as exc:
                self.missing[target.name] = f"{type(exc).__name__}: {exc}"
                for count in target.counts:
                    self.missing[count] = f"target {target.name} missing"
        return self

    def _install(self, target: Target):
        module = importlib.import_module(f"groundlab.{target.module}")
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            if attr not in vars(owner):
                raise AttributeError(f"{owner_name} defines no {attr}")
            original = vars(owner)[attr]
            wrapper = self._wrap(target, original)
            self._setattr(owner, attr, wrapper)
            return
        original = getattr(module, attr)
        wrapper = self._wrap(target, original)
        for mod in _groundlab_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._setattr(mod, key, wrapper)
            for fn in _functions_in(mod):
                self._rebind_defaults(fn, original, wrapper)

    def _setattr(self, owner, attr, value):
        old = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _rebind_defaults(self, fn, original, wrapper):
        if fn.__defaults__ and any(d is original for d in fn.__defaults__):
            old = fn.__defaults__
            fn.__defaults__ = tuple(wrapper if d is original else d for d in old)
            self._undo.append(lambda: setattr(fn, "__defaults__", old))
        kw = fn.__kwdefaults__
        if kw and any(d is original for d in kw.values()):
            old_kw = dict(kw)
            fn.__kwdefaults__ = {k: wrapper if d is original else d
                                 for k, d in kw.items()}
            self._undo.append(lambda: setattr(fn, "__kwdefaults__", old_kw))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _wrap(self, target: Target, fn):
        nid = len(self.names)
        self.names.append(target.name)
        hook = target.hook
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.name_id.append(nid)
            tracer.run.append(tracer.run_id)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if hook is not None:
                tracer._apply(target, hook, signature, args, kwargs, result)
            return result

        return wrapper

    def _apply(self, target, hook, signature, args, kwargs, result):
        def arguments():
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        try:
            hook(self, result, arguments)
        except (AttributeError, KeyError, TypeError) as exc:
            # the counted field was renamed or removed: say so, keep running
            for count in target.counts:
                self.missing[count] = f"{type(exc).__name__}: {exc}"

    # ----------------------------------------------------------- results ---

    def span_stats(self) -> Dict[str, Dict[str, float]]:
        """calls, busy_s (outermost spans) and self_s per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "busy_ns": 0, "self_ns": 0}
                 for name in self.names}
        for i in range(n):
            nid = self.name_id[i]
            s = stats[self.names[nid]]
            s["calls"] += 1
            s["self_ns"] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                s["busy_ns"] += dur[i]
        return {name: {"calls": s["calls"], "busy_s": s["busy_ns"] / 1e9,
                       "self_s": s["self_ns"] / 1e9}
                for name, s in stats.items()}

    def counts(self) -> Dict[str, int]:
        out = dict(self.counters)
        for key, values in self.distinct.items():
            out[key] = len(values)
        for target in self.targets:
            for count in target.counts:
                out.setdefault(count, 0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\trun\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]}"
                         f"\t{self.end[i]}\t{self.parent[i]}\t{self.run[i]}\n")


# Per-layer metrics: (name, unit, workload it is read on, source).  Sources:
# busy:/self:/calls:<span>, count:<counter>, ratio:<counter>/<counter>,
# us_per_step:<span>/<counter>, and ext:<key> for numbers the benchmark
# measures around the calls rather than through a span.
PER_LAYER = (
    ("gibbs.metropolis.self_s", "s", "gibbs-local", "self:gibbs.metropolis"),
    ("gibbs.metropolis.proposals", "count", "gibbs-local",
     "count:gibbs.metropolis.proposals"),
    ("gibbs.metropolis.accepted", "count", "gibbs-local",
     "count:gibbs.metropolis.accepted"),
    ("gibbs.accept_ratio", "ratio", "gibbs-local",
     "ratio:gibbs.metropolis.accepted/gibbs.metropolis.proposals"),
    ("gibbs.TorusConfig.init_s", "s", "gibbs-local",
     "busy:gibbs.TorusConfig.__init__"),
    ("robinson.build_tileset.busy_s", "s", "gibbs-local",
     "busy:robinson.build_tileset"),
    ("gibbs.adjacency_potential.busy_s", "s", "gibbs-local",
     "busy:gibbs.adjacency_potential"),
    ("gibbs.TorusConfig.recompute_energy.calls", "count", "gibbs-scan",
     "calls:gibbs.TorusConfig.recompute_energy"),
    ("gibbs.TorusConfig.recompute_energy.busy_s", "s", "gibbs-scan",
     "busy:gibbs.TorusConfig.recompute_energy"),
    ("gibbs.torus_coverage.calls", "count", "gibbs-scan",
     "calls:gibbs.torus_coverage"),
    ("gibbs.torus_coverage.busy_s", "s", "gibbs-scan",
     "busy:gibbs.torus_coverage"),
    ("gibbs.boltzmann_exact.self_s", "s", "gibbs-scan",
     "self:gibbs.boltzmann_exact"),
    ("gibbs.boltzmann_exact.configs", "count", "gibbs-scan",
     "count:gibbs.boltzmann_exact.configs"),
    ("markers.robinson_marker_set.busy_s", "s", "gibbs-scan",
     "busy:markers.robinson_marker_set"),
    ("machines.word_measure.calls", "count", "flow",
     "calls:machines.word_measure"),
    ("machines.word_measure.distinct_args", "count", "flow",
     "count:machines.word_measure.distinct_args"),
    ("machines.word_measure.busy_s", "s", "flow", "busy:machines.word_measure"),
    ("machines.run.calls", "count", "flow", "calls:machines.run"),
    ("machines.run.steps", "count", "flow", "count:machines.run.steps"),
    ("machines.run.busy_s", "s", "flow", "busy:machines.run"),
    ("machines.run.us_per_step", "us", "flow",
     "us_per_step:machines.run/machines.run.steps"),
    ("measures.conditional_grid_measure.calls", "count", "flow",
     "calls:measures.conditional_grid_measure"),
    ("measures.conditional_grid_measure.self_s", "s", "flow",
     "self:measures.conditional_grid_measure"),
    ("measures.mix.calls", "count", "flow", "calls:measures.mix"),
    ("measures.mix.busy_s", "s", "flow", "busy:measures.mix"),
    ("perturbation.perturbed_flow.self_s", "s", "flow",
     "self:perturbation.perturbed_flow"),
    ("measures.weak_star_distance.calls", "count", "flow",
     "calls:measures.weak_star_distance"),
    ("measures.weak_star_distance.busy_s", "s", "flow",
     "busy:measures.weak_star_distance"),
    ("measures.greedy_net.busy_s", "s", "tables", "busy:measures.greedy_net"),
    ("sequences.finite_accumulation.busy_s", "s", "tables",
     "busy:sequences.finite_accumulation"),
    ("layers.freq_table_float.busy_s", "s", "tables",
     "busy:layers.freq_table_float"),
    ("layers.freq_bounds_scan.busy_s", "s", "tables",
     "busy:layers.freq_bounds_scan"),
    ("thermo.thermo_table.busy_s", "s", "tables", "busy:thermo.thermo_table"),
    ("thermo.entropy_criterion.calls", "count", "tables",
     "calls:thermo.entropy_criterion"),
    ("thermo.entropy_criterion.busy_s", "s", "tables",
     "busy:thermo.entropy_criterion"),
    ("render.render_patch_svg.busy_s", "s", "tables",
     "busy:render.render_patch_svg"),
    ("render.svg_bytes", "bytes", "tables", "count:render.svg_bytes"),
    ("robinson.build_macro_tile.busy_s", "s", "tables",
     "busy:robinson.build_macro_tile"),
    ("markers.verify_nonoverlap.busy_s", "s", "tables",
     "busy:markers.verify_nonoverlap"),
    ("cli.main.self_s", "s", "all", "self:cli.main"),
    ("cli.artifact_bytes", "bytes", "all", "ext:artifact_bytes"),
    ("trace.overhead_s", "s", "all", "ext:overhead_s"),
)


def layer_values(tracer: Tracer,
                 external: Dict[str, float]) -> Dict[str, Optional[float]]:
    """Every per-layer metric; None marks a missing span or counter."""
    stats = tracer.span_stats()
    counts = tracer.counts()

    def span(name, field):
        return None if name in tracer.missing else stats[name][field]

    def count(name):
        return None if name in tracer.missing else counts[name]

    out: Dict[str, Optional[float]] = {}
    for metric, _, _, source in PER_LAYER:
        kind, _, arg = source.partition(":")
        if kind in ("busy", "self"):
            value = span(arg, f"{kind}_s")
        elif kind == "calls":
            value = span(arg, "calls")
        elif kind == "count":
            value = count(arg)
        elif kind in ("ratio", "us_per_step"):
            top, bottom = arg.split("/")
            num = span(top, "busy_s") if kind == "us_per_step" else count(top)
            den = count(bottom)
            scale = 1e6 if kind == "us_per_step" else 1
            value = (None if num is None or den is None
                     else scale * num / den if den else 0.0)
        else:
            value = external.get(arg)
        out[metric] = value
    return out
