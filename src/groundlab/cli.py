"""Command-line surface: reproducible experiment runs with emitted configs.

Every run writes its primary artifact plus a fully resolved key=value config
next to it (<artifact>.config); re-running with --config pointed at that file
reproduces the artifact byte for byte.  Flags override config-file values.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from itertools import chain
from typing import Callable, Iterable, Iterator, List, Optional

import numpy as np

from .gibbs import (Potential, adjacency_potential, metropolis, trace_csv)
from .layers import (constant_schedule, default_schedule, freq_rows,
                     freq_table_float)
from .machines import (NonConformingError, corpus, machine_enumeration,
                       machine_from_json)
from .markers import MarkerSet, robinson_marker_set, verify_nonoverlap
from .measures import conditional_rows, weak_star_distance
from .perturbation import perturbed_flow, selector_flow
from .render import render_patch_svg
from .robinson import build_macro_tile, build_tileset
from .sequences import connectify, finite_accumulation, named_sequence
from .thermo import thermo_csv, thermo_table
from .tiles import BudgetExceeded, EdgeLabel, InputError, Tile, Tileset

FORMAT_VERSION = "1"


class UsageError(Exception):
    pass


# ------------------------------------------------------------- parameters ---

def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text.strip())


class Param:
    def __init__(self, name: str, parse: Callable, default=None,
                 required: bool = False, help: str = ""):
        self.name = name
        self.parse = parse
        self.default = default
        self.required = required
        self.help = help

    def convert(self, raw: str, command: str):
        try:
            return self.parse(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(
                f"{command}: invalid value for {self.name}: {raw!r} ({exc})")


def _serialize(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


COMMANDS: dict = {}


def _command(name, params):
    def wrap(fn):
        COMMANDS[name] = (params, fn)
        return fn
    return wrap


def _read_text(path) -> str:
    """A user-named file's text; bytes that are not UTF-8 are a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{str(path)!r} is not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from None


def _load_config(path: str, command: str, params: List[Param]) -> dict:
    known = {p.name for p in params}
    found = {}
    lines = _read_text(path).splitlines()
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{command}: config line {ln} is not key=value: "
                             f"{line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key == "command":
            if raw != command:
                raise UsageError(f"{command}: config was written for "
                                 f"{raw!r}")
            continue
        if key == "format":
            continue
        if key not in known:
            raise UsageError(f"{command}: unknown config key {key!r}")
        found[key] = raw
    return found


def _resolve(command: str, params: List[Param], cli_values: dict,
             config_values: dict) -> dict:
    resolved = {}
    for p in params:
        raw_cli = cli_values.get(p.name.replace("-", "_"))
        if raw_cli is not None:
            resolved[p.name] = p.convert(raw_cli, command)
        elif p.name in config_values:
            resolved[p.name] = p.convert(config_values[p.name], command)
        elif p.required:
            raise UsageError(f"{command}: missing required option --{p.name}")
        else:
            resolved[p.name] = p.default
    return resolved


def _emit(primary_path: str, chunks: Iterable[bytes], command: str,
          resolved: dict):
    """Write the artifact from its bytes chunks, then its .config sidecar.

    Text artifacts are passed as one chunk of UTF-8, and the sidecar is
    UTF-8 too, which is how `_read_text` reads it back.
    """
    with open(primary_path, "wb") as out:
        out.writelines(chunks)
    lines = [f"command={command}", f"format={FORMAT_VERSION}"]
    for key in sorted(resolved):
        lines.append(f"{key}={_serialize(resolved[key])}")
    Path(primary_path + ".config").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")


# -------------------------------------------------------------- resolvers ---

def _spec_int(field: str, spec: str) -> int:
    """The integer after the colon of a 'kind:N' spec."""
    try:
        return int(spec.partition(":")[2])
    except ValueError:
        raise UsageError(f"invalid value for {field}: {spec!r}") from None


def _resolve_machine(name: str):
    table = corpus()
    if name in table:
        return table[name]
    path = Path(name)
    if path.exists():
        return machine_from_json(_read_text(path), name=path.stem)
    raise UsageError(f"unknown machine {name!r}: not a corpus name "
                     f"({', '.join(sorted(table))}) or a file")


def _resolve_tileset(name: str) -> Tileset:
    if name == "robinson":
        return build_tileset()
    if name.startswith("free:"):
        count = _spec_int("tileset", name)
        if not 1 <= count <= 26:
            raise UsageError("free tilesets support 1..26 tiles")
        lab = EdgeLabel(None, None, None, None, None)
        return Tileset([Tile(chr(65 + i), lab, lab, lab, lab)
                        for i in range(count)])
    path = Path(name)
    if path.exists():
        return Tileset.from_json(_read_text(path))
    raise UsageError(f"unknown tileset {name!r}: use robinson, free:K, "
                     f"or a file")


def _resolve_schedule(name):
    if name == "default":
        return default_schedule()
    if name.startswith("const:"):
        return constant_schedule(_spec_int("schedule", name))
    raise UsageError(f"unknown schedule {name!r}: use default or const:C")


# ------------------------------------------------------------ subcommands ---

@_command("render", [
    Param("scale", int, required=True, help="macro-tile order n"),
    Param("cell", int, default=24, help="pixel size per tile"),
    Param("arrows", _parse_bool, default=True, help="draw arrow ticks"),
    Param("out", str, required=True, help="output SVG path"),
])
def _run_render(cfg):
    patch = build_macro_tile(cfg["scale"])
    svg = render_patch_svg(build_tileset(), patch, cell=cfg["cell"],
                           show_arrows=cfg["arrows"])
    _emit(cfg["out"], [svg.encode()], "render", cfg)
    return 0


@_command("verify-markers", [
    Param("scale", int, default=1, help="macro-tile marker scale"),
    Param("markers", str, default="", help="marker-set JSON file "
          "(overrides scale)"),
    Param("out", str, required=True, help="output JSON path"),
])
def _run_verify_markers(cfg):
    if cfg["markers"]:
        markers = MarkerSet.from_json(_read_text(cfg["markers"]))
    else:
        markers = robinson_marker_set(cfg["scale"])
    bad = verify_nonoverlap(markers)
    doc = {
        "scale": cfg["scale"],
        "patterns": len(markers.patterns),
        "side": markers.ell,
        "window": markers.m,
        "nonoverlap": "ok" if bad is None else "violation",
    }
    if bad is not None:
        doc["violation"] = [int(bad[0]), int(bad[1]),
                            [int(bad[2][0]), int(bad[2][1])]]
    _emit(cfg["out"], [json.dumps(doc, indent=1).encode()], "verify-markers", cfg)
    return 0 if bad is None else 1


@_command("freq", [
    Param("kmax", int, required=True, help="largest blocking scale"),
    Param("schedule", str, default="default", help="default or const:C"),
    Param("mode", str, default="auto", help="auto, exact, or float"),
    Param("csv", str, required=True, help="output CSV path"),
])
def _run_freq(cfg):
    kmax = cfg["kmax"]
    if kmax < 0:
        raise UsageError("freq: kmax must be >= 0")
    mode = cfg["mode"]
    if mode == "auto":
        mode = "exact" if kmax <= 1024 else "float"
    if mode not in ("exact", "float"):
        raise UsageError(f"freq: unknown mode {cfg['mode']!r}")
    schedule = _resolve_schedule(cfg["schedule"])
    if mode == "exact":
        rows = [f"{k},{f.numerator}/{f.denominator}\n"
                for k, f in enumerate(freq_rows(kmax, schedule))]
        chunks = ["".join(rows).encode()]
    else:
        chunks = _float_chunks(freq_table_float(kmax, schedule))
    resolved = dict(cfg)
    resolved["mode"] = mode
    _emit(cfg["csv"], chain([b"k,freq\n"], chunks), "freq", resolved)
    return 0


_BLOCK_ROWS = 1 << 16


def _float_chunks(table: np.ndarray) -> Iterator[bytes]:
    """The "k,repr(table[k])" lines as bytes, one chunk per block of rows.

    Runs of equal values are cut where the int64 bit patterns differ, so 0.0
    and -0.0 stay apart; each run's separator is formatted once, from the
    table's own element.  A block holds at most `_BLOCK_ROWS` keys of one run
    and one decimal digit count: one uint8 matrix whose digit columns come
    from repeated division by 10 and whose remaining columns repeat the
    separator.
    """
    bits = table.view(np.int64)
    cuts = [0, *(np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist(), len(table)]
    for a, b in zip(cuts, cuts[1:]):
        sep = np.frombuffer(f",{table[a]!r}\n".encode(), dtype=np.uint8)
        while a < b:
            digits = len(str(a))
            end = min(b, 10 ** digits, a + _BLOCK_ROWS)
            block = np.empty((end - a, digits + len(sep)), dtype=np.uint8)
            block[:, digits:] = sep
            keys = np.arange(a, end, dtype=np.uint32 if digits < 10 else np.uint64)
            for col in range(digits - 1, 0, -1):
                keys, block[:, col] = np.divmod(keys, 10)
            block[:, 0] = keys
            block[:, :digits] += ord("0")
            yield block.tobytes()
            a = end


@_command("measure-flow", [
    Param("machine", str, required=True, help="corpus name or machine JSON"),
    Param("depth", int, default=1, help="word depth"),
    Param("kmax", int, default=10, help="largest scale"),
    Param("schedule", str, default="default", help="default or const:C"),
    Param("csv", str, required=True, help="output CSV path"),
])
def _run_measure_flow(cfg):
    machine = _resolve_machine(cfg["machine"])
    depth, kmax = cfg["depth"], cfg["kmax"]
    if kmax < depth:
        raise UsageError("measure-flow: kmax must be >= depth")
    schedule = _resolve_schedule(cfg["schedule"])
    flow = selector_flow(machine, depth)
    target = flow(kmax)
    lines = ["k,blocked_mass,residual,dist_to_target"]
    for cond in conditional_rows(flow, depth, schedule, kmax):
        mass, res = cond.blocked_mass(), cond.residual
        dist = (weak_star_distance(cond.renormalized(), target)
                if mass > 0 else "")
        lines.append(f"{cond.k},{mass.numerator}/{mass.denominator},"
                     f"{res.numerator}/{res.denominator},"
                     + (f"{dist.numerator}/{dist.denominator}"
                        if mass > 0 else ""))
    _emit(cfg["csv"], [("\n".join(lines) + "\n").encode()], "measure-flow", cfg)
    return 0


@_command("thermo", [
    Param("kmin", int, default=1, help="first scale"),
    Param("kmax", int, default=8, help="last scale"),
    Param("C", _parse_fraction, default=Fraction(1), help="lower constant"),
    Param("Cprime", _parse_fraction, default=Fraction(1),
          help="upper constant"),
    Param("r", int, default=2, help="boundary thickness"),
    Param("c", _parse_fraction, default=Fraction(1),
          help="entropy rate numerator"),
    Param("schedule", str, default="default", help="default or const:C"),
    Param("csv", str, required=True, help="output CSV path"),
])
def _run_thermo(cfg):
    rows = thermo_table(cfg["kmin"], cfg["kmax"], C=cfg["C"],
                        C_prime=cfg["Cprime"], r=cfg["r"], c=cfg["c"],
                        schedule=_resolve_schedule(cfg["schedule"]))
    _emit(cfg["csv"], [thermo_csv(rows).encode()], "thermo", cfg)
    return 0 if all(row["entropy_pass"] != "fail" for row in rows) else 1


@_command("gibbs", [
    Param("tileset", str, default="robinson", help="robinson, free:K, or file"),
    Param("potential", str, default="adjacency",
          help="adjacency or a potential JSON file"),
    Param("side", int, required=True, help="torus side"),
    Param("beta", float, required=True, help="inverse temperature"),
    Param("steps", int, required=True, help="Metropolis proposals"),
    Param("seed", int, default=0, help="RNG seed (all randomness)"),
    Param("cadence", int, default=0, help="trace cadence (0: steps // 10)"),
    Param("markers", int, default=0, help="marker scale for coverage, 0: off"),
    Param("csv", str, required=True, help="output trace CSV path"),
])
def _run_gibbs(cfg):
    tileset = _resolve_tileset(cfg["tileset"])
    if cfg["potential"] == "adjacency":
        potential = adjacency_potential(tileset)
    elif Path(cfg["potential"]).exists():
        potential = Potential.from_json(_read_text(cfg["potential"]))
    else:
        raise UsageError(f"unknown potential {cfg['potential']!r}")
    markers = robinson_marker_set(cfg["markers"]) if cfg["markers"] else None
    cadence = cfg["cadence"] or max(1, cfg["steps"] // 10)
    result = metropolis(tileset, potential, cfg["side"], cfg["beta"],
                        cfg["steps"], rng_seed=cfg["seed"], markers=markers,
                        cadence=cadence)
    resolved = dict(cfg)
    resolved["cadence"] = cadence
    _emit(cfg["csv"], [trace_csv(result).encode()], "gibbs", resolved)
    return 0


@_command("perturb", [
    Param("base", str, required=True, help="default machine"),
    Param("target", str, required=True, help="selector-forced machine"),
    Param("index", int, default=1, help="selector index"),
    Param("epsilon", _parse_fraction, required=True,
          help="perturbation coefficient"),
    Param("depth", int, default=1, help="word depth"),
    Param("horizon", int, default=10, help="largest scale"),
    Param("out", str, required=True, help="output report JSON path"),
])
def _run_perturb(cfg):
    enumeration, _ = machine_enumeration()
    report = perturbed_flow(_resolve_machine(cfg["base"]),
                            _resolve_machine(cfg["target"]),
                            cfg["epsilon"], cfg["depth"], cfg["horizon"],
                            index=cfg["index"], enumeration=enumeration)
    _emit(cfg["out"], [report.to_json().encode()], "perturb", cfg)
    return 0


@_command("acc", [
    Param("sequence", str, required=True,
          help="constant-u, constant-d, uniform, alternating, or sweep"),
    Param("depth", int, default=1, help="word depth"),
    Param("connect", _parse_bool, default=False,
          help="connectify before accumulating"),
    Param("horizon", int, default=64, help="tail end N"),
    Param("resolution", _parse_fraction, default=Fraction(1, 16),
          help="net radius"),
    Param("out", str, required=True, help="output JSON path"),
])
def _run_acc(cfg):
    seq = named_sequence(cfg["sequence"], cfg["depth"])
    if cfg["connect"]:
        seq = connectify(seq)
    acc = finite_accumulation(seq, cfg["horizon"], cfg["resolution"])
    _emit(cfg["out"], [acc.to_json().encode()], "acc", cfg)
    return 0


# ------------------------------------------------------------------ main ---

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundlab",
        description="tiling, measure-flow and Gibbs experiment runner")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (params, _) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="key=value config file (flags override)")
        for param in params:
            p.add_argument(f"--{param.name}", default=None, help=param.help)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    params, runner = COMMANDS[args.command]
    try:
        config_values = (_load_config(args.config, args.command, params)
                         if args.config else {})
        resolved = _resolve(args.command, params, vars(args), config_values)
        return runner(resolved)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {args.command}: cannot access {exc.filename!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, NonConformingError) as exc:
        print(f"budget exceeded: {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
