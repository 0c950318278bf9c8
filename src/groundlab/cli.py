"""Command-line surface: reproducible experiment runs with emitted configs.

Every run writes its primary artifact plus a fully resolved key=value config
next to it (<artifact>.config); re-running with --config pointed at that file
reproduces the artifact byte for byte.  Flags override config-file values.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from itertools import chain
from typing import Callable, Iterable, Iterator, List, Optional

import numpy as np

from .gibbs import (Potential, adjacency_potential, metropolis, trace_csv)
from .layers import (constant_schedule, default_schedule, freq_rows_decimal,
                     freq_table_float)
from .machines import corpus, machine_enumeration, machine_from_json
from .markers import MarkerSet, robinson_marker_set, verify_nonoverlap
from .measures import conditional_rows, weak_star_distance
from .perturbation import perturbed_flow, selector_flow
from .render import render_patch_svg
from .robinson import build_macro_tile, build_tileset
from .sequences import connectify, finite_accumulation, named_sequence
from .thermo import thermo_csv, thermo_table
from .tiles import BudgetExceeded, EdgeLabel, InputError, Tile, Tileset

FORMAT_VERSION = "1"
_SLICE = 1 << 20  # characters of a large text artifact encoded at once


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

    def convert(self, raw: str):
        try:
            return self.parse(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"invalid value for {self.name}: {raw!r} ({exc})")


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
    """A user-named file's text; bytes that are not UTF-8 are an input error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{str(path)!r} is not UTF-8 text ({exc.reason} "
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
            raise InputError(f"config line {ln} is not key=value: {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key == "command":
            if raw != command:
                raise InputError(f"config was written for {raw!r}")
            continue
        if key == "format":
            if raw != FORMAT_VERSION:
                raise InputError(f"config has format {raw!r}, not {FORMAT_VERSION!r}")
            continue
        if key not in known:
            raise InputError(f"unknown config key {key!r}")
        found[key] = raw
    return found


def _resolve(params: List[Param], cli_values: dict, config_values: dict) -> dict:
    resolved = {}
    for p in params:
        raw_cli = cli_values.get(p.name)
        if raw_cli is not None:
            resolved[p.name] = p.convert(raw_cli)
        elif p.name in config_values:
            resolved[p.name] = p.convert(config_values[p.name])
        elif p.required:
            raise InputError(f"missing required option --{p.name}")
        else:
            resolved[p.name] = p.default
    return resolved


def _emit(primary_path: str, chunks: Iterable[bytes], command: str,
          resolved: dict):
    """Write the artifact from its bytes chunks, then its .config sidecar.

    Text artifacts are passed as UTF-8, in one chunk or (the SVG) in
    slices, and the sidecar is UTF-8 too, which is how `_read_text` reads it
    back.
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
        raise InputError(f"invalid value for {field}: {spec!r}") from None


def _resolve_machine(name: str):
    table = corpus()
    if name in table:
        return table[name]
    path = Path(name)
    if path.exists():
        return machine_from_json(_read_text(path), name=path.stem)
    raise InputError(f"unknown machine {name!r}: not a corpus name "
                     f"({', '.join(sorted(table))}) or a file")


def _resolve_tileset(name: str) -> Tileset:
    if name == "robinson":
        return build_tileset()
    if name.startswith("free:"):
        count = _spec_int("tileset", name)
        if not 1 <= count <= 26:
            raise InputError("free tilesets support 1..26 tiles")
        lab = EdgeLabel(None, None, None, None, None)
        return Tileset([Tile(chr(65 + i), lab, lab, lab, lab)
                        for i in range(count)])
    path = Path(name)
    if path.exists():
        return Tileset.from_json(_read_text(path))
    raise InputError(f"unknown tileset {name!r}: use robinson, free:K, "
                     f"or a file")


def _resolve_schedule(name):
    if name == "default":
        return default_schedule()
    if name.startswith("const:"):
        return constant_schedule(_spec_int("schedule", name))
    raise InputError(f"unknown schedule {name!r}: use default or const:C")


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
    # encoded a slice at a time: no second whole-document copy as bytes
    _emit(cfg["out"], (svg[i:i + _SLICE].encode()
                       for i in range(0, len(svg), _SLICE)), "render", cfg)
    return 0


@_command("verify-markers", [
    Param("scale", int, default=1, help="macro-tile marker scale"),
    Param("markers", str, default="", help="marker-set JSON file "
          "(overrides scale)"),
    Param("out", str, required=True, help="output JSON path"),
])
def _run_verify_markers(cfg):
    if cfg["markers"]:  # a marker file builds no scale, so none is reported
        markers, doc = MarkerSet.from_json(_read_text(cfg["markers"])), {}
    else:
        markers, doc = robinson_marker_set(cfg["scale"]), {"scale": cfg["scale"]}
    bad = verify_nonoverlap(markers)
    doc["patterns"] = len(markers.patterns)
    if markers.width == markers.height:  # side and window need square markers
        doc["side"] = markers.ell
        doc["window"] = markers.m
    doc["nonoverlap"] = "ok" if bad is None else "violation"
    if bad is not None:
        doc["violation"] = [int(bad[0]), int(bad[1]),
                            [int(bad[2][0]), int(bad[2][1])]]
    _emit(cfg["out"], [json.dumps(doc, indent=1).encode()], "verify-markers", cfg)
    if bad is None:
        return 0
    i, j, (dx, dy) = doc["violation"]
    print(f"violation: verify-markers: pattern {j} shifted by ({dx}, {dy}) "
          f"overlaps pattern {i}", file=sys.stderr)
    return 1


@_command("freq", [
    Param("kmax", int, required=True, help="largest blocking scale"),
    Param("schedule", str, default="default", help="default or const:C"),
    Param("mode", str, default="auto", help="auto, exact, or float"),
    Param("csv", str, required=True, help="output CSV path"),
])
def _run_freq(cfg):
    kmax = cfg["kmax"]
    if kmax < 0:
        raise InputError("kmax must be >= 0")
    mode = cfg["mode"]
    if mode == "auto":
        mode = "exact" if kmax <= 1024 else "float"
    if mode not in ("exact", "float"):
        raise InputError(f"unknown mode {cfg['mode']!r}")
    schedule = _resolve_schedule(cfg["schedule"])
    if mode == "exact":
        chunks = (f"{k},{num}/{den}\n".encode()
                  for k, (num, den) in enumerate(freq_rows_decimal(kmax, schedule)))
    else:
        chunks = _float_chunks(freq_table_float(kmax, schedule))
    resolved = dict(cfg)
    resolved["mode"] = mode
    _emit(cfg["csv"], chain([b"k,freq\n"], chunks), "freq", resolved)
    return 0


_BLOCK_ROWS = 1 << 16


@functools.cache
def _low_digits() -> np.ndarray:
    """The keys 0000 to 9999 as rows of four ASCII digits."""
    return np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy() + ord("0")


def _float_chunks(table: np.ndarray) -> Iterator[bytes]:
    """The "k,repr(table[k])" lines, one bytearray per block of at most
    `_BLOCK_ROWS` keys of one digit count.  Runs of equal values are cut where
    the int64 bit patterns differ, so 0.0 and -0.0 stay apart."""
    bits = table.view(np.int64)
    cuts = [0, *(np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist(), len(table)]
    a = 0
    while a < len(table):
        end = min(len(table), 10 ** len(str(a)), a + _BLOCK_ROWS)
        yield _float_block(table, cuts, a, end)
        a = end


# Runs of fewer rows than this are written as "%d%s" text: the numpy view
# of a run costs about as much as 20 lines of text.
_TEXT_ROWS = 20


def _float_block(table: np.ndarray, cuts: list, a: int, end: int) -> bytearray:
    """Lines a..end-1, keys of one digit count, in one buffer.  A run of
    `_TEXT_ROWS` rows or more is one (rows, digits + separator) view of it,
    whose keys take no division: their last four digits are a slice of
    `_low_digits()`, the rest hold for 10^4 keys and are written a column at
    a time, so a full 10^4 after another copies its rows and rewrites only
    those.  A shorter run is written as text."""
    digits = len(str(a))
    high = max(digits - 4, 0)
    bounds = cuts[bisect_right(cuts, a) - 1:bisect_left(cuts, end) + 1]
    bounds[0], bounds[-1] = a, end
    runs = [(start, stop, f",{table[start]!r}\n".encode())
            for start, stop in zip(bounds, bounds[1:])]
    chunk = bytearray(sum((stop - start) * (digits + len(sep))
                          for start, stop, sep in runs))
    buf = np.frombuffer(chunk, np.uint8)
    end_pos = 0
    for start, stop, sep in runs:
        pos, end_pos = end_pos, end_pos + (stop - start) * (digits + len(sep))
        if stop - start < _TEXT_ROWS:
            chunk[pos:end_pos] = b"".join([b"%d%s" % (k, sep)
                                           for k in range(start, stop)])
            continue
        rows = buf[pos:end_pos].reshape(stop - start, -1)
        edges = [start, *range(start - start % 10 ** 4 + 10 ** 4, stop, 10 ** 4), stop]
        for s, e in zip(edges, edges[1:]):
            seg = rows[s - start:e - start]
            if e - s == 10 ** 4 <= s - start:
                seg[:] = rows[s - start - 10 ** 4:s - start]
            else:
                seg[:, digits:] = np.frombuffer(sep, np.uint8)
                seg[:, high:digits] = _low_digits()[s % 10 ** 4:][:e - s, high - digits:]
            for c, ch in enumerate(str(s)[:high].encode()):
                seg[:, c] = ch
    return chunk


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
        raise InputError("kmax must be >= depth")
    schedule = _resolve_schedule(cfg["schedule"])
    flow = selector_flow(machine, depth)
    target = flow(kmax)
    lines = ["k,blocked_mass,residual,dist_to_target"]
    for cond in conditional_rows(flow, depth, schedule, kmax):
        dist = weak_star_distance(cond.renormalized(), target)
        lines.append(",".join([str(cond.k), _serialize(cond.blocked_mass()),
                               _serialize(cond.residual), _serialize(dist)]))
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
    failed = [str(row["k"]) for row in rows if row["entropy_pass"] == "fail"]
    if not failed:
        return 0
    print(f"violation: thermo: entropy criterion fails at k = "
          f"{', '.join(failed)}", file=sys.stderr)
    return 1


def _check_ids(what: str, ids, tileset: Tileset) -> None:
    """Refuse `ids` naming a tile id the tileset lacks, the first one named."""
    for tid in ids:
        if tid not in tileset.index:
            raise InputError(f"{what} names tile id {tid!r} that the tileset lacks")


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
        # the library drops a pattern naming an id the tileset lacks; a chain
        # whose file names one would run another potential than asked for
        _check_ids("potential", potential.ids, tileset)
    else:
        raise InputError(f"unknown potential {cfg['potential']!r}")
    markers = robinson_marker_set(cfg["markers"]) if cfg["markers"] else None
    if markers is not None:
        # a marker with an id the tileset lacks never matches: zero coverage
        _check_ids("marker set", markers.legend, tileset)
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

# argparse's test for a negative number, which is a value, not an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")
_OPTION = object()  # an unknown option, or "--": never a value, never taken


def _usage(command: Optional[str]) -> str:
    """The --help text: the commands, or one command's options."""
    if command is None:
        return ("usage: groundlab COMMAND --OPTION VALUE ...\n"
                "tiling, measure-flow and Gibbs experiment runner\n"
                f"commands: {', '.join(COMMANDS)}\n"
                "groundlab COMMAND --help lists its options\n")
    rows = [("config", "key=value config file (flags override)")]
    for p in COMMANDS[command][0]:
        given = "required" if p.required else f"default: {_serialize(p.default) or 'none'}"
        rows.append((p.name, f"{p.help} ({given})"))
    width = max(len(name) for name, _ in rows) + 2
    return (f"usage: groundlab {command} --OPTION VALUE ...\n"
            "--OPTION=VALUE works too, and so does a unique prefix of a name\n"
            + "".join(f"  --{name:<{width}}{text}\n" for name, text in rows))


def _token(token: str, names, where: str):
    """How argparse reads one token: None for a value, `_OPTION` for an
    unknown option, else (name, text after "=" or None) of an option in
    `names`; help is "help", "-h" and "-hh..." included.  An exact name wins
    over a prefix, and a prefix of two names is a usage error."""
    if token[:1] != "-" or token == "-":
        return None
    if token[:2] == "--":
        name, eq, text = token[2:].partition("=")
        explicit = text if eq else None
        if name in names:
            return name, explicit
        hits = [n for n in names if n.startswith(name)]
        if len(hits) > 1:
            raise UsageError(f"{where}: ambiguous option --{name}: could match "
                             + ", ".join(f"--{n}" for n in hits))
        if hits:
            return hits[0], explicit
    elif token[:2] == "-h":
        # argparse reads "-hX" as -h, then -X: only more h's leave it help
        rest = token[3:] if token[:3] == "-h=" else token[2:]
        return "help", None if token == "-h" or rest and not rest.strip("h") else rest
    if _NEGATIVE.match(token) or " " in token:
        return None
    return _OPTION


def _options(tokens: List[str], names, where: str) -> Optional[dict]:
    """{name: raw value} of the tokens, the last repeat winning, or None
    when help comes first.  A value is the token after its option unless
    that token looks like an option; a token that no option takes is a
    usage error."""
    kinds = []
    for i, token in enumerate(tokens):
        if token == "--":    # argparse ends options here; no option takes it
            kinds += [_OPTION] + [None] * (len(tokens) - i - 1)
            break
        kinds.append(_token(token, names, where))
    values, stray, i = {}, [], 0
    while i < len(tokens):
        kind = kinds[i]
        if kind is None or kind is _OPTION:
            stray.append(tokens[i])
        elif kind[0] == "help":
            if kind[1] is not None:
                raise UsageError(f"{where}: {tokens[i]}: help takes no value")
            return None
        elif kind[1] is not None:
            values[kind[0]] = kind[1]
        elif i + 1 < len(tokens) and kinds[i + 1] is None:
            i += 1
            values[kind[0]] = tokens[i]
        else:
            raise UsageError(f"{where}: --{kind[0]} expects a value")
        i += 1
    if stray:
        raise UsageError(f"{where}: unrecognized arguments: {' '.join(stray)}")
    return values


def _parse_argv(argv: List[str]) -> tuple:
    """(command, {name: raw value}) of the argv, read with argparse's token
    rules against the command's `Param` list; (command or None, None) when
    it asks for help."""
    stray = []
    for i, token in enumerate(argv):
        kind = None if token == "--" else _token(token, ("help",), "groundlab")
        if kind is None:
            break
        if kind is _OPTION:
            stray.append(token)
        elif kind[1] is None:
            return None, None
        else:
            raise UsageError(f"groundlab: {token}: help takes no value")
    else:
        raise UsageError(f"groundlab: missing command: use one of "
                         f"{', '.join(COMMANDS)}")
    command = argv[i]
    if command not in COMMANDS:
        raise UsageError(f"groundlab: unknown command {command!r}: use one of "
                         f"{', '.join(COMMANDS)}")
    names = ["help", "config", *(p.name for p in COMMANDS[command][0])]
    values = _options(argv[i + 1:], names, command)
    if values is not None and stray:
        raise UsageError(f"{command}: unrecognized arguments: {' '.join(stray)}")
    return command, values


def main(argv: Optional[List[str]] = None) -> int:
    command = None
    try:
        command, cli_values = _parse_argv(sys.argv[1:] if argv is None else argv)
        if cli_values is None:
            print(_usage(command), end="")
            return 0
        params, runner = COMMANDS[command]
        config = cli_values.pop("config", None)
        config_values = _load_config(config, command, params) if config else {}
        resolved = _resolve(params, cli_values, config_values)
        # exact results can pass Python's int-to-str digit limit; parsing
        # above keeps it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return runner(resolved)
        finally:
            sys.set_int_max_str_digits(limit)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {command}: cannot access {exc.filename!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {command}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"budget exceeded: {command}: out of memory "
              f"({exc or 'allocation failed'})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
