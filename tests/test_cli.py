import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_oracle
import layers_oracle
import markers_oracle
import render_oracle
import groundlab.cli as cli
import groundlab.thermo as thermo
from groundlab.cli import _BLOCK_ROWS, _TEXT_ROWS, _float_chunks, main
from groundlab.layers import constant_schedule, default_schedule
from groundlab.machines import (constant_writer, corpus, machine_enumeration,
                                machine_to_json)
from groundlab.measures import DEPTH_CAP


def run(*argv):
    return main(list(argv))


def test_no_command_is_usage_error(capsys):
    assert run() == 2
    assert capsys.readouterr().err.startswith("error: groundlab: missing command")
    assert run("nosuch") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: groundlab: unknown command 'nosuch'")
    assert err.count("\n") == 1


def freq_rows(path):
    return path.read_text().splitlines()[1:]


def test_option_equals_form(tmp_path):
    csv = tmp_path / "f.csv"
    assert run("freq", "--kmax=3", f"--csv={csv}") == 0
    assert len(freq_rows(csv)) == 4
    # the text after the first "=" is the value, whatever it holds
    assert run("freq", "--kmax=2", "--schedule=const:2", f"--csv={csv}") == 0
    assert "schedule=const:2\n" in (tmp_path / "f.csv.config").read_text()


def test_option_unique_prefix(tmp_path):
    csv = tmp_path / "f.csv"
    assert run("freq", "--km", "3", "--cs", str(csv), "--mo", "exact") == 0
    assert len(freq_rows(csv)) == 4
    # thermo has --c, --C and --Cprime: an exact name wins over a prefix
    out = tmp_path / "t.csv"
    assert run("thermo", "--kmax", "2", "--c", "1/3", "--C", "1/2", "--Cp", "2",
               "--cs", str(out)) in (0, 1)
    config = (tmp_path / "t.csv.config").read_text()
    assert "c=1/3\n" in config and "C=1/2\n" in config and "Cprime=2/1\n" in config


@pytest.mark.parametrize("argv, message", [
    (["freq", "--c", "x.csv", "--kmax", "1"],
     "error: freq: ambiguous option --c: could match --config, --csv\n"),
    (["thermo", "--k", "3"],
     "error: thermo: ambiguous option --k: could match --kmin, --kmax\n"),
    # a prefix of a name and of help
    (["perturb", "--h", "3"],
     "error: perturb: ambiguous option --h: could match --help, --horizon\n"),
])
def test_option_ambiguous_prefix(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("argv", [
    ["freq", "--kmax", "--csv", "x.csv"],
    ["freq", "--csv", "x.csv", "--kmax"],
    # "-1e5" is not a negative number to argparse's rule, so it is an option
    ["freq", "--kmax", "-1e5", "--csv", "x.csv"],
    ["thermo", "--C", "-1/2", "--csv", "x.csv"],
    ["freq", "--kmax", "--", "3", "--csv", "x.csv"],
])
def test_option_missing_value(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith("expects a value\n") and err.count("\n") == 1


def test_option_negative_number_value(tmp_path, capsys):
    # a negative number is a value: the command's own check refuses it
    csv = tmp_path / "f.csv"
    assert run("freq", "--kmax", "-1", "--csv", str(csv)) == 2
    assert capsys.readouterr().err == "error: freq: kmax must be >= 0\n"
    assert run("freq", "--kmax", "-.5", "--csv", str(csv)) == 2
    assert "invalid value for kmax: '-.5'" in capsys.readouterr().err
    # ... and -0.0 passes every check
    assert run("gibbs", "--tileset", "free:2", "--side", "2", "--beta", "-0.0",
               "--steps", "10", "--csv", str(csv)) == 0
    assert "beta=-0.0\n" in (tmp_path / "f.csv.config").read_text()


@pytest.mark.parametrize("argv, stray", [
    (["freq", "--kmax", "3", "--csv", "CSV", "stray"], "stray"),
    (["freq", "stray", "--kmax", "3", "--csv", "CSV"], "stray"),
    (["freq", "--kmax", "3", "--no-such", "1", "--csv", "CSV"], "--no-such 1"),
    # no option follows "--", as in argparse, nor takes it as its value
    (["freq", "--kmax", "3", "--csv", "CSV", "--"], "--"),
    (["freq", "--kmax", "3", "--", "--csv", "CSV"], "-- --csv CSV"),
    (["--no-such", "freq", "--kmax", "3", "--csv", "CSV"], "--no-such"),
])
def test_option_stray_token(tmp_path, capsys, argv, stray):
    csv = str(tmp_path / "f.csv")
    assert main([csv if a == "CSV" else a for a in argv]) == 2
    stray = stray.replace("CSV", csv)
    err = capsys.readouterr().err
    assert err.endswith(f"unrecognized arguments: {stray}\n") and err.count("\n") == 1
    assert not (tmp_path / "f.csv").exists()


def test_option_repeated_last_wins(tmp_path):
    csv = tmp_path / "f.csv"
    assert run("freq", "--kmax", "7", "--csv", "elsewhere.csv", "--kmax=3",
               "--csv", str(csv)) == 0
    assert len(freq_rows(csv)) == 4
    assert "kmax=3\n" in (tmp_path / "f.csv.config").read_text()


def test_option_value_of_two_dashes_is_usage_error(capsys):
    # argparse strips "--" from "--kmax=--", leaving an empty list int()
    # could not read: a traceback, now a usage error
    assert run("freq", "--kmax=--", "--csv", "x.csv") == 2
    assert capsys.readouterr().err.startswith("error: freq: invalid value for kmax: '--'")


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
def test_command_help_lists_every_param(capsys, command, flag):
    # help wins over a stray token or an unknown option before it
    assert run(command, "stray", "--no-such", flag, "--kmax") == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"usage: groundlab {command} ")
    for param in cli.COMMANDS[command][0]:
        assert f"  --{param.name} " in out and param.help in out
    assert run(flag) == 0
    out, err = capsys.readouterr()
    assert err == "" and all(name in out for name in cli.COMMANDS)


def _read_argv(argv):
    """What `cli` makes of an argv, in `cli_oracle.read`'s terms."""
    try:
        command, values = cli._parse_argv(argv)
    except cli.UsageError:
        return "error"
    return "help" if values is None else (command, values)


_NAMES = sorted({"help", "config", *(p.name for params, _ in cli.COMMANDS.values()
                                      for p in params)})
_PREFIXES = sorted({name[:n] for name in _NAMES for n in range(len(name) + 1)})
_VALUES = ["", "v", "3", "-1", "-.5", "-1.", "-1e5", "a b", "-a b", "--", "-",
           "-h", "x=y", "-1\n"]
ARGV_TOKENS = (sorted(cli.COMMANDS) + ["nosuch"] + [f"--{p}" for p in _PREFIXES]
               + [f"--{p}={v}" for p in _PREFIXES[::4] for v in _VALUES[::3]]
               + ["-h", "-hh", "-hx", "-h=", "-h=h", "-h x", "--help=", "--he=x",
                  "---x", "-x", "-x=1", "--=x", "--a b", "--o=a b"] + _VALUES)


# an option or a prefix of one with a value, or any one token
ARGV_PARTS = st.one_of(
    st.tuples(st.sampled_from([f"--{p}" for p in _PREFIXES]),
              st.sampled_from(["3", "v"] * 4 + _VALUES)).map(list),
    st.sampled_from(ARGV_TOKENS).map(lambda token: [token]))


@given(st.lists(ARGV_PARTS, max_size=5), st.sampled_from(sorted(cli.COMMANDS)),
       st.sampled_from([None, 0, 0, 0, 1]))
@settings(max_examples=400, deadline=None)
def test_argv_is_read_as_argparse_reads_it(parts, command, at):
    # help, a usage error or the same raw values, token for token
    tokens = [token for part in parts for token in part]
    argv = tokens if at is None else [*tokens[:at], command, *tokens[at:]]
    assert _read_argv(argv) == cli_oracle.read(argv)


def test_render_writes_svg_and_config(tmp_path):
    out = tmp_path / "m2.svg"
    assert run("render", "--scale", "2", "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("<svg") and "</svg>" in text
    cfg = (tmp_path / "m2.svg.config").read_text()
    assert "command=render" in cfg and "scale=2" in cfg


def test_render_replay_byte_identical(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run("render", "--scale", "2", "--out", str(a)) == 0
    assert run("render", "--config", str(a) + ".config",
               "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_slices_write_the_oracle_bytes(tmp_path, monkeypatch):
    from groundlab.robinson import build_macro_tile, build_tileset
    monkeypatch.setattr(cli, "_SLICE", 1000)  # many slices, the last one short
    out = tmp_path / "m3.svg"
    assert run("render", "--scale", "3", "--cell", "7", "--out", str(out)) == 0
    want = render_oracle.render_patch_svg(build_tileset(), build_macro_tile(3), 7)
    assert len(want) % 1000 and out.read_bytes() == want.encode()


def test_render_requires_scale(tmp_path, capsys):
    assert run("render", "--out", str(tmp_path / "x.svg")) == 2
    assert "scale" in capsys.readouterr().err


def test_freq_exact_last_row_matches_library(tmp_path):
    out = tmp_path / "f.csv"
    assert run("freq", "--kmax", "1000", "--csv", str(out)) == 0
    last = out.read_text().strip().splitlines()[-1]
    k, frac = last.split(",")
    assert k == "1000"
    *_, want = layers_oracle.freq_rows(1000, default_schedule())
    assert Fraction(frac) == want


def test_freq_exact_bytes_match_fraction_rows_past_the_digit_limit(tmp_path):
    # row 3000's cells have ~4 600 digits, past Python's 4 300-digit
    # int-to-str limit; the rows are written from Decimal integers
    out = tmp_path / "f.csv"
    assert run("freq", "--kmax", "3000", "--mode", "exact", "--csv", str(out)) == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = "k,freq\n" + "".join(
            f"{k},{f.numerator}/{f.denominator}\n"
            for k, f in enumerate(layers_oracle.freq_rows(3000, default_schedule())))
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(map(len, want.split("/"))) > 4300
    assert out.read_bytes() == want.encode()


def test_freq_float_mode_beyond_threshold(tmp_path):
    out = tmp_path / "f.csv"
    assert run("freq", "--kmax", "2000", "--csv", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2002
    assert "/" not in lines[-1]
    assert "mode=float" in (tmp_path / "f.csv.config").read_text()


def test_freq_schedule_and_bad_values(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert run("freq", "--kmax", "10", "--schedule", "const:3",
               "--csv", str(out)) == 0
    row = out.read_text().strip().splitlines()[2]
    assert Fraction(row.split(",")[1]) == Fraction(1, 12)
    assert run("freq", "--kmax", "zz", "--csv", str(out)) == 2
    assert "kmax" in capsys.readouterr().err
    assert run("freq", "--kmax", "5", "--schedule", "weird",
               "--csv", str(out)) == 2
    assert run("freq", "--kmax", "5", "--mode", "odd", "--csv", str(out)) == 2


@pytest.mark.parametrize("schedule", ["default", "const:3"])
def test_freq_float_bytes_match_per_row_oracle(tmp_path, schedule):
    # the all-1.0 run starts at k = 1346 under the default schedule; rows are
    # written in blocks of one run, one digit count and at most 65 536 keys
    sched = None if schedule == "default" else constant_schedule(3)
    for kmax in (0, 1, 2, 9, 10, 99, 100, 1345, 1346, 1347, 5000, 65535,
                 65536, 65537, 100000, 10 ** 6):
        out = tmp_path / f"f{kmax}.csv"
        assert run("freq", "--kmax", str(kmax), "--mode", "float",
                   "--schedule", schedule, "--csv", str(out)) == 0
        want = layers_oracle.freq_float_csv(layers_oracle.freq_table_float(kmax, sched))
        assert out.read_bytes() == want.encode()


@given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, float("nan")]), min_size=1,
                max_size=120))
def test_float_rows_match_per_row_oracle(values):
    table = np.array(values, dtype=np.float64)
    got = b"k,freq\n" + b"".join(_float_chunks(table))
    assert got == layers_oracle.freq_float_csv(table).encode()


def _runs_table(length, cuts):
    """`length` values, one per run between `cuts`, cycling through 0.0,
    -0.0, two NaN payloads, 0.25 and 1.0, so that some neighbouring runs
    differ only in the sign of zero or in the NaN payload."""
    nan_a, nan_b = np.array([0x7FF8000000000000, 0x7FF8000000000001]).view(np.float64)
    cycle = [0.0, -0.0, nan_a, nan_b, 0.25, -0.0, 0.0, 1.0]
    edges = [0, *sorted(c for c in set(cuts) if 0 < c < length), length]
    return np.concatenate([np.full(b - a, cycle[i % len(cycle)])
                           for i, (a, b) in enumerate(zip(edges, edges[1:]))])


# digit-count edges 10^4 and 10^5, the block edges _BLOCK_ROWS keys after
# them, and 65 536 itself; runs are cut at each, at each plus or minus one, or
# straddle them all
EDGES = (10 ** 4, 65_536, 75_536, 10 ** 5, 165_536)


@pytest.mark.parametrize("length,cuts", [
    (100_001, EDGES),
    (131_073, [e + d for e in EDGES for d in (-1, 1)]),
    (165_537, [e + d for e in EDGES for d in (-1, 0, 1)]),
    (200_000, (3, 9_999, 100_001, 199_999)),
])
def test_float_rows_match_per_row_oracle_across_block_edges(length, cuts):
    table = _runs_table(length, cuts)
    got = b"k,freq\n" + b"".join(_float_chunks(table))
    assert got == layers_oracle.freq_float_csv(table).encode()


# the 4-digit to 5-digit key edge, and the block edge _BLOCK_ROWS keys after it
TEXT_EDGES = (10 ** 4, 10 ** 4 + _BLOCK_ROWS)


def _short_runs_cuts(length, pattern):
    """Cuts that make runs of `length` rows end at, start at, or straddle
    each of TEXT_EDGES, or fill the rows on both sides of it end to end."""
    cuts = []
    for e in TEXT_EDGES:
        if pattern == "end":
            cuts += [e - length, e]
        elif pattern == "start":
            cuts += [e, e + length]
        elif pattern == "straddle":
            cuts += [e - length // 2, e - length // 2 + length]
        else:
            cuts += range(e - 5 * length, e + 5 * length + 1, length)
    return cuts


@pytest.mark.parametrize("pattern", ["end", "start", "straddle", "packed"])
@pytest.mark.parametrize("length", [_TEXT_ROWS - 1, _TEXT_ROWS, _TEXT_ROWS + 1])
def test_float_rows_at_the_text_cutoff_match_per_row_oracle(length, pattern):
    # runs shorter than _TEXT_ROWS are written as text, the others as views
    table = _runs_table(TEXT_EDGES[-1] + 6 * length, _short_runs_cuts(length, pattern))
    got = b"k,freq\n" + b"".join(_float_chunks(table))
    assert got == layers_oracle.freq_float_csv(table).encode()


HUGE = "const:1" + "0" * 400


@pytest.mark.parametrize("kmax,mode,code", [
    ("5", "float", 2), ("1025", "auto", 2), ("3000", "float", 2),
    ("0", "float", 0), ("5", "exact", 0), ("5", "auto", 0),
])
def test_freq_schedule_past_the_float_range(tmp_path, capsys, kmax, mode, code):
    # not in FREQ_FLAGS: with its kmax of 1024 or 3000, exact rows of this t
    # run to ~400 MB of decimal digits or more
    out = tmp_path / "f.csv"
    assert run("freq", "--kmax", kmax, "--mode", mode, "--schedule", HUGE,
               "--csv", str(out)) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: freq: schedule value t(0) is past the float "
                       "range: use --mode exact\n")
    else:
        assert err == "" and len(out.read_text().splitlines()) == int(kmax) + 2


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("kmax=8\nschedule=default\n")
    out = tmp_path / "f.csv"
    assert run("freq", "--config", str(cfgfile), "--csv", str(out)) == 0
    assert len(out.read_text().strip().splitlines()) == 10
    assert run("freq", "--config", str(cfgfile), "--kmax", "3",
               "--csv", str(out)) == 0
    assert len(out.read_text().strip().splitlines()) == 5


def test_config_comments_and_blank_lines_are_skipped(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("freq", "--kmax", "5", "--mode", "float", "--csv", str(a)) == 0
    lines = (tmp_path / "a.csv.config").read_text().splitlines()
    cfg = tmp_path / "commented.cfg"
    cfg.write_text("\n".join(["# replayed by hand", lines[0], "", *lines[1:]]) + "\n")
    assert run("freq", "--config", str(cfg), "--csv", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense-line\n")
    assert run("freq", "--config", str(bad), "--kmax", "2",
               "--csv", str(tmp_path / "f.csv")) == 2
    assert "key=value" in capsys.readouterr().err
    bad.write_text("unknown_key=5\n")
    assert run("freq", "--config", str(bad), "--kmax", "2",
               "--csv", str(tmp_path / "f.csv")) == 2
    assert "unknown_key" in capsys.readouterr().err
    bad.write_text("command=render\n")
    assert run("freq", "--config", str(bad), "--kmax", "2",
               "--csv", str(tmp_path / "f.csv")) == 2
    assert "'render'" in capsys.readouterr().err
    # a config of another format is not replayed as this one
    bad.write_text("command=freq\nformat=9\nkmax=2\n")
    assert run("freq", "--config", str(bad), "--csv", str(tmp_path / "f.csv")) == 2
    assert capsys.readouterr().err == "error: freq: config has format '9', not '1'\n"
    assert run("freq", "--config", str(tmp_path / "missing.cfg"),
               "--kmax", "2", "--csv", str(tmp_path / "f.csv")) == 2


def test_verify_markers_ok_and_violation(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run("verify-markers", "--scale", "1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["nonoverlap"] == "ok"
    assert list(doc) == ["scale", "patterns", "side", "window", "nonoverlap"]
    # two identical 2x2 patterns overlap under a shift: invariant failure
    bad = tmp_path / "bad-markers.json"
    bad.write_text(markers_oracle.marker_json([[["A", "A"], ["A", "A"]]]))
    capsys.readouterr()
    assert run("verify-markers", "--markers", str(bad),
               "--out", str(out)) == 1
    doc = json.loads(out.read_text())
    assert doc["nonoverlap"] == "violation" and "scale" not in doc
    assert len(doc["violation"]) == 3
    assert capsys.readouterr().err == (
        "violation: verify-markers: pattern 0 shifted by (-1, -1) overlaps pattern 0\n")


@pytest.mark.parametrize("rows, code", [
    ([[["A", "B"]], [["C", "D"]]], 0),
    ([[["A", "B"]], [["B", "B"]]], 1),
    ([[["A"], ["B"]], [["B"], ["C"]]], 1),
])
def test_verify_markers_non_square(tmp_path, capsys, rows, code):
    # a non-square set has no side or window, but its verdict still decides;
    # a marker file builds no scale, so none is reported, even one given
    path = tmp_path / "markers.json"
    path.write_text(markers_oracle.marker_json(rows))
    out = tmp_path / "v.json"
    for scale in ((), ("--scale", "3")):
        assert run("verify-markers", *scale, "--markers", str(path),
                   "--out", str(out)) == code
        doc = json.loads(out.read_text())
        assert "scale" not in doc and "side" not in doc and "window" not in doc
        assert doc["nonoverlap"] == ("ok" if code == 0 else "violation")
        err = capsys.readouterr().err
        assert (err == "") == (code == 0)
        assert "Traceback" not in err


def test_measure_flow_columns(tmp_path):
    out = tmp_path / "mf.csv"
    assert run("measure-flow", "--machine", "parity", "--kmax", "6",
               "--csv", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,blocked_mass,residual,dist_to_target"
    first = lines[1].split(",")
    assert Fraction(first[1]) + Fraction(first[2]) == 1
    assert run("measure-flow", "--machine", "nope", "--kmax", "4",
               "--csv", str(out)) == 2
    assert run("measure-flow", "--machine", "parity", "--kmax", "0",
               "--csv", str(out)) == 2


@pytest.mark.parametrize("argv", [
    ("freq", "--kmax", "150"),
    ("measure-flow", "--machine", "parity", "--depth", "1", "--kmax", "150"),
], ids=["freq", "measure-flow"])
def test_exact_cells_past_the_int_str_digit_limit(tmp_path, argv):
    # at t = 10^30 the row-150 fractions have ~4 600 digits, past Python's
    # default int-to-str limit of 4 300
    limit = sys.get_int_max_str_digits()
    out = tmp_path / "out.csv"
    assert run(*argv, "--schedule", f"const:{10 ** 30}", "--csv", str(out)) == 0
    assert sys.get_int_max_str_digits() == limit
    if argv[0] != "freq":
        return
    k, frac = out.read_text().splitlines()[-1].split(",")
    *_, want = layers_oracle.freq_rows(150, constant_schedule(10 ** 30))
    sys.set_int_max_str_digits(0)
    try:
        assert (k, frac) == ("150", f"{want.numerator}/{want.denominator}")
    finally:
        sys.set_int_max_str_digits(limit)


def test_measure_flow_word_measure_once_per_scale(tmp_path,
                                                  word_measure_calls):
    assert run("measure-flow", "--machine", "parity", "--depth", "2",
               "--kmax", "32", "--csv", str(tmp_path / "mf.csv")) == 0
    # 31 rows, each at its own scale max(k, depth), each scale run once
    assert sorted(k for _, k, _ in word_measure_calls) == list(range(2, 33))


def test_depth_above_scale_cap_is_usage_error(tmp_path, capsys):
    # the one depth limit is DEPTH_CAP, as measures allocate 2^depth weights
    depth = str(DEPTH_CAP + 1)
    assert run("measure-flow", "--machine", "parity", "--depth", depth,
               "--kmax", "18", "--csv", str(tmp_path / "mf.csv")) == 2
    err = capsys.readouterr().err
    assert f"depth must be in 1..{DEPTH_CAP}" in err
    assert run("perturb", "--base", "constant-u", "--target", "parity",
               "--epsilon", "1", "--depth", depth, "--horizon", "18",
               "--out", str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert f"depth must be in 1..{DEPTH_CAP}" in err
    assert run("measure-flow", "--machine", "parity", "--depth", "-1",
               "--kmax", "3", "--csv", str(tmp_path / "mf.csv")) == 2


def test_thermo_csv_plumbing(tmp_path):
    out = tmp_path / "t.csv"
    assert run("thermo", "--kmin", "1", "--kmax", "3", "--csv", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,log2_beta_lo,log2_beta_hi,overlap_log_ratio,entropy_pass"
    assert len(lines) == 4
    assert all(line.endswith("pass") for line in lines[1:])


def test_gibbs_trace_and_replay(tmp_path):
    pot = tmp_path / "ab.json"
    pot.write_text(json.dumps({"patterns": [{"rows": [["A", "B"]], "weight": [1, 1]}]}))
    out = tmp_path / "g.csv"
    assert run("gibbs", "--tileset", "free:2", "--potential", str(pot),
               "--side", "3", "--beta", "1.0", "--steps", "400",
               "--seed", "11", "--csv", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,energy,coverage"
    assert len(lines) == 12
    again = tmp_path / "g2.csv"
    assert run("gibbs", "--config", str(out) + ".config",
               "--csv", str(again)) == 0
    assert out.read_text().splitlines()[1:] == \
        again.read_text().splitlines()[1:]
    assert run("gibbs", "--tileset", "free:0", "--potential", str(pot),
               "--side", "3", "--beta", "1.0", "--steps", "10",
               "--csv", str(out)) == 2


def test_gibbs_heavy_weight_chain_finishes(tmp_path):
    # a weight-10^6 domino makes every rise 2 * 10^6 or more; forming y^n
    # exactly for it took over a minute, its correctly rounded float is 0.0
    pot = tmp_path / "heavy.json"
    pot.write_text(json.dumps({"patterns": [{"rows": [["A", "B"]],
                                             "weight": [10 ** 6, 1]}]}))
    out = tmp_path / "g.csv"
    start = time.perf_counter()
    assert run("gibbs", "--tileset", "free:2", "--potential", str(pot),
               "--side", "2", "--beta", "1", "--steps", "200",
               "--csv", str(out)) == 0
    assert time.perf_counter() - start < 5
    energies = [Fraction(row.split(",")[1])
                for row in out.read_text().splitlines()[1:]]
    assert all(e % (2 * 10 ** 6) == 0 for e in energies)
    assert energies == sorted(energies, reverse=True)  # no rise is accepted


def test_gibbs_energy_past_float_range_is_usage_error(tmp_path, capsys):
    # a weight-10^400 domino: the exact energy has no float for the trace
    pot = tmp_path / "huge.json"
    pot.write_text(json.dumps({"patterns": [{"rows": [["A", "B"]],
                                             "weight": [10 ** 400, 1]}]}))
    out = tmp_path / "g.csv"
    assert run("gibbs", "--tileset", "free:2", "--potential", str(pot),
               "--side", "2", "--beta", "1", "--steps", "10",
               "--csv", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: gibbs: the energy at step 0 is past the float range of the "
        "trace CSV\n")
    assert not out.exists() and not (tmp_path / "g.csv.config").exists()


def test_gibbs_usage_errors(tmp_path, capsys):
    assert run("gibbs", "--side", "4", "--beta", "1.0", "--steps", "100",
               "--potential", "missing.json",
               "--csv", str(tmp_path / "g.csv")) == 2
    assert "potential" in capsys.readouterr().err
    zero = tmp_path / "zero.json"
    zero.write_text('{"patterns": [{"rows": [["A", "B"]], "weight": [1, 0]}]}')
    assert run("gibbs", "--tileset", "free:2", "--side", "2", "--beta", "1",
               "--steps", "10", "--potential", str(zero),
               "--csv", str(tmp_path / "g.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: gibbs: malformed potential json")
    assert "Traceback" not in err and err.count("\n") == 1


def test_gibbs_refuses_potential_naming_missing_tiles(tmp_path, capsys):
    # every pattern of ab.json names ids Robinson lacks: dropping them all
    # would run the chain at energy 0
    pot = tmp_path / "ab.json"
    pot.write_text(json.dumps({"patterns": [{"rows": [["A", "B"]], "weight": [1, 1]}]}))
    out = tmp_path / "g.csv"
    assert run("gibbs", "--tileset", "robinson", "--potential", str(pot),
               "--side", "2", "--beta", "1", "--steps", "10", "--csv", str(out)) == 2
    assert capsys.readouterr().err == \
        "error: gibbs: potential names tile id 'A' that the tileset lacks\n"
    assert not out.exists()
    # the first legend id missing is named, in the file's order
    pot.write_text(json.dumps({"patterns": [{"rows": [["B"]], "weight": [1, 1]},
                                            {"rows": [["C", "A"]], "weight": [1, 1]}]}))
    assert run("gibbs", "--tileset", "free:2", "--potential", str(pot),
               "--side", "2", "--beta", "1", "--steps", "10", "--csv", str(out)) == 2
    assert "tile id 'C'" in capsys.readouterr().err


_BLANK = "....."
_TILE_A = {"id": "A", "north": _BLANK, "east": _BLANK, "south": _BLANK,
           "west": _BLANK}
# a tile id that is a list; a rotation that is a float, a bool or a string,
# each of which int() would take; a template that is a list; a label that is
# a list of its five characters; forbidden cells whose tile is a list or
# whose offset is a string; a forbidden pattern, which no torus potential can
# carry; a forbidden pattern with no cells; and the acceptance-7 toy
# potential, to pair with the forbidden pattern
BAD_TILESETS = {
    "list-id.json": {"tiles": [{**_TILE_A, "id": ["A"]}]},
    "rotation-float.json": {"tiles": [{**_TILE_A, "rotation": 1.9}]},
    "rotation-true.json": {"tiles": [{**_TILE_A, "rotation": True}]},
    "rotation-text.json": {"tiles": [{**_TILE_A, "rotation": "2"}]},
    "template-list.json": {"tiles": [{**_TILE_A, "template": ["cross"]}]},
    "label-list.json": {"tiles": [{**_TILE_A, "north": list("r0n01")}]},
    "list-cell.json": {"tiles": [_TILE_A],
                       "forbidden": [{"cells": [{"dx": 0, "dy": 0, "tile": ["A"]}]}]},
    "text-dx.json": {"tiles": [_TILE_A],
                     "forbidden": [{"cells": [{"dx": "1", "dy": 0, "tile": "A"}]}]},
    "ban-a.json": {"tiles": [_TILE_A, {**_TILE_A, "id": "B"}],
                   "forbidden": [{"cells": [{"dx": 0, "dy": 0, "tile": "A"}]}]},
    "no-cells.json": {"tiles": [_TILE_A], "forbidden": [{"cells": []}]},
    "toy-potential.json": {"patterns": [{"rows": [["A", "B"]], "weight": [1, 1]}]},
    "no-tiles.json": {"tiles": []},
}
# marker files `MarkerSet` refuses: a zero tau denominator, a negative tau,
# patterns with no cells, rows given as strings, which would read as
# one-letter ids, and a tau of three integers
BAD_MARKERS = {
    "tau-over-zero.json": {"tau": [1, 0], "patterns": [{"rows": [["A"]]}]},
    "negative-tau.json": {"tau": [-5, 1], "patterns": [{"rows": [["A"]]}]},
    "no-rows.json": {"tau": [0, 1], "patterns": [{"rows": []}]},
    "empty-row.json": {"tau": [0, 1], "patterns": [{"rows": [[]]}]},
    "rows-string.json": {"tau": [0, 1], "patterns": [{"rows": "AB"}]},
    "row-strings.json": {"tau": [0, 1], "patterns": [{"rows": ["AB", "CD"]}]},
    "tau-triple.json": {"tau": [0, 1, 7], "patterns": [{"rows": [["A"]]}]},
}
# potential files whose rows, or one row, are strings, whose weight has three
# integers, or whose patterns are an object
BAD_POTENTIALS = {
    "potential-row-string.json": {"patterns": [{"rows": ["AB"], "weight": [1, 1]}]},
    "potential-rows-string.json": {"patterns": [{"rows": "AB", "weight": [1, 1]}]},
    "weight-triple.json": {"patterns": [{"rows": [["A", "B"]], "weight": [1, 2, 99]}]},
    "patterns-object.json": {"patterns": {}},
}
# the copier, whose states a, b, h and s are given as one string
BAD_MACHINES = {
    "states-string.json": {**json.loads(machine_to_json(corpus()["copier"])),
                           "states": "abhs"},
}


def _gibbs_toy(side="2", beta="1", tileset="free:2"):
    return ("gibbs", "--tileset", tileset, "--side", side, "--beta", beta,
            "--steps", "10", "--csv", "{tmp}/g.csv")


@pytest.mark.parametrize("argv, field", [
    (_gibbs_toy(side="-3"), "side"),
    (_gibbs_toy(beta="nan"), "beta"),
    (_gibbs_toy(beta="inf"), "beta"),
    (_gibbs_toy(tileset="free:x"), "tileset"),
    (("freq", "--kmax", "5", "--schedule", "const:x", "--csv", "{tmp}/f.csv"),
     "schedule"),
    (("verify-markers", "--markers", "{tmp}/missing.json", "--out",
      "{tmp}/v.json"), "missing.json"),
    (("freq", "--kmax", "5", "--csv", "{tmp}/no-such-dir/f.csv"),
     "no-such-dir"),
    (("render", "--scale", "1", "--out", "{tmp}/no-such-dir/m.svg"),
     "no-such-dir"),
    ((*_gibbs_toy(), "--seed", "-1"), "rng_seed"),
    ((*_gibbs_toy(), "--cadence", "-3"), "cadence"),
    (_gibbs_toy(tileset="{tmp}/list-id.json"), "tileset"),
    (_gibbs_toy(tileset="{tmp}/list-cell.json"), "tileset"),
    (_gibbs_toy(tileset="{tmp}/text-dx.json"), "tileset"),
    (("render", "--scale", "2", "--cell", "0", "--out", "{tmp}/m.svg"), "cell"),
    (("render", "--scale", "2", "--cell", "-4", "--out", "{tmp}/m.svg"), "cell"),
    (("acc", "--sequence", "sweep", "--depth", "-1", "--out", "{tmp}/a.json"),
     "depth must be in 1..16"),
    (("render", "--scale", "11", "--out", "{tmp}/m.svg"),
     "macro-tile order must be in 1..10"),
    (("verify-markers", "--scale", "11", "--out", "{tmp}/v.json"),
     "macro-tile order must be in 1..10"),
    ((*_gibbs_toy(), "--markers", "11"), "macro-tile order must be in 1..10"),
    (_gibbs_toy(tileset="{tmp}/ban-a.json"), "forbidden"),
    (_gibbs_toy(tileset="{tmp}/no-cells.json"), "forbidden"),
    (("thermo", "--kmax", "644", "--csv", "{tmp}/t.csv"), "kmax must be <= 643"),
    ((*_gibbs_toy(tileset="{tmp}/ban-a.json"), "--potential", "{tmp}/toy-potential.json"),
     "forbidden"),
    (("thermo", "--r", "100000000000000000000", "--csv", "{tmp}/t.csv"),
     "interaction range r must be <= 2^54 - 2 at scale 1"),
    (_gibbs_toy(tileset="{tmp}/no-tiles.json"), "tileset has no tiles"),
    *[(("verify-markers", "--markers", "{tmp}/" + name, "--out", "{tmp}/v.json"), field)
      for name, field in [("tau-over-zero.json", "malformed marker json"),
                          ("negative-tau.json", "tau must be >= 0"),
                          ("no-rows.json", "at least one cell"),
                          ("empty-row.json", "at least one cell"),
                          ("rows-string.json", "not strings"),
                          ("row-strings.json", "not strings")]],
    *[((*_gibbs_toy(), "--potential", "{tmp}/" + name), "not strings")
      for name in ("potential-row-string.json", "potential-rows-string.json")],
    *[(_gibbs_toy(tileset="{tmp}/" + name), field)
      for name, field in [("rotation-float.json", "rotation takes integers, not floats: 1.9"),
                          ("rotation-true.json", "rotation takes integers, not booleans: True"),
                          ("rotation-text.json", "rotation takes integers, not strings: '2'"),
                          ("template-list.json", "template takes strings, not lists: ['cross']")]],
    # files that loaded as something else: four one-letter states, a label
    # read as its list, a pair's third entry dropped, a chain at energy 0
    (("measure-flow", "--machine", "{tmp}/states-string.json", "--csv", "{tmp}/f.csv"),
     "malformed machine json: states takes lists, not strings: 'abhs'"),
    (_gibbs_toy(tileset="{tmp}/label-list.json"),
     "malformed tileset json: north takes strings, not lists"),
    ((*_gibbs_toy(), "--potential", "{tmp}/weight-triple.json"),
     "malformed potential json: weight takes a [numerator, denominator] pair, got [1, 2, 99]"),
    ((*_gibbs_toy(), "--potential", "{tmp}/patterns-object.json"),
     "malformed potential json: patterns takes lists, not objects: {}"),
    (("verify-markers", "--markers", "{tmp}/tau-triple.json", "--out", "{tmp}/v.json"),
     "malformed marker json: tau takes a [numerator, denominator] pair, got [0, 1, 7]"),
])
def test_bad_values_and_files_are_usage_errors(tmp_path, capsys, argv, field):
    for name, doc in {**BAD_TILESETS, **BAD_MARKERS, **BAD_POTENTIALS, **BAD_MACHINES}.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert run(*(a.format(tmp=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err and err.count("\n") == 1


# argvs whose whole stderr is pinned: the checks made once argv is read, and
# files whose numbers are booleans or floats, which JSON readers take as ints
PINNED_ERRORS = {
    ("freq", "--kmax", "-1", "--csv", "{tmp}/f.csv"): "kmax must be >= 0",
    ("freq", "--kmax", "2", "--mode", "nope", "--csv", "{tmp}/f.csv"):
        "unknown mode 'nope'",
    ("freq", "--kmax", "x", "--csv", "{tmp}/f.csv"):
        "invalid value for kmax: 'x' (invalid literal for int() with base 10: 'x')",
    ("freq", "--csv", "{tmp}/f.csv"): "missing required option --kmax",
    ("measure-flow", "--machine", "parity", "--depth", "3", "--kmax", "2",
     "--csv", "{tmp}/f.csv"): "kmax must be >= depth",
    ("freq", "--config", "{tmp}/render.cfg", "--kmax", "2", "--csv", "{tmp}/f.csv"):
        "config was written for 'render'",
    ("measure-flow", "--machine", "{tmp}/move-true.json", "--csv", "{tmp}/f.csv"):
        "moves are -1 or +1",
    ("measure-flow", "--machine", "{tmp}/move-float.json", "--csv", "{tmp}/f.csv"):
        "moves are -1 or +1",
    (*_gibbs_toy(), "--potential", "{tmp}/weight-true.json"):
        "malformed potential json: expected two integers, got [True, 1]",
    ("verify-markers", "--markers", "{tmp}/tau-true.json", "--out", "{tmp}/v.json"):
        "malformed marker json: expected two integers, got [True, 1]",
    # kappa = c / t_k, named by the c the user set; t_1 = 2
    ("thermo", "--c", "5", "--csv", "{tmp}/t.csv"):
        "c = 5 gives kappa = c / t_k = 5/2 at k = 1, outside [0, 1]",
    ("thermo", "--c", "-1", "--csv", "{tmp}/t.csv"):
        "c = -1 gives kappa = c / t_k = -1/2 at k = 1, outside [0, 1]",
    # Robinson markers on free tiles would never match: coverage 0 throughout
    (*_gibbs_toy(side="3"), "--markers", "1"):
        "marker set names tile id 'a.e.p0' that the tileset lacks",
}


def _write_number_files(tmp_path):
    """The constant-u writer with its first rule's move given as true or as
    1.0, a potential and a marker file whose first number is true, and a
    config written for render."""
    doc = json.loads(machine_to_json(constant_writer("u")))
    for name, move in (("move-true.json", True), ("move-float.json", 1.0)):
        doc["delta"][0]["move"] = move
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "weight-true.json").write_text(json.dumps(
        {"patterns": [{"rows": [["A", "B"]], "weight": [True, 1]}]}))
    (tmp_path / "tau-true.json").write_text(json.dumps(
        {"tau": [True, 1], "patterns": [{"rows": [["A"]]}]}))
    (tmp_path / "render.cfg").write_text("command=render\n")


@pytest.mark.parametrize("argv", [
    _gibbs_toy(tileset="free:0"),
    _gibbs_toy(tileset="free:x"),
    _gibbs_toy(tileset="nope"),
    (*_gibbs_toy(), "--potential", "nope"),
    ("measure-flow", "--machine", "nope.json", "--csv", "{tmp}/f.csv"),
    ("measure-flow", "--machine", "{tmp}/latin1.json", "--csv", "{tmp}/f.csv"),
    ("freq", "--kmax", "2", "--schedule", "const:x", "--csv", "{tmp}/f.csv"),
    ("thermo", "--schedule", "weekly", "--csv", "{tmp}/t.csv"),
    *PINNED_ERRORS,
])
def test_every_usage_error_names_its_command(tmp_path, capsys, argv):
    (tmp_path / "latin1.json").write_bytes(b'{"name": "\xe9"}')
    _write_number_files(tmp_path)
    assert run(*(a.format(tmp=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]}: ") and err.count("\n") == 1
    if argv in PINNED_ERRORS:
        assert err == f"error: {argv[0]}: {PINNED_ERRORS[argv]}\n"


# the benchmark's flow commands by artifact name, each without its path
_PERTURB = ("perturb", "--base", "constant-u", "--target", "parity", "--depth",
            "2", "--horizon", "16", "--epsilon")
FLOW_COMMANDS = {
    "flow.csv": ("measure-flow", "--machine", "parity", "--depth", "2",
                 "--kmax", "32", "--csv"),
    "mixture.json": (*_PERTURB, "0", "--out"),
    "selector.json": (*_PERTURB, "1/2", "--out"),
}


def test_flow_commands_in_one_process_write_what_fresh_ones_do(tmp_path):
    # the corpus machines, and so their sweeps, serve every command of a
    # process: no order of the commands may show in their artifacts
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    (tmp_path / "fresh").mkdir()
    for name, argv in FLOW_COMMANDS.items():
        subprocess.run([sys.executable, "-m", "groundlab.cli", *argv,
                        str(tmp_path / "fresh" / name)], env=env, check=True)
    for order in (list(FLOW_COMMANDS), list(reversed(FLOW_COMMANDS))):
        corpus.cache_clear()
        machine_enumeration.cache_clear()
        here = tmp_path / f"from-{order[0]}"
        here.mkdir()
        for name in order:
            assert run(*FLOW_COMMANDS[name], str(here / name)) == 0
        for name in order:
            assert (here / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_perturb_epsilon_independent_bodies(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["perturb", "--base", "constant-u", "--target", "fair-coin",
            "--depth", "1", "--horizon", "8"]
    assert run(*base, "--epsilon", "3/10", "--out", str(a)) == 0
    assert run(*base, "--epsilon", "7/10", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    cfg_a = (tmp_path / "a.json.config").read_text()
    assert "epsilon=3/10" in cfg_a


@pytest.mark.parametrize("argv, seed", [
    (("perturb", "--base", "constant-u", "--target", "incrementer",
      "--epsilon", "1", "--horizon", "6", "--out"), "000000"),
    (("measure-flow", "--machine", "incrementer", "--csv"), "0000000000"),
], ids=["perturb", "measure-flow"])
def test_non_word_output_is_input_error(tmp_path, capsys, argv, seed):
    # incrementer halts on every seed, so no budget is exceeded: it is not a
    # word machine, which makes the argv a usage error
    assert run(*argv, str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"error: {argv[0]}: machine incrementer left a non-word output '0' "
        f"at seed {seed}\n")


def test_budget_breach_exit_names_its_seed(tmp_path, capsys):
    # at k = 2 the step budget is 2^9 = 512, which left-mover never halts in
    assert run("measure-flow", "--machine", "left-mover", "--depth", "1",
               "--kmax", "2", "--csv", str(tmp_path / "flow.csv")) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: measure-flow: machine left-mover exceeded 512 steps "
        "at seed 00\n")


@pytest.mark.parametrize("name,argv", [
    ("metropolis", ("gibbs", "--tileset", "free:2", "--side", "100000",
                    "--beta", "1", "--steps", "1")),
    ("freq_table_float", ("freq", "--kmax", "100000000000", "--mode", "float")),
])
def test_out_of_memory_is_budget_exit(tmp_path, capsys, monkeypatch, name,
                                      argv):
    # stand in for the allocation: CI hosts may overcommit and never fail it
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(cli, name, refuse)
    assert run(*argv, "--csv", str(tmp_path / "out.csv")) == 3
    # one diagnostic line, no traceback
    assert capsys.readouterr().err == (
        f"budget exceeded: {argv[0]}: out of memory "
        "(Unable to allocate 74.5 GiB)\n")


@pytest.mark.parametrize("argv", [
    ("freq", "--mode", "float", "--kmax", "99999999999999999999999"),
    ("freq", "--mode", "float", "--kmax", "9223372036854775806"),
    ("gibbs", "--tileset", "free:2", "--side", "99999999999999999999",
     "--beta", "1", "--steps", "1"),
], ids=["freq-past-int64", "freq-past-bytes", "gibbs"])
def test_numpy_size_refusal_is_budget_exit(tmp_path, capsys, argv):
    # numpy refuses these sizes with a ValueError before any allocation
    assert run(*argv, "--csv", str(tmp_path / "out.csv")) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"budget exceeded: {argv[0]}: out of memory (")
    assert err.endswith(")\n") and err.count("\n") == 1


def test_thermo_failed_criterion_names_its_scales(tmp_path, capsys, monkeypatch):
    # no thermo argv fails the criterion today, so force one row to fail
    monkeypatch.setattr(thermo, "entropy_criterion",
                        lambda k, bounds, kappa: "fail" if k == 2 else "pass")
    assert run("thermo", "--kmin", "1", "--kmax", "3",
               "--csv", str(tmp_path / "t.csv")) == 1
    assert capsys.readouterr().err == (
        "violation: thermo: entropy criterion fails at k = 2\n")


def test_acc_report(tmp_path):
    out = tmp_path / "acc.json"
    assert run("acc", "--sequence", "alternating", "--horizon", "21",
               "--resolution", "1/4", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["representatives"]) == 2
    assert run("acc", "--sequence", "alternating", "--connect", "true",
               "--horizon", "60", "--resolution", "1/16",
               "--out", str(out)) == 0
    assert len(json.loads(out.read_text())["representatives"]) >= 4
    assert run("acc", "--sequence", "nope", "--horizon", "10",
               "--out", str(out)) == 2


def test_console_entry_point_exists():
    import groundlab.cli as cli
    assert callable(cli.main)


# Token pools for the flow commands, (valid, invalid) per flag.  left-mover
# is left out: it runs 10^7 steps by design (~6 s).  Valid depths stop at 3:
# a depth d carries 2^d integer numerators through every row (at d = 12
# and kmax 40, ~0.35 s for measure-flow and ~1.4 s for perturb, most of it
# the JSON report), which is work, not a fault; the cap itself (13) stays in.
FLOW_MACHINES = (["parity", "copier", "constant-u", "incrementer", "fair-coin"],
                 ["no-such-machine"])
FLOW_DEPTHS = (["1", "2", "3"], ["-2", "-1", "0", "13", "40", "x"])
FLOW_SCALES = (["1", "2", "3", "12", "16", "40"], ["-2", "-1", "0", "1.5"])
FLOW_FLAGS = {
    "measure-flow": {"--machine": FLOW_MACHINES, "--depth": FLOW_DEPTHS,
                     "--kmax": FLOW_SCALES,
                     "--schedule": (["default", "const:2"], ["const:x", "const:0", "x"])},
    "perturb": {"--base": FLOW_MACHINES, "--target": FLOW_MACHINES,
                "--epsilon": (["0", "1/3"], ["-1", "x", "1/0"]),
                "--depth": FLOW_DEPTHS, "--horizon": FLOW_SCALES,
                "--index": (["1", "2"], ["0", "5", "-1"])},
}


@st.composite
def flow_argv(draw):
    """A measure-flow or perturb argv: each flag with a valid or an invalid
    value, bare (its value missing) or absent, in any order, now and then
    with an unknown flag."""
    command = draw(st.sampled_from(sorted(FLOW_FLAGS)))
    parts = []
    for flag, (valid, invalid) in FLOW_FLAGS[command].items():
        form = draw(st.sampled_from(["valid"] * 12 + ["invalid", "bare", "absent"]))
        if form != "absent":
            pool = {"valid": valid, "invalid": invalid, "bare": [None]}[form]
            value = draw(st.sampled_from(pool))
            parts.append([flag] if value is None else [flag, value])
    if draw(st.integers(0, 9)) == 0:
        parts.append(["--no-such-flag", "1"])
    return command, [token for part in draw(st.permutations(parts)) for token in part]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("flow-fuzz")


@given(flow_argv())
@settings(max_examples=60, deadline=None)
def test_flow_commands_exit_contract(fuzz_dir, case):
    command, argv = case
    out = "--csv" if command == "measure-flow" else "--out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, *argv, out, str(fuzz_dir / "artifact")])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


FREQ_FLAGS = {"--kmax": ["-1", "0", "1", "1024", "1025", "3000", "x"],
              "--mode": ["auto", "exact", "float", "odd"],
              "--schedule": ["default", "const:2", "const:1", "const:x", "weird"]}


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_freq_exit_contract(fuzz_dir, data):
    argv = []
    for flag, pool in FREQ_FLAGS.items():
        if data.draw(st.integers(0, 5), flag) > 0:
            argv += [flag, data.draw(st.sampled_from(pool), flag + " value")]
    csv = fuzz_dir / "freq.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["freq", *argv, "--csv", str(csv)])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
    if code:
        return
    kmax = int(argv[argv.index("--kmax") + 1])
    assert len(csv.read_text().splitlines()) - 1 == kmax + 1
    replay = fuzz_dir / "freq-replay.csv"
    assert main(["freq", "--config", f"{csv}.config", "--csv", str(replay)]) == 0
    assert replay.read_bytes() == csv.read_bytes()


GIBBS_FLAGS = {"--seed": ["0", "7", "-1", str(2 ** 64), "x"],
               "--cadence": ["0", "1", "7", "-3"],
               "--side": ["0", "1", "2", "3", "-1"],
               "--steps": ["0", "1", "40", "-5"],
               "--beta": ["0", "1.5", "nan", "-1", "inf"],
               "--tileset": ["free:2", "free:3", "robinson"],
               "--markers": ["0", "1", "2", "-1", "11", "x"],
               "--potential": ["adjacency", "ab.json", "heavy.json",
                               "zero-den.json", "list-cells.json", "huge-den.json",
                               "huge-weight.json", "missing.json"],
               "--config": ["freq.csv.config", "no-equals.config", "binary.config"]}


@pytest.fixture(scope="module")
def gibbs_inputs(fuzz_dir):
    """Potential files (valid, a weight-10^6 domino, zero denominator, non-id
    cells, a denominator past the float range, a weight whose energies pass
    it) and configs that gibbs must
    refuse: one written by freq, one with a line that is not key=value, one
    that is not UTF-8."""
    def potential(weight, rows=(("A", "B"),)):
        return json.dumps({"patterns": [{"rows": rows, "weight": weight}]})

    (fuzz_dir / "ab.json").write_text(potential([1, 1]))
    (fuzz_dir / "heavy.json").write_text(potential([10 ** 6, 1]))
    (fuzz_dir / "zero-den.json").write_text(potential([1, 0]))
    (fuzz_dir / "list-cells.json").write_text(potential([1, 1], [[["A"], "B"]]))
    (fuzz_dir / "huge-den.json").write_text(potential([1, 10 ** 400]))
    (fuzz_dir / "huge-weight.json").write_text(potential([10 ** 400, 1]))
    (fuzz_dir / "no-equals.config").write_text("command=gibbs\nside\n")
    (fuzz_dir / "binary.config").write_bytes(b"\xff\xfe\x00command=gibbs\n")
    assert main(["freq", "--kmax", "2", "--csv", str(fuzz_dir / "freq.csv")]) == 0
    return fuzz_dir


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_gibbs_exit_contract(gibbs_inputs, data):
    argv = []
    for flag, pool in GIBBS_FLAGS.items():
        # each flag is absent one time in six, --config present one time in six
        roll = data.draw(st.integers(0, 5), flag)
        if roll != 0 if flag == "--config" else roll == 0:
            continue
        value = data.draw(st.sampled_from(pool), flag + " value")
        if flag in ("--potential", "--config") and value != "adjacency":
            value = str(gibbs_inputs / value)
        argv += [flag, value]
    csv = gibbs_inputs / "gibbs.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["gibbs", *argv, "--csv", str(csv)])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
    if code:
        return
    replay = gibbs_inputs / "gibbs-replay.csv"
    assert main(["gibbs", "--config", f"{csv}.config", "--csv", str(replay)]) == 0
    assert replay.read_bytes() == csv.read_bytes()


RENDER_FLAGS = {"--scale": ["-1", "0", "1", "2", "3", "4", "5", "11", "x"],
                "--cell": ["-4", "0", "1", "24", "x"],
                "--arrows": ["true", "false", "maybe"],
                "--config": ["freq.csv.config", "render-no-equals.config",
                             "binary.config"]}


@pytest.fixture(scope="module")
def render_inputs(gibbs_inputs):
    """The gibbs configs (one written by freq, one that is not UTF-8) plus a
    render config with a line that is not key=value."""
    (gibbs_inputs / "render-no-equals.config").write_text("command=render\nscale\n")
    return gibbs_inputs


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_render_exit_contract(render_inputs, data):
    argv = []
    for flag, pool in RENDER_FLAGS.items():
        # each flag is absent one time in six, --config present one time in six
        roll = data.draw(st.integers(0, 5), flag)
        if roll != 0 if flag == "--config" else roll == 0:
            continue
        value = data.draw(st.sampled_from(pool), flag + " value")
        if flag == "--config":
            value = str(render_inputs / value)
        argv += [flag, value]
    svg = render_inputs / "render.svg"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["render", *argv, "--out", str(svg)])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
    if code:
        return
    replay = render_inputs / "render-replay.svg"
    assert main(["render", "--config", f"{svg}.config", "--out", str(replay)]) == 0
    assert replay.read_bytes() == svg.read_bytes()


# Token pools of the verdict and accumulation commands, (valid, invalid) per
# flag.  Valid acc depths stop at 3: from depth 12 on an acc run takes over
# 60 s (2^d exact weights per term and per net point), which is work, not a
# fault.  verify-markers scales stop at 4 (scale 6 takes ~2 s) for the same
# reason.
VERDICT_FLAGS = {
    "verify-markers": {"--scale": (["1", "2", "4"], ["-1", "0", "x"]),
                       "--markers": (["overlapping-markers.json",
                                      "non-square-markers.json"],
                                     ["missing.json", "truncated.json",
                                      "binary.config", *BAD_MARKERS])},
    "thermo": {"--kmin": (["0", "1", "3"], ["-1", "x"]),
               "--kmax": (["2", "5", "643"], ["-1", "0", "644", "x"]),
               "--C": (["1", "1/2", "3"], ["0", "-1", "1/0", "x"]),
               "--Cprime": (["1", "1/1000"], ["0", "x"]),
               # 10^20 is past the range limit 2^54 - 2 at scales <= 1
               "--r": (["1", "2", "7"], ["-1", "0", "x", "100000000000000000000"]),
               "--c": (["0", "1/3", "1", "2"], ["5", "-1", "x"]),
               "--schedule": (["default", "const:2"], ["const:1", "x"])},
    "acc": {"--sequence": (["constant-u", "constant-d", "uniform", "alternating",
                            "sweep"], ["nope"]),
            "--depth": (["1", "2", "3"], ["-1", "0", "17", "x"]),
            "--connect": (["true", "false"], ["maybe"]),
            "--horizon": (["1", "8", "64"], ["-1", "0", "x"]),
            "--resolution": (["1/16", "1/4", "2"], ["0", "-1", "1/0", "x"])},
}
# configs the commands must refuse: one written by freq, one that is not
# UTF-8, one with a line that is not key=value
VERDICT_CONFIGS = ["freq.csv.config", "binary.config", "verdict-no-equals.config"]
VERDICT_OUT = {"verify-markers": "--out", "thermo": "--csv", "acc": "--out"}


@pytest.fixture(scope="module")
def verdict_inputs(gibbs_inputs):
    """The gibbs configs (one written by freq, one that is not UTF-8), a
    config with a line that is not key=value, and marker files: one that
    violates non-overlap, one cut short, one of non-square patterns, and
    those `MarkerSet` refuses."""
    (gibbs_inputs / "verdict-no-equals.config").write_text("command=acc\ndepth\n")
    for name, doc in BAD_MARKERS.items():
        (gibbs_inputs / name).write_text(json.dumps(doc))
    square = markers_oracle.marker_json([[["A", "A"], ["A", "A"]]])
    (gibbs_inputs / "overlapping-markers.json").write_text(square)
    (gibbs_inputs / "truncated.json").write_text(square[:len(square) // 2])
    (gibbs_inputs / "non-square-markers.json").write_text(
        markers_oracle.marker_json([[["A", "B"]], [["B", "B"]]]))
    return gibbs_inputs


@pytest.mark.parametrize("command", sorted(VERDICT_FLAGS))
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_verdict_and_acc_exit_contract(verdict_inputs, command, data):
    argv = []
    for flag, (valid, invalid) in VERDICT_FLAGS[command].items():
        # each flag is absent one time in six, invalid one time in eight
        if data.draw(st.integers(0, 5), flag) == 0:
            continue
        pool = invalid if data.draw(st.integers(0, 7), flag + " form") == 0 else valid
        argv += [flag, data.draw(st.sampled_from(pool), flag + " value")]
    if data.draw(st.integers(0, 5), "--config") == 0:
        argv += ["--config", data.draw(st.sampled_from(VERDICT_CONFIGS), "config")]
    argv = [str(verdict_inputs / a) if a.endswith((".json", ".config")) else a
            for a in argv]
    out = verdict_inputs / f"{command}.out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, *argv, VERDICT_OUT[command], str(out)])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert code != 1 or command in ("verify-markers", "thermo")
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
    if code not in (0, 1):
        return
    replay = verdict_inputs / f"{command}-replay.out"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([command, "--config", f"{out}.config",
                     VERDICT_OUT[command], str(replay)]) == code
    assert replay.read_bytes() == out.read_bytes()
