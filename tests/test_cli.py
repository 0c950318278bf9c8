import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layers_oracle
from groundlab.cli import _float_chunks, main
from groundlab.gibbs import pattern_potential
from groundlab.layers import constant_schedule, default_schedule, freq_frozen
from groundlab.markers import MarkerSet
from groundlab.tiles import Patch


def run(*argv):
    return main(list(argv))


def test_no_command_is_usage_error(capsys):
    assert run() == 2
    assert run("nosuch") == 2


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


def test_render_requires_scale(tmp_path, capsys):
    assert run("render", "--out", str(tmp_path / "x.svg")) == 2
    assert "scale" in capsys.readouterr().err


def test_freq_exact_last_row_matches_library(tmp_path):
    out = tmp_path / "f.csv"
    assert run("freq", "--kmax", "1000", "--csv", str(out)) == 0
    last = out.read_text().strip().splitlines()[-1]
    k, frac = last.split(",")
    assert k == "1000"
    assert Fraction(frac) == freq_frozen(1000, default_schedule())


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


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("kmax=8\nschedule=default\n")
    out = tmp_path / "f.csv"
    assert run("freq", "--config", str(cfgfile), "--csv", str(out)) == 0
    assert len(out.read_text().strip().splitlines()) == 10
    assert run("freq", "--config", str(cfgfile), "--kmax", "3",
               "--csv", str(out)) == 0
    assert len(out.read_text().strip().splitlines()) == 5


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
    assert run("freq", "--config", str(tmp_path / "missing.cfg"),
               "--kmax", "2", "--csv", str(tmp_path / "f.csv")) == 2


def test_verify_markers_ok_and_violation(tmp_path):
    out = tmp_path / "v.json"
    assert run("verify-markers", "--scale", "1", "--out", str(out)) == 0
    assert json.loads(out.read_text())["nonoverlap"] == "ok"
    # two identical 2x2 patterns overlap under a shift: invariant failure
    p = Patch.from_ids([["A", "A"], ["A", "A"]])
    bad = tmp_path / "bad-markers.json"
    bad.write_text(MarkerSet([p]).to_json())
    assert run("verify-markers", "--markers", str(bad),
               "--out", str(out)) == 1
    doc = json.loads(out.read_text())
    assert doc["nonoverlap"] == "violation"
    assert len(doc["violation"]) == 3


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


def test_measure_flow_word_measure_once_per_scale(tmp_path,
                                                  word_measure_calls):
    assert run("measure-flow", "--machine", "parity", "--depth", "2",
               "--kmax", "32", "--csv", str(tmp_path / "mf.csv")) == 0
    # 31 rows, but scales clamp to min(max(k, depth), 12): 11 distinct
    assert sorted(k for _, k, _ in word_measure_calls) == list(range(2, 13))


def test_depth_above_scale_cap_is_usage_error(tmp_path, capsys):
    assert run("measure-flow", "--machine", "parity", "--depth", "13",
               "--kmax", "14", "--csv", str(tmp_path / "mf.csv")) == 2
    err = capsys.readouterr().err
    assert "depth 13" in err and "12" in err
    assert run("perturb", "--base", "constant-u", "--target", "parity",
               "--epsilon", "1", "--depth", "13", "--horizon", "14",
               "--out", str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert "depth 13" in err and "12" in err
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
    pot.write_text(pattern_potential([((("A", "B"),), 1)]).to_json())
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


_BLANK = "....."
_TILE_A = {"id": "A", "north": _BLANK, "east": _BLANK, "south": _BLANK,
           "west": _BLANK}
# a tile id that is a list, and forbidden cells whose tile is a list or
# whose offset is a string
BAD_TILESETS = {
    "list-id.json": {"tiles": [{**_TILE_A, "id": ["A"]}]},
    "list-cell.json": {"tiles": [_TILE_A],
                       "forbidden": [{"cells": [{"dx": 0, "dy": 0, "tile": ["A"]}]}]},
    "text-dx.json": {"tiles": [_TILE_A],
                     "forbidden": [{"cells": [{"dx": "1", "dy": 0, "tile": "A"}]}]},
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
])
def test_bad_values_and_files_are_usage_errors(tmp_path, capsys, argv, field):
    for name, doc in BAD_TILESETS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert run(*(a.format(tmp=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_perturb_epsilon_independent_bodies(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["perturb", "--base", "constant-u", "--target", "fair-coin",
            "--depth", "1", "--horizon", "8"]
    assert run(*base, "--epsilon", "3/10", "--out", str(a)) == 0
    assert run(*base, "--epsilon", "7/10", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    cfg_a = (tmp_path / "a.json.config").read_text()
    assert "epsilon=3/10" in cfg_a


def test_perturb_budget_breach_exit(tmp_path):
    assert run("perturb", "--base", "constant-u", "--target", "incrementer",
               "--epsilon", "1", "--horizon", "6",
               "--out", str(tmp_path / "r.json")) == 3


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
# a depth d carries 2^d exact weights through every row (seconds at d = 12
# and kmax 40), which is work, not a fault; the cap itself (13) stays in.
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
               "--potential": ["adjacency", "ab.json", "zero-den.json",
                               "list-cells.json", "huge-den.json", "missing.json"],
               "--config": ["freq.csv.config", "no-equals.config", "binary.config"]}


@pytest.fixture(scope="module")
def gibbs_inputs(fuzz_dir):
    """Potential files (valid, zero denominator, non-id cells, a denominator
    past the float range) and configs that gibbs must refuse: one written by
    freq, one with a line that is not key=value, one that is not UTF-8."""
    def potential(weight, rows=(("A", "B"),)):
        return json.dumps({"patterns": [{"rows": rows, "weight": weight}]})

    (fuzz_dir / "ab.json").write_text(potential([1, 1]))
    (fuzz_dir / "zero-den.json").write_text(potential([1, 0]))
    (fuzz_dir / "list-cells.json").write_text(potential([1, 1], [[["A"], "B"]]))
    (fuzz_dir / "huge-den.json").write_text(potential([1, 10 ** 400]))
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


RENDER_FLAGS = {"--scale": ["-1", "0", "1", "2", "3", "4", "5", "x"],
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
