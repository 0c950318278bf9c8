import json
from fractions import Fraction

import pytest

from groundlab.cli import main
from groundlab.gibbs import pattern_potential
from groundlab.layers import default_schedule, freq_frozen
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
])
def test_bad_values_and_files_are_usage_errors(tmp_path, capsys, argv, field):
    assert run(*(a.format(tmp=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


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
