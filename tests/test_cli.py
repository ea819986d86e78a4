"""Scenario parsing, CLI exit codes, CSV determinism, round-trips."""

import filecmp
import json
import os

import numpy as np
import pytest

import hjnet as hj
from hjnet.cli import load_solution_csv, main, write_solution_csv
from hjnet.errors import ScenarioParseError, ValidationError
from hjnet.scenario_io import parse_scenario, parse_scenario_file

from conftest import make_mixed

TRIPOD_SCN = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                          "scenarios", "tripod.scn")

TRIPOD = """
[vertices]
x0 0.0 0.0
x1 1.0 0.0
x2 -0.5 0.87
x3 -0.5 -0.87
[edges]
e1 x1 x0 abs alpha=1 beta=0 kappa=1
e2 x2 x0 abs alpha=1 beta=0 kappa=1
e3 x3 x0 abs alpha=1 beta=0 kappa=1
[limiter]
default -1
x0 -2
[initial]
e1 constant 0
e2 constant 0
e3 constant 0
[run]
T = 1.0
ns = 60
checks = all
"""

SINGLE = """
[vertices]
a
b
[edges]
e a b abs alpha=1 beta=0 kappa=1
[limiter]
default -1
[initial]
e linear 0 1
[run]
T = 1.0
ns = 50
"""


def test_parse_scenario_builds_the_problem():
    sc, _ = parse_scenario(TRIPOD)
    assert sorted(sc.network.vertices) == ["x0", "x1", "x2", "x3"]
    assert len(sc.network.arcs) == 6
    assert sc.limiter_values()["x0"] == -2.0
    assert sc.limiter_values()["x1"] == -1.0
    assert sc.ns == 60 and sc.horizon == 1.0
    assert np.array_equal(sc.initial["e1"], np.zeros(61))


def test_parse_profiles_and_overrides():
    text = SINGLE.replace("linear 0 1", "bump 0.5 0.5 0.2")
    sc, _ = parse_scenario(text, ns=40)
    g = sc.initial["e"]
    assert g.shape == (41,)
    assert g[0] == 0.0 and g[-1] == 0.0
    assert np.max(g) == pytest.approx(0.5, abs=1e-12)

    text = SINGLE.replace("linear 0 1", "samples 0,1,0")
    sc, _ = parse_scenario(text, ns=4)
    assert np.allclose(sc.initial["e"], [0.0, 0.5, 1.0, 0.5, 0.0])


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(TRIPOD.replace("e2 x2 x0 abs", "e2 x2 abs"))
    assert "line" in str(err.value)
    with pytest.raises(ScenarioParseError):
        parse_scenario("[vertices]\nv\n[edges]\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario(TRIPOD.replace("[limiter]", "[limiterz]"))


@pytest.mark.parametrize("old,new", [
    ("e1 x1 x0", "e,1 x1 x0"),
    ("e2 x2 x0", "e1 x2 x0"),
    ("e3 x3 x0", "e3 x3 x3"),
    ("e2 x2 x0", "e2 x9 x0"),
    ("x3 -0.5 -0.87", "x2 -0.5 -0.87"),
], ids=["comma_in_id", "duplicate_edge", "loop", "unknown_vertex",
        "duplicate_vertex"])
def test_network_errors_carry_the_line_of_their_vertex_or_edge(old, new):
    text = TRIPOD.replace(old, new)
    line = next(i for i, ln in enumerate(text.splitlines(), start=1)
                if ln.startswith(new))
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


SAMPLED_E3 = ("e3 x3 x0 sampled pmin=-2 pmax=2 npts=abc slope=5 "
              "values=2,1,0,1,2")


@pytest.mark.parametrize("old,new", [
    ("default -1", "default abc"),
    ("T = 1.0", "T = abc"),
    ("ns = 60", "ns = 2.5"),
    ("e1 constant 0", "e1 linear 0 x"),
    ("e1 constant 0", "e1"),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1", SAMPLED_E3),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1",
     "e3 x3 x0 abs alpha=0 beta=0 kappa=1"),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1",
     "e3 x3 x0 abs alpha=nan beta=0 kappa=1"),
], ids=["limiter-abc", "horizon-abc", "ns-2.5", "linear-x", "bare-initial",
        "sampled-npts-abc", "alpha-0", "alpha-nan"])
def test_bad_values_are_parse_errors_with_their_line(tmp_path, capsys, old,
                                                     new):
    text = TRIPOD.replace(old, new)
    line = next(i for i, ln in enumerate(text.splitlines(), start=1)
                if ln == new)
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert err.value.line == line
    out = tmp_path / "o"
    assert main(["run", "--scenario", _write(tmp_path, text),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")
    assert not out.exists()


def test_parse_rejects_ids_with_commas():
    with pytest.raises(ValidationError, match="'e,1'"):
        parse_scenario(TRIPOD.replace("e1 x1 x0", "e,1 x1 x0")
                       .replace("e1 constant", "e,1 constant"))
    with pytest.raises(ValidationError, match="'x,1'"):
        parse_scenario(TRIPOD.replace("x1", "x,1"))


def _write(tmp_path, text, name="scn.scn"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_solves_and_reports(tmp_path):
    scn = _write(tmp_path, TRIPOD)
    out = str(tmp_path / "out")
    code = main(["run", "--scenario", scn, "--out", out,
                 "--dump-slices", "0.25,0.75"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["ok"]
    assert report["constants"]["m0"] == 2.0
    names = {c["name"] for c in report["checks"]}
    assert "discr_certificate" in names and "interior_residual" in names
    slices = (tmp_path / "out" / "slices.csv").read_text().splitlines()
    assert slices[0] == "arc_id,t,s,u"
    # 2 slice times x 3 edges x 61 nodes
    assert len(slices) == 1 + 2 * 3 * 61


def test_run_rejects_invalid_limiter(tmp_path):
    scn = _write(tmp_path, TRIPOD.replace("x0 -2", "x0 0"))
    assert main(["run", "--scenario", scn, "--out", str(tmp_path / "o")]) == 2


def test_run_rejects_parse_garbage(tmp_path):
    scn = _write(tmp_path, "[edges]\nnope\n")
    assert main(["run", "--scenario", scn, "--out", str(tmp_path / "o")]) == 2


def test_run_rejects_unknown_check(tmp_path):
    scn = _write(tmp_path, TRIPOD)
    code = main(["run", "--scenario", scn, "--out", str(tmp_path / "o"),
                 "--checks", "headroom,window"])
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (["--ns", "1"], "ns must be at least 2"),
    (["--dump-slices", "0.5,abc"], "--dump-slices"),
    (["--ns", "32", "--refine", "-1"], "--refine must be at least 0"),
], ids=["ns-1", "slice-time-abc", "refine-negative"])
def test_run_rejects_bad_flags_before_writing(tmp_path, capsys, flags,
                                              message):
    scn = _write(tmp_path, TRIPOD)
    out = tmp_path / "o"
    assert main(["run", "--scenario", scn, "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("run, flags, field", [
    ("T = nan", [], "horizon"),
    ("T = inf", [], "horizon"),
    ("T = 1.0", ["--t-final", "nan"], "horizon"),
    ("T = 1.0\ndt = 0", [], "dt"),
    ("T = 1.0\ndt = nan", [], "dt"),
    ("T = 1.0\ndt = -0.01", [], "dt"),
], ids=["T-nan", "T-inf", "t-final-nan", "dt-0", "dt-nan", "dt-negative"])
def test_run_rejects_a_non_finite_or_non_positive_time_step_or_horizon(
        tmp_path, capsys, run, flags, field):
    scn = _write(tmp_path, TRIPOD.replace("T = 1.0", run))
    out = tmp_path / "o"
    assert main(["run", "--scenario", scn, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {field} must be finite and positive")
    assert not out.exists()


@pytest.mark.parametrize("times", ["nan", "inf", "nan,inf", "0.5,-inf"])
def test_run_rejects_non_finite_slice_times_before_solving(tmp_path, capsys,
                                                          times):
    scn = _write(tmp_path, TRIPOD)
    out = tmp_path / "o"
    assert main(["run", "--scenario", scn, "--out", str(out),
                 "--dump-slices", times]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: --dump-slices: times must be finite")
    assert not out.exists()


def test_negative_bump_writes_positive_zero_ends(tmp_path):
    with open(TRIPOD_SCN, encoding="utf-8") as fh:
        text = fh.read()
    assert "e1 constant 0\n" in text
    scn = _write(tmp_path, text.replace("e1 constant 0\n",
                                        "e1 bump -0.2 0.5 0.25\n"))
    out = tmp_path / "bump"
    assert main(["run", "--scenario", scn, "--out", str(out),
                 "--checks", "none"]) == 0
    rows = [line.split(",") for line in
            (out / "solution.csv").read_text().splitlines()[1:]]
    first = [r for r in rows if r[0] == "e1" and r[2] == "0"]
    assert first[0] == ["e1", "0", "0", "0"]
    assert first[-1] == ["e1", "1", "0", "0"]
    assert min(float(r[3]) for r in first) == pytest.approx(-0.2)


def test_run_with_checks_none_skips_verification(tmp_path):
    scn = _write(tmp_path, TRIPOD)
    out = str(tmp_path / "nochecks")
    assert main(["run", "--scenario", scn, "--out", out,
                 "--checks", "none"]) == 0
    report = json.loads((tmp_path / "nochecks" / "report.json").read_text())
    assert report["checks"] == [] and report["ok"]


def test_run_is_byte_deterministic(tmp_path):
    scn = _write(tmp_path, TRIPOD)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--scenario", scn, "--out", a]) == 0
    assert main(["run", "--scenario", scn, "--out", b]) == 0
    assert filecmp.cmp(f"{a}/solution.csv", f"{b}/solution.csv", shallow=False)
    assert filecmp.cmp(f"{a}/vertex_traces.csv", f"{b}/vertex_traces.csv",
                       shallow=False)


def test_dumped_solution_roundtrips_through_verify(tmp_path):
    scn = _write(tmp_path, TRIPOD)
    out = str(tmp_path / "rt")
    assert main(["run", "--scenario", scn, "--out", out]) == 0
    report = json.loads((tmp_path / "rt" / "report.json").read_text())
    sc, _ = parse_scenario(TRIPOD)
    reloaded = load_solution_csv(out, sc)
    rep2 = hj.verify(reloaded)
    original = {c["name"]: c["ok"] for c in report["checks"]}
    roundtrip = {c.name: c.ok for c in rep2.checks}
    assert original == roundtrip


def test_mixed_scenario_passes_the_checks_that_hold_on_it(tmp_path):
    # one arc of each Hamiltonian kind; the time checks and space_lipschitz
    # still fail on valid input, so they are left out
    scn = os.path.join(os.path.dirname(TRIPOD_SCN), "mixed.scn")
    assert main(["run", "--scenario", scn, "--out",
                 str(tmp_path / "mixed")]) == 0


@pytest.mark.parametrize("row, name", [("e1,0.1875,0,", "edge 'e1'"),
                                       ("x1,0.", "vertex 'x1'")])
def test_verify_rejects_a_non_finite_value_read_back(tmp_path, row, name):
    out = tmp_path / "nan"
    assert main(["run", "--scenario", TRIPOD_SCN, "--ns", "16",
                 "--out", str(out)]) == 0
    csv = "solution.csv" if row.startswith("e") else "vertex_traces.csv"
    lines = (out / csv).read_text().splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith(row))
    lines[k] = lines[k].rsplit(",", 1)[0] + ",nan\n"
    (out / csv).write_text("".join(lines))
    sc, _ = parse_scenario_file(TRIPOD_SCN, ns=16)
    reloaded = load_solution_csv(str(out), sc)
    with pytest.raises(ValidationError, match=f"{name} is not finite"):
        hj.verify(reloaded)
    with pytest.raises(ValidationError, match=f"{name} is not finite"):
        hj.verify(reloaded, checks=["limiter"])


def test_reload_rebuilds_the_solve_constants(tmp_path):
    sc = make_mixed(12)  # nonzero positivity shift, all three kinds
    sol = hj.solve(sc)
    out = str(tmp_path / "rc")
    write_solution_csv(sol, out)
    reloaded = load_solution_csv(out, sc)
    assert reloaded.constants == sol.constants
    assert all(np.array_equal(reloaded.fields[e], sol.fields[e])
               for e in sol.fields)


def test_refine_calibrates_epsilon(tmp_path):
    scn = _write(tmp_path, TRIPOD)
    out = str(tmp_path / "ref")
    assert main(["run", "--scenario", scn, "--out", out, "--ns", "40",
                 "--refine", "1"]) == 0
    report = json.loads((tmp_path / "ref" / "report.json").read_text())
    assert report["refine"]["C"] > 0.0
    assert report["eps_scheme"] == pytest.approx(
        3.0 * report["refine"]["C"]
        * (1.0 / 40 + report["constants"]["dt"]), rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "--refine", "1"],
    ["oracle", "--oracle", "refine"],
    ["oracle", "--oracle", "hopflax"],
], ids=["run", "run-refine", "oracle-refine", "oracle-hopflax"])
def test_a_time_step_over_the_cfl_cap_exits_2_before_writing(tmp_path, capsys,
                                                             argv):
    scn = _write(tmp_path, TRIPOD.replace("T = 1.0", "T = 1.0\ndt = 1.0"))
    out = tmp_path / "o"
    assert main([*argv, "--scenario", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: requested dt 1.0 exceeds")
    assert argv[0] == "oracle" or not out.exists()


def test_refine_keeps_a_given_time_step_in_ratio_with_ds(tmp_path):
    scn = _write(tmp_path, TRIPOD.replace("T = 1.0", "T = 1.0\ndt = 0.012"))
    out = tmp_path / "ref"
    assert main(["run", "--scenario", scn, "--out", str(out),
                 "--refine", "1"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] and report["refine"]["C"] > 0.0


def test_oracle_g(tmp_path):
    out = str(tmp_path / "og")
    assert main(["oracle", "--oracle", "g", "--out", out, "--seed", "5",
                 "--length", "400"]) == 0
    lines = (tmp_path / "og" / "g_oracle.csv").read_text().splitlines()
    assert lines[0] == "t,psi,capped,capped_brute"
    assert len(lines) == 401


@pytest.mark.parametrize("flags, message", [
    (["--oracle", "refine"], "--oracle refine needs --scenario"),
    (["--oracle", "hopflax"], "--oracle hopflax needs --scenario"),
    (["--oracle", "g", "--length", "0"], "--length must be at least 1"),
    (["--oracle", "g", "--dt", "0"], "--dt must be positive"),
    (["--oracle", "g", "--slope", "0"], "--slope must be negative"),
], ids=["refine-no-scenario", "hopflax-no-scenario", "g-length-0",
        "g-dt-0", "g-slope-0"])
def test_oracle_rejects_bad_flags_before_writing(tmp_path, capsys, flags,
                                                 message):
    out = tmp_path / "o"
    assert main(["oracle", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--oracle", "g", "--dt", "inf"], "--dt must be finite"),
    (["--oracle", "g", "--dt", "nan"], "--dt must be finite"),
    (["--oracle", "g", "--slope=-inf"], "--slope must be finite"),
    (["--oracle", "g", "--slope", "inf"], "--slope must be finite"),
    (["--oracle", "g", "--slope", "nan"], "--slope must be finite"),
], ids=["g-dt-inf", "g-dt-nan", "g-slope-minus-inf", "g-slope-inf",
        "g-slope-nan"])
def test_oracle_rejects_non_finite_flags_before_writing(tmp_path, capsys,
                                                        flags, message):
    out = tmp_path / "o"
    assert main(["oracle", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_oracle_refine_and_hopflax(tmp_path, capsys):
    scn = _write(tmp_path, TRIPOD)
    out = str(tmp_path / "or")
    assert main(["oracle", "--oracle", "refine", "--scenario", scn, "--out",
                 out, "--ns", "30", "--refine", "2"]) == 0
    assert "order" in capsys.readouterr().out
    rows = (tmp_path / "or" / "refine.csv").read_text().splitlines()[1:]
    orders = [float(r.split(",")[4]) for r in rows[1:]]
    assert all(o >= 0.8 for o in orders)  # first-order level differences
    single = _write(tmp_path, SINGLE, "single.scn")
    assert main(["oracle", "--oracle", "hopflax", "--scenario", single,
                 "--out", out]) == 0
    rows = (tmp_path / "or" / "hopflax.csv").read_text().splitlines()[1:]
    # spot check the covering-line values for g(s) = s against the formula
    for row in rows[:2000:97]:
        _, s, t, u = row.split(",")
        s, t, u = float(s), float(t), float(u)
        assert u == pytest.approx(max(0.0, s - t) - t, abs=1e-12)


@pytest.mark.parametrize("diffs", [[0.1, 0.1], [0.1, 0.05, 0.06],
                                    [0.0, 0.0]],
                         ids=["flat", "rising", "zero"])
def test_oracle_refine_fails_when_a_level_difference_does_not_shrink(
        tmp_path, capsys, monkeypatch, diffs):
    scn = _write(tmp_path, TRIPOD)
    details = [{"ns": 30 * 2 ** k, "dt": 0.01 / 2 ** k, "diff": d}
               for k, d in enumerate(diffs)]
    monkeypatch.setattr("hjnet.cli.calibrate_epsilon",
                        lambda sc, levels: (1.0, details))
    assert main(["oracle", "--oracle", "refine", "--scenario", scn,
                 "--out", str(tmp_path / "or")]) == 1
    assert capsys.readouterr().out.startswith("FAIL refine oracle (C = 1, order ")
    rows = (tmp_path / "or" / "refine.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[3]) for r in rows] == diffs


def test_oracle_hopflax_rejects_s_dependence(tmp_path):
    text = SINGLE.replace("abs alpha=1 beta=0 kappa=1",
                          "quadratic alpha=1 kappa=1")
    scn = _write(tmp_path, text, "quad.scn")
    assert main(["oracle", "--oracle", "hopflax", "--scenario", scn,
                 "--out", str(tmp_path / "oh")]) == 2
