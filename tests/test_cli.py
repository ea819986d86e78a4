"""Scenario parsing, CLI exit codes, CSV determinism, round-trips."""

import filecmp
import json
import os

import numpy as np
import pytest

import hjnet as hj
import hjnet.cli as hj_cli
from hjnet import network_solver
from hjnet.cli import load_solution_csv, main, write_solution_csv
from hjnet.errors import HJNetError, ScenarioParseError, ValidationError
from hjnet.network_solver import CHECK_NAMES
from hjnet.scenario_io import parse_scenario, parse_scenario_file

from conftest import make_mixed, make_tripod

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
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1",
     "e3 x3 x0 abs alpha=1 beta=0 kapa=1"),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1", "e3 x3 x0 abs kappa="),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1", "e3 x3 x0 quadratic beta="),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1", "e3 x3 x0 abs alpha= kappa=1"),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1",
     "e3 x3 x0 abs alpha=1 beta=0 kappa=1 kappa=2"),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1",
     SAMPLED_E3.replace("npts=abc", "npts=5 alpha=1")),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1",
     SAMPLED_E3.replace("npts=abc", "npts=100000000")),
    ("x0 -2", "x0 -2\nx0 -3"),
    ("default -1", "default -1\ndefault -3"),
    ("e1 constant 0", "e1 constant 0\ne1 constant 1"),
    ("ns = 60", "ns = 60\nns = 40"),
    ("T = 1.0", "T = 1.0\nhorizon = 0.5"),
    ("T = 1.0", "T = 1.0\nt = 0.5"),
    ("checks = all", "checks = all\nchecks = none"),
    ("checks = all", "checks = ,"),
    ("T = 1.0", "T = 1.0\ndt = 0.01\ncfl = 0.5"),
    ("T = 1.0", "T = 1.0\ncfl = 0.5\ndt = 0.01"),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1",
     "e3 x3 x0 abs alpha=1 beta=0 kappa=1,x"),
    ("e1 constant 0", "e1 samples 0,x"),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1", "e3 x3 x0 abs alpha=1 beta kappa=1"),
    ("e3 x3 x0 abs alpha=1 beta=0 kappa=1",
     SAMPLED_E3.replace("npts=abc slope=5", "npts=5")),
    ("e1 constant 0", "e1 bump 0.2 0.1 0.2"),
    ("e1 constant 0", "e1 samples 3"),
    ("e1 constant 0", "e1 wave 1"),
    ("[vertices]", "vertices"),
    ("T = 1.0", "T 1.0"),
    ("checks = all", "check = all"),
    ("e1 x1 x0 abs alpha=1 beta=0 kappa=1", "e1 x1 x0"),
    ("x0 -2", "x0"),
    ("x0 -2", "x9 -2"),
    ("e1 constant 0", "e9 constant 0"),
], ids=["limiter-abc", "horizon-abc", "ns-2.5", "linear-x", "bare-initial",
        "sampled-npts-abc", "alpha-0", "alpha-nan", "abs-kapa", "kappa-empty",
        "beta-empty", "alpha-empty", "kappa-twice",
        "sampled-alpha", "sampled-npts-too-many", "limiter-twice",
        "default-twice", "initial-twice", "ns-twice", "horizon-after-T",
        "t-after-T", "checks-twice", "checks-empty", "dt-then-cfl",
        "cfl-then-dt", "kappa-x", "samples-x", "key-without-value",
        "sampled-no-slope", "bump-outside", "one-sample", "unknown-profile",
        "before-any-section", "run-without-equals", "unknown-run-key",
        "edge-without-kind", "limiter-without-value", "limiter-unknown-vertex",
        "initial-unknown-edge"])
def test_bad_values_are_parse_errors_with_their_line(tmp_path, capsys, old,
                                                     new):
    # a replacement of several lines ends in a repeat or a conflict, an
    # error on its last line
    text = TRIPOD.replace(old, new)
    line = next(i for i, ln in enumerate(text.splitlines(), start=1)
                if ln == new.splitlines()[-1])
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert err.value.line == line
    out = tmp_path / "o"
    assert main(["run", "--scenario", _write(tmp_path, text),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")
    assert not out.exists()


def test_a_vertex_without_a_limiter_needs_a_default(tmp_path, capsys):
    # the error belongs to no one line of the file
    text = TRIPOD.replace("default -1", "x1 -1")
    with pytest.raises(ScenarioParseError,
                       match="^no flux limiter for vertex 'x2' and no "
                             "default$") as err:
        parse_scenario(text)
    assert err.value.line is None
    assert main(["run", "--scenario", _write(tmp_path, text),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: no flux limiter for ")


def test_a_cfl_override_replaces_the_files_time_step():
    text = TRIPOD.replace("T = 1.0", "T = 1.0\ndt = 0.01")
    assert parse_scenario(text)[0].dt == 0.01
    sc, _ = parse_scenario(text, cfl=0.5)
    assert sc.dt is None and sc.cfl == 0.5


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


@pytest.mark.parametrize("checks", ["all", "none"])
def test_report_times_the_solve_the_checks_and_the_dump(tmp_path, checks):
    scn = _write(tmp_path, TRIPOD)
    out = tmp_path / "out"
    assert main(["run", "--scenario", scn, "--out", str(out), "--checks",
                 checks, "--dump-slices", "0.5"]) == 0
    timing = json.loads((out / "report.json").read_text())["timing"]
    assert list(timing) == ["parse_s", "plan_s", "solve_s", "verify_s",
                            "write_s", "total_s"]
    assert all(v >= 0 for v in timing.values())
    # total_s starts at the solve: the parse and the plan are outside it
    parts = timing["solve_s"] + timing["verify_s"] + timing["write_s"]
    assert parts <= timing["total_s"]


def test_run_exits_1_when_an_enabled_check_fails(tmp_path, monkeypatch,
                                                capsys):
    # a negative tolerance fails every check gated on eps; the dump and the
    # report are written all the same
    real = hj_cli.verify
    monkeypatch.setattr(hj_cli, "verify", lambda sol, eps_scheme=None,
                        checks=None: real(sol, -1.0, checks))
    scn = _write(tmp_path, TRIPOD)
    out = tmp_path / "out"
    assert main(["run", "--scenario", scn, "--out", str(out), "--checks",
                 "limiter,time_lipschitz"]) == 1
    report = json.loads((out / "report.json").read_text())
    assert not report["ok"]
    assert [(c["name"], c["ok"]) for c in report["checks"]] == [
        ("limiter", True), ("time_lipschitz", False)]
    assert "FAIL time_lipschitz" in capsys.readouterr().out
    assert (out / "solution.csv").exists()


def test_run_exits_2_on_an_output_path_that_is_a_file(tmp_path, capsys,
                                                     monkeypatch):
    # the output directory is made before the solve, so nothing is solved
    # for a dump that cannot be written
    def no_solve(*args):
        raise AssertionError("solved before the output directory was made")

    monkeypatch.setattr(hj_cli, "solve", no_solve)
    scn = _write(tmp_path, TRIPOD)
    out = tmp_path / "file"
    out.write_text("")
    assert main(["run", "--scenario", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize("flags, target", [
    ([], "solve"), (["--refine", "1"], "_calibrate_from"),
], ids=["solve", "refine"])
def test_run_exits_2_when_the_solve_or_the_refinement_raises(
        tmp_path, capsys, monkeypatch, flags, target):
    def fail(*args):
        raise HJNetError(f"{target} failed")

    monkeypatch.setattr(hj_cli, target, fail)
    out = tmp_path / "out"
    assert main(["run", "--scenario", _write(tmp_path, TRIPOD), "--out",
                 str(out), *flags]) == 2
    assert capsys.readouterr().err == f"error: {target} failed\n"
    assert not (out / "report.json").exists()


def test_run_exits_2_when_the_dump_cannot_be_written(tmp_path, capsys):
    scn = _write(tmp_path, TRIPOD)
    out = tmp_path / "out"
    (out / "solution.csv").mkdir(parents=True)
    assert main(["run", "--scenario", scn, "--out", str(out),
                 "--checks", "none"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "solution.csv") in err


def test_slice_times_at_the_ends_of_the_span_are_kept(tmp_path):
    scn = _write(tmp_path, TRIPOD)
    out = tmp_path / "out"
    assert main(["run", "--scenario", scn, "--out", str(out), "--checks",
                 "none", "--dump-slices", "1,0"]) == 0
    rows = (out / "slices.csv").read_text().splitlines()[1:]
    times = [float(t) for t in dict.fromkeys(r.split(",")[1] for r in rows)]
    assert times == [pytest.approx(1.0, abs=1e-12), 0.0]


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
    (["--dump-slices=-3,99"], "in the span [0, 1], got -3"),
    (["--checks="], "no check named in ''; 'none' runs no check"),
    (["--checks", ","], "no check named in ','; 'none' runs no check"),
], ids=["ns-1", "slice-time-abc", "refine-negative", "slice-time-off-span",
        "checks-empty", "checks-comma"])
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


def test_mixed_scenario_passes_the_whole_battery(tmp_path):
    # one arc of each Hamiltonian kind, at its own ns (48) and at ns 96,
    # where a space-slope bound that was not taken set by set failed
    scn = os.path.join(os.path.dirname(TRIPOD_SCN), "mixed.scn")
    for extra in ([], ["--ns", "96"]):
        out = tmp_path / f"mixed{len(extra)}"
        assert main(["run", "--scenario", scn, "--out", str(out), *extra]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [c["name"] for c in report["checks"]] == list(CHECK_NAMES)


def test_drift_scenario_passes_the_whole_battery(tmp_path):
    # the minimizer of H drifts with s, so the sublevel sets at m0 share no
    # momentum: a slope budget read off their intersection had none to give
    scn = os.path.join(os.path.dirname(TRIPOD_SCN), "drift.scn")
    out = tmp_path / "drift"
    assert main(["run", "--scenario", scn, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == list(CHECK_NAMES)
    assert report["ok"] and all(c["ok"] for c in report["checks"])


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
    ["run", "--refine", "2"],
], ids=["run", "run-refine", "run-refine-2"])
def test_a_time_step_over_the_cfl_cap_exits_2_before_writing(tmp_path, capsys,
                                                             argv):
    scn = _write(tmp_path, TRIPOD.replace("T = 1.0", "T = 1.0\ndt = 1.0"))
    out = tmp_path / "o"
    assert main([*argv, "--scenario", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: requested dt 1.0 exceeds")
    assert not out.exists()


def test_refine_keeps_a_given_time_step_in_ratio_with_ds(tmp_path):
    scn = _write(tmp_path, TRIPOD.replace("T = 1.0", "T = 1.0\ndt = 0.012"))
    out = tmp_path / "ref"
    assert main(["run", "--scenario", scn, "--out", str(out),
                 "--refine", "1"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] and report["refine"]["C"] > 0.0


@pytest.mark.parametrize("flags", [
    ["--oracle", "refine"],
    ["--oracle", "refine", "--scenario", "any.scn", "--refine", "1"],
    ["--oracle", "refine", "--scenario", "any.scn", "--refine", "0"],
], ids=["refine-no-scenario", "refine-1", "refine-0"])
def test_oracle_rejects_bad_flags_before_writing(tmp_path, flags):
    # the refinement verdict is run --refine's; oracle is no subcommand, so
    # argparse exits 2 before anything is written
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["oracle", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_run_refine_reports_convergence_orders(tmp_path, capsys):
    scn = _write(tmp_path, TRIPOD)
    out = tmp_path / "ref"
    assert main(["run", "--scenario", scn, "--out", str(out), "--ns", "30",
                 "--refine", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "PASS refine (C = ")
    refine = json.loads((out / "report.json").read_text())["refine"]
    assert len(refine["levels"]) == 2 and refine["ok"]
    assert len(refine["orders"]) == 1
    assert all(o >= 0.8 for o in refine["orders"])  # first order


def test_run_refine_marches_each_level_once(tmp_path, monkeypatch):
    # the run's own solution is level 0 of the refinement study
    grids = []
    ensemble = network_solver.solve_ensemble

    def spy(scenarios, params):
        scenarios = list(scenarios)
        grids.append(tuple(sc.ns for sc in scenarios))
        return ensemble(scenarios, params)

    monkeypatch.setattr(network_solver, "solve_ensemble", spy)
    out = tmp_path / "ref"
    assert main(["run", "--scenario", TRIPOD_SCN, "--out", str(out),
                 "--refine", "2"]) == 0
    assert grids == [(100,), (200,), (400,)]
    refine = json.loads((out / "report.json").read_text())["refine"]
    C, details = hj.calibrate_epsilon(parse_scenario_file(TRIPOD_SCN)[0],
                                      levels=3)
    assert refine["C"] == C
    assert [{k: d[k] for k in ("ns", "dt", "diff")}
            for d in refine["levels"]] == details


def test_run_refine_times_each_level_and_calibrate_epsilon_does_not(
        tmp_path):
    # a level's solve_s is the wall time of the finer solve its diff
    # compares it with; calibrate_epsilon's value holds no wall time, so a
    # digest of it stays stable from run to run
    out = tmp_path / "ref"
    assert main(["run", "--scenario", _write(tmp_path, TRIPOD), "--out",
                 str(out), "--ns", "30", "--refine", "2"]) == 0
    report = json.loads((out / "report.json").read_text())
    levels = report["refine"]["levels"]
    assert [list(d) for d in levels] == [["ns", "dt", "diff", "solve_s"]] * 2
    assert all(type(d["solve_s"]) is float and d["solve_s"] >= 0.0
               for d in levels)
    assert sum(d["solve_s"] for d in levels) <= report["timing"]["total_s"]
    got = hj.calibrate_epsilon(make_tripod(16), levels=3)
    assert len(got) == 2
    assert [list(d) for d in got[1]] == [["ns", "dt", "diff"]] * 2


@pytest.mark.parametrize("diffs, orders", [
    ([0.1, 0.1], [0.0]),
    ([0.1, 0.05, 0.06], [1.0, float(np.log2(0.05 / 0.06))]),
    ([0.0, 0.0], [None]),     # nan is no JSON number
], ids=["flat", "rising", "zero"])
def test_run_refine_fails_when_a_level_difference_does_not_shrink(
        tmp_path, capsys, monkeypatch, diffs, orders):
    scn = _write(tmp_path, TRIPOD)
    details = [{"ns": 60 * 2 ** k, "dt": 0.01 / 2 ** k, "diff": d}
               for k, d in enumerate(diffs)]
    monkeypatch.setattr("hjnet.cli._calibrate_from",
                        lambda base, levels: (1.0, details,
                                              [0.0] * len(details)))
    out = tmp_path / "ref"
    assert main(["run", "--scenario", scn, "--out", str(out),
                 "--refine", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "FAIL refine (C = 1, order ")
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=pytest.fail)    # strict JSON
    assert not report["ok"] and not report["refine"]["ok"]
    assert [d["diff"] for d in report["refine"]["levels"]] == diffs
    assert report["refine"]["orders"] == orders
    assert (out / "solution.csv").exists()
    assert (out / "vertex_traces.csv").exists()


def test_dump_entry_points_are_defined_in_cli():
    # perfbench's tracer spans only functions whose __module__ is one of its
    # layers: cli is one, dump is not, so a re-export from hjnet.dump would
    # read 0 in the cli.* per-layer metrics
    for fn in (main, write_solution_csv, load_solution_csv):
        assert fn.__module__ == "hjnet.cli"
