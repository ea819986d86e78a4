"""The CSV dumps: byte identity with the per-cell writer, the loader's
exact round trip and its layout errors."""

import dataclasses
import os
import re
import tempfile

import numpy as np
import pytest

import hjnet as hj
import hjnet.dump as dump
from hjnet.cli import _dump_slices, load_solution_csv, write_solution_csv
from hjnet.errors import ValidationError
from hjnet.network_solver import NetworkSolution
from hjnet.scenario_io import parse_scenario_file

from conftest import make_tripod

MIXED_SCN = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                         "scenarios", "mixed.scn")
TRIPOD_SCN = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                          "scenarios", "tripod.scn")


def _fmt(x):
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, str) else _fmt(c)
                              for c in row) + "\n")


def reference_write(solution, outdir, times):
    """The per-cell writer: every value through format(float(x), '.17g')."""
    os.makedirs(outdir, exist_ok=True)
    g = solution.grid
    s, t = g.s_nodes(), g.t_nodes()
    _write_csv(os.path.join(outdir, "solution.csv"), ["arc_id", "s", "t", "u"],
               ((eid, s[i], t[k], solution.fields[eid][k, i])
                for eid in sorted(solution.fields)
                for k in range(g.nt + 1) for i in range(g.ns + 1)))
    _write_csv(os.path.join(outdir, "vertex_traces.csv"),
               ["vertex_id", "t", "u"],
               ((x, t[k], solution.vertex[x][k])
                for x in sorted(solution.vertex) for k in range(g.nt + 1)))
    ks = [int(np.argmin(np.abs(t - want))) for want in times]
    _write_csv(os.path.join(outdir, "slices.csv"), ["arc_id", "t", "s", "u"],
               ((eid, t[k], s[i], solution.fields[eid][k, i])
                for k in ks for eid in sorted(solution.fields)
                for i in range(g.ns + 1)))


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e-300, 0.1, 1 / 3]
FINITE = [-0.0, 5e-324, 1e300, -1e-300, 0.1, 1 / 3, 2.0 ** 60, -7.0]


def awkward_solution():
    """A hand-built solution whose ids hold '%', '#' and '~' and whose
    values hold nan, +-inf, -0.0, the smallest subnormal, 1e300, exact
    integers (one trace of integer dtype) and random doubles."""
    net = hj.build_network(["x%s~", "y", "z"],
                           [("e%d", "x%s~", "y"), ("f#2", "y", "z")])
    fam = hj.family_from_edges(net, {"e%d": hj.abs_hamiltonian(kappa=1.0),
                                     "f#2": hj.abs_hamiltonian(kappa=1.0)})
    ns = 8
    sc = hj.Scenario(net, fam, {x: -1.5 for x in net.vertex_ids()},
                     {"e%d": np.zeros(ns + 1), "f#2": np.zeros(ns + 1)},
                     horizon=0.25, ns=ns, name="awkward")
    params = hj.plan_solve(sc)
    grid = hj.Grid2D(params.ns, sc.t0, params.dt, params.nt)
    shape = (grid.nt + 1, grid.ns + 1)
    n = shape[0] * shape[1]
    rng = np.random.default_rng(3)
    finite = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    finite[:len(FINITE)] = FINITE
    fields = {"e%d": np.resize(SPECIAL, shape),
              "f#2": finite.reshape(shape)}
    vertex = {"x%s~": np.resize(FINITE, grid.nt + 1),
              "y": np.arange(grid.nt + 1) * 7 - 3,
              "z": rng.normal(size=grid.nt + 1)}
    return NetworkSolution(scenario=sc, params=params, grid=grid,
                           fields=fields, vertex=vertex)


def test_row_template_writer_matches_the_per_cell_writer(tmp_path):
    sol = awkward_solution()
    times = [0.0, 0.1, 0.25]
    ref, new = str(tmp_path / "ref"), str(tmp_path / "new")
    reference_write(sol, ref, times)
    write_solution_csv(sol, new)
    _dump_slices(sol, new, times)
    for name in ("solution.csv", "vertex_traces.csv", "slices.csv"):
        with open(os.path.join(ref, name), "rb") as a, \
                open(os.path.join(new, name), "rb") as b:
            assert a.read() == b.read(), name


def _assert_same_dumps(ref, new):
    for name in ("solution.csv", "vertex_traces.csv", "slices.csv"):
        with open(os.path.join(ref, name), "rb") as a, \
                open(os.path.join(new, name), "rb") as b:
            assert a.read() == b.read(), name


def g17_mismatches(values):
    """The (format's text, _g17's text) pairs of the values that differ."""
    values = np.asarray(values).ravel()
    rows = dump._g17(values)
    got = np.concatenate([rows, np.full((len(rows), 1), 10, np.uint8)], 1)
    got = got[got != 0].tobytes().decode().split("\n")[:-1]
    want = [_fmt(v) for v in values.tolist()]
    assert len(got) == len(want)
    return [(w, g) for w, g in zip(want, got) if w != g]


def check_random_bit_patterns(n, seed, block=1 << 16):
    """_g17 against format(v, '.17g') on n doubles made of seeded random
    bits (all exponents, subnormals, nan and inf included), a block at a
    time; raises AssertionError naming the first values that differ."""
    rng = np.random.default_rng(seed)
    for start in range(0, n, block):
        bits = rng.integers(0, 2 ** 64, size=min(block, n - start),
                            dtype=np.uint64)
        bad = g17_mismatches(bits.view(np.float64))
        assert not bad, bad[:5]


def test_g17_matches_format_on_random_bit_patterns():
    check_random_bit_patterns(200_000, seed=28)


def _powers_of_ten():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


def _round_up_to_a_power_of_ten():
    # 18 nines: the nearest double's 17 digits carry to 10^k (or are 10^k)
    return np.array([float(f"9.99999999999999999e{k}")
                     for k in range(-300, 301)])


def _g_switch_points():
    # %g turns to exponent form below 1e-4 and from 1e17 on
    p = np.array([1e-5, 1e-4, 1e16, 1e17, 9.99999999999999999e-5,
                  9.99999999999999999e16, 12345678901234567.0,
                  1.2345678901234567e-4, 1.2345678901234567e-5])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


@pytest.mark.parametrize("values", [
    2.0 ** np.arange(-1074, 1024),
    _powers_of_ten(),
    _round_up_to_a_power_of_ten(),
    _g_switch_points(),
    np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, 0.5,
              2.0 ** -25, 3 * 2.0 ** -30, 5e-324, 1.7976931348623157e308]),
    np.array([0, 7, -3, 2 ** 53 + 1, 2 ** 63 - 1, -2 ** 63,
              12345678901234567], dtype=np.int64),
], ids=["powers_of_two", "powers_of_ten", "round_up_to_power_of_ten",
        "g_switch_points", "zeros_nan_inf_ties", "integer_dtype"])
def test_g17_matches_format_on_edge_cases(values):
    for signed in (values, -values):
        assert not g17_mismatches(signed)


def test_g17_leaves_ties_and_values_outside_its_window_to_format(
        monkeypatch):
    # 2^-25 = 2.98023223876953125e-08 is an exact tie at 17 digits
    seen = []
    monkeypatch.setattr(dump, "_fmt",
                        lambda v: seen.append(_fmt(v)) or _fmt(v))
    values = [2.0 ** -25, 0.1, -0.0, 1.0, np.nan, -np.inf, 1e300, 5e-324]
    assert not g17_mismatches(values)
    assert seen == ["2.9802322387695312e-08", "nan", "-inf",
                    "1.0000000000000001e+300", "4.9406564584124654e-324"]


@pytest.fixture(scope="module")
def mixed_96_reference(tmp_path_factory):
    """mixed.scn at ns 96 (all three kinds, exponent-form values) and its
    dump by the per-cell writer."""
    sc, _ = parse_scenario_file(MIXED_SCN, ns=96)
    sol = hj.solve(sc)
    ref = str(tmp_path_factory.mktemp("mixed96") / "ref")
    reference_write(sol, ref, [0.0, 0.5, 1.0])
    return sol, ref


@pytest.mark.parametrize("cells", [None, 1, 7 * 97],
                         ids=["default_blocks", "one_row", "seven_rows"])
def test_writer_matches_the_per_cell_writer_on_mixed_at_ns_96(
        tmp_path, monkeypatch, mixed_96_reference, cells):
    # blocks of one row of every file, and of 7 field rows, which do not
    # divide the nt + 1 = 292 rows of a field
    sol, ref = mixed_96_reference
    g = sol.grid
    assert (g.ns, (g.nt + 1) % 7) == (96, 5)
    if cells is not None:
        monkeypatch.setattr(dump, "_WRITE_CELLS", cells)
    new = str(tmp_path / "new")
    write_solution_csv(sol, new)
    _dump_slices(sol, new, [0.0, 0.5, 1.0])
    _assert_same_dumps(ref, new)
    with open(os.path.join(new, "solution.csv")) as fh:
        assert re.search(r"e-\d\d\n", fh.read())


def test_writer_matches_the_per_cell_writer_on_non_ascii_ids(tmp_path):
    # the ids' UTF-8 bytes go through the writer's byte canvas
    net = hj.build_network(["é", "b"], [("ü1", "é", "b")])
    fam = hj.family_from_edges(net, {"ü1": hj.abs_hamiltonian(kappa=1.0)})
    s = np.linspace(0.0, 1.0, 9)
    sol = hj.solve(hj.Scenario(net, fam, {"é": -1.0, "b": -1.0},
                               {"ü1": 0.1 * s * (1.0 - s)}, horizon=0.25,
                               ns=8, name="utf8"))
    ref, new = str(tmp_path / "ref"), str(tmp_path / "new")
    reference_write(sol, ref, [0.125])
    write_solution_csv(sol, new)
    _dump_slices(sol, new, [0.125])
    _assert_same_dumps(ref, new)


def test_loader_returns_the_written_doubles(tmp_path):
    sol = awkward_solution()
    out = str(tmp_path / "rt")
    write_solution_csv(sol, out)
    back = load_solution_csv(out, sol.scenario, sol.params)
    assert back.fields["f#2"].tobytes() == sol.fields["f#2"].tobytes()
    assert np.array_equal(back.fields["e%d"], sol.fields["e%d"],
                          equal_nan=True)
    for x, trace in sol.vertex.items():
        assert back.vertex[x].tobytes() == trace.astype(float).tobytes(), x


def test_verify_reports_a_violated_limiter_of_a_loaded_dump(tmp_path):
    sc = make_tripod(16)
    sol = hj.solve(sc)
    out = str(tmp_path / "rt")
    write_solution_csv(sol, out)
    # the same dump read against a limiter above min c_gamma = -1 at x0
    raised = dataclasses.replace(sc, limiter=dict(sc.limiter, x0=-0.75))
    with pytest.raises(ValidationError, match="flux limiter exceeds"):
        hj.validate_scenario(raised)
    back = load_solution_csv(out, raised, sol.params)
    rep = hj.verify(back)
    assert not rep["limiter"].ok
    assert rep["limiter"].margin == pytest.approx(-0.25, abs=1e-12)
    assert hj.verify(back, checks=["limiter"])["limiter"] == rep["limiter"]


def _drop_last(lines, n):
    return lines[:-n]


def _drop_edge(lines, eid):
    return [ln for ln in lines if not ln.startswith(f"{eid},")]


def _interleave(lines, _):
    # the last e1 row moved behind e3: every id present, e1 split in two
    body = lines[1:]
    last_e1 = max(i for i, ln in enumerate(body) if ln.startswith("e1,"))
    return [lines[0]] + body[:last_e1] + body[last_e1 + 1:] + [body[last_e1]]


def _garble(lines, _):
    return lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",u0\n"]


def _rename(lines, _):
    return [ln.replace("e3,", "e9,", 1) for ln in lines]


@pytest.mark.parametrize("name,edit,arg,match", [
    ("solution.csv", _drop_last, 5,
     r"solution\.csv: edge 'e3' has 590 rows, expected 595"),
    ("solution.csv", _drop_edge, "e2", r"solution\.csv: edge 'e2' is missing"),
    ("solution.csv", _interleave, None,
     r"solution\.csv: rows of edge 'e1' are not contiguous"),
    ("solution.csv", _rename, None, r"solution\.csv: unknown edge 'e9'"),
    ("solution.csv", _garble, None, r"solution\.csv: .*'u0'"),
    ("vertex_traces.csv", _drop_last, 1,
     r"vertex_traces\.csv: vertex 'x3' has 34 rows, expected 35"),
], ids=["short_block", "missing_edge", "not_contiguous", "unknown_edge",
        "not_a_number", "short_trace"])
def test_loader_names_the_file_and_id_of_a_bad_layout(tmp_path, name, edit,
                                                        arg, match):
    sc = make_tripod(16)
    sol = hj.solve(sc)
    out = tmp_path / "bad"
    write_solution_csv(sol, str(out))
    path = out / name
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines, arg)))
    with pytest.raises(ValidationError, match=match):
        load_solution_csv(str(out), sc, sol.params)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 5: load_solution_csv checks only the first and last s,t "
    "cells of each run, so a row out of place reloads"))
def test_a_dump_with_two_rows_swapped_reloads_its_field_or_is_refused(
        tmp_path):
    # rows (t_8, s = 8/16) and (t_9, s = 7/16) of e1 swapped: the dump
    # reloads with no error into another field, and of the battery only
    # interior_residual flags it
    sc, _ = parse_scenario_file(TRIPOD_SCN, ns=16)
    sol = hj.solve(sc)
    out = tmp_path / "swapped"
    write_solution_csv(sol, str(out))
    path = out / "solution.csv"
    lines = path.read_text().splitlines(keepends=True)
    a, b = 1 + 8 * 17 + 8, 1 + 9 * 17 + 7
    assert lines[a].startswith("e1,0.5,0.47") \
        and lines[b].startswith("e1,0.4375,0.52")
    lines[a], lines[b] = lines[b], lines[a]
    path.write_text("".join(lines))
    try:
        back = load_solution_csv(str(out), sc, sol.params)
    except ValidationError:
        return
    failed = [c.name for c in hj.verify(back).checks if not c.ok]
    assert back.fields["e1"].tobytes() == sol.fields["e1"].tobytes(), failed


def test_loader_rejects_a_dump_of_another_time_grid(tmp_path):
    # same block sizes (nt and ns agree), but every step twice as long
    sc = make_tripod(16)
    sol = hj.solve(sc)
    out = str(tmp_path / "grid")
    write_solution_csv(sol, out)
    longer = dataclasses.replace(sc, horizon=2.0 * sc.horizon)
    params = dataclasses.replace(sol.params, dt=2.0 * sol.params.dt)
    with pytest.raises(ValidationError,
                       match=r"solution\.csv: edge 'e1' runs from s,t = 0,0 "
                             r"to 1,2, but the grid from 0,0 to 1,4$"):
        load_solution_csv(out, longer, params)


def prefix_scenario(ns=4):
    """A path whose edge ids e1, e10, e100 and vertex ids x1, x10, x100
    prefix one another."""
    edges = ("e1", "e10", "e100")
    net = hj.build_network(["x", "x1", "x10", "x100"],
                           [("e1", "x", "x1"), ("e10", "x1", "x10"),
                            ("e100", "x10", "x100")])
    H = hj.abs_hamiltonian(kappa=1.0)
    fam = hj.family_from_edges(net, {e: H for e in edges})
    s = np.linspace(0.0, 1.0, ns + 1)
    return hj.Scenario(net, fam, {x: -1.0 for x in net.vertex_ids()},
                       {e: 0.1 * np.minimum(s, 1.0 - s) for e in edges},
                       horizon=0.25, ns=ns, name="prefix")


def _dump(sc, tmp_path, name=None, edit=None):
    """Solve sc and dump it; edit(bytes) rewrites the file called name."""
    sol = hj.solve(sc)
    out = tmp_path / "dump"
    write_solution_csv(sol, str(out))
    if edit is not None:
        path = out / name
        path.write_bytes(edit(path.read_bytes()))
    return sol, str(out)


def _assert_round_trip(sol, out):
    back = load_solution_csv(out, sol.scenario, sol.params)
    for eid, values in sol.fields.items():
        assert back.fields[eid].tobytes() == values.tobytes(), eid
    for x, trace in sol.vertex.items():
        assert back.vertex[x].tobytes() == trace.astype(float).tobytes(), x


def _relabel_last(old, new):
    """The last row of id old relabelled as id new."""
    def edit(data):
        lines = data.splitlines(keepends=True)
        i = max(i for i, ln in enumerate(lines) if ln.startswith(old + b","))
        lines[i] = new + lines[i][len(old):]
        return b"".join(lines)
    return edit


def _insert(n, line):
    def edit(data):
        lines = data.splitlines(keepends=True)
        return b"".join(lines[:n] + [line] + lines[n:])
    return edit


def _replace(n, line):
    def edit(data):
        lines = data.splitlines(keepends=True)
        return b"".join(lines[:n] + [line] + lines[n + 1:])
    return edit


def _crlf(data):
    return data.replace(b"\n", b"\r\n")


def test_loader_keeps_ids_that_prefix_one_another_apart(tmp_path):
    _assert_round_trip(*_dump(prefix_scenario(), tmp_path))


@pytest.mark.parametrize("name,edit,message", [
    ("solution.csv", _relabel_last(b"e1", b"e10"),
     "solution.csv: edge 'e1' has 14 rows, expected 15"),
    ("vertex_traces.csv", _relabel_last(b"x1", b"x10"),
     "vertex_traces.csv: vertex 'x1' has 2 rows, expected 3"),
    ("solution.csv", lambda d: d.replace(b"\ne10,", b"\ne100,", 1),
     "solution.csv: rows of edge 'e100' are not contiguous"),
], ids=["e1-row-as-e10", "x1-row-as-x10", "e10-row-as-e100"])
def test_loader_names_an_id_whose_row_took_a_longer_id(tmp_path, name, edit,
                                                       message):
    sol, out = _dump(prefix_scenario(), tmp_path, name, edit)
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        load_solution_csv(out, sol.scenario, sol.params)


@pytest.mark.parametrize("name", ["solution.csv", "vertex_traces.csv"])
@pytest.mark.parametrize("edit", [lambda d: d[:-1], _crlf],
                         ids=["no-final-newline", "crlf"])
def test_loader_reads_crlf_and_a_last_line_without_its_newline(tmp_path, name,
                                                               edit):
    _assert_round_trip(*_dump(make_tripod(16), tmp_path, name, edit))


@pytest.mark.parametrize("name,edit,message", [
    ("solution.csv", _insert(10, b"\n"), "solution.csv: unknown edge '\\n'"),
    ("solution.csv", lambda d: _insert(10, b"\r\n")(_crlf(d)),
     "solution.csv: unknown edge '\\n'"),
    ("solution.csv", _replace(10, b"0.5\n"),
     "solution.csv: unknown edge '0.5\\n'"),
    # a last line with no comma and no newline is its own id, here x3's
    ("vertex_traces.csv", lambda d: d + b"x3",
     "vertex_traces.csv: vertex 'x3' has 36 rows, expected 35"),
], ids=["blank-line", "crlf-blank-line", "no-comma", "no-comma-last-line"])
def test_loader_names_blank_and_comma_free_lines(tmp_path, name, edit,
                                                 message):
    sol, out = _dump(make_tripod(16), tmp_path, name, edit)
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        load_solution_csv(out, sol.scenario, sol.params)


@pytest.mark.parametrize("name", ["solution.csv", "vertex_traces.csv"])
def test_loader_names_the_file_of_a_byte_that_is_not_utf8(tmp_path, name):
    sol, out = _dump(make_tripod(16), tmp_path, name, _replace(10, b"\xff\n"))
    with pytest.raises(ValidationError,
                       match=re.escape(name) + ": 'utf-8' codec can't decode"):
        load_solution_csv(out, sol.scenario, sol.params)


@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
def test_loader_joins_runs_across_chunk_boundaries(tmp_path, monkeypatch,
                                                   shift, crlf):
    # the first chunk ends at e1's last newline (shift 0), one byte before
    # it (between CR and LF with crlf) or one byte after it
    sol, out = _dump(make_tripod(16), tmp_path, "solution.csv",
                     _crlf if crlf else None)
    data = (tmp_path / "dump" / "solution.csv").read_bytes()
    boundary = data.index(b"\ne2,") + 1
    monkeypatch.setattr(dump, "_CHUNK", boundary + shift)
    _assert_round_trip(sol, out)
    # a blank line right at the boundary is still its own run
    path = tmp_path / "dump" / "solution.csv"
    path.write_bytes(data[:boundary] + data[boundary - 1 - crlf:boundary]
                     + data[boundary:])
    with pytest.raises(ValidationError,
                       match=re.escape("solution.csv: unknown edge '\\n'")):
        load_solution_csv(out, sol.scenario, sol.params)


def _old_loadtxt(path):
    """The u column as one np.loadtxt call over the whole file reads it."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=-1, ndmin=1,
                      comments=None)


def read_u(path, texts):
    """Write texts as the u column of a vertex dump of the one id x at t =
    0, and read it back: (the loader's doubles, the texts it left to
    np.loadtxt)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertex_id,t,u\n")
        fh.writelines(f"x,0,{t}\n" for t in texts)
    calls, real = [], dump._loadtxt

    def spy(lines):
        calls.append([line.rpartition(",")[2] for line in lines])
        return real(lines)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dump, "_loadtxt", spy)
        u = dump._read_u_blocks(str(path), "vertex", ["x"], len(texts),
                               ("0", "0"))["x"]
    return u, calls[0] if calls else []


def _same_doubles(a, b):
    """Bitwise equal, except that any nan matches any nan."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))


def reload_mismatches(path, texts):
    """The (text, float(text), loaded) triples of the texts whose loaded
    double is not float(text)."""
    got, _ = read_u(path, texts)
    want = np.array([float(t) for t in texts])
    return [(texts[i], want[i], got[i])
            for i in np.flatnonzero(~_same_doubles(got, want))]


def check_reload_of_random_bit_patterns(n, seed, block=1 << 16):
    """The loader against float() on n doubles made of seeded random bits
    (all exponents, subnormals, nan and inf included), as the writer's
    %.17g texts and as repr's shortest texts, a block at a time; raises
    AssertionError naming the first texts read otherwise."""
    rng = np.random.default_rng(seed)
    key = dump._text_cells(["x,0,"])[None]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u.csv")
        for start in range(0, n, block):
            x = rng.integers(0, 2 ** 64, size=min(block, n - start),
                             dtype=np.uint64).view(np.float64)
            with open(path, "w", encoding="utf-8") as fh:
                dump._write_lines(fh, [key], x[:, None])
            with open(path, encoding="utf-8") as fh:
                written = [line[4:] for line in fh.read().splitlines()]
            assert written == [_fmt(v) for v in x.tolist()]
            for texts in (written, [repr(v) for v in x.tolist()]):
                bad = reload_mismatches(path, texts)
                assert not bad, bad[:5]


def test_loader_reads_random_bit_patterns_as_float_does():
    check_reload_of_random_bit_patterns(100_000, seed=30)


# in the window and of the form the loader reads itself
CANONICAL = ["0", "-0", "0.0", "-0.000", "5.", ".5", "-.5", "00012", "1.5",
             "-0.00012345678901234567", "123456789012345678",
             "1.2345678901234567", "1e+16", "-1.5e-05", "2.5e+100",
             "1.2345678901234567e-249", "9.9999999999999999e+278", "1e+262",
             "-9.8765432109876543e-100", "4.5e+00", "7e-07",
             # either side of the ties below 2^53 and below 1
             "9007199254740991.4", "9007199254740991.6",
             "0.99999999999999994", "0.99999999999999995"]


def test_loader_reads_canonical_texts_as_float_does(tmp_path):
    got, slow = read_u(tmp_path / "u.csv", CANONICAL)
    assert slow == []
    assert _same_doubles(got, [float(t) for t in CANONICAL]).all()
    assert np.signbit(got[[1, 3]]).all()


@pytest.mark.parametrize("texts", [
    ["0", "-0", "4.9406564584124654e-324", "-2.2250738585072009e-308",
     "nan", "inf", "-inf", "1.7976931348623157e+308"],
    [" 1.5 ", "+2", "1E5", "Infinity", "-nan", "1.5\t", "1e5", "1e+5",
     "1.5e+0001", "-infinity"],
], ids=["zeros_subnormals_nan_inf", "non_canonical"])
def test_loader_reads_what_loadtxt_reads(tmp_path, texts):
    path = tmp_path / "u.csv"
    got, _ = read_u(path, texts)
    assert _same_doubles(got, _old_loadtxt(path)).all()
    assert _same_doubles(got, [float(t) for t in texts]).all()


@pytest.mark.parametrize("texts", [
    ["9007199254740993", "-18014398509481986", "1.8014398509481986e+16",
     "9007199254740991.5"],
    ["1.2345678901234567890", "9007199254740993.0001",
     "-0.1234567890123456789"],
    ["1e-300", "1e-266", "4.9406564584124654e-324",
     "1.7976931348623157e+308", "1e+263", "1.2345678901234567e-250"],
    ["1e5", "1e+5", "1E+05", "1.5e+0001", "1.5e-5"],
    [" 1.5 ", "+2", "Infinity", "nan", "inf", "-inf", "1.5\t"],
    ["0.000000000000000000000001", "-1234567890123456789012345"],
], ids=["tie", "over_18_digits", "off_the_window", "exponent_form",
        "not_a_mantissa", "longer_than_the_window"])
def test_loader_leaves_each_kind_of_text_to_loadtxt(tmp_path, texts):
    path = tmp_path / "u.csv"
    got, slow = read_u(path, ["0.5", *texts, "-1.25"])
    assert slow == texts
    assert _same_doubles(got, _old_loadtxt(path)).all()


@pytest.mark.parametrize("text", ["1_0", "u0", "1.2.3", "--1", "-", ".", "",
                                  "1e+05e+05", "0x10", "1,5e+0x"])
def test_loader_rejects_what_loadtxt_rejects_with_its_message(tmp_path,
                                                              text):
    # float() reads 1_0 as 10; loadtxt does not, and its message names the
    # row and column in the file, after rows read here and by loadtxt
    path = tmp_path / "u.csv"
    with pytest.raises(ValidationError) as got:
        read_u(path, ["0.5", "nan", "1E5", "2.5", text, "x"])
    with pytest.raises(ValueError) as want:
        _old_loadtxt(path)
    assert str(got.value) == f"{path}: {want.value}"
    assert "at row 4, column " in str(got.value)


def test_loader_reads_across_blocks_of_lines_and_of_values(tmp_path,
                                                           monkeypatch):
    # blocks of a few lines, parsed 3 values at a time, with nan, inf,
    # subnormals and 1e300 left to loadtxt
    sol = awkward_solution()
    out = str(tmp_path / "rt")
    write_solution_csv(sol, out)
    monkeypatch.setattr(dump, "_CHUNK", 100)
    monkeypatch.setattr(dump, "_READ_ROWS", 3)
    back = load_solution_csv(out, sol.scenario, sol.params)
    for eid, values in sol.fields.items():
        assert _same_doubles(back.fields[eid], values).all(), eid
    for x, trace in sol.vertex.items():
        assert back.vertex[x].tobytes() == trace.astype(float).tobytes(), x
