"""The CSV dumps: byte identity with the per-cell writer, the loader's
exact round trip and its layout errors."""

import dataclasses
import os

import numpy as np
import pytest

import hjnet as hj
from hjnet.cli import _dump_slices, load_solution_csv, write_solution_csv
from hjnet.errors import ValidationError
from hjnet.network_solver import NetworkSolution

from conftest import make_tripod


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
