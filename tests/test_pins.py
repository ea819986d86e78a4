"""Bitwise pins of solver outputs, certificate, sublevel widths and CSVs.

The digests and hex values were taken from the scalar-loop implementation
the batched marching kernel replaced; the kernel must reproduce every bit.
The margins digests were retaken when the headroom check replaced the window
check, again when the inverse_consistency check was retired, again when
the two time checks moved from per-step rates to value forms, and again when
space_lipschitz moved to per-cell pointwise sublevel widths; every other
check row kept its margin bit for bit.  The CSV digests
were taken from the per-cell writer the row-template writer replaced.  The
width pins, and the mixed CSV digest (e5's theta reads its width), were
retaken when closed-form sublevel sets replaced a bisection: the widths
moved by at most 2 ulps, and the ternary one to its exact value.  They were
retaken again, with the mixed row and both mixed CSV digests, when the width
became the largest pointwise width over s instead of the width of the
intersection of the sets over s: every width pin has coefficients that vary
with s, and on make_mixed e3's and e5's thetas read their widths.  The
tripod and path rows, whose coefficients are constant in s, did not move.
The mixed margins digest was retaken once more when time_monotone moved to
the normalized field: make_mixed has a negative Hamiltonian, where the
check was skipped with margin 0, and it now gates the rise of the shifted
field.  Only that row moved; the tripod and path have shift 0, where the
normalized field is the field itself.  The mixed fields and transforms pins
and the mixed solution.csv digest were retaken when the sampled kind moved
to point-slope evaluation (each piece's value at its anchor knot plus its
slope times the distance): make_mixed's sampled arc e3 moves in the last
bits off the knots, while its vertex traces, its margins and its
vertex_traces.csv keep every bit, and the tripod and path rows, which have
no sampled arc, did not move.  The mixed solution.csv digest was retaken
once more when the sampled kind's momentum Lipschitz constant became the
stored slope of the cell its bound selects, not a rise over run evaluated
at the cut: make_mixed(12)'s theta on e3 moved by one ulp, from
0x1.2333333333334p+2 to 0x1.2333333333333p+2, while its dt, its nt, every
other theta, its vertex_traces.csv and every make_mixed(24) pin kept every
bit.
"""

import contextlib
import hashlib
import io
import os

import numpy as np
import pytest

import hjnet as hj
from hjnet.errors import EmptySublevelError
from hjnet.semidiscrete import VertexTraceSet, f_x

from hjnet.cli import main, write_solution_csv

from conftest import make_mixed, make_path, make_tripod

TRIPOD_SCN = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                          "scenarios", "tripod.scn")


def digest(arrays):
    h = hashlib.sha256()
    for key in sorted(arrays):
        h.update(f"{key}:".encode())
        h.update(np.ascontiguousarray(arrays[key], dtype=float).tobytes())
    return h.hexdigest()


def margins_digest(report):
    rows = [(c.name, c.ok, float(c.margin).hex()) for c in report.checks]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def vertex_transforms(sol, amp):
    """F_x at every vertex of the shifted trace set, lifted off consistency
    by amp.  The data use only exactly rounded arithmetic, so the pins hold
    on any IEEE-754 machine."""
    ts = sol.trace_set(shifted=True)
    t = sol.grid.t_nodes()
    wave = np.abs((t + 0.0625) % 0.25 - 0.125) - 0.0625  # zero at t = 0
    lifted = {x: v + amp * (i + 1) * wave
              for i, (x, v) in enumerate(sorted(ts.traces.items()))}
    lifted_ts = VertexTraceSet(sol.grid, lifted, ts.initial)
    fam = hj.positive_shift(sol.scenario.hamiltonians,
                            sol.scenario.limiter_values())[0]
    return {x: f_x(lifted_ts, sol.scenario.network, fam, x,
                   thetas=sol.params.theta)
            for x in sol.scenario.network.vertex_ids()}


NETWORKS = {
    "tripod": lambda: make_tripod(40, c_center=-1.75),
    "path": lambda: make_path(40, horizon=0.5),
    "mixed": lambda: make_mixed(24),
}

PINS = {
    "tripod": {
        "fields":
            "639e0178e97933f34d09e3d787cfce06851e10da8f57aaede4a963aa9c899f63",
        "vertex":
            "5c062d6d434e73fb26f94cef24df293c2549ab90ac5298a9e85d8559e304881a",
        "margins":
            "7e5b885fd4a5d0e9ce7dad49532044a98b0c35f0f58f3a0ed1a1f60f8ab1e5f4",
        "transforms":
            "de00c0164fae10cc81b01adf8669585e31a950538e172e593349cc72503ae561",
    },
    "path": {
        "fields":
            "37698d6ebf74692a4e158bb91d4cd90533d6a6b63dbf4272636f74977b3c3622",
        "vertex":
            "18434e1d6adeabb8bb0a26cbc9cb7873534844eef9947e38c9dfc1718a022c4b",
        "margins":
            "cc6392eec9ca07d26573f0aea2fd20f74df5c571ea265152a9919b6526dd7b87",
        "transforms":
            "0f61fbf39708c7c4b1abcd09c6172451caf8185ad095576f5210b355ea874821",
    },
    "mixed": {
        "fields":
            "ececa46d61a1bb86b62a73f058d8eee32602ca964906e5e22063b2b567267ba9",
        "vertex":
            "9bf5b6709445270685c998ce1b2244116eeb088e6f8267deaa6b90891a45939f",
        "margins":
            "b3aa723d443fbf523c08bd8e6ceeae9c9d9b031b61f33309253b10e52cf8a7f8",
        "transforms":
            "038ba76cab27b25aae1506d8abfd2eb6d45daaf86af719b5ca3b8dcf33060d24",
    },
}


def pin_values(name):
    sol = hj.solve(NETWORKS[name]())
    return {
        "fields": digest(sol.fields),
        "vertex": digest(sol.vertex),
        "margins": margins_digest(hj.verify(sol)),
        "transforms": digest(vertex_transforms(sol, 0.4)),
    }


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_solution_verify_and_certificate_are_bitwise_pinned(name):
    assert pin_values(name) == PINS[name]


def _ternary_h():
    # the per-s minimizers beta(s) run from -1 to 1, so at M = 1.002 the
    # node sets share only [-0.002, 0.002]; the width is the widest node's,
    # 1 + 1.002 at s = 0 and s = 1
    return hj.abs_hamiltonian(alpha=1.0, beta=[-1.0, 0.3, 1.0], kappa=0.0)


def _sampled_h():
    p = np.linspace(-2.0, 2.5, 10)
    a = np.array([0.7, 1.1, 0.9])
    k = np.array([0.3, 0.6, 0.4])
    table = a[:, None] * (p[None, :] - 0.2) ** 2 + k[:, None]
    edge = float(np.max(np.abs(np.diff(table, axis=1) / np.diff(p))))
    return hj.sampled_hamiltonian([0.0, 0.4, 1.0], p, table, edge + 0.25)


WIDTHS = [
    ("abs", lambda: hj.abs_hamiltonian(
        alpha=[1.0, 2.0], beta=[0.1, -0.3], kappa=[0.5, 0.8]),
     2.0, "0x1.999999999999ap+0"),
    ("quadratic", lambda: hj.quadratic_hamiltonian(
        alpha=[0.5, 1.5, 1.0], beta=[0.2, -0.4, 0.1], kappa=[0.9, 0.6, 1.0]),
     3.0, "0x1.212b0aac533a0p+1"),
    ("sampled", _sampled_h, 2.5, "0x1.f7fa565b131cap+0"),
    ("sampled_beyond_table", _sampled_h, 12.0, "0x1.0b85cef385cf0p+2"),
    ("ternary", _ternary_h, 1.002, "0x1.004189374bc6ap+1"),
]


@pytest.mark.parametrize("name,make,M,pinned", WIDTHS,
                         ids=[w[0] for w in WIDTHS])
def test_sublevel_width_is_bitwise_pinned(name, make, M, pinned):
    assert hj.sublevel_width(make(), M).hex() == pinned


def test_sublevel_width_empty_after_ternary_search():
    # a level below min H = 0 at every node names the first node
    with pytest.raises(EmptySublevelError,
                       match=r"^sublevel at M=-0.1 is empty at s=0.0 "
                             r"\(min 0.0\)$"):
        hj.sublevel_width(_ternary_h(), -0.1)


CSV_PINS = {
    "tripod_100": {
        "solution.csv":
            "3e533bc04a429993e62c770c4452939c896a966d53ca43d793ce86e8340e2619",
        "vertex_traces.csv":
            "e15c6d9f2d8d306e7540e80754a077810dac31ddcc89f0d1724dcc2f6149fc29",
        "slices.csv":
            "4fc8ec7092202e843af8b8f0542f146722e6460b815beff6b4f6a6a14f1f2c7d",
    },
    "tripod_200": {
        "solution.csv":
            "5730eec234c658db77b2d5a4f8e5e297884d46bdea221094f0113d49f2daf8cf",
        "vertex_traces.csv":
            "e3eccaeae51fecd1c34a0388ac4746be750b36e8068e1b7487b556fd9e05aa60",
        "slices.csv":
            "dae5bf1778832a8b5309f23f5451c49ceaa75c135d8b0ace1691681ec7dd90c9",
    },
    "mixed": {
        "solution.csv":
            "3be4b47b14e06ec399848061d4a6b4c3ced817a01f2934fffe9918c13481e3ce",
        "vertex_traces.csv":
            "2ef7a11c3f8b4588f6e32f3a17db830d577ecc08efae25b7506bae4bc2e1b124",
    },
}


def file_digests(outdir, names):
    out = {}
    for name in names:
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(CSV_PINS))
def test_csv_dumps_are_bytewise_pinned(name, tmp_path):
    out = str(tmp_path / name)
    if name == "mixed":  # all three kinds, a multi-edge, a cycle, a shift
        write_solution_csv(hj.solve(make_mixed(12)), out)
    else:
        ns = name.split("_")[1]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--scenario", TRIPOD_SCN, "--ns", ns,
                         "--dump-slices", "0.5,1.0", "--out", out]) == 0
    assert file_digests(out, CSV_PINS[name]) == CSV_PINS[name]
