"""Batch front-end: solve scenario files, verify, dump CSVs and a report.

    hjnet run --scenario tripod.scn --out results [--t-final 2] [--ns 200]
              [--cfl 0.9] [--checks all|none|a,b,c] [--refine 2]
              [--dump-slices 0.5,1.0]
    hjnet oracle --oracle g|refine|hopflax [--scenario ...] [--out ...]

Exit codes: 0 all enabled checks passed; 1 a check or oracle comparison
failed; 2 scenario parse, validation, planning or solve errors.  CSV
numbers use 17 significant digits, so outputs are byte-stable across runs
and round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .arc_solver import Grid2D
from .errors import HJNetError, ValidationError
from .network_solver import (
    NetworkSolution,
    calibrate_epsilon,
    default_epsilon,
    plan_solve,
    solve,
    verify,
)
from .scenario_io import parse_checks, parse_scenario_file
from .slope_cap import TimeSeries, apply_g, apply_g_bruteforce

__all__ = ["main", "write_solution_csv", "load_solution_csv"]

_CHUNK = 1 << 18    # bytes per read of the dump layout scan


def _fmt(x):
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, str) else _fmt(c)
                              for c in row) + "\n")


def _row_template(key, cells):
    """One CSV line per cell: key, the cell's text, a %.17g slot for u.

    A NUL character in a cell marks where the time string goes.  The key
    is an id that build_network checked to be printable; its '%' are
    escaped.
    """
    key = key.replace("%", "%%")
    return "".join(f"{key},{c},%.17g\n" for c in cells)


def _fill(template, tk, row):
    """The lines of one time row: CPython's %.17g, byte for byte _fmt's."""
    return template.replace("\0", tk) % tuple(row.tolist())


def write_solution_csv(solution: NetworkSolution, outdir):
    os.makedirs(outdir, exist_ok=True)
    g = solution.grid
    s_text = [_fmt(x) for x in g.s_nodes()]
    t_text = [_fmt(x) for x in g.t_nodes()]
    with open(os.path.join(outdir, "solution.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("arc_id,s,t,u\n")
        for eid in sorted(solution.fields):
            tpl = _row_template(eid, [f"{si},\0" for si in s_text])
            for tk, row in zip(t_text, solution.fields[eid]):
                fh.write(_fill(tpl, tk, row))
    with open(os.path.join(outdir, "vertex_traces.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("vertex_id,t,u\n")
        for x in sorted(solution.vertex):
            fh.write(_row_template(x, t_text)
                     % tuple(np.asarray(solution.vertex[x]).tolist()))


def _read_u_blocks(path, kind, ids, size, ends):
    """The u column of a dump, split into one block of ``size`` values per
    id; the file must hold exactly ``ids`` (of ``kind``, named in errors),
    each in one contiguous run whose first and last rows hold the grid
    nodes ``ends`` (the text between the id and u)."""
    ids = set(ids)
    cols, runs = _scan_runs(path)
    seen = set()
    for key, *_ in runs:
        if key in seen:
            raise ValidationError(
                f"{path}: rows of {kind} {key!r} are not contiguous")
        if key not in ids:
            raise ValidationError(f"{path}: unknown {kind} {key!r}")
        seen.add(key)
    missing = sorted(ids - seen)
    if missing:
        raise ValidationError(f"{path}: {kind} {missing[0]!r} is missing")
    for key, n, got in runs:
        if n != size:
            raise ValidationError(
                f"{path}: {kind} {key!r} has {n} rows, expected {size}")
        if got != ends:
            raise ValidationError(
                f"{path}: {kind} {key!r} runs from {cols} = {got[0]} to "
                f"{got[1]}, but the grid from {ends[0]} to {ends[1]}")
    try:
        u = np.loadtxt(path, delimiter=",", skiprows=1, usecols=-1, ndmin=1,
                       comments=None)
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e
    return {key: u[j * size:(j + 1) * size]
            for j, (key, *_) in enumerate(runs)}


def _scan_runs(path):
    """The header's cells and the runs of equal ids of a CSV file: (id,
    rows, (first row's cells, last row's cells)) per run, in file order.

    A row's id is its text up to the first comma (a row with no comma is
    its own id, newline included), as ``str.partition`` cuts it.  Only the
    first and last row of a run are decoded.
    """
    runs, head = [], None   # run: [id, rows, first row, last row], in bytes
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            if head is None and block:
                i = block.find(b"\n") + 1 or len(block)
                head, block = block[:i], block[i:]
            if block:
                _add_runs(runs, block)
    return _cells((head or b"").decode()), [
        (key.decode(), n, (_cells(first.decode()), _cells(last.decode())))
        for key, n, first, last in runs]


def _line_blocks(fh):
    """A binary file as blocks of whole lines, read _CHUNK bytes at a time
    and checked as a text-mode read checks them: the bytes must be UTF-8
    (ValidationError naming the file otherwise), and CRLF and CR end a line
    as LF does.  Only the last block may lack its final newline."""
    tail = []   # the pieces of a line no chunk has ended yet
    while True:
        chunk = fh.read(_CHUNK)
        cut = chunk.rfind(b"\n") + 1
        if chunk and not cut:
            tail.append(chunk)
            continue
        block, tail = b"".join([*tail, chunk[:cut]]), [chunk[cut:]]
        if not block.isascii():
            try:
                block.decode()
            except UnicodeDecodeError as e:
                raise ValidationError(f"{fh.name}: {e}") from e
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        yield block
        if not chunk:
            return


def _add_runs(runs, block):
    """Extend runs with the lines of block; a first line whose id is that
    of the last run continues it."""
    # a last line without its newline ends in 0xff, which UTF-8 never holds
    whole = block.endswith(b"\n")
    a = np.frombuffer(block if whole else block + b"\xff", dtype=np.uint8)
    stop = np.flatnonzero(a == 10) + 1                  # past each newline
    if not whole:
        stop = np.append(stop, len(block))
    start = np.concatenate(([0], stop[:-1]))
    # line i + 1 starts a run unless its id equals line i's: walk the two
    # lines byte by byte until they differ or both reach a comma or newline
    new = np.zeros(start.size - 1, dtype=bool)
    pairs, i, j = np.arange(start.size - 1), start[:-1], start[1:]
    while pairs.size:
        x, y = a[i], a[j]
        same = x == y
        new[pairs[~same]] = True
        same &= (x != 44) & (x != 10)
        pairs, i, j = pairs[same], i[same] + 1, j[same] + 1
    firsts = np.concatenate(([0], np.flatnonzero(new) + 1)).tolist()
    lasts = [f - 1 for f in firsts[1:]] + [start.size - 1]
    for f, last in zip(firsts, lasts):
        first = block[start[f]:stop[f]]
        key = first.partition(b",")[0]
        row = block[start[last]:stop[last]]
        if f == 0 and runs and runs[-1][0] == key:
            runs[-1][1] += last + 1
            runs[-1][3] = row
        else:
            runs.append([key, last - f + 1, first, row])


def _cells(line):
    """The text of a CSV line between its first and last comma."""
    return line.partition(",")[2].rpartition(",")[0]


def load_solution_csv(outdir, scenario, params=None) -> NetworkSolution:
    """Re-import a dumped solution for verification round-trips.

    The layout (one contiguous block of the right length per scenario edge
    and vertex, starting and ending at the grid's first and last nodes) is
    checked first, by a scan that reads each file in fixed-size byte chunks,
    finds the runs of equal ids with numpy and decodes only each run's
    first and last line.  Then only the u column is parsed, by one
    ``np.loadtxt``.  LF, CRLF and CR line endings all read as in a
    text-mode read.
    """
    if params is None:
        params = plan_solve(scenario)
    g = Grid2D(params.ns, scenario.t0, params.dt, params.nt)
    net = scenario.network
    t0, t1 = (_fmt(t) for t in g.t_nodes()[[0, -1]])
    fields = _read_u_blocks(os.path.join(outdir, "solution.csv"), "edge",
                            [a.id for a in net.edge_arcs()],
                            (g.nt + 1) * (g.ns + 1),
                            (f"{_fmt(0.0)},{t0}", f"{_fmt(1.0)},{t1}"))
    fields = {eid: u.reshape(g.nt + 1, g.ns + 1) for eid, u in fields.items()}
    vertex = _read_u_blocks(os.path.join(outdir, "vertex_traces.csv"),
                            "vertex", net.vertex_ids(), g.nt + 1, (t0, t1))
    return NetworkSolution(scenario=scenario, params=params, grid=g,
                           fields=fields, vertex=vertex)


def _dump_slices(solution, outdir, times):
    g = solution.grid
    s_text = [_fmt(x) for x in g.s_nodes()]
    t = g.t_nodes()
    ks = [int(np.argmin(np.abs(t - want))) for want in times]
    with open(os.path.join(outdir, "slices.csv"), "w", encoding="utf-8") as fh:
        fh.write("arc_id,t,s,u\n")
        tpls = {eid: _row_template(eid, [f"\0,{si}" for si in s_text])
                for eid in sorted(solution.fields)}
        for k in ks:
            for eid, tpl in tpls.items():
                fh.write(_fill(tpl, _fmt(t[k]), solution.fields[eid][k]))


def _slice_times(text):
    """The times of --dump-slices (comma-separated), or [] without it."""
    try:
        times = [float(x) for x in (text or "").split(",") if x]
    except ValueError as e:
        raise ValidationError(f"--dump-slices: {e}") from e
    for t in times:
        if not np.isfinite(t):
            raise ValidationError(f"--dump-slices: times must be finite, got {t}")
    return times


def _report(solution, rep, refine_details, elapsed, outdir):
    doc = {
        "scenario": solution.scenario.name,
        "constants": {
            "shift": solution.constants.shift,
            "m0": solution.constants.m0,
            "l_bound": solution.constants.l_bound,
            "theta": solution.params.theta,
            "dt": solution.params.dt,
            "ns": solution.params.ns,
            "nt": solution.params.nt,
        },
        "eps_scheme": rep.eps_scheme if rep is not None else None,
        "checks": [asdict(c) for c in (rep.checks if rep is not None else [])],
        "refine": refine_details,
        "timing": {"total_s": elapsed},
        "ok": bool(rep.ok) if rep is not None else True,
    }
    with open(os.path.join(outdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc


def _cmd_run(args):
    try:
        scenario, checks = parse_scenario_file(
            args.scenario, ns=args.ns, horizon=args.t_final, cfl=args.cfl)
        params = plan_solve(scenario)
        if args.checks is not None:
            checks = parse_checks(args.checks)
        if args.refine < 0:
            raise ValidationError("--refine must be at least 0")
        times = _slice_times(args.dump_slices)
    except (HJNetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    refine_details = None
    eps = None
    try:
        solution = solve(scenario, params)
        if args.refine:
            C, details = calibrate_epsilon(scenario, levels=args.refine + 1)
            eps = default_epsilon(solution, C)
            refine_details = {"C": C, "levels": details}
    except HJNetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    rep = None
    if checks:
        rep = verify(solution, eps_scheme=eps, checks=checks)

    write_solution_csv(solution, args.out)
    if times:
        _dump_slices(solution, args.out, times)
    doc = _report(solution, rep, refine_details, time.perf_counter() - t_start,
                  args.out)
    for c in doc["checks"]:
        state = "PASS" if c["ok"] else "FAIL"
        print(f"{state} {c['name']} (margin {c['margin']:.3e})")
    if rep is not None and not rep.ok:
        return 1
    return 0


def _oracle_g(args, outdir):
    rng = np.random.default_rng(args.seed)
    n = args.length
    dt = args.dt
    vals = rng.integers(-2 ** 20, 2 ** 20, size=n) / 2.0 ** 10
    psi = TimeSeries(0.0, dt, vals)
    a = args.slope
    fast = apply_g(psi, a)
    brute = apply_g_bruteforce(psi, a)
    t = psi.times()
    _write_csv(os.path.join(outdir, "g_oracle.csv"),
               ["t", "psi", "capped", "capped_brute"],
               ((t[k], vals[k], fast.values[k], brute.values[k])
                for k in range(n)))
    same = np.array_equal(fast.values, brute.values)
    print(f"{'PASS' if same else 'FAIL'} g oracle (bitwise {'equal' if same else 'DIFFERENT'})")
    return 0 if same else 1


def _oracle_refine(args, outdir):
    scenario, _ = parse_scenario_file(args.scenario, ns=args.ns,
                                      horizon=args.t_final, cfl=args.cfl)
    C, details = calibrate_epsilon(scenario, levels=max(2, args.refine + 1))
    diffs = np.array([d["diff"] for d in details])
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log2(diffs[:-1] / diffs[1:])
    rows = [(str(lvl), d["ns"], d["dt"], d["diff"], order)
            for lvl, (d, order) in enumerate(zip(details, [np.nan, *orders]))]
    _write_csv(os.path.join(outdir, "refine.csv"),
               ["level", "ns", "dt", "diff", "order"], rows)
    # a level difference that does not shrink has an order <= 0, or nan
    # when it and the one before are both 0
    ok = bool(np.all(orders > 0))
    shown = ", ".join(f"{o:.3g}" for o in orders) or "n/a"
    print(f"{'PASS' if ok else 'FAIL'} refine oracle (C = {C:.6g}, "
          f"order {shown})")
    return 0 if ok else 1


def _oracle_hopflax(args, outdir):
    scenario, _ = parse_scenario_file(args.scenario, ns=args.ns,
                                      horizon=args.t_final, cfl=args.cfl)
    params = plan_solve(scenario)
    g = Grid2D(params.ns, scenario.t0, params.dt, params.nt)
    s = g.s_nodes()
    t = g.t_nodes()
    rows = []
    for arc in scenario.network.edge_arcs():
        H = scenario.hamiltonians[arc.id]
        if H.kind != "abs" or np.ptp(H.alpha) or np.ptp(H.beta) \
                or np.ptp(H.kappa) or H.beta[0] != 0.0:
            print("error: hopflax oracle needs H = alpha |p| + kappa with "
                  "constant coefficients", file=sys.stderr)
            return 2
        alpha, kappa = float(H.alpha[0]), float(H.kappa[0])
        gdat = np.asarray(scenario.initial[arc.id], dtype=float)
        for k, tk in enumerate(t):
            reach = alpha * (tk - t[0])
            for i, si in enumerate(s):
                lo, hi = max(0.0, si - reach), min(1.0, si + reach)
                val = _pl_min(gdat, s, lo, hi) - kappa * (tk - t[0])
                rows.append((arc.id, si, tk, val))
    _write_csv(os.path.join(outdir, "hopflax.csv"),
               ["arc_id", "s", "t", "u"], rows)
    print("PASS hopflax oracle")
    return 0


def _pl_min(vals, s, lo, hi):
    """Exact min of the piecewise-linear interpolant of vals over [lo, hi]."""
    inner = vals[(s >= lo) & (s <= hi)]
    cands = [np.interp(lo, s, vals), np.interp(hi, s, vals)]
    if inner.size:
        cands.append(float(np.min(inner)))
    return float(min(cands))


def _check_oracle_flags(args):
    """Raise ValidationError for a flag the chosen oracle cannot run with."""
    if args.oracle in ("refine", "hopflax"):
        rules = [(args.scenario is not None,
                  f"--oracle {args.oracle} needs --scenario")]
    else:
        rules = [(args.length >= 1, "--length must be at least 1"),
                 (np.isfinite(args.dt), "--dt must be finite"),
                 (args.dt > 0, "--dt must be positive"),
                 (np.isfinite(args.slope), "--slope must be finite"),
                 (args.slope < 0, "--slope must be negative")]
    for ok, message in rules:
        if not ok:
            raise ValidationError(message)


_ORACLES = {"g": _oracle_g, "refine": _oracle_refine,
            "hopflax": _oracle_hopflax}


def _cmd_oracle(args):
    try:
        _check_oracle_flags(args)
        os.makedirs(args.out, exist_ok=True)
        return _ORACLES[args.oracle](args, args.out)
    except (HJNetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main(argv=None):
    parser = argparse.ArgumentParser(prog="hjnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a scenario file and verify")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", default="hjnet-out")
    p_run.add_argument("--t-final", type=float, default=None)
    p_run.add_argument("--ns", type=int, default=None)
    p_run.add_argument("--cfl", type=float, default=None)
    p_run.add_argument("--checks", default=None,
                       help="all | none | comma-separated check names")
    p_run.add_argument("--refine", type=int, default=0,
                       help="grid-doubling levels for tolerance calibration")
    p_run.add_argument("--dump-slices", default=None,
                       help="comma-separated times; writes slices.csv")
    p_run.set_defaults(func=_cmd_run)

    p_or = sub.add_parser("oracle", help="independent reference computations")
    p_or.add_argument("--oracle", required=True,
                      choices=tuple(_ORACLES))
    p_or.add_argument("--out", default="hjnet-out")
    p_or.add_argument("--scenario", default=None)
    p_or.add_argument("--ns", type=int, default=None)
    p_or.add_argument("--t-final", type=float, default=None)
    p_or.add_argument("--cfl", type=float, default=None)
    p_or.add_argument("--refine", type=int, default=2)
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--length", type=int, default=512)
    p_or.add_argument("--dt", type=float, default=0.0078125)
    p_or.add_argument("--slope", type=float, default=-1.0)
    p_or.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
