"""Batch front-end: solve scenario files, verify, dump CSVs and a report.

    hjnet run --scenario tripod.scn --out results [--t-final 2] [--ns 200]
              [--cfl 0.9] [--checks all|none|a,b,c] [--refine 2]
              [--dump-slices 0.5,1.0]

--refine k calibrates the tolerance on ns, 2 ns, ..., 2^k ns; from k = 2 on,
report.json's refine entry holds the orders of the level differences and
the verdict that they shrink; each level, ns to 2^(k-1) ns, holds diff to
the next finer grid and solve_s, the time taken to plan and solve that one.

Exit codes: 0 all enabled checks passed and the level differences shrink;
1 a check failed or a level difference did not shrink; 2 scenario parse,
validation, planning or solve errors, or an output that cannot be written.
CSV numbers use 17 significant digits, byte for byte Python's %.17g, so
outputs are byte-stable across runs and round-trip exactly (hjnet.dump).
report.json's timing holds parse_s (reading the scenario file), plan_s
(plan_solve), solve_s, verify_s, write_s and total_s, which spans the
solve, the --refine levels, the checks and the dump, not the parse or the
plan.
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
from .dump import _fmt, _read_u_blocks, _text_cells, write_table
from .errors import HJNetError, ValidationError
from .network_solver import (
    NetworkSolution,
    _calibrate_from,
    default_epsilon,
    plan_solve,
    solve,
    verify,
)
from .scenario_io import parse_checks, parse_scenario_file

__all__ = ["main", "write_solution_csv", "load_solution_csv"]


def write_solution_csv(solution: NetworkSolution, outdir):
    os.makedirs(outdir, exist_ok=True)
    g = solution.grid
    s_cells = _text_cells([_fmt(x) + "," for x in g.s_nodes()])[None]
    t_cells = _text_cells([_fmt(x) + "," for x in g.t_nodes()])[:, None]
    write_table(os.path.join(outdir, "solution.csv"), "arc_id,s,t,u",
                (([eid, s_cells, t_cells], solution.fields[eid])
                 for eid in sorted(solution.fields)))
    write_table(os.path.join(outdir, "vertex_traces.csv"), "vertex_id,t,u",
                (([x, t_cells], np.asarray(solution.vertex[x])[:, None])
                 for x in sorted(solution.vertex)))


def load_solution_csv(outdir, scenario, params=None) -> NetworkSolution:
    """Re-import a dumped solution for verification round-trips: one
    _read_u_blocks pass per file checks its layout against the scenario's
    grid and reads its u column."""
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
    s_cells = _text_cells([_fmt(x) + "," for x in g.s_nodes()])[None]
    t = g.t_nodes()
    ks = [int(np.argmin(np.abs(t - want))) for want in times]
    write_table(os.path.join(outdir, "slices.csv"), "arc_id,t,s,u",
                (([eid, _fmt(t[k]), s_cells], solution.fields[eid][k:k + 1])
                 for k in ks for eid in sorted(solution.fields)))


def _slice_times(text, t0, t1):
    """The times of --dump-slices (comma-separated) in [t0, t1], or []."""
    try:
        times = [float(x) for x in (text or "").split(",") if x]
    except ValueError as e:
        raise ValidationError(f"--dump-slices: {e}") from e
    for t in times:
        if not t0 <= t <= t1:   # nan fails too
            raise ValidationError(f"--dump-slices: times must be finite and in "
                                  f"the span [{t0:g}, {t1:g}], got {t:g}")
    return times


def _refine_verdict(C, details, solve_s):
    """The refine entry of report.json and its PASS/FAIL line.

    The entry holds C, the levels, the orders log2(diff[i] / diff[i+1]) of
    consecutive level differences and their verdict; level i gains
    solve_s[i], the time of the finer solve its diff compares it with.  A
    difference that does not shrink has an order <= 0, or nan when it and
    the one before are both 0; either fails.  A non-finite order is written
    as null.
    """
    diffs = np.array([d["diff"] for d in details])
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log2(diffs[:-1] / diffs[1:])
    ok = bool(np.all(orders > 0))
    shown = ", ".join(f"{o:.3g}" for o in orders)
    return ({"C": C, "levels": [dict(d, solve_s=t)
                                for d, t in zip(details, solve_s)],
             "orders": [float(o) if np.isfinite(o) else None for o in orders],
             "ok": ok},
            f"{'PASS' if ok else 'FAIL'} refine (C = {C:.6g}, order {shown})")


def _report(solution, rep, refine, timing, outdir):
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
        "refine": refine,
        "timing": timing,
        "ok": (rep is None or rep.ok) and (refine is None or refine["ok"]),
    }
    with open(os.path.join(outdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc


def _cmd_run(args):
    t_parse = time.perf_counter()
    try:
        scenario, checks = parse_scenario_file(
            args.scenario, ns=args.ns, horizon=args.t_final, cfl=args.cfl)
        t_plan = time.perf_counter()
        params = plan_solve(scenario)
        parse_s, plan_s = t_plan - t_parse, time.perf_counter() - t_plan
        if args.checks is not None:
            checks = parse_checks(args.checks)
        if args.refine < 0:
            raise ValidationError("--refine must be at least 0")
        times = _slice_times(args.dump_slices, scenario.t0,
                             scenario.t0 + scenario.horizon)
        os.makedirs(args.out, exist_ok=True)    # after every flag is valid
    except (HJNetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    refine = verdict = eps = None
    try:
        solution = solve(scenario, params)
        solve_s = time.perf_counter() - t_start
        if args.refine:
            C, details, level_s = _calibrate_from(solution, args.refine + 1)
            eps = default_epsilon(solution, C)
            refine, verdict = _refine_verdict(C, details, level_s)
    except HJNetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    rep = None
    t_verify = time.perf_counter()
    if checks:
        rep = verify(solution, eps_scheme=eps, checks=checks)
    t_write = time.perf_counter()
    try:
        write_solution_csv(solution, args.out)
        if times:
            _dump_slices(solution, args.out, times)
        t_end = time.perf_counter()
        doc = _report(solution, rep, refine,
                      {"parse_s": parse_s, "plan_s": plan_s,
                       "solve_s": solve_s, "verify_s": t_write - t_verify,
                       "write_s": t_end - t_write, "total_s": t_end - t_start},
                      args.out)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for c in doc["checks"]:
        state = "PASS" if c["ok"] else "FAIL"
        print(f"{state} {c['name']} (margin {c['margin']:.3e})")
    if refine is not None and refine["orders"]:
        print(verdict)
    return 0 if doc["ok"] else 1


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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
