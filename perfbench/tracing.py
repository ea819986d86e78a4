"""Per-layer tracing of hjnet, installed from outside the package.

The tracer wraps every public function of each hjnet module (the layers) and
rebinds the name in every hjnet module that holds the function, so calls
between modules pass through the wrapper while hjnet itself is unchanged.
A wrapper records a span (name, start, end, parent span) or, for the scalar
functions called once per grid point or bisection step, only a count.  Spans
and counts stay in memory; ``layer_metrics`` reduces one pass to the
per-layer numbers and ``dump`` writes the raw spans out at the end.

A layer's self time is the time inside its spans not covered by child spans,
so the layers' self times add up to the traced wall time.  Work done by a
count-only function or by a private helper is charged to the public function
that called it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("scenario_io", "network", "hamiltonians", "slope_cap",
          "arc_solver", "semidiscrete", "network_solver", "cli")

# Called per grid step, per vertex or per bisection step: a span each would
# cost more than the call itself, so these are only counted.
COUNT_ONLY = frozenset({
    "hamiltonians.evaluate",
    "network.incident_arcs",
    "network.reverse_arc_id",
})


def _grid_cells(sol, *_):
    """E * (ns + 1) * nt of a NetworkSolution."""
    g = sol.grid
    return len(sol.fields) * (g.ns + 1) * g.nt


def _arc_cells(field, *_):
    """(ns + 1) * nt of an ArcField."""
    rows, cols = field.values.shape
    return (rows - 1) * cols


def _csv_bytes(_result, args, kwargs):
    outdir = kwargs.get("outdir", args[1] if len(args) > 1 else None)
    return sum(os.path.getsize(os.path.join(outdir, f))
               for f in ("solution.csv", "vertex_traces.csv"))


# Work a span did, read from its result (or arguments) when it returns.
WORK = {
    "network_solver.solve": _grid_cells,
    "arc_solver.max_subsolution": _arc_cells,
    "slope_cap.apply_g": lambda ts, *_: len(ts.values),
    "cli.write_solution_csv": _csv_bytes,
}


class Tracer:
    """Spans and counts of one process; install, run, read, uninstall."""

    def __init__(self):
        # span: [name, start, end, parent index, child seconds, work]
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def reset(self):
        """Forget recorded spans and counts; wrappers stay installed."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _span(self, name, fn):
        work = WORK.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, 0.0, 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
                if work is not None:
                    rec[5] = work(out, args, kwargs)
                return out
            finally:
                stack.pop()
                rec[2] = clock()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the public functions of every layer; idempotent."""
        if self._undo:
            return
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "hjnet" or k.startswith("hjnet."))]
        for layer in LAYERS:
            mod = sys.modules[f"hjnet.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                make = self._counter if name in COUNT_ONLY else self._span
                wrapped = make(name, fn)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)
                            self._undo.append((m, key, fn))

    def uninstall(self):
        for m, key, fn in reversed(self._undo):
            setattr(m, key, fn)
        self._undo = []

    def dump(self, path, meta):
        """Write the recorded spans and counts as JSON."""
        doc = {"meta": meta, "counts": dict(self.counts),
               "spans": [{"name": n, "start": s, "end": e, "parent": p,
                          "work": w} for n, s, e, p, _, w in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _has_ancestor(spans, i, pred):
    p = spans[i][3]
    while p >= 0:
        if pred(spans[p]):
            return True
        p = spans[p][3]
    return False


def requested_cells(tracer):
    """E * (ns + 1) * nt summed over solves, leaving out the re-solve that
    load_solution_csv makes only to recover constants."""
    sp = tracer.spans
    return sum(r[5] for i, r in enumerate(sp)
               if r[0] == "network_solver.solve"
               and not _has_ancestor(sp, i,
                                     lambda a: a[0] == "cli.load_solution_csv"))


def layer_metrics(tracer):
    """Per-layer numbers of one traced pass."""
    sp = tracer.spans
    by = {}
    for i, r in enumerate(sp):
        by.setdefault(r[0], []).append(i)

    def incl(*names):
        """Inclusive seconds in the named spans, nested repeats once."""
        want = set(names)
        return sum(sp[i][2] - sp[i][1] for n in names for i in by.get(n, ())
                   if not _has_ancestor(sp, i, lambda a: a[0] in want))

    def calls(name):
        return len(by.get(name, ()))

    def work(name, pred=None):
        return sum(sp[i][5] for i in by.get(name, ())
                   if pred is None or pred(sp[sp[i][3]] if sp[i][3] >= 0 else None))

    def self_s(pred):
        return sum(r[2] - r[1] - r[4] for r in sp if pred(r[0]))

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(lambda n, L=layer: n.startswith(L + "."))
    m["trace.layers_self_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS)

    m["cli.write_solution_csv_s"] = incl("cli.write_solution_csv")
    m["cli.csv_bytes"] = work("cli.write_solution_csv")
    m["cli.load_solution_csv_s"] = incl("cli.load_solution_csv")
    m["scenario_io.parse_s"] = incl("scenario_io.parse_scenario_file",
                                    "scenario_io.parse_scenario")

    solve_cells = work("network_solver.solve")
    presolve = work("arc_solver.max_subsolution",
                    lambda parent: parent is not None
                    and parent[0] == "network_solver.solve")
    march = solve_cells + presolve
    m["network_solver.solve_s"] = incl("network_solver.solve")
    m["network_solver.solve_calls"] = calls("network_solver.solve")
    m["network_solver.solve_cells"] = solve_cells
    m["network_solver.presolve_cells_frac"] = presolve / march if march else 0.0
    m["network_solver.plan_s"] = incl("network_solver.plan_solve")
    m["network_solver.plan_calls"] = calls("network_solver.plan_solve")
    m["network_solver.verify_self_s"] = self_s(
        lambda n: n == "network_solver.verify")
    for fn in ("calibrate_epsilon", "contraction_check", "shift_check",
               "stability_sweep", "restart_check"):
        m[f"network_solver.{fn}_s"] = incl(f"network_solver.{fn}")

    m["arc_solver.max_subsolution_s"] = incl("arc_solver.max_subsolution")
    m["arc_solver.max_subsolution_calls"] = calls("arc_solver.max_subsolution")
    m["arc_solver.residual_scan_s"] = incl("arc_solver.subsolution_residual",
                                           "arc_solver.supersolution_residual")

    m["slope_cap.apply_g_s"] = incl("slope_cap.apply_g")
    m["slope_cap.apply_g_calls"] = calls("slope_cap.apply_g")
    m["slope_cap.apply_g_points"] = work("slope_cap.apply_g")

    m["semidiscrete.discr_residual_s"] = incl("semidiscrete.discr_residual")
    m["semidiscrete.arc_transforms"] = calls("semidiscrete.f_gamma")

    m["hamiltonians.evaluate_calls"] = tracer.counts["hamiltonians.evaluate"]
    m["hamiltonians.sublevel_width_s"] = incl("hamiltonians.sublevel_width")
    m["hamiltonians.sublevel_width_calls"] = calls("hamiltonians.sublevel_width")

    m["network.incident_arcs_calls"] = tracer.counts["network.incident_arcs"]
    return m
