"""The benchmark's workloads: inputs from a seed, one timed pass, and the
correctness gates on what the pass produced.

A workload has three steps.  ``setup`` builds the inputs (it is what
``setup_s`` times, together with importing hjnet).  ``run`` is one timed
pass from inputs in hand to the final verdict and outputs.  ``check`` runs
after the clock stops: it digests the outputs, tallies the verification
battery's verdicts and evaluates the gates, each of which counts as one
attempted operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import hjnet as hj
import hjnet.cli as hj_cli
import hjnet.scenario_io as hj_io

import scenarios


class Outcome:
    """Gates, battery verdicts, digests and quality numbers of one pass."""

    def __init__(self):
        self.gates = []
        self.checks_run = 0
        self.check_failed = {}
        self.digest = None
        self.quality = {}

    def gate(self, name, ok, **detail):
        self.gates.append(dict(name=name, ok=bool(ok), **detail))

    def battery(self, checks):
        """Tally one verify report, as CheckResults or report.json dicts."""
        for c in checks:
            name, ok = (c["name"], c["ok"]) if isinstance(c, dict) \
                else (c.name, c.ok)
            self.checks_run += 1
            self.check_failed[name] = self.check_failed.get(name, 0) + (not ok)


def solution_digest(sol) -> str:
    """sha256 over every solution field and vertex trace, bit for bit."""
    h = hashlib.sha256()
    for name, arrs in (("fields", sol.fields), ("vertex", sol.vertex)):
        for key in sorted(arrs):
            h.update(f"{name}:{key}:".encode())
            h.update(np.ascontiguousarray(arrs[key], dtype=float).tobytes())
    return h.hexdigest()


def certificate_gate(out, report):
    """The vertex-trace certificate u = cap[F_x[u]] holds within eps."""
    cert = report["discr_certificate"]
    worst = report.eps_scheme - cert.margin
    out.quality["cert_ratio"] = worst / report.eps_scheme
    out.gate("certificate", cert.ok, worst=worst, eps=report.eps_scheme)


def digests_gate(out, digests):
    """Every pass of one invocation produced bitwise the same outputs."""
    out.gate("digest_stable", len(set(digests)) == 1,
             distinct=len(set(digests)))


class TripodRun:
    """``hjnet run`` on the tripod scenario file with every check, then the
    CSV read back and verified again.  CSV formatting and parsing dominate,
    so an I/O change shows here and a kernel change barely does; the closed
    form gives ``ref_err``."""

    name = "tripod-run"
    sizes = {"full": {"ns": 128}, "tiny": {"ns": 16}}

    def setup(self, seed, size, workdir):
        text, params = scenarios.tripod_scn(seed)
        path = os.path.join(workdir, "tripod.scn")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        params = dict(params, **self.sizes[size])
        inputs = {"scn": path, "c0": params["c0"], **self.sizes[size]}
        return inputs, params, hashlib.sha256(text.encode()).hexdigest()

    def run(self, inp, outdir):
        argv = ["run", "--scenario", inp["scn"], "--out", outdir,
                "--ns", str(inp["ns"]), "--checks", "all"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = hj_cli.main(argv)
        sc, _ = hj_io.parse_scenario_file(inp["scn"], ns=inp["ns"])
        sol = hj_cli.load_solution_csv(outdir, sc)
        return rc, sol, hj.verify(sol)

    def check(self, inp, res, outdir):
        rc, sol, rep = res
        out = Outcome()
        with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
            cli_checks = json.load(fh)["checks"]
        out.battery(cli_checks)
        out.battery(rep.checks)
        out.gate("cli_exit", rc in (0, 1), rc=rc)
        out.gate("reload_same_verdicts",
                 [(c["name"], c["ok"]) for c in cli_checks]
                 == [(c.name, c.ok) for c in rep.checks])
        g = sol.grid
        s, t = g.s_nodes(), g.t_nodes()
        exact = scenarios.tripod_closed_form(inp["c0"], s[None, :], t[:, None])
        err = max(float(np.max(np.abs(f - exact))) for f in sol.fields.values())
        eps = hj.default_epsilon(sol)
        out.quality["ref_err"] = err
        out.gate("ref_err", err <= eps, err=err, eps=eps)
        certificate_gate(out, rep)
        h = hashlib.sha256(solution_digest(sol).encode())
        for f in ("solution.csv", "vertex_traces.csv"):
            with open(os.path.join(outdir, f), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
        out.digest = h.hexdigest()
        return out


class CombVerify:
    """plan_solve, solve and the full verify of a 24-edge comb, no file I/O.
    Per-edge Python work dominates (arc march, windowed pre-solves, endpoint
    evaluations, vertex caps, the certificate's 2E arc transforms), so a
    batched kernel shows here and an I/O change should not."""

    name = "comb-verify"
    sizes = {"full": {"spine_edges": 12, "ns": 64, "horizon": 0.0625,
                      "dt": 2.0 ** -10},
             "tiny": {"spine_edges": 3, "ns": 16, "horizon": 0.125,
                      "dt": 2.0 ** -9}}

    def setup(self, seed, size, workdir):
        sc, params = scenarios.comb(seed, **self.sizes[size])
        return sc, params, scenarios.scenario_digest(sc)

    def run(self, sc, outdir):
        params = hj.plan_solve(sc)
        sol = hj.solve(sc, params)
        return sol, hj.verify(sol)

    def check(self, sc, res, outdir):
        sol, rep = res
        out = Outcome()
        out.battery(rep.checks)
        certificate_gate(out, rep)
        out.digest = solution_digest(sol)
        return out


class WellposedSuite:
    """The well-posedness checks on the tripod and the abs/quadratic path:
    about 25 short solves on shared grids with refinement to 4 ns, so fixed
    per-call costs (planning, sublevel-width bisection, column set-up) weigh
    most, and exact identities catch a kernel that reorders arithmetic."""

    name = "wellposed-suite"
    sizes = {"full": {"ns": 24, "restart_ns": 71},
             "tiny": {"ns": 8, "restart_ns": 20}}
    LIFT = (0.1, 0.4)       # contraction: datum lifted by a drawn constant
    SHIFT = 1.0             # shift_check: H + a, limiter - a
    LEVELS = 3              # calibrate_epsilon and stability_sweep
    PERTURB = {"eps_h": 0.4, "eps_c": 0.2, "eps_g": 0.2}

    def setup(self, seed, size, workdir):
        sz = self.sizes[size]
        rng = np.random.default_rng([seed, 1])
        tri, p_tri = scenarios.tripod(seed, sz["ns"])
        pth, p_pth = scenarios.path(sz["ns"])
        rst, p_rst = scenarios.tripod(seed, sz["restart_ns"])
        lifts = [float(rng.uniform(*self.LIFT)) for _ in range(2)]
        cases = [(sc, {e: np.asarray(v) + lift for e, v in sc.initial.items()})
                 for sc, lift in zip((tri, pth), lifts)]
        params = {"tripod": p_tri, "path": p_pth, "restart": p_rst,
                  "lifts": lifts, "shift": self.SHIFT, "levels": self.LEVELS,
                  **self.PERTURB}
        h = hashlib.sha256()
        for sc in (tri, pth, rst):
            h.update(scenarios.scenario_digest(sc).encode())
        h.update(repr(lifts).encode())
        return {"cases": cases, "restart": rst}, params, h.hexdigest()

    def run(self, inp, outdir):
        res = []
        for sc, lifted in inp["cases"]:
            res.append({
                "calibrate": hj.calibrate_epsilon(sc, levels=self.LEVELS),
                "contraction": hj.contraction_check(sc, lifted),
                "shift": hj.shift_check(sc, self.SHIFT),
                "stability": hj.stability_sweep(sc, levels=self.LEVELS,
                                                **self.PERTURB),
            })
        return res, hj.restart_check(inp["restart"])

    def check(self, inp, res, outdir):
        per_case, (equal, worst) = res
        out = Outcome()
        for (sc, _), r in zip(inp["cases"], per_case):
            C, _ = r["calibrate"]
            con, sh, st = r["contraction"], r["shift"], r["stability"]
            out.gate(f"{sc.name}.calibrate", np.isfinite(C) and C > 0, C=C)
            out.gate(f"{sc.name}.contraction", con.ok, sup_diff=con.sup_diff,
                     gap=con.datum_gap)
            out.gate(f"{sc.name}.ordering", con.ordered is True)
            out.gate(f"{sc.name}.shift", sh.ok, max_dev=sh.max_dev)
            out.gate(f"{sc.name}.stability", st.monotone_ok, diffs=st.diffs)
        out.gate("tripod.restart", equal, worst=worst)
        out.digest = hashlib.sha256(repr((per_case, equal, worst))
                                    .encode()).hexdigest()
        return out


WORKLOADS = {w.name: w for w in (TripodRun(), CombVerify(), WellposedSuite())}
