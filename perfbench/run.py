#!/usr/bin/env python3
"""hjnet benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload tripod-run|comb-verify|wellposed-suite
                             --seed N --seconds S --trace 0|1 [--size tiny]

Run from the root of a checkout; hjnet is imported from its ``src``.  The
run builds the workload's inputs from the seed, makes one traced warm-up
pass (which also counts the grid cells the workload's solves request), then
repeats timed passes, each checked after its clock stops, until
``--seconds`` have elapsed.
With ``--trace 1`` every second pass runs with the per-layer tracer
installed, so the tracing overhead is the traced minus the untraced median.

Standard output ends with one JSON line: ``correct``, ``attempted`` and
``failed`` count the benchmark's correctness gates over all passes, and
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``) of BENCHMARK.json.

The end-to-end times are in nominal seconds: each measured wall time is
divided by the time of a fixed reference kernel run right after it (and,
for a pass, right before it) and multiplied by REF_NOMINAL_S.  On a shared
machine whose speed drifts by tens of percent within minutes this keeps
two runs of the same code comparable; the raw wall times and every sample
are on the report line.  The verification battery's own
verdicts are reported, not gated, because some checks fail on valid input:
they appear as ``verify.<check>.failed`` and, with the gates, in
``failed_frac`` on the line before, which also records provenance, the
generator parameters and input digest, the output digests and every timing
sample.  Exit code 0 means a result was printed; a missing hjnet source tree
exits with 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("tripod-run", "comb-verify", "wellposed-suite")
SETUP_PROBES = 6        # fresh processes timing import + input generation
PROBE_TIMEOUT_S = 60
# Time of reference_seconds() on the 2-CPU Intel Xeon host the benchmark was
# defined on, in its faster state; the scale of the nominal seconds.
REF_NOMINAL_S = 0.15
# Checks of hjnet's verification battery, one verify.<check>.failed metric
# each.  Fixed here rather than read from hjnet so that the printed metric
# names stay those BENCHMARK.json lists when the battery changes.
CHECKS = ("limiter", "interior_residual", "discr_certificate", "vertex_slope",
          "time_monotone", "time_lipschitz", "space_lipschitz",
          "vertex_continuity", "inverse_consistency", "window")


def cap_threads():
    """Cap numpy/BLAS threads at the CPUs this process may use; must run
    before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def reference_seconds(n=12000):
    """Wall time of a fixed kernel that does no hjnet work.

    It mixes what hjnet's passes spend their time on: small numpy array
    operations, scalar Python arithmetic, and formatting and parsing floats.
    Timed next to each measurement it tracks the machine's speed at that
    moment, so a time in units of it is much steadier across runs than the
    time alone.
    """
    import numpy as np
    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 65)
    acc = 0.0
    for _ in range(n):
        d = np.diff(a) * 64.0
        m = 0.5 * (d[:-1] + d[1:])
        a[1:-1] -= 1e-9 * (np.abs(m) - 0.5 * (d[1:] - d[:-1]))
        x = float(a[32])
        for j in range(8):
            acc = min(acc + x, acc - j * 1e-12)
        acc += 0.0 * float(format(x, ".17g"))
    return time.perf_counter() - t0


def timed_setup(name, seed, size, workdir):
    """Import hjnet (on a process's first call) and build the inputs."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name]
    inputs, params, digest = wl.setup(seed, size, workdir)
    return time.perf_counter() - t0, wl, inputs, params, digest


def setup_probe(args, workdir):
    """Time set-up in a fresh interpreter, as a user's first call pays it."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size,
           "--setup-probe", tempfile.mkdtemp(prefix="probe-", dir=workdir)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    """HEAD of the checkout's git repository, read from .git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    """sha256 of the hjnet sources, which names the code when git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hjnet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(nproc):
    import numpy
    return {"nproc": nproc, "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_commit": _git_commit(),
            "src_sha256": _src_digest(),
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS}}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def bench(args, nproc, workdir):
    setup0, wl, inputs, params, in_digest = timed_setup(
        args.workload, args.seed, args.size, workdir)
    setups = [{"setup_s": setup0, "reference_s": reference_seconds()}]
    import workloads

    run_gates = workloads.Outcome()     # gates over the whole invocation
    if not args.trace:
        probes = [setup_probe(args, workdir) for _ in range(SETUP_PROBES)]
        setups += probes
        run_gates.gate("inputs_stable",
                       all(p["inputs_sha256"] == in_digest for p in probes))
    setup_nominal = [p["setup_s"] / p["reference_s"] * REF_NOMINAL_S
                     for p in setups]

    outdir = os.path.join(workdir, "out")
    tracer = tracing.Tracer()

    def one_pass(traced):
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        if traced:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            res = wl.run(inputs, outdir)
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        return elapsed, wl.check(inputs, res, outdir)

    outcomes = []
    plain, traced_s, layers, refs, nominal = [], [], [], [], []
    cells = 0
    try:
        _, warm = one_pass(True)
        outcomes.append(warm)
        cells = tracing.requested_cells(tracer)
        deadline = time.perf_counter() + args.seconds
        refs.append(reference_seconds())
        i = 0
        while (not plain or (args.trace and not traced_s)
               or time.perf_counter() < deadline):
            traced = bool(args.trace) and i % 2 == 1
            elapsed, out = one_pass(traced)
            outcomes.append(out)
            refs.append(reference_seconds())
            if traced:
                traced_s.append(elapsed)
                lm = tracing.layer_metrics(tracer)
                lm["trace.unattributed_s"] = \
                    elapsed - lm.pop("trace.layers_self_s")
                layers.append(lm)
            else:
                plain.append(elapsed)
                nominal.append(elapsed / (0.5 * (refs[-2] + refs[-1]))
                               * REF_NOMINAL_S)
            i += 1
    except Exception:  # a pass that raises is a failed operation
        traceback.print_exc()
        run_gates.gate("exception", False)
    workloads.digests_gate(run_gates, [o.digest for o in outcomes])
    gates = [g for o in (*outcomes, run_gates) for g in o.gates]
    failed_gates = [g for g in gates if not g["ok"]]
    if not plain or (args.trace and not traced_s):
        print(json.dumps({"failed_gates": failed_gates}), file=sys.stderr)
        return 1

    last = outcomes[-1]
    checks_run = sum(o.checks_run for o in outcomes)
    checks_failed = sum(sum(o.check_failed.values()) for o in outcomes)
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(nproc),
        "inputs": {"params": params, "sha256": in_digest},
        "outputs": {"sha256": sorted({o.digest for o in outcomes})},
        "battery": {"checks_run_per_pass": last.checks_run,
                    "failed_per_pass": last.check_failed},
        "failed_frac": (checks_failed + len(failed_gates))
        / (checks_run + len(gates)),
        "quality": last.quality,
        "failed_gates": failed_gates,
        "cells_per_pass": cells,
        "wall": {"setup_s": _median([p["setup_s"] for p in setups]),
                 "verdict_s": _median(plain),
                 "cells_per_s": cells / _median(plain)},
        "samples": {"setup": setups, "setup_nominal_s": setup_nominal,
                    "verdict_s": plain, "verdict_nominal_s": nominal,
                    "reference_s": refs, "traced_verdict_s": traced_s},
    }
    if args.trace:
        traced_med = _median(traced_s)
        metrics = {k: (_median([lm[k] for lm in layers]), _unit(k))
                   for k in layers[0]}
        metrics["trace.verdict_s"] = (traced_med, "s")
        metrics["trace.overhead_s"] = (traced_med - _median(plain), "s")
        metrics["verify.checks_run"] = (last.checks_run, "count")
        metrics["verify.checks_failed"] = (sum(last.check_failed.values()),
                                           "count")
        for c in CHECKS:
            metrics[f"verify.{c}.failed"] = (last.check_failed.get(c, 0),
                                             "count")
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"
                                      ".json"),
                    {"workload": args.workload, "seed": args.seed,
                     "size": args.size})
    else:
        metrics = {
            "setup_s": (_median(setup_nominal), "s"),
            "verdict_s": (_median(nominal), "s"),
            "cells_per_s": (cells / _median(nominal), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    print(json.dumps(report, default=float))
    print(json.dumps({
        "correct": not failed_gates, "attempted": len(gates),
        "failed": len(failed_gates),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in sorted(metrics.items())}}))
    return 0


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's sizes")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    nproc = cap_threads()
    if not os.path.isfile(os.path.join(SRC, "hjnet", "__init__.py")):
        print(f"error: no hjnet sources under {SRC}", file=sys.stderr)
        return 2
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.setup_probe:
        setup_s, _, _, _, digest = timed_setup(args.workload, args.seed,
                                               args.size, args.setup_probe)
        print(json.dumps({"setup_s": setup_s,
                          "reference_s": reference_seconds(),
                          "inputs_sha256": digest}))
        return 0
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return bench(args, nproc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
