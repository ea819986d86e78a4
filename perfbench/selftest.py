#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload at its tiny size in both trace modes and checks that the
last line carries exactly the result keys and every metric BENCHMARK.json
names, with its unit.  Then injects two faults and checks that each is
counted as a failed operation: a vertex trace offset by twice the scheme
tolerance must fail the certificate gate, and outputs that differ between
passes must fail the digest gate.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def tiny_run(workload, trace):
    """Run one workload at the tiny size; returns (report, result) lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "0", "--seconds",
                       "0", "--trace", str(trace), "--size", "tiny"])
    if rc != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {rc}")
    lines = buf.getvalue().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(spec):
    for workload in run.WORKLOAD_NAMES:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            _, res = tiny_run(workload, trace)
            where = f"{workload} --trace {trace}"
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
            assert res["correct"] is True and res["failed"] == 0, (where, res)
            assert res["attempted"] >= 1, where
            for m in wanted:
                got = res["metrics"].get(m["name"])
                assert got is not None, f"{where}: {m['name']} missing"
                assert got["unit"] == m["unit"], f"{where}: {m['name']} unit"
                assert isinstance(got["value"], float), f"{where}: {m['name']}"
            print(f"ok   {where}: {len(wanted)} metrics with units")


@contextlib.contextmanager
def patched(obj, name, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, old)


def expect_failure(gate_name):
    report, res = tiny_run("comb-verify", 0)
    names = [g["name"] for g in report["failed_gates"]]
    assert res["correct"] is False and res["failed"] >= 1, res
    assert gate_name in names, names
    print(f"ok   injected fault counted: {gate_name} ({res['failed']} of "
          f"{res['attempted']} failed)")


def check_faults():
    import hjnet as hj
    import workloads

    plain_run = workloads.CombVerify.run

    def offset_trace(self, sc, outdir):
        sol, _ = plain_run(self, sc, outdir)
        x = sorted(sol.vertex)[0]
        sol.vertex[x] = sol.vertex[x] + 2.0 * hj.default_epsilon(sol)
        return sol, hj.verify(sol)

    with patched(workloads.CombVerify, "run", offset_trace):
        expect_failure("certificate")

    fresh = iter(range(1000))
    with patched(workloads, "solution_digest", lambda sol: str(next(fresh))):
        expect_failure("digest_stable")


def main():
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_faults()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
