"""Scenario files: a small sectioned text format for network problems.

    # comments start with '#'
    [vertices]
    x0 0.0 0.0          # id, optional embedding coordinates
    x1 1.0 0.0
    [edges]
    e1 x1 x0 abs alpha=1 beta=0 kappa=1
    e2 x2 x0 quadratic alpha=1 kappa=0,0.5,0      # arrays = samples in s
    e3 x3 x0 sampled pmin=-2 pmax=2 npts=9 slope=5 values=...;...
    [limiter]
    default -1
    x0 -2
    [initial]
    e1 constant 0
    e2 linear 0 1                  # values at s=0 and s=1
    e3 bump 0.2 0.5 0.25           # height, center, halfwidth (interior)
    e4 samples 0,0.05,0.2,0.4      # resampled onto the run grid
    [run]
    T = 2.0
    ns = 200
    cfl = 1.0
    checks = all

Each edge line declares the Hamiltonian of the forward arc; the inverse
arc's Hamiltonian is derived from the reversal law.  Edges without an
[initial] line start from zero.  Parse failures raise ScenarioParseError
with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioParseError
from .hamiltonians import (
    abs_hamiltonian,
    family_from_edges,
    quadratic_hamiltonian,
    sampled_hamiltonian,
)
from .network import build_network
from .network_solver import CHECK_NAMES, Scenario

__all__ = ["RunOptions", "parse_scenario", "parse_scenario_file"]

_SECTIONS = ("vertices", "edges", "limiter", "initial", "run")


@dataclass
class RunOptions:
    horizon: float = 1.0
    ns: int = 100
    dt: float | None = None
    cfl: float | None = None
    checks: tuple = CHECK_NAMES


def _fail(msg, line):
    raise ScenarioParseError(msg, line)


def _floats(text, line):
    try:
        return np.array([float(x) for x in text.split(",") if x != ""])
    except ValueError:
        _fail(f"expected comma-separated numbers, got {text!r}", line)


def _kv(tokens, line):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            _fail(f"expected key=value, got {tok!r}", line)
        k, v = tok.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _edge_hamiltonian(kind, kv, line):
    if kind == "abs":
        return abs_hamiltonian(alpha=_floats(kv.get("alpha", "1"), line),
                               beta=_floats(kv.get("beta", "0"), line),
                               kappa=_floats(kv.get("kappa", "0"), line))
    if kind == "quadratic":
        return quadratic_hamiltonian(alpha=_floats(kv.get("alpha", "1"), line),
                                     beta=_floats(kv.get("beta", "0"), line),
                                     kappa=_floats(kv.get("kappa", "0"), line))
    if kind == "sampled":
        for key in ("pmin", "pmax", "npts", "slope", "values"):
            if key not in kv:
                _fail(f"sampled Hamiltonian needs {key}=", line)
        p = np.linspace(float(kv["pmin"]), float(kv["pmax"]), int(kv["npts"]))
        rows = [_floats(r, line) for r in kv["values"].split(";") if r]
        table = np.vstack(rows)
        s = np.linspace(0.0, 1.0, table.shape[0])
        try:
            return sampled_hamiltonian(s, p, table, float(kv["slope"]))
        except ValueError as e:
            _fail(str(e), line)
    _fail(f"unknown Hamiltonian kind {kind!r}", line)


def _profile(tokens, ns, line):
    s = np.linspace(0.0, 1.0, ns + 1)
    kind, args = tokens[0], tokens[1:]
    if kind == "constant" and len(args) == 1:
        return np.full(ns + 1, float(args[0]))
    if kind == "linear" and len(args) == 2:
        v0, v1 = float(args[0]), float(args[1])
        return v0 + (v1 - v0) * s
    if kind == "bump" and len(args) == 3:
        h, c, w = (float(a) for a in args)
        if not (0.0 < c - w and c + w < 1.0):
            _fail("bump support must lie strictly inside (0,1)", line)
        y = h * np.maximum(0.0, 1.0 - np.abs(s - c) / w)
        y[0] = y[-1] = 0.0
        return y
    if kind == "samples" and len(args) == 1:
        vals = _floats(args[0], line)
        if vals.size < 2:
            _fail("need at least 2 samples", line)
        return np.interp(s, np.linspace(0.0, 1.0, vals.size), vals)
    _fail(f"unknown initial profile {tokens!r}", line)


def parse_scenario(text, name="scenario", ns=None, horizon=None, cfl=None):
    """Parse scenario text; returns (Scenario, RunOptions).

    ns / horizon / cfl override the file's [run] section (CLI flags).
    """
    sections = {s: [] for s in _SECTIONS}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in sections:
                _fail(f"unknown section [{current}]", lineno)
            continue
        if current is None:
            _fail("content before any section header", lineno)
        sections[current].append((lineno, line))

    if not sections["vertices"]:
        raise ScenarioParseError("no [vertices] section")
    if not sections["edges"]:
        raise ScenarioParseError("no [edges] section")

    run = RunOptions()
    checks = "all"
    for lineno, line in sections["run"]:
        if "=" not in line:
            _fail("run entries are key = value", lineno)
        k, v = (x.strip() for x in line.split("=", 1))
        if k in ("T", "t", "horizon"):
            run.horizon = float(v)
        elif k == "ns":
            run.ns = int(v)
        elif k == "dt":
            run.dt = float(v)
        elif k == "cfl":
            run.cfl = float(v)
        elif k == "checks":
            checks = v
        else:
            _fail(f"unknown run key {k!r}", lineno)
    if ns is not None:
        run.ns = int(ns)
    if horizon is not None:
        run.horizon = float(horizon)
    if cfl is not None:
        run.cfl = float(cfl)
        run.dt = None
    if checks == "all":
        run.checks = CHECK_NAMES
    elif checks == "none":
        run.checks = ()
    else:
        wanted = tuple(c.strip() for c in checks.split(",") if c.strip())
        for c in wanted:
            if c not in CHECK_NAMES:
                raise ScenarioParseError(f"unknown check {c!r}")
        run.checks = wanted

    vertices = []
    for lineno, line in sections["vertices"]:
        toks = line.split()
        if len(toks) == 1:
            vertices.append(toks[0])
        else:
            try:
                vertices.append((toks[0], [float(x) for x in toks[1:]]))
            except ValueError:
                _fail("vertex coordinates must be numbers", lineno)

    edges = []
    per_edge_h = {}
    for lineno, line in sections["edges"]:
        toks = line.split()
        if len(toks) < 4:
            _fail("edge lines are: id start end kind [key=value ...]", lineno)
        eid, u, v, kind = toks[:4]
        edges.append((eid, u, v))
        per_edge_h[eid] = _edge_hamiltonian(kind, _kv(toks[4:], lineno), lineno)

    from .errors import ValidationError
    try:
        net = build_network(vertices, edges)
    except ValidationError as e:
        raise ScenarioParseError(str(e))
    fam = family_from_edges(net, per_edge_h)

    limiter = {}
    default_c = None
    for lineno, line in sections["limiter"]:
        toks = line.split()
        if len(toks) != 2:
            _fail("limiter lines are: vertex value", lineno)
        if toks[0] == "default":
            default_c = float(toks[1])
        elif toks[0] in net.vertices:
            limiter[toks[0]] = float(toks[1])
        else:
            _fail(f"unknown vertex {toks[0]!r} in limiter", lineno)
    for x in net.vertex_ids():
        if x not in limiter:
            if default_c is None:
                raise ScenarioParseError(
                    f"no flux limiter for vertex {x!r} and no default")
            limiter[x] = default_c

    initial = {eid: np.zeros(run.ns + 1) for eid, _, _ in edges}
    for lineno, line in sections["initial"]:
        toks = line.split()
        if toks[0] not in initial:
            _fail(f"unknown edge {toks[0]!r} in initial", lineno)
        initial[toks[0]] = _profile(toks[1:], run.ns, lineno)

    scenario = Scenario(network=net, hamiltonians=fam, limiter=limiter,
                        initial=initial, horizon=run.horizon, ns=run.ns,
                        dt=run.dt, cfl=run.cfl, name=name)
    return scenario, run


def parse_scenario_file(path, **overrides):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, name=name, **overrides)
