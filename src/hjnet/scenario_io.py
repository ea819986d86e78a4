"""Scenario files: a small sectioned text format for network problems.

    # comments start with '#'
    [vertices]
    x0 0.0 0.0          # id, optional coordinates (numbers, otherwise unused)
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
[initial] line start from zero.  A key the edge's kind does not read, a
repeated key, a second limiter or initial line for one id, a repeated [run]
key (T, t and horizon are one key), and dt together with cfl are errors.
Parse failures raise ScenarioParseError with the offending line number.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ScenarioParseError, ValidationError
from .hamiltonians import (
    abs_hamiltonian,
    family_from_edges,
    quadratic_hamiltonian,
    sampled_hamiltonian,
)
from .network import build_network
from .network_solver import CHECK_NAMES, Scenario, interior_bump

__all__ = ["parse_checks", "parse_scenario", "parse_scenario_file"]

_SECTIONS = ("vertices", "edges", "limiter", "initial", "run")


def _fail(msg, line):
    raise ScenarioParseError(msg, line)


def parse_checks(text, line=None):
    """``all | none | a,b,c`` as the tuple of check names verify runs."""
    if text == "all":
        return CHECK_NAMES
    if text == "none":
        return ()
    wanted = tuple(c.strip() for c in text.split(",") if c.strip())
    if not wanted:
        _fail(f"no check named in {text!r}; 'none' runs no check", line)
    for c in wanted:
        if c not in CHECK_NAMES:
            _fail(f"unknown check {c!r}", line)
    return wanted


def _numbered(items, at):
    """The items of (line, item) pairs; at[0] is the line of the item last
    taken (None after the last), where build_network, which checks each item
    as it takes it, failed."""
    for lineno, item in items:
        at[0] = lineno
        yield item
    at[0] = None


def _number(text, line, kind=float):
    """One number of a scenario line; kind is float or int."""
    try:
        return kind(text)
    except ValueError:
        _fail(f"expected {'an integer' if kind is int else 'a number'}, "
              f"got {text!r}", line)


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
        k, v = (x.strip() for x in tok.split("=", 1))
        if k in out:
            _fail(f"a second {k}=", line)
        out[k] = v
    return out


_COEFFS = {"alpha": "1", "beta": "0", "kappa": "0"}  # with their defaults
_KEYS = {"abs": _COEFFS, "quadratic": _COEFFS,
         "sampled": ("pmin", "pmax", "npts", "slope", "values")}


def _edge_hamiltonian(kind, kv, line):
    if kind not in _KEYS:
        _fail(f"unknown Hamiltonian kind {kind!r}", line)
    for key in kv:
        if key not in _KEYS[kind]:
            _fail(f"{kind} Hamiltonian reads no key {key!r}", line)
    try:
        if kind == "sampled":
            for key in _KEYS[kind]:
                if key not in kv:
                    _fail(f"sampled Hamiltonian needs {key}=", line)
            table = np.vstack([_floats(r, line)
                               for r in kv["values"].split(";") if r])
            npts = _number(kv["npts"], line, int)
            if npts != table.shape[1]:
                _fail(f"npts={npts}, but the first values row has "
                      f"{table.shape[1]} entries", line)
            p = np.linspace(_number(kv["pmin"], line),
                            _number(kv["pmax"], line), npts)
            s = np.linspace(0.0, 1.0, table.shape[0])
            return sampled_hamiltonian(s, p, table, _number(kv["slope"], line))
        make = abs_hamiltonian if kind == "abs" else quadratic_hamiltonian
        return make(**{c: _floats(kv.get(c, d), line)
                       for c, d in _COEFFS.items()})
    except ValueError as e:  # the constructors' checks of the coefficients
        _fail(str(e), line)


def _profile(tokens, ns, line):
    s = np.linspace(0.0, 1.0, ns + 1)
    kind, args = tokens[0], tokens[1:]
    if kind == "constant" and len(args) == 1:
        return np.full(ns + 1, _number(args[0], line))
    if kind == "linear" and len(args) == 2:
        v0, v1 = (_number(a, line) for a in args)
        return v0 + (v1 - v0) * s
    if kind == "bump" and len(args) == 3:
        h, c, w = (_number(a, line) for a in args)
        if not (0.0 < c - w and c + w < 1.0):
            _fail("bump support must lie strictly inside (0,1)", line)
        return interior_bump(ns, h, c, w)
    if kind == "samples" and len(args) == 1:
        vals = _floats(args[0], line)
        if vals.size < 2:
            _fail("need at least 2 samples", line)
        return np.interp(s, np.linspace(0.0, 1.0, vals.size), vals)
    _fail(f"unknown initial profile {tokens!r}", line)


def parse_scenario(text, name="scenario", ns=None, horizon=None, cfl=None):
    """Parse scenario text; returns (Scenario, checks), checks the tuple of
    check names of its ``checks =`` entry (all of them without one).

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

    run = {"horizon": 1.0, "ns": 100, "dt": None, "cfl": None}  # Scenario fields
    checks = CHECK_NAMES
    given = {}      # run key -> the line that set it; T and t are horizon
    for lineno, line in sections["run"]:
        if "=" not in line:
            _fail("run entries are key = value", lineno)
        k, v = (x.strip() for x in line.split("=", 1))
        key = "horizon" if k in ("T", "t") else k
        if key in given:
            _fail(f"a second {key} entry (the first on line {given[key]})",
                  lineno)
        if key in ("dt", "cfl") and {"dt", "cfl"} & given.keys():
            _fail("dt and cfl both set the time step; give one", lineno)
        given[key] = lineno
        if key == "horizon":
            run["horizon"] = _number(v, lineno)
        elif k == "ns":
            run["ns"] = _number(v, lineno, int)
        elif k in ("dt", "cfl"):
            run[k] = _number(v, lineno)
        elif k == "checks":
            checks = parse_checks(v, lineno)
        else:
            _fail(f"unknown run key {k!r}", lineno)
    if ns is not None:
        run["ns"] = int(ns)
    if horizon is not None:
        run["horizon"] = float(horizon)
    if cfl is not None:
        run.update(cfl=float(cfl), dt=None)
    if run["ns"] < 2:
        raise ScenarioParseError("ns must be at least 2")

    vertices = []
    for lineno, line in sections["vertices"]:
        vid, *coords = line.split()
        for x in coords:
            _number(x, lineno)
        vertices.append((lineno, vid))

    edges = []
    per_edge_h = {}
    for lineno, line in sections["edges"]:
        toks = line.split()
        if len(toks) < 4:
            _fail("edge lines are: id start end kind [key=value ...]", lineno)
        eid, u, v, kind = toks[:4]
        edges.append((lineno, (eid, u, v)))
        per_edge_h[eid] = _edge_hamiltonian(kind, _kv(toks[4:], lineno), lineno)

    at = [None]
    try:
        net = build_network(_numbered(vertices, at), _numbered(edges, at))
    except ValidationError as e:
        raise ScenarioParseError(str(e), at[0]) from e
    fam = family_from_edges(net, per_edge_h)

    limiter = {}    # "default" is the value of every vertex not named
    for lineno, line in sections["limiter"]:
        toks = line.split()
        if len(toks) != 2:
            _fail("limiter lines are: vertex value", lineno)
        if toks[0] != "default" and toks[0] not in net.vertices:
            _fail(f"unknown vertex {toks[0]!r} in limiter", lineno)
        if toks[0] in limiter:
            _fail(f"a second limiter line for {toks[0]!r}", lineno)
        limiter[toks[0]] = _number(toks[1], lineno)
    default_c = limiter.pop("default", None)
    for x in net.vertex_ids():
        if x not in limiter:
            if default_c is None:
                raise ScenarioParseError(
                    f"no flux limiter for vertex {x!r} and no default")
            limiter[x] = default_c

    initial = {eid: np.zeros(run["ns"] + 1) for _, (eid, _, _) in edges}
    given = set()
    for lineno, line in sections["initial"]:
        toks = line.split()
        if len(toks) < 2:
            _fail("initial lines are: edge profile [values ...]", lineno)
        if toks[0] not in initial:
            _fail(f"unknown edge {toks[0]!r} in initial", lineno)
        if toks[0] in given:
            _fail(f"a second initial line for edge {toks[0]!r}", lineno)
        given.add(toks[0])
        initial[toks[0]] = _profile(toks[1:], run["ns"], lineno)

    scenario = Scenario(network=net, hamiltonians=fam, limiter=limiter,
                        initial=initial, name=name, **run)
    return scenario, checks


def parse_scenario_file(path, **overrides):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, name=name, **overrides)
