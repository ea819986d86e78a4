"""Hamiltonian kinds, derived constants, reversal and the positivity shift."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hjnet as hj
from hjnet import hamiltonians
from hjnet.errors import EmptySublevelError
from hjnet.hamiltonians import (
    global_min,
    momentum_minimizer,
    shift_hamiltonian,
)

from conftest import make_comb, make_mixed
from test_pins import WIDTHS


@pytest.fixture
def habs():
    return hj.abs_hamiltonian(kappa=1.0)  # |p| + 1


@pytest.fixture
def hquad():
    return hj.quadratic_hamiltonian()  # p^2


def test_eval_abs(habs):
    assert hj.evaluate(habs, 0.5, 2.0) == 3.0
    assert hj.evaluate(habs, 0.0, -2.0) == 3.0


def test_eval_quadratic(hquad):
    for s in (0.0, 0.3, 1.0):
        assert hj.evaluate(hquad, s, -3.0) == 9.0


def test_eval_sampled_interpolates():
    p = np.arange(-2.0, 2.5, 0.5)
    table = np.tile(np.abs(p) + 1.0, (2, 1))
    H = hj.sampled_hamiltonian([0.0, 1.0], p, table, extension_slope=1.0)
    assert hj.evaluate(H, 0.0, 0.25) == pytest.approx(1.25, abs=1e-14)
    # coercive extension beyond the table
    assert hj.evaluate(H, 0.5, 3.0) == pytest.approx(4.0, abs=1e-14)


def test_eval_rejects_bad_s(habs):
    with pytest.raises(ValueError):
        hj.evaluate(habs, 1.5, 0.0)


def test_c_gamma_closed_forms(habs):
    assert hj.c_gamma(habs) == -1.0
    H = hj.quadratic_hamiltonian(beta=-2.0, kappa=3.0)  # (p-1)^2 + 2
    assert hj.c_gamma(H) == -2.0


def test_c_gamma_s_dependent_cross_checked_by_scan():
    kappa = np.sin(np.pi * np.linspace(0.0, 1.0, 101)) ** 2
    H = hj.quadratic_hamiltonian(kappa=kappa)  # p^2 + sin^2(pi s)
    assert hj.c_gamma(H) == pytest.approx(-1.0, abs=1e-12)
    # brute scan over a dense (s, p) grid as an independent check
    s = np.linspace(0.0, 1.0, 401)
    p = np.linspace(-3.0, 3.0, 1201)
    vals = hj.evaluate(H, s[:, None], p[None, :])
    assert -np.max(np.min(vals, axis=1)) == pytest.approx(hj.c_gamma(H), abs=1e-5)


def test_c_gamma_sampled_range_guard():
    p = np.linspace(0.0, 2.0, 5)
    table = np.tile(2.0 - p, (2, 1))  # decreasing toward the right edge
    with pytest.raises(ValueError):
        # construction already refuses: extension shallower than the table
        hj.sampled_hamiltonian([0.0, 1.0], p, table, extension_slope=0.5)


def test_reverse_examples(habs):
    r = hj.reverse_hamiltonian(habs)  # even in p, constant in s
    s = np.linspace(0.0, 1.0, 11)
    p = np.linspace(-2.0, 2.0, 9)
    assert np.array_equal(hj.evaluate(r, s[:, None], p[None, :]),
                          hj.evaluate(habs, s[:, None], p[None, :]))

    kappa = np.linspace(0.0, 1.0, 5) ** 2
    H = hj.quadratic_hamiltonian(beta=-2.0, kappa=kappa)  # (p-1)^2 - 1 + k(s)
    r = hj.reverse_hamiltonian(H)
    expect = hj.evaluate(H, 1.0 - s[:, None], -p[None, :])
    assert np.max(np.abs(hj.evaluate(r, s[:, None], p[None, :]) - expect)) < 1e-14

    H = hj.quadratic_hamiltonian(kappa=np.array([0.0, 1.0]))  # p^2 + s
    r = hj.reverse_hamiltonian(H)
    assert hj.evaluate(r, 0.25, 0.0) == pytest.approx(0.75, abs=1e-15)


def test_reverse_is_involution(habs):
    for H in (habs, hj.quadratic_hamiltonian(beta=-2.0, kappa=3.0)):
        rr = hj.reverse_hamiltonian(hj.reverse_hamiltonian(H))
        assert np.array_equal(rr.s_knots, H.s_knots)
        assert np.array_equal(rr.alpha, H.alpha)
        assert np.array_equal(rr.beta, H.beta)
        assert np.array_equal(rr.kappa, H.kappa)


def test_c_gamma_invariant_under_reversal():
    kappa = np.sin(np.pi * np.linspace(0.0, 1.0, 101)) ** 2
    H = hj.quadratic_hamiltonian(beta=0.5, kappa=kappa)
    assert hj.c_gamma(hj.reverse_hamiltonian(H)) == hj.c_gamma(H)


def test_positive_shift_noop_when_already_positive(habs):
    net = hj.build_network(["a", "b"], [("e", "a", "b")])
    fam = hj.family_from_edges(net, {"e": habs})
    fam2, a, lim2 = hj.positive_shift(fam, {"a": -1.0, "b": -1.0})
    assert a == 0.0
    assert fam2 is fam


def test_positive_shift_lifts_negative_minimum():
    net = hj.build_network(["a", "b"], [("e", "a", "b")])
    H = hj.quadratic_hamiltonian(kappa=-3.0)  # p^2 - 3
    fam = hj.family_from_edges(net, {"e": H})
    margin = 2.0 ** -7
    fam2, a, lim2 = hj.positive_shift(fam, {"a": -4.0, "b": -4.0}, margin=margin)
    assert a == 3.0 + margin
    assert lim2["a"] == -4.0 - a
    assert global_min(fam2["e"]) == pytest.approx(margin, abs=1e-15)
    # critical values shift exactly opposite
    assert hj.c_gamma(fam2["e"]) == hj.c_gamma(H) - a


def test_positive_shift_reads_the_forward_arcs_and_keeps_them():
    # the family records its forward arcs, and the shift reads min H there;
    # a reverse arc derives no check grid
    H = hj.quadratic_hamiltonian(alpha=[1.0, 2.0], beta=[0.5, -0.3],
                                 kappa=[-1.0, 0.2])
    net = hj.build_network(["a", "b"], [("e", "a", "b")])
    fam = hj.family_from_edges(net, {"e": H})
    assert fam.forward == ("e",)
    fam2, a, _ = hj.positive_shift(fam, {"a": -4.0, "b": -4.0})
    assert a == 1e-6 - global_min(H) and fam2.forward == ("e",)
    assert "_check" not in vars(fam["e~"])
    assert "_check" not in vars(fam2["e~"])


def test_positive_shift_global_minimum_across_arcs():
    net = hj.build_network(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
    fam = hj.family_from_edges(net, {"e1": hj.abs_hamiltonian(),
                                     "e2": hj.abs_hamiltonian(kappa=5.0)})
    margin = 1e-6
    _, a, _ = hj.positive_shift(fam, {x: -10.0 for x in "abc"}, margin=margin)
    assert a == pytest.approx(margin, abs=0.0)


def _level(H, w0):
    """The level of one pair: a batch of one."""
    return hj.subsolution_levels([H], [w0])[0]


def test_subsolution_level(habs, hquad):
    grid = np.linspace(0.0, 1.0, 11)
    assert _level(habs, grid) == pytest.approx(2.0, rel=1e-12)
    assert _level(habs, np.full(11, 7.0)) == 1.0
    assert _level(hquad, 2.0 * grid) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        _level(habs, np.array([1.0]))


def test_subsolution_level_monotone_in_slopes(habs):
    rng = np.random.default_rng(5)
    base = np.cumsum(rng.normal(size=33)) * 0.05
    steeper = base * 1.7
    assert _level(habs, steeper) >= _level(habs, base)


def _old_level(H, w0):
    """The one-pair level as it was computed before the batch: H at the cell
    midpoints and forward-difference slopes, through ``evaluate``."""
    n = w0.size - 1
    mids = (np.arange(n) + 0.5) / n
    return float(np.max(hj.evaluate(H, mids, np.diff(w0) * n)))


def _level_rows(rng):
    """Every kind, s-dependent: an abs and a quadratic row, two sampled rows
    sharing their momentum knots and one on knots of its own, and a sampled
    row whose datum slopes leave its table; data on three grid lengths."""
    p = np.linspace(-3.0, 3.0, 9)
    sampled = []
    for knots, a in ((p, [0.6, 0.8, 0.5]), (p, [1.1, 0.7, 0.9]),
                     (np.linspace(-2.0, 2.5, 7), [0.9, 1.3, 0.4])):
        table = np.array(a)[:, None] * (knots[None, :] + 0.2) ** 2 + 0.6
        edge = float(np.max(np.abs(np.diff(table, axis=1) / np.diff(knots))))
        sampled.append(hj.sampled_hamiltonian([0.0, 0.5, 1.0], knots, table,
                                              edge + 0.5))
    hams = [hj.abs_hamiltonian(alpha=[1.0, 2.0, 1.5], beta=[0.0, 0.4, -0.2],
                               kappa=-0.5),
            hj.quadratic_hamiltonian(alpha=[0.5, 1.2], beta=[0.2, -0.4],
                                     kappa=[0.6, 1.1]),
            *sampled, sampled[0]]
    hams = hams + [dataclasses.replace(H) for H in hams]
    data = [np.cumsum(rng.normal(scale=0.3, size=n + 1)) / n ** 0.5
            for n in (8, 13, 24, 13, 8, 24, 13, 24, 8, 24, 13, 8)]
    data[5] = data[5] * 40.0           # slopes past the sampled table's range
    return hams, data


def test_batched_levels_equal_the_per_pair_formula_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(5):
        hams, data = _level_rows(rng)
        want = [_old_level(H, w0).hex() for H, w0 in zip(hams, data)]
        batch = hj.subsolution_levels(hams, data)
        assert all(type(m) is float for m in batch)
        assert [m.hex() for m in batch] == want
        fresh = [dataclasses.replace(H) for H in hams]
        assert [_level(H, w0).hex() for H, w0 in zip(fresh, data)] == want
        # the same pairs in reverse order, on warm midpoint caches
        assert [m.hex() for m in hj.subsolution_levels(hams[::-1],
                                                       data[::-1])] \
            == want[::-1]
    assert hj.subsolution_levels([], []) == []


def test_batched_levels_share_one_call_per_kind_knots_and_length(
        monkeypatch):
    rows = []
    columns = hamiltonians._Columns

    def counted(hams, s, coefs=None):
        rows.append(len(hams))
        return columns(hams, s, coefs)

    monkeypatch.setattr(hamiltonians, "_Columns", counted)
    hams, data = _level_rows(np.random.default_rng(4))
    hj.subsolution_levels(hams, data)
    groups = {(H.kind, None if H.p_knots is None else tuple(H.p_knots),
               w0.size) for H, w0 in zip(hams, data)}
    assert len(rows) == len(groups) and sum(rows) == len(hams)
    # midpoint coefficients are derived once per (H, n)
    derived = []
    coefficients = hamiltonians._coefficients

    def counted_coefs(H, s):
        derived.append(len(s))
        return coefficients(H, s)

    monkeypatch.setattr(hamiltonians, "_coefficients", counted_coefs)
    hj.subsolution_levels(hams, data)
    assert derived == []
    H = dataclasses.replace(hams[0])
    hj.subsolution_levels([H, H], [data[0], data[0] + 1.0])
    assert derived == [data[0].size - 1]


def test_batched_levels_reject_a_short_datum(habs, hquad):
    for bad in (np.array([1.0]), np.zeros((2, 3)), np.float64(2.0)):
        with pytest.raises(ValueError, match="at least 2 samples"):
            hj.subsolution_levels([habs, hquad], [np.zeros(5), bad])
        with pytest.raises(ValueError, match="at least 2 samples"):
            _level(hquad, bad)


def test_cached_scalars_equal_their_uncached_formulas_bitwise():
    rng = np.random.default_rng(11)
    hams, _ = _level_rows(rng)
    hams += [_random_table(rng) for _ in range(20)]
    hams += [hj.quadratic_hamiltonian(alpha=rng.uniform(0.2, 2.0, 4),
                                      beta=rng.uniform(-2.0, 2.0, 4),
                                      kappa=rng.uniform(-1.0, 1.0, 4))
             for _ in range(10)]
    hams += [hj.abs_hamiltonian(alpha=rng.uniform(0.2, 2.0, 3),
                                beta=rng.uniform(-2.0, 2.0, 3),
                                kappa=rng.uniform(-1.0, 1.0, 3))
             for _ in range(10)]
    for H in hams:
        # min_p H in closed form at the check grid's nodes, looked up afresh
        s = hamiltonians._s_check_grid(H)
        if H.kind == "sampled":
            mins = np.min(hamiltonians._sampled_rows_at(H, s), axis=1)
        else:
            a, b, k = (np.interp(s, H.s_knots, c)
                       for c in (H.alpha, H.beta, H.kappa))
            mins = k if H.kind == "abs" else k - b * b / (4.0 * a)
            # H at its minimizer, to the roundoff of the terms it sums
            at = hj.evaluate(H, s, momentum_minimizer(H, s))
            scale = np.abs(k) + (0.0 if H.kind == "abs" else b * b / a)
            assert np.all(np.abs(at - mins) <= 2.0 * np.spacing(scale))
        for _ in range(2):            # derived, then read from the cache
            assert hj.c_gamma(H).hex() == (-float(np.max(mins))).hex()
            assert global_min(H).hex() == float(np.min(mins)).hex()
            assert type(hj.c_gamma(H)) is float
            assert type(global_min(H)) is float
        if H.kind == "sampled":
            continue
        for M in (1e-3, 0.7, 1.0, 3.0, float(rng.uniform(0.0, 50.0)), 1e6):
            want = (float(2.0 * np.max(H.alpha) * M + np.max(np.abs(H.beta)))
                    if H.kind == "quadratic" else float(np.max(H.alpha)))
            got = hj.momentum_lipschitz(H, M)
            assert type(got) is float and got.hex() == want.hex(), (H, M)
            assert hj.momentum_lipschitz(H, np.float64(M)).hex() == want.hex()


def test_sublevel_width(habs, hquad):
    assert hj.sublevel_width(habs, 2.0) == pytest.approx(1.0, abs=1e-9)
    assert hj.sublevel_width(hquad, 9.0) == pytest.approx(3.0, abs=1e-9)


def test_sublevel_width_binding_constraint_scanned():
    # H = |p| + sin^2(pi s) + 1; at s = 1/2 the sublevel at M = 2 pins p to
    # 0, yet the slope bound is the widest node's, [-1, 1] at the ends
    kappa = np.sin(np.pi * np.linspace(0.0, 1.0, 101)) ** 2 + 1.0
    H = hj.abs_hamiltonian(kappa=kappa)
    w = hj.sublevel_width(H, 2.0)
    # independent oracle: direct scan for the widest |p| feasible at each s
    p = np.linspace(-2.0, 2.0, 4001)
    s = np.linspace(0.0, 1.0, 201)
    feas = hj.evaluate(H, s[:, None], p[None, :]) <= 2.0 + 1e-12
    scan = np.max(np.where(feas, np.abs(p), 0.0), axis=1)
    assert scan[100] == 0.0
    assert w == pytest.approx(np.max(scan), abs=1e-3)
    assert w == pytest.approx(1.0, abs=1e-12)


def test_sublevel_width_nondecreasing_in_level(habs):
    widths = [hj.sublevel_width(habs, M) for M in (1.0, 1.5, 2.5, 4.0)]
    assert all(b >= a for a, b in zip(widths, widths[1:]))


def test_sublevel_width_empty(hquad):
    with pytest.raises(EmptySublevelError):
        hj.sublevel_width(hj.quadratic_hamiltonian(kappa=2.0), 1.0)


def _sampled_rows():
    """Three convex rows on nine knots in [-2, 2], the extension slope 7."""
    p = np.linspace(-2.0, 2.0, 9)
    rows = [(p - 0.3) ** 2 + 0.2, 0.5 * np.abs(p + 0.4) + 0.6, 1.5 * p ** 2]
    return hj.sampled_hamiltonian([0.0, 0.3, 1.0], p, rows, 7.0)


INTERVALS = {
    "abs": (hj.abs_hamiltonian(alpha=[1.0, 2.5, 0.7], beta=[0.3, -0.6, 0.1],
                               kappa=[0.4, 0.9, -0.2]), 1.5),
    # beta = 0 at s = 1, where the stable form has no sign to take
    "quadratic": (hj.quadratic_hamiltonian(
        alpha=[0.5, 1.5, 1.0], beta=[0.8, -0.4, 0.0], kappa=[0.9, 0.6, 1.0]),
        3.0),
    "sampled": (_sampled_rows(), 1.0),
    "sampled_beyond_table": (_sampled_rows(), 12.0),
    # M = kappa with beta = 0: q = 0, a double root at p = 0 everywhere
    "quadratic_double_root": (hj.quadratic_hamiltonian(
        alpha=[1.0, 2.0], beta=0.0, kappa=0.7), 0.7),
}


@pytest.mark.parametrize("name", sorted(INTERVALS))
def test_sublevel_interval_ends_lie_on_the_level(name):
    H, M = INTERVALS[name]
    s = np.union1d(H.s_knots, np.linspace(0.0, 1.0, 41))
    lo, hi = hj.sublevel_interval(H, s, M)
    assert lo.shape == hi.shape == s.shape and np.all(lo <= hi)
    for end in (lo, hi):
        assert np.max(np.abs(hj.evaluate(H, s, end) - M)) <= 1e-12 * (1 + M)
    # just outside each end H exceeds M; just inside it does not
    d = 1e-6
    assert np.all(hj.evaluate(H, s, lo - d) > M)
    assert np.all(hj.evaluate(H, s, hi + d) > M)
    wide = hi - lo > 2 * d
    assert np.all(hj.evaluate(H, s[wide], lo[wide] + d) <= M)
    assert np.all(hj.evaluate(H, s[wide], hi[wide] - d) <= M)
    if name == "quadratic_double_root":
        assert not wide.any() and np.all(lo == 0.0) and np.all(hi == 0.0)
    if name == "sampled_beyond_table":
        assert np.all(lo < H.p_knots[0]) and np.all(hi > H.p_knots[-1])


@pytest.mark.parametrize("name", sorted(INTERVALS))
def test_sublevel_width_matches_a_dense_scan_of_the_intersection(name):
    # the width is the largest over the check grid's nodes of the widest
    # |p| feasible at the node, not the width of the intersection over s
    H, M = INTERVALS[name]
    w = hj.sublevel_width(dataclasses.replace(H), M)
    dp = 2e-3
    p = np.arange(-2000, 2001) * dp
    s = hamiltonians._s_check_grid(H)
    feas = hj.evaluate(H, s[:, None], p[None, :]) <= M + 1e-12
    assert w == pytest.approx(np.max(np.where(feas, np.abs(p), 0.0)), abs=dp)


def test_a_quadratic_at_its_evaluated_minimum_is_a_point_not_empty():
    # the discriminant may round below 0 at M = min H; the node still holds
    # the minimizer, so a stationary datum with its limiter at c_gamma plans
    rng = np.random.default_rng(3)
    net = hj.build_network(["a", "b"], [("e", "a", "b")])
    s = np.linspace(0.0, 1.0, 17)
    rounded = 0
    for _ in range(40):
        a, b, k = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5), 1.0
        H = hj.quadratic_hamiltonian(alpha=a, beta=b, kappa=k)
        M = global_min(H)
        rounded += b * b - 4.0 * a * (k - M) < 0.0
        lo, hi = hj.sublevel_interval(H, s, M)
        assert np.all(np.abs(lo + b / (2 * a)) <= 1e-7)
        assert np.all(np.abs(hi + b / (2 * a)) <= 1e-7)
        cg = hj.c_gamma(H)
        sc = hj.Scenario(net, hj.family_from_edges(net, {"e": H}),
                         {"a": cg, "b": cg}, {"e": -b / (2 * a) * s},
                         horizon=0.1, ns=16)
        assert hj.verify(hj.solve(sc)).ok
    assert rounded > 0
    with pytest.raises(EmptySublevelError, match="is empty at s=0.0 "):
        hj.sublevel_interval(H, s, M - 1e-9)
    # the minimizer drifts with s, so the sets at c_gamma share no momentum;
    # the datum's slope follows the minimizer, whose level peaks at s = 5/9,
    # a field node at ns = 36 between two nodes of the check grid
    H = hj.quadratic_hamiltonian(alpha=1.0, beta=[-0.5, 0.4], kappa=1.0)
    cg = hj.c_gamma(H)
    for ns in (32, 36, 100):
        s = np.linspace(0.0, 1.0, ns + 1)
        sc = hj.Scenario(net, hj.family_from_edges(net, {"e": H}),
                         {"a": cg, "b": cg}, {"e": 0.25 * s - 0.225 * s * s},
                         horizon=0.25, ns=ns)
        rep = hj.verify(hj.solve(sc))
        assert rep.ok, (ns, [c.name for c in rep.checks if not c.ok])


def test_invariants_are_derived_once_per_hamiltonian(monkeypatch):
    # the check grid and its coefficients are derived once; c_gamma,
    # global_min and every sublevel_width read them
    calls = {"grid": 0, "interval": 0}
    check_grid = hamiltonians._s_check_grid
    interval = hamiltonians._interval

    def counted_grid(H):
        calls["grid"] += 1
        return check_grid(H)

    def counted_interval(H, s, coefs, M):
        calls["interval"] += 1
        return interval(H, s, coefs, M)

    monkeypatch.setattr(hamiltonians, "_s_check_grid", counted_grid)
    monkeypatch.setattr(hamiltonians, "_interval", counted_interval)
    H = hj.abs_hamiltonian(alpha=[1.0, 2.0, 1.5], beta=[0.0, 0.4, -0.2],
                           kappa=-0.5)
    fresh = dataclasses.replace(H)
    cg, gm = hj.c_gamma(H), global_min(H)
    assert calls["grid"] == 1
    assert hj.c_gamma(H) == cg and global_min(H) == gm
    assert calls["grid"] == 1
    # bitwise the values a fresh copy derives afresh
    assert hj.c_gamma(fresh) == cg and global_min(fresh) == gm
    assert calls["grid"] == 2

    w = hj.sublevel_width(H, 2.0)
    assert calls == {"grid": 2, "interval": 1}
    assert hj.sublevel_width(H, 2.0) == w and calls["interval"] == 1
    assert hj.sublevel_width(fresh, 2.0) == w
    assert hj.sublevel_width(H, 3.0) > w
    assert calls == {"grid": 2, "interval": 3}

    # a replaced Hamiltonian is a new object with its own invariants
    raised = shift_hamiltonian(H, 1.0)
    assert hj.c_gamma(raised) == pytest.approx(cg - 1.0, abs=1e-12)
    assert calls["grid"] == 3
    with pytest.raises(EmptySublevelError):
        hj.sublevel_width(raised, -5.0)
    assert calls["grid"] == 3


def _parabolas(centers):
    """Sampled (p - c)^2 on the knots -1.5, -0.5, 0.5, 1.5, c moving
    linearly in s through centers."""
    p = np.array([-1.5, -0.5, 0.5, 1.5])
    table = (p[None, :] - np.array(centers)[:, None]) ** 2
    edge = float(np.max(np.abs(np.diff(table, axis=1) / np.diff(p))))
    return hj.sampled_hamiltonian(np.linspace(0.0, 1.0, len(centers)), p,
                                  table, edge + 0.5)


def _mixed_batch(M):
    """The pinned width Hamiltonians, each shifted so that its pinned level
    is M, every arc of make_mixed(48) and make_comb(0..3), and two sampled
    parabolas on one knot vector whose centres move with s, so that no
    per-s minimizer minimizes max_s H."""
    hams = [shift_hamiltonian(make(), M - level)
            for _, make, level, _ in WIDTHS]
    hams += [shift_hamiltonian(_parabolas([-0.5, 0.5]), M - 0.75),
             _parabolas([-1.5, -0.5, 0.5])]
    for sc in [make_mixed(48)] + [make_comb(seed) for seed in range(4)]:
        hams += [sc.hamiltonians[a] for a in sc.hamiltonians.arcs()]
    return hams


def test_widths_are_bitwise_those_a_fresh_copy_derives():
    M = 3.0
    hams = _mixed_batch(M)
    first = [hj.sublevel_width(H, M) for H in hams]
    assert all(type(w) is float for w in first)
    # read back from the cache, and derived afresh by a copy of each
    assert [hj.sublevel_width(H, M) for H in hams] == first
    fresh = [hj.sublevel_width(dataclasses.replace(H), M) for H in hams]
    assert [w.hex() for w in fresh] == [w.hex() for w in first]
    for H in hams[:4]:
        cells = hamiltonians.cell_widths(H, 48, M)
        assert hamiltonians.cell_widths(H, 48, M) is cells
        again = hamiltonians.cell_widths(dataclasses.replace(H), 48, M)
        assert again.tobytes() == cells.tobytes()


def test_sublevel_interval_raises_at_the_first_empty_node():
    # kappa exceeds 1 from s = 0.25 on the way up to its peak at s = 0.5,
    # and again from s = 0.875
    H = hj.abs_hamiltonian(kappa=[0.5, 1.5, 0.5, 2.0],
                           s_knots=[0.0, 0.5, 0.75, 1.0])
    s = np.linspace(0.0, 1.0, 9)
    with pytest.raises(EmptySublevelError,
                       match=r"^sublevel at M=1.0 is empty at s=0.375 "):
        hj.sublevel_interval(H, s, 1.0)
    with pytest.raises(EmptySublevelError,
                       match=r"^sublevel at M=1.0 is empty at s=0.875 "):
        hj.sublevel_interval(H, s[6:], 1.0)
    hj.sublevel_interval(H, s[5:7], 1.0)    # 0.625 and 0.75 are not empty
    quad = hj.quadratic_hamiltonian(kappa=2.0)
    ternary = hj.abs_hamiltonian(alpha=1.0, beta=[-1.0, 0.3, 1.0], kappa=0.0)
    with pytest.raises(EmptySublevelError, match="is empty at s=0.0 "):
        hj.sublevel_width(quad, 0.9)
    assert 0.9 not in quad._widths
    # every node's set is non-empty, though no one p lies in all of them:
    # the width is the widest node's, |beta| + M at s = 0 and s = 1
    assert hj.sublevel_width(ternary, 0.9) == 1.9


def test_sublevel_width_reads_and_fills_the_width_cache(monkeypatch):
    # coefficients are looked up once per grid: the check grid's serve
    # sublevel_width and c_gamma, a march grid's serve cell_widths
    calls = []
    coefficients = hamiltonians._coefficients

    def counted(H, s):
        calls.append(np.size(s))
        return coefficients(H, s)

    monkeypatch.setattr(hamiltonians, "_coefficients", counted)
    known = hj.abs_hamiltonian(alpha=2.0, kappa=0.5)
    new = hj.abs_hamiltonian(alpha=1.5, kappa=0.25)
    w_known = hj.sublevel_width(known, 2.0)
    assert calls == [257]      # the check grid, with the s-knots on it
    widths = [hj.sublevel_width(H, 2.0) for H in (known, new, new, known)]
    # the cached width and the repeat are not redone
    assert calls == [257, 257]
    w_new = new._widths[2.0]
    assert widths == [w_known, w_new, w_new, w_known]
    assert hj.sublevel_width(new, 1.0) < w_new and calls == [257, 257]
    assert hj.c_gamma(new) == -0.25 and calls == [257, 257]
    cells = hamiltonians.cell_widths(new, 24, 2.0)
    assert calls == [257, 257, 25] and cells.shape == (24,)
    assert hamiltonians.cell_widths(new, 24, 2.0) is cells
    assert new._widths[24, 2.0] is cells and new._widths[2.0] == w_new
    hamiltonians.cell_widths(new, 24, 1.0)
    assert hamiltonians._grid_peak(new, 24) == 0.25
    assert calls == [257, 257, 25]
    assert hj.sublevel_width(dataclasses.replace(new), 2.0) == w_new
    assert calls == [257, 257, 25, 257]


def test_momentum_lipschitz(habs, hquad):
    assert hj.momentum_lipschitz(habs, 17.0) == 1.0
    assert hj.momentum_lipschitz(hquad, 2.0) == 4.0
    H = hj.abs_hamiltonian(alpha=2.0, beta=1.0, kappa=0.3)
    assert hj.momentum_lipschitz(H, 3.0) == 2.0


def _full_scan_lipschitz(H, M_bound):
    """The sampled kind's constant from an independent scan of its table:
    rise over run of every cell in every s-knot row, the largest |slope|
    over the cells that meet (-M, M), and the extension slope when M passes
    an end of the table: the oracle of the cached cell slopes."""
    pk, rows = H.p_knots.tolist(), H.table.tolist()
    best = (float(H.extension_slope) if M_bound > pk[-1] or -M_bound < pk[0]
            else 0.0)
    for j in range(len(pk) - 1):
        if pk[j] < M_bound and pk[j + 1] > -M_bound:
            for row in rows:
                best = max(best, abs((row[j + 1] - row[j])
                                     / (pk[j + 1] - pk[j])))
    return best


def _random_table(rng):
    """A convex sampled H on uniform momentum knots; the knots straddle 0 or
    lie on one side of it."""
    k, rows = int(rng.integers(3, 10)), int(rng.integers(2, 5))
    u, v = rng.uniform(0.1, 4.0), rng.uniform(0.5, 4.0)
    p = np.linspace(*[(-u, v), (u, u + v), (-u - v, -u)][rng.integers(3)], k)
    a = rng.uniform(0.2, 2.0, rows)[:, None]
    b = rng.uniform(0.0, 1.5, rows)[:, None]
    c = rng.uniform(-1.0, 1.0, rows)[:, None]
    table = a * (p - c) ** 2 + b * np.abs(p - c) + rng.uniform(-1.0, 1.0)
    edge = np.diff(table, axis=1) / np.diff(p)
    slope = max(edge[:, -1].max(), -edge[:, 0].min(), 0.0) + rng.uniform(0.1, 1.0)
    return hj.sampled_hamiltonian(np.linspace(0.0, 1.0, rows), p, table, slope)


def test_sampled_lipschitz_reads_cell_slopes_bitwise_like_a_full_scan():
    rng = np.random.default_rng(13)
    for _ in range(200):
        H = _random_table(rng)
        ends = np.abs(H.p_knots)
        bounds = [1e-3 * ends.min(), 0.5 * np.abs(H.p_knots[1]),
                  *rng.uniform(0.0, 1.5 * ends.max(), 4),
                  *(0.5 * (ends[:-1] + ends[1:])),        # between knots
                  *ends,                                  # on every knot
                  *np.nextafter(ends, 0.0), *np.nextafter(ends, np.inf),
                  1.5 * ends.max(), 1e3]                  # beyond the ends
        for M in bounds:
            if M > 0:
                assert (hj.momentum_lipschitz(H, float(M)).hex()
                        == _full_scan_lipschitz(H, float(M)).hex()), (H, M)


@pytest.mark.parametrize("M", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_momentum_lipschitz_rejects_a_bound_that_is_not_finite_and_positive(
        M, habs, hquad):
    for H in (habs, hquad, hj.sampled_hamiltonian([0.0, 1.0], *_table(), 2.0)):
        with pytest.raises(ValueError, match="M_bound must be finite and"):
            hj.momentum_lipschitz(H, M)


def test_momentum_minimizer():
    assert momentum_minimizer(hj.abs_hamiltonian(beta=0.7), 0.3)[0] == 0.7
    assert momentum_minimizer(hj.quadratic_hamiltonian(beta=-2.0), 0.5)[0] == 1.0


def test_family_reversal_law_validated():
    net = hj.build_network(["a", "b"], [("e", "a", "b")])
    fam = hj.family_from_edges(
        net, {"e": hj.quadratic_hamiltonian(beta=0.3,
                                            kappa=np.linspace(0.0, 1.0, 7))})
    S, P = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(-3.0, 3.0, 25),
                       indexing="ij")
    for arc in net.edge_arcs():
        dev = np.abs(hj.evaluate(fam[arc.inverse_id], S, P)
                     - hj.evaluate(fam[arc.id], 1.0 - S, -P))
        assert np.max(dev) <= 1e-10


def test_shift_hamiltonian_sampled():
    p = np.linspace(-2.0, 2.0, 9)
    table = np.tile(np.abs(p), (2, 1))
    H = hj.sampled_hamiltonian([0.0, 1.0], p, table, extension_slope=1.0)
    H2 = shift_hamiltonian(H, 1.5)
    assert hj.evaluate(H2, 0.5, 0.5) == pytest.approx(2.0, abs=1e-14)


def test_sampled_constants():
    p = np.linspace(-2.0, 2.0, 17)
    table = np.tile(np.abs(p) + 1.0, (3, 1))
    H = hj.sampled_hamiltonian([0.0, 0.5, 1.0], p, table, extension_slope=1.0)
    assert hj.momentum_lipschitz(H, 1.5) == pytest.approx(1.0, abs=1e-12)
    assert hj.momentum_lipschitz(H, 5.0) == pytest.approx(1.0, abs=1e-12)
    assert hj.c_gamma(H) == -1.0
    assert hj.sublevel_width(H, 2.0) == pytest.approx(1.0, abs=1e-9)
    r = hj.reverse_hamiltonian(H)
    s = np.linspace(0.0, 1.0, 9)
    q = np.linspace(-1.5, 1.5, 7)
    assert np.max(np.abs(hj.evaluate(r, s[:, None], q[None, :])
                         - hj.evaluate(H, 1.0 - s[:, None], -q[None, :]))) < 1e-12


def _table(centre=1.0):
    """|p| + 1 on five knots at two s knots, its value at (0, 0) replaced."""
    p = np.linspace(-2.0, 2.0, 5)
    table = np.tile(np.abs(p) + 1.0, (2, 1))
    table[0, 2] = centre
    return p, table


@pytest.mark.parametrize("make, name", [
    (lambda: hj.abs_hamiltonian(alpha=np.nan), "alpha"),
    (lambda: hj.abs_hamiltonian(beta=[0.0, np.inf]), "beta"),
    (lambda: hj.quadratic_hamiltonian(kappa=np.inf), "kappa"),
    (lambda: hj.quadratic_hamiltonian(alpha=[1.0, 1.0, 1.0],
                                      s_knots=[0.0, np.nan, 1.0]), "s_knots"),
    (lambda: hj.sampled_hamiltonian([0.0, 1.0], [-2.0, -1.0, 0.0, 1.0, np.inf],
                                    _table()[1], 2.0), "p_knots"),
    (lambda: hj.sampled_hamiltonian([0.0, 1.0], *_table(np.nan), 2.0),
     "table"),
    (lambda: hj.sampled_hamiltonian([0.0, 1.0], *_table(), np.nan),
     "extension_slope"),
    (lambda: hj.sampled_hamiltonian([0.0, 1.0], *_table(), np.inf),
     "extension_slope"),
], ids=["abs-alpha-nan", "abs-beta-inf", "quadratic-kappa-inf",
        "s-knot-nan", "p-knot-inf", "table-nan", "slope-nan", "slope-inf"])
def test_constructors_reject_non_finite_data(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        make()


@pytest.mark.parametrize("make, name", [
    (lambda: hj.abs_hamiltonian(kappa=[]), "kappa"),
    (lambda: hj.quadratic_hamiltonian(beta=np.empty(0)), "beta"),
    (lambda: hj.abs_hamiltonian(alpha=[], beta=[0.0, 0.5]), "alpha"),
], ids=["abs-kappa", "quadratic-beta", "alpha-beside-an-array"])
def test_constructors_reject_an_empty_coefficient(make, name):
    # unchecked, kappa=[] built an H that np.interp later failed on
    with pytest.raises(ValueError, match=f"^{name} needs at least one value$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: hj.abs_hamiltonian(alpha=[1.0, 2.0], s_knots=[0.0, 0.5, 1.0]),
     "s_knots must match coefficient length"),
    (lambda: hj.quadratic_hamiltonian(kappa=[0.0, 1.0, 2.0],
                                      s_knots=[0.0, 0.7, 0.5]),
     "s_knots must increase from 0 to 1"),
    (lambda: hj.abs_hamiltonian(kappa=[0.0, 1.0], s_knots=[0.1, 1.0]),
     "s_knots must increase from 0 to 1"),
    (lambda: hj.abs_hamiltonian(alpha=[1.0, 2.0], kappa=[0.0, 1.0, 2.0]),
     "coefficient arrays must share one s-knot grid"),
    (lambda: hj.sampled_hamiltonian([0.0, 1.0], [-1.0, 0.0, 1.0],
                                    np.ones((3, 3)), 2.0),
     r"table shape must be \(len\(s_knots\), len\(p_knots\)\)"),
    (lambda: hj.sampled_hamiltonian([0.0, 1.0], [-1.0, 1.0],
                                    np.ones((2, 2)), 2.0),
     "need at least 3 momentum knots"),
    (lambda: hj.sampled_hamiltonian([0.0, 1.0], [-1.0, 1.0, 0.0],
                                    np.ones((2, 3)), 2.0),
     "p_knots must be increasing"),
    (lambda: hj.sampled_hamiltonian([0.0, 1.0], [-1.0, 0.0, 1.0],
                                    [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]], 2.0),
     "table is not convex in p"),
    (lambda: hj.sampled_hamiltonian([0.0, 1.0], *_table(), 0.0),
     r"extension slope must be positive \(coercivity\)"),
    (lambda: hj.sampled_hamiltonian([0.0, 1.0], *_table(), 0.5),
     "extension slope shallower than boundary table slopes"),
], ids=["knots-length", "knots-unsorted", "knots-from-0.1", "two-grids",
        "table-shape", "two-momenta", "momenta-unsorted", "not-convex",
        "slope-0", "slope-shallow"])
def test_constructors_reject_malformed_knots_and_tables(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("knots, row, convex", [
    # wide second cells: slopes 1 then 1/9 fall, -1 then -4/9 rise
    ([0.0, 1.0, 10.0], [0.0, 1.0, 2.0], False),
    ([0.0, 1.0, 10.0], [0.0, -1.0, -5.0], True),
    # unit knots: the slopes may fall by TOL_CONVEX (1 + max |table|)
    ([-1.0, 0.0, 1.0], [0.0, 2e-11, 0.0], True),
    ([-1.0, 0.0, 1.0], [0.0, 1e-10, 0.0], False),
], ids=["wide-cell-concave", "wide-cell-convex", "unit-inside-tolerance",
        "unit-beyond-tolerance"])
def test_convexity_is_judged_on_the_cell_slopes(knots, row, convex):
    def make():
        return hj.sampled_hamiltonian([0.0, 1.0], knots, [row, row], 2.0)

    if convex:
        assert make().kind == "sampled"
    else:
        with pytest.raises(ValueError, match="^table is not convex in p$"):
            make()


@pytest.mark.parametrize("values", [
    [0.75, -2.0, 0.25, 3.5, -1.0],
    [1.0, 0.5, 1.0, 0.5, 0.5, 2.0, 1.0],
    [0.0, -0.0],
    [-0.0, 0.0],
    [1.0, -0.0, 0.0, -0.0, 0.0],
    [4.25],
    [0.5, 0.5, 0.5, 0.5],
], ids=["unsorted", "repeats", "zero-then-negative-zero",
        "negative-zero-then-zero", "signed-zeros-and-more", "one", "all-equal"])
def test_sorted_distinct_is_numpy_unique_bit_for_bit(values):
    a = np.array(values)
    got, want = hamiltonians._sorted_distinct(a), np.unique(a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(a, values)            # the input is left as it was


def test_check_grids_are_numpy_unique_bit_for_bit():
    grid = np.linspace(0.0, 1.0, 257)
    for H in _mixed_batch(3.0):
        s = hamiltonians._s_check_grid(H)
        assert s.tobytes() == np.union1d(H.s_knots, grid).tobytes()


_NO_MASKED_ARRAYS = """
import sys, tempfile
import numpy as np
import hjnet as hj
from hjnet.cli import load_solution_csv, write_solution_csv

p = np.linspace(-2.0, 2.0, 5)
table = np.array([np.abs(p) + 1.0, p ** 2 + 1.0])
kinds = [hj.quadratic_hamiltonian(alpha=[1.0, 2.0], beta=[0.0, 0.5]),
         hj.abs_hamiltonian(alpha=1.5, beta=[-0.5, 0.25], kappa=1.0),
         hj.sampled_hamiltonian([0.0, 1.0], p, table, 5.0)]
assert [hj.c_gamma(H) for H in kinds]
assert all(hj.sublevel_width(H, 4.0) > 0 for H in kinds)

net = hj.build_network(["x0", "x1", "x2", "x3"], [("e1", "x1", "x0"),
                       ("e2", "x2", "x0"), ("e3", "x3", "x0")])
H = hj.abs_hamiltonian(kappa=1.0)
sc = hj.Scenario(net, hj.family_from_edges(net, dict.fromkeys(["e1", "e2", "e3"], H)),
                 {"x0": -2.0, "x1": -1.0, "x2": -1.0, "x3": -1.0},
                 {e: np.zeros(25) for e in ("e1", "e2", "e3")},
                 horizon=0.5, ns=24, name="tripod")
sol = hj.solve(sc, hj.plan_solve(sc))
assert hj.verify(sol).ok
with tempfile.TemporaryDirectory() as out:
    write_solution_csv(sol, out)
    back = load_solution_csv(out, sc, sol.params)
assert back.fields["e1"].tobytes() == sol.fields["e1"].tobytes()
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_no_hjnet_path_imports_masked_arrays(tmp_path):
    # numpy's set routines import numpy.ma on their first call, which costs
    # a fresh process several milliseconds; no step of a run may make one
    src = Path(hj.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
