"""Hamiltonian kinds, derived constants, reversal and the positivity shift."""

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


def test_positive_shift_global_minimum_across_arcs():
    net = hj.build_network(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
    fam = hj.family_from_edges(net, {"e1": hj.abs_hamiltonian(),
                                     "e2": hj.abs_hamiltonian(kappa=5.0)})
    margin = 1e-6
    _, a, _ = hj.positive_shift(fam, {x: -10.0 for x in "abc"}, margin=margin)
    assert a == pytest.approx(margin, abs=0.0)


def test_subsolution_level(habs, hquad):
    grid = np.linspace(0.0, 1.0, 11)
    assert hj.subsolution_level(habs, grid) == pytest.approx(2.0, rel=1e-12)
    assert hj.subsolution_level(habs, np.full(11, 7.0)) == 1.0
    assert hj.subsolution_level(hquad, 2.0 * grid) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        hj.subsolution_level(habs, np.array([1.0]))


def test_subsolution_level_monotone_in_slopes(habs):
    rng = np.random.default_rng(5)
    base = np.cumsum(rng.normal(size=33)) * 0.05
    steeper = base * 1.7
    assert hj.subsolution_level(habs, steeper) >= hj.subsolution_level(habs, base)


def test_sublevel_width(habs, hquad):
    assert hj.sublevel_width(habs, 2.0) == pytest.approx(1.0, abs=1e-9)
    assert hj.sublevel_width(hquad, 9.0) == pytest.approx(3.0, abs=1e-9)


def test_sublevel_width_binding_constraint_scanned():
    # H = |p| + sin^2(pi s) + 1; at s = 1/2 the sublevel at M = 2 pins p to 0
    kappa = np.sin(np.pi * np.linspace(0.0, 1.0, 101)) ** 2 + 1.0
    H = hj.abs_hamiltonian(kappa=kappa)
    w = hj.sublevel_width(H, 2.0)
    # independent oracle: direct scan for the widest |p| feasible at every s
    p = np.linspace(-2.0, 2.0, 4001)
    s = np.linspace(0.0, 1.0, 201)
    feas = np.all(hj.evaluate(H, s[:, None], p[None, :]) <= 2.0 + 1e-12, axis=0)
    scan = np.max(np.abs(p[feas])) if np.any(feas) else 0.0
    assert w == pytest.approx(scan, abs=1e-3)
    assert w <= 1e-6


def test_sublevel_width_nondecreasing_in_level(habs):
    widths = [hj.sublevel_width(habs, M) for M in (1.0, 1.5, 2.5, 4.0)]
    assert all(b >= a for a, b in zip(widths, widths[1:]))


def test_sublevel_width_empty(hquad):
    with pytest.raises(EmptySublevelError):
        hj.sublevel_width(hj.quadratic_hamiltonian(kappa=2.0), 1.0)


def test_invariants_are_derived_once_per_hamiltonian(monkeypatch):
    calls = {"min_over_p": 0, "columns": 0}
    min_over_p, columns = hamiltonians._min_over_p, hamiltonians._Columns

    def counted_min(H, s):
        calls["min_over_p"] += 1
        return min_over_p(H, s)

    def counted_columns(hams, s):
        calls["columns"] += 1
        return columns(hams, s)

    monkeypatch.setattr(hamiltonians, "_min_over_p", counted_min)
    monkeypatch.setattr(hamiltonians, "_Columns", counted_columns)
    H = hj.abs_hamiltonian(alpha=[1.0, 2.0, 1.5], beta=[0.0, 0.4, -0.2],
                           kappa=-0.5)
    grid = np.union1d(H.s_knots, np.linspace(0.0, 1.0, 257))  # the default
    cg, gm = hj.c_gamma(H), global_min(H)
    assert calls["min_over_p"] == 1
    assert hj.c_gamma(H) == cg and global_min(H) == gm
    assert calls["min_over_p"] == 1
    # bitwise the values an explicit grid derives afresh
    assert hj.c_gamma(H, s_grid=grid) == cg and global_min(H, grid) == gm
    assert calls["min_over_p"] == 3

    w = hj.sublevel_width(H, 2.0)
    n = calls["columns"]
    assert hj.sublevel_width(H, 2.0) == w and calls["columns"] == n
    assert hj.sublevel_width(H, 2.0, s_grid=grid) == w
    assert hj.sublevel_width(H, 3.0) > w
    assert calls["columns"] == n + 2

    # a replaced Hamiltonian is a new object with its own invariants
    raised = shift_hamiltonian(H, 1.0)
    assert hj.c_gamma(raised) == pytest.approx(cg - 1.0, abs=1e-12)
    assert calls["min_over_p"] == 4
    with pytest.raises(EmptySublevelError):
        hj.sublevel_width(raised, -5.0)


def test_momentum_lipschitz(habs, hquad):
    assert hj.momentum_lipschitz(habs, 17.0) == 1.0
    assert hj.momentum_lipschitz(hquad, 2.0) == 4.0
    H = hj.abs_hamiltonian(alpha=2.0, beta=1.0, kappa=0.3)
    assert hj.momentum_lipschitz(H, 3.0) == 2.0


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
