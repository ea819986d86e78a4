"""Slope-cap transform: frozen examples, oracle equality, property suite."""

import numpy as np
import pytest

from hjnet.errors import NonNegativeSlopeError
from hjnet.slope_cap import (
    TimeSeries,
    apply_g,
    apply_g_bruteforce,
    _cap_columns,
    contact_set,
)

from conftest import dyadic_series


def series(vals, dt=1.0, t0=0.0):
    return TimeSeries(t0, dt, np.asarray(vals, dtype=float))


def test_constant_input_follows_the_cap():
    out = apply_g(series([5.0, 5.0, 5.0]), -1.0)
    assert np.array_equal(out.values, [5.0, 4.0, 3.0])


def test_steep_input_is_untouched():
    psi = series([0.0, -2.0, -4.0])
    out = apply_g(psi, -1.0)
    assert np.array_equal(out.values, psi.values)


def test_mixed_input_matches_bruteforce_example():
    psi = series([0.0, 1.0, -3.0])
    out = apply_g(psi, -1.0)
    assert np.array_equal(out.values, [0.0, -1.0, -3.0])
    assert np.array_equal(out.values, apply_g_bruteforce(psi, -1.0).values)


def test_monotone_increasing_input_rides_the_cap():
    psi = series(np.arange(8.0))
    out = apply_g(psi, -1.0)
    assert np.array_equal(out.values, psi.values[0] - np.arange(8.0))


def test_nonnegative_slope_rejected():
    with pytest.raises(NonNegativeSlopeError):
        apply_g(series([1.0, 2.0]), 0.0)
    with pytest.raises(NonNegativeSlopeError):
        apply_g_bruteforce(series([1.0, 2.0]), 0.5)


@pytest.mark.parametrize("t0, dt", [(np.nan, np.nan), (0.0, np.nan),
                                    (np.nan, 0.5), (0.0, np.inf)],
                         ids=["both-nan", "dt-nan", "t0-nan", "dt-inf"])
def test_series_rejects_a_non_finite_start_or_step(t0, dt):
    with pytest.raises(ValueError):
        TimeSeries(t0, dt, [1.0])


@pytest.mark.parametrize("values, message", [
    ([], "values must be a nonempty 1-d array"),
    ([[1.0, 2.0]], "values must be a nonempty 1-d array"),
    ([1.0, np.nan], "values must be finite"),
    ([np.inf], "values must be finite"),
], ids=["empty", "2-d", "nan", "inf"])
def test_series_rejects_values_that_are_not_a_finite_row(values, message):
    with pytest.raises(ValueError, match=message):
        TimeSeries(0.0, 0.5, values)


def test_the_stacked_cap_rejects_non_finite_values():
    # the vertex caps of the certificate call it on arrays, not series
    cols = np.array([[0.0, 1.0], [np.nan, 0.5]])
    with pytest.raises(ValueError, match="values must be finite"):
        _cap_columns(cols, [-1.0, -1.0], 0.1)


def test_matches_bruteforce_bitwise_on_dyadic_series():
    # dyadic values and steps keep both evaluations exact in floating point,
    # so the recursion and the O(n^2) definition must agree bit for bit
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 1200))
        psi = TimeSeries(0.0, 0.0078125, dyadic_series(rng, n))
        a = -float(rng.integers(1, 64)) / 16.0
        assert np.array_equal(apply_g(psi, a).values,
                              apply_g_bruteforce(psi, a).values)


def test_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(50):
        psi = TimeSeries(0.0, 0.125, dyadic_series(rng, int(rng.integers(2, 400))))
        once = apply_g(psi, -2.0)
        twice = apply_g(once, -2.0)
        assert np.array_equal(once.values, twice.values)


def test_constant_equivariance():
    rng = np.random.default_rng(13)
    for _ in range(50):
        psi = TimeSeries(0.0, 0.25, dyadic_series(rng, 200))
        shifted = TimeSeries(0.0, 0.25, psi.values + 4.5)
        assert np.array_equal(apply_g(shifted, -1.0).values,
                              apply_g(psi, -1.0).values + 4.5)


def test_dominated_below_and_maximal():
    rng = np.random.default_rng(17)
    a = -1.0
    for _ in range(50):
        psi = TimeSeries(0.0, 0.25, dyadic_series(rng, 150))
        g = apply_g(psi, a).values
        assert np.all(g <= psi.values)
        # any competitor below psi with slopes <= a stays below the transform
        w = np.minimum.accumulate(psi.values - 0.25)  # slopes <= 0? force cap:
        w = np.minimum(psi.values - 0.25,
                       np.min(psi.values) + a * 0.25 * np.arange(150))
        slopes_ok = np.all(np.diff(w) <= a * 0.25 + 1e-12)
        assert slopes_ok
        assert np.all(w <= g + 1e-12)


def test_monotone_and_strict():
    rng = np.random.default_rng(19)
    for _ in range(50):
        v = dyadic_series(rng, 120)
        lift = float(rng.integers(1, 16)) / 8.0
        g1 = apply_g(TimeSeries(0.0, 0.5, v + lift), -1.5).values
        g2 = apply_g(TimeSeries(0.0, 0.5, v), -1.5).values
        assert np.all(g1 >= g2 + lift - 1e-12)
        assert np.all(g1 > g2)


def test_nonexpansive():
    rng = np.random.default_rng(23)
    for _ in range(50):
        v1 = dyadic_series(rng, 100)
        v2 = v1 + rng.normal(scale=0.3, size=100)
        g1 = apply_g(TimeSeries(0.0, 0.125, v1), -1.0).values
        g2 = apply_g(TimeSeries(0.0, 0.125, v2), -1.0).values
        assert np.max(np.abs(g1 - g2)) <= np.max(np.abs(v1 - v2)) + 1e-12


def test_output_slopes_capped():
    rng = np.random.default_rng(29)
    dt = 0.125
    a = -2.0
    for _ in range(50):
        v = dyadic_series(rng, 100, granularity=2.0 ** -6, span=2.0 ** 8)
        g = apply_g(TimeSeries(0.0, dt, v), a).values
        slopes = np.diff(g) / dt
        lip_psi = np.max(np.abs(np.diff(v))) / dt
        assert np.max(slopes) <= a + 1e-12
        assert np.max(np.abs(slopes)) <= max(-a, lip_psi) + 1e-9


def test_contact_where_cap_is_inactive():
    # interior points where both one-sided slopes run strictly below the cap
    # must be contact points with the input
    rng = np.random.default_rng(31)
    dt = 0.125
    a = -1.0
    tol = 1e-9
    hits = 0
    for _ in range(100):
        v = dyadic_series(rng, 80, granularity=2.0 ** -6, span=2.0 ** 7)
        psi = TimeSeries(0.0, dt, v)
        g = apply_g(psi, a).values
        contact = contact_set(psi, a, tol)
        slopes = np.diff(g) / dt
        strict = (slopes[:-1] < a - tol) & (slopes[1:] < a - tol)
        hits += int(np.sum(strict))
        assert np.all(contact[1:-1][strict])
    assert hits > 10  # the property was exercised, not vacuous


def test_contact_examples():
    psi = series([5.0, 5.0, 5.0])
    assert list(contact_set(psi, -1.0)) == [True, False, False]
    psi = series([0.0, -2.0, -4.0])
    assert list(contact_set(psi, -1.0)) == [True, True, True]
    psi = series([0.0, 1.0, -3.0])
    assert list(contact_set(psi, -1.0)) == [True, False, True]


def _lower_bound_witness(rng, psi, a, dt, tol):
    """Piecewise-linear w whose sub-cap corners all sit above psi."""
    n = psi.size
    w = np.empty(n)
    w[0] = psi[0] + float(rng.integers(0, 8)) / 4.0
    steep = a - 1.0 - float(rng.integers(0, 8)) / 4.0
    flat = a + 0.5 + float(rng.integers(0, 8)) / 4.0
    for k in range(n - 1):
        cand = w[k] + steep * dt
        if w[k] >= psi[k] and cand >= psi[k + 1]:
            w[k + 1] = cand
        else:
            w[k + 1] = w[k] + flat * dt
    return w


def test_lower_bound_propagation():
    # if w starts above psi and dominates psi wherever it has a one-sided
    # slope below the cap, then w dominates the whole transform
    rng = np.random.default_rng(37)
    dt = 0.25
    a = -1.0
    tol = 1e-9
    for _ in range(100):
        psi = dyadic_series(rng, 60, granularity=2.0 ** -4, span=2.0 ** 6)
        w = _lower_bound_witness(rng, psi, a, dt, tol)
        slopes = np.diff(w) / dt
        below = np.zeros(60, dtype=bool)
        below[:-1] |= slopes < a - tol
        below[1:] |= slopes < a - tol
        assert np.all(w[below] >= psi[below] - 1e-12)  # generator guarantee
        g = apply_g(TimeSeries(0.0, dt, psi), a).values
        assert np.all(w >= g - 1e-9)
