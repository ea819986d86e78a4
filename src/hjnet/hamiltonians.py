"""Per-arc Hamiltonians and the scalar constants the solver needs from them.

Three evaluable kinds are supported, each continuous in (s, p), convex and
coercive in p, and locally Lipschitz in p:

* ``quadratic``  H(s,p) = alpha(s) p^2 + beta(s) p + kappa(s),  alpha > 0
* ``abs``        H(s,p) = alpha(s) |p - beta(s)| + kappa(s),    alpha > 0
* ``sampled``    bilinear table on an (s, p) grid with a declared linear
  coercive extension beyond the p-range

Coefficient functions are sampled arrays on an s-knot grid and interpolated
linearly.  Restricting to these kinds keeps every derived constant (the
critical value c_gamma, stationary-subsolution levels, sublevel widths,
momentum Lipschitz constants) computable in closed form or by robust
bisection instead of being estimated.

Orientation reversal obeys H_rev(s, p) = H(1 - s, -p), so a family defined on
forward arcs extends uniquely to the inverse arcs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import EmptySublevelError

__all__ = [
    "ArcHamiltonian",
    "HamiltonianFamily",
    "quadratic_hamiltonian",
    "abs_hamiltonian",
    "sampled_hamiltonian",
    "evaluate",
    "c_gamma",
    "reverse_hamiltonian",
    "positive_shift",
    "subsolution_level",
    "sublevel_width",
    "momentum_lipschitz",
    "global_min",
    "momentum_minimizer",
]

TOL_CONVEX = 1e-10

_KINDS = ("quadratic", "abs", "sampled")


@dataclass(frozen=True)
class ArcHamiltonian:
    """Evaluable Hamiltonian on one arc, parametrized on s in [0,1].

    Its arrays are never written in place (``replace`` makes a new object),
    so the invariants derived on the default check grid are cached on the
    object: min_p H behind ``c_gamma`` and ``global_min``, the
    ``sublevel_width`` of every level asked for, and the
    ``shift_hamiltonian`` copy of every shift asked for.
    """

    kind: str
    s_knots: np.ndarray
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    kappa: np.ndarray | None = None
    p_knots: np.ndarray | None = None
    table: np.ndarray | None = None
    extension_slope: float | None = None

    def __call__(self, s, p):
        return evaluate(self, s, p)

    @cached_property
    def _min_p(self):
        return _min_over_p(self, _s_check_grid(self))

    @cached_property
    def _widths(self):
        return {}

    @cached_property
    def _shifted(self):
        return {}


def _make_knots(n, s_knots):
    if s_knots is not None:
        s = np.asarray(s_knots, dtype=float)
        if s.ndim != 1 or s.size != n:
            raise ValueError("s_knots must match coefficient length")
        if s[0] != 0.0 or s[-1] != 1.0 or np.any(np.diff(s) <= 0):
            raise ValueError("s_knots must increase from 0 to 1")
        return s
    return np.linspace(0.0, 1.0, n)


def _symbolic(kind, alpha, beta, kappa, s_knots):
    arrs = [np.atleast_1d(np.asarray(c, dtype=float)) for c in (alpha, beta, kappa)]
    sizes = {a.size for a in arrs if a.size > 1}
    if len(sizes) > 1:
        raise ValueError("coefficient arrays must share one s-knot grid")
    n = sizes.pop() if sizes else 2
    alpha, beta, kappa = (np.repeat(a, n) if a.size == 1 else a for a in arrs)
    if np.min(alpha) <= 0:
        raise ValueError("alpha must be strictly positive (convexity/coercivity)")
    return ArcHamiltonian(kind=kind, s_knots=_make_knots(n, s_knots),
                          alpha=alpha, beta=beta, kappa=kappa)


def quadratic_hamiltonian(alpha=1.0, beta=0.0, kappa=0.0, s_knots=None):
    """H(s,p) = alpha(s) p^2 + beta(s) p + kappa(s)."""
    return _symbolic("quadratic", alpha, beta, kappa, s_knots)


def abs_hamiltonian(alpha=1.0, beta=0.0, kappa=0.0, s_knots=None):
    """H(s,p) = alpha(s) |p - beta(s)| + kappa(s)."""
    return _symbolic("abs", alpha, beta, kappa, s_knots)


def sampled_hamiltonian(s_knots, p_knots, table, extension_slope):
    """Tabulated H on an (s,p) grid, linearly extended beyond the p-range.

    The table must be discretely convex in p, and the declared extension
    slope at least as steep as the outermost table slopes so the extension
    preserves convexity and coercivity.
    """
    s = np.asarray(s_knots, dtype=float)
    p = np.asarray(p_knots, dtype=float)
    t = np.asarray(table, dtype=float)
    if t.shape != (s.size, p.size):
        raise ValueError("table shape must be (len(s_knots), len(p_knots))")
    if p.size < 3:
        raise ValueError("need at least 3 momentum knots")
    if np.any(np.diff(p) <= 0):
        raise ValueError("p_knots must be increasing")
    scale = 1.0 + float(np.max(np.abs(t)))
    d2 = np.diff(t, n=2, axis=1) / np.diff(p)[:-1].min() ** 2
    if np.min(d2) < -TOL_CONVEX * scale:
        raise ValueError("table is not convex in p")
    slope = float(extension_slope)
    edge = np.diff(t, axis=1) / np.diff(p)
    if slope <= 0:
        raise ValueError("extension slope must be positive (coercivity)")
    if slope < np.max(edge[:, -1]) - TOL_CONVEX or slope < np.max(-edge[:, 0]) - TOL_CONVEX:
        raise ValueError("extension slope shallower than boundary table slopes")
    return ArcHamiltonian(kind="sampled", s_knots=_make_knots(s.size, s),
                          p_knots=p, table=t, extension_slope=slope)


def _check_s(s):
    s = np.asarray(s, dtype=float)
    if np.any(s < -1e-12) or np.any(s > 1.0 + 1e-12):
        raise ValueError("s out of range [0, 1]")
    return np.clip(s, 0.0, 1.0)


def _sampled_rows_at(H, s):
    """Table rows linearly interpolated in s; shape (len(s), len(p_knots))."""
    s = np.atleast_1d(s)
    idx = np.clip(np.searchsorted(H.s_knots, s, side="right") - 1, 0,
                  H.s_knots.size - 2)
    s0 = H.s_knots[idx]
    s1 = H.s_knots[idx + 1]
    w = np.where(s1 > s0, (s - s0) / (s1 - s0), 0.0)
    return (1.0 - w)[:, None] * H.table[idx] + w[:, None] * H.table[idx + 1]


class _Columns:
    """H(s, p) of R same-kind Hamiltonians (sampled ones sharing a knot count)
    at C fixed s columns, coefficients looked up once; takes momenta (R, C),
    or any (N, C) when R = 1.  Given ``out`` (and, for the quadratic kind, a
    scratch ``tmp`` of its shape) the values are written there."""

    def __init__(self, hams, s):
        s = np.asarray(s, dtype=float)
        self.kind = hams[0].kind
        if self.kind == "sampled":
            self.rows = np.array([_sampled_rows_at(H, s) for H in hams])
            self.pk = np.array([H.p_knots for H in hams])
            self.ext = np.array([[H.extension_slope] for H in hams])
            self.r = np.arange(len(hams))[:, None]
            self.c = np.arange(s.size)
        else:
            self.a, self.b, self.k = (
                np.array([np.interp(s, H.s_knots, getattr(H, c)) for H in hams])
                for c in ("alpha", "beta", "kappa"))

    def __call__(self, p, out=None, tmp=None):
        if self.kind == "sampled":
            if out is None:
                return self._sampled(p)
            out[...] = self._sampled(p)
            return out
        if out is None:
            out = np.empty(np.broadcast_shapes(self.a.shape, np.shape(p)))
        if self.kind == "quadratic":  # a p p + b p + k
            tmp = np.empty_like(out) if tmp is None else tmp
            np.multiply(self.a, p, out=out)
            out *= p
            np.multiply(self.b, p, out=tmp)
            out += tmp
        else:                         # a |p - b| + k
            np.subtract(p, self.b, out=out)
            np.abs(out, out=out)
            out *= self.a
        out += self.k
        return out

    def _sampled(self, p):
        # counting the knots at or below the clipped p locates its cell as
        # a right-sided searchsorted would, for every element at once
        pk, r, c = self.pk, self.r, self.c
        lo, hi = pk[:, :1], pk[:, -1:]
        pc = np.minimum(np.maximum(p, lo), hi)
        j = np.minimum(np.sum(pk[:, None, :] <= pc[..., None], axis=-1),
                       pk.shape[1] - 1) - 1
        k0, k1 = pk[r, j], pk[r, j + 1]
        w = (pc - k0) / (k1 - k0)
        vals = (1.0 - w) * self.rows[r, c, j] + w * self.rows[r, c, j + 1]
        return vals + self.ext * (np.maximum(p - hi, 0.0)
                                  + np.maximum(lo - p, 0.0))


def evaluate(H, s, p):
    """H(s, p); s and p broadcast together, s validated to [0,1]."""
    s_b, p_b = np.broadcast_arrays(_check_s(s), np.asarray(p, dtype=float))
    out = _Columns([H], s_b.ravel())(p_b.ravel()).reshape(s_b.shape)
    return float(out) if out.ndim == 0 else out


def _s_check_grid(H, s_grid=None, n=257):
    if s_grid is not None:
        return _check_s(np.asarray(s_grid, dtype=float))
    return np.union1d(H.s_knots, np.linspace(0.0, 1.0, n))


def momentum_minimizer(H, s):
    """Per-s minimizer(s) of p -> H(s,p); vectorized over s."""
    s = _check_s(np.atleast_1d(s))
    if H.kind != "sampled":
        b = np.interp(s, H.s_knots, H.beta)
        return b if H.kind == "abs" else -b / (2.0 * np.interp(s, H.s_knots, H.alpha))
    # piecewise linear between knots, rising beyond them: a knot minimizes
    return H.p_knots[np.argmin(_sampled_rows_at(H, s), axis=1)]


def _min_over_p(H, s):
    """min_p H(s,p) per s (vectorized)."""
    s = np.atleast_1d(s)
    pstar = momentum_minimizer(H, s)
    if H.kind == "sampled":
        rows = _sampled_rows_at(H, s)
        return np.min(rows, axis=1)
    return evaluate(H, s, pstar)


def c_gamma(H, s_grid=None):
    """Critical value -max_s min_p H(s,p) on a check grid.

    Symbolic kinds use the closed-form per-s minimizer; the sampled kind
    scans its momentum knots.
    """
    return -float(np.max(_min_p_on(H, s_grid)))


def global_min(H, s_grid=None):
    """min over (s,p) of H on the check grid."""
    return float(np.min(_min_p_on(H, s_grid)))


def _min_p_on(H, s_grid):
    if s_grid is None:
        return H._min_p
    return _min_over_p(H, _s_check_grid(H, s_grid))


def reverse_hamiltonian(H):
    """Hamiltonian of the inverse arc: (s,p) -> H(1-s, -p)."""
    cand = np.flip(1.0 - H.s_knots)
    cand[0] = 0.0
    cand[-1] = 1.0
    knots = H.s_knots if np.array_equal(cand, H.s_knots) else cand
    if H.kind == "sampled":
        return replace(H, s_knots=knots,
                       p_knots=-np.flip(H.p_knots),
                       table=np.flip(np.flip(H.table, axis=0), axis=1))
    return replace(H, s_knots=knots,
                   alpha=np.flip(H.alpha),
                   beta=-np.flip(H.beta),
                   kappa=np.flip(H.kappa))


def shift_hamiltonian(H, a):
    """H + a (constant in s and p); one object per (H, a), so the shifted
    copy keeps its derived invariants from call to call."""
    if a == 0.0:
        return H
    if a not in H._shifted:
        H._shifted[a] = (replace(H, table=H.table + a) if H.kind == "sampled"
                         else replace(H, kappa=H.kappa + a))
    return H._shifted[a]


def subsolution_level(H, w0):
    """Smallest m with H(s, w0') <= m a.e., rendered on the grid.

    w0 is sampled on a uniform s-grid; the a.e. condition becomes the maximum
    of H evaluated at cell midpoints with forward-difference slopes, matching
    the upwind stencil of the marching scheme.
    """
    w0 = np.asarray(w0, dtype=float)
    if w0.ndim != 1 or w0.size < 2:
        raise ValueError("need at least 2 samples of the datum")
    n = w0.size - 1
    slopes = np.diff(w0) * n
    mids = (np.arange(n) + 0.5) / n
    return float(np.max(evaluate(H, mids, slopes)))


def sublevel_width(H, M, s_grid=None, tol=1e-12):
    """max{|p| : H(s,p) <= M for every s}, by bisection.

    Convexity in p makes {p : max_s H(s,p) <= M} an interval; coercivity
    bounds it.  Raises EmptySublevelError when the interval is empty.
    """
    key = (M, tol)
    if s_grid is None and key in H._widths:
        return H._widths[key]
    s = _s_check_grid(H, s_grid)
    cols = _Columns([H], s)

    def umax(p):
        return float(np.max(cols(p)))

    # candidate interior point: best per-s minimizer under the uniform max
    cands = np.unique(momentum_minimizer(H, s))
    vals = np.max(cols(cands[:, None]), axis=1)
    i0 = int(np.argmin(vals))
    p0, v0 = float(cands[i0]), float(vals[i0])
    if v0 > M:
        # convex in p: ternary search around the candidate set
        lo, hi = float(cands.min()) - 1.0, float(cands.max()) + 1.0
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if m1 == lo and m2 == hi:  # bracket stopped moving
                break
            if umax(m1) <= umax(m2):
                hi = m2
            else:
                lo = m1
        p0 = 0.5 * (lo + hi)
        v0 = umax(p0)
        if v0 > M + tol * (1.0 + abs(M)):
            raise EmptySublevelError(f"sublevel at M={M} is empty (min {v0})")

    def root(direction):
        step = 1.0
        inside, outside = p0, p0 + direction * step
        while umax(outside) <= M:
            inside = outside
            step *= 2.0
            outside = p0 + direction * step
            if step > 1e12:
                raise EmptySublevelError("coercivity violated: no outer bound")
        for _ in range(100):
            mid = 0.5 * (inside + outside)
            # outside always fails the test: once mid rounds to an end,
            # inside can no longer move
            if mid == inside or mid == outside:
                break
            if umax(mid) <= M:
                inside = mid
            else:
                outside = mid
        return inside

    width = max(abs(root(+1.0)), abs(root(-1.0)))
    if s_grid is None:
        H._widths[key] = width
    return width


def momentum_lipschitz(H, M_bound):
    """Lipschitz constant of p -> H(s,p) on |p| <= M_bound, uniform in s."""
    if M_bound <= 0:
        raise ValueError("M_bound must be positive")
    if H.kind == "quadratic":
        return float(2.0 * np.max(H.alpha) * M_bound + np.max(np.abs(H.beta)))
    if H.kind == "abs":
        return float(np.max(H.alpha))
    pk = H.p_knots
    lo, hi = max(pk[0], -M_bound), min(pk[-1], M_bound)
    grid = np.union1d(pk[(pk >= lo) & (pk <= hi)], [lo, hi])
    best = float(H.extension_slope) if (M_bound > pk[-1] or -M_bound < pk[0]) else 0.0
    if grid.size >= 2:
        vals = _Columns([H], H.s_knots)(grid[:, None])
        best = max(best, float(np.max(np.abs(np.diff(vals, axis=0)
                                             / np.diff(grid)[:, None]))))
    return best


@dataclass(frozen=True)
class HamiltonianFamily:
    """Map from oriented arc id to its Hamiltonian, closed under reversal."""

    by_arc: dict

    def __getitem__(self, arc_id):
        return self.by_arc[arc_id]

    def arcs(self):
        return sorted(self.by_arc)


def family_from_edges(network, per_edge):
    """Build a family from Hamiltonians on forward arcs; reverses derived."""
    by_arc = {}
    for arc in network.edge_arcs():
        H = per_edge[arc.id]
        by_arc[arc.id] = H
        by_arc[arc.inverse_id] = reverse_hamiltonian(H)
    return HamiltonianFamily(by_arc)


def positive_shift(family, limiter, margin=1e-6):
    """Shift all Hamiltonians up so min H >= margin > 0.

    Returns (shifted family, shift a, shifted limiter values).  Solutions of
    the shifted problem relate to the original by u_orig = u_shifted + a*t,
    which the solver applies as a post-correction.
    """
    gmin = min(global_min(H) for H in family.by_arc.values())
    a = max(0.0, margin - gmin)
    if a == 0.0:
        return family, 0.0, dict(limiter)
    shifted = HamiltonianFamily(
        {aid: shift_hamiltonian(H, a) for aid, H in family.by_arc.items()})
    return shifted, a, {x: c - a for x, c in limiter.items()}
