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
from functools import cached_property, partial

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
    "sublevel_widths",
    "momentum_lipschitz",
    "global_min",
    "momentum_minimizer",
]

TOL_CONVEX = 1e-10
_WIDTH_TOL = 1e-12    # relative slack of the empty-sublevel test

_KINDS = ("quadratic", "abs", "sampled")


@dataclass(frozen=True)
class ArcHamiltonian:
    """Evaluable Hamiltonian on one arc, parametrized on s in [0,1].

    Its arrays are never written in place (``replace`` makes a new object),
    so the invariants derived on the check grid are cached on the object:
    min_p H behind ``c_gamma`` and ``global_min``, the ``sublevel_width`` of
    every level asked for, the ``shift_hamiltonian`` copy of every shift
    asked for, the momentum minimizers at s = 0 and s = 1, the column
    coefficients on every ns-cell grid a march asks for, and, for the
    sampled kind, the knot columns and slope maxima behind
    ``momentum_lipschitz``.
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

    @cached_property
    def _p_ends(self):
        return momentum_minimizer(self, [0.0, 1.0])

    @cached_property
    def _on_grids(self):
        return {}

    @cached_property
    def _knot_cells(self):
        """Sampled kind: its columns at the s-knots, and per momentum cell
        [p_j, p_j+1] the largest |slope| over the s-knots."""
        cols = _Columns([self], self.s_knots)
        slopes = np.diff(cols(self.p_knots[:, None]), axis=0) \
            / np.diff(self.p_knots)[:, None]
        return cols, np.max(np.abs(slopes), axis=1)


def _finite(**arrays):
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite")


def _make_knots(n, s_knots):
    if s_knots is not None:
        s = np.asarray(s_knots, dtype=float)
        if s.ndim != 1 or s.size != n:
            raise ValueError("s_knots must match coefficient length")
        _finite(s_knots=s)
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
    _finite(alpha=alpha, beta=beta, kappa=kappa)
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
    slope = float(extension_slope)
    _finite(p_knots=p, table=t, extension_slope=slope)
    if p.size < 3:
        raise ValueError("need at least 3 momentum knots")
    if np.any(np.diff(p) <= 0):
        raise ValueError("p_knots must be increasing")
    scale = 1.0 + float(np.max(np.abs(t)))
    d2 = np.diff(t, n=2, axis=1) / np.diff(p)[:-1].min() ** 2
    if np.min(d2) < -TOL_CONVEX * scale:
        raise ValueError("table is not convex in p")
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


def _coefficients(H, s):
    """H's coefficients at the s columns: its (3, C) alpha, beta and kappa
    rows, or the (C, K) table rows of the sampled kind."""
    if H.kind == "sampled":
        return _sampled_rows_at(H, s)
    return np.array([np.interp(s, H.s_knots, getattr(H, c))
                     for c in ("alpha", "beta", "kappa")])


def _grid_coefficients(H, ns):
    """``_coefficients`` on the ns-cell grid, derived once per (H, ns)."""
    if ns not in H._on_grids:
        H._on_grids[ns] = _coefficients(H, np.linspace(0.0, 1.0, ns + 1))
    return H._on_grids[ns]


class _Columns:
    """H(s, p) of R same-kind Hamiltonians (sampled ones sharing their
    momentum knots) at C fixed s columns, coefficients looked up once; takes
    momenta (R, C), or any (N, C) when R = 1.  ``coefs`` holds each
    Hamiltonian's ``_coefficients`` at s when the caller keeps them.  Given
    ``out`` (and a scratch ``tmp`` of its shape) the values are written
    there; ``bind`` fixes all three for repeated calls."""

    def __init__(self, hams, s, coefs=None):
        if coefs is None:
            s = np.asarray(s, dtype=float)
            coefs = [_coefficients(H, s) for H in hams]
        self.kind = hams[0].kind
        if self.kind == "sampled":
            # cell j of row r at column c is entry (r C + c)(K - 1) + j of
            # the flat tables of the cells' left and right ends
            pk = hams[0].p_knots
            rows = np.array(coefs)
            self.lo, self.hi, self.inner = pk[0], pk[-1], pk[1:-1]
            self.k0, self.dk = pk[:-1], np.diff(pk)
            self.t0, self.t1 = rows[..., :-1].ravel(), rows[..., 1:].ravel()
            self.base = (pk.size - 1) * np.arange(rows.shape[0] * rows.shape[1]
                                                  ).reshape(rows.shape[:2])
            self.ext = np.array([[H.extension_slope] for H in hams])
            self.shape = self.base.shape
        else:
            self.a, self.b, self.k = (np.array([c[i] for c in coefs])
                                      for i in range(3))
            self.shape = self.a.shape

    def __call__(self, p, out=None, tmp=None):
        if out is None:
            out = np.empty(np.broadcast_shapes(self.shape, np.shape(p)))
        if tmp is None and self.kind != "abs":
            tmp = np.empty_like(out)
        self.bind(p, out, tmp)()
        return out

    def bind(self, p, out, tmp):
        """A call without arguments that writes H at the momenta p into out,
        with tmp as scratch (the abs kind takes none); a stepper binds its
        buffers once and calls it every step."""
        if self.kind == "sampled":
            return partial(self._sampled, p, out, tmp)
        a, b, k = self.a, self.b, self.k
        if self.kind == "abs":        # a |p - b| + k
            def evaluate():
                np.subtract(p, b, out)
                np.absolute(out, out)
                np.multiply(out, a, out)
                np.add(out, k, out)
        else:                         # a p p + b p + k
            def evaluate():
                np.multiply(a, p, out)
                np.multiply(out, p, out)
                np.multiply(b, p, tmp)
                np.add(out, tmp, out)
                np.add(out, k, out)
        return evaluate

    def _sampled(self, p, out, pc):
        # (1 - w) A + w B on the cell of the clipped momentum pc, whose index
        # counts the interior knots at or below it, plus the extension
        # slope times |p - pc|
        np.maximum(p, self.lo, out=pc)
        np.minimum(pc, self.hi, out=pc)
        j = self.inner.searchsorted(pc, side="right")
        w = pc - self.k0.take(j)
        w /= self.dk.take(j)
        j += self.base
        np.subtract(1.0, w, out)
        out *= self.t0.take(j)
        w *= self.t1.take(j)
        out += w
        pc -= p
        np.absolute(pc, pc)
        pc *= self.ext
        out += pc


def evaluate(H, s, p):
    """H(s, p); s and p broadcast together, s validated to [0,1]."""
    s_b, p_b = np.broadcast_arrays(_check_s(s), np.asarray(p, dtype=float))
    out = _Columns([H], s_b.ravel())(p_b.ravel()).reshape(s_b.shape)
    return float(out) if out.ndim == 0 else out


def _s_check_grid(H):
    """The s-knots joined with 257 uniform nodes."""
    return np.union1d(H.s_knots, np.linspace(0.0, 1.0, 257))


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


def c_gamma(H):
    """Critical value -max_s min_p H(s,p) on the check grid.

    Symbolic kinds use the closed-form per-s minimizer; the sampled kind
    scans its momentum knots.
    """
    return -float(np.max(H._min_p))


def global_min(H):
    """min over (s,p) of H on the check grid."""
    return float(np.min(H._min_p))


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


def sublevel_width(H, M):
    """max{|p| : H(s,p) <= M for every s on the check grid}, by bisection:
    the one-Hamiltonian case of ``sublevel_widths``.

    Convexity in p makes {p : max_s H(s,p) <= M} an interval; coercivity
    bounds it.  Raises EmptySublevelError when the interval is empty.
    """
    return sublevel_widths([H], M)[0]


def sublevel_widths(hams, M):
    """The ``sublevel_width`` of every Hamiltonian in hams at the one level
    M, in their order, bisected together.

    Rows of one kind (sampled ones sharing their momentum knots) on one
    check grid share one ``_Columns``, and each row runs the probes a search
    of its own would run, so every width is bitwise the one-row width.
    Widths already derived at M are read from each Hamiltonian's cache and
    new ones are stored there.  When a sublevel is empty, raises the
    EmptySublevelError of the first such Hamiltonian in hams.
    """
    groups = {}
    for H in {id(H): H for H in hams if M not in H._widths}.values():
        s = _s_check_grid(H)
        key = (H.kind, None if H.p_knots is None else tuple(H.p_knots),
               tuple(s))
        groups.setdefault(key, (s, []))[1].append(H)
    failed = {}
    for s, grp in groups.values():
        for H, width in zip(grp, _bisect_widths(grp, s, M)):
            if isinstance(width, str):
                failed[id(H)] = width
            else:
                H._widths[M] = width
    for H in hams:
        if id(H) in failed:
            raise EmptySublevelError(failed[id(H)])
    return [H._widths[M] for H in hams]


def _bisect_widths(hams, s, M):
    """Widths of same-kind Hamiltonians on one check grid s, with the
    message of its EmptySublevelError in place of a failed row's width.
    Arrays hold the rows' search states; rows that have finished are masked
    out of every update."""
    cols = _Columns(hams, s)

    def umax(p):
        """max_s H(s, p) of every row at momenta p (..., R)."""
        return np.max(cols(p[..., None]), axis=-1)

    # candidate interior point: best per-s minimizer under the uniform max;
    # rows with fewer candidates repeat theirs, which keeps the first argmin
    cands = [np.unique(momentum_minimizer(H, s)) for H in hams]
    pad = np.array([np.resize(c, max(map(len, cands))) for c in cands]).T
    vals = np.empty(pad.shape)
    slab = max(1, (1 << 20) // (len(hams) * s.size))  # values per call
    for j in range(0, len(pad), slab):
        vals[j:j + slab] = umax(pad[j:j + slab])
    rows = np.arange(len(hams))
    i0 = np.argmin(vals, axis=0)
    p0, v0 = pad[i0, rows], vals[i0, rows]
    empty = np.zeros(len(hams), dtype=bool)
    tern = v0 > M
    if tern.any():
        # convex in p: ternary search around the candidate set
        lo, hi = pad.min(axis=0) - 1.0, pad.max(axis=0) + 1.0
        live = tern
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            live = live & ((m1 != lo) | (m2 != hi))  # bracket stopped moving
            if not live.any():
                break
            u1, u2 = umax(np.array([m1, m2]))
            left = u1 <= u2
            hi = np.where(live & left, m2, hi)
            lo = np.where(live & ~left, m1, lo)
        p0 = np.where(tern, 0.5 * (lo + hi), p0)
        v0 = np.where(tern, umax(p0), v0)
        empty = tern & (v0 > M + _WIDTH_TOL * (1.0 + abs(M)))

    # both directions at once: row 0 searches above p0, row 1 below
    direction = np.array([[1.0], [-1.0]])
    step = np.ones((2, len(hams)))
    inside, outside = np.tile(p0, (2, 1)), p0 + direction * step
    unbounded = np.zeros(len(hams), dtype=bool)
    live = np.tile(~empty, (2, 1))
    while live.any():
        grow = live & (umax(outside) <= M)
        inside = np.where(grow, outside, inside)
        step[grow] *= 2.0
        outside = np.where(grow, p0 + direction * step, outside)
        live = grow & (step <= 1e12)
        unbounded |= (grow & ~live).any(axis=0)
    live = np.tile(~(empty | unbounded), (2, 1))
    for _ in range(100):
        mid = 0.5 * (inside + outside)
        # outside always fails the test: once mid rounds to an end, inside
        # can no longer move
        live &= (mid != inside) & (mid != outside)
        if not live.any():
            break
        ok = umax(mid) <= M
        inside = np.where(live & ok, mid, inside)
        outside = np.where(live & ~ok, mid, outside)
    width = np.maximum(np.abs(inside[0]), np.abs(inside[1]))
    return [f"sublevel at M={M} is empty (min {float(v)})" if e
            else "coercivity violated: no outer bound" if u else float(w)
            for e, u, v, w in zip(empty, unbounded, v0, width)]


def momentum_lipschitz(H, M_bound):
    """Lipschitz constant of p -> H(s,p) on |p| <= M_bound, uniform in s.

    The sampled kind takes the slopes between the s-knot rows at the knots
    in [-M_bound, M_bound] and at the bound itself; the knot cells are read
    from the cached slope maxima, and only the cells the bound cuts are
    evaluated, at the cut.
    """
    if not (np.isfinite(M_bound) and M_bound > 0):
        raise ValueError(f"M_bound must be finite and positive, got {M_bound}")
    if H.kind == "quadratic":
        return float(2.0 * np.max(H.alpha) * M_bound + np.max(np.abs(H.beta)))
    if H.kind == "abs":
        return float(np.max(H.alpha))
    pk = H.p_knots
    lo, hi = max(pk[0], -M_bound), min(pk[-1], M_bound)
    best = float(H.extension_slope) if (M_bound > pk[-1] or -M_bound < pk[0]) else 0.0
    cols, cells = H._knot_cells
    # knots a..b-1 lie in [lo, hi]: the cells between them are cached, and
    # the cells that lo and hi cut are evaluated at the cut
    a, b = pk.searchsorted(lo), pk.searchsorted(hi, side="right")
    cuts = [sorted((lo, hi))] if a >= b else [(lo, pk[a]), (pk[b - 1], hi)]
    ends = np.array([c for c in cuts if c[0] != c[1]])
    seen = [cells[a:b - 1]] if a < b - 1 else []
    if ends.size:
        vals = cols(ends.reshape(-1, 1)).reshape(len(ends), 2, -1)
        seen.append(np.max(np.abs((vals[:, 1] - vals[:, 0])
                                  / (ends[:, 1] - ends[:, 0])[:, None]), axis=1))
    if seen:
        best = max(best, float(np.max(np.concatenate(seen))))
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
