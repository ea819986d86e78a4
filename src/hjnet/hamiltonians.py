"""Per-arc Hamiltonians and the scalar constants the solver needs from them.

Three evaluable kinds are supported, each continuous in (s, p), convex and
coercive in p, and locally Lipschitz in p:

* ``quadratic``  H(s,p) = alpha(s) p^2 + beta(s) p + kappa(s),  alpha > 0
* ``abs``        H(s,p) = alpha(s) |p - beta(s)| + kappa(s),    alpha > 0
* ``sampled``    a table on an (s, p) grid, linear in s between its s-knots
  and piecewise linear in p between its momentum knots, with a declared
  linear coercive extension beyond the p-range

Coefficient functions are sampled arrays on an s-knot grid and interpolated
linearly.  Restricting to these kinds keeps every derived constant (the
critical value c_gamma, stationary-subsolution levels, sublevel sets and
widths, momentum Lipschitz constants) computable in closed form instead of
being estimated; at one s the sublevel set {p : H(s,p) <= M} is an interval
whose ends are roots of a linear or quadratic equation, or the crossings of
a piecewise-linear row.  Its width is pointwise, max(|lo|, |hi|) at one s,
the bound that H(s, u_s) <= M puts on the slope there; the slope bound of
an arc is the largest over its nodes, and of a cell the larger at its ends.

Orientation reversal obeys H_rev(s, p) = H(1 - s, -p), so a family defined on
forward arcs extends uniquely to the inverse arcs.

A column evaluator of the symbolic kinds skips the products that alpha = 1
and beta = +-0 make identities, exact at every finite momentum; at p = +-inf
a quadratic with beta = 0 gives +inf, not the nan of 0 * inf.  The sampled
kind is evaluated in point-slope form, the row's value at a knot plus a
slope times the distance from it, so it returns the table value exactly at
every knot.
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
    "subsolution_levels",
    "sublevel_interval",
    "sublevel_width",
    "cell_widths",
    "momentum_lipschitz",
    "global_min",
    "momentum_minimizer",
]

TOL_CONVEX = 1e-10
_LEVEL_SLACK = 1e-12  # relative roundoff allowed between a level and a minimum


@dataclass(frozen=True)
class ArcHamiltonian:
    """Evaluable Hamiltonian on one arc, parametrized on s in [0,1].

    Its arrays are never written in place (``replace`` makes a new object),
    so its derived invariants are cached on the object: the check grid and
    the column coefficients at its nodes, which give min_p H (and from it
    the two floats ``c_gamma`` and ``global_min``) and the ``sublevel_width``
    of every level asked for; the column coefficients at the nodes of every
    ns-cell grid a march asks for, which give the peak of min_p H there and
    the ``cell_widths`` of every level, and at the cell midpoints of every
    datum grid a subsolution level asks for; the ``shift_hamiltonian`` copy
    of every shift asked for; the momentum minimizers at s = 0 and s = 1;
    the stack key by which a stepper or ``subsolution_levels`` groups rows;
    and behind ``momentum_lipschitz`` max alpha and max |beta| of the
    symbolic kinds, or the sampled kind's per-cell slope maxima over the
    table's s-knot rows.
    """

    kind: str
    s_knots: np.ndarray
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    kappa: np.ndarray | None = None
    p_knots: np.ndarray | None = None
    table: np.ndarray | None = None
    extension_slope: float | None = None

    @cached_property
    def _check(self):
        """The check grid and the ``_coefficients`` at its nodes."""
        s = _s_check_grid(self)
        return s, _coefficients(self, s)

    @cached_property
    def _min_p(self):
        return _lowest(self, self._check[1])

    @cached_property
    def _c_gamma(self):
        return -float(np.max(self._min_p))

    @cached_property
    def _global_min(self):
        return float(np.min(self._min_p))

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
    def _coef_max(self):
        """Symbolic kinds: max alpha and max |beta| over the s-knots."""
        return float(np.max(self.alpha)), float(np.max(np.abs(self.beta)))

    @cached_property
    def _slope_max(self):
        """Sampled kind: per momentum cell, the largest |slope| of a row."""
        return np.max(np.abs(_cell_slopes(self.p_knots, self.table)), axis=0)

    @cached_property
    def _stack_key(self):
        """The kind, and the sampled kind's momentum knots."""
        return self.kind, None if self.p_knots is None else tuple(self.p_knots)


def _cell_slopes(p_knots, rows):
    """Each row's rise over run on each momentum cell."""
    return np.diff(rows) / np.diff(p_knots)


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
    for name, a in zip(("alpha", "beta", "kappa"), arrs):
        if a.size == 0:
            raise ValueError(f"{name} needs at least one value")
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

    The table must be discretely convex in p (its ``_cell_slopes``, whose
    maxima ``momentum_lipschitz`` reads, do not fall from one cell to the
    next on any knot spacing), and the declared extension slope at least as
    steep as the outermost table slopes so the extension preserves
    convexity and coercivity.
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
    cell = _cell_slopes(p, t)
    # the cell slopes must not fall: each rise over the mean width of its
    # two cells (the second difference over h^2 on knots of spacing h)
    if np.min(2.0 * np.diff(cell, axis=1) / (p[2:] - p[:-2])) \
            < -TOL_CONVEX * scale:
        raise ValueError("table is not convex in p")
    if slope <= 0:
        raise ValueError("extension slope must be positive (coercivity)")
    if slope < np.max(cell[:, -1]) - TOL_CONVEX or slope < np.max(-cell[:, 0]) - TOL_CONVEX:
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


def _grid_coefficients(H, ns, mid=False):
    """``_coefficients`` at the nodes of the ns-cell grid, or at its cell
    midpoints, derived once per (H, ns, mid)."""
    key = (ns, mid)
    if key not in H._on_grids:
        s = (np.arange(ns) + 0.5) / ns if mid else np.linspace(0.0, 1.0, ns + 1)
        H._on_grids[key] = _coefficients(H, s)
    return H._on_grids[key]


class _Columns:
    """H(s, p) of R same-kind Hamiltonians (sampled ones sharing their
    momentum knots) at C fixed s columns, coefficients looked up once; takes
    momenta (R, C), or any (N, C) when R = 1.  ``coefs`` holds each
    Hamiltonian's ``_coefficients`` at s when the caller keeps them.  Given
    ``out`` (and a scratch ``tmp`` of its shape) the values are written
    there; ``bind`` fixes all three for repeated calls.

    A symbolic group binds fewer ufunc calls when all its alphas at the
    columns are exactly 1 ("unit") or all its betas +-0 ("centered"),
    flags set once here.  abs: unit drops the product by alpha (x 1 = x);
    centered takes |p| for |p - beta| (|.| clears the sign that p - (-0)
    may flip).  quadratic: unit takes p p for (alpha p) p; centered drops
    beta p and its sum, since (alpha p) p is never -0 (alpha > 0) and
    adding +-0 to it is exact.  Each is bitwise the full sequence at finite
    momenta, the only ones a march or a residual scan evaluates; at
    p = +-inf a centered quadratic gives +inf where the full sequence gives
    nan (0 * inf).

    A sampled group splits each row at a column into K + 1 pieces, the left
    extension, the K - 1 knot cells and the right extension, each with an
    anchor knot (the cell's left knot; the end knot of an extension), the
    row's value there and a slope (the cell's rise over its width, or
    -+ the extension slope).  One right-sided knot search picks the piece,
    and H is its value plus its slope times p minus its anchor: exact at
    every knot, where that distance is 0, +inf at p = +-inf and nan at nan,
    in 8 numpy calls with no clip or division."""

    def __init__(self, hams, s, coefs=None):
        if coefs is None:
            s = np.asarray(s, dtype=float)
            coefs = [_coefficients(H, s) for H in hams]
        self.kind = hams[0].kind
        if self.kind == "sampled":
            # piece j of row r at column c is entry (r C + c)(K + 1) + j of
            # the flat value and slope tables, and anchor[j] its anchor knot
            pk = hams[0].p_knots
            rows = np.array(coefs)
            ext = np.array([[[H.extension_slope]] for H in hams])
            slope = np.empty(rows.shape[:2] + (pk.size + 1,))
            np.divide(np.diff(rows), np.diff(pk), out=slope[..., 1:-1])
            slope[..., :1], slope[..., -1:] = -ext, ext
            self.knots, self.anchor = pk, np.concatenate((pk[:1], pk))
            self.value = np.concatenate((rows[..., :1], rows), axis=-1).ravel()
            self.slope = slope.ravel()
            self.base = (pk.size + 1) * np.arange(rows.shape[0] * rows.shape[1]
                                                  ).reshape(rows.shape[:2])
            self.shape = self.base.shape
        else:
            self.a, self.b, self.k = (np.array([c[i] for c in coefs])
                                      for i in range(3))
            self.shape = self.a.shape
            self.unit = (self.a == 1.0).all()
            self.centered = (self.b == 0.0).all()

    def __call__(self, p, out=None, tmp=None):
        if out is None:
            out = np.empty(np.broadcast_shapes(self.shape, np.shape(p)))
        if tmp is None and self.kind != "abs":
            tmp = np.empty_like(out)
        for call in self.bind(p, out, tmp):
            call()
        return out

    def bind(self, p, out, tmp):
        """The calls without arguments that, made in order, write H at the
        momenta p into out, with tmp as scratch (the abs kind takes none); a
        stepper binds its buffers once and makes them every step."""
        if self.kind == "sampled":
            return [partial(self._sampled, p, out, tmp)]
        a, b, k = self.a, self.b, self.k
        if self.kind == "abs":        # a |p - b| + k
            calls = ([(np.absolute, p, out)] if self.centered else
                     [(np.subtract, p, b, out), (np.absolute, out, out)])
            calls += [] if self.unit else [(np.multiply, out, a, out)]
        else:                         # (a p) p + b p + k
            calls = ([(np.multiply, p, p, out)] if self.unit else
                     [(np.multiply, a, p, out), (np.multiply, out, p, out)])
            calls += [] if self.centered else [(np.multiply, b, p, tmp),
                                               (np.add, out, tmp, out)]
        return [partial(*c) for c in calls + [(np.add, out, k, out)]]

    def _sampled(self, p, out, d):
        # the piece's index counts the knots at or below p; the indices are
        # in range, and mode "clip" spares the copy of out that "raise" makes
        j = self.knots.searchsorted(p, side="right")
        np.subtract(p, self.anchor.take(j), d)
        j = j + self.base               # at out's shape, whatever p's
        self.value.take(j, out=out, mode="clip")
        d *= self.slope.take(j)
        out += d


def evaluate(H, s, p):
    """H(s, p); s and p broadcast together, s validated to [0,1]."""
    s_b, p_b = np.broadcast_arrays(_check_s(s), np.asarray(p, dtype=float))
    out = _Columns([H], s_b.ravel())(p_b.ravel()).reshape(s_b.shape)
    return float(out) if out.ndim == 0 else out


def _sorted_distinct(a):
    """The sorted distinct values of a 1-D float array, bit for bit what
    numpy's ``unique`` returns: a default-kind sort, then each value that
    differs from the one before it.  Numpy's set routines import numpy.ma
    on their first call; this helper does not.

    Callers pass only finite arrays (the constructors reject non-finite
    input, and quadratic alpha > 0), so no NaN needs numpy's grouping.
    """
    a = np.sort(a)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _s_check_grid(H):
    """The s-knots joined with 257 uniform nodes."""
    return _sorted_distinct(np.concatenate((H.s_knots,
                                            np.linspace(0.0, 1.0, 257))))


def momentum_minimizer(H, s):
    """Per-s minimizer(s) of p -> H(s,p); vectorized over s.  From the
    ``_coefficients`` at s: beta, -beta / (2 alpha), or the lowest knot."""
    coefs = _coefficients(H, _check_s(np.atleast_1d(s)))
    if H.kind == "sampled":
        # piecewise linear between knots, rising beyond them: a knot minimizes
        return H.p_knots[np.argmin(coefs, axis=1)]
    a, b, _ = coefs
    return b if H.kind == "abs" else -b / (2.0 * a)


def c_gamma(H):
    """Critical value -max_s min_p H(s,p) on the check grid, min_p H from
    ``_lowest`` at the grid's cached coefficients."""
    return H._c_gamma


def global_min(H):
    """min over (s,p) of H on the check grid."""
    return H._global_min


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


def subsolution_levels(hams, data):
    """For every pair (H, w0) of hams and data, in their order, the smallest
    m with H(s, w0') <= m a.e., rendered on the grid.

    w0 is sampled on a uniform s-grid; the a.e. condition becomes the maximum
    of H evaluated at cell midpoints with forward-difference slopes, matching
    the upwind stencil of the marching scheme.  Rows of one kind (sampled
    ones sharing their momentum knots) and one datum length share one
    ``_Columns`` call on their stacked slopes, at the midpoint coefficients
    each Hamiltonian caches per datum length, so a pair's level is bitwise
    the same in any batch.  A datum that is not 1-D with at least 2 samples
    raises ValueError.
    """
    data = [np.asarray(w0, dtype=float) for w0 in data]
    groups = {}
    for i, (H, w0) in enumerate(zip(hams, data)):
        if w0.ndim != 1 or w0.size < 2:
            raise ValueError("need at least 2 samples of the datum")
        groups.setdefault((H._stack_key, w0.size), []).append(i)
    levels = np.empty(len(data))
    for idx in groups.values():
        n = data[idx[0]].size - 1
        slopes = np.diff([data[i] for i in idx], axis=1) * n
        cols = _Columns([hams[i] for i in idx], None,
                        [_grid_coefficients(hams[i], n, mid=True) for i in idx])
        levels[idx] = np.max(cols(slopes), axis=1)
    return levels.tolist()


def _lowest(H, coefs):
    """min_p H at the nodes whose ``_coefficients`` are coefs: kappa, the
    vertex value kappa - beta^2 / (4 alpha), or the least table entry."""
    if H.kind == "sampled":
        return np.min(coefs, axis=1)
    a, b, k = coefs
    return k if H.kind == "abs" else k - b * b / (4.0 * a)


def _grid_peak(H, ns):
    """max over the nodes of the ns-cell grid of min_p H, read from the
    coefficients a march at ns caches there."""
    return float(np.max(_lowest(H, _grid_coefficients(H, ns))))


def sublevel_interval(H, s, M):
    """The ends (lo, hi) of {p : H(s, p) <= M} at each node s, in closed form.

    abs: beta -+ (M - kappa) / alpha.  quadratic: the roots of
    alpha p^2 + beta p + kappa = M in the stable form q = -(beta + sign(beta)
    sqrt(disc)) / 2, roots q / alpha and (kappa - M) / q.  sampled: the row
    at s is piecewise linear and convex in p with the declared linear
    extension, so each end lies on the segment (or extension) just outside
    the first or last knot at or below M.  A node whose minimum exceeds M by
    no more than ``_LEVEL_SLACK`` (the positivity shift rounds M and the
    minima apart) gets its minimizer; one that misses M by more raises
    EmptySublevelError, the first such node named.
    """
    s = _check_s(np.atleast_1d(s))
    return _interval(H, s, _coefficients(H, s), M)


def _interval(H, s, coefs, M):
    """``sublevel_interval`` at the nodes s whose ``_coefficients`` are
    coefs."""
    low = _lowest(H, coefs)
    miss = low - M > _LEVEL_SLACK * (1.0 + abs(M))
    if miss.any():
        i = int(np.argmax(miss))
        raise EmptySublevelError(f"sublevel at M={M} is empty at "
                                 f"s={float(s[i])} (min {float(low[i])})")
    level = np.maximum(low, M)
    if H.kind == "sampled":
        below = coefs <= level[:, None]
        first = np.argmax(below, axis=1)
        last = below.shape[1] - 1 - np.argmax(below[:, ::-1], axis=1)
        return (_crossing(H, coefs, level, first, first - 1),
                _crossing(H, coefs, level, last, last + 1))
    a, b, k = coefs
    if H.kind == "abs":
        r = (level - k) / a
        return b - r, b + r
    c = k - level
    # disc may round below 0 at a level raised to the minimum
    disc = np.maximum(b * b - 4.0 * a * c, 0.0)
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
    # q = 0 only when beta = 0 = c, a double root at p = 0
    r1, r2 = q / a, c / np.where(q == 0.0, 1.0, q)
    return np.minimum(r1, r2), np.maximum(r1, r2)


def _crossing(H, rows, level, at, out):
    """Where each row rises through its level from knot ``at`` (at or below
    it) toward knot ``out`` (above it), or along the extension when ``out``
    is off the table."""
    pk, n = H.p_knots, np.arange(rows.shape[0])
    off = (out < 0) | (out >= pk.size)
    far = np.clip(out, 0, pk.size - 1)
    v = rows[n, at]
    run = np.where(off, 1.0, np.abs(pk[far] - pk[at]))
    rise = np.where(off, H.extension_slope, rows[n, far] - v)
    return pk[at] + np.sign(out - at) * ((level - v) * run / rise)


def _node_widths(H, s, coefs, M):
    """max(|lo|, |hi|) of ``sublevel_interval`` at each node s, whose
    ``_coefficients`` are coefs: the bound that H(s, u_s) <= M puts on |u_s|
    there."""
    lo, hi = _interval(H, s, coefs, M)
    return np.maximum(np.abs(lo), np.abs(hi))


def sublevel_width(H, M):
    """The largest pointwise width max{|p| : H(s,p) <= M} over the nodes s
    of the check grid: the slope bound that H(s, u_s) <= M gives on the
    whole arc, cached per level and read from the check grid's cached
    coefficients.

    Raises EmptySublevelError when a node's set is empty.
    """
    if M not in H._widths:
        H._widths[M] = float(np.max(_node_widths(H, *H._check, M)))
    return H._widths[M]


def cell_widths(H, ns, M):
    """Per cell of the ns-cell grid, the larger of the pointwise widths at
    its two nodes: the bound that H(s, u_s) <= M puts on |u_s| in the cell.
    Derived once per (H, ns, M), from the coefficients a march at ns caches.
    """
    key = (ns, M)
    if key not in H._widths:
        w = _node_widths(H, np.linspace(0.0, 1.0, ns + 1),
                         _grid_coefficients(H, ns), M)
        H._widths[key] = np.maximum(w[:-1], w[1:])
    return H._widths[key]


def momentum_lipschitz(H, M_bound):
    """Lipschitz constant of p -> H(s,p) on |p| <= M_bound, uniform in s.

    The sampled kind is linear in s between its s-knot rows, so its
    constant is the largest cached |slope| of the table's cells that meet
    (-M_bound, M_bound), or the extension slope when the bound passes an end
    of the table and that is larger: stored slopes, nothing evaluated.
    """
    if not (np.isfinite(M_bound) and M_bound > 0):
        raise ValueError(f"M_bound must be finite and positive, got {M_bound}")
    if H.kind == "quadratic":
        a_max, b_max = H._coef_max
        return float(2.0 * a_max * M_bound + b_max)
    if H.kind == "abs":
        return H._coef_max[0]
    pk = H.p_knots
    meet = (pk[:-1] < M_bound) & (pk[1:] > -M_bound)
    ext = M_bound > pk[-1] or -M_bound < pk[0]
    return max(float(H.extension_slope) if ext else 0.0,
               float(np.max(H._slope_max[meet], initial=0.0)))


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
    shifted, lim = _shifted_problem(family, limiter, a)
    return shifted, a, lim


def _shifted_problem(family, limiter, a):
    """The family with every H + a and the limiter with every c_x - a."""
    return (HamiltonianFamily({aid: shift_hamiltonian(H, a)
                               for aid, H in family.by_arc.items()}),
            {x: c - a for x, c in limiter.items()})
