"""Fronts on a single arc: the monotone marching scheme at work.

We solve u_t + |u'| + 1 = 0 on one arc with different boundary setups and
compare against closed forms:

* flat datum, both sides free    -> uniform decay u = -t
* ramp datum g(s) = s            -> covering-line value max(0, s-t) - t
* left datum -2t, right free     -> ingoing wave min(-t, -2t + s)

plus a grid-refinement table showing first-order convergence.
"""

import numpy as np

import hjnet as hj
from hjnet.arc_solver import _interior_residuals

H = hj.abs_hamiltonian(kappa=1.0)      # H(s, p) = |p| + 1


def grid_for(ns, horizon=1.0):
    ds = 1.0 / ns
    theta = 1.0 + ds                   # slight surplus dissipation
    dt = ds / theta
    return hj.Grid2D(ns, 0.0, dt, int(round(horizon / dt))), theta


def sup_err(field, exact):
    return float(np.max(np.abs(field.values - exact)))


print(__doc__)

print("--- flat datum, state constraints on both sides ---")
grid, theta = grid_for(100)
fld = hj.max_subsolution(H, np.zeros(101), hj.free(), hj.free(), grid,
                         theta=theta)
t = grid.t_nodes()
print(f"sup |u - (-t)| = {sup_err(fld, -t[:, None]):.2e}  (exact decay)\n")

print("--- ramp datum: the front max(0, s-t) - t ---")
print(f"{'ns':>5} {'sup error':>12} {'order':>7}")
prev = None
for ns in (50, 100, 200, 400):
    grid, theta = grid_for(ns)
    fld = hj.max_subsolution(H, np.linspace(0, 1, ns + 1), hj.free(),
                             hj.free(), grid, theta=theta)
    s, t = grid.s_nodes(), grid.t_nodes()
    exact = np.maximum(0.0, s[None, :] - t[:, None]) - t[:, None]
    e = sup_err(fld, exact)
    order = "" if prev is None else f"{np.log2(prev / e):7.2f}"
    print(f"{ns:>5} {e:>12.3e} {order:>7}")
    prev = e

print("\n--- left datum -2t drives a slope-one wave into the arc ---")
grid, theta = grid_for(200)
t = grid.t_nodes()
fld = hj.max_subsolution(H, np.zeros(201), hj.constrained(-2.0 * t),
                         hj.free(), grid, theta=theta)
s = grid.s_nodes()
exact = np.minimum(-t[:, None], -2.0 * t[:, None] + s[None, :])
print(f"sup error vs min(-t, -2t+s): {sup_err(fld, exact):.2e}")
print(f"left trace rides the datum exactly: "
      f"{np.max(np.abs(fld.values[:, 0] + 2.0 * t)):.1e}")
u = fld.values
res = _interior_residuals(u, H, fld.theta, grid.dt)
print(f"interior scheme residual max |u_t + Hhat|: {np.max(np.abs(res)):.1e}")

print("\n--- finite speed: lateral data cannot reach the midcell window ---")
delta = hj.propagation_window(H, 1.0)
print(f"window delta = {delta} (= 1/36 for this Hamiltonian)")
ns = 72
grid = hj.Grid2D(ns, 0.0, 1.0 / 144.0, 4)
g = np.zeros(ns + 1)
t = grid.t_nodes()
u1 = hj.max_subsolution(H, g, hj.constrained(-2 * t), hj.constrained(-2 * t),
                        grid, theta=1.0)
u2 = hj.max_subsolution(H, g, hj.constrained(-2 * t + 1.0),
                        hj.constrained(-2 * t + 1.0), grid, theta=1.0)
lo, hi = int((0.5 - delta) * ns), int(np.ceil((0.5 + delta) * ns))
mid_gap = np.max(np.abs(u1.values[:, lo:hi + 1] - u2.values[:, lo:hi + 1]))
print(f"data differ by 1 on the sides; midcell block gap = {mid_gap}")
