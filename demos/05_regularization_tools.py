"""Finite speed of propagation: the cone oracle and the finite-speed window.

Two standalone tools from the well-posedness theory; the solver itself
calls neither of them:

* the exact cone solution of w_t - M |w'| = 0 bounds how far differences
  of solutions can travel;
* the finite-speed window is a time below which differences of solutions
  that share their initial data stay confined, half the strict bound.
"""

import numpy as np

import hjnet as hj

print(__doc__)

print("--- the cone oracle and the finite-speed window ---")
grid = hj.Grid2D(36, 0.0, 1.0 / 72.0, 36)
left = np.zeros(37)
left[6] = 1.0  # a unit spike leaving the boundary at t = 6 dt
cone = hj.cone_solution(1.0, np.zeros(37), left, np.zeros(37), grid)
s, t = grid.s_nodes(), grid.t_nodes()
k = 24
reached = s[cone.values[k] > 0.0]
print(f"at t = {t[k]:.3f} the spike from (0, {t[6]:.3f}) has reached "
      f"s <= {reached.max():.3f} (cone slope 1)")
H = hj.abs_hamiltonian(kappa=1.0)
print(f"finite-speed window for |p|+1: {hj.propagation_window(H, 1.0)} (= 1/36)")
Hq = hj.quadratic_hamiltonian()
for L in (2.0, 4.0, 8.0):
    print(f"  quadratic arc, slope budget {L}: window "
          f"{hj.propagation_window(Hq, L):.5f}")
