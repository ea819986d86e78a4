"""Regularization helpers: envelopes, sup-convolution, the cone oracle.

Three standalone tools from the well-posedness theory; the solver itself
calls none of them:

* Lipschitz envelopes squeeze any gridded function between n-Lipschitz
  approximants from above and below, converging uniformly as n grows;
* the t-partial sup-convolution turns a field into a time-Lipschitz one
  while shifting optimizers by at most O(sqrt(delta));
* the exact cone solution of w_t - M |w'| = 0 bounds how far differences
  of solutions can travel, which is what the finite-speed window bounds.
"""

import numpy as np

import hjnet as hj

print(__doc__)

rng = np.random.default_rng(12)

print("--- Lipschitz envelopes of a rough profile ---")
rough = np.where(np.arange(41) >= 20, 1.0, 0.0) + 0.05 * rng.normal(size=41)
print(f"{'n':>7} {'sup(above - input)':>20} {'n-Lipschitz?':>14}")
for n in (1.0, 4.0, 16.0, 64.0, 256.0):
    env = hj.lipschitz_envelope_above(rough, n, dt=0.05)
    slopes = np.abs(np.diff(env)) / 0.05
    print(f"{n:>7.0f} {np.max(env - rough):>20.5f} "
          f"{str(np.max(slopes) <= n + 1e-9):>14}")

print("\n--- t-partial sup-convolution of a decaying field ---")
grid = hj.Grid2D(10, 0.0, 0.02, 100)
t = grid.t_nodes()
vals = np.broadcast_to(-t[:, None], (101, 11)).copy()
fld = hj.ArcField(grid, vals, theta=1.0)
for delta in (0.04, 0.16):
    out, tdelta = hj.sup_convolution_t(fld, delta)
    inner = out.values[t >= delta, :]
    gain = np.max(np.abs(inner - (-t[t >= delta][:, None] + delta / 2.0)))
    print(f"delta = {delta}: value gain delta/2 reproduced to {gain:.1e}, "
          f"optimizer shift T_delta = {tdelta:.3f}")

print("\n--- the cone oracle and the finite-speed window ---")
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
