"""Well-posedness as executable checks: the theory on a desk-scale network.

Uniqueness-flavored identities hold exactly at the scheme level, so they
make sharp tests: adding a constant to all Hamiltonians tilts the solution
by exactly -a*t, the solution map is nonexpansive in the initial datum, a
restart from the half-way state replays the run byte for byte, and
perturbing data/Hamiltonians/limiter at halving amplitudes shrinks the
solution difference monotonically.
"""

import numpy as np

import hjnet as hj
from hjnet.network_solver import interior_bump

print(__doc__)

net = hj.build_network(
    ["x0", "x1", "x2", "x3"],
    [("e1", "x1", "x0"), ("e2", "x2", "x0"), ("e3", "x3", "x0")])
H = hj.abs_hamiltonian(kappa=1.0)
fam = hj.family_from_edges(net, {"e1": H, "e2": H, "e3": H})
limiter = {"x0": -2.0, "x1": -1.0, "x2": -1.0, "x3": -1.0}
ns = 107  # 216 time steps; the restart splits at step 108
scenario = hj.Scenario(net, fam, limiter,
                       {e: np.zeros(ns + 1) for e in ("e1", "e2", "e3")},
                       horizon=2.0, ns=ns, name="tripod")

print("--- tilting the Hamiltonians ---")
for a in (1.0, 5.0):
    rep = hj.shift_check(scenario, a)
    print(f"H + {a}, limiter - {a}: max |u_shift + {a}t - u| = "
          f"{rep.max_dev:.2e}  ({'exact' if rep.ok else 'BROKEN'})")

print("\n--- contraction in the initial datum ---")
rep = hj.contraction_check(
    scenario, {e: v + 0.3 for e, v in scenario.initial.items()})
print(f"constant lift 0.3: sup difference = {rep.sup_diff:.15f}")
bump = interior_bump(ns, 0.2)
rep = hj.contraction_check(
    scenario, {e: v + bump for e, v in scenario.initial.items()})
print(f"interior bump 0.2: sup difference = {rep.sup_diff:.6f} <= 0.2, "
      f"ordered = {rep.ordered}")

print("\n--- restart and determinism ---")
equal, worst = hj.restart_check(scenario)
print(f"[0,T] vs [0,T/2] + restart: byte-identical = {equal} "
      f"(max diff {worst})")

print("\n--- stability under halving perturbations ---")
rep = hj.stability_sweep(scenario, eps_h=0.4, eps_c=0.2, eps_g=0.2, levels=4)
for k, d in enumerate(rep.diffs):
    print(f"level {k} (amplitudes x 2^-{k}): sup difference {d:.4f}")
print(f"monotone decrease: {rep.monotone_ok}")

print("\n--- the semidiscrete certificate ---")
sol = hj.solve(scenario)
from hjnet.semidiscrete import discr_residual
cert = discr_residual(sol.trace_set(), net, fam, limiter,
                      tolerance=hj.default_epsilon(sol),
                      thetas=sol.params.theta)
for e in cert.entries:
    print(f"  vertex {e.vertex}: residual {e.residual:.2e} "
          f"{'PASS' if e.ok else 'FAIL'}")
