"""Three roads at a junction: the flux limiter shapes the whole network.

Three unit arcs meet at a center vertex.  With H = |p| + 1 everywhere, a
zero initial datum and limiter -2 at the center (-1 at the leaves), the
solution has the closed form

    u(y, t) = min(-t, -2 t + d(y, center))

with d the network distance to the center: the center trace is forced down
at slope -2 and launches a wave outward at unit speed.
"""

import numpy as np

import hjnet as hj

print(__doc__)

net = hj.build_network(
    ["x0", "x1", "x2", "x3"],
    [("e1", "x1", "x0"), ("e2", "x2", "x0"), ("e3", "x3", "x0")])
H = hj.abs_hamiltonian(kappa=1.0)
fam = hj.family_from_edges(net, {"e1": H, "e2": H, "e3": H})
limiter = {"x0": -2.0, "x1": -1.0, "x2": -1.0, "x3": -1.0}
ns = 200
scenario = hj.Scenario(net, fam, limiter,
                       {e: np.zeros(ns + 1) for e in ("e1", "e2", "e3")},
                       horizon=2.0, ns=ns, name="tripod")

print(f"limiter admissible: {hj.validate_scenario(scenario).ok}")
print(f"slope budget m0 = {hj.compute_m0(scenario)}")

params = hj.plan_solve(scenario)
print(f"grid: ns={params.ns}, dt={params.dt:.5f}, nt={params.nt}, "
      f"theta={params.theta['e1']:.4f} (dt * theta = ds)")

sol = hj.solve(scenario, params)
t, s = sol.grid.t_nodes(), sol.grid.s_nodes()
exact = np.minimum(-t[:, None], -2.0 * t[:, None] + (1.0 - s)[None, :])
err = max(float(np.max(np.abs(sol.fields[e] - exact))) for e in sol.fields)
print(f"\nsup error vs the closed form: {err:.2e}")
print(f"center trace vs -2t: "
      f"{np.max(np.abs(sol.vertex['x0'] + 2.0 * t)):.2e}  (limiter binding)")
print(f"leaf trace vs min(-t, -2t+1): "
      f"{np.max(np.abs(sol.vertex['x1'] - np.minimum(-t, -2 * t + 1))):.2e}"
      f"  (the wave arrives at t = 1)")

print("\nvertex traces:")
print(f"{'t':>6} {'center x0':>11} {'leaf x1':>11}")
for k in range(0, sol.grid.nt + 1, sol.grid.nt // 8):
    print(f"{t[k]:>6.3f} {sol.vertex['x0'][k]:>11.4f} "
          f"{sol.vertex['x1'][k]:>11.4f}")

rep = hj.verify(sol)
print("\nverification battery:")
for c in rep.checks:
    print(f"  {'PASS' if c.ok else 'FAIL'} {c.name:<20} margin {c.margin:+.2e}")
print(f"overall: {'PASS' if rep.ok else 'FAIL'}")

print("\nThe same run is available from the command line:")
print("  hjnet run --scenario demos/scenarios/tripod.scn --out out/ --refine 1")
