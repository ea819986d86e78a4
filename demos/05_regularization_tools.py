"""Finite speed of propagation: the finite-speed window.

The finite-speed window is a time below which differences of solutions
that share their initial data stay confined, half the strict bound.  It is
a standalone tool from the well-posedness theory; the solver does not call
it.
"""

import hjnet as hj

print(__doc__)

print("--- the finite-speed window ---")
H = hj.abs_hamiltonian(kappa=1.0)
print(f"finite-speed window for |p|+1: {hj.propagation_window(H, 1.0)} (= 1/36)")
Hq = hj.quadratic_hamiltonian()
for L in (2.0, 4.0, 8.0):
    print(f"  quadratic arc, slope budget {L}: window "
          f"{hj.propagation_window(Hq, L):.5f}")
