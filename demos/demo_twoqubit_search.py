#!/usr/bin/env python3
"""Is any two-qubit Hamiltonian thermally better than the antiferromagnet?

Scale every two-qubit Hamiltonian to spectrum {0, E1, E2, 1}.  The
antiferromagnet (singlet ground, triplets at 1) certifies entanglement
up to the scaled temperature 1/ln 3 = 0.9102.  Random search over the
family, with the exact-for-qubits PPT program computing each separable
energy, never finds anything higher; the two transcendental curves
E2_lb < E2_ub show why the singlet-ground case cannot win.
"""

import numpy as np

from entgap.twoqubit import AFM_SCALED_T, e2_bounds, random_search

print("=" * 70)
print(f"reference: scaled AFM gap temperature = 1/ln 3 = {AFM_SCALED_T:.7f}")
print("=" * 70)

n = 5000
res = random_search(n, seed=7)
print(f"\nHaar-basis search over {n} samples (seed 7):")
print(f"  max t_E found   = {res.max_t:.7f}")
print(f"  at (E1, E2)     = ({res.e1:.4f}, {res.e2:.4f})")
print(f"  zero-gap skips  = {res.n_skipped_zero_gap}")
print(f"  seesaw cross-checks: {res.seesaw_checks}, worst deviation "
      f"{res.seesaw_max_deviation:.1e}")
print(f"  below reference: {res.max_t <= AFM_SCALED_T + 1e-6}")

res_s = random_search(n // 5, seed=11, ground="singlet")
print(f"\nsinglet-ground search over {n // 5} samples:")
print(f"  max t_E found   = {res_s.max_t:.7f}  (still below 1/ln 3)")

print()
print("=" * 70)
print("Why singlet-ground families lose: the two separable-state curves")
print("=" * 70)
print(f"{'E1':>6} {'E2_lb':>9} {'E2_ub':>9}   lb <= ub everywhere")
for e1 in np.linspace(0.3, 1.0, 8):
    lb, ub = e2_bounds(float(e1))
    print(f"{e1:>6.2f} {lb:>9.5f} {ub:>9.5f}")
print("\nfor every (E1, E2) one of the two explicit product states already")
print("has energy at or below the AFM-threshold thermal energy, capping the")
print("gap temperature at 1/ln 3.")
