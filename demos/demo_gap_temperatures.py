#!/usr/bin/env python3
"""Gap temperatures: below them, energy alone certifies entanglement.

The temperature where the thermal energy crosses the separable minimum
depends on more than the gap: ground-state degeneracy matters.  The
symmetric projector (gap only 1/2) beats the maximal-gap family by an
ever-growing margin as the local dimension rises, and the completely
entangled subspace family, despite its huge ground degeneracy, stays
below both because its gap is tiny.
"""

import numpy as np

from entgap import (
    eig,
    max_entangled_projector_hamiltonian,
    symmetric_projector_hamiltonian,
)
from entgap.thermo import scaled_gap_temperature, temperature_comparison

print("=" * 74)
print("Closed forms")
print("=" * 74)
print(f"{'d':>3} {'t_E maxent':>12} {'1/ln(d+1)':>11} {'t_E symproj':>13} "
      f"{'1/ln((d+1)/(d-1))':>18}")
for d in (2, 3, 4, 6, 10):
    w_me = eig(max_entangled_projector_hamiltonian(d)).eigenvalues
    w_s = eig(symmetric_projector_hamiltonian(d)).eigenvalues
    t_me = scaled_gap_temperature(w_me, 1 - 1 / d)
    t_s = scaled_gap_temperature(w_s, 0.5)
    print(f"{d:>3} {t_me:>12.6f} {1 / np.log(d + 1):>11.6f} {t_s:>13.6f} "
          f"{1 / np.log((d + 1) / (d - 1)):>18.6f}")
print("\nmaxent falls with d; symproj grows ~d/2 without bound.")

print()
print("=" * 74)
print("Three projector families, with a certified bracket for the CES")
print("=" * 74)
rows = temperature_comparison(dims=(3, 4, 5, 6), seed=0)
print(f"{'d':>3} {'t_maxent':>10} {'t_symproj':>10} {'t_ces in':>22}")
for r in rows:
    lo, hi = r["t_ces_bracket"]
    print(f"{r['d']:>3} {r['t_maxent']:>10.5f} {r['t_symproj']:>10.5f} "
          f"    [{lo:.5f}, {hi:.5f}]")
print("\nordering t_symproj > t_ces holds at every dimension; the CES bracket")
print("combines a PPT lower bound with a seesaw upper bound.")
