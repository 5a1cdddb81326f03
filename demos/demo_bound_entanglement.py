#!/usr/bin/env python3
"""Bound entanglement: where the PPT relaxation is genuinely blind.

Two qutrit examples.  The Choi-map Hamiltonian has separable minimum 0,
but PPT states reach (3 - 2*sqrt(3))/3 = -0.1547 below it; in a narrow
temperature window the Gibbs state is entangled (negative energy) yet
PPT, so its entanglement is bound.  The Tiles-UPB projector is the
extreme case: every low-energy state is bound entangled.
"""

import numpy as np

from entgap import choi_hamiltonian, eig, ppt_lower, seesaw_upper, upb_hamiltonian
from entgap.thermo import bound_entanglement_window, is_gibbs_ppt, thermal_energy

print("=" * 70)
print("Choi Hamiltonian (3 x 3)")
print("=" * 70)
h = choi_hamiltonian()
spec = eig(h)
print(f"spectrum: {np.round(spec.eigenvalues, 6)}")
lo, res = ppt_lower(h)
up, _ = seesaw_upper(h, restarts=64, seed=0)
print(f"PPT lower bound:   {lo:+.9f}   (closed form (3-2*sqrt(3))/3 = "
      f"{(3 - 2 * np.sqrt(3)) / 3:+.9f})")
print(f"seesaw upper bound:{up:+.2e}   (true separable minimum is 0)")
print(f"relaxation gap {up - lo:.4f}: energies in it are PPT yet entangled")

window = bound_entanglement_window(spec, 0.0, t_min=0.8, t_max=1.8)
print(f"\nthermal window of bound entanglement: "
      f"[{window[0]:.4f}, {window[1]:.4f}]  (reference ~[1.256, 1.271])")
temps = np.array([1.20, 1.26, 1.30])
for t, u, ppt in zip(temps, thermal_energy(spec.eigenvalues, temps), is_gibbs_ppt(spec, temps)):
    print(f"  T={t:.2f}: U = {u:+.4f}  PPT = {ppt}")

print()
print("=" * 70)
print("Tiles unextendible product basis (3 x 3)")
print("=" * 70)
hu = upb_hamiltonian("tiles")
lo_u, _ = ppt_lower(hu)
up_u, _ = seesaw_upper(hu, restarts=128, seed=0)
print(f"PPT lower bound:    {lo_u:+.2e}  (the UPB complement holds PPT states)")
print(f"seesaw upper bound: {up_u:+.9f}  (no product state reaches the ground manifold)")
w = bound_entanglement_window(eig(hu), up_u, t_min=0.01, t_max=1.0)
print(f"window: every thermal state below T = {w[1]:.4f} is bound entangled")
