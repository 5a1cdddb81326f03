#!/usr/bin/env python3
"""The XY chain: closed-form separable energy meets free fermions.

The transverse-field XY ring is exactly solvable, and its minimum
separable energy has a closed form, so the entanglement gap across the
whole (anisotropy, field) plane costs one Brillouin-zone average per
point, taken for the whole grid in one vectorized Gauss-Legendre pass.
Two features stand out: the gap vanishes identically on the disorder
circle lambda^2 + gamma^2 = 1, and it rises sharply across the quantum
critical line lambda = 1.  Writes the surface to xy_surface.csv.
"""

import csv

import numpy as np

from entgap.xy import xy_chain_energy_extrema, xy_gap_surface, xy_sep_energy

print("=" * 70)
print("Zero-gap circle: a separable state joins the ground manifold")
print("=" * 70)
for g in (0.2, 0.5, 0.8, 1.0):
    l = float(np.sqrt(1 - g * g))
    e_sep, _ = xy_sep_energy(g, l)
    e0, _ = xy_chain_energy_extrema(g, l)
    print(f"  gamma={g:.1f}, lambda={l:.4f}:  E_sep - E0 = {e_sep - e0:+.2e}")

print()
print("=" * 70)
print("Ising slice (gamma = 1): gap across the critical field")
print("=" * 70)
pts = xy_gap_surface([1.0], np.arange(0.0, 2.0001, 0.1))
print(f"{'lambda':>7} {'E_sep/bond':>11} {'E0/site':>10} {'gap':>9} {'scaled':>9}")
for p in pts:
    marker = "  <- QPT" if abs(p.lam - 1.0) < 1e-9 else ""
    print(f"{p.lam:>7.2f} {p.e_sep_bond:>11.5f} {p.e0_site:>10.5f} "
          f"{p.gap_bond:>9.5f} {p.scaled_gap:>9.5f}{marker}")
print("\nthe gap is zero at lambda=0 (on the circle), rises steeply around")
print("the critical point, peaks past it, then decays like gamma^2/(4 lambda).")

surface = xy_gap_surface(np.arange(0.0, 1.001, 0.1), np.arange(0.0, 2.001, 0.1))
with open("xy_surface.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["gamma", "lambda", "e_sep", "e0", "e_max", "gap", "scaled_gap"])
    for p in surface:
        writer.writerow(
            [p.gamma, p.lam, p.e_sep_bond, p.e0_site, p.e_max_site, p.gap_bond, p.scaled_gap]
        )
print(f"\nwrote {len(surface)} surface points to xy_surface.csv")
