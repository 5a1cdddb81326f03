#!/usr/bin/env python3
"""Entanglement gaps of the Heisenberg antiferromagnet across lattices.

Bipartite lattices inherit the single-bond separable optimum (-1 per
bond); frustrated lattices tiled by triangles or tetrahedra inherit the
all-to-all cluster optimum instead (-1/2, -1/3 per bond).  Ground
energies come from small-cluster diagonalization, ring extrapolation
(1D chain), or shipped literature values for 2D/3D lattices.
"""

from entgap import (
    LatticeSpec,
    assemble,
    chain_energy_extrapolation,
    heisenberg_pair,
    seesaw_upper,
)
from entgap.tables import table2_report

print("=" * 76)
print("Cluster separable optima (per bond)")
print("=" * 76)
h = heisenberg_pair()
for n, label in ((2, "single bond"), (3, "triangle"), (4, "tetrahedron")):
    spec = LatticeSpec.complete(n)
    energy, _ = seesaw_upper(assemble(spec, h).dense, restarts=32, seed=0)
    per_bond = energy / len(spec.bonds)
    print(f"  {label:<14} n={n}:  E_sep/bond = {per_bond:+.9f}   (expect -1/{n - 1})")

print()
print("=" * 76)
print("1D chain from even-ring extrapolation")
print("=" * 76)
e0, fit = chain_energy_extrapolation()
for n, e in zip(fit["ring_sizes"], fit["per_site"]):
    print(f"  ring({n:>2}):  E0/site = {e:+.8f}")
print(f"  a + b/N^2 fit:  a = {e0:+.8f}   (literature: -1.772)")

print()
print("=" * 76)
print("Gap table")
print("=" * 76)
rows, _ = table2_report(restarts=16, seed=0)
print(f"{'lattice':<20} {'coord':>5} {'E0/bond':>9} {'Esep/bond':>10} "
      f"{'gap/bond':>9} {'scaled':>7}  source")
for r in rows:
    print(f"{r['lattice']:<20} {r['coordination']:>5} {r['e0_per_bond']:>9.4f} "
          f"{r['e_sep_per_bond']:>10.4f} {r['gap_per_bond']:>9.4f} "
          f"{r['scaled_gap']:>7.4f}  {r['source']}")

print()
print("Within each family the gap per bond falls with coordination number,")
print("and frustration keeps a sizable gap even where every bond marginal")
print("is separable: there the witness detects genuinely multipartite")
print("entanglement of the triangles and tetrahedra.")
