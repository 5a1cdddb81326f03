from functools import cached_property

import numpy as np
import pytest

from entgap import lattices, tables
from entgap.tables import (
    CLUSTERS,
    chain_energy_extrapolation,
    table1_report,
    table2_report,
)

# reference rows: (E0/bond, Esep/bond, gap/bond, scaled gap)
STAR_REFERENCE = {
    1: (-3.0, -1.0, 2.0, 0.5),
    2: (-2.0, -1.0, 1.0, 0.333),
    3: (-1.667, -1.0, 0.667, 0.25),
    4: (-1.5, -1.0, 0.5, 0.2),
    5: (-1.4, -1.0, 0.4, 0.167),
    6: (-1.333, -1.0, 0.333, 0.143),
}

LATTICE_REFERENCE = {
    "single bond": (-3.0, -1.0, 2.0, 0.5),
    "1d chain": (-1.772, -1.0, 0.772, 0.279),
    "hexagonal": (-1.452, -1.0, 0.452, 0.184),
    "square": (-1.338, -1.0, 0.338, 0.145),
    "cubic": (-1.194, -1.0, 0.194, 0.088),
    "single triangle": (-1.0, -0.5, 0.5, 0.25),
    "kagome": (-0.874, -0.5, 0.374, 0.200),
    "triangular": (-0.726, -0.5, 0.226, 0.131),
    "single tetrahedron": (-1.0, -0.333, 0.667, 0.333),
    "checkerboard": (-0.67, -0.333, 0.34, 0.20),
}


def test_table1_matches_reference():
    rows = table1_report(restarts=16, seed=0)
    assert [r["k"] for r in rows] == [1, 2, 3, 4, 5, 6]
    for r in rows:
        e0, esep, gap, scaled = STAR_REFERENCE[r["k"]]
        assert r["e0_per_bond"] == pytest.approx(e0, abs=1e-3)
        assert r["e_sep_per_bond"] == pytest.approx(esep, abs=1e-3)
        assert r["gap_per_bond"] == pytest.approx(gap, abs=1e-3)
        assert r["scaled_gap"] == pytest.approx(scaled, abs=1e-3)


def test_table1_gap_strictly_decreases_with_coordination():
    rows = table1_report(restarts=16, seed=0)
    gaps = [r["gap_per_bond"] for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_chain_extrapolation_close_to_literature():
    e0, fit = chain_energy_extrapolation(ring_sizes=(8, 10, 12), seed=0)
    assert e0 == pytest.approx(-1.772, abs=5e-3)
    assert len(fit["per_site"]) == 3


def _heisenberg_ring_half_filled(n):
    """The Heisenberg ring on the n-bit strings with n // 2 bits set, built
    bond by bond: sigma^z sigma^z gives +1 when the two bits agree and -1
    when they differ, and sigma^x sigma^x + sigma^y sigma^y swaps two
    differing bits with amplitude 2."""
    states = [s for s in range(2 ** n) if bin(s).count("1") == n // 2]
    where = {s: i for i, s in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    for i, s in enumerate(states):
        for a in range(n):
            b = (a + 1) % n
            if (s >> a & 1) == (s >> b & 1):
                h[i, i] += 1.0
            else:
                h[i, i] -= 1.0
                h[where[s ^ (1 << a) ^ (1 << b)], i] += 2.0
    return h


def test_chain_fit_ring_energies_match_a_half_filled_block_built_from_bit_strings():
    sizes = (8, 10, 12)
    _, fit = chain_energy_extrapolation(ring_sizes=sizes, seed=0)
    assert fit["ring_sizes"] == list(sizes)
    for n, e_site in zip(sizes, fit["per_site"]):
        e0 = np.linalg.eigvalsh(_heisenberg_ring_half_filled(n))[0]
        assert e_site == pytest.approx(e0 / n, abs=1e-10)


def test_table2_matches_reference():
    rows, meta = table2_report(restarts=16, seed=0)
    by_name = {r["lattice"]: r for r in rows}
    assert set(by_name) == set(LATTICE_REFERENCE)
    for name, (e0, esep, gap, scaled) in LATTICE_REFERENCE.items():
        r = by_name[name]
        assert r["e0_per_bond"] == pytest.approx(e0, abs=2e-3), name
        assert r["e_sep_per_bond"] == pytest.approx(esep, abs=1e-3), name
        assert r["gap_per_bond"] == pytest.approx(gap, abs=4e-3), name
        assert r["scaled_gap"] == pytest.approx(scaled, abs=2e-3), name
    assert meta["chain_fit"]["ring_sizes"] == [8, 10, 12, 14]
    # the computed cluster optima, -1/(n-1) per bond of n spins all-to-all
    assert by_name["single bond"]["e_sep_per_bond"] == pytest.approx(-1.0, abs=1e-9)
    assert by_name["single triangle"]["e_sep_per_bond"] == pytest.approx(-0.5, abs=1e-9)
    assert by_name["single tetrahedron"]["e_sep_per_bond"] == pytest.approx(-1 / 3, abs=1e-8)


def test_table2_gap_decreases_with_coordination_within_families():
    rows, _ = table2_report(restarts=16, seed=0)
    by_name = {r["lattice"]: r for r in rows}
    bipartite = ["single bond", "1d chain", "hexagonal", "square", "cubic"]
    gaps = [by_name[n]["gap_per_bond"] for n in bipartite]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    tri_family = ["single triangle", "kagome", "triangular"]
    gaps3 = [by_name[n]["gap_per_bond"] for n in tri_family]
    assert all(b < a for a, b in zip(gaps3, gaps3[1:]))


def test_star_rows_stay_above_lattice_rows():
    """Lattice ground energies per bond always sit above the star graph
    with the same coordination number."""
    stars = {r["k"]: r["e0_per_bond"] for r in table1_report(restarts=8, seed=0)}
    rows, _ = table2_report(restarts=8, seed=0)
    for r in rows:
        k = r["coordination"]
        if k in stars and r["source"] != "computed":
            assert r["e0_per_bond"] >= stars[k] - 1e-9


def test_each_separable_optimum_is_computed_once(monkeypatch):
    """One seesaw per separable optimum (one for Table 1, one per cluster
    for Table 2), and Table 2 builds each cluster's dense matrix once for
    both its spectrum and its seesaw."""
    calls, dense_builds = [], []
    seesaw = tables.seesaw_upper
    dense = vars(lattices.AssembledLattice)["dense"]

    def counting(*args, **kwargs):
        calls.append(args)
        return seesaw(*args, **kwargs)

    def counting_dense(assembled):
        dense_builds.append(assembled.spec.n_sites)
        return dense.func(assembled)

    counted_dense = cached_property(counting_dense)
    counted_dense.__set_name__(lattices.AssembledLattice, "dense")
    monkeypatch.setattr(tables, "seesaw_upper", counting)
    monkeypatch.setattr(lattices.AssembledLattice, "dense", counted_dense)
    table1_report(restarts=4)
    assert len(calls) == 1
    calls.clear()
    dense_builds.clear()
    rows, _ = table2_report(restarts=4)
    assert len(calls) == 3
    assert dense_builds == [n for _, n, _ in CLUSTERS]
    by_name = {r["lattice"]: r for r in rows}
    for cluster, _, tiled in CLUSTERS:
        for name in tiled:
            assert by_name[name]["e_sep_per_bond"] == by_name[cluster]["e_sep_per_bond"]
