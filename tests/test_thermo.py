import numpy as np
import pytest

from entgap.models import (
    choi_hamiltonian,
    heisenberg_pair,
    max_entangled_projector_hamiltonian,
    symmetric_projector_hamiltonian,
    upb_hamiltonian,
)
from entgap.operators import HermitianOperator, random_hermitian
from entgap.separability import seesaw_upper
from entgap.thermo import (
    ThermalCurve,
    bound_entanglement_window,
    entanglement_gap_temperature,
    gibbs_state,
    is_gibbs_ppt,
    scaled_gap_temperature,
    temperature_comparison,
    thermal_curve,
    thermal_energy,
)


def test_thermal_energy_limits():
    h = max_entangled_projector_hamiltonian(2)
    assert thermal_energy(h, 1e6) == pytest.approx(3 / 4, abs=1e-5)
    assert thermal_energy(h, 1 / np.log(3)) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        thermal_energy(h, 0.0)


def test_thermal_limits_against_spectrum_range():
    """beta = 50/E_tot reaches the ground energy to 1e-8 when the first
    excitation is a decent fraction of the range (exp(-50 Delta/E_tot)
    controls the error), and beta = 1e-6/E_tot reaches the mean."""
    from entgap.thermo import _thermal_energy_from_levels

    rng = np.random.default_rng(0)
    spectra = [np.array([0.0, 1.0, 1.0, 1.0]), np.array([0.0, 0.0, 0.5, 1.0, 1.0])]
    spectra += [np.sort(np.concatenate([[0.0], rng.uniform(0.5, 1.0, 6)]))
                for _ in range(3)]
    for w in spectra:
        e_tot = w[-1] - w[0]
        assert abs(_thermal_energy_from_levels(w, e_tot / 50.0) - w[0]) < 1e-8
        # at small beta the deviation from the mean is beta * Var(E) exactly
        # to first order, so the tolerance must scale with beta
        var = float(np.var(w))
        assert abs(_thermal_energy_from_levels(w, e_tot / 1e-6) - w.mean()) < (
            2e-6 * var / e_tot + 1e-12
        )
        assert abs(_thermal_energy_from_levels(w, e_tot / 1e-8) - w.mean()) < 1e-8


def test_two_level_closed_form_matches_spectral():
    rng = np.random.default_rng(1)
    from entgap.thermo import _thermal_energy_from_levels

    for _ in range(10):
        g0 = rng.integers(1, 6)
        g1 = rng.integers(1, 10)
        w = np.array([0.0] * g0 + [1.0] * g1)
        t = float(rng.uniform(0.05, 5.0))
        beta = 1.0 / t
        closed = g1 * np.exp(-beta) / (g0 + g1 * np.exp(-beta))
        assert _thermal_energy_from_levels(w, t) == pytest.approx(closed, abs=1e-12)


def test_thermal_energy_monotone_in_temperature():
    rng = np.random.default_rng(2)
    h = HermitianOperator(random_hermitian(6, rng), (6,))
    grid = np.geomspace(0.01, 50, 40)
    us = [thermal_energy(h, t) for t in grid]
    assert all(b >= a - 1e-12 for a, b in zip(us, us[1:]))


def test_gibbs_state_is_density_matrix():
    h = choi_hamiltonian()
    rho = gibbs_state(h, 0.7)
    assert abs(np.trace(rho.matrix).real - 1) < 1e-12
    assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-12
    assert thermal_energy(h, 0.7) == pytest.approx(
        float(np.real(np.vdot(h.matrix.conj().T, rho.matrix))), abs=1e-10
    )


def test_gap_temperature_closed_forms():
    for d in range(2, 7):
        t = scaled_gap_temperature(max_entangled_projector_hamiltonian(d), 1 - 1 / d)
        assert t == pytest.approx(1 / np.log(d + 1), abs=1e-6)
        t2 = scaled_gap_temperature(symmetric_projector_hamiltonian(d), 0.5)
        assert t2 == pytest.approx(1 / np.log((d + 1) / (d - 1)), abs=1e-6)
    assert 4.9 <= scaled_gap_temperature(symmetric_projector_hamiltonian(10), 0.5) <= 5.1


def test_gap_temperature_solves_defining_equation():
    h = choi_hamiltonian()
    t = entanglement_gap_temperature(h, 0.0)
    assert abs(thermal_energy(h, t) - 0.0) <= 1e-10


def test_gap_temperature_no_finite_solution():
    h = heisenberg_pair()
    assert entanglement_gap_temperature(h, -3.0) is None  # zero gap
    assert entanglement_gap_temperature(h, 100.0) is None  # above the mean


def test_thermal_curve_invariants_and_flags():
    h = heisenberg_pair()
    curve = thermal_curve(h, np.geomspace(0.1, 10, 12))
    # low-temperature Gibbs state of the AFM is NPT, high-temperature is PPT
    assert curve.samples[0][2] is False
    assert curve.samples[-1][2] is True
    with pytest.raises(ValueError):
        ThermalCurve(samples=((1.0, 0.0, True), (1.0, 0.1, True)))
    with pytest.raises(ValueError):
        ThermalCurve(samples=((1.0, 0.5, True), (2.0, 0.1, True)))


def test_curve_and_window_eigendecompose_once(monkeypatch):
    import entgap.thermo as thermo

    calls = []
    real_eig = thermo.eig
    monkeypatch.setattr(thermo, "eig", lambda m: calls.append(m) or real_eig(m))
    h = choi_hamiltonian()
    temps = np.geomspace(0.5, 2.0, 9)
    curve = thermal_curve(h, temps)
    assert len(calls) == 1
    assert [s[2] for s in curve.samples] == [is_gibbs_ppt(h, t) for t in temps]
    calls.clear()
    assert bound_entanglement_window(h, 0.0, t_min=0.5, t_max=2.0) is not None
    assert len(calls) == 1


def test_afm_gap_temperature_scaled():
    # scaled AFM has spectrum {0,1,1,1} and e_sep 1/2
    h = HermitianOperator((heisenberg_pair().matrix + 3 * np.eye(4)) / 4, (2, 2))
    t = scaled_gap_temperature(h, 0.5)
    assert t == pytest.approx(1 / np.log(3), abs=1e-9)


def test_choi_window_matches_reference():
    w = bound_entanglement_window(choi_hamiltonian(), 0.0, t_min=0.5, t_max=2.0)
    assert w is not None
    assert w[0] == pytest.approx(1.256, abs=0.01)
    assert w[1] == pytest.approx(1.271, abs=0.01)


def test_choi_gibbs_ppt_at_reference_temperature():
    assert is_gibbs_ppt(choi_hamiltonian(), 1.26)
    assert not is_gibbs_ppt(choi_hamiltonian(), 1.0)


def test_heisenberg_window_empty():
    assert bound_entanglement_window(heisenberg_pair(), -1.0, t_min=0.05, t_max=5.0) is None


def test_upb_window_nonempty_at_low_temperature():
    h = upb_hamiltonian()
    e_sep, _ = seesaw_upper(h, restarts=32, seed=0)
    w = bound_entanglement_window(h, e_sep, t_min=0.01, t_max=1.0)
    assert w is not None
    assert w[0] == pytest.approx(0.01, abs=1e-9)  # window starts below the grid
    assert w[1] > 0.05


def test_gibbs_ppt_flag_on_multipartite_state():
    from entgap.lattices import LatticeSpec, assemble

    asm = assemble(LatticeSpec.chain(3), heisenberg_pair())
    # default cut {0}|{1,2}: entangled at low T, PPT at high T
    assert not is_gibbs_ppt(asm.dense, 0.2)
    assert is_gibbs_ppt(asm.dense, 50.0)


def test_temperature_comparison_orderings():
    rows = temperature_comparison(dims=(3, 4), seed=0)
    by_d = {r["d"]: r for r in rows}
    assert by_d[3]["t_symproj"] == pytest.approx(1.4427, abs=1e-3)
    assert by_d[3]["t_maxent"] == pytest.approx(0.7213, abs=1e-3)
    assert by_d[4]["t_symproj"] == pytest.approx(1.958, abs=1e-3)
    for r in rows:
        lo, hi = r["t_ces_bracket"]
        assert lo <= hi + 1e-9
        assert r["t_symproj"] > hi


def test_ces_bracket_closes_below_the_symmetric_projector():
    for r in temperature_comparison(dims=(3, 4, 5, 6), seed=0):
        lo, hi = r["t_ces_bracket"]
        assert abs(hi - lo) <= 1e-6
        assert r["t_symproj"] > hi
