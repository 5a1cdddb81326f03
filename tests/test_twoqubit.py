import numpy as np
import pytest

from entgap import twoqubit
from entgap.models import singlet
from entgap.separability import ppt_lower
from entgap.thermo import entanglement_gap_temperature
from entgap.twoqubit import (
    AFM_SCALED_T,
    SEARCH_BLOCK,
    _sample_basis,
    afm_reference_temperature,
    e2_bounds,
    family_hamiltonian,
    random_search,
    schmidt_plus_minus_product,
    takagi2,
    top_state_product,
)


def test_afm_reference_value():
    assert afm_reference_temperature() == pytest.approx(0.9102392266, abs=1e-9)


def test_family_hamiltonian_validation():
    with pytest.raises(ValueError):
        family_hamiltonian(0.6, 0.4, np.eye(4))
    with pytest.raises(ValueError):
        family_hamiltonian(0.2, 0.4, np.eye(4) * 2)


def test_e2_bounds_ordering_and_domain():
    for e1 in (0.3, 0.5, 0.7, 0.9):
        lb, ub = e2_bounds(e1)
        assert e1 <= lb <= 1.0 and e1 <= ub <= 1.0
        assert lb <= ub + 1e-12
    with pytest.raises(ValueError):
        e2_bounds(0.2)


def test_e2_bounds_solve_their_equations():
    e1 = 0.5
    lb, ub = e2_bounds(e1)
    t = AFM_SCALED_T

    def u(e2):
        w = np.array([0.0, e1, e2, 1.0])
        x = np.exp(-w / t)
        return float((w * x).sum() / x.sum())

    assert u(lb) == pytest.approx((e1 + 1) / 4, abs=1e-8)
    assert u(ub) == pytest.approx(ub / 2, abs=1e-8)


def singlet_ground_family(rng, e1, e2):
    basis = _sample_basis(rng, "singlet")
    return family_hamiltonian(e1, e2, basis), basis


def test_takagi_factorization():
    rng = np.random.default_rng(4)
    cases = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
             for _ in range(10)]
    cases += [np.eye(2), 1j * np.eye(2), np.array([[0, 1j], [1j, 0]])]
    for raw in cases:
        m = (raw + raw.T) / 2
        q, s = takagi2(m)
        assert np.max(np.abs(q @ np.diag(s) @ q.T - m)) < 1e-10
        assert np.max(np.abs(q.conj().T @ q - np.eye(2))) < 1e-10
        assert s[0] >= s[1] >= 0


def test_explicit_separable_states_bound_energy():
    rng = np.random.default_rng(0)
    for _ in range(25):
        e1, e2 = np.sort(rng.uniform(0, 1, 2))
        h, basis = singlet_ground_family(rng, e1, e2)
        psi1 = schmidt_plus_minus_product(basis[:, 1])
        assert h.expectation(psi1) <= (e1 + 1) / 4 + 1e-9
        # symmetric-Schmidt vectors of the top state: energy <= E2/2
        psi2 = top_state_product(basis[:, 3])
        assert h.expectation(psi2) <= e2 / 2 + 1e-9


def test_lemma_low_separable_energy_caps_temperature():
    """Whenever an explicit separable state has energy at or below the
    AFM-threshold thermal energy, the gap temperature cannot beat 1/ln 3."""
    rng = np.random.default_rng(1)
    for _ in range(25):
        e1, e2 = np.sort(rng.uniform(0, 1, 2))
        h, basis = singlet_ground_family(rng, e1, e2)
        w = np.array([0.0, e1, e2, 1.0])
        x = np.exp(-w / AFM_SCALED_T)
        u_at_threshold = float((w * x).sum() / x.sum())
        e_sep, _ = ppt_lower(h)
        t = entanglement_gap_temperature(np.array([0.0, e1, e2, 1.0]), e_sep)
        psi1 = schmidt_plus_minus_product(basis[:, 1])
        if h.expectation(psi1) <= u_at_threshold and t is not None:
            assert t <= AFM_SCALED_T + 1e-8


def test_low_first_level_caps_temperature():
    """Spectra with E1 <= 1/4 never exceed the reference temperature."""
    rng = np.random.default_rng(2)
    for _ in range(30):
        e1 = float(rng.uniform(0, 0.25))
        e2 = float(rng.uniform(e1, 1.0))
        basis = _sample_basis(rng, "haar")
        h = family_hamiltonian(e1, e2, basis)
        e_sep, _ = ppt_lower(h)
        if e_sep <= 1e-9:
            continue
        t = entanglement_gap_temperature(np.array([0.0, e1, e2, 1.0]), e_sep)
        if t is not None:
            assert t <= AFM_SCALED_T + 1e-8


def test_boundary_family_is_the_antiferromagnet():
    rng = np.random.default_rng(3)
    basis = _sample_basis(rng, "singlet")
    h = family_hamiltonian(1.0, 1.0, basis)
    e_sep, _ = ppt_lower(h)
    assert e_sep == pytest.approx(0.5, abs=1e-7)
    t = entanglement_gap_temperature(np.array([0.0, 1.0, 1.0, 1.0]), e_sep)
    assert t == pytest.approx(AFM_SCALED_T, abs=1e-6)


def test_zero_gap_families_are_skipped_and_counted(monkeypatch):
    # a single block is solved in this process: no pool is started
    monkeypatch.setattr(twoqubit, "ProcessPoolExecutor", None)
    res = random_search(5, seed=123, workers=2)
    assert res.n_samples == 5
    monkeypatch.undo()
    # identity eigenbasis puts the (product) state |00> in the ground level
    h = family_hamiltonian(0.3, 0.6, np.eye(4, dtype=complex))
    e_sep, _ = ppt_lower(h)
    assert abs(e_sep) <= 1e-8  # the ground state is itself a product state


def test_random_search_deterministic_and_bounded():
    # more samples than one block, so two workers split the work
    n = SEARCH_BLOCK + 100
    res1 = random_search(n, seed=11, workers=1)
    res2 = random_search(n, seed=11, workers=2)
    assert res1 == res2
    assert res1.max_t <= AFM_SCALED_T + 1e-6
    assert res1.seesaw_max_deviation <= 1e-6
    # every PPT solve met its contract, so no sample's bound was loosened
    assert res1.n_unconverged == 0
    assert res1.to_dict()["n_unconverged"] == 0


def test_random_search_singlet_mode():
    res = random_search(300, seed=5, ground="singlet", workers=2)
    assert res.max_t <= AFM_SCALED_T + 1e-6
    with pytest.raises(ValueError):
        random_search(0)
    with pytest.raises(ValueError):
        random_search(5, ground="nosuch")


def _sample_energies(seed, i):
    """(E1, E2, basis hash, PPT value) of Haar sample ``i``, rebuilt from
    generator (seed, i) the way the search draws it."""
    import hashlib

    rng = np.random.default_rng((seed, i))
    e1, e2 = np.sort(rng.uniform(0.0, 1.0, 2))
    basis = _sample_basis(rng, "haar")
    digest = hashlib.sha1(np.ascontiguousarray(basis).tobytes()).hexdigest()[:12]
    return float(e1), float(e2), digest, ppt_lower(family_hamiltonian(e1, e2, basis))[0]


def test_first_sample_at_the_maximum_wins_across_blocks(monkeypatch):
    # every sample above the zero-gap threshold reaches the same temperature,
    # so the winner is the first sample past it, in whichever block it is
    monkeypatch.setattr(twoqubit, "SEARCH_BLOCK", 8)
    monkeypatch.setattr(twoqubit, "ZERO_GAP_TOL", 0.15)
    monkeypatch.setattr(twoqubit, "entanglement_gap_temperature", lambda w, e: 0.5)
    seed = 0
    first = next(i for i in range(40) if _sample_energies(seed, i)[3] > 0.15)
    assert first >= 8  # the winner is not in the first block
    res = random_search(40, seed=seed, check_every=0, workers=1)
    assert res.max_t == 0.5
    assert (res.e1, res.e2, res.basis_hash) == _sample_energies(seed, first)[:3]
    assert res.n_skipped_zero_gap >= first
    assert res.seesaw_checks == 0 and res.seesaw_max_deviation == 0.0


def test_all_samples_skipped_leaves_no_winner(monkeypatch):
    monkeypatch.setattr(twoqubit, "SEARCH_BLOCK", 8)
    monkeypatch.setattr(twoqubit, "ZERO_GAP_TOL", 2.0)
    res = random_search(20, seed=1, check_every=0, workers=1)
    assert res.max_t == -np.inf
    assert np.isnan(res.e1) and np.isnan(res.e2) and res.basis_hash == ""
    assert res.n_skipped_zero_gap == res.n_samples == 20


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and maps in
    this process, so no process starts."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_is_capped_at_blocks_and_cores(monkeypatch):
    monkeypatch.setattr(twoqubit, "SEARCH_BLOCK", 8)
    monkeypatch.setattr(twoqubit, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(twoqubit.os, "cpu_count", lambda: 2)
    serial = random_search(24, seed=9, check_every=0, workers=1)
    assert _RecordingPool.sizes == []
    # 64 workers asked for, 3 blocks, 2 cores
    assert random_search(24, seed=9, check_every=0, workers=64) == serial
    assert _RecordingPool.sizes == [2]
    monkeypatch.setattr(twoqubit.os, "cpu_count", lambda: 8)
    random_search(24, seed=9, check_every=0, workers=64)
    assert _RecordingPool.sizes == [2, 3]
