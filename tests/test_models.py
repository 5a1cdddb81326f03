import re
from pathlib import Path

import numpy as np
import pytest

from entgap.lattices import LATTICES, LatticeSpec
from entgap.models import (
    MODELS,
    SIGMA_X,
    ces_hamiltonian,
    ces_projector,
    choi_hamiltonian,
    from_identifier,
    heisenberg_pair,
    max_entangled_projector_hamiltonian,
    max_entangled_state,
    singlet,
    swap_operator,
    symmetric_projector_hamiltonian,
    tiles_upb_states,
    upb_hamiltonian,
    xxz_pair,
    xy_pair,
)
from entgap.operators import eig, random_state_vector
from entgap.separability import seesaw_upper
from helpers import geometric_overlap


def test_heisenberg_spectrum_and_singlet_identity():
    h = heisenberg_pair()
    assert np.allclose(np.linalg.eigvalsh(h.matrix), [-3, 1, 1, 1])
    s = singlet()
    shifted = (h.matrix + 3 * np.eye(4)) / 4
    assert np.max(np.abs(shifted - (np.eye(4) - np.outer(s, s.conj())))) < 1e-12
    assert abs(np.trace(h.matrix)) < 1e-12


def test_xy_pair_special_cases():
    assert np.max(np.abs(xy_pair(1.0, 0.0).matrix - np.kron(SIGMA_X, SIGMA_X))) < 1e-12
    # on the disorder circle the ground state is reachable by a product state
    h = xy_pair(0.6, 0.8)
    e0 = eig(h).e0
    e_sep, _ = seesaw_upper(h, restarts=16, seed=0)
    assert abs(e0 - e_sep) < 1e-9


def test_xxz_reduces_to_heisenberg():
    assert np.max(np.abs(xxz_pair(1.0).matrix - heisenberg_pair().matrix)) < 1e-12
    w = np.linalg.eigvalsh(xxz_pair(0.0).matrix)
    assert w[0] == pytest.approx(-2.0)


def test_max_entangled_projector_spectra():
    for d in (2, 3):
        h = max_entangled_projector_hamiltonian(d)
        w = np.linalg.eigvalsh(h.matrix)
        assert np.allclose(w, [0.0] + [1.0] * (d * d - 1), atol=1e-12)
    ground = eig(max_entangled_projector_hamiltonian(3)).eigenvectors[:, 0]
    assert geometric_overlap(ground, (3, 3)) == pytest.approx(1 / 3, abs=1e-12)
    with pytest.raises(ValueError):
        max_entangled_projector_hamiltonian(1)


def test_symmetric_projector_structure():
    for d in (2, 3):
        h = symmetric_projector_hamiltonian(d)
        assert np.max(np.abs(h.matrix @ h.matrix - h.matrix)) < 1e-12
        expect = (np.eye(d * d) + swap_operator(d)) / 2
        assert np.max(np.abs(h.matrix - expect)) < 1e-12
        s = eig(h)
        assert s.ground_degeneracy == d * (d - 1) // 2
        assert np.count_nonzero(s.eigenvalues > 0.5) == d * (d + 1) // 2


def test_symmetric_projector_product_energy_formula():
    rng = np.random.default_rng(0)
    for d in (2, 4):
        h = symmetric_projector_hamiltonian(d)
        for _ in range(10):
            a = random_state_vector(d, rng)
            b = random_state_vector(d, rng)
            e = h.expectation(np.kron(a, b))
            assert e == pytest.approx((1 + abs(np.vdot(a, b)) ** 2) / 2, abs=1e-12)


def test_ces_dimension_and_antisymmetric_containment():
    for d in (3, 4):
        pi = ces_projector(d)
        rank = int(round(np.real(np.trace(pi))))
        assert rank == (d - 1) ** 2
        anti = (np.eye(d * d) - swap_operator(d)) / 2
        assert np.max(np.abs(pi @ anti - anti)) < 1e-10
    with pytest.raises(ValueError):
        ces_hamiltonian(2)


def test_ces_ground_manifold_has_no_product_state():
    h = ces_hamiltonian(3)
    energy, _ = seesaw_upper(h, restarts=256, seed=0)
    assert energy > 1e-6


def test_choi_hamiltonian_spectrum():
    h = choi_hamiltonian()
    w = np.linalg.eigvalsh(h.matrix)
    assert w[0] == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(w, [-1, 0, 0, 0, 1, 1, 1, 2, 2], atol=1e-12)


def test_tiles_upb_orthonormal_and_hamiltonian():
    states = tiles_upb_states()
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(5))) < 1e-12
    h = upb_hamiltonian("tiles")
    assert np.max(np.abs(h.matrix @ h.matrix - h.matrix)) < 1e-12
    s = eig(h)
    assert s.ground_degeneracy == 4
    with pytest.raises(ValueError):
        upb_hamiltonian("nosuch")


def test_identifier_parsing():
    assert from_identifier("heisenberg").dims == (2, 2)
    assert from_identifier("xy:0.5:1.0").dims == (2, 2)
    assert from_identifier("maxent:3").dims == (3, 3)
    assert from_identifier("symproj:4").dims == (4, 4)
    assert from_identifier("ces:3").dims == (3, 3)
    assert from_identifier("choi").dims == (3, 3)
    assert from_identifier("upb:tiles").dims == (3, 3)
    h = from_identifier("xxz:0.5")
    assert h.dims == (2, 2) and np.array_equal(h.matrix, xxz_pair(0.5).matrix)
    for bad in ("nosuch", "xy:1", "xxz", "upb:zzz"):
        with pytest.raises(ValueError):
            from_identifier(bad)


def test_every_readme_identifier_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"--(model|lattice) ([^\s`]+)", readme)
    assert examples
    for flag, text in examples:
        (from_identifier if flag == "model" else LatticeSpec.from_identifier)(text)
    for table in (MODELS, LATTICES):
        for form, _, _ in table.values():
            assert f"`{form}`" in readme


def test_identifier_file_round_trip(tmp_path):
    from entgap.operators import operator_to_json

    path = tmp_path / "op.json"
    path.write_text(operator_to_json(heisenberg_pair()))
    h = from_identifier(f"file:{path}")
    assert np.max(np.abs(h.matrix - heisenberg_pair().matrix)) < 1e-15
    assert h.dims == (2, 2)


def test_max_entangled_state_normalization():
    for d in (2, 5):
        v = max_entangled_state(d)
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert geometric_overlap(v, (d, d)) == pytest.approx(1 / d, abs=1e-12)
