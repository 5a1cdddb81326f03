import json
import warnings

import numpy as np
import pytest

from entgap.operators import (
    HermitianOperator,
    LanczosError,
    MatrixFreeOperator,
    eig,
    lanczos_ground,
    operator_from_json,
    operator_to_json,
    partial_transpose_matrix,
    random_state_vector,
)
from entgap.models import SIGMA_X, SIGMA_Y, SIGMA_Z, heisenberg_pair, singlet
from helpers import check_matrix_free, partial_trace, random_hermitian


def op2(matrix):
    return HermitianOperator(matrix, (2,))


def test_constructor_validates_dims_and_shape():
    with pytest.raises(ValueError):
        HermitianOperator(np.eye(4), ())
    with pytest.raises(ValueError):
        HermitianOperator(np.eye(4), (2, 3))
    with pytest.raises(ValueError):
        HermitianOperator(np.eye(4), (1, 4))


def test_constructor_symmetrizes_small_asymmetry_and_rejects_large():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-12
    h = op2(m)
    assert np.allclose(h.matrix, h.matrix.conj().T)
    m[0, 1] = 1e-6
    with pytest.raises(ValueError):
        op2(m)


def test_blocked_symmetrization_is_bitwise_the_full_size_formula():
    # side 512 runs in several row blocks
    rng = np.random.default_rng(4)
    m = random_hermitian(512, rng) + 1e-12 * random_hermitian(512, rng) * 1j
    m[3, 3] += 1e-12j
    before = m.copy()
    h = HermitianOperator(m, (2,) * 9)
    assert h.matrix.tobytes() == ((m + m.conj().T) / 2).tobytes()
    assert np.array_equal(m, before) and h.matrix is not m
    # the largest asymmetry and a non-finite entry sit in the last block
    m[511, 0] += 1e-6
    with pytest.raises(ValueError, match=f"asymmetry {np.max(np.abs(m - m.conj().T)):.3e}"):
        HermitianOperator(m, (2,) * 9)
    m[511, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        HermitianOperator(m, (2,) * 9)


def test_operator_is_immutable():
    h = op2(np.eye(2))
    with pytest.raises(AttributeError):
        h.dims = (4,)
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 5.0


def test_kron_identity_and_pauli():
    assert np.allclose(HermitianOperator(np.kron(np.eye(2), np.eye(2)), (2, 2)).matrix, np.eye(4))
    zz = HermitianOperator(np.kron(SIGMA_Z, SIGMA_Z), (2, 2))
    assert sorted(np.linalg.eigvalsh(zz.matrix)) == pytest.approx([-1, -1, 1, 1])


def test_kron_heisenberg_spectrum():
    total = HermitianOperator(
        np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z),
        (2, 2),
    )
    assert np.allclose(np.linalg.eigvalsh(total.matrix), [-3, 1, 1, 1])


def test_partial_transpose_involution_trace_hermiticity():
    rng = np.random.default_rng(0)
    inputs = [random_hermitian(6, rng) for _ in range(10)]
    inputs.append(np.array([random_hermitian(6, rng) for _ in range(3)]))  # a stack
    for h in inputs:
        pt = partial_transpose_matrix(h, 2, 3)
        assert pt.shape == h.shape
        assert np.max(np.abs(partial_transpose_matrix(pt, 2, 3) - h)) < 1e-12
        trace = np.trace(h, axis1=-2, axis2=-1)
        assert np.max(np.abs(np.trace(pt, axis1=-2, axis2=-1) - trace)) < 1e-12
        assert np.max(np.abs(pt - pt.conj().swapaxes(-1, -2))) < 1e-12


def test_partial_transpose_transposes_the_first_factor_of_each_member():
    rng = np.random.default_rng(5)
    pairs = [(random_hermitian(2, rng), random_hermitian(3, rng)) for _ in range(3)]
    stack = np.array([np.kron(a, b) for a, b in pairs])
    expected = np.array([np.kron(a.T, b) for a, b in pairs])
    assert np.array_equal(partial_transpose_matrix(stack, 2, 3), expected)
    assert np.array_equal(partial_transpose_matrix(stack[0], 2, 3), expected[0])


def test_partial_transpose_product_state_stays_positive():
    rng = np.random.default_rng(1)
    a = random_state_vector(2, rng)
    b = random_state_vector(2, rng)
    rho = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
    pt = partial_transpose_matrix(rho, 2, 2)
    assert np.linalg.eigvalsh(pt)[0] > -1e-12


def test_partial_transpose_singlet_min_eigenvalue():
    s = singlet()
    w = np.linalg.eigvalsh(partial_transpose_matrix(np.outer(s, s.conj()), 2, 2))
    assert w[0] == pytest.approx(-0.5, abs=1e-12)


def test_partial_trace_product_and_marginal():
    rng = np.random.default_rng(2)
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    ab = HermitianOperator(np.kron(a, b), (2, 3))
    got = partial_trace(ab, [0])
    assert np.max(np.abs(got.matrix - a * np.trace(b))) < 1e-12
    # maximally entangled marginal is maximally mixed
    phi = np.zeros(4, dtype=complex)
    phi[[0, 3]] = 1 / np.sqrt(2)
    rho = HermitianOperator(np.outer(phi, phi.conj()), (2, 2))
    marg = partial_trace(rho, [0])
    assert np.max(np.abs(marg.matrix - np.eye(2) / 2)) < 1e-12


def test_partial_trace_validates_keep():
    h = HermitianOperator(np.eye(4), (2, 2))
    with pytest.raises(ValueError):
        partial_trace(h, [])
    with pytest.raises(ValueError):
        partial_trace(h, [2])


def test_eig_reconstruction_random():
    rng = np.random.default_rng(4)
    for n in (8, 64, 256):
        h = HermitianOperator(random_hermitian(n, rng), (n,))
        s = eig(h)
        rebuilt = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
        rel = np.linalg.norm(rebuilt - h.matrix) / np.linalg.norm(h.matrix)
        assert rel < 1e-9
        assert np.all(np.diff(s.eigenvalues) >= 0)


def test_eig_degeneracy_and_projector_spectra():
    phi = np.zeros(4, dtype=complex)
    phi[[0, 3]] = 1 / np.sqrt(2)
    h = HermitianOperator(np.eye(4) - np.outer(phi, phi.conj()), (2, 2))
    s = eig(h)
    assert np.allclose(s.eigenvalues, [0, 1, 1, 1], atol=1e-12)
    assert s.ground_degeneracy == 1


def test_eig_rejects_oversize(monkeypatch):
    import entgap.operators as operators

    monkeypatch.setattr(operators, "DENSE_CUTOFF", 4)
    h = HermitianOperator(np.eye(8), (2, 2, 2))
    with pytest.raises(ValueError):
        eig(h)


def test_matrix_free_check_passes_and_detects_violation():
    m = heisenberg_pair().matrix
    check_matrix_free(MatrixFreeOperator(dimension=4, apply=lambda v: m @ v),
                      np.random.default_rng(0))
    bad = MatrixFreeOperator(dimension=4, apply=lambda v: v * np.arange(4) + 1.0)
    with pytest.raises(ValueError):
        check_matrix_free(bad, np.random.default_rng(0))


def test_lanczos_identity_operator():
    op = MatrixFreeOperator(dimension=16, apply=lambda v: v.copy())
    e, vec = lanczos_ground(op, tol=1e-10)
    assert e == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(op.apply(vec) - e * vec) < 1e-10
    # every vector is an eigenvector here, so the seeded start vector is returned
    assert np.array_equal(lanczos_ground(op, tol=1e-10)[1], vec)


def test_lanczos_matches_dense_on_random_hermitian():
    rng = np.random.default_rng(5)
    for n in (32, 257):
        m = random_hermitian(n, rng)
        op = MatrixFreeOperator(dimension=n, apply=lambda v, m=m: m @ v)
        e, vec = lanczos_ground(op, tol=1e-9, seed=1)
        assert vec.dtype == np.complex128
        w = np.linalg.eigvalsh(m)[0]
        assert abs(e - w) < 1e-8
        assert np.linalg.norm(m @ vec - e * vec) < 1e-8


def test_lanczos_matches_dense_on_sparse_4096():
    import scipy.sparse as sp

    rng = np.random.default_rng(6)
    n = 4096
    a = sp.random(n, n, density=0.002, random_state=9, data_rvs=rng.standard_normal)
    m = ((a + a.T) / 2).tocsr()
    op = MatrixFreeOperator(dimension=n, apply=lambda v: m @ v)
    e, _ = lanczos_ground(op, tol=1e-9, seed=3)
    w = sp.linalg.eigsh(m, k=1, which="SA", tol=1e-12)[0][0]
    assert abs(e - w) < 1e-8


def test_lanczos_reports_residual_on_iteration_cap():
    rng = np.random.default_rng(7)
    m = random_hermitian(64, rng)
    op = MatrixFreeOperator(dimension=64, apply=lambda v: m @ v)
    with pytest.raises(LanczosError) as err:
        lanczos_ground(op, tol=1e-14, max_iter=5)
    assert err.value.residual < np.inf
    with pytest.raises(ValueError):
        lanczos_ground(op, tol=0.0)


class _Counted:
    """A diagonal operator whose applications are counted."""

    def __init__(self, diagonal):
        self.diagonal, self.calls = np.asarray(diagonal, dtype=float), 0
        self.op = MatrixFreeOperator(len(self.diagonal), self.apply)

    def apply(self, v):
        self.calls += 1
        return self.diagonal * v


def test_lanczos_max_iter_counts_the_applications_of_both_passes():
    d = _Counted(np.linspace(0.0, 10.0, 400))
    e, vec = lanczos_ground(d.op, tol=1e-8)
    used = d.calls - 1  # the first call only tells a real operator from a complex one
    assert abs(e) < 1e-8 and np.linalg.norm(d.diagonal * vec - e * vec) <= 1e-8
    assert np.array_equal(lanczos_ground(d.op, tol=1e-8, max_iter=used)[1], vec)
    # ``used`` covers the checks of the start and Ritz vectors and both
    # passes; a cap one below it cuts the last check short
    d.calls = 0
    with pytest.raises(LanczosError) as err:
        lanczos_ground(d.op, tol=1e-8, max_iter=used - 1)
    assert d.calls == used and np.isfinite(err.value.residual)
    assert err.value.residual > 1e-8


def test_lanczos_restarts_from_its_ritz_vector_on_a_clustered_spectrum():
    # three lowest levels 1e-8 apart under a spread of 37 others: in floating
    # point the recurrence runs to j = n with the cluster unresolved, so the
    # explicit residual check sends the solve round again
    n = 40
    d = _Counted(np.concatenate([[0.0, 1e-8, 2e-8], np.linspace(1.0, 100.0, n - 3)]))
    e, vec = lanczos_ground(d.op, tol=1e-10)
    # one round is at most the check of the start vector, n steps per pass
    # and the check of the Ritz vector
    assert d.calls - 1 > 2 * n + 2
    assert abs(e) < 1e-9
    assert np.linalg.norm(d.diagonal * vec - e * vec) <= 1e-10


@pytest.mark.parametrize("n", range(3, 9))
def test_lanczos_stops_on_an_invariant_subspace(n):
    # two distinct levels: the Krylov space of any start vector has
    # dimension 2, so the recurrence breaks down (beta ~ 1e-16) at j = 2
    d = _Counted([-1.0] * (n // 2) + [2.0] * (n - n // 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by the vanishing beta
        e, vec = lanczos_ground(d.op, tol=1e-12, seed=n)
    assert abs(e + 1.0) <= 1e-12
    assert np.linalg.norm(d.diagonal * vec - e * vec) <= 1e-12
    assert d.calls - 1 <= 6


def test_json_round_trip_and_validation():
    h = heisenberg_pair()
    text = operator_to_json(h)
    back = operator_from_json(text)
    assert back.dims == h.dims
    assert np.max(np.abs(back.matrix - h.matrix)) < 1e-15
    payload = json.loads(text)
    payload["matrix"][0][1] = [1.0, 0.0]  # break Hermiticity
    with pytest.raises(ValueError):
        operator_from_json(json.dumps(payload))
    with pytest.raises(ValueError):
        operator_from_json(json.dumps({"dims": [2, 2]}))
