import numpy as np
import pytest

from entgap.models import (
    choi_hamiltonian,
    from_identifier,
    heisenberg_pair,
    max_entangled_projector_hamiltonian,
    symmetric_projector_hamiltonian,
    upb_hamiltonian,
)
from entgap.lattices import LatticeSpec, assemble
from entgap.operators import HermitianOperator, partial_transpose_matrix
from entgap import sdp
from entgap.separability import ppt_lower
from entgap.sdp import solve_ppt_sdp, solve_ppt_sdp_batch
from helpers import random_hermitian


def random_two_qubit(seed):
    rng = np.random.default_rng(seed)
    return random_hermitian(4, rng)


def werner_witness():
    """Singlet-projector witness 1 - |s><s|; its PPT minimum is 1/2."""
    s = np.zeros(4, dtype=complex)
    s[1], s[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    return np.eye(4) - np.outer(s, s.conj())


def mixed_batch():
    """40 random two-qubit Hamiltonians plus members that stop at other
    iterations than the random ones."""
    return np.array(
        [random_two_qubit(500 + seed) for seed in range(40)]
        + [0.3 * np.eye(4), werner_witness()]
    )


def assert_self_verifying(h, res, dims=(2, 2)):
    """H - value*I = P + Q^{T_A} with P, Q PSD."""
    n = dims[0] * dims[1]
    q, p = res.witness_q, res.witness_p
    assert np.linalg.eigvalsh(q)[0] >= -1e-12
    assert np.linalg.eigvalsh(p)[0] >= -1e-12
    qta = q.reshape(dims + dims).transpose(2, 1, 0, 3).reshape(n, n)
    assert np.max(np.abs(h - res.value * np.eye(n) - p - qta)) < 1e-10


def test_known_values():
    cases = [
        (heisenberg_pair().matrix, (2, 2), -1.0, 1e-8),
        (choi_hamiltonian().matrix, (3, 3), (3 - 2 * np.sqrt(3)) / 3, 1e-6),
        (max_entangled_projector_hamiltonian(3).matrix, (3, 3), 2 / 3, 1e-6),
        (symmetric_projector_hamiltonian(3).matrix, (3, 3), 0.5, 1e-6),
        (upb_hamiltonian().matrix, (3, 3), 0.0, 1e-6),
    ]
    for h, dims, expect, tol in cases:
        res = solve_ppt_sdp(h, dims)
        assert res.converged
        assert res.value == pytest.approx(expect, abs=tol)
        # certified value never exceeds the primal objective materially
        assert res.value <= res.objective + 1e-7


def test_certificate_is_self_verifying():
    """The returned (value, P, Q) must satisfy H - value*I = P + Q^{T_A}
    with both PSD: that is the whole point of certification."""
    for seed in range(8):
        h = random_two_qubit(seed)
        assert_self_verifying(h, solve_ppt_sdp(h, (2, 2)))
    hs = mixed_batch()
    for h, res in zip(hs, solve_ppt_sdp_batch(hs, (2, 2))):
        assert_self_verifying(h, res)


def test_batch_matches_single_solves():
    """Members of a stack stop on their own rules and get what a solve of
    that member alone gets."""
    hs = mixed_batch()
    batch = solve_ppt_sdp_batch(hs, (2, 2))
    assert len(batch) == len(hs)
    assert len({r.iterations for r in batch}) > 1
    for h, res in zip(hs, batch):
        one = solve_ppt_sdp(h, (2, 2))
        assert (res.iterations, res.converged) == (one.iterations, one.converged)
        assert abs(res.value - one.value) <= 1e-12
    assert batch[-2].value == pytest.approx(0.3, abs=1e-8)
    assert batch[-1].value == pytest.approx(0.5, abs=1e-8)
    assert solve_ppt_sdp_batch(np.zeros((0, 4, 4)), (2, 2)) == []


def test_breakdown_retires_only_its_member(monkeypatch):
    """A LinAlgError in one member's step stops that member, which is still
    certified; the rest of the stack runs on unchanged."""
    hs = mixed_batch()[:6]
    broken = hs[2]
    steps_with_broken = []
    real_step = sdp._step

    def failing_step(basis, h, *args):
        if any(np.array_equal(m, broken) for m in h):
            steps_with_broken.append(len(h))
            if len(steps_with_broken) >= 3:
                raise np.linalg.LinAlgError("injected breakdown")
        return real_step(basis, h, *args)

    monkeypatch.setattr(sdp, "_step", failing_step)
    batch = solve_ppt_sdp_batch(hs, (2, 2))
    monkeypatch.undo()
    # third step of the broken member: stacked, then alone on the retry
    assert steps_with_broken[2:] == [6, 1]
    assert batch[2].iterations == 3 and not batch[2].converged
    assert_self_verifying(broken, batch[2])
    assert batch[2].value <= solve_ppt_sdp(broken, (2, 2)).value + 1e-12
    for k in (0, 1, 3, 4, 5):
        one = solve_ppt_sdp(hs[k], (2, 2))
        assert (batch[k].iterations, batch[k].value) == (one.iterations, one.value)


def test_random_two_qubit_contracts():
    for seed in range(50):
        res = solve_ppt_sdp(random_two_qubit(100 + seed), (2, 2))
        assert res.converged
        scale = max(1.0, abs(res.objective))
        assert res.gap <= 1e-7 * scale
        assert res.residuals["primal"] <= 1e-8
        assert res.residuals["dual"] <= 1e-8
        # the primal solution is a PPT state up to tolerance
        rho = res.rho
        assert abs(np.trace(rho).real - 1) < 1e-9
        assert np.linalg.eigvalsh(rho)[0] > -1e-9
        pt = rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        assert np.linalg.eigvalsh(pt)[0] > -1e-7


def test_rectangular_bipartition():
    rng = np.random.default_rng(11)
    h = random_hermitian(6, rng)
    res = solve_ppt_sdp(h, (2, 3))
    assert res.converged
    # PPT minimum cannot lie below the ground energy
    assert res.value >= np.linalg.eigvalsh(h)[0] - 1e-8


def test_input_validation():
    with pytest.raises(ValueError):
        solve_ppt_sdp(np.eye(4), (2, 3))
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        solve_ppt_sdp(bad, (2, 2))
    stack = mixed_batch()
    stack[3] = bad
    with pytest.raises(ValueError, match=r"H\[3\]"):
        solve_ppt_sdp_batch(stack, (2, 2))
    with pytest.raises(ValueError):
        solve_ppt_sdp_batch(np.eye(4), (2, 2))


def test_solve_is_refused_before_allocation_when_it_cannot_fit(monkeypatch):
    # side 4: the basis images take 2*17*16*16 B, each member's Schur
    # matrix and factor 2*17*17*8 B
    basis, member = 2 * 17 * 16 * 16, 2 * 17 * 17 * 8
    monkeypatch.setattr(sdp, "_physical_memory", lambda: basis + 2 * member)
    sdp.check_ppt_fits(4, 2)
    with pytest.raises(ValueError, match="side 4 over 3 member"):
        sdp.check_ppt_fits(4, 3)

    def fail(*args):
        raise AssertionError("_Basis was called")

    monkeypatch.setattr(sdp, "_Basis", fail)
    with pytest.raises(ValueError, match="PPT solve of side 4"):
        solve_ppt_sdp_batch(mixed_batch()[:3], (2, 2))
    # a complex side-128 solve needs 12.9 GB whatever the batch
    complex_h = np.eye(128, dtype=complex)
    complex_h[0, 1], complex_h[1, 0] = 0.5j, -0.5j
    monkeypatch.setattr(sdp, "_physical_memory", lambda: 12 * 10**9)
    with pytest.raises(ValueError, match="side 128"):
        solve_ppt_sdp(complex_h, (8, 16))


def test_real_solve_is_refused_on_the_real_figures(monkeypatch):
    # side 4, real H: m = 4*5/2 + 1 = 11 unknowns, the basis images take
    # 2*11*16*8 B, each member's Schur matrix and factor 2*11*11*8 B
    basis, member = 2 * 11 * 16 * 8, 2 * 11 * 11 * 8
    monkeypatch.setattr(sdp, "_physical_memory", lambda: basis + 2 * member)
    sdp.check_ppt_fits(4, 2, real=True)
    with pytest.raises(ValueError, match="side 4 over 3 member"):
        sdp.check_ppt_fits(4, 3, real=True)
    with pytest.raises(ValueError, match="side 4 over 2 member"):
        sdp.check_ppt_fits(4, 2)

    def fail(*args):
        raise AssertionError("_Basis was called")

    monkeypatch.setattr(sdp, "_Basis", fail)
    with pytest.raises(ValueError, match="side 4 over 3 member"):
        solve_ppt_sdp_batch(np.array([heisenberg_pair().matrix] * 3), (2, 2))
    # a real side-128 solve needs 3.3 GB: it fits in 3.5 GB, not in 3 GB
    monkeypatch.setattr(sdp, "_physical_memory", lambda: 35 * 10**8)
    sdp.check_ppt_fits(128, real=True)
    monkeypatch.setattr(sdp, "_physical_memory", lambda: 3 * 10**9)
    with pytest.raises(ValueError, match="side 128"):
        solve_ppt_sdp(np.eye(128), (8, 16))


def test_werner_family_boundary():
    """Along the Werner line rho(f) for two qubits the PPT minimum of the
    singlet projector witness equals the known separability boundary."""
    res = solve_ppt_sdp(werner_witness(), (2, 2))
    assert res.value == pytest.approx(0.5, abs=1e-8)


def loop_built_images(da, db, real):
    """The A* images of the PPT basis, built one basis element at a time:
    the diagonal units, then the real and (unless ``real``) the imaginary
    off-diagonal pairs in ``triu_indices`` order."""
    n = da * db
    m = n * (n + 1) // 2 if real else n * n
    herm = np.zeros((m, n, n), dtype=float if real else complex)
    idx = 0
    for i in range(n):
        herm[idx, i, i] = 1.0
        idx += 1
    r = 1 / np.sqrt(2)
    iu = np.triu_indices(n, 1)
    for i, j in zip(*iu):
        herm[idx, i, j] = r
        herm[idx, j, i] = r
        idx += 1
    if not real:
        for i, j in zip(*iu):
            herm[idx, i, j] = 1j * r
            herm[idx, j, i] = -1j * r
            idx += 1
    u = np.empty((2, m + 1, n, n), dtype=herm.dtype)
    u[0, 0] = np.eye(n)
    u[1, 0] = 0.0
    u[0, 1:] = partial_transpose_matrix(herm, da, db)
    u[1, 1:] = -herm
    return u


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (4, 4), (2, 16)])
def test_basis_images_are_bitwise_the_loop_build(dims):
    for real in (False, True):
        u = sdp._Basis(*dims, real).u
        reference = loop_built_images(*dims, real)
        assert u.shape == reference.shape and u.dtype == reference.dtype
        assert u.tobytes() == reference.tobytes()


# named models and Heisenberg lattices, all with real matrices
REAL_MODELS = [
    "heisenberg", "choi", "ces:3", "ces:4", "upb:tiles", "maxent:3", "symproj:3",
    "xy:0.3:0.7", "xxz:1.3",
]
REAL_LATTICES = ["star:4", "chain:5"]


def real_model(name):
    if name in REAL_LATTICES:
        return assemble(LatticeSpec.from_identifier(name), heisenberg_pair()).dense
    return from_identifier(name)


def phased(h):
    """H conjugated by the local unitary 1 (x) diag(e^{i phi_k}) on the last
    factor: the same PPT minimum, but complex entries."""
    d = h.dims[-1]
    u = np.kron(np.eye(h.dim // d), np.diag(np.exp(1j * np.linspace(0.3, 2.1, d))))
    return HermitianOperator(u @ h.matrix @ u.conj().T, h.dims)


@pytest.mark.parametrize("name", REAL_MODELS + REAL_LATTICES)
def test_real_path_matches_the_complex_path(name):
    h = real_model(name)
    assert not h.matrix.imag.any()
    real_value, real_res = ppt_lower(h)
    complex_value, complex_res = ppt_lower(phased(h))
    assert real_res.rho.dtype == np.float64
    assert complex_res.rho.dtype == np.complex128
    assert abs(real_value - complex_value) <= 1e-9
    assert real_res.converged == complex_res.converged


@pytest.mark.parametrize("name", REAL_MODELS)
def test_real_path_certificate_is_real_and_self_verifying(name):
    h = from_identifier(name)
    res = solve_ppt_sdp(h.matrix, h.dims)
    for a in (res.rho, res.witness_q, res.witness_p):
        assert a.dtype == np.float64
    assert_self_verifying(h.matrix, res, h.dims)
