import numpy as np
import pytest

from scipy import sparse

from entgap import models
from entgap.lattices import (
    LatticeSpec,
    REFERENCE_ENERGIES,
    assemble,
    star_ground_energy_heisenberg,
)
from entgap.models import SIGMA_X, SIGMA_Y, SIGMA_Z, heisenberg_pair, xxz_pair, xy_pair
from entgap.operators import (
    HermitianOperator,
    MatrixFreeOperator,
    eig,
    lanczos_ground,
    random_state_vector,
)
from helpers import bond_energy_decomposition, check_matrix_free, random_hermitian


def test_generator_bond_counts():
    assert len(LatticeSpec.star(5).bonds) == 5
    assert len(LatticeSpec.ring(8).bonds) == 8
    assert len(LatticeSpec.chain(6).bonds) == 5
    assert len(LatticeSpec.complete(5).bonds) == 10
    assert len(LatticeSpec.triangle().bonds) == 3
    assert len(LatticeSpec.tetrahedron().bonds) == 6


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeSpec(3, 2, ((0, 0),))
    with pytest.raises(ValueError):
        LatticeSpec(3, 2, ((0, 3),))
    with pytest.raises(ValueError):
        LatticeSpec(3, 2, ((0, 1), (1, 0)))


def test_identifier_parsing(tmp_path):
    assert LatticeSpec.from_identifier("star:4") == LatticeSpec.star(4)
    assert LatticeSpec.from_identifier("ring:6").n_sites == 6
    assert LatticeSpec.from_identifier("tetrahedron").n_sites == 4
    path = tmp_path / "lat.json"
    # keys other than n_sites, local_dim and bonds are ignored
    path.write_text('{"n_sites": 4, "local_dim": 2, "bonds": [[0,1],[1,2],[2,3],[3,0]], '
                    '"bipartition": [0, 0, 0, 0]}')
    spec = LatticeSpec.from_identifier(f"file:{path}")
    assert spec == LatticeSpec.ring(4)
    with pytest.raises(ValueError):
        LatticeSpec.from_identifier("moebius:3")


def test_assemble_single_bond_and_triangle_and_ring4():
    h = heisenberg_pair()
    one = assemble(LatticeSpec.chain(2), h)
    assert np.allclose(np.linalg.eigvalsh(one.dense.matrix), [-3, 1, 1, 1])
    tri = eig(assemble(LatticeSpec.triangle(), h).dense)
    assert tri.e0 == pytest.approx(-3.0, abs=1e-10)
    assert tri.e_max == pytest.approx(3.0, abs=1e-10)
    assert tri.ground_degeneracy == 4
    ring4 = eig(assemble(LatticeSpec.ring(4), h).dense)
    assert ring4.e0 == pytest.approx(-8.0, abs=1e-9)


def test_assemble_validation():
    h = heisenberg_pair()
    with pytest.raises(ValueError):
        assemble(LatticeSpec.ring(4, local_dim=3), h)
    with pytest.raises(ValueError):
        assemble(LatticeSpec.ring(30), h)


def kron_embedding(spec, h2):
    """The dense sum, in bond order, of ``h2`` (first factor on the lower
    site) kron the identity on every other site.  Each bond adds ``h2`` in
    place on the view of the sum that the identity's deltas leave: its
    row digits, then the bond's two column digits."""
    n, d = spec.n_sites, spec.local_dim
    total = np.zeros((spec.dim, spec.dim), dtype=h2.dtype)
    rows = "abcdefghijklmnopqrstuvwx"[:n]
    for (i, j) in spec.bonds:
        cols = "".join("y" if k == i else "z" if k == j else rows[k] for k in range(n))
        view = np.einsum(f"{rows}{cols}->{rows}yz", total.reshape((d,) * (2 * n)))
        assert np.shares_memory(view, total)
        shape = [1] * n + [d, d]
        shape[i] = shape[j] = d
        view += h2.reshape(shape)
    return total


@pytest.mark.parametrize("spec", [
    LatticeSpec.ring(5, local_dim=3),  # holds the wrap-around bond (0, 4)
    LatticeSpec.star(3, local_dim=3),
    LatticeSpec.complete(3, local_dim=3),
])
def test_assembly_matches_kron_embedding_oracle(spec):
    rng = np.random.default_rng(3)
    coupling = HermitianOperator(random_hermitian(9, rng), (3, 3))
    n = spec.n_sites
    expected = np.zeros((spec.dim, spec.dim), dtype=complex)
    for (i, j) in spec.bonds:
        # coupling on factors 0, 1 of the kron; move them to sites i, j
        rest = iter(range(2, n))
        order = [0 if k == i else 1 if k == j else next(rest) for k in range(n)]
        embedded = np.kron(coupling.matrix, np.eye(3 ** (n - 2)))
        t = embedded.reshape((3,) * (2 * n)).transpose(order + [n + k for k in order])
        expected += t.reshape(spec.dim, spec.dim)
    np.testing.assert_array_equal(kron_embedding(spec, coupling.matrix), expected)
    asm = assemble(spec, coupling)
    assert np.max(np.abs(asm.dense.matrix - expected)) < 1e-13
    block = rng.standard_normal((spec.dim, 3)) + 1j * rng.standard_normal((spec.dim, 3))
    assert np.max(np.abs(asm.matrix_free.apply(block) - expected @ block)) < 1e-12


def _dm_heisenberg():
    """Heisenberg plus a Dzyaloshinskii-Moriya term: a coupling whose
    off-diagonal entries are complex."""
    dm = np.kron(SIGMA_X, SIGMA_Y) - np.kron(SIGMA_Y, SIGMA_X)
    return HermitianOperator(heisenberg_pair().matrix + 0.5 * dm, (2, 2))


def test_real_couplings_assemble_into_float64_and_dense_is_the_complex_assembly():
    for name in ("heisenberg", "xxz:1.3", "xy:0.3:0.7"):
        coupling = models.from_identifier(name)
        assert assemble(LatticeSpec.ring(5), coupling).matrix.dtype == np.float64
    assert assemble(LatticeSpec.ring(5), _dm_heisenberg()).matrix.dtype == np.complex128
    for spec in (LatticeSpec.star(4), LatticeSpec.ring(9), LatticeSpec.complete(4)):
        for coupling in (heisenberg_pair(), xxz_pair(1.3), xy_pair(0.3, 0.7)):
            expected = HermitianOperator(kron_embedding(spec, coupling.matrix), (2,) * spec.n_sites)
            got = assemble(spec, coupling).dense.matrix
            assert got.dtype == np.complex128
            assert got.tobytes() == expected.matrix.tobytes()


def test_real_lanczos_matches_the_complex_solve_of_the_same_matrix():
    asm = assemble(LatticeSpec.ring(12), xxz_pair(1.3))
    real = MatrixFreeOperator(asm.spec.dim, asm.matrix.__matmul__)
    as_complex = MatrixFreeOperator(asm.spec.dim, asm.matrix.astype(complex).__matmul__)
    (e_r, v_r), (e_c, v_c) = lanczos_ground(real), lanczos_ground(as_complex)
    assert v_r.dtype == np.float64 and v_c.dtype == np.complex128
    assert abs(e_r - e_c) <= 1e-12
    for e, v in ((e_r, v_r), (e_c, v_c)):
        assert np.linalg.norm(asm.matrix @ v - e * v) <= 1e-10


@pytest.mark.parametrize("coupling", [xxz_pair(1.3), _dm_heisenberg()], ids=["real", "complex"])
def test_lanczos_is_bitwise_the_same_on_an_operator_rebuilt_from_its_apply(coupling):
    # a wrapper that keeps only dimension, apply and dims (as a tracer that
    # counts matvecs does) must take the same path as the original
    op = assemble(LatticeSpec.ring(10), coupling).matrix_free
    rebuilt = MatrixFreeOperator(op.dimension, lambda v: op.apply(v), op.dims)
    e, v = lanczos_ground(op)
    for e2, v2 in (lanczos_ground(rebuilt), lanczos_ground(op)):
        assert e2 == e and v2.dtype == v.dtype and v2.tobytes() == v.tobytes()


def test_matrix_free_agrees_with_dense():
    rng = np.random.default_rng(0)
    asm = assemble(LatticeSpec.ring(5), xy_pair(0.7, 0.3))
    check_matrix_free(asm.matrix_free, rng)
    for _ in range(5):
        v = random_state_vector(asm.spec.dim, rng)
        assert np.linalg.norm(asm.matrix_free.apply(v) - asm.dense.matrix @ v) < 1e-10


def test_product_energy_is_sum_of_pair_expectations():
    rng = np.random.default_rng(1)
    h = heisenberg_pair()
    spec = LatticeSpec.ring(5)
    asm = assemble(spec, h)
    for _ in range(5):
        locals_ = [random_state_vector(2, rng) for _ in range(spec.n_sites)]
        full = locals_[0]
        for v in locals_[1:]:
            full = np.kron(full, v)
        total = asm.dense.expectation(full)
        pair_sum = sum(
            h.expectation(np.kron(locals_[i], locals_[j])) for (i, j) in spec.bonds
        )
        assert abs(total - pair_sum) < 1e-10


def test_star_formula_against_exact_diagonalization():
    h = heisenberg_pair()
    for k in range(1, 11):
        asm = assemble(LatticeSpec.star(k), h)
        e0 = np.linalg.eigvalsh(asm.dense.matrix)[0]
        assert abs(e0 - star_ground_energy_heisenberg(k)) < 1e-8
    with pytest.raises(ValueError):
        star_ground_energy_heisenberg(0)


def test_ring_energy_per_bond_above_star2():
    h = heisenberg_pair()
    star2 = star_ground_energy_heisenberg(2) / 2
    for n in (4, 6, 8, 10):
        asm = assemble(LatticeSpec.ring(n), h)
        if asm.dense is not None and asm.spec.dim <= 1024:
            e0 = np.linalg.eigvalsh(asm.dense.matrix)[0]
        else:
            e0, _ = lanczos_ground(asm.matrix_free, tol=1e-9)
        assert e0 / n >= star2 - 1e-9


def test_lanczos_residual_is_absolute_on_ring14():
    # |E0| is about 25 here, so a residual relative to |E0| would miss tol
    asm = assemble(LatticeSpec.ring(14), heisenberg_pair())
    e, vec = lanczos_ground(asm.matrix_free, tol=1e-10)
    assert e < -24
    assert np.linalg.norm(asm.matrix_free.apply(vec) - e * vec) <= 1e-10


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("delta", [1.1, 1.5])
def test_lanczos_matches_eigsh_on_xxz_rings(n, delta):
    # ring:15's ground level is degenerate (S^z = +-1/2 and momenta +-k)
    from scipy.sparse.linalg import eigsh

    asm = assemble(LatticeSpec.ring(n), xxz_pair(delta))
    e, vec = lanczos_ground(asm.matrix_free, tol=1e-10)
    oracle = eigsh(asm.matrix, k=1, which="SA", tol=1e-13)[0][0]
    assert abs(e - oracle) <= 1e-9
    assert np.linalg.norm(asm.matrix @ vec - e * vec) <= 1e-10


def test_lanczos_keeps_a_complex_coupling_complex():
    from scipy.sparse.linalg import eigsh

    asm = assemble(LatticeSpec.ring(10), _dm_heisenberg())
    e, vec = lanczos_ground(asm.matrix_free, tol=1e-10)
    assert vec.dtype == np.complex128 and np.abs(vec.imag).max() > 1e-3
    assert abs(e - eigsh(asm.matrix, k=1, which="SA", tol=1e-13)[0][0]) <= 1e-9
    assert np.linalg.norm(asm.matrix @ vec - e * vec) <= 1e-10


def test_dense_form_is_built_only_when_read():
    import tracemalloc

    asm = assemble(LatticeSpec.ring(12), heisenberg_pair())
    lanczos_ground(asm.matrix_free)
    assert "dense" not in asm.__dict__
    small = assemble(LatticeSpec.ring(4), heisenberg_pair())
    assert small.dense is small.dense
    big = assemble(LatticeSpec.ring(14), heisenberg_pair())
    tracemalloc.start()
    try:
        assert big.dense is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_bond_energy_decomposition_ring4():
    h = heisenberg_pair()
    asm = assemble(LatticeSpec.ring(4), h)
    spectrum = eig(asm.dense)
    ground = spectrum.eigenvectors[:, 0]
    rho = HermitianOperator(np.outer(ground, ground.conj()), asm.matrix_free.dims)
    energies = bond_energy_decomposition(asm, rho)
    assert np.allclose(energies, [-2.0] * 4, atol=1e-9)
    up = np.zeros(16, dtype=complex)
    up[0] = 1.0
    rho_up = HermitianOperator(np.outer(up, up.conj()), asm.matrix_free.dims)
    assert np.allclose(bond_energy_decomposition(asm, rho_up), [1.0] * 4, atol=1e-12)


def test_bond_energy_decomposition_sums_to_total():
    rng = np.random.default_rng(2)
    h = heisenberg_pair()
    asm = assemble(LatticeSpec.ring(4), h)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    rho_m = a @ a.conj().T
    rho_m /= np.trace(rho_m).real
    rho = HermitianOperator(rho_m, asm.matrix_free.dims)
    energies = bond_energy_decomposition(asm, rho)
    total = float(np.real(np.vdot(asm.dense.matrix.conj().T, rho_m)))
    assert abs(sum(energies) - total) < 1e-10


def test_bond_energy_decomposition_rejects_non_density():
    h = heisenberg_pair()
    asm = assemble(LatticeSpec.chain(2), h)
    with pytest.raises(ValueError):
        bond_energy_decomposition(
            asm, HermitianOperator(np.eye(4), (2, 2))  # trace 4
        )
    bad = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        bond_energy_decomposition(asm, HermitianOperator(bad, (2, 2)))


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec.ring(9), LatticeSpec.ring(10), LatticeSpec.star(5), LatticeSpec.complete(5)],
    ids=["ring9", "ring10", "star5", "complete5"],
)
def test_half_filled_sector_holds_the_heisenberg_extremes(spec):
    asm = assemble(spec, heisenberg_pair())
    up = spec.n_sites // 2
    keep = [s for s in range(spec.dim) if bin(s).count("1") == up]
    op = asm.sector(up)
    assert op.dimension == len(keep)
    block = op.apply(np.eye(len(keep)))
    np.testing.assert_array_equal(block, asm.matrix.toarray()[np.ix_(keep, keep)])
    w = np.linalg.eigvalsh(block)
    spectrum = eig(asm.dense)
    assert w[0] == pytest.approx(spectrum.e0, abs=1e-12)
    assert w[-1] == pytest.approx(spectrum.e_max, abs=1e-12)


SECTOR_LATTICES = [f"ring:{n}" for n in range(4, 13)] + ["chain:9", "star:6", "complete:6", "file"]


def _spec(lattice, tmp_path):
    if lattice == "file":  # bonds between non-adjacent sites, one listed j < i
        path = tmp_path / "lattice.json"
        path.write_text('{"n_sites": 7, "local_dim": 2, '
                        '"bonds": [[0, 4], [5, 2], [1, 6], [3, 0], [2, 6]]}')
        lattice = f"file:{path}"
    return LatticeSpec.from_identifier(lattice)


def _coupling(name):
    return _dm_heisenberg() if name == "dm" else models.from_identifier(name)


@pytest.mark.parametrize(
    "coupling", ["heisenberg", "xxz:1.3", "xxz:-0.7", "xy:0.3:0.7", "xy:0:0.7", "dm"])
@pytest.mark.parametrize("lattice", SECTOR_LATTICES + ["star:4", "complete:4"])
def test_matrix_has_the_csr_arrays_of_the_dense_kron_embedding(lattice, coupling, tmp_path):
    spec, op = _spec(lattice, tmp_path), _coupling(coupling)
    want = sparse.csr_array(kron_embedding(spec, op.matrix if coupling == "dm" else op.matrix.real))
    got = assemble(spec, op).matrix
    for name in ("data", "indices", "indptr"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("spec", [LatticeSpec.star(4), LatticeSpec.complete(4)],
                         ids=["star4", "complete4"])
def test_one_site_terms_of_several_bonds_sum_into_one_entry(spec):
    # X on the lower site: on star:4 all four bonds put it on the center
    h2 = (np.kron(SIGMA_Z, SIGMA_Z) + 0.3 * np.kron(SIGMA_X, np.eye(2))).real
    matrix = assemble(spec, HermitianOperator(h2, (2, 2))).matrix
    assert np.max(np.abs(matrix.toarray() - kron_embedding(spec, h2))) <= 1e-13
    assert matrix.has_canonical_format and np.all(matrix.data != 0)


def test_one_site_terms_that_cancel_leave_no_stored_zero():
    # X0 - X1 + X1 - X2: the site-1 terms cancel, X0 and X2 keep 8 entries each
    h2 = (np.kron(SIGMA_X, np.eye(2)) - np.kron(np.eye(2), SIGMA_X)).real
    matrix = assemble(LatticeSpec.chain(3), HermitianOperator(h2, (2, 2))).matrix
    assert matrix.nnz == 16 and np.all(matrix.data != 0)
    np.testing.assert_array_equal(matrix.toarray(), kron_embedding(LatticeSpec.chain(3), h2))


def test_sector_holds_at_most_two_and_a_half_blocks_while_building_one():
    import tracemalloc

    asm = assemble(LatticeSpec.ring(18), xxz_pair(1.3))
    tracemalloc.start()
    try:
        block = asm.sector(9).apply.__self__
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = block.data.nbytes + block.indices.nbytes + block.indptr.nbytes
    assert block.shape == (48620, 48620)
    assert peak <= 2.5 * size, (peak, size)


@pytest.mark.parametrize("coupling", ["heisenberg", "xxz:1.3", "xxz:-0.7", "xy:0:0.7", "dm"])
@pytest.mark.parametrize("lattice", SECTOR_LATTICES)
def test_sector_blocks_are_built_from_the_bonds_into_the_sliced_csr_arrays(
        lattice, coupling, tmp_path):
    spec = _spec(lattice, tmp_path)
    asm = assemble(spec, _coupling(coupling))
    blocks = [asm.sector(up).apply.__self__ for up in range(spec.n_sites + 1)]
    assert "matrix" not in asm.__dict__
    ones = np.array([bin(s).count("1") for s in range(spec.dim)])
    for up, block in enumerate(blocks):
        keep = np.flatnonzero(ones == up)
        sliced = asm.matrix[keep][:, keep]
        for name in ("data", "indices", "indptr"):
            got, want = getattr(block, name), getattr(sliced, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (up, name)


def test_sector_refuses_what_has_no_sectors():
    rng = np.random.default_rng(0)
    qutrits = HermitianOperator(random_hermitian(9, rng), (3, 3))
    with pytest.raises(ValueError, match="qubit"):
        assemble(LatticeSpec.ring(3, local_dim=3), qutrits).sector(1)
    # gamma != 0 couples 00 with 11
    with pytest.raises(ValueError, match="number of 1s"):
        assemble(LatticeSpec.ring(4), xy_pair(0.3, 0.7)).sector(2)
    ring = assemble(LatticeSpec.ring(4), heisenberg_pair())
    for up in (-1, 5):
        with pytest.raises(ValueError, match="up must lie"):
            ring.sector(up)
    assert ring.sector(4).dimension == 1


def test_reference_energy_table_values():
    assert REFERENCE_ENERGIES["kagome"]["e0_per_bond"] == -0.874
    assert REFERENCE_ENERGIES["cubic"]["source"] == "spin-wave"
    assert set(REFERENCE_ENERGIES) == {
        "hexagonal", "square", "cubic", "kagome", "triangular", "checkerboard",
    }
