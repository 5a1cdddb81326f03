import numpy as np
import pytest

from entgap.lattices import LatticeSpec, assemble
from entgap.models import (
    from_identifier,
    heisenberg_pair,
    max_entangled_projector_hamiltonian,
    max_entangled_state,
    symmetric_projector_hamiltonian,
    upb_hamiltonian,
    xy_pair,
)
from entgap.operators import (
    HermitianOperator,
    eig,
    random_state_vector,
    random_unitary,
)
from entgap.separability import (
    DEGENERATE_SPLIT,
    MAX_SWEEPS,
    SEESAW_CONVERGENCE,
    ProductState,
    _product_energies,
    build_witness,
    entanglement_gap,
    ppt_lower,
    seesaw_upper,
    sep_bracket,
)
from entgap.sdp import solve_ppt_sdp
from helpers import bond_energy_decomposition, geometric_overlap, random_hermitian


def random_two_qubit(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return HermitianOperator(random_hermitian(4, rng, scale=scale), (2, 2))


def test_seesaw_heisenberg_orthogonal_factors():
    e, state = seesaw_upper(heisenberg_pair(), restarts=16, seed=0)
    assert e == pytest.approx(-1.0, abs=1e-10)
    assert abs(np.vdot(state.locals[0], state.locals[1])) < 1e-6


def test_seesaw_symmetric_projector_half():
    for d in range(2, 7):
        e, _ = seesaw_upper(symmetric_projector_hamiltonian(d), restarts=16, seed=0)
        assert e == pytest.approx(0.5, abs=1e-8)


def test_seesaw_triangle_mercedes():
    asm = assemble(LatticeSpec.triangle(), heisenberg_pair())
    e, state = seesaw_upper(asm.dense, restarts=32, seed=0)
    assert e == pytest.approx(-1.5, abs=1e-9)
    # pairwise Bloch vectors sit at 120 degrees: every pair expectation -1/2
    # (the optimum manifold is energy-flat, so factors land within ~1e-4
    # of it when the total energy converges to 1e-12)
    for i, j in ((0, 1), (1, 2), (0, 2)):
        pair = np.kron(state.locals[i], state.locals[j])
        assert heisenberg_pair().expectation(pair) == pytest.approx(-0.5, abs=1e-6)


def test_seesaw_energy_trace_non_increasing():
    for seed in range(5):
        h = random_two_qubit(seed)
        _, _, run = seesaw_upper(h, restarts=4, seed=seed, return_trace=True)
        diffs = np.diff(np.asarray(run.steps))
        assert np.all(diffs <= 1e-12)


def test_seesaw_reports_every_restarts_sweeps_and_the_capped_ones():
    """On Choi's degenerate product manifold four of sixteen restarts crawl
    to the sweep cap; the run says which, and the winner is not one of them."""
    h = from_identifier("choi")
    energy, _, run = seesaw_upper(h, restarts=16, seed=0, return_trace=True)
    capped = [r for r, n in enumerate(run.sweeps) if n == MAX_SWEEPS]
    assert capped == [1, 2, 12, 14]
    assert all(12 <= n <= 17 for r, n in enumerate(run.sweeps) if r not in capped)
    assert run.sweeps == (15, 500, 500, 12, 15, 13, 17, 13, 13, 16, 14, 15, 500, 14, 500, 15)
    assert run.best == 5
    assert run.best not in capped and run.energies[run.best] == energy
    assert len(run.steps) == run.sweeps[run.best] * 2
    assert np.all(np.diff(np.asarray(run.steps)) <= 1e-12)


def _reference_restart(h, seed, restart):
    """One seesaw restart, one factor at a time: the loop the batched
    ``seesaw_upper`` replaced.  Returns its exact energy and sweep count."""
    dims, k = h.dims, h.n_subsystems
    letters = "abcdefghijklmnopqrstuvwxyz"
    bra, ket = letters[:k], letters[k : 2 * k]
    h_tensor = h.matrix.reshape(dims + dims)
    rng = np.random.default_rng((seed, restart))
    vecs = [random_state_vector(d, rng) for d in dims]
    e_prev = np.inf
    for sweep in range(1, MAX_SWEEPS + 1):
        for s in range(k):
            operands, subs = [h_tensor], [bra + ket]
            for j in range(k):
                if j != s:
                    operands += [vecs[j].conj(), vecs[j]]
                    subs += [bra[j], ket[j]]
            m = np.einsum(",".join(subs) + "->" + bra[s] + ket[s], *operands, optimize="greedy")
            w, v = np.linalg.eigh((m + m.conj().T) / 2)
            g = int(np.count_nonzero(w <= w[0] + DEGENERATE_SPLIT))
            new = v[:, 0]
            if g > 1:
                proj = v[:, :g] @ (v[:, :g].conj().T @ vecs[s])
                if np.linalg.norm(proj) > 1e-8:
                    new = proj / np.linalg.norm(proj)
            vecs[s], e_now = new, w[0]
        if e_prev - e_now < SEESAW_CONVERGENCE:
            break
        e_prev = e_now
    return ProductState(tuple(vecs)).energy(h), sweep


def _random_operator(dims, seed):
    rng = np.random.default_rng(seed)
    return HermitianOperator(random_hermitian(int(np.prod(dims)), rng), dims)


@pytest.mark.parametrize(
    "build, restarts",
    [
        (lambda: from_identifier("choi"), 16),
        (lambda: from_identifier("ces:4"), 16),
        (lambda: from_identifier("upb:tiles"), 16),
        (lambda: from_identifier("heisenberg"), 16),
        (lambda: _random_operator((2, 4), 5), 16),
        (lambda: _random_operator((3, 4), 6), 16),
        (lambda: assemble(LatticeSpec.complete(3), heisenberg_pair()).dense, 16),
        (lambda: assemble(LatticeSpec.star(4), heisenberg_pair()).dense, 16),
        (lambda: from_identifier("choi"), 1),
        # every ground level is degenerate here, so each update takes the tie-break
        (lambda: from_identifier("symproj:3"), 16),
    ],
    ids=["choi", "ces4", "upb", "heisenberg", "rand2x4", "rand3x4", "complete3", "star4",
         "choi-one-restart", "symproj3"],
)
def test_batched_seesaw_matches_one_restart_at_a_time(build, restarts):
    h = build()
    reference = [_reference_restart(h, 0, r) for r in range(restarts)]
    energy, _, run = seesaw_upper(h, restarts=restarts, seed=0, return_trace=True)
    assert run.sweeps == tuple(n for _, n in reference)
    for (e_ref, _), e in zip(reference, run.energies):
        assert e == pytest.approx(e_ref, abs=1e-12)
    # restarts that reach one optimum tie within roundoff, and either may
    # win; a restart that wins by more than the tolerance wins in both
    e_min = min(e for e, _ in reference)
    winners = [r for r, (e, _) in enumerate(reference) if e <= e_min + 1e-12]
    assert run.best in winners and energy == run.energies[run.best]


@pytest.mark.parametrize(
    "build, restarts",
    [
        (lambda: from_identifier("choi"), 16),
        (lambda: from_identifier("choi"), 1),
        (lambda: from_identifier("ces:4"), 8),
        (lambda: _random_operator((3, 4), 6), 16),
        (lambda: assemble(LatticeSpec.star(4), heisenberg_pair()).dense, 16),
        (lambda: assemble(LatticeSpec.ring(5), heisenberg_pair()).dense, 1),
    ],
    ids=["choi", "choi-one-restart", "ces4", "rand3x4", "star4", "ring5-one-restart"],
)
def test_stacked_product_energies_are_bitwise_the_per_restart_ones(build, restarts):
    h = build()
    rng = np.random.default_rng(3)
    factors = [np.array([random_state_vector(d, rng) for _ in range(restarts)])
               for d in h.dims]
    per_restart = [ProductState(tuple(f[r] for f in factors)).energy(h)
                   for r in range(restarts)]
    assert _product_energies(h, factors) == per_restart
    energy, state, run = seesaw_upper(h, restarts=restarts, seed=0, return_trace=True)
    assert state.energy(h) == energy == run.energies[run.best]
    assert len(run.energies) == restarts


def test_seesaw_validation():
    with pytest.raises(ValueError):
        seesaw_upper(HermitianOperator(np.eye(4), (4,)))
    with pytest.raises(ValueError):
        seesaw_upper(heisenberg_pair(), restarts=0)


def test_ppt_equals_seesaw_for_two_qubits_200():
    """PPT is exact for 2x2, so the bracket closes to 1e-6 there."""
    worst = 0.0
    for seed in range(200):
        h = random_two_qubit(seed)
        up, _ = seesaw_upper(h, restarts=12, seed=seed)
        lo, _ = ppt_lower(h)
        assert lo <= up + 1e-7
        worst = max(worst, abs(up - lo))
    assert worst <= 1e-6


def test_bracket_validity_on_models():
    for h in (
        heisenberg_pair(),
        xy_pair(0.3, 1.1),
        max_entangled_projector_hamiltonian(3),
        symmetric_projector_hamiltonian(3),
        upb_hamiltonian(),
    ):
        b = sep_bracket(h, restarts=16, seed=1)
        assert b.lower <= b.upper + 1e-7
        assert b.upper == pytest.approx(b.witness_state.energy(h), abs=1e-12)


def test_upb_relaxation_gap_exceeds_percent():
    b = sep_bracket(upb_hamiltonian(), restarts=64, seed=0)
    assert b.upper - b.lower > 0.01
    # golden number: the Tiles complement keeps product states this far out
    assert b.upper == pytest.approx(0.028416213336, abs=1e-6)
    assert b.lower == pytest.approx(0.0, abs=1e-6)


def test_gap_report_heisenberg():
    rep = entanglement_gap(heisenberg_pair(), restarts=16, seed=0)
    assert rep.e0 == pytest.approx(-3.0, abs=1e-10)
    assert rep.e_max == pytest.approx(1.0, abs=1e-10)
    assert rep.gap_lower == pytest.approx(2.0, abs=1e-7)
    assert rep.gap_upper == pytest.approx(2.0, abs=1e-10)
    assert rep.scaled_gap_upper == pytest.approx(0.5, abs=1e-10)
    assert rep.witness_offset == rep.sep.lower


def test_gap_report_maximal_family_scaled():
    for d in range(2, 5):
        rep = entanglement_gap(
            max_entangled_projector_hamiltonian(d), restarts=12, seed=0
        )
        assert rep.scaled_gap_upper == pytest.approx(1 - 1 / d, abs=1e-6)
        assert rep.scaled_gap_lower == pytest.approx(1 - 1 / d, abs=1e-6)


def test_gap_report_zero_gap_point():
    rep = entanglement_gap(xy_pair(0.6, 0.8), restarts=16, seed=0)
    assert abs(rep.gap_upper) <= 1e-7
    assert rep.gap_lower >= -1e-7


def test_local_unitary_invariance_of_gap():
    rng = np.random.default_rng(42)
    for _ in range(50):
        h = HermitianOperator(random_hermitian(4, rng), (2, 2))
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        h2 = HermitianOperator(u @ h.matrix @ u.conj().T, (2, 2))
        r1 = entanglement_gap(h, restarts=10, seed=1)
        r2 = entanglement_gap(h2, restarts=10, seed=1)
        assert r1.gap_upper == pytest.approx(r2.gap_upper, abs=1e-6)
        assert r1.gap_lower == pytest.approx(r2.gap_lower, abs=1e-6)


def test_level_raising_operator_inequality():
    """Scaling to [0,1] and lifting every excited level to 1 can only
    raise energies: I - |E0><E0| dominates the scaled Hamiltonian."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = random_hermitian(4, rng)
        w, v = np.linalg.eigh(h)
        scaled = (h - w[0] * np.eye(4)) / (w[-1] - w[0])
        lifted = np.eye(4) - np.outer(v[:, 0], v[:, 0].conj())
        diff_w = np.linalg.eigvalsh(lifted - scaled)
        assert diff_w[0] >= -1e-10
        for _ in range(5):
            psi = random_state_vector(4, rng)
            e_scaled = float(np.real(np.vdot(psi, scaled @ psi)))
            e_lifted = float(np.real(np.vdot(psi, lifted @ psi)))
            assert e_scaled <= e_lifted + 1e-10


def test_pair_optimum_tiles_ring_and_star():
    """The pair optimum |A>|B>, A on one colour of a bipartite graph and B
    on the other, reaches the pair energy on every bond of the
    swap-symmetric Heisenberg coupling."""
    h = heisenberg_pair()
    per_bond, pair = seesaw_upper(h, restarts=16, seed=0)
    assert per_bond == pytest.approx(-1.0, abs=1e-9)
    for spec, colours in (
        (LatticeSpec.ring(4), (0, 1, 0, 1)),
        (LatticeSpec.star(6), (0, 1, 1, 1, 1, 1, 1)),
    ):
        assert all(colours[i] != colours[j] for (i, j) in spec.bonds)
        state = ProductState(tuple(pair.locals[c] for c in colours))
        energy = assemble(spec, h).dense.expectation(state.vector())
        assert energy == pytest.approx(-len(spec.bonds), abs=1e-9)


def test_bipartite_lattice_xy_zero_gap_ring():
    spec = LatticeSpec.ring(6)
    coupling = xy_pair(1.0, 0.0)
    per_bond, _ = seesaw_upper(coupling, restarts=16, seed=0)
    assert per_bond == pytest.approx(-1.0, abs=1e-9)
    e0 = eig(assemble(spec, coupling).dense).e0
    assert e0 / 6 == pytest.approx(per_bond, abs=1e-9)


def test_cluster_sep_energy_values():
    """The seesaw optimum per bond of n spins coupled all-to-all, taken on
    the assembled cluster as Table 2 takes it: -1/(n-1)."""
    h = heisenberg_pair()

    def per_bond(n, restarts):
        spec = LatticeSpec.complete(n)
        energy, _ = seesaw_upper(assemble(spec, h).dense, restarts=restarts, seed=0)
        return energy / len(spec.bonds)

    assert per_bond(2, 8) == pytest.approx(-1.0, abs=1e-9)
    assert per_bond(3, 16) == pytest.approx(-0.5, abs=1e-9)
    assert per_bond(4, 16) == pytest.approx(-1 / 3, abs=1e-8)
    with pytest.raises(ValueError):
        LatticeSpec.complete(1)


def test_geometric_overlap():
    for d in (2, 3, 4):
        assert geometric_overlap(max_entangled_state(d), (d, d)) == pytest.approx(
            1 / d, abs=1e-12
        )
    rng = np.random.default_rng(9)
    a, b = random_state_vector(2, rng), random_state_vector(3, rng)
    assert geometric_overlap(np.kron(a, b), (2, 3)) == pytest.approx(1.0, abs=1e-12)


def test_geometric_overlap_matches_seesaw_oracle():
    rng = np.random.default_rng(10)
    for _ in range(5):
        psi = random_state_vector(4, rng)
        overlap = geometric_overlap(psi, (2, 2))
        neg_proj = HermitianOperator(-np.outer(psi, psi.conj()), (2, 2))
        e, _ = seesaw_upper(neg_proj, restarts=12, seed=3)
        assert overlap == pytest.approx(-e, abs=1e-8)


def test_build_witness():
    z = build_witness(heisenberg_pair(), -1.0)
    assert np.allclose(np.linalg.eigvalsh(z.matrix), [-2, 2, 2, 2])
    zero_gap = build_witness(xy_pair(0.6, 0.8), eig(xy_pair(0.6, 0.8)).e0)
    assert np.linalg.eigvalsh(zero_gap.matrix)[0] >= -1e-10
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_state_vector(2, rng)
        b = random_state_vector(2, rng)
        assert z.expectation(np.kron(a, b)) >= -1e-9


def test_report_witness_holds_where_the_seesaw_stops_short():
    """On this two-qubit search sample 8 seesaw restarts stop 4.0e-3 above
    the product minimum that 64 restarts find; the reported witness must
    stay non-negative on that product state."""
    from entgap import twoqubit

    h = twoqubit.family_hamiltonian(*twoqubit._sample(1362494735, 0, "haar"))
    rep = entanglement_gap(h, restarts=8, seed=0)
    e_found, state = seesaw_upper(h, restarts=64, seed=0)
    assert rep.sep.upper - e_found > 1e-3
    assert build_witness(h, rep.witness_offset).expectation(state.vector()) >= -1e-9


def test_lattice_witness_decomposes_over_bonds():
    """tr[Z_lattice rho] evaluated through bond marginals equals the
    global expectation (2-local energies only see pair marginals)."""
    h = heisenberg_pair()
    spec = LatticeSpec.ring(4)
    asm = assemble(spec, h)
    e_sep = -1.0
    rng = np.random.default_rng(12)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    rho_m = a @ a.conj().T
    rho_m /= np.trace(rho_m).real
    rho = HermitianOperator(rho_m, asm.matrix_free.dims)
    witness_global = asm.dense.matrix - len(spec.bonds) * e_sep * np.eye(16)
    direct = float(np.real(np.vdot(witness_global.conj().T, rho_m)))
    via_bonds = sum(bond_energy_decomposition(asm, rho)) - len(spec.bonds) * e_sep
    assert abs(direct - via_bonds) < 1e-10


def test_ppt_lower_keeps_no_basis_alive(monkeypatch):
    """Each cut's solve builds its own basis and lets it go on return."""
    import weakref

    from entgap import sdp

    made = []
    real = sdp._Basis

    def tracked(*args):
        basis = real(*args)
        made.append(weakref.ref(basis))
        return basis

    monkeypatch.setattr(sdp, "_Basis", tracked)
    ppt_lower(assemble(LatticeSpec.chain(4), heisenberg_pair()).dense)
    assert len(made) == 3
    assert all(ref() is None for ref in made)


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2)])
def test_ppt_lower_is_the_best_contiguous_cut(dims):
    rng = np.random.default_rng(len(dims))
    n = int(np.prod(dims))
    h = HermitianOperator(random_hermitian(n, rng), dims)
    cuts = []
    for c in range(1, len(dims)):
        da = int(np.prod(dims[:c]))
        cuts.append(solve_ppt_sdp(h.matrix, (da, n // da)))
    best = cuts[int(np.argmax([r.value for r in cuts]))]  # first of any tie
    val, res = ppt_lower(h)
    assert val == res.value == best.value
    assert (res.iterations, res.converged) == (best.iterations, best.converged)


def test_ppt_lower_needs_two_factors():
    with pytest.raises(ValueError, match="two or more factors"):
        ppt_lower(HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0]), (4,)))


def test_ppt_lower_multipartite_uses_best_cut():
    asm = assemble(LatticeSpec.chain(3), heisenberg_pair())
    val, res = ppt_lower(asm.dense)
    e0 = eig(asm.dense).e0
    up, _ = seesaw_upper(asm.dense, restarts=16, seed=0)
    assert e0 - 1e-8 <= val <= up + 1e-7


def test_product_state_validation():
    with pytest.raises(ValueError):
        ProductState((np.array([1.0, 1.0]),))
