"""Reference helpers shared by the test modules.

None of these serve a command; they build test inputs or check a
property of the package's results from first principles.
"""

from typing import Sequence

import numpy as np

from entgap.lattices import AssembledLattice
from entgap.operators import (
    HermitianOperator,
    MatrixFreeOperator,
    Spectrum,
    partial_transpose_matrix,
    random_state_vector,
)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2


def partial_trace(m: HermitianOperator, keep: Sequence[int]) -> HermitianOperator:
    """Trace out all subsystems not in ``keep`` (kept order preserved)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be non-empty")
    if any(k < 0 or k >= m.n_subsystems for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {m.n_subsystems} subsystems")
    k = m.n_subsystems
    traced = [i for i in range(k) if i not in keep]
    t = m.matrix.reshape(m.dims + m.dims)
    # contract row/column axes of each traced subsystem
    for count, i in enumerate(traced):
        ax = i - count  # axes shift left as we trace
        n_ax = t.ndim
        t = np.trace(t, axis1=ax, axis2=ax + n_ax // 2)
    new_dims = [m.dims[i] for i in keep]
    side = int(np.prod(new_dims))
    return HermitianOperator(t.reshape(side, side), new_dims)


def bond_energy_decomposition(
    assembled: AssembledLattice, rho: HermitianOperator
) -> list[float]:
    """Per-bond energies tr[H_ij rho_ij]; they sum to the total energy
    because a 2-local energy only sees the pair marginals."""
    if rho.dims != assembled.matrix_free.dims:
        raise ValueError("state dimensions do not match the lattice")
    tr = float(np.real(np.trace(rho.matrix)))
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"state trace {tr} is not 1")
    lam_min = float(np.linalg.eigvalsh(rho.matrix)[0])
    if lam_min < -1e-10:
        raise ValueError(f"state has negative eigenvalue {lam_min}")
    energies = []
    h2 = assembled.coupling.matrix
    for (i, j) in assembled.spec.bonds:
        rho_ij = partial_trace(rho, (i, j))
        energies.append(float(np.real(np.vdot(h2.conj().T, rho_ij.matrix))))
    return energies


def geometric_overlap(psi: np.ndarray, dims: tuple[int, int]) -> float:
    """Largest squared Schmidt coefficient: the maximum overlap between a
    bipartite pure state and any product state."""
    da, db = dims
    v = np.asarray(psi, dtype=complex).ravel()
    if v.size != da * db:
        raise ValueError("state size does not match dims")
    s = np.linalg.svd(v.reshape(da, db), compute_uv=False)
    return float(s[0] ** 2)


def check_matrix_free(
    op: MatrixFreeOperator, rng: np.random.Generator, n_pairs: int = 5, tol: float = 1e-10
):
    """Probe ``op.apply`` for linearity and hermiticity on random vector
    pairs; raise ValueError on a violation."""
    for _ in range(n_pairs):
        x = random_state_vector(op.dimension, rng)
        y = random_state_vector(op.dimension, rng)
        a, b = rng.standard_normal(2)
        lin = op.apply(a * x + b * y) - a * op.apply(x) - b * op.apply(y)
        if np.linalg.norm(lin) > tol * op.dimension:
            raise ValueError("apply is not linear")
        herm = np.vdot(x, op.apply(y)) - np.vdot(op.apply(x), y)
        if abs(herm) > tol * op.dimension:
            raise ValueError("apply is not Hermitian")
    return True


def gibbs_reference(spec: Spectrum, temperature: float):
    """One temperature's Gibbs state, built and symmetrized as a
    HermitianOperator, with the smallest eigenvalue of its partial
    transpose over the first factor and its thermal energy."""
    w = spec.eigenvalues
    weights = np.exp(-(w - w.min()) / temperature)
    weights /= weights.sum()
    rho = HermitianOperator((spec.eigenvectors * weights) @ spec.eigenvectors.conj().T, spec.dims)
    da = spec.dims[0]
    low = float(np.linalg.eigvalsh(partial_transpose_matrix(rho.matrix, da, rho.dim // da))[0])
    shifted = np.exp(-(1.0 / temperature) * (w - w.min()))
    return rho.matrix, low, float((w * shifted).sum() / shifted.sum())
