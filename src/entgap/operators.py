"""Dense Hermitian linear algebra on tensor-product spaces.

Operators carry their tensor factorization as a list of subsystem
dimensions; subsystem 0 is the leftmost (most significant) factor,
matching the ordering of ``numpy.kron``.  All values are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

HERMITICITY_TOL = 1e-10
DEGENERACY_TOL = 1e-8
DENSE_CUTOFF = 4096


class LanczosError(RuntimeError):
    """Lanczos failed to reach the requested residual; carries the best residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class HermitianOperator:
    """A dense complex Hermitian matrix tagged with subsystem dimensions.

    Parameters
    ----------
    matrix : array-like
        Square complex matrix of side ``prod(dims)``.  An asymmetry
        ``max|m - m*|`` below 1e-10 is symmetrized away; anything larger
        is rejected as a logic error rather than floating-point drift.
    dims : sequence of int
        Subsystem dimensions, each >= 2, subsystem 0 leftmost.
    """

    __slots__ = ("matrix", "dims")

    def __init__(self, matrix, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if len(dims) == 0:
            raise ValueError("dims must be non-empty")
        if any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
        m = np.asarray(matrix, dtype=complex)
        side = int(np.prod(dims))
        if m.shape != (side, side):
            raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
        asym = np.max(np.abs(m - m.conj().T)) if side else 0.0
        if asym > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
        m = (m + m.conj().T) / 2
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def __add__(self, other):
        if isinstance(other, HermitianOperator):
            if other.dims != self.dims:
                raise ValueError("dimension mismatch")
            return HermitianOperator(self.matrix + other.matrix, self.dims)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, HermitianOperator):
            if other.dims != self.dims:
                raise ValueError("dimension mismatch")
            return HermitianOperator(self.matrix - other.matrix, self.dims)
        return NotImplemented

    def __mul__(self, scalar):
        return HermitianOperator(self.matrix * float(scalar), self.dims)

    __rmul__ = __mul__

    def shift(self, offset: float) -> "HermitianOperator":
        """Return self + offset * identity."""
        return HermitianOperator(
            self.matrix + float(offset) * np.eye(self.dim), self.dims
        )

    def expectation(self, vector: np.ndarray) -> float:
        """Real expectation value <v|H|v> of a (normalized) state vector."""
        v = np.asarray(vector, dtype=complex).ravel()
        return float(np.real(np.vdot(v, self.matrix @ v)))

    def __repr__(self):
        return f"HermitianOperator(dims={list(self.dims)}, dim={self.dim})"


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ground_degeneracy: int

    @property
    def e0(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def e_max(self) -> float:
        return float(self.eigenvalues[-1])

    def ground_vector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


@dataclass(frozen=True)
class MatrixFreeOperator:
    """Hermitian operator given by its action on vectors.

    ``apply`` must be linear and Hermitian; ``check`` probes both on
    random vector pairs and is used by the test suite rather than on
    construction (an apply can be expensive).
    """

    dimension: int
    apply: Callable[[np.ndarray], np.ndarray]
    dims: tuple = field(default=())

    def check(self, rng: np.random.Generator, n_pairs: int = 5, tol: float = 1e-10):
        for _ in range(n_pairs):
            x = random_state_vector(self.dimension, rng)
            y = random_state_vector(self.dimension, rng)
            a, b = rng.standard_normal(2)
            lin = self.apply(a * x + b * y) - a * self.apply(x) - b * self.apply(y)
            if np.linalg.norm(lin) > tol * self.dimension:
                raise ValueError("apply is not linear")
            herm = np.vdot(x, self.apply(y)) - np.vdot(self.apply(x), y)
            if abs(herm) > tol * self.dimension:
                raise ValueError("apply is not Hermitian")
        return True


def identity(dims: Sequence[int]) -> HermitianOperator:
    """Identity operator with the given factorization."""
    side = int(np.prod(tuple(dims)))
    return HermitianOperator(np.eye(side), dims)


def kron(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Tensor product; dims concatenate, subsystem order a then b."""
    return HermitianOperator(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def partial_transpose(m: HermitianOperator, subsystem: int) -> HermitianOperator:
    """Transpose one factor of a two-factor operator.

    The operator must carry exactly two factors; for more subsystems
    flatten to a bipartition first (see ``regroup``).  Involutive,
    trace-preserving, Hermiticity-preserving.
    """
    if m.n_subsystems != 2:
        raise ValueError(
            f"partial transpose needs a two-factor view, got {m.n_subsystems} factors"
        )
    if subsystem not in (0, 1):
        raise ValueError(f"invalid subsystem index {subsystem}")
    t = partial_transpose_matrix(m.matrix, *m.dims)
    # transposing the second factor is transposing the first, then the whole
    return HermitianOperator(t if subsystem == 0 else t.T, m.dims)


def partial_transpose_matrix(matrix: np.ndarray, da: int, db: int) -> np.ndarray:
    """Partial transpose over the first factor of raw (da*db) x (da*db)
    arrays, batched over any leading axes."""
    batch = matrix.shape[:-2]
    t = matrix.reshape(batch + (da, db, da, db)).swapaxes(-4, -2)
    return t.reshape(batch + (da * db, da * db))


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


def permute_subsystems(m: HermitianOperator, order: Sequence[int]) -> HermitianOperator:
    """Reorder the tensor factors according to ``order``."""
    order = list(order)
    if sorted(order) != list(range(m.n_subsystems)):
        raise ValueError(f"order {order} is not a permutation of the subsystems")
    k = m.n_subsystems
    t = m.matrix.reshape(m.dims + m.dims)
    t = t.transpose(order + [k + i for i in order])
    new_dims = [m.dims[i] for i in order]
    return HermitianOperator(t.reshape(m.dim, m.dim), new_dims)


def regroup(m: HermitianOperator, block: Sequence[int]) -> HermitianOperator:
    """Flatten to a two-factor view with ``block`` as the first factor."""
    block = list(block)
    rest = [i for i in range(m.n_subsystems) if i not in block]
    if not block or not rest:
        raise ValueError("block must be a proper non-empty subset of subsystems")
    p = permute_subsystems(m, block + rest)
    da = int(np.prod([m.dims[i] for i in block]))
    return HermitianOperator(p.matrix, (da, m.dim // da))


def eig(m: HermitianOperator, dense_cutoff: int = DENSE_CUTOFF) -> Spectrum:
    """Full eigendecomposition (ascending); refuses sides above the cutoff."""
    if m.dim > dense_cutoff:
        raise ValueError(
            f"side {m.dim} exceeds dense cutoff {dense_cutoff}; use lanczos_ground"
        )
    w, v = np.linalg.eigh(m.matrix)
    g = int(np.count_nonzero(w <= w[0] + DEGENERACY_TOL))
    return Spectrum(eigenvalues=w, eigenvectors=v, ground_degeneracy=g)


def as_matrix_free(m: HermitianOperator) -> MatrixFreeOperator:
    mat = m.matrix
    return MatrixFreeOperator(dimension=m.dim, apply=lambda v: mat @ v, dims=m.dims)


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normal components, then normalize."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR with phase fix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def lanczos_ground(
    op: MatrixFreeOperator,
    tol: float = 1e-10,
    max_iter: int = 10000,
    seed: int = 0,
    krylov_size: int = 200,
):
    """Lowest eigenpair of a Hermitian matrix-free operator.

    Lanczos with full reorthogonalization, restarted from the current
    Ritz vector until the explicit residual ||A v - E v|| drops below
    ``tol``.  Raises :class:`LanczosError` (carrying the residual
    reached) if ``max_iter`` matrix applications are exhausted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = op.dimension
    if n < 2:
        raise ValueError("dimension must be >= 2")
    rng = np.random.default_rng(seed)
    v = random_state_vector(n, rng)
    m_max = min(n, krylov_size)
    n_apply = 0
    best = (np.inf, None, None)  # (residual, theta, vector)

    while n_apply < max_iter:
        basis = np.empty((m_max, n), dtype=complex)
        basis[0] = v
        alphas, betas = [], []
        theta, ritz = None, v
        k = 0
        breakdown = False
        while k < m_max and n_apply < max_iter:
            w = op.apply(basis[k])
            n_apply += 1
            alphas.append(float(np.real(np.vdot(basis[k], w))))
            vb = basis[: k + 1]
            # full reorthogonalization, twice for stability
            for _ in range(2):
                w = w - (vb.conj() @ w) @ vb
            beta = float(np.linalg.norm(w))
            if k == 0:
                theta, s = alphas[0], np.array([1.0])
            else:
                evals, evecs = eigh_tridiagonal(
                    np.array(alphas), np.array(betas), select="i", select_range=(0, 0)
                )
                theta, s = float(evals[0]), evecs[:, 0]
            ritz = s @ vb
            # cheap residual bound; confirm explicitly before returning
            if beta * abs(s[-1]) <= tol or beta <= 1e-13:
                r = op.apply(ritz) - theta * ritz
                n_apply += 1
                res = float(np.linalg.norm(r))
                if res < best[0]:
                    best = (res, float(theta), ritz)
                if res <= tol:
                    return float(theta), ritz
                if beta <= 1e-13:
                    breakdown = True
                    break
            betas.append(beta)
            k += 1
            basis[k] = w / beta
        if breakdown:
            # invariant subspace without the ground state: the start vector
            # had no ground overlap, so retry from a fresh direction
            w = random_state_vector(n, rng)
            w = w - (basis[: k + 1].conj() @ w) @ basis[: k + 1]
            nw = np.linalg.norm(w)
            if nw <= 1e-13:
                return best[1], best[2]  # space exhausted: Ritz value is exact
            v = w / nw
            continue
        # Krylov block full: restart from the best Ritz vector
        r = op.apply(ritz) - theta * ritz
        n_apply += 1
        res = float(np.linalg.norm(r))
        if res < best[0]:
            best = (res, float(theta), ritz)
        if res <= tol:
            return float(theta), ritz
        v = ritz / np.linalg.norm(ritz)

    raise LanczosError(
        f"no convergence after {max_iter} applications (residual {best[0]:.3e})",
        residual=best[0],
    )


def ground_energy(m: HermitianOperator, dense_cutoff: int = DENSE_CUTOFF, **kw) -> float:
    """Minimum eigenvalue via dense eig below the cutoff, Lanczos above."""
    if m.dim <= dense_cutoff:
        return eig(m).e0
    e, _ = lanczos_ground(as_matrix_free(m), **kw)
    return e


# ---------------------------------------------------------------------------
# JSON interchange: {"dims": [2, 2], "matrix": [[[re, im], ...], ...]}


def operator_to_json(m: HermitianOperator) -> str:
    mat = [
        [[float(x.real), float(x.imag)] for x in row]
        for row in m.matrix
    ]
    return json.dumps({"dims": list(m.dims), "matrix": mat})


def operator_from_json(text: str) -> HermitianOperator:
    data = json.loads(text)
    if "dims" not in data or "matrix" not in data:
        raise ValueError("operator JSON needs 'dims' and 'matrix' keys")
    rows = data["matrix"]
    m = np.array([[complex(re, im) for re, im in row] for row in rows])
    return HermitianOperator(m, data["dims"])
