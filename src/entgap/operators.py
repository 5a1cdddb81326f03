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
from scipy.linalg.lapack import dstebz, dstein

HERMITICITY_TOL = 1e-10
DEGENERACY_TOL = 1e-8
DENSE_CUTOFF = 4096


class _ApplyCapReached(Exception):
    """Raised inside a counted matvec once the application budget is spent."""


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
        ``max|m - m*|`` below 1e-10 is symmetrized away; a larger one or
        a non-finite entry is rejected as a logic error, not drift.
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
        if not np.isfinite(m).all():
            raise ValueError("matrix is not finite and Hermitian (non-finite entry)")
        # blocks of 2**16 entries: no full-size temporary besides ``out``
        out, asym, step = np.empty_like(m), 0.0, max(1, 2 ** 16 // side)
        for r in range(0, side, step):
            rows, mirror = m[r:r + step], m[:, r:r + step].conj().T
            asym = max(asym, np.max(np.abs(rows - mirror)))
            out[r:r + step] = (rows + mirror) / 2
        if asym > HERMITICITY_TOL:
            raise ValueError(f"matrix is not finite and Hermitian (asymmetry {asym:.3e})")
        out.flags.writeable = False
        object.__setattr__(self, "matrix", out)
        object.__setattr__(self, "dims", dims)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def expectation(self, vector: np.ndarray) -> float:
        """Real expectation value <v|H|v> of a (normalized) state vector."""
        v = np.asarray(vector, dtype=complex).ravel()
        return float(np.real(np.vdot(v, self.matrix @ v)))

    def __repr__(self):
        return f"HermitianOperator(dims={list(self.dims)}, dim={self.dim})"


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition (eigenvalues ascending) of an operator on ``dims``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ground_degeneracy: int
    dims: tuple

    @property
    def e0(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def e_max(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class MatrixFreeOperator:
    """Hermitian operator given by its action on vectors.

    ``apply`` must be linear and Hermitian; nothing checks either on
    construction (an apply can be expensive).
    """

    dimension: int
    apply: Callable[[np.ndarray], np.ndarray]
    dims: tuple = field(default=())


def partial_transpose_matrix(matrix: np.ndarray, da: int, db: int) -> np.ndarray:
    """Partial transpose over the first factor of raw (da*db) x (da*db)
    arrays, batched over any leading axes."""
    batch = matrix.shape[:-2]
    t = matrix.reshape(batch + (da, db, da, db)).swapaxes(-4, -2)
    return t.reshape(batch + (da * db, da * db))


def eig(m: HermitianOperator) -> Spectrum:
    """Full eigendecomposition (ascending); refuses sides above ``DENSE_CUTOFF``."""
    if m.dim > DENSE_CUTOFF:
        raise ValueError(
            f"side {m.dim} exceeds dense cutoff {DENSE_CUTOFF}; use lanczos_ground"
        )
    w, v = np.linalg.eigh(m.matrix)
    g = int(np.count_nonzero(w <= w[0] + DEGENERACY_TOL))
    return Spectrum(eigenvalues=w, eigenvectors=v, ground_degeneracy=g, dims=m.dims)


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normal components, then normalize."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR with phase fix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _lowest_tridiagonal_vector(d, e) -> np.ndarray:
    """Bitwise ``eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[1]``:
    its LAPACK calls (dstebz, then dstein) without its input validation,
    so the (n, 1) unit vector of the lowest level; LinAlgError on a nonzero info."""
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    if d.size == 1:
        return np.ones((1, 1))
    m, w, block, split, info = dstebz(d, e, 2, 0.0, 0.0, 1, 1, 0.0, "B")
    if info == 0:
        y, info = dstein(d, e, w[:m], block, split)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK tridiagonal eigenvector failed (info {info})")
    return y


def lanczos_ground(op: MatrixFreeOperator, tol: float = 1e-10, max_iter: int = 10000,
                   seed: int = 0):
    """Lowest eigenpair of a Hermitian matrix-free operator by two-pass Lanczos.

    From a seeded random unit vector (float64 if ``op.apply`` maps float64 to
    real, else complex), pass 1 runs the three-term recurrence with no stored
    basis until the lowest Ritz pair has |beta_j y_j| <= tol/2, beta_j breaks
    down or j = n; pass 2 reruns it to sum the Ritz vector, returned with its
    Rayleigh quotient once ||A v - E v|| <= ``tol`` and restarted from
    otherwise.  Raises :class:`LanczosError` (carrying the residual reached)
    after ``max_iter`` matrix applications, counted over all passes."""
    n = op.dimension
    if tol <= 0 or n < 3:
        raise ValueError(f"need tol > 0 and dimension >= 3, got tol {tol}, dimension {n}")
    budget = iter(range(max_iter))

    def krylov(q):
        """Lanczos vectors q_j from the unit vector q, each with alpha_j, beta_j."""
        q, q_prev, w, beta = q.copy(), np.zeros_like(q), np.empty_like(q), 0.0
        while True:
            if next(budget, None) is None:
                raise _ApplyCapReached
            av = op.apply(q)
            alpha = np.vdot(q, av).real
            np.subtract(av, np.multiply(q, alpha, out=w), out=w)
            w -= np.multiply(q_prev, beta, out=q_prev)
            beta = np.linalg.norm(w)
            yield q, alpha, beta
            q, q_prev = np.divide(w, beta, out=q_prev), q

    rng = np.random.default_rng(seed)
    real = not np.iscomplexobj(op.apply(np.zeros(n)))
    v = rng.standard_normal(n) if real else random_state_vector(n, rng)
    v /= np.linalg.norm(v)
    res = np.inf
    try:
        while True:
            _, e, res = next(krylov(v))  # the Rayleigh quotient and ||A v - E v||
            if res <= tol:
                return float(e), v
            alphas, betas = [], []
            for j, (_, alpha, beta) in enumerate(krylov(v), 1):
                alphas.append(alpha)
                betas.append(beta)
                if j % 3 and j < n and beta > tol / 2:
                    continue
                y = _lowest_tridiagonal_vector(alphas, betas[:-1])
                if beta * abs(y[-1, 0]) <= tol / 2 or j == n:
                    break
            x = np.zeros_like(v)
            for c, (q, _, _) in zip(y[:, 0], krylov(v)):
                x += c * q
            v = x / np.linalg.norm(x)
    except _ApplyCapReached:
        raise LanczosError(f"no convergence within {max_iter} applications "
                           f"(residual {res:.3e})", residual=res) from None


# ---------------------------------------------------------------------------
# JSON interchange: {"dims": [2, 2], "matrix": [[[re, im], ...], ...]}


def operator_to_json(m: HermitianOperator) -> str:
    mat = [
        [[float(x.real), float(x.imag)] for x in row]
        for row in m.matrix
    ]
    return json.dumps({"dims": list(m.dims), "matrix": mat})


def json_int(value, name: str) -> int:
    """An integral JSON number as an int; anything else (a fraction, a
    string, a boolean) is a ValueError naming ``name``."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def operator_from_json(text: str) -> HermitianOperator:
    data = json.loads(text)
    if not isinstance(data, dict) or "dims" not in data or "matrix" not in data:
        raise ValueError("operator JSON needs 'dims' and 'matrix' keys")
    if not isinstance(data["dims"], list):
        raise ValueError(f"dims must be a list, got {data['dims']!r}")
    dims = [json_int(d, "dims entry") for d in data["dims"]]
    try:
        pairs = np.array(data["matrix"])
    except ValueError:  # ragged rows
        pairs = np.array(())
    if pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[-1] != 2:
        raise ValueError("matrix must be rows of [re, im] pairs of real numbers")
    # each pair's two float64s are the bytes of one complex128
    m = np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]
    return HermitianOperator(m, dims)
