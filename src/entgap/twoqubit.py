"""Search for two-qubit Hamiltonians with high gap temperature.

Every two-qubit Hamiltonian is scaled to spectrum {0, E1, E2, 1} with
0 <= E1 <= E2 <= 1.  The scaled antiferromagnet (singlet at 0, triplets
at 1) reaches scaled gap temperature 1/ln 3; the machinery here checks
random members of the family against that benchmark.  For two qubits
the PPT program is exact, so the separable energy needs no bracket.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models import singlet
from .operators import HermitianOperator, random_unitary
from .sdp import solve_ppt_sdp_batch
# ppt_lower stays importable from this module, where perfbench's tracer
# tests look for it; the search itself calls the batched solver
from .separability import ppt_lower, seesaw_upper  # noqa: F401
from .thermo import entanglement_gap_temperature

AFM_SCALED_T = 1.0 / np.log(3.0)
ZERO_GAP_TOL = 1e-9
# samples per batched PPT solve; blocks are fixed so that every sample is
# computed the same way whatever the number of workers
SEARCH_BLOCK = 1024


def afm_reference_temperature() -> float:
    """1/ln 3, the scaled gap temperature of the antiferromagnet, verified
    against the generic bisection pipeline on the scaled spectrum."""
    t = entanglement_gap_temperature(np.array([0.0, 1.0, 1.0, 1.0]), 0.5)
    if abs(t - AFM_SCALED_T) > 1e-9:
        raise RuntimeError(f"pipeline disagrees with 1/ln 3: {t}")
    return AFM_SCALED_T


def family_hamiltonian(e1: float, e2: float, basis: np.ndarray) -> HermitianOperator:
    """Two-qubit Hamiltonian with spectrum {0, e1, e2, 1} in the given
    eigenbasis (columns: ground, mid1, mid2, top)."""
    if not (0 <= e1 <= e2 <= 1):
        raise ValueError("intermediate energies must satisfy 0 <= e1 <= e2 <= 1")
    if np.max(np.abs(basis @ basis.conj().T - np.eye(4))) > 1e-10:
        raise ValueError("eigenbasis must be unitary")
    m = (basis * np.array([0.0, e1, e2, 1.0])) @ basis.conj().T
    return HermitianOperator(m, (2, 2))


def family_thermal_temperature(e1: float, e2: float, e_sep: float):
    """Gap temperature for the {0, e1, e2, 1} spectrum (E_tot = 1, so the
    scaled and bare temperatures coincide)."""
    return entanglement_gap_temperature(np.array([0.0, e1, e2, 1.0]), e_sep)


def takagi2(m: np.ndarray):
    """Takagi factorization M = Q diag(s) Q^T of a complex symmetric 2x2
    matrix, s >= 0 descending, Q unitary.

    Uses the real embedding [[X, Y], [Y, -X]] for M = X + iY: its
    eigenvector (x; y) at eigenvalue s gives M conj(q) = s q for
    q = x + iy, which is the Takagi condition.  Robust to degenerate
    singular values, which phase-fixing tricks on the SVD are not.
    """
    m = np.asarray(m, dtype=complex)
    m = (m + m.T) / 2
    x, y = m.real, m.imag
    k = np.block([[x, y], [y, -x]])
    w, v = np.linalg.eigh(k)
    # take the two non-negative branches, largest first
    q = np.zeros((2, 2), dtype=complex)
    s = np.zeros(2)
    cols = [3, 2]
    for out, col in enumerate(cols):
        s[out] = w[col]
        q[:, out] = v[:2, col] + 1j * v[2:, col]
    # degenerate pairs can come out non-orthogonal in the complex sense
    overlap = np.vdot(q[:, 0], q[:, 1])
    if abs(overlap) > 1e-10:
        q[:, 1] -= q[:, 0] * overlap
        q[:, 1] /= np.linalg.norm(q[:, 1])
    if np.max(np.abs(q @ np.diag(s) @ q.T - m)) > 1e-8:
        raise RuntimeError("Takagi factorization failed")
    return q, s


def schmidt_plus_minus_product(psi: np.ndarray) -> np.ndarray:
    """Product state built on the symmetric-Schmidt basis of a two-qubit
    symmetric state |psi> = s0 |q0 q0> + s1 |q1 q1>.

    The pair (|q0> + i|q1>)/sqrt(2), (|q0> - i|q1>)/sqrt(2) puts half its
    weight on the singlet and the other half on (|q0 q0> + |q1 q1>)/sqrt(2),
    so against a singlet-ground Hamiltonian with |psi> at energy E1 its
    energy is at most (E1 + 1)/4."""
    q, _ = takagi2(np.asarray(psi, dtype=complex).reshape(2, 2))
    a = (q[:, 0] + 1j * q[:, 1]) / np.sqrt(2)
    b = (q[:, 0] - 1j * q[:, 1]) / np.sqrt(2)
    return np.kron(a, b)


def top_state_product(psi: np.ndarray) -> np.ndarray:
    """Product |q0> (x) |q1> of the symmetric-Schmidt vectors of the top
    eigenstate: zero overlap with it, half weight on the singlet, so its
    energy under a singlet-ground Hamiltonian is at most E2/2."""
    q, _ = takagi2(np.asarray(psi, dtype=complex).reshape(2, 2))
    return np.kron(q[:, 0], q[:, 1])


def e2_bounds(e1: float, tol: float = 1e-10):
    """The two transcendental curves bounding E2 at fixed E1.

    e2_lb: where the first separable state's energy (E1+1)/4 equals the
    thermal energy at T = 1/ln 3; e2_ub: where E2/2 equals it.  Both are
    solved by bisection in e2 (the thermal energy is monotone in e2 on
    the relevant region).  Defined for 1/4 < e1 <= 1, the region the
    lower-spectrum argument does not already settle.
    """
    if not (0.25 < e1 <= 1.0):
        raise ValueError("e1 must lie in (1/4, 1]")
    t_star = AFM_SCALED_T

    def u_thermal(e2):
        w = np.array([0.0, e1, e2, 1.0])
        x = np.exp(-w / t_star)
        return float((w * x).sum() / x.sum())

    def bisect(f, lo, hi):
        """Root of an increasing f on [lo, hi], clamped at the ends."""
        if f(lo) > 0:
            return lo
        if f(hi) < 0:
            return hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if abs(hi - lo) < tol:
                return mid
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # U' grows through (e1+1)/4 at the lower curve; the state energy
    # e2/2 grows through U' at the upper one
    e2_lb = bisect(lambda e2: u_thermal(e2) - (e1 + 1.0) / 4.0, e1, 1.0)
    e2_ub = bisect(lambda e2: e2 / 2.0 - u_thermal(e2), e1, 1.0)
    return e2_lb, e2_ub


@dataclass(frozen=True)
class SearchResult:
    max_t: float
    argmax_e1: float
    argmax_e2: float
    argmax_basis_hash: str
    n_samples: int
    n_skipped_zero_gap: int
    seed: int
    ground: str
    seesaw_checks: int
    seesaw_max_deviation: float
    n_unconverged: int          # samples whose PPT solve missed its contract

    def to_dict(self) -> dict:
        return {
            "max_t": self.max_t,
            "e1": self.argmax_e1,
            "e2": self.argmax_e2,
            "basis_hash": self.argmax_basis_hash,
            "n_samples": self.n_samples,
            "n_skipped_zero_gap": self.n_skipped_zero_gap,
            "seed": self.seed,
            "ground": self.ground,
            "seesaw_checks": self.seesaw_checks,
            "seesaw_max_deviation": self.seesaw_max_deviation,
            "n_unconverged": self.n_unconverged,
        }


def _sample_basis(rng: np.random.Generator, ground: str) -> np.ndarray:
    if ground == "haar":
        return random_unitary(4, rng)
    if ground == "singlet":
        # singlet ground state, Haar basis on its orthocomplement
        q = np.zeros((4, 4), dtype=complex)
        q[:, 0] = singlet()
        rest = np.linalg.svd(
            np.eye(4) - np.outer(q[:, 0], q[:, 0].conj())
        )[0][:, :3]
        q[:, 1:] = rest @ random_unitary(3, rng)
        return q
    raise ValueError(f"unknown ground mode {ground!r}")


def _search_chunk(args):
    seed, ground, indices, check_every = args
    samples = []
    for i in indices:
        rng = np.random.default_rng((seed, i))
        e1, e2 = np.sort(rng.uniform(0.0, 1.0, 2))
        basis = _sample_basis(rng, ground)
        samples.append((i, e1, e2, basis, family_hamiltonian(e1, e2, basis)))
    # E_tot = 1 here, so 5e-7 on the separable energy keeps the gap
    # temperature well inside its 1e-6 comparison tolerance
    results = solve_ppt_sdp_batch(
        np.array([s[4].matrix for s in samples]), (2, 2), gap_tol=5e-7
    )
    max_t, arg = -np.inf, (np.nan, np.nan, "")
    skipped = unconverged = checks = 0
    max_dev = 0.0
    for (i, e1, e2, basis, h), res in zip(samples, results):
        e_sep = res.value
        unconverged += not res.converged
        if check_every and i % check_every == 0:
            up, _ = seesaw_upper(h, restarts=8, seed=i)
            checks += 1
            max_dev = max(max_dev, abs(up - e_sep))
        if e_sep <= ZERO_GAP_TOL:
            skipped += 1
            continue
        t = family_thermal_temperature(e1, e2, e_sep)
        if t is not None and t > max_t:
            max_t = t
            arg = (
                float(e1),
                float(e2),
                hashlib.sha1(np.ascontiguousarray(basis).tobytes()).hexdigest()[:12],
            )
    return max_t, arg, skipped, checks, max_dev, unconverged


def default_workers() -> int:
    env = os.environ.get("ENTGAP_THREADS")
    if env:
        return max(1, int(env))
    return min(2, os.cpu_count() or 1)


def random_search(
    n_samples: int,
    seed: int = 0,
    ground: str = "haar",
    check_every: int = 100,
    workers: int | None = None,
) -> SearchResult:
    """Draw (E1, E2) uniformly on the ordered square with a random
    eigenbasis, run the exact-for-two-qubits PPT pipeline per sample, and
    report the largest scaled gap temperature found.

    Deterministic for fixed (n_samples, seed, ground): each sample owns
    generator (seed, index), the PPT solves run in fixed blocks of
    ``SEARCH_BLOCK`` samples whatever the worker count, and the reduction
    is an order-independent max.  Samples whose ground manifold holds a
    product state (zero gap) are skipped and counted.  Samples whose PPT
    solve missed its contract are counted in ``n_unconverged``: a looser
    lower bound can only lower a sample's temperature, so a zero count
    says the comparison with 1/ln 3 was not weakened.  Every
    ``check_every`` samples the PPT value is cross-checked against a
    seesaw upper bound.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    workers = default_workers() if workers is None else max(1, workers)
    indices = np.arange(n_samples)
    blocks = [
        (seed, ground, indices[k : k + SEARCH_BLOCK], check_every)
        for k in range(0, n_samples, SEARCH_BLOCK)
    ]
    if workers == 1 or len(blocks) == 1:
        parts = [_search_chunk(b) for b in blocks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            parts = list(pool.map(_search_chunk, blocks))
    max_t, arg = -np.inf, (np.nan, np.nan, "")
    skipped = checks = unconverged = 0
    max_dev = 0.0
    for part_t, part_arg, part_skip, part_checks, part_dev, part_unconv in parts:
        skipped += part_skip
        checks += part_checks
        unconverged += part_unconv
        max_dev = max(max_dev, part_dev)
        if part_t > max_t:
            max_t, arg = part_t, part_arg
    return SearchResult(
        max_t=float(max_t),
        argmax_e1=arg[0],
        argmax_e2=arg[1],
        argmax_basis_hash=arg[2],
        n_samples=n_samples,
        n_skipped_zero_gap=skipped,
        seed=seed,
        ground=ground,
        seesaw_checks=checks,
        seesaw_max_deviation=float(max_dev),
        n_unconverged=unconverged,
    )
