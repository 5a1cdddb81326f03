"""Certified brackets on the minimum separable energy.

The bracket pairs two one-sided bounds: a seesaw over pure product
states gives an upper bound that is an exactly evaluated product
energy, and the PPT semidefinite relaxation gives a certified lower
bound.  For 2x2 and 2x3 systems the two coincide (PPT is exact there);
in general the gap between them is where bound entanglement lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .operators import HermitianOperator, eig, random_state_vector
from .sdp import PPTResult, solve_ppt_sdp

SEESAW_CONVERGENCE = 1e-12
DEGENERATE_SPLIT = 1e-12
MAX_SWEEPS = 500


@dataclass(frozen=True)
class ProductState:
    """One normalized local vector per subsystem."""

    locals: tuple

    def __post_init__(self):
        for v in self.locals:
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValueError("local factors must be normalized")

    def vector(self) -> np.ndarray:
        return _kron_rows([v[None] for v in self.locals])[0]

    def energy(self, h: HermitianOperator) -> float:
        return _product_energies(h, [v[None] for v in self.locals])[0]


@dataclass(frozen=True)
class SepBracket:
    """Two-sided bracket on the minimum separable energy."""

    lower: float                    # PPT-certified
    upper: float                    # exactly evaluated product energy
    witness_state: ProductState
    ppt: PPTResult                  # the solve behind ``lower``

    def __post_init__(self):
        if self.lower > self.upper + 1e-7:
            raise ValueError(
                f"bracket inverted: lower {self.lower} > upper {self.upper}"
            )


@dataclass(frozen=True)
class GapReport:
    """Ground/maximum energies, separable-energy bracket and gap interval."""

    e0: float
    e_max: float
    sep: SepBracket
    gap_lower: float
    gap_upper: float
    scaled_gap_lower: float
    scaled_gap_upper: float
    witness_offset: float

    def to_dict(self) -> dict:
        return {
            "e0": self.e0,
            "e_max": self.e_max,
            "e_sep_lower": self.sep.lower,
            "e_sep_upper": self.sep.upper,
            "gap": [self.gap_lower, self.gap_upper],
            "scaled_gap": [self.scaled_gap_lower, self.scaled_gap_upper],
            "witness_offset": self.witness_offset,
        }


@dataclass(frozen=True)
class SeesawRun:
    """What the restarts of one ``seesaw_upper`` call did."""

    steps: tuple        # winning restart's ground energies, one per site update
    sweeps: tuple       # sweeps per restart; MAX_SWEEPS means the cap stopped it
    energies: tuple     # exact product energy per restart
    best: int           # index of the winning restart


def _kron_rows(factors) -> np.ndarray:
    """Row r is the kron, in order, of row r of each (R, d) array."""
    return reduce(lambda a, b: (a[:, :, None] * b[:, None]).reshape(len(a), -1), factors)


def _product_energies(h: HermitianOperator, factors) -> list[float]:
    """Exact energy of each row's product state, row r of ``factors[s]``
    being its factor on site s: bitwise ``ProductState.energy``, with
    every vector formed and contracted with H in one stack."""
    p = _kron_rows(factors)
    return np.real(p.conj()[:, None, :] @ np.matmul(h.matrix, p[:, :, None]))[:, 0, 0].tolist()


def seesaw_upper(
    h: HermitianOperator,
    restarts: int = 64,
    seed: int = 0,
    return_trace: bool = False,
):
    """Best exact product-state energy found by multi-start coordinate descent.

    Each pass replaces one factor with the ground state of its effective
    single-site operator, so the energy sequence within a run is
    non-increasing.  Restarts draw Haar product states from a generator
    seeded with (seed, restart index); ties go to the earlier restart.
    The restarts sweep as one stack: per site update, one matmul and one
    ``eigh`` run over the live restarts only.  Each leaves the stack when
    its energy falls by less than SEESAW_CONVERGENCE in a sweep, or after
    MAX_SWEEPS.  With ``return_trace`` a ``SeesawRun`` comes third.
    """
    if h.n_subsystems < 2:
        raise ValueError("seesaw needs a multipartite operator")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    dims, k, n = h.dims, h.n_subsystems, h.dim
    h_tensor = h.matrix.reshape(dims + dims)
    # per site, H with axes (other bras, bra, ket, other kets) as a
    # (n/d, d*d*n/d) matrix, so conj(kron of others) @ it leaves (d, d, n/d)
    blocks = []
    for s, d in enumerate(dims):
        others = [j for j in range(k) if j != s]
        axes = others + [s, k + s] + [k + j for j in others]
        blocks.append(h_tensor.transpose(axes).reshape(n // d, d * d * n // d))
    vecs = [np.empty((restarts, d), dtype=complex) for d in dims]
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        for s, d in enumerate(dims):
            vecs[s][r] = random_state_vector(d, rng)

    sweeps = np.full(restarts, MAX_SWEEPS)
    # the live restarts' factors, energies and indices, compacted; a
    # restart's rows go back to vecs when it leaves the stack
    cur, e_prev, live = list(vecs), np.full(restarts, np.inf), np.arange(restarts)
    steps = []
    for sweep in range(1, MAX_SWEEPS + 1):
        for s, d in enumerate(dims):
            # row r of p is the kron of live restart r's other factors
            p = _kron_rows([cur[j] for j in range(k) if j != s])
            m = ((p.conj() @ blocks[s]).reshape(len(live), d * d, -1) @ p[:, :, None])
            m = m.reshape(-1, d, d)
            w, v = np.linalg.eigh((m + m.conj().swapaxes(1, 2)) / 2)
            # a contiguous copy, so the matmuls that read it next take the BLAS path
            new = v[:, :, 0].copy()
            # inside a degenerate ground space take the direction closest
            # to the previous factor, so the sweep cannot oscillate
            ground = w <= w[:, :1] + DEGENERATE_SPLIT
            if ground[:, 1:].any():
                coeff = v.conj().swapaxes(1, 2) @ cur[s][:, :, None]
                proj = (v @ np.where(ground[:, :, None], coeff, 0))[..., 0]
                nrm = np.linalg.norm(proj, axis=1, keepdims=True)
                tie = (ground.sum(axis=1, keepdims=True) > 1) & (nrm > 1e-8)
                new = np.where(tie, proj / np.where(tie, nrm, 1), new)
            cur[s] = new
            if return_trace:
                steps.append(np.full(restarts, np.nan))
                steps[-1][live] = w[:, 0]
        done = e_prev - w[:, 0] < SEESAW_CONVERGENCE
        e_prev = w[:, 0]
        if done.any():
            sweeps[live[done]] = sweep
            for s in range(k):
                vecs[s][live[done]] = cur[s][done]
                cur[s] = cur[s][~done]
            e_prev, live = e_prev[~done], live[~done]
            if live.size == 0:
                break
    for s in range(k):
        vecs[s][live] = cur[s]

    energies = _product_energies(h, vecs)
    best = 0
    for r in range(1, restarts):
        if energies[r] < energies[best] - 1e-15:
            best = r
    state = ProductState(tuple(v[best] for v in vecs))
    if not return_trace:
        return energies[best], state
    trace = tuple(float(row[best]) for row in steps[: sweeps[best] * k])
    run = SeesawRun(trace, tuple(int(c) for c in sweeps), tuple(energies), best)
    return energies[best], state, run


def ppt_lower(h: HermitianOperator, gap_tol: float = 1e-7) -> tuple[float, PPTResult]:
    """Certified lower bound on the minimum separable energy from the PPT
    relaxation: the largest (tightest) bound over the contiguous cuts
    (first c factors | the rest), ties going to the earlier cut.  A
    two-factor operator has the one cut.  Raises ValueError on an
    operator with fewer than two factors.
    """
    if h.n_subsystems < 2:
        raise ValueError(f"a PPT bound needs two or more factors, got dims {list(h.dims)}")
    best = None
    for cut in range(1, h.n_subsystems):
        da = int(np.prod(h.dims[:cut]))
        result = solve_ppt_sdp(h.matrix, (da, h.dim // da), gap_tol=gap_tol)
        if best is None or result.value > best.value:
            best = result
    return best.value, best


def sep_bracket(
    h: HermitianOperator,
    restarts: int = 64,
    seed: int = 0,
    gap_tol: float = 1e-7,
) -> SepBracket:
    """Bracket [PPT lower, seesaw upper] on the minimum separable energy.

    The PPT bound goes first, so an operator whose PPT solve cannot fit
    in memory is refused before any seesaw runs."""
    lower, res = ppt_lower(h, gap_tol=gap_tol)
    upper, state = seesaw_upper(h, restarts=restarts, seed=seed)
    # a certified lower bound can only exceed the exact product energy
    # through solver failure; surface that instead of silently clipping
    return SepBracket(lower=lower, upper=upper, witness_state=state, ppt=res)


def entanglement_gap(
    h: HermitianOperator,
    restarts: int = 64,
    seed: int = 0,
    gap_tol: float = 1e-7,
) -> GapReport:
    """Full report: spectrum extremes, separable bracket, gap interval.

    The witness offset is the certified PPT lower bound, so the induced
    witness H - offset*I is non-negative on every product state, whether
    or not the seesaw found it; a negative expectation certifies
    entanglement.  The bracket goes first, so an operator whose PPT
    solve cannot fit in memory is refused before it is decomposed.
    """
    sep = sep_bracket(h, restarts=restarts, seed=seed, gap_tol=gap_tol)
    spec = eig(h)
    e0, e_max = spec.e0, spec.e_max
    e_tot = e_max - e0
    gap_lo = sep.lower - e0
    gap_hi = sep.upper - e0
    return GapReport(
        e0=e0,
        e_max=e_max,
        sep=sep,
        gap_lower=gap_lo,
        gap_upper=gap_hi,
        scaled_gap_lower=gap_lo / e_tot if e_tot > 0 else 0.0,
        scaled_gap_upper=gap_hi / e_tot if e_tot > 0 else 0.0,
        witness_offset=sep.lower,
    )


def build_witness(h: HermitianOperator, e_sep: float) -> HermitianOperator:
    """Witness Z = H - e_sep * I; non-negative on separable states when
    e_sep lower-bounds the separable minimum."""
    return HermitianOperator(h.matrix - float(e_sep) * np.eye(h.dim), h.dims)
