"""Primal-dual interior-point solver for the PPT energy minimization.

The program, for a Hermitian H on a bipartite space of side n = da*db:

    primal   min  tr[H X1]   s.t.  tr X1 = 1,  X1^{T_A} = X2,  X1, X2 >= 0
    dual     max  eps        s.t.  H - eps I = P + Q^{T_A},    P, Q >= 0

The optimum is the least energy reachable by a state with positive
partial transpose, a lower bound on the minimum separable energy (and
equal to it for 2x2 and 2x3 systems).  The method is a feasible-start
Nesterov-Todd path follower with a Mehrotra-style adaptive centering
parameter.  Whatever the iteration count, the returned ``value`` is
*certified*: the dual Q is clipped onto the PSD cone and the bound is
recomputed as lambda_min(H - Q^{T_A}), which is valid for any PSD Q.

The solver runs on stacks of Hamiltonians (leading batch axis), with
the two cone blocks X1, X2 (and S1, S2) stacked on the next axis; every
linear-algebra call takes the whole stack, while stopping, breakdown
handling and certification stay per member.  Each member sees exactly
the arithmetic of a solve on its own, and a single solve is the batch
of one.  A stack with no nonzero imaginary entry is solved over real
symmetric matrices, n(n+1)/2 unknowns instead of n^2, and gets real
arrays back: the conjugate of a PPT optimum of a real H is one too, so
their mean is a real optimum.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .operators import HERMITICITY_TOL, partial_transpose_matrix


@dataclass(frozen=True)
class PPTResult:
    """Outcome of the PPT semidefinite program."""

    value: float                       # certified lower bound on the PPT minimum
    epsilon: float                     # dual objective at termination
    objective: float                   # primal objective tr[H rho]
    gap: float                         # |objective - epsilon|
    converged: bool
    iterations: int
    # state and certificate H - value*I = P + Q^{T_A}; float64 for a real H
    rho: np.ndarray = field(repr=False, default=None)
    witness_q: np.ndarray = field(repr=False, default=None)
    witness_p: np.ndarray = field(repr=False, default=None)
    residuals: dict = field(default_factory=dict)


# absolute primal and dual feasibility every converged solve meets, and
# the iteration cap of a solve
FEAS_TOL = 1e-8
MAX_ITER = 100

# matrix entries per Schur-assembly chunk, counted over the whole batch:
# 128 KiB of complex images per cone block, small enough that the
# allocator recycles them step after step instead of returning them to
# the system and faulting them in again (about 20% of an n = 32 step)
_IMAGE_CHUNK = 2**13


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_ppt_fits(n: int, members: int = 1, real: bool = False) -> None:
    """Refuse a PPT solve of side ``n`` over ``members`` Hamiltonians whose
    working set exceeds physical memory: the A* images of both cone
    blocks, 2m n^2 entries, plus per member the Schur matrix and its
    Cholesky factor, 2m^2 reals, with m = n(n+1)/2 + 1 and real images
    for ``real`` Hamiltonians, m = n^2 + 1 and complex ones otherwise.
    Raises ValueError before anything of that size is allocated."""
    m = (n * (n + 1) // 2 if real else n * n) + 1
    need = 2 * m * n * n * (8 if real else 16) + 2 * members * m * m * 8
    have = _physical_memory()
    if need > have:
        raise ValueError(
            f"a PPT solve of side {n} over {members} member(s) needs "
            f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB "
            f"of physical memory"
        )


class _Basis:
    """Per-shape data of one solve: Hermitian (or, when ``real``, real
    symmetric) basis bookkeeping and A* images.  Built by each solve and
    let go when it returns."""

    def __init__(self, da: int, db: int, real: bool = False):
        n = da * db
        self.da, self.db, self.n, self.real = da, db, n, real
        self.dtype = float if real else complex
        self.iu = np.triu_indices(n, 1)
        i, j = self.iu
        k = len(i)
        self.m = n + k * (1 if real else 2) + 1
        self.b_vec = np.zeros(self.m)       # primal right-hand side: tr X1 = 1
        self.b_vec[0] = 1.0
        # stacked A*(e_k) images, block 1 and block 2 for every basis element:
        # e_0 = (eps=1, L=0) -> (I, 0); e_k = (0, E_k) -> (E_k^{T_A}, -E_k),
        # with E_k the diagonal units, then the real and (unless ``real``)
        # the imaginary off-diagonal pairs in ``iu`` order
        diag, re_off, im_off = np.arange(n), n + np.arange(k), n + k + np.arange(k)
        self.u = np.zeros((2, self.m, n, n), dtype=self.dtype)
        self.u[0, 0] = np.eye(n)
        # the E_k are built in block 2, transposed into block 1, then
        # negated in place
        herm = self.u[1, 1:]
        herm[diag, diag, diag] = 1.0
        r = 1 / np.sqrt(2)
        herm[re_off, i, j] = r
        herm[re_off, j, i] = r
        if not real:
            herm[im_off, i, j] = 1j * r
            herm[im_off, j, i] = -1j * r
        self.u[0, 1:] = self.pt(herm)
        np.negative(herm, out=herm)

    def pt(self, z: np.ndarray) -> np.ndarray:
        """Partial transpose on the first factor, batched over leading axes."""
        return partial_transpose_matrix(z, self.da, self.db)

    def herm_to_vec(self, z: np.ndarray) -> np.ndarray:
        """Isometry Herm(n) -> R^(m-1) (real symmetric matrices when
        ``real``), batched over leading axes."""
        diag = np.real(z[..., np.arange(self.n), np.arange(self.n)])
        off = z[..., self.iu[0], self.iu[1]]
        s2 = np.sqrt(2.0)
        parts = [diag, s2 * off.real] + ([] if self.real else [s2 * off.imag])
        return np.concatenate(parts, axis=-1)

    def vec_to_herm(self, v: np.ndarray) -> np.ndarray:
        """Inverse of ``herm_to_vec``, batched over leading axes."""
        n = self.n
        z = np.zeros(v.shape[:-1] + (n, n), dtype=self.dtype)
        z[..., np.arange(n), np.arange(n)] = v[..., :n]
        k = len(self.iu[0])
        off = v[..., n : n + k] if self.real else v[..., n : n + k] + 1j * v[..., n + k :]
        off = off / np.sqrt(2.0)
        z[..., self.iu[0], self.iu[1]] = off
        z[..., self.iu[1], self.iu[0]] = off.conj()
        return z

    def a_map(self, z: np.ndarray) -> np.ndarray:
        """Constraint map (Z1, Z2) -> (tr Z1, vec(Z1^{T_A} - Z2)) on blocks
        stacked along axis -3, batched over leading axes."""
        z1, z2 = z[..., 0, :, :], z[..., 1, :, :]
        out = np.empty(z.shape[:-3] + (self.m,))
        out[..., 0] = np.real(np.trace(z1, axis1=-2, axis2=-1))
        out[..., 1:] = self.herm_to_vec(self.pt(z1) - z2)
        return out


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + _h(a)) / 2


def _col(v: np.ndarray, ndim: int = 3) -> np.ndarray:
    """Per-member scalars shaped to scale a stack of ``ndim`` axes."""
    return v.reshape((-1,) + (1,) * (ndim - 1))


def _re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A^H B) per matrix of a stack.  A row-times-column matmul runs
    the BLAS dot kernel that ``np.vdot`` runs on a single matrix."""
    lead = a.shape[:-2]
    return np.real((a.conj().reshape(lead + (1, -1)) @ b.reshape(lead + (-1, 1)))[..., 0, 0])


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, with the kernel of ``np.linalg.norm``."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """NT scaling of the pairs (X, S): returns (W, R, d, Lx, Ls) with
    W = R R^H, W S W = X, and X = R diag(d) R^H, S = R^-H diag(d) R^-1."""
    lx = np.linalg.cholesky(x)
    ls = np.linalg.cholesky(s)
    _, sig, vh = np.linalg.svd(_h(ls) @ lx)
    r = lx @ _h(vh) / np.sqrt(sig)[..., None, :]
    return r @ _h(r), r, sig, lx, ls


def _max_step(lx_inv: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Largest a with X + a*dX >= 0, given the inverse Cholesky factor of
    X (inf if dX >= 0 on X's support)."""
    t = lx_inv @ dx @ _h(lx_inv)
    lam = np.linalg.eigvalsh(_herm(t))[..., 0]
    return np.where(lam >= -1e-14, np.inf, -1.0 / np.minimum(lam, -1e-14))


def _mehrotra_term(r, d, dx, ds):
    """Second-order correction R L_D^{-1}(sym(dX^ dS^)) R^H in original
    coordinates, from the affine direction."""
    dxh = _h(np.linalg.solve(r, _h(np.linalg.solve(r, dx))))
    dsh = _h(r) @ ds @ r
    c = _herm(dxh @ dsh)
    c = 2.0 * c / (d[..., :, None] + d[..., None, :])
    return r @ c @ _h(r)


def _certify(h: np.ndarray, q: np.ndarray, basis: _Basis):
    """Certified PPT lower bound from any Hermitian Q: clip to PSD, take
    lambda_min(H - Q^{T_A}).  Valid independent of solver convergence.
    Batched over leading axes."""
    w, v = np.linalg.eigh(_herm(q))
    q_psd = (v * np.maximum(w, 0.0)[..., None, :]) @ _h(v)
    g = _herm(h - basis.pt(q_psd))
    eps = np.linalg.eigvalsh(g)[..., 0]
    p = g - eps[..., None, None] * np.eye(basis.n)
    return eps, q_psd, p


class _Schur:
    """Cholesky factors of a stack of Schur complements M = A W~ A*.

    Each member is symmetrized in place, (M + M^T)/2, and factorized on
    its own (LAPACK ``potrf`` through SciPy); if it is not numerically
    positive definite, it is retried with a growing ridge on its
    diagonal; if four ridges fail, LinAlgError is raised.  Beyond the
    factors, a member-sized copy of M^T is the only temporary."""

    def __init__(self, m_mat: np.ndarray):
        self.m_mat = m_mat
        self.ridge = np.zeros(len(m_mat))
        self.factors = []
        for k, mk in enumerate(m_mat):
            np.add(mk, mk.T, out=mk)        # numpy copies the overlapping M^T
            mk /= 2
            diag = mk.diagonal().copy()
            ridge = 0.0
            for _ in range(4):
                # M is symmetric, so its transpose is the same matrix in the
                # Fortran order LAPACK wants, handed over without a copy
                c, info = dpotrf(mk.T, lower=1, clean=0)
                if info == 0:
                    break
                c = None                    # freed before the next attempt
                ridge = max(ridge * 100, 1e-12 * diag.sum() / len(mk))
                np.fill_diagonal(mk, diag + ridge)
            else:
                raise np.linalg.LinAlgError("Schur complement is not positive definite")
            np.fill_diagonal(mk, diag)
            self.factors.append(c)
            self.ridge[k] = ridge

    def solve(self, sel: np.ndarray, rhs: np.ndarray, refine: np.ndarray) -> np.ndarray:
        """M^-1 rhs for the members ``sel``; where ``refine`` is set, add
        one round of iterative refinement.  M turns badly conditioned
        near the optimum and the extra solve buys ~2 digits exactly where
        they are needed."""
        out = np.empty_like(rhs)
        for j, k in enumerate(sel):
            c = self.factors[k]
            dy = dpotrs(c, rhs[j], lower=1)[0]
            if refine[j]:
                resid = rhs[j] - self.m_mat[k] @ dy - self.ridge[k] * dy
                dy = dy + dpotrs(c, resid, lower=1)[0]
            out[j] = dy
        return out


def _step(B: _Basis, h, x, s, eps, lq, mu, rd, rp_norm):
    """One predictor-corrector step on a stack of iterates.

    ``x``, ``s`` and the dual residual ``rd`` carry both cone blocks on
    axis 1, shape (k, 2, n, n); ``lq`` is the dual Q block.  Returns the
    new (x, s, eps, lq); raises LinAlgError when the linear algebra of
    any member breaks down."""
    k, n = len(h), B.n
    eye = np.eye(n)
    nu = 2 * n
    w, r, d, lx, ls = _nt_scaling(x, s)
    # inverse Cholesky factors of X (axis 2 index 0) and of S (index 1)
    l_inv = np.linalg.inv(np.stack([lx, ls], axis=2))
    # Schur complement M = A W~ A*: column j is the constraint map of the
    # images W u_j W, built over chunks of basis elements
    m_mat = np.empty((k, B.m, B.m))
    chunk = max(1, _IMAGE_CHUNK // (k * n * n))
    for j in range(0, B.m, chunk):
        v = w[:, :, None] @ B.u[:, j : j + chunk] @ w[:, :, None]
        m_mat[:, :, j : j + chunk] = B.a_map(v.swapaxes(1, 2)).swapaxes(-1, -2)
    schur = _Schur(m_mat)

    ls_inv = l_inv[:, :, 1]
    s_inv = _h(ls_inv) @ ls_inv
    a_sinv = B.a_map(s_inv)
    a_wrdw = B.a_map(w @ rd @ w)
    refine = mu < 1e-5

    def newton(sel, sigma_mu, corr):
        """Search direction (d_eps, dL, dX, dS) for the members ``sel``."""
        rhs = B.b_vec - _col(sigma_mu, 2) * a_sinv[sel] + B.a_map(corr) + a_wrdw[sel]
        dy = schur.solve(sel, rhs, refine[sel])
        d_eps, d_l = dy[:, 0], B.vec_to_herm(dy[:, 1:])
        ds = np.stack(
            [rd[sel, 0] - _col(d_eps) * eye - B.pt(d_l), rd[sel, 1] + d_l], axis=1
        )
        dx = _col(sigma_mu, 4) * s_inv[sel] - x[sel] - corr - w[sel] @ ds @ w[sel]
        return d_eps, d_l, _herm(dx), _herm(ds)

    def max_steps(sel, dx, ds):
        """Primal and dual step limits, each capped at 1e8."""
        steps = _max_step(l_inv[sel], np.stack([dx, ds], axis=2))
        limit = np.minimum(steps.min(axis=1), 1e8)
        return limit[:, 0], limit[:, 1]

    tau = 0.98
    everyone = np.arange(k)

    # predictor
    d_eps, d_l, dx, ds = newton(everyone, np.zeros(k), np.zeros_like(x))
    ap, ad = max_steps(everyone, dx, ds)
    a_aff = _col(np.minimum(np.minimum(1.0, tau * ap), tau * ad), 4)
    mu_aff = _re_inner(x + a_aff * dx, s + a_aff * ds).sum(axis=1) / nu
    # float_power is libm's pow, the cube a Python float takes
    sigma = np.minimum(1.0, np.maximum(np.float_power(np.maximum(mu_aff, 0.0) / mu, 3), 1e-10))
    corr = _mehrotra_term(r, d, dx, ds)

    # corrector / combined step; a member whose step still collapses
    # escalates its centering weight (same factorization) and drops the
    # second-order term as a last resort
    a_p = np.empty(k)
    a_d = np.empty(k)
    pending = everyone
    for attempt in range(5):
        part = newton(pending, sigma[pending] * mu[pending], corr[pending])
        for full, new in zip((d_eps, d_l, dx, ds), part):
            full[pending] = new
        ap, ad = max_steps(pending, part[2], part[3])
        a_p[pending] = np.minimum(1.0, tau * ap)
        a_d[pending] = np.minimum(1.0, tau * ad)
        done = (np.minimum(a_p[pending], a_d[pending]) >= 0.05) | (sigma[pending] >= 1.0)
        pending = pending[~done]
        if not pending.size:
            break
        sigma[pending] = np.minimum(1.0, 4.0 * sigma[pending])
        if attempt == 3:
            corr[pending] = 0.0
    x = x + _col(a_p, 4) * dx
    eps = eps + a_d * d_eps
    lq = lq + _col(a_d) * d_l
    s = s + _col(a_d, 4) * ds
    # restore exact primal feasibility: Schur-solve roundoff lets the
    # iterate drift off {tr X1 = 1, X2 = X1^{T_A}} once mu is tiny, and
    # the constraint structure makes the projection exact.  Only adopt
    # the projected block if it keeps a safe cone margin, and skip the
    # whole step while the drift is still negligible.
    x1 = _herm(x[:, 0])
    x[:, 0] = x1 / _col(np.real(np.trace(x1, axis1=-2, axis2=-1)))
    drift = np.flatnonzero(rp_norm > 1e-13)
    if drift.size:
        x2 = B.pt(x[drift, 0])
        adopt = np.linalg.eigvalsh(x2)[:, 0] > 1e-3 * mu[drift]
        x[drift[adopt], 1] = x2[adopt]
    return x, s, eps, lq


def solve_ppt_sdp_batch(
    hs: np.ndarray, dims: tuple[int, int], gap_tol: float = 1e-7
) -> list[PPTResult]:
    """Minimize tr[H rho] over PPT states rho on a da x db system, for
    every H in the stack ``hs`` of shape (b, n, n), n = da*db.

    Returns one :class:`PPTResult` per member, equal to what a solve of
    that member alone returns.  Each ``value`` is a certified lower bound;
    ``converged`` records whether the duality-gap and feasibility
    contracts (relative ``gap_tol``, absolute ``FEAS_TOL``) were met
    within ``MAX_ITER`` iterations.  The loop aims somewhat past
    ``gap_tol`` and stops a member early on stalls; typical certified
    gaps land one to two orders below it.  A member whose linear algebra
    breaks down stops and is certified where it stands, without
    disturbing the others.  Raises ValueError when
    the solve cannot fit in memory (see :func:`check_ppt_fits`).
    """
    da, db = dims
    n = da * db
    hs = np.asarray(hs, dtype=complex)
    if hs.ndim != 3 or hs.shape[1:] != (n, n):
        raise ValueError(f"H stack has shape {hs.shape}, expected (b, {n}, {n})")
    real = not hs.imag.any()
    check_ppt_fits(n, len(hs), real)
    asym = np.max(np.abs(hs - _h(hs)), axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(~(asym <= HERMITICITY_TOL))
    if bad.size:
        raise ValueError(f"H[{bad[0]}] must be Hermitian (asymmetry {asym[bad[0]]:.3e})")
    b = len(hs)
    if b == 0:
        return []
    h = _herm(hs.real if real else hs)
    B = _Basis(da, db, real)
    eye = np.eye(n)

    # strictly feasible start on both sides: X1 = X2 = I/n, Q = I and
    # S1 = H - eps I - Q^{T_A} = H - (lam_min - 1) I >= I
    x = np.tile(eye / n, (b, 2, 1, 1)).astype(B.dtype)
    eps = np.linalg.eigvalsh(h)[:, 0] - 2.0
    lq = np.tile(eye, (b, 1, 1)).astype(B.dtype)
    s = np.stack([h - _col(eps) * eye - B.pt(lq), lq], axis=1)
    state = [x, s, eps, lq]

    nu = 2 * n
    iterations = np.zeros(b, dtype=int)
    mu_prev = np.full(b, np.inf)
    stalls = np.zeros(b, dtype=int)
    best_cert = np.full(b, -np.inf)
    best_q = lq.copy()
    # the contract can be met mid-run and lost again to roundoff drift,
    # so keep each member's best iterate seen for final reporting
    best_score = np.full(b, np.inf)
    snapshot = [a.copy() for a in state]
    # aim modestly past the contract: pushing mu much lower only feeds
    # Schur-complement roundoff back into the primal residual
    loop_gap_tol = max(gap_tol / 5.0, 1e-12)

    def measure(h, x, s, eps, lq):
        """Dual residual (H - eps I - Q^{T_A} - S1, Q - S2), primal residual
        norm, and the contract score (<= 1 means met) with the gap,
        feasibility and scale behind it."""
        rd = np.stack([h - _col(eps) * eye - B.pt(lq) - s[:, 0], lq - s[:, 1]], axis=1)
        rp_norm = _norm(B.b_vec - B.a_map(x))
        obj_p = _re_inner(h, x[:, 0])
        scale = np.maximum(1.0, np.abs(obj_p))
        gap = obj_p - eps
        feas = np.maximum(rp_norm, np.max(np.abs(rd), axis=(-3, -2, -1)))
        score = np.maximum(np.abs(gap) / (gap_tol * scale), feas / FEAS_TOL)
        return rd, rp_norm, score, gap, feas, scale

    def advance(members, *step_args):
        new = _step(B, h[members], *(a[members] for a in state), *step_args)
        for a, v in zip(state, new):
            a[members] = v

    active = np.arange(b)
    for it in range(1, MAX_ITER + 1):
        iterations[active] = it
        cur = [a[active] for a in state]
        mu = _re_inner(cur[0], cur[1]).sum(axis=1) / nu
        rd, rp_norm, score, gap, feas, scale = measure(h[active], *cur)
        better = score < best_score[active]
        best_score[active[better]] = score[better]
        for snap, a in zip(snapshot, cur):
            snap[active[better]] = a[better]
        # stall exit only once the path is deep: early centering
        # iterations legitimately hold mu flat while recovering centrality
        stalls[active] = np.where(mu > 0.9 * mu_prev[active], stalls[active] + 1, 0)
        mu_prev[active] = mu
        stop = (
            ((gap <= loop_gap_tol * scale) & (feas <= FEAS_TOL))
            | (mu < 1e-12 * scale)
            | ((stalls[active] >= 3) & (mu < 1e-6 * scale))
        )
        go = ~stop
        active = active[go]
        if not active.size:
            break
        step_args = [mu[go], rd[go], rp_norm[go]]
        try:
            advance(active, *step_args)
        except np.linalg.LinAlgError:
            # numeric breakdown: redo the step one member at a time so that
            # only the members that break down stop (and are certified)
            kept = []
            for j in range(len(active)):
                try:
                    advance(active[j : j + 1], *(v[j : j + 1] for v in step_args))
                    kept.append(j)
                except np.linalg.LinAlgError:
                    pass
            active = active[kept]

        if it % 5 == 0 and n > 9 and active.size:
            # large instances track a fallback certificate mid-run; small
            # ones converge reliably and certify once at the end
            c = _certify(h[active], lq[active], B)[0]
            up = c > best_cert[active]
            best_cert[active[up]] = c[up]
            best_q[active[up]] = lq[active[up]]

    # fall back to the best iterate where the final one scores worse
    back = best_score < measure(h, *state)[2]
    for a, snap in zip(state, snapshot):
        a[back] = snap[back]

    cert, q_psd, p = _certify(h, lq, B)
    worse = np.flatnonzero(cert < best_cert)
    if worse.size:
        cert[worse], q_psd[worse], p[worse] = _certify(h[worse], best_q[worse], B)

    obj_p = _re_inner(h, x[:, 0])
    rho = _herm(x[:, 0])
    tr = np.real(np.trace(rho, axis1=-2, axis2=-1))
    rho[tr > 0] /= _col(tr[tr > 0])
    rd, rp_norm = measure(h, *state)[:2]
    dual_res = np.max(np.abs(rd), axis=(-3, -2, -1))
    cert_gap = np.abs(obj_p - cert)
    converged = (
        (cert_gap <= gap_tol * np.maximum(1.0, np.abs(obj_p)))
        & (rp_norm <= FEAS_TOL)
        & (dual_res <= FEAS_TOL)
    )
    return [
        PPTResult(
            value=float(cert[k]),
            epsilon=float(eps[k]),
            objective=float(obj_p[k]),
            gap=float(cert_gap[k]),
            converged=bool(converged[k]),
            iterations=int(iterations[k]),
            rho=rho[k],
            witness_q=q_psd[k],
            witness_p=p[k],
            residuals={
                "primal": float(rp_norm[k]),
                "dual": float(dual_res[k]),
                "certified_vs_dual": float(abs(cert[k] - eps[k])),
            },
        )
        for k in range(b)
    ]


def solve_ppt_sdp(
    h: np.ndarray, dims: tuple[int, int], gap_tol: float = 1e-7
) -> PPTResult:
    """Minimize tr[H rho] over PPT states rho on a da x db system.

    The batch of one of :func:`solve_ppt_sdp_batch`: returns a
    :class:`PPTResult` whose ``value`` is always a certified lower bound;
    ``converged`` records whether the duality-gap and feasibility
    contracts (relative ``gap_tol``, absolute ``FEAS_TOL``) were met.
    """
    n = dims[0] * dims[1]
    h = np.asarray(h, dtype=complex)
    if h.shape != (n, n):
        raise ValueError(f"H has shape {h.shape}, expected {(n, n)}")
    return solve_ppt_sdp_batch(h[None], dims, gap_tol)[0]
