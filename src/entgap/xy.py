"""Closed forms and free-fermion solution for the transverse-field XY chain.

The two-site coupling is (1+g)/2 XX + (1-g)/2 YY + l/2 (Z+Z); on a ring
each site sits in two bonds, so the half-field per bond sums to a full
field per site.  A Jordan-Wigner transformation makes the ring
quadratic in fermions; the one-particle energy is
2*sqrt((l + cos k)^2 + g^2 sin^2 k), and the ground energy per site in
the thermodynamic limit is minus its average over the Brillouin zone,
taken by adaptive Gauss-Legendre panels for a whole grid of points at
once, with numpy alone.  An N-site ring sums it over each boundary
(parity) sector's momenta, k = 2 pi m / N and 2 pi (m + 1/2) / N, and
takes the lower sector; the test suite checks this against exact
diagonalization (boundary conventions are where derivations die).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .separability import ProductState


@dataclass(frozen=True)
class XYPoint:
    """One (anisotropy, field) point of the gap surface."""

    gamma: float
    lam: float
    e_sep_bond: float
    e0_site: float
    e_max_site: float
    gap_bond: float
    scaled_gap: float


def xy_sep_energy(gamma: float, lam: float):
    """Minimum separable energy of the XY coupling, with an optimal state.

    For the first quadrant the optimum is
    -((1+g)^2 + l^2) / (2(1+g)) while l <= 1+g, and -l beyond (both
    spins polarized).  Other quadrants map onto it: l -> -l under a
    global spin flip about x, g -> -g under a z-rotation by pi/2 that
    exchanges the xx and yy channels; the returned factors carry those
    unitaries so the energy is exact for the original parameters.
    """
    g_abs, l_abs = abs(gamma), abs(lam)
    one_g = 1.0 + g_abs
    if l_abs <= one_g:
        energy = -(one_g ** 2 + l_abs ** 2) / (2 * one_g)
        up = np.sqrt((one_g - l_abs) / (2 * one_g))
        dn = np.sqrt((one_g + l_abs) / (2 * one_g))
        a = np.array([up, dn], dtype=complex)
        b = np.array([up, -dn], dtype=complex)
    else:
        energy = -l_abs
        a = np.array([0.0, 1.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
    if lam < 0:
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        a, b = flip @ a, flip @ b
    if gamma < 0:
        rot = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        a, b = rot @ a, rot @ b
    return energy, ProductState((a, b))


def dispersion(k, gamma: float, lam: float):
    """One-particle energy of the ring fermion problem."""
    return 2.0 * np.sqrt((lam + np.cos(k)) ** 2 + (gamma * np.sin(k)) ** 2)


# 1e-12 left errors of 1.4e-12 at (gamma, lambda) = (1, 1 + 1e-6), where a
# near-kink sits on the zone's edge; 1e-13 brings them to 5e-16
TOL = 1e-13
MAX_ROUNDS = 60  # halvings; a panel of width pi / 2**60 is below float spacing
CHUNK = 64  # points refined together
MAX_PANELS = 2**12  # unresolved panels one chunk may carry into a round


def _bz_average(gamma, lam) -> np.ndarray:
    """Brillouin-zone average of half the dispersion at each (gamma, lam)
    pair of two equal-length 1-D arrays.

    Adaptive Gauss-Legendre over [0, pi] for all points at once: each
    point's zone is cut where the dispersion closes (cos k = -lam, for
    |lam| <= 1) and where its square is stationary in cos k
    (cos k = -lam / (1 - gamma^2)), so the kinks and near-kinks of the
    critical lines sit on panel edges.  A panel is accepted when its 10-
    and 20-node sums agree to ``TOL`` times the larger of its share of the
    zone and its 20-node sum, which it then contributes; otherwise it is
    halved.  Points go through in chunks of ``CHUNK``.  A chunk that still
    has panels after ``MAX_ROUNDS`` halvings, or more than ``MAX_PANELS``
    of them, raises RuntimeError.
    """
    from numpy.polynomial.legendre import leggauss

    (t10, w10), (t20, w20) = leggauss(10), leggauss(20)
    nodes = np.concatenate([t10, t20])
    weights = np.zeros((30, 2))  # a column per rule over the 30 nodes
    weights[:10, 0], weights[10:, 1] = w10, w20
    gamma, lam = np.atleast_1d(np.asarray(gamma, dtype=float), np.asarray(lam, dtype=float))
    out = np.empty(gamma.size)
    for start in range(0, gamma.size, CHUNK):
        part = slice(start, start + CHUNK)
        out[part] = _refine(gamma[part], lam[part], nodes, weights)
    return out


def _refine(g, l, nodes, weights) -> np.ndarray:
    """``_bz_average`` over one chunk of points."""
    n = g.size
    with np.errstate(divide="ignore", invalid="ignore"):
        splits = np.arccos(np.column_stack([-l, -l / (1.0 - g * g)]))  # nan off [-1, 1]
    edges = np.column_stack([np.zeros(n), np.where(np.isnan(splits), np.pi, splits),
                             np.full(n, np.pi)])
    edges.sort(axis=1)
    point = np.repeat(np.arange(n), 3)
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    keep = b > a
    point, a, b = point[keep], a[keep], b[keep]
    total = np.zeros(n)
    rounds = 0
    while point.size:
        if rounds == MAX_ROUNDS or point.size > MAX_PANELS:
            first = point[0]
            raise RuntimeError(
                f"Brillouin-zone average not within {TOL:g} after {rounds} halvings: "
                f"{point.size} panels left, first at gamma={float(g[first])!r}, "
                f"lambda={float(l[first])!r}"
            )
        rounds += 1
        half, mid = (b - a) / 2, (a + b) / 2
        f = dispersion(mid[:, None] + half[:, None] * nodes, g[point, None], l[point, None])
        q10, q20 = (half[:, None] * (f @ weights) / (2 * np.pi)).T
        done = np.abs(q20 - q10) <= TOL * np.maximum(q20, 2 * half / np.pi)
        total += np.bincount(point[done], weights=q20[done], minlength=n)
        point, a, mid, b = point[~done], a[~done], mid[~done], b[~done]
        point, a, b = np.concatenate([point, point]), np.concatenate([a, mid]), np.concatenate([mid, b])
    return total


def xy_chain_energy_extrema(gamma: float, lam: float, mode="thermodynamic"):
    """Per-site ground and maximum energies of the XY ring.

    ``mode`` is "thermodynamic" (the one-point case of the adaptive
    Gauss-Legendre average over the Brillouin zone) or ("ring", N) with
    N even (the dispersion summed over each boundary sector's momenta,
    taking the lower sector).  The spectrum is symmetric about zero, so
    the top of the band mirrors the bottom.
    """
    if mode == "thermodynamic":
        avg = float(_bz_average(gamma, lam)[0])
        return -avg, avg
    kind, n = mode
    if kind != "ring":
        raise ValueError(f"unknown mode {mode!r}")
    if n % 2 != 0:
        raise ValueError("ring mode needs even N")
    k = 2 * np.pi * (np.arange(n) + np.array([[0.0], [0.5]])) / n  # each sector's momenta
    e0 = -0.5 * float(dispersion(k, gamma, lam).sum(axis=1).max()) / n
    return e0, -e0


def xy_gap_surface(gamma_grid, lambda_grid) -> list[XYPoint]:
    """Entanglement gap per bond over a (gamma, lambda) grid in the
    thermodynamic limit; one bond per site on the ring.  The ground
    energies of the whole grid come from one Brillouin-zone pass."""
    gammas = np.atleast_1d(np.asarray(gamma_grid, dtype=float))
    lams = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    if gammas.size == 0 or lams.size == 0:
        raise ValueError("grids must be non-empty")
    g, l = (grid.ravel() for grid in np.meshgrid(gammas, lams, indexing="ij"))
    points = []
    for gamma, lam, avg in zip(g.tolist(), l.tolist(), _bz_average(g, l).tolist()):
        e_sep, _ = xy_sep_energy(gamma, lam)
        e0, e_max = -avg, avg
        gap = e_sep - e0
        e_tot = e_max - e0
        points.append(
            XYPoint(
                gamma=gamma,
                lam=lam,
                e_sep_bond=e_sep,
                e0_site=e0,
                e_max_site=e_max,
                gap_bond=gap,
                scaled_gap=gap / e_tot if e_tot > 0 else 0.0,
            )
        )
    return points
