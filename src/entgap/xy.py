"""Closed forms and free-fermion solution for the transverse-field XY chain.

The two-site coupling is (1+g)/2 XX + (1-g)/2 YY + l/2 (Z+Z); on a ring
each site sits in two bonds, so the half-field per bond sums to a full
field per site.  A Jordan-Wigner transformation makes the ring
quadratic in fermions; the one-particle energy is
2*sqrt((l + cos k)^2 + g^2 sin^2 k), and the ground energy per site in
the thermodynamic limit is minus its average over the Brillouin zone.
Ring diagonalization is validated against exact diagonalization of the
spin problem in the test suite (boundary conventions are where
derivations die).
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


def _bz_average(gamma: float, lam: float) -> float:
    """Brillouin-zone average of half the dispersion, with quadrature
    break points at the kinks where the dispersion touches zero."""
    from scipy.integrate import quad

    points = []
    if gamma == 0.0 and abs(lam) <= 1.0:
        points.append(float(np.arccos(-lam)))
    if abs(lam) == 1.0:
        points.append(np.pi if lam > 0 else 0.0)
    val, _ = quad(
        lambda k: dispersion(k, gamma, lam) / 2.0,
        0.0,
        np.pi,
        points=points or None,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=300,
    )
    return val / np.pi


def _ring_quadratic_extrema(gamma: float, lam: float, n: int):
    """Ground and top energies of the fermion quadratic form, minimized /
    maximized over the two boundary (parity) sectors."""
    e0 = np.inf
    e_max = -np.inf
    for boundary in (+1.0, -1.0):
        a = np.zeros((n, n))
        b = np.zeros((n, n))
        np.fill_diagonal(a, -2.0 * lam)
        for j in range(n):
            jn = (j + 1) % n
            coeff = boundary if jn == 0 else 1.0
            a[j, jn] += -1.0 * coeff
            a[jn, j] += -1.0 * coeff
            b[j, jn] += -gamma * coeff
            b[jn, j] += +gamma * coeff
        m = np.block([[a, b], [-b, -a]])
        eps = np.linalg.eigvalsh(m)[n:]  # the n non-negative branches
        const = lam * n + 0.5 * np.trace(a)
        e0 = min(e0, const - 0.5 * eps.sum())
        e_max = max(e_max, const + 0.5 * eps.sum())
    return e0, e_max


def xy_chain_energy_extrema(gamma: float, lam: float, mode="thermodynamic"):
    """Per-site ground and maximum energies of the XY ring.

    ``mode`` is "thermodynamic" (adaptive quadrature over the Brillouin
    zone) or ("ring", N) with N even (diagonalize the quadratic fermion
    form in both boundary sectors and take the extremes).  The spectrum
    is symmetric about zero, so the top of the band mirrors the bottom.
    """
    if mode == "thermodynamic":
        avg = _bz_average(gamma, lam)
        return -avg, avg
    kind, n = mode
    if kind != "ring":
        raise ValueError(f"unknown mode {mode!r}")
    if n % 2 != 0:
        raise ValueError("ring mode needs even N")
    e0, e_max = _ring_quadratic_extrema(gamma, lam, n)
    return e0 / n, e_max / n


def xy_gap_surface(gamma_grid, lambda_grid) -> list[XYPoint]:
    """Entanglement gap per bond over a (gamma, lambda) grid in the
    thermodynamic limit; one bond per site on the ring."""
    gammas = np.atleast_1d(np.asarray(gamma_grid, dtype=float))
    lams = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    if gammas.size == 0 or lams.size == 0:
        raise ValueError("grids must be non-empty")
    points = []
    for g in gammas:
        for l in lams:
            e_sep, _ = xy_sep_energy(g, l)
            e0, e_max = xy_chain_energy_extrema(g, l)
            gap = e_sep - e0
            e_tot = e_max - e0
            points.append(
                XYPoint(
                    gamma=float(g),
                    lam=float(l),
                    e_sep_bond=e_sep,
                    e0_site=e0,
                    e_max_site=e_max,
                    gap_bond=gap,
                    scaled_gap=gap / e_tot if e_tot > 0 else 0.0,
                )
            )
    return points
