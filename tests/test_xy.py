import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import ellipe

from entgap import xy
from entgap.lattices import LatticeSpec, assemble
from entgap.models import xy_pair
from entgap.operators import eig
from entgap.separability import seesaw_upper
from entgap.xy import (
    dispersion,
    xy_chain_energy_extrema,
    xy_gap_surface,
    xy_sep_energy,
)


# the oracle for the closed form; the acceptance suite imports it too
def pair_energy(gamma, lam, theta_a, phi_a, theta_b, phi_b):
    """Energy of the product of two Bloch vectors under the XY coupling."""
    return (
        lam / 2 * (np.cos(2 * theta_a) + np.cos(2 * theta_b))
        + (1 + gamma) / 2
        * np.cos(phi_a) * np.sin(2 * theta_a) * np.cos(phi_b) * np.sin(2 * theta_b)
        + (1 - gamma) / 2
        * np.sin(phi_a) * np.sin(2 * theta_a) * np.sin(phi_b) * np.sin(2 * theta_b)
    )


def xy_sep_energy_numeric(
    gamma: float, lam: float, n_starts: int = 24, seed: int = 0
) -> float:
    """Direct 4-angle minimization of the product energy (multi-start
    local descent); an independent check on the closed form."""
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(n_starts):
        x0 = rng.uniform([0, 0, 0, 0], [np.pi / 2, 2 * np.pi, np.pi / 2, 2 * np.pi])
        res = minimize(
            lambda x: pair_energy(gamma, lam, *x),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
        )
        best = min(best, float(res.fun))
    return best


def test_sep_energy_reference_points():
    assert xy_sep_energy(1.0, 0.0)[0] == pytest.approx(-1.0)
    assert xy_sep_energy(1.0, 1.0)[0] == pytest.approx(-1.25)
    assert xy_sep_energy(0.5, 2.0)[0] == pytest.approx(-2.0)
    assert xy_sep_energy(0.0, 0.0)[0] == pytest.approx(-0.5)


def test_sep_energy_state_reproduces_value_exactly():
    for g in (0.0, 0.3, 1.0, -0.6):
        for l in (0.0, 0.9, 1.7, -1.2):
            value, state = xy_sep_energy(g, l)
            assert state.energy(xy_pair(g, l)) == pytest.approx(value, abs=1e-12)


def test_closed_form_matches_numeric_grid():
    worst = 0.0
    for g in np.arange(0.0, 1.01, 0.25):
        for l in np.arange(0.0, 2.01, 0.25):
            closed, _ = xy_sep_energy(g, l)
            numeric = xy_sep_energy_numeric(g, l, n_starts=6, seed=2)
            worst = max(worst, abs(closed - numeric))
    assert worst <= 1e-8


def test_ring_fermion_solution_matches_exact_diagonalization():
    for g, l in ((1.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.0, 0.7), (0.7, 1.3)):
        for n in (4, 6, 8):
            spectrum = eig(assemble(LatticeSpec.ring(n), xy_pair(g, l)).dense)
            e0, e_max = xy_chain_energy_extrema(g, l, ("ring", n))
            assert e0 == pytest.approx(spectrum.e0 / n, abs=1e-10)
            assert e_max == pytest.approx(spectrum.e_max / n, abs=1e-10)
    with pytest.raises(ValueError):
        xy_chain_energy_extrema(1.0, 0.0, ("ring", 5))
    with pytest.raises(ValueError):
        xy_chain_energy_extrema(1.0, 0.0, ("torus", 4))


def test_thermodynamic_quadrature_vs_ring_extrapolation():
    for g, l in ((1.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.0, 0.0)):
        e_inf, e_max_inf = xy_chain_energy_extrema(g, l)
        sizes = np.array([8, 10, 12, 14])
        per_site = np.array(
            [xy_chain_energy_extrema(g, l, ("ring", int(n)))[0] for n in sizes]
        )
        design = np.vstack([np.ones_like(sizes, dtype=float), 1.0 / sizes ** 2]).T
        coef, *_ = np.linalg.lstsq(design, per_site, rcond=None)
        assert abs(coef[0] - e_inf) < 1e-3
        # finite rings lie at or below the thermodynamic value
        assert np.all(per_site <= e_inf + 1e-12)
        # the approach is monotone except where incommensurate mode filling
        # makes finite-size corrections oscillate, as at (0.5, 0.5); the
        # fermion solution there is ED-exact, so the dip is physical
        if (g, l) != (0.5, 0.5):
            assert np.all(np.diff(per_site) >= -1e-12)
        assert e_max_inf == pytest.approx(-e_inf, abs=1e-12)


def test_zero_gap_curve():
    for g in (0.2, 0.4, 0.6, 0.8, 1.0):
        l = float(np.sqrt(1 - g * g))
        e_sep, _ = xy_sep_energy(g, l)
        e0, _ = xy_chain_energy_extrema(g, l)
        assert abs(e_sep - e0) <= 1e-6


def test_field_dominated_limit():
    e0, _ = xy_chain_energy_extrema(0.5, 60.0)
    assert e0 == pytest.approx(-60.0, rel=1e-3)


def test_gap_surface_structure():
    pts = xy_gap_surface(np.arange(0, 1.01, 0.5), np.arange(0, 2.01, 0.25))
    assert len(pts) == 3 * 9
    for p in pts:
        assert p.gap_bond >= -1e-9
        assert 0.0 <= p.scaled_gap <= 1.0
        assert p.gap_bond == pytest.approx(p.e_sep_bond - p.e0_site, abs=1e-12)
    with pytest.raises(ValueError):
        xy_gap_surface([], [1.0])


def test_gamma_one_slice_unimodal():
    pts = xy_gap_surface([1.0], np.arange(0.0, 2.001, 0.05))
    gaps = np.array([p.scaled_gap for p in pts])
    d = np.sign(np.diff(gaps))
    d = d[d != 0]
    flips = int(np.count_nonzero(d[1:] != d[:-1]))
    assert flips <= 1  # rises once, falls once


def test_bipartite_reduction_consistency_ring8():
    g, l = 0.7, 0.9
    per_bond, _ = seesaw_upper(xy_pair(g, l), restarts=16, seed=0)
    assert per_bond == pytest.approx(xy_sep_energy(g, l)[0], abs=1e-9)


def test_dispersion_closes_only_at_critical_points():
    k = np.linspace(0, np.pi, 200)
    assert dispersion(k, 0.5, 1.0).min() < 1e-8 or np.isclose(
        dispersion(np.pi, 0.5, 1.0), 0.0, atol=1e-12
    )
    assert dispersion(k, 0.5, 0.5).min() > 0.1


# near the critical line lambda = 1 and the isotropic line gamma = 0, where
# the dispersion has a kink or a near-kink inside the zone or at its edge
NEAR_CRITICAL = [(1e-6, 1.0), (1e-3, 1.0), (1e-3, 0.999), (0.05, 1.0), (1e-8, 0.5), (0.0, 1 + 1e-7)]


def bz_average_quad(gamma, lam):
    """Brillouin-zone average of half the dispersion by SciPy's adaptive
    quadrature, broken where the dispersion closes at gamma = 0; an
    independent oracle."""
    val, _ = quad(lambda k: dispersion(k, gamma, lam) / 2, 0.0, np.pi,
                  points=[np.arccos(-lam)] if abs(lam) <= 1 else None,
                  epsabs=1e-12, epsrel=1e-12, limit=300)
    return val / np.pi


def test_isotropic_closed_form():
    """At gamma = 0 the dispersion is 2|lambda + cos k|, whose zone average
    is (2/pi)(sqrt(1 - lambda^2) + lambda arcsin lambda) for |lambda| <= 1
    and |lambda| beyond."""
    lams = np.concatenate([np.linspace(-2.5, 2.5, 51), [1 - 1e-9, 1 + 1e-7, -1 + 1e-12]])
    inside = np.abs(lams) <= 1
    closed = np.where(
        inside,
        2 / np.pi * (np.sqrt(1 - np.minimum(lams**2, 1)) + lams * np.arcsin(np.clip(lams, -1, 1))),
        np.abs(lams),
    )
    e0 = np.array([p.e0_site for p in xy_gap_surface([0.0], lams)])
    assert np.max(np.abs(-e0 - closed)) <= 1e-14


def test_ising_closed_form():
    """At gamma = 1 the zone average is (2/pi)(1 + lambda) E(4 lambda / (1 + lambda)^2),
    E the complete elliptic integral of the second kind in parameter m."""
    lams = np.concatenate([np.linspace(0.0, 3.0, 61), [1 - 1e-6, 1 + 1e-6]])
    closed = 2 / np.pi * (1 + lams) * ellipe(4 * lams / (1 + lams) ** 2)
    e0 = np.array([p.e0_site for p in xy_gap_surface([1.0], lams)])
    assert np.max(np.abs(-e0 - closed)) <= 1e-14


def test_zone_average_matches_scipy_quadrature():
    gammas, lams = np.arange(0, 1.025, 0.05), np.arange(0, 2.025, 0.05)
    surface = xy_gap_surface(gammas, lams)
    worst = max(abs(p.e_max_site - bz_average_quad(p.gamma, p.lam)) for p in surface)
    assert worst <= 1e-13
    for g, l in NEAR_CRITICAL:
        e0, e_max = xy_chain_energy_extrema(g, l)
        assert e_max == -e0
        assert abs(e_max - bz_average_quad(g, l)) <= 1e-13


def test_capped_refinement_raises(monkeypatch):
    # (1e-3, 1) needs 10 rounds
    monkeypatch.setattr(xy, "MAX_ROUNDS", 2)
    with pytest.raises(RuntimeError, match="after 2 halvings"):
        xy_chain_energy_extrema(1e-3, 1.0)
    monkeypatch.undo()
    # an integrand that overflows never settles; the panel cap stops it
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError, match="panels left"):
        xy_chain_energy_extrema(0.5, 1e200)
