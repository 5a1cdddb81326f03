from itertools import groupby

import numpy as np
import pytest

from entgap.models import (
    ces_hamiltonian,
    choi_hamiltonian,
    heisenberg_pair,
    max_entangled_projector_hamiltonian,
    symmetric_projector_hamiltonian,
    upb_hamiltonian,
)
from entgap.operators import HermitianOperator, eig, partial_transpose_matrix
from entgap.separability import seesaw_upper
from entgap.thermo import (
    PPT_FLAG_TOL,
    bound_entanglement_window,
    entanglement_gap_temperature,
    gibbs_state,
    is_gibbs_ppt,
    scaled_gap_temperature,
    temperature_comparison,
    thermal_curve,
    thermal_energy,
)
from helpers import gibbs_reference, random_hermitian


def test_thermal_energy_limits():
    w = eig(max_entangled_projector_hamiltonian(2)).eigenvalues
    assert thermal_energy(w, 1e6) == pytest.approx(3 / 4, abs=1e-5)
    assert thermal_energy(w, 1 / np.log(3)) == pytest.approx(0.5, abs=1e-12)
    for t in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            thermal_energy(w, t)


def test_thermal_limits_against_spectrum_range():
    """beta = 50/E_tot reaches the ground energy to 1e-8 when the first
    excitation is a decent fraction of the range (exp(-50 Delta/E_tot)
    controls the error), and beta = 1e-6/E_tot reaches the mean."""
    rng = np.random.default_rng(0)
    spectra = [np.array([0.0, 1.0, 1.0, 1.0]), np.array([0.0, 0.0, 0.5, 1.0, 1.0])]
    spectra += [np.sort(np.concatenate([[0.0], rng.uniform(0.5, 1.0, 6)]))
                for _ in range(3)]
    for w in spectra:
        e_tot = w[-1] - w[0]
        assert abs(thermal_energy(w, e_tot / 50.0) - w[0]) < 1e-8
        # at small beta the deviation from the mean is beta * Var(E) exactly
        # to first order, so the tolerance must scale with beta
        var = float(np.var(w))
        assert abs(thermal_energy(w, e_tot / 1e-6) - w.mean()) < (
            2e-6 * var / e_tot + 1e-12
        )
        assert abs(thermal_energy(w, e_tot / 1e-8) - w.mean()) < 1e-8


def test_two_level_closed_form_matches_spectral():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g0 = rng.integers(1, 6)
        g1 = rng.integers(1, 10)
        w = np.array([0.0] * g0 + [1.0] * g1)
        t = float(rng.uniform(0.05, 5.0))
        beta = 1.0 / t
        closed = g1 * np.exp(-beta) / (g0 + g1 * np.exp(-beta))
        assert thermal_energy(w, t) == pytest.approx(closed, abs=1e-12)


def test_thermal_energy_monotone_in_temperature():
    rng = np.random.default_rng(2)
    w = eig(HermitianOperator(random_hermitian(6, rng), (6,))).eigenvalues
    grid = np.geomspace(0.01, 50, 40)
    us = [thermal_energy(w, t) for t in grid]
    assert all(b >= a - 1e-12 for a, b in zip(us, us[1:]))


def test_gibbs_state_is_density_matrix():
    h = choi_hamiltonian()
    spec = eig(h)
    rho = gibbs_state(spec, 0.7)
    assert rho.shape == h.matrix.shape
    assert abs(np.trace(rho).real - 1) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-12
    assert thermal_energy(spec.eigenvalues, 0.7) == pytest.approx(
        float(np.real(np.vdot(h.matrix.conj().T, rho))), abs=1e-10
    )


def test_gap_temperature_closed_forms():
    for d in range(2, 7):
        w_me = eig(max_entangled_projector_hamiltonian(d)).eigenvalues
        assert scaled_gap_temperature(w_me, 1 - 1 / d) == pytest.approx(
            1 / np.log(d + 1), abs=1e-6)
        w_s = eig(symmetric_projector_hamiltonian(d)).eigenvalues
        assert scaled_gap_temperature(w_s, 0.5) == pytest.approx(
            1 / np.log((d + 1) / (d - 1)), abs=1e-6)
    w_10 = eig(symmetric_projector_hamiltonian(10)).eigenvalues
    assert 4.9 <= scaled_gap_temperature(w_10, 0.5) <= 5.1


def test_gap_temperature_solves_defining_equation():
    w = eig(choi_hamiltonian()).eigenvalues
    t = entanglement_gap_temperature(w, 0.0)
    assert abs(thermal_energy(w, t) - 0.0) <= 1e-10


def test_bisections_stop_once_no_float_lies_between_the_ends(monkeypatch):
    """Below the float spacing of T a halving cannot move either end, so
    each bisection stops there instead of running to BISECT_CAP, and
    returns the value the cap would.  A float64 bracket spanning a binade
    or two closes to adjacent floats in about 53 halvings; the cap is 200."""
    import entgap.thermo as thermo

    calls = []
    _, x_true = thermo.bisect(
        lambda _, t: calls.append(t) or np.where(t > 1.0, 1.0, -1.0), [0.5], [2.0], 1e-300)
    assert x_true[0] == np.nextafter(1.0, 2.0)
    assert len(calls) <= 64

    spec = eig(choi_hamiltonian())
    t_default = entanglement_gap_temperature(spec.eigenvalues, 0.0)
    energy, ppt = thermo._thermal_energies, thermo.is_gibbs_ppt
    monkeypatch.setattr(thermo, "_thermal_energies", lambda w, t: calls.append(t) or energy(w, t))
    calls.clear()
    t = entanglement_gap_temperature(spec.eigenvalues, 0.0, tol=1e-300)
    assert t == pytest.approx(t_default, abs=1e-9)
    assert len(calls) <= 3 + 64  # three to bracket the crossing, then the halvings

    monkeypatch.setattr(thermo, "_thermal_energies", energy)
    monkeypatch.setattr(thermo, "is_gibbs_ppt",
                        lambda s, t: calls.append(np.size(t)) or ppt(s, t))
    calls.clear()
    window = bound_entanglement_window(spec, 0.0, t_min=1.0, t_max=1.5, refine_tol=1e-300)
    assert window == pytest.approx((1.256, 1.271), abs=0.01)
    assert sum(calls) <= 80 + 2 * 64  # the grid's temperatures, then both refined ends


def _scalar_gap_temperature(w, e_sep, tol):
    """The one-spectrum bisection the stacked one replaced, with its own
    copy of the thermal-energy formula."""
    from entgap.thermo import BISECT_CAP

    def energy(t):
        weights = np.exp(-(1.0 / t) * (w - w.min()))
        return float((w * weights).sum() / weights.sum())

    if not (float(w.min()) < e_sep < float(w.mean())):
        return None
    t_lo, t_hi = 1e-6, 1.0
    for _ in range(BISECT_CAP):
        if energy(t_lo) < e_sep:
            break
        t_lo /= 2
    for _ in range(BISECT_CAP):
        if energy(t_hi) > e_sep:
            break
        t_hi *= 2
    for _ in range(BISECT_CAP):
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid in (t_lo, t_hi):
            break
        u = energy(t_mid)
        if abs(u - e_sep) <= tol:
            return t_mid
        if u < e_sep:
            t_lo = t_mid
        else:
            t_hi = t_mid
    return 0.5 * (t_lo + t_hi)


@pytest.mark.parametrize("n_levels", [4, 9, 16])
@pytest.mark.parametrize("tol", [1e-10, 1e-300])
def test_stacked_gap_temperatures_equal_one_spectrum_at_a_time(n_levels, tol):
    """Every row of one stacked bisection is bitwise the scalar loop's
    result, NaN where that gives None: crossing and no-crossing rows mixed,
    e_sep at E0 and at the mean, and tol=1e-300, where every row stops on
    float spacing."""
    rng = np.random.default_rng(n_levels)
    w = rng.normal(size=(60, n_levels)) * rng.uniform(0.1, 10.0, size=(60, 1))
    e0, mean = w.min(axis=1), w.mean(axis=1)
    e_sep = e0 + rng.uniform(-0.2, 1.2, 60) * (mean - e0)
    e_sep[:3], e_sep[3:6] = e0[:3], mean[3:6]
    stacked = entanglement_gap_temperature(w, e_sep, tol=tol)
    reference = [_scalar_gap_temperature(row, e, tol) for row, e in zip(w, e_sep)]
    assert 0 < reference.count(None) < 40
    for t, ref, row, e in zip(stacked, reference, w, e_sep):
        assert (np.isnan(t) and ref is None) or t == ref
        assert entanglement_gap_temperature(row, e, tol=tol) == ref


def _scalar_bisect_bool(pred, x_false, x_true, tol):
    """The one-bracket boolean bisection the stacked ``bisect`` replaced."""
    from entgap.thermo import BISECT_CAP

    for _ in range(BISECT_CAP):
        if abs(x_true - x_false) <= tol:
            break
        mid = 0.5 * (x_true + x_false)
        if mid in (x_true, x_false):
            break
        if pred(mid):
            x_true = mid
        else:
            x_false = mid
    return x_true


def _scalar_window(spec, e_sep, t_min, t_max, refine_tol, n_grid=80):
    """The window with every grid point checked alone and each edge
    refined by its own scalar bisection, one temperature at a time."""

    def in_window(t):
        return thermal_energy(spec.eigenvalues, t) < e_sep and is_gibbs_ppt(spec, t)

    grid = np.geomspace(t_min, t_max, n_grid)
    flags = [in_window(float(t)) for t in grid]
    runs = [list(run) for flag, run in groupby(range(n_grid), flags.__getitem__) if flag]
    if not runs:
        return None
    widest = max(runs, key=len)
    lo_idx, hi_idx = widest[0], widest[-1]
    t_low, t_high = float(grid[lo_idx]), float(grid[hi_idx])
    if lo_idx > 0:
        t_low = _scalar_bisect_bool(in_window, float(grid[lo_idx - 1]), t_low, refine_tol)
    if hi_idx < n_grid - 1:
        t_high = _scalar_bisect_bool(in_window, float(grid[hi_idx + 1]), t_high, refine_tol)
    return (t_low, t_high)


def _window_cases():
    """(spectrum, e_sep, t_min, t_max): Choi and the Tiles UPB at their
    separable energies, then random 3x3 operators at 80% and 95% of the
    way from E0 to the mean, whose windows end inside and on the grid."""
    upb = upb_hamiltonian()
    cases = [(eig(choi_hamiltonian()), 0.0, 0.5, 2.0),
             (eig(upb), seesaw_upper(upb, restarts=32, seed=0)[0], 0.01, 1.0)]
    rng = np.random.default_rng(27)
    for _ in range(6):
        spec = eig(HermitianOperator(random_hermitian(9, rng), (3, 3)))
        w = spec.eigenvalues
        cases += [(spec, float(w.min() + f * (w.mean() - w.min())), 0.05, 20.0)
                  for f in (0.8, 0.95)]
    return cases


@pytest.mark.parametrize("refine_tol", [1e-4, 1e-300])
def test_stacked_window_edges_equal_scalar_bisections(refine_tol):
    """Both edges refined in one stacked bisection are bitwise what two
    scalar boolean bisections give, at a loose tolerance and at one where
    every edge stops on float spacing."""
    refined = 0
    for spec, e_sep, t_min, t_max in _window_cases():
        window = bound_entanglement_window(spec, e_sep, t_min=t_min, t_max=t_max,
                                           refine_tol=refine_tol)
        assert window == _scalar_window(spec, e_sep, t_min, t_max, refine_tol)
        refined += sum(t not in np.geomspace(t_min, t_max, 80) for t in window)
    assert refined >= 10  # most edges fall between grid points


@pytest.mark.parametrize("tol", [1e-10, 1e-300])
def test_e2_bounds_equal_scalar_bisections(tol):
    """Both curves of ``e2_bounds`` are bitwise the scalar boolean
    bisection's roots on 60 values of E1 in (1/4, 1]."""
    from entgap.twoqubit import AFM_SCALED_T, e2_bounds

    def reference(e1):
        def u(e2):
            return thermal_energy(np.array([0.0, e1, e2, 1.0]), AFM_SCALED_T)

        def root(f):
            if f(e1) > 0:
                return e1
            if f(1.0) < 0:
                return 1.0
            return _scalar_bisect_bool(lambda e2: f(e2) >= 0, e1, 1.0, tol)

        return (root(lambda e2: u(e2) - (e1 + 1.0) / 4.0),
                root(lambda e2: e2 / 2.0 - u(e2)))

    bounds = [e2_bounds(float(e1), tol=tol) for e1 in np.linspace(0.25, 1.0, 61)[1:]]
    assert bounds == [reference(float(e1)) for e1 in np.linspace(0.25, 1.0, 61)[1:]]
    assert sum(0.25 < lb < 1.0 for lb, _ in bounds) >= 20  # roots, not clamps


def test_scaled_gap_temperature_scales_each_row_by_its_own_range():
    """A stack divides each row by its own spectral range: every row is
    what it gives alone, and a row with no crossing stays NaN."""
    w = np.array([[0.0, 1.0, 1.0, 1.0], [0.0, 2.0, 2.0, 2.0], [0.0, 1.0, 3.0, 4.0]])
    e_sep = np.array([0.5, 1.0, 5.0])
    stacked = scaled_gap_temperature(w, e_sep)
    assert stacked[:2].tolist() == [scaled_gap_temperature(w[i], e_sep[i]) for i in (0, 1)]
    assert stacked[:2] == pytest.approx(1 / np.log(3), abs=1e-9)
    assert np.isnan(stacked[2]) and scaled_gap_temperature(w[2], 5.0) is None
    assert type(scaled_gap_temperature(w[1], 1.0)) is float


def test_gap_temperature_refuses_an_e_sep_of_the_wrong_shape():
    w = np.array([[0.0, 1.0, 1.0, 1.0], [0.0, 2.0, 2.0, 2.0]])
    with pytest.raises(ValueError, match=r"\(2, 4\).*\(\)"):
        entanglement_gap_temperature(w, 0.5)
    with pytest.raises(ValueError, match=r"\(2, 4\).*\(3,\)"):
        entanglement_gap_temperature(w, np.array([0.5, 1.0, 1.0]))


def test_gap_temperature_no_finite_solution():
    w = eig(heisenberg_pair()).eigenvalues
    assert entanglement_gap_temperature(w, -3.0) is None  # zero gap
    assert entanglement_gap_temperature(w, 100.0) is None  # above the mean


def test_thermal_curve_invariants_and_flags(monkeypatch):
    import entgap.thermo as thermo

    spec = eig(heisenberg_pair())
    curve = thermal_curve(spec, np.geomspace(0.1, 10, 12))
    # low-temperature Gibbs state of the AFM is NPT, high-temperature is PPT
    assert curve[0][2] is False
    assert curve[-1][2] is True
    with pytest.raises(ValueError, match="strictly increasing"):
        thermal_curve(spec, [1.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        thermal_curve(spec, [2.0, 1.0])
    # U(T) rises with T for every spectrum (dU/dT = Var(E)/T^2), so only a
    # broken thermal energy can trip the curve's second check
    monkeypatch.setattr(thermo, "thermal_energy", lambda w, t: -np.asarray(t))
    with pytest.raises(ValueError, match="non-decreasing in T"):
        thermal_curve(spec, [1.0, 2.0])


def test_curve_and_window_eigendecompose_once(monkeypatch):
    """One ``eig`` of the Hamiltonian feeds both the curve and the window:
    neither decomposes the Hamiltonian again, through ``eig`` or
    ``np.linalg.eigvalsh``."""
    import entgap.thermo as thermo

    h = choi_hamiltonian()
    calls = []
    real_eig = thermo.eig
    real_eigvalsh = np.linalg.eigvalsh

    def counting_eig(op):
        calls.append("eig")
        return real_eig(op)

    def counting_eigvalsh(a, *args, **kwargs):
        if np.shape(a) == h.matrix.shape and np.array_equal(a, h.matrix):
            calls.append("eigvalsh")
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(thermo, "eig", counting_eig)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    spec = thermo.eig(h)
    assert calls == ["eig"]
    calls.clear()
    temps = np.geomspace(0.5, 2.0, 9)
    curve = thermal_curve(spec, temps)
    assert calls == []
    assert [s[2] for s in curve] == [is_gibbs_ppt(spec, t) for t in temps]
    assert bound_entanglement_window(spec, 0.0, t_min=0.5, t_max=2.0) is not None
    assert calls == []


def _stacked_models():
    from entgap.lattices import LatticeSpec, assemble

    rng = np.random.default_rng(24)
    return {
        "choi": choi_hamiltonian(),
        "ces:4": ces_hamiltonian(4),
        "heisenberg-chain:3": assemble(LatticeSpec.chain(3), heisenberg_pair()).dense,
        "random-2x4": HermitianOperator(random_hermitian(8, rng), (2, 4)),
    }


@pytest.mark.parametrize("name", list(_stacked_models()))
def test_stacked_gibbs_layer_equals_one_temperature_at_a_time(name, monkeypatch):
    """Gibbs states, PPT flags and the curve over a grid are bitwise what
    one HermitianOperator Gibbs state per temperature gives, whatever the
    chunk: one temperature per stack, three, or the default."""
    import entgap.thermo as thermo

    spec = eig(_stacked_models()[name])
    temps = np.geomspace(0.05, 5.0, 40)
    reference = [gibbs_reference(spec, float(t)) for t in temps]
    rho = gibbs_state(spec, temps)
    assert rho.shape == (40,) + spec.eigenvectors.shape
    for i, (rho_ref, _, _) in enumerate(reference):
        assert np.array_equal(rho[i], rho_ref)
        assert np.array_equal(gibbs_state(spec, float(temps[i])), rho_ref)
    da = spec.dims[0]
    low = np.linalg.eigvalsh(partial_transpose_matrix(rho, da, rho.shape[-1] // da))[:, 0]
    assert low.tolist() == [r[1] for r in reference]
    flags = [r[1] >= PPT_FLAG_TOL for r in reference]
    assert 0 < sum(flags) < 40  # the grid crosses from NPT to PPT
    assert thermal_curve(spec, temps) == [
        (float(t), u, f) for t, (_, _, u), f in zip(temps, reference, flags)
    ]
    n = spec.eigenvalues.size
    for chunk in (1, 3 * n * n, thermo.GIBBS_CHUNK):
        monkeypatch.setattr(thermo, "GIBBS_CHUNK", chunk)
        assert is_gibbs_ppt(spec, temps).tolist() == flags
        assert [is_gibbs_ppt(spec, float(t)) for t in temps] == flags


def test_gibbs_stacks_hold_a_bounded_number_of_entries():
    """A grid of four chunks peaks at what one chunk's Gibbs stack and its
    partial transpose need (about 4.1 stacks of ``GIBBS_CHUNK`` complex
    entries), not at four times that."""
    import tracemalloc

    import entgap.thermo as thermo

    spec = eig(choi_hamiltonian())
    temps = np.geomspace(0.05, 5.0, 4 * (thermo.GIBBS_CHUNK // 81))
    is_gibbs_ppt(spec, temps[:2])
    tracemalloc.start()
    try:
        is_gibbs_ppt(spec, temps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * thermo.GIBBS_CHUNK * 16 + temps.size * 32


def test_afm_gap_temperature_scaled():
    # scaled AFM has spectrum {0,1,1,1} and e_sep 1/2
    h = HermitianOperator((heisenberg_pair().matrix + 3 * np.eye(4)) / 4, (2, 2))
    t = scaled_gap_temperature(eig(h).eigenvalues, 0.5)
    assert t == pytest.approx(1 / np.log(3), abs=1e-9)


def test_choi_window_matches_reference():
    w = bound_entanglement_window(eig(choi_hamiltonian()), 0.0, t_min=0.5, t_max=2.0)
    assert w is not None
    assert w[0] == pytest.approx(1.256, abs=0.01)
    assert w[1] == pytest.approx(1.271, abs=0.01)


def test_choi_gibbs_ppt_at_reference_temperature():
    spec = eig(choi_hamiltonian())
    assert is_gibbs_ppt(spec, 1.26)
    assert not is_gibbs_ppt(spec, 1.0)


def test_heisenberg_window_empty():
    assert bound_entanglement_window(eig(heisenberg_pair()), -1.0, t_min=0.05, t_max=5.0) is None


def test_upb_window_nonempty_at_low_temperature():
    h = upb_hamiltonian()
    e_sep, _ = seesaw_upper(h, restarts=32, seed=0)
    w = bound_entanglement_window(eig(h), e_sep, t_min=0.01, t_max=1.0)
    assert w is not None
    assert w[0] == pytest.approx(0.01, abs=1e-9)  # window starts below the grid
    assert w[1] > 0.05


def test_gibbs_ppt_flag_on_multipartite_state():
    from entgap.lattices import LatticeSpec, assemble

    asm = assemble(LatticeSpec.chain(3), heisenberg_pair())
    # default cut {0}|{1,2}: entangled at low T, PPT at high T
    spec = eig(asm.dense)
    assert not is_gibbs_ppt(spec, 0.2)
    assert is_gibbs_ppt(spec, 50.0)


def test_temperature_comparison_orderings():
    rows = temperature_comparison(dims=(3, 4), seed=0)
    by_d = {r["d"]: r for r in rows}
    assert by_d[3]["t_symproj"] == pytest.approx(1.4427, abs=1e-3)
    assert by_d[3]["t_maxent"] == pytest.approx(0.7213, abs=1e-3)
    assert by_d[4]["t_symproj"] == pytest.approx(1.958, abs=1e-3)
    for r in rows:
        lo, hi = r["t_ces_bracket"]
        assert lo <= hi + 1e-9
        assert r["t_symproj"] > hi


def test_ces_bracket_closes_below_the_symmetric_projector():
    for r in temperature_comparison(dims=(3, 4, 5, 6), seed=0):
        lo, hi = r["t_ces_bracket"]
        assert abs(hi - lo) <= 1e-6
        assert r["t_symproj"] > hi
