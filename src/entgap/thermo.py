"""Gibbs states, thermal energy, and the entanglement-gap temperature.

Temperatures are in energy units (k_B = 1).  The entanglement-gap
temperature is where the thermal energy crosses a given separable
energy; below it the thermal state is certified entangled by its energy
alone.  Monotonicity of U(T) makes every crossing a bisection.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .models import (
    ces_hamiltonian,
    max_entangled_projector_hamiltonian,
    symmetric_projector_hamiltonian,
)
from .operators import Spectrum, eig, partial_transpose_matrix
# ppt_lower stays importable from this module, where perfbench's tracer
# tests look for it; the comparison reaches it through sep_bracket
from .separability import ppt_lower, sep_bracket  # noqa: F401

PPT_FLAG_TOL = -1e-10
BISECT_CAP = 200
GIBBS_CHUNK = 2**18  # matrix entries in one stack of Gibbs states: 4 MiB of complex128


def _temperature_axis(temperature) -> np.ndarray:
    """``temperature`` as a 1-D float array; ValueError unless all are positive."""
    t = np.atleast_1d(np.asarray(temperature, dtype=float))
    bad = t[~(t > 0)]
    if bad.size:
        raise ValueError(f"temperature must be positive, got {float(bad[0])}")
    return t


def thermal_energy(levels, temperature):
    """U(T) = sum_i E_i exp(-E_i/T) / sum_i exp(-E_i/T) over the energy
    levels, with the usual max-shift for stability: a float for one
    temperature, an array for a 1-D array of them."""
    t = _temperature_axis(temperature)
    u = _thermal_energies(np.asarray(levels, dtype=float)[None], t)
    return float(u[0]) if np.ndim(temperature) == 0 else u


def _thermal_energies(w: np.ndarray, temperatures: np.ndarray) -> np.ndarray:
    """U of each row of the (S, L) levels ``w`` at its own temperature;
    one row of levels (1, L) is shared by every temperature."""
    beta = 1.0 / temperatures
    x = -beta[:, None] * (w - w.min(axis=1, keepdims=True))
    weights = np.exp(x)
    z = weights.sum(axis=1)
    return (w * weights).sum(axis=1) / z


def _gibbs_stack(spec: Spectrum, t: np.ndarray) -> np.ndarray:
    """Gibbs states at the 1-D temperatures ``t`` as one (G, n, n) stack."""
    w, v = spec.eigenvalues, spec.eigenvectors
    weights = np.exp(-(w - w.min()) / t[:, None])
    weights /= weights.sum(axis=1, keepdims=True)
    rho = (v * weights[:, None, :]) @ v.conj().T
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


def gibbs_state(spec: Spectrum, temperature) -> np.ndarray:
    """Normalized thermal density matrix: (n, n) for one temperature,
    (G, n, n) for a 1-D array of G of them."""
    rho = _gibbs_stack(spec, _temperature_axis(temperature))
    return rho[0] if np.ndim(temperature) == 0 else rho


def entanglement_gap_temperature(levels, e_sep, tol: float = 1e-10):
    """Temperature at which the thermal energy of ``levels`` equals ``e_sep``.

    ``levels`` is one spectrum (L,) with a scalar ``e_sep``, or a stack of
    spectra (S, L) with ``e_sep`` of shape (S,), bisected all at once.
    No finite solution exists when e_sep does not lie strictly between
    the ground energy and the infinite-T mean: a spectrum then gives
    None, a stack NaN in that row.  Bisection under monotonicity; each
    result satisfies |U(T) - e_sep| <= tol unless its bracket first
    closes to adjacent floats or takes BISECT_CAP halvings.
    """
    one = np.ndim(levels) == 1
    w = np.atleast_2d(np.asarray(levels, dtype=float))
    e = np.atleast_1d(np.asarray(e_sep, dtype=float))
    out = np.full(len(w), np.nan)
    rows = np.flatnonzero((w.min(axis=1) < e) & (e < w.mean(axis=1)))
    w, e = w[rows], e[rows]
    t_lo, t_hi = np.full(len(rows), 1e-6), np.ones(len(rows))
    # widen each row's bracket until U(t_lo) < e_sep < U(t_hi)
    for t, scale, inside in ((t_lo, 0.5, np.less), (t_hi, 2.0, np.greater)):
        live = np.arange(len(rows))
        for _ in range(BISECT_CAP):
            live = live[~inside(_thermal_energies(w[live], t[live]), e[live])]
            if live.size == 0:
                break
            t[live] *= scale
    live = np.arange(len(rows))
    for _ in range(BISECT_CAP):
        t_mid = 0.5 * (t_lo[live] + t_hi[live])
        # no float lies between the ends, so every further halving repeats this one
        moves = (t_mid != t_lo[live]) & (t_mid != t_hi[live])
        live, t_mid = live[moves], t_mid[moves]
        if live.size == 0:
            break
        u = _thermal_energies(w[live], t_mid)
        below, near = u < e[live], np.abs(u - e[live]) <= tol
        # a row within tol keeps t_mid as both ends, and so as its result
        t_lo[live[below | near]] = t_mid[below | near]
        t_hi[live[~below | near]] = t_mid[~below | near]
        live = live[~near]
    out[rows] = 0.5 * (t_lo + t_hi)
    if one:
        return None if np.isnan(out[0]) else float(out[0])
    return out


def bisect_bool(pred, x_false: float, x_true: float, tol: float) -> float:
    """Halve [x_false, x_true] (either order) to ``tol``, adjacent floats or
    BISECT_CAP times, keeping ``pred`` False at one end; returns its True end."""
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


def scaled_gap_temperature(levels, e_sep: float, tol: float = 1e-10) -> float | None:
    """Gap temperature divided by the total spectral range."""
    w = np.asarray(levels, dtype=float)
    t = entanglement_gap_temperature(w, e_sep, tol=tol)
    return None if t is None else t / float(w.max() - w.min())


def is_gibbs_ppt(spec: Spectrum, temperature):
    """Whether the thermal state has a positive partial transpose across
    the cut between the first factor and the rest: a bool for one
    temperature, a bool array for a 1-D array of them.  The temperatures
    go through in stacks of at most ``GIBBS_CHUNK`` matrix entries."""
    t = _temperature_axis(temperature)
    n, da = len(spec.eigenvalues), spec.dims[0]
    step = max(1, GIBBS_CHUNK // (n * n))
    low = np.empty(t.size)
    for start in range(0, t.size, step):
        pt = partial_transpose_matrix(_gibbs_stack(spec, t[start:start + step]), da, n // da)
        low[start:start + step] = np.linalg.eigvalsh(pt)[:, 0]
    flags = low >= PPT_FLAG_TOL
    return bool(flags[0]) if np.ndim(temperature) == 0 else flags


def temperature_grid(temperatures) -> np.ndarray:
    """``temperatures`` as a 1-D float array; ValueError unless they are
    finite, positive and strictly increasing."""
    t = np.ravel(np.asarray(temperatures, dtype=float))
    bad = t[~((0 < t) & (t < np.inf))]
    if bad.size:
        raise ValueError(f"temperatures must be finite and positive, got {float(bad[0])}")
    if np.any(t[1:] <= t[:-1]):
        raise ValueError("temperatures must be strictly increasing")
    return t


def thermal_curve(spec: Spectrum, temperatures) -> list[tuple[float, float, bool]]:
    """(T, U, ppt) triples on a ``temperature_grid``; ValueError on any
    other grid, or where U decreases."""
    t = temperature_grid(temperatures)
    u = thermal_energy(spec.eigenvalues, t)
    if np.any(u[1:] < u[:-1] - 1e-9):
        raise ValueError("thermal energy must be non-decreasing in T")
    return list(zip(t.tolist(), u.tolist(), is_gibbs_ppt(spec, t).tolist()))


def bound_entanglement_window(
    spec: Spectrum,
    e_sep: float,
    t_min: float = 0.02,
    t_max: float = 3.0,
    n_grid: int = 80,
    refine_tol: float = 1e-4,
):
    """Temperature window where the Gibbs state is PPT yet has energy
    below ``e_sep`` (so its entanglement is bound, witnessed by energy).

    Scans a log grid, takes the widest contiguous run, and refines both
    endpoints by boolean bisection to ``refine_tol``.  Returns
    (t_low, t_high), or None when the window is empty.  Raises
    ValueError unless e_sep is finite, 0 < t_min < t_max (both finite),
    n_grid >= 2 and refine_tol is finite and positive.
    """
    if not np.isfinite(e_sep):
        raise ValueError(f"e_sep must be finite, got {e_sep}")
    if not 0 < refine_tol < np.inf:
        raise ValueError(f"refine_tol must be finite and positive, got {refine_tol}")
    if not (0 < t_min < t_max < np.inf and n_grid >= 2):
        raise ValueError(
            f"window grid needs finite 0 < t_min < t_max and n_grid >= 2, got "
            f"t_min={t_min}, t_max={t_max}, n_grid={n_grid}"
        )

    def in_window(t: float) -> bool:
        return thermal_energy(spec.eigenvalues, t) < e_sep and is_gibbs_ppt(spec, t)

    grid = np.geomspace(t_min, t_max, n_grid)
    flags = thermal_energy(spec.eigenvalues, grid) < e_sep
    flags[flags] = is_gibbs_ppt(spec, grid[flags])
    runs = [list(run) for flag, run in groupby(range(n_grid), flags.__getitem__) if flag]
    if not runs:
        return None
    widest = max(runs, key=len)
    lo_idx, hi_idx = widest[0], widest[-1]

    t_low = float(grid[lo_idx])
    if lo_idx > 0:
        t_low = bisect_bool(in_window, float(grid[lo_idx - 1]), t_low, refine_tol)
    t_high = float(grid[hi_idx])
    if hi_idx < n_grid - 1:
        t_high = bisect_bool(in_window, float(grid[hi_idx + 1]), t_high, refine_tol)
    return (t_low, t_high)


def temperature_comparison(
    dims=(3, 4, 5, 6),
    seed: int = 0,
    gap_tol: float = 1e-7,
) -> list[dict]:
    """Scaled gap temperatures of the three projector families per dimension.

    The maximally-entangled and symmetric projectors have exact separable
    energies; the completely-entangled-subspace Hamiltonian gets the
    bracket of ``sep_bracket`` (PPT lower bound, seesaw upper bound),
    which maps monotonically onto a bracket for its gap temperature.
    """
    rows = []
    for d in dims:
        w_me = eig(max_entangled_projector_hamiltonian(d)).eigenvalues
        w_s = eig(symmetric_projector_hamiltonian(d)).eigenvalues
        h_ces = ces_hamiltonian(d)
        w_ces = eig(h_ces).eigenvalues
        t_me = scaled_gap_temperature(w_me, 1.0 - 1.0 / d)
        t_s = scaled_gap_temperature(w_s, 0.5)
        ces = sep_bracket(h_ces, seed=seed + d, gap_tol=gap_tol)
        rows.append(
            {
                "d": d,
                "t_maxent": t_me,
                "t_maxent_closed": 1.0 / np.log(d + 1.0),
                "t_symproj": t_s,
                "t_symproj_closed": 1.0 / np.log((d + 1.0) / (d - 1.0)),
                "ces_e_sep_bracket": [ces.lower, ces.upper],
                "t_ces_bracket": [
                    scaled_gap_temperature(w_ces, ces.lower),
                    scaled_gap_temperature(w_ces, ces.upper),
                ],
            }
        )
    return rows
