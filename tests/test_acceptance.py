"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  The
stated runtime budgets are asserted along with the numeric tolerances.
"""

import time

import numpy as np
import pytest

from entgap.lattices import LatticeSpec, assemble
from entgap.models import (
    choi_hamiltonian,
    heisenberg_pair,
    max_entangled_projector_hamiltonian,
    symmetric_projector_hamiltonian,
    upb_hamiltonian,
)
from entgap.operators import HermitianOperator, eig, random_unitary
from entgap.separability import (
    entanglement_gap,
    ppt_lower,
    seesaw_upper,
    sep_bracket,
)
from entgap.tables import table1_report, table2_report
from entgap.thermo import (
    bound_entanglement_window,
    scaled_gap_temperature,
    temperature_comparison,
)
from entgap.twoqubit import AFM_SCALED_T, random_search
from entgap.xy import xy_chain_energy_extrema, xy_gap_surface, xy_sep_energy
from helpers import bond_energy_decomposition, random_hermitian
from test_xy import xy_sep_energy_numeric


def _report(criterion: int, ok: bool, detail: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_heisenberg_afm():
    t0 = time.time()
    rep = entanglement_gap(heisenberg_pair(), restarts=16, seed=0)
    scaled_afm = HermitianOperator((heisenberg_pair().matrix + 3 * np.eye(4)) / 4, (2, 2))
    t_e = scaled_gap_temperature(eig(scaled_afm).eigenvalues, 0.5)
    elapsed = time.time() - t0
    ok = (
        abs(rep.e0 + 3.0) < 1e-9
        and -1 - 1e-6 <= rep.sep.lower <= rep.sep.upper <= -1 + 1e-6
        and abs(rep.gap_upper - 2.0) < 1e-6
        and abs(rep.scaled_gap_upper - 0.5) < 1e-6
        and abs(t_e - 1 / np.log(3)) < 1e-6
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"E0={rep.e0:.6f} E_sep=[{rep.sep.lower:.8f},{rep.sep.upper:.8f}] "
        f"gap={rep.gap_upper:.6f} scaled={rep.scaled_gap_upper:.6f} t_E={t_e:.8f}",
        elapsed,
    )


def test_criterion_2_maximal_gap_family():
    t0 = time.time()
    ok = True
    details = []
    for d in range(2, 7):
        h = max_entangled_projector_hamiltonian(d)
        rep = entanglement_gap(h, restarts=12, seed=0)
        t_e = scaled_gap_temperature(eig(h).eigenvalues, 1 - 1 / d)
        ok &= abs(rep.scaled_gap_upper - (1 - 1 / d)) < 1e-6
        ok &= abs(t_e - 1 / np.log(d + 1)) < 1e-6
        if d in (2, 3):
            ok &= abs(rep.sep.upper - rep.sep.lower) < 1e-6
        details.append(f"d={d}: g={rep.scaled_gap_upper:.7f} t={t_e:.7f}")
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    _report(2, ok, "; ".join(details), elapsed)


def test_criterion_3_symmetric_projector():
    t0 = time.time()
    ok = True
    details = []
    for d in range(2, 7):
        h = symmetric_projector_hamiltonian(d)
        e_sep, _ = seesaw_upper(h, restarts=16, seed=0)
        t_e = scaled_gap_temperature(eig(h).eigenvalues, 0.5)
        ok &= abs(e_sep - 0.5) < 1e-8
        ok &= abs(t_e - 1 / np.log((d + 1) / (d - 1))) < 1e-6
        details.append(f"d={d}: E_sep={e_sep:.9f} t={t_e:.6f}")
    t10 = scaled_gap_temperature(eig(symmetric_projector_hamiltonian(10)).eigenvalues, 0.5)
    ok &= 4.9 <= t10 <= 5.1
    details.append(f"d=10: t={t10:.4f}")
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    _report(3, ok, "; ".join(details), elapsed)


def test_criterion_4_table1():
    t0 = time.time()
    rows = table1_report(restarts=16, seed=0)
    reference = {
        1: (-3.0, 2.0, 0.5),
        2: (-2.0, 1.0, 0.333),
        3: (-1.667, 0.667, 0.25),
        4: (-1.5, 0.5, 0.2),
        5: (-1.4, 0.4, 0.167),
        6: (-1.333, 0.333, 0.143),
    }
    ok = True
    for r in rows:
        e0, gap, scaled = reference[r["k"]]
        ok &= abs(r["e0_per_bond"] - (-(r["k"] + 2) / r["k"])) < 1e-9
        ok &= abs(r["e0_per_bond"] - e0) < 1e-3
        ok &= abs(r["e_sep_per_bond"] + 1.0) < 1e-3
        ok &= abs(r["gap_per_bond"] - gap) < 1e-3
        ok &= abs(r["scaled_gap"] - scaled) < 1e-3
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    _report(4, ok, f"{len(rows)} star rows match to 1e-3 (ED cross-checked)", elapsed)


def test_criterion_5_table2():
    t0 = time.time()
    rows, meta = table2_report(restarts=16, seed=0)
    by_name = {r["lattice"]: r for r in rows}
    ok = True
    tri = by_name["single triangle"]
    ok &= abs(tri["e0_per_bond"] + 1.0) < 1e-9 and abs(tri["e_sep_per_bond"] + 0.5) < 1e-8
    tet = by_name["single tetrahedron"]
    ok &= abs(tet["e0_per_bond"] + 1.0) < 1e-9 and abs(tet["e_sep_per_bond"] + 1 / 3) < 1e-8
    chain = by_name["1d chain"]
    ok &= abs(chain["e0_per_bond"] + 1.772) < 2e-3
    # printed reference gaps carry three decimals except the
    # checkerboard row, which the source quotes at two
    for name, gap, tol in (
        ("hexagonal", 0.452, 1e-3),
        ("square", 0.338, 1e-3),
        ("cubic", 0.194, 1e-3),
        ("kagome", 0.374, 1e-3),
        ("triangular", 0.226, 1e-3),
        ("checkerboard", 0.34, 5e-3),
    ):
        row = by_name[name]
        ok &= abs(row["gap_per_bond"] - gap) < tol
        ok &= abs(row["gap_per_bond"] - (row["e_sep_per_bond"] - row["e0_per_bond"])) < 1e-9
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    _report(
        5,
        ok,
        f"computed rows exact, chain E0/bond={chain['e0_per_bond']:.4f}, "
        "literature rows reproduced",
        elapsed,
    )


def test_criterion_6_choi():
    t0 = time.time()
    h = choi_hamiltonian()
    lo, res = ppt_lower(h)
    up, _ = seesaw_upper(h, restarts=64, seed=0)
    window = bound_entanglement_window(eig(h), 0.0, t_min=0.8, t_max=1.8)
    elapsed = time.time() - t0
    expected = (3 - 2 * np.sqrt(3)) / 3
    ok = (
        abs(lo - expected) < 1e-4
        and abs(up) < 1e-7
        and window is not None
        and abs(window[0] - 1.256) < 0.01
        and abs(window[1] - 1.271) < 0.01
        and elapsed < 30.0
    )
    _report(
        6,
        ok,
        f"PPT={lo:.7f} (exp {expected:.7f}), seesaw={up:.2e}, "
        f"window=[{window[0]:.4f},{window[1]:.4f}]",
        elapsed,
    )


def test_criterion_7_xy_model():
    t0 = time.time()
    ok = True
    notes = []
    # closed form vs numeric minimization on a 9x9 grid
    worst = 0.0
    for g in np.linspace(0, 1, 9):
        for l in np.linspace(0, 2, 9):
            closed, _ = xy_sep_energy(g, l)
            worst = max(worst, abs(closed - xy_sep_energy_numeric(g, l, n_starts=6, seed=1)))
    ok &= worst <= 1e-8
    notes.append(f"closed-vs-numeric worst {worst:.1e}")
    # zero gap on the disorder circle
    worst_zero = 0.0
    for g in (0.2, 0.4, 0.6, 0.8, 1.0):
        l = float(np.sqrt(1 - g * g))
        e_sep, _ = xy_sep_energy(g, l)
        e0, _ = xy_chain_energy_extrema(g, l)
        worst_zero = max(worst_zero, abs(e_sep - e0))
    ok &= worst_zero <= 1e-6
    notes.append(f"zero-gap curve worst {worst_zero:.1e}")
    # quadrature vs ring extrapolation
    worst_quad = 0.0
    for g, l in ((1, 0), (1, 1), (0.5, 0.5), (0, 0)):
        e_inf, _ = xy_chain_energy_extrema(g, l)
        sizes = np.array([8, 10, 12, 14], dtype=float)
        per_site = [xy_chain_energy_extrema(g, l, ("ring", int(n)))[0] for n in sizes]
        coef, *_ = np.linalg.lstsq(
            np.vstack([np.ones_like(sizes), 1 / sizes ** 2]).T,
            np.array(per_site),
            rcond=None,
        )
        worst_quad = max(worst_quad, abs(coef[0] - e_inf))
    ok &= worst_quad <= 1e-3
    notes.append(f"quadrature-vs-ED worst {worst_quad:.1e}")
    # gamma = 1 slice: unimodal with peak location in [0.8, 1.2]
    pts = xy_gap_surface([1.0], np.arange(0.0, 2.001, 0.05))
    gaps = np.array([p.scaled_gap for p in pts])
    signs = np.sign(np.diff(gaps))
    signs = signs[signs != 0]
    unimodal = int(np.count_nonzero(signs[1:] != signs[:-1])) <= 1
    ok &= unimodal
    peak_lam = pts[int(np.argmax(gaps))].lam
    # NOTE: this sub-clause fails by construction of the model itself:
    # the slice peaks near lambda = 1.7 (raw gap 1.85), not inside
    # [0.8, 1.2].  The separable energy and the ground energy are each
    # verified against two independent methods; see the decisions ledger.
    peak_in_window = 0.8 <= peak_lam <= 1.2
    ok &= peak_in_window
    notes.append(f"slice unimodal={unimodal} peak at lambda={peak_lam:.2f}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _report(7, ok, "; ".join(notes), elapsed)


def test_criterion_8_random_search():
    t0 = time.time()
    res = random_search(100000, seed=7)
    res_singlet = random_search(10000, seed=11, ground="singlet")
    elapsed = time.time() - t0
    ok = (
        res.max_t <= AFM_SCALED_T + 1e-6
        and res_singlet.max_t <= AFM_SCALED_T + 1e-6
        and elapsed < 600.0
    )
    _report(
        8,
        ok,
        f"haar 1e5: max_t={res.max_t:.7f}; singlet 1e4: max_t={res_singlet.max_t:.7f}; "
        f"reference {AFM_SCALED_T:.7f}",
        elapsed,
    )


def test_criterion_9_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(0)
    ok = True
    notes = []
    # bracket validity and PPT/seesaw coincidence, 200 random two-qubit
    worst_coincidence = 0.0
    for seed in range(200):
        h = HermitianOperator(random_hermitian(4, np.random.default_rng(seed)), (2, 2))
        up, _ = seesaw_upper(h, restarts=12, seed=seed)
        lo, _ = ppt_lower(h)
        ok &= lo <= up + 1e-7
        worst_coincidence = max(worst_coincidence, abs(up - lo))
    ok &= worst_coincidence <= 1e-6
    notes.append(f"bracket+coincidence worst {worst_coincidence:.1e}")
    # local-unitary invariance on 50 instances
    worst_lu = 0.0
    for _ in range(50):
        h = HermitianOperator(random_hermitian(4, rng), (2, 2))
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        h2 = HermitianOperator(u @ h.matrix @ u.conj().T, (2, 2))
        r1 = entanglement_gap(h, restarts=10, seed=1)
        r2 = entanglement_gap(h2, restarts=10, seed=1)
        worst_lu = max(
            worst_lu,
            abs(r1.gap_upper - r2.gap_upper),
            abs(r1.gap_lower - r2.gap_lower),
        )
    ok &= worst_lu <= 1e-6
    notes.append(f"local-unitary worst {worst_lu:.1e}")
    # level-raising inequality on random states
    for _ in range(20):
        h = random_hermitian(4, rng)
        w, v = np.linalg.eigh(h)
        scaled = (h - w[0] * np.eye(4)) / (w[-1] - w[0])
        lifted = np.eye(4) - np.outer(v[:, 0], v[:, 0].conj())
        ok &= np.linalg.eigvalsh(lifted - scaled)[0] >= -1e-10
    notes.append("level-raising ok")
    # seesaw monotonicity
    for seed in range(5):
        h = HermitianOperator(random_hermitian(4, np.random.default_rng(seed)), (2, 2))
        _, _, run = seesaw_upper(h, restarts=4, seed=seed, return_trace=True)
        ok &= bool(np.all(np.diff(np.asarray(run.steps)) <= 1e-12))
    notes.append("seesaw monotone")
    # U(T) monotone on a random spectrum; limits on a gapped one, where
    # the error exp(-Delta/T) resp. Var/T is actually controlled
    from entgap.thermo import thermal_energy
    w = np.sort(rng.uniform(-2, 2, 8))
    grid = np.geomspace(0.01, 100, 50)
    us = [thermal_energy(w, t) for t in grid]
    ok &= all(b >= a - 1e-12 for a, b in zip(us, us[1:]))
    w_gapped = np.array([0.0, 1.0, 1.0, 1.0])
    ok &= abs(thermal_energy(w_gapped, 1 / 50) - 0.0) < 1e-8
    ok &= abs(thermal_energy(w_gapped, 1e8) - 0.75) < 1e-7
    from entgap.operators import partial_transpose_matrix
    h6 = random_hermitian(6, rng)
    ok &= np.max(np.abs(partial_transpose_matrix(partial_transpose_matrix(h6, 2, 3), 2, 3) - h6)) < 1e-12
    asm = assemble(LatticeSpec.ring(4), heisenberg_pair())
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    rho_m = a @ a.conj().T
    rho_m /= np.trace(rho_m).real
    rho = HermitianOperator(rho_m, asm.matrix_free.dims)
    total = float(np.real(np.vdot(asm.dense.matrix.conj().T, rho_m)))
    ok &= abs(sum(bond_energy_decomposition(asm, rho)) - total) < 1e-10
    notes.append("U(T), involution, bond identity ok")
    # UPB relaxation gap
    b = sep_bracket(upb_hamiltonian(), restarts=64, seed=0)
    ok &= (b.upper - b.lower) > 0.01
    notes.append(f"UPB relaxation gap {b.upper - b.lower:.4f}")
    elapsed = time.time() - t0
    _report(9, ok, "; ".join(notes), elapsed)


def test_criterion_10_temperature_comparison():
    t0 = time.time()
    rows = temperature_comparison(dims=(3, 4, 5, 6), seed=0)
    ok = True
    details = []
    for r in rows:
        hi = r["t_ces_bracket"][1]
        ok &= r["t_symproj"] > hi
        details.append(f"d={r['d']}: t_S={r['t_symproj']:.4f} > t_ces<= {hi:.4f}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _report(10, ok, "; ".join(details), elapsed)
