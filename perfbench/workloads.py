"""The benchmark's three workloads: request streams, memory plans and oracles.

Every workload is an endless cycle of requests generated from the workload
seed; the program only ever sees the generated inputs.  ``execute`` runs a
request through entgap's public entry points (looked up through the module
attribute at call time, so the tracer's rebinding applies), and ``check``
compares its output against an independent oracle computed here.

search2q  closed loop of ``twoqubit.random_search`` calls, 20 Haar samples
          each, ``workers=1``.  Thousands of 4x4 PPT solves, bound by Python
          overhead: this is where a batched IPM must show.  One request in
          five carries the seesaw cross-check on its first sample, so one
          sample in 100 is cross-checked (the library default) and the
          checked requests form the top fifth of the latency distribution:
          p90 sits inside that class, not on its edge.
brackets  in-process ``entgap gap|temp|window --json`` on the named few-body
          models, and ``window`` on seeded random 3x3, 2x4, 3x4 and 4x4
          Hamiltonians passed as ``file:`` operators.  The seesaw
          dominates.  Of the 24 requests per cycle, Choi (the slow class)
          makes up 5, so p90 sits inside it; ``gap ces:4`` makes up 8, with
          6 faster named requests below it, so p50 stays inside that class
          however many of the 4 random requests (40-280 ms, depending on
          the draw) run faster than it.  The random operators
          go through ``window`` (seesaw, thermal energies, Gibbs-state PPT
          checks) and not through ``gap``/``temp``: the PPT interior-point
          solver stops short of its tolerance (exit 3) on about 0.1-0.2% of
          random Hamiltonians, so a seeded draw of them fails on some seeds.
lattice   ``table1``, ``table2``, ``gap --lattice star:4``, ``xy-scan`` and
          matrix-free Lanczos on XXZ rings of 14, 15 and 16 sites with
          seeded anisotropy.  Dense assembly, Lanczos matvecs and the n=32
          PPT over four cuts dominate.  ``star:5`` (3.9 GB) is left out.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("search2q", "brackets", "lattice")

SEARCH_BATCH = 20            # samples per random_search request
SEARCH_CHECKED_EVERY = 5     # one request in five runs the seesaw cross-check
BRACKET_RESTARTS = 16        # seesaw restarts per brackets request
RANDOM_POOL = 8              # seeded random Hamiltonians per shape
RANDOM_SHAPES = ((3, 3), (2, 4), (3, 4), (4, 4))
RING_SITES = (14, 15, 16)
# Rings per lattice cycle.  14 and 15 run twice, so a two-cycle run has
# four ring-15 latencies and its p50, the fastest of them, is not at the
# mercy of one slow sample.
CYCLE_RINGS = (14, 15, 16, 14, 15)
# The gapped (Ising-like) side of the XXZ ring.  Lanczos needs the same
# number of matvecs (within 4%) anywhere in 0.5..2 except close to the
# Heisenberg point 1, where it needs 15% fewer; staying away from it keeps
# the work independent of the seed.
DELTA_RANGE = (1.1, 1.5)

# Wall seconds one cycle takes on a 2-core x86-64 box with BLAS pinned to one
# thread.  Only used to size the fixed request list of a traced run, so the
# per-layer counts of a traced run are the same on every commit.
NOMINAL_CYCLE_S = {"search2q": 0.8, "brackets": 3.9, "lattice": 16.0}

AFM_SCALED_T = 1.0 / math.log(3.0)
SEESAW_TOL = 1e-6            # seesaw against PPT on 2x2, where PPT is exact
BETHE_CHAIN = 1.0 - 4.0 * math.log(2.0)  # Heisenberg chain E0 per bond
CHAIN_FIT_TOL = 2e-3         # a + b/N^2 over rings 8-14 lands within 5.2e-4
CHOI_PPT = (3.0 - 2.0 * math.sqrt(3.0)) / 3.0
WINDOW_GRID = (0.02, 3.0, 80)  # `entgap window` default t-min, t-max, n-grid
DENSE_CUTOFF = 4096          # entgap's default dense cutoff
KRYLOV = 200                 # entgap's default Lanczos block size


@dataclass
class Request:
    kind: str                # "search" | "cli" | "lanczos"
    cls: str                 # request class, for per-class latency
    params: dict
    units: int = 1           # work units for throughput (samples or requests)


@dataclass
class Outcome:
    request: Request
    latency: float
    output: object = None
    error: str | None = None
    failure: str | None = None


# ---------------------------------------------------------------------------
# request streams


def _search_cycle(seed: int, cycle: int) -> list[Request]:
    rng = np.random.default_rng([seed, cycle])
    out = []
    for k in range(SEARCH_CHECKED_EVERY):
        checked = k == 0
        out.append(
            Request(
                "search",
                "checked" if checked else "plain",
                {
                    "n": SEARCH_BATCH,
                    "seed": int(rng.integers(2 ** 31)),
                    "check_every": SEARCH_BATCH if checked else 0,
                },
                units=SEARCH_BATCH,
            )
        )
    return out


def _bracket_cycle(cycle: int, files: dict) -> list[Request]:
    j = cycle % RANDOM_POOL

    def rand(shape):
        return "file:" + files[shape][j]

    plan = [
        ("gap", "choi"), ("gap", "ces:4"), ("gap", "heisenberg"), ("gap", "ces:4"),
        ("gap", "maxent:3"), ("window", rand((3, 3))), ("gap", "ces:4"), ("temp", "symproj:3"),
        ("temp", "choi"), ("gap", "ces:4"), ("gap", "upb:tiles"), ("window", rand((2, 4))),
        ("gap", "ces:4"), ("window", "upb:tiles"), ("window", "choi"), ("gap", "ces:4"),
        ("gap", "ces:3"), ("window", rand((3, 4))), ("gap", "ces:4"), ("temp", "ces:4"),
        ("gap", "choi"), ("window", rand((4, 4))), ("gap", "ces:4"), ("temp", "choi"),
    ]
    return [
        Request(
            "cli",
            f"{cmd}:{'random' + os.path.basename(model)[1:4] if model.startswith('file:') else model}",
            {"argv": [cmd, "--model", model, "--json", "--restarts", str(BRACKET_RESTARTS)]},
        )
        for cmd, model in plan
    ]


def _lattice_cycle(seed: int, cycle: int) -> list[Request]:
    rng = np.random.default_rng([seed, cycle])
    deltas = rng.uniform(*DELTA_RANGE, size=len(CYCLE_RINGS))
    rings = [
        Request("lanczos", f"ring{n}", {"n": n, "delta": float(d)})
        for n, d in zip(CYCLE_RINGS, deltas)
    ]
    cli = [
        Request("cli", name, {"argv": argv})
        for name, argv in (
            ("xy-scan", ["xy-scan", "--json"]),
            ("table1", ["table1", "--json"]),
            ("star4", ["gap", "--model", "heisenberg", "--lattice", "star:4", "--json"]),
            ("table2", ["table2", "--json"]),
        )
    ]
    return [cli[0], rings[0], cli[1], rings[1], cli[2], rings[3], rings[2], rings[4], cli[3]]


def cycle(workload: str, seed: int, index: int, files: dict | None = None) -> list[Request]:
    """The requests of cycle ``index`` of a workload."""
    if workload == "search2q":
        return _search_cycle(seed, index)
    if workload == "brackets":
        return _bracket_cycle(index, files)
    if workload == "lattice":
        return _lattice_cycle(seed, index)
    raise ValueError(f"unknown workload {workload!r}")


def trace_cycles(workload: str, seconds: float) -> int:
    """Cycles in each phase of a traced run: about half of ``seconds`` at the
    nominal speed, fixed for a given ``seconds`` so counts compare across commits."""
    return max(1, round(seconds / 2 / NOMINAL_CYCLE_S[workload]))


# ---------------------------------------------------------------------------
# inputs


def write_random_hamiltonians(seed: int, directory: str) -> dict:
    """Seeded random Hermitian matrices, written in entgap's operator JSON
    format; returns {shape: [path, ...]}."""
    files = {}
    for s, (da, db) in enumerate(RANDOM_SHAPES):
        n = da * db
        paths = []
        for j in range(RANDOM_POOL):
            rng = np.random.default_rng([seed, s, j])
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (a + a.conj().T) / (2.0 * math.sqrt(n))
            path = os.path.join(directory, f"h{da}x{db}_{j}.json")
            with open(path, "w") as fh:
                json.dump(
                    {
                        "dims": [da, db],
                        "matrix": [[[z.real, z.imag] for z in row] for row in h.tolist()],
                    },
                    fh,
                )
            paths.append(path)
        files[(da, db)] = paths
    return files


def warm_up(workload: str, seed: int, files: dict | None):
    """Touch every code path of the workload once, outside the timed phase."""
    from entgap import cli, lattices, models, operators, twoqubit

    def run_cli(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)

    if workload == "search2q":
        twoqubit.random_search(4, seed=2 ** 31 + seed, check_every=4, workers=1)
    elif workload == "brackets":
        run_cli(["window", "--model", "heisenberg", "--json", "--restarts", "1"])
        run_cli(["temp", "--model", "ces:4", "--json", "--restarts", "1"])
        for shape in RANDOM_SHAPES:
            run_cli(["window", "--model", "file:" + files[shape][0], "--json", "--restarts", "1"])
    else:
        run_cli(["gap", "--model", "heisenberg", "--lattice", "star:2", "--json"])
        run_cli(["xy-scan", "--json", "--gamma", "0:1:0.5", "--lambda", "0:1:0.5"])
        asm = lattices.assemble(lattices.LatticeSpec.ring(8), models.xxz_pair(1.0))
        operators.lanczos_ground(asm.matrix_free)


# ---------------------------------------------------------------------------
# execution


def execute(req: Request):
    """Run one request; returns its output (raises on program errors)."""
    if req.kind == "search":
        from entgap import twoqubit

        p = req.params
        return twoqubit.random_search(
            p["n"], seed=p["seed"], ground="haar", check_every=p["check_every"], workers=1
        )
    if req.kind == "cli":
        from entgap import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.params["argv"]))
        lines = out.getvalue().strip().splitlines()
        payload = json.loads(lines[-1]) if lines and code == 0 else None
        return {"code": code, "payload": payload, "stderr": err.getvalue()[-500:]}
    if req.kind == "lanczos":
        from entgap import lattices, models, operators

        p = req.params
        asm = lattices.assemble(lattices.LatticeSpec.ring(p["n"]), models.xxz_pair(p["delta"]))
        return operators.lanczos_ground(asm.matrix_free)
    raise ValueError(f"unknown request kind {req.kind!r}")


def same_output(req: Request, a, b) -> bool:
    """Whether two runs of one request gave the same result (tracing must
    not change what the program computes)."""
    if req.kind == "search":
        return a.to_dict() == b.to_dict()
    if req.kind == "cli":
        return a["code"] == b["code"] and a["payload"] == b["payload"]
    return a[0] == b[0]


def bracket_width(outcomes) -> float | None:
    """Mean e_sep_upper - e_sep_lower over the requests that print a bracket."""
    widths = [
        o.output["payload"]["e_sep_upper"] - o.output["payload"]["e_sep_lower"]
        for o in outcomes
        if o.error is None and o.request.kind == "cli" and o.output["payload"]
        and "e_sep_lower" in o.output["payload"]
    ]
    return sum(widths) / len(widths) if widths else None


# ---------------------------------------------------------------------------
# memory plan


def basis_bytes(n: int) -> int:
    """Bytes of the PPT solver's cached basis images at side n."""
    return 2 * (n * n + 1) * n * n * 16


def dense_bytes(side: int) -> int:
    return side * side * 16 if side <= DENSE_CUTOFF else 0


def krylov_bytes(side: int) -> int:
    return min(side, KRYLOV) * side * 16


def memory_plan(workload: str) -> dict:
    """Planned bytes before anything runs: PPT bases (cached for the life of
    the process, one per shape) plus the largest transient dense matrix or
    Lanczos block of any single request."""
    if workload == "search2q":
        shapes, transient = {(2, 2)}, {"dense:4": dense_bytes(4)}
    elif workload == "brackets":
        shapes = {(2, 2), (3, 3), (4, 4)}
        transient = {"dense:16": dense_bytes(16)}
    elif workload == "lattice":
        # star:4 is cut 1|4, 2|3, 3|2, 4|1 qubits; star:2 is the warm-up
        shapes = {(2 ** c, 2 ** (5 - c)) for c in range(1, 5)} | {(2, 4), (4, 2)}
        transient = {"dense:star:4": dense_bytes(32), "dense:star:6": dense_bytes(128)}
        for n in (8, 10, 12, 14):  # table2 rings: dense up to the cutoff, Lanczos
            transient[f"dense:ring:{n}"] = dense_bytes(2 ** n)
            transient[f"krylov:ring:{n}"] = krylov_bytes(2 ** n)
        for n in RING_SITES:
            transient[f"krylov:ring:{n}"] = krylov_bytes(2 ** n)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    persistent = sum(basis_bytes(da * db) for da, db in shapes)
    largest = max(transient, key=transient.get)
    return {
        "basis_bytes": persistent,
        "largest_transient": largest,
        "transient_bytes": transient[largest],
        "planned_bytes": persistent + transient[largest],
    }


# ---------------------------------------------------------------------------
# oracles


def _thermal_energy(w: np.ndarray, t: float) -> float:
    x = np.exp(-(w - w.min()) / t)
    return float((w * x).sum() / x.sum())


def _gibbs_pt_min(h: np.ndarray, dims, t: float) -> float:
    """Smallest eigenvalue of the partial transpose of the Gibbs state."""
    w, v = np.linalg.eigh(h)
    p = np.exp(-(w - w.min()) / t)
    rho = (v * (p / p.sum())) @ v.conj().T
    da, db = dims
    pt = rho.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


def _closed_form_sep(model: str) -> float | None:
    """Exactly known minimum separable energies."""
    name, _, arg = model.partition(":")
    if name == "heisenberg":
        return -1.0
    if name == "maxent":
        return 1.0 - 1.0 / int(arg)
    if name == "symproj":
        return 0.5
    if name == "choi":
        return 0.0
    return None


def xxz_ring_sparse(n: int, delta: float, states: np.ndarray | None = None):
    """XXZ ring sum_i X_i X_i+1 + Y_i Y_i+1 + delta Z_i Z_i+1 as a sparse
    matrix, built from bit strings (independent of entgap's assembly).
    With ``states`` (sorted basis indices of a sector closed under the
    hopping) it returns the block on that sector."""
    import scipy.sparse as sp

    if states is None:
        states = np.arange(2 ** n, dtype=np.int64)
    dim = len(states)
    diag = np.zeros(dim)
    rows, cols = [], []
    for i in range(n):
        j = (i + 1) % n
        mask = (1 << i) | (1 << j)
        bi = (states >> i) & 1
        bj = (states >> j) & 1
        diag += delta * np.where(bi == bj, 1.0, -1.0)
        anti = np.nonzero(bi != bj)[0]
        rows.append(np.searchsorted(states, states[anti] ^ mask))
        cols.append(anti)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    off = sp.csr_matrix((np.full(len(rows), 2.0), (rows, cols)), shape=(dim, dim))
    return off + sp.diags(diag)


class Oracles:
    """Reference values, computed on first use and cached per process."""

    def __init__(self):
        self._cache = {}
        self.notes: list[str] = []   # passed checks worth reporting

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def model_matrix(self, model: str):
        def build():
            if model.startswith("file:"):
                with open(model[5:]) as fh:
                    data = json.load(fh)
                m = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
                return m, tuple(data["dims"])
            from entgap import models

            op = models.from_identifier(model)
            return np.array(op.matrix), op.dims

        return self._memo(("model", model), build)

    def spectrum(self, model: str) -> np.ndarray:
        return self._memo(("spec", model), lambda: np.linalg.eigvalsh(self.model_matrix(model)[0]))

    def heisenberg_ring_e0(self, n: int) -> float:
        """Heisenberg ring ground energy from its S^z = 0 block: dense eig
        for sides up to 4096, ARPACK on the block above."""

        def build():
            states = np.array(
                [s for s in range(2 ** n) if bin(s).count("1") == n // 2], dtype=np.int64
            )
            block = xxz_ring_sparse(n, 1.0, states)
            if 2 ** n <= DENSE_CUTOFF:
                return float(np.linalg.eigvalsh(block.toarray())[0])
            from scipy.sparse.linalg import eigsh

            return float(eigsh(block, k=1, which="SA", tol=1e-12)[0][0])

        return self._memo(("ring", n), build)

    def product_min_2x2(self, h: np.ndarray) -> float:
        """Minimum of <a,b|H|a,b> over two-qubit product states: for each
        Bloch angle (theta, phi) of qubit a the best b gives the smaller
        eigenvalue of <a|H|a>; a grid over the sphere, then Nelder-Mead
        from the three best grid points."""
        from scipy.optimize import minimize

        h4 = h.reshape(2, 2, 2, 2)

        def f(theta, phi):
            a = np.stack([np.cos(theta / 2) + 0j, np.exp(1j * phi) * np.sin(theta / 2)])
            m = np.einsum("i...,kilj,j...->kl...", a.conj(), h4.transpose(1, 0, 3, 2), a)
            mean = (m[0, 0].real + m[1, 1].real) / 2
            half = (m[0, 0].real - m[1, 1].real) / 2
            return mean - np.sqrt(half ** 2 + np.abs(m[0, 1]) ** 2)

        theta, phi = np.meshgrid(np.linspace(0, np.pi, 181), np.linspace(0, 2 * np.pi, 361))
        grid = f(theta, phi)
        best = np.argsort(grid, axis=None)[:3]
        return min(
            minimize(lambda x: float(f(x[0], x[1])), [theta.flat[i], phi.flat[i]],
                     method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14}).fun
            for i in best
        )

    def xy_e0(self, gamma: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Thermodynamic XY ground energy per site by a midpoint rule over
        the Brillouin zone (entgap uses adaptive quadrature)."""
        m = 20000
        k = (np.arange(m) + 0.5) * np.pi / m
        out = np.empty(len(gamma))
        for i, (g, l) in enumerate(zip(gamma, lam)):
            eps = 2.0 * np.sqrt((l + np.cos(k)) ** 2 + (g * np.sin(k)) ** 2)
            out[i] = -np.mean(eps) / 2.0
        return out


def _near(a, b, tol) -> bool:
    return a is not None and abs(a - b) <= tol


def check(o: Outcome, oracles: Oracles) -> str | None:
    """Why the outcome misses its oracle, or None when it passes."""
    req, out = o.request, o.output
    if req.kind == "search":
        if out.n_samples != req.params["n"]:
            return f"n_samples {out.n_samples}"
        if not out.max_t <= AFM_SCALED_T + 1e-6:
            return f"max_t {out.max_t} above 1/ln 3"
        expected = 1 if req.params["check_every"] else 0
        if out.seesaw_checks != expected:
            return f"seesaw_checks {out.seesaw_checks}, expected {expected}"
        if out.seesaw_max_deviation > SEESAW_TOL:
            return _check_seesaw_miss(req.params["seed"], out.seesaw_max_deviation, oracles)
        return None
    if req.kind == "lanczos":
        return _check_ring(req, out)
    if out["code"] != 0:
        return f"exit code {out['code']}: {out['stderr'].strip()[-200:]}"
    argv = req.params["argv"]
    if argv[0] in ("gap", "temp", "window") and "--lattice" not in argv:
        return _check_bracket(argv[0], argv[2], out["payload"], oracles)
    if argv[0] == "gap":
        return _check_star(out["payload"])
    if argv[0] == "table1":
        return _check_table1(out["payload"])
    if argv[0] == "table2":
        return _check_table2(out["payload"], oracles)
    if argv[0] == "xy-scan":
        return _check_xy(out["payload"], oracles)
    return f"no oracle for {argv[0]}"


def search_sample(seed: int, index: int) -> tuple[float, float, np.ndarray]:
    """Sample ``index`` of ``random_search(seed=seed, ground="haar")``,
    rebuilt here: (E1, E2) uniform and ordered, Haar eigenbasis by QR with
    phase fix, spectrum {0, E1, E2, 1}."""
    rng = np.random.default_rng((seed, index))
    e1, e2 = np.sort(rng.uniform(0.0, 1.0, 2))
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return float(e1), float(e2), (u * np.array([0.0, e1, e2, 1.0])) @ u.conj().T


def _check_seesaw_miss(seed: int, deviation: float, oracles: Oracles) -> str | None:
    """Decide a seesaw cross-check that missed the PPT value.

    On 2x2 the PPT value is the exact separable energy, while the seesaw
    (8 restarts inside ``random_search``) can stop in a local minimum: on
    about one Haar sample in 1500 it lands 1e-3..1e-2 above.  That is a
    loose but valid upper bound.  The checked sample (index 0) is rebuilt
    and both bounds recomputed the way ``random_search`` computes them; the
    request fails unless they reproduce the reported deviation, the PPT
    value equals the product-state minimum computed here, and the seesaw
    value does not undercut it."""
    from entgap.operators import HermitianOperator
    from entgap.separability import ppt_lower, seesaw_upper

    _, _, h = search_sample(seed, 0)
    op = HermitianOperator(h, (2, 2))
    lower, _ = ppt_lower(op, gap_tol=5e-7)
    upper, _ = seesaw_upper(op, restarts=8, seed=0)
    exact = oracles.product_min_2x2(h)
    if abs(abs(upper - lower) - deviation) > 1e-12:
        return f"seesaw deviation {deviation} not reproduced ({abs(upper - lower)})"
    if not _near(lower, exact, SEESAW_TOL):
        return f"PPT value {lower} misses the product-state minimum {exact}"
    if upper < exact - SEESAW_TOL:
        return f"seesaw value {upper} below the product-state minimum {exact}"
    oracles.notes.append(f"seesaw local minimum {upper - exact:.3g} above E_sep (seed {seed})")
    return None


def _check_bracket(cmd: str, model: str, p: dict, oracles: Oracles) -> str | None:
    w = oracles.spectrum(model)
    if cmd == "window":
        h, dims = oracles.model_matrix(model)
        if p["e_sep_reference"] < w[0] - 1e-9:
            return f"seesaw value {p['e_sep_reference']} below E0 {w[0]}"
        if p["window"] is None:
            if model == "upb:tiles":
                return "upb:tiles window missing"
            # the command scans this grid; no point of it may be clearly inside
            for t in np.geomspace(WINDOW_GRID[0], WINDOW_GRID[1], WINDOW_GRID[2]):
                if (_thermal_energy(w, t) < p["e_sep_reference"] - 1e-9
                        and _gibbs_pt_min(h, dims, t) > 1e-9):
                    return f"no window reported, but T={t:.4g} is inside one"
            return None
        t_lo, t_hi = p["window"]
        if not t_lo <= t_hi:
            return f"window {p['window']} inverted"
        for t in (t_lo, t_hi):
            if _thermal_energy(w, t) >= p["e_sep_reference"] + 1e-9:
                return f"U({t}) not below the separable energy"
            if _gibbs_pt_min(h, dims, t) < -1e-9:
                return f"Gibbs state at T={t} is not PPT"
        return None
    lo, up = p["e_sep_lower"], p["e_sep_upper"]
    if not lo <= up + 1e-7:
        return f"bracket inverted: {lo} > {up}"
    if up < w[0] - 1e-9:
        return f"upper {up} below E0 {w[0]}"
    exact = _closed_form_sep(model)
    if exact is not None and not (_near(up, exact, 1e-6) and lo <= exact + 1e-7):
        return f"bracket [{lo}, {up}] misses E_sep = {exact}"
    if model in ("heisenberg", "maxent:3", "symproj:3") and not _near(lo, exact, 1e-6):
        return f"PPT lower {lo} misses the exact E_sep {exact}"
    if model == "choi" and not _near(lo, CHOI_PPT, 1e-6):
        return f"PPT lower {lo} misses the Choi PPT value {CHOI_PPT}"
    if cmd == "gap":
        if not (_near(p["e0"], w[0], 1e-8) and _near(p["e_max"], w[-1], 1e-8)):
            return f"E0/E_max {p['e0']}, {p['e_max']} vs eig {w[0]}, {w[-1]}"
        return None
    us = [s["U"] for s in p["samples"]]
    if any(b < a - 1e-9 for a, b in zip(us, us[1:])):
        return "thermal energy decreases with T"
    if p["t_gap"] is not None and not _near(_thermal_energy(w, p["t_gap"]), up, 1e-8):
        return f"U(t_gap) misses e_sep_upper {up}"
    return None


def _check_star(p: dict) -> str | None:
    k = 4
    if not _near(p["e0"], -(k + 2.0), 1e-8):
        return f"star:4 E0 {p['e0']} != -(k+2)"
    lo, up = p["e_sep_lower"], p["e_sep_upper"]
    if not lo <= up + 1e-7:
        return f"bracket inverted: {lo} > {up}"
    if not (_near(lo, -k, 1e-6) and _near(up, -k, 1e-6)):
        return f"star:4 bracket [{lo}, {up}] misses E_sep = -4"
    return None


def _check_table1(p: dict) -> str | None:
    rows = p["rows"]
    if [r["k"] for r in rows] != list(range(1, 7)):
        return "table1 rows are not k = 1..6"
    for r in rows:
        k = r["k"]
        if not _near(r["e0_per_bond"] * k, -(k + 2.0), 1e-9):
            return f"star:{k} E0 {r['e0_per_bond'] * k} != -(k+2)"
        if not _near(r["e_sep_per_bond"], -1.0, 1e-6):
            return f"star:{k} E_sep per bond {r['e_sep_per_bond']} != -1"
    return None


def _check_table2(p: dict, oracles: Oracles) -> str | None:
    chain = [r for r in p["rows"] if r["lattice"] == "1d chain"]
    if len(chain) != 1:
        return "table2 has no 1d chain row"
    if not _near(chain[0]["e0_per_bond"], BETHE_CHAIN, CHAIN_FIT_TOL):
        return f"chain extrapolation {chain[0]['e0_per_bond']} vs Bethe {BETHE_CHAIN}"
    fit = p["meta"]["chain_fit"]
    for n, e in zip(fit["ring_sizes"], fit["per_site"]):
        if not _near(e, oracles.heisenberg_ring_e0(n) / n, 1e-8):
            return f"ring:{n} E0/site {e} vs {oracles.heisenberg_ring_e0(n) / n}"
    return None


def _check_xy(p: dict, oracles: Oracles) -> str | None:
    rows = p["rows"]
    if len(rows) != 21 * 41:
        return f"xy-scan gave {len(rows)} points, expected 861"
    gamma = np.array([r["gamma"] for r in rows])
    lam = np.array([r["lambda"] for r in rows])
    e0 = np.array([r["e0"] for r in rows])
    if np.max(np.abs(e0 - oracles.xy_e0(gamma, lam))) > 1e-6:
        return "xy-scan E0 misses the Brillouin-zone integral"
    if any(r["gap"] < -1e-12 or abs(r["e_max"] + r["e0"]) > 1e-12 for r in rows):
        return "xy-scan gap negative or spectrum not symmetric"
    return None


def _check_ring(req: Request, out) -> str | None:
    e, v = out
    h = xxz_ring_sparse(req.params["n"], req.params["delta"])
    v = np.asarray(v)
    norm = float(np.linalg.norm(v))
    hv = h @ v
    residual = float(np.linalg.norm(hv - e * v)) / norm
    rayleigh = float(np.real(np.vdot(v, hv))) / norm ** 2
    if residual > 1e-8 or abs(rayleigh - e) > 1e-8:
        return f"ring:{req.params['n']} residual {residual:.2e}, Rayleigh gap {abs(rayleigh - e):.2e}"
    return None
