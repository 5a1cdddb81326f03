"""Tests of the benchmark's tracer, plans and oracles.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402


def _traced(requests):
    tracer = Tracer()
    with tracer:
        outcomes = [wl.Outcome(r, 0.0, output=wl.execute(r)) for r in requests]
    return tracer.metrics(), outcomes


def test_rebinding_reaches_every_importing_module_and_is_undone():
    from entgap import cli, lattices, operators, sdp, separability, tables, thermo, twoqubit

    imported = [
        (separability, "solve_ppt_sdp"), (twoqubit, "ppt_lower"), (thermo, "ppt_lower"),
        (twoqubit, "entanglement_gap_temperature"), (tables, "lanczos_ground"),
        (tables, "assemble"), (tables, "seesaw_upper"), (separability, "eig"),
        (thermo, "eig"), (lattices, "assemble"), (cli, "main"),
    ]
    originals = {(m.__name__, n): getattr(m, n) for m, n in imported}
    with Tracer():
        for mod, name in imported:
            assert getattr(mod, name).__wrapped__ is originals[(mod.__name__, name)]
    for mod, name in imported:
        assert getattr(mod, name) is originals[(mod.__name__, name)]
    assert sdp.solve_ppt_sdp is separability.solve_ppt_sdp
    assert operators.lanczos_ground is tables.lanczos_ground


def test_traced_counts():
    # one PPT solve per two-qubit sample
    search = wl.cycle("search2q", 0, 0)[:2]
    m, outcomes = _traced(search)
    assert m["sdp.calls"] == sum(r.params["n"] for r in search)
    assert m["ppt_lower.cuts"] == 1
    assert m["seesaw.calls"] == 1
    assert m["thermo.gap_temperature.calls"] > 0
    assert all(wl.check(o, wl.Oracles()) is None for o in outcomes)

    # star:4 is reduced over its four contiguous cuts
    star = [r for r in wl.cycle("lattice", 0, 0) if r.cls == "star4"]
    m, outcomes = _traced(star)
    assert m["ppt_lower.cuts"] == 4
    assert m["sdp.ms_per_iter.n32"] > 0
    assert m["sdp.basis_bytes"] == 4 * wl.basis_bytes(32)
    assert m["assemble.dense_bytes"] == wl.dense_bytes(32)
    assert m["cli.self_s"] > 0
    assert wl.check(outcomes[0], wl.Oracles()) is None

    ring = [wl.Request("lanczos", "ring10", {"n": 10, "delta": 0.7})]
    m, outcomes = _traced(ring)
    assert m["lanczos.calls"] == 1 and m["lanczos.matvecs"] > 0
    assert m["assemble.dense_bytes"] == 1024 ** 2 * 16
    assert wl.check(outcomes[0], wl.Oracles()) is None


def test_oracles_reject_wrong_outputs():
    oracles = wl.Oracles()
    req = next(r for r in wl.cycle("lattice", 0, 0) if r.cls == "ring14")
    e, v = wl.execute(req)
    assert wl.check(wl.Outcome(req, 0.0, output=(e, v)), oracles) is None
    assert wl.check(wl.Outcome(req, 0.0, output=(e + 1e-6, v)), oracles) is not None

    gap = wl.Request("cli", "gap:heisenberg", {"argv": ["gap", "--model", "heisenberg", "--json"]})
    out = wl.execute(gap)
    assert wl.check(wl.Outcome(gap, 0.0, output=out), oracles) is None
    bad = dict(out, payload=dict(out["payload"], e_sep_lower=-0.9))
    assert "inverted" in wl.check(wl.Outcome(gap, 0.0, output=bad), oracles)


def test_seesaw_local_minimum_is_told_apart_from_a_wrong_value():
    import dataclasses

    # sample 0 of this search is one where 8 seesaw restarts stop 4e-3 above
    # the exact separable energy: a valid, loose upper bound
    req = wl.Request("search", "checked", {"n": 2, "seed": 1362494735, "check_every": 2})
    out = wl.execute(req)
    assert out.seesaw_max_deviation > 1e-3
    oracles = wl.Oracles()
    assert wl.check(wl.Outcome(req, 0.0, output=out), oracles) is None
    assert len(oracles.notes) == 1
    bad = dataclasses.replace(out, seesaw_max_deviation=2 * out.seesaw_max_deviation)
    assert "not reproduced" in wl.check(wl.Outcome(req, 0.0, output=bad), oracles)


def test_product_minimum_oracle():
    from entgap import twoqubit
    from entgap.separability import ppt_lower

    e1, e2, h = wl.search_sample(5, 0)
    rng = np.random.default_rng((5, 0))
    f1, f2 = np.sort(rng.uniform(0.0, 1.0, 2))
    op = twoqubit.family_hamiltonian(f1, f2, twoqubit._sample_basis(rng, "haar"))
    assert (e1, e2) == (f1, f2) and np.allclose(op.matrix, h, atol=1e-14)
    assert abs(wl.Oracles().product_min_2x2(h) - ppt_lower(op)[0]) < 1e-6


def test_window_oracle_rejects_a_missed_window(tmp_path):
    files = wl.write_random_hamiltonians(3, str(tmp_path))
    model = "file:" + files[(3, 3)][0]
    req = wl.Request("cli", "window:random3x3", {"argv": ["window", "--model", model, "--json"]})
    out = wl.execute(req)
    oracles = wl.Oracles()
    assert wl.check(wl.Outcome(req, 0.0, output=out), oracles) is None
    w = oracles.spectrum(model)
    # with the top of the spectrum as separable energy, hot PPT states are inside
    bad = dict(out, payload=dict(out["payload"], window=None, e_sep_reference=float(w[-1])))
    assert "inside one" in wl.check(wl.Outcome(req, 0.0, output=bad), oracles)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_memory_plan_counts_the_dense_ring():
    plan = wl.memory_plan("lattice")
    assert plan["largest_transient"] == "dense:ring:12"
    assert plan["planned_bytes"] == 4 * wl.basis_bytes(32) + 2 * wl.basis_bytes(8) + 4096 ** 2 * 16
