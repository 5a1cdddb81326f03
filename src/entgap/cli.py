"""Command-line interface: gap, temp, window, table and scan commands.

Every command is a thin orchestration of the library and is reproducible
from its flags and seed; JSON output is schema-versioned and sorted so a
given invocation is byte-identical run to run.  Exit codes: 0 success,
2 usage or validation error, 3 numerical non-convergence (certified
partial results are still printed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import lattices, models, separability, tables, thermo, twoqubit, xy
from .operators import DENSE_CUTOFF, LanczosError

SCHEMA = 1


@dataclass
class RunConfig:
    seed: int = 0
    restarts: int = 64
    sdp_tol: float = 1e-7
    bisect_tol: float = 1e-10
    dense_cutoff: int = DENSE_CUTOFF
    output: str = "pretty"

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.sdp_tol <= 0 or self.bisect_tol <= 0:
            raise ValueError("tolerances must be positive")


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _run_config(args, file_cfg: dict) -> RunConfig:
    """Each setting from its flag if given, else from the config file
    (coerced to the type of the field default), else the field default."""
    unknown = sorted(set(file_cfg) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    values = {}
    for f in fields(RunConfig):
        flag = getattr(args, f.name)
        if flag is not None:
            values[f.name] = flag
        elif f.name in file_cfg:
            values[f.name] = type(f.default)(file_cfg[f.name])
    return RunConfig(**values)


def _emit_json(payload: dict):
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, sort_keys=True))


def _emit_csv(rows: list[dict]):
    if not rows:
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())


def _build_model(args, cfg):
    h = models.from_identifier(args.model)
    if getattr(args, "lattice", None):
        if h.n_subsystems != 2 or h.dims[0] != h.dims[1]:
            raise ValueError("--lattice needs a two-site coupling model")
        spec = lattices.LatticeSpec.from_identifier(args.lattice, local_dim=h.dims[0])
        asm = lattices.assemble(spec, h, dense_cutoff=cfg.dense_cutoff)
        if asm.dense is None:
            raise ValueError(
                "assembled lattice exceeds the dense cutoff; gap reports need "
                "the dense form"
            )
        return asm.dense
    return h


def cmd_gap(args, cfg: RunConfig) -> int:
    h = _build_model(args, cfg)
    report = separability.entanglement_gap(
        h,
        restarts=cfg.restarts,
        seed=cfg.seed,
        dense_cutoff=cfg.dense_cutoff,
        gap_tol=cfg.sdp_tol,
    )
    payload = report.to_dict()
    payload["model"] = args.model
    if getattr(args, "lattice", None):
        payload["lattice"] = args.lattice
    if cfg.output == "json":
        _emit_json(payload)
    elif cfg.output == "csv":
        _emit_csv([payload | {"gap": payload["gap"][1], "gap_lower": payload["gap"][0],
                              "scaled_gap": payload["scaled_gap"][1],
                              "scaled_gap_lower": payload["scaled_gap"][0]}])
    else:
        print(f"model: {args.model}")
        print(f"E0 = {report.e0:.9g}   E_max = {report.e_max:.9g}")
        print(f"E_sep in [{report.sep.lower:.9g}, {report.sep.upper:.9g}]")
        print(f"gap in [{report.gap_lower:.9g}, {report.gap_upper:.9g}]")
        print(f"scaled gap in [{report.scaled_gap_lower:.9g}, {report.scaled_gap_upper:.9g}]")
        print(f"witness offset = {report.witness_offset:.9g}")
        _emit_json(payload)
    return 0 if report.sep.certificate.get("sdp_converged", True) else 3


def cmd_temp(args, cfg: RunConfig) -> int:
    h = models.from_identifier(args.model)
    bracket = separability.sep_bracket(
        h, restarts=cfg.restarts, seed=cfg.seed, gap_tol=cfg.sdp_tol
    )
    grid = np.geomspace(args.t_min, args.t_max, args.n_grid)
    curve = thermo.thermal_curve(h, grid, e_sep=bracket.upper)
    t_lower = thermo.entanglement_gap_temperature(h, bracket.lower, tol=cfg.bisect_tol)
    rows = [{"T": t, "U": u, "ppt": int(p)} for (t, u, p) in curve.samples]
    payload = {
        "model": args.model,
        "e_sep_lower": bracket.lower,
        "e_sep_upper": bracket.upper,
        "t_gap": curve.t_gap,
        "t_gap_scaled": curve.t_gap_scaled,
        "t_gap_from_lower_bound": t_lower,
        "samples": rows,
    }
    if cfg.output == "csv":
        _emit_csv(rows)
    elif cfg.output == "json":
        _emit_json(payload)
    else:
        print(f"model: {args.model}")
        print(f"E_sep in [{bracket.lower:.9g}, {bracket.upper:.9g}]")
        print(f"t_gap = {curve.t_gap}   scaled = {curve.t_gap_scaled}")
        _emit_json(payload)
    return 0 if bracket.certificate.get("sdp_converged", True) else 3


def cmd_window(args, cfg: RunConfig) -> int:
    h = models.from_identifier(args.model)
    if args.e_sep is None:
        e_sep, _ = separability.seesaw_upper(h, restarts=cfg.restarts, seed=cfg.seed)
    else:
        e_sep = args.e_sep
    window = thermo.bound_entanglement_window(
        h,
        e_sep,
        t_min=args.t_min,
        t_max=args.t_max,
        n_grid=args.n_grid,
        refine_tol=args.refine_tol,
    )
    payload = {
        "model": args.model,
        "e_sep_reference": e_sep,
        "window": list(window) if window is not None else None,
    }
    if cfg.output == "json":
        _emit_json(payload)
    elif cfg.output == "csv":
        t_low, t_high = window if window is not None else (None, None)
        _emit_csv([{"model": args.model, "e_sep_reference": e_sep,
                    "t_low": t_low, "t_high": t_high}])
    else:
        if window is None:
            print("no bound-entanglement window found")
        else:
            print(f"window: [{window[0]:.4f}, {window[1]:.4f}]")
        _emit_json(payload)
    return 0


def cmd_table1(args, cfg: RunConfig) -> int:
    rows = tables.table1_report(restarts=cfg.restarts, seed=cfg.seed)
    if cfg.output == "csv":
        _emit_csv(rows)
    else:
        if cfg.output == "pretty":
            print(f"{'k':>2} {'E0/bond':>10} {'Esep/bond':>10} {'gap/bond':>10} {'scaled':>8}")
            for r in rows:
                print(
                    f"{r['k']:>2} {r['e0_per_bond']:>10.4f} {r['e_sep_per_bond']:>10.4f} "
                    f"{r['gap_per_bond']:>10.4f} {r['scaled_gap']:>8.4f}"
                )
        _emit_json({"rows": rows})
    return 0


def cmd_table2(args, cfg: RunConfig) -> int:
    rows, meta = tables.table2_report(restarts=cfg.restarts, seed=cfg.seed)
    if cfg.output == "csv":
        _emit_csv(rows)
    else:
        if cfg.output == "pretty":
            print(
                f"{'lattice':<20} {'coord':>5} {'E0/bond':>9} {'Esep/bond':>10} "
                f"{'gap/bond':>9} {'scaled':>7}  source"
            )
            for r in rows:
                print(
                    f"{r['lattice']:<20} {r['coordination']:>5} {r['e0_per_bond']:>9.4f} "
                    f"{r['e_sep_per_bond']:>10.4f} {r['gap_per_bond']:>9.4f} "
                    f"{r['scaled_gap']:>7.4f}  {r['source']}"
                )
        _emit_json({"rows": rows, "meta": meta})
    return 0


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid {text!r} must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    return np.arange(start, stop + step / 2, step)


def cmd_xy_scan(args, cfg: RunConfig) -> int:
    gammas = _parse_grid(args.gamma)
    lams = _parse_grid(getattr(args, "lambda_grid"))
    points = xy.xy_gap_surface(gammas, lams)
    rows = [
        {
            "gamma": p.gamma,
            "lambda": p.lam,
            "e_sep": p.e_sep_bond,
            "e0": p.e0_site,
            "e_max": p.e_max_site,
            "gap": p.gap_bond,
            "scaled_gap": p.scaled_gap,
        }
        for p in points
    ]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        _emit_json({"points": len(rows), "out": args.out})
    elif cfg.output == "csv":
        _emit_csv(rows)
    else:
        _emit_json({"rows": rows})
    return 0


def cmd_search_2q(args, cfg: RunConfig) -> int:
    result = twoqubit.random_search(
        args.samples, seed=cfg.seed, ground=args.ground, workers=args.workers
    )
    payload = result.to_dict()
    payload["afm_reference"] = twoqubit.afm_reference_temperature()
    if cfg.output == "json":
        _emit_json(payload)
    elif cfg.output == "csv":
        _emit_csv([payload])
    else:
        print(
            f"max t over {args.samples} samples: {result.max_t:.9f} "
            f"(AFM reference {payload['afm_reference']:.9f})"
        )
        _emit_json(payload)
    return 0


def cmd_compare_temps(args, cfg: RunConfig) -> int:
    dims = [int(d) for d in args.dims.split(",")]
    rows = thermo.temperature_comparison(
        dims, n_samples=args.samples, seed=cfg.seed, gap_tol=cfg.sdp_tol
    )
    if cfg.output == "csv":
        flat = [
            {
                "d": r["d"],
                "t_maxent": r["t_maxent"],
                "t_symproj": r["t_symproj"],
                "t_ces_lower": r["t_ces_bracket"][0],
                "t_ces_upper": r["t_ces_bracket"][1],
            }
            for r in rows
        ]
        _emit_csv(flat)
    else:
        _emit_json({"rows": rows})
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--restarts", type=int, default=None)
    common.add_argument("--sdp-tol", type=float, default=None)
    common.add_argument("--bisect-tol", type=float, default=None)
    common.add_argument("--dense-cutoff", type=int, default=None)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_const", dest="output", const="json")
    fmt.add_argument("--csv", action="store_const", dest="output", const="csv")
    fmt.add_argument("--pretty", action="store_const", dest="output", const="pretty")
    common.set_defaults(output=None)

    parser = argparse.ArgumentParser(
        prog="entgap",
        description="Certified separable-energy brackets, entanglement gaps "
        "and gap temperatures for spin Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gap", parents=[common],
                       help="entanglement-gap report for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--lattice")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("temp", parents=[common], help="thermal curve and gap temperature")
    p.add_argument("--model", required=True)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--n-grid", type=int, default=40)
    p.set_defaults(func=cmd_temp)

    p = sub.add_parser("window", parents=[common], help="bound-entanglement temperature window")
    p.add_argument("--model", required=True)
    p.add_argument("--e-sep", type=float, default=None,
                   help="override the separable-energy reference")
    p.add_argument("--t-min", type=float, default=0.02)
    p.add_argument("--t-max", type=float, default=3.0)
    p.add_argument("--n-grid", type=int, default=80)
    p.add_argument("--refine-tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_window)

    p = sub.add_parser("table1", parents=[common], help="star-graph gap table")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", parents=[common], help="lattice gap table")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("xy-scan", parents=[common], help="XY gap surface scan")
    p.add_argument("--gamma", default="0:1:0.05")
    p.add_argument("--lambda", dest="lambda_grid", default="0:2:0.05")
    p.add_argument("--out")
    p.set_defaults(func=cmd_xy_scan)

    p = sub.add_parser("search-2q", parents=[common], help="random two-qubit gap-temperature search")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--ground", choices=["haar", "singlet"], default="haar")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_search_2q)

    p = sub.add_parser("compare-temps", parents=[common], help="projector-family gap temperatures")
    p.add_argument("--dims", default="3,4,5,6")
    p.add_argument("--samples", type=int, default=20000)
    p.set_defaults(func=cmd_compare_temps)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = _load_config(args.config) if args.config else {}
        cfg = _run_config(args, file_cfg)
        return args.func(args, cfg)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LanczosError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
