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
import json
import sys
from dataclasses import dataclass, fields, replace
from functools import cache

import numpy as np

from . import lattices, models, sdp, separability, tables, thermo, twoqubit, xy
from .operators import LanczosError, eig

SCHEMA = 1
OUTPUTS = ("json", "csv", "pretty")
# above xy-scan's tracemalloc peak with its output written to a StringIO,
# about 0.16 MB (mostly the Brillouin-zone pass's chunk) plus 545 B a point:
# 396 KB on 441 points and 11.2 MB on 20,301
XY_BASE_BYTES = 2**19
XY_POINT_BYTES = 640


@dataclass
class RunConfig:
    seed: int = 0
    restarts: int = 64
    sdp_tol: float = 1e-7
    bisect_tol: float = 1e-10
    output: str = "pretty"

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.sdp_tol <= 0 or self.bisect_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.output not in OUTPUTS:
            raise ValueError(f"output must be one of {', '.join(OUTPUTS)}, got {self.output!r}")


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
    """Each setting from its flag if the command has one and it was given,
    else from the config file (coerced to the type of the field default),
    else the field default.  A config file may set any field, whichever
    command reads it."""
    unknown = sorted(set(file_cfg) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    values = {}
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
        elif f.name in file_cfg:
            values[f.name] = type(f.default)(file_cfg[f.name])
    return RunConfig(**values)


def _write_csv(fh, rows):
    """``rows``, any iterable of dicts, as CSV with the first row's keys
    for its header; nothing when there is no row."""
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        writer = csv.DictWriter(fh, fieldnames=list(first))
        writer.writeheader()
        writer.writerow(first)
        writer.writerows(rows)


def _emit(cfg: RunConfig, payload: dict, rows: list[dict], pretty_lines=()):
    """The one output path: ``rows`` as CSV, or the schema-tagged JSON
    line, preceded by ``pretty_lines`` in pretty mode."""
    if cfg.output == "csv":
        _write_csv(sys.stdout, rows)
        return
    if cfg.output == "pretty":
        for line in pretty_lines:
            print(line)
    print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))


def _sdp_exit_code(bracket: separability.SepBracket) -> int:
    """0 when the PPT solve behind the bracket converged, else 3."""
    return 0 if bracket.ppt.converged else 3


def cmd_gap(args, cfg: RunConfig) -> int:
    h = models.from_identifier(args.model)
    if args.lattice:
        if h.n_subsystems != 2 or h.dims[0] != h.dims[1]:
            raise ValueError("--lattice needs a two-site coupling model")
        spec = lattices.LatticeSpec.from_identifier(args.lattice, local_dim=h.dims[0])
        # the PPT solve over the lattice's cuts is what must fit in memory;
        # a real coupling assembles into a real lattice
        sdp.check_ppt_fits(spec.dim, real=not h.matrix.imag.any())
        h = lattices.assemble(spec, h).dense
    report = separability.entanglement_gap(
        h, restarts=cfg.restarts, seed=cfg.seed, gap_tol=cfg.sdp_tol
    )
    payload = report.to_dict()
    payload["model"] = args.model
    if args.lattice:
        payload["lattice"] = args.lattice
    row = payload | {"gap": payload["gap"][1], "gap_lower": payload["gap"][0],
                     "scaled_gap": payload["scaled_gap"][1],
                     "scaled_gap_lower": payload["scaled_gap"][0]}
    _emit(cfg, payload, [row], [
        f"model: {args.model}",
        f"E0 = {report.e0:.9g}   E_max = {report.e_max:.9g}",
        f"E_sep in [{report.sep.lower:.9g}, {report.sep.upper:.9g}]",
        f"gap in [{report.gap_lower:.9g}, {report.gap_upper:.9g}]",
        f"scaled gap in [{report.scaled_gap_lower:.9g}, {report.scaled_gap_upper:.9g}]",
        f"witness offset = {report.witness_offset:.9g}",
    ])
    return _sdp_exit_code(report.sep)


def cmd_temp(args, cfg: RunConfig) -> int:
    if args.n_grid < 1:
        raise ValueError(f"--n-grid must be >= 1, got {args.n_grid}")
    h = models.from_identifier(args.model)
    # a flag the grid cannot hold gives inf or nan there, refused by value
    # before the bracket's work
    with np.errstate(invalid="ignore"):
        grid = thermo.temperature_grid(np.geomspace(args.t_min, args.t_max, args.n_grid))
    bracket = separability.sep_bracket(
        h, restarts=cfg.restarts, seed=cfg.seed, gap_tol=cfg.sdp_tol
    )
    spec = eig(h)
    samples = thermo.thermal_curve(spec, grid)
    w = spec.eigenvalues
    t_gap = thermo.entanglement_gap_temperature(w, bracket.upper, tol=cfg.bisect_tol)
    t_scaled = None if t_gap is None else t_gap / (spec.e_max - spec.e0)
    t_lower = thermo.entanglement_gap_temperature(w, bracket.lower, tol=cfg.bisect_tol)
    rows = [{"T": t, "U": u, "ppt": int(p)} for (t, u, p) in samples]
    payload = {
        "model": args.model,
        "e_sep_lower": bracket.lower,
        "e_sep_upper": bracket.upper,
        "t_gap": t_gap,
        "t_gap_scaled": t_scaled,
        "t_gap_from_lower_bound": t_lower,
        "samples": rows,
    }
    _emit(cfg, payload, rows, [
        f"model: {args.model}",
        f"E_sep in [{bracket.lower:.9g}, {bracket.upper:.9g}]",
        f"t_gap = {t_gap}   scaled = {t_scaled}   (from the seesaw value, not certified)",
        f"t_gap_from_lower_bound = {t_lower}   (certified, from the PPT bound)",
    ])
    return _sdp_exit_code(bracket)


def cmd_window(args, cfg: RunConfig) -> int:
    h = models.from_identifier(args.model)
    if args.e_sep is None:
        e_sep, _ = separability.seesaw_upper(h, restarts=cfg.restarts, seed=cfg.seed)
    else:
        e_sep = args.e_sep
    window = thermo.bound_entanglement_window(
        eig(h),
        e_sep,
        t_min=args.t_min,
        t_max=args.t_max,
        n_grid=args.n_grid,
        refine_tol=args.refine_tol,
    )
    payload = {"model": args.model, "e_sep_reference": e_sep,
               "window": list(window) if window is not None else None}
    t_low, t_high = window if window is not None else (None, None)
    row = {"model": args.model, "e_sep_reference": e_sep, "t_low": t_low, "t_high": t_high}
    ratio = (args.t_max / args.t_min) ** (1 / (args.n_grid - 1))
    _emit(cfg, payload, [row], [
        f"window: [{t_low:.4f}, {t_high:.4f}]" if window is not None else
        f"no bound-entanglement window found on {args.n_grid} log-spaced points in "
        f"[{args.t_min:g}, {args.t_max:g}] (ratio {ratio:.4f} between points); "
        "a narrower window can fall between points"
    ])
    return 0


def cmd_table1(args, cfg: RunConfig) -> int:
    rows = tables.table1_report(restarts=cfg.restarts, seed=cfg.seed)
    _emit(cfg, {"rows": rows}, rows, [
        f"{'k':>2} {'E0/bond':>10} {'Esep/bond':>10} {'gap/bond':>10} {'scaled':>8}",
        *(
            f"{r['k']:>2} {r['e0_per_bond']:>10.4f} {r['e_sep_per_bond']:>10.4f} "
            f"{r['gap_per_bond']:>10.4f} {r['scaled_gap']:>8.4f}"
            for r in rows
        ),
    ])
    return 0


def cmd_table2(args, cfg: RunConfig) -> int:
    rows, meta = tables.table2_report(restarts=cfg.restarts, seed=cfg.seed)
    _emit(cfg, {"rows": rows, "meta": meta}, rows, [
        f"{'lattice':<20} {'coord':>5} {'E0/bond':>9} {'Esep/bond':>10} "
        f"{'gap/bond':>9} {'scaled':>7}  source",
        *(
            f"{r['lattice']:<20} {r['coordination']:>5} {r['e0_per_bond']:>9.4f} "
            f"{r['e_sep_per_bond']:>10.4f} {r['gap_per_bond']:>9.4f} "
            f"{r['scaled_gap']:>7.4f}  {r['source']}"
            for r in rows
        ),
    ])
    return 0


def _parse_grids(*texts: str) -> list[np.ndarray]:
    """``start:stop:step`` grids, stop included.  Their points are counted
    before any grid is allocated, and grids whose surface (one point per
    combination) exceeds physical memory at ``XY_BASE_BYTES`` plus
    ``XY_POINT_BYTES`` per point are refused."""
    specs = []
    for text in texts:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not np.isfinite([start, stop, step]).all():
            raise ValueError(f"grid {text!r} must be finite")
        if step <= 0:
            raise ValueError("grid step must be positive")
        specs.append((start, stop + step / 2, step))
    # the lengths np.arange gives these grids
    points = np.prod([max(0.0, np.ceil((stop - start) / step)) for start, stop, step in specs])
    need, have = XY_BASE_BYTES + points * XY_POINT_BYTES, sdp._physical_memory()
    if need > have:
        raise ValueError(
            f"an xy-scan surface of {points:.0f} points needs {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )
    return [np.arange(*spec) for spec in specs]


def cmd_xy_scan(args, cfg: RunConfig) -> int:
    gammas, lams = _parse_grids(args.gamma, args.lambda_grid)
    points = xy.xy_gap_surface(gammas, lams)
    # each row is made and written in turn, so the surface is held once
    rows = ({"gamma": p.gamma, "lambda": p.lam, "e_sep": p.e_sep_bond, "e0": p.e0_site,
             "e_max": p.e_max_site, "gap": p.gap_bond, "scaled_gap": p.scaled_gap}
            for p in points)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            _write_csv(fh, rows)
        # the surface went to the file; stdout gets its JSON summary line
        _emit(replace(cfg, output="json"), {"points": len(points), "out": args.out}, [])
    elif cfg.output == "csv":
        _write_csv(sys.stdout, rows)
    else:
        if cfg.output == "pretty":
            print(f"{len(points)} points on gamma {args.gamma} x lambda {args.lambda_grid}")
        # the line _emit prints for {"rows": [...]}, one row at a time
        sys.stdout.write('{"rows": [')
        for i, row in enumerate(rows):
            sys.stdout.write((", " if i else "") + json.dumps(row, sort_keys=True))
        sys.stdout.write(f'], "schema": {SCHEMA}}}\n')
    return 0


def cmd_search_2q(args, cfg: RunConfig) -> int:
    result = twoqubit.random_search(
        args.samples, seed=cfg.seed, ground=args.ground, workers=args.workers
    )
    payload = result.to_dict()
    payload["afm_reference"] = twoqubit.afm_reference_temperature()
    _emit(cfg, payload, [payload], [
        f"max t over {args.samples} samples: {result.max_t:.9f} "
        f"(AFM reference {payload['afm_reference']:.9f})"
    ])
    return 0


def cmd_compare_temps(args, cfg: RunConfig) -> int:
    dims = [int(d) for d in args.dims.split(",")]
    rows = thermo.temperature_comparison(dims, seed=cfg.seed, gap_tol=cfg.sdp_tol)
    flat = [{"d": r["d"], "t_maxent": r["t_maxent"], "t_symproj": r["t_symproj"],
             "t_ces_lower": r["t_ces_bracket"][0], "t_ces_upper": r["t_ces_bracket"][1]}
            for r in rows]

    def fmt(t):  # a temperature is None where the thermal energy never reaches E_sep
        return "none" if t is None else f"{t:.9g}"

    _emit(cfg, {"rows": rows}, flat, [
        f"d={r['d']}: t_maxent = {fmt(r['t_maxent'])}   t_symproj = {fmt(r['t_symproj'])}   "
        f"t_ces in [{fmt(r['t_ces_lower'])}, {fmt(r['t_ces_upper'])}]"
        for r in flat
    ])
    return 0


def _add_command(sub, name, func, settings, summary):
    """A subcommand with ``--config``, the format group and a flag for each
    ``RunConfig`` setting in ``settings`` (the ones ``func`` reads)."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--config", help="key=value config file")
    for setting in settings:
        p.add_argument("--" + setting.replace("_", "-"),
                       type=type(getattr(RunConfig, setting)), default=None)
    fmt = p.add_mutually_exclusive_group()
    for output in OUTPUTS:
        fmt.add_argument("--" + output, action="store_const", dest="output", const=output)
    p.set_defaults(func=func, output=None)
    return p


@cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entgap",
        description="Certified separable-energy brackets, entanglement gaps "
        "and gap temperatures for spin Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = ("seed", "restarts")

    p = _add_command(sub, "gap", cmd_gap, (*seeded, "sdp_tol"),
                     "entanglement-gap report for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--lattice")

    p = _add_command(sub, "temp", cmd_temp, (*seeded, "sdp_tol", "bisect_tol"),
                     "thermal curve and gap temperature")
    p.add_argument("--model", required=True)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--n-grid", type=int, default=40)

    p = _add_command(sub, "window", cmd_window, seeded,
                     "bound-entanglement temperature window")
    p.add_argument("--model", required=True)
    p.add_argument("--e-sep", type=float, default=None,
                   help="override the separable-energy reference")
    p.add_argument("--t-min", type=float, default=0.02)
    p.add_argument("--t-max", type=float, default=3.0)
    p.add_argument("--n-grid", type=int, default=80)
    p.add_argument("--refine-tol", type=float, default=1e-4)

    _add_command(sub, "table1", cmd_table1, seeded, "star-graph gap table")
    _add_command(sub, "table2", cmd_table2, seeded, "lattice gap table")

    p = _add_command(sub, "xy-scan", cmd_xy_scan, (), "XY gap surface scan")
    p.add_argument("--gamma", default="0:1:0.05")
    p.add_argument("--lambda", dest="lambda_grid", default="0:2:0.05")
    p.add_argument("--out")

    p = _add_command(sub, "search-2q", cmd_search_2q, ("seed",),
                     "random two-qubit gap-temperature search")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--ground", choices=["haar", "singlet"], default="haar")
    p.add_argument("--workers", type=int, default=None)

    p = _add_command(sub, "compare-temps", cmd_compare_temps, ("seed", "sdp_tol"),
                     "projector-family gap temperatures")
    p.add_argument("--dims", default="3,4,5,6")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = _load_config(args.config) if args.config else {}
        cfg = _run_config(args, file_cfg)
        return args.func(args, cfg)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LanczosError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
