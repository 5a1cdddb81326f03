"""entgap benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload search2q|brackets|lattice \
        --seed N --seconds S --trace 0|1

Run from the root of an entgap checkout.  The package is imported from
``src/`` of that checkout; nothing is installed.  Each run:

1. refuses (exit 2) when ``src/entgap`` is missing or when the workload's
   planned dense bytes do not fit in available memory;
2. starts ``SETUP_PROBES`` fresh processes that only set up (import, input
   generation, warm-up), then one fresh process that sets up and runs the
   measured phase; ``setup_s`` is the median set-up time of all of them;
3. prints an information line (environment stamp, sample counts, failures,
   memory plan), then the result line.

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``tracer.py``).
Every process started here is waited for; a timed-out one is killed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from tracer import PER_LAYER_UNITS

SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
RUN_BUDGET_S = 170
# Peak RSS over planned bytes, measured on the lattice workload (1.08 GB
# against a 0.50 GB plan: temporaries while the dense ring:12 matrix is
# symmetrized), rounded up.
PEAK_FACTOR = 3
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def available_bytes() -> int | None:
    """MemAvailable, capped by the cgroup limit when there is one."""
    avail = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    avail = int(line.split()[1]) * 1024
    except OSError:
        return None
    try:
        with open("/sys/fs/cgroup/memory.max") as fh:
            limit = fh.read().strip()
        with open("/sys/fs/cgroup/memory.current") as fh:
            used = int(fh.read().strip())
        if limit != "max":
            avail = min(avail, int(limit) - used) if avail is not None else int(limit) - used
    except (OSError, ValueError):
        pass
    return avail


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it.  Over whole cycles of a fixed request mix it
    always lands inside one request class."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(p / 100 * len(ranked)) - 1)]


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def spawn(root: Path, env: dict, argv: list[str], timeout: float) -> tuple[float, dict]:
    """Run one worker to completion; returns (spawn time, its JSON line)."""
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), *argv]
    t_spawn = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        return fail("--seconds must be positive and --seed non-negative")

    started = time.monotonic()
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "entgap" / "__init__.py").is_file():
        return fail(f"no entgap sources under {src}; run from an entgap checkout")

    plan = wl.memory_plan(args.workload)
    avail = available_bytes()
    if avail is not None and PEAK_FACTOR * plan["planned_bytes"] > avail:
        return fail(
            f"{args.workload} plans {plan['planned_bytes']} bytes "
            f"(x{PEAK_FACTOR} peak) but only {avail} are available"
        )

    # byte-compile first so no set-up sample pays for it
    compileall.compile_dir(str(src), quiet=1)
    compileall.compile_dir(str(root / "perfbench"), quiet=1, maxlevels=0)
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            t_spawn, probe = spawn(root, env, common + ["--workdir", workdir, "--probe"],
                                   PROBE_TIMEOUT_S)
            setups.append(probe["ready"] - t_spawn)
        budget = RUN_BUDGET_S - (time.monotonic() - started)
        t_spawn, res = spawn(root, env, common + ["--workdir", workdir], budget)
        setups.append(res["ready"] - t_spawn)
    except subprocess.TimeoutExpired:
        return fail("worker ran past the time budget and was killed", 1)
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc), 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = res["latencies"]
    attempted, failed = res["attempted"], res["failed"]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": res["env"],
        "setup_samples_s": setups,
        "latency_samples": len(lat),
        "class_median_s": res["class_median_s"],
        "fail_ratio": failed / attempted,
        "failures": res["failures"],
        "oracle_notes": res["notes"],
        "bracket_width": res["bracket_width"],
        "memory_plan": plan,
        "available_bytes": avail,
    }))

    if args.trace:
        metrics = {
            name: {"value": res["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "throughput": {"value": res["units"] / res["wall_s"], "unit": "1/s"},
            "latency_p50_s": {"value": percentile(lat, 50), "unit": "s"},
            "latency_p90_s": {"value": percentile(lat, 90), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
