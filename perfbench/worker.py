"""One fresh benchmark process: set up, run the measured phase, report.

Started by ``run.py`` with BLAS pinned to one thread.  Set-up is import,
input generation and warm-up; the monotonic time at which it ends is
reported so the parent can time set-up from the moment it spawned this
process.  With ``--probe`` the process stops there.

Untraced, requests run in whole cycles for about ``--seconds``.
Traced, a fixed number of cycles runs twice over the same requests: once
untraced, once with the tracer installed; the ratio of the two wall times
is the tracing overhead.  Outputs are checked against the oracles after
the measured phase, so checking costs no measured time.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import workloads as wl


def _run_one(req: wl.Request) -> wl.Outcome:
    t0 = time.perf_counter()
    try:
        out = wl.execute(req)
    except Exception as exc:  # a request that raises is a failed request
        return wl.Outcome(req, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    return wl.Outcome(req, time.perf_counter() - t0, output=out)


def _timed_loop(workload, seed, seconds, files):
    """Whole cycles, as many as bring the measured time nearest to
    ``seconds``, but at least two, so every request class has two latency
    samples even when a slow host stretches a long cycle."""
    outcomes = []
    start = time.perf_counter()
    index = 0
    while True:
        outcomes += [_run_one(r) for r in wl.cycle(workload, seed, index, files)]
        index += 1
        elapsed = time.perf_counter() - start
        if index >= 2 and abs(elapsed + elapsed / index - seconds) > abs(elapsed - seconds):
            return outcomes, elapsed


def _traced(workload, seed, seconds, files):
    from tracer import Tracer

    requests = [
        r for c in range(wl.trace_cycles(workload, seconds))
        for r in wl.cycle(workload, seed, c, files)
    ]
    t0 = time.perf_counter()
    plain = [_run_one(r) for r in requests]
    wall_plain = time.perf_counter() - t0

    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        traced = []
        for i, r in enumerate(requests):
            tracer.begin_request(i)
            traced.append(_run_one(r))
        wall_traced = time.perf_counter() - t0

    for a, b in zip(plain, traced):
        if a.error is None and b.error is None and not wl.same_output(a.request, a.output, b.output):
            b.failure = "traced run gave a different output"
    per_layer = tracer.metrics()
    per_layer["trace.overhead"] = wall_traced / wall_plain - 1.0
    per_layer["trace.coverage"] = tracer.root_time() / wall_traced
    width = wl.bracket_width(traced)
    per_layer["separability.bracket_width"] = width if width is not None else 0.0
    return plain + traced, wall_plain, per_layer


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict mode of show_config
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    import entgap  # noqa: F401  (import is part of set-up)

    files = None
    if args.workload == "brackets":
        files = wl.write_random_hamiltonians(args.seed, args.workdir)
    wl.warm_up(args.workload, args.seed, files)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    per_layer = None
    if args.trace:
        outcomes, wall, per_layer = _traced(args.workload, args.seed, args.seconds, files)
        measured = outcomes[: len(outcomes) // 2]
    else:
        outcomes, wall = _timed_loop(args.workload, args.seed, args.seconds, files)
        measured = outcomes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracles = wl.Oracles()
    for o in outcomes:
        if o.failure is None:
            o.failure = o.error or wl.check(o, oracles)
    failures = [f"{o.request.cls}: {o.failure}" for o in outcomes if o.failure]

    classes: dict = {}
    for o in measured:
        classes.setdefault(o.request.cls, []).append(o.latency)
    print(json.dumps({
        "ready": ready,
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures[:10],
        "notes": oracles.notes,
        "wall_s": wall,
        "units": sum(o.request.units for o in measured),
        "latencies": [o.latency for o in measured],
        "class_median_s": {k: sorted(v)[len(v) // 2] for k, v in sorted(classes.items())},
        "peak_rss_mb": peak_rss_mb,
        "bracket_width": wl.bracket_width(measured),
        "per_layer": per_layer,
        "env": _environment(args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
