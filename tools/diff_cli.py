#!/usr/bin/env python3
"""Diff the stdout and exit codes of the command-line interface between two trees.

    python tools/diff_cli.py OLD_SRC NEW_SRC

runs each invocation below as ``python -m entgap.cli`` once with
PYTHONPATH=OLD_SRC and once with PYTHONPATH=NEW_SRC, and prints every
invocation whose stdout or exit code differs.  Where both last lines of
stdout are JSON, it also prints the largest absolute drift of each key
path that moved (list indices are kept for lists of objects and dropped
for lists of numbers, so ``meta.chain_fit.per_site`` is one path), or
``changed`` where a value is not a number on both sides.

The set, 113 invocations:
  * thermal: ``temp --json``, ``temp --csv``, ``window --json`` and
    ``window --t-min 1.0 --t-max 1.5 --json`` (each with ``--restarts 16``)
    on eight named models and on the first four seeded random operators of
    each shape that perfbench's ``write_random_hamiltonians(1, dir)``
    writes; ``compare-temps --dims 3,4 --json``; the Tiles UPB window on
    [0.01, 1]; and ``xy-scan --json``;
  * brackets: ``gap --json`` on the eight named models, and ``gap --json``
    for heisenberg on star:4 and chain:5 and for xxz:1.3 on ring:5;
  * tables and search: ``table1 --json``, ``table2 --json`` and
    ``search-2q --samples 3000 --seed 5 --workers 1 --json``.
Exits 1 when any invocation differs.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
from perfbench.workloads import write_random_hamiltonians  # noqa: E402

NAMED = ("choi", "heisenberg", "ces:3", "ces:4", "upb:tiles", "maxent:3", "symproj:3",
         "xy:1:0.5")
PER_MODEL = (
    ("temp", "--json"),
    ("temp", "--csv"),
    ("window", "--json"),
    ("window", "--t-min", "1.0", "--t-max", "1.5", "--json"),
)


def invocations(directory: str) -> list[list[str]]:
    files = write_random_hamiltonians(1, directory)
    models = list(NAMED) + ["file:" + p for paths in files.values() for p in paths[:4]]
    runs = [[command, "--model", model, "--restarts", "16", *flags]
            for model in models for command, *flags in PER_MODEL]
    return runs + [
        ["compare-temps", "--dims", "3,4", "--json"],
        ["window", "--model", "upb:tiles", "--t-min", "0.01", "--t-max", "1.0", "--json"],
        ["xy-scan", "--json"],
        *(["gap", "--model", model, "--json"] for model in NAMED),
        ["gap", "--model", "heisenberg", "--lattice", "star:4", "--json"],
        ["gap", "--model", "heisenberg", "--lattice", "chain:5", "--json"],
        ["gap", "--model", "xxz:1.3", "--lattice", "ring:5", "--json"],
        ["table1", "--json"],
        ["table2", "--json"],
        ["search-2q", "--samples", "3000", "--seed", "5", "--workers", "1", "--json"],
    ]


def run(src: str, argv: list[str]):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-m", "entgap.cli", *argv], env=env,
                          capture_output=True)
    return done.returncode, done.stdout


def _last_json(stdout: bytes):
    lines = stdout.splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def drifts(old, new, path: str = "", out: dict | None = None) -> dict:
    """Largest absolute difference per key path between two parsed JSON
    values; inf where the values are not both numbers or the structure
    differs."""
    out = {} if out is None else out
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            drifts(old[key], new[key], f"{path}.{key}" if path else key, out)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            drifts(a, b, f"{path}[{i}]" if isinstance(a, (dict, list)) else path, out)
    elif old != new:
        d = abs(new - old) if _is_number(old) and _is_number(new) else math.inf
        out[path] = max(out.get(path, 0.0), d)
    return out


def main(old_src: str, new_src: str) -> int:
    with tempfile.TemporaryDirectory() as directory:
        runs = invocations(directory)
        differ = 0
        for argv in runs:
            old, new = run(old_src, argv), run(new_src, argv)
            if old == new:
                continue
            differ += 1
            print("differs:", " ".join(argv))
            if old[0] != new[0]:
                print(f"  exit code {old[0]} -> {new[0]}")
            a, b = _last_json(old[1]), _last_json(new[1])
            if a is not None and b is not None:
                for path, d in sorted(drifts(a, b).items()):
                    print(f"  {path or '(top)'} {'changed' if d == math.inf else f'{d:.2g}'}")
            sys.stdout.flush()
    print(f"{len(runs) - differ} of {len(runs)} invocations give identical stdout "
          "and exit code")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
