#!/usr/bin/env python3
"""Diff the stdout and exit codes of the thermal commands between two trees.

    python tools/diff_thermal_cli.py OLD_SRC NEW_SRC

runs each invocation below as ``python -m entgap.cli`` once with
PYTHONPATH=OLD_SRC and once with PYTHONPATH=NEW_SRC, and prints every
invocation whose stdout or exit code differs.  The set: ``temp --json``,
``temp --csv``, ``window --json`` and ``window --t-min 1.0 --t-max 1.5
--json`` (each with ``--restarts 16``) on eight named models and on the
first four seeded random operators of each shape that perfbench's
``write_random_hamiltonians(1, dir)`` writes; ``compare-temps --dims 3,4
--json``; the Tiles UPB window on [0.01, 1]; and ``xy-scan --json``.
Exits 1 when any invocation differs.
"""

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
    ]


def run(src: str, argv: list[str]):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-m", "entgap.cli", *argv], env=env,
                          capture_output=True)
    return done.returncode, done.stdout


def main(old_src: str, new_src: str) -> int:
    with tempfile.TemporaryDirectory() as directory:
        runs = invocations(directory)
        differ = [argv for argv in runs if run(old_src, argv) != run(new_src, argv)]
    for argv in differ:
        print("differs:", " ".join(argv))
    print(f"{len(runs) - len(differ)} of {len(runs)} invocations give identical stdout "
          "and exit code")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
