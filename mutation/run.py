"""Mutation gate: every committed mutant must be killed by its fast test subset.

mutants.json lists the mutants. Each names a file under src/, an exact
snippet that must occur in it once, the snippet's replacement, and the
pytest node ids that must kill it. For each mutant this script copies src/
and tests/ to a fresh temporary directory (tests/ too, so conftest's SRC and
the children it starts run the mutant), applies the one replacement there,
runs the subset with -x under PYTHONPATH=<tmp>/src and requires a failure
(pytest exit status 1). It fails when any mutant survives, when a snippet
does not occur exactly once, or when a subset does not run (a node id that
is gone). The checkout itself is never written.

    python3 mutation/run.py

It needs pytest, hypothesis and sympy, as the tests do. The last line reads
"killed K of N in T s"; the exit status is 0 only if K == N.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


def run_mutant(mutant: dict) -> str:
    """'killed', or why the mutant counts against the gate."""
    with tempfile.TemporaryDirectory(prefix="certiroot-mutant-") as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=ignore)
        target = tmp / mutant["file"]
        text = target.read_text(encoding="utf-8")
        found = text.count(mutant["snippet"])
        if found != 1:
            return f"snippet found {found} times in {mutant['file']}, not once"
        target.write_text(text.replace(mutant["snippet"], mutant["replacement"]), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant["tests"]]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"its tests ran past {TIMEOUT_S} s"
        if proc.returncode == 1:
            return "killed"
        if proc.returncode == 0:
            return "SURVIVED: every test of its subset passed"
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
        return f"its tests did not run (pytest exit {proc.returncode}): " + " | ".join(tail)


def main() -> int:
    mutants = json.loads((ROOT / "mutation" / "mutants.json").read_text(encoding="utf-8"))
    start, killed = time.perf_counter(), 0
    for mutant in mutants:
        t0 = time.perf_counter()
        outcome = run_mutant(mutant)
        killed += outcome == "killed"
        print(f"{mutant['name']}: {outcome} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"killed {killed} of {len(mutants)} in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
