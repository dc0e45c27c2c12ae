"""Write the reference values the benchmark checks variance outputs against.

Run from the repository root:

    python3 perfbench/make_reference.py

For each variance workload it runs the CLI once, takes V and every per_q
contribution from the report, and accepts them only if every
contribution agrees with the independent recomputation in `oracle.py`
to 1e-9 relative.  The result goes to perfbench/reference/<workload>.json.
Regenerate only when the workload's arguments change, never to make a
failing benchmark pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import oracle
from run import REFERENCE_DIR, REL_TOL, ROOT, WORKLOADS, child_env, rel_diff, spawn


def make(workload: str, workdir: Path) -> None:
    (args,) = WORKLOADS[workload]
    outcome = spawn([sys.executable, "-m", "normvar.cli", *args], child_env(), workdir, workload)
    if outcome.rc not in (0, 1):
        raise SystemExit(f"{workload}: exit code {outcome.rc}")
    report = json.loads(outcome.stdout.read_text())
    field, x = report["config"]["field"], report["x"]
    n, w = oracle.events(field, x)
    worst = 0.0
    for row in report["per_q"]:
        worst = max(worst, rel_diff(row["contribution"], oracle.contribution(field, x, n, w, row["q"])))
    if worst > REL_TOL:
        raise SystemExit(f"{workload}: CLI disagrees with the oracle, worst relative gap {worst:.3g}")
    ref = {
        "argv": args,
        "V": report["V"],
        "contributions": [row["contribution"] for row in report["per_q"]],
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{workload}.json").write_text(json.dumps(ref) + "\n")
    print(f"{workload}: {len(report['per_q'])} rows, worst gap to the oracle {worst:.3g}")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for workload in WORKLOADS:
            if workload.startswith("variance"):
                make(workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
