"""Run one benchmark workload traced for about a second and check its result line.

Usage (from anywhere in the checkout):

    python3 .github/scripts/traced_smoke.py WORKLOAD

The last line that `perfbench/run.py --trace 1` prints must be strict
JSON (no NaN or Infinity), say `"correct": true`, and hold every
per-layer metric that BENCHMARK.json lists.  A function the tracer no
longer finds, or a cache that got no lookup, leaves its metric out, and
this check then fails.  Exits 0 when the line passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _reject(constant: str):
    raise ValueError(f"non-finite {constant} in the result line")


def problems(workload: str) -> list[str]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
    argv += ["--seconds", "1", "--trace", "1"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        return [f"run.py exited {run.returncode}: {run.stderr.strip()[-500:]}"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject)
    except ValueError as exc:
        return [f"last line is not strict JSON ({exc}): {lines[-1][:200]}"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = result.get("metrics", {})
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics]
    if missing:
        found.append(f"per-layer metrics absent: {', '.join(missing)}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    found = problems(argv[0])
    for problem in found:
        print(f"{argv[0]}: {problem}")
    if not found:
        print(f"{argv[0]}: traced run whole")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
