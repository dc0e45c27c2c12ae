"""End-to-end and per-layer benchmark of the normvar command line.

Run from the repository root:

    python3 perfbench/run.py --workload variance-wideq --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of `normvar` CLI invocations.  The
benchmark runs them as child processes in a closed loop (one client; each
invocation starts after the previous one has exited) for --seconds, and
checks every output (see `verify`).  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
iterations and reports per-layer metrics from the traced ones, where
every child runs `trace_child.py` instead of the plain CLI.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it are a table of the metrics with quartiles
and sample counts, and the run record (versions, thread environment and
the exact argv of every invocation).

--seed only picks the moduli of the independent spot check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

#: CLI argument lists per workload; the workloads and why they were
#: chosen are described in BENCHMARK.json and perfbench/README.md
WORKLOADS = {
    "variance-wideq": [["variance", "--field", "quad:-1", "--x", "1000000", "--Q", "10000"]],
    "variance-deepx": [["variance", "--field", "Q", "--x", "10000000", "--Q", "1000"]],
    "checks-sweep": [
        ["checks", "--field", field, "--x", "1000000", "--Q", "300"]
        for field in ("Q", "quad:-1", "quad:5", "cyclo:5", "cyclo:12")
    ],
}
#: thread-pool variables removed from every child's environment, so both
#: sides of a comparison run the libraries' default pool whatever the caller set
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
REL_TOL = 1e-9
SPOT_MODULI = 8
SETUP_PER_ITERATION = 2
MIN_SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150.0

#: spans reported with their inclusive time instead of self time
INCLUSIVE_SPANS = {"cli.standard_checks", "cli.main"}


@dataclass(frozen=True)
class Outcome:
    """One finished child process: exit code, timings and output files."""

    rc: int
    wall: float
    cpu: float
    rss_mib: float
    stdout: Path
    stderr: Path


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict, workdir: Path, tag: str) -> Outcome:
    """Run argv to completion; resources come from wait4 on this child alone."""
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        reaped = threading.Event()

        def kill_if_hung():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(CHILD_TIMEOUT_S, kill_if_hung)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        out_path,
        err_path,
    )


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


class SpotCheck:
    """Reference values and the seeded, independently recomputed sample for one variance workload."""

    def __init__(self, workload: str, cli_args: list[str], seed: int):
        self.field = cli_args[cli_args.index("--field") + 1]
        self.x = int(cli_args[cli_args.index("--x") + 1])
        self.Q = int(cli_args[cli_args.index("--Q") + 1])
        with open(REFERENCE_DIR / f"{workload}.json") as fh:
            ref = json.load(fh)
        if ref["argv"] != cli_args or len(ref["contributions"]) != self.Q:
            raise SystemExit(f"reference for {workload} was made for other arguments: {ref['argv']}")
        self.V = ref["V"]
        self.contributions = ref["contributions"]
        rng = random.Random(seed)
        # half the sample has 4 | q, where quad:-1 keeps only a = 1 (mod 4)
        fours = range(4, self.Q + 1, 4)
        others = [q for q in range(1, self.Q + 1) if q % 4]
        self.moduli = sorted(rng.sample(fours, SPOT_MODULI // 2) + rng.sample(others, SPOT_MODULI // 2))
        n, w = oracle.events(self.field, self.x)
        self.expected = {q: oracle.contribution(self.field, self.x, n, w, q) for q in self.moduli}

    def problems(self, report: dict) -> list[str]:
        out = []
        if rel_diff(report["V"], self.V) > REL_TOL:
            out.append(f"V {report['V']!r} != reference {self.V!r}")
        rows = report["per_q"]
        if [r["q"] for r in rows] != list(range(1, self.Q + 1)):
            return out + ["per_q rows are not q = 1..Q"]
        bad = [r["q"] for r, ref in zip(rows, self.contributions) if rel_diff(r["contribution"], ref) > REL_TOL]
        if bad:
            out.append(f"per_q contribution off the reference at q = {bad[:5]} ({len(bad)} rows)")
        for q, value in self.expected.items():
            got = rows[q - 1]["contribution"]
            if rel_diff(got, value) > REL_TOL:
                out.append(f"spot check q={q}: {got!r} != independent {value!r}")
        return out


def count_fail_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.startswith(b"FAIL "))


def verify(outcome: Outcome, spot: SpotCheck | None) -> tuple[list[str], int]:
    """Correctness gate for one invocation: (problems, FAIL checks reported).

    Exit code 1 means a check failed; it counts toward checks_failed, not
    toward failed operations.  Any other code but 0, unparsable output,
    values off the reference or the spot check, or an exit code that
    disagrees with the reported checks is a failed operation.
    """
    if outcome.rc not in (0, 1):
        return [f"exit code {outcome.rc}"], 0
    fails = count_fail_lines(outcome.stderr)
    problems = []
    if (outcome.rc == 1) != (fails > 0):
        problems.append(f"exit code {outcome.rc} with {fails} FAIL lines")
    try:
        with open(outcome.stdout) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"output does not parse: {exc}"], fails
    try:
        if spot is not None:
            problems += spot.problems(payload)
        else:
            checks = payload["checks"]
            if not checks or not all(isinstance(c["name"], str) and isinstance(c["passed"], bool) for c in checks):
                problems.append("checks report holds no well-formed checks")
            failed = sum(1 for c in checks if not c["passed"])
            if failed != fails or payload["all_passed"] != (failed == 0):
                problems.append(f"checks report {failed} failed, stderr {fails} FAIL lines")
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"output lacks field {exc!r}")
    return problems, fails


def aggregate_trace(paths: list[Path]) -> dict:
    """Per-layer metrics summed over the traced children of one iteration."""
    metrics = {}
    hits, lookups = {}, {}

    def add(key, value):
        metrics[key] = metrics.get(key, 0) + value

    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        for name in rec["timed"]:
            add(name + (".s" if name in INCLUSIVE_SPANS else ".self_s"), 0.0)
        spans = rec["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child_time):
            if name in INCLUSIVE_SPANS:
                add(name + ".s", end - start)
            else:
                add(name + ".self_s", end - start - covered)
        for key, value in rec["counts"].items():
            add(key, value)
        for name, (h, m) in rec["caches"].items():
            hits[name] = hits.get(name, 0) + h
            lookups[name] = lookups.get(name, 0) + h + m
    for name, total in lookups.items():
        if total:
            metrics[name + ".hit_ratio"] = hits[name] / total
    return metrics


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.cli_args = WORKLOADS[workload]
        self.env = child_env()
        self.workdir = workdir
        self.spot = SpotCheck(workload, self.cli_args[0], seed) if workload.startswith("variance") else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.serial = 0

    def plain_argv(self, args):
        return [sys.executable, "-m", "normvar.cli", *args]

    def traced_argv(self, args, spans: Path):
        return [sys.executable, str(HERE / "trace_child.py"), str(spans), *args]

    def iteration(self, traced: bool) -> dict:
        """Run every invocation of the workload once, in order."""
        wall = cpu = rss = 0.0
        fails = 0
        spans = []
        for args in self.cli_args:
            self.serial += 1
            tag = f"op{self.serial}"
            if traced:
                spans.append(self.workdir / f"{tag}.spans.json")
                argv = self.traced_argv(args, spans[-1])
            else:
                argv = self.plain_argv(args)
            outcome = spawn(argv, self.env, self.workdir, tag)
            problems, n_fail = verify(outcome, self.spot)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{' '.join(args)}: {p}" for p in problems]
            wall += outcome.wall
            cpu += outcome.cpu
            rss = max(rss, outcome.rss_mib)
            fails += n_fail
            for path in (outcome.stdout, outcome.stderr):
                path.unlink()
        result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "checks_failed": fails}
        if traced:
            if all(path.exists() for path in spans):
                result["layers"] = aggregate_trace(spans)
            else:
                self.problems.append("a traced child wrote no spans")
            for path in spans:
                path.unlink(missing_ok=True)
        return result

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter importing the CLI module and exiting."""
        outcome = spawn([sys.executable, "-c", "import normvar.cli"], self.env, self.workdir, "setup")
        for path in (outcome.stdout, outcome.stderr):
            path.unlink()
        if outcome.rc != 0:
            raise SystemExit(f"importing normvar.cli failed with exit code {outcome.rc}")
        return outcome.wall

    def record(self) -> dict:
        config = getattr(np.__config__, "CONFIG", {})
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return {
            "workload": self.workload,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "child_thread_env": {k: self.env.get(k) for k in THREAD_VARS},
            "caller_thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
            "invocations": [self.plain_argv(args) for args in self.cli_args],
        }


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def print_table(rows: list[tuple[str, list[float], str]]) -> None:
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}  unit")
    for name, values, unit in rows:
        q1, med, q3 = quartiles(values)
        print(f"{name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {len(values):3d}  {unit}")


def run_timed(bench: Bench, seconds: float, units: dict) -> dict:
    bench.setup_time()  # fills the bytecode and file caches; not reported
    setup, samples = [], []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        # set-up samples are spread over the run so that they see the same
        # machine conditions as the workload iterations
        setup += [bench.setup_time() for _ in range(SETUP_PER_ITERATION)]
        samples.append(bench.iteration(traced=False))
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(bench.setup_time())
    series = {key: [s[key] for s in samples] for key in ("wall_s", "cpu_s", "peak_rss_mb", "checks_failed")}
    series["setup_s"] = setup
    print_table([(k, series[k], units.get(k, "count")) for k in (*units, "checks_failed")])
    return {name: {"value": statistics.median(series[name]), "unit": unit} for name, unit in units.items()}


def run_traced(bench: Bench, seconds: float, units: dict) -> dict:
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        # alternate which side goes first, so drift in machine speed
        # within the run does not bias the overhead
        for is_traced in (False, True) if len(traced) % 2 == 0 else (True, False):
            sample = bench.iteration(traced=is_traced)
            (traced if is_traced else plain).append(sample)
    layers = [t["layers"] for t in traced if "layers" in t]
    if not layers:
        return {}
    series = {name: [m[name] for m in layers if name in m] for name in units}
    series["checks_failed"] = [t["checks_failed"] for t in traced]
    series["trace.overhead_s"] = [
        statistics.median(t["wall_s"] for t in traced) - statistics.median(p["wall_s"] for p in plain)
    ]
    rows = [(name, values, units[name]) for name, values in series.items() if values]
    print_table(rows)
    return {name: {"value": statistics.median(values), "unit": unit} for name, values, unit in rows}


def metric_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "normvar" / "cli.py").is_file():
        print(f"error: no normvar package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        if bench.spot is not None:
            print(f"spot-check moduli {bench.spot.moduli}")
        print("record " + json.dumps(bench.record()))
        metrics = (run_traced if args.trace else run_timed)(bench, args.seconds, metric_units(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in bench.problems[:20]:
        print(f"problem: {problem}")
    correct = bool(metrics) and bench.failed == 0 and not bench.problems and all(
        math.isfinite(m["value"]) for m in metrics.values()
    )
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
