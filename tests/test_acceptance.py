"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and prints a
single PASS/FAIL line (routed past pytest's capture so the gate is readable
in any run).  Field set: Q, quad:-1, quad:5, cyclo:5, except where a
criterion names its own.
"""

import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from functools import lru_cache
from pathlib import Path

import numpy as np

import normvar as nv
from normvar.arith import euler_phi
from normvar.cli import ORTHOGONALITY_MODULI, main

from conftest import ALL_FIELDS
from naive_oracle import naive_variance

REL = 1e-9

ACCEPTANCE_LINES: list[str] = []


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@lru_cache(maxsize=None)
def _envelope_report(label: str, x: int, Q: int) -> nv.VarianceReport:
    return nv.variance(nv.parse_field(label), x, Q)


def test_criterion_01_orthogonality_identity():
    worst = 0.0
    for field in ALL_FIELDS:
        for x in (10**3, 10**4):
            for q in ORTHOGONALITY_MODULI:
                worst = max(worst, nv.orthogonality_check(field, x, q).gap)
    ok = worst <= REL
    _report(1, ok, f"orthogonality relative gap {worst:.3g} <= 1e-9 "
                   f"(4 fields, x in {{1e3,1e4}}, q in {{1..30,60,120}})")
    assert ok


def test_criterion_02_gq_closed_form_matches_frobenius_closure():
    bad = []
    for field in ALL_FIELDS:
        for q in range(1, 301):
            closed = nv.norm_class_group(field, q).members
            if nv.norm_class_closure(field, q, 10**4) != closed:
                bad.append((field.label(), q))
    ok = not bad
    _report(2, ok, f"closed-form G_q == multiplicative closure (B=1e4) for q <= 300; "
                   f"mismatches: {bad[:5] if bad else 'none'}")
    assert ok, bad


def test_criterion_03_index_identity_is_exact():
    bad = []
    for field in ALL_FIELDS:
        for q in range(1, 301):
            group = nv.norm_class_group(field, q)
            if group.order * len(group.annihilator) != euler_phi(q):
                bad.append((field.label(), q))
    ok = not bad
    _report(3, ok, f"|G_q| * |annihilator| == phi(q) exactly for q <= 300; "
                   f"failures: {bad[:5] if bad else 'none'}")
    assert ok, bad


def test_criterion_04_no_mass_outside_admissible_classes():
    masses = {f.label(): nv.variance(f, 10**4, 50).outside_mass for f in ALL_FIELDS}
    ok = all(m == 0.0 for m in masses.values())
    _report(4, ok, f"mass at q <= 50, x = 1e4 off the admissible classes: {masses}")
    assert ok, masses


def test_criterion_05_large_sieve_and_event_count_identity():
    x, Q = 10**4, 100
    ok = True
    ratios = {}
    for field in ALL_FIELDS:
        result = nv.large_sieve_check(field, x, Q)
        _, s2 = nv.event_moment_sums(field, x)
        raw_rhs = (x + Q * Q) * s2
        ratios[field.label()] = result.lhs / raw_rhs
        ok = ok and result.lhs <= raw_rhs
        cols = nv.event_columns(field, x)
        g = np.array([nv.split_type(field, int(p)).g for p in cols.p])
        ok = ok and bool(np.all(cols.dk * cols.dk == g * cols.dk))
    _report(5, ok, f"large sieve lhs <= (x+Q^2)*S2 at x=1e4, Q=100 "
                   f"(lhs/rhs {', '.join(f'{k}={v:.3g}' for k, v in ratios.items())}); "
                   f"dk^2 == g*dk on every event")
    assert ok


def test_criterion_06_imprimitive_characters_match_their_primitive_part():
    x = 10**3
    worst, bounds_ok, tested = 0.0, True, 0
    for field in ALL_FIELDS:
        for q in range(2, 31):
            for chi in nv.enumerate_characters(q):
                if chi.primitive:
                    continue
                diff = nv.primitive_exchange_diff(field, x, chi)
                worst = max(worst, diff.gap)
                bounds_ok = bounds_ok and diff.bound_ok
                tested += 1
    ok = worst <= REL and bounds_ok
    _report(6, ok, f"imprimitive vs primitive-part sums: gap {worst:.3g} <= 1e-9 and "
                   f"|diff| <= 2*deg*log(qx)^2 across {tested} characters, q <= 30, x=1e3")
    assert ok


def test_criterion_07_pipeline_matches_naive_oracle():
    x, Q = 10**3, 50
    gaps = {}
    for field in ALL_FIELDS:
        fast = nv.variance(field, x, Q).total
        slow, _ = naive_variance(field.variant, field.parameter, x, Q)
        gaps[field.label()] = abs(fast - slow) / max(abs(slow), 1.0)
    ok = all(g <= REL for g in gaps.values())
    _report(7, ok, f"pipeline variance vs independent double loop at x=1e3, Q=50: "
                   f"gaps {', '.join(f'{k}={v:.2g}' for k, v in gaps.items())}")
    assert ok, gaps


def test_criterion_08_variance_envelope():
    x = 10**5
    ratios = {}
    ok = True
    for label in ("Q", "quad:-1"):
        for Q in (10**3, 10**4):
            report = _envelope_report(label, x, Q)
            ratios[f"{label},Q={Q}"] = report.ratio_bdh
            ok = ok and report.ratio_bdh <= 10.0
    _report(8, ok, f"V/(x*Q*log x) <= 10 at x=1e5: "
                   f"{', '.join(f'{k}: {v:.3f}' for k, v in ratios.items())}")
    assert ok, ratios


def test_criterion_09_heuristic_envelope_identity():
    ok = True
    reports = [_envelope_report(label, 10**5, 10**3) for label in ("Q", "quad:-1")]
    reports += [nv.variance(field, 10**3, 30) for field in ALL_FIELDS]
    for report in reports:
        log_x = math.log(report.x)
        ok = ok and report.envelope_grh == report.envelope_classical * log_x**3
        ok = ok and report.ratio_grh < report.ratio_bdh
    _report(9, ok, "envelope_grh == envelope_classical * (log x)^3 bit-exact and "
                   "ratio_grh < ratio_bdh on every report")
    assert ok


def test_criterion_10_reports_are_byte_identical_across_processes(tmp_path):
    argv = ["variance", "--field", "quad:-1", "--x", "10000", "--Q", "250"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    blobs = []
    # two fresh processes rebuild the events, slices and masks from cold caches
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "normvar.cli", *argv, "--out", str(out)]
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(argv) == 0
    blobs.append(stdout.getvalue().encode("ascii"))
    # the q above the route's floor 50 take the correlation route, and the
    # report embeds its route-agreement check
    assert b'"route_agreement_max_gap"' in blobs[0]
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(10, ok, f"variance report bytes identical across two processes and stdout "
                    f"({len(blobs[0])} bytes)")
    assert ok


def test_criterion_11_first_moment_tracks_x():
    x = 10**6
    ratios = {f.label(): nv.event_moment_sums(f, x)[0] / x for f in ALL_FIELDS}
    ok = all(0.9 <= r <= 1.1 for r in ratios.values())
    _report(11, ok, f"S1(K, 1e6)/1e6 in [0.9, 1.1]: "
                    f"{', '.join(f'{k}={v:.4f}' for k, v in ratios.items())}")
    assert ok, ratios


def _hooley_constant(bound: int) -> float:
    """gamma + log 2pi + 1 + sum over primes p <= bound of log p / (p (p - 1))."""
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    p = np.flatnonzero(sieve).astype(np.float64)
    tail = math.fsum((np.log(p) / (p * (p - 1))).tolist())
    return 0.5772156649015329 + math.log(2 * math.pi) + 1 + tail


def test_criterion_12_hooley_second_order_asymptotic():
    """V matches Hooley's second-order BDH asymptotic for K = Q within 1%.

    For the rationals V(x, Q) = Qx log Q - cQx + o(Qx) with
    c = gamma + log 2pi + 1 + sum_p log p / (p (p - 1)); see H. L.
    Montgomery, "Primes in arithmetic progressions", Michigan Math. J. 17
    (1970), and C. Hooley, "On the Barban-Davenport-Halberstam theorem I",
    J. reine angew. Math. 274/275 (1975).  Criterion 8 only bounds V by
    10 x Q log x; this pins its size to the second term.
    """
    x, Q = 10**6, 10**4
    c = _hooley_constant(10**6)
    report = _envelope_report("Q", x, Q)
    ratio = report.total / (Q * x * (math.log(Q) - c))
    ok = abs(ratio - 1) <= 0.01
    _report(12, ok, f"K = Q: V/(Qx(log Q - c)) = {ratio:.5f} within 1% of 1 at x=1e6, Q=1e4 "
                    f"(c = {c:.5f})")
    assert ok, ratio
