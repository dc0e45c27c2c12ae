"""Command-line interface.

Four subcommands: `variance` (full report), `checks` (identity and
oracle suites with machine-readable pass/fail), `gq` (admissible-class
table), `dump-events` (raw event CSV).  Reports go to --out or stdout;
human-readable status lines go to stderr.  Exit status is 0 iff every
executed check passed, 1 on a check failure, 2 on bad usage or an I/O
error such as an unwritable --out path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .characters import enumerate_characters
from .fields import parse_field
from .galois import norm_class_closure, norm_class_group
from .reporting import (
    checks_csv,
    checks_payload,
    events_csv,
    format_float,
    gq_csv,
    per_q_csv,
    run_config,
    to_json_bytes,
    variance_payload,
)
from .sieve import DEFAULT_SEGMENT_SIZE, norm_events
from .stats import (
    REL_TOL,
    large_sieve_check,
    orthogonality_check,
    primitive_exchange_diff,
    rel_gap,
    variance,
)
from .arith import euler_phi

#: fixed modulus grid for orthogonality sweeps
ORTHOGONALITY_MODULI = tuple(range(1, 31)) + (60, 120)
#: caps keeping the bundled check suites fast regardless of Q
GQ_ORACLE_CAP = 300
OUTSIDE_MASS_CAP = 50
LARGE_SIEVE_CAP = 300
EXCHANGE_CAP = 30


def _write(out: str | None, text_or_bytes) -> None:
    data = text_or_bytes if isinstance(text_or_bytes, bytes) else text_or_bytes.encode("ascii")
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("ascii"))


def _status(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)


def standard_checks(field, x: int, Q: int) -> tuple[dict, bool]:
    """Bundled identity checks embedded in every variance report.

    Runs orthogonality on the fixed modulus grid, the large sieve at
    min(Q, 100), and the character-exchange agreement for all imprimitive
    characters of modulus <= 30.
    """
    orth = max(orthogonality_check(field, x, q).gap for q in ORTHOGONALITY_MODULI)
    sieve_bound = min(Q, 100)
    ls = large_sieve_check(field, x, sieve_bound)
    exchange_gap = 0.0
    bounds_ok = True
    for q in range(2, EXCHANGE_CAP + 1):
        for chi in enumerate_characters(q):
            if chi.primitive:
                continue
            diff = primitive_exchange_diff(field, x, chi)
            exchange_gap = max(exchange_gap, diff.gap)
            bounds_ok = bounds_ok and diff.bound_ok
    block = {
        "orthogonality_max_gap": orth,
        "large_sieve_holds": ls.holds,
        "lemma2_max_gap": exchange_gap,
    }
    ok = orth <= REL_TOL and ls.holds and exchange_gap <= REL_TOL and bounds_ok
    return block, ok


def cmd_variance(args) -> int:
    field = parse_field(args.field)
    report = variance(
        field, args.x, args.Q, M=args.M, threads=args.threads, segment_size=args.segment_size
    )
    block, checks_ok = standard_checks(field, args.x, args.Q)
    config = run_config(
        field, x=args.x, Q=args.Q, M=args.M, format=args.format, segment_size=args.segment_size
    )
    if args.format == "json":
        _write(args.out, to_json_bytes(variance_payload(report, config, block)))
    else:
        _write(args.out, per_q_csv(report))
    partition_gap = rel_gap(sum(b.contribution for b in report.dyadic), report.total)
    outside_ok = report.outside_mass == 0.0
    partition_ok = partition_gap <= REL_TOL
    _status(checks_ok, "bundled-checks", f"orthogonality/large-sieve/exchange at x={args.x}")
    _status(outside_ok, "outside-mass", f"mass off admissible classes = {report.outside_mass}")
    _status(partition_ok, "dyadic-partition", f"relative gap {format_float(partition_gap, 3)}")
    _status(True, "variance", f"V = {format_float(report.total)} ratio_bdh = {format_float(report.ratio_bdh)}")
    return 0 if checks_ok and outside_ok and partition_ok else 1


def _check_gq_oracle(field, Q: int, B: int) -> dict:
    top = min(Q, GQ_ORACLE_CAP)
    mismatched, incomplete = [], []
    for q in range(1, top + 1):
        closed = norm_class_group(field, q).members
        empirical = norm_class_closure(field, q, B)
        if empirical == closed:
            continue
        (incomplete if set(empirical) < set(closed) else mismatched).append(q)
    if mismatched:
        return {
            "name": "gq-oracle",
            "passed": False,
            "detail": f"closed form disagrees with closure at q={mismatched[:5]}",
        }
    if incomplete:
        return {
            "name": "gq-oracle",
            "passed": False,
            "detail": f"closure incomplete, raise B (B={B}, first short moduli {incomplete[:5]})",
        }
    return {"name": "gq-oracle", "passed": True, "detail": f"closure matches for q <= {top}, B={B}"}


def _check_index_identity(field, Q: int) -> dict:
    top = min(Q, GQ_ORACLE_CAP)
    for q in range(1, top + 1):
        rec = norm_class_group(field, q)
        if rec.order * len(rec.annihilator) != euler_phi(q):
            return {
                "name": "class-index",
                "passed": False,
                "detail": f"order * annihilator != phi at q={q}",
            }
    return {"name": "class-index", "passed": True, "detail": f"exact for q <= {top}"}


def cmd_checks(args) -> int:
    field = parse_field(args.field)
    results = [
        _check_gq_oracle(field, args.Q, args.B),
        _check_index_identity(field, args.Q),
    ]

    moduli = [q for q in ORTHOGONALITY_MODULI if q <= max(args.Q, 30)]
    orth = max(orthogonality_check(field, args.x, q).gap for q in moduli)
    results.append(
        {
            "name": "orthogonality",
            "passed": orth <= REL_TOL,
            "detail": f"max gap {format_float(orth, 3)} over {len(moduli)} moduli",
        }
    )

    report = variance(field, args.x, min(args.Q, OUTSIDE_MASS_CAP))
    results.append(
        {
            "name": "outside-mass",
            "passed": report.outside_mass == 0.0,
            "detail": f"mass off admissible classes = {report.outside_mass} for q <= {report.Q}",
        }
    )

    ls = large_sieve_check(field, args.x, min(args.Q, LARGE_SIEVE_CAP))
    results.append(
        {
            "name": "large-sieve",
            "passed": ls.holds,
            "detail": f"lhs/rhs = {format_float(ls.lhs / ls.rhs, 6)} at Q={ls.Q}",
        }
    )

    exchange_gap, bounds_ok, tested = 0.0, True, 0
    for q in range(2, min(args.Q, EXCHANGE_CAP) + 1):
        for chi in enumerate_characters(q):
            if chi.primitive:
                continue
            diff = primitive_exchange_diff(field, args.x, chi)
            exchange_gap = max(exchange_gap, diff.gap)
            bounds_ok = bounds_ok and diff.bound_ok
            tested += 1
    results.append(
        {
            "name": "char-exchange",
            "passed": exchange_gap <= REL_TOL and bounds_ok,
            "detail": f"max gap {format_float(exchange_gap, 3)} over {tested} characters",
        }
    )

    config = run_config(field, x=args.x, Q=args.Q, B=args.B, format=args.format)
    if args.format == "json":
        _write(args.out, to_json_bytes(checks_payload(field, config, results)))
    else:
        _write(args.out, checks_csv(results))
    for r in results:
        _status(r["passed"], r["name"], r["detail"])
    return 0 if all(r["passed"] for r in results) else 1


def cmd_gq(args) -> int:
    field = parse_field(args.field)
    if args.q is not None:
        moduli = [args.q]
    elif args.Q is not None:
        moduli = range(1, args.Q + 1)
    else:
        raise ValueError("gq needs --Q or --q")
    _write(args.out, gq_csv(field, moduli))
    return 0


def cmd_dump_events(args) -> int:
    field = parse_field(args.field)
    table = norm_events(field, args.x, args.segment_size)
    _write(args.out, events_csv(table))
    return 0


def _int_ge(minimum: int):
    def convert(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normvar",
        description="Prime-power norm statistics in residue classes for abelian number fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, x=False, Q=False):
        p.add_argument("--field", required=True, help="Q, quad:<d>, or cyclo:<m>")
        if x:
            p.add_argument("--x", type=_int_ge(2), required=True, help="event bound")
        if Q:
            p.add_argument("--Q", type=_int_ge(1), required=True, help="modulus bound")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("variance", help="variance report over q <= Q")
    common(p, x=True, Q=True)
    p.add_argument("--M", type=_int_ge(0), default=1, help="small-q cutoff exponent")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--threads", type=_int_ge(1), default=1)
    p.add_argument("--segment-size", type=_int_ge(1), default=DEFAULT_SEGMENT_SIZE)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("checks", help="identity and oracle check suites")
    common(p, x=True, Q=True)
    p.add_argument("--B", type=_int_ge(2), default=10_000, help="prime bound for the closure oracle")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_checks)

    p = sub.add_parser("gq", help="admissible residue classes per modulus (CSV)")
    common(p)
    p.add_argument("--Q", type=_int_ge(1), help="table over 1 <= q <= Q")
    p.add_argument("--q", type=_int_ge(1), help="single modulus")
    p.set_defaults(func=cmd_gq)

    p = sub.add_parser("dump-events", help="raw norm events up to x (CSV)")
    common(p, x=True)
    p.add_argument("--segment-size", type=_int_ge(1), default=DEFAULT_SEGMENT_SIZE)
    p.set_defaults(func=cmd_dump_events)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
