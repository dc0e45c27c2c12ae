"""Command-line interface.

Four subcommands: `variance` (full report), `checks` (identity and
oracle suites with machine-readable pass/fail), `gq` (admissible-class
table), `dump-events` (raw event CSV).  Reports go to --out or stdout;
human-readable status lines go to stderr.  Exit status is 0 iff every
executed check passed, 1 on a check failure, 2 on bad usage or an I/O
error such as an unwritable --out path, or a field whose report cannot
be serialized.  An --out that names a directory or lies in a missing
one is refused before any work.

Every command reads the events from the one cached table
(`sieve.norm_events`); `dump-events` derives its CSV columns from it a
block at a time.  So one event ceiling serves them all:
`sieve.MAX_SIEVE_LIMIT`, which the sieve checks before any work.

Check registry: each check is one function below that returns a `Check`
record (name, passed, detail, and the value a variance report embeds)
over one scope, stated in its docstring.  `standard_checks` returns
orthogonality, large-sieve and char-exchange: `variance` embeds them in
its `checks` block, then runs outside-mass and dyadic-partition on its
own report, and route-agreement when the report routed some q;
`checks` runs gq-oracle and class-index before them and lists
outside-mass after orthogonality.  `_finish` prints one PASS/FAIL
line per check to stderr and picks the exit status for both.

Every modulus that orthogonality, char-exchange and the `variance` large
sieve read is at most `stats._HELD_BOUND`, so the event table holds the
class weights t_q that the first passes of a command fold, and the
checks after them read those: in `variance` the report's passes, in
`checks` the large sieve's, which `standard_checks` therefore runs first.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import NamedTuple

from .characters import enumerate_characters
from .fields import parse_field
from .galois import norm_class_closure, norm_class_group
from .reporting import (
    checks_csv,
    checks_payload,
    events_csv,
    format_float,
    gq_csv,
    json_text,
    per_q_csv,
    run_config,
    to_json_bytes,
    variance_payload,
)
from .sieve import EVENT_MEMORY_BUDGET, norm_events
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
#: moduli of the imprimitive characters the exchange check covers
EXCHANGE_MODULI = range(2, 31)
GQ_ORACLE_CAP = 300
#: peak bytes per residue of `gq --q`, rounded up: q = 10,000,019 peaked
#: at 1188 MiB, 125 bytes per residue with the interpreter
GQ_BYTES_PER_RESIDUE = 128
#: peak bytes per listed member of a `gq --Q` table when the whole table
#: was held, rounded up: from Q = 2000 to Q = 4000 the peak rose by
#: 149 MiB for 3.65e6 more members, 43 bytes each.  The table now streams
#: one row at a time, so its peak no longer grows with the members.
GQ_BYTES_PER_MEMBER = 48
# Within EVENT_MEMORY_BUDGET = 2^32 bytes, --q may reach 2^32 / 128 = 2^25.
# A table over q <= Q lists sum phi(q) <= Q (Q + 1) / 2 members, so at 48
# bytes each --Q could reach the largest Q with 48 * Q (Q + 1) / 2 <= 2^32:
# 13,376 (4.2943e9 bytes; 13,377 needs 4.2950e9).  --Q keeps that ceiling,
# but memory no longer binds it now that rows stream (field Q peaked at
# 31.9 MiB there); its time (7.4 s on field Q) is what a new ceiling
# would weigh.
GQ_MAX_MODULUS = EVENT_MEMORY_BUDGET // GQ_BYTES_PER_RESIDUE
GQ_MAX_BOUND = 13_376
OUTSIDE_MASS_CAP = 50
LARGE_SIEVE_CAP = 300
#: large-sieve cap inside variance reports, within `stats._HELD_BOUND`, so
#: that the t_q the variance loop folded serve it: the t_q above that bound
#: are not held, so a cap above 120 would make passes of its own
VARIANCE_LARGE_SIEVE_CAP = 100
#: key in the variance report's `checks` block of each standard check
VARIANCE_BLOCK_KEYS = {
    "orthogonality": "orthogonality_max_gap",
    "large-sieve": "large_sieve_holds",
    "char-exchange": "lemma2_max_gap",
    "route-agreement": "route_agreement_max_gap",
}


def _check_out(out: str | None) -> None:
    """Refuse, before any work, an --out that names a directory or lies in a missing one.

    It creates nothing: `_write` opens the file once the report is ready.
    """
    if not out:
        return
    if os.path.isdir(out):
        raise ValueError(f"--out {out} is a directory")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {out}: no directory {parent}")


def _write(out: str | None, report) -> None:
    """Write a report (ASCII text, or text blocks one at a time) to --out or stdout."""
    blocks = [report] if isinstance(report, str) else report
    with open(out, "w", encoding="ascii", newline="") if out else nullcontext(sys.stdout) as stream:
        for block in blocks:
            stream.write(block)


class Check(NamedTuple):
    """One check result; `value` is what a variance report's `checks` block embeds."""

    name: str
    passed: bool
    detail: str
    value: float | bool | None = None


def gq_oracle(field, Q: int, B: int) -> Check:
    """Closed-form class groups vs. the closure of p^f mod q for p <= B; q <= min(Q, 300)."""
    top = min(Q, GQ_ORACLE_CAP)
    mismatched, incomplete = [], []
    for q in range(1, top + 1):
        closed = norm_class_group(field, q).members
        empirical = norm_class_closure(field, q, B)
        if empirical != closed:
            (incomplete if set(empirical) < set(closed) else mismatched).append(q)
    if mismatched:
        detail = f"closed form disagrees with closure at q={mismatched[:5]}"
    elif incomplete:
        detail = f"closure incomplete, raise B (B={B}, first short moduli {incomplete[:5]})"
    else:
        detail = f"closure matches for q <= {top}, B={B}"
    return Check("gq-oracle", not (mismatched or incomplete), detail)


def class_index(field, Q: int) -> Check:
    """Exact index identity |G_q| * |annihilator| = phi(q); q <= min(Q, 300)."""
    top = min(Q, GQ_ORACLE_CAP)
    for q in range(1, top + 1):
        rec = norm_class_group(field, q)
        if rec.order * len(rec.annihilator) != euler_phi(q):
            return Check("class-index", False, f"order * annihilator != phi at q={q}")
    return Check("class-index", True, f"exact for q <= {top}")


def orthogonality(field, x: int) -> Check:
    """Parseval identity on the grid ORTHOGONALITY_MODULI for every Q: it holds per q."""
    results = [orthogonality_check(field, x, q) for q in ORTHOGONALITY_MODULI]
    worst = max(results, key=lambda r: r.gap)  # the first q with the largest gap
    detail = f"max gap {format_float(worst.gap, 3)} at q={worst.q} over {len(results)} moduli"
    return Check("orthogonality", worst.gap <= REL_TOL, detail, worst.gap)


def outside_mass(report) -> Check:
    """No mass off admissible classes, q <= Q in `variance`, q <= min(Q, 50, x) in `checks`.

    `checks` caps the scope at x too, because a variance report needs Q <= x.
    """
    mass = report.outside_mass
    detail = f"mass off admissible classes = {mass} for q <= {report.Q}"
    return Check("outside-mass", mass == 0.0, detail)


def large_sieve(field, x: int, Q: int) -> Check:
    """Large-sieve bound up to Q: min(Q, 300) in `checks`, min(Q, 100) in `variance`."""
    ls = large_sieve_check(field, x, Q)
    if ls.rhs > 0:
        ratio = f"lhs/rhs = {format_float(ls.lhs / ls.rhs, 6)}"
    else:  # no events: there is no ratio to print
        ratio = f"lhs = {ls.lhs}, rhs = 0"
    return Check("large-sieve", ls.holds, f"{ratio} at Q={ls.Q}", ls.holds)


def char_exchange(field, x: int) -> Check:
    """Imprimitive vs. primitive-part sums for every imprimitive chi with q <= 30, whatever Q."""
    diffs = [
        primitive_exchange_diff(field, x, chi)
        for q in EXCHANGE_MODULI
        for chi in enumerate_characters(q)
        if not chi.primitive
    ]
    worst = max(diffs, key=lambda d: d.gap)  # the first character with the largest gap
    passed = worst.gap <= REL_TOL and all(d.bound_ok for d in diffs)
    at = f"at q={worst.q}, conductor {worst.conductor},"
    detail = f"max gap {format_float(worst.gap, 3)} {at} over {len(diffs)} characters"
    return Check("char-exchange", passed, detail, worst.gap)


def dyadic_partition(report) -> Check:
    """The dyadic blocks of the report sum to its total."""
    gap = rel_gap(sum(b.contribution for b in report.dyadic), report.total)
    return Check("dyadic-partition", gap <= REL_TOL, f"relative gap {format_float(gap, 3)}")


def route_agreement(report) -> Check | None:
    """Routed rows against one direct pass each, at the q of `report.route_agreement`; None if nothing routed."""
    agreement = report.route_agreement
    if agreement is None:
        return None
    detail = (
        f"max gap {format_float(agreement.gap, 3)} at q={agreement.q} over the routed"
        f" q={list(agreement.moduli)}; cross-route, over one event table, not an"
        " independent oracle"
    )
    return Check("route-agreement", agreement.gap <= REL_TOL, detail, agreement.gap)


def standard_checks(field, x: int, cap: int) -> list[Check]:
    """Orthogonality, large-sieve up to cap and char-exchange: the checks a variance report embeds."""
    sieve = large_sieve(field, x, cap)  # first: its passes hold every t_q the other two read
    return [orthogonality(field, x), sieve, char_exchange(field, x)]


def _finish(results: list[Check]) -> int:
    """Print one PASS/FAIL line per check; the exit status is 1 if any failed."""
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def _report_field(args):
    """Parse --field, refusing before any work a field a JSON report cannot hold.

    A discriminant clearly longer than the interpreter's digit limit is
    refused from its logarithm, unbuilt, with the error its `str` raises.
    """
    field = parse_field(args.field)
    if args.format == "json":
        try:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and field.discriminant_log10() > limit + 1:
                str(10**limit)  # limit + 1 digits
            to_json_bytes(field.as_dict())
        except ValueError as exc:
            msg = f"field {args.field} cannot be written to a JSON report: {exc}"
            raise ValueError(msg) from None
    return field


def cmd_variance(args) -> int:
    field = _report_field(args)
    report = variance(field, args.x, args.Q, M=args.M)
    checks = standard_checks(field, args.x, min(args.Q, VARIANCE_LARGE_SIEVE_CAP))
    agreement = route_agreement(report)
    routed = [] if agreement is None else [agreement]
    if args.format == "json":
        config = run_config(field, x=args.x, Q=args.Q, M=args.M, format=args.format)
        block = {VARIANCE_BLOCK_KEYS[c.name]: c.value for c in checks + routed}
        _write(args.out, json_text(variance_payload(report, config, block)))
    else:
        _write(args.out, per_q_csv(report))
    V, ratio = format_float(report.total), format_float(report.ratio_bdh)
    print(f"variance: V = {V} ratio_bdh = {ratio}", file=sys.stderr)
    return _finish(checks + [outside_mass(report), dyadic_partition(report)] + routed)


def cmd_checks(args) -> int:
    field = _report_field(args)
    # the events first: built after the class groups, they raise the peak
    # of `checks --x 1e6 --Q 300` by 0.06 MiB on Q and 0.15 MiB on quad:-1
    # (medians of 5 and 3 runs; 1.4 MiB on Q with the sorted build)
    norm_events(field, args.x)
    oracle, index = gq_oracle(field, args.Q, args.B), class_index(field, args.Q)
    ortho, sieve, exchange = standard_checks(field, args.x, min(args.Q, LARGE_SIEVE_CAP))
    mass = outside_mass(variance(field, args.x, min(args.Q, OUTSIDE_MASS_CAP, args.x)))
    results = [oracle, index, ortho, mass, sieve, exchange]
    if args.format == "json":
        config = run_config(field, x=args.x, Q=args.Q, B=args.B, format=args.format)
        _write(args.out, json_text(checks_payload(field, config, results)))
    else:
        _write(args.out, checks_csv(results))
    return _finish(results)


def cmd_gq(args) -> int:
    if args.q is not None and args.q > GQ_MAX_MODULUS:
        raise ValueError(f"--q {args.q} exceeds the supported ceiling {GQ_MAX_MODULUS}")
    if args.Q is not None and args.Q > GQ_MAX_BOUND:
        raise ValueError(f"--Q {args.Q} exceeds the supported ceiling {GQ_MAX_BOUND}")
    field = parse_field(args.field)
    moduli = [args.q] if args.q is not None else range(1, args.Q + 1)
    _write(args.out, gq_csv(field, moduli))
    return 0


def cmd_dump_events(args) -> int:
    field = parse_field(args.field)
    _write(args.out, events_csv(field, args.x))
    return 0


def _int_ge(minimum: int):
    # argparse names the converter in its message: "invalid integer value: '1e6'"
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value

    return integer


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
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("checks", help="identity and oracle check suites")
    common(p, x=True, Q=True)
    p.add_argument("--B", type=_int_ge(2), default=10_000, help="prime bound for the closure oracle")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_checks)

    p = sub.add_parser("gq", help="admissible residue classes per modulus (CSV)")
    common(p)
    moduli = p.add_mutually_exclusive_group(required=True)
    moduli.add_argument("--Q", type=_int_ge(1), help="table over 1 <= q <= Q")
    moduli.add_argument("--q", type=_int_ge(1), help="single modulus")
    p.set_defaults(func=cmd_gq)

    p = sub.add_parser("dump-events", help="raw norm events up to x (CSV)")
    common(p, x=True)
    p.set_defaults(func=cmd_dump_events)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
