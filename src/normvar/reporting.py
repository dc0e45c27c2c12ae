"""Deterministic report serialization.

Reports must be byte-identical across reruns and thread counts, so JSON
is emitted by a small fixed writer (insertion-ordered keys, floats at 15
significant digits, no timestamps) instead of anything locale- or
version-sensitive.
"""

from __future__ import annotations

import json
from typing import Iterator

from .fields import FieldSpec
from .galois import class_table_rows
from .sieve import EventColumns
from .stats import VarianceReport

FORMAT_VERSION = 1


def format_float(v: float, digits: int = 15) -> str:
    return f"{v:.{digits}g}"


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_emit(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_emit(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def to_json_bytes(obj) -> bytes:
    return (_emit(obj, 0) + "\n").encode("ascii")


def run_config(field: FieldSpec, **kwargs) -> dict:
    """Invocation parameters embedded in every report.

    Execution-only knobs (thread count, output path) are excluded so
    reruns with different parallelism stay byte-identical.
    """
    cfg = {"field": field.label()}
    cfg.update(kwargs)
    return cfg


def variance_payload(report: VarianceReport, config: dict, checks: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "config": config,
        "field": report.field.as_dict(),
        "x": report.x,
        "Q": report.Q,
        "M": report.M,
        "V": report.total,
        "ratio_bdh": report.ratio_bdh,
        "ratio_grh": report.ratio_grh,
        "outside_mass": report.outside_mass,
        "range_condition_satisfied": report.range_condition_satisfied,
        "per_q": [
            {"q": r.q, "phi_K": r.admissible, "contribution": r.contribution}
            for r in report.per_q
        ],
        "dyadic": [
            {"U_lo": b.u_lo, "U_hi": b.u_hi, "contribution": b.contribution}
            for b in report.dyadic
        ],
        "checks": checks,
    }


def checks_payload(field: FieldSpec, config: dict, results) -> dict:
    """`checks` report from records with `name`, `passed` and `detail` attributes."""
    return {
        "format_version": FORMAT_VERSION,
        "config": config,
        "field": field.as_dict(),
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results),
    }


def per_q_csv(report: VarianceReport) -> str:
    lines = ["q,phi_K,contribution"]
    for r in report.per_q:
        lines.append(f"{r.q},{r.admissible},{format_float(r.contribution)}")
    return "\n".join(lines) + "\n"


def checks_csv(results) -> str:
    lines = ["check,passed,detail"]
    for r in results:
        lines.append(f"{r.name},{str(r.passed).lower()},{json.dumps(r.detail)}")
    return "\n".join(lines) + "\n"


#: rows per block of the `dump-events` CSV
_CSV_ROWS = 1 << 14


def events_csv(columns: EventColumns) -> Iterator[str]:
    """The `dump-events` CSV in blocks of 2^14 rows, header first.

    A whole CSV costs about 330 bytes of Python strings per event, so it
    is never held at once.
    """
    yield "n,p,k,dk,lam\n"
    for lo in range(0, columns.n.size, _CSV_ROWS):
        rows = zip(*(c[lo : lo + _CSV_ROWS].tolist() for c in columns))
        yield "".join(f"{n},{p},{k},{dk},{format_float(lam, 12)}\n" for n, p, k, dk, lam in rows)


def gq_csv(field: FieldSpec, moduli) -> str:
    lines = ["q,phi,phi_K,aq_conductor,members"]
    for row in class_table_rows(field, moduli):
        members = "-".join(str(a) for a in row["members"])
        lines.append(
            f"{row['q']},{row['phi']},{row['phi_K']},{row['aq_conductor']},{members}"
        )
    return "\n".join(lines) + "\n"
