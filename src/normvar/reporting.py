"""Deterministic report serialization.

Reports must be byte-identical across reruns and processes, so JSON
is emitted by a small fixed writer (insertion-ordered keys, floats at 15
significant digits, no timestamps) instead of anything locale- or
version-sensitive.
"""

from __future__ import annotations

import json
from collections import abc
from functools import lru_cache
from typing import Iterator

from .fields import FieldSpec
from .galois import class_table_rows
from .sieve import EventColumns
from .stats import VarianceReport

FORMAT_VERSION = 1


def format_float(v: float, digits: int = 15) -> str:
    return f"{v:.{digits}g}"


def _scalar(obj) -> str:
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


@lru_cache(maxsize=None)
def _key(k: str) -> str:
    return f"{json.dumps(k)}: "


#: what `_scalar` writes; everything else is an object or an array
_SCALARS = (str, int, float, type(None))


def _pieces(obj, indent: int) -> Iterator[str]:
    """The JSON text of obj in pieces, laid out as `json.dumps(obj, indent=2)`.

    Arrays may be given as lists, tuples or iterators; an iterator is
    read once, a piece per item, so rows given as a generator are
    formatted as they are written.
    """
    if isinstance(obj, dict):
        members, brackets = ((_key(k), v) for k, v in obj.items()), "{}"
    elif isinstance(obj, (list, tuple, abc.Iterator)):
        members, brackets = (("", v) for v in obj), "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    pad = "  " * indent
    sep = brackets[0] + "\n"
    for prefix, value in members:
        if isinstance(value, _SCALARS):
            yield f"{sep}{pad}  {prefix}{_scalar(value)}"
        elif isinstance(value, abc.Iterator):
            yield f"{sep}{pad}  {prefix}"
            yield from _pieces(value, indent + 1)
        else:  # held whole already, so written as one piece
            yield f"{sep}{pad}  {prefix}{''.join(_pieces(value, indent + 1))}"
        sep = ",\n"
    yield brackets if sep != ",\n" else f"\n{pad}{brackets[1]}"


#: characters of JSON text `json_text` yields at a time
_JSON_BLOCK = 1 << 16


def json_text(obj) -> Iterator[str]:
    """The JSON text of obj and a final newline, in blocks of about 64 KiB.

    obj may give its lists as iterators, so the rows of a report are
    formatted as they are written and never held at once.
    """
    block, size = [], 0
    for piece in (_scalar(obj),) if isinstance(obj, _SCALARS) else _pieces(obj, 0):
        block.append(piece)
        size += len(piece)
        if size >= _JSON_BLOCK:
            yield "".join(block)
            block, size = [], 0
    block.append("\n")
    yield "".join(block)


def to_json_bytes(obj) -> bytes:
    return "".join(json_text(obj)).encode("ascii")


def run_config(field: FieldSpec, **kwargs) -> dict:
    """Invocation parameters embedded in every report.

    The only execution knob, the output path (--out), is excluded so a
    report does not depend on where it is written.
    """
    cfg = {"field": field.label()}
    cfg.update(kwargs)
    return cfg


def variance_payload(report: VarianceReport, config: dict, checks: dict) -> dict:
    """The variance report; its `per_q` rows are a generator, to be written once by `json_text`."""
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
        "per_q": (
            {"q": r.q, "phi_K": r.admissible, "contribution": r.contribution}
            for r in report.per_q
        ),
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


def checks_csv(results) -> str:
    lines = ["check,passed,detail"]
    for r in results:
        lines.append(f"{r.name},{str(r.passed).lower()},{json.dumps(r.detail)}")
    return "\n".join(lines) + "\n"


#: rows per block of the `dump-events` and `variance` CSVs
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


def per_q_csv(report: VarianceReport) -> Iterator[str]:
    """The `variance` CSV in blocks of 2^14 rows, header first, so its text is never held at once."""
    yield "q,phi_K,contribution\n"
    for lo in range(0, len(report.per_q), _CSV_ROWS):
        rows = report.per_q[lo : lo + _CSV_ROWS]
        yield "".join(f"{r.q},{r.admissible},{format_float(r.contribution)}\n" for r in rows)


def gq_csv(field: FieldSpec, moduli) -> str:
    lines = ["q,phi,phi_K,aq_conductor,members"]
    for row in class_table_rows(field, moduli):
        members = "-".join(str(a) for a in row["members"])
        lines.append(
            f"{row['q']},{row['phi']},{row['phi_K']},{row['aq_conductor']},{members}"
        )
    return "\n".join(lines) + "\n"
