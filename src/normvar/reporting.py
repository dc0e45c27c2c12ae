"""Deterministic report serialization.

Reports must be byte-identical across reruns and processes, so JSON
is emitted by a small fixed writer (insertion-ordered keys, floats at 15
significant digits, no timestamps) instead of anything locale- or
version-sensitive.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .fields import FieldSpec
from .galois import class_table_rows
from .sieve import EventColumns, event_column_blocks
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

#: rows of a `Rows` array formatted into one piece
_ROWS_PIECE = 256


class Rows(NamedTuple):
    """A JSON array of flat objects with the same keys, each written from one template.

    `specs` holds a format spec per key: "d" for an int, ".15g" for a
    float as `format_float` writes it.  `rows` yields a tuple of values
    per object and is read once.  The layout is that of `_pieces`, at
    one `str.format` per row instead of a dispatch per value.
    """

    keys: tuple[str, ...]
    specs: tuple[str, ...]
    rows: Iterable[tuple]

    def pieces(self, indent: int) -> Iterator[str]:
        pad = "  " * indent
        fields = ",\n".join(
            f"{pad}    {_key(k).replace('{', '{{').replace('}', '}}')}{{:{spec}}}"
            for k, spec in zip(self.keys, self.specs)
        )
        row = f"{pad}  {{{{\n{fields}\n{pad}  }}}}".format
        rows, sep = iter(self.rows), "[\n"
        while batch := list(itertools.islice(rows, _ROWS_PIECE)):
            yield sep + ",\n".join(row(*values) for values in batch)
            sep = ",\n"
        yield "[]" if sep == "[\n" else f"\n{pad}]"


def _pieces(obj, indent: int) -> Iterator[str]:
    """The JSON text of obj in pieces, laid out as `json.dumps(obj, indent=2)`.

    Arrays may be given as lists, tuples or `Rows`; a `Rows` array is
    formatted as it is written, a piece per batch of rows.
    """
    if isinstance(obj, Rows):
        yield from obj.pieces(indent)
        return
    if isinstance(obj, dict):
        members, brackets = ((_key(k), v) for k, v in obj.items()), "{}"
    elif isinstance(obj, (list, tuple)):
        members, brackets = (("", v) for v in obj), "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    pad = "  " * indent
    sep = brackets[0] + "\n"
    for prefix, value in members:
        if isinstance(value, _SCALARS):
            yield f"{sep}{pad}  {prefix}{_scalar(value)}"
        elif isinstance(value, Rows):
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

    The rows of a `Rows` array are formatted as they are written, so the
    text of a report's rows is never held at once.
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


def _per_q_rows(report: VarianceReport, size: int) -> Iterator[Iterator[tuple]]:
    """The rows (q, admissible, contribution) of report, `size` at a time, from slices of its columns."""
    for lo in range(0, report.Q, size):
        hi = lo + size
        yield zip(range(lo + 1, hi + 1), report.admissible[lo:hi].tolist(), report.per_q[lo:hi].tolist())


def variance_payload(report: VarianceReport, config: dict, checks: dict) -> dict:
    """The variance report; its `per_q` rows are `Rows` read from the report's columns by `json_text`."""
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
        "per_q": Rows(
            ("q", "phi_K", "contribution"),
            ("d", "d", ".15g"),
            itertools.chain.from_iterable(_per_q_rows(report, _ROWS_PIECE)),
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


def events_csv(field: FieldSpec, x: int) -> Iterator[str]:
    """The `dump-events` CSV in blocks of 2^14 rows, header first.

    A whole CSV costs about 330 bytes of Python strings per event, so it
    is never held at once; nor are its columns, which are derived from
    the cached event table a block at a time.  The table is built, or a
    bad x refused, before this returns.
    """
    blocks = event_column_blocks(field, x, _CSV_ROWS)
    return itertools.chain(["n,p,k,dk,lam\n"], map(_event_rows, blocks))


def _event_rows(columns: EventColumns) -> str:
    rows = zip(*(c.tolist() for c in columns))
    return "".join(f"{n},{p},{k},{dk},{format_float(lam, 12)}\n" for n, p, k, dk, lam in rows)


def per_q_csv(report: VarianceReport) -> Iterator[str]:
    """The `variance` CSV in blocks of 2^14 rows, header first, so its text is never held at once."""
    yield "q,phi_K,contribution\n"
    for rows in _per_q_rows(report, _CSV_ROWS):
        yield "".join(f"{q},{count},{format_float(c)}\n" for q, count, c in rows)


def gq_csv(field: FieldSpec, moduli) -> Iterator[str]:
    """The `gq` CSV, header first, then one string per row; no row is held past its write."""
    yield "q,phi,phi_K,aq_conductor,members\n"
    yield from map(_gq_row, class_table_rows(field, moduli))


def _gq_row(row: dict) -> str:
    members = "-".join(map(str, row["members"]))
    return f"{row['q']},{row['phi']},{row['phi_K']},{row['aq_conductor']},{members}\n"
