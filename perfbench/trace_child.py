"""Run one normvar CLI invocation with spans around the package's functions.

Usage: trace_child.py SPANS_JSON ARG...

Imports the package from PYTHONPATH, replaces each function listed below
with a wrapper in every `normvar` module namespace that binds it (so
`stats.residue_masks`, bound by `from .galois import residue_masks`, is
wrapped too), then calls `normvar.cli.main(ARG...)`.  The CLI's own
stdout and stderr are untouched.  Spans are kept in memory and written
to SPANS_JSON on exit together with call counters and the lru_cache
statistics of the original functions.  Exits with the CLI's exit code.

Functions that a later version of the package no longer has, or that no
longer carry a cache, are skipped; their metrics are then absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

PACKAGE = "normvar"
MODULES = ("arith", "fields", "sieve", "characters", "galois", "stats", "reporting", "cli")

#: functions that get a span (start, end, parent) on every call
TIMED = {
    "sieve": ("primes_up_to", "norm_events"),
    "galois": ("residue_masks", "norm_class_group", "norm_class_closure"),
    "characters": ("character_matrix", "enumerate_characters"),
    "stats": ("variance", "orthogonality_check", "large_sieve_check", "primitive_exchange_diff"),
    "reporting": ("to_json_bytes",),
    "cli": ("standard_checks", "main"),
}
#: functions too hot, or too cheap, to time: calls are counted only
COUNTED = {
    "arith": ("factorize", "multiplicative_order"),
    "fields": ("split_type",),
    "characters": ("primitive_part",),
    "stats": ("residue_buckets",),
}
#: lru_cache'd functions whose hit ratio is read after the run
CACHED = {
    "galois": ("norm_class_group",),
    "characters": ("character_matrix", "enumerate_characters", "unit_group"),
}
#: size of what a timed function returned, summed over calls: primes
#: produced, distinct event-table rows, moduli in variance, report bytes
SIZE_COUNTERS = {
    "sieve.primes_up_to": "sieve.primes",
    "sieve.norm_events": "sieve.events",
    "stats.variance": "stats.variance.moduli",
    "reporting.to_json_bytes": "reporting.bytes_out",
}


class Tracer:
    """In-memory span and counter store for one process (single-threaded CLI)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.event_tables: dict[int, int] = {}  # id(table) -> rows
        self.timed_names: list[str] = []  # wrapped with a span, called or not

    def install_counters(self, name: str, timed: bool) -> None:
        """Start the counters of a wrapped function at 0, so an uncalled one reads 0."""
        if timed:
            self.timed_names.append(name)
        self.count(name + ".calls", 0)
        if name in SIZE_COUNTERS:
            self.count(SIZE_COUNTERS[name], 0)

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def observe(self, name: str, result) -> None:
        """Record the size of what a traced function produced, where it has one."""
        try:
            self._observe(name, result)
        except (AttributeError, TypeError):
            pass

    def _observe(self, name: str, result) -> None:
        if name == "sieve.norm_events":
            self.event_tables[id(result)] = len(result)
        elif name == "stats.variance":
            self.count(SIZE_COUNTERS[name], len(result.per_q))
        elif name in SIZE_COUNTERS:
            self.count(SIZE_COUNTERS[name], len(result))

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self.count(name + ".calls")
            self.observe(name, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer, modules: dict) -> dict:
    """Wrap the listed functions everywhere they are bound; return the caches."""
    caches = {}
    for layer, names in CACHED.items():
        for fname in names:
            fn = getattr(modules.get(layer), fname, None)
            if hasattr(fn, "cache_info"):
                caches[f"{layer}.{fname}"] = fn
    replacements = {}
    for table, make in ((TIMED, tracer.timed), (COUNTED, tracer.counted)):
        for layer, names in table.items():
            for fname in names:
                original = getattr(modules.get(layer), fname, None)
                if callable(original):
                    tracer.install_counters(f"{layer}.{fname}", table is TIMED)
                    replacements[id(original)] = (original, make(f"{layer}.{fname}", original))
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return caches


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
        except ModuleNotFoundError:
            pass  # a later layout without this module: its metrics are absent
    tracer = Tracer()
    caches = install(tracer, modules)
    rc = 2
    try:
        rc = modules["cli"].main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        if tracer.event_tables:
            tracer.count(SIZE_COUNTERS["sieve.norm_events"], sum(tracer.event_tables.values()))
        record = {
            "timed": tracer.timed_names,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "caches": {
                name: [fn.cache_info().hits, fn.cache_info().misses] for name, fn in caches.items()
            },
        }
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
