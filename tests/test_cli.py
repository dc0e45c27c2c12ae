import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import normvar as nv
from normvar import cli, correlation, fields, reporting, sieve, stats
from normvar.arith import euler_phi
from normvar.cli import main
from naive_oracle import naive_events

GOLDEN_EVENTS_GAUSSIAN_X10 = """n,p,k,dk,lam
2,2,1,1,0.69314718056
4,2,2,1,0.69314718056
5,5,1,2,1.60943791243
8,2,3,1,0.69314718056
9,3,2,1,2.19722457734
"""

GOLDEN_GQ_GAUSSIAN_ROW12 = """q,phi,phi_K,aq_conductor,members
12,4,2,4,1-5
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fail_lines(err: str) -> int:
    return sum(line.startswith("FAIL ") for line in err.splitlines())


def _fresh_python(script: str, env: dict, *args: str) -> subprocess.CompletedProcess:
    """Run script in a new interpreter that imports normvar from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", script, *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def test_dump_events_golden(capsys):
    code, out, _ = run(capsys, "dump-events", "--field", "quad:-1", "--x", "10")
    assert code == 0
    assert out == GOLDEN_EVENTS_GAUSSIAN_X10


def test_dump_events_blocks_join_to_one_csv(capsys):
    # about 18,000 events each: the CSV is written in two blocks; for
    # cyclo:15 the ramified 3 (f = 4) and 5 (f = 2) and the powers p^k
    # with k >= 2 fall on both sides of the block edge
    for label, x in [("Q", 200_000), ("cyclo:15", 2_000_000)]:
        columns = nv.event_columns(nv.parse_field(label), x)
        assert reporting._CSV_ROWS < columns.n.size <= 2 * reporting._CSV_ROWS
        rows = [
            f"{n},{p},{k},{dk},{reporting.format_float(lam, 12)}"
            for n, p, k, dk, lam in zip(*(c.tolist() for c in columns))
        ]
        code, out, _ = run(capsys, "dump-events", "--field", label, "--x", str(x))
        assert code == 0
        assert out == "\n".join(["n,p,k,dk,lam"] + rows) + "\n"


def test_dump_events_reads_the_cached_table(monkeypatch, capsys):
    field = nv.parse_field("cyclo:12")
    nv.norm_events(field, 50_000)
    code, before, _ = run(capsys, "dump-events", "--field", "cyclo:12", "--x", "50000")
    assert code == 0

    def never(*_):
        raise AssertionError("built the events a second time")

    monkeypatch.setattr(sieve, "_event_stream", never)
    code, after, _ = run(capsys, "dump-events", "--field", "cyclo:12", "--x", "50000")
    assert code == 0 and after == before


def test_dump_events_to_file(tmp_path, capsys):
    target = tmp_path / "events.csv"
    code, out, _ = run(
        capsys, "dump-events", "--field", "quad:-1", "--x", "10", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text() == GOLDEN_EVENTS_GAUSSIAN_X10


@pytest.mark.parametrize("label", ["Q", "quad:-1", "cyclo:5"])
def test_dump_events_match_naive_oracle(label, capsys):
    field = nv.parse_field(label)
    code, out, _ = run(capsys, "dump-events", "--field", label, "--x", "2000")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    ref = naive_events(field.variant, field.parameter, 2000)
    assert [tuple(int(v) for v in row[:4]) for row in rows] == [r[:4] for r in ref]
    assert [row[4] for row in rows] == [f"{r[4]:.12g}" for r in ref]


def test_gq_single_modulus(capsys):
    code, out, _ = run(capsys, "gq", "--field", "quad:-1", "--q", "12")
    assert code == 0
    assert out == GOLDEN_GQ_GAUSSIAN_ROW12


def test_gq_table(capsys):
    code, out, _ = run(capsys, "gq", "--field", "cyclo:5", "--Q", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,phi,phi_K,aq_conductor,members"
    assert len(lines) == 11
    assert lines[1] == "1,1,1,1,0"
    assert lines[10] == "10,4,1,5,1"


def test_gq_csv_streams_one_row_per_string(capsys):
    field = nv.parse_field("quad:-1")
    blocks = list(reporting.gq_csv(field, range(1, 41)))
    assert len(blocks) == 41
    rows = []
    for q in range(1, 41):
        rec = nv.norm_class_group(field, q)
        members = "-".join(map(str, rec.members))
        rows.append(f"{q},{euler_phi(q)},{rec.order},{rec.subfield_conductor},{members}")
    assert "".join(blocks) == "\n".join(["q,phi,phi_K,aq_conductor,members"] + rows) + "\n"
    code, out, _ = run(capsys, "gq", "--field", "quad:-1", "--Q", "40")
    assert code == 0 and out == "".join(blocks)


def usage_error(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_gq_requires_q_or_bound(capsys):
    err = usage_error(capsys, "gq", "--field", "Q")
    assert "error: one of the arguments --Q --q is required" in err


def test_gq_rejects_q_with_bound(capsys):
    err = usage_error(capsys, "gq", "--field", "Q", "--Q", "3", "--q", "2")
    assert "error: argument --q: not allowed with argument --Q" in err


def test_non_integer_x_is_usage_error(capsys):
    err = usage_error(capsys, "variance", "--field", "Q", "--x", "1e6", "--Q", "10")
    assert "error: argument --x: invalid integer value: '1e6'" in err


def test_variance_json_schema(capsys):
    code, out, err = run(capsys, "variance", "--field", "quad:-1", "--x", "1000", "--Q", "30")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "format_version",
        "config",
        "field",
        "x",
        "Q",
        "M",
        "V",
        "ratio_bdh",
        "ratio_grh",
        "outside_mass",
        "range_condition_satisfied",
        "per_q",
        "dyadic",
        "checks",
    ]
    assert payload["format_version"] == 1
    assert payload["field"]["variant"] == "quadratic"
    assert len(payload["per_q"]) == 30
    assert set(payload["checks"]) == {
        "orthogonality_max_gap",
        "large_sieve_holds",
        "lemma2_max_gap",
    }
    assert payload["checks"]["large_sieve_holds"] is True
    assert payload["checks"]["orthogonality_max_gap"] <= 1e-9
    assert payload["checks"]["lemma2_max_gap"] <= 1e-9
    assert payload["outside_mass"] == 0
    assert "PASS" in err


def test_variance_csv_format(capsys):
    code, out, _ = run(
        capsys, "variance", "--field", "Q", "--x", "500", "--Q", "20", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,phi_K,contribution"
    assert len(lines) == 21
    assert lines[1].startswith("1,1,")


#: (x, Q) of a report whose rows are all direct, and of one whose q above
#: the floor 27 take the correlation route (`_routed_report` checks that they do)
ROW_REPORTS = ((2000, 20), (3000, 3000))


def _routed_report(monkeypatch, x, Q):
    """`variance` on field Q, and whether its rows for q > `stats.route_floor(x)` took the correlation route."""
    calls = []
    rows = correlation._correlation_rows
    monkeypatch.setattr(correlation, "_correlation_rows", lambda *a: calls.append(a[2]) or rows(*a))
    return nv.variance(nv.rational_field(), x, Q), calls == [stats.route_floor(x)]


def test_variance_csv_blocks_join_to_one_csv(monkeypatch, capsys):
    # small blocks, so the rows span several of them, and at Q = 3000 one
    # block holds both direct and routed rows
    monkeypatch.setattr(reporting, "_CSV_ROWS", 7)
    for x, Q in ROW_REPORTS:
        report, routed = _routed_report(monkeypatch, x, Q)
        assert routed == (Q > stats.route_floor(x))
        columns = zip(range(1, Q + 1), report.admissible.tolist(), report.per_q.tolist())
        rows = [f"{q},{count},{reporting.format_float(c)}" for q, count, c in columns]
        code, out, _ = run(
            capsys, "variance", "--field", "Q", "--x", str(x), "--Q", str(Q), "--format", "csv"
        )
        assert code == 0
        assert out == "\n".join(["q,phi_K,contribution"] + rows) + "\n"


@pytest.mark.parametrize(
    "command, label, x", [("variance", "Q", 200_000), ("checks", "quad:-1", 100_000)]
)
def test_one_schedule_of_passes_per_command(command, label, x, monkeypatch, capsys):
    # Q = 300 lies above the route's floor 223 at x = 2e5, but the route
    # costs more than the passes there, so every variance row is on them.  The
    # first plan over q <= 300, the report's in `variance` and the large
    # sieve's in `checks`, folds every t_q the other checks read, and the
    # event table holds them; a fresh table, so that no earlier run did
    Q = 300
    sieve._event_table.cache_clear()
    passes = []
    pass_tables = stats.pass_tables

    def counted(n, columns, modulus):
        passes.append(modulus)
        return pass_tables(n, columns, modulus)

    monkeypatch.setattr(stats, "pass_tables", counted)
    code, _, _ = run(capsys, command, "--field", label, "--x", str(x), "--Q", str(Q))
    assert code == 0
    events = len(nv.norm_events(nv.parse_field(label), x))
    plan = stats._pass_plan(Q, stats._pass_budget(events))
    assert passes == [L for L, _ in plan]


def test_every_checked_modulus_is_held():
    # orthogonality, char-exchange and the variance large sieve read no
    # t_q that the event table does not hold
    assert max(cli.ORTHOGONALITY_MODULI) <= stats._HELD_BOUND
    assert max(cli.EXCHANGE_MODULI) <= stats._HELD_BOUND
    assert cli.VARIANCE_LARGE_SIEVE_CAP <= stats._HELD_BOUND


def test_json_text_streams_json_dumps_layout(monkeypatch):
    # small blocks, so the rows span many of them
    monkeypatch.setattr(reporting, "_JSON_BLOCK", 100)
    # no float here is integral or longer than 15 digits, so json.dumps
    # writes each as format_float does
    rows = [{"q": q, "phi_K": q - 1, "contribution": (2 * q + 1) / 16} for q in range(1, 60)]
    obj = {"a": 1, "b": {}, "c": [], "rows": rows, "d": {"e": [True, None, "s"]}, "f": 0.1}
    # each member of a top-level list is a piece, so the rows take many blocks
    blocks = list(reporting.json_text(rows))
    assert len(blocks) > 10
    assert "".join(blocks) == json.dumps(rows, indent=2) + "\n"
    expected = json.dumps(obj, indent=2) + "\n"
    assert "".join(reporting.json_text({**obj, "d": {"e": (True, None, "s")}})) == expected
    assert reporting.to_json_bytes(obj) == expected.encode("ascii")
    # floats are written at 15 significant digits, scalars stand alone
    assert reporting.to_json_bytes({"v": [1 / 7, 2.0]}) == b'{\n  "v": [\n    0.142857142857143,\n    2\n  ]\n}\n'
    assert reporting.to_json_bytes([]) == b"[]\n"
    assert reporting.to_json_bytes("s") == b'"s"\n'
    with pytest.raises(TypeError):
        reporting.to_json_bytes({"v": object()})
    # only `Rows` streams; an iterator is not an array
    with pytest.raises(TypeError):
        reporting.to_json_bytes(iter([]))


def test_rows_are_laid_out_as_json_dumps(monkeypatch):
    # pieces of 7 rows, so the 59 rows take several, the last one short
    monkeypatch.setattr(reporting, "_ROWS_PIECE", 7)
    rows = [{"q": q, "phi_K": q - 1, "contribution": (2 * q + 1) / 16} for q in range(1, 60)]
    keys = ("q", "phi_K", "contribution")

    def table(items):
        return reporting.Rows(keys, ("d", "d", ".15g"), (tuple(r.values()) for r in items))

    obj = {"a": [1 / 3], "rows": rows, "none": [], "f": {"rows": rows[:1]}}
    streamed = {**obj, "rows": table(rows), "none": table([]), "f": {"rows": table(rows[:1])}}
    assert reporting.to_json_bytes(streamed) == reporting.to_json_bytes(obj)
    assert reporting.to_json_bytes(table(rows)) == (json.dumps(rows, indent=2) + "\n").encode("ascii")
    # a float at 15 significant digits, as format_float writes it
    one = reporting.Rows(("v",), (".15g",), [(1 / 7,)])
    assert reporting.to_json_bytes(one) == b'[\n  {\n    "v": 0.142857142857143\n  }\n]\n'
    # a report's rows, read from its columns, as the generic writer lays
    # out the same rows given as dicts; at Q = 3000 a piece holds both
    # direct and routed rows
    for x, Q in ROW_REPORTS:
        report, routed = _routed_report(monkeypatch, x, Q)
        assert routed == (Q > stats.route_floor(x))
        payload = reporting.variance_payload(report, {}, {})
        columns = zip(range(1, Q + 1), report.admissible.tolist(), report.per_q.tolist())
        dicts = [{"q": q, "phi_K": count, "contribution": c} for q, count, c in columns]
        assert reporting.to_json_bytes(payload) == reporting.to_json_bytes({**payload, "per_q": dicts})


def test_runs_below_sqrt_x_leave_the_route_unloaded(tmp_path):
    # compiling `normvar.correlation` costs about 0.6 MiB of RSS, so checks,
    # and a variance whose q all stay at most the floor 50, never load it;
    # and no run whose passes stay below the split's break-even loads
    # `normvar.forked`, routed or not
    script = """
import sys
from normvar import cli
for argv in (["checks", "--field", "Q", "--x", "10000", "--Q", "30"],
             ["variance", "--field", "Q", "--x", "10000", "--Q", "50"]):
    assert cli.main([*argv, "--out", sys.argv[1]]) == 0
assert "normvar.correlation" not in sys.modules
assert cli.main(["variance", "--field", "Q", "--x", "10000", "--Q", "51", "--out", sys.argv[1]]) == 0
assert "normvar.correlation" in sys.modules
for argv in (["checks", "--field", "quad:-1", "--x", "1000000", "--Q", "300"],
             ["variance", "--field", "quad:-1", "--x", "100000", "--Q", "2000"]):
    assert cli.main([*argv, "--out", sys.argv[1]]) == 0
assert "normvar.forked" not in sys.modules
"""
    proc = _fresh_python(script, dict(os.environ), str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr


def test_variance_reruns_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / name for name in ("a.json", "b.json")]
    for path in paths:
        argv = ["variance", "--field", "cyclo:5", "--x", "2000", "--Q", "40", "--out", str(path)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]


def test_variance_takes_no_thread_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["variance", "--field", "Q", "--x", "100", "--Q", "5", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_variance_rejects_bad_window(capsys):
    code, _, err = run(capsys, "variance", "--field", "Q", "--x", "30", "--Q", "50")
    assert code == 2
    assert "Q must satisfy" in err


def test_variance_M_above_ceiling_is_usage_error(capsys):
    # (log x)^(M+1) overflows a double: refused before any events are built
    argv = ["variance", "--field", "Q", "--x", "1000", "--Q", "10", "--M", "400"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: M must satisfy") and "Traceback" not in err


@pytest.mark.parametrize("bound", [["--q", str(10**12)], ["--Q", str(10**6)]], ids=["q", "Q"])
def test_gq_modulus_above_ceiling_is_usage_error(capsys, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, "gq", "--field", "Q", *bound)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bound[0]} ") and "ceiling" in err


def test_gq_ceilings_are_the_memory_budget():
    budget = cli.EVENT_MEMORY_BUDGET

    def table_bytes(Q):
        # sum of phi(q) over q <= Q is at most Q (Q + 1) / 2
        return cli.GQ_BYTES_PER_MEMBER * Q * (Q + 1) // 2

    assert cli.GQ_MAX_MODULUS * cli.GQ_BYTES_PER_RESIDUE <= budget
    assert (cli.GQ_MAX_MODULUS + 1) * cli.GQ_BYTES_PER_RESIDUE > budget
    assert table_bytes(cli.GQ_MAX_BOUND) <= budget < table_bytes(cli.GQ_MAX_BOUND + 1)


def test_malformed_field_is_usage_error(capsys):
    code, _, err = run(capsys, "variance", "--field", "quad:4", "--x", "100", "--Q", "10")
    assert code == 2
    assert "squarefree" in err
    code, _, err = run(capsys, "gq", "--field", "gaussian", "--Q", "5")
    assert code == 2
    assert "gaussian" in err


def test_checks_all_pass(capsys):
    code, out, err = run(
        capsys, "checks", "--field", "quad:5", "--x", "1000", "--Q", "40", "--B", "5000"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "gq-oracle",
        "class-index",
        "orthogonality",
        "outside-mass",
        "large-sieve",
        "char-exchange",
    ]
    assert err.count("PASS") == len(names)
    # orthogonality and char-exchange scopes do not shrink with Q
    details = {c["name"]: c["detail"] for c in payload["checks"]}
    assert details["orthogonality"].endswith("over 32 moduli")
    imprimitive = sum(
        not chi.primitive for q in range(2, 31) for chi in nv.enumerate_characters(q)
    )
    assert details["char-exchange"].endswith(f"over {imprimitive} characters")


def test_check_details_name_their_worst_case(field):
    x = 5000
    gaps = [nv.orthogonality_check(field, x, q).gap for q in cli.ORTHOGONALITY_MODULI]
    argmax_q = cli.ORTHOGONALITY_MODULI[int(np.argmax(gaps))]
    assert f" at q={argmax_q} over 32 moduli" in cli.orthogonality(field, x).detail
    diffs = [
        nv.primitive_exchange_diff(field, x, chi)
        for q in cli.EXCHANGE_MODULI
        for chi in nv.enumerate_characters(q)
        if not chi.primitive
    ]
    worst = diffs[int(np.argmax([d.gap for d in diffs]))]
    at = f" at q={worst.q}, conductor {worst.conductor}, over {len(diffs)} characters"
    assert cli.char_exchange(field, x).detail.endswith(at)


def test_checks_outside_mass_is_capped_at_x(capsys):
    # a variance report needs Q <= x, so the outside-mass scope stops at x
    code, out, err = run(capsys, "checks", "--field", "Q", "--x", "20", "--Q", "40")
    assert code == 0, err
    details = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
    assert details["outside-mass"].endswith("for q <= 20")


def test_checks_reports_starved_closure(capsys):
    code, out, err = run(
        capsys, "checks", "--field", "quad:-1", "--x", "100", "--Q", "8", "--B", "2"
    )
    assert code == 1
    payload = json.loads(out)
    oracle = payload["checks"][0]
    assert oracle["name"] == "gq-oracle"
    assert oracle["passed"] is False
    assert "closure incomplete, raise B" in oracle["detail"]
    assert payload["all_passed"] is False
    failed = sum(not c["passed"] for c in payload["checks"])
    assert fail_lines(err) == failed == 1


def test_variance_reports_failed_check(monkeypatch, capsys):
    def failing(field, x, Q):
        return nv.LargeSieveResult(x, Q, lhs=2.0, rhs=1.0, holds=False)

    monkeypatch.setattr(cli, "large_sieve_check", failing)
    code, out, err = run(capsys, "variance", "--field", "quad:-1", "--x", "1000", "--Q", "30")
    assert code == 1
    payload = json.loads(out)
    block = payload["checks"]
    failed = (
        (block["orthogonality_max_gap"] > 1e-9)
        + (not block["large_sieve_holds"])
        + (block["lemma2_max_gap"] > 1e-9)
        + (payload["outside_mass"] != 0)
    )
    assert fail_lines(err) == failed == 1
    assert "FAIL large-sieve: lhs/rhs = 2 at Q=30" in err


@pytest.mark.parametrize("Q, routed", [(50, False), (250, True)])
def test_route_agreement_is_reported_exactly_when_some_q_routes(Q, routed, capsys):
    # the floor at x = 1e4 is 50; quad:-1 routes the q above it at Q = 250
    x = 10**4
    report = nv.variance(nv.parse_field("quad:-1"), x, Q)
    assert (report.route_agreement is not None) == routed
    code, out, err = run(capsys, "variance", "--field", "quad:-1", "--x", str(x), "--Q", str(Q))
    assert code == 0, err
    lines = [line for line in err.splitlines() if "route-agreement" in line]
    block = json.loads(out)["checks"]
    if not routed:
        assert lines == [] and "route_agreement_max_gap" not in block
        return
    agreement = report.route_agreement
    # every q of the window (50, 60] just above the floor, then three
    # geometrically spaced and Q
    moduli = tuple(range(51, 61)) + (76, 113, 168, 250)
    assert agreement.moduli == moduli
    gap = reporting.format_float(agreement.gap, 3)
    assert lines == [
        f"PASS route-agreement: max gap {gap} at q={agreement.q} over the routed"
        f" q={list(moduli)}; cross-route, over one event table, not an independent oracle"
    ]
    assert block["route_agreement_max_gap"] == float(reporting.format_float(agreement.gap))


def test_perturbed_route_fails_route_agreement(monkeypatch, capsys):
    # a routed row off by 1e-6 at q = Q: the check names it, and only it fails
    rows = correlation._correlation_rows

    def perturbed(field, x, K, Q):
        counts, contributions, outside = rows(field, x, K, Q)
        contributions[-1] *= 1 + 1e-6
        return counts, contributions, outside

    monkeypatch.setattr(correlation, "_correlation_rows", perturbed)
    code, out, err = run(capsys, "variance", "--field", "quad:-1", "--x", "10000", "--Q", "250")
    assert code == 1
    assert fail_lines(err) == 1
    assert "FAIL route-agreement: max gap 1e-06 at q=250 over the routed" in err
    assert json.loads(out)["checks"]["route_agreement_max_gap"] > 1e-9


@pytest.mark.parametrize("command", ["variance", "checks"])
def test_reports_without_events_pass(command, capsys):
    # cyclo:11 has no prime-power norm up to 10: every inert power exceeds it
    assert len(nv.norm_events(nv.parse_field("cyclo:11"), 10)) == 0
    code, out, err = run(capsys, command, "--field", "cyclo:11", "--x", "10", "--Q", "5")
    assert code == 0, err
    assert json.loads(out)["field"]["parameter"] == 11
    assert "FAIL" not in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["variance", "checks"])
def test_unserializable_field_fails_before_computing(command, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("computed a report that cannot be written")

    monkeypatch.setattr(cli, "variance", never)
    monkeypatch.setattr(cli, "gq_oracle", never)
    # the discriminant of cyclo:2003 has about 6600 digits
    code, out, err = run(capsys, command, "--field", "cyclo:2003", "--x", "100000", "--Q", "300")
    assert code == 2 and out == ""
    assert err.startswith("error: field cyclo:2003 ")


needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")


@needs_digit_limit
@pytest.mark.parametrize("command", ["variance", "checks"])
def test_long_discriminant_is_refused_unbuilt(command, monkeypatch, capsys):
    # the discriminant of cyclo:999983 has about 6.0e6 digits, and building
    # it took 4.1 s; the refusal is the error that str() of it raises
    def refuse(m):
        raise AssertionError(f"discriminant of cyclo:{m} built")

    monkeypatch.setattr(fields, "_cyclotomic_discriminant", refuse)
    code, out, err = run(capsys, command, "--field", "cyclo:999983", "--x", "1000", "--Q", "5")
    with pytest.raises(ValueError) as limit:
        str(10 ** sys.get_int_max_str_digits())
    assert code == 2 and out == ""
    assert err == f"error: field cyclo:999983 cannot be written to a JSON report: {limit.value}\n"


@needs_digit_limit
def test_discriminant_near_the_digit_limit_is_built(capsys):
    # within a digit of the limit the discriminant is built and printed, or
    # refused by str() itself
    digits = len(str(abs(nv.parse_field("cyclo:1009").discriminant)))
    limit = sys.get_int_max_str_digits()
    try:
        for allowed, expected in ((digits, 0), (digits - 1, 2)):
            sys.set_int_max_str_digits(allowed)
            code, out, err = run(capsys, "variance", "--field", "cyclo:1009", "--x", "1000", "--Q", "5")
            assert code == expected, err
            assert ("cannot be written to a JSON report" in err) == (expected == 2)
    finally:
        sys.set_int_max_str_digits(limit)


def test_unserializable_field_still_serves_tables(capsys):
    code, out, _ = run(capsys, "gq", "--field", "cyclo:2003", "--q", "7")
    assert code == 0
    assert out.splitlines()[1] == "7,6,6,1,1-2-3-4-5-6"
    code, out, _ = run(capsys, "dump-events", "--field", "cyclo:2003", "--x", "2003")
    assert code == 0
    assert out.splitlines()[1] == "2003,2003,1,1,7.60240133567"


def test_checks_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "checks",
        "--field",
        "Q",
        "--x",
        "500",
        "--Q",
        "20",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,passed,detail"
    assert len(lines) == 7


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "events.csv"
    code, out, err = run(
        capsys, "dump-events", "--field", "Q", "--x", "10", "--out", str(target)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize(
    "command",
    [
        ["variance", "--x", "100000", "--Q", "300"],
        ["checks", "--x", "100000", "--Q", "300"],
        ["gq", "--Q", "300"],
        ["dump-events", "--x", "100000"],
    ],
    ids=["variance", "checks", "gq", "dump-events"],
)
def test_unservable_out_fails_before_computing(command, target, monkeypatch, tmp_path, capsys):
    def never(*args, **kwargs):
        raise AssertionError("computed a report that cannot be written")

    for name in ("norm_events", "variance", "gq_csv", "events_csv"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "missing" / "report" if target == "missing" else tmp_path
    code, stdout, err = run(capsys, command[0], "--field", "quad:-1", *command[1:], "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: --out {out}") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_import_holds_openblas_to_one_thread():
    script = """
import os
import normvar
print(os.environ["OPENBLAS_NUM_THREADS"])
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        print([line.strip() for line in fh if line.startswith("Threads:")][0])
"""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    proc = _fresh_python(script, env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "1"
    if Path("/proc/self/status").exists():
        assert lines[1] == "Threads:\t1"
    # a size the caller chose is kept
    proc = _fresh_python(script, {**env, "OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "2"


def test_commands_load_no_dataclasses_fractions_or_decimal(tmp_path):
    # the records are named tuples and primitive parts are solved in
    # integers, so neither the import nor a command loads these modules
    script = """
import sys
from normvar import cli
unwanted = ("dataclasses", "fractions", "decimal")
print([m for m in unwanted if m in sys.modules])
out = sys.argv[1]
# the variance run routes the q above the floor 50; checks reads primitive parts
codes = [
    cli.main(["variance", "--field", "quad:-1", "--x", "10000", "--Q", "250", "--out", out]),
    cli.main(["checks", "--field", "cyclo:12", "--x", "10000", "--Q", "60", "--out", out]),
]
print(codes, "normvar.correlation" in sys.modules)
print([m for m in unwanted if m in sys.modules])
"""
    proc = _fresh_python(script, dict(os.environ), str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, 0] True", "[]"]


@pytest.mark.parametrize(
    "argv",
    [
        # direct passes, and the correlation route for q > the floor 158
        ["variance", "--field", "quad:-1", "--x", "100000", "--Q", "1000"],
        ["checks", "--field", "cyclo:12", "--x", "100000", "--Q", "120"],
    ],
    ids=["variance", "checks"],
)
def test_report_bytes_do_not_depend_on_the_blas_pool(argv, tmp_path):
    # the one thread normvar holds against a pool of two; the variable is
    # set explicitly, since this process may have imported normvar and
    # then passes its hold on
    script = "import sys\nfrom normvar import cli\nsys.exit(cli.main(sys.argv[1:]))"
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"pool-{threads}.out"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = _fresh_python(script, env, *argv, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "command", [["variance", "--Q", "1"], ["dump-events"]], ids=["variance", "dump-events"]
)
def test_x_above_ceiling_is_usage_error(capsys, command):
    x = str(nv.MAX_SIEVE_LIMIT + 1)
    code, out, err = run(capsys, command[0], "--field", "Q", "--x", x, *command[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "ceiling" in err


@pytest.mark.parametrize("spec", ["quad:1000000000000000003", "cyclo:3037000507"])
@pytest.mark.parametrize(
    "command",
    [
        ["variance", "--x", "1000", "--Q", "5"],
        ["checks", "--x", "1000", "--Q", "5"],
        ["gq", "--Q", "5"],
        ["dump-events", "--x", "1000"],
    ],
    ids=["variance", "checks", "gq", "dump-events"],
)
def test_conductor_above_ceiling_is_usage_error(capsys, spec, command):
    # refused before factorizing, building arrays or the discriminant
    start = time.perf_counter()
    code, out, err = run(capsys, command[0], "--field", spec, *command[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: conductor ") and "ceiling" in err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
