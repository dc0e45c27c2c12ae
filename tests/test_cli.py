import json
import time

import pytest

import normvar as nv
from normvar import cli, reporting
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


def test_dump_events_golden(capsys):
    code, out, _ = run(capsys, "dump-events", "--field", "quad:-1", "--x", "10")
    assert code == 0
    assert out == GOLDEN_EVENTS_GAUSSIAN_X10


def test_dump_events_blocks_join_to_one_csv(capsys):
    # about 18,000 events: the CSV is written in more than one block
    field = nv.rational_field()
    columns = nv.event_columns(field, 200_000)
    assert columns.n.size > reporting._CSV_ROWS
    rows = [
        f"{n},{p},{k},{dk},{reporting.format_float(lam, 12)}"
        for n, p, k, dk, lam in zip(*(c.tolist() for c in columns))
    ]
    code, out, _ = run(capsys, "dump-events", "--field", "Q", "--x", "200000")
    assert code == 0
    assert out == "\n".join(["n,p,k,dk,lam"] + rows) + "\n"


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


def test_gq_requires_q_or_bound(capsys):
    code, _, err = run(capsys, "gq", "--field", "Q")
    assert code == 2
    assert "error" in err


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


def test_variance_reruns_and_threads_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    for path, threads in zip(paths, ("1", "1", "4")):
        code, _, _ = run(
            capsys,
            "variance",
            "--field",
            "cyclo:5",
            "--x",
            "2000",
            "--Q",
            "40",
            "--threads",
            threads,
            "--out",
            str(path),
        )
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_variance_rejects_bad_window(capsys):
    code, _, err = run(capsys, "variance", "--field", "Q", "--x", "30", "--Q", "50")
    assert code == 2
    assert "Q must satisfy" in err


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


def test_x_above_ceiling_is_usage_error(capsys):
    x = str(nv.MAX_SIEVE_LIMIT + 1)
    code, out, err = run(capsys, "variance", "--field", "Q", "--x", x, "--Q", "1")
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
