import pytest

import normvar as nv

FIELD_LABELS = ("Q", "quad:-1", "quad:5", "cyclo:5")
ALL_FIELDS = tuple(nv.parse_field(label) for label in FIELD_LABELS)
#: small fields checked only against the naive oracle
ORACLE_LABELS = FIELD_LABELS + (
    "quad:2", "quad:-2", "quad:3", "quad:-3", "quad:-5", "quad:6", "quad:-7", "quad:13",
    "cyclo:3", "cyclo:4", "cyclo:7", "cyclo:8", "cyclo:9", "cyclo:12", "cyclo:15",
    "cyclo:16", "cyclo:20",
)


@pytest.fixture(params=FIELD_LABELS, ids=FIELD_LABELS)
def field(request):
    return nv.parse_field(request.param)


@pytest.fixture(params=ORACLE_LABELS, ids=ORACLE_LABELS)
def oracle_field(request):
    return nv.parse_field(request.param)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Acceptance verdicts are echoed after capture ends so they show up in
    # quiet runs too.
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
