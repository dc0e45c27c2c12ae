"""Property tests: drawn fields against the naive oracle.

Hypothesis draws quadratic fields quad:d (squarefree d, |d| <= 200) and
cyclotomic fields cyclo:m (m <= 60) and compares splitting data and the
event table with `naive_oracle`.  Runs are derandomized and keep no
example database, so every run draws the same fields.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normvar as nv
from naive_oracle import naive_events, naive_primes, naive_split

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

quadratic = (
    st.integers(-200, 200)
    .filter(lambda d: d not in (0, 1) and all(d % (p * p) for p in naive_primes(14)))
    .map(lambda d: f"quad:{d}")
)
cyclotomic = st.integers(1, 60).map(lambda m: f"cyclo:{m}")
fields = st.one_of(quadratic, cyclotomic).map(nv.parse_field)


@PROPERTY_SETTINGS
@given(fields)
def test_split_matches_naive_oracle(field):
    for p in naive_primes(200):
        s = nv.split_type(field, p)
        assert (s.e, s.f, s.g) == naive_split(field.variant, field.parameter, p), p


@PROPERTY_SETTINGS
@given(fields)
def test_events_match_naive_oracle(field):
    cols = nv.event_columns(field, 2000)
    ref = naive_events(field.variant, field.parameter, 2000)
    exact = (cols.n.tolist(), cols.p.tolist(), cols.k.tolist(), cols.dk.tolist())
    assert list(zip(*exact)) == [row[:4] for row in ref]
    assert cols.lam.tolist() == pytest.approx([row[4] for row in ref], rel=1e-13)
