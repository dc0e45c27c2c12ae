import math
from functools import lru_cache

import numpy as np
import pytest

import normvar as nv
from normvar import stats
from normvar.fields import kernel_image
from normvar.stats import class_weights
from naive_oracle import naive_variance

LOG2, LOG3, LOG5, LOG7 = math.log(2), math.log(3), math.log(5), math.log(7)


def test_buckets_rational_x10_q3():
    t = nv.residue_buckets(nv.rational_field(), 10, 3)
    assert t[0] == pytest.approx(2 * LOG3, rel=1e-15)
    assert t[1] == pytest.approx(LOG2 + LOG7, rel=1e-15)
    assert t[2] == pytest.approx(2 * LOG2 + LOG5, rel=1e-15)


def test_buckets_total_is_first_moment(field):
    for q in (1, 4, 7, 12):
        t = nv.residue_buckets(field, 500, q)
        s1, _ = nv.event_moment_sums(field, 500)
        assert math.fsum(t) == pytest.approx(s1, rel=1e-13)


def _one_bincount(n, w, q):
    return np.bincount(n % q, weights=w, minlength=q)


def test_class_weights_equal_one_bincount(oracle_field, monkeypatch):
    # blocks of 256 events, so every field's table spans several blocks
    monkeypatch.setattr(stats, "_BLOCK", 256)
    ev = nv.norm_events(oracle_field, 10**4)
    for q in range(1, 301):
        assert np.array_equal(class_weights(ev.n, ev.weight, q), _one_bincount(ev.n, ev.weight, q))


def test_class_weights_equal_one_bincount_across_two_blocks():
    ev = nv.norm_events(nv.rational_field(), 10**6)
    assert stats._BLOCK < len(ev) <= 2 * stats._BLOCK
    for q in (1, 2, 3, 30, 97, 300, 1000, 9973):
        assert np.array_equal(class_weights(ev.n, ev.weight, q), _one_bincount(ev.n, ev.weight, q))


def test_class_weights_without_events():
    ev = nv.norm_events(nv.parse_field("cyclo:11"), 10)
    assert len(ev) == 0
    for q in (1, 5, 11):
        assert np.array_equal(class_weights(ev.n, ev.weight, q), np.zeros(q))


def test_buckets_unchanged_by_a_variance_run(field):
    x = 5000
    before = {q: nv.residue_buckets(field, x, q) for q in (1, 7, 12, 30)}
    copies = {q: t.copy() for q, t in before.items()}
    nv.variance(field, x, 40, threads=2)
    for q, t in before.items():
        assert not t.flags.writeable
        assert nv.residue_buckets(field, x, q) is t
        assert np.array_equal(t, copies[q])


def test_character_sum_rational_x10_mod4():
    chi = nv.enumerate_characters(4)[1]
    assert not chi.is_trivial()
    psi = nv.character_sum(nv.rational_field(), 10, chi)
    assert psi.real == pytest.approx(LOG5 - LOG7, abs=1e-13)
    assert psi.imag == pytest.approx(0.0, abs=1e-13)


def test_orthogonality_sweep(field):
    for x in (100, 1000):
        for q in range(1, 41):
            res = nv.orthogonality_check(field, x, q)
            assert res.gap <= 1e-12, (field.label(), x, q, res.gap)


def test_orthogonality_modulus_one_is_exact(field):
    res = nv.orthogonality_check(field, 300, 1)
    assert res.lhs == res.rhs


def test_character_sums_constant_on_annihilator_cosets(field):
    # psi depends on chi only through its restriction to the admissible
    # classes: characters in the same annihilator coset give equal sums
    x = 400
    for q in (8, 12, 16, 21):
        rec = nv.norm_class_group(field, q)
        chars = nv.enumerate_characters(q)
        members = rec.members
        by_restriction = {}
        for chi in chars:
            key = tuple(chi.rotation(a) for a in members)
            by_restriction.setdefault(key, []).append(nv.character_sum(field, x, chi))
        for sums in by_restriction.values():
            for s in sums[1:]:
                assert s == sums[0]


def test_variance_matches_naive_oracle(field):
    report = nv.variance(field, 300, 20)
    ref_total, ref_outside = naive_variance(field.variant, field.parameter, 300, 20)
    assert nv.rel_gap(report.total, ref_total) <= 1e-9
    assert report.outside_mass == 0.0 and ref_outside == 0.0


def test_variance_outside_mass_is_exactly_zero(field):
    assert nv.variance(field, 2000, 40).outside_mass == 0.0


def test_variance_per_q_shape_and_positivity(field):
    report = nv.variance(field, 1000, 30)
    assert [r.q for r in report.per_q] == list(range(1, 31))
    assert all(r.contribution >= 0.0 for r in report.per_q)
    assert all(r.admissible == nv.norm_class_group(field, r.q).order for r in report.per_q)
    assert report.total == pytest.approx(
        math.fsum(r.contribution for r in report.per_q), rel=1e-15
    )


def test_variance_validates_inputs(field):
    with pytest.raises(ValueError):
        nv.variance(field, 30, 50)
    with pytest.raises(ValueError):
        nv.variance(field, 100, 0)
    with pytest.raises(ValueError):
        nv.variance(field, 1, 1)


def test_variance_thread_count_does_not_change_anything(field):
    a = nv.variance(field, 3000, 600, threads=1)
    b = nv.variance(field, 3000, 600, threads=4)
    assert a == b


@lru_cache(maxsize=None)
def _reference_rows(label: str, x: int, Q: int):
    """Per-q rows and outside mass from `n % q` and gcd masks, q = 1..Q."""
    field = nv.parse_field(label)
    ev = nv.norm_events(field, x)
    rows, outside = [], []
    for q in range(1, Q + 1):
        t = np.bincount(ev.n % q, weights=ev.weight, minlength=q)
        res = np.arange(q)
        coprime = np.gcd(res, q) == 1
        g = math.gcd(field.conductor, q)
        member = coprime & kernel_image(field, g)[res % g]
        count = int(np.count_nonzero(member))
        dev = t[member] - x / count
        rows.append(nv.PerQContribution(q, count, float(dev @ dev)))
        outside.append(float(t[coprime & ~member].sum()))
    return tuple(rows), math.fsum(outside)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("label", ["Q", "quad:-1", "quad:5", "cyclo:12"])
def test_variance_rows_are_bit_identical_to_reference_loop(label, threads):
    x, Q = 10**5, 1500
    report = nv.variance(nv.parse_field(label), x, Q, threads=threads)
    rows, outside = _reference_rows(label, x, Q)
    assert report.per_q == rows
    assert report.outside_mass == outside


def test_dyadic_partition_sums_to_total(field):
    for x, Q in ((1000, 50), (2000, 11), (100, 100)):
        report = nv.variance(field, x, Q)
        blocks = report.dyadic
        assert nv.rel_gap(math.fsum(b.contribution for b in blocks), report.total) <= 1e-9
        # blocks chain downward and end with the small-q block at 0
        assert blocks[0].u_hi == float(Q)
        for first, second in zip(blocks, blocks[1:]):
            assert first.u_lo == second.u_hi
        assert blocks[-1].u_lo == 0.0


def test_dyadic_small_q_cutoff_value():
    report = nv.variance(nv.rational_field(), 1000, 50, M=1)
    assert report.small_q_cutoff == pytest.approx(math.log(1000) ** 2, rel=1e-15)
    assert nv.small_q_cutoff(1000, 2) == pytest.approx(math.log(1000) ** 3, rel=1e-15)
    # cutoff above Q collapses the profile to a single block
    collapsed = nv.variance(nv.rational_field(), 1000, 20, M=1)
    assert len(collapsed.dyadic) == 1


def test_range_condition_flag():
    # Q must reach x / (log x)^M for the window to count as admissible
    assert not nv.variance(nv.rational_field(), 100_000, 1000).range_condition_satisfied
    assert nv.variance(nv.rational_field(), 10_000, 10_000).range_condition_satisfied


def test_grh_compare_identity_is_exact(field):
    report = nv.variance(field, 1000, 31)
    log_x = math.log(1000)
    assert report.envelope_grh == report.envelope_classical * log_x**3
    assert report.ratio_grh < report.ratio_bdh
    assert report.ratio_grh == report.total / report.envelope_grh


def test_large_sieve_holds(field):
    res = nv.large_sieve_check(field, 2000, 60)
    assert res.holds
    assert 0.0 < res.lhs <= res.rhs


def test_large_sieve_q1_term_is_first_moment_squared(field):
    res = nv.large_sieve_check(field, 500, 1)
    s1, s2 = nv.event_moment_sums(field, 500)
    assert res.lhs == pytest.approx(s1 * s1, rel=1e-12)
    assert res.rhs == pytest.approx((500 + 1) * s2, rel=1e-15)


def test_exchange_example_trivial_mod6():
    # the trivial character mod 6 loses the events at powers of 2 and 3
    chi0 = nv.enumerate_characters(6)[0]
    diff = nv.primitive_exchange_diff(nv.rational_field(), 1000, chi0)
    expected = -(9 * LOG2 + 6 * LOG3)
    assert diff.direct.real == pytest.approx(expected, rel=1e-12)
    assert diff.direct.imag == pytest.approx(0.0, abs=1e-12)
    assert diff.gap <= 1e-9
    assert diff.bound_ok


def test_exchange_example_gaussian_mod2():
    chi0 = nv.enumerate_characters(2)[0]
    diff = nv.primitive_exchange_diff(nv.parse_field("quad:-1"), 1000, chi0)
    assert diff.direct.real == pytest.approx(-9 * LOG2, rel=1e-12)
    assert diff.gap <= 1e-9


def test_exchange_routes_agree_everywhere(field):
    for q in range(2, 21):
        for chi in nv.enumerate_characters(q):
            if chi.primitive:
                continue
            diff = nv.primitive_exchange_diff(field, 500, chi)
            assert diff.gap <= 1e-9, (field.label(), q, chi.exponents)
            assert diff.bound_ok


def test_exchange_routes_agree_at_large_x(field):
    # each bucket-route sum adds terms of total size S1 ~ x, so their
    # difference carries rounding error of order 1e-15 * x
    for q in range(2, 31):
        for chi in nv.enumerate_characters(q):
            if not chi.primitive:
                diff = nv.primitive_exchange_diff(field, 10**6, chi)
                assert diff.gap <= nv.REL_TOL, (field.label(), q, chi.exponents, diff.gap)


def test_exchange_gap_detects_one_missing_event(field):
    # the S1 floor must not hide an error of one event of weight log 2
    x = 10**6
    s1, _ = nv.event_moment_sums(field, x)
    chi0 = nv.enumerate_characters(6)[0]
    diff = nv.primitive_exchange_diff(field, x, chi0)
    assert diff.gap == nv.rel_gap(diff.direct, diff.explicit, s1)
    assert nv.rel_gap(diff.direct, diff.explicit + LOG2, s1) > nv.REL_TOL


def test_exchange_on_primitive_character_is_flagged_trivial(field):
    chi = nv.enumerate_characters(5)[1]
    assert chi.primitive
    diff = nv.primitive_exchange_diff(field, 100, chi)
    assert diff.already_primitive
    assert diff.direct == 0j and diff.explicit == 0j and diff.gap == 0.0


def test_rel_gap_floor():
    assert nv.rel_gap(1e-13, 0.0) == pytest.approx(1e-13, rel=1e-9)
    assert nv.rel_gap(2.0, 1.0) == 0.5
