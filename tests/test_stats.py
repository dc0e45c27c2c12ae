import math
from functools import lru_cache

import numpy as np
import pytest

import normvar as nv
from normvar import stats
from normvar.arith import euler_phi
from normvar.fields import kernel_image
from normvar.sieve import weight_slices
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


def _fsum_classes(n, w, q):
    """Per-class math.fsum of w over n = a (mod q): the correctly rounded class sums."""
    r = np.asarray(n, dtype=np.int64) % q
    ends = np.cumsum(np.bincount(r, minlength=q)).tolist()
    ws = w[np.argsort(r, kind="stable")].tolist()
    return np.array([math.fsum(ws[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)])


def _assert_class_weights_exact(n, w, q):
    slices = weight_slices(w)
    assert len(slices) <= 2
    # the blocked tables equal one bincount per slice over all events
    one = [np.bincount(np.asarray(n, dtype=np.int64) % q, weights=s, minlength=q) for s in slices]
    assert np.array_equal(stats.slice_tables(n, slices, q), np.array(one).reshape(-1, q))
    assert np.array_equal(class_weights(n, slices, q), _fsum_classes(n, w, q))


def test_class_weights_equal_one_bincount(oracle_field, monkeypatch):
    # blocks of 256 events, so every field's table spans several blocks
    monkeypatch.setattr(stats, "_BLOCK", 256)
    ev = nv.norm_events(oracle_field, 10**4)
    w = ev.weights()
    for q in range(1, 301):
        _assert_class_weights_exact(ev.n, w, q)


def test_class_weights_equal_one_bincount_across_two_blocks():
    ev = nv.norm_events(nv.rational_field(), 10**6)
    assert stats._BLOCK < len(ev) <= 2 * stats._BLOCK
    w = ev.weights()
    for q in (1, 2, 3, 30, 97, 300, 1000, 9973):
        _assert_class_weights_exact(ev.n, w, q)


def test_class_weights_without_events():
    ev = nv.norm_events(nv.parse_field("cyclo:11"), 10)
    assert len(ev) == 0
    slices = ev.slices
    assert slices == () and weight_slices(ev.weights()) == ()
    for q in (1, 5, 11):
        assert np.array_equal(class_weights(ev.n, slices, q), np.zeros(q))


def test_folded_tables_equal_direct_passes(field):
    Q = 300
    ev = nv.norm_events(field, 10**5)
    slices = ev.slices
    for q in range(1, Q + 1):
        tables = stats.slice_tables(ev.n, slices, q * (Q // q))
        assert np.array_equal(stats.fold(tables, q), class_weights(ev.n, slices, q)), q


def test_three_slices_fold_exactly_and_round_within_one_ulp():
    # weights near 2^40 and near 1e-5, with full significands, need a third slice
    rng = np.random.default_rng(7)
    n = rng.integers(0, 10**6, 3000)
    w = 1e-5 * (1 + rng.random(3000))
    w[::50] = 2.0**40 * (1 + rng.random(60))
    slices = weight_slices(w)
    assert len(slices) == 3
    assert np.array_equal(sum(slices[::-1]), w)
    table = nv.NormEventTable(n.astype(np.uint32), slices, (0.0, 0.0))
    assert np.array_equal(table.weights(), w)
    Q = 120
    for q in range(1, Q + 1):
        direct = class_weights(n, slices, q)
        folded = stats.fold(stats.slice_tables(n, slices, q * (Q // q)), q)
        assert np.array_equal(folded, direct)
        ref = _fsum_classes(n, w, q)
        assert np.all(np.abs(direct - ref) <= np.spacing(ref)), q


def test_buckets_unchanged_by_a_variance_run(field):
    x = 5000
    before = {q: nv.residue_buckets(field, x, q) for q in (1, 7, 12, 30)}
    copies = {q: t.copy() for q, t in before.items()}
    nv.variance(field, x, 40)
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


@lru_cache(maxsize=None)
def _reference_rows(label: str, x: int, Q: int):
    """Per-q rows and outside mass from per-class `math.fsum` and gcd masks, q = 1..Q."""
    field = nv.parse_field(label)
    ev = nv.norm_events(field, x)
    rows, outside = [], []
    for q in range(1, Q + 1):
        t = _fsum_classes(ev.n, ev.weights(), q)
        res = np.arange(q)
        coprime = np.gcd(res, q) == 1
        g = math.gcd(field.conductor, q)
        member = coprime & kernel_image(field, g)[res % g]
        count = int(np.count_nonzero(member))
        dev = t[member] - x / count
        rows.append(nv.PerQContribution(q, count, float(dev @ dev)))
        outside.append(float(t[coprime & ~member].sum()))
    return tuple(rows), math.fsum(outside)


ROW_LABELS = ("Q", "quad:-1", "quad:5", "cyclo:12")


# at x = 1e5 and Q = 1500 every target in (Q/2, Q] is its own pass; at
# x = 1e6 and Q = 100 passes merge (test_pass_plan_merges_where_events_allow)
@pytest.mark.parametrize(
    "label, x, Q",
    [pytest.param(label, 10**5, 1500, id=label) for label in ROW_LABELS]
    + [pytest.param(label, 10**6, 100, id=f"{label}-merged") for label in ROW_LABELS],
)
def test_variance_rows_are_bit_identical_to_reference_loop(label, x, Q):
    # every q on the direct passes: at (1e5, 1500) `variance` routes q > 316
    # to the correlation, which test_correlation_rows_match_direct_rows holds
    report = stats._variance(nv.parse_field(label), x, Q, 1, Q)
    rows, outside = _reference_rows(label, x, Q)
    assert report.per_q == rows
    assert report.outside_mass == outside


def _assert_routed_rows_match_direct(field, x, Q):
    """`variance` routes every q > isqrt(x); its rows match the all-direct report."""
    K = math.isqrt(x)
    ev = nv.norm_events(field, x)
    assert stats._direct_bound(x, Q, len(ev), len(ev.slices)) == K
    routed = nv.variance(field, x, Q)
    direct = stats._variance(field, x, Q, 1, Q)
    # the direct passes still serve q <= K, bit for bit
    assert routed.per_q[:K] == direct.per_q[:K]
    for r, d in zip(routed.per_q[K:], direct.per_q[K:]):
        assert (r.q, r.admissible) == (d.q, d.admissible)
        assert nv.rel_gap(r.contribution, d.contribution) <= 1e-9, r.q
    assert nv.rel_gap(routed.outside_mass, direct.outside_mass) <= 1e-9
    assert nv.rel_gap(routed.total, direct.total) <= 1e-9
    return routed, direct


@pytest.mark.parametrize("x, Q", [(10**4, 10**4), (10**5, 3000)])
@pytest.mark.parametrize("label", ROW_LABELS)
def test_correlation_rows_match_direct_rows(label, x, Q):
    _assert_routed_rows_match_direct(nv.parse_field(label), x, Q)


@pytest.mark.parametrize("label", ROW_LABELS)
def test_correlation_rows_match_direct_rows_across_small_chunks(label, monkeypatch):
    # chunks of 64 lags in bands of 3 and spans of 200: lag blocks straddle
    # chunks, bands and spans
    monkeypatch.setattr(stats, "_CHUNK", 64)
    monkeypatch.setattr(stats, "_BAND", 3)
    monkeypatch.setattr(stats, "_SPAN", 200)
    x = 10**4
    assert stats._chunking(x) == (64, 157)
    _assert_routed_rows_match_direct(nv.parse_field(label), x, 2000)


def test_correlation_route_measures_outside_mass(monkeypatch):
    # quad:-1 has no event n = 3 (mod 4); add two, 7 and 419, so that the
    # classes 7 and 419 mod q are units outside the image for 4 | q, and
    # share the class mod 412 = 419 - 7
    field = nv.parse_field("quad:-1")
    x = 10**4
    ev = nv.norm_events(field, x)
    n = np.concatenate([ev.n, np.array([7, 419], dtype=ev.n.dtype)])
    w = np.concatenate([ev.weights(), [1.25, 0.75]])
    order = np.argsort(n)
    n, w = n[order], w[order]
    table = nv.NormEventTable(n, weight_slices(w), (math.fsum(w), math.fsum(w * w)))
    monkeypatch.setattr(stats, "norm_events", lambda f, bound: table)
    routed, direct = _assert_routed_rows_match_direct(field, x, 1000)
    assert routed.outside_mass > 0.0
    ref = math.fsum(
        math.fsum(w[(n % q == a)].tolist())
        for q in range(4, 1001, 4)
        for a in {7 % q, 419 % q}
        if math.gcd(a, q) == 1
    )
    assert nv.rel_gap(routed.outside_mass, ref) <= 1e-12


def test_correlation_route_matches_naive_oracle_at_Q_equal_x(field):
    # the paper's range x (log x)^-M <= Q <= x, at its top: Q = x
    x = Q = 300
    report = nv.variance(field, x, Q)
    ev = nv.norm_events(field, x)
    assert stats._direct_bound(x, Q, len(ev), len(ev.slices)) == math.isqrt(x)
    ref_total, ref_outside = naive_variance(field.variant, field.parameter, x, Q)
    assert nv.rel_gap(report.total, ref_total) <= 1e-9
    assert report.outside_mass == 0.0 and ref_outside == 0.0


@pytest.mark.parametrize("x", [10**4, 10**4 + 200, 99 * 99 - 1])
def test_routing_starts_above_isqrt_x(x):
    field = nv.rational_field()
    ev = nv.norm_events(field, x)
    K = math.isqrt(x)
    # up to isqrt(x) every q is direct; above it the route takes over
    assert stats._direct_bound(x, K, len(ev), len(ev.slices)) == K
    assert stats._direct_bound(x, x, len(ev), len(ev.slices)) == K
    report = nv.variance(field, x, 3 * K)
    assert report.per_q[:K] == stats._variance(field, x, K, 1, K).per_q


def test_routing_keeps_direct_passes_where_the_correlation_costs_more():
    # Q, x = 1e7 (665,134 events) and x = 1e8 (5,762,859), Q just above
    # sqrt(x): the correlation's transforms grow with x^2, the few passes
    # it would replace with x / log x
    assert stats._direct_bound(10**7, 4000, 665_134, 2) == 4000
    assert stats._direct_bound(10**8, 10_001, 5_762_859, 2) == 10_001
    # below 2^15 passes merge (`_pass_count`); at x = 1e7 the whole variance
    # took 34.5 s direct and 48 s routed at Q = 12,000, 54 s and 51 s at
    # 16,000, 77 s and 48 s at 20,000
    assert stats._direct_bound(10**7, 12_000, 665_134, 2) == 12_000
    assert stats._direct_bound(10**7, 16_000, 665_134, 2) == 16_000
    assert stats._direct_bound(10**7, 20_000, 665_134, 2) == 3162
    # at x = 1e7 and Q = 1e5 the passes for q in (3162, 1e5] cost more
    assert stats._direct_bound(10**7, 10**5, 665_134, 2) == 3162


def test_divisors_between_lists_every_divisor_in_range():
    for D in (1, 2, 360, 412, 9973, 10**4):
        for K, Q in ((100, 10**4), (100, 200), (math.isqrt(D), D)):
            expected = [q for q in range(K + 1, Q + 1) if D % q == 0]
            assert sorted(stats._divisors_between(D, K, Q).tolist()) == expected


def _grouped_by_multiple(Q):
    """One pass per L in (Q/2, Q], holding every q with q * (Q // q) = L, ascending."""
    groups = {}
    for q in range(1, Q + 1):
        groups.setdefault(q * (Q // q), []).append(q)
    return sorted(groups.items())


def _greedy_by_scan(Q, budget):
    """The greedy plan of `stats._pass_plan`, scanning every uncovered target for each pass."""
    B, lo = max(Q, budget), Q // 2
    uncovered = list(range(Q, lo, -1))
    owner = {}
    while uncovered:
        L, *rest = uncovered
        uncovered = []
        members = [L]
        for c in rest:
            if math.lcm(L, c) <= B:
                L = math.lcm(L, c)
                members.append(c)
            else:
                uncovered.append(c)
        owner.update(dict.fromkeys(members, L))
    passes = {}
    for q in range(1, Q + 1):
        passes.setdefault(owner[q * (Q // q)], []).append(q)
    return sorted(passes.items())


@pytest.mark.parametrize("Q", [1, 2, 3, 10, 97, 100, 300, 1000, 1500])
def test_pass_plan_covers_every_modulus_once(Q):
    for budget in (0, 1, 50, 600, 2000, 5000, 41570):
        plan = stats._pass_plan(Q, budget)
        assert plan == _greedy_by_scan(Q, budget)
        assert stats._pass_count(Q, budget) == len(plan)
        assigned = sorted(q for _, moduli in plan for q in moduli)
        assert assigned == list(range(1, Q + 1))
        for L, moduli in plan:
            assert L <= max(Q, budget)
            assert all(L % q == 0 for q in moduli)
            # each q folds out of the pass holding its multiple q * (Q // q)
            assert all(q * (Q // q) in moduli for q in moduli)
        if budget <= Q:
            assert plan == _grouped_by_multiple(Q)
        else:
            assert len(plan) <= len(_grouped_by_multiple(Q))


def test_pass_budget_is_bounded_by_events_and_block():
    assert stats._pass_budget(39_392) == 39_392 // 16
    assert stats._pass_budget(16 * stats._BLOCK // 2) == stats._BLOCK // 2
    # past 2^19 events the per-block table work, not the event count, binds
    assert stats._pass_budget(665_134) == stats._BLOCK // 2
    assert stats._pass_budget(5_762_859) == stats._BLOCK // 2


def test_pass_plan_merges_where_events_allow():
    # Q, x = 1e7, Q = 1e3: 665,134 events, budget 32,768
    assert len(stats._pass_plan(1000, stats._pass_budget(665_134))) == 252
    # quad:-1, x = 1e6, Q = 1e4: 39,392 events, budget below Q
    assert len(stats._pass_plan(10_000, stats._pass_budget(39_392))) == 5000
    for label in ROW_LABELS:
        budget = stats._pass_budget(len(nv.norm_events(nv.parse_field(label), 10**6)))
        assert len(stats._pass_plan(100, budget)) < 50
        budget = stats._pass_budget(len(nv.norm_events(nv.parse_field(label), 10**5)))
        assert stats._pass_plan(1500, budget) == _grouped_by_multiple(1500)


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


@pytest.mark.parametrize("Q", [1, 2, 7, 64, 100, 1001])
@pytest.mark.parametrize("cutoff", [0.25, 0.6931, 1.0, 3.0, 4.7, 16.0, 47.7, 1e300])
def test_dyadic_blocks_sum_the_rows_of_their_range(Q, cutoff):
    # each block sums the rows lo < q <= hi, whatever the block edges
    rng = np.random.default_rng(Q)
    values = (rng.random(Q) * 10.0 ** rng.integers(-3, 8, Q)).tolist()
    per_q = tuple(stats.PerQContribution(q, 1, v) for q, v in zip(range(1, Q + 1), values))
    for b in stats._dyadic_blocks(per_q, Q, cutoff):
        inside = [r.contribution for r in per_q if b.u_lo < r.q <= b.u_hi]
        assert b.contribution == math.fsum(inside), (b.u_lo, b.u_hi)


def test_dyadic_small_q_cutoff_value():
    report = nv.variance(nv.rational_field(), 1000, 50, M=1)
    assert report.small_q_cutoff == pytest.approx(math.log(1000) ** 2, rel=1e-15)
    assert nv.small_q_cutoff(1000, 2) == pytest.approx(math.log(1000) ** 3, rel=1e-15)
    # cutoff above Q collapses the profile to a single block
    collapsed = nv.variance(nv.rational_field(), 1000, 20, M=1)
    assert len(collapsed.dyadic) == 1


def test_M_ceiling_keeps_every_power_of_log_x_finite():
    # the widest log x is at the sieve ceiling, the smallest at x = 2
    assert math.isfinite(nv.small_q_cutoff(nv.MAX_SIEVE_LIMIT, stats.MAX_M))
    assert math.isfinite(math.log(2) ** -stats.MAX_M)
    with pytest.raises(OverflowError):
        nv.small_q_cutoff(nv.MAX_SIEVE_LIMIT, stats.MAX_M + 1)
    report = nv.variance(nv.rational_field(), 2, 1, M=stats.MAX_M)
    assert report.small_q_cutoff == math.log(2) ** (stats.MAX_M + 1)


@pytest.mark.parametrize("M", [-1, stats.MAX_M + 1, 400])
def test_variance_rejects_M_outside_the_ceiling(M, monkeypatch):
    def never(*args):
        raise AssertionError("built events for an M that cannot be served")

    monkeypatch.setattr(stats, "norm_events", never)
    with pytest.raises(ValueError, match="M must satisfy"):
        nv.variance(nv.rational_field(), 1000, 10, M=M)


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


@pytest.mark.parametrize("label", ["Q", "cyclo:12"])
def test_large_sieve_lhs_equals_direct_loop(label):
    # the folded tables of merged passes (84 for Q, 104 for cyclo:12)
    # against one direct table per q
    field, x, Q = nv.parse_field(label), 10**6, 300
    terms = []
    for q in range(1, Q + 1):
        prim = [i for i, c in enumerate(nv.enumerate_characters(q)) if c.primitive]
        if prim:
            psi = (nv.character_matrix(q) @ nv.residue_buckets(field, x, q))[prim]
            square = math.fsum((psi.real * psi.real + psi.imag * psi.imag).tolist())
            terms.append(q / euler_phi(q) * square)
    assert nv.large_sieve_check(field, x, Q).lhs == math.fsum(terms)


def test_shared_schedule_serves_the_checks_from_the_variance_passes(field, monkeypatch):
    # the held moduli reach above the variance's Q
    x, Q, sieve = 4321, 40, 50
    ev = nv.norm_events(field, x)
    alone = nv.variance(field, x, Q)
    sieve_alone = [nv.large_sieve_check(field, x, s) for s in (sieve, 20)]
    direct = {q: class_weights(ev.n, ev.slices, q) for q in (1, 9, 30, 60)}
    with stats.shared_schedule(field, x, set(range(1, sieve + 1)) | {60}):
        assert nv.variance(field, x, Q) == alone
        passes = []
        slice_tables = stats.slice_tables
        monkeypatch.setattr(stats, "slice_tables", lambda *a: passes.append(a) or slice_tables(*a))
        assert [nv.large_sieve_check(field, x, s) for s in (sieve, 20)] == sieve_alone
        for q, t in direct.items():
            assert np.array_equal(nv.residue_buckets(field, x, q), t)
        assert passes == []
        # a bound above the schedule's makes passes of its own
        nv.large_sieve_check(field, x, sieve + 1)
        assert passes
    assert stats._schedule is None


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


def test_exchange_on_primitive_character_is_zero(field):
    # the general path: chi is its own primitive part, and no prime divides
    # q but not the conductor
    for chi in (nv.enumerate_characters(5)[1], nv.enumerate_characters(1)[0]):
        assert chi.primitive
        diff = nv.primitive_exchange_diff(field, 100, chi)
        assert diff.direct == 0j and diff.explicit == 0j and diff.gap == 0.0
        assert diff.bound_ok


def test_rel_gap_floor():
    assert nv.rel_gap(1e-13, 0.0) == pytest.approx(1e-13, rel=1e-9)
    assert nv.rel_gap(2.0, 1.0) == 0.5
