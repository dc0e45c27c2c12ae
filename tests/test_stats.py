import math
from functools import lru_cache

import numpy as np
import pytest

import normvar as nv
from normvar import correlation, sieve, stats
from normvar.arith import divisors, euler_phi
from normvar.characters import unit_mask
from normvar.fields import kernel_image
from normvar.sieve import weight_slices
from normvar.stats import class_weights
from conftest import ORACLE_LABELS
from naive_oracle import moebius, naive_variance

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


def _assert_pass_tables_are_bincounts(n, columns, modulus):
    """The complex pass tables equal one np.bincount per slice over all events, lane by lane, bit for bit."""
    slices = sieve.lanes(columns)
    r = np.asarray(n, dtype=np.int64) % modulus
    one = [np.bincount(r, weights=s, minlength=modulus) for s in slices]
    tables = stats.pass_tables(n, columns, modulus)
    assert tables.dtype == np.complex128 and tables.shape == (len(columns), modulus)
    table_lanes = [lane for row in tables for lane in (row.real, row.imag)]
    # an odd count of slices leaves the last imaginary lane without one: it sums to 0
    assert len(table_lanes) - len(one) == len(slices) % 2
    one += [np.zeros(modulus)] * (len(slices) % 2)
    assert all(np.array_equal(lane, ref) for lane, ref in zip(table_lanes, one))


def _assert_class_weights_exact(n, w, q):
    columns = weight_slices(w)
    slices = sieve.lanes(columns)
    assert len(slices) <= 2
    # the blocked tables equal one bincount per slice over all events
    _assert_pass_tables_are_bincounts(n, columns, q)
    assert np.array_equal(class_weights(n, columns, q), _fsum_classes(n, w, q))


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
    assert slices == () and ev.columns == () and weight_slices(ev.weights()) == ()
    for q in (1, 5, 11):
        assert np.array_equal(class_weights(ev.n, ev.columns, q), np.zeros(q))


def test_folded_tables_equal_direct_passes(field):
    Q = 300
    ev = nv.norm_events(field, 10**5)
    columns = ev.columns
    for q in range(1, Q + 1):
        tables = stats.pass_tables(ev.n, columns, q * (Q // q))
        assert np.array_equal(stats.fold(tables, q), class_weights(ev.n, columns, q)), q


def _three_slice_weights(rng, size):
    """Weights near 2^40 and near 1e-5, with full significands: they need a third slice."""
    w = 1e-5 * (1 + rng.random(size))
    w[::50] = 2.0**40 * (1 + rng.random(w[::50].size))
    return w


def test_three_slices_fold_exactly_and_round_within_one_ulp():
    rng = np.random.default_rng(7)
    n = rng.integers(0, 10**6, 3000)
    w = _three_slice_weights(rng, 3000)
    columns = weight_slices(w)
    slices = sieve.lanes(columns)
    assert len(slices) == 3
    # the third slice starts a second column, whose imaginary lane stays zero
    assert len(columns) == 2 and not columns[1].imag.any()
    assert np.array_equal(sum(slices[::-1]), w)
    table = nv.NormEventTable(n.astype(np.uint32), columns, (0.0, 0.0))
    assert len(table.slices) == 3
    assert np.array_equal(table.weights(), w)
    Q = 120
    for q in range(1, Q + 1):
        direct = class_weights(n, columns, q)
        folded = stats.fold(stats.pass_tables(n, columns, q * (Q // q)), q)
        assert np.array_equal(folded, direct)
        ref = _fsum_classes(n, w, q)
        assert np.all(np.abs(direct - ref) <= np.spacing(ref)), q


def _slice_cases():
    """(label, w) with 0, 1, 2 and 3 slices."""
    rng = np.random.default_rng(11)
    logs = np.log(rng.integers(2, 10**6, 2000).astype(np.float64))
    return [
        ("none", np.zeros(0)),
        ("zeros", np.zeros(500)),
        ("one", rng.integers(1, 50, 2000).astype(np.float64)),
        ("two", logs),
        ("two-signed", logs * np.where(rng.random(2000) < 0.5, -1.0, 1.0)),
        ("three", _three_slice_weights(rng, 2000)),
    ]


@pytest.mark.parametrize(
    "label, slices", [("none", 0), ("zeros", 0), ("one", 1), ("two", 2), ("two-signed", 2), ("three", 3)]
)
def test_pass_tables_equal_one_bincount_per_slice(label, slices, monkeypatch):
    # blocks of 300 events, so every table spans several blocks
    monkeypatch.setattr(stats, "_BLOCK", 300)
    w = dict(_slice_cases())[label]
    n = np.random.default_rng(5).integers(0, 10**6, w.size).astype(np.uint32)
    columns = weight_slices(w)
    assert len(sieve.lanes(columns)) == slices
    assert len(columns) == (slices + 1) // 2
    for modulus in (1, 2, 7, 60, 997, 4096):
        _assert_pass_tables_are_bincounts(n, columns, modulus)


def _naive_peel(w):
    """The slices of w, peeled one whole array at a time as `weight_slices` documents them."""
    count = len(w)
    bound = count * max((abs(v) for v in w.tolist()), default=0.0)
    residual, slices = w.copy(), []
    while residual.any():
        u = 2.0 ** (math.frexp(bound)[1] - 52)
        piece = np.round(residual / u) * u
        residual = residual - piece
        slices.append(piece)
        bound = count * u / 2
    return slices


@pytest.mark.parametrize("label", [label for label, _ in _slice_cases()])
def test_weight_slices_equal_a_naive_peel(label, monkeypatch):
    # peeled 128 entries at a time into an imaginary lane, so the blocks show
    monkeypatch.setattr(sieve, "_SQUARE_BLOCK", 128)
    w = dict(_slice_cases())[label]
    before = w.copy()
    naive = _naive_peel(w)
    slices = sieve.lanes(weight_slices(w))
    assert np.array_equal(w, before)
    assert len(slices) == len(naive)
    assert all(np.array_equal(mine, theirs) for mine, theirs in zip(slices, naive))


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
    assert report.per_q.dtype == np.float64 and report.admissible.dtype == np.int64
    assert report.per_q.shape == report.admissible.shape == (30,)
    assert not report.per_q.flags.writeable and not report.admissible.flags.writeable
    assert (report.per_q >= 0.0).all()
    orders = [nv.norm_class_group(field, q).order for q in range(1, 31)]
    assert report.admissible.tolist() == orders
    assert report.total == math.fsum(report.per_q.tolist())


def test_variance_validates_inputs(field):
    with pytest.raises(ValueError):
        nv.variance(field, 30, 50)
    with pytest.raises(ValueError):
        nv.variance(field, 100, 0)
    with pytest.raises(ValueError):
        nv.variance(field, 1, 1)


@lru_cache(maxsize=None)
def _reference_rows(label: str, x: int, Q: int):
    """Admissible counts, contributions and outside mass from per-class `math.fsum` and gcd masks, q = 1..Q."""
    field = nv.parse_field(label)
    ev = nv.norm_events(field, x)
    counts, contributions, outside = [], [], []
    for q in range(1, Q + 1):
        t = _fsum_classes(ev.n, ev.weights(), q)
        res = np.arange(q)
        coprime = np.gcd(res, q) == 1
        g = math.gcd(field.conductor, q)
        member = coprime & kernel_image(field, g)[res % g]
        count = int(np.count_nonzero(member))
        dev = t[member] - x / count
        counts.append(count)
        contributions.append(float(dev @ dev))
        outside.append(float(t[coprime & ~member].sum()))
    return np.array(counts), np.array(contributions), math.fsum(outside)


ROW_LABELS = ("Q", "quad:-1", "quad:5", "cyclo:12")


# at x = 1e5 and Q = 1500 every target in (Q/2, Q] is its own pass; at
# x = 1e6 and Q = 100 passes merge (test_pass_plan_merges_where_events_allow)
@pytest.mark.parametrize(
    "label, x, Q",
    [pytest.param(label, 10**5, 1500, id=label) for label in ROW_LABELS]
    + [pytest.param(label, 10**6, 100, id=f"{label}-merged") for label in ROW_LABELS],
)
def test_variance_rows_are_bit_identical_to_reference_loop(label, x, Q):
    # every q on the direct passes: at (1e5, 1500) `variance` routes q > 158
    # to the correlation, which test_correlation_rows_match_direct_rows holds
    report = stats._variance(nv.parse_field(label), x, Q, 1, Q)
    counts, contributions, outside = _reference_rows(label, x, Q)
    assert np.array_equal(report.admissible, counts)
    assert np.array_equal(report.per_q, contributions)
    assert report.outside_mass == outside


def _direct_bound(field, x, Q):
    """`correlation._direct_bound` for the events of field up to x, as `variance` asks it."""
    return correlation._direct_bound(field, nv.norm_events(field, x), x, Q)


def _assert_routed_rows_match_direct(field, x, Q):
    """`variance` routes every q > K = route_floor(x); its rows match the all-direct report."""
    K = stats.route_floor(x)
    assert K < math.isqrt(x)
    assert _direct_bound(field, x, Q) == K
    routed = nv.variance(field, x, Q)
    direct = stats._variance(field, x, Q, 1, Q)
    # the direct passes still serve q <= K, bit for bit
    assert np.array_equal(routed.per_q[:K], direct.per_q[:K])
    assert np.array_equal(routed.admissible, direct.admissible)
    for q, r, d in zip(range(K + 1, Q + 1), routed.per_q[K:].tolist(), direct.per_q[K:].tolist()):
        assert nv.rel_gap(r, d) <= 1e-9, q
    assert nv.rel_gap(routed.outside_mass, direct.outside_mass) <= 1e-9
    assert nv.rel_gap(routed.total, direct.total) <= 1e-9
    _assert_agreement_is_the_worst_covered_gap(routed, direct, K)
    return routed, direct


def _assert_agreement_is_the_worst_covered_gap(routed, direct, K):
    """The routed report's route-agreement names the argmax of its covered q's gaps to the direct rows."""
    agreement = routed.route_agreement
    assert direct.route_agreement is None
    moduli = agreement.moduli
    assert moduli[0] == K + 1 and moduli[-1] == routed.Q and list(moduli) == sorted(set(moduli))
    gaps = [nv.rel_gap(routed.per_q[q - 1], direct.per_q[q - 1]) for q in moduli]
    # the direct rows come from exact class sums, as the check's own passes do
    assert agreement.gap == max(gaps) <= 1e-9
    assert agreement.q == moduli[gaps.index(max(gaps))]


@pytest.mark.parametrize("x, Q", [(10**4, 10**4), (10**5, 3000)])
@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_correlation_rows_match_direct_rows(label, x, Q):
    _assert_routed_rows_match_direct(nv.parse_field(label), x, Q)


@pytest.mark.parametrize("label", ROW_LABELS + ("quad:-5", "cyclo:7"))
def test_correlation_rows_match_direct_rows_across_small_chunks(label, monkeypatch):
    # chunks of 64 entries of each class's weights in bands of 3, spans
    # of 200 entries and sparse spans of 300 lags: blocks straddle chunks,
    # bands and spans.  quad:-5 has
    # four dense classes mod 20; cyclo:7 has M = 14, so a block of 64
    # entries covers 896 lags.  Q = 3000: at Q = 2000 one complex scatter
    # per pass makes the direct passes cheaper than field Q's route at
    # these small chunks, and the route must be taken to be tested
    monkeypatch.setattr(correlation, "_CHUNK", 64)
    monkeypatch.setattr(correlation, "_BAND", 3)
    monkeypatch.setattr(correlation, "_SPAN", 200)
    monkeypatch.setattr(correlation, "_SPARSE_SPAN", 300)
    field, x = nv.parse_field(label), 10**4
    M = correlation._class_split(field, nv.norm_events(field, x))[0]
    L, chunks = correlation._chunking(x // M)
    assert L == 64 and chunks >= 4
    _assert_routed_rows_match_direct(field, x, 3000)


def _with_strays(x):
    """quad:-1's events up to x and two more, 7 and 419, where quad:-1 has no event n = 3 (mod 4)."""
    ev = nv.norm_events(nv.parse_field("quad:-1"), x)
    n = np.concatenate([ev.n, np.array([7, 419], dtype=ev.n.dtype)])
    w = np.concatenate([ev.weights(), [1.25, 0.75]])
    order = np.argsort(n)
    n, w = n[order], w[order]
    return nv.NormEventTable(n, weight_slices(w), (math.fsum(w), math.fsum(w * w)))


def test_correlation_route_measures_outside_mass(monkeypatch):
    # the classes 7 and 419 mod q are units outside the image for 4 | q,
    # and share the class mod 412 = 419 - 7
    field = nv.parse_field("quad:-1")
    x = 10**4
    table = _with_strays(x)
    n, w = table.n, table.weights()
    for module in (stats, correlation):
        monkeypatch.setattr(module, "norm_events", lambda f, bound: table)
    routed, direct = _assert_routed_rows_match_direct(field, x, 1000)
    assert routed.outside_mass > 0.0
    ref = math.fsum(
        math.fsum(w[(n % q == a)].tolist())
        for q in range(4, 1001, 4)
        for a in {7 % q, 419 % q}
        if math.gcd(a, q) == 1
    )
    assert nv.rel_gap(routed.outside_mass, ref) <= 1e-12


def _naive_lag_sums(n, w, K, Q):
    """sum over the pairs n < n' with q | n' - n of w_n * w_n', for K < q <= Q, by `math.fsum` per q."""
    by_lag = {}
    for a in range(len(n)):
        for b in range(a + 1, len(n)):
            by_lag.setdefault(n[b] - n[a], []).append(w[a] * w[b])
    terms = [[] for _ in range(Q - K)]
    for h, products in by_lag.items():
        for q in range(K + 1, min(h, Q) + 1):
            if h % q == 0:
                terms[q - K - 1].extend(products)
    return [math.fsum(t) for t in terms]


LAG_LABELS = ("Q", "quad:-1", "quad:5", "quad:-5", "cyclo:12", "strays")


def _lag_table(label, x):
    """(field, events) of a `LAG_LABELS` entry up to x."""
    field = nv.parse_field("quad:-1" if label == "strays" else label)
    return field, (_with_strays(x) if label == "strays" else nv.norm_events(field, x))


@pytest.mark.parametrize(
    "label, floor",
    [pytest.param(label, False, id=label) for label in LAG_LABELS]
    + [pytest.param(label, True, id=f"{label}-floor") for label in LAG_LABELS],
)
def test_lag_sums_match_the_naive_pair_sums(label, floor):
    # Q has one dense class mod 2, quad:-1 one mod 4, quad:5 two mod 10,
    # quad:-5 four mod 20 and cyclo:12 one mod 12; "strays" is quad:-1
    # with the events 7 and 419 of test_correlation_route_measures_outside_mass.
    # K is isqrt(x) = 54, or the route's floor 27 below it
    x = 3000
    field, ev = _lag_table(label, x)
    K, Q = (stats.route_floor(x) if floor else math.isqrt(x)), x
    assert K < math.isqrt(x) if floor else K == 54
    S = correlation._lag_sums(field, ev, x, K, Q)
    ref = _naive_lag_sums(ev.n.astype(np.int64).tolist(), ev.weights().tolist(), K, Q)
    # the transforms round at the scale of R(0), the sum of the squares
    R0 = ev.moments[1]
    for q, (s, r) in enumerate(zip(S.tolist(), ref), start=K + 1):
        assert nv.rel_gap(s, r, R0) <= 1e-12, q
    # a third of the q or more meet a pair, so the gaps test real sums
    assert sum(r > 0 for r in ref) > (Q - K) // 3


def _bincount_sparse_lags(ev, x, M, dense, rows, h0, H):
    """The earlier `correlation._sparse_lags`: every pair's lag and product concatenated, then one `bincount`."""
    n = ev.n
    e = n[rows].astype(np.int64)
    w_e = ev.weights(rows).tolist()
    first = max(h0, 1)
    dtype = n.dtype

    def find(needles):
        return np.searchsorted(n, np.clip(needles, 0, x + 1).astype(dtype)).tolist()

    above_lo, above_hi = find(e + first), find(e + h0 + H)
    below_lo, below_hi = find(e - h0 - H + 1), find(e - first + 1)
    lags, weights = [], []
    for i, (e_i, w_i) in enumerate(zip(e.tolist(), w_e)):
        if above_lo[i] < above_hi[i]:
            seg = slice(above_lo[i], above_hi[i])
            lags.append(n[seg] - dtype.type(e_i + h0))
            weights.append(w_i * ev.weights(seg))
        if below_lo[i] < below_hi[i]:
            seg = slice(below_lo[i], below_hi[i])
            partner = n[seg]
            keep = dense[partner % dtype.type(M)]
            lags.append(dtype.type(e_i - h0) - partner[keep])
            weights.append(w_i * ev.weights(seg)[keep])
    out = np.zeros(H)
    if lags:
        out += np.bincount(np.concatenate(lags), weights=np.concatenate(weights), minlength=H)
    return out


@pytest.mark.parametrize("label", LAG_LABELS + ("cyclo:7",))
def test_sparse_lags_equal_one_bincount_of_the_pairs(label):
    # the in-place adds keep the order of the one bincount over all pairs,
    # so every lag's sum keeps its bits, whatever the span; cyclo:7 has
    # the ramified 7 and its powers among the sparse events
    x = 20_000
    field, ev = _lag_table(label, x)
    M, dense, sparse = correlation._class_split(field, ev)
    assert sparse.size > 0
    for H in (97, 1 << 12, 1 << 15):
        out = np.empty(H)
        for h0 in range(0, x, H):
            expected = _bincount_sparse_lags(ev, x, M, dense, sparse, h0, H)
            assert np.array_equal(correlation._sparse_lags(ev, x, M, dense, sparse, h0, out), expected), (H, h0)


def test_correlation_route_matches_naive_oracle_at_Q_equal_x(oracle_field):
    # the paper's range x (log x)^-M <= Q <= x, at its top: Q = x
    field = oracle_field
    x = Q = 300
    report = nv.variance(field, x, Q)
    assert _direct_bound(field, x, Q) == stats.route_floor(x)
    ref_total, ref_outside = naive_variance(field.variant, field.parameter, x, Q)
    assert nv.rel_gap(report.total, ref_total) <= 1e-9
    assert report.outside_mass == 0.0 and ref_outside == 0.0


def test_route_floor_is_half_the_root_where_measured():
    assert stats.route_floor(10**6) == 500
    # deepx, `--field Q --x 1e7 --Q 1000`, stays at or below the floor:
    # every q on the direct passes, with no class split and no route compiled
    assert stats.route_floor(stats.ROUTE_FLOOR_MEASURED_X) == 1581
    # above the x at which every routed row was measured, the floor stays at the root
    assert stats.route_floor(stats.ROUTE_FLOOR_MEASURED_X + 1) == 3162
    assert stats.route_floor(10**8) == 10**4
    # at least 1 where half the root rounds to 0
    assert stats.route_floor(2) == stats.route_floor(3) == stats.route_floor(4) == 1


@pytest.mark.parametrize("K, Q", [(500, 10**4), (500, 560), (100, 110), (1, 7), (1581, 1582)])
def test_agreement_moduli_take_the_fewest_classes_above_the_floor(K, Q):
    # the 12 q in (K, 1.2 K] with the fewest classes, the smaller q first
    # on a tie, beside K + 1, Q and three geometrically spaced q
    counts = np.array([euler_phi(q) // (1 + (q % 4 == 0)) for q in range(1, Q + 1)])
    moduli = correlation._agreement_moduli(K, Q, counts)
    window = range(K + 1, min(Q, math.floor(1.2 * K)) + 1)
    fewest = sorted(window, key=lambda q: (counts[q - 1], q))[:12]
    ratio = Q / (K + 1)
    spaced = {round((K + 1) * ratio ** (i / 4)) for i in (1, 2, 3)}
    assert moduli == tuple(sorted({K + 1, Q, *spaced, *fewest}))
    assert len(moduli) <= 17 and all(K < q <= Q for q in moduli)
    if K == 500:
        # wideq's worst routed row, quad:-1 at x = 1e6 (72 classes at q = 504)
        assert 504 in moduli


@pytest.mark.parametrize("x", [10**4, 10**4 + 200, 99 * 99 - 1])
def test_routing_starts_above_the_floor(x):
    field = nv.rational_field()
    K = stats.route_floor(x)
    assert K == math.isqrt(x) // 2
    # up to the floor every q is direct; above it the route takes over
    assert _direct_bound(field, x, K) == K
    assert _direct_bound(field, x, x) == K
    report = nv.variance(field, x, 3 * K)
    below = stats._variance(field, x, K, 1, K)
    assert np.array_equal(report.per_q[:K], below.per_q)
    assert np.array_equal(report.admissible[:K], below.admissible)
    assert below.route_agreement is None


class _Events:
    """A stand-in event table of `events` norms in one weight column: the first `sparse` the powers 2^1, 2^2, ..., the rest 1."""

    def __init__(self, events, sparse):
        self.n = np.ones(events, dtype=np.uint32)
        self.n[:sparse] = 2 ** np.arange(1, sparse + 1)
        self.columns = (None,)

    def __len__(self):
        return self.n.size


def test_routing_keeps_direct_passes_where_the_correlation_costs_more():
    # Q, x = 1e7 (665,134 events, 23 of them powers of 2) and x = 1e8
    # (5,762,859 events, 26 powers of 2), in one complex weight column
    # each: the correlation's transforms grow with x^2, the few passes it
    # would replace with x / log x.  The other events are odd, as 1 is:
    # one dense class mod M = 2
    field, events_7, events_8 = nv.rational_field(), _Events(665_134, 23), _Events(5_762_859, 26)
    M, dense, sparse = correlation._class_split(field, events_7)
    assert (M, np.count_nonzero(dense), sparse.size) == (2, 1, 23)
    assert len(nv.norm_events(field, 10**5).columns) == 1
    assert correlation._direct_bound(field, events_7, 10**7, 4000) == 4000
    assert correlation._direct_bound(field, events_8, 10**8, 10_001) == 10_001
    # at x = 1e7, above the floor 1581, the direct passes took 6.1 s of
    # CPU and the route 7.6 s at Q = 8000, 9.0 s and 7.2 s at 10,000,
    # 26.7 s and 7.9 s at 20,000
    assert correlation._direct_bound(field, events_7, 10**7, 8000) == 8000
    assert correlation._direct_bound(field, events_7, 10**7, 10_000) == 1581
    assert correlation._direct_bound(field, events_7, 10**7, 20_000) == 1581
    # at x = 1e7 and Q = 1e5 the passes for q in (1581, 1e5] cost more
    assert correlation._direct_bound(field, events_7, 10**7, 10**5) == 1581
    # quad:-1 (one dense class mod 4, 332,701 events) routes from a lower
    # Q than Q itself: its route covers x / 4 instead of x / 2; the direct
    # passes took 1.7 s and the route 2.3 s at Q = 5000, 4.1 s and 2.5 s at 8000
    gauss, events = nv.parse_field("quad:-1"), _Events(332_701, 23)
    M, dense, sparse = correlation._class_split(gauss, events)
    assert (M, np.count_nonzero(dense), sparse.size) == (4, 1, 23)
    assert correlation._direct_bound(gauss, events, 10**7, 5000) == 5000
    assert correlation._direct_bound(gauss, events, 10**7, 8000) == 1581


def test_divisors_between_lists_every_divisor_in_range():
    for D in (1, 2, 360, 412, 9973, 10**4):
        for K, Q in ((100, 10**4), (100, 200), (math.isqrt(D), D), (2, D)):
            expected = [q for q in range(K + 1, Q + 1) if D % q == 0]
            assert sorted(correlation._divisors_between(D, K, Q).tolist()) == expected


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
    per_q = rng.random(Q) * 10.0 ** rng.integers(-3, 8, Q)
    for b in stats._dyadic_blocks(per_q, cutoff):
        inside = [v for q, v in enumerate(per_q.tolist(), 1) if b.u_lo < q <= b.u_hi]
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
    terms = [
        q / euler_phi(q) * stats._primitive_square(q, nv.residue_buckets(field, x, q))
        for q in range(1, Q + 1)
        if q % 4 != 2
    ]
    assert nv.large_sieve_check(field, x, Q).lhs == math.fsum(terms)


@pytest.mark.parametrize("label", ["Q", "quad:-1", "quad:5", "cyclo:5", "cyclo:12"])
def test_primitive_square_matches_the_character_route(label):
    # the divisor sum against |sum chi(a) t[a]|^2 over the primitive rows of
    # the character matrix, whose products round (worst seen 2.3e-13)
    field, x = nv.parse_field(label), 10**6
    for q in range(1, 301):
        t = nv.residue_buckets(field, x, q)
        square = stats._primitive_square(q, t)
        prim = [i for i, c in enumerate(nv.enumerate_characters(q)) if c.primitive]
        if q % 4 == 2:
            assert prim == [] and square == 0.0, q
            continue
        psi = (nv.character_matrix(q) @ t)[prim]
        direct = math.fsum((psi.real * psi.real + psi.imag * psi.imag).tolist())
        assert square == pytest.approx(direct, rel=1e-12), q
    s1 = nv.event_moment_sums(field, x)[0]
    assert stats._primitive_square(1, nv.residue_buckets(field, x, 1)) == s1 * s1


def _primitive_square_by_slices(q, t):
    # the formula the reshape fold replaced: a generator sum per residue of
    # every divisor, kept as the reference for the exact integer total
    units = np.where(unit_mask(q), t, 0.0)
    s = 53 - int(np.frexp(units)[1].min())
    n = [int(v) for v in np.ldexp(units, s).tolist()]
    total = 0
    for d in divisors(q):
        mu = moebius(q // d)
        if mu:
            total += mu * euler_phi(d) * sum(u * u for u in (sum(n[c::d]) for c in range(d)))
    return total / (1 << 2 * s)


@pytest.mark.parametrize("label", ["Q", "quad:-1", "cyclo:12"])
def test_primitive_square_keeps_the_bits_of_the_slice_sums(label):
    field = nv.parse_field(label)
    moduli = []
    ev = nv.norm_events(field, 10**5)
    for q, t in stats._folded(ev, stats._pass_plan(300, stats._pass_budget(len(ev)))):
        if q % 4 != 2:
            assert stats._primitive_square(q, t) == _primitive_square_by_slices(q, t), q
            moduli.append(q)
    assert sorted(moduli) == [q for q in range(1, 301) if q % 4 != 2]  # q = 1 among them
    for q in (1, 12, 300):
        zero = np.zeros(q)
        assert stats._primitive_square(q, zero) == _primitive_square_by_slices(q, zero) == 0.0


def test_event_table_serves_the_checks_from_the_variance_passes(field, monkeypatch):
    # Q = 120 lies above the route's floor 70, but the route costs more
    # than the passes there, so the variance loop passes every held modulus
    x, Q = 20_000, stats._HELD_BOUND
    sieve._event_table.cache_clear()
    sieve_alone = [nv.large_sieve_check(field, x, s) for s in (Q, 20)]
    sieve._event_table.cache_clear()
    ev = nv.norm_events(field, x)
    assert ev.held == {}
    report = nv.variance(field, x, Q)
    assert report.route_agreement is None
    assert sorted(ev.held) == list(range(1, stats._HELD_BOUND + 1))
    for q, t in ev.held.items():
        assert not t.flags.writeable
        assert np.array_equal(t, class_weights(ev.n, ev.columns, q)), q
    passes = []
    pass_tables = stats.pass_tables
    monkeypatch.setattr(stats, "pass_tables", lambda *a: passes.append(a) or pass_tables(*a))
    again = nv.variance(field, x, Q)
    assert np.array_equal(again.per_q, report.per_q)
    assert np.array_equal(again.admissible, report.admissible)
    assert (again.total, again.outside_mass, again.dyadic) == (report.total, report.outside_mass, report.dyadic)
    assert [nv.large_sieve_check(field, x, s) for s in (Q, 20)] == sieve_alone
    for q in (1, 9, 30, 60, 120):
        assert nv.residue_buckets(field, x, q) is ev.held[q]
        assert nv.orthogonality_check(field, x, q).gap <= nv.REL_TOL
    for chi in nv.enumerate_characters(12):
        assert nv.character_sum(field, x, chi) == complex(np.dot(chi.value_table(), ev.held[12]))
    assert passes == []
    # a bound above the held moduli makes the passes that fold one of its
    # own, and no pass whose moduli are all held
    nv.large_sieve_check(field, x, Q + 1)
    plan = stats._pass_plan(Q + 1, stats._pass_budget(len(ev)))
    made = [L for L, moduli in plan if max(moduli) > stats._HELD_BOUND]
    assert 0 < len(made) < len(plan)
    assert [modulus for _, _, modulus in passes] == made


def test_a_new_event_table_holds_nothing(field, monkeypatch):
    # the held t_q live on the table, not under (field, x): a table with two
    # more events for the same (field, x) is served its own class weights.
    # No prime power is 6 or 10 (mod 12), so only the added events are there
    x, q = 1000, 12
    ev = nv.norm_events(field, x)
    cached = nv.residue_buckets(field, x, q)
    assert ev.held[q] is cached
    assert sieve._event_table.__wrapped__(field, x).held == {}
    n = np.concatenate([ev.n, np.array([6, 10], dtype=ev.n.dtype)])
    w = np.concatenate([ev.weights(), [1.25, 0.75]])
    order = np.argsort(n)
    table = nv.NormEventTable(n[order], weight_slices(w[order]), (math.fsum(w), math.fsum(w * w)))
    assert table.held == {}
    monkeypatch.setattr(stats, "norm_events", lambda f, bound: table)
    t = nv.residue_buckets(field, x, q)
    assert table.held[q] is t
    assert np.array_equal(t, class_weights(table.n, table.columns, q))
    assert cached[6] == cached[10] == 0.0
    assert t[6] == 1.25 and t[10] == 0.75


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
