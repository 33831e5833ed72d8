import random
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from char2paley import (
    INF, CirculantLabeling, OutOfScopeError, PaleyLikeGraph, alpha_of, apply,
    circulant_labeling, circulant_spectrum, codegree_formula, jumbledness_certificate,
    kloosterman_sweep, kloosterman_value_set, param_a, unpaired_distance, vertex_index,
    verify_circulant, weil_bound_holds,
)
from char2paley.analyze import _cyclic_self_convolution
from oracles import (
    all_points, codegree_direct, int_self_convolution, jumbledness_audit, kloosterman,
    kloosterman_sum, pair_codegree_formula, rotate, spectrum_counts,
)


def test_codegree_direct_c5(std):
    ctx, a, g, lab = std(2)
    # C5: adjacent pairs share no neighbour, non-adjacent pairs share one
    assert codegree_direct(g, INF, 0).ell == 0   # edge
    assert codegree_direct(g, INF, 0).epsilon == 1
    assert codegree_direct(g, 0, 1).ell == 1     # non-edge
    assert codegree_direct(g, 0, 1).epsilon == 0
    for x in all_points(ctx):
        for y in all_points(ctx):
            if x == y:
                continue
            assert codegree_direct(g, x, y).ell == codegree_direct(g, y, x).ell
    with pytest.raises(ValueError):
        codegree_direct(g, 1, 1)


def test_kloosterman_k2_frozen(field):
    # hand sums over GF(4): K(w) = -1, K(1) = +3
    ctx = field(2)
    assert kloosterman(ctx, 2).value == -1
    assert kloosterman(ctx, 1).value == 3
    with pytest.raises(ValueError):
        kloosterman(ctx, 0)


def test_kloosterman_definition_oracle(field):
    # independent route: evaluate psi(z + b/z) term by term via ctx.div
    ctx = field(4)
    for b in range(1, ctx.q):
        want = sum((-1) ** ctx.trace(z ^ ctx.div(b, z)) for z in range(1, ctx.q))
        assert kloosterman(ctx, b).value == want


@pytest.mark.parametrize("k", range(2, 11))
def test_sweep_matches_per_b_sums(field, k):
    # the convolution sweep against the definitional O(q) sum at every b
    ctx = field(k)
    sweep = kloosterman_sweep(ctx)
    assert len(sweep) == ctx.q
    for b in range(1, ctx.q):
        assert sweep[b] == kloosterman_sum(ctx, b), f"b = {b:#x}"


@pytest.mark.parametrize("k", range(2, 17))
def test_sweep_value_set_lachaud_wolfmann(field, k):
    # Lachaud-Wolfmann: K takes exactly the values v = 3 mod 4 with v^2 <= 4q
    ctx = field(k)
    sweep = kloosterman_sweep(ctx)
    r = isqrt(4 * ctx.q)
    assert set(sweep[1:]) == {v for v in range(-r, r + 1) if v % 4 == 3}
    assert kloosterman_value_set(ctx, sweep) == (True, None, None)


def test_value_set_check_witnesses(field):
    ctx = field(6)
    values = kloosterman_sweep(ctx)
    assert kloosterman_value_set(ctx, values) == (True, None, None)
    stray = list(values)
    stray[5] = 1  # 1 = 1 mod 4 is no Kloosterman value
    ok, b, _ = kloosterman_value_set(ctx, stray)
    assert not ok and b == 5
    top = max(values[1:])
    short = [v - 4 if v == top else v for v in values]  # every b still in the set
    assert kloosterman_value_set(ctx, short) == (False, None, top)


@pytest.mark.parametrize("k", range(2, 11))
def test_weil_bound(field, k):
    ctx = field(k)
    ok, b, worst = weil_bound_holds(ctx, kloosterman_sweep(ctx))
    assert ok, f"|K({b:#x})| = {worst} exceeds 2*sqrt({ctx.q})"


def test_weil_bound_tampered_sweep_witness(field):
    # the witness is the first b of largest |K|, whichever its sign
    ctx = field(6)
    values = kloosterman_sweep(ctx)
    mags = [abs(v) for v in values]
    ok, b, worst = weil_bound_holds(ctx, values)
    assert ok and worst == max(mags[1:]) and b == mags.index(worst, 1)
    bad = list(values)
    bad[9], bad[4] = -17, 17  # 17^2 > 4 * 64
    assert weil_bound_holds(ctx, bad) == (False, 4, 17)
    bad[3] = -17
    assert weil_bound_holds(ctx, bad) == (False, 3, 17)
    bad[ctx.q - 1] = 19
    assert weil_bound_holds(ctx, bad) == (False, ctx.q - 1, 19)
    low = list(values)
    low[7] = -21  # the largest magnitude on the negative side alone
    assert weil_bound_holds(ctx, low) == (False, 7, 21)


def test_codegree_formula_k2(std):
    ctx, a, g, lab = std(2)
    formula = pair_codegree_formula(ctx, a, lab, kloosterman_sweep(ctx))
    # adjacent pair: 1 - 1 + (-1+1)/4 = 0; non-adjacent: 1 - 0 + 0 = 1
    assert formula(INF, 0) == 0
    assert formula(0, 1) == 1


@pytest.mark.parametrize("k", [2, 4, 6])
def test_codegree_formula_matches_direct(std, k):
    ctx, a, g, lab = std(k)
    formula = pair_codegree_formula(ctx, a, lab, kloosterman_sweep(ctx))
    pts = all_points(ctx)
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            assert formula(x, y) == codegree_direct(g, x, y).ell


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_character_sum_identity(std, k):
    # q - 1 - 4(q/2 - eps - ell) = K(x^2 + x + a) for every finite x against INF
    ctx, a, g, lab = std(k)
    kl = kloosterman_sweep(ctx)
    q = ctx.q
    for x in range(q):
        pair = codegree_direct(g, x, INF)
        b = ctx.sqr(x) ^ x ^ a.value
        assert q - 1 - 4 * (q // 2 - pair.epsilon - pair.ell) == kl[b]


@pytest.mark.parametrize("k", [2, 4, 6])
def test_codegree_rotation_invariance(std, k):
    ctx, a, g, lab = std(k)
    al = alpha_of(ctx, a.value)
    pts = all_points(ctx)
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            assert (codegree_direct(g, x, y).ell
                    == codegree_direct(g, apply(ctx, al, x), apply(ctx, al, y)).ell)


def test_spectrum_c5(std):
    _, _, g, lab = std(2)
    spec = circulant_spectrum(lab.n, lab.conn)
    assert spec.counts == spectrum_counts(g.rows, g.n) == {(0, 1): 5, (1, 0): 5}
    assert spec.max_ell == 1


def _assert_matches_pairwise(spec, rows, index):
    """spec against every pair of rows counted one at a time; index maps
    circulant positions to rows, and the top pair (v_0, v_max_shift) reaches max_ell."""
    pairwise = spectrum_counts(rows, len(rows))
    ideal = (len(rows) - 1) // 4
    assert spec.counts == pairwise
    assert spec.max_ell == max(ell for _, ell in pairwise)
    assert spec.max_conference_deviation == max(abs(ell - (ideal - eps)) for eps, ell in pairwise)
    i, j = index[0], index[spec.max_shift]
    assert (rows[i] & rows[j]).bit_count() == spec.max_ell


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
def test_circulant_spectrum_matches_pairwise(std, k):
    _, _, g, lab = std(k)
    assert verify_circulant(g, lab)
    _assert_matches_pairwise(circulant_spectrum(lab.n, lab.conn), g.rows, lab.index)


@pytest.mark.parametrize("k", range(2, 9))
def test_circulant_spectrum_matches_pairwise_on_random_symmetric_sets(k):
    # not only the Paley sets: a random union of classes {d, n - d}, any size,
    # and the rows built as that circulant in circulant order
    rng = random.Random(1000 + k)
    n = (1 << k) + 1
    for _ in range(3):
        conn = frozenset(e for d in range(1, n // 2 + 1) if rng.random() < 0.5
                         for e in (d, n - d))
        assert unpaired_distance(conn, n) is None
        mask = sum(1 << d for d in conn)
        rows = [rotate(mask, i, n) for i in range(n)]
        _assert_matches_pairwise(circulant_spectrum(n, conn), rows, range(n))


def test_spectrum_witness_when_cap_fails(std):
    # the circulant whose connection set is an interval has codegrees near q/2
    ctx, a, _, lab = std(6)
    n = lab.n
    conn = frozenset({*range(1, 17), *range(n - 16, n)})
    idx = [vertex_index(ctx, v) for v in lab.vertices]
    rows = [0] * n
    for i in range(n):
        for d in conn:
            rows[idx[i]] |= 1 << idx[(i + d) % n]
    g = PaleyLikeGraph(ctx, a, n, tuple(rows))
    interval = CirculantLabeling(a, lab.b, lab.vertices, conn)
    assert verify_circulant(g, interval)
    spec = circulant_spectrum(n, conn)
    assert not spec.within_bound and spec.max_ell > spec.bound
    _assert_matches_pairwise(spec, g.rows, interval.index)


def rotation_spectrum(lab):
    """Spectrum counts and top shift by the definition: codeg(v_0, v_s) = |C & rot(C, s)|."""
    n = lab.n
    c = sum(1 << d for d in lab.conn)
    counts = {}
    best, best_s = -1, 1
    for s in range(1, (n - 1) // 2 + 1):
        ell = (c & rotate(c, s, n)).bit_count()
        key = (int(s in lab.conn), ell)
        counts[key] = counts.get(key, 0) + n
        if ell > best:
            best, best_s = ell, s
    return dict(sorted(counts.items())), best_s


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
def test_circulant_spectrum_matches_rotation_oracle(field, k):
    # the default parameter through the dense cap, and every trace-1 a at k <= 6
    ctx = field(k)
    params = [param_a(ctx)] if k > 6 else [
        param_a(ctx, v) for v in range(ctx.q) if ctx.trace(v) == 1]
    for a in params:
        lab = circulant_labeling(ctx, a)
        spec = circulant_spectrum(lab.n, lab.conn)
        assert (spec.counts, spec.max_shift) == rotation_spectrum(lab), a


def test_circulant_spectrum_needs_a_symmetric_connection_set(field):
    # negative control: codeg(v_0, v_s) is the self-convolution only when C = -C
    ctx = field(4)
    a = param_a(ctx)
    lab = circulant_labeling(ctx, a)
    skew = frozenset({1, 2, lab.n - 1})
    assert unpaired_distance(skew, lab.n) == 2
    assert unpaired_distance(lab.conn, lab.n) is None
    with pytest.raises(ValueError, match="negation"):
        circulant_spectrum(lab.n, skew)
    # a tournament's connection set is disjoint from its negation
    lab5 = circulant_labeling(field(5), param_a(field(5)))
    assert unpaired_distance(lab5.conn, lab5.n) == min(lab5.conn)
    with pytest.raises(ValueError, match="negation"):
        circulant_spectrum(lab5.n, lab5.conn)


def _self_convolution_by_definition(seq):
    m = len(seq)
    return [sum(seq[s] * seq[(t - s) % m] for s in range(m)) for t in range(m)]


@st.composite
def zero_one_sequences(draw):
    """0/1 bytes of length 1..600, with ones counts across the 1-/2-byte slot threshold."""
    m = draw(st.integers(1, 600))
    ones = draw(st.integers(0, m) | st.sampled_from([min(m, 255), min(m, 256)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    seq = bytearray(m)
    for s in rng.sample(range(m), ones):
        seq[s] = 1
    return bytes(seq)


@settings(max_examples=40, deadline=None)
@given(zero_one_sequences())
@example(b"\1")
@example(b"\0")
@example(b"\1" * 255 + b"\0" * 45)
@example(b"\1" * 256 + b"\0" * 44)
@example(b"\1" * 256)
def test_cyclic_self_convolution_matches_definition(seq):
    conv = _cyclic_self_convolution(seq)
    assert list(conv) == _self_convolution_by_definition(seq)
    assert conv.itemsize == (1 if seq.count(1) < 256 else 2)


def _assert_matches_int_square(seq):
    conv, want = _cyclic_self_convolution(seq), int_self_convolution(seq)
    assert conv.itemsize == want.itemsize
    assert conv.tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(zero_one_sequences())
@example(b"\0")
@example(b"\1")
@example(b"\0\0")
@example(b"\0\1")
@example(b"\1\0")
@example(b"\1\1")
@example(bytes(1000))
@example(b"\1" * 1000)
@example(bytes(999) + b"\1")
@example(b"\1" + bytes(999))
@example(bytes(750) + b"\1" * 250)  # the square lies wholly in the wrap
def test_cyclic_self_convolution_matches_int_square(seq):
    _assert_matches_int_square(seq)


@pytest.mark.parametrize("ones", [9, 10, 99, 100, 999, 1000, 9999, 10000,  # digits a slot
                                  255, 256, 65535, 65536])                 # bytes a lane
def test_cyclic_self_convolution_at_width_boundaries(ones):
    # all ones, one zero after them, and ones spread over about twice as many slots
    rng = random.Random(ones)
    spread = bytearray(2 * ones + 3)
    for s in rng.sample(range(len(spread)), ones):
        spread[s] = 1
    for seq in (b"\1" * ones, b"\1" * ones + b"\0", bytes(spread)):
        _assert_matches_int_square(seq)


@pytest.mark.parametrize("k", [4, 6, 8])
def test_spectrum_bound_and_total(std, k):
    ctx, _, g, lab = std(k)
    spec = circulant_spectrum(lab.n, lab.conn)
    assert sum(spec.counts.values()) == comb(g.n, 2)
    assert spec.bound == ctx.q // 4 + isqrt(ctx.q) // 2
    assert spec.within_bound
    assert spec.max_ell <= spec.bound


def brute_force_worst_subset(g):
    """Independent oracle: direct pair loop per subset, no Gray code."""
    n = g.n
    worst = Fraction(0)
    for mask in range(1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        h = len(members)
        if h == 0:
            continue
        e = sum(1 for ai, i in enumerate(members) for j in members[ai + 1:]
                if g.rows[i] >> j & 1)
        dev4 = (2 * e - comb(h, 2)) ** 4
        worst = max(worst, Fraction(dev4, 16 * g.ctx.q ** 3 * h ** 4))
    return worst


def test_jumbledness_exhaustive_k2_against_brute_force(std):
    _, _, g, _ = std(2)
    audit = jumbledness_audit(g, "exhaustive")
    assert audit.mode == "exhaustive"
    assert audit.samples == 32
    assert audit.passed
    assert audit.worst_ratio_pow4 == brute_force_worst_subset(g)


def test_jumbledness_exhaustive_k4(std):
    _, _, g, _ = std(4)
    audit = jumbledness_audit(g, "exhaustive")
    assert audit.samples == 1 << 17
    assert audit.passed
    # worst subset re-checked directly
    mask, h, d = audit.worst_mask, audit.worst_size, audit.worst_dev2
    members = [v for v in range(g.n) if mask >> v & 1]
    assert len(members) == h
    e2 = sum((g.rows[v] & mask).bit_count() for v in members)
    assert abs(e2 - comb(h, 2)) == d


def test_jumbledness_exhaustive_cap(std):
    _, _, g, _ = std(6)
    with pytest.raises(OutOfScopeError):
        jumbledness_audit(g, "exhaustive")


def test_jumbledness_sampled_deterministic(std):
    _, _, g, _ = std(6)
    a1 = jumbledness_audit(g, "sampled", samples=500, seed=7)
    a2 = jumbledness_audit(g, "sampled", samples=500, seed=7)
    assert a1 == a2
    assert a1.passed
    a3 = jumbledness_audit(g, "sampled", samples=500, seed=8)
    assert a3.seed == 8


def test_jumbledness_small_subsets_trivial(std):
    # h <= 1 gives deviation 0; audit of an (almost) empty sample passes
    _, _, g, _ = std(2)
    audit = jumbledness_audit(g, "sampled", samples=1, seed=0)
    assert audit.passed


def test_jumbledness_rejects_unknown_mode(std):
    _, _, g, _ = std(2)
    with pytest.raises(ValueError):
        jumbledness_audit(g, "approximate")


def dense_trace_a4(g):
    """Independent oracle: tr(A^4) from integer matrix products, no codegree counting."""
    n = g.n
    a = [[g.rows[i] >> j & 1 for j in range(n)] for i in range(n)]
    cols = list(zip(*a))
    a2 = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return sum(a2[i][j] * a2[j][i] for i in range(n) for j in range(n))


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_certificate_trace_a4(std, k):
    # tr(A^4) read off the circulant spectrum equals n d^2 + 2 sum codeg^2 over
    # the pairwise spectrum, and the trace of a dense A^4 where that is cheap
    ctx, _, g, lab = std(k)
    cert = jumbledness_certificate(ctx.q, circulant_spectrum(lab.n, lab.conn).counts)
    pairwise = spectrum_counts(g.rows, g.n)
    deg = ctx.q // 2
    assert cert.trace_a4 == g.n * deg ** 2 + 2 * sum(
        cnt * ell ** 2 for (_, ell), cnt in pairwise.items())
    if k <= 6:
        assert cert.trace_a4 == dense_trace_a4(g)


@pytest.mark.parametrize("k, lam", [(2, 2), (4, 5), (6, 12), (8, 32), (10, 92),
                                    (12, 256), (14, 724), (16, 2050)])
def test_certificate_bound_and_limit_are_tight(field, k, lam):
    # lambda_bound is the least L with 2 L^4 >= tr(A^4) - d^4, lambda_limit the
    # largest L with (2L + 1)^4 <= 256 q^3; the default graph passes at every k
    ctx = field(k)
    lab = circulant_labeling(ctx, param_a(ctx))
    cert = jumbledness_certificate(ctx.q, circulant_spectrum(lab.n, lab.conn).counts)
    rest = cert.trace_a4 - (ctx.q // 2) ** 4
    assert 2 * (cert.lambda_bound - 1) ** 4 < rest <= 2 * cert.lambda_bound ** 4
    lim = cert.lambda_limit
    assert (2 * lim + 1) ** 4 <= 256 * ctx.q ** 3 < (2 * lim + 3) ** 4
    assert cert.lambda_bound == lam and cert.passed


@pytest.mark.parametrize("k, samples", [(2, None), (4, None), (6, 3000), (8, 3000),
                                        (10, 3000)])
def test_certificate_dominates_audit(std, k, samples):
    # |2 e(H) - C(h,2)| <= (L + 1/2) h holds at the audit's worst subset: the
    # Gray-code sweep over every subset at k = 2, 4, seeded samples above
    ctx, _, g, lab = std(k)
    cert = jumbledness_certificate(ctx.q, circulant_spectrum(lab.n, lab.conn).counts)
    if samples is None:
        audit = jumbledness_audit(g, "exhaustive")
    else:
        audit = jumbledness_audit(g, "sampled", samples=samples, seed=k)
    assert audit.worst_dev2 > 0
    assert 2 * audit.worst_dev2 <= (2 * cert.lambda_bound + 1) * audit.worst_size
    assert cert.passed and audit.passed


def test_certificate_fails_on_interval_circulant(field):
    # negative control: C = +-{1 .. q/4} is q/2-regular and closed under negation,
    # but its top eigenvalue is about n/pi, past the limit 2 q^(3/4) - 1/2 at k = 12
    ctx = field(12)
    a = param_a(ctx)
    lab = circulant_labeling(ctx, a)
    n, quarter = lab.n, ctx.q // 4
    conn = frozenset({*range(1, quarter + 1), *range(n - quarter, n)})
    interval = CirculantLabeling(a, lab.b, lab.vertices, conn)
    cert = jumbledness_certificate(ctx.q, circulant_spectrum(interval.n, interval.conn).counts)
    assert not cert.passed
    # the witness is sound: the Rayleigh quotient of 1_S - (h/n) 1 on the orbit
    # interval S = {v_0 .. v_(h-1)} already exceeds the limit, so every nontrivial
    # eigenvalue bound would fail
    h = n // 2
    s = (1 << h) - 1
    e2 = sum((s & rotate(s, d, n)).bit_count() for d in conn)
    rayleigh = Fraction(e2 * n - len(conn) * h * h, h * (n - h))
    assert cert.lambda_limit < rayleigh <= cert.lambda_bound


def test_formula_requires_even_k(field):
    ctx = field(3)
    a = param_a(ctx)
    formula = pair_codegree_formula(ctx, a, circulant_labeling(ctx, a), kloosterman_sweep(ctx))
    with pytest.raises(ValueError, match="even k"):
        formula(0, 1)
    with pytest.raises(ValueError, match="even k"):
        codegree_formula(ctx, a, 0, kloosterman_sweep(ctx))
