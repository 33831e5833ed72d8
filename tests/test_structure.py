import random

import pytest

from char2paley import (
    INF, OutOfScopeError, QuadExtCtx, ShiftIso, build_graph, build_tournament,
    chapman_build, chapman_compare, circulant_labeling, factorize, hamiltonian_decompose,
    circulant_spectrum, lambda_of, param_a, relabel, shift_isomorphism, verify_automorphisms,
    verify_representative_independence, verify_self_complementary,
    verify_shift_isomorphism,
)
from char2paley.construct import (
    CirculantLabeling, PaleyLikeGraph, is_circulant, iter_bits, rotate, verify_circulant,
)
from char2paley.structure import ChapmanGraph, _carries
from oracles import chapman_rows_per_pair, coset_bit, representative_probes, spectrum_counts


@pytest.mark.parametrize("k", range(2, 13))
def test_shift_identity_random(field, k):
    # tr(((x+b)(y+b) + (x+b) + a)/((x+b)+(y+b))) = tr((xy+x+(b^2+b+a))/(x+y)) + tr(b)
    ctx = field(k)
    rng = random.Random(k)
    q = ctx.q

    def rat_trace(x, y, a):
        num = ctx.mul(x, y) ^ x ^ a
        den = x ^ y
        return ctx.trace(ctx.div(num, den)) if num else 0

    checked = 0
    while checked < 100_000:
        x, y, b, a = (rng.randrange(q) for _ in range(4))
        if x == y or (x ^ b) == (y ^ b):
            continue
        lhs = rat_trace(x ^ b, y ^ b, a)
        rhs = rat_trace(x, y, ctx.sqr(b) ^ b ^ a) ^ ctx.trace(b)
        assert lhs == rhs
        checked += 1


def test_shift_iso_same_parameter(field):
    ctx = field(4)
    a = param_a(ctx)
    iso = shift_isomorphism(ctx, a, a)
    assert iso.b in (0, 1)
    assert iso.b == 0  # smallest solution; the identity map
    assert iso.kind == "iso"
    assert verify_shift_isomorphism(ctx, a, a, iso)


def test_shift_iso_odd_k_picks_trace0(field):
    ctx = field(5)
    t1 = [x for x in range(ctx.q) if ctx.trace(x) == 1]
    a = param_a(ctx, t1[0])
    for ap_val in t1:
        iso = shift_isomorphism(ctx, a, param_a(ctx, ap_val))
        assert ctx.trace(iso.b) == 0
        assert iso.kind == "iso"
        assert verify_shift_isomorphism(ctx, a, param_a(ctx, ap_val), iso)


@pytest.mark.parametrize("k", [4, 6])
def test_shift_iso_class_even_k(field, k):
    ctx = field(k)
    a = param_a(ctx)
    kinds = set()
    for ap_val in range(ctx.q):
        if ctx.trace(ap_val) != 1:
            continue
        ap = param_a(ctx, ap_val)
        iso = shift_isomorphism(ctx, a, ap)
        assert ctx.sqr(iso.b) ^ iso.b == a.value ^ ap_val
        assert verify_shift_isomorphism(ctx, a, ap, iso)
        kinds.add(iso.kind)
    assert kinds == {"iso", "complement-iso"} if k == 4 else kinds


@pytest.mark.parametrize("k", [4, 5, 6])
def test_shift_isomorphism_rejects_flipped_bit(field, k):
    ctx = field(k)
    a = param_a(ctx)
    g = (build_tournament if k % 2 else build_graph)(ctx, a)
    kinds = set()
    for ap_val in [x for x in range(ctx.q) if ctx.trace(x) == 1][:6]:
        ap = param_a(ctx, ap_val)
        iso = shift_isomorphism(ctx, a, ap)
        kinds.add(iso.kind)
        assert verify_shift_isomorphism(ctx, a, ap, iso, target=g)
        for i, j in ((0, 1), (3, g.n - 1), (g.n - 1, 2)):
            rows = list(g.rows)
            rows[i] ^= 1 << j
            tampered = PaleyLikeGraph(ctx, a, g.n, tuple(rows))
            assert not verify_shift_isomorphism(ctx, a, ap, iso, target=tampered)
    assert kinds == ({"iso"} if k % 2 else {"iso", "complement-iso"})


def test_automorphisms_shift_half_rejects_flipped_edge(std, monkeypatch):
    # with the alpha half forced to pass, z -> z+1 alone must catch the flip
    import char2paley.structure as structure
    ctx, a, g, _ = std(4)
    monkeypatch.setattr(structure, "relabel", lambda rows, perm: list(rows))
    assert verify_automorphisms(g, a)
    rows = list(g.rows)
    rows[0] ^= 0b10  # the pair {INF, 0}; z -> z+1 sends it to {INF, 1}
    rows[1] ^= 0b1
    assert not verify_automorphisms(PaleyLikeGraph(ctx, a, g.n, tuple(rows)), a)


def test_shift_iso_rejects_bad_trace(field):
    ctx = field(4)
    with pytest.raises(ValueError):
        param_a(ctx, next(x for x in range(ctx.q) if ctx.trace(x) == 0))


@pytest.mark.parametrize("k", [2, 4])
def test_self_complementary(std, k):
    _, _, g, lab = std(k)
    assert verify_self_complementary(g, lab)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_self_complementary_every_parameter(field, k):
    # v_i -> v_2i along the labeling at every trace-1 a, short alpha-orbits included
    ctx = field(k)
    for a_val in range(ctx.q):
        if ctx.trace(a_val) == 1:
            a = param_a(ctx, a_val)
            assert verify_self_complementary(build_graph(ctx, a), circulant_labeling(ctx, a))


def test_self_complementary_negative_control(std):
    # the identity permutation cannot exchange a graph with its complement
    _, _, g, _ = std(4)
    image = relabel(g.rows, list(range(g.n)))
    assert not _carries(image, g, True)
    assert _carries(image, g, False)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_automorphisms(std, k):
    ctx, a, g, _ = std(k)
    assert verify_automorphisms(g, a)


def test_automorphism_negative_control(std):
    _, _, g, _ = std(4)
    perm = list(range(g.n))
    perm[1], perm[2] = perm[2], perm[1]  # a random transposition
    assert not _carries(relabel(g.rows, perm), g, False)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_alpha_preserves_rational_expression(field, k):
    # ((a/(x+1))(a/(y+1)) + a/(x+1) + a) / (a/(x+1) + a/(y+1)) = (xy+x+a)/(x+y)
    ctx = field(k)
    a = param_a(ctx).value
    rng = random.Random(k)
    checked = 0
    while checked < 2000:
        x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
        if x == y or x == 1 or y == 1:
            continue
        ax = ctx.div(a, x ^ 1)
        ay = ctx.div(a, y ^ 1)
        if ax == ay:
            continue
        lhs = ctx.div(ctx.mul(ax, ay) ^ ax ^ a, ax ^ ay)
        rhs = ctx.div(ctx.mul(x, y) ^ x ^ a, x ^ y)
        assert lhs == rhs
        checked += 1


@pytest.mark.parametrize("k", [3, 5, 7])
def test_tournament_reversal(field, k):
    # tr(1) = 1 at odd k, so the automorphism certificate asks z -> z+1 to reverse every arc
    ctx = field(k)
    a = param_a(ctx)
    assert verify_automorphisms(build_tournament(ctx, a), a)
    # the same reversal seen as a complement-iso of the tournament onto itself
    assert verify_shift_isomorphism(ctx, a, a, ShiftIso(1, "complement-iso"))
    assert not verify_shift_isomorphism(ctx, a, a, ShiftIso(1, "iso"))


@pytest.mark.parametrize("k", [3, 5, 7])
def test_tournament_reversal_negative_control(field, k, monkeypatch):
    # one arc out of INF turned round, or present both ways, fails the certificate;
    # with the alpha half forced to pass, z -> z+1 alone must catch either
    import char2paley.structure as structure
    ctx = field(k)
    a = param_a(ctx)
    t = build_tournament(ctx, a)
    j = next(iter_bits(t.rows[0]))
    turned, doubled = list(t.rows), list(t.rows)
    turned[0] ^= 1 << j
    turned[j] ^= 1
    doubled[j] ^= 1
    bad = [PaleyLikeGraph(ctx, a, t.n, tuple(rows)) for rows in (turned, doubled)]
    assert not any(verify_automorphisms(g, a) for g in bad)
    monkeypatch.setattr(structure, "relabel", lambda rows, perm: list(rows))
    assert verify_automorphisms(t, a)
    assert not any(verify_automorphisms(g, a) for g in bad)


# -- Hamiltonian decomposition ----------------------------------------------


def test_is_prime():
    # the primality idiom hamiltonian_decompose uses on the order
    assert [n for n in range(2, 20) if factorize(n) == {n: 1}] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert factorize(257) == {257: 1} and factorize(65537) == {65537: 1}
    assert factorize(4097) != {4097: 1} and factorize(1) != {1: 1}


def test_decompose_k2_single_cycle(std):
    _, _, g, lab = std(2)
    dec = hamiltonian_decompose(g, lab)
    assert dec.p == 5
    assert dec.classes == ((1, 4),)
    assert len(dec.cycles) == 1
    assert dec.cycles[0] == lab.vertices  # distance 1 walks the orbit itself


def test_decompose_k4(std):
    _, _, g, lab = std(4)
    dec = hamiltonian_decompose(g, lab)
    assert dec.p == 17
    assert len(dec.cycles) == 4
    assert g.edge_count() == 68
    # each cycle spans all vertices, starting at v_0 = INF
    for cyc in dec.cycles:
        assert len(cyc) == 17
        assert cyc[0] is INF
        assert len(set(map(str, cyc))) == 17
    # edge-disjoint cover: 4 cycles x 17 edges = 68 edges
    seen = set()
    for cyc in dec.cycles:
        for t in range(17):
            u, v = str(cyc[t]), str(cyc[(t + 1) % 17])
            e = (u, v) if u < v else (v, u)
            assert e not in seen
            seen.add(e)
    assert len(seen) == 68


def test_decompose_composite_out_of_scope(std):
    _, _, g, lab = std(6)
    with pytest.raises(OutOfScopeError):
        hamiltonian_decompose(g, lab)


@pytest.mark.parametrize("k", [4, 8])
def test_decompose_covers_every_edge_once(std, k):
    # an oracle that reads only the rows: every cycle step is an edge,
    # no edge is walked twice, and every edge is walked
    ctx, _, g, lab = std(k)
    p = ctx.q + 1
    dec = hamiltonian_decompose(g, lab)
    assert len(dec.cycles) == ctx.q // 4

    def row(v):
        return 0 if v is INF else 1 + v

    walked = set()
    for cyc in dec.cycles:
        assert len(cyc) == p and len({row(v) for v in cyc}) == p
        for t in range(p):
            u, v = row(cyc[t]), row(cyc[(t + 1) % p])
            assert g.rows[u] >> v & 1
            e = (min(u, v), max(u, v))
            assert e not in walked
            walked.add(e)
    edges = {(i, j) for i in range(p) for j in range(i + 1, p) if g.rows[i] >> j & 1}
    assert walked == edges
    assert len(edges) == p * ctx.q // 4


def test_labeling_from_another_field_rejected(field):
    # 0x21 has trace 1 and a full orbit at both k = 6 and k = 8, so the
    # parameters compare equal; the orders do not
    g = build_graph(field(6), param_a(field(6), 0x21))
    lab = circulant_labeling(field(8), param_a(field(8), 0x21))
    assert g.a == lab.a
    for certificate in (verify_circulant, verify_self_complementary, hamiltonian_decompose):
        with pytest.raises(ValueError, match="different parameters"):
            certificate(g, lab)


def test_decompose_rejects_flipped_edge(std):
    ctx, a, g, lab = std(4)
    rows = list(g.rows)
    rows[1] ^= 1 << 5
    rows[5] ^= 1 << 1
    with pytest.raises(AssertionError):
        hamiltonian_decompose(PaleyLikeGraph(ctx, a, g.n, tuple(rows)), lab)


def test_decompose_rejects_connection_set_not_closed_under_negation(std):
    # rows that are exactly the circulant of {1, 2, 16}: 2 is in it, -2 = 15 is not
    ctx, a, _, lab = std(4)
    n = lab.n
    conn = frozenset({1, 2, n - 1})
    rows = [0] * n
    for i in range(n):
        for d in conn:
            rows[lab.index[i]] |= 1 << lab.index[(i + d) % n]
    g = PaleyLikeGraph(ctx, a, n, tuple(rows))
    skew = CirculantLabeling(a, lab.b, lab.vertices, conn)
    assert verify_circulant(g, skew)
    with pytest.raises(AssertionError, match="negation"):
        hamiltonian_decompose(g, skew)


# -- the coset-quotient oracle ----------------------------------------------


def test_chapman_k2_shape(field):
    ctx = field(2)
    ext = QuadExtCtx(ctx)
    a = param_a(ctx)
    h = chapman_build(ext, lambda_of(ext, a.value))
    assert h.n == 5
    assert all(r.bit_count() == 2 for r in h.rows)
    assert not h.undefined_pairs
    assert h.circulant_certified


@pytest.mark.parametrize("k", [2, 4])
def test_chapman_reps_are_powers_in_distinct_cosets(field, k):
    # x0 + x1 zeta lies in GF(q) exactly when x1 = 0
    ctx = field(k)
    ext = QuadExtCtx(ctx)
    h = chapman_build(ext, lambda_of(ext, param_a(ctx).value))
    g = ext.primitive_root()
    assert h.reps == tuple(ext.pow(g, i) for i in range(ctx.q + 1))
    for i, u in enumerate(h.reps):
        for j, v in enumerate(h.reps):
            if i != j:
                assert ext.div(u, v)[1] != 0, (i, j)


def test_chapman_tampered_row_not_certified(field, tamper_coset):
    ctx = field(4)
    ext = QuadExtCtx(ctx)
    lam = lambda_of(ext, param_a(ctx).value)
    h = chapman_build(ext, lam)
    assert h.circulant_certified and is_circulant(h.rows, h.rows[0], h.n)
    # one row of the built graph with one bit flipped
    rows = list(h.rows)
    rows[3] ^= 1 << 7
    assert not is_circulant(rows, rows[0], h.n)
    # the build itself, with the predicate flipped at w = g^(q+3), which
    # only the pair (reps[1], reps[3]) reads
    tamper_coset(ext, ctx.q + 3)
    bad = chapman_build(ext, lam)
    assert bad.rows[0] == h.rows[0] and bad.rows != h.rows
    assert not bad.undefined_pairs
    assert not bad.circulant_certified


def test_chapman_rejects_degenerate_lambda(field):
    ext = QuadExtCtx(field(2))
    with pytest.raises(ValueError):
        chapman_build(ext, (0, 0))
    with pytest.raises(ValueError):
        chapman_build(ext, (3, 0))  # in the base field: T(lambda) = 0


def test_chapman_representative_independence_exhaustive_k2(field):
    ext = QuadExtCtx(field(2))
    h = chapman_build(ext, lambda_of(ext, 2))
    assert verify_representative_independence(h) == (4 * 3, None)


def test_chapman_representative_independence_exhaustive_k4(field):
    ext = QuadExtCtx(field(4))
    a = param_a(field(4))
    h = chapman_build(ext, lambda_of(ext, a.value))
    rep = verify_representative_independence(h)
    assert rep and rep == (16 * 15, None)


def test_representative_independence_witness(field, tamper_coset):
    # w = g^(3q+1) lies in the class 3q+1 = 15 mod 17 beside g^15 and g^32,
    # which the pairs (0, 15) and (1, 16) read; no i < j <= q reads it, so
    # the rows stay circulant and only this check sees the flip
    ctx = field(4)
    ext = QuadExtCtx(ctx)
    lam = lambda_of(ext, param_a(ctx).value)
    h = chapman_build(ext, lam)
    tamper_coset(ext, 3 * ctx.q + 1)
    bad = chapman_build(ext, lam)
    assert bad.rows == h.rows and bad.circulant_certified
    rep = verify_representative_independence(bad)
    assert not rep and rep.witness == (15, 49)
    assert bad.table[15] != bad.table[49] and (15 - 49) % 17 == 0


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_representative_independence_witness_every_class(field, tamper_coset, r):
    # k = 2: the last entry r + 5 * 2 of each class r != 0 mod 5, flipped alone
    ext = QuadExtCtx(field(2))
    tamper_coset(ext, r + 10)
    h = chapman_build(ext, lambda_of(ext, 2))
    assert verify_representative_independence(h).witness == (r, r + 10)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_chapman_table_rows_match_per_pair_oracle(field, k):
    ctx = field(k)
    ext = QuadExtCtx(ctx)
    lam = lambda_of(ext, param_a(ctx).value)
    h = chapman_build(ext, lam)
    rows, undefined = chapman_rows_per_pair(ext, lam, h.reps)
    assert list(h.rows) == rows and list(h.undefined_pairs) == undefined == []


# tampered at k = 4: w = g^(3q+1), read by no pair, and g^(q+3), read by (1, 3)
@pytest.mark.parametrize("k, tamper", [(2, None), (4, None), (4, 3 * 16 + 1), (4, 16 + 3)])
def test_representative_independence_agrees_with_probes(field, tamper_coset, k, tamper):
    ctx = field(k)
    ext = QuadExtCtx(ctx)
    lam = lambda_of(ext, param_a(ctx).value)
    pred = coset_bit
    if tamper:
        pred = tamper_coset(ext, tamper)
    h = chapman_build(ext, lam)
    verdict = bool(verify_representative_independence(h))
    assert verdict == representative_probes(ext, lam, h.reps, pred) == (tamper is None)


@pytest.mark.parametrize("k", [2, 4])
def test_chapman_spectra_match(std, k):
    ctx, a, g, _ = std(k)
    ext = QuadExtCtx(ctx)
    h = chapman_build(ext, lambda_of(ext, a.value))
    pairwise = spectrum_counts(h.rows, h.n)
    assert pairwise == spectrum_counts(g.rows, g.n)
    assert circulant_spectrum(h.n, h.conn).counts == pairwise


@pytest.mark.parametrize("k", [2, 4])
def test_chapman_isomorphic(std, k):
    ctx, a, g, lab = std(k)
    ext = QuadExtCtx(ctx)
    h = chapman_build(ext, lambda_of(ext, a.value))
    cmp_result = chapman_compare(h, g, lab)
    assert bool(cmp_result)
    assert cmp_result.verdict == "isomorphic-certified"
    assert cmp_result.multiplier is not None


def test_chapman_compare_negative_control(std):
    # a certified circulant of the same degree on C = +-{1 .. q/4}: spectra cannot match
    ctx, a, g, lab = std(4)
    ext = QuadExtCtx(ctx)
    h = chapman_build(ext, lambda_of(ext, a.value))
    n, quarter = h.n, ctx.q // 4
    conn = frozenset({*range(1, quarter + 1), *range(n - quarter, n)})
    mask = sum(1 << d for d in conn)
    rows = tuple(rotate(mask, i, n) for i in range(n))
    fake = h._replace(rows=rows, conn=conn)
    assert is_circulant(rows, mask, n) and fake.circulant_certified
    cmp_result = chapman_compare(fake, g, lab)
    assert not cmp_result
    assert cmp_result.verdict == "not-isomorphic"
    assert cmp_result.spectra_match is False


def test_chapman_compare_needs_two_certified_circulants(std):
    # an uncertified coset graph is a bad argument; rows that are not the
    # labeling's circulant are a failed certificate
    ctx, a, g, lab = std(4)
    ext = QuadExtCtx(ctx)
    h = chapman_build(ext, lambda_of(ext, a.value))
    with pytest.raises(ValueError, match="certified"):
        chapman_compare(h._replace(circulant_certified=False), g, lab)
    rows = list(g.rows)
    rows[1] ^= 1 << 5
    rows[5] ^= 1 << 1
    with pytest.raises(AssertionError, match="circulant"):
        chapman_compare(h, PaleyLikeGraph(ctx, a, g.n, tuple(rows)), lab)


def test_chapman_arbitrary_lambda_still_isomorphic(std):
    # any lambda outside the base field defines an isomorphic copy
    ctx, a, g, lab = std(2)
    ext = QuadExtCtx(ctx)
    for lam in [(0, 1), (1, 1), (2, 3)]:
        h = chapman_build(ext, lam)
        assert not h.undefined_pairs
        assert bool(chapman_compare(h, g, lab))
