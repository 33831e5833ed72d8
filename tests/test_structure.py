import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from char2paley import (
    INF, FieldCtx, OutOfScopeError, alpha_of, apply, build_graph,
    build_tournament, chapman_build, chapman_compare, circulant_labeling, factorize,
    hamiltonian_decompose, circulant_spectrum, param_a, shift_isomorphism,
    unpaired_distance, verify_automorphisms, verify_representative_independence,
    verify_self_complementary, verify_shift_isomorphism,
)
from char2paley.construct import (
    CirculantLabeling, PaleyLikeGraph, ParamA, RowVerdict, verify_circulant,
)
from char2paley import structure
from char2paley.structure import ChapmanGraph, MapVerdict, ShiftTarget, _shift_carries
from char2paley.gf2k import is_irreducible, power
from oracles import (
    carries, chapman_rows_per_pair, coset_bit, doubling_witness, is_circulant, iter_bits,
    quadratic_extension, relabel, representative_probes, search_lambda, spectrum_counts,
    translate_rows, verify_vertex_map,
)


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
    assert verify_shift_isomorphism(ShiftTarget(build_graph(ctx, a)), a)


def test_shift_iso_odd_k_picks_trace0(field):
    ctx = field(5)
    t1 = [x for x in range(ctx.q) if ctx.trace(x) == 1]
    a = param_a(ctx, t1[0])
    target = ShiftTarget(build_tournament(ctx, a))
    for ap_val in t1:
        iso = shift_isomorphism(ctx, a, param_a(ctx, ap_val))
        assert ctx.trace(iso.b) == 0
        assert iso.kind == "iso"
        assert verify_shift_isomorphism(target, param_a(ctx, ap_val))


@pytest.mark.parametrize("k", [4, 6])
def test_shift_iso_class_even_k(field, k):
    ctx = field(k)
    a = param_a(ctx)
    target = ShiftTarget(build_graph(ctx, a))
    kinds = set()
    for ap_val in range(ctx.q):
        if ctx.trace(ap_val) != 1:
            continue
        ap = param_a(ctx, ap_val)
        iso = shift_isomorphism(ctx, a, ap)
        assert ctx.sqr(iso.b) ^ iso.b == a.value ^ ap_val
        assert verify_shift_isomorphism(target, ap)
        kinds.add(iso.kind)
    assert kinds == {"iso", "complement-iso"} if k == 4 else kinds


@pytest.mark.parametrize("k", [4, 5, 6])
def test_shift_isomorphism_rejects_flipped_bit(field, k):
    ctx = field(k)
    a = param_a(ctx)
    g = (build_tournament if k % 2 else build_graph)(ctx, a)
    target = ShiftTarget(g)
    kinds = set()
    for ap_val in [x for x in range(ctx.q) if ctx.trace(x) == 1][:6]:
        ap = param_a(ctx, ap_val)
        iso = shift_isomorphism(ctx, a, ap)
        kinds.add(iso.kind)
        assert verify_shift_isomorphism(target, ap)
        for i, j in ((0, 1), (3, g.n - 1), (g.n - 1, 2)):
            rows = list(g.rows)
            rows[i] ^= 1 << j
            tampered = ShiftTarget(PaleyLikeGraph(ctx, a, g.n, tuple(rows)))
            assert verify_shift_isomorphism(tampered, ap) == RowVerdict(i)
    assert kinds == ({"iso"} if k % 2 else {"iso", "complement-iso"})


def _row_bytes(k):
    """Bytes a dense row takes in the shift kernel's bands: ceil(n/8)."""
    return ((1 << k) + 8) // 8


@st.composite
def shift_cases(draw):
    """k <= 6, q+1 random rows, b, the flipped flag, a band of 1-4 rows or the
    default, and a target: the oracle's image, or its complement when flipped,
    with up to one bit flipped, or random rows."""
    k = draw(st.integers(2, 6))
    n = (1 << k) + 1
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    b = draw(st.integers(0, (1 << k) - 1))
    flipped = draw(st.booleans())
    band = draw(st.sampled_from([None, 1, 2, 3, 4]))
    image = translate_rows(rows, b, FieldCtx(k))
    if flipped:
        image = [(1 << n) - 1 ^ r ^ 1 << i for i, r in enumerate(image)]
    target = draw(st.one_of(
        st.just(image),
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
            lambda ij: [r ^ (1 << ij[1] if i == ij[0] else 0) for i, r in enumerate(image)]),
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    return k, rows, b, flipped, band, target


@settings(max_examples=200, deadline=None)
@given(shift_cases())
def test_shift_kernel_agrees_with_the_per_row_oracle(field, case):
    # graphs' and tournaments' orders, in one band or in bands of a few rows:
    # the packed translate-and-compare says what translating each row says,
    # and names the first image row that differs
    k, rows, b, flipped, band, target = case
    ctx = field(k)
    n = ctx.q + 1
    g = PaleyLikeGraph(ctx, param_a(ctx), n, tuple(target))
    image = translate_rows(rows, b, ctx)
    want = carries(image, target, flipped)
    rows_of = [(1 << n) - 1 ^ r ^ 1 << i for i, r in enumerate(target)] if flipped else target
    first = next((y for y, (r, t) in enumerate(zip(image, rows_of)) if r != t), None)
    size = structure._SHIFT_BAND if band is None else band * _row_bytes(k)
    with mock.patch.object(structure, "_SHIFT_BAND", size):
        verdict = _shift_carries(tuple(rows), b, ShiftTarget(g), flipped)
    assert bool(verdict) is want
    assert verdict.position == first


def _tamper(rows, i, j):
    out = list(rows)
    out[i] ^= 1 << j
    return tuple(out)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_shift_class_across_several_bands(field, monkeypatch, k):
    # three rows a band: k = 4-6 spans 6-22 bands; every trace-1 a' still
    # carries, and one flipped bit in the first or last row of a band fails there.
    # A target takes its band size when it is built
    ctx = field(k)
    a = param_a(ctx)
    g = (build_tournament if k % 2 else build_graph)(ctx, a)
    n = g.n
    monkeypatch.setattr(structure, "_SHIFT_BAND", 3 * _row_bytes(k))
    target = ShiftTarget(g)
    assert target.per == 3
    assert _shift_carries(g.rows, 1, target, ctx.trace(1) == 1)
    for ap_val in (x for x in range(ctx.q) if ctx.trace(x) == 1):
        ap = param_a(ctx, ap_val)
        assert verify_shift_isomorphism(target, ap)
    ap = param_a(ctx, next(x for x in range(ctx.q) if ctx.trace(x) == 1 and x != a.value))
    iso = shift_isomorphism(ctx, a, ap)
    src = (build_tournament if k % 2 else build_graph)(ctx, ap).rows
    flipped = iso.kind == "complement-iso"
    assert _shift_carries(src, iso.b, target, flipped)
    for slot in (2, 3, 5, 6, n - 1):  # both sides of the first two band borders, and the last row
        for j in (0, 1, n - 1):
            tampered = ShiftTarget(PaleyLikeGraph(ctx, a, n, _tamper(g.rows, slot, j)))
            assert _shift_carries(src, iso.b, tampered, flipped).position == slot, j
            source = _tamper(src, 1 + ((slot - 1) ^ iso.b), j)  # the source row of image slot
            assert _shift_carries(source, iso.b, target, flipped).position == slot, j


@pytest.mark.parametrize("k", [4, 5, 8])
def test_shift_kernel_negative_controls(field, k):
    # one flipped bit in INF's row, INF's column, the first or the last finite
    # row, in the source or in the target, fails (flips on the border of two
    # bands: test_shift_class_across_several_bands)
    ctx = field(k)
    a = param_a(ctx)
    build = build_tournament if k % 2 else build_graph
    g = build(ctx, a)
    n = g.n
    ap = param_a(ctx, max(x for x in range(ctx.q) if ctx.trace(x) == 1))
    iso = shift_isomorphism(ctx, a, ap)
    src, flipped = build(ctx, ap).rows, iso.kind == "complement-iso"
    target = ShiftTarget(g)
    assert _shift_carries(src, iso.b, target, flipped)
    for slot, j in ((0, 5), (0, n - 1), (7, 0), (n - 1, 0),
                    (1, 3), (1, n - 1), (n - 1, 1), (n - 1, n - 1)):
        tampered = ShiftTarget(PaleyLikeGraph(ctx, a, n, _tamper(g.rows, slot, j)))
        assert _shift_carries(src, iso.b, tampered, flipped).position == slot, j
        row = 0 if slot == 0 else 1 + ((slot - 1) ^ iso.b)
        assert _shift_carries(_tamper(src, row, j), iso.b, target, flipped).position == slot, j


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_shift_kernel_wide_rows_fail_without_raising(field, k):
    # a source row with a bit at or above n, in the padding of its bytes or
    # beyond them, or a negative one, fails the check at its image row; the
    # same row in the target is rejected when the target is built, as the
    # writers reject it
    ctx = field(k)
    a = param_a(ctx)
    g = (build_tournament if k % 2 else build_graph)(ctx, a)
    n, flipped = g.n, ctx.trace(1) == 1
    target = ShiftTarget(g)
    assert _shift_carries(g.rows, 1, target, flipped)
    for i in (0, 1, n - 1):
        y = 0 if i == 0 else 1 + ((i - 1) ^ 1)  # image row of source row i
        for bad in (g.rows[i] | 1 << n, g.rows[i] | 1 << 8 * _row_bytes(k), -1 - g.rows[i]):
            rows = g.rows[:i] + (bad,) + g.rows[i + 1:]
            assert _shift_carries(rows, 1, target, flipped).position == y, (i, bad)
            with pytest.raises(ValueError, match=f"row {i} has bits at or above n"):
                ShiftTarget(PaleyLikeGraph(ctx, a, n, rows))


def _forged(lab, conn=None, vertices=None):
    """lab with its connection set or its vertices replaced, as a labeling that passes
    the constructor's checks but need not come from any parameter's orbit."""
    return CirculantLabeling(lab.a, lab.b, vertices or lab.vertices,
                             lab.conn if conn is None else frozenset(conn))


def _circulant_rows(lab) -> list[int]:
    """The dense rows of the circulant of lab.conn on lab's vertices."""
    n = lab.n
    rows = [0] * n
    for i in range(n):
        for d in lab.conn:
            rows[lab.index[i]] |= 1 << lab.index[(i + d) % n]
    return rows


def test_automorphisms_shift_half_rejects_flipped_edge(std):
    # the distance -3 = 14 alone dropped from C at k = 4: alpha, a rotation of the
    # same vertices, still passes, and z -> z+1 alone fails, at the unpaired
    # distance 3; the dense map fails on the forged circulant's rows too
    ctx, _, _, lab = std(4)
    assert {3, 14} <= lab.conn
    bad = _forged(lab, conn=lab.conn - {14})
    assert verify_automorphisms(ctx, bad) == MapVerdict("z+1", 3)
    assert unpaired_distance(bad.conn, bad.n) == 3
    rows = _circulant_rows(bad)
    assert not carries(translate_rows(rows, 1, ctx), rows, False)


def test_shift_iso_rejects_bad_trace(field):
    ctx = field(4)
    with pytest.raises(ValueError):
        param_a(ctx, next(x for x in range(ctx.q) if ctx.trace(x) == 0))


@pytest.mark.parametrize("k", [2, 4])
def test_self_complementary(std, k):
    _, _, _, lab = std(k)
    assert verify_self_complementary(lab)


def _doubling(lab) -> list[int]:
    """v_i -> v_2i as a permutation of the dense rows."""
    perm = [0] * lab.n
    for i, c in enumerate(lab.index):
        perm[c] = lab.index[2 * i % lab.n]
    return perm


def _dense_map_verdicts(ctx, g, lab) -> tuple[bool, bool, bool]:
    """The dense oracles' verdicts on g's rows: v_i -> v_2i onto the complement,
    z -> a/(z+1) onto g, and z -> z+1 onto g, or onto its reversal when tr(1) = 1."""
    al = alpha_of(ctx, g.a.value)
    alpha = [0 if p is INF else 1 + p for p in (apply(ctx, al, p) for p in [INF, *range(ctx.q)])]
    return (bool(verify_vertex_map(g.rows, _doubling(lab), g.rows, True)),
            bool(verify_vertex_map(g.rows, alpha, g.rows, False)),
            carries(translate_rows(g.rows, 1, ctx), g.rows, ctx.trace(1) == 1))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_self_complementary_every_parameter(field, k):
    # each read off the certified connection set says what the dense oracle says
    # on the rows, at every trace-1 a of both parities, short alpha-orbits included:
    # v_i -> v_2i, alpha and z -> z+1 (a reversal at odd k)
    ctx = field(k)
    build = build_tournament if k % 2 else build_graph
    for a_val in range(ctx.q):
        if ctx.trace(a_val) == 1:
            a = param_a(ctx, a_val)
            g, lab = build(ctx, a), circulant_labeling(ctx, a)
            assert verify_circulant(g, lab)
            aut = verify_automorphisms(ctx, lab)
            doubling, alpha, shift = _dense_map_verdicts(ctx, g, lab)
            assert bool(verify_self_complementary(lab)) is doubling
            assert aut.map != "alpha" and alpha
            assert aut and shift


def test_self_complementary_negative_control(std):
    # the identity permutation cannot exchange a graph with its complement; and
    # with 2 added to C = -C at k = 4, 1 and 2 are both in it: the read fails at
    # d = 1, where the dense map fails too
    _, _, g, lab = std(4)
    identity = list(range(g.n))
    image = relabel(g.rows, identity)
    assert not carries(image, g.rows, True)
    assert carries(image, g.rows, False)
    assert verify_vertex_map(g.rows, identity, g.rows, False)
    assert verify_vertex_map(g.rows, identity, g.rows, True).position == 0
    assert 1 in lab.conn and 2 not in lab.conn
    bad = _forged(lab, conn=lab.conn | {2})
    assert verify_self_complementary(bad) == ("doubling", 1)
    assert doubling_witness(_circulant_rows(bad), bad) is not None


@pytest.mark.parametrize("k, u, v", [(4, 1, 5), (4, 0, 16), (8, 200, 3), (8, 256, 255)])
def test_self_complementary_witness_is_first_differing_image_row(std, k, u, v):
    # one flipped edge: the dense oracle of the read names the first row of the
    # relabel oracle's image of v_i -> v_2i that is not the complement's
    ctx, a, g, lab = std(k)
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    verdict = verify_vertex_map(rows, _doubling(lab), rows, True)
    assert not verdict
    assert verdict.position == doubling_witness(rows, lab) is not None


@pytest.mark.parametrize("k", [2, 4, 6])
def test_automorphisms(std, k):
    ctx, _, _, lab = std(k)
    assert verify_automorphisms(ctx, lab) == (None, None)


def test_automorphism_negative_control(std):
    # a transposition of two vertices is no automorphism, on the rows; and with
    # the labeling's v_3 and v_5 traded, alpha is no rotation of the positions:
    # the read names the first v_i that alpha does not send to v_(i+c)
    ctx, a, g, lab = std(4)
    perm = list(range(g.n))
    perm[1], perm[2] = perm[2], perm[1]  # a random transposition
    assert not carries(relabel(g.rows, perm), g.rows, False)
    assert not verify_vertex_map(g.rows, perm, g.rows, False)
    v = list(lab.vertices)
    v[3], v[5] = v[5], v[3]
    bad = _forged(lab, vertices=tuple(v))
    verdict = verify_automorphisms(ctx, bad)
    al, c = alpha_of(ctx, a.value), v.index(0)
    wrong = [i for i in range(bad.n) if apply(ctx, al, v[i]) != v[(i + c) % bad.n]]
    assert verdict == ("alpha", wrong[0])


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
    lab = circulant_labeling(ctx, a)
    assert verify_circulant(build_tournament(ctx, a), lab)
    assert verify_automorphisms(ctx, lab)
    # the same reversal seen as the shift by 1 of the tournament onto its reversal
    g = build_tournament(ctx, a)
    target = ShiftTarget(g)
    assert _shift_carries(g.rows, 1, target, True)
    assert not _shift_carries(g.rows, 1, target, False)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_tournament_reversal_negative_control(field, k):
    # one distance d of the connection set joined by -d (arcs both ways), or
    # dropped (arcs neither way): z -> z+1 reverses no longer every arc, and the
    # read names the least distance it sends wrong; alpha still passes
    ctx = field(k)
    lab = circulant_labeling(ctx, param_a(ctx))
    n = lab.n
    d = min(lab.conn)
    for conn in (lab.conn | {n - d}, lab.conn - {d}):
        bad = _forged(lab, conn=conn)
        assert verify_automorphisms(ctx, bad) == ("z+1", min(d, n - d))
        rows = _circulant_rows(bad)
        assert not carries(translate_rows(rows, 1, ctx), rows, True)


# -- Hamiltonian decomposition ----------------------------------------------


def test_is_prime():
    # the primality idiom hamiltonian_decompose uses on the order
    assert [n for n in range(2, 20) if factorize(n) == {n: 1}] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert factorize(257) == {257: 1} and factorize(65537) == {65537: 1}
    assert factorize(4097) != {4097: 1} and factorize(1) != {1: 1}


def test_decompose_k2_single_cycle(std):
    _, _, _, lab = std(2)
    dec = hamiltonian_decompose(lab)
    assert dec.p == 5
    assert dec.classes == ((1, 4),)
    assert len(dec.cycles) == 1
    assert dec.cycles[0] == lab.vertices  # distance 1 walks the orbit itself


def test_decompose_k4(std):
    _, _, g, lab = std(4)
    dec = hamiltonian_decompose(lab)
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
    _, _, _, lab = std(6)
    with pytest.raises(OutOfScopeError, match="composite"):
        hamiltonian_decompose(lab)


@pytest.mark.parametrize("k", [4, 8])
def test_decompose_covers_every_edge_once(std, k):
    # an oracle that reads only the rows: every cycle step is an edge,
    # no edge is walked twice, and every edge is walked
    ctx, _, g, lab = std(k)
    p = ctx.q + 1
    dec = hamiltonian_decompose(lab)
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
    with pytest.raises(ValueError, match="different parameters"):
        verify_circulant(g, lab)
    with pytest.raises(ValueError, match="different orders"):
        verify_automorphisms(field(6), lab)
    with pytest.raises(ValueError, match="different orders"):
        chapman_compare(chapman_build(field(6), param_a(field(6), 0x21)), lab)


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
    with pytest.raises(ValueError, match="negation"):
        hamiltonian_decompose(skew)


# -- the coset-quotient oracle ----------------------------------------------


def test_chapman_k2_shape(field):
    ctx = field(2)
    h = chapman_build(ctx, param_a(ctx))
    assert ChapmanGraph._fields == ("reps", "table", "conn", "undefined_pairs")
    assert h.n == 5
    assert len(h.conn) == 2 and unpaired_distance(h.conn, h.n) is None
    assert not h.undefined_pairs


@pytest.mark.parametrize("k, poly", [(2, None)] + [(4, p) for p in range(16, 32) if is_irreducible(p)])
def test_embedding_is_a_homomorphism_into_the_base_field(field, k, poly):
    # phi sends GF(q), under each modulus, onto the subfield {x : x^q = x} of GF(q^2)
    # and keeps sums and products: the coset build embeds a through it
    ctx = field(k, poly)
    big = field(2 * k)
    phi = structure._embedding(ctx, big)
    images = [phi(x) for x in range(ctx.q)]
    assert images[0] == 0 and images[1] == 1
    for x, u in enumerate(images):
        assert power(big.mul, 1, u, ctx.q) == u
        for y, v in enumerate(images):
            assert images[x ^ y] == u ^ v
            assert images[ctx.mul(x, y)] == big.mul(u, v)


@pytest.mark.parametrize("k, every_a", [(2, True), (4, True), (6, False)])
def test_coset_table_matches_the_definition_at_every_exponent(field, k, every_a):
    # table[e] against tr_q(T(lam w) / T(w)) at w = g^e, lambda and the embedding of
    # a found by search: every trace-1 a at k = 2 and 4, the default a at k = 6
    ctx = field(k)
    big, _, _ = quadratic_extension(ctx)
    g = big.generator()
    params = [x for x in range(ctx.q) if ctx.trace(x) == 1] if every_a else [param_a(ctx).value]
    for a in params:
        lam = search_lambda(ctx, a)
        want, w = [], 1
        for _ in range(big.q - 1):
            bit = coset_bit(big, lam, w)
            want.append(structure.UNDEFINED if bit is None else bit)
            w = big.mul(w, g)
        assert chapman_build(ctx, param_a(ctx, a)).table == bytes(want), hex(a)


@pytest.mark.parametrize("k", [2, 4])
def test_chapman_reps_are_powers_in_distinct_cosets(field, k):
    # u / v lies in GF(q)* exactly when u^(q-1) = v^(q-1)
    ctx = field(k)
    big, _, _ = quadratic_extension(ctx)
    h = chapman_build(ctx, param_a(ctx))
    g = big.generator()
    assert h.reps == tuple(power(big.mul, 1, g, i) for i in range(ctx.q + 1))
    assert len({power(big.mul, 1, u, ctx.q - 1) for u in h.reps}) == ctx.q + 1


def test_chapman_tampered_row_not_certified(field, tamper_coset):
    # the predicate flipped at w = g^(q+3), which only the pair (1, 3) reads: the
    # per-pair rows are no circulant, and the flip leaves class 2 with entries
    # that differ, so no coset graph is read off the classes
    ctx = field(4)
    a = param_a(ctx)
    pred = tamper_coset(ctx.q + 3)
    bad = chapman_build(ctx, a)
    rows, _ = chapman_rows_per_pair(ctx, a.value, bad.reps, pred)
    assert not is_circulant(rows, rows[0], bad.n)
    assert verify_representative_independence(bad).witness == (2, 19)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_chapman_whole_class_tamper_fails_the_class_read(field, tamper_coset, k):
    # the predicate flipped on every entry of class 3: the table stays constant on
    # each class, and the class read names the one distance d in C_H whose n - d
    # is not, where the per-pair rows stop being a circulant
    ctx = field(k)
    a = param_a(ctx)
    n = ctx.q + 1
    h = chapman_build(ctx, a)
    pred = tamper_coset(*range(3, ctx.q * ctx.q - 1, n))
    bad = chapman_build(ctx, a)
    assert verify_representative_independence(bad)
    assert bad.conn == h.conn ^ {3}
    assert unpaired_distance(bad.conn, n) == (n - 3 if 3 in h.conn else 3)
    rows, undefined = chapman_rows_per_pair(ctx, a.value, bad.reps, pred)
    assert frozenset(iter_bits(rows[0])) == bad.conn and undefined == []
    assert not is_circulant(rows, rows[0], n)
    with pytest.raises(ValueError, match="negation"):
        chapman_compare(bad, circulant_labeling(ctx, param_a(ctx)))


def test_chapman_representative_independence_exhaustive_k2(field):
    h = chapman_build(field(2), param_a(field(2), 2))
    assert verify_representative_independence(h) == (4 * 3, None)


def test_chapman_representative_independence_exhaustive_k4(field):
    h = chapman_build(field(4), param_a(field(4)))
    rep = verify_representative_independence(h)
    assert rep and rep == (16 * 15, None)


def test_representative_independence_witness(field, tamper_coset):
    # w = g^(3q+1) lies in the class 3q+1 = 15 mod 17 beside g^15 and g^32,
    # which the pairs (0, 15) and (1, 16) read; no i < j <= q reads it, so
    # the connection set stays and only this check sees the flip
    ctx = field(4)
    a = param_a(ctx)
    h = chapman_build(ctx, a)
    tamper_coset(3 * ctx.q + 1)
    bad = chapman_build(ctx, a)
    assert bad.conn == h.conn
    rep = verify_representative_independence(bad)
    assert not rep and rep.witness == (15, 49)
    assert bad.table[15] != bad.table[49] and (15 - 49) % 17 == 0


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_representative_independence_witness_every_class(field, tamper_coset, r):
    # k = 2: the last entry r + 5 * 2 of each class r != 0 mod 5, flipped alone
    tamper_coset(r + 10)
    h = chapman_build(field(2), param_a(field(2), 2))
    assert verify_representative_independence(h).witness == (r, r + 10)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_chapman_table_rows_match_per_pair_oracle(field, k):
    # the class read against the pair-by-pair build, at every trace-1 a: the same
    # connection set and undefined pairs, and C_H = -C_H exactly when the rows are
    # the circulant of C_H
    ctx = field(k)
    for a in (x for x in range(ctx.q) if ctx.trace(x) == 1):
        h = chapman_build(ctx, param_a(ctx, a))
        rows, undefined = chapman_rows_per_pair(ctx, a, h.reps)
        assert h.conn == frozenset(iter_bits(rows[0]))
        assert list(h.undefined_pairs) == undefined == []
        assert verify_representative_independence(h)
        read = unpaired_distance(h.conn, h.n) is None
        assert read == is_circulant(rows, rows[0], h.n) and read


@pytest.mark.parametrize("k", [2, 4])
def test_chapman_undefined_pairs_match_the_per_pair_oracle(field, monkeypatch, k):
    # the predicate made undefined at g^1, which the pairs (0, 1) and (q-1, q) both
    # read (q^2 = 1 mod q^2 - 1), at g^(q+3), read by (1, 3), at g^(2q), read by
    # (1, q), and at g^(3q+1), read by no pair: the scan finds the pairs the
    # pair-by-pair build finds, in its order
    ctx = field(k)
    q = ctx.q
    a = param_a(ctx)
    exponents = {1, q + 3, 2 * q, 3 * q + 1}
    real = structure._coset_table

    def table(big, q, lam):
        t = bytearray(real(big, q, lam))
        for e in exponents:
            t[e] = structure.UNDEFINED
        return bytes(t)

    def pred(big, lam, w):
        return None if big.log_table()[w] in exponents else coset_bit(big, lam, w)

    monkeypatch.setattr(structure, "_coset_table", table)
    h = chapman_build(ctx, a)
    _, undefined = chapman_rows_per_pair(ctx, a.value, h.reps, pred)
    assert list(h.undefined_pairs) == undefined
    r = h.reps  # the pairs are held as reps
    assert {(r[0], r[1]), (r[q - 1], r[q]), (r[1], r[q])} <= set(undefined)


# tampered at k = 4: w = g^(3q+1), read by no pair, and g^(q+3), read by (1, 3)
@pytest.mark.parametrize("k, tamper", [(2, None), (4, None), (4, 3 * 16 + 1), (4, 16 + 3)])
def test_representative_independence_agrees_with_probes(field, tamper_coset, k, tamper):
    ctx = field(k)
    a = param_a(ctx)
    pred = coset_bit
    if tamper:
        pred = tamper_coset(tamper)
    h = chapman_build(ctx, a)
    verdict = bool(verify_representative_independence(h))
    assert verdict == representative_probes(ctx, a.value, h.reps, pred) == (tamper is None)


@pytest.mark.parametrize("k", [2, 4])
def test_chapman_spectra_match(std, k):
    ctx, a, g, _ = std(k)
    h = chapman_build(ctx, a)
    pairwise = spectrum_counts(chapman_rows_per_pair(ctx, a.value, h.reps)[0], h.n)
    assert pairwise == spectrum_counts(g.rows, g.n)
    assert circulant_spectrum(h.n, h.conn).counts == pairwise


@pytest.mark.parametrize("k", [2, 4, 6])
def test_chapman_isomorphic(field, k):
    # every trace-1 a, short alpha-orbits (8 of 32 at k = 6) included
    ctx = field(k)
    for a in (param_a(ctx, x) for x in range(ctx.q) if ctx.trace(x) == 1):
        lab = circulant_labeling(ctx, a)
        assert verify_circulant(build_graph(ctx, a), lab)
        cmp_result = chapman_compare(chapman_build(ctx, a), lab)
        assert bool(cmp_result), hex(a.value)
        assert cmp_result.verdict == "isomorphic-certified"
        assert cmp_result.multiplier is not None


def test_chapman_verified_isomorphism_reads_no_spectrum(std, monkeypatch):
    # isomorphic graphs have equal codegree spectra: a multiplier that maps one
    # certified connection set onto the other reports that without reading either
    ctx, a, _, lab = std(6)
    h = chapman_build(ctx, a)

    def no_spectrum(n, conn):
        raise AssertionError("a codegree spectrum was read")

    monkeypatch.setattr(structure, "circulant_spectrum", no_spectrum)
    assert chapman_compare(h, lab) == ("isomorphic-certified", 6, True)


def test_chapman_compare_negative_control(std):
    # a coset graph of the same degree on C = +-{1 .. q/4}: spectra cannot match
    ctx, a, _, lab = std(4)
    h = chapman_build(ctx, a)
    n, quarter = h.n, ctx.q // 4
    fake = h._replace(conn=frozenset({*range(1, quarter + 1), *range(n - quarter, n)}))
    assert len(fake.conn) == len(lab.conn)
    cmp_result = chapman_compare(fake, lab)
    assert not cmp_result
    assert cmp_result.verdict == "not-isomorphic"
    assert cmp_result.spectra_match is False


def test_chapman_compare_needs_two_certified_circulants(std):
    # a coset graph with an undefined pair, or either connection set not closed
    # under negation, defines no graph to compare: a bad argument
    ctx, a, _, lab = std(4)
    h = chapman_build(ctx, a)
    with pytest.raises(ValueError, match="undefined"):
        chapman_compare(h._replace(undefined_pairs=((0, 1),)), lab)
    with pytest.raises(ValueError, match="negation"):
        chapman_compare(h._replace(conn=h.conn ^ {1}), lab)
    with pytest.raises(ValueError, match="negation"):
        chapman_compare(h, _forged(lab, conn={1, 2, lab.n - 1}))
