import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from char2paley import (
    INF, MATRIX_CAP, OutOfScopeError, QuadExtCtx, adjacency, apply,
    FieldCtx, build_graph, build_tournament, circulant_labeling, is_full_orbit, iter_bits,
    param_a, relabel, translate_rows, transpose, verify_circulant, vertex_index,
)
from char2paley import construct
from char2paley.construct import (
    CirculantLabeling, PaleyLikeGraph, _transposed, is_circulant, rotate,
)
from oracles import (
    all_points, beta_of, difference_rows, orbit_labeling, per_row_build, spectrum_counts,
    tile_transpose, trace_partition,
)

# C5 oracle at k=2, derived by hand over GF(4) with poly z^2+z+1, a = omega:
# enumeration [inf, 0, 1, w, w^2]; edges {inf,0},{inf,1},{0,w},{1,w^2},{w,w^2}
C5_EDGES = {(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)}


def test_param_a_default_and_validation(field):
    ctx = field(2)
    a = param_a(ctx)
    assert a.value == 2
    with pytest.raises(ValueError):
        param_a(ctx, 1)  # tr(1) = 0 for even k
    assert param_a(ctx, 3).value == 3


def test_adjacency_examples(field):
    ctx = field(2)
    a = param_a(ctx)
    # against infinity the bit is the plain trace
    assert adjacency(ctx, a, 0, INF) == 0
    assert adjacency(ctx, a, 2, INF) == 1
    # x=0, y=1: tr(omega) = 1, a non-edge
    assert adjacency(ctx, a, 0, 1) == 1
    with pytest.raises(ValueError):
        adjacency(ctx, a, 1, 1)
    with pytest.raises(ValueError):
        adjacency(ctx, a, INF, INF)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_adjacency_symmetric_even_k(field, k):
    ctx = field(k)
    a = param_a(ctx)
    pts = all_points(ctx)
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            assert adjacency(ctx, a, x, y) == adjacency(ctx, a, y, x)


@pytest.mark.parametrize("k", [3, 5])
def test_adjacency_antisymmetric_odd_k(field, k):
    ctx = field(k)
    a = param_a(ctx)
    pts = all_points(ctx)
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            assert adjacency(ctx, a, x, y) ^ adjacency(ctx, a, y, x) == 1


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_adjacency_matches_beta_route(field, k):
    # dual route: the predicate equals tr(beta_y(x)) on all pairs
    ctx = field(k)
    a = param_a(ctx)
    pts = all_points(ctx)
    for x in pts:
        for y in pts:
            if x == y:
                continue
            via_beta = apply(ctx, beta_of(ctx, y, a.value), x)
            want = ctx.trace(via_beta) if via_beta is not INF else None
            assert via_beta is not INF  # x != y never maps to the pole
            assert adjacency(ctx, a, x, y) == want


def test_build_graph_k2_is_c5(field):
    ctx = field(2)
    g = build_graph(ctx, param_a(ctx))
    assert g.n == 5
    edges = {(i, j) for i in range(5) for j in range(i + 1, 5) if g.rows[i] >> j & 1}
    assert edges == C5_EDGES


def test_build_graph_k4_order_and_regularity(field):
    ctx = field(4)
    g = build_graph(ctx, param_a(ctx))
    assert g.n == 17
    assert all(g.degree(i) == 8 for i in range(g.n))


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
def test_regularity(field, k):
    ctx = field(k)
    g = build_graph(ctx, param_a(ctx))
    assert g.n == ctx.q + 1
    assert {g.degree(i) for i in range(g.n)} == {ctx.q // 2}


@pytest.mark.parametrize("k", [3, 5, 7])
def test_tournament_out_degrees(field, k):
    ctx = field(k)
    t = build_tournament(ctx, param_a(ctx))
    assert t.n == ctx.q + 1
    assert {t.degree(i) for i in range(t.n)} == {ctx.q // 2}
    # exactly one arc per unordered pair, no self-arcs
    for i in range(t.n):
        assert t.rows[i] >> i & 1 == 0
        for j in range(i + 1, t.n):
            assert (t.rows[i] >> j & 1) + (t.rows[j] >> i & 1) == 1


def test_tournament_k3_arcs_at_infinity(field):
    ctx = field(3)
    t = build_tournament(ctx, param_a(ctx))
    for w in range(ctx.q):
        if ctx.trace(w) == 0:
            assert t.has_edge(w, INF)
        else:
            assert t.has_edge(INF, w)


def test_neighborhood_of_infinity_is_t0(field):
    ctx = field(4)
    g = build_graph(ctx, param_a(ctx))
    t0 = set(trace_partition(ctx)[0])
    nbrs = {w for w in range(ctx.q) if g.has_edge(INF, w)}
    assert nbrs == t0


@pytest.mark.parametrize("k", [2, 4, 6])
def test_neighborhood_of_zero(field, k):
    ctx = field(k)
    a = param_a(ctx)
    g = build_graph(ctx, a)
    finite_nbrs = {y for y in range(1, ctx.q) if g.has_edge(0, y)}
    want = {y for y in range(1, ctx.q) if ctx.trace(ctx.div(a.value, y)) == 0}
    assert finite_nbrs == want
    assert g.has_edge(0, INF)  # tr(0) = 0


def _predicate_rows(ctx, a):
    """Dense rows filled pair by pair from the adjacency predicate alone."""
    pts = [INF, *range(ctx.q)]
    return tuple(sum(1 << j for j, y in enumerate(pts) if j != i and adjacency(ctx, a, x, y) == 0)
                 for i, x in enumerate(pts))


def _dense(ctx, a):
    return (build_tournament if ctx.k % 2 else build_graph)(ctx, a)


@pytest.mark.parametrize("k", range(2, 7))
def test_build_matches_predicate_every_parameter(field, k):
    ctx = field(k)
    for a_val in range(ctx.q):
        if ctx.trace(a_val) == 1:
            a = param_a(ctx, a_val)
            assert _dense(ctx, a).rows == _predicate_rows(ctx, a), f"a = {a_val:#x}"


@pytest.mark.parametrize("k", [7, 8, 9])
def test_build_matches_predicate_default_parameter(field, k):
    ctx = field(k)
    a = param_a(ctx)
    assert _dense(ctx, a).rows == _predicate_rows(ctx, a)


@pytest.mark.parametrize("k, poly", [(4, 0x19), (6, 0x49)])
def test_build_matches_predicate_other_poly(k, poly):
    ctx = FieldCtx(k, poly)
    for a_val in range(ctx.q):
        if ctx.trace(a_val) == 1:
            a = param_a(ctx, a_val)
            assert build_graph(ctx, a).rows == _predicate_rows(ctx, a), f"a = {a_val:#x}"


def test_build_on_fresh_equal_context(field):
    # the row tables are cached per equal context: a fresh one, whose own
    # lookup tables were never built, must still build
    want = build_graph(field(4), param_a(field(4), 0x8)).rows
    assert build_graph(FieldCtx(4), param_a(FieldCtx(4), 0x8)).rows == want


def test_parity_mismatch_errors(field):
    with pytest.raises(ValueError):
        build_graph(field(3), param_a(field(3)))
    with pytest.raises(ValueError):
        build_tournament(field(2), param_a(field(2)))


def test_matrix_cap(field):
    ctx = field(14)
    a_val = next(x for x in range(ctx.q) if ctx.trace(x) == 1)
    a = param_a(ctx, a_val)
    assert ctx.q + 1 > MATRIX_CAP
    with pytest.raises(OutOfScopeError):
        build_graph(ctx, a)


def test_labeling_k2_frozen(field):
    ctx = field(2)
    lab = circulant_labeling(ctx, param_a(ctx))
    assert lab.vertices == (INF, 0, 2, 3, 1)
    assert sorted(lab.conn) == [1, 4]


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8, 10])
def test_labeling_structure(field, k):
    ctx = field(k)
    a = param_a(ctx)
    lab = circulant_labeling(ctx, a)
    n = ctx.q + 1
    assert lab.n == n
    assert lab.vertices[0] is INF
    assert len(set(map(str, lab.vertices))) == n  # bijection onto PG(1,q)
    assert len(lab.conn) == ctx.q // 2
    if k % 2 == 0:
        assert all((n - d) % n in lab.conn for d in lab.conn)


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
def test_labeling_doubling_identity(field, k):
    # v_(2i) = v_i^2 + a for every i >= 1
    ctx = field(k)
    a = param_a(ctx)
    lab = circulant_labeling(ctx, a)
    n = lab.n
    for i in range(1, n):
        assert lab.vertices[2 * i % n] == ctx.sqr(lab.vertices[i]) ^ a.value


@pytest.mark.parametrize("k", [2, 4, 6])
def test_verify_circulant(field, k):
    ctx = field(k)
    a = param_a(ctx)
    g = build_graph(ctx, a)
    lab = circulant_labeling(ctx, a)
    assert verify_circulant(g, lab)


def test_verify_circulant_negative_control(field):
    ctx = field(4)
    a = param_a(ctx)
    g = build_graph(ctx, a)
    lab = circulant_labeling(ctx, a)
    verts = list(lab.vertices)
    verts[1], verts[2] = verts[2], verts[1]  # shuffle two labels
    tampered = CirculantLabeling(a, lab.b, tuple(verts), lab.conn)
    assert not verify_circulant(g, tampered)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_verify_circulant_agrees_with_predicate(field, k):
    # a matrix filled from the adjacency predicate alone, and every pair of
    # it checked against the connection set
    ctx = field(k)
    a = param_a(ctx)
    lab = circulant_labeling(ctx, a)
    n = lab.n
    v = lab.vertices
    idx = [vertex_index(ctx, p) for p in v]
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and adjacency(ctx, a, v[i], v[j]) == 0:
                rows[idx[i]] |= 1 << idx[j]
                assert (j - i) % n in lab.conn
            elif i != j:
                assert (j - i) % n not in lab.conn
    assert verify_circulant(PaleyLikeGraph(ctx, a, n, tuple(rows)), lab)


@pytest.mark.parametrize("k", [4, 8])
def test_verify_circulant_rejects_flipped_edge(field, k):
    ctx = field(k)
    a = param_a(ctx)
    g = build_graph(ctx, a)
    lab = circulant_labeling(ctx, a)
    for i, j in ((0, 1), (1, g.n - 1), (3, 5)):
        rows = list(g.rows)
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
        assert not verify_circulant(PaleyLikeGraph(ctx, a, g.n, tuple(rows)), lab)
    # a stray bit beyond the last vertex is not an edge of the circulant either
    rows = list(g.rows)
    rows[2] |= 1 << g.n
    assert not verify_circulant(PaleyLikeGraph(ctx, a, g.n, tuple(rows)), lab)


@pytest.mark.parametrize("k", range(2, 9))
def test_circulant_labeling_every_parameter(field, k):
    # sigma = alpha at a + b^2 + b, conjugated by x -> x + b, is an automorphism
    # at every trace-1 a; b = 0 exactly when alpha's own orbit is full
    ctx = field(k)
    ext = QuadExtCtx(ctx)
    short = 0
    for a_val in range(ctx.q):
        if ctx.trace(a_val) != 1:
            continue
        a = param_a(ctx, a_val)
        lab = circulant_labeling(ctx, a)
        b = lab.b
        assert (b == 0) == is_full_orbit(ext, a_val), f"a = {a_val:#x}"
        assert [c for c in range(0, b + 1, 2)
                if is_full_orbit(ext, a_val ^ ctx.sqr(c) ^ c)] == [b]
        v, n = lab.vertices, lab.n
        assert v[1] == b
        assert all(v[2 * i % n] == ctx.sqr(v[i]) ^ a_val for i in range(1, n))
        assert all(v[n - i] == 1 ^ v[i] for i in range(1, n))
        assert verify_circulant(_dense(ctx, a), lab), f"a = {a_val:#x}"
        short += b != 0
    # the short-orbit parameters (8 of 32 at k = 6) are covered too
    assert short == {2: 0, 3: 1, 4: 0, 5: 6, 6: 8, 7: 22, 8: 0}[k]


def _assert_walk_matches_orbit(ctx, a_val):
    lab = circulant_labeling(ctx, param_a(ctx, a_val))
    b, verts, conn, index = orbit_labeling(ctx, a_val)
    assert (lab.b, lab.vertices, lab.conn, lab.index) == (b, verts, conn, index), \
        f"k = {ctx.k}, a = {a_val:#x}"
    assert lab.vertices[0] is INF


@pytest.mark.parametrize("k", range(2, 9))
def test_labeling_walk_matches_orbit_every_parameter(field, k):
    # the table walk sigma(z) = a'/(z + b + 1) + b against apply() along the orbit
    ctx = field(k)
    for a_val in range(ctx.q):
        if ctx.trace(a_val) == 1:
            _assert_walk_matches_orbit(ctx, a_val)


@pytest.mark.parametrize("k", [10, 12, 14, 16])
def test_labeling_walk_matches_orbit_sampled(field, k):
    ctx = field(k)
    rng = random.Random(k)
    t1 = [x for x in range(ctx.q) if ctx.trace(x) == 1]
    for a_val in rng.sample(t1, 3 if k < 16 else 1):
        _assert_walk_matches_orbit(ctx, a_val)


@pytest.mark.parametrize("k, a_val", [(6, 0x20), (10, 0x88)])
def test_labeling_walk_matches_orbit_short_orbit(field, k, a_val):
    # b != 0: the walk runs sigma, not alpha
    ctx = field(k)
    assert circulant_labeling(ctx, param_a(ctx, a_val)).b != 0
    _assert_walk_matches_orbit(ctx, a_val)


@pytest.mark.parametrize("k, a_val", [(6, 0x20), (10, 0x88)])
def test_labeling_short_orbit_raises(field, monkeypatch, k, a_val):
    # forced to b = 0, the walk meets b + 1 -> INF early and the length check fires
    ctx = field(k)
    monkeypatch.setattr(construct, "is_full_orbit", lambda ext, a: True)
    with pytest.raises(AssertionError, match="orbit length"):
        circulant_labeling(ctx, param_a(ctx, a_val))


def test_labeling_is_read_only(field):
    ctx = field(4)
    lab = circulant_labeling(ctx, param_a(ctx))
    index = lab.index
    for name in ("a", "b", "vertices", "conn", "index"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(lab, name, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(lab, name)
    assert lab.index is index and lab.vertices[0] is INF and not hasattr(lab, "pos")
    assert repr(lab) == f"CirculantLabeling(a={lab.a!r}, b=0x0, n=17, |conn|=8)"


@pytest.mark.parametrize("k", [3, 5, 7, 9, 11])
def test_verify_circulant_tournament(field, k):
    # conn holds INF's out-neighbours, as the rows do: alpha is an automorphism
    ctx = field(k)
    a = param_a(ctx)
    assert verify_circulant(build_tournament(ctx, a), circulant_labeling(ctx, a))


@pytest.mark.parametrize("poly", [0x19, 0x1F])
def test_poly_choice_gives_isomorphic_graph_k4(field, poly):
    # changing the reduction polynomial changes labels, not the graph:
    # order 17 is prime, so a connection-set multiplier is a full certificate
    from char2paley import FieldCtx
    ref = circulant_labeling(field(4), param_a(field(4)))
    ctx = FieldCtx(4, poly)
    lab = circulant_labeling(ctx, param_a(ctx))
    n = 17
    matches = [m for m in range(1, n)
               if {m * d % n for d in ref.conn} == set(lab.conn)]
    assert matches, f"no multiplier relates conn sets for poly {poly:#x}"


def test_poly_choice_k6_spectra_agree(field):
    # composite order: certify agreement through the exact codegree spectrum
    from char2paley import FieldCtx
    ref_ctx = field(6)
    g_ref = build_graph(ref_ctx, param_a(ref_ctx))
    ctx = FieldCtx(6, 0x49)
    g_alt = build_graph(ctx, param_a(ctx))
    assert spectrum_counts(g_alt.rows, g_alt.n) == spectrum_counts(g_ref.rows, g_ref.n)


def test_tournament_circulant_relation(field):
    # arcs along the labeling: v_i -> v_j exactly when (j-i) mod n is in conn
    ctx = field(3)
    a = param_a(ctx)
    t = build_tournament(ctx, a)
    lab = circulant_labeling(ctx, a)
    n = lab.n
    idx = [vertex_index(ctx, v) for v in lab.vertices]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            want = (j - i) % n in lab.conn
            assert bool(t.rows[idx[i]] >> idx[j] & 1) == want


# -- bit and permutation primitives against their per-bit definitions -------


@st.composite
def square_rows(draw):
    """n <= 200 rows of n bits, so set bits cross 64-bit word boundaries."""
    n = draw(st.integers(1, 200))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    return n, rows, perm


@settings(max_examples=60, deadline=None)
@given(square_rows())
def test_primitives_match_per_bit_definitions(case):
    n, rows, perm = case
    for r in rows:
        assert list(iter_bits(r)) == [j for j in range(n) if r >> j & 1]
    moved = [0] * n
    flipped = [0] * n
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                moved[perm[i]] |= 1 << perm[j]
                flipped[j] |= 1 << i
    assert relabel(rows, perm) == moved
    assert transpose(rows) == flipped


@st.composite
def field_rows(draw):
    """k <= 6, q+1 rows of q+1 bits, and a field element b."""
    k = draw(st.integers(2, 6))
    n = (1 << k) + 1
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return k, rows, draw(st.integers(0, (1 << k) - 1))


@settings(max_examples=60, deadline=None)
@given(field_rows())
def test_translate_matches_per_bit_definition_and_relabel(case):
    k, rows, b = case
    ctx = FieldCtx(k)
    moved = [0, *(1 + (x ^ b) for x in range(ctx.q))]  # the dense row of each vertex's image
    out = translate_rows(rows, b, ctx)
    for r, i in zip(rows, moved):
        want = r & 1 | sum(1 << 1 + (x ^ b) for x in range(ctx.q) if r >> 1 + x & 1)
        assert out[i] == want
    assert out == relabel(rows, moved)


def test_translate_rejects_bad_input(field):
    ctx = field(3)
    with pytest.raises(ValueError):
        translate_rows([0b11, *[0] * ctx.q], -1, ctx)  # b is no field element
    with pytest.raises(ValueError):
        translate_rows([0] * ctx.q, 1, ctx)  # q rows, not q+1
    with pytest.raises(ValueError):
        translate_rows([0] * ctx.q + [1 << ctx.q + 1], 1, ctx)  # a bit beyond n
    with pytest.raises(ValueError):
        translate_rows([0] * (ctx.q + 1), ctx.q, ctx)  # b is no field element


@given(st.integers(0, 1 << 300))
def test_iter_bits_any_width(x):
    assert sum(1 << j for j in iter_bits(x)) == x


def test_transpose_across_column_blocks():
    # n = 600 spans three column blocks, the last one short
    rng = random.Random(5)
    n = 600
    rows = [rng.getrandbits(n) for _ in range(n)]
    want = [sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n)]
    assert transpose(rows) == want


def _per_bit_transpose(rows):
    n = len(rows)
    return [sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n)]


@st.composite
def tiled_rows(draw):
    """n rows of n bits at the tile edges or any width up to 600, dense or sparse."""
    n = draw(st.one_of(st.sampled_from([1, 2, 255, 256, 257, 511, 513]), st.integers(1, 600)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    sparse = draw(st.booleans())
    rows = [rng.getrandbits(n) & (rng.getrandbits(n) if sparse else -1) for _ in range(n)]
    return n, rows, rng


@settings(max_examples=25, deadline=None)
@given(tiled_rows())
def test_transpose_kernel_matches_per_bit_transpose(case):
    n, rows, rng = case
    want = _per_bit_transpose(rows)
    assert transpose(rows) == want
    # rows may carry bits at or above column n in the last tile: the kernel ignores them
    edge = -n % 256  # columns n .. n + edge - 1 lie in the last 256-column block
    junk = [r | rng.getrandbits(edge) << n for r in rows]
    assert list(_transposed(junk)) == want
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [0] * n
    for i in range(n):
        moved[perm[i]] = sum(1 << perm[j] for j in range(n) if rows[i] >> j & 1)
    assert relabel(rows, perm) == moved


@pytest.mark.parametrize("n", [256, 257, 513])
def test_transpose_rejects_bits_beyond_n_in_any_block(n):
    for i in (0, n - 1):
        rows = [0] * n
        rows[i] = 1 << n
        with pytest.raises(ValueError, match="at or above n"):
            transpose(rows)
        with pytest.raises(ValueError, match="at or above n"):
            relabel(rows, list(range(n)))


def test_tile_oracle_matches_per_bit_transpose():
    rng = random.Random(11)
    for n in (1, 255, 257, 513):
        rows = [rng.getrandbits(n) for _ in range(n)]
        assert tile_transpose(rows) == _per_bit_transpose(rows)


@pytest.mark.parametrize("n, sparse", [(2049, False), (2049, True), (4097, False), (4097, True)])
def test_transpose_kernel_matches_tile_oracle_on_seeded_rows(n, sparse):
    # 2049 rows take two bands of unequal width above 7 zero padding rows,
    # 4097 rows three bands and a last byte column holding one column
    rng = random.Random(n + sparse)
    rows = [rng.getrandbits(n) & (rng.getrandbits(n) if sparse else -1) for _ in range(n)]
    want = tile_transpose(rows)
    assert transpose(rows) == want
    junk = [r | rng.getrandbits(-n % 256) << n for r in rows]
    assert list(_transposed(junk)) == want


def test_transpose_kernel_matches_tile_oracle_on_orbit_rows(std):
    _, _, g, lab = std(12)
    rows = [g.rows[c] for c in lab.index]
    assert transpose(rows) == tile_transpose(rows)


@pytest.mark.parametrize("i, j", [(5, 4096),      # column n - 1, alone in the last byte column
                                  (4096, 3),      # row n - 1, the last above the padding rows
                                  (1000, 2000)])  # inside the middle band
def test_verify_circulant_rejects_one_flipped_bit_at_dense_cap(std, i, j):
    ctx, a, g, lab = std(12)
    rows = list(g.rows)
    rows[i] ^= 1 << j
    assert not verify_circulant(PaleyLikeGraph(ctx, a, g.n, tuple(rows)), lab)
    assert transpose(rows) == tile_transpose(rows)


def test_transpose_kernel_scratch_is_bounded(std):
    # the kernel copies out at most 256 bytes of each row at a time: about
    # 0.7 MiB at n = 4097, where one byte copy of the matrix would take 2 MiB
    _, _, g, lab = std(12)
    rows = [g.rows[c] for c in lab.index]
    tracemalloc.start()
    try:
        for _ in _transposed(rows):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def _difference_rows_by_x(ctx, a):
    walked = dict(difference_rows(ctx, a))
    assert sorted(walked) == list(range(ctx.q))  # the Gray walk visits every x once
    return walked


@pytest.mark.parametrize("k, poly", [(2, None), (3, None), (4, None), (5, None), (6, None),
                                     (4, 0x19), (6, 0x49)])
def test_diagonal_identity(field, k, poly):
    # bit u of the Gray-walked R_x is D_u[x] = 1 + tr(a/u) + tr(x w_u), the edge
    # bit of {x, x + u}, for every x, u and trace-1 a; bit 0 (the loop) is clear
    ctx = field(k, poly)
    for a_val in range(ctx.q):
        if ctx.trace(a_val) != 1:
            continue
        a = param_a(ctx, a_val)
        for x, r in _difference_rows_by_x(ctx, a).items():
            assert r >> ctx.q == 0 and r & 1 == 0, (a_val, x)
            for u in range(1, ctx.q):
                assert r >> u & 1 == 1 ^ adjacency(ctx, a, x, x ^ u), (a_val, u, x)


def test_difference_rows_across_column_blocks(field):
    # at k = 9 the difference rows span two 256-bit blocks: u on both sides of 256
    ctx = field(9)
    a = param_a(ctx)
    walked = _difference_rows_by_x(ctx, a)
    rng = random.Random(9)
    for u in rng.sample(range(1, 256), 20) + rng.sample(range(256, ctx.q), 20):
        assert (sum((r >> u & 1) << x for x, r in walked.items())
                == sum((1 ^ adjacency(ctx, a, x, x ^ u)) << x for x in range(ctx.q))), u


@pytest.mark.parametrize("k, a", [(k, None) for k in range(2, 13)] + [(6, 0x20), (10, 0x88)])
def test_build_matches_per_row_build(field, k, a):
    # the translation carried along the Gray walk gives the rows that
    # translating each difference row by its own x gives, at both parities
    # and at short-orbit parameters
    ctx = field(k)
    a = param_a(ctx, a)
    g = (build_tournament if k % 2 else build_graph)(ctx, a)
    assert list(g.rows) == per_row_build(ctx, a)


@pytest.mark.parametrize("k", [8, 9])
def test_verify_circulant_rejects_one_flipped_bit(field, k):
    # n = 257 and 513: the last byte column holds one column, above 7 padding rows
    ctx = field(k)
    a = param_a(ctx)
    g = (build_tournament if k % 2 else build_graph)(ctx, a)
    lab = circulant_labeling(ctx, a)
    n = g.n
    assert verify_circulant(g, lab)
    for i, j in ((5, 7),          # first block
                 (5, n - 1),      # last byte column
                 (n - 1, 3),      # last row above the padding rows
                 (0, 9),          # INF row
                 (9, 0)):         # INF column
        rows = list(g.rows)
        rows[i] ^= 1 << j
        assert not verify_circulant(PaleyLikeGraph(ctx, a, n, tuple(rows)), lab), (i, j)


def test_primitives_reject_bits_beyond_n():
    rows = [0b1, 0b100]  # bit 2 is no vertex of a 2-vertex matrix
    with pytest.raises(ValueError):
        relabel(rows, [1, 0])
    with pytest.raises(ValueError):
        transpose(rows)


@pytest.mark.parametrize("perm", [[0, 0], [1, 1], [1], [0, 1, 2], [0, 2], [-1, 0]])
def test_relabel_rejects_non_permutations(perm):
    # a repeated, missing or foreign target is no renaming of range(2)
    with pytest.raises(ValueError, match="not a permutation"):
        relabel([0b10, 0b01], perm)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1), st.integers(-400, 400))))
def test_rotate_and_circulance_match_per_bit_definitions(case):
    n, mask, i = case
    want = sum(1 << (d + i) % n for d in range(n) if mask >> d & 1)
    assert rotate(mask, i, n) == want
    rows = [sum(1 << (j + d) % n for d in range(n) if mask >> d & 1) for j in range(n)]
    assert is_circulant(rows, mask, n)
    rows[i % n] ^= 1 << (i * 7 % n)  # one bit of one row
    assert not is_circulant(rows, mask, n)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_labeling_index_and_orbit_rows(field, k):
    ctx = field(k)
    a = param_a(ctx)
    g = build_graph(ctx, a)
    lab = circulant_labeling(ctx, a)
    assert lab.index == tuple(vertex_index(ctx, p) for p in lab.vertices)
    perm = [0] * lab.n
    for i, r in enumerate(lab.index):
        perm[r] = i
    assert list(lab.orbit_rows(g.rows)) == relabel(g.rows, perm)
    # the positional constructor still works, and v_0 must be INF
    assert CirculantLabeling(a, lab.b, lab.vertices, lab.conn).index == lab.index
    swapped = (lab.vertices[1], lab.vertices[0], *lab.vertices[2:])
    with pytest.raises(ValueError, match="not INF and then a permutation"):
        CirculantLabeling(a, lab.b, swapped, lab.conn)


def test_labeling_constructor_rejects_inconsistent_fields(field):
    # one negative control per check: the vertices and the connection set
    ctx = field(4)
    a = param_a(ctx)
    lab = circulant_labeling(ctx, a)
    n = lab.n

    def make(verts, conn=lab.conn):
        return CirculantLabeling(a, lab.b, tuple(verts), conn)

    assert make(lab.vertices).index == lab.index
    v = list(lab.vertices)
    for verts in ([*v[:3], ctx.q, *v[4:]],   # a point off PG(1, q)
                  [*v[:3], -1, *v[4:]],      # a negative one
                  [ctx.q, *v[1:]],           # INF traded for a point off the line
                  [p for p in v if p != 0],  # one point short
                  [v[1], v[0], *v[2:]],      # v_0 is not INF
                  [*v[:3], INF, *v[4:]],     # a second INF
                  [*v[:3], v[2], *v[4:]]):   # a repeated point
        with pytest.raises(ValueError, match="not INF and then a permutation"):
            make(verts)
    for conn in (lab.conn | {0}, lab.conn | {n}, lab.conn | {-1}):
        with pytest.raises(ValueError, match="connection set"):
            make(v, conn=frozenset(conn))
