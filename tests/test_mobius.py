import random

import pytest

from char2paley import (
    INF, QuadExtCtx, alpha_of, apply, factorize, find_generator_a, is_full_orbit,
    lambda_of, lambda_ratio_order, point_of_index, vertex_index,
)
from oracles import (
    IDENTITY, all_points, beta_of, compose, construct_a_for_order, det, inverse,
    mobius_map, orbit,
)


def trace1_elements(ctx):
    return [x for x in range(ctx.q) if ctx.trace(x) == 1]


def test_vertex_indexing(field):
    ctx = field(2)
    pts = all_points(ctx)
    assert pts[0] is INF and pts[1:] == [0, 1, 2, 3]
    for i, p in enumerate(pts):
        assert vertex_index(ctx, p) == i
        assert point_of_index(ctx, i) == p or (p is INF and point_of_index(ctx, i) is INF)
    with pytest.raises(ValueError):
        point_of_index(ctx, 5)


def test_mobius_map_rejects_singular(field):
    ctx = field(2)
    with pytest.raises(ValueError):
        mobius_map(ctx, 1, 1, 1, 1)
    m = mobius_map(ctx, 0, 2, 1, 1)
    assert det(ctx, m) == 2


def test_apply_alpha_examples(field):
    ctx = field(2)
    al = alpha_of(ctx, 2)
    assert apply(ctx, al, INF) == 0
    assert apply(ctx, al, 0) == 2
    assert apply(ctx, al, 1) is INF  # denominator 1+1 = 0


def test_alpha_rejects_trace0(field):
    with pytest.raises(ValueError):
        alpha_of(field(2), 1)


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_alpha_fixed_point_free(field, k):
    ctx = field(k)
    for a in trace1_elements(ctx):
        al = alpha_of(ctx, a)
        for p in all_points(ctx):
            assert apply(ctx, al, p) != p


@pytest.mark.parametrize("k", [2, 4, 6])
def test_alpha_inverse_formula(field, k):
    # alpha^(-1)(z) = 1 + a/z, matrix ((1, a), (1, 0))
    ctx = field(k)
    for a in trace1_elements(ctx):
        al = alpha_of(ctx, a)
        ali = inverse(ctx, al)
        assert ali == mobius_map(ctx, 1, a, 1, 0)
        for p in all_points(ctx):
            assert apply(ctx, ali, apply(ctx, al, p)) == p


@pytest.mark.parametrize("k", [2, 4, 8])
def test_compose_respects_apply(field, k):
    ctx = field(k)
    rng = random.Random(k)
    maps = []
    while len(maps) < 6:
        coefs = [rng.randrange(ctx.q) for _ in range(4)]
        try:
            maps.append(mobius_map(ctx, *coefs))
        except ValueError:
            continue
    for m1 in maps:
        for m2 in maps:
            m12 = compose(ctx, m1, m2)
            for p in all_points(ctx):
                assert apply(ctx, m12, p) == apply(ctx, m1, apply(ctx, m2, p))


def test_orbit_k2_frozen(field):
    ctx = field(2)
    assert orbit(ctx, alpha_of(ctx, 2), INF) == [INF, 0, 2, 3, 1]


def test_orbit_identity(field):
    ctx = field(4)
    assert orbit(ctx, IDENTITY, 7) == [7]


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_orbit_length_equals_ratio_order(field, k):
    ctx = field(k)
    ext = QuadExtCtx(ctx)
    for a in trace1_elements(ctx):
        length = len(orbit(ctx, alpha_of(ctx, a), INF))
        assert length == lambda_ratio_order(ext, a)
        assert is_full_orbit(ext, a) == (length == ctx.q + 1)


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8, 10])
def test_orbit_endpoint_identities(field, k):
    # v_1 = 0, v_2 = a, v_q = 1, v_(q-1) = 1+a, and v_(-i) = 1 + v_i throughout
    ctx = field(k)
    a = find_generator_a(ctx)
    v = orbit(ctx, alpha_of(ctx, a), INF)
    q = ctx.q
    assert len(v) == q + 1
    assert v[1] == 0 and v[2] == a and v[q] == 1 and v[q - 1] == 1 ^ a
    for i in range(1, q + 1):
        assert v[q + 1 - i] == 1 ^ v[i]


def test_find_generator_a_k2(field):
    assert find_generator_a(field(2)) == 2


# the defaults at k = 2..16 are the ones a search by whole alpha-orbit walks finds
GENERATOR_A = [0x2, 0x3, 0x8, 0x3, 0x21, 0xB, 0x20, 0x3, 0x80, 0x9, 0x202, 0x7, 0x200,
               0x3, 0x800, 0x3, 0x8002, 0xB, 0x20000]


@pytest.mark.parametrize("k, want", zip(range(2, 21), GENERATOR_A))
def test_find_generator_a_pinned(field, k, want):
    assert find_generator_a(field(k)) == want


@pytest.mark.parametrize("k", [2, 4, 8])
def test_fermat_prime_orders_every_a_generates(field, k):
    # q+1 in {5, 17, 257} is prime, so every trace-1 a gives a full orbit
    ctx = field(k)
    full = ctx.q + 1
    for a in trace1_elements(ctx):
        assert len(orbit(ctx, alpha_of(ctx, a), INF)) == full


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_generator_a_has_trace_one(field, k):
    ctx = field(k)
    assert ctx.trace(find_generator_a(ctx)) == 1


def test_beta_at_infinity_is_identity(field):
    assert beta_of(field(4), INF, find_generator_a(field(4))) == IDENTITY


@pytest.mark.parametrize("k", [2, 4, 6])
def test_beta_three_point_action(field, k):
    # beta sends y -> INF, alpha^(-1)(y) -> 1, alpha(y) -> 0
    ctx = field(k)
    for a in trace1_elements(ctx):
        al = alpha_of(ctx, a)
        ali = inverse(ctx, al)
        for y in range(ctx.q):
            b = beta_of(ctx, y, a)
            assert apply(ctx, b, y) is INF
            assert apply(ctx, b, apply(ctx, ali, y)) == 1
            assert apply(ctx, b, apply(ctx, al, y)) == 0


@pytest.mark.parametrize("k", [2, 4, 6])
def test_beta_is_alpha_power(field, k):
    # along the orbit labeling, beta at y = v_j acts as alpha^(-j)
    ctx = field(k)
    a = find_generator_a(ctx)
    v = orbit(ctx, alpha_of(ctx, a), INF)
    n = len(v)
    for j in range(n):
        b = beta_of(ctx, v[j], a)
        for i in range(n):
            assert apply(ctx, b, v[i]) == v[(i - j) % n]


# -- quadratic extension ----------------------------------------------------


def test_ext_basics(field):
    ext = QuadExtCtx(field(2))
    assert ext.a0 == 2  # smallest trace-1 element of GF(4)
    assert ext.conj(ext.conj((1, 3))) == (1, 3)
    z = (0, 1)
    # zeta^2 + zeta + a0 = 0
    assert ext.add(ext.add(ext.mul(z, z), z), (ext.a0, 0)) == (0, 0)


def test_ext_field_axioms_k2(field):
    ext = QuadExtCtx(field(2))
    elems = list(ext.elements())
    assert len(elems) == 16
    for u in elems:
        for v in elems:
            assert ext.mul(u, v) == ext.mul(v, u)
            # conjugation is a homomorphism
            assert ext.conj(ext.mul(u, v)) == ext.mul(ext.conj(u), ext.conj(v))
    rng = random.Random(1)
    for _ in range(2000):
        u, v, w = (rng.choice(elems) for _ in range(3))
        assert ext.mul(ext.mul(u, v), w) == ext.mul(u, ext.mul(v, w))
        assert ext.mul(u, ext.add(v, w)) == ext.add(ext.mul(u, v), ext.mul(u, w))


@pytest.mark.parametrize("k", [2, 4])
def test_conj_is_frobenius(field, k):
    # u^q = conj(u) is why the pair (g^i, g^j) of the coset build reads w = g^(qi + j)
    ext = QuadExtCtx(field(k))
    for u in ext.elements():
        assert ext.conj(u) == ext.pow(u, ext.base.q), u


@pytest.mark.parametrize("k", [2, 4])
def test_ext_inverses(field, k):
    ext = QuadExtCtx(field(k))
    for u in ext.elements():
        if u == (0, 0):
            with pytest.raises(ZeroDivisionError):
                ext.inv(u)
            continue
        assert ext.mul(u, ext.inv(u)) == (1, 0)


@pytest.mark.parametrize("k", [2, 4])
def test_ext_norm_and_trace_land_in_base(field, k):
    ext = QuadExtCtx(field(k))
    for u in ext.elements():
        nu = ext.norm(u)
        tu = ext.trace_to_base(u)
        assert ext.mul(u, ext.conj(u)) == (nu, 0)
        assert ext.add(u, ext.conj(u)) == (tu, 0)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_primitive_root(field, k):
    ext = QuadExtCtx(field(k))
    g = ext.primitive_root()
    assert ext.mult_order(g) == ext.order - 1


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_lambda_relations(field, k):
    ctx = field(k)
    ext = QuadExtCtx(ctx)
    for a in range(ctx.q):
        if ctx.trace(a) != 1:
            with pytest.raises(ValueError):
                lambda_of(ext, a)
            continue
        lam = lambda_of(ext, a)
        lam_bar = ext.conj(lam)
        assert ext.add(lam, lam_bar) == (1, 0)
        assert ext.mul(lam, lam_bar) == (a, 0)
        # lambda^2 + lambda + a = 0 in the extension
        acc = ext.add(ext.add(ext.mul(lam, lam), lam), (a, 0))
        assert acc == (0, 0)


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_ratio_order_divides_q_plus_1(field, k):
    ctx = field(k)
    ext = QuadExtCtx(ctx)
    for a in range(ctx.q):
        if ctx.trace(a) != 1:
            continue
        m = lambda_ratio_order(ext, a)
        assert (ctx.q + 1) % m == 0
        assert m > 2


def test_ratio_order_k2(field):
    assert lambda_ratio_order(QuadExtCtx(field(2)), 2) == 5


def test_construct_a_for_order(field):
    ext2 = QuadExtCtx(field(2))
    a = construct_a_for_order(ext2, 5)
    assert a in (2, 3)
    assert lambda_ratio_order(ext2, a) == 5

    ext6 = QuadExtCtx(field(6))
    for m in (5, 13, 65):
        a = construct_a_for_order(ext6, m)
        assert field(6).trace(a) == 1
        assert lambda_ratio_order(ext6, a) == m
    with pytest.raises(ValueError):
        construct_a_for_order(ext6, 2)
    with pytest.raises(ValueError):
        construct_a_for_order(ext6, 7)


def test_k6_divisors_from_factorization(field):
    # q+1 = 65 = 5 * 13: the admissible orders are exactly 5, 13, 65
    assert factorize(65) == {5: 1, 13: 1}
