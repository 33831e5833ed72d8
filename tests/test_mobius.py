import random

import pytest

from char2paley import (
    DEFAULT_POLYS, INF, FieldCtx, MobiusMap, alpha_of, apply, factorize, find_generator_a,
    is_full_orbit, is_irreducible, point_of_index, vertex_index,
)
from char2paley.gf2k import power
from char2paley.structure import _embedding
from oracles import (
    IDENTITY, all_points, beta_of, compose, construct_a_for_order, det, inverse,
    mobius_map, orbit, quadratic_extension, search_lambda,
)


def trace1_elements(ctx):
    return [x for x in range(ctx.q) if ctx.trace(x) == 1]


def orbit_length(ctx, a):
    """The length of the walked alpha_a-orbit of INF: the lambda-ratio order."""
    return len(orbit(ctx, alpha_of(ctx, a), INF))


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
    # the walked alpha_a-orbit of INF is as long as the order of lambda^q / lambda = lambda^(q-1)
    ctx = field(k)
    big, _, _ = quadratic_extension(ctx)
    for a in trace1_elements(ctx):
        length = orbit_length(ctx, a)
        ratio = power(big.mul, 1, search_lambda(ctx, a), ctx.q - 1)
        assert power(big.mul, 1, ratio, length) == 1
        assert all(power(big.mul, 1, ratio, length // p) != 1 for p in factorize(length))
        assert is_full_orbit(ctx, alpha_of(ctx, a)) == (length == ctx.q + 1)


# every field at k = 2..8, and every other reduction polynomial of degree 4 and 6
ORBIT_FIELDS = [(k, None) for k in range(2, 9)] + [
    (d, p) for d in (4, 6) for p in range(1 << d, 1 << d + 1)
    if is_irreducible(p) and p != DEFAULT_POLYS[d]]


@pytest.mark.parametrize("k, poly", ORBIT_FIELDS)
def test_is_full_orbit_matches_walked_orbit(k, poly):
    # sigma_b = alpha_a + b I for every trace-1 a and each even b up to the first whose
    # walked orbit of INF is full, the labeling's: short orbits included (k = 6, a = 0x20)
    ctx = FieldCtx(k, poly)
    short = 0
    for a in trace1_elements(ctx):
        for b in range(0, ctx.q, 2):
            sigma = MobiusMap(b, a, 1, b ^ 1)
            full = len(orbit(ctx, sigma, INF)) == ctx.q + 1
            assert is_full_orbit(ctx, sigma) == full, (hex(a), b)
            short += not full
            if full:
                break
    # q+1 prime (k = 2, 4, 8) leaves no short orbit; the other orders have some
    assert (short == 0) == (factorize(ctx.q + 1) == {ctx.q + 1: 1})


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


# -- GF(q^2) as the FieldCtx of degree 2k ----------------------------------


def test_ext_basics(field):
    # GF(4) inside GF(16) is 0, 1 and the roots g^5, g^10 of z^2 + z + 1; the
    # embedding sends z to the lesser root, the one a search finds
    ctx, big = field(2), field(4)
    exp = big.exp_table()
    phi = _embedding(ctx, big)
    assert {phi(x) for x in range(4)} == {0, 1, exp[5], exp[10]}
    rho = phi(2)
    assert rho == min(exp[5], exp[10]) == quadratic_extension(ctx)[1](2)
    assert big.mul(rho, rho) ^ rho ^ 1 == 0


@pytest.mark.parametrize("k", range(2, 21))
def test_ext_a0_is_tmask_lowest_bit(field, k):
    # a0 = tmask's lowest bit is the least trace-1 element, where find_generator_a
    # starts: tr(x) is the parity of x & tmask, and no x below a0 meets tmask
    ctx = field(k)
    a0 = ctx.tmask & -ctx.tmask
    assert ctx.trace(a0) == 1
    assert ctx.tmask & (a0 - 1) == 0
    if k <= 12:
        trace1 = trace1_elements(ctx)
        assert a0 == trace1[0]
        assert find_generator_a(ctx) == next(a for a in trace1 if orbit_length(ctx, a) == ctx.q + 1)


@pytest.mark.parametrize("k", [2, 4])
def test_conj_is_frobenius(field, k):
    # (g^e)^q = g^(qe mod q^2 - 1) is why the pair (g^i, g^j) of the coset build
    # reads w = g^(qi + j), and how its table reads T(w) in log coordinates
    big, q = field(2 * k), 1 << k
    exp, n1 = big.exp_table(), big.q - 1
    for e in range(n1):
        assert power(big.mul, 1, exp[e], q) == exp[q * e % n1], e


@pytest.mark.parametrize("k", [2, 4])
def test_ext_norm_and_trace_land_in_base(field, k):
    # the norm u u^q and T(u) = u + u^q lie in the embedded GF(q), where the
    # coset predicate divides and takes tr_q
    ctx, big = field(k), field(2 * k)
    phi = _embedding(ctx, big)
    base = {phi(x) for x in range(ctx.q)}
    for u in range(big.q):
        uq = power(big.mul, 1, u, ctx.q)
        assert big.mul(u, uq) in base and u ^ uq in base, u


@pytest.mark.parametrize("k", [2, 4, 6])
def test_primitive_root(field, k):
    # the powers of GF(q^2)'s generator walk all q^2 - 1 nonzero elements before
    # returning to 1, and its powers g^((q+1)t) are the embedded GF(q)*
    ctx, big = field(k), field(2 * k)
    g = big.generator()
    u, seen = g, {1}
    while u != 1:
        seen.add(u)
        u = big.mul(u, g)
    assert len(seen) == big.q - 1
    phi = _embedding(ctx, big)
    assert set(big.exp_table()[:big.q - 1:ctx.q + 1]) == {phi(x) for x in range(1, ctx.q)}


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_lambda_relations(field, k):
    # lambda, the lesser root of z^2 + z + a in GF(q^2) that chapman_build takes,
    # is the root a search finds; for tr(a) = 1 it lies outside GF(q), with
    # lambda + lambda^q = 1 and lambda lambda^q = a, and for tr(a) = 0 inside it
    ctx, big = field(k), field(2 * k)
    phi = _embedding(ctx, big)
    for a in range(ctx.q):
        lam, _ = big.solve_artin_schreier(phi(a))
        assert lam == search_lambda(ctx, a)
        assert big.mul(lam, lam) ^ lam == phi(a)
        lam_bar = power(big.mul, 1, lam, ctx.q)
        if ctx.trace(a) != 1:
            assert lam_bar == lam
            continue
        assert lam ^ lam_bar == 1
        assert big.mul(lam, lam_bar) == phi(a)


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_ratio_order_divides_q_plus_1(field, k):
    ctx = field(k)
    for a in trace1_elements(ctx):
        m = orbit_length(ctx, a)
        assert (ctx.q + 1) % m == 0
        assert m > 2


def test_ratio_order_k2(field):
    assert orbit_length(field(2), 2) == 5


def test_construct_a_for_order(field):
    a = construct_a_for_order(field(2), 5)
    assert a in (2, 3)
    assert orbit_length(field(2), a) == 5

    for m in (5, 13, 65):
        a = construct_a_for_order(field(6), m)
        assert field(6).trace(a) == 1
        assert orbit_length(field(6), a) == m
    with pytest.raises(ValueError):
        construct_a_for_order(field(6), 2)
    with pytest.raises(ValueError):
        construct_a_for_order(field(6), 7)


def test_k6_divisors_from_factorization(field):
    # q+1 = 65 = 5 * 13: the admissible orders are exactly 5, 13, 65
    assert factorize(65) == {5: 1, 13: 1}
