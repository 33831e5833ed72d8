import random

import pytest
from hypothesis import given, strategies as st

from char2paley import DEFAULT_POLYS, K_MAX, FieldCtx, factorize, is_irreducible
from char2paley.gf2k import poly_degree, poly_mod
from oracles import trace_partition


# -- an independent irreducibility oracle (distinct-degree style, not the
#    package's trial-division route): p of degree k is irreducible over F_2
#    iff z^(2^k) = z (mod p) and gcd(z^(2^(k/t)) - z, p) = 1 for prime t | k.

def _polymulmod(a, b, m):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if poly_degree(a) >= poly_degree(m):
            a ^= m << (poly_degree(a) - poly_degree(m))
    return poly_mod(r, m)


def _poly_gcd(a, b):
    while b:
        a, b = b, poly_mod(a, b)
    return a


def _frob_power(i, m):
    # z^(2^i) mod m by repeated squaring of z
    r = 0b10
    for _ in range(i):
        r = _polymulmod(r, r, m)
    return r


def oracle_irreducible(p):
    k = poly_degree(p)
    if k < 1:
        return False
    if _frob_power(k, p) != poly_mod(0b10, p):
        return False
    for t in factorize(k):
        if _poly_gcd(_frob_power(k // t, p) ^ 0b10, p) != 1:
            return False
    return True


@pytest.mark.parametrize("k", range(2, K_MAX + 1))
def test_default_polys_are_smallest_irreducible(k):
    entry = DEFAULT_POLYS[k]
    assert poly_degree(entry) == k
    assert oracle_irreducible(entry)
    assert is_irreducible(entry)
    for m in range(1 << k, entry):
        assert not is_irreducible(m)
        assert not oracle_irreducible(m)


def test_field_new_defaults_and_rejects():
    assert FieldCtx(2).poly == 0b111
    assert FieldCtx(4).poly == 0b10011
    with pytest.raises(ValueError):
        FieldCtx(2, 0b101)  # z^2 + 1 = (z+1)^2
    with pytest.raises(ValueError):
        FieldCtx(1)
    with pytest.raises(ValueError):
        FieldCtx(K_MAX + 1)
    with pytest.raises(ValueError):
        FieldCtx(4, 0b111)  # degree 2, not 4


def test_negative_poly_rejected():
    # -0x13 has the bit length of a degree-4 polynomial but is no polynomial
    with pytest.raises(ValueError):
        FieldCtx(4, -0x13)


def test_add_examples(field):
    ctx = field(2)
    w = 0b10
    assert ctx.add(w, 0) == w
    assert ctx.add(w, w) == 0
    assert ctx.add(w, 1) == 0b11  # omega + 1 = omega^2 under z^2+z+1


def test_mul_examples(field):
    ctx = field(2)
    w = 0b10
    assert ctx.mul(w, 1) == w
    assert ctx.mul(w, w) == (w ^ 1)  # z^2 = z + 1
    ctx4 = field(4)
    assert ctx4.mul(0b10, 0b1000) == 0b11  # z * z^3 = z^4 = z + 1


def test_inv_examples(field):
    ctx = field(2)
    assert ctx.inv(1) == 1
    assert ctx.inv(0b10) == 0b11  # omega * omega^2 = omega^3 = 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_inverses_exhaustive(field, k):
    ctx = field(k)
    for x in range(1, ctx.q):
        assert ctx.mul(x, ctx.inv(x)) == 1


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_table_mul_matches_raw(field, k):
    ctx = field(k)
    for x in range(ctx.q):
        for y in range(ctx.q):
            assert ctx.mul(x, y) == ctx._mul_raw(x, y)


def test_inv_matches_raw_mul(field):
    # the table inverse against the table-free multiply
    ctx = field(8)
    for x in range(1, ctx.q):
        assert ctx._mul_raw(x, ctx.inv(x)) == 1


@pytest.mark.parametrize("k", range(2, K_MAX + 1))
def test_tables_above_2_16_match_raw(k):
    # the tables serve every k; a fresh context, so the session cache keeps no
    # tables of the sizes above 2^16
    ctx = FieldCtx(k)
    rng = random.Random(k)
    for _ in range(2000):
        x, y = rng.randrange(ctx.q), rng.randrange(1, ctx.q)
        assert ctx.mul(x, y) == ctx._mul_raw(x, y)
        assert ctx._mul_raw(y, ctx.inv(y)) == 1
    # each step of the split-multiply walk is one multiplication by g, and the
    # doubled table wraps around at q - 1
    g, log, exp = ctx.generator(), ctx.log_table(), ctx.exp_table()
    q1 = ctx.q - 1
    assert len(exp) == 2 * q1 and exp[0] == exp[q1] == 1
    assert ctx._mul_raw(exp[-1], g) == 1  # a negative exponent reads from the end
    steps = range(q1) if k <= 12 else [q1 - 1, *(rng.randrange(q1) for _ in range(2000))]
    for s in steps:
        assert exp[s + 1] == ctx._mul_raw(exp[s], g)
        assert exp[s + q1] == exp[s] and log[exp[s]] == s


@pytest.mark.parametrize("k", [2, 3, 4])
def test_field_axioms_exhaustive(field, k):
    ctx = field(k)
    q = ctx.q
    for x in range(q):
        for y in range(q):
            assert ctx.mul(x, y) == ctx.mul(y, x)
            for z in range(q):
                assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
                assert ctx.mul(x, y ^ z) == ctx.mul(x, y) ^ ctx.mul(x, z)


def test_field_axioms_randomized_k12(field):
    ctx = field(12)
    rng = random.Random(0)
    for _ in range(100_000):
        x = rng.randrange(ctx.q)
        y = rng.randrange(ctx.q)
        z = rng.randrange(ctx.q)
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
        assert ctx.mul(x, y ^ z) == ctx.mul(x, y) ^ ctx.mul(x, z)
        assert ctx.mul(x, y) == ctx.mul(y, x)


@given(st.integers(2, 10), st.data())
def test_mul_properties_hypothesis(k, data):
    ctx = FieldCtx(k)
    x = data.draw(st.integers(0, ctx.q - 1))
    y = data.draw(st.integers(0, ctx.q - 1))
    z = data.draw(st.integers(0, ctx.q - 1))
    assert ctx.mul(x, y) == ctx.mul(y, x)
    assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
    assert ctx.mul(x, y ^ z) == ctx.mul(x, y) ^ ctx.mul(x, z)


def test_trace_examples(field):
    assert field(2).trace(0) == 0
    assert field(2).trace(0b10) == 1  # omega + omega^2 = 1
    for k in range(2, 13):
        want = 0 if k % 2 == 0 else 1
        assert field(k).trace(1) == want


def _frobenius_trace(ctx, x):
    # x + x^2 + ... + x^(q/2), squaring with the table-free multiply
    t = s = x
    for _ in range(ctx.k - 1):
        s = ctx._mul_raw(s, s)
        t ^= s
    return t


@pytest.mark.parametrize("k, poly", [*((k, None) for k in range(2, 21)),
                                     (4, 0x19), (4, 0x1F), (6, 0x49), (8, 0x11D), (11, 0xFFB)])
def test_trace_table_matches_frobenius_sum(field, k, poly):
    ctx = field(k, poly)
    if k <= 14:
        xs = range(ctx.q)
    else:
        # a full sweep of the Frobenius oracle is too slow: the basis plus a seeded sample
        rng = random.Random(k)
        xs = [*(1 << i for i in range(k)), *(rng.randrange(ctx.q) for _ in range(2000))]
    assert [ctx.trace(x) for x in xs] == [_frobenius_trace(ctx, x) for x in xs]


@pytest.mark.parametrize("k", range(2, 9))
def test_trace_linear(field, k):
    ctx = field(k)
    for x in range(ctx.q):
        for y in range(ctx.q):
            assert ctx.trace(x ^ y) == ctx.trace(x) ^ ctx.trace(y)


@pytest.mark.parametrize("k", range(2, 13))
def test_trace_frobenius_invariant(field, k):
    ctx = field(k)
    for x in range(ctx.q):
        assert ctx.trace(ctx.sqr(x)) == ctx.trace(x)


@pytest.mark.parametrize("k", range(2, 13))
def test_trace_partition_sizes(field, k):
    ctx = field(k)
    t0, t1 = trace_partition(ctx)
    assert len(t0) == len(t1) == ctx.q // 2
    assert 0 in t0
    assert set(t0) | set(t1) == set(range(ctx.q))


def test_trace_partition_k2(field):
    t0, t1 = trace_partition(field(2))
    assert t0 == (0, 1)
    assert t1 == (2, 3)


@pytest.mark.parametrize("k", range(2, 9))
def test_t0_closed_under_addition(field, k):
    t0 = set(trace_partition(field(k))[0])
    for x in t0:
        for y in t0:
            assert (x ^ y) in t0


@pytest.mark.parametrize("k", range(2, 9))
def test_artin_schreier_image_is_t0(field, k):
    ctx = field(k)
    image = {ctx.sqr(x) ^ x for x in range(ctx.q)}
    assert image == set(trace_partition(ctx)[0])


def test_artin_schreier_examples(field):
    ctx = field(2)
    assert ctx.solve_artin_schreier(0) == (0, 1)
    assert ctx.solve_artin_schreier(1) == (0b10, 0b11)  # omega^2 + omega = 1
    with pytest.raises(ValueError):
        ctx.solve_artin_schreier(0b10)  # tr(omega) = 1


@pytest.mark.parametrize("k", range(2, 11))
def test_artin_schreier_roundtrip(field, k):
    ctx = field(k)
    t0, t1 = trace_partition(ctx)
    for c in t0:
        b0, b1 = ctx.solve_artin_schreier(c)
        assert b1 == b0 ^ 1
        assert ctx.sqr(b0) ^ b0 == c
        assert ctx.sqr(b1) ^ b1 == c
        if k % 2:
            assert ctx.trace(b0) != ctx.trace(b1)
        else:
            assert ctx.trace(b0) == ctx.trace(b1)
    for c in t1[:8]:
        with pytest.raises(ValueError):
            ctx.solve_artin_schreier(c)


@pytest.mark.parametrize("k", range(2, 13))
def test_mult_group_order(field, k):
    ctx = field(k)
    for x in range(1, ctx.q):
        assert ctx.pow(x, ctx.q - 1) == 1


def test_alternate_poly_still_a_field():
    # k=4 has three irreducible candidates; z^4+z^3+1 must work as well
    ctx = FieldCtx(4, 0b11001)
    assert is_irreducible(0b11001)
    for x in range(1, ctx.q):
        assert ctx.mul(x, ctx.inv(x)) == 1
    t0, t1 = trace_partition(ctx)
    assert len(t0) == len(t1) == 8


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(65) == {5: 1, 13: 1}
    assert factorize(257) == {257: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_check_elem(field):
    ctx = field(2)
    with pytest.raises(ValueError):
        ctx.check_elem(4)
    with pytest.raises(ValueError):
        ctx.check_elem(-1)
