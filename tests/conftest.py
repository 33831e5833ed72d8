import pytest

from char2paley import FieldCtx, build_graph, circulant_labeling, param_a


@pytest.fixture(scope="session")
def field():
    """Factory for cached FieldCtx objects (lookup tables are expensive)."""
    cache = {}

    def make(k, poly=None):
        key = (k, poly)
        if key not in cache:
            cache[key] = FieldCtx(k, poly)
        return cache[key]

    return make


@pytest.fixture(scope="session")
def std(field):
    """Cached (ctx, a, graph, labeling) for the default parameter at even k."""
    cache = {}

    def make(k):
        if k not in cache:
            ctx = field(k)
            a = param_a(ctx)
            g = build_graph(ctx, a)
            lab = circulant_labeling(ctx, a)
            cache[k] = (ctx, a, g, lab)
        return cache[k]

    return make


@pytest.fixture
def tamper_coset(monkeypatch):
    """tamper_coset(*exponents) flips the coset table's entry at each exponent e
    (w = g^e) for the test and returns the oracle predicate flipped at those w."""
    import char2paley.structure as structure
    from oracles import coset_bit
    real = structure._coset_table

    def tamper(*exponents):
        flips = set(exponents)

        def table(big, q, lam):
            t = bytearray(real(big, q, lam))
            for e in flips:
                t[e] ^= 1
            return bytes(t)

        def tampered(big, lam, w):
            bit = coset_bit(big, lam, w)
            return 1 - bit if big.log_table()[w] in flips else bit

        monkeypatch.setattr(structure, "_coset_table", table)
        return tampered

    return tamper
