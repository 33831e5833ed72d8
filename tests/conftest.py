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
    """tamper_coset(ext, *exponents) flips the coset predicate at each w = g^e
    for the test and returns the tampered predicate."""
    import char2paley.structure as structure
    real = structure._coset_predicate

    def tamper(ext, *exponents):
        g = ext.primitive_root()
        targets = {ext.pow(g, e) for e in exponents}

        def tampered(ext, lam, w):
            bit = real(ext, lam, w)
            return 1 - bit if w in targets else bit

        monkeypatch.setattr(structure, "_coset_predicate", tampered)
        return tampered

    return tamper
