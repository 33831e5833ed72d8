"""Structural certificates: isomorphisms, automorphisms, decompositions.

The shift map x -> x+b carries the graph built at parameter a' onto the
one built at a (or onto its complement, when tr(b) = 1), where b solves
b^2 + b = a + a'.  The graph at a is packed once, both polarities, into a
ShiftTarget, and `verify_shift_isomorphism(target, a')` compares the
build at a' with it by masked swaps of packed bands (`_shift_carries`).
Every other claim is read off a connection set C, whose circulant the
caller has certified the rows to be (`verify_circulant`): a map
v_i -> v_(m i + c) sends the pair (v_0, v_d) to distance m d, so it is
an automorphism exactly when d in C <=> m d in C for every d, and
exchanges the graph with its complement (a tournament's with its
reversal) exactly when d in C <=> m d not in C.  Index doubling is
m = 2; z -> z+1 is v_i -> v_-i, by v_-i = 1 + v_i; z -> a/(z+1) is a
rotation (m = 1).  The distance classes of C decompose the edge set into
Hamiltonian cycles whenever the order q+1 is prime.

The coset construction over GF(q^2), the one place the package builds
that field (as the FieldCtx of degree 2k), gives an independent build of
the same isomorphism class, from one pass over the exponents of its
generator in log coordinates: read off its predicate's classes, it is
the circulant of C_H, and a unit m of Z_(q+1) with m C = C_H is the
isomorphism v_i -> w_(m i).
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, repeat
from math import gcd
from operator import xor
from typing import NamedTuple

from .analyze import circulant_spectrum
from .construct import (
    CirculantLabeling, OutOfScopeError, ParamA, PaleyLikeGraph, RowVerdict, _swap_masks,
    build_graph, build_tournament, check_width, unpaired_distance,
)
from .gf2k import FieldCtx, factorize
from .mobius import alpha_of, apply


class ShiftIso(NamedTuple):
    """The vertex map x -> x + b (INF fixed) between two parameter choices.

    kind is "iso" when tr(b) = 0 (edges map to edges) and
    "complement-iso" when tr(b) = 1 (edges map to non-edges).
    """

    b: int
    kind: str


def shift_isomorphism(ctx: FieldCtx, a: ParamA, a_prime: ParamA) -> ShiftIso:
    """Solve b^2 + b = a + a' and classify the resulting shift map.

    Both parameters have trace 1, so the equation is solvable.  For odd
    k the two solutions have different traces and the trace-0 one is
    returned (an honest isomorphism); for even k both solutions have
    the same trace and the smaller is returned.
    """
    b0, b1 = ctx.solve_artin_schreier(a.value ^ a_prime.value)
    b = b1 if ctx.k % 2 and ctx.trace(b0) else b0
    return ShiftIso(b, "complement-iso" if ctx.trace(b) else "iso")


_SHIFT_BAND = 1 << 14  # bytes a band of the shift kernel is cut to: about 16 KiB measured best


def _bands(rows, w: int, per: int):
    """The rows packed w bytes a row, little-endian, `per` rows to an int; rows within 8w bits."""
    for lo in range(0, len(rows), per):
        chunk = map(int.to_bytes, rows[lo:lo + per], repeat(w), repeat("little"))
        yield int.from_bytes(b"".join(chunk), "little")


class ShiftTarget:
    """A graph in the shift kernel's layout, fixed when the target is built:
    rows of w = ceil(n/8) bytes, `per` rows to a band of about _SHIFT_BAND
    bytes, and _swap_masks(k) repeated over every row slot of a band.
    bands[flipped] holds the rows packed into bands, the complement's when
    flipped (a tournament's is its reversal).  A row with a bit at or above
    n raises ValueError, as the writers do.  One target serves every shift
    checked against the same graph."""

    def __init__(self, g: PaleyLikeGraph):
        check_width(g.rows)
        self.graph = g
        self.w = w = (g.n + 7) // 8
        self.per = per = max(1, _SHIFT_BAND // w)
        self.swaps = tuple((s, int.from_bytes(low.to_bytes(w, "little") * per, "little"))
                           for s, low in _swap_masks(g.ctx.k))
        full = (1 << g.n) - 1
        complement = [full ^ r ^ 1 << i for i, r in enumerate(g.rows)]
        self.bands = tuple(list(_bands(rows, w, per)) for rows in (g.rows, complement))


def _shift_carries(rows, b: int, target: ShiftTarget, flipped: bool) -> RowVerdict:
    """Whether the n `rows`, after the vertex map x -> x + b (INF fixed), are the rows of
    target, or of its complement when flipped: the first image row y that is not, or None.

    Source row y + b is image row y, by list indexing, and the image is
    packed in the target's layout, one int a band.  Each band is
    translated by popcount(b) delta swaps with the target's band-wide
    column masks (Warren, Hacker's Delight, section 7-3): across bit h
    of b, bit 1 + u of every row slot trades places with bit 1 + u + 2^h,
    for u with bit h clear, and INF's bit 0 stays.  Every band is then
    compared with the target's: the swaps keep every bit in its row slot,
    so the lowest differing bit of the first band that differs is row y's.
    A source row with a bit at or above n fails at its own image row.
    """
    ctx = target.graph.ctx
    ctx.check_elem(b)
    finite = rows[1:]
    image = [rows[0], *map(finite.__getitem__, map(b.__xor__, range(ctx.q)))]
    swaps = [(s, m) for s, m in target.swaps if b & s]
    w, per = target.w, target.per
    try:
        for j, (x, band) in enumerate(zip(_bands(image, w, per), target.bands[flipped])):
            for s, m in swaps:
                t = (x >> s ^ x) & m
                x ^= t ^ t << s
            if x != band:  # the swaps keep the padding bits at or above n, and band's are clear
                diff = x ^ band
                return RowVerdict(j * per + ((diff & -diff).bit_length() - 1) // (8 * w))
    except OverflowError:  # a row too wide (or negative) for its w bytes
        return RowVerdict(next(y for y, r in enumerate(image) if r >> 8 * w))
    return RowVerdict(None)


def verify_shift_isomorphism(target: ShiftTarget, a_prime: ParamA) -> RowVerdict:
    """Edge-by-edge check that x -> x+b, b solving b^2 + b = a + a' for the target's
    parameter a (`shift_isomorphism`), maps build(a') onto the target's graph, or onto
    its complement for a complement-iso: the first vertex y of the target whose image
    row differs, or None.

    The graph (a tournament at odd k) at a' is built over the target's field and its
    rows, after the shift, compared with the target's bit for bit, in packed bands
    (`_shift_carries`).
    """
    g = target.graph
    iso = shift_isomorphism(g.ctx, g.a, a_prime)
    src = (build_tournament if g.directed else build_graph)(g.ctx, a_prime)
    return _shift_carries(src.rows, iso.b, target, iso.kind == "complement-iso")


class MapVerdict(NamedTuple):
    """A vertex map's verdict read off a certified circulant, true when it holds: else
    the failing map ("doubling", "alpha" or "z+1") and where, the orbit position of
    the first v_i alpha misplaces or the least d whose pair (v_0, v_d) goes wrong."""

    map: str | None
    at: int | None

    def __bool__(self) -> bool:
        return self.map is None


def _read_map(name: str, conn, n: int, m: int, flipped: bool) -> MapVerdict:
    """The verdict of the map `name`, v_i -> v_(m i + c): it fails at the least d in 1 .. n-1
    for which d in conn <=> m d mod n in conn fails, or, when flipped, d in conn <=> m d
    mod n not in conn."""
    d = next((d for d in range(1, n) if (d in conn) != (m * d % n in conn) ^ flipped), None)
    return MapVerdict(None if d is None else name, d)


def verify_self_complementary(lab: CirculantLabeling) -> MapVerdict:
    """Whether v_i -> v_2i maps the circulant of lab.conn onto its complement."""
    return _read_map("doubling", lab.conn, lab.n, 2, True)


def verify_automorphisms(ctx: FieldCtx, lab: CirculantLabeling) -> MapVerdict:
    """Whether z -> a/(z+1), a = lab.a, is an automorphism of the circulant of lab.conn,
    and z -> z+1 one too when tr(1) = 0 or a reversal of every arc when tr(1) = 1.

    alpha's matrix is sigma's minus b I, so alpha commutes with sigma and
    alpha(v_i) = sigma^i(alpha(INF)) = v_(i+c) for v_c = 0, checked at all n points.
    """
    if lab.n != ctx.q + 1:
        raise ValueError("labeling and field have different orders")
    verts, n = lab.vertices, lab.n
    al, c = alpha_of(ctx, lab.a.value), verts.index(0)
    i = next((i for i, v in enumerate(verts) if apply(ctx, al, v) != verts[(i + c) % n]), None)
    if i is not None:
        return MapVerdict("alpha", i)
    return _read_map("z+1", lab.conn, n, n - 1, ctx.trace(1) == 1)


# ---------------------------------------------------------------------------
# Hamiltonian decomposition for prime order


class HamiltonianDecomposition(NamedTuple):
    p: int                                  # the (prime) order
    classes: tuple[tuple[int, int], ...]    # distance pairs {d, p-d}
    cycles: tuple[tuple, ...]               # q/4 vertex sequences, length p each


def check_prime_order(p: int) -> int:
    """The order p, or OutOfScopeError when it is composite, as check_cap is for the dense cap."""
    if factorize(p) != {p: 1}:
        raise OutOfScopeError(
            f"order {p} is composite: only prime-order circulants are decomposed "
            "by distance classes (the general case has no practical algorithm here)")
    return p


def hamiltonian_decompose(lab: CirculantLabeling) -> HamiltonianDecomposition:
    """Split the edges of the circulant of lab.conn into Hamiltonian cycles by distance class.

    Only for prime order p = q+1 (OutOfScopeError otherwise), and only
    when conn is closed under negation (ValueError otherwise): the classes
    {d, p-d} then partition the edges, and stepping i -> i+d walks all of
    Z_p, so each class is one spanning cycle.  These are a graph's cycles
    once its rows are certified to be this circulant (`verify_circulant`).
    """
    p = check_prime_order(lab.n)
    if unpaired_distance(lab.conn, p) is not None:
        raise ValueError("the connection set is not closed under negation")
    dists = sorted(d for d in lab.conn if d < p - d)
    cycles = tuple(tuple(lab.vertices[d * t % p] for t in range(p)) for d in dists)
    return HamiltonianDecomposition(p, tuple((d, p - d) for d in dists), cycles)


# ---------------------------------------------------------------------------
# The coset-quotient construction over GF(q^2), an independent oracle


class ChapmanGraph(NamedTuple):
    """Graph on the q+1 cosets of the base multiplicative group in GF(q^2)*.

    reps[i] is g^i for the generator g of GF(q^2), as an int of that
    field.  table[e] is the predicate at w = g^e, and the pair (i, j),
    i < j, reads the entry e = qi + j (w = (g^i)^q g^j), in the class of
    j - i mod q+1.  conn holds the classes r whose pair (0, r) reads 0:
    once the table is constant on each class
    (`verify_representative_independence`), the graph is the circulant of
    conn exactly when conn = -conn.  Pairs where the denominator T(w)
    vanishes are never guessed at: they are collected in undefined_pairs
    (expected empty), as pairs of reps, and leave the graph undefined.
    """

    reps: tuple
    table: bytes
    conn: frozenset[int]
    undefined_pairs: tuple

    @property
    def n(self) -> int:
        return len(self.reps)


UNDEFINED = 2   # the predicate's value where its denominator T(w) vanishes


def _embedding(ctx: FieldCtx, big: FieldCtx):
    """phi(x) = sum of x_i rho^i, GF(q) = ctx into big = GF(q^2), rho the least root of
    ctx.poly among 0 and the powers g^((q+1)t) of big's generator, which are GF(q) in big.

    A root of the modulus is an image of z, so phi is a field homomorphism.
    """
    def modulus_at(x):  # ctx.poly at x, by Horner
        v = 0
        for i in range(ctx.k, -1, -1):
            v = big.mul(v, x) ^ ctx.poly >> i & 1
        return v

    rho = min(x for x in (0, *big.exp_table()[:big.q - 1:ctx.q + 1]) if not modulus_at(x))
    basis = list(accumulate(repeat(rho, ctx.k - 1), big.mul, initial=1))
    return lambda x: reduce(xor, (r for i, r in enumerate(basis) if x >> i & 1), 0)


def _coset_table(big: FieldCtx, q: int, lam: int) -> bytes:
    """The predicate at w = g^e for each exponent e < q^2 - 1 of big = GF(q^2):
    tr(lam T(lam w) / T(w)), T(x) = x + x^q, or UNDEFINED where T(w) = 0.

    With T(lam) = 1 this is the paper's bit tr_q(T(lam w) / T(w)): for z in
    GF(q), tr(lam z) = tr_q(T(lam z)) = tr_q(z T(lam)) = tr_q(z).  Read in
    log coordinates, (g^e)^q = g^(qe mod q^2-1) and lam w = g^(e + log lam).
    """
    n1 = q * q - 1
    exp, log = big.exp_table(), big.log_table()
    t = [exp[e] ^ exp[q * e % n1] for e in range(n1)]  # T(g^e)
    s = log[lam]
    tr = big.trace
    return bytes(UNDEFINED if not x else tr(exp[s + log[y] - log[x]]) if y else 0
                 for x, y in zip(t, t[s:] + t[:s]))


def chapman_build(ctx: FieldCtx, a: ParamA) -> ChapmanGraph:
    """The coset graph at a, over GF(q^2) built here as the FieldCtx of degree 2k, with
    lambda the lesser root of z^2 + z + a, so T(lambda) = 1; k must be even."""
    if ctx.k % 2:
        raise ValueError("the coset construction is compared against graphs: k must be even")
    big = FieldCtx(2 * ctx.k)
    lam, _ = big.solve_artin_schreier(_embedding(ctx, big)(a.value))
    q = ctx.q
    n = q + 1
    exp = big.exp_table()
    # rep i = g^i.  GF(q)* = <g^(q+1)>, and the cosets [g^i], 0 <= i <= q,
    # are distinct (so all q+1 of them) exactly when no g^i with
    # 0 < i <= q lies in GF(q), i.e. has relative trace 0
    t = [exp[i] ^ exp[q * i] for i in range(n + 1)]  # T(g^i), read off the doubled table
    if t[n] or not all(t[1:n]):
        raise AssertionError("powers of the primitive root do not enumerate the cosets")
    reps = tuple(exp[:n])
    table = _coset_table(big, q, lam)
    # the pairs (i, i+1) .. (i, q) read the entries qi + i + 1 .. qi + q, the
    # last of them, q^2 for i = q - 1, being entry 1
    wrapped = table + table[:2]
    undefined = []
    for i in range(n):
        row = wrapped[n * i + 1:q * i + n]
        j = row.find(UNDEFINED)
        while j >= 0:
            undefined.append((reps[i], reps[i + 1 + j]))
            j = row.find(UNDEFINED, j + 1)
    conn = frozenset(r for r in range(1, n) if table[r] == 0)
    return ChapmanGraph(reps, table, conn, tuple(undefined))


class Independence(NamedTuple):
    count: int                      # table entries read
    witness: tuple[int, int] | None  # exponents e < e' in one class whose entries differ

    def __bool__(self) -> bool:
        return self.witness is None


def verify_representative_independence(h: ChapmanGraph) -> Independence:
    """Check that the coset predicate does not depend on the representatives.

    The probe (c g^i, c' g^j), c and c' in GF(q)* = <g^(q+1)>, reads the
    entry qi + j + (q+1)t for some t: in the class of qi + j = j - i != 0
    mod q+1, and each class r != 0 holds the pair (0, r).  So every pair
    against every pair of unit multipliers is exactly: the table is
    constant on each class r != 0.  Its q(q-1) entries are read once each.
    """
    step = h.n
    count = 0
    for r in range(1, step):
        cls = h.table[r::step]
        count += len(cls)
        if cls.count(cls[0]) != len(cls):
            t = next(t for t, bit in enumerate(cls) if bit != cls[0])
            return Independence(count, (r, r + step * t))
    return Independence(count, None)


class ChapmanComparison(NamedTuple):
    verdict: str              # "isomorphic-certified" | "consistent-uncertified" | "not-isomorphic"
    multiplier: int | None    # connection-set multiplier when certified
    spectra_match: bool

    def __bool__(self) -> bool:
        return self.verdict == "isomorphic-certified"


def chapman_compare(h: ChapmanGraph, lab: CirculantLabeling) -> ChapmanComparison:
    """Search for an isomorphism between the circulants of lab.conn and h.conn.

    Both must be graphs of order n = q+1: ValueError when the orders
    differ, when h has an undefined pair, or when either set is not closed
    under negation.  The least unit m of Z_n with m * conn(G) = conn(H) is
    then the isomorphism v_i -> w_(m i); isomorphic graphs have equal
    codegree spectra.  Only when no unit passes are the spectra read off
    the two connection sets and compared, the invariant comparison that is
    then reported.
    """
    n = lab.n
    if h.n != n:
        raise ValueError("the two graphs have different orders")
    if h.undefined_pairs:
        raise ValueError("the coset graph has an undefined pair")
    if unpaired_distance(h.conn, n) is not None or unpaired_distance(lab.conn, n) is not None:
        raise ValueError("a connection set is not closed under negation")
    for m in range(1, n):
        if gcd(m, n) == 1 and {m * d % n for d in lab.conn} == h.conn:
            return ChapmanComparison("isomorphic-certified", m, True)
    if circulant_spectrum(n, h.conn).counts != circulant_spectrum(n, lab.conn).counts:
        return ChapmanComparison("not-isomorphic", None, False)
    return ChapmanComparison("consistent-uncertified", None, True)
