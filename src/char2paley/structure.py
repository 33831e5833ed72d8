"""Structural certificates: isomorphisms, automorphisms, decompositions.

The shift map x -> x+b carries the graph built at parameter a' onto the
one built at a (or onto its complement, when tr(b) = 1), where b solves
b^2 + b = a + a'.  The index-doubling map v_i -> v_2i along the
circulant labeling exchanges the graph with its complement, and the
automorphism certificates hold at both parities (z -> z+1 reverses
every arc when tr(1) = 1).  Each of these checks one rule: the rows
after a vertex map are the graph's, or its complement's (a tournament's
complement is its reversal).  The distance classes of the connection
set decompose the edge set into Hamiltonian cycles whenever the order
q+1 is prime.

The coset construction over GF(q^2) gives an independent build of the
same isomorphism class, from one pass over the powers of a primitive
root; comparing the two is done by a search over the connection-set
multipliers m in Z_(q+1)^*, each candidate followed by an explicit
edge-by-edge verification of the map it gives.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import gcd
from typing import NamedTuple

from .analyze import circulant_spectrum
from .construct import (
    CirculantLabeling, OutOfScopeError, ParamA, PaleyLikeGraph,
    build_graph, build_tournament, is_circulant, iter_bits, relabel,
    translate_rows, unpaired_distance, verify_circulant,
)
from .gf2k import FieldCtx, factorize
from .mobius import INF, QuadExtCtx, alpha_of, apply, vertex_index


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
    c = a.value ^ a_prime.value
    b0, b1 = ctx.solve_artin_schreier(c)
    b = b0
    if ctx.k % 2 and ctx.trace(b) != 0:
        b = b1
    kind = "iso" if ctx.trace(b) == 0 else "complement-iso"
    return ShiftIso(b, kind)


def _carries(image, target: PaleyLikeGraph, flipped: bool) -> bool:
    """Whether `image`, a graph's rows after a vertex map, are the rows of
    target, or of its complement when flipped (a tournament's complement is
    its reversal)."""
    if not flipped:
        return image == list(target.rows)
    full = (1 << target.n) - 1
    return image == [full ^ r ^ (1 << i) for i, r in enumerate(target.rows)]


def verify_shift_isomorphism(ctx: FieldCtx, a: ParamA, a_prime: ParamA, iso: ShiftIso,
                             target=None) -> bool:
    """Edge-by-edge check that x -> x+b maps build(a') onto build(a),
    or onto its complement for a complement-iso.

    Compares the fully relabeled adjacency structure of the source
    against the target, so every pair is checked.  `target` may carry a
    prebuilt graph/tournament at parameter a to avoid rebuild churn.
    """
    build = build_tournament if ctx.k % 2 else build_graph
    src = build(ctx, a_prime)
    tgt = target if target is not None else build(ctx, a)
    return _carries(translate_rows(src.rows, iso.b, ctx), tgt, iso.kind == "complement-iso")


def verify_self_complementary(g: PaleyLikeGraph, lab: CirculantLabeling) -> bool:
    """Certify that v_i -> v_2i maps every edge to a non-edge and back."""
    lab.check_graph(g)
    n = g.n
    idx = lab.index
    perm = [0] * n
    for i in range(n):
        perm[idx[i]] = idx[2 * i % n]
    return _carries(relabel(g.rows, perm), g, True)


def verify_automorphisms(g: PaleyLikeGraph, a: ParamA) -> bool:
    """Check that z -> a/(z+1) preserves the edge set, and that z -> z+1
    preserves it when tr(1) = 0 and reverses every arc when tr(1) = 1."""
    ctx = g.ctx
    al = alpha_of(ctx, a.value)
    perm_alpha = [vertex_index(ctx, apply(ctx, al, p))
                  for p in [INF, *range(ctx.q)]]
    return (_carries(relabel(g.rows, perm_alpha), g, False)
            and _carries(translate_rows(g.rows, 1, ctx), g, ctx.trace(1) == 1))


class CertificateFailed(AssertionError):
    """A failed certificate: check "circulant" with the first failing orbit position as
    witness, or "unpaired_distance" with the least d in conn whose n - d is not."""

    def __init__(self, check: str, witness: int):
        super().__init__({"circulant": "the rows are not the circulant of the connection set",
                          "unpaired_distance": "connection set is not closed under negation"}[check])
        self.check, self.witness = check, witness


# ---------------------------------------------------------------------------
# Hamiltonian decomposition for prime order


class HamiltonianDecomposition(NamedTuple):
    p: int                                  # the (prime) order
    classes: tuple[tuple[int, int], ...]    # distance pairs {d, p-d}
    cycles: tuple[tuple, ...]               # q/4 vertex sequences, length p each


def hamiltonian_decompose(g: PaleyLikeGraph, lab: CirculantLabeling) -> HamiltonianDecomposition:
    """Split the edges into Hamiltonian cycles by circulant distance class.

    Only for prime order p = q+1.  The rows are certified to be the
    circulant of the connection set (`verify_circulant`), and the set to
    be closed under negation, so the classes {d, p-d} partition the
    edges; stepping i -> i+d walks all of Z_p, so each class is one
    spanning cycle.  Either failure raises CertificateFailed.
    """
    lab.check_graph(g)
    p = g.n
    if factorize(p) != {p: 1}:
        raise OutOfScopeError(
            f"order {p} is composite: only prime-order circulants are decomposed "
            "by distance classes (the general case has no practical algorithm here)")
    verdict = verify_circulant(g, lab)
    if not verdict:
        raise CertificateFailed("circulant", verdict.position)
    d = unpaired_distance(lab.conn, p)
    if d is not None:
        raise CertificateFailed("unpaired_distance", d)
    dists = sorted(d for d in lab.conn if d < p - d)
    cycles = tuple(tuple(lab.vertices[d * t % p] for t in range(p)) for d in dists)
    return HamiltonianDecomposition(p, tuple((d, p - d) for d in dists), cycles)


# ---------------------------------------------------------------------------
# The coset-quotient construction over GF(q^2), an independent oracle


class ChapmanGraph(NamedTuple):
    """Graph on the q+1 cosets of the base multiplicative group in GF(q^2)*.

    reps[i] is g^i for the fixed primitive root g, so the rows are in
    circulant order and conn is read from row 0.  table[e] is the
    predicate at w = g^e, and the pair (i, j) reads its own entry
    e = qi + j (w = conj(g^i) g^j).  Pairs where the denominator T(w)
    vanishes are never guessed at: they are collected in undefined_pairs
    (expected empty off the diagonal).
    """

    ext: QuadExtCtx
    lam: tuple[int, int]
    reps: tuple
    table: bytes
    rows: tuple[int, ...]
    conn: frozenset[int]
    undefined_pairs: tuple
    circulant_certified: bool

    @property
    def n(self) -> int:
        return len(self.reps)


UNDEFINED = 2   # the predicate's value where its denominator T(w) vanishes


def _coset_predicate(ext: QuadExtCtx, lam, w):
    """Trace bit joining [u] and [v] with w = u^q v, or UNDEFINED if T(w) = 0."""
    base = ext.base
    t_num = ext.trace_to_base(ext.mul(lam, w))
    t_den = ext.trace_to_base(w)
    t_lam = ext.trace_to_base(lam)
    if t_den == 0 or t_lam == 0:
        return UNDEFINED
    return base.trace(base.div(t_num, base.mul(t_lam, t_den)))


def chapman_build(ext: QuadExtCtx, lam: tuple[int, int]) -> ChapmanGraph:
    base = ext.base
    if base.k % 2:
        raise ValueError("the coset construction is compared against graphs: k must be even")
    if lam == (0, 0):
        raise ValueError("lambda must be nonzero")
    if ext.trace_to_base(lam) == 0:
        raise ValueError("lambda lies in the base field: T(lambda) = 0 degenerates "
                         "the predicate everywhere")
    q = base.q
    n = q + 1
    # rep i = g^i.  GF(q)* = <g^(q+1)>, and the cosets [g^i], 0 <= i <= q,
    # are distinct (so all q+1 of them) exactly when no g^i with
    # 0 < i <= q lies in GF(q), i.e. has relative trace 0
    g = ext.primitive_root()
    powers = [ext.ONE]
    for _ in range(n):
        powers.append(ext.mul(powers[-1], g))
    if ext.trace_to_base(powers[n]) or not all(map(ext.trace_to_base, powers[1:n])):
        raise AssertionError("powers of the primitive root do not enumerate the cosets")
    reps = powers[:n]
    # one pass over w = g^e, e = 0 ... q^2 - 2
    walk = accumulate(repeat(g, q * q - 2), ext.mul, initial=ext.ONE)
    table = bytes(_coset_predicate(ext, lam, w) for w in walk)
    rows = [0] * n
    undefined = []
    for i in range(n):
        for j in range(i + 1, n):
            bit = table[(q * i + j) % len(table)]
            if bit == UNDEFINED:
                undefined.append((reps[i], reps[j]))
            elif bit == 0:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    certified = not undefined and is_circulant(rows, rows[0], n)
    return ChapmanGraph(ext, lam, tuple(reps), table, tuple(rows),
                        frozenset(iter_bits(rows[0])), tuple(undefined), certified)


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


def chapman_compare(h: ChapmanGraph, g: PaleyLikeGraph, lab: CirculantLabeling) -> ChapmanComparison:
    """Search for an explicit isomorphism between the two constructions.

    Both must be certified circulants of order n = q+1: h by
    `circulant_certified` (ValueError otherwise), g against lab by
    `verify_circulant` (CertificateFailed otherwise).  Their codegree spectra
    are then read off the two connection sets.  A unit m of Z_n with
    m * conn(G) = conn(H) gives the map v_i -> w_(m i), which is then
    verified edge by edge.  When no unit passes, only the invariant
    comparison (codegree spectra) is reported.
    """
    if h.ext.base != g.ctx:
        raise ValueError("the two graphs live over different base fields")
    if not h.circulant_certified:
        raise ValueError("the coset graph is not a certified circulant")
    verdict = verify_circulant(g, lab)
    if not verdict:
        raise CertificateFailed("circulant", verdict.position)
    n = g.n
    spectra_match = circulant_spectrum(h.n, h.conn).counts == circulant_spectrum(n, lab.conn).counts
    if not spectra_match:
        return ChapmanComparison("not-isomorphic", None, False)
    for m in range(1, n):
        if gcd(m, n) != 1 or {m * d % n for d in lab.conn} != h.conn:
            continue
        # explicit check of v_i -> w_(m i) on every pair: H with w_(m i) renamed v_i's dense row
        h_perm = [0] * n
        for i in range(n):
            h_perm[m * i % n] = lab.index[i]
        if relabel(h.rows, h_perm) == list(g.rows):
            return ChapmanComparison("isomorphic-certified", m, True)
    return ChapmanComparison("consistent-uncertified", None, True)
