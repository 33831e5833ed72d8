"""Slow, definitional routes that the tests hold the package's fast paths to.

- `kloosterman` and `kloosterman_sum` evaluate K(b) term by term, the
  oracle of the convolution sweep `kloosterman_sweep`.
- `jumbledness_audit` tests |e(H) - C(h,2)/2| <= q^(3/4) h on induced
  subgraphs one at a time, the oracle of the fourth-moment certificate
  `jumbledness_certificate`.  Writing d = |2 e(H) - C(h,2)| (twice the
  deviation), its test on one subset is

      d^4 <= 16 q^3 h^4

  and its reported worst ratio is the exact rational d^4 / (16 q^3 h^4),
  the fourth power of deviation/bound.
- `orbit` walks a Moebius map point by point through `apply`, and
  `orbit_labeling` builds the circulant labeling's fields from it, the
  oracle of the table walk in `circulant_labeling`.
- `pair_codegree_formula` rotates any pair {x, y} to (x', INF) along a
  labeling with a position map, so the one-point `codegree_formula` can
  be held to every pair.
- `codegree_direct` counts the common neighbours of one pair off the
  rows, and `spectrum_counts` counts every pair that way, the oracles of
  the codegree formula and of the convolution spectrum
  `circulant_spectrum`.
- `chapman_rows_per_pair` builds the coset graph with one GF(q^2)
  product w = conj(u) v per pair, and `representative_probes` re-reads
  the predicate on every pair against every pair of unit multipliers,
  the oracles of the one-pass table in `chapman_build` and of
  `verify_representative_independence`.
- `tile_transpose` transposes a bit matrix one 256 x 256 tile at a time
  with the eight delta swaps of the recursive block transpose, the
  oracle of the byte-column kernel behind `transpose` at orders where a
  per-bit transpose is too slow.
- `int_self_convolution` squares one binary int of w-byte slots, the
  oracle of the decimal square behind `kloosterman_sweep` and
  `circulant_spectrum`.
- `difference_rows` walks the difference rows R_x alone, and
  `per_row_build` translates each of them by its own x, popcount(x)
  masked swaps a row: the oracles of the dense build, which carries the
  translation along the walk.
- `beta_of`, `compose`, `inverse`, `construct_a_for_order` and
  `trace_partition` state the paper's maps and sets by definition, for
  the tests to check the package against; `all_points`, `IDENTITY`,
  `det` and `mobius_map` are the small Moebius helpers they and the
  tests share.
"""

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from char2paley import (
    INF, FieldCtx, MobiusMap, OutOfScopeError, PaleyLikeGraph, QuadExtCtx, apply,
    ParamA, codegree_formula, is_full_orbit, iter_bits, vertex_index,
)
from char2paley.construct import (
    _field_words, _quotient_traces, _swap_masks, _swapped, check_cap,
)

EXHAUSTIVE_SUBSET_CAP = 17  # largest order for the 2^n induced-subgraph sweep


@dataclass(frozen=True)
class KloostermanValue:
    b: int
    value: int


def kloosterman_sum(ctx: FieldCtx, b: int) -> int:
    """K(b) = sum over nonzero z of psi(z + b/z), one field division per term."""
    div, tr = ctx.div, ctx.trace
    # psi(z + b/z) = 1 - 2 tr(z ^ b/z)
    return ctx.q - 1 - 2 * sum(tr(z ^ div(b, z)) for z in range(1, ctx.q))


def kloosterman(ctx: FieldCtx, b: int) -> KloostermanValue:
    """Exact Kloosterman sum K(b) over the nonzero elements; b must be nonzero."""
    ctx.check_elem(b)
    if b == 0:
        raise ValueError("K(0) is out of scope: codegree parameters b = x^2+x+a "
                         "always have trace 1, hence are nonzero")
    return KloostermanValue(b, kloosterman_sum(ctx, b))


@dataclass(frozen=True)
class JumblednessAudit:
    mode: str                  # "exhaustive" or "sampled"
    samples: int               # number of subsets tested
    seed: int | None           # None in exhaustive mode
    worst_dev2: int            # d = |2 e(H) - C(h,2)| at the worst subset
    worst_size: int            # h there
    worst_mask: int            # the subset itself, as a vertex bitmask
    worst_ratio_pow4: Fraction  # (deviation/bound)^4, exact
    passed: bool

    @property
    def worst_ratio(self) -> float:
        """Float view of deviation/bound at the worst subset (display only)."""
        return float(self.worst_ratio_pow4) ** 0.25


def _audit_from_worst(g, mode, samples, seed, d, h, mask) -> JumblednessAudit:
    q = g.ctx.q
    if h == 0:
        ratio4 = Fraction(0)
    else:
        ratio4 = Fraction(d ** 4, 16 * q ** 3 * h ** 4)
    return JumblednessAudit(mode, samples, seed, d, h, mask, ratio4, ratio4 <= 1)


def jumbledness_audit(g: PaleyLikeGraph, mode: str = "sampled",
                      samples: int = 100_000, seed: int = 0) -> JumblednessAudit:
    """Audit |e(H) - C(h,2)/2| <= q^(3/4) h over induced subgraphs.

    Exhaustive mode walks all 2^n subsets in Gray-code order (order
    capped at 17); sampled mode draws uniform subsets from a seeded RNG.
    The worst subset is the one maximizing deviation/size, which orders
    identically to the reported fourth-power ratio.
    """
    rows = g.rows
    n = g.n
    worst_d, worst_h, worst_mask = 0, 1, 0
    if mode == "exhaustive":
        if n > EXHAUSTIVE_SUBSET_CAP:
            raise OutOfScopeError(
                f"exhaustive subset sweep capped at order {EXHAUSTIVE_SUBSET_CAP}, got {n}")
        total = 1 << n
        mask = 0
        e2 = 0  # twice e(H), maintained incrementally
        h = 0
        for i in range(1, total):
            bit = 1 << ((i & -i).bit_length() - 1)
            v = bit.bit_length() - 1
            if mask & bit:
                mask ^= bit
                h -= 1
                e2 -= 2 * (rows[v] & mask).bit_count()
            else:
                mask ^= bit
                h += 1
                e2 += 2 * (rows[v] & mask).bit_count()
            if h:
                d = abs(e2 - comb(h, 2))
                if d * worst_h > worst_d * h:
                    worst_d, worst_h, worst_mask = d, h, mask
        return _audit_from_worst(g, "exhaustive", total, None, worst_d, worst_h, worst_mask)
    if mode != "sampled":
        raise ValueError(f"unknown audit mode {mode!r}")
    rng = random.Random(seed)
    for _ in range(samples):
        mask = rng.getrandbits(n)
        h = mask.bit_count()
        if h == 0:
            continue
        e2 = sum((rows[v] & mask).bit_count() for v in iter_bits(mask))
        d = abs(e2 - comb(h, 2))
        if d * worst_h > worst_d * h:
            worst_d, worst_h, worst_mask = d, h, mask
    return _audit_from_worst(g, "sampled", samples, seed, worst_d, worst_h, worst_mask)


def trace_partition(ctx: FieldCtx) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(T0, T1): the trace-0 and trace-1 halves of the field, ascending."""
    t0, t1 = [], []
    for x in range(ctx.q):
        (t1 if ctx.trace(x) else t0).append(x)
    return tuple(t0), tuple(t1)


def tile_transpose(rows) -> list[int]:
    """Rows of the transpose of n rows of n bits, by 256 x 256 bit tiles.

    For each column block lo = 0, 256, ... below n, the pieces
    (row >> lo) mod 2^256 of rows 0-255, 256-511, ... form tiles of 32
    little-endian bytes per piece.  Each tile is read as one int, bit
    256 r + c its entry (r, c), and transposed in place: for s = 128, 64,
    ..., 1 the entries with bit s of r clear and bit s of c set trade
    places with (r + s, c - s), 255 s positions up (Warren, Hacker's
    Delight, section 7-3).  Row lo + c of the result is then row c of
    each tile in turn.  Bits at or above n inside the last block are
    ignored.
    """
    n = len(rows)
    swaps = []
    for s in (128, 64, 32, 16, 8, 4, 2, 1):
        cols = sum(1 << c for c in range(256) if c & s).to_bytes(32, "little")
        swaps.append((255 * s, int.from_bytes(
            b"".join(bytes(32) if r & s else cols for r in range(256)), "little")))
    low = (1 << 256) - 1
    out = []
    for lo in range(0, n, 256):
        tiles = []
        for t in range(0, n, 256):
            x = int.from_bytes(b"".join([(r >> lo & low).to_bytes(32, "little")
                                         for r in rows[t:t + 256]]), "little")
            for d, mask in swaps:
                y = (x >> d ^ x) & mask
                x ^= y ^ y << d
            tiles.append(x.to_bytes(256 * 32, "little"))
        for c in range(0, min(256, n - lo) * 32, 32):
            out.append(int.from_bytes(b"".join([t[c:c + 32] for t in tiles]), "little"))
    return out


def int_self_convolution(seq: bytes) -> memoryview:
    """(seq * seq)[t] = sum_s seq[s] seq[(t - s) mod m] for a 0/1 sequence, by one int square.

    Packs seq into w-byte slots of one int (w = 1, 2, 4 or 8), squares it
    and folds the wrap inside the int: slot t of (sq mod 2^(8wm)) + (sq >> 8wm)
    is the cyclic coefficient.  Every coefficient, linear or cyclic, is at
    most the number of ones, so slots wide enough for that count never carry.
    """
    m = len(seq)
    w = 1 << (max(1, (seq.count(1).bit_length() + 7) // 8) - 1).bit_length()
    packed = bytearray(m * w)
    packed[::w] = seq
    x = int.from_bytes(packed, "little")
    sq = x * x
    folded = (sq & (1 << 8 * w * m) - 1) + (sq >> 8 * w * m)
    step = 1 if sys.byteorder == "little" else -1  # cast reads native slots
    return memoryview(folded.to_bytes(m * w, sys.byteorder)).cast("BHIQ"[w.bit_length() - 1])[::step]


def difference_rows(ctx: FieldCtx, a: ParamA):
    """(x, R_x) for every field element x in Gray-code order; bit u of R_x is D_u[x].

    R_0 is C, with bit u = c_u = 1 + tr(a/u) (u = 0, the loop, stays
    clear), and a step of the walk across bit h of x flips M_h.
    """
    masks = _field_words(ctx)[0]
    r = _quotient_traces(ctx, a.value) ^ (1 << ctx.q) - 2
    yield 0, r
    for i in range(1, ctx.q):
        r ^= masks[(i & -i).bit_length() - 1]
        yield i ^ i >> 1, r


def per_row_build(ctx: FieldCtx, a: ParamA) -> list[int]:
    """Dense rows of the trace rule: R_x translated by x, with the INF bit 1 + tr(x)."""
    n = check_cap(ctx.k)
    swaps = _swap_masks(ctx.k)
    rows = [0] * n
    rows[0] = _field_words(ctx)[1]
    for x, r in difference_rows(ctx, a):
        rows[1 + x] = _swapped(r, x, swaps) << 1 | 1 ^ ctx.trace(x)
    return rows


def all_points(ctx: FieldCtx) -> list:
    """The q+1 points in the fixed enumeration: INF first, then by encoding."""
    return [INF, *range(ctx.q)]


IDENTITY = MobiusMap(1, 0, 0, 1)


def det(ctx: FieldCtx, m: MobiusMap) -> int:
    return ctx.mul(m.m00, m.m11) ^ ctx.mul(m.m01, m.m10)


def mobius_map(ctx: FieldCtx, m00: int, m01: int, m10: int, m11: int) -> MobiusMap:
    m = MobiusMap(m00, m01, m10, m11)
    if det(ctx, m) == 0:
        raise ValueError(f"singular Moebius matrix {m}")
    return m


def compose(ctx: FieldCtx, m1: MobiusMap, m2: MobiusMap) -> MobiusMap:
    """Matrix product: the map p -> m1(m2(p))."""
    mul = ctx.mul
    return MobiusMap(
        mul(m1.m00, m2.m00) ^ mul(m1.m01, m2.m10),
        mul(m1.m00, m2.m01) ^ mul(m1.m01, m2.m11),
        mul(m1.m10, m2.m00) ^ mul(m1.m11, m2.m10),
        mul(m1.m10, m2.m01) ^ mul(m1.m11, m2.m11),
    )


def inverse(ctx: FieldCtx, m: MobiusMap) -> MobiusMap:
    # adjugate; in characteristic 2 the off-diagonal signs vanish
    return MobiusMap(m.m11, m.m01, m.m10, m.m00)


def beta_of(ctx: FieldCtx, y, a: int) -> MobiusMap:
    """The map z -> (zy + z + a)/(z + y), extended to the identity at y = INF.

    For finite y its matrix is ((y+1, a), (1, y)) with determinant
    y^2 + y + a, nonzero because tr(a) = 1.
    """
    if ctx.trace(a) != 1:
        raise ValueError(f"beta parameter needs trace 1, tr({a:#x}) = 0")
    if y is INF:
        return IDENTITY
    ctx.check_elem(y)
    return MobiusMap(y ^ 1, a, 1, y)


def orbit(ctx: FieldCtx, m: MobiusMap, start) -> list:
    """start, m(start), m^2(start), ... up to the first repetition."""
    out = [start]
    p = apply(ctx, m, start)
    limit = ctx.q + 2
    while p != start:  # INF compares by identity, fields by value
        out.append(p)
        p = apply(ctx, m, p)
        if len(out) > limit:
            raise AssertionError("orbit exceeded group order; map is not a bijection?")
    return out


def orbit_labeling(ctx: FieldCtx, a: int):
    """(b, vertices, conn, index) of the circulant labeling at a, by definition.

    b is the smallest even element with a full alpha-orbit at
    a + b^2 + b, vertices the orbit of INF under z -> (b z + a)/(z + b + 1)
    walked through `apply`, conn the distances d with tr(v_d + 1) = 0.
    """
    ext = QuadExtCtx(ctx)
    b = next(b for b in range(0, ctx.q, 2) if is_full_orbit(ext, a ^ ctx.sqr(b) ^ b))
    verts = tuple(orbit(ctx, MobiusMap(b, a, 1, b ^ 1), INF))
    conn = frozenset(d for d in range(1, len(verts)) if ctx.trace(verts[d] ^ 1) == 0)
    index = tuple(0 if p is INF else 1 + p for p in verts)
    return b, verts, conn, index


def pair_codegree_formula(ctx: FieldCtx, a, lab, kloo):
    """codeg(x, y) of any two distinct points by `codegree_formula`, as a function of (x, y).

    On a graph certified to be lab's circulant, v_i -> v_(i+1) is an
    automorphism and v_0 = INF, so {v_i, v_j} has the codegree of
    {v_(i-j), INF}; i and j come from a position map of lab.vertices.
    """
    pos = {p: i for i, p in enumerate(lab.vertices)}

    def formula(x, y):
        i, j = pos[x], pos[y]
        if i == j:
            raise ValueError("codegree is undefined on equal points")
        return codegree_formula(ctx, a, lab.vertices[(i - j) % lab.n], kloo)

    return formula


@dataclass(frozen=True)
class CodegreePair:
    x: object
    y: object
    epsilon: int  # 1 if the pair is an edge
    ell: int      # number of common neighbours


def codegree_direct(g: PaleyLikeGraph, x, y) -> CodegreePair:
    """Count common neighbours straight off the bitset rows."""
    i = vertex_index(g.ctx, x)
    j = vertex_index(g.ctx, y)
    if i == j:
        raise ValueError("codegree is undefined on equal points")
    return CodegreePair(x, y, g.rows[i] >> j & 1, (g.rows[i] & g.rows[j]).bit_count())


def spectrum_counts(rows, n: int) -> dict:
    """(epsilon, ell) -> pair count over all unordered pairs of rows, one pair at a time."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            key = (ri >> j & 1, (ri & rows[j]).bit_count())
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def coset_bit(ext: QuadExtCtx, lam, w):
    """tr(T(lam w) / (T(lam) T(w))), or None where T(w) = 0, by definition."""
    base = ext.base
    t_den = ext.trace_to_base(w)
    if t_den == 0:
        return None
    t_num = ext.trace_to_base(ext.mul(lam, w))
    return base.trace(base.div(t_num, base.mul(ext.trace_to_base(lam), t_den)))


def chapman_rows_per_pair(ext: QuadExtCtx, lam, reps, pred=coset_bit):
    """(rows, undefined pairs) of the coset graph on reps, one w = conj(u) v per pair."""
    n = len(reps)
    rows = [0] * n
    undefined = []
    for i in range(n):
        for j in range(i + 1, n):
            bit = pred(ext, lam, ext.mul(ext.conj(reps[i]), reps[j]))
            if bit not in (0, 1):
                undefined.append((reps[i], reps[j]))
            elif bit == 0:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows, undefined


def representative_probes(ext: QuadExtCtx, lam, reps, pred=coset_bit) -> bool:
    """Whether the predicate on (c u, c' v) equals the one on (u, v) for every
    pair of reps and every c, c' in GF(q)*, each w through `ext.mul`."""
    q = ext.base.q

    def bit(u, v):
        return pred(ext, lam, ext.mul(ext.conj(u), v))

    for i, u in enumerate(reps):
        for v in reps[i + 1:]:
            want = bit(u, v)
            for c in range(1, q):
                cu = ext.mul(u, (c, 0))
                if any(bit(cu, ext.mul(v, (cp, 0))) != want for cp in range(1, q)):
                    return False
    return True


def construct_a_for_order(ext: QuadExtCtx, m: int) -> int:
    """A trace-1 element a whose lambda-ratio has prescribed order m.

    Requires m | q+1 and m > 2.  Takes a power nu of the primitive root
    so that nu^(q-1) has order m, then a = N(nu / T(nu)).
    """
    q = ext.base.q
    if m <= 2:
        raise ValueError(f"order must exceed 2, got {m}")
    if (q + 1) % m != 0:
        raise ValueError(f"{m} does not divide q+1 = {q + 1}")
    g = ext.primitive_root()
    nu = ext.pow(g, (q + 1) // m)
    b = ext.trace_to_base(nu)  # nonzero: nu is outside the base field
    binv = ext.base.inv(b)
    lam = (ext.base.mul(nu[0], binv), ext.base.mul(nu[1], binv))
    a = ext.norm(lam)
    if ext.base.trace(a) != 1:
        raise AssertionError("constructed parameter has trace 0")
    return a
