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
  product w = u^q v per pair, and `representative_probes` re-reads
  the predicate on every pair against every pair of unit multipliers,
  the oracles of the class read in `chapman_build` (its connection set,
  and, through `is_circulant`, the verdict of `coset-graph-circulant`)
  and of `verify_representative_independence`.  Both work in FieldCtx(2k)
  by definition: x^q by `power`, T(x) = x + x^q, tr_q as a Frobenius
  sum, and the embedding of GF(q) (`quadratic_extension`) and lambda
  (`search_lambda`) found by search, not by the package's helpers.
- `circulant_witness` renames the rows into orbit order and takes the
  first that is too wide or not the connection set rotated by its
  position, and `circulant_row_witness` builds each orbit row's dense
  row from the connection set and `lab.index`, with no transpose: the
  oracles of the one-pass witness in `verify_circulant`, on which every
  structural read rests.
- `dense_regularity`, `dense_symmetry` and `dense_no_loops` read every
  degree, the rows against their own columns (one column pass) and the
  diagonal off the dense rows: the checks `certify` made before it read
  regularity, symmetry and no-loops off the certified connection set,
  and the oracles of those reads.
- `tile_transpose` transposes a bit matrix one 256 x 256 tile at a time
  with the eight delta swaps of the recursive block transpose, the
  oracle of the byte-column kernel `_transposed` at orders where a
  per-bit transpose is too slow.
- `transpose`, `relabel`, `complement` and `carries` rename a whole
  matrix by two transposes and compare it list against list, and
  `rotate` and `is_circulant` build each row of a circulant and compare
  it: the routes the package took before every whole-matrix comparison
  became one column pass, and the oracles of `first_failing_row` (and,
  through `circulant_witness`, of the witness of `verify_circulant`).
- `verify_vertex_map` holds the rows after a vertex map to a target, or
  to its complement, by one column pass over two transposes, and
  `doubling_witness` takes the first row of the image of v_i -> v_2i,
  by `relabel`, that is not the complement's: the dense checks the
  package made before `verify_self_complementary` and
  `verify_automorphisms` read their maps off the certified connection
  set, and the oracles of those reads through k = 8.
- `int_self_convolution` squares one binary int of w-byte slots, the
  oracle of the decimal square behind `kloosterman_sweep` and
  `circulant_spectrum`.
- `difference_rows` walks the difference rows R_x alone, and
  `per_row_build` translates each of them by its own x, popcount(x)
  masked swaps a row: the oracles of the dense build, which tables the
  parameter-free half of every row once per field.
- `translate_rows` moves each row by x -> x + b, one row at a time, the
  oracle of the banded translate-and-compare kernel behind
  `verify_shift_isomorphism`.
- `predicate_rows` fills the dense rows pair by pair from `adjacency`,
  the paper's rule, the oracle of the dense build through k = 9 and,
  written out pair by pair, of the bytes `build` exports.
- `beta_of`, `compose`, `inverse`, `construct_a_for_order` and
  `trace_partition` state the paper's maps and sets by definition, for
  the tests to check the package against; `all_points`, `IDENTITY`,
  `det` and `mobius_map` are the small Moebius helpers they and the
  tests share, and `iter_bits` the walk over a row's set bits that the
  tests read rows with (the package's writers walk rows with
  `formats._picks`).
"""

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, count
from math import comb
from operator import xor

from char2paley import (
    INF, FieldCtx, MobiusMap, OutOfScopeError, PaleyLikeGraph, RowVerdict, adjacency,
    apply, ParamA, codegree_formula, first_failing_row, vertex_index,
)
from char2paley.construct import (
    _field_words, _quotient_traces, _swap_masks, _transposed, check_cap, check_width,
)
from char2paley.formats import BIT_FLAGS
from char2paley.gf2k import power

EXHAUSTIVE_SUBSET_CAP = 17  # largest order for the 2^n induced-subgraph sweep


def iter_bits(x: int):
    """Positions of the set bits of x >= 0, ascending."""
    return compress(count(), bin(x)[:1:-1].encode().translate(BIT_FLAGS))


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


def transpose(rows) -> list[int]:
    """Rows of the transposed matrix: bit i of row j is bit j of row i."""
    check_width(rows)
    return list(_transposed(rows))


def relabel(rows, perm) -> list[int]:
    """Rows after renaming vertex i to perm[i], for a permutation perm of range(n).

    Reorder, transpose, reorder, transpose: with src the inverse of perm,
    bit j of new row i is bit src[j] of old row src[i].
    """
    if sorted(perm) != list(range(len(rows))):
        raise ValueError(f"perm is not a permutation of range({len(rows)})")
    src = [0] * len(perm)
    for i, p in enumerate(perm):
        src[p] = i
    cols = transpose([rows[i] for i in src])
    return list(_transposed([cols[i] for i in src]))


def complement(rows) -> list[int]:
    """The complement's rows (a tournament's complement is its reversal)."""
    full = (1 << len(rows)) - 1
    return [full ^ r ^ 1 << i for i, r in enumerate(rows)]


def carries(image, target, flipped: bool) -> bool:
    """Whether `image`, rows after a vertex map, are the rows `target`, or its
    complement's when flipped."""
    return list(image) == (complement(target) if flipped else list(target))


def verify_vertex_map(rows, perm, target, flipped: bool) -> RowVerdict:
    """Whether i -> perm[i], a permutation of range(n), carries these n rows onto
    `target`, or onto its complement when flipped (a tournament's complement is
    its reversal): the first target vertex whose image row differs, or None.

    Image row perm[i] is row i, and its columns are held to the target's,
    renamed by the map: image column c (source column c) is target column
    perm[c], complemented off the diagonal when flipped.  A target row with
    bits at or above n is folded into its image row, so it fails there too.
    """
    n = len(rows)
    if sorted(perm) != list(range(n)) or len(target) != n:
        raise ValueError(f"perm is not a permutation of range({n}), or the target has not {n} rows")
    image = [0] * n
    for i, p in enumerate(perm):
        image[p] = rows[i] | target[p] >> n << n
    cols = list(_transposed(target))
    full = (1 << n) - 1 if flipped else 0
    return first_failing_row(image, (full ^ cols[p] ^ flipped << p for p in perm))


def doubling_witness(rows, lab) -> int | None:
    """The first row of the image of v_i -> v_2i, by relabel, that is not the
    complement's row; None when there is none."""
    perm = [0] * lab.n
    for i, c in enumerate(lab.index):
        perm[c] = lab.index[2 * i % lab.n]
    image, want = relabel(rows, perm), complement(rows)
    return next((i for i in range(lab.n) if image[i] != want[i]), None)


def rotate(mask: int, i: int, n: int) -> int:
    """mask as an n-bit word rotated by i: bit d moves to (d + i) mod n."""
    i %= n
    return (mask << i | mask >> (n - i)) & ((1 << n) - 1)


def is_circulant(rows, conn_mask: int, n: int) -> bool:
    """Whether row i is conn_mask rotated by i, for rows in circulant order."""
    return all(r == rotate(conn_mask, i, n) for i, r in enumerate(rows))


def circulant_witness(g: PaleyLikeGraph, lab) -> int | None:
    """The orbit position of the first v_i whose row has a bit at or above
    n, or, renamed into orbit order, is not the connection set shifted by
    i; None when there is none.  Bits at or above n are dropped for the
    renaming.
    """
    n = lab.n
    perm = [0] * n
    for i, c in enumerate(lab.index):
        perm[c] = i
    conn = sum(1 << d for d in lab.conn)
    renamed = relabel([r & (1 << n) - 1 for r in g.rows], perm)
    return next((i for i, (c, r) in enumerate(zip(lab.index, renamed))
                 if g.rows[c] >> n or r != rotate(conn, i, n)), None)


def circulant_row_witness(g: PaleyLikeGraph, lab) -> int | None:
    """The orbit position of the first v_i whose dense row is not the row built
    from the connection set, bit lab.index[(i + d) mod n] for each d in it; None
    when there is none.  Rows are compared whole, so a bit at or above n fails."""
    n, idx = lab.n, lab.index
    return next((i for i, c in enumerate(idx)
                 if g.rows[c] != sum(1 << idx[(i + d) % n] for d in lab.conn)), None)


def dense_regularity(g: PaleyLikeGraph):
    """(ok, detail): every row has q/2 bits, and none reaches past vertex n - 1; else
    the first wide row and its highest bit, or the first vertex of another degree."""
    wide = next((i for i, r in enumerate(g.rows) if r >> g.n), None)
    if wide is not None:
        return False, {"witness": {"vertex": wide, "bit": g.rows[wide].bit_length() - 1, "n": g.n}}
    want = g.ctx.q // 2
    for i, r in enumerate(g.rows):
        if r.bit_count() != want:
            return False, {"witness": {"vertex": i, "degree": r.bit_count(), "expected": want}}
    return True, {"degree": want}


def dense_symmetry(g: PaleyLikeGraph):
    """(ok, detail): the rows are their own columns; else the first failing row i,
    paired with the highest bit where row i and column i differ."""
    verdict = first_failing_row(g.rows, g.rows)
    if verdict:
        return True, None
    i = verdict.position
    col = sum((r >> i & 1) << c for c, r in enumerate(g.rows))
    return False, {"witness": {"pair": [i, (col ^ g.rows[i]).bit_length() - 1]}}


def dense_no_loops(g: PaleyLikeGraph):
    """(ok, detail): no row has its own bit; else the first vertex that does."""
    for i in range(g.n):
        if g.rows[i] >> i & 1:
            return False, {"witness": {"vertex": i}}
    return True, None


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
    masks = _field_words(ctx).masks
    r = _quotient_traces(ctx, a.value) ^ (1 << ctx.q) - 2
    yield 0, r
    for i in range(1, ctx.q):
        r ^= masks[(i & -i).bit_length() - 1]
        yield i ^ i >> 1, r


def _swapped(r: int, b: int, swaps) -> int:
    """The dense row r, with INF's bit 0 clear, with the entry of each finite point u moved
    to u + b, one swap a set bit of b."""
    for s, low in swaps:
        if b & s:
            r = (r & low) << s | (r >> s) & low
    return r


def per_row_build(ctx: FieldCtx, a: ParamA) -> list[int]:
    """Dense rows of the trace rule: R_x translated by x, with the INF bit 1 + tr(x)."""
    n = check_cap(ctx.k)
    swaps = _swap_masks(ctx.k)
    rows = [0] * n
    rows[0] = _field_words(ctx).inf_row
    for x, r in difference_rows(ctx, a):
        rows[1 + x] = _swapped(r << 1, x, swaps) | 1 ^ ctx.trace(x)
    return rows


def translate_rows(rows, b: int, ctx: FieldCtx) -> list[int]:
    """Rows after the vertex map x -> x + b (INF fixed), one row at a time:
    relabel's translation case."""
    if len(rows) != ctx.q + 1:
        raise ValueError(f"{len(rows)} rows, want q + 1 = {ctx.q + 1}")
    check_width(rows)
    ctx.check_elem(b)
    swaps = _swap_masks(ctx.k)
    return [_swapped(r >> 1 << 1, b, swaps) | r & 1
            for r in (rows[0], *(rows[1 + (y ^ b)] for y in range(ctx.q)))]


def all_points(ctx: FieldCtx) -> list:
    """The q+1 points in the fixed enumeration: INF first, then by encoding."""
    return [INF, *range(ctx.q)]


def predicate_rows(ctx: FieldCtx, a: ParamA) -> tuple[int, ...]:
    """Dense rows filled pair by pair from the adjacency predicate alone."""
    pts = all_points(ctx)
    return tuple(sum(1 << j for j, y in enumerate(pts) if j != i and adjacency(ctx, a, x, y) == 0)
                 for i, x in enumerate(pts))


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

    b is the smallest even element whose sigma_b: z -> (b z + a)/(z + b + 1)
    has an orbit of INF of q + 1 points, walked through `apply`, vertices
    that orbit, conn the distances d with tr(v_d + 1) = 0.
    """
    for b in range(0, ctx.q, 2):
        verts = tuple(orbit(ctx, MobiusMap(b, a, 1, b ^ 1), INF))
        if len(verts) == ctx.q + 1:
            break
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


@lru_cache(maxsize=8)  # k = 8 holds GF(2^16) and its 65536 halves
def quadratic_extension(ctx: FieldCtx):
    """(big, phi, halves): GF(q^2) = FieldCtx(2k), the embedding phi(x) = sum x_i rho^i
    of ctx into it with rho the least root of ctx.poly in big, found by search and
    asserted to lie in GF(q), and halves[c], the least x of big with x^2 + x = c."""
    big, q = FieldCtx(2 * ctx.k), ctx.q

    def modulus_at(x):
        return reduce(xor, (power(big.mul, 1, x, i) for i in range(ctx.k + 1) if ctx.poly >> i & 1))

    rho = next(x for x in range(big.q) if not modulus_at(x))
    assert power(big.mul, 1, rho, q) == rho
    basis = [power(big.mul, 1, rho, i) for i in range(ctx.k)]

    def phi(x):
        return reduce(xor, (r for i, r in enumerate(basis) if x >> i & 1), 0)

    halves = {}
    for x in range(big.q - 1, -1, -1):
        halves[big.mul(x, x) ^ x] = x
    return big, phi, halves


def search_lambda(ctx: FieldCtx, a: int) -> int:
    """The least root lambda in GF(q^2) of z^2 + z + a, a embedded by phi."""
    _, phi, halves = quadratic_extension(ctx)
    return halves[phi(a)]


def relative_trace(big: FieldCtx, x: int) -> int:
    """T(x) = x + x^q in GF(q^2) = big."""
    return x ^ power(big.mul, 1, x, 1 << big.k // 2)


def trace_q(big: FieldCtx, z: int) -> int:
    """tr_q(z) = z + z^2 + ... + z^(q/2) for z in GF(q) inside big, asserted 0 or 1."""
    t = s = z
    for _ in range(big.k // 2 - 1):
        s = big.mul(s, s)
        t ^= s
    assert t in (0, 1), (z, t)
    return t


def coset_bit(big: FieldCtx, lam: int, w: int):
    """tr_q(T(lam w) / (T(lam) T(w))), or None where T(w) = 0, by definition."""
    t_den = relative_trace(big, w)
    if t_den == 0:
        return None
    t_num = relative_trace(big, big.mul(lam, w))
    return trace_q(big, big.div(t_num, big.mul(relative_trace(big, lam), t_den)))


def chapman_rows_per_pair(ctx: FieldCtx, a: int, reps, pred=coset_bit):
    """(rows, undefined pairs) of the coset graph at a on reps (ints of GF(q^2)), one
    w = u^q v per pair, lambda found by search; pairs are held as reps, as
    `chapman_build` holds them."""
    big, _, _ = quadratic_extension(ctx)
    lam = search_lambda(ctx, a)
    n = len(reps)
    rows = [0] * n
    undefined = []
    for i in range(n):
        for j in range(i + 1, n):
            bit = pred(big, lam, big.mul(power(big.mul, 1, reps[i], ctx.q), reps[j]))
            if bit not in (0, 1):
                undefined.append((reps[i], reps[j]))
            elif bit == 0:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows, undefined


def representative_probes(ctx: FieldCtx, a: int, reps, pred=coset_bit) -> bool:
    """Whether the predicate on (c u, c' v) equals the one on (u, v) for every
    pair of reps and every c, c' in GF(q)*, embedded by phi, each w = u^q v."""
    big, phi, _ = quadratic_extension(ctx)
    lam = search_lambda(ctx, a)
    units = [phi(c) for c in range(1, ctx.q)]

    def bit(u, v):
        return pred(big, lam, big.mul(power(big.mul, 1, u, ctx.q), v))

    for i, u in enumerate(reps):
        for v in reps[i + 1:]:
            want = bit(u, v)
            for c in units:
                cu = big.mul(u, c)
                if any(bit(cu, big.mul(v, cp)) != want for cp in units):
                    return False
    return True


def construct_a_for_order(ctx: FieldCtx, m: int) -> int:
    """A trace-1 element a whose lambda-ratio has prescribed order m.

    Requires m | q+1 and m > 2.  Takes a power nu of the generator of
    GF(q^2) so that nu^(q-1) has order m, then N(nu / T(nu)), the norm
    N(x) = x x^q, and maps it back to a through phi by search.  That order
    is the lambda-ratio order, the length of the alpha_a-orbit of INF.
    """
    q = ctx.q
    if m <= 2:
        raise ValueError(f"order must exceed 2, got {m}")
    if (q + 1) % m != 0:
        raise ValueError(f"{m} does not divide q+1 = {q + 1}")
    big, phi, _ = quadratic_extension(ctx)
    nu = power(big.mul, 1, big.generator(), (q + 1) // m)
    lam = big.div(nu, relative_trace(big, nu))  # T(nu) != 0: nu is outside GF(q)
    norm = big.mul(lam, power(big.mul, 1, lam, q))
    a = next(x for x in range(q) if phi(x) == norm)
    if ctx.trace(a) != 1:
        raise AssertionError("constructed parameter has trace 0")
    return a
