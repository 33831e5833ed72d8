"""Construction of the trace graphs and tournaments on PG(1,q).

The adjacency rule on distinct points x, y is the trace bit of
(xy + x + a)/(x + y), totalized at infinity through the beta maps:
against y = INF the bit is tr(x), and with x = INF it is tr(y + 1).
A bit of 0 means edge (for even k) or an arc x -> y (for odd k).

Adjacency structures are dense bitsets: row i is an int whose bit j is
the edge/arc indicator, in the fixed vertex enumeration (INF first,
field elements ascending).  Dense builds are capped at order 4097
(k <= 12, about 2 MB of rows); everything the analysis needs above that
runs straight off the predicate and the circulant labeling instead.

The dense build rests on the diagonal identity.  With u = x + y != 0,
tr(x^2/u) = tr(x/sqrt(u)), so the edge bit of {x, x + u} is

    D_u[x] = 1 + tr(a/u) + tr(x w_u),   w_u = u^(-1/2) + u^(-1) + 1,

an affine Walsh word in x: D_u[x] = c_u + parity(x & m_u), with
c_u = 1 + tr(a/u) and m_u the trace dual of w_u (bit h is tr(z^h w_u)).
Read across u, the difference row R_x (bit u is D_u[x]) is then the word
C of the c_u plus one mask M_h (bit u is bit h of m_u) for each set bit
h of x.  A Gray walk over x reaches every R_x with one xor, and row x is
R_x translated by x.  The M_h depend on the field alone; C is the
parameter's.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress, count, islice
from typing import NamedTuple

from .gf2k import FieldCtx
from .mobius import INF, QuadExtCtx, find_generator_a, is_full_orbit, vertex_index

MATRIX_CAP = 4097  # largest q+1 for which dense adjacency rows are built


class OutOfScopeError(RuntimeError):
    """Requested work is beyond a documented capacity or scope cap."""


class ParamA(NamedTuple):
    """A trace-1 graph parameter."""

    value: int


def param_a(ctx: FieldCtx, a: int | None = None) -> ParamA:
    """Wrap (or choose) a graph parameter.

    With no explicit value, picks the smallest trace-1 element whose
    alpha-orbit is full, so its circulant labeling is the alpha-orbit.
    """
    if a is None:
        return ParamA(find_generator_a(ctx))
    ctx.check_elem(a)
    if ctx.trace(a) != 1:
        raise ValueError(f"parameter must have trace 1, tr({a:#x}) = 0")
    return ParamA(a)


def adjacency(ctx: FieldCtx, a: ParamA, x, y) -> int:
    """Trace bit of the pair (x, y); 0 means edge / arc x -> y.

    Equals tr(beta_y(x)).  Raises on x = y: loops are a caller bug.
    """
    if x is INF:
        if y is INF:
            raise ValueError("adjacency is undefined on equal points")
        return ctx.trace(ctx.check_elem(y) ^ 1)
    if y is INF:
        return ctx.trace(ctx.check_elem(x))
    ctx.check_elem(x)
    ctx.check_elem(y)
    den = x ^ y
    if den == 0:
        raise ValueError("adjacency is undefined on equal points")
    num = ctx.mul(x, y) ^ x ^ a.value
    if num == 0:
        return 0
    return ctx.trace(ctx.div(num, den))


class PaleyLikeGraph(NamedTuple):
    """Order-(q+1) graph (even k) or tournament (odd k) over PG(1,q).

    rows[i] is an int bitset: bit j is the edge {i, j}, or for a
    tournament the arc i -> j.
    """

    ctx: FieldCtx
    a: ParamA
    n: int
    rows: tuple[int, ...]

    @property
    def directed(self) -> bool:
        return self.ctx.k % 2 == 1

    def has_edge(self, u, v) -> bool:
        """Edge {u, v}, or arc u -> v when directed."""
        i = vertex_index(self.ctx, u)
        j = vertex_index(self.ctx, v)
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        """Degree of vertex i, its out-degree when directed."""
        return self.rows[i].bit_count()

    def edge_count(self) -> int:
        """Number of edges, or of arcs when directed."""
        total = sum(r.bit_count() for r in self.rows)
        return total if self.directed else total // 2


def check_cap(k: int) -> int:
    """The order q+1 = 2^k + 1, or OutOfScopeError above the dense cap."""
    n = (1 << k) + 1
    if n > MATRIX_CAP:
        raise OutOfScopeError(
            f"order {n} exceeds the dense adjacency cap {MATRIX_CAP};"
            " use the streaming predicate / labeling operations instead")
    return n


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # 0/1 bytes to the digits int(_, 2) reads
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # 0/1 bytes to their complements


def _quotient_traces(ctx: FieldCtx, e: int) -> int:
    """The q-bit word whose bit u is tr(e/u) for u != 0; bit 0 is clear.

    With t[s] = tr(g^s) (`FieldCtx.exp_traces`), tr(e/u) is
    t[(log e - log u) mod (q-1)].
    """
    if e == 0:
        return 0
    t, log = ctx.exp_traces(), ctx.log_table()
    le = log[e]
    rolled = t[le::-1] + t[:le:-1]  # [j] = tr(g^(log e - j))
    return int(bytes(map(rolled.__getitem__, log[:0:-1])).translate(_DIGITS), 2) << 1


@lru_cache(maxsize=16)  # holds each context's tables: bounded, unlike the masks keyed by k
def _field_words(ctx: FieldCtx) -> tuple[tuple[int, ...], int]:
    """The parameter-free part of the build: the Walsh masks and INF's row.

    Bit u of M_h is bit h of m_u, tr(z^h w_u) = tr((z^2h + z^h)/u) + tr(z^h),
    as tr(y) = tr(y^2) makes tr(z^h u^(-1/2)) = tr(z^2h/u); bit 0 (u = 0)
    is clear.  INF's row has bit 1+w for tr(w + 1) = 0.
    """
    q, tr = ctx.q, ctx.trace
    nonzero = (1 << q) - 2
    masks = tuple(_quotient_traces(ctx, ctx.sqr(z) ^ z) ^ (nonzero if tr(z) else 0)
                  for z in (1 << h for h in range(ctx.k)))
    inf_row = int("".join("10"[tr(w ^ 1)] for w in range(q - 1, -1, -1)), 2) << 1
    return masks, inf_row


def _build(ctx: FieldCtx, a: ParamA) -> PaleyLikeGraph:
    """Dense rows of the trace rule at either parity of k.

    R_x, the set {u : x ~ x + u}, translated by x (T_x moves bit u to
    u + x) and given the INF bit 1 + tr(x), is row x.  R_0 is C, with bit
    u = c_u = 1 + tr(a/u) (u = 0, the loop, stays clear), and the Gray
    walk's step across bit h, x' = x + 2^h, flips M_h (see the module
    docstring), so T_x'(R_x') = swap_h(T_x(R_x)) + T_x'(M_h): the
    translation rides along.  moved[h] is M_h translated by at[h], the
    point of its last use, and moves on by at[h] + x'; in the reflected
    Gray code that is two bits, so a row costs three masked swaps.
    """
    n = check_cap(ctx.k)
    swaps, tr = _swap_masks(ctx.k), ctx.trace
    masks, inf_row = _field_words(ctx)
    moved, at = list(masks), [0] * ctx.k
    row = _quotient_traces(ctx, a.value) ^ (1 << ctx.q) - 2
    rows = [0] * n
    rows[0], rows[1] = inf_row, row << 1 | 1
    x = 0
    for i in range(1, ctx.q):
        h = (i & -i).bit_length() - 1
        x ^= 1 << h
        moved[h] = _swapped(moved[h], x ^ at[h], swaps)
        at[h] = x
        s, low = swaps[h]
        row = ((row & low) << s | (row >> s) & low) ^ moved[h]
        rows[1 + x] = row << 1 | 1 ^ tr(x)
    return PaleyLikeGraph(ctx, a, n, tuple(rows))


def build_graph(ctx: FieldCtx, a: ParamA) -> PaleyLikeGraph:
    """Dense graph for even k: edge on trace bit 0; q/2-regular, no loops."""
    if ctx.k % 2:
        raise ValueError(f"k = {ctx.k} is odd and defines a tournament, not a graph")
    return _build(ctx, a)


def build_tournament(ctx: FieldCtx, a: ParamA) -> PaleyLikeGraph:
    """Dense tournament for odd k: arc x -> y on trace bit 0."""
    if ctx.k % 2 == 0:
        raise ValueError(f"k = {ctx.k} is even and defines a graph, not a tournament")
    return _build(ctx, a)


# ---------------------------------------------------------------------------
# Bit and permutation primitives.  Permutations and transposes of a whole
# matrix go through one transpose kernel (_transposed), one byte column of
# the rows per big int; translations x -> x + b are a few masked swaps of
# the row int instead.

# bin(x)[:1:-1].encode().translate(BIT_FLAGS) holds byte 1 at position m iff bit m
# of x is set: the selectors for itertools.compress
BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def iter_bits(x: int):
    """Positions of the set bits of x >= 0, ascending."""
    return compress(count(), bin(x)[:1:-1].encode().translate(BIT_FLAGS))


def wide_row(rows) -> int | None:
    """The first of these n rows with a bit at or above n, or None."""
    n = len(rows)
    return next((i for i, r in enumerate(rows) if r >> n), None)


def check_width(rows) -> None:
    """Raise ValueError if a row of these n rows has a bit at or above n."""
    i = wide_row(rows)
    if i is not None:
        raise ValueError(f"row {i} has bits at or above n = {len(rows)}")


_BAND = 256  # most bytes of each row that one pass over the rows copies out
# (distance, 64-bit mask) of the three delta swaps that transpose an 8 x 8 bit block
_BLOCK_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _transposed(rows):
    """Rows of the transpose of n rows of n bits, one at a time; bits at or above n are ignored.

    The rows are taken as N = n rounded up to 8 (the padding rows are
    zero), and their bytes are cut into balanced bands of at most 256.
    A band of w bytes a row is copied once, row by row, into a byte
    matrix, so its byte column j is the strided slice [j::w]: N bytes,
    read as one int x.  Each 64-bit word of x is an 8 x 8 bit block, bit
    8 r + c the entry (8 m + r, 8 j + c) of the band for the word's m,
    and three masked delta swaps transpose every block at once (Warren,
    Hacker's Delight, section 7-3).  Column 8 j + c of the band is then
    bytes c, c + 8, ... of x, one more strided slice.
    """
    n = len(rows)
    if not n:
        return
    size = n + -n % 8  # N
    width = size // 8  # bytes a row
    per = -(-width // -(-width // _BAND))  # bytes a row of the widest band
    band = bytearray(per * size)
    view = memoryview(band)  # rows go in through it, cheaper than bytearray slicing
    masks = [(d, int.from_bytes(m.to_bytes(8, "little") * width, "little")) for d, m in _BLOCK_SWAPS]
    for first in range(0, width, per):
        w = min(per, width - first)
        low = (1 << 8 * w) - 1
        for i, r in enumerate(rows):
            view[w * i:w * i + w] = (r >> 8 * first & low).to_bytes(w, "little")
        view[w * n:w * size] = bytes(w * (size - n))  # the padding rows, over a wider band's bytes
        for j in range(w):
            x = int.from_bytes(band[j:w * size:w], "little")
            for d, m in masks:
                t = (x >> d ^ x) & m
                x ^= t ^ t << d
            out = x.to_bytes(size, "little")
            for c in range(min(8, n - 8 * (first + j))):
                yield int.from_bytes(out[c::8], "little")


def transpose(rows) -> list[int]:
    """Rows of the transposed matrix: bit i of row j is bit j of row i."""
    check_width(rows)
    return list(_transposed(rows))


def _renamed(rows, src):
    """Rows renamed so that new vertex i is old vertex src[i], yielded in the new order.

    Reorder, transpose, reorder, transpose: bit j of new row i is bit
    src[j] of old row src[i].
    """
    check_width(rows)
    cols = list(_transposed([rows[i] for i in src]))
    return _transposed([cols[i] for i in src])


def relabel(rows, perm) -> list[int]:
    """Rows after renaming vertex i to perm[i], for a permutation perm of range(n)."""
    if sorted(perm) != list(range(len(rows))):
        raise ValueError(f"perm is not a permutation of range({len(rows)})")
    src = [0] * len(perm)
    for i, p in enumerate(perm):
        src[p] = i
    return list(_renamed(rows, src))


@lru_cache(maxsize=None)
def _swap_masks(k: int) -> tuple[tuple[int, int], ...]:
    """(2^h, mask) for h < k: mask has bit u set, for u < 2^k, exactly when bit h of u is clear."""
    q = 1 << k
    return tuple((s, ((1 << s) - 1) * (((1 << q) - 1) // ((1 << 2 * s) - 1)))
                 for s in (1 << h for h in range(k)))


def _swapped(f: int, b: int, swaps) -> int:
    """The 2^k-bit word f with bit u moved to u ^ b, by the swaps (2^h, mask) of set bits h of b."""
    for s, low in swaps:
        if b & s:
            f = (f & low) << s | (f >> s) & low
    return f


def translate_rows(rows, b: int, ctx: FieldCtx) -> list[int]:
    """Rows after the vertex map x -> x + b (INF fixed): relabel's translation case."""
    if len(rows) != ctx.q + 1:
        raise ValueError(f"{len(rows)} rows, want q + 1 = {ctx.q + 1}")
    check_width(rows)
    ctx.check_elem(b)
    swaps = [(s, low) for s, low in _swap_masks(ctx.k) if b & s]
    return [_swapped(r >> 1, b, swaps) << 1 | r & 1
            for r in (rows[0], *(rows[1 + (y ^ b)] for y in range(ctx.q)))]


def rotate(mask: int, i: int, n: int) -> int:
    """mask as an n-bit word rotated by i: bit d moves to (d + i) mod n."""
    i %= n
    return (mask << i | mask >> (n - i)) & ((1 << n) - 1)


def is_circulant(rows, conn_mask: int, n: int) -> bool:
    """Whether row i is conn_mask rotated by i, for rows in circulant order."""
    return all(r == rotate(conn_mask, i, n) for i, r in enumerate(rows))


def unpaired_distance(conn: frozenset[int], n: int) -> int | None:
    """The least d in conn with n - d not in conn; None when conn is closed under negation."""
    return min((d for d in conn if n - d not in conn), default=None)


class CirculantLabeling:
    """A cyclic-automorphism labeling v_i of PG(1,q) and its connection set.

    vertices[i] is v_i = sigma^i(INF) for sigma(z) = (b z + a)/(z + b + 1)
    (see circulant_labeling), so v_0 = INF and v_1 = b; b = 0 gives
    alpha's orbit.  conn is the set of circulant distances d with
    tr(v_d + 1) = 0, the neighbours of v_0 (out-neighbours when directed):
    v_i ~ v_j, or v_i -> v_j, exactly when (j - i) mod (q+1) is in conn.
    The constructor checks that v_0 is INF, that the other vertices are the
    q field elements, each once, and that conn lies in 1 .. n-1.
    Labelings are read-only, compare by identity and cache index on first
    read.
    """

    def __init__(self, a: ParamA, b: int, vertices: tuple, conn: frozenset[int]):
        finite = vertices[1:]
        q = len(finite)
        bad = f"the vertices are not INF and then a permutation of GF({q})"
        if (vertices[:1] != (INF,) or INF in finite
                or min(finite, default=0) < 0 or max(finite, default=0) >= q):
            raise ValueError(bad)
        seen = bytearray(q)
        for v in finite:
            seen[v] = 1
        if not all(seen):  # q points in q slots: an empty slot means a repeated point
            raise ValueError(bad)
        if min(conn, default=1) < 1 or max(conn, default=0) > q:
            raise ValueError(f"the connection set is not within 1 .. {q}")
        self.__dict__.update(a=a, b=b, vertices=vertices, conn=conn)

    def __setattr__(self, name, value):
        raise AttributeError(f"CirculantLabeling is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CirculantLabeling is read-only: cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"CirculantLabeling(a={self.a!r}, b={self.b:#x}, n={self.n}, |conn|={len(self.conn)})"

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def index(self) -> tuple[int, ...]:
        """index[i] is the dense row of v_i (INF -> 0, x -> 1+x, as vertex_index)."""
        return (0, *map((1).__add__, islice(self.vertices, 1, None)))

    def check_graph(self, g: PaleyLikeGraph) -> None:
        """Raise ValueError unless g was built at this labeling's parameter and order."""
        if self.a != g.a or self.n != g.n:
            raise ValueError("labeling and graph were built from different parameters")

    def orbit_rows(self, rows):
        """Dense rows relabeled into orbit order (v_i becomes i), one at a time."""
        return _renamed(rows, self.index)


def circulant_labeling(ctx: FieldCtx, a: ParamA) -> CirculantLabeling:
    """The orbit of INF under sigma(z) = (b z + a)/(z + b + 1), an automorphism.

    sigma is alpha at a' = a + b^2 + b conjugated by x -> x + b, which
    carries the graph at a' onto the one at a or its complement.  b is the
    smallest even element giving a' a full alpha-orbit: b^2 + b runs over
    every trace-0 element, so one exists, and b = 0 when a's orbit is full.

    The orbit is walked as sigma(z) = a'/(z + b + 1) + b, in log
    coordinates (exp[log a' - log(z + b + 1)] + b, a' != 0 as tr(a') = 1),
    from sigma(INF) = b to sigma^q(INF) = b + 1.  A short orbit reaches
    b + 1, whose image is INF, before q + 1 points, and the walk stops
    there.
    """
    ext = QuadExtCtx(ctx)
    q = ctx.q
    b = next(b for b in range(0, q, 2) if is_full_orbit(ext, a.value ^ ctx.sqr(b) ^ b))
    exp, log, c = ctx.exp_table(), ctx.log_table(), b ^ 1
    la2 = log[a.value ^ ctx.sqr(b) ^ b]
    verts = [INF, b]
    append = verts.append
    v = b
    for _ in range(q - 1):
        if v == c:  # sigma(b + 1) = INF: the orbit closed early
            break
        v = exp[la2 - log[v ^ c]] ^ b
        append(v)
    if len(verts) != q + 1:
        raise AssertionError("the orbit length disagrees with the lambda-ratio order")
    near = ctx.traces(map((1).__xor__, islice(verts, 1, None))).translate(_FLIP)
    return CirculantLabeling(a, b, tuple(verts), frozenset(compress(count(1), near)))


def verify_circulant(g: PaleyLikeGraph, lab: CirculantLabeling) -> bool:
    """Certify edge(v_i, v_j) <=> (j - i) mod n in conn against the matrix.

    The rows, put into orbit order, are transposed, so the column of
    vertex v_j becomes a row whose bit i is the entry (v_i, v_j): the
    mask of -conn rotated by j.  Every entry is compared once, with no
    symmetry assumed; a row with bits at or above n fails.
    """
    lab.check_graph(g)
    n = g.n
    if wide_row(g.rows) is not None:
        return False
    where = [0] * n  # where[c]: the orbit position of dense vertex c
    for i, c in enumerate(lab.index):
        where[c] = i
    neg_mask = sum(1 << -d % n for d in lab.conn)
    doubled, full = neg_mask << n | neg_mask, (1 << n) - 1  # doubled >> n - i & full: neg_mask rotated by i
    cols = _transposed([g.rows[c] for c in lab.index])
    return all(col == doubled >> n - where[c] & full for c, col in enumerate(cols))
