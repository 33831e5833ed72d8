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
C of the c_u plus M(x), the sum of one mask M_h (bit u is bit h of m_u)
for each set bit h of x.  Row x is R_x translated by x, and translation
is linear: T_x(C) + T_x(M(x)).  The second half depends on the field
alone and is tabled once per field; the first is the parameter's, and
doubling over the bits of x reaches it with one masked swap a row.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress, count, islice
from operator import xor
from typing import NamedTuple

from .gf2k import FieldCtx
from .mobius import INF, MobiusMap, find_generator_a, is_full_orbit, vertex_index

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


class _FieldWords(NamedTuple):
    """The parameter-free part of the build, for one field."""

    masks: tuple[int, ...]  # M_h for h < k
    inf_row: int            # INF's row
    table: tuple[int, ...]  # [x]: T_x(M(x)) << 1 | 1 + tr(x), the rest of row x being T_x(C) << 1


@lru_cache(maxsize=16)  # holds each context's tables: bounded, unlike the masks keyed by k
def _field_words(ctx: FieldCtx) -> _FieldWords:
    """The Walsh masks, INF's row and the table of parameter-free row halves.

    Bit u of M_h is bit h of m_u, tr(z^h w_u) = tr((z^2h + z^h)/u) + tr(z^h),
    as tr(y) = tr(y^2) makes tr(z^h u^(-1/2)) = tr(z^2h/u); bit 0 (u = 0)
    is clear.  INF's row has bit 1+w for tr(w + 1) = 0.

    The table doubles over the bits of x.  T_y moves the entry of each
    finite point u to u + y, and for y < 2^j, T_(y + 2^j) is the swap
    across bit j after T_y.  M(y + 2^j) is M(y) + M_j, so entry y + 2^j
    is the swap across bit j of entry y plus T_y(M_j), and the T_y(M_j)
    double over the bits below j the same way: about two masked swaps an
    entry.  The swap clears bit 0, where the entry's INF bit goes.
    """
    q, k, tr = ctx.q, ctx.k, ctx.trace
    nonzero = (1 << q) - 2
    masks = tuple(_quotient_traces(ctx, ctx.sqr(z) ^ z) ^ (nonzero if tr(z) else 0)
                  for z in (1 << h for h in range(k)))
    traces = ctx.traces(range(q))
    inf_bits = traces.translate(_FLIP)  # [x]: 1 + tr(x)
    # tr(w + 1) = tr(w) + tr(1): INF's bit 1 + w is set where tr(w) = tr(1)
    inf_row = int((traces if tr(1) else inf_bits)[::-1].translate(_DIGITS), 2) << 1
    swaps = _swap_masks(k)
    table = [inf_bits[0]]
    for j, (s, low) in enumerate(swaps):
        moved = [masks[j] << 1]  # T_y(M_j) for y < 2^j
        for s2, low2 in swaps[:j]:
            moved += [(r & low2) << s2 | (r >> s2) & low2 for r in moved]
        table += [(d & low) << s | (d >> s) & low | bit
                  for d, bit in zip(map(xor, table, moved), inf_bits[s:2 * s])]
    return _FieldWords(masks, inf_row, tuple(table))


def _build(ctx: FieldCtx, a: ParamA) -> PaleyLikeGraph:
    """Dense rows of the trace rule at either parity of k.

    Row x is T_x(C) << 1 plus the field's table entry for x, with C the
    word of bit u = c_u = 1 + tr(a/u) (u = 0, the loop, stays clear), and
    INF's row is the field's.  For y < 2^i, T_(y + 2^i) is the swap across
    bit i after T_y, and T_y(C) << 1 is row y plus table[y]: each row
    after the first is one masked swap of a row before it, plus its own
    table entry.
    """
    n = check_cap(ctx.k)
    words = _field_words(ctx)
    table = words.table
    rows = [(_quotient_traces(ctx, a.value) ^ (1 << ctx.q) - 2) << 1 ^ table[0]]
    for s, low in _swap_masks(ctx.k):
        rows += [((d & low) << s | (d >> s) & low) ^ t
                 for d, t in zip(map(xor, rows, table), table[s:2 * s])]
    return PaleyLikeGraph(ctx, a, n, (words.inf_row, *rows))


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
# Bit primitives.  The one whole-matrix comparison, the circulant
# certificate (verify_circulant), is one column pass (first_failing_row)
# over one transpose kernel (_transposed); translations x -> x + b are
# masked swaps (_swap_masks) of a row, or of a band of rows
# (structure._shift_carries).  Other vertex maps are read off a certified C.


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


class RowVerdict(NamedTuple):
    """The verdict of a whole-matrix comparison: the first failing row, or None."""

    position: int | None

    def __bool__(self) -> bool:
        return self.position is None


def first_failing_row(rows, columns) -> RowVerdict:
    """The first of n rows that disagrees with `columns`, column c's expected bits (bit i the entry (i, c)).

    The rows are transposed once.  Bit i of a column's difference fails
    row i, so the first failing row is the lowest bit of the OR of each
    column's lowest differing bit.  A row with bits at or above n (which
    the transpose ignores) fails too: the first such row, wide_row's, is
    one more bit of the same OR.
    """
    wide = wide_row(rows)
    failing = 0 if wide is None else 1 << wide
    for col, want in zip(_transposed(rows), columns):
        diff = col ^ want
        failing |= diff & -diff
    return RowVerdict((failing & -failing).bit_length() - 1 if failing else None)


@lru_cache(maxsize=None)
def _swap_masks(k: int) -> tuple[tuple[int, int], ...]:
    """(2^h, mask) for h < k: mask has bit 1 + u set, for u < 2^k, exactly when bit h of u is clear.

    Bit 1 + u of a dense row is the finite point u, so the masked swap
    across bit h, (r & mask) << 2^h | (r >> 2^h) & mask, moves the entry
    of u to u + 2^h and leaves INF's bit 0 where it is.
    """
    q = 1 << k
    return tuple((s, ((1 << s) - 1) * (((1 << q) - 1) // ((1 << 2 * s) - 1)) << 1)
                 for s in (1 << h for h in range(k)))


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


def circulant_labeling(ctx: FieldCtx, a: ParamA) -> CirculantLabeling:
    """The orbit of INF under sigma(z) = (b z + a)/(z + b + 1), an automorphism.

    sigma is alpha + b I, and alpha at a' = a + b^2 + b conjugated by
    x -> x + b, which carries the graph at a' onto the one at a or its
    complement.  b is the smallest even element whose sigma has a full
    orbit (`is_full_orbit`): b^2 + b runs over every trace-0 element, so
    one exists, and b = 0 when a's orbit is full.

    The orbit is walked as sigma(z) = a'/(z + b + 1) + b, in log
    coordinates (exp[log a' - log(z + b + 1)] + b, a' != 0 as tr(a') = 1),
    from sigma(INF) = b to sigma^q(INF) = b + 1.  A short orbit reaches
    b + 1, whose image is INF, before q + 1 points, and the walk stops
    there.
    """
    q = ctx.q
    b = next(b for b in range(0, q, 2) if is_full_orbit(ctx, MobiusMap(b, a.value, 1, b ^ 1)))
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
        raise AssertionError("the walked orbit length disagrees with is_full_orbit")
    near = ctx.traces(map((1).__xor__, islice(verts, 1, None))).translate(_FLIP)
    return CirculantLabeling(a, b, tuple(verts), frozenset(compress(count(1), near)))


def verify_circulant(g: PaleyLikeGraph, lab: CirculantLabeling) -> RowVerdict:
    """Certify edge(v_i, v_j) <=> (j - i) mod n in conn against the matrix.

    The rows, put into orbit order, go through one column pass
    (`first_failing_row`): the column of vertex v_j, bit i the entry
    (v_i, v_j), should be the mask of -conn rotated by j.  Every entry is
    compared once, with no symmetry assumed, and the verdict names the
    first failing orbit position.
    """
    lab.check_graph(g)
    n = g.n
    where = [0] * n  # where[c]: the orbit position of dense vertex c
    for i, c in enumerate(lab.index):
        where[c] = i
    neg_mask = sum(1 << -d % n for d in lab.conn)
    doubled, full = neg_mask << n | neg_mask, (1 << n) - 1  # doubled >> n - j & full: neg_mask rotated by j
    columns = (doubled >> n - j & full for j in where)
    return first_failing_row([g.rows[c] for c in lab.index], columns)
