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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress, count

from .gf2k import FieldCtx
from .mobius import (
    INF, MobiusMap, QuadExtCtx, find_generator_a, is_full_orbit, orbit, vertex_index,
)

MATRIX_CAP = 4097  # largest q+1 for which dense adjacency rows are built


class OutOfScopeError(RuntimeError):
    """Requested work is beyond a documented capacity or scope cap."""


@dataclass(frozen=True)
class ParamA:
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


@dataclass(frozen=True)
class PaleyLikeGraph:
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


# chars after a row's log-order slice, by tr(x): the loop bit (u = 0) and the INF bit
_TAILS = ("01", "00")


@dataclass(frozen=True)
class _RowTables:
    """Per-field strings behind the rotation build (see _build)."""

    doubled: tuple[str, str]      # [t]: twice the string whose char i is tr(g^-i) == t
    to_row: operator.itemgetter   # log-order chars + tail -> row string, bit n-1 first
    inf_row: int                  # row of INF: bit 1+w for tr(w + 1) = 0


@lru_cache(maxsize=4)
def _row_tables(ctx: FieldCtx) -> _RowTables:
    ctx._ensure_tables()
    m = ctx.q - 1
    exp2, log, tr = ctx._exp2, ctx._log, ctx.trace
    ones = "".join("01"[tr(exp2[-i % m])] for i in range(m))
    zeros = ones.translate(str.maketrans("01", "10"))
    # string position p holds bit n-1-p: bit 1+u reads log-order char log[u],
    # bits 1 and 0 read the tail
    to_row = operator.itemgetter(*(log[u] for u in range(m, 0, -1)), m, m + 1)
    inf_row = int("".join("10"[tr(w ^ 1)] for w in range(m, -1, -1)), 2) << 1
    return _RowTables((zeros * 2, ones * 2), to_row, inf_row)


def _build(ctx: FieldCtx, a: ParamA) -> PaleyLikeGraph:
    """Dense rows of the trace rule at either parity of k.

    With u = x + y the rule reads tr(c/u) + tr(x), c = x^2 + x + a, and
    tr(c) = tr(a) = 1 keeps c nonzero.  So row x is the set
    {u : tr(c/u) = tr(x)} translated by x, with the INF bit set iff
    tr(x) = 0.  In log coordinates u = g^j, division of c = g^L by u is
    the rotation j -> L - j: a slice of the doubled, reversed trace
    string.  x and x + 1 share c, and tr(x + 1) = tr(x) + tr(1), so they
    share the rotated row, complemented when tr(1) = 1 (odd k).
    """
    n = check_cap(ctx.k)
    tabs = _row_tables(ctx)
    ctx._ensure_tables()  # tabs are shared by equal contexts; this one may have no tables yet
    log = ctx._log
    m = ctx.q - 1
    flip = (1 << n) - 1 ^ 0b10 if ctx.trace(1) else 0  # all but the loop bit
    rows = [tabs.inf_row]
    for x in range(0, ctx.q, 2):
        lc = log[ctx.mul(x, x) ^ x ^ a.value]
        tx = ctx.trace(x)
        pre = int("".join(tabs.to_row(tabs.doubled[tx][m - lc:2 * m - lc] + _TAILS[tx])), 2)
        rows.append(translate(pre, x, ctx))
        rows.append(translate(pre ^ flip, x ^ 1, ctx))
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
# Bit and permutation primitives.  Each works on a row's binary string,
# where position n-1-m holds bit m, so a whole row is one C-level pass;
# translations x -> x + b are a few masked swaps of the row int instead.

# bin(x)[:1:-1].encode().translate(BIT_FLAGS) holds byte 1 at position m iff bit m
# of x is set: the selectors for itertools.compress
BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def iter_bits(x: int):
    """Positions of the set bits of x >= 0, ascending."""
    return compress(count(), bin(x)[:1:-1].encode().translate(BIT_FLAGS))


def check_width(rows) -> None:
    """Raise ValueError if a row of these n rows has a bit at or above n."""
    n = len(rows)
    if any(r >> n for r in rows):
        raise ValueError(f"a row has bits at or above n = {n}")


def _rows_from(rows, src):
    """Rows renamed so that new vertex i is old vertex src[i], yielded in the new order."""
    check_width(rows)
    n = len(rows)
    # bit m of a renamed row is bit src[m] of the original
    move = operator.itemgetter(*(n - 1 - src[n - 1 - s] for s in range(n)))
    fmt = f"0{n}b"
    for i in src:
        yield int("".join(move(format(rows[i], fmt))), 2)


def relabel(rows, perm) -> list[int]:
    """Rows after renaming vertex i to perm[i], for a permutation perm of range(n)."""
    src = [0] * len(perm)
    for i, p in enumerate(perm):
        src[p] = i
    return list(_rows_from(rows, src))


@lru_cache(maxsize=None)
def _swap_masks(k: int) -> tuple[int, ...]:
    """masks[h] has bit u set, for u < 2^k, exactly when bit h of u is clear."""
    q = 1 << k
    return tuple(((1 << s) - 1) * (((1 << q) - 1) // ((1 << 2 * s) - 1))
                 for s in (1 << h for h in range(k)))


def _swaps(b: int, ctx: FieldCtx) -> list[tuple[int, int]]:
    """(shift 2^h, mask) for each set bit h of the field element b."""
    ctx.check_elem(b)
    return [(1 << h, low) for h, low in enumerate(_swap_masks(ctx.k)) if b >> h & 1]


def _swapped(mask: int, swaps) -> int:
    """mask with the swaps applied to its field bits; bit 0 (INF) stays."""
    f = mask >> 1
    for s, low in swaps:
        f = (f & low) << s | (f >> s) & low
    return f << 1 | mask & 1


def translate(mask: int, b: int, ctx: FieldCtx) -> int:
    """A row under the vertex map x -> x + b (INF fixed): bit 1+x moves to 1+(x+b).

    Adding bit h of b exchanges the blocks of 2^h positions that differ
    in that bit, one masked swap per set bit.  mask has n = q+1 bits.
    """
    return _swapped(mask, _swaps(b, ctx))


def translate_rows(rows, b: int, ctx: FieldCtx) -> list[int]:
    """Rows after the vertex map x -> x + b (INF fixed): relabel's translation case."""
    if len(rows) != ctx.q + 1:
        raise ValueError(f"{len(rows)} rows, want q + 1 = {ctx.q + 1}")
    check_width(rows)
    swaps = _swaps(b, ctx)
    return [_swapped(rows[0], swaps),
            *(_swapped(rows[1 + (y ^ b)], swaps) for y in range(ctx.q))]


_TRANSPOSE_BLOCK = 256  # columns per pass of transpose


def transpose(rows) -> list[int]:
    """Rows of the transposed matrix: bit i of row j is bit j of row i."""
    check_width(rows)
    n = len(rows)
    out = []
    # one block of columns at a time, so only n short strings are ever held:
    # column s of the block [lo, hi) of the reversed rows, read as binary, is row hi-1-s
    for hi in range(n, 0, -_TRANSPOSE_BLOCK):
        lo = max(hi - _TRANSPOSE_BLOCK, 0)
        fmt, low = f"0{hi - lo}b", (1 << hi - lo) - 1
        cols = zip(*[format(r >> lo & low, fmt) for r in reversed(rows)])
        out.extend(int("".join(col), 2) for col in cols)
    return out[::-1]


def rotate(mask: int, i: int, n: int) -> int:
    """mask as an n-bit word rotated by i: bit d moves to (d + i) mod n."""
    i %= n
    return (mask << i | mask >> (n - i)) & ((1 << n) - 1)


def is_circulant(rows, conn_mask: int, n: int) -> bool:
    """Whether row i is conn_mask rotated by i, for rows in circulant order."""
    return all(r == rotate(conn_mask, i, n) for i, r in enumerate(rows))


@dataclass(frozen=True, eq=False)
class CirculantLabeling:
    """A cyclic-automorphism labeling v_i of PG(1,q) and its connection set.

    vertices[i] is v_i = sigma^i(INF) for sigma(z) = (b z + a)/(z + b + 1)
    (see circulant_labeling), so v_1 = b; b = 0 gives alpha's orbit.
    conn is the set of circulant distances d with tr(v_d + 1) = 0, the
    neighbours of v_0 = INF (out-neighbours when directed): v_i ~ v_j,
    or v_i -> v_j, exactly when (j - i) mod (q+1) is in conn.
    """

    a: ParamA
    b: int
    vertices: tuple
    conn: frozenset[int]
    pos: dict = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def conn_mask(self) -> int:
        """conn as a bitmask over orbit positions: bit d for each d in conn."""
        return sum(1 << d for d in self.conn)

    @cached_property
    def index(self) -> tuple[int, ...]:
        """index[i] is the dense row of v_i (INF -> 0, x -> 1+x, as vertex_index)."""
        return tuple(0 if p is INF else 1 + p for p in self.vertices)

    def check_graph(self, g: PaleyLikeGraph) -> None:
        """Raise ValueError unless g was built at this labeling's parameter and order."""
        if self.a != g.a or self.n != g.n:
            raise ValueError("labeling and graph were built from different parameters")

    def neighbour_mask(self, i: int) -> int:
        """Orbit positions adjacent to v_i in the circulant: conn_mask rotated by i."""
        return rotate(self.conn_mask, i, self.n)

    def orbit_rows(self, rows):
        """Dense rows relabeled into orbit order (v_i becomes i), one at a time."""
        return _rows_from(rows, self.index)


def circulant_labeling(ctx: FieldCtx, a: ParamA) -> CirculantLabeling:
    """The orbit of INF under sigma(z) = (b z + a)/(z + b + 1), an automorphism.

    sigma is alpha at a' = a + b^2 + b conjugated by x -> x + b, which
    carries the graph at a' onto the one at a or its complement.  b is the
    smallest even element giving a' a full alpha-orbit: b^2 + b runs over
    every trace-0 element, so one exists, and b = 0 when a's orbit is full.
    """
    ext = QuadExtCtx(ctx)
    b = next(b for b in range(0, ctx.q, 2) if is_full_orbit(ext, a.value ^ ctx.sqr(b) ^ b))
    verts = orbit(ctx, MobiusMap(b, a.value, 1, b ^ 1), INF)
    if len(verts) != ctx.q + 1:
        raise AssertionError("the orbit length disagrees with the lambda-ratio order")
    conn = frozenset(d for d in range(1, ctx.q + 1) if ctx.trace(verts[d] ^ 1) == 0)
    pos = {p: i for i, p in enumerate(verts)}
    return CirculantLabeling(a, b, tuple(verts), conn, pos)


def verify_circulant(g: PaleyLikeGraph, lab: CirculantLabeling) -> bool:
    """Certify edge(v_i, v_j) <=> (j - i) mod n in conn against the matrix.

    The rows are relabeled into orbit order (vertex v_i becomes i) and
    each is compared with the connection-set mask rotated by i; a row
    with bits at or above n fails.
    """
    lab.check_graph(g)
    n = g.n
    if any(r >> n for r in g.rows):
        return False
    # one relabeled row at a time: the graph is never held twice
    return is_circulant(lab.orbit_rows(g.rows), lab.conn_mask, n)
