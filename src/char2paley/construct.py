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

an affine Walsh word in x: a constant plus the parity of x masked by the
trace dual of w_u.  One bit-matrix transpose turns these translation
diagonals into rows over u, and row x is that row translated by x.
"""

from __future__ import annotations

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


@lru_cache(maxsize=1)
def _walsh_pieces() -> tuple[tuple[bytes, bytes], ...]:
    """[m][f]: the 256-bit word whose bit t is f + parity(t & m), as 32 little-endian bytes."""
    full = (1 << _TILE) - 1
    words = [0] * _TILE
    for m in range(1, _TILE):
        low = m & -m
        words[m] = words[m ^ low] ^ _bit_set_masks()[low.bit_length() - 1]
    return tuple((w.to_bytes(_PIECE, "little"), (w ^ full).to_bytes(_PIECE, "little"))
                 for w in words)


def _diagonals(ctx: FieldCtx, a: ParamA) -> list[tuple[int, int]]:
    """(m_u, c_u) for each u, with D_u[x] = c_u + parity(x & m_u) (see the module docstring).

    m_u is the trace dual of w_u (bit i is tr(z^i w_u)) and c_u = 1 + tr(a/u);
    u = 0 gets (0, 0), the empty loop diagonal.
    """
    ctx._ensure_tables()
    exp2, log = ctx._exp2, ctx._log
    m, half = ctx.q - 1, ctx.q // 2  # u^(-1/2) = g^(-j q/2) for u = g^j, as 2 (q/2) = 1 mod q-1
    # dual[w] has bit i = tr(z^i w), filled one lowest set bit of w at a time
    basis = [sum(ctx.trace(ctx.mul(1 << i, 1 << j)) << i for i in range(ctx.k))
             for j in range(ctx.k)]
    dual = [0] * ctx.q
    for w in range(1, ctx.q):
        low = w & -w
        dual[w] = dual[w ^ low] ^ basis[low.bit_length() - 1]
    la = log[a.value]
    diag = [(0, 0)] * ctx.q
    for j in range(m):
        w = exp2[-j * half % m] ^ exp2[-j % m] ^ 1
        diag[exp2[j]] = (dual[w], 1 ^ ctx.trace(exp2[(la - j) % m]))
    return diag


def _diagonal_blocks(diag: list[tuple[int, int]], q: int):
    """Per 256-column block of x, the pieces of every diagonal D_u, as _transpose_tiles reads them.

    For lo <= x < lo + 256, parity(x & m) = parity(lo & m) + parity((x - lo) & m),
    so a piece is a table word for m mod 256, complemented by that constant.
    Bits at or above q (for q < 256) are ignored by the transpose.
    """
    words = _walsh_pieces()
    for lo in range(0, q, _TILE):
        yield [b"".join([words[mu & _TILE - 1][cu ^ (lo & mu).bit_count() & 1]
                         for mu, cu in diag[t:t + _TILE]])
               for t in range(0, q, _TILE)]


def _build(ctx: FieldCtx, a: ParamA) -> PaleyLikeGraph:
    """Dense rows of the trace rule at either parity of k.

    The diagonals D_u, transposed, give for each x the row
    {u : x ~ x + u}; translated by x, with the INF bit 1 + tr(x), that
    is row x.  INF's row has bit 1+w for tr(w + 1) = 0.
    """
    n = check_cap(ctx.k)
    q, tr = ctx.q, ctx.trace
    rows = [int("".join("10"[tr(w ^ 1)] for w in range(q - 1, -1, -1)), 2) << 1]
    diagonals_by_x = _transpose_tiles(_diagonal_blocks(_diagonals(ctx, a), q), q)
    for x, row in enumerate(diagonals_by_x):
        rows.append(translate(row << 1 | (1 ^ tr(x)), x, ctx))
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
# matrix go through one big-int tile transpose (_transpose_tiles);
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


_TILE_K = 8
_TILE = 1 << _TILE_K  # side of the square bit tiles of the transpose kernel
_PIECE = _TILE // 8   # bytes per tile row


@lru_cache(maxsize=1)
def _bit_set_masks() -> tuple[int, ...]:
    """masks[h] has bit t set, for t < 256, exactly when bit h of t is set."""
    return tuple(low << (1 << h) for h, low in enumerate(_swap_masks(_TILE_K)))


@lru_cache(maxsize=1)
def _tile_swaps() -> tuple[tuple[int, int], ...]:
    """(shift, mask) of the eight delta swaps that transpose one 256 x 256 tile.

    Bit 256 r + c of a tile is its entry (r, c).  For s = 128, 64, ..., 1
    the entries with bit s of r clear and bit s of c set trade places with
    (r + s, c - s), 255 s positions up: the recursive block transpose
    (Warren, Hacker's Delight, section 7-3).
    """
    zero = bytes(_PIECE)
    out = []
    for h in reversed(range(_TILE_K)):
        s = 1 << h
        cols = _bit_set_masks()[h].to_bytes(_PIECE, "little")
        out.append(((_TILE - 1) * s,
                    int.from_bytes(b"".join(zero if r & s else cols for r in range(_TILE)), "little")))
    return tuple(out)


def _transpose_tiles(blocks, n: int):
    """Rows of the transpose of an n x n bit matrix, in order, one at a time.

    blocks yields, for each column block lo = 0, 256, ... below n, the
    pieces (row >> lo) mod 2^256 of the matrix's n rows as a list of
    tiles: bytes strings of 32 little-endian bytes per piece, for rows
    0-255, 256-511, ...  Bits of a piece at or above column n are
    ignored.  Each tile is read as one int and transposed in place by
    eight masked delta swaps; row lo + c of the result is then row c of
    each tile in turn.
    """
    swaps = _tile_swaps()
    size = _TILE * _PIECE  # bytes per tile
    for lo, block in zip(range(0, n, _TILE), blocks):
        tiles = []
        for tile in block:
            x = int.from_bytes(tile, "little")
            for d, mask in swaps:
                t = (x >> d ^ x) & mask
                x ^= t ^ t << d
            tiles.append(x.to_bytes(size, "little"))
        for c in range(0, min(_TILE, n - lo) * _PIECE, _PIECE):
            yield int.from_bytes(b"".join([t[c:c + _PIECE] for t in tiles]), "little")


def _transposed(rows):
    """Rows of the transpose of n rows of n bits, one at a time; rows must fit in n bits."""
    n = len(rows)
    low = (1 << _TILE) - 1
    return _transpose_tiles(
        ([b"".join([(r >> lo & low).to_bytes(_PIECE, "little") for r in rows[t:t + _TILE]])
          for t in range(0, n, _TILE)]
         for lo in range(0, n, _TILE)),
        n)


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
    src = [0] * len(perm)
    for i, p in enumerate(perm):
        src[p] = i
    return list(_renamed(rows, src))


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
        return _renamed(rows, self.index)


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

    The rows, put into orbit order, are transposed, so the column of
    vertex v_j becomes a row whose bit i is the entry (v_i, v_j): the
    mask of -conn rotated by j.  Every entry is compared once, with no
    symmetry assumed; a row with bits at or above n fails.
    """
    lab.check_graph(g)
    n = g.n
    if any(r >> n for r in g.rows):
        return False
    where = [0] * n  # where[c]: the orbit position of dense vertex c
    for i, c in enumerate(lab.index):
        where[c] = i
    neg_mask = sum(1 << -d % n for d in lab.conn)
    cols = _transposed([g.rows[c] for c in lab.index])
    return all(col == rotate(neg_mask, where[c], n) for c, col in enumerate(cols))
