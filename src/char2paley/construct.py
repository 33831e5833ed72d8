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
from functools import cached_property

from .gf2k import FieldCtx
from .mobius import INF, _alpha_orbit_len, alpha_of, find_generator_a, orbit, vertex_index

MATRIX_CAP = 4097  # largest q+1 for which dense adjacency rows are built


class OutOfScopeError(RuntimeError):
    """Requested work is beyond a documented capacity or scope cap."""


@dataclass(frozen=True)
class ParamA:
    """A trace-1 graph parameter, with its full-orbit flag precomputed."""

    value: int
    is_generator: bool


def param_a(ctx: FieldCtx, a: int | None = None) -> ParamA:
    """Wrap (or choose) a graph parameter.

    With no explicit value, picks the smallest trace-1 element whose
    alpha-orbit is full, so the circulant certificates are available.
    """
    if a is None:
        a = find_generator_a(ctx)
        return ParamA(a, True)
    ctx.check_elem(a)
    if ctx.trace(a) != 1:
        raise ValueError(f"parameter must have trace 1, tr({a:#x}) = 0")
    return ParamA(a, _alpha_orbit_len(ctx, a) == ctx.q + 1)


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
    """Order-(q+1) graph over PG(1,q); rows are int bitsets."""

    ctx: FieldCtx
    a: ParamA
    n: int
    rows: tuple[int, ...]

    def has_edge(self, u, v) -> bool:
        i = vertex_index(self.ctx, u)
        j = vertex_index(self.ctx, v)
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


@dataclass(frozen=True)
class PaleyLikeTournament:
    """Order-(q+1) tournament over PG(1,q); rows are out-arc bitsets."""

    ctx: FieldCtx
    a: ParamA
    n: int
    arcs: tuple[int, ...]

    def has_arc(self, u, v) -> bool:
        i = vertex_index(self.ctx, u)
        j = vertex_index(self.ctx, v)
        return bool(self.arcs[i] >> j & 1)

    def out_degree(self, i: int) -> int:
        return self.arcs[i].bit_count()


def _check_cap(ctx: FieldCtx) -> int:
    n = ctx.q + 1
    if n > MATRIX_CAP:
        raise OutOfScopeError(
            f"order {n} exceeds the dense adjacency cap {MATRIX_CAP};"
            " use the streaming predicate / labeling operations instead")
    return n


def _trace_bits(ctx: FieldCtx, x: int, a: int, out: bytearray, skip: int) -> None:
    """Set bits 1+y in `out` for every finite y != x with trace bit 0.

    Table-backed inner loop; `skip` is x itself (loops never enter).
    """
    ctx._ensure_tables()
    exp2 = ctx._exp2
    log = ctx._log
    tr = ctx._trace
    q1 = ctx.q - 1
    c = x ^ a
    if x == 0:
        la = log[a] + q1
        for y in range(1, ctx.q):
            # bit = tr(a/y)
            if not tr[exp2[la - log[y]]]:
                j = 1 + y
                out[j >> 3] |= 1 << (j & 7)
        return
    lx = log[x]
    for y in range(ctx.q):
        if y == skip:
            continue
        num = (exp2[lx + log[y]] if y else 0) ^ c
        if num and tr[exp2[log[num] - log[x ^ y] + q1]]:
            continue
        j = 1 + y
        out[j >> 3] |= 1 << (j & 7)


def build_graph(ctx: FieldCtx, a: ParamA) -> PaleyLikeGraph:
    """Dense graph for even k: edge on trace bit 0; q/2-regular, no loops."""
    if ctx.k % 2:
        raise ValueError(f"k = {ctx.k} is odd and defines a tournament, not a graph")
    n = _check_cap(ctx)
    nbytes = (n + 7) >> 3
    rowbufs = [bytearray(nbytes) for _ in range(n)]
    # row of INF: finite w with tr(w) = 0; symmetric bits on the way
    ctx._ensure_tables()
    tr = ctx._trace
    r0 = rowbufs[0]
    for w in range(ctx.q):
        if not tr[w]:
            j = 1 + w
            r0[j >> 3] |= 1 << (j & 7)
            rowbufs[j][0] |= 1
    for x in range(ctx.q):
        _trace_bits(ctx, x, a.value, rowbufs[1 + x], x)
    rows = tuple(int.from_bytes(buf, "little") for buf in rowbufs)
    return PaleyLikeGraph(ctx, a, n, rows)


def build_tournament(ctx: FieldCtx, a: ParamA) -> PaleyLikeTournament:
    """Dense tournament for odd k: arc x -> y on trace bit 0."""
    if ctx.k % 2 == 0:
        raise ValueError(f"k = {ctx.k} is even and defines a graph, not a tournament")
    n = _check_cap(ctx)
    nbytes = (n + 7) >> 3
    rowbufs = [bytearray(nbytes) for _ in range(n)]
    ctx._ensure_tables()
    tr = ctx._trace
    # arcs at INF: w -> INF iff tr(w) = 0, INF -> y iff tr(y+1) = 0
    # (odd k has tr(1) = 1, so exactly one of the two holds per pair)
    r0 = rowbufs[0]
    for w in range(ctx.q):
        j = 1 + w
        if tr[w]:
            r0[j >> 3] |= 1 << (j & 7)
        else:
            rowbufs[j][0] |= 1
    for x in range(ctx.q):
        _trace_bits(ctx, x, a.value, rowbufs[1 + x], x)
    arcs = tuple(int.from_bytes(buf, "little") for buf in rowbufs)
    return PaleyLikeTournament(ctx, a, n, arcs)


@dataclass(frozen=True, eq=False)
class CirculantLabeling:
    """The alpha-orbit labeling v_i of PG(1,q) and its connection set.

    vertices[i] is v_i = alpha^i(INF); conn is the set of circulant
    distances d with tr(v_d) = 0, i.e. the neighbours of v_0 = INF.
    For even k: v_i ~ v_j exactly when (j - i) mod (q+1) is in conn.
    """

    a: ParamA
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

    def neighbour_mask(self, i: int) -> int:
        """Orbit positions adjacent to v_i in the circulant: conn_mask rotated by i."""
        n = self.n
        c = self.conn_mask
        i %= n
        return (c << i | c >> (n - i)) & ((1 << n) - 1)


def circulant_labeling(ctx: FieldCtx, a: ParamA) -> CirculantLabeling:
    if not a.is_generator:
        raise ValueError(
            f"alpha-orbit of INF under a = {a.value:#x} is shorter than q+1;"
            " no circulant labeling")
    verts = orbit(ctx, alpha_of(ctx, a.value), INF)
    if len(verts) != ctx.q + 1:
        raise AssertionError("generator flag disagrees with the actual orbit")
    conn = frozenset(i for i in range(1, ctx.q + 1) if ctx.trace(verts[i]) == 0)
    pos = {p: i for i, p in enumerate(verts)}
    return CirculantLabeling(a, tuple(verts), conn, pos)


def verify_circulant(g: PaleyLikeGraph, lab: CirculantLabeling) -> bool:
    """Certify edge(v_i, v_j) <=> (j - i) mod n in conn against the matrix.

    Each dense row is relabeled into orbit order (bit j becomes the edge
    bit towards v_j) and compared with the connection-set mask rotated by
    i.  The relabeling runs on the row's binary string, where position
    n-1-m holds bit m, so one itemgetter permutes a whole row.
    """
    if lab.a != g.a:
        raise ValueError("labeling and graph were built from different parameters")
    n = g.n
    idx = [vertex_index(g.ctx, p) for p in lab.vertices]
    relabel = operator.itemgetter(*(n - 1 - idx[n - 1 - m] for m in range(n)))
    fmt = f"0{n}b"
    for i in range(n):
        row = g.rows[idx[i]]
        if row >> n or int("".join(relabel(format(row, fmt))), 2) != lab.neighbour_mask(i):
            return False
    return True
