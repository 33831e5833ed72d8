"""File formats for graphs, tournaments, and decompositions.

Vertex labels are `inf` for the point at infinity and 0x-prefixed
lowercase hex for field elements.  The edge-list format starts with a
`# k=.. a=.. poly=.. n=..` header and has one `u v` line per edge
(`u > v` per arc for tournaments).

The graph writers return an iterator of text chunks, one per adjacency
row (after a header chunk where the format has one), so a caller can
write them out as they come.  The edge-list, DIMACS and JSON writers
return an `Export`, which also yields the chunks of any contiguous row
range on their own, so ranges written apart and concatenated give the
same bytes; the matrix writer's rows are too cheap to be worth writing
apart.  The decomposition writer returns one string.  Every graph writer
raises ValueError, before its first chunk, on a row with a bit at or
above n.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from itertools import accumulate, chain, compress

from .construct import PaleyLikeGraph, check_width
from .mobius import INF, point_of_index
from .structure import HamiltonianDecomposition


def point_label(p) -> str:
    return "inf" if p is INF else f"{p:#x}"


def _header(g: PaleyLikeGraph) -> str:
    return f"# k={g.ctx.k} a={g.a.value:#x} poly={g.ctx.poly:#x} n={g.n}"


def _point_labels(g: PaleyLikeGraph) -> list[str]:
    """Label of each vertex index, looked up once per write."""
    return [point_label(point_of_index(g.ctx, i)) for i in range(g.n)]


# bin(x)[:1:-1].encode().translate(BIT_FLAGS) holds byte 1 at position m iff bit m
# of x is set: the selectors for itertools.compress
BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _picks(table: list[str], row: int):
    """The entries table[m] at the set bits m of row, in one C-level pass:
    the row's binary string, as compress flags, selects from the table."""
    return compress(table, bin(row)[:1:-1].encode().translate(BIT_FLAGS))


class Export:
    """The text of one graph export, as an iterator of its chunks.

    The text is head, then rows(0, n), then tail; rows(start, stop) yields
    the chunks of rows start .. stop - 1 alone (none for a row with
    nothing to write), so the rows of contiguous ranges, written apart and
    concatenated, give the same bytes.  weights() counts the bits each row
    writes; ranges() splits the rows by them.  Iteration yields head and
    tail only where they are not empty.
    """

    def __init__(self, n: int, head: str, rows, tail: str, weights):
        self.n, self.head, self.rows, self.tail, self.weights = n, head, rows, tail, weights
        self._chunks = chain([head] if head else [], rows(0, n), [tail] if tail else [])

    def __iter__(self):
        return self

    def __next__(self) -> str:
        return next(self._chunks)

    def ranges(self, parts: int) -> list[tuple[int, int]]:
        """At most `parts` contiguous, nonempty (start, stop) ranges that cover
        the rows in order, each holding about an equal share of the weight."""
        cum = list(accumulate(self.weights()))
        total = cum[-1] if cum else 0
        cuts = [0, *(bisect_right(cum, total * p // parts) for p in range(1, parts)), self.n]
        return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def _pair_export(g: PaleyLikeGraph, head: str, labels: list[str], prefix: str, sep: str):
    """Per row i, one `prefix u sep v` line per edge {u, v} with v > u,
    or per arc u -> v when directed.

    Each row picks its labels with _picks (from i+1 on when undirected,
    with the row shifted to match).  Rows must fit in n bits.
    """
    directed = g.directed

    def rows(start, stop):
        for i, row in enumerate(g.rows[start:stop], start):
            lo = 0 if directed else i + 1
            u = prefix + labels[i] + sep
            nbrs = ("\n" + u).join(_picks(labels[lo:] if lo else labels, row >> lo))
            if nbrs:
                yield u + nbrs + "\n"

    def weights():
        if directed:
            return map(int.bit_count, g.rows)
        return [(row >> (i + 1)).bit_count() for i, row in enumerate(g.rows)]

    return Export(g.n, head, rows, "", weights)


def write_edges(g: PaleyLikeGraph) -> Export:
    """Edge (or arc) list with header, one pair per line."""
    check_width(g.rows)
    sep = " > " if g.directed else " "
    return _pair_export(g, _header(g) + "\n", _point_labels(g), "", sep)


def write_dimacs(g: PaleyLikeGraph) -> Export:
    """Standard DIMACS: `p edge n m` then `e u v` with 1-based indices."""
    if g.directed:
        raise ValueError("DIMACS output is for undirected graphs only")
    check_width(g.rows)
    one_based = [str(i) for i in range(1, g.n + 1)]
    return _pair_export(g, f"p edge {g.n} {g.edge_count()}\n", one_based, "e ", " ")


def write_matrix(g: PaleyLikeGraph):
    """Row-major bit dump: one fixed-width hex line per adjacency row.

    The lines come as a plain iterator, not an Export: a row costs about a
    twentieth of an edge-list row, so a forked writer would not pay for itself.
    """
    check_width(g.rows)
    width = (g.n + 3) // 4
    return (f"{r:0{width}x}\n" for r in g.rows)


def write_json_graph(g: PaleyLikeGraph) -> Export:
    """The text of json.dumps(doc, indent=2) + "\n", one chunk per adjacency row.

    doc holds schema (1), k, a, poly, n, directed, the vertex labels and,
    per row, the ascending neighbour (or out-neighbour) indices.  With
    indent=2 every list item is on its own line, and an empty list is [].
    """
    check_width(g.rows)
    ctx = g.ctx
    head = {"schema": 1, "k": ctx.k, "a": f"{g.a.value:#x}", "poly": f"{ctx.poly:#x}",
            "n": g.n, "directed": g.directed}
    fields = "".join(f"  {json.dumps(key)}: {json.dumps(val)},\n" for key, val in head.items())
    vertices = ",\n    ".join(map(json.dumps, _point_labels(g)))
    indices = [str(i) for i in range(g.n)]

    def rows(start, stop):
        for i, row in enumerate(g.rows[start:stop], start):
            nbrs = ",\n      ".join(_picks(indices, row))
            item = "    [\n      " + nbrs + "\n    ]" if nbrs else "    []"
            yield item + (",\n" if i < g.n - 1 else "\n")

    return Export(g.n, f'{{\n{fields}  "vertices": [\n    {vertices}\n  ],\n  "adjacency": [\n',
                  rows, "  ]\n}\n", lambda: map(int.bit_count, g.rows))


def write_decomposition(dec: HamiltonianDecomposition) -> str:
    """Header `p=<int> cycles=<int>`, then one space-separated cycle per line."""
    labels = {v: point_label(v) for v in (INF, *range(dec.p - 1))}  # made once, as _point_labels
    cycles = (" ".join(map(labels.__getitem__, cyc)) for cyc in dec.cycles)
    return "\n".join([f"p={dec.p} cycles={len(dec.cycles)}", *cycles]) + "\n"
