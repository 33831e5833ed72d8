"""File formats for graphs, tournaments, and decompositions.

Vertex labels are `inf` for the point at infinity and 0x-prefixed
lowercase hex for field elements.  The edge-list format starts with a
`# k=.. a=.. poly=.. n=..` header and has one `u v` line per edge
(`u > v` per arc for tournaments); it round-trips through parse_edges.

The graph writers return an iterator of text chunks, one per adjacency
row (after a header chunk where the format has one), so a caller can
write them out as they come; the decomposition writer returns one
string.  Every graph writer raises ValueError, before its first chunk,
on a row with a bit at or above n.
"""

from __future__ import annotations

import json
from itertools import chain, compress

from .construct import BIT_FLAGS, PaleyLikeGraph, check_width
from .gf2k import FieldCtx
from .mobius import INF, point_of_index, vertex_index
from .structure import HamiltonianDecomposition


def point_label(p) -> str:
    return "inf" if p is INF else f"{p:#x}"


def parse_point_label(s: str):
    if s == "inf":
        return INF
    return int(s, 16)


def _header(g: PaleyLikeGraph) -> str:
    return f"# k={g.ctx.k} a={g.a.value:#x} poly={g.ctx.poly:#x} n={g.n}"


def _point_labels(g: PaleyLikeGraph) -> list[str]:
    """Label of each vertex index, looked up once per write."""
    return [point_label(point_of_index(g.ctx, i)) for i in range(g.n)]


def _picks(table: list[str], row: int):
    """The entries table[m] at the set bits m of row, in one C-level pass:
    the row's binary string, as compress flags, selects from the table."""
    return compress(table, bin(row)[:1:-1].encode().translate(BIT_FLAGS))


def _pair_lines(g: PaleyLikeGraph, labels: list[str], prefix: str, sep: str):
    """Per row i, one `prefix u sep v` line per edge {u, v} with v > u,
    or per arc u -> v when directed.

    Each row picks its labels with _picks (from i+1 on when undirected,
    with the row shifted to match).  Rows must fit in n bits.
    """
    for i, row in enumerate(g.rows):
        lo = 0 if g.directed else i + 1
        u = prefix + labels[i] + sep
        nbrs = ("\n" + u).join(_picks(labels[lo:] if lo else labels, row >> lo))
        if nbrs:
            yield u + nbrs + "\n"


def write_edges(g: PaleyLikeGraph):
    """Edge (or arc) list with header, one pair per line."""
    check_width(g.rows)
    sep = " > " if g.directed else " "
    return chain([_header(g) + "\n"], _pair_lines(g, _point_labels(g), "", sep))


def parse_edges(text: str):
    """Inverse of write_edges: (meta dict, directed flag, index-pair list).

    Raises ValueError unless the text is a header for a valid field
    with n = 2^k + 1, followed by lines that name distinct pairs of
    distinct vertices and are either all `u v` (a graph) or all `u > v`
    (a tournament).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing edge-list header")
    meta = {}
    for part in lines[0][2:].split():
        key, sep, val = part.partition("=")
        if not sep:
            raise ValueError(f"malformed header field {part!r}")
        meta[key] = int(val, 0)
    if not {"k", "a", "poly", "n"} <= meta.keys():
        raise ValueError("header needs k, a, poly and n")
    ctx = FieldCtx(meta["k"], meta["poly"])
    if meta["n"] != ctx.q + 1:
        raise ValueError(f"header n={meta['n']} but k={ctx.k} gives n={ctx.q + 1}")
    directed = len(lines) > 1 and ">" in lines[1]
    pairs = []
    seen = set()
    for ln in lines[1:]:
        if (">" in ln) != directed:
            raise ValueError(f"line {ln!r} mixes edges and arcs")
        toks = ln.replace(">", " ", 1).split() if directed else ln.split()
        if len(toks) != 2:
            raise ValueError(f"line {ln!r} is not a vertex pair")
        i, j = (vertex_index(ctx, parse_point_label(t)) for t in toks)
        if i == j:
            raise ValueError(f"line {ln!r} is a loop")
        key = (i, j) if i < j else (j, i)
        if key in seen:
            raise ValueError(f"line {ln!r} repeats a pair")
        seen.add(key)
        pairs.append((i, j))
    return meta, directed, pairs


def write_dimacs(g: PaleyLikeGraph):
    """Standard DIMACS: `p edge n m` then `e u v` with 1-based indices."""
    if g.directed:
        raise ValueError("DIMACS output is for undirected graphs only")
    check_width(g.rows)
    one_based = [str(i) for i in range(1, g.n + 1)]
    return chain([f"p edge {g.n} {g.edge_count()}\n"], _pair_lines(g, one_based, "e ", " "))


def write_matrix(g: PaleyLikeGraph):
    """Row-major bit dump: one fixed-width hex line per adjacency row."""
    check_width(g.rows)
    width = (g.n + 3) // 4
    return (f"{r:0{width}x}\n" for r in g.rows)


def write_json_graph(g: PaleyLikeGraph):
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

    def rows():
        for i, row in enumerate(g.rows):
            nbrs = ",\n      ".join(_picks(indices, row))
            item = "    [\n      " + nbrs + "\n    ]" if nbrs else "    []"
            yield item + (",\n" if i < g.n - 1 else "\n")

    return chain([f'{{\n{fields}  "vertices": [\n    {vertices}\n  ],\n  "adjacency": [\n'],
                 rows(), ["  ]\n}\n"])


def write_decomposition(dec: HamiltonianDecomposition) -> str:
    """Header `p=<int> cycles=<int>`, then one space-separated cycle per line."""
    lines = [f"p={dec.p} cycles={len(dec.cycles)}"]
    for cyc in dec.cycles:
        lines.append(" ".join(point_label(v) for v in cyc))
    return "\n".join(lines) + "\n"
