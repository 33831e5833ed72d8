import json

import pytest
from hypothesis import given, settings, strategies as st

from char2paley import (
    FieldCtx, PaleyLikeGraph, build_graph, build_tournament, param_a, point_of_index,
)
from char2paley.formats import (
    point_label, write_dimacs, write_edges, write_json_graph, write_matrix,
)
from oracles import iter_bits


def _trace1(ctx):
    return [x for x in range(ctx.q) if ctx.trace(x) == 1]


def _reference_pair_text(g, labels, prefix, sep):
    """The pair lines by a per-bit walk and a label lookup per edge."""
    out = []
    for i, row in enumerate(g.rows):
        if not g.directed:
            row = row >> (i + 1) << (i + 1)
        nbrs = list(map(labels.__getitem__, iter_bits(row)))
        if nbrs:
            u = prefix + labels[i] + sep
            out.append(u + ("\n" + u).join(nbrs) + "\n")
    return "".join(out)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pair_writers_match_reference_walk(data):
    k = data.draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8]), label="k")
    ctx = FieldCtx(k)
    a = param_a(ctx, data.draw(st.sampled_from(_trace1(ctx)), label="a"))
    g = (build_tournament if k % 2 else build_graph)(ctx, a)
    labels = [point_label(point_of_index(ctx, i)) for i in range(g.n)]
    sep = " > " if g.directed else " "
    header = f"# k={k} a={a.value:#x} poly={ctx.poly:#x} n={g.n}\n"
    assert "".join(write_edges(g)) == header + _reference_pair_text(g, labels, "", sep)
    if not g.directed:
        one_based = [str(i) for i in range(1, g.n + 1)]
        want = f"p edge {g.n} {g.edge_count()}\n" + _reference_pair_text(g, one_based, "e ", " ")
        assert "".join(write_dimacs(g)) == want


@pytest.mark.parametrize("writer", [write_edges, write_dimacs, write_matrix, write_json_graph])
def test_writers_reject_rows_wider_than_n(writer):
    ctx = FieldCtx(4)
    g = build_graph(ctx, param_a(ctx))
    rows = list(g.rows)
    rows[3] |= 1 << g.n
    wide = PaleyLikeGraph(g.ctx, g.a, g.n, tuple(rows))
    with pytest.raises(ValueError, match="at or above n"):
        writer(wide)  # raised at the call, before any chunk is taken


def test_writers_yield_one_chunk_per_row():
    ctx = FieldCtx(4)
    g = build_graph(ctx, param_a(ctx))
    chunks = list(write_matrix(g))
    assert len(chunks) == g.n and all(c.endswith("\n") for c in chunks)
    # header, then one chunk per row with a neighbour above it (all but the last)
    assert len(list(write_edges(g))) == 1 + g.n - 1
    assert len(list(write_dimacs(g))) == 1 + g.n - 1
    # header, one chunk per row, closing brackets
    assert len(list(write_json_graph(g))) == 1 + g.n + 1


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_json_writer_matches_json_dumps(data):
    # the streamed text is json.dumps(doc, indent=2) of the whole document,
    # an emptied row (written []) included
    k = data.draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8]), label="k")
    ctx = FieldCtx(k)
    a = param_a(ctx, data.draw(st.sampled_from(_trace1(ctx)), label="a"))
    g = (build_tournament if k % 2 else build_graph)(ctx, a)
    rows = list(g.rows)
    for i in data.draw(st.lists(st.integers(0, g.n - 1), max_size=2), label="emptied"):
        rows[i] = 0
    g = PaleyLikeGraph(g.ctx, g.a, g.n, tuple(rows))
    doc = {
        "schema": 1, "k": k, "a": f"{a.value:#x}", "poly": f"{ctx.poly:#x}", "n": g.n,
        "directed": g.directed,
        "vertices": [point_label(point_of_index(ctx, i)) for i in range(g.n)],
        "adjacency": [list(iter_bits(r)) for r in rows],
    }
    assert "".join(write_json_graph(g)) == json.dumps(doc, indent=2) + "\n"
