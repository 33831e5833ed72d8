import json

import pytest
from hypothesis import given, settings, strategies as st

from char2paley import (
    FieldCtx, PaleyLikeGraph, build_graph, build_tournament, param_a, point_of_index,
)
from char2paley.formats import (
    parse_edges, point_label, write_dimacs, write_edges, write_json_graph, write_matrix,
)
from oracles import iter_bits


def _trace1(ctx):
    return [x for x in range(ctx.q) if ctx.trace(x) == 1]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_edges_round_trip_recovers_every_row(data):
    k = data.draw(st.sampled_from([2, 3, 4, 5, 6]), label="k")
    ctx = FieldCtx(k)
    a = param_a(ctx, data.draw(st.sampled_from(_trace1(ctx)), label="a"))
    g = (build_tournament if k % 2 else build_graph)(ctx, a)
    meta, directed, pairs = parse_edges("".join(write_edges(g)))
    assert meta == {"k": k, "a": a.value, "poly": ctx.poly, "n": g.n}
    assert directed == bool(k % 2)
    rows = [0] * g.n
    for i, j in pairs:
        rows[i] |= 1 << j
        if not directed:
            rows[j] |= 1 << i
    assert tuple(rows) == g.rows


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


_EDGE_TEXT = st.one_of(
    st.text(),
    # a plausible header followed by plausible lines reaches the pair checks
    st.builds(
        "".join,
        st.lists(st.sampled_from(
            ["# k=2 a=0x2 poly=0x7 n=5\n", "# k=3 a=0x3 poly=0xb n=9\n", "# k=2 n=9\n",
             "inf", "0x0", "0x1", "0x3", "0x7", "0x9", "-0x1", "zz", " ", " > ", ">",
             "\n", "=", "# "]),
            max_size=30)),
)


@settings(max_examples=300, deadline=None)
@given(_EDGE_TEXT)
def test_parse_edges_fuzz_raises_only_value_error(text):
    try:
        meta, directed, pairs = parse_edges(text)
    except ValueError:
        return
    n = meta["n"]
    assert all(0 <= i < n and 0 <= j < n and i != j for i, j in pairs)
    assert len({frozenset(p) for p in pairs}) == len(pairs)


HEADER = "# k=2 a=0x2 poly=0x7 n=5\n"


@pytest.mark.parametrize("text", [
    "",
    "\n  \n",
    HEADER + "0x1 0x1\n",                      # a loop
    HEADER.replace("n=5", "n=9") + "inf 0x0\n",  # n is not 2^k + 1
    "# k=2 a=0x2 poly=0x7\ninf 0x0\n",         # no n
    HEADER + "inf 0x0\ninf > 0x1\n",            # edges and arcs mixed
    HEADER + "inf > 0x1\n0x0 0x2\n",            # arcs and edges mixed
    HEADER + "inf 0x0\n0x0 inf\n",              # a repeated pair
    HEADER + "inf 0x0 0x1\n",                   # not a pair
    HEADER + "inf 0x4\n",                       # not a field element
    "# k=2 a=0x2 poly=0x5 n=5\ninf 0x0\n",     # reducible polynomial
])
def test_parse_edges_rejects(text):
    with pytest.raises(ValueError):
        parse_edges(text)


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
