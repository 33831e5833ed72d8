"""The split export: row ranges written by forked workers, byte for byte the
one-range text, with every worker reaped on every path."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import char2paley.cli as cli
import char2paley.formats as formats
from char2paley import PaleyLikeGraph, build_graph, build_tournament, param_a
from char2paley.cli import _part_count, _write_export, main
from char2paley.construct import MATRIX_CAP
from char2paley.formats import write_dimacs, write_edges, write_json_graph, write_matrix

WRITERS = {"edges": write_edges, "dimacs": write_dimacs, "json": write_json_graph}
SRC = Path(__file__).resolve().parents[1] / "src"


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _graph(field, k):
    ctx = field(k)
    return (build_tournament if k % 2 else build_graph)(ctx, param_a(ctx))


@pytest.mark.parametrize("fmt, k", [(fmt, k) for fmt in WRITERS for k in range(2, 9)
                                    if fmt != "dimacs" or k % 2 == 0])
def test_split_writes_the_one_range_bytes(field, tmp_path, fmt, k):
    # graphs at even k, tournaments at odd k (DIMACS has no arcs); one range,
    # 2 and 3 ranges, and more ranges than rows
    g = _graph(field, k)
    want = "".join(WRITERS[fmt](g)).encode()
    for parts in (1, 2, 3, g.n + 5):
        path = tmp_path / f"{fmt}-{k}-{parts}"
        with open(path, "w") as fh:
            _write_export(fh, WRITERS[fmt](g), parts)
        assert path.read_bytes() == want, parts
    _no_child_left()


def test_split_appends_to_a_file_opened_for_appending(field, tmp_path):
    g = _graph(field, 8)
    path = tmp_path / "out"
    path.write_text("kept\n")
    with open(path, "a") as fh:
        _write_export(fh, write_edges(g), 3)
    assert path.read_text() == "kept\n" + "".join(write_edges(g))
    _no_child_left()


@pytest.mark.parametrize("fmt", WRITERS)
def test_ranges_cover_the_rows_in_order_and_balance_their_bits(field, fmt):
    g = _graph(field, 8)
    export = WRITERS[fmt](g)
    weights = list(export.weights())
    total = sum(weights)
    for parts in (1, 2, 3, 7, g.n + 5):
        ranges = export.ranges(parts)
        assert 1 <= len(ranges) <= min(parts, g.n)
        assert ranges[0][0] == 0 and ranges[-1][1] == g.n
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
        assert all(lo < hi for lo, hi in ranges)
        # a range is at most one row heavier than an equal share
        for lo, hi in ranges:
            assert sum(weights[lo:hi]) <= total / parts + max(weights)


def test_undirected_pair_weights_are_the_bits_above_the_diagonal(field):
    g = _graph(field, 6)
    want = [(row >> (i + 1)).bit_count() for i, row in enumerate(g.rows)]
    assert list(write_edges(g).weights()) == want == list(write_dimacs(g).weights())
    t = _graph(field, 5)
    assert list(write_edges(t).weights()) == [row.bit_count() for row in t.rows]


def test_part_count_runs_inline_where_a_fork_cannot_pay_or_is_unsafe(field, tmp_path,
                                                                     monkeypatch):
    g = _graph(field, 4)
    with open(tmp_path / "out", "w") as fh:
        assert _part_count(fh, write_edges(g)) == 1  # below the break-even
        monkeypatch.setattr(cli, "ROWS_PER_WORKER", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert _part_count(fh, write_edges(g)) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _part_count(fh, write_edges(g)) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert _part_count(fh, write_edges(g)) == 1
        finally:
            release.set()
            other.join()
        assert _part_count(fh, write_edges(g)) == 2
        monkeypatch.delattr(os, "fork")
        assert _part_count(fh, write_edges(g)) == 1


def test_part_count_gives_each_worker_its_share_of_rows(field, tmp_path, monkeypatch):
    # many CPUs: no more ranges than ROWS_PER_WORKER rows allow, so the
    # largest dense export, 4097 rows, is cut into at most four
    assert MATRIX_CAP // cli.ROWS_PER_WORKER == 4
    g = _graph(field, 4)  # 17 rows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    with open(tmp_path / "out", "w") as fh:
        for rows_per_worker, parts in ((9, 1), (8, 2), (5, 3), (1, 17)):
            monkeypatch.setattr(cli, "ROWS_PER_WORKER", rows_per_worker)
            assert _part_count(fh, write_edges(g)) == parts, rows_per_worker


def test_matrix_export_forks_nothing(field, tmp_path, monkeypatch):
    # 2049 rows on two CPUs: an edge list would be cut in two, the matrix is
    # written by the CLI alone
    g = _graph(field, 11)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with open(tmp_path / "probe", "w") as fh:
        assert _part_count(fh, write_edges(g)) == 2
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    out = tmp_path / "out"
    assert main(["build", "--k", "11", "--tournament", "--format", "matrix", "-o", str(out)]) == 0
    assert out.read_text() == "".join(write_matrix(g)) and not forks


def test_split_without_temporary_files_writes_inline(field, tmp_path, monkeypatch):
    # no temporary file, or only some: no fork, and the one-range bytes
    import tempfile
    g = _graph(field, 6)
    real = tempfile.TemporaryFile
    made = []

    def second_fails(*args, **kwargs):
        if made:
            raise PermissionError(13, "Permission denied")
        made.append(real(*args, **kwargs))
        return made[-1]

    forks = []
    monkeypatch.setattr(tempfile, "TemporaryFile", second_fails)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    path = tmp_path / "out"
    with open(path, "w") as fh:
        _write_export(fh, write_edges(g), 3)
    assert path.read_text() == "".join(write_edges(g))
    assert not forks and made[0].closed


def _force_split(monkeypatch):
    monkeypatch.setattr(cli, "_part_count", lambda fh, export: 2)


def _fail_in(monkeypatch, where, exc):
    """Make the row kernel raise exc in the parent or in a forked worker."""
    parent = os.getpid()
    real = formats._picks

    def picks(table, row):
        if (os.getpid() == parent) == (where == "parent"):
            raise exc
        return real(table, row)

    monkeypatch.setattr(formats, "_picks", picks)


def test_split_cli_output_matches_the_inline_output(capsys, tmp_path, monkeypatch):
    assert main(["build", "--k", "6", "-o", str(tmp_path / "inline")]) == 0
    _force_split(monkeypatch)
    assert main(["build", "--k", "6", "-o", str(tmp_path / "split")]) == 0
    assert (tmp_path / "split").read_bytes() == (tmp_path / "inline").read_bytes()
    _no_child_left()


def test_failing_worker_exits_4_without_a_traceback(capfd, tmp_path, monkeypatch):
    _force_split(monkeypatch)
    _fail_in(monkeypatch, "worker", RuntimeError("worker fault"))
    assert main(["build", "--k", "6", "-o", str(tmp_path / "out")]) == 4
    err = capfd.readouterr().err
    assert "i/o error: the worker writing rows" in err and "worker fault" in err
    assert "Traceback" not in err
    _no_child_left()


@pytest.mark.parametrize("exc", [OSError("disk gone"), BrokenPipeError(32, "Broken pipe")])
def test_parent_failure_reaps_every_worker(capfd, tmp_path, monkeypatch, exc):
    _force_split(monkeypatch)
    _fail_in(monkeypatch, "parent", exc)
    assert main(["build", "--k", "6", "-o", str(tmp_path / "out")]) == 4
    err = capfd.readouterr().err
    assert err.count("i/o error:") == 1 and "Traceback" not in err
    _no_child_left()


def test_wide_row_raises_before_any_fork_or_file(capsys, tmp_path, monkeypatch):
    real = build_graph

    def wide(ctx, a):
        g = real(ctx, a)
        return PaleyLikeGraph(g.ctx, g.a, g.n, (*g.rows[:-1], g.rows[-1] | 1 << g.n))

    forks = []
    monkeypatch.setattr(cli, "build_graph", wide)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    _force_split(monkeypatch)
    out = tmp_path / "out"
    assert main(["build", "--k", "6", "-o", str(out)]) == 2
    assert "at or above n" in capsys.readouterr().err
    assert not out.exists() and not forks
    _no_child_left()


def test_worker_leaves_once_its_parent_is_killed(tmp_path):
    # a forked child stands in for the CLI and writes a slow export, 50 rows of
    # 0.1 s a range; killed by SIGKILL, it leaves its worker orphaned, which
    # stops at its next row instead of finishing its 5 s range
    import contextlib
    import select
    import signal
    import time
    from char2paley.formats import Export
    r, w = os.pipe()

    def rows(start, stop):
        if start:  # the second range is the worker's
            os.write(w, b"%d" % os.getpid())
        for i in range(start, stop):
            time.sleep(0.1)
            yield f"{i}\n"

    export = Export(100, "", rows, "", lambda: [1] * 100)
    child = os.fork()
    if child == 0:
        try:
            os.close(r)
            with open(tmp_path / "out", "w") as fh:
                _write_export(fh, export, 2)
        finally:
            os._exit(0)
    os.close(w)
    worker = None
    try:
        assert select.select([r], [], [], 5.0)[0]  # the worker has started its range
        worker = int(os.read(r, 32))
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
        child = None
        t0 = time.monotonic()
        # the worker now holds the pipe's only write end: end of file is its exit
        assert select.select([r], [], [], 1.0)[0] and os.read(r, 32) == b""
        assert time.monotonic() - t0 < 1.0
        worker = None  # gone: its pid may be reused
    finally:
        os.close(r)
        if child is not None:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
        if worker is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(worker, signal.SIGKILL)


@pytest.mark.parametrize("argv", [["--k", "10"], ["--k", "11", "--tournament"]])
def test_stdout_and_output_file_get_the_same_bytes(tmp_path, argv):
    # k = 10 is written inline, k = 11 (2049 rows) split where two CPUs are available
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "char2paley.cli", "build", *argv, "--format", "edges"]
    out = tmp_path / "out"
    to_stdout = subprocess.run(cmd, env=env, capture_output=True, check=True, timeout=120)
    subprocess.run([*cmd, "-o", str(out)], env=env, capture_output=True, check=True,
                   timeout=120)
    assert to_stdout.stdout == out.read_bytes()
