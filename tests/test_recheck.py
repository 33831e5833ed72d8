"""tests/recheck.py, the package-free re-check, on exports that `build` writes."""

import ast
from pathlib import Path

import pytest

import recheck
from char2paley import FieldCtx, param_a
from char2paley.cli import main as cli_main


def _export(tmp_path, *argv) -> Path:
    path = tmp_path / "out.edges"
    assert cli_main(["build", *argv, "-o", str(path)]) == 0
    return path


def _edited(path: Path, lineno: int, edit) -> Path:
    lines = path.read_text().splitlines(keepends=True)
    lines[lineno - 1] = edit(lines[lineno - 1])
    out = path.with_suffix(".edited")
    out.write_text("".join(lines))
    return out


def test_recheck_imports_nothing_from_the_package():
    tree = ast.parse(Path(recheck.__file__).read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert names == {"sys", "itertools"}


@pytest.mark.parametrize("argv", [
    ["--k", "2"], ["--k", "3", "--tournament"], ["--k", "4"], ["--k", "5", "--tournament"],
    ["--k", "6"], ["--k", "7", "--tournament"], ["--k", "8"],
    ["--k", "6", "--a", "0xd", "--poly", "0x49"],  # neither default
])
def test_recheck_passes_build_exports(tmp_path, argv):
    assert recheck.recheck(str(_export(tmp_path, *argv))) is None


def _moved(line):  # u v -> u v', v' = v xor 1
    u, v = line.split()
    return f"{u} {int(v, 16) ^ 1:#x}\n"


def _reversed(line):  # u > v -> v > u
    u, _, v = line.split()
    return f"{v} > {u}\n"


@pytest.mark.parametrize("argv, lineno, edit", [
    (["--k", "8"], 1000, _moved),
    (["--k", "8"], 100, _moved),  # in inf's row
    (["--k", "7", "--tournament"], 500, _reversed),
    (["--k", "7", "--tournament"], 30, _reversed),  # in inf's row
    (["--k", "8"], 1000, lambda line: ""),  # a dropped edge
    (["--k", "8"], 16449, lambda line: line.rstrip("\n")),  # the last newline
])
def test_recheck_names_the_edited_line(tmp_path, argv, lineno, edit):
    path = _edited(_export(tmp_path, *argv), lineno, edit)
    failure = recheck.recheck(str(path))
    assert failure is not None and failure.startswith(f"{path}:{lineno}: ")


def _with_field(path: Path, key: str, value: str) -> Path:
    return _edited(path, 1, lambda line: " ".join(
        f"{key}={value}" if part.startswith(key + "=") else part for part in line.split()) + "\n")


def test_recheck_holds_the_header_to_the_rule(tmp_path):
    path = _export(tmp_path, "--k", "6")
    ctx = FieldCtx(6)
    other = next(a for a in range(ctx.q) if ctx.trace(a) == 1 and a != param_a(ctx).value)
    # another trace-1 parameter gives another graph: the header matches, a later line fails
    edited = _with_field(path, "a", f"{other:#x}")
    failure = recheck.recheck(str(edited))
    assert failure.startswith(f"{edited}:") and not failure.startswith(f"{edited}:1:")
    zero = next(a for a in range(ctx.q) if ctx.trace(a) == 0)
    # trace 0, no element, a reducible poly ((z^3 + z + 1)^2), a wrong n, no k
    for key, value in (("a", f"{zero:#x}"), ("a", "0x40"), ("poly", "0x45"), ("n", "64"),
                       ("k", "")):
        edited = _with_field(path, key, value)
        assert recheck.recheck(str(edited)).startswith(f"{edited}:1: "), (key, value)


def test_recheck_main_exit_status(tmp_path, capsys):
    good = _export(tmp_path, "--k", "4")
    bad = _edited(good, 20, _moved)
    assert recheck.main([str(good)]) == 0
    assert recheck.main([str(good), str(bad)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"PASS {good}", f"PASS {good}"]
    assert out[2].startswith(f"FAIL {bad}:20: ") and len(out) == 3
