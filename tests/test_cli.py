import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import char2paley

from char2paley import (
    FieldCtx, PaleyLikeGraph, build_graph, chapman_build, circulant_labeling, param_a,
    shift_isomorphism,
)
from char2paley.cli import main
from char2paley.formats import point_label
from oracles import (
    circulant_witness, dense_no_loops, dense_regularity, dense_symmetry, predicate_rows,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_k2_edges(capsys):
    code, out = run(capsys, "build", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# k=2 a=0x2 poly=0x7 n=5"
    assert len(lines) == 6  # header + 5 edges
    assert "inf 0x0" in lines


def test_build_k3_arc_count(capsys):
    code, out = run(capsys, "build", "--k", "3", "--tournament")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# k=3")
    assert len(lines) - 1 == 36  # C(9,2) arcs
    assert all(" > " in ln for ln in lines[1:])


def test_build_odd_k_requires_tournament_flag(capsys):
    code, _ = run(capsys, "build", "--k", "5", "--format", "edges")
    assert code == 2


def test_build_even_k_rejects_tournament_flag(capsys):
    code, _ = run(capsys, "build", "--k", "4", "--tournament")
    assert code == 2


def test_build_dimacs_rejects_tournaments(capsys):
    code, _ = run(capsys, "build", "--k", "3", "--tournament", "--format", "dimacs")
    assert code == 2


def _rule_text(k: int, fmt: str) -> str:
    """The export `build --k k` writes in `fmt`, line by line from the rule's rows:
    `u v` per edge with u before v, or `u > v` per arc, in index order."""
    ctx = FieldCtx(k)
    a = param_a(ctx)
    rows = predicate_rows(ctx, a)
    n = ctx.q + 1
    directed = k % 2 == 1
    if fmt == "edges":
        labels = ["inf", *(f"{x:#x}" for x in range(ctx.q))]
        prefix, sep = "", " > " if directed else " "
    else:
        labels = [str(i) for i in range(1, n + 1)]
        prefix, sep = "e ", " "
    lines = [f"{prefix}{labels[i]}{sep}{labels[j]}\n" for i in range(n)
             for j in range(0 if directed else i + 1, n) if rows[i] >> j & 1]
    if fmt == "edges":
        head = f"# k={k} a={a.value:#x} poly={ctx.poly:#x} n={n}\n"
    else:
        head = f"p edge {n} {len(lines)}\n"
    return head + "".join(lines)


@pytest.mark.parametrize("k, fmt", [
    (2, "edges"), (4, "edges"), (6, "edges"), (2, "dimacs"), (4, "dimacs"), (6, "dimacs"),
    (3, "edges"), (5, "edges"),
])
def test_build_bytes_match_rule_text(capsys, k, fmt):
    tournament = ["--tournament"] if k % 2 else []
    code, out = run(capsys, "build", "--k", str(k), "--format", fmt, *tournament)
    assert code == 0
    assert out == _rule_text(k, fmt)


def test_build_matrix_format(capsys):
    code, out = run(capsys, "build", "--k", "2", "--format", "matrix")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    rows = [int(ln, 16) for ln in lines]
    ctx = FieldCtx(2)
    assert tuple(rows) == build_graph(ctx, param_a(ctx)).rows


def test_build_json_format(capsys):
    code, out = run(capsys, "build", "--k", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["n"] == 5 and doc["directed"] is False
    assert doc["vertices"][0] == "inf"
    assert sum(len(x) for x in doc["adjacency"]) == 10


def test_build_dimacs_format(capsys):
    code, out = run(capsys, "build", "--k", "4", "--format", "dimacs")
    lines = out.strip().splitlines()
    assert lines[0] == "p edge 17 68"
    assert len(lines) == 69
    assert all(ln.startswith("e ") for ln in lines[1:])


def test_build_deterministic(capsys):
    _, out1 = run(capsys, "build", "--k", "4", "--format", "json")
    _, out2 = run(capsys, "build", "--k", "4", "--format", "json")
    assert out1 == out2


def test_certify_k4(capsys, tmp_path):
    rpt = tmp_path / "cert.json"
    code, _ = run(capsys, "certify", "--k", "4", "--output", str(rpt))
    assert code == 0
    doc = json.loads(rpt.read_text())
    assert doc["schema"] == 4
    assert doc["pass"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"regularity", "symmetry", "circulant", "self-complementary",
            "automorphisms", "shift-isomorphism-class"} <= names
    # certify samples nothing, so its config echoes no sample count
    assert doc["config"] == {"k": 4, "a": "0x8", "poly": "0x13", "seed": 0}


def test_certify_short_orbit_parameter_is_complete(capsys, tmp_path):
    # 0x20 has trace 1 at k=6 but its alpha-orbit has length 13, not 65:
    # the labeling conjugates a full-orbit alpha instead, and every check runs
    rpt = tmp_path / "cert.json"
    code, _ = run(capsys, "certify", "--k", "6", "--a", "0x20", "--output", str(rpt))
    assert code == 0
    doc = json.loads(rpt.read_text())
    assert doc["pass"] is True and doc["complete"] is True
    checks = {c["name"]: c for c in doc["checks"]}
    assert all(c["pass"] and "skipped" not in c for c in checks.values())
    assert checks["vertex-transitive"]["certificate"] == "cyclic automorphism of order q+1"


@pytest.mark.parametrize("a", [None, "0x88"])
def test_certify_k10_shift_class_is_exhaustive(capsys, a):
    # all 512 trace-1 parameters at k = 10, at the default and at a
    # short-orbit parameter: nothing is drawn, so the reports under --seed 1
    # and --seed 2 differ only in the seed they echo
    argv = ["certify", "--k", "10", *(["--a", a] if a else [])]
    outs = []
    for seed in ("1", "2"):
        code, out = run(capsys, *argv, "--seed", seed)
        assert code == 0
        outs.append(out)
    assert outs[0].replace('"seed": 1', '"seed": 2') == outs[1]
    doc = json.loads(outs[0])
    shift = next(c for c in doc["checks"] if c["name"] == "shift-isomorphism-class")
    assert shift["pass"] is True and shift["count"] == 512
    assert shift["evidence"] == shift["mode"] == "exhaustive"
    assert doc["evidence"] == {"exhaustive": 9, "sampled": 0, "algebraic": 0, "skipped": 0}


def test_certify_flipped_bit_fails_circulance(capsys, monkeypatch):
    # one row bit flipped at a short-orbit parameter: the circulant check and
    # the vertex-transitivity resting on it fail, naming the first bad row
    import char2paley.cli as cli
    ctx = FieldCtx(6)
    a = param_a(ctx, 0x20)
    g = build_graph(ctx, a)
    rows = list(g.rows)
    rows[5] ^= 1 << 9
    tampered = PaleyLikeGraph(ctx, a, g.n, tuple(rows))
    monkeypatch.setattr(cli, "build_graph", lambda ctx, a: tampered)
    code, out = run(capsys, "certify", "--k", "6", "--a", "0x20")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    lab = circulant_labeling(ctx, a)
    i = lab.vertices.index(4)  # dense row 5 is the point 0x4
    witness = {"vertex": "0x4", "orbit_position": i}
    assert checks["circulant"]["pass"] is False
    assert checks["circulant"]["witness"] == witness
    assert checks["vertex-transitive"] == {
        "name": "vertex-transitive", "pass": False, "evidence": "exhaustive", "witness": witness}


@pytest.mark.parametrize("k, flip", [(4, (3, 5)), (8, (0, 200)), (8, (256, 0))])
def test_certify_shift_class_names_the_failing_parameter(capsys, monkeypatch, k, flip):
    # one bit flipped in the rows built at one a' (a finite row, INF's row,
    # INF's column): the class fails and names that a', its shift b and the
    # vertex whose image row differs
    import char2paley.structure as structure
    ctx = FieldCtx(k)
    a = param_a(ctx)
    bad = max(x for x in range(ctx.q) if ctx.trace(x) == 1)
    real = structure.build_graph

    def tampered(ctx, ap):
        g = real(ctx, ap)
        if ap.value != bad:
            return g
        rows = list(g.rows)
        rows[flip[0]] ^= 1 << flip[1]
        return PaleyLikeGraph(ctx, ap, g.n, tuple(rows))

    monkeypatch.setattr(structure, "build_graph", tampered)
    code, out = run(capsys, "certify", "--k", str(k))
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    b = shift_isomorphism(ctx, a, param_a(ctx, bad)).b
    # source row r of a' is image row y: INF's stays, the finite point x goes to x + b
    vertex = "inf" if flip[0] == 0 else f"{(flip[0] - 1) ^ b:#x}"
    assert checks["shift-isomorphism-class"] == {
        "name": "shift-isomorphism-class", "pass": False, "evidence": "exhaustive",
        "witness": {"a_prime": f"{bad:#x}", "b": f"{b:#x}", "vertex": vertex}}
    assert all(c["pass"] for name, c in checks.items() if name != "shift-isomorphism-class")


def _one_row_wider_than_n(monkeypatch, k, i):
    """Make the CLI's build set bit n in dense row i; returns the labeling."""
    import char2paley.cli as cli
    ctx = FieldCtx(k)
    a = param_a(ctx)
    g = build_graph(ctx, a)
    rows = list(g.rows)
    rows[i] |= 1 << g.n
    tampered = PaleyLikeGraph(ctx, a, g.n, tuple(rows))
    monkeypatch.setattr(cli, "build_graph", lambda ctx, a: tampered)
    return circulant_labeling(ctx, a)


def test_certify_row_wider_than_n_fails_with_witness(capsys, monkeypatch):
    # a row reaching past vertex n - 1 is a failed certificate (exit 1), not a
    # configuration error: circulant places it in orbit order, and every check
    # that rests on the circulant, regularity, symmetry and no-loops included,
    # is skipped
    lab = _one_row_wider_than_n(monkeypatch, 6, 5)
    code, out = run(capsys, "certify", "--k", "6")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and doc["complete"] is False
    checks = {c["name"]: c for c in doc["checks"]}
    i = lab.index.index(5)
    assert checks["circulant"]["pass"] is False
    assert checks["circulant"]["witness"] == {"vertex": "0x4", "orbit_position": i}
    assert checks["vertex-transitive"]["witness"] == checks["circulant"]["witness"]
    for name in ("regularity", "symmetry", "no-loops", "self-complementary", "automorphisms",
                 "shift-isomorphism-class"):
        assert checks[name]["skipped"] is True


def test_analyze_row_wider_than_n_fails_with_witness(capsys, monkeypatch):
    # analyze reads the rows first in circulant, which names the row; the
    # checks resting on the circulant are skipped
    lab = _one_row_wider_than_n(monkeypatch, 6, 5)
    code, out = run(capsys, "analyze", "--k", "6")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["circulant"]["pass"] is False
    assert checks["circulant"]["witness"] == {"vertex": "0x4", "orbit_position": lab.index.index(5)}
    for name in ("codegree-formula-vs-direct", "jumbledness"):
        assert checks[name]["skipped"] is True


def test_circulant_witness_last_orbit_row_at_dense_cap(std):
    # only the last orbit row is tampered at k = 12: the witness is its orbit position
    from char2paley.cli import _check_circulant
    ctx, a, g, lab = std(12)
    rows = list(g.rows)
    rows[lab.index[-1]] ^= 1 << lab.index[7]  # the entry (v_4096, v_7)
    ok, detail = _check_circulant(PaleyLikeGraph(ctx, a, g.n, tuple(rows)), lab)
    assert not ok and ok.position == 4096
    assert detail["witness"] == {"vertex": point_label(lab.vertices[-1]), "orbit_position": 4096}


def test_certify_rejects_trace0_a(capsys):
    # 0x1 has trace 0 at k=4
    code, _ = run(capsys, "certify", "--k", "4", "--a", "0x1")
    assert code == 2


@pytest.mark.parametrize("command, k, what", [
    ("certify", "3", "certify"),
    ("analyze", "17", "analyze"),
    ("decompose", "5", "decompose"),
    ("chapman", "3", "the coset comparison"),
])
def test_graph_commands_reject_odd_k(capsys, command, k, what):
    assert main([command, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {what} works on graphs: k must be even\n"


def test_skipped_check_never_runs_its_function(capsys):
    from char2paley.cli import _Checks

    def never():
        raise AssertionError("a skipped check ran")

    reason = "order 65537 exceeds the dense cap 4097"
    checks = _Checks()
    assert checks.run("circulant", "exhaustive", never, reason) is None
    assert checks.items == [{"name": "circulant", "pass": True, "evidence": "skipped",
                             "skipped": True, "reason": reason}]
    assert capsys.readouterr().err == f"[   skip ] ---- circulant: {reason}\n"
    assert checks.all_pass() and not checks.complete()
    assert checks.evidence_counts()["skipped"] == 1


def test_certify_rejects_reducible_poly(capsys):
    code, _ = run(capsys, "certify", "--k", "4", "--poly", "0x11")
    assert code == 2


def test_timing_lines_carry_peak_rss(capsys):
    # every STEP and PASS line on stderr ends with the process's peak RSS so far
    assert main(["certify", "--k", "4"]) == 0
    lines = capsys.readouterr().err.splitlines()
    step = next(ln for ln in lines if " STEP build " in ln)
    assert re.fullmatch(r"\[ *\d+\.\d{3}s\] STEP build \(peak RSS \d+\.\d MiB\)", step)
    assert float(step.split("RSS ")[1].split()[0]) > 0
    timed = [ln for ln in lines if " STEP " in ln or " PASS " in ln]
    assert len(timed) == 12 and all(ln.endswith(" MiB)") for ln in timed)


def test_analyze_k2_spectrum(capsys):
    code, out = run(capsys, "analyze", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    spec = {(e["epsilon"], e["ell"]): e["count"] for e in doc["codegree_spectrum"]}
    assert spec == {(1, 0): 5, (0, 1): 5}


def test_analyze_k4_bounds(capsys):
    code, out = run(capsys, "analyze", "--k", "4")
    doc = json.loads(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["codegree-cap"]["max_ell"] <= 6
    assert checks["kloosterman-weil"]["max_abs_K"] <= 8
    assert checks["jumbledness"]["evidence"] == "exhaustive"
    assert code == 0


def test_analyze_seeded_determinism(capsys):
    _, out1 = run(capsys, "analyze", "--k", "6", "--seed", "3", "--samples", "500")
    _, out2 = run(capsys, "analyze", "--k", "6", "--seed", "3", "--samples", "500")
    assert out1 == out2


def test_decompose_k4(capsys, tmp_path):
    out_file = tmp_path / "dec.txt"
    code, _ = run(capsys, "decompose", "--k", "4", "--output", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "p=17 cycles=4"
    assert len(lines) == 5
    assert all(len(ln.split()) == 17 for ln in lines[1:])


def test_decompose_k6_out_of_scope(capsys):
    code, _ = run(capsys, "decompose", "--k", "6")
    assert code == 3


def test_decompose_k8(capsys, tmp_path):
    out_file = tmp_path / "dec8.txt"
    code, _ = run(capsys, "decompose", "--k", "8", "--output", str(out_file))
    assert code == 0
    assert out_file.read_text().splitlines()[0] == "p=257 cycles=64"


def test_decompose_flipped_edge_exits_1_with_the_circulant_witness(capsys, monkeypatch,
                                                                   tmp_path):
    # the edge {1, 5} flipped at k = 4: exit 1 and no file, with the witness
    # certify gives its `circulant` check, not an uncaught AssertionError
    import char2paley.cli as cli
    ctx = FieldCtx(4)
    a = param_a(ctx)
    rows = list(build_graph(ctx, a).rows)
    rows[1] ^= 1 << 5
    rows[5] ^= 1 << 1
    tampered = PaleyLikeGraph(ctx, a, len(rows), tuple(rows))
    monkeypatch.setattr(cli, "build_graph", lambda ctx, a: tampered)
    out_file = tmp_path / "dec.txt"
    assert main(["decompose", "--k", "4", "-o", str(out_file)]) == 1
    err = capsys.readouterr().err
    assert not out_file.exists()
    _, out = run(capsys, "certify", "--k", "4")
    circ = next(c for c in json.loads(out)["checks"] if c["name"] == "circulant")
    assert f"certificate failed: circulant: {json.dumps(circ['witness'])}\n" in err


def test_decompose_unpaired_distance_exits_1_with_the_witness(capsys, monkeypatch, tmp_path):
    # rows that are the circulant of {1, 2, 16} at k = 4: 2 is in the set and
    # -2 = 15 is not, the witness analyze gives its `codegree-cap` check
    _forge_circulant(monkeypatch, 4, lambda n: {1, 2, n - 1})
    out_file = tmp_path / "dec.txt"
    assert main(["decompose", "--k", "4", "-o", str(out_file)]) == 1
    assert 'certificate failed: unpaired_distance: {"distance": 2}\n' in capsys.readouterr().err
    assert not out_file.exists()


def _count_verifications(monkeypatch) -> list:
    """Record the order n of every verify_circulant call the CLI makes; the structure
    functions read connection sets and make none."""
    import char2paley.cli as cli
    calls = []
    real = cli.verify_circulant

    def counting(g, lab):
        calls.append(g.n)
        return real(g, lab)

    monkeypatch.setattr(cli, "verify_circulant", counting)
    return calls


def _flip_edge_1_5(monkeypatch):
    """Make the CLI's k = 4 build the real graph with the edge {1, 5} flipped."""
    import char2paley.cli as cli
    ctx = FieldCtx(4)
    a = param_a(ctx)
    rows = list(build_graph(ctx, a).rows)
    rows[1] ^= 1 << 5
    rows[5] ^= 1 << 1
    tampered = PaleyLikeGraph(ctx, a, len(rows), tuple(rows))
    monkeypatch.setattr(cli, "build_graph", lambda ctx, a: tampered)


def test_decompose_verifies_circulance_once(capsys, monkeypatch, tmp_path):
    calls = _count_verifications(monkeypatch)
    assert main(["decompose", "--k", "4", "-o", str(tmp_path / "dec.txt")]) == 0
    assert calls == [17]
    # the failing path reports the witness of that one check
    calls.clear()
    _flip_edge_1_5(monkeypatch)
    assert main(["decompose", "--k", "4", "-o", str(tmp_path / "bad.txt")]) == 1
    assert "certificate failed: circulant: " in capsys.readouterr().err
    assert calls == [17]


def test_chapman_verifies_circulance_once(capsys, monkeypatch):
    calls = _count_verifications(monkeypatch)
    code, out = run(capsys, "chapman", "--k", "4")
    assert code == 0 and calls == [17]
    # the failing path names the witness certify's circulant check gives
    calls.clear()
    _flip_edge_1_5(monkeypatch)
    code, out = run(capsys, "chapman", "--k", "4")
    assert code == 1 and calls == [17]
    iso = next(c for c in json.loads(out)["checks"] if c["name"] == "isomorphic")
    _, out = run(capsys, "certify", "--k", "4")
    circ = next(c for c in json.loads(out)["checks"] if c["name"] == "circulant")
    assert iso["pass"] is False and iso["witness"] == circ["witness"]


def test_only_chapman_builds_the_quadratic_extension(monkeypatch, tmp_path):
    # the degree of every FieldCtx built is recorded: every other command builds
    # GF(2^k) alone, and the coset construction builds GF(q^2), of degree 2k, too
    degrees = []
    real = FieldCtx.__init__

    def recording(self, k, poly=None):
        degrees.append(k)
        real(self, k, poly)

    monkeypatch.setattr(FieldCtx, "__init__", recording)
    for argv in (["build", "--k", "8"], ["certify", "--k", "8"], ["analyze", "--k", "12"],
                 ["decompose", "--k", "8"], ["chapman", "--k", "4"]):
        degrees.clear()
        assert main([*argv, "-o", str(tmp_path / argv[0])]) == 0, argv
        k = int(argv[2])
        assert set(degrees) == ({k, 2 * k} if argv[0] == "chapman" else {k}), argv


def test_chapman_k2(capsys):
    code, out = run(capsys, "chapman", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    iso = next(c for c in doc["checks"] if c["name"] == "isomorphic")
    assert iso["pass"] and iso["verdict"] == "isomorphic-certified"
    undef = next(c for c in doc["checks"] if c["name"] == "no-undefined-pairs")
    assert undef["undefined_pair_count"] == 0


def test_chapman_representative_independence_exhaustive(capsys):
    # one pass over GF(q^2)* reads all q(q-1) entries the probes can reach
    code, out = run(capsys, "chapman", "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {"k": 4, "a": "0x8", "poly": "0x13", "seed": 0}
    rep = next(c for c in doc["checks"] if c["name"] == "representative-independence")
    assert rep == {"name": "representative-independence", "pass": True,
                   "evidence": "exhaustive", "mode": "exhaustive", "count": 16 * 15}


def test_chapman_representative_independence_witness(capsys, tamper_coset):
    # the predicate flipped at w = g^(3q+1), an entry no pair reads: only this
    # check fails, with the class, and the coset graph, which rests on the classes
    # being constant, is not read
    tamper_coset(3 * 16 + 1)
    code, out = run(capsys, "chapman", "--k", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and doc["complete"] is False
    checks = {c["name"]: c for c in doc["checks"]}
    assert [name for name, c in checks.items() if not c["pass"]] == ["representative-independence"]
    witness = checks["representative-independence"]["witness"]
    assert witness["exponents"] == [15, 49]
    assert sorted(witness["bits"]) == [0, 1]
    reason = "the certificate rests on the representative-independence check, which failed"
    for name in ("coset-graph-circulant", "isomorphic"):
        assert checks[name]["skipped"] is True and checks[name]["reason"] == reason


def _tamper_class(tamper_coset, k, r):
    """Flip the coset predicate on every entry of class r at k; returns C_H's
    unpaired distance after the flip."""
    ctx = FieldCtx(k)
    n = ctx.q + 1
    conn = chapman_build(ctx, param_a(ctx)).conn
    tamper_coset(*range(r, ctx.q * ctx.q - 1, n))
    return n - r if r in conn else r


def test_chapman_skips_isomorphic_when_coset_graph_not_circulant(capsys, tamper_coset):
    # the predicate flipped on all of class 3: each class is still constant, and
    # C_H gains or loses 3 alone, so it is not closed under negation and names
    # the distance; the comparison resting on that is skipped
    d = _tamper_class(tamper_coset, 4, 3)
    code, out = run(capsys, "chapman", "--k", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and doc["complete"] is False
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["representative-independence"]["pass"] is True
    assert checks["coset-graph-circulant"] == {
        "name": "coset-graph-circulant", "pass": False, "evidence": "exhaustive",
        "witness": {"distance": d}}
    assert checks["isomorphic"]["skipped"] is True


def test_chapman_undefined_pair_skips_the_coset_checks(capsys, monkeypatch, field):
    # the predicate made undefined at w = g^(q+3), the pair (1, 3): the coset
    # graph's circulance and the comparison rest on no-undefined-pairs
    import char2paley.structure as structure
    real = structure._coset_table

    def table(big, q, lam):
        t = bytearray(real(big, q, lam))
        t[q + 3] = structure.UNDEFINED
        return bytes(t)

    monkeypatch.setattr(structure, "_coset_table", table)
    code, out = run(capsys, "chapman", "--k", "4")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["no-undefined-pairs"]["pass"] is False
    assert checks["no-undefined-pairs"]["undefined_pair_count"] == 1
    # the witness names the pair's representatives g^1 and g^3 as elements of GF(q^2)
    exp = field(8).exp_table()
    assert checks["no-undefined-pairs"]["witness"] == {"pairs": [[f"{exp[i]:#x}" for i in (1, 3)]]}
    reason = "the certificate rests on the no-undefined-pairs check, which failed"
    for name in ("coset-graph-circulant", "isomorphic"):
        assert checks[name]["skipped"] is True and checks[name]["reason"] == reason


def test_chapman_fails_isomorphic_when_build_not_circulant(capsys, monkeypatch):
    # the edge {1, 5} flipped: the comparison has no connection set of the build
    # to read, so `isomorphic` fails with the witness `certify` gives its
    # `circulant` check, and the report is still written
    import char2paley.cli as cli
    ctx = FieldCtx(4)
    a = param_a(ctx)
    rows = list(build_graph(ctx, a).rows)
    rows[1] ^= 1 << 5
    rows[5] ^= 1 << 1
    tampered = PaleyLikeGraph(ctx, a, len(rows), tuple(rows))
    monkeypatch.setattr(cli, "build_graph", lambda ctx, a: tampered)
    code, out = run(capsys, "chapman", "--k", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and doc["complete"] is True
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["coset-graph-circulant"]["pass"] is True
    iso = checks["isomorphic"]
    assert iso["pass"] is False and "verdict" not in iso
    code, out = run(capsys, "certify", "--k", "4")
    assert code == 1
    circ = next(c for c in json.loads(out)["checks"] if c["name"] == "circulant")
    assert iso["witness"] == circ["witness"]


def test_chapman_fails_isomorphic_when_build_is_no_graph(capsys, monkeypatch):
    # build and labeling forged to the circulant of {1, 2, 16} at k = 4: it passes
    # `circulant`, but 2 is in C and -2 = 15 is not, so there is no graph to compare
    _forge_circulant(monkeypatch, 4, lambda n: {1, 2, n - 1})
    code, out = run(capsys, "chapman", "--k", "4")
    assert code == 1
    iso = next(c for c in json.loads(out)["checks"] if c["name"] == "isomorphic")
    assert iso == {"name": "isomorphic", "pass": False, "evidence": "exhaustive",
                   "witness": {"distance": 2}}


def test_chapman_short_orbit_parameter_certified(capsys):
    code, out = run(capsys, "chapman", "--k", "6", "--a", "0x20")
    assert code == 0
    iso = next(c for c in json.loads(out)["checks"] if c["name"] == "isomorphic")
    assert iso["verdict"] == "isomorphic-certified"


def test_chapman_k12_out_of_scope(capsys):
    # GF(q^2) is the FieldCtx of degree 2k, so k = 10 is the last k it serves
    code, _ = run(capsys, "chapman", "--k", "12")
    assert code == 3


@pytest.mark.parametrize("k, multiplier", [(6, 6), (8, 3)])
def test_chapman_composite_order_certified(capsys, k, multiplier):
    # the multiplier search runs over all units of Z_(q+1), composite 65 = 5 * 13 too
    code, out = run(capsys, "chapman", "--k", str(k))
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    iso = next(c for c in doc["checks"] if c["name"] == "isomorphic")
    assert iso["verdict"] == "isomorphic-certified"
    assert iso["multiplier"] == multiplier


def test_build_capacity_exit(capsys):
    code, _ = run(capsys, "build", "--k", "14")
    assert code == 3


@pytest.mark.parametrize("argv", [("certify", "--k", "14"), ("certify", "--k", "20"),
                                  ("decompose", "--k", "16")])
def test_dense_cap_checked_before_setup(capsys, monkeypatch, argv):
    # the cap rejects the order before any field or parameter setup runs
    import char2paley.cli as cli

    def no_setup(*args):
        raise AssertionError("setup ran before the cap check")

    monkeypatch.setattr(cli, "param_a", no_setup)
    assert main(list(argv)) == 3
    assert "exceeds the dense adjacency cap" in capsys.readouterr().err


@pytest.mark.parametrize("k", [6, 10, 12])
def test_decompose_composite_order_checked_before_setup(capsys, monkeypatch, k):
    # a composite order q+1 is out of scope before any setup, build or column pass
    import char2paley.cli as cli

    def no_setup(*args):
        raise AssertionError("setup ran before the order check")

    monkeypatch.setattr(cli, "param_a", no_setup)
    assert main(["decompose", "--k", str(k)]) == 3
    assert f"out of scope: order {(1 << k) + 1} is composite" in capsys.readouterr().err


def test_samples_only_on_sampling_commands(capsys):
    for argv in (("certify", "--k", "4", "--samples", "5"),
                 ("chapman", "--k", "4", "--samples", "5")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv


def test_analyze_above_dense_cap_streams(capsys):
    # k=14 has no dense matrix: the Weil check still sweeps every b, the
    # codegree cap and jumbledness run off the connection set and rest on the
    # labeling's automorphism, and the checks that need the matrix are skipped
    code, out = run(capsys, "analyze", "--k", "14", "--samples", "50")
    assert code == 0
    doc = json.loads(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["kloosterman-weil"]["mode"] == "exhaustive"
    assert checks["kloosterman-weil"]["pass"] is True
    for name in ("codegree-cap", "jumbledness"):
        assert checks[name]["pass"] is True and "skipped" not in checks[name], name
        assert checks[name]["evidence"] == "algebraic", name
    assert checks["jumbledness"]["lambda_bound"] == 724
    assert checks["codegree-cap"]["max_ell"] <= checks["codegree-cap"]["bound"]
    assert sum(e["count"] for e in doc["codegree_spectrum"]) == 16385 * 16384 // 2
    for name in ("circulant", "codegree-formula-vs-direct"):
        assert checks[name].get("skipped") is True, name
        assert checks[name]["evidence"] == "skipped", name
    assert doc["evidence"] == {"exhaustive": 2, "sampled": 0, "algebraic": 2, "skipped": 2}


def test_analyze_k16_weil_exhaustive(capsys):
    code, out = run(capsys, "analyze", "--k", "16")
    assert code == 0
    doc = json.loads(out)
    weil = next(c for c in doc["checks"] if c["name"] == "kloosterman-weil")
    assert weil["pass"] is True and weil["mode"] == "exhaustive"
    assert weil["max_abs_K"] ** 2 <= 4 * (1 << 16)


def test_analyze_value_set_entry(capsys):
    code, out = run(capsys, "analyze", "--k", "6")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names[:2] == ["kloosterman-weil", "kloosterman-value-set"]
    entry = json.loads(out)["checks"][1]
    assert entry == {"name": "kloosterman-value-set", "pass": True,
                     "evidence": "exhaustive", "mode": "exhaustive", "count": 63}


@pytest.mark.parametrize("tamper, witness", [
    (lambda v: v[:3] + [1] + v[4:], {"b": "0x3", "K": 1}),
    (lambda v: [x - 4 if x == max(v[1:]) else x for x in v], {"missing": 7}),
])
def test_analyze_value_set_tampered_sweep(capsys, monkeypatch, tamper, witness):
    # at k=4 the values are {-5, -1, 3, 7}; a stray value or a missing one fails
    import char2paley.cli as cli
    real = cli.kloosterman_sweep
    monkeypatch.setattr(cli, "kloosterman_sweep", lambda ctx: tamper(real(ctx).tolist()))
    code, out = run(capsys, "analyze", "--k", "4")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["kloosterman-value-set"]["pass"] is False
    assert checks["kloosterman-value-set"]["witness"] == witness


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_analyze_rejects_nonpositive_samples(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--k", "8", "--samples", samples])
    assert exc.value.code == 2


def test_analyze_k4_reports_circulant_check(capsys):
    code, out = run(capsys, "analyze", "--k", "4")
    assert code == 0
    circ = next(c for c in json.loads(out)["checks"] if c["name"] == "circulant")
    assert circ["pass"] is True and circ["connection_set_size"] == 8


def test_certify_labeling_identities_pin_b(capsys, monkeypatch):
    # a labeling claiming another shift b fails the v_1 = b pin, and only that
    import char2paley.cli as cli
    from char2paley.construct import CirculantLabeling
    real = cli.circulant_labeling

    def wrong_b(ctx, a):
        lab = real(ctx, a)
        return CirculantLabeling(lab.a, 2, lab.vertices, lab.conn)

    monkeypatch.setattr(cli, "circulant_labeling", wrong_b)
    code, out = run(capsys, "certify", "--k", "4")
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed == [{"name": "labeling-identities", "pass": False,
                       "evidence": "exhaustive", "witness": {"identities": ["v_1 != 2"]}}]


def test_analyze_short_orbit_parameter_is_circulant(capsys):
    # 0x20 has a short alpha-orbit at k=6: the spectrum still rests on a certified circulant
    code, out = run(capsys, "analyze", "--k", "6", "--a", "0x20", "--samples", "200")
    assert code == 0
    doc = json.loads(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["circulant"] == {"name": "circulant", "pass": True,
                                   "evidence": "exhaustive",
                                   "connection_set_size": 32, "connection_set_min": 1}
    assert sum(e["count"] for e in doc["codegree_spectrum"]) == 65 * 64 // 2


@pytest.mark.parametrize("k", [10, 12])
def test_analyze_formula_check_exhaustive_at_the_dense_cap(capsys, monkeypatch, k):
    # the certified rotation reduces every pair to one against INF: the q
    # points x, each compared once, cover all C(n, 2) pairs, with nothing drawn at random
    import char2paley.cli as cli
    real, seen = cli.codegree_formula, []

    def counting(ctx, a, x, kloo):
        seen.append(x)
        return real(ctx, a, x, kloo)

    monkeypatch.setattr(cli, "codegree_formula", counting)
    n = (1 << k) + 1
    code, out = run(capsys, "analyze", "--k", str(k))
    assert code == 0
    assert seen == list(range(n - 1))
    doc = json.loads(out)
    entry = next(c for c in doc["checks"] if c["name"] == "codegree-formula-vs-direct")
    assert entry == {"name": "codegree-formula-vs-direct", "pass": True,
                     "evidence": "exhaustive", "mode": "exhaustive", "count": n * (n - 1) // 2}
    assert doc["complete"] is True
    assert doc["evidence"] == {"exhaustive": 6, "sampled": 0, "algebraic": 0, "skipped": 0}


def test_analyze_report_ignores_seed_and_samples(capsys):
    # --samples is accepted and echoed, but nothing in analyze draws from it or the seed
    docs = []
    for argv in ((), ("--seed", "5"), ("--samples", "7", "--seed", "9")):
        code, out = run(capsys, "analyze", "--k", "10", *argv)
        assert code == 0
        doc = json.loads(out)
        del doc["config"]
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]


def test_analyze_formula_check_witness(capsys, monkeypatch):
    # negative control: a formula off by one at a single x fails, naming that pair
    import char2paley.cli as cli
    real = cli.codegree_formula
    monkeypatch.setattr(cli, "codegree_formula",
                        lambda ctx, a, x, kloo: real(ctx, a, x, kloo) + (x == 5))
    code, out = run(capsys, "analyze", "--k", "4")
    assert code == 1
    entry = next(c for c in json.loads(out)["checks"] if c["name"] == "codegree-formula-vs-direct")
    direct = entry["witness"]["direct"]
    assert entry == {"name": "codegree-formula-vs-direct", "pass": False, "evidence": "exhaustive",
                     "witness": {"x": "0x5", "y": "inf", "direct": direct, "formula": direct + 1}}


@pytest.mark.parametrize("k", [2, 4, 6])
def test_formula_check_exhaustive_every_parameter(capsys, k):
    # the check rests on the certified labeling, which exists at every trace-1 a
    q = 1 << k
    ctx = FieldCtx(k)
    for a_val in range(q):
        if ctx.trace(a_val) != 1:
            continue
        assert main(["analyze", "--k", str(k), "--a", hex(a_val), "--samples", "1"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        entry = next(c for c in doc["checks"] if c["name"] == "codegree-formula-vs-direct")
        assert entry == {"name": "codegree-formula-vs-direct", "pass": True,
                         "evidence": "exhaustive", "mode": "exhaustive",
                         "count": q * (q + 1) // 2}, hex(a_val)
        assert doc["complete"] is True
        assert "PASS codegree-formula-vs-direct" in captured.err


@pytest.mark.parametrize("argv, complete", [
    (("analyze", "--k", "14", "--samples", "50"), False),
    (("analyze", "--k", "6", "--a", "0x20", "--samples", "200"), True),
    (("certify", "--k", "4"), True),
])
def test_report_complete_flag(capsys, argv, complete):
    # skipped checks still read "pass": true, but the report is not complete
    code, out = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 4 and doc["pass"] is True
    assert doc["complete"] is complete
    assert complete == (not any(c.get("skipped") for c in doc["checks"]))
    keys = list(doc)
    assert keys[keys.index("pass") + 1] == "complete"
    # every check names its evidence, and the report counts each kind
    kinds = [c["evidence"] for c in doc["checks"]]
    assert doc["evidence"] == {kind: kinds.count(kind)
                               for kind in ("exhaustive", "sampled", "algebraic", "skipped")}
    assert complete == (doc["evidence"]["skipped"] == 0)


def test_analyze_non_circulant_rows_skip_codegree_checks(capsys, monkeypatch):
    # a tampered graph: vertices 1 and 2 share every other vertex as a neighbour.
    # Every codegree claim is read off the certified connection set, so with the
    # circulant check failed none runs and no spectrum is written
    import char2paley.cli as cli
    ctx = FieldCtx(4)
    a = param_a(ctx)
    g = build_graph(ctx, a)
    rows = list(g.rows)
    full = (1 << g.n) - 1
    rows[1] = full & ~0b10
    rows[2] = full & ~0b100
    for v in range(g.n):
        if v not in (1, 2):
            rows[v] |= 0b110
    tampered = PaleyLikeGraph(ctx, a, g.n, tuple(rows))
    monkeypatch.setattr(cli, "build_graph", lambda ctx, a: tampered)
    code, out = run(capsys, "analyze", "--k", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and "codegree_spectrum" not in doc
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["circulant"]["pass"] is False
    for name in ("codegree-cap", "codegree-formula-vs-direct", "jumbledness"):
        assert checks[name]["skipped"] is True and checks[name]["evidence"] == "skipped"
    assert checks["codegree-cap"]["reason"] == checks["jumbledness"]["reason"]


def _forge_circulant(monkeypatch, k, conn_of):
    """Make the CLI's build and labeling the circulant of conn_of(n) on the real
    labeling's vertices; returns (rows, forged labeling)."""
    import char2paley.cli as cli
    from char2paley import CirculantLabeling
    ctx = FieldCtx(k)
    a = param_a(ctx)
    lab = circulant_labeling(ctx, a)
    forged = CirculantLabeling(a, lab.b, lab.vertices, frozenset(conn_of(lab.n)))
    rows = [0] * lab.n
    for i in range(lab.n):
        for d in forged.conn:
            rows[forged.index[i]] |= 1 << forged.index[(i + d) % lab.n]
    forged_graph = PaleyLikeGraph(ctx, a, lab.n, tuple(rows))
    monkeypatch.setattr(cli, "build_graph", lambda ctx, a: forged_graph)
    monkeypatch.setattr(cli, "circulant_labeling", lambda ctx, a: forged)
    return rows, forged


def test_analyze_codegree_cap_witness(capsys, monkeypatch):
    # build and labeling forged to the interval circulant +-{1 .. 16} at k = 6:
    # circulant passes, and the top pair's codegree exceeds the cap
    # The pair is named by point labels, INF first, as every other pair witness is
    rows, _ = _forge_circulant(monkeypatch, 6, lambda n: {*range(1, 17), *range(n - 16, n)})
    code, out = run(capsys, "analyze", "--k", "6")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["circulant"]["pass"] is True
    cap = checks["codegree-cap"]
    assert cap["pass"] is False and cap["evidence"] == "exhaustive"
    u, v = cap["witness"]["pair"]
    assert u == "inf" and re.fullmatch(r"0x[0-9a-f]+", v)
    j = 1 + int(v, 16)  # the dense row of the finite point v
    assert (rows[0] & rows[j]).bit_count() == cap["max_ell"] > cap["bound"]


def test_analyze_unpaired_distance_fails_codegree_cap_below_the_cap(capsys, monkeypatch):
    # rows that are exactly the circulant of {1, 2, 16} at k = 4 pass circulant,
    # but 2 is in the set and -2 = 15 is not: a failed certificate, not a
    # configuration error
    _forge_circulant(monkeypatch, 4, lambda n: {1, 2, n - 1})
    code, out = run(capsys, "analyze", "--k", "4")
    assert code == 1
    doc = json.loads(out)
    assert "codegree_spectrum" not in doc
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["circulant"]["pass"] is True
    assert checks["codegree-cap"] == {"name": "codegree-cap", "pass": False,
                                      "evidence": "exhaustive", "witness": {"distance": 2}}
    assert checks["jumbledness"]["skipped"] is True


def test_analyze_unpaired_distance_fails_codegree_cap_above_the_cap(capsys, monkeypatch):
    # the labeling's connection set loses its least distance d at k = 14, so
    # n - d is left unpaired: exit 1, with n - d as the witness
    import char2paley.cli as cli
    from char2paley import CirculantLabeling
    real = cli.circulant_labeling
    dropped = []

    def unpaired(ctx, a):
        lab = real(ctx, a)
        dropped.append(min(lab.conn))
        return CirculantLabeling(lab.a, lab.b, lab.vertices, lab.conn - {dropped[0]})

    monkeypatch.setattr(cli, "circulant_labeling", unpaired)
    code, out = run(capsys, "analyze", "--k", "14")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and "codegree_spectrum" not in doc
    checks = {c["name"]: c for c in doc["checks"]}
    cap = checks["codegree-cap"]
    assert cap["pass"] is False and cap["evidence"] == "algebraic"
    assert cap["witness"] == {"distance": 16385 - dropped[0]}
    assert checks["jumbledness"]["skipped"] is True
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["codegree-cap"]


def test_analyze_interval_connection_set_fails_jumbledness(capsys, monkeypatch):
    # negative control above the dense cap: the circulant of C = +-{1 .. q/4}
    # has a top eigenvalue near n/pi, so the fourth-moment bound exceeds the limit
    import char2paley.cli as cli
    from char2paley import CirculantLabeling
    real = cli.circulant_labeling

    def interval(ctx, a):
        lab = real(ctx, a)
        n, quarter = lab.n, ctx.q // 4
        conn = frozenset({*range(1, quarter + 1), *range(n - quarter, n)})
        return CirculantLabeling(lab.a, lab.b, lab.vertices, conn)

    monkeypatch.setattr(cli, "circulant_labeling", interval)
    code, out = run(capsys, "analyze", "--k", "14")
    assert code == 1
    jumbled = next(c for c in json.loads(out)["checks"] if c["name"] == "jumbledness")
    assert jumbled["pass"] is False and jumbled["evidence"] == "algebraic"
    assert jumbled["witness"] == {"lambda_bound": jumbled["lambda_bound"]}
    assert (2 * jumbled["lambda_bound"] + 1) ** 4 > 256 * (1 << 14) ** 3
    assert jumbled["lambda_limit"] == 2895 < jumbled["lambda_bound"]


@pytest.mark.parametrize("argv, sampled", [
    (("analyze", "--k", "4"), set()),
    (("analyze", "--k", "10", "--samples", "50"), set()),
    (("certify", "--k", "4"), set()),
    (("chapman", "--k", "2"), set()),
    (("chapman", "--k", "4"), set()),
])
def test_evidence_below_dense_cap(capsys, argv, sampled):
    # every check that ran is exhaustive, or sampled where it draws samples;
    # a check that reports a mode has it as its evidence
    code, out = run(capsys, *argv)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert {c["name"] for c in checks if c["evidence"] == "sampled"} == sampled
    assert all(c["evidence"] in ("exhaustive", "sampled") for c in checks)
    assert all(c["evidence"] == c.get("mode", c["evidence"]) for c in checks)


def test_analyze_k18_report(capsys):
    # the field tables serve every k, so analyze runs above k = 16: the
    # Kloosterman checks sweep every nonzero b, the spectrum checks rest on
    # the labeling, and the checks that need the dense matrix are skipped
    code, out = run(capsys, "analyze", "--k", "18")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["complete"] is False
    checks = {c["name"]: c for c in doc["checks"]}
    for name in ("kloosterman-weil", "kloosterman-value-set"):
        assert checks[name]["pass"] is True and checks[name]["evidence"] == "exhaustive", name
    assert checks["kloosterman-value-set"]["count"] == (1 << 18) - 1
    for name in ("codegree-cap", "jumbledness"):
        assert checks[name]["pass"] is True and checks[name]["evidence"] == "algebraic", name
    for name in ("circulant", "codegree-formula-vs-direct"):
        assert checks[name].get("skipped") is True, name
    assert doc["evidence"] == {"exhaustive": 2, "sampled": 0, "algebraic": 2, "skipped": 2}


def test_build_poly_override(capsys):
    code, out = run(capsys, "build", "--k", "4", "--poly", "0x19", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["poly"] == "0x19" and doc["n"] == 17


@pytest.mark.parametrize("k, count", [(4, 3), (6, 9)])
def test_every_command_under_every_irreducible_poly(capsys, monkeypatch, k, count):
    # certify, analyze and chapman pass completely and echo the polynomial, and
    # decompose (prime order 17 only) exits 0, under each field.  The cached
    # field tables are cleared before each polynomial, so one field is held at
    # a time and every build of it shares one entry; the shift target is built
    # over the polynomial's own field
    import char2paley.cli as cli
    from char2paley.construct import _field_words
    from char2paley.gf2k import is_irreducible
    targets, real = [], cli.ShiftTarget
    monkeypatch.setattr(cli, "ShiftTarget", lambda g: targets.append(g.ctx) or real(g))
    polys = [p for p in range(1 << k, 2 << k) if is_irreducible(p)]
    assert len(polys) == count
    for poly in polys:
        _field_words.cache_clear()
        targets.clear()
        for command in ("certify", "analyze", "chapman"):
            code, out = run(capsys, command, "--k", str(k), "--poly", hex(poly))
            doc = json.loads(out)
            assert code == 0 and doc["pass"] is True and doc["complete"] is True, (poly, command)
            assert doc["config"]["poly"] == f"{poly:#x}", (poly, command)
        assert targets == [FieldCtx(k, poly)], poly
        assert _field_words.cache_info().currsize == 1, poly
        if k == 4:
            code, out = run(capsys, "decompose", "--k", "4", "--poly", hex(poly))
            assert code == 0 and out.startswith("p=17 cycles=4\n"), poly
    _field_words.cache_clear()


def test_k_out_of_range(capsys):
    code, _ = run(capsys, "build", "--k", "25")
    assert code == 2


def test_certify_symmetry_witness(capsys, monkeypatch):
    # rows that are exactly the circulant of C = {1 .. 8} at k = 4, on the real
    # vertices: circulant, regularity (|C| = q/2) and no-loops pass, and symmetry
    # fails at the least d in C with -d not in C, d = 1, named as the pair
    # (v_0, v_1), an entry whose mirror is missing
    rows, forged = _forge_circulant(monkeypatch, 4, lambda n: set(range(1, 9)))
    code, out = run(capsys, "certify", "--k", "4")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert all(checks[name]["pass"] for name in ("circulant", "regularity", "no-loops"))
    assert checks["symmetry"] == {
        "name": "symmetry", "pass": False, "evidence": "exhaustive",
        "witness": {"pair": ["inf", point_label(forged.vertices[1])]}}
    assert rows[0] >> forged.index[1] & 1 and not rows[forged.index[1]] & 1


def test_certify_self_complementary_witness(capsys, monkeypatch):
    # rows that are exactly the circulant of C = +-{1 .. 4} at k = 4, on the real
    # vertices: circulant passes, and v_i -> v_2i fails at the least distance d
    # with d and 2d both in C, d = 1, named as the pair (v_0, v_1)
    _, forged = _forge_circulant(monkeypatch, 4, lambda n: {1, 2, 3, 4, n - 4, n - 3, n - 2, n - 1})
    code, out = run(capsys, "certify", "--k", "4")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["circulant"]["pass"] is True and checks["automorphisms"]["pass"] is True
    assert checks["self-complementary"] == {
        "name": "self-complementary", "pass": False, "evidence": "exhaustive",
        "witness": {"pair": ["inf", point_label(forged.vertices[1])]}}


def test_certify_automorphisms_witness(capsys, monkeypatch):
    # rows that are exactly the circulant of {1, 2, 16} at k = 4: alpha is still a
    # rotation of the real vertices, and z -> z+1, v_i -> v_-i, fails at the
    # distance 2, in C while -2 = 15 is not
    _forge_circulant(monkeypatch, 4, lambda n: {1, 2, n - 1})
    code, out = run(capsys, "certify", "--k", "4")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["circulant"]["pass"] is True
    assert checks["automorphisms"] == {
        "name": "automorphisms", "pass": False, "evidence": "exhaustive",
        "witness": {"map": "z+1", "distance": 2}}


# a degree-preserving tamper: the edges {1, v1} and {5, v2} traded for the
# non-edges {1, v2} and {5, v1}
EDGE_SWAPS = {4: (3, 2), 6: (4, 9), 8: (6, 2)}


def _tamper_build(monkeypatch, k, how):
    """Make the CLI's build at k the real graph tampered `how`: "wide" sets bit n of
    row 5, "flip" flips the edge {1, 5} both ways, "one-way" in row 1 only, and
    "swap" trades two edges as EDGE_SWAPS gives them."""
    import char2paley.cli as cli
    ctx = FieldCtx(k)
    a = param_a(ctx)
    rows = list(build_graph(ctx, a).rows)
    n = len(rows)
    if how == "wide":
        rows[5] |= 1 << n
    elif how == "one-way":
        rows[1] ^= 1 << 5
    else:
        v1, v2 = EDGE_SWAPS[k]
        pairs = [(1, 5)] if how == "flip" else [(1, v1), (5, v2), (1, v2), (5, v1)]
        assert how != "swap" or [rows[1] >> v1 & 1, rows[5] >> v2 & 1,
                                 rows[1] >> v2 & 1, rows[5] >> v1 & 1] == [1, 1, 0, 0]
        for u, v in pairs:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
    tampered = PaleyLikeGraph(ctx, a, n, tuple(rows))
    monkeypatch.setattr(cli, "build_graph", lambda ctx, a: tampered)


TAMPERS = ("wide", "flip", "one-way", "swap")


@pytest.mark.parametrize("how", TAMPERS)
def test_certify_shift_class_rests_on_circulant(capsys, monkeypatch, how):
    # G_a's own rows tampered at k = 6: every a' would fail alike, so the class
    # is skipped on the failed circulant instead of blaming the first a' tried,
    # and so are the two vertex maps read off the connection set
    _tamper_build(monkeypatch, 6, how)
    code, out = run(capsys, "certify", "--k", "6")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["circulant"]["pass"] is False
    assert checks["shift-isomorphism-class"] == {
        "name": "shift-isomorphism-class", "pass": True, "evidence": "skipped", "skipped": True,
        "reason": "the class rests on the circulant check, which failed"}
    for name in ("self-complementary", "automorphisms"):
        assert checks[name]["reason"] == "the certificate rests on the circulant check, which failed"


def _assert_witnesses(command, checks):
    """Every failing entry names a witness, and every skipped one, alone, a reason."""
    for c in checks:
        assert c["pass"] or "witness" in c, (command, c)
        assert "reason" in c if c.get("skipped") else "reason" not in c, (command, c)


@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("how", TAMPERS)
def test_every_failing_check_has_a_witness(capsys, monkeypatch, tmp_path, k, how):
    # whatever the tamper, every entry that fails names a witness and every
    # skipped one a reason, in certify, analyze and chapman alike; certify's
    # circulant names the oracle's orbit row, and every check resting on it,
    # the three read off the connection set included, is skipped.  decompose
    # (prime orders only) writes no file and prints that same witness
    import char2paley.cli as cli
    _tamper_build(monkeypatch, k, how)
    ctx = FieldCtx(k)
    lab = circulant_labeling(ctx, param_a(ctx))
    i = circulant_witness(cli.build_graph(ctx, lab.a), lab)
    witness = {"vertex": point_label(lab.vertices[i]), "orbit_position": i}
    for command in ("certify", "analyze", "chapman"):
        code, out = run(capsys, command, "--k", str(k))
        assert code == 1, command
        checks = json.loads(out)["checks"]
        _assert_witnesses(command, checks)
        skipped = {c["name"] for c in checks if c.get("skipped")}
        if command == "certify":
            assert skipped == {"regularity", "symmetry", "no-loops", "self-complementary",
                               "automorphisms", "shift-isomorphism-class"}
            circulant = next(c for c in checks if c["name"] == "circulant")
            assert circulant["witness"] == witness
    if k != 6:  # 65 = 5 * 13 is out of scope
        out_file = tmp_path / "dec.txt"
        assert main(["decompose", "--k", str(k), "-o", str(out_file)]) == 1
        assert not out_file.exists()
        err = capsys.readouterr().err
        assert f"certificate failed: circulant: {json.dumps(witness)}\n" in err


@pytest.mark.parametrize("k", [4, 6, 8])
def test_every_failing_chapman_check_has_a_witness_on_a_class_tamper(capsys, tamper_coset, k):
    # the predicate flipped on all of class 1: independence holds, coset-graph-circulant
    # fails with the unpaired distance, and isomorphic is skipped with a reason
    d = _tamper_class(tamper_coset, k, 1)
    code, out = run(capsys, "chapman", "--k", str(k))
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    _assert_witnesses("chapman", checks.values())
    assert [name for name, c in checks.items() if not c["pass"]] == ["coset-graph-circulant"]
    assert checks["coset-graph-circulant"]["witness"] == {"distance": d}
    assert checks["isomorphic"]["reason"] == (
        "the comparison rests on the coset-graph-circulant check, which failed")


def test_certify_makes_one_column_pass(capsys, monkeypatch):
    # the circulant check is the only whole-matrix comparison certify makes
    import char2paley.construct as construct
    calls = []
    real = construct.first_failing_row

    def counting(rows, columns):
        calls.append(len(rows))
        return real(rows, columns)

    monkeypatch.setattr(construct, "first_failing_row", counting)
    code, _ = run(capsys, "certify", "--k", "6")
    assert code == 0
    assert calls == [65]


@pytest.mark.parametrize("k, every_a", [(4, True), (6, True), (8, False), (10, False)])
def test_connection_set_reads_agree_with_the_dense_oracles(field, k, every_a):
    # at every trace-1 a through k = 6 and the default a at k = 8 and 10, each
    # read off C gives the dense check's verdict and detail on a passing graph
    from char2paley.cli import _connection_set_reads
    ctx = field(k)
    values = [x for x in range(ctx.q) if ctx.trace(x) == 1] if every_a else [None]
    for value in values:
        a = param_a(ctx, value)
        g, lab = build_graph(ctx, a), circulant_labeling(ctx, a)
        reads = {name: read() for name, read in _connection_set_reads(ctx, lab).items()}
        oracles = {"regularity": dense_regularity(g), "symmetry": dense_symmetry(g),
                   "no-loops": dense_no_loops(g)}
        assert reads == oracles, value
        assert all(ok for ok, _ in reads.values())


@pytest.mark.parametrize("conn_of, fails", [
    (lambda n: set(range(1, 9)), {"symmetry"}),        # |C| = q/2, C != -C
    (lambda n: {1, 2, n - 1}, {"regularity", "symmetry"}),
    (lambda n: {1, 2, n - 2, n - 1}, {"regularity"}),  # C = -C, |C| != q/2
    (lambda n: {1, 2, 3, 4, n - 4, n - 3, n - 2, n - 1}, set()),
], ids=["asymmetric", "both", "irregular", "passing"])
def test_connection_set_reads_on_forged_circulants(monkeypatch, conn_of, fails):
    # negative controls: on the circulant of a forged C at k = 4, which passes the
    # circulant check, each read fails exactly where its dense oracle does
    from char2paley.cli import _connection_set_reads
    rows, forged = _forge_circulant(monkeypatch, 4, conn_of)
    ctx = FieldCtx(4)
    g = PaleyLikeGraph(ctx, forged.a, forged.n, tuple(rows))
    assert circulant_witness(g, forged) is None
    reads = {name: read()[0] for name, read in _connection_set_reads(ctx, forged).items()}
    assert reads == {"regularity": dense_regularity(g)[0], "symmetry": dense_symmetry(g)[0],
                     "no-loops": dense_no_loops(g)[0]}
    assert {name for name, ok in reads.items() if not ok} == fails


def test_passing_chapman_loads_no_decimal(tmp_path):
    # the spectra are read only when no multiplier verifies an isomorphism
    code = ("import sys, char2paley.cli as cli; "
            f"assert cli.main(['chapman', '--k', '4', '-o', {str(tmp_path / 'c.json')!r}]) == 0; "
            "print('decimal' in sys.modules)")
    src = str(Path(char2paley.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_output_in_missing_directory_is_io_error(capsys, tmp_path):
    from char2paley.cli import EXIT_IO
    code = main(["certify", "--k", "4", "-o", str(tmp_path / "missing" / "y.json")])
    err = capsys.readouterr().err
    assert code == EXIT_IO == 4
    assert "i/o error:" in err and "Traceback" not in err


def test_build_streams_to_file(capsys, tmp_path):
    path = tmp_path / "g.txt"
    _, out = run(capsys, "build", "--k", "5", "--tournament")
    assert main(["build", "--k", "5", "--tournament", "-o", str(path)]) == 0
    assert path.read_text() == out


def test_rejected_build_leaves_no_file(capsys, tmp_path):
    path = tmp_path / "g.dimacs"
    code, _ = run(capsys, "build", "--k", "3", "--tournament", "--format", "dimacs",
                  "-o", str(path))
    assert code == 2
    assert not path.exists()


def test_stages_timed_on_stderr(capsys):
    assert main(["analyze", "--k", "4"]) == 0
    err = capsys.readouterr().err
    for stage in ("setup", "kloosterman-sweep", "build", "labeling", "codegree-spectrum"):
        assert f"] STEP {stage} (peak RSS " in err
    assert "] PASS circulant (peak RSS " in err


def test_cli_import_skips_dataclasses_and_inspect():
    # every CLI run is a fresh process: the value types are NamedTuples, so the
    # import pays for neither module
    code = ("import sys; before = set(sys.modules); import char2paley.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    src = str(Path(char2paley.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
