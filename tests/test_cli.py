import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import char2paley

from char2paley import (
    FieldCtx, PaleyLikeGraph, QuadExtCtx, build_graph, build_tournament, circulant_labeling,
    iter_bits, param_a,
)
from char2paley.cli import main
from char2paley.formats import parse_edges, point_label, write_edges


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


def test_edges_round_trip(capsys):
    code, out = run(capsys, "build", "--k", "4")
    meta, directed, pairs = parse_edges(out)
    assert not directed
    ctx = FieldCtx(meta["k"], meta["poly"])
    g = build_graph(ctx, param_a(ctx, meta["a"]))
    rows = [0] * g.n
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    assert tuple(rows) == g.rows


def test_arcs_round_trip():
    ctx = FieldCtx(3)
    t = build_tournament(ctx, param_a(ctx))
    meta, directed, pairs = parse_edges("".join(write_edges(t)))
    assert directed
    rows = [0] * t.n
    for i, j in pairs:
        rows[i] |= 1 << j
    assert tuple(rows) == t.rows


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
    # configuration error: regularity names it, circulant places it in orbit
    # order, and the checks that relabel the rows are skipped
    lab = _one_row_wider_than_n(monkeypatch, 6, 5)
    code, out = run(capsys, "certify", "--k", "6")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and doc["complete"] is False
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["regularity"]["pass"] is False
    assert checks["regularity"]["witness"] == {"vertex": 5, "bit": 65, "n": 65}
    i = lab.index.index(5)
    assert checks["circulant"]["pass"] is False
    assert checks["circulant"]["witness"] == {"vertex": "0x4", "orbit_position": i}
    assert checks["vertex-transitive"]["witness"] == checks["circulant"]["witness"]
    for name in ("symmetry", "self-complementary", "automorphisms", "shift-isomorphism-class"):
        assert checks[name]["skipped"] is True
        assert checks[name]["reason"] == "row 5 has bits at or above n = 65"
    assert checks["no-loops"]["pass"] is True


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
    assert ok is False
    assert detail["witness"] == {"vertex": point_label(lab.vertices[-1]), "orbit_position": 4096}


def test_certify_rejects_trace0_a(capsys):
    # 0x1 has trace 0 at k=4
    code, _ = run(capsys, "certify", "--k", "4", "--a", "0x1")
    assert code == 2


def test_certify_rejects_odd_k(capsys):
    code, _ = run(capsys, "certify", "--k", "3")
    assert code == 2


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
    """Record the order n of every verify_circulant call the CLI makes, directly or
    through the structure functions."""
    import char2paley.cli as cli
    import char2paley.structure as structure
    calls = []
    real = structure.verify_circulant

    def counting(g, lab):
        calls.append(g.n)
        return real(g, lab)

    monkeypatch.setattr(structure, "verify_circulant", counting)
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
    # the failing path reports the witness hamiltonian_decompose found
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


def test_chapman_representative_independence_witness(capsys, field, tamper_coset):
    # the predicate flipped at w = g^(3q+1), an entry no pair reads: the rows
    # stay circulant and isomorphic, and only this check fails, with the class
    tamper_coset(QuadExtCtx(field(4)), 3 * 16 + 1)
    code, out = run(capsys, "chapman", "--k", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    checks = {c["name"]: c for c in doc["checks"]}
    assert [name for name, c in checks.items() if not c["pass"]] == ["representative-independence"]
    witness = checks["representative-independence"]["witness"]
    assert witness["exponents"] == [15, 49]
    assert sorted(witness["bits"]) == [0, 1]


def test_chapman_skips_isomorphic_when_coset_graph_not_circulant(capsys, field, tamper_coset):
    # the predicate flipped at w = g^(q+3), read by the pair (1, 3) alone: the
    # rows are no circulant, and the comparison resting on that is skipped
    tamper_coset(QuadExtCtx(field(4)), 16 + 3)
    code, out = run(capsys, "chapman", "--k", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and doc["complete"] is False
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["coset-graph-circulant"]["pass"] is False
    assert checks["isomorphic"]["skipped"] is True


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


def test_chapman_short_orbit_parameter_certified(capsys):
    code, out = run(capsys, "chapman", "--k", "6", "--a", "0x20")
    assert code == 0
    iso = next(c for c in json.loads(out)["checks"] if c["name"] == "isomorphic")
    assert iso["verdict"] == "isomorphic-certified"


def test_chapman_rejects_odd_k(capsys):
    code, _ = run(capsys, "chapman", "--k", "3")
    assert code == 2


def test_chapman_k10_out_of_scope(capsys):
    code, _ = run(capsys, "chapman", "--k", "10")
    assert code == 3


@pytest.mark.parametrize("k, multiplier", [(6, 22), (8, 3)])
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
    rows, _ = _forge_circulant(monkeypatch, 6, lambda n: {*range(1, 17), *range(n - 16, n)})
    code, out = run(capsys, "analyze", "--k", "6")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["circulant"]["pass"] is True
    cap = checks["codegree-cap"]
    assert cap["pass"] is False and cap["evidence"] == "exhaustive"
    i, j = cap["witness"]["pair"]
    assert i == 0 and (rows[i] & rows[j]).bit_count() == cap["max_ell"] > cap["bound"]


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


def test_analyze_rejects_odd_k(capsys):
    # above k = 16 too, where the cap that used to answer first is gone
    code, _ = run(capsys, "analyze", "--k", "17")
    assert code == 2


def test_build_poly_override(capsys):
    code, out = run(capsys, "build", "--k", "4", "--poly", "0x19", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["poly"] == "0x19" and doc["n"] == 17


def test_k_out_of_range(capsys):
    code, _ = run(capsys, "build", "--k", "25")
    assert code == 2


def test_certify_symmetry_witness(capsys, monkeypatch):
    # one edge kept in one row only: the symmetry check names that pair
    import char2paley.cli as cli
    ctx = FieldCtx(4)
    a = param_a(ctx)
    g = build_graph(ctx, a)
    rows = list(g.rows)
    j = next(iter_bits(rows[0]))  # lowest neighbour of vertex 0
    rows[0] ^= 1 << j
    tampered = PaleyLikeGraph(ctx, a, g.n, tuple(rows))
    monkeypatch.setattr(cli, "build_graph", lambda ctx, a: tampered)
    code, out = run(capsys, "certify", "--k", "4")
    assert code == 1
    sym = next(c for c in json.loads(out)["checks"] if c["name"] == "symmetry")
    assert sym["pass"] is False
    assert sym["witness"] == {"pair": [0, j]}


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
