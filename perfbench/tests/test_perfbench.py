"""Fast tests of the benchmark itself, at tiny k.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END, LAYER_TARGETS, WORKLOADS, Workload, unit,
)

from char2paley import cli  # noqa: E402
from char2paley.gf2k import FieldCtx  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = [
    ["certify", "--k", "4"],
    ["analyze", "--k", "4", "--samples", "50"],
    ["build", "--k", "4", "--format", "edges"],
    ["build", "--k", "3", "--tournament", "--format", "edges"],
    ["decompose", "--k", "4"],
    ["chapman", "--k", "2"],
]


def _with_output(argvs, directory: Path, tag: str):
    return [[*argv, "--seed", "3", "-o", str(directory / f"{tag}-{i}.out")]
            for i, argv in enumerate(argvs)]


def _module_bindings():
    return {(short, attr): obj
            for short in tracer.MODULES
            for attr, obj in vars(importlib.import_module(f"char2paley.{short}")).items()}


def test_install_wraps_cross_module_bindings_and_restore_undoes_it():
    before = _module_bindings()
    init = FieldCtx.__init__
    t = tracer.Tracer()
    t.install()
    try:
        from char2paley import construct, formats, mobius, structure
        assert cli.build_graph is not construct.build_graph
        assert structure.build_graph is not construct.build_graph
        assert structure.build_graph.__wrapped__ is construct.build_graph
        assert construct.find_generator_a is not mobius.find_generator_a
        assert formats.point_of_index is mobius.point_of_index  # per-element: unwrapped
        assert cli.cmd_build is before[("cli", "cmd_build")]  # own functions: unwrapped
        assert FieldCtx.__init__ is not init
    finally:
        t.restore()
    after = _module_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert FieldCtx.__init__ is init
    assert "_ensure_tables" not in vars(FieldCtx(4))


def test_tables_span_records_only_the_first_build():
    t = tracer.Tracer()
    t.install()
    try:
        ctx = FieldCtx(6)
        for x in range(1, 20):
            ctx.mul(x, ctx.inv(x))
        assert "_ensure_tables" not in vars(ctx)
    finally:
        t.restore()
    assert [span[0] for span in t.spans] == ["gf2k.tables"]


def test_traced_outputs_equal_untraced_and_spans_partition_wall(tmp_path):
    plain = _with_output(TINY, tmp_path, "plain")
    for argv in plain:
        assert cli.main(argv) == 0
    traced = _with_output(TINY, tmp_path, "traced")
    exits, spans = tracer.run_traced(traced)
    assert exits == [0] * len(TINY)
    for a, b in zip(plain, traced):
        assert Path(a[-1]).read_bytes() == Path(b[-1]).read_bytes(), a[0]
    own = tracer.self_times(spans)
    for (name, start, end, _, _), s in zip(spans, own):
        assert 0 <= s <= end - start + 1e-9, name
    assert tracer.attribution_error(spans) is None
    roots = [span for span in spans if span[3] < 0]
    assert [span[0] for span in roots] == [f"cli.{argv[0]}" for argv in TINY]
    names = {span[0] for span in spans}
    assert {"construct.build_graph", "construct.build_tournament", "gf2k.tables",
            "structure.verify_shift_isomorphism", "analyze.kloosterman_sweep",
            "formats.write_edges", "structure.chapman_compare"} <= names
    assert not any(n.endswith((".vertex_index", ".point_label", ".apply")) for n in names)


def test_self_times_and_attribution_on_synthetic_spans():
    spans = [["cli.x", 0.0, 10.0, -1, 0], ["a.f", 1.0, 4.0, 0, 0],
             ["b.g", 2.0, 3.0, 1, 0], ["a.f", 5.0, 6.0, 0, 0]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracer.layer_totals(spans) == {"cli.x": (6.0, 1), "a.f": (3.0, 2), "b.g": (1.0, 1)}
    assert tracer.attribution_error(spans) is None
    spans.append(["b.g", 0.5, 9.5, 0, 0])  # children now cover more than the parent
    assert "self time" in tracer.attribution_error(spans)


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("outputs")
    argvs = _with_output(TINY, directory, "ok")
    for argv in argvs:
        assert cli.main(argv) == 0
    return {argv[0] + argv[2]: (argv, Path(argv[-1]).read_bytes()) for argv in argvs}


def test_real_outputs_pass_their_checks(tiny_outputs):
    for argv, data in tiny_outputs.values():
        assert checks.check_output(argv, data) is None, argv


def _edit_report(data: bytes, edit) -> bytes:
    doc = json.loads(data)
    edit(doc)
    return json.dumps(doc).encode()


@pytest.mark.parametrize("key,corrupt", [
    ("certify4", lambda d: _edit_report(d, lambda doc: doc.update({"pass": False}))),
    ("certify4", lambda d: _edit_report(d, lambda doc: doc["checks"].pop())),
    ("certify4", lambda d: d[:-20]),
    ("analyze4", lambda d: _edit_report(
        d, lambda doc: doc["checks"][0].update({"max_abs_K": 9}))),
    ("analyze4", lambda d: _edit_report(
        d, lambda doc: doc["codegree_spectrum"][0].update(
            {"count": doc["codegree_spectrum"][0]["count"] + 1}))),
    ("chapman2", lambda d: _edit_report(d, lambda doc: doc["checks"][1].update({"pass": 0}))),
    ("build4", lambda d: d.replace(b"n=17", b"n=16")),
    ("build4", lambda d: d[:d.rindex(b"\n", 0, -1) + 1]),
    ("build3", lambda d: d.replace(b" > ", b" ", 1)),
    ("decompose4", lambda d: d.replace(b"0x1 ", b"0x2 ", 1)),
    ("decompose4", lambda d: d[:d.rindex(b"\n", 0, -1) + 1]),
])
def test_corrupted_output_fails_its_check(tiny_outputs, key, corrupt):
    argv, data = tiny_outputs[key]
    assert checks.check_output(argv, corrupt(data)) is not None


def test_corrupted_or_changed_output_counts_in_fail_frac(tmp_path):
    workload = Workload((("certify", "--k", "4"), ("build", "--k", "4", "--format", "edges")),
                        4, "tiny")
    runner = run.Runner(workload, 5, tmp_path, run._child_env())
    first = runner.untraced_pass("p0")
    assert runner.failures == [] and runner.attempted == 2
    assert (first["exhaustive_checks"], first["checks"]) == (9, 9)

    def rerun(tag, edit):
        for argv in runner._argvs(tag):
            assert cli.main(argv) == 0
            path = Path(argv[-1])
            path.write_bytes(edit(argv, path.read_bytes()))
        return runner._verify(tag, [0, 0])

    rerun("same", lambda argv, data: data)
    assert runner.failures == []
    rerun("corrupt", lambda argv, data: data[:-30] if argv[0] == "build" else data)
    assert len(runner.failures) == 1 and "edges" in runner.failures[0]
    rerun("reformatted", lambda argv, data: (
        json.dumps(json.loads(data)).encode() if argv[0] == "certify" else data))
    assert len(runner.failures) == 2 and "differs" in runner.failures[1]
    runner._verify("missing", [0, 1])
    assert runner.attempted == 10 and len(runner.failures) == 4


def test_evidence_classification():
    assert checks.evidence({"evidence": "algebraic", "mode": "exhaustive"}) == "algebraic"
    assert checks.evidence({"mode": "sampled", "count": 5}) == "sampled"
    assert checks.evidence({"mode": "exhaustive"}) == "exhaustive"
    assert checks.evidence({"pass": True, "skipped": True}) == "skipped"
    assert checks.evidence({"pass": True}) == "exhaustive"
    report = json.dumps({"checks": [{"mode": "sampled"}, {"skipped": True}, {},
                                    {"evidence": "exhaustive", "mode": "sampled"}]}).encode()
    assert checks.evidence_counts(["analyze", "--k", "14"], report) == (2, 4)
    assert checks.evidence_counts(["build", "--k", "4"], b"# k=4") == (0, 0)


def test_names_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_TARGETS)
    assert all(m["unit"] == unit(m["name"]) for m in spec["per_layer"])
    names = [*WORKLOADS, *(m[0] for m in END_TO_END), *LAYER_TARGETS]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    e2e = {m[0] for m in END_TO_END}
    for metric, workloads in LAYER_TARGETS.values():
        assert metric in e2e and set(workloads) <= set(WORKLOADS)


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", next(iter(WORKLOADS)), "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert "no char2paley sources" in done.stderr


def test_probes_time_the_set_up_and_the_reference_kernel():
    (setup, kernel_wall, kernel_cpu), package_file = run.setup_probe(4, run._child_env())
    assert setup > 0 and kernel_wall > 0 and kernel_cpu > 0
    assert run._inside_root(package_file)
    times = run.reference_times(2, run._child_env())
    assert len(times) == 2 and all(wall > 0 and cpu > 0 for wall, cpu in times)
    assert "char2paley" not in (BENCH / "reference.py").read_text().split('"""')[2]


def test_kernel_time_is_weighted_by_the_invocations_it_brackets():
    bursts = [[(1.0, 0.5)], [(3.0, 1.5), (3.0, 1.5)], [(5.0, 2.5)]]
    order = [{"wall_s": 1.0, "cpu_s": 1.0}, {"wall_s": 3.0, "cpu_s": 1.0}]
    assert run._bracketed_mean(order, bursts, 0, "wall_s") == (1 * 2.0 + 3 * 4.0) / 4
    assert run._bracketed_mean(order, bursts, 1, "cpu_s") == (1.0 + 2.0) / 2


def test_package_must_come_from_the_checkout():
    assert run._inside_root(str(ROOT / "src" / "char2paley" / "__init__.py"))
    assert not run._inside_root(str(ROOT.parent / "pkg" / "char2paley" / "__init__.py"))
