"""Workloads, metric names and the layer map of the char2paley benchmark.

A workload is a pass: a fixed list of CLI invocations run one after
another.  `run.py` appends `--seed <n> -o <file>` to each invocation.
The gated bounds live in BENCHMARK.json; `tests/test_perfbench.py`
checks that the names, units and directions here agree with it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    invocations: tuple[tuple[str, ...], ...]
    setup_k: int  # largest k the pass uses; setup_s is measured at it
    why: str


# The four invocation groups of the design (certify, analyze, export,
# stream) run as two workloads.  On a 2-vCPU VM whose CPU speed drifts by
# ~1.5x within seconds, a 25 s run of a single 20 s pass spread by up to
# 0.21 (quartile distance over median, ten runs), and a full evaluation
# (4 + 22 runs per workload within 3420 s) leaves four workloads no more
# than ~30 s a run.  Two workloads get 60 s runs, in which most
# invocations run twice (the 20-30 s `analyze --k 12` only on a fast run).  Each pairs the groups that
# exercise the same layers, so each is the other's no-change
# workload: certify_export runs no analyze code beyond one spectrum count,
# analyze_stream runs no structure or formats code.
WORKLOADS = {
    "certify_export": Workload(
        (("certify", "--k", "8"), ("decompose", "--k", "8"), ("chapman", "--k", "4"),
         ("build", "--k", "12", "--format", "edges"),
         ("build", "--k", "11", "--tournament", "--format", "edges")),
        12,
        "construct, structure and formats: certificates (131 builds, shift relabelling) and"
        " edge-list export (write_edges, build_tournament, peak RSS); no-change for analyze work"),
    "analyze_stream": Workload(
        (("analyze", "--k", "12", "--samples", "2000"),
         ("analyze", "--k", "14", "--samples", "1000")),
        14,
        "analyze and gf2k: spectrum, Kloosterman sweep and jumbledness at n=4097, then sampled"
        " Weil sums above the dense cap; no structure or formats code, one dense build"),
}

# (name, unit, better) of the end-to-end metrics of a pass, measured with
# tracing off, all gated in BENCHMARK.json.  fail_frac is 0 on a correct
# run, so it has no relative bound: it travels as the result's
# `failed`/`attempted` and is printed beside the table.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
    ("exhaustive_frac", "1", "higher"),
)

# Per-layer metric -> (end-to-end metric it should move, workloads it
# shows on).  `<module>.<function>.self_s` is span time minus child spans,
# `.calls` the span count, both per traced pass.  `cli.<command>.self_s`
# is the time inside cli.main that no wrapped call covers.
LAYER_TARGETS = {
    "gf2k.tables.self_s": ("setup_s", ("analyze_stream",)),
    "mobius.find_generator_a.self_s": ("setup_s", ("certify_export", "analyze_stream")),
    "mobius._alpha_orbit_len.self_s": ("wall_s", ("certify_export",)),
    "mobius._alpha_orbit_len.calls": ("wall_s", ("certify_export",)),
    "mobius.orbit.self_s": ("wall_s", ("analyze_stream",)),
    "construct.build_graph.self_s": ("wall_s", ("certify_export", "analyze_stream")),
    "construct.build_graph.calls": ("wall_s", ("certify_export", "analyze_stream")),
    "construct.build_tournament.self_s": ("wall_s", ("certify_export",)),
    "construct.param_a.calls": ("wall_s", ("certify_export",)),
    "construct.circulant_labeling.self_s": ("wall_s", ("certify_export",)),
    "construct.verify_circulant.self_s": ("wall_s", ("certify_export",)),
    "analyze.codegree_spectrum.self_s": ("wall_s", ("analyze_stream",)),
    "analyze.kloosterman_sweep.self_s": ("wall_s", ("analyze_stream",)),
    "analyze.kloosterman_sweep.calls": ("wall_s", ("analyze_stream",)),
    "analyze.jumbledness_audit.self_s": ("wall_s", ("analyze_stream",)),
    "analyze.codegree_formula.self_s": ("wall_s", ("analyze_stream",)),
    "analyze.codegree_formula.calls": ("wall_s", ("analyze_stream",)),
    "analyze.codegree_direct.self_s": ("wall_s", ("analyze_stream",)),
    "analyze.codegree_direct.calls": ("wall_s", ("analyze_stream",)),
    "analyze.weil_bound_holds.self_s": ("wall_s", ("analyze_stream",)),
    "analyze._kloosterman_sum.self_s": ("wall_s", ("analyze_stream",)),
    "analyze._kloosterman_sum.calls": ("wall_s", ("analyze_stream",)),
    "analyze.spectrum_counts.self_s": ("wall_s", ("certify_export",)),
    "structure.verify_shift_isomorphism.self_s": ("wall_s", ("certify_export",)),
    "structure.verify_shift_isomorphism.calls": ("wall_s", ("certify_export",)),
    "structure.shift_isomorphism.self_s": ("wall_s", ("certify_export",)),
    "structure.verify_self_complementary.self_s": ("wall_s", ("certify_export",)),
    "structure.verify_automorphisms.self_s": ("wall_s", ("certify_export",)),
    "structure.hamiltonian_decompose.self_s": ("wall_s", ("certify_export",)),
    "structure.chapman_build.self_s": ("wall_s", ("certify_export",)),
    "structure.verify_representative_independence.self_s": ("wall_s", ("certify_export",)),
    "structure.chapman_compare.self_s": ("wall_s", ("certify_export",)),
    "formats.write_edges.self_s": ("wall_s", ("certify_export",)),
    "formats.write_decomposition.self_s": ("wall_s", ("certify_export",)),
    "formats.out_bytes": ("wall_s", ("certify_export",)),
    "cli.certify.self_s": ("wall_s", ("certify_export",)),
    "cli.analyze.self_s": ("wall_s", ("analyze_stream",)),
    "cli.build.self_s": ("wall_s", ("certify_export",)),
    "cli.decompose.self_s": ("wall_s", ("certify_export",)),
    "cli.chapman.self_s": ("wall_s", ("certify_export",)),
    "trace.wall_s": ("wall_s", ("certify_export", "analyze_stream")),
    "trace.overhead_frac": ("wall_s", ("certify_export", "analyze_stream")),
}


def unit(name: str) -> str:
    """The unit of any end-to-end or per-layer metric."""
    for metric, metric_unit, _ in END_TO_END:
        if metric == name:
            return metric_unit
    if name.endswith("_s"):
        return "s"
    if name == "formats.out_bytes":
        return "bytes"
    if name.endswith("_frac"):
        return "1"
    return "count"
