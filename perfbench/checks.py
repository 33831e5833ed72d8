"""Output checks behind the benchmark's failure count.

They check what an output means, not its bytes, so a later report
schema that keeps the meaning still passes.  Nothing here imports
char2paley: package code does not check package output.
"""

from __future__ import annotations

import json
from math import comb

DENSE_ORDER_CAP = 4097  # the CLI's documented largest order with a dense matrix

EXPECTED_CHECKS = {
    "certify": frozenset({
        "regularity", "symmetry", "no-loops", "circulant", "labeling-identities",
        "self-complementary", "automorphisms", "vertex-transitive",
        "shift-isomorphism-class"}),
    "chapman": frozenset({
        "no-undefined-pairs", "representative-independence", "coset-graph-circulant",
        "isomorphic"}),
    "analyze": frozenset({
        "kloosterman-weil", "codegree-cap", "codegree-formula-vs-direct", "jumbledness"}),
}


def _k_of(argv) -> int:
    return int(argv[argv.index("--k") + 1])


def check_output(argv, data: bytes) -> str | None:
    """Why the output of the invocation `argv` is wrong, or None if it is right."""
    cmd, k = argv[0], _k_of(argv)
    if cmd in EXPECTED_CHECKS:
        return _check_report(cmd, k, data)
    if cmd == "build":
        return _check_edges(k, "--tournament" in argv, data)
    if cmd == "decompose":
        return _check_decomposition(k, data)
    return f"no output check for command {cmd!r}"


def _check_report(cmd: str, k: int, data: bytes) -> str | None:
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if not isinstance(doc, dict):
        return "report is not a JSON object"
    if doc.get("pass") is not True:
        return "top-level pass is not true"
    if doc.get("config", {}).get("k") != k:
        return f"config does not echo k={k}"
    checks = doc.get("checks", [])
    missing = EXPECTED_CHECKS[cmd] - {c.get("name") for c in checks}
    if missing:
        return f"missing checks {sorted(missing)}"
    failing = [c.get("name") for c in checks if c.get("pass") is not True]
    if failing:
        return f"checks not passed: {failing}"
    if cmd == "analyze":
        return _check_analysis(k, doc, checks)
    return None


def _check_analysis(k: int, doc: dict, checks: list) -> str | None:
    q = 1 << k
    n = q + 1
    weil = next(c for c in checks if c["name"] == "kloosterman-weil")
    worst = weil.get("max_abs_K")
    if not isinstance(worst, int) or worst * worst > 4 * q:
        return f"max_abs_K = {worst!r} breaks K^2 <= 4q = {4 * q}"
    spectrum = doc.get("codegree_spectrum")
    if spectrum is None:
        if n <= DENSE_ORDER_CAP:
            return "dense analysis has no codegree spectrum"
        return None
    pairs = sum(entry["count"] for entry in spectrum)
    if pairs != comb(n, 2):
        return f"codegree spectrum counts {pairs} pairs, want C({n},2) = {comb(n, 2)}"
    return None


def _check_edges(k: int, directed: bool, data: bytes) -> str | None:
    q = 1 << k
    n = q + 1
    head, _, body = data.partition(b"\n")
    if not head.startswith(b"# "):
        return "edge list has no header"
    fields = dict(part.partition("=")[::2] for part in head[2:].decode().split())
    if fields.get("k") != str(k) or fields.get("n") != str(n):
        return f"header {head.decode()!r} does not say k={k} n={n}"
    want = n * (n - 1) // 2 if directed else n * q // 4
    lines = body.count(b"\n")
    if lines != want or not body.endswith(b"\n"):
        return f"{lines} {'arcs' if directed else 'edges'}, want {want}"
    if b"\n\n" in body:
        return "blank line in edge list"
    arrows = body.count(b" > ")
    if arrows != (want if directed else 0):
        return f"{arrows} ' > ' separators in a {'tournament' if directed else 'graph'}"
    return None


def _check_decomposition(k: int, data: bytes) -> str | None:
    q = 1 << k
    n = q + 1
    lines = data.decode().splitlines()
    if not lines or lines[0] != f"p={n} cycles={q // 4}":
        return f"header {lines[:1]!r}, want 'p={n} cycles={q // 4}'"
    cycles = lines[1:]
    if len(cycles) != q // 4:
        return f"{len(cycles)} cycles, want {q // 4}"
    labels = {"inf", *(f"{x:#x}" for x in range(q))}
    edges = set()
    for cyc in (line.split() for line in cycles):
        if len(cyc) != n or set(cyc) != labels:
            return f"a cycle does not visit each of the {n} vertices once"
        edges.update(frozenset(e) for e in zip(cyc, cyc[1:] + cyc[:1]))
    if len(edges) != n * q // 4:
        return f"cycles cover {len(edges)} distinct edges, want {n * q // 4}"
    return None


def evidence(check: dict) -> str:
    """How a report check was established: its `evidence`, else from mode/skipped."""
    if "evidence" in check:
        return check["evidence"]
    if check.get("mode") == "sampled":
        return "sampled"
    if check.get("skipped"):
        return "skipped"
    return "exhaustive"


def evidence_counts(argv, data: bytes) -> tuple[int, int]:
    """(exhaustive checks, all checks) in the output of `argv`; (0, 0) if not a report."""
    if argv[0] not in EXPECTED_CHECKS:
        return 0, 0
    checks = json.loads(data)["checks"]
    return sum(evidence(c) == "exhaustive" for c in checks), len(checks)
