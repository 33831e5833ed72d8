"""Command-line front-end: build, certify, analyze, decompose, chapman.

Reports are JSON documents (schema 4) whose bytes depend only on the
configuration, seed included, so identical invocations produce
identical files; wall-clock timings of every stage and check go to
stderr only.  Every check records its `evidence`, the weakest of its
inputs: "exhaustive" (every case checked in this run, or an exact
deduction from such checks), "sampled", "algebraic" (resting on a
theorem no check in this run verified) or "skipped"; the report counts
each kind.  A skipped check is written with "pass": true and
"skipped": true, and makes the report's "complete" false.  Exit codes:
0 success, 1 a certificate failed, 2 configuration error, 3 capacity or
out-of-scope request, 4 i/o error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import __version__
from .analyze import (
    circulant_spectrum, codegree_formula, jumbledness_certificate, kloosterman_sweep,
    kloosterman_value_set, weil_bound_holds,
)
from .construct import (
    MATRIX_CAP, OutOfScopeError, build_graph, build_tournament, check_cap, circulant_labeling,
    param_a, unpaired_distance, verify_circulant,
)
from .formats import (
    Export, point_label, write_decomposition, write_dimacs, write_edges,
    write_json_graph, write_matrix,
)
from .gf2k import K_MAX, FieldCtx
from .mobius import INF, point_of_index
from .structure import (
    ShiftTarget, chapman_build, chapman_compare, check_prime_order, hamiltonian_decompose,
    shift_isomorphism, verify_automorphisms, verify_representative_independence,
    verify_self_complementary, verify_shift_isomorphism,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_IO = 4

CHAPMAN_K_MAX = K_MAX // 2   # GF(q^2) is the FieldCtx of degree 2k <= K_MAX
# An export is cut into at most one row range per this many rows, so it is
# written by this process alone below twice as many.  A forked worker costs
# about 3 ms; two ranges break even near 513 rows for the edge, DIMACS and
# JSON writers.  The matrix writer returns no Export: it is written inline.
ROWS_PER_WORKER = 1024
EVIDENCE = ("exhaustive", "sampled", "algebraic", "skipped")


def _check_k_range(k: int) -> None:
    if not 2 <= k <= K_MAX:
        raise ValueError(f"k must be between 2 and {K_MAX}, got {k}")


def _graph_k(k: int, what: str) -> None:
    """Reject a k out of range, or an odd k, whose trace rule gives a tournament."""
    _check_k_range(k)
    if k % 2:
        raise ValueError(f"{what} works on graphs: k must be even")


def _make_ctx_and_a(args):
    def setup():
        ctx = FieldCtx(args.k, args.poly)
        return ctx, param_a(ctx, args.a)

    return _stage("setup", setup)


def _config_echo(args, ctx, a) -> dict:
    echo = {"k": args.k, "a": f"{a.value:#x}", "poly": f"{ctx.poly:#x}", "seed": args.seed}
    if "samples" in args:
        echo["samples"] = args.samples
    return echo


def _emit(args, chunks) -> None:
    """Write a string, or an iterable of strings as they come, to --output or stdout.

    An Export is written from one process per CPU available (_write_export).
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            _write(fh, chunks)
    else:
        _write(sys.stdout, chunks)


def _write(fh, chunks) -> None:
    if isinstance(chunks, Export):
        _write_export(fh, chunks, _part_count(fh, chunks))
    else:
        fh.writelines(chunks)


def _part_count(fh, export: Export) -> int:
    """How many processes write this export to fh: one per CPU available and
    ROWS_PER_WORKER rows, or this one alone where a fork cannot pay or is unsafe."""
    parts = export.n // ROWS_PER_WORKER
    if parts < 2 or not hasattr(os, "fork"):
        return 1
    try:
        fh.fileno()  # the workers' ranges are appended to a file, not a string buffer
    except (OSError, ValueError):
        return 1
    import threading  # off the import path, like every module only a split needs
    if threading.active_count() > 1:  # a forked child runs the calling thread alone
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(parts, len(os.sched_getaffinity(0)))
    return min(parts, os.cpu_count() or 1)


def _write_export(fh, export: Export, parts: int) -> None:
    """Write the export to fh in `parts` row ranges balanced by export.ranges.

    This process writes the head and the first range, while workers made
    by os.fork write the others, each into an unlinked temporary file; the
    files are copied to fh in order once their workers have exited, so the
    bytes are those of the one-range text.  Where the temporary files
    cannot be made, this process writes every row.  Every worker is reaped
    before this returns or raises; a failed worker raises OSError.
    """
    ranges = export.ranges(parts) if parts > 1 else []
    if len(ranges) < 2:
        fh.writelines(export)
        return
    import shutil
    import signal
    import tempfile
    tmps = []
    workers = []  # [pid, or None once reaped; its temporary file; its range]
    try:
        try:
            for _ in ranges[1:]:  # all made before any fork
                tmps.append(tempfile.TemporaryFile())
        except OSError:  # no temporary directory is writable
            fh.writelines(export)
            return
        parent = os.getpid()
        for tmp, (start, stop) in zip(tmps, ranges[1:]):
            pid = os.fork()
            if pid == 0:
                _export_worker(export, start, stop, tmp.fileno(), fh.encoding, parent)
            workers.append([pid, tmp, (start, stop)])
        fh.write(export.head)
        fh.writelines(export.rows(*ranges[0]))
        fh.flush()  # the ranges below go to fh.buffer, after this text
        for worker in workers:
            pid, tmp, (start, stop) = worker
            _, status = os.waitpid(pid, 0)
            worker[0] = None
            if status:
                raise OSError(f"the worker writing rows {start}..{stop - 1} exited with "
                              f"status {os.waitstatus_to_exitcode(status)}")
            tmp.seek(0)  # the worker wrote through the same open file, leaving it at the end
            shutil.copyfileobj(tmp, fh.buffer, 1 << 20)
        fh.write(export.tail)
    finally:
        for pid, _, _ in workers:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for tmp in tmps:
            tmp.close()


def _export_worker(export: Export, start: int, stop: int, fd: int, encoding: str, parent: int):
    """In a forked child: write rows start .. stop - 1 to fd, then exit, 0 once
    they are written, 1 on any error or once `parent` is no longer its
    parent, without flushing the parent's stdio."""
    code = 1
    try:
        import gc
        gc.disable()  # nothing here makes cycles, and a collection would copy the parent's pages
        with open(fd, "w", encoding=encoding, closefd=False) as out:
            for chunk in export.rows(start, stop):
                if os.getppid() != parent:  # orphaned: nobody will copy this range
                    os._exit(1)
                out.write(chunk)
        code = 0
    except Exception as exc:
        os.write(2, f"char2paley: the worker writing rows {start}..{stop - 1}: {exc!r}\n".encode())
    finally:  # never unwinds into the parent's frames this process copied
        os._exit(code)


def _print_time(t0: float, tag: str, name: str) -> None:
    """One timing line: seconds since t0, then the process's peak RSS so far."""
    elapsed = time.monotonic() - t0
    import resource  # POSIX only, and off the import path: the first timed line loads it
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"[{elapsed:8.3f}s] {tag} {name} (peak RSS {peak:.1f} MiB)", file=sys.stderr)


def _stage(name: str, fn):
    """fn(), a stage of a command outside the checks, timed like them."""
    t0 = time.monotonic()
    out = fn()
    _print_time(t0, "STEP", name)
    return out


class _Checks:
    """Accumulates named pass/fail verdicts with evidence and witnesses, timing to stderr."""

    def __init__(self):
        self.items = []

    def run(self, name: str, evidence: str, fn, skip: str | None = None):
        """Run and record one check; returns its verdict, the first of fn's two values.

        Given a `skip` reason, fn is not called: the check is recorded as
        skipped, with "pass": true, and the verdict is None.
        """
        if skip is not None:
            self.items.append({"name": name, "pass": True, "evidence": "skipped",
                               "skipped": True, "reason": skip})
            print(f"[   skip ] ---- {name}: {skip}", file=sys.stderr)
            return None
        t0 = time.monotonic()
        ok, detail = fn()
        _print_time(t0, "PASS" if ok else "FAIL", name)
        entry = {"name": name, "pass": bool(ok), "evidence": evidence}
        if detail:
            entry.update(detail)
        self.items.append(entry)
        return ok

    def evidence_counts(self) -> dict:
        return {kind: sum(c["evidence"] == kind for c in self.items) for kind in EVIDENCE}

    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.items)

    def complete(self) -> bool:
        return not any(c.get("skipped") for c in self.items)


def _report(args, ctx, a, command: str, checks: _Checks, extra: dict | None = None) -> str:
    doc = {
        "schema": 4,
        "tool": "char2paley",
        "version": __version__,
        "command": command,
        "config": _config_echo(args, ctx, a),
        "checks": checks.items,
        "pass": checks.all_pass(),
        "complete": checks.complete(),
        "evidence": checks.evidence_counts(),
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# build


def cmd_build(args) -> int:
    _check_k_range(args.k)
    if args.k % 2 and not args.tournament:
        raise ValueError(
            f"k = {args.k} is odd and defines a tournament; pass --tournament "
            "to acknowledge directed output")
    if args.k % 2 == 0 and args.tournament:
        raise ValueError(f"k = {args.k} is even and defines a graph, not a tournament")
    check_cap(args.k)
    ctx, a = _make_ctx_and_a(args)
    g = _stage("build", lambda: (build_tournament if ctx.k % 2 else build_graph)(ctx, a))
    writer = {
        "edges": write_edges,
        "dimacs": write_dimacs,
        "matrix": write_matrix,
        "json": write_json_graph,
    }[args.format]
    # the output is opened only now, so a rejected request leaves no file
    _stage("write", lambda: _emit(args, writer(g)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def _check_labeling_identities(ctx, lab):
    # v_2 = b^2 + a, v_q = 1 + b and v_(q-1) = 1 + b^2 + a follow from these
    n = ctx.q + 1
    v = lab.vertices
    fails = []
    if v[1] != lab.b:
        fails.append(f"v_1 != {lab.b}")
    for i in range(1, n):
        if v[n - i] != 1 ^ v[i]:
            fails.append(f"v_(-{i}) != 1 + v_{i}")
            break
    for i in range(1, n):
        if v[2 * i % n] != ctx.sqr(v[i]) ^ lab.a.value:
            fails.append(f"v_(2*{i}) != v_{i}^2 + a")
            break
    if fails:
        return False, {"witness": {"identities": fails}}
    return True, None


def _orbit_witness(lab, i: int) -> dict:
    """The witness of a failed circulant certificate: v_i, the first failing orbit row."""
    return {"vertex": point_label(lab.vertices[i]), "orbit_position": i}


def _check_circulant(g, lab):
    """verify_circulant's verdict, which names its failing orbit row, and the check's detail."""
    verdict = verify_circulant(g, lab)
    detail = {"connection_set_size": len(lab.conn), "connection_set_min": min(lab.conn)}
    if not verdict:
        detail["witness"] = _orbit_witness(lab, verdict.position)
    return verdict, detail


def _rests_on(verdict, claim: str, basis: str) -> str | None:
    """Why a check whose `claim` rests on `basis` is skipped: the verdict of basis
    failed.  None, so the check runs, when it passed or was skipped (None)."""
    if verdict is None or verdict:
        return None
    return f"the {claim} rests on {basis}, which failed"


def _connection_set_reads(ctx, lab) -> dict:
    """regularity, symmetry and no-loops, read off the certified connection set C: the
    rows are C's circulant, so every degree is |C|, each entry (v_0, v_d) has its mirror
    exactly when C = -C, and no v_i is its own neighbour exactly when 0 is not in C."""
    conn, want, inf = lab.conn, ctx.q // 2, point_label(INF)

    def regularity():
        if len(conn) != want:
            return False, {"witness": {"vertex": inf, "degree": len(conn), "expected": want}}
        return True, {"degree": want}

    def symmetry():
        d = unpaired_distance(conn, lab.n)
        return d is None, None if d is None else {"witness": {"pair": [
            inf, point_label(lab.vertices[d])]}}

    def no_loops():  # CirculantLabeling holds C within 1 .. n-1
        return 0 not in conn, {"witness": {"vertex": inf}} if 0 in conn else None

    return {"regularity": regularity, "symmetry": symmetry, "no-loops": no_loops}


def cmd_certify(args) -> int:
    _graph_k(args.k, "certify")
    check_cap(args.k)
    ctx, a = _make_ctx_and_a(args)
    g = _stage("build", lambda: build_graph(ctx, a))
    lab = _stage("labeling", lambda: circulant_labeling(ctx, a))
    checks = _Checks()
    # the one dense comparison: every entry, no symmetry assumed and no bit at or above n
    circ = checks.run("circulant", "exhaustive", lambda: _check_circulant(g, lab))
    on_circulant = _rests_on(circ, "certificate", "the circulant check")
    for name, read in _connection_set_reads(ctx, lab).items():
        checks.run(name, "exhaustive", read, on_circulant)
    ident = checks.run("labeling-identities", "exhaustive",
                       lambda: _check_labeling_identities(ctx, lab))
    # the maps are read off C, on the identities v_2i = v_i^2 + a and v_-i = 1 + v_i
    on_labeling = on_circulant or _rests_on(ident, "certificate", "the labeling-identities check")

    def self_complementary():
        v = verify_self_complementary(lab)
        return v, None if v else {"witness": {"pair": [
            point_label(INF), point_label(lab.vertices[v.at])]}}

    def automorphisms():
        v = verify_automorphisms(ctx, lab)
        at = {"vertex": point_label(lab.vertices[v.at])} if v.map == "alpha" else {"distance": v.at}
        return v, None if v else {"witness": {"map": v.map, **at}}

    checks.run("self-complementary", "exhaustive", self_complementary, on_labeling)
    checks.run("automorphisms", "exhaustive", automorphisms, on_labeling)
    # the certified circulant makes v_i -> v_(i+1) an automorphism of order q+1
    checks.run("vertex-transitive", "exhaustive", lambda: (circ, (
        {"certificate": "cyclic automorphism of order q+1"} if circ else
        {"witness": _orbit_witness(lab, circ.position)})))

    # the trace-1 parameters number q/2: all of them through k = 10, 128 drawn above
    mode = "sampled" if ctx.q // 2 > 512 else "exhaustive"

    def shift_class():
        t1 = [x for x in range(ctx.q) if ctx.trace(x) == 1]
        if mode == "sampled":
            t1 = sorted(random.Random(args.seed).sample(t1, 128))
        target = ShiftTarget(g)  # g's rows and its complement's packed once for every a'
        for ap_val in t1:
            ap = param_a(ctx, ap_val)
            carried = verify_shift_isomorphism(target, ap)
            if not carried:  # named by the image vertex y whose row differs
                b = shift_isomorphism(ctx, a, ap).b
                y = point_label(point_of_index(ctx, carried.position))
                return False, {"witness": {"a_prime": f"{ap_val:#x}", "b": f"{b:#x}", "vertex": y}}
        return True, {"mode": mode, "count": len(t1)}

    # each a' is held to G_a's rows: only certified ones, so no fault of theirs falls on an a'
    checks.run("shift-isomorphism-class", mode, shift_class,
               _rests_on(circ, "class", "the circulant check"))
    _emit(args, _report(args, ctx, a, "certify", checks))
    return EXIT_OK if checks.all_pass() else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    _graph_k(args.k, "analyze")
    ctx, a = _make_ctx_and_a(args)
    checks = _Checks()
    kloo = _stage("kloosterman-sweep", lambda: kloosterman_sweep(ctx))

    def weil():
        ok, b, worst = weil_bound_holds(ctx, kloo)
        return ok, {"mode": "exhaustive", "max_abs_K": worst,
                    "argmax_b": f"{b:#x}", "bound": f"2*sqrt({ctx.q})"}

    checks.run("kloosterman-weil", "exhaustive", weil)

    def value_set():
        ok, stray, missing = kloosterman_value_set(ctx, kloo)
        detail = {"mode": "exhaustive", "count": ctx.q - 1}
        if stray is not None:
            detail["witness"] = {"b": f"{stray:#x}", "K": kloo[stray]}
        elif missing is not None:
            detail["witness"] = {"missing": missing}
        return ok, detail

    checks.run("kloosterman-value-set", "exhaustive", value_set)

    dense = ctx.q + 1 <= MATRIX_CAP
    too_big = None if dense else f"order {ctx.q + 1} exceeds the dense cap {MATRIX_CAP}"
    lab = _stage("labeling", lambda: circulant_labeling(ctx, a))
    g = _stage("build", lambda: build_graph(ctx, a)) if dense else None
    circ = checks.run("circulant", "exhaustive", lambda: _check_circulant(g, lab), too_big)
    # above the cap the labeling walks an automorphism, so the graph is this
    # circulant by the theorem, which no check here verifies
    basis = "exhaustive" if dense else "algebraic"
    on_circulant = _rests_on(circ, "certificate", "the circulant check")
    # every codegree below is read off the connection set: only once the graph
    # is certified to be its circulant, and only when it is closed under negation
    unpaired = spec = extra = None
    if not on_circulant:
        def read_spectrum():
            d = unpaired_distance(lab.conn, lab.n)
            return d, None if d is not None else circulant_spectrum(lab.n, lab.conn)

        unpaired, spec = _stage("codegree-spectrum", read_spectrum)
    if spec is not None:
        extra = {"codegree_spectrum": [
            {"epsilon": eps, "ell": ell, "count": cnt} for (eps, ell), cnt in spec.counts.items()]}

    def codegree_cap():
        if spec is None:  # d in C, n - d not: the codegrees are no self-convolution
            return False, {"witness": {"distance": unpaired}}
        detail = {"max_ell": spec.max_ell, "bound": spec.bound,
                  "max_conference_deviation": spec.max_conference_deviation}
        if not spec.within_bound:
            detail["witness"] = {"pair": [
                point_label(INF), point_label(lab.vertices[spec.max_shift])]}
        return spec.within_bound, detail

    checks.run("codegree-cap", basis, codegree_cap, on_circulant)

    def formula_vs_direct():
        # the certified rotation carries every pair {v_i, v_j} to {v_(i-j), INF};
        # codeg(x, INF) is |row x & row INF|, counted for every x in one pass
        direct = list(map(int.bit_count, map(g.rows[0].__and__, g.rows[1:])))
        for x in range(ctx.q):
            got = codegree_formula(ctx, a, x, kloo)
            if direct[x] != got:
                return False, {"witness": {
                    "x": point_label(x), "y": point_label(INF),
                    "direct": direct[x], "formula": got}}
        return True, {"mode": "exhaustive", "count": ctx.q * (ctx.q + 1) // 2}

    checks.run("codegree-formula-vs-direct", "exhaustive", formula_vs_direct,
               too_big or _rests_on(circ, "pair reduction", "the circulant check"))

    def jumbled():
        cert = jumbledness_certificate(ctx.q, spec.counts)
        detail = {"moment": 4, "trace_A4": cert.trace_a4,
                  "lambda_bound": cert.lambda_bound, "lambda_limit": cert.lambda_limit}
        if not cert.passed:
            detail["witness"] = {"lambda_bound": cert.lambda_bound}
        return cert.passed, detail

    checks.run("jumbledness", basis, jumbled, on_circulant or _rests_on(
        unpaired is None, "certificate", "a connection set closed under negation"))

    _emit(args, _report(args, ctx, a, "analyze", checks, extra))
    return EXIT_OK if checks.all_pass() else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    _graph_k(args.k, "decompose")
    check_prime_order(check_cap(args.k))
    ctx, a = _make_ctx_and_a(args)
    g = _stage("build", lambda: build_graph(ctx, a))
    lab = _stage("labeling", lambda: circulant_labeling(ctx, a))
    # the cycles are read off C: only once the rows are certified to be its
    # circulant, and only when C = -C, so that the classes {d, p-d} are edges
    circ, detail = _stage("circulant", lambda: _check_circulant(g, lab))
    d = unpaired_distance(lab.conn, lab.n)
    if not circ or d is not None:
        check, witness = ("circulant", detail["witness"]) if not circ else (
            "unpaired_distance", {"distance": d})
        print(f"certificate failed: {check}: {json.dumps(witness)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    dec = _stage("decompose", lambda: hamiltonian_decompose(lab))
    _emit(args, write_decomposition(dec))
    print(f"[decompose] {len(dec.cycles)} Hamiltonian cycles of length {dec.p}",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# chapman


def cmd_chapman(args) -> int:
    _graph_k(args.k, "the coset comparison")
    if args.k > CHAPMAN_K_MAX:
        raise OutOfScopeError(f"the coset comparison is limited to k <= {CHAPMAN_K_MAX}")
    ctx, a = _make_ctx_and_a(args)
    h = _stage("coset-build", lambda: chapman_build(ctx, a))
    g = _stage("build", lambda: build_graph(ctx, a))
    lab = _stage("labeling", lambda: circulant_labeling(ctx, a))
    checks = _Checks()

    def no_undefined():
        detail = {"undefined_pair_count": len(h.undefined_pairs),
                  "total_pairs": h.n * (h.n - 1) // 2}
        if h.undefined_pairs:
            pairs = h.undefined_pairs[:3]
            detail["witness"] = {"pairs": [[f"{u:#x}", f"{v:#x}"] for u, v in pairs]}
        return not h.undefined_pairs, detail

    defined = checks.run("no-undefined-pairs", "exhaustive", no_undefined)

    def independent():
        rep = verify_representative_independence(h)
        detail = {"mode": "exhaustive", "count": rep.count}
        if rep.witness:
            detail["witness"] = {"exponents": list(rep.witness),
                                 "bits": [h.table[e] for e in rep.witness]}
        return rep, detail

    indep = checks.run("representative-independence", "exhaustive", independent)

    def coset_circulant():
        # the pair (i, j) reads class j - i: the graph is C_H's circulant exactly when C_H = -C_H
        d = unpaired_distance(h.conn, h.n)
        return d is None, None if d is None else {"witness": {"distance": d}}

    def isomorphic():
        circ, detail = _check_circulant(g, lab)
        d = unpaired_distance(lab.conn, lab.n)
        if not circ or d is not None:  # no graph's connection set to compare
            return False, {"witness": detail.get("witness", {"distance": d})}
        cmp_result = chapman_compare(h, lab)
        return cmp_result, {"verdict": cmp_result.verdict,
                            "multiplier": cmp_result.multiplier,
                            "spectra_match": cmp_result.spectra_match}

    # a predicate that depends on the representatives defines no coset graph
    on_classes = (_rests_on(defined, "certificate", "the no-undefined-pairs check")
                  or _rests_on(indep, "certificate", "the representative-independence check"))
    coset = checks.run("coset-graph-circulant", "exhaustive", coset_circulant, on_classes)
    checks.run("isomorphic", "exhaustive", isomorphic,
               on_classes or _rests_on(coset, "comparison", "the coset-graph-circulant check"))
    _emit(args, _report(args, ctx, a, "chapman", checks))
    return EXIT_OK if checks.all_pass() else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def _hex_int(s: str) -> int:
    return int(s, 16)


def _positive_int(s: str) -> int:
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="char2paley",
        description="Construct and certify trace-defined Paley-like graphs "
                    "on the projective line over GF(2^k).")
    ap.add_argument("--version", action="version", version=f"char2paley {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--k", type=int, required=True, metavar="K",
                       help=f"extension degree, 2..{K_MAX}")
        p.add_argument("--a", type=_hex_int, default=None, metavar="HEX",
                       help="trace-1 parameter (default: smallest full-orbit one)")
        p.add_argument("--poly", type=_hex_int, default=None, metavar="HEX",
                       help="irreducible reduction polynomial (default: built-in)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", "-o", default="-", metavar="PATH")

    p = sub.add_parser("build", help="write the graph or tournament to a file")
    common(p)
    p.add_argument("--format", choices=["edges", "dimacs", "matrix", "json"],
                   default="edges")
    p.add_argument("--tournament", action="store_true",
                   help="acknowledge directed output (required for odd k)")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("certify", help="run the structural certificate suite")
    common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("analyze", help="codegrees, Kloosterman sums, jumbledness")
    common(p)
    p.add_argument("--samples", type=_positive_int, default=100_000,
                   help="has no effect: analyze draws no samples (accepted and echoed)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("decompose", help="Hamiltonian decomposition (prime q+1)")
    common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("chapman", help="independent coset construction cross-check")
    common(p)
    p.set_defaults(fn=cmd_chapman)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OutOfScopeError as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
