#!/usr/bin/env python3
"""Benchmark of the char2paley CLI, run the way users run it.

    python3 perfbench/run.py --workload certify_export --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client in a closed loop: each invocation is a fresh
`python -m char2paley.cli ...` child, started only after the previous one
has exited, with its report written to a temporary file.  A pass is the
workload's invocations in order (see workloads.py).  After one pass,
invocations repeat in pass order while the next one still fits in
`--seconds`.  Before the first invocation and after every one, a child
runs the fixed kernel of reference.py for about a tenth of the
invocation's time, and set-up probes run for about a twentieth; each
probe times a fresh interpreter readying the package, then one kernel
repetition.  wall_s and cpu_s, the sum of each invocation's mean time,
are scaled to nominal seconds by the kernel time around the
invocations, and setup_s, the median probe, each probe by its own
kernel time; this cancels the host's speed drift.  The table also
prints the measured seconds.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates whole untraced passes with traced ones, in which a
single child runs every invocation through cli.main with tracer.py's
wrappers installed, and prints the per-layer metrics.

An invocation fails on a nonzero exit, a failed output check (checks.py)
or an output that differs from an earlier one of the same invocation in
this run, traced or not.  The last stdout line is the JSON result; the
lines before it are a table of every metric with its unit.  Temporary
files go under .perfbench/tmp and a record of each run, with its
provenance and spans, under .perfbench/results, both in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer
from workloads import END_TO_END, LAYER_TARGETS, WORKLOADS, Workload, unit

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
# Times are reported in nominal seconds: seconds on a host at the speed
# at which one repetition of the reference kernel takes KERNEL_NOMINAL_S
# (about the 2-vCPU VM of the baseline).  Changing it, or the kernel,
# makes results before and after incomparable.
KERNEL_NOMINAL_S = 0.12
# After each invocation, the reference kernel and set-up probes run for
# about these shares of its time, so they sample the host where the
# time is measured.  A probe takes about SETUP_PROBE_S.
REFERENCE_SHARE = 0.1
SETUP_SHARE = 0.05
SETUP_PROBE_S = 0.25
SETUP_REPEATS = 21  # probes at least; any short of it run at the end
CHILD_TIMEOUT_S = 170

# A set-up probe: a fresh interpreter readies GF(2^k), then times one
# repetition of the reference kernel, so that each set-up time has a
# yardstick measured within a tenth of a second of it.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import char2paley.cli
from char2paley.construct import param_a
from char2paley.gf2k import FieldCtx
ctx = FieldCtx({k})
param_a(ctx)
ctx.inv(1)
elapsed = time.perf_counter() - t0
sys.path.insert(0, {bench!r})
import reference
print(elapsed, *reference.timed(reference.inputs()), char2paley.__file__)
"""


class BenchError(Exception):
    """This checkout cannot be measured."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("CHAR2_PALEY_THREADS", None)
    return env


def _inside_root(path: str) -> bool:
    return Path(path).resolve().is_relative_to(ROOT)


def spawn(args, env, log) -> tuple[int, float, float, int]:
    """Run one Python child to its end: (exit code, wall s, user+system CPU s, max RSS KiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def setup_probe(k: int, env) -> tuple[tuple[float, float, float], str]:
    """((set-up s, kernel wall s, kernel CPU s), package file) of one probe.

    The set-up is a fresh interpreter importing the CLI and readying GF(2^k).
    """
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE.format(k=k, bench=str(BENCH_DIR))],
                          cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{done.stderr.strip()}")
    *times, package_file = done.stdout.split(maxsplit=3)
    return tuple(map(float, times)), package_file.strip()


def reference_times(repeats: int, env) -> list[tuple[float, float]]:
    """(wall s, CPU s) of each of `repeats` reference-kernel repetitions in one fresh child."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import reference\n"
            f"work = reference.inputs()\n"
            f"for _ in range({repeats}): print(*reference.timed(work))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"reference kernel failed:\n{done.stderr.strip()}")
    return [(float(wall), float(cpu)) for wall, cpu in map(str.split, done.stdout.splitlines())]


def provenance(seed: int, package_file: str) -> dict:
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        commit = done.stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    uname = platform.uname()
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "machine": f"{uname.system} {uname.release} {uname.machine}",
            "seed": seed, "package_file": package_file}


def preflight(seed: int, env) -> dict:
    """Refuse a checkout whose sources are missing or not the ones imported."""
    if not (SRC / "char2paley" / "cli.py").is_file():
        raise BenchError(f"no char2paley sources under {SRC}")
    _, package_file = setup_probe(2, env)  # also fills the bytecode caches before timing
    if not _inside_root(package_file):
        raise BenchError(f"char2paley imports from {package_file}, outside {ROOT}")
    return provenance(seed, package_file)


class Runner:
    """One run of one workload: its children, their outputs and its failures."""

    def __init__(self, workload: Workload, seed: int, tmp: Path, env):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self._digests: dict[int, str] = {}
        self._log = tmp / "children.log"

    def _argvs(self, tag: str) -> list[list[str]]:
        return [[*inv, "--seed", str(self.seed), "-o", str(self.tmp / f"{tag}-{i}.out")]
                for i, inv in enumerate(self.workload.invocations)]

    def run_one(self, i: int, tag: str) -> dict:
        """Run invocation i once as a fresh child, then check its output untimed."""
        argv = self._argvs(tag)[i]
        with open(self._log, "ab") as log:
            code, wall, cpu, rss_kib = spawn(["-m", "char2paley.cli", *argv], self.env, log)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_kib / 1024,
                **self._verify_one(i, argv, code)}

    def untraced_pass(self, tag: str) -> dict:
        runs = [self.run_one(i, tag) for i in range(len(self.workload.invocations))]
        return {key: (max if key == "peak_rss_mb" else sum)(r[key] for r in runs)
                for key in runs[0]}

    def traced_pass(self, tag: str) -> dict:
        spans_path = self.tmp / f"{tag}.spans.json"
        argvs = self._argvs(tag)
        with open(self._log, "ab") as log:
            code, _, _, _ = spawn([str(BENCH_DIR / "tracer.py"), str(spans_path),
                                   json.dumps(argvs)], self.env, log)
        if code != 0:
            doc = {"exits": [code] * len(argvs), "spans": []}
        else:
            doc = json.loads(spans_path.read_text())
            if not _inside_root(doc["package_file"]):
                raise BenchError(f"traced run imported {doc['package_file']}, outside {ROOT}")
        spans = doc["spans"]
        stats = self._verify(tag, doc["exits"])
        problem = tracer.attribution_error(spans)
        if problem:
            self.failures.append(f"[{tag}] span attribution: {problem}")
        wall = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
        return {"totals": tracer.layer_totals(spans), "trace.wall_s": wall,
                "spans": spans, **stats}

    def _verify(self, tag: str, exits) -> dict:
        """Check each output of a pass; the summed counts of the valid ones."""
        stats = [self._verify_one(i, argv, code)
                 for i, (argv, code) in enumerate(zip(self._argvs(tag), exits))]
        return {key: sum(st[key] for st in stats) for key in stats[0]}

    def _verify_one(self, i: int, argv, code) -> dict:
        """Check one output, count a failure if it is wrong, and drop the file."""
        self.attempted += 1
        path = Path(argv[-1])
        stats = {"exhaustive_checks": 0, "checks": 0, "out_bytes": 0}
        problem = None
        if code != 0:
            problem = f"exit {code}"
        elif not path.is_file():
            problem = "no output file"
        else:
            data = path.read_bytes()
            problem = checks.check_output(argv, data)
            digest = hashlib.sha256(data).hexdigest()
            if problem is None and self._digests.setdefault(i, digest) != digest:
                problem = "output differs from an earlier run of this invocation"
            if problem is None:
                stats["exhaustive_checks"], stats["checks"] = checks.evidence_counts(argv, data)
                stats["out_bytes"] = len(data)
        if problem:
            self.failures.append(f"[{path.name}] {' '.join(argv[:-2])}: {problem}")
        path.unlink(missing_ok=True)
        return stats


def _repeat(run_once, seconds: float) -> list:
    """run_once(i) for i = 0, 1, ... while another call still fits in `seconds`; at least once."""
    results = []
    t0 = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - t0 + last <= seconds:
        start = time.perf_counter()
        results.append(run_once(len(results)))
        last = time.perf_counter() - start
    return results


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[str], dict]:
    def probe(count):
        return [setup_probe(runner.workload.setup_k, runner.env)[0] for _ in range(count)]

    n = len(runner.workload.invocations)
    runs: list[list[dict]] = [[] for _ in range(n)]
    # bursts[j] of reference-kernel repetitions ran just before invocation
    # j of the run, so bursts j and j + 1 bracket it
    bursts = [reference_times(3, runner.env)]
    probes = []
    # After one full pass, invocations repeat in pass order while the next
    # one still fits in `seconds`, and a pass is then the sum of
    # per-invocation means: the whole window counts whatever the pass length.
    t0 = time.perf_counter()
    i = 0
    while i < n or time.perf_counter() - t0 + runs[i % n][-1]["wall_s"] <= seconds:
        runs[i % n].append(runner.run_one(i % n, f"r{i}"))
        wall = runs[i % n][-1]["wall_s"]
        bursts.append(reference_times(max(1, round(REFERENCE_SHARE * wall / KERNEL_NOMINAL_S)),
                                      runner.env))
        probes += probe(max(1, round(SETUP_SHARE * wall / SETUP_PROBE_S)))
        i += 1
    probes += probe(SETUP_REPEATS - len(probes))
    # Times are means, not medians: the CPU speed can flip between two
    # states ~1.5x apart every few seconds, and a median of a few runs
    # flips with it while the mean averages the states over the window.
    # The share of time in the slow state drifts over minutes, so whole
    # runs read fast or slow; scaling by the kernel time measured beside
    # each time cancels that.  A pass time scales by the kernel bursts
    # around its invocations, a set-up time by its own probe's repetition.
    raw = {name: sum(statistics.fmean(r[name] for r in inv) for inv in runs)
           for name in ("wall_s", "cpu_s")}
    order = [runs[j % n][j // n] for j in range(i)]
    kernel = {"wall_s": _bracketed_mean(order, bursts, 0, "wall_s"),
              "cpu_s": _bracketed_mean(order, bursts, 1, "cpu_s")}
    metrics = {name: raw[name] * KERNEL_NOMINAL_S / kernel[name] for name in raw}
    metrics["setup_s"] = KERNEL_NOMINAL_S * statistics.median(s / kw for s, kw, _ in probes)
    raw["setup_s"] = statistics.median(s for s, _, _ in probes)
    kernel["setup_s"] = statistics.median(kw for _, kw, _ in probes)
    metrics["peak_rss_mb"] = max(statistics.median(r["peak_rss_mb"] for r in inv) for inv in runs)
    checked = sum(inv[0]["checks"] for inv in runs)
    metrics["exhaustive_frac"] = (
        sum(inv[0]["exhaustive_checks"] for inv in runs) / checked if checked else 0.0)
    fails = len(runner.failures)
    table = [f"{name:<16}{metrics[name]:12.4f} {unit(name)}" for name, *_ in END_TO_END]
    table.append(f"{'fail_frac':<16}{fails / runner.attempted:12.4f} 1"
                 f"  ({fails}/{runner.attempted} invocations; ungated)")
    table.append("measured (ungated): " + ", ".join(
        f"{name}={raw[name]:.4f} s against kernel {kernel[name]:.4f} s" for name in raw))
    table.append(f"runs per invocation={[len(inv) for inv in runs]} probes={len(probes)}")
    return metrics, table, {"reference": bursts, "probes": probes, "invocations": runs}


def _bracketed_mean(order: list[dict], bursts: list, column: int, key: str) -> float:
    """Kernel time around the invocations, weighted by their time.

    Invocation j ran between bursts j and j + 1 of kernel repetitions;
    the mean of those two bursts (column 0 wall, 1 CPU) counts with
    weight order[j][key].
    """
    means = [statistics.fmean(times[column] for times in burst) for burst in bursts]
    weights = [done[key] for done in order]
    return sum(w * (means[j] + means[j + 1]) / 2 for j, w in enumerate(weights)) / sum(weights)


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, list[str], dict]:
    def pair(i):
        untraced = runner.untraced_pass(f"u{i}")
        traced = runner.traced_pass(f"t{i}")
        return _layer_values(traced, untraced["wall_s"]), traced["spans"]

    pairs = _repeat(pair, seconds)
    passes = [values for values, _ in pairs]
    metrics = {name: statistics.median(p[name] for p in passes) for name in LAYER_TARGETS}
    table = [f"{name:<52}{metrics[name]:14.6g} {unit(name)}" for name in LAYER_TARGETS]
    table.append(f"traced passes={len(pairs)}; largest self times per invocation, last pass:")
    spans = pairs[-1][1]
    for i, argv in enumerate(runner.workload.invocations):
        top = sorted(tracer.layer_totals(spans, i).items(), key=lambda kv: -kv[1][0])[:3]
        wall = sum(end - start for _, start, end, parent, inv in spans if parent < 0 and inv == i)
        table.append(f"  {' '.join(argv)}: {wall:.3f} s; "
                     + ", ".join(f"{name} {s:.3f} s ({c} calls)" for name, (s, c) in top))
    return metrics, table, {"passes": passes, "spans": [spans for _, spans in pairs]}


def _layer_values(traced: dict, untraced_wall: float) -> dict:
    totals = traced["totals"]
    values = {
        "formats.out_bytes": traced["out_bytes"],
        "trace.wall_s": traced["trace.wall_s"],
        "trace.overhead_frac": traced["trace.wall_s"] / untraced_wall - 1,
    }
    for name in LAYER_TARGETS:
        if name not in values:
            layer, _, kind = name.rpartition(".")
            self_s, calls = totals.get(layer, (0.0, 0))
            values[name] = self_s if kind == "self_s" else calls
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, env) -> dict:
    info = preflight(seed, env)
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR / "tmp"))
    try:
        runner = Runner(WORKLOADS[name], seed, tmp, env)
        measure = measure_layers if trace else measure_end_to_end
        metrics, table, raw = measure(runner, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for failure in runner.failures:
        print(f"FAILED {name} {failure}", file=sys.stderr)
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    record = {"workload": name, "trace": int(trace), "seconds": seconds,
              "provenance": info, "result": result, "failures": runner.failures, **raw}
    results = WORK_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json").write_text(
        json.dumps(record))
    print(f"provenance {json.dumps(info)}")
    print(f"== {name} (seed {seed}, trace {int(trace)})")
    for line in table:
        print(f"  {line}")
    return {**result, "metrics": {n: {"value": v, "unit": unit(n)} for n, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through `finally`, which kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = _child_env()
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), env)
                   for n in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{m}": v for n, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
