"""Run one workload of the crossdock benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload unbounded --seed 1 --seconds 25 --trace 0

The run builds the workload's inputs from ``--seed``, then runs passes over
its job list until ``--seconds`` have gone by, checking every output after
each pass. With ``--trace 0`` passes run untraced and the end-to-end metrics
are printed; ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report. Full results, the machine record and,
for traced runs, the spans go to ``.perfbench_out/`` at the repository root.
See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
KINDS = ("note", "exact", "heuristic", "verify", "export")

#: (name, unit, summed job kind) of the end-to-end timings besides set-up.
TIMINGS = (
    ("pass_s", "s", None),
    ("note_s", "s", "note"),
    ("exact_s", "s", "exact"),
    ("heuristic_s", "s", "heuristic"),
    ("verify_s", "s", "verify"),
    ("export_s", "s", "export"),
)
#: End-to-end metrics on the last output line; BENCHMARK.json lists the same.
#: The other end-to-end metrics are zero on some workload, so they appear in
#: the report and the results file only.
GATED = ("setup_s", "pass_s")

#: Span names whose calls and self seconds are per-layer metrics.
FUNCTIONS = (
    "subproblem.select_transfers",
    "subproblem.candidate_pairs",
    "subproblem.induced_transfers_crossdock",
    "subproblem.optimal_transfers_rcrossdock",
    "formulations.objective_value",
    "formulations.check_solution",
    "model.compute_xhat",
    "model.event_times",
    "diagnosis.find_conflict",
    "lp_export.emit_lp",
)
#: Counts recorded by the tracer's wrappers.
TRACE_COUNTS = (
    "exact.leaf.table",
    "exact.leaf.subproblem",
    "subproblem.select_transfers.inexact",
    "subproblem.induced_transfers_crossdock.witness",
    "subproblem.optimal_transfers_rcrossdock.dock_conflict",
)
#: Self seconds also counted over the traced set-up: instances are built there.
SETUP_FUNCTIONS = ("instance_io.generate", "instance_io.parse_instance")


@dataclass
class Pass:
    traced: bool
    seconds: dict[str, float]  # job kind -> summed seconds
    call_seconds: dict[str, list[float]]  # library function -> per-call seconds
    signatures: list
    problems: list[tuple[str, list[str]]]  # (job name, problems) per failed job
    stats: Counter  # counts and objectives taken from the outputs
    gaps: list[float] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)  # traced passes only
    trace_counts: dict = field(default_factory=dict)


# ------------------------------------------------------------------ passes


def clear_caches() -> None:
    """Empty the package's memo caches so every pass starts as a fresh
    process would."""
    import crossdock

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith(crossdock.__name__):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def output_stats(job, out, stats: Counter, gaps: list[float]) -> None:
    """Counts and objectives the per-layer metrics take from job outputs."""
    results = []
    if job.kind == "exact":
        results = [(out, job.reference, job.budgeted)]
    elif job.kind == "note":
        results = [(r, None, False) for f in out[0].modes for r in (f.cross_dock, f.r_cross_dock)]
    for result, reference, budgeted in results:
        stats["bnb.nodes"] += result.nodes_explored
        if reference:
            stats["bnb.root_gap_pct"] += 100.0 * (reference - result.bound_at_root) / reference
            stats["bnb.root_gap_runs"] += 1
        if budgeted and reference:
            gap = 100.0 * (result.objective.total - reference) / reference
            stats["bnb.incumbent_gap_pct"] = max(stats["bnb.incumbent_gap_pct"], gap)
    if job.kind == "heuristic":
        stats["vns.evaluations"] += out.nodes_explored
        if job.reference:
            gaps.append(100.0 * (out.objective.total - job.reference) / job.reference)
    elif job.kind == "export":
        stats["lp.bytes"] += len(out.text)
    elif job.name.startswith("find_conflict") and out is not None:
        stats["conflict.size"] += len(out.constraints)
        stats["conflict.found"] += 1


def run_pass(workload, tracer=None) -> Pass:
    clear_caches()
    seconds: dict[str, float] = dict.fromkeys(KINDS, 0.0)
    call_seconds: dict[str, list[float]] = defaultdict(list)
    outputs = []
    clock = time.perf_counter
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for job in workload.jobs:
            start = clock()
            try:
                out = job.call()
            except Exception as exc:  # the program failed this job
                out = exc
            elapsed = clock() - start
            outputs.append(out)
            seconds[job.kind] += elapsed
            call_seconds[job.name.split()[0]].append(elapsed)
    finally:
        if tracer is not None:
            tracer.uninstall()

    record = Pass(tracer is not None, seconds, dict(call_seconds), [], [], Counter())
    if tracer is not None:
        record.layer = tracer_metrics(tracer)
        record.trace_counts = {
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
        }
    for job, out in zip(workload.jobs, outputs):
        try:
            if isinstance(out, Exception):
                raise out
            problems = job.check(out)
            record.signatures.append(job.signature(out))
            output_stats(job, out, record.stats, record.gaps)
        except Exception as exc:  # the call or its check raised: a failed job
            problems = [f"raised {type(exc).__name__}: {exc}"]
            record.signatures.append(None)
        if problems:
            record.problems.append((job.name, problems))
    return record


def tracer_metrics(tracer) -> dict[str, float]:
    """Per-layer seconds and counts of one traced pass."""
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.s"] = tracer.self_s[name]
    for name in TRACE_COUNTS:
        out[name] = tracer.counts[name]
    out["exact.tables.calls"] = tracer.calls["exact.tables"]
    out["exact.tables.s"] = tracer.self_s["exact.tables"]
    out["exact.bnb.self_s"] = tracer.self_s["exact.branch_and_bound"]
    out["exact.bnb.s"] = tracer.total_s["exact.branch_and_bound"]
    out["vns.self_s"] = sum(s for n, s in tracer.self_s.items() if n.startswith("vns."))
    out["vns.s"] = tracer.total_s["vns.vns_solve"]
    out["lp_export.s"] = tracer.total_s["lp_export.emit_lp"]
    for name in ("reproduce.reproduce_note", "reproduce.render_report", *SETUP_FUNCTIONS):
        out[f"{name}.s"] = tracer.self_s[name]
    for module, seconds in tracer.layer_self_s().items():
        out[f"layer.{module}.self_s"] = seconds
    return out


# ----------------------------------------------------------------- metrics


def summarize(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (none below twenty samples)."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n, "percentile": None, "value": None}
    top = (100 * (n - 10)) // n if n >= 20 else 0
    if top >= 50:
        out["percentile"] = top
        out["value"] = statistics.quantiles(samples, n=100, method="inclusive")[top - 1]
    return out


def describe(summary: dict, unit: str) -> str:
    text = f"median {summary['median']:.6g} {unit}, n={summary['n']}"
    if summary["percentile"] is None:
        return text + ", no percentile (fewer than 20 samples)"
    return text + f", p{summary['percentile']} {summary['value']:.6g} {unit}"


def layer_metrics(traced: list[Pass], untraced: list[Pass], setup_layer: dict) -> dict:
    """The per-layer metrics: medians over traced passes."""
    keys = traced[0].layer.keys()
    layer = {k: statistics.median(p.layer[k] for p in traced) for k in keys}
    stats = traced[0].stats
    for name in SETUP_FUNCTIONS:
        layer[f"{name}.s"] += setup_layer[f"{name}.s"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "exact.bnb.nodes": (stats["bnb.nodes"], "count"),
        "exact.bnb.nodes_per_s": (ratio(stats["bnb.nodes"], layer["exact.bnb.s"]), "1/s"),
        "exact.bnb.self_s": (layer["exact.bnb.self_s"], "s"),
        "exact.root_gap_pct": (ratio(stats["bnb.root_gap_pct"], stats["bnb.root_gap_runs"]), "%"),
        "exact.incumbent_at_budget": (stats["bnb.incumbent_gap_pct"], "%"),
        "exact.tables.calls": (layer["exact.tables.calls"], "count"),
        "exact.tables.s": (layer["exact.tables.s"], "s"),
    }
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (layer[f"{name}.calls"], "count")
        metrics[f"{name}.s"] = (layer[f"{name}.s"], "s")
    for name in TRACE_COUNTS:
        metrics[name] = (layer[name], "count")
    metrics.update(
        {
            "vns.evaluations": (stats["vns.evaluations"], "count"),
            "vns.evals_per_s": (ratio(stats["vns.evaluations"], layer["vns.s"]), "1/s"),
            "vns.self_s": (layer["vns.self_s"], "s"),
            "diagnosis.conflict_size": (ratio(stats["conflict.size"], stats["conflict.found"]), "count"),
            "lp_export.bytes": (stats["lp.bytes"], "B"),
            "lp_export.bytes_per_s": (ratio(stats["lp.bytes"], layer["lp_export.s"]), "B/s"),
        }
    )
    for name in ("reproduce.reproduce_note", "reproduce.render_report", *SETUP_FUNCTIONS):
        metrics[f"{name}.s"] = (layer[f"{name}.s"], "s")
    for key in sorted(k for k in keys if k.startswith("layer.")):
        metrics[key] = (layer[key], "s")
    traced_s = statistics.median(sum(p.seconds.values()) for p in traced)
    untraced_s = statistics.median(sum(p.seconds.values()) for p in untraced)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return metrics


def consistency_problems(passes: list[Pass], jobs) -> list[str]:
    """Every count and objective must repeat exactly in every pass."""
    problems = []
    first = passes[0]
    for number, record in enumerate(passes[1:], start=2):
        for job, a, b in zip(jobs, first.signatures, record.signatures):
            if a != b:
                problems.append(f"pass {number} ({'traced' if record.traced else 'untraced'}): {job.name} differs")
        if record.stats != first.stats:
            problems.append(f"pass {number}: output counts differ")
    traced = [p for p in passes if p.traced]
    for record in traced[1:]:
        if record.trace_counts != traced[0].trace_counts:
            problems.append("traced passes record different call counts")
    return problems


# ----------------------------------------------------------------- machine


def read_text(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_record() -> dict:
    import numpy

    cpuinfo = read_text("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def loadavg() -> str | None:
    text = read_text("/proc/loadavg")
    return text.strip() if text else None


# -------------------------------------------------------------------- main


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds of fresh interpreters that import crossdock and build
    the workload's inputs and references."""
    samples = []
    command = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
    return samples


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one crossdock benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import crossdock
    except ImportError as exc:
        print(f"error: cannot import crossdock from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(crossdock.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: crossdock was imported from {crossdock.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import spans as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0

    machine = machine_record()
    machine["loadavg_start"] = loadavg()
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
        if tracer is not None:
            tracer.install()
        try:
            workload = workloads.build(args.workload, args.seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setup_layer = tracer_metrics(tracer) if tracer is not None else {}

    passes: list[Pass] = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < (2 if args.trace else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(workload, tracer if traced else None))
    machine["loadavg_end"] = loadavg()

    untraced = [p for p in passes if not p.traced]
    attempted = len(passes) * len(workload.jobs)
    failures = [(name, problems) for p in passes for name, problems in p.problems]
    inconsistent = consistency_problems(passes, workload.jobs)
    failed = len(failures)

    timings = {}
    for name, unit, kind in TIMINGS:
        samples = [sum(p.seconds.values()) if kind is None else p.seconds[kind] for p in untraced]
        timings[name] = (summarize(samples), unit)
    if setup_samples:
        timings["setup_s"] = (summarize(setup_samples), "s")
    per_call = {
        fn: summarize([s for p in untraced for s in p.call_seconds[fn]])
        for fn in untraced[0].call_seconds
    }
    gaps = untraced[0].gaps
    quality = {
        "failed_frac": (failed / attempted, "fraction"),
        "heuristic_gap_pct": (statistics.fmean(gaps) if gaps else 0.0, "%"),
    }

    if args.trace:
        metrics = layer_metrics([p for p in passes if p.traced], untraced, setup_layer)
    else:
        metrics = {name: (timings[name][0]["median"], timings[name][1]) for name in GATED}

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes "
          f"({len(untraced)} untraced) of {len(workload.jobs)} jobs in {args.seconds:g} s")
    print("machine: " + json.dumps(machine))
    for name, (summary, unit) in timings.items():
        print(f"{name}: {describe(summary, unit)}")
    for name, (value, unit) in quality.items():
        print(f"{name}: {value:.6g} {unit}")
    for fn, summary in per_call.items():
        print(f"per call {fn}: {describe(summary, 's')}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value:.6g} {unit}")
    for name, problems in failures[:20]:
        print(f"FAILED {name}: {'; '.join(problems)}")
    for problem in inconsistent[:20]:
        print(f"INCONSISTENT {problem}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(
            {
                "args": vars(args),
                "machine": machine,
                "passes": len(passes),
                "jobs": len(workload.jobs),
                "timings": {k: {**s, "unit": u} for k, (s, u) in timings.items()},
                "per_call": per_call,
                "quality": {k: {"value": v, "unit": u} for k, (v, u) in quality.items()},
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "failures": failures[:100],
                "inconsistent": inconsistent[:100],
            },
            indent=2,
        )
    )
    if tracer is not None:
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")

    result = {
        "correct": not failures and not inconsistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
