"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload crawl --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload durable --steadiness 5

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
per-layer spans and prints the per-layer metrics instead.
``--steadiness K`` runs the workload K times, each in a fresh process
with seeds ``seed .. seed+K-1``, and prints each end-to-end metric's
median, quartiles and relative spread next to its bound.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Every REPRO_* variable selects a program mode (score backend, fetch
# mode, prefetch, shards, planner); the benchmark runs the defaults.
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="K",
                        help="run the workload K times in fresh processes and report spreads")
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_info() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def layer_metrics(tracer, io: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json from the tracer and I/O counters."""
    self_s, busy_s, counts = tracer.self_s, tracer.busy_s, tracer.counts
    values = {name: self_s.get(name, 0.0) for name in SELF_TIME_METRICS}
    values.update({
        "frontier.urls_out": counts.get("frontier.urls_out", 0),
        "fetch.attempts": counts.get("fetch.attempts", 0),
        "fetch.not_ok": counts.get("fetch.not_ok", 0),
        "classify.docs": counts.get("classify.docs", 0),
        "engine.round_p50_ms": tracer.median_ms("engine.self_s"),
        "engine.rounds": counts.get("engine.rounds", 0),
        "minidb.insert_rows": counts.get("minidb.insert_rows", 0),
        "minidb.update_rows": counts.get("minidb.update_rows", 0),
        "minidb.wal_bytes": io.get("wal_bytes_written", 0),
        "minidb.wal_fsyncs": io.get("wal_fsyncs", 0),
        "minidb.pages_flushed": io.get("pages_flushed", 0),
        "minidb.physical_reads": io.get("physical_reads", 0),
        "minidb.evictions": io.get("evictions", 0),
        "minidb.buffer_hit_ratio": (
            1.0 - io["physical_reads"] / io["logical_reads"] if io.get("logical_reads") else 1.0
        ),
        "query.count": counts.get("query.count", 0),
        "query.rows_returned": counts.get("query.rows_returned", 0),
        "query.reads_per_row": (
            counts.get("query.logical_reads", 0) / counts["query.rows_returned"]
            if counts.get("query.rows_returned") else 0.0
        ),
        # The distiller's whole busy time: HITS with its LINK refresh,
        # plus the score store (both inclusive of the writes they drive).
        "distill.busy_s": busy_s.get("distill.self_s", 0.0) + busy_s.get("distill.store_s", 0.0),
        "distill.runs": counts.get("distill.runs", 0),
        "checkpoint.saves": counts.get("checkpoint.saves", 0),
        "checkpoint.bytes_reclaimed": io.get("bytes_reclaimed", 0),
        "service.sweeps": counts.get("service.sweeps", 0),
        "trace.residual_s": tracer.residual_s(),
    })
    return values


#: Span self times: with ``trace.residual_s`` they add up to the traced window.
SELF_TIME_METRICS = (
    "system.train_s", "system.start_s", "system.install_model_s", "system.resume_s",
    "frontier.checkout_s", "frontier.enqueue_s", "frontier.visit_s", "frontier.flush_s",
    "frontier.boost_s", "fetch.busy_s", "classify.compile_s", "classify.busy_s",
    "engine.self_s", "minidb.insert_s", "minidb.update_s", "minidb.interval_s",
    "minidb.wal_append_s", "minidb.wal_sync_s", "query.busy_s", "distill.refresh_s",
    "distill.store_s", "distill.self_s", "checkpoint.save_s", "checkpoint.compact_s",
    "service.submit_s", "service.sweep_self_s",
)

#: Per-layer metrics a workload computes from its own rounds, as it does
#: its end-to-end metrics: the checkpoint and storage figures of
#: ``durable`` and the job figures of ``service``.
WORKLOAD_LAYER_METRICS = (
    "resume_s", "checkpoint_pause_p50_ms", "wal_bytes_per_page", "disk_bytes_per_page",
    "jobs_per_sec", "job_latency_p50_s", "job_latency_p75_s",
)


def run_workload(args: argparse.Namespace, spec: dict) -> dict:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"no program source under {SRC}: run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro
    import tracing
    import workloads

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    print("run-info " + json.dumps(dict(run_info(), workload=args.workload, seed=args.seed,
                                        seconds=seconds, trace=args.trace)), flush=True)

    tracer = tracing.Tracer()
    web = workloads.build_web(args.seed)
    workdir = tempfile.mkdtemp(prefix="run-", dir=_work_root())
    try:
        workload = workloads.WORKLOADS[args.workload](web, tracer, workdir)
        # The generated web lives for the whole run; keep the collector
        # from re-traversing it, so no metric pays for the generator.
        gc.collect()
        gc.freeze()
        if args.trace:
            tracing.install_layer_spans(tracer)
        try:
            rounds = workloads.run_rounds(workload, seconds, traced=bool(args.trace))
        finally:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.finish(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    reported = workload.metrics(rounds)
    reported["peak_rss_mb"] = peak_rss_mb
    for index, figures in enumerate(rounds):
        print(f"round {index}: " + " ".join(
            f"{key}={value:.6g}" for key, value in figures.items() if isinstance(value, float)
        ), file=sys.stderr)
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        values = layer_metrics(tracer, workload.io)
        covered = sum(values[name] for name in SELF_TIME_METRICS) + values["trace.residual_s"]
        print(f"traced window {tracer.window_s:.6f} s, self times + residual {covered:.6f} s, "
              f"traced pages_per_sec {reported['pages_per_sec']:.1f}", file=sys.stderr)
        if abs(covered - tracer.window_s) > 1e-6 * max(1.0, tracer.window_s):
            raise SystemExit("per-layer self times do not add up to the traced window")
        # A layer this workload does not exercise reads 0 (see README.md).
        values.update({name: reported.get(name, 0.0) for name in WORKLOAD_LAYER_METRICS})
        wanted = spec["per_layer"]
    else:
        values = reported
        wanted = spec["end_to_end"]
    return {
        "correct": not workload.problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": workload.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def _work_root() -> str:
    path = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(path, exist_ok=True)
    return path


def steadiness(args: argparse.Namespace, spec: dict) -> None:
    """Run the workload K times in fresh processes and print spreads beside bounds."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    results = []
    for offset in range(args.steadiness):
        command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(args.seed + offset), "--trace", "0"]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"run with seed {args.seed + offset} exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {args.seed + offset}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} " +
              " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        mid = statistics.median(values)
        spread = (q3 - q1) / mid if mid else float("inf")
        verdict = "" if name == "setup_s" else ("ok" if spread <= bounds[name] / 3 else "WIDE")
        print(f"{name:26s} {mid:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{bounds[name]:6.2f} {verdict}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")


def main(argv=None) -> None:
    args = parse_args(argv)
    spec = load_spec()
    if args.steadiness:
        steadiness(args, spec)
        return
    result = run_workload(args, spec)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
