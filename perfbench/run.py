"""Cross-commit benchmark of the reconstruction system: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs half the budget untraced and half with span wrappers
installed, and reports per-layer self times, computed FLOP rates next to a
numpy matmul probe, and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Every run is also appended, with its seed, code version and
machine fingerprint, to ``.perfbench_out/results.jsonl``.

Exit status: 0 when every operation succeeded and every output check
passed; 1 when a check or an operation failed or the run's deadline
tripped (the result line is still printed); 2 when the program's source is
missing (no result line).
"""

from __future__ import annotations

import argparse
import faulthandler
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-up repeats per run; ``setup_s`` is the median over them.
SETUP_REPEATS = 5
#: The yardstick's time on the reference machine.  ``setup_s`` is set-up
#: time at that speed: set-up seconds over the run's yardstick time, times
#: this constant.
YARD_REF_S = 0.25
#: Seconds of untimed operations between set-up and measurement.
WARMUP_S = 2.0
#: Wall-clock deadline of one run (set-up, measurement and checks).
DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_yard": "yard",
    "work_per_yard": "1/yard",
    "snr_db": "dB",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "pipeline.campaign.self_s": "s/op",
    "datasets.field.s": "s/op",
    "sampling.sample.s": "s/op",
    "sampling.sample.calls": "count/op",
    "geometry_cache.hit_rate": "frac",
    "reconstructor.fine_tune_batch.s": "s/op",
    "nn.batched.fit.s": "s/op",
    "nn.batched.fit.gflops": "GFLOP/s",
    "probe.batched_fit.gflops": "GFLOP/s",
    "sink.publish.s": "s/op",
    "sink.reconstruct.s": "s/op",
    "reconstructor.reconstruct.s": "s/op",
    "reconstructor.predict.s": "s/op",
    "features.kd_build.s": "s/op",
    "features.kd_query.s": "s/op",
    "features.tie_break.s": "s/op",
    "features.assemble.s": "s/op",
    "nn.forward.s": "s/op",
    "nn.forward.gflops": "GFLOP/s",
    "probe.forward.gflops": "GFLOP/s",
    "serve.submit.s": "s/op",
    "registry.hot.s": "s/op",
    "registry.hot_hit_rate": "frac",
    "serve.engine.evaluate.s": "s/op",
    "nn.batched.forward.s": "s/op",
    "nn.batched.forward.gflops": "GFLOP/s",
    "serve.engine.members": "count",
    "serve.evals": "count",
    "serve.coalesced": "count",
    "serve.mean_stack_k": "count",
    "serve.batch_occupancy": "count",
    "serve.cache.hit_rate": "frac",
    "serve.r200.p50_ms": "ms",
    "serve.r200.p90_ms": "ms",
    "serve.gen_late_ms": "ms",
    "op.p50_ms": "ms",
    "op.p90_ms": "ms",
    "work_per_s": "1/s",
    "yardstick.s": "s",
    "ops_failed_frac": "frac",
    "trace.overhead_frac": "frac",
    "rss.ops_growth_mb": "MB",
    "setup.raw_s": "s",
}


def _rss_mb() -> float:
    """The process's resident memory now, from /proc/self/statm."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except OSError:
        return float("nan")
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else float("nan")


# --------------------------------------------------------------------------
# provenance


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the loaded library."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_fingerprint() -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    fingerprint = {
        "cpu_model": cpu,
        "effective_cores": cores,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    fingerprint["id"] = hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode()
    ).hexdigest()[:12]
    return fingerprint


# --------------------------------------------------------------------------
# one run


class RunState:
    """Everything the deadline watchdog needs to report a stuck run."""

    def __init__(self) -> None:
        self.workload = None
        self.progress = None
        self.checks: dict = {}
        self.metrics: dict = {}
        self.setup_times: list[float] = []
        self.error: str | None = None
        self.samples = 0
        self.breakdown: list[str] = []
        self.tracer = None
        self.raw: dict = {}
        self.done = threading.Event()


def execute(name: str, seed: int, seconds: float, trace: bool, size: str,
            workdir: Path, state: RunState) -> None:
    """Set up, measure and check one workload, filling ``state``."""
    import tracing
    import workloads

    # Import the program before timing set-up: a user's set-up never pays
    # for the benchmark's first import of the package.
    import repro.core.pipeline  # noqa: F401
    import repro.serve  # noqa: F401

    state.progress = workloads.Progress()
    wl = workloads.WORKLOADS[name](seed, workloads.SIZES[size][name], workdir, state.progress)
    state.workload = wl
    wl.yardstick.measure()  # the first call pays first-touch costs
    wl.yardstick.samples.clear()
    for i in range(SETUP_REPEATS):
        if i:
            wl.close()
        t0 = time.perf_counter()
        wl.setup()
        state.setup_times.append(time.perf_counter() - t0)
        wl.yardstick.measure()

    # Untimed warm-up: lazy imports, allocator growth and first-touch costs
    # land here instead of in the first timed operations.
    wl.ops(WARMUP_S, min_ops=1)
    if not trace:
        ops = wl.ops(seconds)
        state.metrics = {
            "setup_s": scaled_setup(state.setup_times, wl.yardstick.samples),
            "op_p50_yard": statistics.median(
                lat / yard for lat, yard in zip(ops.latencies, ops.yards)
            ),
            "work_per_yard": statistics.median(
                rate * yard for rate, yard in zip(ops.rates, ops.rate_yards)
            ),
            # Taken before snr_db(), which may build the check's references.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        state.metrics["snr_db"] = wl.snr_db()
        state.raw = raw_metrics(ops)
        state.samples = len(ops.latencies)
    else:
        rss0 = _rss_mb()
        base = wl.ops(seconds / 2)
        rss_growth = _rss_mb() - rss0
        tracer = tracing.Tracer()
        wl.tag_request = lambda index: setattr(tracer.request, "id", index)
        uninstall = tracing.install(tracer)
        t0, yard0 = time.perf_counter(), wl.yardstick.total
        try:
            traced = wl.ops(seconds / 2)
        finally:
            uninstall()
        state.tracer = tracer
        busy = time.perf_counter() - t0 - (wl.yardstick.total - yard0)
        state.breakdown = breakdown(tracer, busy)
        state.metrics = layer_metrics(tracer, traced, base)
        state.metrics["rss.ops_growth_mb"] = rss_growth
        state.metrics["setup.raw_s"] = statistics.median(state.setup_times)
        state.samples = len(traced.latencies)
    state.checks = wl.verify()


def scaled_setup(setup_times, yards) -> float:
    """Median set-up time at the reference machine speed, in seconds.

    Raw set-up seconds follow the shared machine's speed, which drifts by a
    third over minutes.  The run's machine speed is the median of every
    yardstick measurement it made: one after each set-up and the ones
    around its timed operations.
    """
    return YARD_REF_S * statistics.median(setup_times) / statistics.median(yards)


def layer_metrics(tracer, traced, base) -> dict:
    """Per-layer metrics of the traced half, normalised per operation."""
    import tracing

    ops = max(1, len(traced.latencies))
    if "requests" in traced.extra:
        ops = max(1, traced.extra["requests"])
    selfs = tracer.self_times()
    totals = tracer.total_times()
    m = {}

    def per_op(span: str) -> float:
        return selfs.get(span, 0.0) / ops

    m["pipeline.campaign.self_s"] = per_op("pipeline.campaign")
    for name in PER_LAYER:
        if name.endswith(".s"):
            m[name] = per_op(name[:-2])
    m["sampling.sample.calls"] = tracer.calls.get("sampling.sample", 0) / ops
    m["geometry_cache.hit_rate"] = traced.extra.get("geometry_cache.hit_rate", 0.0)

    def gflops(key: str) -> float:
        seconds = totals.get(key, 0.0)
        return tracer.flops.get(key, 0.0) / seconds / 1e9 if seconds > 0 else 0.0

    def probe(key: str) -> float:
        seconds = tracing.matmul_probe(tracer.shapes.get(key, {}))
        return tracer.flops.get(key, 0.0) / seconds / 1e9 if seconds > 0 else 0.0

    m["nn.batched.fit.gflops"] = gflops("nn.batched.fit")
    m["probe.batched_fit.gflops"] = probe("nn.batched.fit")
    m["nn.forward.gflops"] = gflops("nn.forward")
    m["probe.forward.gflops"] = probe("nn.forward")
    m["nn.batched.forward.gflops"] = gflops("nn.batched.forward")

    stats = traced.extra.get("stats_high")
    if stats:
        looked = stats["hits"] + stats["misses"]
        reg_looked = stats["hot_hits"] + stats["hot_misses"]
        m["serve.engine.members"] = stats["eval_members"]
        m["serve.evals"] = stats["evals"]
        m["serve.coalesced"] = stats["coalesced"]
        m["serve.mean_stack_k"] = stats["eval_members"] / stats["evals"] if stats["evals"] else 0.0
        m["serve.batch_occupancy"] = (
            stats["batch_requests"] / stats["batches"] if stats["batches"] else 0.0
        )
        m["serve.cache.hit_rate"] = stats["hits"] / looked if looked else 0.0
        m["registry.hot_hit_rate"] = stats["hot_hits"] / reg_looked if reg_looked else 0.0
        m["serve.r200.p50_ms"] = _percentile(traced.extra["high_latencies"], 50) * 1e3
        m["serve.r200.p90_ms"] = _percentile(traced.extra["high_latencies"], 90) * 1e3
        m["serve.gen_late_ms"] = _percentile(traced.extra["late"], 99) * 1e3
    for name in PER_LAYER:
        m.setdefault(name, 0.0)
    # Seconds as measured, from the untraced half.  On a shared machine
    # they spread too widely run to run to be gated (the tail most of all).
    m.update(raw_metrics(base))
    untraced = _percentile(base.latencies, 50)
    m["trace.overhead_frac"] = _percentile(traced.latencies, 50) / untraced - 1.0
    return m


def raw_metrics(ops) -> dict:
    """Operation time and throughput in seconds as measured, with the yardstick."""
    return {
        "op.p50_ms": _percentile(ops.latencies, 50) * 1e3,
        "op.p90_ms": _percentile(ops.latencies, 90) * 1e3,
        "work_per_s": statistics.median(ops.rates),
        "yardstick.s": statistics.median(ops.yards),
    }


def dump_stacks(path: Path) -> str:
    """All thread stacks, written with faulthandler to ``path`` and returned."""
    with open(path, "w") as fh:
        faulthandler.dump_traceback(file=fh, all_threads=True)
    return path.read_text()


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        deadline: float = DEADLINE_S, out_dir: Path = OUT) -> dict:
    """One benchmark run under a wall-clock deadline; returns the run record.

    The workload runs on a daemon thread.  If it has not finished when the
    deadline trips, every thread's stack is dumped with faulthandler into
    the record, the operations still outstanding count as failed, and the
    workload's resources are released on a helper thread with a bounded
    wait, so a hang becomes a failed result instead of a stuck process.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}-{workload}-{seed}"
    workdir.mkdir(exist_ok=True)
    state = RunState()

    def target() -> None:
        try:
            execute(workload, seed, seconds, trace, size, workdir, state)
        except Exception as exc:  # reported as a failed run, traceback on stderr
            import traceback

            traceback.print_exc()
            state.error = f"{type(exc).__name__}: {exc}"
        finally:
            state.done.set()

    worker = threading.Thread(target=target, name="perfbench-workload", daemon=True)
    worker.start()
    timed_out = not state.done.wait(deadline)

    spans_file = None
    if state.tracer is not None and not timed_out:
        spans_file = out_dir / f"spans-{workload}-s{seed}.jsonl"
        state.tracer.write(spans_file)
    stacks = None
    if timed_out:
        stacks = dump_stacks(out_dir / f"stacks-{workload}-s{seed}-t{int(trace)}.txt")
    if state.workload is not None:
        closer = threading.Thread(target=state.workload.close, daemon=True)
        closer.start()
        closer.join(10.0)
    shutil.rmtree(workdir, ignore_errors=True)

    progress = state.progress
    attempted = progress.attempted if progress else 0
    failed = progress.failed if progress else 0
    if timed_out and progress is not None:
        failed += progress.outstanding
    failed_checks = [name for name, (ok, _) in state.checks.items() if not ok]
    attempted += len(state.checks)
    failed += len(failed_checks)
    if state.error is not None:
        attempted += 1
        failed += 1
    attempted = max(attempted, 1)
    correct = not timed_out and state.error is None and failed == 0

    units = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = failed / attempted if name == "ops_failed_frac" else state.metrics.get(name)
        if value is not None and math.isfinite(value):
            metrics[name] = {"value": float(value), "unit": unit}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "machine": machine_fingerprint(),
        "setup_times_s": state.setup_times,
        "yardstick_samples_s": state.workload.yardstick.samples if state.workload else [],
        "seconds_as_measured": state.raw,
        "samples": state.samples,
        "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in state.checks.items()},
        "breakdown": state.breakdown,
        "spans_file": str(spans_file) if spans_file else None,
        "error": state.error,
        "timed_out": timed_out,
        "stacks": stacks,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "cold_reconstruct", "serve_miss"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    # Last resort if the interpreter itself wedges: faulthandler's own
    # thread dumps every stack and exits even when no Python code can run.
    hard_path = OUT / f"hard-stacks-{os.getpid()}.txt"
    hard = open(hard_path, "w")
    faulthandler.dump_traceback_later(DEADLINE_S + 20.0, exit=True, file=hard)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = record["result"]
    if record["timed_out"]:
        print(f"perfbench: deadline of {DEADLINE_S:.0f}s tripped; thread stacks:",
              file=sys.stderr)
        print(record["stacks"], file=sys.stderr)
    for name, check in sorted(record["checks"].items()):
        print(f"check {name}: {'ok' if check['ok'] else 'FAILED'} - {check['detail']}")
    for line in record["breakdown"]:
        print(line)
    if record["setup_times_s"]:
        print(f"{'setup.raw_s':34s} {statistics.median(record['setup_times_s']):14.6g} "
              "(as measured, not gated)")
    for name, value in record["seconds_as_measured"].items():
        print(f"{name:34s} {value:14.6g} (as measured, not gated)")
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)

    faulthandler.cancel_dump_traceback_later()
    hard.close()
    hard_path.unlink()
    code = 0 if result["correct"] else 1
    if record["timed_out"]:
        # A stuck daemon thread must not hold up interpreter shutdown.
        sys.stderr.flush()
        os._exit(code)
    return code


def breakdown(tracer, phase_wall: float) -> list[str]:
    """Self and inclusive time per span as a share of the traced phase, largest first.

    ``phase_wall`` excludes the yardstick measurements between operations.
    """
    selfs = tracer.self_times()
    totals = tracer.total_times()
    lines = [f"traced phase {phase_wall:.3f} s without the yardstick; "
             "per span: self s, self %, inclusive %"]
    for name, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {name:32s} {seconds:9.3f} {100 * seconds / phase_wall:6.1f}% "
            f"{100 * totals.get(name, 0.0) / phase_wall:6.1f}%"
        )
    return lines


if __name__ == "__main__":
    sys.exit(main())
