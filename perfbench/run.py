"""drapefit benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload drape-query --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; drapefit is imported from its
``src`` directory and from nowhere else. Each run sets the scene up
SETUP_REPS times (the median is ``setup_s``), then runs a closed loop with
one client for ``--seconds``. With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` the loop is split into an untraced
half and a traced half, and the result holds the per-layer metrics and the
tracing overhead. See NOTES.md for the workloads and metrics.
"""

import os

# BLAS threads must be pinned before numpy loads; one thread is the setting
# under which fixed seeds give bit-identical runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

LAYER_TIMES = {  # per-layer metric -> span whose self time it reports
    "sampler.lloyd_ms": "sampler.lloyd",
    "sampler.estimate_ms": "sampler.estimate",
    "sampler.draw_ms": "sampler.draw",
    "sampler.spacing_ms": "sampler.spacing",
    "losses.batch_ms": "losses.batch",
    "losses.validity_ms": "losses.validity",
    "losses.mesh_ms": "losses.mesh",
    "structures.vertices_ms": "structures.vertices",
    "surface.forward_ms": "surface.forward",
    "surface.backward_ms": "surface.backward",
    "surface.checkpoint_ms": "surface.checkpoint",
    "collider.nearest_ms": "collider.nearest",
    "restatlas.locate_ms": "restatlas.locate",
    "trainer.loop_self_ms": "trainer.loop",
    "trainer.epoch_self_ms": "trainer.epoch",
    "trainer.dense_eval_self_ms": "trainer.dense_eval",
    "trainer.optimizer_ms": "trainer.optimizer",
}
LAYER_COUNTS = (
    "sampler.voronoi_sites",
    "sampler.estimate_patches",
    "losses.patches",
    "surface.forward_points",
    "surface.backward_points",
    "surface.mlp_flops",
    "collider.queries",
    "restatlas.locate_points",
    "trainer.steps",
)
LAYER_ERRORS = ("sampler", "losses", "surface", "collider", "restatlas")
BUILD_TIMES = ("collider.build_ms", "restatlas.locator_build_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("drape-query", "mesh-fit", "encoding-fit", "drape-fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seed >= 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def environment(seed) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        l2 = os.sysconf(191)  # glibc _SC_LEVEL2_CACHE_SIZE, read from cpuid
    except (OSError, ValueError):
        l2 = None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "l2_bytes": l2,
    }


class Calibration:
    """Host-speed reference: the kernel of ``calibrate.py``, which does not
    use drapefit, run in a child process between operations.

    On a shared host the machine's speed drifts by 15-25% over tens of
    seconds, more than any bound allows. The kernel's time follows that
    drift, so every normalized time is the raw time multiplied by NOMINAL_MS
    over the mean kernel time measured just before and just after it: it
    reads as it would at the speed at which the kernel takes NOMINAL_MS.
    The kernel runs in its own process, so that its heap and page faults
    are its own, not drapefit's.
    """

    NOMINAL_MS = 30.0

    def __init__(self):
        self.samples = []
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("calibrate.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        """Run the kernel once in the child; returns its time in ms."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        ms = float(self.proc.stdout.readline())
        self.samples.append(ms)
        return ms

    def scale(self, before, after) -> float:
        return self.NOMINAL_MS / ((before + after) / 2.0)

    def close(self):
        """End the child and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def set_up(workload, cal):
    """SETUP_REPS scene builds, each followed by one warm-up operation whose
    result is discarded; the workload keeps the last scene. Returns the median
    normalized and raw set-up seconds and the median build times."""
    normalized, raw, builds = [], [], []
    for _ in range(SETUP_REPS):
        before = cal()
        t0 = time.perf_counter()
        builds.append(workload.setup())
        workload.run(None, contextlib.nullcontext)
        raw.append(time.perf_counter() - t0)
        normalized.append(raw[-1] * cal.scale(before, cal()))
    workload.outputs.clear()
    build_ms = {key: statistics.median(b[key] for b in builds) for key in builds[0]}
    return statistics.median(normalized), statistics.median(raw), build_ms


def measure(workload, seconds, cal, first_op=0, tracer=None):
    """Closed loop with one client: the next call starts when the previous
    one returned. Returns the records, the seconds spent inside calls, and
    the next operation index."""
    span = contextlib.nullcontext if tracer is None else tracer.loop
    records, k, busy_s = [], first_op, 0.0
    before = cal()
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        batch = workload.run(k, span)
        busy_s += time.perf_counter() - t0
        after = cal()
        for record in batch:
            record.scale = cal.scale(before, after)
        records += batch
        before = after
        k += 1
        if time.perf_counter() >= deadline:
            return records, busy_s, k


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def latencies(records, ms):
    """Median latency, tail latency and its percentile, and points per
    second of operation time, with the time of each record given by
    ``ms``; None when no operation succeeded."""
    ok = [r for r in records if r.ok]
    if not ok:
        return None
    spent_s = sum(ms(r) for r in records if r.ms is not None) / 1000.0
    times = [ms(r) for r in ok]
    return (statistics.median(times), *tail(times),
            sum(r.points for r in ok) / spent_s)


def end_to_end(records, setup_s):
    normalized, raw = latencies(records, lambda r: r.norm_ms), latencies(records, lambda r: r.ms)
    p50, tail_ms, _, points_per_s = normalized or (None,) * 4
    metrics = {
        "latency_ms_p50": metric(p50, "ms"),
        "latency_ms_tail": metric(tail_ms, "ms"),
        "points_per_s": metric(points_per_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    if raw is None:
        return metrics, ["latency undefined: no operation succeeded"]
    notes = [f"latency samples {sum(r.ok for r in records)}; tail is p{raw[2]:.1f}",
             f"raw latency_ms_p50 {raw[0]:.4f} ms, latency_ms_tail {raw[1]:.4f} ms, "
             f"points_per_s {raw[3]:.4f} 1/s"]
    return metrics, notes


def per_layer(tracer, records, reference, busy_s, build_ms):
    """Self time and counts per operation for every layer; zero for the
    layers the workload bypasses."""
    ops = len(records)
    metrics = {}
    for name, span in LAYER_TIMES.items():
        metrics[name] = metric(1000.0 * tracer.self_s[span] / ops, "ms/op")
    for name in LAYER_COUNTS:
        unit = "flop/op" if name == "surface.mlp_flops" else "count/op"
        metrics[name] = metric(tracer.counts[name] / ops, unit)
    patches = tracer.counts["losses.patches"]
    metrics["losses.valid_frac"] = metric(
        tracer.counts["losses.valid_patches"] / patches if patches else 0.0, "fraction")
    epochs = tracer.counts["trainer.epochs"]
    metrics["losses.resample_rounds"] = metric(
        tracer.counts["losses.validity_calls"] / epochs - 1.0 if epochs else 0.0,
        "count/epoch")
    for layer in LAYER_ERRORS:
        metrics[f"{layer}.errors"] = metric(tracer.errors[layer] / ops, "count/op")
    for name in BUILD_TIMES:
        metrics[name] = metric(build_ms.get(name, 0.0), "ms")

    traced = [r.norm_ms for r in records if r.ok]
    untraced = [r.norm_ms for r in reference if r.ok]
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0
                if traced and untraced else None)
    metrics["trace.overhead_frac"] = metric(overhead, "fraction")
    metrics["trace.accounted_frac"] = metric(sum(tracer.self_s.values()) / busy_s, "fraction")
    return metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_trace(tracer, workload, seed):
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for op, name, start, end, parent in tracer.spans:
            fh.write(json.dumps([op, name, start, end, parent]) + "\n")
    return path.relative_to(ROOT)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drapefit" / "__init__.py").is_file():
        print(f"error: no drapefit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    cal = Calibration()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s, raw_setup_s, build_ms = set_up(workload, cal)
        lines = [f"env: {json.dumps(environment(args.seed))}",
                 f"raw setup_s {raw_setup_s:.4f} s"]
        if args.trace:
            reference, _, next_op = measure(workload, args.seconds / 2, cal)
            tracer = tracing.Tracer()
            with tracer.installed():
                records, busy_s, _ = measure(workload, args.seconds / 2, cal, next_op, tracer)
            if not tracing.shims_removed():
                raise RuntimeError("tracing shims were not removed")
            metrics = per_layer(tracer, records, reference, busy_s, build_ms)
            lines.append(f"trace: {len(tracer.spans)} spans -> "
                         f"{write_trace(tracer, args.workload, args.seed)}")
            lines += [f"error site: {site} x{n}" for site, n in tracer.error_sites.items()]
            records = reference + records
        else:
            records, _, _ = measure(workload, args.seconds, cal)
            metrics, notes = end_to_end(records, setup_s)
            lines += notes
        failed = sum(not r.ok for r in records)
        lines.append(f"operations {len(records)}, failed {failed}, "
                     f"error_rate {failed / len(records):.4f}")
        for problem, n in Counter(r.error or r.check for r in records if not r.ok).items():
            lines.append(f"failure x{n}: {problem}")
        lines.append(f"calibration kernel ms: median {statistics.median(cal.samples):.3f} "
                     f"over {len(cal.samples)} runs in a separate process")
        lines += [f"output: {json.dumps(o)}" for o in workload.outputs[:8]]
        for line in lines:
            print(line)
        for name, m in metrics.items():
            print(f"{name} = {m['value']} {m['unit']}")
        result = {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
    finally:
        cal.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
