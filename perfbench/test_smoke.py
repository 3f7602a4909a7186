"""Smoke tests of the benchmark at tiny sizes.

    python -m pytest perfbench/test_smoke.py -q

They cover every workload untraced and traced, check that the tracing shims
are gone afterwards, and check the result line of run.py against
BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import drapefit.losses  # noqa: E402
import drapefit.sampler  # noqa: E402
import drapefit.surface  # noqa: E402
import drapefit.trainer  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from drapefit.collider import SpatialIndex  # noqa: E402

TINY = {
    "drape-query": dict(garment=16, subdivisions=1, resolution=8, checkpoints=2),
    "mesh-fit": dict(garment=16, subdivisions=1, epochs=2),
    "encoding-fit": dict(threshold=1e-4, max_steps=400),
    "drape-fit": dict(garment=16, subdivisions=1, n_points=32, pdf_cells=8,
                      epochs=2, dense_resolution=8),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cal():
    calibration = run.Calibration()
    yield calibration
    calibration.close()
    assert calibration.proc.returncode == 0


def tiny(name, tmp_path, cal, seed=3):
    workload = workloads.WORKLOADS[name](seed, str(tmp_path), **TINY[name])
    run.set_up(workload, cal)
    return workload


def check_records(name, workload, records):
    assert records
    if name == "drape-fit":
        assert len(records) % workload.epochs == 0
        for record in records:
            # the training loop either completes and passes its checks or
            # names the drapefit function that raised
            assert record.ok or " at drapefit." in (record.error or "")
    else:
        assert all(r.ok for r in records), [r.check or r.error for r in records]
        assert all(r.points > 0 and r.ms > 0 and r.scale > 0 for r in records)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced(name, tmp_path, cal):
    workload = tiny(name, tmp_path, cal)
    records, busy_s, next_op = run.measure(workload, 1e-3, cal)
    check_records(name, workload, records)
    assert busy_s > 0 and next_op == 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_then_shims_removed(name, tmp_path, cal):
    workload = tiny(name, tmp_path, cal)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert not tracing.shims_removed()
        records, busy_s, _ = run.measure(workload, 1e-3, cal, tracer=tracer)
    check_records(name, workload, records)
    assert tracing.shims_removed()
    assert drapefit.trainer.lloyd_relax is drapefit.sampler.lloyd_relax
    assert drapefit.losses.forward_batch is drapefit.surface.forward_batch
    assert drapefit.trainer.backward is drapefit.surface.backward
    assert not hasattr(vars(SpatialIndex)["nearest"], "is_shim")

    spans = {name for _, name, _, _, _ in tracer.spans}
    assert tracing.LOOP_SPAN in spans
    assert all(end >= start for _, _, start, end, _ in tracer.spans)
    assert all(t >= -1e-9 for t in tracer.self_s.values())
    assert sum(tracer.self_s.values()) <= busy_s * (1 + 1e-9)
    if name == "drape-query":
        assert {"losses.batch", "structures.vertices", "restatlas.locate",
                "surface.forward", "collider.nearest"} <= spans
        assert tracer.counts["collider.queries"] > 0
    if name == "mesh-fit":
        assert {"losses.mesh", "surface.forward", "surface.backward",
                "collider.nearest", "trainer.optimizer", "surface.checkpoint"} <= spans
        assert tracer.counts["trainer.steps"] == workload.epochs
    if name == "encoding-fit":
        assert {"surface.forward", "surface.backward", "trainer.optimizer"} <= spans
        assert tracer.counts["trainer.steps"] > 0
    if name == "drape-fit":
        assert "sampler.estimate" in spans
        raised = any(r.error for r in records)
        assert (sum(tracer.errors.values()) > 0) == raised

    metrics = run.per_layer(tracer, records, records, busy_s, {})
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert pct == 90.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def result_line(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_json(trace):
    workload = BENCHMARK["workloads"][0]["name"]
    proc, lines = result_line(["--workload", workload, "--seed", "5",
                               "--seconds", "1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = result_line(["--workload", "encoding-fit", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
