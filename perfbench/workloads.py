"""The benchmark workloads: scene set-up, one measured call, and its checks.

Every call into drapefit goes through a module attribute (``trainer.train``,
``trainer.evaluate_dense``, ...) so that the traced run's shims see it. A
workload's ``run(k, span)`` performs call ``k`` inside ``span()`` and returns
one ``OpRecord`` per operation: a request, a fit, or a training epoch.
"""

import functools
import itertools
import os
import time
from dataclasses import dataclass

import numpy as np

import drapefit as df
import drapefit.trainer as trainer
from drapefit.surface import load_checkpoint, save_checkpoint

# published loss weights (strain, bend, gravity, collision)
WEIGHTS = df.LossWeights(0.005, 0.0005, 2.0, 1e7)
CONSTS = df.PhysicsConstants()
POINTS_PER_PATCH = 7  # six patch vertices plus the center
# encoding-fit: training batch, steps between dense evaluations, and the
# dense evaluation's resolution
FIT_BATCH = 1024
FIT_EVAL_EVERY = 25
FIT_EVAL_RESOLUTION = 64


@dataclass
class OpRecord:
    ms: float | None          # None for epochs never started
    points: int = 0           # surface points the operation evaluated
    error: str | None = None  # "Type at module.function: message"
    check: str | None = None  # failed correctness check
    scale: float = 1.0        # host-speed normalization, set by the runner

    @property
    def norm_ms(self) -> float:
        return self.ms * self.scale

    @property
    def ok(self) -> bool:
        return self.error is None and self.check is None


def derive_seed(seed: int, *path: int) -> int:
    """Independent 31-bit seed for sub-stream ``path`` of the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


def op_seed(seed: int, stream: int, k: int | None) -> int:
    """Seed of operation ``k``. The warm-up operation (``k`` None) gets the
    same seed in every run, so set-up time does not depend on the workload
    seed."""
    return derive_seed(0, stream) if k is None else derive_seed(seed, stream, k)


def error_site(exc: BaseException) -> str:
    """Exception type, the innermost drapefit function it left, and its text."""
    site = "outside drapefit"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("drapefit."):
            site = f"{module}.{tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    return f"{type(exc).__name__} at {site}: {exc}"


def _report_problem(report, cells: int) -> str | None:
    values = [*vars(report.breakdown).values(), report.mean_abs_strain_ratio]
    if not np.all(np.isfinite(values)):
        return f"non-finite dense report {report}"
    if report.valid_cells != cells:
        return f"valid_cells {report.valid_cells} != {cells}"
    if not 0.0 <= report.penetration_fraction <= 1.0:
        return f"penetration_fraction {report.penetration_fraction} outside [0, 1]"
    return None


def _drape_scene(garment, subdivisions, locator=True):
    """The criterion-6 scene at a given size: a flat square cloth above an
    icosphere of radius 0.3 that it drapes over, plus the cloth's UV locator
    when the workload looks up rest positions. Returns the mesh, the collider
    and their build times in ms."""
    builds = {}
    mesh = df.square_cloth(garment)
    if locator:
        t0 = time.perf_counter()
        mesh.locator()
        builds["restatlas.locator_build_ms"] = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    collider = df.icosphere(subdivisions, 0.3, (0.5, 0.5, -0.31))
    builds["collider.build_ms"] = (time.perf_counter() - t0) * 1000.0
    return mesh, collider, builds


def _train_problem(config, model, history, paths) -> str | None:
    """Checks on a finished ``trainer.train`` call: finite history over the
    whole budget, a loss log, and a final checkpoint that reads back
    bit-exactly."""
    totals = np.array([row["total"] for row in history])
    if len(totals) != config.epochs or not np.all(np.isfinite(totals)):
        return f"history totals {totals} not {config.epochs} finite values"
    log = os.path.join(config.out_dir, "loss_log.csv")
    if not os.path.isfile(log):
        return f"loss log {log} missing"
    if not paths:
        return "no checkpoint written"
    saved, loaded = model.param_arrays(), load_checkpoint(paths[-1]).param_arrays()
    if len(saved) != len(loaded) or any(
        a.dtype != b.dtype or a.tobytes() != b.tobytes() for a, b in zip(saved, loaded)
    ):
        return f"checkpoint {paths[-1]} does not round-trip bit-exactly"
    return None


class DrapeQuery:
    """Serving path of ``drapefit eval``/``export``: dense evaluation of a
    trained surface against a dense collider, read-only."""

    name = "drape-query"
    noise = 0.05  # std of the parameter noise that makes each checkpoint drape

    def __init__(self, seed, workdir, garment=256, subdivisions=5,
                 resolution=128, checkpoints=16):
        self.seed = seed
        self.workdir = workdir
        self.garment = garment
        self.subdivisions = subdivisions
        self.resolution = resolution
        self.n_checkpoints = checkpoints
        self.outputs = []  # (checkpoint, rotation seed, weighted total, penetration)

    def setup(self) -> dict:
        self.mesh, self.collider, builds = _drape_scene(self.garment, self.subdivisions)
        rng = np.random.default_rng(derive_seed(self.seed, 0))
        self.models = []
        for i in range(self.n_checkpoints):
            model = trainer.TrainConfig(epochs=1, seed=derive_seed(self.seed, 1, i)).build_model()
            for a in model.param_arrays():
                a += rng.normal(0.0, self.noise, a.shape).astype(a.dtype)
            path = os.path.join(self.workdir, f"query{i}.ckpt")
            save_checkpoint(model, path)
            self.models.append(load_checkpoint(path))
        self.order = rng.permutation(self.n_checkpoints)
        return builds

    def run(self, k, span):
        which = int(self.order[(k or 0) % self.n_checkpoints])
        rotation_seed = op_seed(self.seed, 2, k)
        t0 = time.perf_counter()
        try:
            with span():
                report = trainer.evaluate_dense(
                    self.models[which], self.mesh, self.collider, self.resolution,
                    WEIGHTS, CONSTS, seed=rotation_seed,
                )
        except Exception as exc:
            return [OpRecord((time.perf_counter() - t0) * 1000.0, error=error_site(exc))]
        ms = (time.perf_counter() - t0) * 1000.0
        self.outputs.append((which, rotation_seed, report.breakdown.weighted_total,
                             report.penetration_fraction))
        return [OpRecord(ms, POINTS_PER_PATCH * report.valid_cells,
                         check=_report_problem(report, self.resolution ** 2))]


class EncodingFit:
    """Time to a stated accuracy for the surface model alone: a supervised
    fit of the multigrid variant to the analytic sine-wave target."""

    name = "encoding-fit"

    def __init__(self, seed, workdir, threshold=2e-6, max_steps=2000):
        self.seed = seed
        self.threshold = threshold
        self.max_steps = max_steps
        self.outputs = []  # (fit seed, steps to threshold)

    def setup(self) -> dict:
        self.variant = trainer.default_bench_variants()[2]
        return {}

    def run(self, k, span):
        fit_seed = op_seed(self.seed, 3, k)
        t0 = time.perf_counter()
        try:
            with span():
                [result] = trainer.supervised_bench(
                    variants=[self.variant], threshold=self.threshold,
                    learning_rate=5e-3, optimizer="adam", batch_size=FIT_BATCH,
                    max_epochs=self.max_steps, eval_every=FIT_EVAL_EVERY,
                    eval_resolution=FIT_EVAL_RESOLUTION, seed=fit_seed,
                )
        except Exception as exc:
            return [OpRecord((time.perf_counter() - t0) * 1000.0, error=error_site(exc))]
        ms = (time.perf_counter() - t0) * 1000.0
        steps = result.epochs_to_threshold
        self.outputs.append((fit_seed, steps))
        check = None
        if steps is None or not result.final_mse < self.threshold:
            check = (f"fit seed {fit_seed}: mse {result.final_mse:.3e} not below "
                     f"{self.threshold:g} within {self.max_steps} steps")
            steps = self.max_steps
        # training batches plus the dense evaluations before, during and after
        evals = steps // FIT_EVAL_EVERY + 2
        points = FIT_BATCH * steps + FIT_EVAL_RESOLUTION ** 2 * evals
        return [OpRecord(ms, points, check=check)]


class MeshFit:
    """The mesh-connectivity training mode (``sampling_mode =
    mesh_connectivity``), the paper's baseline: each epoch evaluates the
    surface at the garment's own vertex UVs, applies the losses on the mesh
    edges and faces, and takes one Adam step. One operation is one
    ``trainer.train`` call over a fixed epoch budget, log and checkpoint
    writes included."""

    name = "mesh-fit"

    def __init__(self, seed, workdir, garment=64, subdivisions=4, epochs=25):
        self.seed = seed
        self.workdir = workdir
        self.garment = garment
        self.subdivisions = subdivisions
        self.epochs = epochs
        self.outputs = []  # (train seed, final weighted total)
        self._runs = itertools.count()  # each train() gets a fresh out_dir

    def setup(self) -> dict:
        # this path reads rest positions from the mesh vertices, not the locator
        self.mesh, self.collider, builds = _drape_scene(
            self.garment, self.subdivisions, locator=False)
        return builds

    def run(self, k, span):
        config = trainer.TrainConfig(
            epochs=self.epochs,
            learning_rate=5e-4,
            weights=WEIGHTS,
            consts=CONSTS,
            optimizer="adam",
            seed=op_seed(self.seed, 5, k),
            early_stop=False,
            sampling_mode="mesh_connectivity",
            out_dir=os.path.join(self.workdir, f"mesh{next(self._runs)}"),
        )
        t0 = time.perf_counter()
        try:
            with span():
                model, history, paths = trainer.train(config, self.mesh, self.collider)
        except Exception as exc:
            return [OpRecord((time.perf_counter() - t0) * 1000.0, error=error_site(exc))]
        ms = (time.perf_counter() - t0) * 1000.0
        self.outputs.append((config.seed, history[-1]["total"]))
        return [OpRecord(ms, len(self.mesh.uvs) * len(history),
                         check=_train_problem(config, model, history, paths))]


class DrapeFit:
    """The paper's training loop: a fixed epoch budget of ``trainer.train``
    on the criterion-6 drape, then one dense evaluation. One operation is
    one epoch, timed around ``trainer.train_epoch``."""

    name = "drape-fit"

    def __init__(self, seed, workdir, garment=64, subdivisions=4, n_points=1024,
                 pdf_cells=64, epochs=8, dense_resolution=64):
        self.seed = seed
        self.workdir = workdir
        self.garment = garment
        self.subdivisions = subdivisions
        self.n_points = n_points
        self.pdf_cells = pdf_cells
        self.epochs = epochs
        self.dense_resolution = dense_resolution
        self.outputs = []  # (train seed, dense total, penetration, epochs per s)
        self._runs = itertools.count()  # each train() gets a fresh out_dir

    def setup(self) -> dict:
        self.mesh, self.collider, builds = _drape_scene(self.garment, self.subdivisions)
        return builds

    def config(self, k) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            epochs=self.epochs,
            learning_rate=5e-4,
            weights=WEIGHTS,
            consts=CONSTS,
            sampler=df.SamplerConfig(
                n_points=self.n_points, pdf_rows=self.pdf_cells,
                pdf_cols=self.pdf_cells, lloyd_iterations=3,
            ),
            optimizer="adam",
            seed=op_seed(self.seed, 4, k),
            early_stop=False,
            out_dir=os.path.join(self.workdir, f"fit{next(self._runs)}"),
        )

    def run(self, k, span):
        config = self.config(k)
        records = []
        original = vars(trainer)["train_epoch"]

        @functools.wraps(original)
        def timed_epoch(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                state = original(*args, **kwargs)
            except Exception as exc:
                records.append(OpRecord((time.perf_counter() - t0) * 1000.0,
                                        error=error_site(exc)))
                raise
            records.append(OpRecord((time.perf_counter() - t0) * 1000.0))
            return state

        trainer.train_epoch = timed_epoch
        try:
            t0 = time.perf_counter()
            with span():
                model, history, paths = trainer.train(config, self.mesh, self.collider)
                train_s = time.perf_counter() - t0
                report = trainer.evaluate_dense(
                    model, self.mesh, self.collider, self.dense_resolution,
                    WEIGHTS, CONSTS, seed=0,
                )
        except Exception as exc:
            if len(records) == self.epochs and records[-1].ok:
                # every epoch ran; what followed them failed
                for record in records:
                    record.check = f"after the epoch budget: {error_site(exc)}"
                return records
            failed = records and not records[-1].ok
            cause = records[-1].error if failed else error_site(exc)
            # the rest of the budget never runs and counts as failed too
            records += [OpRecord(None, error=cause)
                        for _ in range(self.epochs - len(records))]
            return records
        finally:
            trainer.train_epoch = original

        for record, row in zip(records, history):
            record.points = POINTS_PER_PATCH * row["n_points"]
        self.outputs.append((config.seed, report.breakdown.weighted_total,
                             report.penetration_fraction, len(history) / train_s))
        check = _train_problem(config, model, history, paths)
        if check is None and not np.all(np.isfinite(
                [*vars(report.breakdown).values(), report.penetration_fraction])):
            check = f"non-finite dense report {report}"
        for record in records:
            record.check = check
        return records


WORKLOADS = {w.name: w for w in (DrapeQuery, MeshFit, EncodingFit, DrapeFit)}
