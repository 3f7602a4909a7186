"""Training loop: alternate adaptive batch construction with gradient descent.

Each epoch runs two players. The first refreshes the loss-driven cell PDF,
draws the epoch's sample points (adaptive plus uniform), and relaxes them.
The second builds a sampling patch with a fresh random rotation around every
point, evaluates the weighted physics losses, and takes one optimizer step
on all surface parameters. Also houses the dense evaluator used to compare
runs, the mesh-connectivity baselines, and the supervised encoding benchmark.
"""

import csv
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .collider import ColliderMesh
from .errors import AllPointsInvalid, BudgetMismatch, ConfigError, NonFiniteLoss
from .losses import (
    EDGE_SET_ALL,
    EDGE_SET_INNER,
    LossBreakdown,
    LossDiagnostics,
    LossWeights,
    PhysicsConstants,
    # The *_grad wrappers are not called here: perfbench/tracing.py looks all
    # eight kernel names up on this module. Drop them with that lookup.
    bend_pair_grad,
    bend_pair_terms,
    collision_point_grad,
    collision_point_terms,
    evaluate_structure_batch,
    gravity_point_grad,
    gravity_point_terms,
    strain_edge_grad,
    strain_edge_terms,
    structure_validity,
)
from .restatlas import GarmentRestMesh
from .rows import gather_rows
from .sampler import (
    THETA_MAX,
    DiscretePdf,
    SamplerConfig,
    dump_pdf_heatmap,
    estimate_cell_losses,
    min_spacing_report,
    sample_batch,
    lloyd_relax,
    update_pdf,
)
from .surface import (
    ENCODING_IDENTITY,
    ENCODING_MULTIGRID,
    ENCODING_POSITIONAL,
    EncoderConfig,
    GradientBuffer,
    SurfaceModel,
    backward,
    encoding_width,
    forward_batch,
    init_model,
    load_checkpoint,
    param_count,
    save_checkpoint,
)

HISTORY_COLUMNS = (
    "epoch",
    "strain",
    "bend",
    "gravity",
    "collision",
    "total",
    "min_spacing",
    "epoch_ms",
)

SAMPLING_MODES = ("adaptive", "uniform", "mesh_connectivity")


@dataclass
class TrainConfig:
    epochs: int
    learning_rate: float = 0.0005
    weights: LossWeights = field(default_factory=LossWeights)
    consts: PhysicsConstants = field(default_factory=PhysicsConstants)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    encoder: EncoderConfig | None = field(default_factory=EncoderConfig)
    mlp_hidden: tuple = (64, 64, 64)
    activation: str = "relu"
    encoding: str = ENCODING_MULTIGRID
    num_frequencies: int = 4
    sampling_mode: str = "adaptive"
    structure_side: float = 0.001
    strain_edges: str = EDGE_SET_ALL
    strain_form: str = "relative"
    optimizer: str = "sgd"
    seed: int = 0
    convergence_window: int = 200
    convergence_tol: float = 1e-4
    early_stop: bool = True
    checkpoint_every: int = 0   # 0 = final checkpoint only
    max_resample: int = 10
    dtype: str = "float32"
    out_dir: str | None = None
    dump_pdf_every: int = 0  # debug heatmaps of the sampling PDF

    def problems(self) -> list:
        """Every violated field, for error messages that list them all."""
        issues = []
        if self.epochs < 1:
            issues.append("epochs must be >= 1")
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            issues.append("learning_rate must be positive and finite")
        issues += self.weights.problems() + self.sampler.problems()
        if self.sampling_mode not in SAMPLING_MODES:
            issues.append(f"sampling_mode must be one of {SAMPLING_MODES}")
        if not 0.0 < self.structure_side < np.inf:
            issues.append("structure_side must be positive and finite")
        if self.strain_edges not in (EDGE_SET_ALL, EDGE_SET_INNER):
            issues.append("strain_edges must be all9 or inner3")
        if self.strain_form not in ("relative", "absolute"):
            issues.append("strain_form must be relative or absolute")
        if self.optimizer not in ("sgd", "adam"):
            issues.append("optimizer must be sgd or adam")
        if self.encoding not in (
            ENCODING_MULTIGRID,
            ENCODING_IDENTITY,
            ENCODING_POSITIONAL,
        ):
            issues.append("encoding must be multigrid, identity, or positional")
        if self.activation not in ("relu", "tanh"):
            issues.append("activation must be relu or tanh")
        if self.convergence_window < 1:
            issues.append("convergence_window must be >= 1")
        if not 0.0 < self.convergence_tol < np.inf:
            issues.append("convergence_tol must be positive and finite")
        if self.dtype not in ("float32", "float64"):
            issues.append("dtype must be float32 or float64")
        for name in ("seed", "max_resample", "checkpoint_every", "dump_pdf_every"):
            if getattr(self, name) < 0:
                issues.append(f"{name} must be >= 0")
        return issues

    def validate(self) -> None:
        issues = self.problems()
        if issues:
            raise ConfigError("; ".join(issues))

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def mlp_dims(self) -> list:
        grid_widths = self.encoder.grid_widths if self.encoder is not None else ()
        d_in = encoding_width(self.encoding, grid_widths, self.num_frequencies)
        return [d_in, *self.mlp_hidden, 3]

    def build_model(self) -> SurfaceModel:
        return init_model(
            self.encoder if self.encoding == ENCODING_MULTIGRID else None,
            self.mlp_dims(),
            self.seed,
            activation=self.activation,
            dtype=self.np_dtype,
            encoding=self.encoding,
            num_frequencies=self.num_frequencies,
        )


@dataclass
class OptimizerState:
    """Plain gradient descent by default; Adam available for contact-heavy runs."""

    kind: str
    m: list | None = None
    v: list | None = None
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def create(cls, kind: str, arrays: list) -> "OptimizerState":
        """State for the parameter ``arrays`` the later steps update."""
        if kind == "sgd":
            return cls("sgd")
        return cls(
            "adam",
            m=[np.zeros_like(a) for a in arrays],
            v=[np.zeros_like(a) for a in arrays],
        )

    def step(self, params: list, grads: list, lr: float) -> None:
        """Update each array of ``params`` in place from its gradient."""
        if self.kind == "sgd":
            for p, g in zip(params, grads):
                p -= (lr * g).astype(p.dtype)
            return
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= (lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)).astype(p.dtype)


@dataclass
class TrainState:
    epoch: int
    model: SurfaceModel
    pdf: DiscretePdf
    history: list                 # dict rows with HISTORY_COLUMNS keys
    rng: np.random.Generator
    opt: OptimizerState
    diagnostics: LossDiagnostics = field(default_factory=LossDiagnostics)

    @classmethod
    def fresh(cls, config: TrainConfig) -> "TrainState":
        model = config.build_model()
        return cls(
            epoch=0,
            model=model,
            pdf=DiscretePdf.uniform(config.sampler.pdf_rows, config.sampler.pdf_cols),
            history=[],
            rng=np.random.default_rng(config.seed),
            opt=OptimizerState.create(config.optimizer, model.param_arrays()),
        )

    def totals(self) -> np.ndarray:
        return np.array([row["total"] for row in self.history])


def _apply_gradients(state: TrainState, config: TrainConfig, grads: GradientBuffer):
    arrays = grads.arrays()
    for g in arrays:
        if not np.all(np.isfinite(g)):
            raise NonFiniteLoss("non-finite gradient encountered")
    state.opt.step(state.model.param_arrays(), arrays, config.learning_rate)


def _history_row(epoch: int, weights: LossWeights, sums: dict, spacing: float,
                 n_points: int, t0: float) -> dict:
    """One epoch's history row; ``sums`` holds the four raw loss sums."""
    total = weights.total(**sums)
    if not np.isfinite(total):
        raise NonFiniteLoss(f"epoch {epoch}: non-finite loss {sums}")
    return {
        "epoch": epoch,
        "strain": float(sums["strain"]),
        "bend": float(sums["bend"]),
        "gravity": float(sums["gravity"]),
        "collision": float(sums["collision"]),
        "total": float(total),
        "min_spacing": float(spacing),
        "epoch_ms": (time.perf_counter() - t0) * 1000.0,
        "n_points": n_points,
    }


def train_epoch(
    state: TrainState,
    config: TrainConfig,
    mesh: GarmentRestMesh,
    collider: ColliderMesh | None,
) -> TrainState:
    """One full epoch: sampler player then optimizer player.

    Points whose sampling patch is invalid (outside the UV region) are
    resampled uniformly up to ``max_resample`` times, then dropped.
    """
    t0 = time.perf_counter()
    scfg = config.sampler
    rng = state.rng
    n_adaptive = int(np.floor(scfg.mu * scfg.n_points))
    adaptive = config.sampling_mode == "adaptive" and n_adaptive > 0

    if adaptive:
        estimate = estimate_cell_losses(
            state.model,
            mesh,
            collider,
            (scfg.pdf_rows, scfg.pdf_cols),
            config.weights,
            config.consts,
            rng,
            side=config.structure_side,
            edge_set=config.strain_edges,
            pdf_losses=scfg.pdf_losses,
        )
        state.pdf = update_pdf(state.pdf, estimate, scfg.gamma)
        points = sample_batch(state.pdf, scfg, rng)
    else:
        points = sample_batch(state.pdf, replace(scfg, mu=0.0), rng)
    points = lloyd_relax(points, scfg.lloyd_iterations)
    thetas = rng.uniform(0.0, THETA_MAX, len(points))

    for attempt in range(config.max_resample + 1):
        valid = structure_validity(
            mesh, points, thetas, config.structure_side,
            edge_set=config.strain_edges, strain_form=config.strain_form,
        )
        if valid.all() or attempt == config.max_resample:
            break
        bad = ~valid
        n_bad = int(bad.sum())
        points[bad] = rng.random((n_bad, 2))
        thetas[bad] = rng.uniform(0.0, THETA_MAX, n_bad)
    if not valid.any():
        raise AllPointsInvalid("no sampled point yields a valid structure")
    points, thetas = points[valid], thetas[valid]

    batch = evaluate_structure_batch(
        state.model,
        mesh,
        collider,
        points,
        thetas,
        config.weights,
        config.consts,
        side=config.structure_side,
        edge_set=config.strain_edges,
        want_grad=True,
        strain_form=config.strain_form,
    )
    state.diagnostics.degenerate_face_pairs += batch.diagnostics.degenerate_face_pairs
    grads = backward(state.model, batch.tape, batch.upstream)
    _apply_gradients(state, config, grads)

    sums = {
        "strain": batch.strain.sum(),
        "bend": batch.bend.sum(),
        "gravity": batch.gravity.sum(),
        "collision": batch.collision.sum(),
    }
    spacing, _ = min_spacing_report(points, scfg.min_spacing)
    state.history.append(
        _history_row(state.epoch, config.weights, sums, spacing, len(points), t0)
    )
    state.epoch += 1
    return state


def detect_convergence(totals, window: int, tol: float) -> bool:
    """Compare mean total loss of the last two windows; converged when the
    relative decrease falls below ``tol``."""
    totals = np.asarray(totals, dtype=np.float64)
    if len(totals) < 2 * window:
        return False
    prev = totals[-2 * window : -window].mean()
    cur = totals[-window:].mean()
    denom = max(abs(prev), 1e-30)
    return (prev - cur) / denom < tol


def epochs_to_convergence(totals, window: int, tol: float) -> int | None:
    """First epoch count at which detect_convergence fires, scanning history."""
    totals = np.asarray(totals, dtype=np.float64)
    for e in range(2 * window, len(totals) + 1):
        if detect_convergence(totals[:e], window, tol):
            return e
    return None


# ---------------------------------------------------------------------------
# mesh-connectivity baselines


def _edge_keys(tris: np.ndarray):
    """Key lo * n + hi of each face's three edges (all first edges, then all
    second, then all third) with n = max vertex id + 1; keys sort like the
    (lo, hi) rows."""
    n = int(tris.max(initial=-1)) + 1
    ends = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    return ends.min(axis=1) * n + ends.max(axis=1), n


def mesh_edges(triangles) -> np.ndarray:
    """Unique undirected edges of a triangulation, rows sorted ascending."""
    keys, n = _edge_keys(np.asarray(triangles, dtype=np.int64))
    keys = np.unique(keys)
    return np.stack([keys // n, keys % n], axis=1)


def adjacent_face_pairs(triangles) -> np.ndarray:
    """Pairs of face indices sharing an edge (interior edges only)."""
    tris = np.asarray(triangles, dtype=np.int64)
    keys, _ = _edge_keys(tris)
    owner = np.tile(np.arange(len(tris)), 3)
    order = np.argsort(keys, kind="stable")
    keys, owner = keys[order], owner[order]
    same = keys[1:] == keys[:-1]
    return np.stack([owner[:-1][same], owner[1:][same]], axis=1)


@dataclass
class MeshGraph:
    """Precomputed topology for losses on the original mesh connectivity."""

    edges: np.ndarray
    rest_lengths: np.ndarray
    faces: np.ndarray
    pairs: np.ndarray

    @classmethod
    def build(cls, mesh: GarmentRestMesh) -> "MeshGraph":
        edges = mesh_edges(mesh.triangles)
        rest = np.linalg.norm(
            gather_rows(mesh.vertices, edges[:, 0]) - gather_rows(mesh.vertices, edges[:, 1]),
            axis=1,
        )
        return cls(
            edges=edges,
            rest_lengths=rest,
            faces=mesh.triangles,
            pairs=adjacent_face_pairs(mesh.triangles),
        )


def _mesh_losses(positions, graph, collider, weights, consts, strain_form, want_grad):
    if not np.isfinite(positions).all():
        raise NonFiniteLoss("mesh positions are not finite")
    sums = {}
    # each kernel adds its weighted gradient into dpos; the order of the
    # kernels fixes the summation order, and so the bits, of every row
    dpos = np.zeros_like(positions) if want_grad else None
    sums["strain"] = strain_edge_terms(
        positions, graph.edges, graph.rest_lengths, strain_form,
        coeff=weights.strain, out=dpos,
    ).sum()
    sums["bend"] = bend_pair_terms(
        positions, graph.faces, graph.pairs, coeff=weights.bend, out=dpos
    ).sum()
    all_ids = np.arange(len(positions))
    sums["gravity"] = gravity_point_terms(
        positions, all_ids, consts, coeff=weights.gravity, out=dpos
    ).sum()
    if collider is not None and len(collider.vertices) > 0:
        sums["collision"] = collision_point_terms(
            positions, all_ids, collider, consts, coeff=weights.collision, out=dpos
        ).sum()
    else:
        sums["collision"] = 0.0
    return sums, dpos


@dataclass
class BaselineResult:
    variant: str           # "vertices" or "model"
    free_variables: int
    history: list
    positions: np.ndarray | None = None
    model: SurfaceModel | None = None


def mesh_connectivity_baseline(
    mesh: GarmentRestMesh,
    collider: ColliderMesh | None,
    config: TrainConfig,
    variant: str = "vertices",
) -> BaselineResult:
    """Optimize with losses on the original mesh connectivity.

    ``vertices``: free variables are the vertex positions themselves.
    ``model``: the neural surface is queried only at the mesh's own UVs; this
    is ``train`` in the ``mesh_connectivity`` sampling mode, without output.
    """
    if variant not in ("vertices", "model"):
        raise ValueError("variant must be 'vertices' or 'model'")
    if variant == "model":
        model, history, _ = train(
            replace(config, sampling_mode="mesh_connectivity", out_dir=None),
            mesh, collider,
        )
        return BaselineResult("model", model.param_count(), history, model=model)

    graph = MeshGraph.build(mesh)
    history = []
    positions = mesh.vertices.copy()
    opt = OptimizerState.create(config.optimizer, [positions])
    for _ in range(config.epochs):
        t0 = time.perf_counter()
        sums, dpos = _mesh_losses(
            positions, graph, collider, config.weights, config.consts,
            config.strain_form, want_grad=True,
        )
        opt.step([positions], [dpos], config.learning_rate)
        history.append(_history_row(
            len(history), config.weights, sums, float("nan"), len(mesh.uvs), t0
        ))
    return BaselineResult("vertices", positions.size, history, positions=positions)


def _mesh_epochs(state, config, mesh, collider):
    """Epochs of the ``mesh_connectivity`` mode, one per ``next``: the
    surface is queried only at the mesh's own UVs, and the losses run on the
    mesh's edges and faces.

    A generator, not a function called once per epoch: its locals keep one
    epoch's arrays alive until the next epoch has made its own, as a plain
    loop does. Freed at the end of every call, the working set would go
    back to the allocator, which trims the heap, and every epoch would
    page-fault it back in.
    """
    graph = MeshGraph.build(mesh)
    while True:
        t0 = time.perf_counter()
        disp, tape = forward_batch(state.model, mesh.uvs, record_tape=True)
        positions = mesh.vertices + disp.astype(np.float64)
        sums, dpos = _mesh_losses(
            positions, graph, collider, config.weights, config.consts,
            config.strain_form, want_grad=True,
        )
        grads = backward(state.model, tape, dpos)
        _apply_gradients(state, config, grads)
        state.history.append(_history_row(
            state.epoch, config.weights, sums, float("nan"), len(mesh.uvs), t0
        ))
        state.epoch += 1
        yield


def _sampled_epochs(state, config, mesh, collider):
    """Epochs of the ``adaptive`` and ``uniform`` modes, one per ``next``."""
    while True:
        # looked up on the module at every epoch: perfbench wraps trainer.train_epoch
        train_epoch(state, config, mesh, collider)
        yield


# ---------------------------------------------------------------------------
# dense evaluation


@dataclass
class DenseReport:
    """Grid-averaged losses plus drape-quality diagnostics."""

    breakdown: LossBreakdown
    valid_cells: int
    total_cells: int
    penetration_fraction: float
    mean_abs_strain_ratio: float


def evaluate_dense(
    model: SurfaceModel,
    mesh: GarmentRestMesh,
    collider: ColliderMesh | None,
    resolution: int,
    weights: LossWeights,
    consts: PhysicsConstants,
    seed: int = 0,
    side: float = 0.001,
    edge_set: str = EDGE_SET_ALL,
) -> DenseReport:
    """Average patch losses over all valid cell centers of a uniform grid.

    The rotation sequence is fixed by ``seed`` so different models can be
    compared on identical probes. Penetration counts dense centers whose
    deformed position lies behind its nearest collider vertex (d.n < 0).
    """
    if resolution < 2:
        raise ValueError("dense evaluation resolution must be >= 2")
    M = N = resolution
    jj, ii = np.meshgrid(np.arange(N), np.arange(M))
    centers = np.stack([(jj.ravel() + 0.5) / N, (ii.ravel() + 0.5) / M], axis=1)
    thetas = np.random.default_rng(seed).uniform(0.0, THETA_MAX, M * N)
    batch = evaluate_structure_batch(
        model, mesh, collider, centers, thetas, weights, consts,
        side=side, edge_set=edge_set,
    )
    K = int(batch.valid.sum())
    if K == 0:
        zero = LossBreakdown.combine(weights, 0.0, 0.0, 0.0, 0.0)
        return DenseReport(zero, 0, M * N, 0.0, 0.0)
    means = LossBreakdown.combine(
        weights,
        batch.strain.sum() / K,
        batch.bend.sum() / K,
        batch.gravity.sum() / K,
        batch.collision.sum() / K,
    )
    penetration = 0.0
    if collider is not None and len(collider.vertices) > 0:
        center_pos = batch.positions.reshape(K, 7, 3)[:, 6, :]
        viol, _ = collider.contacts(center_pos, 0.0)
        penetration = float((viol < 0.0).sum() / K)
    mean_ratio = (
        float(np.sqrt(batch.strain_terms).mean())
        if batch.strain_terms is not None and len(batch.strain_terms)
        else 0.0
    )
    return DenseReport(means, K, M * N, penetration, mean_ratio)


# ---------------------------------------------------------------------------
# full training entry point with logging, checkpointing, convergence


def train(
    config: TrainConfig,
    mesh: GarmentRestMesh,
    collider: ColliderMesh | None,
):
    """Run the training loop; returns (model, history, checkpoint paths).

    Every sampling mode runs through the same loop. When ``config.out_dir``
    is set it writes a per-epoch CSV loss log and the periodic and final
    checkpoints with their resumable state. Stops early once the windowed
    convergence criterion fires, unless ``early_stop`` is disabled.
    """
    config.validate()
    return run_epochs(TrainState.fresh(config), config, mesh, collider)


def run_epochs(state, config, mesh, collider):
    """Run epochs from ``state`` up to ``config.epochs``, the loop of ``train``.

    Returns (model, history, checkpoint paths) as ``train`` does. A state
    loaded by ``load_train_state``, with the config of the run that saved it,
    resumes that run bit for bit.
    """
    if config.sampling_mode == "mesh_connectivity":
        epochs = _mesh_epochs(state, config, mesh, collider)
    else:
        epochs = _sampled_epochs(state, config, mesh, collider)
    csv_fh = writer = None
    paths = []
    if config.out_dir is not None:
        os.makedirs(config.out_dir, exist_ok=True)
        csv_fh = open(os.path.join(config.out_dir, "loss_log.csv"), "a", newline="")
        writer = csv.writer(csv_fh)
        if csv_fh.tell() == 0:
            writer.writerow(HISTORY_COLUMNS)
            csv_fh.flush()
    try:
        while state.epoch < config.epochs:
            try:
                next(epochs)
            except NonFiniteLoss:
                if config.out_dir is not None:
                    _write_diagnostic_dump(state, config)
                raise
            row = state.history[-1]
            if writer is not None:
                writer.writerow([row[c] for c in HISTORY_COLUMNS])
                csv_fh.flush()
            if (
                config.dump_pdf_every > 0
                and config.out_dir is not None
                and state.epoch % config.dump_pdf_every == 0
            ):
                dump_pdf_heatmap(
                    state.pdf.probs,
                    os.path.join(config.out_dir, f"pdf_epoch{state.epoch:06d}"),
                )
            converged = (
                config.early_stop
                and len(state.history) >= 2 * config.convergence_window
                and detect_convergence(
                    state.totals(), config.convergence_window, config.convergence_tol
                )
            )
            periodic = (
                config.checkpoint_every > 0
                and state.epoch % config.checkpoint_every == 0
            )
            # the last epoch run is always saved, whether the run ends here
            # by its epoch count or by convergence
            last = converged or state.epoch >= config.epochs
            if config.out_dir is not None and (periodic or last):
                prefix = os.path.join(config.out_dir, f"epoch{state.epoch:06d}")
                save_train_state(state, prefix)
                paths.append(prefix + ".ckpt")
            if converged:
                break
    finally:
        if csv_fh is not None:
            csv_fh.close()
    return state.model, state.history, paths


def _write_diagnostic_dump(state: TrainState, config: TrainConfig) -> None:
    path = os.path.join(config.out_dir, "diagnostics.txt")
    with open(path, "w") as fh:
        fh.write(f"aborted_at_epoch {state.epoch}\n")
        for k, a in enumerate(state.model.param_arrays()):
            finite = np.isfinite(a)
            fh.write(
                f"param_array {k} shape {a.shape} nonfinite {int((~finite).sum())} "
                f"max_abs {np.abs(a[finite]).max() if finite.any() else 'nan'}\n"
            )
        if state.history:
            fh.write(f"last_row {state.history[-1]}\n")


def save_train_state(state: TrainState, prefix: str) -> None:
    """Snapshot model + sampler + optimizer + rng so training can resume
    bit-identically (float32 models)."""
    save_checkpoint(state.model, prefix + ".ckpt")
    hist = np.array(
        [[row[c] for c in HISTORY_COLUMNS] for row in state.history], dtype=np.float64
    ).reshape(-1, len(HISTORY_COLUMNS))
    extra = {}
    if state.opt.kind == "adam":
        for i, (m, v) in enumerate(zip(state.opt.m, state.opt.v)):
            extra[f"adam_m_{i}"] = m
            extra[f"adam_v_{i}"] = v
    np.savez(
        prefix + ".state.npz",
        epoch=state.epoch,
        pdf=state.pdf.probs,
        rng_state=json.dumps(state.rng.bit_generator.state),
        opt_kind=state.opt.kind,
        opt_t=state.opt.t,
        history=hist,
        degenerate_face_pairs=state.diagnostics.degenerate_face_pairs,
        **extra,
    )


def load_train_state(prefix: str) -> TrainState:
    model = load_checkpoint(prefix + ".ckpt")
    data = np.load(prefix + ".state.npz", allow_pickle=False)
    rng = np.random.default_rng()
    rng.bit_generator.state = json.loads(str(data["rng_state"]))
    kind = str(data["opt_kind"])
    opt = OptimizerState.create(kind, model.param_arrays())
    if kind == "adam":
        opt.t = int(data["opt_t"])
        opt.m = [data[f"adam_m_{i}"] for i in range(len(model.param_arrays()))]
        opt.v = [data[f"adam_v_{i}"] for i in range(len(model.param_arrays()))]
    history = [
        {c: row[k] for k, c in enumerate(HISTORY_COLUMNS)}
        for row in data["history"]
    ]
    for row in history:
        row["epoch"] = int(row["epoch"])
    return TrainState(
        epoch=int(data["epoch"]),
        model=model,
        pdf=DiscretePdf(data["pdf"]),
        history=history,
        rng=rng,
        opt=opt,
        diagnostics=LossDiagnostics(int(data["degenerate_face_pairs"])),
    )


# ---------------------------------------------------------------------------
# supervised encoding benchmark


def sine_wave_target(points) -> np.ndarray:
    """Displacement field of the benchmark surface: a plane lifted by a
    superposition of a broad wave and a fine wave."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    u, v = pts[:, 0], pts[:, 1]
    z = 0.10 * np.sin(2.0 * np.pi * u) * np.sin(2.0 * np.pi * v) + 0.02 * np.sin(
        2.0 * np.pi * 8.0 * u
    ) * np.sin(2.0 * np.pi * 8.0 * v)
    out = np.zeros((len(pts), 3))
    out[:, 2] = z
    return out


@dataclass
class BenchVariant:
    name: str
    encoder: EncoderConfig | None
    mlp_dims: list
    encoding: str
    num_frequencies: int = 0

    def count(self) -> int:
        return param_count(self.encoder, self.mlp_dims)


# largest spread of parameter counts among benchmark variants, as a
# fraction of the smallest
BUDGET_TOLERANCE = 0.005


def default_bench_variants() -> list:
    """The three matched-budget architectures compared by the benchmark."""
    return [
        BenchVariant("baseline-mlp", None, [2, 152, 152, 152, 3], ENCODING_IDENTITY),
        BenchVariant(
            "positional", None, [18, 148, 148, 148, 3], ENCODING_POSITIONAL, 4
        ),
        BenchVariant(
            "multigrid", EncoderConfig((101, 51), 3), [6, 64, 64, 64, 3],
            ENCODING_MULTIGRID,
        ),
    ]


@dataclass
class BenchResult:
    name: str
    params: int
    epochs_to_threshold: int | None
    wall_seconds: float
    final_mse: float


def supervised_bench(
    target=sine_wave_target,
    variants: list | None = None,
    threshold: float = 2e-6,
    learning_rate: float = 5e-3,
    optimizer: str = "adam",
    batch_size: int = 1024,
    max_epochs: int = 20000,
    eval_every: int = 25,
    eval_resolution: int = 64,
    seed: int = 0,
    progress=None,
) -> list:
    """Train each architecture variant on the analytic target until its dense
    MSE drops below ``threshold``; report epochs-to-threshold and wall time.

    All variants must sit within ``BUDGET_TOLERANCE`` of one another in
    parameter count, else BudgetMismatch.
    """
    variants = variants if variants is not None else default_bench_variants()
    counts = [v.count() for v in variants]
    if max(counts) - min(counts) > BUDGET_TOLERANCE * min(counts):
        raise BudgetMismatch(
            f"parameter budgets differ by more than {BUDGET_TOLERANCE:.1%}: {counts}"
        )

    axis = (np.arange(eval_resolution) + 0.5) / eval_resolution
    gu, gv = np.meshgrid(axis, axis)
    eval_pts = np.stack([gu.ravel(), gv.ravel()], axis=1)
    eval_target = target(eval_pts)

    results = []
    for variant in variants:
        model = init_model(
            variant.encoder,
            variant.mlp_dims,
            seed,
            encoding=variant.encoding,
            num_frequencies=variant.num_frequencies,
        )
        opt = OptimizerState.create(optimizer, model.param_arrays())
        rng = np.random.default_rng(seed)
        hit = None
        start = time.perf_counter()

        def dense_mse():
            out, _ = forward_batch(model, eval_pts)
            resid = out.astype(np.float64) - eval_target
            return float((resid**2).mean())

        if dense_mse() < threshold:
            hit = 0
        epoch = 0
        while hit is None and epoch < max_epochs:
            pts = rng.random((batch_size, 2))
            y = target(pts)
            out, tape = forward_batch(model, pts, record_tape=True)
            resid = out.astype(np.float64) - y
            upstream = (2.0 / resid.size) * resid
            grads = backward(model, tape, upstream)
            opt.step(model.param_arrays(), grads.arrays(), learning_rate)
            epoch += 1
            if epoch % eval_every == 0 and dense_mse() < threshold:
                hit = epoch
        wall = time.perf_counter() - start
        final = dense_mse()
        results.append(BenchResult(variant.name, variant.count(), hit, wall, final))
        if progress is not None:
            progress(results[-1])
    return results
