"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5-7 train real models and take minutes; everything else is fast.
Run with ``pytest tests/test_acceptance.py -v -s`` to watch progress.
"""

import os
import time

import numpy as np
import pytest

import drapefit as df
from drapefit.cli import main as cli_main
from drapefit.config import RunConfig, save_config
from drapefit.losses import evaluate_structure_batch
from drapefit.sampler import _sample_cells_batch
from drapefit.surface import backward
from drapefit.trainer import (
    TrainConfig,
    epochs_to_convergence,
    evaluate_dense,
    mesh_connectivity_baseline,
    supervised_bench,
    train,
)

THETA_MAX = 2 * np.pi / 3


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_parameter_parity():
    multigrid = df.param_count(df.EncoderConfig((101, 51), 3), [6, 64, 64, 64, 3])
    baseline = df.param_count(None, [2, 152, 152, 152, 3])
    positional = df.param_count(None, [18, 148, 148, 148, 3])
    ok = (multigrid, baseline, positional) == (47369, 47427, 47363)
    _report(1, ok, f"param counts multigrid={multigrid} baseline={baseline} "
                   f"positional={positional} (expect 47369/47427/47363)")


def test_criterion_2_gradient_correctness(curved_mesh):
    # small 64-bit model; every parameter, each loss alone and the weighted
    # sum, against central finite differences
    model = df.init_model(
        df.EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3], seed=3, dtype=np.float64
    )
    rng = np.random.default_rng(7)
    for a in model.param_arrays():
        a += rng.normal(0, 0.05, a.shape)
    sphere = df.icosphere(2, 0.3, (0.5, 0.5, 0.05))
    consts = df.PhysicsConstants(collision_epsilon=0.01)
    centers = rng.uniform(0.2, 0.8, (4, 2))
    thetas = rng.uniform(0, THETA_MAX, 4)
    side = 0.03

    weight_sets = {
        "strain": df.LossWeights(1.0, 0, 0, 0),
        "bend": df.LossWeights(0, 1.0, 0, 0),
        "gravity": df.LossWeights(0, 0, 1.0, 0),
        "collision": df.LossWeights(0, 0, 0, 5.0),
        "weighted-sum": df.LossWeights(1.3, 0.7, 2.1, 5.0),
    }

    def total(weights):
        batch = evaluate_structure_batch(
            model, curved_mesh, sphere, centers, thetas, weights, consts, side=side
        )
        assert batch.valid.all()
        return float(weights.total(batch.strain, batch.bend, batch.gravity,
                                   batch.collision).sum())

    h = 1e-5
    worst = 0.0  # |fd - grad| scaled by the allowance max(1e-4*|fd|, 1e-8)
    for name, weights in weight_sets.items():
        batch = evaluate_structure_batch(
            model, curved_mesh, sphere, centers, thetas, weights, consts,
            side=side, want_grad=True,
        )
        grads = backward(model, batch.tape, batch.upstream)
        for p, g in zip(model.param_arrays(), grads.arrays()):
            flat_p, flat_g = p.ravel(), g.ravel()
            for k in range(flat_p.size):
                old = flat_p[k]
                flat_p[k] = old + h
                up = total(weights)
                flat_p[k] = old - h
                dn = total(weights)
                flat_p[k] = old
                fd = (up - dn) / (2 * h)
                scaled = abs(fd - flat_g[k]) / max(1e-4 * abs(fd), 1e-8)
                worst = max(worst, scaled)
        assert worst <= 1.0, f"{name}: gradient check exceeded allowance ({worst:.3f}x)"
    _report(2, worst <= 1.0, "every parameter within rel 1e-4 / abs 1e-8 of central "
                             f"differences (worst at {worst:.3f}x the allowance)")


def test_criterion_3_sampler_fidelity():
    rng = np.random.default_rng(123)
    p = rng.uniform(0.1, 1.0, (8, 8))
    p[2, 5] = 6.0
    pdf = df.DiscretePdf(p / p.sum())
    draws = np.random.default_rng(2024)
    n = 100_000
    rows, cols = _sample_cells_batch(pdf, draws.random(n), draws.random(n))
    counts = np.zeros((8, 8))
    np.add.at(counts, (rows, cols), 1.0)
    tv = 0.5 * np.abs(counts / n - pdf.probs).sum()
    marginal_tv = 0.5 * np.abs(counts.sum(axis=1) / n - pdf.probs.sum(axis=1)).sum()
    ok = tv < 0.02 and marginal_tv < 0.02
    _report(3, ok, f"TV={tv:.4f}, row-marginal TV={marginal_tv:.4f} (bound 0.02)")


def test_criterion_4_lloyd_energy():
    def cvt_energy(points, grid=256):
        axis = (np.arange(grid) + 0.5) / grid
        gx, gy = np.meshgrid(axis, axis)
        samples = np.stack([gx.ravel(), gy.ravel()], axis=1)
        d2 = ((samples[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        return float(d2.min(axis=1).mean())

    rng = np.random.default_rng(2025)
    pts = rng.random((100, 2))
    energies = [cvt_energy(pts)]
    in_domain = True
    for _ in range(10):
        pts = df.lloyd_relax(pts, 1)
        in_domain &= bool(pts.min() >= 0.0 and pts.max() <= 1.0)
        energies.append(cvt_energy(pts))
    diffs = np.diff(energies)
    ok = bool(np.all(diffs <= 1e-9)) and in_domain
    _report(4, ok, f"CVT energy steps max increase {diffs.max():.3e} "
                   f"(tolerance 1e-9), all points in domain: {in_domain}")


def test_criterion_5_encoding_benchmark_ordering():
    results = supervised_bench(
        threshold=2e-6,
        learning_rate=5e-3,
        optimizer="adam",
        batch_size=1024,
        max_epochs=6000,
        eval_every=25,
        eval_resolution=64,
        seed=0,
    )
    by_name = {r.name: r for r in results}

    def epochs(name):
        r = by_name[name]
        return r.epochs_to_threshold if r.epochs_to_threshold is not None else 6000

    e_grid = epochs("multigrid")
    e_pos = epochs("positional")
    e_base = epochs("baseline-mlp")
    ok = e_grid < e_pos < e_base and e_base >= 10 * e_grid
    _report(5, ok, f"epochs-to-threshold multigrid={e_grid} positional={e_pos} "
                   f"baseline={e_base} (ordering + >=10x gap)")


@pytest.fixture(scope="module")
def drape_run(tmp_path_factory):
    """Criterion 6 training run: 64x64 cloth over an icosphere, 3000 epochs,
    N=1024, published weights and learning rate, Adam steps."""
    out = tmp_path_factory.mktemp("drape")
    mesh = df.square_cloth(64)
    sphere = df.icosphere(4, 0.3, (0.5, 0.5, -0.31))
    config = TrainConfig(
        epochs=3000,
        learning_rate=0.0005,
        weights=df.LossWeights(0.005, 0.0005, 2.0, 1e7),
        consts=df.PhysicsConstants(),
        sampler=df.SamplerConfig(
            n_points=1024, pdf_rows=64, pdf_cols=64, lloyd_iterations=3
        ),
        optimizer="adam",
        seed=0,
        early_stop=False,
        out_dir=str(out),
    )
    t0 = time.time()
    model, history, paths = train(config, mesh, sphere)
    print(f"\n[criterion 6] 3000 epochs in {time.time() - t0:.0f}s", flush=True)
    return model, history, paths, config, mesh, sphere, out


def test_criterion_6a_loss_monotone_ema(drape_run):
    _, history, _, _, _, _, _ = drape_run
    totals = np.array([row["total"] for row in history])
    lam = 2.0 / (100 + 1)
    ema = np.empty(len(totals))
    ema[0] = totals[0]
    for k in range(1, len(totals)):
        ema[k] = (1 - lam) * ema[k - 1] + lam * totals[k]
    excess = ema[201:] - (ema[200:-1] + 0.01 * np.abs(ema[200:-1]))
    ok = bool(np.all(excess <= 0))
    _report(6, ok, f"(a) EMA(100) monotone after epoch 200 within 1%: "
                   f"worst excess {excess.max():.3e}")


def test_criterion_6b_6c_penetration_and_strain(drape_run, tmp_path, capsys):
    model, _, paths, config, mesh, sphere, out = drape_run
    # penetration via the eval command, as specified
    cfg = RunConfig()
    cfg.garment.resolution = 64
    cfg.collider.source = "icosphere"
    cfg.collider.subdivisions = 4
    cfg.collider.radius = 0.3
    cfg.collider.center = (0.5, 0.5, -0.31)
    cfg.train = config
    cfg.export.resolution = 64
    cfg.out = str(out)
    cfg_path = str(tmp_path / "drape_eval.ini")
    save_config(cfg, cfg_path)
    rc = cli_main(["eval", "--checkpoint", paths[-1], "--config", cfg_path])
    out_text = capsys.readouterr().out
    assert rc == 0
    values = dict(line.split(" = ") for line in out_text.strip().splitlines())
    penetration = float(values["penetration_fraction"])
    strain = float(values["mean_abs_strain_ratio"])
    ok = penetration < 0.01 and strain < 0.05
    _report(6, ok, f"(b) penetration {penetration:.4f} < 1%; "
                   f"(c) mean |strain ratio| {strain:.4f} < 5%")


def _criterion7_run(mode: str, seed: int, epochs: int):
    mesh = df.square_cloth(48)
    sphere = df.icosphere(4, 0.12, (0.5, 0.5, -0.13))
    config = TrainConfig(
        epochs=epochs,
        learning_rate=0.0005,
        weights=df.LossWeights(0.005, 0.0005, 2.0, 1e7),
        consts=df.PhysicsConstants(),
        sampler=df.SamplerConfig(
            n_points=256, pdf_rows=32, pdf_cols=32, lloyd_iterations=3
        ),
        optimizer="adam",
        sampling_mode=mode,
        seed=seed,
        early_stop=False,
    )
    model, history, _ = train(config, mesh, sphere)
    report = evaluate_dense(
        model, mesh, sphere, 48, config.weights, config.consts, seed=999
    )
    totals = [row["total"] for row in history]
    conv = epochs_to_convergence(totals, 200, 1e-4)
    return report.breakdown.weighted_total, conv if conv is not None else epochs + 1


def test_criterion_7_adaptive_vs_uniform():
    budget = 1200
    better_dense = 0
    better_conv = 0
    lines = []
    for seed in (0, 1, 2):
        t0 = time.time()
        a_total, a_conv = _criterion7_run("adaptive", seed, budget)
        u_total, u_conv = _criterion7_run("uniform", seed, budget)
        better_dense += a_total <= u_total
        better_conv += a_conv <= u_conv
        lines.append(
            f"seed {seed}: dense adaptive={a_total:.4f} uniform={u_total:.4f}; "
            f"convergence adaptive={a_conv} uniform={u_conv} "
            f"({time.time() - t0:.0f}s)"
        )
        print(f"\n[criterion 7] {lines[-1]}", flush=True)
    ok = better_dense >= 2 and better_conv >= 2
    _report(7, ok, f"adaptive wins dense {better_dense}/3, convergence "
                   f"{better_conv}/3 (need 2/3 each); " + " | ".join(lines))


def test_criterion_8_free_variable_contrast():
    mesh = df.square_cloth(128)
    config = TrainConfig(
        epochs=1,
        weights=df.LossWeights(0, 0, 0, 0),
        sampler=df.SamplerConfig(n_points=4, pdf_rows=2, pdf_cols=2),
    )
    vertices = mesh_connectivity_baseline(mesh, None, config, variant="vertices")
    neural = df.param_count(df.EncoderConfig((101, 51), 3), [6, 64, 64, 64, 3])
    ok = vertices.free_variables == 49152 and neural == 47369
    _report(8, ok, f"vertex optimization {vertices.free_variables} free variables "
                   f"(expect 49152); neural model {neural} (expect 47369)")


def test_criterion_9_unit_loss_analytic_suite(planar_mesh):
    """Compact re-assertion of the headline analytic examples; the module
    test files cover each in more depth."""
    from drapefit.structures import EDGES
    from tests.test_losses import flat_patch

    checks = []

    # rest-atlas: vertex/centroid barycentrics, 3-4-5 rest length
    lam = df.barycentric_coords((0.25, 0.5), (0, 0), (1, 0), (0, 1))
    checks.append(np.allclose(lam.as_array(), [0.25, 0.25, 0.5], atol=1e-12))
    checks.append(
        df.rest_length(planar_mesh, (0.0, 0.0), (0.3, 0.4)) == pytest.approx(0.5)
    )
    checks.append(
        np.allclose(df.rest_position(planar_mesh, (0.3, 0.7)), [0.3, 0.7, 0.0])
    )

    # local-structure: nine edges of length s, centroid at p
    s = df.build_structure_2d((0.5, 0.5), 0.1, 0.0)
    lengths = np.linalg.norm(s.vertices[EDGES[:, 0]] - s.vertices[EDGES[:, 1]], axis=1)
    checks.append(np.allclose(lengths, 0.1, atol=1e-12))
    checks.append(np.allclose(s.vertices[:3].mean(axis=0), [0.5, 0.5], atol=1e-12))

    # simulation-losses: doubling -> 9, stretched edge -> 0.01, folds -> 2 and 4
    patch = flat_patch()
    patch.positions = patch.positions * 2.0
    checks.append(df.strain_loss(patch) == pytest.approx(9.0))
    checks.append(df.bend_loss(flat_patch()) == 0.0)
    model = df.init_model(df.EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3], 0,
                          dtype=np.float64)
    model.mlp.biases[-1][:] = [0, 0, 2.0]
    checks.append(
        df.gravity_loss(model, planar_mesh, (0.5, 0.5), df.PhysicsConstants())
        == pytest.approx(19.62)
    )

    # adaptive-sampler: CDF inversion example, EMA blend arithmetic
    pdf2 = df.DiscretePdf.uniform(2, 2)
    checks.append(df.sample_cell(pdf2, 0.6, 0.3) == (1, 0))
    blended = df.update_pdf(df.DiscretePdf(np.array([[0.2, 0.8]])),
                            np.array([[0.4, 0.6]]), 0.5)
    checks.append(blended.probs[0, 0] == pytest.approx(0.3))
    checks.append(np.allclose(df.lloyd_relax(np.array([[0.1, 0.9]]), 1), [[0.5, 0.5]]))

    ok = all(checks)
    _report(9, ok, f"{sum(checks)}/{len(checks)} analytic spot checks hold")
