import dataclasses
import os
import threading

import numpy as np
import pytest

from drapefit import (
    DiscretePdf,
    EncoderConfig,
    LossWeights,
    PhysicsConstants,
    SamplerConfig,
    TrainConfig,
    TrainState,
    detect_convergence,
    evaluate_dense,
    icosphere,
    init_model,
    mesh_connectivity_baseline,
    run_epochs,
    square_cloth,
    square_cloth_with_hole,
    supervised_bench,
    torus,
    train,
    train_epoch,
)
from drapefit.errors import AllPointsInvalid, BudgetMismatch, ConfigError, NonFiniteLoss
from drapefit.surface import backward, forward_batch, load_checkpoint
from drapefit.trainer import (
    BenchVariant,
    MeshGraph,
    OptimizerState,
    adjacent_face_pairs,
    epochs_to_convergence,
    load_train_state,
    mesh_edges,
    save_train_state,
    sine_wave_target,
    _mesh_losses,
)


def tiny_config(**over):
    base = dict(
        epochs=3,
        learning_rate=1e-4,
        weights=LossWeights(strain=0.01, bend=0.001, gravity=0.5, collision=100.0),
        consts=PhysicsConstants(),
        sampler=SamplerConfig(n_points=12, pdf_rows=4, pdf_cols=4, lloyd_iterations=1),
        encoder=EncoderConfig((9, 4), 3),
        mlp_hidden=(8, 8, 8),
        structure_side=0.01,
        seed=5,
    )
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_scene():
    mesh = square_cloth(12)
    sphere = icosphere(2, 0.22, (0.5, 0.5, -0.15))
    return mesh, sphere


class TestOptimizer:
    def test_sgd_one_parameter_closed_form(self):
        # L = theta^2 so the gradient is 2*theta and one step multiplies
        # theta by (1 - 2*alpha)
        theta = np.array([0.8])
        alpha = 0.05
        OptimizerState.create("sgd", [theta]).step([theta], [2.0 * theta], alpha)
        assert theta[0] == pytest.approx(0.8 * (1 - 2 * alpha), rel=1e-12)

    def test_adam_zero_gradient_is_noop(self):
        model = init_model(EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3], seed=0)
        before = [a.copy() for a in model.param_arrays()]
        opt = OptimizerState.create("adam", model.param_arrays())
        from drapefit.surface import GradientBuffer

        opt.step(model.param_arrays(), GradientBuffer.zeros_like(model).arrays(), 0.1)
        for a, b in zip(model.param_arrays(), before):
            assert np.array_equal(a, b)

    def test_sgd_step_direction_identity(self):
        model = init_model(
            EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3], seed=2, dtype=np.float64
        )
        rng = np.random.default_rng(0)
        for a in model.param_arrays():
            a += rng.normal(0, 0.1, a.shape)
        pts = rng.random((10, 2))
        out, tape = forward_batch(model, pts, record_tape=True)
        grads = backward(model, tape, 2.0 * out)
        before = [a.copy() for a in model.param_arrays()]
        alpha = 1e-3
        OptimizerState.create("sgd", model.param_arrays()).step(
            model.param_arrays(), grads.arrays(), alpha
        )
        dot = sum(
            float(((a - b) * g).sum())
            for a, b, g in zip(model.param_arrays(), before, grads.arrays())
        )
        norm2 = sum(float((g * g).sum()) for g in grads.arrays())
        assert dot == pytest.approx(-alpha * norm2, rel=1e-6)


class TestTrainEpoch:
    def test_zero_weights_leave_parameters_unchanged(self, small_scene):
        mesh, sphere = small_scene
        config = tiny_config(weights=LossWeights(0, 0, 0, 0))
        state = TrainState.fresh(config)
        before = [a.copy() for a in state.model.param_arrays()]
        train_epoch(state, config, mesh, sphere)
        for a, b in zip(state.model.param_arrays(), before):
            assert np.array_equal(a, b)

    def test_epoch_is_bit_deterministic(self, small_scene):
        mesh, sphere = small_scene
        results = []
        for _ in range(2):
            config = tiny_config()
            state = TrainState.fresh(config)
            train_epoch(state, config, mesh, sphere)
            results.append([a.copy() for a in state.model.param_arrays()])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_history_totals_identity(self, small_scene):
        mesh, sphere = small_scene
        config = tiny_config(epochs=4)
        model, history, _ = train(config, mesh, sphere)
        w = config.weights
        for row in history:
            recombined = (
                w.strain * row["strain"]
                + w.bend * row["bend"]
                + w.gravity * row["gravity"]
                + w.collision * row["collision"]
            )
            assert row["total"] == pytest.approx(recombined, rel=1e-9)

    def test_uniform_equals_adaptive_with_mu_zero_and_no_lloyd(self, small_scene):
        mesh, sphere = small_scene
        runs = []
        for mode, mu in (("adaptive", 0.0), ("uniform", 0.5)):
            config = tiny_config(
                epochs=3,
                sampling_mode=mode,
                sampler=SamplerConfig(
                    n_points=12, pdf_rows=4, pdf_cols=4, lloyd_iterations=0, mu=mu
                ),
            )
            model, _, _ = train(config, mesh, sphere)
            runs.append([a.copy() for a in model.param_arrays()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_all_points_invalid(self):
        mesh = square_cloth(4)
        config = tiny_config(structure_side=0.9, max_resample=2)
        state = TrainState.fresh(config)
        with pytest.raises(AllPointsInvalid):
            train_epoch(state, config, mesh, None)

    def test_non_finite_loss_detected(self, small_scene):
        mesh, sphere = small_scene
        config = tiny_config()
        state = TrainState.fresh(config)
        state.model.mlp.biases[-1][:] = np.inf
        with pytest.raises(NonFiniteLoss):
            train_epoch(state, config, mesh, sphere)

    def test_patches_in_a_hole_are_resampled(self, monkeypatch):
        import drapefit.trainer

        invalid = []
        validity = drapefit.trainer.structure_validity

        def counting(*args, **kwargs):
            valid = validity(*args, **kwargs)
            invalid.append(int((~valid).sum()))
            return valid

        monkeypatch.setattr(drapefit.trainer, "structure_validity", counting)
        config = tiny_config(max_resample=10)
        state = TrainState.fresh(config)
        train_epoch(state, config, square_cloth_with_hole(9), None)
        # the first draw lands some patches in the hole; resampling replaces them
        assert invalid[0] > 0 and len(invalid) > 1 and invalid[-1] == 0
        assert state.history[-1]["n_points"] == config.sampler.n_points

    def test_batch_inside_a_hole_is_all_invalid(self):
        # all adaptive draws from PDF cells inside the hole, no Lloyd moves,
        # no resampling
        config = tiny_config(
            max_resample=0,
            sampler=SamplerConfig(n_points=12, pdf_rows=4, pdf_cols=4, lloyd_iterations=0,
                                  mu=1.0, gamma=1.0),
        )
        state = TrainState.fresh(config)
        probs = np.zeros((4, 4))
        probs[1:3, 1:3] = 0.25
        state.pdf = DiscretePdf(probs)
        with pytest.raises(AllPointsInvalid):
            train_epoch(state, config, square_cloth_with_hole(9), None)

    def test_border_points_resampled_not_fatal(self):
        # a garment covering a thin UV strip forces constant resampling
        mesh = square_cloth(12)
        config = tiny_config(structure_side=0.02, max_resample=10)
        state = TrainState.fresh(config)
        train_epoch(state, config, mesh, None)
        assert state.history[-1]["n_points"] >= 1


class TestTrain:
    def test_free_fall_total_strictly_decreases(self):
        mesh = square_cloth(10)
        config = tiny_config(
            epochs=100,
            weights=LossWeights(strain=0, bend=0, gravity=1.0, collision=0),
            learning_rate=1e-4,
            optimizer="sgd",
            early_stop=False,
        )
        model, history, _ = train(config, mesh, None)
        totals = np.array([row["total"] for row in history])
        assert np.all(np.diff(totals) < 0)

    def test_zero_weight_run_returns_initialized_model(self, small_scene):
        mesh, sphere = small_scene
        config = tiny_config(epochs=2, weights=LossWeights(0, 0, 0, 0))
        model, history, _ = train(config, mesh, sphere)
        fresh = config.build_model()
        for a, b in zip(model.param_arrays(), fresh.param_arrays()):
            assert np.array_equal(a, b)

    def test_csv_log_and_checkpoints(self, small_scene, tmp_path):
        mesh, sphere = small_scene
        config = tiny_config(epochs=4, checkpoint_every=2, out_dir=str(tmp_path / "run"))
        model, history, paths = train(config, mesh, sphere)
        log = (tmp_path / "run" / "loss_log.csv").read_text().strip().splitlines()
        assert log[0] == "epoch,strain,bend,gravity,collision,total,min_spacing,epoch_ms"
        assert len(log) == 1 + 4
        assert len(paths) == 2  # epochs 2 and 4

    def test_early_stop_on_flat_history(self, small_scene):
        mesh, sphere = small_scene
        # zero weights give a perfectly flat loss history, so the convergence
        # window fires as soon as it has 2W epochs
        config = tiny_config(
            epochs=50,
            weights=LossWeights(0, 0, 0, 0),
            convergence_window=5,
            early_stop=True,
        )
        model, history, _ = train(config, mesh, sphere)
        assert len(history) == 10

    def test_early_stop_off_period_saves_the_returned_model(self, tmp_path):
        # periodic checkpoints at epochs 3, 6 and 9; the flat history
        # converges at epoch 10, which must be saved too
        config = tiny_config(
            epochs=50,
            weights=LossWeights(0, 0, 0, 0),
            convergence_window=5,
            checkpoint_every=3,
            out_dir=str(tmp_path / "run"),
        )
        model, history, paths = train(config, square_cloth(6), None)
        assert len(history) == 10
        assert [os.path.basename(p) for p in paths] == [
            f"epoch{e:06d}.ckpt" for e in (3, 6, 9, 10)
        ]
        saved = load_checkpoint(paths[-1])
        for a, b in zip(saved.param_arrays(), model.param_arrays(), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_invalid_config_lists_all_problems(self):
        config = tiny_config(epochs=0, learning_rate=-1.0, optimizer="bogus")
        with pytest.raises(ConfigError) as err:
            train(config, square_cloth(4), None)
        msg = str(err.value)
        assert "epochs" in msg and "learning_rate" in msg and "optimizer" in msg


class TestResume:
    def test_bit_identical_resume(self, small_scene, tmp_path):
        mesh, sphere = small_scene
        config = tiny_config(epochs=6, optimizer="adam")

        state = TrainState.fresh(config)
        for _ in range(3):
            train_epoch(state, config, mesh, sphere)
        save_train_state(state, str(tmp_path / "snap"))
        for _ in range(3):
            train_epoch(state, config, mesh, sphere)
        reference = [a.copy() for a in state.model.param_arrays()]

        resumed = load_train_state(str(tmp_path / "snap"))
        assert resumed.epoch == 3
        run_epochs(resumed, config, mesh, sphere)
        assert resumed.epoch == 6
        for a, b in zip(resumed.model.param_arrays(), reference):
            assert np.array_equal(a, b)
        assert [r["total"] for r in resumed.history] == pytest.approx(
            [r["total"] for r in state.history]
        )


class TestConvergence:
    def test_flat_history_is_converged(self):
        assert detect_convergence([3.0] * 400, 200, 1e-4)

    def test_geometric_decay_not_converged(self):
        totals = 5.0 * 0.9 ** np.arange(100)
        assert not detect_convergence(totals, 20, 1e-4)

    def test_short_history_not_converged(self):
        assert not detect_convergence([1.0] * 30, 200, 1e-4)

    def test_plateau_detected_within_two_windows(self):
        w = 50
        decay = 4.0 * 0.9 ** np.arange(500)
        plateau = np.full(300, decay[-1] * 0.9)
        totals = np.concatenate([decay, plateau])
        hit = epochs_to_convergence(totals, w, 1e-4)
        assert hit is not None
        assert 450 < hit <= 500 + 2 * w


class TestMeshConnectivity:
    def test_vertex_baseline_free_variable_count(self):
        mesh = square_cloth(128)
        config = tiny_config(epochs=1, weights=LossWeights(0, 0, 0, 0))
        result = mesh_connectivity_baseline(mesh, None, config, variant="vertices")
        assert result.free_variables == 49152

    def test_model_baseline_default_budget(self):
        mesh = square_cloth(16)
        config = tiny_config(
            epochs=1,
            encoder=EncoderConfig((101, 51), 3),
            mlp_hidden=(64, 64, 64),
            weights=LossWeights(0, 0, 0, 0),
        )
        result = mesh_connectivity_baseline(mesh, None, config, variant="model")
        assert result.free_variables == 47369

    def test_rest_is_fixed_point_without_external_forces(self):
        mesh = square_cloth(10)
        config = tiny_config(
            epochs=3,
            weights=LossWeights(strain=1.0, bend=1.0, gravity=0.0, collision=0.0),
        )
        result = mesh_connectivity_baseline(mesh, None, config, variant="vertices")
        assert np.array_equal(result.positions, mesh.vertices)
        assert all(row["total"] == 0.0 for row in result.history)

    def test_vertex_baseline_falls_under_gravity(self):
        mesh = square_cloth(8)
        config = tiny_config(
            epochs=5,
            learning_rate=1e-3,
            weights=LossWeights(strain=0, bend=0, gravity=1.0, collision=0),
        )
        result = mesh_connectivity_baseline(mesh, None, config, variant="vertices")
        assert np.all(result.positions[:, 2] < 0)
        totals = [row["total"] for row in result.history]
        assert np.all(np.diff(totals) < 0)

    def test_diverging_baseline_raises_non_finite_loss(self):
        config = tiny_config(epochs=4, learning_rate=1e300)
        with pytest.raises(NonFiniteLoss):
            mesh_connectivity_baseline(square_cloth(12), None, config, variant="model")

    def test_diverging_baseline_with_collider_raises_non_finite_loss(self):
        # the contact search must not see the non-finite positions first
        config = tiny_config(epochs=4, learning_rate=1e300)
        sphere = icosphere(1, 0.3, (0.5, 0.5, -0.31))
        with pytest.raises(NonFiniteLoss):
            mesh_connectivity_baseline(square_cloth(12), sphere, config, variant="model")

    def test_mesh_mode_writes_periodic_checkpoints(self, tmp_path):
        config = tiny_config(epochs=6, checkpoint_every=3, sampling_mode="mesh_connectivity",
                             out_dir=str(tmp_path / "run"))
        _, history, paths = train(config, square_cloth(12), None)
        assert [os.path.basename(p) for p in paths] == ["epoch000003.ckpt", "epoch000006.ckpt"]
        assert all(os.path.exists(p[:-len(".ckpt")] + ".state.npz") for p in paths)
        log = (tmp_path / "run" / "loss_log.csv").read_text().strip().splitlines()
        assert len(log) == 1 + len(history) == 7

    def test_mesh_mode_stops_early_on_flat_history(self):
        config = tiny_config(epochs=50, weights=LossWeights(0, 0, 0, 0), convergence_window=5,
                             sampling_mode="mesh_connectivity")
        _, history, _ = train(config, square_cloth(12), None)
        assert len(history) == 10

    def test_diverging_mesh_run_leaves_diagnostics_and_its_log(self, tmp_path):
        out = tmp_path / "run"
        config = tiny_config(epochs=4, learning_rate=1e300, sampling_mode="mesh_connectivity",
                             out_dir=str(out))
        with pytest.raises(NonFiniteLoss):
            train(config, square_cloth(12), None)
        dump = (out / "diagnostics.txt").read_text().splitlines()
        completed = int(dump[0].split()[1])
        log = (out / "loss_log.csv").read_text().strip().splitlines()
        assert completed >= 1 and len(log) == 1 + completed

    def test_mesh_mode_resumes_bit_identically(self, tmp_path):
        mesh = square_cloth(12)
        sphere = icosphere(1, 0.3, (0.5, 0.5, -0.31))
        config = tiny_config(epochs=6, learning_rate=1e-3, optimizer="adam", checkpoint_every=3,
                             sampling_mode="mesh_connectivity", out_dir=str(tmp_path / "run"))
        model, history, _ = train(config, mesh, sphere)
        resumed = load_train_state(str(tmp_path / "run" / "epoch000003"))
        assert resumed.epoch == 3
        again, again_history, _ = run_epochs(
            resumed, dataclasses.replace(config, out_dir=None), mesh, sphere
        )
        for a, b in zip(again.param_arrays(), model.param_arrays(), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert [r["total"] for r in again_history] == [r["total"] for r in history]

    @pytest.mark.parametrize("case", ["cloth4", "cloth33", "torus", "shuffled"])
    def test_topology_helpers_match_row_sorts(self, case):
        tris = {
            "cloth4": lambda: square_cloth(4).triangles,
            "cloth33": lambda: square_cloth(33).triangles,
            "torus": lambda: torus().triangles,
            "shuffled": lambda: np.random.default_rng(3).permutation(
                np.roll(square_cloth(9).triangles, 1, axis=1)
            ),
        }[case]()
        raw = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        raw = np.sort(raw, axis=1)
        edges = mesh_edges(tris)
        assert edges.dtype == np.int64
        assert np.array_equal(edges, np.unique(raw, axis=0))
        order = np.lexsort((raw[:, 1], raw[:, 0]))
        owner = np.tile(np.arange(len(tris)), 3)[order]
        same = np.all(raw[order][1:] == raw[order][:-1], axis=1)
        want = np.stack([owner[:-1][same], owner[1:][same]], axis=1)
        assert np.array_equal(adjacent_face_pairs(tris), want)

    def test_mesh_gradients_match_finite_differences(self, curved_mesh):
        # each term alone and the weighted sum, over every vertex coordinate
        graph = MeshGraph.build(curved_mesh)
        rng = np.random.default_rng(11)
        positions = curved_mesh.vertices + rng.normal(0, 0.01, curved_mesh.vertices.shape)
        sphere = icosphere(2, 0.3, (0.5, 0.5, -0.22))
        consts = PhysicsConstants(collision_epsilon=0.01)
        h = 1e-6
        # some vertices penetrate, and none is within 10h of the s = 0 kink or
        # of a change of its nearest collider vertex
        dist, near = sphere.index._tree.query(positions, k=2)
        s = np.einsum(
            "kd,kd->k", positions - sphere.vertices[near[:, 0]], sphere.normals[near[:, 0]]
        ) - consts.collision_epsilon
        assert (s < 0).sum() >= 4 and np.abs(s).min() > 10 * h
        assert (dist[:, 1] - dist[:, 0]).min() > 10 * h

        def total(pos, weights):
            sums, _ = _mesh_losses(pos, graph, sphere, weights, consts, "relative", False)
            return weights.total(**sums)

        for weights in (
            LossWeights(1.0, 0, 0, 0),
            LossWeights(0, 1.0, 0, 0),
            LossWeights(0, 0, 1.0, 0),
            LossWeights(0, 0, 0, 5.0),
            LossWeights(1.3, 0.7, 2.1, 5.0),
        ):
            _, grad = _mesh_losses(
                positions, graph, sphere, weights, consts, "relative", True
            )
            assert np.any(grad != 0)
            fd = np.zeros_like(positions)
            for k in np.ndindex(positions.shape):
                up, dn = positions.copy(), positions.copy()
                up[k] += h
                dn[k] -= h
                fd[k] = (total(up, weights) - total(dn, weights)) / (2 * h)
            assert np.all(np.abs(fd - grad) <= np.maximum(1e-4 * np.abs(fd), 1e-8)), weights

    def test_topology_helpers(self):
        mesh = square_cloth(4)
        edges = mesh_edges(mesh.triangles)
        # 4x4 grid: 24 axis edges + 9 diagonals
        assert len(edges) == 33
        pairs = adjacent_face_pairs(mesh.triangles)
        # interior edges: each diagonal (9) plus inner axis edges (12)
        assert len(pairs) == 21


class TestEvaluateDense:
    def test_rest_state_zero_without_gravity(self, small_scene):
        mesh, _ = small_scene
        far = icosphere(1, 0.1, (0.5, 0.5, -9.0))
        model = init_model(EncoderConfig((9, 4), 3), [6, 8, 8, 8, 3], seed=0)
        report = evaluate_dense(
            model, mesh, far, 16, LossWeights(), PhysicsConstants(), seed=1, side=0.01
        )
        assert report.breakdown.strain == 0
        assert report.breakdown.bend == 0
        assert report.breakdown.collision == 0
        assert report.penetration_fraction == 0
        assert report.mean_abs_strain_ratio == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_for_fixed_seed(self, small_scene):
        mesh, sphere = small_scene
        model = init_model(
            EncoderConfig((9, 4), 3), [6, 8, 8, 8, 3], seed=3, dtype=np.float64
        )
        rng = np.random.default_rng(1)
        for a in model.param_arrays():
            a += rng.normal(0, 0.05, a.shape)
        a = evaluate_dense(model, mesh, sphere, 12, LossWeights(), PhysicsConstants(), seed=9)
        b = evaluate_dense(model, mesh, sphere, 12, LossWeights(), PhysicsConstants(), seed=9)
        assert a.breakdown.weighted_total == b.breakdown.weighted_total
        assert a.penetration_fraction == b.penetration_fraction

    def test_resolution_self_consistency_on_smooth_surface(self):
        # a smooth analytic bump: halving the cell size changes the dense
        # estimate by a few percent at most
        mesh = square_cloth(24)
        model = init_model(
            EncoderConfig((9, 4), 3), [6, 16, 16, 16, 3], seed=0, dtype=np.float64
        )
        for g in model.grids:
            g.features[:] = 0
        for w, b in zip(model.mlp.weights, model.mlp.biases):
            w[:] = 0
            b[:] = 0
        for layer in (0, 1, 2, 3):
            for k in range(3):
                model.mlp.weights[layer][k, k] = 1.0
        ii, jj = np.meshgrid(np.arange(9), np.arange(9), indexing="ij")
        model.grids[0].features[:, :, 2] = 0.03 * np.exp(
            -((ii - 4.0) ** 2 + (jj - 4.0) ** 2) / 6.0
        )
        weights = LossWeights(strain=1.0, bend=0.01, gravity=0.0, collision=0.0)
        lo = evaluate_dense(model, mesh, None, 24, weights, PhysicsConstants(), seed=4)
        hi = evaluate_dense(model, mesh, None, 48, weights, PhysicsConstants(), seed=4)
        assert hi.breakdown.weighted_total == pytest.approx(
            lo.breakdown.weighted_total, rel=0.05
        )

    def test_drape_query_scene_equals_one_pass(self, monkeypatch):
        # the serving scene: 114,688 points per request, so the forward pass
        # and the rest lookup both run in 14 row blocks; with ROW_BLOCK
        # larger than the batch both run in one pass
        import drapefit.rows

        mesh = square_cloth(256)
        collider = icosphere(5, 0.3, (0.5, 0.5, -0.31))
        weights = LossWeights(0.005, 0.0005, 2.0, 1e7)
        rng = np.random.default_rng(2)
        for seed in (1, 2):
            model = TrainConfig(epochs=1, seed=seed).build_model()
            for a in model.param_arrays():
                a += rng.normal(0.0, 0.05, a.shape).astype(a.dtype)
            blocked = evaluate_dense(model, mesh, collider, 128, weights,
                                     PhysicsConstants(), seed=seed)
            with monkeypatch.context() as m:
                m.setattr(drapefit.rows, "ROW_BLOCK", 1 << 30)
                one_pass = evaluate_dense(model, mesh, collider, 128, weights,
                                          PhysicsConstants(), seed=seed)
            assert blocked.valid_cells == 128 * 128
            assert repr(blocked) == repr(one_pass)

    def test_concurrent_callers_get_the_serial_reports(self, monkeypatch):
        # two requests at once share the row-block pool; 64² centres are
        # 28,672 points, three blocks per forward pass and per lookup
        import drapefit.rows

        monkeypatch.setattr(drapefit.rows, "POOL_SIZE", max(2, drapefit.rows.POOL_SIZE))
        mesh = square_cloth(32)
        weights = LossWeights(0.005, 0.0005, 2.0, 1e7)
        rng = np.random.default_rng(6)
        models = []
        for seed in (1, 2):
            model = TrainConfig(epochs=1, seed=seed).build_model()
            for a in model.param_arrays():
                a += rng.normal(0.0, 0.05, a.shape).astype(a.dtype)
            models.append(model)

        def request(model, collider, seed):
            return evaluate_dense(model, mesh, collider, 64, weights, PhysicsConstants(),
                                  seed=seed)

        def sphere():
            return icosphere(3, 0.3, (0.5, 0.5, -0.31))

        serial = [repr(request(model, sphere(), seed)) for seed, model in enumerate(models)]
        for _ in range(20):
            # one fresh collider for both, so both fill its voxel cache at once
            collider = sphere()
            got = [None, None]

            def call(k):
                got[k] = repr(request(models[k], collider, k))

            threads = [threading.Thread(target=call, args=(k,), daemon=True) for k in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert got == serial

    def test_penetration_of_sunken_plane(self):
        # push the whole cloth plane well inside the sphere: all structures
        # near the sphere's silhouette in UV read as penetrating
        mesh = square_cloth(16)
        sphere = icosphere(3, 0.25, (0.5, 0.5, 0.0))
        model = init_model(EncoderConfig((9, 4), 3), [6, 8, 8, 8, 3], seed=0)
        report = evaluate_dense(
            model, mesh, sphere, 24, LossWeights(), PhysicsConstants(), seed=0
        )
        # the plane z=0 cuts the sphere at its equator: the disk of radius
        # 0.25 around (0.5, 0.5) is inside, area pi r^2 ~ 0.196
        assert report.penetration_fraction == pytest.approx(np.pi * 0.25**2, abs=0.03)


class TestSupervisedBench:
    def test_budget_mismatch_raises(self):
        variants = [
            BenchVariant("a", EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3], "multigrid"),
            BenchVariant("b", None, [2, 152, 152, 152, 3], "identity"),
        ]
        with pytest.raises(BudgetMismatch):
            supervised_bench(variants=variants, max_epochs=1)

    def test_rest_target_converges_at_epoch_zero(self):
        def rest_target(points):
            return np.zeros((len(np.atleast_2d(points)), 3))

        results = supervised_bench(
            target=rest_target, threshold=1e-9, max_epochs=10, eval_every=1,
            eval_resolution=8, batch_size=8,
        )
        assert all(r.epochs_to_threshold == 0 for r in results)

    def test_sine_target_shape(self):
        out = sine_wave_target(np.array([[0.25, 0.25]]))
        assert out.shape == (1, 3)
        assert out[0, 0] == 0 and out[0, 1] == 0
