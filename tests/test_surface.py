import json
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from drapefit import (
    EncoderConfig,
    GradientBuffer,
    GridLayer,
    backward,
    bilinear_features,
    deform,
    encode,
    forward_batch,
    init_model,
    load_checkpoint,
    param_count,
    positional_encode,
    save_checkpoint,
    surface_position,
)
from drapefit.errors import (
    FormatVersionMismatch,
    InconsistentDims,
    OutOfDomain,
    ShapeMismatch,
)
import drapefit.rows
from drapefit.rows import ROW_BLOCK, gather_rows, map_blocks, row_blocks
from drapefit.surface import ENCODING_IDENTITY, ENCODING_POSITIONAL
from drapefit.trainer import default_bench_variants


def small_model(seed=3, dtype=np.float64, perturb=0.1):
    enc = EncoderConfig((5, 3), 3)
    model = init_model(enc, [6, 8, 8, 8, 3], seed=seed, dtype=dtype)
    if perturb:
        rng = np.random.default_rng(seed + 100)
        for a in model.param_arrays():
            a += rng.normal(0, perturb, a.shape).astype(a.dtype)
    return model


def reference_forward(model, p):
    """Straight-line reimplementation of the forward pass, kept independent
    of the production code paths."""
    feats = []
    for layer in model.grids:
        R = layer.resolution
        x = p[0] * (R - 1)
        y = p[1] * (R - 1)
        i0 = min(int(np.floor(x)), R - 2)
        j0 = min(int(np.floor(y)), R - 2)
        tx, ty = x - i0, y - j0
        f = (
            layer.features[i0, j0] * (1 - tx) * (1 - ty)
            + layer.features[i0, j0 + 1] * (1 - tx) * ty
            + layer.features[i0 + 1, j0] * tx * (1 - ty)
            + layer.features[i0 + 1, j0 + 1] * tx * ty
        )
        feats.append(f)
    a = np.concatenate(feats)
    for k, (w, b) in enumerate(zip(model.mlp.weights, model.mlp.biases)):
        z = a @ w + b
        a = np.maximum(z, 0) if k < len(model.mlp.weights) - 1 else z
    return a


class TestParamCount:
    def test_multigrid_matches_published_total(self):
        assert param_count(EncoderConfig((101, 51), 3), [6, 64, 64, 64, 3]) == 47369

    def test_plain_mlp_budget(self):
        assert param_count(None, [2, 152, 152, 152, 3]) == 47427

    def test_positional_budget(self):
        assert param_count(None, [18, 148, 148, 148, 3]) == 47363

    def test_model_agrees_with_formula(self):
        model = small_model()
        assert model.param_count() == param_count(EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3])


class TestInit:
    def test_fresh_model_deforms_to_zero(self):
        model = init_model(EncoderConfig((11, 5), 3), [6, 16, 16, 16, 3], seed=0)
        rng = np.random.default_rng(1)
        out, _ = forward_batch(model, rng.random((64, 2)))
        assert np.all(out == 0.0)

    def test_same_seed_bit_identical(self):
        a = init_model(EncoderConfig(), [6, 64, 64, 64, 3], seed=7)
        b = init_model(EncoderConfig(), [6, 64, 64, 64, 3], seed=7)
        for x, y in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(x, y)

    def test_default_config_parameter_total(self):
        model = init_model(EncoderConfig(), [6, 64, 64, 64, 3], seed=0)
        assert model.param_count() == 47369

    def test_grid_init_range(self):
        model = init_model(EncoderConfig((21, 9), 2), [4, 8, 3], seed=2)
        for g in model.grids:
            assert np.abs(g.features).max() <= 1e-4

    def test_inconsistent_dims(self):
        with pytest.raises(InconsistentDims):
            init_model(EncoderConfig((5, 3), 3), [7, 8, 3], seed=0)
        with pytest.raises(InconsistentDims):
            init_model(EncoderConfig((5, 3), 3), [6, 8, 4], seed=0)
        with pytest.raises(InconsistentDims):
            EncoderConfig((3, 5))  # not decreasing


class TestBilinear:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.layer = GridLayer(7, 3, rng.normal(0, 1, (7, 7, 3)))

    def test_reproduces_nodes(self):
        for i in (0, 3, 6):
            for j in (0, 2, 6):
                p = (i / 6, j / 6)
                assert np.allclose(
                    bilinear_features(self.layer, p), self.layer.features[i, j],
                    atol=1e-12,
                )

    def test_constant_grid_partition_of_unity(self):
        layer = GridLayer(5, 2, np.full((5, 5, 2), 3.25))
        rng = np.random.default_rng(4)
        for p in rng.random((200, 2)):
            assert np.allclose(bilinear_features(layer, p), 3.25, atol=1e-12)

    def test_cell_center_is_corner_mean(self):
        p = (0.5 / 6, 0.5 / 6)
        expected = self.layer.features[:2, :2].mean(axis=(0, 1))
        assert np.allclose(bilinear_features(self.layer, p), expected, atol=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            bilinear_features(self.layer, (1.001, 0.5))
        # within tolerance is clipped, not rejected
        bilinear_features(self.layer, (1.0 + 1e-13, 0.5))


class TestEncode:
    def test_concatenation_order(self):
        model = small_model()
        p = (0.37, 0.71)
        vec = encode(model, p)
        assert len(vec) == 6
        assert np.allclose(vec[:3], bilinear_features(model.grids[0], p))
        assert np.allclose(vec[3:], bilinear_features(model.grids[1], p))

    def test_zero_grids_zero_vector(self):
        model = init_model(EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3], seed=0)
        for g in model.grids:
            g.features[:] = 0
        assert np.all(encode(model, (0.2, 0.9)) == 0)

    def test_componentwise_matches_per_layer(self):
        model = small_model(seed=12)
        rng = np.random.default_rng(2)
        for p in rng.random((50, 2)):
            vec = encode(model, p)
            per = np.concatenate(
                [bilinear_features(g, p) for g in model.grids]
            )
            assert np.allclose(vec, per, atol=1e-12)


class TestDeform:
    def test_pass_through_construction(self):
        # grids hold a constant positive vector; first layer of the MLP copies
        # the first three features, later layers forward them unchanged
        model = init_model(EncoderConfig((4, 2), 3), [6, 8, 8, 8, 3], seed=0)
        const = np.array([0.2, 0.5, 0.9])
        for g in model.grids:
            g.features[:] = 0
        model.grids[0].features[:, :, :] = const
        for w, b in zip(model.mlp.weights, model.mlp.biases):
            w[:] = 0
            b[:] = 0
        for k in range(3):
            model.mlp.weights[0][k, k] = 1.0
            model.mlp.weights[1][k, k] = 1.0
            model.mlp.weights[2][k, k] = 1.0
            model.mlp.weights[3][k, k] = 1.0
        rng = np.random.default_rng(3)
        for p in rng.random((20, 2)):
            assert np.allclose(deform(model, p), const, atol=1e-12)

    def test_constant_offset_construction(self):
        model = small_model(perturb=0.0)
        model.mlp.biases[-1][:] = [0.0, 0.0, 1.0]
        assert np.allclose(deform(model, (0.3, 0.3)), [0, 0, 1], atol=1e-12)

    def test_matches_reference_forward(self):
        model = small_model(seed=5)
        rng = np.random.default_rng(6)
        for p in rng.random((100, 2)):
            assert np.allclose(deform(model, p), reference_forward(model, p), atol=1e-12)

    def test_continuity(self):
        model = small_model(seed=8)
        rng = np.random.default_rng(9)
        delta = 1e-9
        for p in rng.uniform(0.05, 0.95, (50, 2)):
            q = p + delta / np.sqrt(2)
            assert np.linalg.norm(deform(model, p) - deform(model, q)) < 1e-6


class TestSurfacePosition:
    def test_initialized_model_is_rest(self, curved_mesh):
        model = init_model(EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3], seed=0)
        from drapefit import rest_position

        for p in [(0.2, 0.3), (0.7, 0.8)]:
            assert np.allclose(
                surface_position(model, curved_mesh, p), rest_position(curved_mesh, p)
            )

    def test_offset_model(self, planar_mesh):
        model = small_model(perturb=0.0)
        model.mlp.biases[-1][:] = [0.0, 0.0, 1.0]
        assert np.allclose(
            surface_position(model, planar_mesh, (0.25, 0.75)), [0.25, 0.75, 1.0]
        )

    def test_sum_of_oracles(self, curved_mesh):
        from drapefit import rest_position

        model = small_model(seed=14)
        rng = np.random.default_rng(10)
        for p in rng.uniform(0.02, 0.98, (30, 2)):
            expect = rest_position(curved_mesh, p) + reference_forward(model, p)
            assert np.allclose(surface_position(model, curved_mesh, p), expect, atol=1e-12)


class TestPositionalEncode:
    def test_zero_frequencies(self):
        assert np.allclose(positional_encode((0.3, 0.8), 0), [0.3, 0.8])

    def test_origin(self):
        vec = positional_encode((0.0, 0.0), 3)
        sins = vec[2::2][:6]
        coss = vec[3::2][:6]
        assert np.allclose(vec[:2], 0)
        assert np.allclose(sins, 0)
        assert np.allclose(coss, 1)

    def test_length_matches_mlp_input(self):
        assert len(positional_encode((0.1, 0.2), 4)) == 18

    def test_frequency_layout(self):
        u, v = 0.21, 0.77
        vec = positional_encode((u, v), 2)
        expect = [u, v]
        for k in range(2):
            f = (2.0**k) * np.pi
            expect += [np.sin(f * u), np.cos(f * u), np.sin(f * v), np.cos(f * v)]
        assert np.allclose(vec, expect)


class TestBackward:
    def test_zero_upstream_zero_gradient(self):
        model = small_model()
        out, tape = forward_batch(model, np.random.default_rng(0).random((5, 2)), record_tape=True)
        buf = backward(model, tape, np.zeros((5, 3)))
        assert all(np.all(a == 0) for a in buf.arrays())

    def test_zero_final_layer_routes_to_bias_only(self):
        # squared-norm loss at one point with a zero output layer: the only
        # nonzero gradient path is the output layer itself, and its weight
        # gradient follows d(|y|^2) = 2 y = 0, so just the structure matters
        model = small_model(perturb=0.0)
        p = np.array([[0.4, 0.6]])
        out, tape = forward_batch(model, p, record_tape=True)
        buf = backward(model, tape, 2.0 * out)  # d|y|^2/dy with y = 0
        assert all(np.all(g == 0) for g in buf.arrays())
        # a constant cotangent reaches the output bias even with zero weights
        buf = backward(model, tape, np.ones((1, 3)))
        assert np.allclose(buf.biases[-1], [1, 1, 1])
        assert np.all(buf.grids[0] == 0)  # blocked by the zero weight matrices

    def test_untouched_nodes_stay_zero(self):
        model = small_model(seed=2)
        p = np.array([[0.05, 0.05]])  # only the corner cell of each grid
        _, tape = forward_batch(model, p, record_tape=True)
        buf = backward(model, tape, np.ones((1, 3)))
        g = buf.grids[0]
        touched = np.zeros((5, 5), dtype=bool)
        touched[:2, :2] = True
        assert np.all(g[~touched] == 0)

    def test_finite_difference_full_model(self):
        model = small_model(seed=4, dtype=np.float64)
        rng = np.random.default_rng(13)
        pts = rng.random((6, 2))
        target = rng.normal(0, 1, (6, 3))

        def loss(m):
            out, _ = forward_batch(m, pts)
            return float(((out - target) ** 2).sum())

        out, tape = forward_batch(model, pts, record_tape=True)
        buf = backward(model, tape, 2.0 * (out - target))
        h = 1e-5
        for p, g in zip(model.param_arrays(), buf.arrays()):
            flat_p, flat_g = p.ravel(), g.ravel()
            for k in range(flat_p.size):
                old = flat_p[k]
                flat_p[k] = old + h
                up = loss(model)
                flat_p[k] = old - h
                dn = loss(model)
                flat_p[k] = old
                fd = (up - dn) / (2 * h)
                assert abs(fd - flat_g[k]) <= max(1e-4 * abs(fd), 1e-8)

    def test_accumulation(self):
        model = small_model(seed=6)
        pts = np.random.default_rng(1).random((4, 2))
        _, tape = forward_batch(model, pts, record_tape=True)
        up = np.ones((4, 3))
        buf = backward(model, tape, up)
        buf = backward(model, tape, up, buf=buf)
        single = backward(model, tape, 2.0 * up)
        for a, b in zip(buf.arrays(), single.arrays()):
            assert np.allclose(a, b, atol=1e-12)

    def test_shape_mismatch(self):
        model = small_model()
        _, tape = forward_batch(model, np.random.default_rng(0).random((4, 2)), record_tape=True)
        with pytest.raises(ShapeMismatch):
            backward(model, tape, np.zeros((3, 3)))
        other = init_model(EncoderConfig((9, 4), 3), [6, 8, 8, 8, 3], seed=0)
        with pytest.raises(ShapeMismatch):
            backward(model, tape, np.zeros((4, 3)), buf=GradientBuffer.zeros_like(other))

    def test_batch_matches_pointwise(self):
        # one batched pass equals the sum of per-point passes
        model = small_model(seed=9)
        rng = np.random.default_rng(2)
        pts = rng.random((8, 2))
        up = rng.normal(0, 1, (8, 3))
        _, tape = forward_batch(model, pts, record_tape=True)
        whole = backward(model, tape, up)
        acc = GradientBuffer.zeros_like(model)
        for k in range(8):
            _, t1 = forward_batch(model, pts[k : k + 1], record_tape=True)
            backward(model, t1, up[k : k + 1], buf=acc)
        for a, b in zip(whole.arrays(), acc.arrays()):
            assert np.allclose(a, b, atol=1e-10)


class TestDeterminism:
    def test_forward_and_gradients_bit_identical(self):
        pts = np.random.default_rng(3).random((16, 2))
        up = np.random.default_rng(4).normal(0, 1, (16, 3))
        outs, grads = [], []
        for _ in range(2):
            model = small_model(seed=11, dtype=np.float32)
            out, tape = forward_batch(model, pts, record_tape=True)
            buf = backward(model, tape, up)
            outs.append(out)
            grads.append(buf)
        assert np.array_equal(outs[0], outs[1])
        for a, b in zip(grads[0].arrays(), grads[1].arrays()):
            assert np.array_equal(a, b)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = small_model(seed=15, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.encoding == model.encoding
        assert back.mlp.activation == model.mlp.activation
        assert back.seed == model.seed
        for a, b in zip(model.param_arrays(), back.param_arrays()):
            assert np.array_equal(a, b)

    def test_roundtrip_other_encodings(self, tmp_path):
        for encoding, dims, nf in (
            (ENCODING_IDENTITY, [2, 8, 8, 8, 3], 0),
            (ENCODING_POSITIONAL, [10, 8, 8, 8, 3], 2),
        ):
            model = init_model(None, dims, seed=1, encoding=encoding, num_frequencies=nf)
            path = tmp_path / f"{encoding}.ckpt"
            save_checkpoint(model, path)
            back = load_checkpoint(path)
            assert back.encoding == encoding
            assert back.num_frequencies == nf
            for a, b in zip(model.param_arrays(), back.param_arrays()):
                assert np.array_equal(a, b)

    def test_truncated_file_never_partial(self, tmp_path):
        model = small_model(dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        for cut in (3, 20, len(blob) // 2):
            (tmp_path / "cut.ckpt").write_bytes(blob[:cut])
            with pytest.raises((FormatVersionMismatch, ShapeMismatch)):
                load_checkpoint(tmp_path / "cut.ckpt")

    def test_header_payload_mismatch(self, tmp_path):
        model = small_model(dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        (tmp_path / "pad.ckpt").write_bytes(blob + b"\x00\x00\x00\x00")
        with pytest.raises(ShapeMismatch):
            load_checkpoint(tmp_path / "pad.ckpt")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "junk.ckpt").write_bytes(b"something else entirely\n")
        with pytest.raises(FormatVersionMismatch):
            load_checkpoint(tmp_path / "junk.ckpt")


def reference_backward(model, tape, upstream, buf):
    """Out-of-place MLP backward, then the grid scatter one (point, corner)
    row at a time in batch order: the arithmetic ``backward`` reproduces."""
    g = np.asarray(upstream).astype(model.dtype)
    for k in range(len(model.mlp.weights) - 1, -1, -1):
        a_prev = tape.x if k == 0 else tape.activations[k - 1]
        buf.weights[k] += a_prev.T @ g
        buf.biases[k] += g.sum(axis=0)
        g = g @ model.mlp.weights[k].T
        if k > 0:
            a_k = tape.activations[k - 1]
            g = g * (a_k > 0) if model.mlp.activation == "relu" else g * (1.0 - a_k * a_k)
    col = 0
    for layer, idx, w, grad in zip(model.grids, tape.grid_idx, tape.grid_w, buf.grids):
        F = layer.feature_dim
        gx = g[:, col : col + F]
        col += F
        contrib = w[:, :, None].astype(gx.dtype) * gx[:, None, :]
        flat = grad.reshape(-1, F)
        for row, val in zip(idx.reshape(-1), contrib.reshape(-1, F)):
            flat[row] += val
    return buf


class TestExactPasses:
    """The in-place MLP passes and the flattened grid scatter change no bit."""

    @staticmethod
    def _model(dtype, activation, encoding="multigrid"):
        if encoding == "multigrid":
            model = init_model(EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3], seed=3,
                               activation=activation, dtype=dtype)
        else:
            width = 2 if encoding == ENCODING_IDENTITY else 2 + 4 * 3
            model = init_model(None, [width, 8, 8, 8, 3], seed=3, activation=activation,
                               dtype=dtype, encoding=encoding, num_frequencies=3)
        rng = np.random.default_rng(17)
        for a in model.param_arrays():
            a += rng.normal(0, 0.3, a.shape).astype(a.dtype)
        return model

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_equals_out_of_place_layers(self, dtype, activation):
        model = self._model(dtype, activation)
        out, tape = forward_batch(model, np.random.default_rng(1).random((64, 2)),
                                  record_tape=True)
        a = tape.x
        for k, (w, b) in enumerate(zip(model.mlp.weights, model.mlp.biases)):
            z = a @ w + b
            if k < len(model.mlp.weights) - 1:
                a = np.maximum(z, 0) if activation == "relu" else np.tanh(z)
                assert a.tobytes() == tape.activations[k].tobytes()
            else:
                a = z
        assert out.dtype == dtype and a.tobytes() == out.tobytes()

    @pytest.mark.parametrize("encoding", ["multigrid", ENCODING_IDENTITY, ENCODING_POSITIONAL])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_per_row_reference(self, dtype, activation, encoding):
        # the reference also forms the first layer's input cotangent, which
        # only the grid encoding reads
        model = self._model(dtype, activation, encoding)
        rng = np.random.default_rng(2)
        # 64 points on 5x5 and 3x3 grids: every node row repeats many times
        _, tape = forward_batch(model, rng.random((64, 2)), record_tape=True)
        up = rng.normal(0, 1, (64, 3))
        for prefill in (0.0, 1.0):
            got, want = GradientBuffer.zeros_like(model), GradientBuffer.zeros_like(model)
            for a, b in zip(got.arrays(), want.arrays()):
                a += prefill * rng.normal(0, 1, a.shape).astype(a.dtype)
                b[...] = a
            backward(model, tape, up, buf=got)
            reference_backward(model, tape, up, want)
            for a, b in zip(got.arrays(), want.arrays()):
                assert a.dtype == dtype and a.tobytes() == b.tobytes()

    def test_row_scatter_writes_through_a_non_contiguous_target(self):
        from drapefit.surface import scatter_add_rows

        rng = np.random.default_rng(4)
        rows = rng.integers(0, 5, (40, 2))
        vals = rng.normal(0, 1, (40, 2, 3))
        out = np.asfortranarray(rng.normal(0, 1, (5, 3)))
        want = np.ascontiguousarray(out)
        np.add.at(want, rows, vals)
        scatter_add_rows(out, rows, vals)
        assert out.tobytes(order="C") == want.tobytes()


class TestGatherRows:
    """``gather_rows`` copies exactly the rows that fancy indexing copies."""

    @pytest.mark.parametrize("shape", [(50,), (50, 1), (50, 2), (50, 3), (50, 7), (50, 3, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_fancy_indexing(self, shape, dtype):
        rng = np.random.default_rng(8)
        base = rng.normal(0, 1, shape).astype(dtype)
        index_sets = (
            rng.integers(-50, 50, 200),           # negative indices and repeats
            rng.integers(-50, 50, (40, 4)),
            np.array([3, 3, -1, 0, -50, 49]),
            rng.integers(0, 50, 30).astype(np.int32),
            rng.integers(0, 50, 30).astype(np.uint16),
            np.zeros(0, dtype=np.int64),
        )
        # a strided view and a Fortran-ordered copy take the same rows
        for a in (base, np.asfortranarray(base), base[::-1]):
            for rows in index_sets:
                got, want = gather_rows(a, rows), a[rows]
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_rejects_non_integer_indices(self):
        a = np.arange(12.0).reshape(4, 3)
        for rows in (np.array([True, False, True, False]), np.array([0.0, 1.0])):
            with pytest.raises(TypeError):
                gather_rows(a, rows)

    def test_out_of_range_raises(self):
        a = np.arange(12.0).reshape(4, 3)
        for rows in ([4], [-5], [[0, 1], [2, 7]]):
            with pytest.raises(IndexError):
                gather_rows(a, np.array(rows))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bilinear_batch_equals_the_fancy_index_form(self, monkeypatch, dtype):
        import drapefit.surface

        layer = small_model(dtype=dtype).grids[0]
        pts = np.random.default_rng(6).random((300, 2))
        pts[:4] = [[0.0, 0.0], [1.0, 1.0], [0.5, 0.25], [1.0, 0.0]]
        got = drapefit.surface._bilinear_batch(layer, pts)
        monkeypatch.setattr(drapefit.surface, "gather_rows", lambda a, rows: a[rows])
        want = drapefit.surface._bilinear_batch(layer, pts)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRowBlocks:
    """Untaped forward passes run in ``row_blocks`` and change no bit."""

    SIZES = (1, 5208, 5209, 8191, 8192, 16383, 16384, 16385, 114688)

    @pytest.mark.parametrize(
        "n", [0, 1, 5208, 8191, 8192, 8193, 16383, 16384, 16385, 24575, 24576, 114688, 114689]
    )
    def test_blocks_cover_the_range_and_are_never_short(self, n):
        blocks = list(row_blocks(n))
        rows = np.concatenate([np.arange(n)[s] for s in blocks])
        assert np.array_equal(rows, np.arange(n))
        lengths = [s.stop - s.start for s in blocks]
        assert all(s.step is None for s in blocks)
        assert min(lengths) >= min(n, ROW_BLOCK)
        assert max(lengths) <= 2 * ROW_BLOCK - 1
        assert len(blocks) == max(1, n // ROW_BLOCK)

    @staticmethod
    def _drape_model(encoding):
        # the benchmark's variant of each encoding, with the parameter noise
        # the drape-query checkpoints carry so that no layer is all zero
        variant = {v.encoding: v for v in default_bench_variants()}[encoding]
        model = init_model(variant.encoder, variant.mlp_dims, seed=5,
                           encoding=variant.encoding,
                           num_frequencies=variant.num_frequencies)
        rng = np.random.default_rng(5)
        for a in model.param_arrays():
            a += rng.normal(0.0, 0.05, a.shape).astype(a.dtype)
        return model

    @pytest.mark.parametrize("encoding", ["multigrid", ENCODING_IDENTITY, ENCODING_POSITIONAL])
    def test_blocked_forward_equals_one_pass(self, monkeypatch, encoding):
        import drapefit.surface

        model = self._drape_model(encoding)
        encode_batch = drapefit.surface._encode_batch
        encoded = []

        def counting_encode(m, pts):
            encoded.append(len(pts))
            return encode_batch(m, pts)

        monkeypatch.setattr(drapefit.surface, "_encode_batch", counting_encode)
        pts_all = np.random.default_rng(7).random((max(self.SIZES), 2))
        pts_all[:4] = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        for n in self.SIZES:
            pts = pts_all[:n]
            encoded.clear()
            out, tape = forward_batch(model, pts)
            assert tape is None
            assert sum(encoded) == n and min(encoded) >= min(n, ROW_BLOCK)
            assert len(encoded) == max(1, n // ROW_BLOCK)
            # one pass over the whole batch, layer by layer
            a, _, _ = encode_batch(model, pts)
            for k, (w, b) in enumerate(zip(model.mlp.weights, model.mlp.biases)):
                a = a @ w + b
                if k < len(model.mlp.weights) - 1:
                    a = np.maximum(a, 0)
            assert out.dtype == a.dtype == np.float32 and out.shape == (n, 3)
            assert out.tobytes() == a.tobytes(), n

    @staticmethod
    def _pooled(monkeypatch):
        # at least two workers, so the blocks leave the calling thread even
        # where the process may use one CPU only
        monkeypatch.setattr(drapefit.rows, "POOL_SIZE", max(2, drapefit.rows.POOL_SIZE))

    @pytest.mark.parametrize("encoding", ["multigrid", ENCODING_IDENTITY, ENCODING_POSITIONAL])
    def test_pooled_forward_equals_inline(self, monkeypatch, encoding):
        import drapefit.surface

        model = self._drape_model(encoding)
        encode_batch = drapefit.surface._encode_batch
        threads = set()

        def recording_encode(m, pts):
            threads.add(threading.get_ident())
            return encode_batch(m, pts)

        monkeypatch.setattr(drapefit.surface, "_encode_batch", recording_encode)
        pts_all = np.random.default_rng(8).random((114689, 2))
        pts_all[:4] = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        for n in (0, 1, 16383, 16384, 16385, 114688, 114689):
            pts = pts_all[:n]
            with monkeypatch.context() as m:
                m.setattr(drapefit.rows, "POOL_SIZE", 1)
                threads.clear()
                inline, _ = forward_batch(model, pts)
                assert threads == {threading.get_ident()}
            with monkeypatch.context() as m:
                self._pooled(m)
                threads.clear()
                pooled, _ = forward_batch(model, pts)
                # one block stays on the calling thread, several leave it
                assert (threads == {threading.get_ident()}) == (n < 2 * ROW_BLOCK), n
            assert pooled.shape == inline.shape == (n, 3)
            assert pooled.tobytes() == inline.tobytes(), n

    def test_exception_in_a_block_reaches_the_caller(self, monkeypatch):
        self._pooled(monkeypatch)

        class BlockFailed(Exception):
            pass

        done = []

        def block(rows):
            if rows.start == ROW_BLOCK:
                raise BlockFailed(rows.start)
            done.append(rows.start)

        with pytest.raises(BlockFailed) as info:
            map_blocks(block, 4 * ROW_BLOCK)
        assert info.value.args == (ROW_BLOCK,)
        # every other block ran to its end before the exception was raised
        assert sorted(done) == [0, 2 * ROW_BLOCK, 3 * ROW_BLOCK]

    def test_a_nested_call_runs_inline_on_its_worker(self):
        # with every worker busy on an outer block, a nested call that waited
        # on the pool would never return. The call runs in a child process:
        # a deadlocked pool would also hang this interpreter's exit, which
        # joins the pool's workers, so the child is killed at the timeout
        script = textwrap.dedent("""
            import json, threading
            import drapefit.rows
            from drapefit.rows import ROW_BLOCK, map_blocks

            drapefit.rows.POOL_SIZE = max(2, drapefit.rows.POOL_SIZE)
            n = drapefit.rows.POOL_SIZE * 2 * ROW_BLOCK
            nested = []  # (thread of an outer block, threads of its inner blocks)

            def outer(rows):
                inner = []
                map_blocks(lambda r: inner.append(threading.get_ident()), n)
                nested.append((threading.get_ident(), inner))

            map_blocks(outer, n)
            print(json.dumps([n // ROW_BLOCK, threading.get_ident(), nested]))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(drapefit.rows.__file__).parents[1]))
        try:
            done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            pytest.fail("nested map_blocks deadlocked")
        assert done.returncode == 0, done.stderr
        blocks, caller, nested = json.loads(done.stdout)
        assert len(nested) == blocks
        for worker, inner in nested:
            assert worker != caller
            assert inner == [worker] * blocks


class TestDomainCheck:
    @pytest.mark.parametrize(
        "bad", [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [0.5, -np.inf], [1.001, 0.5]]
    )
    def test_non_finite_or_outside_points_raise(self, bad):
        model = small_model()
        pts = np.array([[0.2, 0.3], bad, [0.7, 0.1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for record_tape in (False, True):
                with pytest.raises(OutOfDomain):
                    forward_batch(model, pts, record_tape=record_tape)
            with pytest.raises(OutOfDomain):
                deform(model, bad)
            with pytest.raises(OutOfDomain):
                encode(model, bad)
