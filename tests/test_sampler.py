import numpy as np
import pytest

from drapefit import (
    DiscretePdf,
    EncoderConfig,
    LossWeights,
    PhysicsConstants,
    SamplerConfig,
    estimate_cell_losses,
    init_model,
    lloyd_relax,
    min_spacing_report,
    sample_batch,
    sample_cell,
    sample_point_in_cell,
    square_cloth,
    update_pdf,
)
from drapefit.errors import ShapeMismatch
from drapefit.sampler import _sample_cells_batch


def cvt_energy(points, grid=256):
    """Grid-quadrature CVT energy: mean squared distance to the nearest site."""
    axis = (np.arange(grid) + 0.5) / grid
    gx, gy = np.meshgrid(axis, axis)
    samples = np.stack([gx.ravel(), gy.ravel()], axis=1)
    d2 = ((samples[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).mean())


def fixed_8x8_pdf():
    rng = np.random.default_rng(123)
    p = rng.uniform(0.1, 1.0, (8, 8))
    p[2, 5] = 6.0  # a pronounced peak
    return DiscretePdf(p / p.sum())


class TestPdf:
    def test_uniform_is_normalized(self):
        pdf = DiscretePdf.uniform(5, 7)
        pdf.validate()
        assert pdf.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_update_gamma_one_keeps_pdf(self):
        pdf = fixed_8x8_pdf()
        est = DiscretePdf.uniform(8, 8).probs
        out = update_pdf(pdf, est, 1.0)
        assert np.allclose(out.probs, pdf.probs, atol=1e-15)

    def test_update_gamma_zero_takes_estimate(self):
        pdf = fixed_8x8_pdf()
        est = DiscretePdf.uniform(8, 8).probs
        out = update_pdf(pdf, est, 0.0)
        assert np.allclose(out.probs, est, atol=1e-15)

    def test_update_midpoint_arithmetic(self):
        pdf = DiscretePdf(np.array([[0.2, 0.8]]))
        est = np.array([[0.4, 0.6]])
        out = update_pdf(pdf, est, 0.5)
        assert out.probs[0, 0] == pytest.approx(0.3, abs=1e-12)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_normalization_preserved(self):
        rng = np.random.default_rng(4)
        pdf = fixed_8x8_pdf()
        for _ in range(50):
            est = rng.uniform(0, 1, (8, 8))
            est /= est.sum()
            pdf = update_pdf(pdf, est, rng.uniform(0, 1))
            assert pdf.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(pdf.probs >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            update_pdf(DiscretePdf.uniform(4, 4), np.ones((3, 3)) / 9, 0.5)


class TestSampleCell:
    def test_two_by_two_uniform(self):
        # row CDF (0.5, 1.0): u=0.6 -> second row; within it Q=(0.5, 1.0):
        # v=0.3 -> first column. In 1-based terms that is (row 2, col 1).
        pdf = DiscretePdf.uniform(2, 2)
        i, j = sample_cell(pdf, 0.6, 0.3)
        assert (i + 1, j + 1) == (2, 1)

    def test_point_mass(self):
        p = np.zeros((4, 4))
        p[2, 3] = 1.0
        pdf = DiscretePdf(p)
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert sample_cell(pdf, rng.random(), rng.random()) == (2, 3)

    def test_zero_rows_never_selected(self):
        p = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, 0.0]])
        pdf = DiscretePdf(p)
        rng = np.random.default_rng(1)
        for _ in range(500):
            i, j = sample_cell(pdf, rng.random(), rng.random())
            assert p[i, j] > 0
        # the u=0 corner must not land on the leading zero row
        assert p[sample_cell(pdf, 0.0, 0.0)] > 0

    def test_total_variation_at_1e5_draws(self):
        pdf = fixed_8x8_pdf()
        rng = np.random.default_rng(2024)
        n = 100_000
        rows, cols = _sample_cells_batch(pdf, rng.random(n), rng.random(n))
        counts = np.zeros((8, 8))
        np.add.at(counts, (rows, cols), 1.0)
        tv = 0.5 * np.abs(counts / n - pdf.probs).sum()
        assert tv < 0.02
        row_marg = pdf.probs.sum(axis=1)
        emp_rows = counts.sum(axis=1) / n
        assert 0.5 * np.abs(emp_rows - row_marg).sum() < 0.02

    def test_batch_matches_scalar(self):
        pdf = fixed_8x8_pdf()
        rng = np.random.default_rng(3)
        us, vs = rng.random(200), rng.random(200)
        rows, cols = _sample_cells_batch(pdf, us, vs)
        for k in range(200):
            assert (rows[k], cols[k]) == sample_cell(pdf, us[k], vs[k])


class TestSamplePointInCell:
    def test_one_by_one_covers_square(self):
        rng = np.random.default_rng(5)
        pts = np.array(
            [sample_point_in_cell(0, 0, (1, 1), rng) for _ in range(500)]
        )
        assert pts.min() >= 0.0 and pts.max() < 1.0
        assert pts.min(axis=0).max() < 0.1 and pts.max(axis=0).min() > 0.9

    def test_point_inside_its_cell(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            i = rng.integers(0, 8)
            j = rng.integers(0, 8)
            x, y = sample_point_in_cell(i, j, (8, 8), rng)
            assert j / 8 <= x < (j + 1) / 8
            assert i / 8 <= y < (i + 1) / 8

    def test_mean_approaches_cell_center(self):
        rng = np.random.default_rng(7)
        n = 10_000
        pts = np.array([sample_point_in_cell(3, 5, (8, 8), rng) for _ in range(n)])
        center = np.array([(5 + 0.5) / 8, (3 + 0.5) / 8])
        sigma = (1 / 8) / np.sqrt(12 * n)  # standard error of a uniform mean
        assert np.all(np.abs(pts.mean(axis=0) - center) < 3 * sigma)


class TestSampleBatch:
    def test_mu_zero_all_uniform(self):
        cfg = SamplerConfig(mu=0.0, n_points=64)
        a = sample_batch(fixed_8x8_pdf(), cfg, np.random.default_rng(9))
        b = np.random.default_rng(9).random((64, 2))
        assert np.array_equal(a, b)

    def test_mu_one_all_adaptive(self):
        p = np.zeros((4, 4))
        p[1, 2] = 1.0
        cfg = SamplerConfig(mu=1.0, n_points=32)
        pts = sample_batch(DiscretePdf(p), cfg, np.random.default_rng(10))
        assert len(pts) == 32
        assert np.all((pts[:, 0] >= 0.5) & (pts[:, 0] < 0.75))
        assert np.all((pts[:, 1] >= 0.25) & (pts[:, 1] < 0.5))

    def test_split_counts_floor(self):
        cfg = SamplerConfig(mu=0.5, n_points=10)
        pts = sample_batch(fixed_8x8_pdf(), cfg, np.random.default_rng(11))
        assert len(pts) == 10
        cfg = SamplerConfig(mu=0.55, n_points=10)  # floor(5.5) = 5 adaptive
        pts = sample_batch(fixed_8x8_pdf(), cfg, np.random.default_rng(11))
        assert len(pts) == 10


DOMAINS = ((0.0, 1.0, 0.0, 1.0), (-1.0, 3.0, 2.0, 2.5))


def domain_bounds(domain):
    xmin, xmax, ymin, ymax = domain
    return np.array([xmin, ymin]), np.array([xmax, ymax])


class TestLloyd:
    def test_single_point_moves_to_center(self):
        for domain in DOMAINS:
            lo, hi = domain_bounds(domain)
            out = lloyd_relax(lo + np.array([[0.17, 0.93]]) * (hi - lo), 1, domain)
            assert np.allclose(out, [(lo + hi) / 2], atol=1e-9), domain

    def test_mirror_symmetry_preserved(self):
        pts = np.array([[0.3, 0.4], [0.7, 0.4], [0.3, 0.8], [0.7, 0.8], [0.5, 0.1]])
        out = pts.copy()
        for _ in range(5):
            out = lloyd_relax(out, 1)
            mirrored = out.copy()
            mirrored[:, 0] = 1.0 - mirrored[:, 0]
            # the configuration is symmetric about x=0.5; relaxation keeps it so
            match = mirrored[[1, 0, 3, 2, 4]]
            assert np.allclose(out, match, atol=1e-9)

    def test_cvt_energy_non_increasing(self):
        rng = np.random.default_rng(2025)
        pts = rng.random((100, 2))
        energy = [cvt_energy(pts)]
        for _ in range(10):
            pts = lloyd_relax(pts, 1)
            energy.append(cvt_energy(pts))
        diffs = np.diff(energy)
        assert np.all(diffs <= 1e-9), energy

    def test_points_stay_in_domain(self):
        for domain in DOMAINS:
            lo, hi = domain_bounds(domain)
            pts = lo + np.random.default_rng(13).random((80, 2)) * (hi - lo)
            out = lloyd_relax(pts, 4, domain)
            assert np.all(out >= lo) and np.all(out <= hi), domain

    def test_duplicates_are_separated(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.2, 0.8]])
        out = lloyd_relax(pts, 2)
        mind, _ = min_spacing_report(out, 1e-6)
        assert mind > 1e-6

    def test_zero_iterations_identity(self):
        pts = np.random.default_rng(1).random((10, 2))
        assert np.array_equal(lloyd_relax(pts, 0), pts)


class TestMinSpacing:
    def test_two_points(self):
        mind, viol = min_spacing_report(np.array([[0.1, 0.1], [0.6, 0.1]]), 0.1)
        assert mind == pytest.approx(0.5)
        assert viol == 0

    def test_coincident_points(self):
        mind, viol = min_spacing_report(np.array([[0.3, 0.3], [0.3, 0.3]]), 0.1)
        assert mind == 0.0
        assert viol >= 1

    def test_relaxation_reduces_violations(self):
        # paired comparison across seeds: relaxed batches must violate the
        # spacing threshold strictly less often in aggregate
        delta = 0.02
        before = after = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = rng.random((120, 2))
            _, v0 = min_spacing_report(pts, delta)
            _, v1 = min_spacing_report(lloyd_relax(pts, 2), delta)
            before += v0
            after += v1
        assert after < before

    def test_single_point(self):
        mind, viol = min_spacing_report(np.array([[0.5, 0.5]]), 0.1)
        assert mind == np.inf and viol == 0


class TestEstimateCellLosses:
    def setup_method(self):
        self.mesh = square_cloth(17)
        self.model = init_model(
            EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3], seed=0, dtype=np.float64
        )
        self.weights = LossWeights(strain=1.0, bend=1.0, gravity=2.0, collision=1.0)
        self.consts = PhysicsConstants()

    def test_rest_state_gives_uniform_fallback(self):
        # flat rest cloth at z=0, no collider: every loss is zero everywhere,
        # so the estimate falls back to uniform
        est = estimate_cell_losses(
            self.model, self.mesh, None, (6, 6), self.weights, self.consts,
            np.random.default_rng(0), side=0.005,
            pdf_losses=("strain", "bend", "collision"),
        )
        assert np.allclose(est, 1.0 / 36, atol=1e-12)

    def test_synthetic_hotspot_concentrates_mass(self):
        # pass-through MLP + a single raised node of a 17-grid: the bilinear
        # bump spans [4/16, 6/16]^2, exactly the interior of pdf cell (2, 2)
        # on an 8x8 grid, so that cell's estimate is ~1
        model = init_model(
            EncoderConfig((17, 5), 3), [6, 8, 8, 8, 3], seed=1, dtype=np.float64
        )
        for g in model.grids:
            g.features[:] = 0
        for w, b in zip(model.mlp.weights, model.mlp.biases):
            w[:] = 0
            b[:] = 0
        for layer in range(4):
            for k in range(3):
                model.mlp.weights[layer][k, k] = 1.0
        model.grids[0].features[5, 5, 2] = 0.05  # z-bump centered at (0.3125, 0.3125)
        est = estimate_cell_losses(
            model, self.mesh, None, (8, 8), self.weights, self.consts,
            np.random.default_rng(3), side=0.005,
            pdf_losses=("strain", "bend"),
        )
        assert est[2, 2] == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_structure_loss_calls(self):
        from drapefit import structure_loss
        from drapefit.sampler import THETA_MAX

        model = init_model(
            EncoderConfig((9, 5), 3), [6, 8, 8, 8, 3], seed=4, dtype=np.float64
        )
        rng = np.random.default_rng(8)
        for a in model.param_arrays():
            a += rng.normal(0, 0.1, a.shape)
        M = N = 5
        est = estimate_cell_losses(
            model, self.mesh, None, (M, N), self.weights, self.consts,
            np.random.default_rng(55), side=0.01,
        )
        # replay the same rotation stream and recompute cell by cell
        thetas = np.random.default_rng(55).uniform(0.0, THETA_MAX, M * N)
        raw = np.zeros((M, N))
        for i in range(M):
            for j in range(N):
                bd = structure_loss(
                    model, self.mesh, None, ((j + 0.5) / N, (i + 0.5) / M),
                    thetas[i * N + j], self.weights, self.consts, side=0.01,
                )
                raw[i, j] = (
                    self.weights.strain * bd.strain
                    + self.weights.bend * bd.bend
                    + self.weights.gravity * max(bd.gravity, 0.0)
                    + self.weights.collision * bd.collision
                )
        assert np.allclose(est, raw / raw.sum(), rtol=1e-9, atol=1e-12)

    def test_all_invalid_cells_fallback(self, half_mesh):
        est = estimate_cell_losses(
            self.model, half_mesh, None, (4, 4), self.weights, self.consts,
            np.random.default_rng(1), side=0.4,  # too large to fit anywhere
        )
        assert np.allclose(est, 1.0 / 16)

    def test_normalized_and_nonnegative(self):
        model = init_model(
            EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3], seed=5, dtype=np.float64
        )
        rng = np.random.default_rng(6)
        for a in model.param_arrays():
            a += rng.normal(0, 0.1, a.shape)
        est = estimate_cell_losses(
            model, self.mesh, None, (8, 8), self.weights, self.consts,
            np.random.default_rng(7), side=0.01,
        )
        assert est.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(est >= 0)
