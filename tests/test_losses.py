import threading

import numpy as np
import pytest

import drapefit.losses
import drapefit.rows
from drapefit import (
    EncoderConfig,
    LossWeights,
    PhysicsConstants,
    TrainConfig,
    bend_loss,
    build_structure_2d,
    collision_loss,
    evaluate_structure_batch,
    gravity_loss,
    icosphere,
    init_model,
    lift_structure,
    square_cloth,
    square_cloth_with_hole,
    strain_loss,
    strain_loss_absolute,
    structure_loss,
)
from drapefit.errors import InvalidStructure, InvalidUvPoint, NonFiniteLoss, ZeroRestLength
from drapefit.losses import (
    STRIDE,
    LossDiagnostics,
    _lift_patches,
    bend_pair_grad,
    bend_pair_terms,
    collision_point_grad,
    collision_point_terms,
    gravity_point_grad,
    gravity_point_terms,
    strain_edge_grad,
    strain_edge_terms,
    structure_validity,
)
from drapefit.rows import ROW_BLOCK
from drapefit.structures import EDGES, FACE_PAIRS, FACES, INNER_EDGE_COUNT, LocalStructure3D
from drapefit.trainer import MeshGraph


def flat_patch(side=0.1):
    """A lifted patch lying in the z=0 plane at its rest configuration."""
    s2d = build_structure_2d((0.5, 0.5), side, 0.3)
    positions = np.concatenate([s2d.vertices, np.zeros((6, 1))], axis=1)
    rest = np.linalg.norm(
        positions[EDGES[:, 0]] - positions[EDGES[:, 1]], axis=1
    )
    return LocalStructure3D(positions=positions, rest_lengths=rest)


def zero_model(seed=0, dtype=np.float64):
    return init_model(EncoderConfig((5, 3), 3), [6, 8, 8, 8, 3], seed=seed, dtype=dtype)


class TestStrain:
    def test_rest_is_zero(self):
        assert strain_loss(flat_patch()) == 0.0

    def test_uniform_double_scale_gives_nine(self):
        s3d = flat_patch()
        s3d.positions = s3d.positions * 2.0
        assert strain_loss(s3d) == pytest.approx(9.0, abs=1e-12)
        inner = strain_loss(s3d, edge_set="inner3")
        assert inner == pytest.approx(3.0, abs=1e-12)

    def test_single_stretched_edge(self):
        s3d = flat_patch(side=0.1)
        # edge 0 connects midpoints 3 and 4; stretch it to 1.1x by moving
        # vertex 4 along the edge direction, keeping other edges at rest by
        # rebuilding rest lengths afterwards for those edges
        d = s3d.positions[4] - s3d.positions[3]
        s3d.positions[4] = s3d.positions[3] + 1.1 * d
        new_lengths = np.linalg.norm(
            s3d.positions[EDGES[:, 0]] - s3d.positions[EDGES[:, 1]], axis=1
        )
        rest = new_lengths.copy()
        rest[0] = np.linalg.norm(d)  # only edge 0 deviates from rest
        s3d.rest_lengths = rest
        assert strain_loss(s3d) == pytest.approx(0.1**2, rel=1e-9)

    def test_absolute_variant(self):
        s3d = flat_patch(side=0.5)
        d = s3d.positions[4] - s3d.positions[3]
        s3d.positions[4] = s3d.positions[3] + (0.5 + 0.1) / 0.5 * d
        new_lengths = np.linalg.norm(
            s3d.positions[EDGES[:, 0]] - s3d.positions[EDGES[:, 1]], axis=1
        )
        rest = new_lengths.copy()
        rest[0] = 0.5
        s3d.rest_lengths = rest
        assert strain_loss_absolute(s3d) == pytest.approx(0.01, rel=1e-9)

    def test_absolute_equals_relative_times_rest_squared(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s3d = flat_patch(side=0.2)
            s3d.positions = s3d.positions + rng.normal(0, 0.03, (6, 3))
            lengths = np.linalg.norm(
                s3d.positions[EDGES[:, 0]] - s3d.positions[EDGES[:, 1]], axis=1
            )
            rel_terms = ((lengths - s3d.rest_lengths) / s3d.rest_lengths) ** 2
            abs_terms = (lengths - s3d.rest_lengths) ** 2
            assert np.allclose(abs_terms, rel_terms * s3d.rest_lengths**2, atol=1e-12)
            assert strain_loss(s3d) == pytest.approx(rel_terms.sum(), rel=1e-12)
            assert strain_loss_absolute(s3d) == pytest.approx(abs_terms.sum(), rel=1e-12)

    def test_zero_rest_length_raises(self):
        s3d = flat_patch()
        s3d.rest_lengths[2] = 0.0
        with pytest.raises(ZeroRestLength):
            strain_loss(s3d)


class TestBend:
    def test_planar_patch_zero(self):
        assert bend_loss(flat_patch()) == 0.0

    def test_fold_90_degrees(self):
        # fold corner face A across its shared inner edge (vertices 3, 5) to a
        # 90-degree dihedral: |n1 - n2|^2 = 2(1 - cos 90) = 2
        s3d = flat_patch(side=0.2)
        a, b = s3d.positions[3], s3d.positions[5]
        axis = (b - a) / np.linalg.norm(b - a)

        def rotate(p, angle):
            rel = p - a
            par = axis * (rel @ axis)
            per = rel - par
            w = np.cross(axis, per)
            return a + par + per * np.cos(angle) + w * np.sin(angle)

        s3d.positions[0] = rotate(s3d.positions[0], np.pi / 2)
        assert bend_loss(s3d) == pytest.approx(2.0, abs=1e-9)

    def test_fold_180_degrees(self):
        s3d = flat_patch(side=0.2)
        a, b = s3d.positions[3], s3d.positions[5]
        axis = (b - a) / np.linalg.norm(b - a)
        rel = s3d.positions[0] - a
        par = axis * (rel @ axis)
        per = rel - par
        s3d.positions[0] = a + par - per  # reflected onto the center face
        assert bend_loss(s3d) == pytest.approx(4.0, abs=1e-9)

    def test_degenerate_pair_counts_and_contributes_zero(self):
        s3d = flat_patch()
        s3d.positions[0] = s3d.positions[3]  # corner face A collapses
        diag = LossDiagnostics()
        val = bend_loss(s3d, diag)
        assert diag.degenerate_face_pairs == 1
        assert val == 0.0  # the remaining pairs are still flat


class TestGravity:
    def test_zero_height(self, planar_mesh):
        consts = PhysicsConstants()
        assert gravity_loss(zero_model(), planar_mesh, (0.5, 0.5), consts) == 0.0

    def test_direct_product(self, planar_mesh):
        model = zero_model()
        model.mlp.biases[-1][:] = [0.0, 0.0, 2.0]
        consts = PhysicsConstants(mass_per_point=1.0, gravity=9.81)
        got = gravity_loss(model, planar_mesh, (0.5, 0.5), consts)
        assert got == pytest.approx(19.62, abs=1e-9)

    def test_monotone_in_height(self, planar_mesh):
        consts = PhysicsConstants()
        vals = []
        for h in (0.5, 0.0, -0.75):
            model = zero_model()
            model.mlp.biases[-1][:] = [0.0, 0.0, h]
            vals.append(gravity_loss(model, planar_mesh, (0.3, 0.3), consts))
        assert vals[0] > vals[1] > vals[2]

    def test_translation_covariance(self, planar_mesh):
        consts = PhysicsConstants()
        base = zero_model()
        shifted = zero_model()
        shifted.mlp.biases[-1][:] = [0.0, 0.0, 0.37]
        for p in [(0.2, 0.8), (0.6, 0.4)]:
            lo = gravity_loss(base, planar_mesh, p, consts)
            hi = gravity_loss(shifted, planar_mesh, p, consts)
            assert hi - lo == pytest.approx(
                consts.mass_per_point * consts.gravity * 0.37, rel=1e-9
            )

    def test_custom_axis(self, planar_mesh):
        consts = PhysicsConstants(gravity_axis=(1.0, 0.0, 0.0))
        got = gravity_loss(zero_model(), planar_mesh, (0.25, 0.5), consts)
        assert got == pytest.approx(9.81 * 0.25, rel=1e-9)

    def test_invalid_point(self, half_mesh):
        with pytest.raises(InvalidUvPoint):
            gravity_loss(zero_model(), half_mesh, (0.9, 0.9), PhysicsConstants())


class TestCollision:
    def test_far_outside_is_zero(self):
        sphere = icosphere(2, 0.1, (0.5, 0.5, -5.0))
        consts = PhysicsConstants()
        assert collision_loss(flat_patch(), sphere, consts) == 0.0

    def test_single_penetrating_vertex(self):
        # one collider vertex with normal +z; patch vertex 0 sits 0.01 beyond
        # the margin on the wrong side, the other five are lifted clear
        s3d = flat_patch(side=0.05)
        consts = PhysicsConstants(collision_epsilon=1e-3)
        from drapefit.collider import ColliderMesh

        target = s3d.positions[0] - np.array([0, 0, consts.collision_epsilon - 0.01])
        s3d.positions[1:, 2] += 0.05  # d.n - eps > 0 for these
        verts = np.vstack([target, target + [50, 0, 0], target + [50, 1, 0]])
        collider = ColliderMesh.from_arrays(
            verts, np.array([[0, 1, 2]]), normals=[[0, 0, 1], [1, 0, 0], [1, 0, 0]]
        )
        assert collision_loss(s3d, collider, consts) == pytest.approx(1e-4, rel=1e-9)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        sphere = icosphere(2, 0.3, (0.5, 0.5, 0.0))
        consts = PhysicsConstants(collision_epsilon=5e-3)
        for _ in range(40):
            s3d = flat_patch(side=0.15)
            s3d.positions = s3d.positions + rng.normal(0, 0.2, (6, 3))
            expect = 0.0
            for x in s3d.positions:
                d = np.linalg.norm(sphere.vertices - x, axis=1)
                j = int(np.argmin(d))
                s = (x - sphere.vertices[j]) @ sphere.normals[j] - consts.collision_epsilon
                expect += min(s, 0.0) ** 2
            assert collision_loss(s3d, sphere, consts) == pytest.approx(expect, rel=1e-12)

    def test_deadzone_is_exactly_zero(self):
        # vertices exactly at margin distance: d.n == eps contributes nothing
        from drapefit.collider import ColliderMesh

        consts = PhysicsConstants(collision_epsilon=0.01)
        s3d = flat_patch(side=0.05)
        below = s3d.positions[0] - [0, 0, consts.collision_epsilon]
        verts = np.vstack([below, below + [50, 0, 0], below + [50, 1, 0]])
        collider = ColliderMesh.from_arrays(
            verts, np.array([[0, 1, 2]]), normals=[[0, 0, 1], [1, 0, 0], [1, 0, 0]]
        )
        assert collision_loss(s3d, collider, consts) == 0.0


class TestRigidMotionInvariance:
    @staticmethod
    def random_rigid(rng):
        m = rng.normal(0, 1, (3, 3))
        q, _ = np.linalg.qr(m)
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q, rng.normal(0, 2.0, 3)

    def test_strain_and_bend_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s3d = flat_patch(side=0.2)
            s3d.positions = s3d.positions + rng.normal(0, 0.05, (6, 3))
            base_strain = strain_loss(s3d)
            base_bend = bend_loss(s3d)
            q, t = self.random_rigid(rng)
            moved = LocalStructure3D(
                positions=s3d.positions @ q.T + t,
                rest_lengths=s3d.rest_lengths.copy(),
            )
            assert strain_loss(moved) == pytest.approx(base_strain, abs=1e-9, rel=1e-9)
            assert bend_loss(moved) == pytest.approx(base_bend, abs=1e-9, rel=1e-9)

    def test_nonnegativity(self):
        rng = np.random.default_rng(32)
        sphere = icosphere(1, 0.3, (0.5, 0.5, 0.0))
        consts = PhysicsConstants()
        for _ in range(30):
            s3d = flat_patch(side=0.1)
            s3d.positions = s3d.positions + rng.normal(0, 0.3, (6, 3))
            assert strain_loss(s3d) >= 0
            assert bend_loss(s3d) >= 0
            assert collision_loss(s3d, sphere, consts) >= 0


class TestStructureLoss:
    def test_rest_state_zero_total(self, planar_mesh):
        weights = LossWeights(strain=1, bend=1, gravity=1, collision=1)
        consts = PhysicsConstants()
        sphere = icosphere(1, 0.2, (0.5, 0.5, -5.0))
        bd = structure_loss(
            zero_model(), planar_mesh, sphere, (0.5, 0.5), 0.2, weights, consts,
            side=0.01,
        )
        assert bd.weighted_total == 0.0

    def test_zero_weights_zero_total(self, curved_mesh):
        model = zero_model(seed=3)
        rng = np.random.default_rng(0)
        for a in model.param_arrays():
            a += rng.normal(0, 0.2, a.shape).astype(a.dtype)
        weights = LossWeights(strain=0, bend=0, gravity=0, collision=0)
        bd = structure_loss(
            model, curved_mesh, None, (0.5, 0.5), 0.1, weights, PhysicsConstants(),
            side=0.02,
        )
        assert bd.weighted_total == 0.0

    def test_total_recombines_components(self, curved_mesh):
        model = zero_model(seed=9)
        rng = np.random.default_rng(1)
        for a in model.param_arrays():
            a += rng.normal(0, 0.15, a.shape).astype(a.dtype)
        sphere = icosphere(2, 0.25, (0.5, 0.5, 0.02))
        weights = LossWeights(strain=1.5, bend=0.25, gravity=3.0, collision=12.0)
        consts = PhysicsConstants(collision_epsilon=2e-3)
        p, theta, side = (0.45, 0.55), 0.7, 0.04
        bd = structure_loss(model, curved_mesh, sphere, p, theta, weights, consts, side=side)

        s2d = build_structure_2d(p, side, theta)
        s3d = lift_structure(model, curved_mesh, s2d)
        manual = (
            weights.strain * strain_loss(s3d)
            + weights.bend * bend_loss(s3d)
            + weights.gravity * gravity_loss(model, curved_mesh, p, consts)
            + weights.collision * collision_loss(s3d, sphere, consts)
        )
        assert bd.weighted_total == pytest.approx(manual, rel=1e-9)
        recombined = (
            weights.strain * bd.strain
            + weights.bend * bd.bend
            + weights.gravity * bd.gravity
            + weights.collision * bd.collision
        )
        assert bd.weighted_total == pytest.approx(recombined, rel=1e-9)

    def test_invalid_structure_raises(self, half_mesh):
        with pytest.raises(InvalidStructure):
            structure_loss(
                zero_model(), half_mesh, None, (0.72, 0.72), 0.0,
                LossWeights(), PhysicsConstants(), side=0.2,
            )


class TestBatchConsistency:
    def test_batch_matches_scalar_ops(self, curved_mesh):
        model = zero_model(seed=21)
        rng = np.random.default_rng(2)
        for a in model.param_arrays():
            a += rng.normal(0, 0.1, a.shape).astype(a.dtype)
        sphere = icosphere(2, 0.3, (0.5, 0.5, 0.05))
        weights = LossWeights(strain=1, bend=1, gravity=1, collision=1)
        consts = PhysicsConstants(collision_epsilon=3e-3)
        centers = rng.uniform(0.15, 0.85, (12, 2))
        thetas = rng.uniform(0, 2 * np.pi / 3, 12)
        batch = evaluate_structure_batch(
            model, curved_mesh, sphere, centers, thetas, weights, consts, side=0.03
        )
        assert batch.valid.all()
        for k in range(12):
            bd = structure_loss(
                model, curved_mesh, sphere, centers[k], thetas[k], weights, consts,
                side=0.03,
            )
            assert batch.strain[k] == pytest.approx(bd.strain, rel=1e-12, abs=1e-15)
            assert batch.bend[k] == pytest.approx(bd.bend, rel=1e-12, abs=1e-15)
            assert batch.gravity[k] == pytest.approx(bd.gravity, rel=1e-12, abs=1e-15)
            assert batch.collision[k] == pytest.approx(bd.collision, rel=1e-12, abs=1e-15)

    def test_validity_helper_matches_batch(self, half_mesh):
        rng = np.random.default_rng(3)
        centers = rng.random((200, 2))
        thetas = rng.uniform(0, 2 * np.pi / 3, 200)
        valid = structure_validity(half_mesh, centers, thetas, 0.02)
        batch = evaluate_structure_batch(
            zero_model(), half_mesh, None, centers, thetas,
            LossWeights(), PhysicsConstants(), side=0.02,
        )
        assert np.array_equal(valid, batch.valid)


def _patch_layout(K=6, seed=0):
    """Index arrays of K sampling patches in the batch path's block layout."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform([0.3, 0.3, -0.02], [0.7, 0.7, 0.02], (K * STRIDE, 3))
    offs = STRIDE * np.arange(K)[:, None, None]
    edges = (EDGES[None] + offs).reshape(-1, 2)
    faces = (FACES[None] + offs).reshape(-1, 3)
    pairs = (FACE_PAIRS[None] + 4 * np.arange(K)[:, None, None]).reshape(-1, 2)
    centers = STRIDE * np.arange(K) + 6
    verts = (STRIDE * np.arange(K)[:, None] + np.arange(6)).reshape(-1)
    return positions, edges, faces, pairs, centers, verts


def _mesh_layout(seed=0):
    """Index arrays of the mesh-connectivity path on square_cloth(12)."""
    mesh = square_cloth(12)
    graph = MeshGraph.build(mesh)
    rng = np.random.default_rng(seed)
    positions = mesh.vertices + rng.normal(0, 0.01, mesh.vertices.shape)
    ids = np.arange(len(positions))
    return positions, graph.edges, graph.faces, graph.pairs, ids, ids


def _kernel_calls(layout):
    """Every loss kernel on one layout, each as a call that takes the
    gradient keywords; the collider gives both contacts and misses."""
    positions, edges, faces, pairs, centers, verts = layout()
    rest = np.linalg.norm(positions[edges[:, 0]] - positions[edges[:, 1]], axis=1)
    rest *= np.random.default_rng(5).uniform(0.8, 1.2, len(rest))
    consts = PhysicsConstants(collision_epsilon=0.01)
    sphere = icosphere(2, 0.3, (0.5, 0.5, -0.29))
    _, nn = sphere.contacts(positions[verts], consts.collision_epsilon)
    assert (nn >= 0).any() and (nn < 0).any()
    return positions, [
        lambda **grad: strain_edge_terms(positions, edges, rest, **grad),
        lambda **grad: strain_edge_terms(positions, edges, rest, "absolute", **grad),
        lambda **grad: bend_pair_terms(positions, faces, pairs, **grad),
        lambda **grad: gravity_point_terms(positions, centers, consts, **grad),
        lambda **grad: collision_point_terms(positions, verts, sphere, consts, **grad),
    ]


def _start(positions):
    """A nonzero gradient accumulator."""
    return np.random.default_rng(99).normal(0, 1, positions.shape)


class TestScatterKernelsAreExact:
    """Each kernel's gradient scatter adds the same values in the same order
    as its former 2-D ``np.add.at`` form (the fancy-index ``+=`` for
    gravity), so the results agree bit for bit, on top of nonzero
    accumulators."""

    @pytest.mark.parametrize("layout", [_patch_layout, _mesh_layout])
    def test_kernels_match_the_former_scatters(self, monkeypatch, layout):
        import drapefit.losses

        positions, calls = _kernel_calls(layout)

        def fancy(out, rows, vals):
            out[rows] += vals

        references = [np.add.at, np.add.at, np.add.at, fancy, np.add.at]
        for reference, call in zip(references, calls):
            fast = _start(positions)
            call(coeff=0.7, out=fast)
            with monkeypatch.context() as m:
                m.setattr(drapefit.losses, "scatter_add_rows", reference)
                slow = _start(positions)
                call(coeff=0.7, out=slow)
            assert not np.array_equal(fast, _start(positions))
            assert fast.tobytes() == slow.tobytes()


class TestGatherKernelsAreExact:
    """Each loss kernel reads its rows through ``gather_rows``; with fancy
    indexing in its place every term and gradient is the same bit for bit."""

    @pytest.mark.parametrize("layout", [_patch_layout, _mesh_layout])
    def test_kernels_match_the_fancy_index_form(self, monkeypatch, layout):
        import drapefit.losses

        positions, calls = _kernel_calls(layout)

        def run_all():
            out = []
            for call in calls:
                g = _start(positions)
                out += [call(coeff=0.7, out=g), g]
            return out

        fast = run_all()
        monkeypatch.setattr(drapefit.losses, "gather_rows", lambda a, rows: a[rows])
        for got, want in zip(fast, run_all()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("edge_set", ["all9", "inner3"])
    def test_patch_rest_lengths_match_the_fancy_index_form(self, curved_mesh, edge_set):
        rng = np.random.default_rng(4)
        centers = rng.uniform(0.05, 0.95, (64, 2))
        thetas = rng.uniform(0.0, np.pi / 3, 64)
        _, rest, valid, got = _lift_patches(
            curved_mesh, centers, thetas, 0.02, edge_set, "relative"
        )
        edges = EDGES if edge_set == "all9" else EDGES[:INNER_EDGE_COUNT]
        want = np.linalg.norm(rest[:, edges[:, 0]] - rest[:, edges[:, 1]], axis=2)
        assert valid.any() and got.shape == (64, len(edges))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_mesh_graph_rest_lengths_match_the_fancy_index_form(self, monkeypatch):
        import drapefit.trainer

        mesh = square_cloth_with_hole(12)
        got = MeshGraph.build(mesh).rest_lengths
        monkeypatch.setattr(drapefit.trainer, "gather_rows", lambda a, rows: a[rows])
        assert got.tobytes() == MeshGraph.build(mesh).rest_lengths.tobytes()


class TestOneKernelPerLoss:
    """Asking a kernel for its gradient reads the positions no more often
    and leaves the terms unchanged; weight 0 asks for no gradient."""

    @pytest.mark.parametrize("layout", [_patch_layout, _mesh_layout])
    def test_terms_are_the_same_with_and_without_out(self, monkeypatch, layout):
        import drapefit.losses

        positions, calls = _kernel_calls(layout)
        position_reads = []

        def counting_gather(a, rows):
            position_reads.append(a is positions)
            return a[rows]

        monkeypatch.setattr(drapefit.losses, "gather_rows", counting_gather)
        for call in calls:
            alone = call()
            reads_alone = sum(position_reads)
            g = _start(positions)
            with_grad = call(coeff=0.7, out=g)
            assert sum(position_reads) == 2 * reads_alone
            position_reads.clear()
            assert not np.array_equal(g, _start(positions))
            assert alone.dtype == with_grad.dtype and alone.tobytes() == with_grad.tobytes()

        def no_scatter(*args):
            raise AssertionError("scattered a gradient of weight 0")

        monkeypatch.setattr(drapefit.losses, "scatter_add_rows", no_scatter)
        for call in calls:
            assert call(coeff=0.0, out=_start(positions)).tobytes() == call().tobytes()

    def test_grad_wrappers_add_what_the_kernels_add(self):
        positions, edges, faces, pairs, centers, verts = _patch_layout()
        rest = np.linalg.norm(positions[edges[:, 0]] - positions[edges[:, 1]], axis=1)
        consts = PhysicsConstants(collision_epsilon=0.01)
        sphere = icosphere(2, 0.3, (0.5, 0.5, -0.29))
        pairs_of_calls = [
            (lambda g: strain_edge_grad(positions, edges, rest, 0.7, g, "absolute"),
             lambda g: strain_edge_terms(positions, edges, rest, "absolute", coeff=0.7, out=g)),
            (lambda g: bend_pair_grad(positions, faces, pairs, 0.7, g),
             lambda g: bend_pair_terms(positions, faces, pairs, coeff=0.7, out=g)),
            (lambda g: gravity_point_grad(positions, centers, consts, 0.7, g),
             lambda g: gravity_point_terms(positions, centers, consts, coeff=0.7, out=g)),
            (lambda g: collision_point_grad(positions, verts, sphere, consts, 0.7, g),
             lambda g: collision_point_terms(positions, verts, sphere, consts, coeff=0.7, out=g)),
        ]
        for wrapper, kernel in pairs_of_calls:
            got, want = _start(positions), _start(positions)
            wrapper(got)
            kernel(want)
            assert got.tobytes() == want.tobytes()


class TestPooledBlocks:
    """The patch lift, the loss batch and the contact culling run their row
    blocks on ``rows.map_blocks``. Pooled, inline, or as one block, they
    give the same bytes."""

    # small enough that the faces of some patches, not all, are degenerate
    SIDE = 1.6e-6

    @pytest.fixture(scope="class")
    def scene(self):
        mesh = square_cloth_with_hole(33)
        rng = np.random.default_rng(11)
        n = 2 * 24577 + 100
        centers = rng.uniform(-0.02, 1.02, (n, 2))
        thetas = rng.uniform(0.0, 2 * np.pi / 3, n)
        ok = structure_validity(mesh, centers, thetas, self.SIDE)
        # a decoder wide enough that its untaped forward pass is one block's
        # bits however the rows are split (see README, Determinism)
        model = TrainConfig(epochs=1, seed=4).build_model()
        for a in model.param_arrays():
            a += rng.normal(0.0, 0.05, a.shape).astype(a.dtype)
        # its cap reaches above the cloth beside the hole
        sphere = icosphere(3, 0.3, (0.15, 0.5, -0.25))
        return mesh, model, sphere, centers, thetas, ok

    @staticmethod
    def _patches(scene, K):
        """K valid patches with an invalid one before every thousandth, so
        every block of the lift holds invalid patches; K = 0 keeps one."""
        _, _, _, centers, thetas, ok = scene
        good, bad = np.flatnonzero(ok)[:K], np.flatnonzero(~ok)
        at = np.arange(0, K + 1, 1000)
        order = np.insert(good, at, bad[: len(at)])
        return centers[order], thetas[order]

    @staticmethod
    def _runs(monkeypatch, call, recorded):
        """``call()`` as one block, then in blocks with one worker, then with
        two or more. Returns the three results and whether any call of a
        ``recorded`` (owner, attribute) left the calling thread."""
        threads = set()

        def recording(fn):
            def wrapper(*args, **kwargs):
                threads.add(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapper

        for owner, attr in recorded:
            monkeypatch.setattr(owner, attr, recording(getattr(owner, attr)))
        results = []
        for block, workers in [(1 << 30, 1), (ROW_BLOCK, 1),
                               (ROW_BLOCK, max(2, drapefit.rows.POOL_SIZE))]:
            with monkeypatch.context() as m:
                m.setattr(drapefit.rows, "ROW_BLOCK", block)
                m.setattr(drapefit.rows, "POOL_SIZE", workers)
                threads.clear()
                results.append(call())
        return results, bool(threads - {threading.get_ident()})

    @pytest.mark.parametrize("want_grad", [False, True])
    @pytest.mark.parametrize("K", [0, 1, 8191, 8192, 16383, 16384, 16385, 24577])
    def test_loss_batch(self, monkeypatch, scene, K, want_grad):
        mesh, model, sphere, *_ = scene
        centers, thetas = self._patches(scene, K)
        weights = LossWeights(strain=1.0, bend=1.0, gravity=1.0, collision=1.0)
        consts = PhysicsConstants(collision_epsilon=3e-3)

        def call():
            return evaluate_structure_batch(
                model, mesh, sphere, centers, thetas, weights, consts,
                side=self.SIDE, want_grad=want_grad,
            )

        (one, *blocked), left = self._runs(
            monkeypatch, call, [(drapefit.losses, "strain_edge_terms")]
        )
        assert left == (K >= 2 * ROW_BLOCK), K
        assert int(one.valid.sum()) == K and not one.valid.all()
        if K > 1000:
            assert 0 < one.diagnostics.degenerate_face_pairs < 3 * K
            assert (one.collision > 0).any()
        for got in blocked:
            assert got.diagnostics.degenerate_face_pairs == one.diagnostics.degenerate_face_pairs
            for name in ["valid", "strain", "bend", "gravity", "collision", "positions",
                         "strain_terms", "upstream"]:
                a, b = getattr(got, name), getattr(one, name)
                if b is None:
                    assert a is None and (K == 0 or name == "upstream" and not want_grad)
                    continue
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), (name, K)

    def test_non_finite_surface_output_in_the_second_block(self, monkeypatch, scene):
        mesh, model, sphere, *_ = scene
        centers, thetas = self._patches(scene, 16385)
        forward = drapefit.losses.forward_batch

        def poisoned(*args, **kwargs):
            disp, tape = forward(*args, **kwargs)
            disp[STRIDE * ROW_BLOCK + 3, 1] = np.nan
            return disp, tape

        monkeypatch.setattr(drapefit.losses, "forward_batch", poisoned)
        for workers in (1, max(2, drapefit.rows.POOL_SIZE)):
            monkeypatch.setattr(drapefit.rows, "POOL_SIZE", workers)
            for want_grad in (False, True):
                with pytest.raises(NonFiniteLoss):
                    evaluate_structure_batch(
                        model, mesh, sphere, centers, thetas, LossWeights(),
                        PhysicsConstants(), side=self.SIDE, want_grad=want_grad,
                    )

    @pytest.mark.parametrize("B", [1, 8191, 16384, 24577, 40000])
    def test_structure_validity(self, monkeypatch, scene, B):
        mesh, _, _, centers, thetas, _ = scene
        for edge_set, form in [("all9", "relative"), ("inner3", "absolute")]:
            def call():
                return _lift_patches(mesh, centers[:B], thetas[:B], self.SIDE, edge_set, form)

            (one, *blocked), _ = self._runs(monkeypatch, call, [])
            assert B == 1 or one[2].any() and not one[2].all()
            for got in blocked:
                for a, b in zip(got, one, strict=True):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (B, edge_set)
            valid = structure_validity(mesh, centers[:B], thetas[:B], self.SIDE, edge_set, form)
            assert valid.tobytes() == one[2].tobytes()

    @pytest.mark.parametrize("n", [1, 16383, 3 * ROW_BLOCK + 5])
    def test_contacts_on_a_cold_and_a_warm_collider(self, monkeypatch, n):
        from drapefit.collider import _VoxelClearance

        points = np.random.default_rng(n).uniform([0.1, 0.1, -0.5], [0.9, 0.9, 0.2], (n, 3))

        def call():
            sphere = icosphere(3, 0.3, (0.5, 0.5, -0.25))
            # on a cold voxel cache, then on the warm one
            return [sphere.contacts(points, 3e-3) for _ in range(2)]

        (one, *blocked), left = self._runs(monkeypatch, call, [(_VoxelClearance, "lookup")])
        assert left == (n >= 2 * ROW_BLOCK), n
        if n > 1:
            assert (one[0][1] >= 0).any() and (one[0][1] < 0).any()
        for got in [one[1:], *blocked]:
            for (viol, nn), (want_viol, want_nn) in zip(got, one):
                assert viol.tobytes() == want_viol.tobytes()
                assert nn.tobytes() == want_nn.tobytes()
