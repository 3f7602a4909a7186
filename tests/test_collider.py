import sys
import threading

import numpy as np
import pytest

from drapefit import (
    ColliderMesh,
    PhysicsConstants,
    build_index,
    compute_vertex_normals,
    icosphere,
    nearest_vertex,
    prism,
    torus,
)
from drapefit.errors import DegenerateMesh, EmptyCollider, UnreachablePoint
from drapefit.losses import collision_point_terms


def brute_force_nearest(vertices, q):
    """Linear-scan oracle with the same tie rule: lowest index wins."""
    d = np.linalg.norm(vertices - q, axis=1)
    best = int(np.argmin(d))  # argmin returns the first minimum
    return best, float(d[best])


class TestNormals:
    def test_flat_square(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        tris = np.array([[0, 1, 2], [0, 2, 3]])
        normals = compute_vertex_normals(verts, tris)
        assert np.allclose(normals, [[0, 0, 1]] * 4)

    def test_octahedron_radial(self):
        verts = np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            dtype=float,
        )
        tris = np.array(
            [
                [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
            ]
        )
        normals = compute_vertex_normals(verts, tris)
        assert np.allclose(normals, verts, atol=1e-12)

    def test_matches_accumulation_oracle(self):
        rng = np.random.default_rng(3)
        verts = rng.normal(0, 1, (40, 3))
        tris = rng.integers(0, 40, (60, 3))
        tris = tris[np.ptp(tris, axis=1) > 0]  # drop fully-degenerate rows
        got = compute_vertex_normals(verts, tris)
        acc = np.zeros_like(verts)
        for a, b, c in tris:
            n = np.cross(verts[b] - verts[a], verts[c] - verts[a])
            acc[a] += n
            acc[b] += n
            acc[c] += n
        for k in range(len(verts)):
            norm = np.linalg.norm(acc[k])
            expect = acc[k] / norm if norm > 0 else np.zeros(3)
            assert np.allclose(got[k], expect, atol=1e-9)

    def test_isolated_vertices_zero(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], dtype=float)
        tris = np.array([[0, 1, 2]])
        normals = compute_vertex_normals(verts, tris)
        assert np.all(normals[3] == 0)

    def test_all_degenerate_raises(self):
        verts = np.zeros((3, 3))
        with pytest.raises(DegenerateMesh):
            compute_vertex_normals(verts, np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("mesh", [icosphere(5), torus(), prism()], ids=["ico5", "torus", "prism"])
    def test_equals_per_corner_scatter(self, mesh):
        # the three per-corner scatters the bincount form replaced, in order
        v, tris = mesh.vertices, mesh.triangles
        acc = np.zeros_like(v)
        face_n = np.cross(v[tris[:, 1]] - v[tris[:, 0]], v[tris[:, 2]] - v[tris[:, 0]])
        for k in range(3):
            np.add.at(acc, tris[:, k], face_n)
        norms = np.linalg.norm(acc, axis=1)
        acc /= norms[:, None]
        assert compute_vertex_normals(v, tris).tobytes() == acc.tobytes()

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        mesh = icosphere(1, 1.0)
        angle = 0.83
        rot = np.array(
            [
                [np.cos(angle), -np.sin(angle), 0],
                [np.sin(angle), np.cos(angle), 0],
                [0, 0, 1],
            ]
        )
        rotated = compute_vertex_normals(mesh.vertices @ rot.T, mesh.triangles)
        assert np.allclose(rotated, mesh.normals @ rot.T, atol=1e-9)


class TestIndex:
    def test_single_vertex(self):
        index = build_index(np.array([[1.0, 2.0, 3.0]]))
        vid, dist = nearest_vertex(index, (0.0, 0.0, 0.0))
        assert vid == 0
        assert dist == pytest.approx(np.sqrt(14))

    def test_query_at_grid_vertex(self):
        xs = np.linspace(0, 1, 5)
        grid = np.stack(np.meshgrid(xs, xs, xs), axis=-1).reshape(-1, 3)
        index = build_index(grid)
        for vid in (0, 31, 124):
            got, dist = nearest_vertex(index, grid[vid])
            assert got == vid
            assert dist == 0.0

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(12)
        verts = rng.normal(0, 1, (10_000, 3))
        queries = rng.normal(0, 1.2, (1_000, 3))
        index = build_index(verts)
        ids, dists = index.nearest(queries)
        for k in range(len(queries)):
            bid, bdist = brute_force_nearest(verts, queries[k])
            assert ids[k] == bid
            assert dists[k] == bdist  # identical formula, bit-equal

    def test_tie_breaks_to_lowest_index(self):
        verts = np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], dtype=float
        )
        index = build_index(verts)
        vid, dist = nearest_vertex(index, (0.0, 0.0, 0.0))
        assert vid == 0
        assert dist == 1.0
        # duplicated vertices are the tightest tie possible
        dup = np.array([[0.5, 0.5, 0.5]] * 4)
        vid, _ = nearest_vertex(build_index(dup), (1.0, 1.0, 1.0))
        assert vid == 0

    def test_empty_collider(self):
        with pytest.raises(EmptyCollider):
            build_index(np.zeros((0, 3)))

    def test_point_beyond_squared_distance_overflow_is_unreachable(self):
        sphere = icosphere(2, 0.3)
        far = np.array([[1e300, 0.0, 0.0]])
        with pytest.raises(UnreachablePoint):
            sphere.index.nearest(far)
        with pytest.raises(UnreachablePoint):
            sphere.contacts(far, 1e-3)
        # squared distances of 1e300 still fit: every vertex ties at 1e150
        ids, dists = sphere.index.nearest([[1e150, 0.0, 0.0]])
        assert (ids[0], dists[0]) == brute_force_nearest(sphere.vertices, [1e150, 0.0, 0.0])

    def test_unreachable_second_neighbour_keeps_the_first(self):
        index = build_index(np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]]))
        ids, dists = index.nearest([[1.0, 0.0, 0.0], [1e150, 0.0, 0.0]])
        assert ids.tolist() == [0, 0]
        assert dists.tolist() == [1.0, 1e150]


class TestShapes:
    def test_icosphere_on_sphere_with_outward_normals(self):
        center = np.array([0.2, -0.1, 0.4])
        mesh = icosphere(2, 0.5, center)
        radii = np.linalg.norm(mesh.vertices - center, axis=1)
        assert np.allclose(radii, 0.5, atol=1e-12)
        radial = (mesh.vertices - center) / radii[:, None]
        assert np.all(np.einsum("nd,nd->n", mesh.normals, radial) > 0.9)

    def test_icosphere_vertex_counts(self):
        assert len(icosphere(0, 1.0).vertices) == 12
        assert len(icosphere(1, 1.0).vertices) == 42
        assert len(icosphere(2, 1.0).vertices) == 162

    def test_torus_distance_and_normals(self):
        mesh = torus(0.3, 0.1, 48, 24, (0, 0, 0))
        xy = np.linalg.norm(mesh.vertices[:, :2], axis=1)
        ring_dist = np.sqrt((xy - 0.3) ** 2 + mesh.vertices[:, 2] ** 2)
        assert np.allclose(ring_dist, 0.1, atol=1e-12)
        # normals point away from the ring circle
        ring = np.stack(
            [0.3 * mesh.vertices[:, 0] / xy, 0.3 * mesh.vertices[:, 1] / xy,
             np.zeros(len(mesh.vertices))], axis=1
        )
        outward = (mesh.vertices - ring) / 0.1
        assert np.all(np.einsum("nd,nd->n", mesh.normals, outward) > 0.8)

    def test_prism_cross_section(self):
        mesh = prism(0.4, 1.0, 8, 8, (0, 0, 0))
        # all vertices lie on the triangle boundary: distance from centroid
        # axis bounded by circumradius, y within the length
        r = 0.4 / np.sqrt(3)
        radial = np.linalg.norm(mesh.vertices[:, [0, 2]], axis=1)
        assert radial.max() <= r + 1e-12
        assert np.abs(mesh.vertices[:, 1]).max() == pytest.approx(0.5)
        # outward normals: positive dot with the radial direction
        safe = radial > 1e-9
        dots = np.einsum(
            "nd,nd->n", mesh.normals[safe][:, [0, 2]],
            mesh.vertices[safe][:, [0, 2]] / radial[safe, None],
        )
        assert np.all(dots > 0.3)

    def test_from_obj_roundtrip(self, tmp_path):
        from drapefit.objio import write_obj

        mesh = icosphere(1, 0.3, (0.1, 0.2, 0.3))
        path = tmp_path / "sphere.obj"
        write_obj(path, mesh.vertices, mesh.triangles)
        back = ColliderMesh.from_obj(path)
        assert np.allclose(back.vertices, mesh.vertices, atol=1e-8)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.allclose(back.normals, mesh.normals, atol=1e-6)


def reference_contacts(collider, pts, eps):
    """Contact margins from the nearest-vertex search on every point."""
    nn, _ = collider.index.nearest(pts)
    n = collider.normals[nn]
    usable = np.einsum("kd,kd->k", n, n) > 0.5
    s = np.einsum("kd,kd->k", pts - collider.vertices[nn], n) - eps
    hit = usable & (s < 0.0)
    return np.where(hit, s, 0.0), np.where(hit, nn, -1)


def with_loose_vertex():
    """Icosphere plus an unreferenced vertex, whose normal is zero, sitting
    just inside the surface where it is the nearest vertex of nearby points."""
    sphere = icosphere(3, 0.3, (0.1, -0.2, 0.05))
    loose = sphere.vertices[7] - 0.004 * sphere.normals[7]
    mesh = ColliderMesh.from_arrays(np.vstack([sphere.vertices, loose]), sphere.triangles)
    assert np.all(mesh.normals[-1] == 0)
    return mesh


DIAGONAL = np.ones(3) / np.sqrt(3.0)


def tilted_plane(offset=0.013, flip=False):
    """Flat grid {x : x.DIAGONAL = offset} around the diagonal axis. With a
    voxel diagonal as its normal, the clearance bound of a voxel is attained
    at the voxel's lowest corner, with no room to spare."""
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    w = np.cross(DIAGONAL, u)
    ij = np.stack(np.meshgrid(np.arange(25), np.arange(25), indexing="ij"), -1).reshape(-1, 2)
    verts = 0.02 * ((ij[:, :1] - 12) * u + (ij[:, 1:] - 12) * w) + offset * DIAGONAL
    a = (np.arange(24)[:, None] * 25 + np.arange(24)[None, :]).ravel()
    tris = np.concatenate([np.stack([a, a + 25, a + 26], 1), np.stack([a, a + 26, a + 1], 1)])
    return ColliderMesh.from_arrays(verts, tris[:, ::-1] if flip else tris)


COLLIDERS = {
    "icosphere": lambda: icosphere(3, 0.3, (0.5, 0.5, -0.31)),
    "torus": lambda: torus(),
    "prism": lambda: prism(),
    "loose_vertex": with_loose_vertex,
    "tilted_plane": tilted_plane,
}
EPSILONS = (1e-3, 0.0, 0.02)


def probe_points(collider, eps, rng):
    """Points inside, near and far from the collider, some on voxel faces."""
    v, n = collider.vertices, collider.normals
    lo, hi = v.min(axis=0), v.max(axis=0)
    mid, span = (lo + hi) / 2, hi - lo
    # the collider's own voxel edge, so that some points sit on voxel faces
    collider.contacts(mid[None, :], eps)
    a = collider._clearance.size
    h = 0.5 * np.sqrt(3.0) * a
    ids = rng.integers(0, len(v), 3000)
    near = (v[ids] + n[ids] * rng.uniform(eps - 2 * h, eps + 2 * h, (3000, 1))
            + rng.uniform(-h, h, (3000, 3)))
    inside = v[ids[:1000]] - n[ids[:1000]] * rng.uniform(0.0, 0.5, (1000, 1)) * span.min()
    box = mid + span * rng.uniform(-0.7, 0.7, (3000, 3))
    far = mid + span * rng.uniform(-8.0, 8.0, (1000, 3))
    on_faces = np.round(near[:1500] / a) * a
    one_face = near[1500:].copy()
    one_face[:, 1] = np.round(one_face[:, 1] / a) * a
    return np.vstack([near, inside, box, far, on_faces, one_face])


def count_search_rows(monkeypatch, collider):
    """Record the number of rows of every nearest-vertex search."""
    rows = []
    search = collider.index.nearest

    def counting(points):
        rows.append(len(points))
        return search(points)

    monkeypatch.setattr(collider.index, "nearest", counting)
    return rows


class TestContacts:
    @pytest.mark.parametrize("name", sorted(COLLIDERS))
    def test_culled_query_equals_full_search(self, name, monkeypatch):
        rng = np.random.default_rng(21)
        for eps in EPSILONS:
            collider = COLLIDERS[name]()
            pts = probe_points(collider, eps, rng)
            want_viol, want_nn = reference_contacts(collider, pts, eps)
            assert (want_viol < 0).sum() > 50  # the probe reaches contacts
            rows = count_search_rows(monkeypatch, collider)
            for _ in range(2):  # cold cache, then warm
                viol, nn = collider.contacts(pts, eps)
                assert viol.tobytes() == want_viol.tobytes()
                assert np.array_equal(nn, want_nn)
            assert rows[0] == rows[1] < 0.95 * len(pts)  # the probe reaches culls

    @pytest.mark.parametrize("name", sorted(COLLIDERS))
    def test_loss_terms_gradient_and_penetration_flags(self, name):
        rng = np.random.default_rng(5)
        collider = COLLIDERS[name]()
        consts = PhysicsConstants()
        eps = consts.collision_epsilon
        pts = probe_points(collider, eps, rng)
        ids = rng.permutation(len(pts))[: len(pts) // 2]
        want_viol, _ = reference_contacts(collider, pts[ids], eps)
        got = np.zeros_like(pts)
        terms = collision_point_terms(pts, ids, collider, consts, coeff=3.0, out=got)
        assert terms.tobytes() == (want_viol**2).tobytes()
        # gradient as the full search gives it: every point scattered, the
        # ones without a contact adding zero
        full_nn, _ = collider.index.nearest(pts[ids])
        want = np.zeros_like(pts)
        np.add.at(want, ids, (2.0 * 3.0 * want_viol)[:, None] * collider.normals[full_nn])
        assert got.tobytes() == want.tobytes()
        pen_viol, _ = reference_contacts(collider, pts, 0.0)
        assert np.array_equal(collider.contacts(pts, 0.0)[0] < 0, pen_viol < 0)

    def test_points_clear_of_a_convex_collider_skip_the_search(self, monkeypatch):
        collider = icosphere(3, 0.3)
        rows = count_search_rows(monkeypatch, collider)
        rng = np.random.default_rng(2)
        direction = rng.normal(size=(500, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        outside = direction * rng.uniform(1.0, 3.0, (500, 1))
        viol, nn = collider.contacts(outside, 1e-3)
        assert rows == [0]  # still called, with no rows
        assert np.all(viol == 0) and np.all(nn == -1)
        inside = direction * 0.1
        viol, _ = collider.contacts(inside, 1e-3)
        assert rows[-1] == 500 and np.all(viol < 0)

    def test_unpackable_coordinates_take_the_exact_search(self, monkeypatch):
        collider = icosphere(2, 0.3)
        rows = count_search_rows(monkeypatch, collider)
        huge = np.array([[1e7, 0.0, 0.0], [0.0, -1e60, 0.0], [2.0, 2.0, 1e100]])
        viol, nn = collider.contacts(huge, 0.0)
        assert rows == [3]
        want_viol, want_nn = reference_contacts(collider, huge, 0.0)
        assert viol.tobytes() == want_viol.tobytes() and np.array_equal(nn, want_nn)

    def test_collider_without_faces_is_searched_exactly(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        normals = np.array([[0, 0, 1], [0, 0, 1], [0, 0, 0]], dtype=float)
        collider = ColliderMesh.from_arrays(verts, np.zeros((0, 3)), normals)
        pts = np.random.default_rng(4).uniform(-0.5, 1.5, (400, 3))
        viol, nn = collider.contacts(pts, 0.0)
        want_viol, want_nn = reference_contacts(collider, pts, 0.0)
        assert (want_viol < 0).any()
        assert viol.tobytes() == want_viol.tobytes() and np.array_equal(nn, want_nn)

    def test_far_candidate_with_a_bad_normal_is_kept(self):
        # c is the centre of voxel 0, whose lowest corner is the origin. Its
        # nearest vertex w faces it from 2h away; v sits 3.9h away on the
        # other side, facing away. v is the nearest vertex of the origin, in
        # contact there, and only the full d(c) + 2h candidate radius sees it.
        tri = np.array([[50.0, 50.0, 50.0], [50.1, 50.0, 50.0], [50.0, 50.1, 50.0]])
        up = np.tile([0.0, 0.0, 1.0], (3, 1))
        probe = ColliderMesh.from_arrays(tri, [[0, 1, 2]], up)
        probe.contacts(np.zeros((1, 3)), 0.0)
        a = probe._clearance.size  # set by the faces alone
        e = np.ones(3) / np.sqrt(3.0)
        c, h = 0.5 * a * np.ones(3), 0.5 * np.sqrt(3.0) * a
        w, v = c + 2.0 * h * e, c - 3.9 * h * e
        collider = ColliderMesh.from_arrays(
            np.vstack([tri, w, v]), [[0, 1, 2]], np.vstack([up, -e, -e])
        )
        origin = np.zeros((1, 3))
        viol, nn = collider.contacts(origin, 0.0)
        assert nn[0] == 4 and viol[0] < 0
        assert viol.tobytes() == reference_contacts(collider, origin, 0.0)[0].tobytes()

    @pytest.mark.parametrize("flip", [False, True], ids=["up", "down"])
    def test_bound_is_tight_at_voxel_corners(self, flip):
        # Voxel corners k * a with k1 + k2 + k3 = 15 lie on one plane normal
        # to the diagonal. The collider plane sits 1e-10 * a past them, on
        # their contact side. Facing up, the worst point of a voxel is its
        # lowest corner; facing down, it is the highest, approached from
        # inside the voxel below. Either way the voxel's bound is attained.
        probe = tilted_plane()
        probe.contacts(np.zeros((1, 3)), 0.0)
        a = probe._clearance.size  # set by the grid spacing alone
        sign = np.sign(tilted_plane(0.0, flip).normals[0] @ DIAGONAL)
        collider = tilted_plane(15 * a / np.sqrt(3.0) + sign * 1e-10 * a, flip)
        k = np.stack(np.meshgrid(*[np.arange(16)] * 3, indexing="ij"), -1).reshape(-1, 3)
        corners = k[k.sum(axis=1) == 15] * a
        radial = corners - np.outer(corners @ DIAGONAL, DIAGONAL)
        corners = corners[np.linalg.norm(radial, axis=1) < 0.15]
        if sign < 0:
            corners -= 2e-13 * a
        want_viol, _ = reference_contacts(collider, corners, 0.0)
        assert len(corners) > 10 and np.all(want_viol < 0)
        viol, _ = collider.contacts(corners, 0.0)
        assert viol.tobytes() == want_viol.tobytes()

    @pytest.mark.parametrize("name", sorted(COLLIDERS))
    def test_row_gathers_equal_the_fancy_index_form(self, name, monkeypatch):
        import drapefit.collider

        eps = 1e-3
        pts = probe_points(COLLIDERS[name](), eps, np.random.default_rng(31))
        results = []
        for gather in (drapefit.collider.gather_rows, lambda a, rows: a[rows]):
            monkeypatch.setattr(drapefit.collider, "gather_rows", gather)
            collider = COLLIDERS[name]()
            results.append(collider.contacts(pts, eps) + collider.index.nearest(pts))
        assert (results[0][1] >= 0).any()
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_threads_sharing_a_cold_collider_get_the_serial_contacts(self):
        # four threads fill one collider's voxel cache at once in many small
        # queries, switching often; each must get what it gets alone
        rng = np.random.default_rng(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for _ in range(5):
                sets = [rng.uniform(-0.5, 0.5, (30, 100, 3)) for _ in range(4)]
                want = [icosphere(3, 0.3).contacts(pts.reshape(-1, 3), 0.01) for pts in sets]
                collider = icosphere(3, 0.3)
                got = [[] for _ in sets]

                def query(k):
                    for pts in sets[k]:
                        got[k].append(collider.contacts(pts, 0.01))

                threads = [threading.Thread(target=query, args=(k,)) for k in range(len(sets))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for parts, (want_viol, want_nn) in zip(got, want):
                    assert len(parts) == 30
                    viol, nn = (np.concatenate(a) for a in zip(*parts))
                    assert viol.tobytes() == want_viol.tobytes()
                    assert np.array_equal(nn, want_nn)
        finally:
            sys.setswitchinterval(interval)
