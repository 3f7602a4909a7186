import threading

import numpy as np
import pytest

from drapefit import (
    GarmentRestMesh,
    RestAtlas,
    barycentric_coords,
    build_atlas,
    locate_triangle,
    rest_length,
    rest_position,
    square_cloth,
    square_cloth_with_hole,
)
from drapefit.errors import DegenerateTriangle, InvalidUvPoint
import drapefit.rows
from drapefit.restatlas import TriangleLocator, dump_atlas_png
from drapefit.rows import ROW_BLOCK


def brute_force_locate(mesh, p, tol=-1e-9):
    """Independent containment oracle: scan every triangle, lowest index wins."""
    for t, tri in enumerate(mesh.triangles):
        a, b, c = (mesh.uvs[k] for k in tri)
        try:
            lam = barycentric_coords(p, a, b, c)
        except DegenerateTriangle:
            continue
        if lam.lambda1 >= tol and lam.lambda2 >= tol and lam.lambda3 >= tol:
            return t
    return None


class TestBarycentric:
    def test_vertex_case(self):
        a, b, c = (0.1, 0.2), (0.9, 0.3), (0.4, 0.8)
        lam = barycentric_coords(a, a, b, c)
        assert np.allclose(lam.as_array(), [1, 0, 0], atol=1e-12)

    def test_centroid(self):
        a, b, c = np.array([0.1, 0.2]), np.array([0.9, 0.3]), np.array([0.4, 0.8])
        lam = barycentric_coords((a + b + c) / 3, a, b, c)
        assert np.allclose(lam.as_array(), [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_hand_solved_system(self):
        # lambda solves [[ax bx cx],[ay by cy],[1 1 1]] lam = [px py 1]
        a, b, c = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)
        lam = barycentric_coords((0.25, 0.5), a, b, c)
        mat = np.array([[0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
        expected = np.linalg.solve(mat, np.array([0.25, 0.5, 1.0]))
        assert np.allclose(lam.as_array(), expected, atol=1e-12)
        assert np.allclose(lam.as_array(), [0.25, 0.25, 0.5], atol=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTriangle):
            barycentric_coords((0, 0), (0, 0), (1, 1), (2, 2))

    def test_reconstruction_random_triangles(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tri = rng.uniform(0, 1, (3, 2))
            e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
            if abs(e1[0] * e2[1] - e1[1] * e2[0]) < 1e-3:
                continue
            w = rng.dirichlet([1, 1, 1])
            p = w @ tri
            lam = barycentric_coords(p, *tri)
            rebuilt = lam.as_array() @ tri
            assert np.allclose(rebuilt, p, atol=1e-12)
            assert abs(sum(lam.as_array()) - 1.0) < 1e-9

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        tri = np.array([[0.1, 0.1], [0.8, 0.2], [0.3, 0.9]])
        p = np.array([0.4, 0.4])
        base = barycentric_coords(p, *tri).as_array()
        for _ in range(20):
            mat = rng.normal(0, 1, (2, 2))
            if abs(np.linalg.det(mat)) < 0.1:
                continue
            shift = rng.normal(0, 2, 2)
            mapped = barycentric_coords(
                mat @ p + shift, *(mat @ v + shift for v in tri)
            ).as_array()
            assert np.allclose(mapped, base, atol=1e-9)


class TestLocate:
    def test_vertex_tie_lowest_triangle(self, planar_mesh):
        # an interior mesh vertex touches several triangles; ties resolve low
        vid = 4 * 9 + 4
        p = planar_mesh.uvs[vid]
        got = locate_triangle(planar_mesh, p)
        assert got == brute_force_locate(planar_mesh, p)

    def test_outside_returns_none(self, half_mesh):
        assert locate_triangle(half_mesh, (0.9, 0.9)) is None
        assert locate_triangle(half_mesh, (1.5, 0.2)) is None

    def test_matches_brute_force_on_random_points(self, curved_mesh, half_mesh):
        rng = np.random.default_rng(42)
        for mesh in (curved_mesh, half_mesh):
            pts = rng.uniform(-0.05, 1.05, (10_000, 2))
            tri, _ = mesh.locator().locate(pts)
            sample = rng.choice(len(pts), 400, replace=False)
            for k in sample:
                expect = brute_force_locate(mesh, pts[k])
                got = int(tri[k]) if tri[k] >= 0 else None
                assert got == expect, (pts[k], got, expect)


def former_locate(loc, points):
    """The locator's former arithmetic: fancy-index gathers, and ``np.unique``
    to pick each point's first hit."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tri_out = np.full(len(pts), -1, dtype=np.int64)
    lam_out = np.zeros((len(pts), 3), dtype=np.float64)
    g = loc.bins
    inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1) & np.all(np.isfinite(pts), axis=1)
    idx = np.flatnonzero(inside)
    cx = np.clip((pts[idx, 0] * g).astype(np.int64), 0, g - 1)
    cy = np.clip((pts[idx, 1] * g).astype(np.int64), 0, g - 1)
    starts = loc._cell_start[cy * g + cx]
    lengths = loc._cell_end[cy * g + cx] - starts
    ends = np.cumsum(lengths)
    local = np.arange(lengths.sum()) - np.repeat(ends - lengths, lengths)
    cand_tri = loc._cell_tris[np.repeat(starts, lengths) + local]
    cand_pt = np.repeat(idx, lengths)
    ap = pts[cand_pt] - loc._a[cand_tri]
    inv = loc._inv_denom[cand_tri]
    ab = loc._ab[cand_tri]
    ac = loc._ac[cand_tri]
    l2 = (ap[:, 0] * ac[:, 1] - ap[:, 1] * ac[:, 0]) * inv
    l3 = (ab[:, 0] * ap[:, 1] - ab[:, 1] * ap[:, 0]) * inv
    l1 = 1.0 - l2 - l3
    hit = (l1 >= -1e-9) & (l2 >= -1e-9) & (l3 >= -1e-9)
    first_pts, first_at = np.unique(cand_pt[hit], return_index=True)
    sel = np.flatnonzero(hit)[first_at]
    tri_out[first_pts] = cand_tri[sel]
    lam_out[first_pts] = np.stack([l1[sel], l2[sel], l3[sel]], axis=1)
    return tri_out, lam_out


def former_rest_positions(loc, points):
    """Rest positions by the former masked fancy-index path for every batch."""
    tri, lam = former_locate(loc, points)
    valid = tri >= 0
    out = np.zeros((len(tri), 3), dtype=np.float64)
    out[valid] = np.einsum("kc,kcd->kd", lam[valid], loc._rest[tri[valid]])
    return out, valid


def query_points(mesh, seed=0):
    """Random points over and around the unit square, every mesh vertex and
    edge midpoint (shared by several triangles), outside and non-finite
    points, shuffled together."""
    rng = np.random.default_rng(seed)
    tri_uv = mesh.uvs[mesh.triangles]
    pts = np.concatenate([
        rng.uniform(-0.05, 1.05, (3000, 2)),
        mesh.uvs,
        0.5 * (tri_uv + np.roll(tri_uv, 1, axis=1)).reshape(-1, 2),
        [[1.5, 0.2], [-0.1, 0.5], [np.nan, 0.5], [0.5, np.inf], [-np.inf, np.nan]],
    ])
    return pts[rng.permutation(len(pts))]


class TestLookupIsExact:
    """Row gathers and the first-hit scan reproduce the former lookup bit for bit."""

    @pytest.mark.parametrize("name", ["curved", "square", "holed", "infinite"])
    def test_equals_the_former_lookup(self, curved_mesh, name):
        holed = square_cloth_with_hole(33)
        far = holed.vertices.copy()
        far[holed.triangles[-1, 0], 0] = np.inf
        mesh = {
            "curved": curved_mesh,
            "square": square_cloth(33),
            "holed": holed,
            # invalid points read the last triangle, whose zero-weight blend is NaN here
            "infinite": GarmentRestMesh(far, holed.uvs, holed.triangles),
        }[name]
        loc = mesh.locator()
        pts = query_points(mesh)
        for got, want in zip(loc.locate(pts), former_locate(loc, pts)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        pos, valid = loc.rest_positions(pts)
        want_pos, want_valid = former_rest_positions(loc, pts)
        assert not valid.all() and valid.any()
        assert np.array_equal(valid, want_valid) and pos.tobytes() == want_pos.tobytes()
        # and a batch of valid points only
        inner = pts[valid]
        pos, valid = loc.rest_positions(inner)
        want_pos, _ = former_rest_positions(loc, inner)
        assert valid.all() and pos.tobytes() == want_pos.tobytes()

    def test_vertex_and_edge_ties_resolve_to_the_lowest_triangle(self):
        mesh = square_cloth(33)
        pts = query_points(mesh)[:400]
        tri, _ = mesh.locator().locate(pts)
        for p, t in zip(pts, tri):
            got = int(t) if t >= 0 else None
            assert got == brute_force_locate(mesh, p), p

    def test_empty_batch(self, curved_mesh):
        loc = curved_mesh.locator()
        tri, lam = loc.locate(np.empty((0, 2)))
        pos, valid = loc.rest_positions(np.empty((0, 2)))
        assert tri.shape == (0,) and lam.shape == (0, 3)
        assert pos.shape == (0, 3) and valid.shape == (0,)


class TestHoledCloth:
    def test_hole_is_outside_the_garment(self):
        mesh = square_cloth_with_hole(9)
        mesh.validate()
        assert len(mesh.triangles) == 2 * 8 * 8 - 2 * 4 * 4
        # every vertex is used; none lies strictly inside the hole
        assert np.array_equal(np.unique(mesh.triangles), np.arange(len(mesh.uvs)))
        assert not np.all((mesh.uvs > 0.25) & (mesh.uvs < 0.75), axis=1).any()
        pts = np.array([[0.5, 0.5], [0.3, 0.7], [0.74, 0.26], [0.25, 0.5], [0.1, 0.9]])
        tri, _ = mesh.locator().locate(pts)
        assert np.array_equal(tri < 0, [True, True, True, False, False])
        for p, t in zip(pts, tri):
            assert (int(t) if t >= 0 else None) == brute_force_locate(mesh, p)
        with pytest.raises(InvalidUvPoint):
            rest_position(mesh, (0.5, 0.5))

    def test_atlas_mask_has_the_hole(self):
        atlas = build_atlas(square_cloth_with_hole(9), resolution=8)
        assert np.array_equal(atlas.mask[2:6, 2:6], np.zeros((4, 4), dtype=bool))
        assert atlas.valid_fraction() == pytest.approx(0.75)

    def test_resolution_too_small(self):
        with pytest.raises(ValueError):
            square_cloth_with_hole(4)


class TestRestPosition:
    def test_vertex_lookup(self, curved_mesh):
        for vid in (0, 17, 60):
            pos = rest_position(curved_mesh, curved_mesh.uvs[vid])
            assert np.allclose(pos, curved_mesh.vertices[vid], atol=1e-12)

    def test_identity_plane(self, planar_mesh):
        assert np.allclose(
            rest_position(planar_mesh, (0.3, 0.7)), [0.3, 0.7, 0.0], atol=1e-15
        )

    def test_matches_per_triangle_oracle(self, curved_mesh):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = rng.uniform(0.01, 0.99, 2)
            t = brute_force_locate(curved_mesh, p)
            tri = curved_mesh.triangles[t]
            lam = barycentric_coords(p, *(curved_mesh.uvs[k] for k in tri)).as_array()
            expect = lam @ curved_mesh.vertices[tri]
            assert np.allclose(rest_position(curved_mesh, p), expect, atol=1e-12)

    def test_invalid_point_raises(self, half_mesh):
        with pytest.raises(InvalidUvPoint):
            rest_position(half_mesh, (0.95, 0.95))


class TestRestLength:
    def test_zero_for_same_point(self, curved_mesh):
        assert rest_length(curved_mesh, (0.4, 0.4), (0.4, 0.4)) == 0.0

    def test_345_triangle(self, planar_mesh):
        assert rest_length(planar_mesh, (0.0, 0.0), (0.3, 0.4)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_symmetry_exact(self, curved_mesh):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = rng.uniform(0.02, 0.98, 2), rng.uniform(0.02, 0.98, 2)
            assert rest_length(curved_mesh, a, b) == rest_length(curved_mesh, b, a)

    def test_uniform_scaling_oracle(self):
        # a plane scaled by S in 3D has rest lengths S * |a - b|
        scale = 2.75
        base = square_cloth(7)
        mesh = GarmentRestMesh(base.vertices * scale, base.uvs, base.triangles)
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b = rng.uniform(0.01, 0.99, 2), rng.uniform(0.01, 0.99, 2)
            assert rest_length(mesh, a, b) == pytest.approx(
                scale * np.linalg.norm(a - b), rel=1e-12
            )


class TestAtlas:
    def test_identity_resolution_4(self, planar_mesh):
        atlas = build_atlas(planar_mesh, 4)
        assert atlas.mask.all() and atlas.mask.size == 16
        meters = atlas.positions_meters()
        for i in range(4):
            for j in range(4):
                center = ((j + 0.5) / 4, (i + 0.5) / 4)
                assert np.allclose(meters[i, j], [*center, 0.0], atol=1e-9)

    def test_half_coverage_mask(self, half_mesh):
        atlas = build_atlas(half_mesh, 32)
        jj, ii = np.meshgrid(np.arange(32), np.arange(32))
        u = (jj + 0.5) / 32
        v = (ii + 0.5) / 32
        assert np.array_equal(atlas.mask, u + v <= 1.0 + 1e-12)

    def test_matches_barycentric_oracle(self, curved_mesh):
        atlas = build_atlas(curved_mesh, 64)
        meters = atlas.positions_meters()
        rng = np.random.default_rng(8)
        valid = np.argwhere(atlas.mask)
        pick = valid[rng.choice(len(valid), 1000)]
        for i, j in pick:
            center = ((j + 0.5) / 64, (i + 0.5) / 64)
            assert np.allclose(
                meters[i, j], rest_position(curved_mesh, center), atol=1e-6
            )

    def test_normalization_convention(self, curved_mesh):
        atlas = build_atlas(curved_mesh, 16)
        lo = curved_mesh.vertices.min(axis=0)
        extent = (curved_mesh.vertices.max(axis=0) - lo).max()
        assert atlas.scale == pytest.approx(1.0 / extent)
        assert np.allclose(atlas.offset, lo)
        assert atlas.positions[atlas.mask].min() >= -1e-9
        assert atlas.positions[atlas.mask].max() <= 1.0 + 1e-9

    def test_equals_per_pixel_rest_positions(self, curved_mesh):
        # the atlas is one batched lookup; each pixel must hold the bits of
        # its own single-point lookup, and +0 where the pixel is invalid
        for mesh, R in ((curved_mesh, 32), (square_cloth_with_hole(9), 24)):
            atlas = build_atlas(mesh, R)
            loc = mesh.locator()
            lo = mesh.vertices.min(axis=0)
            for i in range(R):
                for j in range(R):
                    pos, valid = loc.rest_positions([[(j + 0.5) / R, (i + 0.5) / R]])
                    assert atlas.mask[i, j] == valid[0]
                    expected = (pos[0] - lo) * atlas.scale if valid[0] else np.zeros(3)
                    assert atlas.positions[i, j].tobytes() == expected.tobytes()
        assert not atlas.mask.all()  # the holed cloth, last, has invalid pixels

    def test_minimum_resolution(self, planar_mesh):
        assert build_atlas(planar_mesh, 2).resolution == 2
        with pytest.raises(ValueError):
            build_atlas(planar_mesh, 1)

    def test_save_load_roundtrip(self, planar_mesh, tmp_path):
        atlas = build_atlas(planar_mesh, 8)
        path = tmp_path / "atlas.npz"
        atlas.save(path)
        back = RestAtlas.load(path)
        assert back.resolution == atlas.resolution
        assert np.array_equal(back.positions, atlas.positions)
        assert np.array_equal(back.mask, atlas.mask)

    def test_png_dump_roundtrip(self, curved_mesh, tmp_path):
        from drapefit.pngio import read_png

        atlas = build_atlas(curved_mesh, 16)
        png = tmp_path / "atlas.png"
        sidecar = tmp_path / "atlas.txt"
        dump_atlas_png(atlas, png, sidecar)
        img = read_png(png)
        assert img.shape == (16, 16, 4)
        assert img.dtype == np.uint16
        # alpha channel carries the mask, rgb is 16-bit-quantized position
        assert np.array_equal(img[:, :, 3] > 0, atlas.mask)
        quant = img[:, :, :3].astype(np.float64) / 65535.0
        assert np.allclose(
            quant[atlas.mask], atlas.positions[atlas.mask], atol=1.0 / 65535.0
        )
        assert "scale" in sidecar.read_text()


class TestMeshValidation:
    def test_rejects_uv_out_of_range(self):
        mesh = GarmentRestMesh(
            np.zeros((3, 3)), np.array([[0, 0], [1.5, 0], [0, 1]]), [[0, 1, 2]]
        )
        with pytest.raises(ValueError):
            mesh.validate()

    def test_rejects_degenerate_uv_triangle(self):
        mesh = GarmentRestMesh(
            np.zeros((3, 3)), np.array([[0, 0], [1, 0], [0.5, 0]]), [[0, 1, 2]]
        )
        with pytest.raises(DegenerateTriangle):
            mesh.validate()

    def test_rejects_overlapping_interiors(self):
        uvs = np.array([[0, 0], [1, 0], [0, 1], [0.6, 0.6]])
        mesh = GarmentRestMesh(
            np.zeros((4, 3)), uvs, [[0, 1, 2], [0, 1, 3]]
        )
        with pytest.raises(ValueError):
            mesh.validate()

    def test_accepts_touching_triangles(self, planar_mesh, half_mesh):
        planar_mesh.validate()
        half_mesh.validate()


def first_containing_triangle(mesh, p, tol=-1e-9):
    """Vectorised containment oracle: barycentrics of p in every triangle,
    lowest index wins."""
    a, b, c = (mesh.uvs[mesh.triangles[:, k]] for k in range(3))
    area = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    l1 = ((b[:, 0] - p[0]) * (c[:, 1] - p[1]) - (b[:, 1] - p[1]) * (c[:, 0] - p[0])) / area
    l2 = ((p[0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (p[1] - a[:, 1]) * (c[:, 0] - a[:, 0])) / area
    hits = np.flatnonzero((l1 >= tol) & (l2 >= tol) & (1.0 - l1 - l2 >= tol))
    return int(hits[0]) if len(hits) else None


class TestBlockedLookup:
    """``rest_positions`` locates and blends in row blocks, bit for bit."""

    @pytest.mark.parametrize("name", ["holed", "infinite"])
    def test_equals_one_locate_pass(self, monkeypatch, name):
        mesh = square_cloth_with_hole(33)
        if name == "infinite":
            # invalid points read the last triangle, whose zero-weight blend is NaN here
            far = mesh.vertices.copy()
            far[mesh.triangles[-1, 0], 0] = np.inf
            mesh = GarmentRestMesh(far, mesh.uvs, mesh.triangles)
        loc = mesh.locator()
        rng = np.random.default_rng(3)
        pts = np.concatenate([rng.uniform(-0.05, 1.05, (3 * ROW_BLOCK + 77, 2)), query_points(mesh)])
        pts = pts[rng.permutation(len(pts))]
        tri, lam = loc.locate(pts)
        want_valid = tri >= 0
        want = np.einsum("kc,kcd->kd", lam, loc._rest[tri])
        want[~want_valid] = 0.0
        located = []
        locate = loc.locate

        def counting_locate(points):
            located.append(len(points))
            return locate(points)

        monkeypatch.setattr(loc, "locate", counting_locate)
        pos, valid = loc.rest_positions(pts)
        assert len(located) == len(pts) // ROW_BLOCK > 1 and min(located) == ROW_BLOCK
        assert sum(located) == len(pts)
        assert not valid.all() and valid.any()
        assert np.array_equal(valid, want_valid) and pos.tobytes() == want.tobytes()

    def test_uncapped_grid_on_a_large_garment(self):
        mesh = square_cloth(256)
        loc = mesh.locator()
        assert loc.bins == int(np.sqrt(len(mesh.triangles))) == 360
        # every 17th vertex line of the 255-cell cloth, k / 255 = 24 q / 360,
        # lies on a cell boundary of the 360-cell grid
        rng = np.random.default_rng(4)
        line = np.arange(0, 256, 17) / 255.0
        on_lines = np.stack([np.repeat(line, 3), rng.random(3 * len(line))], axis=1)
        corners = np.stack(np.meshgrid(line[::3], line[::3]), axis=-1).reshape(-1, 2)
        pts = np.concatenate([rng.random((60, 2)), on_lines, on_lines[:, ::-1], corners])
        tri, _ = loc.locate(pts)
        for p, t in zip(pts, tri):
            assert (int(t) if t >= 0 else None) == first_containing_triangle(mesh, p), p

    @pytest.mark.parametrize("name", ["holed", "infinite"])
    def test_pooled_equals_inline(self, monkeypatch, name):
        mesh = square_cloth_with_hole(33)
        if name == "infinite":
            far = mesh.vertices.copy()
            far[mesh.triangles[-1, 0], 0] = np.inf
            mesh = GarmentRestMesh(far, mesh.uvs, mesh.triangles)
        loc = mesh.locator()
        locate = loc.locate
        threads = set()

        def recording_locate(points):
            threads.add(threading.get_ident())
            return locate(points)

        monkeypatch.setattr(loc, "locate", recording_locate)
        rng = np.random.default_rng(5)
        pts_all = np.concatenate([rng.uniform(-0.05, 1.05, (114689, 2)), query_points(mesh)])
        pts_all = pts_all[rng.permutation(len(pts_all))]
        # non-finite rows in every block, not only the few of query_points
        spread = np.arange(7, len(pts_all), 4999)
        pts_all[spread] = np.array([[np.nan, 0.5], [0.5, np.inf], [-np.inf, np.nan]])[
            spread % 3
        ]
        for n in (0, 1, 16383, 16384, 16385, 114688, 114689):
            pts = pts_all[:n]
            with monkeypatch.context() as m:
                m.setattr(drapefit.rows, "POOL_SIZE", 1)
                threads.clear()
                want, want_valid = loc.rest_positions(pts)
                assert threads <= {threading.get_ident()}
            with monkeypatch.context() as m:
                # at least two workers, also where the process may use one CPU only
                m.setattr(drapefit.rows, "POOL_SIZE", max(2, drapefit.rows.POOL_SIZE))
                threads.clear()
                pos, valid = loc.rest_positions(pts)
                assert (threads <= {threading.get_ident()}) == (n < 2 * ROW_BLOCK), n
            if n > 1000:
                assert not valid.all() and valid.any()
                assert not np.isfinite(pts[~valid]).all()
            assert np.array_equal(valid, want_valid), n
            assert pos.tobytes() == want.tobytes(), n


class TestLocatorBuild:
    @pytest.mark.parametrize(
        "mesh",
        [square_cloth(256), square_cloth_with_hole(64), square_cloth(17)],
        ids=["cloth256", "holed64", "cloth17"],
    )
    def test_cell_arrays_equal_the_lexsort_build(self, mesh):
        # the former build: a lexsort on (cell, triangle) and two searchsorted
        # passes over the sorted cells
        loc = TriangleLocator(mesh)
        g = loc.bins
        tri_uv = mesh.uvs[mesh.triangles]
        lo = np.clip((tri_uv.min(axis=1) * g).astype(np.int64), 0, g - 1)
        hi = np.clip((tri_uv.max(axis=1) * g).astype(np.int64), 0, g - 1)
        tri_rep, cell_id = [], []
        for t in range(len(mesh.triangles)):
            for cy in range(lo[t, 1], hi[t, 1] + 1):
                for cx in range(lo[t, 0], hi[t, 0] + 1):
                    tri_rep.append(t)
                    cell_id.append(cy * g + cx)
        tri_rep, cell_id = np.array(tri_rep), np.array(cell_id)
        order = np.lexsort((tri_rep, cell_id))
        sorted_cells = cell_id[order]
        cells = np.arange(g * g)
        for got, want in (
            (loc._cell_tris, tri_rep[order]),
            (loc._cell_start, np.searchsorted(sorted_cells, cells, side="left")),
            (loc._cell_end, np.searchsorted(sorted_cells, cells, side="right")),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
