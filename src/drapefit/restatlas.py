"""Garment rest geometry: UV triangulation, barycentric lookup, and the rest-position atlas.

The garment is a triangle mesh whose vertices carry both a rest 3D position
and a UV coordinate in [0, 1]^2. The UV map is assumed bijective onto its
image, so the rest position of any point inside the triangulation is the
barycentric blend of its triangle's rest vertices. A raster atlas of those
positions can be precomputed once per garment as an optional accelerator;
all numeric paths in this package use the exact barycentric route.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTriangle, InvalidUvPoint
from .rows import gather_rows, map_blocks

AREA_EPS = 1e-12          # |signed area| at or below this is degenerate
CONTAINMENT_TOL = -1e-9   # barycentric coordinates may undershoot by this much


@dataclass
class BarycentricCoords:
    lambda1: float
    lambda2: float
    lambda3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.lambda1, self.lambda2, self.lambda3])


def _signed_area(a, b, c) -> float:
    return 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def barycentric_coords(p, a, b, c) -> BarycentricCoords:
    """Barycentric coordinates of 2D point p in triangle (a, b, c).

    Raises DegenerateTriangle when the triangle's |signed area| <= 1e-12.
    """
    p = np.asarray(p, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    area = _signed_area(a, b, c)
    if abs(area) <= AREA_EPS:
        raise DegenerateTriangle(f"triangle area {area} below threshold {AREA_EPS}")
    l1 = _signed_area(p, b, c) / area
    l2 = _signed_area(a, p, c) / area
    l3 = 1.0 - l1 - l2
    return BarycentricCoords(l1, l2, l3)


@dataclass
class GarmentRestMesh:
    """Garment rest mesh: 3D vertices, their UV coordinates, shared triangles."""

    vertices: np.ndarray   # (n, 3) rest positions, meters
    uvs: np.ndarray        # (n, 2) in [0, 1]^2
    triangles: np.ndarray  # (m, 3) vertex indices
    name: str = "garment"
    _locator: "TriangleLocator | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.uvs = np.asarray(self.uvs, dtype=np.float64).reshape(-1, 2)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)

    def validate(self, check_overlaps: bool = True) -> None:
        """Check the mesh invariants; raises ValueError or DegenerateTriangle."""
        n = len(self.vertices)
        if len(self.uvs) != n:
            raise ValueError("uvs and vertices must be parallel arrays")
        if self.triangles.min(initial=0) < 0 or self.triangles.max(initial=-1) >= n:
            raise ValueError("triangle index out of range")
        if np.any(self.uvs < 0.0) or np.any(self.uvs > 1.0):
            raise ValueError("UV coordinates must lie in [0, 1]^2")
        areas = self.uv_signed_areas()
        if np.any(np.abs(areas) <= AREA_EPS):
            bad = int(np.argmin(np.abs(areas)))
            raise DegenerateTriangle(f"UV triangle {bad} has area {areas[bad]}")
        if check_overlaps and _any_interior_overlap(self.uvs, self.triangles):
            raise ValueError("UV triangles have overlapping interiors")

    def uv_signed_areas(self) -> np.ndarray:
        a, b, c = (self.uvs[self.triangles[:, k]] for k in range(3))
        return 0.5 * (
            (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
            - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        )

    def locator(self) -> "TriangleLocator":
        if self._locator is None:
            self._locator = TriangleLocator(self)
        return self._locator


def _any_interior_overlap(uvs, triangles) -> bool:
    # SAT over candidate pairs from a bounding-box bin grid. Triangles that
    # only touch (shared edges/vertices) have a zero-separation axis and do
    # not count as overlapping.
    m = len(triangles)
    if m < 2:
        return False
    tri_uv = uvs[triangles]                      # (m, 3, 2)
    lo = tri_uv.min(axis=1)
    hi = tri_uv.max(axis=1)
    g = max(1, int(np.sqrt(m)))
    cell_lo = np.clip((lo * g).astype(np.int64), 0, g - 1)
    cell_hi = np.clip((hi * g).astype(np.int64), 0, g - 1)

    buckets: dict[tuple[int, int], list[int]] = {}
    for t in range(m):
        for i in range(cell_lo[t, 0], cell_hi[t, 0] + 1):
            for j in range(cell_lo[t, 1], cell_hi[t, 1] + 1):
                buckets.setdefault((i, j), []).append(t)
    pairs = set()
    for members in buckets.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.add((members[i], members[j]))
    if not pairs:
        return False
    pa = np.array(sorted(pairs), dtype=np.int64)
    t1 = tri_uv[pa[:, 0]]
    t2 = tri_uv[pa[:, 1]]
    # bbox prefilter
    keep = np.all(t1.min(axis=1) <= t2.max(axis=1) + 1e-15, axis=1) & np.all(
        t2.min(axis=1) <= t1.max(axis=1) + 1e-15, axis=1
    )
    t1, t2 = t1[keep], t2[keep]
    if len(t1) == 0:
        return False
    overlapping = np.ones(len(t1), dtype=bool)
    for poly_a, poly_b in ((t1, t2), (t2, t1)):
        for k in range(3):
            edge = poly_a[:, (k + 1) % 3] - poly_a[:, k]
            normal = np.stack([-edge[:, 1], edge[:, 0]], axis=1)  # (P, 2)
            ref = np.einsum("pd,pd->p", normal, poly_a[:, k])
            proj_a = np.einsum("pd,pvd->pv", normal, poly_a) - ref[:, None]
            proj_b = np.einsum("pd,pvd->pv", normal, poly_b) - ref[:, None]
            sep = (proj_b.min(axis=1) >= proj_a.max(axis=1) - 1e-12) | (
                proj_b.max(axis=1) <= proj_a.min(axis=1) + 1e-12
            )
            overlapping &= ~sep
    return bool(overlapping.any())


class TriangleLocator:
    """Point-in-triangulation queries over the garment's UV layout.

    Triangles are binned by UV bounding box into a uniform grid of
    max(1, floor(sqrt(triangle count))) cells per side, about one triangle
    per cell; a query gathers candidates from its bin and tests barycentric
    containment with tolerance -1e-9. Ties at shared edges resolve to the
    lowest triangle index, so results are deterministic.
    """

    def __init__(self, mesh: GarmentRestMesh):
        self.mesh = mesh
        tris = mesh.triangles
        uv = mesh.uvs
        self._a = uv[tris[:, 0]]
        self._ab = uv[tris[:, 1]] - self._a
        self._ac = uv[tris[:, 2]] - self._a
        denom = self._ab[:, 0] * self._ac[:, 1] - self._ab[:, 1] * self._ac[:, 0]
        if np.any(np.abs(denom) <= 2.0 * AREA_EPS):
            bad = int(np.argmin(np.abs(denom)))
            raise DegenerateTriangle(f"UV triangle {bad} is degenerate")
        self._inv_denom = 1.0 / denom
        self._rest = mesh.vertices[tris]          # (m, 3, 3)

        m = len(tris)
        self.bins = max(1, int(np.sqrt(m)))
        g = self.bins
        tri_uv = uv[tris]
        lo = np.clip((tri_uv.min(axis=1) * g).astype(np.int64), 0, g - 1)
        hi = np.clip((tri_uv.max(axis=1) * g).astype(np.int64), 0, g - 1)
        spans_x = hi[:, 0] - lo[:, 0] + 1
        spans_y = hi[:, 1] - lo[:, 1] + 1
        counts_per_tri = spans_x * spans_y
        tri_rep = np.repeat(np.arange(m), counts_per_tri)
        # enumerate covered cells per triangle
        offsets = np.concatenate([[0], np.cumsum(counts_per_tri)])
        local = np.arange(counts_per_tri.sum()) - np.repeat(offsets[:-1], counts_per_tri)
        sx = spans_x[tri_rep]
        cell_x = lo[tri_rep, 0] + local % sx
        cell_y = lo[tri_rep, 1] + local // sx
        cell_id = cell_y * g + cell_x
        # tri_rep ascends, so a stable sort on the cell alone is cell-major
        # with triangles ascending within each cell
        self._cell_tris = tri_rep[np.argsort(cell_id, kind="stable")]
        per_cell = np.bincount(cell_id, minlength=g * g)
        self._cell_end = np.cumsum(per_cell)
        self._cell_start = self._cell_end - per_cell

    def locate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Locate each 2D point; returns (triangle index or -1, (B, 3) barycentrics)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        B = len(pts)
        tri_out = np.full(B, -1, dtype=np.int64)
        lam_out = np.zeros((B, 3), dtype=np.float64)
        g = self.bins
        inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1) & np.all(
            np.isfinite(pts), axis=1
        )
        if not inside.any():
            return tri_out, lam_out
        idx = np.flatnonzero(inside)
        cx = np.clip((pts[idx, 0] * g).astype(np.int64), 0, g - 1)
        cy = np.clip((pts[idx, 1] * g).astype(np.int64), 0, g - 1)
        cell = cy * g + cx
        starts = self._cell_start[cell]
        lengths = self._cell_end[cell] - starts
        total = int(lengths.sum())
        if total == 0:
            return tri_out, lam_out
        ends = np.cumsum(lengths)
        local = np.arange(total) - np.repeat(ends - lengths, lengths)
        cand_tri = self._cell_tris[np.repeat(starts, lengths) + local]
        cand_pt = np.repeat(idx, lengths)

        ap = gather_rows(pts, cand_pt) - gather_rows(self._a, cand_tri)
        inv = gather_rows(self._inv_denom, cand_tri)
        ab = gather_rows(self._ab, cand_tri)
        ac = gather_rows(self._ac, cand_tri)
        l2 = (ap[:, 0] * ac[:, 1] - ap[:, 1] * ac[:, 0]) * inv
        l3 = (ab[:, 0] * ap[:, 1] - ab[:, 1] * ap[:, 0]) * inv
        l1 = 1.0 - l2 - l3
        hit = (l1 >= CONTAINMENT_TOL) & (l2 >= CONTAINMENT_TOL) & (l3 >= CONTAINMENT_TOL)
        if not hit.any():
            return tri_out, lam_out
        # candidates are grouped by point with triangle index ascending, so the
        # first hit per point realizes the lowest-index tie rule
        sel = np.flatnonzero(hit)
        hit_pts = cand_pt[sel]
        first = np.ones(len(sel), dtype=bool)
        first[1:] = hit_pts[1:] != hit_pts[:-1]
        sel = sel[first]
        first_pts = hit_pts[first]
        tri_out[first_pts] = cand_tri[sel]
        lam_out[first_pts, 0] = l1[sel]
        lam_out[first_pts, 1] = l2[sel]
        lam_out[first_pts, 2] = l3[sel]
        return tri_out, lam_out

    def rest_positions(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Rest 3D positions for a batch of UV points plus a validity mask.

        The points are located and blended in ``row_blocks`` through
        ``map_blocks``, so the candidate arrays of ``locate`` stay in cache
        and the blocks share the CPUs; each point's lookup is independent of
        the others, so the result is that of one pass.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.empty((len(pts), 3), dtype=np.float64)
        valid = np.empty(len(pts), dtype=bool)

        def block(rows):
            tri, lam = self.locate(pts[rows])
            valid[rows] = tri >= 0
            # an invalid row has tri -1 and lam 0: it reads the last triangle's
            # corners, and its blend (NaN if a corner is not finite) is reset to +0
            out[rows] = np.einsum("kc,kcd->kd", lam, gather_rows(self._rest, tri))

        map_blocks(block, len(pts))
        out[~valid] = 0.0
        return out, valid


def locate_triangle(mesh: GarmentRestMesh, p) -> int | None:
    """Index of the UV triangle containing p, or None when p is not valid."""
    tri, _ = mesh.locator().locate(np.asarray(p, dtype=np.float64)[None, :])
    return int(tri[0]) if tri[0] >= 0 else None


def rest_position(mesh: GarmentRestMesh, p) -> np.ndarray:
    """Rest 3D position of a valid UV point via barycentric interpolation."""
    pos, valid = mesh.locator().rest_positions(np.asarray(p, dtype=np.float64)[None, :])
    if not valid[0]:
        raise InvalidUvPoint(f"UV point {tuple(np.asarray(p))} is outside the garment")
    return pos[0]


def rest_length(mesh: GarmentRestMesh, a, b) -> float:
    """Rest-space distance between the 3D liftings of two valid UV points."""
    pos, valid = mesh.locator().rest_positions(
        np.asarray([a, b], dtype=np.float64)
    )
    if not valid.all():
        bad = "a" if not valid[0] else "b"
        raise InvalidUvPoint(f"UV point {bad} is outside the garment")
    return float(np.linalg.norm(pos[0] - pos[1]))


@dataclass
class RestAtlas:
    """Raster table of normalized rest positions over the UV unit square.

    positions[i, j] corresponds to the pixel center
    ((j + 0.5) / resolution, (i + 0.5) / resolution); stored values are
    (position - offset) * scale with scale = 1 / (largest bounding-box
    extent) and offset = bounding-box minimum, so every valid entry lies in
    [0, 1]^3. mask marks pixel centers inside the UV triangulation.
    """

    resolution: int
    positions: np.ndarray  # (R, R, 3) normalized
    mask: np.ndarray       # (R, R) bool
    scale: float
    offset: np.ndarray     # (3,)

    def positions_meters(self) -> np.ndarray:
        return self.positions / self.scale + self.offset

    def valid_fraction(self) -> float:
        return float(self.mask.mean())

    def save(self, path) -> None:
        np.savez(
            path,
            resolution=self.resolution,
            positions=self.positions,
            mask=self.mask,
            scale=self.scale,
            offset=self.offset,
        )

    @classmethod
    def load(cls, path) -> "RestAtlas":
        data = np.load(path)
        return cls(
            resolution=int(data["resolution"]),
            positions=data["positions"],
            mask=data["mask"],
            scale=float(data["scale"]),
            offset=data["offset"],
        )


def build_atlas(mesh: GarmentRestMesh, resolution: int = 1024) -> RestAtlas:
    """Rasterize rest positions at every valid pixel center of an R x R grid.

    All R^2 pixel centers go through one ``rest_positions`` call, whose row
    blocks share the CPUs; each lookup is independent of the others.
    """
    if resolution < 2:
        raise ValueError("atlas resolution must be >= 2")
    lo = mesh.vertices.min(axis=0)
    extent = float((mesh.vertices.max(axis=0) - lo).max())
    scale = 1.0 / extent if extent > 0 else 1.0

    R = resolution
    centers = (np.arange(R) + 0.5) / R
    u, v = np.meshgrid(centers, centers)  # row i holds v = centers[i]
    pos, valid = mesh.locator().rest_positions(np.stack([u.ravel(), v.ravel()], axis=1))
    positions = np.where(valid[:, None], (pos - lo) * scale, 0.0)
    return RestAtlas(
        resolution=R,
        positions=positions.reshape(R, R, 3),
        mask=valid.reshape(R, R),
        scale=scale,
        offset=lo.copy(),
    )


def dump_atlas_png(atlas: RestAtlas, png_path, sidecar_path) -> None:
    """Debug-only 16-bit RGBA dump: normalized positions in RGB, mask in alpha.

    Quantization makes this lossy; the side-car text file carries the exact
    scale/offset so viewers can recover approximate meters.
    """
    from .pngio import write_png

    rgb = np.clip(np.round(atlas.positions * 65535.0), 0, 65535).astype(np.uint16)
    alpha = (atlas.mask.astype(np.uint16)) * np.uint16(65535)
    write_png(png_path, np.concatenate([rgb, alpha[:, :, None]], axis=2))
    with open(sidecar_path, "w") as fh:
        fh.write(f"resolution {atlas.resolution}\n")
        fh.write(f"scale {atlas.scale!r}\n")
        fh.write(
            f"offset {atlas.offset[0]!r} {atlas.offset[1]!r} {atlas.offset[2]!r}\n"
        )


def square_cloth(resolution: int, name: str = "square-cloth") -> GarmentRestMesh:
    """Flat square garment on z=0 spanning [0, 1]^2 with the identity UV map."""
    if resolution < 2:
        raise ValueError("cloth resolution must be >= 2")
    n = resolution
    axis = np.linspace(0.0, 1.0, n)
    uu, vv = np.meshgrid(axis, axis, indexing="xy")
    uvs = np.stack([uu.ravel(), vv.ravel()], axis=1)
    vertices = np.concatenate([uvs, np.zeros((n * n, 1))], axis=1)
    tris = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            b = a + 1
            c = a + n
            d = c + 1
            tris.append([a, b, d])
            tris.append([a, d, c])
    return GarmentRestMesh(vertices, uvs, np.asarray(tris, dtype=np.int64), name=name)


def square_cloth_with_hole(resolution: int) -> GarmentRestMesh:
    """``square_cloth`` with a square hole in the middle of its UV layout.

    The triangles whose centroid lies inside (1/4, 3/4)^2 are deleted, and
    with them the vertices no remaining triangle uses. When 4 divides
    ``resolution - 1`` the hole is exactly [1/4, 3/4]^2.
    """
    if resolution < 5:
        raise ValueError("holed cloth resolution must be >= 5")
    base = square_cloth(resolution)
    centroids = base.uvs[base.triangles].mean(axis=1)
    keep = ~np.all((centroids > 0.25) & (centroids < 0.75), axis=1)
    used = np.zeros(len(base.uvs), dtype=bool)
    used[base.triangles[keep]] = True
    renumber = np.cumsum(used) - 1
    return GarmentRestMesh(
        base.vertices[used], base.uvs[used], renumber[base.triangles[keep]], name="holed-cloth"
    )
