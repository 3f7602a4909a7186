"""Rigid colliders: triangle mesh, per-vertex normals, exact contact queries.

Collision handling is vertex-to-vertex: cloth points are matched to their
nearest collider vertex, so colliders must be tessellated densely relative
to the cloth feature scale. Analytic generators (icosphere, torus, prism)
are provided so standard drape scenes need no external assets.

Contact queries are culled exactly per voxel. A point p touches the collider
only through s = (p - v).n_v - eps < 0, v its nearest vertex. For p in a
voxel with centre c and half diagonal h, v lies within d(c) + 2h of c, where
d(c) is the distance from c to its nearest vertex. So
s >= min over those candidates of (c - v).n_v - h - eps, and a point whose
voxel has that clearance bound above eps cannot touch the collider and skips
the nearest-vertex search. The voxel edge is twice the collider's mean edge
length. Bounds are built lazily for the voxels that queries reach and cached
on the ``ColliderMesh``: 16 bytes per voxel (an int64 key and a float64
bound), which stay allocated as long as the collider. The cache assumes the
collider's arrays never change: treat them as immutable. Threads may query
one collider at once: each lookup reads one snapshot of the cache, and new
voxels are inserted under a lock.
"""

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateMesh, EmptyCollider, UnreachablePoint
from .objio import ObjData, read_obj
from .rows import gather_rows, map_blocks


def compute_vertex_normals(vertices, triangles) -> np.ndarray:
    """Area-weighted vertex normals: sum of incident face cross products, normalized.

    Vertices with no non-degenerate incident face get a zero normal; they are
    excluded from collision correspondence by callers.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    normals = np.zeros_like(vertices)
    if len(triangles):
        a = vertices[triangles[:, 0]]
        face_n = np.cross(
            vertices[triangles[:, 1]] - a, vertices[triangles[:, 2]] - a
        )
        # first corners of all faces, then second, then third: bincount adds
        # in input order, so each vertex sums its faces in that order
        corners = triangles.T.ravel()
        for d in range(3):
            normals[:, d] = np.bincount(corners, np.tile(face_n[:, d], 3), len(vertices))
    norms = np.linalg.norm(normals, axis=1)
    good = norms > 1e-300
    if len(triangles) and not good.any():
        raise DegenerateMesh("all collider faces are degenerate")
    normals[good] /= norms[good, None]
    return normals


class SpatialIndex:
    """Exact nearest-vertex queries with ties broken by lowest vertex index."""

    def __init__(self, vertices):
        vertices = np.asarray(vertices, dtype=np.float64)
        if len(vertices) == 0:
            raise EmptyCollider("spatial index needs at least one vertex")
        self.vertices = vertices
        self._tree = cKDTree(vertices, leafsize=16)

    def __len__(self) -> int:
        return len(self.vertices)

    def nearest(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Nearest vertex id and Euclidean distance for each query point.

        Raises ``UnreachablePoint`` for a point whose squared distance to
        every vertex overflows, so that no vertex can be called nearest.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n = len(self.vertices)
        k = min(2, n)
        dist, idx = self._tree.query(pts, k=k)
        if k == 1:
            idx = np.full(len(pts), 0, dtype=np.int64)
            d = np.linalg.norm(pts - self.vertices[0], axis=1)
            return idx, d
        # the tree reports a neighbour it cannot reach by the index n
        lost = idx[:, 0] == n
        if lost.any():
            raise UnreachablePoint(
                f"point {pts[lost][0].tolist()} is too far from every collider vertex"
            )
        # recompute distances with one fixed formula so ties are detected
        # consistently with the brute-force reference
        d0 = np.linalg.norm(pts - gather_rows(self.vertices, idx[:, 0]), axis=1)
        d1 = np.full(len(pts), np.inf)
        two = idx[:, 1] < n
        d1[two] = np.linalg.norm(pts[two] - gather_rows(self.vertices, idx[two, 1]), axis=1)
        best = idx[:, 0].astype(np.int64)
        swap = (d1 < d0) | ((d1 == d0) & (idx[:, 1] < idx[:, 0]))
        best[swap] = idx[swap, 1]
        dist = np.minimum(d0, d1)
        # a two-way tie can hide a larger tied set; resolve those exactly
        ties = d0 == d1
        for i in np.flatnonzero(ties):
            ball = self._tree.query_ball_point(pts[i], dist[i] * (1 + 1e-12) + 1e-300)
            cand = np.asarray(sorted(ball), dtype=np.int64)
            dd = np.linalg.norm(self.vertices[cand] - pts[i], axis=1)
            j = cand[dd == dd.min()].min()
            best[i] = j
            dist[i] = np.linalg.norm(pts[i] - self.vertices[j])
        return best, dist


def build_index(vertices) -> SpatialIndex:
    """Build the nearest-vertex index over a collider's vertices."""
    return SpatialIndex(vertices)


def nearest_vertex(index: SpatialIndex, q) -> tuple[int, float]:
    """Nearest collider vertex to one 3D point: (vertex id, distance)."""
    idx, dist = index.nearest(np.asarray(q, dtype=np.float64)[None, :])
    return int(idx[0]), float(dist[0])


_VOXEL_LIMIT = 1 << 20  # voxel indices in (-2^20, 2^20) pack into 3 x 21 key bits
_BUILD_CHUNK = 128      # voxels whose bounds are built per batch, to bound memory
# Relative slack of the clearance test and of the candidate radius, taken of
# the voxel's scale |c| + d(c) + 3h, which bounds |p| and |p - v| for every
# point p in the voxel and candidate v. Against the exact bound, the computed
# s and the computed bound each round in a handful of operations on values of
# that size; unit normals are 1 only to a few ulps; floor(p / a) can place a
# point within ulps of a voxel face in its neighbour; the index's nearest
# vertex may beat a rival by ulps. Together that is ~1e-15 of the scale, three
# orders of magnitude below this slack.
_REL_SLACK = 1e-12


class _VoxelClearance:
    """Lazily built clearance bounds of a collider on a voxel grid."""

    def __init__(self, collider: "ColliderMesh"):
        v, tris = collider.vertices, collider.triangles
        edges = v[np.roll(tris, -1, axis=1)] - v[tris]
        self.size = 2.0 * float(np.linalg.norm(edges, axis=2).mean()) if len(tris) else 0.0
        self.half_diag = 0.5 * np.sqrt(3.0) * self.size
        self.vertices = v
        self.normals = collider.normals
        # zero-normal vertices (no incident face) never produce a contact
        self.usable = np.einsum("nd,nd->n", collider.normals, collider.normals) > 0.5
        self.tree = collider.index._tree
        # (sorted voxel keys, clearance bound per key), replaced whole on insert
        self.table = (np.empty(0, dtype=np.int64), np.empty(0))
        self._lock = threading.Lock()

    def lookup(self, points) -> np.ndarray:
        """Clearance bound of each point's voxel; -inf where none applies."""
        if not (np.isfinite(self.size) and self.size > 0.0):
            return np.full(len(points), -np.inf)
        cell = np.floor(points / self.size)
        # non-finite or huge coordinates have no key and take the exact path
        fits = np.abs(cell) < _VOXEL_LIMIT
        packable = fits[:, 0] & fits[:, 1] & fits[:, 2]
        everywhere = packable.all()
        ijk = (cell if everywhere else cell[packable]).astype(np.int64) + _VOXEL_LIMIT
        keys = (ijk[:, 0] << 42) | (ijk[:, 1] << 21) | ijk[:, 2]
        cached, bounds = self.table
        pos, found = _find(cached, keys)
        if not found.all():
            cached, bounds = self._add(np.unique(keys[~found]))
            pos, _ = _find(cached, keys)
        if everywhere:
            return bounds[pos]
        bound = np.full(len(points), -np.inf)
        bound[packable] = bounds[pos]
        return bound

    def _add(self, keys):
        """Build and insert the bounds of voxels not yet cached; returns the new table."""
        with self._lock:
            cached, bounds = self.table
            # another thread may have inserted some of them since the lookup
            keys = keys[~_find(cached, keys)[1]]
            if len(keys):
                at = np.searchsorted(cached, keys)
                self.table = (np.insert(cached, at, keys),
                              np.insert(bounds, at, self._build(keys)))
            return self.table

    def _build(self, keys):
        """Clearance bounds of the voxels with the given keys."""
        mask = (1 << 21) - 1
        ijk = np.stack([keys >> 42, (keys >> 21) & mask, keys & mask], axis=1)
        centre = (ijk - _VOXEL_LIMIT + 0.5) * self.size
        h = self.half_diag
        dist, _ = self.tree.query(centre)
        slack = _REL_SLACK * (np.linalg.norm(centre, axis=1) + dist + 3.0 * h) + 1e-300
        radius = dist + 2.0 * h + slack
        clear = np.full(len(keys), np.inf)
        # chunks of similar radius, so that each chunk's pair search reaches
        # little past the balls of its voxels
        order = np.argsort(radius)
        for start in range(0, len(order), _BUILD_CHUNK):
            sel = order[start:start + _BUILD_CHUNK]
            pairs = cKDTree(centre[sel]).sparse_distance_matrix(
                self.tree, radius[sel].max(), output_type="ndarray"
            )
            pairs = pairs[(pairs["v"] <= radius[sel][pairs["i"]]) & self.usable[pairs["j"]]]
            cand = pairs["j"]
            dots = np.einsum(
                "kd,kd->k", centre[sel][pairs["i"]] - self.vertices[cand], self.normals[cand]
            )
            np.minimum.at(clear, sel[pairs["i"]], dots)
        return clear - h - slack


def _find(cached, keys):
    """Position of each key in the sorted ``cached`` keys, and whether it is there."""
    if len(cached) == 0:
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(cached, keys), len(cached) - 1)
    return pos, cached[pos] == keys


@dataclass
class ColliderMesh:
    """Obstacle mesh with unit vertex normals, a nearest-vertex index and a
    lazily built cache of per-voxel clearance bounds for ``contacts``."""

    vertices: np.ndarray   # (n, 3)
    triangles: np.ndarray  # (m, 3)
    normals: np.ndarray    # (n, 3), unit where referenced by a face
    index: SpatialIndex = field(repr=False)
    _clearance: _VoxelClearance | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def contacts(self, points, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
        """Contact margins below ``epsilon`` along nearest-vertex normals.

        For each point p with nearest vertex v (lowest index on ties),
        s = (p - v).n_v - epsilon. Returns (viol, nn): viol is s where s < 0
        and n_v is nonzero, else 0; nn is v where viol < 0, else -1. Points
        whose voxel clearance bound exceeds ``epsilon`` skip the
        nearest-vertex search; all others take it, so the result equals the
        unculled search bit for bit. The voxel lookups run per row block on
        ``map_blocks``; the nearest-vertex search is one call.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if self._clearance is None:
            self._clearance = _VoxelClearance(self)
        bound = np.empty(len(pts))

        def block(rows):
            bound[rows] = self._clearance.lookup(pts[rows])

        map_blocks(block, len(pts))
        rest = np.flatnonzero(~(bound > epsilon))
        sub = gather_rows(pts, rest)
        near, _ = self.index.nearest(sub)
        s = np.einsum(
            "kd,kd->k",
            sub - gather_rows(self.vertices, near),
            gather_rows(self.normals, near),
        ) - epsilon
        hit = self._clearance.usable[near] & (s < 0.0)
        viol = np.zeros(len(pts))
        nn = np.full(len(pts), -1, dtype=np.int64)
        viol[rest[hit]] = s[hit]
        nn[rest[hit]] = near[hit]
        return viol, nn

    @classmethod
    def from_arrays(cls, vertices, triangles, normals=None) -> "ColliderMesh":
        vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        if len(vertices) == 0:
            raise EmptyCollider("collider has no vertices")
        if normals is None:
            normals = compute_vertex_normals(vertices, triangles)
        else:
            normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
            lengths = np.linalg.norm(normals, axis=1)
            good = lengths > 1e-300
            normals = normals.copy()
            normals[good] /= lengths[good, None]
        return cls(vertices, triangles, normals, SpatialIndex(vertices))

    @classmethod
    def from_obj(cls, path) -> "ColliderMesh":
        data = read_obj(path)
        return cls.from_obj_data(data)

    @classmethod
    def from_obj_data(cls, data: ObjData) -> "ColliderMesh":
        normals = None
        if data.normals is not None and len(data.normals) == len(data.vertices):
            # honor per-vertex normals only when the mapping is one-to-one
            if data.face_normals is None or np.array_equal(
                data.face_normals, data.faces
            ):
                normals = data.normals
        return cls.from_arrays(data.vertices, data.faces, normals)


def icosphere(subdivisions: int = 3, radius: float = 1.0, center=(0, 0, 0)) -> ColliderMesh:
    """Subdivided icosahedron projected onto a sphere."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    verts = list(verts)
    cache: dict[tuple[int, int], int] = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = verts[i] + verts[j]
            m /= np.linalg.norm(m)
            cache[key] = len(verts)
            verts.append(m)
        return cache[key]

    for _ in range(subdivisions):
        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
        faces = np.asarray(new_faces, dtype=np.int64)
    vertices = np.asarray(verts) * radius + np.asarray(center, dtype=np.float64)
    return ColliderMesh.from_arrays(vertices, faces)


def torus(
    major_radius: float = 0.3,
    minor_radius: float = 0.1,
    major_segments: int = 64,
    minor_segments: int = 32,
    center=(0, 0, 0),
) -> ColliderMesh:
    """Axis-aligned torus around the z axis through ``center``."""
    u = 2 * np.pi * np.arange(major_segments) / major_segments
    v = 2 * np.pi * np.arange(minor_segments) / minor_segments
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = major_radius + minor_radius * np.cos(vv)
    verts = np.stack(
        [ring * np.cos(uu), ring * np.sin(uu), minor_radius * np.sin(vv)], axis=2
    ).reshape(-1, 3) + np.asarray(center, dtype=np.float64)
    faces = []
    for i in range(major_segments):
        for j in range(minor_segments):
            a = i * minor_segments + j
            b = ((i + 1) % major_segments) * minor_segments + j
            a2 = i * minor_segments + (j + 1) % minor_segments
            b2 = ((i + 1) % major_segments) * minor_segments + (j + 1) % minor_segments
            faces.append([a, b, b2])
            faces.append([a, b2, a2])
    return ColliderMesh.from_arrays(verts, np.asarray(faces, dtype=np.int64))


def prism(
    side: float = 0.4,
    length: float = 1.0,
    axis_segments: int = 48,
    side_segments: int = 24,
    center=(0, 0, 0),
) -> ColliderMesh:
    """Triangular prism along the y axis, equilateral cross-section, open ends.

    The cross-section triangle points up (+z); collision only needs the
    lateral surface, which stays watertight around the three long edges.
    """
    r = side / np.sqrt(3.0)  # circumradius of the cross-section
    ang = np.array([np.pi / 2, 7 * np.pi / 6, 11 * np.pi / 6])
    corners = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)  # (3, 2) in xz
    ring = []
    for k in range(3):
        a, b = corners[k], corners[(k + 1) % 3]
        for s in range(side_segments):
            t = s / side_segments
            ring.append((1 - t) * a + t * b)
    ring = np.asarray(ring)            # (3*side_segments, 2) cross-section loop
    n_ring = len(ring)
    ys = np.linspace(-length / 2, length / 2, axis_segments + 1)
    verts = np.stack(
        [
            np.repeat(ring[:, 0][None, :], len(ys), axis=0).ravel(),
            np.repeat(ys, n_ring),
            np.repeat(ring[:, 1][None, :], len(ys), axis=0).ravel(),
        ],
        axis=1,
    ) + np.asarray(center, dtype=np.float64)
    faces = []
    for i in range(axis_segments):
        for j in range(n_ring):
            a = i * n_ring + j
            b = i * n_ring + (j + 1) % n_ring
            c = (i + 1) * n_ring + j
            d = (i + 1) * n_ring + (j + 1) % n_ring
            faces.append([a, d, b])
            faces.append([a, c, d])
    return ColliderMesh.from_arrays(verts, np.asarray(faces, dtype=np.int64))
