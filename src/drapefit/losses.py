"""Physics losses over sampling patches: strain, bend, gravity, collision.

Every loss comes in two flavors sharing one kernel: a value over index
arrays (edges, face pairs, point ids) and an analytic gradient with respect
to the 3D positions. The kernels serve three callers: spec-level scalar
operations on a single patch, the batched training path (many patches with
block strides), and the mesh-connectivity baselines (one big mesh graph).
"""

from dataclasses import dataclass, field

import numpy as np

from .collider import ColliderMesh
from .errors import (
    EmptyCollider,
    InvalidStructure,
    InvalidUvPoint,
    NonFiniteLoss,
    ZeroRestLength,
)
from .restatlas import GarmentRestMesh
from .structures import (
    EDGES,
    FACE_PAIRS,
    FACES,
    INNER_EDGE_COUNT,
    LocalStructure3D,
    structure_vertices,
)
from .surface import SurfaceModel, forward_batch

DEGENERATE_FACE_AREA = 1e-12  # m^2; smaller face pairs contribute no bending
EDGE_SET_ALL = "all9"
EDGE_SET_INNER = "inner3"


@dataclass
class LossWeights:
    strain: float = 0.005
    bend: float = 0.0005
    gravity: float = 2.0
    collision: float = 1.0e7

    def validate(self) -> None:
        vals = (self.strain, self.bend, self.gravity, self.collision)
        if any(not np.isfinite(v) or v < 0 for v in vals):
            raise ValueError("loss weights must be finite and nonnegative")

    def as_dict(self) -> dict:
        return {
            "strain": self.strain,
            "bend": self.bend,
            "gravity": self.gravity,
            "collision": self.collision,
        }

    def total(self, strain, bend, gravity, collision):
        """Weighted sum of the four loss terms; scalars or arrays alike."""
        return (
            self.strain * strain
            + self.bend * bend
            + self.gravity * gravity
            + self.collision * collision
        )


@dataclass
class PhysicsConstants:
    mass_per_point: float = 1.0
    gravity: float = 9.81
    gravity_axis: tuple = (0.0, 0.0, 1.0)
    collision_epsilon: float = 1.0e-3

    def __post_init__(self):
        axis = np.asarray(self.gravity_axis, dtype=np.float64)
        norm = np.linalg.norm(axis)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("gravity axis must be unit length")
        if self.gravity < 0 or self.collision_epsilon < 0:
            raise ValueError("gravity and collision epsilon must be nonnegative")
        self.gravity_axis = tuple(float(a) for a in axis)

    @property
    def axis_array(self) -> np.ndarray:
        return np.asarray(self.gravity_axis, dtype=np.float64)


@dataclass
class LossBreakdown:
    """Per-term loss values and their weighted combination."""

    strain: float
    bend: float
    gravity: float
    collision: float
    weighted_total: float

    @classmethod
    def combine(cls, weights: LossWeights, strain, bend, gravity, collision):
        total = weights.total(strain, bend, gravity, collision)
        return cls(float(strain), float(bend), float(gravity), float(collision), float(total))


@dataclass
class LossDiagnostics:
    degenerate_face_pairs: int = 0


def _structure_edges(edge_set: str) -> np.ndarray:
    if edge_set == EDGE_SET_ALL:
        return EDGES
    if edge_set == EDGE_SET_INNER:
        return EDGES[:INNER_EDGE_COUNT]
    raise ValueError(f"unknown edge set {edge_set!r}")


# ---------------------------------------------------------------------------
# kernels over index arrays


def strain_edge_terms(positions, edges, rest_lengths, form: str = "relative"):
    """Per-edge strain energy terms; ``form`` is 'relative' or 'absolute'."""
    d = positions[edges[:, 0]] - positions[edges[:, 1]]
    lengths = np.linalg.norm(d, axis=1)
    if form == "relative":
        if np.any(rest_lengths <= 0):
            raise ZeroRestLength("relative strain needs positive rest lengths")
        return ((lengths - rest_lengths) / rest_lengths) ** 2
    if form == "absolute":
        return (lengths - rest_lengths) ** 2
    raise ValueError(f"unknown strain form {form!r}")


def strain_edge_grad(positions, edges, rest_lengths, coeff, out, form: str = "relative"):
    """Accumulate coeff * d(strain terms)/d(positions) into ``out``."""
    d = positions[edges[:, 0]] - positions[edges[:, 1]]
    lengths = np.linalg.norm(d, axis=1)
    safe = lengths > 0
    if form == "relative":
        if np.any(rest_lengths <= 0):
            raise ZeroRestLength("relative strain needs positive rest lengths")
        factor = 2.0 * (lengths - rest_lengths) / rest_lengths**2
    else:
        factor = 2.0 * (lengths - rest_lengths)
    factor = np.where(safe, factor / np.where(safe, lengths, 1.0), 0.0) * coeff
    g = factor[:, None] * d
    np.add.at(out, edges[:, 0], g)
    np.add.at(out, edges[:, 1], -g)


def _face_normals_raw(positions, faces):
    a = positions[faces[:, 0]]
    return np.cross(positions[faces[:, 1]] - a, positions[faces[:, 2]] - a)


def bend_pair_terms(positions, faces, pairs, diagnostics: LossDiagnostics | None = None):
    """Per-face-pair squared difference of unit normals; degenerate pairs give 0."""
    raw = _face_normals_raw(positions, faces)
    norms = np.linalg.norm(raw, axis=1)
    ok_face = norms > 2.0 * DEGENERATE_FACE_AREA  # |cross| = 2 * area
    unit = np.where(ok_face[:, None], raw / np.where(ok_face, norms, 1.0)[:, None], 0.0)
    ok_pair = ok_face[pairs[:, 0]] & ok_face[pairs[:, 1]]
    diff = unit[pairs[:, 0]] - unit[pairs[:, 1]]
    terms = np.where(ok_pair, np.einsum("pd,pd->p", diff, diff), 0.0)
    if diagnostics is not None:
        diagnostics.degenerate_face_pairs += int((~ok_pair).sum())
    return terms


def bend_pair_grad(positions, faces, pairs, coeff, out):
    """Accumulate coeff * d(bend terms)/d(positions) into ``out``."""
    raw = _face_normals_raw(positions, faces)
    norms = np.linalg.norm(raw, axis=1)
    ok_face = norms > 2.0 * DEGENERATE_FACE_AREA
    safe = np.where(ok_face, norms, 1.0)
    unit = np.where(ok_face[:, None], raw / safe[:, None], 0.0)
    ok_pair = ok_face[pairs[:, 0]] & ok_face[pairs[:, 1]]
    diff = unit[pairs[:, 0]] - unit[pairs[:, 1]]      # (P, 3)

    # cotangent per unit normal: +2*diff to the first face, -2*diff to the second
    g_unit = np.zeros_like(unit)
    scale = np.where(ok_pair, 1.0, 0.0)[:, None] * coeff
    np.add.at(g_unit, pairs[:, 0], 2.0 * diff * scale)
    np.add.at(g_unit, pairs[:, 1], -2.0 * diff * scale)

    # through normalization: g_raw = (I - n n^T) g_unit / |raw|
    proj = np.einsum("fd,fd->f", unit, g_unit)
    g_raw = (g_unit - unit * proj[:, None]) / safe[:, None]
    g_raw = np.where(ok_face[:, None], g_raw, 0.0)

    # through the cross product raw = u x w with u = b - a, w = c - a
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    u = positions[b] - positions[a]
    w = positions[c] - positions[a]
    g_u = np.cross(w, g_raw)
    g_w = np.cross(g_raw, u)
    np.add.at(out, b, g_u)
    np.add.at(out, c, g_w)
    np.add.at(out, a, -(g_u + g_w))


def gravity_point_terms(positions, ids, consts: PhysicsConstants):
    """Potential energy m*g*h per point, h measured along the gravity axis."""
    h = positions[ids] @ consts.axis_array
    return consts.mass_per_point * consts.gravity * h


def gravity_point_grad(ids, consts: PhysicsConstants, coeff, out):
    out[ids] += coeff * consts.mass_per_point * consts.gravity * consts.axis_array


def collision_point_terms(positions, ids, collider: ColliderMesh, consts: PhysicsConstants):
    """Squared penetration past epsilon along nearest-vertex normals.

    Returns (terms, nearest ids, signed margins) so the gradient pass can
    reuse the same correspondences. Matches against vertices with a zero
    normal (no incident face) are dropped.
    """
    pts = positions[ids]
    nn, _ = collider.index.nearest(pts)
    n = collider.normals[nn]
    usable = np.einsum("kd,kd->k", n, n) > 0.5
    d = pts - collider.vertices[nn]
    s = np.einsum("kd,kd->k", d, n) - consts.collision_epsilon
    viol = np.where(usable & (s < 0.0), s, 0.0)
    return viol**2, nn, viol


def collision_point_grad(ids, nn, viol, collider: ColliderMesh, coeff, out):
    g = (2.0 * coeff * viol)[:, None] * collider.normals[nn]
    np.add.at(out, ids, g)


# ---------------------------------------------------------------------------
# spec-level operations on a single lifted patch


def strain_loss(s3d: LocalStructure3D, edge_set: str = EDGE_SET_ALL) -> float:
    """Sum of squared relative length changes over the patch's edge set."""
    edges = _structure_edges(edge_set)
    rest = s3d.rest_lengths[: len(edges)] if edge_set == EDGE_SET_INNER else s3d.rest_lengths
    return float(strain_edge_terms(s3d.positions, edges, rest, "relative").sum())


def strain_loss_absolute(s3d: LocalStructure3D, edge_set: str = EDGE_SET_ALL) -> float:
    """Sum of squared absolute length changes (config alternative, not default)."""
    edges = _structure_edges(edge_set)
    rest = s3d.rest_lengths[: len(edges)] if edge_set == EDGE_SET_INNER else s3d.rest_lengths
    return float(strain_edge_terms(s3d.positions, edges, rest, "absolute").sum())


def bend_loss(s3d: LocalStructure3D, diagnostics: LossDiagnostics | None = None) -> float:
    """Sum over the three face pairs of squared unit-normal differences."""
    return float(
        bend_pair_terms(s3d.positions, FACES, FACE_PAIRS, diagnostics).sum()
    )


def gravity_loss(model: SurfaceModel, mesh: GarmentRestMesh, p, consts: PhysicsConstants) -> float:
    """m*g*h at the sample point's deformed surface position."""
    rest, valid = mesh.locator().rest_positions(np.asarray(p, dtype=np.float64)[None, :])
    if not valid[0]:
        raise InvalidUvPoint(f"UV point {tuple(np.asarray(p))} is outside the garment")
    disp, _ = forward_batch(model, np.asarray(p, dtype=np.float64)[None, :])
    pos = rest + disp.astype(np.float64)
    return float(gravity_point_terms(pos, np.array([0]), consts)[0])


def collision_loss(
    s3d: LocalStructure3D, collider: ColliderMesh, consts: PhysicsConstants
) -> float:
    """Collision penalty summed over the patch's six vertices."""
    if collider is None or len(collider.vertices) == 0:
        raise EmptyCollider("collision loss needs a collider with vertices")
    terms, _, _ = collision_point_terms(
        s3d.positions, np.arange(6), collider, consts
    )
    return float(terms.sum())


def structure_loss(
    model: SurfaceModel,
    mesh: GarmentRestMesh,
    collider: ColliderMesh | None,
    p,
    theta: float,
    weights: LossWeights,
    consts: PhysicsConstants,
    side: float = 0.001,
    edge_set: str = EDGE_SET_ALL,
) -> LossBreakdown:
    """Build, lift, and evaluate one sampling patch; returns the loss breakdown.

    ``collider=None`` means no obstacle: the collision term is zero.
    """
    batch = evaluate_structure_batch(
        model,
        mesh,
        collider,
        np.asarray(p, dtype=np.float64)[None, :],
        np.asarray([theta], dtype=np.float64),
        weights,
        consts,
        side=side,
        edge_set=edge_set,
    )
    if not batch.valid[0]:
        raise InvalidStructure(f"structure at {tuple(np.asarray(p))} is not valid")
    return LossBreakdown.combine(
        weights,
        batch.strain[0],
        batch.bend[0],
        batch.gravity[0],
        batch.collision[0],
    )


# ---------------------------------------------------------------------------
# batched evaluation used by the trainer and the adaptive sampler

STRIDE = 7  # rows per structure: 6 patch vertices then the center point


def _lift_patches(mesh, centers, thetas, side, edge_set, strain_form):
    """Lay the patches out in UV and look up their rest positions.

    Returns the UV points (B, 7, 2), their rest positions (B, 7, 3), the
    validity that ``structure_validity`` documents (B,) and the selected
    edges' rest lengths (B, E).
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    B = len(centers)
    verts = structure_vertices(centers, thetas, side)          # (B, 6, 2)
    pts = np.concatenate([verts, centers[:, None, :]], axis=1)  # (B, 7, 2)
    rest, point_ok = mesh.locator().rest_positions(pts.reshape(B * STRIDE, 2))
    rest = rest.reshape(B, STRIDE, 3)
    valid = point_ok.reshape(B, STRIDE).all(axis=1)
    edges = _structure_edges(edge_set)
    rest_lengths = np.linalg.norm(rest[:, edges[:, 0]] - rest[:, edges[:, 1]], axis=2)
    if strain_form == "relative":
        valid &= np.all(rest_lengths > 1e-12, axis=1)
    return pts, rest, valid, rest_lengths


def structure_validity(
    mesh: GarmentRestMesh,
    centers,
    thetas,
    side: float,
    edge_set: str = EDGE_SET_ALL,
    strain_form: str = "relative",
) -> np.ndarray:
    """Geometric validity of the patches at ``centers`` (no model evaluation).

    Valid means all six vertices plus the center lie inside the garment's UV
    triangulation and, for the relative strain form, every selected edge has
    a positive rest length.
    """
    return _lift_patches(mesh, centers, thetas, side, edge_set, strain_form)[2]


@dataclass
class StructureBatchResult:
    """Losses (and optionally gradients) for a batch of sampling patches.

    Term arrays are per input structure and zero where ``valid`` is False.
    When gradients were requested, ``tape``/``upstream`` cover only the valid
    structures' 7*K forward points, ready for ``surface.backward``.
    """

    valid: np.ndarray       # (B,) bool
    strain: np.ndarray      # (B,)
    bend: np.ndarray        # (B,)
    gravity: np.ndarray     # (B,)
    collision: np.ndarray   # (B,)
    diagnostics: LossDiagnostics = field(default_factory=LossDiagnostics)
    positions: np.ndarray | None = None     # (K*7, 3) valid structures only
    strain_terms: np.ndarray | None = None  # (K*E,) per selected edge
    tape: object = None
    upstream: np.ndarray | None = None


def evaluate_structure_batch(
    model: SurfaceModel,
    mesh: GarmentRestMesh,
    collider: ColliderMesh | None,
    centers,
    thetas,
    weights: LossWeights,
    consts: PhysicsConstants,
    side: float = 0.001,
    edge_set: str = EDGE_SET_ALL,
    want_grad: bool = False,
    strain_form: str = "relative",
) -> StructureBatchResult:
    """Evaluate the four losses on a batch of patches in one vectorized pass.

    Validity is that of ``structure_validity``; invalid structures contribute
    zero everywhere.
    """
    pts, rest, struct_ok, rest_lengths = _lift_patches(
        mesh, centers, thetas, side, edge_set, strain_form
    )
    B = len(pts)
    edges_local = _structure_edges(edge_set)

    result = StructureBatchResult(
        valid=struct_ok,
        strain=np.zeros(B),
        bend=np.zeros(B),
        gravity=np.zeros(B),
        collision=np.zeros(B),
    )
    K = int(struct_ok.sum())
    if K == 0:
        return result

    sel_pts = pts[struct_ok].reshape(K * STRIDE, 2)
    sel_rest = rest[struct_ok].reshape(K * STRIDE, 3)
    disp, tape = forward_batch(model, sel_pts, record_tape=want_grad)
    positions = sel_rest + disp.astype(np.float64)
    if not np.isfinite(positions).all():
        raise NonFiniteLoss("surface evaluation produced non-finite positions")

    offs = STRIDE * np.arange(K)[:, None, None]
    edges = (edges_local[None, :, :] + offs).reshape(-1, 2)
    faces = (FACES[None, :, :] + offs).reshape(-1, 3)
    pairs = (FACE_PAIRS[None, :, :] + 4 * np.arange(K)[:, None, None]).reshape(-1, 2)
    rest_sel = rest_lengths[struct_ok].reshape(-1)

    strain_terms = strain_edge_terms(positions, edges, rest_sel, strain_form)
    bend_terms = bend_pair_terms(positions, faces, pairs, result.diagnostics)
    center_ids = STRIDE * np.arange(K) + 6
    gravity_terms = gravity_point_terms(positions, center_ids, consts)

    vert_ids = (STRIDE * np.arange(K)[:, None] + np.arange(6)[None, :]).reshape(-1)
    if collider is not None and len(collider.vertices) > 0:
        coll_terms, nn, viol = collision_point_terms(positions, vert_ids, collider, consts)
    else:
        coll_terms = np.zeros(len(vert_ids))
        nn = viol = None

    result.strain[struct_ok] = strain_terms.reshape(K, -1).sum(axis=1)
    result.bend[struct_ok] = bend_terms.reshape(K, -1).sum(axis=1)
    result.gravity[struct_ok] = gravity_terms
    result.collision[struct_ok] = coll_terms.reshape(K, -1).sum(axis=1)
    result.positions = positions
    result.strain_terms = strain_terms

    if want_grad:
        dpos = np.zeros_like(positions)
        if weights.strain != 0:
            strain_edge_grad(positions, edges, rest_sel, weights.strain, dpos, strain_form)
        if weights.bend != 0:
            bend_pair_grad(positions, faces, pairs, weights.bend, dpos)
        if weights.gravity != 0:
            gravity_point_grad(center_ids, consts, weights.gravity, dpos)
        if weights.collision != 0 and nn is not None:
            collision_point_grad(vert_ids, nn, viol, collider, weights.collision, dpos)
        result.tape = tape
        result.upstream = dpos
    return result
