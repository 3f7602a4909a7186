"""Physics losses over sampling patches: strain, bend, gravity, collision.

Every loss rule is one kernel over index arrays (edges, face pairs, point
ids). It returns the per-element terms and, given ``coeff`` and ``out``,
adds ``coeff * d(terms)/d(positions)`` into ``out`` from the same
intermediates; with ``out=None`` or ``coeff == 0`` it computes the terms
only. The kernels serve three callers: spec-level scalar operations on a
single patch, the batched training path (many patches with block strides),
and the mesh-connectivity baselines (one big mesh graph).
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
from .rows import gather_rows, map_blocks, scatter_add_rows
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

    def problems(self) -> list:
        vals = (self.strain, self.bend, self.gravity, self.collision)
        if all(0.0 <= v < np.inf for v in vals):
            return []
        return ["loss weights must be finite and nonnegative"]

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
        issues = []
        if not abs(norm - 1.0) <= 1e-9:
            issues.append("gravity_axis must be unit length")
        if not 0.0 < self.mass_per_point < np.inf:
            issues.append("mass must be positive and finite")
        for name in ("gravity", "collision_epsilon"):
            if not 0.0 <= getattr(self, name) < np.inf:
                issues.append(f"{name} must be nonnegative and finite")
        if issues:
            raise ValueError("; ".join(issues))
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


def strain_edge_terms(
    positions, edges, rest_lengths, form: str = "relative", *, coeff=0.0, out=None
):
    """Per-edge strain energy terms; ``form`` is 'relative' or 'absolute'."""
    d = gather_rows(positions, edges[:, 0]) - gather_rows(positions, edges[:, 1])
    lengths = np.linalg.norm(d, axis=1)
    stretch = lengths - rest_lengths
    if form == "relative":
        if np.any(rest_lengths <= 0):
            raise ZeroRestLength("relative strain needs positive rest lengths")
        terms = (stretch / rest_lengths) ** 2
    elif form == "absolute":
        terms = stretch**2
    else:
        raise ValueError(f"unknown strain form {form!r}")
    if out is not None and coeff != 0:
        # d(term)/d(length), then along the edge's unit vector
        factor = 2.0 * stretch / rest_lengths**2 if form == "relative" else 2.0 * stretch
        safe = lengths > 0
        factor = np.where(safe, factor / np.where(safe, lengths, 1.0), 0.0) * coeff
        g = factor[:, None] * d
        scatter_add_rows(out, edges[:, 0], g)
        scatter_add_rows(out, edges[:, 1], -g)
    return terms


def bend_pair_terms(
    positions, faces, pairs, diagnostics: LossDiagnostics | None = None, *, coeff=0.0, out=None
):
    """Per-face-pair squared difference of unit normals; degenerate pairs give 0."""
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    pa = gather_rows(positions, a)
    u = gather_rows(positions, b) - pa
    w = gather_rows(positions, c) - pa
    raw = np.cross(u, w)
    norms = np.linalg.norm(raw, axis=1)
    ok_face = norms > 2.0 * DEGENERATE_FACE_AREA  # |cross| = 2 * area
    safe = np.where(ok_face, norms, 1.0)
    unit = np.where(ok_face[:, None], raw / safe[:, None], 0.0)
    ok_pair = ok_face[pairs[:, 0]] & ok_face[pairs[:, 1]]
    diff = gather_rows(unit, pairs[:, 0]) - gather_rows(unit, pairs[:, 1])  # (P, 3)
    terms = np.where(ok_pair, np.einsum("pd,pd->p", diff, diff), 0.0)
    if diagnostics is not None:
        diagnostics.degenerate_face_pairs += int((~ok_pair).sum())
    if out is None or coeff == 0:
        return terms

    # cotangent per unit normal: +2*diff to the first face, -2*diff to the second
    g_unit = np.zeros_like(unit)
    scale = np.where(ok_pair, 1.0, 0.0)[:, None] * coeff
    scatter_add_rows(g_unit, pairs[:, 0], 2.0 * diff * scale)
    scatter_add_rows(g_unit, pairs[:, 1], -2.0 * diff * scale)

    # through normalization: g_raw = (I - n n^T) g_unit / |raw|
    proj = np.einsum("fd,fd->f", unit, g_unit)
    g_raw = (g_unit - unit * proj[:, None]) / safe[:, None]
    g_raw = np.where(ok_face[:, None], g_raw, 0.0)

    # through the cross product raw = u x w
    g_u = np.cross(w, g_raw)
    g_w = np.cross(g_raw, u)
    scatter_add_rows(out, b, g_u)
    scatter_add_rows(out, c, g_w)
    scatter_add_rows(out, a, -(g_u + g_w))
    return terms


def gravity_point_terms(positions, ids, consts: PhysicsConstants, *, coeff=0.0, out=None):
    """Potential energy m*g*h per point, h measured along the gravity axis."""
    h = gather_rows(positions, ids) @ consts.axis_array
    if out is not None and coeff != 0:
        g = coeff * consts.mass_per_point * consts.gravity * consts.axis_array
        scatter_add_rows(out, ids, g)
    return consts.mass_per_point * consts.gravity * h


def collision_point_terms(
    positions, ids, collider: ColliderMesh, consts: PhysicsConstants, *, coeff=0.0, out=None
):
    """Squared penetration past epsilon along nearest-vertex normals.

    Points without a contact (see ``ColliderMesh.contacts``) give 0 and no
    gradient, including matches against vertices with a zero normal (no
    incident face).
    """
    viol, nn = collider.contacts(gather_rows(positions, ids), consts.collision_epsilon)
    if out is not None and coeff != 0:
        hit = nn >= 0
        g = (2.0 * coeff * viol[hit])[:, None] * gather_rows(collider.normals, nn[hit])
        scatter_add_rows(out, ids[hit], g)
    return viol**2


# Nothing in the package calls the ``*_grad`` wrappers; ``perfbench/tracing.py``
# looks all eight kernel names up on ``drapefit.trainer``, which imports them.


def strain_edge_grad(positions, edges, rest_lengths, coeff, out, form: str = "relative"):
    """Accumulate coeff * d(strain terms)/d(positions) into ``out``."""
    strain_edge_terms(positions, edges, rest_lengths, form, coeff=coeff, out=out)


def bend_pair_grad(positions, faces, pairs, coeff, out):
    """Accumulate coeff * d(bend terms)/d(positions) into ``out``."""
    bend_pair_terms(positions, faces, pairs, coeff=coeff, out=out)


def gravity_point_grad(positions, ids, consts: PhysicsConstants, coeff, out):
    """Accumulate coeff * d(gravity terms)/d(positions) into ``out``."""
    gravity_point_terms(positions, ids, consts, coeff=coeff, out=out)


def collision_point_grad(positions, ids, collider: ColliderMesh, consts, coeff, out):
    """Accumulate coeff * d(collision terms)/d(positions) into ``out``."""
    collision_point_terms(positions, ids, collider, consts, coeff=coeff, out=out)


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
    return float(collision_point_terms(s3d.positions, np.arange(6), collider, consts).sum())


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
    edges' rest lengths (B, E). The rest lengths and the validity are
    computed per row block of patches, on ``map_blocks``.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    B = len(centers)
    verts = structure_vertices(centers, thetas, side)          # (B, 6, 2)
    pts = np.concatenate([verts, centers[:, None, :]], axis=1)  # (B, 7, 2)
    rest, point_ok = mesh.locator().rest_positions(pts.reshape(B * STRIDE, 2))
    rest = rest.reshape(B, STRIDE, 3)
    point_ok = point_ok.reshape(B, STRIDE)
    edges = _structure_edges(edge_set)
    valid = np.empty(B, dtype=bool)
    rest_lengths = np.empty((B, len(edges)))

    def block(rows):
        r = rest[rows]
        lengths = np.linalg.norm(
            np.take(r, edges[:, 0], axis=1) - np.take(r, edges[:, 1], axis=1), axis=2
        )
        rest_lengths[rows] = lengths
        ok = point_ok[rows].all(axis=1)
        if strain_form == "relative":
            ok &= np.all(lengths > 1e-12, axis=1)
        valid[rows] = ok

    map_blocks(block, B)
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
    zero everywhere. The strain, bend and gravity kernels run per row block
    of valid patches, on ``map_blocks``; each block writes only its own
    patches' rows, which no other patch's indices reach. Collision runs last,
    on the whole batch, so every gradient row sums its kernels in the order
    strain, bend, gravity, collision whatever the blocks.
    """
    pts, rest, struct_ok, rest_lengths = _lift_patches(
        mesh, centers, thetas, side, edge_set, strain_form
    )
    B = len(pts)
    edges_local = _structure_edges(edge_set)
    E = len(edges_local)

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

    ok_ids = np.flatnonzero(struct_ok)
    disp, tape = forward_batch(
        model, gather_rows(pts, ok_ids).reshape(K * STRIDE, 2), record_tape=want_grad
    )
    positions = np.empty((K * STRIDE, 3))
    dpos = np.zeros_like(positions) if want_grad else None
    strain_terms = np.empty(K * E)
    degenerate = []  # degenerate face pairs of each block

    def block(rows):
        k = rows.stop - rows.start
        ids = ok_ids[rows]
        at = slice(STRIDE * rows.start, STRIDE * rows.stop)
        pos = positions[at]
        pos[...] = gather_rows(rest, ids).reshape(-1, 3) + disp[at].astype(np.float64)
        if not np.isfinite(pos).all():
            raise NonFiniteLoss("surface evaluation produced non-finite positions")
        out = None if dpos is None else dpos[at]
        offs = STRIDE * np.arange(k)[:, None, None]
        # each kernel adds its weighted gradient into out; the order of the
        # kernels fixes the summation order, and so the bits, of every row
        terms = strain_edge_terms(
            pos,
            (edges_local[None, :, :] + offs).reshape(-1, 2),
            gather_rows(rest_lengths, ids).reshape(-1),
            strain_form,
            coeff=weights.strain,
            out=out,
        )
        strain_terms[E * rows.start:E * rows.stop] = terms
        result.strain[ids] = terms.reshape(k, -1).sum(axis=1)
        diagnostics = LossDiagnostics()
        result.bend[ids] = bend_pair_terms(
            pos,
            (FACES[None, :, :] + offs).reshape(-1, 3),
            (FACE_PAIRS[None, :, :] + 4 * np.arange(k)[:, None, None]).reshape(-1, 2),
            diagnostics,
            coeff=weights.bend,
            out=out,
        ).reshape(k, -1).sum(axis=1)
        degenerate.append(diagnostics.degenerate_face_pairs)
        result.gravity[ids] = gravity_point_terms(
            pos, STRIDE * np.arange(k) + 6, consts, coeff=weights.gravity, out=out
        )

    map_blocks(block, K)

    vert_ids = (STRIDE * np.arange(K)[:, None] + np.arange(6)[None, :]).reshape(-1)
    if collider is not None and len(collider.vertices) > 0:
        coll_terms = collision_point_terms(
            positions, vert_ids, collider, consts, coeff=weights.collision, out=dpos
        )
    else:
        coll_terms = np.zeros(len(vert_ids))

    result.collision[struct_ok] = coll_terms.reshape(K, -1).sum(axis=1)
    result.diagnostics.degenerate_face_pairs = sum(degenerate)
    result.positions = positions
    result.strain_terms = strain_terms
    result.tape = tape  # None unless want_grad
    result.upstream = dpos
    return result
