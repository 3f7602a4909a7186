"""Adaptive sample placement: loss-driven discrete PDF, inverse transform sampling,
and Lloyd relaxation of each epoch's batch.

The sampler is the maximizing player of the training loop: it concentrates
points where the weighted losses are currently large, blends the per-epoch
estimate into a persistent cell PDF, draws cells by marginal/conditional
CDF inversion, and spreads the drawn points with a few Lloyd iterations so
they do not clump.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import Voronoi, distance

from .errors import DegenerateVoronoiCell, ShapeMismatch
from .losses import (
    EDGE_SET_ALL,
    LossWeights,
    PhysicsConstants,
    evaluate_structure_batch,
)

LOSS_NAMES = ("strain", "bend", "gravity", "collision")
THETA_MAX = 2.0 * np.pi / 3.0


@dataclass
class DiscretePdf:
    """Nonnegative cell probabilities over [0, 1]^2 summing to one.

    Row i covers the y (v) band [i/M, (i+1)/M); column j covers the x (u)
    band [j/N, (j+1)/N). Indices here are 0-based.
    """

    probs: np.ndarray  # (M, N)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)

    @property
    def rows(self) -> int:
        return self.probs.shape[0]

    @property
    def cols(self) -> int:
        return self.probs.shape[1]

    def validate(self) -> None:
        if np.any(self.probs < 0):
            raise ValueError("cell probabilities must be nonnegative")
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError("cell probabilities must sum to 1")

    @classmethod
    def uniform(cls, rows: int, cols: int) -> "DiscretePdf":
        return cls(np.full((rows, cols), 1.0 / (rows * cols)))


@dataclass
class SamplerConfig:
    mu: float = 0.5               # fraction of adaptive draws per batch
    gamma: float = 0.5            # blend factor toward the previous PDF
    pdf_rows: int = 64
    pdf_cols: int = 64
    n_points: int = 1024
    lloyd_iterations: int = 3
    min_spacing: float = 0.005    # diagnostic threshold only
    pdf_losses: tuple = LOSS_NAMES  # which losses feed the PDF estimate

    def validate(self) -> None:
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.pdf_rows < 1 or self.pdf_cols < 1:
            raise ValueError("PDF grid must be at least 1x1")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.lloyd_iterations < 0:
            raise ValueError("lloyd_iterations must be >= 0")
        unknown = set(self.pdf_losses) - set(LOSS_NAMES)
        if unknown:
            raise ValueError(f"unknown pdf losses {sorted(unknown)}")


def estimate_cell_losses(
    model,
    mesh,
    collider,
    dims: tuple,
    weights: LossWeights,
    consts: PhysicsConstants,
    rng: np.random.Generator,
    side: float = 0.001,
    edge_set: str = EDGE_SET_ALL,
    pdf_losses: tuple = LOSS_NAMES,
) -> np.ndarray:
    """Weighted loss at every cell center, normalized into a PDF estimate.

    Each cell gets one patch with a fresh random rotation. Cells whose center
    or patch is invalid contribute zero; negative gravity values are clamped
    at zero so the estimate stays a valid distribution. An all-zero estimate
    falls back to uniform.
    """
    M, N = dims
    jj, ii = np.meshgrid(np.arange(N), np.arange(M))
    centers = np.stack(
        [(jj.ravel() + 0.5) / N, (ii.ravel() + 0.5) / M], axis=1
    )
    thetas = rng.uniform(0.0, THETA_MAX, M * N)
    batch = evaluate_structure_batch(
        model, mesh, collider, centers, thetas, weights, consts,
        side=side, edge_set=edge_set,
    )
    est = np.zeros(M * N)
    for name in pdf_losses:
        est += np.maximum(getattr(weights, name) * getattr(batch, name), 0.0)
    est[~batch.valid] = 0.0
    total = est.sum()
    if total <= 0.0:
        return np.full((M, N), 1.0 / (M * N))
    return (est / total).reshape(M, N)


def update_pdf(pdf: DiscretePdf, estimate: np.ndarray, gamma: float) -> DiscretePdf:
    """Blend the persistent PDF toward a fresh estimate and renormalize."""
    estimate = np.asarray(estimate, dtype=np.float64)
    if estimate.shape != pdf.probs.shape:
        raise ShapeMismatch(
            f"estimate shape {estimate.shape} != pdf shape {pdf.probs.shape}"
        )
    blended = gamma * pdf.probs + (1.0 - gamma) * estimate
    total = blended.sum()
    if total <= 0.0:
        return DiscretePdf.uniform(pdf.rows, pdf.cols)
    return DiscretePdf(blended / total)


def _advance_past_zero(indices: np.ndarray, mass: np.ndarray) -> np.ndarray:
    # a draw can land on a zero-mass entry only when the uniform variate hits
    # a CDF plateau boundary exactly; step forward to the next massive entry
    out = indices.copy()
    for _ in range(mass.shape[-1]):
        bad = mass[np.arange(len(out)), out] == 0.0 if mass.ndim == 2 else mass[out] == 0.0
        if not bad.any():
            break
        out[bad] = np.minimum(out[bad] + 1, mass.shape[-1] - 1)
    return out


def sample_cell(pdf: DiscretePdf, u: float, v: float) -> tuple:
    """Invert the row-marginal CDF with u, then the row's column CDF with v.

    Returns 0-based (row, col). Zero-probability rows and columns are never
    selected.
    """
    rows, cols = _sample_cells_batch(pdf, np.array([u]), np.array([v]))
    return int(rows[0]), int(cols[0])


def sample_point_in_cell(
    i: int, j: int, dims: tuple, rng: np.random.Generator
) -> np.ndarray:
    """Uniform point inside cell (i, j): x in [j/N, (j+1)/N), y in [i/M, (i+1)/M)."""
    M, N = dims
    x = (j + rng.random()) / N
    y = (i + rng.random()) / M
    return np.array([x, y])


def _sample_cells_batch(pdf: DiscretePdf, us: np.ndarray, vs: np.ndarray):
    marginal = pdf.probs.sum(axis=1)
    P = np.cumsum(marginal)
    rows = np.minimum(
        np.searchsorted(P, us, side="left"), pdf.rows - 1
    ).astype(np.int64)
    rows = _advance_past_zero(rows, np.broadcast_to(marginal, (len(rows), pdf.rows)))
    row_probs = pdf.probs[rows]                       # (n, N)
    Q = np.cumsum(row_probs, axis=1) / row_probs.sum(axis=1, keepdims=True)
    cols = np.argmax(Q >= vs[:, None], axis=1).astype(np.int64)
    none = ~(Q >= vs[:, None]).any(axis=1)
    cols[none] = pdf.cols - 1
    cols = _advance_past_zero(cols, row_probs)
    return rows, cols


def sample_batch(
    pdf: DiscretePdf, config: SamplerConfig, rng: np.random.Generator
) -> np.ndarray:
    """Draw floor(mu*N) adaptive points then N - floor(mu*N) uniform points."""
    n_adaptive = int(np.floor(config.mu * config.n_points))
    n_uniform = config.n_points - n_adaptive
    parts = []
    if n_adaptive:
        us = rng.random(n_adaptive)
        vs = rng.random(n_adaptive)
        rows, cols = _sample_cells_batch(pdf, us, vs)
        ox = rng.random(n_adaptive)
        oy = rng.random(n_adaptive)
        parts.append(
            np.stack(
                [(cols + ox) / pdf.cols, (rows + oy) / pdf.rows], axis=1
            )
        )
    if n_uniform:
        parts.append(rng.random((n_uniform, 2)))
    return np.concatenate(parts, axis=0) if parts else np.zeros((0, 2))


def _nudge_duplicates(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # keep sites strictly inside the domain and pairwise distinct so each
    # reflected site is a proper mirror; offsets are deterministic
    pts = np.clip(points, lo + 1e-9, hi - 1e-9)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    sorted_pts = pts[order]
    dup = np.all(np.diff(sorted_pts, axis=0) == 0.0, axis=1)
    if dup.any():
        rank = np.zeros(len(pts))
        r = 0.0
        for k in range(1, len(pts)):
            r = r + 1.0 if dup[k - 1] else 0.0
            rank[k] = r
        sorted_pts = sorted_pts + rank[:, None] * np.array([[1e-9, 2e-9]])
        pts = pts.copy()
        pts[order] = np.clip(sorted_pts, lo + 1e-9, hi - 1e-9)
    return pts


def _mirror_sites(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    x, y = points[:, 0], points[:, 1]
    return np.concatenate(
        [
            points,
            np.stack([2.0 * lo[0] - x, y], axis=1),
            np.stack([2.0 * hi[0] - x, y], axis=1),
            np.stack([x, 2.0 * lo[1] - y], axis=1),
            np.stack([x, 2.0 * hi[1] - y], axis=1),
        ]
    )


def lloyd_relax(points, iterations: int, domain=(0.0, 1.0, 0.0, 1.0)) -> np.ndarray:
    """Move each point to the area centroid of its Voronoi cell clipped to the
    axis-aligned ``domain`` rectangle (xmin, xmax, ymin, ymax).

    Clipping is realized by mirroring the sites across the four domain edges:
    inside the rectangle, added mirror sites are never closer than their
    originals, so each original site's cell is exactly its clipped cell. A
    site's bisector with its own mirror is a domain edge, so every original
    cell is bounded; one that qhull returns unbounded or with fewer than
    three vertices raises DegenerateVoronoiCell.
    """
    xmin, xmax, ymin, ymax = domain
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("domain must be a nonempty rectangle")
    lo = np.array([xmin, ymin])
    hi = np.array([xmax, ymax])
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64)).copy()
    n = len(pts)
    if n == 0 or iterations <= 0:
        return pts
    for _ in range(iterations):
        sites = _nudge_duplicates(pts, lo, hi)
        vor = Voronoi(_mirror_sites(sites, lo, hi))
        regions = [vor.regions[r] for r in vor.point_region[:n]]
        lengths = np.array([len(r) for r in regions])
        flat = np.fromiter(chain.from_iterable(regions), dtype=np.int64)
        if (flat < 0).any() or (lengths < 3).any():
            raise DegenerateVoronoiCell(
                "Voronoi cell of a mirrored site set is unbounded or degenerate"
            )
        vx = vor.vertices[flat, 0]
        vy = vor.vertices[flat, 1]
        stops = np.cumsum(lengths)
        starts = stops - lengths
        nxt = np.arange(len(flat)) + 1
        nxt[stops - 1] = starts  # wrap the last vertex of each polygon
        # shoelace accumulation per polygon
        x2 = vx[nxt]
        y2 = vy[nxt]
        cr = vx * y2 - x2 * vy
        owner = np.repeat(np.arange(n), lengths)
        area2 = np.zeros(n)
        cx = np.zeros(n)
        cy = np.zeros(n)
        np.add.at(area2, owner, cr)
        np.add.at(cx, owner, (vx + x2) * cr)
        np.add.at(cy, owner, (vy + y2) * cr)
        ok = np.abs(area2) > 1e-30
        new_pts = sites.copy()
        new_pts[ok, 0] = cx[ok] / (3.0 * area2[ok])
        new_pts[ok, 1] = cy[ok] / (3.0 * area2[ok])
        pts = np.clip(new_pts, lo, hi)
    return pts


def min_spacing_report(points, delta: float) -> tuple:
    """Diagnostic spacing check: (min pairwise distance, count below delta)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(pts) < 2:
        return float("inf"), 0
    d = distance.pdist(pts)
    return float(d.min()), int((d < delta).sum())


def dump_pdf_heatmap(probs, prefix: str) -> None:
    """Debug dump of a PDF grid: exact float PFM plus a quick-look PNG."""
    from .pngio import heatmap_u8, write_pfm, write_png

    probs = np.asarray(probs)
    write_pfm(prefix + ".pfm", probs.astype(np.float32))
    write_png(prefix + ".png", heatmap_u8(probs))
