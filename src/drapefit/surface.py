"""Trainable implicit surface: multi-resolution feature grids, MLP decoder, gradients.

The surface maps a UV point to a 3D displacement added to the garment's rest
position. A forward pass records a tape (grid node indices, bilinear weights,
layer activations) from which ``backward`` accumulates exact reverse-mode
gradients of any scalar loss into a GradientBuffer. Gradients are derived by
hand for this fixed architecture; there is no general-purpose autodiff here.
"""

import io
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormatVersionMismatch,
    InconsistentDims,
    IoFailure,
    OutOfDomain,
    ShapeMismatch,
)
from .restatlas import GarmentRestMesh, rest_position

DOMAIN_TOL = 1e-12
CHECKPOINT_MAGIC = "drapefit-surface"
CHECKPOINT_VERSION = 1

ENCODING_MULTIGRID = "multigrid"
ENCODING_IDENTITY = "identity"
ENCODING_POSITIONAL = "positional"


@dataclass
class GridLayer:
    resolution: int
    feature_dim: int
    features: np.ndarray  # (R, R, F); axis 0 indexes u, axis 1 indexes v


@dataclass
class EncoderConfig:
    """Multi-resolution grid shape: per-layer node resolutions and feature width."""

    layer_resolutions: tuple = (101, 51)
    feature_dim: int = 3

    def __post_init__(self):
        self.layer_resolutions = tuple(int(r) for r in self.layer_resolutions)
        if len(self.layer_resolutions) < 1:
            raise InconsistentDims("encoder needs at least one grid layer")
        if any(r < 2 for r in self.layer_resolutions):
            raise InconsistentDims("grid resolutions must be >= 2")
        if any(
            a <= b
            for a, b in zip(self.layer_resolutions, self.layer_resolutions[1:])
        ):
            raise InconsistentDims("grid resolutions must be strictly decreasing")
        if self.feature_dim < 1:
            raise InconsistentDims("feature_dim must be >= 1")

    @classmethod
    def from_max_resolution(cls, n_max: int, layers: int, feature_dim: int = 3):
        """Halving ladder n_max//2, n_max//4, ...; layers must fit log2(n_max)."""
        if layers > int(np.floor(np.log2(n_max))):
            raise InconsistentDims("too many layers for the base resolution")
        return cls(
            tuple(n_max // (2 ** (l + 1)) for l in range(layers)),
            feature_dim,
        )

    @property
    def grid_widths(self) -> tuple:
        return (self.feature_dim,) * len(self.layer_resolutions)


def encoding_width(encoding: str, grid_widths, num_frequencies: int) -> int:
    """MLP input width of an encoding: the grid layers' summed feature widths,
    the raw (u, v), or (u, v) plus a sin/cos pair per coordinate and frequency."""
    if encoding == ENCODING_MULTIGRID:
        return sum(grid_widths)
    if encoding == ENCODING_IDENTITY:
        return 2
    if encoding == ENCODING_POSITIONAL:
        return 2 + 4 * num_frequencies
    raise InconsistentDims(f"unknown encoding {encoding!r}")


@dataclass
class MlpParams:
    weights: list          # per layer (d_in, d_out)
    biases: list           # per layer (d_out,)
    activation: str = "relu"  # relu | tanh on hidden layers, identity on output

    @property
    def layer_dims(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


@dataclass
class SurfaceModel:
    """All trainable parameters: grid layers plus the decoder MLP."""

    grids: list
    mlp: MlpParams
    encoding: str = ENCODING_MULTIGRID
    num_frequencies: int = 0
    seed: int = 0

    @property
    def dtype(self):
        return self.mlp.weights[0].dtype

    @property
    def input_dim(self) -> int:
        return encoding_width(
            self.encoding, [g.feature_dim for g in self.grids], self.num_frequencies
        )

    def param_arrays(self) -> list:
        arrays = [g.features for g in self.grids]
        for w, b in zip(self.mlp.weights, self.mlp.biases):
            arrays.extend([w, b])
        return arrays

    def param_count(self) -> int:
        return sum(a.size for a in self.param_arrays())

    def copy(self) -> "SurfaceModel":
        return SurfaceModel(
            grids=[
                GridLayer(g.resolution, g.feature_dim, g.features.copy())
                for g in self.grids
            ],
            mlp=MlpParams(
                [w.copy() for w in self.mlp.weights],
                [b.copy() for b in self.mlp.biases],
                self.mlp.activation,
            ),
            encoding=self.encoding,
            num_frequencies=self.num_frequencies,
            seed=self.seed,
        )

    def astype(self, dtype) -> "SurfaceModel":
        out = self.copy()
        for g in out.grids:
            g.features = g.features.astype(dtype)
        out.mlp.weights = [w.astype(dtype) for w in out.mlp.weights]
        out.mlp.biases = [b.astype(dtype) for b in out.mlp.biases]
        return out


def param_count(enc: EncoderConfig | None, mlp_dims) -> int:
    """Parameter total: sum of R^2*F over grid layers plus MLP weights and biases."""
    total = 0
    if enc is not None:
        total += sum(r * r * enc.feature_dim for r in enc.layer_resolutions)
    dims = list(mlp_dims)
    total += sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    return total


def init_model(
    enc: EncoderConfig | None,
    mlp_dims,
    seed: int,
    activation: str = "relu",
    dtype=np.float32,
    encoding: str = ENCODING_MULTIGRID,
    num_frequencies: int = 4,
) -> SurfaceModel:
    """Deterministic model initialization for a fixed seed.

    Grid features start near zero (U(-1e-4, 1e-4)), hidden layers use
    Glorot-uniform weights with zero biases, and the output layer is all
    zero so the initial surface coincides with the rest shape.
    """
    dims = [int(d) for d in mlp_dims]
    if len(dims) < 2:
        raise InconsistentDims("MLP needs at least input and output dims")
    if dims[-1] != 3:
        raise InconsistentDims("MLP output dim must be 3")
    if encoding == ENCODING_MULTIGRID and enc is None:
        raise InconsistentDims("multigrid encoding requires an EncoderConfig")
    if encoding == ENCODING_POSITIONAL and num_frequencies < 0:
        raise InconsistentDims("num_frequencies must be >= 0")
    expected_in = encoding_width(
        encoding, enc.grid_widths if enc is not None else (), num_frequencies
    )
    if dims[0] != expected_in:
        raise InconsistentDims(
            f"MLP input dim {dims[0]} does not match encoder output {expected_in}"
        )
    if activation not in ("relu", "tanh"):
        raise InconsistentDims(f"unknown activation {activation!r}")

    rng = np.random.default_rng(seed)
    grids = []
    if encoding == ENCODING_MULTIGRID:
        for r in enc.layer_resolutions:
            feats = rng.uniform(-1e-4, 1e-4, size=(r, r, enc.feature_dim))
            grids.append(GridLayer(r, enc.feature_dim, feats.astype(dtype)))
    weights, biases = [], []
    for k, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        last = k == len(dims) - 2
        if last:
            w = np.zeros((d_in, d_out))
        else:
            bound = np.sqrt(6.0 / (d_in + d_out))
            w = rng.uniform(-bound, bound, size=(d_in, d_out))
        weights.append(w.astype(dtype))
        biases.append(np.zeros(d_out, dtype=dtype))
    return SurfaceModel(
        grids=grids,
        mlp=MlpParams(weights, biases, activation),
        encoding=encoding,
        num_frequencies=num_frequencies if encoding == ENCODING_POSITIONAL else 0,
        seed=seed,
    )


def _check_domain(pts: np.ndarray) -> np.ndarray:
    if np.any(pts < -DOMAIN_TOL) or np.any(pts > 1.0 + DOMAIN_TOL):
        bad = pts[np.any((pts < -DOMAIN_TOL) | (pts > 1.0 + DOMAIN_TOL), axis=1)][0]
        raise OutOfDomain(f"UV point {tuple(bad)} outside [0, 1]^2")
    return np.clip(pts, 0.0, 1.0)


def _bilinear_setup(resolution: int, pts: np.ndarray):
    # grid coordinates x = u * (R - 1); the upper cell index clamps to R - 2
    # so queries at u = 1 use degenerate weights on the last node row
    R = resolution
    g = pts * (R - 1)
    i0 = np.clip(np.floor(g[:, 0]).astype(np.int64), 0, R - 2)
    j0 = np.clip(np.floor(g[:, 1]).astype(np.int64), 0, R - 2)
    tx = g[:, 0] - i0
    ty = g[:, 1] - j0
    w = np.stack(
        [(1 - tx) * (1 - ty), (1 - tx) * ty, tx * (1 - ty), tx * ty], axis=1
    )
    idx = np.stack(
        [i0 * R + j0, i0 * R + j0 + 1, (i0 + 1) * R + j0, (i0 + 1) * R + j0 + 1],
        axis=1,
    )
    return idx, w


def _bilinear_batch(layer: GridLayer, pts: np.ndarray):
    idx, w = _bilinear_setup(layer.resolution, pts)
    flat = layer.features.reshape(-1, layer.feature_dim)
    vals = np.einsum("bk,bkf->bf", w.astype(flat.dtype), flat[idx])
    return vals, idx, w


def bilinear_features(layer: GridLayer, p) -> np.ndarray:
    """Bilinearly interpolated feature vector of one grid layer at a UV point."""
    pts = _check_domain(np.asarray(p, dtype=np.float64)[None, :])
    vals, _, _ = _bilinear_batch(layer, pts)
    return vals[0]


def positional_encode(p, num_frequencies: int) -> np.ndarray:
    """(u, v) followed by sin/cos pairs of both coordinates at dyadic frequencies."""
    p = np.asarray(p, dtype=np.float64)
    return _positional_batch(p[None, :], num_frequencies)[0]


def _positional_batch(pts: np.ndarray, num_frequencies: int) -> np.ndarray:
    cols = [pts[:, 0], pts[:, 1]]
    for k in range(num_frequencies):
        f = (2.0**k) * np.pi
        cols.extend(
            [
                np.sin(f * pts[:, 0]),
                np.cos(f * pts[:, 0]),
                np.sin(f * pts[:, 1]),
                np.cos(f * pts[:, 1]),
            ]
        )
    return np.stack(cols, axis=1)


@dataclass
class ForwardTape:
    """Intermediates of one batched forward pass, consumed by ``backward``."""

    points: np.ndarray
    grid_idx: list          # per layer (B, 4) flat node indices
    grid_w: list            # per layer (B, 4) bilinear weights
    x: np.ndarray           # (B, d_in) MLP input
    activations: list       # per hidden layer (B, d_k), post-activation
    field_sizes: tuple = ()


def _encode_batch(model: SurfaceModel, pts: np.ndarray):
    grid_idx, grid_w = [], []
    if model.encoding == ENCODING_MULTIGRID:
        feats = []
        for layer in model.grids:
            vals, idx, w = _bilinear_batch(layer, pts)
            feats.append(vals)
            grid_idx.append(idx)
            grid_w.append(w)
        x = np.concatenate(feats, axis=1)
    elif model.encoding == ENCODING_IDENTITY:
        x = pts.astype(model.dtype)
    else:
        x = _positional_batch(pts, model.num_frequencies).astype(model.dtype)
    return x, grid_idx, grid_w


def encode(model: SurfaceModel, p) -> np.ndarray:
    """Encoder output at one UV point (grid features concatenated in layer order)."""
    pts = _check_domain(np.asarray(p, dtype=np.float64)[None, :])
    x, _, _ = _encode_batch(model, pts)
    return x[0]


def forward_batch(model: SurfaceModel, points, record_tape: bool = False):
    """Evaluate the deformation at a batch of UV points.

    Returns (displacements (B, 3), tape or None). The tape records exactly
    what ``backward`` needs: bilinear scatter targets and layer activations.
    """
    pts = _check_domain(np.atleast_2d(np.asarray(points, dtype=np.float64)))
    x, grid_idx, grid_w = _encode_batch(model, pts)
    a = x
    activations = []
    n_layers = len(model.mlp.weights)
    for k, (w, b) in enumerate(zip(model.mlp.weights, model.mlp.biases)):
        z = a @ w + b
        if k < n_layers - 1:
            a = np.maximum(z, 0) if model.mlp.activation == "relu" else np.tanh(z)
            activations.append(a)
        else:
            a = z
    tape = None
    if record_tape:
        tape = ForwardTape(pts, grid_idx, grid_w, x, activations)
    return a, tape


def deform(model: SurfaceModel, p) -> np.ndarray:
    """3D displacement of the surface at one UV point."""
    out, _ = forward_batch(model, np.asarray(p, dtype=np.float64)[None, :])
    return out[0]


def surface_position(model: SurfaceModel, mesh: GarmentRestMesh, p) -> np.ndarray:
    """Deformed 3D position: rest position plus the model's displacement."""
    return rest_position(mesh, p) + deform(model, p)


@dataclass
class GradientBuffer:
    """Parameter-shaped accumulator for reverse-mode gradients."""

    grids: list
    weights: list
    biases: list

    @classmethod
    def zeros_like(cls, model: SurfaceModel) -> "GradientBuffer":
        return cls(
            grids=[np.zeros_like(g.features) for g in model.grids],
            weights=[np.zeros_like(w) for w in model.mlp.weights],
            biases=[np.zeros_like(b) for b in model.mlp.biases],
        )

    def arrays(self) -> list:
        out = list(self.grids)
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def check_congruent(self, model: SurfaceModel) -> None:
        mine = self.arrays()
        theirs = model.param_arrays()
        if len(mine) != len(theirs) or any(
            a.shape != b.shape for a, b in zip(mine, theirs)
        ):
            raise ShapeMismatch("gradient buffer does not match model shapes")

    def scaled(self, factor: float) -> "GradientBuffer":
        return GradientBuffer(
            [g * factor for g in self.grids],
            [w * factor for w in self.weights],
            [b * factor for b in self.biases],
        )


def backward(
    model: SurfaceModel,
    tape: ForwardTape,
    upstream,
    buf: GradientBuffer | None = None,
) -> GradientBuffer:
    """Accumulate d(loss)/d(parameters) given d(loss)/d(output) cotangents.

    ``upstream`` has shape (B, 3) matching the tape's batch. Grid nodes never
    touched by any query keep zero gradient.
    """
    if buf is None:
        buf = GradientBuffer.zeros_like(model)
    buf.check_congruent(model)
    g = np.atleast_2d(np.asarray(upstream)).astype(model.dtype)
    if g.shape != (len(tape.points), 3):
        raise ShapeMismatch(
            f"upstream shape {g.shape} != ({len(tape.points)}, 3)"
        )
    n_layers = len(model.mlp.weights)
    for k in range(n_layers - 1, -1, -1):
        a_prev = tape.x if k == 0 else tape.activations[k - 1]
        buf.weights[k] += a_prev.T @ g
        buf.biases[k] += g.sum(axis=0)
        if k == 0:
            g = g @ model.mlp.weights[k].T
            break
        g = g @ model.mlp.weights[k].T
        a_k = tape.activations[k - 1]
        if model.mlp.activation == "relu":
            g = g * (a_k > 0)
        else:
            g = g * (1.0 - a_k * a_k)
    if model.encoding == ENCODING_MULTIGRID:
        col = 0
        for layer, idx, w, grad in zip(model.grids, tape.grid_idx, tape.grid_w, buf.grids):
            F = layer.feature_dim
            gx = g[:, col : col + F]
            col += F
            flat = grad.reshape(-1, F)
            contrib = w[:, :, None].astype(gx.dtype) * gx[:, None, :]
            np.add.at(flat, idx, contrib)
    return buf


def _header_lines(model: SurfaceModel) -> list:
    if model.encoding == ENCODING_POSITIONAL:
        enc_line = f"encoding positional {model.num_frequencies}"
    else:
        enc_line = f"encoding {model.encoding}"
    grids = (
        ",".join(f"{g.resolution}x{g.resolution}x{g.feature_dim}" for g in model.grids)
        or "none"
    )
    dims = ",".join(str(d) for d in model.mlp.layer_dims)
    return [
        f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}",
        enc_line,
        f"grids {grids}",
        f"mlp {dims}",
        f"activation {model.mlp.activation}",
        f"seed {model.seed}",
        f"params {model.param_count()}",
        "end",
    ]


def save_checkpoint(model: SurfaceModel, path) -> None:
    """Write the model: text header, then float32 little-endian parameters.

    Payload order is grids in layer order (row-major, feature-minor), then
    per MLP layer the weight matrix (row-major) followed by its bias.
    """
    payload = b"".join(
        np.ascontiguousarray(a, dtype="<f4").tobytes() for a in model.param_arrays()
    )
    try:
        with open(path, "wb") as fh:
            fh.write(("\n".join(_header_lines(model)) + "\n").encode("ascii"))
            fh.write(payload)
    except OSError as exc:
        raise IoFailure(f"cannot write checkpoint {path}: {exc}") from exc


def _parse_header(stream) -> dict:
    fields = {}
    first = stream.readline().decode("ascii", errors="replace").strip()
    expected = f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}"
    if first != expected:
        raise FormatVersionMismatch(f"bad checkpoint header {first!r}")
    while True:
        raw = stream.readline()
        if not raw:
            raise FormatVersionMismatch("checkpoint header truncated")
        line = raw.decode("ascii", errors="replace").strip()
        if line == "end":
            return fields
        key, _, value = line.partition(" ")
        if not value:
            raise FormatVersionMismatch(f"malformed header line {line!r}")
        fields[key] = value


def load_checkpoint(path) -> SurfaceModel:
    """Read a checkpoint; the round-trip with save_checkpoint is bit-exact."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read checkpoint {path}: {exc}") from exc
    stream = io.BytesIO(data)
    fields = _parse_header(stream)
    try:
        enc_parts = fields["encoding"].split()
        encoding = enc_parts[0]
        num_frequencies = int(enc_parts[1]) if len(enc_parts) > 1 else 0
        grid_shapes = []
        if fields["grids"] != "none":
            for token in fields["grids"].split(","):
                r1, r2, f = (int(t) for t in token.split("x"))
                if r1 != r2:
                    raise ShapeMismatch("grid layers must be square")
                grid_shapes.append((r1, f))
        mlp_dims = [int(t) for t in fields["mlp"].split(",")]
        activation = fields["activation"]
        seed = int(fields["seed"])
        declared = int(fields["params"])
    except (KeyError, ValueError) as exc:
        raise FormatVersionMismatch(f"incomplete checkpoint header: {exc}") from exc
    if encoding not in (ENCODING_MULTIGRID, ENCODING_IDENTITY, ENCODING_POSITIONAL):
        raise FormatVersionMismatch(f"unknown encoding {encoding!r}")
    if activation not in ("relu", "tanh"):
        raise FormatVersionMismatch(f"unknown activation {activation!r}")

    expected_in = encoding_width(encoding, [f for _, f in grid_shapes], num_frequencies)
    if not mlp_dims or mlp_dims[0] != expected_in:
        raise ShapeMismatch("MLP input dim disagrees with the encoding header")

    shapes = [(r, r, f) for r, f in grid_shapes]
    for d_in, d_out in zip(mlp_dims[:-1], mlp_dims[1:]):
        shapes.append((d_in, d_out))
        shapes.append((d_out,))
    expected = sum(int(np.prod(s)) for s in shapes)
    if declared != expected:
        raise ShapeMismatch(
            f"declared {declared} parameters but shapes require {expected}"
        )
    payload = data[stream.tell() :]
    if len(payload) != expected * 4:
        raise ShapeMismatch(
            f"payload has {len(payload)} bytes, expected {expected * 4}"
        )
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float32)

    arrays = []
    off = 0
    for s in shapes:
        size = int(np.prod(s))
        arrays.append(flat[off : off + size].reshape(s).copy())
        off += size
    grids = [
        GridLayer(r, f, arrays[k]) for k, (r, f) in enumerate(grid_shapes)
    ]
    rest = arrays[len(grid_shapes) :]
    weights = rest[0::2]
    biases = rest[1::2]
    return SurfaceModel(
        grids=grids,
        mlp=MlpParams(list(weights), list(biases), activation),
        encoding=encoding,
        num_frequencies=num_frequencies,
        seed=seed,
    )
