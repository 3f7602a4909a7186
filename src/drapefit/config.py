"""Run configuration: sectioned key=value files, strict validation, round-trip.

The format is INI-style text: flat keys under named sections, no nesting,
diff-friendly. Loading materializes every default, validation reports every
violated field at once, and unknown sections or keys are errors that name
the offender. A config written by ``save_config`` reloads to an equal
structure.
"""

import configparser
import os
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .collider import ColliderMesh, icosphere, prism, torus
from .errors import ConfigError, InconsistentDims, IoFailure
from .objio import read_obj
from .restatlas import GarmentRestMesh, square_cloth
from .surface import ENCODING_MULTIGRID
from .trainer import TrainConfig


@dataclass
class GarmentSpec:
    source: str = "square"    # square | obj
    resolution: int = 64
    path: str = ""


@dataclass
class ColliderSpec:
    source: str = "icosphere"  # none | obj | icosphere | torus | prism
    path: str = ""
    subdivisions: int = 4
    radius: float = 0.25
    center: tuple = (0.5, 0.5, -0.28)
    major_radius: float = 0.3
    minor_radius: float = 0.1
    major_segments: int = 96
    minor_segments: int = 48
    side: float = 0.4
    length: float = 1.2
    axis_segments: int = 64
    side_segments: int = 32


@dataclass
class ExportSpec:
    resolution: int = 64


@dataclass
class BenchSpec:
    threshold: float = 2e-6
    learning_rate: float = 5e-3
    optimizer: str = "adam"
    batch_size: int = 1024
    max_epochs: int = 20000
    eval_every: int = 25
    eval_resolution: int = 64


@dataclass
class RunConfig:
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=1000))
    garment: GarmentSpec = field(default_factory=GarmentSpec)
    collider: ColliderSpec = field(default_factory=ColliderSpec)
    export: ExportSpec = field(default_factory=ExportSpec)
    bench: BenchSpec = field(default_factory=BenchSpec)
    out: str = "runs/out"

    def build_garment(self) -> GarmentRestMesh:
        if self.garment.source == "square":
            return square_cloth(self.garment.resolution)
        return garment_from_obj(read_obj(self.garment.path))

    def build_collider(self) -> ColliderMesh | None:
        spec = self.collider
        if spec.source == "none":
            return None
        if spec.source == "obj":
            return ColliderMesh.from_obj(spec.path)
        if spec.source == "icosphere":
            return icosphere(spec.subdivisions, spec.radius, spec.center)
        if spec.source == "torus":
            return torus(
                spec.major_radius,
                spec.minor_radius,
                spec.major_segments,
                spec.minor_segments,
                spec.center,
            )
        return prism(
            spec.side, spec.length, spec.axis_segments, spec.side_segments, spec.center
        )


def garment_from_obj(data) -> GarmentRestMesh:
    """Unify OBJ position/UV indexing: one vertex per (position, uv) pair."""
    if data.uvs is None or data.face_uvs is None:
        raise ConfigError("garment OBJ lacks texture coordinates")
    key = np.stack([data.faces.ravel(), data.face_uvs.ravel()], axis=1)
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    vertices = data.vertices[uniq[:, 0]]
    uvs = data.uvs[uniq[:, 1]]
    triangles = inverse.reshape(-1, 3)
    mesh = GarmentRestMesh(vertices, uvs, triangles, name=data.name or "garment")
    mesh.validate()
    return mesh


# ---------------------------------------------------------------------------
# the key table

# One row per INI section and the object that holds its values, as a dotted
# path from the RunConfig ("" is the RunConfig itself), with the section's
# keys in file order. A key names its attribute unless given as a
# (key, attribute) pair. The encoder's grid keys have a row of their own:
# only the multigrid encoding has a grid, and a config without one writes none.
_TABLE = (
    ("run", "", ("out",)),
    ("garment", "garment", ("source", "resolution", "path")),
    ("collider", "collider", (
        "source", "path", "subdivisions", "radius", "center", "major_radius",
        "minor_radius", "major_segments", "minor_segments", "side", "length",
        "axis_segments", "side_segments",
    )),
    ("train", "train", (
        "epochs", "learning_rate", "optimizer", "sampling_mode", "structure_side",
        "strain_edges", "strain_form", "seed", "convergence_window",
        "convergence_tol", "early_stop", "checkpoint_every", "max_resample",
        "dtype", "dump_pdf_every",
    )),
    ("weights", "train.weights", ("strain", "bend", "gravity", "collision")),
    ("physics", "train.consts", (
        ("mass", "mass_per_point"), "gravity", "gravity_axis", "collision_epsilon",
    )),
    ("sampler", "train.sampler", (
        "mu", "gamma", "pdf_rows", "pdf_cols", "n_points", "lloyd_iterations",
        "min_spacing", "pdf_losses",
    )),
    ("encoder", "train", ("encoding", "num_frequencies")),
    ("encoder", "train.encoder", ("layer_resolutions", "feature_dim")),
    ("mlp", "train", (("hidden", "mlp_hidden"), "activation")),
    ("export", "export", ("resolution",)),
    ("bench", "bench", (
        "threshold", "learning_rate", "optimizer", "batch_size", "max_epochs",
        "eval_every", "eval_resolution",
    )),
)


def _rows(cfg: RunConfig):
    """(section, holder, key, attribute) for every key of the table; the
    holder is None for the grid keys of a config without a grid."""
    for section, path, keys in _TABLE:
        holder = attrgetter(path)(cfg) if path else cfg
        for key in keys:
            key, attr = (key, key) if isinstance(key, str) else key
            yield section, holder, key, attr


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parser(default):
    """Text-to-value parser chosen by the type of a key's default; a tuple is
    comma-separated, its items typed as the default's first item."""
    if isinstance(default, tuple):
        item = _parser(default[0])
        return lambda text: tuple(item(t.strip()) for t in text.split(",") if t.strip())
    if isinstance(default, bool):  # a bool is also an int
        return _parse_bool
    return type(default)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration; raises ConfigError listing
    every violation (unknown keys, bad values, missing files, bad ranges)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    known = {section for section, _, _ in _TABLE}
    found = {s: dict(parser.items(s)) for s in parser.sections() if s in known}
    errors = [f"unknown section [{s}]" for s in parser.sections() if s not in known]
    cfg = RunConfig()
    for section, holder, key, attr in _rows(cfg):
        raw = found.get(section, {}).pop(key, None)
        if raw is None:
            continue
        try:
            setattr(holder, attr, _parser(getattr(holder, attr))(raw))
        except ValueError as exc:
            errors.append(f"[{section}] {key}: {exc}")
    for section, items in found.items():
        errors.extend(f"[{section}] unknown key {key!r}" for key in items)

    # rebuilt so that their constructor checks see the values read
    tc = cfg.train
    try:
        tc.consts = replace(tc.consts)
    except ValueError as exc:
        errors.append(f"[physics] {exc}")
    if tc.encoding == ENCODING_MULTIGRID:
        try:
            tc.encoder = replace(tc.encoder)
        except InconsistentDims as exc:
            errors.append(f"[encoder] {exc}")
    else:
        tc.encoder = None

    errors.extend(_structural_problems(cfg))
    if errors:
        raise ConfigError("\n".join(errors))
    tc.out_dir = cfg.out
    return cfg


def _structural_problems(cfg: RunConfig) -> list:
    errors = list(cfg.train.problems())
    if cfg.garment.source not in ("square", "obj"):
        errors.append("[garment] source must be square or obj")
    elif cfg.garment.source == "square" and cfg.garment.resolution < 2:
        errors.append("[garment] resolution must be >= 2")
    elif cfg.garment.source == "obj" and not os.path.exists(cfg.garment.path):
        errors.append(f"[garment] path does not exist: {cfg.garment.path!r}")
    if cfg.collider.source not in ("none", "obj", "icosphere", "torus", "prism"):
        errors.append("[collider] source must be none, obj, icosphere, torus, or prism")
    elif cfg.collider.source == "obj" and not os.path.exists(cfg.collider.path):
        errors.append(f"[collider] path does not exist: {cfg.collider.path!r}")
    collider = cfg.collider
    for name in ("radius", "major_radius", "minor_radius", "side", "length"):
        if not 0.0 < getattr(collider, name) < np.inf:
            errors.append(f"[collider] {name} must be positive and finite")
    if len(collider.center) != 3 or not np.all(np.isfinite(collider.center)):
        errors.append("[collider] center must be three finite numbers")
    for name, least in (("subdivisions", 0), ("major_segments", 3), ("minor_segments", 3),
                        ("axis_segments", 1), ("side_segments", 1)):
        if getattr(collider, name) < least:
            errors.append(f"[collider] {name} must be >= {least}")
    if cfg.export.resolution < 2:
        errors.append("[export] resolution must be >= 2")
    bench = cfg.bench
    if bench.optimizer not in ("sgd", "adam"):
        errors.append("[bench] optimizer must be sgd or adam")
    for name in ("batch_size", "eval_every", "eval_resolution"):
        if getattr(bench, name) < 1:
            errors.append(f"[bench] {name} must be >= 1")
    if bench.max_epochs < 0:
        errors.append("[bench] max_epochs must be >= 0")
    for name in ("learning_rate", "threshold"):
        value = getattr(bench, name)
        if not (value > 0 and np.isfinite(value)):
            errors.append(f"[bench] {name} must be positive and finite")
    return errors


def save_config(cfg: RunConfig, path) -> None:
    """Write every key of the table, defaults included, in table order."""
    sections: dict = {}
    for section, holder, key, attr in _rows(cfg):
        if holder is not None:
            sections.setdefault(section, {})[key] = _fmt(getattr(holder, attr))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    try:
        with open(path, "w") as fh:
            parser.write(fh)
    except OSError as exc:
        raise IoFailure(f"cannot write config {path}: {exc}") from exc
