"""Run configuration: sectioned key=value files, strict validation, round-trip.

The format is INI-style text: flat keys under named sections, no nesting,
diff-friendly. Loading materializes every default, validation reports every
violated field at once, and unknown sections or keys are errors that name
the offender. A config written by ``save_config`` reloads to an equal
structure.
"""

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .collider import ColliderMesh, icosphere, prism, torus
from .errors import ConfigError, IoFailure
from .losses import LossWeights, PhysicsConstants
from .objio import read_obj
from .restatlas import GarmentRestMesh, square_cloth
from .sampler import SamplerConfig
from .surface import ENCODING_MULTIGRID, EncoderConfig
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
        data = read_obj(self.garment.path)
        if data.uvs is None or data.face_uvs is None:
            raise ConfigError("garment OBJ lacks texture coordinates")
        return garment_from_obj(data)

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
    key = np.stack([data.faces.ravel(), data.face_uvs.ravel()], axis=1)
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    vertices = data.vertices[uniq[:, 0]]
    uvs = data.uvs[uniq[:, 1]]
    triangles = inverse.reshape(-1, 3)
    mesh = GarmentRestMesh(vertices, uvs, triangles, name=data.name or "garment")
    mesh.validate()
    return mesh


# ---------------------------------------------------------------------------
# parsing


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text: str) -> tuple:
    return tuple(int(t.strip()) for t in text.split(",") if t.strip())


def _parse_float_tuple(text: str) -> tuple:
    return tuple(float(t.strip()) for t in text.split(",") if t.strip())


def _parse_str_tuple(text: str) -> tuple:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _SectionReader:
    def __init__(self, parser, section, errors):
        self.items = dict(parser.items(section)) if parser.has_section(section) else {}
        self.section = section
        self.errors = errors

    def get(self, key, parse, default):
        if key not in self.items:
            return default
        raw = self.items.pop(key)
        try:
            return parse(raw)
        except (ValueError, TypeError) as exc:
            self.errors.append(f"[{self.section}] {key}: {exc}")
            return default

    def finish(self):
        for key in self.items:
            self.errors.append(f"[{self.section}] unknown key {key!r}")


KNOWN_SECTIONS = (
    "run",
    "garment",
    "collider",
    "train",
    "weights",
    "physics",
    "sampler",
    "encoder",
    "mlp",
    "export",
    "bench",
)


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

    errors: list = []
    for section in parser.sections():
        if section not in KNOWN_SECTIONS:
            errors.append(f"unknown section [{section}]")

    cfg = RunConfig()
    r = _SectionReader(parser, "run", errors)
    cfg.out = r.get("out", str, cfg.out)
    r.finish()

    g = _SectionReader(parser, "garment", errors)
    cfg.garment.source = g.get("source", str, cfg.garment.source)
    cfg.garment.resolution = g.get("resolution", int, cfg.garment.resolution)
    cfg.garment.path = g.get("path", str, cfg.garment.path)
    g.finish()

    c = _SectionReader(parser, "collider", errors)
    sp = cfg.collider
    sp.source = c.get("source", str, sp.source)
    sp.path = c.get("path", str, sp.path)
    sp.subdivisions = c.get("subdivisions", int, sp.subdivisions)
    sp.radius = c.get("radius", float, sp.radius)
    sp.center = c.get("center", _parse_float_tuple, sp.center)
    sp.major_radius = c.get("major_radius", float, sp.major_radius)
    sp.minor_radius = c.get("minor_radius", float, sp.minor_radius)
    sp.major_segments = c.get("major_segments", int, sp.major_segments)
    sp.minor_segments = c.get("minor_segments", int, sp.minor_segments)
    sp.side = c.get("side", float, sp.side)
    sp.length = c.get("length", float, sp.length)
    sp.axis_segments = c.get("axis_segments", int, sp.axis_segments)
    sp.side_segments = c.get("side_segments", int, sp.side_segments)
    c.finish()

    t = _SectionReader(parser, "train", errors)
    tc = cfg.train
    tc.epochs = t.get("epochs", int, tc.epochs)
    tc.learning_rate = t.get("learning_rate", float, tc.learning_rate)
    tc.optimizer = t.get("optimizer", str, tc.optimizer)
    tc.sampling_mode = t.get("sampling_mode", str, tc.sampling_mode)
    tc.structure_side = t.get("structure_side", float, tc.structure_side)
    tc.strain_edges = t.get("strain_edges", str, tc.strain_edges)
    tc.strain_form = t.get("strain_form", str, tc.strain_form)
    tc.seed = t.get("seed", int, tc.seed)
    tc.convergence_window = t.get("convergence_window", int, tc.convergence_window)
    tc.convergence_tol = t.get("convergence_tol", float, tc.convergence_tol)
    tc.early_stop = t.get("early_stop", _parse_bool, tc.early_stop)
    tc.checkpoint_every = t.get("checkpoint_every", int, tc.checkpoint_every)
    tc.max_resample = t.get("max_resample", int, tc.max_resample)
    tc.dtype = t.get("dtype", str, tc.dtype)
    tc.dump_pdf_every = t.get("dump_pdf_every", int, tc.dump_pdf_every)
    t.finish()

    w = _SectionReader(parser, "weights", errors)
    tc.weights = LossWeights(
        strain=w.get("strain", float, tc.weights.strain),
        bend=w.get("bend", float, tc.weights.bend),
        gravity=w.get("gravity", float, tc.weights.gravity),
        collision=w.get("collision", float, tc.weights.collision),
    )
    w.finish()

    p = _SectionReader(parser, "physics", errors)
    try:
        tc.consts = PhysicsConstants(
            mass_per_point=p.get("mass", float, tc.consts.mass_per_point),
            gravity=p.get("gravity", float, tc.consts.gravity),
            gravity_axis=p.get("gravity_axis", _parse_float_tuple, tc.consts.gravity_axis),
            collision_epsilon=p.get(
                "collision_epsilon", float, tc.consts.collision_epsilon
            ),
        )
    except ValueError as exc:
        errors.append(f"[physics] {exc}")
    p.finish()

    s = _SectionReader(parser, "sampler", errors)
    sc = tc.sampler
    tc.sampler = SamplerConfig(
        mu=s.get("mu", float, sc.mu),
        gamma=s.get("gamma", float, sc.gamma),
        pdf_rows=s.get("pdf_rows", int, sc.pdf_rows),
        pdf_cols=s.get("pdf_cols", int, sc.pdf_cols),
        n_points=s.get("n_points", int, sc.n_points),
        lloyd_iterations=s.get("lloyd_iterations", int, sc.lloyd_iterations),
        min_spacing=s.get("min_spacing", float, sc.min_spacing),
        pdf_losses=s.get("pdf_losses", _parse_str_tuple, sc.pdf_losses),
    )
    s.finish()

    e = _SectionReader(parser, "encoder", errors)
    tc.encoding = e.get("encoding", str, tc.encoding)
    layer_res = e.get("layer_resolutions", _parse_int_tuple, None)
    feature_dim = e.get("feature_dim", int, None)
    tc.num_frequencies = e.get("num_frequencies", int, tc.num_frequencies)
    if tc.encoding == ENCODING_MULTIGRID:
        try:
            tc.encoder = EncoderConfig(
                layer_res if layer_res is not None else tc.encoder.layer_resolutions,
                feature_dim if feature_dim is not None else tc.encoder.feature_dim,
            )
        except Exception as exc:
            errors.append(f"[encoder] {exc}")
    else:
        tc.encoder = None
    e.finish()

    m = _SectionReader(parser, "mlp", errors)
    tc.mlp_hidden = m.get("hidden", _parse_int_tuple, tc.mlp_hidden)
    tc.activation = m.get("activation", str, tc.activation)
    m.finish()

    x = _SectionReader(parser, "export", errors)
    cfg.export.resolution = x.get("resolution", int, cfg.export.resolution)
    x.finish()

    b = _SectionReader(parser, "bench", errors)
    bs = cfg.bench
    bs.threshold = b.get("threshold", float, bs.threshold)
    bs.learning_rate = b.get("learning_rate", float, bs.learning_rate)
    bs.optimizer = b.get("optimizer", str, bs.optimizer)
    bs.batch_size = b.get("batch_size", int, bs.batch_size)
    bs.max_epochs = b.get("max_epochs", int, bs.max_epochs)
    bs.eval_every = b.get("eval_every", int, bs.eval_every)
    bs.eval_resolution = b.get("eval_resolution", int, bs.eval_resolution)
    b.finish()

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
    if cfg.export.resolution < 2:
        errors.append("[export] resolution must be >= 2")
    if cfg.bench.optimizer not in ("sgd", "adam"):
        errors.append("[bench] optimizer must be sgd or adam")
    return errors


def save_config(cfg: RunConfig, path) -> None:
    """Write the fully normalized configuration (all defaults materialized)."""
    parser = configparser.ConfigParser(interpolation=None)
    tc = cfg.train
    parser["run"] = {"out": cfg.out}
    parser["garment"] = {
        "source": cfg.garment.source,
        "resolution": _fmt(cfg.garment.resolution),
        "path": cfg.garment.path,
    }
    sp = cfg.collider
    parser["collider"] = {
        "source": sp.source,
        "path": sp.path,
        "subdivisions": _fmt(sp.subdivisions),
        "radius": _fmt(sp.radius),
        "center": _fmt(sp.center),
        "major_radius": _fmt(sp.major_radius),
        "minor_radius": _fmt(sp.minor_radius),
        "major_segments": _fmt(sp.major_segments),
        "minor_segments": _fmt(sp.minor_segments),
        "side": _fmt(sp.side),
        "length": _fmt(sp.length),
        "axis_segments": _fmt(sp.axis_segments),
        "side_segments": _fmt(sp.side_segments),
    }
    parser["train"] = {
        "epochs": _fmt(tc.epochs),
        "learning_rate": _fmt(tc.learning_rate),
        "optimizer": tc.optimizer,
        "sampling_mode": tc.sampling_mode,
        "structure_side": _fmt(tc.structure_side),
        "strain_edges": tc.strain_edges,
        "strain_form": tc.strain_form,
        "seed": _fmt(tc.seed),
        "convergence_window": _fmt(tc.convergence_window),
        "convergence_tol": _fmt(tc.convergence_tol),
        "early_stop": _fmt(tc.early_stop),
        "checkpoint_every": _fmt(tc.checkpoint_every),
        "max_resample": _fmt(tc.max_resample),
        "dtype": tc.dtype,
        "dump_pdf_every": _fmt(tc.dump_pdf_every),
    }
    parser["weights"] = {k: _fmt(v) for k, v in tc.weights.as_dict().items()}
    parser["physics"] = {
        "mass": _fmt(tc.consts.mass_per_point),
        "gravity": _fmt(tc.consts.gravity),
        "gravity_axis": _fmt(tc.consts.gravity_axis),
        "collision_epsilon": _fmt(tc.consts.collision_epsilon),
    }
    sc = tc.sampler
    parser["sampler"] = {
        "mu": _fmt(sc.mu),
        "gamma": _fmt(sc.gamma),
        "pdf_rows": _fmt(sc.pdf_rows),
        "pdf_cols": _fmt(sc.pdf_cols),
        "n_points": _fmt(sc.n_points),
        "lloyd_iterations": _fmt(sc.lloyd_iterations),
        "min_spacing": _fmt(sc.min_spacing),
        "pdf_losses": _fmt(sc.pdf_losses),
    }
    enc = {
        "encoding": tc.encoding,
        "num_frequencies": _fmt(tc.num_frequencies),
    }
    if tc.encoder is not None:
        enc["layer_resolutions"] = _fmt(tc.encoder.layer_resolutions)
        enc["feature_dim"] = _fmt(tc.encoder.feature_dim)
    parser["encoder"] = enc
    parser["mlp"] = {
        "hidden": _fmt(tc.mlp_hidden),
        "activation": tc.activation,
    }
    parser["export"] = {"resolution": _fmt(cfg.export.resolution)}
    bs = cfg.bench
    parser["bench"] = {
        "threshold": _fmt(bs.threshold),
        "learning_rate": _fmt(bs.learning_rate),
        "optimizer": bs.optimizer,
        "batch_size": _fmt(bs.batch_size),
        "max_epochs": _fmt(bs.max_epochs),
        "eval_every": _fmt(bs.eval_every),
        "eval_resolution": _fmt(bs.eval_resolution),
    }
    try:
        with open(path, "w") as fh:
            parser.write(fh)
    except OSError as exc:
        raise IoFailure(f"cannot write config {path}: {exc}") from exc
