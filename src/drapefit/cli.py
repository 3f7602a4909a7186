"""Command-line surface: atlas precomputation, training, export, benchmark, eval.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from .errors import ConfigError, DrapefitError
from .objio import read_obj, write_obj
from .restatlas import build_atlas, dump_atlas_png
from .surface import forward_batch, load_checkpoint, save_checkpoint
from .trainer import evaluate_dense, supervised_bench, train
from .config import BenchSpec


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(sub):
    sub.add_argument("--config", help="run configuration file")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", help="override the output directory")
    sub.add_argument("--threads", type=int, default=1, help="worker threads (atlas rasterization)")


def _load_config(args) -> cfgmod.RunConfig:
    if not args.config:
        raise ConfigError("this command requires --config")
    cfg = cfgmod.load_config(args.config)
    if args.seed is not None:
        cfg.train.seed = args.seed
    if args.out:
        cfg.out = args.out
        cfg.train.out_dir = args.out
    return cfg


def _garment_from_args(args, cfg=None):
    if getattr(args, "garment", None):
        data = read_obj(args.garment)
        if data.uvs is None or data.face_uvs is None:
            raise ConfigError("garment OBJ lacks texture coordinates")
        return cfgmod.garment_from_obj(data)
    if cfg is not None:
        return cfg.build_garment()
    raise ConfigError("provide --garment OBJ or --config")


def cmd_atlas(args) -> int:
    mesh = _garment_from_args(args)
    atlas = build_atlas(mesh, args.resolution, threads=max(1, args.threads))
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "atlas.npz")
    atlas.save(path)
    if args.png:
        dump_atlas_png(
            atlas,
            os.path.join(out, "atlas.png"),
            os.path.join(out, "atlas.txt"),
        )
    print(f"atlas_path = {path}")
    print(f"resolution = {atlas.resolution}")
    print(f"valid_fraction = {atlas.valid_fraction():.6f}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    mesh = cfg.build_garment()
    collider = cfg.build_collider()
    os.makedirs(cfg.out, exist_ok=True)
    cfgmod.save_config(cfg, os.path.join(cfg.out, "config_used.ini"))
    model, history, paths = train(cfg.train, mesh, collider)
    final = os.path.join(cfg.out, "final.ckpt")
    save_checkpoint(model, final)
    report = evaluate_dense(
        model,
        mesh,
        collider,
        cfg.export.resolution,
        cfg.train.weights,
        cfg.train.consts,
        seed=cfg.train.seed,
        side=cfg.train.structure_side,
        edge_set=cfg.train.strain_edges,
    )
    summary = os.path.join(cfg.out, "summary.txt")
    with open(summary, "w") as fh:
        for key, value in _report_rows(report, len(history)):
            fh.write(f"{key} = {value}\n")
    print(f"checkpoint = {final}")
    print(f"epochs_run = {len(history)}")
    print(f"summary = {summary}")
    return 0


def _report_rows(report, epochs):
    b = report.breakdown
    return [
        ("epochs_run", epochs),
        ("strain_mean", repr(b.strain)),
        ("bend_mean", repr(b.bend)),
        ("gravity_mean", repr(b.gravity)),
        ("collision_mean", repr(b.collision)),
        ("weighted_total_mean", repr(b.weighted_total)),
        ("valid_cells", report.valid_cells),
        ("total_cells", report.total_cells),
        ("penetration_fraction", repr(report.penetration_fraction)),
        ("mean_abs_strain_ratio", repr(report.mean_abs_strain_ratio)),
    ]


def cmd_export(args) -> int:
    model = load_checkpoint(args.checkpoint)
    cfg = cfgmod.load_config(args.config) if args.config else None
    mesh = _garment_from_args(args, cfg)
    out = args.out or "export.obj"
    if args.mode == "vertices":
        disp, _ = forward_batch(model, mesh.uvs)
        positions = mesh.vertices + disp.astype(np.float64)
        write_obj(out, positions, mesh.triangles, uvs=mesh.uvs, name=mesh.name)
    else:
        R = args.grid_resolution
        if R < 2:
            raise ConfigError("--grid-resolution must be >= 2")
        axis = np.linspace(0.0, 1.0, R)
        uu, vv = np.meshgrid(axis, axis, indexing="xy")
        nodes = np.stack([uu.ravel(), vv.ravel()], axis=1)
        rest, valid = mesh.locator().rest_positions(nodes)
        cell_ok = (
            valid.reshape(R, R)[:-1, :-1]
            & valid.reshape(R, R)[:-1, 1:]
            & valid.reshape(R, R)[1:, :-1]
            & valid.reshape(R, R)[1:, 1:]
        )
        if not valid.any():
            raise DrapefitError("no grid node lies inside the garment UV region")
        disp, _ = forward_batch(model, nodes[valid])
        new_index = np.full(len(nodes), -1, dtype=np.int64)
        new_index[valid] = np.arange(int(valid.sum()))
        positions = rest[valid] + disp.astype(np.float64)
        tris = []
        for i in range(R - 1):
            for j in range(R - 1):
                if not cell_ok[i, j]:
                    continue
                a = i * R + j
                b = a + 1
                c = a + R
                d = c + 1
                tris.append([new_index[a], new_index[b], new_index[d]])
                tris.append([new_index[a], new_index[d], new_index[c]])
        write_obj(
            out,
            positions,
            np.asarray(tris, dtype=np.int64).reshape(-1, 3),
            uvs=nodes[valid],
            name=mesh.name,
        )
    print(f"exported = {out}")
    return 0


def cmd_bench_encoding(args) -> int:
    cfg = _load_config(args) if args.config else None
    bench = cfg.bench if cfg else BenchSpec()
    seed = args.seed if args.seed is not None else (cfg.train.seed if cfg else 0)
    out = args.out or (cfg.out if cfg else ".")
    os.makedirs(out, exist_ok=True)

    def progress(res):
        hit = res.epochs_to_threshold
        print(
            f"{res.name:14s} params={res.params:6d} "
            f"epochs={'not converged' if hit is None else hit} "
            f"wall={res.wall_seconds:.1f}s mse={res.final_mse:.3g}"
        )

    results = supervised_bench(
        threshold=bench.threshold,
        learning_rate=bench.learning_rate,
        optimizer=bench.optimizer,
        batch_size=bench.batch_size,
        max_epochs=bench.max_epochs,
        eval_every=bench.eval_every,
        eval_resolution=bench.eval_resolution,
        seed=seed,
        progress=progress,
    )
    csv_path = os.path.join(out, "bench_encoding.csv")
    with open(csv_path, "w") as fh:
        fh.write("name,params,epochs_to_threshold,wall_seconds,final_mse\n")
        for r in results:
            epochs = "" if r.epochs_to_threshold is None else r.epochs_to_threshold
            fh.write(f"{r.name},{r.params},{epochs},{r.wall_seconds:.3f},{r.final_mse!r}\n")
    print(f"bench_csv = {csv_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    model = load_checkpoint(args.checkpoint)
    mesh = cfg.build_garment()
    collider = cfg.build_collider()
    report = evaluate_dense(
        model,
        mesh,
        collider,
        cfg.export.resolution,
        cfg.train.weights,
        cfg.train.consts,
        seed=cfg.train.seed,
        side=cfg.train.structure_side,
        edge_set=cfg.train.strain_edges,
    )
    for key, value in _report_rows(report, 0):
        if key != "epochs_run":
            print(f"{key} = {value}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="drapefit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("atlas", help="precompute the rest-position atlas")
    p.add_argument("--garment", required=True, help="garment OBJ with UVs")
    p.add_argument("--resolution", type=int, default=1024)
    p.add_argument("--png", action="store_true", help="also dump a debug PNG")
    _add_common(p)
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("train", help="run the training loop from a config")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export", help="export the deformed surface as OBJ")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--garment", help="garment OBJ (or use --config)")
    p.add_argument("--mode", choices=("vertices", "grid"), default="vertices")
    p.add_argument("--grid-resolution", type=int, default=64)
    _add_common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "bench-encoding", help="supervised speed benchmark of encoder variants"
    )
    _add_common(p)
    p.set_defaults(func=cmd_bench_encoding)

    p = sub.add_parser("eval", help="dense loss/penetration report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DrapefitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
