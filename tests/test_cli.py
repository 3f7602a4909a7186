import dataclasses
import os
import re

import numpy as np
import pytest

from drapefit import (
    LossWeights,
    PhysicsConstants,
    SamplerConfig,
    TrainConfig,
    init_model,
    save_checkpoint,
    square_cloth,
    square_cloth_with_hole,
)
from drapefit.cli import main
from drapefit.config import (
    BenchSpec,
    ColliderSpec,
    ExportSpec,
    GarmentSpec,
    RunConfig,
    garment_from_obj,
    load_config,
    save_config,
)
from drapefit.errors import ConfigError
from drapefit.objio import read_obj, write_obj
from drapefit.surface import EncoderConfig


def write_cloth_obj(path, resolution=8):
    mesh = square_cloth(resolution)
    write_obj(path, mesh.vertices, mesh.triangles, uvs=mesh.uvs, name=mesh.name)
    return mesh


def quick_run_config(tmp_path, **train_over) -> str:
    cfg = RunConfig()
    cfg.garment.resolution = 12
    cfg.collider.subdivisions = 1
    cfg.collider.radius = 0.2
    cfg.collider.center = (0.5, 0.5, -0.3)
    cfg.train.epochs = 2
    cfg.train.encoder = EncoderConfig((9, 4), 3)
    cfg.train.mlp_hidden = (8, 8, 8)
    cfg.train.sampler = SamplerConfig(
        n_points=8, pdf_rows=4, pdf_cols=4, lloyd_iterations=1
    )
    cfg.train.structure_side = 0.01
    cfg.train.weights = LossWeights(0.01, 0.001, 0.5, 10.0)
    for key, value in train_over.items():
        setattr(cfg.train, key, value)
    cfg.out = str(tmp_path / "run")
    cfg.export.resolution = 8
    path = str(tmp_path / "run.ini")
    save_config(cfg, path)
    return path


def every_key_changed(garment_obj, encoding) -> RunConfig:
    """A valid RunConfig with every INI key away from its default."""
    multigrid = encoding == "multigrid"
    return RunConfig(
        train=TrainConfig(
            epochs=12,
            learning_rate=1e-3,
            weights=LossWeights(0.1, 0.2, 0.3, 0.4),
            consts=PhysicsConstants(2.0, 3.5, (1.0, 0.0, 0.0), 0.002),
            sampler=SamplerConfig(0.25, 0.75, 8, 9, 100, 2, 0.01, ("strain", "gravity")),
            encoder=EncoderConfig((33, 17, 9), 4) if multigrid else None,
            mlp_hidden=(16, 8),
            activation="tanh",
            encoding=encoding,
            num_frequencies=6,
            sampling_mode="uniform",
            structure_side=0.002,
            strain_edges="inner3",
            strain_form="absolute",
            optimizer="adam",
            seed=9,
            convergence_window=7,
            convergence_tol=1e-3,
            early_stop=False,
            checkpoint_every=5,
            max_resample=3,
            dtype="float64",
            out_dir="runs/every",  # the loader sets it from [run] out
            dump_pdf_every=4,
        ),
        garment=GarmentSpec("obj", 33, garment_obj),
        collider=ColliderSpec(
            "torus", "unused.obj", 2, 0.3, (0.4, 0.6, -0.5), 0.35, 0.05, 40, 20,
            0.5, 1.5, 30, 10,
        ),
        export=ExportSpec(40),
        bench=BenchSpec(1e-5, 1e-2, "sgd", 256, 100, 5, 32),
        out="runs/every",
    )


def assert_all_fields_differ(a, b, same, where="cfg"):
    """Every (nested) field of a differs from b's, except the paths in same."""
    for f in dataclasses.fields(a):
        x, y, name = getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}"
        if dataclasses.is_dataclass(x) and dataclasses.is_dataclass(y):
            assert_all_fields_differ(x, y, same, name)
        elif name not in same:
            assert x != y, f"{name} is at its default"


class TestConfig:
    def test_roundtrip_equality(self, tmp_path):
        cfg = RunConfig()
        cfg.train.epochs = 77
        cfg.train.weights = LossWeights(1e-3, 2e-4, 3.0, 1e7)
        path = tmp_path / "a.ini"
        save_config(cfg, path)
        back = load_config(path)
        cfg.train.out_dir = cfg.out  # loader materializes the out dir
        assert back == cfg

    @pytest.mark.parametrize("encoding", ["multigrid", "positional"])
    def test_roundtrip_changes_every_key(self, tmp_path, encoding):
        obj = tmp_path / "cloth.obj"
        write_cloth_obj(obj)
        cfg = every_key_changed(str(obj), encoding)
        # the multigrid arm keeps the default encoding to carry the grid keys
        same = {"cfg.train.encoding"} if encoding == "multigrid" else set()
        assert_all_fields_differ(cfg, RunConfig(), same)
        path = tmp_path / "every.ini"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_bench_ranges_reported_together(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[bench]\nbatch_size = 0\neval_every = 0\neval_resolution = 0\n"
            "max_epochs = -1\nlearning_rate = 0\nthreshold = nan\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        msg = str(err.value)
        for key in ("batch_size", "eval_every", "eval_resolution", "max_epochs",
                    "learning_rate", "threshold"):
            assert f"[bench] {key}" in msg
        assert main(["bench-encoding", "--config", str(path)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_defaults_match_published_settings(self, tmp_path):
        cfg = RunConfig()
        path = tmp_path / "d.ini"
        save_config(cfg, path)
        back = load_config(path)
        assert back.train.learning_rate == 0.0005
        assert back.train.weights == LossWeights(0.005, 0.0005, 2.0, 1e7)

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nepochs = 5\nwibble = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "wibble" in str(err.value)

    def test_unknown_section_is_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "mystery" in str(err.value)

    def test_all_violations_reported_together(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[train]\nepochs = 0\nlearning_rate = -2\noptimizer = quux\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        msg = str(err.value)
        assert "epochs" in msg and "learning_rate" in msg and "optimizer" in msg
        path.write_text("[sampler]\nmu = 2\ngamma = 2\nn_points = 0\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        msg = str(err.value)
        assert "mu" in msg and "gamma" in msg and "n_points" in msg

    def test_out_of_range_values_are_all_named(self, tmp_path, capsys):
        # nan must fail every range check, as a negative or zero value does
        bad = {
            "train": dict(structure_side="nan", convergence_tol="nan", seed="-1",
                          checkpoint_every="-1", dump_pdf_every="-1"),
            "physics": dict(mass="-1", collision_epsilon="nan"),
            "sampler": dict(min_spacing="-1"),
            "collider": dict(radius="-1", subdivisions="-1", major_radius="nan",
                             minor_radius="0", side="inf", length="-2",
                             major_segments="2", minor_segments="2",
                             axis_segments="0", side_segments="0"),
        }
        path = tmp_path / "bad.ini"
        path.write_text("".join(
            f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for section, keys in bad.items()
        ))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        msg = str(err.value)
        for keys in bad.values():
            for key in keys:
                assert re.search(rf"\b{key} must", msg), key
        # the run stops before it writes anything
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        good = quick_run_config(tmp_path)
        assert main(["train", "--config", good, "--seed", "-1", "--out", str(tmp_path / "run")]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_obj_paths_are_errors(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[garment]\nsource = obj\npath = nowhere.obj\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "nowhere.obj" in str(err.value)


class TestAtlasCommand:
    def test_valid_fraction_matches_analytic_area(self, tmp_path, capsys):
        # garment covering the lower-left UV triangle: area 1/2
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        uvs = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        path = tmp_path / "tri.obj"
        write_obj(path, verts, np.array([[0, 1, 2]]), uvs=uvs)
        rc = main(["atlas", "--garment", str(path), "--resolution", "64",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        fraction = float(out.split("valid_fraction = ")[1].split()[0])
        assert fraction == pytest.approx(0.5, abs=0.02)

    def test_missing_texture_coordinates(self, tmp_path, capsys):
        path = tmp_path / "plain.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        rc = main(["atlas", "--garment", str(path), "--out", str(tmp_path)])
        assert rc == 1
        assert "texture coordinates" in capsys.readouterr().err

    def test_minimum_resolution_accepted(self, tmp_path):
        path = tmp_path / "cloth.obj"
        write_cloth_obj(path)
        rc = main(["atlas", "--garment", str(path), "--resolution", "2",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_threads_is_a_usage_error(self, tmp_path, capsys):
        # the atlas's lookups share the CPUs on their own; no command takes
        # a thread count
        path = tmp_path / "cloth.obj"
        write_cloth_obj(path)
        rc = main(["atlas", "--garment", str(path), "--resolution", "16",
                   "--threads", "2", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--threads" in err
        assert not (tmp_path / "atlas.npz").exists()
        assert main(["train", "--config", quick_run_config(tmp_path), "--threads", "2"]) == 1
        assert "--threads" in capsys.readouterr().err


class TestTrainCommand:
    def test_end_to_end(self, tmp_path, capsys):
        cfg_path = quick_run_config(tmp_path)
        rc = main(["train", "--config", cfg_path])
        assert rc == 0
        out_dir = tmp_path / "run"
        assert (out_dir / "final.ckpt").exists()
        assert (out_dir / "loss_log.csv").exists()
        summary = (out_dir / "summary.txt").read_text()
        assert "penetration_fraction" in summary
        assert (out_dir / "config_used.ini").exists()
        # final.ckpt is the last epoch checkpoint under a second name, also
        # after reruns into the same directory that end on the same epoch
        # and on a later one
        for rerun_epochs in (None, 2, 3):
            if rerun_epochs is not None:
                rerun = quick_run_config(tmp_path, epochs=rerun_epochs)
                assert main(["train", "--config", rerun]) == 0
            last = sorted(out_dir.glob("epoch*.ckpt"))[-1]
            assert os.path.samefile(out_dir / "final.ckpt", last)
            assert sorted(p.name for p in out_dir.glob("final*")) == ["final.ckpt"]

    def test_table_defaults_load_without_overrides(self, tmp_path):
        cfg = RunConfig()
        path = str(tmp_path / "defaults.ini")
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded.train.learning_rate == 0.0005
        w = loaded.train.weights
        assert (w.strain, w.bend, w.gravity, w.collision) == (0.005, 0.0005, 2.0, 1e7)

    def test_sampling_mode_switch_is_config_only(self, tmp_path):
        a = load_config(quick_run_config(tmp_path))
        b_path = quick_run_config(tmp_path, sampling_mode="uniform")
        b = load_config(b_path)
        assert a.train.sampling_mode == "adaptive"
        assert b.train.sampling_mode == "uniform"
        assert b.train.sampler == a.train.sampler

    def test_uniform_mode_runs(self, tmp_path):
        cfg_path = quick_run_config(tmp_path, sampling_mode="uniform")
        assert main(["train", "--config", cfg_path]) == 0

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nepochs = 0\n")
        assert main(["train", "--config", str(path)]) == 1

    def test_usage_error_exit_code(self, capsys):
        assert main(["train", "--no-such-flag"]) == 1


class TestExportCommand:
    def test_initialized_checkpoint_exports_rest_mesh(self, tmp_path):
        cloth_path = tmp_path / "cloth.obj"
        mesh = write_cloth_obj(cloth_path)
        model = init_model(EncoderConfig((9, 4), 3), [6, 8, 8, 8, 3], seed=0)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, ckpt)
        out = tmp_path / "out.obj"
        rc = main(["export", "--checkpoint", str(ckpt), "--garment", str(cloth_path),
                   "--mode", "vertices", "--out", str(out)])
        assert rc == 0
        data = read_obj(out)
        order = np.lexsort((data.vertices[:, 0], data.vertices[:, 1]))
        ref = np.lexsort((mesh.vertices[:, 0], mesh.vertices[:, 1]))
        assert np.allclose(data.vertices[order], mesh.vertices[ref], atol=1e-6)

    def test_grid_mode_combinatorics(self, tmp_path):
        cloth_path = tmp_path / "cloth.obj"
        write_cloth_obj(cloth_path)
        model = init_model(EncoderConfig((9, 4), 3), [6, 8, 8, 8, 3], seed=0)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, ckpt)
        out = tmp_path / "grid.obj"
        rc = main(["export", "--checkpoint", str(ckpt), "--garment", str(cloth_path),
                   "--mode", "grid", "--grid-resolution", "4", "--out", str(out)])
        assert rc == 0
        data = read_obj(out)
        assert len(data.vertices) == 16
        assert len(data.faces) == 18

    @pytest.mark.parametrize("resolution", [2, 3, 5, 8, 13, 40])
    def test_grid_mode_triangles_equal_the_cell_loop(self, tmp_path, resolution):
        cloth_path = tmp_path / "holed.obj"
        holed = square_cloth_with_hole(17)
        write_obj(cloth_path, holed.vertices, holed.triangles, uvs=holed.uvs, name=holed.name)
        model = init_model(EncoderConfig((9, 4), 3), [6, 8, 8, 8, 3], seed=0)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, ckpt)
        out = tmp_path / "grid.obj"
        assert main(["export", "--checkpoint", str(ckpt), "--garment", str(cloth_path),
                     "--mode", "grid", "--grid-resolution", str(resolution),
                     "--out", str(out)]) == 0
        # the former export: a loop over the (R - 1)^2 cells of the node grid
        R = resolution
        axis = np.linspace(0.0, 1.0, R)
        uu, vv = np.meshgrid(axis, axis, indexing="xy")
        nodes = np.stack([uu.ravel(), vv.ravel()], axis=1)
        garment = garment_from_obj(read_obj(cloth_path))
        _, valid = garment.locator().rest_positions(nodes)
        new_index = np.cumsum(valid) - 1
        tris = []
        for i in range(R - 1):
            for j in range(R - 1):
                a, b, c, d = i * R + j, i * R + j + 1, (i + 1) * R + j, (i + 1) * R + j + 1
                if valid[[a, b, c, d]].all():
                    tris.append([new_index[a], new_index[b], new_index[d]])
                    tris.append([new_index[a], new_index[d], new_index[c]])
        data = read_obj(out)
        assert len(data.vertices) == int(valid.sum())
        assert np.array_equal(data.faces, np.asarray(tris, dtype=np.int64).reshape(-1, 3))
        if R > 5:
            assert 0 < len(tris) < 2 * (R - 1) ** 2  # the hole drops cells

    def test_export_reimports_identically(self, tmp_path):
        cloth_path = tmp_path / "cloth.obj"
        write_cloth_obj(cloth_path)
        model = init_model(EncoderConfig((9, 4), 3), [6, 8, 8, 8, 3], seed=1)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, ckpt)
        out = tmp_path / "roundtrip.obj"
        main(["export", "--checkpoint", str(ckpt), "--garment", str(cloth_path),
              "--out", str(out)])
        first = read_obj(out)
        again = tmp_path / "again.obj"
        write_obj(again, first.vertices, first.faces, uvs=first.uvs)
        second = read_obj(again)
        assert len(first.vertices) == len(second.vertices)
        assert np.array_equal(first.faces, second.faces)


class TestEvalCommand:
    def test_rest_model_far_collider_reports_zero_penetration(self, tmp_path, capsys):
        cfg_path = quick_run_config(tmp_path)
        cfg = load_config(cfg_path)
        cfg.collider.center = (0.5, 0.5, -8.0)
        save_config(cfg, cfg_path)
        model = init_model(EncoderConfig((9, 4), 3), [6, 8, 8, 8, 3], seed=0)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        rc = main(["eval", "--checkpoint", str(ckpt), "--config", cfg_path])
        assert rc == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(" = ") for line in out.strip().splitlines()
        )
        assert float(values["penetration_fraction"]) == 0.0
        assert float(values["collision_mean"]) == 0.0

    def test_sunken_model_penetration_matches_overlap(self, tmp_path, capsys):
        # push the surface down into the sphere by a constant offset: the
        # penetrating disk has an analytically known area
        cfg_path = quick_run_config(tmp_path)
        cfg = load_config(cfg_path)
        cfg.collider.subdivisions = 4
        cfg.collider.radius = 0.25
        cfg.collider.center = (0.5, 0.5, 0.0)
        cfg.export.resolution = 48
        save_config(cfg, cfg_path)
        model = init_model(EncoderConfig((9, 4), 3), [6, 8, 8, 8, 3], seed=0)
        model.mlp.biases[-1][:] = [0.0, 0.0, -0.125]
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        rc = main(["eval", "--checkpoint", str(ckpt), "--config", cfg_path])
        assert rc == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        # plane at z = -0.125 inside a radius-0.25 sphere: disk radius
        # sqrt(r^2 - z^2), overlap area pi * (r^2 - z^2)
        expect = np.pi * (0.25**2 - 0.125**2)
        assert float(values["penetration_fraction"]) == pytest.approx(expect, abs=0.03)

    def test_output_is_machine_readable(self, tmp_path, capsys):
        cfg_path = quick_run_config(tmp_path)
        model = init_model(EncoderConfig((9, 4), 3), [6, 8, 8, 8, 3], seed=0)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        main(["eval", "--checkpoint", str(ckpt), "--config", cfg_path])
        for line in capsys.readouterr().out.strip().splitlines():
            key, _, value = line.partition(" = ")
            assert key and value
            float(value)  # every value parses as a number
