"""The traced benchmark run patches drapefit functions by name.

``perfbench/tracing.py`` lists every (owner, attribute) it replaces in
``SHIMS``. Renaming or removing one of them in drapefit would make the
traced run raise ``KeyError``, and a call that no longer goes through the
patched name would leave its per-layer metric at 0, so both are checked on
every test run.
"""

import importlib.util
import threading
from pathlib import Path

import drapefit as df
from drapefit import trainer

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shim_target_is_a_callable_of_its_owner():
    for owner, attr, _, _ in load_tracing().SHIMS:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


def test_every_shimmed_layer_is_called(tmp_path):
    tracing = load_tracing()
    mesh = df.square_cloth(8)
    collider = df.icosphere(1, 0.3, (0.5, 0.5, -0.31))
    small = dict(
        epochs=1,
        optimizer="adam",
        encoder=df.EncoderConfig((9, 4), 3),
        mlp_hidden=(8, 8),
        sampler=df.SamplerConfig(n_points=16, pdf_rows=4, pdf_cols=4),
        structure_side=0.01,
        early_stop=False,
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        model, _, _ = trainer.train(
            trainer.TrainConfig(out_dir=str(tmp_path / "fit"), **small), mesh, collider
        )
        trainer.train(
            trainer.TrainConfig(out_dir=str(tmp_path / "mesh"),
                                sampling_mode="mesh_connectivity", **small),
            mesh, collider,
        )
        trainer.evaluate_dense(model, mesh, collider, 4, df.LossWeights(),
                               df.PhysicsConstants())
    assert tracing.shims_removed()
    names = {name for _, _, name, _ in tracing.SHIMS}
    assert names <= set(tracer.self_s), sorted(names - set(tracer.self_s))


def test_shimmed_layers_run_on_the_calling_thread(monkeypatch):
    # the tracer keeps one span stack, so a shimmed layer called from a
    # row-block worker would nest its span under whatever span is open; only
    # the unshimmed insides of a block may leave the calling thread
    import drapefit.losses
    import drapefit.rows
    import drapefit.surface
    from drapefit.collider import _VoxelClearance

    monkeypatch.setattr(drapefit.rows, "POOL_SIZE", max(2, drapefit.rows.POOL_SIZE))
    calls = []  # (shim target, thread)

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, _, _ in load_tracing().SHIMS:
        monkeypatch.setattr(owner, attr, recording(f"{owner.__name__}.{attr}", vars(owner)[attr]))
    block_threads = set()
    encode_batch = drapefit.surface._encode_batch

    def recording_encode(model, pts):
        block_threads.add(threading.get_ident())
        return encode_batch(model, pts)

    monkeypatch.setattr(drapefit.surface, "_encode_batch", recording_encode)
    # the loss kernels and the voxel lookups are unshimmed insides of blocks too
    kernel_threads = {"strain_edge_terms": set(), "lookup": set()}

    def recording_inside(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            kernel_threads[attr].add(threading.get_ident())
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    recording_inside(drapefit.losses, "strain_edge_terms")
    recording_inside(_VoxelClearance, "lookup")
    # 64² dense centres are 4,096 patches, 28,672 points and 24,576 contact
    # queries: at 2048 rows a block, every pass has two blocks or more
    monkeypatch.setattr(drapefit.rows, "ROW_BLOCK", 2048)
    model = trainer.TrainConfig(epochs=1, seed=0).build_model()
    trainer.evaluate_dense(model, df.square_cloth(16), df.icosphere(3, 0.3, (0.5, 0.5, -0.3)),
                           64, df.LossWeights(), df.PhysicsConstants())
    me = threading.get_ident()
    assert block_threads - {me}, "the row blocks never left the calling thread"
    for attr, threads in kernel_threads.items():
        assert threads - {me}, f"{attr} never left the calling thread"
    called = {name for name, _ in calls}
    assert {"drapefit.trainer.evaluate_dense", "drapefit.trainer.evaluate_structure_batch",
            "drapefit.losses.forward_batch", "TriangleLocator.rest_positions",
            "SpatialIndex.nearest"} <= called, sorted(called)
    assert {name for name, thread in calls if thread != me} == set()
