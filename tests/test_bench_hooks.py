"""The traced benchmark run patches drapefit functions by name.

``perfbench/tracing.py`` lists every (owner, attribute) it replaces in
``SHIMS``. Renaming or removing one of them in drapefit would make the
traced run raise ``KeyError``, and a call that no longer goes through the
patched name would leave its per-layer metric at 0, so both are checked on
every test run.
"""

import importlib.util
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
