"""Span tracing for the traced benchmark run.

Shims replace the public functions of each drapefit layer at the name the
calling module looks them up by, so the program itself is not edited. Each
call records one span (operation id, name, start, end, parent) plus the work
counts listed in SHIMS. Spans stay in memory until the run writes them out.
A span's self time is its duration minus the time its child spans cover.
"""

import functools
import time
from collections import Counter
from contextlib import contextmanager

import drapefit.losses
import drapefit.sampler
import drapefit.trainer
from drapefit.collider import SpatialIndex
from drapefit.restatlas import TriangleLocator
from drapefit.trainer import OptimizerState

LOOP_SPAN = "trainer.loop"


def _mlp_macs(model) -> int:
    dims = model.mlp.layer_dims
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def _count_lloyd(args, result):
    # every iteration builds one Voronoi diagram over the sites and their four
    # mirror images
    return {"sampler.voronoi_sites": 5 * len(result) * max(int(args[1]), 0)}


def _count_batch(args, result):
    return {
        "losses.patches": len(result.valid),
        "losses.valid_patches": int(result.valid.sum()),
    }


def _count_forward(args, result):
    n = len(result[0])
    return {
        "surface.forward_points": n,
        # one multiply-add per weight is two operations
        "surface.mlp_flops": 2 * _mlp_macs(args[0]) * n,
    }


def _count_backward(args, result):
    n = len(args[1].points)
    # weight gradient plus input cotangent per layer, two operations each
    return {
        "surface.backward_points": n,
        "surface.mlp_flops": 4 * _mlp_macs(args[0]) * n,
    }


# (owner, attribute, span name, counter). Functions are patched in the module
# that calls them, methods on their class.
SHIMS = (
    (drapefit.trainer, "train_epoch", "trainer.epoch",
     lambda args, result: {"trainer.epochs": 1}),
    (drapefit.trainer, "evaluate_dense", "trainer.dense_eval", None),
    (drapefit.trainer, "estimate_cell_losses", "sampler.estimate",
     lambda args, result: {"sampler.estimate_patches": result.size}),
    (drapefit.trainer, "update_pdf", "sampler.draw", None),
    (drapefit.trainer, "sample_batch", "sampler.draw", None),
    (drapefit.trainer, "lloyd_relax", "sampler.lloyd", _count_lloyd),
    (drapefit.trainer, "min_spacing_report", "sampler.spacing", None),
    (drapefit.trainer, "structure_validity", "losses.validity",
     lambda args, result: {"losses.validity_calls": 1}),
    (drapefit.trainer, "evaluate_structure_batch", "losses.batch", _count_batch),
    (drapefit.sampler, "evaluate_structure_batch", "losses.batch", _count_batch),
    (drapefit.losses, "structure_vertices", "structures.vertices", None),
    *((drapefit.trainer, fn, "losses.mesh", None) for fn in (
        "strain_edge_terms", "strain_edge_grad", "bend_pair_terms", "bend_pair_grad",
        "gravity_point_terms", "gravity_point_grad", "collision_point_terms",
        "collision_point_grad")),
    (drapefit.losses, "forward_batch", "surface.forward", _count_forward),
    (drapefit.trainer, "forward_batch", "surface.forward", _count_forward),
    (drapefit.trainer, "backward", "surface.backward", _count_backward),
    (drapefit.trainer, "save_checkpoint", "surface.checkpoint", None),
    (SpatialIndex, "nearest", "collider.nearest",
     lambda args, result: {"collider.queries": len(result[0])}),
    (TriangleLocator, "rest_positions", "restatlas.locate",
     lambda args, result: {"restatlas.locate_points": len(result[1])}),
    (OptimizerState, "step", "trainer.optimizer",
     lambda args, result: {"trainer.steps": 1}),
)


class Tracer:
    """Records spans and counts while its shims are installed."""

    def __init__(self):
        self.spans = []               # (op, name, start, end, parent index or -1)
        self.self_s = Counter()       # span name -> summed self time
        self.counts = Counter()
        self.errors = Counter()       # layer -> exceptions raised inside it
        self.error_sites = Counter()  # "module.function: ExcType" -> count
        self.op = -1
        self._stack = []              # [span index, child seconds]
        self._last_error = None
        self._originals = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        self.spans.append((self.op, name, time.perf_counter(), None,
                           self._stack[-1][0] if self._stack else -1))
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self):
        end = time.perf_counter()
        index, child = self._stack.pop()
        op, name, start, _, parent = self.spans[index]
        self.spans[index] = (op, name, start, end, parent)
        self.self_s[name] += (end - start) - child
        if self._stack:
            self._stack[-1][1] += end - start

    def _record_error(self, name, fn, exc):
        # an exception crosses every enclosing span; count it once, in the
        # innermost layer it came out of
        if exc is self._last_error:
            return
        self._last_error = exc
        self.errors[name.split(".")[0]] += 1
        self.error_sites[f"{fn.__module__}.{fn.__qualname__}: {type(exc).__name__}"] += 1

    @contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def loop(self):
        """Span around the trainer entry point one benchmark call makes."""
        return self.span(LOOP_SPAN)

    # -- shims --------------------------------------------------------------

    def _shim(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    tracer.counts.update(counter(args, result))
                return result
            except Exception as exc:
                tracer._record_error(name, fn, exc)
                raise
            finally:
                tracer._exit()

        shim.is_shim = True
        return shim

    @contextmanager
    def installed(self):
        """Install every shim for the duration of the block, then restore
        the exact objects that were there before."""
        try:
            for owner, attr, name, counter in SHIMS:
                original = vars(owner)[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._shim(original, name, counter))
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)


def shims_removed() -> bool:
    """True when no attribute named in SHIMS still holds a shim."""
    return not any(getattr(vars(owner)[attr], "is_shim", False)
                   for owner, attr, _, _ in SHIMS)
