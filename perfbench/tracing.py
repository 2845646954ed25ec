"""Span recording at the layer boundaries of sdfshapes, from outside src/.

A traced run swaps selected module attributes for timing wrappers, so that
the CLI's own calls into each layer open a span (name, start, end, parent
span, work count).  Spans stay in memory until the run ends.  The
attributes are swapped where the caller looks them up: `eval_grid` calls
`forward` through the `sdfshapes.isosurface` namespace, so that is the
attribute replaced.  Every swap is undone when `installed` exits.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import threading
import time
from contextlib import contextmanager


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _file_bytes(i, name):
    return lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, i, name))


def _loss_rows(args, kwargs, result):
    off = _arg(args, kwargs, 4, "offsurface_points")
    return len(_arg(args, kwargs, 2, "surface_points")) + (0 if off is None else len(off))


# (module, attribute, span name, work count taken from (args, kwargs, result))
BOUNDARIES = [
    ("sdfshapes.cli", "train", "training.train", None),
    ("sdfshapes.training", "loss_gradients", "field.loss_gradients", _loss_rows),
    ("sdfshapes.training", "adam_step", "training.adam_step", None),
    ("sdfshapes.training", "local_sigmas", "training.local_sigmas", None),
    ("sdfshapes.cli", "reconstruct_shape", "isosurface.reconstruct_shape", None),
    ("sdfshapes.cohort", "reconstruct_shape", "isosurface.reconstruct_shape", None),
    ("sdfshapes.isosurface", "eval_grid", "isosurface.eval_grid",
     lambda a, k, r: _arg(a, k, 2, "resolution") ** 3),
    ("sdfshapes.isosurface", "forward", "field.forward",
     lambda a, k, r: len(_arg(a, k, 2, "xs"))),
    ("sdfshapes.isosurface", "marching_cubes", "isosurface.marching_cubes",
     lambda a, k, r: len(r.faces)),
    ("sdfshapes.cli", "save_mesh", "mesh.save_mesh", _file_bytes(1, "path")),
    ("sdfshapes.cohort", "save_mesh", "mesh.save_mesh", _file_bytes(1, "path")),
    ("sdfshapes.cli", "load_mesh", "mesh.load_mesh", _file_bytes(0, "path")),
    ("sdfshapes.cohort", "sample_surface", "mesh.sample_surface", None),
    ("sdfshapes.cohort", "chamfer_distance", "cohort.chamfer_distance", None),
    ("sdfshapes.cohort", "cKDTree", "cohort.kdtree_build", None),
    ("sdfshapes.cli", "load_checkpoint", "checkpoint_io.load_checkpoint",
     _file_bytes(0, "path")),
    ("sdfshapes.cli", "save_checkpoint", "checkpoint_io.save_checkpoint",
     _file_bytes(1, "path")),
]

# The span the benchmark opens around each sdfshapes.cli.main call.
ROOT_SPAN = "cli.main"

# per-layer metric -> (span or spans, statistic); every value is per measured round
LAYER_METRICS = {
    "field.loss_gradients_s": ("field.loss_gradients", "total"),
    "field.loss_gradients_calls": ("field.loss_gradients", "calls"),
    "field.loss_gradients_rows": ("field.loss_gradients", "work"),
    "field.forward_s": ("field.forward", "total"),
    "field.forward_points": ("field.forward", "work"),
    "field.forward_rows_useful_frac": ("field.forward", "useful_rows"),
    "training.train_s": ("training.train", "total"),
    "training.adam_step_s": ("training.adam_step", "total"),
    "training.local_sigmas_s": ("training.local_sigmas", "total"),
    "training.self_s": ("training.train", "self"),
    "isosurface.reconstruct_shape_s": ("isosurface.reconstruct_shape", "total"),
    "isosurface.eval_grid_s": ("isosurface.eval_grid", "total"),
    "isosurface.eval_grid_self_s": ("isosurface.eval_grid", "self"),
    "isosurface.grid_nodes": ("isosurface.eval_grid", "work"),
    "isosurface.nodes_evaluated_frac": ("isosurface.eval_grid", "evaluated"),
    "isosurface.marching_cubes_s": ("isosurface.marching_cubes", "total"),
    "isosurface.mesh_faces": ("isosurface.marching_cubes", "work"),
    "mesh.save_mesh_s": ("mesh.save_mesh", "total"),
    "mesh.save_mesh_bytes": ("mesh.save_mesh", "work"),
    "mesh.load_mesh_s": ("mesh.load_mesh", "total"),
    "mesh.load_mesh_bytes": ("mesh.load_mesh", "work"),
    "mesh.sample_surface_s": ("mesh.sample_surface", "total"),
    "cohort.chamfer_distance_s": ("cohort.chamfer_distance", "total"),
    "cohort.chamfer_distance_calls": ("cohort.chamfer_distance", "calls"),
    "cohort.kdtree_builds": ("cohort.kdtree_build", "calls"),
    "checkpoint_io.load_checkpoint_s": ("checkpoint_io.load_checkpoint", "total"),
    "checkpoint_io.save_checkpoint_s": ("checkpoint_io.save_checkpoint", "total"),
    "checkpoint_io.bytes": (("checkpoint_io.load_checkpoint",
                             "checkpoint_io.save_checkpoint"), "work"),
    "cli.self_s": (ROOT_SPAN, "self"),
}


class Recorder:
    """In-memory spans: [name, start, end, parent index or -1, work count]."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    @contextmanager
    def span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = [name, time.perf_counter(), None, stack[-1] if stack else -1, 0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name, fn, count):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, fh)


@contextmanager
def installed(recorder, boundaries=BOUNDARIES):
    """Swap each boundary for a wrapper; yield the boundaries that do not
    exist in this version of the program (reported absent, not fatal)."""
    saved, missing = [], []
    try:
        for module, attr, name, count in boundaries:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            if mod is None or not hasattr(mod, attr):
                missing.append(f"{module}.{attr}")
                continue
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, recorder.wrap(name, original, count))
        yield missing
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def span_cost_s(repeats=20000):
    """Seconds the wrapper adds to one call, measured on a no-op."""
    fn = Recorder().wrap("probe", lambda: None, None)
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, rounds, block, present):
    """Per-round layer metrics from the spans of `rounds` measured rounds.

    `block` is the forward pass's padded row block; `present` is the set of
    span names whose boundary exists.  Metrics of absent spans are left out.
    A ratio whose layer was never called reads 0.
    """
    own = self_times(spans)
    stats = {}
    for s, self_s in zip(spans, own):
        st = stats.setdefault(s[0], {"total": 0.0, "self": 0.0, "calls": 0,
                                     "work": 0, "padded": 0})
        st["total"] += s[2] - s[1]
        st["self"] += self_s
        st["calls"] += 1
        st["work"] += s[4]
        st["padded"] += math.ceil(s[4] / block) * block
    empty = {"total": 0.0, "self": 0.0, "calls": 0, "work": 0, "padded": 0}
    forward = stats.get("field.forward", empty)
    grid = stats.get("isosurface.eval_grid", empty)
    out = {}
    for metric, (names, stat) in LAYER_METRICS.items():
        names = [n for n in ((names,) if isinstance(names, str) else names)
                 if n in present]
        if not names:
            continue
        if stat == "useful_rows":
            value = forward["work"] / forward["padded"] if forward["padded"] else 0.0
        elif stat == "evaluated":
            value = forward["work"] / grid["work"] if grid["work"] else 0.0
        else:
            value = sum(stats.get(n, empty)[stat] for n in names) / rounds
        out[metric] = value
    return out


def self_time_coverage(spans, wall_s):
    """Sum of every span's self time over the wall time of the commands;
    near 1 when every span nests inside a command's root span."""
    return sum(self_times(spans)) / wall_s if wall_s > 0 else 0.0
