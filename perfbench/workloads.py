"""The three benchmark workloads: inputs, CLI rounds and output checks.

Every workload uses the desk-scale network of the tests and scripts (8
layers x 64 wide, 8-dim codes, skip after layer 4) on a family of 8
analytic spheres, radii 0.30 to 0.65, 5000 surface samples each.  A round
is the unit of user work whose wall time is measured; its outputs are
checked once the timed loop is over.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np

from sdfshapes.checkpoint_io import load_checkpoint
from sdfshapes.cli import main
from sdfshapes.cohort import (CohortManifest, CombinationWeights, DistanceReport,
                              combine_codes)
from sdfshapes.field import forward
from sdfshapes.isosurface import DEFAULT_HALFWIDTH
from sdfshapes.mesh import load_mesh, save_sample_set
from sdfshapes.primitives import multi_sphere_samples

RADII = [0.30 + 0.05 * k for k in range(8)]
SAMPLES_PER_SHAPE = 5000
NETWORK = ("latent_dim = 8\nhidden_width = 64\nlayer_count = 8\n"
           "skip_layer = 4\nsurface_batch_size = 128\n")
TRAIN_EPOCHS = 30     # one `train` command of the train workload
RESOLUTION = 128      # reconstruct / interpolate lattice
COHORT_SIZE = 16
COHORT_RESOLUTION = 40
COHORT_INTERP = 4
EVAL_POINTS = 3000
# A briefly trained checkpoint carries a per-seed radius bias (up to 0.12 over
# 22 seeds at 25 epochs, still 0.09 at 40), so the radius check only bounds
# gross errors of scale; the zero-set and topology checks are the exact ones.
RADIUS_TOL = 0.2
ZERO_SET_TOL = 0.1    # max |f| at mesh vertices, in lattice cells (0.01-0.03 seen)


def _config(path, epochs, seed):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(NETWORK + f"epochs = {epochs}\nseed = {seed}\n")
    return path


def off_zero_set(ck, z, mesh, resolution):
    """Largest |f(z, v)| over the mesh vertices, in lattice cells: every
    vertex must lie on the zero set of the field it was extracted from."""
    cell = 2.0 * DEFAULT_HALFWIDTH / (resolution - 1)
    return float(np.abs(forward(ck.params, z, mesh.vertices)).max()) / cell


def closed_surface(mesh):
    """(every edge shared by exactly two faces, V - E + F)."""
    f = mesh.faces
    e = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    e.sort(axis=1)
    _, counts = np.unique(e[:, 0] * len(mesh.vertices) + e[:, 1], return_counts=True)
    return bool((counts == 2).all()), len(mesh.vertices) - len(counts) + len(f)


class Workload:
    """A seeded input family plus the CLI rounds a single client runs."""

    name = ""
    setup_epochs = 25   # the short checkpoint that set-up trains through the CLI

    def __init__(self, seed):
        self.seed = seed

    def setup(self, work):
        """Generate the inputs under `work`; return the files to compare
        across repeated set-ups (they must be byte-identical)."""
        self.samples = os.path.join(work, "family.nsds")
        save_sample_set(multi_sphere_samples(RADII, SAMPLES_PER_SHAPE, self.seed),
                        self.samples)
        self.checkpoint = os.path.join(work, "model.nsdf")
        cfg = _config(os.path.join(work, "setup.cfg"), self.setup_epochs, self.seed)
        argv = ["train", "--samples", self.samples, "--config", cfg,
                "--out", self.checkpoint]
        if run_cli(argv) != 0:
            raise RuntimeError("set-up training failed")
        return [self.samples, self.checkpoint]

    def commands(self, i, out):
        """(kind, argv) of every CLI command of round i, in order."""
        raise NotImplementedError

    def check(self, i, out):
        """Problems found in round i's outputs; empty when they are right."""
        raise NotImplementedError

    def summary(self, times):
        """User-facing rates from the per-kind command times of all rounds."""
        raise NotImplementedError


class TrainWorkload(Workload):
    name = "train"
    steps = TRAIN_EPOCHS * len(RADII)
    # A one-epoch warm-up: it pays the first CLI train's one-off costs, and
    # writing the sample set alone (~5 ms, file I/O) is too small to time
    # steadily.
    setup_epochs = 1

    def commands(self, i, out):
        cfg = _config(os.path.join(out, "train.cfg"), TRAIN_EPOCHS,
                      self.seed * 1000 + i)
        return [("train", ["train", "--samples", self.samples, "--config", cfg,
                           "--out", os.path.join(out, "model.nsdf")])]

    def check(self, i, out):
        problems = []
        with open(os.path.join(out, "model.nsdf.metrics.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        epochs = [int(r["epoch"]) for r in rows]
        values = np.array([[float(v) for k, v in r.items() if k != "epoch"]
                           for r in rows])
        if epochs != list(range(TRAIN_EPOCHS)):
            problems.append(f"metrics rows for epochs {epochs}")
        elif not np.isfinite(values).all():
            problems.append("non-finite metrics value")
        elif not float(rows[-1]["mean_total"]) < 0.5 * float(rows[0]["mean_total"]):
            problems.append(f"loss {rows[0]['mean_total']} -> "
                            f"{rows[-1]['mean_total']} did not halve")
        ck = load_checkpoint(os.path.join(out, "model.nsdf"))
        if ck.epochs_completed != TRAIN_EPOCHS or ck.codes.shape != (len(RADII), 8):
            problems.append("checkpoint does not match the run")
        return problems

    def summary(self, times):
        return {"train_steps_per_s": self.steps / _median(times["train"])}


class ReconstructWorkload(Workload):
    name = "reconstruct"

    def _pick(self, i):
        rng = np.random.default_rng([self.seed, i])
        if i % 2 == 0:
            return (int(rng.integers(len(RADII))),), None
        pair = tuple(int(k) for k in rng.choice(len(RADII), size=2, replace=False))
        a = float(rng.uniform(0.25, 0.75))
        return pair, (a, 1.0 - a)

    def commands(self, i, out):
        idx, alphas = self._pick(i)
        common = ["--checkpoint", self.checkpoint, "--resolution", str(RESOLUTION),
                  "--workers", "1", "--out", os.path.join(out, "mesh.obj")]
        if alphas is None:
            return [("reconstruct", ["reconstruct", "--shape-index", str(idx[0])] + common)]
        return [("interpolate", ["interpolate", "--indices", f"{idx[0]},{idx[1]}",
                                 "--alphas", f"{alphas[0]!r},{alphas[1]!r}"] + common)]

    def check(self, i, out):
        problems = []
        mesh = load_mesh(os.path.join(out, "mesh.obj"))
        if len(mesh.faces) == 0:
            return ["empty mesh"]
        closed, euler = closed_surface(mesh)
        if not closed:
            problems.append("an edge is not shared by exactly two faces")
        if euler != 2:
            problems.append(f"V - E + F = {euler}, not 2")
        idx, alphas = self._pick(i)
        ck = load_checkpoint(self.checkpoint)
        z = ck.codes[idx[0]] if alphas is None else combine_codes(
            ck.codes, CombinationWeights(idx, np.array(alphas)))
        off = off_zero_set(ck, z, mesh, RESOLUTION)
        if off > ZERO_SET_TOL:
            problems.append(f"a vertex lies {off:.3f} cells off the zero set")
        r = float(np.linalg.norm(mesh.vertices, axis=1).mean())
        ends = [RADII[k] for k in idx]
        if not min(ends) - RADIUS_TOL <= r <= max(ends) + RADIUS_TOL:
            problems.append(f"mean radius {r:.4f} outside {ends} +- {RADIUS_TOL}")
        return problems

    def summary(self, times):
        return {"reconstruct_s": _median(times["reconstruct"] + times["interpolate"])}


class CohortWorkload(Workload):
    name = "cohort"
    pairs = COHORT_SIZE * (COHORT_SIZE - 1) // 2

    def commands(self, i, out):
        seed = str(self.seed * 1000 + i)
        mesh_dir = os.path.join(out, "cohort")
        return [
            ("generate", ["generate", "--checkpoint", self.checkpoint,
                          "--num", str(COHORT_SIZE), "--interp-count", str(COHORT_INTERP),
                          "--resolution", str(COHORT_RESOLUTION), "--seed", seed,
                          "--out-dir", mesh_dir]),
            ("pairwise", ["evaluate", "pairwise", "--mesh-dir", mesh_dir,
                          "--eval-points", str(EVAL_POINTS), "--seed", seed,
                          "--out", os.path.join(out, "pairwise.csv")]),
        ]

    def check(self, i, out):
        problems = []
        mesh_dir = os.path.join(out, "cohort")
        manifest = CohortManifest.from_csv(os.path.join(mesh_dir, "manifest.csv"))
        if len(manifest.entries) != COHORT_SIZE:
            problems.append(f"manifest has {len(manifest.entries)} entries")
        ck = load_checkpoint(self.checkpoint)
        for k, e in enumerate(manifest.entries):
            w = e.weights
            if (e.shape_id != k or len(set(w.indices)) != COHORT_INTERP
                    or (w.alphas < 0).any() or abs(w.alphas.sum() - 1.0) > 1e-9):
                problems.append(f"manifest row {k}: not shape {k} with convex weights")
                continue
            mesh = load_mesh(os.path.join(mesh_dir, f"shape_{k:03d}.obj"))
            if len(mesh.faces) == 0:
                problems.append(f"shape {k} is empty")
            elif off_zero_set(ck, combine_codes(ck.codes, w), mesh,
                              COHORT_RESOLUTION) > ZERO_SET_TOL:
                problems.append(f"shape {k} is not the zero set of its blend")
        report = DistanceReport.from_csv(os.path.join(out, "pairwise.csv"))
        if len(report.values) != self.pairs:
            problems.append(f"{len(report.values)} pairwise rows, not {self.pairs}")
        if not (np.isfinite(report.values).all() and (report.values >= 0).all()):
            problems.append("pairwise distance not finite and non-negative")
        return problems

    def summary(self, times):
        return {"generate_shapes_per_s": COHORT_SIZE / _median(times["generate"]),
                "pairwise_pairs_per_s": self.pairs / _median(times["pairwise"])}


WORKLOADS = {w.name: w for w in (TrainWorkload, ReconstructWorkload, CohortWorkload)}


def _median(values):
    return float(np.median(values)) if values else math.nan


def run_cli(argv):
    """sdfshapes.cli.main in-process, its progress lines kept off stdout,
    which carries only the benchmark's own report."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)
