"""Novel-shape generation by convex code combination and Chamfer reports.

Shapes, and pairs of shapes, are independent of each other, so each command
maps them over a pool of blas.worker_count() threads (numpy's ufuncs, BLAS
and cKDTree's queries release the GIL); the results do not depend on the
thread count.  Meshing passes it extraction_bytes, so at most as many
shapes are meshed at once as fit in physical memory.

Every Chamfer KD-tree holds up to 64 points per leaf, not scipy's default
16: fewer, larger leaves make each nearest-neighbour query visit fewer
nodes for the same exact answer.  Timed on a 2-vCPU host over the meshes of
a 16-shape R = 40 cohort, queries in row order: the 120-pair pool at 3000
points took 393 ms against 437 ms at leaf 16 (449 ms at 128, 622 ms at
256), and 15 pairs at 30000 points 2046 ms against 3159 ms (2023 ms at
128).  Each cloud is also queried in its own tree's leaf order, so that
neighbouring queries descend the same branches (393 -> 366 ms at 3000
points); its distances are scattered back to row order before the mean, so
every report keeps the bits of row-order queries at the default leaf size.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DuplicateIndex,
    EmptySet,
    IndexOutOfRange,
    InterpCountTooLarge,
    InvalidCount,
    NotConvex,
    ShapeMismatch,
    TooFewMeshes,
)
from .blas import pool_map, worker_count
from .container import write_atomic
from .isosurface import extraction_bytes, reconstruct_shape
from .mesh import SurfaceSampleSet, check_sample_count, sample_surface, save_mesh

DEFAULT_EVAL_POINTS = 30000
HISTOGRAM_BINS = 20
_LEAF_SIZE = 64  # points per KD-tree leaf; see the module docstring


@dataclass
class CombinationWeights:
    """Convex weights over distinct codebook rows."""

    indices: tuple
    alphas: np.ndarray

    def __post_init__(self):
        self.indices = tuple(int(i) for i in self.indices)
        self.alphas = np.asarray(self.alphas, dtype=np.float64).ravel()

    def validate(self, code_count: int):
        if len(self.indices) != len(self.alphas):
            raise ShapeMismatch("indices and alphas must align")
        if len(set(self.indices)) != len(self.indices):
            raise DuplicateIndex(f"duplicate index in {self.indices}")
        for i in self.indices:
            if not 0 <= i < code_count:
                raise IndexOutOfRange(f"index {i} outside [0, {code_count})")
        if not (self.alphas >= 0).all():  # NaN fails both checks
            raise NotConvex(f"weights {self.alphas.tolist()} are not all non-negative")
        if not abs(self.alphas.sum() - 1.0) <= 1e-9:
            raise NotConvex(f"weights {self.alphas.tolist()} sum to {self.alphas.sum()!r}, not 1")
        return self


@dataclass
class CohortEntry:
    shape_id: int
    weights: CombinationWeights
    mesh_path: str
    seed: int


@dataclass
class CohortManifest:
    entries: list = dc_field(default_factory=list)

    def to_csv(self, path) -> None:
        with write_atomic(path) as fh:
            w = csv.writer(fh)
            w.writerow(["shape_id", "seed", "indices", "alphas", "mesh_path"])
            for e in self.entries:
                w.writerow([e.shape_id, e.seed,
                            ";".join(str(i) for i in e.weights.indices),
                            ";".join(repr(float(a)) for a in e.weights.alphas),
                            e.mesh_path])

    @classmethod
    def from_csv(cls, path) -> "CohortManifest":
        manifest = cls()
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            shape_id, seed, indices, alphas, mesh_path = row
            manifest.entries.append(CohortEntry(
                shape_id=int(shape_id), seed=int(seed),
                weights=CombinationWeights(
                    tuple(int(t) for t in indices.split(";")),
                    np.array([float(t) for t in alphas.split(";")])),
                mesh_path=mesh_path))
        return manifest


def combine_codes(codebook: np.ndarray, weights: CombinationWeights) -> np.ndarray:
    """Convex combination of codebook rows, summed in canonical index order
    so permuting the (index, alpha) pairs cannot change the result."""
    codebook = np.asarray(codebook, dtype=np.float64)
    weights.validate(len(codebook))
    order = np.argsort(weights.indices)
    z = np.zeros(codebook.shape[1], dtype=np.float64)
    for j in order:
        z += weights.alphas[j] * codebook[weights.indices[j]]
    return z


def _reconstruct(checkpoint, z, resolution, label):
    try:
        return reconstruct_shape(checkpoint, z, resolution)
    except EmptySet as exc:
        raise EmptySet(f"{label}: {exc}") from None


def generate_cohort(checkpoint, count: int, interp_count: int, seed: int,
                    resolution: int, out_dir=None):
    """Generate shapes from random convex combinations of learned codes.

    For each shape, interp_count distinct rows are drawn uniformly and the
    weights come from the flat Dirichlet (normalized unit-exponential draws).
    Returns (meshes, manifest).  With out_dir, each mesh is written to
    out_dir/shape_<i>.obj and dropped, and meshes is None, so a large
    cohort never holds more meshes than the pool is building.
    """
    n = len(checkpoint.codes)
    if interp_count > n:
        raise InterpCountTooLarge(f"cannot interpolate {interp_count} of {n} codes")
    if interp_count < 1 or count < 1:
        raise InvalidCount("count and interp_count must be >= 1")
    rng = np.random.default_rng(seed)
    weights = []
    for _ in range(count):
        idx = rng.choice(n, size=interp_count, replace=False)
        draws = rng.standard_exponential(interp_count)
        weights.append(CombinationWeights(tuple(int(j) for j in idx), draws / draws.sum()))

    def make(i):
        z = combine_codes(checkpoint.codes, weights[i])
        mesh = _reconstruct(checkpoint, z, resolution, f"cohort shape {i}")
        if out_dir is None:
            return mesh, ""
        path = os.path.join(str(out_dir), f"shape_{i:03d}.obj")
        save_mesh(mesh, path)
        return None, path

    made = pool_map(make, range(count), worker_count(extraction_bytes(resolution)))
    manifest = CohortManifest([CohortEntry(i, w, path, seed)
                               for i, (w, (_, path)) in enumerate(zip(weights, made))])
    return ([mesh for mesh, _ in made] if out_dir is None else None), manifest


def chamfer_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric squared-distance Chamfer: mean nearest-neighbor squared
    distance from each set to the other, summed."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 3)
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("chamfer distance needs nonempty point sets")
    return _chamfer(a, cKDTree(a, leafsize=_LEAF_SIZE), b, cKDTree(b, leafsize=_LEAF_SIZE))


def _chamfer(a: np.ndarray, tree_a, b: np.ndarray, tree_b) -> float:
    """chamfer_distance of point sets a and b, given a KD-tree of each."""
    return float(np.mean(_nearest(a, tree_a, tree_b) ** 2)
                 + np.mean(_nearest(b, tree_b, tree_a) ** 2))


def _nearest(points: np.ndarray, own_tree, other_tree) -> np.ndarray:
    """Distance from each of points to its nearest neighbour in other_tree.
    The points are queried in the leaf order of own_tree, their own KD-tree,
    so consecutive queries descend the same branches; each distance lands in
    its point's row, so the result has the bits of a query in row order."""
    order = own_tree.indices
    d = np.empty(len(points))
    d[order] = other_tree.query(points[order])[0]
    return d


@dataclass
class DistanceReport:
    """Labeled Chamfer distances with recomputable summary statistics."""

    labels: list
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()

    def summary(self) -> dict:
        v = self.values
        return {"count": len(v), "mean": float(v.mean()), "std": float(v.std()),
                "min": float(v.min()), "max": float(v.max())}

    def histogram(self):
        v = self.values
        counts, edges = np.histogram(v, bins=HISTOGRAM_BINS, range=(v.min(), v.max()))
        return edges, counts

    def to_csv(self, path) -> None:
        """The report at path and its summary beside it (_summary_path),
        landed together: if either write raises, neither file changes."""
        s = self.summary()
        edges, counts = self.histogram()
        with write_atomic(path) as fh, write_atomic(_summary_path(path)) as sh:
            w = csv.writer(fh)
            w.writerow(["label", "chamfer_sq"])
            for label, val in zip(self.labels, self.values):
                w.writerow([label, repr(float(val))])
            w = csv.writer(sh)
            w.writerow(["count", "mean", "std", "min", "max"])
            w.writerow([s["count"], repr(s["mean"]), repr(s["std"]),
                        repr(s["min"]), repr(s["max"])])
            w.writerow(["bin_lo", "bin_hi", "count"])
            for lo, hi, c in zip(edges[:-1], edges[1:], counts):
                w.writerow([repr(float(lo)), repr(float(hi)), int(c)])

    @classmethod
    def from_csv(cls, path) -> "DistanceReport":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        labels = [r[0] for r in rows[1:]]
        values = np.array([float(r[1]) for r in rows[1:]])
        return cls(labels, values)


def _summary_path(path) -> str:
    base, ext = os.path.splitext(str(path))
    return base + ".summary" + (ext or ".csv")


def reconstruction_report(checkpoint, samples: SurfaceSampleSet,
                          resolution: int, eval_points: int = DEFAULT_EVAL_POINTS,
                          seed: int = 0) -> DistanceReport:
    """Chamfer distance between each training shape's samples and its
    reconstruction from the learned code.  eval_points is checked before
    any shape is meshed."""
    n = len(checkpoint.codes)
    if samples.shape_count != n:
        raise ShapeMismatch(f"{samples.shape_count} sample shapes vs {n} codes")
    check_sample_count(eval_points)

    def distance(k):
        mesh = _reconstruct(checkpoint, checkpoint.codes[k], resolution, f"shape {k}")
        rec = sample_surface(mesh, eval_points, (seed, k, 1)).points[0]
        gt = samples.points[k]
        if len(gt) > eval_points:
            rng = np.random.default_rng([seed, k, 0])
            gt = gt[rng.choice(len(gt), size=eval_points, replace=False)]
        return chamfer_distance(gt, rec)

    values = pool_map(distance, range(n), worker_count(extraction_bytes(resolution)))
    return DistanceReport([str(k) for k in range(n)], np.array(values))


def pairwise_report(meshes, eval_points: int = DEFAULT_EVAL_POINTS,
                    seed: int = 0) -> DistanceReport:
    """Chamfer distance for every unordered mesh pair; each mesh is sampled
    once, and its point set and KD-tree are reused across all of its pairs."""
    if len(meshes) < 2:
        raise TooFewMeshes("pairwise report needs at least 2 meshes")
    clouds = [sample_surface(m, eval_points, (seed, i)).points[0]
              for i, m in enumerate(meshes)]
    trees = [cKDTree(c, leafsize=_LEAF_SIZE) for c in clouds]
    pairs = [(i, j) for i in range(len(meshes)) for j in range(i + 1, len(meshes))]

    def pair(ij):
        i, j = ij
        return _chamfer(clouds[i], trees[i], clouds[j], trees[j])

    values = pool_map(pair, pairs, worker_count())
    return DistanceReport([f"{i}-{j}" for i, j in pairs], np.array(values))
