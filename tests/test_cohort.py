"""Convex code combination, cohort generation, and Chamfer reporting."""

import os
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from sdfshapes import blas, cohort, isosurface
from sdfshapes.cohort import (CohortManifest, CombinationWeights,
                              DistanceReport, chamfer_distance, combine_codes,
                              generate_cohort, pairwise_report,
                              reconstruction_report)
from sdfshapes.errors import (DuplicateIndex, EmptySet, IndexOutOfRange,
                              InterpCountTooLarge, NotConvex, ShapeMismatch,
                              TooFewMeshes)
from sdfshapes.isosurface import reconstruct_shape
from sdfshapes.mesh import SurfaceSampleSet, TriangleMesh, sample_surface
from sdfshapes.primitives import uv_sphere_mesh

from conftest import tiny_checkpoint


def _same_meshes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in ((a.vertices, b.vertices), (a.faces, b.faces)):
            assert x.shape == y.shape and x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()


# ------------------------------------------------------------ combine_codes

def _codebook(n=6, d=4, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def test_combine_one_hot_copies_row():
    cb = _codebook()
    z = combine_codes(cb, CombinationWeights((3,), np.array([1.0])))
    assert np.array_equal(z, cb[3])


def test_combine_midpoint():
    cb = _codebook()
    z = combine_codes(cb, CombinationWeights((0, 2), np.array([0.5, 0.5])))
    assert np.allclose(z, 0.5 * cb[0] + 0.5 * cb[2], rtol=0, atol=1e-15)


def test_combine_rejects_non_convex():
    cb = _codebook()
    for alphas in ([0.5, 0.6], [-0.1, 1.1], [np.nan, np.nan], [1.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(NotConvex, match=r"^weights \["):
            combine_codes(cb, CombinationWeights((0, 1), np.array(alphas)))


def test_combine_rejects_bad_indices():
    cb = _codebook()
    with pytest.raises(DuplicateIndex):
        combine_codes(cb, CombinationWeights((1, 1), np.array([0.5, 0.5])))
    with pytest.raises(IndexOutOfRange):
        combine_codes(cb, CombinationWeights((0, 6), np.array([0.5, 0.5])))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_combine_permutation_invariance_and_norm_bound(seed, m):
    rng = np.random.default_rng(seed)
    cb = rng.normal(size=(8, 5))
    idx = rng.choice(8, size=m, replace=False)
    draws = rng.standard_exponential(m)
    alphas = draws / draws.sum()
    z = combine_codes(cb, CombinationWeights(tuple(idx), alphas))
    perm = rng.permutation(m)
    z2 = combine_codes(cb, CombinationWeights(tuple(idx[perm]), alphas[perm]))
    assert np.array_equal(z, z2)
    assert np.linalg.norm(z) <= max(np.linalg.norm(cb[i]) for i in idx) + 1e-9


# ---------------------------------------------------------- generate_cohort

def test_generate_m1_reproduces_reconstructions():
    ck = tiny_checkpoint(n_codes=4)
    meshes, manifest = generate_cohort(ck, count=4, interp_count=1, seed=5,
                                       resolution=16)
    assert len(meshes) == 4
    for mesh, entry in zip(meshes, manifest.entries):
        (idx,) = entry.weights.indices
        assert entry.weights.alphas[0] == 1.0
        ref = reconstruct_shape(ck, ck.codes[idx], 16)
        assert np.array_equal(mesh.vertices, ref.vertices)
        assert np.array_equal(mesh.faces, ref.faces)


def test_generate_cohort_contract_counts():
    ck = tiny_checkpoint(n_codes=97)
    meshes, manifest = generate_cohort(ck, count=100, interp_count=2, seed=0,
                                       resolution=12)
    assert len(manifest.entries) == 100
    for e in manifest.entries:
        assert len(set(e.weights.indices)) == 2
        assert abs(e.weights.alphas.sum() - 1.0) < 1e-12
        assert (e.weights.alphas >= 0).all()


def test_generate_cohort_deterministic():
    ck = tiny_checkpoint(n_codes=5)
    _, a = generate_cohort(ck, 6, 3, seed=11, resolution=12)
    _, b = generate_cohort(ck, 6, 3, seed=11, resolution=12)
    for ea, eb in zip(a.entries, b.entries):
        assert ea.weights.indices == eb.weights.indices
        assert np.array_equal(ea.weights.alphas, eb.weights.alphas)


def test_generate_cohort_writes_meshes(tmp_path):
    ck = tiny_checkpoint(n_codes=3)
    meshes, manifest = generate_cohort(ck, 3, 2, seed=1, resolution=14,
                                       out_dir=tmp_path)
    for i, e in enumerate(manifest.entries):
        assert e.mesh_path.endswith(f"shape_{i:03d}.obj")
        assert (tmp_path / f"shape_{i:03d}.obj").exists()


def test_generate_cohort_errors():
    ck = tiny_checkpoint(n_codes=3)
    with pytest.raises(InterpCountTooLarge):
        generate_cohort(ck, 1, 4, seed=0, resolution=12)


def test_manifest_csv_roundtrip(tmp_path):
    ck = tiny_checkpoint(n_codes=5)
    _, manifest = generate_cohort(ck, 4, 2, seed=7, resolution=12,
                                  out_dir=tmp_path)
    p = tmp_path / "manifest.csv"
    manifest.to_csv(p)
    back = CohortManifest.from_csv(p)
    assert len(back.entries) == 4
    for ea, eb in zip(manifest.entries, back.entries):
        assert ea.shape_id == eb.shape_id
        assert ea.weights.indices == eb.weights.indices
        assert np.array_equal(ea.weights.alphas, eb.weights.alphas)
        assert ea.mesh_path == eb.mesh_path


# ------------------------------------------------- generate_cohort's pool

def _manifest_rows(manifest):
    return [(e.shape_id, e.seed, e.weights.indices, e.weights.alphas.tobytes(),
             os.path.basename(e.mesh_path)) for e in manifest.entries]


def test_generate_cohort_same_bits_at_any_worker_count(tmp_path, pool_workers):
    ck = tiny_checkpoint(n_codes=5)
    threads = threading.active_count()
    runs = []
    for workers in (1, 3):  # 3: more threads than this host may have cores
        pool_workers(workers)
        out = tmp_path / f"w{workers}"
        out.mkdir()
        meshes, manifest = generate_cohort(ck, 7, 3, seed=2, resolution=20, out_dir=out)
        assert meshes is None
        assert threading.active_count() == threads  # the pool is gone
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        runs.append((generate_cohort(ck, 7, 3, seed=2, resolution=20)[0],
                     _manifest_rows(manifest), files))
    (serial, rows, files), (pooled, pooled_rows, pooled_files) = runs
    _same_meshes(pooled, serial)
    assert pooled_rows == rows
    assert sorted(files) == [f"shape_{i:03d}.obj" for i in range(7)]
    assert pooled_files == files


def test_generate_cohort_keeps_no_mesh_past_its_write(tmp_path, monkeypatch, pool_workers):
    # holding every written mesh until the end made a 1000-shape cohort at
    # R = 256 hold gigabytes that nothing read
    ck = tiny_checkpoint(n_codes=5)
    pool_workers(1)
    saved, alive = [], []
    save_mesh = cohort.save_mesh

    def spy(mesh, path):
        alive.append([k for k, ref in enumerate(saved) if ref() is not None])
        saved.append(weakref.ref(mesh))
        save_mesh(mesh, path)

    monkeypatch.setattr(cohort, "save_mesh", spy)
    meshes, _ = generate_cohort(ck, 4, 2, seed=6, resolution=16, out_dir=tmp_path)
    assert alive == [[], [], [], []]
    assert meshes is None


def test_generate_cohort_caps_concurrent_lattices(monkeypatch, pool_workers):
    ck = tiny_checkpoint(n_codes=5)
    pool_workers(3)
    want, _ = generate_cohort(ck, 5, 2, seed=4, resolution=20)
    lattice = isosurface.extraction_bytes(20)
    seen = []
    pool_map = cohort.pool_map

    def spy(fn, items, workers):
        seen.append(workers)
        return pool_map(fn, items, workers)

    monkeypatch.setattr(cohort, "pool_map", spy)
    # physical memory for exactly one lattice, just short of two, two, five
    for phys, workers in ((lattice, 1), (2 * lattice - 1, 1), (2 * lattice, 2),
                          (5 * lattice, 3)):
        monkeypatch.setattr(blas, "physical_memory", lambda: phys)
        got, _ = generate_cohort(ck, 5, 2, seed=4, resolution=20)
        assert seen[-1] == workers
        _same_meshes(got, want)


def test_generate_cohort_raises_for_the_lowest_failing_shape(monkeypatch, pool_workers):
    ck = tiny_checkpoint(n_codes=5)
    _, manifest = generate_cohort(ck, 6, 2, seed=3, resolution=12)
    codes = [combine_codes(ck.codes, e.weights) for e in manifest.entries]
    real = cohort.reconstruct_shape

    def empty_at_2_and_4(checkpoint, z, resolution):
        if np.array_equal(z, codes[2]):
            time.sleep(0.1)  # with a pool, shape 4 fails first
            raise EmptySet("the zero set misses shape two")
        if np.array_equal(z, codes[4]):
            raise EmptySet("the zero set misses shape four")
        return real(checkpoint, z, resolution)

    monkeypatch.setattr(cohort, "reconstruct_shape", empty_at_2_and_4)
    for workers in (1, 3):
        pool_workers(workers)
        with pytest.raises(EmptySet, match="^cohort shape 2: the zero set misses shape two$"):
            generate_cohort(ck, 6, 2, seed=3, resolution=12)


# --------------------------------------------------------- chamfer_distance

def test_chamfer_identical_sets_zero():
    a = np.random.default_rng(0).normal(size=(50, 3))
    assert chamfer_distance(a, a) == 0.0


def test_chamfer_single_points():
    assert chamfer_distance(np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]])) == 2.0


def test_chamfer_empty_set():
    with pytest.raises(EmptySet):
        chamfer_distance(np.zeros((0, 3)), np.zeros((1, 3)))


def _brute_chamfer(a, b):
    d = np.linalg.norm(a[:, None] - b[None], axis=2) ** 2
    return float(d.min(axis=1).mean() + d.min(axis=0).mean())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 500), st.integers(1, 500))
def test_chamfer_matches_brute_force_and_symmetry(seed, na, nb):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(na, 3))
    b = rng.normal(size=(nb, 3))
    got = chamfer_distance(a, b)
    assert got == chamfer_distance(b, a)
    assert abs(got - _brute_chamfer(a, b)) < 1e-12
    assert got >= 0


def _default_leaf_chamfer(a, b):
    """chamfer_distance through KD-trees at scipy's default leaf size,
    queried in row order: the reference for its bits."""
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    return float(np.mean(d_ab ** 2) + np.mean(d_ba ** 2))


@st.composite
def _clouds(draw):
    """A point cloud whose rows repeat when it draws more rows than its base
    holds, and whose coordinates are rounded to tie distances."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    base = np.round(rng.normal(size=(draw(st.integers(1, 300)), 3)),
                    draw(st.sampled_from([0, 1, 2, 17])))
    return base[rng.integers(0, len(base), draw(st.integers(1, 600)))]


@settings(max_examples=60, deadline=None)
@given(_clouds(), _clouds())
def test_chamfer_same_bits_as_default_leaf_row_order(a, b):
    got = chamfer_distance(a, b)
    assert np.float64(got).tobytes() == np.float64(_default_leaf_chamfer(a, b)).tobytes()


# a triangle one ulp across: its samples take at most 4 distinct positions
_ULP_TRIANGLE = TriangleMesh(np.array([[1.0, 1.0, 1.0], [np.nextafter(1.0, 2.0), 1.0, 1.0],
                                       [1.0, np.nextafter(1.0, 2.0), 1.0]]),
                             np.array([[0, 1, 2]]))


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(0.2, 1.0), min_size=1, max_size=3), st.booleans(),
       st.integers(2, 700), st.integers(0, 2**31 - 1))
def test_pairwise_same_bits_as_default_leaf_row_order(radii, with_ulp_triangle,
                                                      eval_points, seed):
    meshes = [uv_sphere_mesh(r, 6, 8) for r in radii]
    meshes += [_ULP_TRIANGLE] if with_ulp_triangle else [uv_sphere_mesh(0.5, 5, 7)]
    clouds = [sample_surface(m, eval_points, (seed, i)).points[0]
              for i, m in enumerate(meshes)]
    report = pairwise_report(meshes, eval_points, seed)
    want = [_default_leaf_chamfer(clouds[i], clouds[j])
            for i in range(len(meshes)) for j in range(i + 1, len(meshes))]
    assert report.values.tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------- DistanceReport

def test_report_summary_recomputable():
    vals = np.random.default_rng(1).uniform(0, 1e-3, 40)
    r = DistanceReport([str(i) for i in range(40)], vals)
    s = r.summary()
    assert s["count"] == 40
    assert abs(s["mean"] - vals.mean()) < 1e-12
    assert abs(s["std"] - vals.std()) < 1e-12
    assert s["min"] == vals.min() and s["max"] == vals.max()
    edges, counts = r.histogram()
    assert len(edges) == 21 and counts.sum() == 40


def test_report_csv_roundtrip_bitwise(tmp_path):
    vals = np.random.default_rng(2).uniform(0, 1e-3, 10)
    r = DistanceReport([f"p{i}" for i in range(10)], vals)
    p = tmp_path / "report.csv"
    r.to_csv(p)
    back = DistanceReport.from_csv(p)
    assert back.labels == r.labels
    assert np.array_equal(back.values, r.values)
    # sidecar summary exists
    assert (tmp_path / "report.summary.csv").exists()


# ---------------------------------------------------- reconstruction_report

def test_reconstruction_report_length_and_roundtrip(tmp_path):
    ck = tiny_checkpoint(n_codes=3)
    sets = SurfaceSampleSet()
    for k in range(3):
        m = reconstruct_shape(ck, ck.codes[k], 24)
        s = sample_surface(m, 800, seed=(9, k))
        sets.points.append(s.points[0])
        sets.normals.append(s.normals[0])
    report = reconstruction_report(ck, sets, resolution=24, eval_points=800, seed=0)
    assert len(report.values) == 3
    # samples drawn from the reconstructions themselves: distances tiny
    assert report.values.max() < 1e-2
    p = tmp_path / "recon.csv"
    report.to_csv(p)
    assert np.array_equal(DistanceReport.from_csv(p).values, report.values)


def test_reconstruction_report_same_bits_at_any_worker_count(pool_workers):
    ck = tiny_checkpoint(n_codes=4)
    sets = SurfaceSampleSet()
    for k in range(4):
        s = sample_surface(uv_sphere_mesh(0.4 + 0.05 * k, 8, 12), 900, seed=(5, k))
        sets.points.append(s.points[0])
        sets.normals.append(s.normals[0])
    reports = []
    for workers in (1, 3):
        pool_workers(workers)
        reports.append(reconstruction_report(ck, sets, resolution=20, eval_points=600,
                                             seed=1))
    assert reports[1].labels == reports[0].labels == ["0", "1", "2", "3"]
    assert reports[1].values.tobytes() == reports[0].values.tobytes()


def test_reconstruction_report_shape_mismatch():
    ck = tiny_checkpoint(n_codes=3)
    sets = SurfaceSampleSet(points=[np.zeros((4, 3))], normals=[np.tile((1.0, 0, 0), (4, 1))])
    with pytest.raises(ShapeMismatch):
        reconstruction_report(ck, sets, resolution=12)


# ---------------------------------------------------------- pairwise_report

def test_pairwise_pair_counts():
    meshes = [uv_sphere_mesh(0.3 + 0.1 * i, 6, 8) for i in range(4)]
    r2 = pairwise_report(meshes[:2], eval_points=300, seed=0)
    assert len(r2.values) == 1
    r4 = pairwise_report(meshes, eval_points=300, seed=0)
    assert len(r4.values) == 6
    assert r4.labels == ["0-1", "0-2", "0-3", "1-2", "1-3", "2-3"]


def test_pairwise_one_tree_per_cloud_same_bits(monkeypatch, pool_workers):
    meshes = [uv_sphere_mesh(0.3 + 0.1 * i, 6, 8) for i in range(5)]
    clouds = [sample_surface(m, 300, (7, i)).points[0] for i, m in enumerate(meshes)]
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    want = np.array([chamfer_distance(clouds[i], clouds[j]) for i, j in pairs])
    for workers in (1, 3):
        builds = []

        def counting_tree(points, **options):
            builds.append(len(points))
            return cKDTree(points, **options)

        monkeypatch.setattr(cohort, "cKDTree", counting_tree)
        pool_workers(workers)
        report = pairwise_report(meshes, eval_points=300, seed=7)
        assert builds == [300] * 5
        assert report.labels == [f"{i}-{j}" for i, j in pairs]
        assert report.values.tobytes() == want.tobytes()


def test_pairwise_too_few():
    with pytest.raises(TooFewMeshes):
        pairwise_report([uv_sphere_mesh(0.5, 6, 8)], eval_points=100, seed=0)


def test_pairwise_duplicate_below_resampling_noise():
    mesh = uv_sphere_mesh(0.5, 12, 20)
    n_pts = 2000
    # resampling-noise bound: 99th percentile of the distance between two
    # independent samplings of the same mesh
    draws = []
    for t in range(100):
        a = sample_surface(mesh, n_pts, seed=(100, t, 0)).points[0]
        b = sample_surface(mesh, n_pts, seed=(100, t, 1)).points[0]
        draws.append(chamfer_distance(a, b))
    bound = np.percentile(draws, 99)
    report = pairwise_report([mesh, mesh, uv_sphere_mesh(0.8, 12, 20)],
                             eval_points=n_pts, seed=4)
    self_pair = report.values[report.labels.index("0-1")]
    assert self_pair <= bound
