"""Acceptance suite: oracle equivalence, analytic fixtures, trained-model
behavior, determinism, and throughput.  Each criterion prints a single
PASS/FAIL line so the run can be audited from the log alone.

The trained fixtures are desk-scale analogs of the full pipeline: width-64,
8-dimensional-code networks on analytic sphere families.
"""

import filecmp
import io
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from sdfshapes.cli import main as cli_main
from sdfshapes.cohort import (chamfer_distance, combine_codes,
                              CombinationWeights, generate_cohort,
                              pairwise_report, reconstruction_report)
from sdfshapes.field import (Architecture, forward,
                             loss_gradients, shape_loss, spatial_gradient)
from sdfshapes import isosurface
from sdfshapes.isosurface import ScalarGrid, eval_grid, marching_cubes
from sdfshapes.isosurface import reconstruct_shape
from sdfshapes.primitives import multi_sphere_samples, sphere_samples
from sdfshapes.training import TrainConfig, train

from conftest import (CUBE_OBJ, assert_band_equals_dense, flatten, from_flat, random_params,
                      tiny_arch)

EIGHT_RADII = [0.30 + 0.05 * k for k in range(8)]


@contextmanager
def criterion(label, capfd):
    """Time a criterion body and print one PASS/FAIL line past the capture."""
    t0 = time.time()
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"\nACCEPTANCE {label}: FAIL", file=sys.stderr, flush=True)
        raise
    with capfd.disabled():
        print(f"\nACCEPTANCE {label}: PASS ({time.time() - t0:.1f}s)",
              file=sys.stderr, flush=True)


# ----------------------------------------------------------- trained models

@pytest.fixture(scope="session")
def sphere_model():
    """Single radius-0.75 sphere overfit: width 64, d = 8, 2000 steps."""
    samples = sphere_samples(0.75, 2000, 0)
    arch = Architecture(layer_count=8, hidden_width=64, latent_dim=8,
                        skip_layer=4, softplus_beta=100.0)
    cfg = TrainConfig(epochs=2000, surface_batch_size=128, seed=0)
    metrics = io.StringIO()
    ck = train(cfg, samples, arch=arch, metrics=metrics)
    return ck, metrics.getvalue()


@pytest.fixture(scope="session")
def eight_sphere_model():
    """Eight spheres, radii 0.30..0.65: the multi-shape auto-decoder fixture."""
    samples = multi_sphere_samples(EIGHT_RADII, 5000, 0)
    arch = Architecture(layer_count=8, hidden_width=64, latent_dim=8,
                        skip_layer=4, softplus_beta=100.0)
    cfg = TrainConfig(epochs=2000, surface_batch_size=128, seed=0)
    ck = train(cfg, samples, arch=arch)
    return ck, samples


# ------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_correctness(capfd):
    with criterion("criterion 1 (gradient correctness vs finite differences)", capfd):
        t0 = time.time()
        h = 1e-5
        arch = tiny_arch(latent_dim=4, width=8, layers=3, skip=1)
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            p = random_params(arch, int(rng.integers(2**31)))
            z = rng.normal(size=4) * 0.4
            pts = rng.uniform(-0.9, 0.9, (16, 3))
            nrm = rng.normal(size=(16, 3))
            nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
            off = rng.uniform(-1.1, 1.1, (16, 3))

            # spatial gradient at rtol 1e-6
            x = rng.uniform(-0.9, 0.9, 3)
            ana_g = spatial_gradient(p, z, x[None])[0]
            fd_g = np.zeros(3)
            for a in range(3):
                xp, xm = x.copy(), x.copy()
                xp[a] += h
                xm[a] -= h
                fd_g[a] = (forward(p, z, xp[None])[0]
                           - forward(p, z, xm[None])[0]) / (2 * h)
            assert np.allclose(ana_g, fd_g, rtol=1e-6, atol=1e-8)

            # full loss gradient at rtol 1e-4
            wg, bg, zg, _ = loss_gradients(p, z, pts, nrm, off, 0.5, 1e-4)
            ana = np.concatenate(
                [a.ravel() for pair in zip(wg, bg) for a in pair])
            flat = flatten(p)

            def loss_at(fl):
                return shape_loss(from_flat(arch, fl), z, pts,
                                  nrm, off, 0.5, 1e-4).total

            coords = rng.choice(flat.size, size=10, replace=False)
            for i in coords:
                fp, fm = flat.copy(), flat.copy()
                fp[i] += h
                fm[i] -= h
                fd = (loss_at(fp) - loss_at(fm)) / (2 * h)
                assert np.isclose(ana[i], fd, rtol=1e-4, atol=1e-8)
            for i in range(4):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                fd = (shape_loss(p, zp, pts, nrm, off, 0.5, 1e-4).total
                      - shape_loss(p, zm, pts, nrm, off, 0.5, 1e-4).total) / (2 * h)
                assert np.isclose(zg[i], fd, rtol=1e-4, atol=1e-8)
        assert time.time() - t0 < 60


# ------------------------------------------------------------- criterion 2

def test_criterion_2_marching_cubes_oracle(capfd):
    with criterion("criterion 2 (marching-cubes analytic oracle)", capfd):
        t0 = time.time()
        R = 64
        c = np.linspace(-1.0, 1.0, R)
        x, y, zc = np.meshgrid(c, c, c, indexing="ij")
        vals = np.sqrt(x * x + y * y + zc * zc) - 0.6
        grid = ScalarGrid(R, np.full(3, -1.0), np.full(3, 1.0), vals)
        mesh = marching_cubes(grid).validate()

        V = len(mesh.vertices)
        F = len(mesh.faces)
        edges = np.sort(np.concatenate([mesh.faces[:, [0, 1]],
                                        mesh.faces[:, [1, 2]],
                                        mesh.faces[:, [0, 2]]]), axis=1)
        E = len(np.unique(edges, axis=0))
        assert V - E + F == 2  # closed genus-0 surface

        cell_diag = float(np.linalg.norm(grid.spacing))
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(radii - 0.6).max() <= 2 * cell_diag

        single = np.ones((2, 2, 2))
        single[0, 0, 0] = -1.0
        m1 = marching_cubes(ScalarGrid(2, np.zeros(3), np.ones(3), single))
        assert len(m1.faces) == 1
        assert {tuple(v) for v in m1.vertices} == \
            {(0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)}
        assert time.time() - t0 < 30


# ------------------------------------------------------------- criterion 3

def test_criterion_3_chamfer_oracle(capfd):
    with criterion("criterion 3 (Chamfer distance vs brute force)", capfd):
        t0 = time.time()
        for trial in range(50):
            rng = np.random.default_rng(2000 + trial)
            a = rng.normal(size=(int(rng.integers(1, 501)), 3))
            b = rng.normal(size=(int(rng.integers(1, 501)), 3))
            got = chamfer_distance(a, b)
            assert got == chamfer_distance(b, a)
            d2 = np.linalg.norm(a[:, None] - b[None], axis=2) ** 2
            brute = d2.min(axis=1).mean() + d2.min(axis=0).mean()
            assert abs(got - brute) < 1e-12
        assert time.time() - t0 < 30


# ------------------------------------------------------------- criterion 4

def test_criterion_4_single_shape_overfit(sphere_model, capfd):
    ck, metrics_text = sphere_model
    with criterion("criterion 4 (single-sphere overfit end to end)", capfd):
        z = ck.codes[0]
        held_out = sphere_samples(0.75, 1000, 123).points[0]
        mean_abs_f = float(np.abs(forward(ck.params, z, held_out)).mean())
        assert mean_abs_f < 0.01

        rng = np.random.default_rng(7)
        v = rng.normal(size=(10000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        pts = v * rng.random(10000)[:, None] ** (1 / 3)  # uniform in unit ball
        g = spatial_gradient(ck.params, z, pts)
        assert float(np.abs(np.linalg.norm(g, axis=1) - 1.0).mean()) < 0.1

        mesh = reconstruct_shape(ck, z, 64)
        mean_radius = float(np.linalg.norm(mesh.vertices, axis=1).mean())
        assert abs(mean_radius - 0.75) <= 0.02


def test_sphere_training_halves_loss(sphere_model):
    # the mean loss of the final epoch is well under half the first epoch's
    _, metrics_text = sphere_model
    rows = [ln.split(",") for ln in metrics_text.strip().splitlines()[1:]]
    first, last = float(rows[0][1]), float(rows[-1][1])
    assert last < 0.5 * first


# ------------------------------------------------------------- criterion 5

def test_criterion_5_multi_shape_auto_decoder(eight_sphere_model, capfd):
    ck, samples = eight_sphere_model
    with criterion("criterion 5 (8-sphere reconstruction + interpolation)", capfd):
        report = reconstruction_report(ck, samples, resolution=64,
                                       eval_points=5000, seed=0)
        assert len(report.values) == 8
        assert report.values.max() < 1e-3

        z = combine_codes(ck.codes,
                          CombinationWeights((0, 7), np.array([0.5, 0.5])))
        mesh = reconstruct_shape(ck, z, 64)
        mean_radius = float(np.linalg.norm(mesh.vertices, axis=1).mean())
        assert 0.32 < mean_radius < 0.63


def _closed_genus_zero(mesh):
    """(every edge is in exactly two faces, V - E + F == 2)."""
    f = mesh.faces
    edges = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    return bool((counts == 2).all()), len(mesh.vertices) - len(counts) + len(f) == 2


def test_fixture_reconstructions_are_closed_spheres(eight_sphere_model):
    ck, _ = eight_sphere_model
    blend = combine_codes(ck.codes, CombinationWeights((0, 7), np.array([0.5, 0.5])))
    for z in (ck.codes[0], ck.codes[7], blend):
        assert _closed_genus_zero(reconstruct_shape(ck, z, 64)) == (True, True)


def test_band_mesh_bitwise_equal_to_dense_on_fixture(eight_sphere_model):
    ck, _ = eight_sphere_model
    blend = combine_codes(ck.codes, CombinationWeights(
        (1, 3, 4, 6), np.array([0.1, 0.2, 0.3, 0.4])))
    for R in (40, 64, 128):
        for z in (ck.codes[0], ck.codes[7], blend):
            assert_band_equals_dense(ck, z, R)


def test_band_evaluates_under_a_quarter_of_the_lattice(eight_sphere_model, monkeypatch):
    ck, _ = eight_sphere_model
    points = []

    def counting_forward(params, z, xs):
        points.append(len(xs))
        return forward(params, z, xs)

    monkeypatch.setattr(isosurface, "forward", counting_forward)
    R = 128
    reconstruct_shape(ck, ck.codes[0], R)
    assert 0 < sum(points) < R ** 3 / 4


def test_band_certifies_node_signs_on_fixture(eight_sphere_model, monkeypatch):
    # at R = 128, codes 0 and 7 and the four-code blend evaluated 97,612,
    # 390,625 and 252,532 nodes when the last level evaluated every corner of
    # its open cells, and 61,660, 237,081 and 154,634 once stride-2 values
    # certify node signs (453,375 in all; 2.1M nodes per lattice)
    ck, _ = eight_sphere_model
    blend = combine_codes(ck.codes, CombinationWeights(
        (1, 3, 4, 6), np.array([0.1, 0.2, 0.3, 0.4])))
    points = []

    def counting_forward(params, z, xs):
        points.append(len(xs))
        return forward(params, z, xs)

    monkeypatch.setattr(isosurface, "forward", counting_forward)
    for z in (ck.codes[0], ck.codes[7], blend):
        reconstruct_shape(ck, z, 128)
    assert 0 < sum(points) < 500_000


def test_band_memory_grows_with_the_surface(eight_sphere_model):
    # the dense extractor peaked at 16 bytes per lattice node at R = 128; the
    # stride-2 coarse levels and the sparse last level stay under half that,
    # and under the guard's extraction_bytes
    ck, _ = eight_sphere_model
    blend = combine_codes(ck.codes, CombinationWeights(
        (1, 3, 4, 6), np.array([0.1, 0.2, 0.3, 0.4])))
    R = 128
    for z in (ck.codes[0], ck.codes[7], blend):
        tracemalloc.start()
        try:
            reconstruct_shape(ck, z, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < min(8 * R ** 3, isosurface.extraction_bytes(R)), peak


# ------------------------------------------------------------- criterion 6

def test_criterion_6_variance_ordering(eight_sphere_model, capfd):
    ck, _ = eight_sphere_model
    with criterion("criterion 6 (more interpolated codes -> lower variance)", capfd):
        wins = 0
        for seed in range(5):
            variances = {}
            for m in (2, 8):
                meshes, _ = generate_cohort(ck, count=50, interp_count=m,
                                            seed=seed, resolution=40)
                rep = pairwise_report(meshes, eval_points=3000, seed=seed)
                variances[m] = float(rep.values.std()) ** 2
            if variances[8] < variances[2]:
                wins += 1
        assert wins >= 4


# ------------------------------------------------------------- criterion 7

def test_criterion_7_determinism(tmp_path, capfd):
    with criterion("criterion 7 (byte-identical seeded runs)", capfd):
        meshes = tmp_path / "meshes"
        meshes.mkdir()
        (meshes / "cube.obj").write_text(CUBE_OBJ)
        from sdfshapes.mesh import save_mesh
        from sdfshapes.primitives import uv_sphere_mesh
        save_mesh(uv_sphere_mesh(1.5, 8, 12), meshes / "ball.obj")

        # sample twice
        s1, s2 = tmp_path / "s1.nsds", tmp_path / "s2.nsds"
        for out in (s1, s2):
            assert cli_main(["sample", "--input-dir", str(meshes),
                             "--out", str(out), "--points", "500",
                             "--seed", "9"]) == 0
        assert filecmp.cmp(s1, s2, shallow=False)

        # train twice
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\nlatent_dim = 4\nsurface_batch_size = 32\n"
                       "knn_k = 5\nlayer_count = 3\nhidden_width = 32\n"
                       "skip_layer = 1\nseed = 3\n")
        c1, c2 = tmp_path / "c1.nsdf", tmp_path / "c2.nsdf"
        for out in (c1, c2):
            assert cli_main(["train", "--samples", str(s1), "--config",
                             str(cfg), "--out", str(out),
                             "--metrics", str(out) + ".csv"]) == 0
        assert filecmp.cmp(c1, c2, shallow=False)

        # generate twice with identical arguments (manifest embeds the
        # output directory, so both runs must target the same one)
        out_dir = tmp_path / "cohort"
        names = ["manifest.csv"] + [f"shape_{i:03d}.obj" for i in range(3)]
        first_bytes = {}
        for attempt in range(2):
            assert cli_main(["generate", "--checkpoint", str(c1), "--num", "3",
                             "--interp-count", "2", "--seed", "4",
                             "--resolution", "16",
                             "--out-dir", str(out_dir)]) == 0
            if attempt == 0:
                first_bytes = {n: (out_dir / n).read_bytes() for n in names}
                for n in names:
                    (out_dir / n).unlink()
        for n in names:
            assert (out_dir / n).read_bytes() == first_bytes[n]


# ------------------------------------------------------------- criterion 8

def test_criterion_8_grid_throughput(eight_sphere_model, capfd):
    ck, _ = eight_sphere_model
    with criterion("criterion 8 (256-cube grid evaluation throughput)", capfd):
        z = ck.codes[0]
        t0 = time.time()
        par = eval_grid(ck.params, z, 256, workers=4)
        elapsed = time.time() - t0
        assert elapsed <= 120.0
        ser = eval_grid(ck.params, z, 256, workers=1)
        assert np.array_equal(par.values, ser.values)
