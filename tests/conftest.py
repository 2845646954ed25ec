"""Shared fixtures and small helpers for the test suite."""

import sys

import numpy as np
import pytest

from sdfshapes import cohort
from sdfshapes.errors import EmptySet
from sdfshapes.field import Architecture, FieldParams, init_params
from sdfshapes.isosurface import eval_grid, marching_cubes, reconstruct_shape
from sdfshapes.training import Checkpoint, TrainConfig


def tiny_arch(latent_dim=4, width=8, layers=3, skip=1):
    return Architecture(layer_count=layers, hidden_width=width,
                        latent_dim=latent_dim, skip_layer=skip,
                        softplus_beta=100.0)


def random_params(arch, seed):
    """Small random parameters so softplus stays in its curved regime."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for din, dout in arch.layer_dims():
        weights.append(rng.normal(0.0, 0.4 / np.sqrt(din), size=(dout, din)))
        biases.append(rng.normal(0.0, 0.05, size=dout))
    return FieldParams(arch, weights, biases).validate()


def linear_field(w, b=0.0, latent_dim=1):
    """Single-layer degenerate network computing f(z, x) = w . x + b."""
    arch = Architecture(layer_count=1, hidden_width=1,
                        latent_dim=latent_dim, skip_layer=1)
    W = np.zeros((1, latent_dim + 3))
    W[0, latent_dim:] = np.asarray(w, dtype=np.float64)
    return FieldParams(arch, [W], [np.array([float(b)])]).validate()


def tiny_checkpoint(n_codes=5, seed=3, latent_dim=4, width=32, epochs=0):
    """Untrained checkpoint whose geometric init is close to a radius-0.5
    sphere field, so reconstructions are nonempty without any training."""
    arch = Architecture(layer_count=3, hidden_width=width,
                        latent_dim=latent_dim, skip_layer=1)
    params = init_params(arch, seed)
    codes = np.random.default_rng(seed).normal(0.0, 1e-2, (n_codes, latent_dim))
    cfg = TrainConfig(epochs=max(epochs, 0) or 1, latent_dim=latent_dim,
                      surface_batch_size=32, seed=seed)
    return Checkpoint(arch=arch, params=params, codes=codes, config=cfg,
                      epochs_completed=0, seed=seed).validate()


def perturbed_checkpoint(seed, n_codes=3, latent_dim=4, width=32, layers=4):
    """init_params with every weight perturbed by a seeded normal draw, and
    codes of scale 0.3: smooth random fields far from a sphere, with a zero
    set inside the lattice for 23 of the 24 codes of seeds 0-7."""
    arch = Architecture(layer_count=layers, hidden_width=width,
                        latent_dim=latent_dim, skip_layer=layers // 2)
    params = init_params(arch, seed)
    rng = np.random.default_rng([seed, 1])
    for W in params.weights:
        W += rng.normal(0.0, 0.3 / np.sqrt(W.shape[1]), W.shape)
    codes = rng.normal(0.0, 0.3, (n_codes, latent_dim))
    cfg = TrainConfig(epochs=1, latent_dim=latent_dim, surface_batch_size=32, seed=seed)
    return Checkpoint(arch=arch, params=params, codes=codes, config=cfg,
                      epochs_completed=0, seed=seed).validate()


def assert_band_equals_dense(checkpoint, z, resolution, workers=(1, 3)):
    """reconstruct_shape's narrow-band mesh, at each worker count, has the
    bytes of marching cubes on the dense grid (EmptySet where that is
    empty)."""
    ref = marching_cubes(eval_grid(checkpoint.params, z, resolution))
    for count in workers:
        if not len(ref.faces):
            with pytest.raises(EmptySet):
                reconstruct_shape(checkpoint, z, resolution, workers=count)
            continue
        mesh = reconstruct_shape(checkpoint, z, resolution, workers=count)
        for got, want in ((mesh.vertices, ref.vertices), (mesh.faces, ref.faces)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.fixture
def pool_workers(monkeypatch):
    """A function that sets how many threads the cohort commands' pools get
    (the count usable_cores reports to sdfshapes.cohort).  The GIL switch
    interval is shortened meanwhile, so the threads interleave often."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield lambda workers: monkeypatch.setattr(cohort, "usable_cores", lambda: workers)
    finally:
        sys.setswitchinterval(old)


CUBE_OBJ = """\
# unit-radius cube, side 2
v -1 -1 -1
v 1 -1 -1
v 1 1 -1
v -1 1 -1
v -1 -1 1
v 1 -1 1
v 1 1 1
v -1 1 1
f 1 3 2
f 1 4 3
f 5 6 7
f 5 7 8
f 1 2 6
f 1 6 5
f 2 3 7
f 2 7 6
f 3 4 8
f 3 8 7
f 4 1 5
f 4 5 8
"""


@pytest.fixture
def cube_obj_path(tmp_path):
    p = tmp_path / "cube.obj"
    p.write_text(CUBE_OBJ)
    return p
