"""Shared fixtures and small helpers for the test suite."""

import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from sdfshapes import blas
from sdfshapes.errors import EmptySet
from sdfshapes.field import Architecture, FieldParams, init_params
from sdfshapes.isosurface import (DEFAULT_HALFWIDTH, eval_grid, marching_cubes,
                                  reconstruct_shape)
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


def flatten(params):
    """Every weight and bias of params in one vector, layer by layer: the
    coordinates the finite-difference oracles perturb."""
    return np.concatenate([a.ravel() for pair in zip(params.weights, params.biases)
                           for a in pair])


def from_flat(arch, flat):
    """The FieldParams of arch whose flatten() is flat."""
    weights, biases, off = [], [], 0
    for din, dout in arch.layer_dims():
        weights.append(flat[off:off + dout * din].reshape(dout, din).copy())
        off += dout * din
        biases.append(flat[off:off + dout].copy())
        off += dout
    assert off == flat.size, "flat vector length mismatch"
    return FieldParams(arch, weights, biases)


def linear_field(w, b=0.0, latent_dim=1):
    """Single-layer degenerate network computing f(z, x) = w . x + b."""
    arch = Architecture(layer_count=1, hidden_width=1,
                        latent_dim=latent_dim, skip_layer=1)
    W = np.zeros((1, latent_dim + 3))
    W[0, latent_dim:] = np.asarray(w, dtype=np.float64)
    return FieldParams(arch, [W], [np.array([float(b)])]).validate()


def tiny_checkpoint(n_codes=5, seed=3, latent_dim=4, width=32):
    """Untrained checkpoint whose geometric init is close to a radius-0.5
    sphere field, so reconstructions are nonempty without any training."""
    arch = Architecture(layer_count=3, hidden_width=width,
                        latent_dim=latent_dim, skip_layer=1)
    params = init_params(arch, seed)
    codes = np.random.default_rng(seed).normal(0.0, 1e-2, (n_codes, latent_dim))
    cfg = TrainConfig(epochs=0, surface_batch_size=32, seed=seed)
    return Checkpoint(params, codes, cfg).validate()


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
    cfg = TrainConfig(epochs=0, surface_batch_size=32, seed=seed)
    return Checkpoint(params, codes, cfg).validate()


def assert_band_equals_dense(checkpoint, z, resolution, workers=(1, 3)):
    """reconstruct_shape's narrow-band mesh, at each worker count, has the
    bytes of marching cubes on the dense grid (EmptySet where that is
    empty).  Returns the dense mesh."""
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
    return ref


def assert_closed_off_the_lattice_boundary(mesh, resolution):
    """Every edge of a mesh extracted on the [-DEFAULT_HALFWIDTH,
    DEFAULT_HALFWIDTH]^3 lattice of this resolution is shared by exactly two
    faces, unless both its ends lie on one boundary face of the lattice."""
    f = mesh.faces
    edges = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    edges, counts = np.unique(edges, axis=0, return_counts=True)
    # lattice coordinates: a boundary face has 0 or R - 1 in one axis
    u = (mesh.vertices + DEFAULT_HALFWIDTH) * ((resolution - 1) / (2 * DEFAULT_HALFWIDTH))
    sides = np.stack([np.abs(u) < 1e-6, np.abs(u - (resolution - 1)) < 1e-6], axis=1)
    on_boundary = (sides[edges[:, 0]] & sides[edges[:, 1]]).any(axis=(1, 2))
    cracks = edges[~on_boundary & (counts != 2)]
    assert not len(cracks), f"edges in {counts[~on_boundary & (counts != 2)]} faces: {cracks[:5]}"


@pytest.fixture
def pool_workers(monkeypatch):
    """A function that sets how many threads the cohort commands' pools get
    (the core count blas.usable_cores reports to blas.worker_count).  The GIL
    switch interval is shortened meanwhile, so the threads interleave often."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield lambda workers: monkeypatch.setattr(blas, "usable_cores", lambda: workers)
    finally:
        sys.setswitchinterval(old)


# the line ends, then what str.splitlines also ends a line at, as UTF-8
STR_LINE_ENDS = [b"\n", b"\r\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
                 "\x85".encode(), "\u2028".encode(), "\u2029".encode()]

# up to four byte flips, truncations and insertions, for mutated()
mutations = st.lists(st.tuples(st.sampled_from(["flip", "cut", "insert"]),
                               st.integers(0, 10 ** 6), st.binary(min_size=1, max_size=4)),
                     min_size=1, max_size=4)


def mutated(data: bytes, edits) -> bytes:
    """data with each drawn mutation applied in turn: a byte XORed with a
    non-zero mask, the tail cut off, or a chunk inserted."""
    data = bytearray(data)
    for kind, at, chunk in edits:
        k = at % (len(data) + 1)
        if kind == "flip" and data:
            data[at % len(data)] ^= chunk[0] or 0x80
        elif kind == "cut":
            del data[k:]
        elif kind == "insert":
            data[k:k] = chunk
    return bytes(data)


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
