"""Binary checkpoint container: byte-exact round trips and error paths."""

import copy
import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfshapes.checkpoint_io import (CHECKPOINT_MAGIC, checkpoint_bytes,
                                     load_checkpoint, save_checkpoint)
from sdfshapes.errors import (BadMagic, SdfShapesError, ShapeInconsistency,
                              TruncatedFile, UnsupportedVersion)
from sdfshapes.primitives import multi_sphere_samples
from sdfshapes.training import TrainConfig, train

from conftest import tiny_arch, tiny_checkpoint


def trained_checkpoint(epochs=2):
    samples = multi_sphere_samples([0.4, 0.6], 64, 0)
    cfg = TrainConfig(epochs=epochs, surface_batch_size=16, knn_k=5, seed=0)
    return train(cfg, samples, tiny_arch(latent_dim=4, width=8))


def assert_checkpoints_equal(a, b):
    assert a.params.arch == b.params.arch
    assert a.config == b.config
    for W, W2 in zip(a.params.weights, b.params.weights):
        assert np.array_equal(W, W2)
    for bb, b2 in zip(a.params.biases, b.params.biases):
        assert np.array_equal(bb, b2)
    assert np.array_equal(a.codes, b.codes)


def test_roundtrip_without_optimizer(tmp_path):
    ck = tiny_checkpoint()
    p = tmp_path / "ck.nsdf"
    save_checkpoint(ck, p)
    back = load_checkpoint(p)
    assert_checkpoints_equal(ck, back)
    assert back.optimizer is None


def test_roundtrip_with_optimizer_byte_identical(tmp_path):
    ck = trained_checkpoint()
    p1 = tmp_path / "a.nsdf"
    p2 = tmp_path / "b.nsdf"
    save_checkpoint(ck, p1)
    back = load_checkpoint(p1)
    save_checkpoint(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert_checkpoints_equal(ck, back)
    opt, opt2 = ck.optimizer, back.optimizer
    for m, m2 in zip(opt.m_weights, opt2.m_weights):
        assert np.array_equal(m, m2)
    assert np.array_equal(opt2.v_codes, opt.v_codes)


def test_bytes_equal_file_content(tmp_path):
    ck = trained_checkpoint()
    p = tmp_path / "ck.nsdf"
    save_checkpoint(ck, p)
    assert p.read_bytes() == checkpoint_bytes(ck)


def test_bad_magic(tmp_path):
    p = tmp_path / "x.nsdf"
    p.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        load_checkpoint(p)


def test_unsupported_version(tmp_path):
    p = tmp_path / "v2.nsdf"
    p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 2) + b"\x00" * 64)
    with pytest.raises(UnsupportedVersion):
        load_checkpoint(p)


def test_truncated(tmp_path):
    data = checkpoint_bytes(trained_checkpoint())
    p = tmp_path / "cut.nsdf"
    p.write_bytes(data[:len(data) // 2])
    with pytest.raises(TruncatedFile):
        load_checkpoint(p)


def test_largest_admitted_config_roundtrip(tmp_path):
    # TrainConfig's integer bounds are the widths of the checkpoint fields
    ck = tiny_checkpoint()
    ck.config = TrainConfig(epochs=2**32 - 1, lr_halving_period=2**32 - 1,
                            surface_batch_size=2**32 - 1,
                            knn_k=2**32 - 1, seed=2**64 - 1)
    p = tmp_path / "max.nsdf"
    save_checkpoint(ck, p)
    assert_checkpoints_equal(ck, load_checkpoint(p))


def test_trailing_bytes_rejected(tmp_path):
    data = checkpoint_bytes(tiny_checkpoint())
    p = tmp_path / "extra.nsdf"
    p.write_bytes(data + b"\x00\x01")
    with pytest.raises(ShapeInconsistency):
        load_checkpoint(p)


_MOMENTS = ("m_weights", "v_weights", "m_biases", "v_biases", "m_codes", "v_codes")


def _perturb(opt, data):
    """Change one Adam tensor's entry or length, or drop one layer's moment."""
    name = data.draw(st.sampled_from(_MOMENTS))
    per_layer = isinstance(getattr(opt, name), list)
    arrays = getattr(opt, name) if per_layer else [getattr(opt, name)]
    k = data.draw(st.integers(0, len(arrays) - 1))
    edit = data.draw(st.sampled_from(["entry", "shorter", "longer"]
                                     + ["drop"] * per_layer))
    a = arrays[k]
    if edit == "drop":
        del arrays[k]
    elif edit == "shorter":
        arrays[k] = a[:-1]
    elif edit == "longer":
        arrays[k] = np.concatenate([a, a[-1:]])
    else:
        arrays[k] = a.copy()
        arrays[k].flat[data.draw(st.integers(0, a.size - 1))] = data.draw(st.floats())
    if not per_layer:
        setattr(opt, name, arrays[0])


@functools.cache
def _trained():
    return trained_checkpoint()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_save_refuses_every_adam_state_that_load_rejects(tmp_path_factory, data):
    # either the writer raises and leaves no file, or the reader accepts its
    # bytes and writes them back unchanged
    ck = copy.deepcopy(_trained())
    _perturb(ck.optimizer, data)
    path = tmp_path_factory.mktemp("perturbed") / "ck.nsdf"
    try:
        save_checkpoint(ck, path)
    except SdfShapesError:
        assert list(path.parent.iterdir()) == []
        return
    assert checkpoint_bytes(load_checkpoint(path)) == path.read_bytes()
