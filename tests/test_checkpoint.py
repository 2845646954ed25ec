"""Binary checkpoint container: byte-exact round trips and error paths."""

import struct

import numpy as np
import pytest

from sdfshapes.checkpoint_io import (CHECKPOINT_MAGIC, checkpoint_bytes,
                                     load_checkpoint, save_checkpoint)
from sdfshapes.errors import (BadMagic, ShapeInconsistency, TruncatedFile,
                              UnsupportedVersion)
from sdfshapes.primitives import multi_sphere_samples
from sdfshapes.training import TrainConfig, train

from conftest import tiny_arch, tiny_checkpoint


def trained_checkpoint(epochs=2):
    samples = multi_sphere_samples([0.4, 0.6], 64, 0)
    cfg = TrainConfig(epochs=epochs, latent_dim=4, surface_batch_size=16,
                      knn_k=5, seed=0)
    return train(cfg, samples, arch=tiny_arch(latent_dim=4, width=8))


def assert_checkpoints_equal(a, b):
    assert a.arch == b.arch
    assert a.config == b.config
    assert a.epochs_completed == b.epochs_completed and a.seed == b.seed
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
    assert opt2.step_params == opt.step_params
    assert np.array_equal(opt2.step_codes, opt.step_codes)
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
                            latent_dim=4, surface_batch_size=2**32 - 1,
                            knn_k=2**32 - 1, seed=2**64 - 1)
    ck.epochs_completed, ck.seed = 2**32 - 1, 2**64 - 1
    p = tmp_path / "max.nsdf"
    save_checkpoint(ck, p)
    assert_checkpoints_equal(ck, load_checkpoint(p))


def test_trailing_bytes_rejected(tmp_path):
    data = checkpoint_bytes(tiny_checkpoint())
    p = tmp_path / "extra.nsdf"
    p.write_bytes(data + b"\x00\x01")
    with pytest.raises(ShapeInconsistency):
        load_checkpoint(p)
