"""The one container codec, exercised through both formats: a reader
raises a named error for every input its writer cannot produce."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfshapes.checkpoint_io import (CHECKPOINT_MAGIC, checkpoint_bytes,
                                     load_checkpoint)
from sdfshapes.errors import (BadMagic, SdfShapesError, ShapeInconsistency,
                              TruncatedFile, UnsupportedVersion)
from sdfshapes.field import Architecture, init_params
from sdfshapes.mesh import (SAMPLESET_MAGIC, SurfaceSampleSet, load_sample_set,
                            save_sample_set)
from sdfshapes.training import Checkpoint, OptimizerState, TrainConfig

from conftest import mutated, mutations


def _write(save, obj, tmp_path):
    p = tmp_path / "valid"
    save(obj, p)
    return p.read_bytes()


def _checkpoint(optimizer: bool) -> Checkpoint:
    arch = Architecture(layer_count=2, hidden_width=2, latent_dim=1, skip_layer=1)
    params = init_params(arch, 0)
    codes = np.array([[0.25], [-0.5]])
    ck = Checkpoint(arch, params, codes, TrainConfig(epochs=1, latent_dim=1), 1, 0)
    if optimizer:
        ck.optimizer = OptimizerState.fresh(params, codes)
    return ck


def _nsdf_header(layer_count, hidden_width, latent_dim):
    head = CHECKPOINT_MAGIC + struct.pack("<IIIIIdI", 1, layer_count, hidden_width,
                                          latent_dim, 1, 100.0, 2)
    return head.ljust(100, b"\x00")


def _with_byte(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + bytes([value]) + data[offset + 1:]


def _nsds(tmp_path):
    rng = np.random.default_rng(0)
    normals = [np.eye(3), np.array([[0.0, 0.0, -1.0]])]
    ss = SurfaceSampleSet(points=[rng.normal(size=(3, 3)), rng.normal(size=(1, 3))],
                          normals=normals)
    crafted = [
        (SAMPLESET_MAGIC + struct.pack("<II", 1, 2**32 - 1), TruncatedFile),
        (SAMPLESET_MAGIC + struct.pack("<IIQ", 1, 1, 2**64 - 1) + bytes(48), TruncatedFile),
        (SAMPLESET_MAGIC + struct.pack("<II", 2, 0), UnsupportedVersion),
    ]
    return [_write(save_sample_set, ss, tmp_path)], load_sample_set, crafted


def _nsdf(tmp_path):
    plain, adam = checkpoint_bytes(_checkpoint(False)), checkpoint_bytes(_checkpoint(True))
    # the optimizer flag is plain's last byte; squared_code_reg ends the config
    # record, before u32 epochs_completed and u64 seed
    has_opt, squared = len(plain) - 1, len(plain) - 14
    crafted = [
        # more layers than the bytes left can hold: sized before layer_dims()
        (_nsdf_header(2**32 - 1, 1, 1), TruncatedFile),
        # (2^32 - 1) * (2^32 + 1) weights wraps to -1 in int64
        (_nsdf_header(2, 2**32 - 1, 2**32 - 2), TruncatedFile),
    ] + [(_with_byte(data, offset, value), ShapeInconsistency)
         for data in (plain, adam) for offset in (has_opt, squared) for value in (2, 7)]
    return [plain, adam], load_checkpoint, crafted + _bad_adam_states()


def _bad_adam_states():
    """Checkpoints with an Adam state the trainer cannot write, each with
    ShapeInconsistency and the pattern of its message, which names the
    tensor."""
    cases = [_checkpoint(True) for _ in range(5)]
    cases[0].optimizer.v_weights[1][0, 1] = -1.0
    cases[1].optimizer.m_codes[1, 0] = np.nan
    cases[2].optimizer.v_biases[0][0] = np.inf
    # 2^63 would wrap to -2^63 in the int64 the trainer counts in
    cases[3].optimizer.step_codes = np.array([0, 2 ** 63], dtype=np.uint64)
    cases[4].optimizer.step_params = 2 ** 64 - 1
    messages = [r"v_weights\[1\] holds a negative second moment",
                "m_codes holds a non-finite moment",
                r"v_biases\[0\] holds a non-finite moment",
                r"step_codes holds a step count of 2\^63 or more",
                r"step_params holds a step count of 2\^63 or more"]
    return [(checkpoint_bytes(ck), ShapeInconsistency, f"^checkpoint {m}$")
            for ck, m in zip(cases, messages)]


@pytest.mark.parametrize("make", [_nsds, _nsdf], ids=["NSDS", "NSDF"])
def test_reader_rejects_what_its_writer_cannot_produce(tmp_path, make):
    valid, load, crafted = make(tmp_path)
    p = tmp_path / "probe"
    for data in valid:
        p.write_bytes(data)
        load(p)
        for n in range(len(data)):
            p.write_bytes(data[:n])
            with pytest.raises((BadMagic, TruncatedFile)):
                load(p)
        p.write_bytes(data + b"\x00")
        with pytest.raises(ShapeInconsistency):
            load(p)
    for data, error, *match in crafted:  # match: the message's pattern, if given
        p.write_bytes(data)
        with pytest.raises(error, match=match[0] if match else None):
            load(p)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["NSDS", "NSDF", "NSDF with Adam state"]), mutations)
def test_binary_readers_raise_only_package_errors_on_mutated_files(
        tmp_path_factory, base, edits):
    tmp = tmp_path_factory.mktemp("fuzz")
    if base == "NSDS":
        (data,), load, _ = _nsds(tmp)
    else:
        data, load = checkpoint_bytes(_checkpoint(base != "NSDF")), load_checkpoint
    path = tmp / "mutated"
    path.write_bytes(mutated(data, edits))
    try:
        load(path)
    except SdfShapesError:
        pass
