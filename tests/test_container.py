"""The one container codec, exercised through both formats: a reader
raises a named error for every input its writer cannot produce, and reads
each array straight from the file.  Every writer lands its file whole by
rename, or leaves the old one."""

import builtins
import io
import os
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfshapes.checkpoint_io import (CHECKPOINT_MAGIC, checkpoint_bytes,
                                     load_checkpoint, save_checkpoint)
from sdfshapes.cohort import (CohortEntry, CohortManifest, CombinationWeights,
                              DistanceReport)
from sdfshapes.errors import (BadMagic, SdfShapesError, ShapeInconsistency,
                              TruncatedFile, UnsupportedVersion)
from sdfshapes.field import Architecture, init_params
from sdfshapes.mesh import (SAMPLESET_MAGIC, SurfaceSampleSet, load_sample_set,
                            save_mesh, save_sample_set)
from sdfshapes.primitives import multi_sphere_samples, uv_sphere_mesh
from sdfshapes.training import Checkpoint, OptimizerState, TrainConfig

from conftest import mutated, mutations


def _write(save, obj, tmp_path):
    p = tmp_path / "valid"
    save(obj, p)
    return p.read_bytes()


def _checkpoint(optimizer: bool, epochs: int = 1) -> Checkpoint:
    arch = Architecture(layer_count=2, hidden_width=2, latent_dim=1, skip_layer=1)
    params = init_params(arch, 0)
    codes = np.array([[0.25], [-0.5]])
    ck = Checkpoint(params, codes, TrainConfig(epochs=epochs))
    if optimizer:
        ck.optimizer = OptimizerState.fresh(params, codes)
    return ck


def _nsdf_header(layer_count, hidden_width, latent_dim):
    head = CHECKPOINT_MAGIC + struct.pack("<IIIIIdI", 1, layer_count, hidden_width,
                                          latent_dim, 1, 100.0, 2)
    return head.ljust(100, b"\x00")


def _with_byte(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + bytes([value]) + data[offset + 1:]


def _with_u64s(data: bytes, offset: int, *values: int) -> bytes:
    end = offset + 8 * len(values)
    return data[:offset] + struct.pack(f"<{len(values)}Q", *values) + data[end:]


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
    # the optimizer flag is plain's last byte; squared_code_reg ends the
    # 101-byte config record, whose latent_dim (1) starts 32 bytes in, before
    # u32 epochs_completed (config epochs 1) and u64 seed (config seed 0), at
    # the same offsets in both files.  adam's u64 step_params (2) and a u64
    # step count per code (1, 1) follow the flag
    has_opt, squared, epochs, seed, latent = (len(plain) - k for k in (1, 14, 13, 9, 82))
    steps = len(plain)
    crafted = [
        # more layers than the bytes left can hold: sized before layer_dims()
        (_nsdf_header(2**32 - 1, 1, 1), TruncatedFile),
        # (2^32 - 1) * (2^32 + 1) weights wraps to -1 in int64
        (_nsdf_header(2, 2**32 - 1, 2**32 - 2), TruncatedFile),
    ] + [(_with_byte(data, offset, value), ShapeInconsistency)
         for data in (plain, adam) for offset in (has_opt, squared) for value in (2, 7)]
    crafted += [(_with_byte(data, offset, value), ShapeInconsistency,
                 f"^checkpoint {name} slot holds {value}, but its config record "
                 f"sets {name} = {was}$")
                for data in (plain, adam)
                for offset, name, was, value in ((epochs, "epochs", 1, 2), (seed, "seed", 0, 99))]
    crafted += [(_with_byte(data, latent, 2), ShapeInconsistency,
                 "^checkpoint latent_dim slot holds 2, but its header sets latent_dim = 1$")
                for data in (plain, adam)]
    # step counts that train does not take in the epochs the config record
    # sets: a 2-epoch run's counts zeroed, one code's count off, counts that
    # int64 cannot hold
    two_epochs = checkpoint_bytes(_checkpoint(True, epochs=2))
    crafted += [(_with_u64s(data, steps, *values), ShapeInconsistency, f"^checkpoint {m}$")
                for data, values, m in (
        (two_epochs, (0, 0, 0), r"step_params slot holds 0, but its config record sets "
                                r"epochs = 2, and epochs \* codes = 4"),
        (adam, (2, 1, 2), r"step_codes\[1\] slot holds 2, but its config record sets epochs = 1"),
        (adam, (2, 1, 2 ** 63), r"step_codes\[1\] slot holds 9223372036854775808, but its "
                                "config record sets epochs = 1"),
        (adam, (2 ** 64 - 1, 1, 1), r"step_params slot holds 18446744073709551615, but its "
                                    r"config record sets epochs = 1, and epochs \* codes = 2"))]
    return [plain, adam], load_checkpoint, crafted + _bad_adam_states()


def _bad_adam_states():
    """Checkpoints with an Adam state the trainer cannot write, each with
    ShapeInconsistency and the pattern of its message, which names the
    tensor.  save_checkpoint refuses these states, so their bytes are
    written with Checkpoint.validate switched off."""
    cases = [_checkpoint(True) for _ in range(3)]
    cases[0].optimizer.v_weights[1][0, 1] = -1.0
    cases[1].optimizer.m_codes[1, 0] = np.nan
    cases[2].optimizer.v_biases[0][0] = np.inf
    messages = [r"v_weights\[1\] holds a negative second moment",
                "m_codes holds a non-finite moment",
                r"v_biases\[0\] holds a non-finite moment"]
    with mock.patch.object(Checkpoint, "validate", lambda ck: ck):
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


def test_sample_set_loads_with_one_copy(tmp_path):
    # the whole file read, then each array copied out of it, peaked at twice
    # the file; read straight from the file, one shape's block is the excess
    samples = multi_sphere_samples([0.3 + 0.05 * k for k in range(8)], 20000, 0)
    path = tmp_path / "big.nsds"
    save_sample_set(samples, path)
    tracemalloc.start()
    try:
        loaded = load_sample_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * path.stat().st_size
    for got, want in zip(loaded.points + loaded.normals, samples.points + samples.normals):
        assert got.flags.c_contiguous and np.array_equal(got, want)


def test_sample_set_loads_from_a_pipe(tmp_path):
    samples = multi_sphere_samples([0.4, 0.6], 100, 0)
    save_sample_set(samples, tmp_path / "s.nsds")
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:  # 4.8 kB: fits in the pipe's buffer
        fh.write((tmp_path / "s.nsds").read_bytes())
    try:
        loaded = load_sample_set(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    for got, want in zip(loaded.points + loaded.normals, samples.points + samples.normals):
        assert np.array_equal(got, want)


class _FailingFile:
    """A file whose first write lands half its bytes and then raises."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _report(path):
    DistanceReport(["0-1", "0-2"], [0.25, 0.5]).to_csv(path)


# writer of the file out.csv, and the name of the file whose write fails
WRITERS = {
    "sample_set": (lambda p: save_sample_set(multi_sphere_samples([0.5], 50, 0), p), "out.csv"),
    "mesh": (lambda p: save_mesh(uv_sphere_mesh(0.5, 4, 6), p), "out.csv"),
    "checkpoint": (lambda p: save_checkpoint(_checkpoint(True), p), "out.csv"),
    "manifest": (lambda p: CohortManifest([CohortEntry(
        0, CombinationWeights((0, 1), [0.5, 0.5]), "shape_000.obj", 0)]).to_csv(p), "out.csv"),
    "report": (_report, "out.csv"),
    "report_summary": (_report, "out.summary.csv"),
}


@pytest.mark.parametrize("name", WRITERS)
def test_writer_failing_partway_leaves_the_old_file(tmp_path, monkeypatch, name):
    write, failing = WRITERS[name]
    old = b"an earlier run's bytes\n"
    for n in ("out.csv", "out.summary.csv"):
        (tmp_path / n).write_bytes(old)
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if Path(file).name.startswith(failing) and set(mode) & set("wax+"):
            return _FailingFile(fh)
        return fh

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", failing_open)
        m.setattr(io, "open", failing_open)
        with pytest.raises(OSError, match="^disk full$"):
            write(tmp_path / "out.csv")
    # a report lands with its summary or not at all
    for n in ("out.csv", "out.summary.csv"):
        assert (tmp_path / n).read_bytes() == old, n
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.summary.csv"]
