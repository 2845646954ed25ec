"""Bit-exact binary checkpoint container (NSDF), framed by container.py.

After magic and u32 version: the architecture (u32 layer_count,
hidden_width, latent_dim, skip_layer; f64 softplus_beta), u32 code count,
each layer's f64 weight and bias, the codebook, the config record laid out
by training.CONFIG_RECORD, u32 epochs_completed, u64 seed and a 0/1 byte
that says whether the Adam state follows: u64 step_params, a u64 step
count per code, each layer's (m_W, v_W, m_b, v_b) and the code moments.
The reader also rejects flag bytes other than 0 or 1, a layer count that
the bytes left cannot hold, before it sizes any tensor, and an Adam state
the trainer cannot write.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .container import Reader, Writer, write_atomic
from .errors import ShapeInconsistency, TruncatedFile
from .field import Architecture, FieldParams
from .training import CONFIG_RECORD, Checkpoint, OptimizerState, TrainConfig

CHECKPOINT_MAGIC = b"NSDF"
CHECKPOINT_VERSION = 1

_CONFIG_FMT = "<" + "".join(code for _, code in CONFIG_RECORD)
# every layer stores at least a 1x1 weight and a bias of 8 bytes each
_MIN_LAYER_BYTES = 16


def checkpoint_bytes(ck: Checkpoint) -> bytes:
    ck.validate()
    buf = io.BytesIO()
    w = Writer(buf, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    a = ck.arch
    w.pack("<IIIId", a.layer_count, a.hidden_width, a.latent_dim,
           a.skip_layer, a.softplus_beta)
    w.pack("<I", len(ck.codes))
    for W, b in zip(ck.params.weights, ck.params.biases):
        w.array(W)
        w.array(b)
    w.array(ck.codes)
    w.pack(_CONFIG_FMT, *(getattr(ck.config, name) for name, _ in CONFIG_RECORD))
    w.pack("<IQ", ck.epochs_completed, ck.seed)
    opt = ck.optimizer
    w.pack("<B", opt is not None)
    if opt is not None:
        w.pack("<Q", opt.step_params)
        w.array(opt.step_codes, "<u8")
        for moments in zip(opt.m_weights, opt.v_weights, opt.m_biases, opt.v_biases):
            for m in moments:
                w.array(m)
        w.array(opt.m_codes)
        w.array(opt.v_codes)
    return buf.getvalue()


def save_checkpoint(ck: Checkpoint, path) -> None:
    data = checkpoint_bytes(ck)
    write_atomic(lambda tmp: Path(tmp).write_bytes(data), path)


def _flag(value: int, name: str) -> bool:
    if value not in (0, 1):
        raise ShapeInconsistency(f"checkpoint {name} byte is {value}, not 0 or 1")
    return bool(value)


def _adam_state(r: Reader, dims: list, n: int, latent_dim: int) -> OptimizerState:
    """The Adam state after the optimizer flag.  ShapeInconsistency, naming
    the tensor, for a state the trainer cannot write: a step count of 2^63
    or more, a non-finite moment or a negative second moment."""
    (step_params,) = r.unpack("<Q")
    step_codes = r.array((n,), "<u8")
    for name, steps in (("step_params", step_params), ("step_codes", step_codes)):
        if (np.asarray(steps) >= 2 ** 63).any():  # checked before the int64 cast
            raise ShapeInconsistency(f"checkpoint {name} holds a step count of 2^63 or more")
    moments = {"m_weights": [], "v_weights": [], "m_biases": [], "v_biases": []}
    for din, dout in dims:
        for name, shape in zip(moments, ((dout, din), (dout, din), (dout,), (dout,))):
            moments[name].append(r.array(shape))
    m_codes = r.array((n, latent_dim))
    v_codes = r.array((n, latent_dim))
    tensors = [(f"{name}[{k}]", a) for name, arrays in moments.items()
               for k, a in enumerate(arrays)] + [("m_codes", m_codes), ("v_codes", v_codes)]
    for name, a in tensors:
        if not np.isfinite(a).all():
            raise ShapeInconsistency(f"checkpoint {name} holds a non-finite moment")
        if name.startswith("v") and (a < 0).any():
            raise ShapeInconsistency(f"checkpoint {name} holds a negative second moment")
    return OptimizerState(*moments.values(), m_codes, v_codes, step_params,
                          step_codes.astype(np.int64))


def load_checkpoint(path) -> Checkpoint:
    r = Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    arch = Architecture(*r.unpack("<IIIId"))
    (n,) = r.unpack("<I")
    if arch.layer_count * _MIN_LAYER_BYTES > r.left():
        raise TruncatedFile(f"checkpoint is too short for {arch.layer_count} layers")
    dims = arch.layer_dims()
    weights, biases = [], []
    for din, dout in dims:
        weights.append(r.array((dout, din)))
        biases.append(r.array((dout,)))
    params = FieldParams(arch, weights, biases)
    codes = r.array((n, arch.latent_dim))
    fields = zip(CONFIG_RECORD, r.unpack(_CONFIG_FMT))
    config = TrainConfig(**{name: _flag(v, name) if code == "B" else v
                            for (name, code), v in fields})
    epochs_completed, seed = r.unpack("<IQ")
    opt = None
    if _flag(*r.unpack("<B"), "optimizer"):
        opt = _adam_state(r, dims, n, arch.latent_dim)
    r.finish()
    if config.latent_dim != arch.latent_dim:
        raise ShapeInconsistency("config latent_dim disagrees with architecture")
    ck = Checkpoint(arch=arch, params=params, codes=codes, config=config,
                    epochs_completed=epochs_completed, seed=seed, optimizer=opt)
    return ck.validate()
