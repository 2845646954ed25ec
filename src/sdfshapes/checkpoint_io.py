"""Bit-exact binary checkpoint container (NSDF), framed by container.py.

After magic and u32 version: the architecture (u32 layer_count,
hidden_width, latent_dim, skip_layer; f64 softplus_beta), u32 code count,
each layer's f64 weight and bias, the codebook, the config record laid out
by training.CONFIG_RECORD, u32 epochs_completed, u64 seed and a 0/1 byte
that says whether the Adam state follows: u64 step_params, a u64 step
count per code, each layer's (m_W, v_W, m_b, v_b) and the code moments.
The writer fills the slots that repeat a fact from its one copy: the
record's latent_dim from the architecture, the next two from the record's
epochs and seed, step_params from epochs times the code count and each
code's count from epochs, as train steps; the reader rejects, naming it, a
slot that disagrees.  Both ends run Checkpoint.validate, so save_checkpoint
refuses every state the reader rejects.  The reader also rejects flag bytes
other than 0 or 1 and a layer count that the bytes left cannot hold, before
it sizes any tensor.
"""

from __future__ import annotations

import io

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
    a = ck.params.arch
    w.pack("<IIIId", a.layer_count, a.hidden_width, a.latent_dim,
           a.skip_layer, a.softplus_beta)
    w.pack("<I", len(ck.codes))
    for W, b in zip(ck.params.weights, ck.params.biases):
        w.array(W)
        w.array(b)
    w.array(ck.codes)
    w.pack(_CONFIG_FMT, *(a.latent_dim if name == "latent_dim" else getattr(ck.config, name)
                          for name, _ in CONFIG_RECORD))
    w.pack("<IQ", ck.config.epochs, ck.config.seed)
    opt = ck.optimizer
    w.pack("<B", opt is not None)
    if opt is not None:
        w.pack("<Q", ck.config.epochs * len(ck.codes))
        w.array(np.full(len(ck.codes), ck.config.epochs), "<u8")
        for moments in zip(opt.m_weights, opt.v_weights, opt.m_biases, opt.v_biases):
            for m in moments:
                w.array(m)
        w.array(opt.m_codes)
        w.array(opt.v_codes)
    return buf.getvalue()


def save_checkpoint(ck: Checkpoint, path) -> None:
    data = checkpoint_bytes(ck)
    with write_atomic(path, "wb") as fh:
        fh.write(data)


def _flag(value: int, name: str) -> bool:
    if value not in (0, 1):
        raise ShapeInconsistency(f"checkpoint {name} byte is {value}, not 0 or 1")
    return bool(value)


def _slot(name: str, value, expected, source: str) -> None:
    """ShapeInconsistency naming the slot unless value is what source sets."""
    if value != expected:
        raise ShapeInconsistency(f"checkpoint {name} slot holds {value}, but {source}")


def _adam_state(r: Reader, dims: list, n: int, latent_dim: int, epochs: int) -> OptimizerState:
    """The Adam state after the optimizer flag; its step counts must be the
    ones train reaches after the given epochs over n codes."""
    source = f"its config record sets epochs = {epochs}"
    _slot("step_params", *r.unpack("<Q"), epochs * n,
          f"{source}, and epochs * codes = {epochs * n}")
    for k, steps in enumerate(r.array((n,), "<u8").tolist()):
        _slot(f"step_codes[{k}]", steps, epochs, source)
    moments = {"m_weights": [], "v_weights": [], "m_biases": [], "v_biases": []}
    for din, dout in dims:
        for name, shape in zip(moments, ((dout, din), (dout, din), (dout,), (dout,))):
            moments[name].append(r.array(shape))
    return OptimizerState(*moments.values(), r.array((n, latent_dim)), r.array((n, latent_dim)))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        r = Reader(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
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
        record = {name: _flag(v, name) if code == "B" else v
                  for (name, code), v in zip(CONFIG_RECORD, r.unpack(_CONFIG_FMT))}
        _slot("latent_dim", record.pop("latent_dim"), arch.latent_dim,
              f"its header sets latent_dim = {arch.latent_dim}")
        config = TrainConfig(**record)
        for name, value in zip(("epochs", "seed"), r.unpack("<IQ")):
            _slot(name, value, getattr(config, name),
                  f"its config record sets {name} = {getattr(config, name)}")
        has_opt = _flag(*r.unpack("<B"), "optimizer")
        opt = _adam_state(r, dims, n, arch.latent_dim, config.epochs) if has_opt else None
        r.finish()
        return Checkpoint(params, codes, config, opt).validate()
