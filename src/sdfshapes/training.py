"""Optimization loop: off-surface sampling, Adam, and the training schedule.

One Adam step is taken per shape-minibatch; every shape is visited exactly
once per epoch in a seeded shuffled order.  Network parameters and the
visited latent code row are updated jointly: at visit i of epoch e over n
shapes, the parameters take Adam step e*n + i + 1 and the code step e + 1.
The off-surface sampling scales, local_sigmas of each shape's samples, are
queried on demand: a shape's KD-tree is built at its first visit, and each
step queries only the rows it draws that are not known yet, so a short run
or a resume with nothing left to run pays little for them.  The loop is
single-threaded, OpenBLAS and the nearest-neighbor queries included.
Training is bitwise reproducible for a fixed seed on one machine and BLAS
build.
"""

from __future__ import annotations

import copy
import os
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.spatial import cKDTree

from . import blas
from .errors import (
    ConfigMismatch,
    EmptySurfaceSet,
    InvalidCount,
    NetworkTooLarge,
    NonFiniteLoss,
    ShapeInconsistency,
    ShapeMismatch,
    TooFewPoints,
)
from .field import Architecture, FieldParams, init_params, loss_gradients
from .mesh import SurfaceSampleSet

# points per leaf of the KD-trees train holds: any leaf size gives the same
# distances, and larger leaves hold fewer nodes
_LEAF_SIZE = 64

METRICS_HEADER = "epoch,mean_total,mean_surface,mean_normal,mean_eikonal,mean_codereg,lr"

# TrainConfig's fields and the architecture's latent_dim in checkpoint order,
# each with the struct code of the field that stores it: I is u32, Q is u64,
# d is float64, B is a 0/1 byte.
CONFIG_RECORD = (("epochs", "I"), ("initial_lr", "d"), ("lr_halving_period", "I"),
                 ("tau", "d"), ("lam", "d"), ("latent_dim", "I"),
                 ("code_init_std", "d"), ("surface_batch_size", "I"),
                 ("offsurface_ratio", "d"), ("adam_beta1", "d"), ("adam_beta2", "d"),
                 ("adam_eps", "d"), ("knn_k", "I"), ("uniform_halfwidth", "d"),
                 ("seed", "Q"), ("squared_code_reg", "B"))


@dataclass
class TrainConfig:
    epochs: int = 5000
    initial_lr: float = 1e-3
    lr_halving_period: int = 500
    tau: float = 0.5
    lam: float = 1e-4
    code_init_std: float = 1e-2
    surface_batch_size: int = 16384
    offsurface_ratio: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    knn_k: int = 50
    uniform_halfwidth: float = 1.1
    seed: int = 0
    squared_code_reg: bool = False

    def __post_init__(self):
        record = [(f.name, dict(CONFIG_RECORD)[f.name]) for f in fields(self)]
        # written so that NaN fails every float check
        for name, code in record:
            if code == "d" and not np.isfinite(getattr(self, name)):
                raise InvalidCount(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.epochs < 0:
            raise InvalidCount("epochs must be >= 0")
        for name in ("initial_lr", "lr_halving_period", "code_init_std",
                     "surface_batch_size", "uniform_halfwidth", "knn_k", "adam_eps"):
            if not getattr(self, name) > 0:
                raise InvalidCount(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("tau", "lam", "offsurface_ratio"):
            if not getattr(self, name) >= 0:
                raise InvalidCount(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise InvalidCount("adam betas must lie in [0, 1)")
        if self.seed < 0:
            raise InvalidCount(f"seed must be >= 0, got {self.seed}")
        for name, code in record:
            limit = 256 ** np.dtype(code).itemsize
            if code in "IQ" and getattr(self, name) >= limit:
                raise InvalidCount(f"{name} must be < {limit}, got {getattr(self, name)}")
        if not self.surface_batch_size * self.offsurface_ratio < 2 ** 32:
            raise InvalidCount(f"offsurface_ratio = {self.offsurface_ratio!r} asks for "
                               "2^32 or more off-surface points per step")


@dataclass
class OptimizerState:
    """Adam moments congruent to the parameters and codebook; train counts
    the steps from the epoch."""

    m_weights: list
    v_weights: list
    m_biases: list
    v_biases: list
    m_codes: np.ndarray
    v_codes: np.ndarray

    @classmethod
    def fresh(cls, params: FieldParams, codes: np.ndarray) -> "OptimizerState":
        w, b = params.weights, params.biases
        return cls([np.zeros_like(W) for W in w], [np.zeros_like(W) for W in w],
                   [np.zeros_like(x) for x in b], [np.zeros_like(x) for x in b],
                   np.zeros_like(codes), np.zeros_like(codes))


@dataclass
class Checkpoint:
    """The trained auto-decoder, its config and, to resume from, its Adam
    state.  The architecture is params.arch, the seed config.seed and the
    completed epoch count config.epochs."""

    params: FieldParams
    codes: np.ndarray
    config: TrainConfig
    optimizer: OptimizerState | None = None

    @property
    def epochs_completed(self) -> int:
        return self.config.epochs

    def validate(self):
        """The one check of a whole state, run by checkpoint_bytes and
        load_checkpoint: tensor shapes, finite values and, naming the tensor
        with ShapeInconsistency, an Adam state that matches the parameters
        and codes, with finite moments and no negative second moment."""
        arch = self.params.validate().arch
        if self.codes.ndim != 2 or self.codes.shape[1] != arch.latent_dim:
            raise ShapeMismatch("codebook width does not match the architecture")
        if not np.isfinite(self.codes).all():
            raise ShapeMismatch("non-finite codebook entry")
        opt = self.optimizer
        if opt is None:
            return self
        for name in ("m_weights", "v_weights", "m_biases", "v_biases", "m_codes", "v_codes"):
            per_layer = not name.endswith("codes")
            moments = getattr(opt, name) if per_layer else [getattr(opt, name)]
            like = getattr(self.params, name[2:]) if per_layer else [self.codes]
            if [np.shape(m) for m in moments] != [a.shape for a in like]:
                raise ShapeInconsistency(f"checkpoint {name} does not match its {name[2:]}")
            for k, m in enumerate(moments):
                label = f"{name}[{k}]" if per_layer else name
                if not np.isfinite(m).all():
                    raise ShapeInconsistency(f"checkpoint {label} holds a non-finite moment")
                if name[0] == "v" and (np.asarray(m) < 0).any():
                    raise ShapeInconsistency(f"checkpoint {label} holds a negative second moment")
        return self


def local_sigmas(points: np.ndarray, k: int, rows=None, tree=None) -> np.ndarray:
    """Distance from each point to its k-th nearest neighbor (k capped at
    n-1), queried on one thread.  With rows, only points[rows] are queried,
    each with the bits of the full query; tree may be a cKDTree already
    built over points, of any leaf size."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n < 2:
        raise TooFewPoints("need at least 2 points")
    if k < 1:
        raise InvalidCount("k must be >= 1")
    k = min(k, n - 1)
    tree = cKDTree(points) if tree is None else tree
    # k=[k + 1] returns only the k-th neighbor's column, not all k + 1
    dists, _ = tree.query(points if rows is None else points[rows], k=[k + 1])
    return dists[:, 0]


class _LazySigmas:
    """local_sigmas(points, k) of one shape, filled on demand.  Called with
    drawn rows, it queries those not known yet, each once, and returns the
    scales of all of them.  The KD-tree is built at the first query and
    dropped once every row is known; a shape of one point has scale 0."""

    def __init__(self, points: np.ndarray, k: int):
        self.points, self.k, self.tree = points, k, None
        self.unknown = len(points) if len(points) >= 2 else 0
        self.values = np.full(len(points), np.nan if self.unknown else 0.0)  # NaN: not known

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        todo = np.sort(rows[np.isnan(self.values[rows])])
        if len(todo):
            # distinct by sort and compare: np.unique's first call costs more memory
            todo = todo[np.concatenate(([True], todo[1:] != todo[:-1]))]
            if self.tree is None:
                self.tree = cKDTree(self.points, leafsize=_LEAF_SIZE, copy_data=False)
            self.values[todo] = local_sigmas(self.points, self.k, todo, self.tree)
            self.unknown -= len(todo)
            if not self.unknown:
                self.tree = None
        return self.values[rows]


def sample_off_surface(surface_points: np.ndarray, sigmas,
                       count: int, halfwidth: float, seed) -> np.ndarray:
    """Half the points are Gaussian perturbations of random surface points,
    each at its point's scale, half are uniform in the enclosing cube.
    sigmas holds the scale of every surface point, or is a function from
    the drawn rows to their scales that draws no random numbers, as train's
    on-demand local_sigmas is; the draws are the same either way.  seed may
    also be a Generator, which the draws then advance."""
    if count < 1:
        raise InvalidCount("count must be >= 1")
    surface_points = np.asarray(surface_points, dtype=np.float64)
    if not callable(sigmas):
        sigmas = np.asarray(sigmas, dtype=np.float64)
        if len(sigmas) != len(surface_points):
            raise ShapeMismatch("sigmas must align with surface points")
    n = len(surface_points)
    if n == 0:
        raise EmptySurfaceSet("no surface points to perturb")
    rng = np.random.default_rng(seed)
    n_gauss = (count + 1) // 2
    n_unif = count // 2
    idx = rng.integers(0, n, size=n_gauss)
    scales = sigmas(idx) if callable(sigmas) else sigmas[idx]
    noise = rng.standard_normal((n_gauss, 3)) * scales[:, None]
    gauss = surface_points[idx] + noise
    unif = rng.uniform(-halfwidth, halfwidth, size=(n_unif, 3))
    return np.vstack([gauss, unif])


def learning_rate_at(epoch: int, config: TrainConfig) -> float:
    return config.initial_lr * 0.5 ** (epoch // config.lr_halving_period)


def adam_step(value, grad, m, v, step, lr,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update, in place; step is the 1-based count for this tensor."""
    value = np.asarray(value)
    grad = np.asarray(grad)
    if value.shape != grad.shape or m.shape != value.shape or v.shape != value.shape:
        raise ShapeMismatch("value/grad/moment shapes disagree")
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1 ** step)
    vhat = v / (1.0 - beta2 ** step)
    value -= lr * mhat / (np.sqrt(vhat) + eps)
    return value


def _keep_rows_before(stream, epoch: int) -> None:
    """Cut a metrics file opened to append after its header and its leading
    rows of epochs below `epoch`: a run stopped after its last checkpoint
    left rows that a resume from that checkpoint writes again."""
    stream.buffer.seek(0)
    size = 0
    for n, line in enumerate(stream.buffer):
        head = line.split(b",", 1)[0]
        if n and not (head.isdigit() and int(head) < epoch):
            break
        size += len(line)
    stream.truncate(size)
    stream.seek(0, os.SEEK_END)


@blas.one_blas_thread()
def train(config: TrainConfig, samples: SurfaceSampleSet, arch: Architecture,
          initial: Checkpoint | None = None, metrics=None) -> Checkpoint:
    """Run the Adam loop over all shapes and return a checkpoint.

    config.epochs is the target epoch count.  Training continues from
    initial, whose config and architecture must equal config and arch in
    every key but epochs, or else from the epoch-0 checkpoint of
    config.seed; initial is never modified, and past epoch 0 it must hold
    its Adam state.  metrics may be a path, started anew when training
    starts from epoch 0 and appended to on a resume, which first drops any
    rows of the epochs it runs again, or an open text stream; it
    receives the CSV header when empty and one row per epoch, flushed as it
    is written, so that the file shows a run's progress.
    """
    n = samples.validate().shape_count
    if initial is None:
        blas.check_memory(3 * 8 * arch.parameter_count(), NetworkTooLarge,
                          f"layer_count = {arch.layer_count}, hidden_width = "
                          f"{arch.hidden_width}, latent_dim = {arch.latent_dim}: the network",
                          " for its parameters and Adam moments")
        codes = np.random.default_rng([config.seed, 0]).normal(
            0.0, config.code_init_std, size=(n, arch.latent_dim))
        initial = Checkpoint(init_params(arch, config.seed), codes, replace(config, epochs=0))
    # a checkpoint records one config and architecture for all its epochs
    for new, old in ((config, initial.config), (arch, initial.params.arch)):
        for name in (f.name for f in fields(new) if f.name != "epochs"):
            if getattr(new, name) != getattr(old, name):
                raise ConfigMismatch(f"resume config sets {name} = {getattr(new, name)!r}, but "
                                     f"the checkpoint was trained with {getattr(old, name)!r}")
    if initial.codes.shape[0] != n:
        raise ConfigMismatch("resume checkpoint shape count differs")
    if config.epochs < initial.epochs_completed:
        raise ConfigMismatch(f"target of {config.epochs} epochs is below the "
                             f"{initial.epochs_completed} already completed")
    if initial.optimizer is None and initial.epochs_completed > 0:
        raise ConfigMismatch(f"the checkpoint has {initial.epochs_completed} completed epochs "
                             "but no Adam state to resume them from")
    params, codes = initial.params.copy(), initial.codes.copy()
    opt = (OptimizerState.fresh(params, codes) if initial.optimizer is None
           else copy.deepcopy(initial.optimizer))

    sigmas = [_LazySigmas(p, config.knn_k) for p in samples.points]
    B = config.surface_batch_size
    M = max(1, round(B * config.offsurface_ratio))
    hyper = (config.adam_beta1, config.adam_beta2, config.adam_eps)
    tensors = params.weights + params.biases
    m_all = opt.m_weights + opt.m_biases
    v_all = opt.v_weights + opt.v_biases

    with ExitStack() as stack:
        if isinstance(metrics, (str, bytes, os.PathLike)):
            mode = "a+" if initial.epochs_completed else "w"
            metrics = stack.enter_context(open(metrics, mode, encoding="utf-8"))
            if initial.epochs_completed:
                _keep_rows_before(metrics, initial.epochs_completed)
        if metrics is not None and metrics.tell() == 0:
            metrics.write(METRICS_HEADER + "\n")
        for epoch in range(initial.epochs_completed, config.epochs):
            rng = np.random.default_rng([config.seed, 1, epoch])
            lr = learning_rate_at(epoch, config)
            order = rng.permutation(n)
            sums = np.zeros(5)
            for i, k in enumerate(order):
                pts = samples.points[k]
                nrm = samples.normals[k]
                idx = rng.integers(0, len(pts), size=min(B, len(pts)))
                off = sample_off_surface(pts, sigmas[k], M, config.uniform_halfwidth, rng)
                wg, bg, zg, bd = loss_gradients(
                    params, codes[k], pts[idx], nrm[idx], off,
                    config.tau, config.lam, config.squared_code_reg)
                if not np.isfinite(bd.total):
                    raise NonFiniteLoss(
                        f"non-finite loss at epoch {epoch}, shape {k}: {bd}")
                for value, grad, m, v in zip(tensors, wg + bg, m_all, v_all):
                    adam_step(value, grad, m, v, epoch * n + i + 1, lr, *hyper)
                adam_step(codes[k], zg, opt.m_codes[k], opt.v_codes[k], epoch + 1, lr, *hyper)
                sums += (bd.total, bd.surface_term, bd.normal_term,
                         bd.eikonal_term, bd.code_reg_term)
            means = [float(s) for s in sums / n]
            if metrics is not None:
                metrics.write(f"{epoch},{means[0]!r},{means[1]!r},{means[2]!r},"
                              f"{means[3]!r},{means[4]!r},{lr!r}\n")
                metrics.flush()

    return Checkpoint(params, codes, config, opt).validate()
