"""Off-surface sampling, the schedule, Adam, and the training loop."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from sdfshapes import blas, training
from sdfshapes.checkpoint_io import checkpoint_bytes
from sdfshapes.errors import (ConfigMismatch, EmptySurfaceSet, InvalidCount,
                              NetworkTooLarge,
                              NonFiniteLoss, NonFiniteValue, ShapeMismatch,
                              TooFewPoints)
from sdfshapes.field import Architecture, init_params
from sdfshapes.primitives import multi_sphere_samples, sphere_samples
from sdfshapes.training import (METRICS_HEADER, TrainConfig, adam_step,
                                learning_rate_at, local_sigmas,
                                sample_off_surface, train)

from conftest import tiny_arch


# -------------------------------------------------------------- TrainConfig

def test_train_config_validation():
    with pytest.raises(InvalidCount):
        TrainConfig(epochs=-1)
    with pytest.raises(InvalidCount):
        TrainConfig(initial_lr=0.0)
    with pytest.raises(InvalidCount):
        TrainConfig(adam_beta1=1.0)
    # integer fields must fit their checkpoint fields (u32, and u64 for seed)
    for bad in ({"seed": -1}, {"seed": 2**64}, {"knn_k": 2**32},
                {"epochs": 2**32}, {"lr_halving_period": 2**32},
                {"surface_batch_size": 2**32}):
        with pytest.raises(InvalidCount, match=next(iter(bad))):
            TrainConfig(**bad)


# ------------------------------------------------------------- local_sigmas

def test_local_sigmas_two_points():
    s = local_sigmas(np.array([[0.0, 0, 0], [1.0, 0, 0]]), k=1)
    assert np.allclose(s, 1.0)


def test_local_sigmas_lattice():
    g = np.arange(3.0)
    pts = np.array([(x, y, z) for x in g for y in g for z in g])
    assert np.allclose(local_sigmas(pts, k=1), 1.0)


def test_local_sigmas_k_capped():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0]])
    s = local_sigmas(pts, k=99)  # capped at n-1 = 2: farthest other point
    assert np.allclose(s, [5.0, 4.0, 5.0])


def _duplicated_points():
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (600, 3))
    pts[300:400] = pts[:100]  # duplicates: zero distances and tied neighbors
    pts[400:420] = pts[0]
    return pts


def test_local_sigmas_bitwise_equal_to_full_neighbor_table():
    pts = _duplicated_points()
    for k in (1, 5, 50, 599, 1000):
        s = local_sigmas(pts, k)
        full, _ = cKDTree(pts).query(pts, k=min(k, 599) + 1)
        assert s.flags.c_contiguous
        assert s.tobytes() == full[:, min(k, 599)].tobytes()


def test_local_sigmas_rows_of_a_held_tree_equal_the_full_query():
    pts = _duplicated_points()
    rows = np.random.default_rng(1).integers(0, 600, 200)  # repeats rows
    for leafsize in (16, training._LEAF_SIZE):
        tree = cKDTree(pts, leafsize=leafsize, copy_data=False)
        for k in (1, 5, 50, 599, 1000):
            got = local_sigmas(pts, k, rows, tree)
            assert got.tobytes() == local_sigmas(pts, k)[rows].tobytes()


def _spy_queries(monkeypatch):
    """Record the rows of every local_sigmas call, all rows when none are
    given, keyed by the id of the points array queried."""
    queried, reference = {}, training.local_sigmas

    def spy(points, k, *rows_tree):
        taken = np.array(rows_tree[0]) if rows_tree else np.arange(len(points))
        queried.setdefault(id(points), []).extend(taken.tolist())
        return reference(points, k, *rows_tree)

    monkeypatch.setattr(training, "local_sigmas", spy)
    return queried


@pytest.mark.parametrize("k", [1, 5, 50, 599, 1000])
def test_lazy_sigmas_equal_local_sigmas_and_query_each_row_once(monkeypatch, k):
    pts = _duplicated_points()
    full = local_sigmas(pts, k)
    queried = _spy_queries(monkeypatch)
    builds, tree = [], training.cKDTree
    monkeypatch.setattr(training, "cKDTree",
                        lambda *a, **kw: builds.append(kw) or tree(*a, **kw))
    lazy = training._LazySigmas(pts, k)
    rng = np.random.default_rng(k)
    draws = [rng.integers(0, 600, 64) for _ in range(20)]
    draws += [np.array([7, 7, 7, 301, 7, 301]), np.arange(600)[::-1], np.arange(600)]
    for i, rows in enumerate(draws):
        assert lazy(rows).tobytes() == full[rows].tobytes()
        # the tree is held until the draw that completes the rows, then dropped
        assert (lazy.tree is None) == (i >= len(draws) - 2)
    assert sorted(queried[id(pts)]) == list(range(600))
    assert builds == [{"leafsize": training._LEAF_SIZE, "copy_data": False}]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 80), st.integers(1, 90),
       st.lists(st.lists(st.integers(0, 79), min_size=1, max_size=40), min_size=1, max_size=6))
def test_lazy_sigmas_bitwise_on_random_draws(seed, n, k, draws):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    pts[n // 2:n // 2 + 2] = pts[0]  # ties
    full = local_sigmas(pts, k)
    lazy = training._LazySigmas(pts, k)
    for rows in draws:
        rows = np.array(rows) % n
        assert lazy(rows).tobytes() == full[rows].tobytes()
    assert np.isnan(lazy.values).sum() == lazy.unknown == n - len({r % n for d in draws for r in d})


def test_lazy_sigmas_of_one_point_are_zero(monkeypatch):
    monkeypatch.setattr(training, "local_sigmas", None)  # neither queries nor builds
    monkeypatch.setattr(training, "cKDTree", None)
    lazy = training._LazySigmas(np.zeros((1, 3)), 5)
    assert lazy(np.zeros(3, dtype=np.int64)).tolist() == [0.0] * 3


def test_local_sigmas_errors():
    with pytest.raises(TooFewPoints):
        local_sigmas(np.zeros((1, 3)), k=1)
    with pytest.raises(InvalidCount):
        local_sigmas(np.zeros((3, 3)), k=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 120), st.integers(1, 60))
def test_local_sigmas_matches_brute_force(seed, n, k):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    got = local_sigmas(pts, k)
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    d.sort(axis=1)
    kk = min(k, n - 1)
    assert np.array_equal(got, np.ascontiguousarray(d[:, kk]))


# ------------------------------------------------------- sample_off_surface

def test_off_surface_degenerate_distributions():
    surf = np.array([[0.25, -0.5, 0.75], [0.1, 0.2, 0.3]])
    out = sample_off_surface(surf, np.zeros(2), count=40, halfwidth=1e-300, seed=0)
    for p in out:
        on_surface = any(np.allclose(p, s, rtol=0, atol=0) for s in surf)
        assert on_surface or np.abs(p).max() < 1e-299


def test_off_surface_mixture_mean():
    s = sphere_samples(1.0, 4000, 0)
    out = sample_off_surface(s.points[0], np.full(4000, 0.05), 10000, 1.1, seed=1)
    assert len(out) == 10000
    assert np.abs(out.mean(axis=0)).max() < 0.05


def test_off_surface_split_counts():
    surf = np.zeros((3, 3))
    surf[:, 0] = (1.0, 2.0, 3.0)
    out = sample_off_surface(surf, np.zeros(3), count=7, halfwidth=1e-300, seed=2)
    near_surface = sum(abs(p[0]) > 0.5 for p in out)
    assert near_surface == 4  # ceil(7/2) Gaussian draws, floor(7/2) uniform


def test_off_surface_determinism():
    s = sphere_samples(0.8, 200, 3)
    sig = local_sigmas(s.points[0], 10)
    a = sample_off_surface(s.points[0], sig, 500, 1.1, seed=9)
    b = sample_off_surface(s.points[0], sig, 500, 1.1, seed=9)
    assert np.array_equal(a, b)


def test_off_surface_errors():
    with pytest.raises(InvalidCount):
        sample_off_surface(np.zeros((2, 3)), np.zeros(2), 0, 1.1, seed=0)
    with pytest.raises(ShapeMismatch):
        sample_off_surface(np.zeros((2, 3)), np.zeros(3), 5, 1.1, seed=0)


# --------------------------------------------------------- learning_rate_at

def test_learning_rate_examples():
    cfg = TrainConfig()
    assert learning_rate_at(0, cfg) == 1e-3
    assert learning_rate_at(499, cfg) == 1e-3
    assert learning_rate_at(500, cfg) == 5e-4
    assert learning_rate_at(4999, cfg) == 1e-3 * 0.5 ** 9
    assert abs(learning_rate_at(4999, cfg) - 1.953125e-6) < 1e-18


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 20000), st.integers(1, 1000))
def test_learning_rate_piecewise_nonincreasing(epoch, period):
    cfg = TrainConfig(lr_halving_period=period)
    a = learning_rate_at(epoch, cfg)
    b = learning_rate_at(epoch + 1, cfg)
    assert b <= a
    # constant within one period
    assert learning_rate_at((epoch // period) * period, cfg) == a


# ---------------------------------------------------------------- adam_step

def test_adam_zero_grad_identity():
    v = np.array([1.0, -2.0, 3.0])
    m = np.array([0.5, 0.0, -0.1])
    s = np.array([0.2, 0.0, 0.3])
    before = v.copy()
    # zero gradient decays the moments; with m=v=0 the value cannot move
    adam_step(v, np.zeros(3), np.zeros(3), np.zeros(3), step=1, lr=0.1)
    assert np.array_equal(v, before)
    adam_step(v, np.zeros(3), m, s, step=5, lr=0.0)
    assert np.array_equal(v, before)


def test_adam_first_step_magnitude():
    v = np.array([0.0])
    adam_step(v, np.array([0.5]), np.zeros(1), np.zeros(1), step=1, lr=0.1)
    assert abs(v[0] + 0.1 * (0.5 / (0.5 + 1e-8))) < 1e-7


def test_adam_three_step_trace_matches_textbook():
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.1
    theta = np.array([1.0])
    m = np.zeros(1)
    v = np.zeros(1)
    # independent scalar re-implementation
    th_ref, m_ref, v_ref = 1.0, 0.0, 0.0
    for t in (1, 2, 3):
        g = 2.0 * th_ref
        m_ref = beta1 * m_ref + (1 - beta1) * g
        v_ref = beta2 * v_ref + (1 - beta2) * g * g
        mh = m_ref / (1 - beta1 ** t)
        vh = v_ref / (1 - beta2 ** t)
        th_ref = th_ref - lr * mh / (np.sqrt(vh) + eps)
        adam_step(theta, 2.0 * theta.copy(), m, v, step=t, lr=lr,
                  beta1=beta1, beta2=beta2, eps=eps)
    assert abs(theta[0] - th_ref) < 1e-12


def test_adam_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        adam_step(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3), 1, 0.1)


# -------------------------------------------------------------------- train

def _tiny_setup(epochs, n_shapes=2, seed=0):
    samples = multi_sphere_samples([0.4 + 0.2 * k for k in range(n_shapes)],
                                   64, seed)
    arch = tiny_arch(latent_dim=4, width=8, layers=3, skip=1)
    cfg = TrainConfig(epochs=epochs, surface_batch_size=16, knn_k=5, seed=seed)
    return cfg, samples, arch


def test_train_zero_epochs_returns_initial_state():
    cfg, samples, arch = _tiny_setup(0)
    ck = train(cfg, samples, arch=arch)
    ref = init_params(arch, cfg.seed)
    for W, W0 in zip(ck.params.weights, ref.weights):
        assert np.array_equal(W, W0)
    expected_codes = np.random.default_rng([cfg.seed, 0]).normal(
        0.0, cfg.code_init_std, size=(2, 4))
    assert np.array_equal(ck.codes, expected_codes)
    assert ck.epochs_completed == 0


def test_train_code_init_distribution():
    samples = multi_sphere_samples([0.5] * 40, 16, 0)
    cfg = TrainConfig(epochs=0, surface_batch_size=8, knn_k=3)
    ck = train(cfg, samples, arch=tiny_arch(latent_dim=8))
    flat = ck.codes.ravel()
    assert abs(flat.std() - 1e-2) < 2e-3
    assert abs(flat.mean()) < 2e-3


def test_train_bitwise_deterministic():
    cfg, samples, arch = _tiny_setup(3)
    a = train(cfg, samples, arch=arch)
    b = train(cfg, samples, arch=arch)
    assert checkpoint_bytes(a) == checkpoint_bytes(b)


def test_train_resume_matches_straight_run():
    cfg5, samples, arch = _tiny_setup(5)
    half = train(TrainConfig(**{**cfg5.__dict__, "epochs": 2}), samples, arch=arch)
    resumed = train(cfg5, samples, arch=arch, initial=half)
    straight = train(cfg5, samples, arch=arch)
    assert checkpoint_bytes(resumed) == checkpoint_bytes(straight)


def test_train_resume_never_writes_its_input():
    cfg4, samples, arch = _tiny_setup(4)
    half = train(TrainConfig(**{**cfg4.__dict__, "epochs": 2}), samples, arch=arch)
    before = checkpoint_bytes(half)
    first = train(cfg4, samples, arch=arch, initial=half)
    second = train(cfg4, samples, arch=arch, initial=half)
    assert checkpoint_bytes(half) == before
    assert checkpoint_bytes(first) == checkpoint_bytes(second)


def test_train_rejects_target_below_completed_epochs():
    cfg4, samples, arch = _tiny_setup(4)
    done = train(cfg4, samples, arch=arch)
    with pytest.raises(ConfigMismatch, match="below the 4 already completed"):
        train(TrainConfig(**{**cfg4.__dict__, "epochs": 2}), samples,
              arch=arch, initial=done)
    # a target equal to the completed count runs no epoch
    again = train(cfg4, samples, arch=arch, initial=done)
    assert checkpoint_bytes(again) == checkpoint_bytes(done)


@pytest.mark.parametrize("change", [{"seed": 7}, {"initial_lr": 0.5}, {"knn_k": 3},
                                    {"squared_code_reg": True}, {"tau": 0.25}])
def test_train_resume_rejects_a_changed_config(change):
    # the checkpoint records one config, so a resume may change only epochs
    cfg4, samples, arch = _tiny_setup(4)
    half = train(TrainConfig(**{**cfg4.__dict__, "epochs": 2}), samples, arch=arch)
    (key, value), = change.items()
    with pytest.raises(ConfigMismatch, match=f"resume config sets {key} = {value!r}, "
                       f"but the checkpoint was trained with {getattr(cfg4, key)!r}"):
        train(TrainConfig(**{**cfg4.__dict__, **change}), samples, arch=arch, initial=half)


def test_train_validates_samples_before_any_step(monkeypatch):
    cfg, samples, arch = _tiny_setup(2)
    samples.points[1][5, 0] = np.nan

    def never(*args, **kwargs):
        raise AssertionError("train went past its sample check")

    monkeypatch.setattr(training, "local_sigmas", never)
    monkeypatch.setattr(training, "cKDTree", never)
    monkeypatch.setattr(training, "loss_gradients", never)
    with pytest.raises(NonFiniteValue, match="shape 1"):
        train(cfg, samples, arch=arch)


def test_train_queries_only_the_scales_it_draws(monkeypatch):
    # one epoch visits each shape once and draws ceil(M/2) Gaussian rows there
    cfg, samples, arch = _tiny_setup(1, n_shapes=3)
    M = round(cfg.surface_batch_size * cfg.offsurface_ratio)
    queried = _spy_queries(monkeypatch)
    train(cfg, samples, arch=arch)
    assert sorted(queried) == sorted(id(p) for p in samples.points)
    for rows in queried.values():
        assert len(rows) <= -(-M // 2)
        assert len(rows) == len(set(rows))


def test_train_resume_with_nothing_to_run_builds_no_tree(monkeypatch):
    cfg, samples, arch = _tiny_setup(2)
    done = train(cfg, samples, arch=arch)

    def never(*args, **kwargs):
        raise AssertionError("a resume with no epoch to run queried a scale")

    monkeypatch.setattr(training, "local_sigmas", never)
    monkeypatch.setattr(training, "cKDTree", never)
    assert checkpoint_bytes(train(cfg, samples, arch=arch, initial=done)) == checkpoint_bytes(done)


class _EagerSigmas:
    """The scales of every row at once, as train took them before they were
    queried on demand."""

    def __init__(self, points, k):
        self.values = local_sigmas(points, k) if len(points) >= 2 else np.zeros(len(points))

    def __call__(self, rows):
        return self.values[rows]


def test_train_with_lazy_scales_gives_the_eager_bytes(tmp_path, monkeypatch):
    # 4 epochs of 8 Gaussian rows over 64 samples: rows repeat across steps
    cfg4, samples, arch = _tiny_setup(4)
    outputs = {}
    for side in ("lazy", "eager"):
        if side == "eager":
            monkeypatch.setattr(training, "_LazySigmas", _EagerSigmas)
        path = tmp_path / f"{side}.csv"
        half = train(TrainConfig(**{**cfg4.__dict__, "epochs": 2}), samples,
                     arch=arch, metrics=path)
        ck = train(cfg4, samples, arch=arch, initial=half, metrics=path)
        outputs[side] = (checkpoint_bytes(ck), path.read_bytes())
    assert outputs["lazy"] == outputs["eager"]


def test_train_metrics_header_only_into_an_empty_sink(tmp_path):
    cfg, samples, arch = _tiny_setup(1)
    buf = io.StringIO()
    buf.write("earlier\n")
    train(cfg, samples, arch=arch, metrics=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2 and lines[0] == "earlier" and lines[1].startswith("0,")
    path = tmp_path / "m.csv"
    path.write_text("")
    train(cfg, samples, arch=arch, metrics=str(path))
    assert path.read_text().splitlines()[0] == METRICS_HEADER


def test_train_visits_every_shape_each_epoch(monkeypatch):
    # one step per code row each epoch: every epoch is a permutation of the
    # shapes.  At visit i of epoch e the 6 parameter tensors take Adam step
    # 3e + i + 1 and the code step e + 1, as Python ints
    cfg, samples, arch = _tiny_setup(4, n_shapes=3)
    loss_gradients, adam_step, rows, steps = training.loss_gradients, training.adam_step, [], []

    def counting(params, z, *args):
        rows.append((z.ctypes.data - z.base.ctypes.data) // z.nbytes)  # z is codes[row]
        return loss_gradients(params, z, *args)

    def recording(value, grad, m, v, step, *args):
        steps.append(step)
        return adam_step(value, grad, m, v, step, *args)

    monkeypatch.setattr(training, "loss_gradients", counting)
    monkeypatch.setattr(training, "adam_step", recording)
    train(cfg, samples, arch=arch)
    assert [sorted(rows[3 * e:3 * e + 3]) for e in range(4)] == [[0, 1, 2]] * 4
    assert len(rows) == 12
    assert steps == [s for e in range(4) for i in range(3) for s in [3 * e + i + 1] * 6 + [e + 1]]
    assert {type(s) for s in steps} == {int}


def test_train_metrics_stream():
    cfg, samples, arch = _tiny_setup(3)
    buf = io.StringIO()
    train(cfg, samples, arch=arch, metrics=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[-1]) == 1e-3


def test_train_metrics_path_append_on_resume(tmp_path):
    cfg5, samples, arch = _tiny_setup(4)
    path = tmp_path / "metrics.csv"
    half = train(TrainConfig(**{**cfg5.__dict__, "epochs": 2}), samples,
                 arch=arch, metrics=path)
    train(cfg5, samples, arch=arch, initial=half, metrics=path)
    lines = path.read_text().strip().splitlines()
    assert lines.count(METRICS_HEADER) == 1
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2", "3"]


def test_train_resume_arch_mismatch():
    cfg, samples, arch = _tiny_setup(2)
    ck = train(cfg, samples, arch=arch)
    other = tiny_arch(latent_dim=4, width=16, layers=3, skip=1)
    with pytest.raises(ConfigMismatch, match="^resume config sets hidden_width = 16, "
                       "but the checkpoint was trained with 8$"):
        train(TrainConfig(**{**cfg.__dict__, "epochs": 4}), samples,
              arch=other, initial=ck)


def test_train_refuses_a_network_beyond_physical_memory(monkeypatch):
    def fail(*args):
        raise AssertionError("init_params was called")

    cfg, samples, _ = _tiny_setup(0)
    monkeypatch.setattr(training, "init_params", fail)
    # six 100000 x 100000 layers: 1.7e12 bytes with Adam's two moments
    with pytest.raises(NetworkTooLarge, match="hidden_width = 100000") as info:
        train(cfg, samples, arch=Architecture(hidden_width=100000, latent_dim=4))
    assert str(info.value).startswith("layer_count = 8, hidden_width = 100000, latent_dim = 4")
    # the bound is 3 float64 per parameter
    arch = tiny_arch(latent_dim=4, width=8, layers=3, skip=1)
    monkeypatch.setattr(blas, "physical_memory", lambda: 24 * arch.parameter_count() - 1)
    with pytest.raises(NetworkTooLarge):
        train(cfg, samples, arch=arch)
    monkeypatch.setattr(blas, "physical_memory", lambda: 24 * arch.parameter_count())
    with pytest.raises(AssertionError, match="init_params was called"):
        train(cfg, samples, arch=arch)


def test_train_empty_samples():
    from sdfshapes.mesh import SurfaceSampleSet
    with pytest.raises(EmptySurfaceSet):
        train(TrainConfig(epochs=1), SurfaceSampleSet(), tiny_arch())


def test_train_aborts_on_non_finite_loss():
    cfg, samples, arch = _tiny_setup(2)
    blown = train(TrainConfig(**{**cfg.__dict__, "epochs": 0}), samples, arch=arch)
    for W in blown.params.weights:
        W[:] = 1e200
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteLoss):
            train(cfg, samples, arch=arch, initial=blown)


def test_train_loss_decreases():
    samples = sphere_samples(0.6, 400, 0)
    arch = tiny_arch(latent_dim=4, width=16, layers=3, skip=1)
    cfg = TrainConfig(epochs=60, surface_batch_size=64, knn_k=10, seed=0)
    buf = io.StringIO()
    train(cfg, samples, arch=arch, metrics=buf)
    rows = [ln.split(",") for ln in buf.getvalue().strip().splitlines()[1:]]
    first, last = float(rows[0][1]), float(rows[-1][1])
    assert last < first
