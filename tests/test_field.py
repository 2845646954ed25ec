"""Field network evaluation, spatial gradients, and exact loss gradients.

All gradient checks are against central finite differences of the scalar
loss / field value, which is an independent oracle for the hand-written
tangent + reverse sweeps.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfshapes.errors import DimensionMismatch
from sdfshapes.field import (_BLOCK, Architecture, FieldParams, _trace, forward, init_params,
                             loss_gradients, shape_loss, softplus, spatial_gradient)

from conftest import flatten, from_flat, linear_field, random_params, tiny_arch


def _random_batch(rng, n):
    pts = rng.uniform(-0.9, 0.9, (n, 3))
    nrm = rng.normal(size=(n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return pts, nrm


# ------------------------------------------------------------- Architecture

def test_architecture_defaults_and_dims():
    a = Architecture()
    assert (a.layer_count, a.hidden_width, a.latent_dim, a.skip_layer) == (8, 512, 256, 4)
    dims = a.layer_dims()
    assert dims[0] == (259, 512)
    assert dims[4] == (512 + 259, 512)  # widened by the skip concatenation
    assert dims[7] == (512, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 40), st.integers(1, 20), st.integers(1, 8))
def test_parameter_count_sums_layer_dims(layers, width, latent, skip):
    arch = Architecture(layer_count=layers, hidden_width=width, latent_dim=latent,
                        skip_layer=min(skip, max(1, layers - 1)))
    want = sum((din + 1) * dout for din, dout in arch.layer_dims())
    params = init_params(arch, 0)
    count = sum(W.size + b.size for W, b in zip(params.weights, params.biases))
    assert arch.parameter_count() == want == count


def test_architecture_validation():
    with pytest.raises(DimensionMismatch):
        Architecture(layer_count=0)
    with pytest.raises(DimensionMismatch):
        Architecture(skip_layer=0)
    with pytest.raises(DimensionMismatch):
        Architecture(layer_count=4, skip_layer=4)
    with pytest.raises(DimensionMismatch):
        Architecture(softplus_beta=0.0)
    with pytest.raises(DimensionMismatch):
        Architecture(latent_dim=0)
    # the counts must fit their u32 checkpoint fields
    with pytest.raises(DimensionMismatch, match="^latent_dim must be < 4294967296"):
        Architecture(latent_dim=2**32)
    for width in (0, -5):
        with pytest.raises(DimensionMismatch, match="hidden_width"):
            Architecture(hidden_width=width)


def test_params_flatten_roundtrip():
    arch = tiny_arch()
    p = random_params(arch, 0)
    q = from_flat(arch, flatten(p))
    for W, W2 in zip(p.weights, q.weights):
        assert np.array_equal(W, W2)
    for b, b2 in zip(p.biases, q.biases):
        assert np.array_equal(b, b2)


# -------------------------------------------------------------- init_params

def test_geometric_init_sign_flip_across_surface():
    arch = tiny_arch(latent_dim=8, width=64, layers=8, skip=4)
    p = init_params(arch, 0)
    z = np.zeros(8)
    inner = forward(p, z, np.array([[0.0, 0.0, 0.0]]))[0]
    outer = forward(p, z, np.array([[0.0, 0.0, 0.99]]))[0]
    assert inner < 0 < outer  # negative inside, approximately a 0.5 sphere


def test_geometric_init_ignores_latent_at_start():
    arch = tiny_arch(latent_dim=6, width=32, layers=4, skip=2)
    p = init_params(arch, 1)
    xs = np.random.default_rng(0).uniform(-1, 1, (10, 3))
    a = forward(p, np.zeros(6), xs)
    b = forward(p, np.full(6, 0.7), xs)
    assert np.array_equal(a, b)


def test_init_determinism():
    arch = tiny_arch()
    p = init_params(arch, 42)
    q = init_params(arch, 42)
    for W, W2 in zip(p.weights, q.weights):
        assert np.array_equal(W, W2)


# ------------------------------------------------------------------ forward

def test_forward_constant_network():
    arch = tiny_arch()
    weights = [np.zeros((dout, din)) for din, dout in arch.layer_dims()]
    biases = [np.zeros(dout) for _, dout in arch.layer_dims()]
    biases[-1][:] = 0.3
    p = FieldParams(arch, weights, biases)
    xs = np.random.default_rng(0).uniform(-1, 1, (7, 3))
    # zero weights: hidden constants propagate through softplus, final bias adds
    beta = arch.softplus_beta
    const = 0.0
    assert np.allclose(forward(p, np.zeros(4), xs), 0.3)
    assert softplus(np.array([const]), beta)[0] >= 0


def test_forward_one_layer_constant_exact():
    arch = Architecture(layer_count=1, hidden_width=1, latent_dim=1, skip_layer=1)
    p = FieldParams(arch, [np.zeros((1, 4))], [np.array([0.3])])
    out = forward(p, np.zeros(1), np.array([[1.0, 2.0, 3.0]]))
    assert out[0] == 0.3


def test_forward_linear_degenerate():
    p = linear_field((1.0, 0.0, 0.0))
    out = forward(p, np.zeros(1), np.array([[0.2, 0.5, -0.1]]))
    assert out[0] == 0.2


def test_forward_batch_equals_per_point_bitwise():
    arch = tiny_arch()
    p = random_params(arch, 5)
    z = np.random.default_rng(1).normal(size=4) * 0.3
    xs = np.random.default_rng(2).uniform(-1, 1, (9, 3))
    batch = forward(p, z, xs)
    singles = np.array([forward(p, z, xs[i:i + 1])[0] for i in range(9)])
    assert np.array_equal(batch, singles)


def test_forward_chunking_invariance_bitwise():
    arch = tiny_arch(width=16)
    p = random_params(arch, 7)
    z = np.zeros(4)
    xs = np.random.default_rng(3).uniform(-1, 1, (2500, 3))
    whole = forward(p, z, xs)
    parts = np.concatenate([forward(p, z, xs[:700]), forward(p, z, xs[700:1500]),
                            forward(p, z, xs[1500:])])
    assert np.array_equal(whole, parts)


def test_forward_dimension_errors():
    p = random_params(tiny_arch(), 0)
    with pytest.raises(DimensionMismatch):
        forward(p, np.zeros(3), np.zeros((2, 3)))  # wrong latent dim
    with pytest.raises(DimensionMismatch):
        forward(p, np.zeros(4), np.zeros((0, 3)))  # empty batch


def test_skip_noop_matches_plain_mlp():
    # zeroing the re-injection columns makes the skip a no-op; the network
    # must then agree with an ordinary MLP evaluated by an independent loop
    arch = tiny_arch(latent_dim=4, width=8, layers=4, skip=2)
    p = random_params(arch, 9)
    p.weights[2][:, arch.hidden_width:] = 0.0
    z = np.random.default_rng(4).normal(size=4) * 0.2
    xs = np.random.default_rng(5).uniform(-1, 1, (6, 3))
    got = forward(p, z, xs)

    beta = arch.softplus_beta
    c = np.hstack([np.tile(z, (6, 1)), xs])
    h = c
    ref_weights = list(p.weights)
    ref_weights[2] = p.weights[2][:, :arch.hidden_width]
    for j, (W, b) in enumerate(zip(ref_weights, p.biases)):
        a = h @ W.T + b
        h = softplus(a, beta) if j < arch.layer_count - 1 else a
    assert np.allclose(got, h[:, 0], rtol=0, atol=1e-12)


# --------------------------------------------------------- spatial_gradient

def test_gradient_zero_weights():
    arch = tiny_arch()
    p = FieldParams(arch, [np.zeros((dout, din)) for din, dout in arch.layer_dims()],
                    [np.zeros(dout) for _, dout in arch.layer_dims()])
    g = spatial_gradient(p, np.zeros(4), np.random.default_rng(0).uniform(-1, 1, (5, 3)))
    assert (g == 0).all()


def test_gradient_linear_degenerate():
    w = np.array([0.3, -1.2, 0.5])
    p = linear_field(w, b=0.7)
    g = spatial_gradient(p, np.zeros(1), np.random.default_rng(1).uniform(-1, 1, (8, 3)))
    assert np.allclose(g, w, rtol=0, atol=0)


def _fd_spatial(params, z, x, h=1e-5):
    g = np.zeros(3)
    for a in range(3):
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        g[a] = (forward(params, z, xp[None])[0] - forward(params, z, xm[None])[0]) / (2 * h)
    return g


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_spatial_gradient_matches_fd_property(seed):
    rng = np.random.default_rng(seed)
    arch = tiny_arch(latent_dim=4, width=8, layers=3, skip=1)
    p = random_params(arch, rng.integers(2**31))
    z = rng.normal(size=4) * 0.3
    x = rng.uniform(-0.9, 0.9, 3)
    ana = spatial_gradient(p, z, x[None])[0]
    fd = _fd_spatial(p, z, x)
    assert np.allclose(ana, fd, rtol=1e-6, atol=1e-8)


def test_spatial_gradient_rows_do_not_depend_on_the_batch():
    # a batch of one and a half blocks against one call per point
    p = random_params(tiny_arch(width=16), 7)
    z = np.random.default_rng(1).normal(size=4) * 0.3
    xs = np.random.default_rng(2).uniform(-1, 1, (_BLOCK + _BLOCK // 2, 3))
    batch = spatial_gradient(p, z, xs)
    for i, x in enumerate(xs):
        assert spatial_gradient(p, z, x[None]).tobytes() == batch[i:i + 1].tobytes()


def test_spatial_gradient_memory_is_bounded_by_its_block():
    # 10,000 points trace no more at once than one padded block does
    p = random_params(Architecture(layer_count=8, hidden_width=64, latent_dim=8,
                                   skip_layer=4), 3)
    peaks = []
    for n in (1, 10_000):
        xs = np.random.default_rng(n).uniform(-1, 1, (n, 3))
        tracemalloc.start()
        try:
            spatial_gradient(p, np.zeros(8), xs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # beyond one block's trace: the (n, 11) input and the (n, 3) output
    assert peaks[1] < peaks[0] + 10_000 * (11 + 3) * 8 + 2 ** 20, peaks


# --------------------------------------------------------------- shape_loss

def test_shape_loss_exact_plane_zero():
    # f(x) = x_0 with surface points at x_0 = 0 exactly: every term vanishes
    p = linear_field((1.0, 0.0, 0.0))
    z = np.zeros(1)
    rng = np.random.default_rng(0)
    pts = np.column_stack([np.zeros(20), rng.uniform(-1, 1, (20, 2))])
    nrm = np.tile((1.0, 0.0, 0.0), (20, 1))
    off = rng.uniform(-1, 1, (15, 3))
    bd = shape_loss(p, z, pts, nrm, off, tau=0.5, lam=1e-4)
    assert bd.total == 0.0


def test_shape_loss_zero_network_unit_total():
    arch = tiny_arch()
    p = FieldParams(arch, [np.zeros((dout, din)) for din, dout in arch.layer_dims()],
                    [np.zeros(dout) for _, dout in arch.layer_dims()])
    bd = shape_loss(p, np.zeros(4), np.array([[0.1, 0.2, 0.3]]),
                    np.array([[1.0, 0.0, 0.0]]), None, tau=0.5, lam=0.0)
    assert bd.total == 1.0
    assert bd.eikonal_term == 0.0  # empty off-surface batch


def test_shape_loss_code_term_arithmetic():
    p = linear_field((1.0, 0.0, 0.0), latent_dim=2)
    z = np.array([2.0, 0.0])  # ||z|| = 2, field ignores z
    pts = np.column_stack([np.zeros(5), np.arange(5.0)[:, None] * [[0.1, 0.2]]])
    nrm = np.tile((1.0, 0.0, 0.0), (5, 1))
    bd = shape_loss(p, z, pts, nrm, None, tau=0.5, lam=1e-4)
    assert abs(bd.total - 2e-4) < 1e-18
    assert bd.code_reg_term == 2.0


def test_shape_loss_squared_code_reg_switch():
    p = linear_field((1.0, 0.0, 0.0), latent_dim=2)
    z = np.array([0.0, 3.0])
    pts = np.array([[0.0, 0.1, 0.2]])
    nrm = np.array([[1.0, 0.0, 0.0]])
    bd = shape_loss(p, z, pts, nrm, None, 0.5, 1e-4, squared_code_reg=True)
    assert bd.code_reg_term == 9.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_shape_loss_total_identity_and_nonnegativity(seed):
    rng = np.random.default_rng(seed)
    arch = tiny_arch()
    p = random_params(arch, rng.integers(2**31))
    z = rng.normal(size=4) * 0.5
    pts, nrm = _random_batch(rng, 8)
    off = rng.uniform(-1.1, 1.1, (6, 3))
    tau = float(rng.uniform(0, 2))
    lam = float(rng.uniform(0, 1e-2))
    bd = shape_loss(p, z, pts, nrm, off, tau, lam)
    for term in (bd.surface_term, bd.normal_term, bd.eikonal_term, bd.code_reg_term):
        assert term >= 0
    ident = bd.surface_term + bd.normal_term + tau * bd.eikonal_term + lam * bd.code_reg_term
    assert abs(bd.total - ident) < 1e-12


# ----------------------------------------------------------- loss_gradients

def _fd_loss_grads(params, z, pts, nrm, off, tau, lam, coords, h=1e-5):
    """Central differences of shape_loss over selected flat-parameter coords
    and all latent coordinates."""
    arch = params.arch
    flat = flatten(params)

    def at(fl):
        return shape_loss(from_flat(arch, fl), z, pts, nrm, off,
                          tau, lam).total

    fd_p = {}
    for i in coords:
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        fd_p[i] = (at(fp) - at(fm)) / (2 * h)
    fd_z = np.zeros_like(z)
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        fd_z[i] = (shape_loss(params, zp, pts, nrm, off, tau, lam).total
                   - shape_loss(params, zm, pts, nrm, off, tau, lam).total) / (2 * h)
    return fd_p, fd_z


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_loss_gradients_match_fd_property(seed):
    rng = np.random.default_rng(seed)
    arch = tiny_arch(latent_dim=4, width=8, layers=3, skip=1)
    p = random_params(arch, rng.integers(2**31))
    z = rng.normal(size=4) * 0.4
    pts, nrm = _random_batch(rng, 16)
    off = rng.uniform(-1.1, 1.1, (16, 3))
    wg, bg, zg, _ = loss_gradients(p, z, pts, nrm, off, 0.5, 1e-4)
    ana = np.concatenate([a.ravel() for pair in zip(wg, bg) for a in pair])
    coords = rng.choice(ana.size, size=12, replace=False)
    fd_p, fd_z = _fd_loss_grads(p, z, pts, nrm, off, 0.5, 1e-4, coords)
    for i, fd in fd_p.items():
        assert np.isclose(ana[i], fd, rtol=1e-4, atol=1e-8)
    assert np.allclose(zg, fd_z, rtol=1e-4, atol=1e-8)


def test_loss_gradients_stationary_at_exact_plane():
    p = linear_field((1.0, 0.0, 0.0))
    z = np.zeros(1)
    rng = np.random.default_rng(0)
    pts = np.column_stack([np.zeros(10), rng.uniform(-1, 1, (10, 2))])
    nrm = np.tile((1.0, 0.0, 0.0), (10, 1))
    off = rng.uniform(-1, 1, (10, 3))
    wg, bg, zg, bd = loss_gradients(p, z, pts, nrm, off, 0.5, 1e-4)
    assert bd.total == 0.0
    assert all((W == 0).all() for W in wg)
    assert all((b == 0).all() for b in bg)
    assert (zg == 0).all()


def test_loss_gradients_affine_in_tau():
    rng = np.random.default_rng(8)
    arch = tiny_arch()
    p = random_params(arch, 8)
    z = rng.normal(size=4) * 0.3
    pts, nrm = _random_batch(rng, 6)
    off = rng.uniform(-1, 1, (6, 3))

    def flat_grad(tau):
        wg, bg, zg, _ = loss_gradients(p, z, pts, nrm, off, tau, 1e-4)
        return np.concatenate([a.ravel() for pair in zip(wg, bg) for a in pair] + [zg])

    g0, g05, g1 = flat_grad(0.0), flat_grad(0.5), flat_grad(1.0)
    assert np.abs((g1 - g0) - 2.0 * (g05 - g0)).max() < 1e-12


def test_loss_gradients_breakdown_matches_shape_loss():
    rng = np.random.default_rng(12)
    arch = tiny_arch()
    p = random_params(arch, 12)
    z = rng.normal(size=4) * 0.3
    pts, nrm = _random_batch(rng, 5)
    off = rng.uniform(-1, 1, (4, 3))
    _, _, _, bd = loss_gradients(p, z, pts, nrm, off, 0.5, 1e-4)
    ref = shape_loss(p, z, pts, nrm, off, 0.5, 1e-4)
    assert bd.total == ref.total
    assert bd.surface_term == ref.surface_term
    assert bd.eikonal_term == ref.eikonal_term


def test_skip_into_output_layer_gradients_match_fd():
    # skip_layer = layer_count - 1 widens the output layer's own input
    rng = np.random.default_rng(11)
    arch = tiny_arch(latent_dim=4, width=8, layers=3, skip=2)
    p = random_params(arch, 12)
    z = rng.normal(size=4) * 0.4
    x = rng.uniform(-0.9, 0.9, 3)
    assert np.allclose(spatial_gradient(p, z, x[None])[0], _fd_spatial(p, z, x),
                       rtol=1e-6, atol=1e-8)
    pts, nrm = _random_batch(rng, 16)
    off = rng.uniform(-1.1, 1.1, (16, 3))
    wg, bg, zg, _ = loss_gradients(p, z, pts, nrm, off, 0.5, 1e-4)
    ana = np.concatenate([a.ravel() for pair in zip(wg, bg) for a in pair])
    coords = rng.choice(ana.size, size=12, replace=False)
    fd_p, fd_z = _fd_loss_grads(p, z, pts, nrm, off, 0.5, 1e-4, coords)
    for i, fd in fd_p.items():
        assert np.isclose(ana[i], fd, rtol=1e-4, atol=1e-8)
    assert np.allclose(zg, fd_z, rtol=1e-4, atol=1e-8)


def _masked_slope(t, beta):
    """softplus' = sigmoid(beta t) as the textbook overflow-safe formula, one
    boolean mask per branch."""
    bt = beta * t
    out = np.empty_like(bt)
    pos = bt >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-bt[pos]))
    e = np.exp(bt[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@pytest.mark.parametrize("beta", [100.0, 1.0, 3.7, 0.01])
def test_trace_slopes_bitwise_equal_to_masked_formula(beta):
    mags = np.concatenate([10.0 ** np.arange(-300, 301, 0.5),
                           [0.0, 5e-324, 1e-310, np.finfo(float).tiny,
                            np.finfo(float).max, np.inf]])
    t = np.concatenate([mags, -mags, [np.nan]])
    H = len(t)
    # zero weights: layer 0's pre-activations are its biases, t, on every row
    arch = Architecture(layer_count=2, hidden_width=H, latent_dim=1, skip_layer=1,
                        softplus_beta=beta)
    params = FieldParams(arch, [np.zeros((H, 4)), np.ones((1, H + 4))], [t, np.zeros(1)])
    with np.errstate(all="ignore"):
        _, (slope,), *_ = _trace(params, np.zeros((2, 4)))
        ref = _masked_slope(np.broadcast_to(t, slope.shape), beta)
    real = ~np.isnan(t)  # NaN payloads may differ
    assert slope[:, real].tobytes() == ref[:, real].tobytes()
    assert np.isnan(slope[:, ~real]).all()


def _two_sweep_loss_gradients(params, z, pts_s, nrm, off, tau, lam, squared_code_reg):
    """Reference kernel: a forward trace, the field's reverse sweep for the
    spatial gradient, a tangent pass, then a reverse sweep that carries its
    own tangent adjoint (udotbar = adotbar @ W) beside the primal one."""
    arch = params.arch
    beta, d, H, L = arch.softplus_beta, arch.latent_dim, arch.hidden_width, arch.layer_count
    Ns, Mo = len(pts_s), 0 if off is None else len(off)
    pts = np.vstack([pts_s, off]) if Mo else pts_s
    B = len(pts)
    c = np.empty((B, d + 3))
    c[:, :d] = z
    c[:, d:] = pts
    us, as_, h = [], [], c
    for j, (W, b) in enumerate(zip(params.weights, params.biases)):
        if j == arch.skip_layer:
            h = np.concatenate([h, c], axis=1)
        a = h @ W.T
        a += b
        us.append(h)
        as_.append(a)
        if j < L - 1:
            h = softplus(a, beta)
    phi1 = [_masked_slope(a, beta) for a in as_[:-1]]
    phi2 = [beta * s * (1.0 - s) for s in phi1]
    y = as_[-1][:, 0]
    gbar = np.zeros((B, d + 3))
    W = params.weights[-1]
    ubar = np.broadcast_to(W[0], (B, W.shape[1]))
    for j in range(L - 1, 0, -1):
        if j == arch.skip_layer:
            gbar += ubar[:, H:]
            ubar = ubar[:, :H]
        ubar = (ubar * phi1[j - 1]) @ params.weights[j - 1]
    gbar += ubar
    g = gbar[:, d:]
    y_s, g_s, g_o = y[:Ns], g[:Ns], g[Ns:]
    eikonal = float(np.mean((np.linalg.norm(g_o, axis=1) - 1.0) ** 2)) if Mo else 0.0
    znorm = float(np.linalg.norm(z))
    terms = [float(np.mean(np.abs(y_s))), float(np.mean(np.sum((g_s - nrm) ** 2, axis=1))),
             eikonal, znorm ** 2 if squared_code_reg else znorm]
    terms.append(terms[0] + terms[1] + tau * terms[2] + lam * terms[3])

    cy = np.zeros(B)
    cy[:Ns] = np.sign(y_s) / Ns
    v = np.zeros((B, 3))
    v[:Ns] = 2.0 * (g_s - nrm) / Ns
    if Mo:
        gn = np.linalg.norm(g_o, axis=1)
        safe = gn > 0
        coef = np.zeros(Mo)
        coef[safe] = tau * 2.0 * (gn[safe] - 1.0) / (gn[safe] * Mo)
        v[Ns:] = coef[:, None] * g_o
    cdot = np.zeros((B, d + 3))
    cdot[:, d:] = v
    udots, adots, hdot = [], [], cdot
    for j in range(L):
        if j == arch.skip_layer:
            hdot = np.concatenate([hdot, cdot], axis=1)
        udots.append(hdot)
        adots.append(hdot @ params.weights[j].T)
        if j < L - 1:
            hdot = phi1[j] * adots[j]

    w_grads = [np.zeros_like(W) for W in params.weights]
    b_grads = [np.zeros_like(b) for b in params.biases]
    cbar = np.zeros((B, d + 3))
    abar = cy[:, None]
    adotbar = np.ones((B, 1))
    for j in range(L - 1, -1, -1):
        w_grads[j] = abar.T @ us[j] + adotbar.T @ udots[j]
        b_grads[j] = abar.sum(axis=0)
        ubar = abar @ params.weights[j]
        udotbar = adotbar @ params.weights[j]
        if j == 0:
            cbar += ubar
            break
        if j == arch.skip_layer:
            hbar = ubar[:, :H]
            cbar += ubar[:, H:]
            hdotbar = udotbar[:, :H]
        else:
            hbar = ubar
            hdotbar = udotbar
        abar = hbar * phi1[j - 1] + hdotbar * phi2[j - 1] * adots[j - 1]
        adotbar = hdotbar * phi1[j - 1]
    z_grad = cbar[:, :d].sum(axis=0)
    if squared_code_reg:
        z_grad = z_grad + lam * 2.0 * z
    elif znorm > 0:
        z_grad = z_grad + lam * z / znorm
    return w_grads, b_grads, z_grad, terms


@st.composite
def _architectures(draw):
    layers = draw(st.integers(1, 5))
    skip = 1 if layers == 1 else draw(st.integers(1, layers - 1))  # includes L - 1
    return tiny_arch(latent_dim=draw(st.sampled_from([1, 3, 8])),
                     width=draw(st.integers(1, 12)), layers=layers, skip=skip)


@settings(max_examples=60, deadline=None)
@given(_architectures(), st.integers(0, 2**31 - 1), st.integers(1, 9),
       st.integers(-1, 9), st.booleans())
def test_loss_gradients_bitwise_equal_to_two_sweep_reference(arch, seed, n_surf, n_off,
                                                             squared_code_reg):
    rng = np.random.default_rng(seed)
    p = random_params(arch, seed)
    z = rng.normal(size=arch.latent_dim) * 0.3
    pts, nrm = _random_batch(rng, n_surf)
    off = None if n_off < 0 else rng.uniform(-1.1, 1.1, (n_off, 3))  # n_off = 0: empty batch
    wg, bg, zg, bd = loss_gradients(p, z, pts, nrm, off, 0.5, 1e-3, squared_code_reg)
    rw, rb, rz, terms = _two_sweep_loss_gradients(p, z, pts, nrm, off, 0.5, 1e-3,
                                                  squared_code_reg)
    for got, ref in zip(wg + bg + [zg], rw + rb + [rz]):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert [bd.surface_term, bd.normal_term, bd.eikonal_term, bd.code_reg_term,
            bd.total] == terms
