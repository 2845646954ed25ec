"""Latent-conditioned scalar field network and exact gradients of its loss.

The network is a fully connected auto-decoder: the latent code and query
point are concatenated, pushed through softplus layers, and re-injected via
a skip concatenation partway down.  All arithmetic is float64.

The training loss penalizes the field value and normal mismatch on surface
samples, deviation of the spatial gradient from unit norm off the surface,
and the latent code norm.  Because the loss contains the spatial gradient,
its parameter gradient needs second-order terms; these are computed exactly
in four sweeps: the forward sweep, the field's reverse sweep (which gives the
spatial gradient and df/du for every layer input u), a tangent (forward-mode)
pass, and a reverse sweep over the primal and tangent computations whose
tangent adjoint is that same df/du.  The forward sweep takes one exp per
hidden layer: it gives both the softplus value and its slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

# Row-wise results of a BLAS matmul depend on the batch size for small
# batches.  Public forward evaluation therefore always runs fixed-shape
# (zero-padded) blocks, which makes every per-point value identical no
# matter how callers batch or chunk their queries.
_BLOCK = 1024


@dataclass
class Architecture:
    """Layer layout of the field network."""

    layer_count: int = 8
    hidden_width: int = 512
    latent_dim: int = 256
    skip_layer: int = 4  # concatenation of (z, x) feeds the layer after this one
    softplus_beta: float = 100.0

    def __post_init__(self):
        if self.layer_count < 1:
            raise DimensionMismatch("layer_count must be >= 1")
        if self.skip_layer < 1:
            raise DimensionMismatch("skip_layer must be >= 1")
        # layer_count == 1 is a purely linear degenerate form used in tests;
        # the skip can never fire there, so the upper bound only applies otherwise
        if self.layer_count >= 2 and not self.skip_layer < self.layer_count:
            raise DimensionMismatch("skip_layer must be in [1, layer_count)")
        if not (np.isfinite(self.softplus_beta) and self.softplus_beta > 0):  # NaN fails
            raise DimensionMismatch(f"softplus_beta must be finite and positive, "
                                    f"got {self.softplus_beta!r}")
        if self.latent_dim < 1:
            raise DimensionMismatch("latent_dim must be >= 1")
        if self.hidden_width < 1:
            raise DimensionMismatch("hidden_width must be >= 1")
        for name in ("layer_count", "hidden_width", "latent_dim", "skip_layer"):
            if getattr(self, name) >= 2 ** 32:  # the checkpoint's u32 fields
                raise DimensionMismatch(f"{name} must be < {2 ** 32}, "
                                        f"got {getattr(self, name)}")

    @property
    def input_dim(self) -> int:
        return self.latent_dim + 3

    def layer_dims(self):
        """(in_dim, out_dim) per layer, accounting for the skip widening."""
        L, H = self.layer_count, self.hidden_width
        dims = []
        for j in range(L):
            din = self.input_dim if j == 0 else H
            if j == self.skip_layer:
                din = H + self.input_dim
            dout = 1 if j == L - 1 else H
            dims.append((din, dout))
        return dims

    def parameter_count(self) -> int:
        """Weights and biases of all layers, the sum of (in + 1) * out over
        layer_dims(), in closed form so that it costs nothing at any size."""
        L, H, d_in = self.layer_count, self.hidden_width, self.input_dim
        if L == 1:
            return d_in + 1
        # first, middle and last layers, then the skip layer's extra d_in inputs
        skip_out = H if self.skip_layer < L - 1 else 1
        return (d_in + 1) * H + (L - 2) * (H + 1) * H + (H + 1) + d_in * skip_out


@dataclass
class FieldParams:
    """Weights and biases, one (out, in) matrix and (out,) bias per layer."""

    arch: Architecture
    weights: list
    biases: list

    def validate(self):
        dims = self.arch.layer_dims()
        if len(self.weights) != len(dims) or len(self.biases) != len(dims):
            raise DimensionMismatch("layer count mismatch")
        for (din, dout), W, b in zip(dims, self.weights, self.biases):
            if W.shape != (dout, din) or b.shape != (dout,):
                raise DimensionMismatch(
                    f"expected {(dout, din)} / {(dout,)}, got {W.shape} / {b.shape}"
                )
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise DimensionMismatch("non-finite parameter entry")
        return self

    def copy(self) -> "FieldParams":
        return FieldParams(self.arch,
                           [W.copy() for W in self.weights],
                           [b.copy() for b in self.biases])


@dataclass
class LossBreakdown:
    """Per-term values of the shape loss; total is the weighted sum."""

    surface_term: float
    normal_term: float
    eikonal_term: float
    code_reg_term: float
    total: float


def softplus(t: np.ndarray, beta: float, slopes: list | None = None) -> np.ndarray:
    """max(t, 0) + log1p(exp(-|beta t|)) / beta, overflow-safe.

    Given a list `slopes`, also appends the slope sigmoid(beta t), derived
    from the same e = exp(-beta |t|) with no mask: 1 / (1 + e) where t >= 0,
    e / (1 + e) elsewhere.  The numerator is max(e, t >= 0), since
    0 < e <= 1.  beta |t| == |beta t| exactly, so both outputs have the bits
    of the textbook formulas."""
    # one buffer for the value: 2 allocations, not 8
    out = np.abs(t)
    out *= -beta
    np.exp(out, out=out)
    if slopes is not None:
        slope = np.maximum(out, t >= 0)
        slope /= 1.0 + out
        slopes.append(slope)
    np.log1p(out, out=out)
    out /= beta
    out += np.maximum(t, 0.0)
    return out


def init_params(arch: Architecture, seed: int) -> FieldParams:
    """Initialize weights so the field starts near the signed distance to a
    sphere of radius 0.5 (negative inside).

    Hidden weights are N(0, 2/out), final-layer weights lie tightly around
    sqrt(pi/in) with bias -0.5, and the columns that read the latent code
    (plus the skip re-injection) start at zero so the initial field depends
    on position only.
    """
    rng = np.random.default_rng(seed)
    dims = arch.layer_dims()
    L = arch.layer_count
    weights, biases = [], []
    for j, (din, dout) in enumerate(dims):
        if j == L - 1:
            W = rng.normal(np.sqrt(np.pi) / np.sqrt(din), 1e-4, size=(dout, din))
            b = np.full(dout, -0.5)
        else:
            W = rng.normal(0.0, np.sqrt(2.0) / np.sqrt(dout), size=(dout, din))
            b = np.zeros(dout)
            if j == 0:
                W[:, :arch.latent_dim] = 0.0
            if j == arch.skip_layer:
                W[:, arch.hidden_width:] = 0.0
        weights.append(W)
        biases.append(b)
    return FieldParams(arch, weights, biases).validate()


def _concat_input(arch: Architecture, z: np.ndarray, xs: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64).ravel()
    xs = np.asarray(xs, dtype=np.float64)
    if z.shape[0] != arch.latent_dim:
        raise DimensionMismatch(f"latent code has dim {z.shape[0]}, expected {arch.latent_dim}")
    if xs.ndim != 2 or xs.shape[1] != 3 or xs.shape[0] == 0:
        raise DimensionMismatch("points must be a nonempty (B, 3) array")
    c = np.empty((xs.shape[0], arch.latent_dim + 3), dtype=np.float64)
    c[:, :arch.latent_dim] = z
    c[:, arch.latent_dim:] = xs
    return c


def _layers(params: FieldParams, c: np.ndarray, slopes: list | None = None):
    """The forward sweep: yields (u, a) per layer, where u is the layer's
    input (widened by c at the skip layer) and a = u W^T + b its
    pre-activation.  The field value is the last a.  Given a list `slopes`,
    each hidden layer's softplus slope is appended to it (see softplus)."""
    arch = params.arch
    h = c
    for j, (W, b) in enumerate(zip(params.weights, params.biases)):
        if j == arch.skip_layer:
            h = np.concatenate([h, c], axis=1)
        a = h @ W.T
        a += b
        yield h, a
        if j < arch.layer_count - 1:
            h = softplus(a, arch.softplus_beta, slopes)


def _blocks(c: np.ndarray):
    """The rows of c in blocks of _BLOCK rows, the last one zero-padded:
    yields (first row, rows of c in the block, block)."""
    for s in range(0, c.shape[0], _BLOCK):
        blk = c[s:s + _BLOCK]
        m = blk.shape[0]
        if m < _BLOCK:
            blk = np.zeros((_BLOCK, c.shape[1]), dtype=np.float64)
            blk[:m] = c[s:]
        yield s, m, blk


def forward(params: FieldParams, z: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Field values at a batch of points; output i depends only on input i."""
    c = _concat_input(params.arch, z, xs)
    out = np.empty(c.shape[0], dtype=np.float64)
    for s, m, blk in _blocks(c):
        for _, a in _layers(params, blk):
            pass
        out[s:s + m] = a[:m, 0]
    return out


def _trace(params: FieldParams, c: np.ndarray):
    """Forward sweep, then the field's reverse sweep, per batch row.

    Each hidden layer takes one exp, which gives both its softplus value
    and its slope.  Returns the layer inputs u_j, the softplus slopes of the
    hidden layers, the field values, the spatial gradient and the adjoints
    df/du_j of every layer input."""
    arch = params.arch
    H = arch.hidden_width
    phi1 = []
    us, as_ = zip(*_layers(params, c, phi1))
    cbar = np.zeros((len(c), arch.input_dim), dtype=np.float64)
    W = params.weights[-1]
    ubar = np.broadcast_to(W[0], (len(c), W.shape[1]))  # df/du of the last layer
    ubars = [ubar]
    for j in range(arch.layer_count - 1, 0, -1):
        if j == arch.skip_layer:
            cbar += ubar[:, H:]
            ubar = ubar[:, :H]
        ubar = (ubar * phi1[j - 1]) @ params.weights[j - 1]
        ubars.append(ubar)
    cbar += ubar
    return us, phi1, as_[-1][:, 0], cbar[:, arch.latent_dim:], ubars[::-1]


def spatial_gradient(params: FieldParams, z: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Exact derivative of the field with respect to the query point; row i
    depends only on input i.  The rows are traced in forward's padded
    blocks, so memory stays bounded whatever the batch."""
    c = _concat_input(params.arch, z, xs)
    g = np.empty((c.shape[0], 3), dtype=np.float64)
    for s, m, blk in _blocks(c):
        g[s:s + m] = _trace(params, blk)[3][:m]
    return g


def _breakdown(y_s, g_s, normals, g_o, z, tau, lam, squared_code_reg):
    surface_term = float(np.mean(np.abs(y_s)))
    normal_term = float(np.mean(np.sum((g_s - normals) ** 2, axis=1)))
    if g_o is None:
        eikonal_term = 0.0
    else:
        eikonal_term = float(np.mean((np.linalg.norm(g_o, axis=1) - 1.0) ** 2))
    znorm = float(np.linalg.norm(z))
    code_reg_term = znorm ** 2 if squared_code_reg else znorm
    total = surface_term + normal_term + tau * eikonal_term + lam * code_reg_term
    return LossBreakdown(surface_term, normal_term, eikonal_term, code_reg_term, total)


def _loss_trace(params: FieldParams, z, surface_points, surface_normals,
                offsurface_points, tau: float, lam: float, squared_code_reg: bool):
    """Check one shape's loss inputs, trace its surface rows followed by its
    off-surface rows as one batch, and break down the loss.  Returns the
    code and normals as float64 arrays, the surface row count, _trace's
    result and the LossBreakdown."""
    surface_points = np.asarray(surface_points, dtype=np.float64)
    surface_normals = np.asarray(surface_normals, dtype=np.float64)
    if surface_points.shape != surface_normals.shape:
        raise DimensionMismatch("surface points and normals must align")
    c = _concat_input(params.arch, z, surface_points)
    if offsurface_points is not None and len(offsurface_points) > 0:
        c = np.vstack([c, _concat_input(params.arch, z, offsurface_points)])
    trace = _trace(params, c)
    _, _, y, g, _ = trace
    Ns = len(surface_points)
    g_o = g[Ns:] if len(c) > Ns else None
    z = np.asarray(z, dtype=np.float64).ravel()
    breakdown = _breakdown(y[:Ns], g[:Ns], surface_normals, g_o, z, tau, lam, squared_code_reg)
    return z, surface_normals, Ns, trace, breakdown


def shape_loss(params: FieldParams, z: np.ndarray,
               surface_points: np.ndarray, surface_normals: np.ndarray,
               offsurface_points: np.ndarray | None,
               tau: float, lam: float,
               squared_code_reg: bool = False) -> LossBreakdown:
    """Per-shape loss: |field| and gradient/normal mismatch on the surface,
    unit-gradient penalty off the surface, and the latent norm penalty."""
    return _loss_trace(params, z, surface_points, surface_normals, offsurface_points,
                       tau, lam, squared_code_reg)[-1]


def loss_gradients(params: FieldParams, z: np.ndarray,
                   surface_points: np.ndarray, surface_normals: np.ndarray,
                   offsurface_points: np.ndarray | None,
                   tau: float, lam: float,
                   squared_code_reg: bool = False):
    """Exact gradients of the total loss w.r.t. all parameters and the code.

    Four sweeps over the network: _trace's forward and reverse sweeps, a
    tangent pass along dL/dg, and one reverse sweep over the primal and
    tangent computations, which takes its tangent adjoint from the trace.
    Returns (weight_grads, bias_grads, z_grad, LossBreakdown).  Subgradients
    at the kinks are zero: d|f|/df = 0 at f = 0 and d||z||/dz = 0 at z = 0.
    """
    arch = params.arch
    beta = arch.softplus_beta
    d = arch.latent_dim
    H = arch.hidden_width
    L = arch.layer_count
    z, surface_normals, Ns, (us, phi1, y, g, dfdu), breakdown = _loss_trace(
        params, z, surface_points, surface_normals, offsurface_points,
        tau, lam, squared_code_reg)
    B = len(y)
    Mo = B - Ns
    phi2 = [beta * s * (1.0 - s) for s in phi1]  # softplus'' from softplus'
    y_s, g_s, g_o = y[:Ns], g[:Ns], g[Ns:]

    # dL/dy and dL/dg, held fixed for the second-order sweep
    cy = np.zeros(B)
    cy[:Ns] = np.sign(y_s) / Ns
    v = np.zeros((B, 3))
    v[:Ns] = 2.0 * (g_s - surface_normals) / Ns
    if Mo:
        gn = np.linalg.norm(g_o, axis=1)
        safe = gn > 0
        coef = np.zeros(Mo)
        coef[safe] = tau * 2.0 * (gn[safe] - 1.0) / (gn[safe] * Mo)
        v[Ns:] = coef[:, None] * g_o

    # tangent pass: directional derivative of the field along v at the input
    cdot = np.zeros((B, arch.input_dim))
    cdot[:, d:] = v
    udots, adots = [], []
    hdot = cdot
    for j in range(L):
        if j == arch.skip_layer:
            hdot = np.concatenate([hdot, cdot], axis=1)
        udots.append(hdot)
        adot = hdot @ params.weights[j].T
        adots.append(adot)
        if j < L - 1:
            hdot = phi1[j] * adot

    # reverse sweep over primal + tangent computations; the tangent output is
    # df/du_j . udot_j at every layer j, so its adjoint for udot_j is the
    # trace's df/du_j
    w_grads, b_grads = [], []
    cbar = np.zeros((B, arch.input_dim))
    abar = cy[:, None]
    adotbar = np.ones((B, 1))
    for j in range(L - 1, -1, -1):
        w_grads.append(abar.T @ us[j] + adotbar.T @ udots[j])
        b_grads.append(abar.sum(axis=0))
        ubar = abar @ params.weights[j]
        if j == 0:
            cbar += ubar
            break
        hdotbar = dfdu[j]
        if j == arch.skip_layer:
            cbar += ubar[:, H:]
            ubar, hdotbar = ubar[:, :H], hdotbar[:, :H]
        abar = ubar * phi1[j - 1] + hdotbar * phi2[j - 1] * adots[j - 1]
        adotbar = hdotbar * phi1[j - 1]

    z_grad = cbar[:, :d].sum(axis=0)
    znorm = np.linalg.norm(z)
    if squared_code_reg:
        z_grad = z_grad + lam * 2.0 * z
    elif znorm > 0:
        z_grad = z_grad + lam * z / znorm
    return w_grads[::-1], b_grads[::-1], z_grad, breakdown
