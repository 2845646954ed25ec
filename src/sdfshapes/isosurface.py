"""Uniform grid evaluation of the field and marching-cubes extraction.

Grid values are stored as values[i, j, k] for the lattice point
(x_i, y_j, z_k); cell traversal uses x-fastest order.
The lattice is fixed at [-1.1, 1.1]^3.  eval_grid evaluates every node;
reconstruct_shape evaluates only the nodes near the zero set, coarse to
fine, and each node it evaluates gets eval_grid's bits.  On its last level
it skips the nodes whose sign a stride-2 value certifies, which leaves out
about 40% of the nodes it evaluates on trained fields.  Extraction uses the
classic 256-case tables with shared edge vertices, so the output is an
indexed mesh.  A corner counts as inside when its value is below the iso
level (negative-inside convention); triangle winding makes face normals
point toward increasing field values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .blas import pool_map
from .errors import (
    DimensionMismatch,
    EmptySet,
    InvalidCount,
    InvalidResolution,
    NonFiniteValue,
)
from .field import _BLOCK, FieldParams, forward
from .mc_tables import TRI_TABLE
from .mesh import TriangleMesh

DEFAULT_HALFWIDTH = 1.1
_CHUNK = 16 * _BLOCK  # lattice nodes per forward call: 16 padded blocks
_COARSE_STRIDE = 16  # the narrow band's first sub-lattice
_MARGIN = 2.0  # the band's L, over the steepest slope seen on that sub-lattice
# reconstruct_shape's peak bytes per lattice node.  marching_cubes holds the
# float64 values 8, inside mask 1, uint8 case index 1 and the active-cell
# masks 3, plus arrays that grow with the surface; the band holds
# the values, its known mask and per-level masks.  Traced on 25-epoch desk
# fields: 16.1-17.9 at R = 160 and 192, up to 19.3 at R = 128 and 22.6 at
# R = 96, where the surface arrays still weigh in
_EXTRACT_BYTES_PER_NODE = 22

# Local cell edge b runs along _EDGE_AXIS[b] starting at cell corner offset
# _EDGE_BASE[b]; used to give each cell edge a global, shared identity.
_EDGE_AXIS = np.array([0, 1, 0, 1, 0, 1, 0, 1, 2, 2, 2, 2], dtype=np.int64)
_EDGE_BASE = np.array([
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0),
    (0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 0, 1),
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
], dtype=np.int64)
_CORNER_OFFSETS = np.array([
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
], dtype=np.int64)


@dataclass
class ScalarGrid:
    """Field samples on a uniform cubic lattice."""

    resolution: int
    lower: np.ndarray
    upper: np.ndarray
    values: np.ndarray  # (R, R, R), [i, j, k] at (x_i, y_j, z_k)

    def __post_init__(self):
        if self.resolution < 2:
            raise InvalidResolution("grid resolution must be >= 2")
        self.lower = np.asarray(self.lower, dtype=np.float64).reshape(3)
        self.upper = np.asarray(self.upper, dtype=np.float64).reshape(3)
        R = self.resolution
        if self.values.shape != (R, R, R):
            raise DimensionMismatch(f"values must be ({R}, {R}, {R})")

    @property
    def spacing(self) -> np.ndarray:
        return (self.upper - self.lower) / (self.resolution - 1)

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.lower[axis] + self.spacing[axis] * np.arange(self.resolution)


def _physical_memory():
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return size if size > 0 else None


def concurrent_extractions(resolution: int, workers: int) -> int:
    """workers, capped so that that many reconstruct_shape calls at this
    resolution, each at its peak, fit in physical memory together; at least
    1, since one call guards its own need."""
    phys = _physical_memory()
    if phys is None or resolution < 2:
        return workers
    return max(1, min(workers, phys // (_EXTRACT_BYTES_PER_NODE * resolution ** 3)))


def _lattice(resolution: int, workers: int, bytes_per_node: int,
             purpose: str) -> ScalarGrid:
    """An all-zero grid over [-DEFAULT_HALFWIDTH, DEFAULT_HALFWIDTH]^3, once
    the arguments check out and the caller's peak need, bytes_per_node per
    lattice node, fits in physical memory."""
    if resolution < 2:
        raise InvalidResolution("grid resolution must be >= 2")
    if workers < 1:
        raise InvalidCount(f"workers must be >= 1, got {workers}")
    R = resolution
    need, phys = bytes_per_node * R ** 3, _physical_memory()
    if phys is not None and need > phys:
        raise InvalidResolution(f"grid resolution {R} needs {need} bytes {purpose}, "
                                f"more than the {phys} bytes of physical memory")
    try:
        values = np.zeros((R, R, R), dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: R^3 overflows numpy's array size
        raise InvalidResolution(f"grid resolution {R} needs {8 * R ** 3} bytes "
                                "for its values, more than can be allocated") from None
    return ScalarGrid(R, np.full(3, -DEFAULT_HALFWIDTH), np.full(3, DEFAULT_HALFWIDTH), values)


def _eval_nodes(params: FieldParams, z: np.ndarray, grid: ScalarGrid, nodes,
                workers: int) -> None:
    """Write the field at lattice nodes into grid.values: `nodes` holds flat
    indices n of values (k fastest), or is None for every node in order.
    They are walked in chunks of _CHUNK nodes, so only a chunk's last forward
    block is padded; workers > 1 maps the chunks over a thread pool whose
    threads each run OpenBLAS single-threaded.  Values are bitwise
    independent of the chunking and of workers because per-point evaluation
    is canonical."""
    R = grid.resolution
    coords = grid.axis_coords(0)
    flat = grid.values.reshape(-1)  # a view: writes land in grid.values
    total = flat.size if nodes is None else len(nodes)

    def do_chunk(c0: int):
        if nodes is None:
            at = slice(c0, min(c0 + _CHUNK, total))
            n = np.arange(at.start, at.stop)
        else:
            at = n = nodes[c0:c0 + _CHUNK]
        pts = np.stack([coords[n // (R * R)], coords[n // R % R], coords[n % R]], axis=1)
        del n  # held across forward, it made malloc re-fault heap pages every block
        flat[at] = forward(params, z, pts)

    pool_map(do_chunk, range(0, total, _CHUNK), workers)


def eval_grid(params: FieldParams, z: np.ndarray, resolution: int,
              workers: int = 1) -> ScalarGrid:
    """Evaluate the field on every node of the R^3 lattice over
    [-DEFAULT_HALFWIDTH, DEFAULT_HALFWIDTH]^3 (see _eval_nodes)."""
    grid = _lattice(resolution, workers, 8, "for its values")
    _eval_nodes(params, z, grid, None, workers)
    return grid


def _axis(resolution: int, stride: int) -> np.ndarray:
    """Lattice indices of the stride-s nodes on one axis: the multiples of s
    below R, plus R - 1."""
    return np.unique(np.append(np.arange(0, resolution, stride), resolution - 1))


def _corner_views(a: np.ndarray) -> list:
    """For an (n+1)^3 node array, the (n)^3 views of its cells' 8 corners."""
    n = a.shape[0] - 1
    return [a[dx:dx + n, dy:dy + n, dz:dz + n] for dx, dy, dz in _CORNER_OFFSETS]


def _case_index(mask: np.ndarray) -> np.ndarray:
    """The marching-cubes case of every cell of a node mask: bit b is set
    when corner _CORNER_OFFSETS[b] is marked.  For a mask of the inside
    nodes, the level set crosses exactly the cells whose case is neither 0
    (no corner inside) nor 255 (all inside)."""
    views = _corner_views(mask.view(np.uint8))
    code = views[7].copy()
    for corner in views[6::-1]:  # Horner's rule: code = 2 code + corner
        code += code  # numpy's uint8 add is vectorized; its left_shift is not
        code |= corner
    return code


def _corners_of(cells: np.ndarray) -> np.ndarray:
    """Node mask of every corner of the marked cells."""
    n = cells.shape[0]
    nodes = np.zeros((n + 1,) * 3, dtype=bool)
    for view in _corner_views(nodes):
        view |= cells
    return nodes


def _certifiers(nodes: np.ndarray, resolution: int):
    """For flat indices of lattice nodes: the flat indices of the stride-2
    nodes around each, as an (8, len(nodes)) array with repeats along the
    axes where the node lies on a stride-2 plane, and per node the number k
    of axes where it does not.  Each of its certifiers lies sqrt(k) lattice
    spacings from it."""
    R = resolution
    lo, hi, off = [], [], 0
    for a in (nodes // (R * R), nodes // R % R, nodes % R):
        odd = (a & 1).astype(bool) & (a != R - 1)  # off _axis(R, 2)
        lo.append(a - odd)
        hi.append(a + odd)
        off = off + odd
    ends = (lo, hi)
    return np.stack([(ends[dx][0] * R + ends[dy][1]) * R + ends[dz][2]
                     for dx, dy, dz in _CORNER_OFFSETS]), off


def _certify(grid: ScalarGrid, nodes: np.ndarray, margin: float) -> np.ndarray:
    """The band's last level: write to each of `nodes` (flat indices) the
    sign, as -1 or +1, of a stride-2 node c around it that certifies it,
    |f(c)| > 2 margin |n - c|; return the nodes none certifies.  Under the
    assumption behind pruning, a slope below 2 margin, a certified node has
    c's sign.  The candidates are taken _CHUNK at a time, which keeps the
    gathered certifier values small."""
    flat = grid.values.reshape(-1)
    reach = 2.0 * margin * grid.spacing[0] * np.sqrt(np.arange(4.0))
    left = []
    for c0 in range(0, len(nodes), _CHUNK):
        n = nodes[c0:c0 + _CHUNK]
        certs, off = _certifiers(n, grid.resolution)
        v = flat[certs]
        del certs
        v = np.take_along_axis(v, np.abs(v).argmax(axis=0)[None], axis=0)[0]
        sure = np.abs(v) > reach[off]
        flat[n[sure]] = np.where(v[sure] < 0, -1.0, 1.0)
        left.append(n[~sure])
    return np.concatenate(left) if left else nodes


def _eval_marked(params: FieldParams, z: np.ndarray, grid: ScalarGrid,
                 known: np.ndarray, ax: np.ndarray, marked: np.ndarray,
                 workers: int, margin: float | None = None) -> int:
    """Evaluate the nodes of the sub-lattice ax x ax x ax that are marked and
    not yet known, and mark them known; return how many there were.  Given
    a margin, ax lists every node, and the nodes _certify certifies get
    their sign instead: they are not evaluated and stay unknown."""
    R, m = grid.resolution, len(ax)
    if m == R:  # ax lists every node, so the flat indices are the nodes
        nodes = np.flatnonzero(marked & ~known)
    else:
        n = np.flatnonzero(marked & ~known[np.ix_(ax, ax, ax)])
        nodes = (ax[n // (m * m)] * R + ax[n // m % m]) * R + ax[n % m]
        del n
    if margin is not None:
        nodes = _certify(grid, nodes, margin)
    _eval_nodes(params, z, grid, nodes, workers)
    known.reshape(-1)[nodes] = True
    return len(nodes)


def _band_grid(params: FieldParams, z: np.ndarray, resolution: int,
               workers: int) -> ScalarGrid:
    """The lattice eval_grid fills, evaluated coarse to fine near the zero
    set only; every other node holds -1 or +1: the sign of the pruned cell
    it lies in, or the sign a stride-2 node certifies for it.

    Level s has the nodes _axis(R, s) per axis and the cells between them;
    cell k of level s splits into cells 2k and 2k + 1 of level s/2.  The
    first level has stride _COARSE_STRIDE, halved until it has at least
    three whole cells per axis.  Its node values give the margin L:
    _MARGIN times the steepest slope between adjacent nodes.  A cell whose
    corners share one sign and all lie further than L times its diagonal
    from zero is pruned; the nodes of the next level in the other cells are
    evaluated, down to stride 2.  At stride 1 a node is evaluated only when
    no stride-2 corner c of its cell's parent certifies its sign,
    |f(c)| > 2 L |n - c| (see _certify).  Last, any lattice cell whose
    corners straddle the zero set but include a placeholder gets its
    missing corners evaluated, until there is none: every cell that emits
    triangles then has the dense values at all 8 corners.

    Pruning and the certificate rest on one assumption: the field's slope
    stays below 2 L.  Every point of a pruned cell lies within half its
    diagonal of a corner, so it keeps the corners' sign, as does a certified
    node; all node signs are then the dense signs.
    """
    grid = _lattice(resolution, workers, _EXTRACT_BYTES_PER_NODE, "to extract its mesh")
    R = resolution
    known = np.zeros((R, R, R), dtype=bool)
    s = _COARSE_STRIDE
    while s > 1 and R - 1 < 3 * s:
        s //= 2
    cell = np.zeros((-(-(R - 1) // s),) * 3, dtype=np.int8)  # 0: refine, -1/+1: pruned
    margin = None
    while s > 1:
        ax = _axis(R, s)
        _eval_marked(params, z, grid, known, ax, _corners_of(cell == 0), workers)
        V = grid.values[np.ix_(ax, ax, ax)]
        gap = np.diff(ax) * grid.spacing[0]
        if margin is None:
            slopes = [np.abs(np.moveaxis(np.diff(V, axis=k), k, -1)) / gap for k in range(3)]
            margin = _MARGIN * max(np.max(t) for t in slopes)
        reach = margin * np.sqrt(gap[:, None, None] ** 2 + gap[None, :, None] ** 2
                                 + gap[None, None, :] ** 2)
        near = np.full(cell.shape, np.inf)
        for v in _corner_views(V):
            np.minimum(near, np.abs(v), out=near)
        code = _case_index(V < 0)
        prune = (cell == 0) & (near > reach) & ((code == 0) | (code == 255))
        cell[prune] = np.where(code[prune] == 255, -1, 1)
        s //= 2
        m = -(-(R - 1) // s)
        cell = cell.repeat(2, 0).repeat(2, 1).repeat(2, 2)[:m, :m, :m]
    ax = _axis(R, 1)  # every node
    # node n takes the sign of lattice cell min(n, R - 2) on each axis,
    # until the last level writes the corners of the open cells
    at = np.minimum(ax, R - 2)
    np.copyto(grid.values, cell.take(at, 0).take(at, 1).take(at, 2), where=~known)
    marked = _corners_of(cell == 0)
    del cell
    # the last level; margin is None when it is also the first
    _eval_marked(params, z, grid, known, ax, marked, workers, margin)
    del marked
    while True:  # finish the crossing cells that still have a placeholder corner
        code = _case_index(grid.values < 0)
        marked = _corners_of((code != 0) & (code != 255) & (_case_index(known) != 255))
        del code
        if not _eval_marked(params, z, grid, known, ax, marked, workers):
            return grid


def marching_cubes(grid: ScalarGrid, iso: float = 0.0) -> TriangleMesh:
    """Extract the iso-level set as an indexed triangle mesh."""
    vals = grid.values
    if not np.isfinite(vals).all():
        raise NonFiniteValue("grid contains non-finite values")
    R = grid.resolution
    cube_idx = _case_index(vals < iso)
    ci, cj, ck = np.nonzero((cube_idx != 0) & (cube_idx != 255))
    if len(ci) == 0:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    codes = cube_idx[ci, cj, ck]

    # global edge ids for the 12 edges of every active cell
    gx = ci[:, None] + _EDGE_BASE[:, 0]
    gy = cj[:, None] + _EDGE_BASE[:, 1]
    gz = ck[:, None] + _EDGE_BASE[:, 2]
    cell_edge_ids = ((gz * R + gy) * R + gx) * 3 + _EDGE_AXIS  # (ncell, 12)

    # triangles as (cell, local-edge) triples from the case table
    tt = TRI_TABLE[codes]  # (ncell, 16)
    tri_cell = []
    tri_edges = []
    for col in range(0, 15, 3):
        mask = tt[:, col] >= 0
        if mask.any():
            tri_cell.append(np.nonzero(mask)[0])
            tri_edges.append(tt[mask, col:col + 3])
    tri_cell = np.concatenate(tri_cell)
    tri_edges = np.concatenate(tri_edges)
    tri_gids = cell_edge_ids[tri_cell[:, None], tri_edges]  # (ntri, 3) global ids

    unique_ids, faces = np.unique(tri_gids, return_inverse=True)

    # vertex positions by linear interpolation along each cut edge
    axis = unique_ids % 3
    rest = unique_ids // 3
    ex = rest % R
    ey = (rest // R) % R
    ez = rest // (R * R)
    p0 = np.stack([ex, ey, ez], axis=1)
    p1 = p0.copy()
    p1[np.arange(len(axis)), axis] += 1
    v0 = vals[p0[:, 0], p0[:, 1], p0[:, 2]]
    v1 = vals[p1[:, 0], p1[:, 1], p1[:, 2]]
    t = (iso - v0) / (v1 - v0)
    sp = grid.spacing
    verts = grid.lower + p0 * sp + (t[:, None] * sp) * (p1 - p0)

    # the classic table winds faces with normals toward lower values; flip
    # so normals follow increasing field (outward for negative-inside)
    return TriangleMesh(verts, np.ascontiguousarray(faces.reshape(-1, 3)[:, ::-1]))


def reconstruct_shape(checkpoint, code: np.ndarray, resolution: int,
                      workers: int = 1) -> TriangleMesh:
    """Mesh the zero-level set of the field for one latent code on
    eval_grid's lattice, evaluating the field only near that set (see
    _band_grid); EmptySet if the set has no face on the lattice.
    InvalidResolution if the extraction's peak memory would exceed
    physical memory."""
    code = np.asarray(code, dtype=np.float64).ravel()
    if code.shape[0] != checkpoint.arch.latent_dim:
        raise DimensionMismatch("code dimension does not match the checkpoint")
    grid = _band_grid(checkpoint.params, code, resolution, workers)
    mesh = marching_cubes(grid, 0.0)
    if not len(mesh.faces):
        raise EmptySet(f"the zero set misses the [-{DEFAULT_HALFWIDTH}, "
                       f"{DEFAULT_HALFWIDTH}]^3 lattice at resolution {resolution}")
    return mesh
