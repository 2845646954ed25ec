"""Uniform grid evaluation of the field and marching-cubes extraction.

Grid values are stored as values[i, j, k] for the lattice point
(x_i, y_j, z_k); cell traversal uses x-fastest order.
The lattice is fixed at [-1.1, 1.1]^3.  eval_grid evaluates every node;
reconstruct_shape evaluates only the nodes near the zero set, coarse to
fine, and each node it evaluates gets eval_grid's bits.  It holds no array
of R^3 entries: the coarse levels live on one dense array of the stride-2
sub-lattice (1/8 of the nodes), and the last level on bricks: the closed
3 x 3 x 3 node boxes of the open stride-2 cells, whose nodes it keeps as
sorted distinct flat indices, each with its value.
On its last level it skips the nodes whose sign a stride-2 value
certifies, which leaves out about 40% of the nodes it evaluates on trained
fields.  Extraction uses the classic 256-case tables with shared edge
vertices, so the output is an indexed mesh of the zero set; one core
meshes the crossing cells, whether the dense marching_cubes or the band
found them.  A corner counts as inside when its value is below zero
(negative-inside convention); triangle winding makes face normals point
toward increasing field values.  blas checks each extraction against
physical memory; extraction_bytes is one extraction's peak, for blas's
worker count where many shapes are meshed at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas
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
_CELLS = _CHUNK // 8  # stride-2 cells per batch of the last level's bricks
_COARSE_STRIDE = 16  # the narrow band's first sub-lattice
_MARGIN = 2.0  # the band's L, over the steepest slope seen on that sub-lattice
# reconstruct_shape's peak bytes (extraction_bytes): per lattice node, for
# the stride-2 values, their known mask and the per-level cell signs and
# masks; per node of R^2, the footprint of a surface the lattice's size, for
# the bricks' sorted node indices and values, their batches and the
# crossing cells; and a fixed part for the desk network's forward chunk and
# certificate batch.  Traced on 25-epoch desk fields (8 x 64, d = 8; codes
# 0-7 and a blend, two seeds), the largest peaks were 6.92 MB at R = 64,
# 14.28 MB at R = 128 and 29.91 MB at R = 192, the largest sphere each
# time; this gives 8.86, 18.67 and 38.88 MB there
_EXTRACT_BYTES_PER_NODE = 2
_EXTRACT_BYTES_PER_SURFACE_NODE = 500
_EXTRACT_BYTES_FIXED = 6 << 20

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
# where the lower corners of a stride-2 cell's (2, 2, 2) lattice cells, and
# the corners of a lattice cell, lie in the flat (3, 3, 3) box of nodes
_CHILD_AT = np.array([9 * i + 3 * j + k for i in (0, 1) for j in (0, 1) for k in (0, 1)])
_CORNER_AT = _CORNER_OFFSETS @ [9, 3, 1]
# the corners at the lower and upper end of each edge, as indices of
# _CORNER_OFFSETS
_EDGE_ENDS = np.array([(0, 1), (1, 2), (3, 2), (0, 3), (4, 5), (5, 6), (7, 6), (4, 7),
                       (0, 4), (1, 5), (2, 6), (3, 7)])


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


def extraction_bytes(resolution: int) -> int:
    """reconstruct_shape's peak need in bytes at this resolution."""
    return (_EXTRACT_BYTES_PER_NODE * resolution ** 3
            + _EXTRACT_BYTES_PER_SURFACE_NODE * resolution ** 2 + _EXTRACT_BYTES_FIXED)


def _check_lattice(resolution: int, workers: int, need: int, purpose: str) -> None:
    """Reject a resolution below 2, a worker count below 1, and a peak need
    beyond physical memory."""
    if resolution < 2:
        raise InvalidResolution("grid resolution must be >= 2")
    if workers < 1:
        raise InvalidCount(f"workers must be >= 1, got {workers}")
    blas.check_memory(need, InvalidResolution, f"grid resolution {resolution}", f" {purpose}")


def _zeros(resolution: int, n: int, what: str) -> np.ndarray:
    """An all-zero (n, n, n) float64 array, or InvalidResolution."""
    try:
        return np.zeros((n, n, n), dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: n^3 overflows numpy's array size
        raise InvalidResolution(f"grid resolution {resolution} needs {8 * n ** 3} bytes "
                                f"for {what}, more than can be allocated") from None


def _frame(resolution: int):
    """The lower corner and spacing of the [-DEFAULT_HALFWIDTH,
    DEFAULT_HALFWIDTH]^3 lattice, with ScalarGrid's bits."""
    lower = np.full(3, -DEFAULT_HALFWIDTH)
    return lower, (np.full(3, DEFAULT_HALFWIDTH) - lower) / (resolution - 1)


def _eval_nodes(params: FieldParams, z: np.ndarray, resolution: int, nodes,
                out: np.ndarray, workers: int) -> None:
    """Write the field at lattice nodes into out: out[i] at the node of flat
    index nodes[i] (k fastest), or out[n] at node n when nodes is None.
    They are walked in chunks of _CHUNK nodes, so only a chunk's last forward
    block is padded; blas.pool_map maps the chunks over `workers` threads,
    with OpenBLAS single-threaded at every count.  Values are bitwise
    independent of the chunking and of workers because per-point evaluation
    is canonical."""
    R = resolution
    lower, spacing = _frame(R)
    coords = lower[0] + spacing[0] * np.arange(R)

    def do_chunk(c0: int):
        if nodes is None:
            n = np.arange(c0, min(c0 + _CHUNK, len(out)))
        else:
            n = nodes[c0:c0 + _CHUNK]
        at = slice(c0, c0 + len(n))
        pts = np.stack([coords[n // (R * R)], coords[n // R % R], coords[n % R]], axis=1)
        del n  # held across forward, it made malloc re-fault heap pages every block
        out[at] = forward(params, z, pts)

    blas.pool_map(do_chunk, range(0, len(out), _CHUNK), workers)


def eval_grid(params: FieldParams, z: np.ndarray, resolution: int,
              workers: int = 1) -> ScalarGrid:
    """Evaluate the field on every node of the R^3 lattice over
    [-DEFAULT_HALFWIDTH, DEFAULT_HALFWIDTH]^3 (see _eval_nodes)."""
    R = resolution
    _check_lattice(R, workers, 8 * R ** 3, "for its values")
    values = _zeros(R, R, "its values")
    _eval_nodes(params, z, R, None, values.reshape(-1), workers)
    return ScalarGrid(R, np.full(3, -DEFAULT_HALFWIDTH), np.full(3, DEFAULT_HALFWIDTH), values)


def _axis(resolution: int, stride: int) -> np.ndarray:
    """Lattice indices of the stride-s nodes on one axis: the multiples of s
    below R, plus R - 1."""
    return np.unique(np.append(np.arange(0, resolution, stride), resolution - 1))


def _corner_views(a: np.ndarray) -> list:
    """For an (l+1, m+1, n+1, ...) node array, the (l, m, n, ...) views of
    its cells' 8 corners."""
    l, m, n = (k - 1 for k in a.shape[:3])
    return [a[dx:dx + l, dy:dy + m, dz:dz + n] for dx, dy, dz in _CORNER_OFFSETS]


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
    nodes = np.zeros(tuple(n + 1 for n in cells.shape[:3]) + cells.shape[3:], dtype=bool)
    for view in _corner_views(nodes):
        view |= cells
    return nodes


def _around(nodes: np.ndarray, resolution: int, cells: bool = False):
    """For flat indices of lattice nodes: the flat indices of the stride-2
    nodes around each, on the stride-2 sub-lattice _axis(R, 2)^3, or with
    cells, of the stride-2 cells whose closed box holds each, as an
    (8, len(nodes)) array with repeats; and per node the number k of axes
    along which it lies between two stride-2 planes.  Along the others its
    two nodes are the plane's own, and its two cells those on both sides of
    the plane.  Each of its stride-2 nodes lies sqrt(k) lattice spacings
    from it."""
    R = resolution
    m = R // 2 if cells else R // 2 + 1
    lo, hi, off = [], [], 0
    for a in (nodes // (R * R), nodes // R % R, nodes % R):
        odd = (a & 1) & (a != R - 1)  # off _axis(R, 2), whose node i is at (i + 1) // 2
        at = (a + 1) // 2 - odd
        lo.append(np.maximum(at + odd - 1, 0) if cells else at)
        hi.append(np.minimum(at, m - 1) if cells else at + odd)
        off = off + odd
    ends = (lo, hi)
    return np.stack([(ends[dx][0] * m + ends[dy][1]) * m + ends[dz][2]
                     for dx, dy, dz in _CORNER_OFFSETS]), off


def _certify(values2: np.ndarray, nodes: np.ndarray, resolution: int,
             margin: float) -> np.ndarray:
    """Per node of `nodes` (flat indices), the sign, as -1 or +1, of a
    stride-2 node c around it that certifies it, |f(c)| > 2 margin |n - c|,
    or 0 where none does.  Under the assumption behind pruning, a slope
    below 2 margin, a certified node has c's sign."""
    reach = 2.0 * margin * _frame(resolution)[1][0] * np.sqrt(np.arange(4.0))
    certs, off = _around(nodes, resolution)
    v = values2.reshape(-1)[certs]
    del certs
    # c is the first of the largest |f(c)|: the largest or the smallest value
    hi, lo = v.max(axis=0), v.min(axis=0)
    c = np.where(hi > -lo, hi, lo)
    tie = hi == -lo
    if tie.any():
        w = v[:, tie]
        c[tie] = w[np.abs(w).argmax(axis=0), np.arange(w.shape[1])]
    return np.where(np.abs(c) > reach[off], np.where(c < 0, -1.0, 1.0), 0.0)


def _eval_level(params: FieldParams, z: np.ndarray, resolution: int, values2: np.ndarray,
                known: np.ndarray, ax: np.ndarray, marked: np.ndarray, workers: int) -> None:
    """Evaluate the nodes of the sub-lattice ax x ax x ax (a sub-lattice of
    the stride-2 one) that are marked and not yet known, into values2, and
    mark them known."""
    R, m = resolution, len(ax)
    at = (ax + 1) // 2  # where they lie on the stride-2 sub-lattice
    n = np.flatnonzero(marked & ~known[np.ix_(at, at, at)])
    i, j, k = n // (m * m), n // m % m, n % m
    del n
    out = np.empty(len(i))
    _eval_nodes(params, z, R, (ax[i] * R + ax[j]) * R + ax[k], out, workers)
    values2[at[i], at[j], at[k]] = out
    known[at[i], at[j], at[k]] = True


def _boxes(cells: np.ndarray, resolution: int) -> np.ndarray:
    """The (3, 3, 3, n) flat indices of the nodes of the closed boxes of n
    stride-2 cells (flat indices); a cell of gap 1 repeats its upper plane.
    Each box offset's indices rise with the cell."""
    R, m = resolution, resolution // 2
    ax2 = _axis(R, 2)
    step = np.arange(3)[:, None]
    box = [np.minimum(ax2[a] + step, ax2[a + 1])
           for a in (cells // (m * m), cells // m % m, cells % m)]
    return (box[0][:, None, None] * R + box[1][None, :, None]) * R + box[2][None, None, :]


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of an index array, which it sorts in place, by
    comparing neighbours: np.unique hashes, which took 18 times longer for
    the nodes of the largest desk sphere at R = 128."""
    ids.sort()
    keep = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _brick_nodes(cell: np.ndarray, resolution: int) -> np.ndarray:
    """The sorted distinct flat indices of the nodes of the boxes of the
    bricks, the open stride-2 cells (cell == 0), taken _CHUNK cells at a
    time: batches of _CELLS left more repeats across batches, and raised the
    peak RSS of the benchmark's reconstruct rounds by about 1 MiB."""
    bricks = np.flatnonzero(cell == 0)
    parts = [_distinct(_boxes(bricks[c0:c0 + _CHUNK], resolution).reshape(-1))
             for c0 in range(0, len(bricks), _CHUNK)]
    ids, n = np.empty(sum(map(len, parts)), dtype=np.int64), 0
    while parts:  # each batch is freed once copied, so it is held once
        part = parts.pop()
        ids[n:n + len(part)] = part
        n += len(part)
    return _distinct(ids)


def _band_cells(params: FieldParams, z: np.ndarray, resolution: int, workers: int):
    """The crossing cells of the lattice eval_grid fills, found by
    evaluating the field coarse to fine near the zero set only: the flat
    indices of their lower corners, sorted, and their 8 corner values in
    _CORNER_OFFSETS order, each with eval_grid's bits.

    Level s has the nodes _axis(R, s) per axis and the cells between them;
    cell k of level s splits into cells 2k and 2k + 1 of level s/2.  The
    first level has stride _COARSE_STRIDE, halved until it has at least
    three whole cells per axis.  Its node values give the margin L:
    _MARGIN times the steepest slope between adjacent nodes.  A cell whose
    corners share one sign and all lie further than L times its diagonal
    from zero is pruned; the nodes of the next level in the other cells are
    evaluated, down to stride 2.  Those levels live on one array of the
    stride-2 sub-lattice, which holds every coarser _axis(R, s).

    The last level is stored as bricks: the closed 3 x 3 x 3 node boxes of
    the open stride-2 cells, whose node ids, sorted and distinct, are
    `nodes`.  A known stride-2 node has its value; a node that a stride-2
    corner c of its cell's parent certifies, |f(c)| > 2 L |n - c| (see
    _certify), its sign; every other node is evaluated.  Then each pass
    marks the stride-2 cells whose box holds a negative node, and those
    whose box holds another.  A pruned cell whose box holds a node of the
    other sign joins the bricks, and its new nodes are evaluated; otherwise
    the bricks that hold both signs give the crossing lattice cells, and
    their certified corners are evaluated, until there is none: every cell
    that emits triangles then has the dense values at all 8 corners.

    Pruning and the certificate rest on one assumption: the field's slope
    stays below 2 L.  Every point of a pruned cell lies within half its
    diagonal of a corner, so it keeps the corners' sign, as does a certified
    node; all node signs are then the dense signs.
    """
    R = resolution
    _check_lattice(R, workers, extraction_bytes(R), "to extract its mesh")
    m = R // 2 + 1  # len(_axis(R, 2))
    values2 = _zeros(R, m, "its stride-2 values")
    known = np.zeros(values2.shape, dtype=bool)
    s = _COARSE_STRIDE
    while s > 1 and R - 1 < 3 * s:
        s //= 2
    cell = np.zeros((-(-(R - 1) // max(s, 2)),) * 3, dtype=np.int8)  # 0: refine, -1/+1: pruned
    margin = None
    while s > 1:
        ax = _axis(R, s)
        _eval_level(params, z, R, values2, known, ax, _corners_of(cell == 0), workers)
        V = values2 if s == 2 else values2[np.ix_(*((ax + 1) // 2,) * 3)]
        gap = np.diff(ax) * _frame(R)[1][0]
        if margin is None:
            slopes = [np.abs(np.moveaxis(np.diff(V, axis=k), k, -1)) / gap for k in range(3)]
            margin = _MARGIN * max(np.max(t) for t in slopes)
        # far: every corner lies further than L times the diagonal from
        # zero.  Only a level's last gap on an axis can be short, so the
        # cells fall into at most 8 blocks of one diagonal each
        k = len(gap)
        blocks = [(0, k)] if gap[-1] == gap[0] else [(0, k - 1), (k - 1, k)]
        sq = gap ** 2
        far = np.ones(cell.shape, dtype=bool)
        for x0, x1 in blocks:
            for y0, y1 in blocks:
                for z0, z1 in blocks:
                    reach = margin * np.sqrt(sq[x0] + sq[y0] + sq[z0])
                    v = V[x0:x1 + 1, y0:y1 + 1, z0:z1 + 1]
                    beyond = (v > reach) | (v < -reach)
                    for w in _corner_views(beyond):
                        far[x0:x1, y0:y1, z0:z1] &= w
        code = _case_index(V < 0)
        prune = (cell == 0) & far & ((code == 0) | (code == 255))
        cell[prune] = np.where(code[prune] == 255, -1, 1)
        del V, v, far, code, prune, beyond
        if s == 2:
            break
        s //= 2
        n = -(-(R - 1) // s)
        cell = cell.repeat(2, 0).repeat(2, 1).repeat(2, 2)[:n, :n, :n]
    # the last level: the bricks' nodes, with their values, signs or 0
    nodes = _brick_nodes(cell, R)
    values, done = np.zeros(len(nodes)), np.zeros(len(nodes), dtype=bool)
    ax2 = _axis(R, 2)
    at2 = np.flatnonzero(_corners_of(cell == 0))  # the bricks' stride-2 nodes
    at = np.searchsorted(nodes, (ax2[at2 // (m * m)] * R + ax2[at2 // m % m]) * R + ax2[at2 % m])
    values[at] = values2.reshape(-1)[at2]
    done[at] = known.reshape(-1)[at2]
    del at2, at
    if margin is not None:  # None when the first level is the last: nothing certifies
        for c0 in range(0, len(nodes), _CHUNK):  # which keeps the certifier values small
            at = np.flatnonzero(~done[c0:c0 + _CHUNK]) + c0
            values[at] = _certify(values2, nodes[at], R, margin)
    # held[0] and held[1] mark the stride-2 cells whose box holds a negative
    # node and a non-negative one.  A certified node has the sign of a known
    # stride-2 node in every box that holds it
    held = []
    for side in (known & (values2 < 0), known & (values2 >= 0)):
        held.append(np.zeros(cell.shape, dtype=bool))
        for view in _corner_views(side):
            held[-1] |= view
    finite = np.isfinite(values2).all()
    del values2, known, side
    pending = np.flatnonzero(~done & (values == 0))
    while True:
        for c0 in range(0, len(pending), 8 * _CHUNK):  # a few chunks at a time, for memory
            at = pending[c0:c0 + 8 * _CHUNK]
            out = np.empty(len(at))
            _eval_nodes(params, z, R, nodes[at], out, workers)
            values[at] = out
        done[pending] = True
        for c0 in range(0, len(pending), _CHUNK):
            at = pending[c0:c0 + _CHUNK]
            cells, _ = _around(nodes[at], R, cells=True)
            neg = values[at] < 0
            held[0].reshape(-1)[cells[:, neg]] = True
            held[1].reshape(-1)[cells[:, ~neg]] = True
        join = ((cell == 1) & held[0]) | ((cell == -1) & held[1])
        if join.any():  # the slope passed 2 L there: follow the surface out
            cell[join] = 0
            old, nodes = nodes, _brick_nodes(cell, R)
            at = np.searchsorted(nodes, old)
            grown = np.zeros(len(nodes)), np.zeros(len(nodes), dtype=bool)
            grown[0][at], grown[1][at] = values, done
            values, done = grown
            pending = np.flatnonzero(~done & (values == 0))  # the new nodes
            continue
        keys, corners = [np.zeros(0, dtype=np.int64)], [np.zeros((0, 8))]
        todo = np.zeros(len(nodes), dtype=bool)
        active = np.flatnonzero(held[0] & held[1] & (cell == 0))
        for c0 in range(0, len(active), _CELLS):
            ids = _boxes(active[c0:c0 + _CELLS], R)
            pos = np.searchsorted(nodes, ids)  # an exact hit: every box node is in nodes
            v = values[pos]
            code = _case_index(v < 0)
            # a child cell of a gap-1 cell that repeats a plane is no cell
            cross = (code != 0) & (code != 255) & (ids[1:, 1:, 1:] - ids[:-1, :-1, :-1]
                                                   == R * R + R + 1)
            todo[pos[_corners_of(cross) & ~done[pos]]] = True
            n = ids.shape[-1]
            at = np.flatnonzero(cross)
            at = _CHILD_AT[at // n] * n + at % n  # the lower corners, on the (3, 3, 3, n) box
            keys.append(ids.reshape(-1)[at])
            corners.append(v.reshape(-1)[at[:, None] + _CORNER_AT * n])
        pending = np.flatnonzero(todo)
        if not len(pending):
            break
    if not (finite and np.isfinite(values).all()):
        raise NonFiniteValue("grid contains non-finite values")
    keys, corners = np.concatenate(keys), np.concatenate(corners)
    order = np.argsort(keys)
    return keys[order], corners[order]


def _mesh_cells(resolution: int, lower: np.ndarray, spacing: np.ndarray,
                keys: np.ndarray, corners: np.ndarray) -> TriangleMesh:
    """Marching cubes on the crossing cells of an R^3 lattice: keys are the
    flat indices (k fastest) of their lower corners, in rising order, and
    corners their 8 values in _CORNER_OFFSETS order.  Edge b of the cell at
    (i, j, k) has the global id ((k R + j) R + i) 3 + OFF[b], so a vertex
    shared by cells is made once, and vertices come in the order of their
    edge ids."""
    R = resolution
    if not len(keys):
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    codes = np.zeros(len(keys), dtype=np.uint8)
    for b in range(7, -1, -1):
        codes += codes
        codes |= corners[:, b] < 0
    gids = ((keys % R * R + keys // R % R) * R + keys // (R * R)) * 3  # x fastest
    off = ((_EDGE_BASE[:, 2] * R + _EDGE_BASE[:, 1]) * R + _EDGE_BASE[:, 0]) * 3 + _EDGE_AXIS

    # triangles as (cell, local-edge) triples from the case table
    tri_cell, tri_edges = [], []
    for col in range(0, 15, 3):
        cells = np.flatnonzero(TRI_TABLE[codes, col] >= 0)
        if len(cells):
            tri_cell.append(cells)
            tri_edges.append(TRI_TABLE[codes[cells], col:col + 3])
    tri_cell = np.concatenate(tri_cell)
    tri_edges = np.concatenate(tri_edges)
    unique_ids, faces = np.unique(gids[tri_cell, None] + off[tri_edges], return_inverse=True)
    del gids

    # vertex positions by linear interpolation along each cut edge, whose
    # end values any cell that cuts it holds
    seen = np.empty(len(unique_ids), dtype=np.intp)
    seen[faces.reshape(-1)] = np.arange(faces.size)
    cell, edge = tri_cell[seen // 3], tri_edges.reshape(-1)[seen]
    v0 = corners[cell, _EDGE_ENDS[edge, 0]]
    v1 = corners[cell, _EDGE_ENDS[edge, 1]]
    del seen, cell, edge
    axis = unique_ids % 3
    rest = unique_ids // 3
    p0 = np.stack([rest % R, (rest // R) % R, rest // (R * R)], axis=1)
    p1 = p0.copy()
    p1[np.arange(len(axis)), axis] += 1
    t = v0 / (v0 - v1)
    verts = lower + p0 * spacing + (t[:, None] * spacing) * (p1 - p0)

    # the classic table winds faces with normals toward lower values; flip
    # so normals follow increasing field (outward for negative-inside)
    return TriangleMesh(verts, np.ascontiguousarray(faces.reshape(-1, 3)[:, ::-1]))


def marching_cubes(grid: ScalarGrid) -> TriangleMesh:
    """Extract the zero-level set as an indexed triangle mesh."""
    vals = grid.values
    if not np.isfinite(vals).all():
        raise NonFiniteValue("grid contains non-finite values")
    R = grid.resolution
    code = _case_index(vals < 0)
    ci, cj, ck = np.nonzero((code != 0) & (code != 255))
    del code
    corners = np.stack([vals[ci + dx, cj + dy, ck + dz] for dx, dy, dz in _CORNER_OFFSETS],
                       axis=1)
    return _mesh_cells(R, grid.lower, grid.spacing, (ci * R + cj) * R + ck, corners)


def reconstruct_shape(checkpoint, code: np.ndarray, resolution: int,
                      workers: int = 1) -> TriangleMesh:
    """Mesh the zero-level set of the field for one latent code on
    eval_grid's lattice, evaluating the field only near that set (see
    _band_cells); EmptySet if the set has no face on the lattice.
    InvalidResolution if the extraction's peak memory would exceed
    physical memory."""
    code = np.asarray(code, dtype=np.float64).ravel()
    if code.shape[0] != checkpoint.params.arch.latent_dim:
        raise DimensionMismatch("code dimension does not match the checkpoint")
    keys, corners = _band_cells(checkpoint.params, code, resolution, workers)
    mesh = _mesh_cells(resolution, *_frame(resolution), keys, corners)
    if not len(mesh.faces):
        raise EmptySet(f"the zero set misses the [-{DEFAULT_HALFWIDTH}, "
                       f"{DEFAULT_HALFWIDTH}]^3 lattice at resolution {resolution}")
    return mesh
