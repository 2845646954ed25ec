"""Uniform grid evaluation of the field and marching-cubes extraction.

Grid values are stored as values[i, j, k] for the lattice point
(x_i, y_j, z_k); serialization and cell traversal use x-fastest order.
eval_grid's lattice is fixed at [-1.1, 1.1]^3 and is filled in block-aligned
chunks of flat node indices.  Extraction uses the classic 256-case tables
with shared edge vertices, so the output is an indexed mesh.  A corner counts
as inside when its value is below the iso level (negative-inside convention);
triangle winding makes face normals point toward increasing field values.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .container import Reader, Writer
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

GRID_MAGIC = b"NSDG"
GRID_VERSION = 1
DEFAULT_HALFWIDTH = 1.1
_CHUNK = 16 * _BLOCK  # eval_grid's nodes per forward call: 16 padded blocks

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


def _one_blas_thread():
    """eval_grid's pool initializer: run numpy's bundled OpenBLAS (numpy.libs
    in pip wheels; nothing happens without it) single-threaded in this thread.
    BLAS threads under each worker spin and contend, which made 4 workers
    slower than 1 on 2 cores; GEMM output elements do not depend on the
    thread count, so the values keep their bits."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            ctypes.CDLL(path).openblas_set_num_threads_local(1)


def eval_grid(params: FieldParams, z: np.ndarray, resolution: int,
              workers: int = 1) -> ScalarGrid:
    """Evaluate the field on the R^3 lattice over [-DEFAULT_HALFWIDTH,
    DEFAULT_HALFWIDTH]^3, walking flat node indices n of values (k fastest)
    in chunks of _CHUNK nodes, so only the last forward call pads a partial
    block.  workers > 1 maps the chunks over a thread pool whose threads
    each run OpenBLAS single-threaded; values are bitwise independent of
    workers because per-point evaluation is canonical.
    """
    if resolution < 2:
        raise InvalidResolution("grid resolution must be >= 2")
    if workers < 1:
        raise InvalidCount(f"workers must be >= 1, got {workers}")
    R = resolution
    try:
        values = np.empty((R, R, R), dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: R^3 overflows numpy's array size
        raise InvalidResolution(f"grid resolution {R} needs {8 * R ** 3} bytes "
                                "for its values, more than can be allocated") from None
    grid = ScalarGrid(R, np.full(3, -DEFAULT_HALFWIDTH), np.full(3, DEFAULT_HALFWIDTH), values)
    cx, cy, cz = (grid.axis_coords(axis) for axis in range(3))
    flat = grid.values.reshape(-1)  # a view: writes land in grid.values

    def do_chunk(n0: int):
        n = np.arange(n0, min(n0 + _CHUNK, flat.size))
        pts = np.stack([cx[n // (R * R)], cy[n // R % R], cz[n % R]], axis=1)
        del n  # held across forward, it made malloc re-fault heap pages every block
        flat[n0:n0 + len(pts)] = forward(params, z, pts)

    starts = range(0, flat.size, _CHUNK)
    if workers == 1:
        list(map(do_chunk, starts))
    else:
        with ThreadPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            list(pool.map(do_chunk, starts))
    return grid


def marching_cubes(grid: ScalarGrid, iso: float = 0.0) -> TriangleMesh:
    """Extract the iso-level set as an indexed triangle mesh."""
    vals = grid.values
    if not np.isfinite(vals).all():
        raise NonFiniteValue("grid contains non-finite values")
    R = grid.resolution
    inside = vals < iso
    cube_idx = np.zeros((R - 1, R - 1, R - 1), dtype=np.int32)
    for b, (dx, dy, dz) in enumerate(_CORNER_OFFSETS):
        cube_idx |= inside[dx:dx + R - 1, dy:dy + R - 1, dz:dz + R - 1] << b
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

    unique_ids, faces_flat = np.unique(tri_gids, return_inverse=True)
    faces = faces_flat.reshape(-1, 3)

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
    faces = faces[:, ::-1]

    # drop triangles degenerated by vertex sharing, then unreferenced vertices
    f = faces
    keep = (f[:, 0] != f[:, 1]) & (f[:, 1] != f[:, 2]) & (f[:, 0] != f[:, 2])
    faces = faces[keep]
    used = np.unique(faces)
    remap = np.full(len(verts), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriangleMesh(verts[used], remap[faces])


def reconstruct_shape(checkpoint, code: np.ndarray, resolution: int,
                      workers: int = 1) -> TriangleMesh:
    """Evaluate the field for one latent code and mesh its zero-level set;
    EmptySet if that set has no face on the lattice."""
    code = np.asarray(code, dtype=np.float64).ravel()
    if code.shape[0] != checkpoint.arch.latent_dim:
        raise DimensionMismatch("code dimension does not match the checkpoint")
    grid = eval_grid(checkpoint.params, code, resolution, workers=workers)
    mesh = marching_cubes(grid, 0.0)
    if not len(mesh.faces):
        raise EmptySet(f"the zero set misses the [-{DEFAULT_HALFWIDTH}, "
                       f"{DEFAULT_HALFWIDTH}]^3 lattice at resolution {resolution}")
    return mesh


def save_grid(grid: ScalarGrid, path) -> None:
    """Binary container: magic, version, u32 resolution, lower and upper
    corners, then the values with x fastest (LE float64)."""
    with open(path, "wb") as fh:
        w = Writer(fh, GRID_MAGIC, GRID_VERSION)
        w.pack("<I", grid.resolution)
        w.array(np.concatenate([grid.lower, grid.upper]))
        w.array(grid.values.ravel(order="F"))


def load_grid(path) -> ScalarGrid:
    r = Reader(path, GRID_MAGIC, GRID_VERSION, "grid")
    (R,) = r.unpack("<I")
    bounds = r.array((6,))
    values = r.array((R * R * R,)).reshape((R, R, R), order="F")
    r.finish()
    return ScalarGrid(R, bounds[:3], bounds[3:], values)
