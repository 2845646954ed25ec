"""Uniform grid evaluation of the field and marching-cubes extraction.

Grid values are stored as values[i, j, k] for the lattice point
(x_i, y_j, z_k); serialization and cell traversal use x-fastest order.
Extraction uses the classic 256-case tables with shared edge vertices, so
the output is an indexed mesh.  A corner counts as inside when its value is
below the iso level (negative-inside convention); triangle winding makes
face normals point toward increasing field values.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    InvalidResolution,
    NonFiniteValue,
    ShapeInconsistency,
    TruncatedFile,
    UnsupportedVersion,
)
from .field import FieldParams, forward
from .mc_tables import TRI_TABLE
from .mesh import TriangleMesh

GRID_MAGIC = b"NSDG"
GRID_VERSION = 1
DEFAULT_HALFWIDTH = 1.1

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


def eval_grid(params: FieldParams, z: np.ndarray, resolution: int,
              halfwidth: float = DEFAULT_HALFWIDTH,
              workers: int = 1, slab_chunk: int = 1) -> ScalarGrid:
    """Evaluate the field on a uniform cubic grid.

    Work is dispatched per z-slab group; values are bitwise independent of
    workers and slab_chunk because per-point evaluation is canonical.
    """
    if resolution < 2:
        raise InvalidResolution("grid resolution must be >= 2")
    R = resolution
    lower = np.full(3, -halfwidth)
    upper = np.full(3, halfwidth)
    coords = lower[0] + (upper[0] - lower[0]) / (R - 1) * np.arange(R)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    base = np.empty((R * R, 3), dtype=np.float64)
    base[:, 0] = xx.ravel(order="F")  # x fastest within a slab
    base[:, 1] = yy.ravel(order="F")
    values = np.empty((R, R, R), dtype=np.float64)

    def do_slabs(k0: int):
        k1 = min(k0 + slab_chunk, R)
        pts = np.tile(base, (k1 - k0, 1))
        pts[:, 2] = np.repeat(coords[k0:k1], R * R)
        out = forward(params, z, pts)
        for k in range(k0, k1):
            values[:, :, k] = out[(k - k0) * R * R:(k - k0 + 1) * R * R] \
                .reshape(R, R, order="F")

    starts = range(0, R, slab_chunk)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(do_slabs, starts))
    else:
        for k0 in starts:
            do_slabs(k0)
    return ScalarGrid(R, lower, upper, values)


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
                      halfwidth: float = DEFAULT_HALFWIDTH,
                      workers: int = 1) -> TriangleMesh:
    """Evaluate the field for one latent code and mesh its zero-level set."""
    if resolution < 2:
        raise InvalidResolution("resolution must be >= 2")
    code = np.asarray(code, dtype=np.float64).ravel()
    if code.shape[0] != checkpoint.arch.latent_dim:
        raise DimensionMismatch("code dimension does not match the checkpoint")
    grid = eval_grid(checkpoint.params, code, resolution, halfwidth, workers=workers)
    return marching_cubes(grid, 0.0)


def save_grid(grid: ScalarGrid, path) -> None:
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<I", GRID_VERSION))
        fh.write(struct.pack("<I", grid.resolution))
        fh.write(np.concatenate([grid.lower, grid.upper]).astype("<f8").tobytes())
        fh.write(grid.values.ravel(order="F").astype("<f8").tobytes())


def load_grid(path) -> ScalarGrid:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != GRID_MAGIC:
        raise BadMagic(f"not a grid file: magic {data[:4]!r}")
    if len(data) < 12:
        raise TruncatedFile("grid file ends inside its header")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != GRID_VERSION:
        raise UnsupportedVersion(f"grid version {version}")
    (R,) = struct.unpack_from("<I", data, 8)
    need = 12 + 6 * 8 + R * R * R * 8
    if len(data) < need:
        raise TruncatedFile("grid file is shorter than its header claims")
    if len(data) > need:
        raise ShapeInconsistency("trailing bytes after grid payload")
    bounds = np.frombuffer(data, dtype="<f8", count=6, offset=12)
    flat = np.frombuffer(data, dtype="<f8", count=R * R * R, offset=12 + 48)
    values = flat.reshape((R, R, R), order="F").astype(np.float64)
    return ScalarGrid(R, bounds[:3].copy(), bounds[3:].copy(), values)
