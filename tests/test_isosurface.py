"""Grid evaluation and marching-cubes extraction against analytic oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfshapes import blas, isosurface
from sdfshapes.cohort import generate_cohort
from sdfshapes.errors import (DimensionMismatch, EmptySet, InvalidCount,
                              InvalidResolution, NonFiniteValue)
from sdfshapes.field import FieldParams, forward
from sdfshapes.isosurface import (_CHUNK, ScalarGrid, eval_grid, marching_cubes,
                                  reconstruct_shape)
from sdfshapes.mc_tables import TRI_TABLE

from conftest import (assert_band_equals_dense, assert_closed_off_the_lattice_boundary,
                      perturbed_checkpoint, random_params, tiny_arch, tiny_checkpoint)


def sphere_grid(R, radius=0.6, half=1.0):
    c = np.linspace(-half, half, R)
    x, y, z = np.meshgrid(c, c, c, indexing="ij")
    vals = np.sqrt(x * x + y * y + z * z) - radius
    return ScalarGrid(R, np.full(3, -half), np.full(3, half), vals)


def euler_characteristic(mesh):
    V = len(mesh.vertices)
    F = len(mesh.faces)
    edges = np.sort(np.concatenate([mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]],
                                    mesh.faces[:, [0, 2]]]), axis=1)
    E = len(np.unique(edges, axis=0))
    return V - E + F


def signed_volume(mesh):
    tri = mesh.vertices[mesh.faces]
    return float(np.einsum("ij,ij->i", tri[:, 0],
                           np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0)


# ---------------------------------------------------------------- ScalarGrid

def test_grid_axis_coords_exact():
    g = ScalarGrid(3, np.full(3, -1.0), np.full(3, 1.0), np.zeros((3, 3, 3)))
    assert np.array_equal(g.axis_coords(0), [-1.0, 0.0, 1.0])
    assert np.array_equal(g.spacing, [1.0, 1.0, 1.0])


def test_grid_validation():
    with pytest.raises(InvalidResolution):
        ScalarGrid(1, np.zeros(3), np.ones(3), np.zeros((1, 1, 1)))
    with pytest.raises(DimensionMismatch):
        ScalarGrid(3, np.zeros(3), np.ones(3), np.zeros((3, 3, 2)))


# ----------------------------------------------------------------- eval_grid

def test_eval_grid_constant_network():
    arch = tiny_arch()
    p = FieldParams(arch, [np.zeros((dout, din)) for din, dout in arch.layer_dims()],
                    [np.zeros(dout) for _, dout in arch.layer_dims()])
    p.biases[-1][:] = 0.4
    g = eval_grid(p, np.zeros(4), 5)
    assert (g.values == g.values.flat[0]).all()


def test_eval_grid_matches_direct_forward_bitwise():
    arch = tiny_arch(width=16)
    p = random_params(arch, 4)
    z = np.random.default_rng(0).normal(size=4) * 0.3
    R = 33  # 35937 nodes: two whole chunks and a partial third
    g = eval_grid(p, z, R)
    assert np.array_equal(g.lower, [-1.1] * 3) and np.array_equal(g.upper, [1.1] * 3)
    cx = g.axis_coords(0)
    # both sides of every chunk boundary, the last node and an interior node
    flat = [0, 3306, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, R ** 3 - 1]
    assert 2 * _CHUNK < R ** 3 < 3 * _CHUNK
    for n in flat:
        i, j, k = np.unravel_index(n, (R, R, R))
        direct = forward(p, z, np.array([[cx[i], cx[j], cx[k]]]))[0]
        assert g.values[i, j, k] == direct


def test_eval_grid_worker_invariance_bitwise():
    arch = tiny_arch(width=16)
    p = random_params(arch, 6)
    z = np.zeros(4)
    base = eval_grid(p, z, 33, workers=1)  # three chunks, the last one partial
    for workers in (2, 4):
        other = eval_grid(p, z, 33, workers=workers)
        assert np.array_equal(base.values, other.values)


def test_one_blas_thread_restores_the_thread_count(pool_workers):
    set_threads = blas._set_threads()
    if set_threads is None:
        pytest.skip("numpy bundles no OpenBLAS")
    p = random_params(tiny_arch(width=16), 6)
    old = set_threads(2)  # set_threads returns the count it replaces
    try:
        with blas.one_blas_thread():
            assert set_threads(1) == 1
        assert set_threads(2) == 2
        eval_grid(p, np.zeros(4), 33, workers=3)  # its pool threads run single-threaded
        assert set_threads(2) == 2
        pool_workers(3)  # so do the cohort's
        generate_cohort(tiny_checkpoint(n_codes=3), 4, 2, seed=0, resolution=12)
        assert set_threads(2) == 2
    finally:
        set_threads(old)


def test_pool_map_runs_one_worker_single_threaded(monkeypatch):
    set_threads = blas._set_threads()
    if set_threads is None:
        pytest.skip("numpy bundles no OpenBLAS")
    calls = []

    def spy(count):
        calls.append(count)
        return set_threads(count)

    monkeypatch.setattr(blas, "_set_threads", lambda: spy)
    old = set_threads(2)
    try:
        # set_threads(1) inside fn reports the count fn runs at, and keeps it
        seen = blas.pool_map(lambda i: (i, set_threads(1)), range(3), 1)
        assert seen == [(0, 1), (1, 1), (2, 1)]
        assert calls == [1, 2]  # pinned once, then restored
        assert set_threads(2) == 2
    finally:
        set_threads(old)


def test_eval_grid_resolution_error():
    p = random_params(tiny_arch(), 0)
    with pytest.raises(InvalidResolution):
        eval_grid(p, np.zeros(4), 1)
    for workers in (0, -3):
        with pytest.raises(InvalidCount, match="workers"):
            eval_grid(p, np.zeros(4), 5, workers=workers)
    # 7.1 PiB, and 8e21 bytes past numpy's size limit: both fail at once
    for R, size in ((100_000, "8000000000000000"), (10**7, "8000000000000000000000")):
        with pytest.raises(InvalidResolution, match=f"resolution {R} needs {size} bytes"):
            eval_grid(p, np.zeros(4), R)


# ------------------------------------------------------------ marching_cubes

def test_mc_all_positive_empty():
    g = ScalarGrid(4, np.zeros(3), np.ones(3), np.ones((4, 4, 4)))
    m = marching_cubes(g)
    assert len(m.vertices) == 0 and len(m.faces) == 0


def test_mc_single_cell_one_triangle_at_midpoints():
    vals = np.ones((2, 2, 2))
    vals[0, 0, 0] = -1.0
    g = ScalarGrid(2, np.zeros(3), np.ones(3), vals)
    m = marching_cubes(g)
    assert len(m.faces) == 1
    expected = {(0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)}
    got = {tuple(v) for v in m.vertices}
    assert got == expected


def test_mc_sphere_euler_and_radius_bound():
    R = 64
    g = sphere_grid(R, 0.6)
    m = marching_cubes(g).validate()
    assert euler_characteristic(m) == 2
    cell_diag = np.linalg.norm(g.spacing)
    radii = np.linalg.norm(m.vertices, axis=1)
    assert np.abs(radii - 0.6).max() <= 2 * cell_diag


def test_mc_sphere_genus_zero_at_small_resolutions():
    for R in (16, 24, 33):
        m = marching_cubes(sphere_grid(R, 0.6))
        assert euler_characteristic(m) == 2


def test_mc_outward_winding():
    m = marching_cubes(sphere_grid(48, 0.6))
    vol = signed_volume(m)
    assert abs(vol - 4.0 / 3.0 * np.pi * 0.6 ** 3) < 0.02
    assert vol > 0  # normals point toward increasing field values


def test_mc_vertices_interpolate_to_iso():
    iso = 0.13
    g = sphere_grid(24, 0.55)
    m = marching_cubes(ScalarGrid(g.resolution, g.lower, g.upper, g.values - iso))
    # every vertex must sit on a grid edge where linear interpolation of the
    # two endpoint values reproduces the iso level
    sp = g.spacing
    rel = (m.vertices - g.lower) / sp
    snapped = np.rint(rel)
    on_axis = np.abs(rel - snapped) > 1e-12
    assert (on_axis.sum(axis=1) == 1).all()  # exactly one fractional coordinate
    cx = g.axis_coords(0)
    for vert, off in zip(m.vertices, on_axis):
        axis = int(np.nonzero(off)[0][0])
        lo_idx = np.floor((vert - g.lower) / sp + 1e-12).astype(int)
        hi_idx = lo_idx.copy()
        hi_idx[axis] += 1
        v0 = g.values[tuple(lo_idx)]
        v1 = g.values[tuple(hi_idx)]
        t = (vert[axis] - cx[lo_idx[axis]]) / sp[axis]
        assert v0 < iso <= v1 or v1 < iso <= v0
        assert abs((v0 + t * (v1 - v0)) - iso) < 1e-9


def assert_no_degenerate_or_unreferenced(m):
    f = m.faces
    assert ((f[:, 0] != f[:, 1]) & (f[:, 1] != f[:, 2]) & (f[:, 0] != f[:, 2])).all()
    assert set(np.unique(f)) == set(range(len(m.vertices)))


def test_mc_no_degenerate_or_unreferenced():
    assert_no_degenerate_or_unreferenced(marching_cubes(sphere_grid(32, 0.6)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.floats(0.05, 0.95))
def test_mc_no_degenerate_or_unreferenced_random_grids(seed, R, frac):
    # independent random node values hit many of the 256 cases per grid
    vals = np.random.default_rng(seed).normal(size=(R, R, R))
    iso = vals.min() + frac * (vals.max() - vals.min())
    m = marching_cubes(ScalarGrid(R, np.zeros(3), np.ones(3), vals - iso))
    assert_no_degenerate_or_unreferenced(m)
    assert m.faces.flags.c_contiguous


def reference_marching_cubes(grid):
    """The dense extractor the crossing-cell core replaced: global edge ids
    from three (cells, 12) coordinate arrays, end values read off the grid."""
    vals, R = grid.values, grid.resolution
    code = isosurface._case_index(vals < 0)
    ci, cj, ck = np.nonzero((code != 0) & (code != 255))
    if not len(ci):
        return np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)
    base, axis = isosurface._EDGE_BASE, isosurface._EDGE_AXIS
    ids = (((ck[:, None] + base[:, 2]) * R + cj[:, None] + base[:, 1]) * R
           + ci[:, None] + base[:, 0]) * 3 + axis
    tt = TRI_TABLE[code[ci, cj, ck]]
    cells, edges = [], []
    for col in range(0, 15, 3):
        on = tt[:, col] >= 0
        cells.append(np.nonzero(on)[0])
        edges.append(tt[on, col:col + 3])
    unique_ids, faces = np.unique(ids[np.concatenate(cells)[:, None], np.concatenate(edges)],
                                  return_inverse=True)
    rest = unique_ids // 3
    p0 = np.stack([rest % R, rest // R % R, rest // (R * R)], axis=1)
    p1 = p0.copy()
    p1[np.arange(len(p1)), unique_ids % 3] += 1
    v0, v1 = vals[tuple(p0.T)], vals[tuple(p1.T)]
    t = v0 / (v0 - v1)
    sp = grid.spacing
    return grid.lower + p0 * sp + (t[:, None] * sp) * (p1 - p0), faces.reshape(-1, 3)[:, ::-1]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 12), st.floats(0.05, 0.95))
def test_crossing_cell_core_equals_dense_marching_cubes(seed, R, frac):
    # the core, given the crossing cells a per-cell loop finds, meshes the
    # bytes of marching_cubes, and both the bytes of the dense extractor
    # they replaced; random node values put crossing cells on every face of
    # the lattice
    vals = np.random.default_rng(seed).normal(size=(R, R, R))
    vals -= vals.min() + frac * (vals.max() - vals.min())
    grid = ScalarGrid(R, np.full(3, -0.5), np.full(3, 1.5), vals)
    mesh = marching_cubes(grid)
    keys, corners = [], []
    for i, j, k in np.ndindex((R - 1,) * 3):
        c = [vals[i + dx, j + dy, k + dz] for dx, dy, dz in isosurface._CORNER_OFFSETS]
        if min(c) < 0 <= max(c):
            keys.append((i * R + j) * R + k)
            corners.append(c)
    core = isosurface._mesh_cells(R, grid.lower, grid.spacing, np.array(keys, dtype=np.int64),
                                  np.array(corners).reshape(-1, 8))
    verts, faces = reference_marching_cubes(grid)
    for m in (mesh, core):
        assert m.vertices.tobytes() == verts.tobytes() and m.vertices.shape == verts.shape
        assert m.faces.tobytes() == faces.tobytes() and m.faces.dtype == faces.dtype


def test_tri_table_never_cuts_an_edge_twice_in_a_triangle():
    # with the 12 edges of a cell distinct, no emitted face can repeat a vertex
    edges = {(tuple(b), a) for b, a in zip(isosurface._EDGE_BASE, isosurface._EDGE_AXIS)}
    assert len(edges) == 12
    for case, row in enumerate(TRI_TABLE):
        used = row[row >= 0]
        assert len(used) % 3 == 0 and (row[len(used):] == -1).all(), case
        for tri in used.reshape(-1, 3):
            assert len(set(tri.tolist())) == 3, (case, tri)


def test_case_index_matches_a_per_cell_loop():
    corners = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
               (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    for case in range(256):  # every case on one cell
        mask = np.zeros((2, 2, 2), dtype=bool)
        for b, c in enumerate(corners):
            mask[c] = bool(case >> b & 1)
        assert isosurface._case_index(mask).tolist() == [[[case]]]
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 7):
        mask = rng.random((n, n, n)) < 0.5
        code = isosurface._case_index(mask)
        assert code.dtype == np.uint8 and code.shape == (n - 1,) * 3
        for i, j, k in np.ndindex(code.shape):
            expect = sum(1 << b for b, (dx, dy, dz) in enumerate(corners)
                         if mask[i + dx, j + dy, k + dz])
            assert code[i, j, k] == expect


def test_mc_rejects_non_finite():
    vals = np.ones((3, 3, 3))
    vals[1, 1, 1] = np.nan
    with pytest.raises(NonFiniteValue):
        marching_cubes(ScalarGrid(3, np.zeros(3), np.ones(3), vals))


# -------------------------------------------------------- reconstruct_shape

def test_reconstruct_matches_explicit_composition_bitwise():
    # the narrow band against marching cubes on the dense grid
    ck = tiny_checkpoint()
    for R in (2, 3, 16, 20, 33, 40, 64):
        for z in ck.codes:
            assert_band_equals_dense(ck, z, R)


def test_reconstruct_untrained_geometric_init_is_sphere_like():
    ck = tiny_checkpoint()
    m = reconstruct_shape(ck, ck.codes[0], 32)
    assert len(m.faces) > 0
    radii = np.linalg.norm(m.vertices, axis=1)
    assert 0.2 < radii.mean() < 0.8


def test_reconstruct_errors():
    ck = tiny_checkpoint()
    with pytest.raises(InvalidResolution):
        reconstruct_shape(ck, ck.codes[0], 1)
    with pytest.raises(DimensionMismatch):
        reconstruct_shape(ck, np.zeros(9), 16)
    # the sphere-like zero set lies between the 8 corners of an R = 2 lattice
    with pytest.raises(EmptySet, match=r"\[-1.1, 1.1\]\^3 lattice at resolution 2"):
        reconstruct_shape(ck, ck.codes[0], 2)


# ---------------------------------------------------------------- narrow band

def test_band_follows_the_surface_out_of_pruned_cells(monkeypatch):
    # with no margin only cells whose corners change sign are refined, so
    # crossing lattice cells lie in pruned cells; those must join the bricks
    # and the mesh must still be the dense one.  At odd R no stride-2 cell
    # has a gap of 1
    monkeypatch.setattr(isosurface, "_MARGIN", 0.0)
    ck = tiny_checkpoint()
    for R in (33, 40, 64, 65):
        assert_band_equals_dense(ck, ck.codes[0], R)


def test_closed_check_exempts_only_lattice_boundary_edges():
    # a sphere of radius 1.5 is cut by all six faces of the [-1.1, 1.1]^3
    # lattice: its open edges lie on them.  One face less opens three edges
    mesh = marching_cubes(sphere_grid(24, 1.5, isosurface.DEFAULT_HALFWIDTH))
    assert_closed_off_the_lattice_boundary(mesh, 24)
    mesh.faces = mesh.faces[1:]
    with pytest.raises(AssertionError, match="edges in"):
        assert_closed_off_the_lattice_boundary(mesh, 24)


@pytest.mark.parametrize("seed", range(8))
def test_band_equals_dense_on_perturbed_fields(seed):
    # R - 1 = 23, 32 and 39: three and four levels; where R - 1 is odd the
    # last stride-2 gap is one spacing.  The meshes must also be closed
    # wherever the lattice does not cut them
    ck = perturbed_checkpoint(seed)
    for R in (24, 33, 40):
        for z in ck.codes:
            mesh = assert_band_equals_dense(ck, z, R, workers=(1, 2))
            assert_closed_off_the_lattice_boundary(mesh, R)


def test_last_level_reads_only_known_certifiers(monkeypatch):
    # every stride-2 value _certify reads must be a dense value already,
    # every certified or pruned node must have the dense sign, the nodes must
    # be the nodes of the bricks' boxes, and the field is evaluated once at
    # each brick node that is neither known nor certified
    seen = {}
    eval_level, brick_nodes, around, certify, eval_nodes = (
        isosurface._eval_level, isosurface._brick_nodes, isosurface._around,
        isosurface._certify, isosurface._eval_nodes)

    def recording_eval_level(params, z, R, values2, known, *rest):
        seen["values2"], seen["known"] = values2, known  # not written after the coarse levels
        return eval_level(params, z, R, values2, known, *rest)

    def recording_brick_nodes(cell, R):
        nodes = brick_nodes(cell, R)
        seen.setdefault("bricks", (cell.copy(), nodes.copy()))
        return nodes

    def recording_around(nodes, R, cells=False):
        got = around(nodes, R, cells)
        if not cells:
            seen["certs"].append((nodes, *got))
        return got

    def recording_certify(values2, nodes, R, margin):
        signs = certify(values2, nodes, R, margin)
        seen["certified"].append((nodes, signs))
        return signs

    def recording_eval_nodes(params, z, R, nodes, out, workers):
        eval_nodes(params, z, R, nodes, out, workers)
        if "bricks" in seen:  # the last level's evaluations
            seen["evaluated"].append((nodes.copy(), out.copy()))

    for name, fn in (("_eval_level", recording_eval_level), ("_certify", recording_certify),
                     ("_brick_nodes", recording_brick_nodes), ("_around", recording_around),
                     ("_eval_nodes", recording_eval_nodes)):
        monkeypatch.setattr(isosurface, name, fn)
    ck, tiny = perturbed_checkpoint(1), tiny_checkpoint()
    cases = [(ck.params, z, R) for z in ck.codes for R in (7, 8, 24, 33, 40)]
    cases += [(tiny.params, tiny.codes[0], R) for R in (20, 64)]
    for params, z, R in cases:
        seen.clear()
        dense = eval_grid(params, z, R).values.reshape(-1)
        seen.update(certs=[], certified=[], evaluated=[])
        keys, corners = isosurface._band_cells(params, z, R, 1)
        values2, known = seen["values2"], seen["known"]
        cell, nodes = seen["bricks"]
        # nodes are the sorted distinct nodes of the bricks' boxes, so every
        # lookup of a box node finds it
        assert np.array_equal(nodes, np.unique(isosurface._boxes(np.flatnonzero(cell == 0), R)))
        # every node in the box of a pruned cell has the cell's sign
        pruned = np.flatnonzero(cell != 0)
        inside = dense[isosurface._boxes(pruned, R)] < 0
        assert (inside == (cell.reshape(-1)[pruned] < 0)).all()
        ax2 = isosurface._axis(R, 2)
        m = len(ax2)
        assert seen["certs"]  # a margin from R = 7 up, so certificates
        for at_nodes, certs, off in seen["certs"]:
            # certs index the stride-2 sub-lattice; at is their lattice index
            at = np.stack([ax2[certs // (m * m)], ax2[certs // m % m], ax2[certs % m]])
            assert known.reshape(-1)[certs].all()
            flat = (at[0] * R + at[1]) * R + at[2]
            assert values2.reshape(-1)[certs].tobytes() == dense[flat].tobytes()
            # the certifiers are the stride-2 corners of the nodes' own cells
            spread = np.abs(at - np.stack(np.unravel_index(at_nodes, (R,) * 3))[:, None])
            assert spread.max() <= 1 and ((spread == 1).sum(axis=0) == off).all()
            assert (off >= 1).all()
        certified = np.concatenate([n[s != 0] for n, s in seen["certified"]])
        signs = np.concatenate([s[s != 0] for _, s in seen["certified"]])
        assert np.array_equal(signs < 0, dense[certified] < 0)
        # the evaluated nodes have the dense bytes: once each, never a known
        # stride-2 node, and every node neither known nor certified
        evaluated = np.concatenate([n for n, _ in seen["evaluated"]])
        assert np.concatenate([v for _, v in seen["evaluated"]]).tobytes() == \
            dense[evaluated].tobytes()
        assert len(np.unique(evaluated)) == len(evaluated) and np.isin(evaluated, nodes).all()
        sub, off = around(nodes, R)
        on2 = nodes[(off == 0) & known.reshape(-1)[sub[0]]]
        assert not np.isin(evaluated, on2).any()
        assert np.isin(np.setdiff1d(nodes, np.union1d(on2, certified)), evaluated).all()
        # and the crossing cells, with their corners, are the dense ones
        code = isosurface._case_index(dense.reshape((R,) * 3) < 0)
        i, j, k = np.nonzero((code != 0) & (code != 255))
        assert np.array_equal(keys, (i * R + j) * R + k)
        offsets = isosurface._CORNER_OFFSETS @ [R * R, R, 1]
        assert corners.tobytes() == dense[keys[:, None] + offsets].tobytes()
    for R in (3, 6):  # a single level: nothing to certify from
        seen.clear()
        seen.update(certs=[], certified=[], evaluated=[])
        isosurface._band_cells(ck.params, ck.codes[0], R, 1)
        assert seen["certs"] == [] and seen["certified"] == []


def test_extraction_rejects_resolutions_beyond_physical_memory(monkeypatch):
    ck = tiny_checkpoint()
    need = isosurface.extraction_bytes
    phys = blas.physical_memory()
    if phys is not None:  # the smallest R whose extraction exceeds this machine
        R = 2
        while need(R) <= phys:
            R = R * 2 if need(2 * R) <= phys else R + 1
        with pytest.raises(InvalidResolution,
                           match=f"resolution {R} needs {need(R)} bytes to extract"):
            reconstruct_shape(ck, ck.codes[0], R)
    # a machine one byte short of extracting at R = 64; its values alone
    # fit, and the refusal comes before any allocation as large as the
    # stride-2 values
    assert need(64) - 1 >= 8 * 64 ** 3
    monkeypatch.setattr(blas, "physical_memory", lambda: need(64) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidResolution, match=f"resolution 64 needs {need(64)} bytes "
                           f"to extract its mesh, more than the {need(64) - 1} bytes of "
                           "physical memory"):
            reconstruct_shape(ck, ck.codes[0], 64)
        assert tracemalloc.get_traced_memory()[1] < 8 * 33 ** 3
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(blas, "physical_memory", lambda: 8 * 64 ** 3 - 1)
    with pytest.raises(InvalidResolution, match="resolution 64 needs 2097152 bytes for "
                       "its values, more than the 2097151 bytes of physical memory"):
        eval_grid(ck.params, ck.codes[0], 64)
