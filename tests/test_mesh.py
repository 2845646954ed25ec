"""Mesh ingestion, normalization, surface sampling, and the sample-set file."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdfshapes import mesh as mesh_mod
from sdfshapes.errors import (BadMagic, DegenerateMesh, IndexOutOfRange,
                              InvalidCount, MeshParseError, NonFiniteValue,
                              SdfShapesError, ShapeInconsistency,
                              TruncatedFile, UnsupportedVersion, ZeroArea)
from sdfshapes.mesh import (SurfaceSampleSet, TriangleMesh, load_mesh,
                            load_sample_set, normalize_unit_ball,
                            sample_surface, save_mesh, save_sample_set)
from sdfshapes.primitives import box_mesh, uv_sphere_mesh

from conftest import CUBE_OBJ, STR_LINE_ENDS, mutated, mutations


# ---------------------------------------------------------------- load_mesh

def test_minimal_obj(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    m = load_mesh(p)
    assert m.vertices.shape == (3, 3)
    assert m.faces.shape == (1, 3)
    assert (m.faces[0] == (0, 1, 2)).all()


def test_obj_face_index_out_of_range(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(IndexOutOfRange):
        load_mesh(p)


def test_ply_face_index_out_of_range(tmp_path):
    p = tmp_path / "bad.PLY"  # the suffix picks the parser in any case
    p.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "element face 1\nproperty list uchar int vertex_indices\n"
                 "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n")
    with pytest.raises(IndexOutOfRange):
        load_mesh(p)


def test_cube_fixture_area(cube_obj_path):
    m = load_mesh(cube_obj_path)
    assert len(m.vertices) == 8 and len(m.faces) == 12
    # side-2 cube: 6 * 2^2
    assert abs(m.area() - 24.0) < 1e-9


def test_obj_quad_fan_triangulation(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    m = load_mesh(p)
    assert len(m.faces) == 2
    assert (m.faces == [[0, 1, 2], [0, 2, 3]]).all()


def test_obj_negative_indices_and_slashes(tmp_path):
    p = tmp_path / "rel.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3/1 -2/2 -1/3\n")
    m = load_mesh(p)
    assert (m.faces[0] == (0, 1, 2)).all()


def test_obj_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv oops 0 0\n")
    with pytest.raises(MeshParseError) as exc:
        load_mesh(p)
    assert exc.value.line_number == 2


def test_ply_roundtrip_of_cube(tmp_path):
    m = box_mesh()
    lines = ["ply", "format ascii 1.0",
             f"element vertex {len(m.vertices)}",
             "property float x", "property float y", "property float z",
             f"element face {len(m.faces)}",
             "property list uchar int vertex_indices", "end_header"]
    lines += [f"{v[0]} {v[1]} {v[2]}" for v in m.vertices]
    lines += [f"3 {f[0]} {f[1]} {f[2]}" for f in m.faces]
    p = tmp_path / "cube.ply"
    p.write_text("\n".join(lines) + "\n")
    loaded = load_mesh(p)
    assert np.allclose(loaded.vertices, m.vertices)
    assert (loaded.faces == m.faces).all()


def test_ply_truncated_body(tmp_path):
    p = tmp_path / "trunc.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 2\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "end_header\n0 0 0\n")
    with pytest.raises(MeshParseError):
        load_mesh(p)


@pytest.mark.parametrize("element", ["element vertex x", "element vertex -1",
                                     "element", "element vertex"])
def test_ply_malformed_element_line(tmp_path, element):
    p = tmp_path / "bad.ply"
    p.write_text(f"ply\nformat ascii 1.0\n{element}\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "end_header\n")
    with pytest.raises(MeshParseError) as info:
        load_mesh(p)
    assert info.value.line_number == 3


@pytest.mark.parametrize("order", [("vertex", "edge", "face"), ("vertex", "face", "edge")])
def test_ply_rows_follow_header_element_order(tmp_path, order):
    header = {"vertex": "element vertex 3\nproperty float x\nproperty float y\n"
                        "property float z\n",
              "edge": "element edge 1\nproperty int vertex1\nproperty int vertex2\n",
              "face": "element face 1\nproperty list uchar int vertex_indices\n"}
    rows = {"vertex": "0 0 0\n1 0 0\n0 1 0\n", "edge": "0 1\n", "face": "3 0 1 2\n"}
    p = tmp_path / "edge.ply"
    p.write_text("ply\nformat ascii 1.0\n" + "".join(header[e] for e in order)
                 + "end_header\n" + "".join(rows[e] for e in order))
    m = load_mesh(p)
    assert np.array_equal(m.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert np.array_equal(m.faces, [[0, 1, 2]])


def test_obj_non_finite_vertex(tmp_path):
    p = tmp_path / "nan.obj"
    p.write_text("v nan 0 0.5\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(NonFiniteValue):
        load_mesh(p)


def test_ply_non_finite_vertex(tmp_path):
    p = tmp_path / "inf.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "element face 1\nproperty list uchar int vertex_indices\n"
                 "end_header\n0 0 0\n1 inf 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(NonFiniteValue):
        load_mesh(p)


_PLY_TRIANGLE = (b"ply\nformat ascii 1.0\ncomment made by caf\xe9 \xff\nelement vertex 3\n"
                 b"property float x\nproperty float y\nproperty float z\n"
                 b"element face 1\nproperty list uchar int vertex_indices\n"
                 b"end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")


# file name -> (bytes, line of the error or None): any bytes in a comment
_NON_UTF8 = {
    "ok.obj": (b"  # \xe9\xff\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", None),
    "ok.ply": (_PLY_TRIANGLE, None),
    "tag.obj": (b"v 0 0 0\nv 1 0 0\nv 0 1 0\no caf\xe9\nf 1 2 3\n", 4),
    "face.obj": (b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\xc3\n", 4),
    "body.ply": (_PLY_TRIANGLE.replace(b"\n1 0 0\n", b"\n1 \xe9 0\n"), 12),
    "header.ply": (_PLY_TRIANGLE.replace(b"\nelement face", b"\xe9\nelement face"), 7),
}


@pytest.mark.parametrize("name", _NON_UTF8)
def test_non_utf8_bytes_only_in_comments(tmp_path, name):
    data, line = _NON_UTF8[name]
    p = tmp_path / name
    p.write_bytes(data)
    if line is None:
        m = load_mesh(p)
        assert np.array_equal(m.faces, [[0, 1, 2]])
        return
    with pytest.raises(MeshParseError, match="not UTF-8") as info:
        load_mesh(p)
    assert info.value.line_number == line


_HUGE = "99999999999999999999"


# file name -> (text, line of the face index that int64 cannot hold)
_INT64_OVERFLOW = {
    "huge.obj": (f"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 {_HUGE}\n", 4),
    "relative.obj": (f"v 0 0 0\nv 1 0 0\nv 0 1 0\n\nf -{_HUGE} 1 2\n", 5),
    "edge.obj": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9223372036854775809\n", 4),
    "huge.ply": (_PLY_TRIANGLE.decode("latin-1").replace("3 0 1 2", f"3 0 1 {_HUGE}"), 14),
}


@pytest.mark.parametrize("name", _INT64_OVERFLOW)
def test_face_index_beyond_int64_is_a_parse_error(tmp_path, name):
    text, line = _INT64_OVERFLOW[name]
    p = tmp_path / name
    p.write_bytes(text.encode("latin-1"))
    with pytest.raises(MeshParseError, match="out of range") as info:
        load_mesh(p)
    assert info.value.line_number == line


# bytes and characters that end a line for str.splitlines, and some that do not
_LINE_PIECES = STR_LINE_ENDS + [b"\x85", b"\xe9", b"v", b" ", b"0"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LINE_PIECES), max_size=30).map(b"".join))
def test_lines_end_where_bytes_splitlines_ends_them(data):
    want = [line.decode("utf-8", "surrogateescape") for line in data.splitlines()]
    for text in (data, data.decode("utf-8", "surrogateescape")):
        assert mesh_mod._text_lines(text, lambda line: "", None) == want


def test_only_newline_and_carriage_return_end_a_mesh_line(tmp_path):
    # the first line holds three vertex records, of which the parser reads one
    data = b"v 0 0 0\x0cv 1 0 0\x1cv 0 1 0\nf 1 2 3\n"
    assert mesh_mod._parse_obj_lines(data).vertices.tolist() == [[0.0, 0.0, 0.0]]
    (tmp_path / "m.obj").write_bytes(data)
    with pytest.raises(IndexOutOfRange):
        load_mesh(tmp_path / "m.obj")
    # one line, and its tokens after the third coordinate are never read
    m = mesh_mod._parse_obj_lines(b"v 0 0 0\x0bv oops 0 0\n")
    assert m.vertices.tolist() == [[0.0, 0.0, 0.0]]
    ends = _outcome(_line_parser(b"v 0 0 0\rv 1 0 0\r\nv 0 1 0\rf 1 2 3"))
    assert ends == _outcome(_line_parser(b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"))
    # two vertex rows on one line leave the PLY body a row short
    (tmp_path / "m.ply").write_bytes(
        _PLY_TRIANGLE.replace(b"\n0 0 0\n1 0 0\n", b"\n0 0 0\x0c1 0 0\n"))
    with pytest.raises(MeshParseError, match="file ends before all elements are read"):
        load_mesh(tmp_path / "m.ply")


def _outcome(read):
    """What read() makes of a mesh file: the validated arrays, or the
    SdfShapesError's type and line number."""
    try:
        m = read().validate()
    except SdfShapesError as exc:
        return type(exc), getattr(exc, "line_number", None)
    return (m.vertices.shape, m.vertices.tobytes(), m.faces.shape, m.faces.tobytes())


def _line_parser(data):
    return lambda: mesh_mod._parse_obj_lines(data)


def test_save_mesh_file_never_reaches_the_line_parser(tmp_path, monkeypatch):
    path = tmp_path / "saved.obj"
    save_mesh(uv_sphere_mesh(0.7, 9, 14), path)
    want = _outcome(_line_parser(path.read_bytes()))

    def fail(data):
        raise AssertionError("a save_mesh file fell back on the line parser")

    monkeypatch.setattr(mesh_mod, "_parse_obj_lines", fail)
    assert _outcome(lambda: load_mesh(path)) == want


_coordinates = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1.5e22, 5e-324, 1.0 / 3.0, 123456789.5]))


# tokens that float() or int() may read differently from np.loadtxt
_ODD_TOKENS = ["+1", "1E5", ".5", "5.", "-0", "1_0", "0x1p3", "inf", "nan", "1e400",
               "+3", "007", "3.0", "-1", "-2", "0", _HUGE, "9223372036854775808", "1/2/3",
               "2//1", "caf\xe9", "\u0663"]
_NON_ASCII = [b"\xe9\xff", "\u00e9".encode(), "\u2028".encode()]


def _edit_obj(lines: list, edit) -> None:
    """Apply one drawn edit to an OBJ file's lines (bytes, no line ends)."""
    kind, at, column, token = edit
    k = at % len(lines)
    if kind == "blank":
        lines.insert(k, b"")
        return
    if kind == "comment":
        lines.insert(k, b"# note " + _NON_ASCII[column])
        return
    tokens = lines[k].split(b" ")
    if len(tokens) < 4:  # a blank or comment line from an earlier edit
        return
    if kind == "token":
        tokens[1 + column] = token.encode()
    elif kind == "extra":  # a fourth face index makes a quad
        tokens.append(token.encode())
    elif kind == "tag":  # another record type, or a v line among the faces
        tokens[0] = (b"v", b"f", b"vv", b"e", b"fv")[column + at % 3]
    elif kind == "control":  # whitespace inside a line, and \r, which ends one
        tokens[1 + column] += (b"\x0b", b"\x0c", b"\x1c", b"\r")[at % 4]
    elif kind == "tab":
        tokens[:2] = [tokens[0] + b"\t" + tokens[1]]
    else:
        tokens[column] += _NON_ASCII[column]
    lines[k] = b" ".join(tokens)


# edits to a save_mesh file; the layout ones are drawn less often, so that
# many files keep the layout and take np.loadtxt with an odd token
_edits = st.tuples(st.sampled_from(["token"] * 6 + ["extra"] * 2 + [
                       "tag", "control", "tab", "blank", "comment", "non_ascii", "crlf",
                       "no_final_newline"]),
                   st.integers(0, 10 ** 6), st.integers(0, 2), st.sampled_from(_ODD_TOKENS))


_TRIANGLE = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.tuples(_coordinates, _coordinates, _coordinates), min_size=3,
                max_size=12),
       st.integers(0, 2 ** 31 - 1), st.integers(0, 12), st.lists(_edits, max_size=3))
# a relative index, and a first line of each block that is another record
@example(_TRIANGLE, 0, 1, [("token", 3, 0, "-1")])
@example(_TRIANGLE, 0, 1, [("tag", 0, 2, "")])
@example(_TRIANGLE, 0, 2, [("tag", 3, 2, "")])
def test_obj_reader_equals_line_parser(tmp_path_factory, vertices, seed, n_faces, edits):
    n = len(vertices)
    faces = np.array([np.random.default_rng([seed, k]).choice(n, 3, replace=False)
                      for k in range(n_faces)]).reshape(-1, 3)
    path = tmp_path_factory.mktemp("obj") / "m.obj"
    save_mesh(TriangleMesh(np.array(vertices), faces), path)
    lines = path.read_bytes().splitlines()
    for edit in edits:
        if edit[0] not in ("crlf", "no_final_newline"):
            _edit_obj(lines, edit)
    kinds = {kind for kind, *_ in edits}
    data = (b"\r\n" if "crlf" in kinds else b"\n").join(lines)
    if "no_final_newline" not in kinds:
        data += b"\n"
    path.write_bytes(data)
    assert _outcome(lambda: load_mesh(path)) == _outcome(_line_parser(data))


_FUZZ_BASES = {
    "obj": b"# a cube and a quad\n" + CUBE_OBJ.encode() + b"f 1/1 2/2 3/3 4/4\n",
    "ply": _PLY_TRIANGLE,
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_BASES) + ["saved"]), mutations)
def test_mesh_readers_raise_only_package_errors_on_mutated_files(
        tmp_path_factory, base, edits):
    tmp = tmp_path_factory.mktemp("fuzz")
    if base == "saved":
        save_mesh(uv_sphere_mesh(0.5, 4, 6), tmp / "saved.obj")
        data = (tmp / "saved.obj").read_bytes()
    else:
        data = _FUZZ_BASES[base]
    path = tmp / ("m.ply" if base == "ply" else "m.obj")
    path.write_bytes(mutated(data, edits))
    try:
        load_mesh(path)
    except SdfShapesError:
        pass


# ---------------------------------------------------------------- save_mesh

def _save_mesh_per_line(mesh, path):
    """The one-line-per-record OBJ writer that save_mesh must match."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coordinates, _coordinates, _coordinates), min_size=3,
                max_size=40),
       st.integers(0, 2**31 - 1))
def test_save_mesh_bytes_match_per_line_writer(tmp_path_factory, vertices, seed):
    n = len(vertices)
    faces = np.array([np.random.default_rng([seed, k]).choice(n, 3, replace=False)
                      for k in range(n)])
    mesh = TriangleMesh(np.array(vertices), faces)
    tmp = tmp_path_factory.mktemp("obj")
    save_mesh(mesh, tmp / "fast.obj")
    _save_mesh_per_line(mesh, tmp / "ref.obj")
    assert (tmp / "fast.obj").read_bytes() == (tmp / "ref.obj").read_bytes()


def test_save_mesh_rejects_non_finite_vertex(tmp_path):
    vertices = np.eye(3)
    vertices[1, 2] = -np.inf
    with pytest.raises(NonFiniteValue):
        save_mesh(TriangleMesh(vertices, np.array([[0, 1, 2]])), tmp_path / "inf.obj")
    assert not (tmp_path / "inf.obj").exists()


def test_save_load_roundtrip(tmp_path):
    m = uv_sphere_mesh(0.7, 6, 8)
    p = tmp_path / "s.obj"
    save_mesh(m, p)
    m2 = load_mesh(p)
    assert (m2.faces == m.faces).all()
    assert np.abs(m2.vertices - m.vertices).max() < 1e-6


def test_save_empty_mesh(tmp_path):
    p = tmp_path / "empty.obj"
    mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), np.int64))
    save_mesh(mesh, p)
    text = p.read_text()
    assert "v " not in text and "f " not in text
    _save_mesh_per_line(mesh, tmp_path / "ref.obj")
    assert p.read_bytes() == (tmp_path / "ref.obj").read_bytes()


def test_save_one_based_indices(tmp_path):
    m = TriangleMesh(np.eye(3), np.array([[0, 1, 2]]))
    p = tmp_path / "one.obj"
    save_mesh(m, p)
    assert "f 1 2 3" in p.read_text()


# ------------------------------------------------------ normalize_unit_ball

def test_normalize_identity_case():
    m = TriangleMesh(np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]),
                     np.array([[0, 1, 2], [0, 1, 3]]))
    out, t = normalize_unit_ball(m)
    assert np.allclose(t.center, 0) and abs(t.scale - 1.0) < 1e-15
    assert np.allclose(out.vertices, m.vertices)


def test_normalize_hand_computed():
    m = TriangleMesh(np.array([[0.0, 0, 0], [2, 0, 0], [0, 2, 0]]),
                     np.array([[0, 1, 2]]))
    out, t = normalize_unit_ball(m)
    assert np.allclose(t.center, (2 / 3, 2 / 3, 0))
    assert abs(t.scale - 3 / (2 * np.sqrt(5))) < 1e-12
    assert abs(np.linalg.norm(out.vertices, axis=1).max() - 1.0) < 1e-12


def test_normalize_idempotent():
    m, _ = normalize_unit_ball(uv_sphere_mesh(3.0, 6, 8, center=(1, 2, 3)))
    again, t = normalize_unit_ball(m)
    assert np.abs(again.vertices - m.vertices).max() < 1e-12
    assert np.linalg.norm(m.vertices.mean(axis=0)) < 1e-9
    assert abs(np.linalg.norm(m.vertices, axis=1).max() - 1.0) < 1e-9


def test_normalize_transform_invertible():
    m = uv_sphere_mesh(2.0, 5, 7, center=(0.3, -0.2, 0.9))
    out, t = normalize_unit_ball(m)
    assert np.abs(t.invert(out.vertices) - m.vertices).max() < 1e-12


def test_normalize_degenerate():
    m = TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(DegenerateMesh):
        normalize_unit_ball(m)


# ------------------------------------------------------------ sample_surface

def test_sample_single_triangle_plane_and_normals():
    m = TriangleMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                     np.array([[0, 1, 2]]))
    s = sample_surface(m, 100, seed=7)
    pts, nrm = s.points[0], s.normals[0]
    assert np.allclose(nrm, (0, 0, 1))
    assert np.abs(pts[:, 2]).max() < 1e-9  # plane equation z = 0
    assert (pts[:, 0] >= -1e-12).all() and (pts[:, 1] >= -1e-12).all()
    assert (pts[:, 0] + pts[:, 1] <= 1 + 1e-12).all()


def test_sample_cube_face_fractions():
    m = box_mesh((0.5, 0.5, 0.5))
    s = sample_surface(m, 60000, seed=3)
    pts = s.points[0]
    for axis in range(3):
        for side in (-0.5, 0.5):
            frac = np.mean(np.abs(pts[:, axis] - side) < 1e-9)
            assert abs(frac - 1 / 6) < 0.01


def test_sample_determinism():
    m = uv_sphere_mesh(1.0, 8, 12)
    a = sample_surface(m, 500, seed=11)
    b = sample_surface(m, 500, seed=11)
    assert np.array_equal(a.points[0], b.points[0])
    assert np.array_equal(a.normals[0], b.normals[0])


def test_sample_symmetric_mesh_mean_near_origin():
    m = uv_sphere_mesh(1.0, 16, 32)
    s = sample_surface(m, 40000, seed=5)
    assert np.linalg.norm(s.points[0].mean(axis=0)) < 3.0 / np.sqrt(40000)


def test_sample_normals_unit():
    m = uv_sphere_mesh(0.8, 10, 14)
    s = sample_surface(m, 2000, seed=1)
    assert np.abs(np.linalg.norm(s.normals[0], axis=1) - 1.0).max() < 1e-9


def test_sample_skips_zero_area_faces():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]])
    faces = np.array([[0, 1, 2], [0, 1, 3]])  # second face is collinear
    s = sample_surface(TriangleMesh(verts, faces), 3000, seed=2)
    assert np.abs(s.points[0][:, 2]).max() < 1e-9
    assert (s.points[0][:, 0] + s.points[0][:, 1] <= 1 + 1e-9).all()


def test_sample_errors():
    m = TriangleMesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]),
                     np.array([[0, 1, 2]]))
    with pytest.raises(ZeroArea):
        sample_surface(m, 10, seed=0)
    good = box_mesh()
    with pytest.raises(InvalidCount):
        sample_surface(good, 0, seed=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 400))
def test_sample_counts_proportional_to_area(seed, count):
    # two parallel triangles with 1:4 area ratio
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0],
                      [0, 0, 1], [2, 0, 1], [0, 2, 1]])
    faces = np.array([[0, 1, 2], [3, 4, 5]])
    s = sample_surface(TriangleMesh(verts, faces), count, seed=seed)
    on_small = np.mean(np.abs(s.points[0][:, 2]) < 1e-9)
    # binomial: p = 0.2, allow 5 sigma
    assert abs(on_small - 0.2) <= 5 * np.sqrt(0.2 * 0.8 / count) + 1e-9


# --------------------------------------------------------- sample-set file

def test_sample_set_roundtrip(tmp_path):
    m = uv_sphere_mesh(0.9, 8, 10)
    ss = SurfaceSampleSet()
    for k in range(3):
        s = sample_surface(m, 100 + 17 * k, seed=(4, k))
        ss.points.append(s.points[0])
        ss.normals.append(s.normals[0])
    p = tmp_path / "set.nsds"
    save_sample_set(ss, p)
    back = load_sample_set(p)
    assert back.shape_count == 3
    for k in range(3):
        assert np.array_equal(back.points[k], ss.points[k])
        assert np.array_equal(back.normals[k], ss.normals[k])


def test_sample_set_bad_magic(tmp_path):
    p = tmp_path / "junk.nsds"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        load_sample_set(p)


def test_sample_set_bad_version(tmp_path):
    import struct
    p = tmp_path / "v9.nsds"
    p.write_bytes(b"NSDS" + struct.pack("<II", 9, 0))
    with pytest.raises(UnsupportedVersion):
        load_sample_set(p)


def test_sample_set_truncated(tmp_path):
    m = box_mesh()
    s = sample_surface(m, 50, seed=0)
    p = tmp_path / "full.nsds"
    save_sample_set(s, p)
    data = p.read_bytes()
    p2 = tmp_path / "cut.nsds"
    for cut in (data[:len(data) - 8], b"NSDS\x01\x00"):
        p2.write_bytes(cut)
        with pytest.raises(TruncatedFile):
            load_sample_set(p2)
    p2.write_bytes(data + b"\x00")
    with pytest.raises(ShapeInconsistency):
        load_sample_set(p2)


def test_sample_set_validate_rejects_bad_normals():
    ss = SurfaceSampleSet(points=[np.zeros((2, 3))],
                          normals=[np.array([[1.0, 0, 0], [2.0, 0, 0]])])
    with pytest.raises(InvalidCount):
        ss.validate()


def test_sample_set_validate_rejects_non_finite():
    # NaN fails every comparison, so the range checks alone would pass it
    for bad_point, bad_normal in ((np.nan, 1.0), (0.0, np.nan)):
        ss = SurfaceSampleSet(points=[np.array([[bad_point, 0.0, 0.0]])],
                              normals=[np.array([[bad_normal, 0.0, 0.0]])])
        with pytest.raises(NonFiniteValue):
            ss.validate()


def test_mesh_validate_rejects_repeated_vertex():
    m = TriangleMesh(np.eye(3), np.array([[0, 0, 1]]))
    with pytest.raises(MeshParseError):
        m.validate()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_normalization_invariants_random_meshes(seed):
    rng = np.random.default_rng(seed)
    verts = rng.normal(0, 3, (20, 3)) + rng.normal(0, 10, 3)
    faces = np.array([[0, 1, 2]])
    out, t = normalize_unit_ball(TriangleMesh(verts, faces))
    assert t.scale > 0
    assert np.linalg.norm(out.vertices.mean(axis=0)) < 1e-9
    assert abs(np.linalg.norm(out.vertices, axis=1).max() - 1.0) < 1e-9
