"""Triangle meshes: OBJ/PLY ingestion, unit-ball normalization, surface sampling.

Meshes are plain indexed vertex/face arrays.  Sampling is area-weighted with
flat per-face normals taken from the stored winding, which is well-defined
even for non-watertight inputs.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field

import numpy as np

from .container import Reader, Writer
from .errors import (
    DegenerateMesh,
    EmptySurfaceSet,
    IndexOutOfRange,
    InvalidCount,
    MeshParseError,
    NonFiniteValue,
    ZeroArea,
)

SAMPLESET_MAGIC = b"NSDS"
SAMPLESET_VERSION = 1
# what bytes that are not UTF-8 decode to under "surrogateescape"
_UNDECODED = re.compile("[\udc80-\udcff]")
# the line ends of bytes.splitlines; str.splitlines also ends lines at
# \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029
_LINE_END = re.compile("\r\n|\r|\n")
# every byte that a save_mesh file can hold
_SAVED_OBJ_BYTES = b"0123456789+-.eEvf \n"
_INT64 = range(-2 ** 63, 2 ** 63)


@dataclass
class TriangleMesh:
    """Indexed triangle surface.

    vertices: (V, 3) float64, faces: (F, 3) int64.  Every vertex coordinate
    must be finite, every face index a valid vertex index, and no face may
    repeat a vertex.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)

    def validate(self):
        if not np.isfinite(self.vertices).all():
            raise NonFiniteValue("non-finite vertex coordinate")
        if len(self.faces):
            if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
                raise IndexOutOfRange(
                    f"face index out of range (have {len(self.vertices)} vertices)"
                )
            f = self.faces
            if ((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])).any():
                raise MeshParseError("face references the same vertex twice")
        return self

    def face_normals_and_areas(self):
        """Unit face normals (winding order) and triangle areas.

        Degenerate faces get a zero normal and zero area.
        """
        v = self.vertices
        f = self.faces
        cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        norms = np.linalg.norm(cross, axis=1)
        areas = 0.5 * norms
        normals = np.zeros_like(cross)
        ok = norms > 0
        normals[ok] = cross[ok] / norms[ok, None]
        return normals, areas

    def area(self) -> float:
        return float(self.face_normals_and_areas()[1].sum())


@dataclass
class NormalizationTransform:
    """Affine map v' = scale * (v - center) taking a mesh into the unit ball."""

    center: np.ndarray
    scale: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * (np.asarray(points, dtype=np.float64) - self.center)

    def invert(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) / self.scale + self.center


@dataclass
class SurfaceSampleSet:
    """Per-shape surface point and unit-normal samples.

    points[k] and normals[k] are aligned (N_k, 3) arrays.
    """

    points: list = field(default_factory=list)
    normals: list = field(default_factory=list)

    @property
    def shape_count(self) -> int:
        return len(self.points)

    def validate(self):
        if not self.points:
            raise EmptySurfaceSet("sample set has no shapes")
        for k, (p, n) in enumerate(zip(self.points, self.normals)):
            if len(p) != len(n):
                raise InvalidCount(f"shape {k}: {len(p)} points vs {len(n)} normals")
            if not (np.isfinite(p).all() and np.isfinite(n).all()):
                raise NonFiniteValue(f"shape {k}: non-finite point or normal")
            nrm = np.linalg.norm(n, axis=1)
            if (np.abs(nrm - 1.0) > 1e-9).any():
                raise InvalidCount(f"shape {k}: non-unit normals")
            if (np.linalg.norm(p, axis=1) > 1.0 + 1e-6).any():
                raise InvalidCount(f"shape {k}: points outside the unit ball")
        return self


def load_mesh(path) -> TriangleMesh:
    """Load an ASCII PLY mesh (a .ply suffix, any case) or else an ASCII OBJ.

    Quadrilaterals (and larger polygons) are fan-triangulated at their first
    vertex.  Vertex order is preserved from the file.
    """
    path = str(path)
    parse = _parse_ply if path.lower().endswith(".ply") else _parse_obj
    with open(path, "rb") as fh:
        return parse(fh.read()).validate()


def _text_lines(text, uncommented, error) -> list:
    """The lines of a text file's bytes, or of its text: a line ends at
    `\\n`, `\\r\\n` or `\\r` and nowhere else.  Bytes are decoded as UTF-8,
    and raise error(line number) at the first line whose uncommented(line),
    the part its parser reads, holds bytes that are not UTF-8; a comment may
    hold any bytes."""
    if isinstance(text, bytes):  # bytes that are not UTF-8 become lone surrogates
        text = text.decode("utf-8", "surrogateescape")
    lines = _LINE_END.split(text)
    if not lines[-1]:  # the end of the last line, or an empty text
        lines.pop()
    if _UNDECODED.search(text):
        for lineno, line in enumerate(lines, start=1):
            if _UNDECODED.search(uncommented(line)):
                raise error(lineno)
    return lines


def _mesh_lines(data: bytes, comment: tuple) -> list:
    """The lines of a text mesh file, whose comment lines start with a
    `comment` prefix once stripped; MeshParseError for bytes that are not
    UTF-8 on any other line."""
    return _text_lines(data, lambda line: "" if line.strip().startswith(comment) else line,
                       lambda lineno: MeshParseError("bytes that are not UTF-8 text", lineno))


def _parse_obj(data: bytes) -> TriangleMesh:
    """The mesh of an OBJ file: a file in save_mesh's layout takes
    _parse_saved_obj, every other file, and any it rejects, the line parser."""
    mesh = _parse_saved_obj(data)
    return _parse_obj_lines(data) if mesh is None else mesh


def _parse_saved_obj(data: bytes):
    """The mesh of an OBJ in the layout save_mesh writes for a mesh with
    faces: one `v x y z` block, then one `f a b c` block of positive indices,
    single spaces and `\\n` line ends, each block read by one np.loadtxt.
    None for any other file.

    np.loadtxt reads a number as float() and int() do, apart from the `_`
    separators they also take, which it rejects; so what it accepts has the
    line parser's bits.  Only the bytes save_mesh writes are let in, so the
    counts of `\\n` and spaces below fix every line's layout: no other
    whitespace (a tab, `\\r`, `\\x0c`, ...), which the line parser splits
    lines or tokens at, reaches np.loadtxt."""
    if data.translate(None, _SAVED_OBJ_BYTES):
        return None
    cut = data.find(b"\nf ") + 1  # 0, and an empty vertex block, if there is none
    vertices = _saved_block(data[:cut], b"v ", np.float64)
    faces = _saved_block(data[cut:], b"f ", np.int64)
    if vertices is None or faces is None or (faces < 1).any():
        return None
    return TriangleMesh(vertices, faces - 1)


def _saved_block(block: bytes, tag: bytes, dtype):
    """Columns 1-3 of a non-empty block of lines `tag a b c\\n`, or None when
    the block is empty, a line differs from that or a token does not parse."""
    rows = block.count(b"\n")
    if (not block.startswith(tag) or block.count(b"\n" + tag) != rows - 1
            or block.count(b" ") != 3 * rows):
        return None  # some line is not `tag` and three tokens ended by \n
    try:
        return np.loadtxt(io.StringIO(block.decode("ascii")), dtype=dtype, delimiter=" ",
                          usecols=(1, 2, 3), comments=None, ndmin=2)
    except ValueError:  # a token that is not a number, or overflows int64
        return None


def _parse_obj_lines(data: bytes) -> TriangleMesh:
    vertices = []
    faces = []
    for lineno, raw in enumerate(_mesh_lines(data, ("#",)), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise MeshParseError("vertex line needs 3 coordinates", lineno)
            try:
                vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
            except ValueError:
                raise MeshParseError(f"bad vertex coordinate in {line!r}", lineno)
        elif tag == "f":
            if len(parts) < 4:
                raise MeshParseError("face line needs at least 3 indices", lineno)
            idx = []
            for token in parts[1:]:
                head = token.split("/")[0]
                try:
                    i = int(head)
                except ValueError:
                    raise MeshParseError(f"bad face index {token!r}", lineno)
                if i < 0:
                    i = len(vertices) + i  # OBJ relative indexing
                else:
                    i = i - 1
                if i not in _INT64:
                    raise MeshParseError(f"face index {token!r} out of range", lineno)
                idx.append(i)
            for a, b in zip(idx[1:], idx[2:]):
                faces.append([idx[0], a, b])
        # every other record type (vn, vt, o, g, s, mtllib, ...) is ignored
    return TriangleMesh(np.array(vertices, dtype=np.float64).reshape(-1, 3),
                        np.array(faces, dtype=np.int64).reshape(-1, 3))


def _parse_ply(data: bytes) -> TriangleMesh:
    lines = _mesh_lines(data, ("comment", "obj_info"))
    if not lines or lines[0].strip() != "ply":
        raise MeshParseError("missing 'ply' header", 1)
    spans, rows = {}, 0  # element name -> (first body row, row count)
    vertex_props = []
    in_vertex_element = False
    body_start = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "format":
            if len(parts) < 2 or parts[1] != "ascii":
                raise MeshParseError("only ascii PLY is supported", lineno)
        elif parts[0] == "element":
            if len(parts) < 3 or not parts[2].isdecimal():
                raise MeshParseError("element needs a name and a count >= 0", lineno)
            # bodies list each element's rows in header order
            spans[parts[1]] = (rows, int(parts[2]))
            rows += int(parts[2])
            in_vertex_element = parts[1] == "vertex"
        elif parts[0] == "property" and in_vertex_element:
            vertex_props.append(parts[-1])
        elif parts[0] == "end_header":
            body_start = lineno
            break
    if body_start is None:
        raise MeshParseError("missing end_header")
    try:
        ix, iy, iz = (vertex_props.index(c) for c in ("x", "y", "z"))
    except ValueError:
        raise MeshParseError("vertex element lacks x/y/z properties")
    body = lines[body_start:]
    if len(body) < rows:
        raise MeshParseError("file ends before all elements are read")
    # rows of elements other than vertex and face are skipped
    v0, n_vertices = spans.get("vertex", (0, 0))
    f0, n_faces = spans.get("face", (0, 0))
    vertices = np.empty((n_vertices, 3), dtype=np.float64)
    for i in range(n_vertices):
        parts = body[v0 + i].split()
        try:
            vertices[i] = (float(parts[ix]), float(parts[iy]), float(parts[iz]))
        except (ValueError, IndexError):
            raise MeshParseError(f"bad vertex row {body[v0 + i]!r}",
                                 body_start + 1 + v0 + i)
    faces = []
    for i in range(n_faces):
        lineno = body_start + 1 + f0 + i
        parts = body[f0 + i].split()
        try:
            cnt = int(parts[0])
            idx = [int(t) for t in parts[1:1 + cnt]]
        except (ValueError, IndexError):
            raise MeshParseError(f"bad face row {body[f0 + i]!r}", lineno)
        if cnt < 3 or len(idx) != cnt:
            raise MeshParseError("face needs at least 3 indices", lineno)
        if not all(j in _INT64 for j in idx):
            raise MeshParseError(f"face index out of range in {body[f0 + i]!r}", lineno)
        for a, b in zip(idx[1:], idx[2:]):
            faces.append([idx[0], a, b])
    return TriangleMesh(vertices, np.array(faces, dtype=np.int64).reshape(-1, 3))


def save_mesh(mesh: TriangleMesh, path) -> None:
    """Write an ASCII OBJ with 1-based face indices, 9 significant digits."""
    mesh.validate()
    v, f = mesh.vertices, mesh.faces + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(("v %.9g %.9g %.9g\n" * len(v)) % tuple(v.ravel().tolist()))
        fh.write(("f %d %d %d\n" * len(f)) % tuple(f.ravel().tolist()))


def normalize_unit_ball(mesh: TriangleMesh):
    """Center at the vertex centroid and scale the farthest vertex to radius 1."""
    if len(mesh.vertices) == 0:
        raise DegenerateMesh("mesh has no vertices")
    center = mesh.vertices.mean(axis=0)
    radii = np.linalg.norm(mesh.vertices - center, axis=1)
    rmax = radii.max()
    if rmax == 0.0:
        raise DegenerateMesh("all vertices coincide")
    transform = NormalizationTransform(center=center, scale=1.0 / rmax)
    out = TriangleMesh(transform.apply(mesh.vertices), mesh.faces.copy())
    return out, transform


def sample_surface(mesh: TriangleMesh, count: int, seed: int) -> SurfaceSampleSet:
    """Area-weighted surface sampling with flat per-face normals.

    Triangles are chosen by cumulative-area inverse sampling and points are
    placed by the square-root barycentric map, which is uniform on each
    triangle.  Zero-area triangles never get samples.
    """
    if count < 1:
        raise InvalidCount(f"sample count must be >= 1, got {count}")
    normals, areas = mesh.face_normals_and_areas()
    total = areas.sum()
    if total <= 0.0:
        raise ZeroArea("mesh has no positive-area triangles")
    rng = np.random.default_rng(seed)
    cum = np.cumsum(areas)
    face_idx = np.searchsorted(cum, rng.random(count) * total, side="right")
    face_idx = np.minimum(face_idx, len(areas) - 1)
    u = rng.random(count)
    v = rng.random(count)
    su = np.sqrt(u)
    bary = np.stack([1.0 - su, su * (1.0 - v), su * v], axis=1)
    tri = mesh.vertices[mesh.faces[face_idx]]  # (count, 3, 3)
    points = np.einsum("nij,ni->nj", tri, bary)
    return SurfaceSampleSet(points=[points], normals=[normals[face_idx]])


def save_sample_set(samples: SurfaceSampleSet, path) -> None:
    """Binary container: magic, version, u32 shape count, then per shape a
    u64 sample count and interleaved point/normal triples (LE float64)."""
    with open(path, "wb") as fh:
        w = Writer(fh, SAMPLESET_MAGIC, SAMPLESET_VERSION)
        w.pack("<I", samples.shape_count)
        for p, n in zip(samples.points, samples.normals):
            w.pack("<Q", len(p))
            w.array(np.hstack([p, n]))


def load_sample_set(path) -> SurfaceSampleSet:
    r = Reader(path, SAMPLESET_MAGIC, SAMPLESET_VERSION, "sample-set")
    (n_shapes,) = r.unpack("<I")
    points, normals = [], []
    for _ in range(n_shapes):
        (n,) = r.unpack("<Q")
        block = r.view((n, 6))
        points.append(block[:, :3].astype(np.float64))
        normals.append(block[:, 3:].astype(np.float64))
    r.finish()
    return SurfaceSampleSet(points=points, normals=normals)
