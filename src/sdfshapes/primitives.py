"""Analytic fixture geometry: simple triangulated primitives and sphere
surface samples with exact normals.  Used by tests and experiment scripts."""

from __future__ import annotations

import numpy as np

from .mesh import SurfaceSampleSet, TriangleMesh


def box_mesh(halfwidths=(1.0, 1.0, 1.0), center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Axis-aligned box as 12 triangles with outward winding."""
    hx, hy, hz = halfwidths
    c = np.asarray(center, dtype=np.float64)
    corners = np.array([(sx * hx, sy * hy, sz * hz)
                        for sz in (-1, 1) for sy in (-1, 1) for sx in (-1, 1)],
                       dtype=np.float64) + c
    # corner index = x_bit + 2*y_bit + 4*z_bit
    quads = [
        (0, 2, 3, 1),  # -z
        (4, 5, 7, 6),  # +z
        (0, 1, 5, 4),  # -y
        (2, 6, 7, 3),  # +y
        (0, 4, 6, 2),  # -x
        (1, 3, 7, 5),  # +x
    ]
    faces = []
    for a, b, cc, d in quads:
        faces.append((a, b, cc))
        faces.append((a, cc, d))
    return TriangleMesh(corners, np.array(faces, dtype=np.int64))


def uv_sphere_mesh(radius: float = 1.0, n_theta: int = 24, n_phi: int = 48,
                   center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Latitude/longitude sphere triangulation with outward winding."""
    c = np.asarray(center, dtype=np.float64)
    verts = [c + (0.0, 0.0, radius)]
    for it in range(1, n_theta):
        theta = np.pi * it / n_theta
        st, ct = np.sin(theta), np.cos(theta)
        for ip in range(n_phi):
            phi = 2 * np.pi * ip / n_phi
            verts.append(c + radius * np.array([st * np.cos(phi),
                                                st * np.sin(phi), ct]))
    verts.append(c + (0.0, 0.0, -radius))
    south = len(verts) - 1
    ring = lambda it: 1 + (it - 1) * n_phi
    faces = []
    for ip in range(n_phi):
        faces.append((0, ring(1) + ip, ring(1) + (ip + 1) % n_phi))
    for it in range(1, n_theta - 1):
        for ip in range(n_phi):
            a = ring(it) + ip
            b = ring(it) + (ip + 1) % n_phi
            a2 = ring(it + 1) + ip
            b2 = ring(it + 1) + (ip + 1) % n_phi
            faces.append((a, a2, b2))
            faces.append((a, b2, b))
    for ip in range(n_phi):
        faces.append((south, ring(n_theta - 1) + (ip + 1) % n_phi,
                      ring(n_theta - 1) + ip))
    return TriangleMesh(np.array(verts), np.array(faces, dtype=np.int64))


def sphere_samples(radius: float, count: int, seed) -> SurfaceSampleSet:
    """Uniform sphere-surface samples with exact outward unit normals."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, 3))
    normals = v / np.linalg.norm(v, axis=1, keepdims=True)
    return SurfaceSampleSet(points=[radius * normals], normals=[normals])


def multi_sphere_samples(radii, count_per_shape: int, seed: int) -> SurfaceSampleSet:
    """One sphere shape per radius, each independently sampled."""
    out = SurfaceSampleSet()
    for k, r in enumerate(radii):
        s = sphere_samples(r, count_per_shape, (seed, k))
        out.points.append(s.points[0])
        out.normals.append(s.normals[0])
    return out
