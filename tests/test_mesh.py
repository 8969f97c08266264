import numpy as np
import pytest

from helpers import hat_gradients, mesh_from_arrays, tri_coords, triangle_area
from nxfem_ocp.mesh import (ConfigurationError, build_uniform_mesh,
                            write_mesh_csv)


def shoelace(coords):
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * abs(x[0] * (y[1] - y[2]) + x[1] * (y[2] - y[0])
                     + x[2] * (y[0] - y[1]))


def test_counts_unit_square():
    mesh = build_uniform_mesh((0, 1, 0, 1), 16)
    assert mesh.num_vertices == 289
    assert mesh.num_triangles == 512
    # smallest mesh: one cell split in two
    small = build_uniform_mesh((0, 1, 0, 1), 2)
    assert small.num_triangles == 8
    assert small.num_vertices == 9


def test_h_is_max_diameter():
    mesh = build_uniform_mesh((-1, 1, -1, 1), 32)
    brute = 0.0
    for tri in mesh.triangles:
        c = mesh.vertices[tri]
        for i in range(3):
            brute = max(brute, np.linalg.norm(c[i] - c[(i + 1) % 3]))
    assert mesh.h == pytest.approx(brute, rel=1e-14)
    assert mesh.h == pytest.approx(np.sqrt(2.0) * (2.0 / 32.0), rel=1e-14)


def test_triangle_area_values():
    assert triangle_area([(0, 0), (1, 0), (0, 1)]) == pytest.approx(0.5)
    assert triangle_area([(0, 0), (1, 1), (2, 2)]) == 0.0
    mesh = build_uniform_mesh((0, 1, 0, 1), 16)
    coords = tri_coords(mesh, 7)
    assert triangle_area(coords) == pytest.approx(1.0 / 512.0, rel=1e-14)
    assert triangle_area(coords) == pytest.approx(shoelace(coords), rel=1e-14)


def test_area_partition_and_positivity():
    mesh = build_uniform_mesh((-1, 2, 0.5, 3.5), 7)
    areas = mesh.areas(np.arange(mesh.num_triangles))
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(3.0 * 3.0, rel=1e-12)


def mesh_edges(mesh):
    """Map (vmin, vmax) -> list of incident triangle indices."""
    edges = {}
    for e, tri in enumerate(mesh.triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges.setdefault(key, []).append(e)
    return edges


def test_edge_incidence_and_euler():
    mesh = build_uniform_mesh((0, 1, 0, 1), 8)
    edges = mesh_edges(mesh)
    for (a, b), elems in edges.items():
        on_boundary = mesh.boundary_vertex[a] and mesh.boundary_vertex[b]
        assert len(elems) in (1, 2)
        if len(elems) == 1:
            assert on_boundary
    V, E, F = mesh.num_vertices, len(edges), mesh.num_triangles + 1
    assert V - E + F == 2


def test_boundary_flags():
    mesh = build_uniform_mesh((0, 2, 0, 1), 4)
    x0, x1, y0, y1 = mesh.domain
    for v, (x, y) in enumerate(mesh.vertices):
        expected = x in (x0, x1) or y in (y0, y1)
        assert mesh.boundary_vertex[v] == expected


def test_invalid_configuration():
    with pytest.raises(ConfigurationError):
        build_uniform_mesh((1, 0, 0, 1), 8)
    with pytest.raises(ConfigurationError):
        build_uniform_mesh((0, 1, 0, 1), 1)


def test_barycentric_roundtrip():
    mesh = build_uniform_mesh((0, 1, 0, 1), 4)
    rng = np.random.default_rng(3)
    for e in (0, 5, 17):
        coords = tri_coords(mesh, e)
        lam = rng.dirichlet(np.ones(3), size=10)
        pts = lam @ coords
        back = mesh.barycentric(e, pts)
        assert np.allclose(back, lam, atol=1e-12)


EPS = np.finfo(float).eps


def test_barycentric_matches_the_matmul_form():
    # the coordinates are spelled out as dot products; the stacked matmul
    # they replace agrees to rounding, for one element and for a batch:
    # lambda_1 and lambda_2 to half an ulp of 1 each, lambda_0 = 1 - their
    # sum to the sum of both, one ulp of 1
    mesh = build_uniform_mesh((-1.0, np.pi / 3, -0.7, 1.1), 9)
    rng = np.random.default_rng(5)

    def matmul_form(e, points):
        p0 = mesh.vertices[mesh.triangles[e, 0]][..., None, :]
        g12 = hat_gradients(mesh, e)[..., 1:, :]
        lam12 = (points - p0) @ np.swapaxes(g12, -1, -2)
        return np.concatenate([1.0 - lam12.sum(axis=-1, keepdims=True),
                               lam12], axis=-1)

    parents = rng.integers(mesh.num_triangles, size=200)
    lam = rng.dirichlet(np.ones(3), size=(200, 6))
    pts = lam @ mesh.vertices[mesh.triangles[parents]]
    got = mesh.barycentric(parents, pts)
    assert got.shape == (200, 6, 3)
    assert np.abs(got - matmul_form(parents, pts)).max() <= EPS
    one = mesh.barycentric(int(parents[0]), pts[0])
    assert one.shape == (6, 3)
    assert np.abs(one - matmul_form(int(parents[0]), pts[0])).max() <= EPS
    assert np.array_equal(one, got[0])


def test_mesh_keeps_no_per_element_geometry():
    # a mesh keeps its vertices, an int32 triangle table and the boundary
    # flags, and nothing per element that could be computed from them
    for mesh in (build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 64),
                 mesh_from_arrays([(0, 0), (1, 0), (0, 1), (1, 1)],
                                  [(0, 1, 3), (0, 3, 2)])):
        V, T = mesh.num_vertices, mesh.num_triangles
        arrays = [v for v in vars(mesh).values() if isinstance(v, np.ndarray)]
        assert mesh.triangles.dtype == np.int32
        assert sum(a.nbytes for a in arrays) <= V * 2 * 8 + T * 3 * 4 + V
        for a in arrays:
            assert not (a.dtype.kind == "f" and a.shape in ((T,), (T, 3, 2)))


def _stored_geometry(mesh):
    """Whole-mesh areas and hat gradients, by the formulas the mesh used
    when it stored them: hat i's gradient is the inward perpendicular of
    the opposite edge, divided by twice the area."""
    coords = mesh.vertices[mesh.triangles]
    grads = np.empty((mesh.num_triangles, 3, 2))
    for i in range(3):
        pj = coords[:, (i + 1) % 3]
        pk = coords[:, (i + 2) % 3]
        grads[:, i, 0] = pj[:, 1] - pk[:, 1]
        grads[:, i, 1] = pk[:, 0] - pj[:, 0]
    det = grads[:, 2, 1] * grads[:, 1, 0] - grads[:, 2, 0] * grads[:, 1, 1]
    return 0.5 * det, grads / det[:, None, None]


def _stored_barycentric(mesh, grads, e, points):
    p0 = mesh.vertices[mesh.triangles[e, 0]][..., None, :]
    g = grads[e][..., None, :, :]
    x = points[..., 0] - p0[..., 0]
    y = points[..., 1] - p0[..., 1]
    lam1 = x * g[..., 1, 0] + y * g[..., 1, 1]
    lam2 = x * g[..., 2, 0] + y * g[..., 2, 1]
    return np.stack([1.0 - (lam1 + lam2), lam1, lam2], axis=-1)


def _batch_geometry_errors(mesh, seed):
    """Largest differences of the mesh's per-batch areas, gradients and
    barycentrics from the stored formulas, over random batches and one
    single element, each relative to the largest reference value."""
    areas, grads = _stored_geometry(mesh)
    rng = np.random.default_rng(seed)
    batch = rng.integers(mesh.num_triangles, size=500)
    pts = rng.dirichlet(np.ones(3), size=(500, 6)) \
        @ mesh.vertices[mesh.triangles[batch]]
    got_areas, got_grads = mesh.geometry(batch)
    lam = _stored_barycentric(mesh, grads, batch, pts)
    one = int(batch[0])

    def rel(got, ref):
        return np.abs(got - ref).max() / np.abs(ref).max()

    return [rel(got_areas, areas[batch]), rel(mesh.areas(batch), areas[batch]),
            rel(got_grads, grads[batch]),
            rel(mesh.barycentric(batch, pts), lam),
            rel(mesh.barycentric(batch, pts, got_grads), lam),
            rel(mesh.barycentric(one, pts[0]),
                _stored_barycentric(mesh, grads, one, pts[0])),
            rel(np.array(mesh.geometry(one)[0]), areas[one])]


@pytest.mark.parametrize("n", [4, 16, 64, 256])
@pytest.mark.parametrize("domain", [(0.0, 1.0, 0.0, 1.0),
                                    (-1.0, 1.0, -1.0, 1.0),
                                    (-1.0, np.pi / 3, -0.7, 1.1)])
def test_batch_geometry_matches_the_stored_formulas(domain, n):
    # computed per batch, the geometry of a uniform mesh is bit for bit
    # what the mesh used to store
    assert max(_batch_geometry_errors(build_uniform_mesh(domain, n), n)) == 0.0


def test_batch_geometry_on_an_irregular_mesh():
    # interior vertices moved by up to a quarter of the spacing
    uniform = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 12)
    rng = np.random.default_rng(7)
    vertices = uniform.vertices.copy()
    inner = ~uniform.boundary_vertex
    vertices[inner] += rng.uniform(-0.25, 0.25, (inner.sum(), 2)) / 12
    mesh = mesh_from_arrays(vertices, uniform.triangles)
    assert max(_batch_geometry_errors(mesh, 7)) <= 1e-15


def test_from_arrays_boundary_detection():
    mesh = mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert mesh.boundary_vertex.all()
    assert mesh.areas(0) == pytest.approx(0.5)


def test_mesh_csv_dump(tmp_path):
    mesh = build_uniform_mesh((0, 1, 0, 1), 4)
    vp = tmp_path / "v.csv"
    tp = tmp_path / "t.csv"
    write_mesh_csv(mesh, vp, tp)
    vlines = vp.read_text().strip().splitlines()
    tlines = tp.read_text().strip().splitlines()
    assert vlines[0] == "vertex,x,y,boundary"
    assert len(vlines) == mesh.num_vertices + 1
    assert len(tlines) == mesh.num_triangles + 1


def test_mesh_csv_dump_matches_row_rendering(tmp_path):
    # the dump is byte-identical to rendering every row with an f-string
    mesh = build_uniform_mesh((-1.0, np.pi / 3, -0.7, 1.1), 5)
    vp, tp = tmp_path / "v.csv", tmp_path / "t.csv"
    write_mesh_csv(mesh, vp, tp)
    vertices = "vertex,x,y,boundary\n" + "".join(
        f"{i},{x:.17e},{y:.17e},{int(mesh.boundary_vertex[i])}\n"
        for i, (x, y) in enumerate(mesh.vertices))
    triangles = "triangle,v0,v1,v2\n" + "".join(
        f"{e},{t[0]},{t[1]},{t[2]}\n" for e, t in enumerate(mesh.triangles))
    assert vp.read_bytes() == vertices.encode()
    assert tp.read_bytes() == triangles.encode()
