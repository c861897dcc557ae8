"""Tests for plate meshing, RWG extraction, sampling, and serialization."""
import json

import numpy as np
import pytest
from scipy.constants import c as c0

from cmadof.cli import _plate_spec
from cmadof.config import RunConfig
from cmadof.errors import GeometryError
from cmadof.mesh import (
    PlateSpec,
    TriMesh,
    build_plate_mesh,
    extract_rwg,
    face_sampling_operator,
    locate_port_edges,
    mesh_to_json,
    mesh_to_text,
)
from oracles import (brute_interior_edge_count, loop_plate_mesh, loop_rwg,
                     loop_sampler, parent_edges)


def full_spec(rows=3, cols=4, ports=2):
    return PlateSpec(width=cols * 0.01, height=rows * 0.01,
                     pixel_rows=rows, pixel_cols=cols, ports=ports)


class TestPlateSpec:
    def test_defaults(self):
        spec = full_spec(3, 4, 2)
        assert spec.n_bits == 12
        assert spec.spine_pixels == ((0, 0), (1, 0), (2, 0))
        assert spec.port_pixels == ((0, 0), (1, 0))
        assert spec.pixel_size == (0.01, 0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlateSpec(width=0.0, height=0.1, pixel_rows=1, pixel_cols=1, ports=1)
        with pytest.raises(ValueError):
            PlateSpec(width=0.1, height=0.1, pixel_rows=0, pixel_cols=1, ports=1)
        with pytest.raises(ValueError):
            PlateSpec(width=0.1, height=0.1, pixel_rows=2, pixel_cols=2, ports=3)
        with pytest.raises(ValueError):
            PlateSpec(width=0.1, height=0.1, pixel_rows=2, pixel_cols=2,
                      ports=1, port_pixels=((0, 1),))
        with pytest.raises(ValueError):
            PlateSpec(width=0.1, height=0.1, pixel_rows=2, pixel_cols=2,
                      ports=1, spine_pixels=((5, 0),), port_pixels=((5, 0),))

    def test_custom_port_rows(self):
        spec = PlateSpec(width=0.04, height=0.08, pixel_rows=8, pixel_cols=4,
                         ports=4, port_pixels=((0, 0), (2, 0), (4, 0), (6, 0)))
        assert len(spec.spine_pixels) == 8
        assert spec.port_pixels == ((0, 0), (2, 0), (4, 0), (6, 0))


class TestBuildPlateMesh:
    def test_all_on_counts(self):
        spec = full_spec(3, 4)
        mesh = build_plate_mesh(spec, np.ones(12, dtype=int))
        assert mesh.n_faces == 2 * 12
        assert len(mesh.vertices) == 4 * 5  # shared grid corners
        np.testing.assert_allclose(mesh.face_areas, 0.5 * 0.01 * 0.01)

    def test_spine_always_present(self):
        spec = full_spec(3, 4)
        mesh = build_plate_mesh(spec, np.zeros(12, dtype=int))
        assert mesh.n_faces == 2 * 3  # spine column only
        xs = mesh.vertices[mesh.faces].reshape(-1, 3)[:, 0]
        assert xs.max() <= 0.01 + 1e-12

    def test_bits_toggle_pixels(self):
        spec = full_spec(3, 4)
        bits = np.zeros(12, dtype=int)
        bits[5] = 1  # row 1, col 1: adjacent to the spine
        mesh = build_plate_mesh(spec, bits)
        assert mesh.n_faces == 2 * (3 + 1)

    def test_consistent_orientation(self):
        spec = full_spec(2, 3)
        mesh = build_plate_mesh(spec, np.ones(6, dtype=int))
        v = mesh.vertices[mesh.faces]
        normals = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        assert np.all(normals[:, 2] > 0)

    def test_bad_bits_length(self):
        spec = full_spec(2, 2)
        with pytest.raises(ValueError):
            build_plate_mesh(spec, np.ones(5, dtype=int))

    def test_face_tags_name_pixels(self):
        spec = full_spec(2, 2)
        mesh = build_plate_mesh(spec, np.ones(4, dtype=int))
        assert mesh.face_tags is not None
        assert set(mesh.face_tags.tolist()) == {0, 1, 2, 3}
        counts = np.bincount(mesh.face_tags)
        assert np.all(counts == 2)

    def test_translated_moves_geometry_only(self):
        spec = full_spec(2, 2)
        mesh = build_plate_mesh(spec, np.ones(4, dtype=int))
        moved = mesh.translated((0.0, 0.0, 0.5))
        np.testing.assert_allclose(moved.vertices[:, 2], 0.5)
        np.testing.assert_array_equal(moved.faces, mesh.faces)
        np.testing.assert_allclose(moved.face_areas, mesh.face_areas)
        np.testing.assert_allclose(
            moved.face_centroids, mesh.face_centroids + [0.0, 0.0, 0.5]
        )

    def test_duplicate_face_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        with pytest.raises(GeometryError):
            TriMesh(vertices=verts, faces=np.array([[0, 1, 2], [2, 1, 0]]))

    def test_duplicate_message_names_the_first_repeat(self):
        # face 2 repeats face 1 before face 3 repeats face 0, whose vertex
        # set has the smaller key
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                         dtype=float)
        faces = np.array([[0, 1, 2], [1, 3, 2], [3, 2, 1], [2, 1, 0]])
        with pytest.raises(GeometryError,
                           match=r"^duplicate face over vertices \(1, 2, 3\)$"):
            TriMesh(vertices=verts, faces=faces)

    def test_negative_face_index_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        with pytest.raises(GeometryError, match="out of range"):
            TriMesh(vertices=verts, faces=np.array([[0, 1, -1]]))


class TestExtractRwg:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (3, 4), (4, 8)])
    def test_edge_count_matches_brute_force(self, rows, cols):
        spec = full_spec(rows, cols, ports=1)
        mesh = build_plate_mesh(spec, np.ones(rows * cols, dtype=int))
        basis = extract_rwg(mesh)
        assert basis.n_edges == brute_interior_edge_count(mesh)

    def test_partial_config_count(self):
        spec = full_spec(2, 2, ports=1)
        bits = np.array([1, 0, 1, 1])
        mesh = build_plate_mesh(spec, bits)
        basis = extract_rwg(mesh)
        assert basis.n_edges == brute_interior_edge_count(mesh)

    def test_edge_geometry(self):
        spec = full_spec(2, 2, ports=1)
        mesh = build_plate_mesh(spec, np.ones(4, dtype=int))
        basis = extract_rwg(mesh)
        for n in range(basis.n_edges):
            va, vb = basis.edges[n]
            assert va < vb
            length = np.linalg.norm(mesh.vertices[va] - mesh.vertices[vb])
            assert basis.lengths[n] == pytest.approx(length, rel=1e-14)
            # free vertices do not lie on the shared edge
            assert basis.plus_free[n] not in (va, vb)
            assert basis.minus_free[n] not in (va, vb)
            # plus and minus faces both contain the edge
            for face, free in (
                (basis.plus_face[n], basis.plus_free[n]),
                (basis.minus_face[n], basis.minus_free[n]),
            ):
                fv = set(mesh.faces[face].tolist())
                assert {int(va), int(vb), int(free)} == fv

    def test_single_triangle_has_no_interior_edges(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        mesh = TriMesh(vertices=verts, faces=np.array([[0, 1, 2]]))
        basis = extract_rwg(mesh)
        assert basis.n_edges == 0

    def test_non_manifold_edge_rejected(self):
        # three faces on edge (0, 1), two on edge (0, 4)
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0],
                          [0, 0, 1]], dtype=float)
        faces = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4], [0, 4, 2]])
        with pytest.raises(GeometryError,
                           match=r"^non-manifold edge \(0, 1\) on 3 faces$"):
            extract_rwg(TriMesh(vertices=verts, faces=faces))

    def test_edge_index_lookup(self):
        spec = full_spec(1, 1, ports=1)
        mesh = build_plate_mesh(spec, np.ones(1, dtype=int))
        basis = extract_rwg(mesh)
        va, vb = basis.edges[0]
        assert basis.edge_index(int(vb), int(va)) == 0
        with pytest.raises(GeometryError):
            basis.edge_index(0, 0)


def bench_small_spec():
    return PlateSpec(width=8 * 0.35, height=4 * 0.35, pixel_rows=4,
                     pixel_cols=8, ports=4)


def bench_large_spec():
    return PlateSpec(width=16 * 0.24, height=8 * 0.24, pixel_rows=8,
                     pixel_cols=16, ports=8)


def alternate_row_spec():
    return PlateSpec(width=4 * 0.35, height=8 * 0.35, pixel_rows=8,
                     pixel_cols=4, ports=4,
                     port_pixels=((0, 0), (2, 0), (4, 0), (6, 0)))


def parity_configs(spec):
    """Random fills, holes in full metal, islands off the spine, all metal."""
    rng = np.random.default_rng(spec.n_bits)
    out = [(rng.random(spec.n_bits) < p).astype(int)
           for p in (0.05, 0.2, 0.5, 0.8) for _ in range(3)]
    holey = np.ones((spec.pixel_rows, spec.pixel_cols), dtype=int)
    holey[1::2, 2::3] = 0
    islands = np.zeros_like(holey)
    islands[::2, 2::2] = 1
    return out + [holey.ravel(), islands.ravel(),
                  np.zeros(spec.n_bits, dtype=int),
                  np.ones(spec.n_bits, dtype=int)]


class TestEdgeMap:
    """A configuration taken from its all-metal parent: the face map of
    its metal pixels names, in order, the faces of the mesh built for it
    directly, and the basis built directly holds parent edges in its own
    order: its edge i is parent edge p[i] (`parent_edges`), the edge its
    plus and minus faces share in the parent."""

    @pytest.mark.parametrize("make_spec", [
        bench_small_spec, bench_large_spec, alternate_row_spec])
    def test_equals_direct_mesh_and_basis(self, make_spec):
        spec = make_spec()
        parent = extract_rwg(build_plate_mesh(spec, np.ones(spec.n_bits)))
        for bits in parity_configs(spec):
            mesh = build_plate_mesh(spec, bits)
            direct = extract_rwg(mesh)
            faces = (2 * spec.metal_pixels(bits)[:, None]
                     + np.arange(2)).ravel()
            p = parent_edges(parent, faces, direct)
            # distinct parent edges
            assert np.unique(p).size == p.size
            # the parent vertex of each direct vertex, through the faces
            vertex = np.full(len(mesh.vertices), -1)
            vertex[mesh.faces] = parent.mesh.faces[faces]
            assert np.array_equal(vertex[mesh.faces], parent.mesh.faces[faces])
            assert np.array_equal(parent.mesh.vertices[vertex], mesh.vertices)
            for name in ("face_areas", "face_centroids", "face_tags"):
                got = getattr(parent.mesh, name)[faces]
                want = getattr(mesh, name)
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name
            assert np.array_equal(parent.edges[p],
                                  np.sort(vertex[direct.edges], axis=1))
            for name, index in (("plus_face", faces), ("minus_face", faces),
                                ("plus_free", vertex), ("minus_free", vertex)):
                got = getattr(parent, name)[p]
                want = index[getattr(direct, name)]
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name
            assert parent.lengths[p].dtype == direct.lengths.dtype
            assert np.array_equal(parent.lengths[p], direct.lengths)


def same_bytes(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


class TestArrayBuilders:
    """The array builders of the mesh, its RWG edges and its face sampler
    give the bytes of the per-element loops they replaced
    (`oracles.loop_plate_mesh` and the others), on the benchmark's and the
    CLI's plates and a plate of rectangular pixels."""

    @pytest.mark.parametrize("make_spec", [
        lambda: _plate_spec(RunConfig(pixel_size=0.35 * c0 / 27e9), "tx"),
        lambda: _plate_spec(RunConfig(tx_ports=8, tx_pixels_per_port=16),
                            "tx"),
        lambda: _plate_spec(RunConfig(), "tx"),
        lambda: PlateSpec(width=0.05, height=0.06, pixel_rows=3,
                          pixel_cols=5, ports=3),
    ], ids=["ga_link", "dof_large", "cli_default", "rectangular_pixels"])
    def test_equal_the_loops_bytes(self, make_spec):
        spec = make_spec()
        rng = np.random.default_rng(30)
        for bits in [*parity_configs(spec),
                     *rng.integers(0, 2, (20, spec.n_bits))]:
            mesh = build_plate_mesh(spec, bits)
            got = (mesh.vertices, mesh.faces, mesh.face_tags)
            for g, w in zip(got, loop_plate_mesh(spec, bits), strict=True):
                assert same_bytes(g, w)
            basis = extract_rwg(mesh)
            got = (basis.edges, basis.plus_face, basis.minus_face,
                   basis.plus_free, basis.minus_free, basis.lengths)
            for g, w in zip(got, loop_rwg(mesh), strict=True):
                assert same_bytes(g, w)
            assert same_bytes(face_sampling_operator(basis),
                              loop_sampler(basis))


class TestSamplingOperator:
    def test_single_pixel_hand_check(self):
        spec = full_spec(1, 1, ports=1)
        mesh = build_plate_mesh(spec, np.ones(1, dtype=int))
        basis = extract_rwg(mesh)
        assert basis.n_edges == 1  # the pixel diagonal
        smp = face_sampling_operator(basis)
        assert smp.shape == (3 * mesh.n_faces, 1)
        n = 0
        for face, free, sign in (
            (basis.plus_face[n], basis.plus_free[n], 1.0),
            (basis.minus_face[n], basis.minus_free[n], -1.0),
        ):
            expected = (
                sign
                * basis.lengths[n]
                / (2.0 * mesh.face_areas[face])
                * (mesh.face_centroids[face] - mesh.vertices[free])
            )
            got = smp[3 * face : 3 * face + 3, 0]
            np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_sampled_current_is_in_plane(self):
        spec = full_spec(2, 3, ports=1)
        mesh = build_plate_mesh(spec, np.ones(6, dtype=int))
        basis = extract_rwg(mesh)
        smp = face_sampling_operator(basis)
        z_rows = smp[2::3, :]
        np.testing.assert_allclose(z_rows, 0.0, atol=1e-15)

    def test_every_column_touches_two_faces(self):
        spec = full_spec(2, 2, ports=1)
        mesh = build_plate_mesh(spec, np.ones(4, dtype=int))
        basis = extract_rwg(mesh)
        smp = face_sampling_operator(basis)
        per_face = smp.reshape(mesh.n_faces, 3, basis.n_edges)
        touched = np.linalg.norm(per_face, axis=1) > 0
        np.testing.assert_array_equal(touched.sum(axis=0), 2)


class TestPortEdges:
    def test_ports_on_pixel_diagonals(self):
        spec = full_spec(3, 4, ports=2)
        mesh = build_plate_mesh(spec, np.zeros(12, dtype=int))
        ports = locate_port_edges(spec, mesh)
        assert len(ports) == 2
        basis = extract_rwg(mesh)
        dx, dy = spec.pixel_size
        diag = np.hypot(dx, dy)
        for va, vb in ports:
            idx = basis.edge_index(va, vb)
            assert basis.lengths[idx] == pytest.approx(diag, rel=1e-12)
        assert len(set(tuple(sorted(p)) for p in ports)) == 2

    def test_ports_stable_across_configurations(self):
        spec = full_spec(3, 4, ports=2)
        mesh0 = build_plate_mesh(spec, np.zeros(12, dtype=int))
        mesh1 = build_plate_mesh(spec, np.ones(12, dtype=int))
        p0 = [
            tuple(np.round(mesh0.vertices[list(e)], 12).ravel())
            for e in locate_port_edges(spec, mesh0)
        ]
        p1 = [
            tuple(np.round(mesh1.vertices[list(e)], 12).ravel())
            for e in locate_port_edges(spec, mesh1)
        ]
        assert p0 == p1


class TestSerialization:
    def test_text_roundtrip(self):
        # a comment line, then one "v x y z" line per vertex and one
        # "f i j k" line per face, each value exact at 17 digits
        mesh = build_plate_mesh(full_spec(2, 3, ports=1), np.ones(6, dtype=int))
        lines = mesh_to_text(mesh).splitlines()
        assert lines[0].startswith("#")
        rows = [line.split() for line in lines[1:]]
        assert [row[0] for row in rows] == (["v"] * len(mesh.vertices)
                                            + ["f"] * mesh.n_faces)
        np.testing.assert_array_equal(
            np.array([row[1:] for row in rows if row[0] == "v"], dtype=float),
            mesh.vertices)
        np.testing.assert_array_equal(
            np.array([row[1:] for row in rows if row[0] == "f"], dtype=int),
            mesh.faces)

    def test_json_roundtrip(self):
        mesh = build_plate_mesh(full_spec(2, 3, ports=1), np.ones(6, dtype=int))
        doc = json.loads(mesh_to_json(mesh))
        assert sorted(doc) == ["faces", "vertices"]
        np.testing.assert_array_equal(np.array(doc["vertices"]), mesh.vertices)
        np.testing.assert_array_equal(np.array(doc["faces"]), mesh.faces)
