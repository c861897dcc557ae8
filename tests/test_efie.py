"""Tests for the dense EFIE impedance assembly and delta-gap excitation."""
import functools
import gc
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import c as c0

import cmadof.efie
from cmadof.cli import _plate_spec
from cmadof.config import RunConfig
from cmadof.efie import (
    ImpedanceOperator,
    _BARY_STATIC,
    _face_adjacency_pairs,
    _regular_tile,
    _singular_moments,
    assemble_impedance,
    delta_gap_excitation,
    psd_project,
)
from cmadof.errors import GeometryError
from cmadof.mesh import PlateSpec, TriMesh, build_plate_mesh, extract_rwg
from cmadof.quadrature import Scratch, TRI_W, static_potential_integrals, tri_points
from oracles import (oracle_impedance_entry, plain_face_moments,
                     untiled_impedance)

FREQ = 27e9
PIX = 0.24 * c0 / FREQ


def plate_basis(rows, cols, bits=None):
    spec = PlateSpec(width=cols * PIX, height=rows * PIX, pixel_rows=rows,
                     pixel_cols=cols, ports=1)
    if bits is None:
        bits = np.ones(rows * cols, dtype=int)
    mesh = build_plate_mesh(spec, bits)
    return spec, mesh, extract_rwg(mesh)


def test_constants_equal_scipy():
    import scipy.constants

    assert cmadof.efie.C0 == scipy.constants.c
    assert cmadof.efie.EPS0 == scipy.constants.epsilon_0
    assert cmadof.efie.MU0 == scipy.constants.mu_0


class TestPsdProject:
    def test_already_psd_unchanged(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        r = a @ a.T
        out, w, q = psd_project(r)
        np.testing.assert_allclose(out, r, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose((q * w) @ q.T, r, atol=1e-12)

    def test_negative_eigenvalues_clamped(self):
        q = np.linalg.qr(np.random.default_rng(4).standard_normal((5, 5)))[0]
        d = np.diag([3.0, 1.0, 1e-8, -1e-9, -2.0])
        r = q @ d @ q.T
        out, w, q = psd_project(r)
        np.testing.assert_allclose((q * w) @ q.T, out, atol=1e-12)
        assert w.min() >= -1e-14 * abs(w).max()
        # large positive eigenvalues survive
        assert w.max() == pytest.approx(3.0, rel=1e-10)

    def test_output_symmetric(self):
        rng = np.random.default_rng(5)
        r = rng.standard_normal((7, 7))
        out, _, _ = psd_project(0.5 * (r + r.T))
        np.testing.assert_allclose(out, out.T, atol=1e-14)


class TestImpedanceOperator:
    def test_validation(self):
        with pytest.raises(ValueError):
            ImpedanceOperator(z=np.zeros((2, 3)), frequency=1e9)
        with pytest.raises(ValueError):
            ImpedanceOperator(z=np.zeros((2, 2)), frequency=0.0)

    def test_split_and_derived_quantities(self):
        z = np.array([[1 + 2j, 3 - 1j], [3 - 1j, 4 + 5j]])
        op = ImpedanceOperator.from_matrix(z, 1e9)
        np.testing.assert_allclose(op.x, z.imag)

    def test_r_psd_is_psd(self):
        _, _, basis = plate_basis(2, 2)
        op = assemble_impedance(basis, FREQ)
        w = np.linalg.eigvalsh(op.r_psd)
        assert w.min() >= -1e-12 * abs(w).max()


class TestAssembleImpedance:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (2, 3)])
    def test_symmetry(self, rows, cols):
        _, _, basis = plate_basis(rows, cols)
        op = assemble_impedance(basis, FREQ)
        asym = np.abs(op.z - op.z.T).max() / np.abs(op.z).max()
        assert asym <= 1e-10

    def test_two_triangle_self_entry_matches_oracle(self):
        _, _, basis = plate_basis(1, 1)
        assert basis.n_edges == 1
        op = assemble_impedance(basis, FREQ)
        ref = oracle_impedance_entry(basis, 0, 0, FREQ, outer_levels=3, duffy_order=16)
        assert abs(op.z[0, 0] - ref) / abs(ref) < 1e-3

    def test_neighbor_entry_matches_oracle(self):
        _, _, basis = plate_basis(1, 2)
        op = assemble_impedance(basis, FREQ)
        m, n = 0, basis.n_edges - 1
        ref = oracle_impedance_entry(basis, m, n, FREQ, outer_levels=2, duffy_order=12)
        assert abs(op.z[m, n] - ref) / abs(ref) < 1e-3

    def test_entry_depends_only_on_face_pair_geometry(self):
        # the same two faces in a larger mesh produce the same self entry
        _, _, small = plate_basis(1, 1)
        spec, mesh, big = plate_basis(1, 2)
        op_small = assemble_impedance(small, FREQ)
        op_big = assemble_impedance(big, FREQ)
        # locate the diagonal edge of pixel 0 in the larger basis
        match = None
        for n in range(big.n_edges):
            va, vb = big.edges[n]
            pa = mesh.vertices[va]
            pb = mesh.vertices[vb]
            if abs(pa[0] - pb[0]) > 1e-12 and abs(pa[1] - pb[1]) > 1e-12:
                if max(pa[0], pb[0]) <= PIX + 1e-12:
                    match = n
                    break
        assert match is not None
        ratio = op_big.z[match, match] / op_small.z[0, 0]
        assert abs(ratio - 1.0) < 1e-10

    def test_resistance_positive_on_diagonal(self):
        _, _, basis = plate_basis(2, 2)
        op = assemble_impedance(basis, FREQ)
        assert np.all(np.diag(op.r_psd) > 0)


def acceptance7_spec():
    pix = 0.35 * c0 / FREQ
    return PlateSpec(width=4 * pix, height=8 * pix, pixel_rows=8,
                     pixel_cols=4, ports=4,
                     port_pixels=((0, 0), (2, 0), (4, 0), (6, 0)))


def acceptance7_plate():
    """All-metal 8x4-pixel plate of acceptance test 7 (64 faces, 2 tiles)."""
    return extract_rwg(build_plate_mesh(acceptance7_spec(), np.ones(32)))


def holey_3x3_plate():
    """3x3 plate with two pixels off (14 faces, one partial tile)."""
    return plate_basis(3, 3, bits=[1, 0, 1, 1, 1, 0, 1, 1, 1])[2]


def translated_holey_8x4_plate():
    """A holey acceptance-7 configuration moved off the origin in its
    plane: 40 faces, so a full and a partial tile and their mirror."""
    bits = np.ones(32)
    bits[[5, 6, 9, 11, 13, 14, 19, 22, 25, 26, 30, 31]] = 0
    mesh = build_plate_mesh(acceptance7_spec(), bits)
    return extract_rwg(mesh.translated((0.3 * PIX, -1.7 * PIX, 0.0)))


def cli_parent(cfg=None):
    """All-metal transmit parent of a CLI run (by default 4x8 pixels at
    0.24 wavelength, 64 faces)."""
    spec = _plate_spec(cfg or RunConfig(), "tx")
    return extract_rwg(build_plate_mesh(spec, np.ones(spec.n_bits)))


def ga_link_parent():
    """All-metal parent of the benchmark's small link: 4x8 pixels at 0.35
    wavelength, 357 touching face pairs."""
    return cli_parent(RunConfig(pixel_size=0.35 * c0 / FREQ))


def dof_large_parent():
    """All-metal parent of the benchmark's large link: 8x16 pixels at the
    default 0.24 wavelength, 256 faces in 36 tile pairs, 1,605 touching
    pairs. Its link report is the one that roundoff in Z moves most."""
    return cli_parent(RunConfig(tx_ports=8, rx_ports=8, tx_pixels_per_port=16,
                                rx_pixels_per_port=16))


PLATES = [acceptance7_plate, holey_3x3_plate, translated_holey_8x4_plate,
          cli_parent, dof_large_parent]


@functools.cache
def untiled_z(make_basis):
    """`untiled_impedance` of a PLATES plate, computed once per session."""
    return untiled_impedance(make_basis(), FREQ)


class TestAssemblyIsExact:
    """The tiled, pooled assembly in the plate's plane computes every entry
    of Z by the same arithmetic as the single-threaded whole-plate loop
    with the general 3-D touching-pair kernel it replaced."""

    # (cores, edges per row block): the default block height at each
    # core count, and single-edge, odd and whole-matrix blocks on the
    # machine's cores
    @pytest.mark.parametrize(
        "cores,edge_rows",
        [(None, None), (1, None), (2, None), (3, None),
         (None, 1), (None, 3), (None, "all")],
        ids=["machine", "1", "2", "3",
             "machine-rows1", "machine-rows3", "machine-rowsall"])
    @pytest.mark.parametrize("make_basis", PLATES)
    def test_equals_untiled_reference(self, monkeypatch, make_basis, cores,
                                      edge_rows):
        basis = make_basis()
        if cores is not None:
            monkeypatch.setattr(cmadof.efie, "_cores", lambda: cores)
        if edge_rows is not None:
            monkeypatch.setattr(cmadof.efie, "EDGE_ROWS", basis.n_edges
                                if edge_rows == "all" else edge_rows)
        z = assemble_impedance(basis, FREQ).z
        assert z.tobytes() == untiled_z(make_basis).tobytes()

    @pytest.mark.parametrize("height", [4.1 * PIX, -0.3 * PIX, 1e-300],
                             ids=["above", "below", "tiny"])
    def test_a_plate_at_any_height_has_the_z_of_its_copy_at_zero(self, height):
        basis = translated_holey_8x4_plate()
        lifted = extract_rwg(basis.mesh.translated((0.0, 0.0, height)))
        assert (assemble_impedance(lifted, FREQ).z.tobytes()
                == assemble_impedance(basis, FREQ).z.tobytes())

    def test_a_tilted_plate_is_refused(self):
        mesh = acceptance7_plate().mesh
        vertices = mesh.vertices.copy()
        vertices[:, 2] = 0.1 * vertices[:, 0]
        tilted = TriMesh(vertices=vertices, faces=mesh.faces)
        with pytest.raises(GeometryError, match="one z"):
            assemble_impedance(extract_rwg(tilted), FREQ)


def test_working_memory_of_the_large_parent_is_bounded(monkeypatch):
    # two threads, the pool of the 2-core machine the bound was measured
    # on: each thread holds a tile or a row block, so the peak grows with
    # the pool
    monkeypatch.setattr(cmadof.efie, "_cores", lambda: 2)
    basis = dof_large_parent()
    tracemalloc.start()
    try:
        z = assemble_impedance(basis, FREQ).z
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Z and the four face-moment arrays (m_in and m_out of 2 components)
    # are 8.4 MB; the work in flight on top of them read 3.8-4.0 MB
    held = z.nbytes + 6 * basis.mesh.n_faces ** 2 * 16
    assert peak <= held + 5e6


def grid_points(basis):
    """(column, row) of each vertex on the plate's pixel grid."""
    vertices = basis.mesh.vertices
    return np.column_stack([np.unique(vertices[:, axis],
                                      return_inverse=True)[1].ravel()
                            for axis in (0, 1)])


def shifted_edges(basis, shift):
    """(edges, the same edges moved by shift = (columns, rows) pixels) for
    every edge of the plate whose moved copy is one of its edges; an edge
    is matched by its two grid endpoints."""
    grid = grid_points(basis)
    ends = [sorted(map(tuple, grid[edge])) for edge in basis.edges]
    index = {tuple(end): n for n, end in enumerate(ends)}
    moved = [index.get(tuple(sorted((c + shift[0], r + shift[1])
                                    for c, r in end))) for end in ends]
    kept = [n for n, m in enumerate(moved) if m is not None]
    return np.array(kept), np.array([moved[n] for n in kept])


class TestTranslation:
    """On the uniform grid of an all-metal parent, an entry of Z depends
    on the two edges' relative position alone: a pair of edges moved by
    whole pixels has the same entry, to roundoff."""

    @pytest.mark.parametrize("make_basis", [ga_link_parent, dof_large_parent,
                                            cli_parent])
    def test_a_shifted_edge_pair_has_the_same_entry(self, make_basis):
        basis = make_basis()
        z = assemble_impedance(basis, FREQ).z
        for shift in ((1, 0), (0, 1), (3, 2)):
            edges, moved = shifted_edges(basis, shift)
            assert edges.size >= basis.n_edges // 4
            # the largest deviation read 5.2e-13 of max|Z| (dof_large)
            deviation = np.abs(z[np.ix_(moved, moved)]
                               - z[np.ix_(edges, edges)]).max()
            assert deviation <= 1e-11 * np.abs(z).max(), shift


def half_turned_edges(basis):
    """(the image of each edge under the half turn about the plate's
    centre, the sign its function takes there) on an all-metal parent.
    The turn maps grid point (c, r) to (C - c, R - r) and face f to
    F - 1 - f; an edge is matched by its two grid endpoints, and its
    function changes sign when its plus face turns onto the image's minus
    face."""
    grid = grid_points(basis)
    top = grid.max(axis=0)
    index = {tuple(sorted(map(tuple, grid[edge]))): n
             for n, edge in enumerate(basis.edges)}
    image = np.array([index[tuple(sorted(map(tuple, top - grid[edge])))]
                      for edge in basis.edges])
    turned_plus = basis.mesh.n_faces - 1 - basis.plus_face
    same = basis.plus_face[image] == turned_plus
    assert np.all(same | (basis.minus_face[image] == turned_plus))
    return image, np.where(same, 1.0, -1.0)


def touching_edge_pairs(basis):
    """(E, E) mask of the edge pairs with a face of one sharing a vertex
    with a face of the other: the entries the touching-pair rule moves."""
    faces = basis.mesh.faces
    on = np.zeros((basis.n_edges, len(basis.mesh.vertices)))
    for side in (basis.plus_face, basis.minus_face):
        on[np.arange(basis.n_edges)[:, None], faces[side]] = 1.0
    return on @ on.T > 0


class TestHalfTurn:
    """The all-metal parent is its own half turn, and so is Z, edges
    matched as `half_turned_edges` matches them. Entries with no touching
    face pair agree to roundoff. The others agree only to the accuracy of
    the touching-pair rule: the turn reverses the face order, so each
    touching pair's image is integrated with the other face as the outer
    one, and swapping the two roles in `_singular_moments` moves its m00
    by about 1e-6 and its mdot by about 4e-6, relative."""

    @pytest.mark.parametrize("make_basis", [ga_link_parent, dof_large_parent,
                                            cli_parent])
    def test_a_half_turned_edge_pair_has_the_same_entry(self, make_basis):
        basis = make_basis()
        z = assemble_impedance(basis, FREQ).z
        image, sign = half_turned_edges(basis)
        assert sorted(image) == list(range(basis.n_edges))
        turned = np.multiply.outer(sign, sign) * z[np.ix_(image, image)]
        deviation = np.abs(turned - z) / np.abs(z).max()
        touching = touching_edge_pairs(basis)
        # measured: at most 2.4e-14 apart; 1.8e-6 (ga_link) and 8.1e-7
        # (dof_large, CLI default) on touching pairs
        assert deviation[~touching].max() <= 1e-12
        assert deviation[touching].max() <= 1e-5


class TestTouchingOrientation:
    """Which face of a touching pair is the outer one moves its m00 and
    mdot by the error of the subdivided outer rule, not by a defect of
    the orientation: the two orientations approach each other about 8x
    per subdivision level. On the first 32 touching pairs of distinct
    faces of the `ga_link` parent, the largest relative difference read
    m00 9.0e-6, 1.1e-6, 1.4e-7, 1.7e-8 and mdot 2.8e-5, 4.0e-6, 5.3e-7,
    6.9e-8 at levels 2 to 5; the package's level 3 is 1.1e-4 (m00) and
    1.2e-4 (mdot) from level 5. The outer points taken on the inner face
    leave an O(1) difference at every level, and fail here."""

    @staticmethod
    def asymmetry(monkeypatch, level):
        """Largest relative m00 and mdot difference between the two
        orientations, under the outer rule of `level`."""
        bary, weights = cmadof.efie._refined_rule(level)
        monkeypatch.setattr(cmadof.efie, "_BARY_STATIC", bary)
        monkeypatch.setattr(cmadof.efie, "_W_STATIC", weights)
        basis = ga_link_parent()
        pairs = np.array(_face_adjacency_pairs(basis.mesh.faces))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]][:32]
        ahead, turned = (_singular_moments(*touching_batch(basis, p), Scratch())
                         for p in (pairs, pairs[:, ::-1]))
        return np.array([np.max(np.abs(ahead[m] - turned[m]) / np.abs(ahead[m]))
                         for m in (0, 3)])

    def test_the_difference_falls_with_the_subdivision(self, monkeypatch):
        coarse = self.asymmetry(monkeypatch, 3)
        fine = self.asymmetry(monkeypatch, 4)
        assert np.all(fine <= coarse / 4), (coarse, fine)


MOMENTS = ("m00", "m_in", "m_out", "mdot")


class TestTileMoments:
    """A tile scales its kernel on the float view and runs its einsums in
    loop orders chosen for speed; every entry must still be the plain
    spelling's of the untiled reference, bit for bit. A numpy release
    that changes einsum's reduction order or complex division fails here
    first, not only as a moved Z."""

    @pytest.mark.parametrize("cols", [1, 2, 7, 24, 32])
    @pytest.mark.parametrize("rows", [1, 2, 7, 24, 32])
    def test_equals_plain_spelling(self, rows, cols):
        mesh = ga_link_parent().mesh
        x7 = tri_points(mesh.vertices[mesh.faces])  # the plate is at z = 0
        wa = TRI_W[None, :] * mesh.face_areas[:, None]
        k0 = 2 * np.pi * FREQ / c0
        tiles = [(slice(0, rows), slice(64 - cols, 64))]  # and its mirror
        if rows == cols:
            tiles.append((slice(0, rows),) * 2)  # on the diagonal
        for a, b in tiles:
            ab, ba = _regular_tile(x7[..., :2], wa, k0, a, b)
            got = [(a, b, ab)] if ba is None else [(a, b, ab), (b, a, ba)]
            for rows_of, cols_of, moments in got:
                plain = list(plain_face_moments(x7, wa, k0, rows_of, cols_of))
                # the tile's vector moments have x and y only, and the
                # plain spelling's z parts are zero
                for m in (1, 2):
                    assert not np.any(plain[m][..., 2])
                    plain[m] = plain[m][..., :2]
                for name, have, want in zip(MOMENTS, moments, plain):
                    assert np.array_equal(have, want), (
                        f"{name} of faces {rows_of.start}:{rows_of.stop} x "
                        f"{cols_of.start}:{cols_of.stop} is not "
                        "the plain einsum's: this numpy orders the sums "
                        "or rounds the complex division differently")


def record_spans(monkeypatch, name, spans, pause):
    """Rebind cmadof.efie.name to a wrapper that sleeps `pause` seconds
    after each call and appends its (start, end, thread) to `spans`."""
    original = getattr(cmadof.efie, name)

    def wrapper(*args):
        start = time.perf_counter()
        result = original(*args)
        time.sleep(pause)
        spans.append((start, time.perf_counter(), threading.get_ident()))
        return result

    monkeypatch.setattr(cmadof.efie, name, wrapper)


class TestSchedule:
    """The touching batches run in order as one task beside the tiles."""

    @pytest.mark.parametrize("cores", [2, 3])
    def test_batches_run_one_at_a_time_beside_the_tiles(self, monkeypatch,
                                                        cores):
        # tiles slowed far beyond the whole chain, so no thread runs out
        # of tiles while a batch is left
        monkeypatch.setattr(cmadof.efie, "_cores", lambda: cores)
        tiles, batches = [], []
        record_spans(monkeypatch, "_regular_tile", tiles, 0.3)
        record_spans(monkeypatch, "_singular_moments", batches, 0.0)
        basis = acceptance7_plate()
        z = assemble_impedance(basis, FREQ).z
        batches.sort()
        assert len({thread for *_, thread in batches}) == 1
        assert all(end <= start for (_, end, _), (start, _, _)
                   in zip(batches, batches[1:]))
        assert batches[0][0] < min(end for _, end, _ in tiles)
        assert np.array_equal(z, untiled_impedance(basis, FREQ))

    def test_each_batch_runs_once_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter
        # allows: a batch taken twice or lost shows in the count or in Z
        monkeypatch.setattr(cmadof.efie, "_cores", lambda: 8)
        tiles, batches = [], []
        record_spans(monkeypatch, "_regular_tile", tiles, 0.0)
        record_spans(monkeypatch, "_singular_moments", batches, 0.0)
        basis = acceptance7_plate()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            z = assemble_impedance(basis, FREQ).z
        finally:
            sys.setswitchinterval(interval)
        pairs = len(_face_adjacency_pairs(basis.mesh.faces))
        assert len(tiles) == 3
        assert len(batches) == -(-pairs // cmadof.efie.TOUCH_CHUNK)
        assert np.array_equal(z, untiled_impedance(basis, FREQ))


def touching_batch(basis, pairs):
    """_singular_moments arguments of the face pairs `pairs` (P, 2)."""
    mesh = basis.mesh
    tv = mesh.vertices[mesh.faces]
    p, q = pairs.T
    return tv[p], tv[q], mesh.face_areas[p], mesh.face_areas[q], 2 * np.pi * FREQ / c0


class TestScratchReuse:
    """The batch task reuses one Scratch across its batches; a tile
    computes in arrays of its own."""

    def test_results_survive_later_work_in_the_same_buffers(self, monkeypatch):
        scratches = []

        def counted():
            scratches.append(Scratch())
            return scratches[-1]

        tiles = []

        def kept_tile(*args):
            tiles.append(_regular_tile(*args))
            return tiles[-1]

        monkeypatch.setattr(cmadof.efie, "Scratch", counted)
        monkeypatch.setattr(cmadof.efie, "_regular_tile", kept_tile)
        basis = ga_link_parent()
        pairs = np.array(_face_adjacency_pairs(basis.mesh.faces))
        scratch = Scratch()

        def work(batch):
            """A touching batch and its static integrals, in `scratch`."""
            args = touching_batch(basis, batch)
            return [*_singular_moments(*args, scratch),
                    *static_potential_integrals(_BARY_STATIC @ args[0],
                                                args[1], scratch=scratch)]

        work(pairs[32:64])  # the buffers reach their largest size first
        first = work(pairs[:32])
        kept = [a.copy() for a in first]
        work(pairs[32:64])
        for got, want in zip(first, kept):
            assert not np.shares_memory(got, scratch._flat)
            assert np.array_equal(got, want)
        assemble_impedance(basis, FREQ)
        assert len(scratches) == 1  # the batch task's, not a tile's
        assert len(tiles) == 3
        for ab, ba in tiles:
            for got in (*ab, *(ba or ())):
                assert not np.shares_memory(got, scratches[0]._flat)

    def test_partial_last_batch_equals_a_full_batch(self):
        basis = ga_link_parent()
        pairs = np.array(_face_adjacency_pairs(basis.mesh.faces))
        chunk = cmadof.efie.TOUCH_CHUNK
        assert len(pairs) == 11 * chunk + 5
        scratch = Scratch()
        full = _singular_moments(*touching_batch(basis, pairs[-chunk:]), scratch)
        # the partial batch runs in buffers sized by the full one before it
        last = _singular_moments(*touching_batch(basis, pairs[-5:]), scratch)
        for got, want in zip(last, full):
            assert np.array_equal(got, want[-5:])

    def test_assembling_another_plate_in_between_changes_nothing(self):
        plate_a, plate_b = acceptance7_plate(), holey_3x3_plate()
        z_first = assemble_impedance(plate_a, FREQ).z
        assemble_impedance(plate_b, FREQ)
        assert np.array_equal(assemble_impedance(plate_a, FREQ).z, z_first)


def reachable_arrays(module_names):
    """Every ndarray reachable from the globals of the named modules,
    without entering other modules or their globals."""
    module_dicts = {id(vars(m)) for m in list(sys.modules.values())
                    if m is not None}
    stack = [vars(sys.modules[name]) for name in module_names]
    seen, arrays = set(), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, types.ModuleType):
            continue
        seen.add(id(obj))
        if id(obj) in module_dicts and not any(
                obj is vars(sys.modules[name]) for name in module_names):
            continue
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
            continue
        stack.extend(gc.get_referents(obj))
        own = getattr(obj, "__dict__", None)  # also a thread-local's
        if isinstance(own, dict):
            stack.append(own)
    return arrays


def test_no_buffer_outlives_the_assembly():
    # in a fresh interpreter, so that no earlier assembly of this session
    # can have filled a cache before the first snapshot
    script = (
        "from test_efie import FREQ, acceptance7_plate, reachable_arrays\n"
        "from cmadof.efie import assemble_impedance\n"
        "names = ['cmadof.efie', 'cmadof.quadrature']\n"
        "known = reachable_arrays(names)\n"
        "assemble_impedance(acceptance7_plate(), FREQ)\n"
        "ids = {id(a) for a in known}\n"
        "print([a.shape for a in reachable_arrays(names) if id(a) not in ids])\n"
    )
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    path = [str(tests_dir), str(src_dir), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestDeltaGap:
    def test_columns_carry_edge_length(self):
        spec = PlateSpec(width=4 * PIX, height=3 * PIX, pixel_rows=3,
                         pixel_cols=4, ports=2)
        mesh = build_plate_mesh(spec, np.ones(12, dtype=int))
        basis = extract_rwg(mesh)
        from cmadof.mesh import locate_port_edges

        ports = locate_port_edges(spec, mesh)
        exc = delta_gap_excitation(basis, ports)
        assert exc.shape == (basis.n_edges, 2)
        for col, (va, vb) in enumerate(ports):
            idx = basis.edge_index(va, vb)
            assert exc[idx, col] == pytest.approx(basis.lengths[idx])
            others = np.delete(exc[:, col], idx)
            np.testing.assert_array_equal(others, 0.0)

    def test_duplicate_ports_rejected(self):
        _, mesh, basis = plate_basis(1, 1)
        va, vb = basis.edges[0]
        with pytest.raises(ValueError):
            delta_gap_excitation(basis, [(int(va), int(vb)), (int(vb), int(va))])

    def test_missing_edge_rejected(self):
        _, mesh, basis = plate_basis(1, 1)
        with pytest.raises(GeometryError):
            delta_gap_excitation(basis, [(0, 1)])
