"""Tests for the dense EFIE impedance assembly and delta-gap excitation."""
import gc
import os
import subprocess
import sys
import threading
import time
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
from cmadof.mesh import PlateSpec, build_plate_mesh, extract_rwg
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
    """A holey acceptance-7 configuration moved off the origin: 40 faces,
    so a full and a partial tile and their mirror."""
    bits = np.ones(32)
    bits[[5, 6, 9, 11, 13, 14, 19, 22, 25, 26, 30, 31]] = 0
    mesh = build_plate_mesh(acceptance7_spec(), bits)
    return extract_rwg(mesh.translated((0.3 * PIX, -1.7 * PIX, 4.1 * PIX)))


def cli_parent(cfg=None):
    """All-metal transmit parent of a CLI run (by default 4x8 pixels at
    0.24 wavelength, 64 faces)."""
    spec = _plate_spec(cfg or RunConfig(), "tx")
    return extract_rwg(build_plate_mesh(spec, np.ones(spec.n_bits)))


def ga_link_parent():
    """All-metal parent of the benchmark's small link: 4x8 pixels at 0.35
    wavelength, 357 touching face pairs."""
    return cli_parent(RunConfig(pixel_size=0.35 * c0 / FREQ))


PLATES = [acceptance7_plate, holey_3x3_plate, translated_holey_8x4_plate,
          cli_parent]


class TestAssemblyIsExact:
    """The tiled, pooled assembly computes every entry of Z by the same
    arithmetic as the single-threaded whole-plate loop with the allocating
    touching-pair kernel it replaced."""

    @pytest.mark.parametrize("cores", [None, 1, 2, 3],
                             ids=["machine", "1", "2", "3"])
    @pytest.mark.parametrize("make_basis", PLATES)
    def test_equals_untiled_reference(self, monkeypatch, make_basis, cores):
        if cores is not None:
            monkeypatch.setattr(cmadof.efie, "_cores", lambda: cores)
        basis = make_basis()
        z = assemble_impedance(basis, FREQ).z
        assert np.array_equal(z, untiled_impedance(basis, FREQ))


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
        x7 = tri_points(mesh.vertices[mesh.faces])
        wa = TRI_W[None, :] * mesh.face_areas[:, None]
        k0 = 2 * np.pi * FREQ / c0
        tiles = [(slice(0, rows), slice(64 - cols, 64))]  # and its mirror
        if rows == cols:
            tiles.append((slice(0, rows),) * 2)  # on the diagonal
        for a, b in tiles:
            ab, ba = _regular_tile(x7, wa, k0, a, b)
            got = [(a, b, ab)] if ba is None else [(a, b, ab), (b, a, ba)]
            for rows_of, cols_of, moments in got:
                plain = plain_face_moments(x7, wa, k0, rows_of, cols_of)
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
