"""Tests for the dyadic Green kernel and the discretized aperture channel."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.constants import c as c0, mu_0 as MU0

import cmadof.channel
from cmadof.channel import (
    ETA0,
    RANK_TOL,
    ChannelOperator,
    assemble_channel,
    dof_g,
    effective_rank,
    green_dyadic,
    strict_rank,
)
from cmadof.cli import _make_problem, _plate_spec
from cmadof.config import RunConfig
from cmadof.errors import SingularityError
from cmadof.ga import PixelProblem
from cmadof.mesh import PlateSpec, build_plate_mesh, face_rows
from oracles import dense_channel, refined_channel

FREQ = 27e9
LAM = c0 / FREQ
K0 = 2.0 * np.pi / LAM
PIX = 0.24 * LAM


def desk_plate():
    """Fully metallized 4-row by 8-column pixel plate in the z=0 plane."""
    spec = PlateSpec(
        width=8 * PIX, height=4 * PIX, pixel_rows=4, pixel_cols=8, ports=4
    )
    return build_plate_mesh(spec, np.ones(spec.n_bits, dtype=np.int8))


#: run configurations whose all-metal parents the channel is pinned on:
#: the benchmark's two links, the CLI default, and a receive plate of
#: another spec whose 30 faces are not a whole number of RX_BLOCK blocks
LINKS = {
    "ga_link": RunConfig(pixel_size=0.35 * LAM, separation=1.0 * LAM),
    "dof_large": RunConfig(tx_ports=8, rx_ports=8, tx_pixels_per_port=16,
                           rx_pixels_per_port=16),
    "cli_default": RunConfig(),
    "odd_receive": RunConfig(rx_ports=3, rx_pixels_per_port=5),
}


@pytest.fixture(scope="module")
def shared():
    """Problems whose two plates are one shared all-metal parent: the
    benchmark's two links, the CLI default, and a 3 x 5 plate of
    0.3 x 0.2 wavelength pixels (an odd pixel count, so the centre pixel
    is its own half turn)."""
    spec = PlateSpec(width=5 * 0.3 * LAM, height=3 * 0.2 * LAM,
                     pixel_rows=3, pixel_cols=5, ports=3)
    problems = {name: _make_problem(LINKS[name])
                for name in ("ga_link", "dof_large", "cli_default")}
    problems["non_square"] = PixelProblem(tx_spec=spec, rx_spec=spec,
                                          frequency=FREQ, separation=0.5 * LAM)
    return problems


def half_turned(matrix):
    """The channel of the half-turned link: face f -> F-1-f, and x and y
    components change sign at both ends."""
    n = matrix.shape[0] // 3
    turn = np.array([-1.0, -1.0, 1.0])
    faces = matrix.reshape(n, 3, n, 3)[::-1, :, ::-1]
    return (faces * np.multiply.outer(turn, turn)[None, :, None, :]
            ).reshape(matrix.shape)


def parent_link(cfg):
    """(transmit mesh, receive mesh, k0) of the all-metal parents of a run,
    placed as `PixelProblem.channel` places them."""
    tx_spec, rx_spec = _plate_spec(cfg, "tx"), _plate_spec(cfg, "rx")
    tx = build_plate_mesh(tx_spec, np.ones(tx_spec.n_bits))
    rx = build_plate_mesh(rx_spec, np.ones(rx_spec.n_bits)).translated(
        (0.0, 0.0, cfg.separation))
    return tx, rx, 2.0 * np.pi * cfg.frequency / c0


class TestGreenDyadic:
    def test_matrix_is_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            r = rng.standard_normal(3)
            rp = r + rng.standard_normal(3)
            g = green_dyadic(r, rp, K0)
            np.testing.assert_allclose(g, g.T, atol=0.0)

    def test_swap_of_endpoints_is_exact(self):
        r = np.array([0.01, -0.02, 0.3])
        rp = np.array([-0.05, 0.04, 0.0])
        np.testing.assert_array_equal(
            green_dyadic(r, rp, K0), green_dyadic(rp, r, K0)
        )

    def test_zero_separation_raises(self):
        p = np.array([0.1, 0.2, 0.3])
        with pytest.raises(SingularityError):
            green_dyadic(p, p.copy(), K0)

    @pytest.mark.parametrize("n_terms", [0, 4, -1])
    def test_bad_term_count_rejected(self, n_terms):
        with pytest.raises(ValueError):
            green_dyadic([0, 0, 0], [0, 0, 1], K0, n_terms=n_terms)

    def test_leading_term_prefactor_hand_value(self):
        # transverse entry of the radiating term alone is the scalar
        # line-of-sight amplitude -j eta exp(-j k0 d) / (2 lambda d)
        d = 0.37
        g1 = green_dyadic([0, 0, 0], [0, 0, -d], K0, n_terms=1)
        expect = -1j * ETA0 * np.exp(-1j * K0 * d) / (2.0 * LAM * d)
        assert g1[0, 0] == pytest.approx(expect, rel=1e-12)
        assert g1[1, 1] == pytest.approx(expect, rel=1e-12)
        assert g1[2, 2] == 0.0
        assert abs(g1[0, 0]) == pytest.approx(ETA0 / (2.0 * LAM * d), rel=1e-12)

    def test_term_structure_along_axis(self):
        # separation along z: (I - dh dh) = diag(1,1,0),
        # (I - 3 dh dh) = diag(1,1,-2)
        d = 2.1 * LAM
        fac = LAM / (2.0 * np.pi * d)
        g1 = green_dyadic([0, 0, d], [0, 0, 0], K0, n_terms=1)
        g2 = green_dyadic([0, 0, d], [0, 0, 0], K0, n_terms=2)
        g3 = green_dyadic([0, 0, d], [0, 0, 0], K0, n_terms=3)
        pref = g1[0, 0]
        np.testing.assert_allclose(
            g2 - g1, 1j * fac * pref * np.diag([1.0, 1.0, -2.0]), rtol=1e-12
        )
        np.testing.assert_allclose(
            g3 - g2, -fac * fac * pref * np.diag([1.0, 1.0, -2.0]), rtol=1e-12
        )

    def test_leading_term_dominates_at_hundred_wavelengths(self):
        d = 100.0 * LAM
        g1 = green_dyadic([0, 0, 0], [0, 0, d], K0, n_terms=1)
        g3 = green_dyadic([0, 0, 0], [0, 0, d], K0, n_terms=3)
        rel_xx = abs(g3[0, 0] - g1[0, 0]) / abs(g3[0, 0])
        assert rel_xx < 0.01
        # whole-matrix deviation stays below 1% too (zz is zero to zero+tail)
        rel = np.linalg.norm(g3 - g1) / np.linalg.norm(g3)
        assert rel < 0.01

    def test_longitudinal_entry_suppressed_far_out(self):
        # along the axis the zz entry is carried only by the induction and
        # electrostatic tails, so it decays one power of distance faster
        d = 100.0 * LAM
        g = green_dyadic([0, 0, d], [0, 0, 0], K0)
        fac = LAM / (2.0 * np.pi * d)
        expect = 2.0 * abs(1j * fac - fac * fac) / abs(1.0 + 1j * fac - fac * fac)
        ratio = abs(g[2, 2]) / abs(g[0, 0])
        assert ratio == pytest.approx(expect, rel=1e-9)
        assert ratio < 4e-3
        # another doubling of the distance halves it again
        g2 = green_dyadic([0, 0, 2 * d], [0, 0, 0], K0)
        ratio2 = abs(g2[2, 2]) / abs(g2[0, 0])
        assert ratio2 <= 2e-3
        assert ratio2 == pytest.approx(0.5 * ratio, rel=5e-3)


class TestAssembleChannel:
    def test_blocks_match_kernel_times_area(self):
        spec = PlateSpec(
            width=PIX, height=PIX, pixel_rows=1, pixel_cols=1, ports=1
        )
        tx = build_plate_mesh(spec, np.ones(1, dtype=int))
        rx = tx.translated((0.003, -0.001, 0.02))
        op = assemble_channel(tx, rx, K0)
        assert op.matrix.shape == (3 * rx.n_faces, 3 * tx.n_faces)
        omega = K0 * c0
        for p in range(rx.n_faces):
            for q in range(tx.n_faces):
                block = op.matrix[3 * p : 3 * p + 3, 3 * q : 3 * q + 3]
                expect = (
                    -1j
                    * omega
                    * MU0
                    * green_dyadic(rx.face_centroids[p], tx.face_centroids[q], K0)
                    * tx.face_areas[q]
                )
                np.testing.assert_allclose(block, expect, rtol=1e-12)

    def test_every_block_is_symmetric(self):
        tx = desk_plate()
        rx = tx.translated((0.0, 0.0, 0.05))
        op = assemble_channel(tx, rx, K0)
        n_r, n_t = rx.n_faces, tx.n_faces
        blocks = op.matrix.reshape(n_r, 3, n_t, 3).transpose(0, 2, 1, 3)
        np.testing.assert_allclose(
            blocks, blocks.transpose(0, 1, 3, 2), atol=0.0
        )

    def test_direction_swap_transposes_matrix(self):
        spec = PlateSpec(
            width=2 * PIX, height=PIX, pixel_rows=1, pixel_cols=2, ports=1
        )
        tx = build_plate_mesh(spec, np.ones(2, dtype=int))
        rx = tx.translated((0.0, 0.0, 0.03))
        forward = assemble_channel(tx, rx, K0)
        backward = assemble_channel(rx, tx, K0)
        np.testing.assert_allclose(backward.matrix, forward.matrix.T, rtol=1e-12)

    @pytest.mark.parametrize("name", ["ga_link", "dof_large"])
    def test_the_benchmark_parents_are_reciprocal(self, name):
        # green_dyadic(r, r') is green_dyadic(r', r) transposed, and the
        # weights are transmit face areas, uniform on a parent plate
        tx, rx, k0 = parent_link(LINKS[name])
        for mesh in (tx, rx):
            assert np.ptp(mesh.face_areas) <= 1e-12 * mesh.face_areas.max()
        forward = assemble_channel(tx, rx, k0).matrix
        backward = assemble_channel(rx, tx, k0).matrix
        assert (np.abs(backward - forward.T).max()
                <= 1e-13 * np.abs(forward).max())

    def test_coincident_apertures_raise(self):
        spec = PlateSpec(
            width=PIX, height=PIX, pixel_rows=1, pixel_cols=1, ports=1
        )
        tx = build_plate_mesh(spec, np.ones(1, dtype=int))
        with pytest.raises(SingularityError):
            assemble_channel(tx, tx, K0)

    def test_nonpositive_wavenumber_rejected(self):
        spec = PlateSpec(
            width=PIX, height=PIX, pixel_rows=1, pixel_cols=1, ports=1
        )
        tx = build_plate_mesh(spec, np.ones(1, dtype=int))
        rx = tx.translated((0.0, 0.0, 0.01))
        with pytest.raises(ValueError):
            assemble_channel(tx, rx, 0.0)

    @pytest.mark.parametrize("name", LINKS)
    def test_equals_the_one_shot_channel(self, name):
        tx, rx, k0 = parent_link(LINKS[name])
        if name == "odd_receive":
            assert rx.n_faces % cmadof.channel.RX_BLOCK != 0
        op = assemble_channel(tx, rx, k0)
        assert np.array_equal(op.matrix, dense_channel(tx, rx, k0))
        assert op.matrix.flags.c_contiguous

    def test_peak_memory_is_the_channel_and_one_block(self):
        tx, rx, k0 = parent_link(LINKS["dof_large"])
        tracemalloc.start()
        try:
            op = assemble_channel(tx, rx, k0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the kernel temporaries of one block of 16 receive faces: six
        # complex (16, N_T, 3, 3) arrays; building G in one shot took
        # about 35 of them on these 256-face plates
        block = 6 * 16 * tx.n_faces * 9 * 16
        assert peak <= op.matrix.nbytes + block

    def test_split_spectrum_makes_no_face_by_face_temporary(self, shared):
        op = shared["dof_large"].channel
        assert op._half_turn
        op._singulars = None  # computed afresh, inside the trace
        tracemalloc.start()
        try:
            op.singulars
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the two (3F/2)-square block buffers are half of G; LAPACK's own
        # copy is allocated inside numpy's linalg module, untraced
        assert peak <= 0.6 * op.matrix.nbytes

    def test_singulars_descending_and_cached(self):
        spec = PlateSpec(
            width=PIX, height=PIX, pixel_rows=1, pixel_cols=1, ports=1
        )
        tx = build_plate_mesh(spec, np.ones(1, dtype=int))
        rx = tx.translated((0.0, 0.0, 0.02))
        op = assemble_channel(tx, rx, K0)
        s = op.singulars
        assert np.all(np.diff(s) <= 0.0)
        assert np.all(s >= 0.0)
        np.testing.assert_allclose(
            s, np.linalg.svd(op.matrix, compute_uv=False), rtol=1e-12
        )
        assert op.singulars is s

    def test_far_field_single_polarization_collapses(self):
        # the co-polarized transverse sub-channel between two tiny plates
        # degenerates to one dominant singular value far away
        spec = PlateSpec(
            width=PIX, height=PIX, pixel_rows=1, pixel_cols=1, ports=1
        )
        tx = build_plate_mesh(spec, np.ones(1, dtype=int))
        rx = tx.translated((0.0, 0.0, 1000.0 * PIX))
        op = assemble_channel(tx, rx, K0)
        xx = op.matrix[0::3, 0::3]
        s = np.linalg.svd(xx, compute_uv=False)
        assert s[1] / s[0] < 1e-2


class TestGather:
    """`ChannelOperator.block` takes the channel between face subsets."""

    @pytest.fixture(scope="class")
    def op(self):
        tx, rx, k0 = parent_link(LINKS["odd_receive"])
        return assemble_channel(tx, rx, k0)

    @pytest.mark.parametrize("permute", ["rx", "tx", "both"])
    def test_full_length_permutation_is_a_fresh_copy(self, op, permute):
        rng = np.random.default_rng(3)
        rx_faces = np.arange(len(op.rx_centroids))
        tx_faces = np.arange(len(op.tx_centroids))
        if permute in ("rx", "both"):
            rx_faces = rng.permutation(rx_faces)
        if permute in ("tx", "both"):
            tx_faces = rng.permutation(tx_faces)
        g = op.block(face_rows(rx_faces), face_rows(tx_faces))
        assert not np.shares_memory(g, op.matrix)
        assert np.array_equal(
            g, op.matrix[np.ix_(face_rows(rx_faces), face_rows(tx_faces))])

    def test_a_subset_is_a_fresh_sub_block(self, op):
        rx_faces = np.arange(len(op.rx_centroids))
        tx_faces = np.arange(1, len(op.tx_centroids))
        g = op.block(face_rows(rx_faces), face_rows(tx_faces))
        assert not np.shares_memory(g, op.matrix)
        assert g.shape == (op.matrix.shape[0], op.matrix.shape[1] - 3)
        assert np.array_equal(g, op.matrix[:, 3:])


class TestHalfTurn:
    """The shared-parent link is symmetric under a half turn about the
    plates' common normal axis, and its spectrum is computed by blocks."""

    @pytest.mark.parametrize("name", ["ga_link", "dof_large", "non_square"])
    def test_the_half_turn_maps_the_parent_onto_itself(self, shared, name):
        problem = shared[name]
        spec = problem.tx_spec
        mesh = build_plate_mesh(spec, np.ones(spec.n_bits))
        centre = np.array([spec.width, spec.height]) / 2.0
        xy = mesh.face_centroids[:, :2]
        size = max(spec.width, spec.height)
        assert np.max(np.abs(xy[::-1] - (2.0 * centre - xy))) <= 1e-12 * size
        areas = mesh.face_areas
        assert np.max(np.abs(areas - areas[0])) <= 1e-12 * areas[0]
        g = problem.channel.matrix
        assert np.max(np.abs(g - half_turned(g))) <= 1e-12 * np.max(np.abs(g))

    @pytest.mark.parametrize("name", ["ga_link", "dof_large", "cli_default",
                                      "non_square"])
    def test_split_spectrum_is_the_full_svd(self, shared, name, monkeypatch):
        op = shared[name].channel
        op._singulars = None  # computed afresh, with the SVDs recorded
        shapes = []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        split = op.singulars
        monkeypatch.undo()
        n = op.matrix.shape[0]
        assert shapes == [(n // 2, n // 2)] * 2
        full = np.linalg.svd(op.matrix, compute_uv=False)
        assert split.shape == full.shape
        assert np.all(np.diff(split) <= 0.0)
        kept = full >= RANK_TOL * full[0]
        assert np.max(np.abs(split[kept] - full[kept])) <= 1e-12 * full[0]
        assert strict_rank(split) == strict_rank(full)
        assert effective_rank(split, 0.5) == effective_rank(full, 0.5)
        # the benchmark's gate keeps the 16 leading values
        np.testing.assert_allclose(split[:16], full[:16], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["two_specs", "direct"])
    def test_any_other_operator_takes_the_full_svd(self, shared, case):
        if case == "two_specs":
            op = _make_problem(LINKS["odd_receive"]).channel
        else:
            op = assemble_channel(*parent_link(LINKS["ga_link"]))
        assert not op._half_turn
        assert np.array_equal(op.singulars,
                              np.linalg.svd(op.matrix, compute_uv=False))


def leading_change(cfg):
    """Largest relative change of sigma_1..4 of the all-metal parents'
    channel when the midpoint rule is refined to `refined_channel`."""
    tx, rx, k0 = parent_link(cfg)
    mid = np.linalg.svd(assemble_channel(tx, rx, k0).matrix,
                        compute_uv=False)[:4]
    ref = np.linalg.svd(refined_channel(tx, rx, k0), compute_uv=False)[:4]
    return np.max(np.abs(ref - mid) / mid)


class TestRefinement:
    """The midpoint rule's discretization error in G, against the 7-point
    rule on both faces. It measures the model and gates no output: on the
    `ga_link` plates it falls as they move apart (0.178, 0.120 and 0.048
    at 0.5, 1 and 2 wavelengths), and on the CLI-default link, 27
    wavelengths apart, it is 2.8e-4 (max|dG| 1.7e-3 of max|G|). A
    transmit kernel taken at each face's first vertex instead of its
    centroid fails here (2.4e-3 on the CLI-default link)."""

    def test_the_error_falls_with_the_separation(self):
        changes = [leading_change(dataclasses.replace(
            LINKS["ga_link"], separation=d * LAM)) for d in (0.5, 1.0, 2.0)]
        assert changes[0] > changes[1] > changes[2], changes
        assert leading_change(LINKS["cli_default"]) < 1e-3


class TestEffectiveRank:
    def test_hand_spectrum_two_of_four(self):
        assert effective_rank(np.array([1.0, 0.8, 0.6, 0.1]), 0.5) == 2

    def test_flat_spectrum_counts_all(self):
        assert effective_rank(np.array([2.0, 2.0, 2.0]), 0.5) == 3

    def test_threshold_is_inclusive(self):
        assert effective_rank(np.array([2.0, 1.0]), 0.25) == 2
        assert effective_rank(np.array([2.0, 0.999]), 0.25) == 1

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, 1.5])
    def test_gamma_domain(self, gamma):
        with pytest.raises(ValueError):
            effective_rank(np.array([1.0]), gamma)

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ValueError):
            effective_rank(np.array([]), 0.5)

    def test_all_zero_spectrum_is_rank_zero(self):
        assert effective_rank(np.zeros(4), 0.5) == 0


class TestStrictRank:
    def test_default_cutoff(self):
        assert strict_rank(np.array([1.0, 1e-6, 1e-13])) == 2

    def test_custom_cutoff(self):
        # the cutoff is RANK_TOL relative to sigma_1, inclusive, at any scale
        for top in (1.0, 3e5):
            s = top * np.array([1.0, 1e-6, 2.0 * RANK_TOL, 0.5 * RANK_TOL])
            assert strict_rank(s) == 3
        assert strict_rank(np.array([1.0, RANK_TOL])) == 2

    def test_zero_and_empty(self):
        assert strict_rank(np.zeros(3)) == 0
        assert strict_rank(np.array([])) == 0


class TestDofG:
    def make_op(self, matrix):
        return ChannelOperator(
            matrix=matrix,
            k0=K0,
            tx_centroids=np.zeros((1, 3)),
            rx_centroids=np.zeros((1, 3)),
            tx_areas=np.ones(1),
        )

    def test_pairs_effective_and_strict(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        op = self.make_op(m)
        eff, strict = dof_g(op, gamma=0.5)
        assert eff == effective_rank(op.singulars, 0.5)
        assert strict == strict_rank(op.singulars)
        assert eff <= strict

    def test_scalar_invariance_exact(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        base = dof_g(self.make_op(m))
        for _ in range(10):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            scaled = dof_g(self.make_op(c * m))
            assert scaled == base


@pytest.fixture(scope="module")
def plates():
    return desk_plate()


class TestDeskPlateChannel:
    def test_near_field_supports_two_streams(self, plates):
        tx = plates
        for d in (0.05, 0.1, 0.2, 0.3, 0.4):
            rx = tx.translated((0.0, 0.0, d))
            eff, _ = dof_g(assemble_channel(tx, rx, K0), 0.5)
            assert eff >= 2, f"effective dof {eff} at {d} m"

    def test_very_close_spacing_gives_four(self, plates):
        tx = plates
        rx = tx.translated((0.0, 0.0, 0.02))
        eff, _ = dof_g(assemble_channel(tx, rx, K0), 0.5)
        assert eff == 4

    def test_strict_rank_decays_with_distance(self, plates):
        tx = plates
        ranks = []
        for d in (0.05, 0.1, 0.3, 1.0):
            rx = tx.translated((0.0, 0.0, d))
            _, strict = dof_g(assemble_channel(tx, rx, K0))
            ranks.append(strict)
        assert all(a > b for a, b in zip(ranks, ranks[1:])), ranks
