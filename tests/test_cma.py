"""Tests for characteristic-mode extraction, excitation, and patterns.

The synthetic-pencil tests build R and X with a shared eigenbasis so the
generalized eigenvalues are known in closed form; the plate tests check
the solver against an independent dense pencil solve on an assembled
impedance matrix.
"""

import dataclasses

import numpy as np
import pytest
from scipy.constants import c as c0

from cmadof.cma import (
    ModeBasis,
    REL_RANK_CUT,
    SIGNIFICANCE_FLOOR,
    excitation_matrix,
    mode_patterns,
    pattern_gram_dev,
    solve_modes,
)
from cmadof.cli import _plate_spec
from cmadof.config import RunConfig
from cmadof.efie import ImpedanceOperator, assemble_impedance, delta_gap_excitation
from cmadof.errors import DegenerateStructureError
from cmadof.ga import PlateModel
from cmadof.mesh import (
    PlateSpec,
    build_plate_mesh,
    extract_rwg,
    face_sampling_operator,
    locate_port_edges,
)
from oracles import dense_reduced_pencil_eigs, mom_port_currents, radiated_power

FREQ = 27e9
PIX = 0.24 * c0 / FREQ


def synthetic_operator(lam_targets, r_diag, seed=3):
    """Operator whose pencil (X, R) has eigenvalues lam_targets.

    R = Q diag(r) Q^T and X = Q diag(lam*r) Q^T share the eigenbasis Q,
    so X j = lam R j is solved exactly by the columns of Q.
    """
    lam_targets = np.asarray(lam_targets, dtype=float)
    r_diag = np.asarray(r_diag, dtype=float)
    n = len(lam_targets)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    r_mat = q @ np.diag(r_diag) @ q.T
    x_mat = q @ np.diag(lam_targets * r_diag) @ q.T
    op = ImpedanceOperator(z=r_mat + 1j * x_mat, frequency=FREQ)
    return op, q


@pytest.fixture(scope="module")
def plate_op():
    """Impedance operator of a fully metallized 3x3 pixel plate."""
    spec = PlateSpec(
        width=3 * PIX,
        height=3 * PIX,
        pixel_rows=3,
        pixel_cols=3,
        ports=1,
    )
    mesh = build_plate_mesh(spec, np.ones(spec.n_bits, dtype=int))
    basis = extract_rwg(mesh)
    op = assemble_impedance(basis, FREQ)
    return spec, mesh, basis, op


class TestSolveModes:
    def test_synthetic_eigenvalues_recovered(self):
        targets = np.array([0.0, -0.5, 1.0, -2.0, 3.0, -5.0])
        op, _ = synthetic_operator(targets, [1.0, 2.0, 0.5, 4.0, 1.5, 3.0])
        modes = solve_modes(op, n_keep=6)
        assert modes.n_kept == 6
        assert modes.subspace_dim == 6
        np.testing.assert_allclose(modes.eigenvalues, targets, atol=1e-10)

    def test_synthetic_eigenvectors_match_basis(self):
        targets = np.array([0.2, -0.7, 1.4, 2.6])
        op, q = synthetic_operator(targets, [1.0, 3.0, 0.7, 2.0])
        modes = solve_modes(op, n_keep=4)
        # unit-norm eigenvectors agree with the constructed basis up to sign
        overlaps = np.abs(q.T @ modes.mode_coeffs)
        for i in range(4):
            assert overlaps[i, i] == pytest.approx(1.0, abs=1e-9)

    def test_ordering_is_ascending_abs_lambda(self):
        targets = np.array([4.0, -0.1, 2.0, -3.0, 0.5])
        op, _ = synthetic_operator(targets, np.full(5, 2.0))
        modes = solve_modes(op, n_keep=5)
        assert np.all(np.diff(np.abs(modes.eigenvalues)) >= -1e-12)
        sig = np.abs(modes.significances)
        assert np.all(np.diff(sig) <= 1e-12)

    def test_tie_break_is_signed_ascending(self):
        # |lambda| ties resolve with the negative eigenvalue first
        targets = np.array([1.0, -1.0, 0.2])
        op, _ = synthetic_operator(targets, [1.0, 1.0, 1.0])
        modes = solve_modes(op, n_keep=3)
        np.testing.assert_allclose(
            modes.eigenvalues, [0.2, -1.0, 1.0], atol=1e-10
        )

    def test_n_keep_truncates(self):
        targets = np.array([0.0, 1.0, -2.0, 3.0, -4.0, 5.0])
        op, _ = synthetic_operator(targets, np.full(6, 1.0))
        modes = solve_modes(op, n_keep=3)
        assert modes.n_kept == 3
        np.testing.assert_allclose(modes.eigenvalues, [0.0, 1.0, -2.0], atol=1e-10)

    def test_n_keep_beyond_available_keeps_all(self):
        op, _ = synthetic_operator([0.3, 1.1], [1.0, 1.0])
        modes = solve_modes(op, n_keep=50)
        assert modes.n_kept == 2

    def test_truncation_stability(self):
        targets = np.linspace(-3.0, 3.0, 9)
        op, _ = synthetic_operator(targets, np.linspace(0.5, 2.0, 9))
        short = solve_modes(op, n_keep=4)
        long = solve_modes(op, n_keep=9)
        np.testing.assert_allclose(
            short.eigenvalues, long.eigenvalues[:4], rtol=1e-10
        )

    def test_rank_deficient_r_limits_subspace(self):
        # two radiating directions, two below the relative cut
        r_diag = np.array([2.0, 1.0, 2.0 * REL_RANK_CUT * 1e-3, 1e-18])
        targets = np.array([0.5, -1.5, 7.0, 9.0])
        op, _ = synthetic_operator(targets, r_diag)
        modes = solve_modes(op, n_keep=10)
        assert modes.subspace_dim == 2
        assert modes.n_kept == 2
        np.testing.assert_allclose(
            np.sort(np.abs(modes.eigenvalues)), [0.5, 1.5], atol=1e-9
        )

    def test_zero_r_raises_degenerate(self):
        n = 4
        x_mat = np.diag([1.0, 2.0, 3.0, 4.0])
        op = ImpedanceOperator(z=np.zeros((n, n)) + 1j * x_mat, frequency=FREQ)
        with pytest.raises(DegenerateStructureError):
            solve_modes(op, n_keep=2)

    def test_n_keep_below_one_rejected(self):
        op, _ = synthetic_operator([0.1], [1.0])
        with pytest.raises(ValueError):
            solve_modes(op, n_keep=0)

    def test_mode_coeffs_unit_norm(self):
        op, _ = synthetic_operator([0.0, 2.0, -1.0], [1.0, 0.5, 2.0])
        modes = solve_modes(op, n_keep=3)
        np.testing.assert_allclose(
            np.linalg.norm(modes.mode_coeffs, axis=0), 1.0, atol=1e-12
        )

    def test_sign_convention_largest_entry_positive(self):
        op, _ = synthetic_operator([0.4, -0.9, 1.7], [1.0, 1.0, 1.0])
        modes = solve_modes(op, n_keep=3)
        lead = np.abs(modes.mode_coeffs).argmax(axis=0)
        for i in range(3):
            assert modes.mode_coeffs[lead[i], i] > 0.0

    def test_significance_formula(self):
        targets = np.array([0.0, 1.0, -1.0, 3.0])
        op, _ = synthetic_operator(targets, np.full(4, 1.0))
        modes = solve_modes(op, n_keep=4)
        lam = modes.eigenvalues
        np.testing.assert_allclose(
            np.abs(modes.significances), 1.0 / np.sqrt(1.0 + lam**2), atol=1e-12
        )
        np.testing.assert_allclose(
            modes.significances, 1.0 / (1.0 + 1j * lam), atol=1e-12
        )
        # lambda = 0 is resonance, |m| = 1; |lambda| = 1 is the 3 dB edge
        assert np.abs(modes.significances[0]) == pytest.approx(1.0, abs=1e-12)
        edge = np.abs(modes.significances[np.abs(np.abs(lam) - 1.0) < 1e-9])
        np.testing.assert_allclose(edge, 1.0 / np.sqrt(2.0), atol=1e-12)


class TestSolveModesOnPlate:
    def test_matches_dense_pencil_oracle(self, plate_op):
        _, _, _, op = plate_op
        modes = solve_modes(op, n_keep=200)
        oracle = dense_reduced_pencil_eigs(0.5 * (op.x + op.x.T), op.r_psd)
        got = np.sort(modes.eigenvalues)
        assert got.shape == oracle.shape
        np.testing.assert_allclose(got, oracle, rtol=1e-6)

    def test_eigen_residuals_small(self, plate_op):
        _, _, _, op = plate_op
        modes = solve_modes(op, n_keep=20)
        assert np.all(modes.eigen_residuals <= 1e-8)

    def test_r_orthogonality(self, plate_op):
        _, _, _, op = plate_op
        modes = solve_modes(op, n_keep=20)
        cross = modes.mode_coeffs.T @ op.r_psd @ modes.mode_coeffs
        diag_scale = np.abs(np.diag(cross)).max()
        off = cross - np.diag(np.diag(cross))
        assert np.abs(off).max() <= 1e-8 * max(diag_scale, 1.0)
        assert modes.r_cross_max == pytest.approx(np.abs(off).max(), rel=1e-9)

    def test_x_orthogonality(self, plate_op):
        _, _, _, op = plate_op
        modes = solve_modes(op, n_keep=20)
        xg = modes.mode_coeffs.T @ (0.5 * (op.x + op.x.T)) @ modes.mode_coeffs
        diag_scale = np.abs(np.diag(xg)).max()
        off = xg - np.diag(np.diag(xg))
        assert np.abs(off).max() <= 1e-8 * max(diag_scale, 1.0)

    def test_truncation_stability_on_plate(self, plate_op):
        _, _, _, op = plate_op
        short = solve_modes(op, n_keep=8)
        long = solve_modes(op, n_keep=13)
        np.testing.assert_allclose(
            short.eigenvalues, long.eigenvalues[:8], rtol=1e-10
        )


class TestModalSolution:
    def test_all_radiating_modes_give_the_mom_port_power(self):
        # the all-metal transmit plate of the benchmark's small link;
        # Harrington & Mautz (IEEE TAP 19(5), 1971) expand the current of
        # port column b as sum_i m_i (j_i^T b) / (j_i^T R j_i) j_i, with
        # m_i = 1 / (1 + j lambda_i)
        pix = 0.35 * c0 / FREQ
        spec = PlateSpec(width=8 * pix, height=4 * pix, pixel_rows=4,
                         pixel_cols=8, ports=4)
        mesh = build_plate_mesh(spec, np.ones(spec.n_bits, dtype=int))
        basis = extract_rwg(mesh)
        op = assemble_impedance(basis, FREQ)
        b = delta_gap_excitation(basis, locate_port_edges(spec, mesh))
        modes = solve_modes(op, n_keep=basis.n_edges)
        assert modes.n_kept == modes.subspace_dim
        j = modes.mode_coeffs
        weight = (modes.significances
                  / np.einsum("ei,ef,fi->i", j, op.r_psd, j))
        modal = j @ (weight[:, None] * (j.T @ b))
        want = radiated_power(op.z, mom_port_currents(op.z, b))
        np.testing.assert_allclose(radiated_power(op.z, modal), want, rtol=0.02)


@pytest.fixture(scope="module")
def ga_link_parent():
    """All-metal transmit parent of the benchmark's small link."""
    return PlateModel.build(_plate_spec(RunConfig(pixel_size=0.35 * c0 / FREQ),
                                        "tx"), FREQ)


def modal_current_error(model, bits):
    """(modes, error, tolerance) of the all-mode expansion of one
    configuration's sampled port currents against the MoM solve.

    Harrington & Mautz: with every mode scaled to j^T R_psd j = 1, the
    current of port column b is sum_i (j_i^T b) / (1 + j lambda_i) j_i,
    that is J diag(m) J^T B = Z^{-1} B, once the kept modes span the edge
    space. The error is the relative Frobenius norm of the difference of
    S J diag(m) J^T B and S Z^{-1} B. The whitening divides by sqrt(w), so
    roundoff grows with the condition number of R_psd on the kept
    subspace; the tolerance is the larger of 1e-12 and eps times that
    number.
    """
    op, sampler, ports, *_ = model.gather(bits)
    modes = solve_modes(op, n_keep=len(op.z))
    j = modes.mode_coeffs
    j = j / np.sqrt(np.einsum("ei,ef,fi->i", j, op.r_psd, j))
    modal = sampler @ (j @ (modes.significances[:, None] * (j.T @ ports)))
    mom = sampler @ np.linalg.solve(op.z, ports)
    w = op.psd[1]
    tol = max(1e-12, np.finfo(float).eps * w[-1] / w[-modes.subspace_dim])
    return modes, np.linalg.norm(modal - mom) / np.linalg.norm(mom), tol


class TestModalCompleteness:
    @pytest.mark.parametrize("draw", range(3))
    def test_all_modes_give_the_mom_currents(self, ga_link_parent, draw):
        n_bits = ga_link_parent.spec.n_bits
        bits = np.random.default_rng(0).integers(0, 2, (3, n_bits))[draw]
        modes, error, tol = modal_current_error(ga_link_parent, bits)
        assert modes.subspace_dim == len(modes.mode_coeffs)  # every edge
        assert error <= tol

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the pencil is "
                       "cut at REL_RANK_CUT")
    def test_all_modes_give_the_mom_currents_of_the_all_metal_plate(
            self, ga_link_parent):
        _, error, tol = modal_current_error(
            ga_link_parent, np.ones(ga_link_parent.spec.n_bits))
        assert error <= tol


class TestModeBasisMasking:
    def make_basis(self, lam):
        lam = np.asarray(lam, dtype=float)
        n = len(lam)
        coeffs = np.eye(5)[:, :n]
        return ModeBasis(
            eigenvalues=lam,
            mode_coeffs=coeffs,
            subspace_dim=5,
        )

    def test_drop_modes_masks_every_array(self):
        basis = self.make_basis([0.0, 1.0, 2.0, 3.0])
        keep = np.array([True, False, True, False])
        basis.drop_modes(keep)
        assert basis.n_kept == 2
        np.testing.assert_array_equal(basis.eigenvalues, [0.0, 2.0])
        assert basis.mode_coeffs.shape == (5, 2)
        # a basis built by hand has no diagnostics
        assert basis.eigen_residuals is None and basis.r_cross_max is None

    @pytest.mark.parametrize("read_first", [False, True],
                             ids=["drop_then_read", "read_then_drop"])
    def test_drop_modes_masks_the_residuals(self, read_first):
        op, _ = synthetic_operator([0.0, 1.0, 2.0, 3.0], np.ones(4))
        full = solve_modes(op, n_keep=4).eigen_residuals
        basis = solve_modes(op, n_keep=4)
        if read_first:
            basis.eigen_residuals
        keep = np.array([True, False, True, True])
        basis.drop_modes(keep)
        basis.drop_modes(np.array([False, True, True]))
        assert basis.eigen_residuals.tobytes() == full[[2, 3]].tobytes()

    def test_significant_filters_by_floor(self):
        weak = 2.0 / SIGNIFICANCE_FLOOR
        basis = self.make_basis([0.0, 1.0, 3.0, weak])
        # |m| = 1, 0.707, 0.316, about SIGNIFICANCE_FLOOR / 2
        kept = dataclasses.replace(basis)
        kept.drop_insignificant()
        assert kept.n_kept == 3
        np.testing.assert_array_equal(kept.eigenvalues, [0.0, 1.0, 3.0])
        # original untouched, result is an independent copy
        assert basis.n_kept == 4
        kept.eigenvalues[0] = 42.0
        assert basis.eigenvalues[0] == 0.0
        # an in-place edit of the copy's coefficients stays on the copy
        kept.mode_coeffs *= -1
        np.testing.assert_array_equal(basis.mode_coeffs, np.eye(5)[:, :4])

    def test_significant_default_floor_keeps_weak_modes(self):
        # |m| = 1/sqrt(1 + lambda^2) reaches SIGNIFICANCE_FLOOR at `edge`;
        # a mode 10% inside it is kept, one 10% outside is dropped
        edge = np.sqrt(1.0 / SIGNIFICANCE_FLOOR ** 2 - 1.0)
        basis = self.make_basis([0.0, 0.9 * edge, 1.1 * edge])
        kept = dataclasses.replace(basis)
        kept.drop_insignificant()
        np.testing.assert_array_equal(kept.eigenvalues, [0.0, 0.9 * edge])


class TestExcitationMatrix:
    def test_values_are_mode_port_overlaps(self):
        op, _ = synthetic_operator([0.1, -0.4, 1.2], [1.0, 1.0, 1.0])
        modes = solve_modes(op, n_keep=3)
        b = np.zeros((3, 2), dtype=complex)
        b[0, 0] = 2.5
        b[2, 1] = -1.0 + 0.5j
        v = excitation_matrix(modes, b)
        np.testing.assert_allclose(v, modes.mode_coeffs.T @ b, atol=1e-14)
        assert v.shape == (3, 2)

    def test_linear_in_excitation(self):
        op, _ = synthetic_operator([0.3, 0.9], [1.0, 2.0])
        modes = solve_modes(op, n_keep=2)
        b = np.array([[1.0], [0.25]], dtype=complex)
        v1 = excitation_matrix(modes, b)
        v2 = excitation_matrix(modes, 3.0 * b)
        np.testing.assert_allclose(v2, 3.0 * v1, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        op, _ = synthetic_operator([0.1, 0.2], [1.0, 1.0])
        modes = solve_modes(op, n_keep=2)
        with pytest.raises(ValueError):
            excitation_matrix(modes, np.ones((5, 1), dtype=complex))

    def test_zero_gap_current_gives_zero_entry(self, plate_op):
        spec, mesh, basis, op = plate_op
        modes = solve_modes(op, n_keep=6)
        ports = locate_port_edges(spec, mesh)
        exc = delta_gap_excitation(basis, ports)
        v = excitation_matrix(modes, exc)
        row = np.flatnonzero(np.abs(exc[:, 0]))[0]
        # the overlap is exactly gap length times the mode current there
        np.testing.assert_allclose(
            v[:, 0],
            modes.mode_coeffs[row, :] * exc[row, 0],
            atol=1e-14,
        )


class TestModePatterns:
    def make_modes(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        n = coeffs.shape[1]
        return ModeBasis(
            eigenvalues=np.linspace(0.0, 0.1, n),
            mode_coeffs=coeffs,
            subspace_dim=coeffs.shape[0],
        )

    def test_columns_unit_norm_and_stored(self):
        rng = np.random.default_rng(11)
        s_mat = rng.standard_normal((9, 4))
        modes = self.make_modes(np.eye(4))
        pat = mode_patterns(modes, s_mat)
        assert pat.shape == (9, 4)
        np.testing.assert_allclose(np.linalg.norm(pat, axis=0), 1.0, atol=1e-12)
        assert isinstance(pattern_gram_dev(pat), float)

    def test_orthogonal_sampler_gives_tiny_gram_dev(self):
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 8)))
        modes = self.make_modes(np.eye(8)[:, :3])
        pat = mode_patterns(modes, q)
        assert pattern_gram_dev(pat) <= 1e-12
        gram = pat.T @ pat
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_zero_pattern_mode_dropped_with_warning(self):
        s_mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        modes = self.make_modes(np.eye(3))
        with pytest.warns(UserWarning, match="zero sampled pattern"):
            pat = mode_patterns(modes, s_mat.T @ s_mat)
        assert modes.n_kept == 2
        assert pat.shape[1] == 2
        np.testing.assert_array_equal(modes.eigenvalues, [0.0, 0.05])

    def test_sampler_mismatch_rejected(self):
        modes = self.make_modes(np.eye(3))
        with pytest.raises(ValueError):
            mode_patterns(modes, np.ones((6, 4)))

    def test_single_edge_mesh_pattern_is_sampled_shape(self):
        spec = PlateSpec(
            width=PIX, height=PIX, pixel_rows=1, pixel_cols=1, ports=1
        )
        mesh = build_plate_mesh(spec, np.ones(1, dtype=int))
        basis = extract_rwg(mesh)
        op = assemble_impedance(basis, FREQ)
        modes = solve_modes(op, n_keep=5)
        assert modes.n_kept == 1
        # the lone coefficient is the largest, so solve_modes makes it +1
        np.testing.assert_array_equal(modes.mode_coeffs, [[1.0]])
        sampler = face_sampling_operator(basis)
        pat = mode_patterns(modes, sampler)
        ref = sampler[:, 0] / np.linalg.norm(sampler[:, 0])
        np.testing.assert_allclose(pat[:, 0], ref, atol=1e-12)

    def test_plate_patterns_quasi_orthogonal(self, plate_op):
        _, _, basis, op = plate_op
        modes = solve_modes(op, n_keep=6)
        pat = mode_patterns(modes, face_sampling_operator(basis))
        gram = np.abs(pat.T @ pat)
        off = gram - np.diag(np.diag(gram))
        assert off.max() < 0.2


class TestOneSignConvention:
    """solve_modes signs each mode once; V and the patterns are plain
    products of its coefficients and change none of them."""

    @pytest.fixture
    def plate_maps(self, plate_op):
        spec, mesh, basis, op = plate_op
        sampler = face_sampling_operator(basis)
        ports = delta_gap_excitation(basis, locate_port_edges(spec, mesh))
        return solve_modes(op, n_keep=20), sampler, ports

    def test_largest_coefficient_positive_on_plate(self, plate_maps):
        modes, _, _ = plate_maps
        coeffs = modes.mode_coeffs
        lead = np.abs(coeffs).argmax(axis=0)
        assert modes.n_kept > 1
        assert np.all(coeffs[lead, np.arange(modes.n_kept)] > 0.0)

    def test_maps_are_plain_products(self, plate_maps):
        modes, sampler, ports = plate_maps
        coeffs = modes.mode_coeffs
        raw = sampler @ coeffs
        patterns = raw / np.linalg.norm(raw, axis=0)[None, :]
        assert mode_patterns(modes, sampler).tobytes() == patterns.tobytes()
        v = coeffs.T @ ports
        assert excitation_matrix(modes, ports).tobytes() == v.tobytes()

    def test_maps_leave_coefficients_unchanged(self, plate_maps):
        modes, sampler, ports = plate_maps
        held = modes.mode_coeffs
        before = held.tobytes()
        mode_patterns(modes, sampler)
        excitation_matrix(modes, ports)
        assert modes.mode_coeffs is held
        assert held.tobytes() == before
