"""Tests for the equivalent-channel maps, DoF bounds, and array reduction.

Pseudo-inverse results are checked against independent normal-equations
solves; the bound chain is exercised on randomized synthetic mode/port
instances with known construction ranks.
"""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from cmadof import dofcore
from cmadof.dofcore import (
    ConventionalModel,
    DofReport,
    ElementAnalysis,
    EquivalentChannel,
    achievable_dof,
    block_leakage,
    build_report,
    conventional_reduce,
    dof_bounds,
    equivalent_channel,
    gamma_decomposition,
    matrix_rank,
    point_source_channel,
    receiver_map,
    transmitter_map,
)
from cmadof.errors import RankDeficiencyError, ReductionError


def rand_c(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dropped_gamma(g, e, j, kept_r, kept_t):
    """Gamma from the pattern columns kept_r/kept_t only: the reference of
    dropping the dependent columns of a rank-deficient pattern matrix."""
    e_pinv = np.linalg.pinv(e[:, kept_r], rcond=dofcore.RANK_TOL)
    jt_pinv = np.linalg.pinv(j[:, kept_t].T, rcond=dofcore.RANK_TOL)
    return e_pinv @ g @ jt_pinv


def deficient_patterns(rng, n_rows, k, d):
    """(n_rows x (k + d) patterns whose d dependent columns are random
    combinations of k independent ones, in shuffled column order; the
    positions of the independent columns)."""
    base = rand_c(rng, n_rows, k)
    full = np.column_stack([base, base @ rand_c(rng, k, d)])
    perm = rng.permutation(k + d)
    return full[:, perm], base, np.flatnonzero(perm < k)


def rand_modal(rng, n):
    """Random significances safely above the inversion floor."""
    return rng.uniform(0.05, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))


class TestTransmitterMap:
    def test_equals_triple_product(self):
        rng = np.random.default_rng(1)
        patterns = rand_c(rng, 12, 5)
        m = rand_modal(rng, 5)
        v = rand_c(rng, 5, 3)
        u = transmitter_map(patterns, m, v)
        expect = patterns @ np.diag(m) @ v
        np.testing.assert_allclose(u, expect, rtol=1e-13)
        assert u.shape == (12, 3)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="inconsistent"):
            transmitter_map(rand_c(rng, 12, 5), rand_modal(rng, 4), rand_c(rng, 4, 3))
        with pytest.raises(ValueError, match="inconsistent"):
            transmitter_map(rand_c(rng, 12, 5), rand_modal(rng, 5), rand_c(rng, 4, 3))

    def test_subfloor_significance_rejected(self):
        rng = np.random.default_rng(3)
        m = rand_modal(rng, 4)
        m[2] = 1e-4
        with pytest.raises(ValueError, match="significance floor"):
            transmitter_map(rand_c(rng, 9, 4), m, rand_c(rng, 4, 2))


class TestReceiverMap:
    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(25):
            n_r = int(rng.integers(4, 12))
            l_r = int(rng.integers(1, n_r + 1))
            n_fld = int(rng.integers(n_r, n_r + 30))
            v_r = rand_c(rng, n_r, l_r)
            m_r = rand_modal(rng, n_r)
            patterns = rand_c(rng, 3 * n_fld, n_r)
            u_r = receiver_map(v_r, m_r, patterns)
            v_pinv = np.linalg.solve(v_r.conj().T @ v_r, v_r.conj().T)
            e_pinv = np.linalg.solve(
                patterns.conj().T @ patterns, patterns.conj().T
            )
            oracle = v_pinv @ np.diag(1.0 / m_r) @ e_pinv
            worst = max(
                worst,
                np.linalg.norm(u_r - oracle) / np.linalg.norm(oracle),
            )
        assert worst <= 1e-10

    def test_annihilates_out_of_span_fields(self):
        rng = np.random.default_rng(8)
        n_r, l_r, n_fld = 6, 4, 40
        v_r = rand_c(rng, n_r, l_r)
        m_r = rand_modal(rng, n_r)
        patterns, _ = np.linalg.qr(rand_c(rng, 3 * n_fld, n_r))
        u_r = receiver_map(v_r, m_r, patterns)
        raw = rand_c(rng, 3 * n_fld)
        e_out = raw - patterns @ (patterns.conj().T @ raw)
        scale = np.linalg.norm(u_r) * np.linalg.norm(e_out)
        assert np.linalg.norm(u_r @ e_out) <= 1e-10 * scale

    def test_recovers_in_span_coefficients(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n_r = int(rng.integers(2, 9))
            l_r = int(rng.integers(1, n_r + 1))
            n_fld = int(rng.integers(n_r, n_r + 20))
            v_r = rand_c(rng, n_r, l_r)
            m_r = rand_modal(rng, n_r)
            patterns, _ = np.linalg.qr(rand_c(rng, 3 * n_fld, n_r))
            u_r = receiver_map(v_r, m_r, patterns)
            # a field radiated as patterns diag(m) V s comes back as s
            s = rand_c(rng, l_r)
            field = patterns @ (m_r * (v_r @ s))
            got = u_r @ field
            assert np.linalg.norm(got - s) <= 1e-10 * max(np.linalg.norm(s), 1.0)

    def test_inverts_the_value_at_the_rank_cutoff(self):
        # sigma_2 = RANK_TOL sigma_1 counts toward rank(V_R), so the
        # pseudo-inverse inverts it too and both ports come back
        v_r = np.diag([1.0, dofcore.RANK_TOL])
        patterns = np.eye(6)[:, :2]
        u_r = receiver_map(v_r, np.ones(2), patterns)
        np.testing.assert_allclose(u_r @ patterns @ v_r, np.eye(2),
                                   atol=1e-12)

    def test_rank_deficient_ports_named(self):
        rng = np.random.default_rng(10)
        v = rand_c(rng, 5, 2)
        v_bad = np.column_stack([v[:, 0], v[:, 1], v[:, 0] + v[:, 1]])
        m = rand_modal(rng, 5)
        patterns = rand_c(rng, 30, 5)
        with pytest.raises(RankDeficiencyError,
                           match=r"^modal excitation matrix has rank 2 < 3 "
                                 r"receive ports$"):
            receiver_map(v_bad, m, patterns)

    def test_shape_and_floor_guards(self):
        rng = np.random.default_rng(11)
        v = rand_c(rng, 5, 2)
        patterns = rand_c(rng, 30, 5)
        with pytest.raises(ValueError, match="inconsistent"):
            receiver_map(v, rand_modal(rng, 4), patterns)
        m = rand_modal(rng, 5)
        m[0] = 5e-4
        with pytest.raises(ValueError, match="significance floor"):
            receiver_map(v, m, patterns)


class TestEquivalentChannel:
    def test_is_matrix_product(self):
        rng = np.random.default_rng(12)
        u_r = rand_c(rng, 3, 9)
        g = rand_c(rng, 9, 12)
        u_t = rand_c(rng, 12, 4)
        ch = equivalent_channel(u_r, g, u_t)
        np.testing.assert_allclose(ch.matrix, u_r @ g @ u_t, rtol=1e-13)
        assert ch.matrix.shape == (3, 4)

    def test_shape_chain_enforced(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="chain"):
            equivalent_channel(rand_c(rng, 3, 8), rand_c(rng, 9, 12), rand_c(rng, 12, 4))

    def test_identity_maps_preserve_spectrum(self):
        rng = np.random.default_rng(14)
        g = rand_c(rng, 6, 6)
        ch = equivalent_channel(np.eye(6), g, np.eye(6))
        np.testing.assert_allclose(
            ch.singulars, np.linalg.svd(g, compute_uv=False), rtol=1e-12
        )

    def test_unitary_maps_preserve_spectrum(self):
        rng = np.random.default_rng(15)
        g = rand_c(rng, 7, 7)
        q1, _ = np.linalg.qr(rand_c(rng, 7, 7))
        q2, _ = np.linalg.qr(rand_c(rng, 7, 7))
        ch = equivalent_channel(q1, g, q2)
        np.testing.assert_allclose(
            ch.singulars, np.linalg.svd(g, compute_uv=False), rtol=1e-11
        )

    def test_rank_never_exceeds_channel_rank(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            r = int(rng.integers(1, 5))
            g = rand_c(rng, 10, r) @ rand_c(rng, r, 11)
            ch = equivalent_channel(rand_c(rng, 6, 10), g, rand_c(rng, 11, 5))
            assert matrix_rank(ch.matrix) <= matrix_rank(g)


class TestAchievableDof:
    def test_flat_spectrum(self):
        ch = EquivalentChannel(matrix=2.0 * np.eye(3))
        assert achievable_dof(ch, 0.5) == 3

    def test_hand_spectrum(self):
        ch = EquivalentChannel(matrix=np.diag([1.0, 0.8, 0.6, 0.1]))
        assert achievable_dof(ch, 0.5) == 2

    def test_zero_channel(self):
        ch = EquivalentChannel(matrix=np.zeros((4, 4)))
        assert achievable_dof(ch) == 0


class TestGammaDecomposition:
    def test_recovers_exact_factorization(self):
        rng = np.random.default_rng(20)
        n_r, n_t = 5, 6
        ebar, _ = np.linalg.qr(rand_c(rng, 3 * 18, n_r))
        jbar, _ = np.linalg.qr(rand_c(rng, 3 * 20, n_t))
        gam_true = rand_c(rng, n_r, n_t)
        g = ebar @ gam_true @ jbar.T
        gm = gamma_decomposition(g, ebar, jbar)
        np.testing.assert_allclose(gm.gamma, gam_true, atol=1e-12)
        assert gm.unmodeled_fraction <= 1e-10
        assert matrix_rank(gm.gamma) == matrix_rank(gam_true)

    def test_out_of_span_energy_reported(self):
        rng = np.random.default_rng(21)
        n_r, n_t = 4, 4
        q_full, _ = np.linalg.qr(rand_c(rng, 30, 6))
        ebar = q_full[:, :n_r]
        outside = q_full[:, n_r:]
        jbar, _ = np.linalg.qr(rand_c(rng, 24, n_t))
        gam_true = rand_c(rng, n_r, n_t)
        g_in = ebar @ gam_true @ jbar.T
        g = g_in + outside @ rand_c(rng, 2, 3 * 8)
        gm = gamma_decomposition(g, ebar, jbar)
        # the component outside the receive span is unmodeled
        assert gm.unmodeled_fraction > 0.05
        np.testing.assert_allclose(gm.gamma, gam_true, atol=1e-10)

    def test_rank_deficient_patterns_warn_and_drop(self):
        rng = np.random.default_rng(22)
        ebar, _ = np.linalg.qr(rand_c(rng, 30, 4))
        jbar, _ = np.linalg.qr(rand_c(rng, 24, 3))
        g = ebar @ rand_c(rng, 4, 3) @ jbar.T
        bad = np.column_stack([ebar, ebar[:, 0]])
        with pytest.warns(UserWarning,
                          match=r"\(4 of 5 columns independent\)$"):
            gm = gamma_decomposition(g, bad, jbar)
        assert matrix_rank(gm.gamma) == matrix_rank(
            dropped_gamma(g, bad, jbar, np.arange(4), np.arange(3)))
        assert gm.unmodeled_fraction <= 1e-10

    def test_pattern_column_at_the_rank_cutoff_is_kept(self):
        # a column at sigma = RANK_TOL sigma_1 counts toward the rank, so
        # no warning, and its row of Gamma is inverted, not dropped
        rng = np.random.default_rng(23)
        ebar = np.eye(30)[:, :4] * [1.0, 1.0, 1.0, dofcore.RANK_TOL]
        jbar, _ = np.linalg.qr(rand_c(rng, 24, 3))
        gam_true = rand_c(rng, 4, 3)
        g = ebar @ gam_true @ jbar.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gm = gamma_decomposition(g, ebar, jbar)
        np.testing.assert_allclose(gm.gamma, gam_true, atol=1e-10)

    def test_diagnostics_match_dense_projectors(self):
        # the diagnostics come from thin products; the dense n x n
        # projector formula is the reference
        rng = np.random.default_rng(25)
        ebar = rand_c(rng, 30, 4)
        jbar = rand_c(rng, 24, 3)
        bad_r = np.column_stack([ebar, ebar[:, 1] - 2.0 * ebar[:, 3]])
        bad_t = np.column_stack([jbar[:, 0], jbar, 0.5j * jbar[:, 2]])
        g = rand_c(rng, 30, 2) @ rand_c(rng, 2, 24) + \
            ebar @ rand_c(rng, 4, 3) @ jbar.T
        with pytest.warns(UserWarning, match="rank-deficient") as caught:
            gm = gamma_decomposition(g, bad_r, bad_t)
        assert [str(w.message) for w in caught] == [
            "receive pattern matrix is rank-deficient "
            "(4 of 5 columns independent)",
            "transmit pattern matrix is rank-deficient "
            "(3 of 5 columns independent)",
        ]
        assert matrix_rank(gm.gamma) == matrix_rank(
            dropped_gamma(g, bad_r, bad_t, np.arange(4), np.arange(1, 4)))
        e_pinv = np.linalg.pinv(bad_r, rcond=dofcore.RANK_TOL)
        jt_pinv = np.linalg.pinv(bad_t.T, rcond=dofcore.RANK_TOL)
        np.testing.assert_array_equal(gm.gamma, e_pinv @ g @ jt_pinv)
        projected = (bad_r @ e_pinv) @ g @ (jt_pinv @ bad_t.T)
        g_norm = np.linalg.norm(g)
        unmodeled = np.linalg.norm(g - projected) / g_norm
        assert unmodeled > 0.05
        assert gm.unmodeled_fraction == pytest.approx(unmodeled, rel=1e-9)

    def test_rank_deficient_instances_keep_the_dropped_rank(self, monkeypatch):
        # whole-matrix pseudo-inverses give Gamma the rank of the
        # column-dropped reference, from one SVD per pattern matrix and no
        # pivoted QR
        import scipy.linalg

        def no_qr(*args, **kwargs):
            raise AssertionError("pivoted QR called")

        svd, svd_calls = np.linalg.svd, []

        def counting_svd(*args, **kwargs):
            svd_calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", no_qr)
        rng = np.random.default_rng(27)
        ranks = set()
        for _ in range(120):
            (k_r, k_t), (d_r, d_t) = rng.integers(1, 6, 2), rng.integers(0, 4, 2)
            if d_r + d_t == 0:
                d_r = 1
            rows_r, rows_t = 3 * rng.integers(3, 9, 2)
            e, e_base, kept_r = deficient_patterns(rng, rows_r, k_r, d_r)
            j, j_base, kept_t = deficient_patterns(rng, rows_t, k_t, d_t)
            r = int(rng.integers(0, min(k_r, k_t) + 1))
            g = e_base @ rand_c(rng, k_r, r) @ rand_c(rng, r, k_t) @ j_base.T
            if rng.random() < 0.5:
                g = g + 0.1 * rand_c(rng, rows_r, rows_t)
            expect = matrix_rank(dropped_gamma(g, e, j, kept_r, kept_t))
            svd_calls.clear()
            with monkeypatch.context() as m, \
                    pytest.warns(UserWarning) as caught:
                m.setattr(np.linalg, "svd", counting_svd)
                gm = gamma_decomposition(g, e, j)
            assert len(svd_calls) == 2
            assert matrix_rank(gm.gamma) == expect
            assert [str(w.message) for w in caught] == [
                f"{side} pattern matrix is rank-deficient "
                f"({k} of {k + d} columns independent)"
                for side, k, d in (("receive", k_r, d_r),
                                   ("transmit", k_t, d_t)) if d
            ]
            ranks.add(expect)
        assert ranks == set(range(6))

    def test_allocates_no_n_by_n_array(self):
        rng = np.random.default_rng(26)
        n = 768
        g = rand_c(rng, n, n)
        ebar, jbar = rand_c(rng, n, 20), rand_c(rng, n, 20)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gm = gamma_decomposition(g, ebar, jbar)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # fewer bytes than one float64 n x n array: no n^2 entries of any
        # of the decomposition's dtypes were ever held at once
        assert peak - base < n * n * 8
        assert 0.99 < gm.unmodeled_fraction < 1.0

    def test_zero_channel(self):
        rng = np.random.default_rng(23)
        ebar, _ = np.linalg.qr(rand_c(rng, 12, 2))
        jbar, _ = np.linalg.qr(rand_c(rng, 12, 2))
        gm = gamma_decomposition(np.zeros((12, 12)), ebar, jbar)
        assert gm.unmodeled_fraction == 0.0
        assert matrix_rank(gm.gamma) == 0

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError, match="chain"):
            gamma_decomposition(
                rand_c(rng, 12, 12), rand_c(rng, 9, 2), rand_c(rng, 12, 2)
            )


class TestDofBounds:
    def synth_instance(self, rng):
        n_t = int(rng.integers(2, 9))
        n_r = int(rng.integers(2, 9))
        l_t = int(rng.integers(1, 7))
        l_r = int(rng.integers(1, 7))
        nf_t = int(rng.integers(max(n_t, l_t), 14))
        nf_r = int(rng.integers(max(n_r, l_r), 14))
        v_t = rand_c(rng, n_t, l_t)
        v_r = rand_c(rng, n_r, l_r)
        r_gam = int(rng.integers(0, min(n_r, n_t) + 1))
        gam = (
            rand_c(rng, n_r, r_gam) @ rand_c(rng, r_gam, n_t)
            if r_gam
            else np.zeros((n_r, n_t), complex)
        )
        if rng.random() < 0.3 and l_t > 1:
            v_t[:, -1] = v_t[:, 0]
        if rng.random() < 0.3 and l_r > 1:
            v_r[:, -1] = v_r[:, 0]
        m_t = rand_modal(rng, n_t)
        m_r = rand_modal(rng, n_r)
        jbar, _ = np.linalg.qr(rand_c(rng, 3 * nf_t, n_t))
        ebar, _ = np.linalg.qr(rand_c(rng, 3 * nf_r, n_r))
        g = ebar @ gam @ jbar.T
        return v_r, v_t, gam, m_r, m_t, ebar, jbar, g

    def test_bound_chain_on_synthetic_instances(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            v_r, v_t, gam, m_r, m_t, ebar, jbar, g = self.synth_instance(rng)
            n_r, l_r = v_r.shape
            n_t, l_t = v_t.shape
            if matrix_rank(v_r) < l_r:
                continue
            u_t = transmitter_map(jbar, m_t, v_t)
            u_r = receiver_map(v_r, m_r, ebar)
            ch = equivalent_channel(u_r, g, u_t)
            g_sing = np.linalg.svd(g, compute_uv=False)
            upper_pm, upper_ch, lower = dof_bounds(
                v_r, v_t, gam, n_r, n_t, l_t, l_r, g_sing
            )
            rank_h = matrix_rank(ch.matrix)
            assert achievable_dof(ch) <= upper_pm
            assert rank_h <= upper_pm
            assert rank_h <= matrix_rank(g)
            assert rank_h >= max(0, lower)
            assert upper_ch == dofcore.effective_rank(g_sing, 0.5)
            checked += 1

    def test_bounds_from_hand_ranks(self):
        rng = np.random.default_rng(30)
        v = rand_c(rng, 4, 2)
        gam = rand_c(rng, 4, 4)
        upper_pm, upper_ch, lower = dof_bounds(v, v, gam, 4, 4, 2, 2,
                                               np.array([2.0, 1.5, 0.1]))
        assert upper_pm == 2
        assert upper_ch == 2
        assert lower == matrix_rank(v) * 2 + matrix_rank(gam) - 8


class TestDofReport:
    def test_roundtrip_through_json(self):
        rng = np.random.default_rng(31)
        ch = EquivalentChannel(matrix=rand_c(rng, 4, 4))
        v = rand_c(rng, 5, 4)
        gam = rand_c(rng, 5, 5)
        g_sing = np.sort(rng.uniform(0.1, 2.0, 6))[::-1]
        rep = build_report(ch, g_sing, v, v, gam, gamma=0.5)
        back = json.loads(rep.to_json())
        assert set(back) == {f.name for f in dataclasses.fields(rep)}
        for name, value in back.items():
            assert np.array_equal(value, getattr(rep, name)), name

    def test_json_bytes(self):
        # key order, indent, float repr and ints staying ints, as written
        # into dof_report.json
        rep = DofReport(dof_h=2, dof_g_effective=3, port_mode_upper=4,
                        lower_bound=-1, gamma=0.5,
                        h_singulars=np.array([1.0, 0.1, 1e-17]),
                        g_singulars=np.array([2.5, 0.1 + 0.2]),
                        gamma_matrix_rank=3, h_strict_rank=2, g_strict_rank=2)
        assert rep.to_json() == """{
  "dof_h": 2,
  "dof_g_effective": 3,
  "port_mode_upper": 4,
  "lower_bound": -1,
  "gamma": 0.5,
  "h_singulars": [
    1.0,
    0.1,
    1e-17
  ],
  "g_singulars": [
    2.5,
    0.30000000000000004
  ],
  "gamma_matrix_rank": 3,
  "h_strict_rank": 2,
  "g_strict_rank": 2
}"""

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(32)
        ch = EquivalentChannel(matrix=np.diag([1.0, 0.8, 0.1, 0.0]))
        v = rand_c(rng, 4, 4)
        gam = rand_c(rng, 4, 4)
        g_sing = np.array([2.0, 1.9, 0.2])
        rep = build_report(ch, g_sing, v, v, gam)
        assert rep.dof_h == 2
        assert rep.dof_g_effective == 2
        assert rep.port_mode_upper == 4
        assert rep.h_strict_rank == 3
        assert rep.g_strict_rank == 3


class TestPointSourceChannel:
    def test_hand_entry(self):
        from scipy.constants import c as c0

        freq = 27e9
        lam = c0 / freq
        k0 = 2.0 * np.pi / lam
        d = 0.25
        g = point_source_channel(
            np.array([[0.0, 0.0, 0.0]]), np.array([[0.0, 0.0, d]]), k0
        )
        eta = dofcore.ETA0
        expect = -1j * eta * np.exp(-1j * k0 * d) / (2.0 * lam * d)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_pairwise_distances(self):
        k0 = 2.0 * np.pi
        tx = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        rx = np.array([[0.0, 0.0, 2.0], [0.0, 1.0, 2.0], [3.0, 0.0, 2.0]])
        g = point_source_channel(tx, rx, k0)
        assert g.shape == (3, 2)
        d01 = np.linalg.norm(rx[0] - tx[1])
        assert abs(g[0, 1]) == pytest.approx(
            dofcore.ETA0 / (2.0 * (2 * np.pi / k0) * d01), rel=1e-12
        )

    def test_coincident_centers_rejected(self):
        p = np.array([[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="coincident"):
            point_source_channel(p, p, 2.0 * np.pi)


class TestConventionalReduce:
    def make_elements(self, rng, n_elem, faces_per_elem, pattern=None):
        if pattern is None:
            pattern = rand_c(rng, 3 * faces_per_elem)
        out = []
        for l in range(n_elem):
            faces = np.arange(l * faces_per_elem, (l + 1) * faces_per_elem)
            center = np.array([0.3 * l, 0.0, 0.0])
            out.append(
                ElementAnalysis(faces=faces, pattern=pattern.copy(), center=center)
            )
        return out

    def test_block_map_structure(self):
        rng = np.random.default_rng(40)
        pattern = rand_c(rng, 6)
        tx = self.make_elements(rng, 3, 2, pattern)
        rx_pat = pattern / np.linalg.norm(pattern)
        rx = self.make_elements(rng, 2, 2, rx_pat)
        for el in rx:
            el.center = el.center + np.array([0.0, 0.0, 5.0])
        model = conventional_reduce(tx, rx, 2.0 * np.pi, 6, 4)
        assert model.u_t.shape == (18, 3)
        for l, el in enumerate(tx):
            rows = (3 * el.faces[:, None] + np.arange(3)[None, :]).ravel()
            np.testing.assert_allclose(model.u_t[rows, l], pattern, rtol=1e-14)
            others = np.setdiff1d(np.arange(18), rows)
            assert np.linalg.norm(model.u_t[others, l]) == 0.0
        # the receive map projects each element's own pattern to its port
        e_blocks = np.zeros((12, 2), dtype=complex)
        for l, el in enumerate(rx):
            rows = (3 * el.faces[:, None] + np.arange(3)[None, :]).ravel()
            e_blocks[rows, l] = rx_pat
        np.testing.assert_allclose(model.u_r @ e_blocks, np.eye(2), atol=1e-10)
        assert model.g_tilde.shape == (2, 3)

    def test_differing_elements_rejected(self):
        rng = np.random.default_rng(42)
        tx = self.make_elements(rng, 2, 1)
        tx[1].pattern = tx[1].pattern + 0.01 * rand_c(rng, 3)
        rx = self.make_elements(rng, 2, 1)
        for el in rx:
            el.center = el.center + np.array([0.0, 0.0, 2.0])
        with pytest.raises(ReductionError, match="differs"):
            conventional_reduce(tx, rx, 2.0 * np.pi, 2, 2)

    def test_differing_sizes_rejected(self):
        rng = np.random.default_rng(43)
        tx = self.make_elements(rng, 2, 1)
        tx[1] = ElementAnalysis(
            faces=np.arange(2), pattern=rand_c(rng, 6), center=np.zeros(3)
        )
        rx = self.make_elements(rng, 1, 1)
        rx[0].center = np.array([0.0, 0.0, 2.0])
        with pytest.raises(ReductionError, match="size"):
            conventional_reduce(tx, rx, 2.0 * np.pi, 3, 1)

    def test_empty_side_rejected(self):
        rng = np.random.default_rng(44)
        tx = self.make_elements(rng, 1, 1)
        with pytest.raises(ValueError, match="at least one"):
            conventional_reduce(tx, [], 2.0 * np.pi, 1, 0)


class TestBlockLeakage:
    def test_hand_split(self):
        elements = [
            ElementAnalysis(faces=np.array([0]), pattern=np.ones(3), center=np.zeros(3)),
            ElementAnalysis(faces=np.array([1]), pattern=np.ones(3), center=np.ones(3)),
        ]
        u_t = np.zeros((6, 2), dtype=complex)
        u_t[0:3, 0] = [3.0, 0.0, 0.0]
        u_t[3:6, 0] = [4.0, 0.0, 0.0]
        u_t[3:6, 1] = [1.0, 1.0, 1.0]
        leak = block_leakage(u_t, elements)
        assert leak[0] == pytest.approx(16.0 / 25.0, rel=1e-12)
        assert leak[1] == pytest.approx(0.0, abs=1e-15)

    def test_zero_column_is_zero(self):
        elements = [
            ElementAnalysis(faces=np.array([0]), pattern=np.ones(3), center=np.zeros(3))
        ]
        leak = block_leakage(np.zeros((3, 1)), elements)
        assert leak[0] == 0.0
