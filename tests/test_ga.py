"""Tests for the genetic optimizer: operators, caching, evolution loop."""

import dataclasses
import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import c as c0
from scipy.stats import chisquare

import cmadof.cma
import cmadof.efie
import cmadof.ga
import cmadof.svgplot
from cmadof.cma import excitation_matrix, mode_patterns, solve_modes
from cmadof.dofcore import (EquivalentChannel, equivalent_channel,
                            matrix_rank, receiver_map, transmitter_map)
from cmadof.channel import assemble_channel, effective_rank
from cmadof.efie import (ImpedanceOperator, assemble_impedance,
                         delta_gap_excitation)
from cmadof.errors import GeometryError
from cmadof.ga import (
    GaRun,
    Individual,
    NEG_INF,
    PixelProblem,
    PlateAnalysis,
    PlateModel,
    analyze_plate,
    crossover_mutate,
    evaluate,
    fitness,
    link_report,
    phi_from_hex,
    phi_to_hex,
    run_ga,
    select_parents,
)
from cmadof.mesh import (PlateSpec, build_plate_mesh, extract_rwg,
                         face_sampling_operator, locate_port_edges)
from oracles import parent_edges

FREQ = 27e9
LAM = c0 / FREQ
PIX = 0.24 * LAM

#: written by `run_ga(tiny_problem(), k_max=2, pop_size=6, n_parents=4,
#: seed=11, checkpoint_path=...)` in the v1 checkpoint format
V1_CHECKPOINT = Path(__file__).parent / "data" / "ga_checkpoint_v1.json"


def tiny_spec():
    return PlateSpec(
        width=2 * PIX, height=2 * PIX, pixel_rows=2, pixel_cols=2, ports=2
    )


def tiny_problem(**kwargs):
    args = dict(
        tx_spec=tiny_spec(),
        rx_spec=tiny_spec(),
        frequency=FREQ,
        separation=3.0 * LAM,
    )
    args.update(kwargs)
    return PixelProblem(**args)


class TestFitness:
    def test_flat_spectrum_scores_zero(self):
        ch = EquivalentChannel(matrix=2.0 * np.eye(3))
        assert fitness(ch) == 0.0

    def test_two_value_spectrum_scores_minus_one(self):
        ch = EquivalentChannel(matrix=np.diag([3.0, 1.0]))
        assert fitness(ch) == -1.0

    def test_rectangular_channel_uses_port_count(self):
        # only the leading min(L_T, L_R) singular values enter the score
        m = np.zeros((2, 4))
        m[0, 0] = 3.0
        m[1, 1] = 1.0
        ch = EquivalentChannel(matrix=m)
        assert fitness(ch) == -1.0

    def test_score_is_scale_dependent(self):
        a = EquivalentChannel(matrix=np.diag([3.0, 1.0]))
        b = EquivalentChannel(matrix=np.diag([30.0, 10.0]))
        assert fitness(b) == pytest.approx(10.0 * fitness(a), rel=1e-12)

    def test_correlates_with_achievable_dof(self):
        # frozen corpus: flatter spectra should usually mean more usable
        # subchannels, checked as pairwise order agreement
        rng = np.random.default_rng(0)
        items = []
        for _ in range(50):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            ch = EquivalentChannel(matrix=h)
            items.append((fitness(ch), effective_rank(ch.singulars, 0.5)))
        agree = total = 0
        for fi, di in items:
            for fj, dj in items:
                if fi > fj:
                    total += 1
                    agree += di >= dj
        assert agree / total >= 0.70


class TestPhiHex:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for n_bits in (1, 7, 8, 13, 32, 64):
            phi = rng.integers(0, 2, n_bits).astype(np.uint8)
            assert np.array_equal(phi_from_hex(phi_to_hex(phi), n_bits), phi)

    def test_too_short_rejected(self):
        phi = np.ones(8, dtype=np.uint8)
        with pytest.raises(ValueError, match="bits"):
            phi_from_hex(phi_to_hex(phi), 9)


class TestPixelProblem:
    def test_validation(self):
        with pytest.raises(GeometryError, match="separation"):
            tiny_problem(separation=0.0)
        with pytest.raises(ValueError, match="frequency"):
            PixelProblem(
                tx_spec=tiny_spec(),
                rx_spec=tiny_spec(),
                frequency=0.0,
                separation=0.01,
            )
        with pytest.raises(ValueError, match="gamma"):
            tiny_problem(gamma=1.0)

    def test_bit_layout(self):
        p = tiny_problem()
        assert p.bit_length == 8
        phi = np.arange(8)
        t, r = p.split(phi)
        np.testing.assert_array_equal(t, [0, 1, 2, 3])
        np.testing.assert_array_equal(r, [4, 5, 6, 7])
        assert p.wavenumber == pytest.approx(2.0 * np.pi * FREQ / c0, rel=1e-15)


def acceptance7_spec():
    pix = 0.35 * LAM
    return PlateSpec(width=4 * pix, height=8 * pix, pixel_rows=8,
                     pixel_cols=4, ports=4,
                     port_pixels=((0, 0), (2, 0), (4, 0), (6, 0)))


def cli_default_spec():
    return PlateSpec(width=8 * PIX, height=4 * PIX, pixel_rows=4,
                     pixel_cols=8, ports=4)


def direct_operators(model, bits, faces):
    """Z, S and B of `bits` assembled on the configuration's own mesh,
    its edges put in parent order (`parent_edges`), each C-contiguous like
    the gathered arrays."""
    mesh = build_plate_mesh(model.spec, bits)
    basis = extract_rwg(mesh)
    order = np.argsort(parent_edges(model.basis, faces, basis))
    ports = delta_gap_excitation(basis, locate_port_edges(model.spec, mesh))
    return (assemble_impedance(basis, FREQ).z[np.ix_(order, order)],
            np.ascontiguousarray(face_sampling_operator(basis)[:, order]),
            ports[order])


class TestPlateModel:
    @pytest.mark.parametrize("make_spec", [acceptance7_spec, cli_default_spec])
    def test_gather_equals_direct_assembly(self, make_spec):
        spec = make_spec()
        model = PlateModel.build(spec, FREQ)
        rng = np.random.default_rng(spec.pixel_rows)
        for _ in range(20):
            bits = rng.integers(0, 2, spec.n_bits)
            op, sampler, ports, faces = model.gather(bits)
            z, s, b = direct_operators(model, bits, faces)
            assert np.array_equal(op.z, z)
            assert np.array_equal(sampler, s)
            assert np.array_equal(ports, b)

    def test_gathered_topology_equals_direct(self):
        spec = acceptance7_spec()
        model = PlateModel.build(spec, FREQ)
        rng = np.random.default_rng(8)
        for _ in range(10):
            bits = rng.integers(0, 2, spec.n_bits)
            *_, faces = model.gather(bits)
            mesh = build_plate_mesh(spec, bits)
            direct = extract_rwg(mesh)
            parent = model.basis
            # the parent vertex of each direct vertex, through the faces
            vertex = np.full(len(mesh.vertices), -1)
            vertex[mesh.faces] = parent.mesh.faces[faces]
            assert np.array_equal(parent.mesh.vertices[vertex], mesh.vertices)
            assert np.array_equal(vertex[mesh.faces], parent.mesh.faces[faces])
            # direct edge i is parent edge p[i]; the map holds them in
            # parent order
            p = parent_edges(parent, faces, direct)
            assert np.array_equal(parent.edge_map(faces), np.sort(p))
            assert np.array_equal(parent.edges[p],
                                  np.sort(vertex[direct.edges], axis=1))
            assert np.array_equal(parent.plus_free[p],
                                  vertex[direct.plus_free])
            # a pixel's two faces are consecutive in every plate mesh
            assert np.array_equal(
                faces, 2 * mesh.face_tags + np.arange(mesh.n_faces) % 2)

    def test_all_metal_gather_is_the_parent(self):
        spec = cli_default_spec()
        model = PlateModel.build(spec, FREQ)
        op, sampler, ports, faces = model.gather(np.ones(spec.n_bits))
        assert np.array_equal(model.basis.edge_map(faces),
                              np.arange(model.basis.n_edges))
        assert op is model.impedance
        assert sampler is model.sampler
        assert ports is model.excitation
        assert np.array_equal(faces, np.arange(2 * spec.n_bits))

    def test_all_metal_link_analyzes_the_parent_channel(self):
        p = PixelProblem(tx_spec=cli_default_spec(), rx_spec=acceptance7_spec(),
                         frequency=FREQ, separation=1.0 * LAM)
        evaluate(p, np.ones(p.bit_length, dtype=np.uint8))
        link = p.best_link[1]
        assert link.g is p.channel
        assert link_report(p, np.ones(p.bit_length)) is not None

    @pytest.mark.parametrize("make_specs", [
        lambda: (acceptance7_spec(), acceptance7_spec()),
        lambda: (cli_default_spec(), acceptance7_spec()),
    ], ids=["acceptance7", "cli_default_to_acceptance7"])
    def test_channel_gather_equals_direct_assembly(self, make_specs):
        tx_spec, rx_spec = make_specs()
        p = PixelProblem(tx_spec=tx_spec, rx_spec=rx_spec, frequency=FREQ,
                         separation=1.0 * LAM)
        tx_model, rx_model = p.models
        rng = np.random.default_rng(17)
        for _ in range(20):
            tx_bits = rng.integers(0, 2, tx_spec.n_bits)
            rx_bits = rng.integers(0, 2, rx_spec.n_bits)
            *_, tx_faces = tx_model.gather(tx_bits)
            *_, rx_faces = rx_model.gather(rx_bits)
            rx_mesh = build_plate_mesh(rx_spec, rx_bits).translated(
                (0.0, 0.0, p.separation))
            direct = assemble_channel(build_plate_mesh(tx_spec, tx_bits),
                                      rx_mesh, p.wavenumber)
            gathered = p.channel.gather(rx_faces, tx_faces)
            assert np.array_equal(gathered.matrix, direct.matrix)
            assert np.array_equal(gathered.tx_centroids, direct.tx_centroids)
            assert np.array_equal(gathered.rx_centroids, direct.rx_centroids)
            assert np.array_equal(gathered.tx_areas, direct.tx_areas)

    def test_evaluation_meshes_and_assembles_nothing(self, monkeypatch):
        # once the parents and their channel exist, a new configuration is
        # analyzed from them by index alone
        p = PixelProblem(tx_spec=acceptance7_spec(), rx_spec=acceptance7_spec(),
                         frequency=FREQ, separation=1.0 * LAM)
        p.models, p.channel
        for name in ("build_plate_mesh", "extract_rwg",
                     "face_sampling_operator", "locate_port_edges",
                     "assemble_impedance", "delta_gap_excitation",
                     "assemble_channel"):
            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} called by evaluate")

            monkeypatch.setattr(cmadof.ga, name, refuse)
        rng = np.random.default_rng(23)
        scores = [evaluate(p, rng.integers(0, 2, p.bit_length))
                  for _ in range(5)]
        assert p.evaluations == 5
        assert all(s.h_singulars is not None for s in scores)

    def test_models_are_lazy_and_shared(self, monkeypatch):
        calls = []

        def counting(basis, frequency):
            calls.append(basis.mesh.n_faces)
            return assemble_impedance(basis, frequency)

        monkeypatch.setattr(cmadof.ga, "assemble_impedance", counting)
        same = tiny_problem()
        assert calls == []
        tx, rx = same.models
        assert tx is rx and calls == [8]
        other = tiny_problem(rx_spec=PlateSpec(
            width=3 * PIX, height=2 * PIX, pixel_rows=2, pixel_cols=3,
            ports=2))
        evaluate(other, np.ones(other.bit_length, dtype=np.uint8))
        evaluate(other, np.zeros(other.bit_length, dtype=np.uint8))
        assert calls == [8, 8, 12]


class TestAnalyzePlate:
    """R is decomposed once unless it has to be clamped, with the modes
    unchanged from decomposing R_psd again; the gathered analysis is the
    direct one, byte for byte; and a mode's sign does not reach sigma(H)."""

    @pytest.mark.parametrize("make_spec", [acceptance7_spec, cli_default_spec])
    def test_gather_matches_direct_pipeline_bytes(self, make_spec):
        spec = make_spec()
        model = PlateModel.build(spec, FREQ)
        rng = np.random.default_rng(spec.pixel_cols)
        for _ in range(10):
            bits = rng.integers(0, 2, spec.n_bits)
            plate = analyze_plate(model, bits, n_keep=10)
            got = plate.modes
            z, s, b = direct_operators(model, bits, plate.faces)
            want = solve_modes(ImpedanceOperator(z=z, frequency=FREQ),
                               n_keep=10).significant()
            patterns = mode_patterns(want, s)
            v = excitation_matrix(want, b)
            # bytes, which np.array_equal does not compare: -0.0 == 0.0
            pairs = [(name, getattr(got, name), getattr(want, name))
                     for name in ("eigenvalues", "mode_coeffs",
                                  "eigen_residuals")]
            pairs += [("v", plate.v, v),
                      ("patterns", plate.patterns, patterns)]
            for name, g, w in pairs:
                assert g.shape == w.shape and g.dtype == w.dtype, name
                assert g.tobytes() == w.tobytes(), name
            assert got.r_cross_max == want.r_cross_max
            assert got.pattern_gram_dev == want.pattern_gram_dev

    @staticmethod
    def analyze(model, bits, monkeypatch, reuse):
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", counting)
            if not reuse:
                project = cmadof.efie.psd_project

                def redecompose(r):
                    r_psd = project(r)[0]
                    return (r_psd, *np.linalg.eigh(r_psd))

                m.setattr(cmadof.efie, "psd_project", redecompose)
            return analyze_plate(model, bits, n_keep=8), len(calls)

    @staticmethod
    def clamped(model):
        z = model.impedance.z
        shift = 1e-3 * np.abs(z.real).max() * np.eye(len(z))
        return dataclasses.replace(model, impedance=ImpedanceOperator(
            z=z - shift, frequency=FREQ))

    @pytest.mark.parametrize("clamp", [False, True],
                             ids=["unclamped", "clamped"])
    def test_eigh_calls_and_modes(self, monkeypatch, clamp):
        model = PlateModel.build(acceptance7_spec(), FREQ)
        if clamp:
            model = self.clamped(model)
        bits = np.random.default_rng(4).integers(0, 2, model.spec.n_bits)
        got, n_eigh = self.analyze(model, bits, monkeypatch, reuse=True)
        want, n_ref = self.analyze(model, bits, monkeypatch, reuse=False)
        assert (n_eigh, n_ref) == ((3, 4) if clamp else (2, 3))
        for name in ("eigenvalues", "mode_coeffs", "eigen_residuals"):
            assert np.array_equal(getattr(got.modes, name),
                                  getattr(want.modes, name)), name
        assert np.array_equal(got.v, want.v)
        assert np.array_equal(got.patterns, want.patterns)
        assert got.modes.r_cross_max == want.modes.r_cross_max
        assert got.modes.subspace_dim == want.modes.subspace_dim

    @staticmethod
    def flipped(model, bits, plate, k):
        """`plate` of configuration `bits` with mode k's coefficients
        negated, and V and the patterns rebuilt from them."""
        coeffs = plate.modes.mode_coeffs.copy()
        coeffs[:, k] *= -1.0
        modes = dataclasses.replace(plate.modes, mode_coeffs=coeffs)
        _, sampler, ports, faces = model.gather(bits)
        patterns = mode_patterns(modes, sampler)
        return PlateAnalysis(modes=modes, v=excitation_matrix(modes, ports),
                             patterns=patterns, faces=faces)

    def test_mode_sign_leaves_sigma_h(self):
        spec = acceptance7_spec()
        p = PixelProblem(tx_spec=spec, rx_spec=spec, frequency=FREQ,
                         separation=1.0 * LAM, n_keep=10)
        model = p.models[0]
        rng = np.random.default_rng(31)

        def sigma_h(tx, rx):
            u_t = transmitter_map(tx.patterns, tx.modes.significances, tx.v)
            u_r = receiver_map(rx.v, rx.modes.significances, rx.patterns)
            g = p.channel.gather(rx.faces, tx.faces)
            return equivalent_channel(u_r, g, u_t).singulars

        for _ in range(5):
            tx_bits, rx_bits = rng.integers(0, 2, (2, spec.n_bits))
            tx = analyze_plate(model, tx_bits, p.n_keep)
            rx = analyze_plate(model, rx_bits, p.n_keep)
            want = sigma_h(tx, rx)
            for k in range(min(tx.modes.n_kept, rx.modes.n_kept)):
                tx_k, rx_k = (self.flipped(model, tx_bits, tx, k),
                              self.flipped(model, rx_bits, rx, k))
                for pair in ((tx_k, rx), (tx, rx_k), (tx_k, rx_k)):
                    np.testing.assert_allclose(sigma_h(*pair), want,
                                               rtol=1e-14, atol=0.0)


class TestEvaluate:
    def test_wrong_length_rejected(self):
        p = tiny_problem()
        with pytest.raises(ValueError, match="bits"):
            evaluate(p, np.ones(5, dtype=np.uint8))

    def test_non_binary_rejected(self):
        p = tiny_problem()
        with pytest.raises(ValueError, match="0 or 1"):
            evaluate(p, np.full(8, 2, dtype=np.uint8))

    def test_result_is_cached(self):
        p = tiny_problem()
        phi = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=np.uint8)
        first = evaluate(p, phi)
        assert p.evaluations == 1 and p.cache_hits == 0
        second = evaluate(p, phi)
        assert p.evaluations == 1 and p.cache_hits == 1
        assert second is first

    def test_full_pipeline_produces_report(self):
        p = tiny_problem()
        ones = np.ones(8, dtype=np.uint8)
        score = evaluate(p, ones)
        ch = p.best_link[1].channel
        report = link_report(p, ones)
        assert ch.matrix.shape == (2, 2)
        assert report.dof_h >= 1
        assert report.dof_h <= report.port_mode_upper
        assert matrix_rank(ch.matrix) <= report.g_strict_rank
        assert score.fitness == fitness(ch)
        assert np.isfinite(score.fitness)

    def test_identical_plates_are_analyzed_once(self, monkeypatch):
        calls = []

        def counting(model, bits, n_keep):
            calls.append(model)
            return analyze_plate(model, bits, n_keep)

        monkeypatch.setattr(cmadof.ga, "analyze_plate", counting)
        half = np.array([1, 0, 1, 1], dtype=np.uint8)
        same = np.concatenate([half, half])
        p = tiny_problem()
        shared = evaluate(p, same)
        assert len(calls) == 1
        link = p.best_link[1]
        assert link.rx is link.tx
        evaluate(p, np.concatenate([half, [1, 1, 0, 1]]))
        assert len(calls) == 3
        # an equal receiver parent of its own is analyzed again, to the
        # same bytes
        twin = tiny_problem()
        tx, _ = twin.models
        twin.models = (tx, dataclasses.replace(tx))
        apart = evaluate(twin, same)
        assert len(calls) == 5
        assert apart.h_singulars.tobytes() == shared.h_singulars.tobytes()
        assert (apart.dof_h, apart.fitness) == (shared.dof_h, shared.fitness)

    @pytest.mark.parametrize("make_spec", [acceptance7_spec, cli_default_spec])
    def test_lean_score_matches_link_report(self, make_spec):
        spec = make_spec()
        p = PixelProblem(tx_spec=spec, rx_spec=spec, frequency=FREQ,
                         separation=1.0 * LAM, n_keep=10)
        rng = np.random.default_rng(23)
        phis = rng.integers(0, 2, size=(20, p.bit_length))
        # score every configuration first, so each report but the latest's
        # and the fittest's analyzes its link again instead of reusing
        # evaluate's
        scores = [evaluate(p, phi) for phi in phis]
        for phi, score in zip(phis, scores):
            report = link_report(p, phi)
            if score.h_singulars is None:
                assert report is None
                continue
            assert score.dof_h == report.dof_h
            assert np.array_equal(score.h_singulars, report.h_singulars)
            assert score.fitness == -np.std(report.h_singulars)
        assert p.evaluations == 20 and p.cache_hits == 20
        assert sum(s.h_singulars is not None for s in scores) >= 15

    def test_unreachable_floor_is_degenerate(self, caplog, monkeypatch):
        monkeypatch.setattr(cmadof.cma, "SIGNIFICANCE_FLOOR", 1.01)
        p = tiny_problem()
        with caplog.at_level("WARNING", logger="cmadof.ga"):
            score = evaluate(p, np.ones(8, dtype=np.uint8))
        assert score == (None, None, NEG_INF)
        assert "degenerate configuration" in caplog.text
        # the failure is cached like any other result
        assert link_report(p, np.ones(8, dtype=np.uint8)) is None
        assert p.cache_hits == 1

    def test_cache_drops_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(cmadof.ga, "CACHE_SIZE", 2)
        p = tiny_problem()
        a, b, c = np.eye(3, 8, k=4, dtype=np.uint8) + \
            np.eye(3, 8, dtype=np.uint8)
        first = evaluate(p, a)
        evaluate(p, b)
        evaluate(p, a)  # a is now more recent than b
        evaluate(p, c)  # drops b
        assert list(p.cache) == [np.packbits(a).tobytes(),
                                 np.packbits(c).tobytes()]
        evaluate(p, b)  # drops a
        again = evaluate(p, a)
        assert p.evaluations == 5 and p.cache_hits == 1
        assert again is not first
        assert again.dof_h == first.dof_h and again.fitness == first.fitness
        assert np.array_equal(again.h_singulars, first.h_singulars)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_channel_is_degenerate(self, monkeypatch, bad):
        # an infinite entry gives NaN singular values without an SVD error
        monkeypatch.setattr(
            cmadof.ga, "equivalent_channel",
            lambda u_r, g, u_t: EquivalentChannel(matrix=np.full((2, 2), bad)))
        p = tiny_problem()
        assert evaluate(p, np.ones(8, dtype=np.uint8)) == (None, None, NEG_INF)


class TestSelectParents:
    def test_tournament_distribution(self):
        # winner probabilities for 3 distinct fitnesses under size-2
        # tournaments with replacement are (5, 3, 1)/9
        pop = [
            Individual(phi=np.array([i], dtype=np.uint8), fitness=-float(i), dof_h=None)
            for i in range(3)
        ]
        run = GaRun(
            population=pop, generation=0, k_max=0, pop_size=3,
            n_parents=900, mutation_rate=0.0, rng_seed=0,
        )
        parents = select_parents(run, np.random.default_rng(123))
        counts = np.bincount([int(p[0]) for p in parents], minlength=3)
        expected = 900.0 * np.array([5.0, 3.0, 1.0]) / 9.0
        result = chisquare(counts, expected)
        assert result.pvalue > 0.01

    def test_tie_keeps_first_drawn(self):
        pop = [
            Individual(phi=np.array([0], dtype=np.uint8), fitness=1.0, dof_h=None),
            Individual(phi=np.array([1], dtype=np.uint8), fitness=1.0, dof_h=None),
        ]
        run = GaRun(
            population=pop, generation=0, k_max=0, pop_size=2,
            n_parents=40, mutation_rate=0.0, rng_seed=0,
        )
        seed = 77
        parents = select_parents(run, np.random.default_rng(seed))
        replay = np.random.default_rng(seed)
        for p in parents:
            i, _ = replay.integers(0, 2, size=2)
            assert p[0] == i

    def test_empty_population_rejected(self):
        run = GaRun(
            population=[], generation=0, k_max=0, pop_size=0,
            n_parents=2, mutation_rate=0.0, rng_seed=0,
        )
        with pytest.raises(ValueError, match="empty"):
            select_parents(run, np.random.default_rng(0))

    def test_returns_copies(self):
        pop = [Individual(phi=np.zeros(3, dtype=np.uint8), fitness=0.0, dof_h=None)]
        run = GaRun(
            population=pop, generation=0, k_max=0, pop_size=1,
            n_parents=2, mutation_rate=0.0, rng_seed=0,
        )
        parents = select_parents(run, np.random.default_rng(0))
        parents[0][0] = 1
        assert pop[0].phi[0] == 0


class TestCrossoverMutate:
    def test_children_partition_parent_bits(self):
        rng = np.random.default_rng(9)
        p0 = rng.integers(0, 2, 64).astype(np.uint8)
        p1 = rng.integers(0, 2, 64).astype(np.uint8)
        kids = crossover_mutate([p0, p1], 0.0, rng)
        assert len(kids) == 2
        np.testing.assert_array_equal(kids[0] + kids[1], p0 + p1)
        # at a typical position both assignments occur across 64 bits
        assert not np.array_equal(kids[0], p0)
        assert not np.array_equal(kids[0], p1)

    def test_rate_zero_only_recombines(self):
        rng = np.random.default_rng(10)
        p = np.zeros(100, dtype=np.uint8)
        kids = crossover_mutate([p, p.copy()], 0.0, rng)
        assert all((k == 0).all() for k in kids)

    def test_rate_one_flips_everything(self):
        rng = np.random.default_rng(11)
        p = np.zeros(100, dtype=np.uint8)
        kids = crossover_mutate([p, p.copy()], 1.0, rng)
        assert all((k == 1).all() for k in kids)

    def test_flip_fraction_matches_rate(self):
        rng = np.random.default_rng(12)
        parents = [np.zeros(10000, dtype=np.uint8) for _ in range(2)]
        kids = crossover_mutate(parents, 0.07, rng)
        frac = np.mean([k.mean() for k in kids])
        sigma = np.sqrt(0.07 * 0.93 / 20000)
        assert abs(frac - 0.07) < 4.0 * sigma

    def test_odd_parent_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            crossover_mutate([np.zeros(4, dtype=np.uint8)], 0.0, np.random.default_rng(0))

    def test_bad_rate_rejected(self):
        parents = [np.zeros(4, dtype=np.uint8)] * 2
        with pytest.raises(ValueError, match="rate"):
            crossover_mutate(parents, 1.5, np.random.default_rng(0))


class TestRunGa:
    def test_parameter_validation(self):
        p = tiny_problem()
        with pytest.raises(ValueError, match="population"):
            run_ga(p, k_max=1, pop_size=1, n_parents=2)
        with pytest.raises(ValueError, match="parent"):
            run_ga(p, k_max=1, pop_size=4, n_parents=3)
        with pytest.raises(ValueError, match="budget"):
            run_ga(p, k_max=-1, pop_size=4, n_parents=2)
        with pytest.raises(ValueError, match="mutation"):
            run_ga(p, k_max=1, pop_size=4, n_parents=2, mutation_rate=2.0)

    def test_deterministic_and_monotone(self):
        r1 = run_ga(tiny_problem(), k_max=3, pop_size=6, n_parents=4, seed=11)
        r2 = run_ga(tiny_problem(), k_max=3, pop_size=6, n_parents=4, seed=11)
        assert r1.best_history == r2.best_history
        for a, b in zip(r1.population, r2.population):
            assert np.array_equal(a.phi, b.phi)
            assert a.fitness == b.fitness
        assert len(r1.best_history) == 4
        assert all(
            b >= a for a, b in zip(r1.best_history, r1.best_history[1:])
        )
        assert r1.best.fitness == r1.best_history[-1]

    def test_zero_generations_ranks_initial_population(self):
        p = tiny_problem()
        run = run_ga(p, k_max=0, pop_size=4, n_parents=2, seed=3)
        assert run.generation == 0
        assert len(run.best_history) == 1
        assert len(run.population) == 4
        assert run.best.fitness == max(ind.fitness for ind in run.population)

    def test_one_assembly_and_counted_cache_hits(self, monkeypatch):
        calls = []

        def counting(basis, frequency):
            calls.append(basis.mesh.n_faces)
            return assemble_impedance(basis, frequency)

        monkeypatch.setattr(cmadof.ga, "assemble_impedance", counting)
        p = tiny_problem()
        run_ga(p, k_max=2, pop_size=4, n_parents=2, seed=5)
        # one shared parent plate for the whole run
        assert calls == [8]
        # every requested configuration is evaluated once or is a hit
        requested = 4 + 2 * 2
        assert p.cache_hits + p.evaluations == requested
        assert p.evaluations == len(p.cache)

    def test_numerical_failure_does_not_end_the_run(self, monkeypatch):
        def failing(op, n_keep=20):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cmadof.ga, "solve_modes", failing)
        p = tiny_problem()
        run = run_ga(p, k_max=2, pop_size=4, n_parents=2, seed=5)
        assert run.generation == 2
        assert run.best_history == [NEG_INF] * 3
        assert all(ind.dof_h is None for ind in run.population)
        assert all(r == (None, None, NEG_INF) for r in p.cache.values())

    def test_log_schema(self, tmp_path):
        log = tmp_path / "run.jsonl"
        run_ga(tiny_problem(), k_max=2, pop_size=4, n_parents=2, seed=7,
               log_path=log)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 3
        for g, rec in enumerate(records):
            assert set(rec) == {
                "generation", "best_fitness", "mean_fitness",
                "best_dof_h", "best_phi_hex",
            }
            assert rec["generation"] == g
            phi = phi_from_hex(rec["best_phi_hex"], 8)
            assert phi.shape == (8,)
        bests = [rec["best_fitness"] for rec in records]
        assert all(b >= a for a, b in zip(bests, bests[1:]))

    def test_resume_matches_straight_run(self, tmp_path):
        ck = tmp_path / "ck.json"
        straight = run_ga(tiny_problem(), k_max=4, pop_size=6, n_parents=4, seed=11)
        p = tiny_problem()
        run_ga(p, k_max=2, pop_size=6, n_parents=4, seed=11, checkpoint_path=ck)
        resumed = run_ga(p, k_max=4, pop_size=6, n_parents=4, seed=11,
                         resume_from=ck)
        assert resumed.best_history == straight.best_history
        for a, b in zip(resumed.population, straight.population):
            assert np.array_equal(a.phi, b.phi)
            assert a.fitness == b.fitness

    def test_checkpoint_roundtrips_reports(self, tmp_path):
        ck = tmp_path / "ck.json"
        first = run_ga(tiny_problem(), k_max=1, pop_size=4, n_parents=2,
                       seed=2, checkpoint_path=ck)
        # resuming at the same budget returns the loaded state unchanged
        loaded = run_ga(tiny_problem(), k_max=1, pop_size=4, n_parents=2,
                        seed=2, resume_from=ck)
        assert loaded.generation == first.generation
        assert loaded.best_history == first.best_history
        fresh = tiny_problem()
        for a, b in zip(loaded.population, first.population):
            assert np.array_equal(a.phi, b.phi)
            assert a.fitness == b.fitness
            assert a.dof_h == b.dof_h
            assert a.dof_h == evaluate(fresh, a.phi).dof_h
        assert any(a.dof_h is not None for a in loaded.population)

    def test_resume_from_v1_checkpoint_matches_straight_run(self):
        args = dict(k_max=4, pop_size=6, n_parents=4, seed=11)
        straight = run_ga(tiny_problem(), **args)
        resumed = run_ga(tiny_problem(), resume_from=V1_CHECKPOINT, **args)
        assert resumed.best_history == straight.best_history
        for a, b in zip(resumed.population, straight.population):
            assert np.array_equal(a.phi, b.phi)
            assert a.fitness == b.fitness
            assert a.dof_h == b.dof_h

    @pytest.mark.parametrize("change", [dict(separation=2.0 * LAM),
                                        dict(n_keep=12)],
                             ids=["separation", "n_keep"])
    def test_resume_under_other_problem_rejected(self, tmp_path, change):
        ck = tmp_path / "ck.json"
        run_ga(tiny_problem(), k_max=1, pop_size=4, n_parents=2, seed=2,
               checkpoint_path=ck)
        with pytest.raises(ValueError, match="different problem"):
            run_ga(tiny_problem(**change), k_max=2, pop_size=4, n_parents=2,
                   seed=2, resume_from=ck)

    def test_resume_parameter_mismatch_rejected(self, tmp_path):
        ck = tmp_path / "ck.json"
        run_ga(tiny_problem(), k_max=1, pop_size=4, n_parents=2, seed=2,
               checkpoint_path=ck)
        with pytest.raises(ValueError, match="do not match"):
            run_ga(tiny_problem(), k_max=2, pop_size=6, n_parents=2, seed=2,
                   resume_from=ck)

    def test_foreign_checkpoint_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="checkpoint"):
            run_ga(tiny_problem(), k_max=1, pop_size=4, n_parents=2,
                   resume_from=bad)

    def check_failed_write_keeps_previous(self, tmp_path, monkeypatch,
                                          spoil, match):
        ck = tmp_path / "ck.json"
        run_ga(tiny_problem(), k_max=1, pop_size=4, n_parents=2, seed=2,
               checkpoint_path=ck)
        before = ck.read_bytes()
        spoil(monkeypatch)
        with pytest.raises(OSError, match=match):
            run_ga(tiny_problem(), k_max=2, pop_size=4, n_parents=2, seed=2,
                   checkpoint_path=ck, resume_from=ck)
        monkeypatch.undo()
        assert ck.read_bytes() == before
        assert os.listdir(tmp_path) == ["ck.json"]
        resumed = run_ga(tiny_problem(), k_max=1, pop_size=4, n_parents=2,
                         seed=2, resume_from=ck)
        assert resumed.generation == 1

    def test_failed_checkpoint_write_keeps_previous(self, tmp_path,
                                                    monkeypatch):
        class TornFile:
            """Writes half of what it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def fileno(self):
                return self.fh.fileno()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError("disk full")

        def spoil(mp):
            mp.setattr(cmadof.svgplot, "open",
                       lambda *args, **kw: TornFile(open(*args, **kw)),
                       raising=False)

        self.check_failed_write_keeps_previous(tmp_path, monkeypatch, spoil,
                                               "disk full")

    def test_failed_checkpoint_preallocation_keeps_previous(self, tmp_path,
                                                            monkeypatch):
        def no_space(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def spoil(mp):
            mp.setattr(os, "posix_fallocate", no_space, raising=False)

        self.check_failed_write_keeps_previous(
            tmp_path, monkeypatch, spoil, os.strerror(errno.ENOSPC))
