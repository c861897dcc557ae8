"""Tests for the genetic optimizer: operators, caching, evolution loop."""

import dataclasses
import errno
import inspect
import json
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import c as c0
from scipy.stats import chisquare

import cmadof.channel
import cmadof.cma
import cmadof.efie
import cmadof.ga
import cmadof.svgplot
from cmadof.cma import (excitation_matrix, mode_patterns, pattern_gram_dev,
                        solve_modes)
from cmadof.dofcore import (EquivalentChannel, achievable_dof, dof_bounds,
                            equivalent_channel, gamma_decomposition,
                            matrix_rank, receiver_map, transmitter_map)
from cmadof.channel import RANK_TOL, assemble_channel, effective_rank
from cmadof.cli import _make_problem
from cmadof.config import RunConfig
from cmadof.efie import (ImpedanceOperator, assemble_impedance,
                         delta_gap_excitation)
from cmadof.errors import (DegenerateStructureError, GeometryError,
                            RankDeficiencyError)
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
                         face_rows, face_sampling_operator, locate_port_edges)
from oracles import (eager_plate_diagnostics, full_wave_channel, parent_edges,
                     refined_link)

FREQ = 27e9
LAM = c0 / FREQ
PIX = 0.24 * LAM

#: written by `run_ga(tiny_problem(), k_max=2, pop_size=6, n_parents=4,
#: seed=11, checkpoint_path=...)` in the v1 checkpoint format; its fitness
#: and best-history values were re-recorded from the v2 checkpoint of the
#: same call when H came to be formed on the live rows only, which moved
#: them in the last digit
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

    @pytest.mark.parametrize("text, n_bits, match", [
        ("ffff", 8, "bytes"), ("000000", 16, "bytes"), ("01", 7, "padding"),
        ("ff", 1, "padding"),
    ])
    def test_non_canonical_rejected(self, text, n_bits, match):
        with pytest.raises(ValueError, match=match):
            phi_from_hex(text, n_bits)


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

    @pytest.mark.parametrize("n_keep", [0, -1, 2.5, 2.0, True, "2", None])
    def test_n_keep_refused_at_construction(self, n_keep):
        # before, 0 failed only at the first evaluation and 2.5 was
        # analyzed as 2 but fingerprinted as 2.5
        with pytest.raises(ValueError, match="n_keep must be an integer"):
            tiny_problem(n_keep=n_keep)

    def test_numpy_integer_n_keep_is_fingerprinted_as_int(self):
        p = tiny_problem(n_keep=np.int64(3))
        assert type(p.n_keep) is int
        assert p.fingerprint() == tiny_problem(n_keep=3).fingerprint()

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
            got = model.gather(bits)
            z, s, b = direct_operators(model, bits, got.faces)
            assert np.array_equal(got.impedance.z, z)
            assert np.array_equal(got.sampler, s)
            assert np.array_equal(got.ports, b)

    def test_gathered_topology_equals_direct(self):
        spec = acceptance7_spec()
        model = PlateModel.build(spec, FREQ)
        rng = np.random.default_rng(8)
        for _ in range(10):
            bits = rng.integers(0, 2, spec.n_bits)
            faces = model.gather(bits).faces
            mesh = build_plate_mesh(spec, bits)
            direct = extract_rwg(mesh)
            parent = model.basis
            # the parent vertex of each direct vertex, through the faces
            vertex = np.full(len(mesh.vertices), -1)
            vertex[mesh.faces] = parent.mesh.faces[faces]
            assert np.array_equal(parent.mesh.vertices[vertex], mesh.vertices)
            assert np.array_equal(vertex[mesh.faces], parent.mesh.faces[faces])
            # direct edge i is parent edge p[i]
            p = parent_edges(parent, faces, direct)
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
        got = model.gather(np.ones(spec.n_bits))
        assert same_bytes(got.impedance.z, model.impedance.z)
        assert same_bytes(got.sampler, model.sampler)
        assert same_bytes(got.ports, model.excitation)
        assert np.array_equal(got.faces, np.arange(2 * spec.n_bits))

    def test_all_metal_link_analyzes_the_parent_channel(self, monkeypatch):
        # the report's G is the parents' channel itself, not a block of it
        p = PixelProblem(tx_spec=cli_default_spec(), rx_spec=acceptance7_spec(),
                         frequency=FREQ, separation=1.0 * LAM)
        evaluate(p, np.ones(p.bit_length, dtype=np.uint8))

        def refuse(*args, **kwargs):
            raise AssertionError("the report took a block of the channel")

        monkeypatch.setattr(cmadof.channel.ChannelOperator, "block", refuse)
        report = link_report(p, np.ones(p.bit_length))
        assert report is not None
        assert report.g_singulars.tobytes() == p.channel.singulars.tobytes()

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
            tx_faces = tx_model.gather(tx_bits).faces
            rx_faces = rx_model.gather(rx_bits).faces
            rx_mesh = build_plate_mesh(rx_spec, rx_bits).translated(
                (0.0, 0.0, p.separation))
            direct = assemble_channel(build_plate_mesh(tx_spec, tx_bits),
                                      rx_mesh, p.wavenumber)
            gathered = p.channel.block(face_rows(rx_faces),
                                       face_rows(tx_faces))
            assert np.array_equal(gathered, direct.matrix)

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


def full_channel(problem, tx, rx):
    """H of two plate analyses by the public maps on the full gathered G."""
    u_t = transmitter_map(tx.patterns, tx.modes.significances, tx.v)
    u_r = receiver_map(rx.v, rx.modes.significances, rx.patterns)
    g = problem.channel.block(face_rows(rx.faces), face_rows(tx.faces))
    return equivalent_channel(u_r, g, u_t)


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
                               n_keep=10)
            want.drop_insignificant()
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
            assert pattern_gram_dev(plate.patterns) == \
                pattern_gram_dev(patterns)

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
        got = model.gather(bits)
        patterns = mode_patterns(modes, got.sampler)
        return PlateAnalysis(modes=modes,
                             v=excitation_matrix(modes, got.ports),
                             patterns=patterns, faces=got.faces)

    def test_mode_sign_leaves_sigma_h(self):
        spec = acceptance7_spec()
        p = PixelProblem(tx_spec=spec, rx_spec=spec, frequency=FREQ,
                         separation=1.0 * LAM, n_keep=10)
        model = p.models[0]
        rng = np.random.default_rng(31)

        def sigma_h(tx, rx):
            return full_channel(p, tx, rx).singulars

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


def full_chain(problem, phi):
    """H of one configuration by `full_channel`, with (model, bits,
    analysis) of both plates."""
    plates = [(model, bits, analyze_plate(model, bits, problem.n_keep))
              for model, bits in zip(problem.models, problem.split(phi))]
    return full_channel(problem, plates[0][2], plates[1][2]), plates


def acceptance7_problem():
    spec = acceptance7_spec()
    return PixelProblem(tx_spec=spec, rx_spec=spec, frequency=FREQ,
                        separation=1.0 * LAM, n_keep=10)


def ga_link_problem():
    """The benchmark's small link: 4 x 8 pixels at 0.35 wavelength."""
    return _make_problem(RunConfig(pixel_size=0.35 * LAM,
                                   separation=1.0 * LAM, n_keep=10))


def dof_large_problem():
    """The benchmark's large link: 8 x 16 pixels, 8 ports."""
    return _make_problem(RunConfig(tx_ports=8, rx_ports=8,
                                   tx_pixels_per_port=16,
                                   rx_pixels_per_port=16))


def harrington_mautz_currents(op, ports):
    """The all-mode Harrington-Mautz expansion of a plate's port currents:
    every mode scaled to j^T R_psd j = 1 and weighted by
    (j^T b) / (1 + j lambda)."""
    modes = solve_modes(op, n_keep=len(op.z))
    j = modes.mode_coeffs
    j = j / np.sqrt(np.einsum("ei,ef,fi->i", j, op.r_psd, j))
    return j @ ((j.T @ ports) / (1.0 + 1j * modes.eigenvalues)[:, None])


LINKS = [ga_link_problem, acceptance7_problem,
         lambda: _make_problem(RunConfig())]
LINK_IDS = ["ga_link", "acceptance7", "cli_default"]


class TestFullWaveChannel:
    """ROADMAP item 14's identities on the port-to-port channel of the
    package's own MoM (`oracles.full_wave_channel`): the modal machinery
    reproduces it once every mode is kept, scaled and weighted as
    Harrington and Mautz do (IEEE TAP 19(5), 1971) and received by the
    transmit map's transpose; and it is reciprocal."""

    @pytest.mark.parametrize("make_problem", LINKS, ids=LINK_IDS)
    def test_all_mode_expansion_equals_it(self, make_problem):
        p = make_problem()
        for phi in np.random.default_rng(14).integers(0, 2, (5, p.bit_length)):
            want = full_wave_channel(p, phi)
            got = full_wave_channel(p, phi, harrington_mautz_currents)
            assert np.linalg.norm(got - want, 2) <= \
                1e-9 * np.linalg.norm(want, 2)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the all-metal "
                       "pencil is cut at REL_RANK_CUT, so not every mode is "
                       "kept")
    @pytest.mark.parametrize("make_problem", LINKS, ids=LINK_IDS)
    def test_all_mode_expansion_equals_it_on_the_all_metal_plates(
            self, make_problem):
        p = make_problem()
        ones = np.ones(p.bit_length)
        want = full_wave_channel(p, ones)
        got = full_wave_channel(p, ones, harrington_mautz_currents)
        assert np.linalg.norm(got - want, 2) <= 1e-9 * np.linalg.norm(want, 2)

    @pytest.mark.parametrize("make_problem", LINKS, ids=LINK_IDS)
    def test_swapping_the_roles_transposes_it(self, make_problem):
        p = make_problem()
        swapped = PixelProblem(tx_spec=p.rx_spec, rx_spec=p.tx_spec,
                               frequency=p.frequency,
                               separation=p.separation, n_keep=p.n_keep)
        swapped.models = p.models[::-1]
        rng = np.random.default_rng(15)
        for phi in [np.ones(p.bit_length),
                    *rng.integers(0, 2, (5, p.bit_length))]:
            h = full_wave_channel(p, phi)
            back = full_wave_channel(swapped,
                                     np.concatenate(p.split(phi)[::-1]))
            assert np.linalg.norm(back - h.T) <= 1e-12 * np.linalg.norm(h)


class TestMeshRefinement:
    """ROADMAP item 19: the full-wave channel converges as the mesh is
    refined. On the `ga_link` link, the all-metal configuration and two
    random ones (`default_rng(0)`), meshed 1x, 2x and 3x finer
    (`oracles.refined_link`), H_fw's sigma_2/sigma_1 and sigma_3/sigma_1
    move less than half as much from 2x to 3x as from 1x to 2x. An error
    that falls as h^p moves (2^-p - 3^-p) / (1 - 2^-p) as much: 0.19 at
    p = 2, 1/3 at p = 1 and 1/2 at p = 0.3. The moves are the norm over
    the six ratios (0.092 against 0.264): one ratio alone need not fall
    at these meshes (the second random configuration's sigma_3/sigma_1
    moved 0.042 and then 0.081)."""

    def test_full_wave_ratios_move_less_at_each_refinement(self):
        p = ga_link_problem()
        assert refined_link(p.tx_spec, 1)[0] == p.tx_spec
        configs = [np.ones(p.bit_length, dtype=np.uint8),
                   *np.random.default_rng(0).integers(
                       0, 2, (2, p.bit_length), dtype=np.uint8)]
        ratios = []
        for n in (1, 2, 3):
            fine, bit_map, port_sum = refined_link(p.tx_spec, n)
            q = PixelProblem(tx_spec=fine, rx_spec=fine,
                             frequency=p.frequency, separation=p.separation,
                             n_keep=p.n_keep)
            for phi in configs:
                t, r = p.split(phi)
                h = port_sum.T @ full_wave_channel(
                    q, np.concatenate([t[bit_map], r[bit_map]])) @ port_sum
                s = np.linalg.svd(h, compute_uv=False)
                ratios.append(s[1:3] / s[0])
        r1, r2, r3 = np.reshape(ratios, (3, -1))
        assert np.linalg.norm(r3 - r2) < 0.5 * np.linalg.norm(r2 - r1)


class TestRoundoffAmplification:
    """ROADMAP item 2, test first: a seeded symmetric perturbation of the
    parent Z by 1e-15 relative, (E + E^T)/2 with E standard normal, moves
    the all-metal h_singulars by at most 1e-9 of sigma_1. Today that move
    is 3.9e-10 on `ga_link`, 3.2e-7 on the CLI default link and 2.8e-6 on
    `dof_large`: the truncated pencil amplifies roundoff by about 1/cut.
    On `ga_link` it depends on the draw: seeds 0-7 gave 1.6e-10 to
    1.2e-9."""

    @pytest.mark.parametrize("make_problem", [
        ga_link_problem,
        pytest.param(lambda: _make_problem(RunConfig()),
                     marks=pytest.mark.xfail(strict=True,
                                             reason="ROADMAP item 2")),
        pytest.param(dof_large_problem,
                     marks=pytest.mark.xfail(strict=True,
                                             reason="ROADMAP item 2")),
    ], ids=["ga_link", "cli_default", "dof_large"])
    def test_all_metal_spectrum_survives_a_roundoff_change_of_z(
            self, make_problem):
        p = make_problem()
        ones = np.ones(p.bit_length, dtype=np.uint8)
        want = evaluate(p, ones).h_singulars
        model, rx = p.models
        assert rx is model
        z = model.impedance.z
        e = np.random.default_rng(0).standard_normal(z.shape)
        z = z * (1.0 + 1e-15 * (e + e.T) / 2)
        bumped = dataclasses.replace(
            model, impedance=ImpedanceOperator(z=z, frequency=FREQ))
        q = make_problem()
        q.models = (bumped, bumped)
        q.channel = p.channel
        got = evaluate(q, ones).h_singulars
        assert np.abs(got - want).max() <= 1e-9 * want[0]


class TestLeanFitness:
    """`evaluate` forms H on the x and y rows of the plates only and reads no
    diagnostic; its sigma(H) is the full chain's to roundoff, and the
    diagnostics, computed when read, are the eager arithmetic's bytes."""

    @pytest.mark.parametrize("make_problem, n_random", [
        (acceptance7_problem, 20),
        (lambda: _make_problem(RunConfig()), 20),
        (dof_large_problem, 2),
    ], ids=["acceptance7", "cli_default", "dof_large"])
    def test_score_matches_full_chain(self, make_problem, n_random):
        p = make_problem()
        rng = np.random.default_rng(29)
        phis = list(rng.integers(0, 2, size=(n_random, p.bit_length)))
        if n_random == 2:
            phis.append(np.ones(p.bit_length, dtype=np.uint8))
        scored = 0
        for phi in phis:
            score = evaluate(p, phi)
            if score.h_singulars is None:
                with pytest.raises((DegenerateStructureError,
                                    RankDeficiencyError)):
                    full_chain(p, phi)
                continue
            scored += 1
            ch, plates = full_chain(p, phi)
            want = ch.singulars
            np.testing.assert_allclose(score.h_singulars, want, rtol=0.0,
                                       atol=1e-12 * want[0])
            assert score.dof_h == achievable_dof(ch, p.gamma)
            for model, bits, plate in plates:
                got = model.gather(bits)
                residuals, cross, gram = eager_plate_diagnostics(
                    got.impedance, got.sampler, p.n_keep,
                    cmadof.cma.SIGNIFICANCE_FLOOR)
                modes = plate.modes
                assert modes.eigen_residuals.tobytes() == residuals.tobytes()
                assert modes.r_cross_max == cross
                assert pattern_gram_dev(plate.patterns) == gram
        assert scored >= 0.75 * len(phis)

    def test_rank_deficient_receive_is_degenerate(self, caplog):
        # one mode cannot separate two receive ports
        p = tiny_problem(n_keep=1)
        phi = np.ones(p.bit_length, dtype=np.uint8)
        rx = analyze_plate(p.models[1], p.split(phi)[1], p.n_keep)
        assert rx.v.shape == (1, 2)
        with caplog.at_level("WARNING", logger="cmadof.ga"):
            score = evaluate(p, phi)
        assert score == (None, None, NEG_INF)
        assert ("modal excitation matrix has rank 1 < 2 receive ports\n"
                in caplog.text)
        assert link_report(p, phi) is None

    def test_lapack_calls_per_evaluation(self, monkeypatch):
        # 2 eigh per unclamped plate; SVDs of V_R, the receive patterns
        # and H; and no channel operator beyond the parents'
        p = ga_link_problem()
        p.models, p.channel
        phi = np.random.default_rng(3).integers(0, 2, p.bit_length)
        phi_t, phi_r = p.split(phi)
        assert not np.array_equal(phi_t, phi_r)
        for bits in (phi_t, phi_r):
            z = p.models[0].gather(bits).impedance.z
            r_psd = ImpedanceOperator(z=z, frequency=FREQ).r_psd
            assert np.array_equal(r_psd, 0.5 * (z.real + z.real.T))
        calls = {"eigh": 0, "svd": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate built a ChannelOperator")

        svd = counting("svd", np.linalg.svd)
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh",
                                                        np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "svd", svd)
        # the module-global binding that np.linalg.pinv calls
        monkeypatch.setitem(inspect.unwrap(np.linalg.pinv).__globals__,
                            "svd", svd)
        monkeypatch.setattr(cmadof.channel.ChannelOperator, "__init__",
                            refuse)
        assert evaluate(p, phi).h_singulars is not None
        assert calls == {"eigh": 4, "svd": 3}


def ix_gather(model, bits):
    """(Z, S, B, faces) of one configuration, indexed from the parent with
    `np.ix_` and looked up face by face: its edges are the parent's whose
    plus and minus faces are both kept."""
    faces = (2 * model.spec.metal_pixels(bits)[:, None]
             + np.arange(2)).ravel()
    kept = np.zeros(model.basis.mesh.n_faces, dtype=bool)
    kept[faces] = True
    e = np.flatnonzero(kept[model.basis.plus_face]
                       & kept[model.basis.minus_face])
    rows = face_rows(faces)
    return (model.impedance.z[np.ix_(e, e)], model.sampler[np.ix_(rows, e)],
            model.excitation[e], faces)


def ix_score(problem, phi):
    """(sigma(H), fitness) of one configuration by `ix_gather`, the modes,
    `np.linalg.norm`, `np.linalg.pinv`, `np.ix_` on the parents' channel
    and `np.mean`."""
    plates = []
    for model, bits in zip(problem.models, problem.split(phi)):
        z, s, b, faces = ix_gather(model, bits)
        rows = face_rows(faces)
        # the sampler's live rows, those not all zero in the parent's
        live = np.any(model.sampler, axis=1)[rows]
        rows = rows[live]
        modes = solve_modes(ImpedanceOperator(z=z, frequency=FREQ),
                            n_keep=problem.n_keep)
        modes.drop_insignificant()
        raw = s @ modes.mode_coeffs
        patterns = (raw / np.linalg.norm(raw, axis=0)[None, :])[live]
        plates.append((1.0 / (1.0 + 1j * modes.eigenvalues),
                       modes.mode_coeffs.T @ b, patterns, rows))
    (m_t, v_t, p_t, cols), (m_r, v_r, p_r, rows) = plates
    u_t = p_t @ (m_t[:, None] * v_t)
    u_r = np.linalg.pinv(v_r, rcond=RANK_TOL) @ (
        (1.0 / m_r)[:, None] * np.linalg.pinv(p_r, rcond=RANK_TOL))
    g = problem.channel.matrix[np.ix_(rows, cols)]
    h = u_r @ g @ u_t
    sing = np.linalg.svd(h, compute_uv=False)
    lead = sing[:min(h.shape)]
    return sing, float(-np.sqrt(np.mean((lead - lead.mean()) ** 2)))


def same_bytes(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.flags.c_contiguous == want.flags.c_contiguous
            and got.tobytes() == want.tobytes())


class TestTakeGathers:
    """The `take` gathers, their faces and rows computed from the metal
    pixels, copy the same bytes, in the same layout, as indexing with
    `np.ix_` at faces looked up face by face; G's block is the channel
    assembled directly between the configured plates; and the rows H is
    formed on, the x and y rows of each face, are the sampler's live
    rows."""

    @pytest.mark.parametrize("make_spec", [
        lambda: ga_link_problem().tx_spec, cli_default_spec,
        lambda: dof_large_problem().tx_spec,
        lambda: PlateSpec(width=5 * 0.3 * LAM, height=3 * 0.2 * LAM,
                          pixel_rows=3, pixel_cols=5, ports=3),
    ], ids=["ga_link", "cli_default", "dof_large", "rectangular_pixels"])
    def test_live_sampler_rows_are_the_x_and_y_rows(self, make_spec):
        spec = make_spec()
        sampler = PlateModel.build(spec, FREQ).sampler
        faces = np.arange(sampler.shape[0] // 3)
        xy = (3 * faces[:, None] + np.arange(2)).ravel()
        assert np.array_equal(np.any(sampler, axis=1).nonzero()[0], xy)
        assert np.array_equal(face_rows(faces, 2), xy)

    @pytest.mark.parametrize("make_problem", [
        ga_link_problem, lambda: _make_problem(RunConfig()),
        dof_large_problem,
    ], ids=["ga_link", "cli_default", "dof_large"])
    def test_gathers_equal_ix_bytes(self, make_problem):
        p = make_problem()
        rng = np.random.default_rng(41)
        phis = [*rng.integers(0, 2, (20, p.bit_length)),
                np.ones(p.bit_length), np.zeros(p.bit_length)]
        for phi in phis:
            plates = []
            for model, bits in zip(p.models, p.split(phi)):
                got = model.gather(bits)
                want = ix_gather(model, bits)
                for i, (g, w) in enumerate(zip((got.impedance.z, *got[1:]),
                                               want, strict=True)):
                    assert same_bytes(g, w), i
                plates.append(want)
            (*_, tx_faces), (*_, rx_faces) = plates
            tx_bits, rx_bits = p.split(phi)
            rx_mesh = build_plate_mesh(p.rx_spec, rx_bits).translated(
                (0.0, 0.0, p.separation))
            direct = assemble_channel(build_plate_mesh(p.tx_spec, tx_bits),
                                      rx_mesh, p.wavenumber)
            assert same_bytes(p.channel.block(face_rows(rx_faces),
                                              face_rows(tx_faces)),
                              direct.matrix)

    def test_score_equals_ix_pipeline_bytes(self):
        # modes and everything after them spelled out with numpy's own
        # norm, pseudo-inverse and mean
        p = ga_link_problem()
        rng = np.random.default_rng(43)
        scored = 0
        for phi in rng.integers(0, 2, (50, p.bit_length)):
            score = evaluate(p, phi)
            if score.h_singulars is None:
                continue
            scored += 1
            sing, fit = ix_score(p, phi)
            assert score.h_singulars.tobytes() == sing.tobytes()
            assert score.fitness == fit
        assert scored >= 40

    def test_report_takes_six_svds(self, monkeypatch):
        # G's spectrum; the pseudo-inverses of both pattern matrices, which
        # give their ranks; the ranks of V_R, V_T and Gamma, Gamma's once
        p = ga_link_problem()
        phi = np.random.default_rng(3).integers(0, 2, p.bit_length)
        assert evaluate(p, phi).h_singulars is not None
        link = p.best_link[1]
        tx, rx = link.tx, link.rx
        g = p.channel.block(face_rows(rx.faces), face_rows(tx.faces))
        gm = gamma_decomposition(g, rx.patterns, tx.patterns)
        (n_r, l_r), (n_t, l_t) = rx.v.shape, tx.v.shape
        *_, lower = dof_bounds(rx.v, tx.v, gm.gamma, n_r, n_t, l_t, l_r,
                               np.linalg.svd(g, compute_uv=False))
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        monkeypatch.setitem(inspect.unwrap(np.linalg.pinv).__globals__,
                            "svd", counting)
        report = link_report(p, phi)
        assert len(calls) == 6
        assert report.gamma_matrix_rank == matrix_rank(gm.gamma)
        assert report.lower_bound == lower


class TestEvaluate:
    def test_wrong_length_rejected(self):
        p = tiny_problem()
        with pytest.raises(ValueError, match="bits"):
            evaluate(p, np.ones(5, dtype=np.uint8))

    def test_non_binary_rejected(self):
        p = tiny_problem()
        for bit in (0.5, 1.5, 2, -1, np.nan):
            phi = np.ones(8)
            phi[3] = bit
            with pytest.raises(ValueError, match="0 or 1"):
                evaluate(p, phi)
        with pytest.raises(ValueError, match="0 or 1"):
            evaluate(p, np.full(8, 2, dtype=np.uint8))
        assert p.evaluations == 0

    def test_binary_dtypes_score_alike(self):
        bits = [1, 0, 1, 1, 0, 1, 1, 0]
        want = evaluate(tiny_problem(), np.array(bits, dtype=np.uint8))
        for dtype in (bool, np.int8, float):
            got = evaluate(tiny_problem(), np.array(bits, dtype=dtype))
            assert got.h_singulars.tobytes() == want.h_singulars.tobytes()
            assert got[1:] == want[1:]

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

    def test_fresh_run_empties_the_log(self, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text('{"generation": 0}\n{"generation": 7}\n')
        run_ga(tiny_problem(), k_max=1, pop_size=4, n_parents=2, seed=7,
               log_path=log)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [rec["generation"] for rec in records] == [0, 1]
        assert all("best_phi_hex" in rec for rec in records)

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
