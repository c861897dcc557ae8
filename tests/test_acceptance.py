"""End-to-end qualification suite for the package.

One test per numbered acceptance requirement, in run order; each prints a
single summary line on success so a verbose run reads as a checklist:

  1. characteristic-mode invariants on a mid-size plate vs a dense solve
  2. impedance symmetry and the high-order quadrature entry oracle
  3. Green-kernel symmetry, far-field dominance, scalar invariance of DoF
  4. randomized rank-bound chain (upper and lower bounds, 120 instances)
  5. receiver projection: annihilation, normal-equations oracle, recovery
  6. reduction of decoupled pixel elements to the point-source array model
  7. GA efficacy over a random-configuration baseline (10 seeds)
  8. growth of the significant-mode count with plate aperture
  9. hand-computable spectra, exact to the last bit

Test 7 dominates the wall clock (ten seeded optimizations plus a
fifty-sample baseline, a few minutes with four workers).
"""

import time

import numpy as np
import pytest
from scipy.constants import c as c0

from oracles import dense_reduced_pencil_eigs, oracle_impedance_entry

from cmadof.channel import (
    ChannelOperator,
    assemble_channel,
    dof_g,
    effective_rank,
    green_dyadic,
)
from cmadof.cma import excitation_matrix, mode_patterns, solve_modes
from cmadof.dofcore import (
    ElementAnalysis,
    EquivalentChannel,
    achievable_dof,
    block_leakage,
    conventional_reduce,
    dof_bounds,
    equivalent_channel,
    matrix_rank,
    receiver_map,
    transmitter_map,
)
from cmadof.efie import (
    ImpedanceOperator,
    assemble_impedance,
    delta_gap_excitation,
)
from cmadof.ga import PixelProblem, evaluate, fitness, run_ga
from cmadof.mesh import (
    PlateSpec,
    build_plate_mesh,
    extract_rwg,
    face_sampling_operator,
    locate_port_edges,
)

FREQ = 27e9
LAM = c0 / FREQ
K0 = 2.0 * np.pi / LAM
PIX = 0.24 * LAM


def rand_c(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_modal(rng, n):
    return rng.uniform(0.05, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))


def plate_basis(rows, cols, bits=None):
    spec = PlateSpec(width=cols * PIX, height=rows * PIX, pixel_rows=rows,
                     pixel_cols=cols, ports=1)
    if bits is None:
        bits = np.ones(spec.n_bits, dtype=int)
    mesh = build_plate_mesh(spec, np.asarray(bits, dtype=int))
    return spec, mesh, extract_rwg(mesh)


def test_01_characteristic_modes_on_plate():
    """Mode invariants and a dense generalized solve on a 176-edge plate."""
    _, _, basis = plate_basis(8, 8)
    assert 100 <= basis.n_edges <= 300
    t0 = time.monotonic()
    op = assemble_impedance(basis, FREQ)
    modes = solve_modes(op, n_keep=basis.n_edges)
    elapsed = time.monotonic() - t0

    assert np.all(modes.eigen_residuals <= 1e-8)

    cross = modes.mode_coeffs.T @ op.r_psd @ modes.mode_coeffs
    diag_scale = np.abs(np.diag(cross)).max()
    off = np.abs(cross - np.diag(np.diag(cross))).max()
    assert off <= 1e-8 * max(diag_scale, 1.0)

    oracle = dense_reduced_pencil_eigs(0.5 * (op.x + op.x.T), op.r_psd)
    got = np.sort(modes.eigenvalues)
    assert got.shape == oracle.shape
    np.testing.assert_allclose(got, oracle, rtol=1e-6)

    assert elapsed < 30.0
    print(f"\nacceptance 1/9 PASS: {basis.n_edges} edge pairs, "
          f"{modes.n_kept} modes, max residual "
          f"{modes.eigen_residuals.max():.2e}, R-cross "
          f"{off / max(diag_scale, 1.0):.2e}, dense solve matched at 1e-6, "
          f"{elapsed:.1f}s")


def test_02_impedance_symmetry_and_quadrature_oracle():
    """Z stays symmetric on every mesh; entries match refined quadrature."""
    worst_asym = 0.0
    cases = [
        (1, 1, None),
        (1, 2, None),
        (2, 2, None),
        (3, 3, None),
        (3, 3, [1, 0, 1, 1, 1, 0, 0, 1, 1]),
    ]
    for rows, cols, bits in cases:
        _, _, basis = plate_basis(rows, cols, bits)
        z = assemble_impedance(basis, FREQ).z
        worst_asym = max(worst_asym, np.abs(z - z.T).max() / np.abs(z).max())
    assert worst_asym <= 1e-10

    _, _, basis1 = plate_basis(1, 1)
    assert basis1.n_edges == 1
    z_self = assemble_impedance(basis1, FREQ).z[0, 0]
    ref_self = oracle_impedance_entry(basis1, 0, 0, FREQ,
                                      outer_levels=3, duffy_order=16)
    rel_self = abs(z_self - ref_self) / abs(ref_self)
    assert rel_self < 1e-3

    _, _, basis2 = plate_basis(1, 2)
    m, n = 0, basis2.n_edges - 1
    z_pair = assemble_impedance(basis2, FREQ).z[m, n]
    ref_pair = oracle_impedance_entry(basis2, m, n, FREQ,
                                      outer_levels=2, duffy_order=12)
    rel_pair = abs(z_pair - ref_pair) / abs(ref_pair)
    assert rel_pair < 1e-3

    print(f"\nacceptance 2/9 PASS: worst asymmetry {worst_asym:.2e} over "
          f"{len(cases)} meshes, self entry off oracle by {rel_self:.2e}, "
          f"neighbor entry by {rel_pair:.2e}")


def test_03_green_kernel_and_scalar_invariance():
    """Kernel symmetry, 100-wavelength dominance, DoF scale invariance."""
    rng = np.random.default_rng(2026)
    for _ in range(10):
        r1 = rng.uniform(-1.0, 1.0, 3) * LAM
        r2 = r1 + rng.uniform(0.3, 3.0) * LAM * _unit(rng)
        g = green_dyadic(r1, r2, K0)
        assert np.array_equal(g, g.T)
        assert np.array_equal(green_dyadic(r2, r1, K0), g)

    r1 = np.zeros(3)
    r2 = 100.0 * LAM * _unit(rng)
    g_full = green_dyadic(r1, r2, K0)
    g_lead = green_dyadic(r1, r2, K0, n_terms=1)
    dom = np.linalg.norm(g_full - g_lead) / np.linalg.norm(g_full)
    assert dom < 0.01

    _, tx, _ = plate_basis(2, 2)
    rx = tx.translated((0.0, 0.0, 0.02))
    op = assemble_channel(tx, rx, K0)
    base_g = dof_g(op)
    u_r = rand_c(rng, 4, op.matrix.shape[0])
    u_t = rand_c(rng, op.matrix.shape[1], 4)
    base_h = achievable_dof(equivalent_channel(u_r, op.matrix, u_t))
    for _ in range(10):
        c = ((rng.standard_normal() + 1j * rng.standard_normal())
             * 10.0 ** rng.integers(-3, 4))
        scaled = ChannelOperator(matrix=c * op.matrix, k0=op.k0,
                                 tx_centroids=op.tx_centroids,
                                 rx_centroids=op.rx_centroids,
                                 tx_areas=op.tx_areas)
        assert dof_g(scaled) == base_g
        assert achievable_dof(
            equivalent_channel(u_r, c * op.matrix, u_t)) == base_h

    print(f"\nacceptance 3/9 PASS: 10 symmetric/swap-exact kernel pairs, "
          f"100-wavelength dominance gap {dom:.2%}, dof_G={base_g[0]} and "
          f"dof_H={base_h} exact under 10 complex scalings")


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _synth_bound_instance(rng):
    """Random port/mode/coupling instance with known construction ranks."""
    n_t = int(rng.integers(2, 9))
    n_r = int(rng.integers(2, 9))
    l_t = int(rng.integers(1, 7))
    l_r = int(rng.integers(1, 7))
    nf_t = int(rng.integers(max(n_t, l_t), 14))
    nf_r = int(rng.integers(max(n_r, l_r), 14))
    v_t = rand_c(rng, n_t, l_t)
    v_r = rand_c(rng, n_r, l_r)
    r_gam = int(rng.integers(0, min(n_r, n_t) + 1))
    gam = (rand_c(rng, n_r, r_gam) @ rand_c(rng, r_gam, n_t)
           if r_gam else np.zeros((n_r, n_t), complex))
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


def test_04_rank_bound_suite():
    """Zero bound violations over 120 randomized synthetic instances."""
    rng = np.random.default_rng(20260819)
    t0 = time.monotonic()
    checked = 0
    while checked < 120:
        v_r, v_t, gam, m_r, m_t, ebar, jbar, g = _synth_bound_instance(rng)
        n_r, l_r = v_r.shape
        n_t, l_t = v_t.shape
        if matrix_rank(v_r) < l_r:
            continue
        u_t = transmitter_map(jbar, m_t, v_t)
        u_r = receiver_map(v_r, m_r, ebar)
        ch = equivalent_channel(u_r, g, u_t)
        g_sing = np.linalg.svd(g, compute_uv=False)
        upper_pm, upper_ch, lower = dof_bounds(
            v_r, v_t, gam, n_r, n_t, l_t, l_r, g_sing)
        rank_h = matrix_rank(ch.matrix)
        assert achievable_dof(ch) <= upper_pm
        assert rank_h <= upper_pm
        assert rank_h <= matrix_rank(g)
        assert rank_h >= max(0, lower)
        assert upper_ch == effective_rank(g_sing, 0.5)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nacceptance 4/9 PASS: {checked} instances, zero violations of "
          f"the port/mode ceiling, channel-rank ceiling, and rank lower "
          f"bound, {elapsed:.1f}s")


def test_05_receiver_projection_and_recovery():
    """Out-of-span fields vanish; in-span coefficients come back exactly."""
    rng = np.random.default_rng(55)
    worst_oracle = worst_annihilation = worst_recovery = 0.0
    for _ in range(50):
        n_r = int(rng.integers(2, 10))
        l_r = int(rng.integers(1, n_r + 1))
        n_fld = int(rng.integers(n_r, n_r + 25))
        v_r = rand_c(rng, n_r, l_r)
        m_r = rand_modal(rng, n_r)
        patterns, _ = np.linalg.qr(rand_c(rng, 3 * n_fld, n_r))
        u_r = receiver_map(v_r, m_r, patterns)

        v_pinv = np.linalg.solve(v_r.conj().T @ v_r, v_r.conj().T)
        e_pinv = np.linalg.solve(patterns.conj().T @ patterns,
                                 patterns.conj().T)
        oracle = v_pinv @ np.diag(1.0 / m_r) @ e_pinv
        worst_oracle = max(
            worst_oracle,
            np.linalg.norm(u_r - oracle) / np.linalg.norm(oracle))

        raw = rand_c(rng, 3 * n_fld)
        e_out = raw - patterns @ (patterns.conj().T @ raw)
        scale = np.linalg.norm(u_r) * np.linalg.norm(e_out)
        worst_annihilation = max(
            worst_annihilation, np.linalg.norm(u_r @ e_out) / scale)

        s = rand_c(rng, l_r)
        field = patterns @ (m_r * (v_r @ s))
        worst_recovery = max(
            worst_recovery,
            np.linalg.norm(u_r @ field - s) / max(np.linalg.norm(s), 1.0))
    assert worst_oracle <= 1e-10
    assert worst_annihilation <= 1e-10
    assert worst_recovery <= 1e-10
    print(f"\nacceptance 5/9 PASS: 50 instances, oracle gap "
          f"{worst_oracle:.2e}, annihilation {worst_annihilation:.2e}, "
          f"recovery {worst_recovery:.2e}")


def _two_element_setup():
    """Two single-pixel elements per side, half-wavelength spacing."""
    spec = PlateSpec(width=3 * PIX, height=PIX, pixel_rows=1, pixel_cols=3,
                     ports=2, spine_pixels=((0, 0), (0, 2)),
                     port_pixels=((0, 0), (0, 2)))
    bits = np.zeros(spec.n_bits, dtype=int)
    mesh_t = build_plate_mesh(spec, bits)
    basis_t = extract_rwg(mesh_t)
    return spec, mesh_t, basis_t


def _analyze_with_matrix(spec, mesh, basis, z):
    op = ImpedanceOperator.from_matrix(z, FREQ, basis)
    modes = solve_modes(op, n_keep=basis.n_edges)
    exc = delta_gap_excitation(basis, locate_port_edges(spec, mesh))
    v = excitation_matrix(modes, exc)
    patt = mode_patterns(modes, face_sampling_operator(basis))
    return modes, v, patt


def _standalone_elements(mesh, faces_by_elem):
    """Per-element analyses from isolated single-pixel solves."""
    elements = []
    for faces in faces_by_elem:
        lo = mesh.vertices[mesh.faces[faces[0]][0]]
        espec = PlateSpec(width=PIX, height=PIX, pixel_rows=1,
                          pixel_cols=1, ports=1)
        emesh = build_plate_mesh(espec, [1]).translated(lo)
        ebasis = extract_rwg(emesh)
        eop = ImpedanceOperator.from_matrix(
            assemble_impedance(ebasis, FREQ).z, FREQ, ebasis)
        emodes = solve_modes(eop, n_keep=1)
        epatt = mode_patterns(emodes, face_sampling_operator(ebasis))
        elements.append(ElementAnalysis(
            faces=faces, pattern=epatt[:, 0],
            center=emesh.face_centroids.mean(axis=0)))
    return elements


def test_06_conventional_array_reduction():
    """Decoupled elements reduce to the scaled point-source model."""
    spec, mesh_t, basis_t = _two_element_setup()
    z_full = assemble_impedance(basis_t, FREQ).z

    elem_of_edge = mesh_t.face_tags[basis_t.plus_face]
    z_blk = z_full.copy()
    mask = elem_of_edge[:, None] != elem_of_edge[None, :]
    z_blk[mask] = 0.0

    sep = 1e6 * LAM
    mesh_r = mesh_t.translated((0.0, 0.0, sep))
    basis_r = extract_rwg(mesh_r)

    modes_t, v_t, patt_t = _analyze_with_matrix(spec, mesh_t, basis_t, z_blk)
    modes_r, v_r, patt_r = _analyze_with_matrix(spec, mesh_r, basis_r, z_blk)
    u_t = transmitter_map(patt_t, modes_t.significances, v_t)
    u_r = receiver_map(v_r, modes_r.significances, patt_r)
    h = equivalent_channel(u_r, assemble_channel(mesh_t, mesh_r, K0),
                           u_t).matrix

    faces_by_elem = [np.flatnonzero(mesh_t.face_tags == t)
                     for t in sorted(set(mesh_t.face_tags.tolist()))]
    elements_t = _standalone_elements(mesh_t, faces_by_elem)
    elements_r = _standalone_elements(mesh_r, faces_by_elem)
    model = conventional_reduce(elements_t, elements_r, K0,
                                mesh_t.n_faces, mesh_r.n_faces)

    gt = model.g_tilde
    rho = np.vdot(gt, h) / np.vdot(gt, gt)
    rel = np.linalg.norm(h - rho * gt) / np.linalg.norm(rho * gt)
    assert rel <= 1e-6

    modes_c, v_c, patt_c = _analyze_with_matrix(spec, mesh_t, basis_t, z_full)
    u_t_c = transmitter_map(patt_c, modes_c.significances, v_c)
    leak = block_leakage(u_t_c, elements_t)
    assert np.max(leak) < 0.10

    print(f"\nacceptance 6/9 PASS: decoupled pipeline vs point-source model "
          f"off by {rel:.2e}, coupled off-block leakage "
          f"{np.max(leak):.2%} per port")


def test_07_ga_improves_over_random_baseline():
    """Ten seeded GA runs beat the random-configuration median."""
    pix = 0.35 * LAM
    spec = PlateSpec(width=4 * pix, height=8 * pix, pixel_rows=8,
                     pixel_cols=4, ports=4,
                     port_pixels=((0, 0), (2, 0), (4, 0), (6, 0)))
    sep = 1.0 * LAM
    t0 = time.monotonic()

    baseline = PixelProblem(tx_spec=spec, rx_spec=spec, frequency=FREQ,
                            separation=sep, n_keep=10)
    rng = np.random.default_rng(424242)
    rand_dofs = []
    for _ in range(50):
        phi = rng.integers(0, 2, baseline.bit_length).astype(np.int8)
        dof_h = evaluate(baseline, phi).dof_h
        rand_dofs.append(0 if dof_h is None else dof_h)
    rand_median = float(np.median(rand_dofs))

    opt_dofs = []
    monotone_seeds = 0
    for seed in range(10):
        problem = PixelProblem(tx_spec=spec, rx_spec=spec, frequency=FREQ,
                               separation=sep, n_keep=10)
        run = run_ga(problem, k_max=8, pop_size=20, n_parents=10,
                     seed=seed)
        monotone_seeds += all(
            b >= a for a, b in zip(run.best_history, run.best_history[1:]))
        dof_h = evaluate(problem, run.best.phi).dof_h
        opt_dofs.append(0 if dof_h is None else dof_h)
    elapsed = time.monotonic() - t0

    assert monotone_seeds == 10
    assert float(np.median(opt_dofs)) >= rand_median
    strict = sum(d > rand_median for d in opt_dofs)
    assert strict >= 8
    assert elapsed < 1800.0
    print(f"\nacceptance 7/9 PASS: monotone {monotone_seeds}/10 seeds, "
          f"optimized median {np.median(opt_dofs):.1f} vs random median "
          f"{rand_median:.1f}, strict improvement {strict}/10, "
          f"{elapsed:.0f}s")


def test_08_significant_mode_count_grows_with_aperture():
    """Count of strongly radiating modes is non-decreasing in plate size."""
    counts = []
    for rows in range(3, 8):
        spec = PlateSpec(width=8 * PIX, height=rows * PIX, pixel_rows=rows,
                         pixel_cols=8, ports=rows)
        mesh = build_plate_mesh(spec, np.ones(spec.n_bits, dtype=int))
        basis = extract_rwg(mesh)
        modes = solve_modes(assemble_impedance(basis, FREQ),
                            n_keep=basis.n_edges)
        ms = np.abs(modes.significances)
        counts.append(int(np.count_nonzero(ms > 1.0 / np.sqrt(2.0))))
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] > counts[0]
    print(f"\nacceptance 8/9 PASS: significant-mode counts {counts} over "
          f"plate heights 3..7")


def test_09_hand_computable_spectra_exact():
    """Hand-checkable spectra reproduce with zero tolerance."""
    assert effective_rank(np.array([1.0, 0.8, 0.6, 0.1]), 0.5) == 2
    assert effective_rank(np.array([1.0, 1.0, 1.0]), 0.5) == 3

    flat = EquivalentChannel(matrix=np.diag([2.0, 2.0, 2.0]))
    assert achievable_dof(flat) == 3
    assert fitness(flat) == 0.0

    skewed = EquivalentChannel(matrix=np.diag([3.0, 1.0]))
    assert achievable_dof(skewed) == 1
    assert fitness(skewed) == -1.0

    tapered = EquivalentChannel(matrix=np.diag([1.0, 0.8, 0.6, 0.1]))
    assert achievable_dof(tapered) == 2

    assert achievable_dof(EquivalentChannel(matrix=np.zeros((3, 3)))) == 0

    rng = np.random.default_rng(99)
    g = rand_c(rng, 4, 4)
    ch = equivalent_channel(np.eye(4), g, np.eye(4))
    assert np.array_equal(ch.matrix, g)
    assert np.array_equal(ch.singulars, np.linalg.svd(g, compute_uv=False))

    print("\nacceptance 9/9 PASS: threshold counts, flat/skewed fitness, "
          "and identity-map spectra all exact")
