"""Independent reference computations used by the test suite.

Nothing in here shares code paths with the package internals it checks:

* the impedance oracle integrates the full EFIE kernel with a signed
  Duffy-style split around the observation point (no closed-form potential
  integrals, no singularity extraction) under a subdivided high-order outer
  rule;
* the pencil oracle solves the reduced generalized eigenproblem by explicit
  inversion and a dense nonsymmetric solve;
* the method-of-moments (MoM) reference solves Z I = B for the port
  currents directly, with no modes involved, and the full-wave channel
  couples two gathered plates' sampled MoM port currents through G, the
  receive side by reciprocity; the refined link restates a plate on n x n
  sub-pixels per pixel, so that the full-wave channel can be followed as
  the mesh is refined;
* the mesh oracle counts interior edges by scanning all face pairs, and
  `parent_edges` names each edge of a configuration's own basis by the
  parent faces of its plus and minus face;
* the untiled impedance reference is the exception: it keeps the
  single-threaded whole-plate face-moment loop that the tiled, pooled
  assembly replaced, and its own copy of the allocating (P, M, 3)
  touching-pair arithmetic that the package's component-first kernel in
  reused buffers replaced, so that the two can be required to agree bit
  for bit;
* the dense channel reference is another: it calls the package's own
  `green_dyadic` once on every centroid pair and transposes the whole
  (N_R, N_T, 3, 3) result into place, the one-shot layout that the
  blocked, in-place `assemble_channel` replaced, so that the blocking can
  be required to keep every bit;
* the refined channel calls `green_dyadic` too, under the 7-point rule on
  both faces instead of the centroids, so that it measures the midpoint
  rule's discretization error and not the kernel;
* the eager mode diagnostics are another: a frozen copy of the
  arithmetic that computed the eigen residuals, the R cross-coupling and
  the pattern Gram deviation inside every plate analysis, before the
  package computed them only when read, so that the two can be required
  to agree bit for bit;
* the loop mesh builders are the last: the per-vertex dictionary and the
  per-face and per-edge loops that built the plate mesh, its RWG edges
  and its face sampler before the package built them as array
  operations, so that the two can be required to agree bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.constants import c as C0, epsilon_0 as EPS0, mu_0 as MU0

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss01(n: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[n]


def duffy_green_moments(obs, tri, k0, order=16):
    """Integrals of G and r'G over a triangle, observation anywhere.

    G(R) = exp(-j k R)/(4 pi R). The triangle is split into three
    sub-triangles fanned from the in-plane projection of `obs`, each
    integrated in collapsed (u, v) coordinates where the radial factor u
    cancels the 1/R singularity; sub-triangle areas are signed so the
    decomposition is exact also when the projection falls outside.
    Returns (i0 complex, ir complex (3,)).
    """
    obs = np.asarray(obs, dtype=float)
    tri = np.asarray(tri, dtype=float)
    normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    nhat = normal / np.linalg.norm(normal)
    height = float((obs - tri[0]) @ nhat)
    rho = obs - height * nhat

    u, wu = _gauss01(order)
    v, wv = _gauss01(order)
    ww = wu[:, None] * wv[None, :]

    # every fan wedge [a, b] of the three edges, integrated in one batch;
    # narrow angular wedges keep the v-integrand gentle even when the fan
    # sub-triangle is very obtuse at the apex
    starts, ends = [], []
    for e in range(3):
        a0, b0 = tri[e], tri[(e + 1) % 3]
        va, vb = a0 - rho, b0 - rho
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na > 0 and nb > 0:
            cosang = np.clip((va @ vb) / (na * nb), -1.0, 1.0)
            nseg = max(2, int(np.ceil(np.arccos(cosang) / (np.pi / 32))))
        else:
            nseg = 2
        splits = np.linspace(0.0, 1.0, nseg + 1)[:, None]
        starts.append(a0 + splits[:-1] * (b0 - a0))
        ends.append(a0 + splits[1:] * (b0 - a0))
    a, b = np.concatenate(starts), np.concatenate(ends)
    signed_area = 0.5 * (np.cross(a - rho, b - rho) @ nhat)
    live = signed_area != 0.0
    a, b, signed_area = a[live], b[live], signed_area[live]

    # r'(u,v) = rho + u*((a-rho) + v*(b-a)); |J| = 2|area| u
    lead = (a - rho)[:, None, :] + v[None, :, None] * (b - a)[:, None, :]
    pts = rho + u[None, :, None, None] * lead[:, None]
    rad = np.sqrt(
        (u[None, :, None] * np.linalg.norm(lead, axis=-1)[:, None]) ** 2
        + height ** 2
    )
    np.maximum(rad, 1e-300, out=rad)
    kern = np.exp(-1j * k0 * rad) / (4.0 * np.pi * rad)
    jac = 2.0 * np.abs(signed_area)[:, None, None] * u[None, :, None]
    sign = np.where(signed_area > 0, 1.0, -1.0)[:, None, None]
    contrib = sign * ww * jac * kern
    return contrib.sum(), np.einsum("wuv,wuvd->d", contrib, pts)


def _refined_outer_rule(tri, levels=1):
    """Physical points/weights: 7-point rule on a 4**levels subdivision."""
    from cmadof.quadrature import TRI_BARY as bary7, TRI_W as w7

    tris = [np.asarray(tri, dtype=float)]
    for _ in range(levels):
        nxt = []
        for t in tris:
            m01, m12, m20 = 0.5 * (t[0] + t[1]), 0.5 * (t[1] + t[2]), 0.5 * (t[2] + t[0])
            nxt += [
                np.array([t[0], m01, m20]),
                np.array([m01, t[1], m12]),
                np.array([m20, m12, t[2]]),
                np.array([m01, m12, m20]),
            ]
        tris = nxt
    pts, wts = [], []
    for t in tris:
        area = 0.5 * np.linalg.norm(np.cross(t[1] - t[0], t[2] - t[0]))
        pts.append(bary7 @ t)
        wts.append(w7 * area)
    return np.concatenate(pts), np.concatenate(wts)


#: oracle entries by the exact bytes of everything the integration reads
_ENTRY_CACHE: dict[bytes, complex] = {}


def oracle_impedance_entry(basis, m, n, frequency, outer_levels=1, duffy_order=16):
    """Z[m, n] by brute-force double-surface quadrature of the full kernel.

    Memoized on the exact bytes of the two edges' faces, free vertices,
    areas and lengths, the frequency and the rule orders, so bit-equal
    geometry is integrated once per session.
    """
    mesh = basis.mesh
    omega = 2.0 * np.pi * frequency
    k0 = omega / C0
    verts = mesh.vertices

    m_faces = [(basis.plus_face[m], basis.plus_free[m], 1.0),
               (basis.minus_face[m], basis.minus_free[m], -1.0)]
    n_faces = [(basis.plus_face[n], basis.plus_free[n], 1.0),
               (basis.minus_face[n], basis.minus_free[n], -1.0)]
    lm, ln = basis.lengths[m], basis.lengths[n]
    key = np.concatenate(
        [np.concatenate([verts[mesh.faces[f]].ravel(), verts[free],
                         [mesh.face_areas[f], sign]])
         for f, free, sign in m_faces + n_faces]
        + [[lm, ln, frequency, outer_levels, duffy_order]]).tobytes()
    if key in _ENTRY_CACHE:
        return _ENTRY_CACHE[key]

    a_val = 0.0 + 0.0j
    phi_val = 0.0 + 0.0j
    for fp, freep, sp in m_faces:
        tri_p = verts[mesh.faces[fp]]
        area_p = mesh.face_areas[fp]
        pts, wts = _refined_outer_rule(tri_p, levels=outer_levels)
        for fq, freeq, sq in n_faces:
            tri_q = verts[mesh.faces[fq]]
            area_q = mesh.face_areas[fq]
            pm, pn = verts[freep], verts[freeq]
            i0s = np.empty(len(pts), dtype=complex)
            irs = np.empty((len(pts), 3), dtype=complex)
            for i, r_obs in enumerate(pts):
                i0s[i], irs[i] = duffy_green_moments(r_obs, tri_q, k0, order=duffy_order)
            inner_vec = irs - pn[None, :] * i0s[:, None]  # Int (r'-pn) G dS'
            dots = np.einsum("id,id->i", pts - pm[None, :], inner_vec)
            coef = sp * sq * lm * ln / (4.0 * area_p * area_q)
            a_val += coef * np.dot(wts, dots)
            phi_val += sp * sq * lm * ln / (area_p * area_q) * np.dot(wts, i0s)

    entry = 1j * omega * MU0 * a_val - 1j / (omega * EPS0) * phi_val
    _ENTRY_CACHE[key] = entry
    return entry


def _dot3(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def static_potential_integrals(obs, tri):
    """(I0, Ir, J0, Jr) of a batch: obs (P, M, 3) observing triangles tri
    (P, 3, 3), by the edge-by-edge closed form on (P, M, 3) arrays with
    a fresh array for every temporary. Every entry is computed by the
    arithmetic of `cmadof.quadrature.static_potential_integrals`, operation
    for operation."""
    tri = np.asarray(tri, dtype=float)
    obs = np.asarray(obs, dtype=float)
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    two_area = np.sqrt(_dot3(normal, normal))
    nhat = (normal / two_area[:, None])[:, None, :]
    diam = np.sqrt(two_area)[:, None]

    d = _dot3(obs - tri[:, None, 0], nhat)
    rho = obs - d[..., None] * nhat
    absd = np.abs(d)

    I0 = np.zeros(d.shape)
    Irho = np.zeros(obs.shape)
    beta_sum = np.zeros(d.shape)
    J0 = np.zeros(d.shape)
    Jrho = np.zeros(obs.shape)

    for e in range(3):
        a, b = tri[:, None, e], tri[:, None, (e + 1) % 3]
        ell = b - a
        lhat = ell / np.sqrt(_dot3(ell, ell))[..., None]
        uhat = np.cross(lhat, nhat)
        sm = _dot3(a - rho, lhat)
        sp = _dot3(b - rho, lhat)
        t0 = _dot3(a - rho, uhat)
        r0sq = t0 ** 2 + d ** 2
        rp = np.sqrt(sp ** 2 + r0sq)
        rm = np.sqrt(sm ** 2 + r0sq)

        on_edge_line = r0sq < (1e-12 * diam) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            f_pos = np.log((rp + sp) / (rm + sm))
            f_neg = np.log((rm - sm) / (rp - sp))
        f = np.where(sp + sm >= 0, f_pos, f_neg)
        f = np.where(on_edge_line, 0.0, f)

        with np.errstate(divide="ignore", invalid="ignore"):
            bp = np.arctan(t0 * sp / (r0sq + absd * rp))
            bm = np.arctan(t0 * sm / (r0sq + absd * rm))
        beta = np.where(on_edge_line, 0.0, bp - bm)

        I0 += t0 * f
        beta_sum += beta
        Irho += 0.5 * uhat * (r0sq * f + sp * rp - sm * rm)[..., None]

        line1 = 0.5 * (sp * rp - sm * rm + r0sq * f)
        line3 = 0.25 * (sp * rp ** 3 - sm * rm ** 3) + 0.75 * r0sq * line1
        J0 += t0 * line1
        Jrho += uhat * line3[..., None]

    I0 -= absd * beta_sum
    Ir = Irho + rho * I0[..., None]
    J0 = (J0 + d ** 2 * I0) / 3.0
    Jr = Jrho / 3.0 + rho * J0[..., None]
    return I0, Ir, J0, Jr


def _smooth_kernel(dist, k0):
    small = dist < 1e-300
    safe = np.where(small, 1.0, dist)
    out = (np.exp(-1j * k0 * safe) - 1.0 + 0.5 * (k0 * safe) ** 2) / (
        4.0 * np.pi * safe
    )
    out[small] = -1j * k0 / (4.0 * np.pi)
    return out


def _static_outer_rule(levels=3):
    """Barycentric points and weights of the 7-point rule on a 4**levels
    subdivision, built as `cmadof.efie` builds its outer rule."""
    from cmadof.quadrature import TRI_BARY as bary7, TRI_W as w7

    corners = [np.eye(3)]
    for _ in range(levels):
        nxt = []
        for t in corners:
            m01, m12, m20 = 0.5 * (t[0] + t[1]), 0.5 * (t[1] + t[2]), 0.5 * (t[2] + t[0])
            nxt += [
                np.array([t[0], m01, m20]),
                np.array([m01, t[1], m12]),
                np.array([m20, m12, t[2]]),
                np.array([m01, m12, m20]),
            ]
        corners = nxt
    frac = 0.25 ** levels
    return (np.concatenate([bary7 @ t for t in corners]),
            np.concatenate([w7 * frac for _ in corners]))


def touching_moments(p_verts, q_verts, area_p, area_q, k0):
    """(m00, m_in, m_out, mdot) of a batch of touching face pairs, by the
    arithmetic of `cmadof.efie._singular_moments` on this module's
    `static_potential_integrals`."""
    from cmadof.quadrature import TRI_BARY as bary7, TRI_W as w7

    xp = bary7 @ p_verts
    xq = bary7 @ q_verts

    dist = np.linalg.norm(xp[:, :, None, :] - xq[:, None, :, :], axis=-1)
    kd = _smooth_kernel(dist, k0) * (w7[:, None] * w7[None, :])
    kd *= (area_p * area_q)[:, None, None]
    m00 = kd.sum(axis=(1, 2))
    m_in = np.einsum("pij,pjd->pd", kd, xq)
    m_out = np.einsum("pij,pid->pd", kd, xp)
    mdot = np.einsum("pij,pid,pjd->p", kd, xp, xq)

    bary, ws = _static_outer_rule()
    xs = bary @ p_verts
    i0, ir, j0, jr = static_potential_integrals(xs, q_verts)
    half_ksq = 0.5 * k0 ** 2
    g0 = i0 - half_ksq * j0
    gr = ir - half_ksq * jr
    scale = area_p / (4.0 * np.pi)
    m00 += scale * np.einsum("i,pi->p", ws, g0)
    m_in += scale[:, None] * np.einsum("i,pid->pd", ws, gr)
    m_out += scale[:, None] * np.einsum("i,pi,pid->pd", ws, g0, xs)
    mdot += scale * np.einsum("i,pid,pid->p", ws, xs, gr)
    return m00, m_in, m_out, mdot


def plain_face_moments(x7, wa, k0, rows, cols):
    """(m00, m_in, m_out, mdot) of the regular face pairs rows x cols
    (slices of the faces), with the kernel and the einsums spelled
    plainly: x7 (F, 7, 3) are the faces' rule points and wa (F, 7) their
    weights times the face areas."""
    diff = x7[rows, :, None, None, :] - x7[None, None, cols, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    np.maximum(dist, 1e-300, out=dist)
    kern = np.exp(-1j * k0 * dist) / (4.0 * np.pi * dist)
    kern *= wa[rows, :, None, None] * wa[None, None, cols, :]
    xp, xq = x7[rows], x7[cols]
    return (np.einsum("piqj->pq", kern),
            np.einsum("piqj,qjd->pqd", kern, xq),
            np.einsum("piqj,pid->pqd", kern, xp),
            np.einsum("piqj,pid,qjd->pq", kern, xp, xq))


def untiled_impedance(basis, frequency):
    """Z by the whole-plate, single-threaded face-moment loop.

    Regular face pairs in row chunks against every face, touching pairs in
    batches of TOUCH_CHUNK, then one edge-space combination over all edges;
    every entry by the same arithmetic as `assemble_impedance`, the
    touching pairs by `touching_moments`.
    """
    from cmadof.efie import TOUCH_CHUNK, _face_adjacency_pairs
    from cmadof.quadrature import TRI_W as w7, tri_points

    mesh = basis.mesh
    omega = 2.0 * np.pi * frequency
    k0 = omega / C0
    nf = mesh.n_faces
    tv = mesh.vertices[mesh.faces]
    areas = mesh.face_areas
    x7 = tri_points(tv)

    m00 = np.empty((nf, nf), dtype=complex)
    m_in = np.empty((nf, nf, 3), dtype=complex)
    m_out = np.empty((nf, nf, 3), dtype=complex)
    mdot = np.empty((nf, nf), dtype=complex)
    nq = len(w7)
    wa = w7[None, :] * areas[:, None]
    chunk = max(1, min(nf, 4_000_000 // (nf * nq * nq) + 1))
    for start in range(0, nf, chunk):
        sl = slice(start, min(start + chunk, nf))
        m00[sl], m_in[sl], m_out[sl], mdot[sl] = plain_face_moments(
            x7, wa, k0, sl, slice(None))

    pairs = np.array(_face_adjacency_pairs(mesh.faces)).reshape(-1, 2)
    for start in range(0, len(pairs), TOUCH_CHUNK):
        p, q = pairs[start:start + TOUCH_CHUNK].T
        s00, s_in, s_out, sdot = touching_moments(
            tv[p], tv[q], areas[p], areas[q], k0
        )
        m00[p, q] = m00[q, p] = s00
        mdot[p, q] = mdot[q, p] = sdot
        m_in[p, q] = m_out[q, p] = s_in
        m_out[p, q] = m_in[q, p] = s_out
        own = p == q
        s_avg = 0.5 * (s_in[own] + s_out[own])
        m_in[p[own], p[own]] = s_avg
        m_out[p[own], p[own]] = s_avg

    ef = np.stack([basis.plus_face, basis.minus_face], axis=1)
    fv = mesh.vertices[np.stack([basis.plus_free, basis.minus_free], axis=1)]
    sg = np.array([1.0, -1.0])
    lengths = basis.lengths
    pa = ef[:, :, None, None]
    qb = ef[None, None, :, :]
    g00 = m00[pa, qb]
    gdot = mdot[pa, qb]
    g_in = m_in[pa, qb]
    g_out = m_out[pa, qb]
    vec_term = (
        gdot
        - np.einsum("manbd,mad->manb", g_in, fv)
        - np.einsum("manbd,nbd->manb", g_out, fv)
        + np.einsum("mad,nbd->manb", fv, fv) * g00
    )
    coef = (
        sg[None, :, None, None]
        * sg[None, None, None, :]
        / (areas[ef][:, :, None, None] * areas[ef][None, None, :, :])
    ) * (lengths[:, None, None, None] * lengths[None, None, :, None])
    a_mat = 0.25 * np.einsum("manb->mn", coef * vec_term)
    phi_mat = np.einsum("manb->mn", coef * g00)
    return 1j * omega * MU0 * a_mat - 1j / (omega * EPS0) * phi_mat


def dense_channel(tx, rx, k0):
    """The (3 N_R, 3 N_T) channel matrix between meshes tx and rx from one
    `green_dyadic` call over all centroid pairs."""
    from cmadof.channel import green_dyadic

    omega = k0 * C0
    blocks = green_dyadic(rx.face_centroids[:, None], tx.face_centroids[None], k0)
    blocks *= (-1j * omega * MU0) * tx.face_areas[None, :, None, None]
    n_r, n_t = rx.n_faces, tx.n_faces
    return blocks.transpose(0, 2, 1, 3).reshape(3 * n_r, 3 * n_t)


def refined_channel(tx, rx, k0):
    """The (3 N_R, 3 N_T) channel between meshes tx and rx under the
    7-point rule on both faces: the field averaged over each receive face
    from the current integrated over each transmit face, where
    `cmadof.channel.assemble_channel` takes the kernel between the two
    centroids. The kernel is the package's `green_dyadic`, evaluated at
    one receive rule point at a time."""
    from cmadof.channel import green_dyadic
    from cmadof.quadrature import TRI_BARY as bary7, TRI_W as w7

    xr = bary7 @ rx.vertices[rx.faces]  # (N_R, 7, 3)
    xt = bary7 @ tx.vertices[tx.faces]
    blocks = sum(w7[i] * np.einsum("j,ptjab->ptab", w7,
                                   green_dyadic(xr[:, i, None, None],
                                                xt[None], k0))
                 for i in range(7))
    blocks *= (-1j * k0 * C0 * MU0) * tx.face_areas[None, :, None, None]
    n_r, n_t = rx.n_faces, tx.n_faces
    return blocks.transpose(0, 2, 1, 3).reshape(3 * n_r, 3 * n_t)


def dense_reduced_pencil_eigs(x_mat, r_psd, rel_cut=1e-10):
    """Eigenvalues of the pencil (X, R_psd) on R's significant subspace,
    via explicit inversion and a dense nonsymmetric solve."""
    import scipy.linalg

    w, q = np.linalg.eigh(r_psd)
    keep = w >= rel_cut * w[-1]
    qk, wk = q[:, keep], w[keep]
    x_red = qk.T @ x_mat @ qk
    pencil = np.diag(1.0 / wk) @ x_red
    vals = scipy.linalg.eig(pencil, right=False)
    return np.sort(vals.real)


def eager_plate_diagnostics(op, sampler, n_keep, floor):
    """(eigen residuals, r_cross_max, pattern_gram_dev) of one plate's
    modes as solving, truncating at the significance `floor` and
    sampling computed them at once: the residuals and the R
    cross-coupling of the modes the solve kept, the residuals then
    restricted to the modes the floor and the zero-pattern check keep."""
    r_psd, w, q = op.psd
    x_sym = 0.5 * (op.x + op.x.T)
    keep = w >= 1e-10 * w[-1]
    white = q[:, keep] / np.sqrt(w[keep])[None, :]
    x_red = white.T @ x_sym @ white
    x_red = 0.5 * (x_red + x_red.T)
    lam_all, y_all = np.linalg.eigh(x_red)
    order = np.lexsort((lam_all, np.abs(lam_all)))
    sel = order[:min(int(n_keep), len(order))]
    lam = lam_all[sel]
    y = y_all[:, sel]
    modes = white @ y

    x_norm = float(np.abs(lam_all).max()) if lam_all.size else 0.0
    num = np.linalg.norm(x_red @ y - lam[None, :] * y, axis=0)
    residuals = num / (x_norm + np.abs(lam) + np.finfo(float).tiny)

    modes = modes / np.linalg.norm(modes, axis=0)[None, :]
    lead = np.abs(modes).argmax(axis=0)
    signs = np.sign(modes[lead, np.arange(modes.shape[1])])
    signs[signs == 0] = 1.0
    modes = modes * signs
    cross = modes.T @ (r_psd @ modes)
    np.fill_diagonal(cross, 0.0)
    r_cross_max = float(np.abs(cross).max()) if cross.size else 0.0

    significant = np.abs(1.0 / (1.0 + 1j * lam)) >= floor
    residuals, modes = residuals[significant], modes[:, significant]
    raw = sampler @ modes
    norms = np.linalg.norm(raw, axis=0)
    scale = np.abs(raw).max() if raw.size else 0.0
    alive = norms > 1e-14 * max(scale, 1.0)
    residuals, raw, norms = residuals[alive], raw[:, alive], norms[alive]
    patterns = raw / norms[None, :]
    gram = patterns.T @ patterns
    dev = np.abs(gram - np.eye(gram.shape[0])).max() if gram.size else 0.0
    return residuals, r_cross_max, float(dev)


def mom_port_currents(z, b):
    """Full-wave port currents: the solution I of Z I = B, one column per
    port."""
    return np.linalg.solve(z, b)


def full_wave_channel(problem, phi, currents=None):
    """Port-to-port channel H_fw = (S_R I_R)^T G (S_T I_T) of one
    configuration, on the x and y rows of its gathered plates' faces.

    I = Z^{-1} B are each plate's MoM port currents, or `currents(op, B)`
    when given; G is the block of the parents' channel between the two
    plates' x and y rows.
    """
    from cmadof.mesh import face_rows

    sampled, faces = [], []
    for model, bits in zip(problem.models, problem.split(phi)):
        op, sampler, ports, f = model.gather(bits)
        i = (mom_port_currents(op.z, ports) if currents is None
             else currents(op, ports))
        sampled.append(sampler[face_rows(np.arange(f.size), 2)] @ i)
        faces.append(f)
    g = problem.channel.block(face_rows(faces[1], 2), face_rows(faces[0], 2))
    return sampled[1].T @ g @ sampled[0]


def refined_link(spec, n):
    """The plate `spec` meshed n-fold finer: (spec, bit map, port sum).

    Pixel (r, c) becomes the n x n sub-pixels (n r + a, n c + b), so the
    refined spine is every sub-pixel of a spine pixel and a configuration
    is `bits[bit map]`, each bit repeated over its sub-pixels. Port p on
    pixel (r, c) becomes the n ports n p + k on the sub-pixels
    (n r + k, n c + k), whose diagonals make up the pixel's diagonal; the
    (n L, L) port sum adds those n delta-gap columns, so `B @ port_sum`
    is the coarse plate's excitation.
    """
    from cmadof.mesh import PlateSpec

    fine = PlateSpec(
        width=spec.width, height=spec.height,
        pixel_rows=n * spec.pixel_rows, pixel_cols=n * spec.pixel_cols,
        ports=n * spec.ports,
        spine_pixels=tuple((n * r + a, n * c + b) for r, c in spec.spine_pixels
                           for a in range(n) for b in range(n)),
        port_pixels=tuple((n * r + k, n * c + k) for r, c in spec.port_pixels
                          for k in range(n)))
    rows, cols = np.divmod(np.arange(fine.n_bits), fine.pixel_cols)
    bit_map = rows // n * spec.pixel_cols + cols // n
    port_sum = np.kron(np.eye(spec.ports), np.ones((n, 1)))
    return fine, bit_map, port_sum


def radiated_power(z, currents):
    """Radiated power 1/2 Re(I^H R I) of each current column, with R the
    symmetric part (Re Z + Re Z^T)/2 of the resistance."""
    r = 0.5 * (z.real + z.real.T)
    return 0.5 * np.einsum("ep,ef,fp->p", currents.conj(), r, currents).real


def brute_interior_edge_count(mesh):
    """Count interior edges by scanning all face pairs for shared segments."""
    count = 0
    nf = len(mesh.faces)
    for i in range(nf):
        si = {tuple(sorted((int(mesh.faces[i][a]), int(mesh.faces[i][(a + 1) % 3]))))
              for a in range(3)}
        for j in range(i + 1, nf):
            sj = {tuple(sorted((int(mesh.faces[j][a]), int(mesh.faces[j][(a + 1) % 3]))))
                  for a in range(3)}
            count += len(si & sj)
    return count


def parent_edges(parent, faces, basis):
    """The parent edge behind each edge of `basis`, the basis that
    `extract_rwg` builds on the mesh of the parent faces `faces`.

    Two faces share at most one edge, so the parent faces of an edge's
    plus and minus face name it. The result p is the permutation that
    takes the configuration's own edge order to the parent's: edge i of
    `basis` is parent edge p[i].
    """
    index = {pair: i for i, pair in enumerate(
        zip(parent.plus_face.tolist(), parent.minus_face.tolist()))}
    pairs = zip(faces[basis.plus_face].tolist(),
                faces[basis.minus_face].tolist())
    return np.array([index[pair] for pair in pairs], dtype=int)


def loop_plate_mesh(spec, config):
    """(vertices, faces, face tags) of `build_plate_mesh`, one pixel at a
    time, each grid node numbered when a pixel first uses it."""
    dx, dy = spec.pixel_size
    vid, verts, faces, tags = {}, [], [], []

    def vertex(i, j):
        if (i, j) not in vid:
            vid[(i, j)] = len(verts)
            verts.append((i * dx, j * dy, 0.0))
        return vid[(i, j)]

    for t in spec.metal_pixels(config).tolist():
        r, c = divmod(t, spec.pixel_cols)
        bl, br = vertex(c, r), vertex(c + 1, r)
        tr, tl = vertex(c + 1, r + 1), vertex(c, r + 1)
        faces += [(bl, br, tr), (bl, tr, tl)]
        tags += [t, t]
    return (np.array(verts, dtype=float), np.array(faces, dtype=int),
            np.array(tags, dtype=int))


def loop_rwg(mesh):
    """(edges, plus faces, minus faces, plus free vertices, minus free
    vertices, lengths) of `extract_rwg`, from a dictionary of each edge's
    (face, free vertex) incidences."""
    incident = {}
    for fi, (a, b, c) in enumerate(mesh.faces.tolist()):
        for va, vb, vf in ((a, b, c), (b, c, a), (c, a, b)):
            incident.setdefault((min(va, vb), max(va, vb)), []).append(
                (fi, vf))
    edges, owners = [], []
    for key in sorted(incident):
        if len(incident[key]) == 2:
            edges.append(key)
            owners.append(sorted(incident[key]))
    edges = np.array(edges, dtype=int).reshape(-1, 2)
    owners = np.array(owners, dtype=int).reshape(-1, 2, 2)
    lengths = np.linalg.norm(
        mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1)
    return (edges, owners[:, 0, 0], owners[:, 1, 0], owners[:, 0, 1],
            owners[:, 1, 1], lengths)


def loop_sampler(basis):
    """`face_sampling_operator`, one edge and face at a time."""
    mesh = basis.mesh
    s = np.zeros((3 * mesh.n_faces, basis.n_edges))
    for n in range(basis.n_edges):
        for face, free, sign in (
                (basis.plus_face[n], basis.plus_free[n], 1.0),
                (basis.minus_face[n], basis.minus_free[n], -1.0)):
            s[3 * face:3 * face + 3, n] += (
                sign * basis.lengths[n] / (2.0 * mesh.face_areas[face])
                * (mesh.face_centroids[face] - mesh.vertices[free]))
    return s

