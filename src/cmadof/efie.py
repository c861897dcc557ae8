"""Method-of-moments impedance assembly and delta-gap excitations.

Electric-field integral equation on a perfectly conducting sheet, Galerkin
tested over edge-pair (RWG) functions with the free-space scalar kernel
G(R) = exp(-j k R) / (4 pi R):

    Z[m,n] = j w mu0 * A[m,n] - j/(w eps0) * Phi[m,n]
    A[m,n]   = II f_m(r) . f_n(r') G(R) dS' dS
    Phi[m,n] = II (div f_m)(div' f_n) G(R) dS' dS

Assembly runs over face pairs. Regular pairs use the 7-point symmetric
triangle rule on both faces. Pairs sharing at least one vertex (self,
edge-adjacent, corner-adjacent) are split into the extracted kernel
(1/R - k^2 R/2)/(4 pi), whose inner integrals are evaluated in closed form
under a subdivided 7-point outer rule, plus the twice-differentiable
remainder (exp(-jkR) - 1 + (kR)^2/2)/(4 pi R) under a 7x7 rule, in batches
of TOUCH_CHUNK pairs. Moments for an unordered face pair are computed once
and mirrored, which keeps Z symmetric to roundoff.

Everything here is deterministic: fixed quadrature rules, fixed loop order,
no threading in the assembly itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.constants import c as C0, epsilon_0 as EPS0, mu_0 as MU0

from .errors import GeometryError
from .mesh import RwgBasis
from .quadrature import static_potential_integrals, tri_points, tri_rule

__all__ = [
    "ImpedanceOperator",
    "ExcitationVector",
    "assemble_impedance",
    "delta_gap_excitation",
    "psd_project",
]

#: faces with area at or below this (square meters) are treated as degenerate
MIN_FACE_AREA = 1e-12

#: eigenvalues of R below -tol * max are considered genuinely negative
PSD_CLAMP_TOL = 1e-12


def psd_project(r_matrix: np.ndarray) -> np.ndarray:
    """Positive-semidefinite spectral projection of a symmetric matrix.

    Eigenvalues below zero are clamped. A matrix whose smallest eigenvalue
    is already above -PSD_CLAMP_TOL times the largest is returned unchanged,
    which makes the projection exactly idempotent.
    """
    w, q = np.linalg.eigh(r_matrix)
    top = max(w[-1], 0.0)
    if w[0] >= -PSD_CLAMP_TOL * top:
        return r_matrix
    clipped = (q * np.maximum(w, 0.0)) @ q.T
    return 0.5 * (clipped + clipped.T)


@dataclass
class ImpedanceOperator:
    """Dense symmetric impedance matrix Z = R + jX at one frequency."""

    z: np.ndarray
    frequency: float
    basis: RwgBasis | None = None
    _r_psd: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=complex)
        if self.z.ndim != 2 or self.z.shape[0] != self.z.shape[1]:
            raise ValueError("impedance matrix must be square")
        if not self.frequency > 0:
            raise ValueError("frequency must be positive")

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def r(self) -> np.ndarray:
        """Radiated-power (real) part."""
        return self.z.real

    @property
    def x(self) -> np.ndarray:
        """Stored-energy (imaginary) part."""
        return self.z.imag

    @property
    def r_psd(self) -> np.ndarray:
        """Spectrally clamped positive-semidefinite version of R."""
        if self._r_psd is None:
            self._r_psd = psd_project(0.5 * (self.z.real + self.z.real.T))
        return self._r_psd

    @property
    def omega(self) -> float:
        return 2.0 * np.pi * self.frequency

    @property
    def wavenumber(self) -> float:
        return self.omega / C0

    @classmethod
    def from_matrix(cls, z, frequency, basis=None) -> "ImpedanceOperator":
        return cls(z=np.asarray(z, dtype=complex), frequency=float(frequency), basis=basis)


@dataclass
class ExcitationVector:
    """Delta-gap port excitations, one column per port.

    matrix is (E, L) complex; the entry at a port edge equals that edge's
    length (one volt across the gap), all other entries are zero.
    """

    matrix: np.ndarray
    port_edges: list

    @property
    def n_ports(self) -> int:
        return self.matrix.shape[1]


def delta_gap_excitation(basis: RwgBasis, port_edges) -> ExcitationVector:
    """Excitation columns for delta-gap feeds on the given edges.

    port_edges is a list of (vertex, vertex) pairs; each must carry an RWG
    function. Duplicate port edges are rejected.
    """
    if len(set(tuple(sorted(p)) for p in port_edges)) != len(port_edges):
        raise ValueError("duplicate port edges")
    mat = np.zeros((basis.n_edges, len(port_edges)), dtype=complex)
    for col, (va, vb) in enumerate(port_edges):
        idx = basis.edge_index(va, vb)  # GeometryError if absent
        mat[idx, col] = basis.lengths[idx]
    return ExcitationVector(matrix=mat, port_edges=list(port_edges))


def _face_adjacency_pairs(faces: np.ndarray) -> list[tuple[int, int]]:
    """Unordered face pairs (p <= q) sharing at least one vertex."""
    by_vertex: dict[int, list[int]] = {}
    for fi, f in enumerate(faces):
        for v in f:
            by_vertex.setdefault(int(v), []).append(fi)
    pairs = set()
    for flist in by_vertex.values():
        for i, p in enumerate(flist):
            for q in flist[i:]:
                pairs.add((p, q))
    return sorted(pairs)


def _smooth_kernel(dist: np.ndarray, k0: float) -> np.ndarray:
    """(exp(-jkR) - 1 + (kR)^2/2)/(4 pi R), with the R -> 0 limit -jk/(4 pi).

    Both the 1/R pole and the k^2 R/2 slope kink of the Helmholtz kernel are
    removed, so this remainder is twice differentiable at coincidence and a
    moderate product rule integrates it accurately on touching face pairs.
    """
    small = dist < 1e-300
    safe = np.where(small, 1.0, dist)
    out = (np.exp(-1j * k0 * safe) - 1.0 + 0.5 * (k0 * safe) ** 2) / (
        4.0 * np.pi * safe
    )
    out[small] = -1j * k0 / (4.0 * np.pi)
    return out


def _refined_rule(levels: int):
    """7-point rule on a 4**levels barycentric subdivision of the triangle.

    Returns (bary (7*4**levels, 3), weights summing to 1). The outer
    integrand of the extracted static kernel has edge kinks, so plain order
    elevation stalls; uniform subdivision restores the accuracy.
    """
    bary7, w7 = tri_rule(7)
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
    bary = np.concatenate([bary7 @ t for t in corners])
    wts = np.concatenate([w7 * frac for _ in corners])
    return bary, wts


_BARY_STATIC, _W_STATIC = None, None  # filled on first use


def _singular_moments(p_verts, q_verts, area_p, area_q, k0):
    """Double-surface kernel moments for a batch of P touching face pairs.

    p_verts and q_verts are (P, 3, 3), area_p and area_q (P,). Returns
    (m00 (P,), m_in (P, 3), m_out (P, 3), mdot (P,)) where
        m00   = II G
        m_in  = II r' G
        m_out = II r  G
        mdot  = II (r . r') G
    Extracted part (1/R - k^2 R / 2)/(4 pi): closed-form inner integral
    under a subdivided 7-point outer rule. Smooth remainder: 7x7 double
    rule. Each pair's moments are computed by the same arithmetic whatever
    else the batch holds.
    """
    global _BARY_STATIC, _W_STATIC
    if _BARY_STATIC is None:
        _BARY_STATIC, _W_STATIC = _refined_rule(3)
    bary7, w7 = tri_rule(7)
    xp = bary7 @ p_verts  # (P, 7, 3)
    xq = bary7 @ q_verts

    # smooth remainder
    dist = np.linalg.norm(xp[:, :, None, :] - xq[:, None, :, :], axis=-1)
    kd = _smooth_kernel(dist, k0) * (w7[:, None] * w7[None, :])
    kd *= (area_p * area_q)[:, None, None]
    m00 = kd.sum(axis=(1, 2))
    m_in = np.einsum("pij,pjd->pd", kd, xq)
    m_out = np.einsum("pij,pid->pd", kd, xp)
    mdot = np.einsum("pij,pid,pjd->p", kd, xp, xq)

    # extracted part, inner integrals in closed form
    xs = _BARY_STATIC @ p_verts
    ws = _W_STATIC
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


#: touching face pairs per batched moment call. One call makes dozens of
#: temporaries over P pairs x 448 outer points (115 kB per scalar and
#: 344 kB per vector at P = 32). Under glibc's default malloc settings,
#: P = 64 has them mapped afresh call after call (13k minor page faults
#: inside the calls of one 4x8-pixel parent assembly, none at P = 16 or
#: 32), while smaller P pays more per-call Python overhead
TOUCH_CHUNK = 32


def assemble_impedance(basis: RwgBasis, frequency: float) -> ImpedanceOperator:
    """Assemble the Galerkin EFIE impedance matrix for one frequency."""
    if not frequency > 0:
        raise ValueError("frequency must be positive")
    mesh = basis.mesh
    if basis.n_edges == 0:
        raise GeometryError("mesh has no interior edges, no basis functions")
    if np.any(mesh.face_areas <= MIN_FACE_AREA):
        bad = int(np.argmin(mesh.face_areas))
        raise GeometryError(
            f"face {bad} has degenerate area {mesh.face_areas[bad]:.3e} m^2"
        )

    omega = 2.0 * np.pi * frequency
    k0 = omega / C0
    nf = mesh.n_faces
    tv = mesh.vertices[mesh.faces]  # (F, 3, 3)
    areas = mesh.face_areas

    bary7, w7 = tri_rule(7)
    x7 = tri_points(tv, 7)  # (F, 7, 3)

    # regular face pairs: full kernel under the 7x7 point rule, which holds
    # up on well separated pairs and on near pairs one disabled pixel apart.
    # Touching pairs land here too and get overwritten below.
    m00 = np.empty((nf, nf), dtype=complex)
    m_in = np.empty((nf, nf, 3), dtype=complex)
    m_out = np.empty((nf, nf, 3), dtype=complex)
    mdot = np.empty((nf, nf), dtype=complex)

    nq = len(w7)
    wa = w7[None, :] * areas[:, None]  # (F, 7) combined weights
    chunk = max(1, min(nf, 4_000_000 // (nf * nq * nq) + 1))
    for start in range(0, nf, chunk):
        sl = slice(start, min(start + chunk, nf))
        diff = x7[sl, :, None, None, :] - x7[None, None, :, :, :]
        dist = np.linalg.norm(diff, axis=-1)  # (fc, 7, F, 7)
        np.maximum(dist, 1e-300, out=dist)  # self-points are overwritten later
        kern = np.exp(-1j * k0 * dist) / (4.0 * np.pi * dist)
        kern *= wa[sl, :, None, None] * wa[None, None, :, :]
        m00[sl] = np.einsum("piqj->pq", kern)
        m_in[sl] = np.einsum("piqj,qjd->pqd", kern, x7)
        m_out[sl] = np.einsum("piqj,pid->pqd", kern, x7[sl])
        mdot[sl] = np.einsum("piqj,pid,qjd->pq", kern, x7[sl], x7)

    # the regular-pair arrays are the largest of the assembly: release them
    # before the touching-pair phase allocates its own
    del diff, dist, kern

    # touching pairs: singularity-extracted moments, mirrored for symmetry
    pairs = np.array(_face_adjacency_pairs(mesh.faces)).reshape(-1, 2)
    for start in range(0, len(pairs), TOUCH_CHUNK):
        p, q = pairs[start:start + TOUCH_CHUNK].T
        s00, s_in, s_out, sdot = _singular_moments(
            tv[p], tv[q], areas[p], areas[q], k0
        )
        m00[p, q] = m00[q, p] = s00
        mdot[p, q] = mdot[q, p] = sdot
        m_in[p, q] = m_out[q, p] = s_in
        m_out[p, q] = m_in[q, p] = s_out
        # II r G and II r' G coincide on a self pair; using one value for
        # both keeps the assembled matrix symmetric to roundoff.
        own = p == q
        s_avg = 0.5 * (s_in[own] + s_out[own])
        m_in[p[own], p[own]] = s_avg
        m_out[p[own], p[own]] = s_avg

    # gather face moments into edge space
    ef = np.stack([basis.plus_face, basis.minus_face], axis=1)  # (E, 2)
    fv = mesh.vertices[np.stack([basis.plus_free, basis.minus_free], axis=1)]
    sg = np.array([1.0, -1.0])
    lengths = basis.lengths

    pa = ef[:, :, None, None]
    qb = ef[None, None, :, :]
    g00 = m00[pa, qb]  # (E, 2, E, 2)
    gdot = mdot[pa, qb]
    g_in = m_in[pa, qb]  # (E, 2, E, 2, 3)
    g_out = m_out[pa, qb]

    # II (r - p_m).(r' - p_n) G = Mdot - p_m.M_in - p_n.M_out + (p_m.p_n) M00
    # (r is the outer variable on P, r' the inner one on Q)
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

    z = 1j * omega * MU0 * a_mat - 1j / (omega * EPS0) * phi_mat
    return ImpedanceOperator(z=z, frequency=frequency, basis=basis)

