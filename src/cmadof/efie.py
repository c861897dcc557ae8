"""Method-of-moments impedance assembly and delta-gap excitations.

Electric-field integral equation on a perfectly conducting sheet, Galerkin
tested over edge-pair (RWG) functions with the free-space scalar kernel
G(R) = exp(-j k R) / (4 pi R):

    Z[m,n] = j w mu0 * A[m,n] - j/(w eps0) * Phi[m,n]
    A[m,n]   = II f_m(r) . f_n(r') G(R) dS' dS
    Phi[m,n] = II (div f_m)(div' f_n) G(R) dS' dS

Assembly runs over face pairs. Regular pairs use the 7-point symmetric
triangle rule on both faces, in square tiles of TILE x TILE faces; each
unordered tile pair is computed once and its mirror tile is taken from the
transposed kernel. Pairs sharing at least one vertex (self, edge-adjacent,
corner-adjacent) are split into the extracted kernel (1/R - k^2 R/2)/(4 pi),
whose inner integrals are evaluated in closed form under a subdivided
7-point outer rule, plus the twice-differentiable remainder
(exp(-jkR) - 1 + (kR)^2/2)/(4 pi R) under a 7x7 rule, in batches of
TOUCH_CHUNK pairs. Moments for an unordered face pair are computed once
and mirrored, which keeps Z symmetric to roundoff.

A plate is flat: its vertices must share one z, and it is assembled at
z = 0, so its Z does not depend on its height. Every z component there is
an exact zero, so the distances, the vector moments and the closed-form
integrals take x and y only; each entry's other operations keep their
order, and Z is bit for bit the general 3-D arithmetic's.

Everything here is deterministic: fixed quadrature rules and fixed
arithmetic per entry. The tiles, the touching-pair batches and the row
blocks of the edge-space combination run on a thread pool of at most one
thread per core, but no entry's arithmetic depends on the tile shape, the
batch, the row block or the thread that computes it: the calling thread
places every face moment in a fixed order, and each row block writes its
own rows straight into one preallocated Z, so Z is bit-identical for any
number of cores.
The touching-pair batches hold the interpreter lock most of the time and
the tiles' einsums release it, so the batches run in order as one task
beside the tiles.

Within a tile the arithmetic is spelled for speed but computes the same
products in the same order as the plain spelling (the untiled reference
of the tests): the kernel is scaled on its float view, and the einsums of
the vector moments run their inner loop over faces, not over the 2
components.

The batch task computes every batch in one `quadrature.Scratch`: the
temporaries of the closed-form integrals are written with `out=` into the
same buffers, one array per Cartesian component, so the batches allocate
little beyond their results. The buffers are unmapped when the task ends.
A tile writes its distances and kernel with `out=` into two arrays of its
own.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError
from .mesh import RwgBasis
from .quadrature import (TRI_BARY, TRI_W, Scratch, static_potential_integrals,
                         tri_points)

__all__ = [
    "C0",
    "EPS0",
    "MU0",
    "ImpedanceOperator",
    "assemble_impedance",
    "delta_gap_excitation",
    "psd_project",
]

#: speed of light (m/s), vacuum permittivity (F/m) and permeability (H/m):
#: the CODATA 2022 values of `scipy.constants`, written out so that importing
#: the package does not import scipy
C0 = 299792458.0
EPS0 = 8.8541878188e-12
MU0 = 1.25663706127e-06

#: faces with area at or below this (square meters) are treated as degenerate
MIN_FACE_AREA = 1e-12

#: eigenvalues of R below -tol * max are considered genuinely negative
PSD_CLAMP_TOL = 1e-12


def psd_project(r_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive-semidefinite spectral projection of a symmetric matrix.

    Eigenvalues below zero are clamped. A matrix whose smallest eigenvalue
    is already above -PSD_CLAMP_TOL times the largest is returned unchanged,
    which makes the projection exactly idempotent. Returns (R_psd, w, q)
    with the ascending eigenpairs of R_psd: those of r_matrix computed on
    the way when it is returned unchanged, else a decomposition of the
    clamped matrix.
    """
    w, q = np.linalg.eigh(r_matrix)
    top = max(w[-1], 0.0)
    if w[0] >= -PSD_CLAMP_TOL * top:
        return r_matrix, w, q
    clipped = (q * np.maximum(w, 0.0)) @ q.T
    r_psd = 0.5 * (clipped + clipped.T)
    return (r_psd, *np.linalg.eigh(r_psd))


@dataclass
class ImpedanceOperator:
    """Dense symmetric impedance matrix Z = R + jX at one frequency."""

    z: np.ndarray
    frequency: float
    basis: RwgBasis | None = None

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=complex)
        if self.z.ndim != 2 or self.z.shape[0] != self.z.shape[1]:
            raise ValueError("impedance matrix must be square")
        if not self.frequency > 0:
            raise ValueError("frequency must be positive")

    @property
    def x(self) -> np.ndarray:
        """Stored-energy (imaginary) part."""
        return self.z.imag

    @cached_property
    def psd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`psd_project` of the symmetric part of R: (R_psd, w, q), so R is
        decomposed once unless it had to be clamped."""
        return psd_project(0.5 * (self.z.real + self.z.real.T))

    @property
    def r_psd(self) -> np.ndarray:
        """Spectrally clamped positive-semidefinite version of R."""
        return self.psd[0]

    @classmethod
    def from_matrix(cls, z, frequency, basis=None) -> "ImpedanceOperator":
        return cls(z=np.asarray(z, dtype=complex), frequency=float(frequency), basis=basis)


def delta_gap_excitation(basis: RwgBasis, port_edges) -> np.ndarray:
    """Excitation columns for delta-gap feeds on the given edges, (E, L).

    port_edges is a list of (vertex, vertex) pairs; each must carry an RWG
    function. The entry at a port edge equals that edge's length (one volt
    across the gap), all other entries are zero. Duplicate port edges are
    rejected.
    """
    if len(set(tuple(sorted(p)) for p in port_edges)) != len(port_edges):
        raise ValueError("duplicate port edges")
    mat = np.zeros((basis.n_edges, len(port_edges)), dtype=complex)
    for col, (va, vb) in enumerate(port_edges):
        idx = basis.edge_index(va, vb)  # GeometryError if absent
        mat[idx, col] = basis.lengths[idx]
    return mat


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
    bary = np.concatenate([TRI_BARY @ t for t in corners])
    wts = np.concatenate([TRI_W * frac for _ in corners])
    return bary, wts


#: outer rule of the extracted static kernel, built once at import so that
#: concurrent assemblies only read it
_BARY_STATIC, _W_STATIC = _refined_rule(3)


def _singular_moments(p_verts, q_verts, area_p, area_q, k0, scratch: Scratch):
    """Double-surface kernel moments for a batch of P touching face pairs.

    p_verts and q_verts are (P, 3, 3) in the plane z = 0, area_p and
    area_q (P,). Returns (m00 (P,), m_in (P, 2), m_out (P, 2), mdot (P,)),
    the vector moments' x and y parts (their z parts are zero), where
        m00   = II G
        m_in  = II r' G
        m_out = II r  G
        mdot  = II (r . r') G
    Extracted part (1/R - k^2 R / 2)/(4 pi): closed-form inner integral
    under a subdivided 7-point outer rule. Smooth remainder: 7x7 double
    rule. Each pair's moments are computed by the same arithmetic whatever
    else the batch holds. The static integrals keep their temporaries in
    `scratch`.
    """
    xp = (TRI_BARY @ p_verts)[..., :2]  # (P, 7, 2)
    xq = (TRI_BARY @ q_verts)[..., :2]

    # smooth remainder
    dist = np.linalg.norm(xp[:, :, None, :] - xq[:, None, :, :], axis=-1)
    kd = _smooth_kernel(dist, k0) * (TRI_W[:, None] * TRI_W[None, :])
    kd *= (area_p * area_q)[:, None, None]
    m00 = kd.sum(axis=(1, 2))
    m_in = np.einsum("pij,pjd->pd", kd, xq)
    m_out = np.einsum("pij,pid->pd", kd, xp)
    mdot = np.einsum("pij,pid,pjd->p", kd, xp, xq)

    # extracted part, inner integrals in closed form; the static kernel's
    # results are this call's own, so they become the kernel in place
    xs = _BARY_STATIC @ p_verts
    ws = _W_STATIC
    g0, gr, j0, jr = static_potential_integrals(xs, q_verts, scratch=scratch)
    half_ksq = 0.5 * k0 ** 2
    j0 *= half_ksq
    g0 -= j0
    jr *= half_ksq
    gr -= jr
    scale = area_p / (4.0 * np.pi)
    m00 += scale * np.einsum("i,pi->p", ws, g0)
    # order "C" iterates in subscript order: the inner loop runs over the
    # 448 points of one pair and component, not over the 2 components of
    # the strided (x, y) view, and each entry is summed from zero in point
    # order, on which Z's bits depend
    m_in += scale[:, None] * np.einsum("i,pid->pd", ws, gr[..., :2],
                                       order="C")
    m_out += scale[:, None] * np.einsum("i,pi,pid->pd", ws, g0, xs[..., :2],
                                        order="C")
    # the z parts of xs and gr are zero; summed with them, einsum's inner
    # loop runs over whole contiguous rows instead of pairs
    mdot += scale * np.einsum("i,pid,pid->p", ws, xs, gr)
    return m00, m_in, m_out, mdot


#: touching face pairs per batched moment call. The closed-form integrals
#: of a batch take 21 arrays of P pairs x 448 outer points from the batch
#: task's Scratch (2.4 MB at P = 32). On one thread of a 2-vCPU machine
#: (medians of two runs of 7), the 357 pairs of a 4x8-pixel parent took
#: 13.6-14.6, 14.2-14.9 and 14.6-15.3 ms at P = 16, 32 and 64, and the
#: 1,605 pairs of an 8x16-pixel parent 61.6-66.3, 57.1-58.7 and
#: 64.2-76.4 ms
TOUCH_CHUNK = 32

#: faces per side of a regular-pair tile. A 32 x 32 face tile holds
#: 50,176 point pairs: 0.8 MB of kernel values and 0.8 MB for the
#: distances, one temporary and then the mirror kernel, against 103 MB for
#: the whole 256-face plate at once
TILE = 32

#: edges per row block of the edge-space combination. A block gathers
#: (EDGE_ROWS, 2, E, 2) face moments, 2 complex values for each of m_in
#: and m_out and one for m00 and mdot: 0.37 MB for each vector moment and
#: 0.18 MB for each scalar one at 8 rows and the 360 edges of the
#: 8 x 16-pixel plate, and its einsum temporaries are as large again. The
#: block writes its rows straight into Z. The pool threads keep what their
#: blocks freed, and the run's peak sits on top of it. On two threads the
#: traced peak of that plate's assembly read 15.4-15.5 MB at 16 rows,
#: 12.3-12.4 MB at 8 and 12.1-12.2 MB at 4
EDGE_ROWS = 8


def _cores() -> int:
    """CPU cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tile_moments(kern, xp, xq):
    """(m00, m_in, m_out, mdot) of one tile from its weighted kernel
    kern[p, i, q, j] (outer face p, point i; inner face q, point j) and
    the points' x and y, xp (P, 7, 2), xq (Q, 7, 2).

    m_in and m_out are the sums kern . xq over j and kern . xp over i.
    Spelled with d innermost ("piqj,qjd->pqd"), einsum's inner loop runs
    over the 2 components; with xq as a contiguous (Q, 2, 7) copy and the
    output axes reordered, it runs over p instead, and each entry's
    products are still added in the same order, so the transposed results
    are bit-equal to the plain spellings (tests/test_efie.py pins this).
    """
    xq_t = np.ascontiguousarray(xq.transpose(0, 2, 1))
    return (
        np.einsum("piqj->pq", kern),
        np.einsum("piqj,qdj->qdp", kern, xq_t).transpose(2, 0, 1),
        np.einsum("piqj,pid->dqp", kern, xp).transpose(2, 1, 0),
        np.einsum("piqj,pid,qjd->pq", kern, xp, xq),
    )


def _regular_tile(x7, wa, k0, a: slice, b: slice):
    """Full-kernel 7x7-rule moments of the face blocks a x b, and of b x a
    unless a is b.

    The distance between two points is the norm of a difference that
    changes only its sign when the faces swap, so the kernel of b x a is
    the transpose of a x b's bit for bit, and the mirror tile runs the same
    einsums on a contiguous transposed copy instead of computing it again.
    Each entry's arithmetic does not depend on the tile's shape.
    """
    shape = (a.stop - a.start, 7, b.stop - b.start, 7)
    kern = np.empty(shape, dtype=complex)
    spare = np.empty(shape, dtype=complex)
    # the spare array holds the distances and one real temporary, and then
    # the mirror kernel
    dist, tmp = spare.view(float).reshape((2,) + shape)
    for c in range(2):
        np.subtract(x7[a, :, None, None, c], x7[None, None, b, :, c], out=tmp)
        if c == 0:
            np.multiply(tmp, tmp, out=dist)
        else:
            tmp *= tmp
            dist += tmp
    np.sqrt(dist, out=dist)  # (A, 7, B, 7), equal to the norm of the difference
    np.maximum(dist, 1e-300, out=dist)  # self-points are overwritten later
    np.multiply(-1j * k0, dist, out=kern)
    np.exp(kern, out=kern)
    # dividing a complex number by a real c, numpy multiplies both parts
    # by 1/c, and multiplying it by a real w multiplies both parts by w:
    # the same products on the float view of the kernel
    parts = kern.view(float).reshape(shape + (2,))
    np.multiply(4.0 * np.pi, dist, out=tmp)
    np.reciprocal(tmp, out=tmp)
    parts *= tmp[..., None]
    np.multiply(wa[a, :, None, None], wa[None, None, b, :], out=tmp)
    parts *= tmp[..., None]
    ab = _tile_moments(kern, x7[a], x7[b])
    if a == b:
        return ab, None
    mirror = spare.reshape(shape[2:] + shape[:2])
    np.copyto(mirror, kern.transpose(2, 3, 0, 1))
    return ab, _tile_moments(mirror, x7[b], x7[a])


def assemble_impedance(basis: RwgBasis, frequency: float) -> ImpedanceOperator:
    """Assemble the Galerkin EFIE impedance matrix for one frequency.

    The face moments and then the row blocks of the edge-space combination
    run on a thread pool of at most one thread per core. The touching-pair
    batches are the pool's first task, which runs them in order beside the
    regular-pair tiles, whose einsums release the interpreter lock that
    the batches' short ufunc calls mostly hold. Every tile and batch
    computes each entry by the same arithmetic wherever it runs, the
    calling thread scatters every face moment in a fixed order, and each
    row block writes its own rows of Z, so Z is bit-identical for any
    number of cores.
    """
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

    if np.any(mesh.vertices[:, 2] != mesh.vertices[0, 2]):
        raise GeometryError("mesh is not a horizontal plate: its vertices "
                            "do not all share one z")

    omega = 2.0 * np.pi * frequency
    k0 = omega / C0
    nf = mesh.n_faces
    vertices = mesh.vertices * (1.0, 1.0, 0.0)  # the plate moved to z = 0
    tv = vertices[mesh.faces]  # (F, 3, 3)
    areas = mesh.face_areas

    x7 = tri_points(tv)[..., :2]  # (F, 7, 2), the rule points' x and y
    wa = TRI_W[None, :] * areas[:, None]  # (F, 7) combined weights

    # regular face pairs: full kernel under the 7x7 point rule, which holds
    # up on well separated pairs and on near pairs one disabled pixel apart.
    # Touching pairs land here too and get overwritten below.
    blocks = [slice(s, min(s + TILE, nf)) for s in range(0, nf, TILE)]
    tiles = [(a, b) for i, a in enumerate(blocks) for b in blocks[i:]]

    # touching pairs: singularity-extracted moments, mirrored for symmetry
    pairs = np.array(_face_adjacency_pairs(mesh.faces)).reshape(-1, 2)
    batches = [pairs[s:s + TOUCH_CHUNK].T
               for s in range(0, len(pairs), TOUCH_CHUNK)]

    m00 = np.empty((nf, nf), dtype=complex)
    m_in = np.empty((nf, nf, 2), dtype=complex)
    m_out = np.empty((nf, nf, 2), dtype=complex)
    mdot = np.empty((nf, nf), dtype=complex)

    # gather face moments into edge space
    ef = np.stack([basis.plus_face, basis.minus_face], axis=1)  # (E, 2)
    fv = vertices[np.stack([basis.plus_free, basis.minus_free], axis=1), :2]
    sg = np.array([1.0, -1.0])
    lengths = basis.lengths
    ne = basis.n_edges

    z = np.empty((ne, ne), dtype=complex)

    def edge_rows(rows: slice) -> None:
        """Write rows `rows` of Z from the face moments."""
        pa = ef[rows, :, None, None]
        qb = ef[None, None, :, :]
        g00 = m00[pa, qb]  # (e, 2, E, 2)
        gdot = mdot[pa, qb]
        g_in = m_in[pa, qb]  # (e, 2, E, 2, 2)
        g_out = m_out[pa, qb]
        fm = fv[rows]

        # II (r - p_m).(r' - p_n) G = Mdot - p_m.M_in - p_n.M_out + (p_m.p_n) M00
        # (r is the outer variable on P, r' the inner one on Q)
        vec_term = (
            gdot
            - np.einsum("manbd,mad->manb", g_in, fm)
            - np.einsum("manbd,nbd->manb", g_out, fv)
            + np.einsum("mad,nbd->manb", fm, fv) * g00
        )

        coef = (
            sg[None, :, None, None]
            * sg[None, None, None, :]
            / (areas[ef[rows]][:, :, None, None] * areas[ef][None, None, :, :])
        ) * (lengths[rows, None, None, None] * lengths[None, None, :, None])
        a_mat = 0.25 * np.einsum("manb->mn", coef * vec_term)
        phi_mat = np.einsum("manb->mn", coef * g00)
        np.subtract(1j * omega * MU0 * a_mat, 1j / (omega * EPS0) * phi_mat,
                    out=z[rows])

    def touching_batches():
        """Every touching batch in order, in one Scratch."""
        scratch = Scratch()
        return [_singular_moments(tv[p], tv[q], areas[p], areas[q], k0, scratch)
                for p, q in batches]

    with ThreadPoolExecutor(min(_cores(), len(tiles) + 1)) as pool:
        touching = pool.submit(touching_batches)
        regular = pool.map(lambda ab: _regular_tile(x7, wa, k0, *ab), tiles)
        for (a, b), (ab, ba) in zip(tiles, regular):
            m00[a, b], m_in[a, b], m_out[a, b], mdot[a, b] = ab
            if ba is not None:
                m00[b, a], m_in[b, a], m_out[b, a], mdot[b, a] = ba
        for (p, q), (s00, s_in, s_out, sdot) in zip(batches, touching.result()):
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

        rows = [slice(s, min(s + EDGE_ROWS, ne))
                for s in range(0, ne, EDGE_ROWS)]
        list(pool.map(edge_rows, rows))  # raises a block's exception
    return ImpedanceOperator(z=z, frequency=frequency, basis=basis)
