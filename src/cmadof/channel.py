"""Free-space dyadic Green channel between two triangulated apertures.

The field a transmit surface current induces on the receive aperture is

    e_R(r) = -j w mu0  Int_{A_T}  Gdy(r, r') j_T(r') dS'

with the line-of-sight dyadic kernel

    Gdy(r, r') = -(j eta exp(-j k0 d) / (2 lambda d)) [ (I - dh dh^T)
                 + (j lambda / (2 pi d)) (I - 3 dh dh^T)
                 - (lambda / (2 pi d))^2 (I - 3 dh dh^T) ]

where d = |r - r'|, dh = (r - r')/d, eta is the free-space impedance and
lambda = 2 pi / k0. The three bracket terms are the radiating, induction,
and electrostatic contributions; each is a symmetric 3x3 dyad, and the
whole kernel is even in dh, so Gdy(r, r') = Gdy(r', r).

`green_dyadic` broadcasts over leading point axes; its prefactor
`los_amplitude` is also the point-source channel of `dofcore`.
`assemble_channel` discretizes the integral with one point per source face
(centroid value times area), giving the 3 N_R x 3 N_T matrix that maps
stacked per-face transmit currents to stacked per-face receive fields
(rows `mesh.face_rows`). It allocates that matrix once and fills it in
blocks of RX_BLOCK receive faces, so its working memory beyond the
matrix is one block's kernel temporaries; every entry is elementwise
arithmetic on its own two centroids, so the blocking does not change a
bit. Face sizes of a small fraction of a wavelength keep the midpoint rule
adequate; the DoF outputs downstream are invariant to the overall scalar
convention. Only `strict_rank` compares singular values with RANK_TOL.

`ChannelOperator.singulars` takes a full SVD, except on the operator that
`ga.PixelProblem.channel` marks: one all-metal parent and its copy straight
above it. A half turn about their common normal axis maps that link onto
itself: face f goes to F-1-f (each pixel is split along one diagonal, faces
row-major) and (x, y, z) to S (x, y, z), S = diag(-1, -1, 1). With A the
first F/2 faces and B the last F/2 reversed, an orthogonal even/odd basis
makes G block-diagonal, G+- = (G_AA + S G_BB S +- (G_AB S + S G_BA)) / 2,
so in exact arithmetic G's singular values are the two blocks' merged, at
a quarter of the SVD work (Knorr, IEEE TAP 21(6), 1973, did so for CMA).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .efie import C0, EPS0, MU0
from .errors import SingularityError
from .mesh import TriMesh

__all__ = [
    "ETA0",
    "RANK_TOL",
    "ChannelOperator",
    "green_dyadic",
    "assemble_channel",
    "dof_g",
    "effective_rank",
    "strict_rank",
]

#: free-space wave impedance, ohms
ETA0 = float(np.sqrt(MU0 / EPS0))

#: relative singular-value cutoff of every strict numerical rank and
#: pseudo-inverse in the package
RANK_TOL = 1e-10

#: receive faces per block of `assemble_channel`: a block's kernel
#: temporaries hold a few RX_BLOCK x N_T x 9 arrays, a sixteenth of the
#: 3 N_R x 3 N_T channel each on the 8 x 16-pixel plate
RX_BLOCK = 16


def los_amplitude(d, k0: float):
    """Line-of-sight amplitude -j eta exp(-j k0 d) / (2 lambda d)."""
    lam = 2.0 * np.pi / k0
    return -1j * ETA0 * np.exp(-1j * k0 * d) / (2.0 * lam * d)


def green_dyadic(r, r_prime, k0: float, n_terms: int = 3) -> np.ndarray:
    """The dyadic Green kernel between points r and r_prime, (..., 3, 3).

    Both point arguments broadcast over their leading axes, so
    `green_dyadic(a[:, None], b[None], k0)` is the kernel over all pairs.
    n_terms keeps only the first 1, 2, or 3 bracket terms (3 = full kernel);
    the truncated forms support far-field and point-source comparisons.
    """
    if n_terms not in (1, 2, 3):
        raise ValueError("n_terms must be 1, 2, or 3")
    d_vec = np.asarray(r, dtype=float) - np.asarray(r_prime, dtype=float)
    d = np.linalg.norm(d_vec, axis=-1)
    if np.min(d) <= 0.0:
        raise SingularityError(
            "dyadic Green kernel evaluated at zero separation "
            "(coincident points or face centroids)"
        )
    dh = d_vec / d[..., None]
    outer = np.einsum("...a,...b->...ab", dh, dh)
    eye = np.eye(3)
    if n_terms == 1:
        bracket = (eye - outer) + 0j
    else:
        lam = 2.0 * np.pi / k0
        fac = (lam / (2.0 * np.pi * d))[..., None, None]
        tail = 1j * fac if n_terms == 2 else 1j * fac - fac * fac
        bracket = (eye - outer) + tail * (eye - 3.0 * outer)
    return los_amplitude(d, k0)[..., None, None] * bracket


@dataclass
class ChannelOperator:
    """Discretized dyadic Green channel between two face-sampled apertures.

    matrix is (3 N_R, 3 N_T): row block p is the field at receive centroid
    p, column block q weights the current on transmit face q (already
    multiplied by the -j w mu0 prefactor and the face area).
    """

    matrix: np.ndarray
    k0: float
    tx_centroids: np.ndarray
    rx_centroids: np.ndarray
    tx_areas: np.ndarray
    _singulars: np.ndarray | None = field(default=None, repr=False)
    _half_turn: bool = field(default=False, init=False, repr=False)

    @property
    def singulars(self) -> np.ndarray:
        """Singular values of the channel matrix, descending; from the two
        half-turn blocks when the operator is so marked."""
        if self._singulars is None:
            self._singulars = (_half_turn_singulars(self.matrix)
                               if self._half_turn else
                               np.linalg.svd(self.matrix, compute_uv=False))
        return self._singulars

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """matrix[np.ix_(rows, cols)], which copies the block alone."""
        return self.matrix[np.ix_(rows, cols)]


def _half_turn_singulars(matrix: np.ndarray) -> np.ndarray:
    """Singular values of G from G+ and G-, built from reversed views of G
    in two (3F/2)-square buffers; G- reuses G+'s after G+'s SVD."""
    h, turn = matrix.shape[0] // 6, np.array([-1.0, -1.0, 1.0])  # F/2, S
    faces = matrix.reshape(2 * h, 3, 2 * h, 3)
    g_aa, g_bb = faces[:h, :, :h], faces[::-1, :, ::-1][:h, :, :h]
    g_ab, g_ba = faces[:, :, ::-1][:h, :, :h], faces[::-1][:h, :, :h]
    turn_both = np.multiply.outer(turn, turn)[None, :, None, :]
    # G_AB S + S G_BA = S (S G_AB S + G_BA); products with +-1 are exact
    cross = np.multiply(g_ab, turn_both)
    cross += g_ba
    cross *= turn[None, :, None, None]
    block, halves = np.empty_like(cross), []
    for combine in (np.add, np.subtract):
        np.multiply(g_bb, turn_both, out=block)
        block += g_aa
        combine(block, cross, out=block)
        halves.append(np.linalg.svd(block.reshape(3 * h, 3 * h),
                                    compute_uv=False))
    return 0.5 * np.sort(np.concatenate(halves))[::-1]


def assemble_channel(tx: TriMesh, rx: TriMesh, k0: float) -> ChannelOperator:
    """Midpoint-rule discretization of the transmit-to-receive field map.

    Block (p, q) = (-j w mu0) * green_dyadic(rx centroid p, tx centroid q)
    * tx face area q.
    """
    if not k0 > 0:
        raise ValueError("wavenumber must be positive")
    omega = k0 * C0
    weight = (-1j * omega * MU0) * tx.face_areas[None, :, None, None]
    n_r, n_t = rx.n_faces, tx.n_faces
    matrix = np.empty((3 * n_r, 3 * n_t), dtype=complex)
    # (p, a, q, b): component a at receive face p, b on transmit face q
    faces = matrix.reshape(n_r, 3, n_t, 3)
    for s in range(0, n_r, RX_BLOCK):
        p = slice(s, s + RX_BLOCK)
        blocks = green_dyadic(rx.face_centroids[p, None],
                              tx.face_centroids[None], k0)
        np.multiply(blocks, weight, out=faces[p].transpose(0, 2, 1, 3))
    return ChannelOperator(
        matrix=matrix,
        k0=k0,
        tx_centroids=tx.face_centroids.copy(),
        rx_centroids=rx.face_centroids.copy(),
        tx_areas=tx.face_areas.copy(),
    )


def effective_rank(singulars: np.ndarray, gamma: float) -> int:
    """Count of singular values with sigma^2 >= gamma * sigma_1^2."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    s = np.asarray(singulars, dtype=float)
    if s.size == 0:
        raise ValueError("empty singular spectrum")
    top = s[0] ** 2
    if top == 0.0:
        return 0
    return int(np.count_nonzero(s ** 2 >= gamma * top))


def strict_rank(singulars: np.ndarray) -> int:
    """Numerical rank: count of singular values >= RANK_TOL * sigma_1."""
    s = np.asarray(singulars, dtype=float)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s >= RANK_TOL * s[0]))


def dof_g(op: ChannelOperator, gamma: float = 0.5) -> tuple[int, int]:
    """(effective DoF of the channel alone, strict numerical rank).

    The effective count applies the threshold rule sigma_l^2 >= gamma *
    sigma_1^2 to the channel's singular values; the strict rank uses the
    relative cutoff RANK_TOL.
    """
    return effective_rank(op.singulars, gamma), strict_rank(op.singulars)
