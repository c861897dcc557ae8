"""Equivalent channel and degrees-of-freedom accounting.

The port-to-port channel of a mode-modeled link is

    H = U_R G U_T
    U_T = Jbar_T diag(m_T) V_T          (ports -> surface current)
    U_R = V_R^+ diag(m_R)^{-1} Ebar_R^+ (received field -> ports)

where Jbar/Ebar hold unit-norm sampled mode patterns, m the modal
significances, V the modal excitation matrices, and ^+ the SVD
pseudo-inverse with relative cutoff `channel.RANK_TOL`. The receive map
projects the incident field onto the receive mode span; whatever lies
outside it is lost, never amplified.

DoF counts come in two flavors throughout: the effective count
#{sigma_l^2 >= gamma sigma_1^2} (the headline metric) and the strict
numerical rank at the same RANK_TOL cutoff (where the rank inequalities
live): the port/mode ceiling min(L_T, L_R, n_T, n_R), the channel ceiling
rank(H) <= rank(G), and the floor
rank(H) >= rank(V_R) + rank(V_T) + rank(Gamma) - n_R - n_T. Both are
the `channel` counts on singular values. Every pseudo-inverse is `_pinv`,
one SVD that inverts exactly the singular values `strict_rank` counts.

`conventional_reduce` specializes the model to an array of identical
single-mode elements, where U_T collapses to a block-diagonal stack of one
element current and the channel to the kernel's scalar line-of-sight
amplitude between element centers.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import (ETA0, RANK_TOL, ChannelOperator, effective_rank,
                      los_amplitude, strict_rank)
from .cma import SIGNIFICANCE_FLOOR
from .errors import RankDeficiencyError, ReductionError
from .mesh import face_rows

__all__ = [
    "EquivalentChannel",
    "GammaMatrix",
    "DofReport",
    "ElementAnalysis",
    "ConventionalModel",
    "transmitter_map",
    "receiver_map",
    "equivalent_channel",
    "achievable_dof",
    "gamma_decomposition",
    "dof_bounds",
    "matrix_rank",
    "build_report",
    "point_source_channel",
    "conventional_reduce",
    "block_leakage",
]

#: rows of G per block of the Gamma residual sum
RESIDUAL_ROWS = 64


def matrix_rank(a: np.ndarray) -> int:
    """Numerical rank at the relative singular-value cutoff RANK_TOL."""
    return strict_rank(np.linalg.svd(a, compute_uv=False))


def _pinv(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a^+, rank of a) from one SVD: the rank is `strict_rank` of the
    singular values, and exactly that many leading values are inverted."""
    u, s, vt = np.linalg.svd(a.conjugate(), full_matrices=False)
    rank = strict_rank(s)
    inv = np.zeros(s.shape)
    inv[:rank] = 1.0 / s[:rank]
    return vt.T @ (inv[:, None] * u.T), rank


def _as_matrix(g) -> np.ndarray:
    return g.matrix if isinstance(g, ChannelOperator) else np.asarray(g)


def _refuse_below_floor(m: np.ndarray, side: str) -> None:
    if m.size and np.abs(m).min() < SIGNIFICANCE_FLOOR:
        raise ValueError(f"{side} map received modes below the significance "
                         "floor; truncate before building maps")


def transmitter_map(patterns_t: np.ndarray, m_t: np.ndarray, v_t: np.ndarray) -> np.ndarray:
    """U_T = Jbar_T diag(m_T) V_T, mapping port signals to face currents."""
    patterns_t = np.asarray(patterns_t)
    m_t = np.asarray(m_t)
    v_t = np.asarray(v_t)
    if patterns_t.shape[1] != m_t.shape[0] or v_t.shape[0] != m_t.shape[0]:
        raise ValueError(
            f"inconsistent mode counts: patterns {patterns_t.shape}, "
            f"m {m_t.shape}, V {v_t.shape}"
        )
    _refuse_below_floor(m_t, "transmitter")
    return patterns_t @ (m_t[:, None] * v_t)


def receiver_map(v_r: np.ndarray, m_r: np.ndarray, patterns_r: np.ndarray) -> np.ndarray:
    """U_R = V_R^+ diag(m_R)^{-1} Ebar_R^+, mapping face fields to ports.

    Requires rank(V_R) >= L_R so the port-recovery step is well posed;
    otherwise raises RankDeficiencyError stating rank(V_R).
    """
    v_r = np.asarray(v_r)
    m_r = np.asarray(m_r)
    patterns_r = np.asarray(patterns_r)
    n_r, l_r = v_r.shape
    if m_r.shape[0] != n_r or patterns_r.shape[1] != n_r:
        raise ValueError(
            f"inconsistent mode counts: V {v_r.shape}, m {m_r.shape}, "
            f"patterns {patterns_r.shape}"
        )
    _refuse_below_floor(m_r, "receiver")
    v_pinv, rank_v = _pinv(v_r)
    if rank_v < l_r:
        raise RankDeficiencyError(
            f"modal excitation matrix has rank {rank_v} < {l_r} receive ports"
        )
    e_pinv = _pinv(patterns_r)[0]
    return v_pinv @ ((1.0 / m_r)[:, None] * e_pinv)


@dataclass
class EquivalentChannel:
    """Port-to-port channel H = U_R G U_T with its cached spectrum."""

    matrix: np.ndarray
    _singulars: np.ndarray | None = field(default=None, repr=False)

    @property
    def singulars(self) -> np.ndarray:
        if self._singulars is None:
            self._singulars = np.linalg.svd(self.matrix, compute_uv=False)
        return self._singulars


def equivalent_channel(u_r: np.ndarray, g, u_t: np.ndarray) -> EquivalentChannel:
    """H = U_R G U_T; g may be a ChannelOperator or a raw matrix."""
    g_mat = _as_matrix(g)
    if u_r.shape[1] != g_mat.shape[0] or g_mat.shape[1] != u_t.shape[0]:
        raise ValueError(
            f"map/channel shapes do not chain: {u_r.shape} x {g_mat.shape} "
            f"x {u_t.shape}"
        )
    h = u_r @ g_mat @ u_t
    return EquivalentChannel(matrix=h)


def achievable_dof(ch: EquivalentChannel, gamma: float = 0.5) -> int:
    """#{l : sigma_l(H)^2 >= gamma sigma_1(H)^2}; 0 for an all-zero H."""
    return effective_rank(ch.singulars, gamma)


@dataclass
class GammaMatrix:
    """Modal coupling matrix from factoring G in the mode-pattern bases.

    gamma = Ebar_R^+ G (Jbar_T^T)^+ solves G ~= Ebar_R Gamma Jbar_T^T in
    the least-squares sense, from the pseudo-inverses of the whole pattern
    matrices; a rank-deficient pattern matrix gives Gamma the rank it
    would have on a maximal independent column set. unmodeled_fraction
    reports how much of G lies outside the modal subspaces.
    """

    gamma: np.ndarray
    unmodeled_fraction: float


def gamma_decomposition(g: np.ndarray, patterns_r: np.ndarray, patterns_t: np.ndarray) -> GammaMatrix:
    """Least-squares Gamma with G ~= Ebar_R Gamma Jbar_T^T."""
    g_mat = np.asarray(g)
    patterns_r = np.asarray(patterns_r)
    patterns_t = np.asarray(patterns_t)
    if patterns_r.shape[0] != g_mat.shape[0] or patterns_t.shape[0] != g_mat.shape[1]:
        raise ValueError(
            f"pattern/channel shapes do not chain: {patterns_r.shape}, "
            f"{g_mat.shape}, {patterns_t.shape}"
        )
    e_pinv, rank_r = _pinv(patterns_r)
    jt_pinv, rank_t = _pinv(patterns_t.T)
    for label, a, r in (("receive", patterns_r, rank_r),
                        ("transmit", patterns_t, rank_t)):
        if r < a.shape[1]:
            warnings.warn(f"{label} pattern matrix is rank-deficient ({r} of "
                          f"{a.shape[1]} columns independent)", stacklevel=2)
    left = e_pinv @ g_mat
    gamma = left @ jt_pinv

    # P_E G P_J = E (Gamma J^T) from the thin (n_r, n) factor, and
    # ||G - P_E G P_J||^2 summed over row blocks, so no n x n array is made
    right = gamma @ patterns_t.T
    g_sq = res_sq = 0.0
    for s in range(0, g_mat.shape[0], RESIDUAL_ROWS):
        rows = slice(s, s + RESIDUAL_ROWS)
        g_rows = g_mat[rows]
        diff = patterns_r[rows] @ right
        np.subtract(g_rows, diff, out=diff)
        g_sq += np.vdot(g_rows, g_rows).real
        res_sq += np.vdot(diff, diff).real
    if g_sq == 0.0:
        return GammaMatrix(gamma, 0.0)
    unmodeled = float(np.sqrt(res_sq / g_sq))
    return GammaMatrix(gamma, unmodeled)


def dof_bounds(
    v_r: np.ndarray,
    v_t: np.ndarray,
    gamma_matrix: np.ndarray,
    n_r: int,
    n_t: int,
    l_t: int,
    l_r: int,
    g_singulars: np.ndarray,
    gamma: float = 0.5,
) -> tuple[int, int, int]:
    """(port/mode upper bound, channel upper bound, rank lower bound).

    upper_port_mode = min(L_T, L_R, n_T, n_R); upper_channel is the
    effective DoF of the channel spectrum g_singulars; lower = rank(V_R) +
    rank(V_T) + rank(Gamma) - n_R - n_T, which may be <= 0. Ranks use the
    shared RANK_TOL cutoff.
    """
    return _bounds(v_r, v_t, matrix_rank(gamma_matrix), n_r, n_t, l_t, l_r,
                   g_singulars, gamma)


def _bounds(v_r, v_t, gamma_rank, n_r, n_t, l_t, l_r, g_singulars,
            gamma) -> tuple[int, int, int]:
    """`dof_bounds` with the rank of Gamma given."""
    upper_port_mode = int(min(l_t, l_r, n_t, n_r))
    upper_channel = effective_rank(np.asarray(g_singulars), gamma)
    lower = int(matrix_rank(v_r) + matrix_rank(v_t) + gamma_rank - n_r - n_t)
    return upper_port_mode, upper_channel, lower


@dataclass
class DofReport:
    """Everything the DoF analysis produced for one link configuration."""

    dof_h: int
    dof_g_effective: int
    port_mode_upper: int
    lower_bound: int
    gamma: float
    h_singulars: np.ndarray
    g_singulars: np.ndarray
    gamma_matrix_rank: int
    h_strict_rank: int
    g_strict_rank: int

    def to_json(self) -> str:
        # fields in declaration order; the singular-value arrays as lists
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(payload, indent=2, default=np.ndarray.tolist)


def build_report(
    ch: EquivalentChannel,
    g_singulars: np.ndarray,
    v_r: np.ndarray,
    v_t: np.ndarray,
    gamma_matrix: np.ndarray,
    gamma: float = 0.5,
) -> DofReport:
    """Assemble the DofReport for one analyzed link."""
    n_r, l_r = v_r.shape
    n_t, l_t = v_t.shape
    gamma_rank = matrix_rank(gamma_matrix)
    upper_pm, upper_ch, lower = _bounds(
        v_r, v_t, gamma_rank, n_r, n_t, l_t, l_r, g_singulars, gamma
    )
    return DofReport(
        dof_h=achievable_dof(ch, gamma),
        dof_g_effective=upper_ch,
        port_mode_upper=upper_pm,
        lower_bound=lower,
        gamma=gamma,
        h_singulars=np.asarray(ch.singulars, dtype=float),
        g_singulars=np.asarray(g_singulars, dtype=float),
        gamma_matrix_rank=gamma_rank,
        h_strict_rank=strict_rank(ch.singulars),
        g_strict_rank=strict_rank(np.asarray(g_singulars)),
    )


@dataclass
class ElementAnalysis:
    """One array element: its faces in the full mesh, its unit-norm sampled
    current when driven at its own port, and its center point."""

    faces: np.ndarray
    pattern: np.ndarray
    center: np.ndarray


@dataclass
class ConventionalModel:
    """Reduced signal model of an array of identical single-mode elements.

    g_tilde is the scalar point-source channel between element centers;
    u_t/u_r are the block maps the full analysis should collapse to.
    """

    u_t: np.ndarray
    u_r: np.ndarray
    g_tilde: np.ndarray


def point_source_channel(tx_centers: np.ndarray, rx_centers: np.ndarray, k0: float) -> np.ndarray:
    """Scalar far-field channel: leading Green term between point elements.

    Entry (i, j) = -j eta exp(-j k0 d_ij) / (2 lambda d_ij).
    """
    tx_centers = np.atleast_2d(np.asarray(tx_centers, dtype=float))
    rx_centers = np.atleast_2d(np.asarray(rx_centers, dtype=float))
    d = np.linalg.norm(rx_centers[:, None, :] - tx_centers[None, :, :], axis=-1)
    if d.min() <= 0.0:
        raise ValueError("coincident element centers")
    return los_amplitude(d, k0)


def _check_identical(elements: list[ElementAnalysis], side: str) -> np.ndarray:
    ref = elements[0].pattern
    for i, el in enumerate(elements[1:], start=1):
        if el.pattern.shape != ref.shape:
            raise ReductionError(
                f"{side} element {i} has a different pattern size than element 0"
            )
        dev = np.linalg.norm(el.pattern - ref) / np.linalg.norm(ref)
        if dev > 1e-6:
            raise ReductionError(
                f"{side} element {i} current differs from element 0 by "
                f"{dev:.2e} (> 1e-6); reduction requires identical elements"
            )
    return ref


def conventional_reduce(
    tx_elements: list[ElementAnalysis],
    rx_elements: list[ElementAnalysis],
    k0: float,
    tx_face_count: int,
    rx_face_count: int,
) -> ConventionalModel:
    """Block maps and point-source channel for identical-element arrays.

    u_t stacks one copy of the shared element current per transmit port
    (column l supported on element l's faces); u_r is the pseudo-inverse of
    the same construction on the receive side, so it projects the incident
    field onto each element's own pattern.
    """
    if not tx_elements or not rx_elements:
        raise ValueError("need at least one element per side")
    _check_identical(tx_elements, "transmit")
    _check_identical(rx_elements, "receive")

    def block_map(elements, n_faces):
        out = np.zeros((3 * n_faces, len(elements)), dtype=complex)
        for l, el in enumerate(elements):
            out[face_rows(el.faces), l] = el.pattern
        return out

    u_t = block_map(tx_elements, tx_face_count)
    e_blocks = block_map(rx_elements, rx_face_count)
    u_r = _pinv(e_blocks)[0]
    g_tilde = point_source_channel(
        np.array([el.center for el in tx_elements]),
        np.array([el.center for el in rx_elements]),
        k0,
    )
    return ConventionalModel(u_t=u_t, u_r=u_r, g_tilde=g_tilde)


def block_leakage(u_t: np.ndarray, elements: list[ElementAnalysis]) -> np.ndarray:
    """Per-port fraction of map energy outside the port's own element faces."""
    u_t = np.asarray(u_t)
    out = np.empty(len(elements))
    for l, el in enumerate(elements):
        col = u_t[:, l]
        total = np.linalg.norm(col) ** 2
        own = np.linalg.norm(col[face_rows(el.faces)]) ** 2
        out[l] = 0.0 if total == 0.0 else 1.0 - own / total
    return out
