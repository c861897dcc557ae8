"""Characteristic mode analysis of an assembled impedance operator.

The characteristic modes of a conducting structure are the eigenpairs of

    X j_i = lambda_i R j_i

where Z = R + jX is the impedance matrix. Each mode is a source-free
current pattern; lambda_i = 0 marks resonance and the modal significance

    m_i = 1 / (1 + j lambda_i),   |m_i| = 1/sqrt(1 + lambda_i^2)

weighs how strongly the mode radiates when excited.

R is the radiated-power operator and is severely rank-deficient in floating
point (an N-dimensional current space radiates through far fewer effective
channels), so the raw pencil is ill-posed. `solve_modes` restricts it to the
numerically radiating subspace: take the eigenpairs of the clamped R_psd
from `ImpedanceOperator.psd` (R is decomposed once when it needs no
clamp), keep eigenvalues >= REL_RANK_CUT times the largest, whiten with
W = Q_k diag(w_k)^{-1/2}, and solve the standard symmetric eigenproblem
W^T X W there. Modes are reported in descending |m_i| order, which is
ascending |lambda_i| order.

A mode is defined only up to sign. `solve_modes` fixes it once, making
each mode's largest-|coefficient| entry positive, and nothing changes it
afterwards. `excitation_matrix` and `mode_patterns` take the (E, L) port
columns and the (3 Nf, E) face sampler as arrays and return V and the
patterns; a mode's row of V and its pattern column carry its sign, so the
channel H built from them does not depend on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .efie import ImpedanceOperator
from .errors import DegenerateStructureError

__all__ = [
    "ModeBasis",
    "solve_modes",
    "excitation_matrix",
    "mode_patterns",
    "pattern_gram_dev",
    "REL_RANK_CUT",
    "SIGNIFICANCE_FLOOR",
]

#: relative eigenvalue cut defining the radiating subspace of R_psd
REL_RANK_CUT = 1e-10

#: modes with |m_i| below this are dropped before inverting diag(m)
SIGNIFICANCE_FLOOR = 1e-3


def _sign_fix(columns: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-|entry| is positive."""
    lead = np.abs(columns).argmax(axis=0)
    signs = np.sign(columns[lead, np.arange(columns.shape[1])])
    signs[signs == 0] = 1.0
    return columns * signs


class _Pencil:
    """The reduced pencil of one `solve_modes` call, kept so that its
    diagnostics are computed only when they are read.

    `residuals` is the backward error of each mode the solve kept and
    `r_cross_max` the largest off-diagonal |J^T R_psd J| over those modes.
    """

    def __init__(self, x_red, y, lam, lam_all, modes, r_psd):
        self._x_red, self._y, self._lam, self._lam_all = x_red, y, lam, lam_all
        self._modes, self._r_psd = modes, r_psd

    @cached_property
    def residuals(self) -> np.ndarray:
        # The truncated pencil is well posed only in the radiated-power
        # metric, where it becomes the reduced symmetric problem
        # X_red y = lambda y. The normwise backward error is taken there;
        # the full-space residual is dominated by X's action outside the
        # radiating subspace, which the reduction discards by construction.
        lam, lam_all, y = self._lam, self._lam_all, self._y
        x_norm = float(np.abs(lam_all).max()) if lam_all.size else 0.0
        num = np.linalg.norm(self._x_red @ y - lam[None, :] * y, axis=0)
        return num / (x_norm + np.abs(lam) + np.finfo(float).tiny)

    @cached_property
    def r_cross_max(self) -> float:
        modes = self._modes
        cross = modes.T @ (self._r_psd @ modes)
        np.fill_diagonal(cross, 0.0)
        return float(np.abs(cross).max()) if cross.size else 0.0


@dataclass
class ModeBasis:
    """Characteristic modes of one antenna at one frequency.

    mode_coeffs columns are RWG coefficient vectors, Euclidean-normalized,
    sign-fixed by `solve_modes`, and sorted by descending modal
    significance. The health diagnostics `eigen_residuals` and
    `r_cross_max` are computed when first read; a basis built by hand has
    neither (they read None).
    """

    eigenvalues: np.ndarray
    mode_coeffs: np.ndarray
    subspace_dim: int
    #: the solve's pencil, and the index there of each mode kept here
    _pencil: _Pencil | None = field(default=None, repr=False)
    _solved: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_kept(self) -> int:
        return len(self.eigenvalues)

    @property
    def significances(self) -> np.ndarray:
        """m_i = 1/(1 + j lambda_i), complex."""
        return 1.0 / (1.0 + 1j * self.eigenvalues)

    @property
    def eigen_residuals(self) -> np.ndarray | None:
        """Backward error of each mode in the reduced pencil."""
        if self._pencil is None:
            return None
        return self._pencil.residuals[self._solved]

    @property
    def r_cross_max(self) -> float | None:
        """Largest off-diagonal |J^T R_psd J| over the modes the solve
        kept, before any was dropped."""
        return None if self._pencil is None else self._pencil.r_cross_max

    def drop_modes(self, keep: np.ndarray) -> None:
        """Restrict every per-mode array to the boolean mask, in place."""
        keep = np.asarray(keep, dtype=bool)
        self.eigenvalues = self.eigenvalues[keep]
        self.mode_coeffs = self.mode_coeffs[:, keep]
        if self._solved is not None:
            self._solved = self._solved[keep]

    def drop_insignificant(self) -> None:
        """Drop the modes with |m_i| < SIGNIFICANCE_FLOOR, in place."""
        self.drop_modes(np.abs(self.significances) >= SIGNIFICANCE_FLOOR)


def solve_modes(op: ImpedanceOperator, n_keep: int = 20) -> ModeBasis:
    """Characteristic modes of the pencil (X, R_psd), most significant first.

    Keeps n = min(n_keep, radiating subspace dimension) modes. Raises
    DegenerateStructureError when R_psd is numerically zero (nothing
    radiates, e.g. a configuration reduced to almost no metal).
    """
    if n_keep < 1:
        raise ValueError("n_keep must be at least 1")
    r_psd, w, q = op.psd
    x_sym = 0.5 * (op.x + op.x.T)

    w_max = w[-1] if w.size else 0.0
    if not w_max > 0.0:
        raise DegenerateStructureError(
            "radiated-power matrix is numerically zero; structure does not radiate"
        )
    keep = w >= REL_RANK_CUT * w_max
    qk = q[:, keep]
    wk = w[keep]
    white = qk / np.sqrt(wk)[None, :]

    x_red = white.T @ x_sym @ white
    x_red = 0.5 * (x_red + x_red.T)
    lam_all, y_all = np.linalg.eigh(x_red)

    # descending |m| = ascending |lambda|; ties broken by signed value
    order = np.lexsort((lam_all, np.abs(lam_all)))
    n = min(int(n_keep), len(order))
    sel = order[:n]
    lam = lam_all[sel]
    y = y_all[:, sel]
    modes = white @ y

    modes = _sign_fix(modes / np.linalg.norm(modes, axis=0)[None, :])
    return ModeBasis(
        eigenvalues=lam,
        mode_coeffs=modes,
        subspace_dim=int(keep.sum()),
        _pencil=_Pencil(x_red, y, lam, lam_all, modes, r_psd),
        _solved=np.arange(n),
    )


def excitation_matrix(modes: ModeBasis, excitation: np.ndarray) -> np.ndarray:
    """Modal excitation matrix V with V[i, l] = j_i^T b_l."""
    b = np.asarray(excitation)
    if b.ndim != 2 or b.shape[0] != modes.mode_coeffs.shape[0]:
        raise ValueError(
            f"excitation rows {b.shape} do not match basis size "
            f"{modes.mode_coeffs.shape[0]}"
        )
    return modes.mode_coeffs.T @ b


def mode_patterns(modes: ModeBasis, sampler: np.ndarray) -> np.ndarray:
    """Unit-norm per-face current patterns, one column per mode.

    Column i is the sampled mode current S j_i, Euclidean-normalized, with
    the sign `solve_modes` gave mode i.
    Modes whose sampled pattern is identically zero cannot couple to the
    channel; they are dropped from `modes` in place with a warning.
    """
    if sampler.shape[1] != modes.mode_coeffs.shape[0]:
        raise ValueError(
            f"sampler columns {sampler.shape[1]} do not match basis "
            f"size {modes.mode_coeffs.shape[0]}"
        )
    raw = sampler @ modes.mode_coeffs
    # np.linalg.norm(raw, axis=0)'s arithmetic, without its argument checks
    norms = np.sqrt(np.add.reduce((raw.conj() * raw).real, axis=0))
    scale = np.abs(raw).max() if raw.size else 0.0
    alive = norms > 1e-14 * max(scale, 1.0)
    if not alive.all():
        dropped = np.flatnonzero(~alive)
        warnings.warn(
            f"dropping {dropped.size} mode(s) with zero sampled pattern: "
            f"{dropped.tolist()}",
            stacklevel=2,
        )
        modes.drop_modes(alive)
        raw = raw[:, alive]
        norms = norms[alive]
    return raw / norms[None, :]


def pattern_gram_dev(patterns: np.ndarray) -> float:
    """max|P^T P - I|, the orthonormality diagnostic of unit-norm
    patterns P."""
    gram = patterns.T @ patterns
    dev = np.abs(gram - np.eye(gram.shape[0])).max() if gram.size else 0.0
    return float(dev)
