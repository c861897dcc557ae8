"""Triangle quadrature rules and the static potential integrals.

The degree-5 symmetric 7-point Gauss rule is given in barycentric
coordinates `TRI_BARY` with weights `TRI_W` that sum to one, so an integral
over a physical triangle is area * sum(w_i * f(x_i)).

`static_potential_integrals` evaluates four closed-form integrals over a
flat triangle T with respect to an observation point r, for one triangle
or a batch of triangles at once, writing R for |r - r'|,

    I0  = Int_T 1/R dS'
    Ir  = Int_T r'/R dS'   (3-vector)
    J0  = Int_T R dS'
    Jr  = Int_T r' R dS'   (3-vector)

via the classic edge-by-edge decomposition (per-edge log and arctangent
terms). The impedance assembly extracts both the 1/R pole and the |R| slope
kink of the Helmholtz kernel on self and touching face pairs, which is why
the linear moments J0 and Jr are needed alongside the potentials.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TRI_BARY", "TRI_W", "tri_points", "static_potential_integrals"]

# degree-5 symmetric 7-point rule
_A1, _B1 = 0.059715871789770, 0.470142064105115
_A2, _B2 = 0.797426985353087, 0.101286507323456
#: barycentric points (7, 3) of the 7-point rule
TRI_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_A1, _B1, _B1],
        [_B1, _A1, _B1],
        [_B1, _B1, _A1],
        [_A2, _B2, _B2],
        [_B2, _A2, _B2],
        [_B2, _B2, _A2],
    ]
)
#: weights (7,) of the 7-point rule, summing to one
TRI_W = np.array(
    [
        0.225,
        0.132394152788506,
        0.132394152788506,
        0.132394152788506,
        0.125939180544827,
        0.125939180544827,
        0.125939180544827,
    ]
)


def tri_points(tri_vertices: np.ndarray) -> np.ndarray:
    """Physical points of the 7-point rule on triangles.

    tri_vertices is (..., 3, 3); returns (..., 7, 3).
    """
    return np.einsum("qi,...id->...qd", TRI_BARY, tri_vertices)


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis of length 3, summed in a fixed order,
    so each entry is independent of how many others share the batch."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def static_potential_integrals(obs: np.ndarray, tri: np.ndarray):
    """Closed-form potential and distance moments of triangles.

    obs is (M, 3) observation points and tri is (3, 3) vertices, or, for a
    batch of P triangles, obs is (P, M, 3) and tri is (P, 3, 3), row p of
    obs observing triangle p. Returns (I0 (M,), Ir (M, 3), J0 (M,),
    Jr (M, 3)), with a leading P axis on each for a batch, where, writing
    R = |r - r'|,

        I0 = Int 1/R dS'    Ir = Int r'/R dS'
        J0 = Int R dS'      Jr = Int r' R dS'

    Every entry is computed by the same arithmetic whatever the batch
    holds, so a batched call equals the per-triangle calls exactly.
    Observation points may lie anywhere, including inside the triangle or
    its plane; points exactly on an edge line are handled by the standard
    limiting values.
    """
    tri = np.asarray(tri, dtype=float)
    single = tri.ndim == 2
    if single:
        obs = np.atleast_2d(np.asarray(obs, dtype=float))[None]
        tri = tri[None]
    else:
        obs = np.asarray(obs, dtype=float)
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    two_area = np.sqrt(_dot3(normal, normal))
    nhat = (normal / two_area[:, None])[:, None, :]  # (P, 1, 3)
    diam = np.sqrt(two_area)[:, None]

    d = _dot3(obs - tri[:, None, 0], nhat)  # signed height above the plane, (P, M)
    rho = obs - d[..., None] * nhat  # in-plane projection
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
        uhat = np.cross(lhat, nhat)  # outward edge normal for ccw vertices
        sm = _dot3(a - rho, lhat)
        sp = _dot3(b - rho, lhat)
        t0 = _dot3(a - rho, uhat)
        r0sq = t0 ** 2 + d ** 2
        rp = np.sqrt(sp ** 2 + r0sq)
        rm = np.sqrt(sm ** 2 + r0sq)

        on_edge_line = r0sq < (1e-12 * diam) ** 2
        # stable log of (R+ + s+)/(R- + s-); flip both fractions when the
        # segment sits mostly at negative s to avoid cancellation
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

        # edge line integrals of R and R^3 feed the distance moments
        line1 = 0.5 * (sp * rp - sm * rm + r0sq * f)
        line3 = 0.25 * (sp * rp ** 3 - sm * rm ** 3) + 0.75 * r0sq * line1
        J0 += t0 * line1
        Jrho += uhat * line3[..., None]

    I0 -= absd * beta_sum
    Ir = Irho + rho * I0[..., None]
    J0 = (J0 + d ** 2 * I0) / 3.0
    Jr = Jrho / 3.0 + rho * J0[..., None]
    if single:
        return I0[0], Ir[0], J0[0], Jr[0]
    return I0, Ir, J0, Jr
