"""Triangle quadrature rules and the static potential integrals.

The degree-5 symmetric 7-point Gauss rule is given in barycentric
coordinates `TRI_BARY` with weights `TRI_W` that sum to one, so an integral
over a physical triangle is area * sum(w_i * f(x_i)).

`static_potential_integrals` evaluates four closed-form integrals over a
flat triangle T with respect to an observation point r, for a batch of
triangles at once, writing R for |r - r'|,

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

import mmap

import numpy as np

__all__ = ["TRI_BARY", "TRI_W", "Scratch", "tri_points",
           "static_potential_integrals"]

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


class Scratch:
    """Buffers that one thread reuses from call to call.

    `take` hands out arrays laid end to end in one flat float64 array,
    which grows to the largest request seen and is otherwise reused, so a
    thread that computes batch after batch allocates its temporaries once.
    Every `take` returns views of the same memory, starting at its front:
    a caller takes everything it needs in one request, and returns nothing
    that lives in it.

    The flat array is a private anonymous memory map of its own, so its
    pages go back to the system when the last view goes. Freed from the
    heap instead, they would stay resident in the heap of the pool thread
    that used them, which nothing else in the process allocates from.
    """

    def __init__(self):
        self._flat = np.empty(0)

    def take(self, shape: tuple, count: int, dtype=float) -> list[np.ndarray]:
        """`count` C-contiguous arrays of `shape` and `dtype` (float64 or
        complex128), each starting on a 16-byte boundary."""
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize // 8
        step = size + size % 2
        if self._flat.size < step * count:
            nbytes = 8 * step * count
            private = ({"flags": mmap.MAP_PRIVATE}
                       if hasattr(mmap, "MAP_PRIVATE") else {})
            self._flat = np.frombuffer(mmap.mmap(-1, nbytes, **private))
        return [self._flat[i * step:i * step + size].view(dtype).reshape(shape)
                for i in range(count)]


def static_potential_integrals(obs: np.ndarray, tri: np.ndarray,
                               scratch: Scratch):
    """Closed-form potential and distance moments of a batch of triangles.

    obs is (P, M, 3) observation points and tri is (P, 3, 3) vertices,
    row p of obs observing triangle p. Returns (I0 (P, M), Ir (P, M, 3),
    J0 (P, M), Jr (P, M, 3)), where, writing R = |r - r'|,

        I0 = Int 1/R dS'    Ir = Int r'/R dS'
        J0 = Int R dS'      Jr = Int r' R dS'

    Every entry is computed by the same arithmetic whatever the batch
    holds, so a batch of P equals P batches of one exactly.
    Observation points may lie anywhere, including inside the triangle or
    its plane; points exactly on an edge line are handled by the standard
    limiting values.

    The temporaries are (P, M) arrays, one per Cartesian component, in
    `scratch`; the returned arrays are new on every call.
    """
    obs = np.asarray(obs, dtype=float)
    tri = np.asarray(tri, dtype=float)
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    two_area = np.sqrt(_dot3(normal, normal))
    nhat = (normal / two_area[:, None])[:, None, :]  # (P, 1, 3)
    edge_line_sq = (1e-12 * np.sqrt(two_area)[:, None]) ** 2
    verts = tri[:, None]  # (P, 1, 3, 3)
    lhat, uhat = [], []
    for e in range(3):
        ell = verts[:, :, (e + 1) % 3] - verts[:, :, e]
        lhat.append(ell / np.sqrt(_dot3(ell, ell))[..., None])
        uhat.append(np.cross(lhat[e], nhat))  # outward edge normal for ccw vertices

    shape = obs.shape[:2]
    (dsq, absd, beta_sum, r0sq, rp, rm, f, t1, t2, t3, t4,
     *rest) = scratch.take(shape, 23)
    rho, sm, sp, t0 = rest[:3], rest[3:6], rest[6:9], rest[9:]
    on_edge_line = np.empty(shape, dtype=bool)
    positive_side = np.empty(shape, dtype=bool)
    I0 = np.zeros(shape)
    J0 = np.zeros(shape)
    Ir = np.zeros(obs.shape)  # Int (r' - rho)/R until rho I0 is added
    Jr = np.zeros(obs.shape)  # 3 Int (r' - rho) R until the end

    def dot_into(out, parts, c, vec):
        """Add component c of the dot product `parts . vec` to out, in the
        order x, y, z."""
        if c == 0:
            np.multiply(parts, vec[..., 0], out=out)
        else:
            np.multiply(parts, vec[..., c], out=t4)
            out += t4

    d = dsq  # signed height above the plane until it is squared
    for c in range(3):
        np.subtract(obs[..., c], verts[:, :, 0, c], out=t1)
        dot_into(d, t1, c, nhat)
    for c in range(3):
        np.multiply(d, nhat[..., c], out=t1)
        np.subtract(obs[..., c], t1, out=rho[c])  # in-plane projection
    np.abs(d, out=absd)
    np.multiply(d, d, out=dsq)

    # each vertex's offset from rho enters sm and t0 of the edge it starts
    # and sp of the edge it ends
    for v in range(3):
        e_end = (v - 1) % 3
        for c in range(3):
            np.subtract(verts[:, :, v, c], rho[c], out=t1)
            dot_into(sm[v], t1, c, lhat[v])
            dot_into(t0[v], t1, c, uhat[v])
            dot_into(sp[e_end], t1, c, lhat[e_end])

    beta_sum.fill(0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for e in range(3):
            np.multiply(t0[e], t0[e], out=r0sq)
            r0sq += dsq
            np.multiply(sp[e], sp[e], out=rp)
            rp += r0sq
            np.sqrt(rp, out=rp)
            np.multiply(sm[e], sm[e], out=rm)
            rm += r0sq
            np.sqrt(rm, out=rm)
            np.less(r0sq, edge_line_sq, out=on_edge_line)

            # stable log of (R+ + s+)/(R- + s-); flip both fractions when
            # the segment sits mostly at negative s to avoid cancellation
            np.add(sp[e], sm[e], out=t1)
            np.greater_equal(t1, 0, out=positive_side)
            np.add(rp, sp[e], out=t1)
            np.subtract(rm, sm[e], out=t2)
            np.copyto(t2, t1, where=positive_side)
            np.add(rm, sm[e], out=t1)
            np.subtract(rp, sp[e], out=f)
            np.copyto(f, t1, where=positive_side)
            np.divide(t2, f, out=f)
            np.log(f, out=f)
            np.copyto(f, 0.0, where=on_edge_line)

            # arctangent terms
            np.multiply(t0[e], sp[e], out=t1)
            np.multiply(absd, rp, out=t2)
            np.add(r0sq, t2, out=t2)
            np.divide(t1, t2, out=t1)
            np.arctan(t1, out=t1)
            np.multiply(t0[e], sm[e], out=t3)
            np.multiply(absd, rm, out=t2)
            np.add(r0sq, t2, out=t2)
            np.divide(t3, t2, out=t3)
            np.arctan(t3, out=t3)
            t1 -= t3
            np.copyto(t1, 0.0, where=on_edge_line)
            beta_sum += t1

            np.multiply(t0[e], f, out=t1)
            I0 += t1
            # the products r0sq f (in f), sp rp (t2) and sm rm (t3) enter
            # the in-plane potential, (r0sq f + sp rp - sm rm) u / 2 ...
            f *= r0sq
            np.multiply(sp[e], rp, out=t2)
            np.multiply(sm[e], rm, out=t3)
            np.add(f, t2, out=t1)
            t1 -= t3
            for c in range(3):
                np.multiply(0.5 * uhat[e][..., c], t1, out=t4)
                Ir[..., c] += t4

            # ... and the edge line integrals of R, (sp rp - sm rm + r0sq f)/2,
            # and of R^3, which feed the distance moments
            line1 = t2
            line1 -= t3
            line1 += f
            line1 *= 0.5
            np.multiply(t0[e], line1, out=t4)
            J0 += t4
            line3 = t1
            np.power(rp, 3, out=line3)
            line3 *= sp[e]
            np.power(rm, 3, out=t3)
            t3 *= sm[e]
            line3 -= t3
            line3 *= 0.25
            np.multiply(0.75, r0sq, out=t3)
            t3 *= line1
            line3 += t3
            for c in range(3):
                np.multiply(uhat[e][..., c], line3, out=t4)
                Jr[..., c] += t4

    np.multiply(absd, beta_sum, out=t1)
    I0 -= t1
    np.multiply(dsq, I0, out=t1)
    J0 += t1
    J0 /= 3.0
    for c in range(3):
        np.multiply(rho[c], I0, out=t1)
        Ir[..., c] += t1
        Jr[..., c] /= 3.0
        np.multiply(rho[c], J0, out=t1)
        Jr[..., c] += t1
    return I0, Ir, J0, Jr
