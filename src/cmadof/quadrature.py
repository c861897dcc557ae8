"""Triangle quadrature rules and the static potential integrals.

The degree-5 symmetric 7-point Gauss rule is given in barycentric
coordinates `TRI_BARY` with weights `TRI_W` that sum to one, so an integral
over a physical triangle is area * sum(w_i * f(x_i)).

`static_potential_integrals` evaluates four closed-form integrals over a
triangle T in the plane z = 0 with respect to an observation point r in
that plane, for a batch of triangles at once, writing R for |r - r'|,

    I0  = Int_T 1/R dS'
    Ir  = Int_T r'/R dS'   (3-vector, z part 0)
    J0  = Int_T R dS'
    Jr  = Int_T r' R dS'   (3-vector, z part 0)

via the classic edge-by-edge decomposition (Wilton et al., "Potential
integrals for uniform and linear source distributions on polygonal and
polyhedral domains", IEEE TAP 32(3), 1984) at zero height: each edge
contributes a log term, and the arctangent terms of the general form,
which the height scales, vanish. The impedance assembly extracts both the
1/R pole and the |R| slope kink of the Helmholtz kernel on self and
touching face pairs of a flat plate, which is why the linear moments J0
and Jr are needed alongside the potentials.
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


class Scratch:
    """Buffers that one caller reuses from call to call.

    `take` hands out arrays laid end to end in one flat float64 array,
    which grows to the largest request seen and is otherwise reused, so a
    task that computes batch after batch allocates its temporaries once.
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

    def take(self, shape: tuple, count: int) -> list[np.ndarray]:
        """`count` C-contiguous float64 arrays of `shape`."""
        size = int(np.prod(shape))
        if self._flat.size < size * count:
            private = ({"flags": mmap.MAP_PRIVATE}
                       if hasattr(mmap, "MAP_PRIVATE") else {})
            self._flat = np.frombuffer(mmap.mmap(-1, 8 * size * count,
                                                 **private))
        return [self._flat[i * size:(i + 1) * size].reshape(shape)
                for i in range(count)]


def static_potential_integrals(obs: np.ndarray, tri: np.ndarray,
                               scratch: Scratch):
    """Closed-form potential and distance moments of a batch of triangles
    in the plane z = 0, at observation points in that plane.

    obs is (P, M, 3) observation points and tri is (P, 3, 3) vertices,
    row p of obs observing triangle p. Returns (I0 (P, M), Ir (P, M, 3),
    J0 (P, M), Jr (P, M, 3)), where, writing R = |r - r'|,

        I0 = Int 1/R dS'    Ir = Int r'/R dS'
        J0 = Int R dS'      Jr = Int r' R dS'

    Every entry is computed by the same arithmetic whatever the batch
    holds, so a batch of P equals P batches of one exactly. Observation
    points may lie anywhere in the plane, including inside the triangle
    and on or near an edge. A point within 1e-12 sqrt(2 area) of an edge
    line takes the standard limiting value of that edge's log term. Just
    outside that band, where the stable log's denominator R- + s- (or
    R+ - s+) cancels to exactly 0, it is taken as r0^2 / (R- - s-) (or
    r0^2 / (R+ + s+)) instead. The z parts of Ir and Jr are 0. Raises
    ValueError when a vertex or an observation point has a nonzero z.

    In the plane the height above the triangle is zero, so the general
    edge-by-edge form loses its arctangent terms and every z component,
    and each observation point is its own projection. The remaining
    operations are the general form's, in its order, so each entry equals
    the general form's bit for bit. The temporaries and the x and y sums
    of Ir and Jr are (P, M) arrays, one per Cartesian component, in
    `scratch`; the returned arrays are new on every call.
    """
    obs = np.asarray(obs, dtype=float)
    tri = np.asarray(tri, dtype=float)
    if np.any(obs[..., 2]) or np.any(tri[..., 2]):
        raise ValueError("triangles and observation points must lie in "
                         "the plane z = 0")
    x, y = tri[:, :, 0], tri[:, :, 1]  # (P, 3) vertex coordinates
    normal = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
              - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))  # its z part
    two_area = np.sqrt(normal * normal)
    side = (normal / two_area)[:, None]  # +1 for counterclockwise vertices
    edge_line_sq = (1e-12 * np.sqrt(two_area)[:, None]) ** 2
    # edge e runs from vertex e to vertex e + 1: its unit tangent and
    # outward normal, as (x, y) pairs of (P, 1) columns
    lhat, uhat = [], []
    for e in range(3):
        ex = x[:, (e + 1) % 3, None] - x[:, e, None]
        ey = y[:, (e + 1) % 3, None] - y[:, e, None]
        length = np.sqrt(ex * ex + ey * ey)
        lx, ly = ex / length, ey / length
        lhat.append((lx, ly))
        uhat.append((ly * side, -(lx * side)))

    shape = obs.shape[:2]
    (r0sq, rp, rm, f, t1, t2, t3, t4, *rest) = scratch.take(shape, 21)
    sm, sp, t0, ir, jr = rest[:3], rest[3:6], rest[6:9], rest[9:11], rest[11:]
    on_edge_line = np.empty(shape, dtype=bool)
    positive_side = np.empty(shape, dtype=bool)
    I0 = np.zeros(shape)
    J0 = np.zeros(shape)
    for c in range(2):
        ir[c].fill(0.0)  # Int (r' - obs)/R until obs I0 is added
        jr[c].fill(0.0)  # 3 Int (r' - obs) R until the end

    # each vertex's offset from obs enters sm and t0 of the edge it starts
    # and sp of the edge it ends, as dot products summed x first
    for v in range(3):
        np.subtract(x[:, v, None], obs[..., 0], out=t1)
        np.subtract(y[:, v, None], obs[..., 1], out=t2)
        for out, (vx, vy) in ((sm[v], lhat[v]), (t0[v], uhat[v]),
                              (sp[v - 1], lhat[v - 1])):
            np.multiply(t1, vx, out=out)
            np.multiply(t2, vy, out=t4)
            out += t4

    with np.errstate(divide="ignore", invalid="ignore"):
        for e in range(3):
            np.multiply(t0[e], t0[e], out=r0sq)
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
            np.putmask(t2, positive_side, t1)
            np.add(rm, sm[e], out=t1)
            np.subtract(rp, sp[e], out=f)
            np.putmask(f, positive_side, t1)
            if not f.all():
                # the denominator cancels to 0 just off the edge; there
                # (R- + s-)(R- - s-) = (R+ + s+)(R+ - s+) = r0sq gives it
                # from the conjugate sum, which does not cancel
                np.add(rp, sp[e], out=t1)
                np.subtract(rm, sm[e], out=t3)
                np.putmask(t1, positive_side, t3)
                np.divide(r0sq, t1, out=t1)
                np.putmask(f, f == 0, t1)
            np.divide(t2, f, out=f)
            np.log(f, out=f)
            np.putmask(f, on_edge_line, 0.0)

            np.multiply(t0[e], f, out=t1)
            I0 += t1
            # the products r0sq f (in f), sp rp (t2) and sm rm (t3) enter
            # the in-plane potential, (r0sq f + sp rp - sm rm) u / 2 ...
            f *= r0sq
            np.multiply(sp[e], rp, out=t2)
            np.multiply(sm[e], rm, out=t3)
            np.add(f, t2, out=t1)
            t1 -= t3
            for c in range(2):
                np.multiply(0.5 * uhat[e][c], t1, out=t4)
                ir[c] += t4

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
            for c in range(2):
                np.multiply(uhat[e][c], line3, out=t4)
                jr[c] += t4

    J0 /= 3.0
    Ir = np.empty(obs.shape)
    Jr = np.empty(obs.shape)
    for c in range(2):
        np.multiply(obs[..., c], I0, out=t1)
        np.add(ir[c], t1, out=Ir[..., c])
        jr[c] /= 3.0
        np.multiply(obs[..., c], J0, out=t1)
        np.add(jr[c], t1, out=Jr[..., c])
    Ir[..., 2] = 0.0
    Jr[..., 2] = 0.0
    return I0, Ir, J0, Jr
