"""Tests for triangle quadrature rules and closed-form potential integrals."""
import math

import numpy as np
import pytest

from cmadof.quadrature import (TRI_BARY, TRI_W, Scratch,
                               static_potential_integrals, tri_points)
from oracles import duffy_green_moments
from oracles import static_potential_integrals as reference_static_integrals


TRI = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.5, 1.5, 0.0]])


def one_triangle(obs, tri):
    """(I0, Ir, J0, Jr) of triangle `tri` at the points `obs` (M, 3) or
    at one point (3,), from a batch of one triangle."""
    batch = static_potential_integrals(np.atleast_2d(obs)[None],
                                       np.asarray(tri)[None], Scratch())
    return tuple(a[0] for a in batch)


def tri_area(tri):
    return 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))


def bary_moment(a, b, c, area):
    """Exact integral of l1^a l2^b l3^c over a triangle of given area."""
    num = math.factorial(a) * math.factorial(b) * math.factorial(c)
    return 2.0 * area * num / math.factorial(a + b + c + 2)


def brute_integrals(obs, tri, n=220):
    """Midpoint-rule subdivision oracle for the four potential integrals."""
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    keep = (ii + jj) <= n - 1
    i0, j0 = ii[keep], jj[keep]
    # lower sub-triangles: barycentric midpoints
    l1 = (i0 + 1.0 / 3.0) / n
    l2 = (j0 + 1.0 / 3.0) / n
    pts = [(l1, l2)]
    keep_u = (ii + jj) <= n - 2
    iu, ju = ii[keep_u], jj[keep_u]
    pts.append(((iu + 2.0 / 3.0) / n, (ju + 2.0 / 3.0) / n))
    total_area = tri_area(tri)
    cell = total_area / n ** 2
    i0v = irv = j0v = jrv = 0.0
    for l1, l2 in pts:
        p = (
            np.outer(1.0 - l1 - l2, tri[0])
            + np.outer(l1, tri[1])
            + np.outer(l2, tri[2])
        )
        r = np.linalg.norm(p - obs[None, :], axis=1)
        i0v += cell * np.sum(1.0 / r)
        irv += cell * (p / r[:, None]).sum(axis=0)
        j0v += cell * np.sum(r)
        jrv += cell * (p * r[:, None]).sum(axis=0)
    return i0v, irv, j0v, jrv


class TestTriRule:
    def test_weights_sum_to_one(self):
        assert TRI_W.sum() == pytest.approx(1.0, abs=1e-14)

    def test_barycentric_coordinates_valid(self):
        assert np.all(TRI_BARY >= 0)
        np.testing.assert_allclose(TRI_BARY.sum(axis=1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("npts,degree", [(7, 5)])
    def test_polynomial_exactness(self, npts, degree):
        area = tri_area(TRI)
        pts_bary, w = TRI_BARY, TRI_W
        assert len(w) == npts
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                c = degree - a - b
                vals = (
                    pts_bary[:, 0] ** a
                    * pts_bary[:, 1] ** b
                    * pts_bary[:, 2] ** c
                )
                approx = area * np.dot(w, vals)
                exact = bary_moment(a, b, c, area)
                assert approx == pytest.approx(exact, rel=1e-12)

    def test_tri_points_maps_vertices(self):
        pts = tri_points(TRI)
        assert pts.shape == (7, 3)
        # each 7-point location is a convex combination inside the triangle
        v0, v1, v2 = TRI
        for p in pts:
            # solve for barycentric coordinates, must be in [0,1]
            m = np.column_stack([v1 - v0, v2 - v0])
            ab, *_ = np.linalg.lstsq(m, p - v0, rcond=None)
            assert -1e-12 <= ab[0] <= 1 + 1e-12
            assert -1e-12 <= ab[1] <= 1 + 1e-12

    def test_tri_points_batched(self):
        tris = np.stack([TRI, TRI + 1.0])
        pts = tri_points(tris)
        assert pts.shape == (2, 7, 3)
        np.testing.assert_allclose(pts[1], pts[0] + 1.0, atol=1e-14)


class TestStaticPotentialIntegrals:
    @pytest.mark.parametrize(
        "obs",
        [
            np.array([1.7, -0.6, 0.0]),
            np.array([2.6, 0.4, 0.0]),
            np.array([3.5, 2.0, 0.0]),
            np.array([-1.0, 4.0, 0.0]),
        ],
    )
    def test_against_subdivision_oracle(self, obs):
        i0, ir, j0, jr = one_triangle(obs, TRI)
        bi0, bir, bj0, bjr = brute_integrals(obs, TRI)
        assert i0[0] == pytest.approx(bi0, rel=2e-4)
        np.testing.assert_allclose(ir[0], bir, rtol=3e-4, atol=1e-7)
        assert j0[0] == pytest.approx(bj0, rel=2e-4)
        np.testing.assert_allclose(jr[0], bjr, rtol=3e-4, atol=1e-7)

    @pytest.mark.parametrize("obs", [np.array([0.8, 0.5, 0.0]),
                                     np.array([1.25, 0.75, 0.0]),
                                     TRI.mean(axis=0)])
    def test_inside_point_against_fan_oracle(self, obs):
        # the midpoint oracle cannot resolve the 1/R pole inside the
        # triangle; the fan oracle's collapsed coordinates cancel it, and
        # at k = 0 its kernel is 1/(4 pi R)
        i0, ir, j0, jr = one_triangle(obs, TRI)
        g0, gr = duffy_green_moments(obs, TRI, 0.0)
        assert i0[0] == pytest.approx(4.0 * np.pi * g0.real, rel=1e-12)
        np.testing.assert_allclose(ir[0], 4.0 * np.pi * gr.real, rtol=1e-12,
                                   atol=1e-14)
        _, _, bj0, bjr = brute_integrals(obs, TRI)
        assert j0[0] == pytest.approx(bj0, rel=2e-4)
        np.testing.assert_allclose(jr[0], bjr, rtol=3e-4, atol=1e-7)

    def test_multiple_observation_points(self):
        obs = np.array([[0.8, 0.5, 0.0], [3.5, 2.0, 0.0]])
        i0, ir, j0, jr = one_triangle(obs, TRI)
        assert i0.shape == (2,) and ir.shape == (2, 3)
        assert j0.shape == (2,) and jr.shape == (2, 3)
        single = one_triangle(obs[1], TRI)
        assert i0[1] == pytest.approx(single[0][0], rel=1e-14)

    def test_translation_covariance(self):
        obs = np.array([0.4, 0.9, 0.0])
        shift = np.array([2.0, -3.0, 0.0])
        i0, ir, j0, jr = one_triangle(obs, TRI)
        i0s, irs, j0s, jrs = one_triangle(obs + shift, TRI + shift)
        assert i0s[0] == pytest.approx(i0[0], rel=1e-12)
        assert j0s[0] == pytest.approx(j0[0], rel=1e-12)
        np.testing.assert_allclose(irs[0], ir[0] + shift * i0[0], rtol=1e-11)
        np.testing.assert_allclose(jrs[0], jr[0] + shift * j0[0], rtol=1e-11)

    def test_far_field_limits(self):
        # at large distance I0 -> A/R and J0 -> A R
        obs = np.array([120.0, -80.0, 0.0])
        area = tri_area(TRI)
        centroid = TRI.mean(axis=0)
        dist = np.linalg.norm(obs - centroid)
        i0, ir, j0, jr = one_triangle(obs, TRI)
        assert i0[0] == pytest.approx(area / dist, rel=1e-3)
        assert j0[0] == pytest.approx(area * dist, rel=1e-3)
        np.testing.assert_allclose(ir[0], centroid * area / dist, rtol=2e-2)

    def test_observation_on_edge_extension(self):
        # point on the x axis beyond vertex 1: lies on an edge line
        obs = np.array([4.0, 0.0, 0.0])
        i0, ir, j0, jr = one_triangle(obs, TRI)
        bi0, bir, bj0, bjr = brute_integrals(obs, TRI)
        assert np.isfinite(i0[0]) and np.isfinite(j0[0])
        assert i0[0] == pytest.approx(bi0, rel=2e-4)
        assert j0[0] == pytest.approx(bj0, rel=2e-4)

    @pytest.mark.parametrize("h", [1e-8, 1e-9, 1e-10, 1e-11, -1e-9])
    def test_points_just_off_an_edge_are_finite(self, h):
        # outside the edge-line band, R- + s- of the edge y = 0 cancels to
        # exactly 0; the values must approach the on-edge limit, not inf
        got = one_triangle(np.array([1.0, h, 0.0]), TRI)
        on_edge = one_triangle(np.array([1.0, 0.0, 0.0]), TRI)
        for have, limit in zip(got, on_edge):
            assert np.all(np.isfinite(have))
            np.testing.assert_allclose(have, limit, rtol=1e-6)

    def test_observation_at_vertex(self):
        i0, ir, *_ = one_triangle(TRI, TRI)
        for v in range(3):
            g0, gr = duffy_green_moments(TRI[v], TRI, 0.0)
            assert i0[v] == pytest.approx(4.0 * np.pi * g0.real, rel=1e-12)
            np.testing.assert_allclose(ir[v], 4.0 * np.pi * gr.real,
                                       rtol=1e-12, atol=1e-14)

    def test_self_point_inside_triangle_finite(self):
        # observation in the triangle plane, inside: integrable singularity
        obs = TRI.mean(axis=0)
        i0, ir, j0, jr = one_triangle(obs, TRI)
        assert np.isfinite(i0[0]) and i0[0] > 0
        assert np.isfinite(j0[0]) and j0[0] > 0

    def test_batched_call_matches_per_triangle_calls(self):
        # touching face pairs are integrated in batches: row p of obs
        # observes triangle p, including points inside and on edge lines
        rng = np.random.default_rng(21)
        tris = TRI[None] + rng.normal(scale=0.3, size=(6, 3, 3))
        obs = rng.normal(scale=1.5, size=(6, 9, 3))
        tris[..., 2] = obs[..., 2] = 0.0
        obs[:, 0] = tris.mean(axis=1)
        obs[:, 1] = 2.0 * tris[:, 1] - tris[:, 0]
        batched = static_potential_integrals(obs, tris, Scratch())
        for p in range(len(tris)):
            single = static_potential_integrals(obs[p:p + 1], tris[p:p + 1],
                                                Scratch())
            for got, want in zip(batched, single):
                assert got[p:p + 1].shape == want.shape
                assert np.array_equal(got[p:p + 1], want)

    def test_batch_equals_the_allocating_reference(self):
        # the in-plane kernel against the general 3-D form of the same
        # arithmetic, byte for byte: both orientations, points inside, on
        # edge lines (on the edge and beyond it), at vertices and far away
        rng = np.random.default_rng(23)
        tris = TRI[None] + rng.normal(scale=0.3, size=(8, 3, 3))
        tris[4:] = tris[4:, ::-1]  # clockwise vertices
        obs = rng.normal(scale=1.5, size=(8, 16, 3))
        tris[..., 2] = obs[..., 2] = 0.0
        bary = rng.dirichlet(np.ones(3), size=(8, 4))
        obs[:, :4] = np.einsum("pmi,pid->pmd", bary, tris)
        for v in range(3):
            start, end = tris[:, v], tris[:, (v + 1) % 3]
            obs[:, 4 + v] = start
            obs[:, 7 + v] = 0.5 * (start + end)
            obs[:, 10 + v] = 2.0 * end - start
        obs[:, 13:] *= 1e3
        got = static_potential_integrals(obs, tris, Scratch())
        for have, want in zip(got, reference_static_integrals(obs, tris)):
            assert have.tobytes() == want.tobytes()
        assert not np.any(got[1][..., 2]) and not np.any(got[3][..., 2])

    @pytest.mark.parametrize("where", ["vertex", "observation point"])
    def test_points_off_the_plane_are_refused(self, where):
        obs = np.array([[[0.8, 0.5, 0.0], [3.5, 2.0, 0.0]]])
        tri = TRI[None].copy()
        (tri[0, 2] if where == "vertex" else obs[0, 1])[2] = 1e-9
        with pytest.raises(ValueError, match="z = 0"):
            static_potential_integrals(obs, tri, Scratch())
