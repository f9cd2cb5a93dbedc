from math import factorial

import numpy as np
import pytest

from nsdarcy.fem import (MINI_VELOCITY, P1, P2, P2_VELOCITY, DiscreteField,
                         UnsupportedDegree, build_dofmap, dirichlet_trace,
                         dof_count, edge_bary, interpolate, quad_rule_edge,
                         quad_rule_tri, ref_basis_many)
from nsdarcy.mesh import BoundaryTag, Subdomain, build_tri_mesh

CENTROID = np.array([1 / 3, 1 / 3, 1 / 3])
# local P2 nodes: vertices then midpoints of edges (0,1), (1,2), (2,0)
P2_NODES = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                     [0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]])


def porous_mesh(n):
    return build_tri_mesh(n, Subdomain.POROUS, (0.0, 0.0))


def fluid_mesh(n):
    return build_tri_mesh(n, Subdomain.FLUID, (0.0, 1.0))


class TestReferenceBasis:
    def test_p1_centroid(self):
        vals, _ = ref_basis_many(P1, CENTROID[None])
        assert np.allclose(vals, 1 / 3, atol=1e-15)

    def test_p1_nodal(self):
        vals, _ = ref_basis_many(P1, np.eye(3))
        assert np.allclose(vals, np.eye(3), atol=1e-15)

    def test_p2_nodal(self):
        vals, _ = ref_basis_many(P2, P2_NODES)
        assert np.allclose(vals, np.eye(6), atol=1e-14)

    def test_bubble_centroid_and_edges(self):
        vals, _ = ref_basis_many(MINI_VELOCITY, CENTROID[None])
        assert abs(vals[3, 0] - 1.0) <= 1e-15
        vals, _ = ref_basis_many(MINI_VELOCITY, P2_NODES[3:])
        assert np.abs(vals[3]).max() <= 1e-15

    def test_partition_of_unity(self, rng):
        bary = rng.dirichlet(np.ones(3), size=20)
        for family in (P1, P2):
            vals, grads = ref_basis_many(family, bary)
            assert np.abs(vals.sum(axis=0) - 1.0).max() <= 1e-14
            assert np.abs(grads.sum(axis=0)).max() <= 1e-13

    def test_gradients_match_finite_differences(self, rng):
        bary = rng.dirichlet(np.ones(3), size=10)
        eps = 1e-7
        for family in (P1, P2, MINI_VELOCITY):
            vals, grads = ref_basis_many(family, bary)
            # reference coordinates (x, y) = (bary_1, bary_2)
            for d in range(2):
                step = np.zeros(3)
                step[0] = -eps
                step[d + 1] = eps
                vp, _ = ref_basis_many(family, bary + step)
                vm, _ = ref_basis_many(family, bary - step)
                fd = (vp - vm) / (2 * eps)
                assert np.abs(fd - grads[:, :, d]).max() <= 1e-6


class TestQuadrature:
    def test_lambda_products(self):
        quad = quad_rule_tri(2)
        val = np.dot(quad.weights, quad.points[:, 1] * quad.points[:, 2])
        assert abs(val - 1 / 24) <= 1e-15

        quad = quad_rule_tri(5)
        val = np.dot(quad.weights, quad.points[:, 1] ** 5)
        assert abs(val - 1 / 42) <= 1e-14

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
    def test_monomial_exactness(self, degree):
        quad = quad_rule_tri(degree)
        x, y = quad.points[:, 1], quad.points[:, 2]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = np.dot(quad.weights, x ** a * y ** b)
                exact = (factorial(a) * factorial(b)
                         / factorial(a + b + 2))
                assert abs(val - exact) <= 1e-13, (a, b)

    def test_weights_sum_to_reference_area(self):
        for degree in range(2, 13):
            quad = quad_rule_tri(degree)
            assert abs(quad.weights.sum() - 0.5) <= 1e-14

    def test_unsupported_degree(self):
        with pytest.raises(UnsupportedDegree):
            quad_rule_tri(13)
        with pytest.raises(UnsupportedDegree):
            quad_rule_tri(1)

    def test_edge_rule_polynomial_exactness(self):
        quad = quad_rule_edge(3)
        val = np.dot(quad.weights, quad.points ** 5)
        assert abs(val - 1 / 6) <= 1e-15
        quad = quad_rule_edge(5)
        val = np.dot(quad.weights, quad.points ** 9)
        assert abs(val - 1 / 10) <= 1e-14

    def test_edge_bary_traces_local_edges(self):
        t = np.array([0.0, 0.25, 1.0])
        for local, (a, b) in enumerate([(0, 1), (1, 2), (2, 0)]):
            bary = edge_bary(local, t)
            assert np.allclose(bary[0], np.eye(3)[a], atol=1e-15)
            assert np.allclose(bary[-1], np.eye(3)[b], atol=1e-15)
            assert np.abs(bary.sum(axis=1) - 1.0).max() <= 1e-15


class TestDofMap:
    def test_p1_counts_and_interface(self):
        dm = build_dofmap(porous_mesh(2), P1)
        assert dm.ndof == 9
        assert dm.num_coefficients == 9
        # the interface is the open segment (0,1) x {1}: the two corner
        # vertices stay with the outer Dirichlet boundary
        iface = dm.boundary_dofs[dm.boundary_tags == BoundaryTag.INTERFACE]
        assert len(iface) == 1
        assert np.allclose(dm.dof_coords[iface], [[0.5, 1.0]])
        assert len(dm.dirichlet_dofs) == 7

    def test_p2_counts(self):
        dm = build_dofmap(porous_mesh(2), P2)
        assert dm.ndof == 25

    def test_mini_counts(self):
        dm = build_dofmap(fluid_mesh(2), MINI_VELOCITY)
        assert dm.ndof == 9 + 8
        assert dm.num_coefficients == 2 * 17

    def test_dirichlet_excludes_interface(self):
        dm = build_dofmap(fluid_mesh(3), P2_VELOCITY)
        dirichlet = set(dm.dirichlet_dofs)
        iface = set(dm.boundary_dofs[
            dm.boundary_tags == BoundaryTag.INTERFACE])
        assert not dirichlet & iface
        assert dirichlet | iface == set(dm.boundary_dofs)

    @pytest.mark.parametrize("family", [P1, P2, MINI_VELOCITY, P2_VELOCITY],
                             ids=["P1", "P2", "MINI", "P2_VELOCITY"])
    def test_closed_form_count(self, family):
        for n in range(1, 13):
            for mesh in (fluid_mesh(n), porous_mesh(n)):
                assert dof_count(family, n) == build_dofmap(mesh, family).ndof

    @pytest.mark.parametrize("family,f", [
        (P2, lambda x, y: x + 3 * y * y),
        (MINI_VELOCITY, lambda x, y: (x + y, x * y - 1))])
    def test_dirichlet_trace(self, family, f):
        dm = build_dofmap(fluid_mesh(3), family)
        ids, values = dirichlet_trace(dm, f)

        def outer(xy):   # the closed outer boundary x = 0, x = 1, y = 2
            return (np.isclose(xy[:, 0], 0.0) | np.isclose(xy[:, 0], 1.0)
                    | np.isclose(xy[:, 1], 2.0))

        xy = dm.dof_coords[ids % dm.ndof]
        assert outer(xy).all()
        assert len(ids) == family.components * outer(dm.dof_coords).sum()
        exact = np.atleast_2d(f(xy[:, 0], xy[:, 1]))   # (components, m)
        assert np.array_equal(values,
                              exact[ids // dm.ndof, np.arange(len(ids))])

    def test_rebuild_is_deterministic(self):
        a = build_dofmap(fluid_mesh(3), MINI_VELOCITY)
        b = build_dofmap(fluid_mesh(3), MINI_VELOCITY)
        assert np.array_equal(a.cell_dofs, b.cell_dofs)
        assert np.array_equal(a.dof_coords, b.dof_coords)
        assert np.array_equal(a.boundary_dofs, b.boundary_dofs)
        assert np.array_equal(a.boundary_tags, b.boundary_tags)


class TestInterpolation:
    def test_p1_reproduces_linear(self):
        dm = build_dofmap(porous_mesh(2), P1)
        field = interpolate(lambda x, y: x + y, dm)
        assert abs(field.eval_many(np.array([[0.4, 0.7]]))[0] - 1.1) <= 1e-14

    def test_p2_reproduces_quadratic(self, rng):
        dm = build_dofmap(porous_mesh(3), P2)
        field = interpolate(lambda x, y: x ** 2 - 2 * x * y, dm)
        pts = rng.random((40, 2))
        exact = pts[:, 0] ** 2 - 2 * pts[:, 0] * pts[:, 1]
        assert np.abs(field.eval_many(pts) - exact).max() <= 1e-13
        grads = field.eval_grad_many(pts)
        gx = 2 * pts[:, 0] - 2 * pts[:, 1]
        gy = -2 * pts[:, 0]
        assert np.abs(grads[:, 0] - gx).max() <= 1e-12
        assert np.abs(grads[:, 1] - gy).max() <= 1e-12

    def test_scalar_interpolation_nodal(self, mms):
        dm = build_dofmap(porous_mesh(4), P1)
        field = interpolate(mms.head, dm)
        verts = dm.mesh.vertices
        exact = mms.head(verts[:, 0], verts[:, 1])
        assert np.abs(field.eval_many(verts) - exact).max() <= 1e-14

    def test_vector_interpolation_at_interface(self, mms):
        dm = build_dofmap(fluid_mesh(2), MINI_VELOCITY)
        field = interpolate(mms.velocity, dm)
        val = field.eval_many(np.array([[0.5, 1.0]]))[0]
        expected = (0.0, -np.cos(np.pi / 4) * (np.pi / 4))
        assert np.allclose(val, expected, atol=1e-14)

    def test_field_gradient_matches_finite_differences(self, rng, mms):
        dm = build_dofmap(porous_mesh(3), P2)
        field = interpolate(mms.head, dm)
        pts = 0.02 + 0.96 * rng.random((50, 2))
        grads = field.eval_grad_many(pts)
        eps = 1e-7
        for d in range(2):
            step = np.zeros(2)
            step[d] = eps
            fd = (field.eval_many(pts + step)
                  - field.eval_many(pts - step)) / (2 * eps)
            assert np.abs(fd - grads[:, d]).max() <= 1e-6

    def test_vector_field_component_layout(self, mms):
        dm = build_dofmap(fluid_mesh(2), P2_VELOCITY)
        field = interpolate(mms.velocity, dm)
        assert field.components == 2
        x, y = dm.dof_coords[:, 0], dm.dof_coords[:, 1]
        u1, u2 = mms.velocity(x, y)
        assert np.allclose(field.component_view(0), u1, atol=1e-14)
        assert np.allclose(field.component_view(1), u2, atol=1e-14)

    def test_coefficient_length_validated(self):
        dm = build_dofmap(porous_mesh(2), P1)
        with pytest.raises(ValueError):
            DiscreteField(dm, np.zeros(5))
