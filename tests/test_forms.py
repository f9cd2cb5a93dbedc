from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
from boundary import interface_dofs
from trilinear import trilinear_c

from nsdarcy import forms
from nsdarcy.coupled import build_spaces
from nsdarcy.fem import (MINI_VELOCITY, P1, P2, P2_VELOCITY, DiscreteField,
                         build_dofmap, edge_bary, interpolate, quad_rule_edge,
                         quad_rule_tri, ref_basis_many)
from nsdarcy.forms import (EDGE_QUAD_POINTS, ConvectionMode, ModelParams,
                           edge_rule)
from nsdarcy.mesh import Subdomain, build_coupled_mesh, build_tri_mesh


def porous_dofmap(n, family=P1):
    return build_dofmap(build_tri_mesh(n, Subdomain.POROUS, (0.0, 0.0)),
                        family)


def fluid_dofmap(n, family=MINI_VELOCITY):
    return build_dofmap(build_tri_mesh(n, Subdomain.FLUID, (0.0, 1.0)),
                        family)


def on_rule(field, dofmap, degree=None):
    """field at the points of dofmap's cell rule."""
    return forms.quad_state(field, forms.cell_rule(dofmap, degree))


def random_field(dofmap, rng, scale=1.0):
    return DiscreteField(
        dofmap, scale * rng.standard_normal(dofmap.num_coefficients))


def cellwise_quadrature(dofmap, degree, integrand):
    """Brute-force loop oracle: sum over cells of sum over points of
    w * |J| * integrand(x, y, basis values, basis physical gradients)."""
    mesh = dofmap.mesh
    quad = quad_rule_tri(degree)
    vals, rgrads = ref_basis_many(dofmap.family, quad.points)
    total = 0.0
    for c in range(mesh.num_cells):
        v = mesh.vertices[mesh.cells[c]]
        J = np.array([v[1] - v[0], v[2] - v[0]]).T
        det = abs(np.linalg.det(J))
        Jit = np.linalg.inv(J).T
        gphys = rgrads @ Jit.T
        for q, w in enumerate(quad.weights):
            x, y = v[0] + quad.points[q, 1] * (v[1] - v[0]) \
                + quad.points[q, 2] * (v[2] - v[0])
            total += w * det * integrand(c, q, x, y, vals[:, q],
                                         gphys[:, q, :])
    return total


@pytest.mark.parametrize("n", [3, 8, 58])
@pytest.mark.parametrize("order", [1, 2])
def test_static_forms_are_exactly_symmetric(order, n, params):
    """The summed data are symmetrized as (a_ij + a_ji) / 2 through the
    pattern's transpose map, and floating-point addition commutes."""
    dv, dq, dphi = build_spaces(build_coupled_mesh(n), order)
    for A in (forms.assemble_af(dv, params), forms.assemble_ap(dphi, params),
              forms.assemble_mass(dq), forms.assemble_mass(dphi)):
        assert (A != A.T).nnz == 0


class TestModelParams:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", [f.name for f in fields(ModelParams)])
    def test_rejects_a_value_not_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ModelParams(**{name: value})


class TestDarcyStiffness:
    def test_symmetry_exact(self, params):
        dm = porous_dofmap(3)
        A = forms.assemble_ap(dm, params)
        assert abs(A - A.T).max() == 0.0

    def test_constant_in_kernel(self, params):
        dm = porous_dofmap(3)
        A = forms.assemble_ap(dm, params)
        res = A @ np.ones(dm.ndof)
        assert np.abs(res).max() <= 1e-13

    def test_linear_field_energy(self, params):
        dm = porous_dofmap(4)
        A = forms.assemble_ap(dm, params)
        phi = interpolate(lambda x, y: y, dm).coefficients
        assert abs(phi @ A @ phi - 1.0) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_positive_definite_after_elimination(self, n, params):
        from nsdarcy.sparse import constrain_matrix
        dm = porous_dofmap(n)
        A = forms.assemble_ap(dm, params)
        A2 = constrain_matrix(A, dm.dirichlet_dofs)
        eigs = np.linalg.eigvalsh(A2.toarray())
        assert eigs.min() > 0


class TestViscousMatrix:
    @pytest.mark.parametrize("family", [MINI_VELOCITY, P2_VELOCITY])
    def test_symmetry_exact(self, family, params):
        dm = fluid_dofmap(3, family)
        A = forms.assemble_af(dm, params)
        assert abs(A - A.T).max() == 0.0

    @pytest.mark.parametrize("family", [MINI_VELOCITY, P2_VELOCITY])
    def test_shear_flow_energy(self, family, params):
        # (y-1, 0) lies in both spaces and has zero tangential trace on
        # the interface, so the BJS term adds nothing: energy = nu = 1
        dm = fluid_dofmap(4, family)
        A = forms.assemble_af(dm, params)
        u = interpolate(lambda x, y: (y - 1.0, np.zeros_like(x)),
                        dm).coefficients
        assert abs(u @ A @ u - 1.0) <= 1e-12

    def test_slip_coefficient_touches_only_interface_rows(self):
        dm = fluid_dofmap(3, P2_VELOCITY)
        A1 = forms.assemble_af(dm, ModelParams(alpha_bjs=1.0))
        A0 = forms.assemble_af(dm, ModelParams(alpha_bjs=0.5))
        D = (A1 - A0).tocoo()
        live = np.unique(np.concatenate([D.row[D.data != 0],
                                         D.col[D.data != 0]]))
        assert live.size > 0
        assert np.all(live < dm.ndof)  # x component only
        assert np.allclose(dm.dof_coords[live, 1], 1.0)

    def test_slip_term_value(self, params):
        # (x, 0) has tangential trace x on the interface:
        # BJS adds nu alpha / sqrt(nu K) * int_0^1 x^2 = 1/3
        dm = fluid_dofmap(4, P2_VELOCITY)
        A = forms.assemble_af(dm, params)
        u = interpolate(lambda x, y: (x, np.zeros_like(x)), dm).coefficients
        assert abs(u @ A @ u - (1.0 + 1.0 / 3.0)) <= 1e-12


class TestDivergenceMatrix:
    @pytest.mark.parametrize("family,qfam", [(MINI_VELOCITY, P1),
                                             (P2_VELOCITY, P1)])
    def test_constant_velocity_divergence_free(self, family, qfam):
        dv = fluid_dofmap(3, family)
        dq = fluid_dofmap(3, qfam)
        B = forms.assemble_b(dv, dq)
        u = interpolate(lambda x, y: (np.ones_like(x), 2 * np.ones_like(x)),
                        dv).coefficients
        assert np.abs(B @ u).max() <= 1e-13

    def test_unit_divergence(self):
        dv = fluid_dofmap(3, MINI_VELOCITY)
        dq = fluid_dofmap(3, P1)
        B = forms.assemble_b(dv, dq)
        u = interpolate(lambda x, y: (x, np.zeros_like(x)), dv).coefficients
        q = np.ones(dq.ndof)
        assert abs(q @ B @ u - (-1.0)) <= 1e-13

    def test_matches_quadrature_oracle(self, rng):
        dv = fluid_dofmap(2, MINI_VELOCITY)
        dq = fluid_dofmap(2, P1)
        B = forms.assemble_b(dv, dq)
        u = random_field(dv, rng)
        q = random_field(dq, rng)

        # direct quadrature of -int q div(u) using field evaluation
        quad = quad_rule_tri(6)
        qvals, _ = ref_basis_many(dq.family, quad.points)
        mesh = dv.mesh
        total = 0.0
        for c in range(mesh.num_cells):
            v = mesh.vertices[mesh.cells[c]]
            det = abs(np.linalg.det(np.array([v[1] - v[0],
                                              v[2] - v[0]]).T))
            pts = (quad.points[:, 0, None] * v[0]
                   + quad.points[:, 1, None] * v[1]
                   + quad.points[:, 2, None] * v[2])
            g = u.eval_grad_many(pts)          # (nq, 2, 2)
            div = g[:, 0, 0] + g[:, 1, 1]
            qc = q.coefficients[dq.cell_dofs[c]] @ qvals
            total += det * np.dot(quad.weights, qc * div)
        assert abs((q.coefficients @ B @ u.coefficients) - (-total)) <= 1e-12


class TestConvection:
    def test_zero_state_gives_zero(self, params):
        dv = fluid_dofmap(2)
        zero = DiscreteField(dv, np.zeros(dv.num_coefficients))
        N, load = forms.assemble_convection(on_rule(zero, dv),
                                            ConvectionMode.NEWTON, params)
        assert abs(N).max() == 0.0
        assert np.abs(load).max() == 0.0

    def test_linearity_in_transport_slot(self, params, rng):
        dv = fluid_dofmap(3)
        a = random_field(dv, rng)
        a2 = DiscreteField(dv, 2.0 * a.coefficients)
        N1, _ = forms.assemble_convection(on_rule(a, dv),
                                          ConvectionMode.PLAIN, params)
        N2, _ = forms.assemble_convection(on_rule(a2, dv),
                                          ConvectionMode.PLAIN, params)
        assert abs(N2 - 2.0 * N1).max() <= 1e-13

    def test_newton_matrix_action(self, params, rng):
        dv = fluid_dofmap(3)
        a, v, w = (random_field(dv, rng) for _ in range(3))
        N, load = forms.assemble_convection(on_rule(a, dv, 8),
                                            ConvectionMode.NEWTON, params)
        lhs = w.coefficients @ N @ v.coefficients
        rhs = trilinear_c(a, v, w, params, degree=8) \
            + trilinear_c(v, a, w, params, degree=8)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        assert abs(w.coefficients @ load
                   - trilinear_c(a, a, w, params, degree=8)) <= 1e-12

    def test_rearrangement_identity(self, params, rng):
        # c(a,a,e) - [c(b,s,e) + c(s,b,e) - c(b,b,e)]
        #   = c(b,e,e) + c(e,b,e) + c(a-b,a-b,e)   with e = a - s
        dv = fluid_dofmap(4)
        for _ in range(20):
            a, b, s = (random_field(dv, rng) for _ in range(3))
            e = DiscreteField(dv, a.coefficients - s.coefficients)
            amb = DiscreteField(dv, a.coefficients - b.coefficients)
            c = lambda x, y, z: trilinear_c(x, y, z, params, degree=8)
            lhs = c(a, a, e) - (c(b, s, e) + c(s, b, e) - c(b, b, e))
            rhs = c(b, e, e) + c(e, b, e) + c(amb, amb, e)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def is_canonical(A) -> bool:
    """Column indices ascend strictly within every row."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    same_row = rows[1:] == rows[:-1]
    return bool(np.all(np.diff(A.indices)[same_row] > 0))


class TestConvectionPattern:
    @pytest.mark.parametrize("family", [MINI_VELOCITY, P2_VELOCITY])
    def test_positions_address_the_cell_pairs(self, family):
        """The pattern holds every pair of dofs sharing a cell once, and
        each local entry's int32 position points at its own pair."""
        dv = fluid_dofmap(4, family)
        pattern = forms.cell_pattern(dv)
        cd = dv.cell_dofs
        assert pattern.positions.dtype == np.int32
        assert pattern.indptr.dtype == pattern.indices.dtype == np.int32
        P = sp.csr_matrix((np.zeros(len(pattern.indices)), pattern.indices,
                           pattern.indptr), shape=(dv.ndof, dv.ndof))
        assert is_canonical(P)
        rows = np.repeat(np.arange(dv.ndof), np.diff(pattern.indptr))
        pos = pattern.positions
        assert np.array_equal(rows[pos], np.broadcast_to(cd[:, :, None],
                                                         pos.shape))
        assert np.array_equal(pattern.indices[pos],
                              np.broadcast_to(cd[:, None, :], pos.shape))
        assert np.array_equal(np.unique(pos), np.arange(len(rows)))

    @pytest.mark.parametrize("family", [MINI_VELOCITY, P2_VELOCITY])
    def test_matrices_are_canonical_on_their_blocks(self, family, params,
                                                    rng):
        """PLAIN fills the two diagonal blocks of the pattern, NEWTON all
        four; both matrices are canonical, with int32 indices."""
        dv = fluid_dofmap(4, family)
        nnz = len(forms.cell_pattern(dv).indices)
        state = on_rule(random_field(dv, rng), dv)
        for mode, blocks in ((ConvectionMode.PLAIN, 2),
                             (ConvectionMode.NEWTON, 4)):
            N, _ = forms.assemble_convection(state, mode, params)
            assert N.indices.dtype == np.int32
            assert N.nnz == blocks * nnz
            assert is_canonical(N)


class TestInterfaceCoupling:
    @pytest.mark.parametrize("fam_v,fam_p", [(MINI_VELOCITY, P1),
                                             (P2_VELOCITY, P2)])
    def test_skew_pairing_cancels(self, fam_v, fam_p, params, rng):
        cm = build_coupled_mesh(3)
        dv = build_dofmap(cm.fluid, fam_v)
        dphi = build_dofmap(cm.porous, fam_p)
        C_vphi, C_phiu = forms.assemble_interface_coupling(cm, dv, dphi,
                                                           params)
        # the symmetric part of the coupled block vanishes entrywise, so
        # the quadratic form is zero identically; the float evaluation of
        # u.C.phi + phi.C'.u only sees summation-order roundoff
        defect = C_vphi + C_phiu.T
        assert defect.nnz == 0 or abs(defect).max() == 0.0
        for _ in range(5):
            u = rng.standard_normal(dv.num_coefficients)
            phi = rng.standard_normal(dphi.ndof)
            q = u @ C_vphi @ phi + phi @ C_phiu @ u
            assert abs(q) <= 1e-14 * max(1.0, abs(u @ C_vphi @ phi))

    def test_constant_pairing_value(self, params):
        cm = build_coupled_mesh(3)
        dv = build_dofmap(cm.fluid, MINI_VELOCITY)
        dphi = build_dofmap(cm.porous, P1)
        C_vphi, _ = forms.assemble_interface_coupling(cm, dv, dphi, params)
        v = interpolate(lambda x, y: (np.zeros_like(x), np.ones_like(x)),
                        dv).coefficients
        phi = np.ones(dphi.ndof)
        assert abs(v @ C_vphi @ phi - (-1.0)) <= 1e-13

    def test_support_restricted_to_interface(self, params):
        cm = build_coupled_mesh(3)
        dv = build_dofmap(cm.fluid, P2_VELOCITY)
        dphi = build_dofmap(cm.porous, P2)
        C_vphi, _ = forms.assemble_interface_coupling(cm, dv, dphi, params)
        coo = C_vphi.tocoo()
        rows = np.unique(coo.row[coo.data != 0])
        cols = np.unique(coo.col[coo.data != 0])
        assert np.all(rows >= dv.ndof)  # v . n_f touches y dofs only
        assert np.allclose(dv.dof_coords[rows - dv.ndof, 1], 1.0)
        assert np.allclose(dphi.dof_coords[cols, 1], 1.0)


class TestEdgeRule:
    @pytest.mark.parametrize("family", [P1, P2, MINI_VELOCITY])
    def test_interface_measure(self, family):
        dm = fluid_dofmap(3, family)
        rule = edge_rule(dm)
        measure = rule.weights[None, :] * rule.length[:, None]
        assert abs(measure.sum() - 1.0) <= 1e-15
        x = rule.points[..., 0]
        assert abs((measure * x ** 9).sum() - 0.1) <= 1e-15
        assert np.all(rule.points[..., 1] == 1.0)

    @pytest.mark.parametrize("family", [P1, P2, MINI_VELOCITY])
    def test_values_are_the_reference_basis_per_edge(self, family, rng):
        """On the interface of both meshes: local edges 0 (fluid, left to
        right) and 1 (porous, right to left)."""
        gauss = quad_rule_edge(EDGE_QUAD_POINTS).points
        for dm in (fluid_dofmap(3, family), porous_dofmap(3, family)):
            mesh = dm.mesh
            cells, local, ends = mesh.interface
            t = rng.random((len(cells), gauss.size))
            for params_t, rule in ((np.broadcast_to(gauss, t.shape),
                                    edge_rule(dm)), (t, edge_rule(dm, t))):
                for k in range(len(cells)):
                    vals, _ = ref_basis_many(
                        dm.family, edge_bary(local[k], params_t[k]))
                    assert np.array_equal(rule.vals[k], vals)
                    v0, v1 = mesh.vertices[ends[k]]
                    assert np.array_equal(
                        rule.points[k], v0 + params_t[k][:, None] * (v1 - v0))
                assert np.array_equal(rule.cells, cells)

    @pytest.mark.parametrize("fam_v,fam_p", [(MINI_VELOCITY, P1),
                                             (P2_VELOCITY, P2)])
    def test_coupling_matches_per_edge_loop(self, fam_v, fam_p, params):
        # one edge at a time: the porous basis is evaluated at the fluid
        # quadrature points mapped to the porous edge's own parameter
        cm = build_coupled_mesh(5)
        dv = build_dofmap(cm.fluid, fam_v)
        dphi = build_dofmap(cm.porous, fam_p)
        fluid, porous = cm.fluid, cm.porous
        erule = quad_rule_edge(EDGE_QUAD_POINTS)
        rho_g = params.rho * params.gravity
        rows, cols, data = [], [], []
        (fc, fl, fe), (pc, pl, pe) = fluid.interface, porous.interface
        for k in range(cm.n):   # edge k of each mesh lies on square k
            fv = fluid.vertices[fe[k]]
            pv = porous.vertices[pe[k]]
            length = np.linalg.norm(fv[1] - fv[0])
            x_q = fv[0, 0] + erule.points * (fv[1, 0] - fv[0, 0])
            s_q = (x_q - pv[0, 0]) / (pv[1, 0] - pv[0, 0])
            v_vals, _ = ref_basis_many(
                fam_v, edge_bary(fl[k], erule.points))
            phi_vals, _ = ref_basis_many(
                fam_p, edge_bary(pl[k], s_q))
            mloc = -rho_g * length * np.einsum("q,iq,jq->ij", erule.weights,
                                               v_vals, phi_vals)
            vd = dv.cell_dofs[fc[k]] + dv.ndof
            pd = dphi.cell_dofs[pc[k]]
            rows.append(np.repeat(vd, pd.size))
            cols.append(np.tile(pd, vd.size))
            data.append(mloc.ravel())
        oracle = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows),
                                    np.concatenate(cols))),
            shape=(dv.num_coefficients, dphi.ndof)).toarray()
        C_vphi, C_phiu = forms.assemble_interface_coupling(cm, dv, dphi,
                                                           params)
        assert np.array_equal(C_vphi.toarray(), oracle)
        assert np.array_equal(C_phiu.toarray(), -oracle.T)
        assert C_vphi.data.all() and C_phiu.data.all()   # no stored zero


class TestInterfaceLoads:
    def test_each_load_evaluates_its_source_once(self, params, rng,
                                                 monkeypatch):
        cm = build_coupled_mesh(6)
        dv = build_dofmap(cm.fluid, MINI_VELOCITY)
        dphi = build_dofmap(cm.porous, P1)
        calls = []
        eval_many = DiscreteField.eval_many

        def counted(field, pts):
            calls.append(len(pts))
            return eval_many(field, pts)

        monkeypatch.setattr(DiscreteField, "eval_many", counted)
        forms.assemble_interface_load_darcy(dphi, random_field(dv, rng),
                                            params)
        assert calls == [6 * EDGE_QUAD_POINTS]
        calls.clear()
        forms.assemble_interface_load_ns(dv, random_field(dphi, rng), params)
        assert calls == [6 * EDGE_QUAD_POINTS]

    def test_zero_sources(self, params):
        cm = build_coupled_mesh(2)
        dv = build_dofmap(cm.fluid, MINI_VELOCITY)
        dphi = build_dofmap(cm.porous, P1)
        zero_u = DiscreteField(dv, np.zeros(dv.num_coefficients))
        zero_phi = DiscreteField(dphi, np.zeros(dphi.ndof))
        assert np.abs(forms.assemble_interface_load_darcy(
            dphi, zero_u, params)).max() == 0.0
        assert np.abs(forms.assemble_interface_load_ns(
            dv, zero_phi, params)).max() == 0.0

    def test_darcy_load_against_line_integral(self, params, mms):
        # the exact velocity has u . n_f = (pi/4) cos(pi x / 2) on the
        # interface; feed its trace directly so the only thing under test
        # is the edge quadrature against an adaptive 1D integral
        from scipy.integrate import quad

        class ExactVelocity:
            def eval_many(self, pts):
                return np.column_stack(mms.velocity(pts[:, 0], pts[:, 1]))

        dphi = porous_dofmap(2)
        load = forms.assemble_interface_load_darcy(dphi, ExactVelocity(),
                                                   params)
        for dof in interface_dofs(dphi):
            x0 = dphi.dof_coords[dof, 0]
            oracle, _ = quad(
                lambda x: max(0.0, 1.0 - 2.0 * abs(x - x0))
                * (np.pi / 4) * np.cos(np.pi * x / 2),
                0.0, 1.0, points=[x0], epsabs=1e-14, epsrel=1e-14)
            assert abs(load[dof] - oracle) <= 1e-12

    def test_darcy_load_nested_consistency(self, params, rng):
        # a coarse piecewise-linear velocity is exactly representable on
        # the refined mesh, so either source must give the same load
        coarse = fluid_dofmap(2, MINI_VELOCITY)
        fine = fluid_dofmap(4, MINI_VELOCITY)
        dphi = porous_dofmap(4)
        coeffs = np.zeros(coarse.num_coefficients)
        nv = coarse.mesh.num_vertices
        coeffs[:nv] = rng.standard_normal(nv)
        coeffs[coarse.ndof:coarse.ndof + nv] = rng.standard_normal(nv)
        u_coarse = DiscreteField(coarse, coeffs)
        u_fine = interpolate(lambda x, y: u_coarse.eval_many(
            np.column_stack([x, y])).T, fine)
        la = forms.assemble_interface_load_darcy(dphi, u_coarse, params)
        lb = forms.assemble_interface_load_darcy(dphi, u_fine, params)
        assert np.abs(la - lb).max() <= 1e-12

    def test_ns_load_constant_head(self, params):
        dv = fluid_dofmap(3, MINI_VELOCITY)
        dphi = porous_dofmap(3)
        one = DiscreteField(dphi, np.ones(dphi.ndof))
        load = forms.assemble_interface_load_ns(dv, one, params)
        v = interpolate(lambda x, y: (np.zeros_like(x), np.ones_like(x)),
                        dv).coefficients
        assert abs(v @ load - 1.0) <= 1e-13

    def test_ns_load_consistent_with_coupling(self, params, rng):
        cm = build_coupled_mesh(3)
        dv = build_dofmap(cm.fluid, MINI_VELOCITY)
        dphi = build_dofmap(cm.porous, P1)
        C_vphi, _ = forms.assemble_interface_coupling(cm, dv, dphi, params)
        phi = random_field(dphi, rng)
        u = rng.standard_normal(dv.num_coefficients)
        load = forms.assemble_interface_load_ns(dv, phi, params)
        assert abs(u @ load - (-(u @ C_vphi @ phi.coefficients))) <= 1e-12


class TestVolumeLoad:
    def test_zero_forcing(self):
        dm = porous_dofmap(2)
        load = forms.assemble_volume_load(dm, lambda x, y: np.zeros_like(x))
        assert np.abs(load).max() == 0.0

    def test_unit_forcing_sums_to_area(self):
        dm = porous_dofmap(3)
        load = forms.assemble_volume_load(dm, lambda x, y: np.ones_like(x))
        assert abs(load.sum() - 1.0) <= 1e-13

    def test_against_cell_loop_oracle(self, params, mms):
        dm = porous_dofmap(2)
        load = forms.assemble_volume_load(dm, mms.f_porous, degree=8)
        oracle = np.zeros(dm.ndof)
        for i in range(dm.ndof):
            def integrand(c, q, x, y, vals, grads, i=i):
                where = np.nonzero(dm.cell_dofs[c] == i)[0]
                if where.size == 0:
                    return 0.0
                return mms.f_porous(x, y) * vals[where[0]]
            oracle[i] = cellwise_quadrature(dm, 8, integrand)
        assert np.abs(load - oracle).max() <= 1e-12

    def test_vector_forcing(self, params, mms):
        dv = fluid_dofmap(2, MINI_VELOCITY)
        load = forms.assemble_volume_load(dv, mms.f_fluid)
        assert load.shape == (dv.num_coefficients,)
        assert np.abs(load).max() > 0


class TestCorrectionLoad:
    def test_equal_states_reduce_to_newton_load(self, params, rng):
        dv = fluid_dofmap(3)
        a = random_field(dv, rng)
        corr = forms.assemble_correction_load(on_rule(a, dv), a, params)
        _, newton = forms.assemble_convection(on_rule(a, dv),
                                              ConvectionMode.NEWTON, params)
        assert np.abs(corr - newton).max() <= 1e-13

    def test_zero_intermediate(self, params, rng):
        dv = fluid_dofmap(3)
        a = random_field(dv, rng)
        zero = DiscreteField(dv, np.zeros(dv.num_coefficients))
        corr = forms.assemble_correction_load(on_rule(a, dv), zero, params)
        assert np.abs(corr).max() == 0.0

    def test_against_trilinear_oracle(self, params, rng):
        dv = fluid_dofmap(4)
        a = random_field(dv, rng)
        s = random_field(dv, rng)
        corr = forms.assemble_correction_load(on_rule(a, dv, 8), s, params)
        a_minus_s = DiscreteField(dv, a.coefficients - s.coefficients)
        w = random_field(dv, rng)
        oracle = trilinear_c(a, s, w, params, degree=8) \
            + trilinear_c(s, a_minus_s, w, params, degree=8)
        assert abs(w.coefficients @ corr - oracle) <= 1e-12
