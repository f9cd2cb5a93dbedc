import numpy as np
import pytest

from nsdarcy import forms
from nsdarcy.coupled import (PicardDiverged, build_spaces, dirichlet_data,
                             solve_coupled)
from nsdarcy.mesh import build_coupled_mesh
from nsdarcy.mms import error_norms
from nsdarcy.sparse import constrain_matrix, constrain_rhs
import scipy.sparse as sp

MINI_N8_REFERENCE = {("phi", "H1"): 6.134e-2, ("u", "H1"): 1.263e-1,
                     ("v", "H1"): 1.066e-1, ("p", "L2"): 7.420e-2}

ENERGY_KEYS = (("u", "H1"), ("v", "H1"), ("phi", "H1"), ("p", "L2"))


class ZeroProblem:
    """Homogeneous data: forcing and Dirichlet traces all vanish."""

    @staticmethod
    def velocity(x, y):
        return np.zeros_like(x), np.zeros_like(x)

    @staticmethod
    def head(x, y):
        return np.zeros_like(x)

    @staticmethod
    def f_fluid(x, y):
        return np.zeros_like(x), np.zeros_like(x)

    @staticmethod
    def f_porous(x, y):
        return np.zeros_like(x)


class TestPicard:
    def test_zero_problem_converges_immediately(self, params):
        state, report = solve_coupled(build_coupled_mesh(4), 1, params,
                                      ZeroProblem())
        assert report.converged
        assert report.iterations == 1
        assert np.abs(state.velocity.coefficients).max() == 0.0
        assert np.abs(state.pressure.coefficients).max() == 0.0
        assert np.abs(state.head.coefficients).max() == 0.0

    @pytest.mark.parametrize("n,order", [(8, 1), (4, 2)])
    def test_iteration_count_in_expected_range(self, n, order, params, mms):
        _, report = solve_coupled(build_coupled_mesh(n), order, params, mms)
        assert report.converged
        assert 4 <= report.iterations <= 8

    def test_update_norms_contract(self, params, mms):
        _, report = solve_coupled(build_coupled_mesh(8), 1, params, mms)
        norms = report.update_norms
        assert norms[-1] < 1e-7
        assert norms[-1] < norms[0]

    def test_exhausted_budget_raises(self, params, mms):
        with pytest.raises(PicardDiverged) as err:
            solve_coupled(build_coupled_mesh(4), 1, params, mms, maxit=1)
        assert err.value.report.iterations == 1


class TestDiscreteSolution:
    def test_mass_constraint(self, params, mms):
        cm = build_coupled_mesh(8)
        state, _ = solve_coupled(cm, 1, params, mms)
        dv, dq, _ = build_spaces(cm, 1)
        B = forms.assemble_b(dv, dq)
        assert np.abs(B @ state.velocity.coefficients).max() <= 1e-9

    def test_monolithic_residual_at_convergence(self, params, mms):
        cm = build_coupled_mesh(8)
        state, _ = solve_coupled(cm, 1, params, mms)
        spaces = build_spaces(cm, 1)
        dv, dq, dphi = spaces
        A_f = forms.assemble_af(dv, params)
        B = forms.assemble_b(dv, dq)
        C_vphi, C_phiu = forms.assemble_interface_coupling(cm, dv, dphi,
                                                           params)
        A_p = forms.assemble_ap(dphi, params)
        N1, _ = forms.assemble_convection(
            forms.quad_state(state.velocity, forms.cell_rule(dv)),
            forms.ConvectionMode.PLAIN, params)
        K = sp.bmat([[A_f + N1, B.T, C_vphi],
                     [B, None, None],
                     [C_phiu, None, A_p]], format="csr")
        rho_g = params.rho * params.gravity
        rhs = np.concatenate([
            forms.assemble_volume_load(dv, mms.f_fluid),
            np.zeros(dq.ndof),
            forms.assemble_volume_load(dphi, mms.f_porous, weight=rho_g)])
        bc_dofs, bc_values = dirichlet_data(spaces, mms)
        K2 = constrain_matrix(K, bc_dofs)
        rhs2 = constrain_rhs(K, rhs, bc_dofs, bc_values)
        x = np.concatenate([state.velocity.coefficients,
                            state.pressure.coefficients,
                            state.head.coefficients])
        assert np.linalg.norm(K2 @ x - rhs2) <= 1e-6

    def test_solver_paths_agree(self, params, mms):
        cm = build_coupled_mesh(4)
        direct, _ = solve_coupled(cm, 1, params, mms, solver="direct")
        iterative, _ = solve_coupled(cm, 1, params, mms, solver="iterative",
                                     linear_tol=1e-11)
        for attr in ("velocity", "pressure", "head"):
            a = getattr(direct, attr).coefficients
            b = getattr(iterative, attr).coefficients
            assert np.abs(a - b).max() <= 1e-7

    def test_unknown_solver_rejected(self, params, mms):
        with pytest.raises(ValueError):
            solve_coupled(build_coupled_mesh(2), 1, params, mms,
                          solver="cg")

    def test_energy_errors_decrease_under_refinement(self, params, mms):
        reports = [error_norms([solve_coupled(build_coupled_mesh(n), 1,
                                              params, mms)[0]], mms)[0]
                   for n in (4, 8, 16)]
        for key in ENERGY_KEYS:
            errs = [r.get(*key) for r in reports]
            assert errs[0] > errs[1] > errs[2]

    def test_first_order_reference_magnitudes(self, params, mms):
        # reference energy errors at n=8; factor-level agreement only, the
        # mesh family (diagonal orientation) shifts the constants
        state, _ = solve_coupled(build_coupled_mesh(8), 1, params, mms)
        report = error_norms([state], mms)[0]
        for key, ref in MINI_N8_REFERENCE.items():
            r = report.get(*key) / ref
            assert 0.5 <= r <= 2.0, (key, r)

    def test_state_shapes(self, params, mms):
        cm = build_coupled_mesh(4)
        state, _ = solve_coupled(cm, 2, params, mms)
        dv, dq, dphi = build_spaces(cm, 2)
        assert state.n == 4
        assert state.velocity.coefficients.shape == (2 * dv.ndof,)
        assert state.pressure.coefficients.shape == (dq.ndof,)
        assert state.head.coefficients.shape == (dphi.ndof,)
