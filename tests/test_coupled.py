import numpy as np
import pytest

import scipy.sparse as sp
from layout import monolithic_trace

from nsdarcy import coupled, forms
from nsdarcy.coupled import (PicardDiverged, SolveOptions, System,
                             build_level,
                             solve_coupled)
from nsdarcy.mesh import build_coupled_mesh
from nsdarcy.mms import error_norms
from nsdarcy.fem import interpolate
from nsdarcy.sparse import DimensionMismatch, constrain_matrix, constrain_rhs

MINI_N8_REFERENCE = {("phi", "H1"): 6.134e-2, ("u", "H1"): 1.263e-1,
                     ("v", "H1"): 1.066e-1, ("p", "L2"): 7.420e-2}

ENERGY_KEYS = (("u", "H1"), ("v", "H1"), ("phi", "H1"), ("p", "L2"))


def level(n, order, params, mms):
    return build_level(build_coupled_mesh(n), order, params, mms)


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
        state, report = solve_coupled(level(4, 1, params, ZeroProblem()))
        assert report.converged
        assert report.iterations == 1
        assert np.abs(state.velocity.coefficients).max() == 0.0
        assert np.abs(state.pressure.coefficients).max() == 0.0
        assert np.abs(state.head.coefficients).max() == 0.0

    @pytest.mark.parametrize("n,order", [(8, 1), (4, 2)])
    def test_iteration_count_in_expected_range(self, n, order, params, mms):
        _, report = solve_coupled(level(n, order, params, mms))
        assert report.converged
        assert 4 <= report.iterations <= 8

    def test_update_norms_contract(self, params, mms):
        _, report = solve_coupled(level(8, 1, params, mms))
        norms = report.update_norms
        assert norms[-1] < 1e-7
        assert norms[-1] < norms[0]

    def test_exhausted_budget_raises(self, params, mms, monkeypatch):
        monkeypatch.setattr(coupled, "PICARD_MAXIT", 1)
        with pytest.raises(PicardDiverged) as err:
            solve_coupled(level(4, 1, params, mms))
        assert err.value.report.iterations == 1


class TestDiscreteSolution:
    def test_mass_constraint(self, params, mms):
        lv = level(8, 1, params, mms)
        state, _ = solve_coupled(lv)
        dv, dq, _ = lv.spaces
        B = forms.assemble_b(dv, dq)
        assert np.abs(B @ state.velocity.coefficients).max() <= 1e-9

    def test_monolithic_residual_at_convergence(self, params, mms):
        lv = level(8, 1, params, mms)
        state, _ = solve_coupled(lv)
        dv, dq, dphi = lv.spaces
        A_f = forms.assemble_af(dv, params)
        B = forms.assemble_b(dv, dq)
        C_vphi, C_phiu = forms.assemble_interface_coupling(lv.mesh, dv, dphi,
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
        bc_dofs, bc_values = monolithic_trace(lv)
        K2 = constrain_matrix(K, bc_dofs)
        rhs2 = constrain_rhs(K, rhs, bc_dofs, bc_values)
        x = np.concatenate([state.velocity.coefficients,
                            state.pressure.coefficients,
                            state.head.coefficients])
        assert np.linalg.norm(K2 @ x - rhs2) <= 1e-6

    def test_solver_paths_agree(self, params, mms):
        lv = level(4, 1, params, mms)
        direct, _ = solve_coupled(lv, SolveOptions(solver="direct"))
        iterative, _ = solve_coupled(
            lv, SolveOptions(solver="iterative", linear_tol=1e-11))
        for attr in ("velocity", "pressure", "head"):
            a = getattr(direct, attr).coefficients
            b = getattr(iterative, attr).coefficients
            assert np.abs(a - b).max() <= 1e-7

    def test_unknown_solver_rejected(self, params, mms):
        with pytest.raises(ValueError):
            solve_coupled(level(2, 1, params, mms), SolveOptions(solver="cg"))

    def test_energy_errors_decrease_under_refinement(self, params, mms):
        reports = [error_norms([solve_coupled(level(n, 1, params, mms))[0]],
                               mms)[0]
                   for n in (4, 8, 16)]
        for key in ENERGY_KEYS:
            errs = [r.get(*key) for r in reports]
            assert errs[0] > errs[1] > errs[2]

    def test_first_order_reference_magnitudes(self, params, mms):
        # reference energy errors at n=8; factor-level agreement only, the
        # mesh family (diagonal orientation) shifts the constants
        state, _ = solve_coupled(level(8, 1, params, mms))
        report = error_norms([state], mms)[0]
        for key, ref in MINI_N8_REFERENCE.items():
            r = report.get(*key) / ref
            assert 0.5 <= r <= 2.0, (key, r)

    def test_state_shapes(self, params, mms):
        lv = level(4, 2, params, mms)
        state, _ = solve_coupled(lv)
        dv, dq, dphi = lv.spaces
        assert state.n == 4
        assert state.velocity.coefficients.shape == (2 * dv.ndof,)
        assert state.pressure.coefficients.shape == (dq.ndof,)
        assert state.head.coefficients.shape == (dphi.ndof,)


class TestStaticBlocks:
    @pytest.mark.parametrize("order", [1, 2])
    def test_constrained_matrix_equals_stacked_reference(self, order, params,
                                                         mms, monkeypatch):
        """Picard stacks the blocks that do not change once and adds the
        convection operator to them; the constrained matrices of its first
        two iterations equal those stacked afresh around A_f + N1."""
        lv = level(4, order, params, mms)
        convection, constrained = [], []
        orig_convection = forms.assemble_convection
        orig_constrain = coupled.constrain_dirichlet

        def convect(*args, **kwargs):
            N1, load = orig_convection(*args, **kwargs)
            convection.append(N1.copy())
            return N1, load

        def constrain(A, *args):
            out = orig_constrain(A, *args)
            constrained.append(out[0])
            return out

        monkeypatch.setattr(forms, "assemble_convection", convect)
        monkeypatch.setattr(coupled, "constrain_dirichlet", constrain)
        _, report = solve_coupled(lv)
        assert report.iterations >= 2
        dv, dq, dphi = lv.spaces
        A_f = forms.assemble_af(dv, params)
        B = forms.assemble_b(dv, dq)
        C_vphi, C_phiu = forms.assemble_interface_coupling(lv.mesh, dv, dphi,
                                                           params)
        A_p = forms.assemble_ap(dphi, params)
        dofs, values = monolithic_trace(lv)
        for N1, K2 in list(zip(convection, constrained))[:2]:
            K = sp.bmat([[A_f + N1, B.T, C_vphi],
                         [B, None, None],
                         [C_phiu, None, A_p]], format="csr")
            ref, _ = orig_constrain(K, np.zeros(K.shape[0]), dofs, values)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(K2, attr), getattr(ref, attr))


SITES = {"picard": ("velocity", "pressure", "head"),
         "ns": ("velocity", "pressure"),
         "darcy": ("head",)}


def site_matrix(site, lv, params, mms):
    """The unconstrained matrix of one solve site, linearized about the
    interpolated exact velocity: Picard's stacked system, the NS Newton
    matrix or the Darcy matrix."""
    dv, dq, dphi = lv.spaces
    A_p = forms.assemble_ap(dphi, params)
    if site == "darcy":
        return A_p
    a = forms.quad_state(interpolate(mms.velocity, dv), forms.cell_rule(dv))
    A_f = forms.assemble_af(dv, params)
    B = forms.assemble_b(dv, dq)
    if site == "ns":
        N, _ = forms.assemble_convection(a, forms.ConvectionMode.NEWTON,
                                         params)
        return sp.bmat([[A_f + N, B.T], [B, None]], format="csr")
    N1, _ = forms.assemble_convection(a, forms.ConvectionMode.PLAIN, params)
    C_vphi, C_phiu = forms.assemble_interface_coupling(lv.mesh, dv, dphi,
                                                       params)
    return sp.bmat([[A_f + N1, B.T, C_vphi],
                    [B, None, None],
                    [C_phiu, None, A_p]], format="csr")


def site_trace(site, lv):
    """The site's Dirichlet ids and values, offset by hand."""
    if site == "picard":
        return monolithic_trace(lv)
    return lv.velocity_trace if site == "ns" else lv.head_trace


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("site", list(SITES))
class TestSystem:
    """One System per solve site owns its block layout."""

    def test_dirichlet_ids_are_the_offset_traces(self, site, order, params,
                                                 mms):
        lv = level(4, order, params, mms)
        K = site_matrix(site, lv, params, mms)
        system = System(lv, SITES[site], K)
        dofs, values = site_trace(site, lv)
        assert np.array_equal(system.dofs, dofs)
        assert np.array_equal(system.values, values)
        ref = constrain_matrix(K, dofs)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(system.K, attr), getattr(ref, attr))

    def test_rhs_equals_constrain_rhs(self, site, order, params, mms, rng):
        """Pinned from the stored lift, with None for a zero block, the
        right side is the one constrain_rhs builds from K itself."""
        lv = level(4, order, params, mms)
        K = site_matrix(site, lv, params, mms)
        system = System(lv, SITES[site], K)
        dofs, values = site_trace(site, lv)
        sizes = [getattr(lv.spaces, f).num_coefficients
                 for f in SITES[site]]
        loads = [rng.standard_normal(m) for m in sizes]
        assert np.array_equal(system.rhs(*loads),
                              constrain_rhs(K, np.concatenate(loads), dofs,
                                            values))
        if len(sizes) > 1:
            loads[1] = None
            full = np.concatenate([np.zeros(m) if b is None else b
                                   for m, b in zip(sizes, loads)])
            assert np.array_equal(system.rhs(*loads),
                                  constrain_rhs(K, full, dofs, values))

    def test_split_round_trips(self, site, order, params, mms, rng):
        lv = level(4, order, params, mms)
        system = System(lv, SITES[site], site_matrix(site, lv, params, mms))
        x = rng.standard_normal(system.K.shape[0])
        fields = system.split(x)
        assert [f.dofmap for f in fields] == [getattr(lv.spaces, name)
                                              for name in SITES[site]]
        assert np.array_equal(np.concatenate([f.coefficients
                                              for f in fields]), x)

    def test_size_mismatch_raises(self, site, order, params, mms):
        lv = level(4, order, params, mms)
        other = "darcy" if site != "darcy" else "ns"
        with pytest.raises(DimensionMismatch):
            System(lv, SITES[site], site_matrix(other, lv, params, mms))
