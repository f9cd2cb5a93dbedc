"""Direct Mini solves posed without the bubbles: the condensed systems
against the full, uncondensed ones they stand for."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nsdarcy import coupled, forms
from nsdarcy.coupled import SolveOptions, System, build_level
from nsdarcy.decoupled import NSStep
from nsdarcy.fem import DiscreteField, interpolate
from nsdarcy.mesh import build_coupled_mesh
from nsdarcy.sparse import true_residual

NS_FIELDS = ("velocity", "pressure")


def level(n, params, mms):
    return build_level(build_coupled_mesh(n), 1, params, mms)


def some_velocity(lv, mms):
    """The interpolated exact velocity with nonzero bubbles, so that the
    bubbles of the state enter the convection blocks."""
    dv = lv.spaces.velocity
    u = interpolate(mms.velocity, dv)
    nv = dv.mesh.num_vertices
    u.coefficients.reshape(2, -1)[:, nv:] = [[0.3], [-0.2]]
    return u


def dense_condensation(K, ids, b=None):
    """K's Schur complement onto the unknowns that are not `ids`, densely,
    and the condensed b."""
    K = K.toarray()
    keep = np.setdiff1d(np.arange(len(K)), ids)
    K_LL = K[np.ix_(ids, ids)]
    S = K[np.ix_(keep, keep)] - K[np.ix_(keep, ids)] @ np.linalg.solve(
        K_LL, K[np.ix_(ids, keep)])
    if b is None:
        return S
    return S, b[keep] - K[np.ix_(keep, ids)] @ np.linalg.solve(K_LL, b[ids])


def ns_full_matrix(lv, params, state):
    dv, dq, _ = lv.spaces
    N, _ = forms.assemble_convection(state, forms.ConvectionMode.NEWTON,
                                     params)
    B = forms.assemble_b(dv, dq)
    return sp.bmat([[forms.assemble_af(dv, params) + N, B.T], [B, None]],
                   format="csr")


def picard_full_matrix(lv, params, velocity):
    dv, dq, dphi = lv.spaces
    N1, _ = forms.assemble_convection(
        forms.quad_state(velocity, forms.cell_rule(dv), grads=False),
        forms.ConvectionMode.PLAIN, params)
    B = forms.assemble_b(dv, dq)
    C_vphi, C_phiu = forms.assemble_interface_coupling(lv.mesh, dv, dphi,
                                                       params)
    return sp.bmat([[forms.assemble_af(dv, params) + N1, B.T, C_vphi],
                    [B, None, None],
                    [C_phiu, None, forms.assemble_ap(dphi, params)]],
                   format="csr")


def assert_matches_full(x, K, b):
    """x, bubbles recovered, within 1e-10 of the full system's spsolve
    solution, and with a true residual of at most 1e-12 on it."""
    ref = spla.spsolve(K.tocsc(), b)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
    assert true_residual(K, b, x) <= 1e-12


class TestTiledPattern:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_equals_the_pattern_of_the_stacked_dofs(self, n, params, mms):
        dq = level(n, params, mms).spaces.pressure
        pattern = forms.cell_pattern(dq)
        indptr, indices, where = pattern.tiled(3)

        class Stacked:   # the three copies of the dofs as one dof map
            cell_dofs = (dq.cell_dofs[:, None]
                         + dq.ndof * np.arange(3)[:, None]).reshape(-1, 9)
            ndof = 3 * dq.ndof
        ref = forms.cell_pattern(Stacked)
        assert np.array_equal(indptr, ref.indptr)
        assert np.array_equal(indices, ref.indices)
        # block (a, b) of cell c's entry (i, j) is its local (3a+i, 3b+j)
        nc = len(dq.cell_dofs)
        assert np.array_equal(where[:, :, pattern.positions].transpose(
            2, 0, 3, 1, 4).reshape(nc, 9, 9), ref.positions)
        for a in (indptr, indices, where):
            assert a.dtype == np.int32


class TestCondense:
    @pytest.mark.parametrize("mode", list(forms.ConvectionMode))
    def test_schur_complement_of_the_full_matrix(self, mode, params, mms,
                                                 rng):
        """S is the dense Schur complement of the full saddle matrix onto
        the vertex velocities and pressures, the condensed load and the
        recovered bubbles those of the dense elimination."""
        lv = level(3, params, mms)
        dv, dq, _ = lv.spaces
        state = forms.quad_state(some_velocity(lv, mms), forms.cell_rule(dv))
        blocks, _ = forms.convection_blocks(state, mode, params)
        S, bubbles = forms.mini_saddle(dv, dq, params).condense(blocks)
        N, _ = forms.assemble_convection(state, mode, params)
        B = forms.assemble_b(dv, dq)
        K = sp.bmat([[forms.assemble_af(dv, params) + N, B.T], [B, None]],
                     format="csr")
        ids = bubbles.ids.ravel()
        b = rng.standard_normal(K.shape[0])
        ref, ref_b = dense_condensation(K, ids, b)
        assert np.abs(S.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()

        keep = np.setdiff1d(np.arange(K.shape[0]), ids)
        b_i = bubbles.load(b[keep], b[bubbles.ids])
        assert np.abs(b_i - ref_b).max() <= 1e-13 * np.abs(ref_b).max()
        x = spla.spsolve(K.tocsc(), b)
        x_l = bubbles.recover(x[keep], b[bubbles.ids])
        assert np.abs(x_l - x[bubbles.ids]).max() <= \
            1e-10 * np.abs(x).max()


@pytest.mark.parametrize("n", [2, 3, 4, 8])
class TestAgainstTheFullSystem:
    """Every direct Mini solve, bubbles recovered, is the full system's
    solution."""

    def test_ns_newton_and_correction(self, n, params, mms):
        lv = level(n, params, mms)
        dv, _, dphi = lv.spaces
        ns = NSStep(lv, some_velocity(lv, mms))
        assert ns.system.bubbles is not None
        full = System(lv, NS_FIELDS, ns_full_matrix(lv, params, ns.a))
        head = interpolate(mms.head, dphi)
        interface = forms.assemble_interface_load_ns(dv, head, params)
        u_star, p = ns.solve_newton(head)
        x = np.concatenate([u_star.coefficients, p.coefficients])
        assert_matches_full(x, full.K, full.rhs(
            lv.fluid_load + ns.newton_load + interface, None))
        u, p = ns.solve_correction(u_star, head)
        x = np.concatenate([u.coefficients, p.coefficients])
        assert_matches_full(x, full.K, full.rhs(
            lv.fluid_load + interface
            + forms.assemble_correction_load(ns.a, u_star, params), None))

    def test_each_picard_iterate(self, n, params, mms):
        """Each iterate's condensed system, refilled about the last
        velocity, solved directly."""
        lv = level(n, params, mms)
        dv = lv.spaces.velocity
        loads = (lv.fluid_load, None, lv.porous_load)
        system, fluid = coupled.picard_system(lv)
        velocity = DiscreteField(dv, np.zeros(dv.num_coefficients))
        for _ in range(4):
            system.factor(SolveOptions())
            x, _ = system.solve(system.rhs(*loads))
            fields = system.split(x, *loads)
            full = System(lv, coupled.FIELDS,
                          picard_full_matrix(lv, params, velocity))
            assert_matches_full(np.concatenate(
                [f.coefficients for f in fields]), full.K, full.rhs(*loads))
            velocity = fields[0]
            system.refill(*fluid(velocity))
