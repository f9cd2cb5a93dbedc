import numpy as np
import pytest

import scipy.sparse as sp
from layout import monolithic_trace
from test_condensation import dense_condensation

from nsdarcy import ModelParams, coupled, decoupled, forms, sparse
from nsdarcy.coupled import (PicardDiverged, SolveOptions, System,
                             build_level,
                             solve_coupled)
from nsdarcy.mesh import build_coupled_mesh
from nsdarcy.mms import error_norms, manufactured_problem
from nsdarcy.fem import DiscreteField, grid_points, interpolate
from nsdarcy.sparse import (DimensionMismatch, constrain_dirichlet,
                            constrain_matrix, constrain_rhs)

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

    def test_iterative_run_builds_one_preconditioner(self, params, mms,
                                                     monkeypatch):
        """The first iterate's block-triangular preconditioner, an ichol
        factor of the velocity block and one of the head block,
        preconditions GMRES at every later iterate."""
        calls, reports = [], []
        orig_ichol, orig_gmres = sparse.ichol, sparse.gmres

        def ichol(*args, **kwargs):
            calls.append(args[0].shape)
            return orig_ichol(*args, **kwargs)

        def gmres(*args, **kwargs):
            x, rep = orig_gmres(*args, **kwargs)
            reports.append(rep)
            return x, rep

        monkeypatch.setattr(sparse, "ichol", ichol)
        monkeypatch.setattr(sparse, "gmres", gmres)
        _, report = solve_coupled(level(8, 1, params, mms),
                                  SolveOptions(solver="iterative"))
        assert report.converged and report.iterations >= 3
        assert len(calls) == 2
        # one GMRES solve per iterate, none of them failed
        assert len(reports) == report.iterations
        assert all(rep.converged for rep in reports)

    def test_growing_update_norm_raises(self):
        """At nu = 1e-3 the n = 4 Mini iteration runs away: its update norm
        grows at each of the iterates 2-4, and the fourth raises."""
        params = ModelParams(nu=1e-3)
        with pytest.raises(PicardDiverged,
                           match="update norm grew 3 consecutive") as err:
            solve_coupled(level(4, 1, params, manufactured_problem(params)))
        report = err.value.report
        norms = report.update_norms
        assert report.iterations == len(norms) == 4
        assert norms[0] < norms[1] < norms[2] < norms[3]
        assert not report.converged

    def test_rebuilt_solve_that_does_not_converge_raises(self, mms):
        """At nu = 1e-2, with the manufactured problem of the default
        parameters, GMRES on the first block-triangular preconditioner
        fails at the second iterate, and GMRES on the one built again
        stops at its cap of 5000 iterations: Picard stops there instead of
        going on from that x."""
        with pytest.raises(sparse.NotConverged, match="gmres: 5000 "):
            solve_coupled(level(8, 1, ModelParams(nu=1e-2), mms),
                          SolveOptions(solver="iterative"))

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
        assert state.velocity.dofmap.mesh.n == 4
        assert state.velocity.coefficients.shape == (2 * dv.ndof,)
        assert state.pressure.coefficients.shape == (dq.ndof,)
        assert state.head.coefficients.shape == (dphi.ndof,)


def stacked(lv, params, N1=None):
    """Picard's unconstrained system, stacked afresh around A_f + N1."""
    dv, dq, dphi = lv.spaces
    A_f = forms.assemble_af(dv, params)
    B = forms.assemble_b(dv, dq)
    C_vphi, C_phiu = forms.assemble_interface_coupling(lv.mesh, dv, dphi,
                                                       params)
    return sp.bmat([[A_f if N1 is None else A_f + N1, B.T, C_vphi],
                    [B, None, None],
                    [C_phiu, None, forms.assemble_ap(dphi, params)]],
                   format="csr")


def assert_eliminated_close(K, lift, ref, ref_lift, dofs):
    """K and lift within 1e-14 of the largest reference entry, and K's
    Dirichlet rows and columns exactly those of the identity."""
    K, ref = K.toarray(), ref.toarray()
    assert np.abs(K - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.abs(lift - ref_lift).max() <= 1e-14 * np.abs(ref_lift).max()
    unit = np.eye(K.shape[0])[dofs]
    assert np.array_equal(K[dofs], unit)
    assert np.array_equal(K[:, dofs], unit.T)


class TestSolveOptions:
    """Options that no solve can honour fail where they are made, not
    after 50 Picard iterations or an assembled saddle."""

    @pytest.mark.parametrize("name", ["linear_tol", "droptol", "picard_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite and positive"):
            SolveOptions(**{name: value})

    @pytest.mark.parametrize("solver", ["Direct", "cg", ""])
    def test_unknown_solver(self, solver):
        with pytest.raises(ValueError, match="unknown solver"):
            SolveOptions(solver=solver)


class TestStaticBlocks:
    @pytest.mark.parametrize("order", [1, 2])
    def test_constrained_matrix_equals_stacked_reference(self, order, params,
                                                         mms, monkeypatch):
        """Picard stacks and eliminates the blocks that do not change once
        and refills them about each velocity; the matrices and lifts of its
        first two iterations equal those stacked afresh around A_f + N1 and
        eliminated, to 1e-14 relative: for Mini, with the bubbles then
        eliminated densely."""
        lv = level(4, order, params, mms)
        states, refilled = [], []
        orig_blocks = forms.convection_blocks
        orig_refill = coupled.System.refill

        def blocks(state, *args, **kwargs):
            states.append(state)
            return orig_blocks(state, *args, **kwargs)

        def refill(self, *args):
            orig_refill(self, *args)
            refilled.append((self.K.copy(), self.lift.copy(), self.kept))

        monkeypatch.setattr(forms, "convection_blocks", blocks)
        monkeypatch.setattr(coupled.System, "refill", refill)
        _, report = solve_coupled(lv)
        monkeypatch.undo()
        assert report.iterations >= 2
        assert len(refilled) == len(states) == report.iterations
        dofs, values = monolithic_trace(lv)
        for state, (K, lift, kept) in list(zip(states, refilled))[:2]:
            N1, _ = forms.assemble_convection(
                state, forms.ConvectionMode.PLAIN, params)
            K_ref = stacked(lv, params, N1)
            ref, ref_lift = constrain_dirichlet(K_ref, dofs, values)
            if order == 1:
                S, ref_lift = dense_condensation(
                    ref, np.setdiff1d(np.arange(ref.shape[0]), kept),
                    ref_lift)
                ref = sp.csr_matrix(S)
            assert_eliminated_close(K, lift, ref, ref_lift,
                                    np.searchsorted(kept, dofs))


def random_velocity(dv, rng):
    return DiscreteField(dv, rng.standard_normal(dv.num_coefficients))


class TestFixedPattern:
    """System.refill against the per-iteration elimination it replaced."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_refill_equals_eliminated_sum(self, order, params, mms, rng):
        lv = level(8, order, params, mms)
        dv = lv.spaces.velocity
        K0 = stacked(lv, params)
        system = System(lv, SITES["picard"], K0)
        dofs, values = monolithic_trace(lv)
        assert np.abs(values).max() > 0
        rule = forms.cell_rule(dv)
        for _ in range(2):
            N1, _ = forms.assemble_convection(
                forms.quad_state(random_velocity(dv, rng), rule, grads=False),
                forms.ConvectionMode.PLAIN, params)
            system.refill(N1)
            assert np.array_equal(system.K.indptr, K0.indptr)
            assert np.array_equal(system.K.indices, K0.indices)
            N1.resize(K0.shape)
            ref, ref_lift = constrain_dirichlet(K0 + N1, dofs, values)
            assert_eliminated_close(system.K, system.lift, ref, ref_lift,
                                    dofs)

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_state_gives_the_eliminated_static_blocks(self, order,
                                                           params, mms):
        lv = level(8, order, params, mms)
        dv = lv.spaces.velocity
        system = System(lv, SITES["picard"], stacked(lv, params))
        K0, lift0 = system.K, system.lift.copy()
        zero = DiscreteField(dv, np.zeros(dv.num_coefficients))
        N1, _ = forms.assemble_convection(
            forms.quad_state(zero, forms.cell_rule(dv), grads=False),
            forms.ConvectionMode.PLAIN, params)
        system.refill(N1)
        assert system.K.nnz >= K0.nnz
        assert np.array_equal(system.K.toarray(), K0.toarray())
        assert np.array_equal(system.lift, lift0)

    def test_a_different_pattern_is_refused(self, params, mms, rng):
        lv = level(4, 1, params, mms)
        dv = lv.spaces.velocity
        system = System(lv, SITES["picard"], stacked(lv, params))
        state = forms.quad_state(random_velocity(dv, rng),
                                 forms.cell_rule(dv))
        plain, _ = forms.assemble_convection(
            state, forms.ConvectionMode.PLAIN, params)
        newton, _ = forms.assemble_convection(
            state, forms.ConvectionMode.NEWTON, params)
        system.refill(plain)
        with pytest.raises(DimensionMismatch):
            system.refill(newton)
        # a first N whose rows do not lead K's
        system = System(lv, SITES["picard"], stacked(lv, params))
        with pytest.raises(DimensionMismatch):
            system.refill(newton)

    @pytest.mark.parametrize("order", [1, 2])
    def test_superlu_gets_the_per_iteration_elimination(self, order, params,
                                                        mms, factor_inputs):
        """Explicit zeros on the fixed pattern reach the factor, but the
        matrix SuperLU factors, and its order, are those of the first
        iterate's matrix eliminated on its own: bitwise for Taylor-Hood,
        and for Mini within 1e-14 of the largest entry of that matrix
        condensed densely."""
        lv = level(16, order, params, mms)
        solve_coupled(lv)
        dofs, _ = monolithic_trace(lv)
        ref = constrain_matrix(stacked(lv, params), dofs)
        keep = np.arange(ref.shape[0])
        if order == 1:
            dv = lv.spaces.velocity
            bubbles = dv.cell_dofs[:, 3]
            keep = np.setdiff1d(keep, [bubbles, bubbles + dv.ndof])
            ref = sp.csr_matrix(dense_condensation(ref, np.setdiff1d(
                np.arange(ref.shape[0]), keep)))
        sparse.DirectFactor(ref, grid_points(*lv.spaces)[keep])
        (K, S, factor), (_, ref_S, ref_factor) = factor_inputs[0], \
            factor_inputs[-1]
        assert np.count_nonzero(K.data == 0) > 0
        assert np.count_nonzero(S.data == 0) == 0
        assert np.array_equal(factor._iidx, ref_factor._iidx)
        if order == 2:
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(S, attr), getattr(ref_S, attr))
        else:
            S, ref_S = S.toarray(), ref_S.toarray()
            assert np.abs(S - ref_S).max() <= 1e-14 * np.abs(ref_S).max()


@pytest.fixture
def factor_inputs(monkeypatch):
    """(matrix given to DirectFactor, matrix given to SuperLU, the factor)
    of every direct factorization."""
    found = []
    orig_init, orig_splu = sparse.DirectFactor.__init__, sparse.spla.splu

    def init(self, A, points, **kwargs):
        found.append([A])
        orig_init(self, A, points, **kwargs)
        found[-1].append(self)

    def splu(A, *args, **kwargs):
        found[-1].append(A)
        return orig_splu(A, *args, **kwargs)

    monkeypatch.setattr(sparse.DirectFactor, "__init__", init)
    monkeypatch.setattr(sparse.spla, "splu", splu)
    return found


def test_condensed_blocks_hold_no_explicit_zero(params, mms, factor_inputs):
    """The first Picard iterate refills its pattern with the fluid block
    condensed about a zero velocity; the condensed matrix that SuperLU
    factors keeps none of the pattern's zeros."""
    solve_coupled(level(16, 1, params, mms))
    (K, S, _), = factor_inputs
    assert np.count_nonzero(K.data == 0) > 0
    assert S.nnz > 0 and np.count_nonzero(S.data == 0) == 0


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

    def test_k_is_the_stacked_k_eliminated(self, site, order, params, mms):
        """K keeps the stacked K's pattern, and densely it is the stacked K
        with the Dirichlet rows and columns zeroed and 1 on their
        diagonals."""
        lv = level(4, order, params, mms)
        K = site_matrix(site, lv, params, mms)
        system = System(lv, SITES[site], K)
        dofs, _ = site_trace(site, lv)
        assert np.array_equal(system.K.indptr, K.indptr)
        assert np.array_equal(system.K.indices, K.indices)
        oracle = K.toarray()
        oracle[dofs] = 0.0
        oracle[:, dofs] = 0.0
        oracle[dofs, dofs] = 1.0
        assert np.array_equal(system.K.toarray(), oracle)

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


@pytest.mark.parametrize("mode", list(forms.ConvectionMode))
@pytest.mark.parametrize("solver", ["direct", "iterative"])
@pytest.mark.parametrize("order", [1, 2])
def test_fluid_saddle_is_the_stacked_saddle(order, solver, mode, params, mms,
                                            rng):
    """About a state, the fluid saddle F + N is [[A_f + N, B^T], [B, 0]]
    stacked by hand: bit for bit where it is assembled, and within 1e-14
    of its largest entry condensed densely where it is condensed (every
    direct Mini solve)."""
    lv = level(4, order, params, mms)
    dv, dq, _ = lv.spaces
    state = forms.quad_state(random_velocity(dv, rng), forms.cell_rule(dv))
    F, about = coupled.fluid_saddle(lv, SolveOptions(solver=solver))
    N, bubbles, load = about(state, mode)
    N_ref, load_ref = forms.assemble_convection(state, mode, params)
    B = forms.assemble_b(dv, dq)
    ref = sp.bmat([[forms.assemble_af(dv, params) + N_ref, B.T], [B, None]],
                  format="csr")
    if load_ref is None:
        assert load is None
    else:
        assert np.array_equal(load, load_ref)
    if order == 1 and solver == "direct":
        assert F is None
        S = dense_condensation(ref, bubbles.ids.ravel())
        assert np.abs(N.toarray() - S).max() <= 1e-14 * np.abs(S).max()
        return
    assert bubbles is None
    K = F + N
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(K, attr), getattr(ref, attr))


def test_picard_and_the_ns_step_pose_their_saddle_by_one_rule(
        params, mms, monkeypatch):
    """Picard's system and the NS step's both come from fluid_saddle:
    Picard's about each velocity by fixed point, the NS step's about its
    state by Newton."""
    modes = []
    orig = coupled.fluid_saddle

    def fluid_saddle(level, opts):
        F, about = orig(level, opts)
        modes.append([])

        def spied(state, mode):
            modes[-1].append(mode)
            return about(state, mode)
        return F, spied

    for module in (coupled, decoupled):
        monkeypatch.setattr(module, "fluid_saddle", fluid_saddle)
    lv = level(4, 1, params, mms)
    state, report = solve_coupled(lv)
    decoupled.NSStep(lv, state.velocity)
    picard, ns = modes
    # about zero, then about each iterate but the last
    assert picard == [forms.ConvectionMode.PLAIN] * report.iterations
    assert ns == [forms.ConvectionMode.NEWTON]


def test_the_condensed_saddle_is_made_once_after_the_first_blocks(
        params, mms, monkeypatch):
    """A direct Mini site makes its MiniSaddle once, after the convection
    blocks of its first `about`: allocated in that order, Algorithm A's
    peak RSS at n=128 does not rise after the NS factor."""
    calls = []
    for name in ("convection_blocks", "mini_saddle"):
        def spied(*args, _orig=getattr(forms, name), _name=name):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(forms, name, spied)
    lv = level(4, 1, params, mms)
    state, report = solve_coupled(lv)
    assert calls == (["convection_blocks", "mini_saddle"]
                     + ["convection_blocks"] * (report.iterations - 1))
    calls.clear()
    decoupled.NSStep(lv, state.velocity)
    assert calls == ["convection_blocks", "mini_saddle"]
