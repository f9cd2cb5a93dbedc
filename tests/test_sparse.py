import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from gmres_reference import Identity, gmres_reference
from ichol_reference import ichol_reference
from layout import monolithic_trace

from nsdarcy import coupled, forms, sparse
from nsdarcy.coupled import SolveOptions, System, build_level, solve_coupled
from nsdarcy.decoupled import DarcyStep, NSStep
from nsdarcy.fem import (P1, DiscreteField, build_dofmap, grid_points,
                         interpolate)
from nsdarcy.mesh import Subdomain, build_coupled_mesh, build_tri_mesh
from nsdarcy.sparse import (BlockTriangularPreconditioner, DimensionMismatch,
                            DirectFactor, NotSymmetric, Singular,
                            constrain_matrix, constrain_rhs, gmres, ichol,
                            nested_dissection, pcg, true_residual)


def laplacian_1d(n):
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1], format="csr")


def chain(n):
    """Grid points (n, 2) on one line: `points` for a matrix that has no
    grid of its own."""
    return np.column_stack([np.arange(n), np.zeros(n, dtype=np.int64)])


def random_spd(n, rng, density=0.3):
    B = sp.random(n, n, density=density, random_state=rng, format="csr")
    return (B @ B.T + n * sp.eye(n)).tocsr()


def porous_head_system(n, params, mms):
    """Dirichlet-constrained SPD system for the porous head alone."""
    dm = build_dofmap(build_tri_mesh(n, Subdomain.POROUS, (0.0, 0.0)), P1)
    A = forms.assemble_ap(dm, params)
    rho_g = params.rho * params.gravity
    load = forms.assemble_volume_load(dm, mms.f_porous, weight=rho_g)
    fixed = dm.dirichlet_dofs
    vals = mms.head(dm.dof_coords[fixed, 0], dm.dof_coords[fixed, 1])
    return (constrain_matrix(A, fixed),
            constrain_rhs(A, load, fixed, vals))


def coupled_system(n, params, mms, order=1):
    """First fixed-point iterate of the monolithic system (zero convection)."""
    lv = build_level(build_coupled_mesh(n), order, params, mms)
    dv, dq, dphi = lv.spaces
    A_f = forms.assemble_af(dv, params)
    B = forms.assemble_b(dv, dq)
    C_vphi, C_phiu = forms.assemble_interface_coupling(lv.mesh, dv, dphi,
                                                       params)
    A_p = forms.assemble_ap(dphi, params)
    rhs = np.concatenate([lv.fluid_load, np.zeros(dq.ndof), lv.porous_load])
    K = sp.bmat([[A_f, B.T, C_vphi],
                 [B, None, None],
                 [C_phiu, None, A_p]], format="csr")
    bc_dofs, bc_values = monolithic_trace(lv)
    K2 = constrain_matrix(K, bc_dofs)
    rhs2 = constrain_rhs(K, rhs, bc_dofs, bc_values)
    sizes = (2 * dv.ndof, dq.ndof, dphi.ndof)
    return K2, rhs2, sizes, forms.assemble_mass(dq).diagonal()


class TestIncompleteCholesky:
    def test_diagonal_exact_for_any_droptol(self):
        A = sp.diags([4.0, 9.0, 16.0, 25.0]).tocsr()
        for droptol in (0.0, 1e-3, 0.9):
            L = ichol(A, droptol).L.toarray()
            assert np.array_equal(L, np.diag([2.0, 3.0, 4.0, 5.0]))

    def test_droptol_zero_is_complete(self, rng):
        A = random_spd(12, rng)
        L = ichol(A, droptol=0.0).L
        assert np.abs((L @ L.T - A).toarray()).max() <= 1e-12 * abs(A).max()

    def test_tridiagonal_matches_dense_cholesky(self):
        A = laplacian_1d(50)
        L = ichol(A, droptol=0.0).L.toarray()
        assert np.abs(L - np.linalg.cholesky(A.toarray())).max() <= 1e-13

    def test_preconditioning_saves_iterations(self):
        A = laplacian_1d(100)
        b = np.ones(100)
        _, plain = pcg(A, b, Identity(), tol=1e-9)
        _, prec = pcg(A, b, ichol(A, droptol=1e-3), tol=1e-9)
        assert prec.converged and plain.converged
        assert prec.iterations < plain.iterations

    def test_rejects_nonsymmetric(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSymmetric):
            ichol(A)

    def test_nonpositive_pivot_is_shifted_to_the_diagonal(self):
        # row 1: y = 2, pivot 1 - 4 < 0, replaced by |A_11| = 1
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        fac = ichol(A, droptol=0.0)
        assert fac.shifts == 1
        assert np.array_equal(fac.L.toarray(), [[1.0, 0.0], [2.0, 1.0]])

    def test_zero_diagonal_with_nonpositive_pivot_is_singular(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(Singular, match="row 1"):
            ichol(A, droptol=0.0)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            ichol(sp.csr_matrix((2, 3)))

    def test_nan_pivot_is_singular(self):
        # NaN passes the shift test (NaN <= 0 is false)
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, np.nan]]))
        with pytest.raises(Singular, match="non-finite factor entry in row 1"):
            ichol(A, droptol=0.0)

    def test_overflow_after_a_tiny_pivot_is_singular(self):
        # l_00 = sqrt(5e-324) ~ 2e-162, so l_10 ~ 4e161 and its square
        # overflows; the shifted factor is finite, but not invertible
        A = sp.csr_matrix(np.array([[5e-324, 1.0], [1.0, 2.0]]))
        with pytest.raises(Singular):
            ichol(A, droptol=0.0)


def superlu_inverts(L):
    """Whether SuperLU factors the triangular L under natural ordering, as
    the preconditioner's solves need; decided apart from IncompleteCholesky."""
    try:
        spla.splu(L.tocsc(), permc_spec="NATURAL",
                  options={"DiagPivotThresh": 0.0, "SymmetricMode": False})
    except RuntimeError:
        return False
    return True


def assert_same_factor(A, droptol):
    """ichol and the reference loop agree bit for bit, or raise alike; where
    the reference factor is not finite, or SuperLU cannot invert it, ichol
    raises Singular."""
    try:
        L_ref, shifts_ref = ichol_reference(A, droptol)
    except Singular as exc:
        with pytest.raises(Singular, match=str(exc)):
            ichol(A, droptol)
        return
    if not (np.isfinite(L_ref.data).all() and superlu_inverts(L_ref)):
        with pytest.raises(Singular):
            ichol(A, droptol)
        return
    fac = ichol(A, droptol)
    assert np.array_equal(fac.L.indptr, L_ref.indptr)
    assert np.array_equal(fac.L.indices, L_ref.indices)
    assert np.array_equal(fac.L.data.view(np.int64),
                          L_ref.data.view(np.int64))
    assert fac.shifts == shifts_ref


@st.composite
def symmetric_sparse(draw):
    """Small symmetric matrices with duplicate, zero and negative entries, so
    that stored zeros sit in the lower triangle and some pivots break down.
    Off-diagonal magnitudes stay in [1/64, 16] or 0; diagonal entries may
    also be tiny or subnormal, so that some factors overflow."""
    n = draw(st.integers(1, 9))
    index = st.integers(0, n - 1)
    value = st.one_of(st.integers(-16, 16).map(lambda k: k / 4),
                      st.floats(1 / 64, 16.0), st.floats(-16.0, -1 / 64))
    tiny = st.one_of(st.just(5e-324), st.floats(5e-324, 1e-300),
                     st.floats(1e-170, 1e-150))
    entries = draw(st.lists(st.tuples(index, index,
                                      st.one_of(st.just(0.0), value)),
                            max_size=3 * n))
    diag = draw(st.lists(st.one_of(value, tiny, tiny.map(lambda x: -x)),
                         min_size=n, max_size=n))
    rows = [i for i, _, _ in entries] + [j for _, j, _ in entries]
    cols = [j for _, j, _ in entries] + [i for i, _, _ in entries]
    vals = [v for _, _, v in entries] * 2
    A = sp.coo_matrix((vals + diag, (rows + list(range(n)),
                                     cols + list(range(n)))), shape=(n, n))
    return A.tocsr()


class TestIcholMatchesReference:
    """`ichol` against the loop it replaced (tests/ichol_reference.py)."""

    @pytest.fixture(scope="class", params=[1, 2])
    def step_inputs(self, request, params, mms):
        """Every matrix the iterative Darcy and NS steps factor at n=8: the
        head matrix and the symmetrized velocity block."""
        order = request.param
        lv = build_level(build_coupled_mesh(8), order, params, mms)
        state, _ = solve_coupled(lv)
        spaces, opts = lv.spaces, SolveOptions(solver="iterative")
        seen = []

        def record(A, droptol=1e-3):
            seen.append((sparse.as_csr(A), droptol))
            return ichol(A, droptol)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse, "ichol", record)
            mp.setattr(coupled, "ichol", record)
            DarcyStep(lv, opts)
            NSStep(lv, state.velocity, opts)
        assert [A.shape[0] for A, _ in seen] == \
            [spaces.head.ndof, spaces.velocity.num_coefficients]
        return seen

    def test_step_matrices(self, step_inputs):
        for A, droptol in step_inputs:
            assert_same_factor(A, droptol)

    @pytest.mark.parametrize("droptol", [0.0, 1e-3, 0.9])
    def test_random_spd(self, droptol, rng):
        assert_same_factor(random_spd(40, rng), droptol)

    def test_unsorted_coo_with_duplicates(self, rng):
        A = random_spd(30, rng).tocoo()
        # every entry split into two summands, all in shuffled order
        part = rng.uniform(0.2, 0.8, A.nnz) * A.data
        order = rng.permutation(2 * A.nnz)
        coo = sp.coo_matrix(
            (np.concatenate([part, A.data - part])[order],
             (np.tile(A.row, 2)[order], np.tile(A.col, 2)[order])),
            shape=A.shape)
        for droptol in (0.0, 1e-3):
            assert_same_factor(coo, droptol)

    @settings(max_examples=200, deadline=None)
    @given(symmetric_sparse(), st.sampled_from([0.0, 1e-3, 0.3, 0.9]))
    def test_small_symmetric_matrices(self, A, droptol):
        assert_same_factor(A, droptol)


class TestPcg:
    def test_identity_one_iteration(self, rng):
        b = rng.standard_normal(9)
        x, rep = pcg(sp.eye(9, format="csr"), b, Identity())
        assert rep.converged and rep.iterations == 1
        assert np.abs(x - b).max() <= 1e-14

    def test_against_dense_solve(self, rng):
        A = random_spd(30, rng)
        b = rng.standard_normal(30)
        x, rep = pcg(A, b, ichol(A, 1e-3), tol=1e-12)
        assert rep.converged
        ref = np.linalg.solve(A.toarray(), b)
        assert np.abs(x - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())

    def test_head_system_iteration_budget(self, params, mms):
        K, rhs = porous_head_system(64, params, mms)
        x, rep = pcg(K, rhs, ichol(K, droptol=1e-3), tol=1e-9)
        assert rep.converged
        assert rep.iterations < 280

    def test_exhausted_budget_reports_not_converged(self):
        # CG needs a symmetric A: on I + K, K skew, it never gets near the
        # solution, and stops after 10 n iterations
        skew = sp.diags([np.ones(7), -np.ones(7)], [1, -1])
        A = (sp.eye(8) + skew).tocsr()
        x, rep = pcg(A, np.ones(8), Identity(), tol=1e-12)
        assert not rep.converged
        assert rep.iterations == 80
        assert rep.final_residual > 1e-12


def recorded_gmres(run):
    """Runs run() and returns (A, b, P, kwargs) of every GMRES solve it
    makes through `System.solve`. A and b are copies: Picard refills its
    matrix in place."""
    calls = []

    def record(A, b, P, **kwargs):
        calls.append((A.copy(), b.copy(), P, kwargs))
        return gmres(A, b, P, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "gmres", record)
        run()
    return calls


def assert_follows_reference(A, b, P, **kwargs):
    """`gmres` against the modified Gram-Schmidt loop it replaced
    (tests/gmres_reference.py): the same iteration count and a solution
    within 1e-12 of max|x|."""
    x, rep = gmres(A, b, P, **kwargs)
    x_ref, rep_ref = gmres_reference(A, b, P, **kwargs)
    assert (rep.iterations, rep.converged) == \
        (rep_ref.iterations, rep_ref.converged)
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    return rep


def convection_diffusion_1d(n, peclet):
    """Central differences of -u'' + c u' on n interior points: a
    nonnormal tridiagonal matrix."""
    return sp.diags([-(1 + peclet) * np.ones(n - 1), 2 * np.ones(n),
                     -(1 - peclet) * np.ones(n - 1)], [-1, 0, 1],
                    format="csr")


class TestGmres:
    def test_identity_one_iteration(self, rng):
        b = rng.standard_normal(11)
        x, rep = gmres(sp.eye(11, format="csr"), b, Identity())
        assert rep.converged and rep.iterations == 1
        assert np.abs(x - b).max() <= 1e-12

    def test_against_dense_solve(self, rng):
        M = np.eye(40) + 0.5 * rng.standard_normal((40, 40)) / np.sqrt(40)
        A = sp.csr_matrix(M)
        b = rng.standard_normal(40)
        x, rep = gmres(A, b, Identity(), tol=1e-12)
        assert rep.converged
        ref = np.linalg.solve(M, b)
        assert np.abs(x - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())

    def test_tiny_saddle_point(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
        x, rep = gmres(A, np.array([3.0, 1.0]), Identity(), tol=1e-12)
        assert rep.converged
        assert np.abs(x - 1.0).max() <= 1e-10

    def test_exhausted_budget_reports_not_converged(self):
        A = laplacian_1d(400)
        x, rep = gmres(A, np.ones(400), Identity(), tol=1e-14, maxit=10)
        assert not rep.converged

    def test_one_cycle_applies_the_preconditioner_k_plus_2_times(self, rng):
        # P b once for the initial residual, once per iteration, once for
        # the residual after the cycle
        class Counting:
            applies = 0

            def apply(self, r):
                self.applies += 1
                return r

        M = np.eye(40) + 0.5 * rng.standard_normal((40, 40)) / np.sqrt(40)
        P = Counting()
        x, rep = gmres(sp.csr_matrix(M), rng.standard_normal(40), P,
                       tol=1e-8)
        assert rep.converged and 0 < rep.iterations < 40
        assert P.applies == rep.iterations + 2

    @pytest.mark.parametrize("order", [1, 2])
    def test_picard_frozen_factor_systems_follow_reference(self, order,
                                                           params, mms):
        lv = build_level(build_coupled_mesh(8), order, params, mms)
        calls = recorded_gmres(lambda: solve_coupled(lv))
        assert calls
        for A, b, P, kwargs in calls:
            assert isinstance(P, DirectFactor)
            assert_follows_reference(A, b, P, **kwargs)

    @pytest.mark.parametrize("n", [8, 16])
    def test_block_triangular_systems_follow_reference(self, n, params,
                                                       mms):
        """The iterative NS Newton step about a coupled n=4 state, and the
        iterative coupled solve, on one level."""
        state, _ = solve_coupled(build_level(build_coupled_mesh(4), 1,
                                             params, mms))
        lv = build_level(build_coupled_mesh(n), 1, params, mms)
        opts = SolveOptions(solver="iterative")

        def run():
            NSStep(lv, state.velocity, opts).solve_newton(state.head)
            solve_coupled(lv, opts)

        calls = recorded_gmres(run)
        assert len(calls) >= 2
        for A, b, P, kwargs in calls:
            assert isinstance(P, BlockTriangularPreconditioner)
            assert_follows_reference(A, b, P, **kwargs)

    @pytest.mark.parametrize("system", ["convection_diffusion", "saddle"])
    def test_ill_conditioned_across_restarts_follows_reference(
            self, system, rng, params, mms, monkeypatch):
        """Many 5-step cycles on one basis: the nonnormal 1D
        convection-diffusion matrix (condition number 2.8e2) unpreconditioned,
        and the coupled saddle matrix at n=8 (4.6e4) block-preconditioned."""
        if system == "saddle":
            K, b, (nu_, nq_, nphi), mdiag = coupled_system(8, params, mms)
            P = BlockTriangularPreconditioner(K, nu_, nq_, mdiag, params.nu,
                                              nphi=nphi)
        else:
            K, P = convection_diffusion_1d(200, 0.9), Identity()
            b = rng.standard_normal(200)
        monkeypatch.setattr(sparse, "RESTART", 5)
        rep = assert_follows_reference(K, b, P, tol=1e-10)
        assert rep.converged and rep.iterations > 50


class TestDirectSolve:
    def test_identity(self, rng):
        b = rng.standard_normal(6)
        x = DirectFactor(sp.eye(6, format="csr"), chain(6)).solve(b)
        assert np.abs(x).max() <= np.abs(b).max()
        assert np.allclose(x, b, atol=1e-14)

    def test_permutation(self, rng):
        perm = rng.permutation(8)
        P = sp.csr_matrix((np.ones(8), (np.arange(8), perm)), shape=(8, 8))
        b = rng.standard_normal(8)
        x = DirectFactor(P, chain(8)).solve(b)
        assert np.allclose(P @ x, b, atol=1e-14)
        assert np.allclose(x[perm], b, atol=1e-14)

    def test_coupled_system_matches_gmres(self, params, mms):
        K, rhs, (nu_, nq_, nphi), mdiag = coupled_system(4, params, mms)
        x_dir = spla.spsolve(K.tocsc(), rhs)
        P = BlockTriangularPreconditioner(K, nu_, nq_, mdiag, params.nu,
                                          nphi=nphi)
        x_it, rep = gmres(K, rhs, P, tol=1e-12, maxit=2000)
        assert rep.converged
        scale = max(1.0, np.abs(x_dir).max())
        assert np.abs(x_it - x_dir).max() <= 1e-8 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DirectFactor(sp.eye(3, format="csr"), chain(3)).solve(np.ones(4))

    def test_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(Singular):
            DirectFactor(A, chain(2)).solve(np.ones(2))

    def test_factor_reuse_counts_solves(self, rng, direct_solves,
                                        monkeypatch):
        factored, orig_splu = [], sparse.spla.splu

        def splu(*args, **kwargs):
            factored.append(args[0])
            return orig_splu(*args, **kwargs)
        monkeypatch.setattr(sparse.spla, "splu", splu)
        A = random_spd(10, rng)
        f = DirectFactor(A, chain(10))
        for k in range(3):
            f.solve(rng.standard_normal(10))
        assert direct_solves == [f] * 3 and len(factored) == 1


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_pcg_vs_direct_on_head_systems(self, n, params, mms):
        K, rhs = porous_head_system(n, params, mms)
        x_dir = spla.spsolve(K.tocsc(), rhs)
        x_it, rep = pcg(K, rhs, ichol(K, 1e-3), tol=1e-11)
        assert rep.converged
        assert np.abs(x_it - x_dir).max() <= 1e-7 * max(1.0,
                                                        np.abs(x_dir).max())

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_gmres_vs_direct_on_saddle_systems(self, n, params, mms):
        K, rhs, (nu_, nq_, nphi), mdiag = coupled_system(n, params, mms)
        x_dir = spla.spsolve(K.tocsc(), rhs)
        P = BlockTriangularPreconditioner(K, nu_, nq_, mdiag, params.nu,
                                          nphi=nphi)
        x_it, rep = gmres(K, rhs, P, tol=1e-11, maxit=3000)
        assert rep.converged
        assert np.abs(x_it - x_dir).max() <= 1e-7 * max(1.0,
                                                        np.abs(x_dir).max())


def recomputed_residual(K, b, x):
    return np.linalg.norm(b - K @ x) / np.linalg.norm(b)


def head_system(n, params, mms):
    """The Darcy step's System on an n mesh, and its right side."""
    lv = build_level(build_coupled_mesh(n), 1, params, mms)
    system = System(lv, ("head",), forms.assemble_ap(lv.spaces.head, params))
    return system, system.rhs(lv.porous_load)


class TestLinearSolver:
    """What `System.factor` builds and `System.solve` runs, on small
    levels."""

    @pytest.mark.parametrize("solver,method", [("direct", "direct"),
                                               ("iterative", "pcg")])
    def test_spd_reports_true_residual(self, solver, method, params, mms):
        system, rhs = head_system(8, params, mms)
        system.factor(SolveOptions(solver=solver))
        x, rep = system.solve(rhs)
        assert rep.method == method and rep.converged
        assert rep.final_residual == pytest.approx(
            recomputed_residual(system.K, rhs, x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("solver,method", [("direct", "direct"),
                                               ("iterative", "gmres")])
    def test_saddle_reports_true_residual(self, solver, method, params, mms):
        """Picard's first iterate: velocity, pressure and head."""
        lv = build_level(build_coupled_mesh(4), 1, params, mms)
        opts = SolveOptions(solver=solver)
        system, _ = coupled.picard_system(lv, opts)
        system.factor(opts)
        rhs = system.rhs(lv.fluid_load, None, lv.porous_load)
        x, rep = system.solve(rhs)
        assert rep.method == method and rep.converged
        assert rep.final_residual == pytest.approx(
            recomputed_residual(system.K, rhs, x), rel=1e-12, abs=0.0)
        # measured, not assumed: an LU solve leaves a rounding residual
        assert rep.final_residual > 0.0

    def test_direct_factors_once(self, rng, direct_solves, params, mms):
        system, _ = head_system(4, params, mms)
        system.factor(SolveOptions())
        for _ in range(2):
            system.solve(rng.standard_normal(system.K.shape[0]))
        assert direct_solves == [system.inverse] * 2

    def test_iterative_builds_preconditioner_once(self, rng, params, mms,
                                                  monkeypatch):
        system, _ = head_system(4, params, mms)
        built = []
        monkeypatch.setattr(coupled, "ichol",
                            lambda K, droptol: built.append(K)
                            or ichol(K, droptol))
        system.factor(SolveOptions(solver="iterative", linear_tol=1e-12))
        for _ in range(2):
            system.solve(rng.standard_normal(system.K.shape[0]))
        assert len(built) == 1 and built[0] is system.K
        assert not isinstance(system.inverse, DirectFactor)

    def test_unknown_solver_rejected(self, params, mms):
        system, _ = head_system(2, params, mms)
        with pytest.raises(ValueError, match="unknown solver"):
            system.factor(SolveOptions(solver="multigrid"))

    def test_zero_rhs_residual_is_absolute(self):
        A = sp.eye(3, format="csr")
        assert true_residual(A, np.zeros(3), np.zeros(3)) == 0.0
        assert true_residual(A, np.zeros(3), np.ones(3)) == np.sqrt(3.0)


class TestConstrainMatrix:
    def test_rows_and_columns_zeroed_on_the_own_pattern(self, rng):
        """Against the dense rule: zeroed rows and columns, unit diagonal.
        The pattern is A's canonical one, its stored zeros included, and A,
        whose indices are not sorted, is left as it was."""
        A = random_spd(30, rng)
        A.data[::7] = 0.0
        assert not A.has_sorted_indices
        before = [a.copy() for a in (A.data, A.indices, A.indptr)]
        dofs = np.array([0, 4, 17, 29])
        K = constrain_matrix(A, dofs)
        for was, now in zip(before, (A.data, A.indices, A.indptr)):
            assert np.array_equal(was, now)
        canonical = A.copy()
        canonical.sum_duplicates()
        assert np.array_equal(K.indptr, canonical.indptr)
        assert np.array_equal(K.indices, canonical.indices)
        oracle = A.toarray()
        oracle[dofs] = 0.0
        oracle[:, dofs] = 0.0
        oracle[dofs, dofs] = 1.0
        assert np.array_equal(K.toarray(), oracle)

    def test_a_missing_constrained_diagonal_raises(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                    [1.0, 0.0, 1.0],
                                    [0.0, 1.0, 2.0]]))
        assert A.nnz == 6   # the middle diagonal is not stored
        with pytest.raises(DimensionMismatch):
            constrain_matrix(A, np.array([1]))
        assert constrain_matrix(A, np.array([0, 2])).nnz == 6


class TestCondensedFactor:
    """A direct Mini system is posed without its bubbles; the factor gets
    the condensed matrix as it is."""

    def test_matches_uncondensed_solve(self, params, mms, rng):
        """The condensed NS matrix about a random velocity, factored, and the
        bubbles recovered: the full system's solution."""
        lv = build_level(build_coupled_mesh(4), 1, params, mms)
        dv, dq, _ = lv.spaces
        state = forms.quad_state(
            DiscreteField(dv, rng.standard_normal(dv.num_coefficients)),
            forms.cell_rule(dv))
        blocks, _ = forms.convection_blocks(state, forms.ConvectionMode.NEWTON,
                                            params)
        S, bubbles = forms.mini_saddle(dv, dq, params).condense(blocks)
        N, _ = forms.assemble_convection(state, forms.ConvectionMode.NEWTON,
                                         params)
        B = forms.assemble_b(dv, dq)
        A = sp.bmat([[forms.assemble_af(dv, params) + N, B.T], [B, None]],
                    format="csr")
        assert S.shape == (A.shape[0] - bubbles.ids.size,) * 2
        b = rng.standard_normal(A.shape[0])
        keep = np.setdiff1d(np.arange(A.shape[0]), bubbles.ids)
        f = DirectFactor(S, grid_points(dv, dq)[keep])
        assert f.shape == S.shape == f._lu.shape
        b_i = bubbles.load(b[keep], b[bubbles.ids])
        x = np.empty_like(b)
        x[keep] = f.solve(b_i)
        x[bubbles.ids] = bubbles.recover(x[keep], b[bubbles.ids])
        ref = spla.spsolve(A.tocsc(), b)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(f.apply(b_i) - x[keep]).max() == 0.0

    def test_singular_local_block_raises(self, params, mms):
        """A convection block that cancels one cell's bubble diagonal: a
        bubble lives on one cell and vanishes on the interface, so its
        diagonal entry of a_f is that cell's."""
        lv = build_level(build_coupled_mesh(2), 1, params, mms)
        dv, dq, _ = lv.spaces
        bubble = dv.cell_dofs[2, 3]
        plain = np.zeros((dv.mesh.num_cells, 4, 4))
        plain[2, 3, 3] = -forms.assemble_af(dv, params)[bubble, bubble]
        with pytest.raises(Singular, match="bubble block"):
            forms.mini_saddle(dv, dq, params).condense(plain)

    def test_mini_coupled_system_factors_without_bubbles(self, params, mms):
        lv = build_level(build_coupled_mesh(4), 1, params, mms)
        K, rhs, *_ = coupled_system(4, params, mms)
        system, _ = coupled.picard_system(lv)
        loads = (lv.fluid_load, None, lv.porous_load)
        system.factor(SolveOptions())
        assert system.inverse._lu.shape[0] == system.K.shape[0] == \
            K.shape[0] - 2 * lv.mesh.fluid.num_cells
        b = system.rhs(*loads)
        x, rep = system.solve(b)
        assert x.shape == b.shape
        assert rep.final_residual == pytest.approx(
            recomputed_residual(system.K, b, x), rel=1e-12, abs=0.0)
        x = np.concatenate([f.coefficients for f in system.split(x, *loads)])
        x_full = spla.spsolve(K.tocsc(), rhs)
        assert np.abs(x - x_full).max() <= 1e-10 * np.abs(x).max()


def direct_system(kind, order, n, params, mms):
    """(K, points) of one direct solve site on an n mesh: the first Picard
    iterate, an NS step about the interpolated exact velocity, or a Darcy
    step; a Mini K is posed without its bubbles."""
    lv = build_level(build_coupled_mesh(n), order, params, mms)
    dv, dq, dphi = lv.spaces
    if kind == "picard":
        system, _ = coupled.picard_system(lv)
        return system.K, grid_points(dv, dq, dphi)[system.kept]
    if kind == "ns":
        ns = NSStep(lv, interpolate(mms.velocity, dv))
        return ns.system.K, grid_points(dv, dq)[ns.system.kept]
    return DarcyStep(lv).system.K, grid_points(dphi)


def last_separator(g, perm):
    """(axis, line) of the grid line holding the trailing unknowns of
    `perm` and every other unknown of `perm` on that line, with unknowns
    on both sides of it; None if there is no such line."""
    for axis in (0, 1):
        c = g[perm, axis]
        on = c == c[-1]
        trailing = np.argmin(on[::-1]) if not on.all() else on.size
        if (trailing == np.count_nonzero(on) and np.any(c < c[-1])
                and np.any(c > c[-1])):
            return axis, c[-1]
    return None


@st.composite
def grid_point_sets(draw):
    n = draw(st.integers(1, 600))   # most sets get dissected
    span = draw(st.integers(0, 40))
    g = draw(st.lists(st.tuples(st.integers(-span, span),
                                st.integers(-span, span)),
                      min_size=n, max_size=n))
    return np.array(g, dtype=np.int64).reshape(n, 2)


DIRECT_SITES = [(kind, order) for kind in ("picard", "ns", "darcy")
                for order in (1, 2)]


class TestNestedDissection:
    @settings(max_examples=60, deadline=None)
    @given(grid_point_sets(), st.integers(0, 2**32 - 1))
    def test_permutation_is_stable_with_last_rows_last(self, g, seed):
        last = np.random.default_rng(seed).random(len(g)) < 0.5
        p = nested_dissection(g, last)
        assert np.array_equal(np.sort(p), np.arange(len(g)))
        assert np.array_equal(p, nested_dissection(g, last))
        # the unknowns at one point share a leaf or separator: marked last
        # or not, they keep their given order, and those marked last
        # follow the others
        pos = np.empty_like(p)
        pos[p] = np.arange(len(p))
        _, at = np.unique(g, axis=0, return_inverse=True)
        at = at.ravel()
        group = 2 * at + last
        by_group = np.lexsort((np.arange(len(g)), group))
        same = np.diff(group[by_group]) == 0
        assert np.all(np.diff(pos[by_group])[same] > 0)
        latest = np.full(len(g), -1)
        earliest = np.full(len(g), len(g))
        np.maximum.at(latest, at[~last], pos[~last])
        np.minimum.at(earliest, at[last], pos[last])
        assert np.all(latest < earliest)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("kind,order", DIRECT_SITES)
    def test_every_pivot_on_the_diagonal(self, kind, order, n, params, mms):
        """The Taylor-Hood pressures, whose diagonal is zero, come after
        the velocities of their leaf or separator, so SuperLU swaps no
        rows; the Mini pressures are not moved, since their condensed
        diagonal is nonzero."""
        K, points = direct_system(kind, order, n, params, mms)
        lu = DirectFactor(K, points)._lu
        assert np.array_equal(lu.perm_r, np.arange(lu.shape[0]))

    @pytest.mark.parametrize("kind,order", DIRECT_SITES)
    def test_first_split_decouples_its_halves(self, kind, order, params,
                                              mms):
        K, points = direct_system(kind, order, 16, params, mms)
        perm = DirectFactor(K, points)._iidx
        split = last_separator(points, perm)
        assert split is not None
        axis, line = split
        c = points[:, axis]
        lo, hi = np.flatnonzero(c < line), np.flatnonzero(c > line)
        coupling = sp.csr_matrix(K[lo][:, hi])
        coupling.eliminate_zeros()
        assert coupling.nnz == 0

    @pytest.mark.parametrize("kind,order", DIRECT_SITES)
    def test_ordered_solve_matches_unordered(self, kind, order, params, mms,
                                             rng):
        K, points = direct_system(kind, order, 16, params, mms)
        b = rng.standard_normal(K.shape[0])
        x = DirectFactor(K, points).solve(b)
        ref = spla.spsolve(K.tocsc(), b)
        assert true_residual(K, b, x) <= 1e-12
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("kind,order", [(k, o) for k, o in DIRECT_SITES
                                            if k != "darcy"])
    def test_less_fill_than_colamd(self, kind, order, params, mms):
        """Against SciPy's own COLAMD factor of the matrix SuperLU gets: K
        without its explicit zeros, the Mini bubbles condensed."""
        K, points = direct_system(kind, order, 32, params, mms)
        ordered = DirectFactor(K, points)
        S = sparse.as_csr(K).copy()
        S.eliminate_zeros()

        def fill(lu):
            return lu.L.nnz + lu.U.nnz
        assert fill(ordered._lu) < fill(spla.splu(S.tocsc()))

    def test_tiny_first_diagonal_is_not_the_pivot(self, rng):
        """With a pivot threshold of 0 SuperLU would divide by 1e-20."""
        m = 12
        lap = laplacian_1d(m)
        K = sp.lil_matrix(sp.kronsum(lap, lap))
        iy, ix = np.divmod(np.arange(m * m), m)
        points = 2 * np.column_stack([ix, iy])
        head = nested_dissection(points, np.zeros(m * m, dtype=bool))[0]
        K[head, head] = 1e-20
        K = K.tocsr()
        b = rng.standard_normal(m * m)
        x = DirectFactor(K, points).solve(b)
        assert true_residual(K, b, x) <= 1e-12


def ill_conditioned(n, rng, cond):
    """Q diag(s) Q^T as CSR, Q a random orthogonal matrix and s falling
    geometrically from 1 to 1/cond."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return sp.csr_matrix(Q * np.geomspace(1.0, 1.0 / cond, n) @ Q.T)


class TestMixedPrecision:
    """A `single` DirectFactor: SuperLU factors in float32, and each solve
    refines in float64 against the given matrix."""

    @pytest.fixture
    def factored(self, monkeypatch):
        """The dtype of every matrix given to SuperLU, in call order."""
        dtypes, orig = [], sparse.spla.splu

        def splu(A, *args, **kwargs):
            dtypes.append(A.dtype)
            return orig(A, *args, **kwargs)
        monkeypatch.setattr(sparse.spla, "splu", splu)
        return dtypes

    @pytest.mark.parametrize("rhs", ["random", "range", "huge"])
    def test_a_matrix_float32_cannot_refine_is_factored_again(
            self, rhs, factored, rng):
        """cond(A) u_32 = 60: the refinement stalls, A is factored once
        more in float64, and that factor's solve is the answer, then and
        for every later right side. A right side A x for a random x has
        little in the small singular directions, so the first float32
        solve halves its residual and only the refinement stalls."""
        n = 40
        A, points = ill_conditioned(n, rng, 1e9), chain(n)
        b = {"random": rng.standard_normal(n),
             "range": A @ rng.standard_normal(n),
             "huge": 1e39 * rng.standard_normal(n)}[rhs]
        f = DirectFactor(A, points, single=True)
        x = f.solve(b)
        assert factored == [np.float32, np.float64]
        assert f._A is None and f.steps >= 2
        double = DirectFactor(A, points)
        assert np.array_equal(x, double.solve(b))
        b = rng.standard_normal(n)
        assert np.array_equal(f.solve(b), double.solve(b)) and f.steps == 1

    @pytest.mark.parametrize("scale", [1e39, 1e-39])
    def test_right_side_beyond_float32_range(self, scale, factored, rng):
        """Above float32's largest number or below its smallest normal
        one: each right side is scaled into range before the cast."""
        n = 30
        A, points = random_spd(n, rng), chain(n)
        b = scale * rng.standard_normal(n)
        f = DirectFactor(A, points, single=True)
        x = f.solve(b)
        assert factored == [np.float32] and f._A is not None
        assert f.steps >= 2 and np.all(np.isfinite(x))
        assert true_residual(A, b, x) <= 1e-15

    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_right_side_is_rejected(self, single, bad, factored,
                                               rng, monkeypatch):
        """In either precision, before any triangular solve: refinement
        took a NaN residual for converged and solved it as zero, and an
        inf one factored A again in float64. The factor is kept."""
        n = 10
        A, points = random_spd(n, rng), chain(n)
        f = DirectFactor(A, points, single=single)
        solved, orig = [], DirectFactor._triangular

        def triangular(self, r):
            solved.append(r)
            return orig(self, r)
        monkeypatch.setattr(DirectFactor, "_triangular", triangular)
        b = rng.standard_normal(n)
        b[1] = bad
        with pytest.raises(Singular, match="non-finite right side"):
            f.solve(b)
        assert solved == []
        b = rng.standard_normal(n)
        fresh = DirectFactor(A, points, single=single)
        assert np.array_equal(f.solve(b), fresh.solve(b))
        assert f.steps == fresh.steps
        assert factored == [np.float32 if single else np.float64] * 2

    def test_zero_right_side_takes_no_solve(self, rng):
        f = DirectFactor(random_spd(10, rng), chain(10), single=True)
        assert np.array_equal(f.solve(np.zeros(10)), np.zeros(10))
        assert f.steps == 0


class TestPrecisionRule:
    """`System.factor` gives a K that `refill` changes a float64 factor,
    and every other K a refined float32 one."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_picard_factor_is_float64(self, order, params, mms):
        lv = build_level(build_coupled_mesh(4), order, params, mms)
        system, _ = coupled.picard_system(lv)
        system.factor(SolveOptions())
        assert system.inverse._A is None
        assert system.inverse._lu.L.dtype == np.float64
        _, rep = system.solve(system.rhs(lv.fluid_load, None,
                                         lv.porous_load))
        assert (rep.method, rep.iterations) == ("direct", 1)

    @pytest.mark.parametrize("kind,order", DIRECT_SITES)
    def test_superlu_gets_k_in_factor_order(self, kind, order, params, mms,
                                            monkeypatch):
        """K[p][:, p] for the factor's order p: CSC with sorted indices, no
        stored zero, float64 for Picard and float32 for the steps."""
        inputs, splu = [], spla.splu
        monkeypatch.setattr(sparse.spla, "splu", lambda A, *args, **kw:
                            inputs.append(A) or splu(A, *args, **kw))
        lv = build_level(build_coupled_mesh(4), order, params, mms)
        if kind == "picard":
            system, _ = coupled.picard_system(lv)
            system.factor(SolveOptions())
        elif kind == "ns":
            system = NSStep(lv, interpolate(mms.velocity,
                                            lv.spaces.velocity)).system
        else:
            system = DarcyStep(lv).system
        [S] = inputs
        p = system.inverse._iidx
        assert S.format == "csc"
        assert S.dtype == (np.float64 if kind == "picard" else np.float32)
        column = np.repeat(np.arange(S.shape[1]), np.diff(S.indptr))
        assert np.all((np.diff(S.indices) > 0) | (np.diff(column) > 0))
        assert np.all(S.data != 0)
        assert np.array_equal(S.toarray(), system.K.toarray()[np.ix_(p, p)]
                              .astype(S.dtype))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", ["darcy", "ns"])
    def test_steps_refine_a_float32_factor(self, kind, order, params, mms):
        """To at most twice the residual of a float64 factor of K."""
        lv = build_level(build_coupled_mesh(8), order, params, mms)
        if kind == "darcy":
            step, loads = DarcyStep(lv), (lv.porous_load,)
        else:
            step = NSStep(lv, interpolate(mms.velocity, lv.spaces.velocity))
            loads = (lv.fluid_load, None)
        system = step.system
        assert system.inverse._lu.L.dtype == np.float32
        b = system.rhs(*loads)
        x, rep = system.solve(b)
        assert system.inverse._A is not None
        assert rep.iterations == system.inverse.steps >= 2
        double = DirectFactor(system.K,
                              grid_points(*system.dofmaps)[system.kept])
        assert rep.final_residual <= 2 * true_residual(system.K, b,
                                                       double.solve(b))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", ["darcy", "ns"])
    def test_every_triangular_solve_is_part_of_x(self, kind, order, params,
                                                 mms, monkeypatch):
        """The refinement stops once the residual meets LAPACK's test, so
        no step is computed and then thrown away: x is the sum, in order,
        of every correction its triangular solves gave."""
        lv = build_level(build_coupled_mesh(8), order, params, mms)
        if kind == "darcy":
            step, loads = DarcyStep(lv), (lv.porous_load,)
        else:
            step = NSStep(lv, interpolate(mms.velocity, lv.spaces.velocity))
            loads = (lv.fluid_load, None)
        corrections, orig = [], DirectFactor._triangular

        def triangular(self, r):
            corrections.append(orig(self, r))
            return corrections[-1]

        monkeypatch.setattr(DirectFactor, "_triangular", triangular)
        x, rep = step.system.solve(step.system.rhs(*loads))
        assert step.system.inverse._A is not None
        assert len(corrections) == rep.iterations >= 2
        total = np.zeros_like(x)
        for correction in corrections:
            total = total + correction
        assert np.array_equal(total, x)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("kind,order", [(k, o) for k, o in DIRECT_SITES
                                            if k != "picard"])
    def test_float32_factor_keeps_every_pivot_on_the_diagonal(
            self, kind, order, n, params, mms):
        K, points = direct_system(kind, order, n, params, mms)
        lu = DirectFactor(K, points, single=True)._lu
        assert lu.L.dtype == np.float32
        assert np.array_equal(lu.perm_r, np.arange(lu.shape[0]))
