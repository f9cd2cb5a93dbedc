import numpy as np
import pytest
import scipy.sparse as sp

from nsdarcy import forms
from nsdarcy.coupled import build_spaces, dirichlet_data
from nsdarcy.fem import P1, build_dofmap, cell_bubbles
from nsdarcy.mesh import Subdomain, build_coupled_mesh, build_tri_mesh
from nsdarcy.sparse import (BlockTriangularPreconditioner, DimensionMismatch,
                            DirectFactor, LinearSolver, NotSymmetric,
                            Singular, constrain_dirichlet, gmres, ichol, pcg,
                            true_residual)


def laplacian_1d(n):
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1], format="csr")


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
    return constrain_dirichlet(A, load, fixed, vals)


def coupled_system(n, params, mms):
    """First fixed-point iterate of the monolithic system (zero convection)."""
    cm = build_coupled_mesh(n)
    spaces = build_spaces(cm, order=1)
    dv, dq, dphi = spaces
    A_f = forms.assemble_af(dv, params)
    B = forms.assemble_b(dv, dq)
    C_vphi, C_phiu = forms.assemble_interface_coupling(cm, dv, dphi, params)
    A_p = forms.assemble_ap(dphi, params)
    rho_g = params.rho * params.gravity
    rhs = np.concatenate([
        forms.assemble_volume_load(dv, mms.f_fluid),
        np.zeros(dq.ndof),
        forms.assemble_volume_load(dphi, mms.f_porous, weight=rho_g)])
    K = sp.bmat([[A_f, B.T, C_vphi],
                 [B, None, None],
                 [C_phiu, None, A_p]], format="csr")
    bc_dofs, bc_values = dirichlet_data(spaces, mms)
    K2, rhs2 = constrain_dirichlet(K, rhs, bc_dofs, bc_values)
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
        _, plain = pcg(A, b, None, tol=1e-9)
        _, prec = pcg(A, b, ichol(A, droptol=1e-3), tol=1e-9)
        assert prec.converged and plain.converged
        assert prec.iterations < plain.iterations

    def test_rejects_nonsymmetric(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSymmetric):
            ichol(A)


class TestPcg:
    def test_identity_one_iteration(self, rng):
        b = rng.standard_normal(9)
        x, rep = pcg(sp.eye(9, format="csr"), b)
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
        A = laplacian_1d(100)
        x, rep = pcg(A, np.ones(100), None, tol=1e-12, maxit=3)
        assert not rep.converged
        assert rep.iterations == 3
        assert rep.final_residual > 1e-12


class TestGmres:
    def test_identity_one_iteration(self, rng):
        b = rng.standard_normal(11)
        x, rep = gmres(sp.eye(11, format="csr"), b)
        assert rep.converged and rep.iterations == 1
        assert np.abs(x - b).max() <= 1e-12

    def test_against_dense_solve(self, rng):
        M = np.eye(40) + 0.5 * rng.standard_normal((40, 40)) / np.sqrt(40)
        A = sp.csr_matrix(M)
        b = rng.standard_normal(40)
        x, rep = gmres(A, b, tol=1e-12)
        assert rep.converged
        ref = np.linalg.solve(M, b)
        assert np.abs(x - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())

    def test_tiny_saddle_point(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
        x, rep = gmres(A, np.array([3.0, 1.0]), tol=1e-12)
        assert rep.converged
        assert np.abs(x - 1.0).max() <= 1e-10

    def test_exhausted_budget_reports_not_converged(self):
        A = laplacian_1d(400)
        x, rep = gmres(A, np.ones(400), None, tol=1e-14, restart=5, maxit=10)
        assert not rep.converged


class TestDirectSolve:
    def test_identity(self, rng):
        b = rng.standard_normal(6)
        x = DirectFactor(sp.eye(6, format="csr")).solve(b)
        assert np.abs(x).max() <= np.abs(b).max()
        assert np.allclose(x, b, atol=1e-14)

    def test_permutation(self, rng):
        perm = rng.permutation(8)
        P = sp.csr_matrix((np.ones(8), (np.arange(8), perm)), shape=(8, 8))
        b = rng.standard_normal(8)
        x = DirectFactor(P).solve(b)
        assert np.allclose(P @ x, b, atol=1e-14)
        assert np.allclose(x[perm], b, atol=1e-14)

    def test_coupled_system_matches_gmres(self, params, mms):
        K, rhs, (nu_, nq_, nphi), mdiag = coupled_system(4, params, mms)
        x_dir = DirectFactor(K).solve(rhs)
        P = BlockTriangularPreconditioner(K, nu_, nq_, mdiag, params.nu,
                                          nphi=nphi)
        x_it, rep = gmres(K, rhs, P, tol=1e-12, maxit=2000)
        assert rep.converged
        scale = max(1.0, np.abs(x_dir).max())
        assert np.abs(x_it - x_dir).max() <= 1e-8 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DirectFactor(sp.eye(3, format="csr")).solve(np.ones(4))

    def test_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(Singular):
            DirectFactor(A).solve(np.ones(2))

    def test_factor_reuse_counts_solves(self, rng):
        A = random_spd(10, rng)
        f = DirectFactor(A)
        for k in range(3):
            f.solve(rng.standard_normal(10))
        assert f.solves == 3


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_pcg_vs_direct_on_head_systems(self, n, params, mms):
        K, rhs = porous_head_system(n, params, mms)
        x_dir = DirectFactor(K).solve(rhs)
        x_it, rep = pcg(K, rhs, ichol(K, 1e-3), tol=1e-11)
        assert rep.converged
        assert np.abs(x_it - x_dir).max() <= 1e-7 * max(1.0,
                                                        np.abs(x_dir).max())

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_gmres_vs_direct_on_saddle_systems(self, n, params, mms):
        K, rhs, (nu_, nq_, nphi), mdiag = coupled_system(n, params, mms)
        x_dir = DirectFactor(K).solve(rhs)
        P = BlockTriangularPreconditioner(K, nu_, nq_, mdiag, params.nu,
                                          nphi=nphi)
        x_it, rep = gmres(K, rhs, P, tol=1e-11, maxit=3000)
        assert rep.converged
        assert np.abs(x_it - x_dir).max() <= 1e-7 * max(1.0,
                                                        np.abs(x_dir).max())


def recomputed_residual(K, b, x):
    return np.linalg.norm(b - K @ x) / np.linalg.norm(b)


class TestLinearSolver:
    @pytest.mark.parametrize("solver,method", [("direct", "direct"),
                                               ("iterative", "pcg")])
    def test_spd_reports_true_residual(self, solver, method, params, mms):
        K, rhs = porous_head_system(8, params, mms)
        linear = LinearSolver(K, solver, 1e-9, lambda A: ichol(A, 1e-3),
                              symmetric=True)
        x, rep = linear.solve(rhs)
        assert rep.method == method and rep.converged
        assert rep.final_residual == pytest.approx(
            recomputed_residual(K, rhs, x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("solver,method", [("direct", "direct"),
                                               ("iterative", "gmres")])
    def test_saddle_reports_true_residual(self, solver, method, params, mms):
        K, rhs, (nu_, nq_, nphi), mdiag = coupled_system(4, params, mms)
        linear = LinearSolver(
            K, solver, 1e-9, lambda A: BlockTriangularPreconditioner(
                A, nu_, nq_, mdiag, params.nu, nphi=nphi))
        x, rep = linear.solve(rhs)
        assert rep.method == method and rep.converged
        assert rep.final_residual == pytest.approx(
            recomputed_residual(K, rhs, x), rel=1e-12, abs=0.0)
        # measured, not assumed: an LU solve leaves a rounding residual
        assert rep.final_residual > 0.0

    def test_direct_factors_once(self, rng):
        A = random_spd(10, rng)
        linear = LinearSolver(A, "direct")
        for _ in range(2):
            linear.solve(rng.standard_normal(10))
        assert linear.factor.solves == 2

    def test_iterative_builds_preconditioner_once(self, rng):
        A = random_spd(10, rng)
        built = []
        linear = LinearSolver(A, "iterative", 1e-12,
                              lambda K: built.append(K) or ichol(K, 1e-3),
                              symmetric=True)
        for _ in range(2):
            linear.solve(rng.standard_normal(10))
        assert len(built) == 1 and built[0] is A
        assert linear.factor is None

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            LinearSolver(sp.eye(3, format="csr"), "multigrid")

    def test_zero_rhs_residual_is_absolute(self):
        A = sp.eye(3, format="csr")
        assert true_residual(A, np.zeros(3), np.zeros(3)) == 0.0
        assert true_residual(A, np.zeros(3), np.ones(3)) == np.sqrt(3.0)


def local_group_system(rng, n=40, groups=8, k=2):
    """Random nonsymmetric system whose `local` unknowns couple with each
    other only inside their own group, as the Mini bubbles of one cell do."""
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
    M += n * np.eye(n)
    local = rng.permutation(n)[:groups * k].reshape(groups, k)
    group = np.full(n, -1)
    group[local.ravel()] = np.repeat(np.arange(groups), k)
    M[(group[:, None] >= 0) & (group[None, :] >= 0)
      & (group[:, None] != group[None, :])] = 0.0
    return M, local


class TestCondensedFactor:
    def test_matches_uncondensed_solve(self, rng):
        M, local = local_group_system(rng)
        A = sp.csr_matrix(M)
        b = rng.standard_normal(M.shape[0])
        f = DirectFactor(A, local)
        assert f.shape == A.shape
        assert f._lu.shape == (M.shape[0] - local.size,) * 2
        x = f.solve(b)
        ref = DirectFactor(A).solve(b)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(f.apply(b) - x).max() == 0.0

    @pytest.mark.parametrize("defect", ["cross_group", "listed_twice"])
    def test_rejects_local_unknowns_that_are_not_local(self, rng, defect):
        M, local = local_group_system(rng)
        if defect == "cross_group":
            M[local[0, 0], local[1, 1]] = 1.0
        else:
            local[1, 0] = local[0, 0]
        with pytest.raises(ValueError):
            DirectFactor(sp.csr_matrix(M), local)

    def test_singular_local_block_raises(self, rng):
        M, local = local_group_system(rng)
        M[np.ix_(local[2], local[2])] = 1.0
        with pytest.raises(Singular, match="local block"):
            DirectFactor(sp.csr_matrix(M), local)

    def test_mini_coupled_system_factors_without_bubbles(self, params, mms):
        K, rhs, *_ = coupled_system(4, params, mms)
        dv = build_spaces(build_coupled_mesh(4), order=1).velocity
        linear = LinearSolver(K, "direct", local=cell_bubbles(dv))
        assert linear.factor._lu.shape[0] == K.shape[0] - 2 * dv.mesh.num_cells
        x, rep = linear.solve(rhs)
        assert x.shape == rhs.shape
        assert rep.final_residual == pytest.approx(
            recomputed_residual(K, rhs, x), rel=1e-12, abs=0.0)
        x_full = DirectFactor(K).solve(rhs)
        assert np.abs(x - x_full).max() <= 1e-10 * np.abs(x).max()
