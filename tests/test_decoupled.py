import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from run_comparison import MeshMismatch, compare_runs

from nsdarcy import coupled, decoupled, fem, forms, sparse
from nsdarcy.coupled import (CoupledState, SolveOptions, build_level,
                             solve_coupled)
from nsdarcy.decoupled import (AlgorithmId, DarcyStep, MultilevelStepFailed,
                               NSStep, advance_level, run_multilevel)
from nsdarcy.fem import DiscreteField, grid_points, interpolate
from nsdarcy.mesh import TriMesh, build_coupled_mesh
from nsdarcy.mms import error_norms
from nsdarcy.sparse import LinearSolver

ALL_ALGORITHMS = ("A", "B", "C", "D")
ENERGY_KEYS = (("u", "H1"), ("v", "H1"), ("phi", "H1"), ("p", "L2"))

STEP_SEQUENCES = {
    "A": ["darcy", "ns_newton", "darcy_correct", "ns_correct"],
    "B": ["ns_newton", "darcy", "ns_correct", "darcy_correct"],
    "C": ["ns_newton", "darcy"],
    "D": ["darcy", "ns_newton", "ns_correct"],
}


class BrokenField:
    def eval_many(self, pts):
        raise RuntimeError("boom")


def level(n, order, params, mms):
    return build_level(build_coupled_mesh(n), order, params, mms)


def state_vector(state):
    return np.concatenate([state.velocity.coefficients,
                           state.pressure.coefficients,
                           state.head.coefficients])


def final_states(run):
    return [lv.final for lv in run.levels]


class TestSubspaceConsistency:
    """A same-mesh pass of any algorithm, started from the coupled discrete
    solution, must return it: the splittings only rearrange terms that the
    converged solution already balances."""

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    @pytest.mark.parametrize("n,order", [(4, 1), (3, 2)])
    def test_coupled_solution_is_fixed_point(self, algorithm, n, order,
                                             params, mms):
        lv = level(n, order, params, mms)
        state, _ = solve_coupled(lv, SolveOptions(picard_tol=1e-12))
        sol = advance_level(algorithm, state, lv)
        assert np.abs(state_vector(sol.final)
                      - state_vector(state)).max() <= 1e-8


class TestAlgorithmStructure:
    def test_solve_log_steps_and_counts(self, params, mms):
        for alg, steps in STEP_SEQUENCES.items():
            run = run_multilevel(alg, [2, 4], 1, params, mms)
            assert run.solve_log[0][:2] == (0, "coupled")
            fine = run.solve_log[1:]
            assert [entry[1] for entry in fine] == steps
            # each fine-level subproblem is linear: one factored solve, done
            for level, _, method, its in fine:
                assert level == 1
                assert method == "direct"
                assert its == 1

    def test_intermediate_states(self, params, mms):
        for alg in ALL_ALGORITHMS:
            run = run_multilevel(alg, [2, 4], 1, params, mms)
            assert run.levels[0].intermediate is None
            inter = run.levels[1].intermediate
            if alg == "C":
                assert inter is None
            else:
                assert inter is not None

    def test_d_keeps_intermediate_head(self, params, mms):
        run = run_multilevel("D", [2, 4], 1, params, mms)
        lv = run.levels[1]
        assert lv.final.head is lv.intermediate.head
        assert np.abs(lv.final.velocity.coefficients
                      - lv.intermediate.velocity.coefficients).max() > 0

    def test_c_level_is_two_independent_solves(self, params, mms):
        # each C level equals a Darcy solve and an NS solve made apart from
        # each other, so the order of the two cannot change it
        run = run_multilevel("C", [2, 4, 8], 1, params, mms)
        for prev, lv in zip(run.levels, run.levels[1:]):
            fine = level(lv.n, 1, params, mms)
            phi, _ = DarcyStep(fine).solve(prev.final.velocity)
            u, p, _ = NSStep(fine, prev.final.velocity) \
                .solve_newton(prev.final.head)
            assert np.array_equal(state_vector(lv.final),
                                  state_vector(CoupledState(u, p, phi)))

    def test_run_matches_manual_advance(self, params, mms):
        run = run_multilevel("A", [2, 4], 1, params, mms)
        coarse, _ = solve_coupled(level(2, 1, params, mms))
        sol = advance_level("A", coarse, level(4, 1, params, mms))
        assert np.abs(state_vector(run.levels[1].final)
                      - state_vector(sol.final)).max() <= 1e-13

    def test_level_data_is_built_once(self, params, mms, monkeypatch):
        """Per level, one build_spaces call, and one volume load and one
        Dirichlet trace of each of the velocity and head spaces."""
        calls = []

        def record(home, name):
            orig = getattr(home, name)

            def recorded(first, *args, **kwargs):
                out = orig(first, *args, **kwargs)
                calls.append((name, first, out))
                return out
            # rebound wherever it was imported, as a new caller would see it
            for module in (fem, forms, coupled, decoupled):
                if getattr(module, name, None) is orig:
                    monkeypatch.setattr(module, name, recorded)

        for home, name in ((coupled, "build_spaces"),
                           (forms, "assemble_volume_load"),
                           (fem, "dirichlet_trace")):
            record(home, name)
        run_multilevel("A", [2, 4, 8], 1, params, mms)
        spaces = [out for name, _, out in calls if name == "build_spaces"]
        assert [s.velocity.mesh.n for s in spaces] == [2, 4, 8]
        for name in ("assemble_volume_load", "dirichlet_trace"):
            assert [first for n, first, _ in calls if n == name] == \
                [d for s in spaces for d in (s.velocity, s.head)]

    def test_bookkeeping(self, params, mms):
        run = run_multilevel(AlgorithmId.B, [2, 4], 2, params, mms)
        assert run.algorithm is AlgorithmId.B
        assert run.schedule == [2, 4]
        assert [lv.n for lv in run.levels] == [2, 4]
        assert [lv.level for lv in run.levels] == [0, 1]
        assert len(run.timings) == 2

    def test_short_schedule_rejected(self, params, mms):
        with pytest.raises(ValueError):
            run_multilevel("A", [4], 1, params, mms)

    def test_step_failure_is_attributed(self, params, mms):
        state, _ = solve_coupled(level(2, 1, params, mms))
        broken = CoupledState(state.velocity, state.pressure, BrokenField())
        with pytest.raises(MultilevelStepFailed) as err:
            advance_level("B", broken, level(4, 1, params, mms))
        assert err.value.level == 1
        assert err.value.step == "ns_newton"
        assert isinstance(err.value.__cause__, RuntimeError)


class TestAccuracy:
    def test_two_level_tracks_coupled(self, params, mms):
        run = run_multilevel("A", [2, 8], 1, params, mms)
        reference = [solve_coupled(level(n, 1, params, mms))[0]
                     for n in (2, 8)]
        ratios = compare_runs(run, reference, mms)
        for key in ENERGY_KEYS:
            assert abs(ratios[1][key] - 1.0) <= 0.02
        for key in (("u", "L2"), ("v", "L2"), ("phi", "L2")):
            assert abs(ratios[1][key] - 1.0) <= 0.05

    def test_sequential_variants_agree(self, params, mms):
        # the two correction orders differ only in fourth-order remainders
        run_a = run_multilevel("A", [2, 8], 1, params, mms)
        run_b = run_multilevel("B", [2, 8], 1, params, mms)
        err_a = error_norms([run_a.levels[1].final], mms)[0]
        err_b = error_norms([run_b.levels[1].final], mms)[0]
        for key in ENERGY_KEYS:
            assert abs(err_a.errors[key] / err_b.errors[key] - 1.0) <= 0.01


class TestCompareRuns:
    def test_self_comparison_is_exactly_one(self, params, mms):
        run = run_multilevel("D", [2, 4], 1, params, mms)
        ratios = compare_runs(run, final_states(run), mms)
        assert all(r == 1.0 for level in ratios for r in level.values())

    def test_wrong_length_raises(self, params, mms):
        run = run_multilevel("A", [2, 4], 1, params, mms)
        with pytest.raises(MeshMismatch):
            compare_runs(run, final_states(run)[:1], mms)

    def test_wrong_mesh_raises(self, params, mms):
        run = run_multilevel("A", [2, 4], 1, params, mms)
        with pytest.raises(MeshMismatch):
            compare_runs(run, final_states(run)[::-1], mms)

    def test_wrong_family_raises(self, params, mms):
        run = run_multilevel("A", [2, 4], 1, params, mms)
        other = run_multilevel("A", [2, 4], 2, params, mms)
        with pytest.raises(MeshMismatch):
            compare_runs(run, final_states(other), mms)


class TestSubproblemKernels:
    def test_darcy_step_converges_with_exact_flux(self, params, mms):
        errs = []
        for n in (8, 16):
            lv = level(n, 1, params, mms)
            spaces = lv.spaces
            src = interpolate(mms.velocity, spaces.velocity)
            # feed the interpolated exact velocity; its trace is exact to
            # interpolation error, so the head keeps the O(h) energy rate
            phi, rep = DarcyStep(lv).solve(src)
            assert rep.converged
            carrier = CoupledState(
                DiscreteField(spaces.velocity,
                              np.zeros(spaces.velocity.num_coefficients)),
                DiscreteField(spaces.pressure,
                              np.zeros(spaces.pressure.ndof)),
                phi)
            errs.append(error_norms([carrier], mms)[0].get("phi", "H1"))
        rate = np.log2(errs[0] / errs[1])
        assert 0.8 <= rate <= 1.5

    def test_darcy_step_reuses_factorization(self, params, mms):
        lv = level(4, 1, params, mms)
        step = DarcyStep(lv)
        src = interpolate(mms.velocity, lv.spaces.velocity)
        step.solve(src)
        step.solve(src)
        assert step.linear.factor.solves == 2

    def test_correction_with_own_state_matches_newton(self, params, mms):
        lv = level(4, 1, params, mms)
        state, _ = solve_coupled(lv)
        ns = NSStep(lv, state.velocity)
        u1, p1, _ = ns.solve_newton(state.head)
        u2, p2, _ = ns.solve_correction(state.velocity, state.head)
        assert np.abs(u1.coefficients - u2.coefficients).max() <= 1e-12
        assert np.abs(p1.coefficients - p2.coefficients).max() <= 1e-12


@pytest.fixture
def assembled(monkeypatch):
    """(weak references to the matrices that the block assembly functions
    and sp.bmat return, how many of them are alive at each SuperLU
    call)."""
    made, alive = [], []
    orig_splu = sparse.spla.splu

    def track(owner, name):
        build = getattr(owner, name)

        def tracked(*args, **kwargs):
            out = build(*args, **kwargs)
            A = out[0] if isinstance(out, tuple) else out
            made.append(weakref.ref(A))
            return out
        monkeypatch.setattr(owner, name, tracked)

    def splu(A, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in made))
        return orig_splu(A, *args, **kwargs)

    for name in ("assemble_ap", "assemble_af", "assemble_b",
                 "assemble_interface_coupling", "assemble_convection"):
        track(forms, name)
    track(sp, "bmat")
    monkeypatch.setattr(sparse.spla, "splu", splu)
    return made, alive


class TestStoredLift:
    """The steps keep -A x0 of the Dirichlet data instead of A itself; that
    their right sides equal constrain_rhs is tested in test_sparse.py."""

    def test_unconstrained_matrices_are_freed_before_factoring(
            self, assembled, params, mms):
        lv = level(4, 1, params, mms)
        state, _ = solve_coupled(lv)
        made, alive_at_splu = assembled
        made.clear()
        alive_at_splu.clear()
        DarcyStep(lv)
        NSStep(lv, state.velocity)
        assert len(made) == 5 and alive_at_splu == [0, 0]

    def test_ns_blocks_are_freed_before_the_elimination(
            self, assembled, params, mms, monkeypatch):
        """While the Dirichlet elimination copies the stacked NS matrix,
        the blocks it was stacked from are gone (at n=128 keeping them
        raised the peak RSS of Algorithm A by up to 40 MB)."""
        lv = level(4, 1, params, mms)
        state, _ = solve_coupled(lv)
        made, _ = assembled
        alive = []
        orig = sparse.constrain_matrix

        def constrain_matrix(A, dofs):
            alive.append(sum(ref() is not None for ref in made))
            return orig(A, dofs)

        monkeypatch.setattr(sparse, "constrain_matrix", constrain_matrix)
        made.clear()
        NSStep(lv, state.velocity)
        assert len(made) == 4 and alive == [1]

    def test_picard_keeps_only_its_stacked_blocks(self, assembled, params,
                                                  mms):
        """Of the blocks and the convection operator, only the matrix they
        were stacked into once is alive when the first iterate factors."""
        solve_coupled(level(4, 1, params, mms))
        made, alive_at_splu = assembled
        assert len(made) > 5 and alive_at_splu == [1]


class TestCoarseStateEvaluation:
    def test_one_level_evaluates_its_coarse_state_once(self, params, mms,
                                                       monkeypatch):
        """The Newton matrix and the correction load share one evaluation
        of the coarse velocity at the fine quadrature points."""
        coarse, _ = solve_coupled(level(2, 1, params, mms))
        a = coarse.velocity
        calls = []

        def count(owner, name, is_coarse):
            orig = getattr(owner, name)

            def counted(obj, *args, **kwargs):
                if is_coarse(obj):
                    calls.append(name)
                return orig(obj, *args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(DiscreteField, "eval_many", lambda f: f is a)
        count(DiscreteField, "eval_grad_many", lambda f: f is a)
        count(TriMesh, "locate_many", lambda m: m is a.dofmap.mesh)
        lv = level(4, 1, params, mms)
        ns = NSStep(lv, a)
        head = interpolate(mms.head, lv.spaces.head)
        u_star, _, _ = ns.solve_newton(head)
        ns.solve_correction(u_star, head)
        assert sorted(calls) == ["eval_grad_many", "eval_many", "locate_many"]


@pytest.fixture
def mass_calls(monkeypatch):
    """Dof maps of every pressure-mass assembly."""
    calls = []
    orig = forms.assemble_mass

    def assemble_mass(dofmap, *args, **kwargs):
        calls.append(dofmap)
        return orig(dofmap, *args, **kwargs)

    monkeypatch.setattr(forms, "assemble_mass", assemble_mass)
    return calls


class TestSaddlePreconditioner:
    """Only the block-triangular preconditioner reads the pressure mass."""

    def test_direct_solves_never_assemble_it(self, mass_calls, params, mms):
        lv = level(4, 1, params, mms)
        state, _ = solve_coupled(lv)
        NSStep(lv, state.velocity).solve_newton(state.head)
        assert mass_calls == []

    def test_iterative_picard_assembles_it_once(self, mass_calls, params,
                                                mms):
        lv = level(4, 1, params, mms)
        _, report = solve_coupled(lv, SolveOptions(solver="iterative"))
        assert report.iterations >= 3
        assert len(mass_calls) == 1 and mass_calls[0].mesh is lv.mesh.fluid


@pytest.fixture
def solves(monkeypatch):
    """(K, b, x, report) of every LinearSolver solve and of every GMRES
    solve the Picard loop runs on its frozen factor."""
    calls = []
    orig_solve, orig_gmres = LinearSolver.solve, coupled.gmres

    def solve(self, b):
        x, rep = orig_solve(self, b)
        calls.append((self.K, b, x, rep))
        return x, rep

    def gmres(A, b, *args, **kwargs):
        x, rep = orig_gmres(A, b, *args, **kwargs)
        calls.append((A, b, x, rep))
        return x, rep

    monkeypatch.setattr(LinearSolver, "solve", solve)
    monkeypatch.setattr(coupled, "gmres", gmres)
    return calls


def assert_true_residuals(reports, calls):
    """Each report is one of the recorded solves and its final_residual is
    ||b - K x|| / ||b|| recomputed from that solve."""
    by_report = {id(rep): (K, b, x) for K, b, x, rep in calls}
    for rep in reports:
        K, b, x = by_report[id(rep)]
        true = np.linalg.norm(b - K @ x) / np.linalg.norm(b)
        assert rep.final_residual == pytest.approx(true, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("solver", ["direct", "iterative"])
class TestTrueResiduals:
    def test_darcy_and_ns_steps(self, solver, solves, params, mms):
        state, _ = solve_coupled(level(4, 1, params, mms))
        fine, opts = level(8, 1, params, mms), SolveOptions(solver=solver)
        darcy = DarcyStep(fine, opts)
        ns = NSStep(fine, state.velocity, opts)
        solves.clear()
        _, rep_d = darcy.solve(state.velocity)
        u, _, rep_n = ns.solve_newton(state.head)
        *_, rep_c = ns.solve_correction(u, state.head)
        assert len(solves) == 3
        expected = (["direct"] * 3 if solver == "direct"
                    else ["pcg", "gmres", "gmres"])
        assert [r.method for r in (rep_d, rep_n, rep_c)] == expected
        assert_true_residuals([rep_d, rep_n, rep_c], solves)

    def test_picard_reports(self, solver, solves, params, mms):
        _, report = solve_coupled(level(8, 1, params, mms),
                                  SolveOptions(solver=solver))
        assert len(report.solver_reports) == report.iterations >= 3
        assert all(r.converged for r in report.solver_reports)
        if solver == "direct":
            # the first iterate factors, the later ones reuse that factor
            assert report.solver_reports[0].method == "direct"
            assert {r.method for r in report.solver_reports[1:]} == {"gmres"}
        assert_true_residuals(report.solver_reports, solves)


@pytest.fixture
def superlu_inputs(monkeypatch):
    """(matrix given to LinearSolver, matrix given to SuperLU, points given
    to LinearSolver, the DirectFactor) of every direct factorization."""
    found, given = [], []
    orig_init, orig_splu = LinearSolver.__init__, sparse.spla.splu

    def init(self, K, *args, **kwargs):
        given.append((K, kwargs.get("points")))
        orig_init(self, K, *args, **kwargs)
        found[-1] += (self.factor,)

    def splu(A, *args, **kwargs):
        found.append((given[-1][0], A, given[-1][1]))
        return orig_splu(A, *args, **kwargs)

    monkeypatch.setattr(LinearSolver, "__init__", init)
    monkeypatch.setattr(sparse.spla, "splu", splu)
    return found


class TestBubbleCondensation:
    def test_mini_factors_exclude_the_bubbles(self, superlu_inputs, solves,
                                              params, mms):
        lv = level(8, 1, params, mms)
        state, _ = solve_coupled(lv)
        ns = NSStep(lv, state.velocity)
        bubbles = 2 * lv.mesh.fluid.num_cells
        assert len(superlu_inputs) == 2   # Picard's first iterate, NS step
        for K, A, _, _ in superlu_inputs:
            assert A.shape[0] == K.shape[0] - bubbles
        assert ns.linear.factor._lu.shape[0] == ns.linear.K.shape[0] - bubbles
        solves.clear()
        u, _, rep = ns.solve_newton(state.head)
        (K, b, x, _), = solves
        assert K.shape == ns.linear.K.shape and x.shape == b.shape
        assert_true_residuals([rep], solves)

    def test_taylor_hood_and_darcy_factor_the_given_matrix(
            self, superlu_inputs, params, mms):
        """Not condensed: SuperLU gets K itself, in the nested-dissection
        order of the dof maps' grid points in stacking order, with the zero
        diagonals of the Taylor-Hood pressure last in each leaf and
        separator."""
        th, mini = level(4, 2, params, mms), level(4, 1, params, mms)
        state, _ = solve_coupled(th)
        dv, dq, dphi = th.spaces
        NSStep(th, state.velocity)
        DarcyStep(mini)
        sites = [grid_points(dv, dq, dphi), grid_points(dv, dq),
                 grid_points(mini.spaces.head)]
        assert len(superlu_inputs) == 3
        for (K, A, points, factor), expect in zip(superlu_inputs, sites):
            assert np.array_equal(points, expect)
            p = factor._iidx
            assert np.array_equal(p, sparse.nested_dissection(
                points, sparse.decoupled_rows(K), K.diagonal() == 0))
            K = K[p][:, p].tocsc()
            assert A.shape == K.shape
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(A, attr), getattr(K, attr))
