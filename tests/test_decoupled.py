import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from nsdarcy import coupled, forms, sparse
from nsdarcy.coupled import CoupledState, build_spaces, solve_coupled
from nsdarcy.decoupled import (AlgorithmId, DarcyStep, MeshMismatch,
                               MultilevelStepFailed, NSStep, _pin,
                               advance_level, compare_runs, run_multilevel)
from nsdarcy.fem import DiscreteField, interpolate
from nsdarcy.mesh import build_coupled_mesh
from nsdarcy.mms import error_norms
from nsdarcy.sparse import LinearSolver, constrain_rhs

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


def state_vector(state):
    return np.concatenate([state.velocity.coefficients,
                           state.pressure.coefficients,
                           state.head.coefficients])


class TestSubspaceConsistency:
    """A same-mesh pass of any algorithm, started from the coupled discrete
    solution, must return it: the splittings only rearrange terms that the
    converged solution already balances."""

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    @pytest.mark.parametrize("n,order", [(4, 1), (3, 2)])
    def test_coupled_solution_is_fixed_point(self, algorithm, n, order,
                                             params, mms):
        cm = build_coupled_mesh(n)
        state, _ = solve_coupled(cm, order, params, mms, picard_tol=1e-12)
        sol = advance_level(algorithm, state, cm, order, params, mms)
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

    def test_c_is_order_free(self, params, mms):
        first = run_multilevel("C", [2, 4, 8], 1, params, mms,
                               c_order="ns_first")
        second = run_multilevel("C", [2, 4, 8], 1, params, mms,
                                c_order="darcy_first")
        for a, b in zip(first.final_states, second.final_states):
            assert np.array_equal(state_vector(a), state_vector(b))

    def test_run_matches_manual_advance(self, params, mms):
        run = run_multilevel("A", [2, 4], 1, params, mms)
        coarse, _ = solve_coupled(build_coupled_mesh(2), 1, params, mms)
        sol = advance_level("A", coarse, build_coupled_mesh(4), 1, params,
                            mms)
        assert np.abs(state_vector(run.levels[1].final)
                      - state_vector(sol.final)).max() <= 1e-13

    def test_bookkeeping(self, params, mms):
        run = run_multilevel(AlgorithmId.B, [2, 4], 2, params, mms)
        assert run.algorithm is AlgorithmId.B
        assert run.schedule == [2, 4]
        assert [lv.n for lv in run.levels] == [2, 4]
        assert [lv.level for lv in run.levels] == [0, 1]
        assert len(run.timings) == 2
        assert len(run.final_states) == 2

    def test_short_schedule_rejected(self, params, mms):
        with pytest.raises(ValueError):
            run_multilevel("A", [4], 1, params, mms)

    def test_step_failure_is_attributed(self, params, mms):
        cm = build_coupled_mesh(2)
        state, _ = solve_coupled(cm, 1, params, mms)
        broken = CoupledState(state.velocity, state.pressure, BrokenField())
        with pytest.raises(MultilevelStepFailed) as err:
            advance_level("B", broken, build_coupled_mesh(4), 1, params, mms)
        assert err.value.level == 1
        assert err.value.step == "ns_newton"
        assert isinstance(err.value.__cause__, RuntimeError)


class TestAccuracy:
    def test_two_level_tracks_coupled(self, params, mms):
        run = run_multilevel("A", [2, 8], 1, params, mms)
        reference = [solve_coupled(build_coupled_mesh(n), 1, params, mms)[0]
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
        err_a = error_norms(run_a.levels[1].final, mms)
        err_b = error_norms(run_b.levels[1].final, mms)
        for key in ENERGY_KEYS:
            assert abs(err_a.errors[key] / err_b.errors[key] - 1.0) <= 0.01


class TestCompareRuns:
    def test_self_comparison_is_exactly_one(self, params, mms):
        run = run_multilevel("D", [2, 4], 1, params, mms)
        ratios = compare_runs(run, run.final_states, mms)
        assert all(r == 1.0 for level in ratios for r in level.values())

    def test_wrong_length_raises(self, params, mms):
        run = run_multilevel("A", [2, 4], 1, params, mms)
        with pytest.raises(MeshMismatch):
            compare_runs(run, run.final_states[:1], mms)

    def test_wrong_mesh_raises(self, params, mms):
        run = run_multilevel("A", [2, 4], 1, params, mms)
        with pytest.raises(MeshMismatch):
            compare_runs(run, list(reversed(run.final_states)), mms)

    def test_wrong_family_raises(self, params, mms):
        run = run_multilevel("A", [2, 4], 1, params, mms)
        other = run_multilevel("A", [2, 4], 2, params, mms)
        with pytest.raises(MeshMismatch):
            compare_runs(run, other.final_states, mms)


class TestSubproblemKernels:
    def test_darcy_step_converges_with_exact_flux(self, params, mms):
        errs = []
        for n in (8, 16):
            cm = build_coupled_mesh(n)
            spaces = build_spaces(cm, 1)
            src = interpolate(mms.velocity, spaces.velocity)
            # feed the interpolated exact velocity; its trace is exact to
            # interpolation error, so the head keeps the O(h) energy rate
            phi, rep = DarcyStep(spaces.head, params, mms).solve(src)
            assert rep.converged
            carrier = CoupledState(
                DiscreteField(spaces.velocity,
                              np.zeros(spaces.velocity.num_coefficients)),
                DiscreteField(spaces.pressure,
                              np.zeros(spaces.pressure.ndof)),
                phi)
            errs.append(error_norms(carrier, mms).get("phi", "H1"))
        rate = np.log2(errs[0] / errs[1])
        assert 0.8 <= rate <= 1.5

    def test_darcy_step_reuses_factorization(self, params, mms):
        cm = build_coupled_mesh(4)
        spaces = build_spaces(cm, 1)
        step = DarcyStep(spaces.head, params, mms)
        src = interpolate(mms.velocity, spaces.velocity)
        step.solve(src)
        step.solve(src)
        assert step.linear.factor.solves == 2

    def test_correction_with_own_state_matches_newton(self, params, mms):
        cm = build_coupled_mesh(4)
        state, _ = solve_coupled(cm, 1, params, mms)
        spaces = build_spaces(cm, 1)
        ns = NSStep(spaces.velocity, spaces.pressure, params, mms,
                    state.velocity)
        u1, p1, _ = ns.solve_newton(state.head)
        u2, p2, _ = ns.solve_correction(state.velocity, state.head)
        assert np.abs(u1.coefficients - u2.coefficients).max() <= 1e-12
        assert np.abs(p1.coefficients - p2.coefficients).max() <= 1e-12


class TestStoredLift:
    """The steps keep -A x0 of the Dirichlet data instead of A itself."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_right_sides_equal_constrain_rhs(self, order, params, mms, rng):
        cm = build_coupled_mesh(4)
        state, _ = solve_coupled(cm, order, params, mms)
        dv, dq, dphi = build_spaces(cm, order)
        darcy = DarcyStep(dphi, params, mms)
        ns = NSStep(dv, dq, params, mms, state.velocity)
        N, _ = forms.assemble_convection(dv, state.velocity,
                                         forms.ConvectionMode.NEWTON, params)
        B = forms.assemble_b(dv, dq)
        K = sp.bmat([[forms.assemble_af(dv, params) + N, B.T], [B, None]],
                    format="csr")
        for step, A in ((darcy, forms.assemble_ap(dphi, params)), (ns, K)):
            b = rng.standard_normal(A.shape[0])
            assert np.array_equal(
                _pin(b, step.lift, step.bc_dofs, step.bc_values),
                constrain_rhs(A, b, step.bc_dofs, step.bc_values))

    def test_unconstrained_matrices_are_freed_before_factoring(
            self, params, mms, monkeypatch):
        cm = build_coupled_mesh(4)
        state, _ = solve_coupled(cm, 1, params, mms)
        dv, dq, dphi = build_spaces(cm, 1)
        made, alive_at_splu = [], []
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
            alive_at_splu.append(sum(ref() is not None for ref in made))
            return orig_splu(A, *args, **kwargs)

        for name in ("assemble_ap", "assemble_af", "assemble_b",
                     "assemble_convection"):
            track(forms, name)
        track(sp, "bmat")
        monkeypatch.setattr(sparse.spla, "splu", splu)
        DarcyStep(dphi, params, mms)
        NSStep(dv, dq, params, mms, state.velocity)
        assert len(made) == 5 and alive_at_splu == [0, 0]


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
        cm = build_coupled_mesh(4)
        state, _ = solve_coupled(cm, 1, params, mms)
        spaces = build_spaces(build_coupled_mesh(8), 1)
        darcy = DarcyStep(spaces.head, params, mms, solver=solver)
        ns = NSStep(spaces.velocity, spaces.pressure, params, mms,
                    state.velocity, solver=solver)
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
        _, report = solve_coupled(build_coupled_mesh(8), 1, params, mms,
                                  solver=solver)
        assert len(report.solver_reports) == report.iterations >= 3
        assert all(r.converged for r in report.solver_reports)
        if solver == "direct":
            # the first iterate factors, the later ones reuse that factor
            assert report.solver_reports[0].method == "direct"
            assert {r.method for r in report.solver_reports[1:]} == {"gmres"}
        assert_true_residuals(report.solver_reports, solves)


@pytest.fixture
def superlu_inputs(monkeypatch):
    """(matrix given to LinearSolver, matrix given to SuperLU) of every
    direct factorization."""
    pairs, given = [], []
    orig_init, orig_splu = LinearSolver.__init__, sparse.spla.splu

    def init(self, K, *args, **kwargs):
        given.append(K)
        orig_init(self, K, *args, **kwargs)

    def splu(A, *args, **kwargs):
        pairs.append((given[-1], A))
        return orig_splu(A, *args, **kwargs)

    monkeypatch.setattr(LinearSolver, "__init__", init)
    monkeypatch.setattr(sparse.spla, "splu", splu)
    return pairs


class TestBubbleCondensation:
    def test_mini_factors_exclude_the_bubbles(self, superlu_inputs, solves,
                                              params, mms):
        cm = build_coupled_mesh(8)
        state, _ = solve_coupled(cm, 1, params, mms)
        spaces = build_spaces(cm, 1)
        ns = NSStep(spaces.velocity, spaces.pressure, params, mms,
                    state.velocity)
        bubbles = 2 * cm.fluid.num_cells
        assert len(superlu_inputs) == 2   # Picard's first iterate, NS step
        for K, A in superlu_inputs:
            assert A.shape[0] == K.shape[0] - bubbles
        assert ns.linear.factor._lu.shape[0] == ns.linear.K.shape[0] - bubbles
        solves.clear()
        u, _, rep = ns.solve_newton(state.head)
        (K, b, x, _), = solves
        assert K.shape == ns.linear.K.shape and x.shape == b.shape
        assert_true_residuals([rep], solves)

    def test_taylor_hood_and_darcy_factor_the_given_matrix(
            self, superlu_inputs, params, mms):
        cm = build_coupled_mesh(4)
        state, _ = solve_coupled(cm, 2, params, mms)
        spaces = build_spaces(cm, 2)
        NSStep(spaces.velocity, spaces.pressure, params, mms, state.velocity)
        DarcyStep(build_spaces(cm, 1).head, params, mms)
        assert len(superlu_inputs) == 3
        for K, A in superlu_inputs:
            K = K.tocsc()
            assert A.shape == K.shape
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(A, attr), getattr(K, attr))
