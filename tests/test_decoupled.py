import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from run_comparison import MeshMismatch, compare_runs

from nsdarcy import coupled, decoupled, fem, forms, sparse
from nsdarcy.coupled import (CoupledState, SolveOptions, System,
                             build_level, solve_coupled)
from nsdarcy.decoupled import (AlgorithmId, DarcyStep, MultilevelStepFailed,
                               NSStep, advance_level, run_multilevel)
from nsdarcy.fem import DiscreteField, grid_points, interpolate
from nsdarcy.mesh import TriMesh, build_coupled_mesh
from nsdarcy.mms import error_norms, manufactured_problem

ALL_ALGORITHMS = ("A", "B", "C", "D")
ENERGY_KEYS = (("u", "H1"), ("v", "H1"), ("phi", "H1"), ("p", "L2"))

STEP_SEQUENCES = {
    "A": ["darcy", "ns_newton", "darcy_correct", "ns_correct"],
    "B": ["ns_newton", "darcy", "ns_correct", "darcy_correct"],
    "C": ["ns_newton", "darcy"],
    "D": ["darcy", "ns_newton", "ns_correct"],
}
# the step method that each named step calls
STEP_METHODS = {"darcy": (DarcyStep, "solve"),
                "darcy_correct": (DarcyStep, "solve"),
                "ns_newton": (NSStep, "solve_newton"),
                "ns_correct": (NSStep, "solve_correction")}


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
    return [lv.final for lv in run]


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
    def test_steps_and_counts(self, params, mms, monkeypatch, solves):
        """The coarse coupled solve, then the steps of STEP_SEQUENCES on
        the fine mesh, each one direct System.solve whose report counts
        the triangular solves it took."""
        # the triangular solves of every DirectFactor.solve, in call order
        counts = []
        orig_solve = sparse.DirectFactor.solve
        orig_triangular = sparse.DirectFactor._triangular

        def solve(self, b):
            counts.append(0)
            return orig_solve(self, b)

        def triangular(self, r):
            counts[-1] += 1
            return orig_triangular(self, r)
        monkeypatch.setattr(sparse.DirectFactor, "solve", solve)
        monkeypatch.setattr(sparse.DirectFactor, "_triangular", triangular)
        # (method, mesh n, the solves it made) of every call, in order
        steps = []

        def record(owner, name, mesh):
            orig = getattr(owner, name)

            def recorded(*args):
                first = len(solves)
                out = orig(*args)
                steps.append((name, mesh(*args).n, solves[first:]))
                return out
            monkeypatch.setattr(owner, name, recorded)

        record(decoupled, "solve_coupled", lambda lv, *_: lv.mesh)
        for owner, name in set(STEP_METHODS.values()):
            record(owner, name, lambda step, *_: step.level.mesh)
        for alg, names in STEP_SEQUENCES.items():
            counts.clear()
            steps.clear()
            run_multilevel(alg, [2, 4], 1, params, mms)
            assert [step[:2] for step in steps] == [("solve_coupled", 2)] + [
                (STEP_METHODS[name][1], 4) for name in names]
            # each fine-level subproblem is linear: one factored solve,
            # refined; its count is the triangular solves it took
            reports = [rep for _, _, ((*_, rep),) in steps[1:]]
            assert [r.method for r in reports] == ["direct"] * len(names)
            assert [r.iterations for r in reports] == counts[-len(names):]

    def test_intermediate_states(self, params, mms):
        for alg in ALL_ALGORITHMS:
            run = run_multilevel(alg, [2, 4], 1, params, mms)
            assert run[0].intermediate is None
            inter = run[1].intermediate
            if alg == "C":
                assert inter is None
            else:
                assert inter is not None

    def test_d_keeps_intermediate_head(self, params, mms):
        run = run_multilevel("D", [2, 4], 1, params, mms)
        lv = run[1]
        assert lv.final.head is lv.intermediate.head
        assert np.abs(lv.final.velocity.coefficients
                      - lv.intermediate.velocity.coefficients).max() > 0

    def test_c_level_is_two_independent_solves(self, params, mms):
        # each C level equals a Darcy solve and an NS solve made apart from
        # each other, so the order of the two cannot change it
        run = run_multilevel("C", [2, 4, 8], 1, params, mms)
        for prev, lv in zip(run, run[1:]):
            fine = level(lv.n, 1, params, mms)
            phi, = DarcyStep(fine).solve(prev.final.velocity)
            u, p = NSStep(fine, prev.final.velocity) \
                .solve_newton(prev.final.head)
            assert np.array_equal(state_vector(lv.final),
                                  state_vector(CoupledState(u, p, phi)))

    def test_run_matches_manual_advance(self, params, mms):
        run = run_multilevel("A", [2, 4], 1, params, mms)
        coarse, _ = solve_coupled(level(2, 1, params, mms))
        sol = advance_level("A", coarse, level(4, 1, params, mms))
        assert np.abs(state_vector(run[1].final)
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
        assert [lv.n for lv in run] == [2, 4]
        assert [lv.level for lv in run] == [0, 1]

    def test_short_schedule_rejected(self, params, mms):
        with pytest.raises(ValueError):
            run_multilevel("A", [4], 1, params, mms)

    @pytest.mark.parametrize("alg,k", [
        (alg, k) for alg, names in STEP_SEQUENCES.items()
        for k in range(len(names))])
    def test_every_step_failure_is_named(self, alg, k, params, mms,
                                         monkeypatch):
        """When the k-th step of a level raises, the failure names that
        step and the level, and keeps the step's exception as its
        cause."""
        calls, boom = [], RuntimeError("boom")

        def failing(orig):
            def step(*args):
                calls.append(orig)
                if len(calls) > k:
                    raise boom
                return orig(*args)
            return step

        for owner, name in set(STEP_METHODS.values()):
            monkeypatch.setattr(owner, name, failing(getattr(owner, name)))
        state, _ = solve_coupled(level(2, 1, params, mms))
        with pytest.raises(MultilevelStepFailed) as err:
            advance_level(alg, state, level(4, 1, params, mms), index=3)
        assert len(calls) == k + 1
        assert err.value.step == STEP_SEQUENCES[alg][k]
        assert err.value.level == 3
        assert err.value.__cause__ is boom

    def test_step_failure_is_attributed(self, params, mms):
        state, _ = solve_coupled(level(2, 1, params, mms))
        broken = CoupledState(state.velocity, state.pressure, BrokenField())
        with pytest.raises(MultilevelStepFailed) as err:
            advance_level("B", broken, level(4, 1, params, mms))
        assert err.value.level == 1
        assert err.value.step == "ns_newton"
        assert isinstance(err.value.__cause__, RuntimeError)


class TestUnconvergedSolves:
    """No Krylov solve reaches linear_tol = 1e-30: the step raises rather
    than return the solution."""
    OPTS = SolveOptions(solver="iterative", linear_tol=1e-30)

    def test_ns_step_raises(self, params, mms):
        lv = level(4, 1, params, mms)
        ns = NSStep(lv, interpolate(mms.velocity, lv.spaces.velocity),
                    self.OPTS)
        with pytest.raises(sparse.NotConverged, match="gmres: 5000 "):
            ns.solve_newton(interpolate(mms.head, lv.spaces.head))

    def test_multilevel_step_fails(self, params, mms):
        coarse = level(2, 1, params, mms)
        spaces = coarse.spaces
        prev = CoupledState(*(interpolate(exact, dm) for exact, dm in zip(
            (mms.velocity, mms.pressure, mms.head), spaces)))
        with pytest.raises(MultilevelStepFailed,
                           match="level 1, step ns_newton: gmres") as err:
            advance_level("C", prev, level(4, 1, params, mms), self.OPTS)
        assert isinstance(err.value.__cause__, sparse.NotConverged)


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
        err_a = error_norms([run_a[1].final], mms)[0]
        err_b = error_norms([run_b[1].final], mms)[0]
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
            phi, = DarcyStep(lv).solve(src)
            carrier = CoupledState(
                DiscreteField(spaces.velocity,
                              np.zeros(spaces.velocity.num_coefficients)),
                DiscreteField(spaces.pressure,
                              np.zeros(spaces.pressure.ndof)),
                phi)
            errs.append(error_norms([carrier], mms)[0].get("phi", "H1"))
        rate = np.log2(errs[0] / errs[1])
        assert 0.8 <= rate <= 1.5

    def test_darcy_step_reuses_factorization(self, params, mms,
                                             direct_solves):
        lv = level(4, 1, params, mms)
        step = DarcyStep(lv)
        src = interpolate(mms.velocity, lv.spaces.velocity)
        step.solve(src)
        step.solve(src)
        assert direct_solves == [step.system.inverse] * 2

    def test_correction_with_own_state_matches_newton(self, params, mms):
        lv = level(4, 1, params, mms)
        state, _ = solve_coupled(lv)
        ns = NSStep(lv, state.velocity)
        u1, p1 = ns.solve_newton(state.head)
        u2, p2 = ns.solve_correction(state.velocity, state.head)
        assert np.abs(u1.coefficients - u2.coefficients).max() <= 1e-12
        assert np.abs(p1.coefficients - p2.coefficients).max() <= 1e-12


@pytest.fixture
def assembled(monkeypatch):
    """(weak references to the matrices that the block assembly functions
    and sp.bmat return, to the convection blocks and to the condensed fluid
    blocks, how many of them are alive at each SuperLU call)."""
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
                 "assemble_interface_coupling", "assemble_convection",
                 "convection_blocks"):
        track(forms, name)
    track(forms.MiniSaddle, "condense")
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
        # a_p; the Newton blocks and the NS matrix condensed from them
        assert len(made) == 3 and alive_at_splu == [0, 0]

    def test_ns_blocks_are_freed_before_the_elimination(
            self, assembled, params, mms, monkeypatch):
        """While the Dirichlet elimination copies the condensed NS matrix,
        the Newton blocks it was condensed from are gone (at n=128 keeping
        the blocks of the stacked matrix raised the peak RSS of Algorithm A
        by up to 40 MB)."""
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
        assert len(made) == 2 and alive == [1]

    def test_picard_keeps_only_its_stacked_blocks(self, assembled, params,
                                                  mms):
        """Of the blocks, the matrix they were stacked into once and the
        convection operator, none is alive when the first iterate factors:
        the system keeps only the eliminated entries on its fixed
        pattern."""
        solve_coupled(level(4, 1, params, mms))
        made, alive_at_splu = assembled
        assert len(made) > 5 and alive_at_splu == [0]

    @pytest.mark.parametrize("order", [1, 2])
    def test_ns_saddle_set_up_is_freed_before_factoring(
            self, order, params, mms, monkeypatch):
        """No MiniSaddle and no CellPattern made to pose the NS saddle is
        alive when its factor is built, which sets the step's peak memory:
        fluid_saddle's `about` holds them, and goes before the System."""
        lv = level(4, order, params, mms)
        state, _ = solve_coupled(lv)
        made, alive = [], []
        orig_splu = sparse.spla.splu
        for name in ("mini_saddle", "cell_pattern"):
            build = getattr(forms, name)

            def tracked(*args, build=build, **kwargs):
                out = build(*args, **kwargs)
                made.append(weakref.ref(out))
                return out
            monkeypatch.setattr(forms, name, tracked)

        def splu(A, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in made))
            return orig_splu(A, *args, **kwargs)

        monkeypatch.setattr(sparse.spla, "splu", splu)
        NSStep(lv, state.velocity)
        assert made and alive == [0]


class TestCoarseStateEvaluation:
    def test_one_level_evaluates_its_coarse_state_once(self, params, mms,
                                                       monkeypatch):
        """The Newton matrix and the correction load share one evaluation
        of the coarse velocity at the fine quadrature points. It locates
        the points of one period of the two grids, p = n_f / gcd(n_c, n_f)
        fine squares a side, and evaluates no point one by one: for a
        nested pair and for one that does not nest."""
        calls = []

        def count(owner, name, is_coarse):
            orig = getattr(owner, name)

            def counted(obj, pts, *args, **kwargs):
                if is_coarse(obj):
                    calls.append((name, len(pts)))
                return orig(obj, pts, *args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        a = None   # the coarse velocity of the pair at hand
        count(DiscreteField, "eval_many", lambda f: f is a)
        count(DiscreteField, "eval_grad_many", lambda f: f is a)
        count(TriMesh, "locate_many", lambda m: m is a.dofmap.mesh)
        for coarse_n, fine_n in ((2, 4), (4, 6)):
            a = solve_coupled(level(coarse_n, 1, params, mms))[0].velocity
            calls.clear()
            lv = level(fine_n, 1, params, mms)
            ns = NSStep(lv, a)
            head = interpolate(mms.head, lv.spaces.head)
            u_star, _ = ns.solve_newton(head)
            ns.solve_correction(u_star, head)
            p = fine_n // np.gcd(coarse_n, fine_n)
            nq = len(forms.cell_rule(lv.spaces.velocity).weights)
            assert calls == [("locate_many", p * p * 2 * nq)]


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
    """(K, b, x, report) of every solve, once each: every GMRES solve,
    such as one on a refilled K that fails and is not reported, and every
    System.solve whose report is not the last one recorded."""
    calls = []
    orig_solve, orig_gmres = System.solve, sparse.gmres

    def solve(self, b):
        x, rep = orig_solve(self, b)
        if not calls or calls[-1][3] is not rep:
            calls.append((self.K, b, x, rep))
        return x, rep

    def gmres(A, b, *args, **kwargs):
        x, rep = orig_gmres(A, b, *args, **kwargs)
        calls.append((A, b, x, rep))
        return x, rep

    monkeypatch.setattr(System, "solve", solve)
    monkeypatch.setattr(sparse, "gmres", gmres)
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
        darcy.solve(state.velocity)
        u, _ = ns.solve_newton(state.head)
        ns.solve_correction(u, state.head)
        assert [K for K, *_ in solves] == [darcy.system.K] + [ns.system.K] * 2
        reports = [rep for *_, rep in solves]
        expected = (["direct"] * 3 if solver == "direct"
                    else ["pcg", "gmres", "gmres"])
        assert [r.method for r in reports] == expected
        assert all(r.converged for r in reports)
        assert_true_residuals(reports, solves)

    def test_picard_reports(self, solver, solves, params, mms):
        """One converged solve per iterate: no frozen GMRES fails here."""
        _, report = solve_coupled(level(8, 1, params, mms),
                                  SolveOptions(solver=solver))
        reports = [rep for *_, rep in solves]
        assert len(reports) == report.iterations >= 3
        assert all(r.converged for r in reports)
        if solver == "direct":
            # the first iterate factors, the later ones reuse that factor
            assert reports[0].method == "direct"
            assert {r.method for r in reports[1:]} == {"gmres"}
        assert_true_residuals(reports, solves)


@pytest.fixture
def linear_solvers(monkeypatch):
    """Every solver a System.factor call built, in order."""
    built, orig = [], System.factor

    def factor(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        built.append(self.inverse)

    monkeypatch.setattr(System, "factor", factor)
    return built


class TestFrozenSolverRebuild:
    """At these viscosities GMRES on the first iterate's factor or
    preconditioner fails its budget of 100 iterations at the second
    iterate, and Picard builds a second one, which serves to the end."""

    @pytest.mark.parametrize("solver,nu,iterations,first", [
        ("direct", 3e-3, 18, "direct"), ("iterative", 1e-2, 14, "gmres")])
    def test_second_iterate_rebuilds(self, solver, nu, iterations, first,
                                     solves, linear_solvers):
        params = forms.ModelParams(nu=nu)
        _, report = solve_coupled(
            level(8, 1, params, manufactured_problem(params)),
            SolveOptions(solver=solver))
        assert report.converged and report.iterations == iterations
        assert len(linear_solvers) == 2
        # the fresh solve, the failed frozen one, the rebuilt solver's and
        # one frozen solve per later iterate: Picard's solves less the
        # failed one
        failed = solves[1][3]
        assert (failed.method, failed.converged, failed.iterations) == \
            ("gmres", False, 100)
        reports = [rep for *_, rep in solves[:1] + solves[2:]]
        assert [r.method for r in reports] == \
            [first] * 2 + ["gmres"] * (iterations - 2)
        assert all(r.converged for r in reports)
        assert_true_residuals(reports, solves)


@pytest.fixture
def superlu_inputs(monkeypatch):
    """(K that System.factor gives its DirectFactor, matrix given to
    SuperLU, points given to the DirectFactor, the DirectFactor) of every
    direct factorization."""
    found, given = [], []
    orig_init, orig_splu = sparse.DirectFactor.__init__, sparse.spla.splu

    def init(self, K, points, **kwargs):
        given.append((K, points))
        orig_init(self, K, points, **kwargs)
        found[-1] += (self,)

    def splu(A, *args, **kwargs):
        found.append((given[-1][0], A, given[-1][1]))
        return orig_splu(A, *args, **kwargs)

    monkeypatch.setattr(sparse.DirectFactor, "__init__", init)
    monkeypatch.setattr(sparse.spla, "splu", splu)
    return found


class TestBubbleCondensation:
    def test_mini_factors_exclude_the_bubbles(self, superlu_inputs, solves,
                                              params, mms):
        """Picard's first iterate and the NS step are posed without the
        bubbles: System.factor gets them condensed, and SuperLU that matrix,
        less its explicit zeros."""
        lv = level(8, 1, params, mms)
        state, _ = solve_coupled(lv)
        ns = NSStep(lv, state.velocity)
        bubbles = 2 * lv.mesh.fluid.num_cells
        dv, dq, dphi = lv.spaces
        sizes = (grid_points(dv, dq, dphi), grid_points(dv, dq))
        assert len(superlu_inputs) == 2   # Picard's first iterate, NS step
        for (K, A, points, _), full in zip(superlu_inputs, sizes):
            assert A.shape == K.shape == (len(full) - bubbles,) * 2
            assert len(points) == K.shape[0]
        assert ns.system.inverse._lu.shape == ns.system.K.shape
        solves.clear()
        u, _ = ns.solve_newton(state.head)
        (K, b, x, rep), = solves
        assert K.shape == ns.system.K.shape and x.shape == b.shape
        assert u.coefficients.shape == (2 * dv.ndof,)
        assert_true_residuals([rep], solves)

    def test_taylor_hood_and_darcy_factor_the_given_matrix(
            self, superlu_inputs, params, mms):
        """Not condensed: SuperLU gets K itself, less the explicit zeros of
        Picard's fixed pattern, in the nested-dissection order of the dof
        maps' grid points in stacking order, with the zero diagonals of the
        Taylor-Hood pressure last in each leaf and separator; Picard's in
        float64, the NS and Darcy steps' cast to float32."""
        th, mini = level(4, 2, params, mms), level(4, 1, params, mms)
        state, _ = solve_coupled(th)
        dv, dq, dphi = th.spaces
        NSStep(th, state.velocity)
        DarcyStep(mini)
        sites = [grid_points(dv, dq, dphi), grid_points(dv, dq),
                 grid_points(mini.spaces.head)]
        assert len(superlu_inputs) == 3
        dtypes = (np.float64, np.float32, np.float32)
        for (K, A, points, factor), expect, dtype in zip(superlu_inputs,
                                                          sites, dtypes):
            assert np.array_equal(points, expect)
            p = factor._iidx
            assert np.array_equal(p, sparse.nested_dissection(
                points, K.diagonal() == 0))
            K = K[p][:, p].tocsc()
            K.eliminate_zeros()
            assert A.shape == K.shape and A.dtype == dtype
            K.data = K.data.astype(dtype)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(A, attr), getattr(K, attr))
