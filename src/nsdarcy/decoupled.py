"""Fine-level decoupled steps and the multilevel Algorithms A, B, C, D.

Level 0 is always the monolithic Picard solve on the coarsest mesh. Each
finer level solves only linear, decoupled subproblems, with every piece of
cross-level data (linearization states, interface traces) taken from the
previous level's final state by point evaluation at the fine quadrature
points. Per level and algorithm, in order:

    A:  Darcy(u_prev) -> NS(head=phi*) -> Darcy(u*) -> NS-corr(head=phi_h)
    B:  NS(head=phi_prev) -> Darcy(u*) -> NS-corr(head=phi*) -> Darcy(u_h)
    C:  NS(head=phi_prev) and Darcy(u_prev), independent of each other
    D:  Darcy(u_prev) -> NS(head=phi*) -> NS-corr(head=phi*); head stays phi*

"NS" is one Newton step about the previous level's velocity (matrix
a_f + c(a,.,.) + c(.,a,.), load + c(a,a,.)); the correction re-solves with
the load c(a,s,.) + c(s,a-s,.) built from the intermediate s. Within one
level the Darcy matrix and the NS saddle matrix each get one
`sparse.LinearSolver` (one LU factor, or one preconditioner), shared by
their two solves; every step returns its `SolveReport` with the true
residual.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import forms
from .coupled import (CoupledState, Level, SolveOptions, System, build_level,
                      solve_coupled)
from .fem import DiscreteField
from .mesh import build_coupled_mesh


class AlgorithmId(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"


class MultilevelStepFailed(Exception):
    def __init__(self, level: int, step: str, cause: Exception):
        super().__init__(f"level {level}, step {step}: {cause}")
        self.level = level
        self.step = step


@dataclass(eq=False)
class LevelSolution:
    level: int
    n: int
    intermediate: CoupledState | None
    final: CoupledState


@dataclass(eq=False)
class MultilevelRun:
    algorithm: AlgorithmId
    schedule: list
    order: int
    levels: list = field(default_factory=list)
    solve_log: list = field(default_factory=list)   # (level, step, method, its)
    timings: list = field(default_factory=list)     # seconds per level


class DarcyStep:
    """Porous subproblem a_p(phi, psi) = rho g (f_p, psi)
    + rho g (psi, u_src . n_f)_Gamma with outer Dirichlet data; the matrix is
    assembled and its solver set up once, each solve supplies a new velocity
    source."""

    def __init__(self, level: Level, opts: SolveOptions = SolveOptions()):
        self.level = level
        self.system = System(level, ("head",), forms.assemble_ap(
            level.spaces.head, level.params))
        self.linear = self.system.solver(opts)

    def solve(self, velocity_source: DiscreteField):
        x, rep = self.linear.solve(self.system.rhs(
            self.level.porous_load + forms.assemble_interface_load_darcy(
                self.level.spaces.head, velocity_source, self.level.params)))
        return (*self.system.split(x), rep)


class NSStep:
    """Linearized free-flow subproblem about a fixed state a: the saddle
    matrix [a_f + c(a,.,.) + c(.,a,.), B^T; B, 0] gets one solver; the two
    right sides differ in the convection load and the interface head. The
    state a is evaluated once, at the fine quadrature points, and serves
    both the Newton matrix and the correction load."""

    def __init__(self, level: Level, linearization_state: DiscreteField,
                 opts: SolveOptions = SolveOptions()):
        self.level = level
        dv, dq, _ = level.spaces
        self.a = forms.quad_state(linearization_state, forms.cell_rule(dv))

        N, self.newton_load = forms.assemble_convection(
            self.a, forms.ConvectionMode.NEWTON, level.params)
        B = forms.assemble_b(dv, dq)
        K = sp.bmat([[forms.assemble_af(dv, level.params) + N, B.T],
                     [B, None]], format="csr")
        del N, B   # only the constrained matrix outlives the set-up
        self.system = System(level, ("velocity", "pressure"), K)
        del K
        self.linear = self.system.solver(opts)

    def _solve(self, load: np.ndarray, head_source: DiscreteField):
        level = self.level
        x, rep = self.linear.solve(self.system.rhs(
            level.fluid_load + load + forms.assemble_interface_load_ns(
                level.spaces.velocity, head_source, level.params), None))
        return (*self.system.split(x), rep)

    def solve_newton(self, head_source: DiscreteField):
        return self._solve(self.newton_load, head_source)

    def solve_correction(self, intermediate: DiscreteField,
                         head_source: DiscreteField):
        return self._solve(forms.assemble_correction_load(
            self.a, intermediate, self.level.params), head_source)


def advance_level(algorithm: AlgorithmId, prev: CoupledState, level: Level,
                  opts: SolveOptions = SolveOptions(), index: int = 1,
                  log: list | None = None) -> LevelSolution:
    """Level number `index` of the chosen algorithm, from the previous
    level's final state; the single-level kernel behind run_multilevel."""
    algorithm = AlgorithmId(algorithm)
    log = log if log is not None else []

    def run(step_name, fn, *args):
        try:
            *fields, rep = fn(*args)
        except Exception as exc:
            raise MultilevelStepFailed(index, step_name, exc) from exc
        log.append((index, step_name, rep.method, rep.iterations))
        return fields

    darcy = DarcyStep(level, opts)
    ns = NSStep(level, prev.velocity, opts)

    if algorithm is AlgorithmId.A:
        phi_star, = run("darcy", darcy.solve, prev.velocity)
        u_star, p_star = run("ns_newton", ns.solve_newton, phi_star)
        phi_h, = run("darcy_correct", darcy.solve, u_star)
        u_h, p_h = run("ns_correct", ns.solve_correction, u_star, phi_h)
        inter = CoupledState(u_star, p_star, phi_star)
        final = CoupledState(u_h, p_h, phi_h)
    elif algorithm is AlgorithmId.B:
        u_star, p_star = run("ns_newton", ns.solve_newton, prev.head)
        phi_star, = run("darcy", darcy.solve, u_star)
        u_h, p_h = run("ns_correct", ns.solve_correction, u_star, phi_star)
        phi_h, = run("darcy_correct", darcy.solve, u_h)
        inter = CoupledState(u_star, p_star, phi_star)
        final = CoupledState(u_h, p_h, phi_h)
    elif algorithm is AlgorithmId.C:
        # one-shot, no corrections; the two solves share no data, so
        # their order does not matter
        u_h, p_h = run("ns_newton", ns.solve_newton, prev.head)
        phi_h, = run("darcy", darcy.solve, prev.velocity)
        inter = None
        final = CoupledState(u_h, p_h, phi_h)
    else:  # D; AlgorithmId() has rejected anything else
        phi_star, = run("darcy", darcy.solve, prev.velocity)
        u_star, p_star = run("ns_newton", ns.solve_newton, phi_star)
        u_h, p_h = run("ns_correct", ns.solve_correction, u_star, phi_star)
        inter = CoupledState(u_star, p_star, phi_star)
        final = CoupledState(u_h, p_h, phi_star)  # head stays uncorrected
    return LevelSolution(level=index, n=level.mesh.n,
                         intermediate=inter, final=final)


def run_multilevel(algorithm, schedule, order: int,
                   params: forms.ModelParams, mms,
                   opts: SolveOptions = SolveOptions()) -> MultilevelRun:
    """Coarse coupled solve on the first schedule entry, then one decoupled
    pass of the chosen algorithm per finer level."""
    algorithm = AlgorithmId(algorithm)
    subs = list(schedule)
    if len(subs) < 2:
        raise ValueError("schedule needs a coarse level and at least one "
                         "fine level")
    run = MultilevelRun(algorithm=algorithm, schedule=subs, order=order)

    def level(n):
        return build_level(build_coupled_mesh(n), order, params, mms)

    t0 = time.perf_counter()
    state, rep = solve_coupled(level(subs[0]), opts)
    run.levels.append(LevelSolution(0, subs[0], None, state))
    run.solve_log.append((0, "coupled", "picard", rep.iterations))
    run.timings.append(time.perf_counter() - t0)

    prev = state
    for index, n in enumerate(subs[1:], start=1):
        t0 = time.perf_counter()
        sol = advance_level(algorithm, prev, level(n), opts, index,
                            run.solve_log)
        run.levels.append(sol)
        run.timings.append(time.perf_counter() - t0)
        prev = sol.final
    return run
