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
from .coupled import CoupledState, build_spaces, solve_coupled
from .fem import DiscreteField, DofMap, cell_bubbles, interpolate
from .mesh import CoupledMesh, build_coupled_mesh
from .mms import error_norms
from .sparse import (BlockTriangularPreconditioner, LinearSolver,
                     constrain_dirichlet, ichol)


class AlgorithmId(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"


class MeshMismatch(Exception):
    pass


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

    @property
    def final_states(self) -> list:
        return [lv.final for lv in self.levels]


def _pin(load: np.ndarray, lift: np.ndarray, dofs: np.ndarray,
         values: np.ndarray) -> np.ndarray:
    """constrain_rhs(A, load, dofs, values) from the stored lift -A x0,
    which is constrain_rhs of a zero load: load + (-A x0) equals
    load - A x0 bitwise, so A need not be kept."""
    out = load + lift
    out[dofs] = values
    return out


class DarcyStep:
    """Porous subproblem a_p(phi, psi) = rho g (f_p, psi)
    + rho g (psi, u_src . n_f)_Gamma with outer Dirichlet data; the matrix is
    assembled and its solver set up once, each solve supplies a new velocity
    source."""

    def __init__(self, dofmap_phi: DofMap, params: forms.ModelParams, mms,
                 solver: str = "direct", linear_tol: float = 1e-9,
                 droptol: float = 1e-3):
        self.dofmap = dofmap_phi
        self.params = params
        rho_g = params.rho * params.gravity
        self.volume = forms.assemble_volume_load(dofmap_phi, mms.f_porous,
                                                 weight=rho_g)
        self.bc_dofs = dofmap_phi.dirichlet_dofs
        self.bc_values = interpolate(mms.head, dofmap_phi) \
            .coefficients[self.bc_dofs]
        K, self.lift = constrain_dirichlet(
            forms.assemble_ap(dofmap_phi, params), np.zeros(dofmap_phi.ndof),
            self.bc_dofs, self.bc_values)
        self.linear = LinearSolver(K, solver, linear_tol,
                                   lambda K: ichol(K, droptol),
                                   symmetric=True)

    def solve(self, velocity_source: DiscreteField):
        rhs = self.volume + forms.assemble_interface_load_darcy(
            self.dofmap, velocity_source, self.params)
        x, rep = self.linear.solve(
            _pin(rhs, self.lift, self.bc_dofs, self.bc_values))
        return DiscreteField(self.dofmap, x), rep


class NSStep:
    """Linearized free-flow subproblem about a fixed state a: the saddle
    matrix [a_f + c(a,.,.) + c(.,a,.), B^T; B, 0] gets one solver; the two
    right sides differ in the convection load and the interface head."""

    def __init__(self, dofmap_v: DofMap, dofmap_q: DofMap,
                 params: forms.ModelParams, mms,
                 linearization_state: DiscreteField, solver: str = "direct",
                 linear_tol: float = 1e-9, droptol: float = 1e-3):
        self.dv = dofmap_v
        self.dq = dofmap_q
        self.params = params
        self.a = linearization_state

        N, self.newton_load = forms.assemble_convection(
            dofmap_v, linearization_state, forms.ConvectionMode.NEWTON, params)
        B = forms.assemble_b(dofmap_v, dofmap_q)
        K = sp.bmat([[forms.assemble_af(dofmap_v, params) + N, B.T],
                     [B, None]], format="csr")
        del N, B   # only the constrained matrix outlives the set-up
        self.volume = forms.assemble_volume_load(dofmap_v, mms.f_fluid)
        nv = dofmap_v.ndof
        vd = dofmap_v.dirichlet_dofs
        vel = interpolate(mms.velocity, dofmap_v)
        self.bc_dofs = np.concatenate([vd, vd + nv])
        self.bc_values = np.concatenate([vel.coefficients[vd],
                                         vel.coefficients[vd + nv]])
        K, self.lift = constrain_dirichlet(K, np.zeros(K.shape[0]),
                                           self.bc_dofs, self.bc_values)
        self.linear = LinearSolver(
            K, solver, linear_tol,
            lambda K: BlockTriangularPreconditioner(
                K, 2 * nv, dofmap_q.ndof,
                forms.assemble_mass(dofmap_q).diagonal(), params.nu,
                droptol=droptol),
            local=cell_bubbles(dofmap_v))

    def _solve(self, rhs_v: np.ndarray):
        rhs = np.concatenate([rhs_v, np.zeros(self.dq.ndof)])
        x, rep = self.linear.solve(
            _pin(rhs, self.lift, self.bc_dofs, self.bc_values))
        nv2 = 2 * self.dv.ndof
        return (DiscreteField(self.dv, x[:nv2].copy()),
                DiscreteField(self.dq, x[nv2:].copy()), rep)

    def solve_newton(self, head_source: DiscreteField):
        rhs_v = (self.volume + self.newton_load
                 + forms.assemble_interface_load_ns(self.dv, head_source,
                                                    self.params))
        return self._solve(rhs_v)

    def solve_correction(self, intermediate: DiscreteField,
                         head_source: DiscreteField):
        corr = forms.assemble_correction_load(self.dv, self.a, intermediate,
                                              self.params)
        rhs_v = (self.volume + corr
                 + forms.assemble_interface_load_ns(self.dv, head_source,
                                                    self.params))
        return self._solve(rhs_v)


def advance_level(algorithm: AlgorithmId, prev: CoupledState,
                  coupled_mesh: CoupledMesh, order: int,
                  params: forms.ModelParams, mms, solver: str = "direct",
                  linear_tol: float = 1e-9, droptol: float = 1e-3,
                  c_order: str = "ns_first", level: int = 1,
                  log: list | None = None) -> LevelSolution:
    """One fine level of the chosen algorithm from the previous level's
    final state; the single-level kernel behind run_multilevel."""
    algorithm = AlgorithmId(algorithm)
    spaces = build_spaces(coupled_mesh, order)
    opts = dict(solver=solver, linear_tol=linear_tol, droptol=droptol)
    log = log if log is not None else []

    def run(step_name, fn, *args):
        try:
            out = fn(*args)
        except Exception as exc:
            raise MultilevelStepFailed(level, step_name, exc) from exc
        rep = out[-1]
        log.append((level, step_name, rep.method, rep.iterations))
        return out[:-1] if len(out) > 2 else out[0]

    darcy = DarcyStep(spaces.head, params, mms, **opts)
    ns = NSStep(spaces.velocity, spaces.pressure, params, mms,
                prev.velocity, **opts)

    if algorithm is AlgorithmId.A:
        phi_star = run("darcy", darcy.solve, prev.velocity)
        u_star, p_star = run("ns_newton", ns.solve_newton, phi_star)
        phi_h = run("darcy_correct", darcy.solve, u_star)
        u_h, p_h = run("ns_correct", ns.solve_correction, u_star, phi_h)
        inter = CoupledState(u_star, p_star, phi_star)
        final = CoupledState(u_h, p_h, phi_h)
    elif algorithm is AlgorithmId.B:
        u_star, p_star = run("ns_newton", ns.solve_newton, prev.head)
        phi_star = run("darcy", darcy.solve, u_star)
        u_h, p_h = run("ns_correct", ns.solve_correction, u_star, phi_star)
        phi_h = run("darcy_correct", darcy.solve, u_h)
        inter = CoupledState(u_star, p_star, phi_star)
        final = CoupledState(u_h, p_h, phi_h)
    elif algorithm is AlgorithmId.C:
        # one-shot, no corrections; the two solves share no data
        if c_order == "ns_first":
            u_h, p_h = run("ns_newton", ns.solve_newton, prev.head)
            phi_h = run("darcy", darcy.solve, prev.velocity)
        else:
            phi_h = run("darcy", darcy.solve, prev.velocity)
            u_h, p_h = run("ns_newton", ns.solve_newton, prev.head)
        inter = None
        final = CoupledState(u_h, p_h, phi_h)
    elif algorithm is AlgorithmId.D:
        phi_star = run("darcy", darcy.solve, prev.velocity)
        u_star, p_star = run("ns_newton", ns.solve_newton, phi_star)
        u_h, p_h = run("ns_correct", ns.solve_correction, u_star, phi_star)
        inter = CoupledState(u_star, p_star, phi_star)
        final = CoupledState(u_h, p_h, phi_star)  # head stays uncorrected
    else:
        raise ValueError(f"unknown algorithm {algorithm}")
    return LevelSolution(level=level, n=coupled_mesh.n,
                         intermediate=inter, final=final)


def run_multilevel(algorithm, schedule, order: int,
                   params: forms.ModelParams, mms, solver: str = "direct",
                   linear_tol: float = 1e-9, droptol: float = 1e-3,
                   picard_tol: float = 1e-7,
                   c_order: str = "ns_first") -> MultilevelRun:
    """Coarse coupled solve on the first schedule entry, then one decoupled
    pass of the chosen algorithm per finer level."""
    algorithm = AlgorithmId(algorithm)
    subs = list(schedule)
    if len(subs) < 2:
        raise ValueError("schedule needs a coarse level and at least one "
                         "fine level")
    run = MultilevelRun(algorithm=algorithm, schedule=subs, order=order)

    t0 = time.perf_counter()
    cmesh = build_coupled_mesh(subs[0])
    state, rep = solve_coupled(cmesh, order, params, mms, solver=solver,
                               picard_tol=picard_tol, linear_tol=linear_tol,
                               droptol=droptol)
    run.levels.append(LevelSolution(0, subs[0], None, state))
    run.solve_log.append((0, "coupled", "picard", rep.iterations))
    run.timings.append(time.perf_counter() - t0)

    prev = state
    for level, n in enumerate(subs[1:], start=1):
        t0 = time.perf_counter()
        sol = advance_level(algorithm, prev, build_coupled_mesh(n), order,
                            params, mms, solver=solver,
                            linear_tol=linear_tol, droptol=droptol,
                            c_order=c_order, level=level, log=run.solve_log)
        run.levels.append(sol)
        run.timings.append(time.perf_counter() - t0)
        prev = sol.final
    return run


def compare_runs(run: MultilevelRun, reference: list, mms,
                 quad_degree: int = 8) -> list:
    """Per-level error ratios (multilevel final / coupled reference) for each
    reported variable and norm; reference states must sit on the same meshes
    in schedule order."""
    if len(reference) != len(run.levels):
        raise MeshMismatch(f"{len(run.levels)} levels vs "
                           f"{len(reference)} reference states")
    out = []
    for lv, ref in zip(run.levels, reference):
        if ref.n != lv.n:
            raise MeshMismatch(f"level {lv.level}: n={lv.n} vs "
                               f"reference n={ref.n}")
        if ref.velocity.dofmap.family.tag != lv.final.velocity.dofmap.family.tag:
            raise MeshMismatch(f"level {lv.level}: element families differ")
        e_run = error_norms(lv.final, mms, quad_degree)
        e_ref = error_norms(ref, mms, quad_degree)
        out.append({k: e_run.errors[k] / e_ref.errors[k]
                    for k in e_run.errors})
    return out
