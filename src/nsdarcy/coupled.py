"""Monolithic Picard solve of the coupled nonlinear problem.

Each iteration assembles the block system

    [ A_f + N1(u^m)   B^T   C_vphi ] [u]   [f_f]
    [      B           0      0    ] [p] = [ 0 ]
    [   C_phiu         0     A_p   ] [phi] [f_p]

with N1 the fixed-point convection operator, eliminates the outer Dirichlet
dofs symmetrically, and solves. The iteration starts from zero and stops when
the l2 norm of the full coefficient update (velocity, pressure, and head
together) drops below picard_tol.

Used standalone for reference errors and as the coarse-level solve of all
multilevel algorithms. No pressure pinning is needed: the interface coupling
acts as a natural condition fixing the pressure level.

Every solve on a mesh poses its system from that mesh's `Level`, built once
by `build_level`; the solver settings travel as one `SolveOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import forms
from .fem import (MINI_VELOCITY, P1, P2, P2_VELOCITY, DiscreteField, DofMap,
                  build_dofmap, cell_bubbles, dirichlet_trace, grid_points)
from .mesh import CoupledMesh
from .sparse import (BlockTriangularPreconditioner, LinearSolver,
                     constrain_dirichlet, gmres, pin, true_residual)

PICARD_MAXIT = 50   # iterations before solve_coupled gives up


@dataclass(eq=False)
class CoupledState:
    velocity: DiscreteField
    pressure: DiscreteField
    head: DiscreteField

    @property
    def n(self) -> int:
        return self.velocity.dofmap.mesh.n


@dataclass
class PicardReport:
    iterations: int
    update_norms: list = field(default_factory=list)
    solver_reports: list = field(default_factory=list)
    converged: bool = False


class PicardDiverged(Exception):
    def __init__(self, msg: str, report: PicardReport):
        super().__init__(msg)
        self.report = report


@dataclass(frozen=True)
class SolveOptions:
    """Settings of every solve in a study: "direct" or "iterative" linear
    solves, the Krylov tolerance, ichol's drop tolerance and the Picard
    update tolerance."""
    solver: str = "direct"
    linear_tol: float = 1e-9
    droptol: float = 1e-3
    picard_tol: float = 1e-7


class Spaces(NamedTuple):
    velocity: DofMap
    pressure: DofMap
    head: DofMap


# (velocity, pressure, head) element families per order: Mini/P1/P1 for
# order 1, Taylor-Hood P2/P1 with a P2 head for order 2
FAMILIES = {1: (MINI_VELOCITY, P1, P1), 2: (P2_VELOCITY, P1, P2)}


def build_spaces(coupled_mesh: CoupledMesh, order: int) -> Spaces:
    if order not in FAMILIES:
        raise ValueError(f"order must be 1 or 2, got {order}")
    vfam, qfam, hfam = FAMILIES[order]
    return Spaces(velocity=build_dofmap(coupled_mesh.fluid, vfam),
                  pressure=build_dofmap(coupled_mesh.fluid, qfam),
                  head=build_dofmap(coupled_mesh.porous, hfam))


@dataclass(eq=False)
class Level:
    """What every solve on one mesh shares: the spaces, the volume loads
    (f_f, v) and rho g (f_p, psi), and the outer Dirichlet traces of
    velocity and head as fem.dirichlet_trace gives them."""
    mesh: CoupledMesh
    spaces: Spaces
    params: forms.ModelParams
    fluid_load: np.ndarray
    porous_load: np.ndarray
    velocity_trace: tuple
    head_trace: tuple

    def monolithic_trace(self) -> tuple[np.ndarray, np.ndarray]:
        """Both traces with ids in the [u, p, phi] system."""
        (vdofs, vvals), (hdofs, hvals) = self.velocity_trace, self.head_trace
        off_phi = self.spaces.velocity.num_coefficients \
            + self.spaces.pressure.ndof
        return (np.concatenate([vdofs, hdofs + off_phi]),
                np.concatenate([vvals, hvals]))


def build_level(coupled_mesh: CoupledMesh, order: int,
                params: forms.ModelParams, mms) -> Level:
    spaces = build_spaces(coupled_mesh, order)
    dv, _, dphi = spaces
    return Level(
        coupled_mesh, spaces, params,
        fluid_load=forms.assemble_volume_load(dv, mms.f_fluid),
        porous_load=forms.assemble_volume_load(
            dphi, mms.f_porous, weight=params.rho * params.gravity),
        velocity_trace=dirichlet_trace(dv, mms.velocity),
        head_trace=dirichlet_trace(dphi, mms.head))


def saddle_preconditioner(level: Level, droptol: float):
    """precondition(K) for a LinearSolver on a velocity-pressure(-head)
    saddle matrix K of the level, nphi from its shape; the pressure-mass
    diagonal is assembled on the first call and reused (direct solves never
    call it)."""
    dv, dq, _ = level.spaces
    mass_diag = None

    def precondition(K):
        nonlocal mass_diag
        if mass_diag is None:
            mass_diag = forms.assemble_mass(dq).diagonal()
        nu_ = dv.num_coefficients
        return BlockTriangularPreconditioner(
            K, nu_, dq.ndof, mass_diag, level.params.nu,
            nphi=K.shape[0] - nu_ - dq.ndof, droptol=droptol)
    return precondition


def split_state(spaces: Spaces, x: np.ndarray) -> CoupledState:
    dv, dq, dphi = spaces
    nv, nq = dv.ndof, dq.ndof
    return CoupledState(
        velocity=DiscreteField(dv, x[:2 * nv].copy()),
        pressure=DiscreteField(dq, x[2 * nv:2 * nv + nq].copy()),
        head=DiscreteField(dphi, x[2 * nv + nq:].copy()))


def solve_coupled(level: Level, opts: SolveOptions = SolveOptions()):
    """Returns (CoupledState, PicardReport); raises PicardDiverged when the
    update norm grows three times in a row or PICARD_MAXIT iterations pass
    without convergence."""
    dv, dq, dphi = level.spaces
    params = level.params
    nv = dv.ndof

    # the blocks that do not change, stacked once: each iteration adds N1
    # to K0, and only K0 is kept
    B = forms.assemble_b(dv, dq)
    C_vphi, C_phiu = forms.assemble_interface_coupling(level.mesh, dv, dphi,
                                                       params)
    K0 = sp.bmat([[forms.assemble_af(dv, params), B.T, C_vphi],
                  [B, None, None],
                  [C_phiu, None, forms.assemble_ap(dphi, params)]],
                 format="csr")
    del B, C_vphi, C_phiu
    rhs0 = np.concatenate([level.fluid_load, np.zeros(dq.ndof),
                           level.porous_load])
    bc_dofs, bc_values = level.monolithic_trace()
    zeros = np.zeros_like(rhs0)
    precondition = saddle_preconditioner(level, opts.droptol)
    bubbles, points = cell_bubbles(dv), grid_points(dv, dq, dphi)
    rule = forms.cell_rule(dv)
    report = PicardReport(iterations=0)
    x_prev = np.zeros_like(rhs0)
    growth = 0
    frozen = None
    for m in range(1, PICARD_MAXIT + 1):
        u_field = DiscreteField(dv, x_prev[:2 * nv])
        N1, _ = forms.assemble_convection(
            forms.quad_state(u_field, rule, grads=False),
            forms.ConvectionMode.PLAIN, params)
        N1.resize(K0.shape)
        K2, lift = constrain_dirichlet(K0 + N1, zeros, bc_dofs, bc_values)
        del N1
        rhs2 = pin(rhs0, lift, bc_dofs, bc_values)
        if frozen is not None:
            # one factorization serves the whole iteration: later systems
            # differ only by the convection update, so the frozen factor is
            # an excellent Krylov preconditioner; refactor if it degrades
            x, rep = gmres(K2, rhs2, frozen, tol=opts.linear_tol, maxit=100)
            rep.final_residual = true_residual(K2, rhs2, x)
        if frozen is None or not rep.converged:
            linear = LinearSolver(K2, opts.solver, opts.linear_tol,
                                  precondition, local=bubbles, points=points)
            x, rep = linear.solve(rhs2)
            frozen = linear.factor  # None on iterative runs
            del linear  # later iterates need the factor, not its matrix
        report.solver_reports.append(rep)

        delta = float(np.linalg.norm(x - x_prev))
        report.iterations = m
        report.update_norms.append(delta)
        if delta < opts.picard_tol:
            report.converged = True
            return split_state(level.spaces, x), report
        if m > 1 and delta > report.update_norms[-2]:
            growth += 1
            if growth >= 3:
                raise PicardDiverged(
                    f"update norm grew 3 consecutive iterations "
                    f"(last {delta:.3e})", report)
        else:
            growth = 0
        x_prev = x
    raise PicardDiverged(f"no convergence in {PICARD_MAXIT} iterations "
                         f"(last update {report.update_norms[-1]:.3e})",
                         report)
