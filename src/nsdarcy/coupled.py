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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import forms
from .fem import (MINI_VELOCITY, P1, P2, P2_VELOCITY, DiscreteField, DofMap,
                  build_dofmap, cell_bubbles, interpolate)
from .mesh import CoupledMesh
from .sparse import (BlockTriangularPreconditioner, LinearSolver,
                     constrain_matrix, constrain_rhs, gmres, true_residual)


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


class Spaces(NamedTuple):
    velocity: DofMap
    pressure: DofMap
    head: DofMap


def build_spaces(coupled_mesh: CoupledMesh, order: int) -> Spaces:
    """Mini/P1/P1 for order 1, Taylor-Hood P2/P1 with P2 head for order 2."""
    if order == 1:
        vfam, hfam = MINI_VELOCITY, P1
    elif order == 2:
        vfam, hfam = P2_VELOCITY, P2
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    return Spaces(velocity=build_dofmap(coupled_mesh.fluid, vfam),
                  pressure=build_dofmap(coupled_mesh.fluid, P1),
                  head=build_dofmap(coupled_mesh.porous, hfam))


def dirichlet_data(spaces: Spaces, mms) -> tuple[np.ndarray, np.ndarray]:
    """Monolithic dof ids and exact-trace values on the outer boundaries;
    interface dofs stay free (they carry the natural conditions)."""
    dv, dq, dphi = spaces
    nv = dv.ndof
    vel = interpolate(mms.velocity, dv)
    head = interpolate(mms.head, dphi)
    vdofs = dv.dirichlet_dofs
    pdofs = dphi.dirichlet_dofs
    off_phi = 2 * nv + dq.ndof
    dofs = np.concatenate([vdofs, vdofs + nv, pdofs + off_phi])
    values = np.concatenate([vel.coefficients[vdofs],
                             vel.coefficients[vdofs + nv],
                             head.coefficients[pdofs]])
    return dofs, values


def split_state(spaces: Spaces, x: np.ndarray) -> CoupledState:
    dv, dq, dphi = spaces
    nv, nq = dv.ndof, dq.ndof
    return CoupledState(
        velocity=DiscreteField(dv, x[:2 * nv].copy()),
        pressure=DiscreteField(dq, x[2 * nv:2 * nv + nq].copy()),
        head=DiscreteField(dphi, x[2 * nv + nq:].copy()))


def solve_coupled(coupled_mesh: CoupledMesh, order: int,
                  params: forms.ModelParams, mms, picard_tol: float = 1e-7,
                  maxit: int = 50, solver: str = "direct",
                  linear_tol: float = 1e-9, droptol: float = 1e-3):
    """Returns (CoupledState, PicardReport); raises PicardDiverged when the
    update norm grows three times in a row or maxit is exhausted."""
    spaces = build_spaces(coupled_mesh, order)
    dv, dq, dphi = spaces
    nv, nq_, nphi = dv.ndof, dq.ndof, dphi.ndof

    A_f = forms.assemble_af(dv, params)
    B = forms.assemble_b(dv, dq)
    C_vphi, C_phiu = forms.assemble_interface_coupling(
        coupled_mesh, dv, dphi, params)
    A_p = forms.assemble_ap(dphi, params)
    rho_g = params.rho * params.gravity
    rhs0 = np.concatenate([
        forms.assemble_volume_load(dv, mms.f_fluid),
        np.zeros(nq_),
        forms.assemble_volume_load(dphi, mms.f_porous, weight=rho_g)])
    bc_dofs, bc_values = dirichlet_data(spaces, mms)
    mass_diag = forms.assemble_mass(dq).diagonal()

    def precondition(K2):
        return BlockTriangularPreconditioner(K2, 2 * nv, nq_, mass_diag,
                                             params.nu, nphi=nphi,
                                             droptol=droptol)

    bubbles = cell_bubbles(dv)
    report = PicardReport(iterations=0)
    x_prev = np.zeros(2 * nv + nq_ + nphi)
    growth = 0
    frozen = None
    for m in range(1, maxit + 1):
        u_field = DiscreteField(dv, x_prev[:2 * nv])
        N1, _ = forms.assemble_convection(dv, u_field,
                                          forms.ConvectionMode.PLAIN, params)
        K = sp.bmat([[A_f + N1, B.T, C_vphi],
                     [B, None, None],
                     [C_phiu, None, A_p]], format="csr")
        K2 = constrain_matrix(K, bc_dofs)
        rhs2 = constrain_rhs(K, rhs0, bc_dofs, bc_values)
        if frozen is not None:
            # one factorization serves the whole iteration: later systems
            # differ only by the convection update, so the frozen factor is
            # an excellent Krylov preconditioner; refactor if it degrades
            x, rep = gmres(K2, rhs2, frozen, tol=linear_tol, maxit=100)
            rep.final_residual = true_residual(K2, rhs2, x)
        if frozen is None or not rep.converged:
            linear = LinearSolver(K2, solver, linear_tol, precondition,
                                  local=bubbles)
            x, rep = linear.solve(rhs2)
            frozen = linear.factor  # None on iterative runs
            del linear  # later iterates need the factor, not its matrix
        report.solver_reports.append(rep)

        delta = float(np.linalg.norm(x - x_prev))
        report.iterations = m
        report.update_norms.append(delta)
        if delta < picard_tol:
            report.converged = True
            return split_state(spaces, x), report
        if m > 1 and delta > report.update_norms[-2]:
            growth += 1
            if growth >= 3:
                raise PicardDiverged(
                    f"update norm grew 3 consecutive iterations "
                    f"(last {delta:.3e})", report)
        else:
            growth = 0
        x_prev = x
    raise PicardDiverged(f"no convergence in {maxit} iterations "
                         f"(last update {report.update_norms[-1]:.3e})",
                         report)
