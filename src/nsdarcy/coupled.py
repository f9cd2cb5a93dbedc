"""Monolithic Picard solve of the coupled nonlinear problem.

Each iteration assembles the block system

    [ A_f + N1(u^m)   B^T   C_vphi ] [u]   [f_f]
    [      B           0      0    ] [p] = [ 0 ]
    [   C_phiu         0     A_p   ] [phi] [f_p]

with N1 the fixed-point convection operator, eliminates the outer Dirichlet
dofs symmetrically, and solves. The blocks that do not change are stacked
and eliminated once; each iteration adds N1 to them on one fixed CSR
pattern (`System.refill`). The iteration starts from zero and stops when
the l2 norm of the full coefficient update (velocity, pressure, and head
together) drops below picard_tol.

Used standalone for reference errors and as the coarse-level solve of all
multilevel algorithms. No pressure pinning is needed: the interface coupling
acts as a natural condition fixing the pressure level.

Every solve on a mesh poses its block system as a `System` on the mesh's
`Level`; the solver settings travel as one `SolveOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import forms
from .fem import (MINI_VELOCITY, P1, P2, P2_VELOCITY, DiscreteField, DofMap,
                  build_dofmap, cell_bubbles, dirichlet_trace, grid_points)
from .mesh import CoupledMesh
from .sparse import (BlockTriangularPreconditioner, DimensionMismatch,
                     LinearSolver, constrain_dirichlet, gmres, ichol,
                     true_residual)

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

    @cached_property
    def pressure_mass(self) -> np.ndarray:
        """Pressure-mass diagonal of the block-triangular preconditioner,
        assembled on first use: direct solves never need it."""
        return forms.assemble_mass(self.spaces.pressure).diagonal()


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


class System:
    """One solve site's block system on a level: K stacks the coefficients
    of the spaces named in `fields`, in that order, such as ("velocity",
    "pressure", "head"). The level's outer Dirichlet trace is eliminated
    from K once and the lift -K x0 kept, so every right side is pinned
    without the unconstrained K. `refill` adds a matrix that changes, such
    as Picard's convection operator, on a pattern fixed at its first call."""

    def __init__(self, level: Level, fields: tuple, K):
        self.level = level
        self.dofmaps = [getattr(level.spaces, f) for f in fields]
        self.sizes = [d.num_coefficients for d in self.dofmaps]
        n = sum(self.sizes)
        if K.shape != (n, n):
            raise DimensionMismatch(f"K is {K.shape}, {fields} stack {n}")
        traces = {"velocity": level.velocity_trace, "head": level.head_trace}
        offsets = np.cumsum([0] + self.sizes[:-1])
        ids, values = zip(*[(traces[f][0] + off, traces[f][1])
                            for f, off in zip(fields, offsets) if f in traces])
        self.dofs, self.values = np.concatenate(ids), np.concatenate(values)
        self.K, self.lift = constrain_dirichlet(K, np.zeros(n), self.dofs,
                                                self.values)
        self._static = None

    def refill(self, N: sp.csr_matrix) -> None:
        """K and the lift become those of the given K plus N, N being its
        top-left block, eliminated together. The first call fixes K's
        pattern: the eliminated K's entries and N's off the Dirichlet rows
        and columns. Each call then adds N's data to the eliminated K's
        through a map of slots, one more slot taking the entries that
        elimination drops, and takes N x0 from the lift. Every N must have
        the first one's pattern."""
        if self._static is None:
            self._fix_pattern(N)
        static, slots, x0, lift0 = self._static
        if N.nnz != len(slots):
            raise DimensionMismatch(f"N has {N.nnz} entries, the pattern "
                                    f"{len(slots)}")
        data = np.bincount(slots, N.data, minlength=len(static) + 1)[:-1]
        data += static
        self.K = sp.csr_matrix((data, self.K.indices, self.K.indptr),
                               shape=self.K.shape)
        m = N.shape[0]
        self.lift[:m] = lift0[:m] - N @ x0[:m]
        self.lift[self.dofs] = self.values

    def _fix_pattern(self, N: sp.csr_matrix) -> None:
        K, n = self.K, self.K.shape[0]
        fixed = np.zeros(n, dtype=bool)
        fixed[self.dofs] = True
        rows = np.repeat(np.arange(N.shape[0]), np.diff(N.indptr))
        kept = ~(fixed[rows] | fixed[N.indices])
        ones = sp.csr_matrix((kept.astype(float), N.indices, N.indptr),
                             shape=N.shape)
        ones.resize(K.shape)
        union = sp.csr_matrix((np.ones(K.nnz), K.indices, K.indptr),
                              shape=K.shape) + ones

        def keys(A):   # row * n + column ascends through a canonical CSR
            return np.repeat(np.arange(A.shape[0], dtype=np.int64) * n,
                             np.diff(A.indptr)) + A.indices
        at = keys(union)
        static = np.zeros(union.nnz)
        static[np.searchsorted(at, keys(K))] = K.data
        slots = np.where(kept, np.searchsorted(at, keys(N)), union.nnz)
        x0 = np.zeros(n)
        x0[self.dofs] = self.values
        self._static = static, slots.astype(np.int32), x0, self.lift.copy()
        self.K = sp.csr_matrix((static.copy(), union.indices, union.indptr),
                               shape=K.shape)

    def rhs(self, *loads) -> np.ndarray:
        """constrain_rhs(K, b, ...) of the block loads b, one per field
        (None for a zero block), as b + lift: that is b - K x0 bitwise."""
        b = np.concatenate([np.zeros(size) if load is None else load
                            for size, load in zip(self.sizes, loads)])
        b += self.lift
        b[self.dofs] = self.values
        return b

    def solver(self, opts: SolveOptions) -> LinearSolver:
        """The site's LinearSolver: a direct factor condenses the first
        space's bubbles; PCG with ichol on the head alone, otherwise GMRES
        with the block-triangular preconditioner."""
        level, sizes = self.level, self.sizes
        if len(sizes) == 1:
            precondition = partial(ichol, droptol=opts.droptol)
        else:
            def precondition(K):
                return BlockTriangularPreconditioner(
                    K, sizes[0], sizes[1], level.pressure_mass,
                    level.params.nu, nphi=sum(sizes[2:]),
                    droptol=opts.droptol)
        return LinearSolver(self.K, opts.solver, opts.linear_tol,
                            precondition, symmetric=len(sizes) == 1,
                            local=cell_bubbles(self.dofmaps[0]),
                            points=grid_points(*self.dofmaps))

    def split(self, x: np.ndarray) -> list[DiscreteField]:
        """x cut into one field per stacked space."""
        return [DiscreteField(d, part.copy()) for d, part in
                zip(self.dofmaps, np.split(x, np.cumsum(self.sizes)[:-1]))]


def solve_coupled(level: Level, opts: SolveOptions = SolveOptions()):
    """Returns (CoupledState, PicardReport); raises PicardDiverged when the
    update norm grows three times in a row or PICARD_MAXIT iterations pass
    without convergence."""
    dv, dq, dphi = level.spaces
    params = level.params

    # the blocks that do not change are stacked and eliminated once; each
    # iteration refills that system with N1, on a_f's cell pattern
    pattern = forms.cell_pattern(dv)
    B = forms.assemble_b(dv, dq)
    C_vphi, C_phiu = forms.assemble_interface_coupling(level.mesh, dv, dphi,
                                                       params)
    system = System(level, ("velocity", "pressure", "head"), sp.bmat(
        [[forms.assemble_af(dv, params, pattern), B.T, C_vphi],
         [B, None, None],
         [C_phiu, None, forms.assemble_ap(dphi, params)]], format="csr"))
    del B, C_vphi, C_phiu
    rule = forms.cell_rule(dv)
    report = PicardReport(iterations=0)
    x_prev = np.zeros(system.K.shape[0])
    growth = 0
    frozen = None
    for m in range(1, PICARD_MAXIT + 1):
        u_field = DiscreteField(dv, x_prev[:dv.num_coefficients])
        N1, _ = forms.assemble_convection(
            forms.quad_state(u_field, rule, grads=False),
            forms.ConvectionMode.PLAIN, params, pattern)
        system.refill(N1)
        del N1
        rhs = system.rhs(level.fluid_load, None, level.porous_load)
        if frozen is not None:
            # one factor or preconditioner serves the whole iteration: later
            # systems differ only by the convection update, so the frozen one
            # is an excellent Krylov preconditioner; rebuild if it degrades
            x, rep = gmres(system.K, rhs, frozen, tol=opts.linear_tol,
                           maxit=maxit)
            rep.final_residual = true_residual(system.K, rhs, x)
        if frozen is None or not rep.converged:
            linear = system.solver(opts)
            x, rep = linear.solve(rhs)
            frozen = linear.factor or linear.precon
            # twice the fresh solve's iterations; a direct solve reports 1
            maxit = max(100, 2 * rep.iterations)
            del linear  # later iterates need the factor, not its matrix
        report.solver_reports.append(rep)

        delta = float(np.linalg.norm(x - x_prev))
        report.iterations = m
        report.update_norms.append(delta)
        if delta < opts.picard_tol:
            report.converged = True
            return CoupledState(*system.split(x)), report
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
