"""Monolithic Picard solve of the coupled nonlinear problem.

Each iteration assembles the block system

    [ A_f + N1(u^m)   B^T   C_vphi ] [u]   [f_f]
    [      B           0      0    ] [p] = [ 0 ]
    [   C_phiu         0     A_p   ] [phi] [f_p]

with N1 the fixed-point convection operator, eliminates the outer Dirichlet
dofs symmetrically, and solves. The blocks that do not change are stacked
by one CSR rule and eliminated once; each iteration adds the fluid block
about the last velocity on one fixed CSR pattern (`System.refill`), posed
as `fluid_saddle` poses it for Picard and the NS step alike: N1, or, for
a direct Mini solve, the fluid saddle condensed about N1 cell by cell.
`System.solve` then runs GMRES on the refilled K, preconditioned by the
first iterate's solver, which is therefore a float64 LU factor when
direct; a K that is never refilled gets a float32 factor refined in
float64 (sparse.DirectFactor). The iteration starts from zero and stops
when the l2 norm of the full coefficient update (velocity with its
recovered bubbles, pressure, and head together) drops below picard_tol.

Used standalone for reference errors and as the coarse-level solve of all
multilevel algorithms. No pressure pinning is needed: the interface coupling
acts as a natural condition fixing the pressure level.

Every solve on a mesh poses and solves its block system as a `System` on
the mesh's `Level`; the solver settings travel as one `SolveOptions`.
`System.solve` alone returns a `SolveReport`; Picard's own report keeps
the update norms that decide when it stops or diverges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import forms, sparse
from .fem import (MINI_VELOCITY, P1, P2, P2_VELOCITY, DiscreteField, DofMap,
                  build_dofmap, dirichlet_trace, grid_points)
from .mesh import CoupledMesh
from .sparse import (BlockTriangularPreconditioner, DimensionMismatch,
                     DirectFactor, NotConverged, SolveReport,
                     constrain_dirichlet, entry_rows, ichol)

PICARD_MAXIT = 50   # iterations before solve_coupled gives up
SOLVERS = ("direct", "iterative")


@dataclass(eq=False)
class CoupledState:
    velocity: DiscreteField
    pressure: DiscreteField
    head: DiscreteField


@dataclass
class PicardReport:
    update_norms: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.update_norms)


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

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        for name in ("linear_tol", "droptol", "picard_tol"):
            forms.finite_positive(name, getattr(self, name))


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
    "pressure", "head"). With `bubbles` (forms.Bubbles) K is posed on the
    other coefficients alone, the velocity's Mini bubbles eliminated cell
    by cell: `rhs` condenses every load and `split` recovers the bubbles.
    `kept` lists the stacked coefficients that K's unknowns are.
    The level's outer Dirichlet trace is eliminated from K once and the
    lift -K x0 kept, so every right side is pinned without the
    unconstrained K. `refill` adds a matrix that changes, such as Picard's
    convection operator, on K's own pattern."""

    def __init__(self, level: Level, fields: tuple, K,
                 bubbles: forms.Bubbles | None = None):
        self.level = level
        self.dofmaps = [getattr(level.spaces, f) for f in fields]
        self.sizes = [d.num_coefficients for d in self.dofmaps]
        self.bubbles = bubbles
        self.kept = _kept(sum(self.sizes), bubbles)
        n = len(self.kept)
        if K.shape != (n, n):
            raise DimensionMismatch(f"K is {K.shape}, {fields} stack {n}")
        traces = {"velocity": level.velocity_trace, "head": level.head_trace}
        offsets = np.cumsum([0] + self.sizes[:-1])
        ids, values = zip(*[(traces[f][0] + off, traces[f][1])
                            for f, off in zip(fields, offsets) if f in traces])
        # a bubble is never on the boundary
        self.dofs = np.searchsorted(self.kept, np.concatenate(ids))
        self.values = np.concatenate(values)
        self.K, self.lift = constrain_dirichlet(K, self.dofs, self.values)
        self._static = None

    def refill(self, N: sp.csr_matrix,
               bubbles: forms.Bubbles | None = None) -> None:
        """K and the lift become those of the given K plus N, N being its
        top-left block, eliminated together; `bubbles` replaces the
        system's own, as when N is a condensed fluid block. N's entries off
        the Dirichlet rows and columns are added to the eliminated K's at
        fixed positions: they lead their rows of K, as the given K's
        top-left block has N's pattern, which the first call checks. N x0
        is taken from the lift. Every N must have the first one's
        pattern."""
        if self._static is None:
            K, fixed = self.K, np.zeros(self.K.shape[0], dtype=bool)
            fixed[self.dofs] = True
            rows = entry_rows(N)
            kept = ~(fixed[rows] | fixed[N.indices])
            at = (K.indptr[rows] - N.indptr[rows]
                  + np.arange(N.nnz, dtype=K.indptr.dtype))[kept]
            if not np.array_equal(K.indices[at], N.indices[kept]):
                raise DimensionMismatch("N's pattern does not lead K's rows")
            x0 = np.zeros(K.shape[0])
            x0[self.dofs] = self.values
            self._static = K.data, kept, at, x0, self.lift.copy()
        static, kept, at, x0, lift0 = self._static
        if N.nnz != len(kept):
            raise DimensionMismatch(f"N has {N.nnz} entries, the pattern "
                                    f"{len(kept)}")
        indices, indptr, shape = self.K.indices, self.K.indptr, self.K.shape
        self.K = None   # its data goes before the new data is made
        data = static.copy()
        data[at] += N.data[kept]
        self.K = sp.csr_matrix((data, indices, indptr), shape=shape)
        m = N.shape[0]
        self.lift[:m] = lift0[:m] - N @ x0[:m]
        self.lift[self.dofs] = self.values
        self.bubbles = bubbles
        self._refilled = True

    def rhs(self, *loads) -> np.ndarray:
        """constrain_rhs(K, b, ...) of the block loads b, one per field
        (None for a zero block), as b + lift: that is b - K x0 bitwise.
        With bubbles, b is the condensed load b_I - A_IL D^{-1} b_L."""
        b = np.concatenate([np.zeros(size) if load is None else load
                            for size, load in zip(self.sizes, loads)])
        if self.bubbles is not None:
            b = self.bubbles.load(b[self.kept], b[self.bubbles.ids])
        b += self.lift
        b[self.dofs] = self.values
        return b

    def factor(self, opts: SolveOptions) -> None:
        """Builds `inverse` on K as it stands: a DirectFactor on the grid
        points of K's unknowns, in float32 and refined in float64, unless
        `refill` changes K: that factor preconditions GMRES on matrices it
        was not built on, and stays float64; with "iterative", ichol on the
        head alone, otherwise the block-triangular preconditioner."""
        if opts.solver == "direct":
            self.inverse = DirectFactor(
                self.K, grid_points(*self.dofmaps)[self.kept],
                single=self._static is None)
        elif len(self.sizes) == 1:
            self.inverse = ichol(self.K, opts.droptol)
        else:
            self.inverse = BlockTriangularPreconditioner(
                self.K, *self.sizes[:2], self.level.pressure_mass,
                self.level.params.nu, nphi=sum(self.sizes[2:]),
                droptol=opts.droptol)
        self._opts, self._refilled = opts, False

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """x with K x = b, and its SolveReport with the true residual on K.
        While K is the matrix `factor` was given, `inverse` solves it (a
        direct report counts its triangular solves as iterations), or
        preconditions PCG (the head alone) or GMRES. Once `refill` has
        changed K, GMRES runs on K preconditioned by `inverse`, within
        twice the iterations of the last fresh solve and at least 100; if
        it fails, `inverse` is built again on K and solves afresh. A fresh
        solve that does not converge raises NotConverged."""
        tol = self._opts.linear_tol
        if self._refilled:
            x, rep = sparse.gmres(self.K, b, self.inverse, tol=tol,
                                  maxit=self._maxit)
            if not rep.converged:
                self.factor(self._opts)
        if not self._refilled:
            if self._opts.solver == "direct":
                x = self.inverse.solve(b)
                rep = SolveReport(self.inverse.steps, 0.0, True, "direct")
            else:
                krylov = sparse.pcg if len(self.sizes) == 1 else sparse.gmres
                x, rep = krylov(self.K, b, self.inverse, tol=tol)
            self._maxit = max(100, 2 * rep.iterations)
        rep.final_residual = sparse.true_residual(self.K, b, x)
        if not rep.converged:
            raise NotConverged(f"{rep.method}: {rep.iterations} iterations, "
                               f"true residual {rep.final_residual:.3e}")
        return x, rep

    def split(self, x: np.ndarray, *loads) -> list[DiscreteField]:
        """The solution x of K cut into one field per stacked space; the
        bubbles, if K has none, are recovered cell by cell from the first
        load that `rhs` was given, the velocity's."""
        if self.bubbles is not None:
            full = np.empty(sum(self.sizes))
            full[self.kept] = x
            full[self.bubbles.ids] = self.bubbles.recover(
                x, loads[0][self.bubbles.ids])
            x = full
        return [DiscreteField(d, part.copy()) for d, part in
                zip(self.dofmaps, np.split(x, np.cumsum(self.sizes)[:-1]))]


def _kept(n: int, bubbles: forms.Bubbles | None) -> np.ndarray:
    """The ids of n stacked coefficients less the bubbles, if any."""
    return np.delete(np.arange(n), [] if bubbles is None
                     else bubbles.ids.ravel())


def _stacked(rows: list) -> sp.csr_matrix:
    """Rows of CSR blocks stacked into one, without a COO copy of it."""
    return sp.vstack([sp.hstack(r, format="csr") for r in rows], format="csr")


def fluid_saddle(level: Level, opts: SolveOptions) -> tuple:
    """The level's fluid saddle [a_f + N, B^T; B, 0] as (F, about): about a
    forms.QuadState it is F + N, `about(state, mode)` giving (N, bubbles,
    load), N linearized by `mode` and load its NEWTON load. A direct Mini
    saddle is condensed cell by cell (forms.MiniSaddle): N is all of it,
    with its Bubbles, and F is None. Any other stacks a_f and B into F on
    the velocity's cell pattern, and N is the convection operator on it."""
    (dv, dq, _), params = level.spaces, level.params
    if opts.solver == "direct" and dv.family == MINI_VELOCITY:
        # made after the first blocks, which lowers Algorithm A's peak memory
        saddle = cache(lambda: forms.mini_saddle(dv, dq, params))

        def about(state, mode):
            N, load = forms.convection_blocks(state, mode, params)
            return (*saddle().condense(N), load)
        return None, about
    pattern = forms.cell_pattern(dv)
    B = forms.assemble_b(dv, dq)
    F = _stacked([[forms.assemble_af(dv, params, pattern), B.T.tocsr()],
                  [B, sp.csr_matrix((dq.ndof, dq.ndof))]])
    shape = F.shape

    def about(state, mode):
        N, load = forms.assemble_convection(state, mode, params, pattern)
        N.resize(shape)   # zero pressure rows and columns
        return N, None, load
    return F, about


FIELDS = ("velocity", "pressure", "head")   # Picard's stacked spaces


def picard_system(level: Level, opts: SolveOptions = SolveOptions()):
    """Picard's System about a zero velocity, and `fluid`, the (block,
    bubbles) that `refill` takes about a velocity: fluid_saddle's N, PLAIN.
    K = [[F, C_vphi], [C_phiu, A_p]], F the saddle's or, condensed, zeros
    on N's pattern; the coupling pair keeps the coefficients F keeps."""
    (dv, dq, dphi), params = level.spaces, level.params
    F, about = fluid_saddle(level, opts)
    rule = forms.cell_rule(dv)

    def fluid(velocity):
        return about(forms.quad_state(velocity, rule, grads=False),
                     forms.ConvectionMode.PLAIN)[:2]
    N, bubbles = fluid(DiscreteField(dv, np.zeros(dv.num_coefficients)))
    if F is None:
        F = sp.csr_matrix((np.zeros(N.nnz), N.indices, N.indptr),
                          shape=N.shape)
    n = dv.num_coefficients + dq.ndof
    C_vphi, C_phiu = forms.assemble_interface_coupling(level.mesh, dv, dphi,
                                                       params)
    C_vphi.resize(n, dphi.ndof)   # zero pressure rows and columns
    C_phiu.resize(dphi.ndof, n)
    kept = _kept(n, bubbles)
    K = _stacked([[F, C_vphi[kept]],
                  [C_phiu[:, kept], forms.assemble_ap(dphi, params)]])
    del F, C_vphi, C_phiu
    system = System(level, FIELDS, K, bubbles)
    del K
    system.refill(N, bubbles)
    return system, fluid


def solve_coupled(level: Level, opts: SolveOptions = SolveOptions()):
    """Returns (CoupledState, PicardReport); raises PicardDiverged when the
    last four update norms strictly increase or PICARD_MAXIT iterations
    pass without convergence, and NotConverged from `System.solve`."""
    system, fluid = picard_system(level, opts)
    loads = (level.fluid_load, None, level.porous_load)
    report = PicardReport()
    norms = report.update_norms
    x_prev = np.zeros(sum(system.sizes))
    system.factor(opts)
    for _ in range(PICARD_MAXIT):
        x, _ = system.solve(system.rhs(*loads))
        fields = system.split(x, *loads)
        x = np.concatenate([f.coefficients for f in fields])

        delta = float(np.linalg.norm(x - x_prev))
        norms.append(delta)
        if delta < opts.picard_tol:
            report.converged = True
            return CoupledState(*fields), report
        if len(norms) > 3 and norms[-4] < norms[-3] < norms[-2] < delta:
            raise PicardDiverged(f"update norm grew 3 consecutive iterations "
                                 f"(last {delta:.3e})", report)
        x_prev = x
        system.bubbles = None   # freed before the next ones are made
        system.refill(*fluid(fields[0]))
    raise PicardDiverged(f"no convergence in {PICARD_MAXIT} iterations "
                         f"(last update {norms[-1]:.3e})", report)
