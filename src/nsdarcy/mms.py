"""Manufactured solution, error norms, and convergence-rate tables.

The exact fields on the two unit squares (fluid above, porous below):

    u1  = cos(pi y/2)^2 sin(pi x/2)
    u2  = -cos(pi x/2) (sin(pi y)/4 + pi y/4)
    p   = (pi/4) cos(pi x/2) (y - 1 - cos(pi y))
    phi = (pi y/4) cos(pi x/2)

u is divergence free; with all parameters equal to 1 the three interface
conditions on y = 1 (mass conservation, normal-stress balance, tangential
slip) hold identically, the last trivially since u1 and its normal
derivative vanish there.

The forcing below is the analytically derived
f_f = -nu Lap(u) + grad p + rho (u.grad)u and f_p = -(K/n) Lap(phi);
a finite-difference crosscheck lives in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

import numpy as np

from .fem import quad_rule_tri, ref_basis_many
from .forms import ModelParams, _geometry, _quad_points

PI = np.pi


class InsufficientData(Exception):
    pass


@dataclass(frozen=True)
class ManufacturedProblem:
    params: ModelParams

    def velocity(self, x, y):
        return (np.cos(PI * y / 2) ** 2 * np.sin(PI * x / 2),
                -np.cos(PI * x / 2) * (np.sin(PI * y) / 4 + PI * y / 4))

    def velocity_grad(self, x, y):
        """Rows (du1/dx, du1/dy), (du2/dx, du2/dy)."""
        cx, sx = np.cos(PI * x / 2), np.sin(PI * x / 2)
        u1x = (PI / 2) * np.cos(PI * y / 2) ** 2 * cx
        u1y = -(PI / 2) * np.sin(PI * y) * sx
        u2x = (PI / 2) * sx * (np.sin(PI * y) / 4 + PI * y / 4)
        u2y = -(PI / 4) * cx * (1 + np.cos(PI * y))
        return (u1x, u1y), (u2x, u2y)

    def pressure(self, x, y):
        return (PI / 4) * np.cos(PI * x / 2) * (y - 1 - np.cos(PI * y))

    def head(self, x, y):
        return (PI * y / 4) * np.cos(PI * x / 2)

    def head_grad(self, x, y):
        return (-(PI ** 2 * y / 8) * np.sin(PI * x / 2),
                (PI / 4) * np.cos(PI * x / 2))

    def f_fluid(self, x, y):
        nu, rho = self.params.nu, self.params.rho
        cx, sx = np.cos(PI * x / 2), np.sin(PI * x / 2)
        sy2, cy2 = np.sin(PI * y / 2), np.cos(PI * y / 2)
        f1 = PI * sx / 8 * (
            -2 * PI * nu * (5 * sy2 ** 2 - 3)
            + 2 * rho * (PI * y * sy2 + 2 * cy2) * cx * cy2
            + PI * (-y + np.cos(PI * y) + 1))
        f2 = PI / 16 * (
            -PI * nu * (PI * y + 5 * np.sin(PI * y)) * cx
            + rho * (PI * y + np.sin(PI * y)) * (np.cos(PI * y) + 1)
            + 4 * (PI * np.sin(PI * y) + 1) * cx)
        return f1, f2

    def f_porous(self, x, y):
        k_over_n = self.params.conductivity / self.params.porosity
        return (PI ** 3 / 16) * k_over_n * y * np.cos(PI * x / 2)


def manufactured_problem(params: ModelParams | None = None) -> ManufacturedProblem:
    return ManufacturedProblem(params or ModelParams())


@dataclass
class ErrorReport:
    n: int
    order: int
    stage: str = "fe"              # fe | intermediate | final
    algorithm: str | None = None   # None for the coupled baseline
    errors: dict = field(default_factory=dict)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def get(self, var: str, norm: str) -> float:
        return self.errors[(var, norm)]


# (variable, norm) keys reported; pressure has no H1 entry
REPORTED_KEYS = (("u", "L2"), ("u", "H1"), ("v", "L2"), ("v", "H1"),
                 ("p", "L2"), ("phi", "L2"), ("phi", "H1"))


def _field_errors(coeffs, dofmap, exact, exact_grad, quad_degree):
    """L2 and H1-seminorm errors of a scalar coefficient vector against
    analytic value/gradient callables; gradient part skipped when
    exact_grad is None."""
    quad = quad_rule_tri(quad_degree)
    vals, gref = ref_basis_many(dofmap.family, quad.points)
    jinv_t, det = _geometry(dofmap.mesh)
    phys = _quad_points(dofmap.mesh, quad)
    x, y = phys[..., 0], phys[..., 1]
    gathered = coeffs[dofmap.cell_dofs]                        # (nc, nloc)
    num = np.einsum("cl,lq->cq", gathered, vals)
    diff2 = (num - exact(x, y)) ** 2
    l2 = float(np.sqrt(np.einsum("q,c,cq->", quad.weights, det, diff2)))
    if exact_grad is None:
        return l2, None
    # every cell map is affine: contract with the reference gradients, then
    # map the (nc, nq, 2) result by each cell's J^{-T}
    gnum = np.matmul(np.einsum("cl,lqe->cqe", gathered, gref),
                     jinv_t.transpose(0, 2, 1))
    gx, gy = exact_grad(x, y)
    gdiff2 = (gnum[..., 0] - gx) ** 2 + (gnum[..., 1] - gy) ** 2
    h1 = float(np.sqrt(np.einsum("q,c,cq->", quad.weights, det, gdiff2)))
    return l2, h1


def error_norms(state, mms: ManufacturedProblem, quad_degree: int = 8,
                stage: str = "fe", algorithm: str | None = None) -> ErrorReport:
    """Componentwise L2/H1-seminorm errors of a coupled state (velocity
    components u, v; pressure p, L2 only; head phi)."""
    dv = state.velocity.dofmap
    nd = dv.ndof
    errs = {}
    u1 = lambda x, y: mms.velocity(x, y)[0]
    u2 = lambda x, y: mms.velocity(x, y)[1]
    g1 = lambda x, y: mms.velocity_grad(x, y)[0]
    g2 = lambda x, y: mms.velocity_grad(x, y)[1]
    errs[("u", "L2")], errs[("u", "H1")] = _field_errors(
        state.velocity.coefficients[:nd], dv, u1, g1, quad_degree)
    errs[("v", "L2")], errs[("v", "H1")] = _field_errors(
        state.velocity.coefficients[nd:], dv, u2, g2, quad_degree)
    errs[("p", "L2")], _ = _field_errors(
        state.pressure.coefficients, state.pressure.dofmap,
        mms.pressure, None, quad_degree)
    errs[("phi", "L2")], errs[("phi", "H1")] = _field_errors(
        state.head.coefficients, state.head.dofmap,
        mms.head, mms.head_grad, quad_degree)
    order = 2 if dv.family.tag == "P2" else 1
    return ErrorReport(n=dv.mesh.n, order=order, stage=stage,
                       algorithm=algorithm, errors=errs)


@dataclass
class ConvergenceTable:
    reports: list
    rates: dict  # (var, norm) -> list aligned with reports; first entry None

    def rate(self, var: str, norm: str, i: int):
        return self.rates[(var, norm)][i]


def rate_table(reports: list) -> ConvergenceTable:
    """Observed rates log(e_i/e_{i+1}) / log(h_i/h_{i+1}) between consecutive
    reports; requires at least two reports on distinct meshes."""
    if len(reports) < 2:
        raise InsufficientData("need at least two reports for rates")
    if len({r.n for r in reports}) != len(reports):
        raise InsufficientData("reports must be on distinct meshes")
    rates = {}
    keys = set(reports[0].errors)
    for r in reports[1:]:
        keys &= set(r.errors)
    for key in sorted(keys):
        col = [None]
        for prev, cur in zip(reports, reports[1:]):
            e0, e1 = prev.errors[key], cur.errors[key]
            if e0 <= 0 or e1 <= 0:
                col.append(None)
            else:
                col.append(log(e0 / e1) / log(cur.n / prev.n))
        rates[key] = col
    return ConvergenceTable(reports=list(reports), rates=rates)
