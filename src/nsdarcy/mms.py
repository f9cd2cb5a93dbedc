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

from .forms import CellRule, ModelParams, cell_rule

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


def _l2_error(rule: CellRule, coeffs, exact) -> float:
    """L2 error of a scalar coefficient vector of the rule's space against
    exact values (nc, nq) at the rule's points."""
    num = np.einsum("cl,lq->cq", coeffs[rule.dofmap.cell_dofs], rule.vals)
    diff2 = (num - exact) ** 2
    return float(np.sqrt(np.einsum("q,c,cq->", rule.weights, rule.det, diff2)))


def _h1_error(rule: CellRule, coeffs, exact_grad) -> float:
    """H1-seminorm error against the pair of exact gradient components."""
    # every cell map is affine: contract with the reference gradients, then
    # map the (nc, nq, 2) result by each cell's J^{-T}
    gnum = np.matmul(
        np.einsum("cl,lqe->cqe", coeffs[rule.dofmap.cell_dofs], rule.gref),
        rule.jinv_t.transpose(0, 2, 1))
    gx, gy = exact_grad
    gdiff2 = (gnum[..., 0] - gx) ** 2 + (gnum[..., 1] - gy) ** 2
    return float(np.sqrt(np.einsum("q,c,cq->", rule.weights, rule.det,
                                   gdiff2)))


def error_norms(state, mms: ManufacturedProblem, quad_degree: int = 8,
                stage: str = "fe", algorithm: str | None = None) -> ErrorReport:
    """Componentwise L2/H1-seminorm errors of a coupled state (velocity
    components u, v; pressure p, L2 only; head phi). The exact velocity and
    its gradient are evaluated once, at the rule both components share."""
    dv = state.velocity.dofmap
    nd = dv.ndof
    parts = (state.velocity.coefficients[:nd], state.velocity.coefficients[nd:])
    rule = cell_rule(dv, quad_degree)
    xy = (rule.points[..., 0], rule.points[..., 1])
    l2 = [_l2_error(rule, c, e) for c, e in zip(parts, mms.velocity(*xy))]
    h1 = [_h1_error(rule, c, g)
          for c, g in zip(parts, mms.velocity_grad(*xy))]
    errs = {("u", "L2"): l2[0], ("u", "H1"): h1[0],
            ("v", "L2"): l2[1], ("v", "H1"): h1[1]}
    rule = cell_rule(state.pressure.dofmap, quad_degree)
    xy = (rule.points[..., 0], rule.points[..., 1])
    errs[("p", "L2")] = _l2_error(rule, state.pressure.coefficients,
                                  mms.pressure(*xy))
    rule = cell_rule(state.head.dofmap, quad_degree)
    xy = (rule.points[..., 0], rule.points[..., 1])
    errs[("phi", "L2")] = _l2_error(rule, state.head.coefficients,
                                    mms.head(*xy))
    errs[("phi", "H1")] = _h1_error(rule, state.head.coefficients,
                                    mms.head_grad(*xy))
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
