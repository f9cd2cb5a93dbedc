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

from .fem import sum_in_order
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
    errors: dict = field(default_factory=dict)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def get(self, var: str, norm: str) -> float:
        return self.errors[(var, norm)]


# (variable, norm) keys reported; pressure has no H1 entry
REPORTED_KEYS = (("u", "L2"), ("u", "H1"), ("v", "L2"), ("v", "H1"),
                 ("p", "L2"), ("phi", "L2"), ("phi", "H1"))


def _values(rule: CellRule, coeffs, table) -> np.ndarray:
    """sum_l coeffs[cell_dofs[c, l]] * table[l] per cell c, for a scalar
    coefficient vector of the rule's space and a basis table (nloc, ...)."""
    local = coeffs[rule.dofmap.cell_dofs]
    return sum_in_order(local[:, l].reshape((-1,) + (1,) * (table.ndim - 1))
                        * table[l] for l in range(len(table)))


def _l2_error(rule: CellRule, coeffs, exact) -> float:
    """L2 error of a scalar coefficient vector of the rule's space against
    exact values (nc, nq) at the rule's points."""
    diff2 = (_values(rule, coeffs, rule.vals) - exact) ** 2
    return float(np.sqrt(np.einsum("q,c,cq->", rule.weights, rule.det, diff2)))


def _h1_error(rule: CellRule, coeffs, exact_grad) -> float:
    """H1-seminorm error against the pair of exact gradient components."""
    # every cell map is affine: contract with the reference gradients, then
    # map the (nc, nq, 2) result by each cell's J^{-T}
    gnum = np.matmul(_values(rule, coeffs, rule.gref),
                     rule.jinv_t.transpose(0, 2, 1))
    gx, gy = exact_grad
    gdiff2 = (gnum[..., 0] - gx) ** 2 + (gnum[..., 1] - gy) ** 2
    return float(np.sqrt(np.einsum("q,c,cq->", rule.weights, rule.det,
                                   gdiff2)))


def error_norms(states, mms: ManufacturedProblem,
                quad_degree: int = 8) -> list:
    """Componentwise L2/H1-seminorm errors of coupled states that share
    their spaces (velocity components u, v; pressure p, L2 only; head phi),
    one ErrorReport per state. The exact fields are evaluated once, at one
    rule per space; the two velocity components share theirs. Exact values
    are dropped before the exact gradient is evaluated, to keep the peak
    memory of one field."""
    first = states[0]
    spaces = (first.velocity.dofmap, first.pressure.dofmap,
              first.head.dofmap)
    for s in states:
        if (s.velocity.dofmap, s.pressure.dofmap, s.head.dofmap) != spaces:
            raise ValueError("error_norms needs states on the same spaces")
    dv, dp, dh = spaces
    nd = dv.ndof
    errs = [{} for _ in states]

    rule = cell_rule(dv, quad_degree)
    xy = tuple(rule.points().transpose(2, 0, 1))
    parts = [(s.velocity.coefficients[:nd], s.velocity.coefficients[nd:])
             for s in states]
    exact = mms.velocity(*xy)
    for e, p in zip(errs, parts):
        e[("u", "L2")], e[("v", "L2")] = (_l2_error(rule, c, x)
                                          for c, x in zip(p, exact))
    del exact
    exact_grad = mms.velocity_grad(*xy)
    for e, p in zip(errs, parts):
        e[("u", "H1")], e[("v", "H1")] = (_h1_error(rule, c, g)
                                          for c, g in zip(p, exact_grad))
    del exact_grad
    rule = cell_rule(dp, quad_degree)
    exact = mms.pressure(*rule.points().transpose(2, 0, 1))
    for e, s in zip(errs, states):
        e[("p", "L2")] = _l2_error(rule, s.pressure.coefficients, exact)
    rule = cell_rule(dh, quad_degree)
    xy = tuple(rule.points().transpose(2, 0, 1))
    exact = mms.head(*xy)
    for e, s in zip(errs, states):
        e[("phi", "L2")] = _l2_error(rule, s.head.coefficients, exact)
    del exact
    exact_grad = mms.head_grad(*xy)
    for e, s in zip(errs, states):
        e[("phi", "H1")] = _h1_error(rule, s.head.coefficients, exact_grad)
    return [ErrorReport(n=dv.mesh.n, errors=e) for e in errs]


@dataclass
class ConvergenceTable:
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
    return ConvergenceTable(rates=rates)
