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
        cx, sx, sy = np.cos(PI * x / 2), np.sin(PI * x / 2), np.sin(PI * y)
        u1x = (PI / 2) * np.cos(PI * y / 2) ** 2 * cx
        u1y = -(PI / 2) * sy * sx
        u2x = (PI / 2) * sx * (sy / 4 + PI * y / 4)
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
        sy, cy = np.sin(PI * y), np.cos(PI * y)
        f1 = PI * sx / 8 * (
            -2 * PI * nu * (5 * sy2 ** 2 - 3)
            + 2 * rho * (PI * y * sy2 + 2 * cy2) * cx * cy2
            + PI * (-y + cy + 1))
        f2 = PI / 16 * (
            -PI * nu * (PI * y + 5 * sy) * cx
            + rho * (PI * y + sy) * (cy + 1)
            + 4 * (PI * sy + 1) * cx)
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

    def get(self, var: str, norm: str) -> float:
        return self.errors[(var, norm)]


# (variable, norm) keys reported; pressure has no H1 entry
REPORTED_KEYS = (("u", "L2"), ("u", "H1"), ("v", "L2"), ("v", "H1"),
                 ("p", "L2"), ("phi", "L2"), ("phi", "H1"))


def _l2_error(rule: CellRule, coeffs, exact) -> float:
    """L2 error of a scalar coefficient vector of the rule's space against
    exact values at the rule's points (CellRule.on_cells)."""
    diff = coeffs[rule.dofmap.cell_dofs] @ rule.vals
    diff -= rule.on_cells(exact)
    return float(np.sqrt(np.square(diff, out=diff) @ rule.weights
                         @ rule.det[rule.shape]))


def _h1_error(rule: CellRule, coeffs, exact_grad) -> float:
    """H1-seminorm error against the pair of exact gradient components:
    on the cells of each shape, one matrix product of their coefficients
    with the shape's physical basis gradients (nloc, 2 nq)."""
    (gx, gy), (nloc, nq) = map(rule.on_cells, exact_grad), rule.vals.shape
    table = rule.grads().transpose(0, 1, 3, 2).reshape(-1, nloc, 2 * nq)
    local, total = coeffs[rule.dofmap.cell_dofs], 0.0
    runs = np.split(np.argsort(rule.shape, kind="stable"),
                    np.cumsum(np.bincount(rule.shape))[:-1])
    for det, grads, cells in zip(rule.det, table, runs):
        diff = local[cells] @ grads
        diff[:, :nq] -= gx[cells]
        diff[:, nq:] -= gy[cells]
        total += det * (np.square(diff, out=diff) @ np.tile(rule.weights, 2)
                        ).sum()
    return float(np.sqrt(total))


# per field of a state: its variables and the ManufacturedProblem method
# of each norm, which gives one array or pair of arrays per variable
_EXACT = (("velocity", ("u", "v"), {"L2": "velocity", "H1": "velocity_grad"}),
          ("pressure", ("p",), {"L2": "pressure"}),
          ("head", ("phi",), {"L2": "head", "H1": "head_grad"}))


def error_norms(states, mms: ManufacturedProblem,
                quad_degree: int = 8) -> list:
    """Componentwise L2/H1-seminorm errors of coupled states that share
    their spaces (velocity components u, v; pressure p, L2 only; head phi),
    one ErrorReport per state. The exact fields are evaluated once, at one
    rule per space, on x (1, n, 2, nq) and y (n, 1, 2, nq) that broadcast
    to its points; the two velocity components share theirs. Exact values
    are dropped before the exact gradient is evaluated, to keep the peak
    memory of one field."""
    spaces = [(s.velocity.dofmap, s.pressure.dofmap, s.head.dofmap)
              for s in states]
    if any(other != spaces[0] for other in spaces):
        raise ValueError("error_norms needs states on the same spaces")
    errs = [{} for _ in states]
    for field, names, exact in _EXACT:
        rule = cell_rule(getattr(states[0], field).dofmap, quad_degree)
        xy = rule.axes(product=True)
        parts = [np.split(getattr(s, field).coefficients, len(names))
                 for s in states]
        for norm, method in exact.items():
            values = getattr(mms, method)(*xy)
            values = values if len(names) == 2 else (values,)
            error = _l2_error if norm == "L2" else _h1_error
            for e, p in zip(errs, parts):
                for name, c, v in zip(names, p, values):
                    e[(name, norm)] = error(rule, c, v)
            del values
    return [ErrorReport(n=spaces[0][0].mesh.n, errors=e) for e in errs]


def rate_table(reports: list) -> dict:
    """Observed rates log(e_i/e_{i+1}) / log(h_i/h_{i+1}) between consecutive
    reports, as (var, norm) -> list aligned with the reports whose first
    entry is None; requires at least two reports on distinct meshes."""
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
    return rates
