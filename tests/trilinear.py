"""Quadrature value of the convection trilinear form, the oracle that the
assembled convection operators and loads are checked against."""

from __future__ import annotations

import numpy as np

from nsdarcy.fem import DiscreteField
from nsdarcy.forms import ModelParams, _convect, cell_rule, quad_state


def trilinear_c(a: DiscreteField, v: DiscreteField, w: DiscreteField,
                params: ModelParams, degree: int = 5) -> float:
    """Quadrature value of c(a, v, w) = rho ((a.grad) v, w) on v's mesh."""
    rule = cell_rule(v.dofmap, degree)
    conv = _convect(quad_state(a, rule, grads=False).vals,
                    quad_state(v, rule).grads)
    w_vals = quad_state(w, rule, grads=False).vals
    return params.rho * float(np.einsum("q,c,cqe,cqe->",
                                        rule.weights, rule.det, conv, w_vals))
