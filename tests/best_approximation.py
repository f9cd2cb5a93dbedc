"""Best approximation of the manufactured fields in the coupled solve's own
discrete spaces, and the quasi-optimality check of acceptance criterion 2.

The coupled error estimates bound the finite-element error by the
approximation error of the discrete spaces (Cea's lemma, Brezzi's
saddle-point theory) with a constant that does not carry over from one mesh
family to another. So the absolute errors are judged against the smallest
error any function of the same space can reach on the same mesh, not
against numbers measured on other meshes.

"Same space" means the affine set the coupled solution lives in: the
velocity space (Mini with its bubble, or P2) and head space that
`build_spaces` picks, with the outer Dirichlet dofs pinned to the
interpolated trace of `fem.dirichlet_trace`; the pressure space is
unconstrained.
Projections integrate with the rule `error_norms` measures with, so each
one is the exact minimizer of the error as measured, and the coupled
solution can never come out below it.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import spsolve

from layout import split_state
from quadrature_reference import _scatter

from nsdarcy.coupled import build_spaces
from nsdarcy.fem import dirichlet_trace
from nsdarcy.forms import _load, assemble_mass, cell_rule
from nsdarcy.mms import REPORTED_KEYS, error_norms

ENERGY_KEYS = (("u", "H1"), ("v", "H1"), ("phi", "H1"), ("p", "L2"))
H1_KEYS = tuple(key for key in ENERGY_KEYS if key[1] == "H1")
# quasi-optimality band: the lower edge is the minimum itself, less roundoff
BAND = (1.0 - 1e-9, 1.3)
QUAD_DEGREE = 8   # error_norms' default rule


def _project(dofmap, exact, exact_grad, x, fixed):
    """Fill the free entries of the scalar coefficient vector x with the
    minimizer of the L2 error (exact_grad None) or the H1-seminorm error
    against the analytic field; entries where fixed is True stay as given."""
    n, cd = dofmap.ndof, dofmap.cell_dofs
    rule = cell_rule(dofmap, QUAD_DEGREE)
    px, py = map(rule.on_cells, rule.axes())
    wdet = np.einsum("q,c->cq", rule.weights, rule.det[rule.shape])
    if exact_grad is None:
        G = assemble_mass(dofmap, QUAD_DEGREE)
        load = np.einsum("cq,iq,cq->ci", wdet, rule.vals, exact(px, py))
    else:
        grads = rule.grads()[rule.shape]
        stiff = np.einsum("cq,ciqd,cjqd->cij", wdet, grads, grads)
        G = _scatter(cd, cd, stiff, (n, n))
        load = np.einsum("cq,ciqd,cqd->ci", wdet, grads,
                         np.stack(exact_grad(px, py), axis=-1))
    b = _load(n, cd, load)
    free = ~fixed
    rhs = b[free] - G[free][:, fixed] @ x[fixed]
    x[free] = spsolve(G[free][:, free].tocsc(), rhs)


def best_approximation(coupled_mesh, order, mms, norm):
    """CoupledState holding, per scalar field, the best approximation of the
    exact field in the norm "H1" (seminorm) or "L2" among functions of
    solve_coupled's spaces with the same outer trace; the pressure is the
    L2 projection either way, having no H1 column."""
    spaces = build_spaces(coupled_mesh, order)
    dv, dq, dphi = spaces
    x = np.zeros(2 * dv.ndof + dq.ndof + dphi.ndof)
    fixed = np.zeros(x.size, dtype=bool)
    for dofmap, exact, offset in ((dv, mms.velocity, 0),
                                  (dphi, mms.head, 2 * dv.ndof + dq.ndof)):
        ids, values = dirichlet_trace(dofmap, exact)
        x[offset + ids] = values
        fixed[offset + ids] = True
    h1 = norm == "H1"
    blocks = (
        (dv, lambda px, py: mms.velocity(px, py)[0],
         lambda px, py: mms.velocity_grad(px, py)[0]),
        (dv, lambda px, py: mms.velocity(px, py)[1],
         lambda px, py: mms.velocity_grad(px, py)[1]),
        (dq, mms.pressure, None),
        (dphi, mms.head, mms.head_grad),
    )
    start = 0
    for dofmap, exact, exact_grad in blocks:
        block = slice(start, start + dofmap.ndof)
        # basic slices are views: _project fills x in place
        _project(dofmap, exact, exact_grad if h1 else None, x[block],
                 fixed[block])
        start += dofmap.ndof
    return split_state(spaces, x)


def best_errors(coupled_mesh, order, mms):
    """Smallest error reachable in each reported (variable, norm) column, as
    error_norms measures it: H1 columns from the H1-seminorm projection,
    L2 columns from the L2 projection."""
    reports = {}
    for norm in ("H1", "L2"):
        state = best_approximation(coupled_mesh, order, mms, norm)
        reports[norm] = error_norms([state], mms, QUAD_DEGREE)[0]
    return {key: reports[key[1]].get(*key) for key in REPORTED_KEYS}


def energy(errors):
    return float(np.sqrt(sum(errors[key] ** 2 for key in ENERGY_KEYS)))


def quasi_optimality(fe_errors, best):
    """FE error over best-approximation error for the H1 columns and the
    energy combination, keyed by label."""
    ratios = {f"{var}:{norm}": fe_errors[(var, norm)] / best[(var, norm)]
              for var, norm in H1_KEYS}
    ratios["energy"] = energy(fe_errors) / energy(best)
    return ratios


def outside_band(ratios, band=BAND):
    lo, hi = band
    return [f"{label} x{r:.4f}" for label, r in ratios.items()
            if not lo <= r <= hi]
