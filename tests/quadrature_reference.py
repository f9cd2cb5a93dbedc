"""The numpy.einsum contractions that `nsdarcy.forms`, `nsdarcy.fem` and
`nsdarcy.mms` replaced by explicit loops, kept as the oracle the package
is checked against, with every cell's det and J^{-T} computed from its own
vertices as the package once did.

Still bit for bit, with the package's per-shape values gathered by the
shape index where they are per shape: the physical points (the package
gives them per row and column of the cell grid, `CellRule.axes`), the basis
gradients, the mass and stiffness blocks, the cell loads (volume, Newton
and correction loads), and the field values and gradients at points.
To 1e-14 of the largest entry, because they are summed in another order:
the static matrices `a_p`, `a_f`, `b` and mass, which the package sums
into a fixed pattern with `np.bincount` in cell order where COO->CSR
sorted first, and symmetrizes on the pattern's data (bit for bit when n
is a power of two, but for a few slip entries of `a_f`);
the convection matrix, which the package computes by products against
reference tensors; and the error norms, which the package contracts by
matrix products, per shape for the gradients.

Each function below holds the replaced expressions unchanged; only the
cached `CellRule.points` and `CellRule.grads` became the functions
`points(rule)` and `grads(rule)`, and `det` and `jinv_t` of the old
per-cell rule the function `cell_maps(rule)`. Everything the rewrite did
not touch (the edge rules, the load scatter) is taken from the package,
so a difference can only come from a replaced kernel. The COO scatter and
the assembled symmetrization the package no longer has are kept here.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from nsdarcy.fem import DiscreteField, ref_basis_many
from nsdarcy.forms import (CellRule, ConvectionMode, ModelParams, _load,
                           cell_rule, edge_rule)
from nsdarcy.mms import ErrorReport


def _scatter(rows, cols, local, shape) -> sp.csr_matrix:
    r = np.broadcast_to(rows[..., :, None], local.shape)
    c = np.broadcast_to(cols[..., None, :], local.shape)
    return sp.coo_matrix((local.ravel(), (r.ravel(), c.ravel())),
                         shape=shape).tocsr()


def _symmetrize(A) -> sp.csr_matrix:
    return (0.5 * (A + A.T)).tocsr()


def _inverse_transpose(cell_verts: np.ndarray) -> np.ndarray:
    """J^{-T} of the affine reference map for each cell; shape (m, 2, 2)."""
    e1 = cell_verts[..., 1, :] - cell_verts[..., 0, :]
    e2 = cell_verts[..., 2, :] - cell_verts[..., 0, :]
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    out = np.empty(cell_verts.shape[:-2] + (2, 2))
    out[..., 0, 0] = e2[..., 1]
    out[..., 0, 1] = -e1[..., 1]
    out[..., 1, 0] = -e2[..., 0]
    out[..., 1, 1] = e1[..., 0]
    return out / det[..., None, None]


def cell_maps(rule: CellRule):
    """det (nc,) and J^{-T} (nc, 2, 2) of every cell of the rule's mesh."""
    mesh = rule.dofmap.mesh
    verts = mesh.vertices[mesh.cells]
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    return e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0], _inverse_transpose(verts)


def points(rule: CellRule) -> np.ndarray:
    mesh = rule.dofmap.mesh
    return np.einsum("qk,ckd->cqd", rule.quad.points,
                     mesh.vertices[mesh.cells])


def grads(rule: CellRule) -> np.ndarray:
    return np.einsum("cde,lqe->clqd", cell_maps(rule)[1], rule.gref)


def eval_many(field: DiscreteField, pts: np.ndarray) -> np.ndarray:
    cells, bary = field.dofmap.mesh.locate_many(pts)
    vals, _ = ref_basis_many(field.dofmap.family, bary)
    dofs = field.dofmap.cell_dofs[cells]
    if field.components == 1:
        return np.einsum("ml,lm->m", field.coefficients[dofs], vals)
    out = np.empty((pts.shape[0], 2))
    for d in range(2):
        out[:, d] = np.einsum("ml,lm->m", field.component_view(d)[dofs], vals)
    return out


def eval_grad_many(field: DiscreteField, pts: np.ndarray) -> np.ndarray:
    mesh = field.dofmap.mesh
    cells, bary = mesh.locate_many(pts)
    _, gref = ref_basis_many(field.dofmap.family, bary)
    v = mesh.vertices[mesh.cells[cells]]
    jinv_t = _inverse_transpose(v)
    gphys = np.einsum("mde,lme->lmd", jinv_t, gref)
    dofs = field.dofmap.cell_dofs[cells]
    if field.components == 1:
        return np.einsum("ml,lmd->md", field.coefficients[dofs], gphys)
    out = np.empty((pts.shape[0], 2, 2))
    for d in range(2):
        out[:, d, :] = np.einsum(
            "ml,lme->me", field.component_view(d)[dofs], gphys)
    return out


def cell_load(rule: CellRule, weight: float, fields) -> np.ndarray:
    dm = rule.dofmap
    det = cell_maps(rule)[0]
    local = [weight * np.einsum("q,c,iq,cq->ci", rule.weights, det,
                                rule.vals, f) for f in fields]
    dofs = [dm.cell_dofs + e * dm.ndof for e in range(len(fields))]
    return _load(len(fields) * dm.ndof, np.concatenate(dofs),
                 np.concatenate(local))


def stiffness(rule: CellRule) -> np.ndarray:
    g = grads(rule)
    return np.einsum("q,c,ciqd,cjqd->cij", rule.weights, cell_maps(rule)[0],
                     g, g)


def mass(rule: CellRule) -> np.ndarray:
    return np.einsum("q,c,iq,jq->cij", rule.weights, cell_maps(rule)[0],
                     rule.vals, rule.vals)


def assemble_ap(dofmap_phi, params: ModelParams):
    loc = params.darcy_coefficient * stiffness(cell_rule(dofmap_phi))
    cd, n = dofmap_phi.cell_dofs, dofmap_phi.ndof
    return _symmetrize(_scatter(cd, cd, loc, (n, n)))


def assemble_af(dofmap_v, params: ModelParams):
    rule = cell_rule(dofmap_v)
    g = grads(rule)
    loc = params.nu * np.einsum("q,c,ciqd,cjqd->cij", rule.weights,
                                cell_maps(rule)[0], g, g)
    edges = edge_rule(dofmap_v)
    slip = (params.bjs_coefficient * edges.length)[:, None, None] \
        * np.einsum("q,eiq,ejq->eij", edges.weights, edges.vals, edges.vals)
    cd, nd = dofmap_v.cell_dofs, dofmap_v.ndof
    dofs = np.concatenate([cd, cd + nd, cd[edges.cells]])
    A = _scatter(dofs, dofs, np.concatenate([loc, loc, slip]),
                 (2 * nd, 2 * nd))
    return _symmetrize(A)


def assemble_b(dofmap_v, dofmap_q):
    rule = cell_rule(dofmap_v)
    qvals, _ = ref_basis_many(dofmap_q.family, rule.quad.points)
    loc = -np.einsum("q,c,iq,cjqd->cijd", rule.weights, cell_maps(rule)[0],
                     qvals, grads(rule))
    cq, cv, nv = dofmap_q.cell_dofs, dofmap_v.cell_dofs, dofmap_v.ndof
    return _scatter(np.concatenate([cq, cq]), np.concatenate([cv, cv + nv]),
                    np.concatenate([loc[..., 0], loc[..., 1]]),
                    (dofmap_q.ndof, 2 * nv))


def state_on_quad(field: DiscreteField, rule: CellRule, want_grad: bool):
    dm, fm, mesh = field.dofmap, field.dofmap.mesh, rule.dofmap.mesh
    if dm.family == rule.dofmap.family and (fm is mesh or (
            fm.n == mesh.n and fm.subdomain is mesh.subdomain
            and fm.origin == mesh.origin)):
        gathered = field.coefficients.reshape(2, -1)[:, dm.cell_dofs]
        v = np.einsum("dcl,lq->cqd", gathered, rule.vals)
        if not want_grad:
            return v, None
        return v, np.einsum("ecl,clqd->cqed", gathered, grads(rule))
    pts = points(rule)
    nc, nq = pts.shape[:2]
    flat = pts.reshape(-1, 2)
    v = eval_many(field, flat).reshape(nc, nq, 2)
    g = eval_grad_many(field, flat).reshape(nc, nq, 2, 2) \
        if want_grad else None
    return v, g


def assemble_convection(dofmap_v, state: DiscreteField, mode, params,
                        degree=None):
    rule = cell_rule(dofmap_v, degree)
    newton = mode is ConvectionMode.NEWTON
    a_vals, a_grads = state_on_quad(state, rule, want_grad=newton)
    w, det, vals, rho = rule.weights, cell_maps(rule)[0], rule.vals, params.rho
    n1 = rho * np.einsum("q,c,iq,cjqd,cqd->cij", w, det, vals, grads(rule),
                         a_vals)
    blocks = [(0, 0, n1), (1, 1, n1)]
    load = None
    if newton:
        blocks += [(e, d, rho * np.einsum("q,c,iq,jq,cq->cij", w, det, vals,
                                          vals, a_grads[:, :, e, d]))
                   for e in range(2) for d in range(2)]
        conv = np.einsum("cqd,cqed->cqe", a_vals, a_grads)
        load = cell_load(rule, rho, (conv[:, :, 0], conv[:, :, 1]))
    cd, nd = dofmap_v.cell_dofs, dofmap_v.ndof
    N = _scatter(np.concatenate([cd + e * nd for e, _, _ in blocks]),
                 np.concatenate([cd + d * nd for _, d, _ in blocks]),
                 np.concatenate([loc for _, _, loc in blocks]),
                 (2 * nd, 2 * nd))
    return N, load


def assemble_correction_load(dofmap_v, coarse_state, intermediate, params,
                             degree=None):
    rule = cell_rule(dofmap_v, degree)
    a_vals, a_grads = state_on_quad(coarse_state, rule, True)
    s_vals, s_grads = state_on_quad(intermediate, rule, True)
    integrand = (np.einsum("cqd,cqed->cqe", a_vals, s_grads)
                 + np.einsum("cqd,cqed->cqe", s_vals, a_grads - s_grads))
    return cell_load(rule, params.rho, (integrand[:, :, 0],
                                        integrand[:, :, 1]))


def assemble_volume_load(dofmap, f, weight=1.0, degree=None):
    rule = cell_rule(dofmap, degree)
    pts = points(rule)
    x, y = pts[..., 0], pts[..., 1]
    fq = f(x, y)
    if dofmap.family.components == 1:
        fq = (fq,)
    return cell_load(rule, weight, [np.broadcast_to(fe, x.shape) for fe in fq])


def _l2_error(rule, coeffs, exact) -> float:
    num = np.einsum("cl,lq->cq", coeffs[rule.dofmap.cell_dofs], rule.vals)
    diff2 = (num - exact) ** 2
    return float(np.sqrt(np.einsum("q,c,cq->", rule.weights,
                                   cell_maps(rule)[0], diff2)))


def _h1_error(rule, coeffs, exact_grad) -> float:
    det, jinv_t = cell_maps(rule)
    gnum = np.matmul(
        np.einsum("cl,lqe->cqe", coeffs[rule.dofmap.cell_dofs], rule.gref),
        jinv_t.transpose(0, 2, 1))
    gx, gy = exact_grad
    gdiff2 = (gnum[..., 0] - gx) ** 2 + (gnum[..., 1] - gy) ** 2
    return float(np.sqrt(np.einsum("q,c,cq->", rule.weights, det, gdiff2)))


def error_norms(state, mms, quad_degree: int = 8) -> ErrorReport:
    dv = state.velocity.dofmap
    nd = dv.ndof
    parts = (state.velocity.coefficients[:nd], state.velocity.coefficients[nd:])
    rule = cell_rule(dv, quad_degree)
    pts = points(rule)
    xy = (pts[..., 0], pts[..., 1])
    l2 = [_l2_error(rule, c, e) for c, e in zip(parts, mms.velocity(*xy))]
    h1 = [_h1_error(rule, c, g)
          for c, g in zip(parts, mms.velocity_grad(*xy))]
    errs = {("u", "L2"): l2[0], ("u", "H1"): h1[0],
            ("v", "L2"): l2[1], ("v", "H1"): h1[1]}
    rule = cell_rule(state.pressure.dofmap, quad_degree)
    pts = points(rule)
    errs[("p", "L2")] = _l2_error(rule, state.pressure.coefficients,
                                  mms.pressure(pts[..., 0], pts[..., 1]))
    rule = cell_rule(state.head.dofmap, quad_degree)
    pts = points(rule)
    xy = (pts[..., 0], pts[..., 1])
    errs[("phi", "L2")] = _l2_error(rule, state.head.coefficients,
                                    mms.head(*xy))
    errs[("phi", "H1")] = _h1_error(rule, state.head.coefficients,
                                    mms.head_grad(*xy))
    return ErrorReport(n=dv.mesh.n, errors=errs)
