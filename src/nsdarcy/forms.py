"""Assembly of the variational forms of the coupled free-flow/porous model.

Forms, with (u, p) the fluid velocity/pressure, phi the piezometric head,
n_f = (0, -1) and tau = (1, 0) on the horizontal interface:

    a_p(phi, psi) = (rho g / n) K (grad phi, grad psi)_Omega_p
    a_f(u, v)     = nu (grad u, grad v)_Omega_f
                    + nu alpha / sqrt(nu K) (u . tau, v . tau)_Gamma
    b(v, p)       = -(p, div v)_Omega_f
    c(a, v, w)    = rho ((a . grad) v, w)_Omega_f
    a_Gamma       = rho g (phi v - psi u, n_f)_Gamma

The Newton-type linearization about a state a adds c(a, v, w) + c(v, a, w)
to a_f and c(a, a, w) to the load; the correction step's load carries
c(a, s, w) + c(s, a - s, w) instead.

Linearization states may live on a coarser mesh: they are evaluated at the
target mesh's quadrature points, never projected into the fine space first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import (DiscreteField, DofMap, QuadratureRule, _inverse_transpose,
                  edge_bary, quad_rule_edge, quad_rule_tri, ref_basis_many,
                  sum_in_order)
from .mesh import BoundaryTag, CoupledMesh, TriMesh

EDGE_QUAD_POINTS = 5


@dataclass(frozen=True)
class ModelParams:
    nu: float = 1.0
    rho: float = 1.0
    gravity: float = 1.0
    porosity: float = 1.0
    conductivity: float = 1.0
    alpha_bjs: float = 1.0

    def __post_init__(self):
        for name in ("nu", "rho", "gravity", "porosity", "conductivity",
                     "alpha_bjs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def bjs_coefficient(self) -> float:
        # tau . K tau = K for isotropic K
        return self.nu * self.alpha_bjs / np.sqrt(self.nu * self.conductivity)

    @property
    def darcy_coefficient(self) -> float:
        return self.rho * self.gravity * self.conductivity / self.porosity


class ConvectionMode(enum.Enum):
    PLAIN = "plain"
    NEWTON = "newton"


def assembly_degree(family_tag: str) -> int:
    # degree 5 covers the Mini bubble products; 6 covers Taylor-Hood
    return 6 if family_tag == "P2" else 5


@dataclass(frozen=True, eq=False)
class CellRule:
    """Quadrature on every cell of a dof map's mesh: rule weights (nq,),
    det (nc,), the family's reference values (nloc, nq) and gradients
    (nloc, nq, 2), J^{-T} (nc, 2, 2). Physical points and basis gradients
    are built on each call and not kept, so that a rule held across a
    factorization holds no large array.

    The kernels below contract with explicit loops over the summed indices
    (quadrature point, then component), in the order and with the
    rounding of the numpy.einsum calls they replaced, so every assembled
    value is bitwise what einsum gave (tests/quadrature_reference.py)."""
    dofmap: DofMap
    quad: QuadratureRule
    weights: np.ndarray
    det: np.ndarray
    vals: np.ndarray
    gref: np.ndarray
    jinv_t: np.ndarray

    def points(self) -> np.ndarray:
        """Physical quadrature points (nc, nq, 2)."""
        mesh = self.dofmap.mesh
        bary, verts = self.quad.points, mesh.vertices[mesh.cells]
        return sum_in_order(bary[:, k, None] * verts[:, None, k]
                            for k in range(3))

    def grads(self) -> np.ndarray:
        """Physical basis gradients (nc, nloc, nq, 2)."""
        out = np.empty((len(self.det),) + self.gref.shape)
        for l, g in enumerate(self.gref):
            out[:, l] = sum_in_order(self.jinv_t[:, None, :, e] * g[:, None, e]
                                     for e in range(2))
        return out

    @property
    def wdet(self) -> list:
        """w_q * det per quadrature point q, each (nc,)."""
        return [w * self.det for w in self.weights]

    def mass(self) -> np.ndarray:
        """(basis_j, basis_i) per cell, (nc, nloc, nloc)."""
        v = self.vals
        return sum_in_order((wd[:, None] * v[:, q])[:, :, None] * v[:, q]
                            for q, wd in enumerate(self.wdet))

    def stiffness(self) -> np.ndarray:
        """(grad basis_j, grad basis_i) per cell, (nc, nloc, nloc)."""
        g = self.grads()
        return sum_in_order(
            (wd[:, None, None] * g[:, :, None, q, d]) * g[:, None, :, q, d]
            for q, wd in enumerate(self.wdet) for d in range(2))

    def load(self, f: np.ndarray) -> np.ndarray:
        """(f, basis_i) per cell for values f (nc, nq), (nc, nloc)."""
        return sum_in_order((wd[:, None] * self.vals[:, q]) * f[:, q, None]
                            for q, wd in enumerate(self.wdet))


def cell_rule(dofmap: DofMap, degree: int | None = None) -> CellRule:
    """The rule of the given degree (default: assembly_degree) on the cells
    of dofmap's mesh; every cell map is affine."""
    quad = quad_rule_tri(degree or assembly_degree(dofmap.family.tag))
    verts = dofmap.mesh.vertices[dofmap.mesh.cells]         # (nc, 3, 2)
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    vals, gref = ref_basis_many(dofmap.family, quad.points)
    return CellRule(dofmap=dofmap, quad=quad, weights=quad.weights,
                    det=e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0],
                    vals=vals, gref=gref, jinv_t=_inverse_transpose(verts))


@dataclass(frozen=True, eq=False)
class EdgeRule:
    """Gauss rule on a list of boundary edges: adjacent cells (ne,), the
    cell basis values (ne, nloc, nq), weights (nq,) and edge lengths (ne,),
    whose product is the line measure, and physical points (ne, nq, 2)."""
    cells: np.ndarray
    vals: np.ndarray
    weights: np.ndarray
    length: np.ndarray
    points: np.ndarray


def edge_rule(dofmap: DofMap, edges: np.ndarray, t=None) -> EdgeRule:
    """EDGE_QUAD_POINTS-point Gauss rule on the given boundary edges of
    dofmap's mesh. Given per-edge parameters t (ne, nq) in [0, 1] along each
    edge's stored orientation, basis values and points are taken there
    instead of at the Gauss points; the weights stay the Gauss weights."""
    mesh = dofmap.mesh
    erule = quad_rule_edge(EDGE_QUAD_POINTS)
    t = erule.points if t is None else t
    verts = mesh.vertices[mesh.edge_vertices[edges]]          # (ne, 2, 2)
    v0, d = verts[:, 0], verts[:, 1] - verts[:, 0]
    bary = edge_bary(mesh.edge_local[edges], t)               # (ne, nq, 3)
    vals, _ = ref_basis_many(dofmap.family, bary.reshape(-1, 3))
    return EdgeRule(
        cells=mesh.edge_cells[edges],
        vals=vals.reshape(vals.shape[:1] + bary.shape[:2]).transpose(1, 0, 2),
        weights=erule.weights, length=np.linalg.norm(d, axis=1),
        points=v0[:, None] + np.asarray(t)[..., None] * d[:, None])


def _interface_edges(mesh: TriMesh) -> np.ndarray:
    return np.nonzero(mesh.edge_tags == int(BoundaryTag.INTERFACE))[0]


def _scatter(rows: np.ndarray, cols: np.ndarray, local: np.ndarray,
             shape) -> sp.csr_matrix:
    """Sum the blocks local[..., i, j] into entries (rows[..., i],
    cols[..., j])."""
    r = np.broadcast_to(rows[..., :, None], local.shape)
    c = np.broadcast_to(cols[..., None, :], local.shape)
    return sp.coo_matrix((local.ravel(), (r.ravel(), c.ravel())),
                         shape=shape).tocsr()


def _load(n: int, dofs: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Length-n vector summing local[..., i] into entry dofs[..., i], in
    order."""
    return np.bincount(dofs.ravel(), local.ravel(), minlength=n)


def _cell_load(rule: CellRule, weight: float, fields) -> np.ndarray:
    """Entries weight * (f_e, basis_i) for the components f_e (nc, nq) in
    fields, stacked one block of ndof per component."""
    dm = rule.dofmap
    local = [weight * rule.load(f) for f in fields]
    dofs = [dm.cell_dofs + e * dm.ndof for e in range(len(fields))]
    return _load(len(fields) * dm.ndof, np.concatenate(dofs),
                 np.concatenate(local))


def _symmetrize(A: sp.csr_matrix) -> sp.csr_matrix:
    return (0.5 * (A + A.T)).tocsr()


def assemble_ap(dofmap_phi: DofMap, params: ModelParams) -> sp.csr_matrix:
    """Darcy stiffness (rho g / n) K (grad phi_j, grad phi_i); symmetric."""
    rule = cell_rule(dofmap_phi)
    loc = params.darcy_coefficient * rule.stiffness()
    cd, n = dofmap_phi.cell_dofs, dofmap_phi.ndof
    return _symmetrize(_scatter(cd, cd, loc, (n, n)))


def assemble_af(dofmap_v: DofMap, params: ModelParams) -> sp.csr_matrix:
    """Viscous block nu (grad u, grad v) plus the slip penalty on the
    interface, nu alpha/sqrt(nu K) (u.tau)(v.tau); block-diagonal over the
    two velocity components, tangential term on component 0 only."""
    rule = cell_rule(dofmap_v)
    loc = params.nu * rule.stiffness()
    edges = edge_rule(dofmap_v, _interface_edges(dofmap_v.mesh))
    slip = (params.bjs_coefficient * edges.length)[:, None, None] \
        * np.einsum("q,eiq,ejq->eij", edges.weights, edges.vals, edges.vals)
    cd, nd = dofmap_v.cell_dofs, dofmap_v.ndof
    dofs = np.concatenate([cd, cd + nd, cd[edges.cells]])
    A = _scatter(dofs, dofs, np.concatenate([loc, loc, slip]),
                 (2 * nd, 2 * nd))
    return _symmetrize(A)


def assemble_b(dofmap_v: DofMap, dofmap_q: DofMap) -> sp.csr_matrix:
    """Divergence constraint, entry (q_i, v_j) = -(q_i, d v_j / d x_d)."""
    rule = cell_rule(dofmap_v)
    qvals, _ = ref_basis_many(dofmap_q.family, rule.quad.points)
    # loc[c, i, j, d] for pressure i, velocity j, component d
    g = rule.grads()
    loc = -sum_in_order((wd[:, None] * qvals[:, q])[:, :, None, None]
                        * g[:, None, :, q] for q, wd in enumerate(rule.wdet))
    cq, cv, nv = dofmap_q.cell_dofs, dofmap_v.cell_dofs, dofmap_v.ndof
    return _scatter(np.concatenate([cq, cq]), np.concatenate([cv, cv + nv]),
                    np.concatenate([loc[..., 0], loc[..., 1]]),
                    (dofmap_q.ndof, 2 * nv))


def assemble_mass(dofmap: DofMap, degree: int | None = None) -> sp.csr_matrix:
    loc = cell_rule(dofmap, degree).mass()
    cd, n = dofmap.cell_dofs, dofmap.ndof
    return _symmetrize(_scatter(cd, cd, loc, (n, n)))


@dataclass(frozen=True, eq=False)
class QuadState:
    """A velocity field at a cell rule's points: values (nc, nq, 2) and,
    unless left out, gradients (nc, nq, 2, 2) with entry [e, d] =
    d(component e)/d(x_d)."""
    rule: CellRule
    vals: np.ndarray
    grads: np.ndarray | None


def quad_state(field: DiscreteField, rule: CellRule,
               grads: bool = True) -> QuadState:
    """The velocity `field` at the rule's points; a field of the rule's own
    space is evaluated with the rule's basis, any other through one point
    location shared by its values and gradients."""
    dm, fm, mesh = field.dofmap, field.dofmap.mesh, rule.dofmap.mesh
    if dm.family == rule.dofmap.family and (fm is mesh or (
            fm.n == mesh.n and fm.subdomain is mesh.subdomain
            and fm.origin == mesh.origin)):
        gathered = field.coefficients.reshape(2, -1)[:, dm.cell_dofs]  # (2,nc,nl)
        nloc = len(rule.vals)
        v = sum_in_order(gathered[:, :, l].T[:, None, :]
                         * rule.vals[l, None, :, None] for l in range(nloc))
        if not grads:
            return QuadState(rule, v, None)
        basis = rule.grads()
        g = sum_in_order(gathered[:, :, l].T[:, None, :, None]
                         * basis[:, l, :, None, :] for l in range(nloc))
        return QuadState(rule, v, g)
    points = rule.points()
    nc, nq = points.shape[:2]
    flat = points.reshape(-1, 2)
    located = fm.locate_many(flat)
    v = field.eval_many(flat, located).reshape(nc, nq, 2)
    g = field.eval_grad_many(flat, located).reshape(nc, nq, 2, 2) \
        if grads else None
    return QuadState(rule, v, g)


def _convect(a: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """(a . grad) b per point, (nc, nq, 2), for values a (nc, nq, 2) and
    gradients grads (nc, nq, 2, 2) of b."""
    return sum_in_order(a[:, :, None, d] * grads[:, :, :, d]
                        for d in range(2))


def assemble_convection(state: QuadState, mode: ConvectionMode,
                        params: ModelParams):
    """Convection operator linearized about `state`, on its rule's space.

    PLAIN: matrix with entries c(state, basis_j, basis_i) -- the fixed-point
    operator. NEWTON: adds c(basis_j, state, basis_i) and returns the load
    with entries c(state, state, basis_i) as the second element (PLAIN
    returns None there).
    """
    rule = state.rule
    newton = mode is ConvectionMode.NEWTON
    a_vals, a_grads = state.vals, state.grads
    vals, g, rho = rule.vals, rule.grads(), params.rho

    # (a . grad basis_j, basis_i), identical on both diagonal blocks;
    # blocks are (row component, column component, local matrices)
    n1 = rho * sum_in_order(
        ((wd[:, None] * vals[:, q])[:, :, None] * g[:, None, :, q, d])
        * a_vals[:, q, d, None, None]
        for q, wd in enumerate(rule.wdet) for d in range(2))
    blocks = [(0, 0, n1), (1, 1, n1)]
    load = None
    if newton:
        # (basis_j . grad state_e, basis_i): couples the components; the
        # four blocks [e, d] share the product of the two basis values
        nb = sum_in_order(
            ((wd[:, None] * vals[:, q])[:, :, None] * vals[:, q])
            * a_grads[:, q].transpose(1, 2, 0)[..., None, None]
            for q, wd in enumerate(rule.wdet))
        blocks += [(e, d, rho * nb[e, d]) for e in range(2) for d in range(2)]
        conv = _convect(a_vals, a_grads)  # (a.grad)a
        load = _cell_load(rule, rho, (conv[:, :, 0], conv[:, :, 1]))

    dm = rule.dofmap
    cd, nd = dm.cell_dofs, dm.ndof
    N = _scatter(np.concatenate([cd + e * nd for e, _, _ in blocks]),
                 np.concatenate([cd + d * nd for _, d, _ in blocks]),
                 np.concatenate([loc for _, _, loc in blocks]),
                 (2 * nd, 2 * nd))
    return N, load


def assemble_correction_load(coarse_state: QuadState,
                             intermediate: DiscreteField,
                             params: ModelParams) -> np.ndarray:
    """Load with entries c(a, s, v_i) + c(s, a - s, v_i) for the correction
    solve, on the rule's space; a = coarse_state, s = intermediate."""
    rule = coarse_state.rule
    a_vals, a_grads = coarse_state.vals, coarse_state.grads
    s = quad_state(intermediate, rule)
    integrand = (_convect(a_vals, s.grads)
                 + _convect(s.vals, a_grads - s.grads))
    return _cell_load(rule, params.rho, (integrand[:, :, 0],
                                         integrand[:, :, 1]))


def assemble_interface_coupling(coupled_mesh: CoupledMesh, dofmap_v: DofMap,
                                dofmap_phi: DofMap, params: ModelParams):
    """Skew coupling pair: C_vphi with entries rho g (phi_j, v_i . n_f)_Gamma
    and C_phiu = -C_vphi^T (entrywise, so the quadratic form cancels
    exactly). With n_f = (0, -1) only vertical velocity dofs appear."""
    ef, ep = np.array(coupled_mesh.interface_pairs).reshape(-1, 2).T
    fluid = edge_rule(dofmap_v, ef)
    # the porous edges run the other way: take their parameter from x
    porous = coupled_mesh.porous
    pv = porous.vertices[porous.edge_vertices[ep], 0]             # (ne, 2)
    s = (fluid.points[..., 0] - pv[:, :1]) / (pv[:, 1:] - pv[:, :1])
    head = edge_rule(dofmap_phi, ep, s)
    # v . n_f = -v_y
    loc = (-params.rho * params.gravity * fluid.length)[:, None, None] \
        * np.einsum("q,eiq,ejq->eij", fluid.weights, fluid.vals, head.vals)
    C_vphi = _scatter(dofmap_v.cell_dofs[fluid.cells] + dofmap_v.ndof,
                      dofmap_phi.cell_dofs[head.cells], loc,
                      (2 * dofmap_v.ndof, dofmap_phi.ndof))
    C_phiu = (-C_vphi.T).tocsr()
    return C_vphi, C_phiu


def assemble_interface_load_darcy(dofmap_phi: DofMap,
                                  velocity_source: DiscreteField,
                                  params: ModelParams) -> np.ndarray:
    """Entries rho g (psi_i, u_src . n_f)_Gamma; the source velocity lives on
    a fluid mesh (any level) and is evaluated at the edge quadrature points."""
    edges = edge_rule(dofmap_phi, _interface_edges(dofmap_phi.mesh))
    u = velocity_source.eval_many(edges.points.reshape(-1, 2))
    flux = -u[:, 1].reshape(edges.points.shape[:2])  # u . n_f
    le = (params.rho * params.gravity * edges.length)[:, None] \
        * np.einsum("q,eiq,eq->ei", edges.weights, edges.vals, flux)
    return _load(dofmap_phi.ndof, dofmap_phi.cell_dofs[edges.cells], le)


def assemble_interface_load_ns(dofmap_v: DofMap, head_source: DiscreteField,
                               params: ModelParams) -> np.ndarray:
    """Entries -rho g (phi_src, v_i . n_f)_Gamma = +rho g (phi_src, v_iy)."""
    edges = edge_rule(dofmap_v, _interface_edges(dofmap_v.mesh))
    phi = head_source.eval_many(edges.points.reshape(-1, 2)) \
        .reshape(edges.points.shape[:2])
    le = (params.rho * params.gravity * edges.length)[:, None] \
        * np.einsum("q,eiq,eq->ei", edges.weights, edges.vals, phi)
    nd = dofmap_v.ndof
    return _load(2 * nd, dofmap_v.cell_dofs[edges.cells] + nd, le)


def assemble_volume_load(dofmap: DofMap, f, weight: float = 1.0,
                         degree: int | None = None) -> np.ndarray:
    """Entries weight * (f, basis_i); f(x, y) returns one array for scalar
    families or a pair of arrays for vector families."""
    rule = cell_rule(dofmap, degree)
    points = rule.points()
    x, y = points[..., 0], points[..., 1]
    fq = f(x, y)
    if dofmap.family.components == 1:
        fq = (fq,)
    return _cell_load(rule, weight,
                      [np.broadcast_to(fe, x.shape) for fe in fq])
