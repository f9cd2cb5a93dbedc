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

from .fem import (DiscreteField, DofMap, _inverse_transpose, edge_bary,
                  quad_rule_edge, quad_rule_tri, ref_basis_many)
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


def _geometry(mesh: TriMesh):
    verts = mesh.vertices[mesh.cells]                       # (nc, 3, 2)
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    return _inverse_transpose(verts), det


def _basis_and_grads(dofmap: DofMap, quad):
    """Scalar basis values (nloc, nq) and physical gradients (nc, nloc, nq, 2)."""
    vals, gref = ref_basis_many(dofmap.family, quad.points)
    jinv_t, det = _geometry(dofmap.mesh)
    gphys = np.einsum("cde,lqe->clqd", jinv_t, gref)
    return vals, gphys, det


def _quad_points(mesh: TriMesh, quad) -> np.ndarray:
    """Physical quadrature point coordinates, shape (nc, nq, 2)."""
    verts = mesh.vertices[mesh.cells]
    return np.einsum("qk,ckd->cqd", quad.points, verts)


def _scatter(dofmap: DofMap, local: np.ndarray, shape) -> sp.csr_matrix:
    rows = np.broadcast_to(dofmap.cell_dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofmap.cell_dofs[:, None, :], local.shape)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=shape).tocsr()


def _symmetrize(A: sp.csr_matrix) -> sp.csr_matrix:
    return (0.5 * (A + A.T)).tocsr()


def assemble_ap(mesh_p: TriMesh, dofmap_phi: DofMap, params: ModelParams,
                degree: int | None = None) -> sp.csr_matrix:
    """Darcy stiffness (rho g / n) K (grad phi_j, grad phi_i); symmetric."""
    quad = quad_rule_tri(degree or assembly_degree(dofmap_phi.family.tag))
    _, gphys, det = _basis_and_grads(dofmap_phi, quad)
    loc = params.darcy_coefficient * np.einsum(
        "q,c,ciqd,cjqd->cij", quad.weights, det, gphys, gphys)
    n = dofmap_phi.ndof
    return _symmetrize(_scatter(dofmap_phi, loc, (n, n)))


def assemble_af(mesh_f: TriMesh, dofmap_v: DofMap, params: ModelParams,
                degree: int | None = None) -> sp.csr_matrix:
    """Viscous block nu (grad u, grad v) plus the slip penalty on the
    interface, nu alpha/sqrt(nu K) (u.tau)(v.tau); block-diagonal over the
    two velocity components, tangential term on component 0 only."""
    quad = quad_rule_tri(degree or assembly_degree(dofmap_v.family.tag))
    _, gphys, det = _basis_and_grads(dofmap_v, quad)
    loc = params.nu * np.einsum("q,c,ciqd,cjqd->cij",
                                quad.weights, det, gphys, gphys)
    nd = dofmap_v.ndof
    rows = np.broadcast_to(dofmap_v.cell_dofs[:, :, None], loc.shape).ravel()
    cols = np.broadcast_to(dofmap_v.cell_dofs[:, None, :], loc.shape).ravel()
    data = np.concatenate([loc.ravel(), loc.ravel()])
    i_idx = np.concatenate([rows, rows + nd])
    j_idx = np.concatenate([cols, cols + nd])

    erule = quad_rule_edge(EDGE_QUAD_POINTS)
    coeff = params.bjs_coefficient
    mesh = dofmap_v.mesh
    ebits = []
    for e in np.nonzero(mesh.edge_tags == int(BoundaryTag.INTERFACE))[0]:
        cell = mesh.edge_cells[e]
        bary = edge_bary(mesh.edge_local[e], erule.points)
        vals, _ = ref_basis_many(dofmap_v.family, bary)     # (nloc, nq)
        v0, v1 = mesh.vertices[mesh.edge_vertices[e]]
        length = np.linalg.norm(v1 - v0)
        mloc = coeff * length * np.einsum("q,iq,jq->ij", erule.weights,
                                          vals, vals)
        dofs = dofmap_v.cell_dofs[cell]
        er = np.broadcast_to(dofs[:, None], mloc.shape).ravel()
        ec = np.broadcast_to(dofs[None, :], mloc.shape).ravel()
        ebits.append((er, ec, mloc.ravel()))
    if ebits:
        i_idx = np.concatenate([i_idx] + [b[0] for b in ebits])
        j_idx = np.concatenate([j_idx] + [b[1] for b in ebits])
        data = np.concatenate([data] + [b[2] for b in ebits])

    A = sp.coo_matrix((data, (i_idx, j_idx)), shape=(2 * nd, 2 * nd)).tocsr()
    return _symmetrize(A)


def assemble_b(mesh_f: TriMesh, dofmap_v: DofMap, dofmap_q: DofMap,
               degree: int | None = None) -> sp.csr_matrix:
    """Divergence constraint, entry (q_i, v_j) = -(q_i, d v_j / d x_d)."""
    quad = quad_rule_tri(degree or assembly_degree(dofmap_v.family.tag))
    qvals, _ = ref_basis_many(dofmap_q.family, quad.points)
    _, gphys, det = _basis_and_grads(dofmap_v, quad)
    # loc[c, i, j, d] for pressure i, velocity j, component d
    loc = -np.einsum("q,c,iq,cjqd->cijd", quad.weights, det, qvals, gphys)
    nq_, nv = dofmap_q.ndof, dofmap_v.ndof
    rows = np.broadcast_to(dofmap_q.cell_dofs[:, :, None], loc.shape[:3])
    cols = np.broadcast_to(dofmap_v.cell_dofs[:, None, :], loc.shape[:3])
    i_idx = np.concatenate([rows.ravel(), rows.ravel()])
    j_idx = np.concatenate([cols.ravel(), cols.ravel() + nv])
    data = np.concatenate([loc[..., 0].ravel(), loc[..., 1].ravel()])
    return sp.coo_matrix((data, (i_idx, j_idx)),
                         shape=(nq_, 2 * nv)).tocsr()


def assemble_mass(dofmap: DofMap, degree: int | None = None) -> sp.csr_matrix:
    quad = quad_rule_tri(degree or assembly_degree(dofmap.family.tag))
    vals, _ = ref_basis_many(dofmap.family, quad.points)
    _, det = _geometry(dofmap.mesh)
    loc = np.einsum("q,c,iq,jq->cij", quad.weights, det, vals, vals)
    n = dofmap.ndof
    return _symmetrize(_scatter(dofmap, loc, (n, n)))


def _same_mesh(field: DiscreteField, mesh: TriMesh) -> bool:
    fm = field.dofmap.mesh
    return fm is mesh or (fm.n == mesh.n and fm.subdomain is mesh.subdomain
                          and fm.origin == mesh.origin)


def _state_on_quad(field: DiscreteField, mesh: TriMesh, quad,
                   phys: np.ndarray, want_grad: bool):
    """Velocity state values (nc, nq, 2) and gradients (nc, nq, 2, 2) at the
    target quadrature points; same-mesh states are evaluated directly, coarse
    states through point location."""
    nc, nq = phys.shape[:2]
    if _same_mesh(field, mesh):
        dm = field.dofmap
        vals, gref = ref_basis_many(dm.family, quad.points)
        gathered = field.coefficients.reshape(2, -1)[:, dm.cell_dofs]  # (2,nc,nl)
        v = np.einsum("dcl,lq->cqd", gathered, vals)
        if not want_grad:
            return v, None
        jinv_t, _ = _geometry(mesh)
        gphys = np.einsum("cde,lqe->clqd", jinv_t, gref)
        g = np.einsum("ecl,clqd->cqed", gathered, gphys)
        return v, g
    flat = phys.reshape(-1, 2)
    v = field.eval_many(flat).reshape(nc, nq, 2)
    g = field.eval_grad_many(flat).reshape(nc, nq, 2, 2) if want_grad else None
    return v, g


def assemble_convection(dofmap_v: DofMap, state: DiscreteField,
                        mode: ConvectionMode, params: ModelParams,
                        degree: int | None = None):
    """Convection operator linearized about `state`.

    PLAIN: matrix with entries c(state, basis_j, basis_i) -- the fixed-point
    operator. NEWTON: adds c(basis_j, state, basis_i) and returns the load
    with entries c(state, state, basis_i) as the second element (PLAIN
    returns None there).
    """
    mesh = dofmap_v.mesh
    quad = quad_rule_tri(degree or assembly_degree(dofmap_v.family.tag))
    vals, gphys, det = _basis_and_grads(dofmap_v, quad)
    phys = _quad_points(mesh, quad)
    newton = mode is ConvectionMode.NEWTON
    a_vals, a_grads = _state_on_quad(state, mesh, quad, phys, want_grad=newton)
    rho = params.rho
    nd = dofmap_v.ndof

    # (a . grad basis_j, basis_i), identical on both diagonal blocks
    n1 = rho * np.einsum("q,c,iq,cjqd,cqd->cij",
                         quad.weights, det, vals, gphys, a_vals)
    rows = np.broadcast_to(dofmap_v.cell_dofs[:, :, None], n1.shape).ravel()
    cols = np.broadcast_to(dofmap_v.cell_dofs[:, None, :], n1.shape).ravel()
    i_idx = [rows, rows + nd]
    j_idx = [cols, cols + nd]
    data = [n1.ravel(), n1.ravel()]

    load = None
    if newton:
        # (basis_j . grad state_e, basis_i): couples the components
        for e in range(2):
            for d in range(2):
                n2 = rho * np.einsum("q,c,iq,jq,cq->cij", quad.weights, det,
                                     vals, vals, a_grads[:, :, e, d])
                i_idx.append(rows + e * nd)
                j_idx.append(cols + d * nd)
                data.append(n2.ravel())
        load = np.zeros(2 * nd)
        conv = np.einsum("cqd,cqed->cqe", a_vals, a_grads)  # (a.grad)a
        for e in range(2):
            le = rho * np.einsum("q,c,iq,cq->ci",
                                 quad.weights, det, vals, conv[:, :, e])
            np.add.at(load, dofmap_v.cell_dofs + e * nd, le)

    N = sp.coo_matrix((np.concatenate(data),
                       (np.concatenate(i_idx), np.concatenate(j_idx))),
                      shape=(2 * nd, 2 * nd)).tocsr()
    return N, load


def assemble_correction_load(dofmap_v: DofMap, coarse_state: DiscreteField,
                             intermediate: DiscreteField, params: ModelParams,
                             degree: int | None = None) -> np.ndarray:
    """Load with entries c(a, s, v_i) + c(s, a - s, v_i) for the correction
    solve; a = coarse_state (evaluated cross-mesh), s = intermediate."""
    mesh = dofmap_v.mesh
    quad = quad_rule_tri(degree or assembly_degree(dofmap_v.family.tag))
    vals, _, det = _basis_and_grads(dofmap_v, quad)
    phys = _quad_points(mesh, quad)
    a_vals, a_grads = _state_on_quad(coarse_state, mesh, quad, phys, True)
    s_vals, s_grads = _state_on_quad(intermediate, mesh, quad, phys, True)

    integrand = (np.einsum("cqd,cqed->cqe", a_vals, s_grads)
                 + np.einsum("cqd,cqed->cqe", s_vals, a_grads - s_grads))
    nd = dofmap_v.ndof
    load = np.zeros(2 * nd)
    for e in range(2):
        le = params.rho * np.einsum("q,c,iq,cq->ci", quad.weights, det,
                                    vals, integrand[:, :, e])
        np.add.at(load, dofmap_v.cell_dofs + e * nd, le)
    return load


def trilinear_c(a: DiscreteField, v: DiscreteField, w: DiscreteField,
                params: ModelParams, degree: int = 5) -> float:
    """Quadrature value of c(a, v, w) = rho ((a.grad) v, w) on v's mesh."""
    mesh = v.dofmap.mesh
    quad = quad_rule_tri(degree)
    _, det = _geometry(mesh)
    phys = _quad_points(mesh, quad)
    a_vals, _ = _state_on_quad(a, mesh, quad, phys, False)
    _, v_grads = _state_on_quad(v, mesh, quad, phys, True)
    w_vals, _ = _state_on_quad(w, mesh, quad, phys, False)
    conv = np.einsum("cqd,cqed->cqe", a_vals, v_grads)
    return params.rho * float(np.einsum("q,c,cqe,cqe->",
                                        quad.weights, det, conv, w_vals))


def _interface_edges(mesh: TriMesh) -> np.ndarray:
    return np.nonzero(mesh.edge_tags == int(BoundaryTag.INTERFACE))[0]


def assemble_interface_coupling(coupled_mesh: CoupledMesh, dofmap_v: DofMap,
                                dofmap_phi: DofMap, params: ModelParams):
    """Skew coupling pair: C_vphi with entries rho g (phi_j, v_i . n_f)_Gamma
    and C_phiu = -C_vphi^T (entrywise, so the quadratic form cancels
    exactly). With n_f = (0, -1) only vertical velocity dofs appear."""
    fluid, porous = coupled_mesh.fluid, coupled_mesh.porous
    erule = quad_rule_edge(EDGE_QUAD_POINTS)
    rho_g = params.rho * params.gravity
    nd = dofmap_v.ndof
    i_idx, j_idx, data = [], [], []
    for ef, ep in coupled_mesh.interface_pairs:
        fv = fluid.vertices[fluid.edge_vertices[ef]]
        pv = porous.vertices[porous.edge_vertices[ep]]
        length = np.linalg.norm(fv[1] - fv[0])
        x_q = fv[0, 0] + erule.points * (fv[1, 0] - fv[0, 0])
        s_q = (x_q - pv[0, 0]) / (pv[1, 0] - pv[0, 0])
        fbary = edge_bary(fluid.edge_local[ef], erule.points)
        pbary = edge_bary(porous.edge_local[ep], s_q)
        v_vals, _ = ref_basis_many(dofmap_v.family, fbary)
        phi_vals, _ = ref_basis_many(dofmap_phi.family, pbary)
        # v . n_f = -v_y
        mloc = -rho_g * length * np.einsum("q,iq,jq->ij", erule.weights,
                                           v_vals, phi_vals)
        vd = dofmap_v.cell_dofs[fluid.edge_cells[ef]] + nd
        pd = dofmap_phi.cell_dofs[porous.edge_cells[ep]]
        i_idx.append(np.broadcast_to(vd[:, None], mloc.shape).ravel())
        j_idx.append(np.broadcast_to(pd[None, :], mloc.shape).ravel())
        data.append(mloc.ravel())
    C_vphi = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(i_idx), np.concatenate(j_idx))),
        shape=(2 * nd, dofmap_phi.ndof)).tocsr()
    C_phiu = (-C_vphi.T).tocsr()
    return C_vphi, C_phiu


def assemble_interface_load_darcy(dofmap_phi: DofMap,
                                  velocity_source: DiscreteField,
                                  params: ModelParams) -> np.ndarray:
    """Entries rho g (psi_i, u_src . n_f)_Gamma; the source velocity lives on
    a fluid mesh (any level) and is evaluated at the edge quadrature points."""
    mesh = dofmap_phi.mesh
    erule = quad_rule_edge(EDGE_QUAD_POINTS)
    rho_g = params.rho * params.gravity
    load = np.zeros(dofmap_phi.ndof)
    for e in _interface_edges(mesh):
        v0, v1 = mesh.vertices[mesh.edge_vertices[e]]
        length = np.linalg.norm(v1 - v0)
        bary = edge_bary(mesh.edge_local[e], erule.points)
        vals, _ = ref_basis_many(dofmap_phi.family, bary)
        phys = v0 + erule.points[:, None] * (v1 - v0)
        u = velocity_source.eval_many(phys)
        flux = -u[:, 1]  # u . n_f
        le = rho_g * length * np.einsum("q,iq,q->i", erule.weights, vals, flux)
        np.add.at(load, dofmap_phi.cell_dofs[mesh.edge_cells[e]], le)
    return load


def assemble_interface_load_ns(dofmap_v: DofMap, head_source: DiscreteField,
                               params: ModelParams) -> np.ndarray:
    """Entries -rho g (phi_src, v_i . n_f)_Gamma = +rho g (phi_src, v_iy)."""
    mesh = dofmap_v.mesh
    erule = quad_rule_edge(EDGE_QUAD_POINTS)
    rho_g = params.rho * params.gravity
    nd = dofmap_v.ndof
    load = np.zeros(2 * nd)
    for e in _interface_edges(mesh):
        v0, v1 = mesh.vertices[mesh.edge_vertices[e]]
        length = np.linalg.norm(v1 - v0)
        bary = edge_bary(mesh.edge_local[e], erule.points)
        vals, _ = ref_basis_many(dofmap_v.family, bary)
        phys = v0 + erule.points[:, None] * (v1 - v0)
        phi = head_source.eval_many(phys)
        le = rho_g * length * np.einsum("q,iq,q->i", erule.weights, vals, phi)
        np.add.at(load, dofmap_v.cell_dofs[mesh.edge_cells[e]] + nd, le)
    return load


def assemble_volume_load(dofmap: DofMap, f, weight: float = 1.0,
                         degree: int | None = None) -> np.ndarray:
    """Entries weight * (f, basis_i); f(x, y) returns one array for scalar
    families or a pair of arrays for vector families."""
    quad = quad_rule_tri(degree or assembly_degree(dofmap.family.tag))
    vals, _ = ref_basis_many(dofmap.family, quad.points)
    _, det = _geometry(dofmap.mesh)
    phys = _quad_points(dofmap.mesh, quad)
    x, y = phys[..., 0], phys[..., 1]
    nd = dofmap.ndof
    if dofmap.family.components == 1:
        fq = np.broadcast_to(f(x, y), x.shape)
        load = np.zeros(nd)
        le = weight * np.einsum("q,c,iq,cq->ci", quad.weights, det, vals, fq)
        np.add.at(load, dofmap.cell_dofs, le)
        return load
    fx, fy = f(x, y)
    load = np.zeros(2 * nd)
    for e, fq in enumerate((fx, fy)):
        fq = np.broadcast_to(fq, x.shape)
        le = weight * np.einsum("q,c,iq,cq->ci", quad.weights, det, vals, fq)
        np.add.at(load, dofmap.cell_dofs + e * nd, le)
    return load
