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
The Gamma terms run over each mesh's `TriMesh.interface` edges.

Every local kernel adds in the order of the numpy.einsum expression it
replaced and is pinned to it bit for bit: mass, stiffness, loads, the
divergence block, the Newton load and the correction load; those that
depend on the cell map alone run once per cell shape. The convection
blocks are products against reference tensors (Kirby & Logg, ACM TOMS 32,
2006). One np.bincount sums each matrix's cell blocks into a fixed
pattern, within 1e-14 of the largest entry of the einsum result. For a
direct Mini solve, `MiniSaddle` eliminates the bubbles from the fluid
saddle blocks cell by cell before they are summed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from functools import cached_property
from math import gcd, inf

import numpy as np
import scipy.sparse as sp

from .fem import (DiscreteField, DofMap, QuadratureRule, basis_at, edge_bary,
                  quad_rule_edge, quad_rule_tri, ref_basis_many, sum_in_order)
from .mesh import CoupledMesh
from .sparse import Singular, entry_rows

EDGE_QUAD_POINTS = 5


def finite_positive(name: str, value: float) -> float:
    """value if 0 < value < inf, which NaN is not; else a ValueError."""
    if not 0 < value < inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


@dataclass(frozen=True)
class ModelParams:
    nu: float = 1.0
    rho: float = 1.0
    gravity: float = 1.0
    porosity: float = 1.0
    conductivity: float = 1.0
    alpha_bjs: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            finite_positive(f.name, getattr(self, f.name))

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
    the family's reference values (nloc, nq) and gradients (nloc, nq, 2),
    and the mesh's cell shapes: each cell's shape (nc,), and det (ns,) and
    J^{-T} (ns, 2, 2) per shape. What depends on the cell map alone is
    computed per shape and gathered by `shape`; physical points per row
    and column of the cell grid (`axes`). Once used, a rule keeps the
    small convection reference tensors.

    The kernels below add in the order and with the rounding of the
    numpy.einsum calls they replaced, so their values, gathered by
    `shape`, are bitwise what einsum gave per cell
    (tests/quadrature_reference.py)."""
    dofmap: DofMap
    quad: QuadratureRule
    weights: np.ndarray
    vals: np.ndarray
    gref: np.ndarray
    shape: np.ndarray
    det: np.ndarray
    jinv_t: np.ndarray

    def axes(self) -> tuple:
        """x (1, n, 2, nq) and y (n, 1, 2, nq) of the points of a structured
        mesh, which broadcast to its cell grid (n, n, 2): cell 2(j n + i) + s
        has the x of [0, i, s] and the y of [j, 0, s]. Each is vertices
        times barycentrics, summed in order: bitwise what that gives on
        every cell."""
        mesh, bary = self.dofmap.mesh, self.quad.points
        n, cells = mesh.n, mesh.cells.reshape(mesh.n, 2 * mesh.n, 3)
        xy = (mesh.vertices[cells[:1], 0].reshape(1, n, 2, 3),
              mesh.vertices[cells[:, :2], 1].reshape(n, 1, 2, 3))
        return tuple(sum_in_order(v[..., k, None] * bary[:, k]
                                  for k in range(3)) for v in xy)

    def on_cells(self, values) -> np.ndarray:
        """Values that broadcast to the points (n, n, 2, nq), as (nc, nq)."""
        n, nq = self.dofmap.mesh.n, len(self.weights)
        return np.broadcast_to(values, (n, n, 2, nq)).reshape(-1, nq)

    def grads(self) -> np.ndarray:
        """Physical basis gradients per shape (ns, nloc, nq, 2)."""
        out = np.empty((len(self.det),) + self.gref.shape)
        for l, g in enumerate(self.gref):
            out[:, l] = sum_in_order(self.jinv_t[:, None, :, e] * g[:, None, e]
                                     for e in range(2))
        return out

    @property
    def wdet(self) -> list:
        """w_q * det per quadrature point q, each (ns,)."""
        return [w * self.det for w in self.weights]

    def mass(self) -> np.ndarray:
        """(basis_j, basis_i) per shape, (ns, nloc, nloc)."""
        v = self.vals
        return sum_in_order((wd[:, None] * v[:, q])[:, :, None] * v[:, q]
                            for q, wd in enumerate(self.wdet))

    def stiffness(self) -> np.ndarray:
        """(grad basis_j, grad basis_i) per shape, (ns, nloc, nloc)."""
        g = self.grads()
        return sum_in_order(
            (wd[:, None, None] * g[:, :, None, q, d]) * g[:, None, :, q, d]
            for q, wd in enumerate(self.wdet) for d in range(2))

    @cached_property
    def convection_tensors(self) -> tuple:
        """Reference tensors of the convection kernel: T1[q, (e, i, j)] =
        w_q basis_i(q) d_e basis_j(q), (nq, 2 nloc^2), with reference
        derivatives d_e, and T2[q, (i, j)] = w_q basis_i(q) basis_j(q),
        (nq, nloc^2)."""
        wv = self.weights * self.vals
        nq = len(self.weights)
        return (np.einsum("iq,jqe->qeij", wv, self.gref).reshape(nq, -1),
                np.einsum("iq,jq->qij", wv, self.vals).reshape(nq, -1))


@dataclass(frozen=True, eq=False)
class CellPattern:
    """The canonical CSR pattern (indptr, indices: int32, sorted, no
    duplicates) and shape of a block that couples every row dof of a cell
    to every column dof of the cell, and the position in its data of each
    local entry, (nc, nrow, ncol) int32: entry (c, i, j) sits in row
    dofs[c, i], column dofs[c, j]."""
    indptr: np.ndarray
    indices: np.ndarray
    shape: tuple
    positions: np.ndarray

    def data(self, local: np.ndarray, cells=slice(None)) -> np.ndarray:
        """The sum of the blocks local (m, nrow, ncol) as pattern data,
        block k at the positions of cell cells[k] (default: cell k)."""
        return np.bincount(self.positions[cells].ravel(), local.ravel(),
                           minlength=len(self.indices))

    def matrix(self, *data: np.ndarray) -> sp.csr_matrix:
        """The block-diagonal matrix of one copy of the pattern per data
        array."""
        k, nnz, (n, m) = len(data), len(self.indices), self.shape
        indices = np.concatenate([self.indices + i * m for i in range(k)])
        indptr = np.concatenate([self.indptr[:1]] + [
            self.indptr[1:] + i * nnz for i in range(k)])
        return sp.csr_matrix((np.concatenate(data), indices, indptr),
                             shape=(k * n, k * m))

    def tiled(self, k: int) -> tuple:
        """The CSR indptr and indices (int32) of the k x k block matrix with
        this pattern in every block, and where each entry of this pattern
        sits in the data of block (a, b), (k, k, nnz). Within a row, block
        0's entries come first."""
        (n, m), nnz = self.shape, len(self.indices)
        rows = entry_rows(self)
        blocks = np.arange(k, dtype=np.int32)
        # entry p of a row r sits at k indptr[r] + b length[r]
        # + (p - indptr[r]) of block b of its block row
        where = ((k - 1) * self.indptr[rows] + np.arange(nnz, dtype=np.int32)
                 + blocks[:, None, None] * k * nnz
                 + blocks[:, None] * np.diff(self.indptr)[rows])
        indices = np.empty(k * k * nnz, dtype=np.int32)
        indices[where] = self.indices + blocks[:, None] * m
        indptr = np.append(k * self.indptr[:-1] + blocks[:, None] * k * nnz,
                           k * k * nnz).astype(np.int32)
        return indptr, indices, where


def cell_pattern(rows: DofMap, cols: DofMap | None = None) -> CellPattern:
    """The CellPattern of the dofs of `rows` against those of `cols`
    (default: `rows`), two dof maps on one mesh."""
    cols = cols or rows
    rd, cd, n = rows.cell_dofs, cols.cell_dofs, cols.ndof

    def incidence(dofmap):   # cells x dofs
        d = dofmap.cell_dofs
        return sp.csr_matrix((np.ones(d.size), d.ravel(),
                              np.arange(0, d.size + 1, d.shape[1])),
                             shape=(len(d), dofmap.ndof))
    P = (incidence(rows).T @ incidence(cols)).tocsr()
    P.sort_indices()
    # row * n + column ascends through a canonical pattern
    keys = entry_rows(P) * n + P.indices
    positions = np.empty(rd.shape + cd.shape[1:], dtype=np.int32)
    for i in range(rd.shape[1]):
        positions[:, i] = np.searchsorted(keys, rd[:, i, None] * n + cd)
    return CellPattern(P.indptr.astype(np.int32), P.indices.astype(np.int32),
                       P.shape, positions)


def cell_rule(dofmap: DofMap, degree: int | None = None) -> CellRule:
    """The rule of the given degree (default: assembly_degree) on the cells
    of dofmap's mesh; every cell map is affine."""
    quad = quad_rule_tri(degree or assembly_degree(dofmap.family.tag))
    return CellRule(dofmap, quad, quad.weights,
                    *ref_basis_many(dofmap.family, quad.points),
                    *dofmap.mesh.shapes)


@dataclass(frozen=True, eq=False)
class EdgeRule:
    """Gauss rule on the interface edges: adjacent cells (ne,), the
    cell basis values (ne, nloc, nq), weights (nq,) and edge lengths (ne,),
    whose product is the line measure, and physical points (ne, nq, 2)."""
    cells: np.ndarray
    vals: np.ndarray
    weights: np.ndarray
    length: np.ndarray
    points: np.ndarray


def edge_rule(dofmap: DofMap, t=None) -> EdgeRule:
    """EDGE_QUAD_POINTS-point Gauss rule on the interface edges of dofmap's
    mesh. Given per-edge parameters t (ne, nq) in [0, 1] along each edge's
    counterclockwise orientation, basis values and points are taken there
    instead of at the Gauss points; the weights stay the Gauss weights."""
    mesh = dofmap.mesh
    cells, local, ends = mesh.interface
    erule = quad_rule_edge(EDGE_QUAD_POINTS)
    t = erule.points if t is None else t
    verts = mesh.vertices[ends]                               # (ne, 2, 2)
    v0, d = verts[:, 0], verts[:, 1] - verts[:, 0]
    bary = edge_bary(local, t)                                # (ne, nq, 3)
    vals, _ = ref_basis_many(dofmap.family, bary.reshape(-1, 3))
    return EdgeRule(
        cells=cells,
        vals=vals.reshape(vals.shape[:1] + bary.shape[:2]).transpose(1, 0, 2),
        weights=erule.weights, length=np.linalg.norm(d, axis=1),
        points=v0[:, None] + np.asarray(t)[..., None] * d[:, None])


def _load(n: int, dofs: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Length-n vector summing local[..., i] into entry dofs[..., i], in
    order."""
    return np.bincount(dofs.ravel(), local.ravel(), minlength=n)


def _cell_load(rule: CellRule, weight: float, fields) -> np.ndarray:
    """Entries weight * (f_e, basis_i) for the components f_e (nc, nq) in
    fields, stacked one block of ndof per component."""
    dm = rule.dofmap
    local = [weight * sum_in_order((wd[:, None] * rule.vals[:, q])[rule.shape]
                                   * f[:, q, None]
                                   for q, wd in enumerate(rule.wdet))
             for f in fields]
    dofs = [dm.cell_dofs + e * dm.ndof for e in range(len(fields))]
    return _load(len(fields) * dm.ndof, np.concatenate(dofs),
                 np.concatenate(local))


def _symmetric_form(pattern: CellPattern, *data) -> sp.csr_matrix:
    """The block-diagonal matrix of the symmetric parts (D + D^T) / 2 of
    the data arrays D of a square pattern: exactly symmetric, on the whole
    pattern, exact zeros included."""
    transpose = np.empty(len(pattern.indices), dtype=np.int32)
    transpose[pattern.positions] = pattern.positions.swapaxes(1, 2)
    return pattern.matrix(*(0.5 * (d + d[transpose]) for d in data))


def assemble_ap(dofmap_phi: DofMap, params: ModelParams) -> sp.csr_matrix:
    """Darcy stiffness (rho g / n) K (grad phi_j, grad phi_i); symmetric,
    without its exact zeros, such as the diagonal-edge entries of
    right-angled P1 cells."""
    rule, pattern = cell_rule(dofmap_phi), cell_pattern(dofmap_phi)
    loc = params.darcy_coefficient * rule.stiffness()
    A = _symmetric_form(pattern, pattern.data(loc[rule.shape]))
    A.eliminate_zeros()
    return A


def _slip(edges: EdgeRule, params: ModelParams) -> np.ndarray:
    """The slip penalty nu alpha/sqrt(nu K) (basis_j, basis_i)_Gamma on
    each of the interface edges of `edges` (ne, nloc, nloc)."""
    return (params.bjs_coefficient * edges.length)[:, None, None] \
        * np.einsum("q,eiq,ejq->eij", edges.weights, edges.vals, edges.vals)


def assemble_af(dofmap_v: DofMap, params: ModelParams,
                pattern: CellPattern | None = None) -> sp.csr_matrix:
    """Viscous block nu (grad u, grad v) plus the slip penalty on the
    interface, nu alpha/sqrt(nu K) (u.tau)(v.tau); block-diagonal over the
    two velocity components, tangential term on component 0 only, on the
    whole of the velocity's cell pattern (built here unless given), which
    PLAIN convection shares; symmetric."""
    rule = cell_rule(dofmap_v)
    pattern = pattern or cell_pattern(dofmap_v)
    loc = (params.nu * rule.stiffness())[rule.shape]
    edges = edge_rule(dofmap_v)
    normal = pattern.data(loc)
    tangential = normal + pattern.data(_slip(edges, params), edges.cells)
    return _symmetric_form(pattern, tangential, normal)


def _divergence(dofmap_v: DofMap, dofmap_q: DofMap) -> np.ndarray:
    """The cell blocks of b per cell shape, (ns, nloc_q, nloc_v, 2): entry
    [s, i, j, d] = -(q_i, d v_j / d x_d) for pressure i, velocity j and
    component d."""
    rule = cell_rule(dofmap_v)
    qvals, _ = ref_basis_many(dofmap_q.family, rule.quad.points)
    g = rule.grads()
    return -sum_in_order((wd[:, None] * qvals[:, q])[:, :, None, None]
                         * g[:, None, :, q] for q, wd in enumerate(rule.wdet))


def assemble_b(dofmap_v: DofMap, dofmap_q: DofMap) -> sp.csr_matrix:
    """Divergence constraint, entry (q_i, v_j) = -(q_i, d v_j / d x_d),
    without its exact zeros."""
    shape = dofmap_v.mesh.shapes[0]
    loc = _divergence(dofmap_v, dofmap_q)
    pattern = cell_pattern(dofmap_q, dofmap_v)
    B = sp.hstack([pattern.matrix(pattern.data(loc[shape, ..., d]))
                   for d in range(2)], format="csr")
    B.eliminate_zeros()
    return B


def assemble_mass(dofmap: DofMap, degree: int | None = None) -> sp.csr_matrix:
    rule, pattern = cell_rule(dofmap, degree), cell_pattern(dofmap)
    return _symmetric_form(pattern, pattern.data(rule.mass()[rule.shape]))


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
    """The velocity `field` at the rule's points: each value (gradient)
    sums, in local order, the field's coefficients on the point's cell
    times its basis values (gradients) there. A field of the rule's family
    on the rule's own mesh object takes the rule's basis, any other
    `_period_tables`.
    Both are computed component by component, so vals and grads are
    views of arrays (2, nc, nq) and (2, 2, nc, nq)."""
    dm, fm, mesh = field.dofmap, field.dofmap.mesh, rule.dofmap.mesh
    if dm.family == rule.dofmap.family and fm is mesh:
        at, vals = np.arange(len(dm.cell_dofs))[:, None], rule.vals
        basis = (b[rule.shape].transpose(2, 0, 1) for b in
                 rule.grads().transpose(1, 0, 2, 3))
    else:
        at, vals, basis = _period_tables(field, rule)
    local = field.coefficients.reshape(2, -1)[:, dm.cell_dofs.T]  # (2,nloc,nc)
    shape = (2, -1, len(rule.weights))
    v = sum_in_order(np.take(local[:, l], at, axis=1) * t
                     for l, t in enumerate(vals))
    v = v.reshape(shape).transpose(1, 2, 0)
    if not grads:
        return QuadState(rule, v, None)
    g = sum_in_order(np.take(local[:, l], at, axis=1)[:, None] * t
                     for l, t in enumerate(basis))
    return QuadState(rule, v, g.reshape((2,) + shape).transpose(2, 3, 0, 1))


def _period_tables(field: DiscreteField, rule: CellRule) -> tuple:
    """The structured meshes of the rule (n squares a side) and the field
    (m) repeat every p = n/k and r = m/k squares, k = gcd(n, m): a point
    of period (J, I) lies in the field's cell 2 r (J m + I) after its copy
    in the first p x p squares, at its barycentrics up to rounding; a tie
    on an edge goes the same way in each. Returns the field's cell of
    every point (k, p, k, p 2 nq) in the rule's cell order, and its basis
    values (nloc, p, 1, p 2 nq) and gradients (nloc, 2, 1, p, 1, p 2 nq)."""
    fm, n = field.dofmap.mesh, rule.dofmap.mesh.n
    k = gcd(n, fm.n)
    p, r = n // k, fm.n // k
    x, y = rule.axes()
    cells, vals, grads = basis_at(field.dofmap, np.stack(
        np.broadcast_arrays(x[:, :p], y[:p]), axis=-1).reshape(-1, 2))
    first = 2 * r * (np.arange(k)[:, None] * fm.n + np.arange(k))   # (J, I)
    return (first[:, None, :, None] + cells.reshape(p, 1, -1),
            vals.reshape(len(vals), p, 1, -1),
            grads.transpose(0, 2, 1).reshape(len(vals), 2, 1, p, 1, -1))


def _convect(a: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """(a . grad) b per point, (nc, nq, 2), for values a (nc, nq, 2) and
    gradients grads (nc, nq, 2, 2) of b."""
    return sum_in_order(a[:, :, None, d] * grads[:, :, :, d]
                        for d in range(2))


def convection_blocks(state: QuadState, mode: ConvectionMode,
                      params: ModelParams) -> tuple:
    """The cell blocks of the convection operator linearized about `state`,
    on its rule's space, and the NEWTON load.

    PLAIN: the blocks c(state, basis_j, basis_i) (nc, nloc, nloc) of the
    fixed-point operator, identical on both components, and None. NEWTON:
    the blocks (2, 2, nc, nloc, nloc) [e, d] coupling component d to
    component e, which add c(basis_j, state, basis_i), and the load with
    entries c(state, state, basis_i). Both are products of the state with
    the rule's reference tensors.
    """
    rule = state.rule
    nc, nq = state.vals.shape[:2]
    nloc = len(rule.vals)
    T1, T2 = rule.convection_tensors
    rho_det = (params.rho * rule.det)[rule.shape]

    # (a . grad basis_j, basis_i), identical on both diagonal blocks: a_d
    # times T1 gives the reference derivatives e, which det J^{-T}[d, e]
    # takes to physical ones
    transport = (state.vals.transpose(0, 2, 1).reshape(2 * nc, nq) @ T1
                 ).reshape(nc, 4, nloc, nloc)
    n1 = np.einsum("ck,ckij->cij", rho_det[:, None]
                   * rule.jinv_t.reshape(-1, 4)[rule.shape], transport)
    del transport
    if mode is not ConvectionMode.NEWTON:
        return n1, None

    # (basis_j . grad state_e, basis_i) couples the components: block
    # [e, d] is d(state_e)/d(x_d) times T2
    nb = (state.grads.transpose(2, 3, 0, 1).reshape(4 * nc, nq) @ T2
          ).reshape(2, 2, nc, nloc, nloc)
    nb *= rho_det[:, None, None]
    nb[0, 0] += n1
    nb[1, 1] += n1
    del n1
    conv = _convect(state.vals, state.grads)  # (a.grad)a
    return nb, _cell_load(rule, params.rho, (conv[:, :, 0], conv[:, :, 1]))


def assemble_convection(state: QuadState, mode: ConvectionMode,
                        params: ModelParams,
                        pattern: CellPattern | None = None):
    """Convection operator linearized about `state`, on its rule's space:
    the `convection_blocks` scattered into the space's cell pattern (built
    here unless given), the two diagonal blocks for PLAIN and all four for
    NEWTON, with the NEWTON load (PLAIN returns None there). The blocks
    are CSR, so they are stacked without a COO copy.
    """
    blocks, load = convection_blocks(state, mode, params)
    pattern = pattern or cell_pattern(state.rule.dofmap)
    if mode is not ConvectionMode.NEWTON:
        block = pattern.data(blocks)
        return pattern.matrix(block, block), None
    N = sp.vstack([sp.hstack([pattern.matrix(pattern.data(blocks[e, d]))
                              for d in range(2)]) for e in range(2)],
                  format="csr")
    return N, load


@dataclass(frozen=True, eq=False)
class Bubbles:
    """The bubbles of a Mini fluid system, eliminated cell by cell, with
    the cells along the last axis: their coefficient ids (2, nc), the
    condensed ids (9, nc) of each cell's other unknowns I (vertex
    velocities of component 0, then 1, then pressures), D^{-1} (2, 2, nc)
    of the bubble blocks D, A_IL D^{-1} (9, 2, nc) and D^{-1} A_LI
    (2, 9, nc)."""
    ids: np.ndarray
    dofs: np.ndarray
    dinv: np.ndarray
    e: np.ndarray
    f: np.ndarray

    def load(self, b_i: np.ndarray, b_l: np.ndarray) -> np.ndarray:
        """b_I - A_IL D^{-1} b_L, written over b_I; b_L is (2, nc)."""
        b_i -= np.bincount(self.dofs.ravel(), np.einsum(
            "ijc,jc->ic", self.e, b_l).ravel(), minlength=len(b_i))
        return b_i

    def recover(self, x_i: np.ndarray, b_l: np.ndarray) -> np.ndarray:
        """The bubbles D^{-1} (b_L - A_LI x_I) (2, nc) of the solution x_I
        of the condensed system."""
        return (np.einsum("ijc,jc->ic", self.dinv, b_l)
                - np.einsum("ijc,jc->ic", self.f, x_i[self.dofs]))


# cells condensed at a time: every temporary stays small, so the heap does
# not keep a whole mesh's worth of them
CONDENSE_CELLS = 2048
# A Mini cell's local saddle block is the 11 x 11 matrix, stored row by
# row: velocity component i and basis r at 4 i + r (r = 3: the bubble),
# pressure basis p at 8 + p. _II, _IL, _LI and _LL index its blocks of I
# (the vertex velocities and the pressures) and L (the bubbles).
_I, _L = np.array([0, 1, 2, 4, 5, 6, 8, 9, 10]), np.array([3, 7])
_II, _IL, _LI, _LL = (np.ix_(r, c) for r, c in ((_I, _I), (_I, _L),
                                                (_L, _I), (_L, _L)))


@dataclass(frozen=True, eq=False)
class MiniSaddle:
    """The Mini fluid saddle operator [a_f + N, B^T; B, 0] posed on the
    vertex velocities and the pressures alone, its cubic bubbles eliminated
    cell by cell (static condensation: Wilson, Int. J. Numer. Methods Eng.
    8, 1974). A bubble vanishes on every edge, so it couples only with the
    unknowns of its own cell, and S = A_II - A_IL D^{-1} A_LI is a sum of
    cell blocks. It holds what does not change, with the cells along the
    last axis: local blocks of [a_f, B^T; B, 0] (11, 11, ns + ne), rows
    and columns in the order above, one per shape and one per interface
    cell, its slip added, each cell's block (nc,), the P1 pattern's
    positions (9, nc), and the pattern of S, the P1 pattern tiled 3 x 3
    (`tiled`)."""
    static: np.ndarray
    block: np.ndarray
    positions: np.ndarray
    tiled: tuple
    ids: np.ndarray
    dofs: np.ndarray

    def condense(self, convection: np.ndarray) -> tuple:
        """S about the given `convection_blocks`, PLAIN or NEWTON, summed
        into the pattern, and its `Bubbles`. Raises sparse.Singular when a
        bubble block D is singular."""
        nc = len(self.block)
        indptr, indices, where = self.tiled
        blocks = np.zeros(where.shape)   # the data of S's 3 x 3 P1 blocks
        dinv, e, f = (np.empty((2, 2, nc)), np.empty((9, 2, nc)),
                      np.empty((2, 9, nc)))
        for lo in range(0, nc, CONDENSE_CELLS):
            cells = slice(lo, lo + CONDENSE_CELLS)
            K = self.static.take(self.block[cells], axis=2)
            if convection.ndim == 3:   # PLAIN: on both components
                plain = convection[cells].transpose(1, 2, 0)
                K[:4, :4] += plain
                K[4:8, 4:8] += plain
            else:   # NEWTON: block (i, j) on velocity block (i, j)
                for i, j in np.ndindex(2, 2):
                    K[4 * i:4 * i + 4, 4 * j:4 * j + 4] += convection[
                        i, j, cells].transpose(1, 2, 0)
            S = _condense_cells(K, dinv[:, :, cells], e[:, :, cells],
                                f[:, :, cells]).reshape(3, 3, 3, 3, -1)
            at = self.positions[:, cells].ravel()
            for a in range(3):
                for b in range(3):
                    np.add.at(blocks[a, b], at, S[a, :, b].ravel())
        data = np.empty(len(indices))
        data[where] = blocks
        return (sp.csr_matrix((data, indices, indptr),
                              shape=(len(indptr) - 1,) * 2),
                Bubbles(self.ids, self.dofs, dinv, e, f))


def _condense_cells(K: np.ndarray, dinv: np.ndarray, e: np.ndarray,
                    f: np.ndarray) -> np.ndarray:
    """S = A_II - A_IL D^{-1} A_LI (9, 9, m) of m Mini cells from their
    local saddle blocks K (11, 11, m); D^{-1}, A_IL D^{-1} and D^{-1} A_LI
    are written to dinv, e and f."""
    A_IL, A_LI = K[_IL], K[_LI]
    (a, b), (c, d) = K[_LL]
    det = a * d - b * c
    if not np.all(np.isfinite(det) & (det != 0)):
        raise Singular("singular bubble block")
    for (k, l), v in (((0, 0), d), ((0, 1), -b), ((1, 0), -c),
                      ((1, 1), a)):
        np.divide(v, det, out=dinv[k, l])
    e[...] = A_IL[:, :1] * dinv[0] + A_IL[:, 1:] * dinv[1]
    f[...] = dinv[:, :1] * A_LI[0] + dinv[:, 1:] * A_LI[1]
    S = K[_II]
    S -= e[:, :1] * A_LI[0]
    S -= e[:, 1:] * A_LI[1]
    return S


def mini_saddle(dofmap_v: DofMap, dofmap_q: DofMap,
                params: ModelParams) -> MiniSaddle:
    """The MiniSaddle of a Mini velocity and a P1 pressure on one mesh,
    whose vertex dofs are numbered alike."""
    nv, ndof = dofmap_q.ndof, dofmap_v.ndof
    rule = cell_rule(dofmap_v)
    viscous = params.nu * rule.stiffness()
    divergence = _divergence(dofmap_v, dofmap_q)
    static = np.zeros((len(viscous), 11, 11))
    for d in range(2):
        static[:, 4 * d:4 * d + 4, 4 * d:4 * d + 4] = viscous
        static[:, 8:, 4 * d:4 * d + 4] = divergence[..., d]
        static[:, 4 * d:4 * d + 4, 8:] = divergence[..., d].transpose(0, 2, 1)
    edges = edge_rule(dofmap_v)
    slipped = static[rule.shape[edges.cells]]   # slip on component 0
    slipped[:, :4, :4] += _slip(edges, params)
    block = rule.shape.copy()
    block[edges.cells] = len(static) + np.arange(len(edges.cells))
    pattern = cell_pattern(dofmap_q)
    nc = len(rule.shape)
    bubble = dofmap_v.cell_dofs[:, 3]
    return MiniSaddle(
        np.concatenate([static, slipped]).transpose(1, 2, 0).copy(), block,
        np.ascontiguousarray(pattern.positions.reshape(nc, 9).T),
        pattern.tiled(3), np.stack([bubble, bubble + ndof]),
        (dofmap_q.cell_dofs.T + nv * np.arange(3)[:, None, None]).reshape(
            9, nc))


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
    exactly), without exact zeros. With n_f = (0, -1) only vertical
    velocity dofs appear."""
    fluid = edge_rule(dofmap_v)
    # the porous edges run the other way: take their parameter from x
    porous = coupled_mesh.porous
    pv = porous.vertices[porous.interface[2], 0]                  # (ne, 2)
    s = (fluid.points[..., 0] - pv[:, :1]) / (pv[:, 1:] - pv[:, :1])
    head = edge_rule(dofmap_phi, s)
    # v . n_f = -v_y
    loc = (-params.rho * params.gravity * fluid.length)[:, None, None] \
        * np.einsum("q,eiq,ejq->eij", fluid.weights, fluid.vals, head.vals)
    rows, cols = np.broadcast_arrays(
        dofmap_v.cell_dofs[fluid.cells, :, None] + dofmap_v.ndof,
        dofmap_phi.cell_dofs[head.cells, None, :])
    C_vphi = sp.coo_matrix((loc.ravel(), (rows.ravel(), cols.ravel())),
                           shape=(2 * dofmap_v.ndof, dofmap_phi.ndof)).tocsr()
    C_vphi.eliminate_zeros()
    C_phiu = (-C_vphi.T).tocsr()
    return C_vphi, C_phiu


def _interface_load(dofmap: DofMap, source: DiscreteField,
                    params: ModelParams, value, offset: int = 0) -> np.ndarray:
    """Entries rho g (value(source), basis_i)_Gamma on the interface edges
    of dofmap's mesh, at offset plus each dof of a vector of offset + ndof
    entries; the source, on any mesh, is evaluated at the edge points."""
    edges = edge_rule(dofmap)
    f = value(source.eval_many(edges.points.reshape(-1, 2))) \
        .reshape(edges.points.shape[:2])
    le = (params.rho * params.gravity * edges.length)[:, None] \
        * np.einsum("q,eiq,eq->ei", edges.weights, edges.vals, f)
    return _load(offset + dofmap.ndof, dofmap.cell_dofs[edges.cells] + offset,
                 le)


def assemble_interface_load_darcy(dofmap_phi: DofMap,
                                  velocity_source: DiscreteField,
                                  params: ModelParams) -> np.ndarray:
    """Entries rho g (psi_i, u_src . n_f)_Gamma, u_src on any fluid mesh."""
    return _interface_load(dofmap_phi, velocity_source, params,
                           lambda u: -u[:, 1])   # u . n_f


def assemble_interface_load_ns(dofmap_v: DofMap, head_source: DiscreteField,
                               params: ModelParams) -> np.ndarray:
    """Entries -rho g (phi_src, v_i . n_f)_Gamma = +rho g (phi_src, v_iy)."""
    return _interface_load(dofmap_v, head_source, params, lambda phi: phi,
                           dofmap_v.ndof)


def assemble_volume_load(dofmap: DofMap, f, weight: float = 1.0,
                         degree: int | None = None) -> np.ndarray:
    """Entries weight * (f, basis_i); f(x, y) returns one array for scalar
    families or a pair of arrays for vector families, on CellRule.axes."""
    rule = cell_rule(dofmap, degree)
    fq = f(*rule.axes())
    if dofmap.family.components == 1:
        fq = (fq,)
    return _cell_load(rule, weight, [rule.on_cells(fe) for fe in fq])
