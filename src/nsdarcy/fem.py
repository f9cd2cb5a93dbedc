"""Reference elements, quadrature, dof maps, and field evaluation.

Scalar reference bases on the unit triangle with barycentric coordinates
(l0, l1, l2) = (1-x-y, x, y):

* P1: the three hat functions.
* P2: vertex functions l_i(2 l_i - 1) followed by edge functions 4 l_i l_j
  ordered (0,1), (1,2), (2,0).
* MINI velocity: P1 plus the cubic bubble 27 l0 l1 l2, one extra dof per cell.

Vector families reuse the scalar basis per component; coefficients of a
two-component field are stacked [component 0 dofs..., component 1 dofs...].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

import numpy as np

from .mesh import Subdomain, TriMesh


class UnsupportedDegree(Exception):
    pass


@dataclass(frozen=True)
class ElementFamily:
    tag: str
    components: int


P1 = ElementFamily("P1", 1)
P2 = ElementFamily("P2", 1)
MINI_VELOCITY = ElementFamily("MINI_VELOCITY", 2)
P2_VELOCITY = ElementFamily("P2", 2)

_DL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # reference grad of l_i


def ref_basis_many(family: ElementFamily, bary: np.ndarray):
    """Values and reference gradients of all scalar shape functions.

    bary has shape (m, 3); returns values (nloc, m) and gradients
    (nloc, m, 2) with respect to the reference coordinates (x, y) = (l1, l2).
    """
    bary = np.asarray(bary, dtype=float)
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    m = bary.shape[0]
    tag = family.tag
    if tag == "P1":
        vals = np.stack([l0, l1, l2])
        grads = np.broadcast_to(_DL[:, None, :], (3, m, 2)).copy()
        return vals, grads
    if tag == "P2":
        vals = np.stack([
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
        ])
        grads = np.empty((6, m, 2))
        for i in range(3):
            grads[i] = (4 * bary[:, i] - 1)[:, None] * _DL[i]
        for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            grads[3 + k] = 4 * (bary[:, j][:, None] * _DL[i]
                                + bary[:, i][:, None] * _DL[j])
        return vals, grads
    if tag == "MINI_VELOCITY":
        vals = np.stack([l0, l1, l2, 27 * l0 * l1 * l2])
        grads = np.empty((4, m, 2))
        grads[:3] = np.broadcast_to(_DL[:, None, :], (3, m, 2))
        grads[3] = 27 * ((l1 * l2)[:, None] * _DL[0]
                         + (l0 * l2)[:, None] * _DL[1]
                         + (l0 * l1)[:, None] * _DL[2])
        return vals, grads
    raise ValueError(f"unknown element family {tag}")


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (nq, 3) barycentric for triangles, (nq,) in [0,1] for edges
    weights: np.ndarray  # sums to 1/2 (triangle) or 1 (edge)


def _perm3(a, b):
    return [(a, b, b), (b, a, b), (b, b, a)]


def _perm6(a, b, c):
    return sorted(set(permutations((a, b, c))))


# Symmetric triangle rules with positive weights, by the degree each is
# exact to; weights here are normalized to unit sum and scaled by the
# reference area 1/2 on construction.
_TRI_RULES = {
    5: (
        [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
        + _perm3(0.059715871789770, 0.470142064105115)
        + _perm3(0.797426985353087, 0.101286507323456),
        [0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3,
    ),
    6: (
        _perm3(0.873821971016996, 0.063089014491502)
        + _perm3(0.501426509658179, 0.249286745170910)
        + _perm6(0.053145049844817, 0.310352451033784, 0.636502499121399),
        [0.050844906370207] * 3 + [0.116786275726379] * 3
        + [0.082851075618374] * 6,
    ),
}

_MAX_TRI_DEGREE = 12


@cache
def _conical_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre x Gauss-Jacobi product rule on the collapsed square
    x = xi (1 - eta), y = eta; exact to total degree 2m - 1 with machine
    precision nodes (the symmetric rules are tabulated for the assembly
    degrees 5 and 6 only)."""
    from scipy.special import roots_jacobi

    m = (degree + 2) // 2
    xi, a = np.polynomial.legendre.leggauss(m)
    xi = 0.5 * (xi + 1.0)
    a = 0.5 * a
    t, b = roots_jacobi(m, 1.0, 0.0)   # weight (1 - t) on [-1, 1]
    eta = 0.5 * (t + 1.0)
    b = 0.25 * b
    x = np.outer(xi, 1.0 - eta).ravel()
    y = np.broadcast_to(eta, (m, m)).ravel()
    w = np.outer(a, b).ravel()
    pts = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(points=pts, weights=w)


def quad_rule_tri(degree: int) -> QuadratureRule:
    if not 2 <= degree <= _MAX_TRI_DEGREE:
        raise UnsupportedDegree(f"triangle degree {degree} not in "
                                f"2..{_MAX_TRI_DEGREE}")
    if degree not in _TRI_RULES:
        return _conical_rule(degree)
    pts, w = _TRI_RULES[degree]
    return QuadratureRule(
        points=np.array(pts, dtype=float),
        weights=0.5 * np.array(w, dtype=float),
    )


def quad_rule_edge(npts: int) -> QuadratureRule:
    if not 2 <= npts <= 6:
        raise UnsupportedDegree(f"edge rule with {npts} points not in 2..6")
    x, w = np.polynomial.legendre.leggauss(npts)
    return QuadratureRule(points=0.5 * (x + 1.0), weights=0.5 * w)


def edge_bary(local_edge, t) -> np.ndarray:
    """Barycentric coordinates (..., nq, 3) at parameters t (..., nq) in
    [0, 1] along local edge k, walking the edge in the cell's
    counterclockwise vertex order; local_edge is one index or an array of
    them, one per row of t."""
    t = np.asarray(t, dtype=float)[..., None]
    k = np.asarray(local_edge)[..., None, None]
    corner = np.arange(3)
    return (np.where(corner == k, 1.0 - t, 0.0)
            + np.where(corner == (k + 1) % 3, t, 0.0))


@dataclass(frozen=True, eq=False)
class DofMap:
    family: ElementFamily
    mesh: TriMesh
    ndof: int                 # scalar dofs; vector fields carry 2x coefficients
    cell_dofs: np.ndarray     # (nc, nloc)
    dof_coords: np.ndarray    # (ndof, 2)
    # ascending ids of the dofs on the closed outer boundary; interface dofs
    # stay free (natural conditions)
    dirichlet_dofs: np.ndarray

    @property
    def num_coefficients(self) -> int:
        return self.ndof * self.family.components


def _edge_table(cells: np.ndarray):
    """Unique undirected edges, lexicographically numbered, plus the
    (cell, local edge) -> edge id map."""
    e = np.concatenate([cells[:, (0, 1)], cells[:, (1, 2)], cells[:, (2, 0)]])
    e = np.sort(e, axis=1)
    uniq, inv = np.unique(e, axis=0, return_inverse=True)
    nc = cells.shape[0]
    cell_edges = inv.reshape(3, nc).T  # columns: local edges (0,1),(1,2),(2,0)
    return uniq, cell_edges


def build_dofmap(mesh: TriMesh, family: ElementFamily) -> DofMap:
    """Global numbering: vertices first, then edges (P2) or cells (MINI)."""
    nv = mesh.num_vertices
    nc = mesh.num_cells
    tag = family.tag
    if tag == "P1":
        ndof = nv
        cell_dofs = mesh.cells.copy()
        coords = mesh.vertices.copy()
    elif tag == "P2":
        edges, cell_edges = _edge_table(mesh.cells)
        ndof = nv + edges.shape[0]
        cell_dofs = np.hstack([mesh.cells, nv + cell_edges])
        coords = np.vstack([
            mesh.vertices,
            0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]]),
        ])
    elif tag == "MINI_VELOCITY":
        ndof = nv + nc
        cell_dofs = np.hstack([mesh.cells, (nv + np.arange(nc))[:, None]])
        coords = np.vstack([
            mesh.vertices,
            mesh.vertices[mesh.cells].mean(axis=1),
        ])
    else:
        raise ValueError(f"unknown element family {tag}")

    # The dofs on x = 0, x = 1 and the side away from the interface, read on
    # the half grid (no bubble lies on it); the interface ends stay Dirichlet:
    # conforming test functions vanish on the closed outer boundary.
    half = np.rint(2 * mesh.n * (coords - mesh.origin))
    far = 2 * mesh.n if mesh.subdomain is Subdomain.FLUID else 0
    dirichlet = np.flatnonzero((half[:, 0] == 0) | (half[:, 0] == 2 * mesh.n)
                               | (half[:, 1] == far))

    for a in (cell_dofs, coords, dirichlet):
        a.setflags(write=False)
    return DofMap(family=family, mesh=mesh, ndof=ndof, cell_dofs=cell_dofs,
                  dof_coords=coords, dirichlet_dofs=dirichlet)


def dof_count(family: ElementFamily, n: int) -> int:
    """Scalar dofs of `family` on an n x n subdomain mesh, without building
    it: (n+1)^2 vertices, plus 3n^2 + 2n edges (P2) or 2n^2 cells (Mini)."""
    extra = {"P1": 0, "P2": 3 * n * n + 2 * n, "MINI_VELOCITY": 2 * n * n}
    return (n + 1) ** 2 + extra[family.tag]


def grid_points(*dofmaps: DofMap) -> np.ndarray:
    """Integer coordinates rint(2 n x) (N, 2) of the coefficients of the
    dof maps, stacked in their order and per vector component, as a direct
    solve's `points` take them: vertices land on even, P2 edge midpoints
    on half-grid lines, and the fluid and porous meshes share one grid."""
    return np.vstack([np.tile(np.rint(2 * d.mesh.n * d.dof_coords),
                              (d.family.components, 1))
                      for d in dofmaps]).astype(np.int64)


@dataclass(eq=False)
class DiscreteField:
    dofmap: DofMap
    coefficients: np.ndarray

    def __post_init__(self):
        expect = self.dofmap.num_coefficients
        if self.coefficients.shape != (expect,):
            raise ValueError(f"expected {expect} coefficients, "
                             f"got {self.coefficients.shape}")

    @property
    def components(self) -> int:
        return self.dofmap.family.components

    def component_view(self, d: int) -> np.ndarray:
        nd = self.dofmap.ndof
        return self.coefficients[d * nd:(d + 1) * nd]

    def _at(self, pts: np.ndarray) -> tuple:
        """The coefficients (m, nloc) of each component on the cells of the
        points, and `basis_at` the points."""
        cells, vals, grads = basis_at(self.dofmap, pts)
        dofs = self.dofmap.cell_dofs[cells]
        comps = [self.component_view(d)[dofs] for d in range(self.components)]
        return comps, vals, grads

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Field values at points; shape (m,) scalar or (m, 2) vector."""
        comps, vals, _ = self._at(pts)
        out = [sum_in_order(c[:, l] * vals[l] for l in range(len(vals)))
               for c in comps]
        return out[0] if self.components == 1 else np.stack(out, axis=1)

    def eval_grad_many(self, pts: np.ndarray) -> np.ndarray:
        """Physical gradients; shape (m, 2) scalar or (m, 2, 2) with
        entry [d, e] = d(component d)/d(x_e) for vector fields."""
        comps, _, grads = self._at(pts)
        out = [sum_in_order(c[:, l, None] * g for l, g in enumerate(grads))
               for c in comps]
        return out[0] if self.components == 1 else np.stack(out, axis=1)


def basis_at(dofmap: DofMap, pts: np.ndarray) -> tuple:
    """The cells (m,) of points (m, 2) in dofmap's mesh (`locate_many`),
    and the values (nloc, m) and physical gradients (nloc, m, 2) of
    dofmap's basis there."""
    cells, bary = dofmap.mesh.locate_many(pts)
    vals, gref = ref_basis_many(dofmap.family, bary)
    shape, _, jinv_t = dofmap.mesh.shapes
    jinv_t = jinv_t[shape[cells]]
    grads = [sum_in_order(jinv_t[:, :, e] * g[:, e, None] for e in range(2))
             for g in gref]
    return cells, vals, np.stack(grads)


def sum_in_order(terms) -> np.ndarray:
    """The sum of the arrays `terms` yields, each added in turn to the
    running total: the rounding of numpy.einsum's loop over one summed
    index. einsum starts from +0.0, so a total of -0.0 terms is +0.0 here
    too. Every term must be a new array; the first one is overwritten.
    Each term is released before the next one is made, so at most one term
    is alive beside the total."""
    it = iter(terms)
    total = next(it)
    total += 0.0
    for t in it:
        total += t
        del t
    return total


def interpolate(f, dofmap: DofMap) -> DiscreteField:
    """Nodal interpolation at dof locations; bubble coefficients stay zero.

    For scalar families f(x, y) returns an array; for vector families it
    returns a pair of arrays (one per component).
    """
    nodal = np.ones(dofmap.ndof, dtype=bool)
    if dofmap.family.tag == "MINI_VELOCITY":
        nodal[dofmap.mesh.num_vertices:] = False
    values = f(dofmap.dof_coords[nodal, 0], dofmap.dof_coords[nodal, 1])
    if dofmap.family.components == 1:
        values = (values,)
    coeffs = np.zeros(dofmap.num_coefficients)
    for block, v in zip(np.split(coeffs, dofmap.family.components), values):
        block[nodal] = v
    return DiscreteField(dofmap, coeffs)


def dirichlet_trace(dofmap: DofMap, f) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient ids of the outer-boundary dofs of every component and the
    nodal values of f there; interface dofs stay free (natural conditions)."""
    dofs = dofmap.dirichlet_dofs
    ids = np.concatenate([dofs + d * dofmap.ndof
                          for d in range(dofmap.family.components)])
    return ids, interpolate(f, dofmap).coefficients[ids]
