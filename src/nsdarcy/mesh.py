"""Structured triangulations of the free-flow and porous squares.

The free-flow region is (0,1)x(1,2), the porous region (0,1)x(0,1); they share
the horizontal interface y = 1. Each subdomain is meshed by an n x n grid of
squares split along the lower-left to upper-right diagonal, so both meshes
carry matching edges on the interface, which `TriMesh.interface` lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class Subdomain(Enum):
    FLUID = "fluid"
    POROUS = "porous"


class OutOfDomain(Exception):
    """Point lies outside the mesh rectangle beyond tolerance."""


# Matching physical tolerance for point location and interface coincidence.
GEOM_TOL = 1e-12
# Tie tolerance in grid units: points this close to a gridline or diagonal are
# assigned to the lower cell id. Must stay below the 1e-13 round-trip budget.
_TIE = 1e-13


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Immutable structured triangulation of a unit square.

    Vertex (i, j) has id j*(n+1)+i; square (i, j) is split into the lower
    triangle (a, b, c) with even id 2*(j*n+i) and the upper triangle (a, c, d)
    with the next odd id, where a, b, c, d walk the square counterclockwise
    from its lower-left corner. Both triangles are counterclockwise.
    """

    n: int
    subdomain: Subdomain
    origin: tuple[float, float]
    vertices: np.ndarray       # (nv, 2) float
    cells: np.ndarray          # (nc, 3) int, CCW

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    def locate_many(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized point location by grid arithmetic (no search).

        Returns (cell ids, barycentric coordinates); ties on gridlines and on
        the square diagonal resolve to the lowest containing cell id.
        """
        pts = np.asarray(pts, dtype=float)
        n = self.n
        xr = (pts[:, 0] - self.origin[0]) * n
        yr = (pts[:, 1] - self.origin[1]) * n
        tol = GEOM_TOL * n
        bad = (xr < -tol) | (xr > n + tol) | (yr < -tol) | (yr > n + tol)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise OutOfDomain(f"point ({pts[k, 0]}, {pts[k, 1]}) outside "
                              f"{self.subdomain.value} mesh rectangle")

        i = np.clip(np.floor(xr).astype(np.int64), 0, n - 1)
        j = np.clip(np.floor(yr).astype(np.int64), 0, n - 1)
        fx = xr - i
        fy = yr - j
        snap = (fx < _TIE) & (i > 0)
        i[snap] -= 1
        fx[snap] += 1.0
        snap = (fy < _TIE) & (j > 0)
        j[snap] -= 1
        fy[snap] += 1.0

        lower = (fx - fy) >= -_TIE
        cells = 2 * (j * n + i) + np.where(lower, 0, 1)
        bary = np.empty((pts.shape[0], 3))
        bary[lower, 0] = 1.0 - fx[lower]
        bary[lower, 1] = fx[lower] - fy[lower]
        bary[lower, 2] = fy[lower]
        up = ~lower
        bary[up, 0] = 1.0 - fy[up]
        bary[up, 1] = fx[up]
        bary[up, 2] = fy[up] - fx[up]
        np.clip(bary, 0.0, None, out=bary)
        return cells, bary

    @cached_property
    def interface(self) -> tuple:
        """(cells (n,), local edges (n,), ends (n, 2)): the n edges on
        y = 1 from left to right, read-only, each pair of ends in its cell's
        counterclockwise order. The fluid's are the bottom row of lower
        triangles, local edge 0 (a, b); the porous mesh's are the top row
        of upper triangles, local edge 1 (c, d), which runs right to left."""
        n, k = self.n, np.arange(self.n)
        if self.subdomain is Subdomain.FLUID:
            cells, local, ends = 2 * k, 0, np.column_stack([k, k + 1])
        else:
            top = n * (n + 1) + k
            cells, local, ends = (2 * ((n - 1) * n + k) + 1, 1,
                                  np.column_stack([top + 1, top]))
        return tuple(map(_freeze, (cells, np.full(n, local), ends)))

    @cached_property
    def shapes(self) -> tuple:
        """(index, det, jinv_t): the cells grouped by shape, on first use.
        Cells share a shape when their edge vectors (v1 - v0, v2 - v0) are
        bitwise equal: their maps differ by a translation. index (nc,) is
        each cell's shape; det (ns,) and J^{-T} (ns, 2, 2) come from each
        shape's first cell, bitwise what every cell of the shape gives."""
        verts = self.vertices[self.cells]
        edges = np.concatenate([verts[:, 1] - verts[:, 0],
                                verts[:, 2] - verts[:, 0]], axis=1)
        # rows as opaque items: bitwise keys, sorted faster than axis=0
        rows = edges.view(np.dtype((np.void, edges[0].nbytes)))[:, 0]
        _, first, index = np.unique(rows, return_index=True,
                                    return_inverse=True)
        (a, b), (c, d) = edges[first].T.reshape(2, 2, -1)   # e1, e2
        det = a * d - b * c
        jinv_t = np.stack([d, -b, -c, a], axis=1).reshape(-1, 2, 2)
        return tuple(map(_freeze, (index, det, jinv_t / det[:, None, None])))


@dataclass(frozen=True, eq=False)
class CoupledMesh:
    """The two subdomain meshes; interface edge k of each lies on square k."""

    fluid: TriMesh
    porous: TriMesh

    @property
    def n(self) -> int:
        return self.fluid.n


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_tri_mesh(n: int, subdomain: Subdomain, origin: tuple[float, float]) -> TriMesh:
    """Structured n x n triangulation of the unit square at the given origin."""
    if n < 1:
        raise ValueError("n must be >= 1")
    h = 1.0 / n
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    verts = np.column_stack([
        origin[0] + ii.ravel() * h,
        origin[1] + jj.ravel() * h,
    ])

    sq_i, sq_j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    sq_i = sq_i.ravel()
    sq_j = sq_j.ravel()
    a = sq_j * (n + 1) + sq_i
    b = a + 1
    c = b + (n + 1)
    d = a + (n + 1)
    cells = np.empty((2 * n * n, 3), dtype=np.int64)
    cells[0::2] = np.column_stack([a, b, c])
    cells[1::2] = np.column_stack([a, c, d])
    return TriMesh(n=n, subdomain=subdomain, origin=origin,
                   vertices=_freeze(verts), cells=_freeze(cells))


def build_coupled_mesh(n: int) -> CoupledMesh:
    """Matching fluid (above) and porous (below) meshes sharing y = 1."""
    fluid = build_tri_mesh(n, Subdomain.FLUID, (0.0, 1.0))
    porous = build_tri_mesh(n, Subdomain.POROUS, (0.0, 0.0))
    fv = fluid.vertices[fluid.interface[2]]
    pv = porous.vertices[porous.interface[2]]
    # orientations oppose: both edges run counterclockwise in their own cell
    if not np.allclose(fv, pv[:, ::-1], atol=GEOM_TOL, rtol=0.0):
        raise AssertionError("interface edges do not coincide")
    return CoupledMesh(fluid=fluid, porous=porous)
