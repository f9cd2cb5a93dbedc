"""Structured triangulations of the free-flow and porous squares.

The free-flow region is (0,1)x(1,2), the porous region (0,1)x(0,1); they share
the horizontal interface y = 1. Each subdomain is meshed by an n x n grid of
squares split along the lower-left to upper-right diagonal, so both meshes
carry matching edges on the interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np


class BoundaryTag(IntEnum):
    OUTER_FLUID = 0
    OUTER_POROUS = 1
    INTERFACE = 2


class Subdomain(Enum):
    FLUID = "fluid"
    POROUS = "porous"


class ScheduleKind(Enum):
    SQUARE = "square"
    CUBE_THEN_SQUARE = "cube_then_square"
    PAIR_LIST = "pair_list"


class OutOfDomain(Exception):
    """Point lies outside the mesh rectangle beyond tolerance."""


class ScheduleOverflow(Exception):
    """A schedule entry exceeds MAX_SUBDIVISIONS."""


MAX_SUBDIVISIONS = 1024   # make_schedule refuses finer meshes
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
    edge_vertices: np.ndarray  # (ne, 2) int, boundary edges in cell orientation
    edge_tags: np.ndarray      # (ne,) BoundaryTag values
    edge_cells: np.ndarray     # (ne,) adjacent cell id
    edge_local: np.ndarray     # (ne,) local edge index 0:(0,1) 1:(1,2) 2:(2,0)

    @property
    def h(self) -> float:
        return 1.0 / self.n

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


@dataclass(frozen=True, eq=False)
class CoupledMesh:
    """The two subdomain meshes plus the pairing of coincident interface edges."""

    fluid: TriMesh
    porous: TriMesh
    interface_pairs: list[tuple[int, int]]

    @property
    def n(self) -> int:
        return self.fluid.n


@dataclass(frozen=True)
class MeshSchedule:
    subdivisions: tuple[int, ...]

    def __post_init__(self):
        subs = tuple(int(n) for n in self.subdivisions)
        object.__setattr__(self, "subdivisions", subs)
        if len(subs) < 1 or any(n < 2 for n in subs):
            raise ValueError(f"subdivisions must all be >= 2, got {subs}")
        if any(b <= a for a, b in zip(subs, subs[1:])):
            raise ValueError(f"subdivisions must be strictly increasing, got {subs}")

    def __iter__(self):
        return iter(self.subdivisions)

    def __len__(self):
        return len(self.subdivisions)


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

    # Boundary walk: bottom, right, top, left. Each edge is stored in its
    # adjacent cell's counterclockwise orientation together with that cell id
    # and the local edge index, which boundary quadrature relies on.
    k = np.arange(n)
    bottom_v = np.column_stack([k, k + 1])
    bottom_cell = 2 * k
    right_v = np.column_stack([k * (n + 1) + n, (k + 1) * (n + 1) + n])
    right_cell = 2 * (k * n + n - 1)
    top_v = np.column_stack([n * (n + 1) + k + 1, n * (n + 1) + k])
    top_cell = 2 * ((n - 1) * n + k) + 1
    left_v = np.column_stack([(k + 1) * (n + 1), k * (n + 1)])
    left_cell = 2 * (k * n) + 1

    edge_vertices = np.vstack([bottom_v, right_v, top_v, left_v])
    edge_cells = np.concatenate([bottom_cell, right_cell, top_cell, left_cell])
    edge_local = np.concatenate([
        np.full(n, 0), np.full(n, 1), np.full(n, 1), np.full(n, 2),
    ]).astype(np.int64)

    outer = (BoundaryTag.OUTER_FLUID if subdomain is Subdomain.FLUID
             else BoundaryTag.OUTER_POROUS)
    edge_tags = np.full(4 * n, int(outer), dtype=np.int64)
    if subdomain is Subdomain.FLUID:
        edge_tags[:n] = int(BoundaryTag.INTERFACE)           # bottom at y=1
    else:
        edge_tags[2 * n:3 * n] = int(BoundaryTag.INTERFACE)  # top at y=1

    return TriMesh(
        n=n, subdomain=subdomain, origin=origin,
        vertices=_freeze(verts), cells=_freeze(cells),
        edge_vertices=_freeze(edge_vertices), edge_tags=_freeze(edge_tags),
        edge_cells=_freeze(edge_cells), edge_local=_freeze(edge_local),
    )


def build_coupled_mesh(n: int) -> CoupledMesh:
    """Matching fluid (above) and porous (below) meshes sharing y = 1."""
    fluid = build_tri_mesh(n, Subdomain.FLUID, (0.0, 1.0))
    porous = build_tri_mesh(n, Subdomain.POROUS, (0.0, 0.0))
    pairs = []
    for i in range(n):
        fe = i            # fluid bottom edges come first
        pe = 2 * n + i    # porous top edges follow bottom and right
        fv = fluid.vertices[fluid.edge_vertices[fe]]
        pv = porous.vertices[porous.edge_vertices[pe]]
        # Orientations oppose (both CCW in their own cells); compare as sets.
        if not (np.allclose(fv, pv[::-1], atol=GEOM_TOL, rtol=0.0)
                or np.allclose(fv, pv, atol=GEOM_TOL, rtol=0.0)):
            raise AssertionError("interface edges do not coincide")
        pairs.append((fe, pe))
    return CoupledMesh(fluid=fluid, porous=porous, interface_pairs=pairs)


def make_schedule(kind, n0: int | None = None, levels: int | None = None,
                  pairs=None) -> list[MeshSchedule]:
    """Build mesh schedules for the multilevel runs.

    SQUARE squares the subdivision count at every level; CUBE_THEN_SQUARE
    cubes once then squares; PAIR_LIST passes explicit subdivision tuples
    through unchanged, one schedule per tuple.
    """
    if isinstance(kind, str):
        kind = ScheduleKind(kind.lower())

    if kind is ScheduleKind.PAIR_LIST:
        if not pairs:
            raise ValueError("PAIR_LIST needs explicit subdivision tuples")
        schedules = [MeshSchedule(tuple(p)) for p in pairs]
    else:
        if n0 is None or levels is None or n0 < 2 or levels < 1:
            raise ValueError("need base subdivision n0 >= 2 and levels >= 1")
        subs = [n0]
        for lvl in range(levels):
            # stop at the first entry over the cap, which the check below
            # rejects; going on would square up to n0 ** (2 ** levels)
            if subs[-1] > MAX_SUBDIVISIONS:
                break
            if kind is ScheduleKind.CUBE_THEN_SQUARE and lvl == 0:
                subs.append(subs[-1] ** 3)
            else:
                subs.append(subs[-1] ** 2)
        schedules = [MeshSchedule(tuple(subs))]

    for s in schedules:
        for m in s.subdivisions:
            if m > MAX_SUBDIVISIONS:
                raise ScheduleOverflow(
                    f"subdivision {m} exceeds cap {MAX_SUBDIVISIONS}")
    return schedules
