"""The interface dofs of a dof map, found from the mesh's tagged boundary
edges rather than from anything `fem` stores."""

from __future__ import annotations

import numpy as np

from nsdarcy.mesh import BoundaryTag


def interface_dofs(dm) -> np.ndarray:
    """Ascending dofs of the mesh's interface edges that are not Dirichlet:
    the interface endpoints lie on outer edges and stay Dirichlet."""
    mesh = dm.mesh
    iface = mesh.edge_tags == int(BoundaryTag.INTERFACE)
    dofs = set(mesh.edge_vertices[iface].ravel().tolist())
    if dm.family.tag == "P2":
        dofs |= set(dm.cell_dofs[mesh.edge_cells[iface],
                                 3 + mesh.edge_local[iface]].tolist())
    return np.array(sorted(dofs - set(dm.dirichlet_dofs.tolist())),
                    dtype=np.int64)
