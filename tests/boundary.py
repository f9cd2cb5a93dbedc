"""The interface dofs of a dof map, found from the mesh's interface edges
rather than from anything `fem` stores."""

from __future__ import annotations

import numpy as np


def interface_dofs(dm) -> np.ndarray:
    """Ascending dofs of the mesh's interface edges that are not Dirichlet:
    the interface endpoints lie on outer edges and stay Dirichlet."""
    cells, local, ends = dm.mesh.interface
    dofs = set(ends.ravel().tolist())
    if dm.family.tag == "P2":
        dofs |= set(dm.cell_dofs[cells, 3 + local].tolist())
    return np.array(sorted(dofs - set(dm.dirichlet_dofs.tolist())),
                    dtype=np.int64)
