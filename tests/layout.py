"""The monolithic block layout [u, p, phi], written out by hand so that tests
can check `coupled.System` against it rather than against itself."""

from __future__ import annotations

import numpy as np

from nsdarcy.coupled import CoupledState
from nsdarcy.fem import DiscreteField


def monolithic_trace(level):
    """Both outer Dirichlet traces of the level with ids in [u, p, phi]."""
    (vdofs, vvals), (hdofs, hvals) = level.velocity_trace, level.head_trace
    dv, dq, _ = level.spaces
    off_phi = 2 * dv.ndof + dq.ndof
    return (np.concatenate([vdofs, hdofs + off_phi]),
            np.concatenate([vvals, hvals]))


def split_state(spaces, x):
    """A [u, p, phi] coefficient vector as a CoupledState."""
    dv, dq, dphi = spaces
    nv, nq = dv.ndof, dq.ndof
    return CoupledState(
        velocity=DiscreteField(dv, x[:2 * nv].copy()),
        pressure=DiscreteField(dq, x[2 * nv:2 * nv + nq].copy()),
        head=DiscreteField(dphi, x[2 * nv + nq:].copy()))
