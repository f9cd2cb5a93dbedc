import numpy as np
import pytest
from best_approximation import (H1_KEYS, best_errors, outside_band,
                                quasi_optimality)
from test_mms import interpolant_state, zero_state

from nsdarcy.mesh import build_coupled_mesh
from nsdarcy.mms import REPORTED_KEYS, error_norms


def cubic(x, y):
    return 1.0 + x * y - 2.0 * x ** 3 + y ** 2 * x


class CubicProblem:
    pressure = staticmethod(cubic)

    @staticmethod
    def velocity(x, y):
        return cubic(x, y), cubic(y, x)

    @staticmethod
    def head(x, y):
        return cubic(y, x)


class DiscreteProblem:
    """Exact fields that are themselves members of the discrete spaces."""

    def __init__(self, state):
        self.state = state

    @staticmethod
    def _at(field, method, x, y):
        # error_norms hands x and y that only broadcast to the points
        x, y = np.broadcast_arrays(x, y)
        out = getattr(field, method)(np.column_stack([x.ravel(), y.ravel()]))
        return out.reshape(x.shape + out.shape[1:])

    def velocity(self, x, y):
        vals = self._at(self.state.velocity, "eval_many", x, y)
        return vals[..., 0], vals[..., 1]

    def velocity_grad(self, x, y):
        g = self._at(self.state.velocity, "eval_grad_many", x, y)
        return (g[..., 0, 0], g[..., 0, 1]), (g[..., 1, 0], g[..., 1, 1])

    def pressure(self, x, y):
        return self._at(self.state.pressure, "eval_many", x, y)

    def head(self, x, y):
        return self._at(self.state.head, "eval_many", x, y)

    def head_grad(self, x, y):
        g = self._at(self.state.head, "eval_grad_many", x, y)
        return g[..., 0], g[..., 1]


@pytest.mark.parametrize("order", [1, 2])
def test_member_of_the_space_is_recovered(order, rng):
    # interpolants of a cubic: piecewise P1/Mini or P2, never the cubic
    # itself; the Mini velocity also carries random bubble coefficients
    n = 4
    state = interpolant_state(n, order, CubicProblem)
    if order == 1:
        dv = state.velocity.dofmap
        bubbles = np.arange(dv.mesh.num_vertices, dv.ndof)
        for d in range(2):
            state.velocity.component_view(d)[bubbles] = \
                rng.standard_normal(bubbles.size)
    best = best_errors(build_coupled_mesh(n), order, DiscreteProblem(state))
    assert max(best.values()) <= 1e-12, best


@pytest.mark.parametrize("n,order", [(4, 1), (8, 1), (4, 2), (8, 2)])
def test_never_worse_than_the_nodal_interpolant(n, order, mms):
    best = best_errors(build_coupled_mesh(n), order, mms)
    interp = error_norms([interpolant_state(n, order, mms)], mms)[0].errors
    for key in REPORTED_KEYS:
        assert best[key] <= interp[key] * (1 + 1e-12), key
    assert not outside_band(quasi_optimality(interp, best),
                            band=(1.0 - 1e-9, np.inf))


def test_band_rejects_the_zero_state_and_errors_below_the_minimum(mms):
    best = best_errors(build_coupled_mesh(8), 1, mms)
    zero = error_norms([zero_state(8, 1)], mms)[0].errors
    labels = {f"{var}:{norm}" for var, norm in H1_KEYS} | {"energy"}
    assert {o.split()[0] for o in
            outside_band(quasi_optimality(zero, best))} == labels
    below = {key: (1 - 1e-6) * err for key, err in best.items()}
    assert {o.split()[0] for o in
            outside_band(quasi_optimality(below, best))} == labels
