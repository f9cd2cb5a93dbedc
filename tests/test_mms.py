import numpy as np
import pytest
import quadrature_reference as ref
from test_quadrature_kernels import bitwise_equal

from nsdarcy import ModelParams, manufactured_problem
from nsdarcy.coupled import CoupledState, build_spaces
from nsdarcy.fem import DiscreteField, interpolate
from nsdarcy.forms import assemble_volume_load, cell_rule
from nsdarcy.mesh import build_coupled_mesh
from nsdarcy.mms import (ERROR_DEGREE, REPORTED_KEYS, ErrorReport,
                         InsufficientData, error_norms, rate_table)

# reference error magnitudes from an independent implementation of the same
# problem, used for rate arithmetic (first-order head H1 across n in
# {8, 27, 64}; second-order head L2 column)
MINI_FE_PHI_H1 = {8: 6.134e-2, 27: 1.823e-2, 64: 7.693e-3}
TH_FE_PHI_L2 = {6: 1.056e-4, 16: 5.584e-6, 32: 7.000e-7, 56: 1.308e-7}

TH_FE_N16 = {("phi", "L2"): 5.584e-6, ("phi", "H1"): 3.648e-4,
             ("u", "L2"): 2.221e-5, ("u", "H1"): 1.156e-3,
             ("v", "L2"): 1.161e-5, ("v", "H1"): 6.732e-4,
             ("p", "L2"): 2.930e-4}

# squares of the exact-solution norms, integrated in closed form
ANALYTIC_SQ = {
    ("u", "L2"): 3.0 / 16.0,
    ("u", "H1"): 7.0 * np.pi ** 2 / 64.0,
    ("v", "L2"): -11.0 / 64.0 + 7.0 * np.pi ** 2 / 96.0,
    ("v", "H1"): np.pi ** 2 * (3.0 + 14.0 * np.pi ** 2) / 768.0,
    ("p", "L2"): -1.0 / 8.0 + 5.0 * np.pi ** 2 / 192.0,
    ("phi", "L2"): np.pi ** 2 / 96.0,
    ("phi", "H1"): np.pi ** 2 * (np.pi ** 2 + 12.0) / 384.0,
}


def interpolant_state(n, order, mms):
    dv, dq, dphi = build_spaces(build_coupled_mesh(n), order)
    return CoupledState(interpolate(mms.velocity, dv),
                        interpolate(mms.pressure, dq),
                        interpolate(mms.head, dphi))


def zero_state(n, order):
    dv, dq, dphi = build_spaces(build_coupled_mesh(n), order)
    return CoupledState(
        interpolate(lambda x, y: (np.zeros_like(x), np.zeros_like(x)), dv),
        interpolate(lambda x, y: np.zeros_like(x), dq),
        interpolate(lambda x, y: np.zeros_like(x), dphi))


def fd_grad(f, x, y, h=1e-6):
    return ((f(x + h, y) - f(x - h, y)) / (2 * h),
            (f(x, y + h) - f(x, y - h)) / (2 * h))


def fd_laplace(f, x, y, h=1e-4):
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
            - 4 * f(x, y)) / h ** 2


class TestExactFields:
    def test_interface_traces(self, mms):
        x = np.linspace(0.0, 1.0, 11)
        ref = (np.pi / 4) * np.cos(np.pi * x / 2)
        assert np.abs(mms.head(x, np.ones_like(x)) - ref).max() <= 1e-14
        assert np.abs(mms.pressure(x, np.ones_like(x)) - ref).max() <= 1e-14

    def test_tangential_velocity_vanishes_on_interface(self, mms):
        x = np.linspace(0.0, 1.0, 11)
        y = np.ones_like(x)
        u, _ = mms.velocity(x, y)
        du_dy = mms.velocity_grad(x, y)[0][1]
        assert np.abs(u).max() <= 1e-14
        assert np.abs(du_dy).max() <= 1e-14

    def test_porous_forcing_closed_form(self, mms, params):
        x, y = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 7))
        kappa = params.conductivity / params.porosity
        ref = (np.pi ** 3 / 16) * kappa * y * np.cos(np.pi * x / 2)
        assert np.abs(mms.f_porous(x, y) - ref).max() <= 1e-14

    def test_fluid_forcing_against_finite_differences(self, mms, params, rng):
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        x, y = pts[:, 0], 1.0 + pts[:, 1]
        u = lambda x, y: mms.velocity(x, y)[0]
        v = lambda x, y: mms.velocity(x, y)[1]
        px, py = fd_grad(mms.pressure, x, y)
        uv = np.column_stack(mms.velocity(x, y))
        ux, uy = fd_grad(u, x, y)
        vx, vy = fd_grad(v, x, y)
        conv_x = uv[:, 0] * ux + uv[:, 1] * uy
        conv_y = uv[:, 0] * vx + uv[:, 1] * vy
        fx = -params.nu * fd_laplace(u, x, y) + px + params.rho * conv_x
        fy = -params.nu * fd_laplace(v, x, y) + py + params.rho * conv_y
        got_x, got_y = mms.f_fluid(x, y)
        assert np.abs(got_x - fx).max() <= 1e-6
        assert np.abs(got_y - fy).max() <= 1e-6

    def test_porous_forcing_against_finite_differences(self, mms, params,
                                                       rng):
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        x, y = pts[:, 0], pts[:, 1]
        kappa = params.conductivity / params.porosity
        ref = -kappa * fd_laplace(mms.head, x, y)
        assert np.abs(mms.f_porous(x, y) - ref).max() <= 1e-6

    def test_velocity_grad_against_finite_differences(self, mms, rng):
        pts = rng.uniform(0.05, 0.95, size=(50, 2))
        x, y = pts[:, 0], 1.0 + pts[:, 1]
        (u1x, u1y), (u2x, u2y) = mms.velocity_grad(x, y)
        u = lambda x, y: mms.velocity(x, y)[0]
        v = lambda x, y: mms.velocity(x, y)[1]
        ux, uy = fd_grad(u, x, y)
        vx, vy = fd_grad(v, x, y)
        assert np.abs(u1x - ux).max() <= 1e-9
        assert np.abs(u1y - uy).max() <= 1e-9
        assert np.abs(u2x - vx).max() <= 1e-9
        assert np.abs(u2y - vy).max() <= 1e-9


class TestInterfaceResiduals:
    """The exact solution satisfies the three coupling conditions on
    y = 1 with n_f = (0, -1) and tau = (1, 0)."""

    x = np.linspace(0.025, 0.975, 20)

    def test_mass_conservation(self, mms, params):
        y = np.ones_like(self.x)
        _, v = mms.velocity(self.x, y)
        u_dot_nf = -v
        kappa = params.conductivity / params.porosity
        darcy_flux = kappa * mms.head_grad(self.x, y)[1]  # -grad.n_f
        assert np.abs(u_dot_nf - darcy_flux).max() <= 1e-12

    def test_normal_stress_balance(self, mms, params):
        y = np.ones_like(self.x)
        dv_dy = mms.velocity_grad(self.x, y)[1][1]
        lhs = -params.nu * dv_dy + mms.pressure(self.x, y)
        rhs = params.rho * params.gravity * mms.head(self.x, y)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_tangential_slip_condition(self, mms, params):
        y = np.ones_like(self.x)
        du_dy = mms.velocity_grad(self.x, y)[0][1]
        u, _ = mms.velocity(self.x, y)
        lhs = params.nu * du_dy      # -nu (grad u n_f) . tau
        rhs = params.bjs_coefficient * u
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestErrorNorms:
    def test_zero_state_recovers_analytic_norms(self, mms):
        # n = 8 keeps the degree-8 quadrature error of the trigonometric
        # integrands below the 1e-12 comparison threshold
        report = error_norms([zero_state(8, 1)], mms)[0]
        for key, sq in ANALYTIC_SQ.items():
            got = report.get(*key)
            assert got >= 0
            assert abs(got - np.sqrt(sq)) <= 1e-12 * np.sqrt(sq)

    def test_interpolant_matches_reference_scale(self, mms):
        # the reference FE errors at n=16 bound the interpolant's order
        # of magnitude; mesh-constant differences keep this a factor
        # comparison rather than a digit match
        report = error_norms([interpolant_state(16, 2, mms)], mms)[0]
        for key, ref in TH_FE_N16.items():
            r = report.get(*key) / ref
            # nodal pressure interpolation trails the Galerkin pressure by
            # a visible constant; the field variables sit much closer
            upper = 6.0 if key == ("p", "L2") else 3.0
            assert 0.2 <= r <= upper, (key, r)

    def test_interpolant_beats_coarser_interpolant(self, mms):
        coarse = error_norms([interpolant_state(8, 2, mms)], mms)[0]
        fine = error_norms([interpolant_state(16, 2, mms)], mms)[0]
        for key in REPORTED_KEYS:
            assert fine.get(*key) < coarse.get(*key)

    def test_quadrature_degree_invariance(self, mms, monkeypatch):
        state = interpolant_state(8, 1, mms)
        r8 = error_norms([state], mms)[0]
        monkeypatch.setattr("nsdarcy.mms.ERROR_DEGREE", 10)
        r10 = error_norms([state], mms)[0]
        for key in REPORTED_KEYS:
            a, b = r8.get(*key), r10.get(*key)
            assert abs(a - b) <= 1e-3 * a

    def test_report_metadata(self, mms):
        report = error_norms([zero_state(2, 1)], mms)[0]
        assert report.n == 2
        assert all(v >= 0 for v in report.errors.values())


METHODS = ("velocity", "velocity_grad", "pressure", "head", "head_grad",
           "f_fluid", "f_porous")


def arrays(values):
    """The arrays of a method's value, pair, or pair of pairs."""
    if isinstance(values, np.ndarray):
        return [values]
    return [a for v in values for a in arrays(v)]


class Recording:
    """A ManufacturedProblem that keeps the coordinates of every call."""

    def __init__(self, mms):
        self.mms, self.calls = mms, []

    def __getattr__(self, name):
        def method(x, y):
            self.calls.append((name, x, y))
            return getattr(self.mms, name)(x, y)
        return method


class TestSeparableExactFields:
    """error_norms and assemble_volume_load hand the manufactured fields x
    (1, n, 2, nq) and y (n, 1, 2, nq) of the cell grid, not (nc, nq)
    arrays. Their entries are bitwise those points' coordinates, rounded
    alike for both callers (vertices times barycentrics, summed in order
    per cell), and every method gives bitwise the values of the full
    arrays: the same ufunc on the same input rounds alike."""

    @pytest.mark.parametrize("n", [3, 58, 256])
    def test_bitwise_those_of_full_arrays(self, n, mms):
        cm, done = build_coupled_mesh(n), set()
        for order in (1, 2):
            spaces = build_spaces(cm, order)
            rec = Recording(mms)
            error_norms([CoupledState(*(DiscreteField(
                d, np.zeros(d.num_coefficients)) for d in spaces))], rec)
            norms = len(rec.calls)
            assemble_volume_load(spaces.velocity, rec.f_fluid)
            assemble_volume_load(spaces.head, rec.f_porous)
            assert [c[0] for c in rec.calls] == [
                "velocity", "velocity_grad", "pressure", "head",
                "head_grad", "f_fluid", "f_porous"]
            for k, (name, x, y) in enumerate(rec.calls):
                dofmap = spaces.head if name in ("head", "head_grad",
                                                 "f_porous") \
                    else spaces.velocity
                rule = cell_rule(dofmap, ERROR_DEGREE if k < norms else None)
                full = list(ref.points(rule).transpose(2, 0, 1))
                nq = len(rule.weights)
                assert x.shape == (1, n, 2, nq) and y.shape == (n, 1, 2, nq)
                for sep, whole in zip((x, y), full):
                    assert bitwise_equal(rule.on_cells(sep), whole), name
                key = (dofmap.mesh.subdomain, nq)
                if key in done:
                    continue
                done.add(key)
                for method in METHODS:
                    got = arrays(getattr(mms, method)(x, y))
                    expect = arrays(getattr(mms, method)(*full))
                    assert all(bitwise_equal(rule.on_cells(g), e)
                               for g, e in zip(got, expect)), (
                        f"{method} on separable coordinates differs from "
                        f"full arrays: this NumPy {np.__version__} rounds "
                        f"broadcast transcendentals another way")


class TestInterpolantRates:
    @pytest.mark.parametrize("order,meshes", [(1, [4, 8, 16]),
                                              (2, [4, 8, 16])])
    def test_energy_and_l2_orders(self, order, meshes, mms):
        reports = [error_norms([interpolant_state(n, order, mms)], mms)[0]
                   for n in meshes]
        rates = rate_table(reports)
        for var in ("u", "v", "phi"):
            for i in range(1, len(meshes)):
                assert rates[(var, "H1")][i] >= order - 0.2
                assert rates[(var, "L2")][i] >= order + 1 - 0.25


class TestRateTable:
    def test_exact_halving_arithmetic(self):
        reports = [
            ErrorReport(n=n, errors={key: (4e-2 if n == 8 else 1e-2)
                                     for key in REPORTED_KEYS})
            for n in (8, 16)]
        rates = rate_table(reports)
        assert rates[("u", "H1")][0] is None
        assert abs(rates[("u", "H1")][1] - 2.0) <= 1e-12

    def test_reference_first_order_energy_rates(self):
        reports = [
            ErrorReport(n=n, errors={("phi", "H1"): e})
            for n, e in sorted(MINI_FE_PHI_H1.items())]
        rates = rate_table(reports)
        for i in (1, 2):
            assert abs(rates[("phi", "H1")][i] - 1.0) <= 0.2

    def test_reference_second_order_l2_rates(self):
        reports = [
            ErrorReport(n=n, errors={("phi", "L2"): e})
            for n, e in sorted(TH_FE_PHI_L2.items())]
        rates = rate_table(reports)
        for i in (1, 2, 3):
            assert abs(rates[("phi", "L2")][i] - 3.0) <= 0.2

    def test_insufficient_data(self, mms):
        one = error_norms([zero_state(2, 1)], mms)[0]
        with pytest.raises(InsufficientData):
            rate_table([one])
        with pytest.raises(InsufficientData):
            rate_table([one, error_norms([zero_state(2, 1)], mms)[0]])
