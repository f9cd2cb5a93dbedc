"""The loop kernels of the quadrature layer against the einsum expressions
they replaced (tests/quadrature_reference.py): per-cell values bit for bit,
per-shape values gathered by the shape index bit for bit, and the matrices
and error norms that are summed in another order to 1e-14 of the oracle's
largest entry: on the structured meshes, and on random affine
triangles."""

import dataclasses

import numpy as np
import pytest
import quadrature_reference as ref
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsdarcy import forms
from nsdarcy.coupled import (CoupledState, build_level, build_spaces,
                             solve_coupled)
from nsdarcy.fem import (MINI_VELOCITY, P1, P2, P2_VELOCITY, DiscreteField,
                         DofMap, build_dofmap)
from nsdarcy.forms import ConvectionMode, cell_rule, quad_state
from nsdarcy.mesh import Subdomain, build_coupled_mesh, build_tri_mesh
from nsdarcy.mms import error_norms

FAMILIES = {"P1": P1, "P2": P2, "Mini": MINI_VELOCITY, "P2-vector": P2_VELOCITY}
ORIGIN = {Subdomain.FLUID: (0.0, 1.0), Subdomain.POROUS: (0.0, 0.0)}


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def close_matrix(A, B, rtol=1e-14) -> bool:
    """A has B's pattern, and its entries lie within rtol times B's largest
    entry of B's."""
    return (np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.abs(A.data - B.data).max(initial=0.0)
            <= rtol * np.abs(B.data).max(initial=0.0))


def random_field(dofmap, rng):
    return DiscreteField(dofmap,
                         rng.standard_normal(dofmap.num_coefficients))


@pytest.fixture(scope="module", params=[(sub, n) for sub in Subdomain
                                        for n in (3, 8)],
                ids=lambda p: f"{p[0].value}-{p[1]}")
def mesh(request):
    sub, n = request.param
    return build_tri_mesh(n, sub, ORIGIN[sub])


def close_errors(report, expect, rtol=1e-14) -> bool:
    """The same keys, each error within rtol times the largest one of
    expect."""
    diff = [abs(report.errors[k] - v) for k, v in expect.errors.items()]
    return (report.errors.keys() == expect.errors.keys()
            and max(diff) <= rtol * max(expect.errors.values()))


def assert_rule_kernels(rule):
    """Per-shape kernels, gathered by the shape index, against the oracle's
    per-cell values."""
    assert bitwise_equal(rule.grads()[rule.shape], ref.grads(rule))
    assert bitwise_equal(rule.mass()[rule.shape], ref.mass(rule))
    assert bitwise_equal(rule.stiffness()[rule.shape], ref.stiffness(rule))


def assert_shape_tables(mesh):
    """det and J^{-T} per shape, gathered by the shape index, are bitwise
    those of each cell's own vertices."""
    index, det, jinv_t = mesh.shapes
    verts = mesh.vertices[mesh.cells]
    e1, e2 = verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]
    assert index.shape == (mesh.num_cells,)
    assert bitwise_equal(det[index], e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert bitwise_equal(jinv_t[index], ref._inverse_transpose(verts))


class TestCellShapes:
    @pytest.mark.parametrize("n", [4, 16, 128])
    @pytest.mark.parametrize("sub", Subdomain)
    def test_structured_meshes_have_two_shapes(self, sub, n):
        index, det, jinv_t = build_tri_mesh(n, sub, ORIGIN[sub]).shapes
        assert det.shape == (2,) and jinv_t.shape == (2, 2, 2)
        assert np.array_equal(np.bincount(index), [n * n, n * n])

    @pytest.mark.parametrize("n", [3, 58, 81])
    @pytest.mark.parametrize("sub", Subdomain)
    def test_tables_are_each_cells_own(self, sub, n):
        """Rounded vertices give these meshes more than two shapes."""
        mesh = build_tri_mesh(n, sub, ORIGIN[sub])
        assert_shape_tables(mesh)
        assert len(mesh.shapes[1]) > 2


class TestCellRule:
    @pytest.mark.parametrize("degree", [5, 6, 8])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_kernels(self, mesh, family, degree, rng):
        rule = cell_rule(build_dofmap(mesh, FAMILIES[family]), degree)
        assert_rule_kernels(rule)
        points = np.stack([rule.on_cells(a) for a in rule.axes()], axis=-1)
        assert bitwise_equal(points, ref.points(rule))
        f = rng.standard_normal(points.shape[:2])
        assert bitwise_equal(forms._cell_load(rule, 0.7, [f, 2 * f]),
                             ref.cell_load(rule, 0.7, [f, 2 * f]))


class TestFieldEvaluation:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_values_and_gradients(self, mesh, family, rng):
        field = random_field(build_dofmap(mesh, FAMILIES[family]), rng)
        pts = np.array(ORIGIN[mesh.subdomain]) + rng.uniform(0, 1, (200, 2))
        assert bitwise_equal(field.eval_many(pts), ref.eval_many(field, pts))
        assert bitwise_equal(field.eval_grad_many(pts),
                             ref.eval_grad_many(field, pts))


class TestForms:
    @pytest.mark.parametrize("family", ["P1", "P2"])
    def test_darcy_stiffness(self, mesh, family, params):
        dm = build_dofmap(mesh, FAMILIES[family])
        assert close_matrix(forms.assemble_ap(dm, params),
                            ref.assemble_ap(dm, params))

    @pytest.mark.parametrize("order", [1, 2])
    def test_fluid_blocks(self, order, params, mms):
        """a_f keeps the whole cell pattern, which Picard's refill writes
        into, and B drops its exact zeros; both are compared with the
        oracle once stored zeros are dropped on both sides."""
        dv, dq, _ = build_spaces(build_coupled_mesh(8), order)
        af, B = forms.assemble_af(dv, params), forms.assemble_b(dv, dq)
        assert af.nnz == 2 * len(forms.cell_pattern(dv).indices)
        assert B.data.all()
        for A, A_ref in ((af, ref.assemble_af(dv, params)),
                         (B, ref.assemble_b(dv, dq))):
            A.eliminate_zeros()
            A_ref.eliminate_zeros()
            assert close_matrix(A, A_ref)
        assert bitwise_equal(
            forms.assemble_volume_load(dv, mms.f_fluid, degree=8),
            ref.assemble_volume_load(dv, mms.f_fluid, degree=8))

    @pytest.mark.parametrize("coarse_n", [3, 8])
    @pytest.mark.parametrize("order", [1, 2])
    def test_convection_and_correction(self, order, coarse_n, params, rng):
        """States of the target space (coarse_n = 8) and of a coarser mesh
        (coarse_n = 3, evaluated through point location)."""
        dv = build_spaces(build_coupled_mesh(8), order).velocity
        coarse = build_spaces(build_coupled_mesh(coarse_n), order).velocity
        a, s = random_field(coarse, rng), random_field(dv, rng)
        for mode in ConvectionMode:
            state = quad_state(a, cell_rule(dv),
                               grads=mode is ConvectionMode.NEWTON)
            N, load = forms.assemble_convection(state, mode, params)
            N_ref, load_ref = ref.assemble_convection(dv, a, mode, params)
            assert close_matrix(N, N_ref)
            assert (load is None and load_ref is None) \
                or bitwise_equal(load, load_ref)
        assert bitwise_equal(
            forms.assemble_correction_load(quad_state(a, cell_rule(dv)), s,
                                           params),
            ref.assemble_correction_load(dv, a, s, params))


@pytest.fixture(scope="module")
def coarse_states(params, mms):
    """Coupled solutions, by (n, order): the states that fine levels are
    linearized about."""
    cache = {}

    def state(n, order):
        if (n, order) not in cache:
            cache[n, order] = solve_coupled(build_level(
                build_coupled_mesh(n), order, params, mms))[0].velocity
        return cache[n, order]
    return state


class TestPeriodTables:
    """A coarse state at the fine points from one period's tables, against
    locating and evaluating every point (eval_many, eval_grad_many): the
    same cells, values within 1e-14 of the largest one. A gradient sums
    terms c_l grad(basis_l) of up to about n_c max|c|, whose rounding does
    not cancel, and its tables' barycentrics differ from those of the
    points of later periods in the last bits: gradients agree to 1e-14 of
    that size."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("coarse_n, fine_n",
                             [(4, 16), (16, 128), (2, 3), (3, 4), (16, 58)])
    def test_against_point_evaluation(self, coarse_states, coarse_n, fine_n,
                                      order):
        a = coarse_states(coarse_n, order)
        rule = cell_rule(build_spaces(build_coupled_mesh(fine_n),
                                      order).velocity)
        pts = ref.points(rule).reshape(-1, 2)
        state = quad_state(a, rule)
        at, _, _ = forms._period_tables(a, rule)
        assert np.array_equal(at.ravel(), a.dofmap.mesh.locate_many(pts)[0])
        vals, grads = a.eval_many(pts), a.eval_grad_many(pts)
        assert np.abs(state.vals.reshape(vals.shape) - vals).max() \
            <= 1e-14 * np.abs(vals).max()
        assert np.abs(state.grads.reshape(grads.shape) - grads).max() \
            <= 1e-14 * coarse_n * np.abs(a.coefficients).max()

    @pytest.mark.parametrize("coarse_n, fine_n", [(3, 4), (6, 8)])
    def test_ties_on_coarse_edges(self, coarse_states, coarse_n, fine_n):
        """Mini's rule has the centroid, and (2 + 2/3) / 4 = 2/3: points
        that lie on coarse gridlines and diagonals. Each goes to the lower
        cell id in every period, as locate_many sends it, and its
        one-sided gradient is that cell's; (6, 8) repeats (3, 4) twice."""
        a = coarse_states(coarse_n, 1)
        rule = cell_rule(build_spaces(build_coupled_mesh(fine_n),
                                      1).velocity)
        pts = ref.points(rule).reshape(-1, 2)
        cells, bary = a.dofmap.mesh.locate_many(pts)
        ties = (bary < 1e-12).any(axis=1)
        assert ties.sum() >= 20 * (fine_n // 4) ** 2
        at, _, _ = forms._period_tables(a, rule)
        assert np.array_equal(at.ravel(), cells)
        grads = a.eval_grad_many(pts[ties])
        got = quad_state(a, rule).grads.reshape(-1, 2, 2)[ties]
        assert np.abs(got - grads).max() <= 1e-14 * np.abs(grads).max()


@pytest.mark.parametrize("order", [1, 2])
def test_error_norms(order, mms, rng):
    """Two states sharing their spaces, each against the single-state
    reference."""
    spaces = build_spaces(build_coupled_mesh(3), order)
    states = [CoupledState(*(random_field(d, rng) for d in spaces))
              for _ in range(2)]
    for report, state in zip(error_norms(states, mms), states):
        expect = ref.error_norms(state, mms)
        assert report.n == expect.n
        assert close_errors(report, expect)


def test_error_norms_rejects_states_on_other_spaces(mms, rng):
    a, b = (CoupledState(*(random_field(d, rng)
                           for d in build_spaces(build_coupled_mesh(2), 1)))
            for _ in range(2))
    with pytest.raises(ValueError, match="same spaces"):
        error_norms([a, b], mms)


coordinate = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def affine_triangles(draw):
    """1 to 4 disjoint counterclockwise triangles, none degenerate."""
    tris = []
    for _ in range(draw(st.integers(1, 4))):
        v = np.array(draw(st.lists(coordinate, min_size=6, max_size=6)))
        v = v.reshape(3, 2)
        e1, e2 = v[1] - v[0], v[2] - v[0]
        det = e1[0] * e2[1] - e1[1] * e2[0]
        longest = max(np.sum(e1 ** 2), np.sum(e2 ** 2),
                      np.sum((v[2] - v[1]) ** 2))
        assume(abs(det) > 1e-3 * longest and longest > 1e-4)
        tris.append(v if det > 0 else v[[0, 2, 1]])
    return np.concatenate(tris)


def loose_dofmap(vertices, family):
    """A dof map on disjoint triangles: every cell has its own dofs."""
    base = build_tri_mesh(1, Subdomain.FLUID, (0.0, 1.0))
    nc = len(vertices) // 3
    mesh = dataclasses.replace(base, vertices=vertices,
                               cells=np.arange(3 * nc).reshape(nc, 3))
    nloc = {"P1": 3, "P2": 6, "MINI_VELOCITY": 4}[family.tag]
    empty = np.zeros(0, dtype=np.int64)
    return DofMap(family=family, mesh=mesh, ndof=nc * nloc,
                  cell_dofs=np.arange(nc * nloc).reshape(nc, nloc),
                  dof_coords=np.zeros((nc * nloc, 2)), dirichlet_dofs=empty)


@settings(max_examples=60, deadline=None)
@given(affine_triangles(), st.sampled_from(sorted(FAMILIES)),
       st.sampled_from([5, 6, 8]), st.integers(0, 2 ** 32 - 1))
def test_random_affine_triangles(vertices, family, degree, seed):
    rng = np.random.default_rng(seed)
    dm = loose_dofmap(vertices, FAMILIES[family])
    assert_shape_tables(dm.mesh)
    rule = cell_rule(dm, degree)
    assert_rule_kernels(rule)
    if dm.family.components == 2:
        params = forms.ModelParams()
        a, s = random_field(dm, rng), random_field(dm, rng)
        N, load = forms.assemble_convection(quad_state(a, rule),
                                            ConvectionMode.NEWTON, params)
        N_ref, load_ref = ref.assemble_convection(dm, a, ConvectionMode.NEWTON,
                                                  params, degree)
        assert close_matrix(N, N_ref) and bitwise_equal(load, load_ref)
        assert bitwise_equal(
            forms.assemble_correction_load(quad_state(a, rule), s, params),
            ref.assemble_correction_load(dm, a, s, params, degree))
