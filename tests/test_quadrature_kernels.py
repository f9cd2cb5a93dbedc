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
from nsdarcy.coupled import CoupledState, build_spaces
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
    assert bitwise_equal(rule.points(), ref.points(rule))
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
        f = rng.standard_normal(rule.points().shape[:2])
        assert bitwise_equal(forms._cell_load(rule, 0.7, [f, 2 * f]),
                             ref.cell_load(rule, 0.7, [f, 2 * f]))


class TestFieldEvaluation:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_values_and_gradients(self, mesh, family, rng):
        field = random_field(build_dofmap(mesh, FAMILIES[family]), rng)
        pts = np.array(ORIGIN[mesh.subdomain]) + rng.uniform(0, 1, (200, 2))
        located = mesh.locate_many(pts)
        for kw in ({}, {"located": located}):
            assert bitwise_equal(field.eval_many(pts, **kw),
                                 ref.eval_many(field, pts))
            assert bitwise_equal(field.eval_grad_many(pts, **kw),
                                 ref.eval_grad_many(field, pts))


class TestForms:
    @pytest.mark.parametrize("family", ["P1", "P2"])
    def test_darcy_stiffness(self, mesh, family, params):
        dm = build_dofmap(mesh, FAMILIES[family])
        assert close_matrix(forms.assemble_ap(dm, params),
                            ref.assemble_ap(dm, params))

    @pytest.mark.parametrize("order", [1, 2])
    def test_fluid_blocks(self, order, params, mms):
        dv, dq, _ = build_spaces(build_coupled_mesh(8), order)
        assert close_matrix(forms.assemble_af(dv, params),
                            ref.assemble_af(dv, params))
        assert close_matrix(forms.assemble_b(dv, dq), ref.assemble_b(dv, dq))
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
