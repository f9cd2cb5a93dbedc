import numpy as np
import pytest

from nsdarcy.mesh import (BoundaryTag, MeshSchedule, OutOfDomain, ScheduleKind,
                          ScheduleOverflow, Subdomain, build_coupled_mesh,
                          build_tri_mesh, make_schedule)


def tri_area(verts):
    (x0, y0), (x1, y1), (x2, y2) = verts
    return 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


class TestBuild:
    def test_unit_subdivision_counts(self):
        cm = build_coupled_mesh(1)
        assert cm.fluid.num_vertices == 4
        assert cm.fluid.num_cells == 2
        assert cm.fluid.edge_vertices.shape[0] == 4
        assert len(cm.interface_pairs) == 1

    def test_n2_counts(self):
        cm = build_coupled_mesh(2)
        assert cm.fluid.num_vertices == 9
        assert cm.fluid.num_cells == 8
        assert cm.porous.num_vertices == 9
        assert len(cm.interface_pairs) == 2

    def test_cells_counterclockwise(self):
        mesh = build_tri_mesh(3, Subdomain.POROUS, (0.0, 0.0))
        for c in range(mesh.num_cells):
            v = mesh.vertices[mesh.cells[c]]
            cross = ((v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
                     - (v[2, 0] - v[0, 0]) * (v[1, 1] - v[0, 1]))
            assert cross > 0

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_cell_areas_sum_to_one(self, n):
        mesh = build_tri_mesh(n, Subdomain.FLUID, (0.0, 1.0))
        total = sum(tri_area(v) for v in mesh.vertices[mesh.cells])
        assert abs(total - 1.0) <= 1e-13

    def test_rebuild_is_bit_identical(self):
        a = build_tri_mesh(4, Subdomain.POROUS, (0.0, 0.0))
        b = build_tri_mesh(4, Subdomain.POROUS, (0.0, 0.0))
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.cells, b.cells)
        assert np.array_equal(a.edge_vertices, b.edge_vertices)
        assert np.array_equal(a.edge_tags, b.edge_tags)

    def test_arrays_are_immutable(self):
        mesh = build_tri_mesh(2, Subdomain.POROUS, (0.0, 0.0))
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 99.0


class TestBoundary:
    def test_fluid_edges_tagged_by_side(self):
        mesh = build_tri_mesh(3, Subdomain.FLUID, (0.0, 1.0))
        for e in range(mesh.edge_vertices.shape[0]):
            verts = mesh.vertices[mesh.edge_vertices[e]]
            on_interface = np.allclose(verts[:, 1], 1.0)
            tag = BoundaryTag(mesh.edge_tags[e])
            if on_interface:
                assert tag is BoundaryTag.INTERFACE
            else:
                assert tag is BoundaryTag.OUTER_FLUID

    def test_porous_interface_is_top(self):
        mesh = build_tri_mesh(3, Subdomain.POROUS, (0.0, 0.0))
        iface = mesh.edge_tags == int(BoundaryTag.INTERFACE)
        assert iface.sum() == 3
        for e in np.nonzero(iface)[0]:
            assert np.allclose(mesh.vertices[mesh.edge_vertices[e]][:, 1], 1.0)

    def test_interface_pairs_coincide(self):
        cm = build_coupled_mesh(4)
        for ef, ep in cm.interface_pairs:
            fv = cm.fluid.vertices[cm.fluid.edge_vertices[ef]]
            pv = cm.porous.vertices[cm.porous.edge_vertices[ep]]
            assert (np.allclose(fv, pv, atol=1e-14)
                    or np.allclose(fv, pv[::-1], atol=1e-14))


class TestLocate:
    def test_centroid_of_first_cell(self):
        mesh = build_tri_mesh(2, Subdomain.POROUS, (0.0, 0.0))
        centroid = mesh.vertices[mesh.cells[0]].mean(axis=0)
        cells, bary = mesh.locate_many(centroid[None])
        assert cells[0] == 0
        assert np.allclose(bary[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-14)

    def test_vertex_tie_takes_lowest_cell(self):
        mesh = build_tri_mesh(2, Subdomain.POROUS, (0.0, 0.0))
        cells, bary = mesh.locate_many(np.array([[0.5, 0.5]]))
        containing = [c for c in range(mesh.num_cells)
                      if any(np.allclose(v, (0.5, 0.5))
                             for v in mesh.vertices[mesh.cells[c]])]
        assert cells[0] == min(containing)
        pt = bary[0] @ mesh.vertices[mesh.cells[cells[0]]]
        assert np.allclose(pt, (0.5, 0.5), atol=1e-14)

    def test_roundtrip_random_points(self, rng):
        mesh = build_tri_mesh(3, Subdomain.POROUS, (0.0, 0.0))
        pts = rng.random((200, 2))
        cells, bary = mesh.locate_many(pts)
        rebuilt = np.einsum("pk,pkd->pd", bary,
                            mesh.vertices[mesh.cells[cells]])
        assert np.abs(rebuilt - pts).max() <= 1e-14
        assert np.abs(bary.sum(axis=1) - 1.0).max() <= 1e-14
        assert bary.min() >= 0.0

    def test_roundtrip_large_batch(self, rng):
        mesh = build_tri_mesh(7, Subdomain.FLUID, (0.0, 1.0))
        pts = np.column_stack([rng.random(1000), 1.0 + rng.random(1000)])
        cells, bary = mesh.locate_many(pts)
        rebuilt = np.einsum("pk,pkd->pd", bary,
                            mesh.vertices[mesh.cells[cells]])
        assert np.abs(rebuilt - pts).max() <= 1e-13

    def test_domain_corners_locate(self):
        mesh = build_tri_mesh(4, Subdomain.POROUS, (0.0, 0.0))
        corners = np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=float)
        cells, bary = mesh.locate_many(corners)
        pts = np.einsum("pk,pkd->pd", bary, mesh.vertices[mesh.cells[cells]])
        assert np.allclose(pts, corners, atol=1e-14)

    def test_outside_point_rejected(self):
        mesh = build_tri_mesh(2, Subdomain.POROUS, (0.0, 0.0))
        with pytest.raises(OutOfDomain):
            mesh.locate_many(np.array([[-0.1, 0.5]]))
        with pytest.raises(OutOfDomain):
            mesh.locate_many(np.array([[0.5, 1.5]]))


class TestSchedule:
    def test_square_growth(self):
        (sched,) = make_schedule(ScheduleKind.SQUARE, n0=2, levels=3)
        assert sched.subdivisions == (2, 4, 16, 256)

    def test_cube_then_square(self):
        (sched,) = make_schedule(ScheduleKind.CUBE_THEN_SQUARE, n0=2, levels=2)
        assert sched.subdivisions == (2, 8, 64)

    def test_pair_list_passthrough(self):
        pairs = [(2, 6), (3, 16), (4, 32), (5, 56)]
        scheds = make_schedule(ScheduleKind.PAIR_LIST, pairs=pairs)
        assert [s.subdivisions for s in scheds] == [(2, 6), (3, 16), (4, 32),
                                                    (5, 56)]

    def test_kind_accepts_strings(self):
        (sched,) = make_schedule("square", n0=3, levels=1)
        assert sched.subdivisions == (3, 9)

    def test_cap_enforced(self):
        with pytest.raises(ScheduleOverflow):
            make_schedule(ScheduleKind.SQUARE, n0=2, levels=4)
        with pytest.raises(ScheduleOverflow):
            make_schedule(ScheduleKind.PAIR_LIST, pairs=[(2, 2048)])

    @pytest.mark.parametrize("kind", ["square", "cube_then_square"])
    def test_cap_checked_per_level(self, kind):
        # building all levels first would square up to 2 ** (2 ** 1e9)
        with pytest.raises(ScheduleOverflow, match="exceeds cap 1024"):
            make_schedule(kind, n0=2, levels=10**9)

    def test_subdivisions_validated(self):
        with pytest.raises(ValueError):
            MeshSchedule((4, 4))
        with pytest.raises(ValueError):
            MeshSchedule((8, 2))
        with pytest.raises(ValueError):
            MeshSchedule((1, 4))
        with pytest.raises(ValueError):
            make_schedule(ScheduleKind.PAIR_LIST, pairs=[])
