import numpy as np
import pytest

from nsdarcy.cli import parse_schedule_spec
from nsdarcy.mesh import (OutOfDomain, Subdomain, build_coupled_mesh,
                          build_tri_mesh)


def tri_area(verts):
    (x0, y0), (x1, y1), (x2, y2) = verts
    return 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


class TestBuild:
    def test_unit_subdivision_counts(self):
        cm = build_coupled_mesh(1)
        assert cm.fluid.num_vertices == 4
        assert cm.fluid.num_cells == 2
        assert len(cm.fluid.interface[0]) == len(cm.porous.interface[0]) == 1

    def test_n2_counts(self):
        cm = build_coupled_mesh(2)
        assert cm.fluid.num_vertices == 9
        assert cm.fluid.num_cells == 8
        assert cm.porous.num_vertices == 9
        assert len(cm.fluid.interface[0]) == len(cm.porous.interface[0]) == 2

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
        for x, y in zip(a.interface, b.interface):
            assert np.array_equal(x, y)

    def test_arrays_are_immutable(self):
        mesh = build_tri_mesh(2, Subdomain.POROUS, (0.0, 0.0))
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 99.0


class TestBoundary:
    def test_porous_interface_is_top(self):
        mesh = build_tri_mesh(3, Subdomain.POROUS, (0.0, 0.0))
        cells, local, ends = mesh.interface
        assert len(cells) == len(local) == len(ends) == 3
        assert np.allclose(mesh.vertices[ends][..., 1], 1.0)

    def test_interface_pairs_coincide(self):
        cm = build_coupled_mesh(4)
        for fe, pe in zip(cm.fluid.interface[2], cm.porous.interface[2]):
            fv = cm.fluid.vertices[fe]
            pv = cm.porous.vertices[pe]
            assert (np.allclose(fv, pv, atol=1e-14)
                    or np.allclose(fv, pv[::-1], atol=1e-14))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_interface_pairs_array_runs_opposite(self, n):
        """Each mesh's interface: (n,) cells and local edges and (n, 2)
        ends, int64 and read only, the ends being the cell's local edge in
        counterclockwise order, left to right on y = 1; the porous edge
        walks the fluid edge's vertices in reverse."""
        cm = build_coupled_mesh(n)
        for mesh, local_edge in ((cm.fluid, 0), (cm.porous, 1)):
            cells, local, ends = mesh.interface
            assert cells.shape == local.shape == (n,)
            assert ends.shape == (n, 2)
            for a in mesh.interface:
                assert a.dtype == np.int64 and not a.flags.writeable
            assert (local == local_edge).all()
            tri = mesh.cells[cells]
            assert np.array_equal(ends, np.stack(
                [tri[:, local_edge], tri[:, (local_edge + 1) % 3]], axis=1))
            verts = mesh.vertices[ends]
            assert np.allclose(verts[..., 1], 1.0, atol=1e-14, rtol=0.0)
            assert np.allclose(np.sort(verts[..., 0], axis=1),
                               np.arange(n)[:, None] / n + [0, 1 / n],
                               atol=1e-14, rtol=0.0)
        fv = cm.fluid.vertices[cm.fluid.interface[2]]
        pv = cm.porous.vertices[cm.porous.interface[2]]
        assert np.allclose(fv, pv[:, ::-1], atol=1e-14, rtol=0.0)


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
    # refinement schedules of the mesh family, as expanded from their specs
    def test_square_growth(self):
        (sched,) = parse_schedule_spec("square:n0=2,levels=3")
        assert sched == (2, 4, 16, 256)

    def test_cube_then_square(self):
        (sched,) = parse_schedule_spec("cube_then_square:n0=2,levels=2")
        assert sched == (2, 8, 64)

    def test_pair_list_passthrough(self):
        scheds = parse_schedule_spec("pairs:2:6,3:16,4:32,5:56")
        assert scheds == [(2, 6), (3, 16), (4, 32), (5, 56)]
