"""Mesh generation: counts, areas, boundary tagging, grading, jitter."""

import numpy as np
import pytest

from phasefrac.fem import Discretization, State, assemble_Kuu
from phasefrac.mesh import banded_rect_mesh, boundary_dofs, rect_mesh
from phasefrac.model import Material


def test_single_cell_counts():
    mesh = rect_mesh(1.0, 1.0, 1.0)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert sum(f.shape[0] for f in mesh.boundary_facets.values()) == 4


def test_rectangle_counts():
    mesh = rect_mesh(2.0, 1.0, 0.5)
    assert mesh.n_vertices == 15
    assert mesh.n_triangles == 16


def test_total_area_tiles_domain():
    area = Discretization(rect_mesh(2.0, 1.0, 0.1), Material()).area
    assert abs(area.sum() - 2.0) <= 1e-12 * 2.0


def test_triangles_ccw_positive_area():
    for mesh in (rect_mesh(1.0, 1.0, 0.2), rect_mesh(3.0, 2.0, 0.4, origin_x2=-1.0)):
        assert Discretization(mesh, Material()).area.min() > 0.0
    mesh.triangles = mesh.triangles[:, ::-1]   # clockwise
    with pytest.raises(ValueError, match="CCW"):
        Discretization(mesh, Material())


def test_euler_characteristic_of_disk():
    mesh = rect_mesh(2.0, 1.0, 0.25)
    t = mesh.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    n_edges = np.unique(edges, axis=0).shape[0]
    # V - E + F = 1 for a triangulated topological disk (without the outer face)
    assert mesh.n_vertices - n_edges + mesh.n_triangles == 1


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        rect_mesh(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        rect_mesh(1.0, 1.0, -0.5)


def test_tall_rectangle_keeps_the_wide_band():
    # numbered across the shorter side first, 4 x 10 has the elastic
    # half-bandwidth of 10 x 4: 2 (ny + 2) + 1 with ny = 16 rows of cells
    def half_bandwidth(mesh):
        K = assemble_Kuu(State.zeros(mesh), Discretization(mesh, Material()), apply_bc=False)
        return int(np.max(K.indices - np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))))

    wide, tall = rect_mesh(10.0, 4.0, 0.25), rect_mesh(4.0, 10.0, 0.25)
    assert half_bandwidth(wide) == half_bandwidth(tall) == 37
    assert Discretization(tall, Material()).area.min() > 0.0
    assert np.all(tall.vertices[tall.boundary_vertices("top"), 1] == 10.0)
    assert np.all(tall.vertices[tall.boundary_vertices("right"), 0] == 4.0)


class TestBandedMesh:
    def test_degenerate_band_is_uniform(self):
        banded = banded_rect_mesh(2.0, 1.0, 0.25, 1.25, band_halfwidth=0.5)
        uniform = rect_mesh(2.0, 1.0, 0.25, origin_x2=-0.5)
        assert banded.n_vertices == uniform.n_vertices

    def test_band_triangles_are_fine(self):
        h = 0.05
        mesh = banded_rect_mesh(2.0, 1.0, h, 5 * h, band_halfwidth=0.2)
        p = mesh.vertices[mesh.triangles]
        x2 = p[..., 1]
        touches = (x2.min(axis=1) <= 0.2) & (x2.max(axis=1) >= -0.2)
        d01 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
        d12 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
        d20 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
        diam = np.max(np.column_stack([d01, d12, d20]), axis=1)
        assert diam[touches].max() <= h * np.sqrt(2.0) * (1 + 1e-12)

    def test_grading_saves_vertices(self):
        h = 0.05
        banded = banded_rect_mesh(2.0, 1.0, h, 5 * h, band_halfwidth=0.2)
        uniform = rect_mesh(2.0, 1.0, h, origin_x2=-0.5)
        assert banded.n_vertices < uniform.n_vertices

    def test_banded_area_exact(self):
        mesh = banded_rect_mesh(2.0, 1.0, 0.05, 0.25, band_halfwidth=0.2)
        area = Discretization(mesh, Material()).area
        assert abs(area.sum() - 2.0) <= 1e-12 * 2.0


class TestBoundaryDofs:
    def test_unit_cell_left_x1(self):
        mesh = rect_mesh(1.0, 1.0, 1.0)
        assert boundary_dofs(mesh, "left", "displacement_x1").size == 2

    def test_tags_cover_boundary(self):
        mesh = rect_mesh(2.0, 1.0, 0.5)
        tagged = np.unique(np.concatenate(
            [mesh.boundary_vertices(t) for t in ("left", "right", "bottom", "top")]))
        assert np.array_equal(tagged, mesh.all_boundary_vertices())

    def test_corner_in_two_tags(self):
        mesh = rect_mesh(1.0, 1.0, 0.5)
        left = set(mesh.boundary_vertices("left"))
        bottom = set(mesh.boundary_vertices("bottom"))
        assert left & bottom  # the (0, 0) corner at least

    def test_damage_field_indices_are_vertex_ids(self):
        mesh = rect_mesh(1.0, 1.0, 0.5)
        dofs = boundary_dofs(mesh, "top", "damage")
        assert np.array_equal(dofs, mesh.boundary_vertices("top"))

    def test_displacement_components_interleaved(self):
        mesh = rect_mesh(1.0, 1.0, 0.5)
        x1 = boundary_dofs(mesh, "right", "displacement_x1")
        x2 = boundary_dofs(mesh, "right", "displacement_x2")
        assert np.array_equal(x2, x1 + 1)

    def test_unknown_tag_rejected(self):
        mesh = rect_mesh(1.0, 1.0, 0.5)
        with pytest.raises((KeyError, ValueError)):
            boundary_dofs(mesh, "north", "damage")


class TestJitter:
    def test_deterministic(self):
        a = rect_mesh(2.0, 1.0, 0.25, jitter=0.25)
        b = rect_mesh(2.0, 1.0, 0.25, jitter=0.25)
        assert np.array_equal(a.vertices, b.vertices)

    def test_moves_only_interior(self):
        plain = rect_mesh(2.0, 1.0, 0.25)
        moved = rect_mesh(2.0, 1.0, 0.25, jitter=0.25)
        boundary = plain.all_boundary_vertices()
        assert np.array_equal(plain.vertices[boundary], moved.vertices[boundary])
        interior = np.setdiff1d(np.arange(plain.n_vertices), boundary)
        assert not np.allclose(plain.vertices[interior], moved.vertices[interior])

    def test_preserves_area_and_orientation(self):
        mesh = rect_mesh(2.0, 1.0, 0.25, jitter=0.3)
        areas = Discretization(mesh, Material()).area
        assert areas.min() > 0.0
        assert abs(areas.sum() - 2.0) <= 1e-12 * 2.0

    def test_excessive_jitter_rejected(self):
        with pytest.raises(ValueError):
            rect_mesh(1.0, 1.0, 0.25, jitter=0.6)
