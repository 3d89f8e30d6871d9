"""Structured triangulations of rectangles, with an optional refined band.

Vertices are numbered across the shorter side first, which keeps the band of
the stiffness matrices narrow: vertex (i, j) of an (nx+1) x (ny+1) grid gets
index ``i*(ny+1) + j``, or ``j*(nx+1) + i`` when ny > nx.  Each grid cell is
split into two triangles along alternating diagonals (union-jack parity) so
the mesh carries no preferred direction.  Triangles are counter-clockwise.

Displacement unknowns are interleaved per vertex (``2*v`` for the x1
component, ``2*v + 1`` for x2); the damage field has one unknown per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: boundary_dofs field names -> dof stride/offset in the owning vector
_FIELDS = {"displacement_x1": (2, 0), "displacement_x2": (2, 1), "damage": (1, 0)}


@dataclass
class Mesh:
    """Triangle mesh of a rectangle ``[0, L] x [x2min, x2max]``.

    Attributes
    ----------
    vertices : (V, 2) float array of coordinates.
    triangles : (T, 3) int array of CCW vertex triples.
    boundary_facets : dict tag -> (F, 2) int array of boundary edges.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_facets: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def boundary_vertices(self, tag: str) -> np.ndarray:
        """Sorted unique vertex indices lying on the tagged boundary part."""
        facets = self.boundary_facets[tag]
        return np.unique(facets)

    def all_boundary_vertices(self) -> np.ndarray:
        return np.unique(np.concatenate([f.ravel() for f in self.boundary_facets.values()]))


def _grid(x_levels: np.ndarray, y_levels: np.ndarray) -> Mesh:
    """Tensor grid of the given level sets, union-jack triangulation."""
    nx = len(x_levels) - 1
    ny = len(y_levels) - 1
    by_column = nx >= ny
    X, Y = np.meshgrid(x_levels, y_levels, indexing="ij" if by_column else "xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (ny + 1) + j if by_column else j * (nx + 1) + i

    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    I = I.ravel()
    J = J.ravel()
    v00 = vid(I, J)
    v10 = vid(I + 1, J)
    v11 = vid(I + 1, J + 1)
    v01 = vid(I, J + 1)
    even = (I + J) % 2 == 0
    # even cells: diagonal v00-v11; odd cells: diagonal v10-v01 (both CCW)
    t1 = np.where(even[:, None], np.column_stack([v00, v10, v11]), np.column_stack([v00, v10, v01]))
    t2 = np.where(even[:, None], np.column_stack([v00, v11, v01]), np.column_stack([v10, v11, v01]))
    triangles = np.vstack([t1, t2]).astype(np.intp)

    jj = np.arange(ny)
    ii = np.arange(nx)
    facets = {
        "left": np.column_stack([vid(0, jj), vid(0, jj + 1)]),
        "right": np.column_stack([vid(nx, jj), vid(nx, jj + 1)]),
        "bottom": np.column_stack([vid(ii, 0), vid(ii + 1, 0)]),
        "top": np.column_stack([vid(ii, ny), vid(ii + 1, ny)]),
    }
    return Mesh(vertices, triangles, facets)


def rect_mesh(L: float, H: float, h: float, origin_x2: float = 0.0,
              jitter: float = 0.0) -> Mesh:
    """Uniform mesh of ``[0, L] x [origin_x2, origin_x2 + H]`` with target size h.

    The actual element size is L/nx (resp. H/ny) with nx = round(L/h) >= 1, so
    the rectangle is tiled exactly.  ``jitter`` displaces every interior
    vertex by a deterministic uniform offset up to ``jitter`` times the local
    spacing in each coordinate (boundary vertices stay put).  This imitates an
    unstructured mesh: it removes the translation symmetry of the structured
    grid, which can otherwise hold a symmetric solver on an unstable symmetric
    solution branch (e.g. the uniform damage layer of a quenched slab that
    physically breaks up into a periodic crack pattern).
    """
    if L <= 0 or H <= 0 or h <= 0:
        raise ValueError(f"rect_mesh needs positive L, H, h; got L={L}, H={H}, h={h}")
    if not 0.0 <= jitter <= 0.4:
        raise ValueError(f"jitter must lie in [0, 0.4]; got {jitter}")
    nx = max(1, round(L / h))
    ny = max(1, round(H / h))
    xs = np.linspace(0.0, L, nx + 1)
    ys = np.linspace(origin_x2, origin_x2 + H, ny + 1)
    mesh = _grid(xs, ys)
    if jitter > 0.0:
        v = mesh.vertices
        interior = ((v[:, 0] > xs[0]) & (v[:, 0] < xs[-1])
                    & (v[:, 1] > ys[0]) & (v[:, 1] < ys[-1]))
        rng = np.random.default_rng(0)
        offsets = rng.uniform(-jitter, jitter, size=(int(interior.sum()), 2))
        v[interior] += offsets * np.array([L / nx, H / ny])
    return mesh


def _graded_heights(start: float, span: float, h_fine: float, h_coarse: float) -> np.ndarray:
    """Row heights filling ``span``, growing geometrically from h_fine.

    Heights are capped at h_coarse and rescaled (shrink only) so they tile the
    span exactly; the growth ratio between neighbours never exceeds 1.3.
    """
    if span <= 1e-12 * max(1.0, start):
        return np.zeros(0)
    heights = []
    h = h_fine
    while sum(heights) < span:
        h = min(h * 1.3, h_coarse)
        heights.append(h)
    heights = np.asarray(heights)
    return heights * (span / heights.sum())


def banded_rect_mesh(L: float, H: float, h_fine: float, h_coarse: float,
                     band_halfwidth: float) -> Mesh:
    """Mesh of ``[0, L] x [-H/2, H/2]`` refined in a band around x2 = 0.

    Columns are uniform at width ~h_fine; rows have height h_fine inside
    ``|x2| <= band_halfwidth`` (plus one guard row) and grow geometrically
    (ratio <= 1.3, capped at h_coarse) towards the top/bottom edges.
    """
    if L <= 0 or H <= 0 or h_fine <= 0 or band_halfwidth < 0:
        raise ValueError("banded_rect_mesh needs positive L, H, h_fine and band_halfwidth >= 0")
    if h_coarse < h_fine:
        raise ValueError(f"h_coarse ({h_coarse}) must be >= h_fine ({h_fine})")

    nb = int(np.ceil(band_halfwidth / h_fine)) + 1  # guard row past the band edge
    if nb * h_fine >= H / 2:
        return rect_mesh(L, H, h_fine, origin_x2=-H / 2)

    y_band = nb * h_fine
    upper = _graded_heights(y_band, H / 2 - y_band, h_fine, h_coarse)
    y_up = y_band + np.cumsum(upper)
    y_fine = np.arange(-nb, nb + 1) * h_fine
    ys = np.concatenate([-y_up[::-1], y_fine, y_up])
    ys[0] = -H / 2  # exact edges (rescaling already lands here up to round-off)
    ys[-1] = H / 2

    nx = max(1, round(L / h_fine))
    xs = np.linspace(0.0, L, nx + 1)
    return _grid(xs, ys)


def boundary_dofs(mesh: Mesh, tag: str, fieldname: str) -> np.ndarray:
    """Sorted global dof indices of ``fieldname`` on the tagged boundary.

    ``fieldname`` is one of ``displacement_x1``, ``displacement_x2`` (indices
    into the interleaved displacement vector) or ``damage`` (vertex indices).
    """
    if tag not in mesh.boundary_facets:
        raise KeyError(f"unknown boundary tag {tag!r}; have {sorted(mesh.boundary_facets)}")
    if fieldname not in _FIELDS:
        raise KeyError(f"unknown field {fieldname!r}; have {sorted(_FIELDS)}")
    stride, offset = _FIELDS[fieldname]
    verts = mesh.boundary_vertices(tag)
    return (stride * verts + offset).astype(np.intp)
