"""Cell-centered finite-volume grids for the spatial infection model.

A grid is a uniform axis-aligned partition of a 1-D interval or a 2-D
rectangle into cells.  Unknowns live at cell centers; diffusive fluxes
live on interior faces.  Boundaries are always no-flux (homogeneous
Neumann), so boundary faces carry no data at all.

Anisotropic diffusion is supported for axis-aligned tensors only: the
per-cell tensor must be diagonal.  Cross-diffusion terms would break the
two-point flux approximation used throughout and are rejected up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "SpatialGrid",
    "DiffusionField",
    "ScalarField",
    "build_grid",
]

# Cell indexing convention (2-D): x runs fastest, so cell (ix, iy) has the
# flat index iy*nx + ix.  1-D grids are the nx-cell special case.


# --------------------------------------------------------------------------
# grid specification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """User-facing description of a grid: physical extents and resolution.

    extents     -- domain side lengths, one per dimension (all > 0)
    resolution  -- cell counts, one per dimension (all >= 1; a float entry
                   must be a whole number)
    """

    extents: tuple
    resolution: tuple

    def __post_init__(self):
        ext = tuple(float(e) for e in np.atleast_1d(np.asarray(self.extents, dtype=float)))
        whole = np.atleast_1d(np.asarray(self.resolution, dtype=int))
        raw = np.atleast_1d(np.asarray(self.resolution))
        if raw.dtype.kind == "f" and np.any(whole != raw):  # 8.0 is 8, 8.5 is refused
            raise ValueError(f"resolution: expected integers, got {raw.tolist()}")
        res = tuple(int(r) for r in whole)
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "resolution", res)
        if len(ext) not in (1, 2):
            raise ValueError(f"only 1-D and 2-D grids are supported, got {len(ext)} extents")
        if len(res) != len(ext):
            raise ValueError("extents and resolution must have the same length")
        if any(e <= 0.0 or not np.isfinite(e) for e in ext):
            raise ValueError(f"extents must be positive and finite, got {ext}")
        if any(r < 1 for r in res):
            raise ValueError(f"resolution must be >= 1 along every axis, got {res}")

    @property
    def dimension(self) -> int:
        return len(self.extents)


# --------------------------------------------------------------------------
# the grid itself
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpatialGrid:
    """Uniform cell-centered grid with its interior-face connectivity.

    dimension    -- 1 or 2
    extents      -- (Lx,) or (Lx, Ly)
    resolution   -- (nx,) or (nx, ny), every entry >= 1
    spacing      -- cell side lengths (hx,) or (hx, hy)
    cell_volume  -- hx (1-D) or hx*hy (2-D); strictly positive
    centers      -- (n_cells, dimension) cell-center coordinates
    face_left    -- (n_faces,) flat index of the lower cell of each face
    face_right   -- (n_faces,) flat index of the upper cell of each face
    face_axis    -- (n_faces,) axis (0 or 1) each face is normal to
    face_area    -- (n_faces,) face measure (1 in 1-D, hy or hx in 2-D)
    """

    dimension: int
    extents: tuple
    resolution: tuple
    spacing: tuple
    cell_volume: float
    centers: np.ndarray = field(repr=False)
    face_left: np.ndarray = field(repr=False)
    face_right: np.ndarray = field(repr=False)
    face_axis: np.ndarray = field(repr=False)
    face_area: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.resolution))

    @property
    def n_faces(self) -> int:
        return int(self.face_left.shape[0])

    def flat_index(self, *multi_index) -> int:
        """Flat cell index of (ix,) or (ix, iy); x runs fastest."""
        if len(multi_index) != self.dimension:
            raise ValueError(f"expected {self.dimension} indices, got {len(multi_index)}")
        ix = int(multi_index[0])
        nx = self.resolution[0]
        if not 0 <= ix < nx:
            raise IndexError(f"index {ix} out of range for axis 0 with {nx} cells")
        if self.dimension == 1:
            return ix
        iy = int(multi_index[1])
        ny = self.resolution[1]
        if not 0 <= iy < ny:
            raise IndexError(f"index {iy} out of range for axis 1 with {ny} cells")
        return iy * nx + ix


def _build_faces(resolution, spacing):
    """Interior-face connectivity arrays for a uniform grid: the faces normal
    to x, then those normal to y, each set in cell order (x fastest)."""
    cells = np.arange(math.prod(resolution), dtype=np.int64).reshape(resolution[::-1])
    faces = []
    for ax in range(len(resolution)):
        lower, upper = [slice(None)] * cells.ndim, [slice(None)] * cells.ndim
        lower[-1 - ax], upper[-1 - ax] = slice(None, -1), slice(1, None)
        left = cells[tuple(lower)].ravel()
        area = math.prod(s for j, s in enumerate(spacing) if j != ax)
        faces.append((left, cells[tuple(upper)].ravel(),
                      np.full(left.size, ax, dtype=np.int64),
                      np.full(left.size, area, dtype=float)))
    return tuple(np.concatenate(parts) for parts in zip(*faces))


# --------------------------------------------------------------------------
# diffusion tensors
# --------------------------------------------------------------------------

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class DiffusionField:
    """Per-cell diagonal diffusion tensors plus derived face diffusivities.

    tensors          -- (n_cells, dim, dim), symmetric, diagonal, SPD
    coercivity       -- min over cells of the smallest tensor eigenvalue (> 0)
    face_diffusivity -- (n_faces,) harmonic mean of the axis component of the
                        two cells sharing each face
    """

    tensors: np.ndarray = field(repr=False)
    coercivity: float
    face_diffusivity: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = self.tensors
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise ValueError(f"tensors must have shape (n_cells, d, d), got {t.shape}")
        asym = np.max(np.abs(t - np.swapaxes(t, 1, 2))) if t.size else 0.0
        if asym > _SYM_TOL:
            raise ValueError(f"diffusion tensors must be symmetric (max asymmetry {asym:.3e})")
        if self.coercivity <= 0.0:
            raise ValueError(f"diffusion tensors must be positive definite (coercivity {self.coercivity:.3e})")


def _tensors_from_spec(A_spec, centers, dim):
    """Expand a tensor specification into an (n_cells, dim, dim) array.

    Accepted forms, each also usable as the return value of a callable of the
    cell center: a positive scalar (isotropic), a length-dim vector of
    per-axis diffusivities, or a (dim, dim) diagonal matrix.
    """
    n = centers.shape[0]

    def expand_one(value, where):
        a = np.asarray(value, dtype=float)
        if a.ndim == 0:
            return np.eye(dim) * float(a)
        if a.shape == (dim,):
            return np.diag(a)
        if a.shape == (dim, dim):
            return a
        raise ValueError(f"diffusion spec at {where} has shape {a.shape}; "
                         f"expected scalar, ({dim},), or ({dim}, {dim})")

    if callable(A_spec):
        out = np.empty((n, dim, dim))
        for i in range(n):
            out[i] = expand_one(A_spec(centers[i]), f"cell {i}")
        return out

    a = np.asarray(A_spec, dtype=float)
    if a.ndim <= 2:
        return np.broadcast_to(expand_one(a, "grid"), (n, dim, dim)).copy()
    if a.shape == (n, dim, dim):
        return a.astype(float, copy=True)
    raise ValueError(f"diffusion spec has shape {a.shape}; expected scalar, ({dim},), "
                     f"({dim}, {dim}), or ({n}, {dim}, {dim})")


# --------------------------------------------------------------------------
# scalar fields
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """One value per grid cell, in the grid's flat ordering."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"field values must be one-dimensional, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: SpatialGrid, value: float) -> "ScalarField":
        return cls(np.full(grid.n_cells, float(value)))

    @classmethod
    def from_function(cls, grid: SpatialGrid, fn) -> "ScalarField":
        """Sample fn at every cell center; fn takes one center coordinate array."""
        return cls(np.array([float(fn(c)) for c in grid.centers]))

    @property
    def n_cells(self) -> int:
        return int(self.values.shape[0])

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def as_cell_values(field, n_cells: int) -> np.ndarray:
    """Coerce a ScalarField, scalar, or array to an (n_cells,) float array."""
    if isinstance(field, ScalarField):
        v = field.values
    else:
        v = np.asarray(field, dtype=float)
        if v.ndim == 0:
            v = np.full(n_cells, float(v))
    if v.shape != (n_cells,):
        raise ValueError(f"expected {n_cells} cell values, got shape {v.shape}")
    return v


# --------------------------------------------------------------------------
# builder
# --------------------------------------------------------------------------

def build_grid(spec: GridSpec, A_spec=1.0):
    """Build a (SpatialGrid, DiffusionField) pair from a GridSpec.

    A_spec describes the diffusion tensor per cell; see _tensors_from_spec
    for the accepted forms.  Face diffusivities are harmonic means of the
    axis-aligned tensor components of the two adjacent cells, which keeps
    fluxes continuous across jumps in the coefficient.
    """
    if not isinstance(spec, GridSpec):
        raise TypeError(f"spec must be a GridSpec, got {type(spec).__name__}")
    dim = spec.dimension
    res = spec.resolution
    spacing = tuple(L / r for L, r in zip(spec.extents, res))
    cell_volume = float(np.prod(spacing))

    # cell centers, x fastest
    axes_coords = [(np.arange(r) + 0.5) * h for r, h in zip(res, spacing)]
    if dim == 1:
        centers = axes_coords[0][:, None]
    else:
        xg, yg = np.meshgrid(axes_coords[0], axes_coords[1], indexing="xy")
        centers = np.column_stack([xg.ravel(), yg.ravel()])

    face_left, face_right, face_axis, face_area = _build_faces(res, spacing)
    grid = SpatialGrid(
        dimension=dim,
        extents=spec.extents,
        resolution=res,
        spacing=spacing,
        cell_volume=cell_volume,
        centers=centers,
        face_left=face_left,
        face_right=face_right,
        face_axis=face_axis,
        face_area=face_area,
    )

    tensors = _tensors_from_spec(A_spec, centers, dim)
    off_mask = ~np.eye(dim, dtype=bool)
    off_entries = tensors[:, off_mask]
    if off_entries.size and np.max(np.abs(off_entries)) > _SYM_TOL:
        raise ValueError("cross-diffusion terms are not supported: tensors must be diagonal")
    diag = np.einsum("nii->ni", tensors)  # (n_cells, dim) per-axis diffusivities
    if np.any(diag <= 0.0):
        raise ValueError("diffusion tensors must have strictly positive diagonal entries")
    coercivity = float(np.min(diag)) if diag.size else 1.0

    # harmonic face averaging of the axis component on each side
    a_l = diag[face_left, face_axis]
    a_r = diag[face_right, face_axis]
    face_diff = 2.0 * a_l * a_r / (a_l + a_r) if face_left.size else np.zeros(0)

    field_ = DiffusionField(tensors=tensors, coercivity=coercivity, face_diffusivity=face_diff)
    return grid, field_
