"""Grid construction, faces, diffusion tensors, scalar fields."""

import numpy as np
import pytest

from anthractl import GridSpec, ScalarField, as_cell_values, build_grid


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(extents=(1.0,), resolution=(0,))
    with pytest.raises(ValueError):
        GridSpec(extents=(-1.0,), resolution=(4,))
    with pytest.raises(ValueError):
        GridSpec(extents=(1.0, 1.0, 1.0), resolution=(2, 2, 2))  # 3-D unsupported
    with pytest.raises(ValueError):
        GridSpec(extents=(1.0, 1.0), resolution=(4,))  # rank mismatch
    with pytest.raises(ValueError, match="expected integers"):
        GridSpec(extents=(1.0,), resolution=(10.5,))  # never truncated to 10
    assert GridSpec(extents=(1.0, 1.0), resolution=(8.0, 3)).resolution == (8, 3)


def test_grid_1d_geometry():
    grid, _ = build_grid(GridSpec((2.0,), (4,)))
    assert grid.dimension == 1
    assert grid.n_cells == 4
    assert grid.spacing == pytest.approx((0.5,))
    assert grid.cell_volume == pytest.approx(0.5)
    assert np.allclose(grid.centers[:, 0], [0.25, 0.75, 1.25, 1.75])
    assert grid.n_faces == 3
    assert np.array_equal(grid.face_left, [0, 1, 2])
    assert np.array_equal(grid.face_right, [1, 2, 3])


def test_grid_2d_geometry_and_flat_index():
    grid, _ = build_grid(GridSpec((1.0, 2.0), (3, 2)))
    assert grid.dimension == 2
    assert grid.n_cells == 6
    assert grid.cell_volume == pytest.approx((1.0 / 3.0) * 1.0)
    # x-fastest flat ordering
    assert grid.flat_index(1, 0) == 1
    assert grid.flat_index(0, 1) == 3
    assert np.allclose(grid.centers[grid.flat_index(2, 1)], [5.0 / 6.0, 1.5])
    # interior faces: 2 per row in x (2 rows of 3 cells), 3 in y
    assert grid.n_faces == 2 * 2 + 3
    # x-face area is the y-spacing; y-face area is the x-spacing
    x_faces = grid.face_axis == 0
    assert np.allclose(grid.face_area[x_faces], 1.0)
    assert np.allclose(grid.face_area[~x_faces], 1.0 / 3.0)


def test_single_cell_grid_has_no_faces():
    grid, _ = build_grid(GridSpec((1.0,), (1,)))
    assert grid.n_cells == 1 and grid.n_faces == 0


def test_diffusion_scalar_and_harmonic_mean():
    # two cells with diffusivities 1 and 3: harmonic face value 2*1*3/(1+3)
    grid, A = build_grid(GridSpec((1.0,), (2,)),
                         A_spec=lambda c: 1.0 if c[0] < 0.5 else 3.0)
    assert A.face_diffusivity[0] == pytest.approx(1.5)
    assert A.coercivity == pytest.approx(1.0)


def test_diffusion_anisotropic_2d():
    grid, A = build_grid(GridSpec((1.0, 1.0), (2, 2)), A_spec=(2.0, 5.0))
    x_faces = grid.face_axis == 0
    assert np.allclose(A.face_diffusivity[x_faces], 2.0)
    assert np.allclose(A.face_diffusivity[~x_faces], 5.0)


def test_diffusion_rejects_nonpositive_and_cross_terms():
    with pytest.raises(ValueError):
        build_grid(GridSpec((1.0,), (4,)), A_spec=0.0)
    with pytest.raises(ValueError):
        build_grid(GridSpec((1.0,), (4,)), A_spec=-1.0)
    with pytest.raises(ValueError, match="cross-diffusion"):
        build_grid(GridSpec((1.0, 1.0), (2, 2)),
                   A_spec=np.array([[1.0, 0.3], [0.3, 1.0]]))


def test_scalar_field_helpers():
    grid, _ = build_grid(GridSpec((1.0,), (4,)))
    f = ScalarField.from_function(grid, lambda c: c[0])
    assert np.allclose(f.values, grid.centers[:, 0])
    assert f.max_norm() == pytest.approx(0.875)
    g = ScalarField.constant(grid, 2.0)
    assert g.n_cells == 4 and np.all(g.values == 2.0)
    with pytest.raises(ValueError):
        ScalarField(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        ScalarField(np.zeros((2, 2)))


def test_as_cell_values_coercion():
    assert np.array_equal(as_cell_values(3.0, 4), np.full(4, 3.0))
    v = as_cell_values(np.arange(4.0), 4)
    assert np.array_equal(v, [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        as_cell_values(np.arange(3.0), 4)
