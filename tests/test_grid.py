import numpy as np
import pytest

from platemem import AnnulusGeometry, ValidationError, build_radial_grid, laplacian_mode
from platemem.grid import MAX_NODES

from oracles import dense_stencil

GEO = AnnulusGeometry()


def test_plate_nodes_cell_centered():
    grid = build_radial_grid(GEO, 8, 8, 0)
    assert grid.h_plate == pytest.approx(0.125)
    np.testing.assert_allclose(grid.plate_nodes[:2], [1.0625, 1.1875])
    # the documented n_plate=4 arithmetic: r_in + h (i + 1/2)
    h = 0.25
    expect = 1.0 + h * (np.arange(4) + 0.5)
    np.testing.assert_allclose(expect, [1.125, 1.375, 1.625, 1.875])


def test_membrane_nodes_cell_centered():
    grid = build_radial_grid(GEO, 8, 8, 0)
    assert grid.membrane_nodes[0] == pytest.approx(grid.h_mem / 2)
    assert np.all(np.diff(grid.plate_nodes) > 0)
    assert np.all(np.diff(grid.membrane_nodes) > 0)
    assert np.all(grid.plate_weights > 0) and np.all(grid.membrane_weights > 0)


def test_membrane_weights_sum_to_disk_area():
    for n in (8, 32, 101):
        grid = build_radial_grid(GEO, 8, n, 0)
        area = np.pi * GEO.r_interface**2
        assert abs(grid.membrane_weights.sum() - area) <= 1e-12 * area


def test_plate_weights_sum_to_annulus_area():
    grid = build_radial_grid(GEO, 64, 8, 0)
    area = np.pi * (GEO.r_outer**2 - GEO.r_interface**2)
    assert abs(grid.plate_weights.sum() - area) <= 1e-12 * area


def test_minimum_node_counts():
    with pytest.raises(ValidationError, match="n_plate"):
        build_radial_grid(GEO, 4, 8, 0)
    with pytest.raises(ValidationError, match="n_mem"):
        build_radial_grid(GEO, 8, 7, 0)


def test_node_counts_above_the_cap_rejected_before_allocation():
    # a 1e8-node stencil band alone would ask for 2.4 GB
    with pytest.raises(ValidationError, match="n_plate"):
        build_radial_grid(GEO, 100_000_000, 8, 0)
    with pytest.raises(ValidationError, match="n_mem"):
        build_radial_grid(GEO, 8, MAX_NODES + 1, 0)
    assert build_radial_grid(GEO, 8, MAX_NODES, 0).n_mem == MAX_NODES


def _apply(grid, domain, f):
    if domain == "plate":
        nodes, h = grid.plate_nodes, grid.h_plate
    else:
        nodes, h = grid.membrane_nodes, grid.h_mem
    ext = np.concatenate([[nodes[0] - h], nodes, [nodes[-1] + h]])
    return dense_stencil(laplacian_mode(nodes, h, grid.mode), ghosts=True) @ f(ext)


def test_laplacian_exact_on_r_squared_mode0():
    grid = build_radial_grid(GEO, 16, 16, 0)
    for domain in ("plate", "membrane"):
        out = _apply(grid, domain, lambda r: r**2)
        np.testing.assert_allclose(out, 4.0, rtol=1e-12)


def test_laplacian_mode2_kills_r_squared():
    grid = build_radial_grid(GEO, 16, 16, 2)
    for domain in ("plate", "membrane"):
        out = _apply(grid, domain, lambda r: r**2)
        np.testing.assert_allclose(out, 0.0, atol=1e-10)


def test_laplacian_mode0_kills_constants():
    grid = build_radial_grid(GEO, 16, 16, 0)
    out = _apply(grid, "plate", lambda r: np.ones_like(r))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)
