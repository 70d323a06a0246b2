"""Grid geometry, point-to-cell linking, and distance matrices."""

import numpy as np
import pytest

from pmfusion.errors import DomainError, OutOfDomainError, SchemaError
from pmfusion.geo import (
    CTM,
    SAT,
    GridSpec,
    Location,
    coords_array,
    distance_matrix,
    link_points,
)
from oracles import broadcast_distance_matrix, grid_cell_of, grid_contains


@pytest.fixture
def grid():
    return GridSpec(origin_x=0.0, origin_y=0.0, cell_km=4.0, n_rows=10, n_cols=12, source_tag=SAT)


class TestGridSpec:
    def test_extent(self, grid):
        assert grid.extent == (0.0, 0.0, 48.0, 40.0)

    def test_cell_of_interior(self, grid):
        cells = grid.cells_of(np.array([[0.1, 0.1], [5.0, 9.0]]))
        assert cells.tolist() == [[0, 0], [2, 1]]

    def test_cell_of_upper_boundary_clips_to_last_cell(self, grid):
        # a point on the far edge belongs to the final row/column
        assert grid.cells_of(np.array([[48.0, 40.0]])).tolist() == [[9, 11]]
        assert link_points([Location("edge", 48.0, 40.0)], grid).tolist() == [[9, 11]]

    def test_cell_of_outside_raises(self, grid):
        with pytest.raises(OutOfDomainError):
            link_points([Location("w", -0.001, 5.0)], grid)
        with pytest.raises(OutOfDomainError):
            link_points([Location("n", 5.0, 40.001)], grid)

    def test_contains_matches_cell_of(self, grid):
        rng = np.random.default_rng(0)
        for _ in range(500):
            x = rng.uniform(-10, 60)
            y = rng.uniform(-10, 50)
            if grid_contains(grid, x, y):
                assert tuple(link_points([Location("p", x, y)], grid)[0]) == grid_cell_of(grid, x, y)
            else:
                with pytest.raises(OutOfDomainError):
                    link_points([Location("p", x, y)], grid)

    def test_cell_center_round_trip(self, grid):
        cells = grid.cells_of(grid.all_centers())
        want = [[r, c] for r in range(grid.n_rows) for c in range(grid.n_cols)]
        assert cells.tolist() == want

    def test_all_centers_row_major(self, grid):
        centers = grid.all_centers()
        assert centers.shape == (120, 2)
        np.testing.assert_allclose(centers[0], (2.0, 2.0))
        np.testing.assert_allclose(centers[11], (46.0, 2.0))
        np.testing.assert_allclose(centers[12], (2.0, 6.0))

    def test_validation(self):
        for cell_km in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(DomainError, match="cell_km"):
                GridSpec(0, 0, cell_km, 5, 5, CTM)
        with pytest.raises(DomainError, match="row"):
            GridSpec(0, 0, 4.0, 0, 5, CTM)

    @pytest.mark.parametrize("origin", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, np.nan)])
    def test_non_finite_origin_is_a_domain_error(self, origin):
        with pytest.raises(DomainError, match="origin"):
            GridSpec(*origin, 4.0, 5, 5)

    def test_centres_that_overflow_are_a_domain_error(self):
        spec = GridSpec(1e308, 0.0, 1e308, 2, 3)
        with pytest.raises(DomainError, match="overflow"):
            spec.all_centers()


class TestLinking:
    def test_link_points_matches_cell_of(self, grid):
        rng = np.random.default_rng(2)
        pts = [
            Location(f"s{i}", rng.uniform(0, 48), rng.uniform(0, 40))
            for i in range(40)
        ]
        cells = link_points(pts, grid)
        for p, (r, c) in zip(pts, cells):
            assert grid_cell_of(grid, p.x_km, p.y_km) == (r, c)

    def test_link_outside_raises(self, grid):
        with pytest.raises(OutOfDomainError):
            link_points([Location("bad", -5.0, 5.0)], grid)

    def test_link_outside_names_the_first_point_outside(self, grid):
        pts = [Location("a", 1.0, 1.0), Location("b", 50.0, 2.5), Location("c", -1.0, 3.0)]
        with pytest.raises(OutOfDomainError, match=r"point \(50\.0, 2\.5\) outside"):
            link_points(pts, grid)


class TestCellsOf:
    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec(0.0, 0.0, 4.0, 10, 12, SAT),
            GridSpec(-12.0, -12.0, 12.0, 11, 11, CTM),
            GridSpec(10.0, 10.0, 1.25, 80, 80),
            GridSpec(0.3, -7.1, 0.7, 9, 13),
        ],
    )
    def test_equals_cell_of_on_a_lattice_with_boundaries_and_edges(self, spec):
        xmin, ymin, xmax, ymax = spec.extent
        # every cell boundary and both extent edges, quarter points between
        # them, and points just outside either edge
        xs = np.concatenate([
            spec.origin_x + spec.cell_km * np.arange(0, spec.n_cols + 0.25, 0.25),
            [xmin, xmax, np.nextafter(xmin, -np.inf), np.nextafter(xmax, np.inf)],
        ])
        ys = np.concatenate([
            spec.origin_y + spec.cell_km * np.arange(0, spec.n_rows + 0.25, 0.25),
            [ymin, ymax, np.nextafter(ymin, -np.inf), np.nextafter(ymax, np.inf)],
        ])
        xy = np.array([(x, y) for x in xs for y in ys])
        cells = spec.cells_of(xy)
        for (x, y), cell in zip(xy, cells):
            x, y = float(x), float(y)
            want = grid_cell_of(spec, x, y) if grid_contains(spec, x, y) else (-1, -1)
            assert tuple(cell) == want, (x, y)
        assert (cells[:, 0] < 0).any() and (cells[:, 0] >= 0).any()
        assert cells.dtype == np.int64 and cells.shape == (xy.shape[0], 2)


class TestLocation:
    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_non_finite_coordinates_are_a_domain_error(self, x):
        with pytest.raises(DomainError, match="'s1'"):
            Location("s1", x, 0.0)


class TestDistanceMatrix:
    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(3)
        pts = [Location(f"s{i}", *rng.uniform(0, 100, 2)) for i in range(25)]
        d = distance_matrix(pts)
        assert d.shape == (25, 25)
        np.testing.assert_array_equal(np.diag(d), 0.0)
        np.testing.assert_allclose(d, d.T, atol=0)
        assert (d[~np.eye(25, dtype=bool)] > 0).all()

    def test_against_direct_formula(self):
        a = [Location("a", 0.0, 0.0), Location("b", 3.0, 4.0)]
        b = [Location("c", 0.0, 8.0)]
        d = distance_matrix(a, b)
        np.testing.assert_allclose(d[:, 0], [8.0, 5.0])

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        pts = [Location(f"s{i}", *rng.uniform(0, 50, 2)) for i in range(12)]
        d = distance_matrix(pts)
        for i in range(12):
            for j in range(12):
                for k in range(12):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_coords_array(self):
        pts = [Location("a", 1.0, 2.0), Location("b", 3.0, 4.0)]
        np.testing.assert_array_equal(coords_array(pts), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 2, 2)])
    def test_misshapen_coordinate_array_is_a_schema_error(self, shape):
        with pytest.raises(SchemaError, match=r"\(n, 2\)"):
            coords_array(np.zeros(shape))
        with pytest.raises(SchemaError):
            distance_matrix(np.zeros((2, 2)), np.zeros(shape))

    @pytest.mark.parametrize("n, m", [(1, 1), (7, 30), (63, 6400)])
    def test_equals_the_broadcast_formula_bit_for_bit(self, n, m):
        rng = np.random.default_rng(n + m)
        a = rng.uniform(-500.0, 500.0, (n, 2)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        b = rng.uniform(0.0, 100.0, (m, 2))
        locs_a = [Location(f"a{i}", x, y) for i, (x, y) in enumerate(a.tolist())]
        locs_b = [Location(f"b{i}", x, y) for i, (x, y) in enumerate(b.tolist())]
        for square in (distance_matrix(a), distance_matrix(locs_a)):
            assert np.array_equal(square, broadcast_distance_matrix(a))
        for cross in (distance_matrix(a, b), distance_matrix(locs_a, locs_b), distance_matrix(locs_a, b)):
            assert np.array_equal(cross, broadcast_distance_matrix(a, b))
