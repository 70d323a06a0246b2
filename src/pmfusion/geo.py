"""Planar geometry for monitors and gridded sources.

All coordinates are kilometres in a common projected plane. Grids are
axis-aligned with square cells; cell (0, 0) sits at the grid origin
(lower-left corner), rows advance along +y and columns along +x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfDomainError, SchemaError

CTM = "ctm"
SAT = "sat"
SOURCES = (CTM, SAT)


@dataclass(frozen=True)
class Location:
    """A point in the projected plane, km units."""

    site_id: str
    x_km: float
    y_km: float

    def __post_init__(self):
        if not (np.isfinite(self.x_km) and np.isfinite(self.y_km)):
            raise DomainError(f"non-finite coordinates for site {self.site_id!r}")


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned square-cell grid.

    origin_x, origin_y : lower-left corner of cell (0, 0), km
    cell_km            : cell edge length, km, > 0
    n_rows, n_cols     : grid dimensions, >= 1
    source_tag         : one of {"ctm", "sat"} (or "target" for output grids)
    """

    origin_x: float
    origin_y: float
    cell_km: float
    n_rows: int
    n_cols: int
    source_tag: str = "target"

    def __post_init__(self):
        if not (np.isfinite(self.origin_x) and np.isfinite(self.origin_y)):
            raise DomainError(f"grid origin must be finite, got ({self.origin_x}, {self.origin_y})")
        if not 0 < self.cell_km < np.inf:
            raise DomainError("cell_km must be a positive number")
        if self.n_rows < 1 or self.n_cols < 1:
            raise DomainError("grid must have at least one row and column")

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the covered rectangle."""
        return (
            self.origin_x,
            self.origin_y,
            self.origin_x + self.n_cols * self.cell_km,
            self.origin_y + self.n_rows * self.cell_km,
        )

    def cells_of(self, xy: np.ndarray) -> np.ndarray:
        """(row, col) of each point of an (n, 2) array, as an (n, 2) int array.

        A point on a cell boundary goes to the higher cell, clipped so the
        far edge still belongs to the last cell; a point outside the closed
        extent gets (-1, -1).
        """
        xmin, ymin, xmax, ymax = self.extent
        x, y = xy[:, 0], xy[:, 1]
        inside = (xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)
        cells = np.full((xy.shape[0], 2), -1, dtype=np.int64)
        cells[inside, 0] = np.minimum(
            ((y[inside] - self.origin_y) / self.cell_km).astype(np.int64), self.n_rows - 1
        )
        cells[inside, 1] = np.minimum(
            ((x[inside] - self.origin_x) / self.cell_km).astype(np.int64), self.n_cols - 1
        )
        return cells

    def all_centers(self) -> np.ndarray:
        """(n_rows*n_cols, 2) array of centres, row-major order; a centre
        that overflows to infinity is a DomainError."""
        rows, cols = np.meshgrid(
            np.arange(self.n_rows), np.arange(self.n_cols), indexing="ij"
        )
        with np.errstate(over="ignore"):  # refused below
            x = self.origin_x + (cols.ravel() + 0.5) * self.cell_km
            y = self.origin_y + (rows.ravel() + 0.5) * self.cell_km
        centers = np.column_stack([x, y])
        if not np.isfinite(centers).all():
            raise DomainError(f"grid centres overflow: {self.n_rows}x{self.n_cols} cells of {self.cell_km} km")
        return centers


def link_points(points: list[Location] | np.ndarray, grid: GridSpec) -> np.ndarray:
    """Link points to grid cells.

    Parameters
    ----------
    points : list of Location or (n, 2) array of xy km
    grid   : GridSpec

    Returns
    -------
    (n, 2) int array of (row, col), one per point.

    Raises OutOfDomainError naming the first point outside the grid.
    """
    xy = coords_array(points)
    cells = grid.cells_of(xy)
    outside = np.flatnonzero(cells[:, 0] < 0)
    if outside.size:
        x, y = xy[outside[0]]
        raise OutOfDomainError(
            f"point ({float(x)}, {float(y)}) outside grid extent {grid.extent}"
        )
    return cells


def coords_array(points) -> np.ndarray:
    """Normalize a list of Location or an (n, 2) array to float (n, 2)."""
    if isinstance(points, np.ndarray):
        xy = np.asarray(points, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise SchemaError(f"coordinate array must have shape (n, 2), got {xy.shape}")
        return xy
    return np.array([[p.x_km, p.y_km] for p in points], dtype=float)


def distance_matrix(a, b=None) -> np.ndarray:
    """Pairwise Euclidean distances in km.

    distance_matrix(a) is the symmetric (n, n) matrix with zero diagonal;
    distance_matrix(a, b) is the (n, m) cross matrix.
    """
    xa = coords_array(a)
    xb = xa if b is None else coords_array(b)
    # dx*dx + dy*dy axis by axis, in place; (a - b)**2 == (b - a)**2, so the
    # square matrix is exactly symmetric with an exactly zero diagonal
    d = np.subtract.outer(xa[:, 0], xb[:, 0])
    d *= d
    dy = np.subtract.outer(xa[:, 1], xb[:, 1])
    dy *= dy
    d += dy
    return np.sqrt(d, out=d)
