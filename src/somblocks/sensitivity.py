"""Partition stability under scaling of the range and width parameters.

The sweep re-partitions one map over a log-spaced grid of multiplicative
factors (f_R, f_sigma) applied to the base cost parameters and records, per
grid point, whether the resulting partition equals the one obtained at
(1, 1).  Equality means identical cell grouping; block numbering is already
canonical, so signatures compare directly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bayes_cost import BlockCosts, CostParams
from .partition import partition_som
from .som import SomMap


class SweepError(ValueError):
    """Raised for malformed sweep grids."""


def _check_grid(grid: np.ndarray) -> int:
    """Validate ascending positive grid containing 1.0; return its index."""
    if grid.ndim != 1 or len(grid) < 1 or np.any(grid <= 0):
        raise SweepError("factor grid must be positive")
    if np.any(np.diff(grid) <= 0):
        raise SweepError("factor grid must be strictly ascending")
    idx = int(np.argmin(np.abs(grid - 1.0)))
    if abs(grid[idx] - 1.0) > 1e-12:
        raise SweepError("factor grid must contain 1.0")
    return idx


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """Factor grids and base parameters of one sweep.

    The base params' own f_R/f_sigma are replaced (not compounded) by each
    grid point, so the base should carry factors of 1.
    """

    base: CostParams
    f_R_grid: np.ndarray = field(default_factory=lambda: default_grid())
    f_sigma_grid: np.ndarray = field(default_factory=lambda: default_grid())

    def __post_init__(self):
        object.__setattr__(self, "f_R_grid", np.asarray(self.f_R_grid, dtype=float))
        object.__setattr__(self, "f_sigma_grid", np.asarray(self.f_sigma_grid, dtype=float))
        _check_grid(self.f_R_grid)
        _check_grid(self.f_sigma_grid)


def default_grid(points: int = 13, decades: float = 1.5) -> np.ndarray:
    """Log-spaced factors over [10^-decades, 10^decades], centered on 1; one
    point is the grid [1.0] whatever decades is."""
    if points < 1 or points % 2 == 0:
        raise SweepError("need an odd number of grid points so 1.0 is included")
    if points == 1:
        return np.ones(1)
    if not (decades > 0 and math.isfinite(decades)):
        raise SweepError(f"decades must be positive and finite for {points} grid points, "
                         f"got {decades!r}")
    with np.errstate(over="ignore"):
        grid = np.logspace(-decades, decades, points)
    if not math.isfinite(grid[-1]):
        raise SweepError(f"decades must be positive with 10**decades finite for {points} "
                         f"grid points, got {decades!r}")
    return grid


@dataclass(frozen=True, eq=False)
class StabilityMap:
    f_R_grid: np.ndarray
    f_sigma_grid: np.ndarray
    signatures: list            # [i][j] -> canonical partition signature
    n_blocks: np.ndarray        # ints, same grid shape
    equal: np.ndarray           # bools: signature equals the reference
    reference: tuple            # signature at (f_R, f_sigma) = (1, 1)


def sweep(som_map: SomMap, spec: SweepSpec) -> StabilityMap:
    """Partition the map at every (f_R, f_sigma) grid point."""
    i_ref = _check_grid(spec.f_R_grid)
    j_ref = _check_grid(spec.f_sigma_grid)
    n_r, n_s = len(spec.f_R_grid), len(spec.f_sigma_grid)
    signatures = [[None] * n_s for _ in range(n_r)]
    n_blocks = np.zeros((n_r, n_s), dtype=int)
    for j, f_sigma in enumerate(spec.f_sigma_grid):
        # f_R moves only the range prior, so one column's cached block terms
        # serve every f_R in it.
        costs = BlockCosts(som_map, spec.base.scaled(f_sigma=float(f_sigma)))
        for i, f_R in enumerate(spec.f_R_grid):
            p = partition_som(som_map, spec.base.scaled(f_R=float(f_R), f_sigma=float(f_sigma)),
                              costs)
            signatures[i][j] = p.signature()
            n_blocks[i, j] = p.n_blocks
    reference = signatures[i_ref][j_ref]
    equal = np.array([[signatures[i][j] == reference for j in range(n_s)]
                      for i in range(n_r)])
    return StabilityMap(f_R_grid=spec.f_R_grid, f_sigma_grid=spec.f_sigma_grid,
                        signatures=signatures, n_blocks=n_blocks, equal=equal,
                        reference=reference)


def stable_region(stability: StabilityMap) -> tuple[float, float]:
    """Multiplicative extents of the stable rectangle around (1, 1).

    Searches axis-aligned all-equal rectangles of grid points containing the
    (1, 1) point and returns (f_R extent, f_sigma extent) of the largest,
    where largest means: maximize the smaller log-extent first, then the
    total log-area, then the f_R extent.
    """
    i_ref = _check_grid(stability.f_R_grid)
    j_ref = _check_grid(stability.f_sigma_grid)
    equal = stability.equal
    n_r, n_s = equal.shape
    best = None
    best_key = None
    for i0 in range(i_ref, -1, -1):
        for i1 in range(i_ref, n_r):
            cols_ok = equal[i0:i1 + 1].all(axis=0)
            if not cols_ok[j_ref]:
                continue
            j0 = j_ref
            while j0 > 0 and cols_ok[j0 - 1]:
                j0 -= 1
            j1 = j_ref
            while j1 + 1 < n_s and cols_ok[j1 + 1]:
                j1 += 1
            span_r = stability.f_R_grid[i1] / stability.f_R_grid[i0]
            span_s = stability.f_sigma_grid[j1] / stability.f_sigma_grid[j0]
            lr, ls = math.log(span_r), math.log(span_s)
            key = (min(lr, ls), lr + ls, lr)
            if best_key is None or key > best_key:
                best_key = key
                best = (float(span_r), float(span_s))
    return best
