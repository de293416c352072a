"""Partition stability under scaling of the range and width parameters.

The sweep re-partitions one map over a log-spaced grid of factors (f_R,
f_sigma) on the base cost parameters' R and sigma_const (CostParams.scaled)
and records, per grid point, whether the resulting partition equals the one
obtained at (1, 1).  Equality means identical cell grouping; block numbering
is already canonical, so signatures compare directly.

A cell's width is max(floor, f_sigma * sigma_const * n_scale_rule(N) * std),
and the default calibration makes the floor the operative width.  A column
(one f_sigma) where every cell's width is its floor in blocks of every size
(bayes_cost.widths_at_floor) has the same cell widths as every other such
column, bit for bit, since f_sigma enters the cost only through the widths.
Its block costs, and so its partitions, are those of the first such column,
so the sweep partitions only that one and copies its partitions to the
rest.  Every column's parameters are still built and checked.

One column's engine goes through the width record (BlockCosts._shared):
the reference column's (f_sigma = 1), or the first floor column's when
the reference copies it.  Every other column's is BlockCosts(...), which
never touches the record.  So the sweep takes the width state of a
partition_som(som_map, base) run just before: on either 5x5 golden the
pair builds 8 width states for the default 13x13 grid (13 under sqrt_scale
at sigma_const 12), as many as the sweep alone.  It leaves the base's
widths in the record, so a partition_som(som_map, spec.base) or
partition_som(som_map, spec.base.scaled(f_R=...)) after it builds no width
state.  Each column's engine is built in its turn, so refusals come in
ascending f_sigma.

Within a column the sweep takes the f_R points in ascending order.  Each
partitioned point's engine ends with BlockCosts.interval: the x = ln(f_R'
/ f_R) on which every decision of its split and merge keeps its outcome by
more than the rounding margin argued there (1e-9 of the decision's two
costs plus 1e-5 nats per occupied cell and attribute).  A point that
lies strictly inside the interval of the last partitioned point takes that
point's Partition instead of a run, so its signature and K are those of a
run.  The Partition's cost is the partitioned point's, which no output of
sweep holds.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bayes_cost import BlockCosts, CostError, CostParams, widths_at_floor
from .data_model import float_array, is_integer, is_number, require
from .partition import partition_som
from .som import SomMap


class SweepError(ValueError):
    """Raised for a malformed sweep grid or base."""


def _check_grid(grid: np.ndarray, name: str = "factor grid") -> int:
    """Validate a grid of ascending, positive, finite factors that contains
    1.0, naming it; return the index of 1.0."""
    grid = float_array(SweepError, name, grid, 1)
    bad = grid[~np.isfinite(grid)]
    if bad.size:
        raise SweepError(f"{name} must hold finite factors, got {float(bad[0])!r}")
    if np.any(grid <= 0):
        raise SweepError(f"{name} must be positive")
    if np.any(np.diff(grid) <= 0):
        raise SweepError(f"{name} must be strictly ascending")
    idx = int(np.argmin(np.abs(grid - 1.0)))
    if abs(grid[idx] - 1.0) > 1e-12:
        raise SweepError(f"{name} must contain 1.0")
    return idx


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """Factor grids and base parameters of one sweep."""

    base: CostParams
    f_R_grid: np.ndarray = field(default_factory=lambda: default_grid())
    f_sigma_grid: np.ndarray = field(default_factory=lambda: default_grid())

    def __post_init__(self):
        require(SweepError, lambda v: isinstance(v, CostParams), "a CostParams", base=self.base)
        for name in ("f_R_grid", "f_sigma_grid"):
            grid = float_array(SweepError, name, getattr(self, name), 1).copy()
            grid[_check_grid(grid, name)] = 1.0     # from within 1e-12 of it
            grid.setflags(write=False)
            object.__setattr__(self, name, grid)


def default_grid(points: int = 13, decades: float = 1.5) -> np.ndarray:
    """Log-spaced factors over [10^-decades, 10^decades] whose centre is
    exactly 1.0; one point is the grid [1.0] whatever decades is."""
    require(SweepError, is_integer, "an integer", points=points)
    if points < 1 or points % 2 == 0:
        raise SweepError("need an odd number of grid points so 1.0 is included")
    if points == 1:
        return np.ones(1)
    require(SweepError, is_number, "a number", decades=decades)
    if not (decades > 0 and math.isfinite(decades)):
        raise SweepError(f"decades must be positive and finite for {points} grid points, "
                         f"got {decades!r}")
    with np.errstate(over="ignore"):
        grid = np.logspace(-decades, decades, points)
    grid[points // 2] = 1.0         # logspace may round 10**0 off 1
    if not math.isfinite(grid[-1]):
        raise SweepError(f"decades must be positive with 10**decades finite for {points} "
                         f"grid points, got {decades!r}")
    if np.any(np.diff(grid) <= 0):
        raise SweepError(f"decades must be large enough for {points} distinct grid points, "
                         f"got {decades!r}")
    return grid


@dataclass(frozen=True, eq=False)
class StabilityMap:
    f_R_grid: np.ndarray
    f_sigma_grid: np.ndarray
    signatures: list            # [i][j] -> canonical partition signature
    n_blocks: np.ndarray        # ints: each point's block count
    equal: np.ndarray           # bools: signature equals the reference
    reference: tuple            # signature at (f_R, f_sigma) = (1, 1)


def sweep(som_map: SomMap, spec: SweepSpec) -> StabilityMap:
    """Partition the map at every (f_R, f_sigma) grid point; a column whose
    widths all sit at the floor copies the first such column, and a point
    inside the f_R interval of the last partitioned point of its column
    takes that point's partition (see above).  The column that goes
    through the width record (see above) shares the width state of a
    partition_som(som_map, spec.base) just before and leaves its own there.
    A CostError from a column's block costs names its f_sigma and the base
    sigma_const in front, the smallest such f_sigma when several columns
    are refused."""
    i_ref = _check_grid(spec.f_R_grid)
    j_ref = _check_grid(spec.f_sigma_grid)
    n_r, n_s = len(spec.f_R_grid), len(spec.f_sigma_grid)
    points = [[None] * n_s for _ in range(n_r)]     # [i][j] -> that point's Partition
    floor_column = None
    # Widths grow with f_sigma (widths_at_floor): when the reference column
    # is at the floor, so is column 0, and the reference copies it.
    shared = 0 if widths_at_floor(som_map, spec.base) else j_ref
    for j, f_sigma in enumerate(spec.f_sigma_grid):
        column = spec.base.scaled(f_sigma=float(f_sigma))
        if widths_at_floor(som_map, column):
            if floor_column is not None:
                for row in points:
                    row[j] = row[floor_column]
                continue
            floor_column = j
        # f_R moves only the range prior, so one column's cached width terms
        # serve every f_R in it, and a point strictly inside the last
        # partitioned point's interval takes its partition.
        try:
            costs = (BlockCosts._shared if j == shared else BlockCosts)(som_map, column)
            partition = None        # the last partitioned point's, at f_run
            for i, f_R in enumerate(spec.f_R_grid.tolist()):
                point = costs.at(f_R)
                if partition is None or not lo < math.log(f_R / f_run) < hi:
                    partition = partition_som(som_map, point.params, point)
                    f_run, (lo, hi) = f_R, point.interval
                points[i][j] = partition
        except CostError as error:
            raise CostError(f"f_sigma={float(f_sigma)!r}, sigma_const="
                            f"{spec.base.sigma_const!r}: {error}") from error
    signatures = [[p.signature() for p in row] for row in points]
    reference = signatures[i_ref][j_ref]
    n_blocks = np.array([[p.n_blocks for p in row] for row in points])
    equal = np.array([[signature == reference for signature in row] for row in signatures])
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
    shape = (len(stability.f_R_grid), len(stability.f_sigma_grid))
    require(SweepError, lambda v: isinstance(v, np.ndarray) and v.dtype == bool
            and v.shape == shape, f"a bool array of shape {shape}", equal=stability.equal)
    equal = stability.equal
    if not equal[i_ref, j_ref]:
        raise SweepError("equal must be True at (f_R, f_sigma) = (1, 1), got False")
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
