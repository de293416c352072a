import os

import numpy as np
import pytest

import somblocks as sb
from somblocks.som import PeStats, SomConfig, SomMap

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


@pytest.fixture(scope="session")
def iris():
    return sb.load_csv(sb.iris_path(), "class")


@pytest.fixture(scope="session")
def iris_params(iris):
    return sb.params_from_summary(sb.summarize(iris))


@pytest.fixture(scope="session")
def fixture_map():
    """The committed reference map (Iris, seed 2)."""
    return sb.load_map(fixture_path("iris_map_seed2.json"))


@pytest.fixture(scope="session")
def seed1_map():
    return sb.load_map(fixture_path("iris_map_seed1.json"))


def make_map(mean_grid, s=1.0, n_members=5, stds=None) -> SomMap:
    """Synthetic map with prescribed per-cell means (M = vector width).

    mean_grid[r][c] is a scalar or vector mean, or None for an empty cell.
    """
    rows, cols = len(mean_grid), len(mean_grid[0])
    cfg = SomConfig(rows=rows, cols=cols, seed=0)
    width = max(np.atleast_1d(np.asarray(mu, dtype=float)).shape[0]
                for row in mean_grid for mu in row if mu is not None)
    pes, sid = [], 0
    for r in range(rows):
        for c in range(cols):
            mu = mean_grid[r][c]
            if mu is None:
                pes.append(PeStats(r=r, c=c, weight=np.zeros(width), member_ids=(),
                                   n=0, mean=None, std=None))
                continue
            mu = np.atleast_1d(np.asarray(mu, dtype=float))
            sd = np.full(mu.shape, float(s)) if stds is None else np.atleast_1d(
                np.asarray(stds[r][c], dtype=float))
            ids = tuple(range(sid, sid + n_members))
            sid += n_members
            pes.append(PeStats(r=r, c=c, weight=mu.copy(), member_ids=ids,
                               n=n_members, mean=mu, std=sd))
    return SomMap(rows=rows, cols=cols, pes=tuple(pes), config=cfg)


def map_cells(m: SomMap) -> list[PeStats]:
    """The map's cells as PeStats records, row-major, derived by SomMap.pe."""
    return [m.pe(r, c) for r in range(m.rows) for c in range(m.cols)]


def make_pe(mean, s, n=5, r=0, c=0) -> PeStats:
    mu = np.atleast_1d(np.asarray(mean, dtype=float))
    return PeStats(r=r, c=c, weight=mu.copy(), member_ids=tuple(range(n)), n=n,
                   mean=mu, std=np.full(mu.shape, float(s)))


def plain_params(M=1, R=10.0, floor=1e-9, exponent="per_block", f_R=1.0, f_sigma=1.0):
    """Params whose sigma estimate passes each cell's std through unchanged."""
    return sb.CostParams(
        R=np.full(M, float(R)), sigma_floor=np.full(M, float(floor)),
        sigma_const=1.0, n_scale_rule=sb.bayes_cost.unit_scale,
        range_exponent=exponent, f_R=f_R, f_sigma=f_sigma)


def random_map(rng, rows=None, cols=None, M=2, empty_prob=0.1) -> SomMap:
    rows = rows or int(rng.integers(2, 6))
    cols = cols or int(rng.integers(2, 6))
    grid, stds = [], []
    for r in range(rows):
        row, srow = [], []
        for c in range(cols):
            if rng.random() < empty_prob and (r, c) != (0, 0):
                row.append(None)
                srow.append(None)
            else:
                row.append(rng.normal(0, 2, size=M))
                srow.append(rng.uniform(0.1, 0.8, size=M))
        grid.append(row)
        stds.append(srow)
    return make_map(grid, n_members=3, stds=stds)
