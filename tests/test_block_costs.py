"""The cached block-cost engine is exact: it reproduces the reference costs bit
for bit, so partitions built through it make the same decisions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import somblocks as sb
from somblocks.bayes_cost import N_SCALE_RULES, RANGE_EXPONENTS, BlockCosts, CostError

from conftest import make_map, map_cells, random_map

def exact(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


factors = st.floats(0.03, 30.0)


def random_case(seed, rule, exponent):
    """A random map with empty cells, and base params (factors 1) to cost it."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 5))
    m = random_map(rng, M=M, empty_prob=0.3)
    params = sb.CostParams(
        R=rng.uniform(1.0, 50.0, M), sigma_floor=rng.uniform(0.02, 0.6, M),
        sigma_const=float(rng.uniform(0.5, 12.0)), n_scale_rule=N_SCALE_RULES[rule],
        range_exponent=exponent)
    return rng, m, params


def cells_of(m, mask):
    return [pe for k, pe in enumerate(map_cells(m)) if mask >> k & 1]


@exact(200)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS), f_sigma=factors,
       f_Rs=st.lists(factors, min_size=1, max_size=4))
def test_engine_cost_equals_block_cost_for_pes(seed, rule, exponent, f_sigma, f_Rs):
    rng, m, base = random_case(seed, rule, exponent)
    n_cells = m.rows * m.cols
    masks = [(1 << n_cells) - 1] + [1 << k for k in range(n_cells)]
    for _ in range(20):
        masks.append(sum(1 << int(k) for k in np.flatnonzero(rng.random(n_cells) < 0.5)))
    # one engine, reused across every f_R of the column
    costs = BlockCosts(m, base.scaled(f_sigma=f_sigma))
    for f_R in f_Rs:
        params = base.scaled(f_R=f_R, f_sigma=f_sigma)
        at_f_R = costs.at(m, params)
        for mask in masks:
            assert at_f_R.cost(mask) == sb.block_cost_for_pes(cells_of(m, mask), params)


@exact(100)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS), f_R=factors, f_sigma=factors)
def test_partition_cost_is_the_reference_sum(seed, rule, exponent, f_R, f_sigma):
    _, m, base = random_case(seed, rule, exponent)
    params = base.scaled(f_R=f_R, f_sigma=f_sigma)
    p = sb.partition_som(m, params)
    assert p.cost == sb.partition_cost(p, m, params)


@exact(40)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS), r_decades=st.floats(0.1, 1.5),
       s_decades=st.floats(0.1, 1.5))
def test_sweep_points_match_fresh_partitions(seed, rule, exponent, r_decades, s_decades):
    _, m, base = random_case(seed, rule, exponent)
    spec = sb.SweepSpec(base=base, f_R_grid=sb.default_grid(3, r_decades),
                        f_sigma_grid=sb.default_grid(3, s_decades))
    st_map = sb.sweep(m, spec)
    for i, f_R in enumerate(spec.f_R_grid):
        for j, f_sigma in enumerate(spec.f_sigma_grid):
            fresh = sb.partition_som(m, base.scaled(f_R=float(f_R), f_sigma=float(f_sigma)))
            assert st_map.signatures[i][j] == fresh.signature()
            assert st_map.n_blocks[i, j] == fresh.n_blocks


def project(m, j):
    """The map restricted to attribute j, a one-attribute map."""
    pes = tuple(dataclasses.replace(
        pe, weight=pe.weight[j:j + 1],
        mean=None if pe.mean is None else pe.mean[j:j + 1],
        std=None if pe.std is None else pe.std[j:j + 1]) for pe in map_cells(m))
    return dataclasses.replace(m, pes=pes)


@exact(150)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS), f_R=factors, f_sigma=factors)
def test_block_cost_adds_up_over_attributes(seed, rule, exponent, f_R, f_sigma):
    rng, m, base = random_case(seed, rule, exponent)
    params = base.scaled(f_R=f_R, f_sigma=f_sigma)
    M, n_cells = params.n_attributes, m.rows * m.cols
    single = [BlockCosts(project(m, j), dataclasses.replace(
        params, R=params.R[j:j + 1], sigma_floor=params.sigma_floor[j:j + 1]))
        for j in range(M)]
    whole = BlockCosts(m, params)
    masks = [(1 << n_cells) - 1] + [1 << k for k in range(n_cells)]
    for _ in range(20):
        masks.append(sum(1 << int(k) for k in np.flatnonzero(rng.random(n_cells) < 0.5)))
    for mask in masks:
        parts = [costs.cost(mask) for costs in single]
        scale = math.fsum(abs(c) for c in parts)
        assert abs(whole.cost(mask) - math.fsum(parts)) <= 1e-12 * scale


@exact(100)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.sampled_from(RANGE_EXPONENTS),
       spread=st.floats(0.0, 3.0), f_R=factors, f_sigma=factors)
def test_least_increments_bound_every_placement(seed, exponent, spread, f_R, f_sigma):
    # the bound the exact oracle prunes with: adding cell k to any set of cells
    # raises its cost by at least least[k]; near-equal means make it nearly tight
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    grid = [[None if (r or c) and rng.random() < 0.2 else rng.normal(0.0, spread, M)
             for c in range(3)] for r in range(2)]
    m = make_map(grid, n_members=3, stds=rng.uniform(0.1, 0.8, (2, 3, M)).tolist())
    params = sb.CostParams(
        R=rng.uniform(1.0, 50.0, M), sigma_floor=rng.uniform(0.02, 0.6, M),
        sigma_const=float(rng.uniform(0.5, 12.0)), range_exponent=exponent,
        f_R=f_R, f_sigma=f_sigma)
    costs = BlockCosts(m, params)
    least = costs.least_increments()
    for mask in range(1 << 6):
        for k in range(6):
            if not mask >> k & 1:
                base = costs.cost(mask)
                assert costs.cost(mask | 1 << k) - base >= least[k] - 1e-9 * max(1.0, abs(base))
    sqrt_widths = dataclasses.replace(params, n_scale_rule=N_SCALE_RULES["sqrt"])
    assert BlockCosts(m, sqrt_widths).least_increments() is None


def test_attribute_count_mismatch_names_both_counts(fixture_map):
    params = sb.CostParams(R=np.array([10.0, 10.0]), sigma_floor=np.array([0.1, 0.1]))
    with pytest.raises(CostError, match="map has 4 attributes, cost params have 2"):
        BlockCosts(fixture_map, params)
    with pytest.raises(CostError, match="4 attributes"):
        sb.partition_som(fixture_map, params)


def test_engine_refuses_another_map_or_width(fixture_map, seed1_map, iris_params):
    costs = BlockCosts(fixture_map, iris_params)
    assert costs.at(fixture_map, iris_params) is costs
    assert costs.at(fixture_map, iris_params.scaled(f_R=3.0)) is not costs
    with pytest.raises(CostError, match="another map"):
        costs.at(seed1_map, iris_params)
    with pytest.raises(CostError, match="cell-width"):
        sb.partition_som(fixture_map, iris_params.scaled(f_sigma=2.0), costs)
