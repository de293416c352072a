"""The cached block-cost engine is exact: it reproduces the reference costs bit
for bit, so partitions built through it make the same decisions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import somblocks as sb
from somblocks.bayes_cost import (N_SCALE_RULES, RANGE_EXPONENTS, BlockCosts, CostError,
                                  block_stat)

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


@exact(150)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS), f_sigma=factors)
def test_single_cell_entries_match_block_stat(seed, rule, exponent, f_sigma):
    """Every cell's entry from the one-pass single-cell costing equals the
    reference S, X and cost bit for bit (so +0.0 and -0.0 differ), on cells
    whose width is the floor, cells whose scaled std wins and a cell whose
    mean is -0.0."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 5))
    rows, cols = int(rng.integers(1, 6)), int(rng.integers(2, 6))
    floor = rng.uniform(0.02, 0.6, M)
    sigma_const = float(rng.uniform(0.5, 12.0))
    scale = f_sigma * sigma_const                   # both rules scale a one-cell block by 1
    means, stds, kinds = [], [], []
    for r in range(rows):
        mean_row, std_row = [], []
        for c in range(cols):
            kind = "negative zero" if (r, c) == (0, 0) else str(rng.choice(
                ["floor", "scaled", "empty"]))
            kinds.append(kind)
            if kind == "empty":
                mean_row.append(None)
                std_row.append(None)
                continue
            mean_row.append(np.full(M, -0.0) if kind == "negative zero"
                            else rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), M))
            # a std below floor / scale leaves the floor; one above it wins
            std_row.append(floor / scale * (rng.uniform(0.0, 0.9, M) if kind != "scaled"
                                            else rng.uniform(1.1, 10.0, M)))
        means.append(mean_row)
        stds.append(std_row)
    m = make_map(means, n_members=2, stds=stds)
    params = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=floor,
                           sigma_const=sigma_const, n_scale_rule=N_SCALE_RULES[rule],
                           range_exponent=exponent, f_sigma=f_sigma)
    costs = BlockCosts(m, params)
    bits = lambda values: [float(v).hex() for v in values]
    for k, pe in enumerate(map_cells(m)):
        if pe.n == 0:
            continue
        sigmas = sb.sigma_estimate(pe, 1, params)
        assert np.array_equal(sigmas == floor, np.full(M, kinds[k] != "scaled"))
        stat = block_stat(pe.mean, sigmas)
        terms = [math.fsum([math.log(s)]) + 0.5 * math.log(S) + resid
                 for s, S, resid in zip(sigmas, stat.S, stat.resid)]
        n, entry_terms, S, X = costs._width_terms(1 << k)
        assert n == 1
        assert bits(S) == bits(stat.S)
        assert bits(X) == bits(stat.X)
        assert bits(entry_terms) == bits(terms)
        assert bits([costs.cost(1 << k)]) == bits([sb.block_cost_for_pes([pe], params)])


def test_engine_refuses_cell_widths_out_of_the_float_range():
    m = make_map([[0.0, 1.0]], n_members=2, stds=[[[0.0], [0.5]]])
    base = sb.CostParams(R=np.array([10.0]), sigma_floor=np.array([0.1]))
    for changes in ({"f_sigma": 1e300}, {"sigma_const": 1e200},
                    {"f_sigma": 1e200, "sigma_const": 1e200}):    # the scale overflows
        params = dataclasses.replace(base, **changes)
        with pytest.raises(CostError, match=r"^cell widths must keep 1/sigma\*\*2 positive "
                                            r"and finite, got f_sigma="):
            sb.partition_som(m, params)
    wide = dataclasses.replace(base, sigma_floor=np.array([1e160]))
    with pytest.raises(CostError, match="cell widths must keep"):
        BlockCosts(m, wide).cost(0b01)


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


def test_cache_is_keyed_by_occupied_cells():
    m = make_map([[0.0, None, 1.0], [None, 2.0, None]], s=0.5)
    empties = 0b101010
    for rule in sorted(N_SCALE_RULES):
        params = sb.CostParams(R=np.array([10.0]), sigma_floor=np.array([0.1]),
                               n_scale_rule=N_SCALE_RULES[rule])
        costs = BlockCosts(m, params)
        tables = []
        table = costs._table
        costs._table = lambda n: tables.append(n) or table(n)
        for mask in (0b000001, 0b000101, 0b010101):
            c = costs.cost(mask)
            computed = len(tables)
            assert costs.cost(mask | empties) == c     # same bits, no new computation
            assert costs.cost(mask | empties & 0b000010) == c
            assert len(tables) == computed
        assert costs.cost(empties) == 0.0


def test_join_with_an_empty_side_is_rejected_under_every_rule():
    m = make_map([[0.0, None, 0.0], [None, 0.0, None]], s=0.5)
    for rule in sorted(N_SCALE_RULES):
        for exponent in RANGE_EXPONENTS:
            params = sb.CostParams(R=np.array([1e6]), sigma_floor=np.array([0.1]),
                                   n_scale_rule=N_SCALE_RULES[rule], range_exponent=exponent)
            costs = BlockCosts(m, params)
            for a, b in ((0b000001, 0b000010), (0b001000, 0b010101), (0b000010, 0b101000)):
                assert costs.join_rejected(a, b) and costs.join_rejected(b, a)
                assert not costs.cost(a | b) < costs.cost(a) + costs.cost(b)


def test_sqrt_rule_and_cached_unions_take_the_exact_path():
    m = make_map([[0.0, 50.0]], s=0.1)     # a join that loses by far
    params = sb.CostParams(R=np.array([100.0]), sigma_floor=np.array([0.01]))
    costs = BlockCosts(m, params)
    assert costs.join_rejected(0b01, 0b10)
    costs.cost(0b11)
    assert not costs.join_rejected(0b01, 0b10)
    sqrt_widths = dataclasses.replace(params, n_scale_rule=N_SCALE_RULES["sqrt"])
    assert not BlockCosts(m, sqrt_widths).join_rejected(0b01, 0b10)


def random_blocks(rng, n_cells):
    """Two disjoint random cell sets of a grid with n_cells cells."""
    side = rng.integers(0, 3, n_cells)
    bits = [sum(1 << int(k) for k in np.flatnonzero(side == s)) for s in (1, 2)]
    return bits[0], bits[1]


@exact(200)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.sampled_from(RANGE_EXPONENTS),
       spread=st.floats(0.0, 4.0), f_R=factors, f_sigma=factors)
def test_rejected_joins_never_pass_the_exact_comparison(seed, exponent, spread, f_R, f_sigma):
    # spread sets how far means scatter against stds of 0.1-0.8, so some
    # joins win, some lose narrowly and some lose by far
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    rows, cols = int(rng.integers(1, 5)), int(rng.integers(2, 5))
    means = rng.normal(0.0, spread, (rows, cols, M)) + rng.normal(0.0, 5.0, M)
    grid = [[None if (r or c) and rng.random() < 0.2 else means[r, c] for c in range(cols)]
            for r in range(rows)]
    m = make_map(grid, n_members=3, stds=rng.uniform(0.1, 0.8, (rows, cols, M)).tolist())
    params = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=rng.uniform(0.02, 0.6, M),
                           sigma_const=float(rng.uniform(0.5, 4.0)), range_exponent=exponent,
                           f_R=f_R, f_sigma=f_sigma)
    for _ in range(20):
        a, b = random_blocks(rng, rows * cols)
        costs = BlockCosts(m, params)         # fresh, so the union is not cached
        rejected = costs.join_rejected(a, b)
        wins = costs.cost(a | b) < costs.cost(a) + costs.cost(b)
        assert not (rejected and wins)


def near_tie(exponent, M, offset, rng):
    """A 1x2 map and params whose one join changes the cost by about offset."""
    stds = rng.uniform(0.1, 0.8, (2, M))
    means = rng.normal(3.0, 1.0, (2, M))
    h = 1.0 / (stds[0] ** 2 + stds[1] ** 2)
    R = rng.uniform(2.0, 40.0, M)
    # delta = sum_j q_j + sum_j (h_j d_j^2 - ln(h_j)/2), with sum_j q_j = -rest
    rest = math.fsum(h * (means[0] - means[1]) ** 2 - 0.5 * np.log(h)) - offset
    log_pi = math.log(math.pi)
    if exponent == "per_block":     # q_j = ln(pi)/2 - ln f_R - ln R_j
        log_f_R = (rest + 0.5 * M * log_pi - math.fsum(np.log(R))) / M
    else:                           # q_j = ln f_R + ln R_j + ln(pi)/2
        log_f_R = -(rest + 0.5 * M * log_pi + math.fsum(np.log(R))) / M
    m = make_map([[means[0], means[1]]], n_members=3, stds=[[stds[0], stds[1]]])
    params = sb.CostParams(R=R, sigma_floor=np.full(M, 1e-9), range_exponent=exponent,
                           f_R=math.exp(log_f_R))
    return m, params


@pytest.mark.parametrize("exponent", RANGE_EXPONENTS)
def test_near_ties_take_the_exact_path(exponent):
    rng = np.random.default_rng(2024)
    for k in range(300):
        M = 1 + k % 4
        m, params = near_tie(exponent, M, float(rng.uniform(-1e-13, 1e-13)), rng)
        costs = BlockCosts(m, params)
        assert not costs.join_rejected(0b01, 0b10)
        delta = costs.cost(0b11) - (costs.cost(0b01) + costs.cost(0b10))
        assert abs(delta) < 1e-12
        wins = costs.cost(0b11) < costs.cost(0b01) + costs.cost(0b10)
        p = sb.merge_regions([sb.Region(0, 1, 0, 1), sb.Region(0, 1, 1, 2)], m, params)
        assert p.n_blocks == (1 if wins else 2)
    # far from the tie the same construction is settled without the union
    m, params = near_tie(exponent, 2, 1.0, rng)
    assert BlockCosts(m, params).join_rejected(0b01, 0b10)
    m, params = near_tie(exponent, 2, -1.0, rng)
    costs = BlockCosts(m, params)
    assert not costs.join_rejected(0b01, 0b10)
    assert costs.cost(0b11) < costs.cost(0b01) + costs.cost(0b10)
