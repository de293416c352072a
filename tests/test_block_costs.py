"""The cached block-cost engine is exact: it reproduces the reference costs bit
for bit, so partitions built through it make the same decisions."""

import dataclasses
import functools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import somblocks as sb
from somblocks import bayes_cost
from somblocks.bayes_cost import (N_SCALE_RULES, RANGE_EXPONENTS, BlockCosts, CostError,
                                  block_stat, widths_at_floor, width_scale)

from conftest import equal_copy, fixture_path, make_map, map_cells, random_map

def exact(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


factors = st.floats(0.03, 30.0)


def random_case(seed, rule, exponent):
    """A random map with empty cells, and base params to cost it."""
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
        at_f_R = costs.at(f_R)
        for mask in masks:
            assert (at_f_R.cost(mask).hex()
                    == sb.block_cost_for_pes(cells_of(m, mask), params).hex())


@exact(100)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS), f_sigma=factors,
       f_Rs=st.lists(factors, min_size=1, max_size=4))
def test_every_block_size_costs_exactly_whichever_size_comes_first(seed, rule, exponent,
                                                                   f_sigma, f_Rs):
    # each engine builds a size's range prior at its first block of that
    # size; two blocks of every size, in a shuffled order of sizes per engine
    rng, m, base = random_case(seed, rule, exponent)
    occupied = np.flatnonzero(m.counts > 0)
    empty = np.flatnonzero(m.counts == 0)
    column = BlockCosts(m, base.scaled(f_sigma=f_sigma))
    for f_R in f_Rs:
        params = base.scaled(f_R=f_R, f_sigma=f_sigma)
        costs = column.at(f_R)
        sizes = rng.permutation(np.repeat(np.arange(1, occupied.size + 1), 2))
        for n in sizes.tolist():
            cells = [*rng.choice(occupied, n, replace=False), *empty[rng.random(empty.size) < 0.5]]
            mask = sum(1 << int(k) for k in cells)
            assert costs.cost(mask).hex() == sb.block_cost_for_pes(cells_of(m, mask), params).hex()
        assert sorted(costs._priors) == list(range(1, occupied.size + 1))


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
        sigma_const=float(rng.uniform(0.5, 12.0)),
        range_exponent=exponent).scaled(f_R=f_R, f_sigma=f_sigma)
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
                           range_exponent=exponent).scaled(f_sigma=f_sigma)
    costs = BlockCosts(m, params)
    bits = lambda values: [float(v).hex() for v in values]
    for k, pe in enumerate(map_cells(m)):
        if pe.n == 0:
            continue
        sigmas = sb.sigma_estimate(pe, 1, params)
        assert np.array_equal(sigmas == floor, np.full(M, kinds[k] != "scaled"))
        ref_S, ref_X, ref_resid = block_stat(pe.mean, sigmas)
        terms = [math.fsum([math.log(s)]) + 0.5 * math.log(S) + resid
                 for s, S, resid in zip(sigmas, ref_S, ref_resid)]
        n, entry_terms, S, X, resid = costs._width_terms(1 << k)
        assert n == 1
        assert bits(S) == bits(ref_S)
        assert bits(X) == bits(ref_X)
        assert bits(resid) == bits(ref_resid)
        assert bits(entry_terms) == bits(terms)
        assert bits([costs.cost(1 << k)]) == bits([sb.block_cost_for_pes([pe], params)])


@pytest.mark.parametrize("exponent", RANGE_EXPONENTS)
@pytest.mark.parametrize("rule, sigma_const, n_exact", [
    ("unit", 2.0, 1), ("sqrt", 2.0, 1), ("sqrt", 1.0, 4)])
def test_engine_is_exact_at_the_floor_boundary(exponent, rule, sigma_const, n_exact):
    """In blocks of n_exact occupied cells the width scale is 2, so scaling
    is exact and, per attribute, a cell's scaled std is its floor exactly
    ("at"), the float just above it ("above") or 0 ("zero").  Every block's
    engine entry (its terms, S, X and resid) and cost equal block_stat's and
    block_cost_for_pes' bits."""
    rng = np.random.default_rng(20)
    M, kinds = 3, ("at", "above", "zero")
    s0 = rng.uniform(0.05, 0.5, M)
    floor = 2.0 * s0
    std_of = {"at": s0, "above": np.nextafter(s0, np.inf), "zero": np.zeros(M)}
    cell_kinds = [[kinds[(k + j) % 3] for j in range(M)] for k in range(9)]
    means, stds = [[None] * 3 for _ in range(3)], [[None] * 3 for _ in range(3)]
    for k in range(9):
        if k not in (2, 6):
            r, c = divmod(k, 3)
            means[r][c] = rng.normal(0.0, 2.0, M)
            stds[r][c] = [std_of[kind][j] for j, kind in enumerate(cell_kinds[k])]
    m = make_map(means, n_members=2, stds=stds)
    params = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=floor,
                           sigma_const=sigma_const, n_scale_rule=N_SCALE_RULES[rule],
                           range_exponent=exponent)
    assert width_scale(params, n_exact) == 2.0
    expected = {"at": floor, "above": np.nextafter(floor, np.inf), "zero": floor}
    cells = map_cells(m)
    for k, pe in enumerate(cells):
        if pe.n:
            want = [expected[kind][j] for j, kind in enumerate(cell_kinds[k])]
            assert np.array_equal(sb.sigma_estimate(pe, n_exact, params), want)
    costs = BlockCosts(m, params)
    bits = lambda values: [float(v).hex() for v in values]
    for mask in range(1 << 9):
        members = [pe for pe in cells_of(m, mask) if pe.n]
        assert bits([costs.cost(mask)]) == bits([sb.block_cost_for_pes(members, params)])
        n, terms, S, X, resid = costs._width_terms(mask & costs._occupied)
        assert n == len(members)
        if not members:
            continue
        sigmas = np.array([sb.sigma_estimate(pe, n, params) for pe in members])
        ref_S, ref_X, ref_resid = block_stat(np.array([pe.mean for pe in members]), sigmas)
        ref_terms = [math.fsum(math.log(s) for s in sigmas[:, j]) + 0.5 * math.log(ref_S[j])
                     + ref_resid[j] for j in range(M)]
        assert ((bits(S), bits(X), bits(resid), bits(terms))
                == (bits(ref_S), bits(ref_X), bits(ref_resid), bits(ref_terms)))


def test_engine_refuses_cell_widths_out_of_the_float_range():
    m = make_map([[0.0, 1.0]], n_members=2, stds=[[[0.0], [0.5]]])
    base = sb.CostParams(R=np.array([10.0]), sigma_floor=np.array([0.1]))
    for params in (base.scaled(f_sigma=1e300), dataclasses.replace(base, sigma_const=1e200)):
        with pytest.raises(CostError, match=r"^cell widths must keep 1/sigma\*\*2 positive "
                                            r"and finite, got sigma_const="):
            sb.partition_som(m, params)
    # a sweep point whose width scale overflows is refused when it is made
    with pytest.raises(CostError, match=r"^f_sigma \* sigma_const must be positive and finite, "
                                        r"got f_sigma=1e\+200, sigma_const=1e\+200$"):
        dataclasses.replace(base, sigma_const=1e200).scaled(f_sigma=1e200)
    # Under sqrt a block of two cells computes its own widths at a scale of
    # sqrt(2) sigma_const, which these settings push out of the float range
    # while every block of one cell stays in it: a std of 1 whose width
    # squared overflows, and a scale that overflows on cells whose std is 0
    # (inf * 0 is NaN, which max(floor, NaN) would pass over as the floor).
    for stds, sigma_const in (([[[0.0], [1.0]]], 1e154), ([[[0.0], [0.0]]], 1.5e308)):
        m = make_map([[0.0, 1.0]], n_members=2, stds=stds)
        params = dataclasses.replace(base, n_scale_rule=N_SCALE_RULES["sqrt"],
                                     sigma_const=sigma_const)
        costs = BlockCosts(m, params)
        assert math.isfinite(costs.cost(0b01) + costs.cost(0b10))
        message = re.escape(f"cell widths must keep 1/sigma**2 positive and finite, got "
                            f"sigma_const={sigma_const!r} (width scale ")
        message = rf"^{message}\S+ for blocks of 2 cells\)$"
        with pytest.raises(CostError, match=message):
            costs.cost(0b11)
        with pytest.raises(CostError, match=message):
            sb.partition_som(m, params)
    # a floor whose 1/sigma**2 underflows is refused before any width table
    with pytest.raises(CostError, match=r"^1/sigma_floor\*\*2 must be positive"):
        dataclasses.replace(base, sigma_floor=np.array([1e160]))


def test_attribute_count_mismatch_names_both_counts(fixture_map):
    params = sb.CostParams(R=np.array([10.0, 10.0]), sigma_floor=np.array([0.1, 0.1]))
    with pytest.raises(CostError, match="map has 4 attributes, cost params have 2"):
        BlockCosts(fixture_map, params)
    with pytest.raises(CostError, match="4 attributes"):
        sb.partition_som(fixture_map, params)


def test_numpy_scalar_settings_are_kept_as_python_floats(iris, fixture_map, tmp_path):
    # a float32 sigma_const kept as given computes widths in float32 on one
    # cost path and not the other, and its echo does not serialize
    base = sb.params_from_summary(sb.summarize(iris), n_scale_rule=N_SCALE_RULES["sqrt"],
                                  sigma_const=np.float32(12.0))
    whole = (1 << fixture_map.rows * fixture_map.cols) - 1
    for params in (base, base.scaled(f_R=np.float32(2.0), f_sigma=np.float32(2.0))):
        assert type(params.sigma_const) is float
        assert (BlockCosts(fixture_map, params).cost(whole).hex()
                == sb.block_cost_for_pes(map_cells(fixture_map), params).hex())
        p = sb.partition_som(fixture_map, params)
        sb.save_partition(p, tmp_path / "p.json", params_echo=params.echo())
        assert sb.load_partition(tmp_path / "p.json") == p


def test_engine_refuses_another_map_or_width(fixture_map, seed1_map, iris_params):
    costs = BlockCosts(fixture_map, iris_params)
    assert costs.at(3.0) is not costs
    own = sb.partition_som(fixture_map, iris_params, costs)
    assert own == sb.partition_som(fixture_map, iris_params)
    refusal = "^costs must be the BlockCosts of this map and these params$"
    for som_map, params in ((seed1_map, iris_params),
                            (fixture_map, iris_params.scaled(f_sigma=2.0)),
                            (fixture_map, iris_params.scaled(f_R=3.0))):
        with pytest.raises(CostError, match=refusal):
            sb.partition_som(som_map, params, costs)


def test_cache_is_keyed_by_occupied_cells():
    m = make_map([[0.0, None, 1.0], [None, 2.0, None]], s=0.5)
    empties = 0b101010
    for rule in sorted(N_SCALE_RULES):
        params = sb.CostParams(R=np.array([10.0]), sigma_floor=np.array([0.1]),
                               n_scale_rule=N_SCALE_RULES[rule])
        costs = BlockCosts(m, params)
        other_range = costs.at(2.0)    # shares the width terms
        for mask in (0b000001, 0b000101, 0b010101):
            before = (len(costs._terms), len(costs._costs))
            c = costs.cost(mask)
            computed = (len(costs._terms), len(costs._costs))
            # one-cell width terms are made with the engine
            added_terms = 0 if mask.bit_count() == 1 else 1
            assert computed == (before[0] + added_terms, before[1] + 1)
            assert costs.cost(mask | empties) == c     # same bits, no new computation
            assert costs.cost(mask | empties & 0b000010) == c
            other_range.cost(mask | empties)
            assert (len(costs._terms), len(costs._costs)) == computed
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


def test_far_joins_are_certified_and_cached_unions_take_the_exact_path():
    m = make_map([[0.0, 50.0]], s=0.1)     # a join that loses by far
    params = sb.CostParams(R=np.array([100.0]), sigma_floor=np.array([0.01]))
    costs = BlockCosts(m, params)
    assert costs.join_rejected(0b01, 0b10)
    costs.cost(0b11)
    assert not costs.join_rejected(0b01, 0b10)
    sqrt_widths = BlockCosts(m, dataclasses.replace(params, n_scale_rule=N_SCALE_RULES["sqrt"]))
    assert sqrt_widths.join_rejected(0b01, 0b10)
    assert not sqrt_widths.cost(0b11) < sqrt_widths.cost(0b01) + sqrt_widths.cost(0b10)


def random_blocks(rng, n_cells):
    """Two disjoint random cell sets of a grid with n_cells cells."""
    side = rng.integers(0, 3, n_cells)
    bits = [sum(1 << int(k) for k in np.flatnonzero(side == s)) for s in (1, 2)]
    return bits[0], bits[1]


@exact(200)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS), spread=st.floats(0.0, 4.0), f_R=factors,
       f_sigma=factors)
def test_rejected_joins_never_pass_the_exact_comparison(seed, rule, exponent, spread, f_R,
                                                        f_sigma):
    # spread sets how far means scatter against stds of 0.1-0.8, so some
    # joins win, some lose narrowly and some lose by far; sigma_const up to
    # 12 lifts sqrt widths off the floor, and the two blocks' sizes differ
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    rows, cols = int(rng.integers(1, 5)), int(rng.integers(2, 5))
    means = rng.normal(0.0, spread, (rows, cols, M)) + rng.normal(0.0, 5.0, M)
    grid = [[None if (r or c) and rng.random() < 0.2 else means[r, c] for c in range(cols)]
            for r in range(rows)]
    m = make_map(grid, n_members=3, stds=rng.uniform(0.1, 0.8, (rows, cols, M)).tolist())
    params = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=rng.uniform(0.02, 0.6, M),
                           sigma_const=float(rng.uniform(0.5, 12.0)),
                           n_scale_rule=N_SCALE_RULES[rule],
                           range_exponent=exponent).scaled(f_R=f_R, f_sigma=f_sigma)
    for _ in range(20):
        a, b = random_blocks(rng, rows * cols)
        costs = BlockCosts(m, params)         # fresh, so the union is not cached
        rejected = costs.join_rejected(a, b)
        wins = costs.cost(a | b) < costs.cost(a) + costs.cost(b)
        assert not (rejected and wins)


def near_tie(rule, exponent, M, offset, rng):
    """A 1x2 map and params whose one join changes the cost by about offset."""
    stds = rng.uniform(0.1, 0.8, (2, M))
    means = rng.normal(3.0, 1.0, (2, M))
    h = 1.0 / (stds[0] ** 2 + stds[1] ** 2)
    R = rng.uniform(2.0, 40.0, M)
    # The join scales both widths by sqrt(g): g = 2 under sqrt, 1 under unit.
    # delta = sum_j q_j + sum_j (h_j d_j^2 / g - ln(h_j)/2 + ln(g)/2), with
    # sum_j q_j = -rest
    g = 2.0 if rule == "sqrt" else 1.0
    rest = math.fsum(h * (means[0] - means[1]) ** 2 / g - 0.5 * np.log(h)
                     + 0.5 * math.log(g)) - offset
    log_pi = math.log(math.pi)
    if exponent == "per_block":     # q_j = ln(pi)/2 - ln f_R - ln R_j
        log_f_R = (rest + 0.5 * M * log_pi - math.fsum(np.log(R))) / M
    else:                           # q_j = ln f_R + ln R_j + ln(pi)/2
        log_f_R = -(rest + 0.5 * M * log_pi + math.fsum(np.log(R))) / M
    m = make_map([[means[0], means[1]]], n_members=3, stds=[[stds[0], stds[1]]])
    params = sb.CostParams(R=R, sigma_floor=np.full(M, 1e-9), n_scale_rule=N_SCALE_RULES[rule],
                           range_exponent=exponent).scaled(f_R=math.exp(log_f_R))
    return m, params


@pytest.mark.parametrize("exponent", RANGE_EXPONENTS)
@pytest.mark.parametrize("rule", sorted(N_SCALE_RULES))
def test_near_ties_take_the_exact_path(rule, exponent):
    rng = np.random.default_rng(2024)
    for k in range(300):
        M = 1 + k % 4
        m, params = near_tie(rule, exponent, M, float(rng.uniform(-1e-13, 1e-13)), rng)
        costs = BlockCosts(m, params)
        assert not costs.join_rejected(0b01, 0b10)
        delta = costs.cost(0b11) - (costs.cost(0b01) + costs.cost(0b10))
        assert abs(delta) < 1e-12
        wins = costs.cost(0b11) < costs.cost(0b01) + costs.cost(0b10)
        p = sb.merge_regions([0b01, 0b10], BlockCosts(m, params))
        assert p.n_blocks == (1 if wins else 2)
    # far from the tie the same construction is settled without the union
    m, params = near_tie(rule, exponent, 2, 1.0, rng)
    assert BlockCosts(m, params).join_rejected(0b01, 0b10)
    m, params = near_tie(rule, exponent, 2, -1.0, rng)
    costs = BlockCosts(m, params)
    assert not costs.join_rejected(0b01, 0b10)
    assert costs.cost(0b11) < costs.cost(0b01) + costs.cost(0b10)


# per CostParams field, a value other than iris_params' under which that field matters
OTHER_VALUES = {
    "R": lambda p: 2.0 * p.R,
    "sigma_floor": lambda p: 2.0 * p.sigma_floor,
    "sigma_const": lambda p: 10.0,
    "n_scale_rule": lambda p: N_SCALE_RULES["sqrt"],
    "range_exponent": lambda p: "per_pe",
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(sb.CostParams)])
def test_no_cost_setting_is_inert(fixture_map, iris_params, name):
    changed = dataclasses.replace(iris_params, **{name: OTHER_VALUES[name](iris_params)})
    n_cells = fixture_map.rows * fixture_map.cols
    blocks = [1 << k for k in range(n_cells)] + [(1 << n_cells) - 1]
    before, after = BlockCosts(fixture_map, iris_params), BlockCosts(fixture_map, changed)
    assert any(before.cost(b) != after.cost(b) for b in blocks)


def test_an_engine_from_at_starts_with_an_unbounded_interval():
    m = make_map([[0.0, 5.0], [0.2, 5.1]], s=0.5)
    costs = BlockCosts(m, sb.CostParams(R=[10.0], sigma_floor=[0.1]))
    assert costs.interval == [-math.inf, math.inf]
    sb.partition_som(m, costs.params, costs)
    assert costs.interval != [-math.inf, math.inf]         # its decisions narrowed it
    assert costs.at(3.0).interval == [-math.inf, math.inf]
    assert costs.at(1.0).interval is not costs.interval


@pytest.mark.parametrize("step", ["split", "merge"])
@pytest.mark.parametrize("exponent, R", [("per_block", 10.0), ("per_pe", 0.1)])
def test_an_exact_tie_with_a_nonzero_slope_shrinks_the_interval_to_the_point(exponent, R, step):
    # costs set by hand on a 1x2 map: the pair against its two cells, 1 + 2.
    # The cells are close and R makes a join's prior change negative, so
    # join_rejected leaves the join to these costs.
    m = make_map([[0.0, 0.1]], s=1.0)

    def decide(pair):
        costs = BlockCosts(m, sb.CostParams(R=[R], sigma_floor=[0.1], range_exponent=exponent))
        costs.cost = {0b01: 1.0, 0b10: 2.0, 0b11: pair}.__getitem__
        if step == "split":
            assert sb.quadtree_split(costs) == ([0b01, 0b10] if pair > 3.0 else [0b11])
        else:
            assert sb.merge_regions([0b01, 0b10], costs).n_blocks == (1 if pair < 3.0 else 2)
        return costs.interval

    # the pair costs 0.5 more than its cells: g + s x, with s = -1 under
    # per_block and +1 under per_pe, reaches the tie at x = 0.5 or -0.5
    lo, hi = decide(3.5)
    if exponent == "per_block":
        assert lo == -math.inf and hi == pytest.approx(0.5, abs=1e-4) and hi < 0.5
    else:
        assert hi == math.inf and lo == pytest.approx(-0.5, abs=1e-4) and lo > -0.5
    assert decide(3.0) == [0.0, 0.0]


def _reference_narrow(costs, g, s, scale, old, new):
    """BlockCosts._narrow written as a loop over the ends a decision moves."""
    if not s:
        return
    margin, interval = 1e-9 * scale + costs._margin, costs.interval
    if g <= margin:
        ends = (0, 0.0), (1, 0.0)
    else:
        ends = ((0 if s > 0 else 1, (margin - g) / s),)
    for end, x in ends:
        if x > interval[0] if end == 0 else x < interval[1]:
            interval[end] = x
            costs.decided_by[end] = old, new, g, s, scale


@exact(200)
@given(seed=st.integers(0, 2**32 - 1))
def test_narrow_moves_the_ends_the_reference_loop_moves(seed):
    rng = np.random.default_rng(seed)
    m = make_map([[0.0, 5.0], [0.2, None]], s=0.5)
    engine = BlockCosts(m, sb.CostParams(R=[10.0], sigma_floor=[0.1]))
    reference = engine.at(1.0)
    decisions = []
    for k in range(int(rng.integers(1, 40))):
        if decisions and rng.random() < 0.2:        # an earlier decision's g, s and scale
            g, s, scale = decisions[int(rng.integers(len(decisions)))]
        else:
            scale = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1e6)]))
            margin = 1e-9 * scale + engine._margin
            g = float(rng.choice([0.0, margin, np.nextafter(margin, 0.0), np.nextafter(margin, 1.0),
                                  -rng.uniform(0.0, 1.0), rng.uniform(margin, 10.0),
                                  rng.uniform(margin, 1e4)]))
            s = int(rng.integers(-6, 7))
            decisions.append((g, s, scale))
        old, new = (k,), (k, k)
        engine._narrow(g, s, scale, old, new)
        _reference_narrow(reference, g, s, scale, old, new)
        assert [x.hex() for x in engine.interval] == [x.hex() for x in reference.interval]
        assert engine.decided_by == reference.decided_by


@pytest.mark.parametrize("seed, setting, interval", [
    (1, {}, [-0.8680977536762071, 1.070265800080537]),
    (1, {"range_exponent": "per_pe"}, [-2.3781297268762716, math.inf]),
    (1, {"n_scale_rule": sb.bayes_cost.sqrt_scale, "sigma_const": 12.0},
     [-0.005352799784538754, 0.007634395608996182]),
    (2, {}, [-0.8512228750282828, 2.8347122210249087]),
    (2, {"range_exponent": "per_pe"}, [-2.5565291641464714, math.inf]),
    (2, {"n_scale_rule": sb.bayes_cost.sqrt_scale, "sigma_const": 12.0},
     [-0.05876174193354402, 0.01898389336903027]),
])
def test_the_golden_maps_certify_these_interval_bits(iris, seed, setting, interval):
    # the CLI's settings: the default, --range-exponent per_pe, and
    # --n-scale sqrt --sigma-const 12
    m = sb.load_map(fixture_path(f"iris_map_seed{seed}.json"))
    params = sb.params_from_summary(sb.summarize(iris), **setting)
    costs = BlockCosts(m, params)
    sb.partition_som(m, params, costs)
    assert costs.interval == interval


CLI_SETTINGS = [{}, {"range_exponent": "per_pe"},
                {"n_scale_rule": sb.bayes_cost.sqrt_scale, "sigma_const": 12.0}]


@pytest.mark.parametrize("setting", CLI_SETTINGS)
@pytest.mark.parametrize("seed", [1, 2])
def test_each_interval_end_keeps_the_decision_that_moved_it(iris, seed, setting):
    m = sb.load_map(fixture_path(f"iris_map_seed{seed}.json"))
    params = sb.params_from_summary(sb.summarize(iris), **setting)
    costs = BlockCosts(m, params)
    sb.partition_som(m, params, costs)
    occupied = costs._occupied

    def k(blocks):          # a side's occupied blocks
        return sum(block & occupied != 0 for block in blocks)

    for end, decision in zip(costs.interval, costs.decided_by):
        if decision is None:            # an end no decision moved
            assert math.isinf(end)
            continue
        old, new, g, s, scale = decision
        margin = 1e-9 * scale + costs._margin
        assert (0.0 if g <= margin else (margin - g) / s).hex() == end.hex()
        # both sides cover the same occupied cells, and s is c times the
        # winning side's occupied blocks less the losing side's
        assert (functools.reduce(operator.or_, old) & occupied
                == functools.reduce(operator.or_, new) & occupied)
        new_wins = math.fsum(map(costs.cost, new)) < math.fsum(map(costs.cost, old))
        assert s == costs._slope * (k(new) - k(old) if new_wins else k(old) - k(new))


@exact(200)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS),
       earlier=st.sampled_from(["range", "exponent", "sigma_const", "floor", "rule", "copy"]),
       f_sigma=st.sampled_from([1e-6, 0.01, 1.0, 5.0]), factor=st.sampled_from([1e-6, 0.5, 2.0]))
@example(seed=1, rule="sqrt", exponent="per_block", earlier="sigma_const", f_sigma=1e-6,
         factor=1e-6)           # every width at the floor under both
def test_an_engine_takes_the_last_engines_width_state_only_at_the_same_widths(
        seed, rule, exponent, earlier, f_sigma, factor):
    rng, m, base = random_case(seed, rule, exponent)
    params = base.scaled(f_sigma=f_sigma)
    other_rule = N_SCALE_RULES["unit" if rule == "sqrt" else "sqrt"]
    other_exponent = RANGE_EXPONENTS[1 - RANGE_EXPONENTS.index(exponent)]
    first_map, first_params = {
        "range": (m, params.scaled(f_R=factor)),
        "exponent": (m, dataclasses.replace(params, range_exponent=other_exponent)),
        "sigma_const": (m, params.scaled(f_sigma=factor)),
        "floor": (m, dataclasses.replace(params, sigma_floor=factor * params.sigma_floor)),
        "rule": (m, dataclasses.replace(params, n_scale_rule=other_rule)),
        "copy": (equal_copy(m), params),
    }[earlier]
    shares = {"range": True, "exponent": True, "floor": False, "rule": False, "copy": False,
              "sigma_const": widths_at_floor(m, params) and widths_at_floor(m, first_params)}
    n_cells = m.rows * m.cols
    masks = [(1 << n_cells) - 1] + [1 << k for k in range(n_cells)]
    for _ in range(20):
        masks.append(sum(1 << int(k) for k in np.flatnonzero(rng.random(n_cells) < 0.5)))
    first = BlockCosts._shared(first_map, first_params)
    for mask in masks[::2]:
        first.cost(mask)
    later = BlockCosts._shared(m, params)
    assert (later._terms is first._terms) == shares[earlier]
    for engine, som_map, p in ((later, m, params), (first, first_map, first_params)):
        for mask in masks:
            assert (engine.cost(mask).hex()
                    == sb.block_cost_for_pes(cells_of(som_map, mask), p).hex())


@exact(100)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS), f_R=factors)
def test_an_engines_interval_follows_from_its_own_decisions(seed, rule, exponent, f_R):
    # width terms cached by the oracle, or by the f_R point before, change
    # neither the decisions nor the interval an engine leaves
    rng, _, params = random_case(seed, rule, exponent)
    m = random_map(rng, rows=3, cols=3, M=params.n_attributes, empty_prob=0.2)

    def run(costs):
        p = sb.partition_som(costs.som_map, costs.params, costs)
        return p.signature(), p.cost.hex(), costs.interval, costs.decided_by

    expected = [run(BlockCosts(equal_copy(m), params.scaled(f_R=f))) for f in (1.0, f_R)]
    sb.exhaustive_partition(m, params)
    costs = BlockCosts._shared(m, params)
    assert [run(costs), run(costs.at(f_R))] == expected


@pytest.mark.parametrize("exponent", RANGE_EXPONENTS)
@pytest.mark.parametrize("rule", sorted(N_SCALE_RULES))
def test_the_oracle_then_the_heuristic_compute_no_width_term_twice(monkeypatch, rule, exponent):
    rng, _, params = random_case(7, rule, exponent)
    m = random_map(rng, rows=3, cols=3, M=params.n_attributes, empty_prob=0.2)
    expected = sb.partition_som(equal_copy(m), params)
    built, computed = [], []     # width states built, blocks' width terms computed
    build, mask_cells = BlockCosts._build, bayes_cost._mask_cells
    monkeypatch.setattr(BlockCosts, "_build",
                        lambda self, som_map: built.append(1) or build(self, som_map))
    monkeypatch.setattr(bayes_cost, "_mask_cells",
                        lambda mask: computed.append(mask) or mask_cells(mask))
    sb.exhaustive_partition(m, params)
    by_oracle = len(computed)
    p = sb.partition_som(m, params)
    assert built == [1] and by_oracle > 0
    assert len(set(computed)) == len(computed)
    assert (p.signature(), p.cost.hex()) == (expected.signature(), expected.cost.hex())


def test_an_attribute_set_on_one_engine_stays_on_that_engine():
    m = make_map([[0.0, 5.0], [0.2, None]], s=0.5)
    params = sb.CostParams(R=[10.0], sigma_floor=[0.1])
    costs = BlockCosts._shared(m, params)
    costs.cost = lambda mask: 0.0
    costs._terms = {}
    for other in (costs.at(2.0), BlockCosts._shared(m, params)):
        assert other._widths is costs._widths           # one width state
        assert other._terms is costs._widths.terms
        assert other.cost(0b0011).hex() == sb.block_cost_for_pes(
            cells_of(m, 0b0011), other.params).hex()


@pytest.mark.parametrize("exponent", RANGE_EXPONENTS)
@pytest.mark.parametrize("rule", sorted(N_SCALE_RULES))
def test_a_constructed_engine_builds_its_own_width_state(monkeypatch, rule, exponent):
    rng, m, params = random_case(3, rule, exponent)
    sb.partition_som(m, params)
    record = bayes_cost._last
    built = []
    build = BlockCosts._build
    monkeypatch.setattr(BlockCosts, "_build",
                        lambda self, som_map: built.append(1) or build(self, som_map))
    costs = BlockCosts(m, params)
    assert built == [1]
    assert costs._terms is not record[2].terms
    assert bayes_cost._last is record
