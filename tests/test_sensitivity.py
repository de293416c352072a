import gc
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import somblocks as sb
from somblocks import bayes_cost, sensitivity
from somblocks.bayes_cost import (N_SCALE_RULES, RANGE_EXPONENTS, BlockCosts, CostError,
                                  sqrt_scale, width_scale, widths_at_floor)
from somblocks.sensitivity import SweepError, _check_grid

from conftest import equal_copy, fixture_path, make_map, plain_params, random_map


def test_default_grid_contains_one():
    g = sb.default_grid()
    assert len(g) == 13
    assert g[0] == pytest.approx(10**-1.5)
    assert g[-1] == pytest.approx(10**1.5)
    assert 1.0 in g


@pytest.mark.parametrize("points", range(1, 26, 2))
def test_default_grid_centre_is_exactly_one(points):
    # logspace rounds 10**0 to 0.9999999999999994 for (11, 1.7) and (21, 1.7)
    for decades in [1.7, *np.linspace(0.05, 3.0, 60).tolist()]:
        grid = sb.default_grid(points, decades)
        assert grid[points // 2] == 1.0
        assert np.all(np.diff(grid) > 0)
        assert _check_grid(grid) == points // 2


def test_a_spec_puts_exactly_1_in_each_grid(fixture_map, iris_params):
    grid = np.logspace(-1.7, 1.7, 11)         # its centre is 0.9999999999999994
    spec = sb.SweepSpec(base=iris_params, f_R_grid=grid, f_sigma_grid=grid)
    for got in (spec.f_R_grid, spec.f_sigma_grid):
        assert got[5] == 1.0 and not got.flags.writeable
        assert np.array_equal(np.delete(got, 5), np.delete(grid, 5))
    assert grid[5] == 0.9999999999999994      # the caller's array is left as it was
    expected = sb.partition_som(equal_copy(fixture_map), iris_params).signature()
    assert sb.sweep(fixture_map, spec).reference == expected


def test_grid_validation():
    with pytest.raises(SweepError):
        _check_grid(np.array([0.5, 0.4, 2.0]))
    for grid in ([-1.0, 1.0], [0.0, 1.0]):
        with pytest.raises(SweepError, match="^factor grid must be positive$"):
            _check_grid(np.array(grid))
    with pytest.raises(SweepError):
        _check_grid(np.array([0.5, 2.0]))  # no 1.0
    with pytest.raises(SweepError):
        sb.default_grid(points=12)


@pytest.mark.parametrize("options, message", [
    ({"base": "x"}, "base must be a CostParams, got 'x'"),
    ({"f_R_grid": [1.0, float("nan")]}, "f_R_grid must hold finite factors, got nan"),
    ({"f_R_grid": [1.0, None]}, "f_R_grid must hold numbers, got None"),
    ({"f_R_grid": [1.0, float("inf")]}, "f_R_grid must hold finite factors, got inf"),
    ({"f_sigma_grid": [float("-inf"), 1.0]}, "f_sigma_grid must hold finite factors, got -inf"),
    ({"f_R_grid": [[1.0]]}, "f_R_grid must be a non-empty 1-D array, got shape (1, 1)"),
    ({"f_sigma_grid": []}, "f_sigma_grid must be a non-empty 1-D array, got shape (0,)"),
    ({"f_sigma_grid": [0.5, 1.0, 1.0]}, "f_sigma_grid must be strictly ascending"),
    ({"f_R_grid": [1.0, "a"]}, "f_R_grid must hold numbers, got 'a'"),
    ({"f_R_grid": [1.0, 10**400]},
     "f_R_grid must hold numbers, got 100000000000000000...0000000000000000000"),
    ({"f_R_grid": [1.0, True]}, "f_R_grid must hold numbers, got True"),
    ({"f_sigma_grid": np.array([True, False])}, "f_sigma_grid must hold numbers, got True"),
    ({"f_sigma_grid": {}}, "f_sigma_grid must hold numbers, got {}"),
])
def test_sweep_spec_names_its_bad_field(options, message):
    options = {"base": plain_params(R=10.0), **options}
    with pytest.raises(SweepError, match=f"^{re.escape(message)}$"):
        sb.SweepSpec(**options)


def test_one_point_grid_is_one():
    for decades in (1.5, 0.0, -2.0):
        assert sb.default_grid(1, decades).tolist() == [1.0]
    m = make_map([[0.0, 0.2], [4.0, 4.3]], s=0.5)
    st = sb.sweep(m, sb.SweepSpec(base=plain_params(R=10.0), f_R_grid=sb.default_grid(1),
                                  f_sigma_grid=sb.default_grid(1)))
    assert st.equal.tolist() == [[True]]
    assert sb.stable_region(st) == (1.0, 1.0)


@pytest.mark.parametrize("decades", [0.0, -1.0, float("nan"), float("inf"), 400.0, 308.26])
def test_several_points_need_positive_decades(decades):
    with pytest.raises(SweepError, match="decades must be positive"):
        sb.default_grid(3, decades)


@pytest.mark.parametrize("points, decades, message", [
    (3.0, 1.0, "points must be an integer, got 3.0"),
    (True, 1.0, "points must be an integer, got True"),
    (3, "1", "decades must be a number, got '1'"),
    (3, 1e-17, "decades must be large enough for 3 distinct grid points, got 1e-17"),
])
def test_default_grid_names_its_bad_argument(points, decades, message):
    with pytest.raises(SweepError, match=f"^{re.escape(message)}$"):
        sb.default_grid(points, decades)


def test_reference_point_always_equal():
    m = make_map([[0.0, 0.2], [4.0, 4.3]], s=0.5)
    spec = sb.SweepSpec(base=plain_params(R=10.0),
                        f_R_grid=np.logspace(-0.5, 0.5, 5),
                        f_sigma_grid=np.logspace(-0.5, 0.5, 5))
    st = sb.sweep(m, spec)
    assert st.equal[2, 2]
    assert st.reference == st.signatures[2][2]


def test_uniform_map_stable_everywhere():
    # equal means with scatter far below the range: merging wins at every
    # grid point, so the single block never changes
    m = make_map([[1.0] * 3] * 3, s=0.01)
    grid = np.logspace(-1, 1, 9)
    st = sb.sweep(m, sb.SweepSpec(base=plain_params(R=1000.0),
                                  f_R_grid=grid, f_sigma_grid=grid))
    assert st.equal.all()
    assert (st.n_blocks == 1).all()
    spans = sb.stable_region(st)
    assert spans == (pytest.approx(100.0), pytest.approx(100.0))


def test_only_reference_stable_gives_unit_spans():
    grid = np.logspace(-1, 1, 5)
    equal = np.zeros((5, 5), dtype=bool)
    equal[2, 2] = True
    st = sb.StabilityMap(f_R_grid=grid, f_sigma_grid=grid,
                         signatures=[[None] * 5 for _ in range(5)],
                         n_blocks=np.ones((5, 5), dtype=int),
                         equal=equal, reference=(0,))
    assert sb.stable_region(st) == (pytest.approx(1.0), pytest.approx(1.0))


def test_stable_region_prefers_balanced_rectangles():
    grid = np.logspace(-1, 1, 5)  # steps of sqrt(10)
    equal = np.zeros((5, 5), dtype=bool)
    equal[2, :] = True       # full row through the reference
    equal[1:4, 1:4] = True   # balanced 3x3 square
    st = sb.StabilityMap(f_R_grid=grid, f_sigma_grid=grid,
                         signatures=[[None] * 5 for _ in range(5)],
                         n_blocks=np.ones((5, 5), dtype=int),
                         equal=equal, reference=(0,))
    spans = sb.stable_region(st)
    assert spans == (pytest.approx(10.0), pytest.approx(10.0))


@pytest.mark.parametrize("equal, got", [
    (np.ones((3, 5), dtype=bool), "array([[ True...True,  True]])"),
    (np.ones((5, 2), dtype=bool), "array([[ True...True,  True]])"),
    (np.ones(5, dtype=bool), "array([ True,... True,  True])"),
    ([[True] * 5] * 5, str([[True] * 5] * 5)),
])
def test_stable_region_takes_only_a_bool_table_of_the_grids_shape(equal, got):
    grid = np.logspace(-1, 1, 5)
    st = sb.StabilityMap(f_R_grid=grid, f_sigma_grid=grid,
                         signatures=[[None] * 5 for _ in range(5)],
                         n_blocks=np.ones((5, 5), dtype=int), equal=equal, reference=(0,))
    message = f"equal must be a bool array of shape (5, 5), got {got}"
    with pytest.raises(SweepError, match=f"^{re.escape(message)}$"):
        sb.stable_region(st)


def test_stable_region_refuses_a_table_unequal_at_the_reference():
    grid = np.logspace(-1, 1, 3)
    equal = np.ones((3, 3), dtype=bool)
    equal[1, 1] = False
    st = sb.StabilityMap(f_R_grid=grid, f_sigma_grid=grid,
                         signatures=[[None] * 3 for _ in range(3)],
                         n_blocks=np.ones((3, 3), dtype=int), equal=equal, reference=(0,))
    message = "equal must be True at (f_R, f_sigma) = (1, 1), got False"
    with pytest.raises(SweepError, match=f"^{re.escape(message)}$"):
        sb.stable_region(st)


def test_signature_canonicalization():
    a = sb.Partition.from_labels(np.array([[5, 5], [2, 2]]))
    b = sb.Partition.from_labels(np.array([[0, 0], [7, 7]]))
    assert a.signature() == b.signature()


def test_sweep_is_repeatable(fixture_map, iris_params):
    grid = np.logspace(-0.25, 0.25, 3)
    spec = sb.SweepSpec(base=iris_params, f_R_grid=grid, f_sigma_grid=grid)
    s1 = sb.sweep(fixture_map, spec)
    s2 = sb.sweep(fixture_map, spec)
    assert np.array_equal(s1.equal, s2.equal)
    assert s1.signatures == s2.signatures


def test_fixture_stability_spans(fixture_map, iris_params):
    st = sb.sweep(fixture_map, sb.SweepSpec(base=iris_params))
    spans = sb.stable_region(st)
    assert spans[0] >= 10.0
    assert spans[1] >= 10.0


def counted_sweep(monkeypatch, m, spec):
    """The sweep, and how many partitions it ran."""
    calls = []
    partition_som = sensitivity.partition_som
    monkeypatch.setattr(sensitivity, "partition_som",
                        lambda *args: calls.append(1) or partition_som(*args))
    return sb.sweep(m, spec), len(calls)


def assert_matches_fresh_partitions(m, spec, stability):
    # each point's params are built field by field, not through scaled
    b = spec.base
    for i, f_R in enumerate(spec.f_R_grid):
        for j, f_sigma in enumerate(spec.f_sigma_grid):
            params = sb.CostParams(R=f_R * b.R, sigma_floor=b.sigma_floor,
                                   sigma_const=f_sigma * b.sigma_const,
                                   n_scale_rule=b.n_scale_rule, range_exponent=b.range_exponent)
            fresh = sb.partition_som(m, params)
            assert stability.signatures[i][j] == fresh.signature()
            assert stability.n_blocks[i, j] == fresh.n_blocks


def every_width_is_the_floor(m, params):
    """widths_at_floor by brute force: each block size's widths, as BlockCosts builds them."""
    n_occupied = max(1, int(np.count_nonzero(m.counts)))
    floors = np.broadcast_to(params.sigma_floor, m.stds.shape)
    return all(np.array_equal(np.maximum(params.sigma_floor, width_scale(params, n) * m.stds),
                              floors)
               for n in range(1, n_occupied + 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS), decades=st.floats(0.1, 1.5),
       boundary=st.floats(-0.9, 0.9))
def test_sweep_with_floor_columns_matches_fresh_partitions(seed, rule, exponent, decades,
                                                           boundary):
    # each attribute's floor sits at 10**(boundary * decades) times the
    # largest scaled std at f_sigma = 1, so the f_sigma grid straddles the
    # floor: its low columns are floor-bound and its high ones are not.  The
    # base is itself a scaled point, so the sweep compounds on it.
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    m = random_map(rng, M=M, empty_prob=0.3)
    sigma_const = float(rng.uniform(0.5, 4.0))
    rule_fn = N_SCALE_RULES[rule]
    n_occupied = int(np.count_nonzero(m.counts))
    top = sigma_const * max(map(rule_fn, range(1, n_occupied + 1))) * m.stds.max(axis=0)
    base = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=top * 10**(boundary * decades),
                         n_scale_rule=rule_fn, range_exponent=exponent).scaled(
        f_R=float(rng.uniform(0.1, 10.0)), f_sigma=sigma_const)
    assert base.sigma_const == sigma_const
    spec = sb.SweepSpec(base=base, f_R_grid=sb.default_grid(3, decades),
                        f_sigma_grid=sb.default_grid(5, decades))
    at_floor = [widths_at_floor(m, base.scaled(f_sigma=float(f))) for f in spec.f_sigma_grid]
    assert at_floor == [every_width_is_the_floor(m, base.scaled(f_sigma=float(f)))
                        for f in spec.f_sigma_grid]
    assert at_floor[0] and not at_floor[-1]
    assert_matches_fresh_partitions(m, spec, sb.sweep(m, spec))


@pytest.mark.parametrize("rule, std, partitions", [("unit", 0.5, 5), ("sqrt", 0.25, 6)])
def test_a_width_equal_to_its_floor_is_at_the_floor(monkeypatch, rule, std, partitions):
    # four occupied cells, so the largest scale at f_sigma = 1 is 1 (unit)
    # or sqrt(4) = 2 (sqrt), and the last cell's scaled std is 0.5, the
    # floor, exactly
    m = make_map([[0.0, 0.3], [None, 2.0], [2.4, None]],
                 stds=[[0.1, 0.05], [None, 0.1], [std, None]])
    base = sb.CostParams(R=[10.0], sigma_floor=[0.5], n_scale_rule=N_SCALE_RULES[rule])
    assert widths_at_floor(m, base)
    assert not widths_at_floor(m, base.scaled(f_sigma=float(np.nextafter(1.0, 2.0))))
    spec = sb.SweepSpec(base=base, f_R_grid=np.logspace(-1, 1, 3),
                        f_sigma_grid=np.array([0.5, 1.0, 2.0]))
    stability, calls = counted_sweep(monkeypatch, m, spec)
    # the column at 1.0 copies the one at 0.5; under unit one f_R point of
    # the two partitioned columns lies inside the interval of the point before
    assert calls == partitions
    assert_matches_fresh_partitions(m, spec, stability)


@pytest.mark.parametrize("s", [0.0, 0.1])
def test_widths_at_floor_answers_false_when_the_scale_overflows(s):
    # at f_sigma = 10 the sqrt rule's scale for the two occupied cells,
    # 1.5e308 * sqrt(2), is inf, and inf * s is NaN for s = 0 and inf
    # otherwise; neither is <= the floor
    m = make_map([[0.0, 0.3]], s=s)
    base = sb.CostParams(R=[10.0], sigma_floor=[0.5], sigma_const=1.5e307, n_scale_rule=sqrt_scale)
    assert widths_at_floor(m, base) == (s == 0.0)
    assert not widths_at_floor(m, base.scaled(f_sigma=10.0))
    with pytest.raises(CostError, match="cell widths must keep 1/sigma"):
        sb.sweep(m, sb.SweepSpec(base=base, f_R_grid=[1.0], f_sigma_grid=[1.0, 10.0]))


# 5 of 13 columns copied (104 points left) or none at the floor (169); all
# but 36 or 78 of those lie strictly inside the f_R interval of the point
# partitioned before them
@pytest.mark.parametrize("options, partitions", [
    ({}, 36),
    ({"n_scale_rule": sqrt_scale, "sigma_const": 12.0}, 78),
])
def test_sweep_partitions_each_width_setting_once(monkeypatch, fixture_map, iris, options,
                                                  partitions):
    base = sb.params_from_summary(sb.summarize(iris), **options)
    _, calls = counted_sweep(monkeypatch, fixture_map, sb.SweepSpec(base=base))
    assert calls == partitions


def test_points_inside_an_interval_match_fresh_partitions(monkeypatch):
    # derandomized: one seeded stream of random maps with empty cells, under
    # both width rules and both exponents, on f_R grids of 3 to 25 points.
    # Every point's signature, K, equal and stable_region must be those of
    # a plain partition_som there, and some points must have been reused,
    # among them points of per_pe columns that are all singletons.
    calls = []
    partition_som = sensitivity.partition_som
    monkeypatch.setattr(sensitivity, "partition_som",
                        lambda *args: calls.append(1) or partition_som(*args))
    rng = np.random.default_rng(34)
    reused = singleton_reused = 0
    for case in range(48):
        rule, exponent = sorted(N_SCALE_RULES)[case % 2], RANGE_EXPONENTS[case // 2 % 2]
        M = int(rng.integers(1, 4))
        m = random_map(rng, M=M, empty_prob=0.3)
        base = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=rng.uniform(0.02, 0.6, M),
                             sigma_const=float(rng.uniform(0.5, 4.0)),
                             n_scale_rule=N_SCALE_RULES[rule], range_exponent=exponent)
        spec = sb.SweepSpec(base=base,
                            f_R_grid=sb.default_grid(int(rng.choice([3, 5, 9, 13, 25])),
                                                     float(rng.uniform(0.5, 3.0))),
                            f_sigma_grid=sb.default_grid(3, 0.5))
        calls.clear()
        stability = sb.sweep(m, spec)
        fresh = [[sb.partition_som(m, base.scaled(f_R=float(f_R), f_sigma=float(f_sigma)))
                  for f_sigma in spec.f_sigma_grid] for f_R in spec.f_R_grid]
        signatures = [[p.signature() for p in row] for row in fresh]
        reference = signatures[len(spec.f_R_grid) // 2][1]
        expected = sb.StabilityMap(
            f_R_grid=spec.f_R_grid, f_sigma_grid=spec.f_sigma_grid, signatures=signatures,
            n_blocks=np.array([[p.n_blocks for p in row] for row in fresh]),
            equal=np.array([[s == reference for s in row] for row in signatures]),
            reference=reference)
        assert stability.signatures == expected.signatures
        assert np.array_equal(stability.n_blocks, expected.n_blocks)
        assert np.array_equal(stability.equal, expected.equal)
        assert sb.stable_region(stability) == sb.stable_region(expected)
        at_floor = sum(widths_at_floor(m, base.scaled(f_sigma=float(f)))
                       for f in spec.f_sigma_grid)
        partitioned = len(spec.f_R_grid) * (3 - max(0, at_floor - 1))
        reused += partitioned - len(calls)
        if exponent == "per_pe" and (expected.n_blocks == m.rows * m.cols).all():
            singleton_reused += partitioned - len(calls)
    assert reused > 0 and singleton_reused > 0


def counted_builds(monkeypatch):
    """The list that each width state BlockCosts builds appends to."""
    built = []
    build = BlockCosts._build
    monkeypatch.setattr(BlockCosts, "_build",
                        lambda self, som_map: built.append(1) or build(self, som_map))
    return built


# 5 of 13 columns at the floor (one state for the 6 floor columns) or none:
# the sweep's reference column takes the state partition_som just built
@pytest.mark.parametrize("options, states", [
    ({}, 8),
    ({"range_exponent": "per_pe"}, 8),
    ({"n_scale_rule": sqrt_scale, "sigma_const": 12.0}, 13),
])
@pytest.mark.parametrize("golden", ["iris_map_seed1.json", "iris_map_seed2.json"])
def test_a_sweep_after_partition_som_builds_no_width_state_twice(monkeypatch, iris, golden,
                                                                 options, states):
    base = sb.params_from_summary(sb.summarize(iris), **options)
    spec = sb.SweepSpec(base=base)
    golden_map = sb.load_map(fixture_path(golden))
    built = counted_builds(monkeypatch)
    alone = sb.sweep(equal_copy(golden_map), spec)
    assert len(built) == states
    built.clear()
    m = equal_copy(golden_map)
    sb.partition_som(m, base)
    assert sb.sweep(m, spec).signatures == alone.signatures
    assert len(built) == states


# the width record holds one width state, so once partition_som and a sweep
# return, only the last of the states they built for the map is alive
@pytest.mark.parametrize("options", [
    {}, {"range_exponent": "per_pe"}, {"n_scale_rule": sqrt_scale, "sigma_const": 12.0},
])
@pytest.mark.parametrize("golden", ["iris_map_seed1.json", "iris_map_seed2.json"])
def test_a_sweep_leaves_one_width_state_of_its_map_alive(iris, golden, options):
    base = sb.params_from_summary(sb.summarize(iris), **options)
    m = sb.load_map(fixture_path(golden))
    sb.partition_som(m, base)
    sb.sweep(m, sb.SweepSpec(base=base))
    gc.collect()
    alive = [o for o in gc.get_objects() if type(o) is bayes_cost._Widths and o.som_map is m]
    assert len(alive) == 1


# the reference column's widths above the floor; the reference as the first
# floor column (j_ref == 0); the reference as a floor column that copies an
# earlier one
GRID_KINDS = {"above": (3.0, ([0.1, 1.0, 4.0], [0.6, 1.0, 4.0])),
              "first floor": (0.5, ([1.0, 1.5], [1.0, 4.0])),
              "copied floor": (0.5, ([0.3, 1.0, 1.5], [0.3, 1.0, 5.0]))}


def grid_kind_case(seed, rule, exponent, kind):
    """A random map, base and sweep spec whose reference column is of this
    GRID_KINDS kind."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    m = random_map(rng, M=M, empty_prob=0.3)
    floor = rng.uniform(0.02, 0.6, M)
    n = int(np.count_nonzero(m.counts))
    with np.errstate(divide="ignore"):      # empty cells have std 0
        floor_const = float(np.min(floor / m.stds)) / N_SCALE_RULES[rule](n)
    factor, grids = GRID_KINDS[kind]
    base = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=floor,
                         sigma_const=factor * floor_const, n_scale_rule=N_SCALE_RULES[rule],
                         range_exponent=exponent)
    spec = sb.SweepSpec(base=base, f_sigma_grid=grids[int(rng.integers(2))],
                        f_R_grid=sb.default_grid(int(rng.choice([3, 5, 9])),
                                                 float(rng.uniform(0.5, 2.0))))
    return m, base, spec


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS), kind=st.sampled_from(sorted(GRID_KINDS)))
def test_a_sweep_after_partition_som_matches_a_sweep_alone(seed, rule, exponent, kind):
    m, base, spec = grid_kind_case(seed, rule, exponent, kind)
    j_ref = _check_grid(spec.f_sigma_grid)
    assert widths_at_floor(m, base) == (kind != "above")
    assert (j_ref == 0) == (kind == "first floor")
    alone = sb.sweep(equal_copy(m), spec)
    sb.partition_som(m, base)
    after = sb.sweep(m, spec)
    assert after.signatures == alone.signatures
    assert np.array_equal(after.n_blocks, alone.n_blocks)
    assert np.array_equal(after.equal, alone.equal)
    assert after.reference == alone.reference


GOLDEN_OPTIONS = [{}, {"range_exponent": "per_pe"},
                  {"n_scale_rule": sqrt_scale, "sigma_const": 12.0}]


# the sweep hands the width record its reference column's state, so
# partition_som at the base, or at another f_R, builds and computes nothing
@pytest.mark.parametrize("options", GOLDEN_OPTIONS)
@pytest.mark.parametrize("golden", ["iris_map_seed1.json", "iris_map_seed2.json"])
def test_a_partition_after_a_sweep_reuses_the_base_widths(monkeypatch, iris, golden, options):
    base = sb.params_from_summary(sb.summarize(iris), **options)
    golden_map = sb.load_map(fixture_path(golden))
    points = [base, base.scaled(f_R=2.0)]
    expected = [sb.partition_som(equal_copy(golden_map), p) for p in points]
    m = equal_copy(golden_map)
    sb.partition_som(m, base)
    sb.sweep(m, sb.SweepSpec(base=base))
    built, computed = counted_builds(monkeypatch), []    # width states, blocks' width terms
    mask_cells = bayes_cost._mask_cells
    monkeypatch.setattr(bayes_cost, "_mask_cells",
                        lambda mask: computed.append(mask) or mask_cells(mask))
    got = [sb.partition_som(m, p) for p in points]
    assert built == [] and computed == []
    assert [(p.signature(), p.cost.hex()) for p in got] == [
        (p.signature(), p.cost.hex()) for p in expected]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(sorted(N_SCALE_RULES)),
       exponent=st.sampled_from(RANGE_EXPONENTS), kind=st.sampled_from(sorted(GRID_KINDS)))
def test_a_sweep_leaves_the_width_state_of_its_base_alive(seed, rule, exponent, kind):
    m, base, spec = grid_kind_case(seed, rule, exponent, kind)
    alone = sb.sweep(equal_copy(m), spec)
    sb.partition_som(m, base)
    after = sb.sweep(m, spec)
    gc.collect()
    alive = [o for o in gc.get_objects() if type(o) is bayes_cost._Widths and o.som_map is m]
    assert len(alive) == 1
    assert BlockCosts._shared(m, base)._terms is alive[0].terms
    assert after.signatures == alone.signatures
    assert np.array_equal(after.n_blocks, alone.n_blocks)
    assert np.array_equal(after.equal, alone.equal)
    assert after.reference == alone.reference


# at most 3 width states of the map are alive at any build of partition_som
# and a sweep: the width record's (only partition_som and the sweep's one
# BlockCosts._shared column write it; BlockCosts(...) never does), the one
# just built and the previous column's engine's
@pytest.mark.parametrize("options", GOLDEN_OPTIONS)
@pytest.mark.parametrize("golden", ["iris_map_seed1.json", "iris_map_seed2.json"])
def test_a_sweep_keeps_at_most_three_width_states_of_its_map_alive(monkeypatch, iris, golden,
                                                                   options):
    base = sb.params_from_summary(sb.summarize(iris), **options)
    m = sb.load_map(fixture_path(golden))
    alive = []      # after each build, the map's width states alive
    build = BlockCosts._build

    def counted(self, som_map):
        widths = build(self, som_map)
        gc.collect()
        alive.append(sum(type(o) is bayes_cost._Widths and o.som_map is m
                         for o in gc.get_objects()))
        return widths

    monkeypatch.setattr(BlockCosts, "_build", counted)
    sb.partition_som(m, base)
    sb.sweep(m, sb.SweepSpec(base=base))
    assert alive and max(alive) <= 3


# each column's engine is built in its turn, the one column that shares the
# width record through BlockCosts._shared as well as the BlockCosts(...) of
# every other column, which never shares it; so refusals come in ascending
# f_sigma, as the sweep command's do
@pytest.mark.parametrize("grid, named", [
    (None, 0.03162277660168379),        # the default grid: every column refused
    ([1e-200, 1e-2, 1.0, 10.0], 0.01),
    ([1e-200, 1e-8, 1.0, 10.0], 1.0),   # the columns below partition
])
@pytest.mark.parametrize("rule", sorted(N_SCALE_RULES))
def test_sweep_names_the_smallest_column_whose_widths_are_refused(fixture_map, iris, rule,
                                                                  grid, named):
    sigma_const = 1e307 if grid is None else 1e160
    base = sb.params_from_summary(sb.summarize(iris), sigma_const=sigma_const,
                                  n_scale_rule=N_SCALE_RULES[rule])
    spec = sb.SweepSpec(base=base, f_R_grid=[1.0] if grid else sb.default_grid(),
                        f_sigma_grid=grid or sb.default_grid())
    prefix = f"f_sigma={named!r}, sigma_const={sigma_const!r}: cell widths must keep 1/sigma"
    with pytest.raises(CostError, match=f"^{re.escape(prefix)}"):
        sb.sweep(fixture_map, spec)
