"""Changes that should not matter to a partition: symmetries the cost respects.

Each property compares one answer with the answer to a transformed input, so
it needs no reference copy of the searches.  Where the arithmetic is exact the
cost bits must agree too: a partition's cost is an fsum of its blocks' costs,
and a block's cost an fsum of terms computed one attribute at a time, and
fsum does not depend on the order of what it sums.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import somblocks as sb
from somblocks.som import PeStats, SomMap

from conftest import fixture_path, map_cells, random_map

RULES = sorted(sb.bayes_cost.N_SCALE_RULES)
EXPONENTS = sb.bayes_cost.RANGE_EXPONENTS


def _rebuilt(som_map: SomMap, cells: np.ndarray, attributes=slice(None)) -> SomMap:
    """The map whose cell (r, c) is som_map's cell number cells[r, c], with
    its vectors' attributes taken in the given order."""
    old = map_cells(som_map)
    pes = []
    for (r, c), k in np.ndenumerate(cells):
        pe = old[k]
        pes.append(PeStats(r=r, c=c, weight=pe.weight[attributes], member_ids=pe.member_ids,
                           n=pe.n, mean=None if pe.mean is None else pe.mean[attributes],
                           std=None if pe.std is None else pe.std[attributes]))
    rows, cols = cells.shape
    config = dataclasses.replace(som_map.config, rows=rows, cols=cols)
    return SomMap(rows=rows, cols=cols, pes=tuple(pes), config=config)


def dihedral_images(som_map: SomMap) -> list[SomMap]:
    """The map's 8 rotations and reflections (a rows x cols map turns cols x rows)."""
    cells = np.arange(som_map.rows * som_map.cols).reshape(som_map.rows, som_map.cols)
    return [_rebuilt(som_map, np.rot90(grid, k)) for grid in (cells, cells.T) for k in range(4)]


def test_the_dihedral_images_are_eight_distinct_maps():
    m = random_map(np.random.default_rng(0), rows=2, cols=3, M=1, empty_prob=0.0)
    images = dihedral_images(m)
    assert images[0].means.tobytes() == m.means.tobytes()
    assert {(image.rows, image.cols) for image in images} == {(2, 3), (3, 2)}
    assert len({image.means.tobytes() for image in images}) == 8


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(1, 2), (2, 2), (1, 5), (2, 3), (2, 4), (3, 3)]),
       rule=st.sampled_from(RULES), exponent=st.sampled_from(EXPONENTS),
       f_R=st.sampled_from([0.05, 1.0, 20.0]))
def test_the_oracle_cost_is_the_same_on_every_rotation_and_reflection(seed, shape, rule,
                                                                     exponent, f_R):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    m = random_map(rng, rows=shape[0], cols=shape[1], M=M, empty_prob=0.2)
    params = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=rng.uniform(0.02, 0.6, M),
                           sigma_const=float(rng.uniform(0.5, 4.0)),
                           n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule],
                           range_exponent=exponent).scaled(f_R=f_R)
    costs = {sb.exhaustive_partition(image, params).cost.hex() for image in dihedral_images(m)}
    assert len(costs) == 1


@pytest.fixture(scope="module", params=["iris_map_seed1.json", "iris_map_seed2.json"])
def golden(request):
    return sb.load_map(fixture_path(request.param))


@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("rule", RULES)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(order=st.permutations(range(4)), f_R=st.sampled_from([0.03, 1.0, 30.0]))
def test_the_partition_does_not_depend_on_the_order_of_the_attributes(golden, iris, rule,
                                                                      exponent, order, f_R):
    params = sb.params_from_summary(sb.summarize(iris), f_R=f_R, range_exponent=exponent,
                                    n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule])
    order = list(order)
    cells = np.arange(golden.rows * golden.cols).reshape(golden.rows, golden.cols)
    permuted = dataclasses.replace(params, R=params.R[order],
                                   sigma_floor=params.sigma_floor[order])
    want = sb.partition_som(golden, params)
    got = sb.partition_som(_rebuilt(golden, cells, order), permuted)
    assert got == want
    assert got.cost.hex() == want.cost.hex()


def _moved(som_map: SomMap, j: int, scale: float = 1.0, shift: float = 0.0) -> SomMap:
    """som_map with attribute j of every cell's weight and mean taken to
    scale * v + shift, and of its std to scale * v."""
    def moved(vector, offset):
        if vector is None:
            return None
        vector = vector.copy()
        vector[j] = vector[j] * scale + offset
        return vector

    return dataclasses.replace(som_map, pes=tuple(
        dataclasses.replace(pe, weight=moved(pe.weight, shift), mean=moved(pe.mean, shift),
                            std=moved(pe.std, 0.0))
        for pe in map_cells(som_map)))


def _draw(seed: int, rule: str, exponent: str) -> tuple[SomMap, sb.CostParams, int]:
    """A random 2-6 x 2-6 map of 1-3 attributes, params for it and one attribute."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    m = random_map(rng, rows=int(rng.integers(2, 7)), cols=int(rng.integers(2, 7)), M=M,
                   empty_prob=0.2)
    params = sb.CostParams(R=rng.uniform(1.0, 50.0, M), sigma_floor=rng.uniform(0.02, 0.6, M),
                           sigma_const=float(rng.uniform(0.5, 4.0)),
                           n_scale_rule=sb.bayes_cost.N_SCALE_RULES[rule],
                           range_exponent=exponent)
    return m, params, int(rng.integers(M))


def _same_partition(m: SomMap, params, moved: SomMap, moved_params) -> None:
    """Assert partition_som splits both the same way, unless some decision
    of either run lay within its rounding margin (its interval is [0, 0])."""
    runs = []
    for som_map, p in ((m, params), (moved, moved_params)):
        costs = sb.BlockCosts(som_map, p)
        runs.append((sb.partition_som(som_map, p, costs).signature(), costs.interval))
    assume(all(interval != [0.0, 0.0] for _, interval in runs))
    assert runs[0][0] == runs[1][0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(RULES),
       power=st.sampled_from([-10, -5, -2, -1, 1, 2, 5, 10]))
def test_a_change_of_unit_leaves_the_partition_alone(seed, rule, power):
    # Under per_block, scaling an attribute's means, stds, floor and R by a
    # moves ln R and ln(S)/2 of every block by ln a and -ln a, and ln sigma by
    # ln a per occupied cell, so every partition's cost by the same amount.
    # A power of 2 scales exactly.
    m, params, j = _draw(seed, rule, "per_block")
    a = 2.0 ** power
    R, floor = params.R.copy(), params.sigma_floor.copy()
    R[j] *= a
    floor[j] *= a
    _same_partition(m, params, _moved(m, j, scale=a),
                    dataclasses.replace(params, R=R, sigma_floor=floor))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(RULES),
       exponent=st.sampled_from(EXPONENTS), shift=st.sampled_from([-40.0, -1.5, 0.25, 3.0, 100.0]))
def test_a_change_of_origin_leaves_the_partition_alone(seed, rule, exponent, shift):
    # Shifting an attribute's means moves no width and no mean's distance from
    # the block's weighted mean; R and the floors stay, as a span-based range
    # rule (two_span) keeps them.
    m, params, j = _draw(seed, rule, exponent)
    _same_partition(m, params, _moved(m, j, shift=shift), params)
