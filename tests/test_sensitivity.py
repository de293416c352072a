import numpy as np
import pytest

import somblocks as sb
from somblocks.sensitivity import SweepError, _check_grid

from conftest import make_map, plain_params


def test_default_grid_contains_one():
    g = sb.default_grid()
    assert len(g) == 13
    assert g[0] == pytest.approx(10**-1.5)
    assert g[-1] == pytest.approx(10**1.5)
    assert 1.0 in g


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
