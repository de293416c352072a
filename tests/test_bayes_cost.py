import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import integrate

import somblocks as sb
from somblocks.baselines import BaselineError
from somblocks.bayes_cost import CostError, block_stat, sqrt_scale, unit_scale
from somblocks.partition import Partition

from conftest import make_map, make_pe, map_cells, plain_params


def integration_cost(members, R, exponent="per_block"):
    """Independent oracle: -ln of the numerically marginalized likelihood.

    Integrates the product of the width-sigma Gaussian factors over the
    shared value and applies the flat-prior factor 1/R once per block
    (per_block) or N-1 times (per_pe).  Kept free of the closed forms used
    by the implementation.
    """
    members = [(np.atleast_1d(m), np.atleast_1d(s)) for m, s in members]
    M = len(members[0][0])
    n = len(members)
    total = 0.0
    for j in range(M):
        ms = [float(m[j]) for m, _ in members]
        ss = [float(s[j]) for _, s in members]

        def f(x):
            p = 1.0
            for m, s in zip(ms, ss):
                p *= math.exp(-((m - x) ** 2) / s**2) / (math.sqrt(math.pi) * s)
            return p

        lo = min(ms) - 60 * max(ss)
        hi = max(ms) + 60 * max(ss)
        val, _ = integrate.quad(f, lo, hi, epsabs=0, epsrel=1e-12, limit=400,
                                points=sorted(ms))
        if exponent == "per_block":
            total += -math.log(val / R[j])
        else:
            total += -math.log(val / R[j] ** (n - 1))
    return total


def test_sigma_estimate_examples():
    # direct product with block size 1
    params = sb.CostParams(R=np.array([10.0]), sigma_floor=np.array([1e-9]),
                           sigma_const=12.0, n_scale_rule=sqrt_scale)
    assert sb.sigma_estimate(make_pe(0.0, 0.5), 1, params) == pytest.approx([6.0])
    # floor absorbs s = 0
    params0 = sb.CostParams(R=np.array([10.0]), sigma_floor=np.array([0.07]),
                            sigma_const=12.0, n_scale_rule=sqrt_scale)
    assert sb.sigma_estimate(make_pe(0.0, 0.0), 3, params0) == pytest.approx([0.07])
    # block-size scaling: 12 * sqrt(9) * 0.1
    assert sb.sigma_estimate(make_pe(0.0, 0.1), 9, params) == pytest.approx([3.6])


def test_sigma_estimate_rejects_empty_cell():
    m = make_map([[None, 0.0]])
    with pytest.raises(CostError):
        sb.sigma_estimate(m.pe(0, 0), 1, plain_params())


def test_sigma_estimate_needs_a_positive_block_size():
    with pytest.raises(CostError, match="^block_size must be a positive integer$"):
        sb.sigma_estimate(make_pe(0.0, 0.5), 0, plain_params())


@pytest.mark.parametrize("means, sigmas", [(np.zeros((2, 2)), np.ones((2, 3))),
                                           (np.zeros((0, 2)), np.ones((0, 2)))],
                         ids=["incongruent", "empty"])
def test_block_stat_needs_congruent_non_empty_tables(means, sigmas):
    with pytest.raises(CostError, match="^means and sigmas must be non-empty and congruent$"):
        block_stat(means, sigmas)


def test_block_cost_needs_members_as_wide_as_R():
    with pytest.raises(CostError, match=r"^member width does not match params\.R$"):
        sb.block_cost([(np.zeros(2), np.ones(2))], plain_params(M=1))


def test_range_estimate_iris(iris):
    summ = sb.summarize(iris)
    two_max = sb.params_from_summary(summ, range_rule="two_max")
    assert two_max.R == pytest.approx([15.8, 8.8, 13.8, 5.0])
    two_span = sb.params_from_summary(summ, range_rule="two_span")
    assert two_span.R == pytest.approx([7.2, 4.8, 11.8, 4.8])
    scaled = sb.params_from_summary(summ, range_rule="two_span", f_R=3.0)
    assert scaled.R == pytest.approx([21.6, 14.4, 35.4, 14.4])


def test_range_estimate_zero_span_errors():
    summ = sb.AttributeSummary(mins=np.array([1.0, 0.0]), maxs=np.array([1.0, 2.0]))
    with pytest.raises(CostError):
        sb.params_from_summary(summ, range_rule="two_span")


@pytest.mark.parametrize("top, shown", [(0.0, "0.0"), (-1.5, "-1.5")])
def test_two_max_names_the_attribute_without_a_positive_maximum(top, shown):
    summ = sb.AttributeSummary(mins=np.array([1.0, -3.0]), maxs=np.array([2.0, top]))
    message = f'attribute 1 has maximum {shown}; use range_rule="two_span"'
    with pytest.raises(CostError, match=message):
        sb.params_from_summary(summ)


def test_two_max_needs_a_positive_span_for_the_width_floor():
    summ = sb.AttributeSummary(mins=np.array([1.0, 2.0]), maxs=np.array([2.0, 2.0]))
    with pytest.raises(CostError, match="^sigma floor needs positive span on every attribute, "
                                        "but attribute 1 has span 0.0$"):
        sb.params_from_summary(summ)


def test_cost_params_compare_and_hash_without_raising():
    a, b = plain_params(M=2), plain_params(M=2)
    assert a == a and a != b      # identity, as for the other array-holding records
    assert len({a, b}) == 2


def test_singleton_block_cost_per_block():
    params = plain_params(R=20.0)
    members = [(np.array([3.0]), np.array([1.0]))]
    got = sb.block_cost(members, params)
    assert got == pytest.approx(math.log(20.0), abs=1e-12)
    # independent quadrature over the prior window [m - R/2, m + R/2]
    def f(x):
        return math.exp(-((3.0 - x) ** 2)) / math.sqrt(math.pi)
    val, _ = integrate.quad(f, 3.0 - 10.0, 3.0 + 10.0, epsabs=1e-14, epsrel=1e-13)
    assert got == pytest.approx(-math.log(val / 20.0), abs=1e-9)


def test_singleton_block_cost_per_pe_is_zero():
    params = plain_params(R=20.0, exponent="per_pe")
    members = [(np.array([3.0]), np.array([0.7]))]
    assert sb.block_cost(members, params) == pytest.approx(0.0, abs=1e-12)


def test_two_member_block_cost_value():
    params = plain_params(R=10.0)
    members = [(np.zeros(1), np.ones(1)), (np.zeros(1), np.ones(1))]
    expected = math.log(10) + 0.5 * math.log(math.pi) + 0.5 * math.log(2)
    got = sb.block_cost(members, params)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(integration_cost(members, [10.0]), abs=1e-9)


def test_merge_criterion_flips_at_sigma_sqrt_2pi():
    R = 10.0
    params = plain_params(R=R)

    def merge_delta(sigma):
        pair = [(np.zeros(1), np.array([sigma])), (np.zeros(1), np.array([sigma]))]
        single = [(np.zeros(1), np.array([sigma]))]
        return sb.block_cost(pair, params) - 2 * sb.block_cost(single, params)

    lo, hi = 0.5, 10.0
    assert merge_delta(lo) < 0 < merge_delta(hi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if merge_delta(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(R / math.sqrt(2 * math.pi), abs=1e-6)


@pytest.mark.parametrize("exponent", ["per_block", "per_pe"])
def test_block_cost_matches_integration_oracle(exponent):
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        M = int(rng.integers(1, 4))
        sigmas = rng.uniform(0.3, 2.0, size=(n, M))
        center = rng.uniform(-3, 3, size=M)
        means = center + rng.uniform(-1.5, 1.5, size=(n, M)) * sigmas
        R = rng.uniform(5.0, 50.0, size=M)
        params = sb.CostParams(R=R, sigma_floor=np.full(M, 1e-9),
                               range_exponent=exponent)
        members = [(means[i], sigmas[i]) for i in range(n)]
        got = sb.block_cost(members, params)
        want = integration_cost(members, R, exponent)
        assert got == pytest.approx(want, rel=1e-6)


def test_partition_cost_all_singletons(iris_params):
    m = make_map([[0.0, 1.0], [2.0, 3.0]], s=0.5)
    params = plain_params(R=10.0)
    p = Partition.from_labels(np.arange(4).reshape(2, 2))
    assert sb.partition_cost(p, m, params) == pytest.approx(4 * math.log(10.0), abs=1e-12)


def test_partition_cost_multivariate_additivity():
    grid1 = [[0.0, 1.0], [2.0, 0.5]]
    grid2 = [[np.array([v, v]) for v in row] for row in grid1]
    m1, m2 = make_map(grid1, s=0.7), make_map(grid2, s=0.7)
    p = Partition.from_labels(np.array([[0, 0], [1, 1]]))
    c1 = sb.partition_cost(p, m1, plain_params(M=1, R=10.0))
    c2 = sb.partition_cost(p, m2, plain_params(M=2, R=10.0))
    assert c2 == pytest.approx(2 * c1, abs=1e-10)


def test_partition_cost_single_occupied_cell():
    m = make_map([[None, None], [None, 4.2]], s=0.3)
    p = Partition.from_labels(np.zeros((2, 2), dtype=int))
    assert sb.partition_cost(p, m, plain_params(R=10.0)) == pytest.approx(math.log(10.0))


def test_partition_cost_of_an_all_empty_block_is_zero():
    # block 1 holds only empty cells; it adds exactly nothing to the fsum
    m = make_map([[0.0, None, None], [1.5, 2.0, None]], s=0.4)
    p = Partition.from_labels(np.array([[0, 1, 1], [0, 2, 1]]))
    params = plain_params(R=10.0)
    occupied = [sb.block_cost_for_pes([m.pe(0, 0), m.pe(1, 0)], params),
                sb.block_cost_for_pes([m.pe(1, 1)], params)]
    assert sb.block_cost_for_pes([m.pe(0, 1), m.pe(0, 2), m.pe(1, 2)], params) == 0.0
    assert sb.partition_cost(p, m, params) == math.fsum(occupied)


def test_equal_sigma_merge_threshold_in_map_costs():
    # merging equal-mean cells wins iff sigma*sqrt(2*pi) < R
    for sigma, should_merge in ((1.0, True), (5.0, False)):
        m = make_map([[0.0, 0.0]], s=sigma)
        pair = sb.block_cost_for_pes(map_cells(m), plain_params(R=10.0))
        singles = sum(sb.block_cost_for_pes([pe], plain_params(R=10.0)) for pe in map_cells(m))
        assert (pair < singles) == should_merge


def test_additivity_and_permutation_invariance():
    rng = np.random.default_rng(7)
    means = rng.normal(0, 1, size=(6, 3))
    sigmas = rng.uniform(0.2, 2.0, size=(6, 3))
    params = plain_params(M=3, R=25.0)
    members = [(means[i], sigmas[i]) for i in range(6)]
    base = sb.block_cost(members, params)
    for _ in range(10):
        perm = rng.permutation(6)
        assert abs(sb.block_cost([members[i] for i in perm], params) - base) <= 1e-12

    # partition cost equals the sum of its block costs
    m = make_map([[0.0, 1.0, 5.0], [0.2, 1.1, 5.2]], s=0.5)
    p = Partition.from_labels(np.array([[0, 1, 2], [0, 1, 2]]))
    total = sb.partition_cost(p, m, params := plain_params(R=12.0))
    blocks = [sb.block_cost_for_pes([m.pe(r, c) for r, c in np.argwhere(p.block_of == b).tolist()], params)
              for b in range(p.n_blocks)]
    assert abs(total - math.fsum(blocks)) <= 1e-12


def test_precision_weighted_mean_properties():
    means = np.array([[1.0], [3.0]])
    _, X, _ = block_stat(means, np.array([[0.5], [0.5]]))
    assert X[0] == pytest.approx(2.0)  # equal sigmas -> arithmetic mean
    prev = None
    for big in (10.0, 1e3, 1e6):
        x = block_stat(means, np.array([[0.5], [big]]))[1][0]
        if prev is not None:
            assert abs(x - 1.0) < abs(prev - 1.0)  # monotone approach to m_1
        prev = x
    assert prev == pytest.approx(1.0, abs=1e-6)
    assert np.min(means) <= X[0] <= np.max(means)


def test_resid_algebraic_identity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        means = rng.normal(0, 3, size=(n, 2))
        sigmas = rng.uniform(0.2, 3.0, size=(n, 2))
        S, X, resid = block_stat(means, sigmas)
        w = 1.0 / sigmas**2
        alt = (w * means**2).sum(axis=0) - X**2 * S
        assert np.allclose(resid, alt, atol=1e-9)
        assert np.all(resid >= 0)
    # equality iff all member means equal (per attribute)
    _, _, resid = block_stat(np.array([[2.0], [2.0], [2.0]]), np.array([[0.3], [1.0], [2.0]]))
    assert resid[0] == pytest.approx(0.0, abs=1e-12)


def test_range_scale_behavior_per_convention():
    # two cells, equal means: compare 1-block vs 2-singleton costs as f_R grows
    m = make_map([[0.0, 0.0]], s=1.0)
    two = Partition.from_labels(np.array([[0, 1]]))
    one = Partition.from_labels(np.array([[0, 0]]))
    for exponent, finer_wins_at_large_R in (("per_block", False), ("per_pe", True)):
        gaps = []
        for f_R in (1.0, 8.0):
            params = plain_params(R=10.0, exponent=exponent, f_R=f_R)
            gaps.append(sb.partition_cost(two, m, params)
                        - sb.partition_cost(one, m, params))
        # per_block: growing R penalizes the 2-block partition more
        if finer_wins_at_large_R:
            assert gaps[1] < gaps[0]
        else:
            assert gaps[1] > gaps[0]


def test_cost_params_validation():
    with pytest.raises(CostError):
        sb.CostParams(R=np.array([-1.0]), sigma_floor=np.array([0.1]))
    with pytest.raises(CostError):
        sb.CostParams(R=np.array([1.0]), sigma_floor=np.array([0.0]))
    summ = sb.AttributeSummary(mins=np.array([0.0]), maxs=np.array([1.0]))
    with pytest.raises(CostError, match=r"^range_rule must be one of \('two_span', 'two_max'\)$"):
        sb.params_from_summary(summ, range_rule="bogus")
    with pytest.raises(CostError):
        sb.block_cost([], plain_params())
    with pytest.raises(CostError):
        sb.block_cost([(np.array([0.0]), np.array([0.0]))], plain_params())


@pytest.mark.parametrize("rule, shown", [("sqrt", "'sqrt'"), (None, "None"),
                                         (lambda n: 1.0, "<function")])
def test_cost_params_refuse_a_rule_outside_n_scale_rules(rule, shown):
    with pytest.raises(CostError, match=re.escape(f"n_scale_rule must be one of N_SCALE_RULES' "
                                                  f"rules ('sqrt', 'unit'), got {shown}")):
        sb.CostParams(R=np.array([1.0]), sigma_floor=np.array([0.1]), n_scale_rule=rule)


@pytest.mark.parametrize("field, changes", [
    ("R", {"R": np.array([math.nan])}),
    ("R", {"R": np.array([math.inf])}),
    ("sigma_floor", {"sigma_floor": np.array([math.nan])}),
    ("sigma_const", {"sigma_const": math.nan}),
])
def test_cost_params_must_be_finite(field, changes):
    values = {"R": np.array([1.0]), "sigma_floor": np.array([0.1]), **changes}
    with pytest.raises(CostError, match=f"^{field} must be"):
        sb.CostParams(**values)


@pytest.mark.parametrize("changes, message", [
    ({"sigma_floor": np.array([1e-200])}, r"1/sigma_floor\*\*2 must be finite, "
                                          r"got sigma_floor 1e-200$"),
    ({"R": np.array([1.0, 1.0]), "sigma_floor": np.array([0.1, 1e160])},
     r"1/sigma_floor\*\*2 must be positive, got sigma_floor 1e\+160$"),
    ({"sigma_floor": np.array([1e300])}, r"1/sigma_floor\*\*2 must be positive, "
                                         r"got sigma_floor 1e\+300$"),
])
def test_cost_params_refuse_finite_settings_that_overflow(changes, message):
    values = {"R": np.array([1e-10]), "sigma_floor": np.array([0.1]), **changes}
    with pytest.raises(CostError, match=f"^{message}"):
        sb.CostParams(**values)


@pytest.mark.parametrize("top, f_R, message", [
    (5.0, 0.0, "f_R must be positive and finite, got 0.0"),
    (5.0, math.nan, "f_R must be positive and finite, got nan"),
    (5.0, 1e308, "ln(f_R * R) must be finite, got f_R=1e+308"),
    (5e-11, 1e-320, "ln(f_R * R) must be finite, got f_R=1e-320"),
])
def test_params_from_summary_refuses_an_f_R_out_of_range(top, f_R, message):
    summ = sb.AttributeSummary(mins=np.array([0.0]), maxs=np.array([top]))
    with pytest.raises(CostError, match=f"^{re.escape(message)}$"):
        sb.params_from_summary(summ, f_R=f_R)


SUMMARY = sb.AttributeSummary(mins=np.array([0.0]), maxs=np.array([1.0]))
PARAMS = sb.CostParams(R=np.array([1.0]), sigma_floor=np.array([0.1]))


@pytest.mark.parametrize("error, build, message", [
    (CostError, lambda: sb.CostParams(R=[1.0], sigma_floor=[0.1], sigma_const=True),
     "sigma_const must be a number, got True"),
    (CostError, lambda: sb.CostParams(R=[1.0], sigma_floor=[0.1], sigma_const="2"),
     "sigma_const must be a number, got '2'"),
    (CostError, lambda: sb.params_from_summary(SUMMARY, sigma_floor_frac="0.1"),
     "sigma_floor_frac must be a number, got '0.1'"),
    (CostError, lambda: sb.params_from_summary(SUMMARY, f_R=True),
     "f_R must be a number, got True"),
    (CostError, lambda: PARAMS.scaled(f_R="3"), "f_R must be a number, got '3'"),
    (CostError, lambda: PARAMS.scaled(f_sigma=None), "f_sigma must be a number, got None"),
    (CostError, lambda: PARAMS.scaled(f_sigma=-2.0),
     "f_sigma must be positive and finite, got -2.0"),
    (CostError, lambda: sb.CostParams(R=[5.0], sigma_floor=[0.1]).scaled(f_R=1e308),
     "ln(f_R * R) must be finite, got f_R=1e+308"),
    (CostError, lambda: sb.CostParams(R=[1.0], sigma_floor=[0.1], sigma_const=1e-10)
     .scaled(f_sigma=1e-320),
     "f_sigma * sigma_const must be positive and finite, got f_sigma=1e-320, "
     "sigma_const=1e-10"),
    (CostError, lambda: sb.CostParams(R=[1.0], sigma_floor=[0.1], sigma_const=1e300)
     .scaled(f_sigma=1e10),
     "f_sigma * sigma_const must be positive and finite, got f_sigma=10000000000.0, "
     "sigma_const=1e+300"),
    (BaselineError, lambda: sb.threshold_partition(make_map([[0.0, 1.0]]), "1"),
     "threshold must be a number, got '1'"),
])
def test_scalar_settings_name_the_field_they_fail(error, build, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("rule, exponent", [(unit_scale, "per_block"), (sqrt_scale, "per_pe")])
def test_scaled_point_has_the_fields_of_params_built_directly(rule, exponent):
    base = sb.CostParams(R=[2.0, 3.0], sigma_floor=[0.1, 0.2], sigma_const=1.5,
                         n_scale_rule=rule, range_exponent=exponent)
    point = base.scaled(f_R=3.0, f_sigma=0.1)
    direct = sb.CostParams(R=base.R * 3.0, sigma_floor=base.sigma_floor,
                           sigma_const=1.5 * 0.1, n_scale_rule=rule, range_exponent=exponent)
    for f in dataclasses.fields(sb.CostParams):
        got, want = getattr(point, f.name), getattr(direct, f.name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        else:
            assert type(got) is type(want) and got == want
    assert base.R.tolist() == [2.0, 3.0] and base.sigma_const == 1.5


@pytest.mark.parametrize("frac, message", [
    (1e-200, r"must be finite, got sigma_floor .* from sigma_floor_frac=1e-200$"),
    (1e160, r"must be positive, got sigma_floor .* from sigma_floor_frac=1e\+160$"),
    (1e300, r"must be positive, got sigma_floor .* from sigma_floor_frac=1e\+300$"),
])
def test_sigma_floor_overflow_names_the_floor_fraction(iris, frac, message):
    with pytest.raises(CostError, match=r"^1/sigma_floor\*\*2 " + message):
        sb.params_from_summary(sb.summarize(iris), sigma_floor_frac=frac)


@pytest.mark.parametrize("frac", [math.nan, math.inf, 0.0, -0.1])
def test_sigma_floor_frac_must_be_positive_and_finite(iris, frac):
    with pytest.raises(CostError, match="sigma_floor_frac must be positive and finite"):
        sb.params_from_summary(sb.summarize(iris), sigma_floor_frac=frac)
