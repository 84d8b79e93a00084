"""Exposure computation and the two disparity measures."""
import numpy as np
import pytest

from fairltr import fairness, metrics, policy
from fairltr.ranking import all_rankings

V2 = 0.6309297535714574    # position bias at rank 2


def test_merit_function_forms():
    rels = np.array([0.0, 1.0, 4.0])
    np.testing.assert_allclose(fairness.MeritFunction.parse("identity")(rels), rels)
    np.testing.assert_allclose(fairness.MeritFunction.parse("square")(rels),
                               [0.0, 1.0, 16.0])
    np.testing.assert_allclose(fairness.MeritFunction.parse("sqrt")(rels),
                               [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        fairness.MeritFunction.parse("cube")
    with pytest.raises(ValueError):
        fairness.MeritFunction()(np.array([-0.5]))


def test_exposure_of_ranking_is_position_bias_at_doc_positions():
    order = np.array([2, 0, 1])
    np.testing.assert_allclose(fairness.exposure_of_ranking(order),
                               [V2, 0.5, 1.0])


def test_exposure_of_policy_exact_uniform():
    expo = fairness.exposure_of_policy(np.zeros(3), mode="exact")
    np.testing.assert_allclose(expo.values, np.full(3, (1.0 + V2 + 0.5) / 3.0),
                               atol=1e-12)
    assert expo.mode == "exact"


def test_exposure_total_is_conserved():
    """Any policy hands out the same total exposure budget."""
    rng = np.random.default_rng(0)
    budget = 1.0 + V2 + 0.5 + metrics.position_bias(4)
    for _ in range(5):
        scores = rng.normal(scale=2.0, size=4)
        expo = fairness.exposure_of_policy(scores, mode="exact")
        assert expo.values.sum() == pytest.approx(budget, abs=1e-10)


def test_exposure_mc_converges_to_exact():
    rng = np.random.default_rng(1)
    scores = np.array([0.5, -0.5, 1.0, 0.0])
    exact = fairness.exposure_of_policy(scores, mode="exact").values
    mc = fairness.exposure_of_policy(scores, mode="mc", num_samples=40000,
                                     rng=rng).values
    np.testing.assert_allclose(mc, exact, atol=0.02)


def test_exposure_auto_switches_on_query_size():
    rng = np.random.default_rng(2)
    small = fairness.exposure_of_policy(np.zeros(5), rng=rng)
    large = fairness.exposure_of_policy(np.zeros(8), rng=rng)
    assert small.mode == "exact" and large.mode == "mc"


def test_individual_disparity_hand_values():
    exposures = np.array([1.0, V2])
    assert fairness.individual_disparity(exposures, np.array([1.0, 1.0])) == \
        pytest.approx((1.0 - V2) / 2.0, abs=1e-12)
    # the better document is allowed more exposure per merit than it gets
    assert fairness.individual_disparity(exposures, np.array([2.0, 1.0])) == 0.0


def test_individual_disparity_ignores_zero_merit_partners():
    exposures = np.array([1.0, V2, 0.5])
    merits = np.array([2.0, 0.0, 1.0])
    # only the (0, 2) pair qualifies: max(0, 1/2 - 0.5/1) / 1
    assert fairness.individual_disparity(exposures, merits) == \
        pytest.approx(0.0, abs=1e-12)
    merits = np.array([1.0, 0.0, 2.0])
    # only (2, 0): max(0, 0.5/2 - 1/1) -> 0; no qualifying positive pair
    assert fairness.individual_disparity(exposures, merits) == 0.0


def test_individual_disparity_no_pairs_is_zero():
    assert fairness.individual_disparity(np.array([1.0]), np.array([2.0])) == 0.0
    assert fairness.individual_disparity(np.array([1.0, V2]), np.zeros(2)) == 0.0


def test_group_disparity_hand_value():
    exposures = np.array([1.0, V2])
    merits = np.array([1.1, 1.0])
    groups = np.array([0, 1])
    got = fairness.group_disparity(exposures, merits, groups)
    assert got == pytest.approx(1.0 / 1.1 - V2, abs=1e-12)
    # swap the direction: the higher-merit group is now under-exposed
    assert fairness.group_disparity(exposures[::-1].copy(), merits, groups) == 0.0


def test_group_disparity_degenerate_cases_are_zero():
    exposures = np.array([1.0, V2])
    assert fairness.group_disparity(exposures, np.array([2.0, 1.0]),
                                    np.array([0, 0])) == 0.0
    assert fairness.group_disparity(exposures, np.array([0.0, 0.0]),
                                    np.array([0, 1])) == 0.0
    # equal mean merit: tie, no preferred direction
    assert fairness.group_disparity(exposures, np.array([1.0, 1.0]),
                                    np.array([0, 1])) == 0.0


def test_merit_proportional_exposure_has_zero_disparity():
    """When exposure tracks merit exactly, both measures vanish."""
    merits = np.array([3.0, 2.0, 1.0])
    exposures = merits * 0.4
    groups = np.array([0, 1, 0])
    assert fairness.individual_disparity(exposures, merits) == \
        pytest.approx(0.0, abs=1e-10)
    assert fairness.group_disparity(exposures, merits, groups) == \
        pytest.approx(0.0, abs=1e-10)


def test_disparity_hinges_after_averaging_not_per_ranking():
    """A uniform policy is individually fair on equal merits even though
    every single ranking is unfair on its own."""
    scores = np.zeros(3)
    merits = np.ones(3)
    expo = fairness.exposure_of_policy(scores, mode="exact")
    assert fairness.individual_disparity(expo.values, merits) == \
        pytest.approx(0.0, abs=1e-12)
    per_ranking = [fairness.individual_disparity(
        fairness.exposure_of_ranking(order), merits) for order in all_rankings(3)]
    assert np.mean(per_ranking) > 0.05


def test_ranking_pair_term_hand_value():
    ranked = fairness.exposure_of_ranking(np.array([0, 1]))
    pair = fairness.individual_rows(np.array([2.0, 1.0]))
    np.testing.assert_array_equal(pair, [[0.5, -1.0]])
    assert (pair @ ranked)[0] == pytest.approx(0.5 - V2, abs=1e-12)
    # a zero-merit partner forms no pair, so there is no row to hinge
    assert fairness.individual_rows(np.array([2.0, 0.0])).shape == (0, 2)
    assert fairness.hinge_mean(np.zeros((0, 2)), ranked) == 0.0


def test_ranking_group_term_signs_and_errors():
    ranked = fairness.exposure_of_ranking(np.array([0, 1]))
    merits = np.array([2.0, 1.0])
    # group 0 has the higher mean merit, so its over-exposure is charged
    grp = fairness.group_rows(merits, np.array([0, 1]))
    np.testing.assert_array_equal(grp, [[0.5, -1.0]])
    assert (grp @ ranked)[0] == pytest.approx(1.0 / 2.0 - V2 / 1.0, abs=1e-12)
    # orientation follows merit, not the label: swapping labels keeps the row
    np.testing.assert_array_equal(
        fairness.group_rows(merits, np.array([1, 0])), [[0.5, -1.0]])
    assert fairness.hinge_mean(grp, ranked) == 0.0
    assert fairness.hinge_mean(grp, np.array([2.0, 0.0])) == 1.0
    # the mean runs over every row, inactive ones included
    both = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert fairness.hinge_mean(both, np.array([2.0, 1.0])) == 0.5
    # a single group or a zero-merit group gives no row
    assert fairness.group_rows(merits, np.array([0, 0])).shape == (0, 2)
    assert fairness.group_rows(np.array([0.0, 1.0]), np.array([0, 1])).shape == (0, 2)


def _literal_individual(exposures, merits):
    """Mean over ordered pairs i != j with m_i >= m_j > 0 of the hinge on
    v_i / m_i - v_j / m_j, restated as a loop."""
    terms = []
    for i in range(len(merits)):
        for j in range(len(merits)):
            if i != j and merits[i] >= merits[j] > 0.0:
                terms.append(max(0.0, exposures[i] / merits[i]
                                 - exposures[j] / merits[j]))
    return float(np.mean(terms)) if terms else 0.0


def _literal_group(exposures, merits, groups):
    """Hinge on the per-merit exposure gap of the group with the higher
    mean merit over the other, restated from group totals."""
    members = [[d for d in range(len(groups)) if groups[d] == k] for k in (0, 1)]
    if not all(members):
        return 0.0
    total_merit = [sum(merits[d] for d in docs) for docs in members]
    if min(total_merit) <= 0.0:
        return 0.0
    mean_merit = [total_merit[k] / len(members[k]) for k in (0, 1)]
    if mean_merit[0] == mean_merit[1]:
        return 0.0
    high, low = (0, 1) if mean_merit[0] > mean_merit[1] else (1, 0)
    per_merit = [sum(exposures[d] for d in members[k]) / total_merit[k]
                 for k in (0, 1)]
    return max(0.0, per_merit[high] - per_merit[low])


def test_disparities_match_literal_definitions():
    rng = np.random.default_rng(9)
    cases = []
    for n in range(1, 8):
        for _ in range(20):
            merits = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], size=n) \
                * rng.uniform(0.5, 1.5, size=n) ** rng.integers(0, 2)
            cases.append((rng.uniform(0.0, 1.0, size=n), merits,
                          rng.integers(0, 2, size=n)))
    cases += [
        (np.array([0.7]), np.array([2.0]), np.array([0])),                # n=1
        (np.array([1.0, V2, 0.5]), np.zeros(3), np.array([0, 1, 0])),    # all zero
        (np.array([1.0, V2, 0.5]), np.array([3.0, 1.0, 2.0]),
         np.array([1, 1, 1])),                                            # one group
        (np.array([1.0, V2, 0.5]), np.array([3.0, 0.0, 0.0]),
         np.array([0, 1, 1])),                                            # zero-merit group
        (np.array([1.0, V2, 0.5, 0.4]), np.array([2.0, 1.0, 1.5, 1.5]),
         np.array([0, 0, 1, 1])),                                         # tied means
        (np.array([1.0, V2]), np.array([1.0, 1.0]), np.array([0, 1])),   # equal merits
    ]
    for exposures, merits, groups in cases:
        assert fairness.individual_disparity(exposures, merits) == pytest.approx(
            _literal_individual(exposures, merits), abs=1e-12)
        assert fairness.group_disparity(exposures, merits, groups) == pytest.approx(
            _literal_group(exposures, merits, groups), abs=1e-12)
    # equal positive merits give the pair in both orders; degenerate shapes
    assert fairness.individual_rows(np.array([1.0, 1.0])).shape == (2, 2)
    assert fairness.individual_rows(np.array([2.0])).shape == (0, 1)
    assert fairness.individual_rows(np.zeros(3)).shape == (0, 3)
    for merits, groups in [(np.array([2.0]), np.array([0])),
                           (np.zeros(3), np.array([0, 1, 0])),
                           (np.array([3.0, 1.0, 2.0]), np.array([1, 1, 1])),
                           (np.array([3.0, 0.0, 0.0]), np.array([0, 1, 1])),
                           (np.array([2.0, 1.0, 1.5, 1.5]), np.array([0, 0, 1, 1]))]:
        assert fairness.group_rows(merits, groups).shape == (0, len(merits))
    assert fairness.group_rows(np.array([2.0, 1.0]), np.array([0, 1])).shape == (1, 2)


def test_merit_pairs_mask():
    ii, jj = fairness.merit_pairs(np.array([2.0, 1.0, 1.0, 0.0]))
    got = set(zip(ii.tolist(), jj.tolist()))
    assert got == {(0, 1), (0, 2), (1, 2), (2, 1)}


def test_disparity_config_parse_and_dispatch():
    cfg = fairness.DisparityConfig.parse("individual", "sqrt")
    assert cfg.kind == "individual" and cfg.merit.kind == "sqrt"
    expo = np.array([1.0, V2])
    rels = np.array([1.0, 1.0])
    val = cfg.from_exposures(expo, rels, None)
    assert val == pytest.approx((1.0 - V2) / 2.0, abs=1e-12)
    grp = fairness.DisparityConfig.parse("group")
    assert grp.from_exposures(expo, rels, None) == 0.0    # no labels
    assert grp.rows(rels, None).shape == (0, 2)
    np.testing.assert_array_equal(cfg.rows(rels, None),
                                  fairness.individual_rows(np.ones(2)))
    with pytest.raises(ValueError):
        fairness.DisparityConfig.parse("pairwise")


def test_mc_exposure_counts_positions():
    orders = np.array([[0, 1], [1, 0], [0, 1], [0, 1]])
    got = fairness.mc_exposure(orders, 2)
    np.testing.assert_allclose(got, [(3 * 1.0 + V2) / 4, (3 * V2 + 1.0) / 4])


def test_policy_exposure_matches_sampled_ranking_average():
    rng = np.random.default_rng(3)
    scores = np.array([1.0, 0.0, -1.0])
    draws = policy.sample_rankings(scores, 20000, np.random.default_rng(7))
    by_hand = np.zeros(3)
    for row in draws:
        by_hand += fairness.exposure_of_ranking(row)
    by_hand /= len(draws)
    exact = fairness.exposure_of_policy(scores, mode="exact").values
    np.testing.assert_allclose(by_hand, exact, atol=0.02)
