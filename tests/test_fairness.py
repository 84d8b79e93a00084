"""Exposure computation and the two disparity measures."""
import numpy as np
import pytest

from fairltr import data, fairness, metrics, policy, trainer
from fairltr.fairness import group_rows, hinge_mean, individual_rows
from fairltr.ranking import ENUMERATION_LIMIT
import oracle

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
    np.testing.assert_allclose(fairness.ranking_exposures(order),
                               [V2, 0.5, 1.0])


def test_exposure_of_policy_exact_uniform():
    expo = fairness.exposure_of_policy(np.zeros(3))
    np.testing.assert_allclose(expo.values, np.full(3, (1.0 + V2 + 0.5) / 3.0),
                               atol=1e-12)
    assert expo.mode == "exact"


def test_exposure_total_is_conserved():
    """Any policy hands out the same total exposure budget."""
    rng = np.random.default_rng(0)
    budget = metrics.position_bias_vector(4).sum()
    for _ in range(5):
        scores = rng.normal(scale=2.0, size=4)
        expo = fairness.exposure_of_policy(scores)
        assert expo.values.sum() == pytest.approx(budget, abs=1e-10)


def test_exposure_mc_converges_to_exact():
    rng = np.random.default_rng(1)
    scores = np.array([0.5, -0.5, 1.0, 0.0])
    exact = fairness.exposure_of_policy(scores).values
    mc = fairness.mc_exposure(
        policy.sample_rankings(scores, policy.gumbel_noise(rng, (40000, 4))), 4)
    np.testing.assert_allclose(mc, exact, atol=0.02)


def test_exposure_auto_switches_on_query_size():
    """Exact up to ``ENUMERATION_LIMIT`` documents, Monte-Carlo above."""
    rng = np.random.default_rng(2)
    small = fairness.exposure_of_policy(np.zeros(ENUMERATION_LIMIT), rng=rng)
    large = fairness.exposure_of_policy(np.zeros(ENUMERATION_LIMIT + 1), rng=rng)
    assert small.mode == "exact" and large.mode == "mc"


def test_individual_disparity_hand_values():
    exposures = np.array([1.0, V2])
    assert hinge_mean(individual_rows(np.array([1.0, 1.0])), exposures) == \
        pytest.approx((1.0 - V2) / 2.0, abs=1e-12)
    # the better document is allowed more exposure per merit than it gets
    assert hinge_mean(individual_rows(np.array([2.0, 1.0])), exposures) == 0.0


def test_individual_disparity_ignores_zero_merit_partners():
    exposures = np.array([1.0, V2, 0.5])
    merits = np.array([2.0, 0.0, 1.0])
    # only the (0, 2) pair qualifies: max(0, 1/2 - 0.5/1) / 1
    assert hinge_mean(individual_rows(merits), exposures) == \
        pytest.approx(0.0, abs=1e-12)
    merits = np.array([1.0, 0.0, 2.0])
    # only (2, 0): max(0, 0.5/2 - 1/1) -> 0; no qualifying positive pair
    assert hinge_mean(individual_rows(merits), exposures) == 0.0


def test_individual_disparity_no_pairs_is_zero():
    assert hinge_mean(individual_rows(np.array([2.0])), np.array([1.0])) == 0.0
    assert hinge_mean(individual_rows(np.zeros(2)), np.array([1.0, V2])) == 0.0


def test_group_disparity_hand_value():
    exposures = np.array([1.0, V2])
    merits = np.array([1.1, 1.0])
    groups = np.array([0, 1])
    got = hinge_mean(group_rows(merits, groups), exposures)
    assert got == pytest.approx(1.0 / 1.1 - V2, abs=1e-12)
    # swap the direction: the higher-merit group is now under-exposed
    assert hinge_mean(group_rows(merits, groups), exposures[::-1].copy()) == 0.0


def test_group_disparity_degenerate_cases_are_zero():
    exposures = np.array([1.0, V2])
    for merits, groups in (([2.0, 1.0], [0, 0]), ([0.0, 0.0], [0, 1]),
                           # equal mean merit: tie, no preferred direction
                           ([1.0, 1.0], [0, 1])):
        rows = group_rows(np.array(merits), np.array(groups))
        assert hinge_mean(rows, exposures) == 0.0


def test_merit_proportional_exposure_has_zero_disparity():
    """When exposure tracks merit exactly, both measures vanish."""
    merits = np.array([3.0, 2.0, 1.0])
    exposures = merits * 0.4
    groups = np.array([0, 1, 0])
    assert hinge_mean(individual_rows(merits), exposures) == \
        pytest.approx(0.0, abs=1e-10)
    assert hinge_mean(group_rows(merits, groups), exposures) == \
        pytest.approx(0.0, abs=1e-10)


def test_disparity_hinges_after_averaging_not_per_ranking():
    """A uniform policy is individually fair on equal merits even though
    every single ranking is unfair on its own."""
    scores = np.zeros(3)
    merits = np.ones(3)
    expo = fairness.exposure_of_policy(scores)
    assert hinge_mean(individual_rows(merits), expo.values) == \
        pytest.approx(0.0, abs=1e-12)
    orders = np.stack(list(oracle.all_rankings(3)))
    per_ranking = hinge_mean(individual_rows(merits),
                             fairness.ranking_exposures(orders))
    assert np.mean(per_ranking) > 0.05


def test_ranking_pair_term_hand_value():
    ranked = fairness.ranking_exposures(np.array([0, 1]))
    pair = fairness.individual_rows(np.array([2.0, 1.0]))
    assert (pair.first.tolist(), pair.second.tolist()) == ([0], [1])
    np.testing.assert_array_equal(pair.inv_merit, [0.5, 1.0])
    np.testing.assert_array_equal(_dense_individual_rows(pair), [[0.5, -1.0]])
    assert fairness.hinge_gaps(pair, ranked)[0] == pytest.approx(0.5 - V2, abs=1e-12)
    # a zero-merit partner forms no pair, so there is no row to hinge
    assert len(fairness.individual_rows(np.array([2.0, 0.0]))) == 0
    assert fairness.hinge_mean(np.zeros((0, 2)), ranked) == 0.0


def _dense_individual_rows(rows):
    """Pair-form rows as the dense (pairs x n) matrix they stand for: row
    (i, j) holds ``1/m_i`` at i and ``-1/m_j`` at j."""
    dense = np.zeros((len(rows), len(rows.inv_merit)))
    pair = np.arange(len(rows))
    dense[pair, rows.first] = rows.inv_merit[rows.first]
    dense[pair, rows.second] = -rows.inv_merit[rows.second]
    return dense


def test_pair_form_matches_dense_rows():
    """Value and gradient weights of the pair form equal those of the dense
    rows up to rounding, on random inputs and degenerate merits."""
    rng = np.random.default_rng(12)
    cases = [(rng.uniform(0.0, 1.0, size=n),
              rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], size=n)
              * rng.uniform(0.5, 1.5, size=n))
             for n in (2, 3, 5, 10, 30) for _ in range(20)]
    cases += [
        (np.array([0.7]), np.array([2.0])),                                # n=1
        (rng.uniform(0.0, 1.0, size=6), np.zeros(6)),                      # no pairs
        (rng.uniform(0.0, 1.0, size=6), np.array([0.0, 2.0, 0.0, 1.0, 0.0, 3.0])),
        (rng.uniform(0.0, 1.0, size=8), np.full(8, 1.5)),                  # all equal
    ]
    for exposures, merits in cases:
        rows = fairness.individual_rows(merits)
        dense = _dense_individual_rows(rows)
        assert dense.shape == (len(rows), len(merits))
        want = float(np.maximum(dense @ exposures, 0.0).mean()) if len(rows) else 0.0
        assert hinge_mean(rows, exposures) == pytest.approx(
            want, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(fairness.hinge_gaps(rows, exposures),
                                   dense @ exposures, rtol=1e-12, atol=1e-15)
        if len(rows):
            active = dense @ exposures > 0.0
            np.testing.assert_array_equal(fairness.hinge_gaps(rows, exposures) > 0.0,
                                          active)
            np.testing.assert_allclose(fairness.hinge_weights(rows, active),
                                       dense[active].sum(axis=0) / len(rows),
                                       rtol=1e-12, atol=1e-15)
        assert np.isfinite(rows.inv_merit).all()
        np.testing.assert_array_equal(rows.inv_merit[merits == 0.0], 0.0)


def test_tied_pairs_have_a_zero_gap_and_no_gradient_weight():
    """A pair with equal merits and equal exposures is not violated: its gap
    is exactly 0, so the Monte-Carlo gradient gives it no weight."""
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(2, 31))
        merits = rng.choice([0.0, 1.0, 3.0, 7.0], size=n)
        exposures = rng.choice([1.0, V2, 0.5, 0.1], size=n) / 3.0
        rows = fairness.individual_rows(merits)
        tied = ((merits[rows.first] == merits[rows.second])
                & (exposures[rows.first] == exposures[rows.second]))
        assert np.all(fairness.hinge_gaps(rows, exposures)[tied] == 0.0)
    # documents 0 and 1 share merit 3 and, over these two rankings, exposure;
    # every other pair is satisfied, so no row is active
    scores = np.array([0.3, -0.2, 0.1])
    rankings = np.array([[0, 1, 2], [1, 0, 2]])
    sample = policy.PolicySample(scores, rankings)
    rows = fairness.individual_rows(np.array([3.0, 3.0, 1.0]))
    exposures = fairness.mc_exposure(rankings, 3)
    assert exposures[0] == exposures[1]
    tied = (rows.first < 2) & (rows.second < 2)
    assert fairness.hinge_gaps(rows, exposures)[tied].tolist() == [0.0, 0.0]
    assert fairness.hinge_mean(rows, exposures) == 0.0
    assert not (fairness.hinge_gaps(rows, exposures) > 0.0).any()
    weights = trainer.hinge_sample_weights(sample.rankings, rows)
    assert weights.shape == (2,) and not weights.any()
    assert not sample.score_grad(weights).any()


def test_ranking_group_term_signs_and_errors():
    ranked = fairness.ranking_exposures(np.array([0, 1]))
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
        assert hinge_mean(individual_rows(merits), exposures) == pytest.approx(
            _literal_individual(exposures, merits), abs=1e-12)
        assert hinge_mean(group_rows(merits, groups), exposures) == pytest.approx(
            _literal_group(exposures, merits, groups), abs=1e-12)
    # equal positive merits give the pair in both orders; degenerate shapes
    assert len(fairness.individual_rows(np.array([1.0, 1.0]))) == 2
    assert len(fairness.individual_rows(np.array([2.0]))) == 0
    assert len(fairness.individual_rows(np.zeros(3))) == 0
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
    query = data.Query("q", np.zeros((2, 1)), rels)
    val = cfg.from_exposures(expo[None, None], [query])
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx((1.0 - V2) / 2.0, abs=1e-12)
    grp = fairness.DisparityConfig.parse("group")
    assert grp.from_exposures(expo[None, None], [query]).tolist() == [[0.0]]  # no labels
    assert grp.rows(rels, None).shape == (0, 2)
    np.testing.assert_array_equal(
        _dense_individual_rows(cfg.rows(rels, None)),
        _dense_individual_rows(fairness.individual_rows(np.ones(2))))
    with pytest.raises(ValueError):
        fairness.DisparityConfig.parse("pairwise")


def test_group_rows_are_kept_with_each_query_and_read_only():
    rels, groups = np.array([3.0, 1.0, 2.0]), np.array([0, 1, 1])

    def make_query():
        return data.Query("q", np.zeros((3, 1)), rels, groups)

    query = make_query()
    for merit in ("identity", "square"):
        cfg = fairness.DisparityConfig.parse("group", merit)
        rows = cfg.query_rows(query)
        np.testing.assert_array_equal(rows, cfg.rows(rels, groups))
        np.testing.assert_array_equal(
            rows, fairness.group_rows(cfg.merit(rels), groups))
        assert cfg.query_rows(query) is rows
        assert not rows.flags.writeable
    twin = make_query()
    assert cfg.query_rows(twin) is not cfg.query_rows(query)
    individual = fairness.DisparityConfig.parse("individual")
    pairs = individual.query_rows(query)
    assert individual.query_rows(query) is pairs
    assert (pairs.first.tolist(), pairs.second.tolist()) == ([0, 0, 2], [1, 2, 1])
    for values in (pairs.first, pairs.second, pairs.inv_merit):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0
    swapped = fairness.DisparityConfig.parse("group").rows(rels, 1 - groups)
    np.testing.assert_array_equal(swapped, fairness.group_rows(rels, 1 - groups))
    with pytest.raises(ValueError, match="non-negative"):
        fairness.DisparityConfig.parse("group").rows(-rels, groups)


def test_exposure_of_a_score_block_equals_one_call_per_row():
    """A Monte-Carlo ``(Q, n)`` block is one sampler call whose
    estimates and generator state are those of Q calls on the rows, and a
    ``(K, Q, n)`` block of members gives each member's block.  An exact
    block of either shape is one subset DP with the bits of a call per
    row."""
    scores = np.random.default_rng(4).normal(size=(5, 9))
    block_rng, row_rng = np.random.default_rng(8), np.random.default_rng(8)
    block = fairness.exposure_of_policy(scores, num_samples=11, rng=block_rng)
    rows = [fairness.exposure_of_policy(s, num_samples=11, rng=row_rng).values
            for s in scores]
    assert block.mode == "mc" and block.values.shape == (5, 9)
    np.testing.assert_array_equal(block.values, np.array(rows))
    assert block_rng.random() == row_rng.random()
    # A (K, Q, n) block of members shares one draw: member k's values are
    # its (Q, n) block's with the generator in the same state.
    members = np.stack([scores, -scores, 2.0 * scores])
    member_rng = np.random.default_rng(8)
    shared = fairness.exposure_of_policy(members, num_samples=11, rng=member_rng)
    assert shared.values.shape == (3, 5, 9)
    for k, member in enumerate(members):
        alone_rng = np.random.default_rng(8)
        alone = fairness.exposure_of_policy(member, num_samples=11, rng=alone_rng)
        assert shared.values[k].tobytes() == alone.values.tobytes()
        assert member_rng.bit_generator.state == alone_rng.bit_generator.state
    np.testing.assert_array_equal(shared.values[0], block.values)
    for exact in (scores[:, :4], members[..., :4]):
        got = fairness.exposure_of_policy(exact)
        rows = [fairness.exposure_of_policy(s).values
                for s in exact.reshape(-1, 4)]
        assert got.mode == "exact" and got.values.shape == exact.shape
        assert got.values.tobytes() == np.array(rows).tobytes()


def test_mc_exposure_counts_positions():
    orders = np.array([[0, 1], [1, 0], [0, 1], [0, 1]])
    got = fairness.mc_exposure(orders, 2)
    np.testing.assert_allclose(got, [(3 * 1.0 + V2) / 4, (3 * V2 + 1.0) / 4])


def test_mc_exposure_is_the_mean_of_the_ranking_exposures_bit_for_bit():
    """One scatter over a whole block adds each document's attention in
    ranking order, as the sum of its batch's ``ranking_exposures`` rows
    does; a block's rows are its batches' own."""
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 10, 30):
        for size in (1, 3, 32):
            orders = np.argsort(rng.random((4, size, n)), axis=-1)
            got = fairness.mc_exposure(orders, n)
            assert got.shape == (4, n)
            for batch, row in zip(orders, got):
                want = fairness.ranking_exposures(batch).sum(axis=0) / size
                assert row.tobytes() == want.tobytes()
                assert fairness.mc_exposure(batch, n).tobytes() == want.tobytes()


def test_policy_exposure_matches_sampled_ranking_average():
    rng = np.random.default_rng(3)
    scores = np.array([1.0, 0.0, -1.0])
    draws = policy.sample_rankings(
        scores, policy.gumbel_noise(np.random.default_rng(7), (20000, 3)))
    by_hand = np.zeros(3)
    for row in draws:
        by_hand += fairness.ranking_exposures(row)
    by_hand /= len(draws)
    exact = fairness.exposure_of_policy(scores).values
    np.testing.assert_allclose(by_hand, exact, atol=0.02)


@pytest.mark.parametrize("kind", ["individual", "group"])
def test_hinge_rows_on_a_block_of_exposures_equal_each_row(kind):
    """A ``(K, n)`` block of exposure vectors gives each vector's gaps and
    weights with the bits of its own call (the weights of dense rows are
    the oracle's, which the package does not form)."""
    rng = np.random.default_rng(8)
    for n in (2, 5, 12):
        merits = rng.choice([0.0, 1.0, 2.5], size=n)
        groups = np.arange(n) % 2
        rows = fairness.DisparityConfig(kind).rows(merits, groups)
        if not len(rows):
            continue
        exposures = rng.uniform(0.0, 1.0, size=(4, n))
        gaps = fairness.hinge_gaps(rows, exposures)
        active = gaps > 0.0
        weights = oracle.hinge_weights(rows, active)
        assert gaps.shape == (4, len(rows)) and weights.shape == (4, n)
        for k in range(4):
            assert gaps[k].tobytes() == fairness.hinge_gaps(rows, exposures[k]).tobytes()
            assert weights[k].tobytes() == \
                oracle.hinge_weights(rows, active[k]).tobytes()


@pytest.mark.parametrize("kind", ["individual", "group"])
def test_hinge_weights_of_a_mask_block_equal_per_mask_calls(kind):
    """Weights of a ``(K, rows)`` mask block, taken without a loop over the
    masks, equal one call per mask, and each call equals the sum of its
    active rows over the number of rows; so do a block's disparities.  (The
    weights of dense group rows are the oracle's, which the package does
    not form.)"""
    rng = np.random.default_rng(31)
    for n in (2, 6, 13):
        merits = rng.choice([0.0, 1.0, 2.5, 4.0], size=n)
        rows = fairness.DisparityConfig(kind).rows(merits, np.arange(n) % 2)
        if not len(rows):
            continue
        active = rng.random((5, len(rows))) < 0.5
        active[0], active[1] = False, True
        weights = oracle.hinge_weights(rows, active)
        assert weights.shape == (5, n)
        dense = _dense_individual_rows(rows) if kind == "individual" else rows
        for k, mask in enumerate(active):
            alone = oracle.hinge_weights(rows, mask)
            assert np.array_equal(weights[k], alone)
            if kind == "individual":
                counts = (np.bincount(rows.first[mask], minlength=n)
                          - np.bincount(rows.second[mask], minlength=n))
                assert np.array_equal(alone, rows.inv_merit * counts / len(rows))
            else:
                assert np.array_equal(alone, dense[mask].sum(axis=0) / len(rows))
        exposures = rng.uniform(0.0, 1.0, size=(5, n))
        means = fairness.hinge_mean(rows, exposures)
        assert means.shape == (5,)
        assert means.tolist() == [fairness.hinge_mean(rows, e) for e in exposures]
