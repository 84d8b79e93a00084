"""Exposure computation and the two disparity measures."""
import numpy as np
import pytest

from fairltr import fairness, metrics, policy, trainer
from fairltr.fairness import SUBSET_DP_MAX_DOCS, group_rows, individual_rows
import oracle

V2 = 0.6309297535714574    # position bias at rank 2
INDIVIDUAL = fairness.DisparityConfig("individual")
GROUP = fairness.DisparityConfig("group")


def individual(merits, exposures):
    """Individual disparity of exposures under the pair rows of merits."""
    return INDIVIDUAL.from_exposures(exposures, individual_rows(np.asarray(merits)))


def group(merits, groups, exposures):
    """Group disparity of exposures under the group row of merits and groups."""
    return GROUP.from_exposures(exposures, (group_rows(merits, groups),))


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
        policy.sample_rankings(scores, policy.gumbel_noise(rng, (40000, 4))))
    np.testing.assert_allclose(mc, exact, atol=0.02)


def test_exposure_auto_switches_on_query_size():
    """Exact up to ``SUBSET_DP_MAX_DOCS`` documents, Monte-Carlo above."""
    rng = np.random.default_rng(2)
    small = fairness.exposure_of_policy(np.zeros(SUBSET_DP_MAX_DOCS), rng=rng)
    large = fairness.exposure_of_policy(np.zeros(SUBSET_DP_MAX_DOCS + 1), rng=rng)
    assert small.mode == "exact" and large.mode == "mc"


def test_individual_disparity_hand_values():
    exposures = np.array([1.0, V2])
    assert individual(np.array([1.0, 1.0]), exposures) == \
        pytest.approx((1.0 - V2) / 2.0, abs=1e-12)
    # the better document is allowed more exposure per merit than it gets
    assert individual(np.array([2.0, 1.0]), exposures) == 0.0


def test_individual_disparity_ignores_zero_merit_partners():
    exposures = np.array([1.0, V2, 0.5])
    merits = np.array([2.0, 0.0, 1.0])
    # only the (0, 2) pair qualifies: max(0, 1/2 - 0.5/1) / 1
    assert individual(merits, exposures) == \
        pytest.approx(0.0, abs=1e-12)
    merits = np.array([1.0, 0.0, 2.0])
    # only (2, 0): max(0, 0.5/2 - 1/1) -> 0; no qualifying positive pair
    assert individual(merits, exposures) == 0.0


def test_individual_disparity_no_pairs_is_zero():
    assert individual(np.array([2.0]), np.array([1.0])) == 0.0
    assert individual(np.zeros(2), np.array([1.0, V2])) == 0.0


def test_group_disparity_hand_value():
    exposures = np.array([1.0, V2])
    merits = np.array([1.1, 1.0])
    groups = np.array([0, 1])
    got = group(merits, groups, exposures)
    assert got == pytest.approx(1.0 / 1.1 - V2, abs=1e-12)
    # swap the direction: the higher-merit group is now under-exposed
    assert group(merits, groups, exposures[::-1].copy()) == 0.0


def test_group_disparity_degenerate_cases_are_zero():
    exposures = np.array([1.0, V2])
    for merits, groups in (([2.0, 1.0], [0, 0]), ([0.0, 0.0], [0, 1]),
                           # equal mean merit: tie, no preferred direction
                           ([1.0, 1.0], [0, 1])):
        assert not group_rows(np.array(merits), np.array(groups)).any()
        assert group(np.array(merits), np.array(groups), exposures) == 0.0


def test_merit_proportional_exposure_has_zero_disparity():
    """When exposure tracks merit exactly, both measures vanish."""
    merits = np.array([3.0, 2.0, 1.0])
    exposures = merits * 0.4
    groups = np.array([0, 1, 0])
    assert individual(merits, exposures) == \
        pytest.approx(0.0, abs=1e-10)
    assert group(merits, groups, exposures) == \
        pytest.approx(0.0, abs=1e-10)


def test_disparity_hinges_after_averaging_not_per_ranking():
    """A uniform policy is individually fair on equal merits even though
    every single ranking is unfair on its own."""
    scores = np.zeros(3)
    merits = np.ones(3)
    expo = fairness.exposure_of_policy(scores)
    assert individual(merits, expo.values) == \
        pytest.approx(0.0, abs=1e-12)
    orders = np.stack(list(oracle.all_rankings(3)))
    per_ranking = individual(merits, fairness.ranking_exposures(orders))
    assert np.mean(per_ranking) > 0.05


def test_ranking_pair_term_hand_value():
    ranked = fairness.ranking_exposures(np.array([0, 1]))
    pair = fairness.individual_rows(np.array([2.0, 1.0]))
    assert pair[0].tolist() == [[False, True], [False, False]]
    np.testing.assert_array_equal(pair[1], [0.5, 1.0])
    np.testing.assert_array_equal(_dense_individual_rows(pair), [[0.5, -1.0]])
    assert fairness.pair_gaps(pair, ranked)[0, 1] == pytest.approx(0.5 - V2, abs=1e-12)
    # a zero-merit partner forms no pair, so there is no row to hinge
    assert not fairness.individual_rows(np.array([2.0, 0.0]))[0].any()
    assert individual(np.array([2.0, 0.0]), ranked) == 0.0


def _dense_individual_rows(rows):
    """Pair rows as the dense (pairs x n) matrix they stand for: row (i, j),
    in the row-major order of the mask, holds ``1/m_i`` at i and ``-1/m_j``
    at j."""
    mask, inv_merit = rows
    first, second = np.nonzero(mask)
    dense = np.zeros((len(first), len(inv_merit)))
    pair = np.arange(len(first))
    dense[pair, first] = inv_merit[first]
    dense[pair, second] = -inv_merit[second]
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
        pairs = len(dense)
        assert dense.shape == (rows[0].sum(), len(merits))
        want = float(np.maximum(dense @ exposures, 0.0).mean()) if pairs else 0.0
        assert individual(merits, exposures) == pytest.approx(
            want, rel=1e-12, abs=1e-15)
        gaps = fairness.pair_gaps(rows, exposures)[rows[0]]
        np.testing.assert_allclose(gaps, dense @ exposures, rtol=1e-12, atol=1e-15)
        active = dense @ exposures > 0.0
        np.testing.assert_array_equal(gaps > 0.0, active)
        np.testing.assert_allclose(fairness.hinge_weights(rows, exposures),
                                   dense[active].sum(axis=0) / max(pairs, 1),
                                   rtol=1e-12, atol=1e-15)
        assert np.isfinite(rows[1]).all()
        np.testing.assert_array_equal(rows[1][merits == 0.0], 0.0)


def test_tied_pairs_have_a_zero_gap_and_no_gradient_weight():
    """A pair with equal merits and equal exposures is not violated: its gap
    is exactly 0, so the Monte-Carlo gradient gives it no weight."""
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(2, 31))
        merits = rng.choice([0.0, 1.0, 3.0, 7.0], size=n)
        exposures = rng.choice([1.0, V2, 0.5, 0.1], size=n) / 3.0
        rows = fairness.individual_rows(merits)
        first, second = np.nonzero(rows[0])
        tied = ((merits[first] == merits[second])
                & (exposures[first] == exposures[second]))
        assert np.all(fairness.pair_gaps(rows, exposures)[first, second][tied] == 0.0)
    # documents 0 and 1 share merit 3 and, over these two rankings, exposure;
    # every other pair is satisfied, so no row is active
    scores = np.array([0.3, -0.2, 0.1])
    rankings = np.array([[0, 1, 2], [1, 0, 2]])
    sample = policy.PolicySample(scores, rankings)
    merits = np.array([3.0, 3.0, 1.0])
    rows = fairness.individual_rows(merits)
    exposures = fairness.mc_exposure(rankings)
    assert exposures[0] == exposures[1]
    gaps = fairness.pair_gaps(rows, exposures)
    assert gaps[[0, 1], [1, 0]].tolist() == [0.0, 0.0]
    assert individual(merits, exposures) == 0.0
    assert not (gaps[rows[0]] > 0.0).any()
    weights = trainer.disparity_score_grad(sample.rankings, rows, INDIVIDUAL)
    assert weights.shape == (2,) and not weights.any()
    assert not sample.score_grad(weights).any()


def test_ranking_group_term_signs_and_errors():
    ranked = fairness.ranking_exposures(np.array([0, 1]))
    merits = np.array([2.0, 1.0])
    # group 0 has the higher mean merit, so its over-exposure is charged
    grp = fairness.group_rows(merits, np.array([0, 1]))
    np.testing.assert_array_equal(grp, [0.5, -1.0])
    assert grp @ ranked == pytest.approx(1.0 / 2.0 - V2 / 1.0, abs=1e-12)
    # orientation follows merit, not the label: swapping labels keeps the row
    np.testing.assert_array_equal(
        fairness.group_rows(merits, np.array([1, 0])), [0.5, -1.0])
    assert GROUP.from_exposures(ranked, (grp,)) == 0.0
    assert GROUP.from_exposures(np.array([2.0, 0.0]), (grp,)) == 1.0
    # a single group or a zero-merit group gives a zero row
    np.testing.assert_array_equal(fairness.group_rows(merits, np.array([0, 0])),
                                  [0.0, 0.0])
    np.testing.assert_array_equal(
        fairness.group_rows(np.array([0.0, 1.0]), np.array([0, 1])), [0.0, 0.0])


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
        assert individual(merits, exposures) == pytest.approx(
            _literal_individual(exposures, merits), abs=1e-12)
        assert group(merits, groups, exposures) == pytest.approx(
            _literal_group(exposures, merits, groups), abs=1e-12)
    # equal positive merits give the pair in both orders; degenerate shapes
    assert fairness.individual_rows(np.array([1.0, 1.0]))[0].sum() == 2
    assert fairness.individual_rows(np.array([2.0]))[0].sum() == 0
    assert fairness.individual_rows(np.zeros(3))[0].sum() == 0
    for merits, groups in [(np.array([2.0]), np.array([0])),
                           (np.zeros(3), np.array([0, 1, 0])),
                           (np.array([3.0, 1.0, 2.0]), np.array([1, 1, 1])),
                           (np.array([3.0, 0.0, 0.0]), np.array([0, 1, 1])),
                           (np.array([2.0, 1.0, 1.5, 1.5]), np.array([0, 0, 1, 1]))]:
        assert not fairness.group_rows(merits, groups).any()
    assert fairness.group_rows(np.array([2.0, 1.0]), np.array([0, 1])).all()


def test_merit_pairs_mask():
    mask, _ = fairness.individual_rows(np.array([2.0, 1.0, 1.0, 0.0]))
    ii, jj = np.nonzero(mask)
    got = set(zip(ii.tolist(), jj.tolist()))
    assert got == {(0, 1), (0, 2), (1, 2), (2, 1)}


def test_disparity_config_parse_and_dispatch():
    cfg = fairness.DisparityConfig.parse("individual", "sqrt")
    assert cfg.kind == "individual" and cfg.merit.kind == "sqrt"
    expo = np.array([1.0, V2])
    rels = np.array([1.0, 1.0])
    val = cfg.from_exposures(expo[None, None], cfg.rows(rels[None], None))
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx((1.0 - V2) / 2.0, abs=1e-12)
    grp = fairness.DisparityConfig.parse("group")
    no_labels = grp.rows(rels[None], None)        # no labels: a zero row
    assert grp.from_exposures(expo[None, None], no_labels).tolist() == [[0.0]]
    assert len(no_labels) == 1 and no_labels[0].tolist() == [[0.0, 0.0]]
    np.testing.assert_array_equal(
        _dense_individual_rows(cfg.rows(rels, None)),
        _dense_individual_rows(fairness.individual_rows(np.ones(2))))
    with pytest.raises(ValueError):
        fairness.DisparityConfig.parse("pairwise")


def test_disparity_config_rows_are_the_merit_rows_of_either_kind():
    """A config's rows are those of its merits: the group row of
    ``group_rows``, oriented by merit rather than label, and the pair rows
    of ``individual_rows``; a negative relevance has no merit."""
    rels, groups = np.array([3.0, 1.0, 2.0]), np.array([0, 1, 1])
    for merit in ("identity", "square"):
        cfg = fairness.DisparityConfig.parse("group", merit)
        (rows,) = cfg.rows(rels, groups)
        np.testing.assert_array_equal(rows, fairness.group_rows(cfg.merit(rels), groups))
    mask, inv_merit = fairness.DisparityConfig.parse("individual").rows(rels, None)
    assert np.nonzero(mask)[0].tolist() == [0, 0, 2]
    assert np.nonzero(mask)[1].tolist() == [1, 2, 1]
    np.testing.assert_array_equal(inv_merit, 1.0 / rels)
    (swapped,) = fairness.DisparityConfig.parse("group").rows(rels, 1 - groups)
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
    got = fairness.mc_exposure(orders)
    np.testing.assert_allclose(got, [(3 * 1.0 + V2) / 4, (3 * V2 + 1.0) / 4])


def test_mc_exposure_is_the_mean_of_the_ranking_exposures_bit_for_bit():
    """One scatter over a whole block adds each document's attention in
    ranking order, as the sum of its batch's ``ranking_exposures`` rows
    does; a block's rows are its batches' own."""
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 10, 30):
        for size in (1, 3, 32):
            orders = np.argsort(rng.random((4, size, n)), axis=-1)
            got = fairness.mc_exposure(orders)
            assert got.shape == (4, n)
            for batch, row in zip(orders, got):
                want = fairness.ranking_exposures(batch).sum(axis=0) / size
                assert row.tobytes() == want.tobytes()
                assert fairness.mc_exposure(batch).tobytes() == want.tobytes()


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
    """A ``(K, n)`` block of exposure vectors gives each vector's disparity
    of its own call, and of the oracle's one-query reference, to 1e-12."""
    rng = np.random.default_rng(8)
    config = fairness.DisparityConfig(kind)
    for n in (2, 5, 12):
        merits = rng.choice([0.0, 1.0, 2.5], size=n)
        groups = np.arange(n) % 2
        rows = config.rows(merits, groups)
        exposures = rng.uniform(0.0, 1.0, size=(4, n))
        got = config.from_exposures(exposures, rows)
        assert got.shape == (4,)
        for k in range(4):
            np.testing.assert_allclose(
                [got[k], config.from_exposures(exposures[k], rows)],
                oracle.query_disparity(kind, merits, groups, exposures[k]),
                rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("kind", ["individual", "group"])
def test_hinge_weights_of_a_mask_block_equal_per_mask_calls(kind):
    """The exposure gradient of a ``(K, n)`` block of exposure vectors, the
    package's for pair rows, equals each vector's own call and the oracle's
    sum of the active rows over the number of rows, to 1e-12.  (The
    gradient of a group row is the oracle's, which the package does not
    form.)"""
    rng = np.random.default_rng(31)
    for n in (2, 6, 13):
        merits = rng.choice([0.0, 1.0, 2.5, 4.0], size=n)
        rows = fairness.DisparityConfig(kind).rows(merits, np.arange(n) % 2)
        exposures = rng.uniform(0.0, 1.0, size=(5, n))
        dense = _dense_individual_rows(rows) if kind == "individual" else rows[0][None]
        for k, e in enumerate(exposures):
            active = dense @ e > 0.0
            want = dense[active].sum(axis=0) / max(len(dense), 1)
            np.testing.assert_allclose(oracle.hinge_weights(kind, rows, e), want,
                                       rtol=1e-12, atol=1e-15)
            if kind == "individual":
                weights = fairness.hinge_weights(rows, exposures)
                assert weights.shape == (5, n)
                np.testing.assert_allclose(weights[k], want, rtol=1e-12, atol=1e-15)
                assert weights[k].tobytes() == fairness.hinge_weights(rows, e).tobytes()
