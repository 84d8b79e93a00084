"""Policy-gradient training loop: estimators, determinism, behaviors."""
import copy
import dataclasses
import json

import numpy as np
import pytest

from fairltr import baselines, data, fairness, metrics, policy, trainer
from fairltr.fairness import SUBSET_DP_MAX_DOCS
import oracle


def small_dataset(seed=0, queries=12, docs=5):
    return data.generate_simulated(num_queries=queries, docs_per_query=docs,
                                   seed=seed)


def base_config(**overrides):
    defaults = dict(lam=0.0, gamma=0.0, sample_size=8, learning_rate=0.001,
                    optimizer="adam", epochs=3,
                    metric=metrics.UtilityMetric.parse("ndcg@10"),
                    disparity=None, model="linear", seed=0, patience=0,
                    eval_samples=16)
    defaults.update(overrides)
    return trainer.TrainConfig(**defaults)


def test_config_requires_disparity_when_penalized():
    with pytest.raises(ValueError):
        base_config(lam=1.0)
    base_config(lam=1.0, disparity=fairness.DisparityConfig.parse("group"))


@pytest.mark.parametrize("field", ["lam", "gamma", "learning_rate"])
def test_config_refuses_a_negative_weight_or_rate(field):
    group = fairness.DisparityConfig.parse("group")
    with pytest.raises(ValueError, match=field):
        base_config(disparity=group, **{field: -1.0})
    base_config(disparity=group, **{field: 0.0})


def test_a_negative_seed_is_refused_before_any_work():
    ds = data.generate_simulated(num_queries=4, docs_per_query=3, seed=0)
    model = policy.LinearModel(np.zeros(ds.feature_dim))
    for start in (lambda: trainer.TrainConfig(seed=-1),
                  lambda: trainer.evaluate(model, ds, metrics.UtilityMetric("ndcg"),
                                           seed=-1)):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            start()


def test_config_echo_round_trips_core_fields():
    """The echo of a config with every field away from its default: one
    key per field under its record name, the merit beside the disparity,
    the metric, disparity and merit as text, and a JSON round trip."""
    cfg = trainer.TrainConfig(
        lam=2.5, gamma=0.5, sample_size=7, learning_rate=0.02, optimizer="sgd",
        epochs=3, metric=metrics.UtilityMetric.parse("dcg@5"),
        disparity=fairness.DisparityConfig.parse("group", "sqrt"), model="mlp1",
        hidden_units=8, use_baseline=False, seed=9, patience=0, eval_samples=11)
    default = trainer.TrainConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(cfg))
    echo = cfg.echo()
    assert echo == {
        "lambda": 2.5, "gamma": 0.5, "samples": 7, "lr": 0.02, "optimizer": "sgd",
        "epochs": 3, "metric": "dcg@5", "disparity": "group", "merit": "sqrt",
        "model": "mlp1", "hidden_units": 8, "use_baseline": False, "seed": 9,
        "patience": 0, "eval_samples": 11}
    assert json.loads(json.dumps(echo)) == echo
    unfair = default.echo()
    assert (unfair["disparity"], unfair["merit"]) == ("none", "none")


def test_utility_gradient_is_unbiased_against_enumeration():
    """Monte-Carlo utility gradients on raw scores agree with the exact
    policy expectation within sampling error."""
    rng = np.random.default_rng(0)
    metric = metrics.UtilityMetric("ndcg")
    for trial in range(3):
        scores = rng.normal(size=4)
        rels = rng.integers(0, 4, size=4).astype(float)
        if rels.max() == 0:
            rels[0] = 1.0
        exact = oracle.enumerate_policy_expectations(scores, rels, metric=metric)
        draws = 40000
        sample = policy.draw_policy_sample(scores, draws, rng)
        rewards = metric.batch_rewards(sample.rankings, metric.constants(rels))
        est = sample.score_grad(trainer.utility_weights(rewards, use_baseline=True))
        rows = oracle.logprob_grad_rows(scores, sample.rankings)
        centered = (rewards - rewards.mean())[:, None] * rows
        se = centered.std(axis=0) / np.sqrt(draws)
        assert np.all(np.abs(est - exact.utility_grad) <= 4.0 * se + 1e-12)


def test_baseline_subtraction_preserves_expectation():
    rng = np.random.default_rng(1)
    scores = np.array([0.4, -0.2, 0.9])
    rels = np.array([2.0, 0.0, 1.0])
    metric = metrics.UtilityMetric("dcg")
    exact = oracle.enumerate_policy_expectations(scores, rels, metric=metric)
    draws = 50000
    sample = policy.draw_policy_sample(scores, draws, rng)
    rewards = metric.batch_rewards(sample.rankings, metric.constants(rels))
    with_b = sample.score_grad(trainer.utility_weights(rewards, use_baseline=True))
    without = sample.score_grad(trainer.utility_weights(rewards, use_baseline=False))
    rows = oracle.logprob_grad_rows(scores, sample.rankings)
    spread = rewards.std() * np.abs(rows).max() / np.sqrt(draws)
    tol = max(6.0 * spread, 1e-3)
    assert np.all(np.abs(with_b - exact.utility_grad) <= tol)
    assert np.all(np.abs(without - exact.utility_grad) <= tol)


def test_group_disparity_gradient_is_unbiased():
    scores = np.array([1.02, -1.055, 0.239])
    rels = np.array([1.61, 1.47, 1.741])
    groups = np.array([0, 1, 1])
    merit = fairness.MeritFunction()
    exact = oracle.enumerate_policy_expectations(
        scores, rels, merits=merit(rels), groups=groups)
    assert exact.group_disparity > 0.0     # indicator active at this point
    rng = np.random.default_rng(2)
    draws = 50000
    sample = policy.draw_policy_sample(scores, draws, rng)
    est = sample.score_grad(trainer.disparity_score_grad(
        sample.rankings, (fairness.group_rows(merit(rels), groups),),
        fairness.DisparityConfig("group")))
    assert np.all(np.abs(est - exact.group_grad) <= 0.02)


def test_individual_disparity_gradient_is_unbiased():
    scores = np.array([0.2, -0.1, 0.5])
    rels = np.array([2.0, 1.0, 2.0])
    merit = fairness.MeritFunction()
    exact = oracle.enumerate_policy_expectations(scores, rels, merits=merit(rels))
    assert exact.individual_disparity > 0.0
    rng = np.random.default_rng(3)
    sample = policy.draw_policy_sample(scores, 50000, rng)
    est = sample.score_grad(trainer.disparity_score_grad(
        sample.rankings, fairness.individual_rows(merit(rels)),
        fairness.DisparityConfig("individual")))
    assert np.all(np.abs(est - exact.individual_grad) <= 0.02)


def test_train_is_deterministic_per_seed():
    ds = small_dataset()
    tr, va = data.split_dataset(ds, 0.8, seed=0)
    cfg = base_config(lam=1.0, disparity=fairness.DisparityConfig.parse("group"),
                      gamma=0.5)
    rec1 = trainer.train(tr, va, cfg)
    rec2 = trainer.train(tr, va, cfg)
    assert rec1.to_json_dict() == rec2.to_json_dict()
    assert oracle.models_equal(rec1.model, rec2.model)
    rec3 = trainer.train(tr, va, base_config(
        lam=1.0, disparity=fairness.DisparityConfig.parse("group"),
        gamma=0.5, seed=1))
    assert rec3.to_json_dict() != rec1.to_json_dict()


def without_groups(ds):
    return oracle.dataset_of([(q.qid, q.feature_matrix, q.relevances)
                         for q in ds])


def test_unpenalized_training_ignores_group_labels():
    """With lam = 0 the updates never look at groups, so stripping the
    labels leaves the learned model bit-identical."""
    ds = small_dataset(seed=5)
    bare = without_groups(ds)
    cfg = base_config(lam=0.0, gamma=0.0,
                      disparity=fairness.DisparityConfig.parse("individual"))
    tr1, va1 = data.split_dataset(ds, 0.8, seed=0)
    tr2, va2 = data.split_dataset(bare, 0.8, seed=0)
    rec_a = trainer.train(tr1, va1, cfg)
    rec_b = trainer.train(tr2, va2, base_config(
        lam=0.0, gamma=0.0, disparity=None))
    assert oracle.models_equal(rec_a.model, rec_b.model)


def test_zero_learning_rate_keeps_model_at_init():
    ds = small_dataset(seed=6)
    tr, va = data.split_dataset(ds, 0.8, seed=0)
    cfg = base_config(learning_rate=0.0, epochs=2)
    rec = trainer.train(tr, va, cfg)
    rng = np.random.SeedSequence(cfg.seed).spawn(4)[0]
    init = policy.init_model("linear", ds.feature_dim,
                             np.random.default_rng(rng))
    assert oracle.models_equal(rec.model, init)


def test_entropy_bonus_pulls_scores_together():
    """On one two-doc query with a fixed feature gap, a pure-entropy
    objective shrinks the score gap; a pure-utility one widens it."""
    text = "3 qid:1 1:1\n0 qid:1 1:-1\n"
    ds = data.parse_letor(text)
    q = ds[0]

    def gap_after(gamma, lam_metric):
        cfg = base_config(gamma=gamma, epochs=8, learning_rate=0.05,
                          sample_size=32, optimizer="sgd",
                          metric=metrics.UtilityMetric.parse(lam_metric))
        rec = trainer.train(ds, ds, cfg)
        s = rec.model.scores(q.feature_matrix)
        return s[0] - s[1]

    rng0 = np.random.default_rng(np.random.SeedSequence(0).spawn(4)[0])
    init = policy.init_model("linear", 1, rng0)
    s0 = init.scores(q.feature_matrix)
    gap0 = float(s0[0] - s0[1])
    widened = gap_after(0.0, "ndcg")
    assert widened > abs(gap0)
    # entropy-only: drive scores toward uniform, gap shrinks toward zero
    cfg = base_config(gamma=5.0, epochs=8, learning_rate=0.05, sample_size=32,
                      optimizer="sgd")
    rec = trainer.train(ds, ds, cfg)
    s = rec.model.scores(q.feature_matrix)
    assert abs(s[0] - s[1]) < widened


def test_penalty_reduces_disparity_on_training_split():
    ds = small_dataset(seed=7, queries=30, docs=6)
    tr, va = data.split_dataset(ds, 0.8, seed=0)
    grp = fairness.DisparityConfig.parse("group")
    free = trainer.train(tr, va, base_config(
        lam=0.0, disparity=grp, epochs=10, learning_rate=0.01, seed=0))
    tight = trainer.train(tr, va, base_config(
        lam=25.0, disparity=grp, epochs=10, learning_rate=0.01, seed=0))
    assert tight.delta_lambda <= free.delta_lambda + 1e-9


def test_training_error_on_nonfinite_scores():
    bad = oracle.dataset_of([("broken", [[1.0], [0.0]], [1.0, 0.0])])
    # The constructor refuses a NaN feature; one set afterwards stands for
    # features whose scores overflow.
    bad.features.flags.writeable = True
    bad.features[0, 0] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(trainer.TrainingError, match="broken"):
            trainer.train(bad, bad, base_config(epochs=1))


def test_evaluate_summarizes_per_query():
    ds = small_dataset(seed=8)
    model = policy.init_model("linear", ds.feature_dim,
                              np.random.default_rng(0))
    out = trainer.evaluate(model, ds, metrics.UtilityMetric("ndcg", 10),
                           fairness.DisparityConfig.parse("group"),
                           eval_samples=16, seed=0)
    assert len(out.metric_values) == len(ds)
    assert len(out.disparity_values) == len(ds)
    assert out.mean_metric == pytest.approx(np.mean(out.metric_values))
    assert out.mean_disparity == pytest.approx(np.mean(out.disparity_values))
    again = trainer.evaluate(model, ds, metrics.UtilityMetric("ndcg", 10),
                             fairness.DisparityConfig.parse("group"),
                             eval_samples=16, seed=0)
    assert np.array_equal(out.disparity_values, again.disparity_values)


def ragged_split(sizes=(1, 5, 10, 10, 3, 12, 10, 8), seed=21):
    """Queries of mixed sizes in a fixed order, group 0 holding each query's
    most relevant documents; the second query is one-group and the sixth
    has all-zero relevance."""
    rng = np.random.default_rng(seed)
    queries = []
    for qi, n in enumerate(sizes):
        rels = rng.integers(2, 5, size=n).astype(float)
        groups = (rels < rels.max()).astype(int)
        if qi == 1:
            groups[:] = 0
        if qi == 5:
            rels[:] = 0.0
        # Scores that favour group 0 and relevance make the policy unfair.
        features = [np.array([g == 0, rel, 0.0]) + rng.normal(size=3)
                    for rel, g in zip(rels, groups)]
        queries.append((f"q{qi}", features, rels, groups))
    return oracle.dataset_of(queries)


def per_query_evaluation(model, dataset, metric, disparity, eval_samples, rng):
    """Reference: the evaluation loop before the block pass, one query at a
    time, each with its own exposure estimate."""
    metric_values, disparity_values = [], []
    for query in dataset:
        scores = model.scores(query.feature_matrix)
        metric_values.append(metric.value(policy.argmax_ranking(scores),
                                          query.relevances))
        exposures = fairness.exposure_of_policy(scores, num_samples=eval_samples,
                                                rng=rng)
        disparity_values.append(float(disparity.from_exposures(
            exposures.values, disparity.rows(query.relevances, query.groups))))
    return metric_values, disparity_values


@pytest.mark.parametrize("kind", ["group", "individual"])
def test_block_evaluation_matches_per_query_reference_on_a_ragged_split(kind):
    """Runs of consecutive equal-size queries share one Monte-Carlo block;
    every value and the generator's state after the pass are those of the
    per-query loop, bit for bit."""
    ds = ragged_split()
    model = policy.LinearModel(np.array([2.0, 1.0, 0.3]))
    disparity = fairness.DisparityConfig.parse(kind)
    ndcg5, err = metrics.UtilityMetric.parse("ndcg@5"), metrics.UtilityMetric("err")
    block_rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
    (got,) = trainer._evaluate(model, ds, ndcg5, disparity, 16, block_rng,
                               extra_metrics=[err])
    want_ndcg, want_disparity = per_query_evaluation(model, ds, ndcg5, disparity,
                                                     16, reference_rng)
    want_err = [err.value(policy.argmax_ranking(model.scores(q.feature_matrix)),
                          q.relevances) for q in ds]
    assert got.metric_values == want_ndcg
    assert got.extra_values == [want_err]
    assert got.disparity_values == want_disparity
    assert block_rng.random() == reference_rng.random()
    assert got.mean_metric == float(np.mean(want_ndcg))
    assert got.extra_means == [float(np.mean(want_err))]
    assert got.mean_disparity == float(np.mean(want_disparity))
    assert got.metric_values[5] == got.extra_values[0][5] == 0.0
    assert min(got.disparity_values) >= 0.0 and max(got.disparity_values) > 0.0


def test_long_runs_are_cut_into_blocks_in_query_order(monkeypatch):
    """With blocks of at most two queries' draws, a run of five equal-size
    queries takes three Monte-Carlo calls, each for both members of a block,
    and the pass still equals each member's per-query loop bit for bit.  The
    exact query of three documents is one call for both members."""
    calls = []

    def counted(scores, *args, **kwargs):
        calls.append(np.shape(scores))
        return fairness.exposure_of_policy(scores, *args, **kwargs)

    monkeypatch.setattr(trainer, "EVAL_BLOCK_DRAWS", 2 * 16 * 10)
    monkeypatch.setattr(trainer, "exposure_of_policy", counted)
    ds = ragged_split(sizes=(10, 10, 10, 10, 10, 9, 3))
    block = policy.LinearModel(np.array([[2.0, 1.0, 0.3], [-1.0, 0.5, 2.0]]))
    disparity = fairness.DisparityConfig.parse("group")
    metric = metrics.UtilityMetric("ndcg")
    block_rng = np.random.default_rng(5)
    got = trainer._evaluate(block, ds, metric, disparity, 16, block_rng)
    assert calls == [(2, 2, 10), (2, 2, 10), (2, 1, 10), (2, 1, 9), (2, 1, 3)]
    assert all(np.prod(shape[1:]) * 16 <= trainer.EVAL_BLOCK_DRAWS
               for shape in calls if len(shape) == 3)
    for k, summary in enumerate(got):
        reference_rng = np.random.default_rng(5)
        want_metric, want_disparity = per_query_evaluation(
            block.with_params(block.params[k]), ds, metric, disparity, 16,
            reference_rng)
        assert summary.metric_values == want_metric
        assert summary.disparity_values == want_disparity
    assert block_rng.random() == reference_rng.random()


def test_exact_runs_are_cut_by_their_subset_rows(monkeypatch):
    """An exact query counts its ``2**n`` subset rows of ``n`` flows where a
    Monte-Carlo one counts its draws: with room for two five-document
    queries, a run of five takes three calls.  The pass draws nothing and
    equals each member's per-query loop bit for bit."""
    calls = []

    def counted(scores, *args, **kwargs):
        calls.append(np.shape(scores))
        return fairness.exposure_of_policy(scores, *args, **kwargs)

    monkeypatch.setattr(trainer, "EVAL_BLOCK_DRAWS", 2 * 2 ** 5 * 5 + 1)
    monkeypatch.setattr(trainer, "exposure_of_policy", counted)
    ds = ragged_split(sizes=(5, 5, 5, 5, 5, 3))
    block = policy.LinearModel(np.array([[2.0, 1.0, 0.3], [-1.0, 0.5, 2.0]]))
    disparity = fairness.DisparityConfig.parse("individual")
    metric = metrics.UtilityMetric("ndcg")
    block_rng = np.random.default_rng(5)
    got = trainer._evaluate(block, ds, metric, disparity, 16, block_rng)
    assert calls == [(2, 2, 5), (2, 2, 5), (2, 1, 5), (2, 1, 3)]
    for k, summary in enumerate(got):
        want_metric, want_disparity = per_query_evaluation(
            block.with_params(block.params[k]), ds, metric, disparity, 16, None)
        assert summary.metric_values == want_metric
        assert summary.disparity_values == want_disparity
    assert block_rng.random() == np.random.default_rng(5).random()


@pytest.mark.parametrize("model,kind", [("linear", "group"), ("linear", "individual"),
                                        ("mlp1", "group"), ("mlp1", "individual")])
def test_block_evaluation_of_a_grid_equals_each_member_per_query(model, kind):
    """A ``(K, P)`` block of K = 3 members is one pass: every member's values
    equal its own per-query loop with ``==``, on a split with queries of at
    most ``SUBSET_DP_MAX_DOCS`` documents (exact, one vector per call), a
    query without a group row and an all-zero-relevance query (NDCG 0), and
    the generator ends where each member's loop ends."""
    ds = ragged_split()
    rng = np.random.default_rng(40)
    single = policy.init_model(model, ds.feature_dim, rng, hidden_units=5)
    block = single.with_params(single.params
                               + rng.normal(size=(3, single.params.size)))
    disparity = fairness.DisparityConfig.parse(kind)
    ndcg5, err = metrics.UtilityMetric.parse("ndcg@5"), metrics.UtilityMetric("err")
    assert min(map(len, ds)) <= SUBSET_DP_MAX_DOCS < max(map(len, ds))
    degenerate = ds[1 if kind == "group" else 5]
    assert not disparity.rows(degenerate.relevances, degenerate.groups)[0].any()
    block_rng = np.random.default_rng(3)
    got = trainer._evaluate(block, ds, ndcg5, disparity, 16, block_rng,
                            extra_metrics=[err])
    assert len(got) == 3
    for k, summary in enumerate(got):
        member = block.with_params(block.params[k])
        reference_rng = np.random.default_rng(3)
        want_ndcg, want_disparity = per_query_evaluation(member, ds, ndcg5, disparity,
                                                         16, reference_rng)
        want_err = [err.value(policy.argmax_ranking(member.scores(q.feature_matrix)),
                              q.relevances) for q in ds]
        assert summary.metric_values == want_ndcg
        assert summary.extra_values == [want_err]
        assert summary.disparity_values == want_disparity
        assert summary.mean_metric == float(np.mean(want_ndcg))
        assert summary.extra_means == [float(np.mean(want_err))]
        assert summary.mean_disparity == float(np.mean(want_disparity))
        assert summary.metric_values[5] == 0.0
        assert block_rng.bit_generator.state == reference_rng.bit_generator.state
    assert len({tuple(s.metric_values + s.disparity_values) for s in got}) == 3
    (alone,) = trainer._evaluate(block.with_params(block.params[1]), ds, ndcg5,
                                 disparity, 16, np.random.default_rng(3),
                                 extra_metrics=[err])
    assert alone == got[1]


def test_the_exact_or_sampled_rule_has_one_owner(monkeypatch):
    """``fairness.SUBSET_DP_MAX_DOCS`` alone decides where policy exposure
    is exact and how an evaluation pass cuts its blocks: lowered to 5, the
    exposure of 6 documents turns Monte-Carlo, and ``_evaluate`` cuts a run
    of 6-document queries by ``eval_samples`` rows per query, not 2**6."""
    ds = small_dataset(seed=9, queries=7, docs=6)
    model = policy.init_model("linear", ds.feature_dim, np.random.default_rng(0))
    samples = 4
    # Room for three queries of eval_samples rows each, and for no query of
    # 2**6 flows, which then takes a block of its own.
    monkeypatch.setattr(trainer, "EVAL_BLOCK_DRAWS", 3 * samples * 6)
    blocks = []

    def counted(scores, *args, **kwargs):
        result = fairness.exposure_of_policy(scores, *args, **kwargs)
        blocks.append((np.shape(scores)[-2], result.mode))
        return result

    monkeypatch.setattr(trainer, "exposure_of_policy", counted)

    def evaluation_blocks():
        blocks.clear()
        trainer._evaluate(model, ds, metrics.UtilityMetric("ndcg"),
                          fairness.DisparityConfig("group"), samples,
                          np.random.default_rng(0))
        return list(blocks)

    assert fairness.exposure_of_policy(np.zeros(6)).mode == "exact"
    assert evaluation_blocks() == [(1, "exact")] * 7
    monkeypatch.setattr(fairness, "SUBSET_DP_MAX_DOCS", 5)
    assert fairness.exposure_of_policy(np.zeros(6)).mode == "mc"
    assert fairness.exposure_of_policy(np.zeros(5)).mode == "exact"
    assert evaluation_blocks() == [(3, "mc"), (3, "mc"), (1, "mc")]


def test_extra_metrics_equal_separate_evaluations():
    ds = small_dataset(seed=8, docs=9)
    model = policy.init_model("linear", ds.feature_dim, np.random.default_rng(0))
    group = fairness.DisparityConfig.parse("group")
    ndcg = metrics.UtilityMetric("ndcg")
    err = metrics.UtilityMetric("err", err_max_grade=5.0)
    both = trainer.evaluate(model, ds, ndcg, group, 8, seed=4, extra_metrics=[err])
    alone = trainer.evaluate(model, ds, ndcg, group, 8, seed=4)
    err_only = trainer.evaluate(model, ds, err, None, 8, seed=4)
    assert both.metric_values == alone.metric_values
    assert both.disparity_values == alone.disparity_values
    assert both.extra_values == [err_only.metric_values]
    assert both.extra_means == [err_only.mean_metric]
    with pytest.raises(ValueError, match="err_max_grade"):
        trainer.evaluate(model, ds, ndcg, extra_metrics=[metrics.UtilityMetric("err")])


def test_early_stopping_respects_patience():
    ds = small_dataset(seed=9)
    tr, va = data.split_dataset(ds, 0.8, seed=0)
    rec = trainer.train(tr, va, base_config(epochs=30, patience=2,
                                            learning_rate=0.0))
    # constant validation objective: first epoch wins, stop after 1 + 2
    assert rec.best_epoch == 1
    assert rec.epochs_run == 3


def test_run_record_json_shape():
    ds = small_dataset(seed=10)
    tr, va = data.split_dataset(ds, 0.8, seed=0)
    cfg = base_config(lam=1.0, disparity=fairness.DisparityConfig.parse("group"))
    rec = trainer.train(tr, va, cfg)
    payload = rec.to_json_dict()
    assert payload["method"] == "pg-rank"
    assert payload["epochs_run"] == len(payload["curves"]["val_metric"])
    assert set(payload["curves"]) >= {"train_metric", "val_metric",
                                      "val_objective", "train_disparity",
                                      "val_disparity"}
    assert payload["final"]["val_metric"] == \
        payload["curves"]["val_metric"][payload["best_epoch"] - 1]
    assert "delta_lambda" in payload

    plain = trainer.train(tr, va, base_config()).to_json_dict()
    assert "train_disparity" not in plain["curves"]
    assert "delta_lambda" not in plain


def test_sgd_and_adam_both_improve_utility():
    ds = small_dataset(seed=11, queries=20, docs=5)
    tr, va = data.split_dataset(ds, 0.8, seed=0)
    for opt, lr in (("sgd", 0.05), ("adam", 0.01)):
        rec = trainer.train(tr, va, base_config(optimizer=opt, epochs=10,
                                                learning_rate=lr))
        curve = rec.curves["train_metric"]
        assert curve[rec.best_epoch - 1] >= curve[0] - 0.02


def test_err_grade_below_top_relevance_fails_before_epoch_one(monkeypatch):
    ds = small_dataset(seed=0, queries=10, docs=5)
    top = max(q.relevances.max() for q in ds)
    assert top > 4.0
    train_set, val_set = data.split_dataset(ds, 0.8, seed=0)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "_train_step", no_step)
    train_top = max(q.relevances.max() for q in train_set)
    cfg = base_config(metric=metrics.UtilityMetric("err"))
    with pytest.raises(ValueError, match=f"train split has relevance {train_top:g},"):
        trainer.train(train_set, val_set, cfg)
    model = policy.init_model("linear", ds.feature_dim, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"evaluation split has relevance {top:g}"):
        trainer.evaluate(model, ds, metrics.UtilityMetric("err"))
    fitted = metrics.UtilityMetric("err", err_max_grade=float(top))
    assert trainer.evaluate(model, ds, fitted).mean_metric > 0.0


def test_group_disparity_without_labels_fails_before_epoch_one(monkeypatch):
    labeled = small_dataset(seed=0, queries=10, docs=5)
    bare = without_groups(labeled)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "_train_step", no_step)
    cfg = base_config(lam=5.0, disparity=fairness.DisparityConfig.parse("group"))
    with pytest.raises(ValueError, match="train split has no group labels"):
        trainer.train(bare, bare, cfg)
    with pytest.raises(ValueError, match="val split has no group labels"):
        trainer.train(labeled, bare, cfg)
    model = policy.init_model("linear", bare.feature_dim, np.random.default_rng(0))
    with pytest.raises(ValueError, match="evaluation split has no group labels"):
        trainer.evaluate(model, bare, cfg.metric, cfg.disparity)
    individual = fairness.DisparityConfig.parse("individual")
    assert trainer.evaluate(model, bare, cfg.metric, individual).mean_disparity >= 0.0


def test_a_negative_relevance_fails_before_epoch_one_under_err_or_a_merit(
        monkeypatch):
    ds = small_dataset(seed=0, queries=10, docs=5)
    queries = list(ds)
    q = queries[2]
    queries[2] = (q.qid, q.feature_matrix,
                            np.concatenate(([-1.0], q.relevances[1:])), q.groups)
    neg = oracle.dataset_of(queries)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "_train_step", no_step)
    message = f"train split query {q.qid!r} has negative relevance -1, for which "
    individual = fairness.DisparityConfig.parse("individual")
    with pytest.raises(ValueError, match=message + "merit"):
        trainer.train(neg, neg, base_config(lam=5.0, disparity=individual))
    err = metrics.UtilityMetric("err", err_max_grade=5.0)
    with pytest.raises(ValueError, match=message + "err"):
        trainer.train(neg, neg, base_config(metric=err))
    model = policy.init_model("linear", neg.feature_dim, np.random.default_rng(0))
    with pytest.raises(ValueError, match="evaluation split query"):
        trainer.evaluate(model, neg, metrics.UtilityMetric("ndcg"), individual)
    # DCG is defined for a negative relevance.
    assert np.isfinite(trainer.evaluate(model, neg, metrics.UtilityMetric("ndcg"))
                       .mean_metric)


def with_zero_relevance_query(dataset, index):
    """The dataset with query ``index``'s relevances all set to zero."""
    queries = list(dataset)
    q = queries[index]
    queries[index] = (q.qid, q.feature_matrix,
                                            np.zeros(len(q)), q.groups)
    return oracle.dataset_of(queries)


def test_avgrank_on_an_all_zero_query_fails_before_epoch_one(monkeypatch):
    ds = small_dataset(seed=0, queries=10, docs=5)
    train_set, val_set = data.split_dataset(ds, 0.8, seed=0)
    bad_val = with_zero_relevance_query(val_set, 1)
    qid = bad_val[1].qid

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "_train_step", no_step)
    cfg = base_config(metric=metrics.UtilityMetric("avgrank"))
    with pytest.raises(ValueError, match=f"val split query {qid!r} has only zero"):
        trainer.train(train_set, bad_val, cfg)
    model = policy.init_model("linear", ds.feature_dim, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"evaluation split query {qid!r}"):
        trainer.evaluate(model, bad_val, metrics.UtilityMetric("ndcg"),
                         extra_metrics=[metrics.UtilityMetric("avgrank")])
    summary = trainer.evaluate(model, bad_val, metrics.UtilityMetric("ndcg"))
    assert summary.mean_metric >= 0.0


def per_array_sgd_step(arrays, grads, learning_rate):
    """Reference: the SGD step applied to each named array in turn."""
    for p, g in zip(arrays, grads):
        p += learning_rate * g


def per_array_adam_steps(arrays, grad_steps, learning_rate, beta1=0.9,
                         beta2=0.999, eps=1e-8):
    """Reference: Adam with one ``m`` and ``v`` per named array."""
    m = [np.zeros_like(p) for p in arrays]
    v = [np.zeros_like(p) for p in arrays]
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for p, g, mp, vp in zip(arrays, grads, m, v):
            mp *= beta1
            mp += (1.0 - beta1) * g
            vp *= beta2
            vp += (1.0 - beta2) * g * g
            p += learning_rate * (mp / bc1) / (np.sqrt(vp / bc2) + eps)


def split_like(flat, arrays):
    """``flat`` cut into fresh arrays of the shapes of ``arrays``."""
    out, start = [], 0
    for a in arrays:
        out.append(flat[start:start + a.size].reshape(a.shape).copy())
        start += a.size
    return out


@pytest.mark.parametrize("kind,bias", [("linear", False), ("linear", True),
                                       ("mlp1", False)])
def test_flat_optimizer_steps_equal_the_per_array_reference(kind, bias):
    rng = np.random.default_rng(31)
    model = oracle.model_of(kind, 4, rng, hidden_units=5, bias=bias)
    X = rng.normal(size=(6, 4))
    grad_steps = [model.backprop(X, rng.normal(size=6)) for _ in range(3)]

    sgd_model = model.copy()
    trainer.SGD(0.05).step(sgd_model.params, grad_steps[0])
    want = [a.copy() for a in oracle.param_arrays(model)]
    per_array_sgd_step(want, split_like(grad_steps[0], want), 0.05)
    for got, ref in zip(oracle.param_arrays(sgd_model), want):
        assert got.tobytes() == ref.tobytes()

    adam_model = model.copy()
    adam = trainer.Adam(0.01)
    for grad in grad_steps:
        adam.step(adam_model.params, grad)
    want = [a.copy() for a in oracle.param_arrays(model)]
    per_array_adam_steps(want, [split_like(g, want) for g in grad_steps], 0.01)
    for got, ref in zip(oracle.param_arrays(adam_model), want):
        assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# Lambda grids trained in lockstep
# ---------------------------------------------------------------------------


def grid_configs(lams, **overrides):
    return [base_config(lam=lam, **overrides) for lam in lams]


@pytest.mark.parametrize("model,kind", [("linear", "group"), ("mlp1", "individual")])
def test_grid_members_equal_runs_alone(model, kind):
    """Each member of a grid gives the bits ``train`` gives it alone, though
    members stop early at different epochs and leave the block, and the
    penalized members are not contiguous rows."""
    ds = small_dataset(seed=5, queries=12, docs=9)
    tr, va = data.split_dataset(ds, 0.75, seed=0)
    configs = grid_configs((5.0, 0.0, 25.0, 2.0), model=model, hidden_units=4,
                           disparity=fairness.DisparityConfig.parse(kind),
                           gamma=0.5, epochs=6, patience=1, learning_rate=0.05)
    outcomes = trainer.train(tr, va, configs)
    assert len(outcomes) == len(configs)
    for config, record in zip(configs, outcomes):
        alone = trainer.train(tr, va, config)
        assert record.to_json_dict() == alone.to_json_dict()
        assert record.model.params.tobytes() == alone.model.params.tobytes()
    assert len({r.epochs_run for r in outcomes}) > 1


@pytest.mark.parametrize("kind", ["group", "individual"])
def test_each_split_builds_its_constants_once_per_training_run(kind, monkeypatch):
    """A grid of three members trained for three epochs builds each run's
    metric constants and hinge rows of each split once, though every epoch
    evaluates both splits and the selected models are valued on the
    training split once more; on a split with a one-group query and an
    all-zero query, a pass that reads the constants built up front equals
    one that builds its own, values and generator state alike."""
    train_set, val_set = ragged_split(), ragged_split(seed=22)
    built = {"constants": [], "rows": []}
    constants, rows = metrics.UtilityMetric.constants, fairness.DisparityConfig.rows
    monkeypatch.setattr(metrics.UtilityMetric, "constants", lambda self, relevances:
                        built["constants"].append(relevances)
                        or constants(self, relevances))
    monkeypatch.setattr(fairness.DisparityConfig, "rows", lambda self, relevances, groups:
                        built["rows"].append(relevances)
                        or rows(self, relevances, groups))
    disparity = fairness.DisparityConfig.parse(kind)
    configs = grid_configs((0.0, 1.0, 5.0), disparity=disparity, epochs=3)
    records = trainer.train(train_set, val_set, configs)
    assert [record.epochs_run for record in records] == [3, 3, 3]
    runs = [run.relevances for split in (train_set, val_set) for run in split.runs]
    for calls in built.values():
        assert len(calls) == len(runs)
        assert all(called is run for called, run in zip(calls, runs))
    monkeypatch.undo()
    block = records[0].model.with_params(np.stack([r.model.params for r in records]))
    metric = configs[0].metric
    prebuilt = trainer.split_constants(train_set, [metric], disparity)
    given_rng, own_rng = np.random.default_rng(3), np.random.default_rng(3)
    given = trainer._evaluate(block, train_set, metric, disparity, 16, given_rng,
                              constants=prebuilt)
    own = trainer._evaluate(block, train_set, metric, disparity, 16, own_rng)
    assert given == own
    assert given_rng.bit_generator.state == own_rng.bit_generator.state


def test_grid_refuses_configs_that_differ_beyond_lambda():
    ds = small_dataset()
    tr, va = data.split_dataset(ds, 0.8, seed=0)
    grp = fairness.DisparityConfig.parse("group")
    with pytest.raises(ValueError, match="differ only in lam"):
        trainer.train(tr, va, [base_config(lam=1.0, disparity=grp),
                                    base_config(lam=2.0, disparity=grp, seed=1)])
    with pytest.raises(ValueError, match="at least one"):
        trainer.train(tr, va, [])


def test_a_failing_member_leaves_the_block_and_the_others_carry_on():
    ds = small_dataset(seed=2, queries=10, docs=9)
    tr, va = data.split_dataset(ds, 0.8, seed=0)
    configs = grid_configs((0.0, 1e300, 5.0),
                           disparity=fairness.DisparityConfig.parse("group"))
    first, failed, last = trainer.train(tr, va, configs)
    assert isinstance(failed, trainer.TrainingError)
    assert "cannot take" in str(failed) and "on query" in str(failed)
    for config, record in ((configs[0], first), (configs[2], last)):
        assert record.to_json_dict() == trainer.train(tr, va, config).to_json_dict()
    with pytest.raises(trainer.TrainingError, match="on query"):
        trainer.train(tr, va, configs[1])


def test_a_gradient_adam_cannot_square_fails_before_the_parameters_move():
    """A finite gradient entry above ``Adam.max_gradient`` would overflow
    the second moment and freeze the run; the step refuses it, with no
    warning, naming the query, and leaves that member's parameters alone."""
    ds = small_dataset(seed=2, queries=8, docs=9)
    configs = grid_configs((0.0, 1e300),
                           disparity=fairness.DisparityConfig.parse("group"))
    model = policy.init_model("linear", ds.feature_dim, np.random.default_rng(0))
    # A step reads a member's config and optimizer, not its record.
    members = [trainer._Member(c, trainer.Adam(0.01), None) for c in configs]
    block = trainer._Block(model.with_params(np.tile(model.params, (2, 1))), members)
    rng = np.random.default_rng(1)
    constants = trainer.split_constants(ds, [configs[0].metric], configs[0].disparity)
    for query in trainer._step_queries(ds, constants):
        # until the hinge is active and the step huge
        before = block.model.params.copy()
        failed = trainer._train_step(block, query, configs[0], rng)
        if failed:
            break
    assert list(failed) == [1]
    assert f"above 1e+154, which adam cannot take, on query {query.qid!r}" \
        in str(failed[1])
    assert block.model.params[1].tobytes() == before[1].tobytes()
    assert block.model.params[0].tobytes() != before[0].tobytes()


def test_hinge_gradient_of_a_member_block_equals_each_member():
    """Members with an active row get their own bits of the per-ranking
    weights and of the gradient, and one without gets exact zeros, as a call
    on its sample alone would."""
    rng = np.random.default_rng(9)
    for kind in ("group", "individual"):
        disparity = fairness.DisparityConfig.parse(kind)
        for n in (3, 9):
            query = small_dataset(seed=n, queries=1, docs=n)[0]
            rows = disparity.rows(query.relevances, query.groups)
            scores = rng.normal(scale=2.0, size=(5, n))
            sample = policy.draw_policy_sample(scores, 7, rng)
            block = trainer.disparity_score_grad(sample.rankings, rows, disparity)
            assert block.shape == (5, 7)
            grads = sample.score_grad(block)
            for k in range(5):
                alone = trainer.disparity_score_grad(sample.rankings[k], rows, disparity)
                assert block[k].tobytes() == alone.tobytes()
                member = policy.PolicySample(scores[k], sample.rankings[k])
                assert grads[k].tobytes() == member.score_grad(alone).tobytes()


def test_train_refuses_splits_of_different_feature_widths_before_epoch_1(monkeypatch):
    train_set = data.generate_simulated(num_queries=4, docs_per_query=4, seed=1)
    wide = oracle.dataset_of([(q.qid, np.hstack([q.feature_matrix, np.ones((len(q), 1))]),
                                    q.relevances, q.groups) for q in train_set])

    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "_train_step", no_step)
    with pytest.raises(ValueError, match="val split has 3 features, train split has 2"):
        trainer.train(train_set, wide, trainer.TrainConfig(epochs=1))


def test_evaluate_refuses_a_model_of_another_feature_width_before_any_work(monkeypatch):
    ds = data.generate_simulated(num_queries=3, docs_per_query=4, seed=0)

    def no_pass(*args):
        raise AssertionError("an evaluation pass ran")

    monkeypatch.setattr(trainer, "_evaluate", no_pass)
    for model in (policy.init_model("linear", 3, np.random.default_rng(0)),
                  policy.MLP1Model.init(1, np.random.default_rng(0), 4)):
        with pytest.raises(ValueError, match=f"^model has {model.feature_dim} features, "
                                             "evaluation split has 2$"):
            trainer.evaluate(model, ds, metrics.UtilityMetric("ndcg"))


@pytest.mark.parametrize("kind", ["group", "individual"])
def test_step_weights_are_the_rankings_exposures_under_the_hinge_gradient(kind):
    """Each sampled ranking's hinge weight is its exposure under the
    oracle's ``hinge_weights`` of the query's rows, the indicators taken at
    the sample's exposures: a group row values a ranking by one gather, and
    pair rows by the package's exposure gradient."""
    rng = np.random.default_rng(12)
    disparity = fairness.DisparityConfig(kind)
    for n in (2, 5, 9):
        rows = (rng.normal(size=n),) if kind == "group" else \
            fairness.individual_rows(rng.choice([0.0, 1.0, 2.0, 3.5], size=n))
        rankings = np.argsort(rng.random((4, 25, n)), axis=-1)
        got = trainer.disparity_score_grad(rankings, rows, disparity)
        assert got.shape == (4, 25)
        for k in range(4):
            weights = oracle.hinge_weights(kind, rows,
                                           fairness.mc_exposure(rankings[k]))
            want = fairness.ranking_exposures(rankings[k]) @ weights
            np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=1e-15)
            assert got[k].tobytes() == \
                trainer.disparity_score_grad(rankings[k], rows, disparity).tobytes()


def test_a_dataset_holds_one_copy_of_its_documents(monkeypatch):
    """Each run's arrays, each query's, and the feature rows that training
    steps and evaluations score are views of the dataset's flat arrays, not
    a second stacked copy."""
    whole = oracle.dataset_of([*data.generate_simulated(num_queries=6, docs_per_query=4,
                                                        seed=1),
                               *data.generate_simulated(num_queries=6, docs_per_query=7,
                                                        seed=2)])
    train_set, val_set = data.split_dataset(whole, 0.75, seed=0)
    for dataset in (whole, train_set, val_set):
        assert len(dataset.runs) == 2
        for run in dataset.runs:
            for values, flat in ((run.features, dataset.features),
                                 (run.relevances, dataset.relevances),
                                 (run.groups, dataset.groups)):
                assert np.shares_memory(values, flat)
        for query in dataset:
            assert np.shares_memory(query.feature_matrix, dataset.features)
            assert np.shares_memory(query.relevances, dataset.relevances)
    scored = []
    scores = policy.LinearModel.scores
    monkeypatch.setattr(policy.LinearModel, "scores",
                        lambda self, features: scored.append(features)
                        or scores(self, features))
    config = base_config(lam=1.0, disparity=fairness.DisparityConfig.parse("group"),
                         epochs=2)
    trainer.train(train_set, val_set, config)
    steps = [features for features in scored if features.ndim == 2]
    assert len(steps) == config.epochs * len(train_set)
    for features in steps:
        assert np.shares_memory(features, train_set.features)
    for features in scored:
        assert any(np.shares_memory(features, split.features)
                   for split in (train_set, val_set))
