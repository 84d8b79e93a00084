"""Policy-gradient training loop: estimators, determinism, behaviors."""
import copy

import numpy as np
import pytest

from fairltr import baselines, data, fairness, metrics, policy, trainer


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


def test_config_echo_round_trips_core_fields():
    cfg = base_config(lam=2.0, disparity=fairness.DisparityConfig.parse("group", "sqrt"))
    echo = cfg.echo()
    assert echo["lambda"] == 2.0
    assert echo["metric"] == "ndcg@10"
    assert echo["disparity"] == "group"
    assert echo["merit"] == "sqrt"
    assert echo["optimizer"] == "adam"


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
        exact = baselines.enumerate_policy_expectations(scores, rels,
                                                        metric=metric)
        draws = 40000
        sample = policy.draw_policy_sample(scores, draws, rng)
        rewards = metric.batch_rewards(sample.rankings, rels)
        est = trainer.utility_score_grad(sample, rewards, use_baseline=True)
        centered = (rewards - rewards.mean())[:, None] * sample.logprob_grads
        se = centered.std(axis=0) / np.sqrt(draws)
        assert np.all(np.abs(est - exact.utility_grad) <= 4.0 * se + 1e-12)


def test_baseline_subtraction_preserves_expectation():
    rng = np.random.default_rng(1)
    scores = np.array([0.4, -0.2, 0.9])
    rels = np.array([2.0, 0.0, 1.0])
    metric = metrics.UtilityMetric("dcg")
    exact = baselines.enumerate_policy_expectations(scores, rels, metric=metric)
    draws = 50000
    sample = policy.draw_policy_sample(scores, draws, rng)
    rewards = metric.batch_rewards(sample.rankings, rels)
    with_b = trainer.utility_score_grad(sample, rewards, use_baseline=True)
    without = trainer.utility_score_grad(sample, rewards, use_baseline=False)
    spread = rewards.std() * np.abs(sample.logprob_grads).max() / np.sqrt(draws)
    tol = max(6.0 * spread, 1e-3)
    assert np.all(np.abs(with_b - exact.utility_grad) <= tol)
    assert np.all(np.abs(without - exact.utility_grad) <= tol)


def test_group_disparity_gradient_is_unbiased():
    scores = np.array([1.02, -1.055, 0.239])
    rels = np.array([1.61, 1.47, 1.741])
    groups = np.array([0, 1, 1])
    merit = fairness.MeritFunction()
    exact = baselines.enumerate_policy_expectations(
        scores, rels, merits=merit(rels), groups=groups)
    assert exact.group_disparity > 0.0     # indicator active at this point
    rng = np.random.default_rng(2)
    draws = 50000
    sample = policy.draw_policy_sample(scores, draws, rng)
    est = trainer.hinge_score_grad(sample, fairness.group_rows(merit(rels), groups))
    assert np.all(np.abs(est - exact.group_grad) <= 0.02)


def test_individual_disparity_gradient_is_unbiased():
    scores = np.array([0.2, -0.1, 0.5])
    rels = np.array([2.0, 1.0, 2.0])
    merit = fairness.MeritFunction()
    exact = baselines.enumerate_policy_expectations(scores, rels,
                                                    merits=merit(rels))
    assert exact.individual_disparity > 0.0
    rng = np.random.default_rng(3)
    sample = policy.draw_policy_sample(scores, 50000, rng)
    est = trainer.hinge_score_grad(sample, fairness.individual_rows(merit(rels)))
    assert np.all(np.abs(est - exact.individual_grad) <= 0.02)


def test_train_is_deterministic_per_seed():
    ds = small_dataset()
    tr, va = data.split_dataset(ds, 0.8, seed=0)
    cfg = base_config(lam=1.0, disparity=fairness.DisparityConfig.parse("group"),
                      gamma=0.5)
    rec1 = trainer.train(tr, va, cfg)
    rec2 = trainer.train(tr, va, cfg)
    assert rec1.to_json() == rec2.to_json()
    assert policy.models_equal(rec1.model, rec2.model)
    rec3 = trainer.train(tr, va, base_config(
        lam=1.0, disparity=fairness.DisparityConfig.parse("group"),
        gamma=0.5, seed=1))
    assert rec3.to_json() != rec1.to_json()


def without_groups(ds):
    return data.Dataset([data.Query.from_arrays(q.qid, q.feature_matrix, q.relevances)
                         for q in ds], ds.feature_dim)


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
    assert policy.models_equal(rec_a.model, rec_b.model)


def test_zero_learning_rate_keeps_model_at_init():
    ds = small_dataset(seed=6)
    tr, va = data.split_dataset(ds, 0.8, seed=0)
    cfg = base_config(learning_rate=0.0, epochs=2)
    rec = trainer.train(tr, va, cfg)
    rng = np.random.SeedSequence(cfg.seed).spawn(4)[0]
    init = policy.init_model("linear", ds.feature_dim,
                             np.random.default_rng(rng))
    assert policy.models_equal(rec.model, init)


def test_entropy_bonus_pulls_scores_together():
    """On one two-doc query with a fixed feature gap, a pure-entropy
    objective shrinks the score gap; a pure-utility one widens it."""
    text = "3 qid:1 1:1\n0 qid:1 1:-1\n"
    ds = data.parse_letor(text)
    q = ds.queries[0]

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
    docs = [data.Document(np.array([np.nan]), 1.0),
            data.Document(np.array([0.0]), 0.0)]
    bad = data.Dataset([data.Query("broken", docs)], 1)
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
        docs = [data.Document(np.array([g == 0, rel, 0.0]) + rng.normal(size=3),
                              rel, int(g)) for rel, g in zip(rels, groups)]
        queries.append(data.Query(f"q{qi}", docs))
    return data.Dataset(queries, feature_dim=3)


def per_query_evaluation(model, dataset, metric, disparity, eval_samples, rng):
    """Reference: the evaluation loop before the block pass, one query at a
    time, each with its own exposure estimate."""
    metric_values, disparity_values = [], []
    for query in dataset:
        scores = model.scores(query.feature_matrix)
        metric_values.append(metric.value(policy.argmax_ranking(scores),
                                          query.relevances))
        exposures = fairness.exposure_of_policy(scores, mode="auto",
                                                num_samples=eval_samples, rng=rng)
        disparity_values.append(disparity.from_exposures(exposures.values, query))
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
    got = trainer._evaluate(model, ds, ndcg5, disparity, 16, block_rng,
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
    queries takes three Monte-Carlo calls, and the pass still equals the
    per-query loop bit for bit."""
    calls = []

    def counted(scores, *args, **kwargs):
        calls.append(np.shape(scores))
        return fairness.exposure_of_policy(scores, *args, **kwargs)

    monkeypatch.setattr(trainer, "EVAL_BLOCK_DRAWS", 2 * 16 * 10)
    monkeypatch.setattr(trainer, "exposure_of_policy", counted)
    ds = ragged_split(sizes=(10, 10, 10, 10, 10, 9, 3))
    model = policy.LinearModel(np.array([2.0, 1.0, 0.3]))
    disparity = fairness.DisparityConfig.parse("group")
    metric = metrics.UtilityMetric("ndcg")
    block_rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = trainer._evaluate(model, ds, metric, disparity, 16, block_rng)
    want_metric, want_disparity = per_query_evaluation(model, ds, metric, disparity,
                                                       16, reference_rng)
    assert calls == [(2, 10), (2, 10), (1, 10), (1, 9), (3,)]
    assert got.metric_values == want_metric
    assert got.disparity_values == want_disparity
    assert block_rng.random() == reference_rng.random()


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
        assert rec.train_metric[rec.best_epoch - 1] >= rec.train_metric[0] - 0.02


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
