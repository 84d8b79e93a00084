"""Acceptance checks for the whole toolkit, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v``; each test prints a
``[PASS]``/``[FAIL]`` line with the measured quantity next to its bound.
"""
import json
import time

import numpy as np
import pytest

from fairltr import baselines, cli, data, fairness, metrics, policy, trainer
from fairltr.ranking import all_rankings


def report(capsys, ok: bool, line: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {line}")


# ---------------------------------------------------------------------------
# Shared simulated-data study (trade-off sweep + LP comparison)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sim_split():
    ds = data.generate_simulated(num_queries=100, docs_per_query=10, seed=0)
    return data.split_dataset(ds, 0.8, seed=0)


@pytest.fixture(scope="module")
def sweep_outcome(sim_split):
    """Fixed-length policy-gradient ascent at each trade-off weight.

    Uses the score-space gradient estimators and ``backprop`` directly with
    a fixed epoch budget so the reported weights are the converged ones;
    the checkpoint-selection path of the trainer is covered elsewhere.  The
    utility and the penalty each draw their own sample, in that order.
    """
    train_set, _ = sim_split
    metric = metrics.UtilityMetric.parse("ndcg@10")
    grp = fairness.DisparityConfig.parse("group")
    started = time.monotonic()
    out = {}
    for lam in (0.0, 1.0, 5.0, 25.0):
        seeds = np.random.SeedSequence(1234).spawn(2)
        init_rng = np.random.default_rng(seeds[0])
        train_rng = np.random.default_rng(seeds[1])
        model = policy.init_model("linear", train_set.feature_dim, init_rng)
        optimizer = trainer.make_optimizer("adam", 0.01)
        for _ in range(60):
            for qi in train_rng.permutation(len(train_set)):
                query = train_set.queries[qi]
                X = query.feature_matrix
                scores = model.scores(X)
                sample = policy.draw_policy_sample(scores, 50, train_rng)
                rewards = metric.batch_rewards(sample.rankings, query.relevances)
                grads = model.backprop(X, trainer.utility_score_grad(sample, rewards))
                if lam:
                    sample = policy.draw_policy_sample(scores, 50, train_rng)
                    pen = model.backprop(X, trainer.disparity_score_grad(
                        sample, query, grp))
                    grads = [g - lam * p for g, p in zip(grads, pen)]
                optimizer.step(model.param_arrays(), grads)
        summary = trainer.evaluate(model, train_set, metric, grp,
                                   eval_samples=2000, seed=123)
        weights = model.weights
        out[lam] = {
            "disparity": summary.mean_disparity,
            "ndcg": summary.mean_metric,
            "weight_ratio": abs(weights[0]) / abs(weights[1]),
        }
    out["elapsed"] = time.monotonic() - started
    return out


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradient of the exact objective
# ---------------------------------------------------------------------------


def test_gradient_matches_finite_differences(capsys):
    lam, gamma = 0.7, 0.3
    merit = fairness.MeritFunction.parse("identity")
    metric = metrics.UtilityMetric("ndcg")
    rng = np.random.default_rng(11)
    step = 1e-5

    def instance():
        while True:
            X = rng.normal(size=(4, 3))
            w = rng.normal(scale=0.5, size=3)
            rels = rng.integers(0, 5, size=4).astype(float)
            groups = rng.integers(0, 2, size=4)
            if len(np.unique(groups)) < 2 or rels.max() == 0:
                continue
            merits = merit(rels)
            m0 = merits[groups == 0].mean()
            m1 = merits[groups == 1].mean()
            if min(merits[groups == 0].sum(), merits[groups == 1].sum()) == 0:
                continue
            if abs(m0 - m1) < 0.05:
                continue
            scores = X @ w
            term = fairness.group_disparity(
                fairness.exposure_of_policy(scores, mode="exact").values,
                merits, groups)
            hinge_gap = term if term > 0 else _signed_group_gap(
                scores, merits, groups)
            if abs(hinge_gap) < 1e-3:       # too close to the hinge kink
                continue
            return X, w, rels, groups

    def objective(X, w, rels, groups):
        scores = X @ w
        ex = baselines.enumerate_policy_expectations(
            scores, rels, merits=merit(rels), groups=groups, metric=metric)
        entropy, _ = policy.softmax_entropy(scores)
        return ex.utility - lam * ex.group_disparity + gamma * entropy

    started = time.monotonic()
    worst = 0.0
    for _ in range(20):
        X, w, rels, groups = instance()
        scores = X @ w
        ex = baselines.enumerate_policy_expectations(
            scores, rels, merits=merit(rels), groups=groups, metric=metric)
        _, ent_grad = policy.softmax_entropy(scores)
        score_grad = ex.utility_grad - lam * ex.group_grad + gamma * ent_grad
        analytic = X.T @ score_grad
        fd = np.zeros(3)
        for d in range(3):
            e = np.zeros(3)
            e[d] = step
            fd[d] = (objective(X, w + e, rels, groups)
                     - objective(X, w - e, rels, groups)) / (2 * step)
        rel_err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10)
        worst = max(worst, rel_err)
    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 10.0
    report(capsys, ok, f"analytic vs finite-difference gradient: worst relative "
                       f"error {worst:.2e} (< 1e-4) in {elapsed:.1f}s (< 10s)")
    assert worst < 1e-4
    assert elapsed < 10.0


def _signed_group_gap(scores, merits, groups):
    expo = fairness.exposure_of_policy(scores, mode="exact").values
    m0 = merits[groups == 0]
    m1 = merits[groups == 1]
    direction = np.sign(m0.mean() - m1.mean())
    ratio0 = expo[groups == 0].sum() / m0.sum()
    ratio1 = expo[groups == 1].sum() / m1.sum()
    return direction * (ratio0 - ratio1)


# ---------------------------------------------------------------------------
# Criterion 2: Monte-Carlo estimators are unbiased
# ---------------------------------------------------------------------------


def test_estimators_unbiased_within_three_standard_errors(capsys):
    merit = fairness.MeritFunction.parse("identity")
    metric = metrics.UtilityMetric("ndcg")
    rng = np.random.default_rng(22)
    draws = 20000
    started = time.monotonic()
    worst_z = 0.0
    for _ in range(10):
        while True:
            scores = rng.normal(size=3)
            rels = rng.integers(0, 5, size=3).astype(float)
            groups = np.array([0, 1, 1])
            rng.shuffle(groups)
            if len(np.unique(rels)) < 2:
                continue
            exact = baselines.enumerate_policy_expectations(
                scores, rels, merits=merit(rels), groups=groups, metric=metric)
            if exact.group_disparity > 0.01:    # indicator clearly active
                break
        sample = policy.draw_policy_sample(scores, draws, rng)
        rewards = metric.batch_rewards(sample.rankings, rels)
        centered = (rewards - rewards.mean())[:, None] * sample.logprob_grads
        est_u = trainer.utility_score_grad(sample, rewards, use_baseline=True)
        se_u = centered.std(axis=0) / np.sqrt(draws)
        z_u = np.abs(est_u - exact.utility_grad) / np.maximum(se_u, 1e-12)
        worst_z = max(worst_z, z_u.max())

        est_g = trainer.hinge_score_grad(
            sample, fairness.group_rows(merit(rels), groups))
        merits = merit(rels)
        direction = np.sign(merits[groups == 0].mean()
                            - merits[groups == 1].mean())
        w = direction * np.where(groups == 0,
                                 1.0 / merits[groups == 0].sum(),
                                 -1.0 / merits[groups == 1].sum())
        bias = metrics.position_bias_vector(3)
        terms = (w[sample.rankings] * bias).sum(axis=1)
        contrib = terms[:, None] * sample.logprob_grads
        np.testing.assert_allclose(est_g, contrib.mean(axis=0), atol=1e-12)
        se_g = contrib.std(axis=0) / np.sqrt(draws)
        z_g = np.abs(est_g - exact.group_grad) / np.maximum(se_g, 1e-12)
        worst_z = max(worst_z, z_g.max())
    elapsed = time.monotonic() - started
    ok = worst_z <= 3.0 and elapsed < 60.0
    report(capsys, ok, f"estimator bias: worst |z| {worst_z:.2f} standard "
                       f"errors (<= 3) in {elapsed:.1f}s (< 60s)")
    assert worst_z <= 3.0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 3: the sampling distribution is the modeled one
# ---------------------------------------------------------------------------


def test_sampler_distribution_is_normalized_and_matched(capsys):
    rng = np.random.default_rng(33)
    worst_gap = 0.0
    for n in range(2, 7):
        for _ in range(10):
            scores = rng.normal(scale=1.5, size=n)
            orders = np.stack(list(all_rankings(n)))
            total = np.exp(policy.ranking_logprobs(scores, orders)).sum()
            worst_gap = max(worst_gap, abs(total - 1.0))

    scores = np.array([0.8, -0.4, 0.3])
    size = 50000
    sample = policy.sample_rankings(scores, size, np.random.default_rng(34))
    keys = sample @ np.array([9, 3, 1])
    orders = np.stack(list(all_rankings(3)))
    probs = np.exp(policy.ranking_logprobs(scores, orders))
    worst_z = 0.0
    for key, p in zip(orders @ np.array([9, 3, 1]), probs):
        freq = float(np.mean(keys == key))
        se = np.sqrt(p * (1.0 - p) / size)
        worst_z = max(worst_z, abs(freq - p) / se)
    ok = worst_gap < 1e-10 and worst_z <= 4.0
    report(capsys, ok, f"sampler: normalization gap {worst_gap:.1e} (< 1e-10), "
                       f"frequency deviation {worst_z:.2f} SE (<= 4)")
    assert worst_gap < 1e-10
    assert worst_z <= 4.0


# ---------------------------------------------------------------------------
# Criterion 4: metric oracle values
# ---------------------------------------------------------------------------


def test_metric_oracle_values(capsys):
    rng = np.random.default_rng(44)
    sorted_exact = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        rels = rng.choice(np.arange(0, 8, dtype=float), size=n, replace=False)
        ideal = np.argsort(-rels, kind="stable")
        sorted_exact &= metrics.ndcg(ideal, rels) == 1.0

    equal = np.full(4, 2.0)
    invariant = all(metrics.ndcg(order, equal) == 1.0
                    for order in all_rankings(4))

    hand = metrics.dcg(np.array([0, 1, 2]), np.array([3.0, 1.0, 0.0]))
    hand_ok = abs(hand - 7.63093) < 1e-5
    ok = sorted_exact and invariant and hand_ok
    report(capsys, ok, f"metric oracle: sorted ndcg exact {sorted_exact}, "
                       f"tie invariance {invariant}, dcg {hand:.5f} "
                       f"(7.63093 +- 1e-5)")
    assert sorted_exact
    assert invariant
    assert hand_ok


# ---------------------------------------------------------------------------
# Criterion 5: exposure proportional to merit has zero disparity
# ---------------------------------------------------------------------------


def test_proportional_exposure_zero_disparity(capsys):
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 8))
        merits = rng.uniform(0.5, 3.0, size=n)
        factor = float(rng.uniform(0.2, 1.5))
        exposures = factor * merits
        groups = rng.integers(0, 2, size=n)
        if len(np.unique(groups)) < 2:
            groups[0], groups[-1] = 0, 1
        worst = max(worst, fairness.individual_disparity(exposures, merits))
        worst = max(worst, fairness.group_disparity(exposures, merits, groups))
    ok = worst <= 1e-10
    report(capsys, ok, f"proportional exposure: max disparity {worst:.1e} "
                       f"(<= 1e-10)")
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# Criterion 6: trade-off study on the simulated dataset
# ---------------------------------------------------------------------------


def test_tradeoff_sweep_on_simulated_data(capsys, sweep_outcome):
    lams = (0.0, 1.0, 5.0, 25.0)
    disp = [sweep_outcome[l]["disparity"] for l in lams]
    ratios = [sweep_outcome[l]["weight_ratio"] for l in lams]
    elapsed = sweep_outcome["elapsed"]
    non_increasing = all(disp[i + 1] <= disp[i] for i in range(3))
    crushed = disp[3] < 0.2 * disp[0]
    ratio_up = all(ratios[i + 1] > ratios[i] for i in range(3))
    ok = non_increasing and crushed and ratio_up and elapsed < 300.0
    report(capsys, ok,
           f"trade-off sweep: disparity {['%.5f' % d for d in disp]} "
           f"non-increasing {non_increasing}, lam25/lam0 "
           f"{disp[3] / disp[0]:.3f} (< 0.2), weight ratio "
           f"{['%.2f' % r for r in ratios]} increasing {ratio_up}, "
           f"{elapsed:.0f}s (< 300s)")
    assert non_increasing
    assert crushed
    assert ratio_up
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 7: plain utility training solves a separable dataset
# ---------------------------------------------------------------------------


def test_learns_separable_dataset_to_perfect_ndcg(capsys):
    rng = np.random.default_rng(42)
    queries = []
    for qi in range(30):
        docs = []
        for _ in range(8):
            x = rng.integers(0, 4, size=2).astype(float)
            docs.append(data.Document(x, float(np.clip(x[0] + x[1], 0.0, 5.0))))
        queries.append(data.Query(str(qi + 1), docs))
    ds = data.Dataset(queries, 2)
    metric = metrics.UtilityMetric.parse("ndcg@10")

    init_seed = np.random.SeedSequence(0).spawn(4)[0]
    init = policy.init_model("linear", 2, np.random.default_rng(init_seed))
    at_init = float(np.mean([
        metric.value(policy.argmax_ranking(init.scores(q.feature_matrix)),
                     q.relevances) for q in ds]))

    started = time.monotonic()
    cfg = trainer.TrainConfig(
        lam=0.0, gamma=0.0, sample_size=25, learning_rate=0.01,
        optimizer="adam", epochs=200, metric=metric, disparity=None,
        model="linear", seed=0, patience=0, eval_samples=8)
    record = trainer.train(ds, ds, cfg)
    elapsed = time.monotonic() - started
    first_perfect = next((i + 1 for i, v in enumerate(record.train_metric)
                          if v == 1.0), None)
    ok = at_init < 1.0 and first_perfect is not None and elapsed < 60.0
    report(capsys, ok, f"learnability: init ndcg {at_init:.4f}, reached 1.0 at "
                       f"epoch {first_perfect} (<= 200) in {elapsed:.1f}s "
                       f"(< 60s)")
    assert at_init < 1.0
    assert first_perfect is not None
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 8: LP post-processing slack and its disparity floor
# ---------------------------------------------------------------------------


def test_lp_baseline_slack_and_disparity_floor(capsys, sim_split, sweep_outcome):
    train_set, _ = sim_split
    merit = fairness.MeritFunction.parse("identity")
    regression = baselines.fit_linear_regression(train_set)
    worst_xi = 0.0
    for query in train_set:
        estimates = regression.scores(query.feature_matrix)
        result = baselines.solve_fair_lp(estimates, query.groups, 0.2, merit)
        worst_xi = max(worst_xi, result.xi)

    grid_disparity = []
    for lam in baselines.lp_lambda_grid():
        per_query = []
        for query in train_set:
            estimates = regression.scores(query.feature_matrix)
            result = baselines.solve_fair_lp(estimates, query.groups, lam, merit)
            _, disparity = baselines.evaluate_exposures(
                result.exposures, query.relevances, query.groups, merit)
            per_query.append(disparity)
        grid_disparity.append(float(np.mean(per_query)))
    lp_floor = min(grid_disparity)
    sweep_best = min(sweep_outcome[l]["disparity"]
                     for l in (0.0, 1.0, 5.0, 25.0))
    slack_ok = worst_xi <= 1e-8
    floor_ok = lp_floor >= sweep_best
    ok = slack_ok and floor_ok
    report(capsys, ok, f"LP baseline: worst slack at top penalty "
                       f"{worst_xi:.1e} (<= 1e-8); true-merit disparity floor "
                       f"{lp_floor:.5f} >= policy sweep best {sweep_best:.5f}")
    assert slack_ok
    assert floor_ok


# ---------------------------------------------------------------------------
# Criterion 9: reruns are byte-identical
# ---------------------------------------------------------------------------


def test_pipeline_outputs_are_byte_deterministic(capsys, tmp_path):
    def run(argv):
        assert cli.main([str(a) for a in argv]) == 0

    data_dir = tmp_path / "d"
    run(["generate", "simulated", "--out", data_dir, "--queries", 10,
         "--docs", 5, "--seed", 1])
    letor = data_dir / "data.letor"

    train_args = ["train", "--train", letor, "--lambda", 1, "--disparity",
                  "group", "--gamma", 0, "--epochs", 2, "--samples", 5]
    run(train_args + ["--out", tmp_path / "t1"])
    run(train_args + ["--out", tmp_path / "t2"])

    sweep_args = ["sweep", "--train", letor, "--lambdas", "0,1", "--seeds",
                  "0", "--gamma", 0, "--epochs", 2, "--samples", 5]
    run(sweep_args + ["--out", tmp_path / "s1"])
    run(sweep_args + ["--out", tmp_path / "s2"])

    eval_args = ["eval", "--checkpoint", tmp_path / "t1" / "checkpoint.txt",
                 "--data", letor, "--disparity", "group"]
    run(eval_args + ["--out", tmp_path / "e1"])
    run(eval_args + ["--out", tmp_path / "e2"])

    pairs = [
        (tmp_path / "t1" / "record.json", tmp_path / "t2" / "record.json"),
        (tmp_path / "t1" / "checkpoint.txt", tmp_path / "t2" / "checkpoint.txt"),
        (tmp_path / "t1" / "curves.csv", tmp_path / "t2" / "curves.csv"),
        (tmp_path / "s1" / "summary.csv", tmp_path / "s2" / "summary.csv"),
        (tmp_path / "s1" / "summary_stats.csv",
         tmp_path / "s2" / "summary_stats.csv"),
        (tmp_path / "e1" / "report.json", tmp_path / "e2" / "report.json"),
        (tmp_path / "e1" / "report.csv", tmp_path / "e2" / "report.csv"),
    ]
    mismatched = [a.name for a, b in pairs if a.read_bytes() != b.read_bytes()]
    record = json.loads((tmp_path / "t1" / "record.json").read_text())
    ok = not mismatched and record["method"] == "pg-rank"
    report(capsys, ok, f"determinism: {len(pairs)} rerun artifact pairs "
                       f"byte-identical"
                       + (f", mismatches: {mismatched}" if mismatched else ""))
    assert not mismatched
    assert record["method"] == "pg-rank"
