"""The benchmark tracer's patch points exist and are restored on removal.

``bench/tracer.py`` wraps functions and methods of ``fairltr`` by name.  A
rename in the package breaks only traced benchmark runs, so this test
installs the tracer, checks the wrappers are in place, removes it, and
checks every attribute is its original object again.  It runs no benchmark
and writes no files.  The tracer's counters are checked against one
evaluation pass and one short training run, whose layers the benchmark
reports.
"""
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from fairltr import data, fairness, metrics, policy, trainer
from fairltr.ranking import ENUMERATION_LIMIT

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("fairltr_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_remove_restore_every_patch_point():
    tracer = load_tracer_module().Tracer()
    named = [(trainer, "disparity_score_grad"), (trainer, "mc_exposure"),
             (trainer, "exposure_of_policy"), (trainer, "_evaluate"),
             (fairness.DisparityConfig, "from_exposures"),
             (fairness, "mc_exposure"), (metrics.UtilityMetric, "value"),
             (metrics.UtilityMetric, "batch_rewards"),
             (policy, "logprob_grads_scores")]
    before = {(owner, attr): getattr(owner, attr) for owner, attr in named}
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert len(patched) > len(named)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
        assert {(owner, attr) for owner, attr, _ in patched} >= set(before)
    finally:
        tracer.remove()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original


def test_tracer_counts_one_block_pass_and_every_sampled_ranking():
    """One evaluation of a model, or of a block of K members, is one
    ``trainer.evaluate`` call.  Above ``ENUMERATION_LIMIT`` documents its
    Monte-Carlo block is one ``exposure_of_policy`` call whose one draw the
    members share, and one sampler call of ``Q * S`` rankings per member;
    at the limit the whole ``(K, Q, n)`` block is one exact call, and
    nothing is sampled.  Each metric values the block in one call, so
    ``metrics.value`` is not called, and the disparities of all its queries
    and members are one ``from_exposures`` call."""
    queries, samples = 6, 12
    for members, docs in itertools.product((1, 3), (ENUMERATION_LIMIT + 3,
                                                    ENUMERATION_LIMIT)):
        dataset = data.generate_simulated(num_queries=queries, docs_per_query=docs,
                                          seed=2)
        model = policy.init_model("linear", dataset.feature_dim,
                                  np.random.default_rng(0))
        if members > 1:
            model = model.with_params(np.random.default_rng(1).normal(
                size=(members, model.params.size)))
        tracer = load_tracer_module().Tracer()
        try:
            tracer.install()
            trainer.evaluate(model, dataset, metrics.UtilityMetric.parse("ndcg@10"),
                             fairness.DisparityConfig.parse("group"), samples)
        finally:
            tracer.remove()
        counts = tracer.snapshot()
        assert counts["trainer.evaluate.calls"] == 1
        # One block: its queries fit EVAL_BLOCK_DRAWS, checked below.
        assert counts["fairness.from_exposures.calls"] == 1
        assert "metrics.value.calls" not in counts
        if docs > ENUMERATION_LIMIT:
            assert queries * samples * docs <= trainer.EVAL_BLOCK_DRAWS
            assert "fairness.exposure_exact.calls" not in counts
            assert counts["fairness.exposure_mc.calls"] == 1
            assert counts["fairness.mc_exposure.calls"] == members
            assert counts["policy.sample_rankings.calls"] == members
            assert counts["policy.sample_rankings.rankings"] == \
                members * queries * samples
        else:
            assert "fairness.exposure_mc.calls" not in counts
            assert "policy.sample_rankings.calls" not in counts
            assert queries * 2 ** docs * docs <= trainer.EVAL_BLOCK_DRAWS
            assert counts["fairness.exposure_exact.calls"] == 1
            # The tracer counts len(values)! rankings per exact call, the
            # factorial of the block's leading (member) axis.
            assert counts["fairness.exposure_exact.rankings_enumerated"] == \
                math.factorial(members)


@pytest.mark.parametrize("model", ["linear", "mlp1"])
def test_tracer_counts_one_call_per_training_step(model):
    """``bench/run.py`` fails a round whose ``trainer.optimizer_step.calls``
    is not the workload's step count, so every per-step layer must count
    exactly one call per training step."""
    dataset = data.generate_simulated(num_queries=8, docs_per_query=6, seed=4)
    train_set, val_set = data.split_dataset(dataset, 0.75, seed=0)
    config = trainer.TrainConfig(
        lam=5.0, gamma=0.5, sample_size=6, epochs=2, patience=0,
        disparity=fairness.DisparityConfig.parse("group"), model=model,
        hidden_units=4, eval_samples=8)
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        record = trainer.train(train_set, val_set, config)
    finally:
        tracer.remove()
    steps = record.epochs_run * len(train_set)
    assert steps > 0
    counts = tracer.snapshot()
    for layer in ("trainer.optimizer_step", "policy.backprop",
                  "policy.logprob_grads_scores", "trainer.disparity_score_grad"):
        assert counts[f"{layer}.calls"] == steps, layer
    assert counts["trainer.train.calls"] == 1


def test_cached_position_bias_vector_is_read_only():
    bias = metrics.position_bias_vector(10)
    assert bias is metrics.position_bias_vector(10)
    with pytest.raises(ValueError):
        bias[0] = 2.0
    assert bias[0] == 1.0


@pytest.mark.parametrize("model", ["linear", "mlp1"])
def test_tracer_counts_one_optimizer_step_per_member_step_of_a_grid(model):
    """A grid of K members is one ``train`` call that takes one block step
    per query, through the traced layers of a single run, and one
    optimizer step per member, so
    ``trainer.optimizer_step.calls`` stays the number of member-steps that
    ``bench/run.py`` checks."""
    dataset = data.generate_simulated(num_queries=8, docs_per_query=9, seed=4)
    train_set, val_set = data.split_dataset(dataset, 0.75, seed=0)
    configs = [trainer.TrainConfig(
        lam=lam, gamma=0.5, sample_size=6, epochs=2, patience=0,
        disparity=fairness.DisparityConfig.parse("group"), model=model,
        hidden_units=4, eval_samples=8) for lam in (0.0, 5.0, 25.0)]
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        records = trainer.train(train_set, val_set, configs)
    finally:
        tracer.remove()
    steps = len(train_set) * configs[0].epochs
    assert [r.epochs_run for r in records] == [configs[0].epochs] * len(configs)
    counts = tracer.snapshot()
    assert counts["trainer.train.calls"] == 1
    assert counts["trainer.optimizer_step.calls"] == len(configs) * steps
    for layer in ("policy.logprob_grads_scores", "policy.backprop",
                  "metrics.batch_rewards", "trainer.disparity_score_grad"):
        assert counts[f"{layer}.calls"] == steps, layer
    # Evaluation is one block pass: two splits an epoch, and delta_lambda;
    # each member samples its exposures on its own from the shared draws.
    assert counts["trainer.evaluate.calls"] == 2 * configs[0].epochs + 1
    assert counts["fairness.exposure_mc.calls"] == 2 * configs[0].epochs + 1
    assert counts["fairness.from_exposures.calls"] == 2 * configs[0].epochs + 1
    evaluation_samples = counts["policy.sample_rankings.calls"] - steps
    assert evaluation_samples == len(configs) * (2 * configs[0].epochs + 1)


def test_tracer_names_an_exact_member_block_and_counts_it():
    """The tracer names the exposure layer by ``result.mode`` and counts an
    exact result by its ``len``; a ``(K, Q, n)`` exact block, which the
    evaluation passes whole, is named ``fairness.exposure_exact`` and counted
    without error, directly and through the installed wrapper."""
    tracer_module = load_tracer_module()
    scores = np.random.default_rng(6).normal(size=(3, 4, ENUMERATION_LIMIT))
    result = fairness.exposure_of_policy(scores)
    assert result.values.shape == scores.shape
    assert tracer_module._exposure_layer(result) == "fairness.exposure_exact"
    assert tracer_module._enumerated((scores,), result) == {
        "rankings_enumerated": math.factorial(3)}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        traced = trainer.exposure_of_policy(scores)
    finally:
        tracer.remove()
    assert traced.values.tobytes() == result.values.tobytes()
    counts = tracer.snapshot()
    assert counts["fairness.exposure_exact.calls"] == 1
    assert counts["fairness.exposure_exact.rankings_enumerated"] == math.factorial(3)
