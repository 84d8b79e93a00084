"""Plackett-Luce policy: probabilities, sampling, gradients, models."""
import math
import re
import warnings

import numpy as np
import pytest

from fairltr import policy
from fairltr.ranking import all_rankings


def exact_distribution(scores):
    n = len(scores)
    orders = np.stack(list(all_rankings(n)))
    probs = np.exp(policy.ranking_logprobs(scores, orders))
    return orders, probs


def test_ranking_logprob_hand_value():
    scores = np.array([math.log(2.0), 0.0])
    assert policy.ranking_logprob(scores, np.array([0, 1])) == \
        pytest.approx(math.log(2.0 / 3.0), abs=1e-14)
    assert policy.ranking_logprob(scores, np.array([1, 0])) == \
        pytest.approx(math.log(1.0 / 3.0), abs=1e-14)


def test_ranking_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        scores = rng.normal(scale=2.0, size=n)
        _, probs = exact_distribution(scores)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_logprob_invariant_to_score_shift():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=5)
    order = rng.permutation(5)
    base = policy.ranking_logprob(scores, order)
    for shift in (-7.0, 3.5, 20.0):
        assert policy.ranking_logprob(scores + shift, order) == \
            pytest.approx(base, abs=1e-10)


def test_extreme_scores_stay_finite_and_coherent():
    """Clamping acts on the scores once, so every quantity matches the
    policy induced by the clamped scores."""
    scores = np.array([1e6, -1e6, 0.0])
    clamped = np.array([50.0, -50.0, 0.0])
    orders, probs = exact_distribution(scores)
    assert np.all(np.isfinite(probs))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    for order in orders:
        assert policy.ranking_logprob(scores, order) == \
            pytest.approx(policy.ranking_logprob(clamped, order), abs=1e-12)


def test_ranking_logprobs_matches_scalar():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=5)
    orders = np.stack([rng.permutation(5) for _ in range(10)])
    batch = policy.ranking_logprobs(scores, orders)
    singles = [policy.ranking_logprob(scores, o) for o in orders]
    np.testing.assert_allclose(batch, singles, atol=1e-13)


def test_sample_rankings_are_valid_permutations():
    rng = np.random.default_rng(3)
    scores = np.array([0.5, -1.0, 2.0, 0.0])
    draws = policy.sample_rankings(scores, 200, rng)
    assert draws.shape == (200, 4)
    for row in draws:
        assert sorted(row) == [0, 1, 2, 3]


class ConstantDraws:
    """Stub generator whose every uniform draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


@pytest.mark.parametrize("draw", [0.0, np.nextafter(1.0, 0.0)])
def test_sampler_edge_draws_yield_permutations(draw):
    scores = np.array([60.0, -60.0, 0.0, 60.0, -60.0, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = policy.sample_rankings(scores, 3, ConstantDraws(draw))
    assert draws.shape == (3, 6)
    for row in draws:
        assert sorted(row) == list(range(6))


def test_sampler_frequencies_match_exact_probabilities():
    rng = np.random.default_rng(4)
    scores = np.array([0.9, -0.3, 0.4])
    orders, probs = exact_distribution(scores)
    size = 50000
    draws = policy.sample_rankings(scores, size, rng)
    keys = draws @ np.array([9, 3, 1])
    expected_keys = orders @ np.array([9, 3, 1])
    for key, p in zip(expected_keys, probs):
        freq = np.mean(keys == key)
        se = math.sqrt(p * (1.0 - p) / size)
        assert abs(freq - p) < 4.0 * se + 1e-12


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("kind", ["random", "tied", "clamped"])
def test_sampled_position_marginals_match_subset_dp(n, kind):
    rng = np.random.default_rng(10 * n + len(kind))
    scores = {
        "random": rng.normal(scale=1.5, size=n),
        "tied": np.round(rng.normal(size=n)),
        "clamped": np.array([60.0, -60.0, 0.0, 60.0, -60.0, 1.5])[:n],
    }[kind]
    size = 200_000
    draws = policy.sample_rankings(scores, size, rng)
    sampled = np.zeros((n, n))
    np.add.at(sampled, (draws, np.broadcast_to(np.arange(n), draws.shape)), 1.0)
    sampled /= size
    exact = policy.position_marginals(scores)
    se = np.sqrt(exact * (1.0 - exact) / size)
    assert np.all(np.abs(sampled - exact) <= 4.0 * se + 1e-12)


def test_argmax_ranking_is_modal_and_stable():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores = rng.normal(size=5)
        orders, probs = exact_distribution(scores)
        top = orders[np.argmax(probs)]
        np.testing.assert_array_equal(policy.argmax_ranking(scores), top)
    np.testing.assert_array_equal(policy.argmax_ranking(np.array([1.0, 2.0, 1.0])),
                                  [1, 0, 2])


def test_logprob_grad_hand_value():
    got = policy.logprob_grads_scores(np.zeros(2), np.array([[0, 1]]))[0]
    np.testing.assert_allclose(got, [0.5, -0.5], atol=1e-14)


def test_logprob_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    step = 1e-6
    for _ in range(10):
        scores = rng.normal(size=5)
        order = rng.permutation(5)
        grad = policy.logprob_grads_scores(scores, order[None])[0]
        for d in range(5):
            e = np.zeros(5)
            e[d] = step
            fd = (policy.ranking_logprob(scores + e, order)
                  - policy.ranking_logprob(scores - e, order)) / (2 * step)
            assert grad[d] == pytest.approx(fd, abs=1e-7)


def test_logprob_grads_sum_to_zero_rowwise():
    rng = np.random.default_rng(7)
    scores = rng.normal(size=6)
    orders = policy.sample_rankings(scores, 50, rng)
    grads = policy.logprob_grads_scores(scores, orders)
    assert grads.shape == (50, 6)
    np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-10)
    single = policy.logprob_grads_scores(scores, orders[17:18])[0]
    np.testing.assert_allclose(grads[17], single, atol=1e-12)


def test_softmax_entropy_value_and_gradient():
    value, grad = policy.softmax_entropy(np.zeros(4))
    assert value == pytest.approx(math.log(4.0), abs=1e-12)
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    rng = np.random.default_rng(8)
    scores = rng.normal(size=5)
    value, grad = policy.softmax_entropy(scores)
    step = 1e-6
    for d in range(5):
        e = np.zeros(5)
        e[d] = step
        hi, _ = policy.softmax_entropy(scores + e)
        lo, _ = policy.softmax_entropy(scores - e)
        assert grad[d] == pytest.approx((hi - lo) / (2 * step), abs=1e-7)


def test_draw_policy_sample_bundles_grads():
    rng = np.random.default_rng(9)
    scores = np.array([0.2, -0.1, 0.7])
    sample = policy.draw_policy_sample(scores, 25, rng)
    assert sample.size == 25
    np.testing.assert_allclose(
        sample.logprob_grads,
        policy.logprob_grads_scores(scores, sample.rankings), atol=1e-13)


# ---------------------------------------------------------------------------
# Scoring models
# ---------------------------------------------------------------------------


def test_linear_model_scores_and_backprop():
    model = policy.LinearModel(np.array([2.0, -1.0]), bias=np.array([0.5]))
    X = np.array([[1.0, 1.0], [0.0, 3.0]])
    np.testing.assert_allclose(model.scores(X), [1.5, -2.5])
    up = np.array([1.0, -2.0])
    grads = model.backprop(X, up)
    np.testing.assert_allclose(grads[0], X.T @ up)
    np.testing.assert_allclose(grads[1], [up.sum()])


def test_mlp_backprop_matches_finite_differences():
    rng = np.random.default_rng(10)
    model = policy.init_model("mlp1", 3, rng, hidden_units=4)
    X = rng.normal(size=(5, 3))
    up = rng.normal(size=5)
    grads = model.backprop(X, up)
    params = model.param_arrays()
    assert len(grads) == len(params)
    step = 1e-6
    for p, g in zip(params, grads):
        flat = p.ravel()
        gflat = np.asarray(g).ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            hi = float(model.scores(X) @ up)
            flat[idx] = keep - step
            lo = float(model.scores(X) @ up)
            flat[idx] = keep
            assert gflat[idx] == pytest.approx((hi - lo) / (2 * step), abs=1e-6)


def test_init_model_is_deterministic_per_seed():
    a = policy.init_model("mlp1", 4, np.random.default_rng(11), hidden_units=8)
    b = policy.init_model("mlp1", 4, np.random.default_rng(11), hidden_units=8)
    assert policy.models_equal(a, b)
    c = policy.init_model("mlp1", 4, np.random.default_rng(12), hidden_units=8)
    assert not policy.models_equal(a, c)


def test_model_copy_is_independent():
    model = policy.init_model("linear", 2, np.random.default_rng(0))
    clone = model.copy()
    clone.weights[0] += 1.0
    assert not policy.models_equal(model, clone)


@pytest.mark.parametrize("kind,bias", [("linear", False), ("linear", True),
                                       ("mlp1", False)])
def test_checkpoint_round_trip_is_bit_exact(tmp_path, kind, bias):
    rng = np.random.default_rng(13)
    model = policy.init_model(kind, 3, rng, hidden_units=5, use_bias=bias)
    for p in model.param_arrays():
        p += rng.normal(scale=1e6, size=p.shape) * 1e-12    # awkward floats
    path = tmp_path / "model.txt"
    policy.save_model(model, path)
    again = policy.load_model(path)
    assert policy.models_equal(model, again)
    X = rng.normal(size=(4, 3))
    np.testing.assert_array_equal(model.scores(X), again.scores(X))
    policy.save_model(again, tmp_path / "second.txt")
    assert (tmp_path / "second.txt").read_text() == path.read_text()


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(policy.CheckpointError):
        policy.load_model(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_model_names_a_non_finite_value(tmp_path, value):
    path = tmp_path / "model.txt"
    path.write_text(f"fairltr-model 1\nkind linear\nfeature_dim 2\nbias 1\n"
                    f"w 0.1 0.2\nb {value}\n")
    with pytest.raises(policy.CheckpointError,
                       match=f"^{re.escape(str(path))}: non-finite value "
                             f"in 'b' line$"):
        policy.load_model(path)


def test_init_model_rejects_unknown_kind():
    with pytest.raises(ValueError):
        policy.init_model("forest", 3, np.random.default_rng(0))
