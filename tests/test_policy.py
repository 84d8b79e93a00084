"""Plackett-Luce policy: probabilities, sampling, gradients, models."""
import math
import re
import warnings

import numpy as np
import pytest

from fairltr import policy
import oracle


def exact_distribution(scores):
    n = len(scores)
    orders = np.stack(list(oracle.all_rankings(n)))
    probs = np.exp(oracle.ranking_logprobs(scores, orders))
    return orders, probs


def test_ranking_logprob_hand_value():
    scores = np.array([math.log(2.0), 0.0])
    assert oracle.ranking_logprobs(scores, np.array([0, 1])) == \
        pytest.approx(math.log(2.0 / 3.0), abs=1e-14)
    assert oracle.ranking_logprobs(scores, np.array([1, 0])) == \
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
    base = oracle.ranking_logprobs(scores, order)
    for shift in (-7.0, 3.5, 20.0):
        assert oracle.ranking_logprobs(scores + shift, order) == \
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
        assert oracle.ranking_logprobs(scores, order) == \
            pytest.approx(oracle.ranking_logprobs(clamped, order), abs=1e-12)


def test_ranking_logprobs_matches_scalar():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=5)
    orders = np.stack([rng.permutation(5) for _ in range(10)])
    batch = oracle.ranking_logprobs(scores, orders)
    singles = [oracle.ranking_logprobs(scores, o) for o in orders]
    np.testing.assert_allclose(batch, singles, atol=1e-13)


def test_sample_rankings_are_valid_permutations():
    rng = np.random.default_rng(3)
    scores = np.array([0.5, -1.0, 2.0, 0.0])
    draws = policy.sample_rankings(scores, policy.gumbel_noise(rng, (200, 4)))
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
        draws = policy.sample_rankings(
            scores, policy.gumbel_noise(ConstantDraws(draw), (3, 6)))
    assert draws.shape == (3, 6)
    for row in draws:
        assert sorted(row) == list(range(6))


def test_sampler_frequencies_match_exact_probabilities():
    rng = np.random.default_rng(4)
    scores = np.array([0.9, -0.3, 0.4])
    orders, probs = exact_distribution(scores)
    size = 50000
    draws = policy.sample_rankings(scores, policy.gumbel_noise(rng, (size, 3)))
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
    draws = policy.sample_rankings(scores, policy.gumbel_noise(rng, (size, n)))
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


def one_hot(size, s):
    """Weights that pick ranking ``s`` of a batch of ``size``: the weighted
    gradient is then that ranking's own."""
    weights = np.zeros(size)
    weights[s] = 1.0
    return weights


def test_logprob_grad_hand_value():
    got = policy.logprob_grads_scores(np.zeros(2), np.array([[0, 1]]), np.ones(1))
    np.testing.assert_allclose(got, [0.5, -0.5], atol=1e-14)


def test_logprob_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    step = 1e-6
    for _ in range(10):
        scores = rng.normal(size=5)
        order = rng.permutation(5)
        grad = policy.logprob_grads_scores(scores, order[None], np.ones(1))
        for d in range(5):
            e = np.zeros(5)
            e[d] = step
            fd = (oracle.ranking_logprobs(scores + e, order)
                  - oracle.ranking_logprobs(scores - e, order)) / (2 * step)
            assert grad[d] == pytest.approx(fd, abs=1e-7)


def test_logprob_grads_sum_to_zero_rowwise():
    """Each ranking's gradient sums to zero, so any weighted sum of them
    does; a one-hot weight picks one ranking's, as a batch of one gives."""
    rng = np.random.default_rng(7)
    scores = rng.normal(size=6)
    orders = policy.sample_rankings(scores, policy.gumbel_noise(rng, (50, 6)))
    weighted = policy.logprob_grads_scores(scores, orders, rng.normal(size=50))
    assert weighted.shape == (6,)
    np.testing.assert_allclose(weighted.sum(), 0.0, atol=1e-10)
    for s in range(50):
        row = policy.logprob_grads_scores(scores, orders, one_hot(50, s))
        np.testing.assert_allclose(row.sum(), 0.0, atol=1e-10)
    single = policy.logprob_grads_scores(scores, orders[17:18], np.ones(1))
    np.testing.assert_allclose(policy.logprob_grads_scores(scores, orders, one_hot(50, 17)),
                               single, atol=1e-12)


def stagewise_logprob_grad(scores, order):
    """Reference: the gradient of one ranking's log-probability written
    stage by stage in ``np.longdouble``.  Stage i adds ``e_{r_i}`` and
    subtracts the softmax over the documents not yet placed."""
    s = np.clip(np.asarray(scores, dtype=np.longdouble),
                -policy.SCORE_CLAMP, policy.SCORE_CLAMP)
    grad = np.zeros(len(s), dtype=np.longdouble)
    for i, doc in enumerate(order):
        rest = np.asarray(order[i:])
        weights = np.exp(s[rest] - s[rest].max())
        grad[doc] += 1
        grad[rest] -= weights / weights.sum()
    return grad


@pytest.mark.parametrize("n", [1, 2, 7, 10, 30])
@pytest.mark.parametrize("kind", ["random", "tied", "clamped"])
def test_logprob_grads_match_a_long_double_stagewise_reference(n, kind):
    rng = np.random.default_rng(40 + n)
    if kind == "random":
        scores = rng.normal(scale=3.0, size=n)
    elif kind == "tied":
        scores = rng.integers(0, 2, size=n).astype(float)
    else:
        scores = rng.choice([-60.0, 60.0, 0.0], size=n)
    orders = policy.sample_rankings(scores, policy.gumbel_noise(rng, (20, n)))
    rows = [stagewise_logprob_grad(scores, order) for order in orders]
    for s, want in enumerate(rows):
        got = policy.logprob_grads_scores(scores, orders, one_hot(20, s))
        np.testing.assert_allclose(got, want.astype(float), rtol=0, atol=1e-13)
    # A weighted sum errs by at most the weighted rows' own tolerances.
    weights = rng.uniform(-1.0, 1.0, 20)
    want = sum(np.longdouble(c) * row for c, row in zip(weights, rows))
    np.testing.assert_allclose(policy.logprob_grads_scores(scores, orders, weights),
                               want.astype(float), rtol=0,
                               atol=1e-13 * np.abs(weights).sum())


def test_logprob_grad_of_one_document_is_exactly_zero():
    weights = np.random.default_rng(41).normal(size=(3, 9))
    for score in (0.0, 3.7, -60.0, 60.0):
        grads = policy.logprob_grads_scores(np.array([score]), np.zeros((9, 1), int),
                                            weights[0])
        assert grads.tolist() == [0.0]
        block = policy.logprob_grads_scores(np.full((3, 1), score),
                                            np.zeros((3, 9, 1), int), weights)
        assert block.tolist() == [[0.0]] * 3


@pytest.mark.parametrize("n", [1, 2, 7, 10, 30, 150])
@pytest.mark.parametrize("kind", ["random", "clamped"])
def test_weighted_logprob_gradient_matches_the_per_ranking_reference(n, kind):
    """For random weights, the one-scatter weighted gradient equals the
    weighted sum of the reference's per-ranking gradients, at short and long
    rows and at scores of +-SCORE_CLAMP, to 1e-12 of
    the weights' total ``sum |c_s|``, and at random scores to 1e-12 of its
    largest entry too.  (At clamped scores a ranking can have probability 1
    to rounding, so every reference row and the exact sum are 0, while the
    sum of weights less the scattered stage sums leaves about eps times the
    weights' total.)  Member k of a block has the bits of its own call, with
    one sampled ranking or many."""
    rng = np.random.default_rng(50 + n)
    if kind == "random":
        scores = rng.normal(scale=3.0, size=(3, n))
    else:
        scores = rng.choice([-policy.SCORE_CLAMP, policy.SCORE_CLAMP, 0.0], size=(3, n))
    for size in (1, 40):
        orders = policy.sample_rankings(scores, policy.gumbel_noise(rng, (size, n)))
        orders = orders.reshape(3, size, n)
        weights = rng.normal(size=(3, size))
        block = policy.logprob_grads_scores(scores, orders, weights)
        assert block.shape == (3, n)
        for k in range(3):
            want = weights[k] @ oracle.logprob_grad_rows(scores[k], orders[k])
            error = np.abs(block[k] - want).max()
            assert error <= 1e-12 * np.abs(weights[k]).sum()
            if kind == "random":
                assert error <= 1e-12 * np.abs(want).max()
            alone = policy.logprob_grads_scores(scores[k], orders[k], weights[k])
            assert alone.tobytes() == block[k].tobytes()


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
    """A sample keeps its scores, and its score gradient of per-ranking
    weights is their weighted mean of the rankings' gradients."""
    rng = np.random.default_rng(9)
    scores = np.array([0.2, -0.1, 0.7])
    sample = policy.draw_policy_sample(scores, 25, rng)
    assert sample.size == 25
    assert sample.scores.tobytes() == scores.tobytes()
    weights = rng.normal(size=25)
    got = sample.score_grad(weights)
    assert got.tobytes() == (policy.logprob_grads_scores(
        scores, sample.rankings, weights) / 25).tobytes()
    np.testing.assert_allclose(
        got, weights @ oracle.logprob_grad_rows(scores, sample.rankings) / 25,
        atol=1e-13)


# ---------------------------------------------------------------------------
# Scoring models
# ---------------------------------------------------------------------------


def test_linear_model_scores_and_backprop():
    model = policy.LinearModel(np.array([2.0, -1.0]), bias=np.array([0.5]))
    X = np.array([[1.0, 1.0], [0.0, 3.0]])
    np.testing.assert_allclose(model.scores(X), [1.5, -2.5])
    up = np.array([1.0, -2.0])
    grads = model.backprop(X, up)
    assert grads.shape == model.params.shape
    np.testing.assert_allclose(grads[:2], X.T @ up)
    np.testing.assert_allclose(grads[2:], [up.sum()])


def test_mlp_backprop_matches_finite_differences():
    rng = np.random.default_rng(10)
    model = policy.init_model("mlp1", 3, rng, hidden_units=4)
    X = rng.normal(size=(5, 3))
    up = rng.normal(size=5)
    grads = model.backprop(X, up)
    flat = model.params
    assert grads.shape == flat.shape
    step = 1e-6
    for idx in range(flat.size):
        keep = flat[idx]
        flat[idx] = keep + step
        hi = float(model.scores(X) @ up)
        flat[idx] = keep - step
        lo = float(model.scores(X) @ up)
        flat[idx] = keep
        assert grads[idx] == pytest.approx((hi - lo) / (2 * step), abs=1e-6)


def test_init_model_is_deterministic_per_seed():
    a = policy.init_model("mlp1", 4, np.random.default_rng(11), hidden_units=8)
    b = policy.init_model("mlp1", 4, np.random.default_rng(11), hidden_units=8)
    assert oracle.models_equal(a, b)
    c = policy.init_model("mlp1", 4, np.random.default_rng(12), hidden_units=8)
    assert not oracle.models_equal(a, c)


MODEL_KINDS = [("linear", False), ("linear", True), ("mlp1", False)]


@pytest.mark.parametrize("kind,bias", MODEL_KINDS)
def test_named_arrays_are_views_of_the_parameter_vector(kind, bias):
    model = oracle.model_of(kind, 3, np.random.default_rng(14),
                            hidden_units=4, bias=bias)
    arrays = oracle.param_arrays(model)
    assert model.params.ndim == 1 and model.params.flags.c_contiguous
    assert model.params.size == sum(a.size for a in arrays)
    for a in arrays:
        assert np.shares_memory(a, model.params)
    np.testing.assert_array_equal(
        model.params, np.concatenate([a.ravel() for a in arrays]))
    model.params += 1.0      # a write to the vector shows in every array
    np.testing.assert_array_equal(
        model.params, np.concatenate([a.ravel() for a in arrays]))


def test_model_copy_is_independent():
    """A copy owns its vector: ``train`` keeps its best model as a copy,
    which must not track the live model."""
    for kind, bias in MODEL_KINDS:
        model = oracle.model_of(kind, 2, np.random.default_rng(0),
                                hidden_units=3, bias=bias)
        clone = model.copy()
        assert oracle.models_equal(model, clone)
        assert not np.shares_memory(clone.params, model.params)
        oracle.param_arrays(clone)[0][0] += 1.0
        assert not oracle.models_equal(model, clone)
        clone = model.copy()
        model.params *= 2.0
        assert not oracle.models_equal(model, clone)


@pytest.mark.parametrize("kind,bias", [("linear", False), ("linear", True),
                                       ("mlp1", False)])
def test_checkpoint_round_trip_is_bit_exact(tmp_path, kind, bias):
    rng = np.random.default_rng(13)
    model = oracle.model_of(kind, 3, rng, hidden_units=5, bias=bias)
    for p in oracle.param_arrays(model):
        p += rng.normal(scale=1e6, size=p.shape) * 1e-12    # awkward floats
    path = tmp_path / "model.txt"
    policy.save_model(model, path)
    again = policy.load_model(path)
    assert oracle.models_equal(model, again)
    X = rng.normal(size=(4, 3))
    np.testing.assert_array_equal(model.scores(X), again.scores(X))
    policy.save_model(again, tmp_path / "second.txt")
    assert (tmp_path / "second.txt").read_text() == path.read_text()


@pytest.mark.parametrize("model,text", [
    (policy.LinearModel(np.array([0.5, -0.25])),
     "kind linear\nfeature_dim 2\nbias 0\nw 0.5 -0.25\n"),
    (policy.LinearModel(np.array([0.5, -0.25]), np.array([0.1])),
     "kind linear\nfeature_dim 2\nbias 1\nw 0.5 -0.25\nb 0.10000000000000001\n"),
    (policy.MLP1Model(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                      np.array([0.5, -0.5]), np.array([2.0, -1.0]), np.array([0.125])),
     "kind mlp1\nfeature_dim 3\nhidden 2\nW 1 2\nW 3 4\nW 5 6\n"
     "b_hidden 0.5 -0.5\nw_out 2 -1\nb_out 0.125\n"),
], ids=["linear", "linear-bias", "mlp1"])
def test_save_model_writes_the_checkpoint_format(tmp_path, model, text):
    """A line per header field, then a line per part or matrix row."""
    path = tmp_path / "model.txt"
    policy.save_model(model, path)
    assert path.read_text(encoding="ascii") == "fairltr-model 1\n" + text
    assert oracle.models_equal(policy.load_model(path), model)


LINEAR_HEAD = "fairltr-model 1\nkind linear\nfeature_dim 2\n"
MLP1_HEAD = "fairltr-model 1\nkind mlp1\nfeature_dim 2\nhidden 2\n"
MLP1_TAIL = "b_hidden 0.1 0.2\nw_out 0.5 0.6\nb_out 0\n"


@pytest.mark.parametrize("text,key", [
    (LINEAR_HEAD + "bias 0\nw 0.1 0.2\nw 0.3 0.4\n", "w"),
    (MLP1_HEAD + "W 1 2\nW 3 4\n" + MLP1_TAIL + "b_out 1\n", "b_out"),
    (LINEAR_HEAD + "bias 0\nw 0.1 0.2\nb 0.3\n", "b"),
    (MLP1_HEAD + "bias 1\nW 1 2\nW 3 4\n" + MLP1_TAIL, "bias"),
    (LINEAR_HEAD + "bias 1\nw 0.1 0.2\n", "b"),
    (MLP1_HEAD + "W 1 2\nb_hidden 0.1 0.2\nw_out 0.5 0.6\nb_out 0\n", "W"),
    (LINEAR_HEAD + "bias 0\n", "w"),
    (LINEAR_HEAD + "w 0.1 0.2\n", "bias"),
    (LINEAR_HEAD + "bias 0\nw 0.1 0.2 0.3\n", "w"),
    (LINEAR_HEAD + "bias 1\nw 0.1 0.2\nb 0.3 0.4\n", "b"),
    (MLP1_HEAD + "W 1 2 3\nW 3 4 5\n" + MLP1_TAIL, "W"),
], ids=["duplicate-w", "duplicate-b_out", "b-under-bias-0", "bias-in-mlp1",
        "missing-b", "missing-W-row", "missing-w", "missing-bias-field",
        "long-w", "long-b", "long-W-rows"])
def test_load_model_refuses_a_part_out_of_layout_naming_its_key(tmp_path, text, key):
    """A duplicate single-row line, a line the header does not declare, a
    missing part or header field and a part of the wrong length are all
    refused, with the key named."""
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(policy.CheckpointError, match=f"'{key}'"):
        policy.load_model(path)


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


def test_sampling_a_score_block_equals_one_call_per_row():
    """A ``(Q, n)`` block ranked by one ``(Q, size, n)`` draw equals Q calls
    ranked by ``(size, n)`` draws made one after another, and leaves the
    generator in the same state."""
    scores = np.random.default_rng(5).normal(scale=2.0, size=(4, 7))
    block_rng, row_rng = np.random.default_rng(6), np.random.default_rng(6)
    block = policy.sample_rankings(scores, policy.gumbel_noise(block_rng, (4, 9, 7)))
    rows = np.concatenate([policy.sample_rankings(s, policy.gumbel_noise(row_rng, (9, 7)))
                           for s in scores])
    assert block.shape == (36, 7)
    np.testing.assert_array_equal(block, rows)
    assert block_rng.random() == row_rng.random()


# ---------------------------------------------------------------------------
# Member blocks: K models, or K score vectors, in one array
# ---------------------------------------------------------------------------


def member_block(kind, bias, members=3, seed=20):
    """A block of ``members`` different models and the models alone."""
    rng = np.random.default_rng(seed)
    model = oracle.model_of(kind, 4, rng, hidden_units=5, bias=bias)
    block = model.with_params(model.params + rng.normal(size=(members, model.params.size)))
    return block, [block.with_params(block.params[k]) for k in range(members)]


@pytest.mark.parametrize("kind,bias", MODEL_KINDS)
def test_a_member_block_scores_and_backprops_with_each_members_bits(kind, bias):
    """Stacked products give each member the bits of its own model; a flat
    product over the members would not."""
    block, alone = member_block(kind, bias)
    rng = np.random.default_rng(21)
    for n in (1, 6, 13):
        X = rng.normal(size=(n, 4))
        g = rng.normal(size=(len(alone), n))
        scores, grads = block.scores(X), block.backprop(X, g)
        assert scores.shape == (len(alone), n)
        assert grads.shape == block.params.shape
        for k, model in enumerate(alone):
            assert scores[k].tobytes() == model.scores(X).tobytes()
            assert grads[k].tobytes() == model.backprop(X, g[k]).tobytes()


@pytest.mark.parametrize("kind,bias", MODEL_KINDS)
def test_with_params_copies_into_a_model_of_the_same_shape(kind, bias):
    block, alone = member_block(kind, bias)
    assert block.params.shape == (3, alone[0].params.size)
    for k, model in enumerate(alone):
        assert model.kind == block.kind and model.params.ndim == 1
        assert not np.shares_memory(model.params, block.params)
        np.testing.assert_array_equal(model.params, block.params[k])
        for a in oracle.param_arrays(block):
            assert np.shares_memory(a, block.params)
    with pytest.raises(ValueError, match="parameters, expected"):
        block.with_params(block.params[:, 1:])


def test_save_model_refuses_a_member_block(tmp_path):
    block, _ = member_block("linear", False)
    with pytest.raises(ValueError, match="member block"):
        policy.save_model(block, tmp_path / "block.txt")
    assert not (tmp_path / "block.txt").exists()


def test_members_share_one_draw_and_get_their_own_log_prob_gradients():
    """A ``(K, n)`` block samples with one draw that every member shares:
    member k's rankings and gradients equal a draw at its scores alone with
    the generator in the same state, and the generator moves as for one."""
    scores = np.random.default_rng(22).normal(scale=3.0, size=(4, 9))
    scores[2, :3] = 60.0     # clamped scores
    block_rng = np.random.default_rng(23)
    sample = policy.draw_policy_sample(scores, 11, block_rng)
    assert sample.rankings.shape == (4, 11, 9)
    assert sample.size == 11
    weights = np.random.default_rng(25).normal(size=(4, 11))
    grads = sample.score_grad(weights)
    assert grads.shape == (4, 9)
    for k, s in enumerate(scores):
        rng = np.random.default_rng(23)
        alone = policy.draw_policy_sample(s, 11, rng)
        np.testing.assert_array_equal(sample.rankings[k], alone.rankings)
        assert grads[k].tobytes() == alone.score_grad(weights[k]).tobytes()
    assert block_rng.random() == rng.random()
    noise = policy.gumbel_noise(np.random.default_rng(23), (11, 9))
    shared = policy.sample_rankings(scores, noise)
    np.testing.assert_array_equal(shared, sample.rankings.reshape(-1, 9))


def test_softmax_entropy_of_a_member_block_equals_each_member():
    scores = np.random.default_rng(24).normal(size=(3, 6))
    entropies, grads = policy.softmax_entropy(scores)
    assert entropies.shape == (3,) and grads.shape == (3, 6)
    for k, s in enumerate(scores):
        value, grad = policy.softmax_entropy(s)
        assert entropies[k] == value
        assert grads[k].tobytes() == grad.tobytes()
