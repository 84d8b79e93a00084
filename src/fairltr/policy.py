"""Plackett-Luce ranking policies over document scores.

A score vector ``s`` induces a distribution over rankings in which the
document at each next position is drawn from a softmax over the scores of
the documents not yet placed.  The probability of a full ranking ``r`` is
the product of those stage probabilities,

    pi(r | s) = prod_i exp(s[r_i]) / sum_{k >= i} exp(s[r_k]).

Rankings are sampled by Gumbel-top-k: sorting ``s + G``, with ``G`` i.i.d.
standard Gumbel noise, in descending order draws ``r`` with exactly this
probability (Yellott 1977; Kool et al., ICML 2019, arXiv 1903.06059).

Everything here works in score space.  The scoring models at the bottom of
the module map features to scores and backpropagate score-space gradients to
their parameters, which is all a policy-gradient trainer needs.

Scores are clamped to ``[-SCORE_CLAMP, SCORE_CLAMP]`` before any softmax or
sampling so that exp() stays comfortably inside float64 range; at trained
scales the clamp is inactive.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ranking import Ranking, as_ranking

SCORE_CLAMP = 50.0


def clip_scores(scores: np.ndarray) -> np.ndarray:
    """Safety clamp applied before every softmax and Gumbel-top-k draw."""
    return np.clip(np.asarray(scores, dtype=float), -SCORE_CLAMP, SCORE_CLAMP)


def softmax(scores: np.ndarray) -> np.ndarray:
    s = clip_scores(scores)
    z = np.exp(s - s.max())
    return z / z.sum()


def _suffix_logsumexp(permuted: np.ndarray) -> np.ndarray:
    """``out[i] = log sum_{j >= i} exp(permuted[j])`` along the last axis."""
    rev = permuted[..., ::-1]
    acc = np.logaddexp.accumulate(rev, axis=-1)
    return acc[..., ::-1]


def ranking_logprob(scores: np.ndarray, order: Ranking) -> float:
    """Log-probability of drawing ``order`` from the policy at ``scores``."""
    order = as_ranking(order, np.asarray(scores).shape[0])
    return float(ranking_logprobs(scores, order[None])[0])


def ranking_logprobs(scores: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Log-probability of each ranking in a batch of shape ``(size, n)``;
    rows are not validated."""
    s = clip_scores(scores)
    orders = np.asarray(orders, dtype=np.intp)
    permuted = s[orders]
    denom = _suffix_logsumexp(permuted)
    return np.sum(permuted - denom, axis=-1)


def sample_rankings(scores: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` rankings, shape ``(size, n)``, by Gumbel-top-k.

    For uniform ``u`` the ascending sort key ``log(-log u) - s`` is
    ``-(s + G)`` with ``G`` standard Gumbel, written with one log fewer.  A
    draw of exactly 0 gives the key +inf and puts that document last, which
    is right to within 2**-53.
    """
    s = clip_scores(scores)
    if size < 1:
        raise ValueError("size must be >= 1")
    u = rng.random((size, s.shape[0]))
    with np.errstate(divide="ignore"):
        keys = np.log(-np.log(u)) - s
    return np.argsort(keys, axis=1)


def argmax_ranking(scores: np.ndarray) -> Ranking:
    """Deterministic ranking: descending score, ties broken by lower index.

    This is a mode of the Plackett-Luce distribution at ``scores``.
    """
    s = np.asarray(scores, dtype=float)
    return np.argsort(-s, kind="stable").astype(np.intp)


def logprob_grads_scores(scores: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Gradient of ``ranking_logprob`` wrt scores for a batch of rankings.

    ``orders`` has shape ``(size, n)``; the result matches it, and rows are
    not validated.  For the document placed at position k the gradient is

        1 - exp(s_d) * sum_{i <= k} exp(-L_i),

    where ``L_i`` is the log of the stage-i softmax denominator.  Each row
    sums to zero exactly in expectation and to float precision in practice.
    """
    s = clip_scores(scores)
    orders = np.asarray(orders, dtype=np.intp)
    permuted = s[orders]
    denom = _suffix_logsumexp(permuted)
    inv_cum = np.cumsum(np.exp(-denom), axis=1)
    by_position = 1.0 - np.exp(permuted) * inv_cum
    grads = np.empty_like(by_position)
    np.put_along_axis(grads, orders, by_position, axis=1)
    return grads


def softmax_entropy(scores: np.ndarray) -> tuple[float, np.ndarray]:
    """Entropy of Softmax(scores) in nats and its gradient wrt the scores.

    The gradient of ``H = -sum_d p_d log p_d`` is ``-p_d (log p_d + H)``,
    which sums to zero.
    """
    p = softmax(scores)
    logp = np.log(p)
    entropy = float(-np.sum(p * logp))
    grad = -p * (logp + entropy)
    return entropy, grad


@dataclass
class PolicySample:
    """Monte-Carlo draw from a policy: rankings plus their score gradients.

    ``rankings`` has shape ``(size, n)`` and ``logprob_grads`` matches it;
    row ``i`` of ``logprob_grads`` is the gradient of the log-probability of
    ranking ``i`` wrt the scores.
    """

    rankings: np.ndarray
    logprob_grads: np.ndarray

    @property
    def size(self) -> int:
        return self.rankings.shape[0]


def draw_policy_sample(scores: np.ndarray, size: int, rng: np.random.Generator) -> PolicySample:
    orders = sample_rankings(scores, size, rng)
    grads = logprob_grads_scores(scores, orders)
    return PolicySample(rankings=orders, logprob_grads=grads)


# ---------------------------------------------------------------------------
# Exact expectations
# ---------------------------------------------------------------------------


def placement_flows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plackett-Luce probability flow through the sets of placed documents.

    Returns ``(placed, flows)``, both of shape ``(2**n, n)`` and indexed by
    subset ``S`` (bit ``d`` of the row index set iff document ``d`` is in
    ``S``).  ``placed[S, d]`` tells whether ``d`` is in ``S``, and
    ``flows[S, d]`` is the probability that the first ``|S|`` positions hold
    exactly the documents of ``S``, in any order, and that ``d`` takes
    position ``|S| + 1``.  Sampling forgets the order of the placed
    documents, so a DP over subsets of increasing size gives every flow in
    O(2^n n) time and memory, where enumerating rankings costs O(n! n).
    """
    s = clip_scores(scores)
    n = s.shape[0]
    subsets = np.arange(1 << n)
    bits = 1 << np.arange(n)
    placed = (subsets[:, None] & bits) != 0
    unplaced_weights = np.where(placed, 0.0, np.exp(s - s.max()))
    # Sum over the unplaced documents, not total minus placed: at scores of
    # +-SCORE_CLAMP that difference cancels to zero.
    remaining = unplaced_weights.sum(axis=1)
    remaining[-1] = 1.0  # nothing left to place after the full set
    pick = unplaced_weights / remaining[:, None]

    sizes = placed.sum(axis=1)
    parents = subsets[:, None] ^ bits
    docs = np.arange(n)
    flows = np.zeros((1 << n, n))
    flows[0] = pick[0]
    for size in range(1, n + 1):
        layer = np.flatnonzero(sizes == size)
        # Flow into S comes from S - {d} placing d; for d outside S the
        # "parent" is S + {d}, whose flow to d is zero.
        reach = flows[parents[layer], docs].sum(axis=1)
        flows[layer] = reach[:, None] * pick[layer]
    return placed, flows


def position_marginals(scores: np.ndarray) -> np.ndarray:
    """``M[d, j]``: probability that document ``d`` lands at 0-based position
    ``j`` under the policy at ``scores``; every row and column sums to 1.

    Exact, from ``placement_flows`` in O(2^n n).
    """
    placed, flows = placement_flows(scores)
    n = placed.shape[1]
    return flows.T @ (placed.sum(axis=1)[:, None] == np.arange(n))


# ---------------------------------------------------------------------------
# Scoring models
# ---------------------------------------------------------------------------


class LinearModel:
    """Linear scoring function ``s = X w (+ b)``; the bias is optional and
    off by default."""

    kind = "linear"

    def __init__(self, weights: np.ndarray, bias: np.ndarray | None = None):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = None if bias is None else np.asarray(bias, dtype=float).reshape(1)
        if self.weights.ndim != 1:
            raise ValueError("weights must be a vector")

    @classmethod
    def init(cls, feature_dim: int, rng: np.random.Generator,
             use_bias: bool = False, scale: float = 0.001) -> "LinearModel":
        w = rng.uniform(-scale, scale, size=feature_dim)
        b = rng.uniform(-scale, scale, size=1) if use_bias else None
        return cls(w, b)

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]

    def scores(self, features: np.ndarray) -> np.ndarray:
        out = np.asarray(features, dtype=float) @ self.weights
        if self.bias is not None:
            out = out + self.bias[0]
        return out

    def param_arrays(self) -> list[np.ndarray]:
        params = [self.weights]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def backprop(self, features: np.ndarray, score_grads: np.ndarray) -> list[np.ndarray]:
        """Map a gradient wrt the per-document scores to parameter space."""
        X = np.asarray(features, dtype=float)
        g = np.asarray(score_grads, dtype=float)
        grads = [X.T @ g]
        if self.bias is not None:
            grads.append(np.array([g.sum()]))
        return grads

    def copy(self) -> "LinearModel":
        return LinearModel(self.weights.copy(),
                           None if self.bias is None else self.bias.copy())


class MLP1Model:
    """One-hidden-layer scorer: ``s = relu(X W + b_h) w_out + b_out``.

    The ReLU subgradient at zero is taken to be zero.
    """

    kind = "mlp1"

    def __init__(self, hidden_weights: np.ndarray, hidden_bias: np.ndarray,
                 out_weights: np.ndarray, out_bias: np.ndarray):
        self.hidden_weights = np.asarray(hidden_weights, dtype=float)
        self.hidden_bias = np.asarray(hidden_bias, dtype=float)
        self.out_weights = np.asarray(out_weights, dtype=float)
        self.out_bias = np.asarray(out_bias, dtype=float).reshape(1)
        d, h = self.hidden_weights.shape
        if self.hidden_bias.shape != (h,) or self.out_weights.shape != (h,):
            raise ValueError("inconsistent hidden layer shapes")

    @classmethod
    def init(cls, feature_dim: int, rng: np.random.Generator,
             hidden_units: int = 32) -> "MLP1Model":
        bound = 1.0 / np.sqrt(hidden_units)
        W = rng.uniform(-bound, bound, size=(feature_dim, hidden_units))
        b_h = rng.uniform(-bound, bound, size=hidden_units)
        w_out = rng.uniform(-bound, bound, size=hidden_units)
        b_out = rng.uniform(-bound, bound, size=1)
        return cls(W, b_h, w_out, b_out)

    @property
    def feature_dim(self) -> int:
        return self.hidden_weights.shape[0]

    @property
    def hidden_units(self) -> int:
        return self.hidden_weights.shape[1]

    def scores(self, features: np.ndarray) -> np.ndarray:
        X = np.asarray(features, dtype=float)
        hidden = np.maximum(X @ self.hidden_weights + self.hidden_bias, 0.0)
        return hidden @ self.out_weights + self.out_bias[0]

    def param_arrays(self) -> list[np.ndarray]:
        return [self.hidden_weights, self.hidden_bias,
                self.out_weights, self.out_bias]

    def backprop(self, features: np.ndarray, score_grads: np.ndarray) -> list[np.ndarray]:
        X = np.asarray(features, dtype=float)
        g = np.asarray(score_grads, dtype=float)
        pre = X @ self.hidden_weights + self.hidden_bias
        act = np.maximum(pre, 0.0)
        d_pre = (g[:, None] * self.out_weights[None, :]) * (pre > 0.0)
        return [X.T @ d_pre, d_pre.sum(axis=0), act.T @ g, np.array([g.sum()])]

    def copy(self) -> "MLP1Model":
        return MLP1Model(self.hidden_weights.copy(), self.hidden_bias.copy(),
                         self.out_weights.copy(), self.out_bias.copy())


ScoringModel = LinearModel | MLP1Model


def init_model(kind: str, feature_dim: int, rng: np.random.Generator,
               hidden_units: int = 32, use_bias: bool = False) -> ScoringModel:
    if kind == "linear":
        return LinearModel.init(feature_dim, rng, use_bias=use_bias)
    if kind == "mlp1":
        return MLP1Model.init(feature_dim, rng, hidden_units=hidden_units)
    raise ValueError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_MAGIC = "fairltr-model 1"


def _fmt(values: np.ndarray) -> str:
    return " ".join(f"{v:.17g}" for v in np.asarray(values, dtype=float).ravel())


def save_model(model: ScoringModel, path: str) -> None:
    """Write a model as decimal text; round trips are bit exact."""
    lines = [_CHECKPOINT_MAGIC, f"kind {model.kind}",
             f"feature_dim {model.feature_dim}"]
    if isinstance(model, LinearModel):
        lines.append(f"bias {0 if model.bias is None else 1}")
        lines.append("w " + _fmt(model.weights))
        if model.bias is not None:
            lines.append("b " + _fmt(model.bias))
    else:
        lines.append(f"hidden {model.hidden_units}")
        for row in model.hidden_weights:
            lines.append("W " + _fmt(row))
        lines.append("b_hidden " + _fmt(model.hidden_bias))
        lines.append("w_out " + _fmt(model.out_weights))
        lines.append("b_out " + _fmt(model.out_bias))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


class CheckpointError(ValueError):
    """Raised when a model file is malformed."""


def load_model(path: str) -> ScoringModel:
    """Read a ``save_model`` file; any malformed file raises ``CheckpointError``."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        lines = []
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a recognized model file")

    fields: dict[str, str] = {}
    named: dict[str, list[np.ndarray]] = {}
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key in ("kind", "feature_dim", "bias", "hidden"):
            fields[key] = rest.strip()
            continue
        try:
            vec = np.array([float(tok) for tok in rest.split()])
        except ValueError:
            raise CheckpointError(
                f"{path}: non-numeric value in {key!r} line") from None
        if not np.isfinite(vec).all():
            raise CheckpointError(f"{path}: non-finite value in {key!r} line")
        named.setdefault(key, []).append(vec)

    kind = fields.get("kind")
    try:
        feature_dim = int(fields["feature_dim"])
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad or missing feature_dim") from exc

    if kind == "linear":
        if "w" not in named:
            raise CheckpointError(f"{path}: missing weight line")
        w = named["w"][0]
        if w.shape[0] != feature_dim:
            raise CheckpointError(f"{path}: weight length {w.shape[0]} != "
                                  f"feature_dim {feature_dim}")
        has_bias = fields.get("bias") == "1"
        if has_bias and "b" not in named:
            raise CheckpointError(f"{path}: bias declared but missing")
        build, params = LinearModel, (w, named["b"][0] if has_bias else None)
    elif kind == "mlp1":
        try:
            hidden = int(fields["hidden"])
            W = np.vstack(named["W"])
            b_h, w_out, b_out = (named[k][0] for k in ("b_hidden", "w_out", "b_out"))
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"{path}: incomplete mlp1 checkpoint") from exc
        if W.shape != (feature_dim, hidden):
            raise CheckpointError(f"{path}: hidden weight shape {W.shape} != "
                                  f"({feature_dim}, {hidden})")
        build, params = MLP1Model, (W, b_h, w_out, b_out)
    else:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    try:
        return build(*params)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def models_equal(a: ScoringModel, b: ScoringModel) -> bool:
    if a.kind != b.kind:
        return False
    pa, pb = a.param_arrays(), b.param_arrays()
    return len(pa) == len(pb) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(pa, pb))
