"""Plackett-Luce ranking policies over document scores.

A score vector ``s`` induces a distribution over rankings in which the
document at each next position is drawn from a softmax over the scores of
the documents not yet placed.  The probability of a full ranking ``r`` is
the product of those stage probabilities,

    pi(r | s) = prod_i exp(s[r_i]) / sum_{k >= i} exp(s[r_k]).

Rankings are sampled by Gumbel-top-k: sorting ``s + G``, with ``G`` i.i.d.
standard Gumbel noise, in descending order draws ``r`` with exactly this
probability (Yellott 1977; Kool et al., ICML 2019, arXiv 1903.06059).
A draw is two steps: ``gumbel_noise`` takes the noise from a generator,
and ``sample_rankings`` ranks scores by it.

Everything here works in score space.  Log-probability gradients are
computed in probability space, from the weights ``exp(s - max s)`` and the
stage denominators summed over the documents not yet placed
(``_stage_weights``).  A policy-gradient step needs only a weighted sum of
the rankings' log-probability gradients, so ``logprob_grads_scores``
returns that sum, scattered to documents once, and never builds a
gradient row per ranking.  The scoring models at the
bottom of the module map features to scores and backpropagate
score-space gradients to their parameters, which is all a
policy-gradient trainer needs.  Each model class states its parameter
layout once, as a table of parts (attribute, checkpoint key, shape)
computed from its header: ``feature_dim`` and ``bias`` for the linear
model, ``feature_dim`` and ``hidden`` for the MLP.  The model keeps its
parameters in one contiguous vector, ``params``, of which the named arrays
are views, and ``backprop`` returns one gradient vector in the same
layout, so an optimizer step is a few operations on one vector.  Copies
(``with_params``) and the checkpoint text format, written and read by
``save_model`` and ``load_model``, follow from the same table.

Scores, models and samples may carry a leading member axis: a ``(K, n)``
block of score vectors, one per member of a grid of runs trained in
lockstep (``trainer.train`` on a grid).  Members share one random draw,
a ``gumbel_noise`` draw that every member ranks by, and every product is a
stacked one, ``(K, a, b) @ (K, b, c)``, which gives each member the bits
of the same product taken on that member alone; a flat product over all
members would not.

Exact expectations come from ``placement_flows``, a DP over the sets of
placed documents in O(2^n n).  It returns its flows in the layout it builds
them in, document-major, ``(..., n, 2**n)``, with the subsets in order of
size, so ``position_marginals`` is one product of the flows with the
one-hot of each column's subset size.

Scores are clamped to ``[-SCORE_CLAMP, SCORE_CLAMP]`` before any softmax or
sampling so that exp() stays comfortably inside float64 range; at trained
scales the clamp is inactive.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .ranking import Ranking, row_offsets

SCORE_CLAMP = 50.0


def clip_scores(scores: np.ndarray) -> np.ndarray:
    """Safety clamp applied before every softmax and Gumbel-top-k draw; the
    bits of ``np.clip`` in two plain ufunc calls."""
    return np.minimum(np.maximum(np.asarray(scores, dtype=float), -SCORE_CLAMP),
                      SCORE_CLAMP)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, of one score vector or of each row of a
    member block."""
    s = clip_scores(scores)
    z = np.exp(s - s.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def _stage_weights(scores: np.ndarray, orders: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(e, w, remaining, index)`` for rankings ``orders`` at ``scores``.

    ``orders`` is ``(S, n)`` at an ``(n,)`` score vector, or ``(K, S, n)``
    at a ``(K, n)`` member block, each member's rankings at its own scores.
    ``e = exp(s - max s)``, the shape of the scores; the other results have
    the shape of ``orders``.  ``w[..., r, i]`` is ``e`` of the document at
    position ``i`` of ranking ``r``, and ``remaining[..., r, i] = sum_{k >=
    i} w[..., r, k]``, the stage-i softmax denominator over the documents
    not yet placed.  It is summed over what is left, not taken as the total
    minus the placed weights, so nothing cancels at scores of
    +-SCORE_CLAMP; the smallest weight, exp(-100), is far from underflow.
    ``index`` is where that document's entry lies in the flattened ``e``,
    for scattering back to document order.
    """
    s = clip_scores(scores)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    index = np.asarray(orders, dtype=np.intp) + row_offsets(s.shape[:-1], s.shape[-1])
    w = e.reshape(-1)[index]
    return e, w, np.cumsum(w[..., ::-1], axis=-1)[..., ::-1], index


def gumbel_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """``log(-log u)`` for uniform draws ``u`` of ``shape`` from ``rng``:
    minus standard Gumbel noise, written with one log fewer and computed in
    the buffer of the draws.  A draw of exactly 0 gives +inf."""
    noise = rng.random(shape)
    with np.errstate(divide="ignore"):
        np.log(noise, out=noise)
    np.negative(noise, out=noise)
    np.log(noise, out=noise)
    return noise


def sample_rankings(scores: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Rank by Gumbel-top-k with ``noise``, a ``gumbel_noise`` draw of shape
    ``(size, n)``: ``size`` rankings, shape ``(size, n)``.  The noise is not
    changed.

    ``scores`` may also be a ``(Q, n)`` block of Q score vectors: the result
    is then ``(Q * size, n)``, the ``size`` rankings of each row in turn.  A
    ``(size, n)`` draw is shared by every row, which is how the members of
    a grid sample in lockstep; a ``(Q, size, n)`` draw gives each row its
    own, so that each member of a grid can rank a block of queries by one
    draw.  Ranking a ``(Q, n)`` block by ``gumbel_noise(rng, (Q, size,
    n))`` equals Q calls on the rows one after another, each by its own
    ``gumbel_noise(rng, (size, n))``.

    For uniform ``u`` the ascending sort key ``log(-log u) - s`` is
    ``-(s + G)`` with ``G`` standard Gumbel.  A draw of exactly 0 gives the
    key +inf and puts that document last, which is right to within 2**-53.
    """
    s = clip_scores(scores)
    n = s.shape[-1]
    keys = noise - s.reshape(-1, 1, n)
    return np.argsort(keys.reshape(-1, n), axis=1)


def argmax_ranking(scores: np.ndarray) -> Ranking:
    """Deterministic ranking: descending score, ties broken by lower index.

    This is a mode of the Plackett-Luce distribution at ``scores``.  A
    block of score vectors, such as ``(K, Q, n)``, gives the ranking of
    each; a stable sort has only one result, so each equals its own call.
    """
    s = np.asarray(scores, dtype=float)
    return np.argsort(-s, kind="stable").astype(np.intp)


def logprob_grads_scores(scores: np.ndarray, orders: np.ndarray,
                         weights: np.ndarray) -> np.ndarray:
    """The weighted sum of the score gradients of the log-probabilities of a
    batch of rankings, ``sum_s weights[s] * grad log pi(orders[s])``.

    ``orders`` is ``(S, n)`` with ``(S,)`` weights at ``(n,)`` scores, or
    ``(K, S, n)`` with ``(K, S)`` weights at a ``(K, n)`` member block,
    giving ``(K, n)``; rows are not validated.  The gradient of one ranking
    at the document placed at position k is

        1 - e_k * sum_{i <= k} 1 / remaining_i,

    in probability space (``_stage_weights``): ``e_k`` is the document's
    weight ``exp(s - max s)`` and ``remaining_i`` the stage-i denominator.
    So the weighted sum is ``sum_s weights[s] - e * acc``, where ``acc``
    gathers ``weights[s]`` times each ranking's running stage sum at each
    document, one ``bincount`` over all members; no per-ranking gradient row
    is built.  Each member's entries are scattered in the order of a call on
    that member alone, so member k has the bits of its own call.  A
    one-document ranking has probability 1, so at n = 1 the gradient is
    exactly 0.
    """
    e, _, remaining, index = _stage_weights(scores, orders)
    if e.shape[-1] == 1:
        return np.zeros(e.shape)
    c = np.asarray(weights, dtype=float)
    stages = np.cumsum(1.0 / remaining, axis=-1)
    acc = np.bincount(index.reshape(-1), (stages * c[..., None]).reshape(-1),
                      minlength=e.size)
    return c.sum(axis=-1, keepdims=True) - e * acc.reshape(e.shape)


def softmax_entropy(scores: np.ndarray) -> tuple[float, np.ndarray]:
    """Entropy of Softmax(scores) in nats and its gradient wrt the scores.

    The gradient of ``H = -sum_d p_d log p_d`` is ``-p_d (log p_d + H)``,
    which sums to zero.  A ``(K, n)`` member block gives ``(K,)`` entropies
    and a ``(K, n)`` gradient.
    """
    p = softmax(scores)
    logp = np.log(p)
    entropy = -np.sum(p * logp, axis=-1, keepdims=True)
    grad = -p * (logp + entropy)
    entropy = entropy[..., 0]
    return (float(entropy) if entropy.ndim == 0 else entropy), grad


@dataclass
class PolicySample:
    """Monte-Carlo draw from a policy: the scores and the rankings drawn.

    ``scores`` is ``(n,)``, or ``(K, n)`` for a member block, and
    ``rankings`` ``(size, n)``, or ``(K, size, n)``.
    """

    scores: np.ndarray
    rankings: np.ndarray

    @property
    def size(self) -> int:
        return self.rankings.shape[-2]

    def score_grad(self, weights: np.ndarray) -> np.ndarray:
        """The score-function estimate ``mean_s weights[s] * grad log
        pi(rankings[s])``: one ``logprob_grads_scores`` call, ``(n,)`` for
        ``(size,)`` weights, or ``(K, n)`` for a member block's ``(K,
        size)``, each member's with the bits of its own call."""
        return logprob_grads_scores(self.scores, self.rankings, weights) / self.size


def draw_policy_sample(scores: np.ndarray, size: int, rng: np.random.Generator) -> PolicySample:
    """``size`` rankings at ``scores``.

    A ``(K, n)`` member block of scores shares one draw: member k's sample
    equals a draw at ``scores[k]`` alone with ``rng`` in the same state.
    """
    s = np.asarray(scores)
    noise = gumbel_noise(rng, (size, s.shape[-1]))
    orders = sample_rankings(s, noise).reshape(*s.shape[:-1], size, s.shape[-1])
    return PolicySample(scores=s, rankings=orders)


# ---------------------------------------------------------------------------
# Exact expectations
# ---------------------------------------------------------------------------


class _SubsetLayout(NamedTuple):
    """What the subset DP at n documents needs of the subsets alone.

    Subset ``S`` is the integer whose bit ``d`` is set iff document ``d``
    is in ``S``.  The DP works on ``(..., n, 2**n)`` arrays, document-major
    so that every sum over documents adds whole rows, with one column per
    subset, in order of size and, within a size, of ``S``, so that each
    size is one slice of columns.

    ``unplaced[d, c]``: 1.0 iff ``d`` is not in the subset of column ``c``.
    ``layers[k - 1]``: the slice of columns of the subsets of size ``k``.
    ``parents[k - 1][d, i]``: for the i-th subset ``S`` of size ``k``, the
    flat index in a document-major ``(n, 2**n)`` array of the flow of
    ``S - {d}`` to ``d`` (for ``d`` outside ``S``, of ``S + {d}``, whose flow
    to ``d`` is zero).
    ``onehot[c, j]``: 1.0 iff the subset of column ``c`` has ``j`` documents.
    """

    unplaced: np.ndarray
    layers: tuple[slice, ...]
    parents: tuple[np.ndarray, ...]
    onehot: np.ndarray


@functools.lru_cache(maxsize=None)
def _subset_layout(n: int) -> _SubsetLayout:
    """The ``_SubsetLayout`` of ``n`` documents, built once per ``n`` and
    shared, so its arrays are read-only."""
    subsets = np.arange(1 << n)
    bits = 1 << np.arange(n)
    placed = (subsets[:, None] & bits) != 0
    sizes = placed.sum(axis=1)
    by_size = np.argsort(sizes, kind="stable")
    columns = np.argsort(by_size)
    starts = np.searchsorted(sizes[by_size], np.arange(n + 2))
    layers = tuple(slice(starts[k], starts[k + 1]) for k in range(1, n + 1))
    offsets = (np.arange(n) << n)[:, None]
    parents = tuple(offsets + columns[by_size[layer] ^ bits[:, None]] for layer in layers)
    layout = _SubsetLayout((~placed[by_size].T).astype(float), layers, parents,
                           (sizes[by_size, None] == np.arange(n)) * 1.0)
    for array in (layout.unplaced, *parents, layout.onehot):
        array.flags.writeable = False
    return layout


def placement_flows(scores: np.ndarray) -> np.ndarray:
    """Plackett-Luce probability flow through the sets of placed documents.

    ``flows[..., d, c]`` is the probability that the first ``|S|``
    positions hold exactly the documents of the subset ``S`` of column
    ``c``, in any order, and that ``d`` takes position ``|S| + 1``.  The
    columns are the subsets in order of size and, within a size, of the
    integer ``S`` whose bit ``d`` is set iff document ``d`` is in ``S``;
    ``d`` is in the subset of column ``c`` iff ``_subset_layout(n).unplaced[d,
    c]`` is 0.  Sampling forgets the order of the placed documents, so a DP
    over subsets of increasing size gives every flow in O(2^n n) time and
    memory, where enumerating rankings costs O(n! n).

    ``scores`` is ``(..., n)``: one score vector, or a block such as the
    ``(K, Q, n)`` scores of K members on Q queries, whose flows are
    ``(..., n, 2**n)``, one DP for the whole block, returned in the layout
    the DP builds them in.  Every vector's flows have the bits of a call on
    that vector alone.
    """
    s = clip_scores(scores)
    layout = _subset_layout(s.shape[-1])
    pick = layout.unplaced * np.exp(s - s.max(axis=-1, keepdims=True))[..., None]
    # Sum over the unplaced documents, not total minus placed: at scores of
    # +-SCORE_CLAMP that difference cancels to zero.
    remaining = pick.sum(axis=-2)
    remaining[..., -1] = 1.0  # nothing left to place after the full set
    pick /= remaining[..., None, :]

    flows = np.zeros(pick.shape)
    flows[..., 0] = pick[..., 0]
    flat = flows.reshape(*flows.shape[:-2], -1)
    for layer, parents in zip(layout.layers, layout.parents):
        # Flow into S comes from S - {d} placing d.
        reach = flat.take(parents, axis=-1).sum(axis=-2)
        np.multiply(reach[..., None, :], pick[..., layer], out=flows[..., layer])
    return flows


def position_marginals(scores: np.ndarray) -> np.ndarray:
    """``M[..., d, j]``: probability that document ``d`` lands at 0-based
    position ``j`` under the policy at ``scores``; every row and column sums
    to 1.

    Exact, from ``placement_flows`` in O(2^n n): the flows times the one-hot
    of their columns' subset sizes.  A ``(..., n)`` block of score vectors
    gives ``(..., n, n)``, reduced by one stacked product, each vector's
    marginals with the bits of its own call.
    """
    flows = placement_flows(scores)
    return flows @ _subset_layout(flows.shape[-2]).onehot


# ---------------------------------------------------------------------------
# Scoring models
# ---------------------------------------------------------------------------


def _times_vector(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` for a vector ``v``; for a ``(K, m)`` block of vectors, the
    stacked ``a @ v[k]`` of each, which has the bits of that product alone.
    A vector takes the plain product, the cheaper call."""
    return a @ v if v.ndim == 1 else (a @ v[..., None])[..., 0]


class _Model:
    """The parameter layout of a scoring model.

    A model class states its parts once, in ``parts(*header)``: the
    ``(attribute, checkpoint key, shape)`` of each named array, from the
    integers of its header, named by ``header_fields`` (``feature_dim``
    first).  The parameters live in one vector, ``params``, the parts in
    order and a matrix row-major, and each named array is a view into it.
    ``layout`` adds each part's slice of the vector; it is found once, by
    the constructor, and shared by every model ``with_params`` makes.  With
    a leading member axis, ``params`` is a ``(K, P)`` block of K models
    that score and backpropagate together.
    """

    kind: str
    header_fields: tuple[str, ...]

    def _lay_out(self, header: tuple[int, ...], arrays: Sequence[np.ndarray]) -> None:
        """Copy ``arrays``, one per part, into a new parameter vector; a
        leading member axis on the first makes a block."""
        parts = self.parts(*header)
        first = np.asarray(arrays[0])
        lead = first.shape[:first.ndim - len(parts[0][2])]
        layout, pieces, start = [], [], 0
        for (attr, key, shape), array in zip(parts, arrays, strict=True):
            array = np.asarray(array, dtype=float)
            if array.shape != (*lead, *shape):
                raise ValueError(f"{attr} has shape {array.shape}, "
                                 f"expected {(*lead, *shape)}")
            pieces.append(array.reshape(*lead, -1))
            layout.append((attr, key, shape, slice(start, start + math.prod(shape))))
            start += math.prod(shape)
        self._bind(np.concatenate(pieces, axis=-1), header, tuple(layout))

    def _bind(self, params: np.ndarray, header: tuple[int, ...], layout: tuple) -> None:
        self.params, self.header, self.layout = params, header, layout
        lead = params.shape[:-1]
        for attr, _, shape, where in layout:
            setattr(self, attr, params[..., where].reshape(*lead, *shape))

    @property
    def feature_dim(self) -> int:
        return self.header[0]

    def with_params(self, params: np.ndarray):
        """A model of this layout holding a copy of ``params``: a ``(P,)``
        vector gives one model, a ``(K, P)`` block a block of K."""
        params = np.array(params, dtype=float, order="C")
        if params.shape[-1] != self.params.shape[-1]:
            raise ValueError(f"{params.shape[-1]} parameters, expected "
                             f"{self.params.shape[-1]}")
        model = object.__new__(type(self))
        model._bind(params, self.header, self.layout)
        return model

    def copy(self):
        """An independent model on a copy of the vector."""
        return self.with_params(self.params)


class LinearModel(_Model):
    """Linear scoring function ``s = X w (+ b)``; the bias is optional and
    off by default.  ``baselines.fit_linear_regression`` fits one; a policy
    has none (``init``), since shifting every score moves no policy.

    ``params = [w, b]``, of which ``weights`` and ``bias`` are views, and
    ``backprop`` returns its gradient in the same layout.
    """

    kind = "linear"
    header_fields = ("feature_dim", "bias")
    bias = None

    @staticmethod
    def parts(feature_dim: int, bias: int):
        if bias not in (0, 1):
            raise ValueError(f"bias must be 0 or 1, got {bias}")
        return (("weights", "w", (feature_dim,)),) + (("bias", "b", (1,)),) * bias

    def __init__(self, weights: np.ndarray, bias: np.ndarray | None = None):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim not in (1, 2):
            raise ValueError("weights must be a vector, or a block of vectors")
        arrays = [weights]
        if bias is not None:
            arrays.append(np.asarray(bias, dtype=float).reshape(*weights.shape[:-1], 1))
        self._lay_out((weights.shape[-1], len(arrays) - 1), arrays)

    @classmethod
    def init(cls, feature_dim: int, rng: np.random.Generator) -> "LinearModel":
        """Small uniform weights and no bias: a Plackett-Luce policy does
        not change when every score shifts by the same constant."""
        return cls(rng.uniform(-0.001, 0.001, size=feature_dim))

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Scores of the rows of ``features``: ``(n,)``, or ``(K, n)`` for a
        member block."""
        out = _times_vector(np.asarray(features, dtype=float), self.weights)
        if self.bias is not None:
            out = out + self.bias
        return out

    def backprop(self, features: np.ndarray, score_grads: np.ndarray) -> np.ndarray:
        """Map a gradient wrt the per-document scores to ``params`` space;
        a member block maps a ``(K, n)`` gradient to ``(K, P)``."""
        X = np.asarray(features, dtype=float)
        g = np.asarray(score_grads, dtype=float)
        grad = _times_vector(X.T, g)
        if self.bias is None:
            return grad
        return np.concatenate((grad, g.sum(axis=-1, keepdims=True)), axis=-1)


class MLP1Model(_Model):
    """One-hidden-layer scorer: ``s = relu(X W + b_h) w_out + b_out``.

    The ReLU subgradient at zero is taken to be zero.  ``params = [W
    (row-major), b_h, w_out, b_out]``, of which the four named arrays are
    views, and ``backprop`` returns its gradient in the same layout.
    """

    kind = "mlp1"
    header_fields = ("feature_dim", "hidden")

    @staticmethod
    def parts(feature_dim: int, hidden: int):
        return (("hidden_weights", "W", (feature_dim, hidden)),
                ("hidden_bias", "b_hidden", (hidden,)),
                ("out_weights", "w_out", (hidden,)),
                ("out_bias", "b_out", (1,)))

    def __init__(self, hidden_weights: np.ndarray, hidden_bias: np.ndarray,
                 out_weights: np.ndarray, out_bias: np.ndarray):
        W = np.asarray(hidden_weights, dtype=float)
        if W.ndim not in (2, 3):
            raise ValueError("hidden weights must be a matrix, or a block of matrices")
        *lead, d, h = W.shape
        self._lay_out((d, h), [W, hidden_bias, out_weights,
                               np.asarray(out_bias, dtype=float).reshape(*lead, 1)])

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
    def hidden_units(self) -> int:
        return self.header[1]

    def _hidden(self, X: np.ndarray) -> np.ndarray:
        return X @ self.hidden_weights + self.hidden_bias[..., None, :]

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Scores of the rows of ``features``: ``(n,)``, or ``(K, n)`` for a
        member block."""
        hidden = np.maximum(self._hidden(np.asarray(features, dtype=float)), 0.0)
        return _times_vector(hidden, self.out_weights) + self.out_bias

    def backprop(self, features: np.ndarray, score_grads: np.ndarray) -> np.ndarray:
        X = np.asarray(features, dtype=float)
        g = np.asarray(score_grads, dtype=float)
        pre = self._hidden(X)
        act = np.maximum(pre, 0.0)
        d_pre = (g[..., :, None] * self.out_weights[..., None, :]) * (pre > 0.0)
        return np.concatenate(((X.T @ d_pre).reshape(*g.shape[:-1], -1),
                               d_pre.sum(axis=-2),
                               _times_vector(act.swapaxes(-1, -2), g),
                               g.sum(axis=-1, keepdims=True)), axis=-1)


ScoringModel = LinearModel | MLP1Model
_MODELS = {cls.kind: cls for cls in (LinearModel, MLP1Model)}


def init_model(kind: str, feature_dim: int, rng: np.random.Generator,
               hidden_units: int = 32) -> ScoringModel:
    if kind == "linear":
        return LinearModel.init(feature_dim, rng)
    if kind == "mlp1":
        return MLP1Model.init(feature_dim, rng, hidden_units=hidden_units)
    raise ValueError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Checkpoints: the magic line, ``kind``, a line per header field, then a
# line per part, or per row of a matrix part, in the model's part order.
# ---------------------------------------------------------------------------

_CHECKPOINT_MAGIC = "fairltr-model 1"


def _fmt(values: np.ndarray) -> str:
    return " ".join(f"{v:.17g}" for v in np.asarray(values, dtype=float).ravel())


def save_model(model: ScoringModel, path: str) -> None:
    """Write a model as decimal text; round trips are bit exact.  A member
    block is refused: save each member, ``model.with_params(model.params[k])``."""
    if model.params.ndim != 1:
        raise ValueError("save_model takes one model, not a member block")
    lines = [_CHECKPOINT_MAGIC, f"kind {model.kind}"]
    lines += [f"{name} {value}" for name, value in zip(model.header_fields, model.header)]
    for attr, key, shape, _ in model.layout:
        rows = getattr(model, attr).reshape(math.prod(shape[:-1]), shape[-1])
        lines += [f"{key} {_fmt(row)}" for row in rows]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


class CheckpointError(ValueError):
    """Raised when a model file is malformed."""


def load_model(path: str) -> ScoringModel:
    """Read a ``save_model`` file; any malformed file raises ``CheckpointError``,
    among them one with a line its header does not declare, or a part with
    too many or too few lines or values."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        lines = []
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a recognized model file")
    texts: dict[str, list[str]] = {}
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        texts.setdefault(key, []).append(rest.strip())

    def rows_of(key: str, count: int) -> list[str]:
        found = texts.pop(key, [])
        if len(found) != count:
            raise CheckpointError(f"{path}: {len(found)} {key!r} lines, expected {count}")
        return found

    (kind,) = rows_of("kind", 1)
    if kind not in _MODELS:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    cls = _MODELS[kind]
    header = []
    for name in cls.header_fields:
        (text,) = rows_of(name, 1)
        if not text.isdigit():
            raise CheckpointError(f"{path}: {name} must be a non-negative "
                                  f"integer, got {text!r}")
        header.append(int(text))
    try:
        parts = cls.parts(*header)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    arrays = [_read_part(path, key, shape, rows_of(key, math.prod(shape[:-1])))
              for _, key, shape in parts]
    if texts:
        raise CheckpointError(f"{path}: {next(iter(texts))!r} line not declared "
                              f"by a {kind} model's header")
    return cls(*arrays)


def _read_part(path: str, key: str, shape: tuple[int, ...], rows: list[str]) -> np.ndarray:
    values = []
    for text in rows:
        try:
            row = [float(tok) for tok in text.split()]
        except ValueError:
            raise CheckpointError(
                f"{path}: non-numeric value in {key!r} line") from None
        if len(row) != shape[-1]:
            raise CheckpointError(f"{path}: {key!r} line has {len(row)} values, "
                                  f"expected {shape[-1]}")
        if not np.isfinite(row).all():
            raise CheckpointError(f"{path}: non-finite value in {key!r} line")
        values.append(row)
    return np.array(values, dtype=float).reshape(shape)
