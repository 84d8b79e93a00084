"""Policy-gradient training of stochastic ranking policies.

The learner maximizes expected ranking utility minus ``lambda`` times a
disparity measure, plus ``gamma`` times the entropy of the softmax over the
score vector.  All gradients are score-function (REINFORCE) estimates: for
each query the policy samples a small batch of rankings, weights each
ranking's log-probability gradient by a scalar (reward minus baseline, or a
per-merit exposure term), averages, and backpropagates through the scoring
model.  One optimizer step is taken per query; an epoch is one shuffled
pass over the training queries.  The optimizers act in place on the
model's one parameter vector, ``model.params``, with the one gradient
vector ``backprop`` returns.  A step checks every gradient with one call
against its optimizer's ``max_gradient``, which a non-finite entry fails
too, before any parameter moves.

Runs that differ only in ``lam`` consume the same random stream: each
epoch draws one permutation of the training queries and each step one
``(S, n)`` block of uniforms, whatever the model.  ``train``, given such a
grid of configs, therefore trains it as one block of K members in lockstep.  The parameters
form a ``(K, P)`` block (``model.params`` with a leading member axis);
each step scores, samples, values and backpropagates all members at once,
with stacked products that give every member the bits of its own run, and
then takes one optimizer step per member.  Each member keeps its own
optimizer state, early stopping, best model and ``TrainingError``; a
member that stops or fails leaves the block and the others carry on.  The
members still in the block are evaluated together after each epoch, and
the selected models of the members that did not fail together for
``delta_lambda``.  A single run is the grid of one.

A run hands on a ``RunRecord``: the selected model and one ``curves``
dict of per-epoch means keyed by the names of ``CURVES``, the one table
that ``record.json`` and ``curves.csv`` are both written from.

Each term of a step's gradient is a weighted mean of the sampled rankings'
log-probability gradients, so a step sums the terms' per-ranking weights
first, the centred rewards (``utility_weights``) less each member's
``lam`` times the hinge's (``disparity_score_grad``), and makes one
weighted gradient of the sum (``PolicySample.score_grad``), one scatter to
the documents for all members.  Both disparities reach the trainer as the
hinge rows of ``DisparityConfig.rows``, and one estimator,
``disparity_score_grad``, serves them: the hinge indicator of each row is
estimated from the same Monte-Carlo sample as the expectation (its bias
vanishes as the sample grows), and only the smooth inner expectation
contributes gradient.

Training and evaluation read the dataset's runs of consecutive equal-size
queries (``Dataset.runs``), views of its flat arrays.  Before the first
step, each run of each split builds its constants once for the whole
training run (``split_constants``), the metric's
(``UtilityMetric.constants``) and the disparity's hinge rows, in one
vectorized pass; each step reads its query's row views of the training
split's and of the run's features, and every evaluation pass of the run
reads the split's.

Every evaluation, of a policy or of a baseline, is one ``value_split`` pass
per split over a member block: a ranker gives each block of consecutive
equal-size queries its rankings, their weights and their exposures, and
each metric and the disparity value them for all members at once.  Policy
evaluation (``_evaluate``, after every epoch and for the selected models)
ranks by argmax and takes the policy exposures of one
``exposure_of_policy`` call per block for all members: exact for small
queries, one subset DP over the whole block; for larger ones, Monte
Carlo, with one draw that every member ranks by
(``policy.sample_rankings``) and reduces (``mc_exposure``) on its own.
Which one a query size takes, and so how its blocks are cut, is read from
the one rule, ``fairness.exposure_is_exact``.
Each member evaluated alone would draw the same numbers in the same
order, so every member gets the bits of its own pass.  A pass given no
constants builds each run's metric constants and hinge rows once, and
each block reads its slice of them and of the run's features.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import policy
from .data import Dataset, require_seed
from .fairness import DisparityConfig, Rows, exposure_is_exact, exposure_of_policy, \
    hinge_weights, mc_exposure
from .metrics import Constants, UtilityMetric, position_bias_vector
from .policy import ScoringModel, draw_policy_sample, init_model, softmax_entropy
from .ranking import at_rankings


class TrainingError(RuntimeError):
    """Raised when training meets a non-finite gradient, or one too large
    for the optimizer to take (``max_gradient``)."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    ``lam`` is the utility/disparity trade-off weight, ``gamma`` the
    entropy regularization weight, ``sample_size`` the number of rankings
    drawn per query and step.  ``disparity`` may be None for pure utility
    training, in which case group labels are never touched.
    """

    lam: float = 0.0
    gamma: float = 1.0
    sample_size: int = 10
    learning_rate: float = 0.001
    optimizer: str = "adam"
    epochs: int = 20
    metric: UtilityMetric = field(default_factory=lambda: UtilityMetric("ndcg", 10))
    disparity: DisparityConfig | None = None
    model: str = "linear"
    hidden_units: int = 32
    use_baseline: bool = True
    seed: int = 0
    patience: int = 5
    eval_samples: int = 32

    def __post_init__(self):
        for name in ("sample_size", "epochs", "hidden_units", "eval_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lam", "gamma", "learning_rate"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        require_seed(self.seed)
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lam != 0.0 and self.disparity is None:
            raise ValueError("lam != 0 requires a disparity, individual or group")

    def echo(self) -> dict:
        """Flat, JSON-ready record of every hyperparameter: one key per
        field, renamed by ``_ECHO_NAMES``, with the metric, the disparity
        and its merit as text ("none" without a disparity)."""
        echo = {_ECHO_NAMES.get(f.name, f.name): getattr(self, f.name)
                for f in dataclasses.fields(self)}
        disparity = self.disparity
        echo.update(metric=str(self.metric),
                    disparity="none" if disparity is None else disparity.kind,
                    merit="none" if disparity is None else str(disparity.merit))
        return echo


# The fields the echo records under another name: their flags' names.
_ECHO_NAMES = {"lam": "lambda", "sample_size": "samples", "learning_rate": "lr"}


# ---------------------------------------------------------------------------
# Optimizers (ascent direction: parameters move along +gradient).  Each acts
# in place on a model's one parameter vector, ``model.params``, with a
# gradient in the same layout; a grid keeps one optimizer per member.
# ---------------------------------------------------------------------------


class SGD:
    # The largest gradient entry a step takes; only finiteness bounds SGD.
    max_gradient = np.inf

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        params += self.learning_rate * grad


# Adam's moment decay rates and the term that keeps its step finite.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    # The largest gradient entry a step takes: the square of a larger one
    # can overflow the second-moment estimate, after which every step
    # would be 0.  The trainer refuses such a gradient before the step.
    max_gradient = 1e154

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        bc1 = 1.0 - _ADAM_BETA1 ** self.t
        bc2 = 1.0 - _ADAM_BETA2 ** self.t
        m, v = self.m, self.v
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * grad
        v *= _ADAM_BETA2
        v += (1.0 - _ADAM_BETA2) * grad * grad
        params += self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)


# The optimizers by name, the names in the order the CLI lists them.
OPTIMIZERS = {"adam": Adam, "sgd": SGD}


def make_optimizer(name: str, learning_rate: float) -> SGD | Adam:
    """A fresh optimizer of ``OPTIMIZERS``; ``TrainConfig`` checks the name."""
    return OPTIMIZERS[name](learning_rate)


# ---------------------------------------------------------------------------
# Score-space gradient estimators over a shared Monte-Carlo sample
# ---------------------------------------------------------------------------


def utility_weights(rewards: np.ndarray, use_baseline: bool = True) -> np.ndarray:
    """REINFORCE weights of the utility gradient: each sampled ranking's
    reward less the baseline, ``(S,)``, or ``(K, S)`` for a member block.

    The baseline is the mean reward over the sample, a control variate that
    leaves the expectation unchanged (log-probability gradients have zero
    mean) while cutting variance.  ``sample.score_grad`` of the weights is
    the utility's score gradient.
    """
    rewards = np.asarray(rewards, dtype=float)
    # The bits of rewards.mean(), without its Python-level wrapper.
    baseline = (rewards.sum(axis=-1, keepdims=True) / rewards.shape[-1]
                if use_baseline else 0.0)
    return rewards - baseline


def disparity_score_grad(rankings: np.ndarray, rows: Rows,
                         disparity: DisparityConfig) -> np.ndarray:
    """Weights of the score-function estimate of the gradient of
    ``disparity`` of one query, whose hinge rows are ``rows`` (its row of
    ``DisparityConfig.rows``): ``(S,)`` for ``(S, n)`` rankings, or ``(K,
    S)`` for a member block's ``(K, S, n)``, each member's with the bits of
    its own call.  ``sample.score_grad`` of the weights is the estimate.

    The sample's exposures pick the active (positively violated) rows, and
    a ranking's weight is its exposure valued under the gradient of the
    active rows.  The group row's value at each ranking is one gather, and
    its gap the mean of those values, so no exposure is estimated apart.
    Pair rows estimate the exposures (``mc_exposure``), take the gradient
    of their active pairs (``hinge_weights``) and value each ranking under
    it.  Without an active row every weight is exactly zero.
    """
    bias = position_bias_vector(rankings.shape[-1])
    if disparity.kind == "group":
        values = at_rankings(rows[0], rankings) @ bias
        # The row's gap is the mean of its values, positive where their sum is.
        return np.where(values.sum(axis=-1, keepdims=True) > 0.0, values, 0.0)
    weights = hinge_weights(rows, mc_exposure(rankings))
    return at_rankings(weights, rankings) @ bias


def _row_views(arrays: tuple[np.ndarray, ...], index) -> tuple[np.ndarray, ...]:
    """The views of ``arrays`` at ``index`` of their leading axis: one
    query's, or a block's, constants or hinge rows of a run."""
    return tuple(array[index] for array in arrays)


# What a split's metrics and disparity read: for each run of consecutive
# equal-size queries, each metric's constants, in order, and the
# disparity's hinge rows, None without a disparity.
SplitConstants = list[tuple[list[Constants], Rows | None]]


def split_constants(dataset: Dataset, metrics: Sequence[UtilityMetric],
                    disparity: DisparityConfig | None) -> SplitConstants:
    """Each run's constants of ``metrics`` and hinge rows of ``disparity``,
    one vectorized build per run."""
    return [([metric.constants(run.relevances) for metric in metrics],
             None if disparity is None else disparity.rows(run.relevances, run.groups))
            for run in dataset.runs]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalSummary:
    """Dataset-level evaluation of one member's rankings (a model's argmax
    ranking, or an LP mixture) and (optionally) of its exposures'
    disparity.

    ``extra_values`` and ``extra_means`` hold one per-query list and one
    mean per extra metric, in the order the metrics were given.
    """

    metric_values: list[float]
    disparity_values: list[float] | None
    mean_metric: float
    mean_disparity: float | None
    extra_values: list[list[float]] = field(default_factory=list)
    extra_means: list[float] = field(default_factory=list)


# A ranker gives, for a block of Q consecutive queries of n documents each,
# the `block` slice of the split's run `run` (an index into its `runs`), and
# their (Q, n, d) features, K members' (K, Q, M, n) rankings, their
# (K, Q, M) weights and their (K, Q, n) exposures, or None for exposures
# when no disparity is asked.
Ranker = Callable[[int, slice, np.ndarray],
                  tuple[np.ndarray, np.ndarray, np.ndarray | None]]


def value_split(dataset: Dataset, rank: Ranker, metric: UtilityMetric,
                disparity: DisparityConfig | None,
                extra_metrics: Sequence[UtilityMetric] = (),
                rows: Callable[[int], int] = lambda n: 1,
                constants: SplitConstants | None = None) -> list[EvalSummary]:
    """The one evaluation of a split: each member's metric values and
    disparities of the rankings and exposures that ``rank`` gives, one
    summary per member.

    A member's value of a query is the weighted sum of its rankings'
    values, each metric valuing a block in one ``batch_values`` call; an
    argmax ranking, M = 1 with weight 1, keeps the bits of its value.  Its
    disparities are ``from_exposures`` of its exposures, one call per block
    for all members.  Each metric and the disparity read the split's
    ``constants`` (``split_constants`` of ``metric``, ``extra_metrics`` and
    ``disparity``), built here when not given.  Each run of consecutive
    equal-size queries is cut into blocks of as many queries as
    ``EVAL_BLOCK_DRAWS`` entries hold (at least one), ``rows(n) * n`` per
    query of n documents; ``rank`` is called once per block, in split
    order, with the block's run and slice of it, and each block reads its
    slice of the run's arrays.
    """
    scored = (metric, *extra_metrics)
    if constants is None:
        constants = split_constants(dataset, scored, disparity)
    values, disparities = [], []
    for r, (run, (built, hinges)) in enumerate(zip(dataset.runs, constants, strict=True)):
        n = run.relevances.shape[1]
        per_block = max(1, EVAL_BLOCK_DRAWS // (rows(n) * n))
        for start in range(0, len(run), per_block):
            block = slice(start, start + per_block)
            orders, weights, exposures = rank(r, block, run.features[block])
            values.append([(each.batch_values(orders, _row_views(of_each, block))
                            * weights).sum(axis=-1)
                           for each, of_each in zip(scored, built)])
            if disparity is not None:
                disparities.append(disparity.from_exposures(
                    exposures, _row_views(hinges, block)))
    columns = np.concatenate(values, axis=-1)
    # Each row's mean has the bits of np.mean on that row alone, a
    # contiguous row's pairwise sum.
    means = columns.mean(axis=-1).T.tolist()
    if disparity is not None:
        disparities = np.concatenate(disparities, axis=-1)
        mean_disparities = disparities.mean(axis=-1).tolist()
    return [EvalSummary(
        metric_values=columns[0, k].tolist(),
        disparity_values=None if disparity is None else disparities[k].tolist(),
        mean_metric=means[k][0],
        mean_disparity=None if disparity is None else mean_disparities[k],
        extra_values=[column[k].tolist() for column in columns[1:]],
        extra_means=means[k][1:],
    ) for k in range(columns.shape[1])]


def argmax_ranker(model: ScoringModel,
                  exposures: Callable[[np.ndarray, np.ndarray], np.ndarray | None]
                  ) -> Ranker:
    """A ``Ranker`` of the argmax ranking of each member of a model or a
    ``(K, P)`` member block, with weight 1, and ``exposures(scores,
    orders)`` of the members' ``(K, Q, n)`` scores and rankings.  A block's
    features are scored by each member, and all members' rankings come from
    one stable ``argsort``."""
    members = [model.with_params(params) for params in np.atleast_2d(model.params)]

    def rank(run, block, features):
        scores = np.array([member.scores(features) for member in members])
        orders = policy.argmax_ranking(scores)
        return (orders[..., None, :], np.ones((*orders.shape[:-1], 1)),
                exposures(scores, orders))

    return rank


def _evaluate(model: ScoringModel, dataset: Dataset, metric: UtilityMetric,
              disparity: DisparityConfig | None, eval_samples: int,
              rng: np.random.Generator,
              extra_metrics: Sequence[UtilityMetric] = (),
              constants: SplitConstants | None = None) -> list[EvalSummary]:
    """One pass over a split for a model, or for each member of a ``(K, P)``
    member block; one summary per member, a single model being a block of
    one.  ``constants``, when given, are the split's ``split_constants``
    of the metrics and the disparity, which the pass reads instead of
    building them.

    ``value_split`` values the members' argmax rankings and, with a
    disparity, their policy exposures: one ``exposure_of_policy`` call per
    block for all members.  A block holds as many queries as
    ``EVAL_BLOCK_DRAWS`` entries do: the ``eval_samples * n`` uniform draws
    of a Monte-Carlo query, or the ``2**n * n`` flows of an exact one, as
    ``fairness.exposure_is_exact`` tells.
    Every member's values have the bits of its own pass; an exact block
    draws nothing, so where it is cut changes no bits.
    """
    def policy_exposures(scores, orders):
        if disparity is None:
            return None
        return exposure_of_policy(scores, num_samples=eval_samples, rng=rng).values

    return value_split(
        dataset, argmax_ranker(model, policy_exposures), metric, disparity,
        extra_metrics,
        rows=lambda n: 1 << n if exposure_is_exact(n) else eval_samples,
        constants=constants)


# Most entries one evaluation block takes at once: a Monte-Carlo block's
# uniform draws, and each member's rankings and their exposures, or each
# member's exact subset flows, are about 1 MB each, however long the run
# of equal-size queries.
EVAL_BLOCK_DRAWS = 1 << 17


def require_defined(splits: Sequence[tuple[str, Dataset, Sequence[UtilityMetric]]],
                    disparity: DisparityConfig | None = None) -> None:
    """Refuse up front a split on which a value is undefined, which would
    otherwise fail mid-run or, for group disparity, silently count as zero.
    ``splits`` pairs each named split with the metrics valued on it, and
    ``disparity``, if any, is valued on every split.  Refused are: a split
    without group labels under group disparity; for ERR, a relevance above
    ``metric.err_max_grade``; for ERR or a disparity, whose merit needs it,
    a negative relevance; for avgrank, a query whose relevances are all
    zero."""
    for name, dataset, valued in splits:
        if disparity is not None and disparity.kind == "group" \
                and not dataset.has_groups:
            raise ValueError(f"{name} split has no group labels, which group "
                             "disparity requires")
        kinds = {metric.kind for metric in valued}
        for metric in valued:
            if metric.kind == "err":
                top = float(dataset.relevances.max())
                if top > metric.err_max_grade:
                    raise ValueError(
                        f"{name} split has relevance {top:g}, above "
                        f"err_max_grade {metric.err_max_grade:g}; raise "
                        f"err_max_grade to at least {top:g}")
        needs = "err" if "err" in kinds else None if disparity is None else "merit"
        for run in dataset.runs:
            lowest, totals = run.relevances.min(axis=-1), run.relevances.sum(axis=-1)
            negative = lowest < 0.0 if needs else np.zeros(len(run), dtype=bool)
            zero = totals == 0.0 if "avgrank" in kinds else np.zeros(len(run), dtype=bool)
            if not (negative | zero).any():
                continue
            # The first query at fault, with the first rule it breaks.
            q = int(np.argmax(negative | zero))
            qid = dataset.qids[run.start + q]
            if negative[q]:
                raise ValueError(f"{name} split query {qid!r} has negative "
                                 f"relevance {lowest[q]:g}, for which "
                                 f"{needs} is undefined")
            raise ValueError(f"{name} split query {qid!r} has only zero "
                             "relevances, for which avgrank is undefined")


def evaluate(model: ScoringModel, dataset: Dataset, metric: UtilityMetric,
             disparity: DisparityConfig | None = None, eval_samples: int = 32,
             seed: int = 0, extra_metrics: Sequence[UtilityMetric] = ()
             ) -> EvalSummary | list[EvalSummary]:
    """Mean metric over argmax rankings, plus mean policy disparity.

    One pass scores each query once: ``metric`` and every one of
    ``extra_metrics`` value the same argmax rankings.  Disparity uses exact
    exposures for small candidate sets and seeded Monte-Carlo exposures
    (``eval_samples`` rankings per query, drawn in blocks of consecutive
    equal-size queries) otherwise.  A ``(K, P)`` member block gives a list
    of K summaries, member k's equal to evaluating it alone: the members
    share every draw.  Raises ``ValueError`` before any work if the model's
    feature width is not the dataset's, if ``eval_samples`` is below 1, if
    ``seed`` is negative, or if a metric or the disparity is undefined on
    the dataset (``require_defined``).
    """
    if model.feature_dim != dataset.feature_dim:
        raise ValueError(f"model has {model.feature_dim} features, evaluation "
                         f"split has {dataset.feature_dim}")
    if eval_samples < 1:
        raise ValueError("eval_samples must be >= 1")
    require_seed(seed)
    require_defined([("evaluation", dataset, (metric, *extra_metrics))], disparity)
    summaries = _evaluate(model, dataset, metric, disparity, eval_samples,
                          np.random.default_rng(seed), extra_metrics)
    return summaries if model.params.ndim == 2 else summaries[0]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


# The per-epoch curves of a run, in curves.csv column order: the mean
# argmax metric and policy disparity on each split, then the validation
# objective.  A run without a disparity has no disparity curves.
CURVES = ("train_metric", "train_disparity", "val_metric", "val_disparity",
          "val_objective")


@dataclass
class RunRecord:
    """Everything one training run produced, ready for export; a run fills
    its record in as it trains, epoch by epoch.

    ``curves`` maps each name of ``CURVES`` the run has to its per-epoch
    values; ``best_epoch`` is where the validation objective (reward minus
    ``lam`` times disparity) peaked and ``model`` holds the parameters from
    that epoch.  ``delta_lambda`` is the realized mean disparity of the
    selected policy on the training queries (None when no disparity was
    configured).
    """

    config: dict
    model: ScoringModel
    epochs_run: int
    best_epoch: int
    curves: dict[str, list[float]]
    delta_lambda: float | None

    def to_json_dict(self) -> dict:
        out = {
            "method": "pg-rank",
            "config": self.config,
            "epochs_run": self.epochs_run,
            "best_epoch": self.best_epoch,
            "curves": self.curves,
            # The evaluation means at the selected epoch, not the objective.
            "final": {name: self.curves[name][self.best_epoch - 1]
                      for name in CURVES[:-1] if name in self.curves},
        }
        if self.delta_lambda is not None:
            out["delta_lambda"] = self.delta_lambda
        return out


def train(train_set: Dataset, val_set: Dataset,
          config: TrainConfig | Sequence[TrainConfig]
          ) -> RunRecord | list[RunRecord | TrainingError]:
    """Run the policy-gradient loop and return the selected model + curves.

    Deterministic: identical datasets, config, and seed reproduce the run
    bit for bit.  Raises ``TrainingError`` if a gradient is non-finite or
    above the optimizer's ``max_gradient``, naming the offending query, and
    ``ValueError`` before epoch 1 if the splits differ in feature width, or
    if the metric or the disparity is undefined on either split
    (``require_defined``).

    ``config`` may also be a grid: a sequence of configs that differ only
    in ``lam``, trained in lockstep as one block.  The result is then a
    list with, for each config in order, the ``RunRecord`` it gets trained
    alone, bit for bit, or the ``TrainingError`` it raises alone; a member
    that fails leaves the block and the others carry on.  An empty grid, or
    configs that differ in anything but ``lam``, raise ``ValueError``.
    """
    if not isinstance(config, TrainConfig):
        return _train_grid(train_set, val_set, config)
    (outcome,) = _train_grid(train_set, val_set, [config])
    if isinstance(outcome, TrainingError):
        raise outcome
    return outcome


@dataclass
class _Member:
    """One run of a grid: its config, its optimizer, the ``RunRecord`` it
    fills in as it trains (its best model, epochs and curves, then its
    ``delta_lambda``), the validation objective of its best epoch, and the
    ``TrainingError`` it failed with, if any."""

    config: TrainConfig
    optimizer: SGD | Adam
    record: RunRecord
    best_objective: float = -np.inf
    error: TrainingError | None = None


def _train_grid(train_set: Dataset, val_set: Dataset,
                configs: Sequence[TrainConfig]) -> list[RunRecord | TrainingError]:
    """``train`` on a grid.  Members share one permutation per epoch and one
    draw per step, so a member's results do not depend on the other
    members.  A member that stops early or fails leaves the block."""
    if not configs:
        raise ValueError("a grid needs at least one config")
    first = configs[0]
    shared = dataclasses.replace(first, lam=0.0)
    if any(dataclasses.replace(c, lam=0.0) != shared for c in configs[1:]):
        raise ValueError("the configs of a grid may differ only in lam")
    if val_set.feature_dim != train_set.feature_dim:
        raise ValueError(f"val split has {val_set.feature_dim} features, train "
                         f"split has {train_set.feature_dim}")
    require_defined([("train", train_set, [first.metric]),
                     ("val", val_set, [first.metric])], first.disparity)
    root = np.random.SeedSequence(first.seed)
    ss_init, ss_train, ss_eval, ss_delta = root.spawn(4)
    model = init_model(first.model, train_set.feature_dim,
                       np.random.default_rng(ss_init),
                       hidden_units=first.hidden_units)
    members = [_Member(config, make_optimizer(config.optimizer, config.learning_rate),
                       RunRecord(config.echo(), model.copy(), epochs_run=0, best_epoch=0,
                                 curves={}, delta_lambda=None))
               for config in configs]
    block = _Block(model.with_params(np.tile(model.params, (len(members), 1))),
                   members)
    train_rng = np.random.default_rng(ss_train)
    eval_seeds = ss_eval.spawn(first.epochs)
    # Each split's metric constants and hinge rows, built once for every
    # step and every evaluation pass of the run.
    train_constants, val_constants = (
        split_constants(split, [first.metric], first.disparity)
        for split in (train_set, val_set))
    steps = _step_queries(train_set, train_constants)

    for epoch in range(1, first.epochs + 1):
        for qi in train_rng.permutation(len(train_set)):
            failed = _train_step(block, steps[qi], first, train_rng)
            if failed:
                for row, error in failed.items():
                    block.members[row].error = error
                block = block.without(failed)
                if not block.members:
                    break
        if not block.members:
            break
        # Both splits draw from the epoch's one generator, train first.
        eval_rng = np.random.default_rng(eval_seeds[epoch - 1])
        on_train = _evaluate(block.model, train_set, first.metric, first.disparity,
                             first.eval_samples, eval_rng, constants=train_constants)
        on_val = _evaluate(block.model, val_set, first.metric, first.disparity,
                           first.eval_samples, eval_rng, constants=val_constants)
        stopped = [row for row, member in enumerate(block.members)
                   if _end_epoch(member, block.member_model(row), epoch,
                                 on_train[row], on_val[row])]
        if stopped:
            block = block.without(stopped)
        if not block.members:
            break

    finished = [member for member in members if member.error is None]
    if finished and first.disparity is not None:
        best = model.with_params(np.stack([m.record.model.params for m in finished]))
        for member, summary in zip(finished, _evaluate(
                best, train_set, first.metric, first.disparity,
                first.eval_samples, np.random.default_rng(ss_delta),
                constants=train_constants)):
            member.record.delta_lambda = summary.mean_disparity
    return [member.error if member.error is not None else member.record
            for member in members]


class _Block:
    """The members still training: row k of the model block ``model``
    belongs to ``members[k]``.  The rows with a disparity penalty and their
    weights are found once per block, as a slice when the rows are
    contiguous, so that a step takes them without a copy."""

    def __init__(self, model: ScoringModel, members: list[_Member]):
        self.model = model
        self.members = members
        lams = np.array([member.config.lam for member in members])
        rows = np.flatnonzero(lams)
        contiguous = len(rows) and rows[-1] - rows[0] == len(rows) - 1
        self.penalized = slice(rows[0], rows[-1] + 1) if contiguous else rows
        self.penalties = lams[rows, None]

    def member_model(self, row: int) -> ScoringModel:
        """A copy of the model of the member at ``row``."""
        return self.model.with_params(self.model.params[row])

    def without(self, rows) -> "_Block":
        """The block less the members at ``rows``."""
        keep = [row for row in range(len(self.members)) if row not in rows]
        return _Block(self.model.with_params(self.model.params[keep]),
                      [self.members[row] for row in keep])


def _end_epoch(member: _Member, model: ScoringModel, epoch: int,
               on_train: EvalSummary, on_val: EvalSummary) -> bool:
    """Record a member's evaluations after an epoch, keep its best model,
    and tell whether its early stopping ends its run."""
    config, record = member.config, member.record
    record.epochs_run = epoch
    val_disp = on_val.mean_disparity if config.disparity is not None else 0.0
    objective = config.metric.sign * on_val.mean_metric - config.lam * val_disp
    values = (on_train.mean_metric, on_train.mean_disparity, on_val.mean_metric,
              on_val.mean_disparity, objective)
    for name, value in zip(CURVES, values):
        if value is not None:
            record.curves.setdefault(name, []).append(value)

    if objective > member.best_objective:
        member.best_objective = objective
        record.best_epoch = epoch
        record.model = model
        return False
    return config.patience > 0 and epoch - record.best_epoch >= config.patience


class _StepQuery(NamedTuple):
    """What a training step reads of one query: its qid and its row views
    of its run's features, metric constants and hinge rows (None without a
    disparity)."""

    qid: str
    features: np.ndarray
    constants: Constants
    rows: Rows | None


def _step_queries(dataset: Dataset, constants: SplitConstants) -> list[_StepQuery]:
    """Each query's ``_StepQuery``, in dataset order, from the split's
    ``split_constants`` of the training metric and the disparity."""
    steps = []
    for run, ((of_metric,), rows) in zip(dataset.runs, constants, strict=True):
        steps += [_StepQuery(dataset.qids[run.start + q], run.features[q],
                             _row_views(of_metric, q),
                             None if rows is None else _row_views(rows, q))
                  for q in range(len(run))]
    return steps


def _train_step(block: _Block, query: _StepQuery, config: TrainConfig,
                rng: np.random.Generator) -> dict[int, TrainingError]:
    """One step of every member of ``block`` on ``query``, each with its own
    trade-off weight and optimizer; ``config`` holds what they share.
    Returns, by block row, the errors of the members whose gradient is not
    finite or is above their optimizer's ``max_gradient``; their parameters
    do not move."""
    model = block.model
    scores = model.scores(query.features)
    sample = draw_policy_sample(scores, config.sample_size, rng)
    rewards = config.metric.batch_rewards(sample.rankings, query.constants)
    weights = utility_weights(rewards, config.use_baseline)
    if len(block.penalties):
        weights[block.penalized] -= block.penalties * disparity_score_grad(
            sample.rankings[block.penalized], query.rows, config.disparity)
    score_grad = sample.score_grad(weights)
    if config.gamma != 0.0:
        _, entropy_grad = softmax_entropy(scores)
        score_grad = score_grad + config.gamma * entropy_grad
    param_grad = model.backprop(query.features, score_grad)
    # NaN propagates through max, so a non-finite entry fails the test too.
    peaks = np.abs(param_grad).max(axis=-1)
    failed = {}
    for k, member in enumerate(block.members):
        limit = member.optimizer.max_gradient
        if peaks[k] < limit:
            member.optimizer.step(model.params[k], param_grad[k])
            continue
        what = ("non-finite gradient" if not np.isfinite(peaks[k]) else
                f"gradient entry {peaks[k]:.3g} above {limit:g}, which "
                f"{member.config.optimizer} cannot take,")
        failed[k] = TrainingError(
            f"{what} on query {query.qid!r}; "
            f"scores ranged [{scores[k].min():.3g}, {scores[k].max():.3g}]")
    return failed
