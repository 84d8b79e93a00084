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
vector ``backprop`` returns, and a step checks that gradient for
non-finite values with one call.

Both disparities reach the trainer as the hinge rows of
``DisparityConfig.rows``, and one estimator, ``hinge_score_grad``, serves
them: the hinge indicator of each row is estimated from the same
Monte-Carlo sample as the expectation (its bias vanishes as the sample
grows), and only the smooth inner expectation contributes gradient.

Evaluation, after every epoch and for the selected model, is one pass per
split (``_evaluate``).  Each query is scored once and its argmax ranking
valued by every metric asked for.  Policy exposures come from
``exposure_of_policy``: exact, one query at a time, for small queries;
for each run of consecutive larger queries of equal size, one Monte-Carlo
call per block of the run, which draws through ``policy.sample_rankings``
and reduces with ``mc_exposure``.  The draws come in the same order as one
query at a time, so results are bit-identical to a per-query loop, and a
block holds at most ``EVAL_BLOCK_DRAWS`` draws, so memory does not grow
with the split.  The position bias vector of each length is built once and
shared read-only, and each query keeps its metric constants (gains, ideal
DCG, ERR stop probabilities) and its hinge rows, so training steps and
evaluations pass the query itself to the metric and the disparity.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import policy
from .data import Dataset, Query
from .fairness import DisparityConfig, HingeRows, exposure_of_policy, hinge_gaps, \
    hinge_weights, mc_exposure
from .metrics import UtilityMetric, position_bias_vector
from .policy import PolicySample, ScoringModel, draw_policy_sample, init_model, \
    softmax_entropy
from .ranking import ENUMERATION_LIMIT


class TrainingError(RuntimeError):
    """Raised when training encounters a non-finite gradient."""


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
    use_bias: bool = False
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
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lam != 0.0 and self.disparity is None:
            raise ValueError("lam != 0 requires a disparity config")

    def echo(self) -> dict:
        """Flat, JSON-ready record of every hyperparameter."""
        return {
            "lambda": self.lam,
            "gamma": self.gamma,
            "samples": self.sample_size,
            "lr": self.learning_rate,
            "optimizer": self.optimizer,
            "epochs": self.epochs,
            "metric": str(self.metric),
            "disparity": "none" if self.disparity is None else self.disparity.kind,
            "merit": "none" if self.disparity is None else str(self.disparity.merit),
            "model": self.model,
            "hidden_units": self.hidden_units,
            "use_bias": self.use_bias,
            "use_baseline": self.use_baseline,
            "seed": self.seed,
            "patience": self.patience,
            "eval_samples": self.eval_samples,
        }


# ---------------------------------------------------------------------------
# Optimizers (ascent direction: parameters move along +gradient).  Each acts
# in place on a model's one parameter vector, ``model.params``, with a
# gradient in the same layout.
# ---------------------------------------------------------------------------


class SGD:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        params += self.learning_rate * grad


class Adam:
    def __init__(self, learning_rate: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        params += self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def make_optimizer(name: str, learning_rate: float):
    if name == "adam":
        return Adam(learning_rate)
    if name == "sgd":
        return SGD(learning_rate)
    raise ValueError(f"unknown optimizer {name!r}")


# ---------------------------------------------------------------------------
# Score-space gradient estimators over a shared Monte-Carlo sample
# ---------------------------------------------------------------------------


def utility_score_grad(sample: PolicySample, rewards: np.ndarray,
                       use_baseline: bool = True) -> np.ndarray:
    """REINFORCE estimate of the utility gradient wrt scores.

    The baseline is the mean reward over the sample, a control variate that
    leaves the expectation unchanged (log-probability gradients have zero
    mean) while cutting variance.
    """
    rewards = np.asarray(rewards, dtype=float)
    baseline = rewards.mean() if use_baseline else 0.0
    return (rewards - baseline) @ sample.logprob_grads / sample.size


def hinge_score_grad(sample: PolicySample, rows: HingeRows) -> np.ndarray:
    """Estimate of the gradient wrt scores of ``hinge_mean(rows, exposure)``.

    Exposures estimated from the sample pick the active (positively
    violated) rows, and ``hinge_weights`` turns them into exposure weights;
    each sampled ranking's exposure under those weights weights its
    log-probability gradient.  A query without rows, or without an active
    one, contributes nothing.
    """
    size, n = sample.rankings.shape
    if len(rows) == 0:
        return np.zeros(n)
    active = hinge_gaps(rows, mc_exposure(sample.rankings, n)) > 0.0
    if not active.any():
        return np.zeros(n)
    weights = hinge_weights(rows, active)
    per_sample = weights[sample.rankings] @ position_bias_vector(n)
    return per_sample @ sample.logprob_grads / size


def disparity_score_grad(sample: PolicySample, query: Query,
                         disparity: DisparityConfig) -> np.ndarray:
    return hinge_score_grad(sample, disparity.query_rows(query))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalSummary:
    """Dataset-level evaluation of a model's deterministic ranking quality
    and (optionally) its stochastic policy's disparity.

    ``extra_values`` and ``extra_means`` hold one per-query list and one
    mean per extra metric, in the order the metrics were given.
    """

    metric_values: list[float]
    disparity_values: list[float] | None
    mean_metric: float
    mean_disparity: float | None
    extra_values: list[list[float]] = field(default_factory=list)
    extra_means: list[float] = field(default_factory=list)


def _evaluate(model: ScoringModel, dataset: Dataset, metric: UtilityMetric,
              disparity: DisparityConfig | None, eval_samples: int,
              rng: np.random.Generator,
              extra_metrics: Sequence[UtilityMetric] = ()) -> EvalSummary:
    """One pass over a split: each query is scored once, its argmax ranking
    valued by every metric, and, with a disparity, the policy's exposures
    come from ``_policy_exposures``."""
    queries = dataset.queries
    scores = [model.scores(q.feature_matrix) for q in queries]
    orders = [policy.argmax_ranking(s) for s in scores]
    columns = [[m.value(order, q) for order, q in zip(orders, queries)]
               for m in (metric, *extra_metrics)]
    disparity_values = None
    if disparity is not None:
        disparity_values = [
            disparity.from_exposures(e, q)
            for e, q in zip(_policy_exposures(scores, eval_samples, rng), queries)]
    means = [float(np.mean(values)) for values in columns]
    return EvalSummary(
        metric_values=columns[0],
        disparity_values=disparity_values,
        mean_metric=means[0],
        mean_disparity=(None if disparity_values is None
                        else float(np.mean(disparity_values))),
        extra_values=columns[1:],
        extra_means=means[1:],
    )


# Most uniform draws one Monte-Carlo evaluation block takes at once: its
# draws, its rankings and their exposures are about 1 MB each, however long
# the run of equal-size queries.
EVAL_BLOCK_DRAWS = 1 << 17


def _policy_exposures(scores: list[np.ndarray], eval_samples: int,
                      rng: np.random.Generator) -> list[np.ndarray]:
    """``exposure_of_policy`` in auto mode at each score vector, in order.

    Exact exposures draw nothing and take one query per call.  Each run of
    consecutive equal-size queries above ``ENUMERATION_LIMIT`` documents is
    cut into blocks of as many queries as ``EVAL_BLOCK_DRAWS`` draws hold
    (at least one), and each block is one Monte-Carlo call of
    ``eval_samples`` rankings per query, drawn in query order: the
    estimates and the generator's state after the pass equal those of one
    call per query.
    """
    exposures = []
    for n, run in itertools.groupby(scores, key=len):
        run = list(run)
        per_call = (1 if n <= ENUMERATION_LIMIT
                    else max(1, EVAL_BLOCK_DRAWS // (eval_samples * n)))
        for start in range(0, len(run), per_call):
            block = run[start] if per_call == 1 else np.stack(run[start:start + per_call])
            result = exposure_of_policy(block, mode="auto",
                                        num_samples=eval_samples, rng=rng)
            exposures.extend(np.atleast_2d(result.values))
    return exposures


def require_defined_metric(metric: UtilityMetric,
                           splits: Sequence[tuple[str, Dataset]]) -> None:
    """Refuse up front a split on which ``metric`` is undefined, which
    ``metrics`` would otherwise reject mid-run: for ERR, a relevance above
    ``metric.err_max_grade``; for avgrank, a query whose relevances are all
    zero."""
    for name, dataset in splits:
        if metric.kind == "err":
            top = max(float(q.relevances.max()) for q in dataset)
            if top > metric.err_max_grade:
                raise ValueError(
                    f"{name} split has relevance {top:g}, above err_max_grade "
                    f"{metric.err_max_grade:g}; raise err_max_grade to at least "
                    f"{top:g}")
        elif metric.kind == "avgrank":
            for q in dataset:
                if q.relevances.sum() == 0.0:
                    raise ValueError(
                        f"{name} split query {q.qid!r} has only zero "
                        "relevances, for which avgrank is undefined")


def require_group_labels(disparity: DisparityConfig | None,
                         splits: Sequence[tuple[str, Dataset]]) -> None:
    """Refuse group disparity on a split without group labels, whose
    disparity would otherwise silently count as zero."""
    if disparity is None or disparity.kind != "group":
        return
    for name, dataset in splits:
        if not dataset.has_groups:
            raise ValueError(f"{name} split has no group labels, which group "
                             "disparity requires")


def evaluate(model: ScoringModel, dataset: Dataset, metric: UtilityMetric,
             disparity: DisparityConfig | None = None, eval_samples: int = 32,
             seed: int = 0,
             extra_metrics: Sequence[UtilityMetric] = ()) -> EvalSummary:
    """Mean metric over argmax rankings, plus mean policy disparity.

    One pass scores each query once: ``metric`` and every one of
    ``extra_metrics`` value the same argmax rankings.  Disparity uses exact
    exposures for small candidate sets and seeded Monte-Carlo exposures
    (``eval_samples`` rankings per query, drawn in blocks of consecutive
    equal-size queries) otherwise.  Raises ``ValueError`` before any work if
    ``eval_samples`` is below 1, if a metric is undefined on the dataset
    (``require_defined_metric``), or if group disparity is asked of a
    dataset without group labels.
    """
    if eval_samples < 1:
        raise ValueError("eval_samples must be >= 1")
    for each in (metric, *extra_metrics):
        require_defined_metric(each, [("evaluation", dataset)])
    require_group_labels(disparity, [("evaluation", dataset)])
    return _evaluate(model, dataset, metric, disparity, eval_samples,
                     np.random.default_rng(seed), extra_metrics)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """Everything one training run produced, ready for export.

    Per-epoch curves are argmax-metric and policy-disparity means on the
    train and validation splits; ``best_epoch`` is where the validation
    objective (reward minus ``lam`` times disparity) peaked and ``model``
    holds the parameters from that epoch.  ``delta_lambda`` is the realized
    mean disparity of the selected policy on the training queries (None
    when no disparity was configured).
    """

    config: dict
    model: ScoringModel
    epochs_run: int
    best_epoch: int
    train_metric: list[float]
    val_metric: list[float]
    val_objective: list[float]
    train_disparity: list[float] | None
    val_disparity: list[float] | None
    delta_lambda: float | None

    def to_json_dict(self) -> dict:
        out = {
            "method": "pg-rank",
            "config": self.config,
            "epochs_run": self.epochs_run,
            "best_epoch": self.best_epoch,
            "curves": {
                "train_metric": self.train_metric,
                "val_metric": self.val_metric,
                "val_objective": self.val_objective,
            },
            "final": {
                "train_metric": self.train_metric[self.best_epoch - 1],
                "val_metric": self.val_metric[self.best_epoch - 1],
            },
        }
        if self.train_disparity is not None:
            out["curves"]["train_disparity"] = self.train_disparity
            out["curves"]["val_disparity"] = self.val_disparity
            out["final"]["train_disparity"] = self.train_disparity[self.best_epoch - 1]
            out["final"]["val_disparity"] = self.val_disparity[self.best_epoch - 1]
            out["delta_lambda"] = self.delta_lambda
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def train(train_set: Dataset, val_set: Dataset, config: TrainConfig) -> RunRecord:
    """Run the policy-gradient loop and return the selected model + curves.

    Deterministic: identical datasets, config, and seed reproduce the run
    bit for bit.  Raises ``TrainingError`` if a non-finite gradient shows
    up, naming the offending query, and ``ValueError`` before epoch 1 if
    the metric is undefined on either split (``require_defined_metric``),
    or if group disparity is configured and either split lacks group labels.
    """
    splits = [("train", train_set), ("val", val_set)]
    require_defined_metric(config.metric, splits)
    require_group_labels(config.disparity, splits)
    root = np.random.SeedSequence(config.seed)
    ss_init, ss_train, ss_eval, ss_delta = root.spawn(4)
    model = init_model(config.model, train_set.feature_dim,
                       np.random.default_rng(ss_init),
                       hidden_units=config.hidden_units,
                       use_bias=config.use_bias)
    optimizer = make_optimizer(config.optimizer, config.learning_rate)
    train_rng = np.random.default_rng(ss_train)
    eval_seeds = ss_eval.spawn(config.epochs)

    curves: dict[str, list[float]] = {k: [] for k in
                                      ("train_metric", "val_metric", "val_objective",
                                       "train_disparity", "val_disparity")}
    best_objective = -np.inf
    best_epoch = 0
    best_model = model.copy()
    epochs_run = 0

    for epoch in range(1, config.epochs + 1):
        for qi in train_rng.permutation(len(train_set)):
            _train_step(model, train_set.queries[qi], config, optimizer, train_rng)
        epochs_run = epoch

        eval_rng = np.random.default_rng(eval_seeds[epoch - 1])
        on_train = _evaluate(model, train_set, config.metric, config.disparity,
                             config.eval_samples, eval_rng)
        on_val = _evaluate(model, val_set, config.metric, config.disparity,
                           config.eval_samples, eval_rng)
        curves["train_metric"].append(on_train.mean_metric)
        curves["val_metric"].append(on_val.mean_metric)
        val_disp = on_val.mean_disparity if config.disparity is not None else 0.0
        objective = config.metric.sign * on_val.mean_metric - config.lam * val_disp
        curves["val_objective"].append(objective)
        if config.disparity is not None:
            curves["train_disparity"].append(on_train.mean_disparity)
            curves["val_disparity"].append(on_val.mean_disparity)

        if objective > best_objective:
            best_objective = objective
            best_epoch = epoch
            best_model = model.copy()
        elif config.patience > 0 and epoch - best_epoch >= config.patience:
            break

    delta_lambda = None
    if config.disparity is not None:
        delta_rng = np.random.default_rng(ss_delta)
        delta_lambda = _evaluate(best_model, train_set, config.metric,
                                 config.disparity, config.eval_samples,
                                 delta_rng).mean_disparity

    has_disp = config.disparity is not None
    return RunRecord(
        config=config.echo(),
        model=best_model,
        epochs_run=epochs_run,
        best_epoch=best_epoch,
        train_metric=curves["train_metric"],
        val_metric=curves["val_metric"],
        val_objective=curves["val_objective"],
        train_disparity=curves["train_disparity"] if has_disp else None,
        val_disparity=curves["val_disparity"] if has_disp else None,
        delta_lambda=delta_lambda,
    )


def _train_step(model: ScoringModel, query: Query, config: TrainConfig,
                optimizer, rng: np.random.Generator) -> None:
    scores = model.scores(query.feature_matrix)
    sample = draw_policy_sample(scores, config.sample_size, rng)
    rewards = config.metric.batch_rewards(sample.rankings, query)
    score_grad = utility_score_grad(sample, rewards, config.use_baseline)
    if config.lam != 0.0 and config.disparity is not None:
        score_grad = score_grad - config.lam * disparity_score_grad(
            sample, query, config.disparity)
    if config.gamma != 0.0:
        _, entropy_grad = softmax_entropy(scores)
        score_grad = score_grad + config.gamma * entropy_grad
    param_grad = model.backprop(query.feature_matrix, score_grad)
    if not np.isfinite(param_grad).all():
        raise TrainingError(
            f"non-finite gradient on query {query.qid!r}; "
            f"scores ranged [{scores.min():.3g}, {scores.max():.3g}]")
    optimizer.step(model.params, param_grad)
