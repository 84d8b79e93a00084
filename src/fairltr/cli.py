"""Command-line experiment harness.

Subcommands: ``generate simulated`` and ``generate from-table`` (datasets),
``train`` (one policy-gradient run), ``sweep`` (a lambda x seed grid),
``baseline`` (LP post-processing or top-1 softmax), ``eval`` (score a
checkpoint).

Each command declares its options once, as ``Option``s that give the flag,
the config-file key, the type, the default, the choices and the help text.
Every command also takes ``--config FILE`` with flat ``key = value`` lines
whose keys are its option names; explicit flags override the file.  An
option a command does not take is refused, as a flag or as a key, and so
are the top-1 options of ``baseline --method lp``.  ``sweep`` and
``baseline`` record in ``config.txt`` the options they read: a sweep's has
``lambdas`` and ``seeds`` and no ``lam`` or ``seed`` line, and the LP
baseline's no top-1 option.  Outputs are plain text
(LETOR data, JSON records, CSV tables) written deterministically: rerunning
a command with the same inputs and seed reproduces every byte.  Existing
non-empty output directories are refused unless ``--force`` is given.
Every refusal, a usage error of the parser included, is one ``error:``
line on standard error and exit code 1; ``--help`` exits 0.

Each command first reads and checks every input, and returns its work as
a function of the output directory; ``main`` makes that directory only
once the checks pass, so a refused command writes nothing.  A
``ValueError`` or ``OSError`` of the checks is a refusal.  One raised by
the work, after the directory exists, is a bug and propagates.

Every method's summary rows come from one evaluation,
``trainer.value_split``, and one row builder, ``_summary_row``: the policy
sweep values argmax rankings with policy exposures, the top-1 baseline
argmax rankings with their own exposures, and the LP each query's optimal
mixture of rankings with its expected exposures.  A sweep's train row
takes the run's ``delta_lambda`` as its ``disparity``, one estimate of one
quantity.

Dataset paths name the LETOR file; a sidecar group file with extension
``.groups`` next to it (``data.letor`` -> ``data.groups``) is attached
automatically when present.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import baselines, data, fairness, metrics, policy, trainer


class CliError(Exception):
    """User-facing failure; printed to stderr with exit code 1."""


# A command's work once its inputs are checked: it writes into the output
# directory it is given and returns the exit code.
Work = Callable[[Path], int]


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ``CliError``s, like every other
    refusal; ``--help`` still exits 0.  Each parser refuses the arguments it
    does not know itself, so the error names the command that was given
    them, not the top-level parser that would collect them."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


# ---------------------------------------------------------------------------
# Options, config files and option resolution
# ---------------------------------------------------------------------------


class Option(NamedTuple):
    """One option of a command: the flag ``--dest`` with ``-`` for ``_``
    (or ``flag``) and the config-file key ``dest``.  A flag beats the config file, which beats
    ``default``.  ``only = (key, value)`` marks an option read only when
    option ``key`` is ``value``: it is refused when set otherwise.  A value
    below ``minimum`` is refused."""
    dest: str
    kind: type
    default: object
    help: str
    choices: tuple[str, ...] = ()
    flag: str = ""
    only: tuple[str, str] | None = None
    minimum: int | None = None

    @property
    def name(self) -> str:
        return self.flag or "--" + self.dest.replace("_", "-")


def load_config_file(path: str, keys) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and # comments ignored.  A key
    outside ``keys``, the command's option names, is refused with its line,
    since it would otherwise be silently ignored."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path} line {lineno}: expected key = value")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise CliError(f"{path} line {lineno}: unknown key {key!r}; "
                           f"the keys are {', '.join(sorted(keys))}")
        values[key] = value.strip()
    return values


def _coerce(value: str, option: Option):
    if option.kind is bool:
        low = value.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise CliError(f"{option.dest}: cannot parse boolean {value!r}")
    try:
        parsed = option.kind(value)
    except ValueError:
        raise CliError(f"{option.dest}: cannot parse {value!r} as "
                       f"{option.kind.__name__}") from None
    if option.choices and parsed not in option.choices:
        raise CliError(f"{option.dest} must be one of "
                       f"{', '.join(option.choices)}, got {value!r}")
    return parsed


def resolve_options(args: argparse.Namespace, options: Sequence[Option]) -> dict:
    """Each option's value by flag, else config file, else default; an
    ``only`` option whose condition fails is refused if set and left out
    otherwise."""
    file_values = (load_config_file(args.config, {o.dest for o in options})
                   if args.config else {})
    out = {}
    for o in options:
        value = getattr(args, o.dest)
        if value is None and o.dest in file_values:
            value = _coerce(file_values[o.dest], o)
        if o.only and out[o.only[0]] != o.only[1]:
            if value is not None:
                raise CliError(f"{o.dest} is an option of {o.only[0]} "
                               f"{o.only[1]} only, and {o.only[0]} is "
                               f"{out[o.only[0]]}")
            continue
        if value is not None and o.minimum is not None and value < o.minimum:
            raise CliError(f"{o.name} must be >= {o.minimum}, got {value}")
        out[o.dest] = o.default if value is None else value
    return out


# ---------------------------------------------------------------------------
# Shared IO helpers
# ---------------------------------------------------------------------------


def prepare_out_dir(path: str, force: bool) -> Path:
    out = Path(path)
    if out.is_dir() and any(out.iterdir()) and not force:
        raise CliError(f"output directory {out} is not empty; "
                       f"pass --force to overwrite")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot make output directory {out}: {exc}") from None
    return out


def groups_path_for(letor_path: str) -> Path:
    p = Path(letor_path)
    return p.with_suffix(".groups") if p.suffix == ".letor" \
        else Path(str(p) + ".groups")


def load_dataset_auto(letor_path: str, like: tuple[str, object] | None = None
                      ) -> data.Dataset:
    """The dataset of ``letor_path`` and its sidecar group file.  With
    ``like``, a path and the dataset or model read from it, the dataset is
    read at least as wide as ``like``: a feature id its lines leave out is
    0, as in sparse LETOR.  A wider one is refused: models fitted to one
    width cannot score the other."""
    p = Path(letor_path)
    if not p.exists():
        raise CliError(f"dataset file {p} does not exist")
    gp = groups_path_for(letor_path)
    try:
        dataset = data.load_dataset(p, gp if gp.exists() else None,
                                    like[1].feature_dim if like else None)
    except (data.DataError, OSError) as exc:
        raise CliError(f"{p}: {exc}") from None
    if like and dataset.feature_dim != like[1].feature_dim:
        raise CliError(f"{p} has {dataset.feature_dim} features but {like[0]} "
                       f"has {like[1].feature_dim}")
    return dataset


def _splits(opts: dict, train_set: data.Dataset) -> list[tuple[str, data.Dataset]]:
    """The train split and, with ``--test``, the test split."""
    if not opts["test"]:
        return [("train", train_set)]
    return [("train", train_set),
            ("test", load_dataset_auto(opts["test"], (opts["train"], train_set)))]


def write_kv(path: Path, values: dict) -> None:
    lines = [f"{k} = {values[k]}" for k in sorted(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(cell) for cell in row])


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


SUMMARY_HEADER = ["lambda", "seed", "split", "ndcg", "err", "disparity",
                  "delta_lambda"]


def _summary_row(lam: float, seed: int | None, split: str,
                 summary: trainer.EvalSummary,
                 delta_lambda: float | None = None) -> list:
    """A ``summary.csv`` row of one member's evaluation with ``ndcg`` and
    ``err`` as its metrics.  A sweep's train row is given its run's
    ``delta_lambda``, which is then its disparity too."""
    disparity = summary.mean_disparity if delta_lambda is None else delta_lambda
    return [lam, seed, split, summary.mean_metric, summary.extra_means[0],
            disparity, delta_lambda]


def fit_metric_to_dataset(metric: metrics.UtilityMetric,
                          *datasets: data.Dataset) -> metrics.UtilityMetric:
    """Raise the ERR grade ceiling to cover every dataset when needed."""
    if metric.kind != "err":
        return metric
    top = max(float(ds.relevances.max()) for ds in datasets)
    if top > metric.err_max_grade:
        return metrics.UtilityMetric("err", metric.cutoff, max(4.0, top))
    return metric


def parse_disparity(kind: str, merit: str) -> fairness.DisparityConfig | None:
    kind = kind.strip().lower()
    if kind in ("none", ""):
        return None
    return fairness.DisparityConfig.parse(kind, merit)


def err_metric_for(dataset: data.Dataset) -> metrics.UtilityMetric:
    return fit_metric_to_dataset(metrics.UtilityMetric("err"), dataset)


# Options that several commands declare alike.
_TRAIN_PATH = Option("train", str, "", "training dataset (.letor)")
_TEST_PATH = Option("test", str, "", "held-out dataset for summary rows")
_METRIC = Option("metric", str, "ndcg@10", "ndcg[@k], dcg[@k], err or avgrank")
_DISPARITY = Option("disparity", str, "none", "none, individual or group")
_MERIT = Option("merit", str, "identity", "identity, square or sqrt")
_EVAL_SAMPLES = Option("eval_samples", int, 32,
                       "Monte-Carlo rankings per query for disparity eval",
                       minimum=1)
_SEED = Option("seed", int, 0, "random seed", minimum=0)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

_GENERATE_SIMULATED = (
    Option("queries", int, 100, "number of queries"),
    Option("docs", int, 10, "documents per query"),
    Option("minority_prob", float, 0.2,
           "probability that a document belongs to the minority group"),
    _SEED,
)

_GENERATE_FROM_TABLE = (
    Option("input", str, "", "CSV table with a header row"),
    Option("label_col", str, "label", "0/1 label column, by name or index"),
    Option("group_col", str, "", "0/1 group column, by name or index; "
                                 "without it the queries have no groups"),
    Option("preprocess", bool, False,
           "one-hot encode and standardize table columns"),
    Option("train_queries", int, 100, "queries in train.letor", minimum=1),
    Option("test_queries", int, 50, "queries in test.letor; 0 writes none",
           minimum=0),
    Option("candidate_size", int, 10, "documents per query"),
    Option("relevant_fraction", float, 0.2, "share of label-1 documents per query"),
    _SEED,
)


def cmd_generate_simulated(opts: dict) -> Work:
    dataset = data.generate_simulated(
        num_queries=opts["queries"], docs_per_query=opts["docs"],
        minority_prob=opts["minority_prob"], seed=opts["seed"])

    def work(out: Path) -> int:
        data.save_dataset(dataset, out / "data.letor", out / "data.groups")
        write_kv(out / "manifest.txt", {"command": "generate simulated", **opts})
        print(f"wrote {len(dataset)} queries ({dataset.num_docs} documents) "
              f"to {out / 'data.letor'}")
        return 0
    return work


def cmd_generate_from_table(opts: dict) -> Work:
    if not opts["input"]:
        raise CliError("generate from-table requires --input")
    dataset = data.convert_binary_table(
        *data.load_table(opts["input"], opts["label_col"], opts["group_col"],
                         opts["preprocess"]),
        num_queries=opts["train_queries"] + opts["test_queries"],
        candidate_size=opts["candidate_size"],
        relevant_fraction=opts["relevant_fraction"], seed=opts["seed"])

    def work(out: Path) -> int:
        train = dataset.subset(range(opts["train_queries"]))
        data.save_dataset(train, out / "train.letor", out / "train.groups")
        written = [f"{out / 'train.letor'} ({len(train)} queries)"]
        if opts["test_queries"] > 0:
            test = dataset.subset(range(opts["train_queries"], len(dataset)))
            data.save_dataset(test, out / "test.letor", out / "test.groups")
            written.append(f"{out / 'test.letor'} ({len(test)} queries)")
        write_kv(out / "manifest.txt", {"command": "generate from-table", **opts})
        print("wrote " + " and ".join(written))
        return 0
    return work


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_MODEL_DEFAULT_LR = {"linear": 0.001, "mlp1": 5e-5}

# The options train and sweep share: the sweep takes lambdas and seeds in
# place of train's lam and seed.
_TRAINING = (
    _TRAIN_PATH,
    Option("val", str, "", "validation dataset (.letor); otherwise split "
                           "from --train"),
    Option("gamma", float, 1.0, "entropy regularization weight"),
    Option("samples", int, 10, "rankings sampled per query step"),
    Option("lr", float, None, "learning rate (default " + ", ".join(
        f"{lr:g} for {model}" for model, lr in _MODEL_DEFAULT_LR.items()) + ")"),
    Option("epochs", int, 20, "training epochs"),
    Option("optimizer", str, "adam", "optimizer",
           choices=tuple(trainer.OPTIMIZERS)),
    _METRIC,
    _DISPARITY,
    _MERIT,
    Option("model", str, "linear", "scoring model",
           choices=tuple(_MODEL_DEFAULT_LR)),
    Option("hidden", int, 32, "hidden units for mlp1"),
    Option("no_baseline", bool, False, "disable the reward baseline"),
    Option("patience", int, 5, "early-stop patience in epochs; 0 disables"),
    _EVAL_SAMPLES,
    Option("val_fraction", float, 0.2, "validation fraction when --val is absent"),
    Option("split_seed", int, 0, "seed for the validation split", minimum=0),
)

_TRAIN = (
    *_TRAINING,
    Option("lam", float, 0.0, "utility/disparity trade-off weight",
           flag="--lambda"),
    _SEED._replace(help="training seed"),
)


def _build_train_config(opts: dict, train_set: data.Dataset,
                        val_set: data.Dataset,
                        summaries: Sequence[tuple[str, data.Dataset]] = ()
                        ) -> trainer.TrainConfig:
    """The run's config, checked against every split the command values:
    train and val with the run's metric, each split of ``summaries`` with
    the err column, and all of them with the disparity."""
    disparity = parse_disparity(opts["disparity"], opts["merit"])
    lr = opts["lr"] if opts["lr"] is not None else _MODEL_DEFAULT_LR[opts["model"]]
    metric = fit_metric_to_dataset(
        metrics.UtilityMetric.parse(opts["metric"]), train_set, val_set)
    trainer.require_defined(
        [("train", train_set, [metric]), ("val", val_set, [metric]),
         *((name, dataset, [err_metric_for(dataset)])
           for name, dataset in summaries)], disparity)
    return trainer.TrainConfig(
        lam=opts["lam"], gamma=opts["gamma"], sample_size=opts["samples"],
        learning_rate=lr, optimizer=opts["optimizer"], epochs=opts["epochs"],
        metric=metric, disparity=disparity, model=opts["model"],
        hidden_units=opts["hidden"], use_baseline=not opts["no_baseline"],
        seed=opts["seed"], patience=opts["patience"], eval_samples=opts["eval_samples"])


def _train_val_split(opts: dict) -> tuple[data.Dataset, data.Dataset]:
    dataset = load_dataset_auto(opts["train"])
    if opts["val"]:
        return dataset, load_dataset_auto(opts["val"], (opts["train"], dataset))
    try:
        return data.split_dataset(dataset, 1.0 - opts["val_fraction"],
                                  seed=opts["split_seed"])
    except data.DataError as exc:
        raise CliError(f"validation split failed: {exc}") from None


def _run_echo(config: trainer.TrainConfig, opts: dict) -> dict:
    return {**config.echo(), "train": opts["train"], "val": opts["val"],
            "val_fraction": opts["val_fraction"],
            "split_seed": opts["split_seed"]}


def _write_run_outputs(out: Path, record: trainer.RunRecord,
                       config_echo: dict) -> None:
    write_json(out / "record.json", record.to_json_dict())
    policy.save_model(record.model, out / "checkpoint.txt")
    curves = [record.curves.get(name) for name in trainer.CURVES]
    write_csv(out / "curves.csv", ["epoch", *trainer.CURVES],
              [[e + 1, *(None if curve is None else curve[e] for curve in curves)]
               for e in range(record.epochs_run)])
    write_kv(out / "config.txt", config_echo)


def cmd_train(opts: dict) -> Work:
    if not opts["train"]:
        raise CliError("train requires --train DATA.letor")
    train_set, val_set = _train_val_split(opts)
    config = _build_train_config(opts, train_set, val_set)

    def work(out: Path) -> int:
        try:
            record = trainer.train(train_set, val_set, config)
        except trainer.TrainingError as exc:
            raise CliError(f"training failed: {exc}") from None
        _write_run_outputs(out, record, _run_echo(config, opts))
        disp = ("" if record.delta_lambda is None
                else f", delta_lambda {record.delta_lambda:.5f}")
        print(f"best epoch {record.best_epoch}/{record.epochs_run}, "
              f"val {config.metric} {record.curves['val_metric'][record.best_epoch - 1]:.5f}"
              f"{disp}; outputs in {out}")
        return 0
    return work


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP = (
    *(o._replace(default="group") if o is _DISPARITY else o for o in _TRAINING),
    _TEST_PATH,
    Option("lambdas", str, "0,1,5,25", "comma-separated lambda values"),
    Option("seeds", str, "0", "comma-separated seeds"),
    Option("jobs", int, 1, "parallel worker processes over seeds, each "
                           "training one seed's lambdas in lockstep", minimum=1),
)


def _parse_number_list(text: str, kind, what: str) -> list:
    """The comma-separated numbers of ``text``; an empty list is refused."""
    try:
        values = [kind(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise CliError(f"cannot parse {what} list {text!r}") from None
    if not values:
        raise CliError(f"need at least one {what}, got {text!r}")
    return values


def _train_seed(configs: list[trainer.TrainConfig], opts: dict, out: Path,
                train_set: data.Dataset, val_set: data.Dataset,
                splits: list[tuple[str, data.Dataset]]
                ) -> list[list[list] | trainer.TrainingError]:
    """Train one seed's lambda grid as one lockstep block, write each
    finished run's outputs, and evaluate the finished runs together, one
    pass per split.  The train pass values no disparity: a train row's is
    the run's ``delta_lambda``.  Per run in order: its summary rows, or
    the ``TrainingError`` it failed with."""
    outcomes = trainer.train(train_set, val_set, configs)
    done = [k for k, outcome in enumerate(outcomes)
            if not isinstance(outcome, trainer.TrainingError)]
    for k in done:
        run_dir = out / _run_dir_name(configs[k].lam, configs[k].seed)
        run_dir.mkdir(exist_ok=True)
        _write_run_outputs(run_dir, outcomes[k], _run_echo(configs[k], opts))
    if not done:
        return outcomes
    config = configs[0]
    models = outcomes[done[0]].model.with_params(
        np.stack([outcomes[k].model.params for k in done]))
    rows = {k: [] for k in done}
    for split_name, dataset in splits:
        train = split_name == "train"
        summaries = trainer.evaluate(
            models, dataset, metrics.UtilityMetric("ndcg"),
            None if train else config.disparity,
            config.eval_samples, seed=config.seed,
            extra_metrics=[err_metric_for(dataset)])
        for k, summary in zip(done, summaries):
            rows[k].append(_summary_row(
                configs[k].lam, configs[k].seed, split_name, summary,
                outcomes[k].delta_lambda if train else None))
    return [rows.get(k, outcome) for k, outcome in enumerate(outcomes)]


def _run_dir_name(lam: float, seed: int) -> str:
    return f"run-lam{lam:g}-seed{seed}"


def cmd_sweep(opts: dict) -> Work:
    """Train every lambda x seed run on input files parsed once up front.

    One config is built and checked, and each run's is a copy with its
    lambda and seed.  Each seed's lambdas train in lockstep as one
    ``trainer.train`` grid; with ``--jobs`` above 1 and several seeds, the
    seeds run in that many worker processes at most.  Every run's files
    and both summaries are the same whatever ``--jobs`` is.
    """
    if not opts["train"]:
        raise CliError("sweep requires --train DATA.letor")
    lambdas = _parse_number_list(opts["lambdas"], float, "lambda")
    seeds = _parse_number_list(opts["seeds"], int, "seed")
    names = [_run_dir_name(lam, seed) for lam in lambdas for seed in seeds]
    for name in names:
        if names.count(name) > 1:
            raise CliError(
                f"{names.count(name)} runs would share the directory {name}: "
                "lambdas and seeds must be distinct, and lambdas must differ "
                "when printed with %g")
    train_set, val_set = _train_val_split(opts)
    splits = _splits(opts, train_set)
    base = _build_train_config({**opts, "lam": lambdas[0], "seed": seeds[0]},
                               train_set, val_set, splits)
    grids = [[dataclasses.replace(base, lam=lam, seed=seed) for lam in lambdas]
             for seed in seeds]

    def work(out: Path) -> int:
        train_seed = functools.partial(_train_seed, opts=opts, out=out,
                                       train_set=train_set, val_set=val_set,
                                       splits=splits)
        workers = min(opts["jobs"], len(seeds))
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(train_seed, grids))
        else:
            outcomes = list(map(train_seed, grids))
        rows, failures = [], []
        for k in range(len(lambdas)):
            for configs, seed_outcomes in zip(grids, outcomes):
                if isinstance(seed_outcomes[k], trainer.TrainingError):
                    failures.append(f"run lambda={configs[k].lam:g} "
                                    f"seed={configs[k].seed} failed: {seed_outcomes[k]}")
                else:
                    rows.extend(seed_outcomes[k])
        write_csv(out / "summary.csv", SUMMARY_HEADER, rows)
        _write_sweep_stats(out / "summary_stats.csv", rows)
        write_kv(out / "config.txt",
                 {k: v for k, v in opts.items() if k != "lr" or v is not None})
        for message in failures:
            print(message, file=sys.stderr)
        runs = len(lambdas) * len(seeds)
        print(f"{len(rows)} summary rows ({runs - len(failures)}/{runs} runs) "
              f"in {out / 'summary.csv'}")
        return 1 if failures else 0
    return work


def _write_sweep_stats(path: Path, rows: list[list]) -> None:
    """The mean and standard deviation over seeds of each value column of
    the summary rows, per lambda and split, in order of appearance."""
    lam, _, split, *values = range(len(SUMMARY_HEADER))
    grouped: dict[tuple, list[list]] = {}
    for row in rows:
        grouped.setdefault((row[lam], row[split]), []).append(row)
    out_rows = []
    for key, bunch in grouped.items():
        cells = list(key)
        for column in values:
            found = [r[column] for r in bunch if r[column] is not None]
            cells += ([float(np.mean(found)), float(np.std(found))] if found
                      else [None, None])
        out_rows.append(cells)
    header = [SUMMARY_HEADER[lam], SUMMARY_HEADER[split],
              *(f"{SUMMARY_HEADER[column]}_{stat}" for column in values
                for stat in ("mean", "std"))]
    write_csv(path, header, out_rows)


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

_TOP1 = ("method", "top1")

_BASELINE = (
    Option("method", str, "lp", "LP post-processing or top-1 softmax",
           choices=("lp", "top1")),
    _TRAIN_PATH,
    _TEST_PATH,
    _MERIT,
    Option("lambdas", str, "", "comma-separated penalty weights (default: "
                               "the method's own grid)"),
    Option("lr", float, 0.01, "top-1 first step size of each epoch, halved "
                              "until the summed loss falls enough", only=_TOP1),
    Option("epochs", int, 50, "top-1 full-batch descent steps", only=_TOP1),
)


def cmd_baseline(opts: dict) -> Work:
    if not opts["train"]:
        raise CliError("baseline requires --train DATA.letor")
    lp = opts["method"] == "lp"
    grid = baselines.lp_lambda_grid if lp else baselines.top1_lambda_grid
    lambdas = (_parse_number_list(opts["lambdas"], float, "lambda")
               if opts["lambdas"] else grid())
    top1 = {key: opts[key] for key in ("lr", "epochs") if key in opts}
    train_set = load_dataset_auto(opts["train"])
    splits = _splits(opts, train_set)
    merit = fairness.MeritFunction.parse(opts["merit"])
    baselines.require_lambda_grid(lambdas)
    if not lp:
        baselines.require_top1_settings(top1["lr"], top1["epochs"])
    group = fairness.DisparityConfig("group", merit)
    trainer.require_defined([(name, dataset, [err_metric_for(dataset)])
                             for name, dataset in splits], group)

    def work(out: Path) -> int:
        rankers, per_lambda = (_lp_rankers(train_set, splits, lambdas, merit) if lp
                               else _top1_rankers(train_set, splits, lambdas, **top1))
        per_split = [(name, trainer.value_split(
            dataset, rank, metrics.UtilityMetric("ndcg"), group,
            [err_metric_for(dataset)])) for (name, dataset), rank in zip(splits, rankers)]
        rows = []
        for k, (lam, stats) in enumerate(zip(lambdas, per_lambda)):
            stats["lambda"] = lam
            for name, summaries in per_split:
                rows.append(_summary_row(lam, None, name, summaries[k]))
                stats[name] = {"ndcg": summaries[k].mean_metric,
                               "disparity": summaries[k].mean_disparity}

        write_csv(out / "summary.csv", SUMMARY_HEADER, rows)
        write_json(out / "record.json", {
            "method": "lp-postprocess" if lp else "top1",
            "config": {"merit": str(merit), "lambdas": lambdas, **top1},
            "per_lambda": per_lambda,
        })
        write_kv(out / "config.txt", opts)
        print(f"{len(rows)} summary rows in {out / 'summary.csv'}")
        return 0
    return work


def _lp_rankers(train_set, splits, lambdas, merit):
    """For each split, a ranker of each query's LP optimum at each penalty
    weight, one member per weight; and each weight's mean and largest slack
    over the train split.  Every query of the splits is solved once up
    front, on estimates scored once, each run of equal-size queries as one
    block, and a ranker hands each block of queries its slice of the run's
    rankings, weights and expected exposures."""
    regression = baselines.fit_linear_regression(train_set)

    def ranker(dataset):
        solved = [baselines.solve_fair_lp_grid(regression.scores(run.features), run.groups,
                                               lambdas, merit) for run in dataset.runs]

        def rank(run, block, features):
            return tuple(values[:, block] for values in
                         (solved[run].orders, solved[run].weights, solved[run].exposures))
        return rank, solved

    rankers, solved = zip(*(ranker(dataset) for _, dataset in splits))
    slack = np.concatenate([result.xi for result in solved[0]], axis=1)
    return list(rankers), [{"mean_xi": float(np.mean(xis)), "max_xi": float(np.max(xis))}
                           for xis in slack]


def _top1_rankers(train_set, splits, lambdas, lr, epochs):
    """For each split, the ranker of the argmax rankings of the top-1
    models, one member per penalty weight, with those fixed rankings' own
    exposures; and each weight's final summed training loss and the norm
    of its gradient."""
    block = baselines.train_top1_grid(train_set, lambdas, learning_rate=lr, epochs=epochs)
    rank = trainer.argmax_ranker(
        block, lambda scores, orders: fairness.ranking_exposures(orders))
    losses, grads = baselines.top1_objective(train_set, block.weights, lambdas)
    return [rank] * len(splits), [{"loss": float(loss), "grad_norm": float(np.linalg.norm(grad))}
                                  for loss, grad in zip(losses, grads)]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_EVAL = (
    Option("checkpoint", str, "", "model file from train"),
    Option("data", str, "", "dataset to evaluate (.letor)"),
    _METRIC,
    _DISPARITY,
    _MERIT,
    _EVAL_SAMPLES,
    _SEED._replace(help="seed of the Monte-Carlo exposures"),
)


def cmd_eval(opts: dict) -> Work:
    if not opts["checkpoint"] or not opts["data"]:
        raise CliError("eval requires --checkpoint and --data")
    model = policy.load_model(opts["checkpoint"])
    dataset = load_dataset_auto(opts["data"], (opts["checkpoint"], model))
    disparity = parse_disparity(opts["disparity"], opts["merit"])
    metric = fit_metric_to_dataset(
        metrics.UtilityMetric.parse(opts["metric"]), dataset)
    trainer.require_defined(
        [("evaluation", dataset, [metric, err_metric_for(dataset)])], disparity)

    def work(out: Path) -> int:
        # An ERR run's metric is the err column itself, written once.
        is_err = metric.kind == "err"
        summary = trainer.evaluate(
            model, dataset, metric, disparity, opts["eval_samples"], seed=opts["seed"],
            extra_metrics=[] if is_err else [err_metric_for(dataset)])
        mean_err = summary.mean_metric if is_err else summary.extra_means[0]
        columns = [summary.metric_values, *summary.extra_values]
        rows = [[qid, *(values[i] for values in columns),
                 summary.disparity_values[i] if disparity else None]
                for i, qid in enumerate(dataset.qids)]
        header = ["qid", "err"] if is_err else ["qid", str(metric), "err"]
        write_csv(out / "report.csv", header + ["disparity"], rows)
        payload = {
            "checkpoint": opts["checkpoint"], "data": opts["data"],
            "metric": str(metric), "num_queries": len(dataset),
            "mean_metric": summary.mean_metric,
            "mean_err": mean_err,
        }
        if disparity is not None:
            payload["disparity"] = disparity.kind
            payload["merit"] = str(disparity.merit)
            payload["mean_disparity"] = summary.mean_disparity
        write_json(out / "report.json", payload)
        disp = ("" if summary.mean_disparity is None
                else f", mean disparity {summary.mean_disparity:.5f}")
        means = "" if is_err else f"mean {metric} {summary.mean_metric:.5f}, "
        print(f"{means}mean err {mean_err:.5f}{disp}; report in {out}")
        return 0
    return work


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_COMMANDS = (  # (command words, help, options, handler)
    (("generate", "simulated"), "simulated dataset with a disadvantaged group",
     _GENERATE_SIMULATED, cmd_generate_simulated),
    (("generate", "from-table"), "ranking queries from a binary-labeled CSV table",
     _GENERATE_FROM_TABLE, cmd_generate_from_table),
    (("train",), "one policy-gradient run", _TRAIN, cmd_train),
    (("sweep",), "lambda x seed grid of runs", _SWEEP, cmd_sweep),
    (("baseline",), "LP post-processing or top-1", _BASELINE, cmd_baseline),
    (("eval",), "score a checkpoint on a dataset", _EVAL, cmd_eval),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: building its
    ~90 arguments takes about 2.5 ms, and parsing leaves it unchanged."""
    parser = _Parser(
        prog="fairltr",
        description="Fairness-constrained learning to rank experiments")
    commands = parser.add_subparsers(dest="command", required=True)
    sources = commands.add_parser("generate", help="create datasets") \
        .add_subparsers(dest="source", required=True)
    for words, help_text, options, handler in _COMMANDS:
        group = sources if len(words) == 2 else commands
        # No prefix matching: sweep's --lambda must not read as --lambdas.
        sub = group.add_parser(words[-1], help=help_text, allow_abbrev=False)
        for o in options:
            default = ("" if o.default in (None, "") or o.kind is bool
                       else f" (default {o.default})")
            kind = ({"action": "store_const", "const": True} if o.kind is bool
                    else {"type": o.kind, "choices": o.choices or None})
            sub.add_argument(o.name, dest=o.dest, help=o.help + default, **kind)
        sub.add_argument("--config", help="flat key = value config file")
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument("--force", action="store_true",
                         help="overwrite a non-empty output directory")
        sub.set_defaults(func=handler, options=options)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Check the command's inputs, then make the output directory and run
    the command's work in it; a refusal is one ``error:`` line."""
    try:
        args = build_parser().parse_args(argv)
        try:
            work = args.func(resolve_options(args, args.options))
        except (ValueError, OSError) as exc:
            raise CliError(str(exc)) from None
        return work(prepare_out_dir(args.out, args.force))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
