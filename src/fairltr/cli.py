"""Command-line experiment harness.

Subcommands: ``generate`` (synthetic or tabular datasets), ``train`` (one
policy-gradient run), ``sweep`` (a lambda x seed grid), ``baseline``
(LP post-processing or top-1 softmax), ``eval`` (score a checkpoint).

Every command takes ``--config FILE`` with flat ``key = value`` lines;
explicit flags override the file.  Outputs are plain text (LETOR data,
JSON records, CSV tables) written deterministically: rerunning a command
with the same inputs and seed reproduces every byte.  Existing non-empty
output directories are refused unless ``--force`` is given.

Dataset paths name the LETOR file; a sidecar group file with extension
``.groups`` next to it (``data.letor`` -> ``data.groups``) is attached
automatically when present.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import baselines, data, fairness, metrics, policy, trainer


class CliError(Exception):
    """User-facing failure; printed to stderr with exit code 1."""


# ---------------------------------------------------------------------------
# Config files and option resolution
# ---------------------------------------------------------------------------


def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and # comments ignored."""
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
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _coerce(value: str, kind):
    if kind is bool:
        low = value.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise CliError(f"cannot parse boolean {value!r}")
    try:
        return kind(value)
    except ValueError:
        raise CliError(f"cannot parse {value!r} as {kind.__name__}") from None


def resolve_options(args: argparse.Namespace,
                    schema: dict[str, tuple[type, object]]) -> dict:
    """Merge flag > config-file > default, per the schema
    ``{key: (type, default)}``."""
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    out = {}
    for key, (kind, default) in schema.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            out[key] = flag_value
        elif key in file_values:
            out[key] = _coerce(file_values[key], kind)
        else:
            out[key] = default
    return out


# ---------------------------------------------------------------------------
# Shared IO helpers
# ---------------------------------------------------------------------------


def prepare_out_dir(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise CliError(f"output directory {out} is not empty; "
                       f"pass --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    return out


def groups_path_for(letor_path: str) -> Path:
    p = Path(letor_path)
    return p.with_suffix(".groups") if p.suffix == ".letor" \
        else Path(str(p) + ".groups")


def load_dataset_auto(letor_path: str) -> data.Dataset:
    p = Path(letor_path)
    if not p.exists():
        raise CliError(f"dataset file {p} does not exist")
    gp = groups_path_for(letor_path)
    try:
        return data.load_dataset(p, gp if gp.exists() else None)
    except data.DataError as exc:
        raise CliError(f"{p}: {exc}") from None


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


def fit_metric_to_dataset(metric: metrics.UtilityMetric,
                          *datasets: data.Dataset) -> metrics.UtilityMetric:
    """Raise the ERR grade ceiling to cover every dataset when needed."""
    if metric.kind != "err":
        return metric
    top = max(float(q.relevances.max()) for ds in datasets for q in ds)
    if top > metric.err_max_grade:
        return metrics.UtilityMetric("err", metric.cutoff, max(4.0, top))
    return metric


def parse_disparity(kind: str, merit: str) -> fairness.DisparityConfig | None:
    kind = kind.strip().lower()
    if kind in ("none", ""):
        return None
    try:
        return fairness.DisparityConfig.parse(kind, merit)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def ndcg_metric_like(metric: metrics.UtilityMetric) -> metrics.UtilityMetric:
    if metric.kind == "ndcg":
        return metric
    return metrics.UtilityMetric("ndcg")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

_GENERATE_SIM_SCHEMA = {
    "queries": (int, 100),
    "docs": (int, 10),
    "minority_prob": (float, 0.2),
    "seed": (int, 0),
}

_GENERATE_TABLE_SCHEMA = {
    "label_col": (str, "label"),
    "group_col": (str, ""),
    "preprocess": (bool, False),
    "train_queries": (int, 100),
    "test_queries": (int, 50),
    "candidate_size": (int, 10),
    "relevant_fraction": (float, 0.2),
    "seed": (int, 0),
}


def cmd_generate(args: argparse.Namespace) -> int:
    if args.source == "simulated":
        opts = resolve_options(args, _GENERATE_SIM_SCHEMA)
        out = prepare_out_dir(args.out, args.force)
        dataset = data.generate_simulated(
            num_queries=opts["queries"], docs_per_query=opts["docs"],
            minority_prob=opts["minority_prob"], seed=opts["seed"])
        data.save_dataset(dataset, out / "data.letor", out / "data.groups")
        write_kv(out / "manifest.txt", {"command": "generate simulated", **opts})
        print(f"wrote {len(dataset)} queries ({dataset.num_docs} documents) "
              f"to {out / 'data.letor'}")
        return 0

    opts = resolve_options(args, _GENERATE_TABLE_SCHEMA)
    if not args.input:
        raise CliError("generate from-table requires --input")
    records = _read_table(args.input, opts["label_col"], opts["group_col"],
                          opts["preprocess"])
    total = opts["train_queries"] + opts["test_queries"]
    if opts["train_queries"] < 1:
        raise CliError("train_queries must be >= 1")
    try:
        dataset = data.convert_binary_table(
            records, num_queries=total, candidate_size=opts["candidate_size"],
            relevant_fraction=opts["relevant_fraction"], seed=opts["seed"])
    except data.DataError as exc:
        raise CliError(str(exc)) from None
    out = prepare_out_dir(args.out, args.force)
    train = data.Dataset(dataset.queries[:opts["train_queries"]],
                         dataset.feature_dim)
    data.save_dataset(train, out / "train.letor", out / "train.groups")
    written = [f"{out / 'train.letor'} ({len(train)} queries)"]
    if opts["test_queries"] > 0:
        test = data.Dataset(dataset.queries[opts["train_queries"]:],
                            dataset.feature_dim)
        data.save_dataset(test, out / "test.letor", out / "test.groups")
        written.append(f"{out / 'test.letor'} ({len(test)} queries)")
    write_kv(out / "manifest.txt",
             {"command": "generate from-table", "input": args.input, **opts})
    print("wrote " + " and ".join(written))
    return 0


def _read_table(path: str, label_col: str, group_col: str,
                preprocess: bool) -> list[tuple]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliError(f"cannot read table {path}: {exc}") from None
    if len(rows) < 2:
        raise CliError(f"{path}: need a header row and at least one data row")
    header, body = rows[0], rows[1:]

    def col_index(name: str) -> int:
        if name in header:
            return header.index(name)
        try:
            idx = int(name)
        except ValueError:
            raise CliError(f"{path}: no column named {name!r}") from None
        if not 0 <= idx < len(header):
            raise CliError(f"{path}: column index {idx} out of range")
        return idx

    label_idx = col_index(label_col)
    group_idx = col_index(group_col) if group_col else None
    feature_idx = [i for i in range(len(header))
                   if i != label_idx and i != group_idx]

    def parse_binary(value: str, what: str, rowno: int) -> int:
        v = value.strip()
        if v not in ("0", "1"):
            raise CliError(f"{path} row {rowno}: {what} must be 0 or 1, got {v!r}")
        return int(v)

    labels = [parse_binary(r[label_idx], "label", i + 2)
              for i, r in enumerate(body)]
    groups = [parse_binary(r[group_idx], "group", i + 2)
              for i, r in enumerate(body)] if group_idx is not None \
        else [None] * len(body)

    raw_features = [[r[i] for i in feature_idx] for r in body]
    if preprocess:
        matrix = data.encode_table(raw_features)
    else:
        try:
            matrix = np.array([[float(v) for v in row] for row in raw_features])
        except ValueError:
            raise CliError(
                f"{path}: non-numeric feature values; rerun with --preprocess"
            ) from None
    return [(matrix[i], labels[i], groups[i]) for i in range(len(body))]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_SCHEMA = {
    "lam": (float, 0.0),
    "gamma": (float, 1.0),
    "samples": (int, 10),
    "lr": (float, None),
    "epochs": (int, 20),
    "optimizer": (str, "adam"),
    "metric": (str, "ndcg@10"),
    "disparity": (str, "none"),
    "merit": (str, "identity"),
    "model": (str, "linear"),
    "hidden": (int, 32),
    "bias": (bool, False),
    "no_baseline": (bool, False),
    "seed": (int, 0),
    "patience": (int, 5),
    "eval_samples": (int, 32),
    "val_fraction": (float, 0.2),
    "split_seed": (int, 0),
}

_MODEL_DEFAULT_LR = {"linear": 0.001, "mlp1": 5e-5}


def _build_train_config(opts: dict, train_set: data.Dataset,
                        val_set: data.Dataset, lam: float | None = None,
                        seed: int | None = None) -> trainer.TrainConfig:
    lam = opts["lam"] if lam is None else lam
    disparity = parse_disparity(opts["disparity"], opts["merit"])
    if lam != 0.0 and disparity is None:
        raise CliError("--lambda requires --disparity individual or group")
    if opts["model"] not in _MODEL_DEFAULT_LR:
        raise CliError(f"unknown model {opts['model']!r}")
    lr = opts["lr"] if opts["lr"] is not None else _MODEL_DEFAULT_LR[opts["model"]]
    try:
        trainer.require_group_labels(disparity, [("train", train_set),
                                                 ("val", val_set)])
        metric = fit_metric_to_dataset(
            metrics.UtilityMetric.parse(opts["metric"]), train_set, val_set)
        return trainer.TrainConfig(
            lam=lam, gamma=opts["gamma"], sample_size=opts["samples"],
            learning_rate=lr, optimizer=opts["optimizer"], epochs=opts["epochs"],
            metric=metric, disparity=disparity, model=opts["model"],
            hidden_units=opts["hidden"], use_bias=opts["bias"],
            use_baseline=not opts["no_baseline"],
            seed=opts["seed"] if seed is None else seed,
            patience=opts["patience"], eval_samples=opts["eval_samples"])
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _train_val_split(dataset: data.Dataset, opts: dict
                     ) -> tuple[data.Dataset, data.Dataset]:
    if opts.get("val"):
        return dataset, load_dataset_auto(opts["val"])
    try:
        return data.split_dataset(dataset, 1.0 - opts["val_fraction"],
                                  seed=opts["split_seed"])
    except data.DataError as exc:
        raise CliError(f"validation split failed: {exc}") from None


def _run_echo(config: trainer.TrainConfig, opts: dict, train_path: str) -> dict:
    return {**config.echo(), "train": train_path, "val": opts["val"] or "",
            "val_fraction": opts["val_fraction"],
            "split_seed": opts["split_seed"]}


def _write_run_outputs(out: Path, record: trainer.RunRecord,
                       config_echo: dict) -> None:
    write_json(out / "record.json", record.to_json_dict())
    policy.save_model(record.model, out / "checkpoint.txt")
    header = ["epoch", "train_metric", "train_disparity", "val_metric",
              "val_disparity", "val_objective"]
    rows = []
    for e in range(record.epochs_run):
        rows.append([
            e + 1,
            record.train_metric[e],
            record.train_disparity[e] if record.train_disparity else None,
            record.val_metric[e],
            record.val_disparity[e] if record.val_disparity else None,
            record.val_objective[e],
        ])
    write_csv(out / "curves.csv", header, rows)
    write_kv(out / "config.txt", config_echo)


def cmd_train(args: argparse.Namespace) -> int:
    opts = resolve_options(args, _TRAIN_SCHEMA)
    if not args.train:
        raise CliError("train requires --train DATA.letor")
    full_train = load_dataset_auto(args.train)
    opts["val"] = args.val
    train_set, val_set = _train_val_split(full_train, opts)
    config = _build_train_config(opts, train_set, val_set)
    out = prepare_out_dir(args.out, args.force)
    try:
        record = trainer.train(train_set, val_set, config)
    except trainer.TrainingError as exc:
        raise CliError(f"training failed: {exc}") from None
    _write_run_outputs(out, record, _run_echo(config, opts, args.train))
    disp = ("" if record.delta_lambda is None
            else f", delta_lambda {record.delta_lambda:.5f}")
    print(f"best epoch {record.best_epoch}/{record.epochs_run}, "
          f"val {config.metric} {record.val_metric[record.best_epoch - 1]:.5f}"
          f"{disp}; outputs in {out}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_SCHEMA = dict(_TRAIN_SCHEMA)
_SWEEP_SCHEMA.update({
    "lambdas": (str, "0,1,5,25"),
    "seeds": (str, "0"),
    "jobs": (int, 1),
    "disparity": (str, "group"),
})


def _parse_number_list(text: str, kind, what: str) -> list:
    try:
        return [kind(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise CliError(f"cannot parse {what} list {text!r}") from None


def _summary_rows(record: trainer.RunRecord, splits: list[tuple[str, data.Dataset]],
                  config: trainer.TrainConfig) -> list[list]:
    rows = []
    for split_name, dataset in splits:
        ndcg_metric = fit_metric_to_dataset(ndcg_metric_like(config.metric), dataset)
        err_metric = fit_metric_to_dataset(metrics.UtilityMetric("err"), dataset)
        summary = trainer.evaluate(record.model, dataset, ndcg_metric,
                                   config.disparity, config.eval_samples,
                                   seed=config.seed, extra_metrics=[err_metric])
        rows.append([
            config.lam, config.seed, split_name, summary.mean_metric,
            summary.extra_means[0], summary.mean_disparity,
            record.delta_lambda if split_name == "train" else None,
        ])
    return rows


def _sweep_worker(payload: dict) -> dict:
    config = payload["config"]
    try:
        record = trainer.train(payload["train_set"], payload["val_set"], config)
    except trainer.TrainingError as exc:
        return {"ok": False, "error": str(exc)}
    run_dir = Path(payload["run_dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_run_outputs(run_dir, record, payload["echo"])
    return {"ok": True, "rows": _summary_rows(record, payload["splits"], config)}


def cmd_sweep(args: argparse.Namespace) -> int:
    """Train every lambda x seed run on input files parsed once up front."""
    opts = resolve_options(args, _SWEEP_SCHEMA)
    if not args.train:
        raise CliError("sweep requires --train DATA.letor")
    lambdas = _parse_number_list(opts["lambdas"], float, "lambda")
    seeds = _parse_number_list(opts["seeds"], int, "seed")
    if not lambdas or not seeds:
        raise CliError("need at least one lambda and one seed")
    opts["val"] = args.val
    train_set, val_set = _train_val_split(load_dataset_auto(args.train), opts)
    splits = [("train", train_set)]
    if args.test:
        splits.append(("test", load_dataset_auto(args.test)))
    configs = [_build_train_config(opts, train_set, val_set, lam=lam, seed=seed)
               for lam in lambdas for seed in seeds]
    try:
        trainer.require_group_labels(configs[0].disparity, splits)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out = prepare_out_dir(args.out, args.force)
    payloads = [{"config": config, "train_set": train_set, "val_set": val_set,
                 "splits": splits, "echo": _run_echo(config, opts, args.train),
                 "run_dir": str(out / f"run-lam{config.lam:g}-seed{config.seed}")}
                for config in configs]

    if opts["jobs"] > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=opts["jobs"]) as pool:
            results = list(pool.map(_sweep_worker, payloads))
    else:
        results = [_sweep_worker(p) for p in payloads]

    rows = []
    failures = []
    for payload, result in zip(payloads, results):
        if result["ok"]:
            rows.extend(result["rows"])
        else:
            failures.append((payload["config"], result["error"]))
    write_csv(out / "summary.csv", SUMMARY_HEADER, rows)
    _write_sweep_stats(out / "summary_stats.csv", rows)
    write_kv(out / "config.txt",
             {**{k: v for k, v in opts.items() if k != "lr" or v is not None},
              "train": args.train, "test": args.test or "", "val": args.val or ""})
    for config, message in failures:
        print(f"run lambda={config.lam:g} seed={config.seed} failed: {message}",
              file=sys.stderr)
    print(f"{len(rows)} summary rows ({len(payloads) - len(failures)}/"
          f"{len(payloads)} runs) in {out / 'summary.csv'}")
    return 1 if failures else 0


def _write_sweep_stats(path: Path, rows: list[list]) -> None:
    header = ["lambda", "split", "ndcg_mean", "ndcg_std", "err_mean", "err_std",
              "disparity_mean", "disparity_std", "delta_lambda_mean",
              "delta_lambda_std"]
    grouped: dict[tuple, list[list]] = {}
    order = []
    for row in rows:
        key = (row[0], row[2])
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(row)
    out_rows = []
    for key in order:
        bunch = grouped[key]

        def ms(idx):
            vals = [r[idx] for r in bunch if r[idx] is not None]
            if not vals:
                return None, None
            return float(np.mean(vals)), float(np.std(vals))

        nm, ns = ms(3)
        em, es = ms(4)
        dm, ds = ms(5)
        lm, ls = ms(6)
        out_rows.append([key[0], key[1], nm, ns, em, es, dm, ds, lm, ls])
    write_csv(path, header, out_rows)


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

_BASELINE_SCHEMA = {
    "method": (str, "lp"),
    "merit": (str, "identity"),
    "lambdas": (str, ""),
    "lr": (float, 0.01),
    "epochs": (int, 50),
    "seed": (int, 0),
}


def cmd_baseline(args: argparse.Namespace) -> int:
    opts = resolve_options(args, _BASELINE_SCHEMA)
    if not args.train:
        raise CliError("baseline requires --train DATA.letor")
    method = opts["method"].strip().lower()
    if method not in ("lp", "top1"):
        raise CliError(f"unknown baseline method {opts['method']!r} "
                       f"(expected lp or top1)")
    try:
        merit = fairness.MeritFunction.parse(opts["merit"])
    except ValueError as exc:
        raise CliError(str(exc)) from None
    grid = baselines.lp_lambda_grid if method == "lp" else baselines.top1_lambda_grid
    lambdas = (_parse_number_list(opts["lambdas"], float, "lambda")
               if opts["lambdas"] else grid())
    if not all(0.0 <= lam < np.inf for lam in lambdas):
        raise CliError(f"penalty weights must be finite and >= 0, "
                       f"got {opts['lambdas']}")
    train_set = load_dataset_auto(args.train)
    splits = [("train", train_set)]
    if args.test:
        splits.append(("test", load_dataset_auto(args.test)))
    for name, dataset in splits:
        if not dataset.has_groups:
            raise CliError(f"baselines need group labels, and the {name} "
                           "split has none")
    out = prepare_out_dir(args.out, args.force)

    if method == "lp":
        rows, detail = _run_lp_baseline(train_set, splits, lambdas, merit)
    else:
        rows, detail = _run_top1_baseline(train_set, splits, lambdas, merit,
                                          opts["lr"], opts["epochs"],
                                          opts["seed"])

    write_csv(out / "summary.csv", SUMMARY_HEADER, rows)
    write_json(out / "record.json", {
        "method": "lp-postprocess" if method == "lp" else "top1",
        "config": {"merit": str(merit), "lambdas": lambdas,
                   **({"lr": opts["lr"], "epochs": opts["epochs"],
                       "seed": opts["seed"]} if method == "top1" else {})},
        "per_lambda": detail,
    })
    write_kv(out / "config.txt", {**opts, "train": args.train,
                                  "test": args.test or ""})
    print(f"{len(rows)} summary rows in {out / 'summary.csv'}")
    return 0


def _run_lp_baseline(train_set, splits, lambdas, merit):
    """Solve and evaluate the LP per (penalty weight, split, query).  The
    estimates are scored once per query, and each query keeps its gains,
    ideal DCG and group row across the penalty weights."""
    regression = baselines.fit_linear_regression(train_set)
    estimates = {name: [regression.scores(q.feature_matrix) for q in dataset]
                 for name, dataset in splits}
    rows, detail = [], []
    for lam in lambdas:
        stats = {}
        xis = []
        for split_name, dataset in splits:
            per_ndcg, per_disp = [], []
            for query, estimate in zip(dataset, estimates[split_name]):
                result = baselines.solve_fair_lp(estimate, query.groups, lam, merit)
                ndcg, disparity = baselines.evaluate_exposures(
                    result.exposures, query, merit)
                per_ndcg.append(ndcg)
                per_disp.append(disparity)
                if split_name == "train":
                    xis.append(result.xi)
            rows.append([lam, None, split_name, float(np.mean(per_ndcg)),
                         None, float(np.mean(per_disp)), None])
            stats[split_name] = {"ndcg": float(np.mean(per_ndcg)),
                                 "disparity": float(np.mean(per_disp))}
        detail.append({"lambda": lam, "mean_xi": float(np.mean(xis)),
                       "max_xi": float(np.max(xis)), **stats})
    return rows, detail


def _run_top1_baseline(train_set, splits, lambdas, merit, lr, epochs, seed):
    """Train and evaluate the top-1 baseline per penalty weight; each query
    keeps its metric constants and group row across the penalty weights."""
    ndcg_metric = metrics.UtilityMetric("ndcg")
    err_metrics = {name: fit_metric_to_dataset(metrics.UtilityMetric("err"), dataset)
                   for name, dataset in splits}
    group = fairness.DisparityConfig("group", merit)
    rows, detail = [], []
    for lam in lambdas:
        model = baselines.train_top1_baseline(train_set, lam, learning_rate=lr,
                                              epochs=epochs, seed=seed)
        stats = {}
        for split_name, dataset in splits:
            ndcg_vals, err_vals, disp_vals = [], [], []
            for query in dataset:
                order = policy.argmax_ranking(model.scores(query.feature_matrix))
                ndcg_vals.append(ndcg_metric.value(order, query))
                err_vals.append(err_metrics[split_name].value(order, query))
                # A fixed ranking's disparity, from the row kept with the
                # query; from_exposures is left to policy evaluations.
                disp_vals.append(fairness.hinge_mean(
                    group.query_rows(query), fairness.exposure_of_ranking(order)))
            rows.append([lam, seed, split_name, float(np.mean(ndcg_vals)),
                         float(np.mean(err_vals)), float(np.mean(disp_vals)),
                         None])
            stats[split_name] = {"ndcg": float(np.mean(ndcg_vals)),
                                 "disparity": float(np.mean(disp_vals))}
        detail.append({"lambda": lam, **stats})
    return rows, detail


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_EVAL_SCHEMA = {
    "metric": (str, "ndcg@10"),
    "disparity": (str, "none"),
    "merit": (str, "identity"),
    "eval_samples": (int, 32),
    "seed": (int, 0),
}


def cmd_eval(args: argparse.Namespace) -> int:
    opts = resolve_options(args, _EVAL_SCHEMA)
    if not args.checkpoint or not args.data:
        raise CliError("eval requires --checkpoint and --data")
    if opts["eval_samples"] < 1:
        raise CliError("eval_samples must be >= 1")
    try:
        model = policy.load_model(args.checkpoint)
    except (OSError, policy.CheckpointError) as exc:
        raise CliError(str(exc)) from None
    dataset = load_dataset_auto(args.data)
    if model.feature_dim != dataset.feature_dim:
        raise CliError(f"checkpoint expects {model.feature_dim} features but "
                       f"{args.data} has {dataset.feature_dim}")
    disparity = parse_disparity(opts["disparity"], opts["merit"])
    try:
        trainer.require_group_labels(disparity, [("evaluation", dataset)])
        metric = fit_metric_to_dataset(
            metrics.UtilityMetric.parse(opts["metric"]), dataset)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out = prepare_out_dir(args.out, args.force)

    err_metric = fit_metric_to_dataset(metrics.UtilityMetric("err"), dataset)
    summary = trainer.evaluate(model, dataset, metric, disparity,
                               opts["eval_samples"], seed=opts["seed"],
                               extra_metrics=[err_metric])
    mean_err = summary.extra_means[0]
    rows = []
    for i, query in enumerate(dataset):
        rows.append([query.qid, summary.metric_values[i],
                     summary.extra_values[0][i],
                     summary.disparity_values[i] if disparity else None])
    write_csv(out / "report.csv", ["qid", str(metric), "err", "disparity"], rows)
    payload = {
        "checkpoint": args.checkpoint, "data": args.data,
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
    print(f"mean {metric} {summary.mean_metric:.5f}, "
          f"mean err {mean_err:.5f}{disp}; report in {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--force", action="store_true",
                     help="overwrite a non-empty output directory")


def _add_train_like(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--train", help="training dataset (.letor)")
    sub.add_argument("--val", help="validation dataset (.letor); "
                                   "otherwise split from --train")
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="utility/disparity trade-off weight")
    sub.add_argument("--gamma", type=float, help="entropy regularization weight")
    sub.add_argument("--samples", type=int, help="rankings sampled per query step")
    sub.add_argument("--lr", type=float, help="learning rate")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--optimizer", choices=["adam", "sgd"])
    sub.add_argument("--metric", help="ndcg[@k], dcg[@k], err, avgrank")
    sub.add_argument("--disparity", help="none, individual, or group")
    sub.add_argument("--merit", help="identity, square, or sqrt")
    sub.add_argument("--model", choices=["linear", "mlp1"])
    sub.add_argument("--hidden", type=int, help="hidden units for mlp1")
    sub.add_argument("--bias", action="store_const", const=True,
                     help="add a bias to the linear model")
    sub.add_argument("--no-baseline", dest="no_baseline", action="store_const",
                     const=True, help="disable the reward baseline")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--patience", type=int,
                     help="early-stop patience in epochs (0 disables)")
    sub.add_argument("--eval-samples", dest="eval_samples", type=int,
                     help="Monte-Carlo rankings per query for disparity eval")
    sub.add_argument("--val-fraction", dest="val_fraction", type=float,
                     help="validation fraction when --val is absent")
    sub.add_argument("--split-seed", dest="split_seed", type=int,
                     help="seed for the validation split")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairltr",
        description="Fairness-constrained learning to rank experiments")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="create datasets")
    gen.add_argument("source", choices=["simulated", "from-table"])
    gen.add_argument("--input", help="CSV table for from-table")
    gen.add_argument("--queries", type=int)
    gen.add_argument("--docs", type=int)
    gen.add_argument("--minority-prob", dest="minority_prob", type=float)
    gen.add_argument("--label-col", dest="label_col")
    gen.add_argument("--group-col", dest="group_col")
    gen.add_argument("--preprocess", action="store_const", const=True,
                     help="one-hot encode and standardize table columns")
    gen.add_argument("--train-queries", dest="train_queries", type=int)
    gen.add_argument("--test-queries", dest="test_queries", type=int)
    gen.add_argument("--candidate-size", dest="candidate_size", type=int)
    gen.add_argument("--relevant-fraction", dest="relevant_fraction", type=float)
    gen.add_argument("--seed", type=int)
    _add_common(gen)
    gen.set_defaults(func=cmd_generate)

    tr = commands.add_parser("train", help="one policy-gradient run")
    _add_train_like(tr)
    _add_common(tr)
    tr.set_defaults(func=cmd_train)

    sw = commands.add_parser("sweep", help="lambda x seed grid of runs")
    _add_train_like(sw)
    sw.add_argument("--test", help="held-out dataset for summary rows")
    sw.add_argument("--lambdas", help="comma-separated lambda values")
    sw.add_argument("--seeds", help="comma-separated seeds")
    sw.add_argument("--jobs", type=int, help="parallel worker processes")
    _add_common(sw)
    sw.set_defaults(func=cmd_sweep)

    bl = commands.add_parser("baseline", help="LP post-processing or top-1")
    bl.add_argument("--method", choices=["lp", "top1"])
    bl.add_argument("--train", help="training dataset (.letor)")
    bl.add_argument("--test", help="held-out dataset for summary rows")
    bl.add_argument("--merit")
    bl.add_argument("--lambdas", help="comma-separated penalty weights")
    bl.add_argument("--lr", type=float, help="top-1 learning rate")
    bl.add_argument("--epochs", type=int, help="top-1 training epochs")
    bl.add_argument("--seed", type=int)
    _add_common(bl)
    bl.set_defaults(func=cmd_baseline)

    ev = commands.add_parser("eval", help="score a checkpoint on a dataset")
    ev.add_argument("--checkpoint", help="model file from train")
    ev.add_argument("--data", help="dataset to evaluate (.letor)")
    ev.add_argument("--metric")
    ev.add_argument("--disparity")
    ev.add_argument("--merit")
    ev.add_argument("--eval-samples", dest="eval_samples", type=int)
    ev.add_argument("--seed", type=int)
    _add_common(ev)
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
