"""End-to-end command-line behavior, byte determinism, failure modes."""
import ast
import concurrent.futures
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairltr import baselines, cli, data, fairness, metrics, policy, trainer
import oracle


def run(argv):
    return cli.main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "sim"
    assert run(["generate", "simulated", "--out", out, "--queries", 14,
                "--docs", 5, "--seed", 3]) == 0
    return out


def test_generate_simulated_outputs(dataset_dir):
    assert (dataset_dir / "data.letor").exists()
    assert (dataset_dir / "data.groups").exists()
    manifest = (dataset_dir / "manifest.txt").read_text()
    assert "queries = 14" in manifest and "seed = 3" in manifest


def test_generate_is_byte_deterministic(tmp_path, dataset_dir):
    again = tmp_path / "again"
    assert run(["generate", "simulated", "--out", again, "--queries", 14,
                "--docs", 5, "--seed", 3]) == 0
    assert (again / "data.letor").read_bytes() == \
        (dataset_dir / "data.letor").read_bytes()
    assert (again / "data.groups").read_bytes() == \
        (dataset_dir / "data.groups").read_bytes()


def test_refuses_to_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "something.txt").write_text("keep me\n")
    code = run(["generate", "simulated", "--out", out, "--queries", 3,
                "--docs", 3])
    assert code == 1
    assert "--force" in capsys.readouterr().err
    assert (out / "something.txt").read_text() == "keep me\n"
    assert run(["generate", "simulated", "--out", out, "--queries", 3,
                "--docs", 3, "--force"]) == 0


def test_train_outputs_and_rerun_determinism(tmp_path, dataset_dir):
    letor = dataset_dir / "data.letor"
    for model in ("linear", "mlp1"):
        out = tmp_path / model
        argv = ["train", "--train", letor, "--out", out, "--lambda", 1,
                "--disparity", "group", "--gamma", 0, "--epochs", 2,
                "--samples", 5, "--seed", 0, "--model", model]
        assert run(argv) == 0
        for name in ("record.json", "checkpoint.txt", "curves.csv", "config.txt"):
            assert (out / name).exists(), name
        record = json.loads((out / "record.json").read_text())
        assert record["method"] == "pg-rank"
        assert record["config"]["lambda"] == 1.0
        assert record["config"]["model"] == model
        first = {n: (out / n).read_bytes()
                 for n in ("record.json", "checkpoint.txt", "curves.csv")}
        assert run(argv + ["--force"]) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name


def test_train_config_file_with_flag_override(tmp_path, dataset_dir):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("epochs = 2\nsamples = 5\ngamma = 0\nseed = 4\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    letor = dataset_dir / "data.letor"
    assert run(["train", "--train", letor, "--out", out_a,
                "--config", cfg]) == 0
    assert run(["train", "--train", letor, "--out", out_b,
                "--config", cfg, "--seed", 5]) == 0
    rec_a = json.loads((out_a / "record.json").read_text())
    rec_b = json.loads((out_b / "record.json").read_text())
    assert rec_a["config"]["seed"] == 4
    assert rec_b["config"]["seed"] == 5
    assert rec_a["config"]["epochs"] == rec_b["config"]["epochs"] == 2


def test_train_rejects_lambda_without_disparity(tmp_path, dataset_dir, capsys):
    code = run(["train", "--train", dataset_dir / "data.letor",
                "--out", tmp_path / "x", "--lambda", 2])
    assert code == 1
    assert "disparity" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--samples", 0],
    ["sweep", "--samples", 0],
    ["train", "--epochs", 0],
    ["sweep", "--epochs", 0],
    ["train", "--config", "RMSPROP"],
    ["sweep", "--config", "RMSPROP"],
    ["train", "--disparity", "group", "--eval-samples", 0],
    ["train", "--model", "mlp1", "--hidden", 0],
    ["train", "--disparity", "group", "--lambda=-5"],
    ["train", "--gamma=-3"],
    ["train", "--lr=-1"],
    ["sweep", "--disparity", "group", "--lambdas=0,-5"],
    ["baseline", "--merit", "cube"],
    ["baseline", "--lambdas=-1"],
    ["baseline", "--method", "top1", "--lambdas=0,-1"],
    ["eval", "--eval-samples", 0],
    ["train", "--config", "TYPO"],
    ["train", "--config", "LAMBDA"],
    ["sweep", "--config", "TYPO"],
    ["baseline", "--config", "TYPO"],
    ["eval", "--config", "TYPO"],
    ["generate", "simulated", "--config", "TYPO"],
    ["train", "--patience=-2"],
    ["sweep", "--patience=-2"],
    ["baseline", "--method", "top1", "--lr=-1"],
    ["baseline", "--method", "top1", "--lr", "nan"],
    ["baseline", "--method", "top1", "--epochs", 0],
    ["baseline", "--method", "top1", "--epochs=-3"],
    ["generate", "from-table", "--train-queries", 10, "--test-queries=-4"],
    ["generate", "simulated", "--queries", 0],
    ["generate", "simulated", "--docs", 0],
    ["generate", "simulated", "--minority-prob", 1.5],
    ["sweep", "--config", "LAM"],
    ["baseline", "--method", "lp", "--lr", 7],
    ["baseline", "--epochs", 9],
    ["baseline", "--seed", 4],
    ["baseline", "--config", "TOP1"],
    ["generate", "simulated", "--seed=-1"],
    ["generate", "from-table", "--seed=-1"],
    ["train", "--seed=-1"],
    ["train", "--split-seed=-1"],
    ["sweep", "--seeds=0,-1"],
    ["sweep", "--split-seed=-1"],
    ["baseline", "--method", "top1", "--seed=-1"],
    ["eval", "--seed=-1"],
    ["sweep", "--lambdas", ","],
    ["baseline", "--lambdas", ","],
    ["baseline", "--method", "top1", "--lambdas", ","],
    ["train", "--optimizer", "rmsprop"],
    ["train", "--epochs", "many"],
    ["train", "--val", "DIRECTORY"],
    ["sweep", "--test", "SIDECAR"],
    ["train", "--out", "FILE"],
    ["train", "--config", "LATIN1"],
    ["generate", "from-table", "--config", "MAYBE"],
], ids=lambda argv: "-".join(str(a).lstrip("-") for a in argv))
def test_bad_configuration_is_a_clean_error_before_any_work(
        tmp_path, dataset_dir, capsys, argv):
    letor = dataset_dir / "data.letor"
    # Config files by placeholder: a bad value, misspelt keys, the
    # record's "lambda" in place of the option name "lam", train's "lam"
    # given to a sweep, a top-1 option given to the LP baseline, a file
    # that is not UTF-8 and a boolean that is neither word.  A value the
    # parser refuses is named with its file; a key the command does not
    # take and a boolean neither true nor false with its file and line.
    first = {"sweep": "seeds = 1", "baseline": "lambdas = 0"}.get(argv[0], "seed = 1")
    configs = {"RMSPROP": "optimizer = rmsprop\n",
               "TYPO": f"{first}\nlamda = 5\nsampels = 3\n",
               "LAMBDA": "lambda = 5\n",
               "LAM": "lam = 5\n",
               "TOP1": "method = lp\nlr = 7\n",
               "LATIN1": "seed = \xff\n",
               "MAYBE": "seed = 1\npreprocess = maybe\n"}
    refusals = {"RMSPROP": "{config}: fairltr {argv[0]}: argument --optimizer: "
                           "invalid choice: 'rmsprop'",
                "TYPO": "{config} line 2: unknown key 'lamda'",
                "LAMBDA": "{config} line 1: unknown key 'lambda'",
                "LAM": "{config} line 1: unknown key 'lam'",
                "LATIN1": "cannot read config file {config}: 'utf-8' codec",
                "MAYBE": "{config} line 2: preprocess takes 1, true, yes, on, "
                         "0, false, no, off, got 'maybe'"}
    # Paths by placeholder: a directory as a dataset, a dataset whose
    # .groups sidecar is a directory, and a file as the output directory.
    # Each refusal names the path.
    paths = {"DIRECTORY": tmp_path / "a-directory",
             "SIDECAR": tmp_path / "sidecar.letor", "FILE": tmp_path / "a-file"}
    paths["DIRECTORY"].mkdir()
    paths["SIDECAR"].write_bytes(letor.read_bytes())
    (tmp_path / "sidecar.groups").mkdir()
    paths["FILE"].write_text("kept\n")
    named = next((paths[a] for a in argv if a in paths), None)
    argv = [paths.get(a, a) for a in argv]
    checkpoint = tmp_path / "model.txt"
    checkpoint.write_text("fairltr-model 1\nkind linear\nfeature_dim 2\n"
                          "bias 0\nw 0.1 0.2\n")
    table = tmp_path / "rows.csv"
    table.write_text("f,label,grp\n" + "".join(
        f"{i},{int(i < 10)},{i % 2}\n" for i in range(30)))
    if argv[0] == "eval":
        inputs = ["--checkpoint", checkpoint, "--data", letor]
    elif argv[0] == "generate":
        inputs = ["--input", table] if argv[1] == "from-table" else []
    else:
        inputs = ["--train", letor]
    out = argv[argv.index("--out") + 1] if "--out" in argv else tmp_path / "out"
    placeholder = next((a for a in argv if a in configs), None)
    if placeholder is not None:
        config = tmp_path / f"{placeholder.lower()}.cfg"
        config.write_text(configs[placeholder], encoding="latin-1")
        argv = [config if a == placeholder else a for a in argv]
    assert run([*argv, *inputs, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if placeholder in refusals:
        assert refusals[placeholder].format(config=config, argv=argv) in err
    if named is not None:
        assert str(named) in err
    if out == paths["FILE"]:
        assert out.read_text() == "kept\n"
    else:
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--lambda", 5],
    ["sweep", "--seed", 3],
    ["baseline", "--seed", 4],
    ["generate", "simulated", "--candidate-size", 5],
    ["generate", "from-table", "--queries", 5],
], ids=lambda argv: "-".join(str(a).lstrip("-") for a in argv))
def test_a_flag_the_command_does_not_take_is_refused_before_any_work(
        tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 1
    flag, value = argv[-2:]
    assert capsys.readouterr().err == (
        f"error: fairltr {' '.join(argv[:-2])}: unrecognized arguments: "
        f"{flag} {value}\n")
    assert not out.exists()


def test_usage_errors_exit_1_with_an_error_line_and_help_exits_0(capsys):
    assert run(["train"]) == 1
    assert capsys.readouterr().err == (
        "error: fairltr train: the following arguments are required: --out\n")
    assert run([]) == 1
    assert capsys.readouterr().err.startswith("error: fairltr: ")
    with pytest.raises(SystemExit) as exit_info:
        run(["train", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fairltr train")


COMMANDS = [["generate", "simulated"], ["generate", "from-table"], ["train"],
            ["sweep"], ["baseline"], ["eval"]]


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_config_file_keys_are_the_parser_option_dests(tmp_path, command):
    """A config file takes exactly the dests of the command's options as
    keys, and refuses every other attribute of its parsed namespace."""
    args = cli.parse_args([*command, "--out", "o"])
    common = {"command", "source", "func", "options", "config", "out", "force"}
    dests = set(vars(args)) - common
    assert {o.dest for o in args.options} == dests
    config = tmp_path / "c.cfg"
    for key in sorted(dests | common):
        config.write_text(f"{key} = 1\n")
        if key in dests:
            assert len(cli.load_config_file(config, args.options)) == 1
        else:
            with pytest.raises(cli.CliError, match=f"line 1: unknown key '{key}'"):
                cli.load_config_file(config, args.options)


def _two_values(option):
    """Two values the parser takes for ``option``, the first not its
    default."""
    if option.kind is bool:
        return True, False
    if option.choices:
        return next(c for c in option.choices if c != option.default), option.default
    if option.kind is str:
        return "one", "two"
    return option.kind((option.default or 0) + 1), option.kind((option.default or 0) + 2)


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_a_config_line_resolves_as_its_flag(tmp_path, command):
    """Every option set away from its default as a ``key = value`` line
    resolves to the same value as its flag, and a flag given before or
    after ``--config`` beats the file's line for the same option; a
    boolean set false in the file and given as a flag is True."""
    options = cli.parse_args([*command, "--out", "o"]).options

    def resolve(*argv):
        args = cli.parse_args([*command, *map(str, argv), "--out", "o"])
        return cli.resolve_options(args, args.options)

    def config(name, which):
        path = tmp_path / name
        path.write_text("".join(f"{o.dest} = {_two_values(o)[which]}\n"
                                for o in options))
        return path

    flags = [o.name if o.kind is bool else f"{o.name}={_two_values(o)[0]}"
             for o in options]
    expected = resolve(*flags)
    assert set(expected) == {o.dest for o in options}
    assert all(expected[o.dest] != o.default for o in options)
    assert resolve("--config", config("same.cfg", 0)) == expected
    other = config("other.cfg", 1)
    assert resolve("--config", other, *flags) == expected
    assert resolve(*flags, "--config", other) == expected
    unset = tmp_path / "unset.cfg"
    unset.write_text("".join(f"{o.dest} = off\n" for o in options if o.kind is bool))
    assert cli.load_config_file(unset, options) == []


def test_config_txt_records_only_the_options_the_command_reads(tmp_path,
                                                               dataset_dir):
    letor = dataset_dir / "data.letor"

    def keys(name):
        text = (tmp_path / name / "config.txt").read_text()
        return [line.split(" = ")[0] for line in text.splitlines()]

    baseline = ["baseline", "--train", letor, "--lambdas", "0,0.1"]
    assert run([*baseline, "--method", "lp", "--out", tmp_path / "lp"]) == 0
    assert keys("lp") == ["lambdas", "merit", "method", "test", "train"]
    assert run([*baseline, "--method", "top1", "--epochs", 2,
                "--out", tmp_path / "top1"]) == 0
    assert keys("top1") == ["epochs", "lambdas", "lr", "merit", "method",
                            "test", "train"]
    assert run(["sweep", "--train", letor, "--lambdas", "0", "--epochs", 1,
                "--samples", 4, "--out", tmp_path / "sweep"]) == 0
    assert "lam" not in keys("sweep") and "seed" not in keys("sweep")
    assert {"lambdas", "seeds", "jobs", "test"} <= set(keys("sweep"))


@pytest.mark.parametrize("command", ["train", "baseline"])
@pytest.mark.parametrize("bad", ["relevance", "feature"])
def test_non_finite_input_is_a_clean_error(tmp_path, dataset_dir, capsys,
                                           command, bad):
    lines = (dataset_dir / "data.letor").read_text().splitlines()
    rel, qid, first, *rest = lines[2].split()
    if bad == "relevance":
        lines[2] = " ".join(["nan", qid, first, *rest])
    else:
        lines[2] = " ".join([rel, qid, first.split(":")[0] + ":inf", *rest])
    letor = tmp_path / "bad.letor"
    letor.write_text("\n".join(lines) + "\n")
    (tmp_path / "bad.groups").write_bytes(
        (dataset_dir / "data.groups").read_bytes())
    out = tmp_path / "out"
    assert run([command, "--train", letor, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {letor}: line 3: bad {bad}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("bad", ["letor", "groups"])
def test_a_non_ascii_byte_is_a_clean_error_naming_its_line(
        tmp_path, dataset_dir, capsys, command, bad):
    """A byte outside ASCII in a LETOR or group file is one ``error:`` line
    that names the file's line, not a decoding traceback."""
    letor, groups = tmp_path / "bad.letor", tmp_path / "bad.groups"
    lines = (dataset_dir / "data.letor").read_bytes().split(b"\n")
    labels = (dataset_dir / "data.groups").read_bytes().split(b"\n")
    if bad == "letor":
        lines[3] = lines[3].split()[0] + b" qid:1 1:0.5 2:0.\xc3\xa9"
    else:
        labels[4] = b"\xc3\xa9"
    letor.write_bytes(b"\n".join(lines))
    groups.write_bytes(b"\n".join(labels))
    args = (["--train", letor] if command == "train" else
            ["--checkpoint", tmp_path / "model.txt", "--data", letor])
    policy.save_model(policy.LinearModel(np.array([0.1, 0.2])), tmp_path / "model.txt")
    out = tmp_path / "out"
    assert run([command, *args, "--out", out]) == 1
    err = capsys.readouterr().err
    where = "line 4" if bad == "letor" else "group file line 5"
    assert err == f"error: {letor}: {where}: non-ASCII byte 0xc3\n"
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "kind linear\nfeature_dim 2\nbias 1\nw 0.1 0.2\n",
    "kind linear\nfeature_dim 2\nbias 0\nw 0.1 zz\n",
    "kind mlp1\nfeature_dim 2\nhidden 2\nW 0.1 0.2\nW 0.3 0.4\n"
    "b_hidden 0.1\nw_out 0.5 0.6\nb_out 0\n",
    "kind linear\nfeature_dim 2\nbias 0\nw 0.1 \u00e9\n",
    "kind linear\nfeature_dim 2\nbias 0\nw nan 1\n",
    "kind mlp1\nfeature_dim 1\nhidden 1\nW 0.1\nb_hidden 0.1\nw_out 0.5\n"
    "b_out -inf\n",
], ids=["bias-line-missing", "non-numeric", "short-hidden-bias", "not-ascii",
        "nan-weight", "infinite-bias"])
def test_malformed_checkpoint_is_a_clean_error(tmp_path, dataset_dir, capsys,
                                                text):
    checkpoint = tmp_path / "model.txt"
    checkpoint.write_text("fairltr-model 1\n" + text, encoding="utf-8")
    with pytest.raises(policy.CheckpointError):
        policy.load_model(checkpoint)
    out = tmp_path / "ev"
    assert run(["eval", "--checkpoint", checkpoint, "--data",
                dataset_dir / "data.letor", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkpoint}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_summary_schema_and_parallel_determinism(tmp_path, dataset_dir):
    letor = dataset_dir / "data.letor"
    common = ["sweep", "--train", letor, "--lambdas", "0,5", "--seeds", "0,1",
              "--gamma", 0, "--epochs", 2, "--samples", 5]
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    assert run(common + ["--out", seq, "--jobs", 1]) == 0
    assert run(common + ["--out", par, "--jobs", 2]) == 0
    rows = read_rows(seq / "summary.csv")
    assert rows[0] == ["lambda", "seed", "split", "ndcg", "err", "disparity",
                       "delta_lambda"]
    assert [r[:3] for r in rows[1:]] == [
        ["0.0", "0", "train"], ["0.0", "1", "train"],
        ["5.0", "0", "train"], ["5.0", "1", "train"]]
    assert (seq / "summary.csv").read_bytes() == (par / "summary.csv").read_bytes()
    assert (seq / "summary_stats.csv").read_bytes() == \
        (par / "summary_stats.csv").read_bytes()
    for lam in ("0", "5"):
        for seed in ("0", "1"):
            run_dir = seq / f"run-lam{lam}-seed{seed}"
            assert (run_dir / "record.json").exists()
            assert (seq / f"run-lam{lam}-seed{seed}" / "checkpoint.txt").read_bytes() == \
                (par / f"run-lam{lam}-seed{seed}" / "checkpoint.txt").read_bytes()


def test_sweep_with_test_split_adds_rows(tmp_path, dataset_dir):
    letor = dataset_dir / "data.letor"
    out = tmp_path / "sw"
    assert run(["sweep", "--train", letor, "--test", letor, "--out", out,
                "--lambdas", "0", "--seeds", "0", "--gamma", 0,
                "--epochs", 2, "--samples", 5]) == 0
    rows = read_rows(out / "summary.csv")
    assert [r[2] for r in rows[1:]] == ["train", "test"]
    assert rows[1][6] != "" and rows[2][6] == ""    # delta on train only


def test_baseline_lp_summary(tmp_path, dataset_dir):
    out = tmp_path / "lp"
    assert run(["baseline", "--method", "lp", "--train",
                dataset_dir / "data.letor", "--out", out,
                "--lambdas", "0,0.2"]) == 0
    rows = read_rows(out / "summary.csv")
    assert rows[0] == ["lambda", "seed", "split", "ndcg", "err", "disparity",
                       "delta_lambda"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[1] == "" and row[6] == ""
        assert float(row[3]) > 0.5
        assert 0.0 < float(row[4]) <= 1.0      # LP rows carry their mixture's err
    record = json.loads((out / "record.json").read_text())
    assert record["method"] == "lp-postprocess"
    assert len(record["per_lambda"]) == 2


def test_baseline_top1_summary(tmp_path, dataset_dir):
    out = tmp_path / "t1"
    assert run(["baseline", "--method", "top1", "--train",
                dataset_dir / "data.letor", "--out", out,
                "--lambdas", "0,100", "--epochs", 3]) == 0
    rows = read_rows(out / "summary.csv")
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[1] == "" and row[6] == ""
        assert row[4] != ""      # top-1 rows do carry err
    record = json.loads((out / "record.json").read_text())
    assert record["method"] == "top1"
    assert [sorted(stats) for stats in record["per_lambda"]] == [
        ["grad_norm", "lambda", "loss", "train"]] * 2


@pytest.fixture(scope="module")
def two_size_dir(tmp_path_factory):
    """Train and test files whose queries have 6 or 9 documents, in runs of
    two queries of each size."""
    out = tmp_path_factory.mktemp("data") / "two-size"
    for name, seed in (("train", 11), ("test", 12)):
        small = data.generate_simulated(num_queries=6, docs_per_query=6, seed=seed)
        large = data.generate_simulated(num_queries=6, docs_per_query=9,
                                        seed=seed + 100)
        queries = [(f"{size}{q.qid}", q.feature_matrix, q.relevances,
                              q.groups)
                   for i in range(0, 6, 2)
                   for size, part in (("s", small), ("l", large))
                   for q in list(part)[i:i + 2]]
        out.mkdir(parents=True, exist_ok=True)
        data.save_dataset(oracle.dataset_of(queries),
                          out / f"{name}.letor", out / f"{name}.groups")
    return out


def top1_reference(train_set, splits, lambdas, merit, lr, epochs):
    """The top-1 baseline's summary rows and ``per_lambda`` stats valued one
    model and one query at a time, as before the baseline valued its
    models as one block; each weight's loss and gradient norm are those of
    the per-query reference descent."""
    ndcg_metric = metrics.UtilityMetric("ndcg")
    err_metrics = {name: cli.fit_metric_to_dataset(metrics.UtilityMetric("err"), dataset)
                   for name, dataset in splits}
    group = fairness.DisparityConfig("group", merit)
    rows, detail = [], []
    for lam in lambdas:
        model = baselines.train_top1_baseline(train_set, lam, learning_rate=lr,
                                              epochs=epochs)
        _, loss, grad, _ = oracle.train_top1_query(train_set, lam, lr, epochs)
        stats = {"loss": pytest.approx(loss, rel=1e-12),
                 "grad_norm": pytest.approx(float(np.linalg.norm(grad)), rel=1e-6)}
        for split_name, dataset in splits:
            ndcg_vals, err_vals, disp_vals = [], [], []
            for query in dataset:
                order = policy.argmax_ranking(model.scores(query.feature_matrix))
                ndcg_vals.append(ndcg_metric.value(order, query.relevances))
                err_vals.append(err_metrics[split_name].value(order, query.relevances))
                disp_vals.append(float(group.from_exposures(
                    fairness.ranking_exposures(order),
                    group.rows(query.relevances, query.groups))))
            rows.append([lam, None, split_name, float(np.mean(ndcg_vals)),
                         float(np.mean(err_vals)), float(np.mean(disp_vals)),
                         None])
            stats[split_name] = {"ndcg": float(np.mean(ndcg_vals)),
                                 "disparity": float(np.mean(disp_vals))}
        detail.append({"lambda": lam, **stats})
    return rows, detail


def test_top1_summary_equals_its_per_query_reference(tmp_path, two_size_dir):
    train, test = two_size_dir / "train.letor", two_size_dir / "test.letor"
    out = tmp_path / "t1"
    assert run(["baseline", "--method", "top1", "--train", train, "--test", test,
                "--lambdas", "0,100", "--epochs", 3, "--lr", 0.05, "--out", out]) == 0
    splits = [("train", cli.load_dataset_auto(str(train))),
              ("test", cli.load_dataset_auto(str(test)))]
    assert {len(q) for _, dataset in splits for q in dataset} == {6, 9}
    rows, detail = top1_reference(splits[0][1], splits, [0.0, 100.0],
                                  fairness.MeritFunction(), 0.05, 3)
    got = read_rows(out / "summary.csv")[1:]
    assert len(got) == len(rows) == 4
    for cells, row in zip(got, rows):
        assert cells[:3] == [repr(row[0]), "", row[2]]
        assert [float(cell) for cell in cells[3:6]] == row[3:6]
        assert cells[6] == ""
    assert json.loads((out / "record.json").read_text())["per_lambda"] == detail


def test_baselines_do_their_per_query_and_per_epoch_work_once_per_grid(
        tmp_path, two_size_dir, monkeypatch):
    """The LP builds each query's group row once for the whole grid, and
    the exposures of the rankings of all its segments, in one call each per
    run of equal-size queries; the top-1 grid draws no random numbers and
    makes no ``Query`` view.  Counts work through monkeypatched functions;
    times nothing."""
    train, test = two_size_dir / "train.letor", two_size_dir / "test.letor"
    rows_built, exposures_built = [], []
    group_rows = baselines.group_rows
    monkeypatch.setattr(baselines, "group_rows", lambda merits, groups: rows_built.append(
        len(merits)) or group_rows(merits, groups))
    ranking_exposures = baselines.ranking_exposures
    monkeypatch.setattr(baselines, "ranking_exposures", lambda orders: exposures_built.append(
        len(orders)) or ranking_exposures(orders))
    assert run(["baseline", "--method", "lp", "--train", train, "--test", test,
                "--lambdas", "0,0.05,0.2,1", "--out", tmp_path / "lp"]) == 0
    splits = [cli.load_dataset_auto(str(path)) for path in (train, test)]
    assert sum(rows_built) == sum(len(split) for split in splits) == 24
    assert len(rows_built) == sum(len(split.runs) for split in splits) < 24
    assert exposures_built == rows_built

    def no_view(self, index):
        raise AssertionError("a Query view was made")

    monkeypatch.setattr(data.Dataset, "__getitem__", no_view)

    def no_generator(*args):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    legacy = np.random.get_state()[1].tobytes()
    assert run(["baseline", "--method", "top1", "--train", train, "--test", test,
                "--lambdas", "0,10,100,1000", "--epochs", 3,
                "--out", tmp_path / "t1"]) == 0
    assert np.random.get_state()[1].tobytes() == legacy


def test_sweep_train_rows_hold_delta_lambda_and_test_rows_each_checkpoint(
        tmp_path, two_size_dir):
    """A train row's disparity is its run's delta_lambda, bit for bit, and a
    test row is ``trainer.evaluate`` of its run's checkpoint alone."""
    train, test = two_size_dir / "train.letor", two_size_dir / "test.letor"
    out = tmp_path / "sw"
    assert run(["sweep", "--train", train, "--test", test, "--lambdas", "0,5",
                "--seeds", "0,1", "--gamma", 0, "--epochs", 2, "--samples", 5,
                "--out", out]) == 0
    test_set = cli.load_dataset_auto(str(test))
    rows = read_rows(out / "summary.csv")[1:]
    assert sorted(row[2] for row in rows) == ["test"] * 4 + ["train"] * 4
    for lam, seed, split, ndcg, err, disparity, delta in rows:
        if split == "train":
            assert disparity == delta != ""
            continue
        assert delta == ""
        model = policy.load_model(out / f"run-lam{float(lam):g}-seed{seed}"
                                  / "checkpoint.txt")
        summary = trainer.evaluate(
            model, test_set, metrics.UtilityMetric.parse("ndcg@10"),
            fairness.DisparityConfig("group"), 32, seed=int(seed),
            extra_metrics=[cli.err_metric_for(test_set)])
        assert [float(ndcg), float(err), float(disparity)] == [
            summary.mean_metric, summary.extra_means[0], summary.mean_disparity]


def test_eval_reports(tmp_path, dataset_dir):
    letor = dataset_dir / "data.letor"
    run_dir = tmp_path / "run"
    assert run(["train", "--train", letor, "--out", run_dir, "--gamma", 0,
                "--epochs", 2, "--samples", 5]) == 0
    out = tmp_path / "ev"
    assert run(["eval", "--checkpoint", run_dir / "checkpoint.txt",
                "--data", letor, "--out", out, "--disparity", "group"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["num_queries"] == 14
    assert 0.0 <= report["mean_metric"] <= 1.0
    assert "mean_disparity" in report
    rows = read_rows(out / "report.csv")
    assert rows[0] == ["qid", "ndcg@10", "err", "disparity"]
    assert len(rows) == 15


def test_an_err_eval_writes_its_err_column_once(tmp_path, dataset_dir, capsys):
    """With ``--metric err`` the run's metric is the err column: report.csv
    holds it once, with each query's ERR, report.json keeps both means, and
    stdout names it once."""
    letor = dataset_dir / "data.letor"
    run_dir = tmp_path / "run"
    assert run(["train", "--train", letor, "--out", run_dir, "--gamma", 0,
                "--epochs", 2, "--samples", 5]) == 0
    out = tmp_path / "ev"
    capsys.readouterr()
    assert run(["eval", "--checkpoint", run_dir / "checkpoint.txt", "--data", letor,
                "--out", out, "--metric", "err", "--disparity", "group"]) == 0
    assert capsys.readouterr().out.count("mean err") == 1
    rows = read_rows(out / "report.csv")
    assert rows[0] == ["qid", "err", "disparity"]
    dataset = data.load_dataset(letor, dataset_dir / "data.groups")
    summary = trainer.evaluate(policy.load_model(run_dir / "checkpoint.txt"),
                               dataset, cli.err_metric_for(dataset))
    assert [float(row[1]) for row in rows[1:]] == summary.metric_values
    report = json.loads((out / "report.json").read_text())
    assert report["mean_metric"] == report["mean_err"] == summary.mean_metric


def test_err_grade_covers_a_val_file_above_the_train_file(tmp_path, dataset_dir):
    full = data.load_dataset(dataset_dir / "data.letor")
    capped = oracle.dataset_of([(q.qid, q.feature_matrix,
                                np.minimum(q.relevances, 4.0)) for q in full])
    train_file = tmp_path / "capped.letor"
    data.save_dataset(capped, train_file)
    val_dir = tmp_path / "val"
    assert run(["generate", "simulated", "--out", val_dir, "--queries", 10,
                "--docs", 5, "--seed", 0]) == 0
    val_file = val_dir / "data.letor"
    assert max(q.relevances.max() for q in data.load_dataset(val_file)) == 5.0
    common = ["--train", train_file, "--val", val_file, "--metric", "err",
              "--gamma", 0, "--epochs", 1, "--samples", 4]
    assert run(["train", *common, "--out", tmp_path / "run"]) == 0
    assert run(["sweep", *common, "--disparity", "none", "--lambdas", "0",
                "--out", tmp_path / "sweep"]) == 0


@pytest.mark.parametrize("command", ["train", "sweep", "eval"])
def test_avgrank_refuses_an_all_zero_query_before_any_work(
        tmp_path, dataset_dir, capsys, command):
    full = data.load_dataset(dataset_dir / "data.letor")
    queries = list(full)
    q = queries[3]
    queries[3] = (q.qid, q.feature_matrix,
                                        np.zeros(len(q)), q.groups)
    letor = tmp_path / "zero.letor"
    data.save_dataset(oracle.dataset_of(queries), letor)
    checkpoint = tmp_path / "model.txt"
    policy.save_model(policy.LinearModel(np.zeros(full.feature_dim)), checkpoint)
    out = tmp_path / "out"
    common = ["--metric", "avgrank", "--out", out]
    argv = {
        "train": ["train", "--train", letor, "--val", letor, "--epochs", 1],
        "sweep": ["sweep", "--train", letor, "--val", letor, "--epochs", 1,
                  "--disparity", "none", "--lambdas", "0"],
        "eval": ["eval", "--checkpoint", checkpoint, "--data", letor],
    }[command]
    assert run([*argv, *common]) == 1
    err = capsys.readouterr().err
    split = "evaluation" if command == "eval" else "train"
    assert err.startswith(f"error: {split} split query {q.qid!r} has only zero")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, split, needs", [
    (["train", "--train", "NEG", "--val", "NEG", "--disparity", "group"],
     "train", "merit"),
    (["train", "--train", "NEG", "--val", "NEG", "--metric", "err"], "train", "err"),
    (["sweep", "--train", "DATA", "--test", "NEG", "--lambdas", "0,1"], "test", "err"),
    (["baseline", "--method", "lp", "--train", "DATA", "--test", "NEG"],
     "test", "err"),
    (["eval", "--checkpoint", "MODEL", "--data", "NEG", "--disparity", "group"],
     "evaluation", "err"),
], ids=lambda arg: "-".join(str(a).lstrip("-") for a in arg)
   if isinstance(arg, list) else arg)
def test_a_negative_relevance_is_refused_where_err_or_a_merit_is_valued(
        tmp_path, dataset_dir, capsys, argv, split, needs):
    """ERR and every merit need relevances >= 0: a split with a negative one
    is refused before any output, naming the split and the query."""
    full = data.load_dataset(dataset_dir / "data.letor",
                             dataset_dir / "data.groups")
    queries = list(full)
    q = queries[3]
    queries[3] = (q.qid, q.feature_matrix,
                            np.concatenate(([-1.0], q.relevances[1:])), q.groups)
    neg = tmp_path / "neg.letor"
    data.save_dataset(oracle.dataset_of(queries), neg,
                      tmp_path / "neg.groups")
    model = tmp_path / "model.txt"
    policy.save_model(policy.LinearModel(np.zeros(full.feature_dim)), model)
    paths = {"NEG": neg, "DATA": dataset_dir / "data.letor", "MODEL": model}
    out = tmp_path / "out"
    common = ["--epochs", 1, "--samples", 2] if argv[0] in ("train", "sweep") else []
    assert run([*(paths.get(a, a) for a in argv), *common, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {split} split query {q.qid!r} has negative relevance -1, "
        f"for which {needs} is undefined\n")
    assert not out.exists()
    # DCG is defined for a negative relevance: training on ndcg alone runs.
    if argv[0] == "train" and needs == "merit":
        assert run(["train", "--train", neg, "--val", neg, *common,
                    "--out", out]) == 0


def test_eval_rejects_dimension_mismatch(tmp_path, dataset_dir, capsys):
    letor = dataset_dir / "data.letor"
    run_dir = tmp_path / "run"
    assert run(["train", "--train", letor, "--out", run_dir, "--gamma", 0,
                "--epochs", 2, "--samples", 5]) == 0
    wide = tmp_path / "wide.letor"
    wide.write_text("1 qid:1 1:1 2:0 3:2\n0 qid:1 1:0 2:1 3:0\n")
    code = run(["eval", "--checkpoint", run_dir / "checkpoint.txt",
                "--data", wide, "--out", tmp_path / "bad"])
    assert code == 1
    assert "features" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [("train", "--val"), ("sweep", "--test"),
                                          ("baseline", "--test")])
def test_a_split_of_another_feature_width_is_refused_before_any_output(
        tmp_path, dataset_dir, capsys, command, flag):
    letor = dataset_dir / "data.letor"
    wide = tmp_path / "wide.letor"
    wide.write_text("1 qid:1 1:1 2:0 3:2\n0 qid:1 1:0 2:1 3:0\n")
    out = tmp_path / "out"
    assert run([command, "--train", letor, flag, wide, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {wide} has 3 features but {letor} has 2\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["train", "--train", "DATA", "--epochs", 2, "--samples", 4], "--val"),
    (["sweep", "--train", "DATA", "--epochs", 2, "--samples", 4], "--test"),
    (["baseline", "--method", "top1", "--train", "DATA", "--epochs", 2], "--test"),
    (["eval", "--checkpoint", "MODEL"], "--data"),
], ids=lambda arg: arg if isinstance(arg, str) else arg[0])
def test_a_narrower_split_is_padded_with_zero_features(tmp_path, dataset_dir,
                                                       argv, flag):
    """A sparse LETOR line that leaves out a feature id holds 0 there: a
    file that never names the last feature reads as one that names it 0."""
    letor = dataset_dir / "data.letor"
    full = data.load_dataset(letor, dataset_dir / "data.groups")
    lines = [line.split() for line in letor.read_text().splitlines()]
    for name, last in (("narrow", []), ("zeros", ["2:0"])):
        (tmp_path / f"{name}.letor").write_text(
            "".join(" ".join(line[:3] + last) + "\n" for line in lines))
        (tmp_path / f"{name}.groups").write_bytes(
            (dataset_dir / "data.groups").read_bytes())
    narrow = data.load_dataset(tmp_path / "narrow.letor")
    assert narrow.feature_dim == 1 and full.feature_dim == 2
    model = tmp_path / "model.txt"
    policy.save_model(policy.LinearModel(np.array([0.3, -0.2])), model)
    paths = {"DATA": letor, "MODEL": model}
    outputs = []
    for name in ("narrow", "zeros"):
        out = tmp_path / f"out-{name}"
        assert run([*(paths.get(a, a) for a in argv), flag,
                    tmp_path / f"{name}.letor", "--out", out]) == 0
        outputs.append({path.relative_to(out): path.read_bytes()
                        for path in sorted(out.rglob("*"))
                        if path.suffix in (".csv", ".txt") and path.name != "config.txt"})
    assert outputs[0] == outputs[1] and len(outputs[0]) >= 1


def test_generate_from_table_roundtrip(tmp_path):
    table = tmp_path / "rows.csv"
    rng = np.random.default_rng(0)
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["age", "city", "label", "grp"])
        for i in range(60):
            writer.writerow([f"{rng.uniform(20, 60):.1f}",
                             ["north", "south"][int(rng.random() < 0.5)],
                             int(i < 20), i % 2])
    out = tmp_path / "conv"
    assert run(["generate", "from-table", "--input", table, "--out", out,
                "--label-col", "label", "--group-col", "grp", "--preprocess",
                "--train-queries", 4, "--test-queries", 2,
                "--candidate-size", 6]) == 0
    from fairltr import data
    train = data.load_dataset(out / "train.letor", out / "train.groups")
    test = data.load_dataset(out / "test.letor", out / "test.groups")
    assert len(train) == 4 and len(test) == 2
    assert train.has_groups
    assert train.feature_dim == 3     # age + two city categories
    for q in train:
        assert len(q) == 6


def test_generate_from_table_requires_numeric_without_preprocess(tmp_path, capsys):
    table = tmp_path / "rows.csv"
    table.write_text("f,label\nred,1\nblue,0\n")
    code = run(["generate", "from-table", "--input", table, "--out",
                tmp_path / "x", "--label-col", "label",
                "--train-queries", 1, "--test-queries", 0,
                "--candidate-size", 2])
    assert code == 1
    assert "--preprocess" in capsys.readouterr().err


def test_a_table_row_shorter_than_the_header_is_refused(tmp_path, capsys):
    table = tmp_path / "rows.csv"
    table.write_text("f,label,grp\n1,0,1\n2,1\n3,1,0\n")
    out = tmp_path / "x"
    assert run(["generate", "from-table", "--input", table, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {table} row 3: 2 cells for 3 columns\n"
    assert not out.exists()


@pytest.mark.parametrize("preprocess,cell,row", [(True, "nan", 4), (False, "inf", 3)])
def test_a_non_finite_table_cell_is_refused_naming_its_file_and_row(
        tmp_path, capsys, preprocess, cell, row):
    """Before any encoding: standardizing would spread a NaN down its whole
    column."""
    table = tmp_path / "rows.csv"
    cells = [f"{i}.5,{int(i < 10)},{i % 2}" for i in range(30)]
    cells[row - 2] = f"{cell},0,1"
    table.write_text("f,label,grp\n" + "\n".join(cells) + "\n")
    out = tmp_path / "x"
    argv = ["generate", "from-table", "--input", table, "--group-col", "grp",
            "--out", out]
    assert run(argv + ["--preprocess"] * preprocess) == 1
    assert capsys.readouterr().err == (
        f"error: {table} row {row}: feature values must be finite\n")
    assert not out.exists()


def test_a_table_that_is_not_utf8_is_refused_naming_its_file(tmp_path, capsys):
    table = tmp_path / "rows.csv"
    table.write_bytes(b"f,label\n1,0\n\xe9,1\n")
    assert run(["generate", "from-table", "--input", table, "--out", tmp_path / "x"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot read table {table}: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("text,options,refusal", [
    ("f,label\n1,0\n", ["--label-col", "missing"], "TABLE: no column named 'missing'"),
    ("f,label\n1,0\n", ["--group-col", "7"], "TABLE: column index 7 out of range"),
    ("f,label\n1,0\n 2 , 1 \n", ["--group-col", "0"],
     "TABLE row 3: group must be 0 or 1, got '2'"),
    ("g,label\n1,0\n0,1\n", ["--group-col", "g"], "TABLE: no feature columns"),
])
def test_a_table_column_is_named_or_indexed(tmp_path, capsys, text, options, refusal):
    table = tmp_path / "rows.csv"
    table.write_text(text)
    assert run(["generate", "from-table", "--input", table, *options,
                "--out", tmp_path / "x"]) == 1
    assert capsys.readouterr().err == f"error: {refusal.replace('TABLE', str(table))}\n"


@pytest.mark.parametrize("options", [["--group-col", "label"], ["--group-col", "1"],
                                     ["--label-col", "1", "--group-col", "label"]])
def test_a_group_column_that_is_the_label_column_is_refused(tmp_path, capsys, options):
    """Named or indexed, a group column that is the label column would make
    every group the label; it is refused before any output."""
    table = tmp_path / "rows.csv"
    table.write_text("f,label,g\n0.5,0,1\n1.5,1,0\n2.5,1,1\n")
    out = tmp_path / "x"
    assert run(["generate", "from-table", "--input", table, *options, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {table}: group column {options[-1]!r} is the label column 'label'; "
        "every group would be the label\n")
    assert not out.exists()


def test_unknown_metric_is_a_clean_error(tmp_path, dataset_dir, capsys):
    code = run(["train", "--train", dataset_dir / "data.letor",
                "--out", tmp_path / "x", "--metric", "map"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("command", ["train", "sweep", "eval"])
def test_a_cutoff_on_err_is_a_clean_error(tmp_path, dataset_dir, capsys, command):
    checkpoint = tmp_path / "model.txt"
    policy.save_model(policy.LinearModel(np.array([0.1, 0.2])), checkpoint)
    data_args = (["--checkpoint", checkpoint, "--data", dataset_dir / "data.letor"]
                 if command == "eval" else ["--train", dataset_dir / "data.letor"])
    out = tmp_path / "x"
    assert run([command, *data_args, "--out", out, "--metric", "err@2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: err takes no cutoff, got err@2")
    assert err.count("\n") == 1 and not out.exists()


def test_group_disparity_refuses_an_unlabeled_split_before_any_run(
        tmp_path, dataset_dir, capsys):
    letor = dataset_dir / "data.letor"
    bare = tmp_path / "bare.letor"
    bare.write_bytes(letor.read_bytes())     # no bare.groups sidecar
    common = ["--disparity", "group", "--gamma", 0, "--epochs", 1,
              "--samples", 4]
    cases = [
        ("val", ["train", "--train", letor, "--val", bare, "--lambda", 5, *common]),
        ("val", ["sweep", "--train", letor, "--val", bare, *common]),
        ("test", ["sweep", "--train", letor, "--test", bare, *common]),
        ("test", ["baseline", "--method", "lp", "--train", letor, "--test", bare]),
    ]
    for split, argv in cases:
        out = tmp_path / f"out-{split}-{argv[0]}"
        assert run([*argv, "--out", out]) == 1
        assert f"{split} split has no group labels" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_parses_each_input_file_once(tmp_path, dataset_dir, monkeypatch):
    calls = []
    load = data.load_dataset

    def counting_load(*args, **kwargs):
        calls.append(args[0])
        return load(*args, **kwargs)

    monkeypatch.setattr(data, "load_dataset", counting_load)
    letor = dataset_dir / "data.letor"
    assert run(["sweep", "--train", letor, "--test", letor, "--lambdas", "0,5",
                "--seeds", "0,1", "--gamma", 0, "--epochs", 1, "--samples", 4,
                "--out", tmp_path / "sw"]) == 0
    assert len(calls) == 2
    assert len(read_rows(tmp_path / "sw" / "summary.csv")) == 1 + 4 * 2


# ---------------------------------------------------------------------------
# Sweeps train each seed's lambdas as one lockstep grid
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wide_dir(tmp_path_factory):
    """Nine documents per query: evaluation draws Monte-Carlo exposures."""
    out = tmp_path_factory.mktemp("data") / "wide"
    assert run(["generate", "simulated", "--out", out, "--queries", 10,
                "--docs", 9, "--seed", 5]) == 0
    return out


RUN_FILES = ("checkpoint.txt", "config.txt", "curves.csv", "record.json")


def same_run_files(a, b):
    return all((a / name).read_bytes() == (b / name).read_bytes()
               for name in RUN_FILES)


def test_the_ndcg_column_is_untruncated_ndcg_whatever_the_runs_metric(tmp_path):
    """An ``ndcg@3`` sweep still writes each run's untruncated NDCG, the
    quantity every method's rows hold."""
    data_dir = tmp_path / "ten"
    assert run(["generate", "simulated", "--out", data_dir, "--queries", 6,
                "--docs", 10, "--seed", 2]) == 0
    letor = data_dir / "data.letor"
    assert run(["sweep", "--train", letor, "--val", letor, "--test", letor,
                "--lambdas", "0,5", "--metric", "ndcg@3", "--epochs", 2,
                "--samples", 4, "--out", tmp_path / "sw"]) == 0
    dataset = data.load_dataset(letor, data_dir / "data.groups")
    rows = read_rows(tmp_path / "sw" / "summary.csv")
    assert rows[0][3] == "ndcg" and len(rows) == 1 + 2 * 2
    truncated = []
    for lam, _, _, ndcg, *_ in rows[1:]:
        model = policy.load_model(tmp_path / "sw" / f"run-lam{float(lam):g}-seed0"
                                  / "checkpoint.txt")
        value = trainer.evaluate(model, dataset, metrics.UtilityMetric("ndcg"))
        assert float(ndcg) == value.mean_metric
        truncated.append(trainer.evaluate(
            model, dataset, metrics.UtilityMetric.parse("ndcg@3")).mean_metric)
    assert [float(row[3]) for row in rows[1:]] != truncated


@pytest.mark.parametrize("lambdas,seeds,name", [
    ("1.0000001,1.0000002", "0", "run-lam1-seed0"),
    ("0,5,0", "0", "run-lam0-seed0"),
    ("5", "2,3,2", "run-lam5-seed2"),
])
def test_sweep_refuses_runs_that_share_a_directory(tmp_path, dataset_dir, capsys,
                                                   lambdas, seeds, name):
    out = tmp_path / "sw"
    assert run(["sweep", "--train", dataset_dir / "data.letor", "--lambdas", lambdas,
                "--seeds", seeds, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 2 runs would share the directory " + name)
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_refuses_fewer_than_one_job_before_any_work(tmp_path, capsys, jobs):
    out = tmp_path / "sw"
    assert run(["sweep", "--train", tmp_path / "missing.letor", f"--jobs={jobs}",
                "--out", out]) == 1
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


def test_a_value_error_of_a_commands_work_is_a_bug_not_a_refusal(
        tmp_path, dataset_dir, monkeypatch, capsys):
    """Only the checks before the output directory exists refuse a
    command; a ``ValueError`` raised by the work propagates."""
    def broken(*args, **kwargs):
        raise ValueError("raised by the work")
    monkeypatch.setattr(trainer, "train", broken)
    out = tmp_path / "tr"
    with pytest.raises(ValueError, match="raised by the work"):
        cli.main(["train", "--train", str(dataset_dir / "data.letor"),
                  "--epochs", "1", "--out", str(out)])
    assert out.is_dir()
    assert "error:" not in capsys.readouterr().err


def test_only_main_makes_the_output_directory():
    """Each command checks its inputs and returns its work; ``main`` alone
    calls ``prepare_out_dir``, after the checks pass."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    callers = {function.name for function in tree.body
               if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.Name) and node.id == "prepare_out_dir"}
    assert callers == {"main"}


@pytest.mark.parametrize("model", ["linear", "mlp1"])
def test_sweep_member_bytes_do_not_depend_on_the_other_members(tmp_path, wide_dir,
                                                                model):
    letor = wide_dir / "data.letor"
    common = ["--train", letor, "--disparity", "group", "--epochs", 4,
              "--samples", 6, "--patience", 1, "--lr", 0.05, "--model", model,
              "--hidden", 4]
    assert run(["sweep", *common, "--lambdas", "0,5,25", "--out", tmp_path / "grid"]) == 0
    assert run(["sweep", *common, "--lambdas", "5", "--out", tmp_path / "one"]) == 0
    assert run(["train", *common, "--lambda", 5, "--out", tmp_path / "train"]) == 0
    member = tmp_path / "grid" / "run-lam5-seed0"
    assert same_run_files(member, tmp_path / "one" / "run-lam5-seed0")
    assert same_run_files(member, tmp_path / "train")


def test_sweep_runs_one_seed_in_process_with_the_same_bytes_at_any_jobs(
        tmp_path, wide_dir, monkeypatch):
    """A worker trains a whole seed, so a one-seed sweep starts no process
    pool whatever ``--jobs`` is."""
    common = ["sweep", "--train", wide_dir / "data.letor", "--test",
              wide_dir / "data.letor", "--lambdas", "0,5,25", "--epochs", 2,
              "--samples", 5]
    assert run([*common, "--jobs", 1, "--out", tmp_path / "one"]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-seed sweep started a process pool")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run([*common, "--jobs", 3, "--out", tmp_path / "three"]) == 0
    for name in ("summary.csv", "summary_stats.csv"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "three" / name).read_bytes()
    for lam in ("0", "5", "25"):
        assert same_run_files(tmp_path / "one" / f"run-lam{lam}-seed0",
                              tmp_path / "three" / f"run-lam{lam}-seed0")


def test_sweep_reports_a_failing_member_and_keeps_the_others(tmp_path, wide_dir,
                                                             capsys):
    """A lambda of 1e308 makes a gradient Adam cannot square: that run fails
    without a warning, the sweep exits 1, and the lambda-0 run in the same
    block keeps the bytes it has alone."""
    common = ["--train", wide_dir / "data.letor", "--disparity", "group",
              "--epochs", 2, "--samples", 6]
    assert run(["sweep", *common, "--lambdas", "0,1e308", "--out", tmp_path / "sw"]) == 1
    err = capsys.readouterr().err
    assert "run lambda=1e+308 seed=0 failed: gradient entry" in err
    assert "adam cannot take, on query" in err
    assert run(["train", *common, "--lambda", 0, "--out", tmp_path / "train"]) == 0
    assert same_run_files(tmp_path / "sw" / "run-lam0-seed0", tmp_path / "train")
    assert not (tmp_path / "sw" / "run-lam1e+308-seed0").exists()
    assert [r[0] for r in read_rows(tmp_path / "sw" / "summary.csv")[1:]] == ["0.0"]


def test_an_lp_baseline_and_eval_load_no_numpy_ma(tmp_path, dataset_dir):
    """``numpy.ma`` adds about 1 MB to a process; the commands that reach
    the LP's knot sort and the parsers' checks load none of it."""
    src = Path(cli.__file__).resolve().parents[1]
    checkpoint = tmp_path / "model.txt"
    policy.save_model(policy.LinearModel(np.array([0.3, -0.2])), checkpoint)
    probe = (
        "import sys; from fairltr import cli; "
        f"args = ['baseline', '--train', {str(dataset_dir / 'data.letor')!r}, "
        f"'--method', 'lp', '--out', {str(tmp_path / 'lp')!r}]; "
        "assert cli.main(args) == 0; "
        f"args = ['eval', '--checkpoint', {str(checkpoint)!r}, "
        f"'--data', {str(dataset_dir / 'data.letor')!r}, "
        f"'--disparity', 'group', '--out', {str(tmp_path / 'eval')!r}]; "
        "assert cli.main(args) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.splitlines()[-1] == "[]"


def test_importing_the_package_and_cli_loads_no_scipy():
    """The runtime needs numpy only; scipy is the test-time LP oracle."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys, fairltr, fairltr.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# Degenerate inputs
# ---------------------------------------------------------------------------


def finite_cells(directory):
    """Every number in the CSV and JSON files under ``directory`` is finite;
    the number of files checked."""
    def check(value):
        if isinstance(value, dict):
            return all(check(v) for v in value.values())
        if isinstance(value, list):
            return all(check(v) for v in value)
        return not isinstance(value, float) or np.isfinite(value)

    files = 0
    for path in sorted(directory.rglob("*")):
        if path.suffix == ".csv":
            for row in read_rows(path)[1:]:
                for cell in row:
                    try:
                        number = float(cell)
                    except ValueError:
                        continue
                    assert np.isfinite(number), (path, row)
        elif path.suffix == ".json":
            assert check(json.loads(path.read_text())), path
        else:
            continue
        files += 1
    return files


def test_every_command_runs_on_degenerate_queries(tmp_path):
    """Queries of 1, 3, 4, 5, 8 and 10 documents, so exposure is exact for
    some and Monte-Carlo for others, one whose relevances are all zero and
    one with a single group: train, sweep, both baselines and eval exit 0
    and write only finite numbers."""
    rng = np.random.default_rng(8)
    queries = []
    for qid, n in enumerate((1, 3, 4, 5, 8, 10), start=1):
        relevances = rng.integers(0, 4, size=n).astype(float)
        groups = np.arange(n) % 2
        if n == 4:
            relevances[:] = 0.0
        if n == 5:
            groups[:] = 0
        queries.append((str(qid), rng.uniform(0.0, 3.0, size=(n, 2)),
                                  relevances, groups))
    letor = tmp_path / "data.letor"
    data.save_dataset(oracle.dataset_of(queries), letor, tmp_path / "data.groups")
    common = ["--train", letor, "--val", letor, "--disparity", "group",
              "--epochs", 2, "--samples", 4, "--patience", 0]
    out = tmp_path / "out"
    commands = [
        ["train", *common, "--lambda", 1, "--out", out / "train"],
        ["sweep", *common, "--test", letor, "--lambdas", "0,1", "--out", out / "sweep"],
        ["baseline", "--method", "lp", "--train", letor, "--test", letor,
         "--lambdas", "0,0.1", "--out", out / "lp"],
        ["baseline", "--method", "top1", "--train", letor, "--test", letor,
         "--lambdas", "0,10", "--epochs", 2, "--out", out / "top1"],
        ["eval", "--checkpoint", out / "train" / "checkpoint.txt", "--data", letor,
         "--disparity", "group", "--out", out / "eval"],
    ]
    for argv in commands:
        assert run(argv) == 0, argv[0]
        assert finite_cells(argv[-1]) > 0, argv[0]
