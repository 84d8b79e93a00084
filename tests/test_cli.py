"""End-to-end command-line behavior, byte determinism, failure modes."""
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from fairltr import cli, data, policy


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
    out = tmp_path / "run"
    argv = ["train", "--train", letor, "--out", out, "--lambda", 1,
            "--disparity", "group", "--gamma", 0, "--epochs", 2,
            "--samples", 5, "--seed", 0]
    assert run(argv) == 0
    for name in ("record.json", "checkpoint.txt", "curves.csv", "config.txt"):
        assert (out / name).exists(), name
    record = json.loads((out / "record.json").read_text())
    assert record["method"] == "pg-rank"
    assert record["config"]["lambda"] == 1.0
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
], ids=lambda argv: "-".join(str(a).lstrip("-") for a in argv))
def test_bad_configuration_is_a_clean_error_before_any_work(
        tmp_path, dataset_dir, capsys, argv):
    letor = dataset_dir / "data.letor"
    config = tmp_path / "rmsprop.cfg"
    config.write_text("optimizer = rmsprop\n")
    checkpoint = tmp_path / "model.txt"
    checkpoint.write_text("fairltr-model 1\nkind linear\nfeature_dim 2\n"
                          "bias 0\nw 0.1 0.2\n")
    inputs = (["--checkpoint", checkpoint, "--data", letor]
              if argv[0] == "eval" else ["--train", letor])
    out = tmp_path / "out"
    argv = [config if a == "RMSPROP" else a for a in argv]
    assert run([*argv, *inputs, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


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
        assert row[1] == "" and row[4] == "" and row[6] == ""
        assert float(row[3]) > 0.5
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
        assert row[4] != ""      # top-1 rows do carry err
        assert row[6] == ""
    record = json.loads((out / "record.json").read_text())
    assert record["method"] == "top1"


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


def test_err_grade_covers_a_val_file_above_the_train_file(tmp_path, dataset_dir):
    full = data.load_dataset(dataset_dir / "data.letor")
    capped = data.Dataset(
        [data.Query(q.qid, [data.Document(d.features, min(d.relevance, 4.0))
                            for d in q.docs]) for q in full],
        full.feature_dim)
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


def test_unknown_metric_is_a_clean_error(tmp_path, dataset_dir, capsys):
    code = run(["train", "--train", dataset_dir / "data.letor",
                "--out", tmp_path / "x", "--metric", "map"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_group_disparity_refuses_an_unlabeled_split_before_any_run(
        tmp_path, dataset_dir, capsys):
    letor = dataset_dir / "data.letor"
    bare = tmp_path / "bare.letor"
    bare.write_bytes(letor.read_bytes())     # no bare.groups sidecar
    common = ["--disparity", "group", "--lambda", 5, "--gamma", 0,
              "--epochs", 1, "--samples", 4]
    cases = [
        ("val", ["train", "--train", letor, "--val", bare, *common]),
        ("val", ["sweep", "--train", letor, "--val", bare, *common]),
        ("test", ["sweep", "--train", letor, "--test", bare, *common]),
    ]
    for split, argv in cases:
        out = tmp_path / f"out-{split}-{argv[0]}"
        assert run([*argv, "--out", out]) == 1
        assert f"{split} split has no group labels" in capsys.readouterr().err
        assert not out.exists()
    out = tmp_path / "out-baseline"
    assert run(["baseline", "--method", "lp", "--train", letor, "--test", bare,
                "--out", out]) == 1
    assert "the test split has none" in capsys.readouterr().err
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
