"""Output checks computed apart from fairltr.

Every check reads the files a workload's commands wrote and compares them
with values this module computes itself from the input files and the
checkpoints: its own LETOR, group-file and checkpoint readers, its own
argmax ranking, NDCG@k, cascade ERR, Plackett-Luce enumeration and group
disparity.  It imports nothing from fairltr.  Checks of a property the method
must have (the LP slack, the disparity falling as lambda grows) carry their
bound here.  ``check_round`` returns a list of failure messages, empty when
every check passes.
"""
from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

AGREE = 1e-12          # recomputed NDCG and ERR
AGREE_EXACT = 1e-9     # recomputed exact-exposure group disparity
LP_SLACK = 1e-8        # LP max_xi at the top of its lambda grid
# delta_lambda at a sweep's largest lambda, as a share of that at lambda 0.
# Largest share seen: 0.42 on tradeoff-n10 seeds 1-40, 0.44 on 38 seeds of
# err-mlp1-n30.
DELTA_RATIO = 0.7


def read_letor(path: Path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Queries in first-appearance order as ``(relevances, features)``."""
    order: list[str] = []
    rows: dict[str, list[tuple[float, dict[int, float]]]] = {}
    width = 0
    for line in Path(path).read_text(encoding="ascii").splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        qid = tokens[1].removeprefix("qid:")
        feats = {int(f): float(v) for f, v in (t.split(":") for t in tokens[2:])}
        width = max(width, *feats)
        if qid not in rows:
            order.append(qid)
            rows[qid] = []
        rows[qid].append((float(tokens[0]), feats))
    queries = []
    for qid in order:
        rels = np.array([rel for rel, _ in rows[qid]])
        X = np.zeros((len(rows[qid]), width))
        for i, (_, feats) in enumerate(rows[qid]):
            for fid, value in feats.items():
                X[i, fid - 1] = value
        queries.append((rels, X))
    return queries


def read_groups(path: Path, queries) -> list[np.ndarray]:
    labels = np.array([int(t) for t in Path(path).read_text().split()])
    bounds = np.cumsum([0] + [len(rels) for rels, _ in queries])
    return [labels[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def read_scorer(path: Path):
    """Scoring function of a ``fairltr-model 1`` checkpoint file."""
    lines = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if lines[0] != ["fairltr-model", "1"]:
        raise ValueError(f"{path}: not a model file")
    fields: dict[str, list[str]] = {}
    hidden_rows = []
    for key, *values in lines[1:]:
        if key == "W":
            hidden_rows.append([float(v) for v in values])
        else:
            fields[key] = values

    def vec(key):
        return np.array([float(v) for v in fields[key]])

    if fields["kind"] == ["linear"]:
        w = vec("w")
        b = vec("b")[0] if "b" in fields else 0.0
        return lambda X: X @ w + b
    W, b_h, w_out, b_out = np.array(hidden_rows), vec("b_hidden"), vec("w_out"), vec("b_out")[0]
    return lambda X: np.maximum(X @ W + b_h, 0.0) @ w_out + b_out


def argmax_order(scores: np.ndarray) -> np.ndarray:
    """Descending score, ties to the lower index."""
    return np.argsort(-scores, kind="stable")


def discounts(k: int) -> np.ndarray:
    return 1.0 / np.log2(np.arange(2, k + 2, dtype=float))


def ndcg(order, rels, cutoff: int | None) -> float:
    k = len(rels) if cutoff is None else min(cutoff, len(rels))
    gain = np.exp2(rels) - 1.0
    ideal = np.sort(gain)[::-1][:k] @ discounts(k)
    return 0.0 if ideal == 0.0 else float(gain[order[:k]] @ discounts(k) / ideal)


def cascade_err(order, rels, max_grade: float) -> float:
    stop = (np.exp2(rels) - 1.0) / 2.0 ** max_grade
    total, reach = 0.0, 1.0
    for position, doc in enumerate(order, start=1):
        total += reach * stop[doc] / position
        reach *= 1.0 - stop[doc]
    return total


def err_grade(queries) -> float:
    """Cascade grade ceiling: 4, raised to the dataset's top relevance."""
    return max(4.0, max(float(rels.max()) for rels, _ in queries))


def exact_exposure(scores: np.ndarray) -> np.ndarray:
    """Expected exposure per document, summed over all n! rankings with
    their Plackett-Luce probabilities."""
    n = len(scores)
    perms = np.array(list(itertools.permutations(range(n))))
    s = scores[perms]
    top = s.max()
    tail = np.log(np.cumsum(np.exp(s[:, ::-1] - top), axis=1)[:, ::-1]) + top
    prob = np.exp((s - tail).sum(axis=1))
    bias = discounts(n)
    exposure = np.zeros(n)
    for position in range(n):
        exposure += np.bincount(perms[:, position], weights=prob * bias[position],
                                minlength=n)
    return exposure


def group_disparity(exposure, merits, groups) -> float:
    """Hinge on the per-merit exposure gap, charged only when the group with
    the higher mean merit is over-exposed; zero for a missing group, a group
    of zero merit or a tie of mean merits."""
    in0, in1 = groups == 0, groups == 1
    if not in0.any() or not in1.any():
        return 0.0
    m0, m1 = merits[in0].sum(), merits[in1].sum()
    if m0 <= 0.0 or m1 <= 0.0:
        return 0.0
    direction = np.sign(m0 / in0.sum() - m1 / in1.sum())
    return max(0.0, direction * (exposure[in0].sum() / m0 - exposure[in1].sum() / m1))


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cutoff(metric: str) -> int | None:
    _, _, cut = metric.partition("@")
    return int(cut) if cut else None


def _far(a: float, b: float, tol: float) -> bool:
    return not abs(a - b) <= tol


def _check_eval(workload, round_dir: Path, test, groups, failures: list[str]) -> None:
    report = json.loads((round_dir / "eval" / "report.json").read_text())
    rows = read_csv(round_dir / "eval" / "report.csv")
    scorer = read_scorer(Path(report["checkpoint"]))
    grade = err_grade(test)
    own_metric, own_err = [], []
    for i, ((rels, X), row) in enumerate(zip(test, rows)):
        scores = scorer(X)
        order = argmax_order(scores)
        if workload.metric == "err":
            own_metric.append(cascade_err(order, rels, grade))
        else:
            own_metric.append(ndcg(order, rels, _cutoff(workload.metric)))
        own_err.append(cascade_err(order, rels, grade))
        if _far(float(row[workload.metric]), own_metric[-1], AGREE):
            failures.append(f"eval query {i}: {workload.metric} {row[workload.metric]} "
                            f"!= recomputed {own_metric[-1]!r}")
        if workload.exact_disparity:
            own = group_disparity(exact_exposure(scores), rels, groups[i])
            if _far(float(row["disparity"]), own, AGREE_EXACT):
                failures.append(f"eval query {i}: exact group disparity "
                                f"{row['disparity']} != enumerated {own!r}")
    if len(rows) != len(test):
        failures.append(f"eval report has {len(rows)} rows for {len(test)} queries")
    for key, own in (("mean_metric", own_metric), ("mean_err", own_err)):
        if _far(report[key], float(np.mean(own)), AGREE):
            failures.append(f"eval {key} {report[key]!r} != recomputed {np.mean(own)!r}")


def _check_sweep(workload, round_dir: Path, test, failures: list[str]) -> float:
    """Checks on the sweep's runs; returns the mean test NDCG of summary.csv."""
    sweep = round_dir / "sweep"
    rows = read_csv(sweep / "summary.csv")
    expected = [(lam, split) for lam in workload.lambdas for split in ("train", "test")]
    got = [(float(r["lambda"]), r["split"]) for r in rows]
    if got != expected:
        failures.append(f"sweep summary rows {got} != expected {expected}")
        return 0.0
    # summary.csv's ndcg column is NDCG@k for ndcg@k runs and untruncated
    # NDCG for every other metric.
    cutoff = _cutoff(workload.metric) if workload.metric.startswith("ndcg") else None
    deltas, test_ndcgs = {}, []
    for row in rows:
        lam = float(row["lambda"])
        run = sweep / f"run-lam{lam:g}-seed0"
        if row["split"] == "train":
            record = json.loads((run / "record.json").read_text())
            if record["epochs_run"] != workload.epochs:
                failures.append(f"lambda {lam:g}: {record['epochs_run']} epochs run, "
                                f"expected {workload.epochs}")
            deltas[lam] = float(row["delta_lambda"])
            continue
        scorer = read_scorer(run / "checkpoint.txt")
        own = float(np.mean([ndcg(argmax_order(scorer(X)), rels, cutoff)
                             for rels, X in test]))
        if _far(float(row["ndcg"]), own, AGREE):
            failures.append(f"lambda {lam:g}: test ndcg {row['ndcg']} "
                            f"!= recomputed {own!r}")
        test_ndcgs.append(float(row["ndcg"]))
    low, high = min(deltas), max(deltas)
    if low != high and not deltas[high] <= DELTA_RATIO * deltas[low]:
        failures.append(f"delta_lambda {deltas[high]!r} at lambda {high:g} is not below "
                        f"{DELTA_RATIO} x {deltas[low]!r} at lambda {low:g}")
    return float(np.mean(test_ndcgs))


def _check_train(workload, round_dir: Path, failures: list[str]) -> float:
    record = json.loads((round_dir / "train" / "record.json").read_text())
    if record["epochs_run"] != workload.epochs:
        failures.append(f"train ran {record['epochs_run']} epochs, "
                        f"expected {workload.epochs}")
    return json.loads((round_dir / "eval" / "report.json").read_text())["mean_metric"]


def _check_lp(round_dir: Path, failures: list[str]) -> None:
    record = json.loads((round_dir / "lp" / "record.json").read_text())
    top = record["per_lambda"][-1]
    if not top["max_xi"] <= LP_SLACK:
        failures.append(f"LP max_xi {top['max_xi']!r} at lambda {top['lambda']} "
                        f"exceeds {LP_SLACK}")
    # The train split only: the LP works on relevances regressed on it, and
    # on held-out queries the ordering is not guaranteed.
    first = record["per_lambda"][0]["train"]["disparity"]
    if not top["train"]["disparity"] <= first:
        failures.append(f"LP train disparity {top['train']['disparity']!r} at the top "
                        f"lambda exceeds {first!r} at lambda 0")


def check_round(workload, inputs: Path, round_dir: Path) -> tuple[list[str], float]:
    """Check one round's outputs; returns the failures and ``test_ndcg``."""
    failures: list[str] = []
    test = read_letor(inputs / "test.letor")
    groups = read_groups(inputs / "test.groups", test)
    _check_eval(workload, round_dir, test, groups, failures)
    if workload.command == "sweep":
        test_ndcg = _check_sweep(workload, round_dir, test, failures)
    else:
        test_ndcg = _check_train(workload, round_dir, failures)
    if workload.lp_lambdas:
        _check_lp(round_dir, failures)
    return failures, test_ndcg
