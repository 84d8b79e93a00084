"""Benchmark of fairltr: one workload per process, driven from outside.

    python3 bench/run.py --workload tradeoff-n10 --seed 1 --seconds 30 --trace 0

The workload's inputs are simulated LETOR and group files made from
``--seed``.  A round runs the workload's fixed list of in-process
``fairltr.cli.main`` commands; rounds repeat until ``--seconds`` is spent,
and each timing is the median over rounds.  The first round's outputs are
checked against values computed apart from the program (``checks.py``) and
every later round must write the same bytes.  Early stopping is off and
the sweep uses one process, so a round's work never depends on what the
program computes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds traced by the wrappers of ``tracer.py``, prints
the per-layer metrics (the tracing overhead is the traced minus the
untraced median round) and writes them, with each layer's share of the
traced round, to ``bench/out/<workload>.trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (commands run), ``failed`` (commands that did not
return 0) and ``metrics``.  ``--tiny`` shrinks every workload for the
self-test.
"""
from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported here or in a
# set-up probe, which inherits the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import gc
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
OUT = BENCH / "out"
SETUP_PROBES = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    """Inputs and commands of one workload.

    ``command`` is the training command, ``sweep`` (over ``lambdas``, one
    program seed, with ``--test``) or ``train`` (at ``lambdas[0]``); an
    ``eval`` of the checkpoint at the largest lambda on the test file
    follows, after the baselines when ``lp_lambdas``/``top1_lambdas`` are
    set.
    """

    train_queries: int
    test_queries: int
    docs: int
    command: str
    lambdas: tuple[float, ...]
    epochs: int
    samples: int
    lr: float
    metric: str
    disparity: str
    model: str = "linear"
    lp_lambdas: tuple[float, ...] = ()
    top1_lambdas: tuple[float, ...] = ()
    top1_epochs: int = 20
    exact_disparity: bool = False

    @property
    def steps(self) -> int:
        """Policy-gradient query steps per round: the CLI keeps
        ``round(0.8 * queries)`` for training, every epoch runs."""
        runs = len(self.lambdas) if self.command == "sweep" else 1
        return round(0.8 * self.train_queries) * self.epochs * runs


WORKLOADS = {
    # The paper's simulated study: sampler, MC exposure and the LP carry it.
    "tradeoff-n10": Workload(
        train_queries=100, test_queries=50, docs=10, command="sweep",
        lambdas=(0.0, 5.0, 25.0), epochs=5, samples=50, lr=0.01,
        metric="ndcg@10", disparity="group", lp_lambdas=(0.0, 1.0),
        top1_lambdas=(0.0, 10000.0)),
    # Per-ranking ERR loop, 30-stage sampler, ~435 merit pairs, MLP backprop.
    "err-mlp1-n30": Workload(
        train_queries=50, test_queries=25, docs=30, command="sweep",
        lambdas=(0.0, 100.0), epochs=4, samples=32, lr=0.01,
        metric="err", disparity="individual", model="mlp1"),
    # n <= 7: every evaluation pass enumerates all 5040 rankings per query.
    "exact-n7": Workload(
        train_queries=6, test_queries=12, docs=7, command="train",
        lambdas=(5.0,), epochs=2, samples=20, lr=0.05,
        metric="ndcg@7", disparity="group", exact_disparity=True),
}

TINY = {
    "tradeoff-n10": dataclasses.replace(
        WORKLOADS["tradeoff-n10"], train_queries=40, test_queries=10,
        lambdas=(0.0, 25.0), top1_lambdas=(0.0, 100.0), top1_epochs=2),
    # Fewer training steps would not lower delta_lambda by the checked margin.
    "err-mlp1-n30": dataclasses.replace(
        WORKLOADS["err-mlp1-n30"], test_queries=5),
    "exact-n7": dataclasses.replace(
        WORKLOADS["exact-n7"], train_queries=5, test_queries=2, epochs=1),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pg_steps_per_s": "steps/s", "test_ndcg": "fraction"}

_LAYER_QUANTITIES = {
    "policy.sample_rankings": ("calls", "self_s", "rankings"),
    "policy.logprob_grads_scores": ("calls", "self_s"),
    "policy.backprop": ("calls", "self_s"),
    "metrics.batch_rewards": ("calls", "self_s", "rankings"),
    "metrics.value": ("calls", "self_s"),
    "fairness.exposure_exact": ("calls", "self_s", "rankings_enumerated"),
    "fairness.exposure_mc": ("calls", "self_s"),
    "fairness.mc_exposure": ("calls", "self_s"),
    "fairness.from_exposures": ("calls", "self_s"),
    "trainer.disparity_score_grad": ("calls", "self_s"),
    "trainer.optimizer_step": ("calls", "self_s"),
    "trainer.evaluate": ("calls", "self_s"),
    "trainer.train": ("calls", "self_s"),
    "baselines.solve_fair_lp": ("calls", "self_s"),
    "baselines.train_top1_baseline": ("calls", "self_s"),
    "baselines.fit_linear_regression": ("calls", "self_s"),
    "data.load_dataset": ("calls", "self_s", "docs"),
    "data.save_dataset": ("calls", "self_s"),
    "cli.write": ("calls", "self_s"),
}
_QUANTITY_UNITS = {"calls": "count", "self_s": "s", "rankings": "rankings",
                   "rankings_enumerated": "rankings", "docs": "docs"}
COMMANDS = ("sweep", "train", "baseline_lp", "baseline_top1", "eval")

PER_LAYER_UNITS = {
    **{f"{layer}.{q}": _QUANTITY_UNITS[q]
       for layer, quantities in _LAYER_QUANTITIES.items() for q in quantities},
    **{f"cli.{command}.s": "s" for command in COMMANDS},
    "cli.artifact_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def import_fairltr() -> None:
    """Import fairltr from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "fairltr" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'fairltr'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fairltr
    if not Path(fairltr.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: fairltr imported from {fairltr.__file__}, not {SRC}")


def write_inputs(workload: Workload, seed: int, directory: Path) -> None:
    """Simulated train and held-out test files, made from ``seed`` alone."""
    from fairltr import data
    directory.mkdir(parents=True, exist_ok=True)
    for role, queries, offset in (("train", workload.train_queries, 1),
                                  ("test", workload.test_queries, 2)):
        dataset = data.generate_simulated(num_queries=queries,
                                          docs_per_query=workload.docs,
                                          seed=1000 * seed + offset)
        data.save_dataset(dataset, directory / f"{role}.letor",
                          directory / f"{role}.groups")


def _numbers(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def commands(w: Workload, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    train, test = str(inputs / "train.letor"), str(inputs / "test.letor")
    training = ["--train", train, "--disparity", w.disparity, "--gamma", "0",
                "--epochs", str(w.epochs), "--samples", str(w.samples),
                "--lr", repr(w.lr), "--patience", "0", "--metric", w.metric,
                "--model", w.model]
    if w.command == "sweep":
        cmds = [("sweep", ["sweep", *training, "--test", test,
                           "--lambdas", _numbers(w.lambdas), "--seeds", "0",
                           "--jobs", "1", "--out", str(out / "sweep")])]
        checkpoint = out / "sweep" / f"run-lam{max(w.lambdas):g}-seed0" / "checkpoint.txt"
    else:
        cmds = [("train", ["train", *training, "--lambda", f"{w.lambdas[0]:g}",
                           "--out", str(out / "train")])]
        checkpoint = out / "train" / "checkpoint.txt"
    if w.lp_lambdas:
        cmds.append(("baseline_lp", ["baseline", "--method", "lp", "--train", train,
                                     "--test", test, "--lambdas", _numbers(w.lp_lambdas),
                                     "--out", str(out / "lp")]))
    if w.top1_lambdas:
        cmds.append(("baseline_top1", ["baseline", "--method", "top1", "--train", train,
                                       "--test", test,
                                       "--lambdas", _numbers(w.top1_lambdas),
                                       "--epochs", str(w.top1_epochs),
                                       "--out", str(out / "top1")]))
    cmds.append(("eval", ["eval", "--checkpoint", str(checkpoint), "--data", test,
                          "--metric", w.metric, "--disparity", w.disparity,
                          "--out", str(out / "eval")]))
    return cmds


def run_round(cli, cmds) -> tuple[dict[str, float], int]:
    """Run one round; returns seconds per command and the failed count."""
    seconds, failed = {}, 0
    for label, argv in cmds:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        seconds[label] = time.perf_counter() - start
        failed += code != 0
    return seconds, failed


def measure_setup(args, directory: Path) -> float:
    """Median wall time of fresh processes that import fairltr and write the
    workload's inputs, from process start to exit."""
    times = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        shutil.rmtree(directory, ignore_errors=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                str(directory), "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            argv.append("--tiny")
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def same_bytes(a: Path, b: Path) -> bool:
    return all((a / name).read_bytes() == (b / name).read_bytes()
               for name in ("train.letor", "train.groups", "test.letor", "test.groups"))


# Files every round must reproduce byte for byte.
ROUND_ARTIFACTS = ("sweep/summary.csv", "train/record.json", "lp/summary.csv",
                   "top1/summary.csv", "eval/report.csv")


def round_artifacts(round_dir: Path) -> dict[str, bytes]:
    return {name: (round_dir / name).read_bytes()
            for name in ROUND_ARTIFACTS if (round_dir / name).exists()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs for the self-test")
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="only import fairltr and write the inputs to DIR")
    args = parser.parse_args(argv)
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]

    if args.setup_probe:
        import_fairltr()
        write_inputs(workload, args.seed, Path(args.setup_probe))
        return 0

    import_fairltr()
    from fairltr import cli
    from tracer import Tracer
    import checks

    # Paths relative to the checkout keep the written artifacts, and so the
    # byte counts, the same wherever the checkout lies.
    os.chdir(ROOT)
    work = (WORK / args.workload).relative_to(ROOT)
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    failures: list[str] = []
    tracer = Tracer()

    if args.trace:
        tracer.install()
        write_inputs(workload, args.seed, inputs)
        tracer.remove()
        setup_layers = tracer.snapshot()
    else:
        setup_s = measure_setup(args, work / "probe")
        write_inputs(workload, args.seed, inputs)
        if not same_bytes(inputs, work / "probe"):
            failures.append("inputs differ between two set-ups with the same seed")

    # A traced run alternates untraced and traced rounds, so that the
    # overhead compares rounds taken under the same machine load.
    step = 2 if args.trace else 1
    rounds, untraced, layers, attempted, failed = [], [], [], 0, 0
    first_artifacts = None
    start = time.perf_counter()
    for index in itertools.count():
        traced = bool(args.trace) and index % 2 == 1
        out = work / f"round-{index}"
        cmds = commands(workload, inputs, out)
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        seconds, round_failed = run_round(cli, cmds)
        if traced:
            tracer.remove()
            layers.append(tracer.snapshot())
        (rounds if traced or not args.trace else untraced).append(seconds)
        attempted += len(cmds)
        failed += round_failed
        if first_artifacts is None:
            first_artifacts = round_artifacts(out)
            try:
                round_failures, test_ndcg = checks.check_round(workload, inputs, out)
            except (OSError, KeyError, ValueError) as exc:
                round_failures, test_ndcg = [f"outputs unreadable: {exc!r}"], 0.0
            failures += round_failures
        else:
            if round_artifacts(out) != first_artifacts:
                failures.append(f"round {index} outputs differ from round 0")
            shutil.rmtree(out)
        typical = statistics.median(sum(r.values()) for r in rounds + untraced)
        if (index + 1) % step == 0 and \
                time.perf_counter() - start + step * typical > args.seconds:
            break

    walls = [sum(r.values()) for r in rounds]
    if not args.trace:
        training = workload.command
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pg_steps_per_s": statistics.median(workload.steps / r[training] for r in rounds),
            "test_ndcg": test_ndcg,
        }
        units = END_TO_END_UNITS
    else:
        reference_s = statistics.median(sum(r.values()) for r in untraced)
        metrics, shares = per_layer(layers, setup_layers, rounds, reference_s, failures)
        steps = metrics["trainer.optimizer_step.calls"]
        if steps != workload.steps:
            failures.append(f"{steps} optimizer steps per round, expected {workload.steps}")
        units = PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}.trace.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
            "traced_rounds": len(rounds), "untraced_rounds": len(untraced),
            "untraced_round_s": reference_s,
            "metrics": metrics, "share_of_traced_round": shares,
            "failures": failures}, indent=2, sort_keys=True) + "\n")

    print("round walls (s): " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def per_layer(layers, setup_layers, rounds, reference_s, failures):
    """Per-layer metrics: medians of self times over the traced rounds and
    counts of one traced round, which must repeat in every round; the
    set-up layer comes from the set-up.  Also returns each layer's self
    time as a share of the median traced round."""
    metrics = {}
    for layer, quantities in _LAYER_QUANTITIES.items():
        source = [setup_layers] if layer == "data.save_dataset" else layers
        for quantity in quantities:
            name = f"{layer}.{quantity}"
            values = [snapshot.get(name, 0) for snapshot in source]
            if quantity == "self_s":
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = values[0]
                if any(v != values[0] for v in values):
                    failures.append(f"{name} differs between traced rounds: {values}")
    metrics["cli.artifact_bytes"] = layers[0].get("cli.write.bytes", 0)
    for command in COMMANDS:
        metrics[f"cli.{command}.s"] = statistics.median(r.get(command, 0.0) for r in rounds)
    metrics["trace.wall_s"] = statistics.median(sum(r.values()) for r in rounds)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - reference_s
    shares = {layer: metrics[f"{layer}.self_s"] / metrics["trace.wall_s"]
              for layer in _LAYER_QUANTITIES if layer != "data.save_dataset"}
    shares["untraced code"] = 1.0 - sum(shares.values())
    return metrics, shares


if __name__ == "__main__":
    sys.exit(main())
