"""Per-layer tracing of fairltr, installed from outside the program.

``Tracer.install`` replaces the public functions and methods of each layer
with timing wrappers, including the names other modules import directly
(``trainer`` holds its own references to ``exposure_of_policy`` and
``mc_exposure``), and ``Tracer.remove`` puts the originals back.
``trainer``'s own ``draw_policy_sample`` needs no wrapper: it reaches the
sampler and the log-probability gradients through ``policy``'s globals.  Each
wrapper keeps a call count, a self time (its duration minus the time of
wrapped calls nested in it) and optional work counts.

The ``ranking`` module is not wrapped: ``as_ranking`` runs once per ranking
inside the ERR and exact-enumeration loops, and wrapping it would swamp the
trace.  Its cost shows in the self time of ``metrics.value`` and
``fairness.exposure_exact``.
"""
from __future__ import annotations

import functools
import math
import os
from collections import Counter, defaultdict
from time import perf_counter


def _rows(args, result):
    return {"rankings": len(result)}


def _docs(args, result):
    return {"docs": result.num_docs}


def _enumerated(args, result):
    if result.mode == "exact":
        return {"rankings_enumerated": math.factorial(len(result.values))}
    return {}


def _bytes_at(index):
    def count(args, result):
        return {"bytes": os.path.getsize(args[index])}
    return count


def _exposure_layer(result):
    return f"fairness.exposure_{result.mode}"


class Tracer:
    """Span bookkeeping for the wrapped layers of one process."""

    def __init__(self):
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def snapshot(self) -> dict[str, float]:
        """Flat ``<layer>.calls``, ``<layer>.self_s`` and ``<layer>.<count>``."""
        out: dict[str, float] = {}
        for layer, calls in self.calls.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counts)
        return out

    def _wrap(self, fn, layer, count):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
            name = layer if isinstance(layer, str) else layer(result)
            self.calls[name] += 1
            self.self_s[name] += elapsed - nested
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def patch(self, owner, attr: str, layer, count=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(original, layer, count))
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced layer of the imported ``fairltr`` package."""
        from fairltr import baselines, cli, data, fairness, metrics, policy, trainer

        self.patch(policy, "sample_rankings", "policy.sample_rankings", _rows)
        self.patch(policy, "logprob_grads_scores", "policy.logprob_grads_scores")
        for model in (policy.LinearModel, policy.MLP1Model):
            self.patch(model, "backprop", "policy.backprop")
        self.patch(metrics.UtilityMetric, "batch_rewards", "metrics.batch_rewards",
                   lambda args, result: {"rankings": len(args[1])})
        self.patch(metrics.UtilityMetric, "value", "metrics.value")
        for module in (fairness, trainer):
            self.patch(module, "exposure_of_policy", _exposure_layer, _enumerated)
            self.patch(module, "mc_exposure", "fairness.mc_exposure")
        self.patch(fairness.DisparityConfig, "from_exposures",
                   "fairness.from_exposures")
        self.patch(trainer, "disparity_score_grad", "trainer.disparity_score_grad")
        for optimizer in (trainer.Adam, trainer.SGD):
            self.patch(optimizer, "step", "trainer.optimizer_step")
        # Per-epoch passes call the private _evaluate; the public evaluate
        # only delegates to it, so wrapping _evaluate counts both once.
        self.patch(trainer, "_evaluate", "trainer.evaluate")
        self.patch(trainer, "train", "trainer.train")
        for name in ("solve_fair_lp", "train_top1_baseline", "fit_linear_regression"):
            self.patch(baselines, name, f"baselines.{name}")
        self.patch(data, "load_dataset", "data.load_dataset", _docs)
        self.patch(data, "save_dataset", "data.save_dataset")
        for name in ("write_csv", "write_json", "write_kv"):
            self.patch(cli, name, "cli.write", _bytes_at(0))
        self.patch(policy, "save_model", "cli.write", _bytes_at(1))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
