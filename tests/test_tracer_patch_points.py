"""The benchmark tracer's patch points exist and are restored on removal.

``bench/tracer.py`` wraps functions and methods of ``fairltr`` by name.  A
rename in the package breaks only traced benchmark runs, so this test
installs the tracer, checks the wrappers are in place, removes it, and
checks every attribute is its original object again.  It runs no benchmark
and writes no files.
"""
import importlib.util
from pathlib import Path

from fairltr import fairness, metrics, policy, trainer

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("fairltr_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_remove_restore_every_patch_point():
    tracer = load_tracer_module().Tracer()
    named = [(trainer, "disparity_score_grad"), (trainer, "mc_exposure"),
             (trainer, "exposure_of_policy"), (trainer, "_evaluate"),
             (fairness.DisparityConfig, "from_exposures"),
             (fairness, "mc_exposure"), (metrics.UtilityMetric, "value"),
             (metrics.UtilityMetric, "batch_rewards"),
             (policy, "logprob_grads_scores")]
    before = {(owner, attr): getattr(owner, attr) for owner, attr in named}
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert len(patched) > len(named)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
        assert {(owner, attr) for owner, attr, _ in patched} >= set(before)
    finally:
        tracer.remove()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original
