"""Self-tests of the benchmark: tiny smoke runs and fault injection.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import privlin as pl  # noqa: E402
import run  # noqa: E402
from checks import check_forward_epsilon, check_trials  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer, check_spans  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

# Sizes small enough for a smoke run of each workload (a few seconds each).
TINY = {
    "tradeoff_sweep": dict(n_per_class=30, n_test_per_class=10, n_classes=3, dim=5,
                           budgets=(5, 20), n_models=4, trials=2, dpsgd_steps=10),
    "train_large": dict(n_per_class=40, n_test_per_class=10, n_classes=3, dim=5,
                        n_models=4, dpsgd_steps=10, dpsgd_batch=8),
    "serve_queries": dict(n_per_class=40, n_classes=3, dim=5, budget=50, extra=5,
                          n_models=4, warmup=5, batch=20),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return WORKLOADS[name](**TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_round_passes_every_check(name, tmp_path):
    workload = tiny(name)
    out = Outcome()
    state, rounds = run.run_pass(pl, workload, 3, out, rounds=2)
    workload.finish(pl, state, out, tmp_path)
    assert rounds == 2 and len(out.work) == 2
    assert out.failures == [] and out.failed == 0 and out.attempted > 0
    assert all(work and all(s > 0 for _, _, s in work) for work in out.work)
    assert len({len(work) for work in out.work}) == 1, "every round makes the same calls"
    for value, unit, n in workload.metrics(out).values():
        assert math.isfinite(value) and value > 0 and n > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    original = pl.mechanisms.fit_predictor
    out, layers, spans, rounds = run.traced_run(pl, tiny(name), 3, 0, tmp_path)
    assert pl.mechanisms.fit_predictor is original, "patches must be restored"
    assert out.failures == [] and out.failed == 0
    assert rounds == 1 and spans
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(value) for value, _, _ in layers.values())
    assert layers["trainer.minimize_erm.calls"][0] > 0 or name == "serve_queries"
    assert layers["setup.data.synth_blob_pair.ms"][0] > 0


def test_sweep_repeats_solves_that_train_large_does_not(tmp_path):
    frac = {}
    for name in ("tradeoff_sweep", "train_large"):
        _, layers, _, _ = run.traced_run(pl, tiny(name), 3, 0, tmp_path)
        frac[name] = {key: layers[f"{key}.distinct_frac"][0]
                      for key in ("trainer.minimize_erm", "accounting.dpsgd_sigma_for_target")}
    assert frac["tradeoff_sweep"]["trainer.minimize_erm"] < 0.9
    assert frac["tradeoff_sweep"]["accounting.dpsgd_sigma_for_target"] < 1.0
    assert frac["train_large"] == {"trainer.minimize_erm": 1.0,
                                   "accounting.dpsgd_sigma_for_target": 1.0}


def _traced(body):
    tracer = Tracer(pl)
    tracer.round_id = 0
    with tracer.installed(), tracer.span("client"):
        body(tracer)
    return tracer


def test_span_checks_catch_unclosed_misnested_and_uninstrumented_work():
    def covered(tracer):
        pl.data.synth_blob_pair(5, 5, 2, 3, 3.0, pl.RngStream(0, 1))

    assert check_spans(_traced(covered)) == []

    def left_open(tracer):
        tracer.open(tracer.name_id("losses.objective"))
        tracer.current = 0  # as if the wrapper lost track of its span

    assert any("never closed" in m for m in check_spans(_traced(left_open)))

    tracer = _traced(covered)
    tracer.end[1] = tracer.end[0] + 1.0
    assert any("outside their parent" in m for m in check_spans(tracer))

    def uninstrumented(tracer):
        end = time.perf_counter() + 0.02
        while time.perf_counter() < end:
            pass

    assert any("uninstrumented" in m for m in check_spans(_traced(uninstrumented)))


class _LeakyBudget(pl.BudgetState):
    """A gate that never refuses: the predictor answers query B + 1."""

    def consume(self):
        self.used += 1


def test_answer_past_budget_is_caught():
    workload = tiny("serve_queries")
    state = workload.setup(pl, 3)
    base = state["predictors"]["pred_gauss"]
    leaky = workload.fresh(pl, state, base, 0, workload.budget)
    leaky.budget = _LeakyBudget(workload.budget)
    out = Outcome(work=[[]])
    workload.serve_one_by_one(pl, leaky, state["rows"], out, "query/leaky", lambda: None)
    assert out.failed > 0
    assert any("answered past the budget" in m for m in out.failures)


def test_honest_gate_passes():
    workload = tiny("serve_queries")
    state = workload.setup(pl, 3)
    predictor = workload.fresh(pl, state, state["predictors"]["subsample"], 0, workload.budget)
    out = Outcome(work=[[]])
    workload.serve_one_by_one(pl, predictor, state["rows"], out, "query/ok", lambda: None)
    assert out.failed == 0


def test_round_time_weighs_each_class_by_its_calls_per_round():
    def rounds(fit_s):
        return [[("fit", 0.0, fit_s * k), ("query", 0.0, 0.001), ("query", 0.0, 0.001)]
                for k in (1.0, 1.0, 5.0)]  # one stalled fit in the third round

    base = run.median_round_s(rounds(0.6), lambda start, s: s)
    assert base == pytest.approx(0.602)
    assert run.median_round_s(rounds(1.2), lambda start, s: s) == pytest.approx(1.202)


def test_normalize_scales_by_local_kernel_time_and_drops_probe_time():
    probe = SpeedProbe()
    ref = probe.reference_s
    probe.starts = [0.0, 1.0, 2.0, 10.0]
    probe.durations = [2 * ref, 2 * ref, 2 * ref, ref]
    # One sample, inside [0.9, 1.3], at twice the reference time.
    assert probe.normalize(0.9, 0.4) == pytest.approx((0.4 - 2 * ref) / 2)
    # Nothing within the window: the nearest sample sets the speed.
    assert probe.normalize(5.0, 0.1) == pytest.approx(0.1 / 2)
    assert probe.normalize(10.5, 0.1) == pytest.approx(0.1)


@pytest.mark.parametrize("kernel", ["mixed", "query"])
def test_probe_samples_while_installed(kernel):
    with SpeedProbe(kernel) as probe:
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
    assert len(probe.durations) >= 3
    assert all(d > 0 for d in probe.durations)


def _record(**overrides):
    fields = dict(mechanism="model_sensitivity", epsilon=1.0, delta=0.0, budget=10,
                  n_train=100, dim=5, classes=3, lam=0.01, n_models=4, trial=0, seed=1,
                  accuracy=0.5, wall_time_s=0.01)
    fields.update(overrides)
    return pl.TrialRecord(**fields)


def test_nan_trial_accuracy_is_caught():
    assert check_trials([_record()]) == []
    assert check_trials([_record(accuracy=float("nan"))])
    assert check_trials([_record(error="ValueError: boom", accuracy=float("nan"))])
    assert check_trials([_record(mechanism="nonprivate", accuracy=0.5)])


def test_sigma_over_target_is_caught():
    cfg = pl.DpSgdConfig.for_dataset(1000, 100, 100, 0.1)
    privacy = pl.PrivacySpec(epsilon=1.0, delta=1e-5)
    assert check_forward_epsilon(pl, 50.0, cfg, privacy) == []
    assert check_forward_epsilon(pl, 0.3, cfg, privacy)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_command_prints_contract_json(name, trace, monkeypatch, capsys):
    workload_cls = WORKLOADS[name]
    monkeypatch.setitem(WORKLOADS, name, lambda: workload_cls(**TINY[name]))
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and math.isfinite(value["value"])
        assert trace == 1 or value["value"] > 0


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "train_large",
         "--seed", "5", "--seconds", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_generated_inputs_depend_only_on_seed():
    a = tiny("serve_queries").setup(pl, 11)["rows"]
    b = tiny("serve_queries").setup(pl, 11)["rows"]
    c = tiny("serve_queries").setup(pl, 12)["rows"]
    assert np.array_equal(a, b) and not np.array_equal(a, c)
