"""In-memory span tracer that wraps privlin's public functions from outside.

Each traced function is replaced, for the duration of a ``Tracer.installed()``
block, at every module attribute its callers look it up through (for example
``privlin.mechanisms.minimize_erm``, which is how the mechanisms reach the
solver). A call opens a span that records its name, start, end, parent span,
operation id (one id per sweep trial, fit or query) and round (-1 while the
workload is set up). Spans live in flat arrays while the workload runs and
are written out once it ends.

Layer names are the privlin module names; ``client`` is the benchmark's own
code, i.e. the root span's self time.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("accounting", "trainer", "losses", "mechanisms", "noise", "data", "bench")

# Span name -> (module, attribute) pairs the name is patched at. The two
# methods, PrivatePredictor.predict and BudgetState.consume, are patched on
# their classes in Tracer.installed.
PATCH_TABLE = (
    ("accounting.dpsgd_sigma_for_target", (("mechanisms", "dpsgd_sigma_for_target"),)),
    ("accounting.rdp_subsampled_gaussian", (("accounting", "rdp_subsampled_gaussian"),)),
    ("accounting.gaussian_prediction_sigma", (("mechanisms", "gaussian_prediction_sigma"),)),
    ("accounting.calibrate_gaussian_sigma", (("accounting", "calibrate_gaussian_sigma"),)),
    ("accounting.gaussian_model_sigma", (("mechanisms", "gaussian_model_sigma"),)),
    ("accounting.gaussian_loss_sigma", (("mechanisms", "gaussian_loss_sigma"),)),
    ("accounting.loss_perturbation_params", (("mechanisms", "loss_perturbation_params"),)),
    ("accounting.loss_perturbation_rho", (("mechanisms", "loss_perturbation_rho"),)),
    ("accounting.model_sensitivity_beta", (("mechanisms", "model_sensitivity_beta"),)),
    ("accounting.prediction_sensitivity_beta", (("mechanisms", "prediction_sensitivity_beta"),)),
    ("accounting.subsample_beta", (("mechanisms", "subsample_beta"),)),
    ("trainer.minimize_erm", (("mechanisms", "minimize_erm"),)),
    ("trainer.predict_logits", (("mechanisms", "predict_logits"),)),
    ("losses.objective", (("trainer", "erm_objective"), ("trainer", "perturbed_objective"))),
    ("losses.mc_logistic_hessian", (("trainer", "mc_logistic_hessian"),)),
    ("mechanisms.fit_predictor", (("bench", "fit_predictor"), ("mechanisms", "fit_predictor"))),
    ("mechanisms.answer_queries", (("bench", "answer_queries"), ("mechanisms", "answer_queries"))),
    ("mechanisms.ensemble_vote_counts", (("mechanisms", "ensemble_vote_counts"),)),
    ("mechanisms.vote_distribution", (("mechanisms", "vote_distribution"),)),
    ("noise.sample_gaussian", (("mechanisms", "sample_gaussian"),)),
    ("noise.sample_radial_exponential", (("mechanisms", "sample_radial_exponential"),)),
    ("data.synth_blob_pair", (("bench", "synth_blob_pair"), ("data", "synth_blob_pair"))),
    ("data.preprocess_pair", (("bench", "preprocess_pair"), ("data", "preprocess_pair"))),
    ("bench.run_sweep", (("bench", "run_sweep"),)),
)

def _array_digest(a) -> bytes:
    a = np.ascontiguousarray(a)
    return hashlib.sha1(memoryview(a).cast("B")).digest() + repr(a.shape).encode()


def minimize_erm_key(data, cfg):
    """Value identity of one minimize_erm call: data bytes plus every cfg field."""
    noise = None if cfg.noise_b is None else _array_digest(cfg.noise_b)
    return (_array_digest(data.features), _array_digest(data.labels), cfg.lam,
            cfg.max_iterations, cfg.grad_tolerance, noise, cfg.rho)


class Tracer:
    """Span store plus the patches that feed it. Single-threaded by design."""

    def __init__(self, privlin):
        self.privlin = privlin
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.round = array("i")
        self.current = -1
        self.op_id = 0
        self.round_id = -1  # set by the caller; -1 marks set-up
        # name -> [(round, argument key)] per call, for distinct_frac
        self.arg_keys: dict[str, list] = {"accounting.dpsgd_sigma_for_target": [],
                                          "trainer.minimize_erm": []}
        self.refused: dict[int, int] = {}  # round -> BudgetExhaustedError count

    # -- span store -------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.round.append(self.round_id)
        self.end.append(0.0)
        self.current = index
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int):
        self.end[index] = time.perf_counter()
        self.current = self.parent[index]

    def new_op(self):
        """Start a new operation id (a trial, a fit, a query or a batch)."""
        self.op_id += 1

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name: str, fn, key_of=None):
        name_id = self.name_id(name)
        keys = self.arg_keys.get(name) if key_of is not None else None

        def traced(*args, **kwargs):
            if keys is not None:
                keys.append((self.round_id, key_of(*args, **kwargs)))
            index = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _wrap_kind(self, name: str, fn, kind_of):
        """Span named name[kind]; fit_predictor under run_sweep starts a trial."""
        sweep_id = self.name_id("bench.run_sweep")
        ids: dict[str, int] = {}

        def traced(*args, **kwargs):
            kind = kind_of(*args, **kwargs)
            name_id = ids.get(kind)
            if name_id is None:
                name_id = ids[kind] = self.name_id(f"{name}[{kind}]")
            if self.current >= 0 and self.name[self.current] == sweep_id:
                self.new_op()
            index = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _wrap_consume(self, fn):
        name_id = self.name_id("accounting.BudgetState.consume")
        exhausted = self.privlin.BudgetExhaustedError

        def traced(budget_state):
            index = self.open(name_id)
            try:
                return fn(budget_state)
            except exhausted:
                self.refused[self.round_id] = self.refused.get(self.round_id, 0) + 1
                raise
            finally:
                self.close(index)

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name; restore the originals on exit."""
        pl = self.privlin
        modules = {"accounting": pl.accounting, "bench": pl.bench, "data": pl.data,
                   "mechanisms": pl.mechanisms, "trainer": pl.trainer}
        key_of = {"accounting.dpsgd_sigma_for_target": lambda spec, cfg: (spec, cfg),
                  "trainer.minimize_erm": minimize_erm_key}
        saved = []
        try:
            for name, targets in PATCH_TABLE:
                for module_name, attr in targets:
                    module = modules[module_name]
                    original = getattr(module, attr)
                    if name == "mechanisms.fit_predictor":
                        wrapper = self._wrap_kind(
                            name, original, lambda data, spec, *a, **k: spec.kind)
                    else:
                        wrapper = self._wrap(name, original, key_of.get(name))
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
            predictor_cls = pl.mechanisms.PrivatePredictor
            budget_cls = pl.accounting.BudgetState
            saved.append((predictor_cls, "predict", predictor_cls.predict))
            predictor_cls.predict = self._wrap_kind(
                "mechanisms.predict", predictor_cls.predict, lambda p, x: p.kind)
            saved.append((budget_cls, "consume", budget_cls.consume))
            budget_cls.consume = self._wrap_consume(budget_cls.consume)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "round": np.frombuffer(self.round, dtype=np.int32).copy(),
        }

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict) -> np.ndarray:
    """Span duration minus the time its direct children cover."""
    duration = spans["end"] - spans["start"]
    child = np.zeros_like(duration)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], duration[has_parent])
    return duration - child


def summarize(tracer: Tracer, in_rounds: bool) -> dict:
    """Per-name calls, inclusive seconds and self seconds, plus layer self seconds,
    over the timed rounds (in_rounds) or over the set-up."""
    spans = tracer.arrays()
    duration = spans["end"] - spans["start"]
    own = self_times(spans)
    phase = (spans["round"] >= 0) == in_rounds
    per_name = {}
    for name_id, name in enumerate(tracer.names):
        mask = (spans["name"] == name_id) & phase
        per_name[name] = {"calls": int(mask.sum()),
                          "total_s": float(duration[mask].sum()),
                          "self_s": float(own[mask].sum())}
    layers = {layer: 0.0 for layer in (*LAYERS, "client")}
    for name, stats in per_name.items():
        layers[name.split(".", 1)[0]] += stats["self_s"]
    return {"names": per_name, "layers": layers}


# Uninstrumented code (the root span's self time) may take at most this share
# of the traced rounds; more means privlin work escaped the patches. The
# benchmark's own loop and checks take about 5 % on serve_queries and about
# 16 % at the self-tests' tiny sizes.
CLIENT_SHARE_LIMIT = 0.25


def check_spans(tracer: Tracer) -> list[str]:
    """Every span closed inside its parent, and the patches cover the rounds."""
    spans = tracer.arrays()
    failures = []
    open_spans = int(np.sum(spans["end"] < spans["start"]))
    if open_spans:
        failures.append(f"{open_spans} spans never closed")
    parent = spans["parent"]
    inner = parent >= 0
    outside = np.sum((spans["start"][inner] < spans["start"][parent[inner]])
                     | (spans["end"][inner] > spans["end"][parent[inner]]))
    if outside:
        failures.append(f"{int(outside)} spans end outside their parent")
    summary = summarize(tracer, in_rounds=True)
    total = sum(summary["layers"].values())
    if total > 0 and summary["layers"]["client"] > CLIENT_SHARE_LIMIT * total:
        failures.append(f"uninstrumented code took {summary['layers']['client'] / total:.1%} "
                        f"of the traced rounds, over {CLIENT_SHARE_LIMIT:.0%}")
    return failures


# Per-round metrics: function -> the statistics reported for it. "calls",
# "ms" (inclusive, per round) and "us" (inclusive, per call).
FUNCTIONS = {
    "accounting.dpsgd_sigma_for_target": ("calls", "ms"),
    "accounting.rdp_subsampled_gaussian": ("calls",),
    "accounting.gaussian_prediction_sigma": ("calls", "ms"),
    "accounting.calibrate_gaussian_sigma": ("calls", "ms"),
    "accounting.BudgetState.consume": ("calls", "us"),
    "trainer.minimize_erm": ("calls", "ms"),
    "losses.objective": ("calls", "ms"),
    "mechanisms.ensemble_vote_counts": ("calls", "us"),
    "mechanisms.vote_distribution": ("us",),
    "mechanisms.answer_queries": ("ms",),
    "noise.sample_gaussian": ("calls", "us"),
    "noise.sample_radial_exponential": ("calls", "us"),
    "data.synth_blob_pair": ("ms",),
    "data.preprocess_pair": ("ms",),
    "bench.run_sweep": ("ms",),
}
SETUP_FUNCTIONS = ("data.synth_blob_pair", "data.preprocess_pair",
                   "accounting.gaussian_prediction_sigma")
FIT_KINDS = ("nonprivate", "model_sensitivity", "loss_perturbation", "dpsgd",
             "prediction_sensitivity", "subsample_aggregate")
PREDICT_KINDS = ("prediction_sensitivity", "subsample_aggregate")
EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def _distinct_frac(keys: list) -> float:
    """Mean over the timed rounds of distinct argument sets over calls in that
    round; 1.0 (nothing repeated) without calls."""
    by_round: dict[int, list] = {}
    for r, key in keys:
        if r >= 0:
            by_round.setdefault(r, []).append(key)
    if not by_round:
        return 1.0
    return float(np.mean([len(set(k)) / len(k) for k in by_round.values()]))


def per_layer_metrics(tracer: Tracer, rounds: int, traced_s: float,
                      untraced_s: float) -> dict:
    """name -> (value, unit, samples) for every per-layer metric.

    Counts and times are per timed round (traced_s and untraced_s are the
    totals over `rounds` rounds each); names starting with ``setup.`` cover
    the one traced set-up.
    """
    summary = summarize(tracer, in_rounds=True)
    names = summary["names"]
    metrics = {}
    for layer, seconds in summary["layers"].items():
        metrics[f"{layer}.self_ms"] = (seconds * 1e3 / rounds, "ms", rounds)
    for name, stats in FUNCTIONS.items():
        s = names.get(name, EMPTY)
        calls = s["calls"]
        if "calls" in stats:
            metrics[f"{name}.calls"] = (calls / rounds, "count", rounds)
        if "ms" in stats:
            metrics[f"{name}.ms"] = (s["total_s"] * 1e3 / rounds, "ms", rounds)
        if "us" in stats:
            metrics[f"{name}.us"] = (s["total_s"] * 1e6 / calls if calls else 0.0, "us", calls)
    for kind in FIT_KINDS:  # the DP-SGD loop; partition and stack for the ensemble
        s = names.get(f"mechanisms.fit_predictor[{kind}]", EMPTY)
        metrics[f"mechanisms.fit_predictor.self_ms.{kind}"] = (s["self_s"] * 1e3 / rounds,
                                                               "ms", s["calls"])
    for kind in PREDICT_KINDS:
        s = names.get(f"mechanisms.predict[{kind}]", EMPTY)
        metrics[f"mechanisms.predict.self_us.{kind}"] = (
            s["self_s"] * 1e6 / s["calls"] if s["calls"] else 0.0, "us", s["calls"])
    for name, kinds in (("mechanisms.fit_predictor", FIT_KINDS),
                        ("mechanisms.predict", PREDICT_KINDS)):
        calls = sum(names.get(f"{name}[{kind}]", EMPTY)["calls"] for kind in kinds)
        metrics[f"{name}.calls"] = (calls / rounds, "count", rounds)
    for name, keys in tracer.arg_keys.items():
        metrics[f"{name}.distinct_frac"] = (_distinct_frac(keys), "ratio",
                                            sum(1 for r, _ in keys if r >= 0))
    refused = sum(n for r, n in tracer.refused.items() if r >= 0)
    metrics["accounting.BudgetState.consume.refused"] = (refused / rounds, "count", rounds)
    hessian = names.get("losses.mc_logistic_hessian", EMPTY)
    metrics["trainer.newton_steps"] = (hessian["calls"] / rounds, "count", rounds)

    setup = summarize(tracer, in_rounds=False)
    metrics["setup.ms"] = (sum(setup["layers"].values()) * 1e3, "ms", 1)
    for layer, seconds in setup["layers"].items():
        metrics[f"setup.{layer}.self_ms"] = (seconds * 1e3, "ms", 1)
    for name in SETUP_FUNCTIONS:
        s = setup["names"].get(name, EMPTY)
        metrics[f"setup.{name}.ms"] = (s["total_s"] * 1e3, "ms", s["calls"])
    metrics["traced_round_ms"] = (traced_s * 1e3 / rounds, "ms", rounds)
    metrics["untraced_round_ms"] = (untraced_s * 1e3 / rounds, "ms", rounds)
    metrics["tracing_overhead_ms"] = ((traced_s - untraced_s) * 1e3 / rounds, "ms", rounds)
    return metrics


def span_table(tracer: Tracer, rounds: int) -> list[tuple]:
    """(name, calls, total ms, self ms, us per call) per round for every traced name."""
    rows = []
    for name, stats in sorted(summarize(tracer, in_rounds=True)["names"].items()):
        calls = stats["calls"]
        if calls:
            rows.append((name, calls / rounds, stats["total_s"] * 1e3 / rounds,
                         stats["self_s"] * 1e3 / rounds, stats["total_s"] * 1e6 / calls))
    return rows
