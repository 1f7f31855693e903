"""The three workloads. Each has a set-up, a timed round and post-run checks.

All privlin calls go through module attributes looked up at call time
(``pl.mechanisms.fit_predictor``), so the tracer's patches see them. Inputs
come only from the seed; the program gets generated data and nothing else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from checks import (
    check_budget_gate,
    check_forward_epsilon,
    check_gradient,
    check_labels,
    check_logits,
    check_trials,
)

LAM = 0.01
GRAD_TOLERANCE = 1e-6  # the SweepConfig default, used by every workload
SEPARATION = 3.0


@dataclass
class Outcome:
    """What one pass of a workload did: counts, timings and failures."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    work: list = field(default_factory=list)  # per round: (class, start, seconds) per call
    samples: dict = field(default_factory=dict)  # class -> seconds per operation
    info: dict = field(default_factory=dict)

    def timed(self, cls: str, start: float, seconds: float):
        """Record one privlin call of the current round. Every round makes the
        same calls, so a class's count per round is fixed."""
        self.work[-1].append((cls, start, seconds))

    def sample(self, cls: str, seconds: float):
        self.samples.setdefault(cls, []).append(seconds)

    def fail(self, messages):
        self.failed += len(messages)
        self.failures.extend(messages[: max(0, 20 - len(self.failures))])


def _class_blocks(n_classes: int, per_class: int, keep: int) -> np.ndarray:
    """Row indices of the first `keep` rows of each class block."""
    offsets = np.arange(n_classes) * per_class
    return (offsets[:, None] + np.arange(keep)).ravel()


def _median_ms(values) -> float:
    return float(np.median(values)) * 1e3


# ---------------------------------------------------------------------------
# tradeoff_sweep
# ---------------------------------------------------------------------------

PURE_KINDS = ("nonprivate", "model_sensitivity", "loss_perturbation",
              "prediction_sensitivity", "subsample_aggregate")
APPROX_KINDS = ("nonprivate", "model_sensitivity", "loss_perturbation", "dpsgd",
                "prediction_sensitivity", "subsample_aggregate")


class TradeoffSweep:
    """run_sweep over all six kinds at eps = 1, two delta regimes, B in {10, 1000}."""

    name = "tradeoff_sweep"
    speed_kernel = "mixed"

    def __init__(self, n_per_class=500, n_test_per_class=200, n_classes=10, dim=30,
                 budgets=(10, 1000), n_models=64, trials=3, dpsgd_steps=200):
        self.synth = dict(n_per_class=n_per_class, n_classes=n_classes, dim=dim,
                          separation=SEPARATION, n_test_per_class=n_test_per_class)
        self.common = dict(epsilons=(1.0,), budgets=tuple(budgets), n_models=(n_models,),
                           trials=trials, synth=self.synth, dpsgd_steps=dpsgd_steps,
                           grad_tolerance=GRAD_TOLERANCE, lambdas=(LAM,))

    def setup(self, pl, seed: int):
        configs = (
            pl.SweepConfig(mechanisms=PURE_KINDS, deltas=(0.0,), base_seed=seed, **self.common),
            pl.SweepConfig(mechanisms=APPROX_KINDS, deltas=(1e-5,), base_seed=seed,
                           **self.common),
        )
        # The split every round-0 trial trains on, rebuilt for the reference checks.
        s = self.synth
        raw_train, raw_test = pl.data.synth_blob_pair(
            s["n_per_class"], s["n_test_per_class"], s["n_classes"], s["dim"],
            s["separation"], pl.RngStream(seed, 1))
        train, test, _, _ = pl.data.preprocess_pair(raw_train, raw_test, None)
        return {"configs": configs, "seed": seed, "train": train, "test": test}

    def run_round(self, pl, state, r: int, out: Outcome, new_op):
        records = []
        for cfg in state["configs"]:
            new_op()
            start = time.perf_counter()
            batch = pl.bench.run_sweep(
                dataclasses.replace(cfg, base_seed=state["seed"] + r), threads=1)
            out.timed(f"run_sweep/delta={cfg.deltas[0]:g}", start, time.perf_counter() - start)
            for rec in batch:
                if rec.error is None:
                    out.sample(f"trial/{rec.mechanism}", rec.wall_time_s)
            records += batch
        out.attempted += len(records)
        out.fail(check_trials(records))
        if r == 0:
            state["round0"] = records

    def finish(self, pl, state, out: Outcome, out_dir):
        approx = state["configs"][1]
        train, test = state["train"], state["test"]
        privacy = pl.PrivacySpec(epsilon=approx.epsilons[0], delta=approx.deltas[0],
                                 budget=approx.budgets[0])
        cfg = pl.DpSgdConfig.for_dataset(train.n_examples, approx.dpsgd_batch,
                                         approx.dpsgd_steps, approx.clips[0],
                                         approx.dpsgd_learning_rate)
        sigma = pl.dpsgd_sigma_for_target(privacy, cfg)
        out.fail(check_forward_epsilon(pl, sigma, cfg, privacy))
        spec = pl.MechanismSpec(kind="nonprivate", privacy=privacy, lam=LAM,
                                grad_tolerance=approx.grad_tolerance)
        reference = pl.fit_predictor(train, spec, 0)
        out.fail(check_gradient(pl, reference.theta, train, LAM, approx.grad_tolerance))
        accuracy = float(np.mean(pl.answer_queries(reference, test.features)
                                 == test.label_ints()))
        records = state.get("round0", [])
        for rec in records:
            if rec.mechanism == "nonprivate" and rec.accuracy != accuracy:
                out.fail([f"sweep nonprivate accuracy {rec.accuracy} differs from "
                          f"the reference fit's {accuracy}"])
        out.info["nonprivate_accuracy"] = accuracy
        out.info["dpsgd_sigma"] = sigma
        if records:
            out.info["trial_csv_digest"] = _csv_digest(pl, records, out_dir)

    def metrics(self, out: Outcome) -> dict:
        rounds = [sum(seconds for _, _, seconds in work) for work in out.work]
        trials_per_round = out.attempted / len(rounds)
        result = {"trials_per_s": (float(np.median([trials_per_round / t for t in rounds])),
                                   "1/s", len(rounds))}
        for cls, values in out.samples.items():
            result[f"bench.trial_ms_p50.{cls.split('/')[1]}"] = (_median_ms(values), "ms",
                                                                 len(values))
        return result


def _csv_digest(pl, records, out_dir) -> str:
    """sha256 of the emit_csv output with the wall_time_s column dropped."""
    path = out_dir / "trials.csv"
    pl.emit_csv(records, path)
    lines = path.read_text().splitlines()
    path.unlink()
    stripped = "\n".join(line.rsplit(",", 1)[0] for line in lines)
    return hashlib.sha256(stripped.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# train_large
# ---------------------------------------------------------------------------

FIT_KINDS = ("nonprivate", "loss_perturbation", "subsample_aggregate", "dpsgd")


class TrainLarge:
    """One fit_predictor per kind per round on N ~ 10k, D = 50, C = 10.

    Round r drops r rows per class, so every solve and every DP-SGD
    calibration in a run has distinct inputs.
    """

    name = "train_large"
    speed_kernel = "mixed"

    def __init__(self, n_per_class=1000, n_test_per_class=100, n_classes=10, dim=50,
                 n_models=256, dpsgd_steps=2000, dpsgd_batch=64, clip=0.1):
        self.n_per_class = n_per_class
        self.n_test_per_class = n_test_per_class
        self.n_classes = n_classes
        self.dim = dim
        self.n_models = n_models
        self.dpsgd_steps = dpsgd_steps
        self.dpsgd_batch = dpsgd_batch
        self.clip = clip

    def setup(self, pl, seed: int):
        raw_train, raw_test = pl.data.synth_blob_pair(
            self.n_per_class, self.n_test_per_class, self.n_classes, self.dim,
            SEPARATION, pl.RngStream(seed, 1))
        train, test, _, _ = pl.data.preprocess_pair(raw_train, raw_test, None)
        return {"seed": seed, "train": train, "test": test}

    def spec(self, pl, kind: str, n_train: int):
        if kind == "nonprivate":
            privacy = pl.PrivacySpec(epsilon=1.0)
        else:
            privacy = pl.PrivacySpec(epsilon=1.0, delta=1e-5)
        dpsgd = None
        if kind == "dpsgd":
            dpsgd = pl.DpSgdConfig.for_dataset(n_train, self.dpsgd_batch, self.dpsgd_steps,
                                               self.clip)
        return pl.MechanismSpec(kind=kind, privacy=privacy, lam=LAM, n_models=self.n_models,
                                dpsgd=dpsgd, grad_tolerance=GRAD_TOLERANCE)

    def round_data(self, pl, state, r: int):
        keep = self.n_per_class - r % max(1, self.n_per_class // 10)
        train = state["train"]
        index = _class_blocks(self.n_classes, self.n_per_class, keep)
        return pl.LabeledDataset(features=train.features[index], labels=train.labels[index])

    def run_round(self, pl, state, r: int, out: Outcome, new_op):
        data = self.round_data(pl, state, r)
        test = state["test"].features
        for k, kind in enumerate(FIT_KINDS):
            spec = self.spec(pl, kind, data.n_examples)
            rng = pl.RngStream(state["seed"], 1000 + len(FIT_KINDS) * r + k)
            new_op()
            out.attempted += 1
            start = time.perf_counter()
            try:
                predictor = pl.mechanisms.fit_predictor(data, spec, rng)
            except Exception as exc:  # noqa: BLE001 - a raised fit is a counted failure
                out.timed(kind, start, time.perf_counter() - start)
                out.fail([f"{kind} fit raised {type(exc).__name__}: {exc}"])
                continue
            elapsed = time.perf_counter() - start
            out.timed(kind, start, elapsed)
            out.sample(kind, elapsed)
            params = predictor.theta if predictor.ensemble is None else predictor.ensemble
            logits = test @ params
            out.fail(check_logits(logits, f"{kind} round {r}"))
            if kind == "nonprivate":
                out.fail(check_gradient(pl, predictor.theta, data, LAM, GRAD_TOLERANCE))

    def finish(self, pl, state, out: Outcome, out_dir):
        spec = self.spec(pl, "dpsgd", self.round_data(pl, state, 0).n_examples)
        sigma = pl.dpsgd_sigma_for_target(spec.privacy, spec.dpsgd)
        out.fail(check_forward_epsilon(pl, sigma, spec.dpsgd, spec.privacy))
        out.info["dpsgd_sigma"] = sigma

    def metrics(self, out: Outcome) -> dict:
        return {f"fit_ms.{kind}": (_median_ms(out.samples[kind]), "ms",
                                   len(out.samples[kind]))
                for kind in FIT_KINDS if kind in out.samples}


# ---------------------------------------------------------------------------
# serve_queries
# ---------------------------------------------------------------------------

class ServeQueries:
    """Budget-gated serving: B single queries per predictor, then refusals, then a batch."""

    name = "serve_queries"
    speed_kernel = "query"
    BATCHED = ("pred_gauss", "subsample")

    def __init__(self, n_per_class=1000, n_classes=10, dim=50, budget=10_000, extra=100,
                 n_models=256, warmup=200, batch=500):
        self.n_per_class = n_per_class
        self.n_classes = n_classes
        self.dim = dim
        self.budget = budget
        self.extra = extra
        self.n_models = n_models
        self.warmup = warmup
        self.batch = batch

    def specs(self, pl):
        b = self.budget
        return {
            "pred_gauss": pl.MechanismSpec(
                kind="prediction_sensitivity", lam=LAM, grad_tolerance=GRAD_TOLERANCE,
                privacy=pl.PrivacySpec(epsilon=1.0, delta=1e-5, budget=b)),
            "pred_radial": pl.MechanismSpec(
                kind="prediction_sensitivity", lam=LAM, grad_tolerance=GRAD_TOLERANCE,
                privacy=pl.PrivacySpec(epsilon=1.0, delta=0.0, budget=b)),
            "subsample": pl.MechanismSpec(
                kind="subsample_aggregate", lam=LAM, grad_tolerance=GRAD_TOLERANCE,
                n_models=self.n_models,
                privacy=pl.PrivacySpec(epsilon=1.0, delta=1e-5, budget=b)),
        }

    def setup(self, pl, seed: int):
        n_test_per_class = -(-(self.budget + self.extra) // self.n_classes)
        raw_train, raw_test = pl.data.synth_blob_pair(
            self.n_per_class, n_test_per_class, self.n_classes, self.dim, SEPARATION,
            pl.RngStream(seed, 1))
        train, test, _, _ = pl.data.preprocess_pair(raw_train, raw_test, None)
        rows = test.features[pl.RngStream(seed, 2).generator().permutation(test.n_examples)]
        predictors = {name: pl.mechanisms.fit_predictor(train, spec, pl.RngStream(seed, 10 + k))
                      for k, (name, spec) in enumerate(self.specs(pl).items())}
        state = {"seed": seed, "rows": rows, "predictors": predictors}
        for name, base in predictors.items():
            warm = self.fresh(pl, state, base, 0, self.warmup)
            for x in rows[: self.warmup]:
                warm.predict(x)
            pl.mechanisms.answer_queries(self.fresh(pl, state, base, 1, self.warmup),
                                         rows[: self.warmup])
        return state

    def fresh(self, pl, state, base, stream: int, budget: int):
        """A copy of a fitted predictor with a new budget and noise stream."""
        rng = pl.RngStream(state["seed"], 100_000 + stream).generator()
        return dataclasses.replace(base, budget=pl.BudgetState(budget), rng=rng)

    def serve_one_by_one(self, pl, predictor, rows, out: Outcome, cls: str, new_op):
        """Send B + extra rows through predict; time answers, count refusals."""
        answered = refused = 0
        n_classes = self.n_classes
        for i, x in enumerate(rows[: self.budget + self.extra]):
            new_op()
            out.attempted += 1
            start = time.perf_counter()
            try:
                answer = predictor.predict(x)
            except pl.BudgetExhaustedError:
                out.timed(f"refused/{cls}", start, time.perf_counter() - start)
                refused += 1
                if i < self.budget:
                    out.fail([f"{cls}: query {i} refused before the budget was spent"])
                continue
            elapsed = time.perf_counter() - start
            out.timed(cls, start, elapsed)
            answered += 1
            if i >= self.budget:
                out.fail([f"{cls}: query {i} answered past the budget of {self.budget}"])
                continue
            out.sample(cls, elapsed)
            if predictor.kind == "subsample_aggregate":
                if not 0 <= answer < n_classes:
                    out.fail([f"{cls}: label {answer} out of range"])
            elif np.shape(answer) != (n_classes,) or not np.all(np.isfinite(answer)):
                out.fail([f"{cls}: query {i} logits malformed"])
        out.fail(check_budget_gate(answered, refused, self.budget, self.extra,
                                   predictor.remaining_budget, cls))

    def run_round(self, pl, state, r: int, out: Outcome, new_op):
        rows = state["rows"]
        for k, (name, base) in enumerate(state["predictors"].items()):
            predictor = self.fresh(pl, state, base, 10 * r + k + 2, self.budget)
            self.serve_one_by_one(pl, predictor, rows, out, f"query/{name}", new_op)
        for k, name in enumerate(self.BATCHED):
            predictor = self.fresh(pl, state, state["predictors"][name], 10 * r + k + 7,
                                   self.budget)
            for first in range(0, self.budget, self.batch):
                chunk = rows[first: min(first + self.batch, self.budget)]
                new_op()
                out.attempted += len(chunk)
                start = time.perf_counter()
                try:
                    labels = pl.mechanisms.answer_queries(predictor, chunk)
                except pl.BudgetExhaustedError:
                    out.fail([f"batch/{name}: refused before the budget was spent"])
                    break
                elapsed = time.perf_counter() - start
                out.timed(f"batch/{name}", start, elapsed)
                out.sample(f"batch/{name}", elapsed / len(chunk))
                out.fail(check_labels(labels, self.n_classes, len(chunk), f"batch/{name}"))
            if predictor.remaining_budget != 0:
                out.fail([f"batch/{name}: remaining_budget {predictor.remaining_budget}"])

    def finish(self, pl, state, out: Outcome, out_dir):
        pass

    def metrics(self, out: Outcome) -> dict:
        result = {}
        for cls, values in out.samples.items():
            kind, name = cls.split("/")
            us = np.asarray(values) * 1e6
            if kind == "query":
                result[f"query_us_p50.{name}"] = (float(np.median(us)), "us", len(us))
                result[f"query_us_p99.{name}"] = (float(np.percentile(us, 99)), "us", len(us))
            else:
                result[f"batch_us_per_query.{name}"] = (float(np.median(us)), "us", len(us))
        return result


WORKLOADS = {w.name: w for w in (TradeoffSweep, TrainLarge, ServeQueries)}
