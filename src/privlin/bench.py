"""Experiment harness: repeated trials over parameter grids, summary statistics,
and deterministic CSV emission."""

from __future__ import annotations

import itertools
import json
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .accounting import DpSgdConfig, PrivacySpec
from .data import (
    RawDataset,
    filter_classes,
    load_csv,
    load_idx,
    preprocess_pair,
    subsample_train,
    synth_blob_pair,
    train_test_split,
)
from .mechanisms import KINDS, BudgetState, MechanismSpec, answer_queries, fit_predictor
from .noise import RngStream

RECORD_HEADER = ("mechanism,epsilon,delta,budget,n_train,dim,classes,lambda,"
                 "ensemble,trial,seed,accuracy,wall_time_s")
SUMMARY_HEADER = ("mechanism,epsilon,delta,budget,n_train,dim,classes,lambda,"
                  "ensemble,mean_accuracy,std_accuracy,n_trials")

# Stream-id layout: trial streams occupy (config_index + 1) << 24 | trial,
# per-configuration query streams add the half-range bit, and preprocessing
# streams sit below 1 << 24. Keeps all streams disjoint for trials < 2^23.
_TRIAL_SHIFT = 24
_QUERY_BIT = 1 << 23
_MAX_TRIALS = _QUERY_BIT


@dataclass(frozen=True)
class SweepConfig:
    """Grids, trial count, and data source of one sweep.

    Grid axes that a mechanism ignores (e.g. the clip grid outside dpsgd)
    still multiply the configuration count; configure them with single
    values unless the sweep is about them.
    """

    mechanisms: tuple = ("model_sensitivity",)
    epsilons: tuple = (1.0,)
    deltas: tuple = (0.0,)
    budgets: tuple = (100,)
    n_train: tuple = (None,)
    dims: tuple = (None,)
    classes: tuple = (None,)
    lambdas: tuple = (0.01,)
    n_models: tuple = (256,)
    clips: tuple = (0.1,)
    trials: int = 100
    base_seed: int = 0
    # data source: exactly one of synth / idx paths / csv_path
    synth: dict | None = None
    idx_train_images: str | None = None
    idx_train_labels: str | None = None
    idx_test_images: str | None = None
    idx_test_labels: str | None = None
    csv_path: str | None = None
    test_fraction: float = 0.25
    # fixed training knobs
    dpsgd_batch: int = 64
    dpsgd_steps: int = 200
    dpsgd_learning_rate: float = 1.0
    grad_tolerance: float = 1e-6
    max_iterations: int = 500
    # False: score prediction-side trials on exactly B sampled queries.
    # True: score on the full test set while calibrating noise for B.
    score_on_full_test: bool = False

    def __post_init__(self):
        for name in ("mechanisms", "epsilons", "deltas", "budgets", "n_train",
                     "dims", "classes", "lambdas", "n_models", "clips"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
            if len(getattr(self, name)) == 0:
                raise ValueError(f"grid {name} must be nonempty")
        if self.trials < 1 or self.trials >= _MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, {_MAX_TRIALS}), got {self.trials}")
        sources = [self.synth is not None, self.idx_train_images is not None,
                   self.csv_path is not None]
        if sum(sources) != 1:
            raise ValueError("configure exactly one data source (synth, idx, or csv)")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        payload = json.loads(text)
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)


@dataclass
class TrialRecord:
    mechanism: str
    epsilon: float
    delta: float
    budget: int
    n_train: int
    dim: int
    classes: int
    lam: float
    n_models: int
    trial: int
    seed: int
    accuracy: float
    wall_time_s: float
    error: str | None = None

    def config_key(self):
        return (self.mechanism, self.epsilon, self.delta, self.budget, self.n_train,
                self.dim, self.classes, self.lam, self.n_models)


@dataclass
class SummaryRecord:
    mechanism: str
    epsilon: float
    delta: float
    budget: int
    n_train: int
    dim: int
    classes: int
    lam: float
    n_models: int
    mean_accuracy: float
    std_accuracy: float
    n_trials: int


def _load_source(cfg: SweepConfig) -> tuple[RawDataset, RawDataset]:
    if cfg.synth is not None:
        params = dict(cfg.synth)
        n_test_per_class = params.pop("n_test_per_class", None)
        base = dict(n_per_class=int(params["n_per_class"]),
                    n_classes=int(params["n_classes"]),
                    dim=int(params["dim"]),
                    separation=float(params["separation"]))
        extra = set(params) - {"n_per_class", "n_classes", "dim", "separation"}
        if extra:
            raise ValueError(f"unknown synth keys: {sorted(extra)}")
        if n_test_per_class is None:
            n_test_per_class = max(1, base["n_per_class"] // 4)
        return synth_blob_pair(
            n_train_per_class=base["n_per_class"],
            n_test_per_class=int(n_test_per_class),
            n_classes=base["n_classes"], dim=base["dim"],
            separation=base["separation"], rng=RngStream(cfg.base_seed, 1))
    if cfg.idx_train_images is not None:
        train = load_idx(cfg.idx_train_images, cfg.idx_train_labels)
        test = load_idx(cfg.idx_test_images, cfg.idx_test_labels)
        return train, test
    full = load_csv(cfg.csv_path)
    return train_test_split(full, cfg.test_fraction, RngStream(cfg.base_seed, 3))


def _grid(cfg: SweepConfig):
    return list(itertools.product(
        cfg.mechanisms, cfg.epsilons, cfg.deltas, cfg.budgets, cfg.n_train,
        cfg.dims, cfg.classes, cfg.lambdas, cfg.n_models, cfg.clips))


class _PrepCache:
    """Preprocessed (train, test) splits per (classes, n_train, dim) key."""

    def __init__(self, cfg, raw_train, raw_test):
        self.cfg = cfg
        self.raw_train = raw_train
        self.raw_test = raw_test
        self.cache = {}

    def get(self, keep_classes, n_train, dim):
        key = (keep_classes, n_train, dim)
        if key not in self.cache:
            train, test = self.raw_train, self.raw_test
            if keep_classes is not None and keep_classes < train.n_classes:
                train = filter_classes(train, keep_classes)
                test = filter_classes(test, keep_classes)
            if n_train is not None and n_train < train.n_examples:
                stream = RngStream(self.cfg.base_seed, 1000 + len(self.cache))
                train = subsample_train(train, n_train, stream)
            prepared_train, prepared_test, _, _ = preprocess_pair(train, test, dim)
            self.cache[key] = (prepared_train, prepared_test)
        return self.cache[key]


def _run_trial(cfg, prep, config_index, config, trial):
    mechanism, eps, delta, budget, n_train, dim, classes, lam, n_models, clip = config
    stream_id = ((config_index + 1) << _TRIAL_SHIFT) + trial
    start = time.perf_counter()
    resolved = dict(n_train=0, dim=0, classes=0)
    try:
        train, test = prep.get(classes, n_train, dim)
        resolved = dict(n_train=train.n_examples, dim=train.n_features,
                        classes=train.n_classes)
        privacy = PrivacySpec(epsilon=eps, delta=delta, budget=budget)
        dpsgd = None
        if mechanism == "dpsgd":
            dpsgd = DpSgdConfig.for_dataset(
                train.n_examples, min(cfg.dpsgd_batch, train.n_examples),
                cfg.dpsgd_steps, clip, cfg.dpsgd_learning_rate)
        spec = MechanismSpec(kind=mechanism, privacy=privacy, lam=lam,
                             n_models=n_models, dpsgd=dpsgd,
                             grad_tolerance=cfg.grad_tolerance,
                             max_iterations=cfg.max_iterations)
        rng = RngStream(cfg.base_seed, stream_id).generator()
        predictor = fit_predictor(train, spec, rng)

        truth = test.label_ints()
        prediction_side = KINDS[predictor.kind].prediction_side
        if prediction_side and not cfg.score_on_full_test:
            query_stream = RngStream(
                cfg.base_seed, ((config_index + 1) << _TRIAL_SHIFT) + _QUERY_BIT)
            query_rng = query_stream.generator()
            index = query_rng.choice(test.n_examples, size=budget,
                                     replace=budget > test.n_examples)
            answers = answer_queries(predictor, test.features[index])
            accuracy = float(np.mean(answers == truth[index]))
        else:
            if prediction_side:
                # Alternative protocol: noise stays calibrated for B, but the
                # gate is widened so the whole test set can be scored.
                predictor.budget = BudgetState(test.n_examples)
            answers = answer_queries(predictor, test.features)
            accuracy = float(np.mean(answers == truth))
        error = None
    except Exception as exc:  # noqa: BLE001 - sweep must continue past bad rows
        accuracy, error = float("nan"), f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return TrialRecord(
        mechanism=mechanism, epsilon=eps, delta=delta, budget=budget,
        n_train=resolved["n_train"], dim=resolved["dim"], classes=resolved["classes"],
        lam=lam, n_models=n_models, trial=trial, seed=stream_id,
        accuracy=accuracy, wall_time_s=wall, error=error)


def run_sweep(cfg: SweepConfig, threads: int = 1) -> list[TrialRecord]:
    """Run every (configuration, trial) cell and return records in grid order.

    One fixed train/test split (derived from base_seed) is shared by all
    trials; each trial owns stream (base_seed, config << 24 | trial). Failed
    cells become records with accuracy = nan and the error message attached;
    the sweep continues. Records are deterministic given the config except
    for wall_time_s.
    """
    raw_train, raw_test = _load_source(cfg)
    prep = _PrepCache(cfg, raw_train, raw_test)
    grid = _grid(cfg)

    # Preprocessing cache keys must be created in deterministic order even
    # when trials run on a pool, so touch them up front.
    for config in grid:
        _, _, _, _, n_train, dim, classes, _, _, _ = config
        try:
            prep.get(classes, n_train, dim)
        except Exception:  # noqa: BLE001 - the trial will record the failure
            pass

    tasks = [(index, config, trial)
             for index, config in enumerate(grid)
             for trial in range(cfg.trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(
                lambda task: _run_trial(cfg, prep, *task), tasks))
    else:
        records = [_run_trial(cfg, prep, *task) for task in tasks]
    return records


def summarize(records) -> list[SummaryRecord]:
    """Per-configuration mean and sample standard deviation of accuracy.

    Failed rows are skipped; configurations with no surviving trials are
    omitted with a warning. Groups keep first-seen (grid) order.
    """
    groups: dict = {}
    for record in records:
        groups.setdefault(record.config_key(), []).append(record)
    summaries = []
    for key, members in groups.items():
        values = [m.accuracy for m in members if m.error is None]
        if not values:
            warnings.warn(f"configuration {key} has no successful trials; omitted")
            continue
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        summaries.append(SummaryRecord(*key, mean_accuracy=mean, std_accuracy=std,
                                       n_trials=len(values)))
    return summaries


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(records, path):
    """Write trial records with the exact canonical header, one row per trial."""
    lines = [RECORD_HEADER]
    for r in records:
        lines.append(",".join(_format(v) for v in (
            r.mechanism, float(r.epsilon), float(r.delta), int(r.budget),
            int(r.n_train), int(r.dim), int(r.classes), float(r.lam),
            int(r.n_models), int(r.trial), int(r.seed), float(r.accuracy),
            float(r.wall_time_s))))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def emit_summary_csv(summaries, path):
    lines = [SUMMARY_HEADER]
    for s in summaries:
        lines.append(",".join(_format(v) for v in (
            s.mechanism, float(s.epsilon), float(s.delta), int(s.budget),
            int(s.n_train), int(s.dim), int(s.classes), float(s.lam),
            int(s.n_models), float(s.mean_accuracy), float(s.std_accuracy),
            int(s.n_trials))))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def read_records_csv(path) -> list[TrialRecord]:
    """Round-trip reader for emit_csv output."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != RECORD_HEADER:
        raise ValueError(f"{path}: unexpected header")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        records.append(TrialRecord(
            mechanism=parts[0], epsilon=float(parts[1]), delta=float(parts[2]),
            budget=int(parts[3]), n_train=int(parts[4]), dim=int(parts[5]),
            classes=int(parts[6]), lam=float(parts[7]), n_models=int(parts[8]),
            trial=int(parts[9]), seed=int(parts[10]), accuracy=float(parts[11]),
            wall_time_s=float(parts[12])))
    return records
