"""Experiment harness: repeated trials over parameter grids, summary statistics,
and deterministic CSV emission."""

from __future__ import annotations

import itertools
import json
import numbers
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields

import numpy as np

from .accounting import BudgetState, DpSgdConfig, PrivacySpec
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
from .mechanisms import KINDS, MechanismSpec, answer_queries, calibrate, privatise, solve
# Re-exported: profilers patch fit_predictor here as well as in mechanisms.
from .mechanisms import fit_predictor  # noqa: F401
from .noise import RngStream

# Stream-id layout: trial streams occupy (config_index + 1) << 24 | trial,
# per-configuration query streams add the half-range bit, and preprocessing
# streams sit below 1 << 24. Keeps all streams disjoint for trials < 2^23.
_TRIAL_SHIFT = 24
_QUERY_BIT = 1 << 23
_MAX_TRIALS = _QUERY_BIT

# The SweepConfig grid axes, one per SweepCell field and in the same order.
_AXES = ("mechanisms", "epsilons", "deltas", "budgets", "n_train", "dims", "classes",
         "lambdas", "n_models")

# The synthetic-blob parameters a synth source (and `privlin train --synth`)
# must give; a sweep may also give n_test_per_class.
SYNTH_KEYS = ("n_per_class", "n_classes", "dim", "separation")


def check_synth_counts(params: dict):
    """ValueError naming the first synth count that int() would truncate or that is below 1."""
    for key in ("n_per_class", "n_classes", "dim", "n_test_per_class"):
        if key in params and not (float(params[key]).is_integer() and float(params[key]) >= 1):
            raise ValueError(f"synth {key} must be a whole number >= 1, got {params[key]!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Grids, trial count, and data source of one sweep.

    Every grid axis is a CSV column and multiplies the configuration count,
    even for mechanisms that ignore it. The DP-SGD clip norm has no column,
    so `clips` takes exactly one value.
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
    # data source: exactly one of synth / all four idx paths / csv_path
    synth: dict | None = None
    idx_train_images: str | None = None
    idx_train_labels: str | None = None
    idx_test_images: str | None = None
    idx_test_labels: str | None = None
    csv_path: str | None = None
    test_fraction: float = 0.25
    # fixed training knobs
    # expected DP-SGD batch size; each row joins a step with probability dpsgd_batch / N
    dpsgd_batch: int = 64
    dpsgd_steps: int = 200
    dpsgd_learning_rate: float = 1.0
    grad_tolerance: float = 1e-6
    max_iterations: int = 500
    # False: score prediction-side trials on exactly B sampled queries.
    # True: score on the full test set while calibrating noise for B.
    score_on_full_test: bool = False

    def __post_init__(self):
        for name in _AXES + ("clips",):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
            if len(getattr(self, name)) == 0:
                raise ValueError(f"grid {name} must be nonempty")
        if len(self.clips) != 1:
            raise ValueError(f"clips takes exactly one value, got {self.clips}")
        if not isinstance(self.trials, numbers.Integral) or not 1 <= self.trials < _MAX_TRIALS:
            raise ValueError(f"trials must be an integer in [1, {_MAX_TRIALS}), "
                             f"got {self.trials!r}")
        if not isinstance(self.base_seed, numbers.Integral) or self.base_seed < 0:
            raise ValueError(f"base_seed must be a nonnegative integer, got {self.base_seed!r}")
        for name in ("dpsgd_batch", "dpsgd_steps", "max_iterations"):
            if not isinstance(getattr(self, name), numbers.Integral) or getattr(self, name) < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        for name in ("dpsgd_learning_rate", "grad_tolerance"):
            if not (isinstance(getattr(self, name), numbers.Real) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        idx = [path is not None for path in (self.idx_train_images, self.idx_train_labels,
                                             self.idx_test_images, self.idx_test_labels)]
        if any(idx) and not all(idx):
            raise ValueError("an idx source needs all four idx_* paths")
        if sum([self.synth is not None, all(idx), self.csv_path is not None]) != 1:
            raise ValueError("configure exactly one data source (synth, idx, or csv)")
        if self.synth is not None:
            missing = [key for key in SYNTH_KEYS if key not in self.synth]
            if missing:
                raise ValueError(f"missing synth keys: {missing}")
            unknown = sorted(set(self.synth) - {*SYNTH_KEYS, "n_test_per_class"})
            if unknown:
                raise ValueError(f"unknown synth keys: {unknown}")
            check_synth_counts(self.synth)

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
class SweepCell:
    """The nine configuration columns that open both CSVs, in column order.

    In a grid cell, n_train, dim and classes may be None (keep all); a record
    holds the resolved sizes, or 0 if preparing the split failed.
    """

    mechanism: str
    epsilon: float
    delta: float
    budget: int
    n_train: int
    dim: int
    classes: int
    lam: float
    n_models: int

    def config_key(self):
        return tuple(getattr(self, f.name) for f in fields(SweepCell))


@dataclass
class TrialRecord(SweepCell):
    trial: int
    seed: int
    accuracy: float
    wall_time_s: float
    error: str | None = None


@dataclass
class SummaryRecord(SweepCell):
    mean_accuracy: float
    std_accuracy: float
    n_trials: int


def _load_source(cfg: SweepConfig) -> tuple[RawDataset, RawDataset]:
    if cfg.synth is not None:
        params = cfg.synth
        n_per_class, n_test = int(params["n_per_class"]), params.get("n_test_per_class")
        return synth_blob_pair(
            n_train_per_class=n_per_class,
            n_test_per_class=max(1, n_per_class // 4) if n_test is None else int(n_test),
            n_classes=int(params["n_classes"]), dim=int(params["dim"]),
            separation=float(params["separation"]), rng=RngStream(cfg.base_seed, 1))
    if cfg.idx_train_images is not None:
        train = load_idx(cfg.idx_train_images, cfg.idx_train_labels)
        test = load_idx(cfg.idx_test_images, cfg.idx_test_labels)
        return train, test
    full = load_csv(cfg.csv_path)
    return train_test_split(full, cfg.test_fraction, RngStream(cfg.base_seed, 3))


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: a shared stage that fails is
    stored, and every trial that depends on it records its error text."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every dependent trial records it
        return exc


def _ready(stage):
    """A stored stage's value; raises the exception it stored instead."""
    if isinstance(stage, Exception):
        raise stage.with_traceback(None)
    return stage


def _split_key(cell: SweepCell) -> tuple:
    return cell.n_train, cell.dim, cell.classes


def _prepare_split(raw_train, raw_test, key, subsample_rng):
    n_train, dim, classes = key
    train, test = raw_train, raw_test
    if classes is not None and classes < train.n_classes:
        train, test = filter_classes(train, classes), filter_classes(test, classes)
    if n_train is not None and n_train < train.n_examples:
        train = subsample_train(train, n_train, subsample_rng)
    return preprocess_pair(train, test, dim)[:2]


def _prepare_splits(cfg: SweepConfig) -> dict:
    """Map each (n_train, dim, classes) key to its preprocessed (train, test)
    splits, or to the exception that preparing them raised.

    Keys are prepared once, in grid order; the k-th successful subsample
    draws from stream (base_seed, 1000 + k).
    """
    raw_train, raw_test = _load_source(cfg)
    splits, prepared = {}, 0
    for key in dict.fromkeys(itertools.product(cfg.n_train, cfg.dims, cfg.classes)):
        splits[key] = _attempt(_prepare_split, raw_train, raw_test, key,
                               RngStream(cfg.base_seed, 1000 + prepared))
        prepared += not isinstance(splits[key], Exception)
    return splits


def _calibrated_spec(cfg: SweepConfig, split, cell: SweepCell):
    """The MechanismSpec of one grid cell and its calibration on the cell's split."""
    train, _ = _ready(split)
    privacy = PrivacySpec(epsilon=cell.epsilon, delta=cell.delta, budget=cell.budget)
    dpsgd = None
    if cell.mechanism == "dpsgd":
        dpsgd = DpSgdConfig.for_dataset(
            train.n_examples, min(cfg.dpsgd_batch, train.n_examples),
            cfg.dpsgd_steps, cfg.clips[0], cfg.dpsgd_learning_rate)
    spec = MechanismSpec(kind=cell.mechanism, privacy=privacy, lam=cell.lam,
                         n_models=cell.n_models, dpsgd=dpsgd,
                         grad_tolerance=cfg.grad_tolerance,
                         max_iterations=cfg.max_iterations)
    return spec, calibrate(spec, train)


def _group_key(cell: SweepCell, calibrated):
    """The (split key, lambda) group whose minimiser the cell privatises, or
    None: the cell's kind does not use one, or its spec or calibration failed."""
    if isinstance(calibrated, Exception) or not KINDS[cell.mechanism].uses_minimiser:
        return None
    return _split_key(cell), cell.lam


def _run_trial(cfg, stages, config_index, cell, trial):
    """One trial: privatise the cell's shared stages with the trial's stream
    and score the predictor. stages is (split, (spec, calibration), minimiser),
    each stage a value or the exception that computing it raised."""
    stream_id = ((config_index + 1) << _TRIAL_SHIFT) + trial
    start = time.perf_counter()
    resolved = dict(n_train=0, dim=0, classes=0)
    try:
        split, calibrated, minimiser = stages
        train, test = _ready(split)
        resolved = dict(n_train=train.n_examples, dim=train.n_features,
                        classes=train.n_classes)
        spec, calibration = _ready(calibrated)
        rng = RngStream(cfg.base_seed, stream_id).generator()
        kind = KINDS[spec.kind]
        predictor = privatise(train, spec, _ready(minimiser), calibration, rng)

        truth = test.label_ints()
        if kind.prediction_side and not cfg.score_on_full_test:
            query_rng = RngStream(
                cfg.base_seed, ((config_index + 1) << _TRIAL_SHIFT) + _QUERY_BIT).generator()
            index = query_rng.choice(test.n_examples, size=cell.budget,
                                     replace=cell.budget > test.n_examples)
            answers = answer_queries(predictor, test.features[index])
            accuracy = float(np.mean(answers == truth[index]))
        else:
            if kind.prediction_side:
                # Alternative protocol: noise stays calibrated for B, but the
                # gate is widened so the whole test set can be scored.
                predictor.budget = BudgetState(test.n_examples)
            answers = answer_queries(predictor, test.features)
            accuracy = float(np.mean(answers == truth))
        error = None
    except Exception as exc:  # noqa: BLE001 - sweep must continue past bad rows
        accuracy, error = float("nan"), f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return TrialRecord(**{**vars(cell), **resolved}, trial=trial, seed=stream_id,
                       accuracy=accuracy, wall_time_s=wall, error=error)


def run_sweep(cfg: SweepConfig, threads: int = 1) -> list[TrialRecord]:
    """Run every (configuration, trial) cell and return records in grid order.

    One call computes each deterministic input once, before any trial, and
    shares it: the split per (n_train, dim, classes) key, the MechanismSpec
    and calibration per grid cell, and the ERM minimiser per (split key,
    lambda) group, which nonprivate, model_sensitivity and
    prediction_sensitivity privatise at every epsilon, delta, budget and
    trial. Each trial privatises with its own stream (base_seed, config << 24
    | trial) and is scored; its wall_time_s excludes the shared work. A
    failed input is stored, and every trial that depends on it records its
    error with accuracy = nan; the sweep continues. Records are deterministic
    given the config except for wall_time_s. threads > 1 runs the
    calibrations, the solves and the trials on a pool of that many threads.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    splits = _prepare_splits(cfg)
    grid = itertools.product(*(getattr(cfg, axis) for axis in _AXES))
    cells = [SweepCell(*values) for values in grid]
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        cell_splits = [splits[_split_key(cell)] for cell in cells]
        calibrated = list(run(lambda split, cell: _attempt(_calibrated_spec, cfg, split, cell),
                              cell_splits, cells))
        # One solve per group, from the group's first cell; the solve's other
        # inputs (tolerance, iteration cap) are sweep-wide.
        group_keys = list(map(_group_key, cells, calibrated))
        groups = {}
        for key, split, stage in zip(group_keys, cell_splits, calibrated):
            if key is not None:
                groups.setdefault(key, (split[0], stage[0]))
        solved = dict(zip(groups, run(lambda inputs: _attempt(solve, *inputs),
                                      groups.values())))
        stages = [(split, stage, solved.get(key))
                  for key, split, stage in zip(group_keys, cell_splits, calibrated)]
        tasks = [(index, cell, trial) for index, cell in enumerate(cells)
                 for trial in range(cfg.trials)]
        return list(run(lambda task: _run_trial(cfg, stages[task[0]], *task), tasks))


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


# CSV header names that differ from the field names.
_COLUMN_NAMES = {"lam": "lambda", "n_models": "ensemble"}
# Every field whose type has a cast is a CSV column (`error` is not); types are
# annotation strings because of `from __future__ import annotations`. The cast
# normalises a value before it is written and parses it when read back;
# str() of a float is its shortest round-trip repr.
_CASTS = {"str": str, "int": int, "float": float}


def _columns(cls) -> list:
    return [f for f in fields(cls) if f.type in _CASTS]


def _header(cls) -> str:
    return ",".join(_COLUMN_NAMES.get(f.name, f.name) for f in _columns(cls))


RECORD_HEADER = _header(TrialRecord)
SUMMARY_HEADER = _header(SummaryRecord)


def _write_csv(cls, rows, path):
    columns = _columns(cls)
    lines = [_header(cls)]
    lines += [",".join(str(_CASTS[f.type](getattr(row, f.name))) for f in columns)
              for row in rows]
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def emit_csv(records, path):
    """Write trial records with the exact canonical header, one row per trial."""
    _write_csv(TrialRecord, records, path)


def emit_summary_csv(summaries, path):
    _write_csv(SummaryRecord, summaries, path)


def read_records_csv(path) -> list[TrialRecord]:
    """Round-trip reader for emit_csv output. The CSV keeps no error text, and
    only a failed trial has accuracy nan, so those rows are read back failed."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != RECORD_HEADER:
        raise ValueError(f"{path}: unexpected header")
    columns = _columns(TrialRecord)
    records = [TrialRecord(**{f.name: _CASTS[f.type](part)
                              for f, part in zip(columns, line.split(","), strict=True)})
               for line in lines[1:]]
    for record in records:
        if np.isnan(record.accuracy):
            record.error = "failed (the trial CSV keeps no error text)"
    return records
