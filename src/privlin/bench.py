"""Experiment harness: repeated trials over parameter grids, summary statistics,
and deterministic CSV emission."""

from __future__ import annotations

import itertools
import json
import numbers
import time
import warnings
from collections.abc import Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .accounting import BudgetState, DpSgdConfig, PrivacySpec
from .data import (
    RawDataset,
    filter_classes,
    is_number,
    load_csv,
    load_idx,
    preprocess_pair,
    split_fraction,
    subsample_train,
    synth_blob_pair,
    synth_settings,
    train_test_split,
)
from .mechanisms import (
    KINDS,
    MechanismSpec,
    PrivatePredictor,
    answer_queries,
    calibrate,
    fit_dpsgd_lockstep,
    privatise,
    solve,
)
# Re-exported: profilers patch fit_predictor here as well as in mechanisms.
from .mechanisms import fit_predictor  # noqa: F401
from .noise import RngStream
from .trainer import TrainConfig

# Stream-id layout: trial streams occupy (config_index + 1) << 24 | trial,
# per-configuration query streams add the half-range bit, and preprocessing
# streams sit below 1 << 24. Keeps all streams disjoint for trials < 2^23.
_TRIAL_SHIFT = 24
_QUERY_BIT = 1 << 23
_MAX_TRIALS = _QUERY_BIT
# DP-SGD trials that one lockstep fit advances at most. Past about 8 the time per trial
# stops falling (0.66x a lone fit's at 6 trials, 0.62x at 8, 0.60x at 16, for 200 steps
# of batch 64 on N = 5000, D = 30, C = 10 blobs on a 2-core Xeon VM), while memory grows
# by one noise block, 256 x D x C floats, per trial.
_LOCKSTEP_TRIALS = 8

# The SweepConfig grid axes, one per SweepCell field and in the same order.
_AXES = ("mechanisms", "epsilons", "deltas", "budgets", "n_train", "dims", "classes",
         "lambdas", "n_models")
_IDX_PATHS = ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels")


@dataclass(frozen=True)
class SweepConfig:
    """Grids, trial count, and data source of one sweep.

    Every grid axis is a CSV column and multiplies the configuration count,
    even for mechanisms that ignore it, and takes no value twice, since
    summarize would merge the repeats. The DP-SGD clip norm has no column,
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
            if isinstance(value, (str, Mapping)) or not isinstance(value, Iterable):
                raise ValueError(f"grid {name} must be a list of values, got {value!r}")
            value = tuple(value)
            object.__setattr__(self, name, value)
            if not value or not all(v is None or isinstance(v, str) or is_number(v) for v in value):
                raise ValueError(f"grid {name} must list one or more strings, numbers or nulls, "
                                 f"got {list(value)}")
            if repeats := [v for i, v in enumerate(value) if v in value[:i]]:
                raise ValueError(f"grid {name} repeats {repeats[0]!r}")
            if name in ("n_train", "dims", "classes") and not all(
                    v is None or (is_number(v, numbers.Integral) and v >= 1) for v in value):
                raise ValueError(f"grid {name} must list integers >= 1 or nulls, got {list(value)}")
        if not all(v in KINDS for v in self.mechanisms):
            raise ValueError(f"grid mechanisms must list kind names, got {list(self.mechanisms)}")
        if len(self.clips) != 1:
            raise ValueError(f"clips takes exactly one value, got {self.clips}")
        if not is_number(self.trials, numbers.Integral) or not 1 <= self.trials < _MAX_TRIALS:
            raise ValueError(f"trials must be an integer in [1, {_MAX_TRIALS}), "
                             f"got {self.trials!r}")
        if not is_number(self.base_seed, numbers.Integral) or self.base_seed < 0:
            raise ValueError(f"base_seed must be a nonnegative integer, got {self.base_seed!r}")
        if not is_number(self.dpsgd_batch, numbers.Integral) or self.dpsgd_batch < 1:
            raise ValueError(f"dpsgd_batch must be an integer >= 1, got {self.dpsgd_batch!r}")
        # The configs that read these settings check them; lam and sample rate are stand-ins.
        TrainConfig(lam=1.0, max_iterations=self.max_iterations, grad_tolerance=self.grad_tolerance)
        dpsgd = DpSgdConfig(self.clips[0], self.dpsgd_steps, 1.0, self.dpsgd_learning_rate)
        # A value no kind accepts would fail every cell of its row, so its owner checks it: a
        # PrivacySpec, or a DP-SGD MechanismSpec, which takes lam = 0 (the other kinds'
        # lam = 0 cells fail one by one).
        for name, key in (("epsilons", "epsilon"), ("deltas", "delta"), ("budgets", "budget"),
                          ("lambdas", "lam"), ("n_models", "n_models")):
            for value in getattr(self, name):
                try:
                    if name in ("lambdas", "n_models"):
                        MechanismSpec("dpsgd", PrivacySpec(1.0, 0.5), dpsgd=dpsgd, **{key: value})
                    else:
                        PrivacySpec(**{"epsilon": 1.0, key: value})
                except ValueError as exc:
                    raise ValueError(f"grid {name}: {exc}") from None
        for name in _IDX_PATHS + ("csv_path",):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a path string, got {getattr(self, name)!r}")
        if not isinstance(self.score_on_full_test, bool):
            raise ValueError("score_on_full_test must be true or false, "
                             f"got {self.score_on_full_test!r}")
        idx = [getattr(self, name) is not None for name in _IDX_PATHS]
        if any(idx) and not all(idx):
            raise ValueError("an idx source needs all four idx_* paths")
        if sum([self.synth is not None, all(idx), self.csv_path is not None]) != 1:
            raise ValueError("configure exactly one data source (synth, idx, or csv)")
        if self.synth is not None:
            synth_settings(self.synth, optional=("n_test_per_class",))
        split_fraction(self.test_fraction)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"a sweep config must be a JSON object, got {payload!r}")
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
        synth = {"n_test_per_class": max(1, cfg.synth["n_per_class"] // 4), **cfg.synth}
        return synth_blob_pair(synth["n_per_class"], synth["n_test_per_class"], synth["n_classes"],
                               synth["dim"], synth["separation"], RngStream(cfg.base_seed, 1))
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
    splits, or to the exception that preparing them raised. Keys are prepared
    once, in grid order; a key that subsamples draws from stream (base_seed,
    1000 + j), j the number of earlier keys prepared without error, whether
    or not they subsampled."""
    raw_train, raw_test = _load_source(cfg)
    splits, prepared = {}, 0
    for key in dict.fromkeys(itertools.product(cfg.n_train, cfg.dims, cfg.classes)):
        splits[key] = _attempt(_prepare_split, raw_train, raw_test, key,
                               RngStream(cfg.base_seed, 1000 + prepared))
        prepared += not isinstance(splits[key], Exception)
    return splits


def _cell_spec(cfg: SweepConfig, split, cell: SweepCell) -> MechanismSpec:
    """The MechanismSpec of one grid cell on the cell's split."""
    train, _ = _ready(split)
    dpsgd = DpSgdConfig.for_dataset(
        train.n_examples, min(cfg.dpsgd_batch, train.n_examples), cfg.dpsgd_steps,
        cfg.clips[0], cfg.dpsgd_learning_rate) if cell.mechanism == "dpsgd" else None
    return MechanismSpec(kind=cell.mechanism, lam=cell.lam, n_models=cell.n_models, dpsgd=dpsgd,
                         privacy=PrivacySpec(cell.epsilon, cell.delta, cell.budget),
                         grad_tolerance=cfg.grad_tolerance, max_iterations=cfg.max_iterations)


def _calibration_key(cell: SweepCell) -> tuple:
    """Cells of one key share a calibration: a training-side kind's noise does not read the
    inference budget, so its cells that differ only in budget share one."""
    training_side = not KINDS[cell.mechanism].prediction_side
    return replace(cell, budget=None).config_key() if training_side else cell.config_key()


def _once_per_key(run, keys, compute) -> list:
    """Each index's value of a stage shared by key: compute(i) runs once on run, for the
    first index i of each distinct key, and is stored as _attempt stores it; an index
    whose key is None gets None."""
    firsts = {}
    for index, key in enumerate(keys):
        if key is not None:
            firsts.setdefault(key, index)
    done = dict(zip(firsts, run(lambda index: _attempt(compute, index), firsts.values())))
    return [None if key is None else done[key] for key in keys]


def _stream_id(config_index: int, trial: int) -> int:
    return ((config_index + 1) << _TRIAL_SHIFT) + trial


def _run_trial(cfg, config_index, cell, trial, split, spec, calibration, shared):
    """One trial: privatise the cell's stages with the trial's stream and score
    the predictor. split, spec, calibration and shared are each a value or the
    exception that computing it raised; shared is the trial's minimiser, its
    DP-SGD theta, or None for kinds that share neither."""
    stream_id = _stream_id(config_index, trial)
    start = time.perf_counter()
    resolved = dict(n_train=0, dim=0, classes=0)
    try:
        train, test = _ready(split)
        resolved = dict(n_train=train.n_examples, dim=train.n_features,
                        classes=train.n_classes)
        spec, calibration, shared = _ready(spec), _ready(calibration), _ready(shared)
        if spec.kind == "dpsgd":
            predictor = PrivatePredictor(spec.kind, spec.privacy, calibration, theta=shared)
        else:
            rng = RngStream(cfg.base_seed, stream_id).generator()
            predictor = privatise(train, spec, shared, calibration, rng)
        index = slice(None)
        if KINDS[spec.kind].prediction_side:
            if cfg.score_on_full_test:
                # Alternative protocol: noise stays calibrated for B, but the
                # gate is widened so the whole test set can be scored.
                predictor.budget = BudgetState(test.n_examples)
            else:
                query_rng = RngStream(cfg.base_seed,
                                      _stream_id(config_index, _QUERY_BIT)).generator()
                index = query_rng.choice(test.n_examples, size=cell.budget,
                                         replace=cell.budget > test.n_examples)
        answers = answer_queries(predictor, test.features[index])
        accuracy = float(np.mean(answers == test.label_ints()[index]))
        error = None
    except Exception as exc:  # noqa: BLE001 - sweep must continue past bad rows
        accuracy, error = float("nan"), f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return TrialRecord(**{**vars(cell), **resolved}, trial=trial, seed=stream_id,
                       accuracy=accuracy, wall_time_s=wall, error=error)


def run_sweep(cfg: SweepConfig, threads: int = 1) -> list[TrialRecord]:
    """Run every (configuration, trial) cell and return records in grid order.

    Each cell builds its own MechanismSpec. Before any trial, each shared
    stage is computed once per key: the split per (n_train, dim, classes);
    the calibration per _calibration_key (one for a training-side kind's
    cells that differ only in budget); the ERM minimiser per (split key,
    lambda), which the kinds with uses_minimiser privatise; and the DP-SGD
    thetas per (split key, lambda), fit by fit_dpsgd_lockstep in lots of at
    most _LOCKSTEP_TRIALS trials, each at its cell's calibration. Every
    trial draws from its own stream (base_seed, config << 24 | trial), in
    its lockstep fit or as it privatises, and is scored; its wall_time_s
    excludes the shared work. A failed stage is stored, and every trial that
    depends on it records its error with accuracy = nan; the sweep
    continues. Records are deterministic given the config except for
    wall_time_s. threads > 1 runs the stages and the trials on a pool of
    that many threads.
    """
    if not is_number(threads, numbers.Integral) or threads < 1:
        raise ValueError(f"threads must be at least 1 and an integer, got {threads!r}")
    splits = _prepare_splits(cfg)
    grid = itertools.product(*(getattr(cfg, axis) for axis in _AXES))
    cells = [SweepCell(*values) for values in grid]
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        cell_splits = [splits[_split_key(cell)] for cell in cells]
        specs = [_attempt(_cell_spec, cfg, split, cell) for split, cell in zip(cell_splits, cells)]
        calibrations = _once_per_key(run, [_calibration_key(cell) for cell in cells],
                                     lambda i: calibrate(_ready(specs[i]), cell_splits[i][0]))
        # A cell whose calibration succeeded shares its minimiser or DP-SGD lots with the
        # cells of its (split key, lambda); the other solver and DP-SGD settings are sweep-wide.
        groups = [None if isinstance(stage, Exception) else (_split_key(cell), cell.lam)
                  for cell, stage in zip(cells, calibrations)]
        minimisers = _once_per_key(run, [
            group if group and KINDS[cell.mechanism].uses_minimiser else None
            for group, cell in zip(groups, cells)], lambda i: solve(cell_splits[i][0], specs[i]))
        dpsgd = {}
        for index, (group, cell) in enumerate(zip(groups, cells)):
            if group and cell.mechanism == "dpsgd":
                dpsgd.setdefault(group, []).extend((index, trial) for trial in range(cfg.trials))
        lots = [members[at:at + _LOCKSTEP_TRIALS] for members in dpsgd.values()
                for at in range(0, len(members), _LOCKSTEP_TRIALS)]
        fits = run(lambda lot: _attempt(
            fit_dpsgd_lockstep, cell_splits[lot[0][0]][0], specs[lot[0][0]],
            [calibrations[i] for i, _ in lot],
            [RngStream(cfg.base_seed, _stream_id(*member)).generator() for member in lot]), lots)
        # A lot gives each trial its own theta; a failed lot is every trial's.
        thetas = {}
        for lot, done in zip(lots, fits):
            thetas.update(zip(lot, done if isinstance(done, list) else itertools.repeat(done)))
        trials = [(index, cell, trial) for index, cell in enumerate(cells)
                  for trial in range(cfg.trials)]
        stages = [(cell_splits[index], specs[index], calibrations[index],
                   thetas.get((index, trial), minimisers[index])) for index, _, trial in trials]
        return list(run(lambda task, stage: _run_trial(cfg, *task, *stage), trials, stages))


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
