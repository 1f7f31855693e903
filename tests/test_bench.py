import hashlib
import itertools
import json
import math
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from privlin import (
    KINDS,
    BudgetState,
    ConvergenceError,
    DpSgdConfig,
    MechanismSpec,
    PrivacySpec,
    RngStream,
    SweepConfig,
    TrialRecord,
    answer_queries,
    emit_csv,
    emit_summary_csv,
    fit_predictor,
    run_sweep,
    summarize,
    synth_blobs_raw,
)
from privlin import bench, mechanisms
from privlin.bench import RECORD_HEADER, SUMMARY_HEADER, read_records_csv

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"
SYNTH = {"n_per_class": 60, "n_classes": 3, "dim": 5, "separation": 3.0,
         "n_test_per_class": 30}
TRIAL_COLUMNS = ("mechanism,epsilon,delta,budget,n_train,dim,classes,lambda,ensemble,"
                 "trial,seed,accuracy,wall_time_s")
SUMMARY_COLUMNS = ("mechanism,epsilon,delta,budget,n_train,dim,classes,lambda,ensemble,"
                   "mean_accuracy,std_accuracy,n_trials")


def tiny_config(**overrides):
    base = dict(mechanisms=("model_sensitivity",), epsilons=(1.0,), deltas=(0.0,),
                budgets=(20,), lambdas=(0.1,), n_models=(8,), trials=2,
                base_seed=7, synth=SYNTH, grad_tolerance=1e-7)
    base.update(overrides)
    return SweepConfig(**base)


def strip_wall_time(records):
    return [(r.mechanism, r.epsilon, r.delta, r.budget, r.n_train, r.dim, r.classes,
             r.lam, r.n_models, r.trial, r.seed, r.accuracy, r.error)
            for r in records]


class TestConfig:
    def test_json_round_trip(self):
        cfg = tiny_config()
        again = SweepConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_every_committed_experiment_config_loads(self):
        paths = sorted(EXPERIMENTS.glob("*.json"))
        assert paths
        for path in paths:
            cfg = SweepConfig.from_json(path.read_text())
            assert set(cfg.mechanisms) <= set(KINDS), path.name

    def test_every_committed_summary_is_reproduced(self, tmp_path):
        # Each experiments/<name>.json with a <name>_summary.csv beside it re-runs, as
        # privlin sweep --summary-out does, to that table byte for byte.
        configs = [path for path in sorted(EXPERIMENTS.glob("*.json"))
                   if path.with_name(f"{path.stem}_summary.csv").exists()]
        assert configs
        for path in configs:
            records = run_sweep(SweepConfig.from_json(path.read_text()))
            emit_summary_csv(summarize(records), tmp_path / "summary.csv")
            assert ((tmp_path / "summary.csv").read_bytes()
                    == path.with_name(f"{path.stem}_summary.csv").read_bytes()), path.name

    def test_unknown_key_rejected(self):
        payload = json.loads(tiny_config().to_json())
        payload["unknown_knob"] = 1
        with pytest.raises(ValueError):
            SweepConfig.from_json(json.dumps(payload))

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            SweepConfig(mechanisms=("nonprivate",))
        with pytest.raises(ValueError):
            SweepConfig(mechanisms=("nonprivate",), synth=SYNTH, csv_path="x.csv")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(epsilons=())

    @pytest.mark.parametrize("name, value", [
        ("mechanisms", "nonprivate"), ("epsilons", 1.0), ("budgets", 10), ("clips", "0.1"),
        ("mechanisms", {"nonprivate": 1})])
    def test_string_or_scalar_grid_rejected(self, name, value):
        # A string used to become one grid value per character, a scalar a TypeError, and a
        # mapping the grid of its keys.
        with pytest.raises(ValueError, match=f"grid {name} must be a list of values"):
            tiny_config(**{name: value})
        payload = {**json.loads(tiny_config().to_json()), name: value}
        with pytest.raises(ValueError, match=f"grid {name} must be a list of values"):
            SweepConfig.from_json(json.dumps(payload))

    @pytest.mark.parametrize("name, value, message", [
        # A list value used to crash emit_csv after every trial had run.
        ("epsilons", [[1.0]], r"grid epsilons must list one or more strings, numbers or nulls, "
                              r"got \[\[1.0\]\]"),
        ("clips", [{"clip": 0.1}], "grid clips must list one or more strings, numbers or nulls"),
        # A JSON true is no number, though Python would read it as 1.
        ("budgets", [True], "grid budgets must list one or more strings, numbers or nulls"),
    ])
    def test_grid_of_non_scalars_rejected(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**{name: value})
        payload = {**json.loads(tiny_config().to_json()), name: value}
        with pytest.raises(ValueError, match=message):
            SweepConfig.from_json(json.dumps(payload))

    @pytest.mark.parametrize("name, value", [
        ("n_train", "5"), ("n_train", 0), ("dims", 1.5), ("dims", 3.0), ("classes", -2)])
    def test_size_axes_take_integers_of_at_least_one(self, name, value):
        # "5" used to fail every cell with a TypeError about '<', and 1.5 with one about
        # slice indices; neither named the axis.
        message = re.escape(f"grid {name} must list integers >= 1 or nulls, got [None, {value!r}]")
        with pytest.raises(ValueError, match=message):
            tiny_config(**{name: [None, value]})
        payload = {**json.loads(tiny_config().to_json()), name: [None, value]}
        with pytest.raises(ValueError, match=message):
            SweepConfig.from_json(json.dumps(payload))
        assert getattr(tiny_config(**{name: [None, np.int64(2)]}), name) == (None, 2)

    @pytest.mark.parametrize("name, value, message", [
        # Each used to construct and then fail every trial of its cells.
        ("epsilons", "1", "grid epsilons: epsilon must be positive and finite, got '1'"),
        ("epsilons", 0.0, "grid epsilons: epsilon must be positive and finite, got 0.0"),
        ("epsilons", math.inf, "grid epsilons: epsilon must be positive and finite, got inf"),
        ("epsilons", None, "grid epsilons: epsilon must be positive and finite, got None"),
        ("deltas", 1.0, "grid deltas: delta must lie in [0, 1), got 1.0"),
        ("deltas", -1e-5, "grid deltas: delta must lie in [0, 1), got -1e-05"),
        ("deltas", "1e-5", "grid deltas: delta must lie in [0, 1), got '1e-5'"),
        ("budgets", 2.5, "grid budgets: budget must be an integer at least 1, got 2.5"),
        ("budgets", 10.0, "grid budgets: budget must be an integer at least 1, got 10.0"),
        ("budgets", 0, "grid budgets: budget must be an integer at least 1, got 0"),
        ("n_models", 0, "grid n_models: n_models must be an integer at least 1, got 0"),
        ("n_models", 4.5, "grid n_models: n_models must be an integer at least 1, got 4.5"),
        ("n_models", None, "grid n_models: n_models must be an integer at least 1, got None"),
        ("lambdas", "0.1", "grid lambdas: lam must be nonnegative and finite, got '0.1'"),
        ("lambdas", -0.1, "grid lambdas: lam must be nonnegative and finite, got -0.1"),
        ("lambdas", math.nan, "grid lambdas: lam must be nonnegative and finite, got nan"),
        ("lambdas", math.inf, "grid lambdas: lam must be nonnegative and finite, got inf"),
    ])
    def test_privacy_and_model_axes_refuse_values_no_kind_accepts(self, name, value, message):
        grid = [{"deltas": 0.0, "lambdas": 0.1}.get(name, 4), value]
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_config(**{name: grid})
        payload = {**json.loads(tiny_config().to_json()), name: grid}
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepConfig.from_json(json.dumps(payload))

    @pytest.mark.parametrize("value", [3, None, 1.5])
    def test_mechanisms_must_be_kind_names(self, value):
        # Each used to construct and then fail every trial of its cells, and the trial CSV
        # wrote 3 or None in the mechanism column.
        message = re.escape(f"grid mechanisms must list kind names, got [{value!r}, 'nonprivate']")
        with pytest.raises(ValueError, match=message):
            tiny_config(mechanisms=(value, "nonprivate"))
        payload = {**json.loads(tiny_config().to_json()), "mechanisms": [value, "nonprivate"]}
        with pytest.raises(ValueError, match=message):
            SweepConfig.from_json(json.dumps(payload))

    @pytest.mark.parametrize("name, grid, message", [
        # A repeat used to run its cells twice, and summarize merged their trials.
        ("epsilons", (1.0, 1), "grid epsilons repeats 1"),
        ("mechanisms", ("nonprivate", "nonprivate"), "grid mechanisms repeats 'nonprivate'"),
        ("n_train", (None, 30, None), "grid n_train repeats None"),
        ("budgets", (10, 20, 10), "grid budgets repeats 10"),
    ])
    def test_repeated_grid_values_rejected(self, name, grid, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_config(**{name: grid})
        payload = {**json.loads(tiny_config().to_json()), name: list(grid)}
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepConfig.from_json(json.dumps(payload))

    def test_lambda_zero_stays_a_per_cell_error(self):
        cfg = tiny_config(mechanisms=("dpsgd", "nonprivate"), deltas=(1e-5,), lambdas=(0.0,),
                          trials=1)
        records = {r.mechanism: r for r in run_sweep(cfg)}
        assert records["dpsgd"].error is None
        assert records["nonprivate"].error is not None
        assert math.isnan(records["nonprivate"].accuracy)

    def test_grid_values_may_be_any_json_scalar(self):
        cfg = tiny_config(n_train=[None, 30], epsilons=np.array([0.5, 1.0]))
        assert cfg.n_train == (None, 30) and cfg.epsilons == (0.5, 1.0)

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"config"', "null"])
    def test_config_that_is_not_an_object_rejected(self, text):
        with pytest.raises(ValueError, match="a sweep config must be a JSON object"):
            SweepConfig.from_json(text)

    def test_more_than_one_clip_rejected(self):
        # No CSV column tells clips apart, so summarize would merge the cells.
        with pytest.raises(ValueError, match="clips"):
            tiny_config(mechanisms=("dpsgd",), deltas=(1e-5,), clips=(0.01, 10.0))
        assert tiny_config(clips=[0.5]).clips == (0.5,)

    def test_synth_keys_checked_at_construction(self):
        with pytest.raises(ValueError, match=r"missing \['separation'\], unknown \[\]"):
            tiny_config(synth={k: v for k, v in SYNTH.items() if k != "separation"})
        with pytest.raises(ValueError, match=r"missing \[\], unknown \['sep'\]"):
            tiny_config(synth={**SYNTH, "sep": 3.0})
        payload = json.loads(tiny_config().to_json())
        del payload["synth"]["dim"]
        with pytest.raises(ValueError, match=r"optionally n_test_per_class; missing \['dim'\]"):
            SweepConfig.from_json(json.dumps(payload))
        optional = {k: v for k, v in SYNTH.items() if k != "n_test_per_class"}
        assert tiny_config(synth=optional).synth == optional

    @pytest.mark.parametrize("key", ["n_per_class", "n_classes", "dim", "n_test_per_class"])
    def test_fractional_synth_counts_rejected(self, key):
        # int() would truncate 20.5 rows to 20 without a word; counts below 1
        # would fail later with a message that names no key.
        for bad in (20.5, 0, -1):
            with pytest.raises(ValueError, match=f"synth {key} must be a whole number >= 1"):
                tiny_config(synth={**SYNTH, key: bad})
        assert tiny_config(synth={**SYNTH, key: 20.0}).synth[key] == 20.0

    @pytest.mark.parametrize("fraction", ["0.25", 1.5, 0.0, True, math.nan])
    def test_test_fraction_checked_at_construction(self, fraction):
        # "0.25" used to pass and die in train_test_split with a TypeError, and 1.5
        # was refused only once a csv source loaded.
        message = re.escape(f"test_fraction must lie in (0, 1), got {fraction!r}")
        with pytest.raises(ValueError, match=message):
            tiny_config(test_fraction=fraction)
        payload = {**json.loads(tiny_config().to_json()), "test_fraction": fraction}
        with pytest.raises(ValueError, match=message):
            SweepConfig.from_json(json.dumps(payload))

    def test_trials_and_base_seed_must_be_whole_numbers(self):
        # Fractional values used to construct and then crash run_sweep with a TypeError.
        for bad in (0, 2.5):
            with pytest.raises(ValueError, match="trials must be an integer"):
                tiny_config(trials=bad)
        for bad in (1.5, -1):
            with pytest.raises(ValueError, match="base_seed must be a nonnegative integer"):
                tiny_config(base_seed=bad)

    @pytest.mark.parametrize("name", ["max_iterations", "dpsgd_steps", "dpsgd_batch"])
    def test_solver_counts_must_be_whole_numbers(self, name):
        # Fractional values used to construct and then fail every trial as a nan cell. The
        # config that reads a setting words its message: DpSgdConfig calls dpsgd_steps n_steps.
        message = {"dpsgd_steps": "n_steps must be an integer at least 1"}.get(
            name, f"{name} must be an integer >= 1")
        for bad in (2.5, 20.0, 0, -1, True):
            with pytest.raises(ValueError, match=message):
                tiny_config(**{name: bad})
        assert getattr(tiny_config(**{name: 3}), name) == 3

    @pytest.mark.parametrize("name", ["dpsgd_learning_rate", "grad_tolerance"])
    def test_solver_rates_must_be_positive(self, name):
        # DpSgdConfig, which reads dpsgd_learning_rate, calls it learning_rate. Its message
        # used to show the string "1e-6" as 1e-6.
        for bad in (0.0, -1e-3, math.nan, "1e-6", math.inf, True):
            message = f"{name.removeprefix('dpsgd_')} must be positive and finite, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                tiny_config(**{name: bad})

    @pytest.mark.parametrize("clip", [0.0, math.nan, "0.1", None])
    def test_clip_checked_at_construction(self, clip):
        # A zero clip used to construct and then fail every DP-SGD cell as a nan row.
        with pytest.raises(ValueError, match="clip must be positive and finite"):
            tiny_config(clips=[clip])

    @pytest.mark.parametrize("name, value", [
        # csv_path 3 used to make load_csv read, and then close, file descriptor 3.
        ("csv_path", 3), ("idx_train_images", ["a"]), ("idx_test_labels", b"labels.idx")])
    def test_paths_must_be_strings(self, name, value):
        message = re.escape(f"{name} must be a path string, got {value!r}")
        with pytest.raises(ValueError, match=message):
            SweepConfig(mechanisms=("nonprivate",), **{name: value})

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_score_on_full_test_must_be_a_bool(self, value):
        # The string "false" is truthy, so it used to select the full-test protocol.
        with pytest.raises(ValueError, match="score_on_full_test must be true or false"):
            tiny_config(score_on_full_test=value)

    def test_partial_idx_source_rejected(self):
        with pytest.raises(ValueError, match="idx"):
            SweepConfig(idx_train_images="train-images.idx")
        with pytest.raises(ValueError, match="idx"):
            SweepConfig(idx_train_images="a", idx_train_labels="b", idx_test_images="c")


class TestRunSweep:
    def test_single_cell_single_trial(self):
        records = run_sweep(tiny_config(trials=1))
        assert len(records) == 1
        assert records[0].error is None
        assert 0.0 <= records[0].accuracy <= 1.0
        assert records[0].n_train == 180
        assert records[0].classes == 3

    def test_product_counting(self):
        cfg = tiny_config(mechanisms=("model_sensitivity", "nonprivate"),
                          epsilons=(0.5, 1.0, 2.0), trials=10)
        records = run_sweep(cfg)
        assert len(records) == 2 * 3 * 10

    def test_rerun_is_identical_except_wall_time(self):
        cfg = tiny_config(mechanisms=("model_sensitivity", "subsample_aggregate"),
                          trials=3, n_models=(6,))
        first = run_sweep(cfg)
        second = run_sweep(cfg)
        assert strip_wall_time(first) == strip_wall_time(second)

    def test_threads_do_not_change_records(self):
        cfg = tiny_config(mechanisms=("model_sensitivity", "prediction_sensitivity"),
                          trials=3)
        serial = run_sweep(cfg, threads=1)
        parallel = run_sweep(cfg, threads=4)
        assert strip_wall_time(serial) == strip_wall_time(parallel)

    @pytest.mark.parametrize("threads", [0, -3, True, 2.5, "2", None])
    def test_threads_must_be_a_positive_integer(self, threads):
        with pytest.raises(ValueError, match="threads must be at least 1 and an integer"):
            run_sweep(tiny_config(trials=1), threads=threads)

    def test_failed_rows_recorded_and_sweep_continues(self):
        cfg = tiny_config(mechanisms=("dpsgd", "nonprivate"), deltas=(0.0,), trials=2)
        records = run_sweep(cfg)
        assert len(records) == 4
        dpsgd_rows = [r for r in records if r.mechanism == "dpsgd"]
        assert all(r.error is not None and math.isnan(r.accuracy) for r in dpsgd_rows)
        good_rows = [r for r in records if r.mechanism == "nonprivate"]
        assert all(r.error is None for r in good_rows)

    def test_unknown_mechanism_refused_when_the_config_is_built(self):
        message = "grid mechanisms must list kind names, got ['no_such_kind', 'nonprivate']"
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_config(mechanisms=("no_such_kind", "nonprivate"))

    def test_prediction_side_scores_on_budget_queries(self):
        cfg = tiny_config(mechanisms=("prediction_sensitivity",), budgets=(9,),
                          trials=1)
        records = run_sweep(cfg)
        assert records[0].error is None
        # 9 answers, each right or wrong: accuracy is a multiple of 1/9.
        assert (records[0].accuracy * 9) == pytest.approx(round(records[0].accuracy * 9))

    def test_budget_larger_than_test_set_uses_replacement(self):
        cfg = tiny_config(mechanisms=("subsample_aggregate",), budgets=(150,),
                          trials=1, n_models=(6,))
        records = run_sweep(cfg)  # test split has 90 rows
        assert records[0].error is None

    def test_preprocessing_grid(self):
        cfg = tiny_config(mechanisms=("nonprivate",), classes=(2, None),
                          dims=(3, None), n_train=(50, None), trials=1)
        records = run_sweep(cfg)
        assert len(records) == 8
        combos = {(r.classes, r.dim, r.n_train) for r in records}
        assert (2, 3, 50) in combos and (3, 5, 180) in combos

    def test_each_split_prepared_once_before_the_trials(self, monkeypatch):
        dims_prepared = []
        preprocess_pair = bench.preprocess_pair

        def counted(train, test, dim):
            dims_prepared.append(dim)
            return preprocess_pair(train, test, dim)

        monkeypatch.setattr(bench, "preprocess_pair", counted)
        cfg = tiny_config(mechanisms=("nonprivate", "model_sensitivity"), dims=(50, None),
                          trials=3, synth={**SYNTH, "dim": 4})
        records = run_sweep(cfg)
        assert dims_prepared == [50, None]
        failed = [r for r in records if r.error is not None]
        assert len(failed) == 6
        assert all(r.error == "ValueError: target_dim must lie in [1, 4], got 50"
                   and r.dim == 0 and math.isnan(r.accuracy) for r in failed)
        assert all(r.dim == 4 for r in records if r.error is None)

    def test_score_on_full_test_protocol(self):
        cfg = tiny_config(mechanisms=("prediction_sensitivity",), budgets=(5,),
                          trials=1, score_on_full_test=True)
        records = run_sweep(cfg)
        assert records[0].error is None
        assert (records[0].accuracy * 90) == pytest.approx(round(records[0].accuracy * 90))


def cell_spec(cfg, cell, train):
    dpsgd = None
    if cell.mechanism == "dpsgd":
        dpsgd = DpSgdConfig.for_dataset(train.n_examples, min(cfg.dpsgd_batch, train.n_examples),
                                        cfg.dpsgd_steps, cfg.clips[0], cfg.dpsgd_learning_rate)
    return MechanismSpec(kind=cell.mechanism,
                         privacy=PrivacySpec(cell.epsilon, cell.delta, cell.budget),
                         lam=cell.lam, n_models=cell.n_models, dpsgd=dpsgd,
                         grad_tolerance=cfg.grad_tolerance, max_iterations=cfg.max_iterations)


def reference_sweep(cfg):
    """Every trial fit on its own through fit_predictor, with run_sweep's
    stream ids and scoring protocol."""
    splits = bench._prepare_splits(cfg)
    grid = itertools.product(*(getattr(cfg, axis) for axis in bench._AXES))
    records = []
    for index, values in enumerate(grid):
        cell = bench.SweepCell(*values)
        for trial in range(cfg.trials):
            stream_id = ((index + 1) << bench._TRIAL_SHIFT) + trial
            resolved = dict(n_train=0, dim=0, classes=0)
            try:
                split = splits[(cell.n_train, cell.dim, cell.classes)]
                if isinstance(split, Exception):
                    raise split
                train, test = split
                resolved = dict(n_train=train.n_examples, dim=train.n_features,
                                classes=train.n_classes)
                spec = cell_spec(cfg, cell, train)
                predictor = fit_predictor(train, spec,
                                          RngStream(cfg.base_seed, stream_id).generator())
                truth = test.label_ints()
                if KINDS[spec.kind].prediction_side and not cfg.score_on_full_test:
                    query_rng = RngStream(cfg.base_seed, ((index + 1) << bench._TRIAL_SHIFT)
                                          + bench._QUERY_BIT).generator()
                    rows = query_rng.choice(test.n_examples, size=cell.budget,
                                            replace=cell.budget > test.n_examples)
                    answers = answer_queries(predictor, test.features[rows])
                    accuracy = float(np.mean(answers == truth[rows]))
                else:
                    if KINDS[spec.kind].prediction_side:
                        predictor.budget = BudgetState(test.n_examples)
                    accuracy = float(np.mean(answer_queries(predictor, test.features) == truth))
                error = None
            except Exception as exc:  # noqa: BLE001 - mirrors the sweep's error records
                accuracy, error = float("nan"), f"{type(exc).__name__}: {exc}"
            records.append(TrialRecord(**{**vars(cell), **resolved}, trial=trial,
                                       seed=stream_id, accuracy=accuracy, wall_time_s=0.0,
                                       error=error))
    return records


def comparable(records):
    """Every field but wall_time_s; accuracy by repr so that nan equals nan."""
    return [{**asdict(r), "accuracy": repr(r.accuracy), "wall_time_s": None}
            for r in records]


ERM_KINDS = tuple(kind for kind, entry in KINDS.items() if entry.uses_minimiser)


class TestSharedStages:
    """run_sweep solves and calibrates each distinct problem once and shares it."""

    def six_kinds(self, **overrides):
        return tiny_config(**{**dict(mechanisms=tuple(KINDS), deltas=(0.0, 1e-5),
                                     budgets=(3, 40), n_models=(4,), dpsgd_batch=8,
                                     dpsgd_steps=5), **overrides})

    def test_kinds_that_privatise_the_minimiser(self):
        assert ERM_KINDS == ("nonprivate", "model_sensitivity", "prediction_sensitivity")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_records_equal_per_trial_fits(self, threads):
        cfg = self.six_kinds()
        records = run_sweep(cfg, threads=threads)
        assert len(records) == 6 * 2 * 2 * 2
        # DP-SGD has no delta = 0 variant; every other trial succeeds.
        assert {(r.mechanism, r.delta) for r in records if r.error} == {("dpsgd", 0.0)}
        assert comparable(records) == comparable(reference_sweep(cfg))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_solve_per_group_and_one_calibration_per_budget_free_cell(self, monkeypatch,
                                                                          threads):
        solves, calibrations = [], []
        minimize_erm, calibrate = mechanisms.minimize_erm, bench.calibrate

        def counted_solve(data, cfg):
            solves.append((data.n_features, cfg.lam, cfg.noise_b is None))
            return minimize_erm(data, cfg)

        def counted_calibrate(spec, data):
            calibrations.append(spec)
            return calibrate(spec, data)

        monkeypatch.setattr(mechanisms, "minimize_erm", counted_solve)
        monkeypatch.setattr(bench, "calibrate", counted_calibrate)
        cfg = self.six_kinds(deltas=(1e-5,), dims=(3, None), lambdas=(0.1, 0.5))
        records = run_sweep(cfg, threads=threads)
        assert all(r.error is None for r in records)
        groups = {(3, 0.1, True), (3, 0.5, True), (5, 0.1, True), (5, 0.5, True)}
        shared = [call for call in solves if call[2]]
        assert sorted(shared) == sorted(groups)
        lp_trials = [r for r in records if r.mechanism == "loss_perturbation"]
        assert len(solves) - len(shared) == len(lp_trials) == 2 * 2 * 2 * cfg.trials
        # Per (dim, lambda): one calibration per training-side kind, whose noise does not
        # read the budget, and one per budget for each prediction-side kind.
        assert len(records) // cfg.trials == 6 * 2 * 2 * 2
        assert len(calibrations) == (4 + 2 * 2) * 2 * 2

    @pytest.mark.parametrize("threads, lot", [(1, 8), (2, 8), (1, 3), (2, 3), (1, 7), (2, 7)])
    def test_dpsgd_trials_fit_in_lockstep_as_per_trial_fits(self, monkeypatch, threads, lot):
        """A DP-SGD group over two epsilons and two budgets, 300 steps (two sampler
        blocks), in lockstep runs of at most lot trials; lot 7 leaves a run of one."""
        sizes = []
        lockstep = bench.fit_dpsgd_lockstep

        def counted(data, spec, calibrations, rngs):
            sizes.append(len(rngs))
            return lockstep(data, spec, calibrations, rngs)

        monkeypatch.setattr(bench, "fit_dpsgd_lockstep", counted)
        monkeypatch.setattr(bench, "_LOCKSTEP_TRIALS", lot)
        cfg = self.six_kinds(deltas=(1e-5,), epsilons=(0.5, 2.0), dpsgd_steps=300)
        records = run_sweep(cfg, threads=threads)
        assert all(r.error is None for r in records)
        assert sorted(sizes) == {8: [8], 7: [1, 7], 3: [2, 3, 3]}[lot]
        assert comparable(records) == comparable(reference_sweep(cfg))

    def test_a_diverged_dpsgd_trial_records_its_own_error(self, monkeypatch):
        """The epsilon = 0.5 cell's noise overflows: its trials record the error of their
        single fits, and their group-mates at epsilon = 2 equal theirs."""
        calibrate = mechanisms.calibrate

        def overflowing(spec, data):
            if spec.kind == "dpsgd" and spec.privacy.epsilon == 0.5:
                return mechanisms.Calibration("gaussian", 1e308)
            return calibrate(spec, data)

        monkeypatch.setattr(bench, "calibrate", overflowing)
        monkeypatch.setattr(mechanisms, "calibrate", overflowing)
        cfg = tiny_config(mechanisms=("dpsgd",), deltas=(1e-5,), epsilons=(0.5, 2.0),
                          clips=(1.0,), dpsgd_batch=8, dpsgd_steps=20)
        records = run_sweep(cfg)
        assert [r.error for r in records if r.epsilon == 0.5] == [
            "ValueError: dpsgd diverged: theta is not finite"] * 2
        assert all(r.error is None for r in records if r.epsilon == 2.0)
        with np.errstate(all="ignore"):  # the single fits warn as they overflow
            reference = reference_sweep(cfg)
        assert comparable(records) == comparable(reference)

    def test_failed_solve_is_recorded_by_every_trial_that_shares_it(self):
        cfg = self.six_kinds(deltas=(1e-5,), max_iterations=1)
        train, _ = bench._prepare_splits(cfg)[(None, None, None)]
        spec = cell_spec(cfg, bench.SweepCell("nonprivate", 1.0, 1e-5, 3, 0, 0, 0, 0.1, 4),
                         train)
        with pytest.raises(ConvergenceError) as raised:
            mechanisms.solve(train, spec)
        shared_error = f"ConvergenceError: {raised.value}"
        records = run_sweep(cfg)
        erm = [r for r in records if r.mechanism in ERM_KINDS]
        assert len(erm) == 3 * 2 * cfg.trials
        assert all(r.error == shared_error and math.isnan(r.accuracy) for r in erm)
        # Loss perturbation runs its own solve per trial and fails on its own
        # gradient norm; DP-SGD runs no solver.
        lp = [r for r in records if r.mechanism == "loss_perturbation"]
        assert all(r.error.startswith("ConvergenceError") and r.error != shared_error
                   for r in lp)
        assert all(r.error is None for r in records if r.mechanism == "dpsgd")
        assert comparable(records) == comparable(reference_sweep(cfg))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_dpsgd_calibration_is_shared_and_kept_out_of_the_lots(self, monkeypatch,
                                                                         threads):
        """The epsilon = 0.5 calibration fails once for both budgets; its trials record that
        error and no lockstep fit takes them."""
        calibrated, fitted = [], []
        calibrate, lockstep = bench.calibrate, bench.fit_dpsgd_lockstep

        def failing(spec, data):
            calibrated.append(spec.privacy.epsilon)
            if spec.privacy.epsilon == 0.5:
                raise ValueError("no sigma meets the target")
            return calibrate(spec, data)

        def counted(data, spec, calibrations, rngs):
            fitted.append((spec.privacy.epsilon, len(rngs)))
            return lockstep(data, spec, calibrations, rngs)

        monkeypatch.setattr(bench, "calibrate", failing)
        monkeypatch.setattr(bench, "fit_dpsgd_lockstep", counted)
        cfg = tiny_config(mechanisms=("dpsgd",), deltas=(1e-5,), epsilons=(0.5, 2.0),
                          budgets=(3, 40), dpsgd_batch=8, dpsgd_steps=5)
        records = run_sweep(cfg, threads=threads)
        assert [r.error for r in records if r.epsilon == 0.5] == [
            "ValueError: no sigma meets the target"] * 2 * cfg.trials
        assert all(r.error is None for r in records if r.epsilon == 2.0)
        assert sorted(calibrated) == [0.5, 2.0]
        assert fitted == [(2.0, 2 * cfg.trials)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lambda_zero_erm_group_records_its_spec_error_and_never_solves(self, monkeypatch,
                                                                          threads):
        solves = []
        minimize_erm = mechanisms.minimize_erm

        def counted(data, cfg):
            solves.append(cfg.lam)
            return minimize_erm(data, cfg)

        monkeypatch.setattr(mechanisms, "minimize_erm", counted)
        cfg = tiny_config(mechanisms=ERM_KINDS, lambdas=(0.0,), budgets=(3, 5))
        records = run_sweep(cfg, threads=threads)
        assert len(records) == 3 * 2 * cfg.trials
        assert all(r.error == "ValueError: lam must be positive and finite so the minimizer "
                   "is unique, got 0.0" and math.isnan(r.accuracy) for r in records)
        assert solves == []

    def test_shared_minimiser_is_read_only(self, monkeypatch):
        solved = []
        solve = bench.solve

        def kept(data, spec):
            solved.append(solve(data, spec))
            return solved[-1]

        monkeypatch.setattr(bench, "solve", kept)
        run_sweep(tiny_config(mechanisms=ERM_KINDS, budgets=(3, 5)))
        assert len(solved) == 1
        with pytest.raises(ValueError, match="read-only"):
            solved[0][0, 0] = 1.0


def write_idx(path, array):
    """Minimal IDX writer: ubyte type code, big-endian dimensions, raw bytes."""
    array = np.asarray(array, dtype=np.uint8)
    header = struct.pack(">BBBB", 0, 0, 0x08, array.ndim)
    path.write_bytes(header + struct.pack(f">{array.ndim}I", *array.shape) + array.tobytes())


class TestSources:
    KINDS = ("nonprivate", "model_sensitivity")

    def check(self, records, n_train, dim):
        assert [r.mechanism for r in records] == list(self.KINDS)
        assert all(r.error is None for r in records)
        assert all((r.n_train, r.dim, r.classes) == (n_train, dim, 3) for r in records)
        assert all(r.accuracy > 0.5 for r in records)

    def test_csv_source(self, tmp_path):
        raw = synth_blobs_raw(40, 3, 4, 4.0, 11)
        path = tmp_path / "features.csv"
        rows = [",".join(map(repr, x)) + f",{y}" for x, y in zip(raw.features.tolist(),
                                                                  raw.labels)]
        path.write_text("\n".join(["f0,f1,f2,f3,label", *rows]) + "\n")
        cfg = SweepConfig(mechanisms=self.KINDS, lambdas=(0.1,), trials=1, csv_path=str(path))
        self.check(run_sweep(cfg), 90, 4)

    def test_idx_source(self, tmp_path):
        rng = np.random.default_rng(5)
        paths = {}
        for split, n in (("train", 60), ("test", 30)):
            labels = np.arange(n) % 3
            pixels = rng.integers(0, 50, size=(n, 4))
            pixels[np.arange(n), labels] += 200
            paths[f"idx_{split}_images"] = tmp_path / f"{split}-images.idx"
            paths[f"idx_{split}_labels"] = tmp_path / f"{split}-labels.idx"
            write_idx(paths[f"idx_{split}_images"], pixels.reshape(n, 2, 2))
            write_idx(paths[f"idx_{split}_labels"], labels)
        cfg = SweepConfig(mechanisms=self.KINDS, lambdas=(0.1,), trials=1,
                          **{key: str(path) for key, path in paths.items()})
        self.check(run_sweep(cfg), 60, 4)


class TestSummarize:
    def make(self, acc, trial=0, mech="m"):
        return TrialRecord(mechanism=mech, epsilon=1.0, delta=0.0, budget=1,
                           n_train=10, dim=2, classes=2, lam=0.1, n_models=1,
                           trial=trial, seed=trial, accuracy=acc, wall_time_s=0.0)

    def test_constant_accuracy_zero_std(self):
        summaries = summarize([self.make(0.75, t) for t in range(5)])
        assert summaries[0].mean_accuracy == pytest.approx(0.75)
        assert summaries[0].std_accuracy == 0.0
        assert summaries[0].n_trials == 5

    def test_two_point_hand_arithmetic(self):
        summaries = summarize([self.make(0.0, 0), self.make(1.0, 1)])
        assert summaries[0].mean_accuracy == pytest.approx(0.5)
        assert summaries[0].std_accuracy == pytest.approx(math.sqrt(0.5))

    def test_bernoulli_mean_within_three_se(self):
        rng = np.random.default_rng(0)
        draws = rng.random(100) < 0.9
        summaries = summarize([self.make(float(a), t) for t, a in enumerate(draws)])
        se = math.sqrt(0.09 / 100)
        assert abs(summaries[0].mean_accuracy - 0.9) <= 3 * se

    def test_failed_rows_skipped_and_empty_group_warned(self):
        bad = self.make(float("nan"), 0, mech="broken")
        bad.error = "boom"
        good = self.make(0.5, 0, mech="fine")
        with pytest.warns(UserWarning):
            summaries = summarize([bad, good])
        assert len(summaries) == 1
        assert summaries[0].mechanism == "fine"

    def test_single_trial_std_zero(self):
        summaries = summarize([self.make(0.3)])
        assert summaries[0].std_accuracy == 0.0
        assert summaries[0].n_trials == 1


class TestCsv:
    def test_header_and_round_trip(self, tmp_path):
        records = run_sweep(tiny_config(trials=2))
        path = tmp_path / "records.csv"
        emit_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == RECORD_HEADER == TRIAL_COLUMNS
        assert all(line.count(",") == 12 for line in lines)
        parsed = read_records_csv(path)
        assert strip_wall_time_no_error(parsed) == strip_wall_time_no_error(records)
        assert [r.wall_time_s for r in parsed] == [r.wall_time_s for r in records]

    def test_zero_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == TRIAL_COLUMNS + "\n"

    def test_nan_accuracy_round_trips(self, tmp_path):
        record = TrialRecord(mechanism="dpsgd", epsilon=1.0, delta=0.0, budget=1,
                             n_train=10, dim=2, classes=2, lam=0.1, n_models=1,
                             trial=0, seed=0, accuracy=float("nan"), wall_time_s=0.1,
                             error="WrongVariantError: x")
        path = tmp_path / "nan.csv"
        emit_csv([record], path)
        parsed = read_records_csv(path)
        assert math.isnan(parsed[0].accuracy)

    def test_failed_cell_is_summarized_alike_after_a_round_trip(self, tmp_path):
        records = run_sweep(tiny_config(mechanisms=("dpsgd", "nonprivate")))
        assert any(r.error is not None for r in records)  # DP-SGD has no delta = 0
        path = tmp_path / "records.csv"
        emit_csv(records, path)
        parsed = read_records_csv(path)
        assert [r.error is None for r in parsed] == [r.error is None for r in records]
        with pytest.warns(UserWarning, match="no successful trials"):
            expected = summarize(records)
        with pytest.warns(UserWarning, match="no successful trials"):
            assert summarize(parsed) == expected

    def test_summary_header(self, tmp_path):
        records = run_sweep(tiny_config(trials=2))
        path = tmp_path / "summary.csv"
        emit_summary_csv(summarize(records), path)
        lines = path.read_text().splitlines()
        assert lines[0] == SUMMARY_HEADER == SUMMARY_COLUMNS
        assert len(lines) == 2

    def test_reader_rejects_wrong_header_and_ragged_rows(self, tmp_path):
        record = TrialRecord(mechanism="nonprivate", epsilon=1.0, delta=0.0, budget=1,
                             n_train=10, dim=2, classes=2, lam=0.1, n_models=1,
                             trial=0, seed=0, accuracy=0.5, wall_time_s=0.1)
        path = tmp_path / "records.csv"
        emit_csv([record], path)
        header, row = path.read_text().splitlines()
        path.write_text(SUMMARY_COLUMNS + "\n" + row + "\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_records_csv(path)
        path.write_text(header + "\n" + row + ",extra\n")
        with pytest.raises(ValueError):
            read_records_csv(path)

    def test_same_config_same_file_modulo_wall_time(self, tmp_path):
        cfg = tiny_config(trials=2)
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            emit_csv(run_sweep(cfg), path)
            paths.append(path)
        stripped = []
        for path in paths:
            rows = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
            stripped.append(rows)
        assert stripped[0] == stripped[1]

    def test_six_kind_sweep_file_is_unchanged(self, tmp_path):
        """The trial file of a fixed-seed sweep over every kind and both delta
        regimes, wall_time_s dropped, has a pinned sha256. A solver, calibration
        or sampler change that moves any trial's accuracy changes it; a change
        that is exact to the bit does not. Re-recorded when loss perturbation's
        lam became the mean-form ridge of every kind: only its four rows moved."""
        path = tmp_path / "records.csv"
        emit_csv(run_sweep(tiny_config(mechanisms=tuple(KINDS), deltas=(0.0, 1e-5),
                                       dpsgd_steps=50)), path)
        stripped = "\n".join(line.rsplit(",", 1)[0] for line in path.read_text().splitlines())
        assert hashlib.sha256(stripped.encode()).hexdigest() == (
            "4e5c27aa31c549e5994c4ef9167cf13fc241aa289f1735fac2f4457ac57c7794")


def strip_wall_time_no_error(records):
    return [(r.mechanism, r.epsilon, r.delta, r.budget, r.n_train, r.dim, r.classes,
             r.lam, r.n_models, r.trial, r.seed, repr(r.accuracy)) for r in records]
