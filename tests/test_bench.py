import itertools
import json
import math
import struct
from dataclasses import asdict

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

    def test_more_than_one_clip_rejected(self):
        # No CSV column tells clips apart, so summarize would merge the cells.
        with pytest.raises(ValueError, match="clips"):
            tiny_config(mechanisms=("dpsgd",), deltas=(1e-5,), clips=(0.01, 10.0))
        assert tiny_config(clips=[0.5]).clips == (0.5,)

    def test_synth_keys_checked_at_construction(self):
        with pytest.raises(ValueError, match=r"missing synth keys: \['separation'\]"):
            tiny_config(synth={k: v for k, v in SYNTH.items() if k != "separation"})
        with pytest.raises(ValueError, match=r"unknown synth keys: \['sep'\]"):
            tiny_config(synth={**SYNTH, "sep": 3.0})
        payload = json.loads(tiny_config().to_json())
        del payload["synth"]["dim"]
        with pytest.raises(ValueError, match="missing synth keys"):
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
        # Fractional values used to construct and then fail every trial as a nan cell.
        for bad in (2.5, 20.0, 0, -1):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                tiny_config(**{name: bad})
        assert getattr(tiny_config(**{name: 3}), name) == 3

    @pytest.mark.parametrize("name", ["dpsgd_learning_rate", "grad_tolerance"])
    def test_solver_rates_must_be_positive(self, name):
        for bad in (0.0, -1e-3, math.nan, "1e-6"):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                tiny_config(**{name: bad})

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

    def test_failed_rows_recorded_and_sweep_continues(self):
        cfg = tiny_config(mechanisms=("dpsgd", "nonprivate"), deltas=(0.0,), trials=2)
        records = run_sweep(cfg)
        assert len(records) == 4
        dpsgd_rows = [r for r in records if r.mechanism == "dpsgd"]
        assert all(r.error is not None and math.isnan(r.accuracy) for r in dpsgd_rows)
        good_rows = [r for r in records if r.mechanism == "nonprivate"]
        assert all(r.error is None for r in good_rows)

    def test_unknown_mechanism_recorded_and_sweep_continues(self):
        records = run_sweep(tiny_config(mechanisms=("no_such_kind", "nonprivate")))
        assert [r.error for r in records[:2]] == [
            "ValueError: unknown mechanism kind: 'no_such_kind'"] * 2
        assert all(r.error is None for r in records[2:]) and len(records) == 4

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
    def test_one_solve_per_group_and_one_calibration_per_cell(self, monkeypatch, threads):
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
        assert len(calibrations) == len(records) // cfg.trials == 6 * 2 * 2 * 2

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


def strip_wall_time_no_error(records):
    return [(r.mechanism, r.epsilon, r.delta, r.budget, r.n_train, r.dim, r.classes,
             r.lam, r.n_models, r.trial, r.seed, repr(r.accuracy)) for r in records]
