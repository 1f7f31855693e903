import csv
import json
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

import privlin
from privlin import (KINDS, DpSgdConfig, PrivacySpec, SweepConfig, answer_queries, cli,
                     dpsgd_sigma_for_target, load_predictor)
from privlin.bench import RECORD_HEADER


def assert_input_error(capsys, argv, message):
    """cli.main reports bad input as argparse does: one stderr line, exit status 2."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("privlin: error: ") and err.count("\n") == 1
    assert re.search(message, err), err


def test_verify_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "[PASS] DP-SGD accountant" in out


def test_train_dpsgd_reports_the_calibrated_sigma(tmp_path, capsys):
    model = tmp_path / "dpsgd.npz"
    argv = ["train", "--mechanism", "dpsgd", "--epsilon", "1.0", "--delta", "1e-5",
            "--synth", "n_per_class=40,n_classes=3,dim=5,separation=3.0",
            "--batch", "16", "--steps", "30", "--clip", "0.1", "--out", str(model)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(out[:out.rindex("saved predictor to")])
    cfg = DpSgdConfig.for_dataset(120, 16, 30, clip=0.1)
    assert report["mechanism"] == "dpsgd"
    assert report["sample_rate"] == cfg.sample_rate
    assert "batch_size" not in report  # the config stores q = batch / N only
    assert report["scale"] == dpsgd_sigma_for_target(PrivacySpec(1.0, 1e-5, 100), cfg)
    assert model.exists()


def test_train_dpsgd_at_zero_lambda_reports_the_saved_calibration(tmp_path, capsys):
    model = tmp_path / "dpsgd.npz"
    assert cli.main(["train", "--mechanism", "dpsgd", "--lam", "0", "--delta", "1e-5",
                     "--synth", "n_per_class=20,n_classes=3,dim=5,separation=3.0",
                     "--batch", "10", "--steps", "5", "--out", str(model)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[:out.rindex("saved predictor to")])
    calibration = load_predictor(model).calibration
    assert report["lambda"] == 0.0
    assert report["family"] == calibration.family == "gaussian"
    assert report["scale"] == calibration.scale
    assert report["rho"] == calibration.rho == 0.0


def test_train_dpsgd_searches_sigma_once(tmp_path, monkeypatch):
    calls = []
    search = privlin.mechanisms.dpsgd_sigma_for_target

    def counted(*args):
        calls.append(args)
        return search(*args)

    # Both names, so a search reached through either module is counted.
    monkeypatch.setattr(privlin.mechanisms, "dpsgd_sigma_for_target", counted)
    monkeypatch.setattr(privlin.accounting, "dpsgd_sigma_for_target", counted)
    assert cli.main(["train", "--mechanism", "dpsgd", "--delta", "1e-5",
                     "--synth", "n_per_class=20,n_classes=3,dim=5,separation=3.0",
                     "--batch", "10", "--steps", "5",
                     "--out", str(tmp_path / "dpsgd.npz")]) == 0
    assert len(calls) == 1


def test_mechanism_choices_are_the_kind_table():
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if a.dest == "command").choices
    mechanism = next(a for a in subcommands["train"]._actions if a.dest == "mechanism")
    assert mechanism.choices == list(KINDS)


def read_answers(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.mark.parametrize("mechanism", ["prediction_sensitivity", "subsample_aggregate"])
def test_predict_answers_the_budget_then_refuses(tmp_path, mechanism):
    model = tmp_path / "model.npz"
    assert cli.main(["train", "--mechanism", mechanism, "--budget", "3", "--models", "4",
                     "--synth", "n_per_class=20,n_classes=3,dim=5,separation=3.0",
                     "--out", str(model)]) == 0
    inputs = tmp_path / "queries.csv"
    rows = np.random.default_rng(0).standard_normal((5, 5)) / 4
    np.savetxt(inputs, rows, delimiter=",")

    first = tmp_path / "first.csv"
    assert cli.main(["predict", "--model", str(model), "--inputs", str(inputs),
                     "--out", str(first)]) == 0
    answers = read_answers(first)
    assert [a["status"] for a in answers] == ["answered"] * 3 + ["refused"] * 2
    assert all(0 <= int(a["label"]) < 3 for a in answers[:3])
    assert [a["label"] for a in answers[3:]] == ["", ""]
    assert load_predictor(model).budget.used == 3

    second = tmp_path / "second.csv"
    assert cli.main(["predict", "--model", str(model), "--inputs", str(inputs),
                     "--out", str(second)]) == 0
    assert [a["status"] for a in read_answers(second)] == ["refused"] * 5
    assert load_predictor(model).budget.used == 3


def test_predict_records_the_spend_before_writing_answers(tmp_path, capsys):
    model = tmp_path / "model.npz"
    assert cli.main(["train", "--mechanism", "prediction_sensitivity", "--budget", "3",
                     "--synth", "n_per_class=20,n_classes=3,dim=5,separation=3.0",
                     "--out", str(model)]) == 0
    inputs = tmp_path / "queries.csv"
    np.savetxt(inputs, np.full((2, 5), 0.1), delimiter=",")
    assert_input_error(capsys, ["predict", "--model", str(model), "--inputs", str(inputs),
                                "--out", str(tmp_path / "missing" / "answers.csv")],
                       "No such file")
    assert load_predictor(model).budget.used == 2


def test_predict_spends_the_budget_in_the_exact_model_path(tmp_path, capsys):
    model = tmp_path / "m.model"
    assert cli.main(["train", "--mechanism", "prediction_sensitivity", "--budget", "2",
                     "--synth", "n_per_class=20,n_classes=3,dim=5,separation=3.0",
                     "--out", str(model)]) == 0
    assert f"saved predictor to {model}" in capsys.readouterr().out
    inputs = tmp_path / "queries.csv"
    np.savetxt(inputs, np.full((2, 5), 0.1), delimiter=",")
    statuses = []
    for run in ("first.csv", "second.csv"):
        assert cli.main(["predict", "--model", str(model), "--inputs", str(inputs),
                         "--out", str(tmp_path / run)]) == 0
        statuses.append([a["status"] for a in read_answers(tmp_path / run)])
    assert statuses == [["answered"] * 2, ["refused"] * 2]
    assert load_predictor(model).budget.used == 2
    assert list(tmp_path.glob("*.npz")) == []


@pytest.mark.parametrize("text", ["", "f0,f1,f2,f3,f4\n"])
def test_predict_refuses_a_query_file_without_rows(tmp_path, capsys, text):
    model = tmp_path / "model.npz"
    assert cli.main(["train", "--mechanism", "prediction_sensitivity", "--budget", "3",
                     "--synth", "n_per_class=20,n_classes=3,dim=5,separation=3.0",
                     "--out", str(model)]) == 0
    inputs = tmp_path / "queries.csv"
    inputs.write_text(text)
    assert_input_error(capsys, ["predict", "--model", str(model), "--inputs", str(inputs)],
                       "no rows")
    assert load_predictor(model).budget.used == 0


def test_predict_reports_a_missing_model_in_one_line(tmp_path, capsys):
    inputs = tmp_path / "queries.csv"
    inputs.write_text("f0,f1\n0.1,0.2\n")
    assert_input_error(capsys, ["predict", "--model", str(tmp_path / "missing.npz"),
                                "--inputs", str(inputs)], "No such file.*missing.npz")


def test_predict_projects_queries_outside_the_ball(tmp_path):
    model = tmp_path / "model.npz"
    assert cli.main(["train", "--mechanism", "prediction_sensitivity", "--budget", "3",
                     "--synth", "n_per_class=20,n_classes=3,dim=5,separation=3.0",
                     "--out", str(model)]) == 0
    rows = np.full((2, 5), 0.1)
    rows[1] = [0.0, 3.0, 0.0, 0.0, 0.0]
    inputs, answers = tmp_path / "queries.csv", tmp_path / "answers.csv"
    np.savetxt(inputs, rows, delimiter=",")
    twin = load_predictor(model)
    assert cli.main(["predict", "--model", str(model), "--inputs", str(inputs),
                     "--out", str(answers)]) == 0
    rows[1] /= 3.0
    expected = answer_queries(twin, rows)
    answered = read_answers(answers)
    assert [a["status"] for a in answered] == ["answered"] * 2
    assert [int(a["label"]) for a in answered] == expected.tolist()
    assert load_predictor(model).budget.used == 2


def test_predict_drops_a_label_column_and_writes_to_stdout(tmp_path, capsys):
    model = tmp_path / "model.npz"
    assert cli.main(["train", "--mechanism", "nonprivate",
                     "--synth", "n_per_class=20,n_classes=3,dim=5,separation=3.0",
                     "--out", str(model)]) == 0
    rows = np.random.default_rng(3).standard_normal((4, 5)) / 4
    inputs = tmp_path / "queries.csv"
    np.savetxt(inputs, np.column_stack([rows, [0, 1, 2, 0]]), delimiter=",",
               header="f0,f1,f2,f3,f4,label", comments="")
    capsys.readouterr()
    assert cli.main(["predict", "--model", str(model), "--inputs", str(inputs)]) == 0
    expected = answer_queries(load_predictor(model), rows)
    assert capsys.readouterr().out == "index,status,label\n" + "".join(
        f"{i},answered,{label}\n" for i, label in enumerate(expected))


SYNTH = "n_per_class=20,n_classes=3,dim=5,separation=3.0"


@pytest.mark.parametrize("source, message", [
    (["--synth", SYNTH.replace("separation", "seperation")], "exactly the keys"),
    (["--synth", SYNTH + ",sep=4"], "exactly the keys"),
    (["--idx-images", "images.idx"], "given together"),
    (["--synth", SYNTH, "--idx-images", "images.idx", "--idx-labels", "labels.idx"],
     "exactly one"),
    (["--synth", SYNTH + ",dim=4"], "'dim' is given more than once"),
    (["--synth", SYNTH.replace("n_per_class=20", "n_per_class=3.5")],
     "synth n_per_class must be a whole number"),
    (["--synth", SYNTH.replace("n_classes=3", "n_classes=2.5")],
     "synth n_classes must be a whole number"),
    (["--synth", SYNTH.replace("dim=5", "dim=5.5")], "synth dim must be a whole number"),
    (["--synth", SYNTH.replace("n_per_class=20", "n_per_class=0")],
     "synth n_per_class must be a whole number >= 1"),
    (["--synth", SYNTH.replace("n_classes=3", "n_classes=-1")],
     "synth n_classes must be a whole number >= 1"),
    (["--synth", SYNTH.replace("dim=5", "dim=0")], "synth dim must be a whole number >= 1"),
    (["--synth", SYNTH.replace("dim=5", "dim=-1")], "synth dim must be a whole number >= 1"),
])
def test_train_validates_its_data_source(tmp_path, capsys, source, message):
    assert_input_error(capsys, ["train", "--mechanism", "nonprivate", *source,
                                "--out", str(tmp_path / "model.npz")], message)


@pytest.mark.parametrize("options, message", [
    # 2K / (N lam) overflows to infinity, which no noise scale covers.
    (["--mechanism", "model_sensitivity", "--delta", "1e-5", "--lam", "1e-320"],
     "must be finite"),
    (["--mechanism", "dpsgd", "--delta", "0"], "dpsgd does not support delta = 0"),
    (["--mechanism", "dpsgd", "--delta", "1e-5", "--epsilon", "0.01"], "unreachable"),
    (["--mechanism", "dpsgd", "--delta", "1e-5", "--lam", "nan"],
     "lam must be nonnegative and finite, got nan"),
    (["--mechanism", "nonprivate", "--lam", "inf"], "lam must be positive and finite"),
])
def test_train_reports_bad_settings_in_one_line(tmp_path, capsys, options, message):
    model = tmp_path / "model.npz"
    assert_input_error(capsys, ["train", *options, "--synth", SYNTH, "--out", str(model)],
                       message)
    assert not model.exists()


def test_train_reads_a_csv(tmp_path):
    rng = np.random.default_rng(1)
    features, labels = rng.standard_normal((12, 4)), np.arange(12) % 3
    data = tmp_path / "train.csv"
    np.savetxt(data, np.column_stack([features, labels]), delimiter=",",
               header="f0,f1,f2,f3,label", comments="")
    model = tmp_path / "model.npz"
    assert cli.main(["train", "--mechanism", "nonprivate", "--csv", str(data),
                     "--out", str(model)]) == 0
    expected = privlin.fit_predictor(privlin.normalize_unit_ball(privlin.load_csv(data)),
                                     privlin.MechanismSpec("nonprivate", PrivacySpec(1.0)), 0)
    np.testing.assert_array_equal(load_predictor(model).theta, expected.theta)


def test_train_reads_an_idx_pair(tmp_path):
    images = np.random.default_rng(2).integers(0, 256, size=(12, 2, 3), dtype=np.uint8)
    labels = (np.arange(12) % 4).astype(np.uint8)
    paths = tmp_path / "images.idx", tmp_path / "labels.idx"
    for path, array in zip(paths, (images, labels)):
        header = struct.pack(">BBBB", 0, 0, 0x08, array.ndim)
        path.write_bytes(header + struct.pack(f">{array.ndim}I", *array.shape) + array.tobytes())
    model = tmp_path / "model.npz"
    assert cli.main(["train", "--mechanism", "nonprivate", "--idx-images", str(paths[0]),
                     "--idx-labels", str(paths[1]), "--out", str(model)]) == 0
    assert load_predictor(model).theta.shape == (6, 4)


def test_train_reads_counts_in_exponent_notation(tmp_path):
    model = tmp_path / "model.npz"
    assert cli.main(["train", "--mechanism", "nonprivate", "--synth",
                     "n_per_class=2E1,n_classes=3,dim=5e0,separation=3.0",
                     "--out", str(model)]) == 0
    assert load_predictor(model).theta.shape == (5, 3)


def test_sweep_writes_trials_and_summary(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(SweepConfig(
        mechanisms=("nonprivate", "subsample_aggregate"), budgets=(5,), n_models=(4,),
        trials=2, base_seed=3,
        synth={"n_per_class": 20, "n_classes": 3, "dim": 5, "separation": 3.0,
               "n_test_per_class": 10}).to_json())
    trials, summary = tmp_path / "trials.csv", tmp_path / "summary.csv"
    assert cli.main(["sweep", "--config", str(config), "--out", str(trials),
                     "--summary-out", str(summary)]) == 0
    assert "wrote 4 trial records" in capsys.readouterr().out
    with open(trials, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert ",".join(rows[0]) == RECORD_HEADER
    assert sorted((r["mechanism"], r["trial"]) for r in rows) == [
        ("nonprivate", "0"), ("nonprivate", "1"),
        ("subsample_aggregate", "0"), ("subsample_aggregate", "1")]
    assert all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)
    with open(summary, newline="") as handle:
        means = {r["mechanism"]: r for r in csv.DictReader(handle)}
    assert set(means) == {"nonprivate", "subsample_aggregate"}
    for mechanism, row in means.items():
        accuracies = [float(r["accuracy"]) for r in rows if r["mechanism"] == mechanism]
        assert float(row["mean_accuracy"]) == pytest.approx(np.mean(accuracies))
        assert row["n_trials"] == "2"


def test_sweep_counts_its_failed_trials(tmp_path, capsys):
    # 80 training rows cannot fill 100 sub-models, so both ensemble trials fail.
    config = tmp_path / "sweep.json"
    config.write_text(SweepConfig(
        mechanisms=("nonprivate", "subsample_aggregate"), budgets=(5,), n_models=(100,),
        trials=2, synth={"n_per_class": 20, "n_classes": 4, "dim": 5,
                         "separation": 3.0}).to_json())
    trials = tmp_path / "trials.csv"
    assert cli.main(["sweep", "--config", str(config), "--out", str(trials)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 trial(s) failed; their rows carry accuracy=nan")
    with open(trials, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert sorted(r["mechanism"] for r in rows if r["accuracy"] == "nan") == [
        "subsample_aggregate"] * 2


def test_sweep_trials_and_seed_overrides_are_validated(tmp_path, capsys):
    cfg = SweepConfig(mechanisms=("nonprivate",), budgets=(5,), trials=4, base_seed=3,
                      synth={"n_per_class": 20, "n_classes": 3, "dim": 5, "separation": 3.0})
    config, trials = tmp_path / "sweep.json", tmp_path / "trials.csv"
    config.write_text(cfg.to_json())
    assert cli.main(["sweep", "--config", str(config), "--out", str(trials),
                     "--trials", "1", "--seed", "8"]) == 0
    assert "wrote 1 trial records" in capsys.readouterr().out
    expected = tmp_path / "expected.csv"
    privlin.emit_csv(privlin.run_sweep(replace(cfg, trials=1, base_seed=8)), expected)
    strip = [line.rsplit(",", 1)[0] for line in trials.read_text().splitlines()]
    assert strip == [line.rsplit(",", 1)[0] for line in expected.read_text().splitlines()]
    assert_input_error(capsys, ["sweep", "--config", str(config), "--out", str(trials),
                                "--trials", "0"], "trials")
    assert_input_error(capsys, ["sweep", "--config", str(config), "--out", str(trials),
                                "--seed", "-1"], "base_seed")


def test_sweep_rejects_a_fractional_solver_setting(tmp_path, capsys):
    payload = json.loads(SweepConfig(
        mechanisms=("dpsgd",), deltas=(1e-5,), budgets=(5,), trials=1,
        synth={"n_per_class": 20, "n_classes": 3, "dim": 5, "separation": 3.0}).to_json())
    payload["dpsgd_steps"] = 20.5
    config, trials = tmp_path / "sweep.json", tmp_path / "trials.csv"
    config.write_text(json.dumps(payload))
    assert_input_error(capsys, ["sweep", "--config", str(config), "--out", str(trials)],
                       "dpsgd_steps must be an integer >= 1, got 20.5")
    assert not trials.exists()


def test_sweep_rejects_fewer_than_one_thread(tmp_path, capsys):
    cfg = SweepConfig(mechanisms=("nonprivate",), budgets=(5,), trials=1,
                      synth={"n_per_class": 20, "n_classes": 3, "dim": 5, "separation": 3.0})
    config, trials = tmp_path / "sweep.json", tmp_path / "trials.csv"
    config.write_text(cfg.to_json())
    for threads in ("0", "-3"):
        assert_input_error(capsys, ["sweep", "--config", str(config), "--out", str(trials),
                                    "--threads", threads], "threads must be at least 1")
    assert not trials.exists()
