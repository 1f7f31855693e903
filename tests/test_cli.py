import json

from privlin import DpSgdConfig, PrivacySpec, cli, dpsgd_sigma_for_target


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
    assert report["scale"] == dpsgd_sigma_for_target(PrivacySpec(1.0, 1e-5, 100), cfg)
    assert model.exists()
