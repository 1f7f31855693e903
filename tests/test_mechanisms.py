import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.special import softmax

from privlin import (
    KINDS,
    BudgetExhaustedError,
    BudgetState,
    Calibration,
    DpSgdConfig,
    LabeledDataset,
    MechanismSpec,
    PrivacySpec,
    PrivatePredictor,
    ProblemDims,
    RngStream,
    TrainConfig,
    WrongVariantError,
    answer_queries,
    calibrate,
    dpsgd_sigma_for_target,
    ensemble_vote_counts,
    fit_predictor,
    gaussian_loss_sigma,
    gaussian_model_sigma,
    gaussian_prediction_sigma,
    load_predictor,
    loss_perturbation_params,
    loss_perturbation_rho,
    minimize_erm,
    minimize_erm_stack,
    model_sensitivity_beta,
    one_hot,
    predict_logits,
    prediction_sensitivity_beta,
    sample_gaussian,
    sample_radial_exponential,
    save_predictor,
    subsample_beta,
    synth_blob_pair,
    synth_blobs,
    vote_distribution,
)
from privlin.data import preprocess_pair
from privlin.mechanisms import partition_indices, poisson_batches, privatise, solve


def blob_splits(seed=0, n_train_per_class=60, n_test_per_class=30, c=3, d=6, sep=3.5):
    raw_train, raw_test = synth_blob_pair(n_train_per_class, n_test_per_class,
                                          c, d, sep, RngStream(seed))
    train, test, _, _ = preprocess_pair(raw_train, raw_test)
    return train, test


def accuracy(predictor, test):
    answers = answer_queries(predictor, test.features)
    return float(np.mean(answers == test.label_ints()))


def spec_for(kind, eps=1.0, delta=0.0, budget=100, lam=0.1, n_models=16, dpsgd=None):
    return MechanismSpec(kind=kind, privacy=PrivacySpec(eps, delta, budget),
                         lam=lam, n_models=n_models, dpsgd=dpsgd,
                         grad_tolerance=1e-9)


def fit_noise_free(data, spec, rng):
    """spec.kind's privatise stage given the noise-free Calibration()."""
    minimiser = solve(data, spec) if KINDS[spec.kind].uses_minimiser else None
    return privatise(data, spec, minimiser, Calibration(), rng)


def fit_nonprivate(data, spec):
    """The non-private baseline at spec's lam and tolerances."""
    return fit_predictor(data, dataclasses.replace(spec, kind="nonprivate"), 0)


class TestMechanismSpec:
    def test_delta_regimes_follow_the_kind_table(self):
        # The constructor refuses a kind exactly at the delta whose KINDS rule is
        # None, and calibrate refuses it on a spec changed after construction.
        cfg = DpSgdConfig(clip=0.1, n_steps=5, sample_rate=0.1)
        data = LabeledDataset(np.zeros((100, 2)), one_hot(np.arange(100) % 3, 3))
        missing = []
        for kind, row in KINDS.items():
            for delta, other, rule in zip((0.0, 1e-5), (1e-5, 0.0), row.calibrations):
                if rule is not None:
                    MechanismSpec(kind=kind, privacy=PrivacySpec(1.0, delta), dpsgd=cfg)
                    continue
                missing.append((kind, delta))
                with pytest.raises(WrongVariantError, match=f"{kind} does not support"):
                    MechanismSpec(kind=kind, privacy=PrivacySpec(1.0, delta), dpsgd=cfg)
                spec = MechanismSpec(kind=kind, privacy=PrivacySpec(1.0, other), dpsgd=cfg)
                spec.privacy = PrivacySpec(1.0, delta)
                with pytest.raises(WrongVariantError, match=f"{kind} does not support"):
                    calibrate(spec, data)
        assert missing == [("dpsgd", 0.0)]

    def test_dpsgd_requires_config(self):
        with pytest.raises(ValueError):
            MechanismSpec(kind="dpsgd", privacy=PrivacySpec(1.0, 1e-5))

    @pytest.mark.parametrize("lam", [-0.1, math.nan, math.inf])
    def test_dpsgd_lambda_must_be_nonnegative_and_finite(self, lam):
        # A NaN lambda used to skip both lam > 0 branches and train the lam = 0 model.
        cfg = DpSgdConfig(clip=0.1, n_steps=5, sample_rate=0.1)
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            MechanismSpec(kind="dpsgd", privacy=PrivacySpec(1.0, 1e-5), lam=lam, dpsgd=cfg)

    @pytest.mark.parametrize("settings, message", [
        ({"lam": 0.0}, "lam must be positive and finite"),
        ({"lam": math.nan}, "lam must be positive and finite"),
        ({"lam": math.inf}, "lam must be positive and finite"),
        ({"max_iterations": 0}, "max_iterations must be an integer >= 1"),
    ])
    def test_solving_kinds_check_their_train_config(self, settings, message):
        for kind in ("nonprivate", "loss_perturbation"):
            with pytest.raises(ValueError, match=message):
                MechanismSpec(kind=kind, privacy=PrivacySpec(1.0), **settings)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MechanismSpec(kind="laplace", privacy=PrivacySpec(1.0))


CALIBRATION_GOLDEN = {
    ("nonprivate", 0.0): ("none", 0.0, 0.0),
    ("model_sensitivity", 0.0): ("radial_exponential", 2.82842712474619, 0.0),
    ("loss_perturbation", 0.0): ("radial_exponential", 0.35355339059327373, 4.0),
    ("prediction_sensitivity", 0.0): ("radial_exponential", 0.1414213562373095, 0.0),
    ("subsample_aggregate", 0.0): ("exponential_mechanism", 0.05, 0.0),
    ("nonprivate", 1e-05): ("none", 0.0, 0.0),
    ("model_sensitivity", 1e-05): ("gaussian", 1.3189774635437135, 0.0),
    ("loss_perturbation", 1e-05): ("gaussian", 14.258231388516698, 4.0),
    ("dpsgd", 1e-05): ("gaussian", 3.8170366509820663, 0.0),
    ("prediction_sensitivity", 1e-05): ("gaussian", 25.630932251427883, 0.0),
    ("subsample_aggregate", 1e-05): ("exponential_mechanism", 0.05, 0.0),
}


class TestCalibrate:
    def test_calibrations_cover_all_mechanisms(self):
        # Two (N, lam, C, B) points that differ in every constant.
        for n, lam, c, budget in ((1000, 0.1, 3, 10), (250, 0.02, 7, 400)):
            # calibrate reads only the row and class counts of the data.
            data = LabeledDataset(np.zeros((n, 2)), one_hot(np.arange(n) % c, c))
            d = ProblemDims(n, lam, c)
            pure, approx = PrivacySpec(1.0, 0.0, budget), PrivacySpec(1.0, 1e-5, budget)
            expected = {
                ("model_sensitivity", 0.0): ("radial_exponential",
                                             model_sensitivity_beta(d, pure), 0.0),
                ("model_sensitivity", 1e-5): ("gaussian", gaussian_model_sigma(d, approx), 0.0),
                ("loss_perturbation", 0.0): ("radial_exponential",
                                             *loss_perturbation_params(d, pure)),
                ("loss_perturbation", 1e-5): ("gaussian", gaussian_loss_sigma(d, approx),
                                              loss_perturbation_rho(d, approx)),
                ("prediction_sensitivity", 0.0): ("radial_exponential",
                                                  prediction_sensitivity_beta(d, pure), 0.0),
                ("prediction_sensitivity", 1e-5): ("gaussian",
                                                   gaussian_prediction_sigma(d, approx), 0.0),
                ("subsample_aggregate", 0.0): ("exponential_mechanism", subsample_beta(pure), 0.0),
                ("subsample_aggregate", 1e-5): ("exponential_mechanism",
                                                subsample_beta(approx), 0.0),
                ("nonprivate", 0.0): ("none", 0.0, 0.0),
            }
            for (kind, delta), (family, scale, rho) in expected.items():
                spec = spec_for(kind, delta=delta, budget=budget, lam=lam)
                calibration = calibrate(spec, data)
                assert calibration == Calibration(family, scale, rho), (kind, delta)
                assert (calibration.rho > 0) == (kind == "loss_perturbation")
            # DP-SGD at lam = 0, which the problem constants of the other kinds reject.
            cfg = DpSgdConfig(clip=0.1, n_steps=50, sample_rate=0.1)
            spec = spec_for("dpsgd", delta=1e-5, budget=budget, lam=0.0, dpsgd=cfg)
            assert calibrate(spec, data) == Calibration(
                "gaussian", dpsgd_sigma_for_target(approx, cfg))

    def test_calibrations_match_recorded_values(self):
        # Every kind at delta = 0 and 1e-5, recorded before the Gaussian sigma
        # search moved onto the exact delta curve.
        data = synth_blobs(40, 4, 6, 3.0, RngStream(11))
        dpsgd = DpSgdConfig.for_dataset(data.n_examples, 16, 50, 0.1)
        for (kind, delta), recorded in CALIBRATION_GOLDEN.items():
            spec = MechanismSpec(kind=kind, privacy=PrivacySpec(1.0, delta, 20), lam=0.05,
                                 n_models=8, dpsgd=dpsgd if kind == "dpsgd" else None)
            calibration = calibrate(spec, data)
            assert calibration.family == recorded[0], (kind, delta)
            assert [calibration.scale, calibration.rho] == pytest.approx(
                recorded[1:], rel=1e-10), (kind, delta)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_fit_records_its_calibration(self, kind, tmp_path):
        train, _ = blob_splits(42, n_train_per_class=20)
        dpsgd = DpSgdConfig.for_dataset(train.n_examples, 20, 5, 0.1)
        for delta in (0.0, 1e-5):
            if kind == "dpsgd" and delta == 0.0:
                continue
            spec = spec_for(kind, delta=delta, budget=10, n_models=4, dpsgd=dpsgd)
            predictor = fit_predictor(train, spec, RngStream(43))
            assert predictor.calibration == calibrate(spec, train)
            save_predictor(tmp_path / "model.npz", predictor)
            assert load_predictor(tmp_path / "model.npz").calibration == predictor.calibration

    @pytest.mark.parametrize("delta", [0.0, 1e-5])
    def test_recorded_calibration_is_the_applied_noise(self, delta):
        train, _ = blob_splits(44)
        spec = spec_for("model_sensitivity", delta=delta)
        predictor = fit_predictor(train, spec, RngStream(45))
        calibration = predictor.calibration
        base = fit_nonprivate(train, spec).theta
        sampler = sample_gaussian if delta else sample_radial_exponential
        assert calibration.family == ("gaussian" if delta else "radial_exponential")
        noise = sampler(base.shape, calibration.scale, RngStream(45))
        np.testing.assert_array_equal(predictor.theta, base + noise)


class TestModelSensitivity:
    def test_disabled_noise_reduces_to_nonprivate(self):
        train, test = blob_splits(1)
        spec = spec_for("model_sensitivity")
        noisy_off = fit_noise_free(train, spec, RngStream(5))
        baseline = fit_nonprivate(train, spec)
        np.testing.assert_array_equal(noisy_off.theta, baseline.theta)

    def test_huge_epsilon_recovers_nonprivate_predictions(self):
        train, test = blob_splits(2)
        spec = spec_for("model_sensitivity", eps=1e8)
        predictor = fit_predictor(train, spec, RngStream(6))
        baseline = fit_nonprivate(train, spec)
        assert np.array_equal(answer_queries(predictor, test.features),
                              answer_queries(baseline, test.features))

    def test_gaussian_variant_uses_gaussian_noise(self):
        train, _ = blob_splits(3)
        spec = spec_for("model_sensitivity", delta=1e-5)
        predictor = fit_predictor(train, spec, RngStream(7))
        assert predictor.kind == "model_sensitivity"
        assert predictor.remaining_budget is None

    def test_accuracy_between_chance_and_nonprivate(self):
        train, test = blob_splits(4, n_train_per_class=67, c=3, d=6)
        spec = spec_for("model_sensitivity", eps=1.0, lam=0.1)
        baseline_acc = accuracy(fit_nonprivate(train, spec), test)
        accs = [
            accuracy(fit_predictor(train, spec, RngStream(100, t)), test)
            for t in range(50)
        ]
        mean_acc = float(np.mean(accs))
        assert 1.0 / 3 + 0.02 < mean_acc < baseline_acc - 0.005


class TestLossPerturbation:
    def test_disabled_noise_matches_rescaled_erm(self):
        train, _ = blob_splits(5)
        lam = 0.5
        spec = spec_for("loss_perturbation", lam=lam)
        hook = fit_noise_free(train, spec, RngStream(8))
        plain = minimize_erm(train, TrainConfig(lam=lam / train.n_examples,
                                                grad_tolerance=1e-9))
        assert np.linalg.norm(hook.theta - plain) < 1e-6

    def test_accuracy_trend_in_epsilon(self):
        train, test = blob_splits(6, n_train_per_class=200, c=3, d=5)
        means = {}
        for eps in (10.0, 1.0, 0.1):
            spec = spec_for("loss_perturbation", eps=eps, lam=0.1)
            accs = [
                accuracy(fit_predictor(train, spec, RngStream(200, t)), test)
                for t in range(30)
            ]
            means[eps] = float(np.mean(accs))
        assert means[10.0] >= means[1.0] - 0.02
        assert means[1.0] >= means[0.1] - 0.02
        assert means[10.0] > means[0.1]

    def test_extra_ridge_shrinks_parameters(self):
        train, _ = blob_splits(7)
        dims_shape = (train.n_features, train.n_classes)
        rng = RngStream(9).generator()
        with_ridge, without_ridge = [], []
        for _ in range(20):
            noise = rng.normal(scale=3.0, size=dims_shape)
            ridged = minimize_erm(train, TrainConfig(lam=0.1, noise_b=noise, rho=5.0,
                                                     grad_tolerance=1e-9))
            free = minimize_erm(train, TrainConfig(lam=0.1, noise_b=noise, rho=0.0,
                                                   grad_tolerance=1e-9))
            with_ridge.append(np.linalg.norm(ridged))
            without_ridge.append(np.linalg.norm(free))
        assert np.mean(with_ridge) < np.mean(without_ridge)


class TestDpSgd:
    def test_requires_positive_delta(self):
        train, _ = blob_splits(8)
        cfg = DpSgdConfig.for_dataset(train.n_examples, 30, 10, 0.1)
        spec = MechanismSpec(kind="loss_perturbation", privacy=PrivacySpec(1.0, 0.0),
                             dpsgd=cfg)
        spec.kind = "dpsgd"  # bypass constructor validation to hit the runtime check
        with pytest.raises(WrongVariantError):
            fit_predictor(train, spec, RngStream(1))

    def test_disabled_noise_and_clip_match_plain_sgd(self):
        train, _ = blob_splits(9)
        n, d, c = train.n_examples, train.n_features, train.n_classes
        # 300 steps span two sampler blocks.
        cfg = DpSgdConfig.for_dataset(n, 40, 300, clip=1e9, learning_rate=0.7)
        spec = spec_for("dpsgd", delta=1e-5, lam=0.0, dpsgd=cfg)
        predictor = fit_noise_free(train, spec, RngStream(10, 3))

        # Without noise the fit draws only its batches, so the same stream
        # replays them; the step divides by the expected batch size qN.
        theta = np.zeros((d, c))
        for rows, bounds in poisson_batches(n, cfg.sample_rate, cfg.n_steps,
                                            RngStream(10, 3)):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                xb, yb = train.features[rows[lo:hi]], train.labels[rows[lo:hi]]
                residual = softmax(xb @ theta, axis=-1) - yb
                theta = theta - cfg.learning_rate * (xb.T @ residual) / (cfg.sample_rate * n)
        np.testing.assert_allclose(predictor.theta, theta, rtol=1e-12)

    def test_clip_definition(self):
        train, _ = blob_splits(10)
        n, d, c = train.n_examples, train.n_features, train.n_classes
        # One full-batch step from theta = 0 with noise off isolates clipping.
        nu = 0.5
        cfg = DpSgdConfig.for_dataset(n, n, 1, clip=nu, learning_rate=1.0)
        spec = spec_for("dpsgd", delta=1e-5, lam=0.0, dpsgd=cfg)
        predictor = fit_noise_free(train, spec, RngStream(11))

        residual = softmax(train.features @ np.zeros((d, c)), axis=-1) - train.labels
        grads = train.features[:, :, None] * residual[:, None, :]
        norms = np.linalg.norm(grads.reshape(n, -1), axis=1)
        assert (norms > nu).any() and (norms < nu).any()  # both regimes present
        scales = np.maximum(1.0, norms / nu)
        clipped = grads / scales[:, None, None]
        clipped_norms = np.linalg.norm(clipped.reshape(n, -1), axis=1)
        # Over the clip: rescaled to norm exactly nu. Under it: untouched.
        np.testing.assert_allclose(clipped_norms[norms > nu], nu, rtol=1e-12)
        np.testing.assert_array_equal(clipped[norms < nu], grads[norms < nu])
        expected = -1.0 * clipped.sum(axis=0) / n
        np.testing.assert_allclose(predictor.theta, expected, atol=1e-12)

    def test_noise_variance_in_summed_gradient(self):
        train, _ = blob_splits(11)
        n = train.n_examples
        nu, lr = 0.2, 1.0
        cfg = DpSgdConfig.for_dataset(n, n, 1, clip=nu, learning_rate=lr)
        spec = spec_for("dpsgd", delta=1e-5, eps=1.0, lam=0.0, dpsgd=cfg)
        # One step from zero: theta = -lr (clipped_sum + sigma nu z) / n, so
        # Var(theta entries) across streams = (lr sigma nu / n)^2.
        thetas = np.stack([
            fit_predictor(train, spec, RngStream(12, t)).theta for t in range(400)
        ])
        from privlin import dpsgd_sigma_for_target
        sigma = dpsgd_sigma_for_target(spec.privacy, cfg)
        target = (lr * sigma * nu / n) ** 2
        observed = thetas.var(axis=0, ddof=1)
        assert np.mean(observed) == pytest.approx(target, rel=0.15)

    def test_batch_size_validation(self):
        n = blob_splits(12)[0].n_examples
        with pytest.raises(ValueError, match="sample_rate"):
            DpSgdConfig.for_dataset(n, 10 * n, 2, clip=0.1)

    @pytest.mark.parametrize("n_steps", [1, 300])  # 300 steps span two sampler blocks
    def test_noise_normalised_by_expected_batch(self, n_steps):
        # All-zero features and lam = 0 make every clipped gradient zero, so each
        # step subtracts lr sigma clip z / (qN) whatever batch it drew.
        n, d, c = 200, 4, 3
        data = LabeledDataset(np.zeros((n, d)), np.eye(c)[np.arange(n) % c])
        nu, lr = 0.3, 0.5
        cfg = DpSgdConfig.for_dataset(n, 20, n_steps, clip=nu, learning_rate=lr)
        spec = spec_for("dpsgd", delta=1e-5, lam=0.0, dpsgd=cfg)
        calibration = calibrate(spec, data)
        scale = lr * calibration.scale * nu / (cfg.sample_rate * n)
        thetas, sizes = [], set()
        for t in range(400 if n_steps == 1 else 100):  # fewer of the longer fits
            theta = privatise(data, spec, None, calibration, RngStream(41, t)).theta
            rng = RngStream(41, t).generator()
            expected = np.zeros((d, c))
            # Each block's noise is drawn right after that block's batches.
            for _, bounds in poisson_batches(n, cfg.sample_rate, n_steps, rng):
                sizes.update(np.diff(bounds).tolist())
                for z in rng.standard_normal((len(bounds) - 1, d, c)):
                    expected -= scale * z
            np.testing.assert_allclose(theta, expected, rtol=1e-12, atol=1e-12 * scale)
            thetas.append(theta)
        assert len(sizes) > 5  # the realised batch size varied
        observed = np.stack(thetas).var(axis=0, ddof=1)
        assert np.mean(observed) == pytest.approx(n_steps * scale ** 2, rel=0.15)

    def test_tiny_rate_with_empty_batches_finishes(self):
        train, _ = blob_splits(13)
        n = train.n_examples
        cfg = DpSgdConfig.for_dataset(n, 1, 60, clip=0.1)
        sizes = np.concatenate([np.diff(bounds) for _, bounds in
                                poisson_batches(n, cfg.sample_rate, cfg.n_steps,
                                                RngStream(42))])
        assert (sizes == 0).sum() > 5
        predictor = fit_predictor(train, spec_for("dpsgd", delta=1e-5, dpsgd=cfg),
                                  RngStream(42))
        assert np.isfinite(predictor.theta).all()

    def test_diverged_fit_fails_loudly(self):
        train, _ = blob_splits(14)
        cfg = DpSgdConfig.for_dataset(train.n_examples, 1, 50, clip=1.0, learning_rate=1e308)
        spec = spec_for("dpsgd", delta=1e-5, dpsgd=cfg)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            fit_predictor(train, spec, RngStream(46))


class TestPoissonBatches:
    N, Q, STEPS = 1000, 0.05, 20_000

    @pytest.fixture(scope="class")
    def blocks(self):
        return list(poisson_batches(self.N, self.Q, self.STEPS, RngStream(43)))

    def test_batch_size_mean_and_variance(self, blocks):
        sizes = np.concatenate([np.diff(bounds) for _, bounds in blocks])
        assert len(blocks) > 50 and sizes.size == self.STEPS
        n, q, k = self.N, self.Q, self.STEPS
        var = n * q * (1 - q)
        # Binomial(n, q): fourth central moment var (1 + 3 (n - 2) q (1 - q)).
        mu4 = var * (1 + 3 * (n - 2) * q * (1 - q))
        assert abs(sizes.mean() - n * q) < 5 * math.sqrt(var / k)
        assert abs(sizes.var(ddof=1) - var) < 5 * math.sqrt((mu4 - var ** 2) / k)

    def test_every_row_joins_at_rate_q(self, blocks):
        counts = sum(np.bincount(rows, minlength=self.N) for rows, _ in blocks)
        rates = counts / self.STEPS
        se = math.sqrt(self.Q * (1 - self.Q) / self.STEPS)
        assert np.abs(rates - self.Q).max() < 5 * se

    def test_steps_hold_distinct_ascending_rows(self, blocks):
        for rows, bounds in blocks:
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                assert np.all(np.diff(rows[lo:hi]) > 0)
            assert rows.min() >= 0 and rows.max() < self.N

    def test_rate_one_takes_every_row_every_step(self):
        blocks = list(poisson_batches(7, 1.0, 300, RngStream(44)))
        assert len(blocks) == 2
        for rows, bounds in blocks:
            steps = len(bounds) - 1
            np.testing.assert_array_equal(rows, np.tile(np.arange(7), steps))
            np.testing.assert_array_equal(bounds, 7 * np.arange(steps + 1))

    def test_refill_keeps_every_step_well_formed(self):
        class FirstGapsOfOne(np.random.Generator):
            """Its first geometric draw is all gaps of 1, so it ends short of
            the block and poisson_batches must draw more."""

            def __init__(self, seed):
                super().__init__(np.random.PCG64(seed))
                self.calls = 0

            def geometric(self, p, size=None):
                self.calls += 1
                if self.calls == 1:
                    return np.ones(size, dtype=np.int64)
                return super().geometric(p, size)

        n, q, n_steps = 50, 0.05, 300
        rng = FirstGapsOfOne(46)
        blocks = list(poisson_batches(n, q, n_steps, rng))
        assert rng.calls > len(blocks)  # the first block drew more than once
        rows, bounds = blocks[0]
        size = int(q * 256 * n + 5.0 * math.sqrt(q * 256 * n)) + 16  # the first draw
        for j in range(size // n):  # the leading steps hold every row
            np.testing.assert_array_equal(rows[bounds[j]:bounds[j + 1]], np.arange(n))
        assert sum(len(b) - 1 for _, b in blocks) == n_steps
        for rows, bounds in blocks:
            assert bounds[0] == 0 and bounds[-1] == len(rows)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                assert np.all(np.diff(rows[lo:hi]) > 0)
            assert rows.min() >= 0 and rows.max() < n

    def test_deterministic_per_stream(self):
        def draw(stream):
            return [(rows.tolist(), bounds.tolist())
                    for rows, bounds in poisson_batches(50, 0.1, 600, stream)]
        assert draw(RngStream(45, 1)) == draw(RngStream(45, 1))
        assert draw(RngStream(45, 1)) != draw(RngStream(45, 2))


class TestPredictionSensitivity:
    def test_fresh_noise_per_query(self):
        train, test = blob_splits(13)
        spec = spec_for("prediction_sensitivity", budget=10)
        predictor = fit_predictor(train, spec, RngStream(14))
        x = test.features[0]
        first = predictor.predict(x)
        second = predictor.predict(x)
        assert not np.array_equal(first, second)

    def test_vanishing_noise_recovers_logits(self):
        train, test = blob_splits(14)
        spec = spec_for("prediction_sensitivity", eps=1e9, budget=5)
        predictor = fit_predictor(train, spec, RngStream(15))
        x = test.features[0]
        noisy = predictor.predict(x)
        exact = predict_logits(predictor.theta, x[None])[0]
        np.testing.assert_allclose(noisy, exact, atol=1e-6)

    def test_noise_scale_inverse_in_budget(self):
        train, _ = blob_splits(15)
        one = fit_predictor(
            train, spec_for("prediction_sensitivity", budget=1), RngStream(16))
        hundred = fit_predictor(
            train, spec_for("prediction_sensitivity", budget=100), RngStream(16))
        assert hundred.calibration.scale == pytest.approx(one.calibration.scale / 100, rel=1e-12)

    def test_budget_refusal(self):
        train, test = blob_splits(16)
        spec = spec_for("prediction_sensitivity", budget=3)
        predictor = fit_predictor(train, spec, RngStream(17))
        for i in range(3):
            predictor.predict(test.features[i])
        with pytest.raises(BudgetExhaustedError):
            predictor.predict(test.features[3])
        assert predictor.budget.used == 3

    def test_query_validation(self):
        train, _ = blob_splits(17)
        spec = spec_for("prediction_sensitivity", budget=5)
        predictor = fit_predictor(train, spec, RngStream(18))
        with pytest.raises(ValueError):
            predictor.predict(np.zeros(train.n_features + 1))
        with pytest.raises(ValueError):
            predictor.predict(np.full(train.n_features, 1.0))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                predictor.predict(np.full(train.n_features, bad))
        assert predictor.budget.used == 0  # refused before consuming


class TestSubsampleAggregate:
    def test_partition_arithmetic(self):
        parts = partition_indices(1000, 256, RngStream(19))
        assert parts.shape == (256, 3)
        flat = parts.ravel()
        assert len(set(flat.tolist())) == flat.size  # pairwise disjoint
        assert flat.size == 768  # 232 of 1000 discarded

    def test_partition_needs_a_model(self):
        with pytest.raises(ValueError, match="n_models must be at least 1"):
            partition_indices(10, 0, RngStream(19))

    def test_too_many_models(self):
        train, _ = blob_splits(18)
        with pytest.raises(ValueError):
            fit_predictor(train, spec_for("subsample_aggregate",
                                          n_models=train.n_examples + 1),
                          RngStream(20))
        for bad in (0, 4.5):
            with pytest.raises(ValueError, match="n_models must be an integer"):
                spec_for("subsample_aggregate", n_models=bad)

    def test_votes_sum_to_ensemble_size(self):
        train, test = blob_splits(19)
        spec = spec_for("subsample_aggregate", n_models=12)
        predictor = fit_predictor(train, spec, RngStream(21))
        counts = ensemble_vote_counts(predictor.ensemble, test.features, predictor.ties)
        assert counts.shape == (test.n_examples, train.n_classes)
        assert np.all(counts.sum(axis=1) == 12)
        single = ensemble_vote_counts(predictor.ensemble, test.features[:1], predictor.ties)
        np.testing.assert_array_equal(single, counts[:1])
        for bad in (test.features[0], test.features[:3, :-1]):
            with pytest.raises(ValueError, match=r"shape \(n, 6\)"):
                ensemble_vote_counts(predictor.ensemble, bad, predictor.ties)
        with pytest.raises(TypeError):
            ensemble_vote_counts(predictor.ensemble, test.features)

    def test_one_changed_example_touches_at_most_one_submodel(self):
        train, test = blob_splits(20, n_train_per_class=40, c=3, d=5)
        spec = spec_for("subsample_aggregate", n_models=10, lam=0.1)
        predictor_a = fit_predictor(train, spec, RngStream(22))
        ensemble_a = predictor_a.ensemble

        swapped = LabeledDataset(train.features.copy(), train.labels.copy())
        swapped.features[17] = swapped.features[17] * 0.5
        swapped.labels[17] = np.roll(swapped.labels[17], 1)
        predictor_b = fit_predictor(swapped, spec, RngStream(22))
        ensemble_b = predictor_b.ensemble

        differing = sum(
            0 if np.array_equal(a, b) else 1
            for a, b in zip(ensemble_a, ensemble_b)
        )
        assert differing <= 1
        counts_a = ensemble_vote_counts(ensemble_a, test.features, predictor_a.ties)
        counts_b = ensemble_vote_counts(ensemble_b, test.features, predictor_b.ties)
        assert np.abs(counts_a - counts_b).max() <= 1

    def test_vote_distribution_closed_form(self):
        probs = vote_distribution([2, 1, 0], math.log(2.0))
        np.testing.assert_allclose(probs, [4 / 7, 2 / 7, 1 / 7], rtol=1e-12)

    def test_vote_distribution_is_softmax_bit_for_bit(self):
        rng = np.random.default_rng(40)
        counts = rng.integers(0, 256, size=(50, 10))
        for beta in (0.0, 1e-3, 0.37, 5.0, 1e3):
            expected = softmax(beta * counts.astype(np.float64), axis=-1)
            np.testing.assert_array_equal(vote_distribution(counts, beta), expected)
            np.testing.assert_array_equal(vote_distribution(counts[3], beta), expected[3])

    def test_sampled_labels_follow_the_softmax_vote(self):
        predictor, test = degenerate_ensemble(41)
        reference = twin(predictor, 200)
        labels = answer_queries(twin(predictor, 200), test.features[:150])
        expected = []
        for x in test.features[:150]:
            probs = softmax(predictor.calibration.scale
                            * ensemble_vote_counts(predictor.ensemble, x[None],
                                                   predictor.ties)[0].astype(np.float64),
                            axis=-1)
            expected.append(reference.rng.choice(len(probs), p=probs))
        np.testing.assert_array_equal(labels, expected)
        assert len(set(expected)) > 1

    def test_zero_beta_is_uniform(self):
        probs = vote_distribution([7, 1, 0, 4], 0.0)
        np.testing.assert_allclose(probs, 0.25, rtol=1e-12)

    def test_sampling_frequencies_match_closed_form(self):
        # Hand-built ensemble casting votes (2, 1, 0) on the query e1.
        def voter(target):
            theta = np.zeros((2, 3))
            theta[0, target] = 1.0
            return theta

        ensemble = np.stack([voter(0), voter(0), voter(1)])
        draws = 20000
        predictor = PrivatePredictor(
            kind="subsample_aggregate", privacy=PrivacySpec(1.0, 0.0, draws),
            calibration=Calibration("exponential_mechanism", math.log(2.0)), ensemble=ensemble,
            budget=BudgetState(draws), rng=RngStream(23).generator())
        x = np.array([1.0, 0.0])
        np.testing.assert_array_equal(ensemble_vote_counts(ensemble, x[None], predictor.ties),
                                      [[2, 1, 0]])
        labels = np.array([predictor.predict(x)
                           for _ in range(draws)])
        freqs = np.bincount(labels, minlength=3) / draws
        expected = np.array([4 / 7, 2 / 7, 1 / 7])
        ses = np.sqrt(expected * (1 - expected) / draws)
        assert np.all(np.abs(freqs - expected) <= 3 * ses)

    def test_noise_free_vote_is_the_plurality_label(self):
        train, test = blob_splits(42)
        spec = spec_for("subsample_aggregate", budget=200, n_models=8)
        predictor = fit_noise_free(train, spec, RngStream(43))
        state = copy.deepcopy(predictor.rng.bit_generator.state)
        plurality = ensemble_vote_counts(predictor.ensemble, test.features,
                                         predictor.ties).argmax(axis=1)
        np.testing.assert_array_equal(answer_queries(predictor, test.features), plurality)
        singles = [predictor.predict(x) for x in test.features[:20]]
        np.testing.assert_array_equal(singles, plurality[:20])
        # Two sub-models vote classes 2 and 1 on e1: the tie goes to class 1.
        tie = np.zeros((2, train.n_features, 3))
        tie[0, 0, 2] = tie[1, 0, 1] = 1.0
        tied = dataclasses.replace(predictor, ensemble=tie, ties=None)
        x = np.eye(train.n_features)[0]
        np.testing.assert_array_equal(ensemble_vote_counts(tie, x[None], tied.ties), [[0, 1, 1]])
        assert tied.predict(x) == 1
        np.testing.assert_array_equal(answer_queries(tied, np.stack([x, x])), [1, 1])
        assert predictor.rng.bit_generator.state == state  # nothing was drawn
        assert predictor.remaining_budget == 200 - test.n_examples - 23

    def test_budget_refusal(self):
        train, test = blob_splits(21)
        spec = spec_for("subsample_aggregate", budget=2, n_models=8)
        predictor = fit_predictor(train, spec, RngStream(24))
        predictor.predict(test.features[0])
        predictor.predict(test.features[1])
        with pytest.raises(BudgetExhaustedError):
            predictor.predict(test.features[2])


class TestDispatchAndBudgets:
    def test_training_side_predictors_answer_unlimited_queries(self):
        train, test = blob_splits(22)
        for kind in ("model_sensitivity", "loss_perturbation", "nonprivate"):
            spec = spec_for(kind, budget=2)
            predictor = fit_predictor(train, spec, RngStream(25))
            answers = answer_queries(predictor, test.features)  # more than budget
            assert answers.shape == (test.n_examples,)
            repeat = answer_queries(predictor, test.features)
            assert np.array_equal(answers, repeat)  # frozen parameters

    @pytest.mark.parametrize("kind", ["nonprivate", "model_sensitivity", "loss_perturbation"])
    def test_training_side_queries_are_validated(self, kind):
        train, test = blob_splits(38)
        predictor = fit_predictor(train, spec_for(kind), RngStream(39))
        for bad in (np.nan, np.inf, -np.inf):
            rows = test.features[:4].copy()
            rows[1, 2] = bad
            with pytest.raises(ValueError, match="query must be finite"):
                answer_queries(predictor, rows)
            with pytest.raises(ValueError, match="query must be finite"):
                predictor.predict(rows[1])
        with pytest.raises(ValueError):
            answer_queries(predictor, test.features[:4, :-1])
        with pytest.raises(ValueError):
            predictor.predict(test.features[0, :-1])
        # Answers are post-processing: rows outside the unit ball are scored.
        outside = 3.0 * test.features[:4]
        np.testing.assert_array_equal(answer_queries(predictor, outside),
                                      np.argmax(outside @ predictor.theta, axis=1))
        np.testing.assert_array_equal(predictor.predict(outside[0]),
                                      predict_logits(predictor.theta, outside[:1])[0])

    def test_prediction_side_budget_is_exact(self):
        train, test = blob_splits(23)
        budget = 7
        for kind in ("prediction_sensitivity", "subsample_aggregate"):
            spec = spec_for(kind, budget=budget, n_models=8)
            predictor = fit_predictor(train, spec, RngStream(26))
            answer_queries(predictor, test.features[:budget])
            assert predictor.budget.used == budget
            with pytest.raises(BudgetExhaustedError):
                predictor.predict(test.features[0])


class TestSerialization:
    def test_round_trip_training_side(self, tmp_path):
        train, test = blob_splits(24)
        predictor = fit_predictor(train, spec_for("model_sensitivity"), RngStream(27))
        path = tmp_path / "model.npz"
        save_predictor(path, predictor)
        loaded = load_predictor(path)
        assert loaded.kind == predictor.kind
        assert loaded.privacy == predictor.privacy
        assert np.array_equal(loaded.theta, predictor.theta)
        assert loaded.remaining_budget is None

    def test_round_trip_resumes_noise_stream(self, tmp_path):
        train, test = blob_splits(25)
        spec = spec_for("prediction_sensitivity", budget=10)
        predictor = fit_predictor(train, spec, RngStream(28))
        predictor.predict(test.features[0])
        predictor.predict(test.features[1])
        path = tmp_path / "pred.npz"
        save_predictor(path, predictor)

        original_next = predictor.predict(test.features[2])
        loaded = load_predictor(path)
        assert loaded.budget.used == 2
        loaded_next = loaded.predict(test.features[2])
        np.testing.assert_array_equal(loaded_next, original_next)

    def test_unknown_kind_is_refused(self, tmp_path):
        train, _ = blob_splits(46)
        save_predictor(tmp_path / "model.npz",
                       fit_predictor(train, spec_for("model_sensitivity"), RngStream(47)))
        with np.load(tmp_path / "model.npz") as archive:
            payload = dict(archive)
        payload["kind"] = np.array("laplace")
        np.savez(tmp_path / "unknown.npz", **payload)
        with pytest.raises(ValueError, match="unknown mechanism kind 'laplace'"):
            load_predictor(tmp_path / "unknown.npz")

    @pytest.mark.parametrize("kind", ["model_sensitivity", "subsample_aggregate"])
    def test_file_without_calibration_record_is_refused(self, kind, tmp_path):
        # The older layout: three noise fields, where training-side kinds
        # recorded "none" even after adding noise.
        payload = {"kind": np.array(kind), "epsilon": np.array(1.0),
                   "delta": np.array(0.0), "spec_budget": np.array(5),
                   "noise_family": np.array("none"), "noise_scale": np.array(0.0),
                   "vote_beta": np.array(0.0 if kind == "model_sensitivity" else 0.2)}
        if kind == "model_sensitivity":
            payload["theta"] = np.zeros((3, 2))
        else:
            payload.update(ensemble=np.zeros((4, 3, 2)), budget_total=np.array(5),
                           budget_used=np.array(0))
        np.savez(tmp_path / "old.npz", **payload)
        with pytest.raises(ValueError, match="no calibration record"):
            load_predictor(tmp_path / "old.npz")

    @pytest.mark.parametrize("record", [
        {"family": "laplace", "scale": 1.0, "rho": 0.0},
        {"family": "gaussian", "sigma": 1.0},
        {"family": "gaussian", "scale": 0.0},
        {"family": "radial_exponential", "scale": float("inf")},
        {"family": "exponential_mechanism", "scale": float("nan")},
        {"family": "none", "scale": 0.5},
        {"family": "gaussian", "scale": 1.0, "rho": -1.0},
        {"family": "gaussian", "scale": "1.0"},
    ])
    def test_malformed_calibration_record_is_refused(self, record, tmp_path):
        train, _ = blob_splits(31, n_train_per_class=20)
        predictor = fit_predictor(train, spec_for("prediction_sensitivity", budget=5),
                                  RngStream(32))
        path = tmp_path / "tampered.npz"
        save_predictor(path, predictor)
        with np.load(path) as archive:
            payload = dict(archive)
        payload["calibration"] = np.array(json.dumps(record))
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="malformed calibration record"):
            load_predictor(path)
        with pytest.raises((TypeError, ValueError)):
            Calibration(**record)

    @pytest.mark.parametrize("kind, changes, message", [
        ("prediction_sensitivity", {"budget_total": None, "budget_used": None},
         "budget and rng records"),
        ("prediction_sensitivity", {"rng_state": None}, "budget and rng records"),
        ("subsample_aggregate", {"rng_state": None}, "budget and rng records"),
        ("model_sensitivity", {"theta": None}, "finite 2-D theta"),
        ("subsample_aggregate", {"ensemble": None}, "finite 3-D ensemble"),
        ("model_sensitivity", {"theta": np.full((6, 3), np.nan)}, "finite 2-D theta"),
        ("prediction_sensitivity", {"theta": np.zeros(6)}, "finite 2-D theta"),
        ("subsample_aggregate", {"ensemble": np.full((4, 6, 3), np.inf)},
         "finite 3-D ensemble"),
        ("model_sensitivity", {"epsilon": None}, "epsilon, delta and spec_budget"),
        ("prediction_sensitivity", {"delta": None}, "epsilon, delta and spec_budget"),
        ("subsample_aggregate", {"spec_budget": None}, "epsilon, delta and spec_budget"),
        ("nonprivate", {"kind": None}, "needs its kind"),
    ])
    def test_file_that_cannot_answer_is_refused(self, kind, changes, message, tmp_path):
        train, _ = blob_splits(33, n_train_per_class=20)
        path = tmp_path / "tampered.npz"
        save_predictor(path, fit_predictor(train, spec_for(kind, budget=5, n_models=4),
                                           RngStream(34)))
        with np.load(path) as archive:
            payload = dict(archive)
        for key, value in changes.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        np.savez(path, **payload)
        with pytest.raises(ValueError, match=message) as refused:
            load_predictor(path)
        assert str(path) in str(refused.value)

    def test_round_trip_ensemble(self, tmp_path):
        train, test = blob_splits(26)
        spec = spec_for("subsample_aggregate", budget=5, n_models=6)
        predictor = fit_predictor(train, spec, RngStream(29))
        path = tmp_path / "ens.npz"
        save_predictor(path, predictor)
        loaded = load_predictor(path)
        assert np.array_equal(loaded.ensemble, predictor.ensemble)
        assert loaded.calibration == predictor.calibration
        a = predictor.predict(test.features[0])
        b = loaded.predict(test.features[0])
        assert a == b  # identical rng state resumes identically


def twin(predictor, budget):
    """A copy with a fresh budget and the same noise-stream position."""
    return dataclasses.replace(predictor, budget=BudgetState(budget),
                               rng=copy.deepcopy(predictor.rng))


def degenerate_ensemble(seed, n_models=40):
    """Sub-models of ~5 examples over 10 classes: most never see several
    classes and score those classes equal up to rounding."""
    train, test = blob_splits(seed, n_train_per_class=20, n_test_per_class=20,
                              c=10, d=20, sep=1.0)
    spec = spec_for("subsample_aggregate", eps=50.0, budget=200, n_models=n_models)
    return fit_predictor(train, spec, RngStream(seed, 1)), test


class TestBatchAnswering:
    @pytest.mark.parametrize("kind", ["prediction_sensitivity", "subsample_aggregate"])
    def test_rejected_batch_spends_nothing(self, kind):
        train, test = blob_splits(30)
        predictor = fit_predictor(train, spec_for(kind, budget=5, n_models=8), RngStream(31))
        state = copy.deepcopy(predictor.rng.bit_generator.state)
        with pytest.raises(BudgetExhaustedError):
            answer_queries(predictor, test.features[:10])
        outside = test.features[:5].copy()
        outside[3] = np.full(train.n_features, 1.0)
        with pytest.raises(ValueError, match="unit L2 ball"):
            answer_queries(predictor, outside)
        for bad in (np.nan, np.inf):
            rows = test.features[:5].copy()
            rows[2, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                answer_queries(predictor, rows)
            with pytest.raises(ValueError, match="finite"):
                predictor.predict(rows[2])
        with pytest.raises(ValueError):
            answer_queries(predictor, test.features[:5, :-1])
        assert predictor.budget.used == 0
        assert predictor.rng.bit_generator.state == state
        answer_queries(predictor, test.features[:2])
        with pytest.raises(BudgetExhaustedError):
            answer_queries(predictor, test.features[:4])
        assert predictor.budget.used == 2
        assert answer_queries(predictor, test.features[:0]).shape == (0,)
        assert len(answer_queries(predictor, test.features[:3])) == 3
        assert predictor.budget.remaining == 0

    @pytest.mark.parametrize("norm, inside", [(1.0 + 5e-10, True), (1.0 + 2e-9, False)])
    def test_training_rows_and_queries_share_the_norm_tolerance(self, norm, inside):
        train, _ = blob_splits(32)
        predictor = fit_predictor(train, spec_for("prediction_sensitivity", budget=5),
                                  RngStream(33))
        row = np.zeros((1, train.n_features))
        row[0, 0] = norm
        if inside:
            LabeledDataset(features=row, labels=one_hot([0], 3))
            assert answer_queries(predictor, row).shape == (1,)
            return
        with pytest.raises(ValueError, match="unit L2 ball"):
            LabeledDataset(features=row, labels=one_hot([0], 3))
        with pytest.raises(ValueError, match="unit L2 ball"):
            answer_queries(predictor, row)

    def test_training_rows_and_queries_get_one_verdict_at_the_boundary(self):
        # Rows scaled to norm 1 + 1e-9 land on both sides of the tolerance by
        # rounding; a training row and a query pass or fail the rule together.
        train, _ = blob_splits(34, d=3)
        predictor = fit_predictor(train, spec_for("prediction_sensitivity", budget=5000),
                                  RngStream(35))
        rows = np.random.default_rng(0).standard_normal((1000, 3))
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True) * (1 + 1e-9)

        def accepts(call, *args):
            try:
                call(*args)
            except ValueError as exc:
                assert "unit L2 ball" in str(exc)
                return False
            return True

        verdicts = np.array([(accepts(LabeledDataset, row[None], one_hot([0], 3)),
                              accepts(predictor.predict, row),
                              accepts(answer_queries, predictor, row[None])) for row in rows])
        assert 0 < verdicts[:, 0].sum() < len(rows)
        np.testing.assert_array_equal(verdicts[:, 1], verdicts[:, 0])
        np.testing.assert_array_equal(verdicts[:, 2], verdicts[:, 0])
        assert predictor.budget.used == 2 * verdicts[:, 0].sum()

    def test_query_refusal_reports_the_max_norm(self):
        train, _ = blob_splits(36)
        predictor = fit_predictor(train, spec_for("prediction_sensitivity", budget=5),
                                  RngStream(37))
        rows = np.zeros((2, train.n_features))
        rows[0, 0], rows[1, :2] = 0.5, (3.0, 4.0)
        message = r"query must lie in the unit L2 ball; max norm 5$"
        for call in (lambda: answer_queries(predictor, rows), lambda: predictor.predict(rows[1])):
            with pytest.raises(ValueError, match=message):
                call()
        assert predictor.budget.used == 0

    @pytest.mark.parametrize("case", ["gaussian", "radial", "subsample", "subsample_reloaded"])
    def test_batch_equals_one_by_one(self, case, tmp_path):
        if case.startswith("subsample"):
            predictor, test = degenerate_ensemble(32)
        else:
            train, test = blob_splits(32)
            delta = 1e-5 if case == "gaussian" else 0.0
            spec = spec_for("prediction_sensitivity", delta=delta, budget=200)
            predictor = fit_predictor(train, spec, RngStream(33))
        rows = test.features[:120]
        single = twin(predictor, 200)
        if case == "subsample_reloaded":
            save_predictor(tmp_path / "ens.npz", predictor)
            predictor = load_predictor(tmp_path / "ens.npz")
        batch = twin(predictor, 200)
        labels = np.concatenate([answer_queries(batch, rows[:70]),
                                 answer_queries(batch, rows[70:])])
        expected = [single.predict(row) for row in rows]
        if single.kind == "prediction_sensitivity":
            expected = [int(np.argmax(logits)) for logits in expected]
        np.testing.assert_array_equal(labels, expected)
        assert len(set(expected)) > 1
        assert batch.budget.used == single.budget.used == len(rows)
        assert batch.rng.bit_generator.state == single.rng.bit_generator.state

    def test_vote_counts_match_per_model_loop(self):
        train, test = blob_splits(34, n_train_per_class=150, c=4, d=8)
        spec = spec_for("subsample_aggregate", n_models=9)
        predictor = fit_predictor(train, spec, RngStream(35))
        built, ties = predictor.ensemble, predictor.ties
        plain = np.ascontiguousarray(built)
        rows = test.features
        expected = np.zeros((len(rows), train.n_classes), dtype=int)
        for theta in plain:
            expected[np.arange(len(rows)), np.argmax(rows @ theta, axis=1)] += 1
        for ensemble in (built, plain):
            np.testing.assert_array_equal(ensemble_vote_counts(ensemble, rows, ties), expected)
            for i in (0, 17):
                np.testing.assert_array_equal(ensemble_vote_counts(ensemble, rows[i:i + 1], ties),
                                              expected[i:i + 1])

    def test_near_tied_votes_agree_between_one_row_and_batch(self):
        predictor, test = degenerate_ensemble(36)
        batch = ensemble_vote_counts(predictor.ensemble, test.features, predictor.ties)
        single = np.concatenate([ensemble_vote_counts(predictor.ensemble, x[None], predictor.ties)
                                 for x in test.features])
        np.testing.assert_array_equal(batch, single)

    def test_ensemble_is_the_stacked_solve_of_the_partition(self):
        train, _ = blob_splits(39, n_train_per_class=40, c=3, d=5)
        spec = spec_for("subsample_aggregate", n_models=8)
        predictor = fit_noise_free(train, spec, RngStream(39).generator())
        parts = partition_indices(train.n_examples, 8, RngStream(39).generator())
        assert train.labels[parts].any(axis=1).all()  # no absent class to average
        expected = minimize_erm_stack(train.features[parts], train.labels[parts],
                                      spec.train_config())
        np.testing.assert_array_equal(predictor.ensemble.view(np.uint64),
                                      expected.view(np.uint64))

    def test_absent_class_columns_are_bitwise_equal(self):
        predictor, _ = degenerate_ensemble(38)
        train, _ = blob_splits(38, n_train_per_class=20, n_test_per_class=20,
                               c=10, d=20, sep=1.0)
        parts = partition_indices(train.n_examples, 40, RngStream(38, 1).generator())
        absent = ~train.labels[parts].any(axis=1)  # (T, C)
        assert (absent.sum(axis=1) >= 2).sum() > 10
        for theta, missing, ties in zip(predictor.ensemble, absent, predictor.ties):
            columns = theta[:, missing]
            assert (columns == columns[:, :1]).all()
            lowest = np.flatnonzero(missing)[0]
            np.testing.assert_array_equal(ties[missing], lowest)
            np.testing.assert_array_equal(ties[~missing], np.flatnonzero(~missing))

    @pytest.mark.parametrize("seed", [1, 5])
    @pytest.mark.parametrize("t, c, d", [(33, 10, 20), (11, 5, 9)])
    def test_batch_votes_equal_one_by_one_at_odd_shapes(self, t, c, d, seed):
        # ~5 rows per sub-model leave several classes unseen; at these T * C a
        # matrix-matrix product rounds some equal columns apart.
        train, test = blob_splits(seed, n_train_per_class=-(-5 * t // c),
                                  n_test_per_class=40, c=c, d=d, sep=1.0)
        spec = spec_for("subsample_aggregate", eps=50.0, budget=1000, n_models=t)
        predictor = fit_predictor(train, spec, RngStream(seed, 1))
        ensemble, ties, rows = predictor.ensemble, predictor.ties, test.features
        assert (ties != np.arange(c)).any()

        def votes(size):
            return np.concatenate([ensemble_vote_counts(ensemble, rows[i:i + size], ties)
                                   for i in range(0, len(rows), size)])

        single = votes(1)
        for size in (7, len(rows)):
            np.testing.assert_array_equal(votes(size), single)

    def test_identical_columns_vote_for_the_lower_index(self):
        rng = np.random.default_rng(39)
        ensemble = rng.standard_normal((33, 20, 10))
        # At this shape a matrix-matrix product can round the copies apart.
        ensemble[:, :, 9] = ensemble[:, :, 2]
        predictor = PrivatePredictor(
            kind="subsample_aggregate", privacy=PrivacySpec(1.0, 0.0, 400),
            calibration=Calibration("exponential_mechanism", 1.0), ensemble=ensemble,
            budget=BudgetState(400), rng=RngStream(40).generator())
        np.testing.assert_array_equal(predictor.ties[:, 9], 2)
        rows = rng.standard_normal((200, 20))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        batch = ensemble_vote_counts(ensemble, rows, predictor.ties)
        single = np.concatenate([ensemble_vote_counts(ensemble, x[None], predictor.ties)
                                 for x in rows])
        assert batch[:, 2].sum() > 100
        assert batch[:, 9].sum() == single[:, 9].sum() == 0
        np.testing.assert_array_equal(batch, single)
        single_twin = twin(predictor, 200)
        labels = answer_queries(twin(predictor, 200), rows)
        np.testing.assert_array_equal(labels, [single_twin.predict(x) for x in rows])

    def test_tie_table_survives_save_and_replace(self, tmp_path):
        predictor, _ = degenerate_ensemble(42)
        assert (predictor.ties != np.arange(10)).any()
        save_predictor(tmp_path / "ens.npz", predictor)
        np.testing.assert_array_equal(load_predictor(tmp_path / "ens.npz").ties, predictor.ties)
        assert twin(predictor, 5).ties is predictor.ties

    def test_ensemble_is_stored_feature_major(self, tmp_path):
        predictor, _ = degenerate_ensemble(37, n_models=6)
        path = tmp_path / "ens.npz"
        save_predictor(path, predictor)
        for ensemble in (predictor.ensemble, load_predictor(path).ensemble):
            assert ensemble.shape == (6, 20, 10)
            assert ensemble.transpose(1, 0, 2).flags.c_contiguous
