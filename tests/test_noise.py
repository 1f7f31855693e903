import math

import numpy as np
import pytest
from scipy import stats

from privlin import RngStream, as_generator, sample_gaussian, sample_radial_exponential


class TestRngStream:
    def test_same_stream_is_bit_identical(self):
        a = sample_radial_exponential((3, 4), 2.0, RngStream(11, 5))
        b = sample_radial_exponential((3, 4), 2.0, RngStream(11, 5))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_radial_exponential((3, 4), 2.0, RngStream(11, 5))
        b = sample_radial_exponential((3, 4), 2.0, RngStream(11, 6))
        assert not np.array_equal(a, b)

    def test_call_order_reproduces(self):
        gen1 = RngStream(3, 0).generator()
        gen2 = RngStream(3, 0).generator()
        seq1 = [sample_gaussian((2, 2), 1.0, gen1) for _ in range(4)]
        seq2 = [sample_gaussian((2, 2), 1.0, gen2) for _ in range(4)]
        for a, b in zip(seq1, seq2):
            assert np.array_equal(a, b)

    def test_as_generator_refuses_other_types(self):
        with pytest.raises(TypeError, match="cannot build a random generator from str"):
            as_generator("0")


class TestRadialExponential:
    def test_shape_and_int_shape(self):
        assert sample_radial_exponential((5, 7), 1.0, RngStream(0)).shape == (5, 7)
        for sampler in (sample_radial_exponential, sample_gaussian):
            with pytest.raises(TypeError):  # shapes are (rows, cols) only
                sampler(6, 1.0, RngStream(0))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 10), (4, 3), (50, 10)])
    def test_draws_equal_the_linalg_norm_formula(self, shape):
        # The sampler normalises by sqrt(d @ d); np.linalg.norm is the same arithmetic.
        rng, reference = RngStream(12).generator(), RngStream(12).generator()
        n = shape[0] * shape[1]
        for _ in range(300):
            direction = reference.standard_normal(n)
            radius = reference.gamma(shape=n, scale=1.0 / 1.5)
            expected = (radius / np.linalg.norm(direction) * direction).reshape(shape)
            np.testing.assert_array_equal(sample_radial_exponential(shape, 1.5, rng), expected)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 10), (3, 5)])
    def test_count_draws_equal_single_draws(self, shape):
        single, batch = RngStream(13).generator(), RngStream(13).generator()
        expected = np.concatenate([sample_radial_exponential(shape, 0.7, single)
                                   for _ in range(9)])
        draws = sample_radial_exponential(shape, 0.7, batch, count=9)
        assert draws.shape == (9 * shape[0], shape[1])
        np.testing.assert_array_equal(draws, expected)
        assert batch.bit_generator.state == single.bit_generator.state

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count must be at least 1, got 0"):
            sample_radial_exponential((2, 2), 1.0, RngStream(0), count=0)

    def test_norm_mean_matches_gamma(self):
        # ||B||_F is Gamma(n, beta) with mean n / beta = 5 here.
        rng = RngStream(1).generator()
        norms = np.array([
            np.linalg.norm(sample_radial_exponential((5, 2), 2.0, rng))
            for _ in range(20000)
        ])
        se = math.sqrt(10) / 2.0 / math.sqrt(norms.size)
        assert abs(norms.mean() - 5.0) < 4 * se

    def test_mean_is_zero_matrix(self):
        rng = RngStream(2).generator()
        total = np.zeros((4, 3))
        draws = 20000
        for _ in range(draws):
            total += sample_radial_exponential((4, 3), 1.0, rng)
        # Entry std is O(n / beta); spherical symmetry kills the mean.
        assert np.abs(total / draws).max() < 0.2

    def test_scalar_case_is_exponential(self):
        rng = RngStream(3).generator()
        samples = np.array([
            sample_radial_exponential((1, 1), 1.0, rng)[0, 0] for _ in range(100000)
        ])
        result = stats.kstest(np.abs(samples), "expon")
        assert result.pvalue > 0.01

    def test_direction_projections(self):
        # Projections of the unit direction onto a fixed axis: mean 0, var 1/n.
        rng = RngStream(4).generator()
        n = 16
        draws = np.stack([
            sample_radial_exponential((4, 4), 3.0, rng) for _ in range(20000)
        ])
        directions = draws.reshape(-1, n)
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        projections = directions[:, 0]
        assert abs(projections.mean()) < 0.01
        assert projections.var() == pytest.approx(1.0 / n, rel=0.1)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            sample_radial_exponential((2, 2), 0.0, RngStream(0))
        with pytest.raises(ValueError):
            sample_radial_exponential((2, 2), -1.0, RngStream(0))


class TestGaussian:
    def test_entry_variance(self):
        rng = RngStream(5).generator()
        sigma = 1.7
        entries = sample_gaussian((1000, 1000), sigma, rng).ravel()
        target = sigma * sigma
        se = target * math.sqrt(2.0 / entries.size)
        assert abs(entries.var() - target) < 3 * se

    def test_mean_is_zero(self):
        rng = RngStream(6).generator()
        entries = sample_gaussian((1000, 100), 2.0, rng).ravel()
        assert abs(entries.mean()) < 3 * 2.0 / math.sqrt(entries.size)

    def test_norm_is_chi_square(self):
        rng = RngStream(7).generator()
        sigma, n = 0.8, 9
        sq_norms = np.array([
            np.sum(sample_gaussian((3, 3), sigma, rng) ** 2) for _ in range(100000)
        ])
        result = stats.kstest(sq_norms / sigma**2, "chi2", args=(n,))
        assert result.pvalue > 0.01

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            sample_gaussian((2, 2), 0.0, RngStream(0))
        with pytest.raises(ValueError):
            sample_gaussian((2, 2), -0.5, RngStream(0))

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (-1, 3)])
    def test_invalid_shape(self, shape):
        for sample in (sample_gaussian, sample_radial_exponential):
            with pytest.raises(ValueError, match="noise shape must be positive"):
                sample(shape, 1.0, RngStream(0))
