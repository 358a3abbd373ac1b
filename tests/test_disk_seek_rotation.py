"""Tests for the seek and rotation models."""

from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.disk import FILE_BLOCK_BYTES, make_xp32150_disk
from repro.disk.rotation import RotationModel
from repro.disk.seek import (
    LinearSeekModel,
    SeekModel,
    _mean_over_random_pairs,
    fit_seek_model,
)

#: The calibrated Table 1 seek model, pinned bit for bit: the goldens,
#: fleet fingerprints and perfbench digests all rest on these values.
TABLE1_SEEK = SeekModel(cylinders=3832, settle_ms=1.5,
                        sqrt_coeff=0.19169051191701653,
                        linear_base=3.9096050312453055,
                        linear_coeff=0.0036779939881896877, knee=958)


def scalar_mean(model: SeekModel) -> float:
    """Reference E[seek]: the scalar model summed left to right."""
    n = model.cylinders
    total = 0.0
    for d in range(1, n):
        total += 2.0 * (n - d) / (n * n) * model.seek_of_distance(d)
    return total


class TestFitSeekModel:
    def test_hits_calibration_targets(self):
        model = fit_seek_model(3832, average_ms=8.5, maximum_ms=18.0)
        assert model.expected_random_seek_ms() == pytest.approx(8.5,
                                                                abs=1e-12)
        assert model.max_seek_ms == pytest.approx(18.0, abs=1e-12)

    def test_table1_model_is_pinned(self):
        assert fit_seek_model(3832, 8.5, 18.0) == TABLE1_SEEK

    def test_fcfs_uniform_requests_average_table1_seek(self):
        """Analytic oracle: FCFS over uniform random cylinders converges
        to the 8.5 ms expected seek the model is calibrated to."""
        disk = make_xp32150_disk()
        rng = Random(1)
        cylinders = disk.geometry.cylinders
        seeks = [disk.serve(rng.randrange(cylinders), FILE_BLOCK_BYTES)
                 .seek_ms for _ in range(20_000)]
        assert sum(seeks) / len(seeks) == pytest.approx(8.5, rel=0.02)
        disk.reset(0)
        assert disk.serve(cylinders - 1, FILE_BLOCK_BYTES).seek_ms == 18.0

    def test_zero_distance_is_free(self):
        model = fit_seek_model(3832, 8.5, 18.0)
        assert model.seek_of_distance(0) == 0.0

    def test_monotone_in_distance(self):
        model = fit_seek_model(3832, 8.5, 18.0)
        previous = -1.0
        for d in range(0, 3832, 37):
            t = model.seek_of_distance(d)
            assert t >= previous
            previous = t

    def test_continuous_at_knee(self):
        model = fit_seek_model(1000, 8.5, 18.0)
        before = model.seek_of_distance(model.knee)
        after = model.seek_of_distance(model.knee + 1)
        assert after - before < 0.5

    def test_symmetric(self):
        model = fit_seek_model(100, 5.0, 10.0)
        assert model.seek_time(10, 90) == model.seek_time(90, 10)

    def test_negative_distance_rejected(self):
        model = fit_seek_model(100, 5.0, 10.0)
        with pytest.raises(ValueError):
            model.seek_of_distance(-1)

    def test_invalid_calibration(self):
        with pytest.raises(ValueError):
            fit_seek_model(1, 5.0, 10.0)
        with pytest.raises(ValueError):
            fit_seek_model(100, 10.0, 5.0)
        with pytest.raises(ValueError):
            fit_seek_model(100, 0.0, 5.0)

    @pytest.mark.slow
    @given(st.integers(min_value=1, max_value=3831))
    @settings(max_examples=50, deadline=None)
    def test_short_seeks_cheaper_than_max(self, distance):
        model = fit_seek_model(3832, 8.5, 18.0)
        assert 0 < model.seek_of_distance(distance) <= model.max_seek_ms


class TestMeanOverRandomPairs:
    """The vectorised mean is bit-identical to the scalar sum."""

    @settings(max_examples=150, deadline=None)
    @given(cylinders=st.integers(min_value=2, max_value=5000),
           settle_ms=st.floats(min_value=0.0, max_value=5.0),
           sqrt_coeff=st.floats(min_value=0.0, max_value=2.0),
           linear_base=st.floats(min_value=-5.0, max_value=20.0),
           linear_coeff=st.floats(min_value=0.0, max_value=0.05),
           knee_fraction=st.floats(min_value=0.0, max_value=1.2))
    def test_equals_scalar_sum(self, cylinders, settle_ms, sqrt_coeff,
                               linear_base, linear_coeff, knee_fraction):
        model = SeekModel(cylinders, settle_ms, sqrt_coeff, linear_base,
                          linear_coeff, int(cylinders * knee_fraction))
        assert _mean_over_random_pairs(model) == scalar_mean(model)

    @settings(max_examples=60, deadline=None)
    @given(cylinders=st.integers(min_value=2, max_value=5000),
           average_ms=st.floats(min_value=0.5, max_value=15.0),
           stroke=st.floats(min_value=1.1, max_value=4.0),
           settle_ms=st.sampled_from([0.0, 0.8, 1.5, 3.0]),
           knee_fraction=st.sampled_from([0.05, 0.25, 0.5, 0.9, 1.0]))
    def test_fitted_models_equal_scalar_sum(self, cylinders, average_ms,
                                            stroke, settle_ms,
                                            knee_fraction):
        model = fit_seek_model(cylinders, average_ms, average_ms * stroke,
                               settle_ms=settle_ms,
                               knee_fraction=knee_fraction)
        assert _mean_over_random_pairs(model) == scalar_mean(model)

    @pytest.mark.parametrize("cylinders", [2, 3, 17, 3832])
    def test_no_linear_phase(self, cylinders):
        """``span <= 0``: the knee sits on the last cylinder."""
        model = fit_seek_model(cylinders, 5.0, 10.0, knee_fraction=1.0)
        assert model.knee == cylinders - 1
        assert model.linear_coeff == 0.0
        assert _mean_over_random_pairs(model) == scalar_mean(model)

    def test_single_cylinder_has_no_seek(self):
        model = SeekModel(1, 1.5, 0.2, 3.0, 0.01, 0)
        assert _mean_over_random_pairs(model) == 0.0 == scalar_mean(model)


class TestLinearSeekModel:
    def test_affine(self):
        model = LinearSeekModel(100, startup_ms=2.0, per_cylinder_ms=0.1)
        assert model.seek_of_distance(0) == 0.0
        assert model.seek_of_distance(10) == pytest.approx(3.0)
        assert model.max_seek_ms == pytest.approx(2.0 + 9.9)

    def test_negative_rejected(self):
        model = LinearSeekModel(100, 1.0, 0.1)
        with pytest.raises(ValueError):
            model.seek_of_distance(-5)


class TestRotationModel:
    def test_7200_rpm(self):
        rotation = RotationModel(rpm=7200)
        assert rotation.revolution_ms == pytest.approx(8.333, abs=1e-3)
        assert rotation.average_latency_ms == pytest.approx(4.167, abs=1e-3)

    def test_deterministic_sample(self):
        rotation = RotationModel(rpm=7200)
        assert rotation.sample_latency_ms() == rotation.average_latency_ms

    def test_random_sample_within_revolution(self):
        rotation = RotationModel(rpm=7200)
        rng = Random(42)
        for _ in range(100):
            latency = rotation.sample_latency_ms(rng)
            assert 0.0 <= latency < rotation.revolution_ms

    def test_random_sample_mean(self):
        rotation = RotationModel(rpm=7200)
        rng = Random(7)
        samples = [rotation.sample_latency_ms(rng) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(
            rotation.average_latency_ms, rel=0.05
        )

    def test_invalid_rpm(self):
        with pytest.raises(ValueError):
            RotationModel(rpm=0)


class TestSeekModelDataclass:
    def test_direct_construction(self):
        model = SeekModel(cylinders=100, settle_ms=1.0, sqrt_coeff=0.5,
                          linear_base=2.0, linear_coeff=0.05, knee=25)
        assert model.seek_of_distance(16) == pytest.approx(1.0 + 0.5 * 4.0)
        assert model.seek_of_distance(50) == pytest.approx(2.0 + 2.5)
        assert not math.isnan(model.expected_random_seek_ms())
