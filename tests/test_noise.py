"""Tests for coding-phase noise estimation and the widened rate bounds."""

import math

import numpy as np
import pytest

from threshauth.channel import _STREAM_TAG, CODED_PHASE_TAG, swiss_hitomi_rates
from threshauth.loss import GapCollapseError
from threshauth.noise import (
    NoiseEstimate,
    TransparentCode,
    coded_phase_streams,
    default_transparent_code,
    high_probability_rates,
    simulate_coded_phase,
)

# frozen with a 40-digit arbitrary precision script: 102 errors out of a
# 1024-symbol codeword at 99% confidence
POINT_102 = 0.099609375
HALF_WIDTH_102 = 0.05086323845996029
HP_ATTACKER_102 = 0.5752363067299801
HP_USER_102 = 0.09749227308007942


class TestTransparentCode:
    def test_default_uses_quarter_block_radius(self):
        code = default_transparent_code(1024)
        assert code.codeword_length == 1024
        assert code.correction_radius == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            TransparentCode(0, 0)
        with pytest.raises(ValueError):
            TransparentCode(8, 9)
        with pytest.raises(ValueError):
            TransparentCode(8, -1)

    @pytest.mark.parametrize(
        "length, radius", [(2.5, 0), (8.0, 2), (True, 0), (8, 2.0), (8, True)]
    )
    def test_rejects_non_integer_counts(self, length, radius):
        # a float length would pass construction and fail later in the coded phase
        with pytest.raises(ValueError):
            TransparentCode(length, radius)

    def test_accepts_numpy_integers(self):
        code = TransparentCode(np.int64(8), np.int64(2))
        theta, _ = simulate_coded_phase(0.5, code, coded_phase_streams(1, (0,))[0])
        assert 0 <= theta <= 8


class TestNoiseEstimate:
    def test_frozen_example(self):
        est = NoiseEstimate(102, 1024, 0.01)
        assert est.point_estimate == pytest.approx(POINT_102, abs=1e-15)
        assert est.half_width == pytest.approx(HALF_WIDTH_102, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseEstimate(-1, 1024, 0.01)
        with pytest.raises(ValueError):
            NoiseEstimate(1025, 1024, 0.01)
        with pytest.raises(ValueError):
            NoiseEstimate(10, 1024, 0.0)
        with pytest.raises(ValueError):
            NoiseEstimate(10, 1024, 1.0)

    @pytest.mark.parametrize(
        "errors, length",
        [(0, 0), (0, -4), (1, 2.5), (1, 4.0), (True, 4), (1.0, 4), (0, True), (math.nan, 4)],
    )
    def test_rejects_non_integer_counts(self, errors, length):
        # (0, 0) used to divide by zero; the others were accepted
        with pytest.raises(ValueError):
            NoiseEstimate(errors, length, 0.01)

    def test_accepts_numpy_integers(self):
        est = NoiseEstimate(np.int64(102), np.int64(1024), 0.01)
        assert est == NoiseEstimate(102, 1024, 0.01)

    def test_half_width_shrinks_with_block_length(self):
        widths = [NoiseEstimate(0, k, 0.01).half_width for k in (256, 1024, 4096)]
        assert widths[0] > widths[1] > widths[2]

    def test_half_width_grows_as_confidence_tightens(self):
        loose = NoiseEstimate(0, 1024, 0.1).half_width
        tight = NoiseEstimate(0, 1024, 0.001).half_width
        assert tight > loose


class TestHighProbabilityRates:
    def test_frozen_example(self):
        rates = high_probability_rates(NoiseEstimate(102, 1024, 0.01))
        assert rates.attacker_floor == pytest.approx(HP_ATTACKER_102, abs=1e-15)
        assert rates.user_ceiling == pytest.approx(HP_USER_102, abs=1e-15)

    def test_widening_margins(self):
        # the attacker floor moves up from the plug-in value and the user
        # ceiling moves down, each by the frozen estimation margin
        rates = high_probability_rates(NoiseEstimate(102, 1024, 0.01))
        plug_attacker = (1.0 + POINT_102) / 2.0
        plug_user = 2.0 * POINT_102
        assert rates.attacker_floor - plug_attacker == pytest.approx(
            0.02543161922998014, abs=1e-15
        )
        assert plug_user - rates.user_ceiling == pytest.approx(
            0.10172647691992058, abs=1e-15
        )

    def test_user_ceiling_clamps_at_zero(self):
        rates = high_probability_rates(NoiseEstimate(0, 64, 0.01))
        assert rates.user_ceiling == 0.0
        assert rates.attacker_floor > 0.5

    def test_collapse_raises(self):
        with pytest.raises(GapCollapseError):
            high_probability_rates(NoiseEstimate(615, 1024, 0.01))

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: the margins narrow the bounds they claim to widen",
    )
    @pytest.mark.parametrize("w", [0.001, 0.05, 0.2])
    def test_bounds_cover_the_true_rates_with_probability_one_minus_delta(self, w):
        # the error count of a k-symbol coded phase is Bin(k, w); the bounds
        # hold when the attacker floor is at most the true attacker rate and
        # the user ceiling at least the true user rate
        k, delta, draws = 1024, 0.01, 2000
        true = swiss_hitomi_rates(w)
        covered = 0
        for theta in np.random.default_rng(2010).binomial(k, w, draws).tolist():
            rates = high_probability_rates(NoiseEstimate(theta, k, delta))
            covered += (
                rates.attacker_floor <= true.attacker_floor
                and rates.user_ceiling >= true.user_ceiling
            )
        # a 3-sigma binomial margin below the promised 1 - delta
        least = draws * (1 - delta) - 3 * math.sqrt(draws * delta * (1 - delta))
        assert covered >= least, f"covered in {covered} of {draws} draws"

    def test_longer_blocks_approach_plug_in_rates(self):
        # both margins scale like 1/sqrt(k), so the widened bounds close
        # in on the plug-in mapping of the same point estimate
        wide = high_probability_rates(NoiseEstimate(40, 400, 0.01))
        narrow = high_probability_rates(NoiseEstimate(1000, 10_000, 0.01))
        assert narrow.attacker_floor < wide.attacker_floor
        assert narrow.user_ceiling > wide.user_ceiling
        plug_gap = (1.0 + 0.1) / 2.0 - 2.0 * 0.1
        assert plug_gap < narrow.gap < wide.gap


class TestSimulateCodedPhase:
    def test_noiseless_channel_never_aborts(self):
        rng = np.random.Generator(np.random.PCG64(0))
        theta, aborted = simulate_coded_phase(
            0.0, default_transparent_code(1024), rng
        )
        assert (theta, aborted) == (0, False)

    def test_certain_flips_overwhelm_small_code(self):
        rng = np.random.Generator(np.random.PCG64(0))
        theta, aborted = simulate_coded_phase(1.0, TransparentCode(3, 1), rng)
        assert (theta, aborted) == (3, True)

    def test_deterministic_under_fixed_seed(self):
        code = default_transparent_code(1024)
        a = simulate_coded_phase(
            0.1, code, np.random.Generator(np.random.PCG64(42))
        )
        b = simulate_coded_phase(
            0.1, code, np.random.Generator(np.random.PCG64(42))
        )
        assert a == b

    def test_mean_flip_count_matches_channel(self):
        code = default_transparent_code(1024)
        rng = np.random.Generator(np.random.PCG64(2024))
        runs = 20_000
        thetas = np.empty(runs)
        for i in range(runs):
            thetas[i], _ = simulate_coded_phase(0.1, code, rng)
        sigma_mean = math.sqrt(1024 * 0.1 * 0.9) / math.sqrt(runs)
        assert abs(thetas.mean() - 102.4) < 3.0 * sigma_mean

    def test_estimates_are_conditionally_unbiased(self):
        # at moderate noise the abort event is essentially impossible, so
        # the kept estimates should average to the true flip probability
        code = default_transparent_code(1024)
        for w in (0.01, 0.05):
            rng = np.random.Generator(np.random.PCG64(7))
            runs = 5_000
            kept = []
            for _ in range(runs):
                theta, aborted = simulate_coded_phase(w, code, rng)
                if not aborted:
                    kept.append(theta / 1024.0)
            assert len(kept) == runs
            stderr = math.sqrt(w * (1 - w) / 1024.0) / math.sqrt(runs)
            assert abs(np.mean(kept) - w) < 3.0 * stderr


class TestCodedPhaseStream:
    def test_one_stream_per_seed_and_index(self):
        def draws(seed, index):
            return tuple(coded_phase_streams(seed, (index,))[0].random(4))

        assert draws(7, 0) == draws(7, 0)
        assert len({draws(seed, index) for seed in (7, 8) for index in (0, 1)}) == 4

    def test_tag_is_disjoint_from_identity_tags(self):
        assert CODED_PHASE_TAG not in _STREAM_TAG.values()

    def test_rejects_a_master_seed_that_is_not_an_integer_at_least_zero(self):
        for bad in (-1, 2.5, True, "7"):
            with pytest.raises(ValueError, match="master_seed"):
                coded_phase_streams(bad, (0,))
