"""Revival prediction (commensurability rule) and detection on echo series."""

import math

import numpy as np
import pytest

from creutz import (
    DomainError,
    IncommensurateAngleError,
    InvalidQuenchTargetError,
    LadderParams,
    LESeries,
    NoRevivalError,
    QuenchSpec,
    detect_revivals,
    loschmidt_echo,
    predict_revival,
)

NEAR_CRITICAL = 0.0016 * math.pi


def quench_to_zero(n, j=1.0, jv=1.0, theta1=NEAR_CRITICAL):
    return QuenchSpec(
        params=LadderParams(j_h=j, j_v=jv, j_d=j, theta=0.0, n_rungs=n),
        theta_pre=theta1,
        theta_post=0.0,
    )


def simulate(spec, period, dt=0.02):
    times = np.arange(0.0, 2.0 * period + dt, dt)
    return loschmidt_echo(spec, times, include_la=False)


class TestPrediction:
    @pytest.mark.parametrize(
        "jv, j, n, base, expected_period",
        [
            (1.0, 1.0, 100, 3, 300 / (2 * math.sqrt(3))),
            (1.0, 1.0, 99, 3, 99 / (2 * math.sqrt(3))),
            (math.sqrt(3.0), 1.0, 500, 12, 1500 / 2.0),
            (math.sqrt(3.0), 1.0, 1000, 12, 3000 / 2.0),
            (math.sqrt(3.0) - 1.0, math.sqrt(2.0), 300, 24,
             600 / (2 * math.sqrt(4 + 2 * math.sqrt(3)))),
        ],
    )
    def test_periods(self, jv, j, n, base, expected_period):
        prediction = predict_revival(quench_to_zero(n, j=j, jv=jv))
        assert prediction.base == base
        assert prediction.effective_n == math.lcm(base, n)
        assert prediction.period == pytest.approx(expected_period, rel=1e-12)
        assert prediction.commensurate == (n % base == 0)

    def test_commensurate_flag_consistency(self):
        assert predict_revival(quench_to_zero(99)).commensurate
        assert not predict_revival(quench_to_zero(100)).commensurate
        assert predict_revival(quench_to_zero(100)).effective_n == 300

    def test_quench_to_pi_is_also_critical(self):
        spec = QuenchSpec(
            params=LadderParams(1.0, 1.0, 1.0, 0.0, 60),
            theta_pre=math.pi - NEAR_CRITICAL,
            theta_post=math.pi,
        )
        prediction = predict_revival(spec)
        assert prediction.period == pytest.approx(60 / (2 * math.sqrt(3)), rel=1e-12)

    def test_noncritical_target_rejected(self):
        spec = QuenchSpec(
            params=LadderParams(1.0, 1.0, 1.0, 0.0, 30),
            theta_pre=0.1,
            theta_post=0.3,
        )
        with pytest.raises(InvalidQuenchTargetError):
            predict_revival(spec)

    def test_incommensurate_angle_rejected(self):
        with pytest.raises(IncommensurateAngleError):
            predict_revival(quench_to_zero(30, jv=0.37), q_max=64, tol=1e-9)

    def test_gapless_regime_rejected(self):
        with pytest.raises(DomainError):
            predict_revival(quench_to_zero(30, jv=2.5))

    def test_vanishing_group_velocity_rejected(self):
        # j = j_v = 5e-324: 4 j^2 - j_v^2 underflows to 0, so the period
        # would divide by zero
        spec = QuenchSpec(LadderParams(j_h=5e-324, j_v=5e-324, j_d=5e-324, theta=0.0, n_rungs=6),
                          0.0016 * np.pi, 0.0)
        with pytest.raises(DomainError):
            predict_revival(spec)

    def test_horizon_is_multiple_of_period(self):
        prediction = predict_revival(quench_to_zero(100))
        assert prediction.horizon == pytest.approx(5 * prediction.period)


class TestDetection:
    def test_first_revival_reference_size(self):
        spec = quench_to_zero(100)
        prediction = predict_revival(spec)
        detection = detect_revivals(simulate(spec, prediction.period))
        assert detection.first_revival == pytest.approx(86.58, rel=0.01)
        assert 0.0 < detection.mean_level < 1.0
        assert detection.relaxation_time < detection.first_revival

    def test_commensurate_size_shorter_period(self):
        spec = quench_to_zero(99)
        prediction = predict_revival(spec)
        detection = detect_revivals(simulate(spec, prediction.period))
        assert detection.first_revival == pytest.approx(prediction.period, rel=0.02)

    def test_refinement_invariance(self):
        spec = quench_to_zero(100)
        prediction = predict_revival(spec)
        coarse = detect_revivals(simulate(spec, prediction.period, dt=0.04))
        fine = detect_revivals(simulate(spec, prediction.period, dt=0.02))
        assert abs(coarse.first_revival - fine.first_revival) < 0.04

    def test_revivals_clear_threshold(self):
        spec = quench_to_zero(100)
        prediction = predict_revival(spec)
        series = simulate(spec, prediction.period)
        detection = detect_revivals(series)
        assert np.all(np.diff(detection.revival_times) > 0)
        for t in detection.revival_times:
            i = int(np.argmin(np.abs(series.times - t)))
            window = series.le[max(0, i - 5) : i + 6]
            assert window.max() > detection.mean_level

    def test_absolute_margin_can_find_nothing(self):
        spec = quench_to_zero(100)
        prediction = predict_revival(spec)
        with pytest.raises(NoRevivalError):
            detect_revivals(simulate(spec, prediction.period), margin=1.0)

    @pytest.mark.parametrize("margin", [None, 1e-17])
    def test_flat_series_has_no_revival(self, margin):
        # the derived threshold of a flat echo is its mean, and a margin
        # below one ulp of the mean rounds away: neither rises above it
        series = LESeries(times=np.linspace(0.0, 10.0, 101), le=np.full(101, 0.5), la=None,
                          rate=np.full(101, math.log(2.0) / 10), n_rungs=10)
        with pytest.raises(NoRevivalError, match="does not rise above mean_level"):
            detect_revivals(series, margin=margin)

    @pytest.mark.parametrize("margin", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_margin_outside_positive_finite(self, margin):
        # a negative margin put the threshold below every echo value and
        # reported a "revival"; nan and inf ended as NoRevivalError
        series = simulate(quench_to_zero(20), 40.0)
        with pytest.raises(DomainError, match="margin must be positive and finite"):
            detect_revivals(series, margin=margin)

    def test_rejects_nonuniform_grid(self):
        times = np.array([0.0, 0.1, 0.3, 0.35, 0.9] * 10).cumsum()
        series = loschmidt_echo(quench_to_zero(10), times)
        with pytest.raises(DomainError):
            detect_revivals(series)

    def test_rejects_bad_window(self):
        spec = quench_to_zero(50)
        prediction = predict_revival(spec)
        with pytest.raises(DomainError):
            detect_revivals(simulate(spec, prediction.period), window=0)

    def test_rejects_short_series(self):
        series = LESeries(
            times=np.linspace(0, 1, 5),
            le=np.ones(5),
            la=np.ones(5, dtype=complex),
            rate=np.zeros(5),
            n_rungs=10,
        )
        with pytest.raises(DomainError):
            detect_revivals(series)
