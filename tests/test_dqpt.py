"""Critical modes, Fisher zero lines, predicted transition times, cusps."""

import math

import numpy as np
import pytest

from creutz import (
    DomainError,
    IncommensurateAngleError,
    InvalidQuenchTargetError,
    LadderParams,
    NoDqptError,
    QuenchSpec,
    commensurate_base,
    detect_cusps,
    dqpt_possible,
    finite_size_dqpt_gate,
    fisher_zero_lines,
    loschmidt_echo,
    mode_arrays,
    predict_dqpt_times,
    predict_revival,
    solve_critical_modes,
)

from creutz import dqpt
from creutz.model import _require_equal_hoppings

ACROSS = (0.25 * math.pi, -0.25 * math.pi)
SAME_PHASE = (0.1 * math.pi, 0.2 * math.pi)


def make_spec(th1, th2, n=100, j=1.0, jv=1.0):
    return QuenchSpec(
        params=LadderParams(j_h=j, j_v=jv, j_d=j, theta=0.0, n_rungs=n),
        theta_pre=th1,
        theta_post=th2,
    )


def critical_mode_residual(spec, k):
    """Residual of the amplitude-one condition (module docstring of
    ``creutz.dqpt``) at wavenumber ``k``."""
    j = _require_equal_hoppings(spec.params)
    s = dqpt._sine_product(spec)
    return (2.0 * j * math.cos(k) + spec.params.j_v) ** 2 + (2.0 * j * math.sin(k)) ** 2 * s


def bisect_roots(spec, n_scan=40001, tol=1e-13):
    """Sign-change scan plus bisection on the amplitude-one residual."""
    ks = np.linspace(1e-9, math.pi - 1e-9, n_scan)
    vals = np.array([critical_mode_residual(spec, k) for k in ks])
    roots = []
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
        lo, hi = ks[i], ks[i + 1]
        flo = critical_mode_residual(spec, lo)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fmid = critical_mode_residual(spec, mid)
            if flo * fmid <= 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    return roots


def longdouble_critical_modes(spec):
    """Roots in (0, pi) of the amplitude-one condition and its r, in ``np.longdouble``.

    The closed form cos(k +/- phi) = r with phi = atan sqrt(-s) and
    r = -j_v / (2 j sqrt(1 - s)), every operation in long double.  pi is
    the long-double pi: ``np.pi`` is the double pi, which would shift the
    reflected root 2 pi - (alpha + phi) and the (0, pi) filter by 1.2e-16.
    """
    ld = np.longdouble
    pi = np.arccos(ld(-1))
    s = np.sin(ld(spec.theta_pre)) * np.sin(ld(spec.theta_post))
    r = -ld(spec.params.j_v) / (2 * ld(spec.params.j_h) * np.sqrt(1 - s))
    if s > 0 or r < -1:
        return [], r
    alpha, phi = np.arccos(r), np.arctan(np.sqrt(-s))
    plus = alpha + phi if alpha + phi <= pi else 2 * pi - (alpha + phi)
    return sorted(k for k in {alpha - phi, plus} if 0 < k < pi), r


class TestPossibility:
    def test_across_quench(self):
        assert dqpt_possible(make_spec(*ACROSS))

    def test_same_phase(self):
        assert not dqpt_possible(make_spec(*SAME_PHASE))

    def test_quench_to_critical(self):
        assert dqpt_possible(make_spec(0.25 * math.pi, 0.0))


class TestCriticalModes:
    def test_closed_form_roots(self):
        # cos k* solves 6 c^2 + 4 c - 1 = 0 for the symmetric across-quench
        spec = make_spec(*ACROSS)
        modes = solve_critical_modes(spec)
        assert len(modes) == 2
        expected = sorted(
            [math.acos((-2.0 + math.sqrt(10.0)) / 6.0), math.acos((-2.0 - math.sqrt(10.0)) / 6.0)]
        )
        got = sorted(m.k_star for m in modes)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_residual_and_unit_amplitude(self):
        spec = make_spec(*ACROSS)
        for mode in solve_critical_modes(spec):
            assert abs(critical_mode_residual(spec, mode.k_star)) < 1e-12
            amplitude = mode_arrays(spec, [mode.k_star, 2 * math.pi - mode.k_star]).amplitude
            np.testing.assert_allclose(amplitude, 1.0, rtol=0, atol=1e-10)
            assert mode.t_star == pytest.approx(2 * math.pi / mode.gap_star, rel=1e-14)

    def test_against_bisection(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            j = rng.uniform(0.5, 2.0)
            spec = make_spec(
                rng.uniform(0.02, 0.45) * math.pi,
                -rng.uniform(0.02, 0.45) * math.pi,
                j=j,
                jv=rng.uniform(0.2, 1.8) * j,
            )
            analytic = sorted(m.k_star for m in solve_critical_modes(spec))
            numeric = sorted(bisect_roots(spec))
            assert len(analytic) == len(numeric)
            np.testing.assert_allclose(analytic, numeric, atol=1e-9)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble has no extra precision on this platform")
    def test_within_longdouble_bound(self):
        # generic, near-tangent (|1 + r| from 1e-14 to 1e-1, either side) and
        # small-theta1 quenches: the same root count, and every root within
        # 2 eps times the conditioning 1 + 1/sqrt(1 - r^2) of acos r
        # (measured: at most 1.09 eps times it)
        rng = np.random.default_rng(23)
        eps = np.finfo(float).eps
        specs = [make_spec(1e-5 * math.pi, -0.04 * math.pi, jv=1.99999999),
                 make_spec(2e-7 * math.pi, -0.05 * math.pi, jv=1.99999996),
                 make_spec(0.25 * math.pi, 0.0), make_spec(0.0, 0.3 * math.pi)]
        for _ in range(200):
            j = rng.uniform(0.5, 2.0)
            th2 = -rng.uniform(0.02, 0.45) * math.pi
            specs.append(make_spec(rng.uniform(0.02, 0.45) * math.pi, th2, j=j,
                                   jv=rng.uniform(0.2, 1.8) * j))
            specs.append(make_spec(10 ** rng.uniform(-11, -3), th2, j=j,
                                   jv=rng.uniform(0.2, 1.99) * j))
            th1 = 10 ** rng.uniform(-6, -1)
            scale = 2 * j * math.sqrt(1 - math.sin(th1) * math.sin(th2))
            offset = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-14, -1)
            specs.append(make_spec(th1, th2, j=j, jv=scale * (1 - offset)))
        for spec in specs:
            expected, r = longdouble_critical_modes(spec)
            got = [mode.k_star for mode in solve_critical_modes(spec)]
            assert len(got) == len(expected), spec
            if expected:
                bound = 2 * eps * (1 + float(1 / np.sqrt(1 - r * r)))
                for k, k_ref in zip(got, expected):
                    assert abs(float(np.longdouble(k) - k_ref)) <= bound, spec

    def test_timescale_count_matches_unit_amplitude_count(self):
        # distinct timescales == number of amplitude-one modes in (0, pi)
        spec = make_spec(*ACROSS)
        modes = solve_critical_modes(spec)
        ks = np.linspace(1e-4, math.pi - 1e-4, 20001)
        amp = mode_arrays(spec, ks[::40]).amplitude
        peaks = int(np.sum((amp[1:-1] > amp[:-2]) & (amp[1:-1] > amp[2:]) & (amp[1:-1] > 1 - 1e-4)))
        assert len({round(m.t_star, 9) for m in modes}) == peaks == 2

    def test_quench_to_critical_is_tangent(self):
        modes = solve_critical_modes(make_spec(0.25 * math.pi, 0.0))
        assert len(modes) == 1
        assert modes[0].tangent
        assert modes[0].k_star == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert modes[0].gap_star == 0.0
        assert math.isinf(modes[0].t_star)

    def test_quench_from_critical_keeps_finite_timescale(self):
        # starting at the critical flux: the amplitude-one wavenumber is
        # the gap-closing one, but the post-quench gap there is open
        spec = make_spec(0.0, 0.3 * math.pi, n=2000)
        modes = solve_critical_modes(spec)
        assert len(modes) == 1 and modes[0].tangent
        assert modes[0].gap_star > 0.0
        assert math.isfinite(modes[0].t_star)
        predicted = predict_dqpt_times(spec, t_max=10.0)
        assert predicted
        dt = 1e-3
        series = loschmidt_echo(spec, np.arange(0.0, 10.0, dt), include_la=False)
        for t_cusp in detect_cusps(series):
            assert min(abs(t_cusp - p) for p in predicted) < 0.01

    def test_quench_to_pi_mirrors_quench_to_zero(self):
        spec = make_spec(0.75 * math.pi, math.pi)
        assert dqpt_possible(spec)
        modes = solve_critical_modes(spec)
        assert len(modes) == 1 and modes[0].tangent
        assert modes[0].gap_star == 0.0
        assert math.isinf(modes[0].t_star)

    @pytest.mark.parametrize("offset", [1e-13, -1e-13, 9e-13])
    @pytest.mark.parametrize("pre, post", [(0.25, 0.0), (0.75, 1.0), (0.0, 0.3), (1.0, -0.3)])
    def test_near_critical_flux_counts_as_critical(self, offset, pre, post):
        # is_critical_flux decides criticality within 1e-12 of 0 or pi, and
        # the amplitude-one condition follows it: the same modes as the
        # exact critical flux, never the two close roots of a tiny sine
        exact = make_spec(pre * math.pi, post * math.pi, n=2000)
        pre_critical = pre in (0.0, 1.0)
        near = make_spec(pre * math.pi + offset * pre_critical,
                         post * math.pi + offset * (not pre_critical), n=2000)
        assert dqpt_possible(near)
        assert critical_mode_residual(near, 1.0) == critical_mode_residual(exact, 1.0)
        got, expected = solve_critical_modes(near), solve_critical_modes(exact)
        assert len(got) == len(expected) == 1 and got[0].tangent
        assert got[0].k_star == expected[0].k_star
        assert got[0].t_star == pytest.approx(expected[0].t_star, rel=1e-9)

    def test_same_phase_has_no_modes(self):
        assert solve_critical_modes(make_spec(*SAME_PHASE)) == []

    def test_possible_but_rootless(self):
        # strong vertical hopping pushes the roots off the unit interval
        spec = make_spec(0.1 * math.pi, -0.1 * math.pi, jv=2.5)
        assert dqpt_possible(spec)
        assert solve_critical_modes(spec) == []
        assert bisect_roots(spec) == []


    @pytest.mark.parametrize("j_h, j_d", [(0.0, 1e-150), (1e-150, 1e-150)])
    def test_vanishing_hopping_has_no_modes(self, j_h, j_d):
        # the smallest hoppings a ladder holds: 2 |j| sqrt(1 - s) < j_v, so
        # no root, and no division by a zero j
        spec = QuenchSpec(LadderParams(j_h, 1.0, j_d, 0.0, 10), *ACROSS)
        assert solve_critical_modes(spec) == []


class TestPredictedTimes:
    def test_sequences_merge_and_start_at_half(self):
        spec = make_spec(*ACROSS)
        modes = solve_critical_modes(spec)
        times = predict_dqpt_times(spec, t_max=10.0)
        assert times == sorted(times)
        for mode in modes:
            first = mode.t_star / 2
            assert any(abs(t - first) < 1e-12 for t in times)
            seq = [t for t in times if abs((t / mode.t_star) % 1.0 - 0.5) < 1e-9]
            np.testing.assert_allclose(np.diff(seq), mode.t_star, atol=1e-9)
        assert len(times) == 9

    def test_no_modes_raises(self):
        with pytest.raises(NoDqptError):
            predict_dqpt_times(make_spec(*SAME_PHASE), t_max=10.0)

    def test_tangent_mode_contributes_no_times(self):
        assert predict_dqpt_times(make_spec(0.25 * math.pi, 0.0), t_max=10.0) == []

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_t_max_outside_non_negative_finite(self, monkeypatch, t_max):
        # nan and inf ended in ValueError and OverflowError; refused before
        # any mode is solved
        def refuse(spec):
            raise AssertionError("critical modes were solved")

        monkeypatch.setattr(dqpt, "solve_critical_modes", refuse)
        with pytest.raises(DomainError, match="t_max"):
            predict_dqpt_times(make_spec(*ACROSS), t_max=t_max)

    @pytest.mark.parametrize("j, t_max", [(1e150, 1e200), (1.0, 1e300), (1.0, 1.1e7)])
    def test_refuses_more_than_ten_million_times_before_listing_any(self, monkeypatch, j, t_max):
        # N 20: t_max 1e300 listed times until memory ran out, 1.1e7 lists
        # 1.04e7 of them, and the tiny t* of j = 1e150 made the count inf and
        # ended in OverflowError; no range of indices may be started
        def refuse(*args):
            raise AssertionError("cusp times were listed")

        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(DomainError, match=r"predicted cusp times exceed the limit of 1e\+07; lower t_max"):
            predict_dqpt_times(make_spec(*ACROSS, n=20, j=j), t_max=t_max)


class TestFisherZeroLines:
    def test_structure(self):
        spec = make_spec(*ACROSS)
        lines = fisher_zero_lines(spec, n_range=(0, 2), k_samples=200)
        assert [line.n for line in lines] == [0, 1, 2]
        for line in lines:
            gap_vals = 2 * np.sqrt(
                (2 * np.cos(line.k) + 1) ** 2 + (2 * np.sin(line.k) * math.sin(spec.theta_post)) ** 2
            )
            np.testing.assert_allclose(
                line.points.imag, math.pi * (2 * line.n + 1) / gap_vals, atol=1e-12
            )

    def test_across_quench_crosses_imaginary_axis(self):
        lines = fisher_zero_lines(make_spec(*ACROSS), n_range=(0, 1), k_samples=400)
        assert all(line.crosses_imaginary_axis for line in lines)

    def test_same_phase_does_not_cross(self):
        lines = fisher_zero_lines(make_spec(*SAME_PHASE), n_range=(0, 1), k_samples=400)
        assert not any(line.crosses_imaginary_axis for line in lines)

    def test_crossing_iff_critical_mode_exists(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            j = rng.uniform(0.5, 1.5)
            spec = make_spec(
                rng.uniform(-0.45, 0.45) * math.pi,
                rng.uniform(-0.45, 0.45) * math.pi,
                j=j,
                jv=rng.uniform(0.2, 1.8) * j,
            )
            has_mode = bool(solve_critical_modes(spec))
            crossing = fisher_zero_lines(spec, (0, 0), k_samples=2000)[0].crosses_imaginary_axis
            assert crossing == (has_mode and dqpt_possible(spec))

    def test_real_part_vanishes_at_unit_amplitude(self):
        # where the two bands mix equally the zero line sits on the
        # imaginary axis
        spec = make_spec(*ACROSS)
        for mode in solve_critical_modes(spec):
            cos2 = mode_arrays(spec, [mode.k_star]).cos2_eta[0]
            assert cos2 == pytest.approx(0.5, abs=1e-10)
            re_z = math.log((1.0 - cos2) / cos2) / mode.gap_star
            assert re_z == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("k_samples", [2.5, math.nan, math.inf, 1, -3])
    def test_rejects_k_samples_that_is_not_an_integer_from_2(self, k_samples):
        # 2.5 ended in a TypeError from np.linspace
        with pytest.raises(DomainError, match="k_samples"):
            fisher_zero_lines(make_spec(*ACROSS), k_samples=k_samples)

    def test_integral_float_k_samples_is_the_integer(self):
        spec = make_spec(*ACROSS)
        (line,) = fisher_zero_lines(spec, (0, 0), k_samples=64.0)
        np.testing.assert_array_equal(line.points, fisher_zero_lines(spec, (0, 0), k_samples=64)[0].points)

    @pytest.mark.parametrize("n_range", [(0, 2.5), (0, math.nan), (0.5, 2)])
    def test_rejects_a_branch_range_that_is_not_two_integers(self, n_range):
        # each ended in a TypeError from range
        with pytest.raises(DomainError, match="n_range"):
            fisher_zero_lines(make_spec(*ACROSS), n_range=n_range, k_samples=64)

    def test_integral_float_branch_range_is_the_integers(self):
        spec = make_spec(*ACROSS)
        lines = fisher_zero_lines(spec, (0.0, 2.0), k_samples=64)
        assert [line.n for line in lines] == [0, 1, 2]
        assert all(type(line.n) is int for line in lines)
        for line, ref in zip(lines, fisher_zero_lines(spec, (0, 2), k_samples=64)):
            np.testing.assert_array_equal(line.points, ref.points)

    def test_no_quench_skips_every_sample(self):
        line = fisher_zero_lines(make_spec(0.3, 0.3), n_range=(0, 0), k_samples=64)[0]
        assert line.n_skipped == 64
        assert line.points.size == 0
        assert not line.crosses_imaginary_axis


class TestCuspDetection:
    def test_across_quench_cusps_match_predictions(self):
        spec = make_spec(*ACROSS, n=2000)
        dt = 1e-3
        times = np.arange(0.0, 5.0 + dt, dt)
        series = loschmidt_echo(spec, times, include_la=False)
        cusps = detect_cusps(series)
        predicted = predict_dqpt_times(spec, t_max=5.0)
        assert cusps
        for t_cusp in cusps:
            assert min(abs(t_cusp - p) for p in predicted) <= 2 * dt

    def test_same_phase_has_no_cusps(self):
        spec = make_spec(*SAME_PHASE, n=2000)
        times = np.arange(0.0, 10.0, 1e-3)
        assert detect_cusps(loschmidt_echo(spec, times, include_la=False)) == []

    def test_zero_mode_gating_of_cusps(self):
        # quench to the critical flux: cusps only when the gap-closing
        # wavenumber is on the mode grid
        dt = 1e-3
        times = np.arange(0.0, 50.0 + dt, dt)
        hosted = detect_cusps(loschmidt_echo(make_spec(0.25 * math.pi, 0.0, n=300), times, include_la=False))
        missing = detect_cusps(loschmidt_echo(make_spec(0.25 * math.pi, 0.0, n=100), times, include_la=False))
        assert hosted
        assert missing == []

    def test_rejects_nonuniform_grid(self):
        spec = make_spec(*ACROSS, n=20)
        times = np.array([0.0, 0.1, 0.15, 0.4, 0.8, 1.0, 1.7, 2.0])
        series = loschmidt_echo(spec, times)
        with pytest.raises(Exception):
            detect_cusps(series)

    @pytest.mark.parametrize("sensitivity", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_sensitivity_outside_positive_finite(self, sensitivity):
        series = loschmidt_echo(make_spec(*ACROSS, n=20), np.linspace(0, 1, 101))
        with pytest.raises(DomainError):
            detect_cusps(series, sensitivity=sensitivity)

    def test_short_series_is_empty(self):
        spec = make_spec(*ACROSS, n=20)
        series = loschmidt_echo(spec, np.linspace(0, 1, 5))
        assert detect_cusps(series) == []


class TestFiniteSizeGate:
    def test_hosted_size(self):
        assert finite_size_dqpt_gate(make_spec(0.25 * math.pi, 0.0, n=300))

    def test_missing_size(self):
        assert not finite_size_dqpt_gate(make_spec(0.25 * math.pi, 0.0, n=100))

    def test_sqrt3_ladder(self):
        assert finite_size_dqpt_gate(make_spec(0.1 * math.pi, 0.0, n=24, jv=math.sqrt(3.0)))
        assert not finite_size_dqpt_gate(make_spec(0.1 * math.pi, 0.0, n=30, jv=math.sqrt(3.0)))

    def test_noncritical_target_rejected(self):
        with pytest.raises(InvalidQuenchTargetError):
            finite_size_dqpt_gate(make_spec(0.25 * math.pi, 0.1 * math.pi))

    def test_unrecognizable_angle_is_never_commensurate(self):
        assert not finite_size_dqpt_gate(make_spec(0.25 * math.pi, 0.0, n=300, jv=0.37))

    @pytest.mark.parametrize("q_max", [2, 6, 64])
    def test_agrees_with_revival_prediction(self, q_max):
        # both read commensurate_base with the same q_max and tol
        for jv, n in ((1.0, 99), (1.0, 100), (math.sqrt(3.0), 24), (math.sqrt(3.0), 30),
                      (0.37, 300)):
            spec = make_spec(0.25 * math.pi, 0.0, n=n, jv=jv)
            gate = finite_size_dqpt_gate(spec, q_max=q_max, tol=1e-9)
            if commensurate_base(spec.params, q_max=q_max, tol=1e-9) is None:
                assert gate is False
                with pytest.raises(IncommensurateAngleError):
                    predict_revival(spec, q_max=q_max, tol=1e-9)
            else:
                assert gate == predict_revival(spec, q_max=q_max, tol=1e-9).commensurate
