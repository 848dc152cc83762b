"""Echo kernels against the exact determinant oracle and per-mode identities."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creutz import (
    DomainError,
    LadderParams,
    QuenchSpec,
    allowed_modes,
    exact_le_oracle,
    loschmidt_echo,
    mode_arrays,
    mode_data,
    scan_theta2,
    work_stats,
)
from creutz import quench
from creutz.dqpt import predict_dqpt_times
from creutz.quench import _uniform_step

SRC = str(Path(__file__).resolve().parents[1] / "src")


def record_splits(monkeypatch) -> list:
    """The piece count of every later ``quench._run_pieces`` call."""
    counts, run_pieces = [], quench._run_pieces

    def recorded(run, pieces):
        counts.append(len(pieces))
        run_pieces(run, pieces)

    monkeypatch.setattr(quench, "_run_pieces", recorded)
    return counts


def make_spec(th1, th2, n=8, j=1.0, jv=1.0):
    return QuenchSpec(
        params=LadderParams(j_h=j, j_v=jv, j_d=j, theta=0.0, n_rungs=n),
        theta_pre=th1,
        theta_post=th2,
    )


def random_spec(rng, n_max=9, n=None):
    j = rng.uniform(0.5, 2.0)
    return make_spec(
        rng.uniform(-0.9 * np.pi, 0.9 * np.pi),
        rng.uniform(-0.9 * np.pi, 0.9 * np.pi),
        n=int(rng.integers(2, n_max)) if n is None else n,
        j=j,
        jv=rng.uniform(0.1, 1.9) * j,
    )


def reference_echo(spec, times):
    """(ln le, la) from the full-mode formula: every mode k_j, with the
    amplitude from complex exp and log of each factor."""
    _, amplitude, cos2, gap_post, _, ea_post = mode_arrays(spec, allowed_modes(spec.params.n_rungs))
    phase = gap_post[None, :] * times[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_le = np.sum(np.log(1.0 - amplitude * np.sin(0.5 * phase) ** 2), axis=1)
        la_factors = cos2 + (1.0 - cos2) * np.exp(-1j * phase)
        log_la = np.sum(-1j * ea_post * times[:, None] + np.log(la_factors), axis=1)
        return log_le, np.exp(log_la)


def longdouble_echo(spec, times, table=None):
    """(ln le, scale) per time from the kernel's mode table (``table``, by
    default ``mode_arrays(spec)``) in np.longdouble.

    The modes 0 < k < pi, each twice for k and 2 pi - k, as the kernel
    takes them.  Each factor f = 1 - A sin^2(phi / 2), phi = gap t, is
    evaluated in long double;
    ``scale`` is sum_k (|ln f_k| + (1 + A_k phi_k |sin phi_k|) / f_k).  A
    float64 kernel that rounds each phase (an error of about eps phi_k,
    which moves ln f_k by A_k sin(phi_k) / (2 f_k) per unit), each factor
    (eps / f_k in ln f_k) and each logarithm (eps |ln f_k|) is within a
    few eps * scale of the long-double ln le.
    """
    _, amplitude, _, gap_post, _, _ = mode_arrays(spec) if table is None else table
    ld = np.longdouble
    amplitude = amplitude.astype(ld)
    phase = gap_post.astype(ld) * np.asarray(times, dtype=float).astype(ld)[:, None]
    factor = 1 - amplitude * np.sin(phase / 2) ** 2
    log_factor = np.log(factor)
    scale = np.abs(log_factor) + (1 + amplitude * phase * np.abs(np.sin(phase))) / factor
    return 2 * np.sum(log_factor, axis=1), 2 * np.sum(scale, axis=1)


def referee_echo(spec, times):
    """(ln le, scale) per time at 30 digits: the modes k = 2 pi j / N with
    0 < k < pi, each twice, from the exact k and the closed-form amplitude
    A = (q (a2 - a1) / (h1 h2))^2 (``mode_arrays``); ``scale`` as in
    ``longdouble_echo``.  The angles and hoppings are the float inputs."""
    p, n = spec.params, spec.params.n_rungs
    with mpmath.workdps(30):
        sin1, sin2 = mpmath.sin(spec.theta_pre), mpmath.sin(spec.theta_post)
        modes = []
        for j in range(1, (n + 1) // 2):
            k = 2 * mpmath.pi * j / n
            u, q = 2 * p.j_h * mpmath.sin(k), 2 * p.j_d * mpmath.cos(k) + p.j_v
            h1, h2 = mpmath.sqrt(q * q + (u * sin1) ** 2), mpmath.sqrt(q * q + (u * sin2) ** 2)
            modes.append(((q * u * (sin2 - sin1) / (h1 * h2)) ** 2, h2))
        log_le, scale = [], []
        for t in times:
            total = size = 0
            for amplitude, half_gap in modes:
                cos, sin = mpmath.cos_sin(half_gap * float(t))  # phi / 2
                factor = 1 - amplitude * sin * sin
                log_factor = mpmath.log(factor)
                total += log_factor
                size += abs(log_factor) + (1 + 4 * amplitude * half_gap * t * abs(sin * cos)) / factor
            log_le.append(2 * total)
            scale.append(float(2 * size))
    return log_le, np.array(scale)


def band_vectors(params, k):
    """Lower- and upper-band eigenvectors (columns) of the 2x2 Bloch matrix."""
    eps_q = 2.0 * params.j_h * np.cos(k - params.theta)
    eps_p = 2.0 * params.j_h * np.cos(k + params.theta)
    eps_qp = 2.0 * params.j_d * np.cos(k) + params.j_v
    _, vecs = np.linalg.eigh(-np.array([[eps_q, eps_qp], [eps_qp, eps_p]]))
    return vecs


def overlap_weights(spec, k):
    """(cos^2 eta, sin^2 eta): weights of the pre-quench lower band on the
    post-quench lower and upper bands, from explicit eigenvector overlaps."""
    weights = np.abs(band_vectors(spec.post, k).T @ band_vectors(spec.pre, k)[:, 0]) ** 2
    return float(weights[0]), float(weights[1])


class TestQuenchMode:
    def test_no_quench_has_zero_amplitude(self):
        spec = make_spec(0.3, 0.3)
        amplitude = mode_arrays(spec, np.linspace(0, 2 * np.pi, 17)).amplitude
        np.testing.assert_allclose(amplitude, 0.0, rtol=0, atol=1e-14)

    def test_amplitude_one_at_critical_mode(self):
        # amplitude-one wavenumber of the 0.25pi -> -0.25pi quench:
        # root of 6 c^2 + 4 c - 1 = 0 with c = cos k
        spec = make_spec(0.25 * np.pi, -0.25 * np.pi)
        k_star = np.arccos((-2.0 + np.sqrt(10.0)) / 6.0)
        assert mode_arrays(spec, [k_star]).amplitude[0] == pytest.approx(1.0, abs=1e-10)

    def test_amplitude_suppressed_away_from_criticality(self):
        spec = make_spec(0.0016 * np.pi, 0.0, n=300)
        ks, amplitude, _, _, _, _ = mode_arrays(spec)
        k_lo, k_hi = 2 * np.pi / 3, 4 * np.pi / 3
        dist = np.minimum(np.abs(ks - k_lo), np.abs(ks - k_hi))
        inside = amplitude[dist <= 0.5]
        outside = amplitude[dist > 0.5]
        assert outside.max() < inside.max()

    def test_overlap_matches_angle_formula(self):
        # explicit eigenvector overlaps against the rotation-angle table
        rng = np.random.default_rng(11)
        for _ in range(300):
            spec = random_spec(rng)
            k = rng.uniform(0, 2 * np.pi)
            cos2, sin2 = overlap_weights(spec, k)
            table = mode_arrays(spec, [k])
            assert table.k[0] == k
            assert cos2 + sin2 == pytest.approx(1.0, abs=1e-14)
            assert table.cos2_eta[0] == pytest.approx(cos2, abs=1e-12)
            assert table.amplitude[0] == pytest.approx(4.0 * cos2 * sin2, abs=1e-12)

    def test_table_on_mode_grid(self):
        # the default wavenumbers are the modes 0 < k < pi of the grid; the
        # closed-form table is within 4 eps of the angle form of per-ladder
        # mode data and of eigenvector overlaps (measured: at most 2 eps),
        # has its lower-band energies, and unpacks as a 6-tuple
        eps = np.finfo(float).eps
        for n in (24, 25):
            spec = make_spec(0.3, -0.6, n=n)
            ks, amplitude, cos2, gap_post, ea_pre, ea_post = mode_arrays(spec)
            np.testing.assert_array_equal(ks, allowed_modes(n)[1 : (n + 1) // 2])
            pre, post = mode_data(spec.pre, ks), mode_data(spec.post, ks)
            np.testing.assert_array_equal(ea_pre, pre.e_alpha)
            np.testing.assert_array_equal(ea_post, post.e_alpha)
            np.testing.assert_allclose(gap_post, post.gap, rtol=4 * eps, atol=0)
            two_eta = pre.gamma - post.gamma
            np.testing.assert_allclose(amplitude, np.sin(two_eta) ** 2, rtol=0, atol=4 * eps)
            np.testing.assert_allclose(cos2, np.cos(0.5 * two_eta) ** 2, rtol=0, atol=4 * eps)
            weights = np.array([overlap_weights(spec, k) for k in ks])
            np.testing.assert_allclose(cos2, weights[:, 0], rtol=0, atol=4 * eps)
            np.testing.assert_allclose(amplitude, 4.0 * weights[:, 0] * weights[:, 1], rtol=0, atol=4 * eps)
            np.testing.assert_array_equal(mode_arrays(spec, ks[5:9]).cos2_eta, cos2[5:9])

    def test_closed_gap_at_an_inner_mode(self):
        # q = 2 j_d cos k + j_v is exactly 0 at k = 2 pi / 3 for this j_v, so
        # with theta1 or theta2 at 0 that mode has h1 h2 = 0 and eta = 0
        params = LadderParams(j_h=1.0, j_v=0.9999999999999996, j_d=1.0, theta=0.0, n_rungs=6)
        times = np.linspace(0.0, 20.0, 201)
        for theta1, theta2 in ((0.0, 0.7), (0.7, 0.0), (0.0, -2.1), (0.0, 0.0)):
            spec = QuenchSpec(params, theta1, theta2)
            ks, amplitude, cos2, _, _, _ = mode_arrays(spec)
            assert ks[1] == 2 * np.pi / 3
            assert amplitude[1] == 0.0 and cos2[1] == 1.0
            series = loschmidt_echo(spec, times)
            assert np.all(np.isfinite(series.rate)) and np.all(np.isfinite(series.la))
            assert np.all(np.isfinite(scan_theta2(params, theta1, [theta2, 0.0, -0.3])))
        # no quench: eta = 0 on every mode, exactly
        rng = np.random.default_rng(6)
        for theta in (0.0, 0.7, -2.9, np.pi):
            for n, j_v in ((6, params.j_v), (31, rng.uniform(0.1, 3.0))):
                ladder = LadderParams(j_h=rng.uniform(-2.0, 2.0), j_v=j_v, j_d=1.0, theta=0.0, n_rungs=n)
                table = mode_arrays(QuenchSpec(ladder, theta, theta), allowed_modes(n))
                np.testing.assert_array_equal(table.amplitude, 0.0)
                np.testing.assert_array_equal(table.cos2_eta, 1.0)

    def test_high_symmetry_modes_are_not_excited(self):
        # sin k = 0 at k = 0 and k = pi, so the flux only shifts both bands
        # there: the echo kernel takes only the modes 0 < k < pi
        rng = np.random.default_rng(14)
        angles = [0.0, np.pi, -np.pi]
        for _ in range(1000):
            j_h = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
            j_d = rng.uniform(0.3, 2.0)
            j_v = 2.0 * j_d if rng.random() < 0.5 else rng.uniform(0.05, 4.0)
            theta1, theta2 = (rng.choice(angles) if rng.random() < 0.3 else rng.uniform(-np.pi, np.pi)
                              for _ in range(2))
            n = int(rng.integers(2, 40))
            spec = QuenchSpec(LadderParams(j_h=j_h, j_v=j_v, j_d=j_d, theta=0.0, n_rungs=n), theta1, theta2)
            amplitude = mode_arrays(spec, allowed_modes(n)).amplitude
            assert amplitude[0] == 0.0
            if n % 2 == 0:
                assert 1.0 - amplitude[n // 2] == 1.0

    def test_per_mode_amplitude_echo_identity(self):
        # |cos^2 e^{-i ea t} + sin^2 e^{-i eb t}|^2 == 1 - A sin^2(gap t / 2)
        rng = np.random.default_rng(12)
        for _ in range(300):
            spec = random_spec(rng)
            ks, amplitude, cos2, gap_post, _, ea_post = mode_arrays(spec, allowed_modes(spec.params.n_rungs))
            i = int(rng.integers(0, ks.size))
            t = rng.uniform(0, 30)
            la_mode = cos2[i] * np.exp(-1j * ea_post[i] * t) + (1 - cos2[i]) * np.exp(
                -1j * (ea_post[i] + gap_post[i]) * t
            )
            le_mode = 1.0 - amplitude[i] * np.sin(0.5 * gap_post[i] * t) ** 2
            assert abs(la_mode) ** 2 == pytest.approx(le_mode, abs=1e-12)


class TestLoschmidtEcho:
    def test_initial_values(self):
        series = loschmidt_echo(make_spec(0.4, -0.2), np.linspace(0, 5, 11))
        assert series.le[0] == pytest.approx(1.0, abs=1e-14)
        assert series.rate[0] == pytest.approx(0.0, abs=1e-14)
        assert series.la[0] == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_no_quench_echo_stays_at_one(self):
        series = loschmidt_echo(make_spec(0.7, 0.7), np.linspace(0, 40, 101))
        np.testing.assert_allclose(series.le, 1.0, atol=1e-12)

    def test_la_modulus_matches_le(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            spec = random_spec(rng, n_max=30)
            series = loschmidt_echo(spec, np.linspace(0, 25, 40))
            np.testing.assert_allclose(np.abs(series.la) ** 2, series.le, atol=1e-10)

    def test_initial_state_independence(self):
        # filling the upper band instead swaps the branch weights and
        # energies; the echo is unchanged
        spec = make_spec(0.3, -0.6, n=24)
        times = np.linspace(0, 30, 97)
        _, amplitude, cos2, gap_post, _, ea_post = mode_arrays(spec, allowed_modes(24))
        eb_post = ea_post + gap_post
        swapped = np.array(
            [
                np.prod(
                    np.abs(
                        (1 - cos2) * np.exp(-1j * ea_post * t)
                        + cos2 * np.exp(-1j * eb_post * t)
                    )
                    ** 2
                )
                for t in times
            ]
        )
        series = loschmidt_echo(spec, times)
        np.testing.assert_allclose(series.le, swapped, atol=1e-12)

    def test_negative_j_h_is_a_flux_gauge(self):
        # j_h -> -j_h is theta -> theta - pi: eps_q, eps_p, the band center
        # and the half gap map onto each other, so echo and work agree
        rng = np.random.default_rng(21)
        times = np.linspace(0.0, 30.0, 301)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            j_h, j_d, j_v = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), rng.uniform(0.1, 2.0)
            theta1, theta2 = rng.uniform(-np.pi, np.pi, 2)
            flipped = QuenchSpec(LadderParams(-j_h, j_v, j_d, 0.0, n), theta1, theta2)
            shifted = QuenchSpec(LadderParams(j_h, j_v, j_d, 0.0, n), theta1 - np.pi, theta2 - np.pi)
            a, b = loschmidt_echo(flipped, times), loschmidt_echo(shifted, times)
            np.testing.assert_allclose(n * a.rate, n * b.rate, rtol=0, atol=1e-11)
            np.testing.assert_allclose(a.la, b.la, rtol=0, atol=1e-11)
            wa, wb = work_stats(flipped), work_stats(shifted)
            for x, y in ((wa.average_work, wb.average_work), (wa.delta_f, wb.delta_f),
                         (wa.irreversible_work, wb.irreversible_work)):
                assert x == pytest.approx(y, rel=0, abs=1e-12 * max(1.0, abs(x)))

    def test_rejects_negative_times(self):
        with pytest.raises(DomainError):
            loschmidt_echo(make_spec(0.1, 0.2), np.array([0.0, -1.0]))

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            loschmidt_echo(make_spec(0.1, 0.2), np.zeros((2, 2)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 10, 101])
    def test_matches_full_mode_reference(self, n):
        rng = np.random.default_rng(17 + n)
        # pi/6 -> -pi/6 at j_v = j: amplitude one at k = pi/2, so the
        # factor of that mode is exactly zero at odd multiples of pi/gap
        critical = make_spec(np.pi / 6, -np.pi / 6, n=4 * n)
        gap_star = mode_data(critical.post, np.pi / 2).gap
        zeros = (2 * np.arange(4) + 1) * np.pi / gap_star
        cases = [(random_spec(rng, n=n), np.concatenate([[0.0], rng.uniform(0.0, 30.0, 60)]))
                 for _ in range(6)]
        cases.append((critical, np.sort(np.concatenate([zeros, rng.uniform(0.0, 30.0, 60)]))))
        # uniform grids take the angle-addition path; on the last one the
        # zeros fall on the grid points 100, 300, 500 and 700
        moved = np.linspace(0.0, 30.0, 301)
        moved[150] += 1e-9
        edges = [np.linspace(0.0, 30.0, size) for size in (0, 1, 2, 3)]
        edges += [np.linspace(2.5, 30.0, 200), moved]
        cases += [(cases[0][0], times) for times in edges]
        cases.append((random_spec(rng, n=n), np.linspace(0.0, 30.0, 301)))
        cases.append((critical, (np.pi / gap_star) * np.linspace(0.0, 8.0, 801)))
        for spec, times in cases:
            series = loschmidt_echo(spec, times)
            echo_only = loschmidt_echo(spec, times, include_la=False)
            log_le, la = reference_echo(spec, times)
            normal = series.le >= np.finfo(float).tiny
            np.testing.assert_allclose(np.log(series.le[normal]), log_le[normal], rtol=0, atol=1e-10)
            np.testing.assert_array_equal(np.isinf(series.rate), np.isneginf(log_le))
            # 1e-12, plus a few ulps of the lower-band phase t * sum(ea_k),
            # which both kernels round (about 2e-12 at N = 101, t = 30)
            ea_post = mode_arrays(spec, allowed_modes(spec.params.n_rungs)).ea_post
            phase_ulps = 4 * np.finfo(float).eps * times * np.sum(np.abs(ea_post))
            assert np.all(np.abs(series.la - la) <= 1e-12 + phase_ulps)
            np.testing.assert_array_equal(series.le, echo_only.le)
            np.testing.assert_array_equal(series.rate, echo_only.rate)
            assert echo_only.la is None
            if spec is critical:
                assert np.isinf(series.rate).sum() >= zeros.size

    def test_uniform_grid_detection(self):
        # CLI, README and acceptance grids take the angle-addition path; a
        # point moved by 1e-9 or fewer than two points do not
        for times in (np.linspace(0.0, 10.0, 10001), np.linspace(0.0, 1731.98, 86604),
                      np.arange(0.0, 175.0, 0.02), np.arange(0.0, 50.0 + 1e-3, 1e-3),
                      np.linspace(2.5, 30.0, 200), np.array([1.0, 4.0]), np.zeros(3)):
            assert _uniform_step(times) == pytest.approx((times[-1] - times[0]) / (times.size - 1))
        moved = np.linspace(0.0, 30.0, 301)
        moved[150] += 1e-9
        for times in (moved, np.array([0.0, 1.0, 3.0]), np.array([2.0]), np.array([])):
            assert _uniform_step(times) is None

    @pytest.mark.parametrize("n", [12, 48])
    def test_uniform_grid_matches_longdouble(self, n):
        # pi/6 -> -pi/6 passes factors close to 0 (exactly 0 at k = pi/2 on
        # odd multiples of pi/gap); ln le against a long-double evaluation
        # of the same mode table, where le is normal
        spec = make_spec(np.pi / 6, -np.pi / 6, n=n)
        times = np.linspace(0.0, 50.0, 5001)
        exact, _ = longdouble_echo(spec, times)
        le = loschmidt_echo(spec, times, include_la=False).le
        normal = le >= np.finfo(float).tiny
        assert normal.sum() > 4900
        np.testing.assert_allclose(np.log(le[normal]), exact[normal].astype(float), rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "n, theta1, theta2, t_max, size, stride",
        [
            (1000, 0.0016, 0.0, 1731.98, 86604, 97),  # revival: nearly all modes in the series
            (9000, 0.25, -0.25, 10.0, 10001, 7),  # dqpt: mostly full-angle factors
        ],
    )
    def test_within_longdouble_bound(self, n, theta1, theta2, t_max, size, stride):
        # ln le within 2 eps * sum_k (|ln f_k| + 1 / f_k) of the long-double
        # referee on every stride-th time (measured: at most 0.23 eps * scale,
        # and 0.47 for the kernel without the series and full-angle forms)
        spec = make_spec(theta1 * np.pi, theta2 * np.pi, n=n)
        times = np.linspace(0.0, t_max, size)
        rate = loschmidt_echo(spec, times, include_la=False).rate[::stride]
        exact, scale = longdouble_echo(spec, times[::stride])
        error = np.abs((-n * rate).astype(np.longdouble) - exact)
        assert np.all(error <= 2 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize(
        "n, theta1, theta2, t_max, size, bound",
        [
            (1000, 0.0016, 0.0, 1732.0508075688774, 86604, 5.0),  # the revival command's grid
            (9000, 0.25, -0.25, 10.0, 10001, 0.4),  # the dqpt bench grid
            (100, 0.25, 0.0, 100.0, 100001, 1.25),  # criterion 7's ladder, to t = 100
        ],
        ids=["revival", "dqpt", "n100"],
    )
    def test_matches_mpmath_referee(self, n, theta1, theta2, t_max, size, bound):
        # the table and the kernel end to end: ln le within ``bound`` eps *
        # scale of the 30-digit referee on 12 evenly spaced grid times, plus
        # the grid times on both sides of each predicted cusp (dqpt) and
        # criterion 7's minimum at t = 28.236 (n100).  Measured: at most
        # 4.47, 0.26 and 0.92; the table of sin^2 of an arctan2 difference
        # read 4.62, 0.44 and 0.93 on the same times
        spec = make_spec(theta1 * np.pi, theta2 * np.pi, n=n)
        times = np.linspace(0.0, t_max, size)
        pick = set(np.linspace(0, size - 1, 12).astype(int))
        if theta2 < 0.0:
            for cusp in predict_dqpt_times(spec, t_max):
                i = int(np.searchsorted(times, cusp))
                pick |= {i - 1, i}
        if n == 100:
            pick.add(28236)
        pick = np.array(sorted(pick))
        rate = loschmidt_echo(spec, times, include_la=False).rate[pick]
        exact, scale = referee_echo(spec, times[pick])
        error = np.array([float(abs(mpmath.mpf(-n * r) - x)) for r, x in zip(rate, exact)])
        assert np.all(error <= bound * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_amplitudes_next_to_one_stay_finite(self, monkeypatch, uniform):
        # amplitudes 1 - j 2^-53 for j = 1..40, on both sides of the
        # half-angle threshold, at times where phi = gap t passes odd
        # multiples of pi: no factor may round to 0 or below
        n = 84
        ks = allowed_modes(n)[1 : n // 2]  # 0 < k < pi
        j = np.arange(ks.size) % 40 + 1
        amplitude = 1.0 - j * 2.0**-53
        cos2 = 0.5 * (1.0 + np.sqrt(1.0 - amplitude))
        gap = np.pi / (0.01 * (np.arange(ks.size) % 7 + 1))
        ones = np.ones(ks.size)
        table = quench.ModeArrays(ks, amplitude, cos2, gap, -ones, -ones - gap)
        # the table of the modes 0 < k < pi; the end modes k = 0 and k = pi
        # (their lower-band energies) from the closed form
        closed_form = quench.mode_arrays
        monkeypatch.setattr(quench, "mode_arrays",
                            lambda spec, ks=None: table if ks is None else closed_form(spec, ks))
        times = np.linspace(0.0, 2.0, 4001)
        if not uniform:
            times[2000] += 1e-9
        series = loschmidt_echo(make_spec(0.3, -0.6, n=n), times)
        assert np.all(np.isfinite(series.rate)) and np.all(np.isfinite(series.la))
        exact, scale = longdouble_echo(make_spec(0.3, -0.6, n=n), times, table)
        error = np.abs((-n * series.rate).astype(np.longdouble) - exact)
        assert np.all(error <= 2 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize(
        "n, j_v, theta1, theta2",
        [
            (12, 0.48629570188069793, 1.927765547430917, -2.237440200436503),
            (20, 0.8944647729084867, 0.7755398430302387, -2.5698122739690272),
            (26, 0.7974888536417748, 0.7278200781124773, -3.1382427102567276),
        ],
    )
    def test_near_unit_amplitude_factor_stays_finite(self, n, j_v, theta1, theta2):
        # one mode has amplitude 1 - 2^-52 and takes the half-angle factor
        # 1 - A s^2, 2^-52 where s^2 = 1 (at 4 of these times in each case); were
        # s^2 to round above 1, only the clamp s^2 <= 1 would keep it
        # positive (it would be NaN or an exact 0)
        spec = QuenchSpec(LadderParams(j_h=1.0, j_v=j_v, j_d=1.0, theta=0.0, n_rungs=n), theta1, theta2)
        _, amplitude, _, gap_post, _, _ = mode_arrays(spec)
        j = int(np.argmax(np.where(amplitude < 1.0, amplitude, 0.0)))
        assert amplitude[j] == 1.0 - 2.0**-52
        times = (np.pi / gap_post[j]) * np.linspace(0.0, 8.0, 2401)
        series = loschmidt_echo(spec, times)
        log_le, _ = reference_echo(spec, times)
        assert np.all(np.isfinite(series.rate)) and np.all(np.isfinite(series.la))
        # away from the factors at the rounding floor, the usual agreement
        factor = 1.0 - amplitude[j] * np.sin(0.5 * gap_post[j] * times) ** 2
        ok = factor > 1e-6
        np.testing.assert_allclose(np.log(series.le[ok]), log_le[ok], rtol=0, atol=1e-10)

    def test_echo_peak_memory_is_chunked(self):
        # the four (block x modes) tables of the uniform path hold 8 MiB;
        # tables of a full chunk each would peak at about 16 MiB
        spec = make_spec(0.25 * np.pi, -0.25 * np.pi, n=9000)
        times = np.linspace(0.0, 10.0, 10001)
        tracemalloc.start()
        try:
            loschmidt_echo(spec, times, include_la=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_amplitude_peak_memory_is_chunked(self):
        # traced allocations, not timing: a kernel whose complex
        # (times x modes) temporaries hold 8e6 elements peaks at 488 MiB
        spec = make_spec(0.25 * np.pi, -0.25 * np.pi, n=9000)
        times = np.linspace(0.0, 10.0, 2001)
        tracemalloc.start()
        try:
            loschmidt_echo(spec, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_kernel_buffers_stay_chunked_on_a_long_grid(self, monkeypatch):
        # 3 modes take the series (13 terms), 1 mode the full-angle factor
        # in blocks of 1000 rows; beyond its T-sized arrays the kernel's
        # buffers, per-element and transform, stay within 2 chunks, and no
        # FFT is longer than one segment's grid.  Contraction outputs sized
        # by the term count alone would hold every block at once here:
        # 16 MB with the amplitude.
        spec = make_spec(0.05, 0.0, n=9)
        times = np.linspace(0.0, 1e5, 10**6)
        growth, lengths = [], []

        def traced(call):
            def run(*args):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call(*args)
                growth.append(tracemalloc.get_traced_memory()[1] - before)
            return run

        def irfft(a, n, *args, **kwargs):
            lengths.append(n)
            return np_irfft(a, n, *args, **kwargs)

        np_irfft = np.fft.irfft
        monkeypatch.setattr(quench, "_run_pieces", traced(quench._run_pieces))
        monkeypatch.setattr(quench, "_harmonic_sums", traced(quench._harmonic_sums))
        monkeypatch.setattr(np.fft, "irfft", irfft)
        tracemalloc.start()
        try:
            loschmidt_echo(spec, times)
        finally:
            tracemalloc.stop()
        assert len(growth) == 2 and max(growth) < 2 * quench._CHUNK_BYTES
        assert len(lengths) == 2 * -(-times.size // quench._SEGMENT)  # ln le and the argument
        assert max(lengths) <= 2 * quench._SEGMENT

    def test_rejects_overflowing_phases(self):
        with pytest.raises(DomainError):
            loschmidt_echo(make_spec(0.1, 0.2), np.array([0.0, 1e308]))

    @pytest.mark.parametrize("include_la", [False, True])
    def test_same_bits_for_any_worker_count(self, monkeypatch, include_la):
        # each worker takes one contiguous run of whole blocks; with more
        # workers than cores and a short switch interval, a block written
        # twice or not at all would show.  Every case of 4 or more times is
        # split into one run per worker; blocks of one row are not split.
        splits = record_splits(monkeypatch)
        critical = make_spec(np.pi / 6, -np.pi / 6, n=48)
        gap_star = mode_data(critical.post, np.pi / 2).gap
        moved = np.linspace(0.0, 30.0, 3001)
        moved[1500] += 1e-9
        rng = np.random.default_rng(23)
        cases = [(make_spec(0.25 * np.pi, -0.25 * np.pi, n=300), np.linspace(0.0, 10.0, 4001)),
                 (make_spec(0.3, -1.1, n=37), moved),
                 # non-uniform, 40 blocks of 38 rows
                 (make_spec(0.3, -1.1, n=4001), np.sort(rng.uniform(0.0, 40.0, 1500))),
                 (critical, (np.pi / gap_star) * np.linspace(0.0, 8.0, 8001))]
        cases += [(make_spec(0.3, -1.1, n=20), np.linspace(0.0, 30.0, size)) for size in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for spec, times in cases:
                monkeypatch.setattr(quench, "_worker_count", lambda: 1)
                ref = loschmidt_echo(spec, times, include_la=include_la)
                for workers in (2, 3, 5):
                    monkeypatch.setattr(quench, "_worker_count", lambda: workers)
                    splits.clear()
                    got = loschmidt_echo(spec, times, include_la=include_la)
                    assert set(splits) == {workers if times.size >= 4 else 1}
                    np.testing.assert_array_equal(got.le, ref.le)
                    np.testing.assert_array_equal(got.rate, ref.rate)
                    if include_la:
                        np.testing.assert_array_equal(got.la, ref.la)
                if spec is critical:
                    assert np.isinf(ref.rate).sum() >= 4
        finally:
            sys.setswitchinterval(interval)

    def test_same_bits_for_any_cpu_and_blas_thread_count(self):
        # in fresh processes: 1 or 2 kernel threads and 1 or 2 OpenBLAS
        # threads give the same bits, for a run mostly in the series (the
        # contraction must not go through BLAS) and one mostly direct
        script = (
            "import sys, hashlib, numpy as np\n"
            "from creutz import quench, LadderParams, QuenchSpec\n"
            "quench._worker_count = lambda: int(sys.argv[1])\n"
            "digest = hashlib.sha256()\n"
            "for n, th1, th2, t_max in ((1000, 0.0016, 0.0, 300.0), (2000, 0.25, -0.25, 5.0)):\n"
            "    spec = QuenchSpec(LadderParams(1.0, 1.0, 1.0, 0.0, n), th1 * np.pi, th2 * np.pi)\n"
            "    s = quench.loschmidt_echo(spec, np.linspace(0.0, t_max, 6001))\n"
            "    for x in (s.le, s.rate, s.la):\n"
            "        digest.update(x.tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        digests = set()
        for blas in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
            for workers in ("1", "2"):
                done = subprocess.run([sys.executable, "-c", script, workers], env=env,
                                      capture_output=True, text=True, timeout=120)
                assert done.returncode == 0, done.stderr
                digests.add(done.stdout.strip())
        assert len(digests) == 1

    @pytest.mark.parametrize("in_main", [True, False])
    def test_piece_failure_is_raised(self, monkeypatch, in_main):
        # an error in any piece reaches the caller after every thread stopped
        monkeypatch.setattr(quench, "_worker_count", lambda: 2)
        splits = record_splits(monkeypatch)
        full_angle = quench._DirectModes._full_angle

        def failing(self, *args):
            if (threading.current_thread() is threading.main_thread()) == in_main:
                raise RuntimeError("injected")
            return full_angle(self, *args)

        monkeypatch.setattr(quench._DirectModes, "_full_angle", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            loschmidt_echo(make_spec(0.25 * np.pi, -0.25 * np.pi, n=300), np.linspace(0.0, 10.0, 401))
        assert splits == [2]
        assert threading.active_count() == before

    def test_threads_are_capped_by_block_size(self, monkeypatch):
        # runs of whole blocks of B = min(isqrt(T), 2^18 / M) rows for M
        # modes, at most one thread per 4 rows of a block: contiguous, they
        # cover [0, T) and differ by at most one block
        class Split(Exception):
            pass

        def record(run, pieces):
            raise Split(pieces)

        monkeypatch.setattr(quench, "_worker_count", lambda: 64)
        monkeypatch.setattr(quench, "_run_pieces", record)
        rng = np.random.default_rng(4)
        cases = [(9000, np.linspace(0.0, 10.0, 10001), 58, 14),  # 173 blocks
                 (9000, np.linspace(0.0, 10.0, 2001), 44, 11),  # 46 blocks
                 (1000, np.linspace(0.0, 8660.3, 86604), 294, 64),  # 295 blocks x 499 modes
                 (100, np.linspace(0.0, 8660.3, 86604), 294, 64),  # 295 blocks x 49 modes
                 (9000, np.sort(rng.uniform(0.0, 10.0, 300)), 17, 4)]  # 18 blocks, not uniform
        for n, times, rows, expected in cases:
            with pytest.raises(Split) as caught:
                loschmidt_echo(make_spec(0.3, -1.1, n=n), times, include_la=False)
            pieces = caught.value.args[0]
            assert len(pieces) == expected
            assert pieces[0][0] == 0 and pieces[-1][1] == times.size
            assert all(p[1] == q[0] and p[1] % rows == 0 for p, q in zip(pieces, pieces[1:]))
            blocks = [-(-(stop - first) // rows) for first, stop in pieces]
            assert max(blocks) - min(blocks) <= 1

    def test_echo_peak_memory_with_many_cpus(self, monkeypatch):
        # the per-thread start rows stay a small share of the chunk budget
        # however many CPUs there are: 8.6 MiB with 7 threads, where one
        # thread per row of the 58-row blocks would peak at 14.5 MiB; the
        # limit is that of test_echo_peak_memory_is_chunked
        monkeypatch.setattr(quench, "_worker_count", lambda: 58)
        spec = make_spec(0.25 * np.pi, -0.25 * np.pi, n=9000)
        times = np.linspace(0.0, 10.0, 10001)
        tracemalloc.start()
        try:
            loschmidt_echo(spec, times, include_la=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("workers", [2, 58])
    def test_series_groups_peak_one_table_at_a_time(self, monkeypatch, workers):
        # the revival command's N 1000 grid has three series term groups,
        # each with its own offset table: one table at a time peaks at
        # 3.9 MiB for any thread count, two at a time at 6.0 MiB
        monkeypatch.setattr(quench, "_worker_count", lambda: workers)
        splits = record_splits(monkeypatch)
        spec = make_spec(0.0016 * np.pi, 0.0, n=1000)
        times = np.linspace(0.0, 1732.0508075688774, 86604)
        tracemalloc.start()
        try:
            loschmidt_echo(spec, times, include_la=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert splits == [workers]  # the per-element modes; the series transform runs here
        assert peak < 5 * 2**20

    def test_small_grids_start_no_thread(self, monkeypatch):
        # one chunk, or blocks of one row: nothing to split
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(quench, "_worker_count", lambda: 4)
        monkeypatch.setattr(threading, "Thread", no_thread)
        spec = make_spec(0.3, -1.1, n=40)
        for times in (np.array([0.0, 1.0, 3.0, 7.5]), np.linspace(0.0, 1.0, 2)):
            assert np.all(np.isfinite(loschmidt_echo(spec, times).rate))

    @pytest.mark.parametrize(
        "files, workers",
        [
            ({"/sys/fs/cgroup/cpu.max": "150000 100000\n"}, 2),
            ({"/sys/fs/cgroup/cpu.max": "50000 100000\n"}, 1),
            ({"/sys/fs/cgroup/cpu.max": "max 100000\n"}, 8),
            ({"/sys/fs/cgroup/cpu.max": "4000000 100000\n"}, 8),
            ({"/sys/fs/cgroup/cpu.max": "max 100000\n",
              "/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "200000\n",
              "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000\n"}, 8),
            ({"/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "300000\n",
              "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000\n"}, 3),
            ({"/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "-1\n",
              "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000\n"}, 8),
            ({"/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "300000\n"}, 8),
            ({"/sys/fs/cgroup/cpu.max": ""}, 8),
            ({"/sys/fs/cgroup/cpu.max": "garbage\n"}, 8),
            ({"/sys/fs/cgroup/cpu.max": PermissionError}, 8),
            ({}, 8),
        ],
    )
    def test_worker_count_respects_the_cpu_quota(self, monkeypatch, files, workers):
        # a quota below the affinity set caps the threads at its whole CPUs,
        # rounded up; "max", -1 and a missing, unreadable or malformed file
        # mean no cap
        def read_text(path):
            text = files.get(path, FileNotFoundError)
            if isinstance(text, type):
                raise text(path)
            return text

        monkeypatch.setattr(quench, "_read_text", read_text)
        monkeypatch.setattr(quench.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        assert quench._worker_count() == workers

    @given(
        st.floats(min_value=-2.5, max_value=2.5),
        st.floats(min_value=-2.5, max_value=2.5),
        st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_echo_bounds(self, th1, th2, n):
        spec = make_spec(th1, th2, n=n)
        series = loschmidt_echo(spec, np.linspace(0, 20, 50))
        assert np.all(series.le <= 1.0 + 1e-12)
        assert np.all(series.le >= 0.0)
        assert np.all(series.rate >= -1e-14)
        _, amplitude, _, _, _, _ = mode_arrays(spec)
        assert np.all((amplitude >= 0.0) & (amplitude <= 1.0 + 1e-14))


class TestHarmonicSums:
    """The series transform ``quench._harmonic_sums`` against direct sums."""

    @pytest.mark.parametrize(
        "size, t0, step",
        [(0, 0.0, 0.1), (1, 2.0, 0.1), (2, 0.0, 0.1), (3, 1.5, 0.3), (200, 2.5, 0.1378),
         (2 * quench._SEGMENT + 100, 3.0, 0.02),  # three segments, the last one short
         (quench._SEGMENT, 0.0, 1.0)],  # omega * step past pi
    )
    def test_matches_longdouble_sum(self, size, t0, step):
        # coefficients over six decades, frequencies up to 30: within
        # 64 eps * sum_j |c_j| (1 + omega_j t) of the long-double sum
        # (measured: at most 29 over 20 seeds, at the far edge of a segment)
        rng = np.random.default_rng(size)
        times = t0 + step * np.arange(size)
        for terms in (1, 13, 400):
            omega = rng.uniform(0.0, 30.0, terms)
            coef = rng.normal(size=terms) + 1j * rng.normal(size=terms)
            coef *= 10.0 ** rng.uniform(-6.0, 0.0, terms)
            out, pair = np.zeros(size), np.zeros((2, size))
            quench._harmonic_sums(times, step, omega, (coef,), (out,))
            quench._harmonic_sums(times, step, omega, (coef, 1j * coef), tuple(pair))
            np.testing.assert_array_equal(pair[0], out)  # each sum is transformed apart
            phase = omega.astype(np.longdouble) * times.astype(np.longdouble)[:, None]
            exact = np.sum(coef.real * np.cos(phase) - coef.imag * np.sin(phase), axis=1)
            scale = np.sum(np.abs(coef) * (1.0 + omega * times[:, None]), axis=1)
            assert np.all(np.abs(out - exact) <= 64 * np.finfo(float).eps * scale)

    def test_series_modes_without_terms(self, monkeypatch):
        # at theta1 = 1e-9 every mode takes the series with K = 0: the
        # transform gets no terms, and ln le is the series constants alone
        sums, terms = quench._harmonic_sums, []

        def recorded(times, step, omega, coefs, outs):
            terms.append(omega.size)
            sums(times, step, omega, coefs, outs)

        monkeypatch.setattr(quench, "_harmonic_sums", recorded)
        spec = make_spec(1e-9, 0.0, n=12)
        times = np.linspace(2.5, 30.0, 200)
        series = loschmidt_echo(spec, times)
        log_le, la = reference_echo(spec, times)
        assert terms == [0]
        np.testing.assert_allclose(np.log(series.le), log_le, rtol=0, atol=1e-15)
        np.testing.assert_allclose(series.la, la, rtol=0, atol=1e-12)  # the lower-band phase t * sum(ea_k)


class TestDeterminantOracle:
    def test_unit_amplitude_at_time_zero(self):
        le, la = exact_le_oracle(make_spec(0.5, -0.8, n=5), 0.0)
        assert la == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert le == pytest.approx(1.0, abs=1e-12)

    def test_no_quench_is_stationary(self):
        rng = np.random.default_rng(14)
        for t in rng.uniform(0, 50, 5):
            le, _ = exact_le_oracle(make_spec(0.45, 0.45, n=6), t)
            assert le == pytest.approx(1.0, abs=1e-12)

    def test_matches_product_formula_near_critical_quench(self):
        spec = make_spec(0.0016 * np.pi, 0.0, n=6)
        rng = np.random.default_rng(15)
        times = rng.uniform(0.0, 50.0, 200)
        series = loschmidt_echo(spec, times)
        for i, t in enumerate(times):
            le_oracle, la_oracle = exact_le_oracle(spec, t)
            assert series.le[i] == pytest.approx(le_oracle, abs=1e-10)
            assert series.la[i] == pytest.approx(la_oracle, abs=1e-10)

    def test_matches_product_formula_random(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            spec = random_spec(rng, n_max=5)
            times = rng.uniform(0.0, 40.0, 6)
            series = loschmidt_echo(spec, times)
            for i, t in enumerate(times):
                le_oracle, la_oracle = exact_le_oracle(spec, t)
                assert series.le[i] == pytest.approx(le_oracle, abs=1e-11)
                assert series.la[i] == pytest.approx(la_oracle, abs=1e-11)

    def test_accepts_an_array_of_times(self):
        spec = make_spec(0.4, -0.3, n=7)
        times = np.array([0.0, 1.5, 7.25])
        le, la = exact_le_oracle(spec, times)
        assert le.shape == la.shape == (3,)
        for i, t in enumerate(times):
            le_t, la_t = exact_le_oracle(spec, t)
            assert isinstance(le_t, float) and isinstance(la_t, complex)
            assert le[i] == pytest.approx(le_t, abs=1e-14)
            assert la[i] == pytest.approx(la_t, abs=1e-14)

    def test_series_path_matches_oracle_at_256_rungs(self):
        # a small quench: every interior mode takes the harmonic series
        spec = make_spec(0.3, 0.25, n=256)
        _, amplitude, _, _, _, _ = mode_arrays(spec)
        assert amplitude.max() < 1e-2  # rho < 0.002: at most 5 harmonics
        times = np.linspace(0.0, 40.0, 401)
        series = loschmidt_echo(spec, times)
        pick = np.array([7, 123, 250, 399])
        le, la = exact_le_oracle(spec, times[pick])
        np.testing.assert_allclose(series.le[pick], le, rtol=0, atol=1e-10)
        np.testing.assert_allclose(series.la[pick], la, rtol=0, atol=1e-10)

    def test_size_guard(self):
        with pytest.raises(DomainError):
            exact_le_oracle(make_spec(0.1, 0.2, n=quench.ORACLE_MAX_RUNGS + 1), 1.0)

    def test_pins_incommensurate_echo_minimum(self):
        # criterion 7's N = 100 ladder after 0.25 pi -> 0, on its grid: the
        # kernel's 3.62e-22 minimum is the exact determinant value
        spec = make_spec(0.25 * np.pi, 0.0, n=100)
        dt = 1e-3
        times = np.arange(0.0, 50.0 + dt, dt)
        le = loschmidt_echo(spec, times, include_la=False).le
        i = int(np.argmin(le))
        le_oracle, _ = exact_le_oracle(spec, times[i])
        assert le[i] == pytest.approx(3.62e-22, rel=5e-3)
        assert le[i] == pytest.approx(le_oracle, rel=1e-9, abs=0.0)
