"""Echo kernels against the exact determinant oracle and per-mode identities."""

import tracemalloc

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
    work_stats,
)
from creutz.quench import _uniform_step


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
    _, amplitude, cos2, gap_post, _, ea_post = mode_arrays(spec)
    phase = gap_post[None, :] * times[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_le = np.sum(np.log(1.0 - amplitude * np.sin(0.5 * phase) ** 2), axis=1)
        la_factors = cos2 + (1.0 - cos2) * np.exp(-1j * phase)
        log_la = np.sum(-1j * ea_post * times[:, None] + np.log(la_factors), axis=1)
        return log_le, np.exp(log_la)


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
        # the default wavenumbers are the mode grid; the table matches
        # per-ladder mode data and unpacks as a 6-tuple
        spec = make_spec(0.3, -0.6, n=24)
        ks, amplitude, cos2, gap_post, ea_pre, ea_post = mode_arrays(spec)
        np.testing.assert_array_equal(ks, allowed_modes(24))
        np.testing.assert_array_equal(ea_pre, mode_data(spec.pre, ks).e_alpha)
        np.testing.assert_array_equal(ea_post, mode_data(spec.post, ks).e_alpha)
        np.testing.assert_array_equal(gap_post, mode_data(spec.post, ks).gap)
        np.testing.assert_allclose(mode_arrays(spec, ks[5:9]).cos2_eta, cos2[5:9], rtol=0, atol=1e-15)
        np.testing.assert_allclose(amplitude, 4.0 * cos2 * (1.0 - cos2), rtol=0, atol=1e-12)

    def test_per_mode_amplitude_echo_identity(self):
        # |cos^2 e^{-i ea t} + sin^2 e^{-i eb t}|^2 == 1 - A sin^2(gap t / 2)
        rng = np.random.default_rng(12)
        for _ in range(300):
            spec = random_spec(rng)
            ks, amplitude, cos2, gap_post, _, ea_post = mode_arrays(spec)
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
        _, amplitude, cos2, gap_post, _, ea_post = mode_arrays(spec)
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
            phase_ulps = 4 * np.finfo(float).eps * times * np.sum(np.abs(mode_arrays(spec).ea_post))
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
        _, amplitude, _, gap_post, _, _ = mode_arrays(spec)
        phase = np.longdouble(0.5) * gap_post.astype(np.longdouble) * times.astype(np.longdouble)[:, None]
        exact = np.sum(np.log1p(-amplitude.astype(np.longdouble) * np.sin(phase) ** 2), axis=1)
        le = loschmidt_echo(spec, times, include_la=False).le
        normal = le >= np.finfo(float).tiny
        assert normal.sum() > 4900
        np.testing.assert_allclose(np.log(le[normal]), exact[normal].astype(float), rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "n, j_v, theta1, theta2",
        [
            (12, 0.635117220190133, 0.9870983074886834, -3.0883817809017686),
            (20, 0.8944647729084867, 0.7755398430302387, -2.5698122739690272),
            (26, 0.7974888536417748, 0.7278200781124773, -3.1382427102567276),
        ],
    )
    def test_near_unit_amplitude_factor_stays_finite(self, n, j_v, theta1, theta2):
        # one mode has amplitude 1 - 2^-52; on this grid the angle-addition
        # sine of that mode rounds above 1 once, so 1 - A s^2 needs the
        # clamp s^2 <= 1 to stay positive (it would be NaN or an exact 0)
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

    def test_rejects_overflowing_phases(self):
        with pytest.raises(DomainError):
            loschmidt_echo(make_spec(0.1, 0.2), np.array([0.0, 1e308]))

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

    def test_size_guard(self):
        with pytest.raises(DomainError):
            exact_le_oracle(make_spec(0.1, 0.2, n=129), 1.0)

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
