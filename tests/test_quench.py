"""Echo kernels against the exact determinant oracle and per-mode identities."""

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
)


def make_spec(th1, th2, n=8, j=1.0, jv=1.0):
    return QuenchSpec(
        params=LadderParams(j_h=j, j_v=jv, j_d=j, theta=0.0, n_rungs=n),
        theta_pre=th1,
        theta_post=th2,
    )


def random_spec(rng, n_max=9):
    j = rng.uniform(0.5, 2.0)
    return make_spec(
        rng.uniform(-0.9 * np.pi, 0.9 * np.pi),
        rng.uniform(-0.9 * np.pi, 0.9 * np.pi),
        n=int(rng.integers(2, n_max)),
        j=j,
        jv=rng.uniform(0.1, 1.9) * j,
    )


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
        np.testing.assert_array_equal(ks, allowed_modes(24).wavenumbers)
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

    def test_rejects_negative_times(self):
        with pytest.raises(DomainError):
            loschmidt_echo(make_spec(0.1, 0.2), np.array([0.0, -1.0]))

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            loschmidt_echo(make_spec(0.1, 0.2), np.zeros((2, 2)))

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
            exact_le_oracle(make_spec(0.1, 0.2, n=13), 1.0)
