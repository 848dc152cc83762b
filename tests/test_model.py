"""Spectral and commensurability checks for the ladder model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creutz import (
    DomainError,
    LadderParams,
    RationalAngle,
    allowed_modes,
    canonical_angle,
    commensurate_base,
    critical_wavenumbers,
    detect_rational_angle,
    group_velocity,
    is_commensurate,
    is_critical_flux,
    mode_data,
)


def params(j=1.0, jv=1.0, jd=None, theta=0.0, n=100):
    return LadderParams(j_h=j, j_v=jv, j_d=j if jd is None else jd, theta=theta, n_rungs=n)


def ground_state_energy(p):
    """The lower band summed over the mode grid."""
    return float(np.sum(mode_data(p, allowed_modes(p.n_rungs)).e_alpha))


def random_params(rng, n_max=60):
    return LadderParams(
        j_h=rng.uniform(0.2, 3.0),
        j_v=rng.uniform(0.05, 3.0),
        j_d=rng.uniform(0.2, 3.0),
        theta=rng.uniform(-np.pi, np.pi),
        n_rungs=int(rng.integers(2, n_max)),
    )


class TestModeGrid:
    def test_n4_quantization(self):
        ks = allowed_modes(4)
        np.testing.assert_allclose(ks, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert ks[1] - ks[0] == pytest.approx(np.pi / 2)

    def test_n3_contains_two_thirds_pi(self):
        ks = allowed_modes(3)
        np.testing.assert_allclose(ks[1], 2 * np.pi / 3)

    def test_n100_misses_the_gap_closing_mode(self):
        # 2*pi*33/100 is allowed but 2*pi/3 itself is not on the grid
        ks = allowed_modes(100)
        assert np.min(np.abs(ks - 2 * np.pi * 33 / 100)) < 1e-15
        assert np.min(np.abs(ks - 2 * np.pi / 3)) > 1e-3

    def test_rejects_tiny_ladders(self):
        with pytest.raises(DomainError):
            allowed_modes(1)

    def test_uniform_spacing(self):
        ks = allowed_modes(17)
        np.testing.assert_allclose(np.diff(ks), 2 * np.pi / 17)


class TestModeData:
    def test_gap_closes_at_two_thirds_pi(self):
        m = mode_data(params(), 2 * np.pi / 3)
        assert abs(m.gap) < 1e-12

    def test_k_zero_values(self):
        m = mode_data(params(), 0.0)
        assert m.eps_qp == pytest.approx(3.0)
        assert m.gap == pytest.approx(6.0)

    def test_gap_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = random_params(rng)
            k = rng.uniform(0.0, 2 * np.pi)
            m = mode_data(p, k)
            rhs = 4.0 * (m.eps_qp**2 + (2 * p.j_h * np.sin(k) * np.sin(p.theta)) ** 2)
            assert m.gap**2 == pytest.approx(rhs, abs=1e-12 * max(1.0, rhs))

    def test_band_sum_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = random_params(rng)
            k = rng.uniform(0.0, 2 * np.pi)
            m = mode_data(p, k)
            expected = -4.0 * p.j_h * np.cos(k) * np.cos(p.theta) - 2.0 * p.j_v
            assert m.e_alpha + m.e_beta == pytest.approx(expected, abs=1e-12)

    def test_eigendecomposition_oracle(self):
        # direct 2x2 diagonalization of the Bloch matrix, shifted bands
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = random_params(rng)
            k = rng.uniform(0.0, 2 * np.pi)
            eps_q = 2 * p.j_h * np.cos(k - p.theta)
            eps_p = 2 * p.j_h * np.cos(k + p.theta)
            eps_qp = 2 * p.j_d * np.cos(k) + p.j_v
            bloch = -np.array([[eps_q, eps_qp], [eps_qp, eps_p]]) - p.j_v * np.eye(2)
            lo, hi = np.linalg.eigvalsh(bloch)
            m = mode_data(p, k)
            assert m.e_alpha == pytest.approx(lo, abs=1e-12)
            assert m.e_beta == pytest.approx(hi, abs=1e-12)

    def test_array_matches_scalar_calls(self):
        # one array call carries the same per-mode data as scalar calls
        rng = np.random.default_rng(6)
        p = random_params(rng)
        ks = allowed_modes(p.n_rungs)
        table = mode_data(p, ks)
        for i, k in enumerate(ks):
            m = mode_data(p, float(k))
            for name in ("eps_q", "eps_p", "eps_qp", "gamma", "e_alpha", "e_beta", "gap"):
                assert getattr(table, name)[i] == pytest.approx(getattr(m, name), rel=1e-13, abs=1e-13)

    def test_gap_mirror_symmetry(self):
        p = params(j=1.3, jv=0.8, jd=0.9, theta=0.7, n=31)
        ks = allowed_modes(31)
        gaps = mode_data(p, ks).gap
        mirrored = mode_data(p, (2 * np.pi - ks) % (2 * np.pi)).gap
        np.testing.assert_allclose(gaps, mirrored, atol=1e-12)

    def test_flux_parity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = random_params(rng)
            k = rng.uniform(0.0, 2 * np.pi)
            ea_plus = mode_data(p, k).e_alpha
            ea_minus = mode_data(p.with_theta(-p.theta), k).e_alpha
            assert ea_plus == pytest.approx(ea_minus, abs=1e-12)


class TestCriticalStructure:
    def test_symmetric_point(self):
        lo, hi = critical_wavenumbers(params())
        assert lo == pytest.approx(2 * np.pi / 3)
        assert hi == pytest.approx(4 * np.pi / 3)

    def test_sqrt3_point(self):
        lo, hi = critical_wavenumbers(params(jv=np.sqrt(3.0)))
        assert lo == pytest.approx(5 * np.pi / 6)
        assert hi == pytest.approx(7 * np.pi / 6)
        assert mode_data(params(jv=np.sqrt(3.0)), lo).gap == pytest.approx(0.0, abs=1e-12)

    def test_rejects_large_vertical_hopping(self):
        with pytest.raises(DomainError):
            critical_wavenumbers(params(jv=2.0))

    def test_rejects_unequal_hoppings(self):
        with pytest.raises(DomainError):
            critical_wavenumbers(params(jd=1.2))

    @pytest.mark.parametrize(
        "jv, j, expected",
        [
            (1.0, 1.0, (1, 3)),
            (math.sqrt(3.0), 1.0, (1, 6)),
            (-1.0 + math.sqrt(3.0), math.sqrt(2.0), (5, 12)),
        ],
    )
    def test_rational_angle_detection(self, jv, j, expected):
        angle = detect_rational_angle(params(j=j, jv=jv), q_max=64, tol=1e-9)
        assert (angle.p, angle.q) == expected
        # the detected fraction reproduces the hopping ratio
        assert math.cos(angle.p / angle.q * math.pi) == pytest.approx(jv / (2 * j), abs=1e-12)

    def test_incommensurate_angle_returns_none(self):
        assert detect_rational_angle(params(jv=0.37), q_max=64, tol=1e-9) is None

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_rejects_tolerance_outside_positive_finite(self, tol):
        with pytest.raises(DomainError):
            detect_rational_angle(params(jv=0.37), q_max=64, tol=tol)

    @pytest.mark.parametrize("pq, base", [((1, 3), 3), ((1, 6), 12), ((5, 12), 24)])
    def test_commensurate_base(self, pq, base):
        assert commensurate_base(RationalAngle(*pq)) == base

    def test_base_divides_iff_modes_on_grid(self):
        # exhaustive: base | N  <=>  both gap-closing wavenumbers quantized
        for q in range(2, 13):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                base = commensurate_base(RationalAngle(p, q))
                for n in range(2, 201):
                    on_grid = (n * (q - p)) % (2 * q) == 0 and (n * (q + p)) % (2 * q) == 0
                    assert (n % base == 0) == on_grid
                    assert is_commensurate(RationalAngle(p, q), n) == (n % base == 0)

    @pytest.mark.parametrize(
        "jv, j, expected",
        [
            (1.0, 1.0, 2.0 * math.sqrt(3.0)),
            (math.sqrt(3.0), 1.0, 2.0),
            (-1.0 + math.sqrt(3.0), math.sqrt(2.0), 2.0 * math.sqrt(4.0 + 2.0 * math.sqrt(3.0))),
        ],
    )
    def test_group_velocity_closed_form(self, jv, j, expected):
        assert group_velocity(params(j=j, jv=jv)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "jv, j", [(1.0, 1.0), (math.sqrt(3.0), 1.0), (-1.0 + math.sqrt(3.0), math.sqrt(2.0))]
    )
    def test_group_velocity_finite_difference(self, jv, j):
        # the gap has a kink at its zero, so differentiate one-sided
        # (second-order formula)
        p = params(j=j, jv=jv)
        h = 1e-6
        for kc in critical_wavenumbers(p):
            gap = mode_data(p, kc + np.array([0.0, h, 2 * h])).gap
            slope = (4 * gap[1] - gap[2] - 3 * gap[0]) / (2 * h)
            assert abs(slope) == pytest.approx(group_velocity(p), abs=1e-6)


class TestGroundStateEnergy:
    def test_two_rung_closed_form(self):
        # modes {0, pi}: shifted lower band gives -6 and 0
        assert ground_state_energy(params(n=2)) == pytest.approx(-6.0, abs=1e-13)

    def test_even_in_flux(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            p = random_params(rng)
            assert ground_state_energy(p) == pytest.approx(
                ground_state_energy(p.with_theta(-p.theta)), abs=1e-10
            )

    def test_extensive_far_from_criticality(self):
        p1 = params(theta=0.4 * np.pi, n=100)
        p2 = params(theta=0.4 * np.pi, n=200)
        per_rung_1 = ground_state_energy(p1) / 100
        per_rung_2 = ground_state_energy(p2) / 200
        assert per_rung_2 == pytest.approx(per_rung_1, rel=0.01)


class TestValidation:
    def test_rejects_nonpositive_hoppings(self):
        with pytest.raises(DomainError):
            LadderParams(1.0, -1.0, 1.0, 0.0, 4)
        with pytest.raises(DomainError):
            LadderParams(1.0, 1.0, 0.0, 0.0, 4)

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            LadderParams(1.0, 1.0, 1.0, 0.0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_inputs(self, bad):
        for args in ((bad, 1.0, 1.0, 0.0, 4), (1.0, bad, 1.0, 0.0, 4),
                     (1.0, 1.0, bad, 0.0, 4), (1.0, 1.0, 1.0, bad, 4)):
            with pytest.raises(DomainError):
                LadderParams(*args)
        with pytest.raises(DomainError):
            canonical_angle(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rung_count(self, bad):
        # int() would raise ValueError (nan) or OverflowError (inf)
        with pytest.raises(DomainError):
            LadderParams(1.0, 1.0, 1.0, 0.0, bad)
        with pytest.raises(DomainError):
            allowed_modes(bad)

    def test_rejects_hoppings_that_overflow_the_mode_table(self):
        # eps_qp**2 overflows to inf beyond about 1e154; the table stays
        # finite at the limit and is refused above it
        for args in ((1e200, 1.0, 1.0, 0.3, 4), (1.0, 1e200, 1.0, 0.3, 4),
                     (1.0, 1.0, 1e200, 0.3, 4), (-1e151, 1.0, 1.0, 0.3, 4)):
            with pytest.raises(DomainError, match="overflow"):
                LadderParams(*args)
        m = mode_data(LadderParams(1e150, 1e150, 1e150, 0.3, 4), allowed_modes(4))
        assert all(np.all(np.isfinite(getattr(m, f))) for f in ("gamma", "e_alpha", "e_beta", "gap"))

    def test_critical_flux_on_canonical_angle(self):
        for theta in (0.0, math.pi, -math.pi, 2 * math.pi, -3 * math.pi, 1e-13):
            assert is_critical_flux(theta)
        for theta in (0.25 * math.pi, -0.5 * math.pi, 1e-9, math.pi - 1e-9):
            assert not is_critical_flux(theta)

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_canonical_angle_range(self, theta):
        reduced = canonical_angle(theta)
        assert -math.pi < reduced <= math.pi
        assert math.cos(reduced) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(reduced) == pytest.approx(math.sin(theta), abs=1e-9)

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=200)
    def test_gap_nonnegative(self, j, jv, theta, k):
        m = mode_data(LadderParams(j, jv, j, theta, 8), k)
        assert m.gap >= 0.0
        assert m.gap == pytest.approx(m.e_beta - m.e_alpha, abs=1e-12)
