"""Work statistics: mode sums, the enumerated distribution, and sweeps."""

import math
import tracemalloc

import numpy as np
import pytest

from creutz import (
    DomainError,
    LadderParams,
    QuenchSpec,
    allowed_modes,
    mode_data,
    scan_theta2,
    work_distribution,
    work_stats,
)
from creutz.quench import mode_arrays


def ground_state_energy(p):
    """The lower band summed over the mode grid."""
    return float(np.sum(mode_data(p, allowed_modes(p.n_rungs)).e_alpha))


def make_spec(th1, th2, n=8, j=1.0, jv=1.0):
    return QuenchSpec(
        params=LadderParams(j_h=j, j_v=jv, j_d=j, theta=0.0, n_rungs=n),
        theta_pre=th1,
        theta_post=th2,
    )


def random_spec(rng, n_max=40):
    j = rng.uniform(0.3, 2.0)
    return make_spec(
        rng.uniform(-np.pi, np.pi),
        rng.uniform(-np.pi, np.pi),
        n=int(rng.integers(2, n_max)),
        j=j,
        jv=rng.uniform(0.05, 1.95) * j,
    )


def reference_work_stats(spec):
    """(average_work, delta_f, irreversible_work) from a per-point loop.

    The full-mode table of one quench and plain sums over all N modes,
    as work statistics were computed before the (theta2 x k) scan.
    """
    _, _, cos2, gap_post, ea_pre, ea_post = mode_arrays(spec)
    sin2 = 1.0 - cos2
    eb_post = ea_post + gap_post
    return (
        float(np.sum(ea_post * cos2 + eb_post * sin2 - ea_pre)),
        float(np.sum(ea_post)) - float(np.sum(ea_pre)),
        float(np.sum(sin2 * gap_post)),
    )


class TestWorkStats:
    def test_no_quench_is_free(self):
        stats = work_stats(make_spec(0.3, 0.3))
        assert stats.average_work == pytest.approx(0.0, abs=1e-12)
        assert stats.delta_f == pytest.approx(0.0, abs=1e-12)
        assert stats.irreversible_work == pytest.approx(0.0, abs=1e-12)

    def test_work_sign_tracks_band_energy_direction(self):
        # the filled-band energy falls as |sin theta| grows, so lowering
        # the flux magnitude inside (0, pi/2) costs work and raising it
        # releases work
        lowered = work_stats(make_spec(0.25 * math.pi, 0.2 * math.pi, n=50))
        raised = work_stats(make_spec(0.25 * math.pi, 0.35 * math.pi, n=50))
        assert lowered.average_work > 0.0
        assert raised.average_work < 0.0

    def test_decomposition(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            stats = work_stats(random_spec(rng))
            assert stats.irreversible_work == pytest.approx(
                stats.average_work - stats.delta_f, abs=1e-10
            )

    def test_irreversible_work_nonnegative_everywhere(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            spec = random_spec(rng)
            stats = work_stats(spec)
            assert stats.irreversible_work >= -1e-10
            # term-by-term positivity of the defining sum
            _, _, cos2, gap_post, _, _ = mode_arrays(spec)
            assert np.all((1.0 - cos2) * gap_post >= -1e-14)

    def test_delta_f_matches_ground_state_energies(self):
        spec = make_spec(0.2, -0.7, n=17)
        stats = work_stats(spec)
        expected = ground_state_energy(spec.post) - ground_state_energy(spec.pre)
        assert stats.delta_f == pytest.approx(expected, rel=1e-14)

    def test_shift_invariance(self):
        # adding a constant to both bands cancels in every statistic
        spec = make_spec(0.4, -0.3, n=21)
        stats = work_stats(spec)
        shift = 1.7
        _, _, cos2, gap_post, ea_pre, ea_post = mode_arrays(spec)
        eb_post = ea_post + gap_post
        avg = np.sum((ea_post + shift) * cos2 + (eb_post + shift) * (1 - cos2) - (ea_pre + shift))
        delta_f = np.sum(ea_post + shift) - np.sum(ea_pre + shift)
        assert avg == pytest.approx(stats.average_work, abs=1e-12)
        assert delta_f == pytest.approx(stats.delta_f, abs=1e-12)
        assert avg - delta_f == pytest.approx(stats.irreversible_work, abs=1e-12)


class TestWorkDistribution:
    def test_no_quench_single_outcome(self):
        dist = work_distribution(make_spec(0.3, 0.3, n=6))
        assert dist.works.size == 1
        assert dist.works[0] == pytest.approx(0.0, abs=1e-12)
        assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)

    def test_normalization_and_support(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            spec = random_spec(rng, n_max=11)
            dist = work_distribution(spec)
            assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(dist.probabilities > 0.0)
            assert np.all(np.diff(dist.works) > 0.0)
            _, amplitude, _, _, _, _ = mode_arrays(spec)
            active = int(np.sum(amplitude > 0.0))
            assert dist.works.size <= 2**active

    def test_moments_match_mode_sums(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            spec = random_spec(rng, n_max=13)
            dist = work_distribution(spec)
            stats = work_stats(spec)
            assert dist.mean == pytest.approx(stats.average_work, abs=1e-10)
            _, _, cos2, gap_post, _, _ = mode_arrays(spec)
            variance = float(np.sum(cos2 * (1 - cos2) * gap_post**2))
            assert dist.variance == pytest.approx(variance, abs=1e-9)

    def test_minimal_ladder_collapses_to_free_energy_shift(self):
        # N=2 modes sit at k = 0, pi where the legs never mix
        dist = work_distribution(make_spec(0.5, -0.4, n=2))
        stats = work_stats(make_spec(0.5, -0.4, n=2))
        assert dist.works.size == 1
        assert dist.works[0] == pytest.approx(stats.delta_f, abs=1e-12)

    def test_size_guard(self):
        with pytest.raises(DomainError):
            work_distribution(make_spec(0.1, 0.2, n=17))


class TestScan:
    def test_delta_f_symmetric_in_target_flux(self):
        params = LadderParams(1.0, 1.0, 1.0, 0.0, 64)
        grid = np.linspace(-0.9, 0.9, 101) * math.pi
        stats = scan_theta2(params, 0.25 * math.pi, grid)
        delta_f = np.array([s.delta_f for s in stats])
        np.testing.assert_allclose(delta_f, delta_f[::-1], atol=1e-12)

    def test_extremum_at_critical_flux(self):
        # the free-energy difference is even in theta2 and stationary at
        # the critical flux; the filled band is highest there
        params = LadderParams(1.0, 1.0, 1.0, 0.0, 64)
        grid = np.linspace(-0.5, 0.5, 101) * math.pi
        delta_f = [s.delta_f for s in scan_theta2(params, 0.25 * math.pi, grid)]
        assert delta_f[50] == pytest.approx(max(delta_f), abs=1e-12)
        assert delta_f[50] > delta_f[40] > delta_f[25] > delta_f[0]

    def test_irreversible_work_jumps_across_transition(self):
        # small within the phase (away from the critical flux), two
        # orders larger once the quench crosses it
        inside = [
            work_stats(make_spec(0.25 * math.pi, t2 * math.pi, n=128)).irreversible_work
            for t2 in np.linspace(0.2, 0.8, 13)
        ]
        across = work_stats(make_spec(0.25 * math.pi, -0.25 * math.pi, n=128)).irreversible_work
        assert max(inside) < 0.05 * across

    def test_same_phase_per_rung_work_collapses(self):
        per_rung = [
            work_stats(make_spec(0.25 * math.pi, 0.35 * math.pi, n=n)).average_work / n
            for n in (50, 100, 200)
        ]
        spread = max(per_rung) - min(per_rung)
        assert spread <= 1e-8 * abs(per_rung[0])

    def test_cross_critical_residual_is_small(self):
        # collapse across the transition is not guaranteed at machine
        # precision; record the residual against a loose bound
        per_rung = [
            work_stats(make_spec(0.25 * math.pi, -0.25 * math.pi, n=n)).average_work / n
            for n in (50, 100, 200)
        ]
        residual = (max(per_rung) - min(per_rung)) / abs(per_rung[0])
        print(f"cross-critical per-rung work residual: {residual:.3e}")
        assert residual < 1e-2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 10, 64, 101])
    def test_matches_per_point_reference(self, n):
        rng = np.random.default_rng(40 + n)
        unit = LadderParams(1.0, 1.0, 1.0, 0.0, n)
        cases = [(unit, 0.25 * math.pi), (unit, 0.0)]
        for _ in range(4):
            j = rng.uniform(0.3, 2.0)
            params = LadderParams(j, rng.uniform(0.05, 1.95) * j, j, 0.0, n)
            cases.append((params, rng.uniform(-math.pi, math.pi)))
        for params, theta1 in cases:
            # 0 and +-pi are the critical fluxes; theta2 = theta1 is no quench
            grid = np.concatenate([[0.0, math.pi, -math.pi, theta1], rng.uniform(-4.0, 4.0, 12)])
            for theta2, stats in zip(grid, scan_theta2(params, theta1, grid)):
                spec = QuenchSpec(params=params, theta_pre=theta1, theta_post=theta2)
                expected = reference_work_stats(spec)
                for got in (stats, work_stats(spec)):
                    actual = (got.average_work, got.delta_f, got.irreversible_work)
                    for a, e in zip(actual, expected):
                        assert abs(a - e) <= 1e-12 * max(1.0, abs(e)), (theta1, theta2)
                    average, delta_f, irreversible = actual
                    scale = max(1.0, abs(average), abs(delta_f))
                    assert abs(average - delta_f - irreversible) <= 1e-12 * scale
                    if theta2 == theta1:
                        assert irreversible == 0.0

    def test_scan_peak_memory_is_chunked(self):
        params = LadderParams(1.0, 1.0, 1.0, 0.0, 20000)
        grid = np.linspace(-1.0, 1.0, 401) * math.pi
        tracemalloc.start()
        try:
            scan_theta2(params, 0.25 * math.pi, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
