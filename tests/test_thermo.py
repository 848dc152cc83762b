"""Work statistics: mode sums, the enumerated distribution, and sweeps."""

import math
import sys
import threading
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
from creutz import model, thermo
from creutz.model import mode_arrays


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

    The full-mode table of one quench, as work statistics were computed
    before the (theta2 x k) scan, and correctly rounded sums (``math.fsum``)
    of per-mode terms over all N modes, so that the referee adds no
    rounding of its own at large N.
    """
    _, _, cos2, gap_post, ea_pre, ea_post = mode_arrays(spec, allowed_modes(spec.params.n_rungs))
    sin2 = 1.0 - cos2
    eb_post = ea_post + gap_post
    return (
        math.fsum(ea_post * cos2 + eb_post * sin2 - ea_pre),
        math.fsum(ea_post - ea_pre),
        math.fsum(sin2 * gap_post),
    )


def longdouble_work_sums(params, theta1, theta2):
    """Per-row work sums and their scales, every operation in ``np.longdouble``.

    The modes of the scan (j = 0..N//2, paired modes counted twice) with the
    scan's per-mode terms: dc = v cos theta2 - v cos theta1, dh = h2 - h1,
    lin = c1 a2 - c1 a1 and the irreversible term as in ``scan_theta2``.
    Returns, per theta2, ((average_work, delta_f, irreversible_work),
    (scale_average, scale_delta_f, scale_irreversible)), a scale being the
    sum over modes of the absolute values of the products the sum adds and
    subtracts: |v cos theta1| + |v cos theta2| for dc, h1 + h2 for dh and
    |c1 a1| + |c1 a2| for lin.
    """
    ld = np.longdouble
    n = params.n_rungs
    k = allowed_modes(n)[: n // 2 + 1].astype(ld)
    weight = np.full(k.size, ld(2))
    weight[0] = 1
    if n % 2 == 0:
        weight[-1] = 1
    j_h, j_v, j_d = ld(params.j_h), ld(params.j_v), ld(params.j_d)
    u, v, q = 2 * j_h * np.sin(k), -2 * j_h * np.cos(k), 2 * j_d * np.cos(k) + j_v
    t1 = ld(theta1)
    a1 = u * np.sin(t1)
    h1 = np.sqrt(q * q + a1 * a1)
    c1 = a1 / h1  # h1 > 0: the pre-quench flux is not critical
    rows = []
    for t2 in np.asarray(theta2, dtype=float).astype(ld):
        a2 = u * np.sin(t2)
        h2 = np.sqrt(q * q + a2 * a2)
        dc, dh, lin = v * np.cos(t2) - v * np.cos(t1), h2 - h1, c1 * a2 - c1 * a1
        cross = q * q + a1 * a2
        safe = np.where(cross > 0, h1 * (h1 * h2 + cross), 1)
        irreversible = np.where(cross > 0, q * q * (a2 - a1) ** 2 / safe, dh - lin)
        e_c = np.abs(v) * (abs(np.cos(t1)) + abs(np.cos(t2)))
        e_h, e_l = h1 + h2, np.abs(c1) * (np.abs(a1) + np.abs(a2))
        sums = [np.sum(weight * x) for x in (dc - lin, dc - dh, irreversible)]
        scales = [np.sum(weight * x) for x in (e_c + e_l, e_c + e_h, e_h + e_l)]
        rows.append((sums, scales))
    return rows


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
        _, _, cos2, gap_post, ea_pre, ea_post = mode_arrays(spec, allowed_modes(21))
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
            _, amplitude, _, _, _, _ = mode_arrays(spec, allowed_modes(spec.params.n_rungs))
            active = int(np.sum(amplitude > 0.0))
            assert dist.works.size <= 2**active

    def test_moments_match_mode_sums(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            spec = random_spec(rng, n_max=13)
            dist = work_distribution(spec)
            stats = work_stats(spec)
            assert dist.mean == pytest.approx(stats.average_work, abs=1e-10)
            _, _, cos2, gap_post, _, _ = mode_arrays(spec, allowed_modes(spec.params.n_rungs))
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
        delta_f = scan_theta2(params, 0.25 * math.pi, grid)[1]
        np.testing.assert_allclose(delta_f, delta_f[::-1], atol=1e-12)

    def test_extremum_at_critical_flux(self):
        # the free-energy difference is even in theta2 and stationary at
        # the critical flux; the filled band is highest there
        params = LadderParams(1.0, 1.0, 1.0, 0.0, 64)
        grid = np.linspace(-0.5, 0.5, 101) * math.pi
        delta_f = scan_theta2(params, 0.25 * math.pi, grid)[1]
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
            for theta2, sums in zip(grid, scan_theta2(params, theta1, grid).T):
                spec = QuenchSpec(params=params, theta_pre=theta1, theta_post=theta2)
                expected = reference_work_stats(spec)
                got = work_stats(spec)
                for actual in (tuple(sums), (got.average_work, got.delta_f, got.irreversible_work)):
                    for a, e in zip(actual, expected):
                        assert abs(a - e) <= 1e-12 * max(1.0, abs(e)), (theta1, theta2)
                    average, delta_f, irreversible = actual
                    scale = max(1.0, abs(average), abs(delta_f))
                    assert abs(average - delta_f - irreversible) <= 1e-12 * scale
                    if theta2 == theta1:
                        assert irreversible == 0.0

    @pytest.mark.parametrize("n", [2, 4, 10, 64, 100])
    def test_pre_quench_gap_closing_on_grid(self, n):
        # j_v = 2 j_d at theta1 = 0 closes the pre-quench gap at k = pi,
        # which even N puts on the grid: there h1 = 0, and the scan takes
        # cos gamma1 = 1
        rng = np.random.default_rng(50 + n)
        for j in (1.0, rng.uniform(0.3, 2.0)):
            params = LadderParams(j, 2.0 * j, j, 0.0, n)
            assert mode_data(params, allowed_modes(n)).gap[n // 2] == 0.0
            grid = np.concatenate([[0.0, math.pi, -math.pi, 0.5 * math.pi], rng.uniform(-4, 4, 8)])
            for theta2, actual in zip(grid, scan_theta2(params, 0.0, grid).T):
                assert all(math.isfinite(a) for a in actual)
                expected = reference_work_stats(QuenchSpec(params, 0.0, theta2))
                for a, e in zip(actual, expected):
                    assert abs(a - e) <= 1e-12 * max(1.0, abs(e)), theta2

    def test_near_no_quench_irreversible_work_nonnegative(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            spec = random_spec(rng, n_max=200)
            theta1 = spec.theta_pre
            grid = theta1 + np.array([1e-9, -1e-9, 1e-6])
            assert np.all(scan_theta2(spec.params, theta1, grid)[2] >= 0.0)

    def test_large_ladder_matches_per_point_reference(self):
        params = LadderParams(1.0, 1.0, 1.0, 0.0, 20000)
        theta1 = 0.25 * math.pi
        grid = np.array([-1.0, -0.5, -0.25, 0.0, 0.2549722, 0.5, 1.0]) * math.pi
        for theta2, actual in zip(grid, scan_theta2(params, theta1, grid).T):
            expected = reference_work_stats(QuenchSpec(params, theta1, theta2))
            for a, e in zip(actual, expected):
                assert abs(a - e) <= 1e-12 * max(1.0, abs(e)), theta2

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble has no extra precision on this platform")
    @pytest.mark.parametrize("theta1", [0.24, 0.25, 0.2549722, 0.26])
    def test_full_grid_within_longdouble_bound(self, theta1):
        # every row of the N = 20000 x 401 scan is within 2 eps of the
        # summed magnitudes of its per-mode products (measured at most 0.67)
        params = LadderParams(1.0, 1.0, 1.0, 0.0, 20000)
        grid = np.linspace(-1.0, 1.0, 401) * math.pi
        eps = np.finfo(float).eps
        stats = scan_theta2(params, theta1 * math.pi, grid)
        reference = longdouble_work_sums(params, theta1 * math.pi, grid)
        for theta2, actual, (sums, scales) in zip(grid, stats.T, reference):
            for a, e, scale in zip(actual, sums, scales):
                assert abs(np.longdouble(a) - e) <= 2 * eps * scale, theta2

    def test_two_rungs_excite_nothing(self):
        # N = 2 has only k = 0 and k = pi, where sin k = 0: the flux shifts
        # both bands there, by opposite amounts, so every sum is exactly 0
        rng = np.random.default_rng(2)
        for _ in range(200):
            j_d = rng.uniform(0.2, 2.0)
            j_v = 2.0 * j_d if rng.random() < 0.5 else rng.uniform(0.2, 3.0)
            params = LadderParams(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0), j_v, j_d, 0.0, 2)
            theta1, *grid = rng.uniform(-math.pi, math.pi, 9)
            assert not np.any(scan_theta2(params, theta1, grid))
            stats = work_stats(QuenchSpec(params, theta1, grid[0]))
            assert (stats.average_work, stats.delta_f, stats.irreversible_work) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("theta1", [0.24, 0.25, 0.26])
    def test_mirror_flux_excites_nothing(self, theta1):
        # theta2 = pi - theta1 has the same sin theta up to rounding, so no
        # mode is excited; clamped dh - lin terms would sum 7e-13 of noise
        params = LadderParams(1.0, 1.0, 1.0, 0.0, 20000)
        (irreversible,) = scan_theta2(params, theta1 * math.pi, [(1.0 - theta1) * math.pi])[2]
        assert 0.0 <= irreversible <= 1e-20

    @pytest.mark.parametrize("m", [100, -100, 250, -250, 400, -400, 498, -498])
    def test_hoppings_times_a_power_of_two_give_the_sums_times_it(self, m):
        # the sums are taken with the hoppings in units of a power of two, so
        # the bits follow the hoppings' scale exactly; in units of 1 the
        # irreversible term, a quartic over a cubic in the band energies,
        # overflowed or underflowed towards either end of the range
        grid = np.linspace(-1.0, 1.0, 41) * math.pi
        for n, hoppings in ((7, (1.0, 1.1, 1.2)), (8, (-1.2, 1.0, 1.05))):
            base, scaled = (LadderParams(*(x * s for x in hoppings), 0.0, n) for s in (1.0, 2.0**m))
            expected = np.ldexp(scan_theta2(base, 0.25 * math.pi, grid), m)
            assert scan_theta2(scaled, 0.25 * math.pi, grid).tobytes() == expected.tobytes()
            stats = [work_stats(QuenchSpec(p, 0.25 * math.pi, 0.6 * math.pi)) for p in (base, scaled)]
            expected = [math.ldexp(x, m) for x in (stats[0].average_work, stats[0].delta_f,
                                                   stats[0].irreversible_work)]
            assert [stats[1].average_work, stats[1].delta_f, stats[1].irreversible_work] == expected

    @pytest.mark.parametrize("j", [1e150, 1e100, 1e77, 1e-100, 1e-150])
    def test_irreversible_work_is_finite_over_the_hopping_range(self, j):
        # in units of 1 these gave nan (1e150 and 1e-150), inf (1e100 and
        # 1e77) and 0 (1e-100)
        stats = work_stats(make_spec(0.0016 * math.pi, 0.5 * math.pi, n=7, j=j, jv=j))
        unit = work_stats(make_spec(0.0016 * math.pi, 0.5 * math.pi, n=7))
        assert stats.irreversible_work == pytest.approx(j * unit.irreversible_work, rel=1e-14)
        assert stats.irreversible_work > 0.0

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

    @pytest.mark.parametrize("workers", [2, 8])
    def test_scan_peak_memory_with_many_cpus(self, monkeypatch, workers):
        # each worker holds its own buffers; 8 of them peak at 12.4 MiB
        monkeypatch.setattr(thermo, "_worker_count", lambda: workers)
        self.test_scan_peak_memory_is_chunked()

    def test_same_bits_for_any_worker_count(self, monkeypatch):
        # each worker takes a contiguous run of whole chunks; with more
        # workers than cores and a short switch interval, a row written
        # twice or not at all would show
        params = LadderParams(1.0, 1.0, 1.0, 0.0, 20000)
        theta1 = 0.25 * math.pi
        grids = [np.linspace(-1.0, 1.0, 401) * math.pi,  # 134 chunks of 3 rows
                 np.array([-0.5, 0.1]) * math.pi,  # less than one chunk
                 np.array([theta1])]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for grid in grids:
                monkeypatch.setattr(thermo, "_worker_count", lambda: 1)
                ref = thermo.scan_theta2(params, theta1, grid)
                for workers in (2, 3, 5):
                    monkeypatch.setattr(thermo, "_worker_count", lambda: workers)
                    assert np.array_equal(thermo.scan_theta2(params, theta1, grid), ref)
        finally:
            sys.setswitchinterval(interval)
        assert np.all(ref == 0.0)  # theta2 = theta1

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        # every work call is a grid of one angle
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(thermo, "_worker_count", lambda: 4)
        monkeypatch.setattr(threading, "Thread", no_thread)
        params = LadderParams(1.0, 1.0, 1.0, 0.0, 20000)
        assert np.all(np.isfinite(thermo.scan_theta2(params, 0.25 * math.pi, [0.1, -0.5])))
        assert work_stats(make_spec(0.25 * math.pi, 0.1, n=20000)).irreversible_work > 0.0

    @pytest.mark.parametrize("in_main", [True, False])
    def test_piece_failure_is_raised(self, monkeypatch, in_main):
        # an error in any piece reaches the caller after every thread stopped
        monkeypatch.setattr(thermo, "_worker_count", lambda: 2)
        run_pieces = model._run_pieces

        def failing_pieces(run, *split):
            def failing(*piece):
                if (threading.current_thread() is threading.main_thread()) == in_main:
                    raise RuntimeError("injected")
                return run(*piece)

            run_pieces(failing, *split)

        monkeypatch.setattr(thermo, "_run_pieces", failing_pieces)
        params = LadderParams(1.0, 1.0, 1.0, 0.0, 20000)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            thermo.scan_theta2(params, 0.25 * math.pi, np.linspace(-1.0, 1.0, 401) * math.pi)
        assert threading.active_count() == before
