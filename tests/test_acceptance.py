"""Acceptance suite: published reference values at fixed tolerances.

Each test prints one PASS/FAIL line.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines; the whole suite stays
within the stated runtime budgets on a laptop-class machine.

Known red check: criterion 7 requires the echo of the incommensurate
ladder (N=100) to stay above 1e-6 after a 0.25pi -> 0 quench.  The
exact dynamics contradicts that floor: the echo dips to ~1e-22, and the
independent determinant oracle reproduces the product-formula value to
machine precision (``test_criterion_7_minimum_matches_the_oracle``), so
the reference floor cannot be met by a correct implementation.  The
check is asserted as stated and fails honestly.
"""

import math
import time

import numpy as np

from creutz import (
    LadderParams,
    QuenchSpec,
    allowed_modes,
    critical_wavenumbers,
    detect_cusps,
    detect_revivals,
    exact_le_oracle,
    fisher_zero_lines,
    group_velocity,
    loschmidt_echo,
    mode_data,
    predict_dqpt_times,
    predict_revival,
    solve_critical_modes,
    work_distribution,
    work_stats,
)
from creutz.model import mode_arrays
from test_dqpt import critical_mode_residual

NEAR_CRITICAL = 0.0016 * math.pi


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    return ok


def quench(th1, th2, n, j=1.0, jv=1.0):
    return QuenchSpec(
        params=LadderParams(j_h=j, j_v=jv, j_d=j, theta=0.0, n_rungs=n),
        theta_pre=th1,
        theta_post=th2,
    )


def detect_first_revival(spec, dt=0.02):
    prediction = predict_revival(spec)
    times = np.arange(0.0, 2.0 * prediction.period + dt, dt)
    series = loschmidt_echo(spec, times, include_la=False)
    return prediction, detect_revivals(series).first_revival


def run_table(rows, j, jv, budget, label):
    start = time.monotonic()
    failures = []
    for n, printed_prediction, printed_detection in rows:
        prediction, first = detect_first_revival(quench(NEAR_CRITICAL, 0.0, n, j=j, jv=jv))
        if abs(prediction.period - printed_prediction) > 0.002 * printed_prediction:
            failures.append(f"N={n}: prediction {prediction.period:.4f} != {printed_prediction}")
        if abs(first - printed_detection) > 0.01 * printed_detection:
            failures.append(f"N={n}: detected {first:.4f} != {printed_detection}")
    elapsed = time.monotonic() - start
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds {budget}s")
    ok = report(label, not failures, f"{len(rows)} sizes in {elapsed:.1f}s")
    assert ok, "; ".join(failures)


def test_criterion_1_symmetric_ladder_revivals():
    vg = 2.0 * math.sqrt(3.0)
    rows = [
        (100, 300 / vg, 86.58),
        (400, 1200 / vg, 345.89),
        (500, 1500 / vg, 432.33),
        (1000, 3000 / vg, 865.44),
    ]
    run_table(rows, j=1.0, jv=1.0, budget=30.0, label="1 revival table jv=1")


def test_criterion_2_sqrt3_ladder_revivals():
    rows = [
        (100, math.lcm(12, 100) / 2, 149.22),
        (400, math.lcm(12, 400) / 2, 599.69),
        (500, math.lcm(12, 500) / 2, 751.00),
        (1000, math.lcm(12, 1000) / 2, 1499.97),
    ]
    run_table(rows, j=1.0, jv=math.sqrt(3.0), budget=60.0, label="2 revival table jv=sqrt3")


def test_criterion_3_moved_modes_revivals():
    vg = 2.0 * math.sqrt(4.0 + 2.0 * math.sqrt(3.0))
    rows = [
        (100, math.lcm(24, 100) / vg, 109.39),
        (300, math.lcm(24, 300) / vg, 109.70),
        (400, math.lcm(24, 400) / vg, 219.27),
        (500, math.lcm(24, 500) / vg, 549.38),
        (1000, math.lcm(24, 1000) / vg, 549.30),
    ]
    run_table(rows, j=math.sqrt(2.0), jv=math.sqrt(3.0) - 1.0, budget=60.0,
              label="3 revival table moved modes")


def test_criterion_4_commensurability_jump():
    _, first_100 = detect_first_revival(quench(NEAR_CRITICAL, 0.0, 100))
    _, first_99 = detect_first_revival(quench(NEAR_CRITICAL, 0.0, 99))
    ratio = first_100 / first_99
    ok = report("4 commensurability jump", abs(ratio - 3.0) <= 0.15,
                f"T(100)/T(99) = {ratio:.4f}")
    assert ok, f"ratio {ratio} not within 5% of 3"


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1905)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        jv = rng.uniform(0.1, 1.9)
        spec = quench(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi), n, jv=jv)
        times = rng.uniform(0.0, 50.0, 20)
        series = loschmidt_echo(spec, times, include_la=False)
        for i, t in enumerate(times):
            le_oracle, _ = exact_le_oracle(spec, t)
            worst = max(worst, abs(series.le[i] - le_oracle))
    elapsed = time.monotonic() - start
    ok = report("5 oracle equivalence", worst < 1e-10 and elapsed < 10.0,
                f"worst |diff| = {worst:.2e} in {elapsed:.1f}s")
    assert ok, f"worst deviation {worst}, elapsed {elapsed}"


def test_criterion_6_dqpt_times():
    spec = quench(0.25 * math.pi, -0.25 * math.pi, 9000)
    modes = solve_critical_modes(spec)
    failures = []

    # closed-form critical wavenumbers satisfy the amplitude-one
    # condition at machine precision
    for mode in modes:
        if abs(critical_mode_residual(spec, mode.k_star)) >= 1e-12:
            failures.append(f"residual at k*={mode.k_star}")
    # the published quadratic 12 c^2 + 4 c - 7 = 0 has roots
    # (-1 +/- sqrt(22))/6; kept as an algebra cross-check even though the
    # simulated cusps single out the roots of 6 c^2 + 4 c - 1 = 0 instead
    for root in ((-1 + math.sqrt(22)) / 6, (-1 - math.sqrt(22)) / 6):
        if abs(np.polyval([12.0, 4.0, -7.0], root)) >= 1e-12:
            failures.append(f"published-root algebra at c={root}")

    timescales = sorted(m.t_star for m in modes)
    if len(timescales) != 2 or abs(timescales[0] - timescales[1]) < 1e-6:
        failures.append("expected two distinct timescales")

    dt = 1e-3
    times = np.arange(0.0, 10.0 + dt, dt)
    series = loschmidt_echo(spec, times, include_la=False)
    cusps = detect_cusps(series)
    predicted = predict_dqpt_times(spec, t_max=10.0)
    unmatched_pred = [p for p in predicted if min(abs(p - c) for c in cusps) > 2 * dt]
    unmatched_cusp = [c for c in cusps if min(abs(c - p) for p in predicted) > 2 * dt]
    if unmatched_pred:
        failures.append(f"predictions without cusps: {unmatched_pred}")
    if unmatched_cusp:
        failures.append(f"cusps without predictions: {unmatched_cusp}")

    ok = report("6 transition times", not failures,
                f"t* = {timescales[0]:.4f}, {timescales[1]:.4f}; "
                f"{len(cusps)} cusps matched within 2dt")
    assert ok, "; ".join(failures)


def test_criterion_7_zero_mode_gating():
    dt = 1e-3
    times = np.arange(0.0, 50.0 + dt, dt)
    min_hosted = float(loschmidt_echo(quench(0.25 * math.pi, 0.0, 300), times, include_la=False).le.min())
    min_missing = float(loschmidt_echo(quench(0.25 * math.pi, 0.0, 100), times, include_la=False).le.min())

    same_phase = quench(0.1 * math.pi, 0.2 * math.pi, 2000)
    crossing = fisher_zero_lines(same_phase, (0, 0), k_samples=2000)[0].crosses_imaginary_axis
    cusps = detect_cusps(loschmidt_echo(same_phase, np.arange(0.0, 10.0, dt), include_la=False))

    failures = []
    if not min_hosted < 1e-12:
        failures.append(f"hosted-size echo minimum {min_hosted:.2e} not < 1e-12")
    if not min_missing > 1e-6:
        failures.append(
            f"incommensurate-size echo minimum {min_missing:.2e} not > 1e-6 "
            "(exact dynamics dips to ~1e-22 here; reference floor unattainable, "
            "see the module docstring)"
        )
    if crossing:
        failures.append("same-phase quench shows an imaginary-axis crossing")
    if cusps:
        failures.append(f"same-phase quench shows cusps at {cusps}")

    ok = report("7 zero-mode gating", not failures,
                f"min le: hosted {min_hosted:.2e}, missing {min_missing:.2e}")
    assert ok, "; ".join(failures)


def test_criterion_7_minimum_matches_the_oracle():
    # why criterion 7 stays red: the determinant oracle gives the N = 100
    # echo's minimum, far below the 1e-6 floor, at the three samples around
    # it to 1e-11 relative (measured 4.2e-13)
    dt = 1e-3
    times = np.arange(0.0, 50.0 + dt, dt)
    spec = quench(0.25 * math.pi, 0.0, 100)
    le = loschmidt_echo(spec, times, include_la=False).le
    i = int(np.argmin(le))
    oracle, _ = exact_le_oracle(spec, times[i - 1 : i + 2])
    worst = float(np.max(np.abs(le[i - 1 : i + 2] / oracle - 1.0)))
    at_minimum = abs(times[i] - 28.236) < dt / 2 and 3.6e-22 < le[i] < 3.65e-22
    ok = report("7 oracle at the echo minimum", at_minimum and worst <= 1e-11,
                f"t = {times[i]:.3f}, le {le[i]:.3g}, oracle relative diff {worst:.1e}")
    assert ok


def test_criterion_8_work_statistics():
    failures = []
    rng = np.random.default_rng(2304)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        jv = rng.uniform(0.05, 1.95)
        spec = quench(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi), n, jv=jv)
        if work_stats(spec).irreversible_work < -1e-10:
            failures.append(f"negative irreversible work for {spec}")
            break

    no_quench = work_stats(quench(0.3, 0.3, 64))
    if abs(no_quench.average_work) > 1e-12 or abs(no_quench.irreversible_work) > 1e-12:
        failures.append("nonzero work without a quench")

    for n in range(2, 13):
        spec = quench(rng.uniform(-2, 2), rng.uniform(-2, 2), n, jv=rng.uniform(0.2, 1.8))
        dist = work_distribution(spec)
        stats = work_stats(spec)
        _, _, cos2, gap_post, _, _ = mode_arrays(spec, allowed_modes(n))
        variance = float(np.sum(cos2 * (1 - cos2) * gap_post**2))
        if abs(dist.mean - stats.average_work) > 1e-10:
            failures.append(f"N={n}: first moment off by {dist.mean - stats.average_work:.2e}")
        if abs(dist.variance - variance) > 1e-10:
            failures.append(f"N={n}: second moment off by {dist.variance - variance:.2e}")

    grid = np.linspace(-0.9, 0.9, 101) * math.pi
    params = LadderParams(1.0, 1.0, 1.0, 0.0, 64)
    delta_f = np.array(
        [work_stats(QuenchSpec(params, 0.25 * math.pi, t2)).delta_f for t2 in grid]
    )
    if np.max(np.abs(delta_f - delta_f[::-1])) > 1e-12:
        failures.append("free-energy difference not even in the target flux")

    per_rung = [work_stats(quench(0.25 * math.pi, 0.35 * math.pi, n)).average_work / n
                for n in (50, 100, 200)]
    spread = (max(per_rung) - min(per_rung)) / abs(per_rung[0])
    if spread > 1e-8:
        failures.append(f"same-phase per-rung work spread {spread:.2e}")
    across = [work_stats(quench(0.25 * math.pi, -0.25 * math.pi, n)).average_work / n
              for n in (50, 100, 200)]
    residual = (max(across) - min(across)) / abs(across[0])

    ok = report("8 work statistics", not failures,
                f"same-phase spread {spread:.1e}; cross-critical residual {residual:.1e}")
    assert ok, "; ".join(failures)


def test_criterion_9_spectral_correctness():
    rng = np.random.default_rng(999)
    worst = 0.0
    for _ in range(1000):
        params = LadderParams(
            j_h=rng.uniform(0.2, 3.0),
            j_v=rng.uniform(0.05, 3.0),
            j_d=rng.uniform(0.2, 3.0),
            theta=rng.uniform(-np.pi, np.pi),
            n_rungs=8,
        )
        k = rng.uniform(0.0, 2 * np.pi)
        eps_q = 2 * params.j_h * np.cos(k - params.theta)
        eps_p = 2 * params.j_h * np.cos(k + params.theta)
        eps_qp = 2 * params.j_d * np.cos(k) + params.j_v
        bloch = -np.array([[eps_q, eps_qp], [eps_qp, eps_p]]) - params.j_v * np.eye(2)
        eigenvalues = np.linalg.eigvalsh(bloch)
        m = mode_data(params, k)
        e_alpha, e_beta = m.e_alpha, m.e_beta
        worst = max(worst, abs(eigenvalues[0] - e_alpha), abs(eigenvalues[1] - e_beta))
    eig_ok = worst < 1e-12

    fd_ok = True
    h = 1e-6
    for jv, j in ((1.0, 1.0), (math.sqrt(3.0), 1.0), (math.sqrt(3.0) - 1.0, math.sqrt(2.0))):
        params = LadderParams(j, jv, j, 0.0, 16)
        for kc in critical_wavenumbers(params):
            # one-sided second-order difference: the gap is kinked at kc
            gap = mode_data(params, kc + np.array([0.0, h, 2 * h])).gap
            slope = (4 * gap[1] - gap[2] - 3 * gap[0]) / (2 * h)
            if abs(abs(slope) - group_velocity(params)) > 1e-6:
                fd_ok = False

    ok = report("9 spectral correctness", eig_ok and fd_ok,
                f"worst eigenvalue deviation {worst:.2e}")
    assert ok, f"eigen worst {worst}, finite-difference ok={fd_ok}"
