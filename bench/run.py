"""Benchmark of the creutz CLI and library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S    # every workload in turn
    python3 bench/run.py --self-test                  # all workloads, checks, traces at tiny sizes

Run from the root of a checkout; the program is imported from ``src/``.
One single-process closed loop: each workload step runs in a fresh
Python process (``bench/child.py``), one at a time, and the next starts
only after the previous one exited and was reaped.

``--trace 0`` repeats whole workload passes for S seconds and reports
the end-to-end metrics of BENCHMARK.json: wall time from spawn to exit,
child CPU time and peak RSS from ``os.wait4``, set-up time, and modes x
grid points per second, with every time at reference speed (see the
machine-speed section below).  ``--trace 1`` alternates untraced passes with
traced ones, whose step processes record spans (spans.py), and reports
the per-layer metrics from those spans plus the tracing overhead.
Every output is checked (see workloads.py) and every pass of one run
must write byte-identical files; checks are not timed.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
Outputs and span files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # keep the benchmark directory free of build output

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 2  # the determinism check needs two outputs per run
SETUP_PROBES = 6  # set-up-only processes per run, for the setup_s median
REFERENCE = {"kind": "reference"}  # the step spec of child.py's reference computation
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: " + "; ".join(problems))


class Outputs:
    """Checks each output file once per distinct content and enforces byte identity."""

    def __init__(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        self.first: dict[str, tuple[str, dict]] = {}

    def verify(self, step: workloads.Step) -> tuple[list[str], dict]:
        path = self.out_dir / step.out
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            return [f"no output: {exc}"], {}
        if step.out in self.first:
            first_digest, facts = self.first[step.out]
            if digest != first_digest:
                return ["output not byte-identical to the first pass"], facts
            return [], facts
        try:
            problems, facts = step.check(path)
        except Exception as exc:  # a malformed output is a failed check
            problems, facts = [f"unreadable output: {exc!r}"], {}
        facts["bytes"] = path.stat().st_size
        self.first[step.out] = (digest, facts)
        return problems, facts


# ---------------------------------------------------------------- child processes


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with os.wait4; kill it first if it outlives ``timeout``."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        timed_out = False
    except TimeoutError:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        timed_out = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, timed_out


def spawn(step_spec: dict, mode: str, timeout: float) -> dict:
    """Run child.py once; wall is spawn to exit, cpu and rss are the child's own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), mode, json.dumps(step_spec)],
            cwd=ROOT, env=env, stdout=out, stderr=err,
        )
        try:
            usage, timed_out = _wait(proc, timeout)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(errors="replace"), err.read().decode(errors="replace")
    problems = []
    if timed_out:
        problems.append(f"killed after {timeout:.0f} s")
    elif proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {stderr.strip()[-300:]}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    lines = stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines and not problems else {}
    mark = report.get("setup_mark")
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "setup": mark - start if mark is not None else None,
        "echo_only_s": report.get("echo_only_s"),
        "problems": problems,
    }


def run_pass(wl, mode: str, outputs: "Outputs", tally: Tally, deadline: float) -> list[dict]:
    """Every step of ``wl`` once, each in its own process, outputs checked."""
    children = []
    for step in wl.steps:
        child = spawn(step.spec(outputs.out_dir), mode, deadline - time.monotonic())
        problems, child["facts"] = child["problems"], {}
        if not problems:
            problems, child["facts"] = outputs.verify(step)
        tally.record(f"{wl.name} {step.command} ({mode})", problems)
        children.append(child)
    return children


def oracle(wl, tally: Tally) -> None:
    """The N=12 determinant-oracle side check, in this process and untimed."""
    if not wl.oracle_check:
        return
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        problems = workloads.compare_with_oracle(wl.theta1)
    except Exception as exc:
        problems = [f"exception: {exc!r}"]
    tally.record(f"{wl.name} N=12 oracle", problems)


def _should_stop(loop_start: float, rounds: int, end: float, deadline: float,
                 min_rounds: int) -> bool:
    """Stop before a round that would end past ``end`` (or the hard deadline)."""
    now = time.monotonic()
    finish = now + (now - loop_start) / rounds
    return finish > deadline or (rounds >= min_rounds and finish > end)


def warm_up(wl, outputs: "Outputs", deadline: float) -> dict:
    """One uncounted set-up-only process: fills the file cache and bytecode cache."""
    first = wl.steps[0].spec(outputs.out_dir)
    spawn(first, "setup", deadline - time.monotonic())
    return first


# ---------------------------------------------------------------- machine speed

# The shared virtual machine the benchmark runs on changes speed by tens
# of percent from one pass to the next and over minutes, for reasons
# outside it (CPU time moves with wall time, so it is throughput, not
# waiting).  So a run brackets every pass and every set-up probe with a
# reference step that does not touch src/ (child.py ``reference``: a
# fresh process doing numpy and scalar work of the kind the workloads
# do), and reports its times at reference speed: each measured time is
# divided by the mean of the two reference walls around it, over
# REFERENCE_S.
REFERENCE_S = 0.45  # median reference wall on the machine of baseline.json


def run_processes(wl: workloads.Workload, seconds: float, deadline: float,
                  tally: Tally, setup_probes: int = SETUP_PROBES) -> dict:
    """End-to-end metrics: whole workload passes and set-up probes within ``seconds``.

    Every probe, step and reference runs in its own process.  The probes
    are spread over the run, between passes, so that the setup_s median
    samples the same stretch of time as the passes.
    """
    outputs = Outputs(OUT / wl.name)
    first = warm_up(wl, outputs, deadline)
    references: list[float] = []

    def reference() -> float:
        child = spawn(REFERENCE, "reference", deadline - time.monotonic())
        tally.record(f"{wl.name} reference step", child["problems"])
        return child["wall"]

    def slowdown() -> float:
        """Run the next reference step; the slowdown of the process before it."""
        references.append(reference())
        return (references[-2] + references[-1]) / (2 * REFERENCE_S)

    spawn(REFERENCE, "reference", deadline - time.monotonic())  # warm-up, not counted
    start = time.monotonic()
    end = start + seconds
    references.append(reference())
    walls, cpus, rsss, setups = [], [], [], []  # as measured
    scaled = {"wall_s": [], "cpu_s": [], "setup_s": []}  # at reference speed
    probes = 0

    def probe() -> None:
        nonlocal probes
        child = spawn(first, "setup", deadline - time.monotonic())
        tally.record(f"{wl.name} set-up probe", child["problems"])
        k = slowdown()
        if child["setup"] is not None:
            setups.append(child["setup"])
            scaled["setup_s"].append(child["setup"] / k)
        probes += 1

    while True:
        share = (time.monotonic() - start) / seconds if seconds > 0 else 1.0
        while probes < setup_probes * min(1.0, share):
            probe()
        children = run_pass(wl, "run", outputs, tally, deadline)
        k = slowdown()
        walls.append(sum(c["wall"] for c in children))
        cpus.append(sum(c["cpu"] for c in children))
        rsss.append(max(c["rss_mb"] for c in children))
        scaled["wall_s"].append(walls[-1] / k)
        scaled["cpu_s"].append(cpus[-1] / k)
        for c in children:
            if c["setup"] is not None:
                setups.append(c["setup"])
                scaled["setup_s"].append(c["setup"] / k)
        if _should_stop(start, len(walls), end, deadline, MIN_PASSES):
            break
    while probes < setup_probes:
        probe()
    oracle(wl, tally)
    return {
        **scaled,
        "mode_points_per_s": [wl.points / w for w in scaled["wall_s"]],
        "peak_rss_mb": rsss,
        "measured.wall_s": walls,
        "measured.cpu_s": cpus,
        "measured.setup_s": setups,
        "measured.reference_s": references,
    }


# ---------------------------------------------------------------- traced run


def layer_metrics(wl, step_spans: list, step_facts: list, la_cost_ratio: float) -> dict:
    """Per-layer metrics of one traced pass, from each step's spans and check facts."""
    ix = spans.SpanIndex(spans.merge(step_spans))
    spectrum = spans.SpanIndex(spans.merge(
        part for step, part in zip(wl.steps, step_spans) if step.command == "spectrum"))
    facts = {key: value for one in step_facts for key, value in one.items()}
    tables = [one for step, one in zip(wl.steps, step_facts) if step.command != "echo"]
    rows = sum(one.get("rows", 0) for one in tables)
    nbytes = sum(one.get("bytes", 0) for one in tables)
    kernel_s = ix.total("quench.loschmidt_echo")
    kernel_points = sum(step.points for step in wl.steps if step.kernel_bytes)
    write_s = ix.total("serialize.write_table")
    scan_s = ix.total("thermo.scan_theta2")
    points = ix.count("thermo.work_stats")
    return {
        "cli.config_s": ix.total("cli.build_config"),
        "cli.glue_s": ix.self_time("cli.run"),
        "model.spectrum_s": spectrum.layer_time("model"),
        "model.mode_data_calls": ix.count("model.mode_data"),
        "model.ground_state_s": ix.total("model.ground_state_energy"),
        "quench.kernel_s": kernel_s,
        "quench.kernel_self_s": ix.self_time("quench.loschmidt_echo"),
        "quench.kernel_points_per_s": kernel_points / kernel_s if kernel_s else 0.0,
        "quench.bytes_computed": sum(step.kernel_bytes for step in wl.steps),
        "quench.peak_alloc_mb": max((s.peak_alloc_mb for s in ix.spans
                                     if s.peak_alloc_mb is not None), default=0.0),
        "quench.la_cost_ratio": la_cost_ratio,
        "quench.mode_arrays_s": ix.total("quench.mode_arrays"),
        "dqpt.predict_s": ix.layer_time("dqpt") - ix.total("dqpt.detect_cusps"),
        "dqpt.detect_s": ix.total("dqpt.detect_cusps"),
        "dqpt.cusps_detected": facts.get("cusps_detected", 0),
        "dqpt.match_ratio": facts.get("match_ratio", 0.0),
        "revival.predict_s": ix.total("revival.predict_revival"),
        "revival.detect_s": ix.total("revival.detect_revivals"),
        "revival.revivals_detected": facts.get("revivals_detected", 0),
        "revival.period_ratio": facts.get("period_ratio", 0.0),
        "thermo.scan_s": scan_s,
        "thermo.points": points,
        "thermo.per_point_ms": 1000.0 * scan_s / points if points else 0.0,
        "serialize.render_s": ix.total("serialize.render_csv"),
        "serialize.write_s": ix.self_time("serialize.write_table"),
        "serialize.rows": rows,
        "serialize.bytes": nbytes,
        "serialize.bytes_per_s": nbytes / write_s if write_s else 0.0,
        "trace.spans": len(ix.spans),
    }


def run_traced(wl: workloads.Workload, seconds: float, deadline: float, tally: Tally) -> dict:
    """Per-layer metrics: pairs of an untraced and a traced pass, same processes.

    The pass that runs first alternates from pair to pair, so that drift
    within a run does not favour either; the overhead is the median of the
    per-pair differences.
    """
    outputs = Outputs(OUT / wl.name)
    warm_up(wl, outputs, deadline)
    untraced, traced, per_pass = [], [], []
    start = time.monotonic()
    end = start + seconds
    while True:
        trace_files = [outputs.out_dir / spans.trace_file(step.out) for step in wl.steps]
        for path in trace_files:
            path.unlink(missing_ok=True)
        passes = {}
        for mode in ("run", "trace") if len(per_pass) % 2 == 0 else ("trace", "run"):
            passes[mode] = run_pass(wl, mode, outputs, tally, deadline)
        children = passes["trace"]
        untraced.append(sum(c["wall"] for c in passes["run"]))
        traced.append(sum(c["wall"] for c in children))
        step_spans = [spans.read(path) for path in trace_files]
        la_cost_ratio = 0.0  # no amplitude call in this workload
        for step, part in zip(wl.steps, step_spans):
            if step.command == "echo":
                amplitude = spans.SpanIndex(part).total("quench.loschmidt_echo")
                probe = spawn(step.spec(outputs.out_dir), "echo_only", deadline - time.monotonic())
                tally.record(f"{wl.name} echo-only call", probe["problems"])
                # None: the kernel has no echo-only path, so the amplitude costs nothing extra
                echo_only = probe["echo_only_s"]
                la_cost_ratio = amplitude / echo_only if echo_only else 1.0
        per_pass.append(layer_metrics(wl, step_spans, [c["facts"] for c in children],
                                      la_cost_ratio))
        if _should_stop(start, len(untraced), end, deadline, 1):
            break
    oracle(wl, tally)
    metrics = {name: [m[name] for m in per_pass] for name in per_pass[0]}
    metrics["trace.overhead_s"] = [t - u for t, u in zip(traced, untraced)]
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    return metrics


# ---------------------------------------------------------------- reporting


def high_percentile(samples: list[float]):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it, else None."""
    for q in (99.9, 99.0, 90.0):
        if len(samples) * (1.0 - q / 100.0) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return q, cut[int(q * 10) - 1]
    return None


def summarize(name: str, samples: list[float], unit: str) -> float:
    """Print one metric line and return its median."""
    value = statistics.median(samples)
    line = (f"{name:28s} {value:<14.6g} {unit:8s} median of {len(samples)} "
            f"(min {min(samples):.6g}, max {max(samples):.6g})")
    high = high_percentile(samples)
    if high:
        line += f", p{high[0]:g} {high[1]:.6g}"
    print(line)
    return value


def report(wl, samples: dict, units: dict, tally: Tally, trace: bool) -> dict:
    mode = "untraced and traced passes" if trace else "untraced passes"
    print(f"== {wl.name} seed {wl.seed} theta1 {wl.theta1} ({mode})")
    metrics = {}
    for name, unit in units.items():
        value = summarize(name, samples[name], unit)
        metrics[name] = {"value": value, "unit": unit}
    for name in sorted(set(samples) - set(units)):
        summarize(name, samples[name], "s")
    print(f"{'error_rate':28s} {tally.failed / max(1, tally.attempted):<14.6g} "
          f"{'ratio':8s} {tally.failed} failed of {tally.attempted} operations")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    return metrics


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_units(key: str) -> dict:
    return {m["name"]: m["unit"] for m in load_spec()[key]}


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (tally, {metric: {value, unit}})."""
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = workloads.make(name, seed, tiny=tiny)
    tally = Tally()
    if trace:
        samples = run_traced(wl, seconds, deadline, tally)
    else:
        samples = run_processes(wl, seconds, deadline, tally, 1 if tiny else SETUP_PROBES)
    units = load_units("per_layer" if trace else "end_to_end")
    missing = set(units) - set(samples)
    if missing:
        raise RuntimeError(f"benchmark defines no value for {sorted(missing)}")
    return tally, report(wl, samples, units, tally, trace)


def self_test() -> int:
    """Every workload, check and traced run at tiny sizes, plus tamper checks."""
    ok = True
    for name in workloads.NAMES:
        for trace in (False, True):
            tally, metrics = measure(name, 1, 0.0, trace, tiny=True)
            bad = [k for k, m in metrics.items() if not trace and not m["value"] > 0.0]
            passed = tally.failed == 0 and not bad
            ok &= passed
            print(f"SELF-TEST {name} trace={int(trace)}: {'PASS' if passed else 'FAIL'} {bad}")
    # a changed output must fail the determinism check, a broken or NaN output its check
    wl = workloads.make("mode_tables", 1, tiny=True)
    scan = wl.steps[1]
    outputs = Outputs(OUT / wl.name)
    outputs.verify(scan)
    path = OUT / wl.name / scan.out
    text = path.read_text()
    path.write_text(text + "\n")
    caught_change = bool(outputs.verify(scan)[0])
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[4] = "-1"  # irreversible_work
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    caught_broken = bool(scan.check(path)[0])
    cells[4] = "nan"
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    caught_nan = bool(scan.check(path)[0])
    echo = workloads.make("echo_amplitude", 1, tiny=True).steps[0]
    path = OUT / "echo_amplitude" / echo.out
    data = np.load(path)
    data[len(data) // 2, 1:] = np.nan  # le, la and rate of one time point
    np.save(path, data)
    caught_nan &= bool(echo.check(path)[0])
    ok &= caught_change and caught_broken and caught_nan
    print(f"SELF-TEST tamper: determinism {'PASS' if caught_change else 'FAIL'}, "
          f"scan check {'PASS' if caught_broken else 'FAIL'}, "
          f"NaN in scan and echo {'PASS' if caught_nan else 'FAIL'}")
    print("SELF-TEST " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "creutz" / "__init__.py").is_file():
        print(f"bench: {ROOT / 'src' / 'creutz'} not found; run from a creutz checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.self_test:
        return self_test()

    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        tally, result = measure(name, args.seed, seconds, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in result.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
