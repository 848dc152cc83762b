"""One workload step in its own process, as a user would run it.

    python3 bench/child.py run|trace|setup|echo_only|reference STEP_JSON

STEP_JSON names a CLI command with its argument list, or the library
echo call with its inputs.  ``run`` performs the step; ``trace`` does
the same with spans recorded (spans.py) and written next to the output
at the end; ``setup`` stops once ``creutz`` is imported and the run
config is built.  The last stdout line is a JSON object whose
``setup_mark`` is the ``time.monotonic()`` reading taken just before
the first layer call; the parent subtracts its own reading at spawn to
get the set-up time.  ``echo_only`` reports ``echo_only_s``, the traced
time of the echo-only kernel call on an echo step's inputs, which the
amplitude call is compared with.  ``reference`` runs a fixed computation
that does not import ``creutz``; run.py times it to gauge the machine's
speed (STEP_JSON is ``{"kind": "reference"}``).
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time

import numpy as np


def echo_inputs(settings: dict):
    """The QuenchSpec and time grid of a library echo step."""
    from creutz import LadderParams, QuenchSpec

    params = LadderParams(j_h=1.0, j_v=1.0, j_d=1.0, theta=0.0, n_rungs=settings["n_rungs"])
    spec = QuenchSpec(
        params=params,
        theta_pre=settings["theta1"] * math.pi,
        theta_post=settings["theta2"] * math.pi,
    )
    return spec, np.linspace(0.0, settings["t_max"], settings["n_points"])


def save_series(path: str, series) -> None:
    """Store t, le, Re la, Im la, rate as one float64 array."""
    columns = np.column_stack(
        [series.times, series.le, series.la.real, series.la.imag, series.rate]
    )
    with open(path, "wb") as handle:
        np.save(handle, columns)


def run_step(step: dict, marks: list, setup_only: bool = False) -> int:
    """Execute one step in this process; append the set-up mark to ``marks``."""
    if step["kind"] == "cli":
        from creutz import cli

        real_run = cli.run

        def marked_run(config):
            marks.append(time.monotonic())
            return 0 if setup_only else real_run(config)

        cli.run = marked_run
        try:
            return cli.main(step["argv"])
        finally:
            cli.run = real_run

    from creutz import loschmidt_echo

    spec, times = echo_inputs(step["settings"])
    marks.append(time.monotonic())
    if setup_only:
        return 0
    save_series(step["out"], loschmidt_echo(spec, times))
    return 0


def _import_spans():
    """bench/spans.py, without leaving bytecode in the benchmark directory."""
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import spans
    finally:
        sys.dont_write_bytecode = saved
    return spans


def echo_only_seconds(settings: dict):
    """Traced time of the echo-only kernel call, or None if the kernel has no such switch."""
    spans = _import_spans()
    from creutz import quench

    if "include_la" not in inspect.signature(quench.loschmidt_echo).parameters:
        return None
    spec, times = echo_inputs(settings)
    tracer = spans.Tracer()
    with tracer.installed():
        quench.loschmidt_echo(spec, times, include_la=False)
    return spans.SpanIndex(tracer.spans).total("quench.loschmidt_echo")


def reference() -> None:
    """Fixed work of the kinds the workloads do, independent of the program.

    numpy sin/log/sum over a modes x times block, as in the echo kernel,
    and a scalar loop of numpy calls and float formatting, as in
    mode_data and render_csv.
    """
    rates = np.linspace(0.5, 1.5, 4000)[None, :]
    for shift in range(4):
        phase = rates * (np.linspace(0.0, 10.0, 400)[:, None] + shift)
        np.sum(np.log(1.0 - 0.5 * np.sin(0.5 * phase) ** 2), axis=1)
    cells = []
    for i in range(30000):
        x = float(np.cos(1e-3 * i))
        cells.append(f"{x:.15g},{x * x:.15g}")
    "\n".join(cells)


def main(argv: list[str]) -> int:
    mode, step = argv[0], json.loads(argv[1])
    marks: list[float] = []
    report = {}
    if mode == "trace":
        spans = _import_spans()
        tracer = spans.Tracer()
        with tracer.installed():
            origin = time.perf_counter()
            code = run_step(step, marks)
        tracer.write(spans.trace_file(step["out"]), origin)
    elif mode == "reference":
        reference()
        code = 0
    elif mode == "echo_only":
        report["echo_only_s"] = echo_only_seconds(step["settings"])
        code = 0
    else:
        code = run_step(step, marks, setup_only=(mode == "setup"))
    print(json.dumps({"setup_mark": marks[0] if marks else None, **report}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
