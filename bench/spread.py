"""Run-to-run spread of the benchmark, as the acceptance rule measures it.

    python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                            [--seconds S] [--json PATH]

Runs ``bench/run.py --trace 0`` once per seed and prints, for every
end-to-end metric, the median of the per-run values, their first and
third quartiles (``statistics.quantiles(values, n=4)``), and the spread
(q3 - q1) / median next to a third of the metric's bound in
BENCHMARK.json.  ``--json`` appends the summary to a JSON-lines file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    summary = {"workload": args.workload, "runs": args.runs, "seconds": seconds,
               "failed": failed, "metrics": {}}
    print(f"{args.workload}: {args.runs} runs of {seconds} s, {failed} failed operations")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        print(f"  {name:28s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f} (bound/3 {bounds[name] / 3:.4f})")
    if args.json:
        with open(args.json, "a") as handle:
            handle.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
