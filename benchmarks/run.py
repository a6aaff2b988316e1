"""tmkit benchmark: every CLI command, timed end to end on seeded workloads.

    python3 benchmarks/run.py --workload ring --seed 1 --seconds 30 --trace 0

Run it from the root of a tmkit checkout.  Workloads: ring, chron, logic,
fixtures (or ``all``, which runs the four in turn).  Load comes from one
client in a closed loop: one ``tmkit`` subprocess at a time, the next
started when the last has exited.  Every command's exit code and output
are checked against expectations built without tmkit (see workloads.py).

With ``--trace 0`` the run repeats the workload's commands for
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
instead calls each module's public functions in-process, with spans
recorded around the calls (see layers.py), and reports the per-layer
metrics.  A probe for a known defect of tmkit (workloads.Op) runs once,
before the timed loop; its verdict is printed but not counted.  The last
line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Inputs and outputs live in
``.bench_work/`` under the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Optional

import layers
import workloads
from commands import measure, op_label, run_probes, setup, split_probes, tmkit_env

ROOT = Path(__file__).resolve().parent.parent

#: The calibration child's wall time on a quiet 2-vCPU x86-64 VM with
#: Python 3.11.7; the ``*_ref_s`` metrics are scaled to it.
REFERENCE_CALIBRATION_S = 0.12

E2E_UNITS = {
    "batch_ref_s": "s",
    "op_gmean_ref_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def high_percentile(samples: list[float]) -> Optional[tuple[int, float]]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond."""
    n = len(samples)
    for level in (99, 95, 90, 75, 50):
        if n * (100 - level) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return level, cuts[level - 1]
    return None


def end_to_end(workload: str, seed: int, seconds: float, root: Path) -> dict:
    env = tmkit_env(root)
    ops, work, setup_relative = setup(workload, seed, root, env)
    ops, probes = split_probes(ops)
    probe_lines, probes_wrong = run_probes(probes, work, env)
    run = measure(ops, work, env, seconds)
    tally = run.tally

    print(f"workload {workload}  seed {seed}  passes {run.passes}  "
          f"attempted {tally.attempted}  failed {tally.failed}  "
          f"calibration runs {len(run.calibration)}")
    print(f"  {'metric':<16}{'unit':<6}{'median':>10}{'ref':>10}{'n':>5}"
          f"  high percentile")
    by_metric: dict[str, tuple[list[float], list[float]]] = {}
    for op, times, relative in zip(ops, run.samples, run.relative):
        raw, rel = by_metric.setdefault(op.metric, ([], []))
        raw.extend(times)
        rel.extend(relative)
    for metric, (times, relative) in by_metric.items():
        if not times:
            print(f"  {metric:<16}{'s':<6}{'-':>10}{'-':>10}{0:>5}  (every op failed)")
            continue
        high = high_percentile(times)
        shown = f"p{high[0]} {high[1]:.4f}" if high else "-"
        ref = statistics.median(relative) * REFERENCE_CALIBRATION_S
        print(f"  {metric:<16}{'s':<6}{statistics.median(times):>10.4f}"
              f"{ref:>10.4f}{len(times):>5}  {shown}")
    for label, message in tally.messages.items():
        print(f"  failed: {label}: {message}")
    print(f"  {'fail_ratio':<16}{'1':<6}{tally.failed / tally.attempted:>10.4f}")
    for line in probe_lines:
        print(f"  {line}")

    # The same command's wall time varies by tens of percent, for seconds
    # or a whole run, with the load other tenants put on the machine.  Each
    # run is therefore also taken relative to the calibration child that
    # ran next, and scaled back to seconds on a reference machine.
    ref = [statistics.median(r) * REFERENCE_CALIBRATION_S
           for r in run.relative if r]
    metrics = {
        "batch_ref_s": sum(ref),
        "op_gmean_ref_s": math.exp(statistics.fmean(map(math.log, ref))),
        "peak_rss_mb": run.peak_kib / 1024,
        "setup_s": statistics.median(setup_relative) * REFERENCE_CALIBRATION_S,
    }
    for name, value in metrics.items():
        print(f"  {name:<16}{E2E_UNITS[name]:<6}{value:>10.4f}")
    (work / "samples.json").write_text(json.dumps({
        "calibration": run.calibration,
        "ops": [{"metric": op.metric, "args": op_label(op),
                 "samples": times, "relative": relative}
                for op, times, relative in zip(ops, run.samples, run.relative)],
    }, indent=1))
    return {
        "correct": tally.wrong == 0 and probes_wrong == 0 and len(ref) == len(ops),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tmkit" / "__init__.py").is_file():
        print(f"error: no tmkit sources under {ROOT / 'src'}; run the "
              f"benchmark from a tmkit checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        if args.trace:
            results[name] = layers.traced(name, args.seed, args.seconds, ROOT)
        else:
            results[name] = end_to_end(name, args.seed, args.seconds, ROOT)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
