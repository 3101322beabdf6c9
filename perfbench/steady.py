"""Steadiness report: repeat each workload over seeds and show spreads.

    python3 perfbench/steady.py [--runs 10]

Each run is one ``run.py`` run of ``run_seconds`` (BENCHMARK.json) with
its own seed, 1 to ``--runs``.  For every end-to-end
metric the report prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread -- the distance
between the quartiles as a share of the median -- against the metric's
bound in ``BENCHMARK.json``, and the samples behind each run's median.
The report fails when a spread reaches its bound or an operation
failed; the bounds are set from it, and every spread but ``setup_s``'s
should stay below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import ROOT, run_one, workload_names


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = range(1, args.runs + 1)

    ok = True
    for name in workload_names():
        results = []
        for seed in seeds:
            start = time.perf_counter()
            res = run_one(name, seed, seconds, 0, echo=False)
            res["run_wall_s"] = time.perf_counter() - start
            results.append(res)
            print(f"{name} seed {seed}: {res['attempted']} attempted, "
                  f"{res['failed']} failed, {res['run_wall_s']:.1f} s wall",
                  file=sys.stderr, flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{name}: {len(results)} runs x {seconds:g} s, operations "
              f"per run {min(r['attempted'] for r in results)}.."
              f"{max(r['attempted'] for r in results)}, failed share {shares}, "
              f"wall per run {statistics.median(r['run_wall_s'] for r in results):.1f} s")
        print(f"  {'metric':<12} {'unit':>5} {'median':>11} {'q1':>11} "
              f"{'q3':>11} {'spread':>7} {'bound':>6} {'spread/bound':>12}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in results if metric["name"] in r["metrics"]]
            if len(values) < 2:
                print(f"  {metric['name']:<12} missing")
                ok = False
                continue
            q1, median, q3, rel = spread(values)
            ratio = rel / metric["bound"]
            exempt = metric["name"] == "setup_s"
            flag = "" if exempt or ratio < 1 / 3 else "  <-- over a third"
            ok &= ratio < 1
            print(f"  {metric['name']:<12} {metric['unit']:>5} {median:11.5g} "
                  f"{q1:11.5g} {q3:11.5g} {rel:7.3f} {metric['bound']:6.2f} "
                  f"{ratio:12.2f}{flag}")
        ok &= all(r["correct"] and not r["failed"] for r in results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
