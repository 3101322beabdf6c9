"""One workload run inside this interpreter.

Started by ``run.py`` in a fresh, scrubbed interpreter; not meant to be
run by hand.  Sets the workload up ``setup_reps`` times (``setup_s`` is
the median), measures it for ``--seconds`` -- or, with ``--trace 1``,
runs it half untraced and half traced -- checks its outputs, and prints
the report lines followed by one JSON result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import service  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {**workloads.COMPUTE_WORKLOADS, **service.SERVICE_WORKLOADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
        workload.in_process = True
    setups = []
    try:
        for _ in range(workload.setup_reps):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        if tracer is None:
            outcome = workload.measure(args.seconds)
        else:
            outcome = workload.trace(args.seconds, tracer)
    finally:
        workload.teardown()

    if tracer is None:
        metrics = {"setup_s": statistics.median(setups), **outcome.metrics}
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        metrics = tracing.layer_metrics(tracer.spans, outcome.ops,
                                        outcome.overhead_pct)
        names = [m["name"] for m in spec["per_layer"]]
        table = tracing.layer_table(tracer.spans)
        total = sum(self_s for _, self_s, _ in table)
        print(f"traced {outcome.ops} ops in {outcome.wall_s:.2f} s; "
              f"self time by layer:")
        for layer, self_s, count in table:
            print(f"  {layer:<18} {self_s:9.3f} s  {100 * self_s / total:5.1f}%"
                  f"  {count} spans")
    missing = set(names) - set(metrics)
    if missing:
        raise RuntimeError(f"workload reported no {sorted(missing)}")

    print(f"workload {args.workload}, seed {args.seed}: set-up "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    for line in workload.info + outcome.info:
        print(line)
    for name in names:
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    print(f"attempted {outcome.attempted}, failed {outcome.failed}")
    for error in outcome.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
