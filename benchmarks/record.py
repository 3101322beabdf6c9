"""Record performance snapshots into ``BENCH_PR<N>.json`` files.

Each record is committed so the numbers travel with the code, and also
re-measured as a CI artifact on every run.  Every timed pair is checked
for *equality of results* before it is timed, so a recorded speedup (or
no-regression claim) can never come from computing something different.
Timings are best-of-``repeats`` to shrug off machine noise.

``--pr 2`` (the measurement-layer vectorization) times:

* **Fig. 10 queueing** -- the M/D/1 window-response sample path at
  50k jobs, vectorized Lindley recursion vs the event-loop reference.

The batched campaigns it also timed (Table 3 validation, calibration)
are now the only measurement path; perfbench's
``calibration.ms_per_scenario`` on ``paper_sweep`` tracks them.

``--pr 3`` (the N-group cluster-table refactor) times:

* **three-type throughput** -- an ARM + AMD + Atom space through
  ``evaluate_space_groups`` (rows/second).

The two-type no-regression pair it also timed (group-table
``evaluate_space`` vs the frozen pre-refactor snapshot) is gone: the
snapshot lives in ``tests/property/_evaluate_pair.py`` as the oracle of
the bit-for-bit property test, and perfbench's
``evaluate.ms_per_scenario`` on ``paper_sweep`` times the two-type
space.

``--pr 4`` (the streaming config-space pipeline) records:

* **four-type streaming** -- a ~1.6M-row ARM + AMD + 2x Atom space whose
  materialized footprint is far beyond the 32 MiB block budget:
  rows/second and tracemalloc peak memory in both modes, with the
  reduced artifacts (frontier + per-group frontiers, indices included)
  equality-checked between modes before timing.

``--pr 6`` (the pluggable execution backends) records:

* **backend matrix** -- the same ~1.6M-row four-type space evaluated
  chunked through every backend, ``serial`` and ``process_pool`` --
  rows/second per backend, column stacks bit-for-bit equality-checked
  against the in-process whole-space evaluation first.

``--pr 7`` (worker-side streaming reduction) records:

* **worker reduce** -- the same ~1.6M-row space stream-reduced end to
  end, each block folded by the task that evaluated it, through one
  call per backend: ``serial`` and ``process_pool``, reduced artifacts
  equality-checked bit-for-bit first.  On machines with >= 2 CPUs the
  record doubles as a regression guard: the best parallel backend must
  not be slower than serial (exit code 1 otherwise).

``--pr 9`` (pluggable space exploration) records:

* **search matrix** -- every search agent (``random``, ``ga``,
  ``anneal``) sampling the same ~1.6M-row four-type space at a 5% row
  budget: rows evaluated, frontier recall against the exhaustive
  streaming frontier, and convergence rounds per strategy.  The GA's
  recall is a regression guard: CI fails if it drops below 0.95 at 5%
  budget.

Usage::

    PYTHONPATH=src python benchmarks/record.py --pr 4 [--output BENCH_PR4.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` full passes."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _pair(label: str, reference_s: float, fast_s: float, detail: str) -> Dict:
    return {
        "label": label,
        "reference_s": reference_s,
        "batched_s": fast_s,
        "speedup": reference_s / fast_s,
        "detail": detail,
    }


def bench_fig10_queueing(repeats: int, n_jobs: int = 50_000) -> Dict:
    """The M/D/1 sample path behind Fig. 10 checks: Lindley vs event loop."""
    from repro.queueing.simulation import (
        deterministic_service,
        simulate_queue,
        simulate_queue_lindley,
    )

    service = deterministic_service(0.05)
    arrival_rate = 0.5 / 0.05  # utilization 0.5

    # Same draws, but the event loop and the recursion accumulate floats
    # in different orders; agreement is to rounding, not bit-exact.
    ref = simulate_queue(arrival_rate, service, n_jobs, seed=0)
    fast = simulate_queue_lindley(arrival_rate, service, n_jobs, seed=0)
    assert abs(ref.mean_wait_s - fast.mean_wait_s) < 1e-9 * ref.mean_wait_s
    assert abs(ref.utilization - fast.utilization) < 1e-9
    reference = _best_of(
        lambda: simulate_queue(arrival_rate, service, n_jobs, seed=0), repeats
    )
    lindley = _best_of(
        lambda: simulate_queue_lindley(arrival_rate, service, n_jobs, seed=0),
        repeats,
    )
    return _pair(
        f"Fig. 10 M/D/1 queue simulation ({n_jobs} jobs, U=0.5)",
        reference,
        lindley,
        "simulate_queue_lindley vs simulate_queue (same sample path)",
    )


def bench_three_type_throughput(repeats: int) -> Dict:
    """An ARM + AMD + Atom space through the k-group evaluator."""
    from repro.core.calibration import ground_truth_params
    from repro.core.configuration import GroupSpec
    from repro.core.evaluate import evaluate_space_groups
    from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
    from repro.hardware.extension import INTEL_ATOM
    from repro.workloads.extension import with_atom
    from repro.workloads.suite import EP

    workload = with_atom(EP)
    params = {
        spec.name: ground_truth_params(spec, workload)
        for spec in (ARM_CORTEX_A9, AMD_K10, INTEL_ATOM)
    }
    specs = (
        GroupSpec(ARM_CORTEX_A9, 5),
        GroupSpec(AMD_K10, 4),
        GroupSpec(INTEL_ATOM, 4),
    )
    units = 50e6
    rows = len(evaluate_space_groups(specs, params, units))
    elapsed = _best_of(lambda: evaluate_space_groups(specs, params, units), repeats)
    return {
        "label": f"three-type evaluate_space_groups, {rows} rows (EP, 5x4x4)",
        "elapsed_s": elapsed,
        "rows": rows,
        "rows_per_s": rows / elapsed,
        "detail": "ARM + AMD + Atom k-group space, no pre-refactor reference",
    }


def bench_four_type_streaming(repeats: int, budget_mb: float = 32.0) -> Dict:
    """A four-group space far over the block budget: both modes, one truth.

    The space (ARM + AMD + Atom + a second Atom bin) holds ~1.6M rows --
    hundreds of MiB materialized, far beyond ``budget_mb``.  Streaming
    folds it through the block reducers under the budget; the reduced
    artifacts (whole-space frontier with original indices, per-group
    homogeneous frontiers) are equality-checked against the materialized
    pass before anything is timed.  Peak memory is tracemalloc-traced in
    one extra pass per mode (kept out of the timed passes).
    """
    import dataclasses
    import tracemalloc

    from repro.core.calibration import ground_truth_params
    from repro.core.configuration import GroupSpec
    from repro.core.evaluate import evaluate_space_groups
    from repro.core.pareto import ParetoFrontier
    from repro.core.streaming import (
        block_row_bytes,
        count_space_rows,
        iter_space_blocks,
        reduce_space_blocks,
    )
    from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
    from repro.hardware.extension import INTEL_ATOM
    from repro.workloads.extension import with_atom
    from repro.workloads.suite import EP

    atom2 = dataclasses.replace(INTEL_ATOM, name="intel-atom-d525")
    workload = with_atom(EP)
    profiles = dict(workload.profiles)
    profiles[atom2.name] = profiles[INTEL_ATOM.name]
    workload = dataclasses.replace(workload, profiles=profiles)
    specs = (
        GroupSpec(ARM_CORTEX_A9, 4),
        GroupSpec(AMD_K10, 3),
        GroupSpec(INTEL_ATOM, 3),
        GroupSpec(atom2, 3),
    )
    params = {
        gs.spec.name: ground_truth_params(gs.spec, workload) for gs in specs
    }
    units = 50e6
    rows = count_space_rows(specs)
    full_estimate_mb = rows * block_row_bytes(len(specs)) / (1 << 20)
    assert full_estimate_mb > 4 * budget_mb  # genuinely over budget

    def materialized():
        space = evaluate_space_groups(specs, params, units)
        return space, ParetoFrontier.from_points(space.times_s, space.energies_j)

    def streaming():
        return reduce_space_blocks(
            iter_space_blocks(specs, params, units, memory_budget_mb=budget_mb)
        )

    # Reduced artifacts must agree bit-for-bit before timing means anything.
    space, frontier = materialized()
    reduced = streaming()
    assert reduced.total_rows == rows == len(space)
    assert np.array_equal(frontier.times_s, reduced.frontier.times_s)
    assert np.array_equal(frontier.energies_j, reduced.frontier.energies_j)
    assert np.array_equal(frontier.indices, reduced.frontier.indices)
    for g in range(len(specs)):
        sub = space.subset(space.is_only(g))
        homog = ParetoFrontier.from_points(sub.times_s, sub.energies_j)
        assert np.array_equal(homog.times_s, reduced.group_frontiers[g].times_s)
        assert np.array_equal(
            homog.energies_j, reduced.group_frontiers[g].energies_j
        )
    blocks = reduced.num_blocks
    del space, frontier, reduced

    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    materialized_s = _best_of(materialized, repeats)
    streaming_s = _best_of(streaming, repeats)
    materialized_peak = traced_peak(materialized)
    streaming_peak = traced_peak(streaming)
    return {
        "label": (
            f"four-type space, {rows} rows (EP, 4x3x3x3), "
            f"budget {budget_mb:.0f} MiB vs ~{full_estimate_mb:.0f} MiB full"
        ),
        "rows": rows,
        "blocks": blocks,
        "memory_budget_mb": budget_mb,
        "full_estimate_mb": full_estimate_mb,
        "materialized_s": materialized_s,
        "materialized_rows_per_s": rows / materialized_s,
        "materialized_peak_mb": materialized_peak / (1 << 20),
        "streaming_s": streaming_s,
        "streaming_rows_per_s": rows / streaming_s,
        "streaming_peak_mb": streaming_peak / (1 << 20),
        "peak_memory_ratio": materialized_peak / streaming_peak,
        "detail": (
            "evaluate_space_groups + from_points vs reduce_space_blocks over "
            "iter_space_blocks; frontier, indices, and per-group frontiers "
            "equality-checked first; peaks tracemalloc-traced out-of-band"
        ),
    }


def _four_type_setup():
    """The shared ~1.6M-row four-group space (see bench_four_type_streaming)."""
    import dataclasses

    from repro.core.calibration import ground_truth_params
    from repro.core.configuration import GroupSpec
    from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
    from repro.hardware.extension import INTEL_ATOM
    from repro.workloads.extension import with_atom
    from repro.workloads.suite import EP

    atom2 = dataclasses.replace(INTEL_ATOM, name="intel-atom-d525")
    workload = with_atom(EP)
    profiles = dict(workload.profiles)
    profiles[atom2.name] = profiles[INTEL_ATOM.name]
    workload = dataclasses.replace(workload, profiles=profiles)
    specs = (
        GroupSpec(ARM_CORTEX_A9, 4),
        GroupSpec(AMD_K10, 3),
        GroupSpec(INTEL_ATOM, 3),
        GroupSpec(atom2, 3),
    )
    params = {
        gs.spec.name: ground_truth_params(gs.spec, workload) for gs in specs
    }
    return specs, params, 50e6


def bench_backend_matrix(repeats: int, budget_mb: float = 64.0) -> Dict:
    """Every execution backend over the four-type space, one truth.

    The ~1.6M-row space is evaluated chunked (blocks sized by a
    ``budget_mb`` memory budget and each backend's worker count) through
    ``serial`` and ``process_pool``.  Each backend's column stacks are
    equality-checked bit-for-bit against the in-process whole-space
    evaluation before anything is timed, so the recorded throughputs all
    describe the *same* computation.
    """
    from repro.core.evaluate import evaluate_space_groups
    from repro.engine.executor import (
        evaluate_space_groups_chunked,
        space_block_plan,
    )

    specs, params, units = _four_type_setup()
    reference = evaluate_space_groups(specs, params, units)
    rows = len(reference)
    serial_blocks = len(
        space_block_plan(specs, memory_budget_mb=budget_mb, backend="serial")
    )
    assert serial_blocks > 1

    configs = {
        "serial": ("serial", None),
        "process_pool": ("process_pool", {"workers": 2}),
    }

    def run(name, options):
        return evaluate_space_groups_chunked(
            specs,
            params,
            units,
            memory_budget_mb=budget_mb,
            backend=name,
            backend_options=options,
        )

    results: Dict[str, Dict] = {}
    for label, (name, options) in configs.items():
        space = run(name, options)
        assert np.array_equal(reference.times_s, space.times_s), label
        assert np.array_equal(reference.energies_j, space.energies_j), label
        assert np.array_equal(reference.n, space.n), label
        elapsed = _best_of(lambda: run(name, options), repeats)
        results[label] = {
            "elapsed_s": elapsed,
            "rows_per_s": rows / elapsed,
        }

    return {
        "label": (
            f"four-type space, {rows} rows (EP, 4x3x3x3), {budget_mb:g} MB "
            f"block budget ({serial_blocks} serial blocks), all execution "
            "backends"
        ),
        "rows": rows,
        "memory_budget_mb": budget_mb,
        "serial_blocks": serial_blocks,
        "backends": results,
        "detail": (
            "evaluate_space_groups_chunked per backend vs whole-space "
            "evaluate_space_groups, bit-for-bit equality-checked first"
        ),
    }


def bench_worker_reduce(repeats: int) -> Dict:
    """Streaming reduction with each block folded where it is evaluated.

    The ~1.6M-row four-type space is stream-reduced end to end --
    evaluate blocks, fold frontiers/per-group frontiers in the block
    task, merge the shipped reducer states in plan order -- through one
    call per backend: ``serial`` (one in-process worker), then
    ``process_pool`` with two workers.  The pool run's reduced
    artifacts (frontier with indices, per-group frontiers, composition
    labels) are equality-checked bit-for-bit against the serial
    reference before anything is timed.

    The record carries ``cpu_count`` and a ``guard`` verdict: on a
    multi-core machine the best parallel backend must beat serial
    (``enforced`` and checked by CI); on a single core the parallel
    runs time-slice one CPU and pay transport on top, so the guard is
    recorded but not enforced -- the honest number is still written.
    """
    import os

    from repro.core.streaming import reduce_space_blocks
    from repro.engine.executor import iter_space_groups_chunked

    specs, params, units = _four_type_setup()

    def reduce(name, options, workers):
        return reduce_space_blocks(
            iter_space_groups_chunked(
                specs, params, units, max_workers=workers,
                backend=name, backend_options=options,
                # Fold each block in its task; ship reducer states.
                reduce={},
            )
        )

    def serial():
        return reduce("serial", None, 1)

    def check(reference, reduced, label):
        assert np.array_equal(
            reference.frontier.times_s, reduced.frontier.times_s
        ), label
        assert np.array_equal(
            reference.frontier.energies_j, reduced.frontier.energies_j
        ), label
        assert np.array_equal(
            reference.frontier.indices, reduced.frontier.indices
        ), label
        assert np.array_equal(
            reference.frontier_n, reduced.frontier_n
        ), label
        assert reference.composition == reduced.composition, label
        for f_ref, f_new in zip(
            reference.group_frontiers, reduced.group_frontiers
        ):
            assert (f_ref is None) == (f_new is None), label
            if f_ref is not None:
                assert np.array_equal(f_ref.times_s, f_new.times_s), label
                assert np.array_equal(f_ref.indices, f_new.indices), label
        assert reference.total_rows == reduced.total_rows, label

    reference = serial()
    rows = reference.total_rows

    configs = {
        "process_pool": ("process_pool", {"workers": 2}),
    }
    results: Dict[str, Dict] = {}
    serial_s = _best_of(serial, repeats)
    results["serial"] = {
        "elapsed_s": serial_s,
        "rows_per_s": rows / serial_s,
    }
    for label, (name, options) in configs.items():
        check(reference, reduce(name, options, 2), label)
        elapsed = _best_of(lambda: reduce(name, options, 2), repeats)
        results[label] = {
            "elapsed_s": elapsed,
            "rows_per_s": rows / elapsed,
        }

    best_label = min(configs, key=lambda k: results[k]["elapsed_s"])
    speedup = serial_s / results[best_label]["elapsed_s"]
    cpu_count = os.cpu_count() or 1
    enforced = cpu_count >= 2
    return {
        "label": (
            f"four-type space, {rows} rows (EP, 4x3x3x3), streamed "
            "reduction folded in the block tasks: serial vs each "
            "parallel backend"
        ),
        "rows": rows,
        "cpu_count": cpu_count,
        "backends": results,
        "best_parallel_backend": best_label,
        "best_parallel_speedup_vs_serial": speedup,
        "guard": {
            "target": (
                "best parallel backend >= 1.0x serial (>= 1.5x expected "
                "for process_pool on >= 2 free cores)"
            ),
            "enforced": enforced,
            "passed": (not enforced) or speedup >= 1.0,
            "note": (
                "single-CPU machine: parallel workers time-slice one "
                "core and pay transport on top, so no speedup is "
                "physically possible; guard recorded, not enforced"
                if not enforced else
                "multi-core: guard enforced by CI"
            ),
        },
        "detail": (
            "reduce_space_blocks(iter_space_groups_chunked(reduce={})) "
            "per backend, serial as the reference; "
            "frontier (times/energies/indices), frontier_n, composition "
            "labels, and per-group frontiers equality-checked "
            "bit-for-bit before timing"
        ),
    }


def bench_search_matrix(
    repeats: int, budget_fraction: float = 0.05, seed: int = 0
) -> Dict:
    """Every search agent over the four-type space, recalled against truth.

    The exhaustive energy-deadline frontier of the ~1.6M-row space is
    computed once with the streaming reducers (the ground truth every
    agent is scored against), then each strategy samples the space at a
    ``budget_fraction`` row budget through ``run_search``.  Searches are
    seed-deterministic, so each strategy runs once -- ``repeats`` is
    ignored; recall, not wall clock, is the quantity under guard.  The
    GA's recall at 5% budget is the enforced regression guard (the
    acceptance bar is >= 0.95); the other agents' recalls are recorded
    for the honest comparison but not enforced.
    """
    from repro.core.streaming import iter_space_blocks, reduce_space_blocks
    from repro.search import SearchSpace, make_source, run_search
    from repro.search.trajectory import frontier_key_set

    specs, params, units = _four_type_setup()

    truth_start = time.perf_counter()
    reduced = reduce_space_blocks(
        iter_space_blocks(specs, params, units, memory_budget_mb=32.0)
    )
    truth_s = time.perf_counter() - truth_start
    truth = reduced.frontier
    rows = reduced.total_rows
    budget = int(budget_fraction * rows)

    results: Dict[str, Dict] = {}
    for strategy in ("random", "ga", "anneal"):
        space = SearchSpace(specs)
        start = time.perf_counter()
        searched = run_search(
            specs, params, units,
            source=make_source(strategy, space, seed, {}),
            budget_rows=budget,
            batch_rows=4096,
            best_known=truth,
            seed=seed,
            space=space,
        )
        elapsed = time.perf_counter() - start
        found = frontier_key_set(searched.frontier)
        want = frontier_key_set(truth)
        results[strategy] = {
            "rows_evaluated": searched.rows_evaluated,
            "coverage": searched.coverage,
            "rounds": len(searched.trajectory.rounds),
            "frontier_points": len(searched.frontier),
            "recall": len(found & want) / len(want),
            "elapsed_s": elapsed,
            "rows_per_s": searched.rows_evaluated / elapsed,
        }

    ga_recall = results["ga"]["recall"]
    return {
        "label": (
            f"four-type space, {rows} rows (EP, 4x3x3x3), search agents "
            f"at a {budget_fraction:.0%} row budget ({budget} rows, seed "
            f"{seed})"
        ),
        "rows": rows,
        "budget_rows": budget,
        "budget_fraction": budget_fraction,
        "seed": seed,
        "truth_frontier_points": len(truth),
        "truth_streaming_s": truth_s,
        "strategies": results,
        "guard": {
            "target": "ga frontier recall >= 0.95 at 5% budget",
            "enforced": True,
            "passed": ga_recall >= 0.95,
            "note": (
                "searches are seed-deterministic, so the guard cannot "
                "flake; recall is scored against the exhaustive "
                "streaming frontier computed in the same process"
            ),
        },
        "detail": (
            "run_search per strategy vs the exhaustive streaming frontier "
            "(reduce_space_blocks over iter_space_blocks); recall = "
            "fraction of true frontier (time, energy) points recovered"
        ),
    }


_PR_RECORDS = {
    2: {
        "pr": "vectorized measurement layer",
        "default_output": "BENCH_PR2.json",
        "benches": {
            "fig10_queueing": bench_fig10_queueing,
        },
    },
    3: {
        "pr": "N-group cluster table",
        "default_output": "BENCH_PR3.json",
        "benches": {
            "three_type_throughput": bench_three_type_throughput,
        },
    },
    4: {
        "pr": "streaming config-space pipeline",
        "default_output": "BENCH_PR4.json",
        "benches": {
            "four_type_streaming": bench_four_type_streaming,
        },
    },
    6: {
        "pr": "pluggable execution backends",
        "default_output": "BENCH_PR6.json",
        "benches": {
            "backend_matrix": bench_backend_matrix,
        },
    },
    7: {
        "pr": "worker-side streaming reduction",
        "default_output": "BENCH_PR7.json",
        "benches": {
            "worker_reduce": bench_worker_reduce,
        },
    },
    9: {
        "pr": "pluggable space exploration",
        "default_output": "BENCH_PR9.json",
        "benches": {
            "search_matrix": bench_search_matrix,
        },
    },
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pr",
        type=int,
        choices=sorted(_PR_RECORDS),
        default=2,
        help="which PR's benchmark set to record",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON record (default: BENCH_PR<N>.json)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="full passes per measurement; best-of wins",
    )
    args = parser.parse_args(argv)
    spec = _PR_RECORDS[args.pr]
    output = args.output or REPO_ROOT / spec["default_output"]

    benchmarks = {
        name: bench(args.repeats) for name, bench in spec["benches"].items()
    }
    record = {
        "pr": spec["pr"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": args.repeats,
        "timing": "best-of-repeats wall clock, results equality-checked first",
        "benchmarks": benchmarks,
    }
    output.write_text(json.dumps(record, indent=2) + "\n")
    for name, bench in benchmarks.items():
        if "speedup" in bench:
            print(
                f"{name}: {bench['reference_s'] * 1e3:.1f} ms -> "
                f"{bench['batched_s'] * 1e3:.1f} ms "
                f"({bench['speedup']:.1f}x)"
            )
        elif "backends" in bench:
            for backend, numbers in bench["backends"].items():
                print(
                    f"{name}[{backend}]: {numbers['elapsed_s'] * 1e3:.1f} ms "
                    f"({numbers['rows_per_s']:,.0f} rows/s)"
                )
            if "best_parallel_speedup_vs_serial" in bench:
                print(
                    f"{name}: best parallel "
                    f"({bench['best_parallel_backend']}) "
                    f"{bench['best_parallel_speedup_vs_serial']:.2f}x serial "
                    f"on {bench['cpu_count']} CPU(s)"
                )
        elif "strategies" in bench:
            for strategy, numbers in bench["strategies"].items():
                print(
                    f"{name}[{strategy}]: recall {numbers['recall']:.2f} at "
                    f"{numbers['rows_evaluated']:,} rows "
                    f"({numbers['rounds']} rounds, "
                    f"{numbers['elapsed_s']:.1f} s)"
                )
        elif "streaming_s" in bench:
            print(
                f"{name}: materialized {bench['materialized_rows_per_s']:,.0f} "
                f"rows/s @ {bench['materialized_peak_mb']:.0f} MiB peak, "
                f"streaming {bench['streaming_rows_per_s']:,.0f} rows/s @ "
                f"{bench['streaming_peak_mb']:.0f} MiB peak "
                f"({bench['peak_memory_ratio']:.1f}x less memory)"
            )
        else:
            print(
                f"{name}: {bench['elapsed_s'] * 1e3:.1f} ms "
                f"({bench['rows_per_s']:,.0f} rows/s)"
            )
    print(f"wrote {output}")
    failed = [
        (name, bench["guard"])
        for name, bench in benchmarks.items()
        if isinstance(bench.get("guard"), dict)
        and bench["guard"]["enforced"]
        and not bench["guard"]["passed"]
    ]
    for name, guard in failed:
        print(
            f"::error::{name} regression guard failed: {guard['target']}",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
