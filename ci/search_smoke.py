"""CI smoke for the search layer: the GA must keep finding the frontier.

Runs the acceptance-bar experiment end to end in one process: compute
the exhaustive streaming frontier of the ~1.6M-row four-type space,
then sample the same space with the genetic agent at a 5% row budget
through the full scenario pipeline (stage graph, search driver,
trajectory), and fail the job if frontier recall drops below 0.95.
Searches are seed-deterministic, so a failure here is a real
regression, never flake.

Usage::

    PYTHONPATH=src python ci/search_smoke.py
"""

import sys
import time

RECALL_THRESHOLD = 0.95
BUDGET_FRACTION = 0.05
SEED = 0


def main() -> int:
    import dataclasses

    from repro.engine import RunContext, Scenario, run_scenario
    from repro.engine.scenario import NodeGroup
    from repro.hardware.extension import INTEL_ATOM
    from repro.search.trajectory import frontier_key_set
    from repro.workloads.extension import with_atom
    from repro.workloads.suite import EP

    atom2 = dataclasses.replace(INTEL_ATOM, name="intel-atom-d525")
    workload = with_atom(EP)
    profiles = dict(workload.profiles)
    profiles[atom2.name] = profiles[INTEL_ATOM.name]
    workload = dataclasses.replace(workload, profiles=profiles)

    ctx = RunContext(seed=SEED)
    ctx.register_node(INTEL_ATOM)
    ctx.register_node(atom2)
    ctx.register_workload(workload)

    node_types = (
        NodeGroup("arm-cortex-a9", max_nodes=4),
        NodeGroup("amd-k10", max_nodes=3),
        NodeGroup("intel-atom", max_nodes=3),
        NodeGroup("intel-atom-d525", max_nodes=3),
    )

    start = time.perf_counter()
    exhaustive = run_scenario(
        Scenario(
            workload="ep",
            node_types=node_types,
            stages=("frontier",),
        ),
        ctx,
    )
    truth = frontier_key_set(exhaustive.frontier)
    rows = exhaustive.num_configurations
    print(
        f"exhaustive: {rows:,} rows, {len(truth)} frontier points "
        f"({time.perf_counter() - start:.1f} s)"
    )

    budget = int(BUDGET_FRACTION * rows)
    start = time.perf_counter()
    searched = run_scenario(
        Scenario(
            workload="ep",
            node_types=node_types,
            stages=("frontier",),
            search={"strategy": "ga", "budget_rows": budget, "seed": SEED},
        ),
        ctx,
    )
    found = frontier_key_set(searched.frontier)
    recall = len(found & truth) / len(truth)
    rounds = len(searched.search.trajectory.rounds)
    print(
        f"ga at {BUDGET_FRACTION:.0%} budget: "
        f"{searched.search.rows_evaluated:,} rows, {rounds} rounds, "
        f"recall {recall:.2f} ({time.perf_counter() - start:.1f} s)"
    )

    if recall < RECALL_THRESHOLD:
        print(
            f"::error::search smoke failed: ga recall {recall:.2f} < "
            f"{RECALL_THRESHOLD} at {BUDGET_FRACTION:.0%} budget "
            f"(seed {SEED})",
            file=sys.stderr,
        )
        return 1
    print(f"search smoke passed: recall {recall:.2f} >= {RECALL_THRESHOLD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
