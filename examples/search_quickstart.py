#!/usr/bin/env python
"""Search agents on a four-type space: sample, don't sweep.

A four-type cluster already has hundreds of thousands of configurations
(this one: ~381k rows), and exhaustive sweeps stop scaling long before
the group table does.  This quickstart declares the same experiment
twice -- once exhaustively (streaming, the ground truth) and once with
a genetic search agent under a 5% row budget -- then reports how much
of the true energy-deadline frontier the sampled run recovered and how
it converged round by round.

Run:  python examples/search_quickstart.py
"""

import dataclasses

from repro.engine import RunContext, Scenario, run_scenario
from repro.engine.scenario import NodeGroup
from repro.hardware.extension import INTEL_ATOM
from repro.reporting import convergence_table
from repro.search.trajectory import frontier_key_set
from repro.workloads.extension import with_atom
from repro.workloads.suite import EP


def main() -> None:
    # Two extension node types beyond the paper's pair: the Atom, and a
    # second Atom-class board sharing its workload profile.
    atom2 = dataclasses.replace(INTEL_ATOM, name="intel-atom-d525")
    workload = with_atom(EP)
    profiles = dict(workload.profiles)
    profiles[atom2.name] = profiles[INTEL_ATOM.name]
    workload = dataclasses.replace(workload, profiles=profiles)

    ctx = RunContext(seed=0)
    ctx.register_node(INTEL_ATOM)
    ctx.register_node(atom2)
    ctx.register_workload(workload)

    node_types = (
        NodeGroup("arm-cortex-a9", max_nodes=3),
        NodeGroup("amd-k10", max_nodes=2),
        NodeGroup("intel-atom", max_nodes=2),
        NodeGroup("intel-atom-d525", max_nodes=2),
    )

    # Ground truth: the full sweep, streamed so the space never
    # materializes in RAM.
    exhaustive = run_scenario(
        Scenario(
            workload="ep",
            node_types=node_types,
            stages=("frontier",),
            name="four-type exhaustive",
        ),
        ctx,
    )
    space_rows = exhaustive.num_configurations
    truth = frontier_key_set(exhaustive.frontier)
    print(
        f"exhaustive sweep: {space_rows:,} configurations, "
        f"{len(truth)} frontier points"
    )

    # The searched twin: same axes, a genetic agent, 5% of the rows.
    budget = space_rows // 20
    searched = run_scenario(
        Scenario(
            workload="ep",
            node_types=node_types,
            stages=("frontier",),
            search={"strategy": "ga", "budget_rows": budget, "seed": 0},
            name="four-type ga search",
        ),
        ctx,
    )
    found = frontier_key_set(searched.frontier)
    recall = len(found & truth) / len(truth)
    print(
        f"ga search: {searched.search.rows_evaluated:,} rows evaluated "
        f"({searched.search.coverage:.1%} of the space), "
        f"{len(found)} frontier points, recall {recall:.0%}"
    )

    # The per-round trajectory the driver recorded while searching.
    print(convergence_table(searched.search.trajectory).render())


if __name__ == "__main__":
    main()
