"""The compute workloads: paper_sweep, large_sweep, search_ga.

Each workload turns ``--seed`` into a fixed *round* of scenario runs
(the same seed gives the same scenarios), runs whole rounds until the
measured time is up, and checks every output against :mod:`oracle`.
Every scenario sets only content fields -- workload, node groups,
units, stages, seed, ``calibrated`` and ``search`` -- so every
execution knob stays at the program's default, and each run gets a
fresh ``RunContext`` so nothing is served from a cache.

The context pins ``max_workers=1``: the parallel backends are not
measured (a 2-CPU box cannot show their gain), and a serial run keeps
the whole computation inside the measured process.
"""

from __future__ import annotations

import dataclasses
import gc
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

import numpy as np

import oracle
from repro.engine.context import RunContext
from repro.engine.runner import run_scenario
from repro.engine.scenario import NodeGroup, Scenario
from repro.engine.stagegraph import build_stage_plan
from repro.hardware.extension import INTEL_ATOM
from repro.workloads.extension import with_atom
from repro.workloads.suite import EP, PAPER_WORKLOADS

PAPER_STAGES = ("frontier", "regions", "queueing")

#: The four-type EP space of the large sweep and the GA search:
#: ARM 0..4, AMD 0..3 and two Atom types 0..3 (1,608,254 rows).
ATOM2 = dataclasses.replace(INTEL_ATOM, name="intel-atom-d525")
FOUR_TYPE_GROUPS = (
    NodeGroup("arm-cortex-a9", 4),
    NodeGroup("amd-k10", 3),
    NodeGroup(INTEL_ATOM.name, 3),
    NodeGroup(ATOM2.name, 3),
)
FOUR_TYPE_UNITS = 50e6
#: The GA's row budget: 1% of the four-type space.
GA_BUDGET = 16_082
#: What a fresh interpreter imports before it can run a scenario.
PROGRAM_IMPORT = "import repro.cli, repro.engine.runner"
#: GA seeds of a search_ga round: every run makes the same searches,
#: since the GA seed alone moves a search's time by up to ~30%.
GA_SEEDS = (0, 1, 2)
#: GA seed of the untimed searches.
WARM_UP = 1_000_000


def _four_type_workload():
    workload = with_atom(EP)
    profiles = dict(workload.profiles)
    profiles[ATOM2.name] = profiles[INTEL_ATOM.name]
    return dataclasses.replace(workload, profiles=profiles)


FOUR_TYPE_WORKLOAD = _four_type_workload()


def four_type_context() -> RunContext:
    """A fresh serial context that resolves the second Atom type."""
    ctx = RunContext(max_workers=1)
    ctx.register_node(INTEL_ATOM)
    ctx.register_node(ATOM2)
    ctx.register_workload(FOUR_TYPE_WORKLOAD)
    return ctx


def paper_context() -> RunContext:
    return RunContext(max_workers=1)


def seed_ints(rng: np.random.Generator, k: int) -> List[int]:
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=k)]


class ScenarioWorkload:
    """A round of scenario runs, each on a fresh context.

    Subclasses set ``round`` (the scenarios), ``context`` (the context
    factory), and ``verify``.
    """

    name = ""
    setup_reps = 3
    #: What one operation is, for the printed report.
    op_label = "scenario"
    #: Run a full GC pass, untimed, after each operation.  Off: the
    #: interpreter's own GC runs as it would in the program.
    collect_between_ops = False

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 7])
        self.round: List[Scenario] = []
        self.rows_per_op = 0
        self.info: List[str] = []

    def context(self) -> RunContext:
        return paper_context()

    def op(self, scenario: Scenario) -> Any:
        return run_scenario(scenario, self.context())

    def warm_up(self) -> None:
        self.op(self.round[0])

    def setup(self) -> None:
        """One set-up: a fresh interpreter importing the program (what
        every CLI run pays), then an untimed warm-up run here."""
        subprocess.run([sys.executable, "-c", PROGRAM_IMPORT], check=True)
        self.warm_up()
        if self.collect_between_ops:
            gc.collect()

    def verify(self, index: int, scenario: Scenario, out: Any) -> List[str]:
        raise NotImplementedError

    def final_checks(self) -> Dict[int, List[str]]:
        """Deferred checks: op index -> errors (``-1``: an extra op)."""
        return {}

    def extra_ops(self) -> int:
        """Untimed operations the final checks attempt themselves."""
        return 0

    def teardown(self) -> None:
        pass

    # ---- running rounds --------------------------------------------------

    def run_round(self, outcome: "Outcome", r: int) -> float:
        """One round: every scenario once, each timed and checked.
        Returns the seconds spent in the timed runs."""
        busy = 0.0
        for scenario in self.round:
            index = outcome.attempted
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                out = self.op(scenario)
            except Exception:  # a crashed op is a failed op
                outcome.fail(index, [traceback.format_exc()])
                continue
            outcome.samples.append(time.perf_counter() - t0)
            busy += outcome.samples[-1]
            outcome.fail(index, self.verify(index, scenario, out))
            # Drop the benchmark's reference to this run's result before
            # the next run starts; what else keeps it alive, and when the
            # interpreter's own cyclic GC frees it, is the program's.
            del out
            if self.collect_between_ops:
                gc.collect()
        return busy

    def final(self, outcome: "Outcome") -> None:
        outcome.attempted += self.extra_ops()
        for index, errors in self.final_checks().items():
            outcome.fail(index, errors)

    def measure(self, seconds: float) -> "Outcome":
        outcome = Outcome()
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < seconds:
            self.run_round(outcome, r)
            r += 1
        # Read before the final checks, which run exhaustive references.
        peak_mb = self.peak_rss_mb()
        self.final(outcome)
        busy = sum(outcome.samples)
        outcome.metrics = {
            "peak_rss_mb": peak_mb,
            "op_ms_p50": 1e3 * float(np.median(outcome.samples)),
            "ops_per_s": len(outcome.samples) / busy,
        }
        n = len(outcome.samples)
        outcome.info.append(
            f"{self.op_label} runs: {n}, median {outcome.metrics['op_ms_p50']:.2f} ms"
            f", {outcome.metrics['ops_per_s'] * self.rows_per_op:,.0f} rows/s")
        q = oracle.tail_quantile(n)
        if q is not None:
            outcome.info.append(
                f"{self.op_label}_ms_p{q}: "
                f"{1e3 * oracle.percentile(outcome.samples, q / 100):.2f} ms "
                f"(n={n}, {n * (100 - q) // 100} beyond)")
        return outcome

    def trace(self, seconds: float, tracer) -> "Outcome":
        outcome = paired_trace(self.run_round, seconds, tracer)
        self.final(outcome)
        return outcome

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PaperSweep(ScenarioWorkload):
    """The six paper workloads x calibrated on/off on the 10x10 space."""

    name = "paper_sweep"

    def __init__(self, seed: int, workdir):
        super().__init__(seed, workdir)
        seeds = iter(seed_ints(self.rng, 2 * len(PAPER_WORKLOADS)))
        combos = [
            Scenario(workload=w.name, calibrated=cal, seed=next(seeds),
                     stages=PAPER_STAGES)
            for w in PAPER_WORKLOADS for cal in (False, True)
        ]
        order = self.rng.permutation(len(combos))
        self.round = [combos[i] for i in order]
        self._first: Dict[int, Any] = {}
        self._expected_rows = oracle.expected_rows(
            build_stage_plan(self.round[0], self.context()).group_specs)
        self.rows_per_op = self._expected_rows

    def warm_up(self):
        for scenario in self.round:
            self.op(scenario)

    def verify(self, index, scenario, out):
        position = index % len(self.round)
        digest = (out.frontier.times_s, out.frontier.energies_j,
                  {u: [(p.response_s, p.window_energy_j) for p in pts]
                   for u, pts in out.queueing.items()})
        if position not in self._first:
            self._first[position] = digest
            rng = np.random.default_rng([self.seed, 11, position])
            return (oracle.check_space(out, self._expected_rows, rng, 200)
                    + oracle.check_queueing(out.queueing, scenario.utilizations,
                                            scenario.window_s))
        first = self._first[position]
        same = (np.array_equal(first[0], digest[0])
                and np.array_equal(first[1], digest[1])
                and first[2] == digest[2])
        return [] if same else [
            f"{scenario.workload}: output differs from the checked first run"]


class LargeSweep(ScenarioWorkload):
    """The 1.6M-row four-type EP space, frontier + regions."""

    name = "large_sweep"
    op_label = "sweep"
    # A RunContext <-> cache reference cycle keeps a finished sweep's
    # space (~230 MB) alive until a cyclic GC pass; left to the
    # interpreter's GC, back-to-back sweeps held several at once and
    # peaked at 2.2-2.4 GB, varying with how many sweeps fit a run.  The
    # cycle shows in paper_sweep's peak_rss_mb instead.
    collect_between_ops = True

    def __init__(self, seed: int, workdir):
        super().__init__(seed, workdir)
        units = float(round(FOUR_TYPE_UNITS * self.rng.uniform(0.8, 1.2)))
        self.round = [Scenario(
            workload=FOUR_TYPE_WORKLOAD.name, node_types=FOUR_TYPE_GROUPS,
            units=units, seed=seed_ints(self.rng, 1)[0],
            stages=("frontier", "regions"),
        )]
        self._expected_rows = oracle.expected_rows(
            build_stage_plan(self.round[0], self.context()).group_specs)
        self.rows_per_op = self._expected_rows
        self._first: Optional[tuple] = None

    def context(self):
        return four_type_context()

    def verify(self, index, scenario, out):
        digest = (out.frontier.times_s, out.frontier.energies_j)
        if self._first is None:
            self._first = digest
            rng = np.random.default_rng([self.seed, 13])
            return oracle.check_space(out, self._expected_rows, rng, 500)
        same = all(np.array_equal(a, b) for a, b in zip(self._first, digest))
        return [] if same else ["sweep differs from the checked first sweep"]


class SearchGA(ScenarioWorkload):
    """GA searches at a 1% row budget on the four-type space; a round is
    one search per GA seed in ``GA_SEEDS``."""

    name = "search_ga"
    op_label = "search"

    def __init__(self, seed: int, workdir):
        super().__init__(seed, workdir)
        units = float(round(FOUR_TYPE_UNITS * self.rng.uniform(0.8, 1.2)))
        self.base = Scenario(
            workload=FOUR_TYPE_WORKLOAD.name, node_types=FOUR_TYPE_GROUPS,
            units=units, seed=seed_ints(self.rng, 1)[0],
            stages=("frontier", "regions"),
        )
        self.round = [self.searching(self.base, GA_BUDGET, g) for g in GA_SEEDS]
        self.rows_per_op = GA_BUDGET
        self._outputs: List[Any] = []
        small_workload = PAPER_WORKLOADS[int(self.rng.integers(len(PAPER_WORKLOADS)))]
        self.small = Scenario(workload=small_workload.name, max_a=1, max_b=1,
                              seed=seed_ints(self.rng, 1)[0],
                              stages=("frontier",))

    @staticmethod
    def searching(scenario: Scenario, budget: int, ga_seed: int) -> Scenario:
        return scenario.with_(search={
            "strategy": "ga", "budget_rows": budget, "seed": ga_seed})

    def context(self):
        return four_type_context()

    def warm_up(self):
        # A smaller search on a GA seed no timed search uses.
        self.op(self.searching(self.base, 2_000, WARM_UP))

    def verify(self, index, scenario, out):
        self._outputs.append((index, scenario, out))
        return []

    def extra_ops(self):
        return 1

    def final_checks(self):
        truth = run_scenario(self.base, self.context())
        errors: Dict[int, List[str]] = {}
        recalls = {}
        for index, scenario, out in self._outputs:
            errors[index] = oracle.check_searched(out, truth, GA_BUDGET)
            recalls[scenario.search["seed"]] = oracle.frontier_recall(out, truth)
        self.info.append("search_ga recall vs exhaustive frontier "
                         f"({len(truth.frontier)} points): " + ", ".join(
                             f"GA seed {s}: {r:.2f}" for s, r in sorted(recalls.items())))
        del truth
        # A full-budget GA on a two-type space returns exactly the
        # exhaustive frontier.
        ctx = paper_context()
        exhaustive = run_scenario(self.small, ctx)
        rows = oracle.expected_rows(build_stage_plan(self.small, ctx).group_specs)
        full = run_scenario(self.searching(self.small, rows, WARM_UP),
                            paper_context())
        errors[-1] = [] if oracle.same_frontier(full, exhaustive) else [
            f"full-budget GA on {self.small.workload} 1x1 ({rows} rows) "
            "missed the exhaustive frontier"]
        return errors


class Outcome:
    """What a measured (or traced) phase attempted, failed and timed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.samples: List[float] = []
        self.errors: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.info: List[str] = []
        self.wall_s = 0.0
        self.ops = 0
        self.overhead_pct = 0.0

    def fail(self, index: int, errors: List[str]) -> None:
        if errors:
            self.failed += 1
            self.errors += [f"op {index}: {e}" for e in errors]


def paired_trace(run_round, seconds: float, tracer) -> Outcome:
    """Each round twice, untraced and traced (alternating which goes
    first), until ``seconds`` pass.  ``run_round`` returns the seconds
    its timed work took; the two sums give the tracing overhead."""
    outcome = Outcome()
    busy = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            before = outcome.attempted
            tracer.enabled = traced
            try:
                busy[traced] += run_round(outcome, r)
            finally:
                tracer.enabled = False
            if traced:
                outcome.ops += outcome.attempted - before
        r += 1
    outcome.wall_s = busy[True]
    outcome.overhead_pct = 100 * (busy[True] - busy[False]) / busy[False]
    return outcome


COMPUTE_WORKLOADS = {
    cls.name: cls for cls in (PaperSweep, LargeSweep, SearchGA)
}
