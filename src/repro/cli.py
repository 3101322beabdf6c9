"""Command-line interface: regenerate any paper artifact from a terminal.

Usage::

    python -m repro table1
    python -m repro table5
    python -m repro fig4 --workload ep
    python -m repro fig10 --seed 7 --csv out/fig10.csv
    python -m repro scenario --file my_experiment.json --verbose

Every subcommand prints a text rendering; ``--csv`` additionally exports
the underlying data.  All figure pipelines run through one
:class:`repro.engine.RunContext`, so a single invocation that needs the
same calibration or configuration space twice computes it once;
``--cache-dir`` adds an on-disk result cache that also warms later
invocations, and ``--workers`` widens the engine's process pool.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.engine import ResultCache, RunContext, Scenario, run_scenario
from repro.engine.scenario import show_retired_fields
from repro.reporting.export import write_csv
from repro.reporting.figures import (
    build_fig2,
    build_fig3,
    build_fig4_fig5,
    build_fig6_fig7,
    build_fig8_fig9,
    build_fig10,
    build_table1,
    build_table3,
    build_table4,
    build_table5,
)
from repro.hardware.catalog import AMD_K10 as _AMD_NODE
from repro.hardware.catalog import ARM_CORTEX_A9 as _ARM_NODE
from repro.reporting.tables import Table
from repro.util.units import seconds_to_ms
from repro.util.validate import positive_float_arg
from repro.workloads.suite import EP, MEMCACHED, workload_by_name


def _series_table(series_map, title: str) -> Table:
    """Summarize figure series as (label, n points, x range, y range)."""
    table = Table(["series", "points", "x range", "y range"], title=title)
    for label, s in series_map.items():
        table.add_row(
            [
                label,
                len(s.x),
                f"{s.x.min():.3g}..{s.x.max():.3g} {s.x_name}",
                f"{s.y.min():.3g}..{s.y.max():.3g} {s.y_name}",
            ]
        )
    return table


def _export_series(series_map, path: Path) -> None:
    rows = []
    for label, s in series_map.items():
        for x, y in zip(s.x, s.y):
            rows.append([label, x, y])
    write_csv(path, ["series", "x", "y"], rows)


def _jobs_command(args) -> int:
    """``repro jobs list|show|retry|cancel`` against a --store-dir queue."""
    import json as _json

    from repro.service.jobs import JobQueue, UnknownJob
    from repro.store import ArtifactStore

    if args.store_dir is None:
        print("jobs requires --store-dir <store>", file=sys.stderr)
        return 2
    actions = ("list", "show", "retry", "cancel")
    if args.action not in actions:
        print(
            f"unknown jobs action {args.action!r}; available: "
            + ", ".join(actions),
            file=sys.stderr,
        )
        return 2
    if args.action != "list" and args.target is None:
        print(f"jobs {args.action} requires a job id", file=sys.stderr)
        return 2
    with ArtifactStore(args.store_dir) as store:
        queue = JobQueue(store)
        try:
            if args.action == "list":
                jobs = queue.list_jobs(state=args.state)
                table = Table(
                    ["id", "state", "scenario", "attempts", "owner", "error"],
                    title=f"Run queue ({len(jobs)} job(s); "
                    + ", ".join(
                        f"{n} {s}" for s, n in sorted(queue.counts().items())
                    )
                    + ")"
                    if jobs
                    else "Run queue (empty)",
                )
                for job in jobs:
                    error = job["error"] or {}
                    table.add_row([
                        job["id"],
                        job["state"],
                        job["scenario_name"] or "-",
                        f"{job['attempts']}/{job['max_attempts']}",
                        job["lease_owner"] or "-",
                        error.get("type", "-"),
                    ])
                print(table.render())
            elif args.action == "show":
                job = queue.get(args.target)
                print(_json.dumps(job, indent=2, sort_keys=True))
            elif args.action == "retry":
                job = queue.retry(args.target)
                print(f"job {job['id']} re-queued (state: {job['state']})")
            elif args.action == "cancel":
                job = queue.cancel(args.target)
                verb = (
                    "cancelled"
                    if job["state"] == "cancelled"
                    else f"cancel requested (state: {job['state']})"
                )
                print(f"job {job['id']} {verb}")
        except (UnknownJob, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-energy",
        description=(
            "Reproduce tables/figures of 'Modeling the Energy Efficiency of "
            "Heterogeneous Clusters' (ICPP 2014)"
        ),
    )
    parser.add_argument(
        "artifact",
        choices=[
            "table1",
            "table3",
            "table4",
            "table5",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "reduce",
            "sensitivity",
            "threeway",
            "report",
            "scenario",
            "serve",
            "store",
            "jobs",
        ],
        help="paper artifact to regenerate, or an extension analysis "
        "(reduce = configuration-space reduction; sensitivity = parameter "
        "elasticities; threeway = ARM+AMD+Atom k-way matching demo; "
        "report = full Markdown reproduction report; scenario = run a "
        "declarative experiment from --file through the engine; "
        "serve = answer planner queries AND enqueue scenario runs over "
        "HTTP from a --store-dir populated by earlier scenario runs; "
        "store = maintain a --store-dir, e.g. 'store gc'; jobs = inspect "
        "and drive the durable run queue, e.g. 'jobs list')",
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help="sub-action: for store, 'gc' removes artifact rows no live "
        "stage mapping (or active job) references; for jobs, one of "
        "'list', 'show', 'retry', 'cancel'",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="job id for 'jobs show|retry|cancel'",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="with store gc, only count and report what would be removed",
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--workload",
        default=None,
        help="workload name override where the artifact allows one",
    )
    parser.add_argument(
        "--csv", type=Path, default=None, help="also export data to this CSV path"
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render an ASCII chart of the artifact (figures only)",
    )
    parser.add_argument(
        "--file",
        type=Path,
        default=None,
        help="scenario JSON file (scenario artifact only)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="engine process-pool width (default: auto; 1 = serial)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="execution backend for the engine's fan-outs: 'serial' "
        "(in-process) or 'process_pool' (single-host pool, the default "
        "auto-selection).  Artifacts are bit-identical across backends",
    )
    parser.add_argument(
        "--backend-option",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="backend option (repeatable), e.g. "
        "--backend-option workers=4; values parse as JSON with a "
        "plain-string fallback",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="directory for the on-disk result cache "
        "(e.g. results/.cache; default: in-memory only)",
    )
    parser.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        help="persistent artifact store directory (sqlite-backed).  With "
        "the scenario artifact, stage artifacts are stored and warm "
        "reruns skip every unchanged stage; with serve, the store to "
        "answer queries from",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="with the scenario artifact, print the stage plan (stage "
        "identities and store hit/stale/miss status) without executing "
        "anything",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for serve (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8734,
        help="bind port for serve (default: 8734; 0 = ephemeral)",
    )
    parser.add_argument(
        "--runners",
        type=int,
        default=1,
        help="supervisor worker threads executing queued runs inside "
        "serve (default: 1; 0 = query-only, jobs queue until a worker "
        "attaches)",
    )
    parser.add_argument(
        "--max-queued",
        type=int,
        default=64,
        help="bound on the queued-run backlog; past it POST /v1/runs "
        "sheds load with 429 + Retry-After (default: 64)",
    )
    parser.add_argument(
        "--lease-s",
        type=positive_float_arg,
        default=30.0,
        help="job lease duration for serve's supervisors; a crashed "
        "worker's job is reclaimed this long after its last heartbeat "
        "(default: 30)",
    )
    parser.add_argument(
        "--state",
        default=None,
        help="with 'jobs list', filter by state "
        "(queued|leased|running|done|failed|cancelled)",
    )
    parser.add_argument(
        "--memory-budget-mb",
        type=positive_float_arg,
        default=None,
        help="streaming block budget in MiB (caps rows held at once; "
        "default 256)",
    )
    parser.add_argument(
        "--spill-dir",
        type=Path,
        default=None,
        help="also spill the streamed space to memory-mapped .npy columns "
        "in this directory, and write all of it with --csv (scenario only)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="periodically checkpoint the streamed space's reducer (or "
        "search) state here so an interrupted run can be resumed "
        "(scenario only; incompatible with --spill-dir)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint in --checkpoint-dir, "
        "re-evaluating only the unfinished blocks; the resumed artifacts "
        "are bit-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=8,
        help="blocks between checkpoint saves (default: 8)",
    )
    parser.add_argument(
        "--search",
        choices=["exhaustive", "random", "ga", "anneal"],
        default=None,
        help="space-exploration strategy (scenario only): 'exhaustive' "
        "sweeps every configuration (the default); 'random', 'ga' "
        "(genetic, Pareto-rank selection), and 'anneal' (simulated "
        "annealing) explore under --search-budget and produce an "
        "approximate frontier with a recorded convergence trajectory",
    )
    parser.add_argument(
        "--search-budget",
        type=int,
        default=None,
        metavar="ROWS",
        help="row budget for a non-exhaustive --search: newly evaluated "
        "configurations are capped at this count (default: 5%% of the "
        "space)",
    )
    parser.add_argument(
        "--trajectory-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the search convergence trajectory (per-round rows, "
        "frontier size, hypervolume) as JSON to this path",
    )
    parser.add_argument(
        "--fault-plan",
        type=Path,
        default=None,
        help="JSON fault-injection plan (see repro.engine.faults) applied "
        "deterministically to the run: crash/delay workers, corrupt "
        "cache entries, fail reducer folds -- for resilience testing",
    )
    parser.add_argument(
        "--task-timeout-s",
        type=positive_float_arg,
        default=None,
        help="per-task timeout for pooled evaluation; a task exceeding "
        "it is retried on a fresh pool (default: no timeout)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print engine progress events (stages, cache hits, timings)",
    )
    args = parser.parse_args(argv)
    show_retired_fields("always" if args.artifact == "serve" else "once")
    if args.artifact == "serve":
        if args.store_dir is None:
            print("serve requires --store-dir <store>", file=sys.stderr)
            return 2
        from repro.service import serve

        serve(
            args.store_dir,
            host=args.host,
            port=args.port,
            quiet=not args.verbose,
            runners=args.runners,
            max_queued=args.max_queued,
            lease_s=args.lease_s,
        )
        return 0
    if args.artifact == "store":
        if args.store_dir is None:
            print("store requires --store-dir <store>", file=sys.stderr)
            return 2
        if args.action != "gc":
            print(
                f"unknown store action {args.action!r}; available: gc",
                file=sys.stderr,
            )
            return 2
        from repro.store import ArtifactStore

        with ArtifactStore(args.store_dir) as store:
            report = store.gc(dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        line = (
            f"store gc: {verb} {report['removed']} artifact(s) "
            f"({report['reclaimed_bytes']:,} bytes), "
            f"{report['kept']} live artifact(s) kept"
        )
        if report["active_jobs"]:
            line += (
                f"; {report['job_protected']} artifact(s) protected by "
                f"{report['active_jobs']} active job(s)"
            )
        if report["job_dirs_removed"]:
            line += (
                f"; {verb} {report['job_dirs_removed']} orphaned job "
                "checkpoint dir(s)"
            )
        print(line)
        return 0
    if args.artifact == "jobs":
        return _jobs_command(args)
    if args.action is not None:
        parser.error(
            f"the {args.artifact} artifact takes no action argument"
        )
    if args.target is not None:
        parser.error(
            f"the {args.artifact} artifact takes no target argument"
        )
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    backend = args.backend
    backend_options = {}
    for entry in args.backend_option or ():
        key, sep, value = entry.partition("=")
        if not sep or not key:
            parser.error(f"--backend-option expects KEY=VALUE, got {entry!r}")
        try:
            import json as _json

            backend_options[key] = _json.loads(value)
        except ValueError:
            backend_options[key] = value
    if backend_options and backend is None:
        parser.error("--backend-option requires --backend")
    if backend is not None:
        from repro.engine.backends import validate_backend_options

        try:
            backend_options = validate_backend_options(backend, backend_options)
        except ValueError as exc:
            parser.error(str(exc))
    if args.workers is not None:
        from repro.engine.backends import validate_workers

        try:
            validate_workers(args.workers, name="--workers")
        except ValueError as exc:
            parser.error(str(exc))

    out = sys.stdout
    csv_rows = None
    csv_headers = None

    def _sink(event: str, payload: dict) -> None:
        print(f"[engine] {event}: {payload}", file=sys.stderr)

    faults = None
    if args.fault_plan is not None:
        from repro.engine.faults import FaultPlan

        faults = FaultPlan.from_file(args.fault_plan)
    resilience = None
    if args.task_timeout_s is not None:
        from repro.engine.resilience import ResiliencePolicy

        resilience = ResiliencePolicy(task_timeout_s=args.task_timeout_s)

    ctx = RunContext(
        seed=args.seed,
        cache=ResultCache(disk_dir=args.cache_dir) if args.cache_dir else None,
        sinks=(_sink,) if args.verbose else (),
        max_workers=args.workers,
        memory_budget_mb=args.memory_budget_mb,
        resilience=resilience,
        faults=faults,
        backend=backend,
        backend_options=backend_options or None,
    )
    if args.store_dir is not None:
        from repro.store import ArtifactStore

        # The context's result cache doubles as the store's memory tier,
        # so in-process lookups never touch sqlite.
        ctx.store = ArtifactStore(
            args.store_dir, memory=ctx.cache, on_event=ctx.emit
        )

    if args.artifact == "table1":
        print(build_table1().render(), file=out)
    elif args.artifact == "table3":
        table, _ = build_table3(seed=args.seed)
        print(table.render(), file=out)
    elif args.artifact == "table4":
        table, _ = build_table4(seed=args.seed)
        print(table.render(), file=out)
    elif args.artifact == "table5":
        table, rows = build_table5(seed=args.seed)
        print(table.render(), file=out)
        # The table's rows at full precision, not its rounded cells.
        csv_headers = list(table.headers)
        csv_rows = [
            [name, unit, values[_AMD_NODE.name], values[_ARM_NODE.name], cells[-1]]
            for (name, unit, values), cells in zip(rows, table.rows)
        ]
    elif args.artifact == "fig2":
        series = build_fig2(seed=args.seed)
        print(_series_table(series, "Fig 2: WPI/SPI_core constancy").render(), file=out)
        if args.csv:
            _export_series(series, args.csv)
            print(f"wrote {args.csv}", file=out)
        return 0
    elif args.artifact == "fig3":
        series = build_fig3(seed=args.seed)
        table = Table(
            ["panel", "r^2", "slope", "intercept"],
            title="Fig 3: SPI_mem linear regression over frequency",
        )
        for label, s in series.items():
            table.add_row(
                [label, f"{s.meta['r2']:.3f}", f"{s.meta['slope']:.3f}", f"{s.meta['intercept']:.3f}"]
            )
        print(table.render(), file=out)
        if args.csv:
            _export_series(series, args.csv)
            print(f"wrote {args.csv}", file=out)
        return 0
    elif args.artifact in ("fig4", "fig5"):
        workload = workload_by_name(args.workload) if args.workload else (
            EP if args.artifact == "fig4" else MEMCACHED
        )
        fig = build_fig4_fig5(
            workload,
            seed=args.seed,
            ctx=ctx,
        )
        table = Table(["quantity", "value"], title=f"Fig {args.artifact[-1]}: {workload.name}")
        table.add_row(["configurations", len(fig.space)])
        table.add_row(["frontier points", len(fig.frontier)])
        table.add_row(
            ["fastest deadline [ms]", f"{seconds_to_ms(fig.frontier.fastest_time_s):.1f}"]
        )
        table.add_row(["min energy [J]", f"{fig.frontier.min_energy_j:.2f}"])
        table.add_row(["sweet region", "yes" if fig.regions.has_sweet_region else "no"])
        table.add_row(
            ["overlap region", "yes" if fig.regions.has_overlap_region else "no"]
        )
        print(table.render(), file=out)
        if args.plot:
            from repro.reporting.plots import plot_pareto_figure

            print(file=out)
            print(plot_pareto_figure(fig), file=out)
        csv_headers = ["time_ms", "energy_j", "n_arm", "n_amd"]
        csv_rows = [
            [
                seconds_to_ms(fig.space.times_s[i]),
                fig.space.energies_j[i],
                int(fig.space.n_a[i]),
                int(fig.space.n_b[i]),
            ]
            for i in range(len(fig.space))
        ]
    elif args.artifact in ("fig6", "fig7"):
        workload = workload_by_name(args.workload) if args.workload else (
            MEMCACHED if args.artifact == "fig6" else EP
        )
        series = build_fig6_fig7(workload, seed=args.seed, ctx=ctx)
        print(
            _series_table(
                series, f"Fig {args.artifact[-1]}: budget mixes for {workload.name}"
            ).render(),
            file=out,
        )
        if args.plot:
            from repro.reporting.plots import plot_series_map

            print(file=out)
            print(plot_series_map(series, x_log=True), file=out)
        if args.csv:
            _export_series(series, args.csv)
            print(f"wrote {args.csv}", file=out)
        return 0
    elif args.artifact in ("fig8", "fig9"):
        workload = workload_by_name(args.workload) if args.workload else (
            MEMCACHED if args.artifact == "fig8" else EP
        )
        series = build_fig8_fig9(workload, seed=args.seed, ctx=ctx)
        print(
            _series_table(
                series, f"Fig {args.artifact[-1]}: cluster scaling for {workload.name}"
            ).render(),
            file=out,
        )
        if args.plot:
            from repro.reporting.plots import plot_series_map

            print(file=out)
            print(plot_series_map(series, x_log=True), file=out)
        if args.csv:
            _export_series(series, args.csv)
            print(f"wrote {args.csv}", file=out)
        return 0
    elif args.artifact == "fig10":
        workload = workload_by_name(args.workload) if args.workload else MEMCACHED
        per_util = build_fig10(
            workload,
            seed=args.seed,
            ctx=ctx,
            memory_budget_mb=args.memory_budget_mb,
        )
        table = Table(
            ["utilization", "points", "response range [ms]", "energy range [J]"],
            title="Fig 10: queueing-aware window energy (16 ARM + 14 AMD)",
        )
        for u, points in sorted(per_util.items()):
            responses = [seconds_to_ms(p.response_s) for p in points]
            energies = [p.window_energy_j for p in points]
            table.add_row(
                [
                    f"{u:.0%}",
                    len(points),
                    f"{min(responses):.1f}..{max(responses):.1f}",
                    f"{min(energies):.1f}..{max(energies):.1f}",
                ]
            )
        print(table.render(), file=out)
        if args.plot:
            from repro.reporting.figures import FigureSeries
            from repro.reporting.plots import plot_series_map

            series = {
                f"U={u:.0%}": FigureSeries(
                    label=f"U={u:.0%}",
                    x=[seconds_to_ms(p.response_s) for p in points],
                    y=[p.window_energy_j for p in points],
                    x_name="response [ms]",
                    y_name="window energy [J]",
                )
                for u, points in sorted(per_util.items())
            }
            print(file=out)
            print(plot_series_map(series, x_log=True, y_log=True), file=out)
        csv_headers = ["utilization", "response_ms", "energy_j", "n_arm", "n_amd"]
        csv_rows = [
            [u, seconds_to_ms(p.response_s), p.window_energy_j, p.n_a, p.n_b]
            for u, points in sorted(per_util.items())
            for p in points
        ]

    elif args.artifact == "scenario":
        if args.file is None:
            print("scenario requires --file <scenario.json>", file=sys.stderr)
            return 2
        scenario = Scenario.from_file(args.file)
        if args.memory_budget_mb is not None:
            scenario = scenario.with_(memory_budget_mb=args.memory_budget_mb)
        if args.search is not None or args.search_budget is not None:
            # CLI flags override the scenario file's search block; an
            # explicit --search replaces it, a lone --search-budget
            # adjusts it.
            search = dict(scenario.search or {})
            if args.search is not None:
                search = {"strategy": args.search}
            if args.search_budget is not None:
                if not search or search.get("strategy") == "exhaustive":
                    parser.error(
                        "--search-budget needs a non-exhaustive strategy: "
                        "pass --search random|ga|anneal (or set search in "
                        "the scenario file)"
                    )
                search["budget_rows"] = args.search_budget
            try:
                scenario = scenario.with_(search=search or None)
            except ValueError as exc:
                parser.error(str(exc))
        if backend is not None:
            # CLI flags win over the scenario file's backend selection.
            scenario = scenario.with_(
                backend=backend, backend_options=backend_options or None
            )
        if args.explain:
            from repro.engine import explain_scenario

            plan, rows = explain_scenario(scenario, ctx)
            table = Table(
                ["stage", "kind", "identity", "status"],
                title=f"Stage plan: {scenario.name or scenario.workload} "
                f"(scenario {plan.scenario_id[:12]})",
            )
            for row in rows:
                table.add_row(
                    [row["stage"], row["kind"], row["identity"][:16], row["status"]]
                )
            print(table.render(), file=out)
            if ctx.store is None:
                print(
                    "(no --store-dir: statuses reflect an empty store)",
                    file=out,
                )
            return 0
        result = run_scenario(
            scenario,
            ctx,
            spill_dir=args.spill_dir,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
        )
        mix = " + ".join(f"{g.node} x{g.max_nodes}" for g in scenario.groups)
        table = Table(
            ["quantity", "value"],
            title=f"Scenario: {scenario.name or scenario.workload} ({mix})",
        )
        table.add_row(["stages", ", ".join(scenario.stages)])
        table.add_row(["configurations", f"{result.num_configurations:,}"])
        if result.search is not None:
            table.add_row(["search strategy", result.search.strategy])
            table.add_row(
                ["search budget [rows]", f"{result.search.budget_rows:,}"]
            )
            table.add_row(["space rows", f"{result.search.space_rows:,}"])
            table.add_row(["coverage", f"{result.search.coverage:.2%}"])
            table.add_row(
                ["search rounds", len(result.search.trajectory.rounds)]
            )
        if result.frontier is not None:
            table.add_row(["frontier points", len(result.frontier)])
            table.add_row(
                ["fastest deadline [ms]", f"{seconds_to_ms(result.frontier.fastest_time_s):.1f}"]
            )
            table.add_row(["min energy [J]", f"{result.frontier.min_energy_j:.2f}"])
        if result.regions is not None:
            table.add_row(["sweet region", "yes" if result.regions.has_sweet_region else "no"])
            table.add_row(
                ["overlap region", "yes" if result.regions.has_overlap_region else "no"]
            )
        if result.queueing is not None:
            table.add_row(
                ["queueing utilizations", ", ".join(f"{u:.0%}" for u in sorted(result.queueing))]
            )
        for stage, elapsed in result.timings_s.items():
            table.add_row([f"{stage} time [ms]", f"{elapsed * 1e3:.1f}"])
        stats = result.cache_stats
        table.add_row(
            ["cache", f"{stats['hits']} hits, {stats['misses']} misses, "
             f"{stats['disk_hits']} disk hits"]
        )
        for stage, st in result.stage_cache_stats.items():
            table.add_row(
                [f"cache[{stage}]",
                 f"{st.get('hits', 0)} hits, {st.get('misses', 0)} misses, "
                 f"{st.get('disk_hits', 0)} disk hits"]
            )
        if result.stage_statuses:
            stored = sorted(
                s for s, v in result.stage_statuses.items() if v == "stored"
            )
            table.add_row(
                ["stages from store", ", ".join(stored) if stored else "none"]
            )
        print(table.render(), file=out)
        if result.search is not None:
            from repro.reporting.search import (
                convergence_table,
                plot_convergence,
            )

            trajectory = result.search.trajectory
            print(file=out)
            print(convergence_table(trajectory).render(), file=out)
            if args.plot:
                print(file=out)
                print(
                    plot_convergence({trajectory.strategy: trajectory}),
                    file=out,
                )
            if args.trajectory_out is not None:
                trajectory.to_json(args.trajectory_out)
                print(f"wrote {args.trajectory_out}", file=out)
        if args.spill_dir is not None:
            # The spill kept the whole cloud: export every row.
            space = result.space
            csv_headers = ["time_ms", "energy_j"] + [
                f"n_{chr(ord('a') + g)}" for g in range(space.num_groups)
            ]
            csv_rows = [
                [seconds_to_ms(space.times_s[i]), space.energies_j[i]]
                + [int(space.n[g, i]) for g in range(space.num_groups)]
                for i in range(len(space))
            ]
        elif result.reduced.frontier is not None:
            # The cloud was never held: export the frontier rows with
            # their node counts.
            reduced = result.reduced
            frontier = reduced.frontier
            csv_headers = ["time_ms", "energy_j"] + [
                f"n_{chr(ord('a') + g)}" for g in range(reduced.num_groups)
            ]
            csv_rows = [
                [seconds_to_ms(frontier.times_s[i]), frontier.energies_j[i]]
                + [int(reduced.frontier_n[g, i]) for g in range(reduced.num_groups)]
                for i in range(len(frontier))
            ]
    elif args.artifact == "report":
        from repro.reporting.report import generate_report

        target_dir = args.csv.parent if args.csv else Path("results")
        path = generate_report(target_dir, seed=args.seed)
        print(f"wrote {path}", file=out)
    elif args.artifact == "reduce":
        from repro.core.reduction import reduction_summary
        from repro.reporting.figures import suite_params

        workload = workload_by_name(args.workload) if args.workload else EP
        units = workload.problem_sizes.get("analysis", workload.default_job_units)
        summary = reduction_summary(
            _ARM_NODE, 10, _AMD_NODE, 10, suite_params(workload), units,
            memory_budget_mb=args.memory_budget_mb,
        )
        table = Table(
            ["quantity", "value"],
            title=f"Configuration-space reduction for {workload.name} (10x10)",
        )
        table.add_row(["full configurations", f"{summary['full_size']:,}"])
        table.add_row(["reduced configurations", f"{summary['reduced_size']:,}"])
        table.add_row(["reduction factor", f"{summary['reduction_factor']:.0f}x"])
        table.add_row(
            ["ARM settings kept", f"{summary['settings_a'][0]}/{summary['settings_a'][1]}"]
        )
        table.add_row(
            ["AMD settings kept", f"{summary['settings_b'][0]}/{summary['settings_b'][1]}"]
        )
        table.add_row(
            ["frontier preserved", "yes" if summary["frontier_preserved"] else "no"]
        )
        print(table.render(), file=out)
    elif args.artifact == "sensitivity":
        from repro.core.sensitivity import most_influential, sensitivity_table
        from repro.reporting.figures import suite_params

        workload = workload_by_name(args.workload) if args.workload else EP
        units = workload.problem_sizes.get("analysis", workload.default_job_units)
        rows = sensitivity_table(
            _ARM_NODE, 4, _AMD_NODE, 4, suite_params(workload), units
        )
        table = Table(
            ["node", "parameter", "min-energy elasticity", "fastest-time elasticity"],
            title=f"Most influential model inputs for {workload.name}",
        )
        for row in most_influential(rows, top=8):
            table.add_row(
                [
                    row.node_name,
                    row.field,
                    f"{row.min_energy_elasticity:+.2f}",
                    f"{row.fastest_time_elasticity:+.2f}",
                ]
            )
        print(table.render(), file=out)
    elif args.artifact == "threeway":
        from repro.core.calibration import ground_truth_params
        from repro.core.matching import GroupSetting
        from repro.core.multiway import evaluate_multiway
        from repro.hardware.extension import INTEL_ATOM
        from repro.workloads.extension import with_atom

        workload = with_atom(
            workload_by_name(args.workload) if args.workload else EP
        )
        units = workload.problem_sizes.get("analysis", workload.default_job_units)
        groups = [
            GroupSetting(ground_truth_params(_ARM_NODE, workload), 8, 4, 1.4),
            GroupSetting(ground_truth_params(_AMD_NODE, workload), 2, 6, 2.1),
            GroupSetting(ground_truth_params(INTEL_ATOM, workload), 4, 2, 1.66),
        ]
        outcome = evaluate_multiway(units, groups)
        table = Table(
            ["group", "nodes", "work share", "energy [J]"],
            title=f"Three-way matched split for {workload.name} "
            f"(T = {outcome.time_s * 1e3:.1f} ms, total {outcome.energy_j:.2f} J)",
        )
        names = ("ARM Cortex-A9 x8", "AMD K10 x2", "Intel Atom x4")
        for name, group, w, e in zip(
            names, groups, outcome.match.units, outcome.group_energies_j
        ):
            table.add_row(
                [name, group.n_nodes, f"{w / units:.1%}", f"{e:.2f}"]
            )
        print(table.render(), file=out)

    if args.csv and csv_rows is not None:
        write_csv(args.csv, csv_headers, csv_rows)
        print(f"wrote {args.csv}", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
