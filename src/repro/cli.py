"""Command-line interface: scenarios, sweeps, and paper-figure aliases.

Usage::

    python -m repro list
    python -m repro run websearch --algorithm hpcc --set load=0.4
    python -m repro sweep websearch --algorithms powertcp,hpcc \
        --loads 0.2,0.6 --jobs 4
    python -m repro fig fig4_top_10to1 [--algorithms powertcp,hpcc]

``run`` executes one registered scenario and prints its metrics;
``sweep`` expands a parameter grid across worker processes (deterministic
per-cell seeding) and persists JSON to ``benchmarks/results/``.  ``fig``
runs one entry of the figure table (``repro.figures``) -- a committed
series, or every series of one figure -- and prints the series' exact
bytes; the legacy ``fig2`` ... ``fig11`` subcommands are its aliases.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from typing import Dict, List

from repro.cc.registry import ALGORITHMS, HOMA_TRANSPORT, algorithm_names
from repro.registry import UnknownNameError
from repro.routing.registry import POLICIES, policy_names
from repro.scenarios.registry import get_scenario, scenario_names
from repro.topology.registry import TOPOLOGIES, topology_names

#: the legacy ``python -m repro figN`` subcommands (``fig figN`` spelled short)
FIGURE_ALIASES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7g", "fig8",
                  "fig9", "fig10", "fig11")


# ----------------------------------------------------------------------
# Scenario subcommands: run / sweep / list
# ----------------------------------------------------------------------
def _parse_value(text: str):
    """Literal-eval a CLI value, falling back to the raw string."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_overrides(pairs: List[str]) -> Dict:
    """['load=0.4', 'algorithm=hpcc'] -> {'load': 0.4, 'algorithm': 'hpcc'}"""
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        overrides[key] = _parse_value(value)
    return overrides


def _fmt_metric(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def cmd_run(args) -> None:
    """Run one registered scenario and print its metrics."""
    scenario = get_scenario(args.scenario)
    overrides = dict(scenario.tiny_overrides()) if args.tiny else {}
    if args.algorithm:
        overrides["algorithm"] = args.algorithm
    overrides.update(_parse_overrides(args.set or []))
    try:
        config = scenario.configure(**overrides)
    except ValueError as exc:  # unknown config field: a usage error
        raise SystemExit(str(exc))
    result = scenario.run(config=config)
    if args.json:
        # streamed: the document's text is never held whole (same bytes)
        json.dump(result.to_json_dict(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return
    prov = result.provenance
    print(f"scenario={result.scenario} algorithm={prov['algorithm']} "
          f"seed={prov['seed']}")
    for key in sorted(result.metrics):
        print(f"  {key:26s} {_fmt_metric(result.metrics[key])}")
    print(f"  {'events_processed':26s} {prov['events_processed']}")
    print(f"  {'wall_time_s':26s} {prov['wall_time_s']:.3f}")


def cmd_sweep(args) -> None:
    """Expand a parameter grid and run the cells across processes."""
    from repro.scenarios.sweep import (
        SweepError,
        SweepRunner,
        SweepSpec,
        default_results_path,
        parse_shard,
        shard_results_path,
    )

    grid: Dict[str, List] = {}
    if args.algorithms:
        grid["algorithm"] = args.algorithms.split(",")
    if args.loads:
        grid["load"] = [float(v) for v in args.loads.split(",")]
    if args.fanouts:
        grid["fanout"] = [int(v) for v in args.fanouts.split(",")]
    for axis in args.grid or []:
        key, sep, values = axis.partition("=")
        if not sep or not values:
            raise SystemExit(f"--grid expects key=v1,v2,..., got {axis!r}")
        grid[key] = [_parse_value(v) for v in values.split(",")]
    if not grid:
        raise SystemExit(
            "sweep needs at least one axis "
            "(--algorithms/--loads/--fanouts/--grid)"
        )
    # The canonical name, not the spelling typed: it keys the cells, the
    # document header and the default output file (= incremental cache).
    scenario = get_scenario(args.scenario)
    base = dict(scenario.tiny_overrides()) if args.tiny else {}
    base.update(_parse_overrides(args.set or []))
    spec = SweepSpec(
        scenario=scenario.name, grid=grid, base=base, seed=args.seed
    )
    shard = None
    if args.shard:
        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            raise SystemExit(str(exc))
    out_path = args.out or default_results_path(scenario.name)
    if shard is not None:
        # Each shard persists (and caches) its own file; merge_shards in
        # repro.analysis.results recombines them.
        out_path = shard_results_path(out_path, shard)
    try:
        # The constructor validates grid axes and the job count.  The
        # output file doubles as the incremental cache: cells whose
        # (config, seed) already exist there are reused unless --force.
        runner = SweepRunner(
            spec, jobs=args.jobs, reuse_path=out_path, force=args.force,
            shard=shard,
        )
    except ValueError as exc:  # unknown/empty grid axis, bad jobs
        raise SystemExit(str(exc))
    try:
        sweep = runner.run()
    except SweepError as exc:
        # The cells that did settle ok are kept, so a re-run pays only
        # for the failed ones.
        if exc.result.cells:
            exc.result.persist(out_path, keep_existing=True)
        errors = [error for _params, error in exc.failures]
        if all(error.get("type") == "UnknownNameError" for error in errors):
            # a misspelt grid value: the one-line catalog, as on every axis
            raise SystemExit(errors[0]["message"])
        raise SystemExit(str(exc))
    for cell in sweep.cells:
        params = " ".join(f"{k}={v}" for k, v in sorted(cell.params.items()))
        metrics = " ".join(
            f"{k}={_fmt_metric(v)}" for k, v in sorted(cell.result.metrics.items())
        )
        print(f"{params} | {metrics}")
    # keep_existing: the file doubles as the incremental cache, so a
    # narrower re-run must not discard previously persisted cells —
    # --force bypasses cache *reads* but never purges unrelated results.
    path = sweep.persist(out_path, keep_existing=True)
    total = sweep.persisted_cell_count
    extra = f", {total} total in file" if total > len(sweep.cells) else ""
    reused = (
        f", reused {runner.reused_cells} cached" if runner.reused_cells else ""
    )
    print(
        f"wrote {path} ({len(sweep.cells)} cells, jobs={args.jobs}"
        f"{reused}{extra})"
    )


def cmd_fig(args) -> None:
    """Print a committed figure series, or every series of one figure."""
    from repro.figures import select

    entries = select(args.figure)
    algorithms = args.algorithms.split(",") if args.algorithms else None
    overrides = _parse_overrides(args.set or [])
    for entry in entries:
        try:
            results = entry.run(algorithms=algorithms, overrides=overrides)
        except ValueError as exc:  # a knob the entry has no use for
            raise SystemExit(f"{entry.series}: {exc}")
        if len(entries) > 1:
            print(f"# {entry.series} ({entry.locus})")
        sys.stdout.write(entry.text(results))


def cmd_campaign(args) -> int:
    """Run a fault-tolerant campaign from a manifest file."""
    from repro.analysis.results import ResultSet, format_failure_report
    from repro.campaign import Campaign, load_manifest

    try:
        campaign = Campaign(  # the constructor validates the worker count
            load_manifest(args.manifest),
            workers=args.workers,
            out=args.out,
            force=args.force,
            quiet=args.quiet,
            manifest_path=args.manifest,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    report = campaign.run()
    if report.interrupted:
        print(
            f"campaign interrupted: "
            f"{report.ok + report.failed}/{report.total_cells} cells done; "
            f"resume with: python -m repro campaign {args.manifest}"
        )
        return 130
    print(
        f"wrote {report.out_path} ({report.total_cells} cells: "
        f"{report.ok} ok, {report.failed} failed; "
        f"{report.executed} executed, {report.retried} retried, "
        f"{report.reused_cache} reused, "
        f"{report.recovered_journal} recovered from journal)"
    )
    if report.failed:
        for line in format_failure_report(ResultSet.load(report.out_path)):
            print(line)
        print(f"failure report: {report.failures_path}")
        return 1
    return 0


def cmd_perf(args) -> int:
    """Run the tracked perf macro-benchmarks and write BENCH_perf.json.

    Exits non-zero when an engine variant's simulation results differ
    from its same-run default-engine case: variants may change speed,
    never results.
    """
    from repro.perf import bench as perf_bench

    if args.engines:
        for line in perf_bench.engine_report():
            print(line)
        return 0
    compare = None
    if args.compare:
        try:
            compare = perf_bench.load_bench(args.compare)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load --compare file: {exc}")
    cases = args.cases.split(",") if args.cases else None
    try:
        doc = perf_bench.run_perf(
            cases, tiny=args.tiny, repeats=args.repeats, compare=compare
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    for line in perf_bench.format_bench(doc):
        print(line)
    if not args.no_write:
        path = perf_bench.write_bench(doc, args.out)
        print(f"wrote {path}")
    if args.history:
        path = perf_bench.append_history(
            doc, args.history, label=args.history_label
        )
        print(f"appended snapshot to {path}")
    if args.warn_regression:
        warnings = perf_bench.regression_warnings(doc)
        for line in warnings:
            print(f"WARNING: {line}")
        if not warnings and compare is not None:
            print("no events/sec regressions vs the reference")
    mismatched = [c["case"] for c in doc["cases"] if c.get("fingerprint_mismatch")]
    if mismatched:
        print(
            "ERROR: engine variant(s) changed simulation results: "
            + ", ".join(mismatched)
        )
        return 1
    return 0


def _requirements_summary(entry) -> str:
    req = entry.requirements
    parts = []
    if req.int_stamping:
        parts.append("INT")
    if req.ecn_config is not None:
        parts.append("ECN")
    if req.cnp_interval_ns is not None:
        parts.append("CNP")
    if req.transport == HOMA_TRANSPORT:
        parts.append("receiver-driven")
    return "+".join(parts) if parts else "-"


def cmd_list(args) -> None:
    """Print the scenario, CC, topology and routing registries and the
    figure table."""
    from repro.figures import FIGURES

    print("scenarios (python -m repro run|sweep <name>):")
    for name in scenario_names():
        scenario = get_scenario(name)
        print(f"  {name:12s} {scenario.description}")
        print(f"  {'':12s}   fields: {', '.join(scenario.config_fields())}")
    print()
    print("topologies (each scenario builds one; --set topology_params=... reshapes it):")
    for name in topology_names():
        entry = TOPOLOGIES[name]
        print(f"  {name:12s} {entry.description}")
        print(f"  {'':12s}   params: {', '.join(entry.param_fields())}")
        if entry.aliases:
            print(f"  {'':12s}   aliases: {', '.join(entry.aliases)}")
    print()
    print("congestion-control algorithms (--algorithm/--algorithms):")
    for name in algorithm_names():
        entry = ALGORITHMS[name]
        features = _requirements_summary(entry)
        print(f"  {name:15s} [{features:>15s}] {entry.description}")
        if entry.aliases:
            print(f"  {'':15s} {'':>17s} aliases: {', '.join(entry.aliases)}")
    print()
    print("routing policies (--set routing=<name> where topologies support it):")
    for name in policy_names():
        entry = POLICIES[name]
        req = entry.requirements
        features = (
            "per-packet, reorder-tolerant receiver"
            if not req.flow_stable or req.reordering_tolerant_receiver
            else "flow-stable"
        )
        print(f"  {name:15s} [{features}] {entry.description}")
        if entry.aliases:
            print(f"  {'':15s} aliases: {', '.join(entry.aliases)}")
        if entry.param_names:
            print(f"  {'':15s} params: {', '.join(sorted(entry.param_names))}")
    print()
    print("figures (python -m repro fig <series|figure>; "
          f"{', '.join(FIGURE_ALIASES)} also as subcommands):")
    for entry in FIGURES:
        print(f"  {entry.figure:10s} {entry.series:31s} {entry.locus}")


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PowerTCP (NSDI'22) scenarios, sweeps, and paper figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    fig_flags = argparse.ArgumentParser(add_help=False)
    fig_flags.add_argument(
        "--algorithms",
        help="comma-separated values for the entry's algorithm axis",
    )
    fig_flags.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="base config override of a scenario-backed entry (repeatable)",
    )
    fig_p = sub.add_parser(
        "fig", parents=[fig_flags],
        help="print a committed paper-figure series (see list)",
    )
    fig_p.add_argument("figure", help="series name or figure id")
    for name in FIGURE_ALIASES:
        sub.add_parser(
            name, parents=[fig_flags], help=f"alias of: fig {name}"
        ).set_defaults(figure=name)

    sub.add_parser("list", help="list registered scenarios and figures")

    from repro.lint.cli import add_lint_parser

    add_lint_parser(sub)

    run_p = sub.add_parser("run", help="run one registered scenario")
    run_p.add_argument("scenario", help="registered scenario name")
    run_p.add_argument("--algorithm", help="congestion-control algorithm")
    run_p.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="config override (repeatable)",
    )
    run_p.add_argument(
        "--tiny", action="store_true",
        help="start from the scenario's fast smoke configuration",
    )
    run_p.add_argument(
        "--json", action="store_true", help="print the full ScenarioResult as JSON"
    )

    sweep_p = sub.add_parser(
        "sweep", help="run a parameter grid across worker processes"
    )
    sweep_p.add_argument("scenario", help="registered scenario name")
    sweep_p.add_argument(
        "--algorithms", help="comma-separated values for the algorithm axis"
    )
    sweep_p.add_argument("--loads", help="comma-separated values for the load axis")
    sweep_p.add_argument(
        "--fanouts", help="comma-separated values for the fanout axis"
    )
    sweep_p.add_argument(
        "--grid", action="append", metavar="KEY=V1,V2",
        help="extra sweep axis over any config field (repeatable)",
    )
    sweep_p.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="base config override shared by all cells (repeatable)",
    )
    sweep_p.add_argument(
        "--tiny", action="store_true",
        help="start from the scenario's fast smoke configuration",
    )
    sweep_p.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep_p.add_argument("--seed", type=int, default=1, help="sweep base seed")
    sweep_p.add_argument(
        "--out",
        help="JSON output path (default <repo>/benchmarks/results/"
             "<scenario>_sweep.json, cwd-independent)",
    )
    sweep_p.add_argument(
        "--force", action="store_true",
        help="re-run every cell even if present in the output JSON",
    )
    sweep_p.add_argument(
        "--shard", metavar="I/N",
        help="run only this machine's 1/N of the grid (1-based; output "
             "goes to <out>.shard-I-of-N.json; merge with "
             "analysis.results.merge_shards)",
    )

    campaign_p = sub.add_parser(
        "campaign",
        help="run a manifest-driven sweep campaign with retries, "
             "timeouts, and crash-safe resume",
    )
    campaign_p.add_argument(
        "manifest", help="campaign manifest JSON (see repro.campaign.manifest)"
    )
    campaign_p.add_argument(
        "--workers", type=int,
        help="worker process count (default: the manifest's)",
    )
    campaign_p.add_argument(
        "--out", help="merged output path (default: the manifest's)"
    )
    campaign_p.add_argument(
        "--force", action="store_true",
        help="ignore cached/journaled cells and re-run everything",
    )
    campaign_p.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )

    perf_p = sub.add_parser(
        "perf", help="run the tracked perf macro-benchmarks"
    )
    perf_p.add_argument(
        "--cases", help="comma-separated case names (default: all)"
    )
    perf_p.add_argument(
        "--tiny", action="store_true",
        help="reduced CI-smoke grid instead of the full macro grid",
    )
    perf_p.add_argument(
        "--repeats", type=int, default=1,
        help="timing repeats per case (best run is reported)",
    )
    perf_p.add_argument(
        "--out", default="BENCH_perf.json",
        help="output document path (default BENCH_perf.json)",
    )
    perf_p.add_argument(
        "--compare", metavar="PATH",
        help="previous BENCH_perf.json to compute per-case speedups against",
    )
    perf_p.add_argument(
        "--no-write", action="store_true",
        help="print the table without writing the document",
    )
    perf_p.add_argument(
        "--history", metavar="PATH", nargs="?",
        const="benchmarks/results/perf_history.json",
        help="append a compact snapshot to the tracked history file "
             "(default path benchmarks/results/perf_history.json)",
    )
    perf_p.add_argument(
        "--history-label",
        help="label for the --history snapshot (default: generation date)",
    )
    perf_p.add_argument(
        "--warn-regression", action="store_true",
        help="print WARNING lines for cases >10%% below their --compare "
             "reference (informational; exit status is unaffected)",
    )
    perf_p.add_argument(
        "--engines", action="store_true",
        help="report which engine variants are live (compiled core "
             "loaded or not, and what best resolves to), then exit",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            cmd_list(args)
        elif args.command == "run":
            cmd_run(args)
        elif args.command == "sweep":
            cmd_sweep(args)
        elif args.command == "campaign":
            return cmd_campaign(args)
        elif args.command == "perf":
            return cmd_perf(args)
        elif args.command == "lint":
            from repro.lint.cli import cmd_lint

            return cmd_lint(args)
        else:  # fig and its figN aliases
            cmd_fig(args)
        sys.stdout.flush()  # a closed reader fails here, not at exit
    except UnknownNameError as exc:
        # A misspelt scenario, algorithm, topology, routing policy, figure
        # or lint rule is a usage error on any subcommand: the one-line catalog,
        # no traceback.  Never bare KeyError — that would mask real bugs.
        raise SystemExit(exc.args[0])
    except BrokenPipeError:
        # stdout's reader left early (`repro list | head`): not an error
        # of the command.  Point stdout at devnull so the interpreter's
        # exit flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
