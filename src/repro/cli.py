"""The ``frieda`` command line: run any program over a directory of files.

This is the paper's §II-C promise made concrete: *"FRIEDA does not
modify any program code nor do we provide a separate programming
model"* — point it at an input directory, give it the execution syntax
with ``$inp1..$inpN`` placeholders, pick a strategy and a grouping:

    python -m repro run ./frames --command 'compare $inp1 $inp2' \\
        --grouping pairwise_adjacent --strategy real_time --workers 4

Subcommands:

- ``run`` — execute over the threaded or TCP runtime,
- ``strategies`` — list strategies and groupings with their semantics,
- ``advise`` — ask the adaptive advisor for a strategy given workload
  features,
- ``trace`` — inspect exported trace-event JSON (``trace summarize``,
  ``trace diff``),
- ``report`` — operator report (worker utilization, latency
  percentiles, SLO breaches) from a ``--trace`` export.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.advisor import StrategyAdvisor, WorkloadFeatures
from repro.core.commands import CommandTemplate
from repro.core.strategies import StrategyKind, strategy_for
from repro.data.files import Dataset
from repro.data.partition import PartitionScheme
from repro.errors import FriedaError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frieda", description="FRIEDA data-parallel execution"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run a program over an input directory")
    run.add_argument("input_dir", help="directory whose files are the inputs")
    run.add_argument(
        "--command",
        required=True,
        help="execution syntax with $inp1..$inpN placeholders (shell)",
    )
    run.add_argument("--workers", type=int, default=4)
    run.add_argument(
        "--strategy",
        choices=[k.value for k in StrategyKind],
        default=StrategyKind.REAL_TIME.value,
    )
    run.add_argument(
        "--grouping",
        choices=[s.value for s in PartitionScheme],
        default=PartitionScheme.SINGLE.value,
    )
    run.add_argument("--chunks", type=int, default=0, help="for chunk groupings")
    run.add_argument(
        "--engine", choices=["local", "tcp"], default="local",
        help="threaded in-process workers or TCP master/worker",
    )
    run.add_argument("--pattern", default="", help="only files containing this substring")
    run.add_argument("--report", default="", help="write a JSON run report here")
    run.add_argument("--timeline", action="store_true", help="print the worker timeline")
    run.add_argument(
        "--command-timeout", type=float, default=300.0, help="per-task timeout (s)"
    )
    run.add_argument(
        "--trace",
        metavar="OUT.json",
        default="",
        help="record a Chrome/Perfetto trace-event JSON of the run "
        "(open in ui.perfetto.dev; with --engine tcp, workers ship "
        "their spans to the master over TELEMETRY frames)",
    )
    run.add_argument(
        "--metrics-out",
        metavar="OUT.json",
        default="",
        help="with --trace: also write the metrics snapshot "
        "(counters/gauges/histograms with p50/p95/p99) here",
    )

    sub.add_parser("strategies", help="list strategies and groupings")

    advise = sub.add_parser("advise", help="recommend a strategy for a workload")
    advise.add_argument(
        "--bytes-per-compute-second",
        type=float,
        required=True,
        help="input bytes moved per second of single-core compute",
    )
    advise.add_argument(
        "--task-cost-cv", type=float, default=0.0, help="per-task cost variability"
    )

    from repro.telemetry.cli import add_report_parser, add_trace_parser

    add_trace_parser(sub)
    add_report_parser(sub)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    dataset = Dataset.from_directory(
        args.input_dir,
        pattern=(lambda name: args.pattern in name) if args.pattern else None,
    )
    if len(dataset) == 0:
        print(f"no input files in {args.input_dir}", file=sys.stderr)
        return 2
    grouping_options = {"chunks": args.chunks} if args.chunks else {}
    command = CommandTemplate(template=args.command)

    if args.engine == "local":
        from repro.runtime.local import ThreadedEngine

        engine = ThreadedEngine(
            num_workers=args.workers, command_timeout=args.command_timeout
        )
    else:
        from repro.runtime.tcp import TcpEngine

        # Tracing turns heartbeats on: the beats carry the send/receive
        # pairs that clock-align worker spans (and the RTT histogram).
        engine = TcpEngine(
            num_workers=args.workers,
            command_timeout=args.command_timeout,
            heartbeat_interval=0.5 if args.trace else 0.0,
        )

    telemetry = None
    run_kwargs = {}
    if args.trace:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(record=True)
        run_kwargs["telemetry"] = telemetry
    outcome = engine.run(
        dataset,
        command=command,
        strategy=args.strategy,
        grouping=args.grouping,
        grouping_options=grouping_options,
        **run_kwargs,
    )
    if telemetry is not None:
        from repro.telemetry import write_chrome_trace, write_metrics_json

        write_chrome_trace(telemetry, args.trace)
        print(f"trace written to {args.trace} ({len(telemetry.spans)} spans)")
        if args.metrics_out:
            write_metrics_json(telemetry.metrics, args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
    print(outcome.summary_line())
    if args.timeline:
        from repro.experiments.report import timeline

        print(timeline(outcome))
    if args.report:
        from repro.experiments.report import save_report

        save_report(outcome, args.report)
        print(f"report written to {args.report}")
    return 0 if outcome.tasks_failed == 0 and outcome.tasks_lost == 0 else 1


def _cmd_strategies() -> int:
    print("strategies (§III of the paper):")
    for kind in StrategyKind:
        descriptor = strategy_for(kind)
        traits = []
        if descriptor.data_local_to_workers:
            traits.append("data pre-placed on workers")
        if descriptor.staged_before_execution:
            traits.append("staged before execution")
        if descriptor.lazy:
            traits.append("lazy pull, overlaps transfer/compute")
        if descriptor.replicate_all:
            traits.append("full dataset on every node")
        if descriptor.isolates_failures:
            traits.append("isolates failed workers")
        print(f"  {kind.value:>24s}: {'; '.join(traits)}")
    print("groupings (§II-E):")
    for scheme in PartitionScheme:
        print(f"  {scheme.value}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    features = WorkloadFeatures(
        bytes_per_compute_second=args.bytes_per_compute_second,
        task_cost_cv=args.task_cost_cv,
    )
    recommendation = StrategyAdvisor().recommend("cli-workload", features)
    print(recommendation.value)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "run":
            return _cmd_run(args)
        if args.subcommand == "strategies":
            return _cmd_strategies()
        if args.subcommand == "advise":
            return _cmd_advise(args)
        if args.subcommand == "trace":
            from repro.telemetry.cli import run_trace_command

            return run_trace_command(args)
        if args.subcommand == "report":
            from repro.telemetry.cli import run_report_command

            return run_report_command(args)
    except FriedaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
