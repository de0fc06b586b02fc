"""Experiment CLI: ``python -m repro.experiments <table1|fig6|fig7|all>``."""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.fig6 import render_fig6, run_fig6
from repro.experiments.fig7 import render_fig7, run_fig7
from repro.experiments.table1 import render_table1, run_table1
from repro.util.tables import render_table


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {text!r}")
    return value


def _emit(tables, as_csv: bool) -> None:
    for table in tables:
        if as_csv:
            print(table.to_csv())
        else:
            print(render_table(table))
        print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="frieda-experiments",
        description="Regenerate the paper's Table I, Figure 6 and Figure 7.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1", "fig6", "fig7",
            "robustness", "chaos", "cost", "elasticity", "storage", "baselines",
            "report", "all",
        ],
        help="which table/figure to regenerate (robustness/chaos/cost/"
        "elasticity/storage/baselines are ablations this reproduction "
        "adds; report writes everything to REPORT.md)",
    )
    parser.add_argument(
        "--scale",
        type=_positive_float,
        default=1.0,
        help="workload scale (1.0 = paper's full size; try 0.2 for a quick run)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of tables")
    parser.add_argument(
        "--plot", action="store_true", help="also render ASCII stacked-bar figures"
    )
    parser.add_argument(
        "--output", default="REPORT.md", help="output path for the report subcommand"
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record spans from every run into one Chrome/Perfetto "
        "trace-event JSON file (open in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics",
        metavar="OUT.json",
        default=None,
        help="write the aggregated metrics registry as flat JSON",
    )
    args = parser.parse_args(argv)

    telemetry = None
    if args.trace is not None or args.metrics is not None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(record=True)

    started = time.time()  # frieda: allow[wall-clock] -- user-facing CLI timing
    ok = True
    if args.experiment in ("table1", "all"):
        results = run_table1(args.scale, seed=args.seed, telemetry=telemetry)
        _emit([render_table1(results, args.scale)], args.csv)
        ok &= all(r.shape_holds() for r in results.values())
    if args.experiment in ("fig6", "all"):
        results = run_fig6(args.scale, seed=args.seed, telemetry=telemetry)
        _emit(render_fig6(results, args.scale), args.csv)
        if args.plot:
            from repro.experiments.plots import fig6_plot

            print(fig6_plot(results, args.scale))
            print()
        ok &= all(r.shape_holds() for r in results.values())
    if args.experiment in ("fig7", "all"):
        results = run_fig7(args.scale, seed=args.seed, telemetry=telemetry)
        _emit(render_fig7(results, args.scale), args.csv)
        if args.plot:
            from repro.experiments.plots import fig7_plot

            print(fig7_plot(results, args.scale))
            print()
        ok &= all(r.shape_holds() for r in results.values())
    if args.experiment == "robustness":
        from repro.experiments.robustness import (
            render_robustness,
            run_robustness,
            shapes_hold,
        )

        cells = run_robustness(min(args.scale, 0.25), seed=args.seed)
        _emit([render_robustness(cells, min(args.scale, 0.25))], args.csv)
        ok &= shapes_hold(cells)
    if args.experiment == "chaos":
        from repro.experiments.robustness import (
            chaos_digest,
            chaos_shapes_hold,
            render_chaos,
            run_chaos_sweep,
        )

        chaos_scale = min(args.scale, 0.1)
        chaos_cells = run_chaos_sweep(chaos_scale, seed=args.seed)
        _emit([render_chaos(chaos_cells, chaos_scale)], args.csv)
        # The digest line is the reproducibility contract: `make chaos`
        # runs the sweep twice and diffs these lines byte-for-byte.
        print(f"chaos digest: {chaos_digest(chaos_cells)}")
        ok &= chaos_shapes_hold(chaos_cells)
    if args.experiment == "cost":
        from repro.experiments import cost as cost_mod

        cost_cells = cost_mod.run_cost(min(args.scale, 0.25), seed=args.seed)
        _emit([cost_mod.render_cost(cost_cells, min(args.scale, 0.25))], args.csv)
        ok &= cost_mod.shapes_hold(cost_cells)
    if args.experiment == "elasticity":
        from repro.experiments import elasticity_exp

        el_cells = elasticity_exp.run_elasticity(min(args.scale, 0.25), seed=args.seed)
        _emit(
            [elasticity_exp.render_elasticity(el_cells, min(args.scale, 0.25))],
            args.csv,
        )
        ok &= elasticity_exp.shapes_hold(el_cells)
    if args.experiment == "storage":
        from repro.experiments import storage_exp

        st_cells = storage_exp.run_storage(min(args.scale, 0.25), seed=args.seed)
        _emit([storage_exp.render_storage(st_cells, min(args.scale, 0.25))], args.csv)
        ok &= storage_exp.shapes_hold(st_cells)
    if args.experiment == "baselines":
        from repro.experiments import baseline_exp

        bl_cells = baseline_exp.run_baselines(min(args.scale, 0.25), seed=args.seed)
        _emit(
            [baseline_exp.render_baselines(bl_cells, min(args.scale, 0.25))], args.csv
        )
        ok &= baseline_exp.shapes_hold(bl_cells)
    if args.experiment == "report":
        from repro.experiments.full_report import generate_report

        markdown, report_ok = generate_report(args.scale, seed=args.seed)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        print(f"report written to {args.output}")
        ok &= report_ok
    if telemetry is not None:
        from repro.telemetry import write_chrome_trace, write_metrics_json

        if args.trace is not None:
            write_chrome_trace(telemetry, args.trace)
            print(f"trace written to {args.trace} ({len(telemetry.spans)} spans)")
        if args.metrics is not None:
            write_metrics_json(telemetry.metrics, args.metrics)
            print(f"metrics written to {args.metrics}")
    # frieda: allow[wall-clock] -- user-facing CLI timing
    print(f"[done in {time.time() - started:.1f}s wall; shapes {'OK' if ok else 'VIOLATED'}]")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
