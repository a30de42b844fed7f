"""``repro-mcast`` — command-line front end to the reproduction.

Subcommands map one-to-one onto the experiment drivers:

* ``repro-mcast table1`` — the Table-1 topology statistics.
* ``repro-mcast figure N`` — reproduce paper figure N (1–9).
* ``repro-mcast topo NAME`` — build a topology and print its stats.
* ``repro-mcast sweep NAME`` — run an L(m) sweep and fit the exponent.
* ``repro-mcast ablation WHICH`` — run one of the DESIGN.md ablations.
* ``repro-mcast serve`` — the asyncio estimation service (repro.serve).
* ``repro-mcast lint [PATHS]`` — the repro.lint static invariant checks.
* ``repro-mcast obs ARTIFACT`` — inspect a ``--obs`` run artifact
  (Prometheus metrics document + trace span table).

Every experiment subcommand accepts ``--obs PATH`` to record such an
artifact (process-wide metrics plus a trace of the run's spans).

All stochastic commands take ``--seed`` and are fully reproducible.
``--paper`` switches the Monte-Carlo sample counts to the paper's
100×100 methodology (slow); the default is the quick configuration.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    from repro.lint.__main__ import build_parser as build_lint_parser

    parser = argparse.ArgumentParser(
        prog="repro-mcast",
        description=(
            "Reproduction of 'Scaling of Multicast Trees: Comments on the "
            "Chuang-Sirbu Scaling Law' (SIGCOMM 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, scale_default: float = 0.25) -> None:
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument(
            "--scale",
            type=float,
            default=scale_default,
            help="topology size relative to the paper (1.0 = paper scale)",
        )
        p.add_argument(
            "--paper",
            action="store_true",
            help="use the paper's 100x100 Monte-Carlo settings (slow)",
        )
        p.add_argument(
            "--no-plot",
            action="store_true",
            help="print data tables only, no ASCII plots",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help=(
                "worker processes for the Monte-Carlo sweeps; 0 = auto "
                "(one per CPU).  Workers persist across sweeps and "
                "results are bit-identical for any N"
            ),
        )
        p.add_argument(
            "--obs",
            metavar="PATH",
            default=None,
            help=(
                "record an observability artifact (metrics + trace "
                "spans) for this run to PATH; inspect it with "
                "'repro-mcast obs PATH'"
            ),
        )

    p_table1 = sub.add_parser("table1", help="reproduce Table 1")
    add_common(p_table1, scale_default=1.0)

    p_figure = sub.add_parser("figure", help="reproduce a paper figure")
    p_figure.add_argument(
        "number", type=int, choices=range(1, 10), help="figure number (1-9)"
    )
    add_common(p_figure)

    p_topo = sub.add_parser("topo", help="build a topology, print stats")
    p_topo.add_argument("name", help="topology name (see 'table1')")
    add_common(p_topo, scale_default=1.0)

    p_sweep = sub.add_parser("sweep", help="run an L(m) sweep + exponent fit")
    p_sweep.add_argument("name", help="topology name")
    p_sweep.add_argument(
        "--mode",
        choices=("distinct", "replacement"),
        default="distinct",
        help="receiver convention (L(m) vs Lhat(n))",
    )
    p_sweep.add_argument(
        "--points", type=int, default=10, help="number of swept group sizes"
    )
    p_sweep.add_argument(
        "--algorithm",
        default="spt",
        help=(
            "tree-construction discipline (repro.multicast.builders "
            "registry key: spt, steiner-tm, dst-approx, kdisjoint)"
        ),
    )
    p_sweep.add_argument(
        "--save", metavar="PATH", help="write the measurement as JSON"
    )
    add_common(p_sweep)

    p_abl = sub.add_parser("ablation", help="run a DESIGN.md ablation")
    p_abl.add_argument(
        "which",
        choices=("tiebreak", "sampling", "source", "weighted"),
        help="which ablation to run",
    )
    add_common(p_abl)

    p_study = sub.add_parser(
        "study", help="run an extension study (beyond the paper)"
    )
    p_study.add_argument(
        "which",
        choices=(
            "shared-tree",
            "popularity",
            "churn",
            "steiner",
            "algorithm-ratio",
            "kdisjoint-overhead",
        ),
        help="which study to run",
    )
    add_common(p_study)

    p_metrics = sub.add_parser(
        "metrics", help="structural-regime metrics for a topology"
    )
    p_metrics.add_argument("name", help="topology name")
    add_common(p_metrics, scale_default=1.0)

    p_all = sub.add_parser(
        "all", help="reproduce every table and figure into a directory"
    )
    p_all.add_argument(
        "--outdir", default="reproduction", help="output directory"
    )
    add_common(p_all)

    p_serve = sub.add_parser(
        "serve", help="run the asyncio estimation service (repro.serve)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8321, help="TCP port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--topologies",
        default="arpa,r100",
        help="comma-separated registry names to pre-warm tables for",
    )
    p_serve.add_argument(
        "--algorithms",
        default="spt",
        help=(
            "comma-separated tree-builder names to pre-warm tables for "
            "(spt, steiner-tm, dst-approx, kdisjoint); other registered "
            "builders stay servable via lazy table builds"
        ),
    )
    p_serve.add_argument(
        "--deadline-ms",
        type=float,
        default=5000.0,
        help="simulate deadline before degrading to table/closed form",
    )
    p_serve.add_argument(
        "--scale", type=float, default=1.0, help="topology scale (1.0 = paper)"
    )
    p_serve.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_serve.add_argument(
        "--sources", type=int, default=20, help="Monte-Carlo sources per run"
    )
    p_serve.add_argument(
        "--receiver-sets",
        type=int,
        default=20,
        help="Monte-Carlo receiver sets per source",
    )
    p_serve.add_argument(
        "--selftest",
        action="store_true",
        help=(
            "boot on an ephemeral port, issue one request per endpoint, "
            "exit nonzero on any mismatch"
        ),
    )
    p_serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON_OR_PATH",
        help=(
            "activate a fault-injection plan while the selftest probes "
            "run: inline JSON (starts with '{') or a path to a JSON "
            "file; see docs/fault-injection.md for the schema "
            "(requires --selftest)"
        ),
    )
    p_serve.add_argument(
        "--fleet-workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "run a supervised fleet of N worker processes on one port "
            "(SO_REUSEPORT, shared table store, per-worker load "
            "shedding) instead of a single in-process server; see "
            "docs/fleet.md"
        ),
    )
    p_serve.add_argument(
        "--fleet-admin-port",
        type=int,
        default=0,
        metavar="PORT",
        help=(
            "admin port for the fleet's aggregated /metrics, /healthz, "
            "and POST /v1/fleet/reload (0 = ephemeral; fleet mode only)"
        ),
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-worker load-shedding threshold: above N concurrent "
            "requests, simulate answers degrade immediately "
            "('shed': true) instead of queueing past their deadline"
        ),
    )

    p_obs = sub.add_parser(
        "obs", help="inspect an observability artifact (--obs output)"
    )
    p_obs.add_argument(
        "artifact", help="artifact path written by a run's --obs PATH"
    )
    p_obs.add_argument(
        "--metrics",
        action="store_true",
        help="print only the Prometheus metrics document",
    )
    p_obs.add_argument(
        "--trace",
        action="store_true",
        help="print only the trace span table",
    )
    p_obs.add_argument(
        "--json",
        action="store_true",
        help="dump the raw artifact JSON (pretty-printed)",
    )

    build_lint_parser(
        sub.add_parser("lint", help="run the repro.lint static invariant checks")
    )

    return parser


def _mc_config(args):
    from dataclasses import replace

    from repro.experiments.config import PAPER_MONTE_CARLO, QUICK_MONTE_CARLO

    config = PAPER_MONTE_CARLO if args.paper else QUICK_MONTE_CARLO
    workers = getattr(args, "workers", 1)
    if workers != config.num_workers:
        config = replace(config, num_workers=workers)
    return config


def _print_results(results, no_plot: bool) -> None:
    if hasattr(results, "render"):
        results = {"": results}
    for result in results.values():
        print(result.render(include_plot=not no_plot))
        print()


def _cmd_table1(args) -> int:
    from repro.experiments.figures import run_table1

    result = run_table1(scale=args.scale, rng=args.seed)
    print(result.render())
    lo, hi = result.degree_range()
    print(f"\naverage degrees span {lo:.2f} .. {hi:.2f} (paper: 2.7 .. 7.5)")
    return 0


def _quick_affinity():
    from repro.experiments.config import AffinityConfig

    return AffinityConfig(num_samples=16, burn_in_sweeps=10, thin_sweeps=1)


def _cmd_figure(args) -> int:
    from repro.experiments import figures

    number = args.number
    config = _mc_config(args)
    if number == 1:
        results = figures.run_figure1(scale=args.scale, config=config, rng=args.seed)
    elif number == 2:
        results = figures.run_figure2()
    elif number == 3:
        results = figures.run_figure3()
    elif number == 4:
        results = figures.run_figure4()
    elif number == 5:
        results = figures.run_figure5()
    elif number == 6:
        results = figures.run_figure6(scale=args.scale, config=config, rng=args.seed)
    elif number == 7:
        results = figures.run_figure7(scale=args.scale, rng=args.seed)
    elif number == 8:
        results = figures.run_figure8()
    else:
        if args.paper:
            results = figures.run_figure9(depths=(10, 12), rng=args.seed)
        else:
            results = figures.run_figure9(
                depths=(7, 9),
                config=_quick_affinity(),
                n_values=(1, 4, 16, 64, 256, 1024),
                rng=args.seed,
            )
    _print_results(results, args.no_plot)
    return 0


def _cmd_topo(args) -> int:
    from repro.graph.ops import graph_stats
    from repro.graph.reachability import average_profile, classify_growth
    from repro.topology.registry import build_topology, topology_spec

    spec = topology_spec(args.name)
    graph = build_topology(args.name, scale=args.scale, rng=args.seed)
    stats = graph_stats(graph, name=args.name, rng=args.seed)
    print(f"{args.name}: {spec.description} [{spec.kind}]")
    print(f"  nodes          : {stats.num_nodes}")
    print(f"  links          : {stats.num_edges}")
    print(f"  average degree : {stats.average_degree:.3f}")
    print(f"  degree range   : {stats.min_degree} .. {stats.max_degree}")
    print(f"  diameter       : {stats.diameter}")
    print(f"  avg path length: {stats.average_path_length:.3f}")
    profile = average_profile(graph, num_sources=20, rng=args.seed)
    print(f"  T(r) growth    : {classify_growth(profile)}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments.config import SweepConfig
    from repro.experiments.results import save_measurements
    from repro.experiments.runner import measure_sweep
    from repro.topology.registry import build_topology
    from repro.utils.tables import format_table

    graph = build_topology(args.name, scale=args.scale, rng=args.seed)
    limit = (
        graph.num_nodes - 1
        if args.mode == "distinct"
        else 4 * graph.num_nodes
    )
    sizes = SweepConfig(points=args.points).sizes(max(2, limit // 4))
    measurement = measure_sweep(
        graph,
        sizes,
        mode=args.mode,
        config=_mc_config(args),
        topology=args.name,
        rng=args.seed,
        algorithm=args.algorithm,
    )
    rows = list(
        zip(
            measurement.sizes,
            measurement.mean_tree_size,
            measurement.mean_unicast_path,
            measurement.normalized_tree_size,
            measurement.per_receiver_series,
        )
    )
    print(
        format_table(
            ["size", "L", "u", "L/u", "L/(size*u)"],
            rows,
            title=(
                f"{args.name} ({args.mode}, {graph.num_nodes} nodes"
                + (
                    f", {args.algorithm} trees)"
                    if args.algorithm != "spt"
                    else ")"
                )
            ),
        )
    )
    fit = measurement.fit_exponent()
    print(
        f"\nfitted exponent: {fit.slope:.3f} "
        f"(Chuang-Sirbu law: 0.8, r^2={fit.r_squared:.3f})"
    )
    if args.save:
        save_measurements([measurement], args.save)
        print(f"saved measurement to {args.save}")
    return 0


def _cmd_ablation(args) -> int:
    from repro.experiments import figures

    runner = {
        "tiebreak": figures.run_tiebreak_ablation,
        "sampling": figures.run_sampling_ablation,
        "source": figures.run_source_placement_ablation,
        "weighted": figures.run_weighted_links_ablation,
    }[args.which]
    if args.which in ("source", "weighted"):
        result = runner(scale=args.scale, rng=args.seed)
    else:
        result = runner(scale=args.scale, config=_mc_config(args), rng=args.seed)
    _print_results(result, args.no_plot)
    return 0


def _cmd_study(args) -> int:
    from repro.experiments import figures

    if args.which == "shared-tree":
        result = figures.run_shared_tree_study(
            scale=args.scale, config=_mc_config(args), rng=args.seed
        )
    elif args.which == "popularity":
        result = figures.run_popularity_study(scale=args.scale, rng=args.seed)
    elif args.which == "steiner":
        result = figures.run_steiner_study(scale=args.scale, rng=args.seed)
    elif args.which == "algorithm-ratio":
        result = figures.run_algorithm_ratio_study(
            scale=args.scale, config=_mc_config(args), rng=args.seed
        )
    elif args.which == "kdisjoint-overhead":
        result = figures.run_kdisjoint_overhead_study(
            scale=args.scale, rng=args.seed
        )
    else:
        depth = 10 if args.paper else 8
        result = figures.run_churn_study(depth=depth, rng=args.seed)
    _print_results(result, args.no_plot)
    return 0


def _cmd_metrics(args) -> int:
    from repro.graph.metrics import topology_metrics
    from repro.topology.registry import build_topology

    graph = build_topology(args.name, scale=args.scale, rng=args.seed)
    metrics = topology_metrics(graph, name=args.name)
    print(f"{args.name} ({graph.num_nodes} nodes, {graph.num_edges} links)")
    print(f"  clustering coefficient : {metrics.clustering:.4f}")
    print(f"  degree assortativity   : {metrics.assortativity:+.4f}")
    print(f"  max degree             : {metrics.max_degree}")
    if metrics.degree_tail_slope is not None:
        print(
            f"  degree CCDF tail       : slope {metrics.degree_tail_slope:.2f} "
            f"(r^2 {metrics.degree_tail_r2:.3f})"
        )
        print(f"  power-law regime       : {metrics.looks_power_law()}")
    else:
        print("  degree CCDF tail       : too narrow to fit")
    return 0


def _cmd_all(args) -> int:
    import os

    from repro.experiments import figures
    from repro.experiments.report import ReproductionReport

    os.makedirs(args.outdir, exist_ok=True)
    config = _mc_config(args)
    report = ReproductionReport(
        title="Chuang-Sirbu scaling-law reproduction"
    )
    report.add_parameter("topology scale", args.scale)
    report.add_parameter("seed", args.seed)
    report.add_parameter(
        "Monte Carlo",
        f"{config.num_sources} sources x {config.num_receiver_sets} "
        "receiver sets",
    )

    def write(name: str, rendered: str) -> None:
        path = os.path.join(args.outdir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {path}")

    table1 = figures.run_table1(scale=args.scale, rng=args.seed)
    write("table1", table1.render())
    report.add_text_section("table-1", table1.render())

    multi = {
        "figure1": figures.run_figure1(
            scale=args.scale, config=config, rng=args.seed
        ),
        "figure2": figures.run_figure2(),
        "figure3": figures.run_figure3(),
        "figure4": figures.run_figure4(),
        "figure5": figures.run_figure5(),
        "figure6": figures.run_figure6(
            scale=args.scale, config=config, rng=args.seed
        ),
        "figure7": figures.run_figure7(scale=args.scale, rng=args.seed),
        "figure9": figures.run_figure9(
            depths=(10, 12) if args.paper else (7, 9),
            config=None if args.paper else _quick_affinity(),
            n_values=None if args.paper else (1, 4, 16, 64, 256),
            rng=args.seed,
        ),
    }
    for name, panels in multi.items():
        write(
            name,
            "\n\n".join(
                panel.render(include_plot=not args.no_plot)
                for panel in panels.values()
            ),
        )
        for panel in panels.values():
            report.add_result(panel)
    figure8 = figures.run_figure8()
    write("figure8", figure8.render(include_plot=not args.no_plot))
    report.add_result(figure8)

    report_path = os.path.join(args.outdir, "REPORT.md")
    report.write(report_path)
    print(f"wrote {report_path}")
    print(f"\nreproduction complete under {args.outdir}/")
    return 0


def _load_fault_plan(spec: str):
    """``--fault-plan`` value → FaultPlan (inline JSON or a file path)."""
    import json

    from repro.faults import FaultPlan

    text = spec.strip()
    if not text.startswith("{"):
        with open(spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--fault-plan is not valid JSON: {exc}")
    try:
        return FaultPlan.from_dict(payload)
    except ValueError as exc:
        raise SystemExit(f"--fault-plan rejected: {exc}")


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.app import ServerApp, run_selftest
    from repro.serve.handlers import EstimationService, ServiceConfig

    names = tuple(
        name.strip().lower()
        for name in args.topologies.split(",")
        if name.strip()
    )
    algorithms = tuple(
        name.strip().lower()
        for name in args.algorithms.split(",")
        if name.strip()
    ) or ("spt",)
    config = ServiceConfig(
        topologies=names,
        algorithms=algorithms,
        scale=args.scale,
        seed=args.seed,
        num_sources=args.sources,
        num_receiver_sets=args.receiver_sets,
        deadline_seconds=args.deadline_ms / 1000.0,
        max_inflight=args.max_inflight,
    )
    plan = None
    if args.fault_plan is not None:
        if not args.selftest:
            raise SystemExit(
                "--fault-plan only applies to --selftest runs; a "
                "long-running server under a standing fault plan is not "
                "a supported configuration"
            )
        plan = _load_fault_plan(args.fault_plan)
    if args.selftest:
        return asyncio.run(run_selftest(config, plan=plan))
    if args.fleet_workers > 0:
        from repro.serve.fleet import FleetConfig, FleetSupervisor

        fleet_config = FleetConfig(
            workers=args.fleet_workers,
            host=args.host,
            port=args.port,
            admin_port=args.fleet_admin_port,
            service=config,
            seed=args.seed,
        )
        try:
            asyncio.run(FleetSupervisor(fleet_config).serve_forever())
        except KeyboardInterrupt:
            pass
        return 0
    app = ServerApp(EstimationService(config))
    try:
        asyncio.run(app.serve_forever(args.host, args.port))
    except KeyboardInterrupt:
        # Platforms without loop signal handlers skip the drain; the
        # normal path returns after serve_forever's graceful stop.
        pass
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.__main__ import run

    return run(args)


def _write_obs_artifact(path: str, command: str, collector) -> None:
    import json

    from repro import obs

    payload = {
        "version": 1,
        "command": command,
        "metrics": obs.default_registry().to_dict(),
        "trace": collector.export(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote observability artifact to {path}")


def _cmd_obs(args) -> int:
    import json

    from repro.obs import MetricsRegistry

    with open(args.artifact, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != 1:
        raise ReproError(
            f"unsupported artifact version {payload.get('version')!r}"
        )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    show_metrics = args.metrics or not args.trace
    show_trace = args.trace or not args.metrics
    if show_metrics:
        document = MetricsRegistry.from_dict(payload["metrics"]).render()
        print(f"# metrics recorded by 'repro-mcast {payload['command']}'")
        print(document, end="")
    if show_trace:
        spans = payload.get("trace", [])
        if show_metrics:
            print()
        print(f"trace: {len(spans)} spans")
        for span in spans:
            duration = span.get("duration")
            timing = f"{duration * 1e3:10.3f} ms" if duration is not None else "          --"
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(span["attrs"].items())
            )
            parent = span.get("parent_id")
            nested = "  " if parent is not None else ""
            print(f"  {timing}  {nested}{span['name']}  {attrs}".rstrip())
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "figure": _cmd_figure,
    "topo": _cmd_topo,
    "sweep": _cmd_sweep,
    "ablation": _cmd_ablation,
    "study": _cmd_study,
    "metrics": _cmd_metrics,
    "all": _cmd_all,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    record_to = getattr(args, "obs", None)
    collector = None
    if record_to:
        from repro.obs import start_tracing

        collector = start_tracing()
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collector is not None:
            from repro.obs import stop_tracing

            stop_tracing()
            _write_obs_artifact(record_to, args.command, collector)


if __name__ == "__main__":
    sys.exit(main())
