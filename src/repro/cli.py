"""Command-line interface.

Four subcommands mirroring the paper's workflow (installed as the ``repro``
console script; ``python -m repro`` works identically)::

    repro info scenario.sql          # parse & describe a scenario
    repro run scenario.sql \\
        --set purchase1=8 --set purchase2=24 --set feature=12
    repro optimize scenario.sql --worlds 60 [--no-reuse] [--workers 4]
    repro batch scenario.sql --workers 4 --cache-dir .repro-cache

The scenario file is a Fuzzy Prophet DSL program (Figure 2 syntax). Models
are resolved from a named library (``--library demo`` is the paper's demo
model set). Passing ``-`` as the file reads the built-in Figure 2 program.

Every command runs through the :mod:`repro.api` client: the flags build one
typed :class:`~repro.api.ClientConfig` and the backend — in-process engine
vs the sharded serve pool, result cache, tiered basis store, sampling
backend — is pure configuration. ``--stats`` prints the client's unified
:class:`~repro.api.StatsReport`.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from typing import Any, NamedTuple, Sequence, get_args, get_type_hints

from repro.api import ClientConfig, ProphetClient
from repro.core.online import graph_series
from repro.errors import ReproError
from repro.models import FIGURE2_DSL
from repro.serve.worker import LIBRARY_BUILDERS
from repro.viz import mapping_grid, render_chart, render_grid

#: Named model libraries available to the CLI (shared with serve workers).
LIBRARIES = LIBRARY_BUILDERS


class ConfigFlag(NamedTuple):
    """One CLI flag naming one :class:`ClientConfig` section field.

    The flag contributes its spelling and help text only: type, default and
    ``choices`` are read off the section field, so the CLI cannot drift
    from the dataclass. ``extra`` passes ``metavar``/``dest`` through.
    """

    flag: str
    section: str
    field: str
    help: str
    extra: dict[str, str] = {}

    @property
    def dest(self) -> str:
        return self.extra.get("dest", self.flag.lstrip("-").replace("-", "_"))

    def spec(self) -> tuple[Any, Any, Any]:
        """``(type, default, choices)`` of the section field behind the flag."""
        section_type = get_type_hints(ClientConfig)[self.section]
        declared = {f.name: f for f in fields(section_type)}[self.field]
        annotation = get_type_hints(section_type)[self.field]
        # Optional[T] -> T: the flag parses the non-None alternative.
        kind = next(
            (arg for arg in get_args(annotation) if arg is not type(None)),
            annotation,
        )
        return kind, declared.default, declared.metadata.get("choices")

    def add_to(self, sub: argparse.ArgumentParser) -> None:
        kind, default, choices = self.spec()
        parse = (
            {"action": "store_true"}
            if kind is bool
            else {"type": kind, "choices": choices}
        )
        sub.add_argument(
            self.flag, default=default, help=self.help, **parse, **self.extra
        )


#: Config-bearing flags every scenario subcommand takes.
COMMON_FLAGS: tuple[ConfigFlag, ...] = (
    ConfigFlag("--worlds", "sampling", "n_worlds", "Monte Carlo worlds per point"),
    ConfigFlag("--seed", "sampling", "base_seed", "base seed for world derivation"),
    ConfigFlag(
        "--basis-cap", "store", "basis_cap",
        "bound the in-memory basis store to this many bases; "
        "least-recently-used bases are evicted (to --basis-dir when set)",
    ),
    ConfigFlag(
        "--basis-dir", "store", "basis_dir",
        "spill evicted bases to npz files here and fault them back "
        "on demand; omit to drop evicted bases (they re-sample fresh)",
    ),
    ConfigFlag(
        "--sampling-backend", "sampling", "backend",
        "fresh-sampling backend: 'batched' lands a whole world "
        "slice per generated statement (default); 'loop' executes one "
        "INSERT per world (the bit-identical reference path)",
    ),
    ConfigFlag(
        "--target-ci", "adaptive", "target_ci",
        "adaptive sampling: evaluate points in growing world-prefix "
        "rounds and stop once every series' 95%% CI half-width is at or "
        "below this target (default: fixed budget, no adaptivity)",
        {"metavar": "HALFWIDTH"},
    ),
    ConfigFlag(
        "--max-worlds", "adaptive", "max_worlds",
        "adaptive sampling: cap the per-point world budget "
        "(default: --worlds)",
    ),
    ConfigFlag(
        "--trace", "obs", "trace_file",
        "record spans across every stage and write a Chrome-trace "
        "JSON file here (load it in chrome://tracing or Perfetto)",
        {"dest": "trace_file", "metavar": "FILE"},
    ),
    ConfigFlag(
        "--profile", "obs", "profile",
        "run cProfile around point evaluation and print the top "
        "functions by cumulative time",
    ),
)

#: Config-bearing flags of the subcommands that can run on the serve backend.
SERVE_FLAGS: tuple[ConfigFlag, ...] = (
    ConfigFlag(
        "--workers", "serve", "workers",
        "evaluate world shards in a pool of this many worker "
        "processes (default: sequential)",
    ),
    ConfigFlag(
        "--shards", "serve", "shards",
        "world shards per sampling request (default: one per worker)",
    ),
    ConfigFlag(
        "--cache-dir", "cache", "dir",
        "persist finished point statistics here; later runs with "
        "the same scenario/point/worlds/seed answer from disk",
    ),
    ConfigFlag(
        "--executor", "serve", "executor",
        "shard executor backend (auto: process pool when workers > 1)",
    ),
    ConfigFlag(
        "--shard-timeout", "resilience", "shard_timeout",
        "per-shard result deadline; a shard that misses it is "
        "retried and the worker pool is healed (default: wait forever)",
        {"metavar": "SECONDS"},
    ),
    ConfigFlag(
        "--shard-retries", "resilience", "shard_retries",
        "extra submission rounds a transiently-failed shard gets "
        "before inline rescue (default: 2)",
    ),
    ConfigFlag(
        "--shard-transport", "transport", "shard_transport",
        "how shard payloads reach process-pool workers: 'pickle' "
        "ships them inside the task pickle (default); 'shm' leases "
        "shared-memory segments so task pickles stay O(1) in the world "
        "count (falls back to pickle when segments are unavailable)",
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fuzzy Prophet: probabilistic what-if exploration",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "scenario",
            help="path to a Fuzzy Prophet DSL file, or '-' for the built-in "
            "Figure 2 scenario",
        )
        sub.add_argument(
            "--library",
            default="demo",
            choices=sorted(LIBRARIES),
            help="named VG-Function library backing the scenario",
        )
        for flag in COMMON_FLAGS:
            flag.add_to(sub)

    def add_stats(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--stats",
            action="store_true",
            help="print execution statistics (plan cache, vectorization, reuse)",
        )
        sub.add_argument(
            "--stats-json",
            action="store_true",
            help="print the byte-stable counter JSON (StatsReport.to_json())",
        )

    info = subparsers.add_parser("info", help="parse and describe a scenario")
    add_common(info)

    run = subparsers.add_parser("run", help="evaluate one parameter point")
    add_common(run)
    run.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="parameter assignment (repeatable); unset parameters use their "
        "first domain value",
    )
    run.add_argument("--no-chart", action="store_true", help="skip the ASCII chart")
    add_stats(run)

    def add_serve(sub: argparse.ArgumentParser) -> None:
        for flag in SERVE_FLAGS:
            flag.add_to(sub)

    optimize = subparsers.add_parser(
        "optimize", help="run the scenario's OPTIMIZE block over the full grid"
    )
    add_common(optimize)
    optimize.add_argument(
        "--no-reuse", action="store_true", help="disable fingerprint reuse (baseline)"
    )
    optimize.add_argument(
        "--grid",
        nargs=2,
        metavar=("XPARAM", "YPARAM"),
        help="render the Figure-4 exploration grid over two parameters",
    )
    add_stats(optimize)
    add_serve(optimize)

    batch = subparsers.add_parser(
        "batch",
        help="evaluate many points through the sharded evaluation service",
    )
    add_common(batch)
    batch.add_argument(
        "--point",
        dest="points",
        action="append",
        default=[],
        metavar="NAME=VALUE,NAME=VALUE,...",
        help="evaluate this point (repeatable); omit to sweep the full grid",
    )
    add_stats(batch)
    add_serve(batch)

    # lint takes source trees, not scenarios: no add_common/add_serve.
    lint = subparsers.add_parser(
        "lint",
        help="check the repo's executable contracts (determinism, worker "
        "purity, stable surfaces) over a source tree",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint "
        "(default: the installed repro package)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file of grandfathered violations "
        "(default: .repro-lint-baseline.json at the repo root, if present)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current violations to the baseline file and exit 0 "
        "(adopting the linter on a tree with existing debt)",
    )
    lint.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the result as JSON instead of human-readable lines",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, name, rationale) and exit",
    )
    return parser


def _load_scenario_text(path: str) -> str:
    if path == "-":
        return FIGURE2_DSL
    with open(path) as handle:
        return handle.read()


def _parse_assignment(text: str) -> tuple[str, Any]:
    if "=" not in text:
        raise ReproError(f"--set expects NAME=VALUE, got {text!r}")
    name, _, raw = text.partition("=")
    value: Any
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            value = raw
    return name.strip().lstrip("@"), value


def _client_config(args: argparse.Namespace) -> ClientConfig:
    """One typed layered config from the flags actually passed.

    A flag left at its default stays out of the mapping, so an untouched
    section equals the default section and does not by itself force the
    serve backend (``wants_service()``) or turn adaptive sampling on.
    """
    defaults = ClientConfig()
    mapping: dict[str, dict[str, Any]] = {}
    for flag in COMMON_FLAGS + SERVE_FLAGS:
        default = getattr(getattr(defaults, flag.section), flag.field)
        value = getattr(args, flag.dest, default)  # info/run take no serve flags
        if value != default:
            mapping.setdefault(flag.section, {})[flag.field] = value
    return ClientConfig.from_mapping(mapping)


def _open_client(args: argparse.Namespace) -> ProphetClient:
    text = _load_scenario_text(args.scenario)
    return ProphetClient.open(
        text,
        args.library,
        config=_client_config(args),
        name="cli_scenario",
    )


def _emit_observability(client: ProphetClient, args: argparse.Namespace) -> None:
    """Post-command observability output: --stats-json, --profile, --trace."""
    if getattr(args, "stats_json", False):
        print(client.stats().to_json())
    if getattr(args, "profile", False):
        print()
        print(client.profile_summary())
    if getattr(args, "trace_file", None):
        path = client.export_trace()
        print(f"trace written to {path} ({len(client.tracer)} spans)")


def command_info(args: argparse.Namespace) -> int:
    client = _open_client(args)
    scenario, library = client.scenario, client.library
    print(f"scenario: {scenario.name}")
    print(f"axis: @{scenario.axis} ({len(scenario.axis_values())} values)")
    print("parameters:")
    for parameter in scenario.space:
        domain = parameter.values
        rendered = (
            f"{domain[0]} .. {domain[-1]} ({len(domain)} values)"
            if len(domain) > 6
            else ", ".join(str(v) for v in domain)
        )
        marker = " (axis)" if parameter.name.lower() == scenario.axis else ""
        print(f"  @{parameter.name}: {rendered}{marker}")
    print("outputs:")
    for output in scenario.outputs:
        if hasattr(output, "vg_name"):
            print(f"  {output.alias} <- VG {output.vg_name}")
        else:
            print(f"  {output.alias} <- {output.expression.render()}")
    print(f"sweep grid: {scenario.space.grid_size(exclude=[scenario.axis])} points")
    if scenario.graph:
        series = ", ".join(f"{s.kind} {s.alias}" for s in scenario.graph.series)
        print(f"graph: OVER @{scenario.graph.axis}: {series}")
    if scenario.optimize:
        spec = scenario.optimize
        constraint = spec.constraint.render() if spec.constraint else "(none)"
        objectives = ", ".join(f"{o.direction} @{o.parameter}" for o in spec.objectives)
        print(f"optimize: WHERE {constraint} FOR {objectives}")
    print(f"VG library: {', '.join(library.names)}")
    return 0


def _run_adaptive(client: ProphetClient, args: argparse.Namespace) -> int:
    """The adaptive spelling of ``repro run``: round ladder to --target-ci."""
    point = client.scenario.sweep_space.default_point()
    for assignment in args.assignments:
        name, value = _parse_assignment(assignment)
        point[name] = value
    budget = client.config.world_budget
    print(
        f"point: {point}  (adaptive: target_ci="
        f"{client.config.adaptive.target_ci}, up to {budget} worlds)"
    )
    evaluation = client.evaluate(point)
    report = client.stats()
    if report.adaptive is not None and report.adaptive["points"]:
        outcome = report.adaptive["points"][0]
        state = "converged" if outcome["converged"] else "budget exhausted"
        print(
            f"{state}: {outcome['worlds_spent']} worlds over "
            f"{outcome['rounds']} rounds (max CI half-width "
            f"{outcome['max_ci']:.4g})"
        )
    if client.scenario.graph and not args.no_chart:
        print()
        print(
            render_chart(
                graph_series(client.scenario, evaluation.statistics),
                title=f"{client.scenario.name}",
            )
        )
    print()
    for alias in evaluation.statistics.aliases():
        series = evaluation.statistics.expectation(alias)
        print(
            f"E[{alias}]: min={series.min():.4g} max={series.max():.4g} "
            f"mean={series.mean():.4g}"
        )
    if args.stats:
        print()
        print(report.render())
    _emit_observability(client, args)
    return 0


def command_run(args: argparse.Namespace) -> int:
    client = _open_client(args)
    with client:
        if client.config.adaptive.enabled:
            return _run_adaptive(client, args)
        session = client.interactive(session_name="cli")
        for assignment in args.assignments:
            name, value = _parse_assignment(assignment)
            session.set_slider(name, value)
        print(f"point: {session.sliders}  ({client.config.sampling.n_worlds} worlds)")
        view = session.refresh()
        print(
            f"evaluated in {view.elapsed_seconds * 1000:.0f} ms "
            f"({view.component_samples} component-samples)"
        )
        if client.scenario.graph and not args.no_chart:
            print()
            print(
                render_chart(
                    session.graph_series(view), title=f"{client.scenario.name}"
                )
            )
        print()
        for alias in view.statistics.aliases():
            series = view.statistics.expectation(alias)
            print(
                f"E[{alias}]: min={series.min():.4g} max={series.max():.4g} "
                f"mean={series.mean():.4g}"
            )
        if args.stats:
            print()
            print(client.stats().render())
        _emit_observability(client, args)
        return 0


def command_optimize(args: argparse.Namespace) -> int:
    client = _open_client(args)
    with client:
        scenario = client.scenario
        optimizer = client.optimize(session_name="cli")
        total = scenario.space.grid_size(exclude=[scenario.axis])
        print(
            f"sweeping {total} points x {client.config.sampling.n_worlds} worlds "
            f"(reuse {'off' if args.no_reuse else 'on'}; "
            f"{client.backend_description()})"
        )
        result = optimizer.run(reuse=not args.no_reuse)
        print(
            f"done in {result.elapsed_seconds:.1f}s; sources {result.source_counts()}; "
            f"{result.component_samples} component-samples"
        )
        if args.stats:
            print()
            print(client.stats().render())
        _emit_observability(client, args)
        if result.best is None:
            print("no feasible point satisfies the constraint")
            return 1
        print(f"best point: {result.best.point}")
        if result.best.constraint_value is not None:
            print(f"constraint value at best: {result.best.constraint_value:.4f}")
        if args.grid:
            x_name, y_name = args.grid
            grid = mapping_grid(result.records, scenario.space, x_name, y_name)
            print()
            print(render_grid(grid, title=f"exploration grid ({x_name} x {y_name})"))
        return 0


def command_batch(args: argparse.Namespace) -> int:
    client = _open_client(args)
    with client:
        points = None
        if args.points:
            points = [
                dict(
                    _parse_assignment(part)
                    for part in text.split(",")
                    if part.strip()
                )
                for text in args.points
            ]
        sweep = client.sweep(points, session_name="cli")
        label = (
            f"{len(args.points)} points"
            if args.points
            else f"full grid ({len(sweep)} points)"
        )
        print(
            f"batch: {label} x {client.config.sampling.n_worlds} worlds via "
            f"{client.backend_description()}"
            + (f"; cache {args.cache_dir}" if args.cache_dir else "")
        )
        # repro-lint: disable=DET001 -- wall-clock summary line printed to
        # the terminal; results are computed before it is read.
        started = time.perf_counter()
        results = sweep.run()  # streams job by job; collected for the summary
        # repro-lint: disable=DET001 -- observability only (see above).
        elapsed = time.perf_counter() - started
        report = client.stats()
        # Summarize the evaluations that actually ran: coalesced followers
        # share their primary's result and would double-count it.
        primaries = [result for result in results if not result.deduplicated]
        failed = [result for result in primaries if not result.ok]
        cache_hits = report.service["cache_hits"] if report.service else 0
        cache_total = cache_hits + (
            report.service["cache_misses"] if report.service else 0
        )
        hit_rate = cache_hits / cache_total if cache_total else 0.0
        dedup = report.scheduler["dedup_hits"] if report.scheduler else 0
        print(
            f"done in {elapsed:.1f}s: {len(primaries)} evaluations, "
            f"{dedup} deduplicated, "
            f"{cache_hits} cache hits "
            f"({hit_rate:.0%} hit rate), "
            f"{len(failed)} failed"
        )
        scheduler = report.scheduler or {}
        if scheduler.get("worlds_budgeted", 0):
            print(
                f"adaptive: {scheduler['jobs_retired_early']} of "
                f"{len(primaries)} points retired early; "
                f"{scheduler['worlds_spent']} worlds spent of "
                f"{scheduler['worlds_budgeted']} budgeted"
            )
        # Failed points are always listed in full; successes truncate.
        succeeded = [result for result in primaries if result.ok]
        shown = succeeded[: 5 if len(primaries) > 10 else len(succeeded)]
        for result in failed + shown:
            marker = "!" if not result.ok else " "
            summary = (
                result.error
                if not result.ok
                else " ".join(
                    f"E[{alias}]={result.statistics.expectation(alias).mean():.4g}"
                    for alias in result.statistics.aliases()
                )
            )
            print(f" {marker} {result.point}: {summary}")
        if len(shown) < len(succeeded):
            print(f"   ... {len(succeeded) - len(shown)} more")
        if args.stats:
            print()
            print(report.render())
        _emit_observability(client, args)
        return 1 if failed else 0


def command_lint(args: argparse.Namespace) -> int:
    """Run the repo-contract analyzer (:mod:`repro.lint`) and apply policy.

    Exit codes: 0 clean (pragma-suppressed and baselined findings are
    clean), 1 active violations, 2 usage/config errors (argparse default).
    """
    import json as json_module
    from pathlib import Path

    from repro.lint import LintEngine, load_default_baseline, rule_catalog
    from repro.lint.engine import BASELINE_FILENAME, Baseline, _find_repo_root

    if args.list_rules:
        for rule_id, name, rationale in rule_catalog():
            print(f"{rule_id}  {name}")
            print(f"    {rationale}")
        return 0
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        import repro

        paths = [Path(repro.__file__).parent]
    for path in paths:
        if not path.exists():
            raise ReproError(f"lint target does not exist: {path}")
    baseline = None
    baseline_path = Path(args.baseline) if args.baseline else None
    if baseline_path is not None and baseline_path.exists():
        baseline = Baseline.load(baseline_path)
    elif baseline_path is None and not args.write_baseline:
        baseline = load_default_baseline(paths[0])
    engine = LintEngine(baseline=baseline)
    result = engine.run(paths)
    if args.write_baseline:
        root = _find_repo_root(paths[0].resolve()) or Path.cwd()
        target = baseline_path or (root / BASELINE_FILENAME)
        Baseline.from_violations(result.violations).save(target)
        print(
            f"wrote {len(result.violations)} grandfathered violation(s) "
            f"to {target}"
        )
        return 0
    if args.as_json:
        print(json_module.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
    return 0 if result.ok else 1


COMMANDS = {
    "info": command_info,
    "run": command_run,
    "optimize": command_optimize,
    "batch": command_batch,
    "lint": command_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
