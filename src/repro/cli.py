"""Command-line interface.

Examples::

    # list what is available
    repro-dgnn list-models
    repro-dgnn list-datasets
    repro-dgnn list-experiments

    # regenerate a paper artefact
    repro-dgnn experiment table1
    repro-dgnn experiment fig6 --scale small --output fig6.json

    # profile one model/dataset/device configuration
    repro-dgnn profile tgat --dataset wikipedia --device gpu --param num_neighbors=50

    # simulate online serving under load
    repro-dgnn serve tgat --dataset wikipedia --arrival poisson --rate 200 --slo-ms 50
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from . import __version__, domain
from .cache import available_eviction_policies
from .core import Profiler, analyze_profile, compute_breakdown
from .datasets import TemporalInteractionDataset, available_datasets, load
from .experiments import available_experiments, run_experiment
from .experiments.runner import profile_iterations
from .fuzz import INVARIANTS, fuzz as run_fuzz, load_reproducer, replay, save_reproducer
from .graph.partition import available_partitioners
from .hw import available_cluster_specs, available_machine_specs
from .models import DEFAULT_DATASETS, available_models, build_model
from .models.registry import build_on_fresh_machine, capability_table
from .obs import (
    MetricsRegistry,
    Tracer,
    attribute_request,
    diff_traces,
    export_trace,
    format_breakdown,
    format_diff,
    format_top_spans,
    pick_request,
    top_spans,
    validate_trace_file,
)
from .serve import (
    PLACEMENTS,
    available_arrivals,
    available_policies,
    available_routers,
    build_server,
    make_policy,
    make_requests,
)


def _coerce_value(raw: str) -> Any:
    """Coerce a ``--param`` value string to bool/int/float, else keep it."""
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _param_override(text: str) -> Tuple[str, Any]:
    """argparse type for ``--param``: a validated, coerced ``(key, value)``.

    Raising :class:`argparse.ArgumentTypeError` here makes argparse exit
    cleanly (usage message + ``SystemExit(2)``) on malformed overrides
    instead of surfacing a raw traceback.
    """
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(f"parameter override {text!r} must be key=value")
    return (key, _coerce_value(raw))


def _parse_param(values: Sequence[Union[str, Tuple[str, Any]]]) -> Dict[str, Any]:
    """Merge ``key=value`` overrides, coercing ints/floats/bools.

    Accepts both raw strings (programmatic use; raises :class:`ValueError`
    on malformed input) and the ``(key, value)`` pairs ``--param`` produces
    via :func:`_param_override`.  Later duplicates win.
    """
    overrides: Dict[str, Any] = {}
    for item in values:
        if isinstance(item, tuple):
            key, value = item
        else:
            try:
                key, value = _param_override(item)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(str(exc)) from None
        overrides[key] = value
    return overrides


class _Parser(argparse.ArgumentParser):
    """A refused argument prints one ``error:`` line, as a refused run does."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro-dgnn",
        description="DGNN inference bottleneck analysis (IISWC 2022 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser("list-models", help="list the profiled DGNN models")
    sub.add_parser("list-datasets", help="list the synthetic datasets")
    sub.add_parser("list-experiments", help="list the table/figure experiments")

    exp = sub.add_parser("experiment", help="run one paper experiment")
    exp.add_argument("name", choices=available_experiments())
    exp.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    exp.add_argument("--seed", type=domain.INTEGER.arg, default=0,
                     help="random seed for seeded experiments (serving, scaling, "
                          "autoscaling, cache_ablation, adaptive_fidelity, overlap_exec)")
    exp.add_argument("--output", default=None, help="write the rows as JSON to this path")
    exp.add_argument("--max-rows", type=domain.NON_NEGATIVE_INT.arg, default=None,
                     help="limit printed rows")

    prof = sub.add_parser("profile", help="profile one model configuration")
    prof.add_argument("model", choices=available_models())
    prof.add_argument("--dataset", default=None, help="dataset name (model default if omitted)")
    prof.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    prof.add_argument("--device", default="gpu", choices=("cpu", "gpu"))
    prof.add_argument("--iterations", type=domain.POSITIVE_INT.arg, default=1,
                      help="number of inference iterations to profile")
    prof.add_argument("--backend", default="numeric", choices=("numeric", "shape"),
                      help="execution backend: 'numeric' computes real values, "
                           "'shape' propagates only shapes/dtypes while charging "
                           "the identical simulated timeline (much faster)")
    prof.add_argument(
        "--overlap", action=argparse.BooleanOptionalAction, default=False,
        help="execute iterations with the stream-based sampling/compute "
             "overlap scheduler instead of the serialized baseline "
             "(requires a model implementing the overlap protocol, e.g. tgat)",
    )
    prof.add_argument(
        "--param", action="append", type=_param_override, default=[],
        metavar="KEY=VALUE",
        help="model config override, e.g. --param batch_size=256 (repeatable)",
    )
    prof.add_argument("--trace", default=None, metavar="PATH",
                      help="export the profiled timeline as Perfetto/Chrome "
                           "trace-event JSON to PATH (load it in "
                           "ui.perfetto.dev, or feed it to repro-dgnn trace)")

    srv = sub.add_parser(
        "serve",
        help="simulate online inference serving under load",
        description="Serve a stream of inference requests against one model "
                    "on the simulated machine: seeded arrival process -> "
                    "request queue -> dynamic batching under a scheduler "
                    "policy -> model iterations, with latency-percentile "
                    "telemetry at the end.",
    )
    srv.add_argument("model", choices=available_models())
    srv.add_argument("--dataset", default=None, help="dataset name (model default if omitted)")
    srv.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    srv.add_argument("--arrival", default="poisson", choices=available_arrivals(),
                     help="request arrival process")
    srv.add_argument(
        "--arrival-param", action="append", type=_param_override, default=[],
        metavar="KEY=VALUE",
        help="arrival-process override, e.g. --arrival-param "
             "flash_multiplier=8 for --arrival flash-crowd (repeatable)",
    )
    srv.add_argument("--rate", type=domain.POSITIVE.arg, default=200.0,
                     help="mean arrival rate in requests per simulated second")
    srv.add_argument("--policy", default="timeout", choices=available_policies(),
                     help="batch scheduling policy")
    srv.add_argument("--slo-ms", type=domain.POSITIVE.arg, default=50.0,
                     help="per-request latency objective in simulated ms "
                          "(stamps every request's deadline; also configures "
                          "the slo policy)")
    srv.add_argument("--duration", type=domain.POSITIVE.arg, default=1000.0,
                     help="arrival window in simulated ms (queued requests drain after)")
    srv.add_argument("--max-batch-size", type=domain.POSITIVE_INT.arg, default=8,
                     help="dynamic batching cap in requests")
    srv.add_argument("--batch-timeout-ms", type=domain.NON_NEGATIVE.arg, default=None,
                     help="max wait before a partial batch is dispatched "
                          "(timeout/slo policies only, default 4; an error "
                          "with --policy fifo, which never waits)")
    srv.add_argument("--events-per-request", type=domain.POSITIVE_INT.arg, default=1,
                     help="event-stream slice size each request carries")
    srv.add_argument("--seed", type=domain.INTEGER.arg, default=0,
                     help="seed for the arrival process (runs are reproducible)")
    srv.add_argument("--topology", default="1xA6000",
                     choices=available_machine_specs() + available_cluster_specs(),
                     help="machine or cluster topology preset to serve on; "
                          "cluster presets (e.g. 2n-2xA100-eth) place one "
                          "replica per GPU across NIC-linked nodes")
    srv.add_argument("--backend", default="numeric", choices=("numeric", "shape"),
                     help="execution backend: 'numeric' computes real values, "
                          "'shape' propagates only shapes/dtypes while charging "
                          "the identical simulated timeline (much faster)")
    srv.add_argument("--gpus", type=domain.POSITIVE_INT.arg, default=None,
                     help="number of the topology's GPUs to serve on, one "
                          "replica or shard each (default: all of them); on "
                          "cluster topologies the size of the static fleet; "
                          "not with --placement single on a machine "
                          "topology, which always runs on GPU 0")
    srv.add_argument("--placement", default="single", choices=PLACEMENTS,
                     help="scale-out placement: one model on GPU 0, one "
                          "replica per GPU behind a router, or a graph-"
                          "sharded model spanning the GPUs")
    srv.add_argument("--router", default="round-robin", choices=available_routers(),
                     help="batch router for --placement replicate and cluster "
                          "topologies")
    srv.add_argument(
        "--autoscale", action=argparse.BooleanOptionalAction, default=False,
        help="enable the elastic autoscaler (cluster topologies only): "
             "replicas spin up/down between --min-replicas and "
             "--max-replicas, paying modeled cold starts (weight transfer "
             "over the NIC, cold caches)",
    )
    srv.add_argument("--min-replicas", type=domain.POSITIVE_INT.arg, default=None,
                     help="autoscaler floor (with --autoscale; default: 1)")
    srv.add_argument("--max-replicas", type=domain.POSITIVE_INT.arg, default=None,
                     help="autoscaler ceiling (with --autoscale; default: "
                          "every GPU in the cluster)")
    srv.add_argument("--partitioner", default=None, choices=available_partitioners(),
                     help="node partitioner (with --placement shard; default: degree)")
    srv.add_argument(
        "--overlap", action=argparse.BooleanOptionalAction, default=False,
        help="serve with the stream-based sampling/compute overlap scheduler "
             "(requires a model implementing the overlap protocol, e.g. tgat)",
    )
    srv.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="front the request path with the staleness-aware serving cache "
             "(embedding/sample/memory stores charged to simulated device "
             "memory; per replica under --placement replicate, per shard "
             "under --placement shard)",
    )
    srv.add_argument("--cache-policy", default=None,
                     choices=available_eviction_policies(),
                     help="cache eviction policy (with --cache; default: lru)")
    srv.add_argument("--cache-mb", type=domain.POSITIVE.arg, default=None,
                     help="cache byte budget in MB, split across the model's "
                          "entry-kind stores (with --cache; default: 64)")
    srv.add_argument("--staleness-ms", type=domain.NON_NEGATIVE.arg, default=None,
                     help="event-time staleness bound (with --cache; default: "
                          "0, which admits no hit, so cached execution stays "
                          "byte-identical to uncached)")
    srv.add_argument(
        "--fidelity", action=argparse.BooleanOptionalAction, default=False,
        help="adaptive fidelity (requires --policy slo; every placement "
             "but shard): under deadline "
             "pressure, degrade batches instead of missing SLOs outright -- "
             "reduced sampling fan-out, then a widened cache staleness "
             "bound, then forced cache hits for already-lost deadlines -- "
             "and account the accumulated fidelity debt in the report",
    )
    srv.add_argument("--backfill", type=domain.NON_NEGATIVE_INT.arg, default=0, metavar="N",
                     help="precompute the N hottest nodes' embeddings into "
                          "the serving cache before traffic starts (requires "
                          "--cache; on cluster topologies the same charge "
                          "also lands inside autoscaling cold starts)")
    srv.add_argument(
        "--param", action="append", type=_param_override, default=[],
        metavar="KEY=VALUE",
        help="model config override, e.g. --param num_neighbors=20 (repeatable)",
    )
    srv.add_argument("--trace", default=None, metavar="PATH",
                     help="record per-request spans and a metrics registry "
                          "during the run and export a Perfetto/Chrome "
                          "trace-event JSON to PATH (request flows cross node "
                          "tracks on cluster topologies; analyse with "
                          "repro-dgnn trace)")

    tr = sub.add_parser(
        "trace",
        help="critical-path attribution of an exported trace",
        description="Analyse a trace file written by serve/profile --trace: "
                    "decompose one request's end-to-end latency into "
                    "queue/kernel/nic/copy/cache/sample/sync/wait segments "
                    "that sum exactly to its total (the service window is "
                    "swept over the serving node's timeline events, highest-"
                    "priority active category first), print the longest "
                    "spans, or diff two traces category by category.",
    )
    tr.add_argument("trace", help="trace JSON exported by serve/profile --trace")
    tr.add_argument("--request", default="p99", metavar="SELECTOR",
                    help="which request to attribute: p50/p95/p99 (closest "
                         "to that total-latency percentile), max (slowest), "
                         "or a request id")
    tr.add_argument("--top", type=domain.NON_NEGATIVE_INT.arg, default=10, metavar="K",
                    help="also print the K longest spans (0 disables)")
    tr.add_argument("--diff", default=None, metavar="OTHER",
                    help="instead of attribution, diff this trace against "
                         "OTHER (per-category busy totals and latency "
                         "percentiles)")

    fz = sub.add_parser(
        "fuzz",
        help="fuzz the simulator's cross-tier invariants",
        description="Run seeded random operator programs over random "
                    "configurations from the full cross-product (machine "
                    "topologies x cluster NIC presets x cache policy/"
                    "capacity/staleness x serving placement/router/policy x "
                    "numeric-vs-shape backend), checking every global "
                    "contract after each case.  The first violation is "
                    "greedily shrunk to a minimal seed + JSON reproducer "
                    "and written to --out; exit status 1 flags the finding.",
    )
    fz.add_argument("--seed", type=domain.INTEGER.arg, default=0,
                    help="campaign seed (case i replays as seed '<seed>:<i>')")
    fz.add_argument("--budget", type=domain.POSITIVE_INT.arg, default=100,
                    help="number of independent cases to run")
    fz.add_argument("--check", action="append", default=[], metavar="INVARIANT",
                    choices=sorted(INVARIANTS) + ["all"],
                    help="invariant to enforce (repeatable; default all): "
                         f"{', '.join(sorted(INVARIANTS))}")
    fz.add_argument("--num-ops", type=domain.POSITIVE_INT.arg, default=40,
                    help="ops per program (a serving episode rides on top "
                         "when the drawn config has one)")
    fz.add_argument("--fault-rate", type=domain.PROBABILITY.arg, default=0.0,
                    help="probability of planting a clock-rewind fault per "
                         "op slot (harness self-test; the monotone-clock "
                         "invariant must catch and shrink it)")
    fz.add_argument("--out", default="FUZZ_REPRO.json",
                    help="where to write the shrunken reproducer on failure")
    fz.add_argument("--replay", default=None, metavar="REPRO_JSON",
                    help="re-execute a reproducer file instead of fuzzing "
                         "(exit 1 if its invariant still fails)")
    fz.add_argument("--list-invariants", action="store_true",
                    help="print the available invariants and exit")
    fz.add_argument("--progress", action=argparse.BooleanOptionalAction, default=False,
                    help="print one line per case as the campaign runs")

    # Hidden maintenance subcommand (no help= -> omitted from the listing):
    # regenerates docs/CLI.md from this parser so the reference cannot drift.
    docs = sub.add_parser(
        "docs",
        description="Render the CLI reference as deterministic markdown "
                    "(the generator walks the parser directly instead of "
                    "using argparse's terminal-width-dependent help "
                    "formatter).  tests/test_docs.py regenerates it and "
                    "fails on drift.",
    )
    docs.add_argument("--output", default=None,
                      help="write the markdown here instead of stdout")
    return parser


def _doc_entry(action: argparse.Action) -> Optional[str]:
    """One markdown bullet for a parser action (None: not documented)."""
    if action.help == argparse.SUPPRESS or isinstance(action, argparse._SubParsersAction):
        return None
    if action.option_strings:
        if any(option in ("-h", "--help") for option in action.option_strings):
            return None
        name = ", ".join(f"`{option}`" for option in action.option_strings)
    else:
        name = f"`{action.metavar or action.dest}`"
    notes = []
    if inspect.ismethod(action.type) and isinstance(action.type.__self__, domain.Domain):
        notes.append(str(action.type.__self__))
    if action.choices is not None:
        notes.append("one of: " + ", ".join(f"`{choice}`" for choice in action.choices))
    default = action.default
    if (
        action.option_strings
        and default is not None
        and default is not argparse.SUPPRESS
        and default is not False
        and default != []
    ):
        notes.append(f"default: `{default}`")
    # Raw help text, not argparse's formatter: format_help() wraps to the
    # invoking terminal's width, which would make the generated reference
    # differ between environments.  ('%%' is argparse's escaped percent.)
    text = " ".join((action.help or "").replace("%%", "%").split())
    parts = [name]
    if notes:
        parts.append("(" + "; ".join(notes) + ")")
    if text:
        parts.append("— " + text)
    return "- " + " ".join(parts)


def render_cli_docs(parser: Optional[argparse.ArgumentParser] = None) -> str:
    """The full CLI reference as deterministic markdown.

    Walks the parser's subcommands and actions directly so the output is
    canonical -- byte-identical regardless of terminal width or locale --
    and therefore diffable: ``tests/test_docs.py`` regenerates it and fails
    when ``docs/CLI.md`` drifts from the argparse definitions.
    """
    if parser is None:
        parser = build_parser()
    sub_action = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    lines = [
        "# CLI reference",
        "",
        f"`{parser.prog}` — {parser.description}",
        "",
        "Generated by `repro-dgnn docs`; edit `src/repro/cli.py`, not this "
        "file (`tests/test_docs.py` fails on drift).  Global flag: "
        "`--version`.",
    ]
    for name, command in sub_action.choices.items():
        lines.append("")
        lines.append(f"## `{parser.prog} {name}`")
        summary = command.description or next(
            (
                choice_action.help
                for choice_action in sub_action._choices_actions
                if choice_action.dest == name and choice_action.help
            ),
            None,
        )
        if summary:
            lines.append("")
            lines.append(" ".join(summary.split()))
        entries = [_doc_entry(action) for action in command._actions]
        entries = [entry for entry in entries if entry is not None]
        if entries:
            lines.append("")
            lines.extend(entries)
    lines.append("")
    return "\n".join(lines)


def _cmd_docs(args: argparse.Namespace) -> int:
    text = render_cli_docs()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_list_models() -> int:
    print(capability_table(), end="")
    return 0


def _cmd_list_datasets() -> int:
    for name in available_datasets():
        print(name)
    return 0


def _cmd_list_experiments() -> int:
    for name in available_experiments():
        print(name)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.name, scale=args.scale, seed=args.seed)
    print(result.format_table(max_rows=args.max_rows))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"experiment": result.experiment, "rows": result.rows,
                       "notes": result.notes}, handle, indent=2)
        print(f"\nwrote {len(result.rows)} rows to {args.output}")
    return 0


def _print_profile_summary(profile, title: str) -> None:
    breakdown = compute_breakdown(profile)
    print(breakdown.format_table(title=title))
    print(f"GPU utilization: {profile.gpu_utilization() * 100:.2f}%   "
          f"peak GPU memory: {profile.peak_memory_mb('gpu'):.1f} MB")
    print()


def _cmd_profile(args: argparse.Namespace) -> int:
    machine, model = build_on_fresh_machine(
        args.model, use_gpu=args.device == "gpu", backend=args.backend,
        dataset_name=args.dataset, scale=args.scale, **_parse_param(args.param),
    )
    tracer = Tracer().attach(machine) if args.trace else None
    if args.overlap:
        with machine.activate():
            _profile_overlapped(args, model, Profiler(machine))
    else:
        profiles = profile_iterations(model, machine, args.iterations, label=args.model)
        for profile in profiles:
            _print_profile_summary(profile, f"{profile.label} ({args.device})")
        print(analyze_profile(profiles[-1]).format_table())
    if tracer is not None:
        export_trace(args.trace, tracer, label=f"{args.model}-profile")
        print(f"wrote trace to {args.trace}")
    return 0


def _profile_overlapped(args, model, profiler) -> None:
    """Profile ``--iterations`` batches through the overlap scheduler."""
    from .optim import OverlappedRunner

    runner = OverlappedRunner(model)
    batches = list(itertools.islice(model.iteration_batches(), args.iterations))
    if not batches:
        raise ValueError("the model yielded no batches")
    model.warm_up(batches[0])
    # Prime the prefetch stream so the capture reflects steady state, then
    # leave the trailing synchronisation to the scheduler's own stream syncs.
    runner.prefetch(batches[0])
    with profiler.capture(f"{args.model}-overlapped", synchronize=False):
        result = runner.run(batches)
    profile = profiler.last_profile
    _print_profile_summary(profile, f"{profile.label} ({args.device}, {len(batches)} iterations)")
    print("per-iteration host time (ms): "
          + "  ".join(f"{t:.3f}" for t in result.iteration_ms))
    print(f"steady-state iteration: {result.steady_state_ms():.3f} ms")
    name = runner.stream.name
    busy = profile.stream_busy_ms("cpu", name)
    occupancy = busy / max(busy, profile.elapsed_ms) if busy > 0 else 0.0
    print(f"prefetch stream '{name}': busy {busy:.3f} ms ({occupancy * 100:.1f}% of window)")


#: Serve flags that only one feature reads: ``(flag, the flag that turns it on)``.
_FEATURE_FLAGS = (
    ("--cache-policy", "--cache"),
    ("--cache-mb", "--cache"),
    ("--staleness-ms", "--cache"),
    ("--min-replicas", "--autoscale"),
    ("--max-replicas", "--autoscale"),
    ("--partitioner", "--placement shard"),
)


def _cmd_serve(args: argparse.Namespace) -> int:
    # An explicit flag whose feature is off would change nothing while
    # looking accepted, so it is refused like an inapplicable override.
    enabled = {
        "--cache": args.cache,
        "--autoscale": args.autoscale,
        "--placement shard": args.placement == "shard",
    }
    for flag, feature in _FEATURE_FLAGS:
        if getattr(args, flag[2:].replace("-", "_")) is not None and not enabled[feature]:
            raise ValueError(f"argument {flag}: only read with {feature}")
    tracer = Tracer() if args.trace else None
    if args.batch_timeout_ms is not None:
        # An explicit flag is checked verbatim, so make_policy rejects a
        # contradiction (--policy fifo never waits) instead of the
        # assembly's per-policy filter dropping it silently.
        make_policy(args.policy, batch_timeout_ms=args.batch_timeout_ms)
    overrides = _parse_param(args.param)
    dataset = load(args.dataset or DEFAULT_DATASETS[args.model], scale=args.scale)
    if not isinstance(dataset, TemporalInteractionDataset):
        raise TypeError(f"{args.model} exposes no event stream to serve")
    server = build_server(
        args.topology,
        lambda machine: build_model(
            args.model, machine, dataset=dataset, scale=args.scale, **overrides
        ),
        placement=args.placement,
        num_replicas=args.gpus,
        backend=args.backend,
        policy=args.policy,
        max_batch_size=args.max_batch_size,
        batch_timeout_ms=4.0 if args.batch_timeout_ms is None else args.batch_timeout_ms,
        slo_ms=args.slo_ms,
        router=args.router,
        partitioner="degree" if args.partitioner is None else args.partitioner,
        seed=args.seed,
        overlap=args.overlap,
        fidelity=args.fidelity,
        cache=(
            {
                "policy": "lru" if args.cache_policy is None else args.cache_policy,
                "capacity_mb": 64.0 if args.cache_mb is None else args.cache_mb,
                "staleness_ms": 0.0 if args.staleness_ms is None else args.staleness_ms,
            }
            if args.cache
            else None
        ),
        backfill=args.backfill,
        autoscale=(
            {
                "min_replicas": 1 if args.min_replicas is None else args.min_replicas,
                "max_replicas": args.max_replicas,
            }
            if args.autoscale
            else None
        ),
        tracer=tracer,
        metrics=MetricsRegistry() if args.trace else None,
    )
    requests = make_requests(
        dataset.stream,
        args.arrival,
        args.rate,
        args.duration,
        seed=args.seed,
        events_per_request=args.events_per_request,
        slo_ms=args.slo_ms,
        **_parse_param(args.arrival_param),
    )
    tier = "cluster" if server.cluster is not None else args.placement
    report = server.serve(
        requests, label=f"{args.model}-serve-{tier}", arrival_name=args.arrival
    )
    print(report.format_table())
    if tracer is not None:
        export_trace(args.trace, tracer, report=report)
        print(f"wrote trace to {args.trace}")
    if not report.offered:
        print("(the workload offered no requests; raise --rate or --duration)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    payloads = []
    for path in (args.trace, args.diff):
        if path is not None:
            try:
                payloads.append(validate_trace_file(path))
            except (OSError, ValueError) as exc:
                print(f"error: cannot load trace {path!r}: {exc}", file=sys.stderr)
                return 2
    if args.diff is not None:
        print(format_diff(diff_traces(*payloads)))
        return 0
    payload = payloads[0]
    request = pick_request(payload, args.request)
    print(format_breakdown(request, attribute_request(payload, request)))
    if args.top > 0:
        spans = top_spans(payload, args.top)
        if spans:
            print()
            print(format_top_spans(spans))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.list_invariants:
        width = max(len(name) for name in INVARIANTS)
        for name in sorted(INVARIANTS):
            print(f"{name:<{width}}  {INVARIANTS[name]}")
        return 0
    if args.replay is not None:
        try:
            reproducer = load_reproducer(args.replay)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load reproducer {args.replay!r}: {exc}",
                  file=sys.stderr)
            return 2
        checks = args.check or None
        try:
            replay(reproducer, checks=checks)
        except AssertionError as violation:
            print(f"reproducer still fails: {violation}", file=sys.stderr)
            return 1
        invariant = reproducer.get("invariant", "?")
        print(f"reproducer replays clean ({invariant} holds)")
        return 0
    on_case = None
    if args.progress:
        def on_case(case: int, config) -> None:
            print(f"  case {case}: {config.describe()}")
    report = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        checks=args.check or None,
        num_ops=args.num_ops,
        fault_rate=args.fault_rate,
        on_case=on_case,
    )
    print(report.summary())
    if report.failure is not None:
        save_reproducer(args.out, report.failure.reproducer)
        print(f"wrote reproducer to {args.out}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "list-models": lambda args: _cmd_list_models(),
    "list-datasets": lambda args: _cmd_list_datasets(),
    "list-experiments": lambda args: _cmd_list_experiments(),
    "experiment": _cmd_experiment,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "fuzz": _cmd_fuzz,
    "docs": _cmd_docs,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # a refused argument, --help or --version
        return exit_.code
    command = _COMMANDS.get(args.command)
    if command is None:
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        status = command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro-dgnn ... | head``): what is left to
        # print has nowhere to go, so the exit flush writes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (KeyError, TypeError, ValueError) as exc:  # a refused run
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
