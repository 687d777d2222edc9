"""Command-line interface: ``repro`` / ``flexicore`` (or
``python -m repro.cli``).

Subcommands
-----------
asm          assemble a FlexiCore assembly file and print the listing
dis          disassemble a binary program image
run          assemble + simulate a program with optional inputs
kernels      run the Table 6 suite on a target and print statistics
yield        run the wafer-yield Monte Carlo (Table 5)
dse          run the Section 6 design-space exploration (Figures 11-13)
experiments  print any paper table/figure ('all' for everything)
report       write EXPERIMENTS.md
engine       experiment-engine cache statistics / maintenance / gc
obs          observability: summary / export / tail of the last run
conform      randomized differential testing of the redundant paths
serve        run the fab-as-a-service HTTP job API (docs/SERVICE.md)
client       talk to a running service: submit / status / watch / ...

The heavy experiment commands (``yield``, ``dse``, ``pareto``,
``experiments``, ``report``) accept ``--jobs N`` to fan the work over N
worker processes and ``--no-cache`` to bypass the on-disk result cache;
results are bit-identical at any worker count.  The same commands take
``--profile`` (span tree + metrics summary on stderr), ``--trace FILE``
(Chrome ``trace_event`` JSON), ``--log-level``/``--quiet``; the
collected run persists to the state directory for ``repro obs``.

``yield --fault-check N`` additionally grounds the yield model with an
N-fault stuck-at injection campaign per core, and ``yield --gate-level``
recomputes the Table 5 yields by actually simulating every fabricated
die at the gate level.  The gate-level simulator is picked from the
lane count, not by a flag (see docs/GATESIM.md).
"""

import argparse
import os
import sys

import numpy as np

from repro.params import CONFORMANCE, DSE_SEARCH, SEED, Field, ValidationError


class _FieldFlag(argparse.Action):
    """A flag declared by a :class:`~repro.params.Field`: the field reads
    and checks its value, and a bad one exits 2 with one line."""

    def __init__(self, option_strings, dest, field, **kwargs):
        kwargs.setdefault("default", field.default)
        shown = field.default
        if isinstance(shown, list):  # a list flag is a comma list
            shown = ",".join(map(str, shown)) or None
        kwargs.setdefault("help", field.doc + (
            "" if shown is None else f" (default {shown})"))
        super().__init__(option_strings, dest, **kwargs)
        self.field = field

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            setattr(namespace, self.dest, self.field.parse(self.dest, text))
        except ValidationError as exc:
            parser.exit(2, f"{parser.prog}: error: argument "
                           f"{option_string}: {exc}\n")


def _flag(parser, field, *flags, **kwargs):
    parser.add_argument(*flags, action=_FieldFlag, field=field, **kwargs)


def _study_flags(parser, schema):
    """One ``--name`` flag per parameter of a study's schema."""
    for name, field in schema.items():
        _flag(parser, field, f"--{name}")


_WORKERS = Field(int, default=1, minimum=1,
                 doc="worker processes for experiment jobs; 1 = serial")


def _add_isa_argument(parser, default="flexicore4"):
    parser.add_argument(
        "--isa", default=default,
        help="target ISA (flexicore4, flexicore8, flexicore4plus, "
             "extacc, extacc[...features...], loadstore)",
    )


def _add_engine_arguments(parser):
    group = parser.add_argument_group("execution engine")
    _flag(group, _WORKERS, "--jobs", metavar="N")
    group.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk result cache (.repro-cache or "
             "$REPRO_CACHE_DIR)",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (overrides the default)",
    )
    group.add_argument(
        "--engine-verbose", action="store_true",
        help="print per-job engine progress to stderr",
    )


def _configure_engine(args):
    """Install the process-wide default engine from CLI flags."""
    from repro import engine
    from repro.engine import signals

    # First Ctrl-C / SIGTERM cancels in-flight engine runs and flushes
    # observability; a second one falls through to the default handler.
    signals.install()
    hooks = [engine.progress_printer()] if getattr(
        args, "engine_verbose", False
    ) else None
    cache = None if args.no_cache else (args.cache_dir or True)
    return engine.configure(jobs=args.jobs, cache=cache, hooks=hooks)


def _add_obs_arguments(parser):
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--profile", action="store_true",
        help="collect spans + metrics; print the span tree and a "
             "metrics summary to stderr when done",
    )
    group.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace_event JSON of the run to FILE "
             "(implies collection; open in about://tracing)",
    )
    group.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="structured-log threshold (default: warning)",
    )
    group.add_argument(
        "--quiet", action="store_true",
        help="suppress log chatter (equivalent to --log-level error)",
    )


def _configure_obs(args):
    """Turn on the observability layer as the CLI flags ask."""
    from repro import obs

    collect = bool(getattr(args, "profile", False)
                   or getattr(args, "trace", None))
    level = getattr(args, "log_level", None)
    if getattr(args, "quiet", False):
        level = "error"
    elif level is None and getattr(args, "engine_verbose", False):
        level = "debug"
    elif level is None and collect:
        level = "info"
    obs.configure(
        metrics=collect or None,
        trace=collect or None,
        log_level=level,
        persist_log=True if level not in (None, "warning") else None,
    )


def _finish_obs(args):
    """Render/persist whatever the run collected, per the CLI flags."""
    from repro import obs

    collect = bool(getattr(args, "profile", False)
                   or getattr(args, "trace", None))
    if not collect:
        return
    obs.persist_snapshot()
    if getattr(args, "trace", None):
        with open(args.trace, "w") as handle:
            handle.write(obs.export_text(
                "chrome", snapshot=obs.registry().snapshot(),
                spans=obs.collected_spans(),
            ))
        print(f"wrote {args.trace}", file=sys.stderr)
    if getattr(args, "profile", False):
        print(obs.render_tree(obs.collected_spans()), file=sys.stderr)
        print(file=sys.stderr)
        print(obs.summary(), file=sys.stderr)


def _target(isa_name):
    from repro.kernels.kernel import Target

    return Target.named(isa_name)


def cmd_asm(args):
    target = _target(args.isa)
    with open(args.source) as handle:
        source = handle.read()
    program = target.assemble(source, source_name=args.source)
    print(program.text())
    print(f"; {program.static_instructions} instructions, "
          f"{program.size_bytes} bytes, "
          f"{len(program.pages)} page(s)")
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(program.image())
        print(f"; image written to {args.output}")
    return 0


def cmd_dis(args):
    from repro.asm import disassemble, format_listing
    from repro.isa import get_isa

    isa = get_isa(args.isa)
    with open(args.image, "rb") as handle:
        image = handle.read()
    print(format_listing(disassemble(image, isa)))
    return 0


def cmd_run(args):
    from repro.sim import run_program

    target = _target(args.isa)
    with open(args.source) as handle:
        program = target.assemble(handle.read(), source_name=args.source)
    inputs = None
    if args.inputs:
        inputs = [int(token, 0) for token in args.inputs.split(",")]
    result, sink = run_program(
        program, inputs=inputs, max_cycles=args.max_cycles
    )
    print(f"executed {result.instructions} instructions "
          f"({result.reason})")
    print("outputs:", " ".join(f"{v:#x}" for v in sink.values))
    return 0


def cmd_kernels(args):
    from repro.kernels.suite import SUITE

    target = _target(args.isa)
    rng = np.random.default_rng(args.seed)
    print(f"Table 6 suite on {target.name}:")
    print(f"{'kernel':<16} {'static':>7} {'bytes':>6} {'pages':>6} "
          f"{'dynamic':>8} {'checked':>8}")
    for kernel in SUITE:
        inputs = kernel.generate_inputs(rng, args.transactions)
        result = kernel.check(target, inputs)
        binary = kernel.binary(target)
        print(f"{kernel.name:<16} {binary.static_instructions:7d} "
              f"{binary.size_bytes:6d} {binary.pages:6d} "
              f"{result.stats.instructions:8d} {'OK':>8}")
    return 0


def cmd_yield(args):
    from repro.experiments.tables import format_table5

    engine = _configure_engine(args)
    print(format_table5(wafers=args.wafers, seed=args.seed))
    if args.fault_check:
        from repro.fab.yield_model import run_fault_coverage

        coverage = run_fault_coverage(seed=args.seed,
                                      faults=args.fault_check)
        print()
        print(f"fault coverage ({args.fault_check} stuck-at faults/core):")
        for core, study in coverage.items():
            print(f"  {core:<12} {study['detected']}/{study['injected']}"
                  f" detected ({100 * study['coverage']:.0f}%)")
    if args.gate_level:
        from repro.fab.process import process_for
        from repro.fab.yield_model import run_gate_yield_study

        print()
        print(f"gate-level yield ({args.wafers} wafers/core):")
        for core in ("flexicore4", "flexicore8"):
            study = run_gate_yield_study(
                process_for(core), seed=args.seed, core=core,
                wafers=args.wafers, engine=engine,
            )
            for voltage, bucket in sorted(study["summary"].items()):
                print(f"  {core:<12} {voltage:g} V  "
                      f"full {100 * bucket['full']:5.1f}%  "
                      f"inclusion {100 * bucket['inclusion']:5.1f}%  "
                      f"I {bucket['mean_current_ma']:.2f} mA "
                      f"(rsd {bucket['rsd']:.3f})")
    if args.engine_verbose:
        print(engine.metrics.summary(), file=sys.stderr)
    return 0


def cmd_dse(args):
    from repro.experiments.figures import (
        format_figure11,
        format_figure12,
        format_figure13,
    )

    engine = _configure_engine(args)
    print(format_figure12())
    print()
    print(format_figure13())
    print()
    print(format_figure11())
    if args.engine_verbose:
        print(engine.metrics.summary(), file=sys.stderr)
    return 0


def cmd_dse_search(args):
    from repro.dse.search import run_dse_search

    engine = _configure_engine(args)
    result, frontier, trail = run_dse_search(
        {name: getattr(args, name) for name in DSE_SEARCH}, engine)
    config = result.config
    print(f"Adaptive DSE search (budget {config.budget}, "
          f"seed {config.seed}, objectives "
          f"{'/'.join(config.objectives)})")
    print(frontier)
    if args.trail:
        with open(args.trail, "w") as handle:
            handle.write(trail)
        print(f"trail: {args.trail} ({len(result.trail)} evaluations)",
              file=sys.stderr)
    if args.engine_verbose:
        print(engine.metrics.summary(), file=sys.stderr)
    return 0


def cmd_floorplan(args):
    from repro.netlist.cores import CORE_BUILDERS, core_netlist
    from repro.netlist.floorplan import compare, render

    if args.core == "compare":
        print(compare([core_netlist(name) for name in CORE_BUILDERS]))
        return 0
    if args.core not in CORE_BUILDERS:
        print(f"unknown core '{args.core}'; choose from "
              f"{sorted(CORE_BUILDERS)} or 'compare'", file=sys.stderr)
        return 2
    print(render(core_netlist(args.core)))
    return 0


def cmd_pareto(args):
    from repro.dse.explorer import explore, format_frontier

    _configure_engine(args)
    metrics = tuple(args.metrics.split(","))
    bus = 8 if args.bus else None
    frontier, points = explore(metrics=metrics, bus_bits=bus)
    title = "Pareto frontier" + (" (8-bit program bus)" if args.bus
                                 else "")
    print(title)
    print(format_frontier(frontier, points, metrics))
    return 0


def cmd_trace(args):
    from repro.sim.trace import trace_program

    target = _target(args.isa)
    with open(args.source) as handle:
        program = target.assemble(handle.read(), source_name=args.source)
    inputs = None
    if args.inputs:
        inputs = [int(token, 0) for token in args.inputs.split(",")]
    tracer, outputs = trace_program(
        program, isa=target.isa, inputs=inputs,
        max_cycles=args.max_cycles, limit=args.limit,
    )
    print(tracer.text(count=args.limit))
    print("outputs:", " ".join(f"{v:#x}" for v in outputs))
    return 0


def cmd_isa(args):
    from repro.isa.docs import isa_reference

    from repro.isa import get_isa

    print(isa_reference(get_isa(args.name)))
    return 0


def cmd_verilog(args):
    from repro.netlist.cores import CORE_BUILDERS, core_netlist
    from repro.netlist.export import to_verilog

    if args.core not in CORE_BUILDERS:
        print(f"unknown core '{args.core}'; choose from "
              f"{sorted(CORE_BUILDERS)}", file=sys.stderr)
        return 2
    text = to_verilog(core_netlist(args.core), include_models=args.models)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_experiments(args):
    from repro.experiments.report import ALL_EXPERIMENTS

    _configure_engine(args)
    names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment '{name}'; choose from: "
                  f"{', '.join(ALL_EXPERIMENTS)} or 'all'",
                  file=sys.stderr)
            return 2
        print(ALL_EXPERIMENTS[name]())
        print()
    return 0


def cmd_report(args):
    from repro.experiments.report import generate

    _configure_engine(args)
    generate(args.output)
    print(f"wrote {args.output}")
    return 0


def _parse_size(text):
    """'500M' / '2G' / '64K' / '1048576' -> bytes."""
    text = str(text).strip()
    scale = 1
    suffixes = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    upper = text.upper()
    if upper.endswith("B"):
        upper = upper[:-1]
    if upper and upper[-1] in suffixes:
        scale = suffixes[upper[-1]]
        upper = upper[:-1]
    try:
        value = float(upper)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a size: {text!r} (use e.g. 500M, 2G, 1048576)"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be >= 0: {text!r}")
    return int(value * scale)


def cmd_engine(args):
    # Import the job-function providers so the registry is populated.
    import repro.dse.evaluate  # noqa: F401
    import repro.experiments.figures  # noqa: F401
    import repro.fab.yield_model  # noqa: F401
    from repro.engine import ResultCache, load_last_run, registered

    cache = ResultCache(args.cache_dir) if args.cache_dir \
        else ResultCache()
    if args.action == "clear":
        stats = cache.stats()
        cache.clear()
        print(f"cleared {stats['entries']} cache entries "
              f"({stats['bytes']} bytes) under {stats['root']}")
        return 0
    if args.action == "gc":
        if args.max_bytes is None:
            print("error: 'engine gc' requires --max-bytes "
                  "(e.g. --max-bytes 500M)", file=sys.stderr)
            return 2
        report = cache.gc(args.max_bytes)
        print(f"engine cache gc: {cache.root}")
        print(f"  budget   {report['max_bytes']:>12,d} bytes")
        print(f"  before   {report['before_bytes']:>12,d} bytes")
        print(f"  after    {report['after_bytes']:>12,d} bytes")
        print(f"  evicted  {report['evicted_entries']} entries "
              f"(freed {report['evicted_bytes']:,d} bytes, "
              f"least recently used first)")
        return 0

    stats = cache.stats()
    print(f"engine cache: {stats['root']}")
    if not stats["functions"]:
        print("  (empty)")
    for name, entry in stats["functions"].items():
        print(f"  {name:<24} {entry['entries']:4d} entries  "
              f"{entry['bytes']:>10,d} bytes")
    print(f"  {'total':<24} {stats['entries']:4d} entries  "
          f"{stats['cache_bytes']:>10,d} bytes on disk")
    print(f"registered job functions: "
          f"{', '.join(sorted(registered())) or '(none imported)'}")
    last = load_last_run()
    if last:
        print("last run:")
        print(f"  {last.get('workers', 1)} worker(s)")
        print(f"  jobs {last['jobs_completed']}/{last['jobs_submitted']}"
              f" completed, cache hit rate "
              f"{100 * last['cache_hit_rate']:.0f}%, "
              f"wall {last['wall_s']:.2f} s"
              f"{', degraded to serial' if last['degraded'] else ''}")
        for stage in last.get("stages", []):
            print(f"  stage {stage['stage']}: {stage['jobs']} jobs, "
                  f"{stage['cache_hits']} cached, "
                  f"{stage['computed']} computed, "
                  f"{stage['wall_s']:.2f} s")
    return 0


def cmd_obs(args):
    from repro import obs
    from repro.obs import logging as obs_logging

    root = args.state_dir  # None -> $REPRO_STATE_DIR / .repro-state
    if args.action == "summary":
        snapshot, spans = obs.load_snapshot(root=root)
        if not snapshot and not spans:
            print("no persisted observability data "
                  f"(run a command with --profile first; looked in "
                  f"{obs.state_dir(root)})")
            return 1
        if spans:
            print(obs.render_tree(spans))
            print()
        print(obs.summary(snapshot))
        return 0
    if args.action == "export":
        snapshot, spans = obs.load_snapshot(root=root)
        sys.stdout.write(obs.export_text(
            args.format, snapshot=snapshot, spans=spans
        ))
        return 0
    if args.action == "tail":
        records = obs_logging.tail_log(count=args.lines, root=root)
        if not records:
            print("no structured log records in "
                  f"{obs.state_dir(root)}")
            return 1
        print(obs_logging.render_log_records(records))
        return 0
    if args.action == "flight":
        from repro.obs import flight

        flight_action = args.flight_action or "show"
        if flight_action == "dump":
            path = flight.dump("cli", root=root)
            if path is None:
                print("flight dump failed (state dir not writable?)",
                      file=sys.stderr)
                return 1
            print(f"wrote flight dump: {path}")
            return 0
        if flight_action == "show":
            document = flight.load_dump(args.entry, root=root)
            if document is None:
                print("no flight dump found in "
                      f"{flight.flight_dir(root)}"
                      + (f" matching {args.entry!r}"
                         if args.entry else ""))
                return 1
            print(flight.render(document, limit=args.lines))
            return 0
        print(f"unknown flight action '{flight_action}' "
              "(use dump or show)", file=sys.stderr)
        return 2
    print(f"unknown obs action '{args.action}'", file=sys.stderr)
    return 2


def cmd_conform(args):
    from repro import conformance
    from repro.conformance import corpus as corpus_store
    from repro.engine import Engine

    action = args.conform_action

    if action == "corpus":
        if getattr(args, "clear", False):
            count = corpus_store.clear(args.state_dir)
            print(f"removed {count} corpus entries under "
                  f"{conformance.corpus_dir(args.state_dir)}")
            return 0
        entries = conformance.list_entries(args.state_dir)
        if not entries:
            print("conformance corpus is empty "
                  f"({conformance.corpus_dir(args.state_dir)})")
            return 0
        for entry in entries:
            case = entry["case"]
            shrink = entry.get("shrink") or {}
            print(f"{entry['id']}  {case['oracle']:<9} "
                  f"{case['target']:<14} "
                  f"shrunk {shrink.get('original_size', '?')}->"
                  f"{shrink.get('shrunk_size', '?')}  "
                  f"{entry['divergence']['field']}")
        print(f"{len(entries)} entries; replay with "
              "'repro conform replay <id>'")
        return 0

    if action == "replay":
        try:
            entry = conformance.load_entry(args.entry, args.state_dir)
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        divergence = conformance.replay_entry(entry)
        case = entry["case"]
        print(f"replayed {entry['id']} "
              f"({case['oracle']} on {case['target']})")
        if divergence is None:
            print("  no divergence -- the failure no longer reproduces")
            return 0
        print(f"  still diverges: {divergence}")
        return 1

    # action == "run": a fresh cacheless engine -- every campaign must
    # execute its cases, never replay a previous campaign's results.
    summary = conformance.run_campaign(
        args.seed, args.budget, oracle_names=args.oracles or None,
        targets=args.targets.split(",") if args.targets else None,
        engine=Engine(jobs=args.jobs, cache=None),
        shrink_budget=args.shrink_budget, state_root=args.state_dir,
    )
    print(conformance.format_campaign(summary, args.seed, args.budget))
    return 1 if summary["divergences"] else 0


def cmd_serve(args):
    import asyncio

    from repro.service import ServiceConfig, TenantRegistry, serve

    tenants = (TenantRegistry.from_file(args.tenants)
               if args.tenants else None)
    config = ServiceConfig(
        host=args.host, port=args.port, tenants=tenants,
        cache=args.cache_dir, engine_jobs=args.jobs,
        max_running=args.max_running, max_queued=args.max_queued,
        metrics=True, drain_grace_s=args.drain_grace,
    )

    def ready(server):
        print(f"repro service listening on {server.base_url} "
              f"({len(server.service.tenants)} tenant(s)); "
              f"Ctrl-C or SIGTERM drains and exits", flush=True)

    asyncio.run(serve(config, ready=ready))
    print("service drained; bye")
    return 0


def _add_service_arguments(parser, timeout):
    """Where ``client`` and ``top`` find the service."""
    parser.add_argument("--url", default=None,
                        help="service URL (default: $REPRO_SERVICE_URL "
                             "or http://127.0.0.1:8321)")
    parser.add_argument("--key", default=None,
                        help="API key (default: $REPRO_SERVICE_KEY or "
                             "the dev key)")
    _flag(parser, Field(float, default=timeout,
                        doc="request/wait timeout in seconds"), "--timeout")


def _service_command(command):
    """``command(args, client)`` against the service ``args`` names; a
    service error or a refused connection exits 1 with one line."""
    def run(args):
        from repro.service import ServiceApiError, ServiceClient

        client = ServiceClient(
            args.url or os.environ.get("REPRO_SERVICE_URL",
                                       "http://127.0.0.1:8321"),
            args.key or os.environ.get("REPRO_SERVICE_KEY",
                                       "dev-local-key"),
            timeout=args.timeout,
        )
        try:
            return command(args, client)
        except ServiceApiError as exc:
            print(f"error: {exc}", file=sys.stderr)
        except ConnectionRefusedError:
            print(f"error: no service at {client.host}:{client.port} "
                  "(start one with 'repro serve')", file=sys.stderr)
        return 1
    return run


def _parse_client_params(pairs):
    """['wafers=2', 'core=flexicore4'] -> params dict (values JSON)."""
    import json as json_module

    params = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(
                f"--param expects name=value, got {pair!r}"
            )
        try:
            params[name] = json_module.loads(value)
        except json_module.JSONDecodeError:
            params[name] = value  # bare strings need no quoting
    return params


@_service_command
def cmd_client(args, client):
    import json as json_module

    action = args.client_action
    if action == "types":
        for name, doc in client.types().items():
            print(f"{name}: {doc['description']}")
            for pname, spec in doc["params"].items():
                extra = []
                if spec.get("required"):
                    extra.append("required")
                if "default" in spec:
                    extra.append(f"default {spec['default']!r}")
                if "choices" in spec:
                    extra.append(
                        "one of " + ", ".join(
                            map(str, spec["choices"])
                        )
                    )
                print(f"  {pname} ({spec['type']}"
                      + ("; " + "; ".join(extra) if extra else "")
                      + ")")
        return 0
    if action == "submit":
        params = _parse_client_params(args.param)
        document = client.submit(
            args.type, params,
            traceparent=getattr(args, "traceparent", None),
        )
        if args.wait:
            document = client.wait(
                document["id"], timeout=args.timeout
            )
        print(json_module.dumps(document, indent=2))
        return 0 if document["status"] in ("queued", "running",
                                          "completed") else 1
    if action == "status":
        print(json_module.dumps(client.status(args.job), indent=2))
        return 0
    if action == "watch":
        final = None
        for event in client.events(args.job, since=args.since):
            print(json_module.dumps(event), flush=True)
            if event["event"] in ("completed", "failed",
                                  "cancelled"):
                final = event["event"]
        return 0 if final in (None, "completed") else 1
    if action == "cancel":
        print(json_module.dumps(client.cancel(args.job), indent=2))
        return 0
    if action == "artifact":
        data = client.artifact(args.digest)
        if args.output:
            with open(args.output, "wb") as handle:
                handle.write(data)
            print(f"wrote {len(data)} bytes to {args.output}")
        else:
            sys.stdout.write(data.decode("utf-8", "replace"))
        return 0
    if action == "jobs":
        for doc in client.jobs():
            print(f"{doc['id']}  {doc['type']:<14} "
                  f"{doc['status']:<10} "
                  f"cache_hit={str(doc['cache_hit']).lower()}")
        return 0
    if action == "trace":
        if args.chrome:
            print(json_module.dumps(
                client.trace(args.job, format="chrome"), indent=2
            ))
            return 0
        document = client.trace(args.job)
        print(f"trace {document['trace_id']} "
              f"(job {document['job']}, {document['status']}, "
              f"{document['span_count']} span(s))")
        print(document["tree"])
        return 0
    if action == "slo":
        print(json_module.dumps(client.slo(), indent=2))
        return 0
    print(f"unknown client action '{action}'", file=sys.stderr)
    return 2

@_service_command
def cmd_top(args, client):
    from repro.service.top import run_top

    count = 1 if args.once else args.count
    try:
        run_top(
            client, interval_s=args.interval, count=count,
            clear=not args.once and count != 1,
        )
    except KeyboardInterrupt:
        print()  # leave the last frame visible
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flexicore",
        description="FlexiCores (ISCA 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble a source file")
    p.add_argument("source")
    p.add_argument("-o", "--output", help="write the binary image here")
    _add_isa_argument(p)
    p.set_defaults(fn=cmd_asm)

    p = sub.add_parser("dis", help="disassemble a binary image")
    p.add_argument("image")
    _add_isa_argument(p)
    p.set_defaults(fn=cmd_dis)

    p = sub.add_parser("run", help="assemble and simulate a program")
    p.add_argument("source")
    p.add_argument("--inputs", help="comma-separated IPORT samples")
    _flag(p, Field(int, default=100_000, minimum=1,
                   doc="stop after this many cycles"), "--max-cycles")
    _add_isa_argument(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("kernels", help="run the benchmark suite")
    _flag(p, Field(int, default=10, minimum=1,
                   doc="input transactions per kernel"), "--transactions")
    _flag(p, SEED, "--seed")
    _add_isa_argument(p)
    p.set_defaults(fn=cmd_kernels)

    p = sub.add_parser("yield", help="wafer-yield Monte Carlo (Table 5)")
    _flag(p, Field(int, default=6, minimum=1,
                   doc="wafers per core in the Monte Carlo"), "--wafers")
    _flag(p, SEED, "--seed")
    _flag(p, Field(int, default=0, minimum=0,
                   doc="also inject N stuck-at faults per core and report "
                       "how many the probe vectors detect"),
          "--fault-check", metavar="N")
    p.add_argument("--gate-level", action="store_true",
                   help="recompute Table 5 by gate-level simulation of "
                        "every fabricated die (one cross-check lane "
                        "per die)")
    _add_engine_arguments(p)
    _add_obs_arguments(p)
    p.set_defaults(fn=cmd_yield)

    p = sub.add_parser("dse", help="design-space exploration summary")
    _add_engine_arguments(p)
    _add_obs_arguments(p)
    p.set_defaults(fn=cmd_dse)
    dsub = p.add_subparsers(dest="dse_cmd")
    d = dsub.add_parser(
        "search",
        help="adaptive multi-objective search over the parametric space",
    )
    _study_flags(d, DSE_SEARCH)
    d.add_argument(
        "--trail", default=None, metavar="PATH",
        help="write the per-evaluation JSONL trail here",
    )
    _add_engine_arguments(d)
    _add_obs_arguments(d)
    d.set_defaults(fn=cmd_dse_search)

    p = sub.add_parser("isa", help="print an ISA reference table")
    p.add_argument("name", help="e.g. flexicore4, extacc, loadstore")
    p.set_defaults(fn=cmd_isa)

    p = sub.add_parser("verilog",
                       help="export a core as structural Verilog")
    p.add_argument("core", help="flexicore4, flexicore8 or flexicore4plus")
    p.add_argument("-o", "--output")
    p.add_argument("--models", action="store_true",
                   help="prepend behavioral cell models")
    p.set_defaults(fn=cmd_verilog)

    p = sub.add_parser("floorplan",
                       help="ASCII module floorplan of a core (Fig. 4)")
    p.add_argument("core",
                   help="flexicore4, flexicore8, flexicore4plus, "
                        "or 'compare'")
    p.set_defaults(fn=cmd_floorplan)

    p = sub.add_parser("pareto", help="Pareto frontier over the designs")
    p.add_argument("--metrics", default="area,energy",
                   help="comma list from: area, energy, latency, code")
    p.add_argument("--bus", action="store_true",
                   help="restrict the program bus to 8 bits")
    _add_engine_arguments(p)
    _add_obs_arguments(p)
    p.set_defaults(fn=cmd_pareto)

    p = sub.add_parser("trace", help="trace a program's execution")
    p.add_argument("source")
    p.add_argument("--inputs", help="comma-separated IPORT samples")
    _flag(p, Field(int, default=200, minimum=1,
                   doc="stop after this many cycles"), "--max-cycles")
    _flag(p, Field(int, default=100, minimum=1,
                   doc="instructions to trace"), "--limit")
    _add_isa_argument(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("experiments", help="print a paper table/figure")
    p.add_argument("name", help="e.g. table5, figure8, or 'all'")
    _add_engine_arguments(p)
    _add_obs_arguments(p)
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser("report", help="write EXPERIMENTS.md")
    p.add_argument("-o", "--output", default="EXPERIMENTS.md")
    _add_engine_arguments(p)
    _add_obs_arguments(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "engine", help="experiment-engine cache stats / maintenance"
    )
    p.add_argument("action", choices=("stats", "clear", "gc"),
                   help="'stats' shows cache + last-run metrics; "
                        "'clear' deletes the cache; 'gc' evicts "
                        "least-recently-used entries to --max-bytes")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: .repro-cache or "
                        "$REPRO_CACHE_DIR)")
    p.add_argument("--max-bytes", type=_parse_size, default=None,
                   metavar="SIZE",
                   help="gc target size on disk (accepts K/M/G "
                        "suffixes, e.g. 500M)")
    p.set_defaults(fn=cmd_engine)

    p = sub.add_parser(
        "obs",
        help="observability: summary / export / tail / flight recorder",
    )
    p.add_argument("action",
                   choices=("summary", "export", "tail", "flight"),
                   help="'summary' prints the span tree + metrics of "
                        "the last profiled run; 'export' emits it in a "
                        "machine format; 'tail' shows recent log "
                        "records; 'flight' dumps/shows the always-on "
                        "flight recorder ring")
    p.add_argument("flight_action", nargs="?", default=None,
                   choices=("dump", "show"),
                   help="with 'flight': 'dump' writes the current ring "
                        "to <state>/flight/, 'show' renders the latest "
                        "(or a named) dump")
    p.add_argument("entry", nargs="?", default=None,
                   help="with 'flight show': a dump filename or path "
                        "(default: the latest)")
    p.add_argument("--format", default="prometheus",
                   choices=("prometheus", "jsonl", "chrome"),
                   help="export format (default: prometheus)")
    _flag(p, Field(int, default=20, minimum=1,
                   doc="log records to show with 'tail', or flight "
                       "records with 'flight show'"), "-n", "--lines")
    p.add_argument("--state-dir", default=None,
                   help="state directory (default: .repro-state or "
                        "$REPRO_STATE_DIR)")
    p.set_defaults(fn=cmd_obs)

    p = sub.add_parser(
        "conform",
        help="randomized differential testing of the redundant paths",
    )
    csub = p.add_subparsers(dest="conform_action", required=True)

    c = csub.add_parser(
        "run", help="run a conformance campaign across the oracles"
    )
    _study_flags(c, CONFORMANCE)
    c.add_argument("--targets", default=None,
                   help="comma list of targets (default: flexicore4, "
                        "flexicore8, flexicore4plus where applicable)")
    _flag(c, Field(int, default=256, minimum=1,
                   doc="oracle re-executions allowed per shrink"),
          "--shrink-budget")
    _flag(c, _WORKERS, "--jobs", metavar="N")
    c.add_argument("--state-dir", default=None,
                   help="state directory for the failure corpus "
                        "(default: .repro-state or $REPRO_STATE_DIR)")
    _add_obs_arguments(c)
    c.set_defaults(fn=cmd_conform)

    c = csub.add_parser(
        "replay", help="re-execute a persisted failing case"
    )
    c.add_argument("entry",
                   help="corpus entry: a path, an id, or a filename "
                        "fragment")
    c.add_argument("--state-dir", default=None)
    c.set_defaults(fn=cmd_conform)

    c = csub.add_parser(
        "corpus", help="list (or clear) the failure corpus"
    )
    c.add_argument("--clear", action="store_true",
                   help="delete every persisted corpus entry")
    c.add_argument("--state-dir", default=None)
    c.set_defaults(fn=cmd_conform)

    p = sub.add_parser(
        "serve",
        help="run the fab-as-a-service HTTP job API (docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    _flag(p, Field(int, default=8321, minimum=0, maximum=65535,
                   doc="bind port; 0 = ephemeral"), "--port")
    p.add_argument("--tenants", default=None, metavar="FILE",
                   help="tenant config JSON ({'tenants': [{'name', "
                        "'key', 'rate', 'burst', 'max_active'}]}); "
                        "default: a single 'dev' tenant with key "
                        "'dev-local-key'")
    _flag(p, _WORKERS, "--jobs", metavar="N",
          help="engine worker processes per job (default 1)")
    _flag(p, Field(int, default=2, minimum=1,
                   doc="jobs running concurrently"),
          "--max-running", metavar="N")
    _flag(p, Field(int, default=8, minimum=0,
                   doc="queued jobs beyond the running set before 429 "
                       "backpressure"), "--max-queued", metavar="N")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="shared result-cache directory (default: "
                        ".repro-cache or $REPRO_CACHE_DIR)")
    _flag(p, Field(float, default=30.0,
                   doc="seconds a SIGTERM drain waits for in-flight jobs"),
          "--drain-grace", metavar="S")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "client", help="talk to a running repro service"
    )
    _add_service_arguments(p, timeout=300.0)
    ksub = p.add_subparsers(dest="client_action", required=True)

    k = ksub.add_parser("types", help="list job types and schemas")
    k.set_defaults(fn=cmd_client)

    k = ksub.add_parser("submit", help="submit a job")
    k.add_argument("type", help="job type (see 'client types')")
    k.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="job parameter; value parsed as JSON, bare "
                        "strings allowed (repeatable)")
    k.add_argument("--wait", action="store_true",
                   help="poll until the job finishes and print the "
                        "final document")
    k.add_argument("--traceparent", default=None, metavar="HEADER",
                   help="propagate a W3C traceparent (default: the "
                        "service mints one per job)")
    k.set_defaults(fn=cmd_client)

    k = ksub.add_parser("status", help="fetch one job's document")
    k.add_argument("job", help="job id")
    k.set_defaults(fn=cmd_client)

    k = ksub.add_parser("watch",
                        help="stream a job's progress events (NDJSON)")
    k.add_argument("job", help="job id")
    _flag(k, Field(int, default=0, doc="first event sequence number"),
          "--since")
    k.set_defaults(fn=cmd_client)

    k = ksub.add_parser("cancel", help="request job cancellation")
    k.add_argument("job", help="job id")
    k.set_defaults(fn=cmd_client)

    k = ksub.add_parser("artifact", help="download an artifact")
    k.add_argument("digest", help="artifact digest (from the job doc)")
    k.add_argument("-o", "--output", default=None,
                   help="write to FILE instead of stdout")
    k.set_defaults(fn=cmd_client)

    k = ksub.add_parser("jobs", help="list this tenant's jobs")
    k.set_defaults(fn=cmd_client)

    k = ksub.add_parser("trace",
                        help="fetch one job's assembled span tree")
    k.add_argument("job", help="job id")
    k.add_argument("--chrome", action="store_true",
                   help="emit Chrome trace_event JSON instead of the "
                        "tree document")
    k.set_defaults(fn=cmd_client)

    k = ksub.add_parser("slo", help="per-tenant SLO report")
    k.set_defaults(fn=cmd_client)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over /v1/stats + /v1/slo",
    )
    _add_service_arguments(p, timeout=30.0)
    _flag(p, Field(float, default=2.0, doc="seconds between frames"),
          "--interval", metavar="S")
    _flag(p, Field(int, minimum=1,
                   doc="render N frames then exit (default: forever)"),
          "--count", metavar="N")
    p.add_argument("--once", action="store_true",
                   help="render a single frame without clearing the "
                        "screen (same as --count 1)")
    p.set_defaults(fn=cmd_top)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    from repro.obs import flight as _flight

    # SIGQUIT (Ctrl-\) dumps the always-on flight recorder ring to the
    # state dir and keeps running -- post-mortem for a wedged command.
    _flight.install_sigquit()
    if hasattr(args, "profile"):
        _configure_obs(args)
    try:
        status = args.fn(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream pager/head closed our stdout; point it at devnull
        # so the interpreter's shutdown flush doesn't traceback too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        from repro.asm.errors import AsmError
        from repro.engine import EngineCancelled
        from repro.isa.errors import IsaError

        if isinstance(exc, EngineCancelled):
            print("cancelled", file=sys.stderr)
            return 130
        if isinstance(exc, (AsmError, IsaError, ValueError, KeyError,
                            FileNotFoundError, IsADirectoryError)):
            # User errors (bad name, bad file, bad value) exit 2 with
            # one line on stderr instead of a traceback.
            message = exc.args[0] if (
                isinstance(exc, KeyError) and exc.args
            ) else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
        raise
    if hasattr(args, "profile"):
        _finish_obs(args)
    return status


if __name__ == "__main__":
    sys.exit(main())
