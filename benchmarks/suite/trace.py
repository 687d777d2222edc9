"""Per-layer tracing of the program, from outside it.

The tracer wraps public functions of each layer -- methods patched on
their class, module functions rebound at every module-global alias,
because callers import names such as ``run_program`` directly -- and
records one span per call::

    (span id, probe, parent span id, thread, wall start, wall end,
     thread-CPU start, thread-CPU end, count)

Spans stay in memory in the process that made them.  A forked engine
worker starts with an empty buffer (``os.register_at_fork``) and writes
it once, when it exits (``multiprocessing.util.Finalize``), to
``$REPRO_BENCH_TRACE_DIR/spans-<pid>.json``.

A span's *self time* is its thread-CPU time minus that of its direct
children.  Children always run on the parent's thread, so they nest and
their times simply add up.  CPU time rather than wall time, so a parent
blocked on its workers is not counted as busy.  A layer's self time is
the sum over its spans; what no span covers is ``unattributed``.

Run a CLI command traced with::

    REPRO_BENCH_TRACE_DIR=DIR python -m benchmarks.suite.trace report -o X.md
"""

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

TRACE_DIR_ENV = "REPRO_BENCH_TRACE_DIR"

#: Layers, named after the program's modules, in report order.
LAYERS = ("asm", "sim", "netlist", "fab", "dse", "conformance", "engine",
          "experiments", "service")

#: The installed tracer of this process (fork hooks need to find it).
_ACTIVE = None
_FORK_HOOKED = False


# ----------------------------------------------------------------------
# Count functions: ``(buffer, args, kwargs, result) -> count`` after a
# successful call.  A probe without one counts calls.
# ----------------------------------------------------------------------

def _count_repeat(buffer, args, kwargs, result):
    """1 when this process already assembled the same (isa, source)."""
    source = args[1] if len(args) > 1 else kwargs.get("source")
    key = (getattr(args[0].isa, "name", None), source)
    with buffer.lock:
        if key in buffer.assembled:
            return 1
        buffer.assembled.add(key)
        return 0


def _count_instructions(buffer, args, kwargs, result):
    return int(result.stats.instructions)


def _count_lanes(buffer, args, kwargs, result):
    return int(args[0].lanes)


def _count_dies(buffer, args, kwargs, result):
    return len(result.dies)


def _count_hit(buffer, args, kwargs, result):
    return 1 if result[0] else 0


def _count_graph(buffer, args, kwargs, result):
    engine = args[0]
    return [len(result), engine.jobs, engine.metrics.retries, id(engine)]


def _count_nothing(buffer, args, kwargs, result):
    return 0


#: Probes counted, not timed: called per simulated instruction, where a
#: span would cost more than the work it measures.
TALLY = "tally"


def probe_table():
    """``[(span name, owner, attribute, count)]`` for every probe.

    Imports the program's modules.  Job functions registered with the
    engine get a ``<layer>.job`` span, so a worker's time inside a job
    lands in the job's layer and ``engine.worker`` keeps only the
    worker-side engine overhead.
    """
    module = importlib.import_module
    table = []

    def add(span, module_name, attribute, count=None):
        # A probe whose target is gone is skipped, not fatal: the rest
        # of the benchmark still measures the program as it now is.
        *path, attr = attribute.split(".")
        owner = module(module_name)
        for part in path:
            owner = getattr(owner, part, None)
        if owner is not None and attr in vars(owner):
            table.append((span, owner, attr, count))
        else:
            print(f"trace: no {module_name}.{attribute}; probe skipped",
                  file=sys.stderr)

    add("asm.assemble", "repro.asm.assembler", "Assembler.assemble",
        _count_repeat)
    add("sim.run_program", "repro.sim.simulator", "run_program")
    add("sim.run", "repro.sim.simulator", "Simulator.run",
        _count_instructions)
    add("sim.step", "repro.sim.simulator", "Simulator.step", TALLY)
    add("sim.predecode", "repro.sim.predecode", "predecode_image")
    for name in ("build_core", "build_flexicore4", "build_flexicore8",
                 "build_flexicore4plus"):
        add("netlist.build", "repro.netlist.cores", name)
    for name in ("build_extended_core", "build_loadstore_core"):
        add("netlist.build", "repro.netlist.dse_cores", name)
    add("netlist.levelize", "repro.netlist.levelize", "levelize")
    for name, cls in sorted(module("repro.netlist.backend").BACKENDS.items()):
        add(f"netlist.{name}.init", cls.__module__,
            f"{cls.__name__}.__init__")
        add(f"netlist.{name}.step", cls.__module__, f"{cls.__name__}.step",
            _count_lanes)
    # The interpreted backend delegates to the per-gate interpreter;
    # its lanes are already counted by the backend's own step.
    add("netlist.interpreted.init", "repro.netlist.sim",
        "GateLevelSimulator.__init__")
    add("netlist.interpreted.step", "repro.netlist.sim",
        "GateLevelSimulator.step", _count_nothing)
    add("netlist.crosscheck", "repro.netlist.verify",
        "run_cross_check_batch")
    add("fab.fabricate", "repro.fab.yield_model", "fabricate_wafer",
        _count_dies)
    add("fab.probe", "repro.fab.yield_model", "FabricatedWafer.probe")
    add("fab.probe", "repro.fab.yield_model", "gate_probe_wafer")
    add("fab.fault_sample", "repro.fab.testing", "sample_fault_sites")
    add("dse.search", "repro.dse.search", "search")
    add("dse.evaluate", "repro.dse.evaluate", "evaluate_design")
    add("conformance.case", "repro.conformance.runner", "evaluate_case")
    add("engine.run_graph", "repro.engine.scheduler", "Engine.run_graph",
        _count_graph)
    add("engine.run", "repro.engine.scheduler", "Engine.run", _count_graph)
    add("engine.cache_get", "repro.engine.cache", "ResultCache.get",
        _count_hit)
    add("engine.cache_put", "repro.engine.cache", "ResultCache.put")
    add("engine.worker", "repro.engine.executors.base", "execute_payload")
    add("experiments.generate", "repro.experiments.report", "generate")
    for module_name in ("repro.experiments.tables",
                        "repro.experiments.figures",
                        "repro.experiments.report"):
        for name, value in sorted(vars(module(module_name)).items()):
            if (name.startswith("format_")
                    and getattr(value, "__module__", None) == module_name):
                add("experiments.format", module_name, name)
    add("service.admit", "repro.service.server", "JobService.submit")
    add("service.artifacts", "repro.service.artifacts", "ArtifactStore.put")
    # Import every job provider so the registry below is complete.
    module("repro.service.jobs")
    for name, fn in sorted(module("repro.engine.registry")
                           .registered().items()):
        layer = name.split(".")[0]
        add(f"{layer}.job", fn.__module__, fn.__name__)
    return table


# ----------------------------------------------------------------------
# Per-process span buffer.
# ----------------------------------------------------------------------

class _Buffer:
    """The spans and counters of one process."""

    def __init__(self, probes):
        self.pid = os.getpid()
        self.cpu0 = time.process_time_ns()
        self.spans = []
        self.tally = [0] * probes
        self.assembled = set()
        self.ids = itertools.count(1)
        self.lock = threading.Lock()
        self._local = threading.local()

    def stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack


class Tracer:
    """Installs the probes in this process and the engine workers it
    forks; collects their spans.  Forked workers write their buffers to
    ``out_dir``."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.names = []
        self.buffer = None
        self._patches = []

    def install(self):
        global _ACTIVE, _FORK_HOOKED
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        table = probe_table()
        self.names = [span for span, _, _, _ in table]
        self.buffer = _Buffer(len(table))
        rebound = {}
        for index, (span, owner, attr, count) in enumerate(table):
            original = vars(owner)[attr]
            wrapper = (self._tally(original, index) if count is TALLY
                       else self._span(original, index, count))
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))
            if not isinstance(owner, type):
                rebound[id(original)] = (original, wrapper)
        # Callers that imported a function by name hold their own
        # module-global reference; rebind each such alias.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                entry = rebound.get(id(value))
                if entry is not None and value is entry[0]:
                    setattr(module, name, entry[1])
                    self._patches.append((module, name, value))
        _ACTIVE = self
        if not _FORK_HOOKED:
            os.register_at_fork(after_in_child=_reset_in_child)
            _FORK_HOOKED = True
        mp_util.register_after_fork(self, _arm_exit_dump)
        return self

    def uninstall(self):
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    def _span(self, fn, index, count):
        tracer = self
        clock, cpu = time.perf_counter_ns, time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer = tracer.buffer
            stack = buffer.stack()
            parent = stack[-1] if stack else 0
            span_id = next(buffer.ids)
            stack.append(span_id)
            finished = False
            wall0, cpu0 = clock(), cpu()
            try:
                result = fn(*args, **kwargs)
                finished = True
                return result
            finally:
                cpu1, wall1 = cpu(), clock()
                stack.pop()
                n = 1 if count is None else (
                    count(buffer, args, kwargs, result) if finished else 0
                )
                buffer.spans.append((
                    span_id, index, parent, threading.get_ident(),
                    wall0, wall1, cpu0, cpu1, n,
                ))

        return traced

    def _tally(self, fn, index):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            buffer = tracer.buffer
            with buffer.lock:
                buffer.tally[index] += 1
            return fn(*args, **kwargs)

        return counted

    def document(self):
        """This process's spans as a JSON-ready document."""
        buffer = self.buffer
        return {
            "pid": buffer.pid,
            "busy_cpu_ns": time.process_time_ns() - buffer.cpu0,
            "probes": self.names,
            "tally": list(buffer.tally),
            "spans": [list(span) for span in buffer.spans],
        }

    def restart(self):
        """Drop this process's spans and restart its CPU clock."""
        self.buffer = _Buffer(len(self.names))

    def dump(self):
        """Write this process's document to ``out_dir``."""
        path = Path(self.out_dir) / f"spans-{os.getpid()}.json"
        partial = path.with_suffix(".partial")
        partial.write_text(json.dumps(self.document()))
        os.replace(partial, path)


def _reset_in_child():
    tracer = _ACTIVE
    if tracer is not None:
        tracer.restart()


def _arm_exit_dump(tracer):
    # Runs in a multiprocessing child after its finalizer registry was
    # cleared, so the exit dump registered here survives.
    if tracer is _ACTIVE:
        mp_util.Finalize(None, tracer.dump, exitpriority=10)


def load_documents(out_dir):
    """Every process document written to ``out_dir``."""
    return [json.loads(path.read_text())
            for path in sorted(Path(out_dir).glob("spans-*.json"))]


# ----------------------------------------------------------------------
# Analysis.
# ----------------------------------------------------------------------

def self_times(document):
    """``{span name: self CPU seconds}`` for one process document."""
    child_cpu = defaultdict(int)
    for span in document["spans"]:
        if span[2]:
            child_cpu[span[2]] += span[7] - span[6]
    totals = defaultdict(float)
    for span in document["spans"]:
        own = span[7] - span[6] - child_cpu[span[0]]
        totals[document["probes"][span[1]]] += own / 1e9
    return totals


def layer_metrics(documents):
    """Per-layer metrics over the documents of every traced process.

    Time metrics are shares of the busy CPU time of all processes; the
    rest are counts and rates.  ``trace.overhead_frac`` and the
    ``service.*`` request shares are measured by the harness, not here.
    """
    busy = sum(doc["busy_cpu_ns"] for doc in documents) / 1e9
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    tallies = defaultdict(int)
    graphs = []
    worker_wall = 0.0
    for doc in documents:
        for name, seconds in self_times(doc).items():
            own[name] += seconds
        for name, value in zip(doc["probes"], doc["tally"]):
            tallies[name] += value
        for span in doc["spans"]:
            name = doc["probes"][span[1]]
            calls[name] += 1
            if name in ("engine.run_graph", "engine.run"):
                if span[8]:  # a graph that raised has no count
                    graphs.append((doc["pid"], span))
            else:
                counts[name] += span[8]
            if name == "engine.worker":
                worker_wall += (span[5] - span[4]) / 1e9

    def share(*names):
        return sum(own[name] for name in names) / busy if busy else 0.0

    def layer_names(layer):
        return [name for name in own if name.split(".")[0] == layer]

    steps = [name for name in own
             if name.startswith("netlist.") and name.endswith(".step")]
    step_s = sum(own[name] for name in steps)
    lane_cycles = sum(counts[name] for name in steps)
    sim_s = sum(own[name] for name in layer_names("sim"))
    capacity = sum(
        span[8][1] * (span[5] - span[4]) / 1e9
        for _, span in graphs if span[8][1] > 1
    )
    retries = {}
    for pid, span in graphs:
        key = (pid, span[8][3])
        retries[key] = max(retries.get(key, 0), span[8][2])
    hits = counts["engine.cache_get"]

    metrics = {f"{layer}.self_frac": share(*layer_names(layer))
               for layer in LAYERS}
    metrics.update({
        "unattributed_frac": 1.0 - share(*own),
        "trace.busy_cpu_s": busy,
        "asm.calls": calls["asm.assemble"],
        "asm.repeat_frac": (counts["asm.assemble"] / calls["asm.assemble"]
                            if calls["asm.assemble"] else 0.0),
        "sim.instructions": counts["sim.run"],
        "sim.instr_per_s": counts["sim.run"] / sim_s if sim_s else 0.0,
        "sim.reference_steps": tallies["sim.step"],
        "sim.predecode_frac": share("sim.predecode"),
        "sim.predecode_calls": calls["sim.predecode"],
        "netlist.build_frac": share("netlist.build", "netlist.levelize"),
        "netlist.specialize_frac": share(
            *[name for name in own
              if name.startswith("netlist.") and name.endswith(".init")]),
        "netlist.vector_frac": share("netlist.vector.step"),
        "netlist.compiled_frac": share("netlist.compiled.step"),
        "netlist.interpreted_frac": share("netlist.interpreted.step"),
        "netlist.crosscheck_frac": share("netlist.crosscheck"),
        "netlist.lane_cycles": lane_cycles,
        "netlist.lane_cycles_per_s": (lane_cycles / step_s
                                      if step_s else 0.0),
        "fab.fabricate_frac": share("fab.fabricate"),
        "fab.probe_frac": share("fab.probe"),
        "fab.fault_sample_frac": share("fab.fault_sample"),
        "fab.dies": counts["fab.fabricate"],
        "dse.score_frac": share("dse.job", "dse.evaluate"),
        "dse.loop_frac": share("dse.search"),
        "dse.evaluations": calls["dse.evaluate"],
        "conformance.cases": calls["conformance.case"],
        "engine.scheduler_frac": share("engine.run_graph", "engine.run"),
        "engine.worker_frac": share("engine.worker"),
        "engine.cache_frac": share("engine.cache_get", "engine.cache_put"),
        "engine.idle_frac": (1.0 - worker_wall / capacity
                             if capacity else 0.0),
        "engine.jobs": sum(span[8][0] for _, span in graphs),
        "engine.cache_hits": hits,
        "engine.cache_misses": calls["engine.cache_get"] - hits,
        "engine.retries": sum(retries.values()),
    })
    return metrics


def chrome_trace(documents):
    """Chrome ``trace_event`` JSON of every span (wall clock)."""
    starts = [span[4] for doc in documents for span in doc["spans"]]
    origin = min(starts) if starts else 0
    events = []
    for doc in documents:
        for span in doc["spans"]:
            events.append({
                "name": doc["probes"][span[1]], "ph": "X",
                "pid": doc["pid"], "tid": span[3],
                "ts": (span[4] - origin) / 1e3,
                "dur": (span[5] - span[4]) / 1e3,
                "args": {"cpu_ms": (span[7] - span[6]) / 1e6,
                         "count": span[8]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def main(argv=None):
    """Run ``repro.cli`` traced; spans go to ``$REPRO_BENCH_TRACE_DIR``."""
    tracer = Tracer(os.environ[TRACE_DIR_ENV]).install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
