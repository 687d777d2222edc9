"""The benchmark's workloads.

Each workload owns one job a user runs, sized so that a run holds ten
or twenty iterations of it:

- ``report`` -- ``repro report``, cold (empty cache) then warm, each in
  a fresh process;
- ``gate_yield`` -- the gate-level Table 5 yield study of both cores;
- ``dse_search`` -- a seeded adaptive design-space search;
- ``conform`` -- a conformance campaign over every oracle;
- ``service`` -- an open-loop request mix against ``repro serve``
  (see :mod:`benchmarks.suite.service`).

The program is imported lazily and its functions are looked up on their
modules at call time, so a traced iteration goes through the probes.
``python -m benchmarks.suite.workloads NAME SEED PARAMS`` is the fresh
interpreter that ``setup_s`` times: it imports what the workload needs,
builds its inputs, and prints ``ready``.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from importlib import import_module

from benchmarks.suite.harness import (
    ENGINE_JOBS,
    ROOT,
    SUBPROCESS_TIMEOUT_S,
    Sample,
    cpu_seconds,
    digest,
    golden,
    iteration_seed,
    peak_rss_mb,
)
from benchmarks.suite.trace import TRACE_DIR_ENV, Tracer, load_documents

#: Per-layer metrics only the service workload measures.
SERVICE_SHARES = ("service.admit_frac", "service.queue_frac",
                  "service.run_frac", "service.stream_frac")


class Workload:
    """One job, timed cold and warm, with its outputs checked."""

    name = ""
    #: The quantile of wall latency ``latency_ms`` reports.  A batch run
    #: is one operation with no tail of its own: a run holds 7-20 of
    #: them, too few for any percentile above the median to have ten
    #: samples beyond it, and the slowest is whichever met a host hiccup.
    TAIL = 0.5
    #: Traced iterations per run (the overhead is their median).
    TRACED_REPEATS = 3

    def params(self):
        """The size knobs; pinned digests apply only at these values."""
        return {}

    def prepare(self, seed):
        """Import what an iteration needs and build its inputs."""

    def start(self, ctx, seed):
        """Acquire resources that outlive one iteration."""

    def stop(self, ctx):
        """Release what :meth:`start` acquired."""

    def iterate(self, ctx, index, seed):
        """One timed iteration; returns a :class:`Sample`."""
        raise NotImplementedError

    def peak_rss_mb(self):
        """``rss_peak_mb``: the benchmark process and its reaped children
        (engine workers, report processes, setup probes)."""
        return peak_rss_mb()

    def warm_up(self, ctx, seed):
        """Untimed iterations run before timing; returns their samples.

        One iteration, so the lazy imports and first-call set-up of the
        benchmark process (inherited by every forked worker after it)
        are not charged to the first timed cold run.
        """
        return [self.iterate(ctx, -1, iteration_seed(seed, -1))]

    def setup_seconds(self, ctx, seed):
        """CPU seconds of a fresh interpreter until the first iteration
        could start, as the probe process reports them."""
        process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.suite.workloads", self.name,
             str(seed), json.dumps(self.params())],
            cwd=ROOT, env=ctx.env(ctx.scratch(f"setup-{self.name}")),
            stdout=subprocess.PIPE, text=True,
        )
        with process:
            word, _, seconds = process.stdout.readline().partition(" ")
            process.wait(timeout=SUBPROCESS_TIMEOUT_S)
        if word != "ready" or process.returncode:
            raise RuntimeError(f"{self.name} setup probe failed")
        return float(seconds)

    def traced(self, ctx, seed, out_dir):
        """The iteration of ``seed`` with every probe installed; returns
        it and the span documents of every process it ran in."""
        with Tracer(out_dir) as tracer:
            sample = self.iterate(ctx, 0, seed)
            return sample, [tracer.document()] + load_documents(out_dir)

    def check(self, ctx, seed, first):
        """Run-level checks of iteration 0; returns error messages."""
        pinned = golden().get(self.name)
        if (pinned is None or pinned["params"] != self.params()
                or pinned["seed"] not in (None, seed)):
            return []
        if first.digest != pinned["digest"]:
            return [f"output digest {first.digest} != pinned "
                    f"{pinned['digest']} (benchmarks/suite/golden.json)"]
        return []

    def request_metrics(self, sample, untraced):
        """The ``service.*`` per-layer metrics, from a traced iteration
        and the untraced tally."""
        return {**dict.fromkeys(SERVICE_SHARES, 0.0), "service.rejected": 0,
                "service.p50_ms": 0.0}


class Report(Workload):
    """``repro report --jobs 2``: the command that reproduces the paper.

    Cold is mostly assembler and ISA dispatch inside ``dse.evaluate``;
    warm is process start, netlist builds for Tables 1-3, cache reads
    and rendering.  The document does not depend on the seed.
    """

    name = "report"

    def prepare(self, seed):
        import_module("repro.cli")
        import_module("repro.experiments.report")

    def iterate(self, ctx, index, seed, trace_dir=None):
        sample = Sample()
        work = ctx.scratch(f"report-{index}")
        command = "benchmarks.suite.trace" if trace_dir else "repro.cli"
        extra = {TRACE_DIR_ENV: str(trace_dir)} if trace_dir else {}
        documents = {}
        for phase in ("cold", "warm"):
            output = work / f"{phase}.md"
            seconds, wall, status, stderr = ctx.python(
                "-m", command, "report", "-o", str(output),
                "--jobs", str(ENGINE_JOBS), directory=work, **extra)
            if status:
                sample.fail(f"{phase} report exited {status}: "
                            f"{stderr.strip()[-300:]}")
                return sample
            getattr(sample, phase).append(seconds)
            if phase == "cold":
                sample.latency.append(wall)
            documents[phase] = output.read_bytes()
            last_run = json.loads((work / "state" / "last_run.json")
                                  .read_text())
            _check_cache(sample, phase, last_run["cache_misses"])
        sample.digest = hashlib.sha256(documents["cold"]).hexdigest()
        if documents["warm"] != documents["cold"]:
            sample.fail("warm report differs from the cold one")
        return sample

    def traced(self, ctx, seed, out_dir):
        sample = self.iterate(ctx, 0, seed, trace_dir=out_dir)
        return sample, load_documents(out_dir)


def _check_cache(sample, phase, misses):
    """A cold run must compute (an empty cache has nothing to hit); a
    warm run must not."""
    if phase == "cold" and misses == 0:
        sample.fail("cold run found every result already cached")
    if phase == "warm" and misses:
        sample.fail(f"warm run recomputed {misses} job(s)")


class EngineWorkload(Workload):
    """A library call on a new ``Engine(jobs=2)``: cold on an empty cache
    dir, then ``WARM_REPEATS`` warm repeats against what it filled."""

    WARM_REPEATS = 5

    def run_once(self, engine, seed):
        raise NotImplementedError

    def summarize(self, output):
        """The part of the output the digest covers."""
        return output

    def verify(self, output, sample):
        """Workload-specific checks of a cold output."""

    def iterate(self, ctx, index, seed):
        sample = Sample()
        cache = ctx.scratch(f"{self.name}-{index}")
        reference = None
        for phase in ["cold"] + ["warm"] * self.WARM_REPEATS:
            started, wall = cpu_seconds(), time.perf_counter()
            with ctx.engine(cache) as engine:
                output = self.run_once(engine, seed)
                misses = engine.metrics.cache_misses
            # After the block: the workers are reaped, their CPU is in.
            getattr(sample, phase).append(cpu_seconds() - started)
            if phase == "cold":
                sample.latency.append(time.perf_counter() - wall)
            _check_cache(sample, phase, misses)
            if reference is None:
                reference = digest(self.summarize(output))
                self.verify(output, sample)
                if index == 0:
                    sample.details = self.details(output, seed)
            elif digest(self.summarize(output)) != reference:
                sample.fail("warm output differs from the cold one")
        sample.digest = reference
        return sample

    def details(self, output, seed):
        """What :meth:`check` needs from iteration 0's output."""
        return {}


class GateYield(EngineWorkload):
    """The Table 5 yield study with every die simulated gate-level:
    ``run_gate_yield_study(..., wafers=6, backend="vector")`` per core,
    12 wafer jobs and 1,488 dies.

    Most of the time is the vector backend's settle passes; there is
    almost no assembler.  A gate-sim change shows here, and an asm or
    ISA change must not move it.
    """

    name = "gate_yield"
    CORES = ("flexicore4", "flexicore8")
    #: Dies replayed through the interpreted reference per run.
    REPLAYED = 3

    def __init__(self, wafers=6):
        self.wafers = wafers

    def params(self):
        return {"wafers": self.wafers}

    def prepare(self, seed):
        import_module("repro.engine")
        import_module("repro.fab.yield_model")
        process = import_module("repro.fab.process")
        return {core: process.process_for(core) for core in self.CORES}

    def run_once(self, engine, seed):
        model = import_module("repro.fab.yield_model")
        return {
            core: model.run_gate_yield_study(
                process, seed=seed, core=core, wafers=self.wafers,
                backend="vector", engine=engine)
            for core, process in self.prepare(seed).items()
        }

    def summarize(self, output):
        # The Table 5 rows and every die's gate-level mismatch count;
        # digesting all per-die records would cost as much as a warm run.
        return {
            core: {"summary": study["summary"],
                   "mismatches": [[die["mismatches"] for die in
                                   wafer["dies"]]
                                  for wafer in study["wafers"]]}
            for core, study in output.items()
        }

    def details(self, output, seed):
        # A seeded choice of defective dies (healthy ones if too few).
        dies = [
            {"core": core, "inputs": wafer["inputs"],
             "max_instructions": wafer["max_instructions"], **die}
            for core, study in sorted(output.items())
            for wafer in study["wafers"] for die in wafer["dies"]
        ]
        defective = [die for die in dies if die["fault_sites"]]
        pool = defective if len(defective) >= self.REPLAYED else dies
        return {"replay": random.Random(seed).sample(pool, self.REPLAYED)}

    def check(self, ctx, seed, first):
        from repro.fab.testing import directed_program
        from repro.isa import get_isa
        from repro.netlist.cores import build_core
        from repro.netlist.verify import run_cross_check

        errors = super().check(ctx, seed, first)
        for die in first.details.get("replay", []):
            isa = get_isa(die["core"])
            result = run_cross_check(
                build_core(die["core"]), isa, directed_program(isa),
                inputs=die["inputs"],
                max_instructions=die["max_instructions"],
                fault=[tuple(site) for site in die["fault_sites"]] or None,
                backend="interpreted",
            )
            if result.mismatches != die["mismatches"]:
                errors.append(
                    f"{die['core']} die ({die['row']},{die['col']}): "
                    f"vector {die['mismatches']} mismatches, interpreted "
                    f"{result.mismatches}")
        return errors


class DseSearch(EngineWorkload):
    """``search(SearchConfig(budget=32, seed=S))`` over the 1,542-genome
    default space.

    Many small engine jobs in per-generation ``run_graph`` waves: mostly
    assembler, predecoded dispatch and ``predecode_image``, almost no
    gate sim.  The control for gate-sim changes.
    """

    name = "dse_search"

    def __init__(self, budget=32):
        self.budget = budget

    def params(self):
        return {"budget": self.budget}

    def prepare(self, seed):
        search = import_module("repro.dse.search")
        config = search.SearchConfig(budget=self.budget, seed=seed)
        config.space.size()
        return config

    def run_once(self, engine, seed):
        return import_module("repro.dse.search").search(
            self.prepare(seed), engine=engine)

    def summarize(self, result):
        return {"evaluations": result.evaluations,
                "frontier": [[entry.key, entry.values]
                             for entry in result.frontier]}


class Conform(EngineWorkload):
    """``run_campaign(S, budget=50)`` with every oracle.

    The ``Simulator.step`` reference loop, the interpreted gate
    simulator, compiled-backend specialization and asm round trips: the
    same layers as the fast paths, used another way.
    """

    name = "conform"

    def __init__(self, budget=50):
        self.budget = budget

    def params(self):
        return {"budget": self.budget}

    def prepare(self, seed):
        runner = import_module("repro.conformance.runner")
        return runner.plan_campaign(self.budget)

    def run_once(self, engine, seed):
        return import_module("repro.conformance.runner").run_campaign(
            seed, self.budget, engine=engine, persist=False)

    def summarize(self, summary):
        return {"cases": summary["cases"], "slices": summary["slices"]}

    def verify(self, summary, sample):
        for entry in summary["divergences"]:
            sample.fail(f"conformance divergence: {entry.get('divergence')}")


def registry():
    """``{name: workload class}`` in report order."""
    from benchmarks.suite.service import Service

    return {cls.name: cls for cls in
            (Report, GateYield, DseSearch, Conform, Service)}


def _setup_probe(argv):
    name, seed, params = argv
    registry()[name](**json.loads(params)).prepare(int(seed))
    print("ready", time.process_time(), flush=True)


if __name__ == "__main__":
    _setup_probe(sys.argv[1:])
