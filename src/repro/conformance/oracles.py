"""The six differential oracles.

Each oracle drives one pair (or triple) of redundant execution paths
with the same generated case and compares every observable output
exactly:

- ``dispatch``  -- reference step loop vs predecoded fast dispatch
  (halt reason, final architectural state, full execution statistics,
  and the cycle-stamped output trace);
- ``backend``   -- interpreted vs compiled gate-level backend
  (per-lane mismatch counts, first-mismatch text, cycle counts, and
  toggle statistics, healthy lane plus injected stuck-at faults);
- ``vector``    -- compiled vs vector gate-level backend: one kernel,
  so 64-lane chunked runs against one wide run, same observables as
  ``backend`` but with campaigns sized to pack lanes past bit 63;
- ``cache``     -- a job result computed directly, computed through the
  engine into a fresh cache, and read back from that cache;
- ``fab``       -- the field-batched wafer Monte Carlo vs the scalar
  per-die mirror in :mod:`repro.fab.reference`, sharing one seed
  stream (per-die process draws and every probe record);
- ``asm``       -- assemble -> disassemble -> reassemble round trips
  (image equality plus the encode/decode consistency check).

An oracle is a tiny frozen descriptor: a generator mapping
``(target, rng)`` to a JSON payload, an executor mapping a case to a
:class:`~repro.conformance.case.Divergence` (or ``None``), a relative
cost weight for budget planning, and its default targets.  To add an
oracle for a new fast path, write those two functions and register the
descriptor -- see docs/CONFORMANCE.md.
"""

import dataclasses
from dataclasses import replace
from typing import Callable, Tuple

from repro.conformance.case import compare_observations
from repro.conformance.generators import (
    materialize_source,
    random_fault_sites,
    random_flat_payload,
    random_paged_payload,
    random_process,
    random_voltages,
)

#: Every fabricated/DSE target the acceptance criteria name.
ALL_TARGETS = ("flexicore4", "flexicore8", "flexicore4plus")


@dataclasses.dataclass(frozen=True)
class Oracle:
    """One registered differential oracle."""

    name: str
    description: str
    generate: Callable  # (target, rng) -> payload dict
    execute: Callable   # (case) -> Divergence | None
    cost: int = 1       # relative per-case cost for budget planning
    targets: Tuple[str, ...] = ALL_TARGETS


ORACLES = {}


def register_oracle(oracle):
    ORACLES[oracle.name] = oracle
    return oracle


def get_oracle(name):
    try:
        return ORACLES[name]
    except KeyError:
        raise ValueError(
            f"unknown oracle {name!r}; choose from {sorted(ORACLES)}"
        ) from None


# ----------------------------------------------------------------------
# Shared target helpers.
# ----------------------------------------------------------------------

def _gate_core_for(target):
    """The fabricated netlist a target's gate-level oracle runs on.

    Only the two fabricated cores execute programs at the gate level
    (the DSE variants are sized, not booted), so the FlexiCore4+ target
    exercises the backends on the FlexiCore4 die -- the differential
    question is *backend equivalence on identical stimulus*, which any
    netlist answers.
    """
    from repro.netlist.cores import core_netlist

    return core_netlist("flexicore8" if "8" in target else "flexicore4")


def _assemble(target, payload):
    from repro.kernels.kernel import Target

    return Target.named(target).assemble(
        materialize_source(payload), source_name=f"conform:{target}"
    )


# ----------------------------------------------------------------------
# Oracle 1: step dispatch vs predecoded dispatch.
# ----------------------------------------------------------------------

def generate_dispatch(target, rng):
    from repro.isa import get_isa

    isa = get_isa(target)
    if rng.random() < 0.3:
        payload = random_paged_payload(isa, rng)
        payload["max_cycles"] = int(rng.integers(256, 4096))
    else:
        payload = random_flat_payload(isa, rng)
        payload["max_cycles"] = int(rng.integers(64, 2048))
    payload["on_exhausted"] = ["raise", "hold", "zero"][
        int(rng.integers(0, 3))
    ]
    return payload


def execute_dispatch(case):
    from repro.sim.peripherals import InputStream, OutputSink
    from repro.sim.simulator import SimulationError, Simulator

    program = _assemble(case.target, case.payload)
    dispatches = case.payload.get("dispatches") or [
        "reference", "predecode",
    ]
    observations = {}
    for dispatch in dispatches:
        sink = OutputSink()
        simulator = Simulator(
            program.isa, program,
            input_fn=InputStream(
                case.payload.get("inputs", []),
                on_exhausted=case.payload.get("on_exhausted", "zero"),
            ),
            output=sink,
        )
        observed = {}
        try:
            result = simulator.run(
                max_cycles=case.payload.get("max_cycles", 1024),
                dispatch=dispatch,
            )
            observed["reason"] = result.reason
            observed["halted"] = result.halted
            observed["stats"] = dataclasses.asdict(result.stats)
        except SimulationError as exc:
            observed["error"] = str(exc)
            observed["stats"] = dataclasses.asdict(simulator.stats)
        observed["state"] = dict(simulator.state.snapshot(),
                                 mem=list(simulator.state.mem))
        observed["outputs"] = list(sink.values)
        observed["output_cycles"] = list(sink.cycles)
        observations[dispatch] = observed
    return compare_observations(case, observations)


register_oracle(Oracle(
    name="dispatch",
    description="reference step loop == predecoded fast dispatch",
    generate=generate_dispatch,
    execute=execute_dispatch,
    cost=1,
))


# ----------------------------------------------------------------------
# Oracle 2: interpreted vs compiled gate-level backend.
# ----------------------------------------------------------------------

def generate_backend(target, rng):
    from repro.isa import get_isa

    isa = get_isa(target)
    payload = random_flat_payload(isa, rng, max_instructions=24)
    payload["max_instructions"] = int(rng.integers(12, 40))
    netlist = _gate_core_for(target)
    payload["faults"] = random_fault_sites(
        netlist, rng, int(rng.integers(0, 4))
    )
    return payload


def _execute_backend_pair(case, backends):
    from repro.isa import get_isa
    from repro.netlist.verify import run_cross_check_batch

    netlist = _gate_core_for(case.target)
    isa = get_isa(case.target)
    image = _assemble(case.target, case.payload).image()
    faults = [None] + [
        (gate, stuck) for gate, stuck in case.payload.get("faults", [])
    ]
    observations = {}
    for backend in backends:
        lanes = run_cross_check_batch(
            netlist, isa, image,
            inputs=case.payload.get("inputs", []),
            max_instructions=case.payload.get("max_instructions", 32),
            faults=faults, backend=backend,
        )
        observations[backend] = [
            dataclasses.asdict(lane) for lane in lanes
        ]
    return compare_observations(case, observations)


def execute_backend(case):
    return _execute_backend_pair(case, ("interpreted", "compiled"))


register_oracle(Oracle(
    name="backend",
    description="interpreted == compiled gate-level simulation",
    generate=generate_backend,
    execute=execute_backend,
    cost=8,
))


# ----------------------------------------------------------------------
# Oracle 6: compiled vs vector (wafer-scale) gate-level backend.
# ----------------------------------------------------------------------

def generate_vector(target, rng):
    from repro.isa import get_isa

    isa = get_isa(target)
    payload = random_flat_payload(isa, rng, max_instructions=24)
    payload["max_instructions"] = int(rng.integers(12, 40))
    netlist = _gate_core_for(target)
    # Mostly small campaigns, but often enough faults that the vector
    # run packs lanes past bit 63 of its lane ints, which the compiled
    # side runs as a second 64-lane chunk.
    if rng.random() < 0.25:
        count = int(rng.integers(60, 97))
    else:
        count = int(rng.integers(0, 8))
    payload["faults"] = random_fault_sites(netlist, rng, count)
    return payload


def execute_vector(case):
    return _execute_backend_pair(case, ("compiled", "vector"))


register_oracle(Oracle(
    name="vector",
    description="compiled == vector wafer-scale gate-level simulation",
    generate=generate_vector,
    execute=execute_vector,
    cost=10,
))


# ----------------------------------------------------------------------
# Oracle 3: cached vs fresh engine job results.
# ----------------------------------------------------------------------

def generate_cache(target, rng):
    process = random_process(target, rng)
    return {
        "core": target,
        "entropy": int(rng.integers(0, 2 ** 63)),
        "voltages": random_voltages(rng),
        "process_overrides": {
            name: getattr(process, name)
            for name in ("defect_density_per_mm2", "edge_defect_multiplier",
                         "speed_sigma", "edge_speed_penalty",
                         "current_sigma", "radial_current_gradient")
        },
    }


def _case_process(payload):
    from repro.fab.process import process_for

    return replace(process_for(payload["core"]),
                   **payload.get("process_overrides", {}))


def execute_cache(case):
    import tempfile

    from repro.engine import ChildSeed, Engine, Job, ResultCache
    from repro.fab.yield_model import wafer_yield_job

    payload = case.payload
    params = {
        "core": payload["core"],
        "process": _case_process(payload),
        "voltages": tuple(payload["voltages"]),
    }
    seed = ChildSeed(entropy=payload["entropy"])
    fresh = wafer_yield_job(params, seed)
    with tempfile.TemporaryDirectory(prefix="repro-conform-") as root:
        cache = ResultCache(root)
        engine = Engine(jobs=1, cache=cache)
        job = Job(wafer_yield_job, params, seed=seed,
                  label=f"conform:{payload['core']}")
        computed = engine.run([job], stage="conform-cache")[0]
        cached = engine.run([job], stage="conform-cache")[0]
        observations = {
            "fresh": fresh,
            "engine_computed": computed,
            "engine_cached": cached,
        }
        divergence = compare_observations(case, observations)
        if divergence is None and cache.hits < 1:
            divergence = compare_observations(case, {
                "expected_cache_hits": {"hits": 1},
                "observed_cache_hits": {"hits": cache.hits},
            })
    return divergence


register_oracle(Oracle(
    name="cache",
    description="direct call == engine compute == engine cache hit",
    generate=generate_cache,
    execute=execute_cache,
    cost=4,
))


# ----------------------------------------------------------------------
# Oracle 4: vectorized vs scalar wafer Monte Carlo.
# ----------------------------------------------------------------------

def generate_fab(target, rng):
    return generate_cache(target, rng)  # same parameter space


def _die_view(die):
    return {
        "defects": die.defects,
        "speed_factor": die.speed_factor,
        "current_factor": die.current_factor,
    }


def _record_view(record):
    return {
        "functional": record.functional,
        "errors": record.errors,
        "current_ma": record.current_ma,
        "failure_mode": record.failure_mode,
    }


def execute_fab(case):
    import numpy as np

    from repro.fab import reference
    from repro.fab.yield_model import fabricate_wafer
    from repro.netlist.cores import core_netlist, core_timing

    payload = case.payload
    netlist = core_netlist(payload["core"])
    report = core_timing(payload["core"])
    process = _case_process(payload)

    def run(fabricate, probe):
        rng = np.random.default_rng(
            np.random.SeedSequence(payload["entropy"])
        )
        fabricated = fabricate(
            netlist, process, rng, timing_report=report
        )
        observed = {"dies": [_die_view(die) for die in fabricated.dies]}
        for voltage in payload["voltages"]:
            result = probe(fabricated, voltage, rng)
            observed[f"probe@{voltage:g}"] = [
                _record_view(record) for record in result.records
            ]
        return observed

    observations = {
        "vectorized": run(
            fabricate_wafer,
            lambda fabricated, voltage, rng:
                fabricated.probe(voltage, rng),
        ),
        "scalar": run(
            reference.fabricate_wafer_scalar, reference.probe_scalar
        ),
    }
    return compare_observations(case, observations)


register_oracle(Oracle(
    name="fab",
    description="field-batched wafer Monte Carlo == scalar mirror",
    generate=generate_fab,
    execute=execute_fab,
    cost=2,
))


# ----------------------------------------------------------------------
# Oracle 5: assemble -> disassemble -> reassemble round trips.
# ----------------------------------------------------------------------

def generate_asm(target, rng):
    from repro.isa import get_isa

    isa = get_isa(target)
    if rng.random() < 0.3:
        return random_paged_payload(isa, rng)
    return random_flat_payload(isa, rng)


def _resource_pages(image, isa):
    """Rebuild assembly source from a disassembled image, page by page.

    Returns ``(source_text, problems)``: trailing all-zero ``.byte``
    padding is dropped (``Program.image`` zero-fills it back), while
    any other undecodable byte is reported -- an image produced by the
    assembler must disassemble cleanly.
    """
    from repro.asm.assembler import PAGE_SIZE
    from repro.asm.disassembler import disassemble

    problems = []
    source_lines = []
    for page in range(max(1, len(image) // PAGE_SIZE)):
        blob = image[page * PAGE_SIZE:(page + 1) * PAGE_SIZE]
        lines = disassemble(blob, isa)
        while lines and lines[-1].mnemonic is None \
                and lines[-1].raw == b"\x00":
            lines.pop()
        source_lines.append(f".page {page}")
        for line in lines:
            if line.mnemonic is None:
                problems.append(
                    f"page {page} offset {line.address}: "
                    f"undecodable {line.text}"
                )
            else:
                source_lines.append("    " + line.text)
    return "\n".join(source_lines) + "\n", problems


def execute_asm(case):
    from repro.asm.assembler import Assembler
    from repro.asm.disassembler import roundtrip_ok
    from repro.asm.errors import AsmError
    from repro.isa import get_isa

    isa = get_isa(case.target)
    program = _assemble(case.target, case.payload)
    image = program.image()
    observed = {"first": {"image": image.hex(),
                          "roundtrip_ok": roundtrip_ok(program)}}

    source, problems = _resource_pages(image, isa)
    if problems:
        observed["reassembled"] = {"image": f"<{'; '.join(problems)}>",
                                   "roundtrip_ok": False}
        return compare_observations(case, observed)
    try:
        reassembled = Assembler(isa).assemble(
            source, source_name="conform:reassembled"
        )
    except AsmError as exc:
        observed["reassembled"] = {
            "image": f"<reassembly failed: {exc}>",
            "roundtrip_ok": False,
        }
        return compare_observations(case, observed)
    second = reassembled.image()
    width = max(len(image), len(second))
    observed["reassembled"] = {
        "image": (second + bytes(width - len(second))).hex(),
        "roundtrip_ok": roundtrip_ok(reassembled),
    }
    observed["first"]["image"] = (
        image + bytes(width - len(image))
    ).hex()
    return compare_observations(case, observed)


register_oracle(Oracle(
    name="asm",
    description="assemble == disassemble == reassemble",
    generate=generate_asm,
    execute=execute_asm,
    cost=1,
))
