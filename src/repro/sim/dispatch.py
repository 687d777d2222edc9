"""Pluggable execution dispatch for the functional simulator.

Mirrors the :mod:`repro.netlist.backend` shape at the ISA level: a
*dispatch* is a named strategy for driving one
:class:`~repro.sim.simulator.Simulator` run to completion.  Two are
registered:

- ``"reference"`` -- the single-step :meth:`Simulator.step` loop, the
  bit-exact reference (fetch window, decode, execute, per-step stats);
- ``"predecode"`` -- the fast path: each page is decoded once into a
  :mod:`repro.sim.predecode` table, then a tight loop dispatches bound
  semantic functions, accumulating statistics in flat per-offset
  counters that fold into a bit-identical
  :class:`~repro.sim.simulator.ExecStats` at run end.

Consumers select a dispatch by name (or with the ``fastpath=`` sugar on
:meth:`Simulator.run` and friends); ``None`` is ``"predecode"``.  The
reference is chosen per call, by the tests and conformance oracles
that compare the two.
"""

from repro.sim.memory import PAGE_SIZE
from repro.sim.peripherals import InputExhausted
from repro.sim.predecode import _DecodeFault, predecode_image

#: name -> runner(simulator, max_cycles) -> completion reason.
DISPATCHES = {}


def register_dispatch(name):
    """Decorator adding a run-loop implementation to the registry."""
    def decorate(fn):
        DISPATCHES[name] = fn
        return fn
    return decorate


def resolve_dispatch(name):
    """Map a dispatch spec (name, or None for predecode) to its runner."""
    name = name or "predecode"
    try:
        return DISPATCHES[name]
    except KeyError:
        raise ValueError(
            f"unknown dispatch {name!r}; choose from {sorted(DISPATCHES)}"
        ) from None


# ----------------------------------------------------------------------
# Reference: the single-step loop (bit-exact, trace-friendly).
# ----------------------------------------------------------------------

@register_dispatch("reference")
def run_reference(simulator, max_cycles):
    """Drive :meth:`Simulator.step` until completion; the reference."""
    while simulator.stats.instructions < max_cycles:
        try:
            simulator.step()
        except InputExhausted:
            return "input_exhausted"
        if simulator.state.halted:
            return simulator._halt_reason
    return "max_cycles"


# ----------------------------------------------------------------------
# Fast path: predecoded table dispatch.
# ----------------------------------------------------------------------

@register_dispatch("predecode")
def run_predecoded(simulator, max_cycles):
    """Dispatch through predecoded page tables; bit-identical results.

    The loop touches no dicts and allocates nothing per instruction:
    per-offset execution counts and a taken-branch tally accumulate in
    flat locals and fold into ``simulator.stats`` only at run end.  Per
    instruction the common case is one attribute read (the PC), two
    table lookups, the bound semantic call, and a counter bump; the
    table's per-offset flags gate everything else:

    - ``stats.instructions`` is synced only before instructions that may
      write the output port (``syncs``), keeping sink cycle stamps
      identical to the reference;
    - taken-branch and halt bookkeeping runs only for branches and
      ``halt`` (``specials``) -- nothing else can redirect or stop the
      machine;
    - :meth:`Mmu.on_fetch` is called only while a page switch is
      pending; it is a pure read of the page register otherwise.
    """
    from repro.sim.simulator import SimulationError

    state = simulator.state
    if state.halted:
        # Resuming a halted core is a degenerate case with reference
        # semantics of its own (one instruction, then 'halt').
        return run_reference(simulator, max_cycles)
    stats = simulator.stats
    memory = simulator.memory
    mmu = memory.mmu
    halt_self = simulator.halt_on_self_branch
    program = predecode_image(simulator.isa, memory.image)
    tables = program.pages
    counts = [None] * len(tables)

    page = mmu.page if mmu is not None else 0
    table = tables[page]
    page_counts = counts[page] = [0] * PAGE_SIZE
    fns, opss = table.fns, table.opss
    branches, falls = table.branches, table.falls
    specials, syncs = table.specials, table.syncs
    base_addr = page * PAGE_SIZE

    n = stats.instructions
    taken = 0
    reason = "max_cycles"

    try:
        while n < max_cycles:
            if mmu is not None and mmu._pending_page is not None:
                # The delay counter only advances while a switch is
                # pending, so skipping on_fetch otherwise is exact.
                new_page = mmu.on_fetch()
                if new_page != page:
                    page = new_page
                    table = tables[page]
                    page_counts = counts[page]
                    if page_counts is None:
                        page_counts = counts[page] = [0] * PAGE_SIZE
                    fns, opss = table.fns, table.opss
                    branches, falls = table.branches, table.falls
                    specials, syncs = table.specials, table.syncs
                    base_addr = page * PAGE_SIZE
            pc = state.pc
            if syncs[pc]:
                stats.instructions = n
            fns[pc](state, opss[pc])
            n += 1
            page_counts[pc] += 1
            if specials[pc]:
                if branches[pc]:
                    new_pc = state.pc
                    if new_pc != falls[pc]:
                        taken += 1
                        if halt_self and new_pc == pc:
                            state.halted = True
                            reason = "self_branch"
                            break
                if state.halted:
                    reason = "halt"
                    break
    except InputExhausted:
        reason = "input_exhausted"
    except _DecodeFault as exc:
        stats.instructions = n
        _fold_counts(stats, tables, counts, taken)
        raise SimulationError(
            f"decode fault at page address {base_addr + state.pc}: {exc}"
        ) from None

    stats.instructions = n
    if state.halted:
        # Mirror what the reference step loop records, so the two paths
        # leave the simulator in an identical externally-visible state.
        simulator._halt_reason = reason
    _fold_counts(stats, tables, counts, taken)
    return reason


def _fold_counts(stats, tables, counts, taken):
    """Fold flat per-offset execution counts into ``ExecStats``.

    Produces exactly the totals the reference path's per-step
    ``ExecStats.record`` calls would (mnemonic/class/size histograms,
    fetched bytes, taken branches); only the dict key insertion order
    can differ, which dict equality ignores.
    """
    stats.taken_branches += taken
    by_class = stats.by_class
    by_mnemonic = stats.by_mnemonic
    by_size = stats.by_size
    fetched = 0
    for table, page_counts in zip(tables, counts):
        if page_counts is None:
            continue
        decoded_list = table.decoded
        sizes = table.sizes
        for offset, count in enumerate(page_counts):
            if not count:
                continue
            decoded = decoded_list[offset]
            size = sizes[offset]
            fetched += count * size
            iclass = decoded.spec.iclass.value
            by_class[iclass] = by_class.get(iclass, 0) + count
            by_size[size] = by_size.get(size, 0) + count
            mnemonic = decoded.mnemonic
            by_mnemonic[mnemonic] = by_mnemonic.get(mnemonic, 0) + count
    stats.fetched_bytes += fetched
