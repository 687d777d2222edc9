"""Predecoded program tables: decode on first fetch, dispatch many.

FlexiCore programs are tiny (at most sixteen 128-byte pages) and hot --
every kernel evaluation, fault-campaign oracle and DSE sweep re-executes
the same few hundred bytes millions of times.  The reference
:meth:`~repro.sim.simulator.Simulator.step` loop re-decodes the
instruction under the PC on every cycle; this module instead keeps one
dense per-offset table of bound semantic functions per page of each
``(isa, image)``, so the execution loop in :mod:`repro.sim.dispatch`
becomes a table lookup plus one call.

A :class:`PageTable` holds parallel per-offset lists (function,
operands, size, fall-through PC, branch flag, ...) rather than per-offset
objects, so the hot loop indexes flat lists.  It decodes an offset the
first time the PC lands on it, not before: most bytes of a page are
operands, padding or code a run never reaches.  An offset whose bytes
do not decode faults only when the PC actually lands there, exactly
like the reference fetch.  :meth:`PageTable.entry` decodes an offset on
demand for readers outside the dispatch loop.

Windows wrap within the page like the hardware PC does (the same
semantics as :meth:`repro.sim.memory.ProgramMemory.fetch_window`), and
pages beyond the image read as zero-filled ROM.  MMU page switches
become a table swap instead of any kind of cache flush.

Tables are memoized per ISA instance (weakly) and per image, so what
one run decodes, later runs of the image reuse; the build/hit traffic
is visible through the ``sim_predecode_*`` obs counters.
"""

from collections import OrderedDict
from weakref import WeakKeyDictionary

from repro import obs
from repro.asm.assembler import MAX_PAGES, PAGE_SIZE
from repro.isa.model import InstrClass, OperandKind

#: Retained predecoded images per ISA instance (LRU beyond this).
MAX_CACHED_IMAGES = 128

#: Longest instruction window, matching ``ProgramMemory.fetch_window``.
WINDOW_BYTES = 4

#: The memory-mapped port addresses (kept local to avoid an import
#: cycle with :mod:`repro.isa.state`; asserted against it in tests).
_IPORT_ADDR = 0
_OPORT_ADDR = 1


class _DecodeFault(Exception):
    """Raised by the table entry of an undecodable offset; the dispatch
    loop converts it to a :class:`~repro.sim.simulator.SimulationError`
    with the flat page address (which only the loop knows -- the zero-ROM
    table is shared by every out-of-image page)."""


class PageTable:
    """Per-offset decode table for one 128-byte page, filled on first
    fetch.

    All list attributes are 128-entry lists indexed by page-local PC:

    - ``fns`` / ``opss``: the spec's execute function and its operand
      tuple (an undecodable offset holds a closure raising
      :class:`_DecodeFault`, so the hot loop needs no validity check);
    - ``sizes``: instruction size in bytes;
    - ``falls``: the fall-through PC ``(pc + size) & pc_mask``;
    - ``branches``: True for :class:`~repro.isa.model.InstrClass` BRANCH;
    - ``specials``: True when the post-execute bookkeeping (taken-branch
      detection, halt check) must run -- branches and ``halt`` are the
      only instructions that can redirect or stop the machine;
    - ``syncs``: True when the instruction may write the output port, so
      the dispatch loop must sync ``stats.instructions`` first for the
      sink's cycle stamps (a conservative static over-approximation);
    - ``reads_iport``: True when the instruction architecturally samples
      the input bus (used by the cross-check replay to present IPORT);
    - ``decoded``: the full :class:`~repro.isa.model.DecodedInstruction`
      (``address`` is the page-local offset);
    - ``errors``: the decode-fault message for undecodable offsets.

    Until the PC first lands on an offset, its ``fns`` entry is the
    trampoline :meth:`_first_fetch` and its ``syncs`` entry is True: the
    dispatch loop reads ``syncs`` before it calls the function, and the
    trampoline cannot yet know whether the instruction writes the
    output port.  An extra sync is exact (it stores the count the loop
    already holds); a missing one would misstamp an output.
    """

    __slots__ = ("fns", "opss", "sizes", "falls", "branches",
                 "specials", "syncs", "reads_iport", "decoded", "errors",
                 "_isa", "_wrapped", "_pc_mask", "_trampoline")

    def __init__(self, isa, page_bytes, pc_mask):
        self._isa = isa
        self._wrapped = page_bytes + page_bytes[:WINDOW_BYTES - 1]
        self._pc_mask = pc_mask
        self._trampoline = self._first_fetch
        self.fns = [self._trampoline] * PAGE_SIZE
        self.opss = [()] * PAGE_SIZE
        self.sizes = [0] * PAGE_SIZE
        self.falls = [0] * PAGE_SIZE
        self.branches = [False] * PAGE_SIZE
        self.specials = [False] * PAGE_SIZE
        self.syncs = [True] * PAGE_SIZE
        self.reads_iport = [False] * PAGE_SIZE
        self.decoded = [None] * PAGE_SIZE
        self.errors = [None] * PAGE_SIZE

    def entry(self, offset):
        """The :class:`~repro.isa.model.DecodedInstruction` at
        ``offset`` (``None`` when its bytes do not decode; the message
        is then in ``errors``), decoding the offset now if no fetch
        has yet."""
        if self.fns[offset] is self._trampoline:
            self._fill(offset)
        return self.decoded[offset]

    def _first_fetch(self, state, operands):
        """Every ``fns`` entry until the PC first lands on its offset."""
        pc = state.pc
        self._fill(pc)(state, self.opss[pc])

    def _fill(self, offset):
        """Decode ``offset`` into its entries; return its ``fns`` entry."""
        window = self._wrapped[offset:offset + WINDOW_BYTES]
        try:
            decoded = self._isa.decode(window, 0)
        except Exception as exc:  # DecodeError, truncation, ...
            message = str(exc)
            self.errors[offset] = message
            fn = _fault_fn(message)
        else:
            # Re-anchor the decoded address at the page-local offset
            # (decode ran against a window starting at 0).
            decoded = type(decoded)(
                spec=decoded.spec, operands=decoded.operands,
                address=offset, raw=decoded.raw,
            )
            branch = decoded.spec.iclass is InstrClass.BRANCH
            self.opss[offset] = decoded.operands
            self.sizes[offset] = decoded.size
            self.falls[offset] = (offset + decoded.size) & self._pc_mask
            self.branches[offset] = branch
            # ``halt`` is the only non-branch instruction that stops the
            # machine; everything else needs no post-execute bookkeeping.
            self.specials[offset] = branch or decoded.mnemonic == "halt"
            self.syncs[offset] = _may_write_output(decoded)
            self.reads_iport[offset] = _decodes_iport_read(decoded)
            self.decoded[offset] = decoded
            fn = decoded.spec.execute_fn
        # ``fns`` last: it is what marks the offset decoded, so a thread
        # sharing this table that reads the new function also reads the
        # offset's other entries filled.  Threads racing on one offset
        # both decode it and write the same values.
        self.fns[offset] = fn
        return fn


class PredecodedProgram:
    """All page tables for one ``(isa, image)`` pair.

    ``pages`` always spans the full :data:`MAX_PAGES` address space the
    MMU's 4-bit page register can reach; pages past the image share one
    zero-ROM table per ISA.
    """

    __slots__ = ("isa", "image", "image_pages", "pages")

    def __init__(self, isa, image, pages, image_pages):
        self.isa = isa
        self.image = image
        self.image_pages = image_pages
        self.pages = pages

    def page(self, number):
        return self.pages[number]


def _decodes_iport_read(decoded):
    """Does this instruction architecturally read the input bus?

    Mirrors the cross-check replay's test: any non-store instruction
    with a memory-address operand naming the IPORT address (the
    load-store ISA reads input through its explicit ``in`` instruction,
    which carries no MEMADDR operand, so it reports False -- matching
    the replay, which only models memory-mapped IO cores).
    """
    if decoded.mnemonic == "store":
        return False
    return any(
        spec.kind is OperandKind.MEMADDR and operand == _IPORT_ADDR
        for spec, operand in zip(decoded.spec.operands, decoded.operands)
    )


def _may_write_output(decoded):
    """Could this instruction write the output port?

    Static over-approximation: any MEMADDR operand naming OPORT (reads
    of it are harmlessly included), or the load-store ISA's explicit
    ``out``.  Every ISA addresses memory through immediate operands, so
    no write site can escape this test.
    """
    if decoded.mnemonic == "out":
        return True
    return any(
        spec.kind is OperandKind.MEMADDR and operand == _OPORT_ADDR
        for spec, operand in zip(decoded.spec.operands, decoded.operands)
    )


def _fault_fn(message):
    def raise_fault(state, operands):
        raise _DecodeFault(message)
    return raise_fault


# isa -> OrderedDict[image bytes -> PredecodedProgram]  (LRU per ISA)
_CACHE = WeakKeyDictionary()
# isa -> the shared zero-ROM PageTable
_ZERO_PAGES = WeakKeyDictionary()


def _zero_page(isa):
    table = _ZERO_PAGES.get(isa)
    if table is None:
        table = PageTable(isa, bytes(PAGE_SIZE), (1 << isa.pc_bits) - 1)
        _ZERO_PAGES[isa] = table
    return table


def predecode_image(isa, image):
    """Return the (cached) :class:`PredecodedProgram` for ``isa``/``image``.

    ``image`` is the flat program-memory image (any length up to the
    16-page address space); the table covers every page the MMU can
    select, with out-of-image pages reading as zero-filled ROM.  Nothing
    is decoded here: each offset decodes on its first fetch.
    """
    image = bytes(image)
    per_isa = _CACHE.get(isa)
    if per_isa is None:
        per_isa = OrderedDict()
        _CACHE[isa] = per_isa
    program = per_isa.get(image)
    if program is not None:
        per_isa.move_to_end(image)
        if obs.active():
            obs.registry().counter(
                "sim_predecode_hits_total",
                "Predecode-table cache hits",
            ).inc(isa=isa.name)
        return program

    pc_mask = (1 << isa.pc_bits) - 1
    image_pages = max(1, (len(image) + PAGE_SIZE - 1) // PAGE_SIZE)
    zero = _zero_page(isa)
    pages = []
    for number in range(image_pages):
        blob = image[number * PAGE_SIZE:(number + 1) * PAGE_SIZE]
        if not blob.strip(b"\x00"):
            pages.append(zero)
            continue
        blob = blob + bytes(PAGE_SIZE - len(blob))
        pages.append(PageTable(isa, blob, pc_mask))
    pages.extend([zero] * (MAX_PAGES - len(pages)))

    program = PredecodedProgram(isa, image, pages, image_pages)
    per_isa[image] = program
    while len(per_isa) > MAX_CACHED_IMAGES:
        per_isa.popitem(last=False)
    if obs.active():
        obs.registry().counter(
            "sim_predecode_builds_total",
            "Predecode tables built (one per new (isa, image))",
        ).inc(isa=isa.name)
    return program


def clear_cache():
    """Drop every memoized table (tests and memory-pressure hook)."""
    _CACHE.clear()
    _ZERO_PAGES.clear()
