"""Gate-level FlexiCore cores (Figure 3), built from the 13-cell library.

:func:`build_flexicore4` and :func:`build_flexicore8` produce *functional*
netlists: the gate-level simulator executes programs on them, and the test
suite cross-checks them instruction-by-instruction against the ISA
simulator -- the software analogue of the paper's chip-vs-RTL test flow
(Section 4.1).

Interface of the accumulator cores:

- inputs: ``instr0..7`` (the byte at the current PC, supplied by the
  external program memory each cycle) and ``iport0..w``;
- outputs: ``pc0..6`` and ``oport0..w``.

Microarchitectural decisions follow Section 3.4: a single ripple-carry
adder produces ADD, and its internal XOR (propagate) and NAND terms
provide the other two ALU functions nearly for free; data memory word 0
is the input port (reads bypass to the pins) and word 1 drives the output
port; the PC increments through a dedicated +1 chain and a branch simply
muxes the instruction's low seven bits in when ``instr7 & acc_msb``.

FlexiCore8 adds the single controller flip-flop of Section 3.4: the LOAD
BYTE opcode sets a flag marking the next fetched byte as data.

A process builds each fabricated core once: :func:`core_netlist` and
:func:`core_timing` hold every reader's netlist and timing report.
"""

from functools import lru_cache

from repro.netlist.builder import NetlistBuilder


def _decode_equals(b, bits, pattern):
    """AND-tree matching ``bits`` against a constant ``pattern``."""
    terms = []
    for index, bit in enumerate(bits):
        if (pattern >> index) & 1:
            terms.append(bit)
        else:
            terms.append(b.inv(bit))
    return b.and_tree(terms)


def _build_accumulator_base(name, width, mem_words, load_byte):
    """Shared structure of FlexiCore4 (load_byte=False) and FlexiCore8."""
    b = NetlistBuilder(name)
    addr_bits = max(1, (mem_words - 1).bit_length())

    b.set_module("io")
    instr = b.input_bus("instr", 8)
    iport = b.input_bus("iport", width)

    # ------------------------------------------------------------------
    # Decoder.
    # ------------------------------------------------------------------
    b.set_module("decoder")
    i7, i6, i5, i4, i3 = instr[7], instr[6], instr[5], instr[4], instr[3]
    not_branch = b.inv(i7)
    op11 = b.and_(i5, i4)
    is_ttype = b.and_tree([not_branch, i6, op11])
    is_store = b.and_(is_ttype, i3)
    is_load = b.and_(is_ttype, b.inv(i3))

    if load_byte:
        # FlexiCore8's one flip-flop of controller state (Section 3.4).
        is_ldb_opcode = _decode_equals(b, instr, 0b0000_1000)
        ldb_flag = b.net("ldb_flag")
        not_flag = b.inv(ldb_flag)
        flag_next = b.and_(is_ldb_opcode, not_flag)
        b.dff(flag_next, out=ldb_flag)
        # While the flag is set, the fetched byte is data: suppress every
        # control signal and steer the raw byte into the accumulator.
        is_store = b.and_(is_store, not_flag)
        is_load = b.and_(is_load, not_flag)
        branch_gate = not_flag
        acc_we = b.or_(
            b.and_(not_branch, b.inv(is_store)),
            ldb_flag,
        )
    else:
        ldb_flag = None
        branch_gate = b.const1
        acc_we = b.and_(not_branch, b.inv(is_store))

    # Operand select: immediate when bit 6, except T-type reads memory.
    sel_imm = b.and_(i6, b.inv(is_ttype))
    mem_we = is_store

    # ------------------------------------------------------------------
    # Data memory (module 'memory'): word 0 = IPORT, word 1 drives OPORT.
    # ------------------------------------------------------------------
    b.set_module("memory")
    addr = instr[:addr_bits]
    word_select = b.decoder(addr, size=mem_words)
    acc_q = [b.net(f"acc_q{i}") for i in range(width)]  # defined below
    stored = {}
    for word in range(1, mem_words):
        enable = b.and_(word_select[word], mem_we)
        stored[word] = b.register(acc_q, enable=enable)
    # Read mux tree over [IPORT, word1, ..., wordN], selected by the
    # address bits level by level.
    lanes = [iport] + [stored[w] for w in range(1, mem_words)]
    mem_rdata = []
    for bit in range(width):
        nets = [lane[bit] for lane in lanes]
        level = 0
        while len(nets) > 1:
            sel = addr[level]
            nxt = []
            for i in range(0, len(nets), 2):
                if i + 1 < len(nets):
                    nxt.append(b.mux(nets[i], nets[i + 1], sel))
                else:
                    nxt.append(nets[i])
            nets = nxt
            level += 1
        mem_rdata.append(nets[0])

    oport = stored[1]

    # ------------------------------------------------------------------
    # ALU (module 'alu'): Figure 3b.
    # ------------------------------------------------------------------
    b.set_module("alu")
    imm = instr[:width] if width <= 4 else [
        # FlexiCore8 sign-extends the 4-bit immediate across the byte.
        instr[i] if i < 4 else instr[3] for i in range(width)
    ]
    if load_byte:
        # In the data cycle the raw fetched byte must reach the
        # accumulator: override the B operand with the instruction byte.
        operand = [
            b.mux(
                b.mux(mem_rdata[i], imm[i], sel_imm),
                instr[i] if i < 8 else b.const0,
                ldb_flag,
            )
            for i in range(width)
        ]
    else:
        operand = [
            b.mux(mem_rdata[i], imm[i], sel_imm) for i in range(width)
        ]
    sums, _cout, props, nands = b.ripple_adder(acc_q, operand)
    alu_out = b.mux4_word([sums, nands, props, operand], i4, i5)
    if load_byte:
        # Data cycle: pass the operand (the raw byte) straight through.
        alu_out = b.mux_word(alu_out, operand, ldb_flag)

    # ------------------------------------------------------------------
    # Accumulator (module 'acc').
    # ------------------------------------------------------------------
    b.set_module("acc")
    for bit in range(width):
        d = b.mux(acc_q[bit], alu_out[bit], acc_we)
        b.dff(d, out=acc_q[bit])

    # ------------------------------------------------------------------
    # PC and branch logic (module 'pc').
    # ------------------------------------------------------------------
    b.set_module("pc")
    pc_q = [b.net(f"pc_q{i}") for i in range(7)]
    inc, _ = b.incrementer(pc_q)
    taken = b.and_tree([i7, acc_q[width - 1], branch_gate])
    next_pc = b.mux_word(inc, instr[:7], taken)
    for bit in range(7):
        b.dff(next_pc[bit], out=pc_q[bit])

    # ------------------------------------------------------------------
    # IO ring buffers.
    # ------------------------------------------------------------------
    b.set_module("io")
    for bit in range(7):
        b.output(b.buf(pc_q[bit], drive=2), name=f"pc{bit}")
    for bit in range(width):
        b.output(b.buf(oport[bit], drive=2), name=f"oport{bit}")

    return b.build()


def build_flexicore4():
    """The fabricated 4-bit FlexiCore (Figure 4a die)."""
    return _build_accumulator_base(
        "flexicore4", width=4, mem_words=8, load_byte=False
    )


def build_flexicore8():
    """The fabricated 8-bit FlexiCore (Figure 4b die)."""
    return _build_accumulator_base(
        "flexicore8", width=8, mem_words=4, load_byte=True
    )


def build_flexicore4plus():
    """FlexiCore4+ (the shift+flags extended accumulator, Section 6)."""
    # Imported lazily: dse_cores depends on this module's builder base.
    from repro.netlist.dse_cores import build_extended_core

    return build_extended_core(
        frozenset({"shift", "flags"}), name="flexicore4plus"
    )


#: Named core builders, so a worker process (or a cache key) can refer
#: to a fabricated core by its stable name instead of a netlist object.
CORE_BUILDERS = {
    "flexicore4": build_flexicore4,
    "flexicore8": build_flexicore8,
    "flexicore4plus": build_flexicore4plus,
}


def build_core(name):
    """Build a registered core netlist by name."""
    try:
        return CORE_BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown core {name!r}; choose from {sorted(CORE_BUILDERS)}"
        ) from None


@lru_cache(maxsize=None)
def core_netlist(name):
    """The registered core ``name``'s netlist, built once per process
    and shared by every reader (none mutates it)."""
    return build_core(name)


@lru_cache(maxsize=None)
def core_timing(name):
    """The static timing report of :func:`core_netlist`, once per
    process."""
    from repro.netlist.sta import analyze

    return analyze(core_netlist(name))
