"""Structural netlist builder: the thirteen cells, composed.

Only the Figure 1 library is available -- no AND/OR cells exist in the
process, so ``and_``/``or_`` compose NAND/NOR with inverters, exactly as
synthesis would map them.  Word-level helpers build the datapath idioms
the FlexiCores are made of: enable-muxed DFF registers, mux trees,
decoders, and the ripple-carry adder whose XOR/NAND side effects are the
whole ALU (Figure 3b).
"""

from typing import List, Optional, Sequence, Tuple

from repro.netlist.core import GateInst, Netlist
from repro.tech.cells import cells_by_function, default_cell


class NetlistBuilder:
    """Accumulates gates into a :class:`Netlist`."""

    def __init__(self, name):
        self.netlist = Netlist(name=name)
        self.netlist.constants["const0"] = 0
        self.netlist.constants["const1"] = 1
        self._net_counter = 0
        self._gate_counter = 0
        self.module = "core"

    # -- plumbing ----------------------------------------------------------

    def set_module(self, module):
        """Set the architectural module tag for subsequently added gates."""
        self.module = module
        return self

    def net(self, stem="n"):
        self._net_counter += 1
        return f"{stem}_{self._net_counter}"

    def input(self, name):
        self.netlist.inputs.append(name)
        return name

    def input_bus(self, stem, width):
        return [self.input(f"{stem}{i}") for i in range(width)]

    def output(self, net, name=None):
        """Mark ``net`` as a primary output (optionally aliased via BUF)."""
        if name is not None and name != net:
            net = self.buf(net, out=name)
        self.netlist.outputs.append(net)
        return net

    @property
    def const0(self):
        return "const0"

    @property
    def const1(self):
        return "const1"

    def _add(self, function, inputs, out=None, drive=1):
        variants = cells_by_function(function)
        cell = variants[min(drive, len(variants)) - 1]
        out = out or self.net(function)
        self._gate_counter += 1
        self.netlist.gates.append(GateInst(
            name=f"{function}_{self._gate_counter}",
            cell=cell,
            inputs=tuple(inputs),
            output=out,
            module=self.module,
        ))
        return out

    # -- the thirteen cells -------------------------------------------------

    def buf(self, a, out=None, drive=1):
        return self._add("buf", [a], out, drive)

    def inv(self, a, out=None, drive=1):
        return self._add("inv", [a], out, drive)

    def nand(self, a, b, out=None, drive=1):
        return self._add("nand2", [a, b], out, drive)

    def nor(self, a, b, out=None, drive=1):
        return self._add("nor2", [a, b], out, drive)

    def xor(self, a, b, out=None):
        return self._add("xor2", [a, b], out)

    def xnor(self, a, b, out=None):
        return self._add("xnor2", [a, b], out)

    def mux(self, a, b, sel, out=None):
        """2:1 mux: ``sel == 0`` selects ``a``."""
        return self._add("mux2", [a, b, sel], out)

    def dff(self, d, out=None, drive=1):
        return self._add("dff", [d], out, drive)

    # -- composed logic ------------------------------------------------------

    def and_(self, a, b, out=None):
        return self.inv(self.nand(a, b), out)

    def or_(self, a, b, out=None):
        return self.inv(self.nor(a, b), out)

    def and_tree(self, nets):
        nets = list(nets)
        if not nets:
            return self.const1
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(self.and_(nets[i], nets[i + 1]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        return nets[0]

    def or_tree(self, nets):
        nets = list(nets)
        if not nets:
            return self.const0
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(self.or_(nets[i], nets[i + 1]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        return nets[0]

    def nor_tree_is_zero(self, nets):
        """1 when every net is 0 (zero detect for branch flags)."""
        return self.inv(self.or_tree(nets))

    # -- word-level helpers ----------------------------------------------------

    def mux_word(self, a_bits, b_bits, sel):
        return [self.mux(a, b, sel) for a, b in zip(a_bits, b_bits)]

    def mux4_word(self, words, sel0, sel1):
        """4:1 word mux from three 2:1 stages per bit."""
        assert len(words) == 4
        result = []
        for lane in zip(*words):
            low = self.mux(lane[0], lane[1], sel0)
            high = self.mux(lane[2], lane[3], sel0)
            result.append(self.mux(low, high, sel1))
        return result

    def register(self, d_bits, enable=None):
        """Word register; with ``enable`` each bit recirculates via a mux
        (the idiomatic n-type enable flop)."""
        q_bits = [self.net("q") for _ in d_bits]
        for i, d in enumerate(d_bits):
            if enable is not None:
                d = self.mux(q_bits[i], d, enable)
            self.dff(d, out=q_bits[i])
        return q_bits

    def decoder(self, sel_bits, size=None):
        """One-hot decoder: ``size`` outputs from ``len(sel_bits)`` selects."""
        size = size if size is not None else (1 << len(sel_bits))
        inverted = [self.inv(s) for s in sel_bits]
        outputs = []
        for index in range(size):
            terms = [
                sel_bits[bit] if (index >> bit) & 1 else inverted[bit]
                for bit in range(len(sel_bits))
            ]
            outputs.append(self.and_tree(terms))
        return outputs

    def full_adder(self, a, b, c):
        """Full adder exposing the Figure 3b side effects.

        Returns (sum, carry, propagate=a^b, nand_ab).  The XOR function of
        the FlexiCore ALU is the propagate term; the NAND function is the
        ``nand_ab`` node -- both fall out of the adder for free.
        """
        p = self.xor(a, b)
        s = self.xor(p, c)
        nand_ab = self.nand(a, b)
        nand_pc = self.nand(p, c)
        carry = self.nand(nand_ab, nand_pc)
        return s, carry, p, nand_ab

    def ripple_adder(self, a_bits, b_bits, cin=None):
        """Ripple-carry adder.  Returns (sums, cout, propagates, nands)."""
        carry = cin if cin is not None else self.const0
        sums, props, nands = [], [], []
        for a, b in zip(a_bits, b_bits):
            s, carry, p, nand_ab = self.full_adder(a, b, carry)
            sums.append(s)
            props.append(p)
            nands.append(nand_ab)
        return sums, carry, props, nands

    def incrementer(self, bits):
        """+1 chain (the PC incrementer): per bit XOR + AND carry."""
        carry = self.const1
        sums = []
        for bit in bits:
            sums.append(self.xor(bit, carry))
            carry = self.and_(bit, carry)
        return sums, carry

    def barrel_shifter_right(self, bits, shamt_bits, arithmetic_sel=None):
        """Logarithmic right shifter; fill is 0 or the sign when
        ``arithmetic_sel`` (a net) is high."""
        width = len(bits)
        sign = bits[-1]
        fill = self.const0
        if arithmetic_sel is not None:
            fill = self.and_(sign, arithmetic_sel)
        current = list(bits)
        for stage, sel in enumerate(shamt_bits):
            amount = 1 << stage
            shifted = [
                current[i + amount] if i + amount < width else fill
                for i in range(width)
            ]
            current = self.mux_word(current, shifted, sel)
        return current

    def array_multiplier(self, a_bits, b_bits):
        """Unsigned array multiplier returning 2*width product bits --
        the expensive extension Figure 9 prices (and Section 6.1 rejects).
        """
        width = len(a_bits)
        partials = [
            [self.and_(a, b) for a in a_bits] for b in b_bits
        ]
        total = partials[0] + [self.const0] * width
        for row, partial in enumerate(partials[1:], start=1):
            addend = [self.const0] * row + partial + \
                [self.const0] * (width - row)
            sums, cout, _, _ = self.ripple_adder(
                total, addend[:len(total)]
            )
            total = sums
        return total[:2 * width]

    def build(self):
        self.netlist.validate()
        return self.netlist
