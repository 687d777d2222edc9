"""Verilog export, ISA reference generation, and the usage-variation
analysis of Section 4.2."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.isa import get_isa
from repro.isa.docs import all_references, isa_reference
from repro.netlist import build_flexicore4
from repro.netlist.export import cell_models, to_verilog


@pytest.fixture(scope="module")
def verilog():
    return to_verilog(build_flexicore4())


class TestVerilogExport:
    def test_module_header(self, verilog):
        assert verilog.splitlines()[1].startswith("module flexicore4")

    def test_every_gate_instantiated(self, verilog):
        netlist = build_flexicore4()
        instances = re.findall(r"^\s+(\w+_X\d)\s+\w+\s*\(", verilog,
                               re.MULTILINE)
        assert len(instances) == netlist.gate_count

    def test_only_library_cells_referenced(self, verilog):
        from repro.tech.cells import LIBRARY

        instances = set(re.findall(r"^\s+(\w+_X\d)\s", verilog,
                                   re.MULTILINE))
        assert instances <= set(LIBRARY)

    def test_flops_get_clock(self, verilog):
        for line in verilog.splitlines():
            if line.strip().startswith("DFF"):
                assert ".clk(clk)" in line

    def test_ports_present(self, verilog):
        for port in ("instr0", "instr7", "iport0", "pc6", "oport3"):
            assert port in verilog

    def test_module_comments_tag_architecture(self, verilog):
        for module in ("memory", "alu", "pc", "acc", "decoder"):
            assert f"// {module}" in verilog

    def test_cell_models_cover_library(self):
        from repro.tech.cells import LIBRARY

        models = cell_models()
        for cell_name in LIBRARY:
            assert f"module {cell_name} " in models

    def test_include_models_concatenates(self):
        netlist = build_flexicore4()
        full = to_verilog(netlist, include_models=True)
        assert "module NAND2_X1 " in full
        assert "module flexicore4" in full

    def test_balanced_module_endmodule(self, verilog):
        assert verilog.count("module ") - verilog.count("endmodule") == 0


class TestIsaReference:
    @pytest.mark.parametrize("isa_name", [
        "flexicore4", "flexicore8", "extacc", "loadstore",
    ])
    def test_reference_lists_every_mnemonic(self, isa_name):
        isa = get_isa(isa_name)
        text = isa_reference(isa)
        for mnemonic in isa.mnemonics():
            assert re.search(rf"^{mnemonic}\b", text, re.MULTILINE), \
                mnemonic

    def test_reference_shows_machine_parameters(self):
        text = isa_reference(get_isa("flexicore4"))
        assert "datapath: 4 bits" in text
        assert "8 words" in text

    def test_encodings_are_binary(self):
        text = isa_reference(get_isa("flexicore4"))
        assert re.search(r"[01]{8}", text)

    def test_all_references(self):
        text = all_references()
        assert "flexicore8" in text and "loadstore" in text

    def test_committed_reference_is_generated(self):
        # docs/ISA_REFERENCE.md's fenced block is all_references()'s
        # output, so an ISA edit that changes it must regenerate it.
        doc = Path(__file__).resolve().parents[1] / "docs" / "ISA_REFERENCE.md"
        _, block, _ = doc.read_text().split("```\n")
        assert block == all_references() + "\n"


class TestUsageVariation:
    @pytest.fixture(scope="class")
    def probe(self):
        from repro.fab import FC4_WAFER, fabricate_wafer

        rng = np.random.default_rng(33)
        wafer = fabricate_wafer(build_flexicore4(), FC4_WAFER, rng)
        return wafer.probe(4.5, rng)

    def test_distribution_shape(self, probe):
        from repro.fab.variation import usage_distribution

        dist = usage_distribution(probe, instructions_per_use=100)
        assert dist.minimum < dist.mean < dist.maximum
        assert len(dist.usages) > 20

    def test_variation_impacts_usage_count(self, probe):
        """Section 4.2's point: nominally identical dies differ
        significantly in how many uses a battery affords."""
        from repro.fab.variation import usage_distribution

        dist = usage_distribution(probe, instructions_per_use=100)
        assert dist.relative_spread > 0.3
        assert 0.08 < dist.rsd < 0.3

    def test_budget_scales_usages(self, probe):
        from repro.fab.variation import usage_distribution

        small = usage_distribution(probe, 100, budget_j=10.0)
        large = usage_distribution(probe, 100, budget_j=100.0)
        assert large.mean > 5 * small.mean

    def test_summary_text(self, probe):
        from repro.fab.variation import summarize, usage_distribution

        text = summarize(usage_distribution(probe, 100))
        assert "uses/die" in text

    def test_empty_wafer_rejected(self):
        from repro.fab.variation import usage_distribution
        from repro.fab.yield_model import WaferProbeResult

        with pytest.raises(ValueError):
            usage_distribution(
                WaferProbeResult(voltage=4.5, records=[]), 100
            )
