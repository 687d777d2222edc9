"""Experiment entry points: structured data sanity + formatting."""

from pathlib import Path

import pytest

from repro.experiments import figures, paper_data, tables
from repro.experiments.report import ALL_EXPERIMENTS, headline_summary


class TestModuleTables:
    def test_table2_memory_dominates(self):
        rows = tables.table2()
        assert rows["memory"]["area_pct"] == max(
            rows[m]["area_pct"] for m in rows if m != "total"
        )
        assert rows["memory"]["area_pct"] > 40

    def test_table2_close_to_paper(self):
        rows = tables.table2()
        for module, paper in paper_data.TABLE2_AREA_PCT.items():
            assert abs(rows[module]["area_pct"] - paper) < 12, module

    def test_table3_alu_grows_on_flexicore8(self):
        fc4 = tables.table2()
        fc8 = tables.table3()
        assert fc8["alu"]["area_pct"] > fc4["alu"]["area_pct"]
        assert fc8["memory"]["area_pct"] < fc4["memory"]["area_pct"]

    def test_fractions_total_100(self):
        for rows in (tables.table2(), tables.table3()):
            assert rows["total"]["area_pct"] == pytest.approx(100.0)

    def test_comb_and_noncomb_sum(self):
        for rows in (tables.table2(), tables.table3()):
            for module, row in rows.items():
                assert row["noncomb_pct"] + row["comb_pct"] == \
                    pytest.approx(100.0)

    def test_alu_is_fully_combinational(self):
        assert tables.table2()["alu"]["noncomb_pct"] == 0.0


class TestTable4:
    def test_three_cores(self):
        rows = tables.table4()
        assert set(rows) == {"FlexiCore4", "FlexiCore8", "FlexiCore4+"}

    def test_device_counts_near_paper(self):
        rows = tables.table4()
        for name, row in rows.items():
            paper = paper_data.TABLE4[name]["devices"]
            assert 0.6 * paper <= row["devices"] <= 1.4 * paper, name

    def test_flexicore4plus_has_more_devices_than_fc4(self):
        rows = tables.table4()
        assert rows["FlexiCore4+"]["devices"] > \
            rows["FlexiCore4"]["devices"]

    def test_refined_process_lowers_power(self):
        rows = tables.table4()
        # Table 4: FlexiCore4+ (refined pull-ups) draws less than FC4.
        assert rows["FlexiCore4+"]["mean_power_mw"] < \
            rows["FlexiCore4"]["mean_power_mw"]


class TestTable5:
    def test_within_paper_bands(self):
        rows = tables.table5()
        for core, row in rows.items():
            paper = paper_data.TABLE5[core]
            for voltage in (3.0, 4.5):
                assert abs(row["incl"][voltage]
                           - paper["incl"][voltage]) < 12
                assert abs(row["full"][voltage]
                           - paper["full"][voltage]) < 12


class TestTable6:
    def test_all_kernels_present(self):
        rows = tables.table6()
        assert set(rows) == set(paper_data.TABLE6)

    def test_ordering_roughly_matches_paper(self):
        """The big kernels (Calculator, DecTree, XorShift) stay big; the
        small ones stay small."""
        rows = tables.table6()
        measured = {k: v["static_instructions"] for k, v in rows.items()}
        assert measured["Calculator"] > measured["Thresholding"]
        assert measured["XorShift8"] > measured["Parity Check"]
        assert measured["Decision Tree"] > measured["IntAvg"]


class TestTable7:
    def test_this_work_row(self):
        data = tables.table7()
        tw = data["this_work"]
        assert tw["width"] == 4
        assert tw["clock_khz"] == 12.5
        assert 0.6 <= tw["yield"] <= 0.95

    def test_flexicore_is_smallest_flexible_processor(self):
        data = tables.table7()
        flexible = [row for row in data["others"]
                    if row["flexible"] and row["devices"] > 0]
        assert all(data["this_work"]["devices"] < row["devices"]
                   for row in flexible
                   if row["name"] != "MLIC")


class TestWaferFigures:
    def test_figure6_functional_dies_have_zero_errors(self):
        maps = figures.figure6()
        for (core, voltage), cells in maps.items():
            assert any(errors == 0 for errors in cells.values()), \
                (core, voltage)

    def test_figure6_fc8_3v_mostly_failing(self):
        maps = figures.figure6()
        cells = maps[("FlexiCore8", 3.0)]
        failing = sum(1 for errors in cells.values() if errors > 0)
        assert failing / len(cells) > 0.8

    def test_figure7_rsd_bands(self):
        data = figures.figure7()
        assert 0.10 < data[("FlexiCore4", 4.5)]["rsd"] < 0.22
        assert 0.14 < data[("FlexiCore8", 4.5)]["rsd"] < 0.30


class TestFigure8:
    def test_rows_present(self):
        rows = figures.figure8()["rows"]
        assert "Calculator (mul)" in rows
        assert "Calculator (div)" in rows
        assert "XorShift8" in rows

    def test_latencies_in_milliseconds(self):
        rows = figures.figure8()["rows"]
        for name, row in rows.items():
            assert 0.1 < row["time_ms"] < 40, name

    def test_multiplication_is_slowest(self):
        rows = figures.figure8()["rows"]
        slowest = max(rows, key=lambda name: rows[name]["time_ms"])
        assert slowest == "Calculator (mul)"

    def test_energy_proportional_to_time(self):
        data = figures.figure8()
        for row in data["rows"].values():
            expected = (row["instructions"]
                        * data["nj_per_instruction"] * 1e-3)
            assert row["energy_uj"] == pytest.approx(expected)

    def test_nj_per_instruction_near_360(self):
        assert 250 < figures.figure8()["nj_per_instruction"] < 500


class TestDseFigures:
    def test_figure12_acc_sc_anchor(self):
        rows = figures.figure12()
        assert rows["Acc SC"]["area"] == pytest.approx(1.0)
        assert rows["Acc SC"]["code_size"] == pytest.approx(1.0)

    def test_figure13_bus_infeasibility(self):
        rows = figures.figure13()
        assert rows["LS SC"]["bus"] is None
        assert rows["LS P"]["bus"] is None
        assert rows["LS MC"]["bus"] is not None

    def test_figure11_has_average_row(self):
        data = figures.figure11()
        for table in (data["performance"], data["energy"]):
            for design_rows in table.values():
                assert "Avg" in design_rows


class TestFormatting:
    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_formatters_return_text(self, name):
        text = ALL_EXPERIMENTS[name]()
        assert isinstance(text, str)
        assert len(text.splitlines()) >= 3

    def test_headline_summary(self):
        text = headline_summary()
        assert "yield" in text
        assert "RSD" in text

    def test_report_generation(self, tmp_path):
        from repro.experiments.report import generate

        path = tmp_path / "EXPERIMENTS.md"
        document = generate(str(path))
        assert path.exists()
        assert "Table 5" in document
        assert "Figure 13" in document
        # The committed EXPERIMENTS.md is exactly what the program
        # prints; regenerate it with `repro report -o EXPERIMENTS.md`.
        committed = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
        assert document == committed.read_text(encoding="utf-8")
