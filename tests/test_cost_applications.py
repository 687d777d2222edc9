"""Cost model, Section 4.3 dicing analysis, Table 1 feasibility, Pareto."""

import pytest

from repro.fab import cost, dicing


class TestCostModel:
    def test_sub_cent_at_paper_yield(self):
        """Section 1: 81% yield enables sub-cent cost at volume."""
        estimate = cost.flexible_die_cost(0.81)
        assert estimate.sub_cent
        assert estimate.cost_per_good_die_usd > 0.001  # not absurd

    def test_flexicore8_yield_also_clears(self):
        assert cost.flexible_die_cost(0.57).sub_cent

    def test_break_even_yield_below_measured(self):
        minimum = cost.yield_for_target_cost(0.01)
        assert 0.3 < minimum < 0.81

    def test_research_layout_is_not_sub_cent(self):
        # 124 sparse sites per wafer cannot amortize the wafer cost.
        assert not cost.research_die_cost(0.81).sub_cent

    def test_zero_yield_is_infinite_cost(self):
        estimate = cost.flexible_die_cost(0.0)
        assert estimate.cost_per_good_die_usd == float("inf")

    def test_cost_monotone_in_yield(self):
        curve = cost.cost_sensitivity([0.2, 0.5, 0.8])
        assert curve[0.2] > curve[0.5] > curve[0.8]

    def test_production_density_far_above_research(self):
        assert cost.production_die_count() > 1500

    def test_impossible_target(self):
        assert cost.yield_for_target_cost(
            cost.TEST_COST_USD / 2
        ) == float("inf")


class TestDicing:
    def test_blade_waste_range_matches_section43(self):
        # "wasting more than half to 90% of the wafer"
        gentle = dicing.blade_dicing(50.0)
        harsh = dicing.blade_dicing(200.0)
        assert gentle.waste_fraction > 0.5
        assert 0.80 < harsh.waste_fraction < 0.95

    def test_plasma_reduces_waste_but_not_io(self):
        plasma = dicing.plasma_dicing()
        assert plasma.waste_fraction < dicing.blade_dicing(50.0).waste_fraction
        assert plasma.ios_per_side <= 2

    def test_io_limitation(self):
        # "each side will support 1-2 IOs at a 10 um pitch, which is
        # insufficient for a FlexiCore" (FlexiCore4 needs 24 data pads).
        analysis = dicing.blade_dicing()
        assert 1 <= analysis.ios_per_side <= 2
        assert 4 * analysis.ios_per_side < 24

    def test_summary_fields(self):
        summary = dicing.section43_summary()
        assert summary["dies_per_wafer"] > 100_000
        assert summary["plasma_waste"] < summary["blade_waste_range"][0]


class TestApplications:
    @pytest.fixture(scope="class")
    def reports(self):
        from repro.experiments.tables import table1

        return {r.application.name: r for r in table1()}

    def test_all_table1_rows_assessed(self, reports):
        from repro.tech.applications import APPLICATIONS

        assert len(reports) == len(APPLICATIONS)

    def test_low_rate_sensors_feasible(self, reports):
        for name in ("Smart Bandage", "Body Temperature Sensor",
                     "Light Level Sensor", "Heart Beat Sensor"):
            assert reports[name].rate_ok, name

    def test_precision_classification(self, reports):
        assert reports["Heart Beat Sensor"].precision_ok_4bit
        assert not reports["Blood Pressure Sensor"].precision_ok_4bit
        assert reports["Blood Pressure Sensor"].precision_ok_8bit
        assert not reports["Tremor Sensor"].precision_ok_8bit

    def test_battery_life_scales_with_duty(self, reports):
        # A 0.01 Hz bandage outlives a 25 Hz odor sensor.
        assert reports["Smart Bandage"].battery_days > \
            reports["Odor Sensor"].battery_days

    def test_two_week_class_exists(self, reports):
        # Section 5.2's example lands at roughly two weeks; some Table 1
        # duty cycles should land in that band.
        days = [r.battery_days for r in reports.values()]
        assert any(7 <= d <= 60 for d in days)


class TestParetoExplorer:
    def test_frontier_contains_ls_p(self):
        from repro.dse.explorer import explore

        frontier, points = explore(metrics=("area", "energy"))
        names = {point.name for point in frontier}
        assert "LS P" in names          # best energy
        assert "FlexiCore4" in names    # smallest area

    def test_dominated_designs_excluded(self):
        from repro.dse.explorer import explore

        frontier, points = explore(metrics=("area", "energy"))
        names = {point.name for point in frontier}
        assert "Acc MC" not in names  # dominated by Acc P

    def test_narrow_bus_frontier_excludes_infeasible(self):
        from repro.dse.explorer import explore

        frontier, points = explore(metrics=("area", "energy"),
                                   bus_bits=8)
        assert "LS P" not in points
        assert "LS SC" not in points

    def test_dominates_relation(self):
        from repro.dse.search import dominates

        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 2), (2, 1))
        assert not dominates((1, 1), (1, 1))

    def test_unknown_metric_rejected(self):
        from repro.dse.explorer import explore

        with pytest.raises(KeyError):
            explore(metrics=("vibes",))

    def test_format_frontier(self):
        from repro.dse.explorer import explore, format_frontier

        metrics = ("area", "energy")
        frontier, points = explore(metrics=metrics)
        text = format_frontier(frontier, points, metrics)
        assert "Pareto-optimal" in text
