"""Fabrication and yield Monte Carlo (Section 4)."""

import numpy as np
import pytest

from repro.fab import (
    FC4_WAFER,
    FC8_WAFER,
    Wafer,
    fabricate_wafer,
    run_yield_study,
)
from repro.fab.wafer import EDGE_EXCLUSION_MM, WAFER_DIAMETER_MM
from repro.netlist import build_flexicore4, build_flexicore8


@pytest.fixture(scope="module")
def fc4_netlist():
    return build_flexicore4()


@pytest.fixture(scope="module")
def fc8_netlist():
    return build_flexicore8()


class TestWaferGeometry:
    def test_die_count_near_photo(self):
        # Figure 4a shows 123 FlexiCore4 dies on the 200 mm wafer.
        wafer = Wafer.standard()
        assert 110 <= len(wafer) <= 135

    def test_all_sites_inside_wafer(self):
        wafer = Wafer.standard()
        for site in wafer.sites:
            assert site.radius_mm < WAFER_DIAMETER_MM / 2

    def test_exclusion_zone_partition(self):
        wafer = Wafer.standard()
        assert len(wafer.inclusion_sites) + len(wafer.edge_sites) == \
            len(wafer)
        boundary = WAFER_DIAMETER_MM / 2 - EDGE_EXCLUSION_MM
        for site in wafer.inclusion_sites:
            assert site.radius_mm <= boundary
        for site in wafer.edge_sites:
            assert site.radius_mm > boundary

    def test_edge_zone_is_significant(self):
        wafer = Wafer.standard()
        assert len(wafer.edge_sites) >= 0.15 * len(wafer)

    def test_grid_shape(self):
        rows, cols = Wafer.standard().grid_shape()
        assert rows == cols


class TestFabrication:
    def test_deterministic_under_seed(self, fc4_netlist):
        w1 = fabricate_wafer(fc4_netlist, FC4_WAFER,
                             np.random.default_rng(3))
        w2 = fabricate_wafer(fc4_netlist, FC4_WAFER,
                             np.random.default_rng(3))
        assert [d.defects for d in w1.dies] == [d.defects for d in w2.dies]
        assert [d.speed_factor for d in w1.dies] == \
            [d.speed_factor for d in w2.dies]

    def test_edge_dies_are_worse(self, fc4_netlist):
        rng = np.random.default_rng(11)
        defect_rates = {"edge": [], "incl": []}
        for _ in range(20):
            wafer = fabricate_wafer(fc4_netlist, FC4_WAFER, rng)
            for die in wafer.dies:
                bucket = ("incl" if die.site.in_inclusion_zone else "edge")
                defect_rates[bucket].append(die.has_defect)
        assert np.mean(defect_rates["edge"]) > \
            2 * np.mean(defect_rates["incl"])


class TestProbing:
    def test_functional_dies_have_zero_errors(self, fc4_netlist):
        rng = np.random.default_rng(5)
        wafer = fabricate_wafer(fc4_netlist, FC4_WAFER, rng)
        probe = wafer.probe(4.5, rng)
        for record in probe.records:
            if record.functional:
                assert record.errors == 0
                assert record.failure_mode is None
            else:
                assert record.errors > 0
                assert record.failure_mode in ("defect", "timing")

    def test_lower_voltage_only_loses_dies(self, fc4_netlist):
        """Any die functional at 3 V must also be functional at 4.5 V
        (same defects, easier timing)."""
        rng = np.random.default_rng(6)
        wafer = fabricate_wafer(fc4_netlist, FC4_WAFER, rng)
        at3 = wafer.probe(3.0, rng)
        at45 = wafer.probe(4.5, rng)
        for r3, r45 in zip(at3.records, at45.records):
            if r3.functional:
                assert r45.functional

    def test_current_scales_with_voltage(self, fc4_netlist):
        rng = np.random.default_rng(7)
        wafer = fabricate_wafer(fc4_netlist, FC4_WAFER, rng)
        mean3 = wafer.probe(3.0, rng).current_statistics()[0]
        mean45 = wafer.probe(4.5, rng).current_statistics()[0]
        assert mean3 < mean45

    def test_maps_cover_all_sites(self, fc4_netlist):
        rng = np.random.default_rng(8)
        wafer = fabricate_wafer(fc4_netlist, FC4_WAFER, rng)
        probe = wafer.probe(4.5, rng)
        assert len(probe.error_map()) == len(wafer.wafer)
        assert len(probe.current_map()) == len(wafer.wafer)


class TestYieldCalibration:
    """The headline Table 5 / Section 4.2 numbers, in loose bands."""

    @pytest.fixture(scope="class")
    def summaries(self, fc4_netlist, fc8_netlist):
        return {
            "fc4": run_yield_study(fc4_netlist, FC4_WAFER, wafers=8,
                                   seed=2022, core="flexicore4"),
            "fc8": run_yield_study(fc8_netlist, FC8_WAFER, wafers=8,
                                   seed=2022, core="flexicore8"),
        }

    def test_fc4_inclusion_yield_at_4v5(self, summaries):
        assert 0.72 <= summaries["fc4"][4.5]["inclusion"] <= 0.90

    def test_fc4_inclusion_yield_at_3v(self, summaries):
        assert 0.42 <= summaries["fc4"][3.0]["inclusion"] <= 0.68

    def test_fc8_inclusion_yield_at_4v5(self, summaries):
        assert 0.45 <= summaries["fc8"][4.5]["inclusion"] <= 0.70

    def test_fc8_collapses_at_3v(self, summaries):
        # Paper: 6%.  The 8-bit adder misses timing on most corners.
        assert summaries["fc8"][3.0]["inclusion"] <= 0.15

    def test_full_wafer_below_inclusion(self, summaries):
        for core in summaries.values():
            for voltage in (3.0, 4.5):
                assert core[voltage]["full"] < core[voltage]["inclusion"]

    def test_current_rsd_near_paper(self, summaries):
        # Section 4.2: 15.3% (FlexiCore4) and 21.5% (FlexiCore8).
        assert 0.11 <= summaries["fc4"][4.5]["rsd"] <= 0.20
        assert 0.16 <= summaries["fc8"][4.5]["rsd"] <= 0.27

    def test_fc4_mean_current_near_1_1_ma(self, summaries):
        assert 0.9 <= summaries["fc4"][4.5]["mean_current_ma"] <= 1.3
        assert 0.6 <= summaries["fc4"][3.0]["mean_current_ma"] <= 0.9

    def test_fc8_refined_process_draws_less(self, summaries):
        assert summaries["fc8"][4.5]["mean_current_ma"] < \
            summaries["fc4"][4.5]["mean_current_ma"]


class TestGateLevelYield:
    """Wafer-scale gate-level probing (one cross-check lane per die)."""

    @pytest.fixture(scope="class")
    def campaign(self, fc4_netlist):
        from repro.fab.process import process_for
        from repro.fab.yield_model import gate_probe_wafer
        from repro.isa import get_isa

        rng = np.random.default_rng(11)
        fabricated = fabricate_wafer(
            fc4_netlist, process_for("flexicore4"), rng
        )
        [(probes, record)] = gate_probe_wafer(
            fc4_netlist, get_isa("flexicore4"), [(fabricated, rng)],
            backend="vector", max_instructions=60,
        )
        return fc4_netlist, fabricated, probes, record

    def test_defect_free_dies_pass(self, campaign):
        _, _, _, record = campaign
        for die in record["dies"]:
            if die["defects"] == 0:
                assert die["fault_sites"] == []
                assert die["mismatches"] == 0

    def test_sampled_dies_bit_identical_to_interpreted(self, campaign):
        """Replaying a die's fault draw through the single-lane
        interpreted reference reproduces the vector campaign's mismatch
        count exactly -- the acceptance contract for the gate-level
        yield study."""
        from repro.fab.testing import directed_program
        from repro.isa import get_isa
        from repro.netlist.verify import run_cross_check_batch

        netlist, _, _, record = campaign
        isa = get_isa("flexicore4")
        defective = [d for d in record["dies"] if d["fault_sites"]]
        healthy = [d for d in record["dies"] if not d["fault_sites"]]
        sampled = defective[:3] + healthy[:1]
        assert len(sampled) >= 2
        faults = [d["fault_sites"] or None for d in sampled]
        replayed = run_cross_check_batch(
            netlist, isa, directed_program(isa),
            inputs=record["inputs"],
            max_instructions=record["max_instructions"],
            faults=faults, backend="interpreted",
        )
        for die, outcome in zip(sampled, replayed):
            assert outcome.mismatches == die["mismatches"]

    def test_gate_yield_bounded_below_by_analytic(self, campaign):
        """The only way the gate-level verdict can differ from the
        analytic model is a test escape (a defective die whose faults
        the vectors never observe), so gate-level functional counts
        dominate the analytic ones on the same wafer."""
        _, fabricated, probes, _ = campaign
        rng = np.random.default_rng(99)
        for voltage, probe in probes.items():
            analytic = fabricated.probe(voltage, rng)
            gate_pass = sum(r.functional for r in probe.records)
            analytic_pass = sum(r.functional for r in analytic.records)
            assert gate_pass >= analytic_pass

    def test_mismatching_die_fails_every_voltage(self, campaign):
        _, _, probes, record = campaign
        bad = [i for i, d in enumerate(record["dies"])
               if d["mismatches"] > 0]
        assert bad, "seeded wafer should have caught defects"
        for probe in probes.values():
            for index in bad:
                assert not probe.records[index].functional

    def test_shared_campaign_matches_wafer_alone(self, fc4_netlist):
        """A wafer probed in one campaign with others gets the results
        it gets alone: its draws come from its own generator, and its
        lanes see its own IPORT samples."""
        from repro.fab.process import process_for
        from repro.fab.yield_model import gate_probe_wafer
        from repro.isa import get_isa

        def wafers(seeds):
            pairs = []
            for seed in seeds:
                rng = np.random.default_rng(seed)
                pairs.append((fabricate_wafer(
                    fc4_netlist, process_for("flexicore4"), rng
                ), rng))
            return pairs

        isa = get_isa("flexicore4")
        shared = gate_probe_wafer(
            fc4_netlist, isa, wafers([11, 12]), max_instructions=60,
        )
        alone = [
            gate_probe_wafer(
                fc4_netlist, isa, wafers([seed]), max_instructions=60,
            )[0]
            for seed in (11, 12)
        ]
        assert shared[0][1]["inputs"] != shared[1][1]["inputs"]
        for (probes, campaign), (solo_probes, solo_campaign) in zip(
                shared, alone):
            assert campaign == solo_campaign
            for voltage, probe in probes.items():
                assert probe.records == solo_probes[voltage].records

    def test_study_identical_for_every_worker_count(self, tmp_path,
                                                    monkeypatch):
        """Five wafers split 5, 2+3, 1+2+2 and 1+1+1+2 over 1-4
        workers, one campaign (one fab.gate_probe span) per range, and
        the study comes out equal every time."""
        from repro import obs
        from repro.engine import Engine
        from repro.fab import run_gate_yield_study
        from repro.fab.process import process_for

        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "state"))
        studies = []
        for jobs in (1, 2, 3, 4):
            obs.reset()
            obs.configure(trace=True)
            try:
                with Engine(jobs=jobs) as engine:
                    studies.append(run_gate_yield_study(
                        process_for("flexicore4"), seed=5, wafers=5,
                        max_instructions=60, engine=engine,
                    ))
                probes = [record for record in obs.collected_spans()
                          if record["name"] == "fab.gate_probe"]
            finally:
                obs.reset()
            sizes = [5 * (i + 1) // jobs - 5 * i // jobs
                     for i in range(jobs)]
            assert sorted(record["attrs"]["dies"] for record in probes) \
                == sorted(124 * size for size in sizes)
        assert len(studies[0]["wafers"]) == 5
        for study in studies[1:]:
            assert study == studies[0]

    def test_study_runs_through_engine(self):
        from repro.fab import run_gate_yield_study
        from repro.fab.process import process_for

        study = run_gate_yield_study(
            process_for("flexicore4"), seed=5, wafers=2,
        )
        assert len(study["wafers"]) == 2
        for voltage in (3.0, 4.5):
            bucket = study["summary"][voltage]
            assert 0.0 <= bucket["full"] <= bucket["inclusion"] <= 1.0
        # Same seed, same study: the job graph is deterministic.
        again = run_gate_yield_study(
            process_for("flexicore4"), seed=5, wafers=2,
        )
        assert again["summary"] == study["summary"]
