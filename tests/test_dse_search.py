"""Adaptive DSE search: the parametric space, the NSGA-II machinery,
and the Pareto/explorer bugfix sweep."""

import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.dse.explorer import explore, format_frontier, pareto
from repro.dse.search import (
    SearchConfig,
    crowding_distance,
    dominates,
    exhaustive,
    format_search_frontier,
    frontier_of,
    non_dominated_sort,
    search,
    weakly_dominates,
)
from repro.dse.space import DesignSpace, Genome
from repro.engine import Engine

#: A space tiny enough that searches finish in well under a second.
TINY = DesignSpace(operand_models=("acc", "ls"), microarchs=("SC",),
                   features=("adc", "shift"), bus_bits=(0,))


# ----------------------------------------------------------------------
# Satellite: Pareto frontier edge cases.
# ----------------------------------------------------------------------

class _Design:
    """A stand-in for a design's metrics whose area, energy and latency
    relative to a unit baseline are ``values``."""

    def __init__(self, values, feasible=True):
        self.nand2_area = values[0]
        self._relative = dict(zip(("energy_j", "time_s"), values[1:]))
        self.kernels = {"kernel": SimpleNamespace(feasible=feasible)}

    def mean_relative(self, base, field):
        return self._relative[field]


def pareto_over(points):
    """:func:`pareto`'s frontier over ``{name: values}``.  The unit
    baseline is infeasible, so only ``points`` are ranked."""
    results = {"unit": _Design((1.0, 1.0, 1.0), feasible=False)}
    results.update((name, _Design(values))
                   for name, values in points.items())
    width = len(next(iter(points.values()), ()))
    frontier, ranked = pareto(results, ("area", "energy", "latency")[:width],
                              baseline="unit")
    assert ranked == points
    return frontier


class TestParetoFrontierEdges:
    def test_duplicate_value_tuples_both_survive(self):
        points = {"a": (1.0, 2.0), "b": (1.0, 2.0), "c": (3.0, 3.0)}
        frontier = pareto_over(points)
        assert {p.name for p in frontier} == {"a", "b"}
        assert [p.dominates for p in frontier] == [("c",), ("c",)]

    def test_single_point_space(self):
        frontier = pareto_over({"only": (1.0, 1.0)})
        assert [p.name for p in frontier] == ["only"]
        assert frontier[0].dominates == ()

    def test_empty_points(self):
        assert pareto_over({}) == []

    def test_deterministic_under_shuffled_input_order(self):
        rng = random.Random(7)
        points = {f"d{i}": (float(i % 4), float((7 - i) % 5), float(i))
                  for i in range(12)}
        reference = pareto_over(points)
        for _ in range(5):
            items = list(points.items())
            rng.shuffle(items)
            assert pareto_over(dict(items)) == reference

    def test_first_metric_ties_order_by_name(self):
        points = {"bbb": (1.0, 2.0), "aaa": (1.0, 2.0)}
        assert [p.name for p in pareto_over(points)] == ["aaa", "bbb"]

    def test_dominates_requires_strict_improvement(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))
        assert dominates((1.0, 1.0), (1.0, 2.0))


# ----------------------------------------------------------------------
# Satellites: explorer baseline + formatting.
# ----------------------------------------------------------------------

class TestExplorerFixes:
    def test_missing_baseline_raises(self):
        from repro.dse.designs import ACC_SC, LS_SC

        with pytest.raises(ValueError, match="baseline"):
            explore(designs=(ACC_SC, LS_SC), transactions=2)

    def test_explicit_baseline_accepted(self):
        from repro.dse.designs import ACC_SC, LS_SC

        frontier, points = explore(
            designs=(ACC_SC, LS_SC), transactions=2,
            baseline=ACC_SC.name,
        )
        assert points[ACC_SC.name][0] == pytest.approx(1.0)

    def test_all_infeasible_yields_empty_frontier(self):
        from repro.dse.designs import ACC_SC

        # A 4-bit bus starves the single-cycle fetch: every kernel is
        # infeasible, so feasible_only filters the whole space away.
        frontier, points = explore(
            designs=(ACC_SC,), transactions=2, bus_bits=4,
            baseline=ACC_SC.name,
        )
        assert points == {}
        assert frontier == []

    def test_format_frontier_aligns_long_names(self):
        points = {
            "a-very-long-design-name": (1.0, 2.0),
            "short": (2.0, 1.0),
        }
        frontier = pareto_over(points)
        text = format_frontier(frontier, points, ("area", "energy"))
        header, *rows, _legend = text.splitlines()
        first_col = header.index("area") + len("area")
        for row in rows:
            # Each metric cell occupies its own 9-wide column ending
            # where the header's metric name ends.
            cell = row[first_col - 9:first_col]
            assert cell.strip(), row
            float(cell)  # parses clean: no name fused into the cell

    def test_duplicate_design_names_raise(self):
        from dataclasses import replace

        from repro.dse.designs import ACC_SC, LS_SC
        from repro.dse.evaluate import evaluate_all

        clone = replace(LS_SC, name=ACC_SC.name)
        with pytest.raises(ValueError, match="duplicate"):
            evaluate_all(designs=(ACC_SC, clone), transactions=2)


# ----------------------------------------------------------------------
# The parametric space.
# ----------------------------------------------------------------------

class TestDesignSpace:
    def test_size_matches_enumeration(self):
        space = DesignSpace(features=("adc", "shift", "mult"))
        genomes = space.enumerate()
        assert len(genomes) == space.size()
        assert len({g.key for g in genomes}) == len(genomes)

    def test_genome_canonical_form(self):
        a = Genome("acc", "SC", ("shift", "adc", "adc"))
        b = Genome("acc", "SC", ("adc", "shift"))
        assert a == b
        assert a.key == "acc-sc[adc+shift]"
        assert a.isa_name == "extacc[adc+shift]"
        assert Genome("ls", "MC", ("adc",)).features == ()

    def test_membership(self):
        assert Genome("acc", "SC", ("adc",)) in TINY
        assert Genome("acc", "P", ("adc",)) not in TINY
        assert Genome("acc", "SC", ("mult",)) not in TINY

    def test_mutate_and_crossover_stay_in_space(self):
        rng = np.random.default_rng(3)
        genome = TINY.random(rng)
        for _ in range(40):
            child = TINY.mutate(genome, rng)
            assert child in TINY
            other = TINY.crossover(genome, child, rng)
            assert other in TINY
            genome = child

    def test_neighbors_are_single_moves(self):
        space = DesignSpace(features=("adc", "shift"))
        genome = Genome("acc", "SC", ("adc",))
        neighbors = space.neighbors(genome)
        assert Genome("acc", "SC", ()) in neighbors
        assert Genome("acc", "SC", ("adc", "shift")) in neighbors
        assert Genome("acc", "P", ("adc",)) in neighbors
        assert Genome("acc", "SC", ("adc",), 8) in neighbors
        assert all(n != genome and n in space for n in neighbors)

    def test_anchors_cover_paper_grid(self):
        space = DesignSpace()
        anchors = space.anchors()
        keys = {a.key for a in anchors}
        assert "acc-sc[base]" in keys
        assert "acc-sc[shift]" in keys
        assert "ls-sc" in keys
        assert all(a in space for a in anchors)

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="operand model"):
            DesignSpace(operand_models=("stack",))
        with pytest.raises(ValueError, match="feature"):
            DesignSpace(features=("warp",))


# ----------------------------------------------------------------------
# NSGA-II machinery.
# ----------------------------------------------------------------------

class TestSortMachinery:
    def test_non_dominated_sort_fronts(self):
        entries = [
            (True, (1.0, 1.0)),   # front 0
            (True, (2.0, 2.0)),   # dominated by 0
            (True, (0.5, 3.0)),   # front 0 (trade-off)
            (False, (0.0, 0.0)),  # infeasible: dominated by any feasible
        ]
        fronts = non_dominated_sort(entries)
        assert fronts[0] == [0, 2]
        assert 3 in fronts[-1]

    def test_duplicate_entries_share_a_front(self):
        entries = [(True, (1.0, 1.0)), (True, (1.0, 1.0))]
        assert non_dominated_sort(entries)[0] == [0, 1]

    def test_crowding_boundaries_infinite(self):
        values = [(0.0, 3.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.0)]
        front = [0, 1, 2, 3]
        crowd = crowding_distance(values, front)
        assert crowd[0] == crowd[3] == float("inf")
        assert 0 < crowd[1] < float("inf")

    def test_weakly_dominates(self):
        assert weakly_dominates((1.0, 2.0), (1.0, 2.0))
        assert weakly_dominates((1.0, 1.0), (1.0, 2.0))
        assert not weakly_dominates((2.0, 1.0), (1.0, 2.0))


# ----------------------------------------------------------------------
# The search loop itself.
# ----------------------------------------------------------------------

class TestSearch:
    def test_deterministic_for_fixed_budget_and_seed(self):
        cfg = SearchConfig(budget=6, seed=11, population=4, space=TINY)
        runs = [
            search(cfg, engine=Engine(jobs=jobs, cache=None))
            for jobs in (1, 2)
        ]
        assert runs[0].frontier_names() == runs[1].frontier_names()
        first = [dict(t, cached=None) for t in runs[0].trail]
        second = [dict(t, cached=None) for t in runs[1].trail]
        assert first == second

    def test_budget_is_respected(self):
        cfg = SearchConfig(budget=3, seed=1, population=4, space=TINY)
        result = search(cfg, engine=Engine(jobs=1, cache=None))
        assert result.evaluations == 3
        assert len(result.trail) == 3

    def test_repeat_search_is_warm(self, tmp_path):
        cfg = SearchConfig(budget=6, seed=11, population=4, space=TINY)
        cold = search(cfg, engine=Engine(jobs=1, cache=tmp_path))
        warm = search(cfg, engine=Engine(jobs=1, cache=tmp_path))
        assert warm.frontier_names() == cold.frontier_names()
        assert warm.cache_hits >= 0.9 * warm.evaluations

    def test_frontier_dominates_exhaustive_grid(self, tmp_path):
        space = DesignSpace(
            operand_models=("acc", "ls"), microarchs=("SC",),
            features=("adc", "shift", "flags"), bus_bits=(0,),
        )
        # Single fidelity (screen == full) keeps this tiny-budget test
        # robust; the benchmark exercises the successive-halving path.
        cfg = SearchConfig(budget=7, seed=2022, population=6,
                           space=space, screen_transactions=12,
                           screen_wafers=5)
        engine = Engine(jobs=2, cache=tmp_path)
        result = search(cfg, engine=engine)
        grid = frontier_of(exhaustive(space=space, config=cfg,
                                      engine=engine),
                           cfg.objectives)
        searched = [entry.values for entry in result.frontier]
        assert grid, "exhaustive grid produced no feasible frontier"
        for _, grid_values in grid:
            assert any(weakly_dominates(found, grid_values)
                       for found in searched)

    def test_trail_and_table_shapes(self, tmp_path):
        cfg = SearchConfig(budget=4, seed=2, population=4, space=TINY)
        result = search(cfg, engine=Engine(jobs=1, cache=None))
        path = tmp_path / "trail.jsonl"
        path.write_text(result.trail_jsonl())
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["evaluation"] for r in records] == [1, 2, 3, 4]
        assert all({"design", "fidelity", "area", "cost", "energy"}
                   <= set(r) for r in records)
        table = format_search_frontier(result)
        assert "design" in table.splitlines()[0]
        assert f"{result.evaluations} evaluation(s)" in table

    def test_config_validation(self):
        with pytest.raises(ValueError, match="objective"):
            SearchConfig(objectives=("area", "beauty"))
        with pytest.raises(ValueError, match="budget"):
            SearchConfig(budget=0)

    def test_to_doc_round_trips_json(self):
        cfg = SearchConfig(budget=3, seed=4, population=4, space=TINY)
        result = search(cfg, engine=Engine(jobs=1, cache=None))
        doc = json.loads(json.dumps(result.to_doc()))
        assert doc["budget"] == 3
        assert doc["evaluations"] == 3
        for entry in doc["frontier"]:
            assert set(entry) >= {"design", "genome", "area", "cost",
                                  "energy", "yield", "feasible"}
