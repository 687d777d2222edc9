"""The differential conformance harness: oracles, shrinking, corpus.

The expensive guarantee ("budget-200 campaign finds nothing") lives in
CI; here each oracle runs a handful of seeded cases, the shrinker is
exercised on synthetic predicates, and a deliberately corrupted
predecode table proves the whole find -> shrink -> persist -> replay
loop catches a real divergence and reduces it to a tiny reproducer.
"""

import json

import pytest

from repro import conformance
from repro.conformance import corpus as corpus_store
from repro.conformance.case import (
    ConformanceCase,
    Divergence,
    compare_observations,
    first_difference,
)
from repro.conformance.generators import (
    materialize_source,
    random_flat_payload,
    random_paged_payload,
)
from repro.conformance.shrink import ddmin_list, shrink_case
from repro.engine import Engine, spawn_seeds
from repro.isa import get_isa
from repro.kernels.kernel import Target


@pytest.fixture(autouse=True)
def conform_state(tmp_path, monkeypatch):
    """Point the corpus at a scratch state dir for every test."""
    monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "state"))
    yield tmp_path / "state"


def run_slice(oracle_name, target, count, seed=2022):
    oracle = conformance.get_oracle(oracle_name)
    divergences = []
    for child in spawn_seeds(seed, count):
        case, div = conformance.run_case(oracle, target, child)
        if div is not None:
            divergences.append((case, div))
    return divergences


# ----------------------------------------------------------------------
# Case plumbing
# ----------------------------------------------------------------------

class TestCase_:
    def test_roundtrip_and_digest_stability(self):
        case = ConformanceCase(
            oracle="dispatch", target="flexicore4", seed=[1, [0]],
            payload={"shape": "flat", "instructions": [], "inputs": [3]},
        )
        again = ConformanceCase.from_dict(case.to_dict())
        assert again == case
        assert again.digest() == case.digest()
        # The digest identifies the payload, not the seed that found it.
        reseeded = ConformanceCase(
            oracle="dispatch", target="flexicore4", seed=[9, [4]],
            payload=case.payload,
        )
        assert reseeded.digest() == case.digest()

    def test_first_difference_paths(self):
        lhs = {"a": [1, {"b": 2}], "c": "x"}
        assert first_difference(lhs, {"a": [1, {"b": 2}], "c": "x"}) is None
        path, left, right = first_difference(
            lhs, {"a": [1, {"b": 3}], "c": "x"}
        )
        assert path == "a[1].b" and (left, right) == (2, 3)
        assert first_difference([1, 2], [1, 2, 3]) is not None

    def test_bool_int_not_conflated(self):
        assert first_difference(True, 1) is not None
        assert first_difference(1, 1.0) is None

    def test_compare_observations_names_both_sides(self):
        case = ConformanceCase("dispatch", "flexicore4", [0, []], {})
        div = compare_observations(
            case, {"reference": {"acc": 1}, "predecode": {"acc": 2}}
        )
        assert div is not None
        assert "reference" in div.detail and "predecode" in div.detail
        assert compare_observations(
            case, {"a": {"acc": 1}, "b": {"acc": 1}}
        ) is None


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

class TestGenerators:
    @pytest.mark.parametrize("target", conformance.ALL_TARGETS)
    def test_flat_payloads_assemble(self, target):
        isa = get_isa(target)
        for child in spawn_seeds(7, 10):
            payload = random_flat_payload(isa, child.rng())
            program = Target.named(target).assemble(
                materialize_source(payload)
            )
            assert len(program.image()) <= 128

    @pytest.mark.parametrize("target", conformance.ALL_TARGETS)
    def test_paged_payloads_assemble(self, target):
        isa = get_isa(target)
        for child in spawn_seeds(11, 6):
            payload = random_paged_payload(isa, child.rng())
            program = Target.named(target).assemble(
                materialize_source(payload)
            )
            assert len(program.pages) == len(payload["pages"])

    def test_any_sublist_still_assembles(self):
        # The shrinker's soundness requirement: dropping instructions
        # never produces an unassemblable program.
        isa = get_isa("flexicore4")
        payload = random_flat_payload(isa, spawn_seeds(3, 1)[0].rng())
        instructions = payload["instructions"]
        for keep in range(len(instructions)):
            partial = dict(payload, instructions=instructions[:keep])
            Target.named("flexicore4").assemble(
                materialize_source(partial)
            )


# ----------------------------------------------------------------------
# Oracle smokes: a few seeded cases per redundant pair must agree.
# ----------------------------------------------------------------------

class TestOracleSmoke:
    @pytest.mark.parametrize("target", conformance.ALL_TARGETS)
    def test_dispatch_agrees(self, target):
        assert run_slice("dispatch", target, 6) == []

    @pytest.mark.parametrize("target", conformance.ALL_TARGETS)
    def test_asm_roundtrip_agrees(self, target):
        assert run_slice("asm", target, 6) == []

    @pytest.mark.parametrize("target", conformance.ALL_TARGETS)
    def test_fab_scalar_mirror_agrees(self, target):
        assert run_slice("fab", target, 3) == []

    def test_backend_lanes_agree(self):
        assert run_slice("backend", "flexicore4", 2) == []

    def test_vector_lanes_agree(self):
        # Seeded so at least one case draws a 60..96-site campaign,
        # crossing the vector backend's 64-lane word boundary.
        assert run_slice("vector", "flexicore4", 3) == []

    def test_cache_roundtrip_agrees(self):
        assert run_slice("cache", "flexicore8", 1) == []


# ----------------------------------------------------------------------
# Planning and shrinking
# ----------------------------------------------------------------------

class TestPlanning:
    def test_budget_scales_with_cost(self):
        plan = dict(
            ((oracle, target), count)
            for oracle, target, count in conformance.plan_campaign(80)
        )
        dispatch = sum(c for (o, _), c in plan.items() if o == "dispatch")
        backend = sum(c for (o, _), c in plan.items() if o == "backend")
        assert dispatch == 80 and backend == 10

    def test_oracle_and_target_filters(self):
        plan = conformance.plan_campaign(
            10, oracle_names=["asm"], targets=["flexicore8"]
        )
        assert plan == [("asm", "flexicore8", 10)]

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError):
            conformance.plan_campaign(10, oracle_names=["nope"])


class TestShrink:
    def test_ddmin_isolates_culprit_pair(self):
        items = list(range(40))

        def fails(candidate):
            return 7 in candidate and 31 in candidate

        budget = [500]
        result = ddmin_list(items, fails, 0, budget)
        assert sorted(result) == [7, 31]

    def test_ddmin_respects_budget(self):
        items = list(range(64))
        budget = [3]
        result = ddmin_list(items, lambda c: 5 in c, 0, budget)
        assert 5 in result and budget[0] == 0

    def test_shrink_case_reduces_all_fields(self):
        case = ConformanceCase(
            oracle="dispatch", target="flexicore4", seed=[0, []],
            payload={
                "instructions": [{"mnemonic": "addi", "operands": [i % 4]}
                                 for i in range(20)],
                "inputs": [1, 2, 3, 4],
            },
        )

        def evaluate(_oracle, candidate):
            instrs = candidate.payload.get("instructions", [])
            if any(i["operands"] == [3] for i in instrs):
                return Divergence("dispatch", "flexicore4", "x", "boom")
            return None

        payload, report = shrink_case(None, case, evaluate)
        assert len(payload["instructions"]) == 1
        assert payload["inputs"] == []
        assert report["shrunk_size"] == 1
        assert report["executions"] <= 256


# ----------------------------------------------------------------------
# Corpus persistence
# ----------------------------------------------------------------------

class TestCorpus:
    def entry(self):
        case = ConformanceCase(
            oracle="asm", target="flexicore4", seed=[5, [1]],
            payload={"shape": "flat", "instructions": [], "inputs": []},
        )
        div = Divergence("asm", "flexicore4", "image", "aa vs bb")
        return corpus_store.make_entry(
            case, div, shrink_report={"executions": 3}
        )

    def test_save_list_load_clear(self):
        path = corpus_store.save_entry(self.entry())
        assert path.exists()
        entries = corpus_store.list_entries()
        assert len(entries) == 1
        assert entries[0]["divergence"]["field"] == "image"
        by_id = corpus_store.load_entry(entries[0]["id"])
        assert by_id["case"] == entries[0]["case"]
        by_path = corpus_store.load_entry(str(path))
        assert by_path["id"] == by_id["id"]
        assert corpus_store.clear() == 1
        assert corpus_store.list_entries() == []

    def test_load_entry_missing_raises(self):
        with pytest.raises(FileNotFoundError):
            corpus_store.load_entry("deadbeef")

    def test_entries_are_valid_json_documents(self):
        path = corpus_store.save_entry(self.entry())
        with open(path) as handle:
            document = json.load(handle)
        assert set(document) >= {"id", "case", "divergence", "shrink"}


# ----------------------------------------------------------------------
# The seeded divergence: a corrupted predecode table must be found,
# shrunk to a tiny program, persisted, and replayable.
# ----------------------------------------------------------------------

def _corrupting_predecode(real):
    """A predecode_image that sabotages every plain ALU semantic."""
    def make_bad(fn):
        def bad(state, ops, _fn=fn):
            _fn(state, ops)
            state.set_acc(0)
        return bad

    def corrupt(isa, image):
        program = real(isa, image)
        for table in program.pages:
            for offset in range(len(table.fns)):
                # Decode every offset now, so none is left for its
                # first fetch to fill in unsabotaged.
                decoded = table.entry(offset)
                if decoded is None or table.branches[offset] \
                        or table.specials[offset]:
                    continue
                if getattr(table.fns[offset], "__name__", "") == "bad":
                    continue
                table.fns[offset] = make_bad(table.fns[offset])
        return program
    return corrupt


class TestSeededDivergence:
    @pytest.fixture
    def broken_dispatch(self, monkeypatch):
        import repro.sim.dispatch as dispatch
        import repro.sim.predecode as predecode

        predecode.clear_cache()
        monkeypatch.setattr(
            dispatch, "predecode_image",
            _corrupting_predecode(predecode.predecode_image),
        )
        yield
        predecode.clear_cache()

    def find_divergent_case(self):
        oracle = conformance.get_oracle("dispatch")
        for child in spawn_seeds(99, 40):
            case, div = conformance.run_case(oracle, "flexicore4", child)
            if div is not None:
                return oracle, case, div
        pytest.fail("corrupted dispatch produced no divergence")

    def test_caught_shrunk_and_replayable(self, broken_dispatch):
        import repro.sim.predecode as predecode

        oracle, case, div = self.find_divergent_case()
        payload, report = conformance.shrink_case(
            oracle, case, conformance.evaluate_case
        )
        assert report["shrunk_instructions"] <= 8
        shrunk = case.with_payload(payload)
        final = conformance.evaluate_case(oracle, shrunk)
        assert final is not None

        entry = corpus_store.make_entry(shrunk, final, report)
        path = corpus_store.save_entry(entry)
        loaded = corpus_store.load_entry(entry["id"])
        assert loaded["_path"] == str(path)

        # Replaying the persisted case reproduces the divergence while
        # the bug is live...
        assert conformance.replay_entry(loaded) is not None
        # ...and passes once the dispatch table is repaired.
        import repro.sim.dispatch as dispatch

        corrupted = dispatch.predecode_image
        dispatch.predecode_image = predecode.predecode_image
        predecode.clear_cache()
        try:
            assert conformance.replay_entry(loaded) is None
        finally:
            dispatch.predecode_image = corrupted
            predecode.clear_cache()

    def test_campaign_surfaces_and_persists_failures(
            self, broken_dispatch):
        summary = conformance.run_campaign(
            1, 12, oracle_names=["dispatch"], targets=["flexicore4"],
            engine=Engine(jobs=1, cache=None),
        )
        assert summary["divergences"]
        entry = summary["divergences"][0]
        assert entry["shrink"]["shrunk_instructions"] <= 8
        assert corpus_store.list_entries()


# ----------------------------------------------------------------------
# Campaign + CLI
# ----------------------------------------------------------------------

class TestCampaignAndCli:
    def test_clean_campaign_reports_zero(self):
        summary = conformance.run_campaign(
            0, 8, oracle_names=["asm", "dispatch"],
            engine=Engine(jobs=1, cache=None),
        )
        assert summary["divergences"] == []
        assert summary["cases"] >= 6
        assert len(summary["slices"]) == 6

    def test_cli_run_exits_zero_when_clean(self, capsys):
        from repro.cli import main

        status = main(["conform", "run", "--seed", "3", "--budget", "6",
                       "--oracles", "asm",
                       "--targets", "flexicore4"])
        out = capsys.readouterr().out
        assert status == 0
        assert "no divergences" in out

    def test_cli_corpus_and_replay(self, capsys):
        from repro.cli import main

        status = main(["conform", "corpus"])
        assert status == 0
        assert "empty" in capsys.readouterr().out

        case = ConformanceCase(
            oracle="asm", target="flexicore4", seed=[5, [1]],
            payload={"shape": "flat",
                     "instructions": [
                         {"mnemonic": "addi", "operands": [1]}],
                     "inputs": []},
        )
        div = Divergence("asm", "flexicore4", "image", "synthetic")
        corpus_store.save_entry(corpus_store.make_entry(case, div))

        status = main(["conform", "corpus"])
        assert status == 0
        assert "asm" in capsys.readouterr().out

        # The stored case is healthy, so replay reports no divergence.
        status = main(["conform", "replay", case.digest()])
        assert status == 0
        assert "no longer reproduces" in capsys.readouterr().out

        status = main(["conform", "corpus", "--clear"])
        assert status == 0
        assert "removed 1" in capsys.readouterr().out

    def test_cli_replay_unknown_entry(self, capsys):
        from repro.cli import main

        assert main(["conform", "replay", "cafebabe"]) == 2
