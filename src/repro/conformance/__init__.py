"""repro.conformance: randomized differential testing of redundant paths.

Everywhere the codebase keeps two implementations of one contract --
the reference step interpreter vs the predecoded fast path, the
interpreted vs the compiled gate backend, cached vs freshly computed
engine results, the vectorized vs a scalar wafer Monte Carlo, and the
assembler vs the disassembler -- this package generates random but
valid stimuli, drives both sides, and demands bit-identical answers.

Failures are automatically delta-debugged down to minimal reproducers
and persisted as a replayable corpus under
``.repro-state/conformance/``; see ``docs/CONFORMANCE.md`` and the
``repro conform`` CLI.
"""

from repro.conformance.case import (
    ConformanceCase,
    Divergence,
    compare_observations,
    first_difference,
)
from repro.conformance.corpus import (
    corpus_dir,
    entry_case,
    list_entries,
    load_entry,
    make_entry,
    save_entry,
)
from repro.conformance.oracles import (
    ALL_TARGETS,
    ORACLES,
    Oracle,
    get_oracle,
    register_oracle,
)
from repro.conformance.runner import (
    evaluate_case,
    format_campaign,
    plan_campaign,
    replay_entry,
    run_campaign,
    run_case,
    run_conformance,
)
from repro.conformance.shrink import (
    DEFAULT_SHRINK_BUDGET,
    instruction_count,
    payload_size,
    shrink_case,
)

__all__ = [
    "ALL_TARGETS",
    "ConformanceCase",
    "DEFAULT_SHRINK_BUDGET",
    "Divergence",
    "ORACLES",
    "Oracle",
    "compare_observations",
    "corpus_dir",
    "entry_case",
    "evaluate_case",
    "first_difference",
    "format_campaign",
    "get_oracle",
    "instruction_count",
    "list_entries",
    "load_entry",
    "make_entry",
    "payload_size",
    "plan_campaign",
    "register_oracle",
    "replay_entry",
    "run_campaign",
    "run_case",
    "run_conformance",
    "save_entry",
    "shrink_case",
]
