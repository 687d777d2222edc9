"""Campaign planning and execution for the conformance harness.

A campaign splits a case *budget* over the registered oracles (scaled
by each oracle's relative cost, so one slow gate-level case doesn't
starve a thousand cheap dispatch cases) and their targets, then runs
one engine job per ``(oracle, target)`` slice -- the
``conformance.campaign`` job function, which fans across ``--jobs``
workers exactly like the wafer Monte Carlo does.  Each case draws from
its own ``SeedSequence`` spawn child, so campaigns are bit-reproducible
at any worker count.

Failing cases are shrunk in the worker (delta debugging re-executes the
oracle, so it belongs next to the case) and returned as corpus
documents; the coordinating process persists them under
``.repro-state/conformance/`` and the CLI prints replay instructions.
"""

import time
import traceback

from repro import obs
from repro.conformance import corpus as corpus_store
from repro.conformance.case import ConformanceCase, Divergence
from repro.conformance.oracles import ORACLES, get_oracle
from repro.conformance.shrink import (
    DEFAULT_SHRINK_BUDGET,
    payload_size,
    shrink_case,
)
from repro.engine import Job, engine_or_default, job_function, spawn_seeds


def evaluate_case(oracle, case):
    """Execute one case, mapping executor crashes to divergences.

    A crash in either redundant path is a finding, not a harness
    abort: it is reported as a divergence whose field is
    ``exception`` so it shrinks and replays like any other failure.
    """
    try:
        return oracle.execute(case)
    except Exception:
        return Divergence(
            oracle=case.oracle, target=case.target,
            field="exception",
            detail=traceback.format_exc(limit=4).strip(),
        )


def run_case(oracle, target, child_seed):
    """Generate and execute one case from its own seed child."""
    rng = child_seed.rng()
    payload = oracle.generate(target, rng)
    case = ConformanceCase(
        oracle=oracle.name, target=target,
        seed=child_seed.token(), payload=payload,
    )
    return case, evaluate_case(oracle, case)


def plan_campaign(budget, oracle_names=None, targets=None):
    """``[(oracle_name, target, cases)]`` slices for one campaign.

    ``budget`` buys ``budget // cost`` cases per oracle (at least one),
    split evenly over that oracle's targets.
    """
    names = list(oracle_names) if oracle_names else list(ORACLES)
    slices = []
    for name in names:
        oracle = get_oracle(name)
        slice_targets = [
            target for target in (targets or oracle.targets)
            if target in oracle.targets
        ] or list(oracle.targets)
        cases = max(1, int(budget) // oracle.cost)
        per_target, extra = divmod(cases, len(slice_targets))
        for index, target in enumerate(slice_targets):
            count = per_target + (1 if index < extra else 0)
            if count:
                slices.append((name, target, count))
    return slices


@job_function("conformance.campaign", version="1")
def run_conformance(params, seed):
    """Engine job: one ``(oracle, target)`` slice of a campaign.

    Returns ``{"cases": n, "failures": [corpus documents]}``; failures
    are already shrunk.  Never caches meaningfully (each campaign seeds
    differently), but runs under the engine for worker fan-out, retry,
    and obs folding.
    """
    oracle = get_oracle(params["oracle"])
    target = params["target"]
    count = int(params["cases"])
    shrink_budget = int(params.get("shrink_budget",
                                   DEFAULT_SHRINK_BUDGET))
    failures = []
    with obs.span("conform.slice", oracle=oracle.name, target=target,
                  cases=count):
        for child in seed.spawn(count):
            case, divergence = run_case(oracle, target, child)
            if obs.active():
                obs.registry().counter(
                    "conform_cases_total",
                    "Conformance cases executed",
                ).inc(oracle=oracle.name, target=target)
            if divergence is None:
                continue
            if obs.active():
                obs.registry().counter(
                    "conform_divergences_total",
                    "Conformance divergences found (pre-shrink)",
                ).inc(oracle=oracle.name, target=target)
            with obs.span("conform.shrink", oracle=oracle.name,
                          size=payload_size(case.payload)):
                shrunk_payload, report = shrink_case(
                    oracle, case, evaluate_case, budget=shrink_budget
                )
            shrunk = case.with_payload(shrunk_payload)
            final = evaluate_case(oracle, shrunk)
            if final is None:  # pragma: no cover - flaky divergence
                shrunk, final = case, divergence
                report = dict(report, flaky=True)
            if obs.active():
                obs.registry().counter(
                    "conform_shrink_executions_total",
                    "Oracle re-executions spent shrinking",
                ).inc(report.get("executions", 0), oracle=oracle.name)
            failures.append(corpus_store.make_entry(
                shrunk, final, shrink_report=report
            ))
    return {"oracle": oracle.name, "target": target,
            "cases": count, "failures": failures}


def run_campaign(seed, budget, oracle_names=None, targets=None,
                 engine=None, shrink_budget=DEFAULT_SHRINK_BUDGET,
                 persist=True, state_root=None):
    """Run a full conformance campaign; returns the summary dict.

    ``{"cases", "slices": [per-slice dicts], "divergences": [corpus
    entries (persisted when ``persist``)], "elapsed_s"}``.
    """
    slices = plan_campaign(budget, oracle_names, targets)
    eng = engine_or_default(engine)
    started = time.monotonic()
    with obs.span("conform.campaign", budget=budget,
                  slices=len(slices)):
        results = eng.run([
            Job(
                run_conformance,
                {"oracle": name, "target": target, "cases": count,
                 "shrink_budget": shrink_budget},
                seed=child,
                label=f"conform:{name}:{target}",
            )
            for (name, target, count), child
            in zip(slices, spawn_seeds(seed, len(slices)))
        ], stage="conformance")
    divergences = []
    slice_summaries = []
    for result in results:
        slice_summaries.append({
            "oracle": result["oracle"], "target": result["target"],
            "cases": result["cases"],
            "divergences": len(result["failures"]),
        })
        for entry in result["failures"]:
            if persist:
                entry["_path"] = str(
                    corpus_store.save_entry(entry, root=state_root)
                )
            divergences.append(entry)
    return {
        "cases": sum(item["cases"] for item in slice_summaries),
        "slices": slice_summaries,
        "divergences": divergences,
        "elapsed_s": time.monotonic() - started,
    }


def format_campaign(summary, seed, budget):
    """The campaign report: what ``repro conform run`` prints and the
    ``conformance`` job serves as ``conformance.txt``."""
    lines = [
        f"conformance campaign: seed {seed}, budget {budget}, "
        f"{summary['cases']} cases in {summary['elapsed_s']:.1f} s",
        f"{'oracle':<10} {'target':<14} {'cases':>6} {'diverged':>9}",
    ]
    lines += [f"{item['oracle']:<10} {item['target']:<14} "
              f"{item['cases']:6d} {item['divergences']:9d}"
              for item in summary["slices"]]
    if not summary["divergences"]:
        lines.append("no divergences: all redundant paths agree")
        return "\n".join(lines)
    lines += ["", f"{len(summary['divergences'])} divergence(s):"]
    for entry in summary["divergences"]:
        divergence = entry["divergence"]
        shrink = entry.get("shrink") or {}
        lines += [
            f"  {entry['id']}: {divergence['oracle']} on "
            f"{divergence['target']} at {divergence['field']}",
            f"    {divergence['detail'][:200]}",
            f"    shrunk {shrink.get('original_size', '?')} -> "
            f"{shrink.get('shrunk_size', '?')} items; saved to "
            f"{entry.get('_path', '(not persisted)')}",
        ]
    lines.append("replay with 'repro conform replay <id>'")
    return "\n".join(lines)


def replay_entry(entry):
    """Re-execute a corpus entry's case; returns a Divergence or None."""
    case = corpus_store.entry_case(entry)
    oracle = get_oracle(case.oracle)
    with obs.span("conform.replay", oracle=case.oracle,
                  target=case.target):
        return evaluate_case(oracle, case)
