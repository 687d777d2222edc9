"""``python -m benchmarks.suite``: run the benchmark, print every metric.

::

    python -m benchmarks.suite [--workload NAME ...] [--seed S]
        [--seconds T] [--trace 0|1] [--sets N]

Without ``--workload`` all five workloads run, round-robin.  Without
``--trace`` a run measures the end-to-end metrics and then traces one
more iteration per workload for the per-layer ones; ``--trace 0`` or
``--trace 1`` does only one half.  Every metric is printed with its unit
and sample count; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metric names are prefixed ``<workload>/`` when more than one
workload ran.  The exit status is 1 when any output check failed.
"""

import argparse
import json
import math
import signal
import sys

from benchmarks.suite import harness


def _parser(declared):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Benchmark the FlexiCores reproduction end to end "
                    "and layer by layer (see benchmarks/suite/README.md).",
    )
    parser.add_argument(
        "--workload", action="extend", nargs="+", metavar="NAME",
        choices=[workload["name"] for workload in declared["workloads"]],
        help="workloads to run (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=2022,
                        help="input seed (default 2022)")
    parser.add_argument(
        "--seconds", type=float, default=declared["run_seconds"],
        help="measured seconds per workload and set (default "
             f"{declared['run_seconds']}, from BENCHMARK.json)")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics only; 1: per-layer metrics only "
             "(default: both)")
    parser.add_argument(
        "--sets", type=int, default=1, metavar="N",
        help="interleave N sets of iterations and report whether they "
             "agree within the BENCHMARK.json bounds (default 1)")
    return parser


def _rows(result, declared, trace):
    """``(workload, metric spec, value, samples)`` for every metric; NaN
    for one a failed step left unmeasured."""
    kinds = [kind for kind, wanted in (("end_to_end", trace != 1),
                                       ("per_layer", trace != 0)) if wanted]
    missing = float("nan")
    for name, entry in result["workloads"].items():
        for kind in kinds:
            measured = entry.get(kind, {})
            for metric in declared[kind]:
                if kind == "end_to_end":
                    value, samples = measured.get(metric["name"],
                                                  (missing, 0))
                else:
                    value, samples = measured.get(metric["name"], missing), 1
                yield name, metric, value, samples


def summarize(result, declared, trace):
    """The one-line JSON result: correctness, counts, every metric."""
    single = len(result["workloads"]) == 1
    metrics = {}
    correct = True
    for name, metric, value, _ in _rows(result, declared, trace):
        if not math.isfinite(value):
            correct, value = False, None
        key = metric["name"] if single else f"{name}/{metric['name']}"
        metrics[key] = {"value": value, "unit": metric["unit"]}
    entries = result["workloads"].values()
    failed = sum(entry["failed"] for entry in entries)
    return {
        "correct": correct and failed == 0
        and not any(entry["errors"] for entry in entries),
        "attempted": sum(entry["attempted"] for entry in entries),
        "failed": failed,
        "metrics": metrics,
    }


def _print_table(result, declared, trace):
    print(f"{'workload':<11} {'metric':<28} {'value':>14} {'unit':<6} n")
    for name, metric, value, samples in _rows(result, declared, trace):
        print(f"{name:<11} {metric['name']:<28} {value:>14.6g} "
              f"{metric['unit']:<6} {samples}")
    for name, entry in result["workloads"].items():
        notes = [f"{key} {value:.4g}" for key, value in
                 entry["details"].items()
                 if isinstance(value, (int, float))]
        if notes:
            print(f"{name}: " + ", ".join(notes))
        for error in entry["errors"]:
            print(f"FAILED {name}: {error}", file=sys.stderr)


def _print_sets(result, declared):
    print("\ninterleaved sets: relative spread of the set medians")
    agree = True
    for name, entry in result["workloads"].items():
        for metric in declared["end_to_end"]:
            medians = [tally[metric["name"]][0] for tally in entry["sets"]]
            spread = (max(medians) - min(medians)) / min(medians)
            ok = spread <= metric["bound"]
            agree &= ok
            print(f"  {name:<11} {metric['name']:<12}"
                  + "".join(f" {value:10.5g}" for value in medians)
                  + f"  spread {spread:6.1%}  bound {metric['bound']:4.0%}"
                  + ("  agree" if ok else "  DIFFER"))
    print(f"sets {'agree' if agree else 'DIFFER'} on every metric")


def _stop(signum, frame):
    # Unwind, so the servers and worker pools a run started are stopped
    # and reaped on the way out.
    raise SystemExit(128 + signum)


def main(argv=None):
    declared = harness.spec()
    args = _parser(declared).parse_args(argv)
    if args.sets < 1:
        raise SystemExit("--sets must be >= 1")
    signal.signal(signal.SIGTERM, _stop)
    from benchmarks.suite.workloads import registry

    classes = registry()
    names = args.workload or [w["name"] for w in declared["workloads"]]
    workloads = [classes[name]() for name in dict.fromkeys(names)]
    result = harness.run(workloads, seed=args.seed, seconds=args.seconds,
                         trace=args.trace, sets=args.sets)
    _print_table(result, declared, args.trace)
    if args.sets > 1 and args.trace != 1:
        _print_sets(result, declared)
    print(f"result: {result['result_path']}", file=sys.stderr)
    document = summarize(result, declared, args.trace)
    print(json.dumps(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
