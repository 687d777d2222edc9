"""Pareto analysis over the design space.

The paper picks two winners by scenario (Section 6.3); this utility
generalizes that: given the evaluated design points, find the Pareto
frontier over any subset of (area, energy, code size, latency), and
explain which designs each one dominates.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.dse.designs import ALL_DESIGNS, BASELINE
from repro.dse.evaluate import evaluate_all
from repro.dse.search import dominates, non_dominated_sort

#: Metric extractors (all lower-is-better).
METRICS = {
    "area": lambda m, base: m.nand2_area / base.nand2_area,
    "energy": lambda m, base: m.mean_relative(base, "energy_j"),
    "latency": lambda m, base: m.mean_relative(base, "time_s"),
    "code": lambda m, base: (
        m.total_code_bits() / base.total_code_bits()
    ),
}


@dataclass(frozen=True)
class ParetoPoint:
    name: str
    values: Tuple[float, ...]
    dominates: Tuple[str, ...]


def explore(metrics=("area", "energy"), designs=ALL_DESIGNS,
            bus_bits=None, transactions=12, feasible_only=True,
            baseline=BASELINE.name):
    """Evaluate ``designs`` (:func:`~repro.dse.evaluate.evaluate_all`)
    and return their :func:`pareto` frontier over ``metrics``.  Unknown
    metric names are rejected before anything is evaluated."""
    unknown = set(metrics) - set(METRICS)
    if unknown:
        raise KeyError(f"unknown metrics {sorted(unknown)}; "
                       f"choose from {sorted(METRICS)}")
    results = evaluate_all(designs, transactions=transactions,
                           bus_bits=bus_bits)
    return pareto(results, metrics, feasible_only, baseline)


def pareto(results, metrics=("area", "energy"), feasible_only=True,
           baseline=BASELINE.name):
    """``(frontier, points)`` of evaluated designs (``{name:
    DesignMetrics}``) over ``metrics`` (names from :data:`METRICS`).

    ``points`` maps each design to its lower-is-better values.
    ``frontier`` is the first front of
    :func:`~repro.dse.search.non_dominated_sort`, sorted by (values,
    name), each point listing the designs it strictly dominates;
    duplicate value tuples survive together, since neither dominates.

    Every metric is normalized against ``baseline`` (a design name
    that must be present in ``results``); the baseline is selected
    *before* ``feasible_only`` filtering, so an infeasible baseline
    still anchors the relative metrics even though it is excluded
    from the frontier itself.
    """
    if baseline not in results:
        raise ValueError(
            f"baseline design {baseline!r} is not among the evaluated "
            f"designs {sorted(results)}; pass baseline= to pick the "
            "design the relative metrics normalize against"
        )
    base = results[baseline]
    points = {}
    for name, metric_values in results.items():
        if feasible_only and not all(
            k.feasible for k in metric_values.kernels.values()
        ):
            continue
        points[name] = tuple(
            METRICS[metric](metric_values, base) for metric in metrics
        )
    names = list(points)
    fronts = non_dominated_sort([(True, points[name]) for name in names])
    frontier = []
    for index in fronts[0] if fronts else ():
        name = names[index]
        beaten = tuple(sorted(other for other, values in points.items()
                              if dominates(points[name], values)))
        frontier.append(ParetoPoint(name, points[name], beaten))
    frontier.sort(key=lambda point: (point.values, point.name))
    return frontier, points


def format_frontier(frontier, points, metrics):
    # Size the design column to the longest name (plus the frontier
    # marker and a separating space) so long names never fuse with
    # the first metric cell.
    width = max(
        [len("design")] + [len(name) + 1 for name in points]
    ) + 2
    header = f"{'design':<{width}}" + "".join(f"{m:>9}" for m in metrics) \
        + "  dominates"
    lines = [header]
    frontier_names = {point.name for point in frontier}
    for name, values in sorted(points.items(),
                               key=lambda kv: (kv[1], kv[0])):
        marker = "*" if name in frontier_names else " "
        cells = "".join(f"{value:9.2f}" for value in values)
        beaten = ""
        for point in frontier:
            if point.name == name and point.dominates:
                beaten = ", ".join(point.dominates)
        lines.append(f"{marker}{name:<{width - 1}}{cells}  {beaten}")
    lines.append("(* = Pareto-optimal)")
    return "\n".join(lines)
