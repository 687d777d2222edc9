"""Adaptive multi-objective DSE search (the suggest/score loop).

:func:`repro.dse.evaluate.evaluate_all` sweeps a fixed, hand-picked
design list -- fine for the paper's seven cores, useless for the
thousands-strong feature-gated space of :mod:`repro.dse.space`.  This
module searches that space instead of enumerating it:

- **Scoring** (:func:`score_design_job`): one engine job per candidate
  measures NAND2-equivalent area, energy per kernel (geometric mean
  over the Table 6 suite), and *yield-adjusted cost per good die* --
  the candidate's netlist goes through the
  :mod:`repro.fab.yield_model` wafer Monte Carlo and the
  :mod:`repro.fab.cost` volume-production model, so a bigger core pays
  twice: fewer dies per wafer *and* a lower yield on each.
- **Selection** (NSGA-II style): fast non-dominated sort plus crowding
  distance over the chosen objectives, with constraint domination
  (feasible candidates always beat infeasible ones).
- **Variation**: tournament-selected parents produce offspring by
  uniform crossover and single-move mutation over the genome axes.
- **Successive halving**: new candidates are screened at a cheap
  fidelity (few kernel transactions, few wafers); only the screen-time
  non-dominated set is promoted to full-fidelity scoring, so dominated
  regions of the space never consume a full evaluation.

Every scored candidate is one :class:`~repro.engine.Job`, so a search
runs one generation as one engine batch
(:meth:`~repro.engine.Engine.run_graph`), fans over the engine's
workers, and -- because job cache keys
depend only on the candidate's parameters -- warm-starts from the
shared :class:`~repro.engine.ResultCache`: a repeated or resumed
search answers its evaluations as cache hits.

The search is deterministic for a fixed ``(budget, seed)``: all
stochastic decisions draw from one seeded generator, and the scoring
jobs are order-independent.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.dse.space import DesignSpace, Genome
from repro.engine import Job, engine_or_default, job_function
from repro.fab.cost import flexible_die_cost, production_die_count
from repro.fab.process import FC4_WAFER
from repro.fab.yield_model import fabricate_wafer

#: Objective extractors over a :func:`score_design_job` result, all
#: lower-is-better.  ``cost`` is the yield-adjusted cost per *good*
#: die; ``energy`` the geometric-mean energy per kernel in joules;
#: ``code`` the Table 6 suite's total code bits.
SEARCH_OBJECTIVES = ("area", "cost", "energy", "code")

#: Default objective triple (the Section 6.3 axes plus the paper's
#: sub-cent cost claim).
DEFAULT_OBJECTIVES = ("area", "cost", "energy")


@job_function("dse.score_design", version="1")
def score_design_job(params, seed):
    """Engine job: score one candidate on every search objective.

    The engine-level ``seed`` is unused: the kernel-input seed and the
    wafer Monte Carlo seed are explicit parameters (they are part of
    the experiment's definition, not of the scheduling), so the job is
    order-independent and two searches share cache entries whenever
    their fidelity parameters agree.

    The wafer draws use *common random numbers*: every candidate
    fabricates its wafers from the same seeded stream, so candidate
    comparisons see process noise that cancels instead of noise that
    reshuffles the frontier.
    """
    from repro.dse.evaluate import _design_static, evaluate_design

    design = params["design"]
    transactions = params["transactions"]
    wafers = params["wafers"]
    voltage = params["voltage"]
    process = params.get("process", FC4_WAFER)
    bus_bits = params["bus_bits"] or None

    with obs.span("dse.score", design=design.name):
        metrics = evaluate_design(
            design, transactions=transactions, seed=params["seed"],
            bus_bits=bus_bits,
        )
        netlist, report = _design_static(design)
        rng = np.random.default_rng(
            np.random.SeedSequence(params["seed"])
        )
        fractions = []
        for _ in range(wafers):
            fabricated = fabricate_wafer(
                netlist, process, rng, timing_report=report
            )
            fractions.append(
                fabricated.probe(voltage, rng).yield_fraction()
            )
        yield_fraction = float(np.mean(fractions))
        dies = production_die_count(die_area_mm2=netlist.area_mm2)
        estimate = flexible_die_cost(yield_fraction, dies_per_wafer=dies)

    energies = [k.energy_j for k in metrics.kernels.values()]
    times = [k.time_s for k in metrics.kernels.values()]
    infeasible = sorted(
        name for name, k in metrics.kernels.items() if not k.feasible
    )
    if obs.active():
        obs.registry().counter(
            "dse_search_candidates_scored_total",
            "Candidates scored by the DSE search",
        ).inc()
    return {
        "design": design.name,
        "operand_model": design.operand_model,
        "microarch": design.microarch.value,
        "features": sorted(design.features),
        "bus_bits": params["bus_bits"],
        "area": metrics.nand2_area,
        "area_mm2": metrics.area_mm2,
        "gate_count": metrics.gate_count,
        "period_units": metrics.period_units,
        "energy": float(np.exp(np.mean(np.log(energies)))),
        "time": float(np.exp(np.mean(np.log(times)))),
        "code": metrics.total_code_bits(),
        "yield": yield_fraction,
        "dies_per_wafer": dies,
        "cost": estimate.cost_per_good_die_usd,
        "feasible": not infeasible,
        "infeasible_kernels": infeasible,
        "transactions": transactions,
        "wafers": wafers,
        "voltage": voltage,
    }


# ----------------------------------------------------------------------
# Multi-objective machinery.
# ----------------------------------------------------------------------

def weakly_dominates(a, b):
    """True when ``a`` is no worse than ``b`` on every objective."""
    return all(x <= y for x, y in zip(a, b))


def dominates(a, b):
    """Pareto dominance over lower-is-better value tuples: ``a`` is no
    worse everywhere and strictly better somewhere."""
    return weakly_dominates(a, b) and any(x < y for x, y in zip(a, b))


def _dominates(a, b):
    """Constraint-dominance: ``(feasible, values)`` vs the same."""
    a_ok, a_vals = a
    b_ok, b_vals = b
    if a_ok != b_ok:
        return a_ok
    return dominates(a_vals, b_vals)


def non_dominated_sort(entries):
    """Fast non-dominated sort over ``[(feasible, values), ...]``.

    Returns a list of fronts, each a list of indices into ``entries``;
    front 0 is the (constraint-)non-dominated set.
    """
    n = len(entries)
    dominated_by = [[] for _ in range(n)]
    counts = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if _dominates(entries[i], entries[j]):
                dominated_by[i].append(j)
                counts[j] += 1
            elif _dominates(entries[j], entries[i]):
                dominated_by[j].append(i)
                counts[i] += 1
    fronts = [[i for i in range(n) if counts[i] == 0]]
    while fronts[-1]:
        nxt = []
        for i in fronts[-1]:
            for j in dominated_by[i]:
                counts[j] -= 1
                if counts[j] == 0:
                    nxt.append(j)
        fronts.append(sorted(nxt))
    return [front for front in fronts if front]


def crowding_distance(values, front):
    """NSGA-II crowding distance of each index in ``front``.

    Boundary points get ``inf`` so the extremes of every objective
    always survive selection.
    """
    distance = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: math.inf for i in front}
    n_objectives = len(values[front[0]])
    for m in range(n_objectives):
        ordered = sorted(front, key=lambda i: values[i][m])
        lo, hi = values[ordered[0]][m], values[ordered[-1]][m]
        distance[ordered[0]] = math.inf
        distance[ordered[-1]] = math.inf
        span = hi - lo
        if span <= 0 or not math.isfinite(span):
            continue
        for prev, cur, nxt in zip(ordered, ordered[1:], ordered[2:]):
            if math.isfinite(distance[cur]):
                distance[cur] += (
                    (values[nxt][m] - values[prev][m]) / span
                )
    return distance


# ----------------------------------------------------------------------
# Search configuration and results.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one search run.

    ``budget`` counts *scoring jobs* (any fidelity, cache hit or not);
    the search stops submitting once it is spent.  With
    ``screen_transactions == transactions`` and ``screen_wafers ==
    wafers`` the successive-halving screen is skipped and every
    candidate scores at full fidelity directly.
    """

    budget: int = 48
    seed: int = 2022
    objectives: Tuple[str, ...] = DEFAULT_OBJECTIVES
    population: int = 16
    space: DesignSpace = field(default_factory=DesignSpace)
    transactions: int = 12
    wafers: int = 5
    screen_transactions: int = 3
    screen_wafers: int = 2
    voltage: float = 4.5

    def __post_init__(self):
        object.__setattr__(self, "objectives", tuple(self.objectives))
        unknown = set(self.objectives) - set(SEARCH_OBJECTIVES)
        if unknown:
            raise ValueError(
                f"unknown objective(s) {sorted(unknown)}; "
                f"choose from {list(SEARCH_OBJECTIVES)}"
            )
        if not self.objectives:
            raise ValueError("at least one objective is required")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.population < 2:
            raise ValueError("population must be >= 2")

    @property
    def single_fidelity(self):
        return (self.screen_transactions >= self.transactions
                and self.screen_wafers >= self.wafers)


@dataclass(frozen=True)
class ScoredDesign:
    """One frontier entry: the genome, its objective tuple, and the
    full score document."""

    key: str
    genome: Genome
    values: Tuple[float, ...]
    score: Dict


@dataclass
class SearchResult:
    """Everything a search run learned."""

    config: SearchConfig
    frontier: List[ScoredDesign]
    evaluations: int
    generations: int
    space_size: int
    scored: Dict[str, Dict]
    trail: List[Dict]
    cache_hits: int = 0
    cache_misses: int = 0

    def frontier_names(self):
        return [entry.key for entry in self.frontier]

    def trail_jsonl(self):
        """The trail as JSON lines: one per evaluation, in order."""
        return "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in self.trail)

    def to_doc(self):
        """JSON-ready summary (the service result document)."""
        return {
            "objectives": list(self.config.objectives),
            "budget": self.config.budget,
            "seed": self.config.seed,
            "evaluations": self.evaluations,
            "generations": self.generations,
            "space_size": self.space_size,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "frontier": [
                {
                    "design": entry.key,
                    "genome": entry.genome.to_doc(),
                    **{
                        objective: entry.values[index]
                        for index, objective
                        in enumerate(self.config.objectives)
                    },
                    "yield": entry.score["yield"],
                    "feasible": entry.score["feasible"],
                }
                for entry in self.frontier
            ],
        }


def _objective_values(score, objectives):
    return tuple(float(score[name]) for name in objectives)


def _score_job(genome, config, screen):
    transactions = config.screen_transactions if screen \
        else config.transactions
    wafers = config.screen_wafers if screen else config.wafers
    return Job(
        score_design_job,
        {"design": genome.design(), "transactions": transactions,
         "seed": config.seed, "bus_bits": genome.bus_bits,
         "wafers": wafers, "voltage": config.voltage},
        label=f"score:{genome.key}" + (":screen" if screen else ""),
    )


def _select_parents(keys, scored, fidelity, objectives, population):
    """The NSGA-II survivor set: rank by (full fidelity first,
    non-dominated front, crowding distance), truncate to
    ``population``.  Returns keys, best first."""
    if not keys:
        return []
    entries = []
    values = []
    for key in keys:
        score = scored[key]
        vals = _objective_values(score, objectives)
        entries.append((bool(score["feasible"]), vals))
        values.append(vals)
    ranked = []
    for rank, front in enumerate(non_dominated_sort(entries)):
        crowding = crowding_distance(values, front)
        for index in front:
            # Full-fidelity scores outrank screens at equal rank, so
            # promoted survivors anchor the next generation.
            ranked.append((
                rank,
                0 if fidelity[keys[index]] == "full" else 1,
                -crowding[index],
                keys[index],
            ))
    ranked.sort(key=lambda item: (item[0], item[1], item[2], item[3]))
    return [key for _, _, _, key in ranked[:population]]


def _tournament(parents, rng):
    """Binary tournament on the (already rank-ordered) parent list."""
    if len(parents) == 1:
        return parents[0]
    picks = rng.integers(0, len(parents), size=2)
    return parents[int(min(picks))]


def search(config=None, engine=None, **overrides):
    """Run the adaptive multi-objective search; returns a
    :class:`SearchResult`.

    Either pass a :class:`SearchConfig` or keyword overrides for its
    fields (``search(budget=32, seed=7)``).  One generation of
    candidates is one engine graph wave; every candidate is one cached
    engine job, so repeating a search (same space, objectives do not
    matter -- the score carries all of them) replays from the result
    cache.
    """
    if config is None:
        config = SearchConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a SearchConfig or overrides, not both")
    eng = engine_or_default(engine)
    rng = np.random.default_rng(config.seed)
    space = config.space
    space_size = space.size()

    genomes = {}            # key -> Genome
    scored = {}             # key -> best-known score dict
    fidelity = {}           # key -> 'screen' | 'full'
    trail = []
    evaluations = 0
    generations = 0
    hits_before = eng.metrics.cache_hits
    misses_before = eng.metrics.cache_misses

    def remember(genome):
        genomes.setdefault(genome.key, genome)
        return genome.key

    # -- initial population: the paper's grid plus random samples -------
    population = []
    for genome in space.anchors():
        if len(population) >= config.population:
            break
        if genome.key not in {g.key for g in population}:
            population.append(genome)
    attempts = 0
    while (len(population) < min(config.population, space_size)
           and attempts < 50 * config.population):
        candidate = space.random(rng)
        attempts += 1
        if candidate.key not in {g.key for g in population}:
            population.append(candidate)

    screen = not config.single_fidelity
    queue = [(genome, screen) for genome in population]
    promoted = set()

    with obs.span("dse.search", budget=config.budget, seed=config.seed):
        while queue and evaluations < config.budget:
            batch = queue[:config.budget - evaluations]
            queue = []
            jobs = []
            for genome, is_screen in batch:
                remember(genome)
                jobs.append(_score_job(genome, config, is_screen))
            nodes = [eng.submit(job) for job in jobs]
            eng.run_graph(stage=f"dse-search:gen{generations}")
            for (genome, is_screen), node in zip(batch, nodes):
                score = node.result
                level = "screen" if is_screen else "full"
                if fidelity.get(genome.key) != "full":
                    scored[genome.key] = score
                    fidelity[genome.key] = level
                evaluations += 1
                trail.append({
                    "evaluation": evaluations,
                    "generation": generations,
                    "design": genome.key,
                    "fidelity": level,
                    "cached": node.status == "cached",
                    "feasible": score["feasible"],
                    **{name: score[name]
                       for name in config.objectives},
                    "yield": score["yield"],
                })
            generations += 1
            if evaluations >= config.budget:
                break

            # -- promotion: the screen-time non-dominated set moves to
            # full fidelity (successive halving's surviving arm).
            keys = sorted(scored)
            entries = [
                (bool(scored[k]["feasible"]),
                 _objective_values(scored[k], config.objectives))
                for k in keys
            ]
            front0 = {keys[i] for i in non_dominated_sort(entries)[0]}
            for key in sorted(front0):
                if fidelity[key] == "screen" and key not in promoted:
                    promoted.add(key)
                    queue.append((genomes[key], False))

            # -- Pareto local search: the unexplored single-move
            # neighbourhood of the current front goes into the next
            # wave (deterministic order, capped at one population).
            # Yield noise keeps the true frontier within a move or
            # two of the measured one, so walking the neighbourhood
            # finds the points crossover rarely lands on.
            queued = {g.key for g, _ in queue}
            explored = 0
            for key in sorted(front0):
                for neighbor in space.neighbors(genomes[key]):
                    if explored >= config.population:
                        break
                    if (neighbor.key not in scored
                            and neighbor.key not in queued):
                        queued.add(neighbor.key)
                        explored += 1
                        queue.append((neighbor, screen))

            # -- variation: offspring of tournament-selected parents.
            parents = _select_parents(
                keys, scored, fidelity, config.objectives,
                config.population,
            )
            wanted = max(2, config.population // 2)
            produced = []
            attempts = 0
            while len(produced) < wanted and attempts < 30 * wanted:
                attempts += 1
                mother = genomes[_tournament(parents, rng)]
                father = genomes[_tournament(parents, rng)]
                child = space.crossover(mother, father, rng)
                if rng.random() < 0.7 or child.key in scored:
                    child = space.mutate(child, rng)
                if (child in space and child.key not in scored
                        and child.key not in {g.key for g, _ in queue}
                        and child.key not in {g.key for g in produced}):
                    produced.append(child)
            queue.extend((child, screen) for child in produced)

    # -- final frontier: full-fidelity scores only (screens are a
    # pruning signal, not a result).  If the budget ran out before any
    # promotion, fall back to the best-known scores.
    final_keys = [k for k in sorted(scored) if fidelity[k] == "full"] \
        or sorted(scored)
    entries = [
        (bool(scored[k]["feasible"]),
         _objective_values(scored[k], config.objectives))
        for k in final_keys
    ]
    frontier = []
    if final_keys:
        for index in non_dominated_sort(entries)[0]:
            key = final_keys[index]
            if not scored[key]["feasible"]:
                continue
            frontier.append(ScoredDesign(
                key=key,
                genome=genomes[key],
                values=entries[index][1],
                score=scored[key],
            ))
    frontier.sort(key=lambda entry: (entry.values, entry.key))

    return SearchResult(
        config=config,
        frontier=frontier,
        evaluations=evaluations,
        generations=generations,
        space_size=space_size,
        scored=scored,
        trail=trail,
        cache_hits=eng.metrics.cache_hits - hits_before,
        cache_misses=eng.metrics.cache_misses - misses_before,
    )


def exhaustive(space=None, config=None, engine=None, **overrides):
    """Score *every* genome in ``space`` at full fidelity (the
    reference grid the benchmark compares the search against).

    Returns ``{genome key: score dict}``.  One engine job per genome,
    all in a single batch; the jobs are the same
    :func:`score_design_job` entries the search submits, so a search
    after an exhaustive sweep (or vice versa) is pure cache hits.
    """
    if config is None:
        config = SearchConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a SearchConfig or overrides, not both")
    space = space or config.space
    eng = engine_or_default(engine)
    genomes = space.enumerate()
    scores = eng.run([_score_job(genome, config, screen=False)
                      for genome in genomes], stage="dse-exhaustive")
    return {genome.key: score for genome, score in zip(genomes, scores)}


def frontier_of(scores, objectives=DEFAULT_OBJECTIVES):
    """The feasible non-dominated subset of ``{key: score dict}`` as
    ``[(key, values)]``, sorted by values then key."""
    keys = sorted(scores)
    entries = [
        (bool(scores[k]["feasible"]),
         _objective_values(scores[k], objectives))
        for k in keys
    ]
    frontier = [
        (keys[i], entries[i][1])
        for i in non_dominated_sort(entries)[0]
        if scores[keys[i]]["feasible"]
    ]
    return sorted(frontier)


#: The :class:`DesignSpace` axis each axis parameter of
#: :data:`repro.params.DSE_SEARCH` restricts.
_AXES = {"features": "features", "microarchs": "microarchs",
         "models": "operand_models", "bus": "bus_bits"}


def run_dse_search(params, engine=None):
    """One search from validated :data:`repro.params.DSE_SEARCH` params
    (``repro dse search`` and the ``dse_search`` job); returns
    ``(SearchResult, frontier table, JSONL trail)``.  An empty list
    means the default: the whole axis, or the default objectives."""
    space = DesignSpace(**{axis: tuple(params[name])
                           for name, axis in _AXES.items() if params[name]})
    result = search(SearchConfig(
        budget=params["budget"], seed=params["seed"],
        objectives=tuple(params["objectives"]) or DEFAULT_OBJECTIVES,
        population=params["population"], space=space,
    ), engine=engine)
    return result, format_search_frontier(result), result.trail_jsonl()


def format_search_frontier(result):
    """Human-readable frontier table for the CLI / service artifact."""
    objectives = result.config.objectives
    names = result.frontier_names() or ["(empty)"]
    width = max(len("design"), *(len(name) for name in names)) + 2
    header = f"{'design':<{width}}" + "".join(
        f"{name:>12}" for name in objectives
    ) + f"{'yield':>8}"
    lines = [header]
    for entry in result.frontier:
        cells = "".join(f"{value:12.4g}" for value in entry.values)
        lines.append(
            f"{entry.key:<{width}}{cells}"
            f"{entry.score['yield']:8.2f}"
        )
    lines.append(
        f"({len(result.frontier)} frontier point(s) from "
        f"{result.evaluations} evaluation(s) over a "
        f"{result.space_size}-point space, "
        f"{result.generations} generation(s), "
        f"{result.cache_hits} cache hit(s))"
    )
    return "\n".join(lines)
