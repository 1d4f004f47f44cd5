"""Parallel strategy selection: race, uncensor, eliminate, solve the rest.

Per sampled subproblem every live strategy is raced under a relative timeout
of ``timeout_factor`` times the first finisher's cost; unfinished runs are
recorded censored at that limit. The first finisher is found by doubling a
budget shared by all strategies, in both time modes. In work-units mode a
budgeted run is the memoized full deterministic run plus a limit check, so
each (subproblem, strategy) pair is solved once however many budgets the
race tries, and the race's cost without timeouts is known for reporting.
In wall mode runs are stopped by elapsed time, and that cost is unknown.

On a model with an objective, a first-solution race at the root runs before
the sample race (the warm start): every strategy dives on the whole model
under the default 2x relative timeout, and the finishers' objectives seed
the incumbent, so no sampled subproblem is raced without a bound. Its cost
is charged to selection, and the bandit and portfolio baselines pay it too.

Selection then proceeds: pick the strategy with the smallest column total
(censored values counted as-is), re-solving its own timeouts until the
cheapest fully-uncensored strategy ``s_b`` emerges; compare every other
strategy against ``s_b`` with the censoring-safe WSR test, re-solving pairs
censored below the validity threshold to(j); eliminate the significantly
slower ones. A strategy that beats ``s_b`` in the WSR test is fully
uncensored and confirmed with a paired t-test before taking over as the new
``s_b`` (prior eliminations stand). Remaining indistinguishable strategies
lose the final tie-break on sample totals. The winner solves everything
outside the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from .csp import Model
from .decomposition import (
    Decomposition,
    DecompositionConfig,
    Sample,
    Subproblem,
    decompose,
    sample_size_rule,
    srs_sample,
)
from .runner import raise_failures, run_pool
from .search import Incumbent, SolveMode, SolveOutcome, TimeMode, solve
from .strategies import ALL_STRATEGIES, StrategyId
from .wsr import (
    CensorPlan,
    Decision,
    PairedDiffs,
    WsrResult,
    censor_plan,
    paired_ttest,
    wsr_test,
)

_LIVE = object()  # sentinel: use the oracle's current incumbent


@dataclass(frozen=True, slots=True)
class Observation:
    """One run; a censored run's ``value`` is the limit it was stopped at."""

    value: float
    censored: bool
    solutions: int = 0
    objective: Optional[int] = None


class RuntimeMatrix:
    """(subproblem x strategy) observations; censored entries carry the limit
    they were stopped at as their value."""

    def __init__(self, strategies: Sequence[StrategyId], sub_ids: Sequence[int]):
        self.strategies = tuple(strategies)
        self.sub_ids = list(sub_ids)
        self.entries: dict[tuple[int, StrategyId], Observation] = {}

    def set(self, sub: int, sid: StrategyId, obs: Observation) -> None:
        self.entries[(sub, sid)] = obs

    def get(self, sub: int, sid: StrategyId) -> Observation:
        return self.entries[(sub, sid)]

    def column_total(self, sid: StrategyId) -> float:
        return sum(self.entries[(sub, sid)].value for sub in self.sub_ids)

    def censored_subs(self, sid: StrategyId) -> list[int]:
        return [s for s in self.sub_ids if self.entries[(s, sid)].censored]

    def censored_counts(self) -> dict[StrategyId, int]:
        return {sid: len(self.censored_subs(sid)) for sid in self.strategies}


@dataclass
class RaceConfig:
    timeout_factor: float = 2.0
    alpha: float = 0.01
    sample_seed: int = 0
    time_mode: TimeMode = TimeMode.WORK

    def __post_init__(self):
        if self.timeout_factor <= 1.0:
            raise ValueError("timeout_factor must be > 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass
class PssConfig:
    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)
    race: RaceConfig = field(default_factory=RaceConfig)
    sample_size: Optional[int] = None
    strategies: tuple[StrategyId, ...] = ALL_STRATEGIES

    def __post_init__(self):
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")

    def sample_size_for(self, population: int) -> int:
        """The given sample size, else ``sample_size_rule(population)``."""
        return self.sample_size if self.sample_size is not None else sample_size_rule(population)


@dataclass
class PhaseCosts:
    race: float = 0.0
    race_without_to: Optional[float] = 0.0  # None when full costs are unknown
    uncensor: float = 0.0
    resolve: float = 0.0
    warm_start: float = 0.0  # root first-solution race; not part of ``race``

    @property
    def selection(self) -> float:
        return self.race + self.uncensor + self.resolve + self.warm_start


# ---------------------------------------------------------------------------
# cost oracles


def _observe(out: SolveOutcome, time_mode: TimeMode, limit: Optional[float] = None) -> Observation:
    """A solver run as an observation; an unfinished run is censored at ``limit``."""
    if not out.complete:
        return Observation(value=limit, censored=True)
    return Observation(
        value=out.work_used if time_mode is TimeMode.WORK else out.wall_ms,
        censored=False,
        solutions=out.solutions_found,
        objective=out.best_objective,
    )


def _cut(obs: Observation, limit: float) -> Observation:
    """A full run as a run stopped at ``limit``: itself, or censored there."""
    return obs if obs.value <= limit else Observation(value=limit, censored=True)


def warm_start_cost(oracle) -> float:
    """Seed the oracle's incumbent if it can (see ``ModelOracle.warm_start``)
    and return the cost charged for it; 0 for oracles without a warm start."""
    seed = getattr(oracle, "warm_start", None)
    return seed() if seed is not None else 0.0


class MatrixOracle:
    """Replays a fixed runtime matrix (fixtures, synthetic experiments)."""

    has_true_costs = True

    def __init__(self, costs: dict[StrategyId, Sequence[float]]):
        self.costs = {s: list(v) for s, v in costs.items()}
        self.strategies = tuple(costs.keys())
        lengths = {len(v) for v in self.costs.values()}
        if len(lengths) != 1:
            raise ValueError("all strategy columns must have the same length")
        self.sub_ids = list(range(lengths.pop()))

    def current_bound(self) -> Optional[int]:
        return None

    def merge_objectives(self, observations: Iterable[Observation]) -> None:
        pass

    def full(self, sub: int, sid: StrategyId, bound=_LIVE) -> Observation:
        return Observation(value=self.costs[sid][sub], censored=False)

    def limited(self, sub: int, sid: StrategyId, limit: float, bound=_LIVE) -> Observation:
        return _cut(self.full(sub, sid), limit)


class ModelOracle:
    """Runs the real solver on decomposed subproblems, memoizing full runs.

    Work mode exposes true costs (deterministic), so a budgeted run is the
    memoized full run plus a limit check; wall mode measures elapsed time
    and stops a run at its budget. The optimization incumbent lives
    here; races pin a bound explicitly so all paired runs see the same one.
    :meth:`warm_start` seeds it before the first race.
    """

    def __init__(
        self,
        model: Model,
        subproblems: Sequence[Subproblem],
        strategies: Sequence[StrategyId] = ALL_STRATEGIES,
        time_mode: TimeMode = TimeMode.WORK,
        shared_cache: Optional[dict] = None,
    ):
        self.model = model
        self.subs = {s.id: s for s in subproblems}
        self.sub_ids = [s.id for s in subproblems]
        self.strategies = tuple(strategies)
        self.time_mode = time_mode
        self.has_true_costs = time_mode is TimeMode.WORK
        self.incumbent = (
            Incumbent(model.objective.maximize) if model.objective is not None else None
        )
        self.mode = (
            SolveMode.OPTIMIZE if model.objective is not None else SolveMode.ALL_SOLUTIONS
        )
        self._cache = shared_cache if shared_cache is not None else {}

    def current_bound(self) -> Optional[int]:
        return self.incumbent.value if self.incumbent is not None else None

    def merge_objectives(self, observations: Iterable[Observation]) -> None:
        if self.incumbent is None:
            return
        for o in observations:
            if not o.censored:
                self.incumbent.propose(o.objective)

    def warm_start(self) -> float:
        """Seed the incumbent by a first-solution race at the root; return its cost.

        Every strategy of the oracle dives on the whole model in
        ``FIRST_SOLUTION`` mode; dives still running at twice the first
        finisher's cost (the default race rule, whatever factor the sample
        race uses) are stopped and charged that limit. The finishers'
        objectives are merged into the incumbent. The race is memoized in the
        cache, so oracles sharing one start from the same incumbent and are
        charged the same cost. Satisfaction models: 0, and nothing is solved.
        """
        if self.incumbent is None:
            return 0.0
        key = ("warm_start", self.strategies)
        obs = self._cache.get(key)
        if obs is None:
            obs = race(_RootDives(self.model, self.time_mode), None, self.strategies, RaceConfig())
            self._cache[key] = obs
        self.merge_objectives(obs.values())
        return sum(o.value for o in obs.values())

    def _solve(self, sub: int, sid: StrategyId, bound, wall_ms=None):
        return solve(
            self.model, self.subs[sub].assignment, sid, self.mode,
            bound=bound, wall_limit_ms=wall_ms,
        )

    def full(self, sub: int, sid: StrategyId, bound=_LIVE) -> Observation:
        live = bound is _LIVE
        b = self.current_bound() if live else bound
        key = (sub, sid, b)
        obs = self._cache.get(key)
        if obs is None:
            obs = _observe(self._solve(sub, sid, b), self.time_mode)
            self._cache[key] = obs
        if live:
            self.merge_objectives((obs,))
        return obs

    def remember(self, sub: int, sid: StrategyId, obs: Observation) -> None:
        """Memoize a full run made in another process (a forked pool worker,
        whose own memo writes are lost). Satisfaction models only: their runs
        read no bound."""
        if self.incumbent is not None:
            raise ValueError("only bound-free runs can be remembered")
        self._cache.setdefault((sub, sid, None), obs)

    def limited(self, sub: int, sid: StrategyId, limit: float, bound=_LIVE) -> Observation:
        b = self.current_bound() if bound is _LIVE else bound
        if self.has_true_costs:
            return _cut(self.full(sub, sid, b), limit)
        return _observe(self._solve(sub, sid, b, wall_ms=limit), self.time_mode, limit)


class _RootDives:
    """First-solution dives on the whole model, as an oracle :func:`race`
    can drive (a dive's full cost may be huge, so it is never run unbudgeted)."""

    def __init__(self, model: Model, time_mode: TimeMode):
        self.model = model
        self.time_mode = time_mode

    def limited(self, sub, sid: StrategyId, limit: float, bound=None) -> Observation:
        work = self.time_mode is TimeMode.WORK
        out = solve(
            self.model,
            (),
            sid,
            SolveMode.FIRST_SOLUTION,
            budget=int(limit) if work else None,
            wall_limit_ms=None if work else limit,
        )
        return _observe(out, self.time_mode, limit)


# ---------------------------------------------------------------------------
# the selection pipeline


def race(
    oracle, sub: int, alive: Sequence[StrategyId], cfg: RaceConfig, bound=_LIVE
) -> dict[StrategyId, Observation]:
    """Race all live strategies on one subproblem under the relative timeout.

    The first finisher (cost t*) is found by doubling a budget shared by all
    strategies and is always uncensored; everyone still running at
    ``timeout_factor * t*`` is stopped and recorded censored at that value.
    Censored runs contribute no objective improvements.
    """
    if not alive:
        raise ValueError("need at least one strategy")
    budget = 1.0
    while True:
        runs = {s: oracle.limited(sub, s, budget, bound) for s in alive}
        finished = [o.value for o in runs.values() if not o.censored]
        if finished:
            break
        budget *= 2.0
    limit = cfg.timeout_factor * min(finished)
    return {
        s: o if not o.censored and o.value <= limit else oracle.limited(sub, s, limit, bound)
        for s, o in runs.items()
    }


def _uncensor(matrix: RuntimeMatrix, oracle, race_bounds: dict, sid: StrategyId) -> float:
    """Re-solve every censored entry of ``sid`` with no timeout, under the
    bound its subproblem was raced with; return the cost of the re-solves."""
    cost = 0.0
    for sub in matrix.censored_subs(sid):
        obs = oracle.full(sub, sid, race_bounds.get(sub, _LIVE))
        matrix.set(sub, sid, obs)
        cost += obs.value
    return cost


def find_uncensored_best(
    matrix: RuntimeMatrix, oracle, race_bounds: dict, costs: PhaseCosts
) -> StrategyId:
    """Smallest-total strategy, re-solving its timeouts until fully uncensored.

    Each round takes the argmin of the column totals (censored values counted
    as-is); if that column still has censored entries they are re-solved with
    no timeout and the round repeats. Terminates because every round either
    returns or strictly uncensores a column.
    """
    while True:
        sb = min(matrix.strategies, key=lambda s: (matrix.column_total(s), _ord(matrix, s)))
        if not matrix.censored_subs(sb):
            return sb
        costs.uncensor += _uncensor(matrix, oracle, race_bounds, sb)


def _ord(matrix: RuntimeMatrix, sid: StrategyId) -> int:
    return matrix.strategies.index(sid)


class ElimKind(Enum):
    ELIMINATED = "eliminated"
    SURVIVES = "survives"
    REVERSAL = "reversal"


@dataclass
class ElimResult:
    kind: ElimKind
    wsr: WsrResult
    plan: CensorPlan
    ttest: Optional[Decision] = None


def eliminate(
    matrix: RuntimeMatrix,
    oracle,
    race_bounds: dict,
    s_b: StrategyId,
    s_i: StrategyId,
    cfg: RaceConfig,
    costs: PhaseCosts,
) -> ElimResult:
    """Censoring-safe WSR comparison of ``s_i`` against the uncensored best.

    d_max is taken from the uncensored pairs only; every pair censored below
    its threshold to(j) = d_max + t_b(j) + 1 is re-solved with budget to(j).
    Re-solves can reveal new positive differences, so the plan is iterated to
    a fixpoint before testing (one pass is the common case).
    """
    subs = matrix.sub_ids
    while True:
        t_b = [matrix.get(s, s_b).value for s in subs]
        obs_i = [matrix.get(s, s_i) for s in subs]
        observed = [tb - o.value for tb, o in zip(t_b, obs_i) if not o.censored]
        plan = censor_plan(t_b, observed)
        need = [
            (s, to)
            for s, o, to in zip(subs, obs_i, plan.thresholds)
            if o.censored and o.value < to
        ]
        if not need:
            break
        for sub, to in need:
            obs = oracle.limited(sub, s_i, to, race_bounds.get(sub, _LIVE))
            matrix.set(sub, s_i, obs)
            costs.resolve += obs.value

    pd = PairedDiffs(
        tuple(tb - o.value for tb, o in zip(t_b, obs_i)),
        tuple(o.censored for o in obs_i),
    )
    result = wsr_test(pd, cfg.alpha)
    if result.decision is Decision.FIRST_BETTER:
        return ElimResult(ElimKind.ELIMINATED, result, plan)
    if result.decision is Decision.SECOND_BETTER:
        # remove the timeouts of s_i entirely, then let a t-test decide
        costs.resolve += _uncensor(matrix, oracle, race_bounds, s_i)
        t_i = [matrix.get(s, s_i).value for s in subs]
        verdict = paired_ttest(t_b, t_i, cfg.alpha)
        if verdict is Decision.SECOND_BETTER:
            return ElimResult(ElimKind.REVERSAL, result, plan, ttest=verdict)
        return ElimResult(ElimKind.SURVIVES, result, plan, ttest=verdict)
    return ElimResult(ElimKind.SURVIVES, result, plan)


@dataclass
class SelectionReport:
    """What a selection run decided and what it cost. :func:`pss_select` and
    :func:`select_on_matrix` fill in the fields after ``matrix``."""

    winner: StrategyId
    eliminated: list[tuple[StrategyId, WsrResult]]
    survivors_tiebreak: Optional[list[StrategyId]]
    selection_cost: float
    race_cost: float
    race_cost_without_timeouts: Optional[float]  # None when full costs are unknown
    uncensor_cost: float
    resolve_cost: float
    warm_start_cost: float
    comparisons: int
    reversals: int
    alpha: float
    timeout_factor: float
    sample_seed: int
    best_strategy: StrategyId  # the s_b anchor of the final elimination pass
    sample_totals: dict[StrategyId, float]
    race_censored_counts: dict[StrategyId, int]
    matrix: RuntimeMatrix  # the sample's observations after selection
    population: int = 0
    prefix_len: int = 0
    decompose_work: float = 0.0
    solve_cost: float = 0.0
    solutions_found: Optional[int] = None
    best_objective: Optional[int] = None

    @property
    def sample_ids(self) -> list[int]:
        return list(self.matrix.sub_ids)

    @property
    def strategies(self) -> tuple[StrategyId, ...]:
        return self.matrix.strategies

    @property
    def overall_confidence(self) -> float:
        return (1.0 - self.alpha) ** self.comparisons

    @property
    def best_total(self) -> float:
        return self.matrix.column_total(self.best_strategy)

    @property
    def total_cost(self) -> float:
        return self.selection_cost + self.solve_cost

    def to_dict(self) -> dict:
        return {
            "winner": self.winner.token,
            "eliminated": [
                {
                    "strategy": s.token,
                    "n": r.n,
                    "w_plus": r.w_plus,
                    "p_value": r.p_value,
                    "method": r.method.value,
                    "decision": r.decision.value,
                }
                for s, r in self.eliminated
            ],
            "survivors_tiebreak": (
                [s.token for s in self.survivors_tiebreak]
                if self.survivors_tiebreak
                else None
            ),
            "overall_confidence": self.overall_confidence,
            "selection_cost": self.selection_cost,
            "solve_cost": self.solve_cost,
            "total_cost": self.total_cost,
            "race_cost": self.race_cost,
            "race_cost_without_timeouts": self.race_cost_without_timeouts,
            "uncensor_cost": self.uncensor_cost,
            "resolve_cost": self.resolve_cost,
            "warm_start_cost": self.warm_start_cost,
            "comparisons": self.comparisons,
            "reversals": self.reversals,
            "alpha": self.alpha,
            "timeout_factor": self.timeout_factor,
            "sample_size": len(self.matrix.sub_ids),
            "sample_seed": self.sample_seed,
            "population": self.population,
            "prefix_len": self.prefix_len,
            "decompose_work": self.decompose_work,
            "best_strategy": self.best_strategy.token,
            "best_total": self.best_total,
            "sample_totals": {s.token: v for s, v in self.sample_totals.items()},
            "race_censored_counts": {
                s.token: c for s, c in self.race_censored_counts.items()
            },
            "solutions_found": self.solutions_found,
            "best_objective": self.best_objective,
            "strategies": [s.token for s in self.strategies],
        }


def select_strategy(
    oracle,
    cfg: RaceConfig,
    sample_ids: Sequence[int],
    strategies: Optional[Sequence[StrategyId]] = None,
    initial_best: Optional[StrategyId] = None,
) -> SelectionReport:
    """Run the full selection phase on an oracle over the given sample.

    ``initial_best`` forces the anchor of the first elimination pass (testing
    hook for the reversal path); by default it is found by
    :func:`find_uncensored_best`. The no-timeout race cost is reported only
    for oracles with true costs (``has_true_costs``).
    """
    strategies = tuple(strategies if strategies is not None else oracle.strategies)
    matrix = RuntimeMatrix(strategies, sorted(sample_ids))
    true_costs = getattr(oracle, "has_true_costs", False)
    costs = PhaseCosts(
        race_without_to=0.0 if true_costs else None, warm_start=warm_start_cost(oracle)
    )
    race_bounds: dict[int, object] = {}

    for sub in matrix.sub_ids:
        bound = oracle.current_bound()
        obs = race(oracle, sub, strategies, cfg, bound)
        race_bounds[sub] = bound
        oracle.merge_objectives(obs.values())
        for s, o in obs.items():
            matrix.set(sub, s, o)
            costs.race += o.value
            if true_costs:
                costs.race_without_to += oracle.full(sub, s, bound).value if o.censored else o.value
    race_censored = matrix.censored_counts()

    if initial_best is None:
        s_b = find_uncensored_best(matrix, oracle, race_bounds, costs)
    else:
        s_b = initial_best
        costs.uncensor += _uncensor(matrix, oracle, race_bounds, s_b)

    eliminated: list[tuple[StrategyId, WsrResult]] = []
    comparisons = 0
    reversals = 0
    alive = [s for s in strategies if s is not s_b]
    while True:
        # cheapest comparisons first: ascending censored totals
        alive.sort(key=lambda s: (matrix.column_total(s), _ord(matrix, s)))
        survivors: list[StrategyId] = []
        for s_i in list(alive):
            res = eliminate(matrix, oracle, race_bounds, s_b, s_i, cfg, costs)
            comparisons += 1
            if res.kind is ElimKind.ELIMINATED:
                eliminated.append((s_i, res.wsr))
                alive.remove(s_i)
            elif res.kind is ElimKind.REVERSAL:
                # the former best is out; restart the pass against the rest
                eliminated.append((s_b, res.wsr))
                alive.remove(s_i)
                s_b = s_i
                reversals += 1
                break
            else:
                survivors.append(s_i)
        else:
            break

    totals = {s: matrix.column_total(s) for s in strategies}
    winner = min([s_b] + survivors, key=lambda s: (totals[s], strategies.index(s)))
    return SelectionReport(
        winner=winner,
        eliminated=eliminated,
        survivors_tiebreak=survivors or None,
        selection_cost=costs.selection,
        race_cost=costs.race,
        race_cost_without_timeouts=costs.race_without_to,
        uncensor_cost=costs.uncensor,
        resolve_cost=costs.resolve,
        warm_start_cost=costs.warm_start,
        comparisons=comparisons,
        reversals=reversals,
        alpha=cfg.alpha,
        timeout_factor=cfg.timeout_factor,
        sample_seed=cfg.sample_seed,
        best_strategy=s_b,
        sample_totals=totals,
        race_censored_counts=race_censored,
        matrix=matrix,
    )


def select_on_matrix(
    costs: dict[StrategyId, Sequence[float]],
    cfg: Optional[RaceConfig] = None,
    sample_ids: Optional[Sequence[int]] = None,
    initial_best: Optional[StrategyId] = None,
) -> SelectionReport:
    """Run the pipeline on a fixed runtime matrix (no model, no solve phase)."""
    cfg = cfg if cfg is not None else RaceConfig()
    oracle = MatrixOracle(costs)
    ids = list(sample_ids) if sample_ids is not None else list(oracle.sub_ids)
    rep = select_strategy(oracle, cfg, ids, initial_best=initial_best)
    rep.population = len(oracle.sub_ids)
    return rep


def pss_select(
    model: Model,
    cfg: Optional[PssConfig] = None,
    oracle: Optional[ModelOracle] = None,
    decomposition: Optional[Decomposition] = None,
) -> SelectionReport:
    """Full PSS run: decompose, sample, select, solve the rest with the winner."""
    cfg = cfg if cfg is not None else PssConfig()
    rc = cfg.race
    if decomposition is None:
        decomposition = decompose(model, cfg.decomposition)
    subs = decomposition.subproblems
    population = len(subs)
    sample: Sample = srs_sample(population, cfg.sample_size_for(population), rc.sample_seed)
    if oracle is None:
        oracle = ModelOracle(model, subs, cfg.strategies, time_mode=rc.time_mode)

    rep = select_strategy(oracle, rc, sample.indices, cfg.strategies)
    winner = rep.winner

    sampled = set(sample.indices)
    remainder = [s.id for s in subs if s.id not in sampled]
    # on an optimization model every solve reads and raises the live
    # incumbent, so the remainder runs in order in this process
    bound_free = model.objective is None
    results, _ = run_pool(
        remainder,
        cfg.decomposition.worker_count,
        lambda sub: oracle.full(sub, winner),
        time_mode=rc.time_mode,
        cost_fn=lambda obs: obs.value,
        processes=bound_free,
    )
    raise_failures(results)
    if bound_free:
        for r in results:
            oracle.remember(r.task, winner, r.result)

    rep.population = population
    rep.prefix_len = decomposition.prefix_len
    rep.decompose_work = decomposition.work
    rep.solve_cost = sum(r.result.value for r in results)
    if model.objective is None:
        # sampled subproblems: exact counts from the uncensored best's column
        solutions = sum(rep.matrix.get(s, rep.best_strategy).solutions for s in rep.sample_ids)
        rep.solutions_found = solutions + sum(r.result.solutions for r in results)
    else:
        rep.best_objective = oracle.current_bound()
    return rep


def selection_cost_bound(report: SelectionReport) -> tuple[float, float]:
    """Measured race-phase cost and its guarantee s * factor * sum_j t(S_b, j).

    The bound holds because each subproblem's race spends at most
    ``timeout_factor`` times the first finisher's cost per strategy, and the
    first finisher is never slower than S_b.
    """
    s = len(report.strategies)
    bound = s * report.timeout_factor * report.best_total
    return report.race_cost, bound
