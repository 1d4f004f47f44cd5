"""Parallel strategy selection: race, uncensor, eliminate, solve the rest.

The strategies of a run are its oracle's (``oracle.strategies``): the warm
start and the race use that list and no other.

Per sampled subproblem every live strategy is raced under a relative timeout
of ``timeout_factor`` times the first finisher's cost; unfinished runs are
recorded censored at that limit. The first finisher is found by doubling a
budget shared by all strategies, in both time modes. In work-units mode a
budgeted run is the memoized full deterministic run plus a limit check, so
each (subproblem, strategy) pair is solved once however many budgets the
race tries, and the race's cost without timeouts is known for reporting.
:meth:`ModelOracle.solve_all` is the one place a batch of full runs goes
into the memo. On a satisfaction model :func:`pss_select` hands it every
(sampled subproblem, strategy) cell before the race, and the winner's
remainder after selection. It solves each twin class the memo lacks once
per strategy (see :class:`ModelOracle`), in forked workers when there is
more than one, and reads every cell from the memo. On an optimization model
each run reads the incumbent its predecessors raised: the race solves its
cells in the calling process as it reaches them, and ``solve_all`` solves
the remainder there in order. In wall mode runs are stopped by elapsed
time, and that cost is unknown, so the race solves its cells in the calling
process too.

On a model with an objective, a first-solution race at the root runs before
the sample race (the warm start): every strategy of the oracle dives on the
whole model under the default 2x relative timeout, and the finishers'
objectives seed the incumbent, so no sampled subproblem is raced without a
bound. Its cost is charged to selection, and the bandit and portfolio
baselines on an oracle sharing the memo start from the same incumbent and
pay the same cost.

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

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from .csp import Model
from .decomposition import (
    Decomposition,
    DecompositionConfig,
    Subproblem,
    decompose,
    sample_size_rule,
    srs_sample,
)
from .runner import raise_failures, run_pool
from .search import (
    Incumbent, SolveMode, SolveOutcome, SubtreeMemo, TimeMode, solve, twin_key,
)
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

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class Observation:
    """One run; a censored run's ``value`` is the limit it was stopped at."""

    value: float
    censored: bool
    solutions: int = 0
    objective: Optional[int] = None

    def __reduce__(self):
        # pool replies carry many of these: as the constructor's arguments
        # the four fields dump and load faster than the state that a frozen,
        # slotted dataclass pickles and then sets back field by field
        return Observation, (self.value, self.censored, self.solutions, self.objective)


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
        # NaN fails every comparison, so test for the values that are allowed
        if not 1.0 < self.timeout_factor < math.inf:
            raise ValueError(f"timeout_factor must be finite and > 1, got {self.timeout_factor}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass
class PssConfig:
    """How a PSS run decomposes, samples and races. The strategies raced are
    the oracle's (:attr:`ModelOracle.strategies`), not part of the config."""

    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)
    race: RaceConfig = field(default_factory=RaceConfig)
    sample_size: Optional[int] = None

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

    def warm_start(self) -> float:
        return 0.0

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

    In work mode the oracle also owns one subtree memo per strategy (see
    :mod:`eps_select.search`), kept in the shared cache under
    ``("subtrees", sid)`` and handed to every full run, so oracles sharing a
    cache share it. The calling process fills it with the runs it solves in
    a pool, and a forked pool worker fills its own copy, lost when the
    worker ends; every hit is exact, so no result depends on which memo a
    run saw. Wall mode hands none, so reuse cuts no strategy's measured time.

    A work-mode oracle also sorts its subproblems into twin classes by
    :func:`~eps_select.search.twin_key`, once per shared cache (under
    ``"twins"``). Twins give equal outcomes in every field but ``wall_ms``
    under every strategy (see :mod:`eps_select.search`), so :meth:`full`,
    :meth:`remember` and :meth:`solve_all` key the memo by each class's first
    subproblem, :meth:`twin`, and solve a class once per strategy.
    ``distinct_roots`` counts the classes. Wall mode and optimization models
    have no twins: each subproblem is its own class.
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
        # the first subproblem of each twin's class, for the twins after it
        self._twins = self._twin_classes(subproblems) if self.has_true_costs else {}
        self.distinct_roots = len(self.sub_ids) - len(self._twins)

    def _twin_classes(self, subproblems: Sequence[Subproblem]) -> dict[int, int]:
        twins = self._cache.get("twins")
        if twins is None:
            twins = {}
            key = twin_key(self.model)
            if key is not None:
                first: dict = {}
                for s in subproblems:
                    head = first.setdefault(key(s.domains), s.id)
                    if head != s.id:
                        twins[s.id] = head
            self._cache["twins"] = twins
        return twins

    def twin(self, sub: int) -> int:
        """The first subproblem of ``sub``'s twin class, whose full runs
        stand for ``sub``'s; ``sub`` itself when it has no twin before it."""
        return self._twins.get(sub, sub)

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
        s = self.subs[sub]
        # work mode hands every full run its strategy's subtree memo; wall
        # mode hands none, so no strategy's measured time is cut by reuse
        subtrees = (
            self._cache.setdefault(("subtrees", sid), SubtreeMemo())
            if self.has_true_costs else None
        )
        return solve(
            self.model, s.assignment, sid, self.mode,
            bound=bound, wall_limit_ms=wall_ms, domains=s.domains, subtrees=subtrees,
        )

    def full(self, sub: int, sid: StrategyId, bound=_LIVE) -> Observation:
        live = bound is _LIVE
        b = self.current_bound() if live else bound
        key = (self.twin(sub), sid, b)
        obs = self._cache.get(key)
        if obs is None:
            obs = _observe(self._solve(sub, sid, b), self.time_mode)
            self._cache[key] = obs
        if live:
            self.merge_objectives((obs,))
        return obs

    def remember(self, sub: int, sid: StrategyId, obs: Observation) -> None:
        """Memoize a full run that a pool returned: one made in a forked
        worker, whose own memo writes are lost, or in this process, whose
        equal entry the pool's unpickled copy replaces, so that the memo and
        the pool's results hold one object. Satisfaction models only: their
        runs read no bound."""
        if self.incumbent is not None:
            raise ValueError("only bound-free runs can be remembered")
        self._cache[(self.twin(sub), sid, None)] = obs

    def solve_all(self, cells: Sequence[tuple[int, StrategyId]],
                  worker_count: int) -> list[Observation]:
        """The full run of each (subproblem, strategy) cell at the live bound,
        in cell order. With no objective one :func:`run_pool` call solves the
        (twin head, strategy) cells the memo lacks, in this process and, when
        there is more than one worker, in forked workers, and remembers them;
        every cell is then read
        from the memo. With an objective each cell reads the incumbent the
        cells before it raised, so the pool solves them in order in this
        process. A failed cell raises :class:`~eps_select.runner.TaskFailed`
        with its error as the cause."""
        satisfaction = self.incumbent is None
        tasks = cells
        if satisfaction:
            lacking: dict = {}
            for cell in cells:
                head = self.twin(cell[0])
                if (head, cell[1], None) not in self._cache:
                    # a class's first cell stands for it as it is
                    lacking[cell if head == cell[0] else (head, cell[1])] = None
            tasks = list(lacking)
        if tasks:
            results, _ = run_pool(tasks, worker_count, lambda cell: self.full(*cell),
                                  cost_fn=lambda obs: obs.value, processes=satisfaction)
            raise_failures(results)
            if not satisfaction:
                return [r.result for r in results]
            for r in results:
                self.remember(*r.task, r.result)
        return [self._cache[(self.twin(sub), sid, None)] for sub, sid in cells]

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
    # WSR tests run. Each is one-tailed against an anchor the data chose, so
    # (1 - alpha) ** comparisons is no confidence (test_selection.py's
    # calibration tests)
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
    def best_total(self) -> float:
        return self.matrix.column_total(self.best_strategy)

    @property
    def total_cost(self) -> float:
        return self.selection_cost + self.solve_cost

    @property
    def sample_share(self) -> Optional[float]:
        """The sample's share of the population; None before it is known."""
        return len(self.matrix.sub_ids) / self.population if self.population else None

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
            "sample_share": self.sample_share,
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
    initial_best: Optional[StrategyId] = None,
) -> SelectionReport:
    """Run the full selection phase on an oracle over the given sample.

    The strategies raced, and warm-started first, are the oracle's.
    ``initial_best`` forces the anchor of the first elimination pass (testing
    hook for the reversal path); by default it is found by
    :func:`find_uncensored_best`. The no-timeout race cost is reported only
    for oracles with true costs (``has_true_costs``).
    """
    strategies = oracle.strategies
    matrix = RuntimeMatrix(strategies, sorted(sample_ids))
    true_costs = oracle.has_true_costs
    costs = PhaseCosts(race_without_to=0.0 if true_costs else None, warm_start=oracle.warm_start())
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
) -> SelectionReport:
    """Run the pipeline on a fixed runtime matrix (no model, no solve phase)."""
    cfg = cfg if cfg is not None else RaceConfig()
    oracle = MatrixOracle(costs)
    ids = list(sample_ids) if sample_ids is not None else list(oracle.sub_ids)
    rep = select_strategy(oracle, cfg, ids)
    rep.population = len(oracle.sub_ids)
    return rep


def pss_select(
    model: Model,
    cfg: Optional[PssConfig] = None,
    oracle: Optional[ModelOracle] = None,
    decomposition: Optional[Decomposition] = None,
) -> SelectionReport:
    """Full PSS run: decompose, sample, select, solve the rest with the winner.

    The strategies are the oracle's; without an oracle, all of them.
    """
    cfg = cfg if cfg is not None else PssConfig()
    rc = cfg.race
    if decomposition is None:
        decomposition = decompose(model, cfg.decomposition)
    subs = decomposition.subproblems
    population = len(subs)
    sample = srs_sample(population, cfg.sample_size_for(population), rc.sample_seed)
    if oracle is None:
        oracle = ModelOracle(model, subs, time_mode=rc.time_mode)
    if oracle.has_true_costs:
        log.info("%s: %d subproblems, %d distinct roots",
                 model.name, population, oracle.distinct_roots)

    workers = cfg.decomposition.worker_count
    if model.objective is None and oracle.has_true_costs:
        # in work mode the race reads only the sampled cells' full runs; on an
        # optimization model each race pins the bound its predecessors raised
        oracle.solve_all([(sub, s) for sub in sample for s in oracle.strategies], workers)

    rep = select_strategy(oracle, rc, sample)
    sampled = set(sample)
    results = oracle.solve_all([(s.id, rep.winner) for s in subs if s.id not in sampled], workers)

    rep.population = population
    rep.prefix_len = decomposition.prefix_len
    rep.decompose_work = decomposition.work
    rep.solve_cost = sum(obs.value for obs in results)
    if model.objective is None:
        # sampled subproblems: exact counts from the uncensored best's column
        solutions = sum(rep.matrix.get(s, rep.best_strategy).solutions for s in rep.sample_ids)
        rep.solutions_found = solutions + sum(obs.solutions for obs in results)
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
