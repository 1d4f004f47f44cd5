"""Depth-first backtracking search with deterministic work accounting.

Branching is binary: left branch ``var = value``, right branch
``var != value``, with the variable and value picked by the strategy and the
variable re-selected after every branch. The value is the minimum of the
chosen domain, or the maximum for ``wdegM``. Every call starts fresh
activity and weighted-degree counters, which never decay. The search is one
loop over an explicit stack of the right branches still to take, so its depth
is bounded by memory, not by the interpreter's recursion limit, which it never
changes. One work unit is one committed branch; a failed propagation adds one
more. The budget, and in wall mode the deadline, is tested once before every
branch, left or right, so a run can overshoot its limit by at most one
fixpoint -- and ``BudgetExhausted`` always implies ``work_used >= limit``.

The work counter is the primary "time" measure: identical inputs give
identical outcomes, which is what makes races and the statistics on top of
them exactly reproducible. Wall-clock limits are available for realistic
runs and are inherently non-deterministic. A solve runs in the calling
thread; nothing in the package starts threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from time import perf_counter
from typing import Optional, Sequence

from .csp import InconsistentProblem, Model, _propagate
from .strategies import CounterState, StrategyId, variable_chooser

_NO_LIMIT = 1 << 62


class SolveMode(Enum):
    ALL_SOLUTIONS = "all"
    FIRST_SOLUTION = "first"
    OPTIMIZE = "optimize"


class SolveStatus(Enum):
    COMPLETE = "complete"
    BUDGET_EXHAUSTED = "budget_exhausted"


class TimeMode(Enum):
    WORK = "work"
    WALL = "wall"


@dataclass
class SolveOutcome:
    status: SolveStatus
    solutions_found: int
    best_objective: Optional[int]
    work_used: int
    decisions: int
    failures: int
    propagations: int
    wall_ms: float

    @property
    def complete(self) -> bool:
        return self.status is SolveStatus.COMPLETE


class Incumbent:
    """Monotone best-objective holder shared by the oracles of one run."""

    def __init__(self, maximize: bool = False, value: Optional[int] = None):
        self.maximize = maximize
        self.value = value

    def propose(self, value: Optional[int]) -> bool:
        if value is None:
            return False
        if self.value is None or (value > self.value if self.maximize else value < self.value):
            self.value = value
            return True
        return False


def solve(
    model: Model,
    assignment: Sequence[tuple[int, int]] = (),
    sid: StrategyId = StrategyId.FF,
    mode: SolveMode = SolveMode.ALL_SOLUTIONS,
    budget: Optional[int] = None,
    bound: Optional[int] = None,
    wall_limit_ms: Optional[float] = None,
) -> SolveOutcome:
    """Solve the model under a partial assignment with one strategy.

    ``assignment`` must be propagation-consistent (decomposition guarantees
    this); anything else raises :class:`InconsistentProblem`. In
    ``OPTIMIZE`` mode ``bound`` is the incumbent objective: only strictly
    improving solutions are admitted, and each one tightens the bound for the
    rest of the run. In ``FIRST_SOLUTION`` mode the bound is not applied, and
    on a model with an objective the first solution's objective is reported.
    A negative ``budget`` raises :class:`ValueError`.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    n = model.n
    base = model.lo
    masks = list(model.initial_masks)
    for var, val in assignment:
        bit = model.value_bit(val)
        if not masks[var] & bit:
            raise InconsistentProblem(
                f"assignment {model.names[var]}={val} is outside the domain"
            )
        masks[var] = bit

    counters = CounterState(n)

    t0 = perf_counter()
    pruned: list[int] = []
    fail, passes = _propagate(model, masks, range(len(model.constraints)), pruned)
    if fail >= 0:
        raise InconsistentProblem("subproblem assignment is not propagation-consistent")

    obj = model.objective
    optimizing = mode is SolveMode.OPTIMIZE
    if optimizing and obj is None:
        raise ValueError("OPTIMIZE mode needs a model objective")
    objvar = obj.var if obj is not None else -1
    maximize = bool(obj.maximize) if obj is not None else False

    watchers = model.watchers
    scopes = model.scopes
    if optimizing:
        # pre-merged wake lists so a bound tightening rewakes the objective's
        # constraints in a fixed order
        wake_obj = [
            w + tuple(c for c in watchers[objvar] if c not in w) for w in watchers
        ]
    else:
        wake_obj = None
    chooser = variable_chooser(model, sid, counters)
    pick_max = sid is StrategyId.WDEG_MAX
    first_only = mode is SolveMode.FIRST_SOLUTION

    limit = _NO_LIMIT if budget is None else budget
    deadline = None if wall_limit_ms is None else t0 + wall_limit_ms / 1000.0

    decisions = 0
    failures = 0
    solutions = 0
    propagations = passes
    best: Optional[int] = None
    cur_bound = bound
    exhausted = False
    hi_mask_limit = base + model.ubits - 1

    # right branches still to take: (parent domains, var, var's remaining mask)
    pending: list[tuple[list[int], int, int]] = []
    node: Optional[list[int]] = masks  # a propagated node not yet branched on
    while True:
        if node is not None:
            var = chooser(node)
            if var < 0:
                solutions += 1
                if optimizing:
                    v = node[objvar].bit_length() - 1 + base
                    if cur_bound is None or (v > cur_bound if maximize else v < cur_bound):
                        best = v
                        cur_bound = v
                elif first_only:
                    if objvar >= 0:
                        best = node[objvar].bit_length() - 1 + base
                    break
                node = None
                continue
            d = node[var]
            vbit = (1 << (d.bit_length() - 1)) if pick_max else d & -d
            pending.append((node, var, d & ~vbit))
            parent, mask = node, vbit
        elif pending:
            parent, var, mask = pending.pop()
        else:
            break
        if decisions + failures >= limit or (
            deadline is not None and perf_counter() > deadline
        ):
            exhausted = True
            break

        node = parent[:]
        node[var] = mask
        decisions += 1
        wake = watchers[var]
        if optimizing and cur_bound is not None:
            od = node[objvar]
            if maximize:
                nod = od & model.range_mask(cur_bound + 1, hi_mask_limit)
            else:
                nod = od & model.range_mask(base, cur_bound - 1)
            if nod != od:
                if nod == 0:
                    failures += 1
                    counters.on_failure((objvar,))
                    node = None
                    continue
                node[objvar] = nod
                wake = wake_obj[var]
        pruned.clear()
        fc, np_ = _propagate(model, node, wake, pruned)
        propagations += np_
        if pruned:
            counters.bump_pruned_many(pruned, decisions)
        if fc >= 0:
            failures += 1
            counters.on_failure(scopes[fc])
            node = None

    return SolveOutcome(
        status=SolveStatus.BUDGET_EXHAUSTED if exhausted else SolveStatus.COMPLETE,
        solutions_found=solutions,
        best_objective=best,
        work_used=decisions + failures,
        decisions=decisions,
        failures=failures,
        propagations=propagations,
        wall_ms=(perf_counter() - t0) * 1000.0,
    )


def count_all(model: Model, sid: StrategyId = StrategyId.FF) -> SolveOutcome:
    """All-solutions solve of the whole model with no budget (optimization
    models are solved to proven optimality instead)."""
    mode = SolveMode.OPTIMIZE if model.objective is not None else SolveMode.ALL_SOLUTIONS
    return solve(model, (), sid, mode)
