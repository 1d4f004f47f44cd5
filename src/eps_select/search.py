"""Depth-first backtracking search with deterministic work accounting.

Branching is binary: left branch ``var = value``, right branch
``var != value``, with the variable and value picked by the strategy and the
variable re-selected after every branch. The value is the minimum of the
chosen domain, or the maximum for ``wdegM``. Every call starts fresh
activity and weighted-degree counters, which never decay, and keeps only the
ones its strategy reads: activity for ``act``, weighted degrees for
``wdegm``, ``wdegM`` and ``dwdeg``, none for ``ff``, ``mregret`` and
``mostc``. A branch wakes every constraint on its variable, and a prune
every constraint on the pruned variable (see :mod:`eps_select.csp`). Those
three choose from the domains alone, so on a model whose
:attr:`~eps_select.csp.Model.open_domains_decide` (nqueens, latin) their
search forward-checks instead of propagating, as the decomposition does: a
branch that fixes its variable runs :func:`~eps_select.csp._cascade`, which
removes that value's :meth:`~eps_select.csp.Model.removals` row from the
neighbours and does the same for each neighbour a removal fixes, and fails
when a domain empties; a branch that leaves its variable open propagates
nothing, since no ``all_different`` or ``not_equal`` acts on an open
variable. In ``OPTIMIZE`` mode a bound prune that fixes the objective joins
the cascade, and one that leaves it open prunes nothing further for the
same reason. From a fixpoint that cascade reaches the unique fixpoint that
``_propagate`` reaches, or fails where it fails (see
:mod:`eps_select.decomposition`), so every decision, failure, solution and
status stays the same; ``propagations`` then counts the root passes plus the
removal rows applied, one per fix. The other four read the pruned variables
or the failing constraint, which only a propagation names, so their search
propagates on every model.
Every node is a fixpoint, so each propagation names the variables the branch
has just set -- the branch variable, and the objective after a bound prune
-- and only their fixed values seed the ``all_different`` pending values
(see :func:`~eps_select.csp._propagate`). The chooser scans only the
variables still open in the root domains, in index order: a root singleton
stays fixed below the root, so every strategy picks what a scan of every
variable picks. The search is one loop over an explicit stack of the right
branches still to take, so its depth is bounded by memory, not by the
interpreter's recursion limit, which it never changes. One work unit is one
committed branch; a failed propagation adds one more. The budget, and in
wall mode the deadline, is tested once before every branch, left or right,
so a run can overshoot its limit by at most one fixpoint -- and
``BudgetExhausted`` always implies ``work_used >= limit``.

A search may take a subtree memo (``subtrees``). Its key is a propagated
node's domains with every fixed variable's mask replaced by 0 -- one byte
per variable when every mask fits in a byte, else a tuple -- and its value
is the ``(decisions, failures, solutions, propagations)`` of the subtree
below that node. A node whose key is in the memo adds those counts and is
not searched; any other node records them once the stack of pending right
branches drops back below it. The memo applies only when all of these
hold, and is ignored otherwise: the strategy is ``ff``, ``mregret`` or
``mostc``; the mode is ``ALL_SOLUTIONS`` with no budget and no wall limit;
and the model's :attr:`~eps_select.csp.Model.open_domains_decide` holds,
every constraint being an ``all_different`` or a ``not_equal`` over a scope
that repeats no variable. Then two nodes with one key have one subtree, pass
counts included. Both are fixpoints, so every fixed value is gone from the
open domains it constrains. Below them an ``all_different`` is handed only
the values fixed there, and a ``not_equal`` with one side fixed only ever
finds the other side's excluded value already gone; so every propagator
prunes, fails and counts the same whatever the fixed values are, the queue
follows the scopes alone, and a chooser that reads the domains alone picks
the same variable and value. An ``abs_diff`` or a linear constraint reads
its fixed variables' values -- ``z = |x - y|`` with ``x`` fixed prunes
``z`` by distances from ``x``'s value, and a sum's bounds add the fixed
terms -- so equal open domains can head different subtrees there, and such
models stay out. A node key that also kept the fixed end of each
``abs_diff`` over two open variables (the twin key below) would be exact
there but does not pay: under ``ff`` on allinterval(10)/3000's subproblems
it hits 2 070 of 26 681 lookups and skips 15 % of the work, yet they took
1.29 s with it against 1.11 s without (medians of 7 alternating runs, 2
cores). A memo holds at most ``SUBTREE_MEMO_ENTRIES`` entries; a full one
still serves hits.

At the root that key pays under every strategy. Subproblems are *twins*
when :func:`twin_key` maps their root domains to one key. On a model with
no objective whose constraints are all ``all_different`` or ``not_equal``
over a scope that repeats no variable, or ``abs_diff`` over three distinct
variables, twins started from those domains give equal outcomes in every
field but ``wall_ms`` under every strategy, to the end or to the first
solution, with or without a budget: each solve starts with fresh counters,
the chooser scans only the root's open variables, no root-fixed variable
is pruned, and every propagator over one prunes, fails and counts alike in
both -- an ``all_different`` or ``not_equal`` as above, an ``abs_diff``
with two fixed ends because the root fixpoint left the third only values
it accepts, and one with a single fixed end because that end's value is in
the key. allinterval(10)/3000 has 278 twins among its 3 702 subproblems.

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
from typing import Callable, Hashable, Optional, Sequence

from .csp import (
    AbsDiff, AllDifferent, InconsistentProblem, Model, NotEqual, _cascade, _propagate,
)
from .strategies import CounterState, StrategyId, variable_chooser

_NO_LIMIT = 1 << 62
_WDEG_STRATEGIES = (StrategyId.WDEG_MIN, StrategyId.WDEG_MAX, StrategyId.DWDEG)

# The most entries one subtree memo takes; a full memo still serves hits. An
# entry measured 180 bytes on latin(5), whose key is 25 bytes, and 230 bytes
# on nqueens(10), whose key is a tuple of 10 masks, so a full memo holds 6 to
# 8 MB on models of that size; latin(5)/3000's remainder under ff takes
# 28 021 entries.
SUBTREE_MEMO_ENTRIES = 1 << 15
# each mask below 256 as a subtree key byte: itself if open, 0 if fixed
_OPEN_BYTE = bytes(m if m & (m - 1) else 0 for m in range(256))


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

    def __init__(self, maximize: bool = False):
        self.maximize = maximize
        self.value: Optional[int] = None

    def propose(self, value: Optional[int]) -> bool:
        if value is None:
            return False
        if self.value is None or (value > self.value if self.maximize else value < self.value):
            self.value = value
            return True
        return False


def root_domains(
    model: Model, assignment: Sequence[tuple[int, int]] = ()
) -> tuple[list[int], int]:
    """The domain masks of the root fixpoint under ``assignment``, and its passes.

    Each assigned variable is fixed to its value, then every constraint is
    woken once and propagated to the fixpoint. A value outside its variable's
    domain, or a propagation failure, raises :class:`InconsistentProblem`;
    with an empty ``assignment`` the message names the model, whose own
    constraints are then contradictory.
    """
    masks = list(model.initial_masks)
    for var, val in assignment:
        bit = model.value_bit(val)
        if not masks[var] & bit:
            raise InconsistentProblem(
                f"assignment {model.names[var]}={val} is outside the domain"
            )
        masks[var] = bit
    fail, passes = _propagate(model, masks, range(len(model.constraints)), [])
    if fail >= 0:
        if not assignment:
            raise InconsistentProblem(
                f"model {model.name!r} is inconsistent: propagation at the root fails"
            )
        raise InconsistentProblem("subproblem assignment is not propagation-consistent")
    return masks, passes


def twin_key(model: Model) -> Optional[Callable[[Sequence[int]], Hashable]]:
    """The map from a subproblem's root domains to its twin key, or None on a
    model whose subproblems have no twins (see the module docstring).

    The key is the domains with every fixed variable's mask replaced by 0,
    except a fixed variable that shares an ``abs_diff`` with two open ones --
    one byte per variable when every mask fits in a byte, else a tuple.
    """
    if model.objective is not None:
        return None
    triples = []
    for c in model.constraints:
        scope = c.scope
        if len(set(scope)) < len(scope) or not isinstance(c, (AbsDiff, AllDifferent, NotEqual)):
            return None
        if isinstance(c, AbsDiff):
            triples.append(scope)

    byte_keys = model.ubits <= 8

    def key(domains: Sequence[int]) -> Hashable:
        out = (
            bytearray(bytes(domains).translate(_OPEN_BYTE)) if byte_keys
            else [d if d & (d - 1) else 0 for d in domains]
        )
        for x, y, z in triples:
            # keep the one fixed variable of an abs_diff over two open ones
            dx = domains[x]
            dy = domains[y]
            dz = domains[z]
            if not dx & (dx - 1):
                if dy & (dy - 1) and dz & (dz - 1):
                    out[x] = dx
            elif not dy & (dy - 1):
                if dz & (dz - 1):
                    out[y] = dy
            elif not dz & (dz - 1):
                out[z] = dz
        return bytes(out) if byte_keys else tuple(out)

    return key


def solve(
    model: Model,
    assignment: Sequence[tuple[int, int]] = (),
    sid: StrategyId = StrategyId.FF,
    mode: SolveMode = SolveMode.ALL_SOLUTIONS,
    budget: Optional[int] = None,
    bound: Optional[int] = None,
    wall_limit_ms: Optional[float] = None,
    *,
    domains: Optional[Sequence[int]] = None,
    subtrees: Optional[dict] = None,
) -> SolveOutcome:
    """Solve the model under a partial assignment with one strategy.

    The search starts from the root fixpoint of ``assignment``. By default
    :func:`root_domains` computes it, so an assignment that is not
    propagation-consistent raises :class:`InconsistentProblem`.
    ``domains`` passes that fixpoint in instead -- a decomposed
    :class:`~eps_select.decomposition.Subproblem` stores it -- and the root
    pass is skipped. Every propagator is monotone, so both starts reach the
    same domains and the same outcome, except that ``propagations`` then
    leaves out the root passes. In ``OPTIMIZE`` mode ``bound`` is the
    incumbent objective: only strictly improving solutions are admitted, and
    each one tightens the bound for the rest of the run. In
    ``FIRST_SOLUTION`` mode the bound is not applied, and on a model with an
    objective the first solution's objective is reported. A negative
    ``budget`` raises :class:`ValueError`. ``subtrees`` is a subtree memo
    that the search reads and fills where the module docstring lets it, and
    leaves untouched elsewhere; each memo must serve one model and one
    strategy.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    n = model.n
    base = model.lo
    counters = CounterState(n)

    t0 = perf_counter()
    if domains is None:
        masks, passes = root_domains(model, assignment)
    else:
        masks, passes = list(domains), 0
    pruned: list[int] = []

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
    # a variable fixed at the root stays fixed below it, so the chooser scans
    # only the ones open there, in the same order
    chooser = variable_chooser(
        model, sid, counters, [v for v, d in enumerate(masks) if d & (d - 1)]
    )
    # only the chooser reads the counters, so keep just the ones it reads
    keep_activity = sid is StrategyId.ACT
    keep_wdeg = sid in _WDEG_STRATEGIES
    # a chooser that reads the domains alone reads only the fixpoint: where
    # the open domains decide, the removal cascade of the fixes (see the docstring)
    domain_only = not (keep_activity or keep_wdeg)
    forward = domain_only and model.open_domains_decide
    pick_max = sid is StrategyId.WDEG_MAX
    first_only = mode is SolveMode.FIRST_SOLUTION
    # the subtree memo serves only searches whose open domains decide every
    # subtree and that run each one to its end (see the docstring)
    memo = subtrees if (
        domain_only and mode is SolveMode.ALL_SOLUTIONS and budget is None
        and wall_limit_ms is None and model.open_domains_decide
    ) else None
    byte_keys = model.ubits <= 8

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
    # the memoized nodes whose subtrees are still open: (key, the length of
    # pending and the four counts when the node was reached)
    frames: list[tuple] = []
    node: Optional[list[int]] = masks  # a propagated node not yet branched on
    while True:
        if node is None:
            # a subtree is done once pending is back to its length at the node
            while frames and frames[-1][1] == len(pending):
                key, _, d0, f0, s0, p0 = frames.pop()
                if len(memo) < SUBTREE_MEMO_ENTRIES:
                    memo[key] = (decisions - d0, failures - f0, solutions - s0, propagations - p0)
            if not pending:
                break
            parent, var, mask = pending.pop()
        else:
            if memo is not None:
                key = (
                    bytes(node).translate(_OPEN_BYTE) if byte_keys
                    else tuple([d if d & (d - 1) else 0 for d in node])
                )
                seen = memo.get(key)
                if seen is not None:
                    decisions += seen[0]
                    failures += seen[1]
                    solutions += seen[2]
                    propagations += seen[3]
                    node = None
                    continue
                frames.append((key, len(pending), decisions, failures, solutions, propagations))
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
        if decisions + failures >= limit or (
            deadline is not None and perf_counter() > deadline
        ):
            exhausted = True
            break

        node = parent[:]
        node[var] = mask
        decisions += 1
        wake = watchers[var]
        set_vars = (var,)
        if optimizing and cur_bound is not None:
            od = node[objvar]
            if maximize:
                nod = od & model.range_mask(cur_bound + 1, hi_mask_limit)
            else:
                nod = od & model.range_mask(base, cur_bound - 1)
            if nod != od:
                if nod == 0:
                    failures += 1
                    if keep_wdeg:
                        counters.on_failure((objvar,))
                    node = None
                    continue
                node[objvar] = nod
                wake = wake_obj[var]
                if var != objvar:
                    set_vars = (var, objvar)
        if forward:
            # only a fix propagates, by its removal cascade (see the docstring)
            fixed = [v for v in set_vars if node[v] & (node[v] - 1) == 0]
            if fixed:
                fv, rows = _cascade(model, node, fixed)
                propagations += rows
                if fv >= 0:
                    failures += 1
                    node = None
            continue
        pruned.clear()
        fc, np_ = _propagate(model, node, wake, pruned, set_vars)
        propagations += np_
        if keep_activity and pruned:
            counters.bump_pruned_many(pruned, decisions)
        if fc >= 0:
            failures += 1
            if keep_wdeg:
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
