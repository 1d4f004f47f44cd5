"""Static decomposition into propagation-consistent subproblems, plus SRS.

The decomposition fixes a prefix of the variables in declaration order and
enumerates every instantiation of that prefix that survives propagation --
no search strategy is involved. It keeps the frontier of consistent prefixes
together with the domains their propagation left, and deepens it one
variable at a time: each frontier entry is extended by every remaining value
of the next variable, in ascending order, and propagated from its parent's
domains. The frontier thus stays in lexicographic order, every enumeration
assignment is made once, and no recursion is involved. A prefix is not
stored beside its domains: its variables are singletons there. Deepening
stops when the subproblem count reaches the target or every variable is in
the prefix; if the target is never reached, the largest frontier seen is
returned. A depth whose frontier could hold more than ``MAX_FRONTIER_MASKS``
domain masks is refused with a :class:`ValueError` before it is extended.
Mutually exclusive and exhaustive prefixes make the subproblems a partition
of the root's solution space. Each subproblem keeps the domains its
propagation left, which are its root fixpoint (every propagator is monotone,
so propagating the prefix from the parent's domains reaches the same
fixpoint as propagating it from the model's initial domains), and the search
starts from them without a root pass. An extension that propagates wakes
the constraints over the variable it fixes (see :mod:`eps_select.csp`).
The parent is a fixpoint of every ``all_different``, so the extension
names that variable as ``set_vars``, and only it seeds the
``all_different`` pending values. An entry whose next variable its
propagation already fixed is its own only child, with no copy and no
propagation: re-fixing a variable of a fixpoint prunes nothing and cannot
fail. Its one assignment still counts in the work.

On a model that :attr:`~eps_select.csp.Model.open_domains_decide` (every
constraint an ``all_different``, or a ``not_equal`` whose scope repeats no
variable) :func:`_extend` forward-checks instead of propagating. There
every propagator acts on fixed variables only, and every parent is a
fixpoint, so the child's fixpoint is the closure of one rule, which
:func:`~eps_select.csp._cascade` applies for the decomposition and the
search alike: a variable fixed to a value removes from each neighbour the
values that value excludes (:meth:`~eps_select.csp.Model.removals`, filled
on first use and capped at ``REMOVAL_ROWS`` stored rows, so a wide value
span costs only the pairs actually fixed); an emptied domain fails, and a
neighbour that a removal fixes applies the rule in turn. Each removal is
one that an ``all_different`` or ``not_equal`` pass would make, so no
fixpoint below the child's start keeps a removed value; and where no domain
empties, the closure is a fixpoint of every constraint, since every fixed
variable has made its removals (those fixed in the parent there, the others
by the rule). It is therefore the unique fixpoint that ``_propagate``
reaches, and it fails where ``_propagate`` fails: the children, their
domains and their order, the prefix length and the work stay those of the
propagating extension.

One rule decides where a depth runs. A forward-checking depth is extended
in the calling process: forward checking nqueens(10) to target 3000 costs
about a quarter of propagating it, and a pool would give most of the saving
back (BENCH_forward_check.json). Every other depth hands its frontier to
one :func:`~eps_select.runner.run_pool` queue, one task per entry, which
the calling process and, when there is more than one worker, forked worker
processes extend (the decomposition only propagates and reads no
incumbent); the pool alone decides how the frontier is cut into chunks and
how many processes share them. The caller concatenates the entries'
children in task order and counts the assignments itself, so the
subproblems, their domains, the prefix length and the work do not depend
on the worker count. A pooled depth costs a small model a few milliseconds
of pickling and, at two workers or more, of forking
(BENCH_pooled_decomposition.json).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .csp import Model, _cascade, _propagate
from .runner import raise_failures, run_pool
from .search import root_domains

# most domain masks a depth's frontier may hold: a depth whose assignments
# times the model's variable count exceeds this is refused before it is
# extended, since each consistent assignment keeps a list of one mask per
# variable (8 to 40 bytes a mask, and a pooled depth's pickled replies hold
# a second copy while they are unpickled). The lab's largest depth is latin(5)'s
# at target 3000, with 3840 assignments of 25 variables (96 000 masks).
MAX_FRONTIER_MASKS = 10_000_000


@dataclass(frozen=True)
class Subproblem:
    """A prefix assignment and its root fixpoint: ``domains`` holds the masks
    that :func:`~eps_select.search.root_domains` computes for ``assignment``."""

    id: int
    assignment: tuple[tuple[int, int], ...]
    domains: tuple[int, ...] = field(repr=False)


@dataclass
class DecompositionConfig:
    """``target_count`` defaults to 30 subproblems per worker."""

    target_count: Optional[int] = None
    worker_count: int = 1

    def __post_init__(self):
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.target_count is not None and self.target_count < 1:
            raise ValueError("target_count must be >= 1")

    def effective_target(self) -> int:
        return self.target_count if self.target_count is not None else 30 * self.worker_count


@dataclass
class Decomposition:
    subproblems: list[Subproblem]
    prefix_len: int
    shortfall: bool  # no prefix length reaches the target count
    work: int  # enumeration assignments spent building it

    def __len__(self) -> int:
        return len(self.subproblems)


def decompose(model: Model, cfg: DecompositionConfig) -> Decomposition:
    """Split the model into subproblems that each carry their root fixpoint.

    An inconsistent model raises :class:`~eps_select.csp.InconsistentProblem`
    from :func:`~eps_select.search.root_domains`. A forward-checking depth is
    extended in the calling process, and every other depth in one pool (see
    the module docstring). An extension that raises in a pooled depth ends
    in :class:`~eps_select.runner.TaskFailed` with the error as cause, at
    every depth and worker count; in a forward-checking depth its error
    arrives as itself.
    """
    target = cfg.effective_target()

    root, _ = root_domains(model)

    total_work = 0
    depth = 0
    # the depth-d frontier: the domain masks of each consistent prefix of
    # variables 0..d-1, which are singletons there
    frontier: list[list[int]] = [root]
    best = frontier
    best_depth = 0
    while frontier and len(frontier) < target and depth < model.n:
        assignments = sum(doms[depth].bit_count() for doms in frontier)
        if assignments * model.n > MAX_FRONTIER_MASKS:
            raise ValueError(
                f"decomposition target {target} is out of reach in memory: prefix "
                f"length {depth + 1} would hold up to {assignments} prefixes of "
                f"{model.n} domains, more than MAX_FRONTIER_MASKS={MAX_FRONTIER_MASKS} masks"
            )
        total_work += assignments
        if model.open_domains_decide:
            frontier = _extend(model, depth, frontier)
        else:
            # task indices, not entries, so a TaskFailed message stays short
            results, _ = run_pool(
                range(len(frontier)),
                cfg.worker_count,
                lambda i: _extend(model, depth, (frontier[i],)),
            )
            raise_failures(results)
            frontier = [doms for r in results for doms in r.result]
        depth += 1
        if len(frontier) > len(best):
            best = frontier
            best_depth = depth
    if len(frontier) < target:
        # the target is unreachable at any prefix: deeper prefixes eventually
        # collapse toward the solution set, so keep the largest set seen
        frontier, depth = best, best_depth

    base = model.lo
    # one (variable, value) pair per singleton of each prefix variable's root
    # domain, read back by mask, and one object per distinct mask: masks
    # unpickled from worker replies would otherwise each keep one of their own
    pair_of = []
    for v in range(depth):
        d = root[v]
        pairs = {}
        while d:
            low = d & -d
            d ^= low
            pairs[low] = (v, low.bit_length() - 1 + base)
        pair_of.append(pairs)
    shared: dict = {}
    subs = [
        Subproblem(
            i,
            tuple(map(dict.__getitem__, pair_of, doms)),
            tuple(map(shared.setdefault, doms, doms)),
        )
        for i, doms in enumerate(frontier)
    ]
    return Decomposition(
        subproblems=subs,
        prefix_len=depth,
        shortfall=len(subs) < target,
        work=total_work,
    )


def _extend(model: Model, depth: int, entries: Sequence[list[int]]) -> list[list[int]]:
    """The consistent children of ``entries`` in order: each entry's
    variable ``depth`` fixed to each of its values, ascending. From
    the entry's domains, a fixpoint of every constraint, a child runs
    :func:`~eps_select.csp._cascade` on a model that ``open_domains_decide``
    and is propagated otherwise, where only the fixed variable seeds the
    ``all_different`` pending values (see the module docstring)."""
    cascade = model.open_domains_decide
    watch = model.watchers[depth]
    children = []
    for doms in entries:
        d = doms[depth]
        if d & (d - 1) == 0:
            # re-fixing a fixed variable of a fixpoint prunes nothing, so the
            # entry is its own only child. The list is shared across depths,
            # which is safe because no stored entry is ever written: the
            # extensions below write only their own copies.
            children.append(doms)
            continue
        while d:
            low = d & -d
            d ^= low
            d2 = doms[:]
            d2[depth] = low
            if cascade:
                fc, _ = _cascade(model, d2, [depth])
            else:
                fc, _ = _propagate(model, d2, watch, [], (depth,))
            if fc < 0:
                children.append(d2)
    return children


def srs_sample(population_size: int, k: int, seed: int) -> list[int]:
    """Uniform sample of ``k`` distinct indices, sorted; deterministic given
    seed. A seed below 0 is refused: ``random.Random`` seeds with its
    absolute value, so it would draw another seed's sample."""
    if seed < 0:
        raise ValueError(f"sample seed must be >= 0, got {seed}")
    if k > population_size:
        raise ValueError(f"sample size {k} exceeds population {population_size}")
    if k < 0:
        raise ValueError("sample size must be >= 0")
    return sorted(random.Random(seed).sample(range(population_size), k))


def sample_size_rule(population: int) -> int:
    """At least 30 subproblems, at most ~1 % of the population (never more
    than the population itself)."""
    return min(max(30, math.ceil(0.01 * population)), population)
