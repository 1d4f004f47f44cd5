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
propagating extension. A depth forks only when it propagates and makes at
least ``FORK_MIN_ASSIGNMENTS`` enumeration assignments: it is then cut into
``SPANS`` contiguous spans of the frontier, which
:func:`~eps_select.runner.run_pool` hands to forked worker processes when
there is more than one worker (the decomposition only propagates and reads
no incumbent). The parent concatenates the spans' children in task order
and counts the assignments itself, so the subproblems, their domains, the
prefix length and the work do not depend on the worker count. Every other
depth is extended in the calling process. A smaller depth costs less to
propagate than forking workers and unpickling their replies
(BENCH_forked_decomposition.json), and so does a
forward-checked one: forward checking nqueens(10) to target 3000 costs
about a quarter of propagating it, and forked spans would give most of the
saving back (BENCH_forward_check.json).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .csp import Model, _cascade, _propagate
from .runner import raise_failures, run_pool
from .search import root_domains

# a propagating depth (one that does not forward-check) with fewer
# enumeration assignments than this is extended in the calling process: its
# propagation costs less than forking workers and pickling their replies. An
# assignment's cost differs between models, so the count does not track a
# depth's cost everywhere (BENCH_forked_decomposition.json). Each depth
# alone on a shared 2-core host, in the calling process against forked at 2
# workers, medians of interleaved pairs: allinterval(10)'s depth 4 (3 728
# assignments) took 115-121 ms against 79-82 ms, forked faster in all 21
# pairs of three rounds, yet another round ran the whole decomposition
# slower at 2 workers in 20 of 21 pairs: forking needs an idle second core.
# Below the threshold golomb(8)'s depth 3 (833 assignments) would pay to
# fork, 157 against 104 ms (11 of 11 pairs), and allinterval(10)'s depth 3
# (680 assignments) would not, 44 against 56 ms (0 of 11).
FORK_MIN_ASSIGNMENTS = 1000
# a larger depth is cut into this many contiguous spans of its frontier; the
# cut depends on the frontier only, so the subproblems do not depend on the
# worker count
SPANS = 32
# most domain masks a depth's frontier may hold: a depth whose assignments
# times the model's variable count exceeds this is refused before it is
# extended, since each consistent assignment keeps a list of one mask per
# variable (8 to 40 bytes a mask, and the forked workers' replies hold a
# second copy while they are unpickled). The lab's largest depth is latin(5)'s
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
    from :func:`~eps_select.search.root_domains`. An extension that raises
    in a forked depth (see the module docstring) ends in
    :class:`~eps_select.runner.TaskFailed` with the error as cause, at any
    worker count; in every other depth its error arrives as itself.
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
        n = len(frontier)
        if not model.open_domains_decide and assignments >= FORK_MIN_ASSIGNMENTS:
            size = -(-n // SPANS)
            results, _ = run_pool(
                [(start, min(start + size, n)) for start in range(0, n, size)],
                cfg.worker_count,
                partial(_extend, model, frontier, depth),
                processes=True,
            )
            raise_failures(results)
            frontier = [doms for r in results for doms in r.result]
        else:
            frontier = _extend(model, frontier, depth, (0, n))
        depth += 1
        if len(frontier) > len(best):
            best = frontier
            best_depth = depth
    if len(frontier) < target:
        # the target is unreachable at any prefix: deeper prefixes eventually
        # collapse toward the solution set, so keep the largest set seen
        frontier, depth = best, best_depth

    base = model.lo
    # equal masks and equal (variable, value) pairs share one object: masks
    # unpickled from worker replies, and pairs read back from the prefix's
    # singletons, would otherwise each keep one of their own
    shared: dict = {}
    subs = [
        Subproblem(
            i,
            tuple(
                shared.setdefault(pair, pair)
                for pair in enumerate(m.bit_length() - 1 + base for m in doms[:depth])
            ),
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


def _extend(
    model: Model, frontier: list[list[int]], depth: int, span: tuple[int, int]
) -> list[list[int]]:
    """The consistent children of ``frontier[start:stop]`` in order: each
    entry's variable ``depth`` fixed to each of its values, ascending. From
    the entry's domains, a fixpoint of every constraint, a child runs
    :func:`~eps_select.csp._cascade` on a model that ``open_domains_decide``
    and is propagated otherwise, where only the fixed variable seeds the
    ``all_different`` pending values (see the module docstring)."""
    cascade = model.open_domains_decide
    watch = model.watchers[depth]
    children = []
    for doms in frontier[span[0] : span[1]]:
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
    """Uniform sample of ``k`` distinct indices, sorted; deterministic given seed."""
    if k > population_size:
        raise ValueError(f"sample size {k} exceeds population {population_size}")
    if k < 0:
        raise ValueError("sample size must be >= 0")
    return sorted(random.Random(seed).sample(range(population_size), k))


def sample_size_rule(population: int) -> int:
    """At least 30 subproblems, at most ~1 % of the population (never more
    than the population itself)."""
    return min(max(30, math.ceil(0.01 * population)), population)
