"""Static decomposition into propagation-consistent subproblems, plus SRS.

The decomposition fixes a prefix of the variables in declaration order and
enumerates every instantiation of that prefix that survives propagation --
no search strategy is involved. It keeps the frontier of consistent prefixes
together with the domains their propagation left, and deepens it one
variable at a time: each frontier entry is extended by every remaining value
of the next variable, in ascending order, and propagated from its parent's
domains. The frontier thus stays in lexicographic order, every enumeration
assignment is made once, and no recursion is involved. Deepening stops when
the subproblem count reaches the target or every variable is in the prefix;
if the target is never reached, the largest frontier seen is returned.
Mutually exclusive and exhaustive prefixes make the subproblems a partition
of the root's solution space. Each subproblem keeps the domains its
propagation left, which are its root fixpoint (every propagator is monotone,
so propagating the prefix from the parent's domains reaches the same
fixpoint as propagating it from the model's initial domains), and the search
starts from them without a root pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .csp import Model, _propagate
from .search import root_domains


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
    from :func:`~eps_select.search.root_domains`.
    """
    target = cfg.effective_target()

    root, _ = root_domains(model)

    watchers = model.watchers
    base = model.lo
    total_work = 0
    depth = 0
    # the depth-d frontier: each consistent prefix of variables 0..d-1 with
    # the domain masks its propagation left
    frontier: list[tuple[tuple[tuple[int, int], ...], list[int]]] = [((), root)]
    best = frontier
    best_depth = 0
    while len(frontier) < target and depth < model.n:
        extended = []
        for prefix, doms in frontier:
            d = doms[depth]
            while d:
                low = d & -d
                d ^= low
                d2 = doms[:]
                d2[depth] = low
                total_work += 1
                fc, _ = _propagate(model, d2, watchers[depth], [])
                if fc < 0:
                    extended.append((prefix + ((depth, low.bit_length() - 1 + base),), d2))
        frontier = extended
        depth += 1
        if len(frontier) > len(best):
            best = frontier
            best_depth = depth
    if len(frontier) < target:
        # the target is unreachable at any prefix: deeper prefixes eventually
        # collapse toward the solution set, so keep the largest set seen
        frontier, depth = best, best_depth

    subs = [Subproblem(i, prefix, tuple(doms)) for i, (prefix, doms) in enumerate(frontier)]
    return Decomposition(
        subproblems=subs,
        prefix_len=depth,
        shortfall=len(subs) < target,
        work=total_work,
    )


@dataclass
class Sample:
    indices: list[int]
    seed: int


def srs_sample(population_size: int, k: int, seed: int) -> Sample:
    """Uniform sample of ``k`` distinct indices; deterministic given seed."""
    if k > population_size:
        raise ValueError(f"sample size {k} exceeds population {population_size}")
    if k < 0:
        raise ValueError("sample size must be >= 0")
    rng = random.Random(seed)
    indices = sorted(rng.sample(range(population_size), k))
    return Sample(indices=indices, seed=seed)


def sample_size_rule(population: int, floor: int = 30, fraction: float = 0.01) -> int:
    """At least ``floor`` subproblems, at most ~``fraction`` of the population
    (never more than the population itself)."""
    return min(max(floor, math.ceil(fraction * population)), population)
