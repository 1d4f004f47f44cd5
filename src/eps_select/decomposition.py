"""Static decomposition into propagation-consistent subproblems, plus SRS.

The decomposition fixes a prefix of the variables in declaration order and
enumerates every instantiation of that prefix that survives propagation --
no search strategy is involved. The prefix is deepened one variable at a
time (re-enumerating from scratch) until the subproblem count reaches the
target or every variable is in the prefix; mutually exclusive and exhaustive prefixes make
the subproblems a partition of the root's solution space.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .csp import InconsistentProblem, Model, _propagate


@dataclass(frozen=True)
class Subproblem:
    id: int
    assignment: tuple[tuple[int, int], ...]


@dataclass
class DecompositionConfig:
    """``target_count`` defaults to 30 subproblems per worker."""

    target_count: Optional[int] = None
    worker_count: int = 1

    def effective_target(self) -> int:
        t = self.target_count if self.target_count is not None else 30 * self.worker_count
        if t < 1:
            raise ValueError("target_count must be >= 1")
        return t


@dataclass
class Decomposition:
    subproblems: list[Subproblem]
    prefix_len: int
    shortfall: bool  # no prefix length reaches the target count
    work: int  # enumeration assignments spent building it

    def __len__(self) -> int:
        return len(self.subproblems)


def decompose(model: Model, cfg: DecompositionConfig) -> Decomposition:
    target = cfg.effective_target()

    root = list(model.initial_masks)
    fail, _ = _propagate(model, root, range(len(model.constraints)), [])
    if fail >= 0:
        raise InconsistentProblem("root problem is inconsistent")

    total_work = 0
    depth = 0
    prefixes: list[tuple[tuple[int, int], ...]] = [()]
    best = prefixes
    best_depth = 0
    while len(prefixes) < target and depth < model.n:
        depth += 1
        prefixes, w = _consistent_prefixes(model, root, depth)
        total_work += w
        if len(prefixes) > len(best):
            best = prefixes
            best_depth = depth
    if len(prefixes) < target:
        # the target is unreachable at any prefix: deeper prefixes eventually
        # collapse toward the solution set, so keep the largest set seen
        prefixes, depth = best, best_depth

    subs = [Subproblem(i, a) for i, a in enumerate(prefixes)]
    return Decomposition(
        subproblems=subs,
        prefix_len=depth,
        shortfall=len(subs) < target,
        work=total_work,
    )


def _consistent_prefixes(
    model: Model, root: list[int], depth: int
) -> tuple[list[tuple[tuple[int, int], ...]], int]:
    """All propagation-consistent instantiations of variables 0..depth-1."""
    watchers = model.watchers
    base = model.lo
    out: list[tuple[tuple[int, int], ...]] = []
    work = 0
    partial: list[tuple[int, int]] = []

    def go(i: int, doms: list[int]) -> None:
        nonlocal work
        if i == depth:
            out.append(tuple(partial))
            return
        d = doms[i]
        while d:
            low = d & -d
            d ^= low
            val = low.bit_length() - 1 + base
            d2 = doms[:]
            d2[i] = low
            work += 1
            fc, _ = _propagate(model, d2, watchers[i], [])
            if fc < 0:
                partial.append((i, val))
                go(i + 1, d2)
                partial.pop()

    go(0, root)
    return out, work


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
