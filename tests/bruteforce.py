"""Independent brute-force oracles for the tests.

Deliberately does NOT reuse the propagation engine: constraints are checked
semantically on full assignments, and enumeration is plain itertools.product
over the declared domains (or a problem-specific enumeration where the
product space is too large). The one exception is the decomposition
reference, because propagation consistency is defined by the engine: it asks
``solve`` whether each whole prefix, applied at once to the root, survives
propagation.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from eps_select.csp import (
    AbsDiff,
    AllDifferent,
    InconsistentProblem,
    LinearEq,
    LinearLe,
    Model,
    NotEqual,
)
from eps_select.search import SolveMode, solve
from eps_select.strategies import StrategyId

Prefix = tuple[tuple[int, int], ...]


def satisfies(model: Model, values: tuple[int, ...]) -> bool:
    for c in model.constraints:
        if isinstance(c, AllDifferent):
            vs = [values[v] for v in c.vars]
            if len(set(vs)) != len(vs):
                return False
        elif isinstance(c, LinearEq):
            if sum(k * values[v] for k, v in zip(c.coeffs, c.vars)) != c.rhs:
                return False
        elif isinstance(c, LinearLe):
            if sum(k * values[v] for k, v in zip(c.coeffs, c.vars)) > c.rhs:
                return False
        elif isinstance(c, AbsDiff):
            if values[c.z] != abs(values[c.x] - values[c.y]):
                return False
        elif isinstance(c, NotEqual):
            if values[c.x] == values[c.y] + c.offset:
                return False
        else:
            raise TypeError(f"unhandled constraint {type(c)}")
    return True


def assignment_space(model: Model) -> int:
    total = 1
    for v in model.variables:
        total *= len(v.values)
    return total


def brute_solutions(model: Model, partial: dict[int, int] | None = None) -> Iterator[tuple[int, ...]]:
    domains = [v.values for v in model.variables]
    if partial:
        domains = [
            (partial[i],) if i in partial else d for i, d in enumerate(domains)
        ]
    for values in itertools.product(*domains):
        if satisfies(model, values):
            yield values


def brute_count(model: Model, partial: dict[int, int] | None = None) -> int:
    return sum(1 for _ in brute_solutions(model, partial))


def brute_optimum(model: Model) -> Optional[int]:
    assert model.objective is not None
    best = None
    for values in brute_solutions(model):
        v = values[model.objective.var]
        if best is None:
            best = v
        elif model.objective.maximize:
            best = max(best, v)
        else:
            best = min(best, v)
    return best


def allinterval_count(n: int) -> int:
    """Count all-interval series by checking every permutation of 0..n-1."""
    count = 0
    for perm in itertools.permutations(range(n)):
        diffs = {abs(perm[i + 1] - perm[i]) for i in range(n - 1)}
        if len(diffs) == n - 1:
            count += 1
    return count


def golomb_optimum(n: int, maxlen: int) -> int:
    """Shortest n-mark Golomb ruler with marks in 0..maxlen, by enumeration."""
    best = None
    for marks in itertools.combinations(range(1, maxlen + 1), n - 1):
        full = (0,) + marks
        diffs = [b - a for a, b in itertools.combinations(full, 2)]
        if len(set(diffs)) == len(diffs):
            length = full[-1]
            if best is None or length < best:
                best = length
    assert best is not None
    return best


def consistent_prefixes(model: Model, depth: int) -> list[Prefix]:
    """Every instantiation of variables 0..depth-1 that ``solve`` accepts as a
    subproblem, in lexicographic order of the values."""
    out: list[Prefix] = []

    def go(prefix: Prefix) -> None:
        i = len(prefix)
        if i == depth:
            out.append(prefix)
            return
        for val in model.variables[i].values:
            longer = prefix + ((i, val),)
            try:
                solve(model, longer, StrategyId.FF, SolveMode.ALL_SOLUTIONS, budget=0)
            except InconsistentProblem:
                continue
            go(longer)

    go(())
    return out


def reference_decomposition(model: Model, target: int) -> tuple[list[Prefix], int]:
    """(subproblem prefixes, prefix length) by the decomposition rule: the
    shallowest depth with at least ``target`` consistent prefixes, else the
    shallowest depth with the most of them."""
    best: list[Prefix] = [()]
    best_depth = 0
    for depth in range(1, model.n + 1):
        if len(best) >= target:
            break
        prefixes = consistent_prefixes(model, depth)
        if len(prefixes) >= target or len(prefixes) > len(best):
            best, best_depth = prefixes, depth
    return best, best_depth
