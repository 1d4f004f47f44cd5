import sys

import pytest

from eps_select.benchmarks import allinterval, golomb, latin, magicsquare, nqueens
from eps_select.csp import (
    AllDifferent,
    InconsistentProblem,
    LinearEq,
    Model,
    NotEqual,
    VariableDecl,
)
from eps_select.search import SolveMode, SolveStatus, count_all, solve
from eps_select.strategies import ALL_STRATEGIES, StrategyId

from bruteforce import allinterval_count, brute_count, brute_optimum, golomb_optimum


def test_4queens_all_solutions():
    m = nqueens(4)
    assert brute_count(m) == 2
    for sid in ALL_STRATEGIES:
        out = solve(m, (), sid, SolveMode.ALL_SOLUTIONS)
        assert out.complete and out.solutions_found == 2


def test_6queens_count():
    m = nqueens(6)
    assert brute_count(m) == 4
    out = count_all(m)
    assert out.solutions_found == 4


def test_budget_zero_exhausts():
    m = nqueens(6)
    out = solve(m, (), StrategyId.FF, SolveMode.ALL_SOLUTIONS, budget=0)
    assert out.status is SolveStatus.BUDGET_EXHAUSTED
    assert out.work_used >= 0


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        solve(nqueens(6), (), StrategyId.FF, SolveMode.ALL_SOLUTIONS, budget=-3)


def test_deep_search_keeps_recursion_limit():
    # 1500 free 0/1 variables: the first solution lies 1500 decisions deep
    m = Model("chain", [VariableDecl(f"x{i}", (0, 1)) for i in range(1500)], [])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        out = solve(m, (), StrategyId.FF, SolveMode.FIRST_SOLUTION)
        limit_after = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(old)
    assert out.complete and out.solutions_found == 1 and out.work_used == 1500
    assert limit_after == 200


def test_budget_exhausted_implies_work_at_limit():
    m = nqueens(7)
    for limit in (1, 5, 20, 100):
        out = solve(m, (), StrategyId.FF, SolveMode.ALL_SOLUTIONS, budget=limit)
        if out.status is SolveStatus.BUDGET_EXHAUSTED:
            assert out.work_used >= limit


def test_budget_monotonicity():
    m = allinterval(6)
    full = solve(m, (), StrategyId.FF, SolveMode.ALL_SOLUTIONS)
    w = full.work_used
    exactly = solve(m, (), StrategyId.FF, SolveMode.ALL_SOLUTIONS, budget=w)
    assert exactly.complete
    assert exactly.solutions_found == full.solutions_found
    assert exactly.work_used == w
    below = solve(m, (), StrategyId.FF, SolveMode.ALL_SOLUTIONS, budget=w - 1)
    assert below.status is SolveStatus.BUDGET_EXHAUSTED
    for extra in (1, 7, 1000):
        again = solve(m, (), StrategyId.FF, SolveMode.ALL_SOLUTIONS, budget=w + extra)
        assert again.complete and again.work_used == w


def test_determinism():
    m = allinterval(7)
    a, b = [solve(m, (), StrategyId.ACT, SolveMode.ALL_SOLUTIONS) for _ in range(2)]
    assert (a.status, a.solutions_found, a.work_used, a.decisions, a.failures, a.propagations) == (
        b.status, b.solutions_found, b.work_used, b.decisions, b.failures, b.propagations
    )


def test_all_interval_5_matches_bruteforce():
    # permutation oracle: the difference variables are functionally determined
    m = allinterval(5)
    assert count_all(m).solutions_found == allinterval_count(5)


def test_strategy_independent_counts():
    for m in (nqueens(6), allinterval(6), latin(3), magicsquare(3)):
        counts = {solve(m, (), sid, SolveMode.ALL_SOLUTIONS).solutions_found for sid in ALL_STRATEGIES}
        assert len(counts) == 1


def test_first_solution_stops_early():
    m = nqueens(8)
    first = solve(m, (), StrategyId.FF, SolveMode.FIRST_SOLUTION)
    assert first.complete is False or first.solutions_found == 1
    assert first.solutions_found == 1
    full = solve(m, (), StrategyId.FF, SolveMode.ALL_SOLUTIONS)
    assert first.work_used <= full.work_used


def test_first_solution_reports_objective():
    out = solve(golomb(8), (), StrategyId.FF, SolveMode.FIRST_SOLUTION)
    assert out.complete and out.solutions_found == 1
    assert out.best_objective == 44
    assert out.work_used == 7
    # a first solution is a solution: never better than the true optimum
    assert golomb_optimum(5, 15) == 11
    for sid in ALL_STRATEGIES:
        small = solve(golomb(5, maxlen=15), (), sid, SolveMode.FIRST_SOLUTION)
        assert small.solutions_found == 1
        assert small.best_objective >= 11


def test_optimize_matches_bruteforce():
    m = golomb(4, maxlen=12)
    assert golomb_optimum(4, 12) == 6
    for sid in ALL_STRATEGIES:
        out = solve(m, (), sid, SolveMode.OPTIMIZE)
        assert out.complete and out.best_objective == 6
    # a small model where the full product space is cheap to enumerate
    from eps_select.csp import Objective

    decls = [VariableDecl(f"v{i}", tuple(range(0, 5))) for i in range(3)]
    m2 = Model(
        "minmid",
        decls,
        [AllDifferent((0, 1, 2)), LinearEq((1, 1, 1), (0, 1, 2), 6)],
        Objective(var=1, maximize=False),
    )
    out = solve(m2, (), StrategyId.FF, SolveMode.OPTIMIZE)
    assert out.best_objective == brute_optimum(m2)


def test_optimize_maximize():
    decls = [VariableDecl("a", (1, 2, 3)), VariableDecl("b", (1, 2, 3))]
    from eps_select.csp import Objective

    m = Model("maxsum", decls, [NotEqual(0, 1, 0), LinearEq((1, 1), (0, 1), 5)],
              Objective(var=0, maximize=True))
    out = solve(m, (), StrategyId.FF, SolveMode.OPTIMIZE)
    assert out.best_objective == 3


def test_optimize_with_incumbent_bound():
    m = golomb(4, maxlen=12)
    out = solve(m, (), StrategyId.FF, SolveMode.OPTIMIZE, bound=6)
    assert out.complete and out.best_objective is None  # nothing strictly better
    out = solve(m, (), StrategyId.FF, SolveMode.OPTIMIZE, bound=7)
    assert out.best_objective == 6


def test_subproblem_assignment():
    m = nqueens(6)
    total = 0
    for v in range(6):
        try:
            out = solve(m, ((0, v),), StrategyId.FF, SolveMode.ALL_SOLUTIONS)
            total += out.solutions_found
        except InconsistentProblem:
            pass
    assert total == 4


def test_inconsistent_assignment_raises():
    m = Model(
        "bad",
        [VariableDecl("a", (1,)), VariableDecl("b", (1,))],
        [AllDifferent((0, 1))],
    )
    with pytest.raises(InconsistentProblem):
        solve(m, ())


def test_zero_work_when_root_propagation_solves():
    m = Model("triv", [VariableDecl("a", (1, 2, 3))], [LinearEq((1,), (0,), 2)])
    out = solve(m)
    assert out.complete and out.work_used == 0 and out.solutions_found == 1


def test_unconstrained_domain_count():
    m = Model("free", [VariableDecl("a", (1, 2, 3))], [])
    assert count_all(m).solutions_found == 3


def test_always_false_constraint():
    m = Model(
        "empty",
        [VariableDecl("a", (1, 2)), VariableDecl("b", (5, 6))],
        [LinearEq((1, 1), (0, 1), 100)],
    )
    with pytest.raises(InconsistentProblem):
        solve(m)
    # push the contradiction below the root so the search discovers it
    m2 = Model(
        "empty2",
        [VariableDecl("a", (1, 2)), VariableDecl("b", (5, 6))],
        [NotEqual(0, 0, 0)],
    )
    out = None
    try:
        out = solve(m2)
    except InconsistentProblem:
        pytest.skip("x != x is refuted at the root")
    assert out.solutions_found == 0


def test_wall_limit_reports_exhaustion():
    m = allinterval(9)
    out = solve(m, (), StrategyId.ACT, SolveMode.ALL_SOLUTIONS, wall_limit_ms=15.0)
    assert out.status is SolveStatus.BUDGET_EXHAUSTED
    assert out.wall_ms < 5000
