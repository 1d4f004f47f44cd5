import random
import sys

import pytest

from eps_select.benchmarks import allinterval, golomb, latin, magicsquare, nqueens
from eps_select.csp import (
    AbsDiff,
    AllDifferent,
    InconsistentProblem,
    LinearEq,
    LinearLe,
    Model,
    NotEqual,
    Objective,
    VariableDecl,
    var_range,
)
from eps_select.decomposition import DecompositionConfig, decompose
from eps_select.search import SolveMode, SolveStatus, count_all, root_domains, solve, twin_key
from eps_select.strategies import ALL_STRATEGIES, StrategyId

from bruteforce import allinterval_count, brute_count, brute_optimum, golomb_optimum
from reference_propagate import reference_propagate


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


# (model, strategy) -> (status, solutions, objective, work, decisions, failures,
# propagations) of a whole-model solve: ALL_SOLUTIONS on the satisfaction
# models, OPTIMIZE on golomb(5). Recorded before the propagation hot path was
# tuned, with every prune waking every constraint on its variable; a strategy
# that lost a counter it reads (act's activity, the wdeg family's weights)
# branches differently and misses its row.
PINNED_SOLVES = {
    ("nqueens", "ff"): ("complete", 40, None, 282, 214, 68, 7577),
    ("nqueens", "act"): ("complete", 40, None, 1176, 810, 366, 16563),
    ("nqueens", "wdegm"): ("complete", 40, None, 531, 380, 151, 10241),
    ("nqueens", "wdegM"): ("complete", 40, None, 531, 380, 151, 10243),
    ("nqueens", "mregret"): ("complete", 40, None, 336, 250, 86, 7783),
    ("nqueens", "mostc"): ("complete", 40, None, 294, 222, 72, 7550),
    ("nqueens", "dwdeg"): ("complete", 40, None, 300, 226, 74, 7669),
    ("allinterval", "ff"): ("complete", 32, None, 1325, 904, 421, 6493),
    ("allinterval", "act"): ("complete", 32, None, 4022, 2702, 1320, 16974),
    ("allinterval", "wdegm"): ("complete", 32, None, 2255, 1524, 731, 9978),
    ("allinterval", "wdegM"): ("complete", 32, None, 2324, 1570, 754, 9396),
    ("allinterval", "mregret"): ("complete", 32, None, 1484, 1010, 474, 6640),
    ("allinterval", "mostc"): ("complete", 32, None, 1226, 838, 388, 5922),
    ("allinterval", "dwdeg"): ("complete", 32, None, 1349, 920, 429, 6936),
    ("latin", "ff"): ("complete", 576, None, 1150, 1150, 0, 5728),
    ("latin", "act"): ("complete", 576, None, 4531, 3404, 1127, 12784),
    ("latin", "wdegm"): ("complete", 576, None, 1150, 1150, 0, 5704),
    ("latin", "wdegM"): ("complete", 576, None, 1150, 1150, 0, 5704),
    ("latin", "mregret"): ("complete", 576, None, 1438, 1342, 96, 6244),
    ("latin", "mostc"): ("complete", 576, None, 1150, 1150, 0, 5704),
    ("latin", "dwdeg"): ("complete", 576, None, 1150, 1150, 0, 5728),
    ("magicsquare", "ff"): ("complete", 8, None, 128, 90, 38, 869),
    ("magicsquare", "act"): ("complete", 8, None, 128, 90, 38, 926),
    ("magicsquare", "wdegm"): ("complete", 8, None, 77, 56, 21, 561),
    ("magicsquare", "wdegM"): ("complete", 8, None, 77, 56, 21, 561),
    ("magicsquare", "mregret"): ("complete", 8, None, 131, 92, 39, 856),
    ("magicsquare", "mostc"): ("complete", 8, None, 71, 52, 19, 541),
    ("magicsquare", "dwdeg"): ("complete", 8, None, 77, 56, 21, 580),
    ("golomb", "ff"): ("complete", 2, 11, 32, 22, 10, 393),
    ("golomb", "act"): ("complete", 2, 11, 65, 44, 21, 510),
    ("golomb", "wdegm"): ("complete", 2, 11, 41, 28, 13, 402),
    ("golomb", "wdegM"): ("complete", 15, 11, 202, 144, 58, 2060),
    ("golomb", "mregret"): ("complete", 2, 11, 32, 22, 10, 389),
    ("golomb", "mostc"): ("complete", 2, 11, 32, 22, 10, 393),
    ("golomb", "dwdeg"): ("complete", 2, 11, 62, 42, 20, 508),
}

# The propagations of the rows whose search forward-checks: a domain-only
# strategy on a model of all_different and not_equal constraints counts the
# root passes and then the removal rows its fixes applied. Every other column
# is the full-wake record above.
FORWARD_CHECK_PROPAGATIONS = {
    ("nqueens", "ff"): 436,
    ("nqueens", "mregret"): 491,
    ("nqueens", "mostc"): 438,
    ("latin", "ff"): 4752,
    ("latin", "mregret"): 4906,
    ("latin", "mostc"): 4776,
}

DOMAIN_ONLY = (StrategyId.FF, StrategyId.MREGRET, StrategyId.MOSTC)


def _row(o):
    return (o.status.value, o.solutions_found, o.best_objective, o.work_used,
            o.decisions, o.failures, o.propagations)


def _pinned_models(propagating=False):
    """The pinned models; with ``propagating``, nqueens and latin search
    through ``_propagate`` under every strategy, as the other models do."""
    models = {
        "nqueens": (nqueens(7), SolveMode.ALL_SOLUTIONS),
        "allinterval": (allinterval(7), SolveMode.ALL_SOLUTIONS),
        "latin": (latin(4), SolveMode.ALL_SOLUTIONS),
        "magicsquare": (magicsquare(3), SolveMode.ALL_SOLUTIONS),
        "golomb": (golomb(5), SolveMode.OPTIMIZE),
    }
    if propagating:
        for m, _ in models.values():
            m.open_domains_decide = False
    return models


def _pinned_row(key):
    """The pinned row of ``key`` as the search counts it by default."""
    want = PINNED_SOLVES[key]
    return want[:6] + (FORWARD_CHECK_PROPAGATIONS.get(key, want[6]),)


def test_solve_outcomes_pinned():
    assert len(PINNED_SOLVES) == len(_pinned_models()) * len(ALL_STRATEGIES)
    assert set(FORWARD_CHECK_PROPAGATIONS) == {
        key for key in PINNED_SOLVES
        if StrategyId(key[1]) in DOMAIN_ONLY and key[0] in ("nqueens", "latin")
    }

    def outcomes(models):
        return {(name, token): _row(solve(models[name][0], (), StrategyId(token),
                                          models[name][1]))
                for name, token in PINNED_SOLVES}

    # propagating, every row matches its record in all seven columns; the
    # forward-checking rows differ only in propagations
    assert outcomes(_pinned_models(propagating=True)) == PINNED_SOLVES
    forward = outcomes(_pinned_models())
    for key in PINNED_SOLVES:
        assert forward[key] == _pinned_row(key), key


def test_pinned_outcomes_hold_with_a_cold_and_a_warm_subtree_memo():
    # a fresh memo, then the same memo filled by the first solve: both give
    # the pinned row; only the domain-only strategies on the models of
    # all_different and not_equal constraints ever write to it
    models = _pinned_models()
    for name, token in PINNED_SOLVES:
        model, mode = models[name]
        sid = StrategyId(token)
        want = _pinned_row((name, token))
        memo = {}
        cold = _row(solve(model, (), sid, mode, subtrees=memo))
        filled = dict(memo)
        warm = _row(solve(model, (), sid, mode, subtrees=memo))
        assert (cold, warm) == (want, want), (name, token)
        used = sid in DOMAIN_ONLY and name in ("nqueens", "latin")
        assert bool(filled) == used, (name, token)
        # the warm solve hits at the root and adds nothing
        assert memo == filled


def test_search_propagations_match_the_reference_kernel(monkeypatch):
    # every _propagate call of a whole-model solve, the root's included,
    # under all seven strategies on the pinned models that propagate: the
    # reference kernel, which wakes every watcher and rescans every fixed
    # value, gives the same failing index, pass count, domains and pruned
    # sequence from the same domains and wake list
    from eps_select import search

    real = search._propagate
    calls = []

    def recording(model, doms, wake, pruned, set_vars=None):
        before, wake = list(doms), list(wake)
        got = real(model, doms, wake, pruned, set_vars)
        calls.append((model, before, wake, got, list(doms), list(pruned)))
        return got

    monkeypatch.setattr(search, "_propagate", recording)
    models = _pinned_models()
    for name in ("allinterval", "golomb", "magicsquare"):
        model, mode = models[name]
        for sid in ALL_STRATEGIES:
            solve(model, (), sid, mode)
    assert len(calls) > 10_000
    failed = 0
    for model, before, wake, got, after, pruned in calls:
        doms, want_pruned = list(before), []
        want = reference_propagate(model, doms, wake, want_pruned)
        assert (got, after, pruned) == (want, doms, want_pruned), (model.name, before, wake)
        failed += want[0] >= 0
    assert 0 < failed < len(calls)


def _random_distinct_model(rng):
    """Four to seven variables under one or two all_different and one to four
    not_equal constraints, none of which repeats a variable; value spans of
    up to ten bits, so keys come both as bytes and as tuples."""
    n = rng.randint(4, 7)
    decls = []
    for i in range(n):
        lo = rng.randint(-2, 2)
        decls.append(var_range(f"v{i}", lo, lo + rng.randint(1, 5)))
    cons = [AllDifferent(tuple(rng.sample(range(n), rng.randint(2, n))))
            for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randint(1, 4)):
        a, b = rng.sample(range(n), 2)
        cons.append(NotEqual(a, b, rng.randint(-2, 2)))
    rng.shuffle(cons)
    return Model("distinct", decls, cons)


def test_subtree_memo_outcomes_equal_the_memo_less_search(monkeypatch):
    # every subproblem of each decomposition, solved under one memo per
    # (decomposition, strategy) in task order and under another in reverse
    # order, matches its memo-less solve in every field but wall_ms; the
    # all_different/not_equal models reuse subtrees, and the abs_diff and
    # linear models, whose fixed values steer their subtrees, take no entry
    from eps_select import search

    rng = random.Random("subtree-memo")
    reused = [latin(4), nqueens(7)]
    while len(reused) < 32:
        m = _random_distinct_model(rng)
        try:
            root_domains(m)
        except InconsistentProblem:
            continue
        reused.append(m)
    refused = [allinterval(8), magicsquare(3)]
    refused += [_random_search_model(random.Random(f"refused-{i}"), False) for i in range(20)]
    assert all(m.open_domains_decide for m in reused)
    assert {m.ubits <= 8 for m in reused} == {True, False}  # bytes and tuple keys
    assert not any(m.open_domains_decide for m in refused)

    # the propagations a search makes: calls of _propagate, and calls of
    # _cascade where the search forward-checks
    calls = [0]

    def counted(real):
        def call(*args):
            calls[0] += 1
            return real(*args)
        return call

    monkeypatch.setattr(search, "_propagate", counted(search._propagate))
    monkeypatch.setattr(search, "_cascade", counted(search._cascade))
    saved = {True: 0, False: 0}
    for m in reused + refused:
        try:
            subs = decompose(m, DecompositionConfig(target_count=40)).subproblems
        except InconsistentProblem:
            continue
        for sid in DOMAIN_ONLY:
            calls[0] = 0
            want = [_row(solve(m, s.assignment, sid, domains=s.domains)) for s in subs]
            without = calls[0]
            for order in (subs, subs[::-1]):
                memo = {}
                calls[0] = 0
                got = {s.id: _row(solve(m, s.assignment, sid, domains=s.domains,
                                        subtrees=memo))
                       for s in order}
                assert [got[s.id] for s in subs] == want, (m.name, sid)
                assert bool(memo) == m.open_domains_decide, (m.name, sid)
                saved[m.open_domains_decide] += without - calls[0]
    assert saved[True] > 0 and saved[False] == 0


def _propagating_copy(m):
    """``m`` rebuilt to search through ``_propagate`` under every strategy."""
    closed = Model(m.name, m.variables, m.constraints, m.objective)
    closed.open_domains_decide = False
    return closed


def _forward_check_cases(m, target, rng, modes, whole=False):
    """(assignment, domains, mode, budget) of every subproblem of the
    decomposition at ``target``, and with ``whole`` of the whole model: each
    mode of ``modes`` with no budget, and the first one again under a random
    budget."""
    roots = [((), None)] if whole else []
    roots += [
        (s.assignment, s.domains)
        for s in decompose(m, DecompositionConfig(target_count=target)).subproblems
    ]
    return [
        (assignment, domains, mode, budget)
        for assignment, domains in roots
        for mode, budget in [(mode, None) for mode in modes] + [(modes[0], rng.randint(0, 60))]
    ]


@pytest.mark.parametrize("group", ["nqueens", "latin", "random"])
def test_forward_checked_search_matches_the_propagating_search(group):
    # under ff, mregret and mostc on a model of all_different and not_equal
    # constraints the search forward-checks; it must match the propagating
    # search of the same model in every field but propagations and wall_ms,
    # with a fresh subtree memo and with one that earlier solves filled
    rng = random.Random(f"forward-check-search-{group}")
    # the random models are small, so they are solved whole and split into
    # few subproblems, which leaves search below each
    target, whole = (8, True) if group == "random" else (300, False)
    if group == "nqueens":
        models = [nqueens(n) for n in range(6, 11)]
    elif group == "latin":
        models = [latin(n) for n in (3, 4, 5)]
    else:
        models = []
        while len(models) < 40:
            m = _random_distinct_model(rng)
            try:
                root_domains(m)
            except InconsistentProblem:
                continue
            models.append(m)
    seen = {"solutions": 0, "failures": 0, "exhausted": 0}
    for m in models:
        assert m.open_domains_decide
        closed = _propagating_copy(m)
        cases = _forward_check_cases(
            m, target, rng, (SolveMode.ALL_SOLUTIONS, SolveMode.FIRST_SOLUTION), whole
        )
        for sid in DOMAIN_ONLY:
            warm = {}
            for assignment, domains, mode, budget in cases:
                want = _row(solve(closed, assignment, sid, mode, budget=budget,
                                  domains=domains))
                for memo in ({}, warm):
                    got = _row(solve(m, assignment, sid, mode, budget=budget,
                                     domains=domains, subtrees=memo))
                    assert got[:6] == want[:6], (m.name, m.constraints, sid, mode,
                                                 budget, assignment)
                seen["solutions"] += want[1] > 0
                seen["failures"] += want[5] > 0
                seen["exhausted"] += want[0] == "budget_exhausted"
    assert all(seen.values()), seen


def test_forward_checked_optimization_matches_the_propagating_search():
    # nqueens(8) maximizing one queen's row: each improving solution raises
    # the bound, whose prune often fixes that queen and joins the cascade
    queens = nqueens(8)
    m = Model("nqueens-max", queens.variables, queens.constraints, Objective(3, True))
    assert m.open_domains_decide
    closed = _propagating_copy(m)
    rng = random.Random("forward-check-optimize")
    cases = _forward_check_cases(m, 300, rng, (SolveMode.OPTIMIZE,), whole=True)
    improved = 0
    for sid in DOMAIN_ONLY:
        for assignment, domains, mode, budget in cases:
            for bound in (None, 4):
                want = _row(solve(closed, assignment, sid, mode, budget=budget,
                                  bound=bound, domains=domains))
                got = _row(solve(m, assignment, sid, mode, budget=budget, bound=bound,
                                 domains=domains, subtrees={}))
                assert got[:6] == want[:6], (sid, bound, budget, assignment)
                improved += want[1] > 1
    assert improved > 0


def test_removal_table_stays_at_its_cap_on_a_wide_span():
    # ff fixes c to a new value at every other branch, far more pairs than
    # the table may store: it fills to the cap, computes the rest on use,
    # and the search still matches the propagating one
    from eps_select.csp import REMOVAL_ROWS

    m = Model("wide", [var_range(x, 0, 65535) for x in "abc"], [AllDifferent((0, 1, 2))])
    got = solve(m, (), StrategyId.FF, budget=200_000)
    assert sum(map(len, m.removal_rows)) == REMOVAL_ROWS
    want = solve(_propagating_copy(m), (), StrategyId.FF, budget=200_000)
    assert _row(got)[:6] == _row(want)[:6]
    assert got.status is SolveStatus.BUDGET_EXHAUSTED and got.solutions_found > REMOVAL_ROWS


def test_subtree_memo_is_left_alone_where_open_domains_do_not_decide(monkeypatch):
    # a budget, a wall limit, another mode or a strategy that reads counters
    # leaves the memo untouched; a memo at its cap keeps serving hits
    from eps_select import search

    m = latin(4)
    for kwargs in ({"budget": 10**6}, {"wall_limit_ms": 10**6},
                   {"mode": SolveMode.FIRST_SOLUTION}, {"sid": StrategyId.ACT},
                   {"sid": StrategyId.DWDEG}):
        memo = {}
        solve(m, **kwargs, subtrees=memo)
        assert memo == {}, kwargs

    class CountingHits(dict):
        hits = 0

        def get(self, key):
            seen = super().get(key)
            CountingHits.hits += seen is not None
            return seen

    monkeypatch.setattr(search, "SUBTREE_MEMO_ENTRIES", 5)
    memo = CountingHits()
    full_at = None  # the hits counted when the memo filled
    subs = decompose(m, DecompositionConfig(target_count=40)).subproblems
    for s in subs:
        got = solve(m, s.assignment, StrategyId.FF, domains=s.domains, subtrees=memo)
        assert _row(got) == _row(solve(m, s.assignment, StrategyId.FF, domains=s.domains))
        if len(memo) == 5 and full_at is None:
            full_at = CountingHits.hits
    assert len(memo) == 5
    assert CountingHits.hits > full_at


def _random_search_model(rng, objective):
    """Four to seven variables with values below zero, under one constraint of
    each kind (linear_eq with unit or non-unit coefficients) and a few more
    disequalities; with ``objective``, a random variable to minimize or
    maximize."""
    n = rng.randint(4, 7)
    decls = []
    for i in range(n):
        lo = rng.randint(-3, 2)
        decls.append(var_range(f"v{i}", lo, lo + rng.randint(2, 5)))
    x, y, z = rng.sample(range(n), 3)
    eq = rng.sample(range(n), rng.randint(2, 3))
    le = rng.sample(range(n), rng.randint(2, 3))
    cons = [
        AllDifferent(tuple(rng.sample(range(n), rng.randint(2, n - 1)))),
        AbsDiff(x, y, z),
        LinearEq(tuple(rng.choice((-2, -1, 1, 1, 2)) for _ in eq), tuple(eq),
                 rng.randint(-3, 5)),
        LinearLe(tuple(rng.choice((-2, -1, 1, 2)) for _ in le), tuple(le), rng.randint(-2, 6)),
    ]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(n), 2)
        cons.append(NotEqual(a, b, rng.randint(-2, 2)))
    rng.shuffle(cons)
    obj = Objective(rng.randrange(n), rng.random() < 0.5) if objective else None
    return Model("random", decls, cons, obj)


def _random_twin_model(rng):
    """Five to eight variables with values below zero under one or two
    all_different, one to three abs_diff and up to three not_equal
    constraints, none of which repeats a variable."""
    n = rng.randint(5, 8)
    decls = []
    for i in range(n):
        lo = rng.randint(-3, 1)
        decls.append(var_range(f"v{i}", lo, lo + rng.randint(2, 5)))
    cons = [AllDifferent(tuple(rng.sample(range(n), rng.randint(2, n))))
            for _ in range(rng.randint(1, 2))]
    cons += [AbsDiff(*rng.sample(range(n), 3)) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(n), 2)
        cons.append(NotEqual(a, b, rng.randint(-2, 2)))
    rng.shuffle(cons)
    return Model("twins", decls, cons)


def test_twin_subproblems_give_equal_outcomes():
    # every subproblem whose twin key an earlier one of its decomposition
    # has gives that one's outcome in every field but wall_ms, under every
    # strategy: to the end, under a random budget and to the first solution
    rng = random.Random("twin-roots")
    models = [allinterval(8), allinterval(9), latin(4), nqueens(8)]
    while len(models) < 4 + 50:
        m = _random_twin_model(rng)
        try:
            root_domains(m)
        except InconsistentProblem:
            continue
        models.append(m)
    pairs = 0
    # subproblems whose open masks match an earlier one of another class:
    # only the abs_diff ends in the key keep the two apart
    anchored = 0
    for m in models:
        key = twin_key(m)
        assert key is not None, m.name
        for target in ((20, 150) if m.name != "twins" else (4, 12, 40)):
            subs = decompose(m, DecompositionConfig(target_count=target)).subproblems
            heads = {}
            open_heads = {}
            for s in subs:
                head = heads.setdefault(key(s.domains), s)
                open_key = tuple(d if d & (d - 1) else 0 for d in s.domains)
                anchored += open_heads.setdefault(open_key, head) is not head
                if head is s:
                    continue
                pairs += 1
                for sid in ALL_STRATEGIES:
                    budget = rng.randint(0, 40)
                    for mode, b in ((SolveMode.ALL_SOLUTIONS, None),
                                    (SolveMode.ALL_SOLUTIONS, budget),
                                    (SolveMode.FIRST_SOLUTION, None)):
                        want, got = (_row(solve(m, t.assignment, sid, mode, budget=b,
                                                domains=t.domains)) for t in (head, s))
                        assert got == want, (m.name, target, s.id, head.id, sid, mode, b)
    assert pairs > 1000 and anchored > 0


def test_no_twins_where_fixed_values_steer_the_search():
    # a linear constraint reads its fixed terms, an objective's bound reads
    # the objective, and an aliased scope constrains a variable against
    # itself: such models get no twin key
    x = [var_range(f"v{i}", -1, 3) for i in range(3)]
    assert twin_key(Model("ok", x, [AbsDiff(0, 1, 2), AllDifferent((0, 1)),
                                    NotEqual(0, 2, 1)])) is not None
    for cons, obj in (
        ([AllDifferent((0, 1)), LinearLe((1, 1), (0, 1), 3)], None),
        ([AllDifferent((0, 1)), LinearEq((1, -1), (1, 2), 0)], None),
        ([AllDifferent((0, 1, 2))], Objective(0, False)),
        ([AllDifferent((0, 1)), AbsDiff(0, 1, 1)], None),
        ([AllDifferent((0, 1, 1))], None),
    ):
        assert twin_key(Model("steered", x, cons, obj)) is None, (cons, obj)
    assert twin_key(golomb(5)) is None and twin_key(magicsquare(3)) is None
