import pytest

from eps_select.csp import AllDifferent, Model, NotEqual, Objective, VariableDecl, _propagate
from eps_select.search import SolveMode, solve
from eps_select.strategies import (
    ALL_STRATEGIES,
    CounterState,
    StrategyId,
    parse_strategies,
    parse_strategy,
    variable_chooser,
)


def _model(domains, constraints=(), objective=None):
    decls = [VariableDecl(f"v{i}", tuple(d)) for i, d in enumerate(domains)]
    return Model("m", decls, list(constraints), objective)


def _choose(sid, domains, constraints=(), counters=None):
    """The chooser's pick on the root domains; -1 when all are assigned."""
    m = _model(domains, constraints)
    c = counters if counters is not None else CounterState(m.n)
    return variable_chooser(m, sid, c)(list(m.initial_masks))


def test_tokens_roundtrip():
    assert [s.token for s in ALL_STRATEGIES] == [
        "ff", "act", "wdegm", "wdegM", "mregret", "mostc", "dwdeg",
    ]
    for s in ALL_STRATEGIES:
        assert parse_strategy(s.token) is s
    assert parse_strategies("ff, wdegM") == (StrategyId.FF, StrategyId.WDEG_MAX)
    with pytest.raises(ValueError):
        parse_strategy("wdegm ")


def test_ff_unique_minimum():
    assert _choose(StrategyId.FF, [(1, 2, 3), (1, 2), (1, 2, 3, 4, 5)]) == 1


def test_mregret():
    assert _choose(StrategyId.MREGRET, [(1, 4, 9), (2, 3)]) == 0


def test_dwdeg_ratio():
    c = CounterState(2)
    c.wdeg = [2, 1]
    # ratios 4/2=2 vs 6/1=6
    assert _choose(StrategyId.DWDEG, [(1, 2, 3, 4), (1, 2, 3, 4, 5, 6)], counters=c) == 0


def test_dwdeg_zero_wdeg_clamped():
    assert _choose(StrategyId.DWDEG, [(1, 2, 3), (1, 2)]) == 1


def test_mostc_static_degree():
    doms = [(1, 2), (1, 2), (1, 2)]
    cons = [NotEqual(0, 1), NotEqual(1, 2), AllDifferent((1, 2))]
    assert _choose(StrategyId.MOSTC, doms, cons) == 1


def test_act_and_wdeg_argmax():
    # act, wdegm, wdegM and mostc pick the largest score among unassigned
    # variables, ties to the smallest index
    doms = [(1, 2), (1, 2), (1, 2)]
    c = CounterState(3)
    c.activity = [0.0, 3.0, 1.0]
    c.wdeg = [0, 1, 4]
    assert _choose(StrategyId.ACT, doms, counters=c) == 1
    assert _choose(StrategyId.WDEG_MIN, doms, counters=c) == 2
    assert _choose(StrategyId.WDEG_MAX, doms, counters=c) == 2
    cons = [NotEqual(0, 1), NotEqual(1, 2), AllDifferent((1, 2))]  # degrees 1, 3, 2
    assert _choose(StrategyId.MOSTC, doms, cons, counters=c) == 1
    # variable 2 has the top score of each but is already assigned
    doms = [(1, 2), (1, 2), (5,), (1, 2)]
    c = CounterState(4)
    c.activity = [1.0, 2.0, 9.0, 2.0]
    c.wdeg = [0, 3, 7, 1]
    assert _choose(StrategyId.ACT, doms, counters=c) == 1
    assert _choose(StrategyId.WDEG_MIN, doms, counters=c) == 1
    assert _choose(StrategyId.WDEG_MAX, doms, counters=c) == 1
    cons = [NotEqual(2, 3), NotEqual(2, 1), AllDifferent((2, 3))]  # degrees 0, 1, 3, 2
    assert _choose(StrategyId.MOSTC, doms, cons, counters=c) == 3


def test_all_assigned_sentinel():
    for sid in ALL_STRATEGIES:
        assert _choose(sid, [(5,), (2,)]) == -1


def test_tie_break_smallest_index():
    for sid in ALL_STRATEGIES:
        assert _choose(sid, [(1, 2), (1, 2), (1, 2)]) == 0


def test_value_choice_min_max():
    # the objective is the only variable, so a first solution reports the
    # value the strategy assigned
    m = _model([(3, 7, 9)], objective=Objective(0))
    for sid in ALL_STRATEGIES:
        expect = 9 if sid is StrategyId.WDEG_MAX else 3
        assert solve(m, (), sid, SolveMode.FIRST_SOLUTION).best_objective == expect
    m = _model([(5,)], objective=Objective(0))
    for sid in ALL_STRATEGIES:
        assert solve(m, (), sid, SolveMode.FIRST_SOLUTION).best_objective == 5


def test_failure_bumps_wdeg_of_scope():
    c = CounterState(4)
    c.on_failure((0, 1, 2))
    assert c.wdeg == [1, 1, 1, 0]
    c.on_failure((0, 1))
    c.on_failure((0, 1))
    assert c.wdeg == [3, 3, 1, 0]
    c.on_failure((2,))
    assert c.wdeg == [3, 3, 2, 0]


def test_activity_bumped_once_per_decision():
    c = CounterState(2)
    c.bump_pruned_many([0, 0, 0], decision_index=1)  # pruned thrice in one fixpoint
    assert c.activity[0] == 1.0
    c.bump_pruned_many([0], decision_index=1)  # a later event of the same decision
    assert c.activity[0] == 1.0
    c.bump_pruned_many([0], decision_index=2)
    assert c.activity[0] == 2.0
    assert c.activity[1] == 0.0


def test_selection_pure_function():
    m = _model([(1, 2, 3), (1, 2)])
    choose = variable_chooser(m, StrategyId.FF, CounterState(2))
    picks = {choose(list(m.initial_masks)) for _ in range(5)}
    assert picks == {1}


def test_wdeg_scaling_invariance():
    doms = [(1, 2, 3, 4), (1, 2, 3), (1, 2)]
    c1 = CounterState(3)
    c1.wdeg = [2, 3, 1]
    c2 = CounterState(3)
    c2.wdeg = [20, 30, 10]
    for sid in (StrategyId.WDEG_MIN, StrategyId.WDEG_MAX, StrategyId.DWDEG):
        assert _choose(sid, doms, counters=c1) == _choose(sid, doms, counters=c2)


def test_static_criteria_ignore_constraint_order():
    doms = [(1, 2, 3), (1, 2), (1, 2, 3, 4)]
    cons_a = [NotEqual(0, 1), AllDifferent((0, 1, 2))]
    cons_b = list(reversed(cons_a))
    for sid in (StrategyId.FF, StrategyId.MOSTC):
        assert _choose(sid, doms, cons_a) == _choose(sid, doms, cons_b)


def test_activity_counted_once_per_fixpoint_integration():
    # v2 is pruned by two constraints during one decision's propagation;
    # its activity must rise by one, not two
    m = _model(
        [(1, 2), (1, 2, 3), (1, 2, 3)],
        [AllDifferent((0, 1)), AllDifferent((0, 2)), NotEqual(1, 2, 0)],
    )
    doms = list(m.initial_masks)
    doms[0] = m.value_bit(1)
    c = CounterState(3)
    pruned = []
    fail, _ = _propagate(m, doms, m.watchers[0], pruned)
    assert fail < 0
    c.bump_pruned_many(pruned, decision_index=1)
    assert c.activity[1] == 1.0
    assert c.activity[2] == 1.0
