import random

import pytest

from eps_select.selection import (
    ElimKind,
    MatrixOracle,
    PhaseCosts,
    RaceConfig,
    RuntimeMatrix,
    eliminate,
    find_uncensored_best,
    race,
    select_on_matrix,
    select_strategy,
    selection_cost_bound,
)
from eps_select.strategies import ALL_STRATEGIES
from eps_select.wsr import Decision, Method

from conftest import (
    GOLDEN_CENSORED_TOTALS,
    GOLDEN_UNCENSORED_TOTALS,
    golden_matrix,
)

S = ALL_STRATEGIES  # S[0]..S[3] stand in for the fixture's S1..S4


def _race_all(costs, cfg=None):
    cfg = cfg or RaceConfig(alpha=0.05)
    oracle = MatrixOracle(costs)
    matrix = RuntimeMatrix(oracle.strategies, oracle.sub_ids)
    for sub in oracle.sub_ids:
        for sid, obs in race(oracle, sub, oracle.strategies, cfg).items():
            matrix.set(sub, sid, obs)
    return oracle, matrix


def test_race_reproduces_censored_totals():
    _, matrix = _race_all(golden_matrix())
    totals = [matrix.column_total(s) for s in S[:4]]
    assert totals == GOLDEN_CENSORED_TOTALS
    # subproblem 1: best 62 -> limit 124, S2/S4 censored there, S3 at 80 runs
    assert matrix.get(0, S[0]).value == 62 and not matrix.get(0, S[0]).censored
    assert matrix.get(0, S[1]).value == 124 and matrix.get(0, S[1]).censored
    assert matrix.get(0, S[2]).value == 80 and not matrix.get(0, S[2]).censored
    assert matrix.get(0, S[3]).value == 124 and matrix.get(0, S[3]).censored


def test_race_single_strategy_never_censored():
    oracle = MatrixOracle({S[0]: [7, 3]})
    obs = race(oracle, 0, (S[0],), RaceConfig())
    assert not obs[S[0]].censored and obs[S[0]].value == 7


def test_race_equal_costs_both_uncensored():
    oracle = MatrixOracle({S[0]: [5], S[1]: [5]})
    obs = race(oracle, 0, (S[0], S[1]), RaceConfig())
    assert not obs[S[0]].censored and not obs[S[1]].censored
    assert obs[S[0]].value == obs[S[1]].value == 5


def test_race_keeps_one_uncensored_per_subproblem():
    rng = random.Random(5)
    costs = {s: [rng.uniform(1, 100) for _ in range(20)] for s in S}
    _, matrix = _race_all(costs)
    for sub in matrix.sub_ids:
        assert any(not matrix.get(sub, s).censored for s in S)
        for s in S:
            o = matrix.get(sub, s)
            if o.censored:
                assert o.value == 2 * min(costs[t][sub] for t in S)


def test_find_uncensored_best_golden():
    oracle, matrix = _race_all(golden_matrix())
    sb = find_uncensored_best(matrix, oracle, {}, PhaseCosts())
    assert sb is S[0]
    assert not matrix.censored_subs(sb)


def test_find_uncensored_best_reselects_after_unmasking():
    # argmin under timeouts is S2; uncensoring reveals it is the worst
    costs = {
        S[0]: [10, 10, 10, 10, 100],
        S[1]: [12, 12, 12, 12, 12],
        S[2]: [8, 8, 8, 8, 200],
    }
    oracle, matrix = _race_all(costs)
    assert matrix.column_total(S[2]) == 56  # censored at 2*12=24 on the last
    costs_acc = PhaseCosts()
    sb = find_uncensored_best(matrix, oracle, {}, costs_acc)
    assert sb is S[1]
    assert matrix.get(4, S[2]).value == 200  # got re-solved along the way
    assert costs_acc.uncensor == 200
    # oracle truth: S1 has the smallest fully-uncensored total
    assert min(sum(v) for v in costs.values()) == sum(costs[S[1]])


def test_find_uncensored_best_keeps_argmin_when_resolve_stays_small():
    costs = {
        S[0]: [10, 10, 10, 10, 100],
        S[1]: [12, 12, 12, 12, 12],
        S[2]: [8, 8, 8, 8, 20],
    }
    oracle, matrix = _race_all(costs)
    sb = find_uncensored_best(matrix, oracle, {}, PhaseCosts())
    assert sb is S[2]  # 52 beats 60 and 140


def test_eliminate_golden_s3():
    oracle, matrix = _race_all(golden_matrix())
    res = eliminate(matrix, oracle, {}, S[0], S[2], RaceConfig(alpha=0.05), PhaseCosts())
    assert res.kind is ElimKind.ELIMINATED
    assert res.wsr.w_plus == 10
    assert res.wsr.method is Method.EXACT
    assert res.wsr.p_value <= 0.05


def test_eliminate_golden_s4_censor_plan():
    oracle, matrix = _race_all(golden_matrix())
    costs = PhaseCosts()
    res = eliminate(matrix, oracle, {}, S[0], S[3], RaceConfig(alpha=0.05), costs)
    assert res.kind is ElimKind.ELIMINATED
    assert res.plan.d_max == 2  # the single positive diff (146 - 144)
    assert res.wsr.w_plus == 1
    # race limits already exceed every to(j) = t_b + 3, so nothing re-solves
    assert costs.resolve == 0


def test_eliminate_identical_columns_survive():
    costs = {S[0]: [5, 6, 7], S[1]: [5, 6, 7]}
    oracle, matrix = _race_all(costs)
    res = eliminate(matrix, oracle, {}, S[0], S[1], RaceConfig(alpha=0.05), PhaseCosts())
    assert res.kind is ElimKind.SURVIVES
    assert res.wsr.n == 0


def test_eliminate_reversal_confirmed_by_ttest():
    # force the anchor onto the slower strategy: the 2x-faster rival must
    # come back as a reversal with W+ at its maximum
    n = 30
    rng = random.Random(1)
    slow = [20 + rng.uniform(0, 0.5) for _ in range(n)]
    fast = [t / 2 for t in slow]
    costs = {S[0]: slow, S[1]: fast}
    oracle, matrix = _race_all(costs)
    res = eliminate(matrix, oracle, {}, S[0], S[1], RaceConfig(alpha=0.05), PhaseCosts())
    assert res.kind is ElimKind.REVERSAL
    assert res.wsr.w_plus == n * (n + 1) / 2
    assert res.ttest is Decision.SECOND_BETTER


def test_eliminate_resolves_below_threshold():
    # a positive diff of 9 pushes to(j) = 9 + t_b + 1 above the race limits,
    # so both censored entries get re-solved at budget to(j): one completes,
    # one just moves its censoring level up
    costs = {
        S[0]: [19, 5, 5],
        S[1]: [10, 50, 12],
    }
    oracle, matrix = _race_all(costs)
    assert matrix.get(1, S[1]).censored and matrix.get(1, S[1]).value == 10
    assert matrix.get(2, S[1]).censored and matrix.get(2, S[1]).value == 10
    costs_acc = PhaseCosts()
    res = eliminate(matrix, oracle, {}, S[0], S[1], RaceConfig(alpha=0.5), costs_acc)
    assert res.plan.d_max == 9
    assert list(res.plan.thresholds) == [29, 15, 15]
    assert matrix.get(1, S[1]).censored and matrix.get(1, S[1]).value == 15
    assert not matrix.get(2, S[1]).censored and matrix.get(2, S[1]).value == 12
    assert costs_acc.resolve == 15 + 12
    assert res.kind is ElimKind.ELIMINATED
    assert res.wsr.w_plus == 2  # |diffs| are 9, 10, 7


def test_select_on_matrix_golden_winner():
    rep = select_on_matrix(golden_matrix(), RaceConfig(alpha=0.05))
    assert rep.winner is S[0]
    assert [s for s, _ in rep.eliminated] == [S[2], S[3], S[1]]  # ascending totals
    assert rep.survivors_tiebreak is None
    assert rep.comparisons == 3
    assert rep.overall_confidence == pytest.approx(0.95**3)
    assert rep.race_cost == sum(GOLDEN_CENSORED_TOTALS)
    assert rep.race_cost_without_timeouts == sum(GOLDEN_UNCENSORED_TOTALS)
    assert rep.best_total == 1257


def test_selection_cost_bound_golden():
    rep = select_on_matrix(golden_matrix(), RaceConfig(alpha=0.05))
    measured, bound = selection_cost_bound(rep)
    assert measured == 7278
    assert bound == 4 * 2 * 1257
    assert measured <= bound


def test_single_strategy_trivial_selection():
    rep = select_on_matrix({S[0]: [4, 5, 6]})
    assert rep.winner is S[0]
    assert rep.comparisons == 0
    assert rep.overall_confidence == 1.0
    assert rep.eliminated == []
    measured, bound = selection_cost_bound(rep)
    assert measured == 15  # the lone strategy just runs uncensored
    assert bound == 2 * 15


def test_reversal_restart_at_selection_level():
    # forcing the anchor onto a bad strategy exercises the restart: the old
    # anchor is eliminated, the rival takes over and sweeps the rest
    n = 30
    rng = random.Random(2)
    base = [10 + rng.uniform(0, 1) for _ in range(n)]
    costs = {
        S[0]: [t * 4 for t in base],
        S[1]: [t * 2 for t in base],
        S[2]: list(base),
    }
    oracle = MatrixOracle(costs)
    out = select_strategy(oracle, RaceConfig(alpha=0.01), oracle.sub_ids, initial_best=S[0])
    assert out.winner is S[2]
    assert out.reversals >= 1
    eliminated = [s for s, _ in out.eliminated]
    assert S[0] in eliminated and S[1] in eliminated
    assert out.best_strategy is S[2]


def test_censoring_never_flips_eliminations():
    # every censored ELIMINATED verdict agrees with the fully uncensored rerun
    rng = random.Random(7)
    factors = [1, 2, 4, 8]
    for trial in range(30):
        costs = {
            s: [f * rng.lognormvariate(0, 0.3) for _ in range(30)]
            for s, f in zip(S[:4], factors)
        }
        censored_rep = select_on_matrix(costs, RaceConfig(alpha=0.01))
        uncensored_rep = select_on_matrix(
            costs, RaceConfig(alpha=0.01, timeout_factor=1e9)
        )
        cens = {s: r.decision for s, r in censored_rep.eliminated}
        unc = {s: r.decision for s, r in uncensored_rep.eliminated}
        for s, dec in cens.items():
            assert unc.get(s) == dec


def test_elimination_soundness_smoke():
    rng = random.Random(123)
    hits = 0
    trials = 40
    for _ in range(trials):
        costs = {
            s: [f * rng.lognormvariate(0, 0.3) for _ in range(30)]
            for s, f in zip(S[:4], [1, 2, 4, 8])
        }
        rep = select_on_matrix(costs, RaceConfig(alpha=0.01))
        hits += rep.winner is S[0]
    assert hits >= trials * 0.9


def test_pairing_uses_sample_ids_only():
    costs = {S[0]: list(range(1, 21)), S[1]: list(range(2, 41, 2))}
    rep = select_on_matrix(costs, RaceConfig(alpha=0.05), sample_ids=[0, 2, 4, 6, 8])
    assert rep.sample_ids == [0, 2, 4, 6, 8]
    assert all(r.n <= 5 for _, r in rep.eliminated)


def test_report_winner_not_among_eliminated():
    rng = random.Random(11)
    costs = {s: [rng.uniform(1, 50) for _ in range(25)] for s in S}
    rep = select_on_matrix(costs, RaceConfig(alpha=0.05))
    assert rep.winner not in [s for s, _ in rep.eliminated]
    # accounting identity
    assert rep.selection_cost == pytest.approx(
        rep.race_cost + rep.uncensor_cost + rep.resolve_cost
    )


class _NoTrueCostOracle:
    """Deterministic oracle that does not claim true costs and counts its
    budgeted runs."""

    has_true_costs = False

    def __init__(self, costs):
        self.inner = MatrixOracle(costs)
        self.strategies = self.inner.strategies
        self.sub_ids = self.inner.sub_ids
        self.limited_calls = 0

    def current_bound(self):
        return None

    def merge_objectives(self, obs):
        pass

    def full(self, sub, sid, bound=None):
        return self.inner.full(sub, sid)

    def limited(self, sub, sid, limit, bound=None):
        self.limited_calls += 1
        return self.inner.limited(sub, sid, limit)


def _reference_race(costs, sub, factor):
    """The race rule stated directly: t* is the row minimum, a run is censored
    iff its cost exceeds factor * t*, and a censored run's value is that limit."""
    limit = factor * min(column[sub] for column in costs.values())
    return {
        s: (limit, True) if column[sub] > limit else (column[sub], False)
        for s, column in costs.items()
    }


def test_race_doubling_path_matches_analytic():
    rng = random.Random(3)
    matrices = [
        golden_matrix(),
        {s: [rng.uniform(0.01, 500.0) for _ in range(25)] for s in S},
    ]
    cfg = RaceConfig(alpha=0.05)
    for costs in matrices:
        for oracle in (MatrixOracle(costs), _NoTrueCostOracle(costs)):
            for sub in oracle.sub_ids:
                got = race(oracle, sub, oracle.strategies, cfg)
                assert {s: (o.value, o.censored) for s, o in got.items()} == _reference_race(
                    costs, sub, cfg.timeout_factor
                )


def test_select_strategy_on_doubling_oracle():
    oracle = _NoTrueCostOracle(golden_matrix())
    out = select_strategy(oracle, RaceConfig(alpha=0.05), oracle.sub_ids)
    assert out.winner is S[0]
    assert oracle.limited_calls > 0
    assert out.race_cost_without_timeouts is None  # no true costs to add up


def test_work_mode_race_solves_each_pair_once(monkeypatch):
    # doubling budgets on a work-mode oracle are memo lookups, not solves
    from eps_select import selection
    from eps_select.benchmarks import nqueens
    from eps_select.decomposition import DecompositionConfig, decompose
    from eps_select.selection import ModelOracle

    calls = []
    real_solve = selection.solve

    def counting_solve(*args, **kwargs):
        calls.append(args[2])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(selection, "solve", counting_solve)
    model = nqueens(7)
    decomp = decompose(model, DecompositionConfig(target_count=10))
    oracle = ModelOracle(model, decomp.subproblems)
    sub = decomp.subproblems[0].id
    race(oracle, sub, ALL_STRATEGIES, RaceConfig())
    assert len(calls) == len(set(calls)) == 7  # one solve per strategy
    race(oracle, sub, ALL_STRATEGIES, RaceConfig())
    assert len(calls) == 7  # the second race only reads the memo


def test_pss_select_end_to_end_satisfaction():
    from eps_select.benchmarks import allinterval
    from eps_select.decomposition import DecompositionConfig
    from eps_select.search import count_all
    from eps_select.selection import PssConfig, pss_select

    model = allinterval(7)
    cfg = PssConfig(
        decomposition=DecompositionConfig(target_count=60),
        race=RaceConfig(alpha=0.05, sample_seed=3),
        sample_size=20,
    )
    rep = pss_select(model, cfg)
    assert rep.winner in ALL_STRATEGIES
    assert len(rep.sample_ids) == 20
    assert rep.population >= 60
    assert set(rep.sample_ids) <= set(range(rep.population))
    # accounting: the run's total is exactly selection + solve
    assert rep.total_cost == rep.selection_cost + rep.solve_cost
    assert rep.selection_cost == rep.race_cost + rep.uncensor_cost + rep.resolve_cost
    # the winner's selection is sound enough to keep the exact model count
    assert rep.solutions_found == count_all(model).solutions_found
    assert 0 < rep.overall_confidence <= 1


def test_pss_select_end_to_end_optimization():
    from eps_select.benchmarks import golomb
    from eps_select.decomposition import DecompositionConfig
    from eps_select.selection import PssConfig, pss_select

    model = golomb(5, maxlen=15)
    cfg = PssConfig(
        decomposition=DecompositionConfig(target_count=40),
        race=RaceConfig(alpha=0.05, sample_seed=1),
        sample_size=10,
    )
    rep = pss_select(model, cfg)
    assert rep.best_objective == 11
    assert rep.solutions_found is None
    assert rep.total_cost > 0


def test_pss_select_reproducible():
    from eps_select.benchmarks import nqueens
    from eps_select.decomposition import DecompositionConfig
    from eps_select.selection import PssConfig, pss_select

    model = nqueens(7)
    cfg = PssConfig(
        decomposition=DecompositionConfig(target_count=50),
        race=RaceConfig(alpha=0.05, sample_seed=11),
        sample_size=15,
    )
    a = pss_select(model, cfg)
    b = pss_select(model, cfg)
    assert a.winner is b.winner
    assert a.total_cost == b.total_cost
    assert a.sample_ids == b.sample_ids
    assert [s for s, _ in a.eliminated] == [s for s, _ in b.eliminated]


def test_wall_mode_oracle_race_structure():
    # wall timings are noisy, so only the structural race guarantees are
    # asserted: every strategy observed, at least one uncensored finisher,
    # censored entries recorded at one limit of at least factor x the fastest
    from eps_select.benchmarks import nqueens
    from eps_select.decomposition import DecompositionConfig, decompose
    from eps_select.search import TimeMode
    from eps_select.selection import ModelOracle

    model = nqueens(6)
    decomp = decompose(model, DecompositionConfig(target_count=8))
    oracle = ModelOracle(model, decomp.subproblems, S[:3], time_mode=TimeMode.WALL)
    assert not oracle.has_true_costs
    cfg = RaceConfig(alpha=0.05, time_mode=TimeMode.WALL)
    obs = race(oracle, decomp.subproblems[0].id, S[:3], cfg)
    assert set(obs) == set(S[:3])
    assert any(not o.censored for o in obs.values())
    fastest = min(o.value for o in obs.values() if not o.censored)
    assert len({o.value for o in obs.values() if o.censored}) <= 1
    for o in obs.values():
        assert o.value > 0
        if o.censored:
            assert o.value >= cfg.timeout_factor * fastest


def test_failed_remainder_task_raises():
    # a subproblem the winner cannot solve must stop the run, not vanish
    # from the solve cost and the solution count
    from eps_select.benchmarks import nqueens
    from eps_select.decomposition import DecompositionConfig, decompose, srs_sample
    from eps_select.runner import TaskFailed
    from eps_select.selection import ModelOracle, PssConfig, pss_select

    model = nqueens(6)
    decomp = decompose(model, DecompositionConfig(target_count=16))
    sample = srs_sample(len(decomp), 4, 0).indices
    bad = next(s.id for s in decomp.subproblems if s.id not in sample)

    class BrokenOracle(ModelOracle):
        def full(self, sub, *args):
            if sub == bad:
                raise RuntimeError("solver crashed")
            return super().full(sub, *args)

    oracle = BrokenOracle(model, decomp.subproblems)
    with pytest.raises(TaskFailed) as exc:
        pss_select(model, PssConfig(sample_size=4), oracle=oracle, decomposition=decomp)
    assert str(exc.value.__cause__) == "solver crashed"


def test_warm_start_seeds_the_incumbent_at_the_root():
    from eps_select.benchmarks import golomb
    from eps_select.selection import ModelOracle

    oracle = ModelOracle(golomb(8), [])
    assert oracle.current_bound() is None
    # six strategies dive to a length-44 ruler in 7 units each; wdegM is
    # stopped at 2 x 7
    assert oracle.warm_start() == 6 * 7 + 14
    assert oracle.current_bound() == 44
    assert oracle.warm_start() == 56  # memoized, charged again, bound kept


def test_warm_start_charged_to_selection_and_baselines():
    from eps_select.baselines import mab_on_oracle, portfolio_on_oracle
    from eps_select.benchmarks import golomb
    from eps_select.decomposition import DecompositionConfig, decompose
    from eps_select.selection import ModelOracle, PssConfig, pss_select
    from eps_select.strategies import StrategyId

    model = golomb(5, maxlen=15)
    decomp = decompose(model, DecompositionConfig(target_count=40))
    cache: dict = {}

    def oracle():
        return ModelOracle(model, decomp.subproblems, shared_cache=cache)

    cfg = PssConfig(
        decomposition=DecompositionConfig(target_count=40),
        race=RaceConfig(alpha=0.05, sample_seed=1),
        sample_size=10,
    )
    rep = pss_select(model, cfg, oracle=oracle(), decomposition=decomp)
    warm = rep.warm_start_cost
    assert warm > 0
    assert rep.selection_cost == (
        rep.race_cost + rep.uncensor_cost + rep.resolve_cost + warm
    )
    assert rep.to_dict()["warm_start_cost"] == warm
    assert rep.best_objective == 11

    # a one-arm bandit pays the warm start plus its arm's live-bound solves
    expected = oracle()
    expected_total = expected.warm_start() + sum(
        expected.full(sub, StrategyId.FF).value for sub in expected.sub_ids
    )
    mab = mab_on_oracle(oracle(), (StrategyId.FF,))
    assert mab.warm_start_cost == warm
    assert mab.total_cost == expected_total
    assert mab.to_dict()["warm_start_cost"] == warm

    pf = portfolio_on_oracle(oracle(), ALL_STRATEGIES)
    assert pf.warm_start_cost == warm
    assert pf.total_cost == sum(pf.per_strategy.values()) + warm
    assert pf.to_dict()["warm_start_cost"] == warm


def test_no_warm_start_on_satisfaction_models():
    from eps_select.baselines import mab_on_oracle, portfolio_on_oracle
    from eps_select.benchmarks import allinterval
    from eps_select.decomposition import DecompositionConfig, decompose
    from eps_select.selection import ModelOracle, PssConfig, pss_select

    model = allinterval(6)
    decomp = decompose(model, DecompositionConfig(target_count=20))
    rep = pss_select(model, PssConfig(sample_size=8), decomposition=decomp)
    assert rep.warm_start_cost == 0
    oracle = ModelOracle(model, decomp.subproblems)
    assert oracle.warm_start() == 0
    assert mab_on_oracle(oracle).warm_start_cost == 0
    assert portfolio_on_oracle(oracle, S[:2]).warm_start_cost == 0


def test_wall_mode_warm_start_structure():
    # wall timings are noisy: the incumbent must be a real ruler length and
    # the charge positive, whichever strategy finished first
    from eps_select.benchmarks import golomb
    from eps_select.search import TimeMode
    from eps_select.selection import ModelOracle

    oracle = ModelOracle(golomb(5, maxlen=15), [], S[:3], time_mode=TimeMode.WALL)
    assert oracle.warm_start() > 0
    assert 11 <= oracle.current_bound() <= 15


def test_observation_pickles_without_a_dict():
    # observations come back from worker processes pickled; a slotted class
    # unpickles without materialising a per-instance __dict__
    import pickle

    from eps_select.selection import Observation

    for obs in (Observation(12.0, False, solutions=3, objective=None),
                Observation(5.0, True),
                Observation(7.0, False, objective=-4)):
        back = pickle.loads(pickle.dumps(obs))
        assert back == obs
        assert not hasattr(back, "__dict__")


def test_remember_fills_the_shared_memo_of_satisfaction_models_only():
    from eps_select.benchmarks import golomb, nqueens
    from eps_select.decomposition import DecompositionConfig, decompose
    from eps_select.selection import ModelOracle, Observation

    model = nqueens(6)
    decomp = decompose(model, DecompositionConfig(target_count=10))
    cache: dict = {}
    oracle = ModelOracle(model, decomp.subproblems, shared_cache=cache)
    obs = Observation(9.0, False, solutions=1)
    oracle.remember(decomp.subproblems[0].id, S[0], obs)
    reader = ModelOracle(model, decomp.subproblems, shared_cache=cache)
    assert reader.full(decomp.subproblems[0].id, S[0]) is obs  # no solve
    with pytest.raises(ValueError):
        ModelOracle(golomb(5), []).remember(0, S[0], obs)
