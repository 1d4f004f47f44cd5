import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    all_reaped,
    fork_only,
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


def test_eliminate_rival_favoured_by_wsr_survives_the_ttest():
    # a rival one unit faster on 27 rows and 50x slower on 3 wins the WSR
    # test against the argmin anchor, but uncensored it is slower in the
    # mean, so the t-test keeps the anchor: the path that
    # test_work_mode_selection_never_reverses checks never reverses
    base = [20 + j for j in range(30)]
    rival = [b - 1 for b in base]
    for j in (3, 14, 25):
        rival[j] = 50 * base[j]
    oracle, matrix = _race_all({S[0]: base, S[1]: rival})
    costs = PhaseCosts()
    s_b = find_uncensored_best(matrix, oracle, {}, costs)
    assert s_b is S[0]
    res = eliminate(matrix, oracle, {}, s_b, S[1], RaceConfig(alpha=0.01), costs)
    assert res.wsr.decision is Decision.SECOND_BETTER
    assert res.kind is ElimKind.SURVIVES
    assert res.ttest is Decision.NOT_SIGNIFICANT  # mean diff < 0, wide spread
    assert matrix.column_total(S[1]) == sum(rival)  # uncensored for the t-test


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
    assert rep.alpha == 0.05
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
    assert "overall_confidence" not in rep.to_dict()
    assert rep.eliminated == []
    measured, bound = selection_cost_bound(rep)
    assert measured == 15  # the lone strategy just runs uncensored
    assert bound == 2 * 15


def _lognormal_matrices(seed, count, fast_factor=1.0):
    """``count`` matrices of 30 rows over all seven strategies, each cell a
    per-row lognormal(6, 1.5) scale times a per-cell lognormal(0, 1) factor,
    in whole work units; one strategy per matrix, in turn, has its cells
    scaled by ``fast_factor``. Yields (that strategy, costs)."""
    rng = random.Random(seed)
    for k in range(count):
        scales = [rng.lognormvariate(6.0, 1.5) for _ in range(30)]
        fast = S[k % len(S)]
        yield fast, {
            s: [
                max(1, round(scale * rng.lognormvariate(0.0, 1.0) * (fast_factor if s is fast else 1.0)))
                for scale in scales
            ]
            for s in S
        }


def test_calibration_identical_strategies_are_eliminated_beyond_the_naive_figure():
    # every elimination among identical strategies is false; the anchor is
    # chosen from the data, so each one-tailed test against it errs about
    # twice as often as alpha, and some strategy falls in well over the
    # 1 - (1 - alpha)^comparisons that fixed tests would give
    alpha, count = 0.01, 400
    reports = [select_on_matrix(m, RaceConfig(alpha=alpha)) for _, m in _lognormal_matrices(7, count)]
    rate = sum(bool(rep.eliminated) for rep in reports) / count
    naive = 1 - (1 - alpha) ** max(rep.comparisons for rep in reports)
    se = (naive * (1 - naive) / count) ** 0.5
    assert rate > naive + 3 * se


def test_calibration_a_faster_strategy_is_almost_never_eliminated():
    # one strategy 30 % cheaper per cell: the rule may drop it at most at
    # about its level alpha, give or take three binomial standard errors
    alpha, count = 0.01, 300
    eliminated = 0
    for fast, m in _lognormal_matrices(11, count, fast_factor=0.7):
        rep = select_on_matrix(m, RaceConfig(alpha=alpha))
        eliminated += fast in [s for s, _ in rep.eliminated]
    se = (alpha * (1 - alpha) / count) ** 0.5
    assert eliminated / count <= alpha + 3 * se


# per factor: the share of matrices whose winner is not the best strategy, and
# the share whose winner costs over 1.5x the best on the population, measured
# on 3 000 matrices each (the 0.9 factor never went over 1.5x; its bound
# assumes 1 %), plus 3 binomial standard errors at 150 matrices
_CLAIM_BOUNDS = {0.9: (0.749, 0.01), 0.7: (0.376, 0.067), 0.5: (0.076, 0.076)}


@pytest.mark.parametrize("factor", sorted(_CLAIM_BOUNDS, reverse=True))
def test_winner_is_almost_never_dramatically_slower_than_the_best(factor):
    # the paper's claim: a 30-row sample may miss the best strategy, but the
    # winner is almost never far slower on the whole population. Seven
    # strategies with lognormal(0, 1) cells on 500 rows, one of them scaled
    # by ``factor``: the closer it is to the rest, the more often the best is
    # missed, and the less a miss costs
    from eps_select.decomposition import srs_sample

    count, rows = 150, 500
    rng = random.Random(int(100 * factor))
    missed = slow = 0
    for k in range(count):
        fast = S[k % len(S)]
        costs = {
            s: [rng.lognormvariate(0.0, 1.0) * (factor if s is fast else 1.0) for _ in range(rows)]
            for s in S
        }
        rep = select_on_matrix(costs, RaceConfig(alpha=0.01), srs_sample(rows, 30, k))
        totals = {s: sum(col) for s, col in costs.items()}
        best = min(totals.values())
        missed += totals[rep.winner] > best
        slow += totals[rep.winner] > 1.5 * best
    for measured, got in zip(_CLAIM_BOUNDS[factor], (missed, slow)):
        se = (measured * (1 - measured) / count) ** 0.5
        assert got / count <= measured + 3 * se


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


@st.composite
def _integer_matrices(draw):
    """Columns that track a shared row difficulty, each with its own shift,
    noise and rare 50x blow-ups: a rival a little faster on most rows and far
    slower on a few is how the WSR test comes to favour it over the anchor.
    Integer costs keep every race limit, to(j) threshold and column total
    exact, so the invariant is checked without rounding."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(2, 30))
    base = draw(st.lists(st.integers(10, 100), min_size=n, max_size=n))
    cell = st.tuples(st.integers(0, 3), st.integers(0, 9))  # (noise, blow-up when 0)
    costs = {}
    for s in S[:k]:
        shift = draw(st.integers(-5, 5))
        cells = draw(st.lists(cell, min_size=n, max_size=n))
        costs[s] = [
            (b + shift + noise) * (50 if rare == 0 else 1)
            for b, (noise, rare) in zip(base, cells)
        ]
    return costs


@given(_integer_matrices(), st.sampled_from([1.5, 2.0, 4.0]), st.sampled_from([0.01, 0.05]))
@settings(max_examples=300, deadline=None)
def test_work_mode_selection_never_reverses(costs, factor, alpha):
    # The anchor s_b is the argmin of the censored column totals and fully
    # uncensored; a deterministic re-solve only raises another column's
    # values. So once a rival that won the WSR test is uncensored, its total
    # is still at least s_b's, mean(t_b - t_i) <= 0, and the paired t-test
    # cannot reverse the anchor.
    rep = select_on_matrix(costs, RaceConfig(alpha=alpha, timeout_factor=factor))
    assert rep.reversals == 0
    finals = {s: rep.matrix.column_total(s) for s in rep.strategies}
    assert finals[rep.best_strategy] == min(finals.values())


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

    def warm_start(self):
        return 0.0

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
    assert (rep.to_dict()["comparisons"], rep.to_dict()["alpha"]) == (rep.comparisons, 0.05)


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
    sample = srs_sample(len(decomp), 4, 0)
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


def test_pss_select_races_and_warm_starts_the_oracles_strategies():
    from eps_select.benchmarks import golomb
    from eps_select.decomposition import DecompositionConfig, decompose
    from eps_select.selection import ModelOracle, PssConfig, pss_select
    from eps_select.strategies import StrategyId

    model = golomb(5, maxlen=15)
    decomp = decompose(model, DecompositionConfig(target_count=40))
    pair = (StrategyId.FF, StrategyId.MOSTC)
    cache: dict = {}
    oracle = ModelOracle(model, decomp.subproblems, pair, shared_cache=cache)
    rep = pss_select(model, PssConfig(sample_size=10), oracle=oracle, decomposition=decomp)
    assert rep.strategies == pair
    assert set(rep.sample_totals) == set(rep.race_censored_counts) == set(pair)
    assert [k for k in cache if k[0] == "warm_start"] == [("warm_start", pair)]
    assert rep.winner in pair
    assert rep.best_objective == 11


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


def test_observation_pickles_as_its_four_fields():
    # an observation pickles as a call of its class on its four fields, with
    # no state to set after it, and round-trips at every protocol
    import pickle
    import pickletools

    from eps_select.selection import Observation

    for obs in (Observation(12.0, False, solutions=3),
                Observation(5.0, True),
                Observation(7.0, False, solutions=1, objective=-4)):
        assert obs.__reduce__() == (
            Observation, (obs.value, obs.censored, obs.solutions, obs.objective)
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            blob = pickle.dumps(obs, protocol)
            assert "BUILD" not in {op.name for op, _, _ in pickletools.genops(blob)}
            back = pickle.loads(blob)
            assert type(back) is Observation and back == obs
            assert (back.value, back.censored, back.solutions, back.objective) == (
                obs.value, obs.censored, obs.solutions, obs.objective
            )


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


def test_race_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^sample seed must be >= 0, got -1$"):
        RaceConfig(sample_seed=-1)
    assert RaceConfig(sample_seed=0).sample_seed == 0


def test_work_mode_oracles_share_one_subtree_memo_per_strategy(monkeypatch):
    # every full run of a work-mode oracle gets its strategy's memo from the
    # shared cache, so oracles over one cache share it; wall mode gets none
    from eps_select import selection
    from eps_select.benchmarks import latin
    from eps_select.decomposition import DecompositionConfig, decompose
    from eps_select.search import TimeMode, solve
    from eps_select.selection import ModelOracle, _observe
    from eps_select.strategies import StrategyId

    model = latin(4)
    subs = decompose(model, DecompositionConfig(target_count=40)).subproblems
    handed = []
    monkeypatch.setattr(
        selection, "solve", lambda *a, **k: handed.append((a[2], k["subtrees"])) or solve(*a, **k)
    )
    cache: dict = {}
    first = ModelOracle(model, subs, shared_cache=cache)
    second = ModelOracle(model, subs, shared_cache=cache)
    ff, mostc = StrategyId.FF, StrategyId.MOSTC
    for i, s in enumerate(subs):
        oracle = first if i % 2 else second
        for sid in (ff, mostc):
            fresh = _observe(solve(model, s.assignment, sid, domains=s.domains), TimeMode.WORK)
            assert oracle.full(s.id, sid) == fresh
    assert len(handed) == 2 * len(subs)
    for sid in (ff, mostc):
        memos = {id(memo) for got, memo in handed if got is sid}
        assert memos == {id(cache[("subtrees", sid)])}
        assert cache[("subtrees", sid)]
    assert cache[("subtrees", ff)] is not cache[("subtrees", mostc)]

    handed.clear()
    wall = ModelOracle(model, subs, time_mode=TimeMode.WALL)
    wall.full(subs[0].id, ff)
    wall.limited(subs[1].id, ff, 10.0)
    assert handed == [(ff, None), (ff, None)]


def test_work_mode_oracle_solves_each_twin_class_once(monkeypatch):
    # full, remember and solve_all go by the first subproblem of each twin
    # class; wall mode and an optimization model have no twins
    from eps_select import selection
    from eps_select.benchmarks import golomb, latin
    from eps_select.decomposition import DecompositionConfig, decompose
    from eps_select.search import TimeMode, solve
    from eps_select.selection import ModelOracle

    model = latin(4)
    subs = decompose(model, DecompositionConfig(target_count=100)).subproblems
    solved = []
    monkeypatch.setattr(selection, "solve", lambda *a, **k: solved.append(a[1]) or solve(*a, **k))
    oracle = ModelOracle(model, subs)
    assert (len(subs), oracle.distinct_roots) == (168, 102)
    heads = [oracle.twin(s.id) for s in subs]
    assert all(h <= s.id and oracle.twin(h) == h for h, s in zip(heads, subs))
    for s in subs:
        for sid in ALL_STRATEGIES:
            assert oracle.full(s.id, sid) is oracle.full(oracle.twin(s.id), sid)
    assert len(solved) == 7 * 102

    twin = next(s.id for s, h in zip(subs, heads) if h != s.id)
    fresh = ModelOracle(model, subs)
    obs = oracle.full(twin, S[0])
    solved.clear()
    fresh.remember(fresh.twin(twin), S[0], obs)
    assert fresh.full(twin, S[0]) is obs and solved == []
    # solve_all runs a class once, on its head, and reads every member from the memo
    cells = [(twin, S[1]), (fresh.twin(twin), S[1]), (twin, S[0])]
    assert fresh.solve_all(cells, 1) == [oracle.full(twin, S[1])] * 2 + [obs]
    assert solved == [fresh.subs[fresh.twin(twin)].assignment]

    wall = ModelOracle(model, subs, time_mode=TimeMode.WALL)
    g = golomb(6)
    optimizing = ModelOracle(g, decompose(g, DecompositionConfig(target_count=40)).subproblems)
    for other in (wall, optimizing):
        assert other.distinct_roots == len(other.sub_ids)
        assert [other.twin(s) for s in other.sub_ids] == other.sub_ids


@pytest.mark.parametrize("name, bound", [("golomb", 20), ("allinterval", None)])
def test_oracle_from_stored_domains_matches_a_fresh_solve(name, bound):
    # the oracle starts each solve from the subproblem's stored root domains;
    # a solve from the bare assignment repeats the root pass and must observe
    # the same run for every strategy
    from eps_select.benchmarks import allinterval, golomb
    from eps_select.decomposition import DecompositionConfig, decompose
    from eps_select.search import SolveMode, TimeMode, solve
    from eps_select.selection import ModelOracle, _observe

    model = golomb(6) if name == "golomb" else allinterval(8)
    mode = SolveMode.OPTIMIZE if name == "golomb" else SolveMode.ALL_SOLUTIONS
    decomp = decompose(model, DecompositionConfig(target_count=30))
    oracle = ModelOracle(model, decomp.subproblems)
    assert oracle.mode is mode
    for s in decomp.subproblems:
        for sid in ALL_STRATEGIES:
            fresh = _observe(solve(model, s.assignment, sid, mode, bound=bound), TimeMode.WORK)
            assert oracle.full(s.id, sid, bound) == fresh


# ---------------------------------------------------------------------------
# the sample race's cells in a task pool, under conftest.py's two-CPU forks
# fixture


def _pools(monkeypatch, forks):
    """Patch selection.run_pool to record (tasks, processes forked) per call."""
    from eps_select import selection

    real = selection.run_pool
    calls = []

    def recording(tasks, *args, **kwargs):
        before = len(forks)
        out = real(tasks, *args, **kwargs)
        calls.append((list(tasks), len(forks) - before))
        return out

    monkeypatch.setattr(selection, "run_pool", recording)
    return calls


@fork_only
def test_work_mode_race_cells_are_solved_in_forked_workers(forks, monkeypatch, tmp_path):
    import os

    from eps_select import selection
    from eps_select.benchmarks import nqueens
    from eps_select.decomposition import DecompositionConfig, decompose
    from eps_select.selection import ModelOracle, PssConfig, pss_select

    def cfg(workers):
        return PssConfig(
            decomposition=DecompositionConfig(target_count=100, worker_count=workers),
            sample_size=10,
        )

    model = nqueens(8)
    here = pss_select(model, cfg(1))
    assert forks == []
    calls = _pools(monkeypatch, forks)
    log = tmp_path / "solves"
    real_solve = selection.solve

    def logged_solve(*a, **k):  # in whichever process solves the cell
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\t{a[2].token}\t{a[1]!r}\n")
        return real_solve(*a, **k)

    monkeypatch.setattr(selection, "solve", logged_solve)
    forked = pss_select(model, cfg(2))
    # the race pool holds every sampled (twin head, strategy) cell once,
    # subproblem by subproblem, and the remainder pool the (twin head, winner)
    # cells the race left unsolved; both fork one worker, which pulls cells
    # from the pool's queue as this process does
    subs = decompose(model, cfg(1).decomposition).subproblems
    twin = ModelOracle(model, subs).twin
    race_cells = list(dict.fromkeys((twin(sub), s) for sub in forked.sample_ids for s in S))
    rest = [sub for sub in range(forked.population) if sub not in forked.sample_ids]
    rest_cells = [c for c in dict.fromkeys((twin(sub), forked.winner) for sub in rest)
                  if c not in race_cells]
    assert calls == [(race_cells, 1), (rest_cells, 1)]
    # every cell of both pools is solved exactly once, here or in a worker
    sub_of = {repr(s.assignment): s.id for s in subs}
    solved = [line.split("\t") for line in log.read_text().splitlines()]
    assert sorted((sub_of[a], t) for _, t, a in solved) == sorted(
        (sub, sid.token) for sub, sid in race_cells + rest_cells
    )
    assert {int(pid) for pid, _, _ in solved} <= {os.getpid(), *forks}
    assert all_reaped(forks)
    assert forked.to_dict() == here.to_dict()
    assert forked.matrix.entries == here.matrix.entries


@fork_only
@pytest.mark.parametrize("case", ["optimization", "wall"])
def test_optimization_and_wall_mode_races_make_no_pool(forks, monkeypatch, case):
    # an optimization race pins the incumbent its predecessors raised, and a
    # wall-mode race stops runs at a time limit: both race in this process
    from eps_select.benchmarks import golomb, nqueens
    from eps_select.decomposition import DecompositionConfig
    from eps_select.search import TimeMode
    from eps_select.selection import PssConfig, pss_select

    model = golomb(5, maxlen=15) if case == "optimization" else nqueens(6)
    time_mode = TimeMode.WALL if case == "wall" else TimeMode.WORK
    calls = _pools(monkeypatch, forks)
    rep = pss_select(model, PssConfig(
        decomposition=DecompositionConfig(target_count=40, worker_count=2),
        race=RaceConfig(time_mode=time_mode),
        sample_size=10,
    ))
    # one pool: the remainder's, which forks no worker on an optimization model
    assert [tasks for tasks, _ in calls] == [
        [(sub, rep.winner) for sub in range(rep.population) if sub not in rep.sample_ids]
    ]
    assert calls[0][1] == (0 if case == "optimization" else 1)
    # the decomposition of golomb(5) propagates: its pooled depths of 5 and
    # 27 entries fork one worker each (nqueens forward-checks, in process)
    assert len(forks) == (2 if case == "optimization" else 1)
    assert all_reaped(forks)


@fork_only
@pytest.mark.parametrize("workers", [1, 2])
def test_failed_race_cell_raises(forks, workers):
    # a sampled cell the solver cannot solve must stop the run, in a worker
    # process or in this one
    from eps_select.benchmarks import nqueens
    from eps_select.decomposition import DecompositionConfig, decompose, srs_sample
    from eps_select.runner import TaskFailed
    from eps_select.selection import ModelOracle, PssConfig, pss_select

    model = nqueens(8)
    cfg = PssConfig(
        decomposition=DecompositionConfig(target_count=100, worker_count=workers),
        sample_size=10,
    )
    decomp = decompose(model, cfg.decomposition)
    bad = srs_sample(len(decomp), 10, 0)[4]

    class BrokenOracle(ModelOracle):
        def full(self, sub, sid, *args):
            if (sub, sid) == (bad, S[3]):
                raise RuntimeError("solver crashed")
            return super().full(sub, sid, *args)

    oracle = BrokenOracle(model, decomp.subproblems)
    with pytest.raises(TaskFailed) as exc:
        pss_select(model, cfg, oracle=oracle, decomposition=decomp)
    assert str(exc.value.__cause__) == "solver crashed"
    assert str(exc.value).startswith(f"task ({bad}, <StrategyId.")
    assert len(forks) == (1 if workers == 2 else 0)  # the race pool only
    assert all_reaped(forks)


@fork_only
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["nqueens", "golomb"])
def test_failed_remainder_cell_raises(forks, name, workers):
    # a remainder cell the winner cannot solve stops the run with its cause,
    # in a worker process (nqueens at two workers) or in this one
    from eps_select.benchmarks import golomb, nqueens
    from eps_select.decomposition import DecompositionConfig, decompose, srs_sample
    from eps_select.runner import TaskFailed
    from eps_select.selection import ModelOracle, PssConfig, pss_select

    model = nqueens(8) if name == "nqueens" else golomb(6)
    cfg = PssConfig(
        decomposition=DecompositionConfig(target_count=100, worker_count=workers),
        sample_size=10,
    )
    decomp = decompose(model, cfg.decomposition)
    sample = srs_sample(len(decomp), 10, 0)
    twin = ModelOracle(model, decomp.subproblems).twin
    # a class head that no sampled subproblem belongs to
    bad = next(s.id for s in decomp.subproblems
               if twin(s.id) == s.id and s.id not in {twin(sub) for sub in sample})

    class BrokenOracle(ModelOracle):
        def full(self, sub, *args):
            if sub == bad:
                raise RuntimeError("solver crashed")
            return super().full(sub, *args)

    oracle = BrokenOracle(model, decomp.subproblems)
    with pytest.raises(TaskFailed) as exc:
        pss_select(model, cfg, oracle=oracle, decomposition=decomp)
    assert str(exc.value.__cause__) == "solver crashed"
    assert str(exc.value).startswith(f"task ({bad}, <StrategyId.")
    # at 2 workers the race pool and the remainder pool fork one worker each
    # on nqueens; on golomb(6) they run in this process, and the pooled
    # decomposition depth of 15 entries forks one (the others have one entry)
    assert len(forks) == {("nqueens", 2): 2, ("golomb", 2): 1}.get((name, workers), 0)
    assert all_reaped(forks)
