"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end fixtures
(criterion 6) are computed once per session and reused by criteria 8-11;
expect a few minutes of solver time on the first touch.
"""

import itertools
import random

import pytest

from eps_select.baselines import (
    RewardConfig,
    mab_on_oracle,
    portfolio_on_oracle,
    reward,
)
from eps_select.benchmarks import allinterval, golomb, latin, magicsquare, nqueens
from eps_select.cli import compare
from eps_select.decomposition import DecompositionConfig, decompose, srs_sample
from eps_select.search import SolveMode, solve
from eps_select.selection import (
    MatrixOracle,
    ModelOracle,
    PssConfig,
    RaceConfig,
    select_on_matrix,
    select_strategy,
    selection_cost_bound,
)
from eps_select.strategies import ALL_STRATEGIES, StrategyId
from eps_select.wsr import wplus, wsr_exact_cdf, wsr_normal_pvalue

from conftest import (
    GOLDEN_CENSORED_TOTALS,
    GOLDEN_S1_S3_DIFFS,
    GOLDEN_S1_S3_SIGNED_RANKS,
    GOLDEN_UNCENSORED_TOTALS,
    golden_matrix,
)

S = ALL_STRATEGIES


def _ok(num: int, detail: str) -> None:
    print(f"\ncriterion {num:02d} PASS  {detail}")


# ---------------------------------------------------------------------------
# the shared end-to-end lab (criteria 6, 8, 9, 10, 11)

# Decomposition targets are per fixture: 3000 wherever the model's prefix
# geometry supports it (allinterval 3702, latin 3840; nqueens tops out at its
# 1978-prefix ceiling). golomb(8) only offers 28 / 776 / 12661 subproblems;
# at 12661 a subproblem averages 4 work units and every strategy collapses to
# the same cost, so the lab uses the only meaningful granularity, 776.
FIXTURES = {
    "allinterval(10)": (lambda: allinterval(10), 3000),
    "nqueens(10)": (lambda: nqueens(10), 3000),
    "golomb(8)": (lambda: golomb(8), 500),
    "latin(5)": (lambda: latin(5), 3000),
}


@pytest.fixture(scope="session")
def lab():
    """One :func:`eps_select.cli.compare` run per fixture, on two workers.

    Work-mode results do not depend on the worker count, so two workers give
    the one-worker results; on the satisfaction models the singles and the
    remainder run in forked worker processes (golomb(8)'s pools read the
    live incumbent and stay in order in this process).
    """
    out = {}
    for name, (build, target) in FIXTURES.items():
        cfg = PssConfig(
            decomposition=DecompositionConfig(target_count=target, worker_count=2),
            race=RaceConfig(alpha=0.01, sample_seed=0),
            sample_size=30,
        )
        out[name] = compare(build(), cfg)
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_golden_fixture():
    costs = golden_matrix()
    uncensored = [sum(costs[s]) for s in S[:4]]
    assert uncensored == GOLDEN_UNCENSORED_TOTALS

    rep = select_on_matrix(costs, RaceConfig(alpha=0.05))
    censored = [rep.sample_totals[s] for s in S[:4]]
    assert censored == GOLDEN_CENSORED_TOTALS

    diffs = [a - b for a, b in zip(costs[S[0]], costs[S[2]])]
    assert diffs == GOLDEN_S1_S3_DIFFS
    from eps_select.wsr import signed_ranks

    assert [int(r * sg) for r, sg in signed_ranks(diffs)] == GOLDEN_S1_S3_SIGNED_RANKS
    assert wplus(diffs) == 10

    s1_s3 = dict(rep.eliminated)[S[2]]
    assert s1_s3.w_plus == 10
    assert s1_s3.p_value <= 0.05
    assert wsr_exact_cdf(10, 10) <= 0.05 < wsr_exact_cdf(10, 11)
    assert rep.winner is S[0]
    _ok(1, "uncensored/censored totals, signed ranks, W+=10, winner S1 reproduced exactly")


def test_criterion_02_censoring_equivalence():
    rng = random.Random(2024)
    trials = 1000
    checked = 0
    for _ in range(trials):
        n = rng.choice((10, 30, 100))
        k = rng.randint(2, 7)
        cols = [[rng.lognormvariate(2.0, 1.0) for _ in range(n)] for _ in range(k)]
        b = min(range(k), key=lambda i: sum(cols[i]))
        t_b = cols[b]
        for i in range(k):
            if i == b:
                continue
            t_i = cols[i]
            d_true = [a - x for a, x in zip(t_b, t_i)]
            d_max = max((d for d in d_true if d > 0), default=0.0)
            recorded = []
            for j in range(n):
                to_j = d_max + t_b[j] + 1
                level = to_j + (rng.uniform(0, 25) if rng.random() < 0.5 else 0.0)
                recorded.append(min(t_i[j], level))
            d_rec = [a - x for a, x in zip(t_b, recorded)]
            assert wplus(d_rec) == wplus(d_true)
            checked += 1
    _ok(2, f"W+ under censoring at levels >= to(j) exact across {trials} matrices ({checked} pairs)")


def test_criterion_03_exact_distribution_and_normal():
    from collections import Counter

    for n in range(1, 13):
        counts = Counter()
        for signs in itertools.product((0, 1), repeat=n):
            counts[sum(r for r, s in zip(range(1, n + 1), signs) if s)] += 1
        top = n * (n + 1) // 2
        cum = 0
        for w in range(top + 1):
            cum += counts[w]
            assert wsr_exact_cdf(n, w) == cum / (1 << n)
    n = 20
    worst = max(
        abs(wsr_exact_cdf(n, w) - wsr_normal_pvalue(n, w))
        for w in range(n * (n + 1) // 2 + 1)
    )
    assert worst <= 0.02
    _ok(3, f"exact CDF matches 2^n enumeration for n<=12; max normal-CC error at n=20 is {worst:.4f}")


PARTITION_MODELS = {
    "nqueens(6)": lambda: nqueens(6),
    "allinterval(8)": lambda: allinterval(8),
    "latin(4)": lambda: latin(4),
    "magicsquare(3)": lambda: magicsquare(3),
}


@pytest.fixture(scope="session")
def partition_counts():
    out = {}
    for name, build in PARTITION_MODELS.items():
        model = build()
        root = solve(model, (), S[0], SolveMode.ALL_SOLUTIONS).solutions_found
        table = {}
        for target in (1, 10, 50):
            decomp = decompose(model, DecompositionConfig(target_count=target))
            per_sid = {}
            for sid in S:
                per_sid[sid] = sum(
                    solve(model, sp.assignment, sid, SolveMode.ALL_SOLUTIONS).solutions_found
                    for sp in decomp.subproblems
                )
            table[target] = per_sid
        out[name] = (root, table)
    return out


def test_criterion_04_partition_soundness(partition_counts):
    for name, (root, table) in partition_counts.items():
        for target, per_sid in table.items():
            for sid, total in per_sid.items():
                assert total == root, f"{name} target={target} {sid.token}: {total} != {root}"
    _ok(4, "subproblem counts sum to the root count for every model, target and strategy")


def test_criterion_05_strategy_independence(partition_counts):
    for name, (root, table) in partition_counts.items():
        for target, per_sid in table.items():
            assert len(set(per_sid.values())) == 1, f"{name} target={target}"
    _ok(5, "all 7 strategies report identical solution counts on every partition model")


def test_criterion_06_end_to_end_quality(lab):
    details = []
    for name, L in lab.items():
        best = min(L.singles.values())
        winner_work = L.singles[L.pss.winner]
        ratio = winner_work / best
        assert ratio <= 1.25, f"{name}: winner {L.pss.winner.token} ratio {ratio:.3f}"
        details.append(f"{name}:{L.pss.winner.token}@{ratio:.3f}")
    _ok(6, "winner within 1.25x of the best strategy on " + ", ".join(details))


def test_criterion_07_elimination_soundness():
    rng = random.Random(7777)
    factors = [1, 2, 4, 8]
    trials = 200
    hits = 0
    for _ in range(trials):
        costs = {
            s: [f * rng.lognormvariate(0.0, 0.3) for _ in range(30)]
            for s, f in zip(S[: len(factors)], factors)
        }
        rep = select_on_matrix(costs, RaceConfig(alpha=0.01))
        hits += rep.winner is S[0]
    assert hits >= 0.95 * trials, f"only {hits}/{trials} correct"
    _ok(7, f"minimum-cost strategy selected in {hits}/{trials} synthetic trials")


def test_criterion_08_selection_overhead_bound(lab):
    details = []
    for name, L in lab.items():
        measured, bound = selection_cost_bound(L.pss)
        assert measured <= bound, f"{name}: race {measured} > bound {bound}"
        assert L.pss.race_cost < L.pss.race_cost_without_timeouts, name
        details.append(
            f"{name}: race {measured:.0f} <= {bound:.0f}, no-timeout cost {L.pss.race_cost_without_timeouts:.0f}"
        )
    _ok(8, "; ".join(details))


def test_criterion_09_mab_baseline(lab):
    rc = RewardConfig(mu=5.0)
    assert abs(reward(rc.mu / 10, rc) - 1.0) <= 1e-12
    assert abs(reward(rc.mu, rc) - 0.5) <= 1e-12
    assert abs(reward(10 * rc.mu, rc) - 0.0) <= 1e-12

    fixture = {S[0]: [1.0] * 500, S[1]: [10.0] * 500}
    rep = mab_on_oracle(MatrixOracle(fixture))
    share = rep.pulls[S[0]] / 500
    assert share >= 0.6

    details = []
    misses = []
    for name, L in lab.items():
        line = f"{name}: pss {L.pss.total_cost:.0f} vs mab {L.mab.total_cost:.0f}"
        details.append(line)
        if L.pss.total_cost > L.mab.total_cost:
            misses.append(line)
    if misses:
        spreads = []
        for name in (m.split(":")[0] for m in misses):
            singles = lab[name].singles
            lo, hi = min(singles, key=singles.get), max(singles, key=singles.get)
            spreads.append(
                f"{name} singles {singles[lo]:.0f} ({lo.token}) "
                f"to {singles[hi]:.0f} ({hi.token})"
            )
        print(
            "\ncriterion 09 FAIL  " + "; ".join(details) + "\n"
            "  analysis: the PSS<=MAB direction does not materialize on "
            + "; ".join(m.split(":")[0] for m in misses)
            + " (measured: " + "; ".join(spreads) + "). Near-equal "
            "strategies are not the cause on golomb(8), whose singles run "
            "from 10399 (mostc) to 30111 (wdegM). Its cause was the incumbent: "
            "on an optimization model a sampled row raced before a usable "
            "bound exists costs every strategy many times its bounded cost. "
            "Without the root warm start, golomb(8) at seed 0 raced rows at no "
            "bound, then 64, 47 and 42 against the optimum 34, and four rows "
            "took 7045 of the 8553 race units. Look at the warm start's "
            "incumbent and at the race cost per row."
        )
        raise AssertionError("PSS <= MAB direction failed on: " + "; ".join(misses))
    _ok(9, f"reward endpoints exact; best arm share {share:.2f}; " + "; ".join(details))


def test_criterion_10_portfolio_baseline(lab):
    rep = portfolio_on_oracle(MatrixOracle(golden_matrix()), S[:4])
    assert rep.total_cost == 14841

    details = []
    for name, L in lab.items():
        assert L.pss.total_cost < L.portfolio.total_cost, (
            f"{name}: pss {L.pss.total_cost} >= portfolio {L.portfolio.total_cost}"
        )
        details.append(f"{name}: pss {L.pss.total_cost:.0f} < x4 {L.portfolio.total_cost:.0f}")
    _ok(10, "golden fixture portfolio total 14841 exact; " + "; ".join(details))


def test_criterion_11_sample_size_robustness(lab):
    # the criterion applies to the fixtures with >= 3000 subproblems:
    # allinterval(10) and latin(5). nqueens(10) tops out at 1978 consistent
    # prefixes and golomb(8) has no sound decomposition that large (see the
    # lab notes above).
    qualifying = {
        name: L for name, L in lab.items() if len(L.decomposition.subproblems) >= 3000
    }
    assert len(qualifying) >= 2
    details = []
    for name, L in qualifying.items():
        population = len(L.decomposition.subproblems)
        agree = 0
        runs = 20
        for seed in range(runs):
            winners = []
            for k in (30, 100):
                oracle = ModelOracle(
                    L.model, L.decomposition.subproblems, shared_cache=L.cache
                )
                sample = srs_sample(population, k, seed)
                out = select_strategy(
                    oracle, RaceConfig(alpha=0.01, sample_seed=seed), sample.indices
                )
                winners.append(out.winner)
            agree += winners[0] is winners[1]
        assert agree >= 0.9 * runs, f"{name}: only {agree}/{runs} agree"
        details.append(f"{name}:{agree}/{runs}")
    _ok(11, "winners at sample sizes 30 and 100 agree on " + ", ".join(details))
