import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eps_select.wsr import (
    Decision,
    Method,
    PairedDiffs,
    _t_two_sided,
    censor_plan,
    paired_ttest,
    signed_ranks,
    tie_group_sizes,
    wplus,
    wsr_exact_cdf,
    wsr_exact_sf,
    wsr_normal_pvalue,
    wsr_test,
)

from conftest import GOLDEN_S1_S3_DIFFS, GOLDEN_S1_S3_SIGNED_RANKS


def test_signed_ranks_golden():
    sr = signed_ranks(GOLDEN_S1_S3_DIFFS)
    assert [int(r * s) for r, s in sr] == GOLDEN_S1_S3_SIGNED_RANKS


def test_signed_ranks_zeros_discarded():
    assert signed_ranks([0, 0, 5]) == [(1.0, 1)]
    assert signed_ranks([0.0, 0.0]) == []


def test_signed_ranks_average_ties():
    sr = signed_ranks([1, -1, 2])
    assert sr == [(1.5, 1), (1.5, -1), (3.0, 1)]


def test_wplus_golden():
    assert wplus(GOLDEN_S1_S3_DIFFS) == 10
    assert wplus([-3, -1, -2]) == 0
    assert wplus([1, 2, 3, 4]) == 10  # n(n+1)/2 at the maximum


def test_wplus_empty_raises():
    with pytest.raises(ValueError):
        wplus([0, 0])


def _enumerated_cdf(n):
    """P(W+ <= w) for every w by enumerating all 2^n sign vectors."""
    from collections import Counter

    counts = Counter()
    for signs in itertools.product((0, 1), repeat=n):
        counts[sum(r for r, s in zip(range(1, n + 1), signs) if s)] += 1
    m = n * (n + 1) // 2
    return [sum(counts[s] for s in range(w + 1)) for w in range(m + 1)]


@pytest.mark.parametrize("n", range(1, 13))
def test_exact_cdf_matches_enumeration(n):
    cum = _enumerated_cdf(n)
    m = n * (n + 1) // 2
    for w in range(m + 1):
        assert wsr_exact_cdf(n, w) == cum[w] / (1 << n)
        assert wsr_exact_sf(n, w) == ((1 << n) - (cum[w - 1] if w else 0)) / (1 << n)


def test_exact_cdf_examples():
    assert wsr_exact_cdf(3, 0) == 1 / 8
    assert wsr_exact_cdf(1, 0) == 0.5
    # the n=10 one-sided critical value at p <= 0.05 is 10
    assert wsr_exact_cdf(10, 10) <= 0.05
    assert wsr_exact_cdf(10, 11) > 0.05


def test_exact_symmetry():
    for n in range(1, 13):
        m = n * (n + 1) // 2
        for w in range(m + 1):
            p_at_w = wsr_exact_cdf(n, w) - (wsr_exact_cdf(n, w - 1) if w else 0.0)
            p_at_mirror = wsr_exact_cdf(n, m - w) - (
                wsr_exact_cdf(n, m - w - 1) if m - w else 0.0
            )
            assert math.isclose(p_at_w, p_at_mirror, abs_tol=1e-15)


def test_exact_cap():
    with pytest.raises(ValueError):
        wsr_exact_cdf(51, 10)
    with pytest.raises(ValueError):
        wsr_exact_cdf(0, 0)


def test_normal_cc_close_to_exact_n20():
    n = 20
    worst = 0.0
    for w in range(n * (n + 1) // 2 + 1):
        worst = max(worst, abs(wsr_exact_cdf(n, w) - wsr_normal_pvalue(n, w)))
    assert worst <= 0.02


def test_normal_cc_center_and_tails():
    n = 10
    mu = n * (n + 1) / 4
    assert wsr_normal_pvalue(n, mu - 0.5) == pytest.approx(0.5)
    assert wsr_normal_pvalue(n, n * (n + 1) / 2) > 0.99
    assert wsr_normal_pvalue(n, 10) == pytest.approx(wsr_exact_cdf(n, 10), abs=0.02)


def test_normal_upper_tail_mirrors_lower():
    n = 15
    for w in (10, 30, 60):
        lo = wsr_normal_pvalue(n, w, tail="lower")
        up = wsr_normal_pvalue(n, n * (n + 1) / 2 - w, tail="upper")
        assert lo == pytest.approx(up)


def test_wsr_test_golden_first_better():
    res = wsr_test(GOLDEN_S1_S3_DIFFS, alpha=0.05)
    assert res.w_plus == 10
    assert res.n == 10
    assert res.method is Method.EXACT
    assert res.decision is Decision.FIRST_BETTER
    assert res.p_value <= 0.05


def test_wsr_test_all_zero_inconclusive():
    res = wsr_test([0.0] * 8, alpha=0.05)
    assert res.n == 0
    assert res.decision is Decision.NOT_SIGNIFICANT


def test_wsr_test_second_better_upper_tail():
    res = wsr_test(list(range(1, 11)), alpha=0.05)
    assert res.w_plus == 55
    assert res.decision is Decision.SECOND_BETTER
    assert res.p_value == pytest.approx(1 / 1024)


def test_wsr_test_ties_use_normal():
    res = wsr_test([1, -1, 2, -2, 3, -3, 4, 5, 6, 7], alpha=0.5)
    assert res.method is Method.NORMAL_CC


def test_wsr_test_mu_sigma_fields():
    res = wsr_test([1, -2, 3, -4, 5], alpha=0.05)
    assert res.mu == 5 * 6 / 4
    assert res.sigma == pytest.approx(math.sqrt(5 * 6 * 11 / 24))


def test_paired_diffs_invariant():
    PairedDiffs((-5.0, 2.0), (True, False))
    with pytest.raises(ValueError):
        PairedDiffs((5.0,), (True,))  # censored pairs must be negative


def test_censor_plan_golden():
    # comparing against a column with a single positive diff of 2
    best = [62, 90, 155, 231, 198, 146, 62, 63, 167, 83]
    plan = censor_plan(best, [-62, -64, -78, -176, -196, 2, -46, -23, -159, -83])
    assert plan.d_max == 2
    assert list(plan.thresholds) == [t + 3 for t in best]


def test_censor_plan_no_positive():
    plan = censor_plan([10, 20], [-1, -5])
    assert plan.d_max == 0
    assert list(plan.thresholds) == [11, 21]


def test_censor_plan_uniform():
    plan = censor_plan([7, 7, 7], [5, 2, -1])
    assert list(plan.thresholds) == [13, 13, 13]


def test_paired_ttest_directions():
    assert paired_ttest([1, 2, 3], [1, 2, 3], 0.05) is Decision.NOT_SIGNIFICANT
    rng = random.Random(0)
    a = [10 + rng.uniform(-0.01, 0.01) for _ in range(10)]
    b = [x - 10 for x in a]
    assert paired_ttest(a, b, 0.05) is Decision.SECOND_BETTER
    assert paired_ttest(b, a, 0.05) is Decision.FIRST_BETTER
    assert paired_ttest([1, 3], [2, 2], 0.05) is Decision.NOT_SIGNIFICANT


@pytest.mark.parametrize(
    "df, t975",
    [
        (1, 12.706204736174694),
        (2, 4.302652729749462),
        (3, 3.1824463052837078),
        (4, 2.7764451051977934),
        (10, 2.228138851986274),
        (29, 2.045229642132703),
    ],
)
def test_t_two_sided_at_known_quantiles(df, t975):
    assert abs(_t_two_sided(t975, df) - 0.05) < 1e-13
    assert _t_two_sided(-t975, df) == _t_two_sided(t975, df)


@pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 10, 29, 30, 101, 1000])
def test_t_two_sided_monotone_and_bounded(df):
    assert _t_two_sided(0.0, df) == 1.0
    ts = [0.0] + [10 ** (e / 100) for e in range(-600, 901)]  # 1e-6 .. 1e9
    ps = [_t_two_sided(t, df) for t in ts]
    assert all(0.0 <= p <= 1.0 for p in ps)
    assert all(later <= earlier for earlier, later in zip(ps, ps[1:]))


def test_t_two_sided_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(6)
    for _ in range(5000):
        df = rng.randint(1, 1000)
        t = rng.choice([0.1, 1.0, 10.0]) * rng.uniform(0.0, 10.0)
        assert abs(_t_two_sided(t, df) - 2 * stats.t.sf(t, df)) < 1e-13, (t, df)


def test_paired_ttest_zero_variance_shift():
    assert paired_ttest([5, 5, 5], [1, 1, 1], 0.05) is Decision.SECOND_BETTER
    assert paired_ttest([1, 1, 1], [5, 5, 5], 0.05) is Decision.FIRST_BETTER


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=0, max_size=40))
@settings(max_examples=200, deadline=None)
def test_rank_sum_conservation(diffs):
    sr = signed_ranks(diffs)
    m = len(sr)
    assert sum(r for r, _ in sr) == m * (m + 1) / 2


@given(
    st.integers(5, 40),
    st.integers(0, 10_000),
)
@settings(max_examples=150, deadline=None)
def test_censoring_equivalence_property(n, seed):
    """Raising censored values above to(j) never changes W+."""
    rng = random.Random(seed)
    t_b = [rng.uniform(1, 100) for _ in range(n)]
    t_i = [rng.uniform(1, 100) for _ in range(n)]
    d_true = [a - b for a, b in zip(t_b, t_i)]
    plan = censor_plan(t_b, d_true)
    recorded = []
    for j in range(n):
        level = plan.thresholds[j] + rng.uniform(0, 50) * rng.randint(0, 1)
        recorded.append(min(t_i[j], level))
    d_rec = [a - b for a, b in zip(t_b, recorded)]
    if not any(d != 0 for d in d_true):
        return
    assert wplus(d_rec) == wplus(d_true)


def test_tie_group_sizes():
    assert sorted(tie_group_sizes([1, -1, 2, 2, 0, 3])) == [2, 2]
    assert tie_group_sizes([1, 2, 3]) == []
