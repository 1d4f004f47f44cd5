"""Wilcoxon signed rank machinery for paired, right-censorable runtimes.

Pairs are differences d_j = time(best, j) - time(other, j). Zero differences
are discarded, the remaining |d_j| are ranked ascending with average ranks on
ties, and W+ is the sum of the ranks carrying a positive sign. Under the
null, W+ has mean n(n+1)/4 and standard deviation sqrt(n(n+1)(2n+1)/24).

P-values come from the exact null distribution (a subset-sum convolution
over the 2^n equiprobable sign vectors) whenever there are no ties and
n <= EXACT_N_CAP, and from a Normal approximation with continuity correction
and tie-corrected variance otherwise.

The paired t-test that confirms a reversal has integer degrees of freedom
(n - 1), so its two-sided p-value comes from the exact finite series in
theta = atan(|t| / sqrt(df)) (Abramowitz & Stegun 26.7.3-26.7.4; Hill,
CACM Algorithm 395, 1970) rather than from a numerical library.

The censoring threshold to(j) = d_max + time(best, j) + 1 (d_max being the
largest positive difference) is the level above which raising any censored
value cannot change W+: every censored pair then sits strictly above every
positive difference in absolute value, so the positive ranks are pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence, Union

EXACT_N_CAP = 50
_TAIL_FROM = 1e-3  # below this t-test p-value, sum its tail series directly


class Decision(Enum):
    FIRST_BETTER = "first_better"
    NOT_SIGNIFICANT = "not_significant"
    SECOND_BETTER = "second_better"


class Method(Enum):
    EXACT = "exact"
    NORMAL_CC = "normal_cc"


@dataclass(frozen=True)
class PairedDiffs:
    """Differences best-minus-other, with per-pair censoring flags.

    Under the race rule a censored pair always has a negative difference
    (the censored run lasted at least as long as the relative timeout), so
    the constructor enforces it.
    """

    diffs: tuple[float, ...]
    censor_flags: tuple[bool, ...]

    def __post_init__(self):
        diffs = tuple(self.diffs)
        flags = tuple(self.censor_flags)
        if len(diffs) != len(flags):
            raise ValueError("diffs and censor_flags must align")
        for d, c in zip(diffs, flags):
            if c and d >= 0:
                raise ValueError("censored pairs must have a negative difference")
        object.__setattr__(self, "diffs", diffs)
        object.__setattr__(self, "censor_flags", flags)


@dataclass(frozen=True)
class WsrResult:
    n: int
    w_plus: float
    mu: float
    sigma: float
    p_value: float
    method: Method
    decision: Decision
    p_lower: float = 1.0
    p_upper: float = 1.0


@dataclass(frozen=True)
class CensorPlan:
    d_max: float
    thresholds: tuple[float, ...]


def signed_ranks(diffs: Sequence[float]) -> list[tuple[float, int]]:
    """(rank, sign) per nonzero difference, in input order.

    Zeros are discarded before ranking; tied absolute values get the average
    of the ranks they span.
    """
    nz = [(abs(d), 1 if d > 0 else -1) for d in diffs if d != 0]
    if not nz:
        return []
    order = sorted(range(len(nz)), key=lambda k: nz[k][0])
    ranks = [0.0] * len(nz)
    i = 0
    while i < len(order):
        j = i
        a = nz[order[i]][0]
        while j + 1 < len(order) and nz[order[j + 1]][0] == a:
            j += 1
        avg = (i + j + 2) / 2  # positions i..j hold ranks i+1..j+1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return [(ranks[k], nz[k][1]) for k in range(len(nz))]


def wplus(diffs: Sequence[float]) -> float:
    """Sum of the positively signed ranks."""
    sr = signed_ranks(diffs)
    if not sr:
        raise ValueError("no nonzero differences")
    return sum(r for r, s in sr if s > 0)


def tie_group_sizes(diffs: Sequence[float]) -> list[int]:
    counts: dict[float, int] = {}
    for d in diffs:
        if d != 0:
            a = abs(d)
            counts[a] = counts.get(a, 0) + 1
    return [c for c in counts.values() if c > 1]


@lru_cache(maxsize=None)
def _wplus_counts(n: int) -> tuple[int, ...]:
    """counts[s] = number of sign vectors over ranks 1..n with positive-rank
    sum equal to s (the exact null distribution, scaled by 2^n)."""
    dp = [1]
    for r in range(1, n + 1):
        new = dp + [0] * r
        for s in range(len(dp) - 1, -1, -1):
            new[s + r] += dp[s]
        dp = new
    return tuple(dp)


def wsr_exact_cdf(n: int, w: float) -> float:
    """P(W+ <= w) under the null for untied integer ranks 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_N_CAP:
        raise ValueError(f"exact mode capped at n={EXACT_N_CAP}; use the normal approximation")
    counts = _wplus_counts(n)
    top = min(math.floor(w), len(counts) - 1)
    if top < 0:
        return 0.0
    return sum(counts[: top + 1]) / (1 << n)


def wsr_exact_sf(n: int, w: float) -> float:
    """P(W+ >= w) under the null for untied integer ranks 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_N_CAP:
        raise ValueError(f"exact mode capped at n={EXACT_N_CAP}; use the normal approximation")
    counts = _wplus_counts(n)
    lowest = max(math.ceil(w), 0)
    if lowest > len(counts) - 1:
        return 0.0
    return sum(counts[lowest:]) / (1 << n)


def _phi(x: float) -> float:
    return math.erfc(-x / math.sqrt(2.0)) / 2.0


def _sigma_tie_corrected(n: int, ties: Sequence[int]) -> float:
    var = n * (n + 1) * (2 * n + 1) / 24.0 - sum(t**3 - t for t in ties) / 48.0
    return math.sqrt(var) if var > 0 else 0.0


def wsr_normal_pvalue(
    n: int, w: float, tie_correction: Sequence[int] = (), tail: str = "lower"
) -> float:
    """One-sided normal-approximation p-value with continuity correction.

    ``tie_correction`` lists the tie-group sizes; the usual
    sum(t^3 - t)/48 is subtracted inside the variance. Lower tail is
    P(W+ <= w) ~= Phi((w + 0.5 - mu)/sigma'); upper is the mirror image.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    mu = n * (n + 1) / 4.0
    sigma = _sigma_tie_corrected(n, tie_correction)
    if sigma <= 0.0:
        return 1.0  # degenerate: inconclusive
    if tail == "lower":
        return _phi((w + 0.5 - mu) / sigma)
    if tail == "upper":
        return _phi((mu - w + 0.5) / sigma)
    raise ValueError("tail must be 'lower' or 'upper'")


def wsr_test(
    pd: Union[PairedDiffs, Sequence[float]], alpha: float = 0.01
) -> WsrResult:
    """One-tailed WSR test on d = t(first) - t(second).

    FIRST_BETTER when P(W+ <= w) <= alpha (the first strategy is faster),
    SECOND_BETTER on the mirrored upper tail, NOT_SIGNIFICANT otherwise.
    The reported p-value is the tail on the side of the observed effect.
    """
    diffs = pd.diffs if isinstance(pd, PairedDiffs) else tuple(pd)
    sr = signed_ranks(diffs)
    n = len(sr)
    if n == 0:
        return WsrResult(0, 0.0, 0.0, 0.0, 1.0, Method.EXACT, Decision.NOT_SIGNIFICANT)
    w = sum(r for r, s in sr if s > 0)
    mu = n * (n + 1) / 4.0
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
    ties = tie_group_sizes(diffs)
    if not ties and n <= EXACT_N_CAP:
        method = Method.EXACT
        p_lower = wsr_exact_cdf(n, w)
        p_upper = wsr_exact_sf(n, w)
    else:
        method = Method.NORMAL_CC
        p_lower = wsr_normal_pvalue(n, w, ties, tail="lower")
        p_upper = wsr_normal_pvalue(n, w, ties, tail="upper")
    if p_lower <= alpha:
        decision = Decision.FIRST_BETTER
    elif p_upper <= alpha:
        decision = Decision.SECOND_BETTER
    else:
        decision = Decision.NOT_SIGNIFICANT
    return WsrResult(
        n=n,
        w_plus=w,
        mu=mu,
        sigma=sigma,
        p_value=min(p_lower, p_upper),
        method=method,
        decision=decision,
        p_lower=p_lower,
        p_upper=p_upper,
    )


def censor_plan(
    best_times: Sequence[float], diffs_observed: Sequence[float]
) -> CensorPlan:
    """Per-subproblem censoring thresholds to(j) = d_max + t_b(j) + 1.

    ``diffs_observed`` must hold the differences of the uncensored pairs
    (positive differences are only trustworthy when uncensored); with no
    positive difference d_max is 0 and the thresholds still cover every
    possible ranking of the all-negative differences.
    """
    d_max = 0.0
    for d in diffs_observed:
        if d > d_max:
            d_max = d
    return CensorPlan(
        d_max=d_max, thresholds=tuple(d_max + t + 1 for t in best_times)
    )


def _t_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's T with integer ``df`` >= 1.

    With theta = atan(|t| / sqrt(df)) and c = cos(theta), take the terms
    c^k (k-1)!!/k!! over the k of df's parity; each is the previous one
    times c^2 (k-1)/k. Summed over k < df they give A = P(|T| < |t|):
    sin(theta) * (1 + c^2/2 + ...) for even df, and
    (2/pi) * (theta + sin(theta) * (c + (2/3) c^3 + ...)) for odd df (just
    2 theta / pi at df = 1). Summed over k >= df and scaled the same way
    (without theta) they give 1 - A itself. The finite sum is used while
    1 - A >= ``_TAIL_FROM``; below that the subtraction has lost most of
    its digits and is no longer monotone in t, so the tail is summed.
    """
    theta = math.atan(abs(t) / math.sqrt(df))
    sin, c2 = math.sin(theta), math.cos(theta) ** 2
    odd = df % 2
    scale = 2.0 / math.pi if odd else 1.0
    k, term, head = odd, math.cos(theta) if odd else 1.0, 0.0
    while k < df:
        head += term
        k += 2
        term *= c2 * (k - 1) / k
    p = 1.0 - scale * ((theta if odd else 0.0) + sin * head)
    if p >= _TAIL_FROM:
        return p
    tail = 0.0
    while tail + term != tail:
        tail += term
        k += 2
        term *= c2 * (k - 1) / k
    return scale * sin * tail


def paired_ttest(
    a_times: Sequence[float], b_times: Sequence[float], alpha: float = 0.01
) -> Decision:
    """Two-sided paired t-test; direction from the sign of the mean diff.

    Both vectors must be fully uncensored. FIRST_BETTER means ``a`` is
    faster. Zero-variance differences short-circuit: equal vectors are not
    significant, a constant nonzero shift decides by its sign.
    """
    if len(a_times) != len(b_times):
        raise ValueError("paired vectors must have the same length")
    n = len(a_times)
    if n < 2:
        raise ValueError("need at least two pairs")
    d = [a - b for a, b in zip(a_times, b_times)]
    mean = sum(d) / n
    var = sum((x - mean) ** 2 for x in d) / (n - 1)
    if var == 0.0:
        if mean == 0.0:
            return Decision.NOT_SIGNIFICANT
        return Decision.SECOND_BETTER if mean > 0 else Decision.FIRST_BETTER
    t_stat = mean / math.sqrt(var / n)
    p = _t_two_sided(t_stat, n - 1)
    if p > alpha:
        return Decision.NOT_SIGNIFICANT
    return Decision.SECOND_BETTER if mean > 0 else Decision.FIRST_BETTER
