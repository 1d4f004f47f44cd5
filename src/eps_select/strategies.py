"""The seven dynamic variable-value strategies and the counters behind them.

Variable choice is a pure function of the current domains and the counter
state; all ties break toward the smallest variable index. Every strategy
assigns the minimum value of the chosen domain except ``wdegM``, which
assigns the maximum; :func:`eps_select.search.solve` makes that value choice.
The counters never decay.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .csp import Model


class StrategyId(Enum):
    FF = "ff"            # first fail: min domain size
    ACT = "act"          # max activity
    WDEG_MIN = "wdegm"   # max weighted degree, min value
    WDEG_MAX = "wdegM"   # max weighted degree, max value
    MREGRET = "mregret"  # max (largest - second largest) in domain
    MOSTC = "mostc"      # most constrained variable (static degree)
    DWDEG = "dwdeg"      # min domain-size / weighted-degree ratio

    @property
    def token(self) -> str:
        return self.value


ALL_STRATEGIES: tuple[StrategyId, ...] = tuple(StrategyId)

_BY_TOKEN = {s.value: s for s in StrategyId}


def parse_strategy(token: str) -> StrategyId:
    try:
        return _BY_TOKEN[token]
    except KeyError:
        valid = ", ".join(s.value for s in StrategyId)
        raise ValueError(f"unknown strategy {token!r} (expected one of: {valid})") from None


class CounterState:
    """Per-search-run activity and weighted-degree counters.

    ``wdeg[v]`` goes up by one whenever a constraint containing ``v`` fails.
    ``activity[v]`` goes up by at most one per branching decision, when
    propagation pruned ``v`` under that decision. Counters reset at the start
    of every subproblem solve.
    """

    __slots__ = ("activity", "wdeg", "_last_bump")

    def __init__(self, n: int):
        self.activity = [0.0] * n
        self.wdeg = [0] * n
        self._last_bump = [-1] * n

    def on_failure(self, scope: Iterable[int]) -> None:
        wdeg = self.wdeg
        for v in scope:
            wdeg[v] += 1

    def bump_pruned_many(self, pruned: Iterable[int], decision_index: int) -> None:
        last = self._last_bump
        act = self.activity
        for v in pruned:
            if last[v] != decision_index:
                last[v] = decision_index
                act[v] += 1.0


def variable_chooser(
    model: Model,
    sid: StrategyId,
    counters: CounterState,
    scan: Optional[Sequence[int]] = None,
) -> Callable[[list[int]], int]:
    """Compile ``sid`` into a closure ``doms -> var index`` (-1 = all assigned).

    The returned function is the hot path of the search; it scans domains once
    and keeps the first variable achieving the best criterion value. It scans
    the variables of ``scan`` in its order, by default every variable in index
    order; a caller may leave out only variables that are fixed in every
    domain list it will pass.
    """
    vs = range(model.n) if scan is None else tuple(scan)

    if sid is StrategyId.FF:

        def choose(doms: list[int]) -> int:
            best = -1
            bk = 0
            for v in vs:
                d = doms[v]
                if d & (d - 1) == 0:
                    continue
                k = d.bit_count()
                if k == 2:  # no open domain is smaller, and ties go to v
                    return v
                if best < 0 or k < bk:
                    best = v
                    bk = k
            return best

    elif sid is StrategyId.MREGRET:

        def choose(doms: list[int]) -> int:
            best = -1
            bk = -1
            for v in vs:
                d = doms[v]
                if d & (d - 1) == 0:
                    continue
                hi = d.bit_length() - 1
                k = hi - (d ^ (1 << hi)).bit_length() + 1
                if best < 0 or k > bk:
                    best = v
                    bk = k
            return best

    elif sid is StrategyId.DWDEG:  # minimize size/wdeg, exact integer cross-comparison
        wdeg = counters.wdeg

        def choose(doms: list[int]) -> int:
            best = -1
            bs = 0
            bw = 1
            for v in vs:
                d = doms[v]
                if d & (d - 1) == 0:
                    continue
                s = d.bit_count()
                w = wdeg[v]
                if w < 1:
                    w = 1
                # s/w < bs/bw  <=>  s*bw < bs*w
                if best < 0 or s * bw < bs * w:
                    best = v
                    bs = s
                    bw = w
            return best

    else:  # ACT, WDEG_MIN, WDEG_MAX, MOSTC: the largest score
        if sid is StrategyId.ACT:
            score = counters.activity
        elif sid is StrategyId.MOSTC:
            score = model.static_degree
        else:
            score = counters.wdeg

        def choose(doms: list[int]) -> int:
            best = -1
            bk = 0
            for v in vs:
                d = doms[v]
                if d & (d - 1) == 0:
                    continue
                k = score[v]
                if best < 0 or k > bk:
                    best = v
                    bk = k
            return best

    return choose

