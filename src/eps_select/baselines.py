"""Comparison baselines: UCB1 bandit selection and parallel portfolios.

The bandit treats each strategy as an arm; each subproblem in queue order is
solved fully (no timeouts) by the arm maximizing mean reward plus the
sqrt(2 ln m / m_i) exploration bonus, untried arms first. The reward maps a
solving time t to ln(t_max/t) / ln(t_max/t_min) with t_max = 10*mu and
t_min = mu/10, mu being the running mean of all solving times observed so
far; times worse than t_max earn negative rewards and are never clamped.

The portfolio solves every subproblem with all of its strategies and pays
their summed cost, mirroring cost accounting that sums time across cores.

On a model with an objective both start from the incumbent of the oracle's
warm start (a first-solution race at the root) and pay its cost, exactly as
parallel strategy selection does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .selection import Observation
from .strategies import StrategyId


@dataclass
class RewardConfig:
    """t_max = 10*mu, t_min = mu/10 around the running mean solving time."""

    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")

    @property
    def t_max(self) -> float:
        return 10.0 * self.mu

    @property
    def t_min(self) -> float:
        return self.mu / 10.0


def reward(t: float, rc: RewardConfig) -> float:
    """ln(t_max/t) / ln(t_max/t_min); 1 at t_min, 0.5 at mu, 0 at t_max,
    negative beyond (degenerate runs are punished, never clamped)."""
    if t <= 0:
        raise ValueError("solving time must be positive")
    return (math.log(rc.t_max) - math.log(t)) / (math.log(rc.t_max) - math.log(rc.t_min))


@dataclass
class BanditState:
    arms: int
    counts: list[int] = field(init=False)
    reward_sums: list[float] = field(init=False)

    def __post_init__(self):
        if self.arms < 1:
            raise ValueError("need at least one arm")
        self.counts = [0] * self.arms
        self.reward_sums = [0.0] * self.arms

    @property
    def m(self) -> int:
        return sum(self.counts)

    def record(self, arm: int, r: float) -> None:
        self.counts[arm] += 1
        self.reward_sums[arm] += r


def ucb1_select(bs: BanditState) -> int:
    """Untried arms first (lowest index), then argmax of
    mean reward + sqrt(2 ln m / m_i), ties toward the lowest index."""
    for i in range(bs.arms):
        if bs.counts[i] == 0:
            return i
    m = bs.m
    best = 0
    best_p = -math.inf
    for i in range(bs.arms):
        p = bs.reward_sums[i] / bs.counts[i] + math.sqrt(2.0 * math.log(m) / bs.counts[i])
        if p > best_p:
            best = i
            best_p = p
    return best


@dataclass
class MabReport:
    total_cost: float
    pulls: dict[StrategyId, int]
    solutions_found: Optional[int] = None
    best_objective: Optional[int] = None
    warm_start_cost: float = 0.0  # included in total_cost

    def to_dict(self) -> dict:
        return {
            "total_cost": self.total_cost,
            "pulls": {s.token: c for s, c in self.pulls.items()},
            "solutions_found": self.solutions_found,
            "best_objective": self.best_objective,
            "warm_start_cost": self.warm_start_cost,
        }


def mab_on_oracle(oracle, strategies: Optional[Sequence[StrategyId]] = None) -> MabReport:
    """UCB1 over the subproblem stream of an oracle (queue = id order)."""
    strategies = tuple(strategies if strategies is not None else oracle.strategies)
    bs = BanditState(len(strategies))
    warm = oracle.warm_start()
    total = warm
    time_sum = 0.0
    n_obs = 0
    solutions = 0
    for sub in oracle.sub_ids:
        arm = ucb1_select(bs)
        obs: Observation = oracle.full(sub, strategies[arm])
        total += obs.value
        solutions += obs.solutions
        # work-unit runs can finish at zero cost; a pull still costs one tick
        t = max(obs.value, 1.0)
        time_sum += t
        n_obs += 1
        rc = RewardConfig(mu=time_sum / n_obs)
        bs.record(arm, reward(t, rc))
    pulls = {s: bs.counts[i] for i, s in enumerate(strategies)}
    best_obj = oracle.current_bound()
    return MabReport(
        total_cost=total,
        pulls=pulls,
        solutions_found=None if best_obj is not None else solutions,
        best_objective=best_obj,
        warm_start_cost=warm,
    )


@dataclass
class PortfolioReport:
    total_cost: float
    per_strategy: dict[StrategyId, float]
    solutions_found: Optional[int] = None
    best_objective: Optional[int] = None
    warm_start_cost: float = 0.0  # included in total_cost, not in per_strategy

    def to_dict(self) -> dict:
        return {
            "total_cost": self.total_cost,
            "per_strategy": {s.token: v for s, v in self.per_strategy.items()},
            "solutions_found": self.solutions_found,
            "best_objective": self.best_objective,
            "warm_start_cost": self.warm_start_cost,
        }


def portfolio_on_oracle(oracle, strategies: Sequence[StrategyId]) -> PortfolioReport:
    """Every subproblem solved by all strategies; cost is the sum across them.

    All runs of one subproblem see the same incumbent (pinned per subproblem),
    like parallel workers started together; improvements merge afterwards.
    """
    if not strategies:
        raise ValueError("portfolio needs at least one strategy")
    warm = oracle.warm_start()
    per = {s: 0.0 for s in strategies}
    solutions = 0
    for sub in oracle.sub_ids:
        bound = oracle.current_bound()
        obs = {s: oracle.full(sub, s, bound) for s in strategies}
        oracle.merge_objectives(obs.values())
        first = obs[strategies[0]]
        solutions += first.solutions
        for s, o in obs.items():
            per[s] += o.value
    best_obj = oracle.current_bound()
    return PortfolioReport(
        total_cost=sum(per.values()) + warm,
        per_strategy=per,
        solutions_found=None if best_obj is not None else solutions,
        best_objective=best_obj,
        warm_start_cost=warm,
    )

