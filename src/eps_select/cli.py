"""Command line entry point.

Subcommands: solve, decompose, pss, mab, portfolio, compare. Reports go to
stdout as plain tables; ``--out`` writes the full report as JSON and, for
``pss`` and ``compare`` only, ``--csv`` appends one row per strategy/mode.
Exit codes: 0 success, 1 runtime failure, 2 usage error. Set EPS_SELECT_LOG
to control log level.
"""

from __future__ import annotations

import argparse
import csv as _csv
import json
import logging
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .baselines import MabReport, PortfolioReport, mab_on_oracle, portfolio_on_oracle
from .benchmarks import GENERATORS, generate
from .csp import InconsistentProblem, Model
from .decomposition import (
    Decomposition,
    DecompositionConfig,
    decompose,
    srs_sample,
)
from .modelio import ModelFormatError, load_json
from .runner import TaskFailed, raise_failures, run_pool
from .search import SolveMode, TimeMode, solve
from .selection import (
    ModelOracle,
    PssConfig,
    RaceConfig,
    SelectionReport,
    pss_select,
    selection_cost_bound,
)
from .strategies import ALL_STRATEGIES, StrategyId, parse_strategies, parse_strategy

log = logging.getLogger("eps_select")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="builtin model name: " + ", ".join(sorted(GENERATORS)))
    p.add_argument("--n", type=int, help="size parameter for builtin models")
    p.add_argument("--maxlen", type=int, help="ruler length cap (golomb only)")
    p.add_argument("--json", dest="json_path", help="path to a JSON model file")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-subproblems", type=int, default=None)
    p.add_argument("--sample-size", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--timeout-factor", type=float, default=2.0)
    p.add_argument("--time-mode", choices=["work", "wall"], default="work")
    p.add_argument("--out", help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eps-select",
        description="Strategy selection for embarrassingly parallel constraint search",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve with a single strategy")
    _add_model_args(p)
    _add_run_args(p)
    p.add_argument("--strategy", default="ff")
    p.add_argument("--budget", type=int, default=None, help="work-unit budget")
    p.add_argument("--first", action="store_true", help="stop at the first solution")

    p = sub.add_parser("decompose", help="dump the subproblem decomposition")
    _add_model_args(p)
    _add_run_args(p)

    p = sub.add_parser("pss", help="parallel strategy selection run")
    _add_model_args(p)
    _add_run_args(p)
    p.add_argument("--csv", dest="csv_path", help="append per-strategy rows here")

    p = sub.add_parser("mab", help="UCB1 multi-armed bandit baseline")
    _add_model_args(p)
    _add_run_args(p)

    p = sub.add_parser("portfolio", help="run several strategies on everything")
    _add_model_args(p)
    _add_run_args(p)
    p.add_argument("--strategies", default="ff,act,wdegm,wdegM")

    p = sub.add_parser("compare", help="all single strategies + pss + mab + portfolio-x4")
    _add_model_args(p)
    _add_run_args(p)
    p.add_argument("--csv", dest="csv_path", help="append per-strategy rows here")

    return ap


def _load_model(args) -> Model:
    if args.json_path:
        return load_json(args.json_path)
    if not args.model:
        raise ModelFormatError("either --model or --json is required")
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.maxlen is not None:
        params["maxlen"] = args.maxlen
    return generate(args.model, **params)


def _configs(args) -> PssConfig:
    return PssConfig(
        decomposition=DecompositionConfig(
            target_count=args.target_subproblems, worker_count=args.workers
        ),
        race=RaceConfig(
            timeout_factor=args.timeout_factor,
            alpha=args.alpha,
            sample_seed=args.seed,
            time_mode=TimeMode(args.time_mode),
        ),
        sample_size=args.sample_size,
    )


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for ri, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if ri == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return f"{x:.2f}"


def _write_out(args, payload: dict) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"report written to {args.out}")


def _write_csv(args, rows: Sequence[dict]) -> None:
    if not args.csv_path:
        return
    fields = ["problem", "strategy_or_mode", "total_work", "wall_ms", "ratio", "censored_count", "winner_flag"]
    new = not os.path.exists(args.csv_path)
    with open(args.csv_path, "a", newline="") as fh:
        w = _csv.DictWriter(fh, fieldnames=fields)
        if new:
            w.writeheader()
        for r in rows:
            w.writerow(r)
    print(f"csv rows appended to {args.csv_path}")


def _csv_rows(problem: str, totals: dict[str, float], winner: Optional[str], time_mode: TimeMode,
              censored: Optional[dict[str, int]] = None) -> list[dict]:
    """One row per label; a total goes under ``wall_ms`` in wall-clock mode and
    under ``total_work`` in work-units mode, and the other column stays empty."""
    best = min(totals.values()) if totals else 0.0
    wall = time_mode is TimeMode.WALL
    rows = []
    for label, total in totals.items():
        rows.append(
            {
                "problem": problem,
                "strategy_or_mode": label,
                "total_work": "" if wall else total,
                "wall_ms": total if wall else "",
                "ratio": f"{total / best:.4f}" if best > 0 else "1.0",
                "censored_count": censored.get(label, "") if censored else "",
                "winner_flag": 1 if label == winner else 0,
            }
        )
    return rows


@dataclass
class Comparison:
    """Every single strategy, PSS, MAB and portfolio-x4 on one decomposition."""

    model: Model
    decomposition: Decomposition
    cache: dict  # the oracle memo all methods share
    singles: dict[StrategyId, float]  # whole-problem cost, ALL_STRATEGIES order
    pss: SelectionReport
    mab: MabReport
    portfolio: PortfolioReport
    best4: tuple[StrategyId, ...]  # the portfolio: the four cheapest singles


def compare(model: Model, cfg: PssConfig) -> Comparison:
    """Run every method of :class:`Comparison` on one decomposition.

    Each single strategy solves every subproblem in its own task pool, one
    pool per strategy in ``ALL_STRATEGIES`` order (in worker processes on a
    satisfaction model with more than one worker); PSS, the bandit and the
    portfolio then read the same oracle cache. A failed task raises
    :class:`~eps_select.runner.TaskFailed`.
    """
    time_mode = cfg.race.time_mode
    decomp = decompose(model, cfg.decomposition)
    cache: dict = {}

    def oracle(strategies: Sequence[StrategyId] = ALL_STRATEGIES) -> ModelOracle:
        return ModelOracle(
            model, decomp.subproblems, strategies, time_mode=time_mode, shared_cache=cache
        )

    # on an optimization model every solve reads and raises the live
    # incumbent, so the singles run in order in this process
    bound_free = model.objective is None
    singles: dict[StrategyId, float] = {}
    for sid in ALL_STRATEGIES:
        single = oracle()
        results, _ = run_pool(
            single.sub_ids,
            cfg.decomposition.worker_count,
            lambda sub: single.full(sub, sid),
            time_mode=time_mode,
            cost_fn=lambda obs: obs.value,
            processes=bound_free,
        )
        raise_failures(results)
        if bound_free:  # PSS, the bandit and the portfolio read these
            for r in results:
                single.remember(r.task, sid, r.result)
        singles[sid] = sum(r.result.value for r in results)
        log.info("single %s total=%s", sid.token, singles[sid])

    pss = pss_select(model, cfg, oracle=oracle(), decomposition=decomp)
    mab = mab_on_oracle(oracle())
    best4 = tuple(sorted(ALL_STRATEGIES, key=singles.get)[:4])
    portfolio = portfolio_on_oracle(oracle(best4), best4)
    return Comparison(model, decomp, cache, singles, pss, mab, portfolio, best4)


def _print_selection_report(model: Model, rep: SelectionReport) -> None:
    print(f"model: {model.name}   population: {rep.population} subproblems "
          f"(prefix {rep.prefix_len}), sample: {len(rep.sample_ids)} (seed {rep.sample_seed})")
    rows = []
    for s in rep.strategies:
        mark = "*" if s is rep.winner else ""
        rows.append(
            (
                s.token + mark,
                _fmt(rep.sample_totals[s]),
                rep.race_censored_counts[s],
            )
        )
    print(_table(("strategy", "sample total", "censored"), rows))
    for s, r in rep.eliminated:
        print(
            f"eliminated {s.token}: W+={_fmt(r.w_plus)} n={r.n} p={r.p_value:.4g} ({r.method.value})"
        )
    if rep.survivors_tiebreak:
        print("tie-break among:", ", ".join(s.token for s in rep.survivors_tiebreak))
    measured, bound = selection_cost_bound(rep)
    no_timeouts = rep.race_cost_without_timeouts  # unknown in wall-clock mode
    print(
        f"winner: {rep.winner.token}   confidence: {rep.overall_confidence:.4f} "
        f"({rep.comparisons} comparisons at alpha={rep.alpha})"
    )
    print(
        f"costs: selection={_fmt(rep.selection_cost)} "
        f"(race={_fmt(rep.race_cost)} <= bound {_fmt(bound)}; "
        f"without timeouts it would be {'unknown' if no_timeouts is None else _fmt(no_timeouts)}; "
        f"uncensor={_fmt(rep.uncensor_cost)}, resolve={_fmt(rep.resolve_cost)}, "
        f"warm start={_fmt(rep.warm_start_cost)}), "
        f"solve={_fmt(rep.solve_cost)}, decompose={_fmt(rep.decompose_work)}"
    )
    if rep.solutions_found is not None:
        print(f"solutions: {rep.solutions_found}")
    if rep.best_objective is not None:
        print(f"best objective: {rep.best_objective}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=os.environ.get("EPS_SELECT_LOG", "WARNING").upper())
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (ModelFormatError, InconsistentProblem, ValueError, OSError, TaskFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    model = _load_model(args)
    cfg = _configs(args)
    time_mode = cfg.race.time_mode

    if args.command == "solve":
        sid = parse_strategy(args.strategy)
        mode = SolveMode.FIRST_SOLUTION if args.first else (
            SolveMode.OPTIMIZE if model.objective is not None else SolveMode.ALL_SOLUTIONS
        )
        out = solve(model, (), sid, mode, budget=args.budget)
        print(
            f"{model.name} [{sid.token}]: status={out.status.value} "
            f"solutions={out.solutions_found} objective={out.best_objective} "
            f"work={out.work_used} (decisions={out.decisions} failures={out.failures} "
            f"propagations={out.propagations}) wall={out.wall_ms:.1f}ms"
        )
        _write_out(args, {
            "model": model.name,
            "strategy": sid.token,
            "status": out.status.value,
            "solutions": out.solutions_found,
            "objective": out.best_objective,
            "work": out.work_used,
            "wall_ms": out.wall_ms,
        })
        return 0

    if args.command == "decompose":
        decomp = decompose(model, cfg.decomposition)
        sample = srs_sample(len(decomp), cfg.sample_size_for(len(decomp)), args.seed)
        print(
            f"{model.name}: {len(decomp)} subproblems at prefix {decomp.prefix_len}"
            + (" (shortfall)" if decomp.shortfall else "")
            + f"; sample rule gives {len(sample.indices)}"
        )
        payload = {
            "model": model.name,
            "count": len(decomp),
            "prefix_len": decomp.prefix_len,
            "shortfall": decomp.shortfall,
            "sample": sample.indices,
            "subproblems": [
                {"id": s.id, "assignment": [[model.names[v], val] for v, val in s.assignment]}
                for s in decomp.subproblems
            ],
        }
        _write_out(args, payload)
        return 0

    if args.command == "pss":
        rep = pss_select(model, cfg)
        _print_selection_report(model, rep)
        _write_out(args, {"model": model.name, "pss": rep.to_dict()})
        totals = {s.token: rep.sample_totals[s] for s in rep.strategies}
        _write_csv(args, _csv_rows(model.name, totals, rep.winner.token, time_mode,
                                   {s.token: c for s, c in rep.race_censored_counts.items()}))
        return 0

    if args.command == "mab":
        decomp = decompose(model, cfg.decomposition)
        oracle = ModelOracle(model, decomp.subproblems, time_mode=time_mode)
        rep = mab_on_oracle(oracle)
        print(f"{model.name} MAB: total={_fmt(rep.total_cost)} "
              f"(warm start={_fmt(rep.warm_start_cost)})")
        print(_table(("arm", "pulls"), [(s.token, c) for s, c in rep.pulls.items()]))
        if rep.solutions_found is not None:
            print(f"solutions: {rep.solutions_found}")
        if rep.best_objective is not None:
            print(f"best objective: {rep.best_objective}")
        _write_out(args, {"model": model.name, "mab": rep.to_dict()})
        return 0

    if args.command == "portfolio":
        sids = parse_strategies(args.strategies)
        decomp = decompose(model, cfg.decomposition)
        oracle = ModelOracle(model, decomp.subproblems, sids, time_mode=time_mode)
        rep = portfolio_on_oracle(oracle, sids)
        print(f"{model.name} portfolio[{args.strategies}]: total={_fmt(rep.total_cost)} "
              f"(warm start={_fmt(rep.warm_start_cost)})")
        print(_table(("strategy", "total"), [(s.token, _fmt(v)) for s, v in rep.per_strategy.items()]))
        _write_out(args, {"model": model.name, "portfolio": rep.to_dict()})
        return 0

    if args.command == "compare":
        _print_comparison(args, compare(model, cfg))
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def _print_comparison(args, cmp: Comparison) -> None:
    model = cmp.model
    singles = cmp.singles
    totals: dict[str, float] = {s.token: singles[s] for s in ALL_STRATEGIES}
    totals["pss"] = cmp.pss.total_cost
    totals["mab"] = cmp.mab.total_cost
    totals[f"portfolio-x4({','.join(s.token for s in cmp.best4)})"] = cmp.portfolio.total_cost
    best = min(totals.values())
    rows = [
        (label, _fmt(total), f"{total / best:.2f}" if best > 0 else "1.00")
        for label, total in totals.items()
    ]
    print(f"model: {model.name}   {len(cmp.decomposition)} subproblems, "
          f"sample {len(cmp.pss.sample_ids)}")
    print(_table(("method", "total work", "ratio"), rows))
    print(f"pss winner: {cmp.pss.winner.token} (true best: {min(singles, key=singles.get).token})")
    _write_out(args, {
        "model": model.name,
        "singles": {s.token: singles[s] for s in ALL_STRATEGIES},
        "pss": cmp.pss.to_dict(),
        "mab": cmp.mab.to_dict(),
        "portfolio_x4": cmp.portfolio.to_dict(),
    })
    _write_csv(args, _csv_rows(model.name, totals, cmp.pss.winner.token, TimeMode(args.time_mode)))


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()
