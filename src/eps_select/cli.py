"""Command line entry point.

Subcommands and the options each takes (any other is a usage error): solve
takes model, --strategy, --budget and --first; decompose model, pool and
sample; pss and compare all four sets. The sets are model (--model or
--json, --n, --maxlen, --out), pool (--workers, --target-subproblems),
sample (--seed, --sample-size) and race (--alpha, --timeout-factor,
--time-mode, --csv). Reports go to stdout as plain tables; ``--out`` writes
the full report as JSON and ``--csv`` appends one row per strategy/mode.
The bandit and portfolio baselines run only inside ``compare``, from the
oracle memo its PSS run reads.
Only the listed option spellings are accepted, never an abbreviation.
Exit codes: 0 success, 1 runtime failure, 2 usage error, 141 (quietly) when
the reader of stdout closes it before the report is written. EPS_SELECT_LOG
sets the log level, one of DEBUG, INFO, WARNING, ERROR and CRITICAL in any
case; any other value is a usage error. The log records are INFO lines:
``compare``'s one per single strategy, with its total, and one per
work-mode ``pss`` or ``compare`` run with its subproblems and distinct roots
(see :class:`~eps_select.selection.ModelOracle`).
"""

from __future__ import annotations

import argparse
import csv as _csv
import json
import logging
import math
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
from .strategies import ALL_STRATEGIES, StrategyId, parse_strategy

log = logging.getLogger("eps_select")

# the exit code when the reader of stdout closes it early: 128 + SIGPIPE, as a
# shell reports a command that a broken pipe stopped
EXIT_BROKEN_PIPE = 141


def build_parser() -> argparse.ArgumentParser:
    # no parser takes an abbreviated option: only the listed spellings parse
    ap = argparse.ArgumentParser(
        prog="eps-select",
        description="Strategy selection for embarrassingly parallel constraint search",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    model = argparse.ArgumentParser(add_help=False)
    source = model.add_mutually_exclusive_group()
    source.add_argument("--model", help="builtin model name: " + ", ".join(sorted(GENERATORS)))
    model.add_argument("--n", type=int, help="size parameter for builtin models")
    model.add_argument("--maxlen", type=int, help="ruler length cap (golomb only)")
    source.add_argument("--json", dest="json_path", help="path to a JSON model file")
    model.add_argument("--out", help="write the JSON report here")
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--workers", type=int, default=1)
    pool.add_argument("--target-subproblems", type=int, default=None)
    sample = argparse.ArgumentParser(add_help=False)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--sample-size", type=int, default=None)
    race = argparse.ArgumentParser(add_help=False)
    race.add_argument("--alpha", type=float, default=0.01)
    race.add_argument("--timeout-factor", type=float, default=2.0)
    race.add_argument("--time-mode", choices=["work", "wall"], default="work")
    race.add_argument("--csv", dest="csv_path", help="append per-strategy rows here")

    p = sub.add_parser("solve", parents=[model], allow_abbrev=False,
                       help="solve with a single strategy")
    p.add_argument("--strategy", default="ff")
    p.add_argument("--budget", type=int, default=None, help="work-unit budget")
    p.add_argument("--first", action="store_true", help="stop at the first solution")
    sub.add_parser("decompose", parents=[model, pool, sample], allow_abbrev=False,
                   help="dump the subproblem decomposition")
    everything = [model, pool, sample, race]
    sub.add_parser("pss", parents=everything, allow_abbrev=False,
                   help="parallel strategy selection run")
    sub.add_parser("compare", parents=everything, allow_abbrev=False,
                   help="all single strategies + pss + mab + portfolio-x4")
    return ap


def _load_model(args) -> Model:
    if args.json_path:
        if args.n is not None or args.maxlen is not None:
            raise ValueError("--n and --maxlen size a builtin --model, not a --json model")
        return load_json(args.json_path)
    if not args.model:
        raise ModelFormatError("either --model or --json is required")
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.maxlen is not None:
        params["maxlen"] = args.maxlen
    return generate(args.model, **params)


def _decomposition(args) -> DecompositionConfig:
    return DecompositionConfig(target_count=args.target_subproblems, worker_count=args.workers)


def _configs(args) -> PssConfig:
    return PssConfig(
        decomposition=_decomposition(args),
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
    if not math.isfinite(x):  # int() of inf or nan raises
        return str(x)
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

    This is the only driver of the bandit and portfolio baselines: they are
    charged from the memo that PSS reads, never from a run of their own.
    Each single strategy solves every subproblem in its own task pool, one
    pool per strategy in ``ALL_STRATEGIES`` order (in worker processes on a
    satisfaction model with more than one worker), which runs each twin
    class once (see :class:`~eps_select.selection.ModelOracle`) and still
    returns one result per subproblem; PSS, the bandit and the
    portfolio then read the same oracle cache through oracles over all
    strategies, so on an optimization model all three start from the same
    warm-start incumbent and pay the same warm-start cost. The portfolio's
    arms are ``best4``. A failed task raises
    :class:`~eps_select.runner.TaskFailed`.
    """
    time_mode = cfg.race.time_mode
    decomp = decompose(model, cfg.decomposition)
    cache: dict = {}

    def oracle() -> ModelOracle:
        return ModelOracle(model, decomp.subproblems, time_mode=time_mode, shared_cache=cache)

    # on an optimization model every solve reads and raises the live
    # incumbent, so the singles run in order in this process
    satisfaction = model.objective is None
    singles: dict[StrategyId, float] = {}
    for sid in ALL_STRATEGIES:
        single = oracle()
        results, _ = run_pool(
            single.sub_ids,
            cfg.decomposition.worker_count,
            lambda sub: single.full(sub, sid),
            cost_fn=lambda obs: obs.value,
            processes=satisfaction,
            key=single.twin,
        )
        raise_failures(results)
        if satisfaction:  # PSS, the bandit and the portfolio read these
            for r in results:
                single.remember(r.task, sid, r.result)
        singles[sid] = sum(r.result.value for r in results)
        log.info("single %s total=%s", sid.token, singles[sid])

    pss = pss_select(model, cfg, oracle=oracle(), decomposition=decomp)
    mab = mab_on_oracle(oracle())
    best4 = tuple(sorted(ALL_STRATEGIES, key=singles.get)[:4])
    portfolio = portfolio_on_oracle(oracle(), best4)
    return Comparison(model, decomp, cache, singles, pss, mab, portfolio, best4)


def _print_selection_report(model: Model, rep: SelectionReport) -> None:
    print(f"model: {model.name}   population: {rep.population} subproblems "
          f"(prefix {rep.prefix_len}), sample: {len(rep.sample_ids)} (seed {rep.sample_seed}, "
          f"{100 * rep.sample_share:.1f} % of {rep.population})")
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
    print(f"winner: {rep.winner.token}")
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
    levels = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
    level = os.environ.get("EPS_SELECT_LOG", "WARNING")
    if level.upper() not in levels:
        print(f"error: EPS_SELECT_LOG={level!r} is not a log level; "
              f"use one of {', '.join(levels)} (in any case)", file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper())
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: stop without a word, and point stdout
        # at devnull so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ModelFormatError, InconsistentProblem, ValueError, OSError, TaskFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    model = _load_model(args)

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
        cfg = PssConfig(
            decomposition=_decomposition(args),
            race=RaceConfig(sample_seed=args.seed),
            sample_size=args.sample_size,
        )
        decomp = decompose(model, cfg.decomposition)
        sample = srs_sample(len(decomp), cfg.sample_size_for(len(decomp)), cfg.race.sample_seed)
        print(
            f"{model.name}: {len(decomp)} subproblems at prefix {decomp.prefix_len}"
            + (" (shortfall)" if decomp.shortfall else "")
            + f"; sample rule gives {len(sample)}"
        )
        payload = {
            "model": model.name,
            "count": len(decomp),
            "prefix_len": decomp.prefix_len,
            "shortfall": decomp.shortfall,
            "sample": sample,
            "subproblems": [
                {"id": s.id, "assignment": [[model.names[v], val] for v, val in s.assignment]}
                for s in decomp.subproblems
            ],
        }
        _write_out(args, payload)
        return 0

    if args.command == "pss":
        cfg = _configs(args)
        rep = pss_select(model, cfg)
        _print_selection_report(model, rep)
        _write_out(args, {"model": model.name, "pss": rep.to_dict()})
        totals = {s.token: rep.sample_totals[s] for s in rep.strategies}
        _write_csv(args, _csv_rows(model.name, totals, rep.winner.token, cfg.race.time_mode,
                                   {s.token: c for s, c in rep.race_censored_counts.items()}))
        return 0

    if args.command == "compare":
        _print_comparison(args, compare(model, _configs(args)))
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
    rep = cmp.pss
    time_mode = TimeMode(args.time_mode)
    print(f"model: {model.name}   {rep.population} subproblems, sample {len(rep.sample_ids)} "
          f"({100 * rep.sample_share:.1f} % of {rep.population})")
    unit = "work" if time_mode is TimeMode.WORK else "ms"
    print(_table(("method", f"total {unit}", "ratio"), rows))
    print(f"pss winner: {cmp.pss.winner.token} (true best: {min(singles, key=singles.get).token})")
    _write_out(args, {
        "model": model.name,
        "singles": {s.token: singles[s] for s in ALL_STRATEGIES},
        "pss": cmp.pss.to_dict(),
        "mab": cmp.mab.to_dict(),
        "portfolio_x4": cmp.portfolio.to_dict(),
    })
    _write_csv(args, _csv_rows(model.name, totals, cmp.pss.winner.token, time_mode))


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()
