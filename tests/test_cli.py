import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eps_select

from eps_select.benchmarks import nqueens
from eps_select.cli import main

from bruteforce import reference_decomposition
from conftest import all_reaped, fork_only


def test_solve_nqueens(capsys):
    assert main(["solve", "--model", "nqueens", "--n", "6", "--strategy", "ff"]) == 0
    out = capsys.readouterr().out
    assert "solutions=4" in out


def test_solve_unknown_strategy(capsys):
    assert main(["solve", "--model", "nqueens", "--n", "6", "--strategy", "nope"]) == 1
    assert "unknown strategy" in capsys.readouterr().err


def test_unknown_model_is_runtime_error(capsys):
    assert main(["solve", "--model", "sudoku", "--n", "3"]) == 1
    assert "unknown builtin" in capsys.readouterr().err


def test_builtin_model_past_the_declared_values_cap_exits_1(capsys):
    assert main(["solve", "--model", "golomb", "--n", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model 'golomb-100': the variables declare 50490001 domain values")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["verbose", "10", "", "warn"])
def test_unknown_log_level_is_a_usage_error(monkeypatch, capsys, value):
    # refused before any model is built, with one line naming the variable
    from eps_select import cli

    monkeypatch.setattr(cli, "_load_model", lambda args: pytest.fail("model built"))
    monkeypatch.setenv("EPS_SELECT_LOG", value)
    assert main(["solve", "--model", "nqueens", "--n", "4"]) == 2
    assert capsys.readouterr().err == (
        f"error: EPS_SELECT_LOG={value!r} is not a log level; "
        "use one of DEBUG, INFO, WARNING, ERROR, CRITICAL (in any case)\n"
    )


def test_log_level_names_are_accepted_in_any_case(monkeypatch, capsys):
    for value in ("info", "Warning", "ERROR"):
        monkeypatch.setenv("EPS_SELECT_LOG", value)
        assert main(["solve", "--model", "nqueens", "--n", "4"]) == 0
    assert capsys.readouterr().out.count("nqueens-4 [ff]") == 3


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus-flag"])
    assert exc.value.code == 2


# the options each subcommand reads besides the model set (--model, --n,
# --maxlen, --json, --out), and a valid value for every option
_POOL = ("--workers", "--target-subproblems")
_PSS = (*_POOL, "--seed", "--sample-size", "--alpha", "--timeout-factor", "--time-mode", "--csv")
_READS = {
    "solve": ("--strategy", "--budget", "--first"),
    "decompose": (*_POOL, "--seed", "--sample-size"),
    "pss": _PSS,
    "compare": _PSS,
}
_VALUES = {
    "--workers": "2", "--target-subproblems": "10", "--seed": "5", "--sample-size": "5",
    "--alpha": "0.05", "--timeout-factor": "3", "--time-mode": "wall", "--csv": "rows.csv",
    "--strategy": "ff", "--budget": "10", "--first": None,
}


@pytest.mark.parametrize("command", list(_READS))
def test_csv_refused_where_no_rows_are_written(command, tmp_path, monkeypatch):
    # --csv, like every other option the subcommand does not read, is a
    # usage error before any file is written or any work is done
    import eps_select.cli as cli_module

    calls = []
    for name in ("decompose", "pss_select", "compare", "solve"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    unread = [o for o in _VALUES if o not in _READS[command]]
    assert ("--csv" in unread) == (command not in ("pss", "compare"))
    for option in unread:
        value = [] if _VALUES[option] is None else [_VALUES[option]]
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "nqueens", "--n", "6", "--out", "report.json",
                  option, *value])
        assert exc.value.code == 2, option
    assert list(tmp_path.iterdir()) == []
    assert calls == []


@pytest.mark.parametrize("command", list(_READS))
def test_help_lists_the_options_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z-]+", capsys.readouterr().out))
    model = {"--model", "--n", "--maxlen", "--json", "--out"}
    assert listed == {"--help", *model, *_READS[command]}


@pytest.mark.parametrize("command", list(_READS))
def test_abbreviated_options_are_usage_errors(command, tmp_path, monkeypatch):
    # an option that only begins a listed one is refused like any other
    # unlisted option, before any file is written or any work is done
    import eps_select.cli as cli_module

    calls = []
    for name in ("decompose", "pss_select", "compare", "solve"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    values = {**_VALUES, "--model": "nqueens", "--maxlen": "5", "--json": "m.json",
              "--out": "report.json"}
    for option in ("--model", "--maxlen", "--json", "--out", *_READS[command]):
        value = [] if values[option] is None else [values[option]]
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "nqueens", "--n", "6", option[:-1], *value])
        assert exc.value.code == 2, option
    assert list(tmp_path.iterdir()) == []
    assert calls == []


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly():
    from eps_select.cli import EXIT_BROKEN_PIPE

    src = str(Path(eps_select.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eps_select.cli", "pss", "--model", "nqueens", "--n", "6",
             "--target-subproblems", "10", "--sample-size", "5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == EXIT_BROKEN_PIPE


def test_model_and_json_are_exclusive(tmp_path, capsys):
    from eps_select.modelio import save_json

    p = tmp_path / "q6.json"
    save_json(nqueens(6), p)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", "nqueens", "--json", str(p)])
    assert exc.value.code == 2
    assert "not allowed with argument --model" in capsys.readouterr().err
    for size in (["--n", "8"], ["--maxlen", "20"]):
        assert main(["solve", "--json", str(p), *size]) == 1
        assert capsys.readouterr().err == (
            "error: --n and --maxlen size a builtin --model, not a --json model\n"
        )


@pytest.mark.parametrize("mode,header", [("work", "total work"), ("wall", "total ms")])
def test_compare_heads_its_totals_with_the_time_mode(mode, header, capsys):
    rc = main(["compare", "--model", "nqueens", "--n", "6", "--target-subproblems", "10",
               "--time-mode", mode])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["method", *header.split(), "ratio"]


def test_negative_budget_exits_1(capsys):
    assert main(["solve", "--model", "nqueens", "--n", "6", "--budget", "-3"]) == 1
    assert capsys.readouterr().err.startswith("error: budget")


@pytest.mark.parametrize("command", ["mab", "portfolio"])
def test_baselines_run_only_inside_compare(command, tmp_path, monkeypatch):
    # the bandit and the portfolio have no subcommand of their own: asking
    # for one is a usage error before any file is written or any work is done
    import eps_select.cli as cli_module

    calls = []
    for name in ("decompose", "mab_on_oracle", "portfolio_on_oracle"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", "nqueens", "--n", "6", "--out", "report.json"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    assert calls == []


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_decompose_report(tmp_path, capsys):
    out_path = tmp_path / "decomp.json"
    rc = main(
        [
            "decompose",
            "--model", "nqueens", "--n", "6",
            "--target-subproblems", "10",
            "--out", str(out_path),
        ]
    )
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["count"] >= 10
    assert doc["subproblems"][0]["assignment"]


def test_pss_end_to_end_json_and_csv(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "rows.csv"
    rc = main(
        [
            "pss",
            "--model", "allinterval", "--n", "8",
            "--target-subproblems", "200",
            "--sample-size", "30",
            "--seed", "7",
            "--alpha", "0.05",
            "--out", str(out_path),
            "--csv", str(csv_path),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "winner:" in stdout
    doc = json.loads(out_path.read_text())
    assert doc["pss"]["winner"] in {"ff", "act", "wdegm", "wdegM", "mregret", "mostc", "dwdeg"}
    population = doc["pss"]["population"]
    assert population >= 200
    assert doc["pss"]["sample_share"] == 30 / population
    assert f"sample: 30 (seed 7, {3000 / population:.1f} % of {population})" in stdout.splitlines()[0]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("problem,strategy_or_mode,total_work")
    assert len(lines) == 1 + 7


def test_wall_mode_csv_rows_hold_milliseconds(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    out_path = tmp_path / "report.json"
    rc = main(
        [
            "pss",
            "--model", "nqueens", "--n", "6",
            "--target-subproblems", "15",
            "--sample-size", "10",
            "--time-mode", "wall",
            "--csv", str(csv_path),
            "--out", str(out_path),
        ]
    )
    assert rc == 0
    # wall-clock runs stopped at a limit have no known full cost
    assert json.loads(out_path.read_text())["pss"]["race_cost_without_timeouts"] is None
    assert "without timeouts it would be unknown;" in capsys.readouterr().out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "problem,strategy_or_mode,total_work,wall_ms,ratio,censored_count,winner_flag"
    rows = list(csv.DictReader(lines))
    assert len(rows) == 7
    for row in rows:
        assert row["total_work"] == ""
        assert float(row["wall_ms"]) > 0
    assert sum(int(row["winner_flag"]) for row in rows) == 1


def test_compare_command(tmp_path, capsys):
    out_path = tmp_path / "cmp.json"
    rc = main(
        [
            "compare",
            "--model", "nqueens", "--n", "6",
            "--target-subproblems", "15",
            "--sample-size", "10",
            "--out", str(out_path),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "pss winner:" in stdout
    doc = json.loads(out_path.read_text())
    population = doc["pss"]["population"]
    assert stdout.splitlines()[0] == (
        f"model: nqueens-6   {population} subproblems, sample 10 "
        f"({1000 / population:.1f} % of {population})"
    )
    assert set(doc["singles"]) == {"ff", "act", "wdegm", "wdegM", "mregret", "mostc", "dwdeg"}
    best = min(doc["singles"].values())
    assert all(v >= best for v in doc["singles"].values())


def test_compare_methods_start_from_one_warm_start():
    # PSS, the bandit and the portfolio read one oracle memo over all seven
    # strategies, so on an optimization model they start from the same
    # incumbent and pay the same warm start; the portfolio's arms are best4
    from eps_select.benchmarks import golomb
    from eps_select.cli import compare
    from eps_select.decomposition import DecompositionConfig
    from eps_select.selection import PssConfig

    cfg = PssConfig(decomposition=DecompositionConfig(target_count=200), sample_size=30)
    cmp = compare(golomb(7), cfg)
    warm = cmp.pss.warm_start_cost
    assert warm > 0
    assert cmp.mab.warm_start_cost == warm
    assert cmp.portfolio.warm_start_cost == warm
    assert tuple(cmp.portfolio.per_strategy) == cmp.best4
    assert cmp.portfolio.total_cost == sum(cmp.portfolio.per_strategy.values()) + warm


def test_compare_report_independent_of_worker_count(tmp_path, capsys):
    reports = []
    for workers in ("1", "2"):
        out_path = tmp_path / f"cmp-{workers}.json"
        rc = main(
            [
                "compare",
                "--model", "nqueens", "--n", "6",
                "--target-subproblems", "15",
                "--sample-size", "10",
                "--workers", workers,
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        reports.append(out_path.read_text())
    assert reports[0] == reports[1]


@fork_only
def test_compare_reads_the_memoized_remainder_in_process(forks, monkeypatch):
    # the singles fill the memo, so PSS makes no pool: its race and its
    # remainder read the memo in this process
    from eps_select import selection

    pools = []
    monkeypatch.setattr(selection, "run_pool", lambda *a, **k: pools.append(a))
    assert main(["compare", "--model", "nqueens", "--n", "8", "--workers", "2"]) == 0
    assert pools == []
    # one pool per single strategy: this process and one forked worker
    assert len(forks) == 7
    assert all_reaped(forks)


@fork_only
def test_compare_where_every_root_is_one_twin_forks_no_single(forks, tmp_path, capsys):
    # latin(4) cut to its 576 solutions: every root is fixed, so all are
    # twins, each single strategy runs once in this process, and the report
    # is the one-worker report
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"cmp-{workers}.json"
        assert main(["compare", "--model", "latin", "--n", "4", "--target-subproblems",
                     "3000", "--workers", workers, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert forks == []
    assert reports[0] == reports[1]
    assert reports[0]["pss"]["population"] == 576
    assert reports[0]["pss"]["solutions_found"] == 576
    assert set(reports[0]["singles"].values()) == {0}


def test_work_mode_runs_log_subproblems_against_distinct_roots(tmp_path, capsys, caplog):
    # one INFO line per work-mode pss and compare run; stdout and --out do not
    # depend on it
    argv = ["--model", "latin", "--n", "4", "--target-subproblems", "100"]
    lines = {}
    for command in ("pss", "compare"):
        with caplog.at_level("INFO", logger="eps_select"):
            assert main([command] + argv) == 0
        lines[command] = [r.getMessage() for r in caplog.records if "distinct roots" in r.getMessage()]
        caplog.clear()
    assert lines["pss"] == lines["compare"] == ["latin-4: 168 subproblems, 102 distinct roots"]
    with caplog.at_level("INFO", logger="eps_select"):
        assert main(["pss", "--time-mode", "wall"] + argv) == 0
    assert not [r for r in caplog.records if "distinct roots" in r.getMessage()]


@pytest.mark.parametrize("command", ["compare", "pss"])
@pytest.mark.parametrize("model,n", [("golomb", "7"), ("latin", "4"), ("nqueens", "8")])
def test_report_independent_of_worker_count_with_and_without_objective(
    tmp_path, capsys, command, model, n
):
    # golomb's pools read the live incumbent and must stay in order; latin's
    # and nqueens' go to worker processes at two and three workers (pss's
    # sample race among them)
    reports = []
    for workers in ("1", "2", "3"):
        out_path = tmp_path / f"{command}-{workers}.json"
        rc = main(
            [
                command,
                "--model", model, "--n", n,
                "--target-subproblems", "100",
                "--sample-size", "10",
                "--workers", workers,
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        reports.append(out_path.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_decompose_report_matches_reference_at_any_worker_count(tmp_path, capsys):
    m = nqueens(8)
    prefixes, depth = reference_decomposition(m, 100)
    expected = [[[m.names[v], val] for v, val in p] for p in prefixes]
    docs = []
    for workers in ("1", "2"):
        out_path = tmp_path / f"decomp-{workers}.json"
        rc = main(
            [
                "decompose",
                "--model", "nqueens", "--n", "8",
                "--target-subproblems", "100",
                "--workers", workers,
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        docs.append(json.loads(out_path.read_text()))
    for doc in docs:
        assert [s["assignment"] for s in doc["subproblems"]] == expected
        assert [s["id"] for s in doc["subproblems"]] == list(range(len(expected)))
        assert doc["prefix_len"] == depth
    assert docs[0]["subproblems"] == docs[1]["subproblems"]


def test_failed_subproblem_exits_1(monkeypatch, capsys):
    import eps_select.cli as cli_module

    class BrokenOracle(cli_module.ModelOracle):
        def full(self, sub, *args):
            if sub == 3:
                raise RuntimeError("solver crashed")
            return super().full(sub, *args)

    monkeypatch.setattr(cli_module, "ModelOracle", BrokenOracle)
    rc = main(["compare", "--model", "nqueens", "--n", "6", "--target-subproblems", "15"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "solver crashed" in err


def test_bad_worker_count_rejected_before_any_work(monkeypatch, capsys):
    import eps_select.cli as cli_module

    calls = []
    monkeypatch.setattr(cli_module, "pss_select", lambda *a, **k: calls.append(a))
    for target in (["--target-subproblems", "3000"], []):
        rc = main(["pss", "--model", "latin", "--n", "5", "--workers", "0", *target])
        assert rc == 1
        assert "worker_count must be >= 1" in capsys.readouterr().err
    assert calls == []


def test_json_model_input(tmp_path, capsys):
    from eps_select.benchmarks import nqueens
    from eps_select.modelio import save_json

    p = tmp_path / "q6.json"
    save_json(nqueens(6), p)
    rc = main(["solve", "--json", str(p), "--strategy", "mostc"])
    assert rc == 0
    assert "solutions=4" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "pss"])
def test_inconsistent_model_names_the_model(command, capsys):
    # golomb(5) needs a ruler of length 11; maxlen 2 fails before any assignment
    assert main([command, "--model", "golomb", "--n", "5", "--maxlen", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: model 'golomb-5' is inconsistent: propagation at the root fails\n"
    )


def test_golomb_two_marks_is_solved(capsys):
    # with two marks the first difference is the last one, so the
    # mirror-symmetry break (first < last) would refute the model at the root
    assert main(["solve", "--model", "golomb", "--n", "2"]) == 0
    assert " objective=1 " in capsys.readouterr().out
    assert main(["pss", "--model", "golomb", "--n", "2"]) == 0
    assert "best objective: 1\n" in capsys.readouterr().out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_unsatisfiable_model_with_consistent_root_reports_no_solutions(workers, capsys):
    # nqueens(3): no value of q0 survives propagation, so decompose keeps
    # the root as its one subproblem
    assert main(["pss", "--model", "nqueens", "--n", "3", "--workers", workers]) == 0
    out = capsys.readouterr().out
    assert "population: 1 subproblems (prefix 0)" in out
    assert "solutions: 0" in out


def test_degenerate_json_constraint_exits_1(tmp_path, capsys):
    p = tmp_path / "repeat.json"
    p.write_text(json.dumps({
        "name": "repeat",
        "variables": [{"id": "x", "domain": [1, 2]}, {"id": "y", "domain": [1, 2]}],
        "constraints": [{"kind": "all_different", "vars": ["x", "y", "x"]}],
    }))
    assert main(["solve", "--json", str(p)]) == 1
    assert "constraint #0 (all_different): vars repeat a variable" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "pss"])
def test_zero_coefficient_json_exits_1(command, tmp_path, capsys):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({
        "name": "zero",
        "variables": [{"id": "x", "domain": [0, 3]}, {"id": "y", "domain": [0, 3]}],
        "constraints": [{"kind": "linear_le", "coeffs": [0, 1], "vars": ["x", "y"], "rhs": 2}],
    }))
    assert main([command, "--json", str(p)]) == 1
    assert capsys.readouterr().err == "error: constraint #0: variable 'x' has coefficient 0\n"


def test_model_or_json_required(capsys):
    assert main(["solve", "--strategy", "ff"]) == 1
    assert "either --model or --json" in capsys.readouterr().err


def test_import_loads_no_scipy_or_numpy():
    src = str(Path(eps_select.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, eps_select, eps_select.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numpy'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_pool_machinery():
    # pickle, selectors and multiprocessing are for worker processes only
    src = str(Path(eps_select.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, eps_select, eps_select.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'pickle', '_pickle', 'selectors', 'multiprocessing'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_malformed_json_model_exits_1_with_error_line(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"variables": ["x"]}))
    assert main(["solve", "--json", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "variable #0 must be a JSON object" in err


def test_deeply_nested_json_model_exits_1_with_error_line(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    assert main(["pss", "--json", str(p)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {p}: malformed JSON: nested too deeply\n"


def test_empty_sample_rejected_before_any_work(monkeypatch, capsys):
    import eps_select.cli as cli_module

    calls = []
    monkeypatch.setattr(cli_module, "pss_select", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli_module, "decompose", lambda *a, **k: calls.append(a))
    for command in ("pss", "decompose"):
        rc = main([command, "--model", "nqueens", "--n", "6", "--target-subproblems", "15",
                   "--sample-size", "0"])
        assert rc == 1
        assert "sample_size must be >= 1" in capsys.readouterr().err
    assert calls == []


def test_non_finite_timeout_factor_rejected_before_any_work(monkeypatch, capsys):
    import eps_select.cli as cli_module

    calls = []
    monkeypatch.setattr(cli_module, "pss_select", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli_module, "decompose", lambda *a, **k: calls.append(a))
    for factor in ("nan", "inf", "-inf"):
        rc = main(["pss", "--model", "nqueens", "--n", "6", "--target-subproblems", "15",
                   "--sample-size", "10", f"--timeout-factor={factor}"])
        assert rc == 1
        assert "timeout_factor must be finite and > 1" in capsys.readouterr().err
    assert calls == []


def test_fmt_prints_non_finite_values():
    from eps_select.cli import _fmt

    assert [_fmt(x) for x in (float("inf"), float("-inf"), float("nan"))] == ["inf", "-inf", "nan"]
    assert (_fmt(3.0), _fmt(2.5)) == ("3", "2.50")


def test_huge_timeout_factor_prints_an_infinite_bound(capsys):
    # finite and valid, but the race-cost bound overflows to inf
    rc = main(["pss", "--model", "nqueens", "--n", "6", "--target-subproblems", "15",
               "--sample-size", "10", "--timeout-factor", "1e308"])
    assert rc == 0
    assert "<= bound inf;" in capsys.readouterr().out
