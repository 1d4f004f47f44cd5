import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eps_select

from eps_select.benchmarks import nqueens
from eps_select.cli import main

from bruteforce import reference_decomposition


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


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["solve", "decompose", "mab", "portfolio"])
def test_csv_refused_where_no_rows_are_written(command, tmp_path):
    csv_path = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", "nqueens", "--n", "6", "--csv", str(csv_path)])
    assert exc.value.code == 2
    assert not csv_path.exists()


def test_negative_budget_exits_1(capsys):
    assert main(["solve", "--model", "nqueens", "--n", "6", "--budget", "-3"]) == 1
    assert capsys.readouterr().err.startswith("error: budget")


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
    assert doc["pss"]["population"] >= 200
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


def test_mab_command(capsys):
    rc = main(["mab", "--model", "nqueens", "--n", "6", "--target-subproblems", "20"])
    assert rc == 0
    assert "MAB: total=" in capsys.readouterr().out


def test_portfolio_command(capsys):
    rc = main(
        [
            "portfolio",
            "--model", "latin", "--n", "3",
            "--strategies", "ff,mostc",
            "--target-subproblems", "5",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "portfolio[ff,mostc]" in out


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
    assert set(doc["singles"]) == {"ff", "act", "wdegm", "wdegM", "mregret", "mostc", "dwdeg"}
    best = min(doc["singles"].values())
    assert all(v >= best for v in doc["singles"].values())


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


@pytest.mark.parametrize("command", ["compare", "pss"])
@pytest.mark.parametrize("model,n", [("golomb", "7"), ("latin", "4")])
def test_report_independent_of_worker_count_with_and_without_objective(
    tmp_path, capsys, command, model, n
):
    # golomb's pools read the live incumbent and must stay in order; latin's
    # go to worker processes at two and three workers
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
