import json

import pytest

import tracemalloc

from eps_select.benchmarks import allinterval, generate, golomb, latin, magicsquare, nqueens
from eps_select import modelio
from eps_select.csp import (
    MAX_DOMAIN_VALUES,
    MAX_DOMAIN_WIDTH,
    AllDifferent,
    Model,
    NotEqual,
    VariableDecl,
    var_range,
)
from eps_select.modelio import (
    ModelFormatError,
    load_json,
    model_from_dict,
    model_to_dict,
    save_json,
)
from eps_select.search import count_all

from bruteforce import allinterval_count, brute_count, golomb_optimum


def test_allinterval_counts_match_permutation_oracle():
    for n in (4, 5, 6):
        assert count_all(allinterval(n)).solutions_found == allinterval_count(n)


def test_nqueens_counts():
    assert count_all(nqueens(1)).solutions_found == 1
    assert count_all(nqueens(2)).solutions_found == 0
    assert count_all(nqueens(5)).solutions_found == 10
    assert count_all(nqueens(6)).solutions_found == brute_count(nqueens(6))


def test_golomb_optima_match_enumeration_oracle():
    assert count_all(golomb(4, maxlen=12)).best_objective == golomb_optimum(4, 12) == 6
    assert count_all(golomb(5, maxlen=15)).best_objective == golomb_optimum(5, 15) == 11


def test_magicsquare_counts():
    assert count_all(magicsquare(3)).solutions_found == 8
    assert count_all(magicsquare(2)).solutions_found == 0


def test_latin_counts():
    assert count_all(latin(2)).solutions_found == 2
    assert count_all(latin(3)).solutions_found == 12
    assert count_all(latin(4)).solutions_found == 576


def test_generate_dispatch_and_errors():
    m = generate("nqueens", n=5)
    assert m.name == "nqueens-5"
    with pytest.raises(ValueError):
        generate("unknown-model", n=3)
    with pytest.raises(ValueError):
        generate("nqueens", bogus=1)
    with pytest.raises(ValueError):
        generate("allinterval", n=1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: nqueens(6),
        lambda: allinterval(5),
        lambda: latin(3),
        lambda: magicsquare(3),
        lambda: golomb(4, maxlen=12),
    ],
)
def test_json_roundtrip_preserves_outcomes(build, tmp_path):
    m = build()
    path = tmp_path / "model.json"
    save_json(m, path)
    m2 = load_json(path)
    assert m2.name == m.name
    a = count_all(m)
    b = count_all(m2)
    assert a.solutions_found == b.solutions_found
    assert a.best_objective == b.best_objective
    assert a.work_used == b.work_used


def test_load_minimal_single_variable(tmp_path):
    doc = {"name": "one", "variables": [{"id": "x", "domain": [1, 3]}]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    m = load_json(p)
    assert count_all(m).solutions_found == 3


def test_domain_forms():
    m = model_from_dict(
        {
            "name": "forms",
            "variables": [
                {"id": "a", "domain": [1, 4]},
                {"id": "b", "domain": [1, 4, 9]},
                {"id": "c", "domain": {"values": [2, 5]}},
            ],
        }
    )
    assert m.variables[0].values == (1, 2, 3, 4)
    assert m.variables[1].values == (1, 4, 9)
    assert m.variables[2].values == (2, 5)


def test_noncontiguous_pair_roundtrips_via_values_form():
    doc = model_to_dict(
        model_from_dict(
            {"name": "m", "variables": [{"id": "a", "domain": {"values": [2, 5]}}]}
        )
    )
    assert doc["variables"][0]["domain"] == {"values": [2, 5]}


def test_dangling_reference_names_the_id():
    doc = {
        "name": "bad",
        "variables": [{"id": "x", "domain": [0, 1]}],
        "constraints": [{"kind": "all_different", "vars": ["x", "ghost"]}],
    }
    with pytest.raises(ModelFormatError, match="ghost"):
        model_from_dict(doc)


def test_unknown_kind_rejected():
    doc = {
        "name": "bad",
        "variables": [{"id": "x", "domain": [0, 1]}],
        "constraints": [{"kind": "regular", "vars": ["x"]}],
    }
    with pytest.raises(ModelFormatError, match="regular"):
        model_from_dict(doc)


_X = {"id": "x", "domain": [0, 3]}
_Y = {"id": "y", "domain": [0, 3]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"variables": ["x"]}, "variable #0 must be a JSON object"),
        ({"variables": [_X], "constraints": ["all_different"]}, "constraint #0 must be a JSON object"),
        ({"variables": [_X], "constraints": {"kind": "all_different"}}, "'constraints' must be a list"),
        ({"variables": [_X], "objective": "x"}, "'objective' must be a JSON object"),
        (
            {"variables": [_X], "constraints": [{"kind": "all_different", "vars": "x"}]},
            "vars must be a list",
        ),
        (
            {"variables": [_X], "constraints": [{"kind": "all_different", "vars": [["x"]]}]},
            "undeclared variable",
        ),
    ],
    ids=["variable", "constraint", "constraints", "objective", "vars", "unhashable-ref"],
)
def test_non_object_or_non_list_entries_rejected(doc, message):
    with pytest.raises(ModelFormatError, match=message):
        model_from_dict(doc)


def _linear(**fields):
    con = {"kind": "linear_le", "coeffs": [1, 1], "vars": ["x", "y"], "rhs": 3, **fields}
    return {"variables": [_X, _Y], "constraints": [con]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"variables": [{"id": "x", "domain": [True, 3]}]}, "domain values must be integers"),
        ({"variables": [{"id": "x", "domain": {"values": [False, 2]}}]}, "domain values must be integers"),
        (_linear(coeffs=[1.5, 1]), "coeffs must be integers"),
        (_linear(coeffs=[True, 1]), "coeffs must be integers"),
        (_linear(rhs=True), "rhs must be an integer"),
        (
            {"variables": [_X, _Y],
             "constraints": [{"kind": "not_equal", "x": "x", "y": "y", "offset": False}]},
            "offset must be an integer",
        ),
    ],
    ids=["range-bool", "values-bool", "coeff-float", "coeff-bool", "rhs-bool", "offset-bool"],
)
def test_non_integer_numbers_rejected(doc, message):
    with pytest.raises(ModelFormatError, match=message):
        model_from_dict(doc)


def test_malformed_json_reports_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"name": "x", ')
    with pytest.raises(ModelFormatError, match="line"):
        load_json(p)


def test_empty_domain_rejected():
    with pytest.raises(ModelFormatError):
        model_from_dict({"name": "m", "variables": [{"id": "x", "domain": [5, 1]}]})


def test_range_just_above_width_cap_refused_before_building():
    doc = {"name": "wide", "variables": [{"id": "x", "domain": [0, MAX_DOMAIN_WIDTH]}]}
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError, match="MAX_DOMAIN_WIDTH"):
            model_from_dict(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the refused range would be a tuple of 65537 ints (over 2 MB)
    assert peak < 100_000
    with pytest.raises(ValueError, match="MAX_DOMAIN_WIDTH"):
        var_range("x", 0, MAX_DOMAIN_WIDTH)


def test_singletons_just_above_width_cap_refused():
    # two one-value domains still make every mask as wide as their span
    far = [VariableDecl("a", (0,)), VariableDecl("b", (MAX_DOMAIN_WIDTH,))]
    with pytest.raises(ValueError, match="MAX_DOMAIN_WIDTH"):
        Model("far", far, [])
    doc = {
        "name": "far",
        "variables": [
            {"id": "a", "domain": {"values": [0]}},
            {"id": "b", "domain": {"values": [MAX_DOMAIN_WIDTH]}},
        ],
    }
    with pytest.raises(ModelFormatError, match="MAX_DOMAIN_WIDTH"):
        model_from_dict(doc)


def test_models_exactly_at_width_cap_accepted():
    m = model_from_dict(
        {"name": "cap", "variables": [{"id": "x", "domain": [0, MAX_DOMAIN_WIDTH - 1]}]}
    )
    assert len(m.variables[0].values) == MAX_DOMAIN_WIDTH
    m = Model("cap", [VariableDecl("a", (0,)), VariableDecl("b", (MAX_DOMAIN_WIDTH - 1,))], [])
    assert m.ubits == MAX_DOMAIN_WIDTH
    assert count_all(m).solutions_found == 1


def test_too_many_declared_values_refused_before_building():
    # seventeen variables over the widest span: a document of some 700 bytes
    # that declares 1 114 112 values
    wide = MAX_DOMAIN_VALUES // MAX_DOMAIN_WIDTH + 1
    doc = {
        "name": "many",
        "variables": [{"id": f"x{i}", "domain": [0, MAX_DOMAIN_WIDTH - 1]} for i in range(wide)],
    }
    assert len(json.dumps(doc)) < 1000
    tracemalloc.start()
    try:
        with pytest.raises(
            ModelFormatError,
            match=f"declare {wide * MAX_DOMAIN_WIDTH} domain values, more than "
            f"MAX_DOMAIN_VALUES={MAX_DOMAIN_VALUES}$",
        ):
            model_from_dict(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the refused domains would hold over a million ints (about 40 MB)
    assert peak < 100_000


def test_declared_values_cap_counts_ranges_and_value_lists(monkeypatch):
    # a range counts its width, a value list its length: ten values in all
    # sit at a cap of 10, and one more is refused
    monkeypatch.setattr(modelio, "MAX_DOMAIN_VALUES", 10)
    doc = {
        "name": "capped",
        "variables": [
            {"id": "x", "domain": [0, 4]},
            {"id": "y", "domain": [1, 3, 5]},
            {"id": "z", "domain": {"values": [2, 7]}},
        ],
    }
    assert sum(len(v.values) for v in model_from_dict(doc).variables) == 10
    doc["variables"].append({"id": "w", "domain": {"values": [0]}})
    with pytest.raises(ModelFormatError, match="declare 11 domain values.*=10$"):
        model_from_dict(doc)


@pytest.mark.parametrize("gen, sizes", [
    (allinterval, [(2,), (5,), (9,)]),
    (nqueens, [(1,), (4,), (8,)]),
    (golomb, [(2,), (3,), (5, 15), (6,)]),
    (magicsquare, [(1,), (3,), (4,)]),
    (latin, [(1,), (3,), (5,)]),
])
def test_generators_check_the_values_they_declare(monkeypatch, gen, sizes):
    from eps_select import benchmarks

    checked = []
    monkeypatch.setattr(
        benchmarks, "check_declared_values", lambda what, count: checked.append(count)
    )
    for args in sizes:
        checked.clear()
        model = gen(*args)
        assert checked == [sum(len(v.values) for v in model.variables)]


def test_golomb_past_the_declared_values_cap_refused_before_building():
    # golomb(38) declares 1 068 561 values (about 40 MB), golomb(100)
    # 50 490 001 (about 2 GB); golomb(37) declares 961 039, under the cap
    import time

    from eps_select.csp import check_declared_values

    for n, count in ((38, 1_068_561), (100, 50_490_001)):
        start = time.perf_counter()
        with pytest.raises(
            ValueError,
            match=f"^model 'golomb-{n}': the variables declare {count} domain values, "
            f"more than MAX_DOMAIN_VALUES={MAX_DOMAIN_VALUES}$",
        ):
            golomb(n)
        assert time.perf_counter() - start < 1.0
    check_declared_values("model 'golomb-37'", 961_039)
    with pytest.raises(ValueError, match="declare 2100001 domain values"):
        generate("golomb", n=8, maxlen=60000)


def test_objective_roundtrip(tmp_path):
    m = golomb(4, maxlen=10)
    d = model_to_dict(m)
    assert d["objective"] == {"variable": "m3", "sense": "minimize"}
    m2 = model_from_dict(d)
    assert m2.objective is not None and not m2.objective.maximize


@pytest.mark.parametrize(
    "con, message",
    [
        ({"kind": "all_different", "vars": ["x", "y", "x"]}, r"constraint #1 \(all_different\): vars repeat"),
        ({"kind": "not_equal", "x": "y", "y": "y"}, r"constraint #1 \(not_equal\): x and y are the same"),
        ({"kind": "not_equal", "x": "x", "y": "x", "offset": 2}, r"constraint #1 \(not_equal\): x and y"),
        ({"kind": "linear_eq", "coeffs": [1, 0], "vars": ["x", "y"], "rhs": 2},
         "constraint #1: variable 'y' has coefficient 0"),
        ({"kind": "linear_le", "coeffs": [0, 1], "vars": ["x", "y"], "rhs": 2},
         "constraint #1: variable 'x' has coefficient 0"),
    ],
    ids=["all-different-repeat", "not-equal-self", "not-equal-self-offset",
         "linear-eq-zero-coeff", "linear-le-zero-coeff"],
)
def test_degenerate_constraints_rejected(con, message):
    doc = {"variables": [_X, _Y], "constraints": [{"kind": "all_different", "vars": ["x", "y"]}, con]}
    with pytest.raises(ModelFormatError, match=message):
        model_from_dict(doc)


@pytest.mark.parametrize(
    "con, message",
    [
        (AllDifferent((0, 1, 0)), r"constraint #1 \(all_different\): vars repeat"),
        (NotEqual(1, 1, 0), r"constraint #1 \(not_equal\): x and y are the same"),
        (NotEqual(0, 0, 2), r"constraint #1 \(not_equal\): x and y"),
    ],
    ids=["all-different-repeat", "not-equal-self", "not-equal-self-offset"],
)
def test_degenerate_model_is_not_written(tmp_path, con, message):
    # csp.Model accepts these; the writer refuses what the reader would
    m = Model("deg", [var_range("x", 0, 4), var_range("y", 0, 4)], [AllDifferent((0, 1)), con])
    with pytest.raises(ModelFormatError, match=message):
        model_to_dict(m)
    path = tmp_path / "deg.json"
    with pytest.raises(ModelFormatError, match=message):
        save_json(m, path)
    assert not path.exists()


def test_abs_diff_with_z_aliasing_x_is_legal():
    # x = |x - y| holds for y = 0 (any x) and for y = 2x
    m = model_from_dict(
        {"variables": [_X, _Y], "constraints": [{"kind": "abs_diff", "x": "x", "y": "y", "z": "x"}]}
    )
    assert count_all(m).solutions_found == 5
