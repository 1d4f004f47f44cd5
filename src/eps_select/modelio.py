"""JSON model ingestion and emission.

Schema:

    {
      "name": "...",
      "variables": [
        {"id": "x", "domain": [lo, hi]},            # two ints = inclusive range
        {"id": "y", "domain": [v0, v1, v2, ...]},   # other lengths = value list
        {"id": "z", "domain": {"values": [2, 5]}}   # explicit form, any length
      ],
      "constraints": [
        {"kind": "all_different", "vars": ["x", "y"]},
        {"kind": "linear_eq", "coeffs": [1, 1], "vars": ["x", "y"], "rhs": 5},
        {"kind": "linear_le", "coeffs": [1, -1], "vars": ["x", "y"], "rhs": 0},
        {"kind": "abs_diff", "x": "x", "y": "y", "z": "z"},
        {"kind": "not_equal", "x": "x", "y": "y", "offset": 0}
      ],
      "objective": {"variable": "z", "sense": "minimize"}   # optional
    }

A two-element list is read as a range; a two-value set that is not a range
must use the explicit ``{"values": [...]}`` form (emission picks it
automatically when needed). A model whose values span more than
``csp.MAX_DOMAIN_WIDTH``, or whose domains declare more than
``csp.MAX_DOMAIN_VALUES`` values in all, is refused before its domains are
built. Every entry must be an object and every collection a list; domain
values, ``coeffs``, ``rhs`` and ``offset`` must be integers, and JSON
booleans are not. An ``all_different`` that repeats a variable
(unsatisfiable) and a ``not_equal`` of a variable with itself
(unsatisfiable or always true) are refused as well, and
:func:`model_to_dict` and :func:`save_json` refuse to write them;
``csp.Model`` itself still accepts both. A linear coefficient of 0 is
refused by ``csp.Model``, so by the reader too. An ``abs_diff`` whose ``z``
is ``x`` or ``y`` stays legal: ``x = |x - y|`` has solutions. A document
that breaks any of this raises ``ModelFormatError``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, Union

from .csp import (
    MAX_DOMAIN_VALUES,
    AbsDiff,
    AllDifferent,
    Constraint,
    LinearEq,
    LinearLe,
    Model,
    NotEqual,
    Objective,
    VariableDecl,
    check_declared_values,
    check_domain_width,
)


class ModelFormatError(ValueError):
    pass


def _is_int(v) -> bool:
    """A JSON integer; ``bool`` is an ``int`` subclass but not one here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _object(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise ModelFormatError(f"{what} must be a JSON object")
    return v


def _list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ModelFormatError(f"{what} must be a list")
    return v


def _domain_values(dom, vid: str) -> Sequence[int]:
    """The declared values of variable ``vid``: a range is not expanded."""
    if isinstance(dom, dict):
        vals = dom.get("values")
        if not isinstance(vals, list) or not vals:
            raise ModelFormatError(f"variable {vid!r}: domain.values must be a non-empty list")
        if not all(_is_int(v) for v in vals):
            raise ModelFormatError(f"variable {vid!r}: domain values must be integers")
        return vals
    if not isinstance(dom, list) or not dom:
        raise ModelFormatError(f"variable {vid!r}: domain must be a non-empty list")
    if not all(_is_int(v) for v in dom):
        raise ModelFormatError(f"variable {vid!r}: domain values must be integers")
    if len(dom) == 2:
        lo, hi = dom
        if lo > hi:
            raise ModelFormatError(f"variable {vid!r}: empty range [{lo}, {hi}]")
        try:
            check_domain_width(f"variable {vid!r}", lo, hi)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
        return range(lo, hi + 1)
    return dom


def model_from_dict(data: dict) -> Model:
    if not isinstance(data, dict):
        raise ModelFormatError("model document must be a JSON object")
    name = data.get("name", "model")
    raw_vars = data.get("variables")
    if not isinstance(raw_vars, list) or not raw_vars:
        raise ModelFormatError("'variables' must be a non-empty list")
    domains = []
    index: dict[str, int] = {}
    for i, rv in enumerate(raw_vars):
        vid = _object(rv, f"variable #{i}").get("id")
        if not isinstance(vid, str) or not vid:
            raise ModelFormatError(f"variable #{i} is missing a string 'id'")
        if vid in index:
            raise ModelFormatError(f"duplicate variable id {vid!r}")
        domains.append((vid, _domain_values(rv.get("domain"), vid)))
        index[vid] = i
    try:
        check_declared_values(
            f"model {name!r}", sum(len(vals) for _, vals in domains), MAX_DOMAIN_VALUES
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    decls = [VariableDecl(vid, vals) for vid, vals in domains]

    def ref(vid, where: str) -> int:
        if not isinstance(vid, str) or vid not in index:
            raise ModelFormatError(f"{where} references undeclared variable id {vid!r}")
        return index[vid]

    cons: list[Constraint] = []
    for ci, rc in enumerate(_list(data.get("constraints", []), "'constraints'")):
        kind = _object(rc, f"constraint #{ci}").get("kind")
        where = f"constraint #{ci} ({kind})"
        if kind == "all_different":
            vs = tuple(ref(v, where) for v in _list(rc.get("vars", []), f"{where}: vars"))
            cons.append(AllDifferent(vs))
        elif kind in ("linear_eq", "linear_le"):
            coeffs = rc.get("coeffs")
            vs = rc.get("vars")
            rhs = rc.get("rhs")
            if not isinstance(coeffs, list) or not isinstance(vs, list) or len(coeffs) != len(vs):
                raise ModelFormatError(f"{where}: coeffs and vars must be aligned lists")
            if not all(_is_int(a) for a in coeffs):
                raise ModelFormatError(f"{where}: coeffs must be integers")
            if not _is_int(rhs):
                raise ModelFormatError(f"{where}: rhs must be an integer")
            cls = LinearEq if kind == "linear_eq" else LinearLe
            cons.append(cls(tuple(coeffs), tuple(ref(v, where) for v in vs), rhs))
        elif kind == "abs_diff":
            cons.append(
                AbsDiff(ref(rc.get("x"), where), ref(rc.get("y"), where), ref(rc.get("z"), where))
            )
        elif kind == "not_equal":
            off = rc.get("offset", 0)
            if not _is_int(off):
                raise ModelFormatError(f"{where}: offset must be an integer")
            cons.append(NotEqual(ref(rc.get("x"), where), ref(rc.get("y"), where), off))
        else:
            raise ModelFormatError(f"constraint #{ci}: unknown kind {kind!r}")
        _refuse_degenerate(ci, cons[-1])

    objective = None
    raw_obj = data.get("objective")
    if raw_obj is not None:
        sense = _object(raw_obj, "'objective'").get("sense", "minimize")
        if sense not in ("minimize", "maximize"):
            raise ModelFormatError(f"objective sense must be minimize or maximize, got {sense!r}")
        objective = Objective(ref(raw_obj.get("variable"), "objective"), sense == "maximize")

    try:
        return Model(name, decls, cons, objective)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def _refuse_degenerate(ci: int, c: Constraint) -> None:
    """Refuse constraint #``ci`` if ``csp.Model`` accepts it but a document
    may not hold it."""
    if isinstance(c, AllDifferent) and len(set(c.vars)) != len(c.vars):
        raise ModelFormatError(f"constraint #{ci} (all_different): vars repeat a variable")
    if isinstance(c, NotEqual) and c.x == c.y:
        raise ModelFormatError(f"constraint #{ci} (not_equal): x and y are the same variable")


def model_to_dict(model: Model) -> dict:
    """The model as a document :func:`model_from_dict` reads back; a model
    built in code with a constraint that the reader refuses (an
    ``all_different`` that repeats a variable, a ``not_equal`` of a variable
    with itself) raises ``ModelFormatError`` naming that constraint."""
    variables = []
    for v in model.variables:
        vals = v.values
        contiguous = vals[-1] - vals[0] + 1 == len(vals)
        if contiguous:
            dom: Union[list, dict] = [vals[0], vals[-1]]
        elif len(vals) == 2:
            dom = {"values": list(vals)}
        else:
            dom = list(vals)
        variables.append({"id": v.name, "domain": dom})

    names = model.names
    constraints = []
    for ci, c in enumerate(model.constraints):
        _refuse_degenerate(ci, c)
        if isinstance(c, AllDifferent):
            constraints.append({"kind": "all_different", "vars": [names[v] for v in c.vars]})
        elif isinstance(c, LinearEq):
            constraints.append(
                {
                    "kind": "linear_eq",
                    "coeffs": list(c.coeffs),
                    "vars": [names[v] for v in c.vars],
                    "rhs": c.rhs,
                }
            )
        elif isinstance(c, LinearLe):
            constraints.append(
                {
                    "kind": "linear_le",
                    "coeffs": list(c.coeffs),
                    "vars": [names[v] for v in c.vars],
                    "rhs": c.rhs,
                }
            )
        elif isinstance(c, AbsDiff):
            constraints.append(
                {"kind": "abs_diff", "x": names[c.x], "y": names[c.y], "z": names[c.z]}
            )
        elif isinstance(c, NotEqual):
            constraints.append(
                {"kind": "not_equal", "x": names[c.x], "y": names[c.y], "offset": c.offset}
            )
    doc = {"name": model.name, "variables": variables, "constraints": constraints}
    if model.objective is not None:
        doc["objective"] = {
            "variable": names[model.objective.var],
            "sense": "maximize" if model.objective.maximize else "minimize",
        }
    return doc


def load_json(path: Union[str, Path]) -> Model:
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{p}: malformed JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ModelFormatError(f"{p}: malformed JSON: nested too deeply") from None
    return model_from_dict(data)


def save_json(model: Model, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")
