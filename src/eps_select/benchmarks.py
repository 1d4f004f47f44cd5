"""Built-in benchmark model generators at parameterized sizes.

* allinterval(n): permutation of 0..n-1 whose successive absolute
  differences are all distinct.
* nqueens(n): pairwise no-attack via offset disequalities.
* golomb(n, maxlen): minimize the last mark of a ruler with pairwise
  distinct differences; first mark fixed at 0, first difference smaller
  than the last (classic mirror-symmetry break) when there are at least
  three marks.
* magicsquare(n): distinct 1..n^2 with equal line sums (full solution
  count, no symmetry breaking).
* latin(n): an n x n Latin square over 1..n.

Each generator refuses a size whose variables would declare more than
``csp.MAX_DOMAIN_VALUES`` domain values in all, before it builds any domain.
"""

from __future__ import annotations

from typing import Optional

from .csp import (
    AbsDiff,
    AllDifferent,
    LinearEq,
    LinearLe,
    Model,
    NotEqual,
    Objective,
    VariableDecl,
    check_declared_values,
    var_range,
)


def allinterval(n: int) -> Model:
    if n < 2:
        raise ValueError("allinterval needs n >= 2")
    check_declared_values(f"model 'allinterval-{n}'", n * n + (n - 1) ** 2)
    xs = [var_range(f"x{i}", 0, n - 1) for i in range(n)]
    ds = [var_range(f"d{i}", 1, n - 1) for i in range(n - 1)]
    cons = [
        AllDifferent(tuple(range(n))),
        AllDifferent(tuple(range(n, 2 * n - 1))),
    ]
    for i in range(n - 1):
        cons.append(AbsDiff(x=i + 1, y=i, z=n + i))
    return Model(f"allinterval-{n}", xs + ds, cons)


def nqueens(n: int) -> Model:
    if n < 1:
        raise ValueError("nqueens needs n >= 1")
    check_declared_values(f"model 'nqueens-{n}'", n * n)
    qs = [var_range(f"q{i}", 0, n - 1) for i in range(n)]
    cons: list = [AllDifferent(tuple(range(n)))]
    for i in range(n):
        for j in range(i + 1, n):
            cons.append(NotEqual(i, j, j - i))
            cons.append(NotEqual(i, j, i - j))
    return Model(f"nqueens-{n}", qs, cons)


def golomb(n: int, maxlen: Optional[int] = None) -> Model:
    if n < 2:
        raise ValueError("golomb needs n >= 2")
    if maxlen is None:
        maxlen = n * n
    # the first mark's one value, then n - 1 marks and n(n - 1)/2 differences
    check_declared_values(f"model 'golomb-{n}'", 1 + (n - 1 + n * (n - 1) // 2) * maxlen)
    marks = [VariableDecl("m0", (0,))] + [
        var_range(f"m{i}", 1, maxlen) for i in range(1, n)
    ]
    diffs = []
    cons: list = []
    # ordering: m_i < m_{i+1}
    for i in range(n - 1):
        cons.append(LinearLe((1, -1), (i, i + 1), -1))
    idx = n
    first_diff = last_diff = -1
    for i in range(n):
        for j in range(i + 1, n):
            diffs.append(var_range(f"d{i}_{j}", 1, maxlen))
            # m_j - m_i - d_ij == 0
            cons.append(LinearEq((1, -1, -1), (j, i, idx), 0))
            if i == 0 and j == 1:
                first_diff = idx
            if i == n - 2 and j == n - 1:
                last_diff = idx
            idx += 1
    cons.append(AllDifferent(tuple(range(n, idx))))
    if n >= 3:  # with two marks the first difference is the last one
        cons.append(LinearLe((1, -1), (first_diff, last_diff), -1))
    return Model(
        f"golomb-{n}",
        marks + diffs,
        cons,
        objective=Objective(var=n - 1, maximize=False),
    )


def magicsquare(n: int) -> Model:
    if n < 1:
        raise ValueError("magicsquare needs n >= 1")
    check_declared_values(f"model 'magicsquare-{n}'", n ** 4)
    total = n * (n * n + 1) // 2
    cells = [var_range(f"c{r}_{c}", 1, n * n) for r in range(n) for c in range(n)]
    ones = tuple(1 for _ in range(n))
    cons: list = [AllDifferent(tuple(range(n * n)))]
    for r in range(n):
        cons.append(LinearEq(ones, tuple(r * n + c for c in range(n)), total))
    for c in range(n):
        cons.append(LinearEq(ones, tuple(r * n + c for r in range(n)), total))
    cons.append(LinearEq(ones, tuple(i * n + i for i in range(n)), total))
    cons.append(LinearEq(ones, tuple(i * n + (n - 1 - i) for i in range(n)), total))
    return Model(f"magicsquare-{n}", cells, cons)


def latin(n: int) -> Model:
    if n < 1:
        raise ValueError("latin needs n >= 1")
    check_declared_values(f"model 'latin-{n}'", n ** 3)
    cells = [var_range(f"c{r}_{c}", 1, n) for r in range(n) for c in range(n)]
    cons: list = []
    for r in range(n):
        cons.append(AllDifferent(tuple(r * n + c for c in range(n))))
    for c in range(n):
        cons.append(AllDifferent(tuple(r * n + c for r in range(n))))
    return Model(f"latin-{n}", cells, cons)


GENERATORS = {
    "allinterval": allinterval,
    "nqueens": nqueens,
    "golomb": golomb,
    "magicsquare": magicsquare,
    "latin": latin,
}


def generate(name: str, **params) -> Model:
    gen = GENERATORS.get(name)
    if gen is None:
        known = ", ".join(sorted(GENERATORS))
        raise ValueError(f"unknown builtin model {name!r} (known: {known})")
    try:
        return gen(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {name}: {exc}") from None
