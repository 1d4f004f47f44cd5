import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eps_select.benchmarks import allinterval, golomb, latin, magicsquare, nqueens
from eps_select.csp import (
    AbsDiff,
    AllDifferent,
    InconsistentProblem,
    LinearEq,
    LinearLe,
    Model,
    NotEqual,
    VariableDecl,
    _propagate,
)
from eps_select.decomposition import DecompositionConfig, decompose
from eps_select.search import root_domains, solve

from bruteforce import assignment_space, brute_solutions, satisfies
from reference_propagate import reference_propagate


def _model(domains, constraints, name="m"):
    decls = [VariableDecl(f"v{i}", tuple(d)) for i, d in enumerate(domains)]
    return Model(name, decls, constraints)


def _fixpoint(m, masks=None):
    """Propagate every constraint of ``m`` from ``masks`` (default: the root);
    returns the propagated masks, or None when propagation fails."""
    doms = list(m.initial_masks if masks is None else masks)
    fail, _ = _propagate(m, doms, range(len(m.constraints)), [])
    return None if fail >= 0 else doms


def _domains(m, masks):
    return [m.decode(d) for d in masks]


def test_alldiff_two_singletons_inconsistent():
    m = _model([(1,), (1,)], [AllDifferent((0, 1))])
    assert _fixpoint(m) is None


def test_alldiff_chain_fixpoint():
    m = _model([(1,), (1, 2), (1, 2, 3)], [AllDifferent((0, 1, 2))])
    doms = _fixpoint(m)
    assert doms is not None
    assert _domains(m, doms)[1:] == [(2,), (3,)]


def test_linear_eq_bounds():
    m = _model([(1, 2, 3), (1, 2, 3)], [LinearEq((1, 1), (0, 1), 5)])
    assert _domains(m, _fixpoint(m)) == [(2, 3), (2, 3)]


def test_linear_le_prunes_upper():
    m = _model([(0, 1, 2, 3), (2, 3)], [LinearLe((1, 1), (0, 1), 3)])
    assert _domains(m, _fixpoint(m))[0] == (0, 1)


def test_absdiff_supports():
    # z = |x - y| with x in {0,5}, y in {0}: z must be 0 or 5
    m = _model([(0, 5), (0,), (0, 1, 2, 3, 4, 5)], [AbsDiff(0, 1, 2)])
    assert _domains(m, _fixpoint(m))[2] == (0, 5)


def test_notequal_offset():
    m = _model([(1, 2, 3), (2,)], [NotEqual(0, 1, offset=1)])  # v0 != v1 + 1
    assert _domains(m, _fixpoint(m))[0] == (1, 2)


def test_assign_then_propagate_alldiff():
    m = _model([(1, 2, 3), (2,)], [AllDifferent((0, 1))])
    masks = list(m.initial_masks)
    masks[0] = m.value_bit(2)
    assert m.decode(masks[0]) == (2,)
    assert _fixpoint(m, masks) is None
    with pytest.raises(InconsistentProblem):
        solve(m, [(0, 2)])


def test_assign_outside_domain_raises():
    m = _model([(1, 2, 3)], [])
    with pytest.raises(InconsistentProblem):
        solve(m, [(0, 9)])


def test_assign_singleton_idempotent():
    m = _model([(5,)], [])
    out = solve(m, [(0, 5)])
    assert out.complete and out.solutions_found == 1 and out.work_used == 0


def _random_model(rng: random.Random) -> Model:
    n = rng.randint(2, 4)
    domains = []
    for _ in range(n):
        lo = rng.randint(-2, 2)
        width = rng.randint(0, 4)
        domains.append(tuple(range(lo, lo + width + 1)))
    cons = []
    kinds = rng.randint(1, 3)
    for _ in range(kinds):
        k = rng.randint(0, 4)
        if k == 0:
            size = rng.randint(2, n)
            cons.append(AllDifferent(tuple(rng.sample(range(n), size))))
        elif k == 1:
            size = rng.randint(1, n)
            vs = tuple(rng.sample(range(n), size))
            coeffs = tuple(rng.choice((-2, -1, 1, 2)) for _ in vs)
            cons.append(LinearEq(coeffs, vs, rng.randint(-4, 6)))
        elif k == 2:
            size = rng.randint(1, n)
            vs = tuple(rng.sample(range(n), size))
            coeffs = tuple(rng.choice((-2, -1, 1, 2)) for _ in vs)
            cons.append(LinearLe(coeffs, vs, rng.randint(-4, 6)))
        elif k == 3 and n >= 3:
            x, y, z = rng.sample(range(n), 3)
            cons.append(AbsDiff(x, y, z))
        else:
            x, y = rng.sample(range(n), 2)
            cons.append(NotEqual(x, y, rng.randint(-2, 2)))
    return _model(domains, cons)


@pytest.mark.parametrize("seed", range(60))
def test_propagate_never_removes_solutions(seed):
    rng = random.Random(seed)
    m = _random_model(rng)
    assert assignment_space(m) <= 10**5
    masks = _fixpoint(m)
    solutions = list(brute_solutions(m))
    if masks is None:
        assert solutions == []
        return
    doms = [set(d) for d in _domains(m, masks)]
    for sol in solutions:
        for v, val in enumerate(sol):
            assert val in doms[v], f"seed {seed}: lost solution {sol}"


@pytest.mark.parametrize("seed", range(40))
def test_propagate_monotone_idempotent_deterministic(seed):
    rng = random.Random(1000 + seed)
    m = _random_model(rng)
    s1 = _fixpoint(m)
    if s1 is None:
        assert _fixpoint(m) is None
        return
    # monotone: pruned domains are subsets of the originals
    for d1, d0 in zip(s1, m.initial_masks):
        assert d1 & ~d0 == 0
    # idempotent and deterministic
    assert _fixpoint(m, s1) == s1
    assert _fixpoint(m) == s1


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_propagate_fixpoint_property(seed):
    m = _random_model(random.Random(seed))
    s1 = _fixpoint(m)
    if s1 is not None:
        assert _fixpoint(m, s1) == s1


def test_model_validates_references():
    with pytest.raises(ValueError):
        _model([(1, 2)], [AllDifferent((0, 5))])
    with pytest.raises(ValueError):
        _model([(1, 2), (1, 2)], [LinearEq((1,), (0, 1), 3)])
    with pytest.raises(ValueError):
        VariableDecl("x", ())


def test_assigned_fixpoint_is_a_solution():
    # all-singleton fixpoints satisfy every constraint (checked semantically)
    rng = random.Random(7)
    found = 0
    for _ in range(200):
        m = _random_model(rng)
        masks = _fixpoint(m)
        if masks is None:
            continue
        doms = _domains(m, masks)
        if all(len(d) == 1 for d in doms):
            values = tuple(d[0] for d in doms)
            assert satisfies(m, values)
            found += 1
    assert found > 0


def _degenerate_model():
    """A scope that repeats a variable, an AbsDiff whose result is one of its
    operands and a NotEqual of a variable with itself."""
    return _model(
        [range(0, 5), range(0, 5), range(0, 6), range(1, 4)],
        [AllDifferent((0, 1, 0, 3)), AbsDiff(0, 1, 0), AbsDiff(2, 2, 3),
         NotEqual(3, 3, 1), AllDifferent((1, 2, 3))],
        name="degenerate",
    )


def _random_submasks(rng: random.Random, m: Model) -> list[int]:
    """Per variable: its root mask, one of its values, or a random subset."""
    doms = []
    for d in m.initial_masks:
        r = rng.random()
        if r < 0.4:
            doms.append(d)
            continue
        bits = [1 << i for i in range(d.bit_length()) if d >> i & 1]
        if r < 0.7:
            doms.append(rng.choice(bits))
        else:
            doms.append(sum(rng.sample(bits, rng.randint(1, len(bits)))))
    return doms


@pytest.mark.parametrize(
    "name, make",
    [
        ("nqueens", lambda: nqueens(8)),
        ("allinterval", lambda: allinterval(8)),
        ("latin", lambda: latin(5)),
        ("golomb", lambda: golomb(5)),
        ("magicsquare", lambda: magicsquare(3)),
        ("degenerate", _degenerate_model),
    ],
)
def test_propagate_matches_reference_kernel(name, make):
    # call for call: failing index, pass count, domains (also on failure) and
    # the pruned sequence, from random sub-masks and random wake lists
    m = make()
    rng = random.Random(f"propagate-{name}")
    ncons = len(m.constraints)
    for _ in range(400):
        doms = _random_submasks(rng, m)
        wake = [rng.randrange(ncons) for _ in range(rng.randint(1, 2 * ncons))]
        got_doms, want_doms = list(doms), list(doms)
        got_pruned, want_pruned = [], []
        got = _propagate(m, got_doms, wake, got_pruned)
        want = reference_propagate(m, want_doms, wake, want_pruned)
        assert (got, got_doms, got_pruned) == (want, want_doms, want_pruned), (name, doms, wake)


def _scope_model(rng: random.Random) -> tuple[Model, set[str]]:
    """A model with values below zero whose ``abs_diff`` and ``linear_le``
    constraints have distinct or aliased scopes; returns it with the scope
    shapes it holds."""
    n = rng.randint(3, 5)
    domains = []
    for i in range(n):
        lo = rng.randint(-4, -1) if i == 0 else rng.randint(-4, 2)
        domains.append(range(lo, lo + rng.randint(1, 6) + 1))
    cons = []
    shapes = set()
    for _ in range(rng.randint(2, 4)):
        x, y, z = rng.sample(range(n), 3)
        shape = rng.choice(("distinct", "x=y", "z=x", "z=y"))
        if shape == "x=y":
            y = x
        elif shape == "z=x":
            z = x
        elif shape == "z=y":
            z = y
        cons.append(AbsDiff(x, y, z))
        shapes.add(f"abs_diff {shape}")
        vs = rng.sample(range(n), rng.randint(1, n))
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in vs]
        if rng.random() < 0.5:
            # the first variable again, under the opposite sign
            vs.append(vs[0])
            coeffs.append(rng.randint(1, 3) * (1 if coeffs[0] < 0 else -1))
            shapes.add("linear_le repeated")
        else:
            shapes.add("linear_le distinct")
        cons.append(LinearLe(tuple(coeffs), tuple(vs), rng.randint(-6, 6)))
    return _model(domains, cons, name="scopes"), shapes


def test_propagate_matches_reference_on_aliased_scopes():
    # One round of abs_diff or linear_le reaches its fixpoint only on a
    # distinct scope; an aliased one must keep rounding as the reference
    # does. Call for call, from random sub-masks and random wake lists.
    rng = random.Random("aliased-scopes")
    shapes = set()
    for _ in range(30):
        m, held = _scope_model(rng)
        assert m.lo < 0
        shapes |= held
        ncons = len(m.constraints)
        for _ in range(200):
            doms = _random_submasks(rng, m)
            wake = [rng.randrange(ncons) for _ in range(rng.randint(1, 2 * ncons))]
            got_doms, want_doms = list(doms), list(doms)
            got_pruned, want_pruned = [], []
            got = _propagate(m, got_doms, wake, got_pruned)
            want = reference_propagate(m, want_doms, wake, want_pruned)
            assert (got, got_doms, got_pruned) == (want, want_doms, want_pruned), (
                m.constraints, doms, wake)
    assert shapes == {"abs_diff distinct", "abs_diff x=y", "abs_diff z=x", "abs_diff z=y",
                      "linear_le distinct", "linear_le repeated"}


def _linear_eq_model(rng: random.Random) -> tuple[Model, set[str]]:
    """A model with values below zero and two to four ``linear_eq``
    constraints whose scopes are distinct with unit coefficients, distinct with
    a coefficient other than 1 or -1, or repeat a variable; returns it with the
    scope shapes it holds."""
    n = rng.randint(3, 5)
    domains = []
    for i in range(n):
        lo = rng.randint(-5, -1) if i == 0 else rng.randint(-5, 3)
        domains.append(range(lo, lo + rng.randint(2, 7) + 1))
    cons = []
    shapes = set()
    for _ in range(rng.randint(2, 4)):
        vs = rng.sample(range(n), rng.randint(2, n))
        shape = rng.choice(("unit", "unit", "non-unit", "repeated"))
        coeffs = [rng.choice((-1, 1)) for _ in vs]
        if shape == "non-unit":
            coeffs[rng.randrange(len(vs))] = rng.choice((-3, -2, 2, 3))
        elif shape == "repeated":
            vs.append(rng.choice(vs))
            coeffs.append(rng.choice((-2, -1, 1, 2)))
        cons.append(LinearEq(tuple(coeffs), tuple(vs), rng.randint(-4, 4)))
        shapes.add(shape)
    return _model(domains, cons, name="linear_eq"), shapes


def test_linear_eq_rounds_match_reference():
    # A linear_eq over distinct variables with coefficients of 1 and -1 runs
    # another round only when a bound it set landed in a hole; every other
    # linear_eq runs rounds until one prunes nothing. Call for call against
    # the reference, which always runs that last round, from random sub-masks
    # with holes and random wake lists.
    rng = random.Random("linear-eq-rounds")
    shapes = set()
    for _ in range(60):
        m, held = _linear_eq_model(rng)
        assert m.lo < 0
        shapes |= held
        ncons = len(m.constraints)
        for _ in range(200):
            doms = _random_submasks(rng, m)
            wake = [rng.randrange(ncons) for _ in range(rng.randint(1, 2 * ncons))]
            got_doms, want_doms = list(doms), list(doms)
            got_pruned, want_pruned = [], []
            got = _propagate(m, got_doms, wake, got_pruned)
            want = reference_propagate(m, want_doms, wake, want_pruned)
            assert (got, got_doms, got_pruned) == (want, want_doms, want_pruned), (
                m.constraints, doms, wake)
    assert shapes == {"unit", "non-unit", "repeated"}


def _set_like_the_search(rng: random.Random, m: Model, doms: list[int]):
    """From the fixpoint ``doms``, what the search propagates next: an open
    variable fixed, or pruned and perhaps left open (``_narrow``), and on a
    model with an objective, half the time, the objective bound-pruned below
    one of its values. Returns (domains, wake, set variables), or None when
    no variable is open."""
    open_vars = [v for v, d in enumerate(doms) if d & (d - 1)]
    if not open_vars:
        return None
    v = rng.choice(open_vars)
    new = list(doms)
    new[v] = _narrow(rng, doms[v])
    wake, set_vars = m.watchers[v], (v,)
    obj = m.objective.var if m.objective is not None else -1
    if obj >= 0 and rng.random() < 0.5:
        od = new[obj]
        nod = od & m.range_mask(m.lo, rng.choice(m.decode(od)) - 1)
        if nod and nod != od:
            new[obj] = nod
            # the search's merged wake list after a bound prune
            wake += tuple(c for c in m.watchers[obj] if c not in wake)
            if obj != v:
                set_vars = (v, obj)
    return new, wake, set_vars


def _assert_seeded_parity(rng: random.Random, m: Model, start: list[int], steps: int, seen):
    """Walk down from the fixpoint ``start`` as the search does, and check each
    seeded call against the reference with the same full wake, call for call.
    ``seen`` counts the outcomes: passed, failed, and failed at an
    all_different whose scope repeats a variable."""
    doms = start
    for _ in range(steps):
        step = _set_like_the_search(rng, m, doms)
        if step is None:
            return
        new, wake, set_vars = step
        got_doms, want_doms = list(new), list(new)
        got_pruned, want_pruned = [], []
        got = _propagate(m, got_doms, wake, got_pruned, set_vars)
        want = reference_propagate(m, want_doms, wake, want_pruned)
        assert (got, got_doms, got_pruned) == (want, want_doms, want_pruned), (
            m.name, new, wake, set_vars)
        fail = want[0]
        if fail < 0:
            seen["passed"] += 1
            doms = want_doms
            continue
        seen["failed"] += 1
        c = m.constraints[fail]
        if isinstance(c, AllDifferent) and len(set(c.vars)) < len(c.vars):
            seen["repeated all_different"] += 1
        return


@pytest.mark.parametrize(
    "name, make",
    [
        ("nqueens", lambda: nqueens(8)),
        ("allinterval", lambda: allinterval(8)),
        ("latin", lambda: latin(5)),
        ("golomb", lambda: golomb(5)),
        ("magicsquare", lambda: magicsquare(3)),
        ("degenerate", _degenerate_model),
    ],
)
def test_seeded_propagate_matches_reference_kernel(name, make):
    # The search names the variables it has just set, and only their fixed
    # values seed the all_different pending values, which is sound only
    # from a fixpoint. Start from the root fixpoint and from decomposed
    # subproblems' domains, and walk down as the search does.
    m = make()
    rng = random.Random(f"seeded-{name}")
    seen = Counter()
    starts = [root_domains(m)[0]]
    starts += [list(s.domains) for s in decompose(m, DecompositionConfig(target_count=20)).subproblems]
    while seen["passed"] + seen["failed"] < 600:
        _assert_seeded_parity(rng, m, rng.choice(starts), m.n, seen)
    assert seen["passed"] > 0 and seen["failed"] > 0, seen
    if name == "degenerate":
        assert seen["repeated all_different"] > 0, seen


def test_seeded_propagate_matches_reference_on_aliased_scopes():
    # _scope_model's aliased abs_diff and linear_le scopes, plus an
    # all_different that repeats a variable half the time: a fix of that
    # variable, by the search or by a propagator, must fail there as the
    # reference's collection scan does. An aliased abs_diff writes a
    # variable twice in a round, so the value it hands over must be the one
    # the round leaves; unseeded calls from random sub-masks check that too.
    rng = random.Random("seeded-aliased-scopes")
    seen = Counter()
    models = 0
    while models < 40:
        base, _ = _scope_model(rng)
        scope = rng.sample(range(base.n), rng.randint(2, base.n))
        if rng.random() < 0.5:
            scope.insert(rng.randrange(len(scope) + 1), rng.choice(scope))
        cons = list(base.constraints)
        cons.insert(rng.randrange(len(cons) + 1), AllDifferent(tuple(scope)))
        m = Model("scopes", base.variables, cons)
        try:
            root = root_domains(m)[0]
        except InconsistentProblem:
            continue
        models += 1
        for _ in range(20):
            _assert_seeded_parity(rng, m, root, m.n, seen)
        ncons = len(m.constraints)
        for _ in range(50):
            doms = _random_submasks(rng, m)
            wake = [rng.randrange(ncons) for _ in range(rng.randint(1, 2 * ncons))]
            got_doms, want_doms = list(doms), list(doms)
            got_pruned, want_pruned = [], []
            got = _propagate(m, got_doms, wake, got_pruned)
            want = reference_propagate(m, want_doms, wake, want_pruned)
            assert (got, got_doms, got_pruned) == (want, want_doms, want_pruned), (
                m.constraints, doms, wake)
    assert seen["passed"] > 0 and seen["failed"] > 0, seen
    assert seen["repeated all_different"] > 0, seen


@pytest.mark.parametrize("kind", [LinearEq, LinearLe])
def test_zero_coefficient_refused(kind):
    # the bounds propagator would divide by it
    with pytest.raises(ValueError, match=r"constraint #1: variable 'v0' has coefficient 0"):
        _model([range(0, 4), range(0, 4)],
               [AllDifferent((0, 1)), kind((0, 1), (0, 1), 2)])


def _narrow(rng: random.Random, d: int) -> int:
    """An open mask fixed to one of its values or shrunk to a random proper,
    non-empty subset of them."""
    bits = [1 << i for i in range(d.bit_length()) if d >> i & 1]
    if rng.random() < 0.5:
        return rng.choice(bits)
    return sum(rng.sample(bits, rng.randint(1, len(bits) - 1)))


def test_watchers_name_each_constraint_over_a_variable_once_in_order():
    # random scopes that repeat variables: a constraint joins the watchers of
    # each variable it names once, and the watchers keep declaration order
    rng = random.Random("watchers")
    repeats = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        cons = []
        for _ in range(rng.randint(1, 12)):
            vs = tuple(rng.randrange(n) for _ in range(rng.randint(1, 5)))
            kind = rng.randrange(5)
            if kind == 0:
                cons.append(AllDifferent(vs))
            elif kind < 3:
                coeffs = tuple(rng.choice((-2, -1, 1, 2)) for _ in vs)
                cons.append((LinearEq if kind == 1 else LinearLe)(coeffs, vs, rng.randint(-3, 3)))
            elif kind == 3:
                cons.append(AbsDiff(rng.randrange(n), rng.randrange(n), rng.randrange(n)))
            else:
                cons.append(NotEqual(rng.randrange(n), rng.randrange(n), rng.randint(-1, 1)))
        m = _model([range(3)] * n, cons)
        assert m.watchers == tuple(
            tuple(ci for ci, c in enumerate(cons) if v in c.scope) for v in range(n)
        ), cons
        repeats += sum(len(set(c.scope)) < len(c.scope) for c in cons)
    assert repeats > 200
