import math
import random

import pytest

from eps_select.benchmarks import allinterval, golomb, latin, magicsquare, nqueens
from eps_select.cli import main
from eps_select.csp import (
    AbsDiff,
    AllDifferent,
    InconsistentProblem,
    LinearEq,
    Model,
    NotEqual,
    VariableDecl,
)
from eps_select import decomposition
from eps_select.decomposition import (
    DecompositionConfig,
    decompose,
    sample_size_rule,
    srs_sample,
)
from eps_select.modelio import model_from_dict
from eps_select.runner import TaskFailed
from eps_select.search import SolveMode, root_domains, solve
from eps_select.strategies import ALL_STRATEGIES, StrategyId

from bruteforce import consistent_prefixes, reference_decomposition
from conftest import all_reaped, fork_only
from test_csp import _model, _scope_model
from test_search import _propagating_copy, _random_distinct_model


def test_target_one_gives_empty_prefix():
    d = decompose(nqueens(6), DecompositionConfig(target_count=1))
    assert len(d) == 1
    assert d.prefix_len == 0
    assert d.subproblems[0].assignment == ()


def test_forced_depth_one_nqueens4():
    # nqueens(4) at prefix 1 (four prefixes reach the target of two): one
    # unary assignment per consistent first value
    m = nqueens(4)
    d = decompose(m, DecompositionConfig(target_count=2))
    assert d.prefix_len == 1
    values = []
    for v in range(4):
        try:
            solve(m, ((0, v),), StrategyId.FF, SolveMode.ALL_SOLUTIONS, budget=0)
            values.append(v)
        except InconsistentProblem:
            pass
    assert [s.assignment for s in d.subproblems] == [((0, v),) for v in values]


def test_every_subproblem_is_consistent():
    m = allinterval(7)
    d = decompose(m, DecompositionConfig(target_count=40))
    assert len(d) >= 40
    for s in d.subproblems:
        solve(m, s.assignment, StrategyId.FF, SolveMode.ALL_SOLUTIONS, budget=0)


@pytest.mark.parametrize("target", [1, 10, 50])
@pytest.mark.parametrize(
    "model_fn", [lambda: nqueens(6), lambda: allinterval(6), lambda: latin(3), lambda: magicsquare(3)]
)
def test_partition_property(model_fn, target):
    m = model_fn()
    root = solve(m, (), StrategyId.FF, SolveMode.ALL_SOLUTIONS).solutions_found
    d = decompose(m, DecompositionConfig(target_count=target))
    for sid in ALL_STRATEGIES:
        total = sum(
            solve(m, s.assignment, sid, SolveMode.ALL_SOLUTIONS).solutions_found
            for s in d.subproblems
        )
        assert total == root


def test_shortfall_flag():
    m = Model("tiny", [VariableDecl("a", (1, 2)), VariableDecl("b", (1, 2))], [AllDifferent((0, 1))])
    d = decompose(m, DecompositionConfig(target_count=100))
    assert d.shortfall
    # every depth yields 2 prefixes; the earliest largest set wins
    assert d.prefix_len == 1
    assert len(d) == 2


def test_shortfall_returns_peak_depth():
    # the consistent-prefix count of nqueens(7) peaks below full depth; an
    # unreachable target must return the peak, not the solution set
    m = nqueens(7)
    counts = [len(consistent_prefixes(m, d)) for d in range(1, 8)]
    assert max(counts) > counts[-1]  # the peak is strictly above full depth
    d = decompose(m, DecompositionConfig(target_count=10**9))
    assert d.shortfall
    assert len(d) == max(counts)
    assert d.prefix_len == 1 + counts.index(max(counts))


@pytest.mark.parametrize("target", [1, 10, 50])
@pytest.mark.parametrize(
    "model_fn", [lambda: nqueens(7), lambda: allinterval(6), lambda: latin(3), lambda: golomb(5)]
)
def test_decompose_matches_reference_enumeration(model_fn, target):
    m = model_fn()
    prefixes, depth = reference_decomposition(m, target)
    d = decompose(m, DecompositionConfig(target_count=target))
    assert [s.assignment for s in d.subproblems] == prefixes
    assert [s.id for s in d.subproblems] == list(range(len(prefixes)))
    assert d.prefix_len == depth
    assert d.shortfall == (len(prefixes) < target)


def test_nqueens10_pinned():
    # the target is never reached, so deepening goes on to depth 10 and the
    # largest frontier (depth 5) is returned; each enumeration assignment of
    # depths 1-10 is counted once
    d = decompose(nqueens(10), DecompositionConfig(target_count=3000))
    assert len(d) == 1978
    assert d.prefix_len == 5
    assert d.shortfall
    assert d.work == 13688


@pytest.mark.parametrize(
    "model_fn, target, shortfall",
    [
        (lambda: nqueens(8), 10, False),
        (lambda: nqueens(8), 10**9, True),  # the best frontier, not the last
        (lambda: allinterval(8), 10, False),
        (lambda: allinterval(8), 1000, True),
        (lambda: latin(5), 10, False),
        (lambda: latin(5), 500, False),
        (lambda: golomb(6), 10, False),
        (lambda: golomb(6), 100, False),
        (lambda: magicsquare(3), 10**9, True),
    ],
)
def test_stored_domains_are_the_root_fixpoint(model_fn, target, shortfall):
    m = model_fn()
    d = decompose(m, DecompositionConfig(target_count=target))
    assert d.shortfall == shortfall
    for s in d.subproblems:
        assert s.domains == tuple(root_domains(m, s.assignment)[0])


def _aliased_models():
    """Models whose scopes repeat a variable, each with a wake that a prefix
    would decide if the repetition were ignored."""
    yield "abs_diff y=|x-y|", _model([range(8), range(8)], [AbsDiff(0, 1, 1)])
    # v1 != v1 fails once v1 is fixed, at prefix length 2
    yield "not_equal x!=x", _model(
        [range(3), range(3), range(3)], [NotEqual(0, 2, 1), NotEqual(1, 1, 0)]
    )
    # v0 + 2 v1 = 6 through two terms over v1: only v1 = (6 - v0) / 2 survives
    yield "linear_eq repeated", _model(
        [range(8), range(8), range(3)], [LinearEq((1, 1, 1), (0, 1, 1), 6), NotEqual(1, 2, 0)]
    )
    # v1 twice in one all_different: no prefix that fixes v1 survives
    yield "all_different repeated", _model(
        [range(4), range(4), range(4)], [AllDifferent((0, 1, 1)), NotEqual(0, 2, 0)]
    )


@pytest.mark.parametrize("target", [10, 30, 100])
def test_aliased_scopes_keep_their_wakes(target):
    # a constraint leaves the wakes that its prefix decides only when its
    # scope repeats no variable; with the repetition ignored, each of these
    # models decomposes into prefixes the reference rejects
    for name, m in _aliased_models():
        prefixes, depth = reference_decomposition(m, target)
        d = decompose(m, DecompositionConfig(target_count=target))
        assert ([s.assignment for s in d.subproblems], d.prefix_len) == (prefixes, depth), name
    rng = random.Random("aliased-decomposition")
    models = 0
    while models < 40:
        m, _ = _scope_model(rng)
        try:
            root_domains(m)
        except InconsistentProblem:
            continue
        models += 1
        prefixes, depth = reference_decomposition(m, target)
        d = decompose(m, DecompositionConfig(target_count=target))
        assert ([s.assignment for s in d.subproblems], d.prefix_len) == (prefixes, depth), (
            m.constraints)


def _forward_check_models():
    """nqueens(2..10), latin(3..5) and 40 random models of all_different and
    not_equal constraints over distinct scopes with consistent roots."""
    models = [nqueens(n) for n in range(2, 11)] + [latin(n) for n in (3, 4, 5)]
    rng = random.Random("forward-check")
    while len(models) < 52:
        m = _random_distinct_model(rng)
        try:
            root_domains(m)
        except InconsistentProblem:
            continue
        models.append(m)
    return models


def test_forward_check_gives_the_children_of_the_propagate_extension():
    # at every depth a 3000 target visits, from the same frontier: the same
    # children in the same order as the extension of a copy that propagates,
    # and a fixed next variable's entry is its own only child, the same object
    seen = {"negative lo": 0, "removal off the span": 0, "cascade fix": 0, "cascade failure": 0}
    for m in _forward_check_models():
        assert m.open_domains_decide
        closed = _propagating_copy(m)
        assert not closed.open_domains_decide
        seen["negative lo"] += m.lo < 0
        frontier = [root_domains(m)[0]]
        depth = 0
        while frontier and len(frontier) < 3000 and depth < m.n:
            want = decomposition._extend(closed, depth, frontier)
            got = decomposition._extend(m, depth, frontier)
            assert got == want, (m.name, m.constraints, depth)
            parents = {id(doms) for doms in frontier}
            assert [c for c in got if id(c) in parents] == [
                doms for doms in frontier if doms[depth].bit_count() == 1
            ]
            # the fixes that a removal made, and the extensions whose first
            # removals empty nothing yet still fail
            prefixes = {tuple(c[: depth + 1]) for c in got}
            for doms in frontier:
                d = doms[depth]
                while d & (d - 1):
                    low = d & -d
                    d ^= low
                    child = doms[:]
                    child[depth] = low
                    fixes = False
                    for u, mask in m.removals(depth, low.bit_length() - 1):
                        if child[u] & mask:
                            child[u] &= ~mask
                            fixes |= child[u] & (child[u] - 1) == 0
                    if all(child):
                        survives = tuple(child[: depth + 1]) in prefixes
                        seen["cascade fix"] += fixes and survives
                        seen["cascade failure"] += not survives
            frontier = want
            depth += 1
        for c in m.constraints:
            if isinstance(c, NotEqual):
                # x - offset or y + offset off the span for some declared value
                off = {v - c.offset for v in m.variables[c.x].values}
                off |= {v + c.offset for v in m.variables[c.y].values}
                seen["removal off the span"] += any(
                    not m.lo <= v < m.lo + m.ubits for v in off
                )
    assert all(seen.values()), seen


@pytest.mark.parametrize("target", [5, 40, 300])
def test_forward_check_decomposes_as_the_reference(target):
    for m in _forward_check_models()[::4]:
        prefixes, depth = reference_decomposition(m, target)
        d = decompose(m, DecompositionConfig(target_count=target))
        assert ([s.assignment for s in d.subproblems], d.prefix_len) == (prefixes, depth), (
            m.name, m.constraints)


def test_removal_table_holds_only_the_pairs_the_decomposition_fixed():
    # three variables whose values span 0..65535 under one all_different:
    # an eager table would hold 65 536 rows per variable
    doc = {
        "name": "wide",
        "variables": [
            {"id": "a", "domain": {"values": [0, 40000, 65535]}},
            {"id": "b", "domain": [0, 1, 40000, 65535]},
            {"id": "c", "domain": [1, 2, 65535]},
        ],
        "constraints": [{"kind": "all_different", "vars": ["a", "b", "c"]}],
    }
    m = model_from_dict(doc)
    assert m.ubits == 1 << 16 and m.open_domains_decide
    d = decompose(m, DecompositionConfig(target_count=10))
    closed = model_from_dict(doc)
    closed.open_domains_decide = False  # extends through _propagate
    assert decompose(closed, DecompositionConfig(target_count=10)) == d
    assert closed.removal_rows == ({}, {}, {})
    # the pairs each depth fixes: its variable's values, and the variables
    # that its children's propagation fixed
    fixed = set()
    frontier = [root_domains(m)[0]]
    for depth in range(d.prefix_len):
        fixed |= {(depth, v) for doms in frontier for v in m.decode(doms[depth])}
        parents = frontier
        frontier = decomposition._extend(closed, depth, parents)
        fixed |= {
            (u, m.decode(child[u])[0])
            for child in frontier
            for u in range(m.n)
            if child[u].bit_count() == 1 and all(doms[u] != child[u] for doms in parents)
        }
    table = {(v, i + m.lo) for v, row in enumerate(m.removal_rows) for i in row}
    assert table == fixed
    # at most one row per declared value, and one for each value of a
    assert len(table) <= 10 and {v for u, v in table if u == 0} == {0, 40000, 65535}


def test_root_inconsistent_raises():
    m = Model("bad", [VariableDecl("a", (1,)), VariableDecl("b", (1,))], [AllDifferent((0, 1))])
    with pytest.raises(InconsistentProblem, match="model 'bad' is inconsistent"):
        decompose(m, DecompositionConfig(target_count=5))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("workers", [1, 2])
def test_unsatisfiable_consistent_root_gives_the_root(n, workers):
    # the root prunes nothing, but every value of q0 fails: the frontier
    # empties at depth 1, and the root is the largest frontier seen
    m = nqueens(n)
    d = decompose(m, DecompositionConfig(target_count=5, worker_count=workers))
    assert d.prefix_len == 0 and d.shortfall and d.work == n
    assert [(s.id, s.assignment, s.domains) for s in d.subproblems] == [
        (0, (), tuple(root_domains(m)[0]))
    ]


# ---------------------------------------------------------------------------
# forked extension of the frontier, under conftest.py's two-CPU forks fixture


@fork_only
@pytest.mark.parametrize(
    "model_fn, target, forked_depths",
    [
        # every depth is pooled; one with a single frontier entry forks
        # nothing. allinterval(10)'s depths extend 1, 10, 90 and 680 entries
        # and reach the target
        (lambda: allinterval(10), 3000, 3),
        # golomb(8) is an optimization model: 1, 1 and 28 entries
        (lambda: golomb(8), 500, 1),
        # magicsquare(3) falls short: 1, 7, 20, 20 and 8 at each later depth
        (lambda: magicsquare(3), 10**9, 8),
        # golomb(8)'s two single-entry depths reach a target of 2
        (lambda: golomb(8), 2, 0),
    ],
    ids=["allinterval10", "golomb8", "magicsquare3", "golomb8-single-entries"],
)
def test_spans_and_forks_leave_the_decomposition_unchanged(forks, model_fn, target, forked_depths):
    m = model_fn()
    # the reference: every depth in this process, at 1 worker
    one = decompose(m, DecompositionConfig(target_count=target))
    assert forks == []
    for workers in (2, 3):
        d = decompose(m, DecompositionConfig(target_count=target, worker_count=workers))
        # subproblems (ids, assignments, domains), prefix_len, shortfall, work
        assert d == one
    # one worker process per pooled depth of more than one entry at 2 and at
    # 3 workers: two CPUs make a pool of this process and one fork
    assert len(forks) == 2 * forked_depths
    assert all_reaped(forks)


@fork_only
@pytest.mark.parametrize(
    "model_fn, target",
    [(lambda: nqueens(10), 3000), (lambda: latin(5), 3000)],
    ids=["nqueens10", "latin5"],
)
def test_open_domain_models_fork_no_decomposition_worker(forks, model_fn, target):
    # every depth, the largest of over 1000 assignments (nqueens(10)'s 4-7,
    # latin(5)'s 7 and 8), is forward-checked in the calling process
    m = model_fn()
    assert m.open_domains_decide
    one = decompose(m, DecompositionConfig(target_count=target))
    assert decompose(m, DecompositionConfig(target_count=target, worker_count=2)) == one
    assert forks == []


@fork_only
@pytest.mark.parametrize("workers", [1, 2])
def test_failing_extension_raises_task_failed(forks, monkeypatch, workers):
    m = allinterval(10)
    real = decomposition._propagate

    def broken(model, masks, watch, stack, set_vars=None):
        # depth 4 (3728 assignments) extends 680 entries after three pooled
        # depths of 1, 10 and 90; x0 = 7 lies in a chunk past the first
        if watch is model.watchers[3] and masks[0] == 1 << 7:
            raise ValueError("extension broke")
        return real(model, masks, watch, stack, set_vars)

    monkeypatch.setattr(decomposition, "_propagate", broken)
    with pytest.raises(TaskFailed) as exc:
        decompose(m, DecompositionConfig(target_count=3000, worker_count=workers))
    assert isinstance(exc.value.__cause__, ValueError)
    assert str(exc.value.__cause__) == "extension broke"
    # depths 2, 3 and 4 fork one worker each at 2 workers; depth 1 has one entry
    assert len(forks) == (3 if workers == 2 else 0)
    assert all_reaped(forks)


@fork_only
@pytest.mark.parametrize("workers", [1, 2])
def test_failing_first_extension_raises_task_failed(forks, monkeypatch, workers):
    # depth 1 of allinterval(10) extends the root, its only entry, in this
    # process, yet through the pool: its error is wrapped as at any depth
    real = decomposition._propagate

    def broken(model, masks, watch, stack, set_vars=None):
        if watch is model.watchers[0] and masks[0] == 1 << 3:
            raise ValueError("first extension broke")
        return real(model, masks, watch, stack, set_vars)

    monkeypatch.setattr(decomposition, "_propagate", broken)
    with pytest.raises(TaskFailed, match=r"^task 0 failed: ") as exc:
        decompose(allinterval(10), DecompositionConfig(target_count=3000, worker_count=workers))
    assert str(exc.value.__cause__) == "first extension broke"
    assert forks == []


@fork_only
@pytest.mark.parametrize("workers", [1, 2])
def test_failing_forward_check_raises_its_error(forks, monkeypatch, workers):
    # depth 5 of nqueens(10) (3724 assignments) ends the run in the calling
    # process, at either worker count, with no fork to wrap the error
    real = decomposition._cascade

    def broken(model, doms, fixed):
        if fixed == [4]:
            raise ValueError("forward check broke")
        return real(model, doms, fixed)

    monkeypatch.setattr(decomposition, "_cascade", broken)
    with pytest.raises(ValueError, match="^forward check broke$"):
        decompose(nqueens(10), DecompositionConfig(target_count=3000, worker_count=workers))
    assert forks == []


def test_fixed_next_variable_is_its_own_only_child(monkeypatch):
    # nqueens(10)'s depth-8 frontier: the propagation of the first eight
    # queens has fixed the ninth in some entries and not in others
    m = nqueens(10)
    frontier = [root_domains(m)[0]]
    for depth in range(8):
        frontier = decomposition._extend(m, depth, frontier)
    fixed = [doms for doms in frontier if doms[8].bit_count() == 1]
    assert fixed and len(fixed) < len(frontier)
    # the model forward-checks: count the cascades and the propagations
    calls = []
    for name in ("_cascade", "_propagate"):
        real = getattr(decomposition, name)
        monkeypatch.setattr(
            decomposition, name, lambda *a, real=real: calls.append(a[1]) or real(*a)
        )
    for doms in fixed:
        children = decomposition._extend(m, 8, [doms])
        assert len(children) == 1 and children[0] is doms
    assert calls == []
    open_entry = next(doms for doms in frontier if doms[8].bit_count() > 1)
    decomposition._extend(m, 8, [open_entry])
    assert len(calls) == open_entry[8].bit_count()


def _extend_propagating_every_value(model, depth, entries):
    """The extension without the fixed-variable rule: every value of every
    entry copied and propagated."""
    children = []
    for doms in entries:
        d = doms[depth]
        while d:
            low = d & -d
            d ^= low
            d2 = doms[:]
            d2[depth] = low
            if decomposition._propagate(model, d2, model.watchers[depth], [])[0] < 0:
                children.append(d2)
    return children


@fork_only
@pytest.mark.parametrize(
    "model_fn, target",
    [(lambda: nqueens(10), 3000), (lambda: latin(5), 3000), (lambda: golomb(8), 500)],
    ids=["nqueens10", "latin5", "golomb8"],
)
def test_fixed_variable_rule_leaves_the_decomposition_unchanged(
    forks, monkeypatch, model_fn, target
):
    # against a reference at 1 worker that propagates every extension, at 1
    # and 2 workers (every depth goes through the pool, which forks at 2)
    m = model_fn()
    m.open_domains_decide = False  # nqueens and latin propagate through the pool too
    cfgs = [DecompositionConfig(target_count=target, worker_count=w) for w in (1, 2)]
    ruled = [decompose(m, cfg) for cfg in cfgs]
    monkeypatch.setattr(decomposition, "_extend", _extend_propagating_every_value)
    assert ruled == [decompose(m, cfgs[0])] * 2
    assert all_reaped(forks)


def test_frontier_over_the_mask_bound_is_refused(monkeypatch, capsys):
    # latin(4) never reaches a target of a million: its largest depth extends
    # 576 prefixes of 16 variables (9216 masks) into prefix length 11
    m = latin(4)
    cfg = DecompositionConfig(target_count=10**6)
    whole = decompose(m, cfg)
    assert (len(whole), whole.prefix_len, whole.shortfall) == (576, 11, True)
    monkeypatch.setattr(decomposition, "MAX_FRONTIER_MASKS", 9216)
    assert decompose(m, cfg) == whole
    monkeypatch.setattr(decomposition, "MAX_FRONTIER_MASKS", 9215)
    message = (
        "decomposition target 1000000 is out of reach in memory: prefix length 11 "
        "would hold up to 576 prefixes of 16 domains, more than "
        "MAX_FRONTIER_MASKS=9215 masks"
    )
    with pytest.raises(ValueError) as exc:
        decompose(m, cfg)
    assert str(exc.value) == message
    argv = ["decompose", "--model", "latin", "--n", "4", "--target-subproblems", "1000000"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_srs_full_population():
    assert srs_sample(10, 10, seed=3) == list(range(10))


def test_srs_empty():
    assert srs_sample(10, 0, 1) == []


def test_srs_reproducible():
    a = srs_sample(16635, 100, seed=42)
    b = srs_sample(16635, 100, seed=42)
    assert a == b == sorted(a)
    assert len(set(a)) == 100
    c = srs_sample(16635, 100, seed=43)
    assert a != c


def test_srs_rejects_oversample():
    with pytest.raises(ValueError):
        srs_sample(5, 6, 0)


def test_srs_rejects_a_negative_seed():
    # random.Random(-7) would draw seed 7's sample
    with pytest.raises(ValueError, match=r"^sample seed must be >= 0, got -7$"):
        srs_sample(100, 5, -7)
    assert srs_sample(100, 5, 0) != srs_sample(100, 5, 7)


def test_srs_uniformity():
    # k=1 from N=10 over many seeds: inclusion frequency within 5 sigma
    N = 10
    trials = 10_000
    counts = [0] * N
    for seed in range(trials):
        counts[srs_sample(N, 1, seed)[0]] += 1
    p = 1.0 / N
    sigma = math.sqrt(trials * p * (1 - p))
    for c in counts:
        assert abs(c - trials * p) < 5 * sigma


def test_sample_size_rule():
    assert sample_size_rule(100) == 30
    assert sample_size_rule(3000) == 30
    assert sample_size_rule(16635) == 167  # ceil(1%)
    assert sample_size_rule(10) == 10  # capped by the population
