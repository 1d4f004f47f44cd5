"""Finite-domain constraint model with deterministic propagation.

Domains are encoded as integer bitmasks over a model-wide value offset, so
value-based pruning across variables (all-different) is plain bit arithmetic.
The propagation strength per constraint kind is fixed and documented below;
together with the FIFO queue order (seeded in constraint declaration order)
this makes every fixpoint fully deterministic. The queue is a plain list that
the loop walks while appending to it, which visits constraints first in,
first out:

* ``all_different``  -- value consistency: assigned values are removed from
  the other domains in scope, repeated to a local fixpoint; duplicate
  assigned values fail. The propagator is told what changed instead of
  re-deriving it. Each call keeps, per ``all_different``, the values fixed
  in its scope since its last pass: every prune that fixes a variable ORs
  the value into the entry of each ``all_different`` over it, once per place
  the variable takes in the scope (``Model.alldiffs_of``), except into the
  one running, and an entry that receives one value twice becomes -1. A pass
  fails at once on -1; otherwise its first scan removes the pending values
  from the open domains, each further scan removes only the values the
  previous scan fixed, and the pass stops once a scan fixes nothing. Two
  variables fixed to the same value in one scan fail when that scan ends,
  and so does a fix of a variable the scope repeats. The caller seeds the
  entries: without ``set_vars`` every fixed variable seeds them, which
  holds from any domains; with it, only the fixed variables among those it
  names, which holds when the domains were a fixpoint of every
  ``all_different`` before the caller set them. Then a value fixed before
  the call is gone from every open domain of the scope, and a pass ends
  with every value fixed so far gone from them, so a value fixed before an
  ``all_different``'s last pass cannot prune, and a pass with nothing
  pending is at its fixpoint: it counts as a pass and ends at once. Each
  pass therefore prunes, fails and counts exactly as one that scans its
  scope for every fixed value.
* ``linear_eq`` / ``linear_le`` -- bounds consistency on the weighted sum.
  Each round computes the sum's bounds once and then tightens every term
  against them; rounds repeat until one changes nothing. A ``linear_le``
  that names no variable twice stops after one round: a term with a
  positive coefficient only lowers its variable's max, one with a negative
  coefficient only raises its min, and the sum's lower bound reads neither,
  so a second round would compute the same bounds and prune nothing. A
  ``linear_eq`` that names no variable twice and has only coefficients of 1
  and -1 runs another round only when a bound it set landed in a hole: the
  variable's new min is above the ``nlo`` the round computed, or its new max
  below ``nhi``. Otherwise one round reaches its fixpoint. Write each term
  as t_i = c_i x_i with bounds [a_i, b_i] when the round starts, S and T for
  the sums of the a_i and of the b_i, and r for the right-hand side, with
  S <= r <= T (else the round fails). The round sets a_i' = max(a_i,
  r - T + b_i) and b_i' = min(b_i, r - S + a_i), integers that need no
  rounding, and a_i' <= b_i' since b_i - a_i <= T - S. Every b_j' >= a_j
  and every a_j' <= b_j, as S <= r <= T. Say every term now has exactly
  these bounds. The next round leaves a_i' in place iff the other terms'
  b_j' sum to at least r - a_i'. If b_j' = b_j for every j != i, they sum
  to T - b_i >= r - a_i' by the definition of a_i'. Otherwise some k != i
  has b_k' = r - S + a_k, and with b_j' >= a_j for the others the sum is
  at least r - S + a_k + (S - a_i - a_k) = r - a_i >= r - a_i'. The case
  of b_i' is the mirror image, and together they give S' <= r <= T' for the
  new sums, so the next round neither fails nor prunes. A coefficient of
  another size rounds the bounds, and a repeated variable aliases two
  terms, so such a ``linear_eq`` keeps its rounds until one prunes nothing.
  A coefficient of 0 is refused.
* ``abs_diff`` (z = \\|x - y\\|) -- value consistency on three distinct
  variables: a value survives iff it has a support in the other two domains, checked
  word-parallel with mask shifts. Each round walks z's values once: for a
  value v, ``t = (dy << v) | (dy >> v)`` holds the values at distance v from
  y's, so v is supported iff ``dx & t``, and a supported v adds ``t`` to x's
  supports and the values at distance v from x's to y's. When x, y and z are
  three distinct variables, one round reaches the fixpoint, because every
  value it keeps keeps its support: a kept v of z has a pair (a, b) of x and
  y values with \\|a - b\\| = v, and the round keeps a through (v, b) and b
  through (v, a); a kept value a of x has a v of z and a b of y with
  \\|a - b\\| = v, and the round keeps v through (a, b) and b through (v, a),
  and likewise for y. When z is x or y, or x is y, one variable's domain is
  written twice in a round, so rounds repeat until one leaves x and y
  unchanged. Both writes start from the round's first domain, so the second
  may undo a value the first fixed: such a round hands the ``all_different``
  pending values only what its final domains fixed. An aliased scope falls
  short of value consistency, because a round checks the two places of one
  variable as if they were two variables: ``AbsDiff(0, 1, 1)`` (y = \\|x -
  y\\|) with x = 4 and y in 0..7 stops at y in 0..4, although only y = 2
  has a support. Once every variable is fixed the check is exact, so no
  wrong solution follows.
* ``not_equal`` (x != y + offset) -- value removal once one side is assigned.

A prune wakes every constraint that watches its variable
(``Model.watchers``), and one that fixes the variable also hands its value
to the ``all_different`` pending values. On a model that
``open_domains_decide`` the decomposition and the search under every
strategy forward-check below the root with :func:`_cascade`, which reaches
the same fixpoint and fails where this loop fails. Only a search whose
strategy reads counters calls :func:`_propagate` there, to replay a
decision whose cascade failed: the cascade names neither the constraint
that fails nor the variables the queue prunes first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union


# Largest value span (max value - min value + 1) a model may have: every
# domain mask is that many bits wide, so a wider span is refused before any
# mask or value tuple is built.
MAX_DOMAIN_WIDTH = 1 << 16
# Most domain values a model may declare over all its variables, each held at
# about 36 bytes: a model at the cap (sixteen variables over the widest span)
# builds about 40 MB of domains, one over it none.
MAX_DOMAIN_VALUES = 1 << 20
# The most removal rows (Model.removals) one model stores in a process; past
# it each further row is computed on every use. A row over the widest span
# holds masks of up to 8 KB (one, shared, per all_different fix), so a full
# table of a 3-variable all_different over 0..65535 takes at most about
# 35 MB; nqueens(10) and latin(5) need 100 and 125 rows, latin(10) 1 000.
REMOVAL_ROWS = 1 << 12


class InconsistentProblem(ValueError):
    """Raised when an input required to be propagation-consistent is not."""


@dataclass(frozen=True)
class VariableDecl:
    name: str
    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(sorted(set(self.values)))
        if not vals:
            raise ValueError(f"variable {self.name!r} declared with an empty domain")
        object.__setattr__(self, "values", vals)


def var_range(name: str, lo: int, hi: int) -> VariableDecl:
    if lo > hi:
        raise ValueError(f"variable {name!r}: empty range [{lo}, {hi}]")
    check_domain_width(f"variable {name!r}", lo, hi)
    return VariableDecl(name, tuple(range(lo, hi + 1)))


def check_domain_width(what: str, lo: int, hi: int) -> None:
    """Refuse values spanning [lo, hi] if that is wider than MAX_DOMAIN_WIDTH."""
    if hi - lo + 1 > MAX_DOMAIN_WIDTH:
        raise ValueError(
            f"{what}: values span [{lo}, {hi}], wider than MAX_DOMAIN_WIDTH={MAX_DOMAIN_WIDTH}"
        )


def check_declared_values(what: str, count: int, cap: int = MAX_DOMAIN_VALUES) -> None:
    """Refuse a model whose variables declare ``count`` domain values in all
    if that is more than ``cap``; the JSON reader and every builtin generator
    check their count before they build any domain."""
    if count > cap:
        raise ValueError(
            f"{what}: the variables declare {count} domain values, more than "
            f"MAX_DOMAIN_VALUES={cap}"
        )


@dataclass(frozen=True)
class AllDifferent:
    vars: tuple[int, ...]

    @property
    def scope(self) -> tuple[int, ...]:
        return self.vars


@dataclass(frozen=True)
class LinearEq:
    """sum(coeffs[i] * vars[i]) == rhs"""

    coeffs: tuple[int, ...]
    vars: tuple[int, ...]
    rhs: int

    @property
    def scope(self) -> tuple[int, ...]:
        return self.vars


@dataclass(frozen=True)
class LinearLe:
    """sum(coeffs[i] * vars[i]) <= rhs"""

    coeffs: tuple[int, ...]
    vars: tuple[int, ...]
    rhs: int

    @property
    def scope(self) -> tuple[int, ...]:
        return self.vars


@dataclass(frozen=True)
class AbsDiff:
    """z == |x - y|"""

    x: int
    y: int
    z: int

    @property
    def scope(self) -> tuple[int, ...]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class NotEqual:
    """x != y + offset"""

    x: int
    y: int
    offset: int = 0

    @property
    def scope(self) -> tuple[int, ...]:
        return (self.x, self.y)


Constraint = Union[AllDifferent, LinearEq, LinearLe, AbsDiff, NotEqual]

_ALLDIFF, _LINEQ, _LINLE, _ABSDIFF, _NOTEQ = range(5)


@dataclass(frozen=True)
class Objective:
    var: int
    maximize: bool = False


class Model:
    """Immutable problem description plus precomputed propagation tables.

    A Model is built once and shared read-only by every worker; all mutable
    search state lives in the domain-mask lists handed to :func:`_propagate`.
    Only ``removal_rows`` grows, as a cache of values that the model's
    constraints determine, and it stops at ``REMOVAL_ROWS`` rows. The
    tables, per variable ``v``:

    * ``watchers[v]`` -- the constraints over ``v``, each once, in
      declaration order, woken when a prune narrows ``v``;
    * ``alldiffs_of[v]`` -- the ``all_different`` constraints over ``v``,
      once per place ``v`` takes in the scope, which a fix of ``v`` hands
      its value to;
    * ``static_degree[v]`` -- the number of constraints over ``v``;
    * ``removal_rows[v]`` -- the :meth:`removals` of ``v`` computed so far,
      keyed by bit index (filled on first use, until the table holds
      ``REMOVAL_ROWS`` rows).

    ``open_domains_decide`` is True when every constraint is an
    ``all_different`` or a ``not_equal`` over a scope that repeats no
    variable. Then the fixpoint below a fixpoint is the closure of the
    removal rows (:func:`_cascade`), which the decomposition and the search
    compute instead of propagating.
    """

    def __init__(
        self,
        name: str,
        variables: Sequence[VariableDecl],
        constraints: Sequence[Constraint],
        objective: Optional[Objective] = None,
    ):
        if not variables:
            raise ValueError("a model needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.name = name
        self.variables = tuple(variables)
        self.constraints = tuple(constraints)
        self.objective = objective
        self.n = len(variables)
        self.names = tuple(names)

        self.lo = min(v.values[0] for v in variables)
        hi = max(v.values[-1] for v in variables)
        check_domain_width(f"model {name!r}", self.lo, hi)
        self.ubits = hi - self.lo + 1

        base = self.lo
        masks = []
        for v in variables:
            m = 0
            for val in v.values:
                m |= 1 << (val - base)
            masks.append(m)
        self.initial_masks = tuple(masks)

        for ci, c in enumerate(self.constraints):
            scope = c.scope
            if not scope:
                raise ValueError(f"constraint #{ci} has empty scope")
            for v in scope:
                if not 0 <= v < self.n:
                    raise ValueError(f"constraint #{ci} references unknown variable index {v}")
            if isinstance(c, (LinearEq, LinearLe)):
                if len(c.coeffs) != len(c.vars):
                    raise ValueError(f"constraint #{ci}: coefficient/variable length mismatch")
                if 0 in c.coeffs:
                    zero = self.names[c.vars[c.coeffs.index(0)]]
                    raise ValueError(f"constraint #{ci}: variable {zero!r} has coefficient 0")
        if objective is not None and not 0 <= objective.var < self.n:
            raise ValueError("objective references unknown variable index")

        self.scopes = tuple(c.scope for c in self.constraints)

        # Compiled propagator table: plain tuples keyed by an int kind so the
        # propagation loop does no attribute lookups. The last field of a
        # linear or abs_diff entry is True when one round reaches its
        # fixpoint: a linear_le or abs_diff that repeats no variable, and a
        # linear_eq that repeats none and has only coefficients of 1 and -1,
        # unless one of its bounds lands in a hole (see the module docstring).
        props = []
        for c in self.constraints:
            if isinstance(c, AllDifferent):
                repeated = tuple(v for v, k in Counter(c.vars).items() if k > 1)
                props.append((_ALLDIFF, c.vars, repeated))
            elif isinstance(c, LinearEq):
                one_round = len(set(c.vars)) == len(c.vars) and set(c.coeffs) <= {1, -1}
                props.append((_LINEQ, tuple(zip(c.coeffs, c.vars)), c.rhs, one_round))
            elif isinstance(c, LinearLe):
                one_round = len(set(c.vars)) == len(c.vars)
                props.append((_LINLE, tuple(zip(c.coeffs, c.vars)), c.rhs, one_round))
            elif isinstance(c, AbsDiff):
                one_round = len({c.x, c.y, c.z}) == 3
                props.append((_ABSDIFF, c.x, c.y, c.z, one_round))
            elif isinstance(c, NotEqual):
                props.append((_NOTEQ, c.x, c.y, c.offset))
            else:
                raise TypeError(f"unknown constraint type {type(c).__name__}")
        self._props = tuple(props)
        # on such a model no propagator acts on a fixed variable's value below
        # a fixpoint, so the open domains decide the search under it (see
        # eps_select.search)
        self.open_domains_decide = all(
            p[0] == _ALLDIFF and not p[2] or p[0] == _NOTEQ and p[1] != p[2] for p in props
        )

        # the all_different constraints over each variable, once per place
        # the variable takes in the scope: a fix hands its value to each, so
        # a variable that a scope repeats hands it twice and fails there
        places: list[list[int]] = [[] for _ in range(self.n)]
        for ci, p in enumerate(props):
            if p[0] == _ALLDIFF:
                for v in p[1]:
                    places[v].append(ci)
        self.alldiffs_of = tuple(tuple(a) for a in places)

        watch: list[list[int]] = [[] for _ in range(self.n)]
        for ci, c in enumerate(self.constraints):
            for v in dict.fromkeys(c.scope):
                watch[v].append(ci)
        self.watchers = tuple(tuple(w) for w in watch)

        # static "most constrained" degree: number of constraints per variable
        self.static_degree = tuple(len(w) for w in self.watchers)
        self.removal_rows: tuple[dict[int, tuple[tuple[int, int], ...]], ...] = tuple(
            {} for _ in range(self.n)
        )
        # the rows stored in removal_rows
        self._rows_stored = 0

    def removals(self, v: int, i: int) -> tuple[tuple[int, int], ...]:
        """What fixing ``v`` to the value of bit ``i`` removes from the other
        variables through its ``all_different`` and ``not_equal``
        constraints: one ``(u, mask)`` pair per variable ``u`` that loses a
        value of the span, in the order the constraints over ``v`` first
        name ``u``. Each ``all_different`` over ``v`` removes bit ``i`` from
        the rest of its scope; ``NotEqual(v, y, offset)`` removes the bit of
        the value minus ``offset`` from ``y``, ``NotEqual(x, v, offset)``
        the bit of the value plus ``offset`` from ``x``. Computed once per
        ``(v, i)`` and kept in ``removal_rows[v][i]`` while the table holds
        fewer than ``REMOVAL_ROWS`` rows, else computed on every call; on a
        model that ``open_domains_decide`` it is all that the fix
        propagates."""
        row = self.removal_rows[v]
        got = row.get(i)
        if got is None:
            # a variable that loses only the value itself shares one mask
            bit = 1 << i
            masks: dict[int, int] = {}
            for ci in self.watchers[v]:
                p = self._props[ci]
                if p[0] == _ALLDIFF:
                    for u in p[1]:
                        if u != v:
                            masks[u] = masks[u] | bit if u in masks else bit
                elif p[0] == _NOTEQ:
                    u, o = (p[2], i - p[3]) if p[1] == v else (p[1], i + p[3])
                    if 0 <= o < self.ubits:
                        masks[u] = masks.get(u, 0) | 1 << o
            got = tuple(masks.items())
            if self._rows_stored < REMOVAL_ROWS:
                row[i] = got
                self._rows_stored += 1
        return got

    # -- mask helpers ------------------------------------------------------

    def value_bit(self, value: int) -> int:
        off = value - self.lo
        if 0 <= off < self.ubits:
            return 1 << off
        return 0

    def range_mask(self, a: int, b: int) -> int:
        """Mask of all representable values in [a, b]."""
        a = max(a - self.lo, 0)
        b = min(b - self.lo, self.ubits - 1)
        if a > b:
            return 0
        return ((1 << (b - a + 1)) - 1) << a

    def decode(self, mask: int) -> tuple[int, ...]:
        base = self.lo
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1 + base)
            mask ^= low
        return tuple(out)


def _cascade(
    model: Model, doms: list[int], fixed: list[int], pruned: Optional[list[int]] = None
) -> tuple[int, int]:
    """Forward checking: the removal cascade of the variables in ``fixed``.

    Each variable popped from ``fixed`` (a singleton in ``doms``) removes its
    :meth:`Model.removals` row from its neighbours, and a neighbour that a
    removal fixes is pushed in turn, until a domain empties or ``fixed`` is
    empty. Mutates ``doms`` and ``fixed`` in place, and appends each variable
    a removal narrows to ``pruned`` if given (duplicates possible). Returns
    ``(emptied variable or -1, rows applied)``, the row that emptied a domain
    included.
    On a model that ``open_domains_decide``, from a fixpoint in which the
    variables in ``fixed`` were just set, this reaches the fixpoint that
    :func:`_propagate` reaches, and fails where it fails (see
    :mod:`eps_select.decomposition`).
    """
    rows = model.removal_rows
    removals = model.removals
    applied = 0
    while fixed:
        v = fixed.pop()
        i = doms[v].bit_length() - 1
        applied += 1
        for u, m in rows[v].get(i) or removals(v, i):
            du = doms[u]
            if du & m:
                du &= ~m
                if not du:
                    return u, applied
                doms[u] = du
                if pruned is not None:
                    pruned.append(u)
                if du & (du - 1) == 0:
                    fixed.append(u)
    return -1, applied


def _propagate(
    model: Model,
    doms: list[int],
    wake: Iterable[int],
    pruned: list[int],
    set_vars: Optional[Iterable[int]] = None,
) -> tuple[int, int]:
    """Fixpoint loop over a FIFO queue of constraint indices.

    Mutates ``doms`` in place and appends every pruned variable index to
    ``pruned`` (duplicates possible; callers dedupe per decision). Returns
    ``(failing_constraint_index_or_minus_1, propagator_passes)``.

    ``set_vars`` names the variables the caller has just set on domains where
    every ``all_different`` was at its fixpoint; the fixed ones among them
    seed the ``all_different`` pending values. Without it, every fixed
    variable seeds them, which holds from any domains.
    """
    props = model._props
    watchers = model.watchers
    alldiffs_of = model.alldiffs_of
    base = model.lo
    ubits = model.ubits
    inq = bytearray(len(props))
    q = []
    for ci in wake:
        if not inq[ci]:
            inq[ci] = 1
            q.append(ci)
    qpush = q.append
    passes = 0
    # per all_different, the values fixed in its scope since its last pass,
    # or -1 once one of them arrived twice
    pend = [0] * len(props)
    for v in range(model.n) if set_vars is None else set_vars:
        d = doms[v]
        if d & (d - 1) == 0:
            for a in alldiffs_of[v]:
                e = pend[a]
                pend[a] = -1 if e & d else e | d

    # a list iterated while it grows is a FIFO queue; inq marks the unvisited
    for ci in q:
        inq[ci] = 0
        p = props[ci]
        kind = p[0]
        passes += 1

        if kind == _ALLDIFF:
            new = pend[ci]
            if new < 0:
                return ci, passes
            pend[ci] = 0
            scope = p[1]
            # Each scan removes only the values fixed since the previous one,
            # or since the last pass for the first scan: the older ones are
            # gone from every open domain already.
            while new:
                fixed = 0
                dup = False
                for v in scope:
                    d = doms[v]
                    if d & new and d & (d - 1):
                        nd = d & ~new
                        doms[v] = nd
                        pruned.append(v)
                        if not nd:
                            return ci, passes
                        if nd & (nd - 1) == 0:
                            if fixed & nd:
                                dup = True
                            fixed |= nd
                            for a in alldiffs_of[v]:
                                if a != ci:
                                    e = pend[a]
                                    pend[a] = -1 if e & nd else e | nd
                        for w in watchers[v]:
                            if w != ci and not inq[w]:
                                inq[w] = 1
                                qpush(w)
                if dup:
                    return ci, passes
                for v in p[2]:  # a variable the scope repeats may never be fixed
                    d = doms[v]
                    if d & (d - 1) == 0:
                        return ci, passes
                new = fixed

        elif kind == _LINEQ or kind == _LINLE:
            pairs = p[1]
            rhs = p[2]
            is_eq = kind == _LINEQ
            while True:
                smin = 0
                smax = 0
                for c, v in pairs:
                    d = doms[v]
                    vmin = (d & -d).bit_length() - 1 + base
                    vmax = d.bit_length() - 1 + base
                    if c > 0:
                        smin += c * vmin
                        smax += c * vmax
                    else:
                        smin += c * vmax
                        smax += c * vmin
                if smin > rhs or (is_eq and rhs > smax):
                    return ci, passes
                rerun = False
                for c, v in pairs:
                    d = doms[v]
                    vmin = (d & -d).bit_length() - 1 + base
                    vmax = d.bit_length() - 1 + base
                    if c > 0:
                        cmin = c * vmin
                        cmax = c * vmax
                    else:
                        cmin = c * vmax
                        cmax = c * vmin
                    rmin = smin - cmin
                    if is_eq:
                        rmax = smax - cmax
                        # c*x in [rhs - rmax, rhs - rmin]
                        if c > 0:
                            nlo = -((-(rhs - rmax)) // c)
                            nhi = (rhs - rmin) // c
                        else:
                            nlo = -((-(rhs - rmin)) // c)
                            nhi = (rhs - rmax) // c
                    else:
                        # c*x <= rhs - rmin
                        if c > 0:
                            nlo = vmin
                            nhi = (rhs - rmin) // c
                        else:
                            nlo = -((-(rhs - rmin)) // c)
                            nhi = vmax
                    if nlo > vmin or nhi < vmax:
                        a = max(nlo - base, 0)
                        b = min(nhi - base, ubits - 1)
                        nd = d & ((((1 << (b - a + 1)) - 1) << a) if a <= b else 0)
                        if nd != d:
                            doms[v] = nd
                            pruned.append(v)
                            if not nd:
                                return ci, passes
                            # a flagged scope reruns only when a linear_eq
                            # bound landed in a hole, past the nlo or nhi
                            # the round computed
                            if not p[3] or is_eq and (
                                nlo > vmin and not nd >> (nlo - base) & 1
                                or nhi < vmax and not nd >> (nhi - base) & 1
                            ):
                                rerun = True
                            if nd & (nd - 1) == 0:
                                for a in alldiffs_of[v]:
                                    e = pend[a]
                                    pend[a] = -1 if e & nd else e | nd
                            for w in watchers[v]:
                                if w != ci and not inq[w]:
                                    inq[w] = 1
                                    qpush(w)
                if not rerun:
                    break

        elif kind == _ABSDIFF:
            x = p[1]
            y = p[2]
            z = p[3]
            while True:
                dx = doms[x]
                dy = doms[y]
                dz = doms[z]
                # one walk over z: t marks the x values at distance v from
                # some y value, so z keeps v iff dx & t, and then x keeps
                # t's values and y keeps the values at distance v from dx
                nz = 0
                sup_x = 0
                sup_y = 0
                d = dz
                while d:
                    low = d & -d
                    d ^= low
                    v = low.bit_length() - 1 + base
                    if v >= 0:
                        t = (dy << v) | (dy >> v)
                        if dx & t:
                            nz |= low
                            sup_x |= t
                            sup_y |= (dx << v) | (dx >> v)
                nx = dx & sup_x
                ny = dy & sup_y
                # a distinct scope hands each fix over at once, an aliased
                # one after the round (below)
                if nz != dz:
                    doms[z] = nz
                    pruned.append(z)
                    if not nz:
                        return ci, passes
                    if p[4] and nz & (nz - 1) == 0:
                        for a in alldiffs_of[z]:
                            e = pend[a]
                            pend[a] = -1 if e & nz else e | nz
                    for w in watchers[z]:
                        if w != ci and not inq[w]:
                            inq[w] = 1
                            qpush(w)
                if nx != dx:
                    doms[x] = nx
                    pruned.append(x)
                    if not nx:
                        return ci, passes
                    if p[4] and nx & (nx - 1) == 0:
                        for a in alldiffs_of[x]:
                            e = pend[a]
                            pend[a] = -1 if e & nx else e | nx
                    for w in watchers[x]:
                        if w != ci and not inq[w]:
                            inq[w] = 1
                            qpush(w)
                if ny != dy:
                    doms[y] = ny
                    pruned.append(y)
                    if not ny:
                        return ci, passes
                    if p[4] and ny & (ny - 1) == 0:
                        for a in alldiffs_of[y]:
                            e = pend[a]
                            pend[a] = -1 if e & ny else e | ny
                    for w in watchers[y]:
                        if w != ci and not inq[w]:
                            inq[w] = 1
                            qpush(w)
                # on a distinct scope no second round prunes anything
                if p[4]:
                    break
                # An aliased scope wrote a variable twice, each time from its
                # domain at the round's start, so the first write may have
                # fixed it to a value the second does not keep: hand over
                # the values the round's final domains fixed, once each.
                for u, du in {z: dz, x: dx, y: dy}.items():
                    nu = doms[u]
                    if nu != du and nu & (nu - 1) == 0:
                        for a in alldiffs_of[u]:
                            e = pend[a]
                            pend[a] = -1 if e & nu else e | nu
                # z only narrows to the values x and y support, so a round
                # that left x and y as they were has nothing left to prune
                if doms[x] == dx and doms[y] == dy:
                    break

        else:  # _NOTEQ
            x = p[1]
            y = p[2]
            off = p[3]
            dx = doms[x]
            dy = doms[y]
            if dx & (dx - 1) == 0:
                o = dx.bit_length() - 1 - off  # bit of the value x - offset
                if 0 <= o < ubits and dy >> o & 1:
                    dy ^= 1 << o
                    doms[y] = dy
                    pruned.append(y)
                    if not dy:
                        return ci, passes
                    if dy & (dy - 1) == 0:
                        for a in alldiffs_of[y]:
                            e = pend[a]
                            pend[a] = -1 if e & dy else e | dy
                    for w in watchers[y]:
                        if w != ci and not inq[w]:
                            inq[w] = 1
                            qpush(w)
            if dy & (dy - 1) == 0:
                o = dy.bit_length() - 1 + off  # bit of the value y + offset
                if 0 <= o < ubits and dx >> o & 1:
                    nd = dx ^ (1 << o)
                    doms[x] = nd
                    pruned.append(x)
                    if not nd:
                        return ci, passes
                    if nd & (nd - 1) == 0:
                        for a in alldiffs_of[x]:
                            e = pend[a]
                            pend[a] = -1 if e & nd else e | nd
                    for w in watchers[x]:
                        if w != ci and not inq[w]:
                            inq[w] = 1
                            qpush(w)

    return -1, passes
