"""The propagation kernel as it was before the incremental AllDifferent.

``reference_propagate`` is that kernel verbatim (only renamed): a FIFO
``deque`` and an AllDifferent that re-collects every fixed value and scans
its whole scope each round. The fuzz test in ``test_csp.py`` requires
``csp._propagate`` to match it call for call: the failing constraint index,
the pass count, the domains (also on failure) and the ``pruned`` sequence.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from eps_select.csp import _ABSDIFF, _ALLDIFF, _LINEQ, _LINLE, Model


def reference_propagate(
    model: Model,
    doms: list[int],
    wake: Iterable[int],
    pruned: list[int],
) -> tuple[int, int]:
    """Fixpoint loop over a FIFO queue of constraint indices.

    Mutates ``doms`` in place and appends every pruned variable index to
    ``pruned`` (duplicates possible; callers dedupe per decision). Returns
    ``(failing_constraint_index_or_minus_1, propagator_passes)``.
    """
    props = model._props
    watchers = model.watchers
    base = model.lo
    ubits = model.ubits
    nprops = len(props)
    inq = bytearray(nprops)
    q = deque()
    for ci in wake:
        if not inq[ci]:
            inq[ci] = 1
            q.append(ci)
    qpop = q.popleft
    qpush = q.append
    passes = 0

    while q:
        ci = qpop()
        inq[ci] = 0
        p = props[ci]
        kind = p[0]
        passes += 1

        if kind == _ALLDIFF:
            scope = p[1]
            changed = True
            while changed:
                changed = False
                amask = 0
                for v in scope:
                    d = doms[v]
                    if d & (d - 1) == 0:
                        if amask & d:
                            return ci, passes
                        amask |= d
                for v in scope:
                    d = doms[v]
                    if d & (d - 1):
                        nd = d & ~amask
                        if nd != d:
                            doms[v] = nd
                            pruned.append(v)
                            if not nd:
                                return ci, passes
                            changed = True
                            for w in watchers[v]:
                                if w != ci and not inq[w]:
                                    inq[w] = 1
                                    qpush(w)

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
                changed = False
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
                            changed = True
                            for w in watchers[v]:
                                if w != ci and not inq[w]:
                                    inq[w] = 1
                                    qpush(w)
                if not changed:
                    break

        elif kind == _ABSDIFF:
            x = p[1]
            y = p[2]
            z = p[3]
            while True:
                dx = doms[x]
                dy = doms[y]
                dz = doms[z]
                # z keeps v iff some pair differs by exactly v
                nz = 0
                d = dz
                while d:
                    low = d & -d
                    d ^= low
                    v = low.bit_length() - 1 + base
                    if v >= 0 and ((dx >> v) & dy or (dy >> v) & dx):
                        nz |= low
                # x keeps a iff a-v or a+v lands in dy for some surviving v
                sup_x = 0
                sup_y = 0
                d = nz
                while d:
                    low = d & -d
                    d ^= low
                    v = low.bit_length() - 1 + base
                    sup_x |= (dy << v) | (dy >> v)
                    sup_y |= (dx << v) | (dx >> v)
                nx = dx & sup_x
                ny = dy & sup_y
                changed = False
                for var_i, nd, od in ((z, nz, dz), (x, nx, dx), (y, ny, dy)):
                    if nd != od:
                        doms[var_i] = nd
                        pruned.append(var_i)
                        if not nd:
                            return ci, passes
                        changed = True
                        for w in watchers[var_i]:
                            if w != ci and not inq[w]:
                                inq[w] = 1
                                qpush(w)
                if not changed:
                    break

        else:  # _NOTEQ
            x = p[1]
            y = p[2]
            off = p[3]
            dx = doms[x]
            dy = doms[y]
            if dx & (dx - 1) == 0:
                vx = dx.bit_length() - 1 + base
                bit = model.value_bit(vx - off)
                if dy & bit:
                    nd = dy & ~bit
                    doms[y] = nd
                    pruned.append(y)
                    if not nd:
                        return ci, passes
                    for w in watchers[y]:
                        if w != ci and not inq[w]:
                            inq[w] = 1
                            qpush(w)
                    dy = nd
            if dy & (dy - 1) == 0:
                vy = dy.bit_length() - 1 + base
                bit = model.value_bit(vy + off)
                if dx & bit:
                    nd = dx & ~bit
                    doms[x] = nd
                    pruned.append(x)
                    if not nd:
                        return ci, passes
                    for w in watchers[x]:
                        if w != ci and not inq[w]:
                            inq[w] = 1
                            qpush(w)

    return -1, passes
