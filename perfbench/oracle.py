"""Integer-programming oracle for the k-rainbow independent domination number.

Independent of the program's solvers: the optimum of a 0/1 program on
``scipy.optimize.milp`` (HiGHS).  Variable ``x[v, c]`` says vertex ``v``
carries colour ``c`` in ``1..k``.

* each vertex carries at most one colour;
* each colour class is independent: ``x[u, c] + x[v, c] <= 1`` on every edge;
* a vertex with no colour sees every colour among its neighbours:
  ``sum_c x[v, c'] + sum_{u in N(v)} x[u, c] >= 1`` for every ``v`` and ``c``.

The objective is the number of coloured vertices.
"""

from __future__ import annotations

from typing import Optional, Sequence

try:
    import numpy as np
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import lil_array
except ImportError:  # the oracle is optional; callers report the skip
    milp = None


def available() -> bool:
    return milp is not None


def ilp_optimum(n: int, adj: Sequence[int], k: int) -> Optional[int]:
    """Exact optimum, or ``None`` when scipy is not installed."""
    if milp is None:
        return None
    if n == 0:
        return 0
    var = lambda v, c: v * k + (c - 1)  # noqa: E731
    edges = [(u, v) for v in range(n) for u in range(v) if adj[v] >> u & 1]
    rows = n + len(edges) * k + n * k
    a = lil_array((rows, n * k))
    lo = np.zeros(rows)
    hi = np.zeros(rows)
    r = 0
    for v in range(n):
        for c in range(1, k + 1):
            a[r, var(v, c)] = 1
        lo[r], hi[r] = 0, 1
        r += 1
    for u, v in edges:
        for c in range(1, k + 1):
            a[r, var(u, c)] = 1
            a[r, var(v, c)] = 1
            lo[r], hi[r] = 0, 1
            r += 1
    for v in range(n):
        for c in range(1, k + 1):
            for c2 in range(1, k + 1):
                a[r, var(v, c2)] = 1
            for u in range(n):
                if adj[v] >> u & 1:
                    a[r, var(u, c)] += 1
            lo[r], hi[r] = 1, np.inf
            r += 1
    res = milp(
        c=np.ones(n * k),
        constraints=LinearConstraint(a.tocsr(), lo, hi),
        integrality=np.ones(n * k),
        bounds=(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"milp did not reach optimality: {res.message}")
    return int(round(res.fun))
