"""Linear programs, three ways.

* exact mode: a primal simplex over Fractions with Bland's rule
  (terminates, no tolerance anywhere). It takes only the form its callers
  pose, max c.x over <= rows with right-hand sides >= 0, so it starts from
  the slack basis and needs no phase one; it is meant for the desk-scale
  programs this package solves, not for large instances.
* float mode on dense rows: scipy's HiGHS via linprog, with residuals
  reported back.
* float mode on a sparse matrix: one HiGHS solve that hands back the row
  duals too, so a caller can read both sides of a duality pair from it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def simplex_rational(
    c: Sequence,
    rows: Sequence[Sequence],
    rhs: Sequence,
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize c.x over rows[i].x <= rhs[i], x >= 0, exactly.

    Every rhs[i] must be >= 0, so the slack basis is a feasible start;
    a negative one raises ValueError. Returns (status, x, value), status
    OPTIMAL or UNBOUNDED.
    """
    b = [Fraction(v) for v in rhs]
    if any(v < 0 for v in b):
        raise ValueError("simplex_rational needs every right-hand side >= 0")
    nv, m = len(c), len(rows)
    ncols = nv + m

    zero = Fraction(0)
    one = Fraction(1)
    tableau: list[list[Fraction]] = []
    for i, row in enumerate(rows):
        t = [Fraction(v) for v in row] + [zero] * m + [b[i]]
        t[nv + i] = one
        tableau.append(t)
    basis = list(range(nv, ncols))
    # reduced costs of min -c.x from the slack basis; the last cell holds -value
    obj = [-Fraction(v) for v in c] + [zero] * (m + 1)

    # Bland's rule: the first improving column enters, and a tie in the
    # ratio test goes to the row with the smallest basic column
    while True:
        col = next((j for j in range(ncols) if obj[j] < 0), -1)
        if col < 0:
            break
        r_best, ratio_best = -1, None
        for r in range(m):
            arc = tableau[r][col]
            if arc > 0:
                ratio = tableau[r][ncols] / arc
                if (
                    ratio_best is None
                    or ratio < ratio_best
                    or (ratio == ratio_best and basis[r] < basis[r_best])
                ):
                    r_best, ratio_best = r, ratio
        if r_best < 0:
            return UNBOUNDED, None, None
        prow = tableau[r_best]
        inv = one / prow[col]
        if inv != one:
            for j in range(ncols + 1):
                prow[j] *= inv
        for row in tableau + [obj]:
            if row is prow:
                continue
            f = row[col]
            if f:
                for j in range(ncols + 1):
                    row[j] -= f * prow[j]
        basis[r_best] = col

    x = [zero] * nv
    for r, bv in enumerate(basis):
        if bv < nv:
            x[bv] = tableau[r][ncols]
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), zero)
    return OPTIMAL, x, value


def _status(res) -> str:
    """OPTIMAL, INFEASIBLE or UNBOUNDED from a linprog result; other failures raise."""
    if res.status == 2:
        return INFEASIBLE
    if res.status == 3:
        return UNBOUNDED
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    return OPTIMAL


def linprog_float(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    bounds=(0, 1),
    maximize: bool = False,
):
    """HiGHS solve; returns (status, x, value, max constraint residual)."""
    cv = np.asarray(c, dtype=float)
    res = linprog(
        -cv if maximize else cv,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    status = _status(res)
    if status != OPTIMAL:
        return status, None, None, None
    x = res.x
    resid = 0.0
    if a_ub is not None and len(a_ub):
        resid = max(resid, float(np.max(np.asarray(a_ub) @ x - np.asarray(b_ub), initial=0.0)))
    if a_eq is not None and len(a_eq):
        resid = max(resid, float(np.max(np.abs(np.asarray(a_eq) @ x - np.asarray(b_eq)), initial=0.0)))
    value = float(cv @ x)
    return OPTIMAL, x, value, resid


def linprog_sparse(c, a_ub, b_ub):
    """HiGHS minimize c.x subject to a_ub @ x <= b_ub and x >= 0.

    ``a_ub`` may be a ``scipy.sparse`` matrix. Returns (status, x, duals,
    value); ``duals`` are the row marginals d(value)/d(b_ub), all <= 0.
    """
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    status = _status(res)
    if status != OPTIMAL:
        return status, None, None, None
    return OPTIMAL, res.x, res.ineqlin.marginals, float(res.fun)
