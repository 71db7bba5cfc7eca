"""Linear programs, three ways.

* exact mode: a two-phase primal simplex over Fractions with Bland's rule
  (terminates, no tolerance anywhere); meant for the desk-scale programs
  this package solves, not for large instances.
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
    senses: Sequence[str],
    rhs: Sequence,
    maximize: bool = True,
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Optimize c.x over rows[i].x (senses[i]) rhs[i], x >= 0, exactly.

    senses entries are "<=", ">=" or "=". Returns (status, x, value).
    """
    nv = len(c)
    cmin = [Fraction(v) if not maximize else -Fraction(v) for v in c]
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    sn = list(senses)
    for i in range(len(a)):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
            sn[i] = {"<=": ">=", ">=": "<=", "=": "="}[sn[i]]

    m = len(a)
    n_slack = sum(1 for s in sn if s == "<=")
    n_surp = sum(1 for s in sn if s == ">=")
    n_art = sum(1 for s in sn if s in (">=", "="))
    ncols = nv + n_slack + n_surp + n_art

    zero = Fraction(0)
    one = Fraction(1)
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    art_cols: set[int] = set()
    si = nv
    pi = nv + n_slack
    ai = nv + n_slack + n_surp
    for i in range(m):
        row = a[i] + [zero] * (ncols - nv) + [b[i]]
        if sn[i] == "<=":
            row[si] = one
            basis.append(si)
            si += 1
        elif sn[i] == ">=":
            row[pi] = -one
            row[ai] = one
            basis.append(ai)
            art_cols.add(ai)
            pi += 1
            ai += 1
        else:
            row[ai] = one
            basis.append(ai)
            art_cols.add(ai)
            ai += 1
        tableau.append(row)

    def reduced_row(cost: list[Fraction]) -> list[Fraction]:
        obj = cost + [zero]
        for r, bv in enumerate(basis):
            coef = obj[bv]
            if coef:
                row = tableau[r]
                for j in range(ncols + 1):
                    obj[j] -= coef * row[j]
        return obj

    def pivot(obj: list[Fraction], r: int, col: int) -> None:
        prow = tableau[r]
        inv = one / prow[col]
        if inv != one:
            for j in range(ncols + 1):
                prow[j] *= inv
        for row in tableau:
            if row is prow:
                continue
            f = row[col]
            if f:
                for j in range(ncols + 1):
                    row[j] -= f * prow[j]
        f = obj[col]
        if f:
            for j in range(ncols + 1):
                obj[j] -= f * prow[j]
        basis[r] = col

    def run(obj: list[Fraction], banned: set[int]) -> str:
        while True:
            col = -1
            for j in range(ncols):
                if j not in banned and obj[j] < 0:
                    col = j
                    break
            if col < 0:
                return OPTIMAL
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
                return UNBOUNDED
            pivot(obj, r_best, col)

    if art_cols:
        phase1 = [one if j in art_cols else zero for j in range(ncols)]
        obj = reduced_row(phase1)
        run(obj, banned=set())
        if -obj[ncols] != 0:  # residual infeasibility (obj holds -value)
            return INFEASIBLE, None, None
        # pivot lingering artificials out of the basis where possible
        for r in range(m):
            if basis[r] in art_cols:
                for j in range(ncols):
                    if j not in art_cols and tableau[r][j] != 0:
                        pivot(obj, r, j)
                        break

    obj = reduced_row(cmin + [zero] * (ncols - nv))
    status = run(obj, banned=art_cols)
    if status != OPTIMAL:
        return status, None, None
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
