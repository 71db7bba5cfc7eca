"""Linear programs, two ways.

* exact mode: a primal simplex over Fractions with Bland's rule
  (terminates, no tolerance anywhere). It takes only the form its callers
  pose, max c.x over <= rows with right-hand sides >= 0, so it starts from
  the slack basis and needs no phase one; it is meant for the desk-scale
  programs this package solves, not for large instances.
* float mode: one HiGHS dual simplex solve through scipy's bindings to it,
  ``highs_solve``, which hands back x, the row duals and the iteration
  count. ``linprog_float`` adapts the dense-row form onto it and reports
  the residuals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np
# scipy.optimize before its private submodule: naming the submodule first
# made a fresh process's import of this package about 0.25 s slower
# (scipy 1.17.1, where scipy.special's start-up work grew 80 -> 330 ms)
import scipy.optimize
from scipy import sparse

try:
    from scipy.optimize._highspy import _core
except ImportError as exc:  # a private module: a scipy release may move it
    raise ImportError(
        "hypermatch.lp needs scipy's private HiGHS bindings "
        f"(scipy.optimize._highspy._core), and the installed scipy {scipy.__version__} "
        "has none; the package was tested with scipy 1.17.1, which ships them"
    ) from exc

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


# The options linprog(method="highs") hands HiGHS, so that HiGHS sees the
# same model under the same settings and stops at the same optimal vertex.
_OPTIONS = _core.HighsOptions()
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone

_STATUS = {
    _core.HighsModelStatus.kOptimal: OPTIMAL,
    _core.HighsModelStatus.kInfeasible: INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: UNBOUNDED,
}


def highs_solve(c, a, row_lower, row_upper, col_upper=None):
    """HiGHS: minimize c.x subject to row_lower <= a @ x <= row_upper, x >= 0.

    ``a`` is a ``scipy.sparse`` matrix or dense rows; a row bound of -inf or
    inf is absent, and ``col_upper``, if given, bounds x above. Returns
    (status, x, row_duals, value, iterations), status OPTIMAL, INFEASIBLE or
    UNBOUNDED; x, row_duals and value are None unless OPTIMAL. ``row_duals``
    are d(value)/d(bound) of each row, linprog's marginals, and
    ``iterations`` the simplex iterations. Any other outcome raises
    RuntimeError naming HiGHS's model status.
    """
    a = sparse.csc_array(a)
    nrow, ncol = a.shape
    lp = _core.HighsLp()
    lp.num_col_ = ncol
    lp.num_row_ = nrow
    lp.col_cost_ = np.asarray(c, dtype=np.float64)
    lp.col_lower_ = np.zeros(ncol)
    lp.col_upper_ = (
        np.full(ncol, np.inf) if col_upper is None else np.asarray(col_upper, dtype=np.float64)
    )
    lp.row_lower_ = np.asarray(row_lower, dtype=np.float64)
    lp.row_upper_ = np.asarray(row_upper, dtype=np.float64)
    mat = lp.a_matrix_
    mat.format_ = _core.MatrixFormat.kColwise
    mat.num_col_ = ncol
    mat.num_row_ = nrow
    mat.start_ = a.indptr
    mat.index_ = a.indices
    mat.value_ = a.data
    highs = _core._Highs()
    highs.passOptions(_OPTIONS)
    if highs.passModel(lp) == _core.HighsStatus.kError:
        raise RuntimeError("LP solver failed: HiGHS refused the model")
    highs.run()
    model_status = highs.getModelStatus()
    status = _STATUS.get(model_status)
    if status is None:
        name = highs.modelStatusToString(model_status)
        raise RuntimeError(f"LP solver failed: model status {name}")
    info = highs.getInfo()
    if status != OPTIMAL:
        return status, None, None, None, info.simplex_iteration_count
    solution = highs.getSolution()
    return (
        OPTIMAL,
        np.array(solution.col_value),
        np.array(solution.row_dual),
        info.objective_function_value,
        info.simplex_iteration_count,
    )


def linprog_float(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    bounds=(0, 1),
    maximize: bool = False,
):
    """``highs_solve`` on dense <= rows and == rows, posed in that order.

    ``bounds`` is (0, upper), upper None for none. Returns (status, x, value,
    max constraint residual).
    """
    lower, upper = bounds
    if lower != 0:
        raise ValueError(f"linprog_float takes bounds (0, upper), not {bounds!r}")
    cv = np.asarray(c, dtype=float)
    nv = len(cv)

    def dense(a, b):
        if a is None or not len(a):
            return np.zeros((0, nv)), np.zeros(0)
        return np.asarray(a, dtype=float), np.asarray(b, dtype=float)

    (a_ub, b_ub), (a_eq, b_eq) = dense(a_ub, b_ub), dense(a_eq, b_eq)
    status, x, *_ = highs_solve(
        -cv if maximize else cv,
        np.vstack([a_ub, a_eq]),
        np.concatenate([np.full(len(b_ub), -np.inf), b_eq]),
        np.concatenate([b_ub, b_eq]),
        None if upper is None else np.full(nv, float(upper)),
    )
    if status != OPTIMAL:
        return status, None, None, None
    resid = max(
        0.0,
        float(np.max(a_ub @ x - b_ub, initial=0.0)),
        float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0)),
    )
    return OPTIMAL, x, float(cv @ x), resid
