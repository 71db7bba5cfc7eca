"""Linear programs, two ways.

* exact mode: a primal simplex over Fractions with Bland's rule
  (terminates, no tolerance anywhere). It takes only the form its callers
  pose, max c.x over <= rows with right-hand sides >= 0, so it starts from
  the slack basis and needs no phase one; it is meant for the desk-scale
  programs this package solves, not for large instances.
* float mode: one HiGHS dual simplex solve, ``highs_solve``, on a matrix
  given as a CSC triplet of numpy arrays; it hands back x, the row duals and
  the iteration count. ``linprog_float`` adapts dense equality rows,
  0 <= x <= 1, onto it and reports the residual.

HiGHS is reached through scipy's compiled bindings to it, the extension
module ``scipy.optimize._highspy._core``. This module loads that one file
and nothing else of scipy's: importing ``scipy.optimize`` or
``scipy.sparse`` would take most of a fresh process's start-up. The
extension is loaded on the first ``highs_solve`` call, not on import, so a
process that solves no LP never maps it; it is loaded once per process and
shared with scipy, whichever of the two loads it first.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

_CORE = "scipy.optimize._highspy._core"


def _load_core():
    """scipy's HiGHS extension, loaded from its file without ``scipy.optimize``.

    pybind11 registers the extension's types once per process, so a second
    load of the file fails. A copy already in ``sys.modules`` (scipy's own,
    or this function's) is reused, and a copy loaded here is registered
    under scipy's name, where ``scipy.optimize`` finds it when it is
    imported later. Raises ImportError naming the scipy release tested if
    the file is missing or does not load.
    """
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    spec = importlib.util.find_spec("scipy")
    places = (spec and spec.submodule_search_locations) or ()
    files = (
        os.path.join(place, "optimize", "_highspy", "_core" + suffix)
        for place in places
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    )
    path = next(filter(os.path.isfile, files), None)
    try:
        if path is None:
            raise ImportError(f"no {_CORE} extension file")
        loader = importlib.machinery.ExtensionFileLoader(_CORE, path)
        core = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(_CORE, path, loader=loader)
        )
        sys.modules[_CORE] = core
        loader.exec_module(core)
    except ImportError as exc:  # a private module: a scipy release may move it
        sys.modules.pop(_CORE, None)
        import scipy  # only to name the release

        raise ImportError(
            "hypermatch.lp needs scipy's private HiGHS bindings "
            f"({_CORE}), and the installed scipy {scipy.__version__} "
            "has none; the package was tested with scipy 1.17.1, which ships them"
        ) from exc
    return core


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


@functools.cache
def _highs():
    """(extension, options, status map) for ``highs_solve``, built on the first call.

    The options are those ``linprog(method="highs")`` hands HiGHS, so that
    HiGHS sees the same model under the same settings and stops at the same
    optimal vertex. A failed load is not cached: each call raises again.
    """
    core = _load_core()
    options = core.HighsOptions()
    options.output_flag = False
    options.log_to_console = False
    options.presolve = "on"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    statuses = {
        core.HighsModelStatus.kOptimal: OPTIMAL,
        core.HighsModelStatus.kInfeasible: INFEASIBLE,
        core.HighsModelStatus.kUnbounded: UNBOUNDED,
    }
    return core, options, statuses


def highs_solve(c, csc, row_lower, row_upper, col_upper=None):
    """HiGHS: minimize c.x subject to row_lower <= A @ x <= row_upper, x >= 0.

    ``csc`` is A as a CSC triplet ``(start, index, value)``: the entries of
    column j are ``value[start[j]:start[j + 1]]`` in the rows
    ``index[start[j]:start[j + 1]]``, ascending. A has ``len(c)`` columns and
    ``len(row_lower)`` rows. A row bound of -inf or inf is absent, and
    ``col_upper``, if given, bounds x above. Returns (status, x, row_duals,
    value, iterations), status OPTIMAL, INFEASIBLE or UNBOUNDED; x, row_duals
    and value are None unless OPTIMAL. ``row_duals`` are d(value)/d(bound)
    of each row, linprog's marginals, and ``iterations`` the simplex
    iterations. A triplet that does not fit the shape raises ValueError; any
    other outcome raises RuntimeError naming HiGHS's model status. The first
    call loads HiGHS (see ``_load_core``), and raises its ImportError if
    scipy has no bindings.
    """
    core, options, statuses = _highs()
    start, index, value = csc
    ncol, nrow = len(c), len(row_lower)
    if len(start) != ncol + 1 or not len(index) == len(value) == start[-1]:
        raise ValueError(
            f"a CSC triplet for {ncol} columns needs {ncol + 1} starts and start[-1] "
            f"entries; got {len(start)} starts, {len(index)} rows and {len(value)} values"
        )
    lp = core.HighsLp()
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
    mat.format_ = core.MatrixFormat.kColwise
    mat.num_col_ = ncol
    mat.num_row_ = nrow
    mat.start_ = start
    mat.index_ = index
    mat.value_ = value
    highs = core._Highs()
    highs.passOptions(options)
    if highs.passModel(lp) == core.HighsStatus.kError:
        raise RuntimeError("LP solver failed: HiGHS refused the model")
    highs.run()
    model_status = highs.getModelStatus()
    status = statuses.get(model_status)
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


def csc_of_dense(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of the 2-D array a as a CSC triplet, rows ascending in each column."""
    cols, rows = np.nonzero(a.T)
    start = np.zeros(a.shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=a.shape[1]), out=start[1:])
    return start, rows.astype(np.int32), a[rows, cols]


def linprog_float(c, a_eq, b_eq, maximize: bool = False):
    """``highs_solve`` on dense == rows, with 0 <= x <= 1.

    Returns (status, x, value, max constraint residual).
    """
    c = np.asarray(c, dtype=float)
    a_eq, b_eq = np.asarray(a_eq, dtype=float), np.asarray(b_eq, dtype=float)
    status, x, *_ = highs_solve(
        -c if maximize else c, csc_of_dense(a_eq), b_eq, b_eq, np.ones(len(c))
    )
    if status != OPTIMAL:
        return status, None, None, None
    resid = max(0.0, float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0)))
    return OPTIMAL, x, float(c @ x), resid
