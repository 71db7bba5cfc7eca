"""Cross-validation of the exact simplex and of the HiGHS entry point
against scipy's linprog and known optima."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

import hypermatch
from hypermatch import lp
from hypermatch.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    highs_solve,
    simplex_rational,
)


def test_tiny_max():
    # max x+y st x+y <= 1
    status, x, value = simplex_rational([1, 1], [[1, 1]], [1])
    assert status == OPTIMAL and value == 1


def test_unbounded_detected():
    status, _, _ = simplex_rational([1], [[-1]], [1])
    assert status == UNBOUNDED


def test_negative_rhs_raises():
    # -x <= -2 has no feasible slack start
    with pytest.raises(ValueError):
        simplex_rational([1], [[-1]], [-2])


def test_degenerate_redundant_rows():
    # duplicated rows make the first ratio test a tie
    status, x, value = simplex_rational(
        [1, 1], [[1, 1], [1, 1], [1, 0]], [1, 1, 1]
    )
    assert status == OPTIMAL and value == 1


def _check_against_highs(c, rows, rhs):
    status, x, value = simplex_rational(c, rows, rhs)
    assert status == OPTIMAL
    res = linprog(
        [-float(ci) for ci in c],
        A_ub=[[float(a) for a in row] for row in rows],
        b_ub=[float(b) for b in rhs],
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    assert abs(float(value) + res.fun) < 1e-7
    # solution feasibility, exactly
    assert all(xi >= 0 for xi in x)
    for row, b in zip(rows, rhs):
        lhs = sum(Fraction(a) * xi for a, xi in zip(row, x))
        assert lhs <= b


@pytest.mark.parametrize("seed", range(30))
def test_random_lps_match_highs(seed):
    rng = random.Random(seed)
    nv = rng.randint(2, 6)
    nr = rng.randint(1, 5)
    c = [rng.randint(-4, 6) for _ in range(nv)]
    rows = [[rng.randint(0, 4) for _ in range(nv)] for _ in range(nr)]
    rhs = [rng.randint(1, 9) for _ in range(nr)]
    # keep the region bounded
    rows.append([1] * nv)
    rhs.append(10)
    _check_against_highs(c, rows, rhs)


@pytest.mark.parametrize("seed", range(20))
def test_random_mixed_sense_lps_match_highs(seed):
    # a >= row with a positive right-hand side has no slack start, so >=
    # rows come only as a.x >= 0, written -a.x <= 0; their zero right-hand
    # sides make the slack start degenerate. The last row keeps the region
    # bounded.
    rng = random.Random(100 + seed)
    nv = rng.randint(2, 5)
    c = [rng.randint(-2, 5) for _ in range(nv)]
    rows, rhs = [], []
    for i in range(rng.randint(2, 5)):
        row = [rng.randint(0, 3) for _ in range(nv)]
        if i == 0 or rng.random() < 0.5:
            row[rng.randrange(nv)] = -rng.randint(1, 3)
            rows.append([-a for a in row])
            rhs.append(0)
        else:
            rows.append(row)
            rhs.append(rng.randint(2, 8))
    rows.append([1] * nv)
    rhs.append(rng.randint(1, 10))
    _check_against_highs(c, rows, rhs)


def test_sparse_solve_returns_row_duals():
    # min y1 + 2 y2 st y1 + y2 >= 1, y2 >= 1/2 (as <= rows): y = (1/2, 1/2),
    # value 3/2, row duals -1 and -1
    a = sparse.csr_array(np.array([[-1.0, -1.0], [0.0, -1.0]]))
    status, y, duals, value, iterations = highs_solve(
        np.array([1.0, 2.0]), a, np.full(2, -np.inf), np.array([-1.0, -0.5])
    )
    assert status == OPTIMAL
    assert np.allclose(y, [0.5, 0.5]) and abs(value - 1.5) < 1e-12
    assert np.allclose(duals, [-1.0, -1.0])
    assert isinstance(iterations, int) and iterations >= 0


def test_sparse_solve_with_no_rows():
    a = sparse.csr_array((0, 3))
    status, y, duals, value, iterations = highs_solve(np.ones(3), a, np.zeros(0), np.zeros(0))
    assert status == OPTIMAL and value == 0 and len(duals) == 0
    assert np.array_equal(y, np.zeros(3))
    assert iterations == 0


def test_sparse_solve_reports_infeasible():
    # y1 <= -1 with y1 >= 0
    a = sparse.csr_array(np.array([[1.0]]))
    status, *rest = highs_solve(np.ones(1), a, np.array([-np.inf]), np.array([-1.0]))
    assert status == INFEASIBLE
    assert rest[:3] == [None, None, None]


def test_unbounded_reported():
    # min -x1 - x2 st x1 - x2 <= 1: x2 grows without bound
    status, *rest = highs_solve([-1.0, -1.0], [[1.0, -1.0]], [-np.inf], [1.0])
    assert status == UNBOUNDED
    assert rest[:3] == [None, None, None]


def _random_lp(seed: int):
    """c, <= rows, == rows and column upper bounds (inf for none): small
    integer programs, some infeasible or unbounded."""
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(2, 7))
    n_ub, n_eq = int(rng.integers(0, 5)), int(rng.integers(0, 3))
    c = rng.integers(-4, 5, nv).astype(float)
    a_ub = rng.integers(-2, 4, (n_ub, nv)).astype(float)
    b_ub = rng.integers(-1, 9, n_ub).astype(float)
    a_eq = rng.integers(0, 3, (n_eq, nv)).astype(float)
    b_eq = rng.integers(0, 5, n_eq).astype(float)
    col_upper = np.where(rng.random(nv) < 0.5, rng.integers(1, 4, nv), np.inf)
    return c, a_ub, b_ub, a_eq, b_eq, col_upper


@pytest.mark.parametrize("as_sparse", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_random_lps_match_linprog(seed, as_sparse):
    # linprog(method="highs") is the oracle: it poses the <= rows first and
    # the == rows after them, so the same rows here reach the same HiGHS model
    c, a_ub, b_ub, a_eq, b_eq, col_upper = _random_lp(seed)
    res = linprog(
        c,
        A_ub=a_ub if len(a_ub) else None, b_ub=b_ub if len(a_ub) else None,
        A_eq=a_eq if len(a_eq) else None, b_eq=b_eq if len(a_eq) else None,
        bounds=[(0, None if np.isinf(u) else u) for u in col_upper],
        method="highs",
    )
    a = np.vstack([a_ub, a_eq])
    if as_sparse:
        a = sparse.csr_array(a)
    args = (c, a, np.concatenate([np.full(len(b_ub), -np.inf), b_eq]),
            np.concatenate([b_ub, b_eq]), col_upper)
    if res.status == 4:  # HiGHS could not tell infeasible from unbounded
        with pytest.raises(RuntimeError, match="LP solver failed"):
            highs_solve(*args)
        return
    status, x, duals, value, iterations = highs_solve(*args)
    assert status == {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[res.status]
    assert iterations == res.nit
    if status != OPTIMAL:
        assert x is duals is value is None
        return
    assert abs(value - res.fun) <= 1e-9
    # x is feasible
    assert (x >= -1e-9).all() and (x <= col_upper + 1e-9).all()
    assert (a_ub @ x <= b_ub + 1e-9).all()
    assert np.allclose(a_eq @ x, b_eq, rtol=0, atol=1e-9)
    # the same model gives the same vertex and the same duals
    assert np.array_equal(x, res.x)
    assert np.array_equal(duals, np.concatenate([res.ineqlin.marginals, res.eqlin.marginals]))


def test_random_lps_cover_every_status():
    seen = set()
    for seed in range(40):
        c, a_ub, b_ub, a_eq, b_eq, col_upper = _random_lp(seed)
        a = np.vstack([a_ub, a_eq])
        lower = np.concatenate([np.full(len(b_ub), -np.inf), b_eq])
        upper = np.concatenate([b_ub, b_eq])
        try:
            seen.add(highs_solve(c, a, lower, upper, col_upper)[0])
        except RuntimeError:
            seen.add("error")
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= seen


@pytest.mark.parametrize("model_status", ["kTimeLimit", "kIterationLimit",
                                          "kUnboundedOrInfeasible", "kSolveError"])
def test_other_model_statuses_raise_naming_the_status(monkeypatch, model_status):
    real = lp._core._Highs
    wanted = getattr(lp._core.HighsModelStatus, model_status)

    class Stub:
        def __init__(self):
            self.highs = real()

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def getModelStatus(self):
            return wanted

    monkeypatch.setattr(lp._core, "_Highs", Stub)
    name = real().modelStatusToString(wanted)
    with pytest.raises(RuntimeError, match=f"LP solver failed: model status {name}"):
        highs_solve([1.0], [[1.0]], [-np.inf], [1.0])


def test_missing_bindings_fail_loudly():
    # scipy.optimize loads the bindings eagerly, so the subprocess removes
    # them from the package and from sys.modules after importing it
    code = textwrap.dedent("""
        import sys
        import scipy.optimize
        del scipy.optimize._highspy._core
        sys.modules["scipy.optimize._highspy._core"] = None
        try:
            import hypermatch.lp
        except ImportError as exc:
            print(exc)
        else:
            print("imported")
    """)
    src = os.path.dirname(os.path.dirname(hypermatch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "scipy's private HiGHS bindings" in done.stdout
    assert "scipy.optimize._highspy._core" in done.stdout
    assert "1.17.1" in done.stdout
