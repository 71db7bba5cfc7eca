"""Cross-validation of the exact simplex against HiGHS and known optima."""

import random
from fractions import Fraction

import pytest

import numpy as np
from scipy import sparse

from hypermatch.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    linprog_float,
    linprog_sparse,
    simplex_rational,
)


def test_tiny_max():
    # max x+y st x+y <= 1
    status, x, value = simplex_rational([1, 1], [[1, 1]], ["<="], [1], maximize=True)
    assert status == OPTIMAL and value == 1


def test_equality_feasibility():
    # x1 + x2 = 1, x2 + x3 = 1, nonneg; maximize x1
    status, x, value = simplex_rational(
        [1, 0, 0], [[1, 1, 0], [0, 1, 1]], ["=", "="], [1, 1], maximize=True
    )
    assert status == OPTIMAL and value == 1
    assert x[0] == 1 and x[1] == 0 and x[2] == 1


def test_infeasible_detected():
    # x <= 1 and x >= 2
    status, x, value = simplex_rational(
        [1], [[1], [1]], ["<=", ">="], [1, 2], maximize=True
    )
    assert status == INFEASIBLE


def test_unbounded_detected():
    status, _, _ = simplex_rational([1], [[-1]], ["<="], [1], maximize=True)
    assert status == UNBOUNDED


def test_negative_rhs_normalized():
    # -x <= -2 means x >= 2; minimize x
    status, x, value = simplex_rational([1], [[-1]], ["<="], [-2], maximize=False)
    assert status == OPTIMAL and value == 2


def test_degenerate_redundant_rows():
    # duplicated equality rows must not confuse phase one
    status, x, value = simplex_rational(
        [1, 1], [[1, 1], [1, 1], [1, 0]], ["=", "=", "<="], [1, 1, 1], maximize=True
    )
    assert status == OPTIMAL and value == 1


@pytest.mark.parametrize("seed", range(30))
def test_random_lps_match_highs(seed):
    rng = random.Random(seed)
    nv = rng.randint(2, 6)
    nr = rng.randint(1, 5)
    c = [rng.randint(-4, 6) for _ in range(nv)]
    rows = [[rng.randint(0, 4) for _ in range(nv)] for _ in range(nr)]
    rhs = [rng.randint(1, 9) for _ in range(nr)]
    senses = ["<="] * nr
    # keep the region bounded
    rows.append([1] * nv)
    senses.append("<=")
    rhs.append(10)
    status, x, value = simplex_rational(c, rows, senses, rhs, maximize=True)
    assert status == OPTIMAL
    f_status, fx, f_value, _ = linprog_float(
        [float(ci) for ci in c],
        a_ub=[[float(a) for a in row] for row in rows],
        b_ub=[float(b) for b in rhs],
        bounds=(0, None),
        maximize=True,
    )
    assert f_status == OPTIMAL
    assert abs(float(value) - f_value) < 1e-7
    # solution feasibility, exactly
    for row, sense, b in zip(rows, senses, rhs):
        lhs = sum(Fraction(a) * xi for a, xi in zip(row, x))
        assert lhs <= b


@pytest.mark.parametrize("seed", range(20))
def test_random_mixed_sense_lps_match_highs(seed):
    rng = random.Random(100 + seed)
    nv = rng.randint(2, 5)
    c = [rng.randint(1, 5) for _ in range(nv)]
    rows, senses, rhs = [], [], []
    for _ in range(rng.randint(1, 3)):
        rows.append([rng.randint(0, 3) for _ in range(nv)])
        senses.append("<=")
        rhs.append(rng.randint(2, 8))
    # one covering-style row keeps phase one honest (may be infeasible)
    rows.append([rng.randint(0, 2) for _ in range(nv)])
    senses.append(">=")
    rhs.append(rng.randint(1, 4))
    status, x, value = simplex_rational(c, rows, senses, rhs, maximize=False)
    a_ub, b_ub = [], []
    for row, sense, b in zip(rows, senses, rhs):
        if sense == "<=":
            a_ub.append([float(a) for a in row])
            b_ub.append(float(b))
        else:
            a_ub.append([-float(a) for a in row])
            b_ub.append(-float(b))
    f_status, fx, f_value, _ = linprog_float(
        [float(ci) for ci in c], a_ub=a_ub, b_ub=b_ub, bounds=(0, None)
    )
    assert status == f_status
    if status == OPTIMAL:
        assert abs(float(value) - f_value) < 1e-7
        for row, sense, b in zip(rows, senses, rhs):
            lhs = sum(Fraction(a) * xi for a, xi in zip(row, x))
            assert lhs <= b if sense == "<=" else lhs >= b


def test_sparse_solve_returns_row_duals():
    # min y1 + 2 y2 st y1 + y2 >= 1, y2 >= 1/2 (as <= rows): y = (1/2, 1/2),
    # value 3/2, row duals -1 and -1
    a = sparse.csr_array(np.array([[-1.0, -1.0], [0.0, -1.0]]))
    status, y, duals, value = linprog_sparse(np.array([1.0, 2.0]), a, np.array([-1.0, -0.5]))
    assert status == OPTIMAL
    assert np.allclose(y, [0.5, 0.5]) and abs(value - 1.5) < 1e-12
    assert np.allclose(duals, [-1.0, -1.0])


def test_sparse_solve_with_no_rows():
    a = sparse.csr_array((0, 3))
    status, y, duals, value = linprog_sparse(np.ones(3), a, np.zeros(0))
    assert status == OPTIMAL and value == 0 and len(duals) == 0
    assert np.array_equal(y, np.zeros(3))


def test_sparse_solve_reports_infeasible():
    # y1 <= -1 with y1 >= 0
    a = sparse.csr_array(np.array([[1.0]]))
    assert linprog_sparse(np.ones(1), a, np.array([-1.0]))[0] == INFEASIBLE
