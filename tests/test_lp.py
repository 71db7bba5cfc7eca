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
