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
    csc_of_dense,
    simplex_rational,
)


def _triplet(a):
    """The CSC triplet of a scipy.sparse matrix or dense rows, as scipy forms it."""
    a = sparse.csc_array(a)
    return a.indptr, a.indices, a.data


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
        np.array([1.0, 2.0]), _triplet(a), np.full(2, -np.inf), np.array([-1.0, -0.5])
    )
    assert status == OPTIMAL
    assert np.allclose(y, [0.5, 0.5]) and abs(value - 1.5) < 1e-12
    assert np.allclose(duals, [-1.0, -1.0])
    assert isinstance(iterations, int) and iterations >= 0


def test_sparse_solve_with_no_rows():
    a = sparse.csr_array((0, 3))
    status, y, duals, value, iterations = highs_solve(
        np.ones(3), _triplet(a), np.zeros(0), np.zeros(0)
    )
    assert status == OPTIMAL and value == 0 and len(duals) == 0
    assert np.array_equal(y, np.zeros(3))
    assert iterations == 0


def test_sparse_solve_reports_infeasible():
    # y1 <= -1 with y1 >= 0
    a = sparse.csr_array(np.array([[1.0]]))
    status, *rest = highs_solve(np.ones(1), _triplet(a), np.array([-np.inf]), np.array([-1.0]))
    assert status == INFEASIBLE
    assert rest[:3] == [None, None, None]


def test_unbounded_reported():
    # min -x1 - x2 st x1 - x2 <= 1: x2 grows without bound
    status, *rest = highs_solve([-1.0, -1.0], _triplet([[1.0, -1.0]]), [-np.inf], [1.0])
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
    # dense rows through the package's own conversion, sparse ones through scipy's
    csc = _triplet(sparse.csr_array(a)) if as_sparse else csc_of_dense(a)
    args = (c, csc, np.concatenate([np.full(len(b_ub), -np.inf), b_eq]),
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
            seen.add(highs_solve(c, csc_of_dense(a), lower, upper, col_upper)[0])
        except RuntimeError:
            seen.add("error")
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= seen


@pytest.mark.parametrize("model_status", ["kTimeLimit", "kIterationLimit",
                                          "kUnboundedOrInfeasible", "kSolveError"])
def test_other_model_statuses_raise_naming_the_status(monkeypatch, model_status):
    core = lp._highs()[0]
    real = core._Highs
    wanted = getattr(core.HighsModelStatus, model_status)

    class Stub:
        def __init__(self):
            self.highs = real()

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def getModelStatus(self):
            return wanted

    monkeypatch.setattr(core, "_Highs", Stub)
    name = real().modelStatusToString(wanted)
    with pytest.raises(RuntimeError, match=f"LP solver failed: model status {name}"):
        highs_solve([1.0], _triplet([[1.0]]), [-np.inf], [1.0])


def _run(code: str, *path: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter with the package, after ``path``, importable."""
    src = os.path.dirname(os.path.dirname(hypermatch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [*path, src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env=env, timeout=120)


def test_missing_bindings_fail_loudly(tmp_path):
    # a scipy package with no optimize/_highspy/_core extension file, first
    # on the path, stands for a release that moved the bindings. The package
    # imports, and every solve raises
    (tmp_path / "scipy" / "optimize" / "_highspy").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "0.0.stub"\n')
    (tmp_path / "scipy" / "optimize" / "_highspy" / "__init__.py").write_text("")
    done = _run("""
        import sys
        import hypermatch.lp
        print("imported")
        for _ in range(2):
            try:
                hypermatch.lp.highs_solve([1.0], ([0, 1], [0], [1.0]), [1.0], [2.0])
            except ImportError as exc:
                print(exc)
            else:
                print("solved")
            print(sorted(m for m in sys.modules if m.startswith("scipy.")))
    """, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert "scipy's private HiGHS bindings" in done.stdout
    assert "scipy.optimize._highspy._core" in done.stdout
    assert "1.17.1" in done.stdout
    assert "the installed scipy 0.0.stub has none" in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"  # nothing half-registered
    lines = done.stdout.splitlines()
    assert lines[0] == "imported"
    assert lines[1] == lines[3] and "scipy's private HiGHS bindings" in lines[1]  # raised again
    assert lines[2] == lines[4] == "[]"


def test_the_package_imports_no_scipy_optimize_or_sparse():
    done = _run("""
        import sys
        import hypermatch.cli
        print(sorted(m for m in ("scipy.optimize", "scipy.sparse", "scipy.special")
                     if m in sys.modules))
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_only_a_solve_loads_the_extension(tmp_path):
    # the commands that solve no LP, on K_6^3, leave HiGHS's extension
    # unloaded; round's seeded run finds no matching past s and exits 1
    done = _run(f"""
        import sys
        from hypermatch.cli import main
        from hypermatch.core import complete_graph, write_hg
        CORE = "scipy.optimize._highspy._core"
        k6 = {str(tmp_path / "k6.hg")!r}
        write_hg(complete_graph(6, 3), k6)
        codes = [main(argv) for argv in (
            ["gen", "--family", "hm", "--n", "6", "--k", "3", "--s", "1",
             "--out", {str(tmp_path / "hm.hg")!r}],
            ["bounds", "--n", "6", "--k", "3", "--s", "1"],
            ["shift", "--in", k6, "--out", {str(tmp_path / "shifted.hg")!r}],
            ["closeness", "--in", k6, "--target", "clique", "--s", "1", "--exhaustive"],
            ["verify", "--n", "6", "--k", "3", "--s", "1", "--pruned"],
            ["round", "--in", k6, "--s", "1", "--seed", "1"],
        )]
        print(codes, CORE in sys.modules, file=sys.stderr)
        code = main(["solve", "--what", "nustar", "--in", k6])
        print(code, CORE in sys.modules, file=sys.stderr)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-2:] == ["[0, 0, 0, 0, 0, 1] False", "0 True"]


@pytest.mark.parametrize("first", ["hypermatch", "scipy", "cli"])
def test_highs_solve_and_linprog_share_one_extension(first):
    # pybind11 registers the extension's types once per process: a second
    # load of the file would raise "generic_type: type ... is already registered".
    # "hypermatch" solves before scipy.optimize is imported, so scipy must
    # reuse the package's copy; "scipy" and "cli" import scipy.optimize
    # before the first solve, which must reuse scipy's
    done = _run(f"""
        import sys
        import numpy as np
        CORE = "scipy.optimize._highspy._core"
        if {first!r} == "scipy":
            from scipy.optimize import linprog
        if {first!r} == "cli":
            import hypermatch.cli
        from hypermatch import lp
        assert ("scipy.optimize" in sys.modules) == ({first!r} == "scipy")
        assert (CORE in sys.modules) == ({first!r} == "scipy")
        a = np.array([[-1.0, -1.0], [0.0, -1.0]])
        solve = lambda: lp.highs_solve(
            [1.0, 2.0], lp.csc_of_dense(a), [-np.inf, -np.inf], [-1.0, -0.5])
        if {first!r} == "hypermatch":
            solve()
            assert CORE in sys.modules and "scipy.optimize" not in sys.modules
        from scipy.optimize import linprog
        from scipy.optimize._highspy import _core
        for _ in range(2):
            res = linprog([1.0, 2.0], A_ub=a, b_ub=[-1.0, -0.5], method="highs")
            status, y, duals, value, its = solve()
            assert status == lp.OPTIMAL and res.status == 0
            assert np.array_equal(y, res.x) and value == res.fun and its == res.nit
            assert np.array_equal(duals, res.ineqlin.marginals)
        assert lp._highs()[0] is _core is sys.modules[CORE]
        print("solved", value)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "solved 1.5"


@pytest.mark.parametrize("seed", range(20))
def test_dense_rows_become_scipys_csc(seed):
    # HiGHS's vertex depends on the form of the matrix: the triplet must be
    # the one scipy.sparse made of the same rows, entry for entry
    rng = np.random.default_rng(seed)
    a = rng.integers(-2, 3, (int(rng.integers(0, 6)), int(rng.integers(1, 7)))).astype(float)
    a[rng.random(a.shape) < 0.2] = np.nan if seed % 2 else 0.5
    for rows in (a, np.asfortranarray(a)):
        start, index, value = csc_of_dense(rows)
        want = sparse.csc_array(rows)
        assert start.tolist() == want.indptr.tolist()
        assert index.tolist() == want.indices.tolist()
        assert value.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("csc", [
    (np.array([0, 1]), np.array([0]), np.array([1.0])),  # one start short
    (np.array([0, 1, 2]), np.array([0]), np.array([1.0])),  # start[-1] past the entries
    (np.array([0, 1, 2]), np.array([0, 0]), np.array([1.0])),  # a row with no value
])
def test_a_triplet_that_does_not_fit_is_refused(csc):
    with pytest.raises(ValueError, match="CSC triplet for 2 columns"):
        highs_solve([1.0, 1.0], csc, [1.0], [np.inf])
