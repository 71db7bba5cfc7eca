import dataclasses
import json
import random
import re
from fractions import Fraction

import pytest

import numpy as np

from hypermatch import cli, lp, optimize, rounding, shifting, stability, verify
from hypermatch.cli import main, render_report
from hypermatch.core import (
    BudgetExceeded,
    Hypergraph,
    _read_hg_lines,
    complete_graph,
    from_json_dict,
    random_hypergraph,
    read_hg,
    to_json_dict,
    write_hg,
)
from hypermatch.constructions import (
    bound_report,
    clique_family,
    cover_family,
    hilton_milner_family,
    prefix_overlap_family,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_solve(tmp_path, capsys):
    path = str(tmp_path / "hm.hg")
    code, _ = run(capsys, "gen", "--family", "hm", "--n", "10", "--k", "3", "--s", "2", "--out", path)
    assert code == 0
    assert read_hg(path) == hilton_milner_family(10, 3, 2)

    code, out = run(capsys, "solve", "--what", "nu", "--in", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert len(payload["certificate"]["edges"]) == 2

    code, out = run(capsys, "solve", "--what", "taustar", "--in", path, "--exact-lp")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "8/3"  # exact rational as a string


def test_gen_requires_i_for_overlap_family(capsys):
    code, _ = run(capsys, "gen", "--family", "a", "--n", "10", "--k", "3", "--s", "2")
    assert code == 2


@pytest.mark.parametrize(
    "family, i, why",
    [
        ("a", [], "--i is required for the a family"),
        ("cover", ["--i", "2"], "--i applies to --family a, not cover"),
        ("hm", ["--i", "1"], "--i applies to --family a, not hm"),
    ],
)
def test_gen_i_outside_its_family_is_a_usage_error(capsys, family, i, why):
    assert main(["gen", "--family", family, "--n", "6", "--k", "3", "--s", "1", *i]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {why}\n"
    assert captured.out == ""


@pytest.mark.parametrize("family, extra", [("cover", []), ("hm", []), ("a", ["--i", "2"])])
def test_gen_refuses_too_many_k_sets_before_listing_them(tmp_path, capsys, family, extra):
    # C(100000, 3) = 1.7e14 k-sets: a budget refusal, and no file is written
    out = tmp_path / "big.hg"
    argv = ["gen", "--family", family, "--n", "100000", "--k", "3", "--s", "1", *extra]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "budget refusal: listing C(100000,3)=166661666700000 k-sets refuses past 16777216 rows\n"
    )
    assert captured.out == "" and not out.exists()


def test_gen_clique_at_n_100000_lists_only_the_k_sets_of_u(tmp_path, capsys):
    out = str(tmp_path / "clique.hg")
    code, text = run(capsys, "gen", "--family", "clique", "--n", "100000", "--k", "3", "--s", "1",
                     "--out", out)
    assert code == 0 and text == f"wrote 100000 3 10 -> {out}\n"
    assert read_hg(out) == clique_family(100000, 3, 1)


def test_bounds_tsv(capsys):
    code, out = run(capsys, "bounds", "--n", "10", "--k", "3", "--s", "2")
    assert code == 0
    # n k s cover clique hm A_2, the maximum and every family at it
    assert out == "10\t3\t2\t64\t56\t55\t60\t60\ta2\n"


def test_bounds_json(capsys):
    code, out = run(capsys, "bounds", "--n", "10", "--k", "3", "--s", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["hm_bound"] == 55
    assert report["argmax"] == "a2" and list(report)[-1] == "argmax"


def test_shift_roundtrip(tmp_path, capsys):
    src = str(tmp_path / "in.hg")
    dst = str(tmp_path / "out.hg")
    trace = str(tmp_path / "trace.json")
    (tmp_path / "in.hg").write_text("3 4 1\n2 3 4\n")
    code, out = run(capsys, "shift", "--in", src, "--out", dst, "--trace", trace)
    assert code == 0
    assert read_hg(dst).edges == ((1, 2, 3),)
    tr = json.loads((tmp_path / "trace.json").read_text())
    assert tr["rounds"] >= 2


# stabilizing 245, 345 on five vertices: moves at (1,2), (1,4), (2,3), (2,5),
# (3,4) and (4,5) in the first sweep, none in the second
PINNED_TRACE = (
    '{"rounds": 2, "steps": [[1, 2, 1], [1, 3, 0], [1, 4, 1], [1, 5, 0], [2, 3, 1], '
    '[2, 4, 0], [2, 5, 1], [3, 4, 1], [3, 5, 0], [4, 5, 1], [1, 2, 0], [1, 3, 0], '
    '[1, 4, 0], [1, 5, 0], [2, 3, 0], [2, 4, 0], [2, 5, 0], [3, 4, 0], [3, 5, 0], [4, 5, 0]]}'
)


def test_shift_output_and_trace_are_pinned(tmp_path, capsys):
    (tmp_path / "in.hg").write_text("3 5 2\n2 4 5\n3 4 5\n")
    argv = ["shift", "--in", str(tmp_path / "in.hg"), "--out", str(tmp_path / "out.hg"),
            "--trace", str(tmp_path / "trace.json")]
    code, out = run(capsys, *argv)
    assert code == 0 and out == "stable=True e=2 rounds=2\n"
    assert (tmp_path / "out.hg").read_text() == "3 5 2\n1 2 3\n1 2 4\n"
    assert (tmp_path / "trace.json").read_text() == PINNED_TRACE


def _json_cases():
    _, trace = shifting.stabilize(random_hypergraph(9, 3, 0.4, seed=3))
    report = json.loads(render_report(rounding.pipeline(complete_graph(12, 3), 3, t=9, seed=1)))
    odd = {"x": [0.1, 1e-300, float("inf"), float("nan"), -0.0, 2**70], "s": "é\n\"", "3": None}
    return [
        ({"rounds": trace.rounds, "steps": trace.steps}, None),  # as shift --trace writes it
        (report, 2),  # as round --report writes it
        (odd, None),
        (odd, 2),
    ]


@pytest.mark.parametrize("obj, indent", _json_cases(), ids=["trace", "report", "odd", "odd-2"])
def test_write_json_writes_the_bytes_of_json_dump(tmp_path, obj, indent):
    with open(tmp_path / "dump.json", "w") as fh:
        json.dump(obj, fh, indent=indent)
    cli._write_json(str(tmp_path / "ours.json"), obj, indent)
    assert (tmp_path / "ours.json").read_bytes() == (tmp_path / "dump.json").read_bytes()


# -- reports through json's default hook, against the walker it replaced --------


def reference_jsonable(obj):
    """The recursive converter the CLI once ran before json.dumps: a copy of each report."""
    if isinstance(obj, Hypergraph):
        return to_json_dict(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: reference_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [reference_jsonable(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    return obj


def _reference_cell(v) -> str:
    if isinstance(v, (list, tuple)):
        return ",".join(_reference_cell(x) for x in v) if v else "-"
    if isinstance(v, Hypergraph):
        return f"graph(n={v.n},k={v.k},e={v.e()})"
    if isinstance(v, dict):
        return json.dumps(reference_jsonable(v), separators=(",", ":"))
    return str(v)


def reference_render(obj, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(reference_jsonable(obj), indent=2)
    if isinstance(obj, list):
        return "\n".join(reference_render(x, "tsv") for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return "\t".join(_reference_cell(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return "\t".join(_reference_cell(v) for v in obj.values())
    return str(obj)


def _solve_dict(h, what, mode):
    """solve's fractional report as the command builds it: raw values, encoded by the hook."""
    fa = (optimize.fractional_matching if what == "nustar" else optimize.fractional_cover)(h, mode)
    if what == "nustar":
        weights = {" ".join(map(str, e)): w for e, w in zip(h.edges, fa.weights) if w}
    else:
        weights = dict(zip(h.vertices(), fa.weights))
    return {"what": what, "value": fa.value, "lp_path": fa.lp_path, "lp_solves": fa.lp_solves,
            "lp_rows": fa.lp_rows, "lp_iterations": fa.lp_iterations,
            "certificate": {"weights": weights}}


def _report_cases():
    hm = hilton_milner_family(10, 3, 2)
    r9 = random_hypergraph(9, 3, 0.5, seed=2)
    cases = {
        "pipeline-ok": rounding.pipeline(complete_graph(12, 3), 3, t=9, seed=1),
        "pipeline-failed": rounding.pipeline(cover_family(12, 3, 2), 2, t=8, seed=0),
        "verify-witnesses": verify.verify_extremal(8, 3, 1, method="pruned"),
        "verify-null-bound": verify.verify_extremal(4, 3, 1),
        "closeness": stability.closeness_to_cover(hm, 2, "exhaustive"),
        "goodness": stability.goodness_partition(r9, cover_family(9, 3, 2), 0.05),
        # a set that iterates out of order, and int keys out of order
        "goodness-unordered": stability.GoodnessReport(
            0.5, frozenset({5, 100}), frozenset(), {100: 0, 5: 1}),
        "bounds": bound_report(20, 5, 2),
        "bound-table": stability.bound_table(40),
        "graph": hm,
        "solve-nu": {"certificate": {"edges": optimize.max_matching(hm)[1].edges}},
        "solve-tau": {"certificate": {"vertices": optimize.min_vertex_cover(hm)[1].vertices}},
    }
    for what in ("nustar", "taustar"):
        for mode in ("rational", "float"):
            cases[f"solve-{what}-{mode}"] = _solve_dict(r9, what, mode)
    assert cases["pipeline-ok"].success and not cases["pipeline-failed"].success
    assert cases["verify-witnesses"].extremal_witnesses
    assert cases["verify-null-bound"].bound_value is None
    assert list(cases["goodness-unordered"].good) == [100, 5]
    assert isinstance(cases["solve-taustar-rational"]["value"], Fraction)
    assert isinstance(cases["solve-taustar-float"]["certificate"]["weights"][1], np.float64)
    return cases


REPORT_CASES = _report_cases()


@pytest.mark.parametrize("name", list(REPORT_CASES))
def test_reports_encode_to_the_bytes_of_the_reference_walker(tmp_path, name):
    obj = REPORT_CASES[name]
    for fmt in ("json", "tsv"):
        assert render_report(obj, fmt) == reference_render(obj, fmt)
    for indent in (None, 2):
        cli._write_json(str(tmp_path / "ours.json"), obj, indent)
        want = json.dumps(reference_jsonable(obj), indent=indent)
        assert (tmp_path / "ours.json").read_text() == want


def test_list_fields_are_one_tsv_cell():
    # the A_i of a k-5 bound report, and a closeness partition, each one cell
    assert render_report(REPORT_CASES["bounds"], "tsv") == (
        "20\t5\t2\t6936\t2002\t6222\t5676,4592,3432\t6222\thm")
    rows = render_report(REPORT_CASES["bound-table"], "tsv").splitlines()
    assert len(rows) == 12 and {row.count("\t") for row in rows} == {8}
    assert rows[0] == "40\t3\t1\t741\t10\t112\t112\t112\thm,a2"
    assert rows[9:] == ["40\t3\t10\t5820\t4960\t5470\t5320\t5470\thm",
                        "40\t3\t11\t6226\t6545\t5902\t6072\t6545\tclique",
                        "40\t3\t12\t6604\t8436\t6305\t6800\t8436\tclique"]
    rep = stability.closeness_to_clique(cover_family(9, 4, 2), 1, "exhaustive")
    assert render_report(rep, "tsv").split("\t")[:3] == ["clique", "1,2,3,4,5,6,7", "5"]


@pytest.mark.parametrize("what, flags", [(w, []) for w in ("nu", "tau", "alpha", "nustar", "taustar")]
                         + [("nustar", ["--exact-lp"]), ("taustar", ["--exact-lp"])])
def test_solve_prints_the_bytes_of_the_reference_walker(tmp_path, capsys, what, flags):
    h = random_hypergraph(9, 3, 0.5, seed=2)
    path = str(tmp_path / "g.hg")
    write_hg(h, path)
    if what == "nu":
        value, witness = optimize.max_matching(h)
        out = {"what": what, "value": value, "certificate": {"edges": witness.edges}}
    elif what == "tau":
        value, witness = optimize.min_vertex_cover(h)
        out = {"what": what, "value": value, "certificate": {"vertices": witness.vertices}}
    elif what == "alpha":
        value, wset = optimize.max_independent_set(h)
        out = {"what": what, "value": value, "certificate": {"vertices": wset}}
    else:
        out = _solve_dict(h, what, "rational" if flags else "float")
    code, printed = run(capsys, "solve", "--what", what, "--in", path, *flags)
    assert code == 0
    assert printed == json.dumps(reference_jsonable(out), indent=2) + "\n"


@pytest.mark.parametrize("value", [object(), np.int64(3), b"x"])
def test_an_unknown_type_still_raises_jsons_own_type_error(tmp_path, value):
    with pytest.raises(TypeError) as want:
        json.dumps(value)
    assert str(want.value) == f"Object of type {type(value).__name__} is not JSON serializable"
    for encode in (lambda o: render_report(o, "json"), lambda o: render_report(o, "tsv"),
                   lambda o: cli._write_json(str(tmp_path / "x.json"), o),
                   lambda o: cli._write_json(str(tmp_path / "x.json"), o, 2)):
        with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
            encode({"report": {"x": [value]}})


def test_closeness(tmp_path, capsys):
    path = str(tmp_path / "hm.hg")
    run(capsys, "gen", "--family", "hm", "--n", "10", "--k", "3", "--s", "2", "--out", path)
    code, out = run(capsys, "closeness", "--in", path, "--target", "cover", "--s", "2", "--exhaustive")
    assert code == 0
    assert json.loads(out)["missing_edges"] == 10


def test_crossover(capsys):
    code, out = run(capsys, "crossover", "--n", "100")
    assert code == 0
    lines = dict(ln.split("\t") for ln in out.strip().split("\n"))
    assert abs(float(lines["root"]) - float(lines["closed_form"])) < 1e-10
    assert float(lines["gap(5/18)"]) > 0.007

    code, out = run(capsys, "crossover", "--n", "20", "--table")
    assert code == 0
    assert len(out.strip().split("\n")) == 6  # s = 1..6

    # one bounds row per s: n, k, s, cover, clique, hm, A_2, the maximum and
    # every family at it
    code, out = run(capsys, "crossover", "--n", "10", "--table")
    assert code == 0
    assert out.splitlines() == ["10\t3\t1\t36\t10\t22\t22\t22\thm,a2",
                                "10\t3\t2\t64\t56\t55\t60\t60\ta2"]
    code, row = run(capsys, "bounds", "--n", "10", "--k", "3", "--s", "2")
    assert out.splitlines()[1] == row.rstrip("\n")

    code, out = run(capsys, "crossover", "--n", "6")  # the clique never overtakes
    assert code == 0
    assert out.strip().split("\n")[-1] == "clique_overtakes_at\tnone"


def test_round_success_and_failure(tmp_path, capsys):
    # complete graph: pipeline finds a perfect matching at a good seed
    path = str(tmp_path / "k12.hg")
    from hypermatch.core import complete_graph, write_hg

    write_hg(complete_graph(12, 3), path)
    report = str(tmp_path / "report.json")
    code, out = run(capsys, "round", "--in", path, "--s", "3", "--t", "9", "--seed", "1", "--report", report)
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["success"] is True and payload["matching"]["edges"]

    # cover family: no matching above s exists, exit code says so
    cov = str(tmp_path / "cov.hg")
    run(capsys, "gen", "--family", "cover", "--n", "12", "--k", "3", "--s", "2", "--out", cov)
    code, out = run(capsys, "round", "--in", cov, "--s", "2", "--t", "4", "--seed", "0")
    assert code == 1


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "--n", "5", "--k", "3", "--s", "1", "--constraint", "nu")
    assert code == 0
    assert json.loads(out)["max_edges_found"] == 10

    code, _ = run(capsys, "verify", "--n", "8", "--k", "3", "--s", "2")
    assert code == 2  # refuses C(8,3) = 56 edges exhaustively


def test_verify_exhaustive_refuses_large_n_without_building_it(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the k-sets were built")

    monkeypatch.setattr(verify, "k_sets", refuse)
    assert main(["verify", "--n", "2000", "--k", "3", "--s", "1"]) == 2
    assert capsys.readouterr().err.startswith("budget refusal: exhaustive search refuses")


def test_verify_pruned_refuses_large_n_without_building_it(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the k-sets were built")

    monkeypatch.setattr(verify, "k_sets", refuse)
    argv = ["verify", "--n", "2000", "--k", "3", "--s", "1", "--pruned", "--budget-ms", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("budget refusal: pruned search refuses")
    # under the tau floor, 2^18 transversal masks against C(40, 2) = 780 edges
    argv = ["verify", "--n", "40", "--k", "2", "--s", "18", "--pruned", "--budget-ms", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("budget refusal: pruned search refuses k^s=262144")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_verify_pruned_answers_a_single_edge(capsys, k):
    # K_k^k is one edge with tau = 1, so no family passes the tau floor
    code, out = run(capsys, "verify", "--n", str(k), "--k", str(k), "--s", "1", "--pruned")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "complete" and report["max_edges_found"] is None


def test_round_refusal_names_the_augmentation(tmp_path, capsys):
    # 2000 random edges at n 470 and s 3: the pipeline picks r 184, and the
    # augmented graph would list every 3-set of [654]
    rng = random.Random(1)
    edges = set()
    while len(edges) < 2000:
        edges.add(tuple(sorted(rng.sample(range(1, 471), 3))))
    path = str(tmp_path / "sparse470.hg")
    write_hg(Hypergraph(470, 3, sorted(edges)), path)
    report = tmp_path / "r.json"
    assert main(["round", "--in", path, "--s", "3", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "budget refusal: round augments n=470 by r=184 universal vertices; "
        "listing C(654,3)=46407404 k-sets refuses past 16777216 rows\n"
    )
    assert captured.out == "" and not report.exists()


def test_verify_budget_refusal(capsys):
    code, _ = run(capsys, "verify", "--n", "6", "--k", "3", "--s", "1", "--budget-ms", "0.001")
    assert code == 2


def test_closeness_budget_refusal(tmp_path, capsys):
    path = str(tmp_path / "empty17.hg")
    write_hg(Hypergraph(17, 3, []), path)
    code = main(["closeness", "--in", path, "--target", "cover", "--s", "2", "--exhaustive"])
    assert code == 2
    assert capsys.readouterr().err.startswith("budget refusal: ")


def test_a_budget_refusal_under_solve_exits_2(tmp_path, capsys, monkeypatch):
    # main turns a BudgetExceeded from any subcommand into exit 2
    def spent(h, limit=None):
        raise BudgetExceeded("search passed 7 nodes")

    monkeypatch.setattr(cli, "max_matching", spent)
    path = str(tmp_path / "k5.hg")
    write_hg(complete_graph(5, 3), path)
    code = main(["solve", "--what", "nu", "--in", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "budget refusal: search passed 7 nodes\n"


def test_malformed_input_is_a_clean_input_error(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_text("3 4 1\n1 two 3\n")
    for argv in (
        ["solve", "--what", "nu", "--in", str(path)],
        ["shift", "--in", str(path)],
        ["closeness", "--in", str(path), "--target", "cover", "--s", "1"],
        ["round", "--in", str(path), "--s", "1"],
    ):
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            f"input error: {path}:2: edge line '1 two 3' has a non-integer vertex id\n"
        )
    assert main(["solve", "--what", "nu", "--in", str(tmp_path / "missing.hg")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "missing.hg" in err


def test_vertex_ids_past_int64_are_a_clean_input_error(tmp_path, capsys):
    # n and the ids must fit the intp vertex array; the header line is named
    path = tmp_path / "big.hg"
    path.write_text("3 100000000000000000000 1\n1 2 99999999999999999999\n")
    for what in ("nu", "tau"):
        assert main(["solve", "--what", what, "--in", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {path}:1: vertex count n=100000000000000000000 ")
        assert captured.err.count("\n") == 1


def test_bounds_take_a_vertex_count_past_int64(capsys):
    # bounds are closed forms in Python ints: no graph, so no vertex array
    code, out = run(capsys, "bounds", "--n", "100000000000000000000", "--k", "3", "--s", "2")
    assert code == 0
    assert out.split("\t")[:3] == ["100000000000000000000", "3", "2"]


def test_undecodable_input_is_a_clean_input_error(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_bytes(b"3 4 1\n1 2 \xff\n")
    with pytest.raises(ValueError) as exc, open(path) as fh:
        _read_hg_lines(str(path), fh)
    assert main(["solve", "--what", "nu", "--in", str(path)]) == 4
    assert capsys.readouterr().err == f"input error: {exc.value}\n"


def test_the_parser_is_built_once_and_keeps_no_flag_between_calls(tmp_path, capsys):
    path = str(tmp_path / "hm.hg")
    write_hg(hilton_milner_family(10, 3, 2), path)
    code, out = run(capsys, "solve", "--what", "taustar", "--in", path, "--exact-lp")
    assert code == 0 and json.loads(out)["value"] == "8/3"
    code, out = run(capsys, "solve", "--what", "taustar", "--in", path)
    payload = json.loads(out)
    assert code == 0 and isinstance(payload["value"], float)
    assert payload["lp_path"] == "highs"
    code, out = run(capsys, "bounds", "--n", "10", "--k", "3", "--s", "2", "--format", "json")
    assert code == 0 and json.loads(out)
    code, out = run(capsys, "bounds", "--n", "10", "--k", "3", "--s", "2")
    assert code == 0 and out.split("\t")[:3] == ["10", "3", "2"]
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("limit", ["-1", "x"])
def test_solve_rejects_bad_limit(tmp_path, capsys, limit):
    path = str(tmp_path / "g.hg")
    (tmp_path / "g.hg").write_text("3 4 1\n1 2 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--what", "nu", "--in", path, "--limit", limit])
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


def test_solve_accepts_zero_limit(tmp_path, capsys):
    (tmp_path / "g.hg").write_text("3 4 1\n1 2 3\n")
    code, out = run(capsys, "solve", "--what", "nu", "--in", str(tmp_path / "g.hg"), "--limit", "0")
    assert code == 0
    assert json.loads(out)["value"] == 0


@pytest.mark.parametrize(
    "what, flags, lp_path",
    [
        ("nustar", [], "highs"),
        ("taustar", [], "highs"),
        ("nustar", ["--exact-lp"], "highs-certified"),
        ("taustar", ["--exact-lp"], "highs-certified"),
    ],
)
def test_solve_reports_the_lp_path(tmp_path, capsys, what, flags, lp_path):
    path = str(tmp_path / "k5.hg")
    write_hg(complete_graph(5, 3), path)
    code, out = run(capsys, "solve", "--what", what, "--in", path, *flags)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["what", "value", "lp_path", "lp_solves", "lp_rows",
                             "lp_iterations", "certificate"]
    assert payload["lp_path"] == lp_path
    # K5 has 10 edges, at most 4n: one HiGHS solve on all of them
    assert (payload["lp_solves"], payload["lp_rows"]) == (1, 10)
    assert isinstance(payload["lp_iterations"], int) and payload["lp_iterations"] >= 1


@pytest.mark.parametrize("flags", [[], ["--exact-lp"]])
def test_solve_certificates_name_the_weighted_edges_and_every_vertex(tmp_path, capsys, flags):
    # the unique optimal matching puts 0 on the edge 1 4 7
    path = str(tmp_path / "g.hg")
    write_hg(Hypergraph(7, 3, [(1, 2, 3), (4, 5, 6), (1, 4, 7)]), path)
    code, out = run(capsys, "solve", "--what", "nustar", "--in", path, *flags)
    assert code == 0
    assert sorted(json.loads(out)["certificate"]["weights"]) == ["1 2 3", "4 5 6"]
    code, out = run(capsys, "solve", "--what", "taustar", "--in", path, *flags)
    assert code == 0
    assert sorted(json.loads(out)["certificate"]["weights"]) == [str(v) for v in range(1, 8)]


@pytest.mark.parametrize("what", ["nustar", "taustar"])
def test_float_lp_solve_builds_no_edge_tuples(tmp_path, capsys, monkeypatch, what):
    # the LP reads the vertex array, and the certificate keys come from its rows
    path = str(tmp_path / "r.hg")
    h = random_hypergraph(14, 3, 0.4, 2)
    write_hg(h, path)
    read = []
    monkeypatch.setattr(cli, "read_hg", lambda p: read.append(read_hg(p)) or read[-1])
    code, out = run(capsys, "solve", "--what", what, "--in", path)
    assert code == 0
    assert read[0]._edges is None
    weights = json.loads(out)["certificate"]["weights"]
    if what == "nustar":  # the nonzero weights only, each on an edge
        fm = optimize.fractional_matching(h, "float")
        assert weights == {
            " ".join(map(str, e)): w for e, w in zip(h.edges, fm.weights.tolist()) if w
        }


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--what", "nu"],
        ["solve", "--what", "tau"],
        ["shift"],
        *(["closeness", "--target", target, "--s", "2", *exhaustive]
          for target in ("cover", "clique") for exhaustive in ([], ["--exhaustive"])),
    ],
)
def test_kernels_build_no_edge_tuples(tmp_path, capsys, monkeypatch, argv):
    # the searches, shifting and closeness read the vertex array of the graph
    # read from disk, and print what they print for the graph built from tuples
    path = str(tmp_path / "r.hg")
    h = random_hypergraph(12, 3, 0.15, 0)  # greedy takes 3 disjoint edges of nu = 4
    write_hg(h, path)
    monkeypatch.setattr(cli, "read_hg", lambda p: Hypergraph(h.n, h.k, h.edges))
    code, from_tuples = run(capsys, *argv, "--in", path)
    assert code == 0
    read = []
    monkeypatch.setattr(cli, "read_hg", lambda p: read.append(read_hg(p)) or read[-1])
    assert run(capsys, *argv, "--in", path) == (0, from_tuples)
    assert read[0]._edges is None


def test_solve_reports_the_simplex_fallback(tmp_path, capsys, monkeypatch):
    real = lp.highs_solve

    def negated_duals(*args, **kwargs):
        status, x, duals, value, its = real(*args, **kwargs)
        return status, x, -duals, value, its

    monkeypatch.setattr(lp, "highs_solve", negated_duals)
    path = str(tmp_path / "k5.hg")
    write_hg(complete_graph(5, 3), path)
    for what in ("nustar", "taustar"):
        code, out = run(capsys, "solve", "--what", what, "--in", path, "--exact-lp")
        assert code == 0
        payload = json.loads(out)
        assert payload["lp_path"] == "simplex"
        assert payload["lp_solves"] is None and payload["lp_rows"] is None
        assert payload["lp_iterations"] is None
        assert payload["value"] == "5/3"


@pytest.mark.parametrize("status", [lp.INFEASIBLE, lp.UNBOUNDED, "solver error"])
def test_solve_exact_lp_falls_back_when_highs_fails(tmp_path, capsys, monkeypatch, status):
    def failing(c, a, row_lower, row_upper, col_upper=None):
        if status == "solver error":
            raise RuntimeError("LP solver failed: iteration limit reached")
        return status, None, None, None, 0

    monkeypatch.setattr(lp, "highs_solve", failing)
    path = str(tmp_path / "k5.hg")
    write_hg(clique_family(5, 3, 1), path)
    for what in ("nustar", "taustar"):
        code, out = run(capsys, "solve", "--what", what, "--in", path, "--exact-lp")
        assert code == 0
        payload = json.loads(out)
        assert payload["lp_path"] == "simplex"
        assert payload["value"] == "5/3"


@pytest.mark.parametrize("status", [lp.INFEASIBLE, "solver error"])
def test_solve_float_lp_failure_is_a_solver_error(tmp_path, capsys, monkeypatch, status):
    # float mode has no simplex fallback: the failure is reported, not a traceback
    def failing(c, a, row_lower, row_upper, col_upper=None):
        if status == "solver error":
            raise RuntimeError("LP solver failed: iteration limit reached")
        return status, None, None, None, 0

    monkeypatch.setattr(lp, "highs_solve", failing)
    path = str(tmp_path / "k5.hg")
    write_hg(clique_family(5, 3, 1), path)
    for what in ("nustar", "taustar"):
        code = main(["solve", "--what", what, "--in", path])
        captured = capsys.readouterr()
        assert code == 6
        assert captured.out == ""
        want = "LP solver failed" if status == "solver error" else f"came back {status}"
        assert captured.err.startswith("solver error: ") and want in captured.err


def test_solve_exact_lp_falls_back_on_a_nan_from_highs(tmp_path, capsys, monkeypatch):
    real = optimize._cover_rows

    def poisoned(cols, n):
        y, *rest = real(cols, n)
        y = y.copy()
        y[0] = np.nan
        return (y, *rest)

    monkeypatch.setattr(optimize, "_cover_rows", poisoned)
    path = str(tmp_path / "k5.hg")
    write_hg(clique_family(5, 3, 1), path)
    for what in ("nustar", "taustar"):
        code, out = run(capsys, "solve", "--what", what, "--in", path, "--exact-lp")
        assert code == 0
        payload = json.loads(out)
        assert payload["lp_path"] == "simplex"
        assert payload["value"] == "5/3"


@pytest.mark.parametrize(
    "what, flag, why",
    [
        ("alpha", ["--limit", "2"], "--limit applies to --what nu|tau, not alpha"),
        ("nustar", ["--limit", "2"], "--limit applies to --what nu|tau, not nustar"),
        ("taustar", ["--limit", "0"], "--limit applies to --what nu|tau, not taustar"),
        ("nu", ["--exact-lp"], "--exact-lp applies to --what nustar|taustar, not nu"),
        ("tau", ["--exact-lp"], "--exact-lp applies to --what nustar|taustar, not tau"),
        ("alpha", ["--exact-lp"], "--exact-lp applies to --what nustar|taustar, not alpha"),
    ],
)
def test_solve_flag_that_does_not_apply_is_a_usage_error(tmp_path, capsys, what, flag, why):
    (tmp_path / "g.hg").write_text("3 4 1\n1 2 3\n")
    assert main(["solve", "--what", what, "--in", str(tmp_path / "g.hg"), *flag]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {why}\n"
    assert captured.out == ""


def _graph_file(tmp_path) -> str:
    (tmp_path / "g.hg").write_text("3 6 2\n1 2 3\n4 5 6\n")
    return str(tmp_path / "g.hg")


def _must_not_run(*args, **kwargs):
    raise AssertionError("computed before the output paths were checked")


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_shift_unwritable_output_is_an_output_error(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.setattr(shifting, "stabilize", _must_not_run)
    dst = str(tmp_path / "missing-dir" / "x")
    assert main(["shift", "--in", _graph_file(tmp_path), flag, dst]) == 5
    assert capsys.readouterr().err == f"output error: {dst}: No such file or directory\n"


def test_shift_checks_every_output_before_writing_any(tmp_path, capsys):
    out = tmp_path / "stable.hg"
    bad = str(tmp_path / "missing-dir" / "t.json")
    argv = ["shift", "--in", _graph_file(tmp_path), "--out", str(out), "--trace", bad]
    assert main(argv) == 5
    assert capsys.readouterr().err == f"output error: {bad}: No such file or directory\n"
    assert not out.exists()  # the probe of a new path leaves no file behind


def test_round_unwritable_report_is_an_output_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rounding, "pipeline", _must_not_run)
    dst = str(tmp_path / "missing-dir" / "r.json")
    argv = ["round", "--in", _graph_file(tmp_path), "--s", "1", "--t", "2", "--report", dst]
    assert main(argv) == 5
    assert capsys.readouterr().err == f"output error: {dst}: No such file or directory\n"


def test_round_report_probe_keeps_an_existing_file(tmp_path, monkeypatch):
    # the probe must not truncate the old report: a run that dies before
    # its result is ready leaves the file as it was
    monkeypatch.setattr(rounding, "pipeline", _must_not_run)
    dst = tmp_path / "r.json"
    dst.write_text("old report\n")
    argv = ["round", "--in", _graph_file(tmp_path), "--s", "1", "--t", "2", "--report", str(dst)]
    with pytest.raises(AssertionError):
        main(argv)
    assert dst.read_text() == "old report\n"


def test_round_report_into_a_directory_is_an_output_error(tmp_path, capsys):
    dst = str(tmp_path)
    argv = ["round", "--in", _graph_file(tmp_path), "--s", "1", "--t", "2", "--report", dst]
    assert main(argv) == 5
    assert capsys.readouterr().err == f"output error: {dst}: Is a directory\n"


def test_gen_unwritable_output_is_an_output_error(tmp_path, capsys):
    dst = str(tmp_path / "missing-dir" / "hm.hg")
    argv = ["gen", "--family", "hm", "--n", "10", "--k", "3", "--s", "2", "--out", dst]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.err == f"output error: {dst}: No such file or directory\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, why",
    [
        (["closeness", "--target", "clique", "--s", "5"], "clique core k(s+1)-1 = 17 exceeds n=8"),
        (["bounds", "--n", "10", "--k", "3", "--s", "0"], "s=0 must be at least 1"),
        (["gen", "--family", "cover", "--n", "3", "--k", "5", "--s", "1"],
         "uniformity k=5 exceeds vertex count n=3"),
        (["round", "--s", "1", "--t", "0"], "--t 0: need t >= 1 rounds"),
        (["verify", "--n", "5", "--k", "3", "--s", "0"], "s=0 must be at least 1"),
        (["verify", "--n", "5", "--k", "3", "--s", "0", "--pruned"], "s=0 must be at least 1"),
        # any matching has size > -3: a run would report a vacuous success
        (["round", "--s", "-3", "--t", "9", "--seed", "1"], "s=-3 must be at least 1"),
        (["crossover", "--table"], "--table needs --n"),
        (["crossover", "--n", "-5", "--table"], "--n -5: need n >= 5 for a bound row at s = 1"),
        (["crossover", "--n", "-4"], "--n -4: need n >= 5 for a bound row at s = 1"),
        (["closeness", "--target", "clique", "--s", "-1"], "s=-1 must be at least 0"),
        (["closeness", "--target", "clique", "--s", "-1", "--exhaustive"], "s=-1 must be at least 0"),
        (["bounds", "--n", "10", "--k", "1", "--s", "2"], "uniformity k=1 must be at least 2"),
        (["verify", "--n", "3", "--k", "5", "--s", "1"], "uniformity k=5 exceeds vertex count n=3"),
        (["verify", "--n", "6", "--k", "1", "--s", "1", "--pruned"], "uniformity k=1 must be at least 2"),
        # a NaN budget never trips the deadline: the search would run unbounded
        (["verify", "--n", "6", "--k", "3", "--s", "1", "--budget-ms", "nan"],
         "budget_ms=nan must be a finite number >= 0"),
        (["verify", "--n", "6", "--k", "3", "--s", "1", "--pruned", "--budget-ms", "inf"],
         "budget_ms=inf must be a finite number >= 0"),
        (["verify", "--n", "6", "--k", "3", "--s", "1", "--budget-ms", "-5"],
         "budget_ms=-5.0 must be a finite number >= 0"),
    ],
)
def test_out_of_range_parameter_is_a_usage_error(tmp_path, capsys, argv, why):
    if argv[0] in ("closeness", "round"):
        path = str(tmp_path / "g.hg")
        write_hg(complete_graph(8, 3), path)
        argv = [argv[0], "--in", path, *argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {why}\n"
    assert captured.out == ""


def test_round_on_a_graph_that_is_not_3_uniform_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "g.hg").write_text("2 4 1\n1 2\n")
    path = str(tmp_path / "g.hg")
    assert main(["round", "--in", path, "--s", "1"]) == 2
    assert capsys.readouterr().err == f"usage error: round needs a 3-graph, {path} has k=2\n"


@pytest.mark.parametrize("seed", [1, 2])
def test_solve_tau_reports_a_cover_of_every_edge(tmp_path, capsys, seed):
    h = random_hypergraph(9, 3, 0.4, seed)
    path = str(tmp_path / "g.hg")
    write_hg(h, path)
    code, out = run(capsys, "solve", "--what", "tau", "--in", path)
    assert code == 0
    payload = json.loads(out)
    cover = set(payload["certificate"]["vertices"])
    assert payload["value"] == len(cover) == optimize.min_vertex_cover(h, exhaustive=True)[0]
    assert all(cover.intersection(e) for e in h.edges)


def test_solve_tau_below_the_limit_has_no_certificate(tmp_path, capsys):
    path = str(tmp_path / "hm.hg")
    write_hg(hilton_milner_family(10, 3, 2), path)  # tau = 3
    code, out = run(capsys, "solve", "--what", "tau", "--in", path, "--limit", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] > 2
    assert payload["certificate"] == {"vertices": None}


def test_solve_alpha_is_n_minus_tau_with_an_independent_set(tmp_path, capsys):
    h = hilton_milner_family(10, 3, 2)
    path = str(tmp_path / "hm.hg")
    write_hg(h, path)
    code, out = run(capsys, "solve", "--what", "alpha", "--in", path)
    assert code == 0
    payload = json.loads(out)
    wset = set(payload["certificate"]["vertices"])
    assert payload["value"] == len(wset) == h.n - 3
    assert not any(wset.issuperset(e) for e in h.edges)


def test_verify_off_the_bound_exits_3(capsys, monkeypatch):
    # (5,3,1) under nu <= s finds 10 edges; a bound of 11 does not match it
    monkeypatch.setattr(verify, "_bound_target", lambda n, k, s, constraint: 11)
    code, out = run(capsys, "verify", "--n", "5", "--k", "3", "--s", "1", "--constraint", "nu")
    assert code == 3
    payload = json.loads(out)
    assert payload["max_edges_found"] == 10 and payload["matches_bound"] is False


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--family", "clique", "--n", "6", "--k", "3", "--s", "1"], clique_family(6, 3, 1)),
        (["--family", "a", "--n", "8", "--k", "3", "--s", "1", "--i", "2"],
         prefix_overlap_family(8, 3, 1, 2)),
    ],
)
def test_gen_without_out_writes_json_to_stdout(capsys, argv, expected):
    code, out = run(capsys, "gen", *argv)
    assert code == 0
    assert from_json_dict(json.loads(out)) == expected
