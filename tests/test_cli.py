"""Command-line surface: exit codes, determinism, round-trips."""

import contextlib
import io
import json
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ciqc.cli import FANO_LINES_N_LIMIT, HIGHERK_KMAX_LIMIT, main
from ciqc.exact import parse_rat, rat_str
from ciqc.geometry import DIMENSION_LIMIT, MULTIDEGREE_SUM_LIMIT
from oracles import reduced_potential


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_ok(capsys):
    code, out, err = run(capsys, "info", "--n", "4", "--d", "3")
    assert code == 0
    data = json.loads(out)
    assert data["a"] == 3 and data["chi"] == 27 and data["monodromy"] == "Orthogonal"


def test_info_exceptional_exit_two_names_case(capsys):
    code, out, err = run(capsys, "info", "--n", "4", "--d", "2,2")
    assert code == 2
    assert "X_n(2,2)" in err or "two quadrics" in err
    data = json.loads(out)  # the descriptor itself is still emitted
    assert data["exceptional"]


def test_usage_error_exit_one(capsys):
    assert main(["info", "--n", "4"]) == 1


def test_domain_error_exit_two(capsys):
    code, out, err = run(capsys, "f1", "--n", "2", "--d", "3")
    assert code == 2
    assert "cubic surface" in err or "dimension" in err


def test_f2_tsv(capsys):
    code, out, err = run(capsys, "f2", "--n", "5", "--d", "3",
                         "--format", "tsv", "--no-header")
    assert code == 0
    assert out.strip() == "1\t4"


def test_f2_json_round_trip(capsys):
    code, out, err = run(capsys, "f2", "--n", "4", "--d", "3")
    assert code == 0
    data = json.loads(out)
    roots = [parse_rat(r) for r in data["roots"]]
    assert roots == [Fraction(1), Fraction(4)]
    grad = data["gradients"][0]
    # q-graded t-gradient entries re-parse exactly
    t4 = grad["t_gradient"][4]
    assert [[k, parse_rat(c)] for k, c in t4] == [[2, Fraction(3)]]


def test_byte_identical_output(capsys):
    code1, out1, _ = run(capsys, "smallqh", "--n", "4", "--d", "3")
    code2, out2, _ = run(capsys, "smallqh", "--n", "4", "--d", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_q_one_specialization(capsys):
    code, out, _ = run(capsys, "f1", "--n", "4", "--d", "3", "--q", "1")
    data = json.loads(out)
    # with q = 1 all coefficients are plain rational strings
    terms = {tuple(t["monomial"]): t["coefficient"]
             for t in data["t_jet"]["terms"]}
    assert terms[(0, 0, 0, 1, 0, 0)] == "-6"


def test_genus1_command(capsys):
    code, out, _ = run(capsys, "genus1", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["f2"] == "1" and data["hn11"] == "-9/4"


def test_fano_lines_command(capsys):
    code, out, _ = run(capsys, "fano-lines", "--n", "4", "--check", "cubic16")
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["quartic"]["value"] == "528"
    assert data["checks"]["f2_at_zero"] == "1"


def test_fano_lines_hilb2(capsys):
    code, out, _ = run(capsys, "fano-lines", "--n", "4", "--check", "hilb2")
    data = json.loads(out)
    assert data["checks"]["hilb2"]["scalar"] == "1"
    assert data["checks"]["hilb2"]["examples"]["all_delta_four_point"] == "12"


def test_fano_lines_hilb2_at_n4_is_the_golden_hilb2(capsys):
    code, out, _ = run(capsys, "fano-lines", "--n", "4", "--check", "hilb2")
    assert code == 0
    golden = json.loads((GOLDEN / "fano_lines_n4_all.json").read_text())
    assert json.loads(out) == {"n": 4, "checks": {"hilb2": golden["checks"]["hilb2"]}}


@pytest.mark.parametrize("n", ["7", "-3"])
def test_fano_lines_hilb2_needs_n4(capsys, n):
    # the cross-check is the cubic fourfold's; it ignored --n before
    code, out, err = run(capsys, "fano-lines", "--n", n, "--check", "hilb2")
    assert code == 2 and out == ""
    assert err == f"domain error: the hilb2 cross-check is the cubic fourfold's: " \
                  f"it needs n = 4, got n = {n}\n"


def test_jsonable_encoding_rules():
    from typing import NamedTuple
    from ciqc.cli import _jsonable
    from ciqc.exact import QPoly, TruncSeries, monomial

    class Record(NamedTuple):
        z: int
        a: Fraction
        m: tuple

    assert _jsonable({"rank": 12, "flag": True, "none": None}, False) == \
        {"rank": 12, "flag": True, "none": None}
    assert _jsonable([Fraction(12), Fraction(-3, 4)], False) == ["12", "-3/4"]
    assert list(_jsonable(Record(1, Fraction(1, 2), (2, 3)), False).items()) == \
        [("z", 1), ("a", "1/2"), ("m", [2, 3])]
    poly = QPoly({0: Fraction(1, 3), 2: Fraction(2)})
    assert _jsonable(poly, False) == [[0, "1/3"], [2, "2"]]
    assert _jsonable(poly, True) == "7/3"
    series = TruncSeries(2, 2, 2, terms={monomial(2, (1,)): poly})
    for q1, coefficient in ((False, [[0, "1/3"], [2, "2"]]), (True, "7/3")):
        terms = _jsonable({"s": series}, q1)["s"]["terms"]
        assert terms == [{"monomial": [0, 1, 0], "coefficient": coefficient}]


def test_residual_command(tmp_path, capsys):
    # store F = F^(0) jet + s F^(1) and confirm the reporting shape
    _, _, F, _ = reduced_potential(3, (3,), 3)
    path = tmp_path / "F.json"
    path.write_text(json.dumps(F.to_json()))
    code, out, _ = run(capsys, "residual", "--n", "3", "--d", "3",
                       "--load", str(path))
    assert code == 0
    data = json.loads(out)
    assert "eq_mixed" in data and "eq_pure" in data


def test_verify_filtered(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--d", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)


def test_genus1_two_quadrics_flagged(capsys):
    code, out, _ = run(capsys, "genus1", "--n", "5", "--d", "2,2")
    assert code == 0
    data = json.loads(out)
    assert data["f2"] == "1" and data["experimental"] is True


def test_residual_reports_violations(tmp_path, capsys):
    # a deliberately wrong s-coefficient shows up as reported monomials:
    # F = s t^1 violates the first reduced equation at (1,1) through the
    # F_{s1}^2 term, a residual of -1 at degree 0.  At degree cap 2 the
    # potential determines no degree of that equation, at cap 3 degree 0.
    from ciqc.exact import QPoly, TruncSeries, monomial
    reports = {}
    for cap in (2, 3):
        F = TruncSeries(4, cap, 2, terms={monomial(4, (1,), s=1): QPoly.const(1)})
        path = tmp_path / f"bad{cap}.json"
        path.write_text(json.dumps(F.to_json()))
        code, out, _ = run(capsys, "residual", "--n", "3", "--d", "3",
                           "--load", str(path))
        assert code == 0
        reports[cap] = json.loads(out)
    keys = [f"{a},{b}" for a in range(4) for b in range(a, 4)]
    assert reports[2]["window"] == {"ambient": -1, "eq_mixed": -1, "eq_pure": 0}
    assert reports[2]["eq_mixed"] == {key: [] for key in keys}
    assert reports[3]["window"] == {"ambient": 0, "eq_mixed": 0, "eq_pure": 1}
    term = {"monomial": [0, 0, 0, 0, 0], "coefficient": [[0, "-1"]]}
    assert reports[3]["eq_mixed"] == {key: [term] if key == "1,1" else []
                                      for key in keys}
    for data in reports.values():
        assert data["eq_pure"] == [] and data["ambient"] == {}


def test_json_rationals_reparse_everywhere(capsys):
    # every "p/q" leaf in the JSON output round-trips exactly
    from ciqc.exact import parse_rat, rat_str
    import re
    commands = [
        ["info", "--n", "5", "--d", "3"],
        ["smallqh", "--n", "3", "--d", "2,2"],
        ["f1", "--n", "4", "--d", "3"],
        ["f2", "--n", "4", "--d", "3"],
        ["genus1", "--n", "4"],
    ]
    pat = re.compile(r"^-?\d+(/\d+)?$")

    def walk(node):
        if isinstance(node, str) and pat.match(node):
            assert rat_str(parse_rat(node)) == node
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            for item in node.values():
                walk(item)

    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        walk(json.loads(out))


GOLDEN = Path(__file__).parent / "golden"
S_T1 = str(GOLDEN / "s_t1_n3.potential.json")  # F = s t^1 on (3,(3))
# a copy of perfbench/data/cubic4_deg4.json; inside its window its report
# holds only the three degree-2 eq_pure terms that its F^(1), a degree-2
# jet stored under cap 4, leaves (the q-cap of products is pinned by
# tests/test_exact.py::test_products_equal_the_pairwise_reference)
CUBIC4_DEG4 = str(GOLDEN / "cubic4_deg4.potential.json")
# the same file with the q^1 coefficient of t^1 t^2 t^4 in F^(0) raised from
# 18 to 19: its report holds 23 nonzero ambient residuals
BUMPED = str(GOLDEN / "cubic4_deg4_f0_bumped.potential.json")
GOLDEN_CASES = {
    "f2_n4_d3": ["f2", "--n", "4", "--d", "3"],
    "smallqh_n4_d3": ["smallqh", "--n", "4", "--d", "3"],
    "smallqh_n3_d4": ["smallqh", "--n", "3", "--d", "4"],  # index one
    "f1_n8_d9": ["f1", "--n", "8", "--d", "9"],
    "f1_n4_d3": ["f1", "--n", "4", "--d", "3"],
    "f1_n4_d3_q1": ["f1", "--n", "4", "--d", "3", "--q", "1"],
    "residual_n3_d3_s_t1": ["residual", "--n", "3", "--d", "3", "--load", S_T1],
    "residual_n3_d3_s_t1_q1": ["residual", "--n", "3", "--d", "3",
                               "--load", S_T1, "--q", "1"],
    "residual_n4_d3_cubic4_deg4": ["residual", "--n", "4", "--d", "3",
                                   "--load", CUBIC4_DEG4],
    "residual_n4_d3_cubic4_deg4_f0_bumped": ["residual", "--n", "4", "--d", "3",
                                             "--load", BUMPED],
    "residual_n4_d3_cubic4_deg4_f0_bumped_q1": ["residual", "--n", "4", "--d", "3",
                                                "--load", BUMPED, "--q", "1"],
    "genus1_n4": ["genus1", "--n", "4"],
    "genus1_n5_d22": ["genus1", "--n", "5", "--d", "2,2"],
    "fano_lines_n3_all": ["fano-lines", "--n", "3", "--check", "all"],
    "fano_lines_n5_all": ["fano-lines", "--n", "5", "--check", "all"],
    "verify": ["verify"],
    "verify_n4_d3": ["verify", "--n", "4", "--d", "3"],
    "info_n4_d3": ["info", "--n", "4", "--d", "3"],
    "info_n4_d22": ["info", "--n", "4", "--d", "2,2"],  # exceptional: exit 2
    "higherk_n3_d3": ["higherk", "--n", "3", "--d", "3"],
    "smallqh_n3_d4_q1": ["smallqh", "--n", "3", "--d", "4", "--q", "1"],
    "f2_n4_d3_q1": ["f2", "--n", "4", "--d", "3", "--q", "1"],
    "fano_lines_n4_all": ["fano-lines", "--n", "4", "--check", "all"],  # with hilb2
}
GOLDEN_EXIT = {"info_n4_d22": 2}


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_stdout(capsys, name):
    code, out, _ = run(capsys, *GOLDEN_CASES[name])
    assert code == GOLDEN_EXIT.get(name, 0)
    suffix = "txt" if name.startswith("verify") else "json"  # verify prints text
    assert out == (GOLDEN / f"{name}.{suffix}").read_text()


def test_fano_lines_n5_golden_has_the_galkin_shinder_betti_number():
    # b_6 of the variety of lines of a cubic fivefold is 862
    report = json.loads((GOLDEN / "fano_lines_n5_all.json").read_text())
    betti = report["checks"]["rank_estimates"]["betti"]
    assert [row["rk_lines"] for row in betti if row["degree"] == 6] == [862]


@pytest.mark.parametrize("argv", [
    ["smallqh", "--n", "4", "--d", "3", "--qmax", "0"],
    ["f2", "--n", "4", "--d", "3", "--qmax", "1", "--format", "tsv"],
    ["smallqh", "--n", "4", "--d", "3", "--qmax", "-1"],
    ["smallqh", "--n", "4", "--d", "3", "--format", "tsv"],
    ["genus1", "--n", "4", "--q", "1"],
], ids=["smallqh-qmax0", "f2-qmax1-tsv", "smallqh-qmax-neg", "smallqh-tsv",
        "genus1-q1"])
def test_unhonoured_option_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "unrecognized arguments" in err


def test_qmax_env_var_has_no_effect(capsys, monkeypatch):
    code, plain, _ = run(capsys, "smallqh", "--n", "4", "--d", "3")
    monkeypatch.setenv("CIQC_QMAX", "0")
    code_env, out, _ = run(capsys, "smallqh", "--n", "4", "--d", "3")
    assert code == code_env == 0
    assert json.loads(out)["c"] == "2/9"
    assert out == plain


def _count_f2_calls(monkeypatch):
    """Log the calls of reconstruct's gradient-part builder and f2_gradient."""
    from ciqc import reconstruct
    parts, gradients = [], []

    def counted(log, real):
        def wrapper(*args):
            log.append(args)
            return real(*args)
        return wrapper

    monkeypatch.setattr(reconstruct, "_f2_gradient_parts",
                        counted(parts, reconstruct._f2_gradient_parts))
    monkeypatch.setattr(reconstruct, "f2_gradient",
                        counted(gradients, reconstruct.f2_gradient))
    return parts, gradients


def test_f2_gradient_once_per_root(capsys, monkeypatch):
    # the f2 command asks f2_gradient once, and gets one jet per root
    from ciqc import reconstruct
    roots = []
    real = reconstruct.f2_gradient

    def counted(*args):
        jets = real(*args)
        roots.append([jet.root for jet in jets])
        return jets

    monkeypatch.setattr(reconstruct, "f2_gradient", counted)
    code, _, _ = run(capsys, "f2", "--n", "4", "--d", "3")
    assert code == 0
    assert roots == [[Fraction(1), Fraction(4)]]


@pytest.mark.parametrize("n,d,builds", [("4", "3", 1), ("8", "9", 1), ("6", "2,3", 1)])
def test_f2_gradient_parts_built_once_per_call(capsys, monkeypatch, n, d, builds):
    # one f2_gradient call per f2 command solves the quadratic once and
    # builds the gradient parts once, also for the root set {0} without a
    # quadratic (a does not divide n - 1), whose gradient is the constant part
    parts, gradients = _count_f2_calls(monkeypatch)
    code, _, _ = run(capsys, "f2", "--n", n, "--d", d)
    assert code == 0
    assert len(parts) == builds
    assert len(gradients) == 1


def test_f2_tsv_roots_build_no_gradient_parts(capsys, monkeypatch):
    # the TSV prints the roots only, and {0} on X_6(2,3) needs no parts and
    # no F^(1) jet
    from ciqc import reconstruct
    parts, gradients = _count_f2_calls(monkeypatch)
    f1s, real = [], reconstruct.f1_series

    def counted(*args):
        f1s.append(args)
        return real(*args)

    monkeypatch.setattr(reconstruct, "f1_series", counted)
    code, out, _ = run(capsys, "f2", "--n", "6", "--d", "2,3", "--format", "tsv")
    assert (code, out) == (0, "roots\n0\n")
    assert parts == gradients == f1s == []
    code, out, _ = run(capsys, "f2", "--n", "4", "--d", "3", "--format", "tsv")
    assert (code, out, len(f1s)) == (0, "roots\n1\t4\n", 1)


@pytest.mark.parametrize("content", [None, "not json {", '{"nt": 4}'])
def test_residual_unreadable_load_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "F.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "residual", "--n", "3", "--d", "3",
                         "--load", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "cannot load" in err
    assert "Traceback" not in err


def _set_term(field, value):
    return lambda F: F["terms"][0].update({field: value})


# each edit of the F = s t^1 potential ({"nt": 4, "degree_cap": 2, "qmax": 2,
# one term s t^1 with coefficient [[0, "1"]]}) makes the file malformed
MALFORMED_POTENTIALS = {
    "monomial-length": _set_term("monomial", [0, 1, 0, 0]),
    "zero-denominator": _set_term("coefficient", [[0, "1/0"]]),
    "negative-exponent": _set_term("monomial", [-1, 1, 0, 0, 1]),
    "fractional-exponent": _set_term("monomial", [0, 1.5, 0, 0, 1]),
    "fractional-q-exponent": _set_term("coefficient", [[0.5, "1"]]),
    "duplicate-q-exponent": _set_term("coefficient", [[0, "1"], [0, "2"]]),
    "negative-q-exponent": _set_term("coefficient", [[-1, "1"]]),
    "outside-degree-cap": _set_term("monomial", [0, 3, 0, 0, 1]),
    "repeated-monomial": lambda F: F["terms"].append(
        {"monomial": [0, 1, 0, 0, 1], "coefficient": [[0, "-1"]]}),
    "negative-qmax": lambda F: F.update(qmax=-1),
}


@pytest.mark.parametrize("name", MALFORMED_POTENTIALS)
def test_residual_malformed_potential_is_usage_error(tmp_path, capsys, name):
    F = json.loads(Path(S_T1).read_text())
    MALFORMED_POTENTIALS[name](F)
    path = tmp_path / "F.json"
    path.write_text(json.dumps(F))
    code, out, err = run(capsys, "residual", "--n", "3", "--d", "3",
                         "--load", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "cannot load" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kmax", ["-3", "2"])
def test_higherk_kmax_below_first_order_is_usage_error(capsys, kmax):
    code, out, err = run(capsys, "higherk", "--n", "4", "--d", "3",
                         "--kmax", kmax)
    assert code == 1
    assert out == ""
    assert "--kmax" in err


def test_higherk_kmax_above_limit_is_usage_error(capsys):
    code, out, err = run(capsys, "higherk", "--n", "4", "--d", "3",
                         "--kmax", "100000000")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "--kmax" in err
    code, out, _ = run(capsys, "higherk", "--n", "4", "--d", "3",
                       "--kmax", str(HIGHERK_KMAX_LIMIT))
    assert code == 0
    assert json.loads(out)["records"][-1]["order"] == HIGHERK_KMAX_LIMIT


@pytest.mark.parametrize("command", ["info", "smallqh"])
@pytest.mark.parametrize("d", ["1371", "685,686", "100000000", str(10 ** 20)])
def test_multidegree_above_the_bound_is_domain_error(capsys, command, d):
    # b = 1371^1371 has 4301 digits, one more than Python writes out; 10^8
    # would build gigantic b and ell, and 10^20 overflows math.factorial:
    # describe refuses each before forming b or ell
    code, out, err = run(capsys, command, "--n", "3", "--d", d)
    assert (code, out) == (2, "")
    total = sum(map(int, d.split(",")))
    assert err == f"domain error: multidegree sum {total} exceeds {MULTIDEGREE_SUM_LIMIT}\n"


@pytest.mark.parametrize("d", ["1370", "685,685"])
def test_multidegree_at_the_bound_prints(capsys, d):
    code, out, err = run(capsys, "info", "--n", "3", "--d", d)
    assert (code, err) == (0, "")
    degrees = [int(x) for x in d.split(",")]
    assert json.loads(out)["b"] == prod(di ** di for di in degrees)


@pytest.mark.parametrize("command", ["info", "smallqh"])
@pytest.mark.parametrize("n", ["1301", str(10 ** 20)])
def test_dimension_above_the_bound_is_domain_error(capsys, command, n):
    # describe refuses n before the Chern numbers: X_14000(3) used to take
    # 36 s to print, X_2000(1000) and n = 10^20 to end in a traceback or hang
    code, out, err = run(capsys, command, "--n", n, "--d", "3")
    assert (code, out) == (2, "")
    assert err == f"domain error: dimension {n} exceeds {DIMENSION_LIMIT}\n"


@pytest.mark.parametrize("check", ["all", "cubic7", "cubic13", "cubic16", "hilb2"])
@pytest.mark.parametrize("n", ["101", str(10 ** 20)])
def test_fano_lines_above_the_bound_is_domain_error(capsys, check, n):
    # refused for every --check before any Schubert product; --n 10^20 used
    # to run until it was killed
    start = time.perf_counter()
    code, out, err = run(capsys, "fano-lines", "--n", n, "--check", check)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == f"domain error: fano-lines needs n <= {FANO_LINES_N_LIMIT}, got n = {n}\n"


def test_fano_lines_at_the_bound_prints(capsys):
    code, out, err = run(capsys, "fano-lines", "--n", str(FANO_LINES_N_LIMIT), "--check", "cubic7")
    assert (code, err) == (0, "")
    z = json.loads(out)["checks"]["primitive_square_class"]["z"]
    n = FANO_LINES_N_LIMIT
    assert z == [rat_str(Fraction((-2) ** (n + 1 - k) - (-2) ** (k + 2), 9)) for k in range(n // 2)]


def test_dimension_and_multidegree_at_their_bounds_print(capsys):
    # X_1300(1370): chi = ((1 - D)^{n+2} - 1)/D + n + 2 has 4081 digits
    code, out, err = run(capsys, "info", "--n", "1300", "--d", "1370")
    assert (code, err) == (0, "")
    assert json.loads(out)["chi"] == (((-1369) ** 1302 - 1) // 1370 + 1302)


@pytest.mark.parametrize("argv", [
    ["f2", "--n", "4", "--d", "3", "--no-header"],
    ["smallqh", "--n", "4", "--d", "3,x"],
    ["info", "--n", "4", "--d", ""],
    ["genus1", "--n", "4", "--d", "x"],
    ["verify", "--n", "4", "--d", "x"],
], ids=["f2-no-header-json", "smallqh-d-3x", "info-d-empty", "genus1-d-x",
        "verify-d-x"])
def test_malformed_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "Traceback" not in err


# descriptors outside the reconstruction domain, each with the words of
# stderr that name its case
OUT_OF_DOMAIN = {
    "4,2,2": "two quadrics",
    "4,2": "quadric hypersurface",
    "2,3": "dimension 2 < 3",
    "3,5": "non-Fano",
}


@pytest.mark.parametrize("nd", OUT_OF_DOMAIN)
def test_residual_outside_domain_is_domain_error(tmp_path, capsys, nd):
    # the reduction to the one invariant s needs orthogonal or symplectic
    # monodromy; the case is refused although F = s t^1 has the shape
    # the descriptor asks for
    from ciqc.exact import TruncSeries, monomial
    n, d = nd.split(",", 1)
    nt = int(n) + 1
    path = tmp_path / "F.json"
    path.write_text(json.dumps(TruncSeries(
        nt, 2, 2, terms={monomial(nt, (1,), s=1): 1}).to_json()))
    code, out, err = run(capsys, "residual", "--n", n, "--d", d,
                         "--load", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and OUT_OF_DOMAIN[nd] in err


@pytest.mark.parametrize("argv", [["verify", "--n", "4"], ["verify", "--d", "3"]],
                         ids=["verify-n-only", "verify-d-only"])
def test_verify_partial_descriptor_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "--n and --d" in err


def test_verify_exceptional_descriptor_is_domain_error(capsys):
    code, out, err = run(capsys, "verify", "--n", "4", "--d", "2,2")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "two quadrics" in err


def test_verify_filters_on_the_sorted_multidegree(capsys):
    # --d 3,2 names X_5(2,3), as --d 2,3 does
    code, out, err = run(capsys, "verify", "--n", "5", "--d", "3,2")
    assert (code, out, err) == run(capsys, "verify", "--n", "5", "--d", "2,3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10 and all(l.startswith("PASS") for l in lines)
    for number in (1, 4, 6, 10):
        assert "(5, (2, 3))" in lines[number - 1], lines[number - 1]


def test_verify_uncovered_descriptor_is_domain_error(capsys):
    # X_4(3,3) is in the domain, but no verify case names it
    code, out, err = run(capsys, "verify", "--n", "4", "--d", "3,3")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "no verify case covers" in err


COMMANDS = ("info", "smallqh", "f1", "f2", "higherk", "residual", "fano-lines",
            "genus1", "verify")


@st.composite
def cli_argv(draw):
    """An argv of one subcommand with in-range values; --d in any order."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--n", str(draw(st.sampled_from([*range(9), 10 ** 20])))]
    if command != "fano-lines" and (command != "genus1" or draw(st.booleans())):
        degrees = draw(st.lists(st.sampled_from([3, 2, 4, 5, 1, 10 ** 20]),
                                min_size=1, max_size=3))
        argv += ["--d", ",".join(map(str, degrees))]
    if command in ("smallqh", "f1", "f2", "residual") and draw(st.booleans()):
        argv += ["--q", "1"]
    if command == "f2":
        argv += draw(st.sampled_from([[], ["--format", "tsv"], ["--no-header"],
                                      ["--format", "tsv", "--no-header"]]))
    if command == "higherk":
        argv += ["--kmax", str(draw(st.integers(0, HIGHERK_KMAX_LIMIT + 1)))]
    if command == "residual":
        argv += ["--load", S_T1]
    if command == "fano-lines":
        argv += ["--check", draw(st.sampled_from(
            ["all", "cubic7", "cubic13", "cubic16", "hilb2"]))]
    if command == "verify":
        argv += ["--seed", str(draw(st.integers(0, 9)))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cli_argv())
def test_cli_exits_with_a_documented_code(argv):
    # no traceback: an uncaught exception would fail the call itself
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().count("\n") >= 1, argv
