"""Genus-one pipeline: two-point grid, descendant sums, the f2 selection."""

from fractions import Fraction

import pytest

from ciqc.acceptance import _ring
from ciqc.cli import main
from ciqc.errors import DomainError
from ciqc.genus_one import (descendant_chern_sum, f2_from_genus1, h_10,
                            hn_11, two_point_g0)
from ciqc.geometry import describe
from ciqc.reconstruct import f2_at_zero
from oracles import two_point_induction


def test_two_point_seed_values():
    for n in (3, 4, 5):
        desc = describe(n, (3,))
        assert two_point_g0(desc, _ring(n, (3,)), n, n - 2) == 18
        assert two_point_g0(desc, _ring(n, (3,)), n - 1, n - 1) == 45
        assert two_point_g0(desc, _ring(n, (3,)), n - 2, n) == 18


def test_two_point_grid_induction_vs_closed_form():
    # the flat sections (two_point_g0, which also checks the binomial closed
    # form) against the divisor/TRR induction from the two seeds, on the
    # whole admissible grid; the sign (-1)^K matters at odd K
    for n, d in [(n, (3,)) for n in range(3, 9)] + [(n, (2, 2)) for n in (3, 5, 7)]:
        desc, ring = describe(n, d), _ring(n, d)
        grid = two_point_induction(n, ring.two_point(n, n - 2).coefficient(1),
                                   ring.two_point(n - 1, n - 1).coefficient(1))
        assert len(grid) == (n + 1) ** 2 - 3
        assert {ij: two_point_g0(desc, ring, *ij) for ij in grid} == grid, (n, d)


def test_two_point_rejects_out_of_range():
    with pytest.raises(DomainError):
        two_point_g0(describe(4, (3,)), _ring(4, (3,)), 4, 3)


def test_two_point_binomial_convention_case():
    # n = 4, (i,j) = (2,2): the closed form needs binom(x,k) = 0 for k < 0
    val = two_point_g0(describe(4, (3,)), _ring(4, (3,)), 2, 2)
    # K = 2: (-1)^2 C(2,2) 18 + (-1)^1 C(2,1) 45 + (-1)^0 C(2,0) 18 = -54
    assert val == 18 - 90 + 18 == -54


def test_descendant_chern_sum_n3():
    # n = 3: the sum is 18 * sum (-1)^p [x^{1-p}] (1+x)^5/(1+3x) = 18
    desc = describe(3, (3,))
    assert descendant_chern_sum(desc, _ring(3, (3,))) == 18
    assert _ring(3, (3,)).one_point(3, 0).coefficient(1) == 18
    # so <H_3>_{1,1} = (-18 + 18)/24 = 0
    assert hn_11(desc, _ring(3, (3,))) == 0


@pytest.mark.parametrize("n,expected", [(3, 0), (4, Fraction(-9, 4))])
def test_hn11_values(n, expected):
    assert hn_11(describe(n, (3,)), _ring(n, (3,))) == expected


def test_hn11_routes_agree_3_to_12():
    # residue-sum route vs closed form: the comparison is enforced inside
    # hn_11/descendant_chern_sum; sweep the range
    for n in range(3, 13):
        hn_11(describe(n, (3,)), _ring(n, (3,)))


def test_h10_cubic_threefold():
    assert h_10(describe(3, (3,))) == Fraction(-1, 2)


def genus_one_report(n, d=(3,)):
    return f2_from_genus1(describe(n, d), _ring(n, d))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_f2_selection_is_one(n):
    report = genus_one_report(n)
    assert report.f2 == 1
    assert report.psi11 == Fraction(1, 2)
    assert not report.experimental
    desc, ring = describe(n, (3,)), _ring(n, (3,))
    assert report.f2 in f2_at_zero(desc, ring)


def test_f2_always_selects_one_across_range():
    for n in range(3, 8):
        assert genus_one_report(n).f2 == 1


def test_f2_two_quadrics_experimental():
    report = genus_one_report(3, (2, 2))
    assert report.experimental
    assert report.f2 == 1
    report5 = genus_one_report(5, (2, 2))
    assert report5.f2 == 1


def test_f2_rejects_unsupported(capsys):
    # the genus1 command checks the domain before it builds a ring
    for argv, message in [(["--n", "5", "--d", "5"], "implemented for d = (3), (2,2)"),
                          (["--n", "4", "--d", "2,2"], "exceptional: even-dimensional"),
                          (["--n", "2"], "exceptional: cubic surface"),
                          (["--n", "1"], "need n >= 3")]:
        assert main(["genus1", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("domain error: ") and message in err
        assert err.count("\n") == 1


def test_parity_consistency_with_lines_route():
    # the contraction convention gives the same value the lines-variety
    # quartic forces, in both parities
    from ciqc.fano_lines import omega_checks
    for n in (3, 4, 5, 6):
        assert genus_one_report(n).f2 == omega_checks(n)["f2_at_zero"]


def test_descendant_sum_closed_form_anchor():
    # the cubic descendant sum has the closed value
    # (2/3)((-1)^n 2^{n+1} + 1) + 3n^2 + n - 2, e.g. 18 at n = 3, 72 at n = 4
    assert descendant_chern_sum(describe(3, (3,)), _ring(3, (3,))) == 18
    assert descendant_chern_sum(describe(4, (3,)), _ring(4, (3,))) == 72


def _count_calls(monkeypatch, name, modules):
    """Wrap ``name`` in each module with one shared call counter."""
    calls = []
    for module in modules:
        real = getattr(module, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_f2_from_genus1_builds_one_ring(monkeypatch, capsys):
    # the genus1 command builds the one ring; f2_from_genus1 builds none
    from ciqc import smallqh
    builds = _count_calls(monkeypatch, "build_ring", [smallqh])
    assert main(["genus1", "--n", "5"]) == 0
    assert '"f2": "1"' in capsys.readouterr().out
    assert len(builds) == 1
    assert genus_one_report(5).f2 == 1
    assert len(builds) == 1


@pytest.mark.parametrize("n", [3, 5, 6])
def test_hn11_reuses_a_passed_ring(monkeypatch, n):
    from ciqc import smallqh
    desc, ring = describe(n, (3,)), _ring(n, (3,))
    builds = _count_calls(monkeypatch, "build_ring", [smallqh])
    jets = _count_calls(monkeypatch, "small_j", [smallqh])
    expected = {3: 0, 5: Fraction(-3, 4), 6: Fraction(-15, 2)}[n]
    assert hn_11(desc, ring) == expected
    assert len(builds) == 0 and len(jets) == 0
