"""Descriptor and characteristic-number tests."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ciqc.errors import DomainError
from ciqc.geometry import (ORTHOGONAL, SYMPLECTIC, WEYL_D, WEYL_E6, Z2,
                           _chern_numbers, chern_integrals, describe)


def chi_cubic(n):
    # closed form for the Euler characteristic of a cubic n-fold
    return ((-2) ** (n + 2) - 1) // 3 + n + 2


def test_cubic_fourfold():
    desc = describe(4, (3,))
    assert (desc.a, desc.ell, desc.b) == (3, 6, 27)
    assert desc.chi == 27 == chi_cubic(4)
    assert desc.m == 22
    assert not desc.exceptional
    assert desc.monodromy == ORTHOGONAL


def test_two_quadrics_threefold():
    desc = describe(3, (2, 2))
    assert (desc.a, desc.ell, desc.b) == (2, 4, 16)
    assert not desc.exceptional
    assert desc.monodromy == SYMPLECTIC
    assert desc.m == 4  # middle betti number of X_3(2,2) is 4


def test_exceptional_cases():
    desc = describe(4, (2, 2))
    assert desc.exceptional and desc.monodromy == WEYL_D
    assert desc.m == 4 + 3
    assert describe(2, (3,)).monodromy == WEYL_E6
    assert describe(2, (3,)).m == 6
    assert describe(4, (2,)).monodromy == Z2
    assert describe(4, (2,)).m == 1
    assert describe(5, (2,)).m == 0


@pytest.mark.parametrize("n,d", [(4, (2,)), (4, (2, 2)), (2, (3,))])
def test_exceptional_rank_is_cross_checked(monkeypatch, n, d):
    # a family whose closed-form m disagrees with the Euler characteristic's
    # is refused, not described
    from ciqc import geometry
    real = geometry._exceptional_family

    def wrong_rank(n, d):
        name, monodromy, m = real(n, d)
        return name, monodromy, m + 1

    monkeypatch.setattr(geometry, "_exceptional_family", wrong_rank)
    with pytest.raises(DomainError, match="disagrees with classification"):
        describe(n, d)


def test_multidegree_sorted_and_validated():
    assert describe(5, (3, 2)).d == (2, 3)
    with pytest.raises(DomainError):
        describe(0, (3,))
    with pytest.raises(DomainError):
        describe(4, (1, 3))


def test_chi_matches_cubic_closed_form():
    for n in range(3, 13):
        assert describe(n, (3,)).chi == chi_cubic(n)


def test_chern_integrals_cubic_threefold():
    desc = describe(3, (3,))
    ints = chern_integrals(desc)
    assert ints[0] == -6        # Euler characteristic
    assert ints[1] == 12        # integral of H c_2
    assert ints[3] == 3         # degree of the cubic


def test_chern_top_is_degree():
    for n, d in [(3, (3,)), (5, (2, 3)), (4, (2, 2)), (6, (2, 2, 2))]:
        desc = describe(n, d)
        assert chern_integrals(desc)[n] == desc.degree
        assert chern_integrals(desc)[0] == desc.chi


@pytest.mark.parametrize("n,d", [(3, (3,)), (4, (2, 2)), (6, (2, 2, 3)), (12, (7,))])
def test_chern_numbers_are_ints_that_multiply_back(n, d):
    # kappa * prod(1 + d_i x) = (1 + x)^{n+r+1} through x^n, in ints
    kappa = _chern_numbers(n, d)
    assert all(type(k) is int for k in kappa)
    for di in d:
        kappa = [k + (di * kappa[j - 1] if j else 0) for j, k in enumerate(kappa)]
    assert kappa == [comb(n + len(d) + 1, j) for j in range(n + 1)]
    desc = describe(n, d)
    assert type(desc.chi) is int
    assert all(type(v) is Fraction for v in chern_integrals(desc))


def test_chi_parity_and_m_consistency():
    for n, d in [(3, (3,)), (5, (3,)), (7, (3,)), (3, (2, 2)), (5, (2, 2)),
                 (5, (5,)), (5, (2, 3)), (6, (2, 2, 3))]:
        desc = describe(n, d)
        if n % 2 == 1:
            assert desc.chi <= n + 1
        assert desc.m == (1 if n % 2 == 0 else -1) * (desc.chi - n - 1)
        assert desc.m >= 0


def test_describe_pure_function_of_sorted_input():
    assert describe(5, (2, 3)) == describe(5, (3, 2))


@settings(derandomize=True, deadline=None)
@given(st.integers(-1, 12), st.lists(st.integers(0, 6), max_size=4))
def test_describe_raises_or_is_consistent(n, d):
    # every input is either refused or yields a nonnegative primitive rank
    # and an Euler characteristic equal to the top Chern integral
    try:
        desc = describe(n, d)
    except DomainError:
        return
    assert desc.m >= 0
    assert chern_integrals(desc)[0] == desc.chi
