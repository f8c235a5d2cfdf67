"""Schubert products, the lines class [F], kernels and the fourfold's Fujiki form."""

import random
from fractions import Fraction

import pytest

from ciqc import fano_lines
from ciqc.errors import DomainError, InternalConsistencyError, VerificationError
from ciqc.fano_lines import (SchubertVector, hilb2_check, hilb2_examples,
                             lines_class, omega_checks,
                             prim_square_class, rank_estimates,
                             schubert_product, sigma1_power)
from oracles import galkin_shinder_betti, schur_oracle_product

SEED = 20240811


def sv(n, terms):
    return SchubertVector(n, {k: Fraction(v) for k, v in terms.items()})


def test_pieri_smallest_case():
    u = SchubertVector.basis(6, 1, 0)
    s1 = SchubertVector.basis(6, 1, 0)
    assert schubert_product(s1, u) == sv(6, {(2, 0): 1, (1, 1): 1})


def test_degree_of_g24():
    # integral over G(2,4) of sigma_1^4 is 2
    assert sigma1_power(2, 4).integral() == 2


def test_duality_pairs():
    n = 5
    for a in range(n + 1):
        for b in range(a + 1):
            u = SchubertVector.basis(n, a, b)
            for c in range(n + 1):
                for d in range(c + 1):
                    v = SchubertVector.basis(n, c, d)
                    val = schubert_product(u, v).integral()
                    expected = 1 if (c, d) == (n - b, n - a) else 0
                    assert val == expected, (a, b, c, d)


def test_pieri_associativity_random():
    rng = random.Random(SEED)
    n = 6
    sigma1 = SchubertVector.basis(n, 1, 0)

    def random_vec():
        v = SchubertVector(n)
        for _ in range(4):
            a = rng.randrange(n + 1)
            b = rng.randrange(a + 1)
            v = v + sv(n, {(a, b): rng.randrange(-3, 4)})
        return v

    for _ in range(15):
        u, v = random_vec(), random_vec()
        lhs = schubert_product(schubert_product(sigma1, u), v)
        rhs = schubert_product(sigma1, schubert_product(u, v))
        assert lhs == rhs


def test_products_match_schur_oracle():
    # every pair of basis classes (1550 pairs over n = 3..6); the product is
    # bilinear, so this covers every product in these degrees
    for n in (3, 4, 5, 6):
        basis = [(a, b) for a in range(n + 1) for b in range(a + 1)]
        for a, b in basis:
            u = SchubertVector.basis(n, a, b)
            for c, d in basis:
                v = SchubertVector.basis(n, c, d)
                assert schubert_product(u, v) == schur_oracle_product(u, v), \
                    (n, (a, b), (c, d))


def test_lines_class_row_products():
    # {k1,k2} 9(3 s1^4 - 4 s1^2 s2 + s2^2) per the separation k1 - k2
    n = 9
    cls = lines_class(n)
    for (k1, k2), expected in [
        ((4, 2), {(7, 3): 2, (6, 4): 5, (5, 5): 2}),
        ((3, 2), {(6, 3): 2, (5, 4): 5}),
        ((2, 2), {(5, 3): 2, (4, 4): 3}),
        ((0, 0), {(3, 1): 2, (2, 2): 3}),
    ]:
        prod = schubert_product(SchubertVector.basis(n, k1, k2), cls)
        assert prod == sv(n, expected).scale(9), (k1, k2)


def test_fano_class_expansion():
    # 9(3 s1^4 - 4 s1^2 s2 + s2^2) = 9(2{3,1} + 3{2,2}) for n >= 4
    cls = lines_class(5)
    assert cls == sv(5, {(3, 1): 18, (2, 2): 27})


def test_primitive_annihilated_by_sigma1sq_minus_sigma2():
    # ({1,1}-multiplication models sigma_1^2 - sigma_2): the contracted
    # primitive square times the lines class is killed by it
    for n in (4, 5, 6):
        from ciqc.fano_lines import prim_square_vector
        v = prim_square_vector(n, prim_square_class(n))
        cls = lines_class(n)
        prod = schubert_product(schubert_product(v, cls),
                                SchubertVector.basis(n, 1, 1))
        assert prod == SchubertVector(n), n


@pytest.mark.parametrize("n,expected", [
    (3, [Fraction(4, 3)]),
    (4, [Fraction(-4), Fraction(8, 3)]),
    (5, [Fraction(20, 3), Fraction(-8, 3)]),
])
def test_prim_square_values(n, expected):
    assert prim_square_class(n) == expected


def test_prim_square_closed_form_range():
    # recursion+normalization agrees with the closed form for 3 <= n <= 12
    # (the comparison is enforced inside prim_square_class)
    for n in range(3, 13):
        z = prim_square_class(n)
        assert len(z) == n // 2


def test_prim_square_ratio_matches_unnormalized_solution():
    # ratio z1/z0 at n = 5 equals the printed unnormalized pair ratio
    z = prim_square_class(5)
    assert z[1] / z[0] == Fraction(-2, 5)


@pytest.mark.parametrize("n,quartic", [(3, 80), (4, 528), (5, 1680)])
def test_omega_quartic_values(n, quartic):
    report = omega_checks(n)
    assert report["quartic"]["value"] == quartic
    assert report["quartic"]["ok"]
    assert report["f2_at_zero"] == 1


def test_omega_checks_range():
    for n in range(3, 11):
        report = omega_checks(n)
        assert report["normalization"]["ok"] and report["quartic"]["ok"]
        assert report["f2_at_zero"] == 1
        # the printed m-form matches the uniform value exactly in even dims
        assert report["quartic"]["m_form_matches"] == (n % 2 == 0)


def test_rank_estimates_bands():
    report = rank_estimates(5)
    assert report["kernel_by_degree"][2 * 5 - 4] == 0
    assert report["kernel_by_degree"][2 * 5 - 2] == 1
    for i in range(5, 2 * 5 - 3):
        assert report["kernel_by_degree"][2 * i] == 2


def test_rank_estimates_betti_identity_n4():
    report = rank_estimates(4)
    m = 22
    row = next(r for r in report["betti"] if r["degree"] == 2 * 4 - 4)
    # .[F] has no kernel at degree 2n - 4, so the image is all of H^4(G), rank 2
    assert row["rk_image"] == 2
    assert row["rk_lines"] - row["rk_image"] == m + m * (m + 1) // 2 - 1


def test_rank_estimates_compares_the_expected_kernels(monkeypatch, capsys):
    # one extra kernel vector in every degree puts a kernel at 2n - 4, where
    # rank_estimates expects none: it raises, and fano-lines exits 3
    from ciqc.cli import main
    real = fano_lines._kernel
    monkeypatch.setattr(fano_lines, "_kernel",
                        lambda images: real(images) + [[Fraction(0)] * len(images)])
    with pytest.raises(InternalConsistencyError, match="expected"):
        rank_estimates(5)
    assert main(["fano-lines", "--n", "5", "--check", "all"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("verification failure: ")


@pytest.mark.parametrize("n", range(3, 15))
def test_betti_table_matches_galkin_shinder(n):
    # odd n: products of the odd primitive classes span Lambda^2, not Sym^2
    table = [row["rk_lines"] for row in rank_estimates(n)["betti"]]
    assert table == galkin_shinder_betti(n)


@pytest.mark.parametrize("n", range(3, 13))
def test_lines_class_is_injective_below_degree_n_minus_2(n):
    # kernel_by_degree starts at j = n - 2 because .[F] has no kernel on
    # H^{2j}(G(2, n+2)) below it
    cls = lines_class(n)
    for j in range(n - 2):
        images = [schubert_product(SchubertVector.basis(n, j - b, b), cls)
                  for b in range(max(0, j - n), j // 2 + 1)]
        assert fano_lines._kernel(images) == [], (n, j)


def test_kernel_of_zero_images_is_the_unit_basis():
    # all-zero images give solve_linear columns with no row, so every column
    # is free; no images have an empty kernel basis
    zero = SchubertVector(4)
    assert fano_lines._kernel([zero] * 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert fano_lines._kernel([]) == []


def test_betti_table_literature_anchors():
    # the Fano surface of a cubic threefold (b1 = 10, b2 = 45) and the
    # K3^[2]-type fourfold of lines of a cubic fourfold
    assert galkin_shinder_betti(3) == [1, 10, 45, 10, 1]
    assert galkin_shinder_betti(4) == [1, 0, 23, 0, 276, 0, 23, 0, 1]


def test_betti_table_low_degrees_match_grassmannian():
    # below degree n - 2 both ranks are the Betti numbers of G(2, n+2): the
    # k // 4 + 1 classes {a, k/2 - a}, a >= k/2 - a, in even degree k < n
    report = rank_estimates(6)
    for r in report["betti"]:
        k = r["degree"]
        if k < 6 - 2:
            assert r["rk_lines"] == r["rk_image"] == (0 if k % 2 else k // 4 + 1)


def test_hilb2_examples():
    # int delta^4 = 3 c q(delta)^2 and int h^2 (gamma + delta)^2 = c q(h) q(delta)
    for c, four, two in [(Fraction(1), 12, -12), (Fraction(1, 2), 6, -6)]:
        ex = hilb2_examples(c)
        assert ex == {"all_delta_four_point": four, "gamma_plus_delta_two_point": two}
        assert all(type(v) is Fraction for v in ex.values()), c


def test_hilb2_scalar_is_one():
    assert hilb2_check() == 1


def test_hilb2_fujiki_integrals():
    # int_F h^4 = 3 q(h)^2 c, int_F h^2 PS = c q(h) (-m), int_F PS^2 = c (m^2 + 2m)
    cls = lines_class(4)
    assert schubert_product(sigma1_power(4, 4), cls).integral() == 108 == 3 * 6 ** 2
    report = omega_checks(4)
    assert report["normalization"]["value"] == -132 == 6 * -22
    assert report["quartic"]["value"] == 528 == 22 ** 2 + 2 * 22


def _tamper_hilb2(monkeypatch, tamper):
    if tamper == "lines_class":
        real = fano_lines.lines_class
        monkeypatch.setattr(fano_lines, "lines_class",
                            lambda n: real(n).scale(2))
    elif tamper == "q_h":
        monkeypatch.setattr(fano_lines, "_Q_H", 7)
    else:
        monkeypatch.setattr(fano_lines, "_FUJIKI", 4)


HILB2_TAMPERS = ["lines_class", "q_h", "fujiki"]


@pytest.mark.parametrize("tamper, message", [
    ("lines_class", "closed form"),  # omega_checks' own identities catch [F] first
    ("q_h", "Fujiki relation fails: the normalization integral is -132, c = 36/49"),
    ("fujiki", "Fujiki relation fails: the normalization integral is -132, c = 3/4"),
])
def test_hilb2_rejects_a_tampered_input(monkeypatch, tamper, message):
    _tamper_hilb2(monkeypatch, tamper)
    with pytest.raises(VerificationError, match=message):
        hilb2_check()


@pytest.mark.parametrize("tamper", HILB2_TAMPERS)
def test_verify_fails_criterion_9_on_a_tampered_input(monkeypatch, capsys, tamper):
    from ciqc.cli import main
    _tamper_hilb2(monkeypatch, tamper)
    assert main(["verify", "--n", "4", "--d", "3"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[8].startswith("FAIL  9 hyperkaehler fourfold cross-check: VerificationError")


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/2", "1"])
def test_inexact_coefficients_are_refused(bad):
    with pytest.raises(DomainError, match="not an int or a Fraction"):
        SchubertVector(4, {(1, 0): bad})
    with pytest.raises(DomainError, match="not an int or a Fraction"):
        SchubertVector.basis(4, 1, 0).scale(bad)


def test_integral_classes_have_int_coefficients():
    # no Fraction is built until a rational coefficient enters
    for n in range(3, 11):
        assert all(type(c) is int for c in lines_class(n).terms.values()), n
    assert type(SchubertVector.basis(5, 2, 1).scale(Fraction(1, 3))
                .terms[(2, 1)]) is Fraction


def test_omega_checks_computes_the_primitive_square_class_once(monkeypatch):
    calls = []
    real = fano_lines.prim_square_class

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(fano_lines, "prim_square_class", counted)
    for n in range(3, 11):
        assert fano_lines.omega_checks(n)["quartic"]["ok"]
    assert calls == list(range(3, 11))


def test_omega_checks_extended_range():
    # quartic identity through n = 12, covering both parities
    for n in (11, 12):
        report = omega_checks(n)
        assert report["quartic"]["ok"] and report["f2_at_zero"] == 1


def test_betti_table_nonnegative():
    # every printed field is a degree or a rank; the image of H^*(G) in
    # H^*(F) is palindromic, as hard Lefschetz on it requires
    for n in range(3, 15):
        betti = rank_estimates(n)["betti"]
        for row in betti:
            assert min(row.values()) >= 0, (n, row)
        images = [row["rk_image"] for row in betti]
        assert images == images[::-1], n
