"""Square-zero vector, quotient-ring model, F^(1)/F^(2) jets, higher orders."""

import random
from fractions import Fraction

import pytest

from ciqc.acceptance import RING_DESCRIPTORS, _expected_f1_t_jet, _ring
from ciqc.errors import DomainError
from ciqc.exact import QPoly, linear_substitute
from ciqc.geometry import describe
from ciqc.reconstruct import (_poly_gcd_degree, _tau_to_t_forms, artin_iso, f1_series,
                              f2_gradient, gamma_vector, higher_k_coeffs)
from ciqc.smallqh import build_ring, c_constant
from oracles import (coefficient, diff, f2_gradient_closed_form, f2_origin_residuals,
                     poly_gcd_degree_euclid)


@pytest.mark.parametrize("n,d", RING_DESCRIPTORS)
def test_gamma_invariants(n, d):
    # construction verifies gamma o gamma = 0, the eigenvector property and
    # (gamma, 1) = 1; reaching here without an exception is the assertion
    desc = describe(n, d)
    gamma = gamma_vector(desc, _ring(n, d))
    assert len(gamma) == n + 1


def test_gamma_cubic_fourfold_explicit():
    desc = describe(4, (3,))
    ring = _ring(4, (3,))
    gamma = gamma_vector(desc, ring)
    third = Fraction(1, 3)
    # (1/3)(H~^4 - 27 q H~) expressed in the classical basis
    expected = [QPoly.zero() for _ in range(5)]
    for i in range(5):
        expected[i] = ring.powers[4][i].scale(third) \
            + -ring.powers[1][i].scale(27 * third) * QPoly.q_power(1)
    assert gamma == expected


def test_gamma_monodromy_consistent_under_degree_permutation():
    ring_a = build_ring(describe(5, (2, 3)))
    ring_b = build_ring(describe(5, (3, 2)))
    assert gamma_vector(describe(5, (2, 3)), ring_a) == \
        gamma_vector(describe(5, (3, 2)), ring_b)


def test_artin_iso_checks():
    for n, k in [(4, 2), (5, 3), (6, 2)]:
        report = artin_iso(n, k, 27)
        assert report["eps_k_zero"]
        assert report["eps_power_formula"]
    rep1 = artin_iso(4, 1, 27)
    assert rep1["eps_k_zero"]
    assert rep1["semisimple_distinct_roots"]
    with pytest.raises(DomainError):
        artin_iso(4, 2, 0)


def test_poly_gcd_degree_hand_case():
    # (w - 1)^2 (w + 2) = w^3 - 3w + 2 and its derivative 3w^2 - 3 share w - 1
    assert _poly_gcd_degree([2, -3, 0, 1], [-3, 0, 3]) == 1
    assert _poly_gcd_degree([-3, 0, 3], [2, -3, 0, 1]) == 1


def _from_roots(roots, lead):
    poly = [Fraction(lead)]
    for root in roots:  # poly * (w - root)
        poly = [x - root * y for x, y in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
    return poly


def test_poly_gcd_degree_matches_euclid():
    # seeded pairs sharing a factor, roots repeated within and across them;
    # the Sylvester kernel dimension against Euclid's remainder sequence
    rng = random.Random(28)
    for _ in range(40):
        roots = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(6)]
        common = rng.choices(roots, k=rng.randint(0, 3))
        p = _from_roots(common + rng.choices(roots, k=rng.randint(0, 3)), rng.randint(1, 5))
        q = _from_roots(common + rng.choices(roots, k=rng.randint(0, 3)), -rng.randint(1, 5))
        assert _poly_gcd_degree(p, q) == poly_gcd_degree_euclid(p, q) >= len(common), (p, q)


@pytest.mark.parametrize("n,d", [(3, (3,)), (4, (3,)), (5, (3,)),
                                 (3, (2, 2)), (5, (2, 2))])
def test_f1_jet_matches_printed_form(n, d):
    desc = describe(n, d)
    ring = _ring(n, d)
    jet = f1_series(desc, ring)
    assert jet.t_jet == _expected_f1_t_jet(desc)


def test_f1_cubic_fourfold_explicit_coefficients():
    desc = describe(4, (3,))
    jet = f1_series(desc, _ring(4, (3,)))
    t = jet.t_jet
    assert coefficient(t, {0: 1}) == QPoly.const(1)
    assert coefficient(t, {3: 1}).coefficient(1) == -6
    assert coefficient(t, {1: 1, 3: 1}).coefficient(1) == -6  # -3q * 2 ordered pairs
    assert coefficient(t, {2: 2}).coefficient(1) == -3
    assert coefficient(t, {3: 1, 4: 1}).coefficient(2) == -36


def test_f1_string_direction():
    for n, d in [(4, (3,)), (3, (2, 2))]:
        jet = f1_series(describe(n, d), _ring(n, d))
        grad0 = diff(jet.t_jet, 0)
        assert coefficient(grad0, {}) == QPoly.const(1)
        # and t^0 appears only linearly
        assert grad0 == jet.t_jet.like().add_term(
            (0,) * (n + 2), QPoly.const(1))


def test_f1_quadratic_matches_c_constant_in_range():
    # F^(1)_{ij}(0) = -c(n,d) b^k q^k at i+j = 1+ka on the stable range
    for n, d in [(4, (3,)), (5, (3,)), (3, (2, 2))]:
        desc = describe(n, d)
        ring = _ring(n, d)
        cval, _, _ = c_constant(desc, ring)
        hessian = f1_series(desc, ring).hessian
        assert all(val.is_zero() for val in hessian[0])
        for i in range(1, desc.n + 1):
            assert hessian[i][0].is_zero()
            for j in range(i, desc.n + 1):
                val = hessian[i][j]
                assert hessian[j][i] == val
                s = i + j - 1
                if s % desc.a == 0 and s > 0:
                    k = s // desc.a
                    expected = QPoly.q_power(k, -cval * Fraction(desc.b) ** k)
                    assert val == expected, (n, d, i, j)
                else:
                    assert val.is_zero()


@pytest.mark.parametrize("n,d,expected", [
    (4, (3,), [1, 4]),
    (5, (3,), [1, 4]),
    (3, (3,), [1, 4]),
    (3, (2, 2), [1]),
    (5, (2, 2), [1]),
    (5, (2, 3), [0]),
])
def test_f2_at_zero_root_sets(n, d, expected):
    roots = [jet.root for jet in _ring(n, d).f2]
    assert roots == [Fraction(e) for e in expected]


def test_f2_at_zero_quintic_fivefold_boundary():
    # the honest reduced-WDVV quadratic for X_5(5) does not degenerate:
    # with the true F^(1) data (cross-checked against the divisor route,
    # both fourth-derivative splits and the isotropy constraint) it reads
    # (F - 1440 q^2)^2 = 0, so the double root 1440 is forced
    roots = [jet.root for jet in _ring(5, (5,)).f2]
    assert roots == [Fraction(1440)]


def test_f2_zero_whenever_gcd_filter_triggers():
    # gcd(n-2, a) > 1 forces the trivial root set
    for n, d in [(6, (2, 3)), (4, (2, 2, 2))]:
        desc = describe(n, d)
        if desc.exceptional or desc.a < 1 or desc.n < 3:
            continue
        import math
        if math.gcd(desc.n - 2, desc.a) > 1:
            assert [jet.root for jet in _ring(n, d).f2] == [Fraction(0)]


@pytest.mark.parametrize("n,d", RING_DESCRIPTORS + [(6, (2, 3)), (4, (2, 2, 2))])
def test_f2_gradient_has_one_jet_per_root(n, d):
    # one quadratic solve: ring.f2 holds f2_gradient's jets, one per root,
    # ascending, also on the gcd-filtered descriptors, whose root set {0}
    # needs none; the ring builds them once
    desc, ring = describe(n, d), _ring(n, d)
    roots = [jet.root for jet in ring.f2]
    assert roots == sorted(set(roots))
    assert f2_gradient(desc, ring) == ring.f2
    assert ring.f2 is ring.f2


def test_f2_gradient_cubic_jets():
    desc = describe(4, (3,))
    ring = _ring(4, (3,))
    jet1, jet4 = f2_gradient(desc, ring)
    assert (jet1.root, jet4.root) == (1, 4)
    # jet: 1 + t^1 + 3 t^n with q-powers q, q, q^2
    assert jet1.value.coefficient(1) == 1
    assert jet1.t_grad[1].coefficient(1) == 1
    assert jet1.t_grad[4].coefficient(2) == 3
    assert all(jet1.t_grad[i].is_zero() for i in (0, 2, 3))
    assert jet4.value.coefficient(1) == 4
    assert jet4.t_grad[1].coefficient(1) == 4
    assert jet4.t_grad[4].coefficient(2) == -24


def test_f2_gradient_two_quadrics():
    desc = describe(5, (2, 2))
    ring = _ring(5, (2, 2))
    [jet] = f2_gradient(desc, ring)
    assert jet.root == 1
    assert jet.value.coefficient(1) == 1
    assert jet.t_grad[1].coefficient(1) == 1
    assert all(jet.t_grad[i].is_zero() for i in (0, 2, 3, 4, 5))


def test_f2_gradient_closed_form_other_degrees():
    # when F^(2)(0) = 0 the gradient rows follow the closed form
    for n, d in [(5, (2, 3)), (7, (2, 2, 2))]:
        desc = describe(n, d)
        ring = _ring(n, d)
        cval, _, _ = c_constant(desc, ring)
        [jet] = f2_gradient(desc, ring)
        assert jet.root == 0
        closed = f2_gradient_closed_form(desc, cval)
        for b in range(2, n + 1):
            assert jet.tau_grad[b] == closed[b], (n, d, b)
    # b = 1 row vanishes with F^(2)(0) = 0
    assert jet.tau_grad[1].is_zero()


def test_f2_origin_residuals_each_root():
    for n, d in [(4, (3,)), (5, (3,)), (3, (2, 2)), (5, (2, 2))]:
        desc = describe(n, d)
        ring = _ring(n, d)
        f1 = f1_series(desc, ring)
        for f2jet in f2_gradient(desc, ring):
            mixed, pure = f2_origin_residuals(desc, ring, f1, f2jet)
            assert pure.is_zero(), (n, d, f2jet.root)
            for key, res in mixed.items():
                assert res.is_zero(), (n, d, f2jet.root, key)


def test_f2_origin_residuals_detect_wrong_root():
    desc = describe(4, (3,))
    ring = _ring(4, (3,))
    f1 = f1_series(desc, ring)
    f2jet = f2_gradient(desc, ring)[0]
    assert f2jet.root == 1
    # tamper with the value: residual of the pure equation must trip
    f2jet = f2jet._replace(value=QPoly.q_power(1, 2))
    _, pure = f2_origin_residuals(desc, ring, f1, f2jet)
    assert not pure.is_zero()


def test_higher_k_coeffs_cubic():
    records = higher_k_coeffs(describe(4, (3,)), 6)
    by_order = {r.order: r for r in records}
    # order 3 (display k = 2): 9/3 - 6 = -3, determined
    assert by_order[3].coefficient == -3
    assert by_order[3].determined
    for r in records:
        assert r.determined


def test_higher_k_coeffs_cubic_threefold_degenerate():
    records = higher_k_coeffs(describe(3, (3,)), 6)
    by_order = {r.order: r for r in records}
    assert by_order[4].coefficient == 0
    assert not by_order[4].determined
    assert "unknown" in by_order[4].note
    assert by_order[3].determined and by_order[5].determined


def test_higher_k_coeffs_two_quadrics_never_zero():
    for n in (3, 5, 7):
        records = higher_k_coeffs(describe(n, (2, 2)), 8)
        for r in records:
            assert r.coefficient == Fraction(4 * (r.k - 1), n - 1)
            assert r.determined


def test_higher_k_coeffs_unsupported_degree():
    with pytest.raises(DomainError):
        higher_k_coeffs(describe(5, (5,)), 4)


def test_gamma_killed_by_multiplication_matrix():
    # H~ o gamma = 0, read through the classical-basis multiplication matrix
    from ciqc.smallqh import _mat_vec
    for n, d in [(4, (3,)), (3, (2, 2)), (5, (5,))]:
        desc = describe(n, d)
        ring = _ring(n, d)
        gamma = gamma_vector(desc, ring)
        image = _mat_vec(ring.multH, gamma)
        assert all(c.is_zero() for c in image), (n, d)


def test_f1_divisor_route_matches_contracted_route():
    # rows with an index 1 come from the divisor vector field; they must
    # agree with the contracted fourth-derivative identity applied to the
    # symmetric entry, including for index-one descriptors
    from fractions import Fraction as Fr
    for n, d in [(4, (3,)), (5, (5,)), (4, (3, 3))]:
        desc = describe(n, d)
        ring = _ring(n, d)
        origin = ring.origin
        jet = f1_series(desc, ring)
        for j in range(2, n + 1):
            via_phi = jet.hessian[1][j]
            via_contracted = -origin.partial(
                tuple(sorted((1, j - 1, 1, n)))).scale(Fr(1, desc.degree))
            if n - desc.a >= 0:
                via_contracted = via_contracted + origin.partial(
                    tuple(sorted((1, j - 1, 1, n - desc.a)))).scale(
                    Fr(desc.b, desc.degree)) * QPoly.q_power(1)
            assert via_phi == via_contracted, (n, d, j)


def test_f2_quintic_fivefold_residuals_close():
    # the forced value 1440 q^2 for X_5(5) satisfies the complete order-2
    # origin system (all mixed equations and the isotropy equation), with
    # gradient rows 2880 q^2, 9000000 q^3, 28114632000 q^4
    desc = describe(5, (5,))
    ring = _ring(5, (5,))
    f1 = f1_series(desc, ring)
    [jet] = f2_gradient(desc, ring)
    assert jet.root == 1440
    assert jet.tau_grad[1].coefficient(2) == 2880
    assert jet.tau_grad[3].coefficient(3) == 9000000
    assert jet.tau_grad[5].coefficient(4) == 28114632000
    mixed, pure = f2_origin_residuals(desc, ring, f1, jet)
    assert pure.is_zero()
    assert all(res.is_zero() for res in mixed.values())


@pytest.mark.parametrize("n,d", [(4, (3,)), (3, (2, 2)), (5, (5,)), (5, (2, 3))])
def test_tau_to_t_substitution_round_trip(n, d):
    # t^j = sum_k W[k][j] q^{(k-j)/a} tau^k undoes tau^i = sum_j M[j][i]
    # q^{(j-i)/a} t^j, since W M = I
    ring = _ring(n, d)
    a = ring.desc.a
    t_to_tau = [[(k, QPoly.q_power((k - j) // a, ring.W[k][j]))
                 for k in range(j, n + 1, a) if ring.W[k][j]]
                for j in range(n + 1)]
    # F^(0) + s F^(1): the s variable passes through unchanged
    f1 = f1_series(ring.desc, ring).tau_jet
    f0 = ring.origin.jet_series(5)
    tau_jet = f0 + f0.like({key[:-1] + (1,): c for key, c in f1.terms.items()})
    t_jet = linear_substitute(tau_jet, _tau_to_t_forms(ring))
    assert t_jet != tau_jet
    assert linear_substitute(t_jet, t_to_tau) == tau_jet
