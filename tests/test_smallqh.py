"""Small quantum cohomology: descendants, ring structure, pairings, c(n,d)."""

from fractions import Fraction
from hashlib import sha256
from itertools import combinations_with_replacement, product

import pytest

from ciqc import acceptance, smallqh
from ciqc.acceptance import RING_DESCRIPTORS, _ring
from ciqc.errors import DomainError, InternalConsistencyError
from ciqc.exact import QPoly, rat_str
from ciqc.geometry import describe, require_reconstruction_domain
from ciqc.smallqh import (AmbientOrigin, build_ring, c_constant, pairings,
                          quantum_product_qp, small_j)
from oracles import one_point_descendant, ring_reference, small_j_reference

# index one, hypersurfaces and complete intersections (X_10(11) reaches
# q^11), every multidegree of RING_DESCRIPTORS and more
J_DESCRIPTORS = ([(3, (4,)), (4, (5,)), (6, (7,)), (8, (9,))]
                 + [(3, (2, 3)), (4, (2, 4)), (5, (3, 4)), (6, (2, 2, 5))]
                 + RING_DESCRIPTORS
                 + [(n, (3,)) for n in (6, 8, 12)]
                 + [(4, (3, 3)), (6, (2, 3)), (7, (2, 2)), (3, (2, 2, 2)),
                    (6, (4,)), (10, (11,))])


def qc(ring, c):
    return QPoly.const(c)


def test_one_point_descendant_cubics():
    # < psi^{n-3} H_n >_{0,1,1} = 18 for cubic hypersurfaces of dim >= 3
    for n in range(3, 7):
        assert _ring(n, (3,)).one_point(n, n - 3).coefficient(1) == 18


@pytest.mark.parametrize("n,d", [(4, (3,)), (5, (5,)), (3, (2, 2)), (6, (7,)),
                                 (8, (9,)), (5, (2, 3))])
def test_one_point_reads_s0_as_the_j_series_reference(n, d):
    # ring.one_point(i, k) off S_0 = J/z against the reference read off the
    # J-series itself, for every i <= n and k < 2n; past the jet both raise
    desc, ring = describe(n, d), _ring(n, d)
    jet = small_j(desc)
    for i, k in product(range(n + 1), range(2 * n)):
        try:
            expected = one_point_descendant(desc, jet, k, i)
        except InternalConsistencyError:
            with pytest.raises(InternalConsistencyError):
                ring.one_point(i, k)
            continue
        assert ring.one_point(i, k) == expected, (n, d, i, k)
    for i, k in [(-1, 0), (n + 1, 0), (n, -1)]:
        with pytest.raises(DomainError):
            ring.one_point(i, k)


def test_small_j_degree_zero_is_classical():
    desc = describe(3, (3,))
    jet = small_j(desc)
    for h in range(desc.n + 1):
        for zpow in range(1 - h - desc.a * (len(jet.rows) - 1), 2):
            c0 = jet.entry(zpow, h).coefficient(0)
            expected = 1 if (zpow == 1 and h == 0) else 0
            assert c0 == expected


@pytest.mark.parametrize("n,d", J_DESCRIPTORS)
def test_small_j_equals_the_expansion_from_scratch(n, d):
    desc = describe(n, d)
    jet = small_j(desc)
    assert jet.degree == 1
    assert jet.rows == small_j_reference(desc, (n + 1) // desc.a)


def _perturbed(matrix, i, j, one):
    out = [list(row) for row in matrix]
    out[i][j] = out[i][j] + one
    return out


@pytest.mark.parametrize("n,d", [(4, (3,)), (3, (4,))])
def test_inverse_checks_see_every_entry(monkeypatch, n, d):
    # the W M = I and g g^{-1} = I checks only multiply nonzero entries;
    # a +1 at any position of M or of g must still be caught
    desc = describe(n, d)
    invert, pairing = smallqh._invert_unitriangular, smallqh._pairing
    for i, j in product(range(n + 1), repeat=2):
        monkeypatch.setattr(smallqh, "_invert_unitriangular",
                            lambda w: _perturbed(invert(w), i, j, 1))
        with pytest.raises(InternalConsistencyError, match="W \\* M"):
            build_ring(desc)
        monkeypatch.setattr(smallqh, "_invert_unitriangular", invert)
        monkeypatch.setattr(
            smallqh, "_pairing", lambda desc, e, f: pairing(desc, e, f)
            + QPoly.const(int((e, f) == (i, j))))
        with pytest.raises(InternalConsistencyError, match="pairing inverse"):
            build_ring(desc)
        monkeypatch.setattr(smallqh, "_pairing", pairing)
    build_ring(desc)


@pytest.mark.parametrize("n,d", [(4, (3,)), (3, (4,)), (5, (2, 3)), (3, (2, 2)),
                                 (5, (5,))])
def test_flat_section_checks_see_every_j_entry(monkeypatch, n, d):
    # every stored entry of J is exact, so a +1 at any of them must break
    # the flat-section recursion or a check downstream of it; at q^0 H_0 the
    # classical term becomes 2 z H_0, so D S_0 starts at 2 H_1
    desc = describe(n, d)
    real = smallqh.small_j
    rows = real(desc).rows
    for delta, h in product(range(len(rows)), range(n + 1)):
        def perturbed(desc, delta=delta, h=h):
            jet = real(desc)
            jet.rows[delta][h] += 1
            return jet
        monkeypatch.setattr(smallqh, "small_j", perturbed)
        match = "does not start at H_" if (delta, h) == (0, 0) else None
        with pytest.raises(InternalConsistencyError, match=match):
            build_ring(desc)
    monkeypatch.setattr(smallqh, "small_j", real)
    build_ring(desc)


# the benchmark sweep's descriptors, cubics n <= 12 and two of index one
FLAT_SECTION_DESCRIPTORS = sorted(set(
    RING_DESCRIPTORS + [(n, (3,)) for n in range(3, 13)] + [(3, (4,)), (4, (5,))]
    + [(4, (3,)), (5, (5,)), (6, (7,)), (5, (2, 2)), (8, (9,)), (3, (2, 2)),
       (6, (2, 3)), (12, (3,))]))


@pytest.mark.parametrize("n,d", FLAT_SECTION_DESCRIPTORS)
def test_integer_flat_sections_equal_the_fraction_recursion(n, d):
    # the recursion on integers over (delta!)^{2n+r+1} gives the Fraction
    # recursion's flat sections, and the matrices filled on the graded
    # support equal the ones filled at every position
    ring = build_ring(describe(n, d))
    ref = ring_reference(ring.desc)
    assert [s.rows for s in ring.smat] == ref["smat"]
    assert (ring.multH, ring.powers, ring.M, ring.W, ring.ginv) == \
        (ref["multH"], ref["powers"], ref["M"], ref["W"], ref["ginv"])


@pytest.mark.parametrize("delta", [0, 1, 4])
def test_non_integral_j_layer_is_refused(monkeypatch, delta):
    # a J entry whose denominator does not divide (delta!)^{2n+r+1} cannot
    # be carried on integers; build_ring says so instead of truncating it
    desc, real = describe(3, (4,)), smallqh.small_j

    def perturbed(desc):
        jet = real(desc)
        jet.rows[delta][1] += Fraction(1, 7)
        return jet

    monkeypatch.setattr(smallqh, "small_j", perturbed)
    with pytest.raises(InternalConsistencyError, match="not integral"):
        build_ring(desc)


def test_flat_sections_are_graded():
    # J has degree 1 and the flat section S_j starts at H_j: degree j
    for n, d in [(4, (3,)), (4, (3, 3)), (5, (2, 3))]:
        ring = _ring(n, d)
        assert small_j(ring.desc).degree == 1
        assert [s.degree for s in ring.smat] == list(range(n + 1))


def test_small_j_refuses_non_fano_and_exceptional():
    with pytest.raises(DomainError):
        small_j(describe(3, (2, 4)))  # index 0, Calabi-Yau
    with pytest.raises(DomainError):
        small_j(describe(4, (2, 2)))  # exceptional
    with pytest.raises(DomainError):
        small_j(describe(4, (2,)))  # quadrics, as build_ring refuses them


@pytest.mark.parametrize("n,d", RING_DESCRIPTORS)
def test_ring_relation(n, d):
    # build_ring internally asserts H^{n+1} = b q H^{n+1-a}; cross-check here
    desc = describe(n, d)
    ring = _ring(n, d)
    vec = ring.powers[0]
    for _ in range(n + 1):
        vec = [sum((ring.multH[i][j] * vec[j] for j in range(n + 1)),
                   QPoly.zero()) for i in range(n + 1)]
    bq = QPoly.q_power(1, desc.b)
    target = ring.powers[0]
    for _ in range(n + 1 - desc.a):
        target = [sum((ring.multH[i][j] * target[j] for j in range(n + 1)),
                      QPoly.zero()) for i in range(n + 1)]
    assert vec == [t * bq for t in target]


def test_cubic_fourfold_relation_explicit():
    desc = describe(4, (3,))
    ring = _ring(4, (3,))
    # H^5 = 27 q H^2 read as matrices acting on the identity
    v = ring.powers[0]
    for _ in range(5):
        v = [sum((ring.multH[i][j] * v[j] for j in range(5)),
                 QPoly.zero()) for i in range(5)]
    h2 = ring.powers[2]
    assert v == [x * QPoly.q_power(1, 27) for x in h2]


@pytest.mark.parametrize("n,d", RING_DESCRIPTORS)
def test_mw_inverse_and_unitriangular(n, d):
    ring = _ring(n, d)
    size = n + 1
    for i in range(size):
        assert ring.M[i][i] == 1
        assert ring.W[i][i] == 1
        for j in range(size):
            acc = sum(ring.W[i][k] * ring.M[k][j] for k in range(size))
            assert acc == (1 if i == j else 0)


def test_cubic_m_entries():
    # for d = (3) and n <= 2a-1 the only depth-one entries are
    # M_n^{n-a} = ell - b = -21 and M_{n-1}^0 = -ell = -6
    for n in (4, 5):
        desc = describe(n, (3,))
        ring = _ring(n, (3,))
        assert ring.M[n][n - desc.a] == desc.ell - desc.b == -21
        assert ring.M[n - 1][n - 1 - desc.a] == -desc.ell == -6


@pytest.mark.parametrize("n,d", RING_DESCRIPTORS)
def test_pairings_formula_and_symmetry(n, d):
    desc = describe(n, d)
    g, ginv = pairings(desc)
    deg = desc.degree
    assert g[n][0].coefficient(0) == deg
    assert ginv[n][0] == QPoly.const(Fraction(1, deg))
    if n - desc.a >= 0:
        assert ginv[n - desc.a][0].coefficient(1) == Fraction(-desc.b, deg)
    for e in range(n + 1):
        for f in range(n + 1):
            assert g[e][f] == g[f][e]
            assert ginv[e][f] == ginv[f][e]


def test_pairing_example_cubic_fourfold():
    desc = describe(4, (3,))
    g, ginv = pairings(desc)
    assert ginv[4][0] == QPoly.const(Fraction(1, 3))
    assert ginv[1][0].coefficient(1) == -9  # -27 q / 3


def test_c_constant_values():
    for n in range(3, 9):
        desc = describe(n, (3,))
        val, conj, ok = c_constant(desc, _ring(n, (3,)))
        assert val == Fraction(2, 9)
        assert ok
    desc = describe(5, (5,))
    val, conj, ok = c_constant(desc, _ring(5, (5,)))
    assert val == Fraction(14712, 390625)
    assert ok  # the conjectured closed form holds here
    for n in (3, 5):
        desc = describe(n, (2, 2))
        val, _, _ = c_constant(desc, _ring(n, (2, 2)))
        assert val == Fraction(1, 4)


def test_two_point_seeds_cubic():
    # the degree-one two-point invariants seeding the genus-one pipeline
    for n in (3, 4, 5):
        ring = _ring(n, (3,))
        assert ring.two_point(n, n - 2).coefficient(1) == 18
        assert ring.two_point(n - 1, n - 1).coefficient(1) == 45


def test_f0_third_derivatives_match_ring():
    # F_{abc}(0) must equal the pairing of H^a o H^b with H^c
    for n, d in [(4, (3,)), (3, (2, 2)), (5, (5,))]:
        desc = describe(n, d)
        ring = _ring(n, d)
        for a, b, c in combinations_with_replacement(range(n + 1), 3):
            val = ring.origin.partial((a, b, c))
            u = [QPoly.const(1 if i == a else 0) for i in range(n + 1)]
            v = [QPoly.const(1 if i == b else 0) for i in range(n + 1)]
            prod = quantum_product_qp(desc, u, v)
            acc = QPoly.zero()
            for e in range(n + 1):
                acc = acc + prod[e] * ring.g[e][c]
            assert acc == val, (a, b, c)


def test_f0_fourth_contracted_matches_c_formula():
    # sum_e F_{abce}(0) g^{e0} = c(n,d) b^k q^k when a+b+c = 1 + k a(n,d)
    # with a,b,c >= 1 and k >= floor(n/a); below that q-order the closed
    # form substitutes powers of b for invariants that are actually zero,
    # so the computed value is compared only on the stable range
    for n, d in [(4, (3,)), (5, (3,)), (3, (2, 2)), (5, (5,)), (5, (2, 3))]:
        desc = describe(n, d)
        ring = _ring(n, d)
        cval, _, _ = c_constant(desc, ring)
        for a, b, c in combinations_with_replacement(range(n + 1), 3):
            val = ring.origin.contract0((a, b, c))
            if 0 in (a, b, c):
                assert val.is_zero()
                continue
            s = a + b + c - 1
            if s >= 0 and s % desc.a == 0:
                k = s // desc.a
                if k >= n // desc.a:
                    expected = QPoly.q_power(k,
                                             cval * Fraction(desc.b) ** k)
                    assert val == expected, (n, d, a, b, c)
            else:
                assert val.is_zero(), (n, d, a, b, c)


def test_f0_fourth_contracted_boundary_entry():
    # the unique below-range entry among the tested descriptors: for
    # X_5(5) at (1,1,1) the true contracted value is 120 q, not c*b*q
    desc = describe(5, (5,))
    ring = _ring(5, (5,))
    assert ring.origin.contract0((1, 1, 1)) == QPoly.q_power(1, 120)
    cval, _, _ = c_constant(desc, ring)
    assert cval * desc.b != 120


@pytest.mark.parametrize("n,d", RING_DESCRIPTORS)
def test_contract0_is_the_unit_contraction_written_out(n, d):
    # g^{e0} is 1/deg at e = n and -b q/deg at e = n - a
    desc = describe(n, d)
    origin = _ring(n, d).origin
    for size in (2, 3):
        for key in combinations_with_replacement(range(n + 1), size):
            top = origin.partial(key + (n,)) \
                + -origin.partial(key + (n - desc.a,)) * QPoly.q_power(1, desc.b)
            assert origin.contract0(key) == top.scale(Fraction(1, desc.degree)), key


def test_f0_fourfold_example_cubic():
    # F_{abc}(0) = 3 * 27^k q^k when a+b+c = 4 + 3k
    desc = describe(4, (3,))
    ring = _ring(4, (3,))
    origin = ring.origin
    assert origin.partial((1, 1, 2)) == QPoly.const(3)
    assert origin.partial((2, 2, 3)).coefficient(1) == 3 * 27  # sum = 4 + 3
    assert origin.partial((2, 4, 4)).coefficient(2) == 3 * 27 ** 2  # sum = 4 + 6
    assert origin.partial((1, 1, 1)).is_zero()


def test_ambient_origin_symmetric_and_string():
    desc = describe(4, (3,))
    origin = AmbientOrigin(desc, _ring(4, (3,)))
    # string equation kills any derivative of order >= 4 containing index 0
    assert origin.partial((0, 1, 2, 3)).is_zero()
    # symmetry is built in via sorting; check a five-point value is stable
    v1 = origin.partial((2, 2, 3, 4, 4))
    v2 = origin.partial((4, 2, 3, 2, 4))
    assert v1 == v2


def _nonzero_partials(origin, degree):
    """{key: F_key(0)} over the nonzero partials of sizes 3..degree."""
    keys = (key for size in range(3, degree + 1)
            for key in combinations_with_replacement(range(origin.desc.n + 1), size))
    return {key: val for key in keys if not (val := origin.partial(key)).is_zero()}


def test_jet_series_holds_every_nonzero_partial():
    # the jet is stored at the grading bound, not cut at ring.qmax: on X_4(3)
    # 26 of the 154 terms through degree 8 sit above q^4, and on X_8(9) 18 of
    # the 312 degree-4 terms above q^17
    assert len(_ring(4, (3,)).origin.jet_series(8).terms) == 154
    origin = _ring(8, (9,)).origin
    partials = _nonzero_partials(origin, 4)
    assert sum(len(key) == 4 for key in partials) == 312
    assert len(origin.jet_series(4).terms) == len(partials)


def test_criterion_jets_lose_no_term():
    # through degree 6 (5 from n = 9) on every descriptor verify reads
    cases = sorted({case[:2] for _, _, cases in acceptance.CRITERIA
                    for case in cases if case[0] is not None})
    for n, d in cases:
        origin = _ring(n, d).origin
        degree = 6 if n < 9 else 5
        jet = origin.jet_series(degree)
        assert len(jet.terms) == len(_nonzero_partials(origin, degree)), (n, d)


@pytest.mark.parametrize("n,d,count,digest", [
    (4, (3,), 63, "f9ddea3b339d4b44787f0ae8356ceee97730a62100b44c858dab7aed83f8e2eb"),
    (5, (3,), 111, "061d8872133739ab08b2e21806f53fe934f977434afc7f7df94ad5cc61896cdf"),
    (3, (2, 2), 43, "f16b22d3f8ef246d8376062ee2955f216d5b7c0d23dccf5a9baf8b5bc290c984"),
    (5, (5,), 229, "840f1ff73498945e1adacd2ab1f201ec0907dc753023b931c7773227899f4f73"),
    (5, (2, 3), 143, "e6e264db689db28bde06f630048f27a861d698f086161597410d9f8f63e3c01e"),
    (6, (7,), 887, "e4c5701ed2043c941d74993c5d0836d1dca2c93eb7e3ffae64aed89e00d2fb1e"),
])
def test_origin_partials_match_pinned_digest(n, d, count, digest):
    # sha256 of every nonzero (key, beta, coefficient) through degree 6:
    # any change to an origin value, or to where it sits in q, changes it
    partials = _nonzero_partials(_ring(n, d).origin, 6)
    lines = [f"{key} {beta} {rat_str(c)}\n"
             for key, val in partials.items() for beta, c in val.items()]
    assert len(lines) == count
    assert sha256("".join(lines).encode()).hexdigest() == digest


def test_origin_memo_holds_only_graded_keys():
    # a key whose beta is negative or fractional is zero by grading and is
    # neither recursed on nor stored
    desc = describe(5, (3,))
    origin = AmbientOrigin(desc, _ring(5, (3,)))
    origin.jet_series(8)
    qdegs = [sum(key) - desc.n + 3 - len(key) for key in origin._cache]
    assert all(qdeg >= 0 and qdeg % desc.a == 0 for qdeg in qdegs)
    assert len(qdegs) == 716


def test_raise_step_contracts_each_distinct_middle_split_once(monkeypatch):
    # repeated indices of P give the same split from several position
    # subsets (3680 subsets here); each distinct split is contracted once
    calls = []
    real = AmbientOrigin._pair_contract

    def counted(self, left, right):
        calls.append((left, right))
        return real(self, left, right)

    monkeypatch.setattr(AmbientOrigin, "_pair_contract", counted)
    AmbientOrigin(describe(5, (3,)), _ring(5, (3,))).jet_series(8)
    assert len(calls) == 1368


def test_index_one_shifted_ring():
    # a = 1 descriptors go through the exp(-ell q/z) shift and still satisfy
    # the ring relation (checked inside build_ring); (4,(3,3)) has a = 1
    desc = describe(4, (3, 3))
    assert desc.a == 1
    ring = _ring(4, (3, 3))
    # the first quantum power is H + ell q, so H_1 = H^1 - ell q H^0
    assert ring.M[1][0] == -desc.ell



def test_ring_relation_wide_range():
    # the quantum ring relation holds for every supported dimension up to 12
    # (build_ring raises internally on failure)
    for n in range(3, 13):
        build_ring(describe(n, (3,)))
    for n in (7, 9, 11):
        build_ring(describe(n, (2, 2)))


def test_c_constant_reproducible():
    # re-deriving M, W from scratch yields the same Rational
    desc = describe(5, (5,))
    v1 = c_constant(desc, build_ring(desc))[0]
    v2 = c_constant(desc, build_ring(desc))[0]
    assert v1 == v2 == Fraction(14712, 390625)


@pytest.mark.parametrize("n,d", RING_DESCRIPTORS)
def test_two_point_consistent_with_divisor(n, d):
    # <H_j, H_e>_{0,2,1} = <H, H_j, H_e>_{0,3,1} (divisor equation), and the
    # right side pairs the multiplication matrix classically; this ties the
    # z^{-1} flat-section data to the z^0 extraction
    desc = describe(n, d)
    ring = _ring(n, d)
    deg = desc.degree
    for j in range(n + 1):
        for e in range(n + 1):
            lhs = ring.two_point(j, e).coefficient(1)
            col = ring.multH[n - e][j].coefficient(1) if desc.a >= 2 else None
            if desc.a >= 2:
                assert lhs == col * deg, (j, e)


def _in_domain(nmax):
    """Every (n, d) with n <= nmax, entries >= 2 and d sorted, that
    require_reconstruction_domain accepts (it refuses n < 3)."""
    out = []
    for n in range(3, nmax + 1):
        for r in range(1, n + 1):  # sum(d_j - 1) <= n, so r <= n
            for d in combinations_with_replacement(range(2, n + 2), r):
                if sum(dj - 1 for dj in d) > n:
                    continue
                try:
                    require_reconstruction_domain(describe(n, d))
                except DomainError:
                    continue
                out.append((n, d))
    return out


def test_every_reader_stays_inside_the_reach():
    # small_j stores q^0..q^R, R = (n + 1) // a; build_ring's columns, every
    # two-point invariant and the criterion-3 descendant read inside it, and
    # the first q-order beyond it raises
    cases = _in_domain(6)
    assert len(cases) == 58
    for n, d in cases:
        desc = describe(n, d)
        ring = build_ring(desc)
        reach = (n + 1) // desc.a
        assert len(ring.smat[0].rows) == reach + 1, (n, d)
        for i, j in product(range(n + 1), repeat=2):
            ring.two_point(i, j)
        ring.one_point(n, n - 3)
        with pytest.raises(InternalConsistencyError):
            ring.smat[0].entry(-desc.a * (reach + 1), 0)


def test_descendant_beyond_the_jet_raises():
    # < psi^10 H_4 > of the cubic fourfold sits at q^4, beyond the q-reach
    # (n + 1) // a = 1: reading it must raise, not return 0
    with pytest.raises(InternalConsistencyError):
        _ring(4, (3,)).one_point(4, 10)


def test_origin_jet_satisfies_differentiated_wdvv():
    # the once-differentiated associativity identity at the origin, on every
    # index tuple (A, B, C, D, p) in [1, n]^5
    for n, d in [(4, (3,)), (3, (2, 2)), (5, (2, 3))]:
        desc = describe(n, d)
        ring = _ring(n, d)
        origin = AmbientOrigin(desc, ring)
        deg, aa = desc.degree, desc.a

        def contract(left, right):
            acc = QPoly.zero()
            for e in range(n + 1):
                le = origin.partial(tuple(sorted(left + (e,))))
                if le.is_zero():
                    continue
                acc = acc + le * origin.partial(
                    tuple(sorted(right + (n - e,)))).scale(Fraction(1, deg))
                f2 = n - aa - e
                if f2 >= 0:
                    acc = acc + -(le * origin.partial(
                        tuple(sorted(right + (f2,)))).scale(
                        Fraction(desc.b, deg))) * QPoly.q_power(1)
            return acc

        for A, B, C, D, p in product(range(1, n + 1), repeat=5):
            lhs = contract((A, B, p), (C, D)) + contract((A, B), (C, D, p))
            rhs = contract((A, C, p), (B, D)) + contract((A, C), (B, D, p))
            assert lhs == rhs, (n, d, A, B, C, D, p)


def test_quintic_fivefold_base_change_golden():
    # frozen values of the base-change matrices for X_5(5); these feed the
    # c-constant 14712/390625 and were confirmed against the divisor and
    # contracted-derivative routes independently
    ring = _ring(5, (5,))
    expected_m = {(2, 0): -120, (3, 1): -890, (4, 2): -2235, (5, 3): -3005,
                  (4, 0): -49800, (5, 1): -57000}
    for (i, j), val in expected_m.items():
        assert ring.M[i][j] == val, (i, j)
    assert ring.W[4][0] == 318000
    assert ring.W[5][1] == 2731450


def test_cubic_threefold_m_entries():
    # the lines-through-a-point count enters as M_{n-1}^0 = -ell
    desc = describe(3, (3,))
    ring = _ring(3, (3,))
    assert ring.M[2][0] == -6
    assert ring.M[3][1] == desc.ell - desc.b == -21
