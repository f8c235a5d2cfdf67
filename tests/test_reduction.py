"""Reduced WDVV/Euler system residuals, the s-packing, the full-variable
brute-force equivalence oracle, and the J-function recursion oracles."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial

import pytest

from ciqc import reduction
from ciqc.acceptance import _ring
from ciqc.errors import DomainError, InternalConsistencyError
from ciqc.exact import QPoly, TruncSeries, monomial
from ciqc.geometry import describe
from ciqc.reconstruct import euler_beta, f1_series, f2_gradient
from ciqc.reduction import (ReducedPotential, _derivative_table, _reduced,
                            _wdvv, expand_order_k, expand_to_full,
                            full_wdvv_residuals, pairing_inverse,
                            wdvv_residuals)
from oracles import (diff, j_recursion, low_point_terms, minus, pack_s,
                     primitive_j_layers, reduced_potential, reduced_reference,
                     wdvv_reference)

SEED = 20240811


def cubic4_data():
    ring = _ring(4, (3,))
    return ring.desc, ring, ring.origin


def test_pack_s_even():
    desc = describe(4, (3,))  # m = 22
    assert pack_s(desc, [0] * desc.m) == 0
    vals = [0] * desc.m
    vals[0] = vals[1] = vals[2] = 1
    assert pack_s(desc, vals) == Fraction(3, 2)


def test_pack_s_odd():
    desc = describe(3, (2, 2))  # m = 4, symplectic pairs (0,2), (1,3)
    vals = [0] * desc.m
    vals[0] = 1
    vals[desc.m // 2] = 1
    assert pack_s(desc, vals) == -1
    with pytest.raises(DomainError):
        pack_s(desc, [1, 2, 3])


def test_euler_beta_filter():
    # gcd(n-2, a) > 1 kills every order
    desc = describe(6, (2, 3))  # a = 4, gcd(4,4) = 4
    assert all(euler_beta(desc, k) is None for k in range(1, 12))
    # cubic threefold: beta(2) = (2*1-0)/2 = 1
    assert euler_beta(describe(3, (3,)), 2) == 1
    assert euler_beta(describe(5, (2, 3)), 2) is None  # (n-1)/a = 4/3


def test_reduced_residuals_vanish_on_reconstructed_data():
    # F = F^(0) + s F^(1): the s^0 slice of the first reduced equation and
    # of the pure equation must vanish to the order the jets determine
    desc, ring, F, _ = reduced_potential()
    pot = ReducedPotential(desc, F)
    res = wdvv_residuals(pot)
    for (a, b), series in res["eq_mixed"].items():
        s0 = series.s_slice(0).truncate_degree(1)
        assert s0.is_zero(), (a, b, s0)
    # the pure equation at s^0: F^(1)_e g^{ef} F^(1)_f; its degree-2 part
    # already involves the (unknown) cubic terms of F^(1), so the quadratic
    # jet determines the residual only through degree 1
    pure0 = res["eq_pure"].s_slice(0).truncate_degree(1)
    assert pure0.is_zero()
    # ambient WDVV residual of the degree-5 jet through total degree 1
    for key, series in res["ambient"].items():
        assert series.truncate_degree(1).is_zero(), key


def test_reduced_residuals_detect_perturbation():
    desc, ring, F, _ = reduced_potential()
    key = [0] * (desc.n + 2)
    key[desc.n - 1] = 1
    key[-1] = 1  # tamper with the s t^{n-1} coefficient of F^(1)
    Fbad = F.add_term(tuple(key), QPoly.q_power(1, 1))
    res = wdvv_residuals(ReducedPotential(desc, Fbad))
    hit = any(not series.s_slice(0).truncate_degree(1).is_zero()
              for series in res["eq_mixed"].values())
    hit = hit or not res["eq_pure"].s_slice(0).truncate_degree(1).is_zero()
    assert hit


def test_full_wdvv_matches_ambient_residuals():
    # with no primitive variables the full-variable oracle is the ambient
    # WDVV of F^(0), over the same keys; F^(0) is perturbed at t^1 t^2 t^4,
    # so both are nonzero in the window
    desc, ring, F, f0_t = reduced_potential()
    bump = monomial(desc.n + 1, (1, 2, 4))
    pot = ReducedPotential(desc, F.add_term(bump, QPoly.q_power(1, 1)))
    window = pot.window["ambient"]
    ambient = wdvv_residuals(pot)["ambient"]
    full = full_wdvv_residuals(f0_t.add_term(bump, QPoly.q_power(1, 1)),
                               desc.n, 0, desc.degree)
    inside = {key: res.truncate_degree(window) for key, res in full.items()}
    inside = {key: res for key, res in inside.items() if not res.is_zero()}
    assert inside and inside == {key: res for key, res in ambient.items()
                                 if not res.is_zero()}


def test_full_wdvv_reports_relations_off_the_sorted_quadruples():
    # F = t0^3/6 + t0^2 t2/2 + t0 t1^2/2 + t2^3/6 under the identity pairing:
    # (e1 e1) e2 = e2 but e1 (e1 e2) = 0; no sorted a <= b <= c <= d sees it
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    F = TruncSeries(4, 3, 0, terms={
        monomial(4, (0, 0, 0)): sixth, monomial(4, (0, 0, 2)): half,
        monomial(4, (0, 1, 1)): half, monomial(4, (2, 2, 2)): sixth})
    res = full_wdvv_residuals(F, 0, 3, Fraction(1))
    assert res == {(0, 1, 2, 1): F.like({monomial(4): -1}),
                   (1, 1, 2, 0): F.like({monomial(4): 1})}


@pytest.mark.parametrize("n", [3, 4])
def test_full_wdvv_reports_every_relation_up_to_sign(n):
    # each of the (n+1)^4 relations of a random degree-4 potential, evaluated
    # directly under the anti-diagonal pairing 1/3, is 0 or +- a reported one
    nt = n + 1
    rng = random.Random(SEED + n)
    F = TruncSeries(nt, 4, 0, terms={
        monomial(nt, idx): rng.randint(-3, 3)
        for deg in (3, 4) for idx in combinations_with_replacement(range(nt), deg)})
    third, pairs = {}, {}

    def d3(*idx):
        key = tuple(sorted(idx))
        if key not in third:
            third[key] = diff(F, *key)
        return third[key]

    def T(a, b, c, d):  # F_{abe} g^{ef} F_{cdf}
        key = (tuple(sorted((a, b))), tuple(sorted((c, d))))
        if key not in pairs:
            acc = F.like()
            for e in range(nt):
                acc = acc + d3(a, b, e) * d3(c, d, n - e)
            pairs[key] = acc.scale(Fraction(1, 3))
        return pairs[key]

    def form(series):
        return frozenset(series.terms.items())

    reported = set()
    for series in full_wdvv_residuals(F, n, 0, Fraction(3)).values():
        reported |= {form(series), form(series.scale(-1))}
    for a, b, c, d in product(range(nt), repeat=4):
        rel = minus(T(a, b, c, d), T(a, c, b, d))
        assert rel.is_zero() or form(rel) in reported


def _seeded_series(rng, nt, cap, qmax, terms, s_cap=None, s_max=0):
    """A series with ``terms`` random monomials of degree 3..cap (s-power at
    most ``s_max``) whose coefficients mix q-powers 0..qmax and several
    denominators, so products exercise the packed q digit and the common
    denominator."""
    out = {}
    while len(out) < terms:
        s = rng.randint(0, s_max)
        idx = [rng.randrange(nt) for _ in range(rng.randint(max(3 - s, 0), cap - s))]
        out[monomial(nt, idx, s)] = QPoly({q: Fraction(rng.randint(-9, 9),
                                                       rng.choice((1, 2, 3, 5, 7)))
                                           for q in rng.sample(range(qmax + 1), 2)})
    return TruncSeries(nt, cap, qmax, s_cap, out)


def _seeded_pairing(rng, nt):
    """A symmetric inverse pairing with q-dependent, fractional and zero
    entries."""
    g = [[QPoly.zero() for _ in range(nt)] for _ in range(nt)]
    for e in range(nt):
        for f in range(e, nt):
            if e + f == nt - 1 or rng.random() < 0.3:
                g[e][f] = g[f][e] = QPoly({rng.randint(0, 1): Fraction(
                    rng.choice((-2, 1, 3)), rng.choice((1, 2, 3)))})
    return g


def _same(result, reference):
    assert result.keys() == reference.keys()
    for key, series in result.items():
        assert series.to_json() == reference[key].to_json(), key


@pytest.mark.parametrize("nt", [3, 4, 5, 6, 7])
def test_wdvv_matches_two_contractions_per_key(nt):
    # the anti-diagonal 1/3 at odd nt, a q-dependent pairing at even nt
    rng = random.Random(SEED + nt)
    F = _seeded_series(rng, nt, 5, 2, 24)
    ginv = pairing_inverse(nt - 1, 3, 0) if nt % 2 else _seeded_pairing(rng, nt)
    for cap in (F.degree_cap, 1):
        _same(_wdvv(_derivative_table(F), ginv, cap), wdvv_reference(F, ginv, cap))


def test_full_wdvv_matches_two_contractions_per_key():
    # m = 3 primitive variables beside t^0..t^2, from a seeded reduced potential
    n, m = 2, 3
    rng = random.Random(SEED)
    F = expand_to_full(classical_toy_cubic(n + 1, 4)
                       + random_reduced_poly(rng, n + 1, 4, 3), n, m)
    ref = wdvv_reference(F, pairing_inverse(n, Fraction(1), m))
    res = full_wdvv_residuals(F, n, m, Fraction(1))
    assert res
    _same(res, {key: series for key, series in ref.items() if not series.is_zero()})


@pytest.mark.parametrize("nt,s_cap", [(3, None), (4, 1), (4, None), (5, 2)])
def test_reduced_matches_one_contraction_per_key(nt, s_cap):
    rng = random.Random(SEED + 10 * nt)
    F = _seeded_series(rng, nt, 6, 2, 40, s_cap=s_cap, s_max=2)
    ginv = pairing_inverse(nt - 1, 3, 0) if nt % 2 else _seeded_pairing(rng, nt)
    for caps in ((3, 4), (6, 6)):
        mixed, pure = _reduced(_derivative_table(F), ginv, *caps, s_cap)
        ref_mixed, ref_pure = reduced_reference(F, ginv, *caps, s_cap)
        _same(mixed, ref_mixed)
        assert pure.to_json() == ref_pure.to_json()


def test_wdvv_refuses_an_asymmetric_pairing():
    F = _seeded_series(random.Random(SEED), 3, 5, 1, 10)
    ginv = pairing_inverse(2, 3, 0)
    ginv[0][1] = QPoly.q_power(1)
    with pytest.raises(InternalConsistencyError, match="not symmetric"):
        _wdvv(_derivative_table(F), ginv, F.degree_cap)


@pytest.mark.parametrize("nt,products", [(5, 95), (7, 357)])
def test_wdvv_forms_each_pair_product_once(monkeypatch, nt, products):
    # T(ab|cd) = F_{abe} g^{ef} F_{cdf} has 120 (nt = 5) and 406 (nt = 7)
    # distinct unordered pairs of pairs; the 25 and 49 of them that only
    # identically zero relations (b = c, d = a) read are never formed
    accumulated, tables = [], []

    def accumulate(*args, _real=reduction._accumulate):
        accumulated.append(args)
        return _real(*args)

    def derivative_table(F, _real=reduction._derivative_table):
        tables.append(_real(F))
        return tables[-1]

    monkeypatch.setattr(reduction, "_accumulate", accumulate)
    monkeypatch.setattr(reduction, "_derivative_table", derivative_table)
    F = _seeded_series(random.Random(SEED), nt, 5, 1, 30)
    full_wdvv_residuals(F, nt - 1, 0, 3)

    def side(a, b, c, d):
        return tuple(sorted((tuple(sorted((a, b))), tuple(sorted((c, d))))))

    read = {side(*p) for a, b, c in combinations_with_replacement(range(nt), 3)
            for d in range(nt) if side(a, b, c, d) != side(a, c, b, d)
            for p in ((a, b, c, d), (a, c, b, d))}
    assert len(accumulated) == len(read) == products
    # one table per call, holding each third derivative once
    assert len(tables) == 1
    third = [idx for idx, shift in tables[0].rows if len(idx) == 3 and not shift]
    assert sorted(third) == list(combinations_with_replacement(range(nt), 3))
    assert len(third) == comb(nt + 2, 3)


def test_reduced_potential_keeps_every_jet_term():
    # F = F^(0) + s F^(1) is stored at the q-cap of the uncut F^(0) jet, so
    # F^(0)'s top q-terms stay (a store at ring.qmax = 4 kept 30 and 65)
    for args, count in (((3, (2, 2), 5), 31), ((4, (3,), 6), 67)):
        _, ring, F, f0_t = reduced_potential(*args)
        assert F.qmax == f0_t.qmax == 5 > ring.qmax
        assert len(F.terms) == count, args
        assert all(F.terms[key] == c for key, c in f0_t.terms.items())


def _read(table, rows, cap, s_cap):
    """Table rows as a series under the caps (cap, s_cap), read through
    the accumulator the residuals use, as a product with 1."""
    like = TruncSeries(table.F.nt, cap, table.F.qmax, s_cap)
    acc = reduction._accumulate(like, [(rows, QPoly.const(1), [(0, 0, 0, 0, 1)])], 1)
    return reduction._collect(like, acc, table.den, reduction._base(table.F))


@pytest.mark.parametrize("nt,s_cap", [(3, None), (4, 2), (5, None)])
def test_derivative_table_matches_term_by_term_reference(nt, s_cap):
    # every tabled derivative, t- and s-slots and the s-shifted rows, equals
    # the term-by-term derivative under both windows and with an s-cap
    rng = random.Random(SEED + 20 * nt)
    F = _seeded_series(rng, nt, 6, 2, 40, s_cap=s_cap, s_max=3)
    s_var, s_series = nt, F.like({monomial(nt, s=1): QPoly.const(1)})
    table = _derivative_table(F)
    pairs = list(combinations_with_replacement(range(nt), 2))
    assert set(table.rows) == {
        *((idx, 0) for idx in combinations_with_replacement(range(nt), 3)),
        *(((a, s_var), 0) for a in range(nt)), ((s_var, s_var), 0),
        *(((a, b, s_var), 1) for a, b in pairs), ((s_var, s_var), 1)}
    assert table.rows[(s_var, s_var), 1] and table.rows[(0, 1, s_var), 1]
    for (idx, shift), rows in table.rows.items():
        ref = diff(F, *idx)
        if shift:
            ref = s_series * ref
        for cap in (F.degree_cap - 3, F.degree_cap - 2):
            for read_s_cap in (None, 1):
                expect = TruncSeries(nt, cap, F.qmax, read_s_cap, ref.terms)
                got = _read(table, rows, cap, read_s_cap)
                assert got.to_json() == expect.to_json(), (idx, shift, cap, read_s_cap)


def test_derivative_table_by_hand():
    # F = 6 t0^2 t1 + 4 s^2 + t0 t1 s: F_{001} = 12, F_{s0} = t1, F_{s1} = t0,
    # F_{ss} = 8, s F_{s01} = s, s F_{ss} = 8 s
    F = TruncSeries(2, 3, 0, terms={(2, 1, 0): 6, (0, 0, 2): 4, (1, 1, 1): 1})
    table = _derivative_table(F)

    def read(spec):
        return {key: c.coefficient(0)
                for key, c in _read(table, table.rows[spec], 3, None).terms.items()}

    assert read(((0, 0, 1), 0)) == {(0, 0, 0): 12}
    assert read(((0, 0, 0), 0)) == read(((1, 1, 1), 0)) == {}
    assert read(((0, 2), 0)) == {(0, 1, 0): 1}
    assert read(((1, 2), 0)) == {(1, 0, 0): 1}
    assert read(((2, 2), 0)) == {(0, 0, 0): 8}
    assert read(((0, 1, 2), 1)) == {(0, 0, 1): 1}
    assert read(((2, 2), 1)) == {(0, 0, 1): 8}


@pytest.mark.parametrize("n,d", [(4, (3,)), (3, (2, 2))])
def test_wdvv_residuals_builds_one_table_and_stores_nothing(monkeypatch, n, d):
    # F is differentiated once, into one table, and no intermediate series
    # is stored: every residual goes from integers to its Fractions directly
    desc, _, F, _ = reduced_potential(n, d, 5)
    pot = ReducedPotential(desc, F)
    tables = []

    def derivative_table(F, _real=reduction._derivative_table):
        tables.append(_real(F))
        return tables[-1]

    def store(*args):
        raise AssertionError("TruncSeries._store entered")

    monkeypatch.setattr(reduction, "_derivative_table", derivative_table)
    monkeypatch.setattr(TruncSeries, "_store", store)
    res = wdvv_residuals(pot)
    assert len(tables) == 1 and tables[0].F is pot.F
    assert len(res["eq_mixed"]) == comb(n + 2, 2) and res["ambient"]


@pytest.mark.parametrize("n,d", [(4, (3,)), (3, (2, 2))])
def test_wdvv_residuals_match_the_references(n, d):
    # a seeded potential with s-terms through s^3 at every t-degree, so the
    # ambient residual must read the s^0 slice only, and a q-cap below the
    # windows, so every window reads the table in the potential's own radix
    desc = describe(n, d)
    F = _seeded_series(random.Random(SEED + n), n + 1, 6, 2, 30, s_max=3)
    pot = ReducedPotential(desc, F)
    window = pot.window
    s_cap = None if pot.s_cutoff is None else pot.s_cutoff - 1
    res = wdvv_residuals(pot)
    mixed, pure = reduced_reference(pot.F, pot.ginv, window["eq_mixed"],
                                    window["eq_pure"], s_cap)
    _same(res["eq_mixed"], mixed)
    assert res["eq_pure"].to_json() == pure.to_json()
    _same(res["ambient"], wdvv_reference(pot.F.s_slice(0), pot.ginv, window["ambient"]))
    assert any(not series.is_zero() for series in res["ambient"].values())


def _unwindowed(pot):
    """``wdvv_residuals`` with every product kept up to the potential's own
    degree cap, as the checker computed before it had a window."""
    cap = pot.F.degree_cap
    s_cap = None if pot.s_cutoff is None else pot.s_cutoff - 1
    table = _derivative_table(pot.F)
    mixed, pure = _reduced(table, pot.ginv, cap, cap, s_cap)
    ambient = _wdvv(table, pot.ginv, cap)
    return {"eq_mixed": mixed, "eq_pure": pure, "ambient": ambient}


def _residual_degrees(res, base):
    """The lowest total degree at which ``res`` differs from ``base``, per
    equation ('eq_mixed', 'eq_pure', 'ambient'); equal equations are absent."""
    lowest = {}
    for name in ("eq_mixed", "ambient"):
        for key, series in res[name].items():
            delta = minus(series, base[name][key])
            if not delta.is_zero():
                low = min(sum(k) for k in delta.terms)
                lowest[name] = min(lowest.get(name, low), low)
    delta = minus(res["eq_pure"], base["eq_pure"])
    if not delta.is_zero():
        lowest["eq_pure"] = min(sum(k) for k in delta.terms)
    return lowest


@pytest.mark.parametrize("n,d", [(4, (3,)), (3, (2, 2))])
def test_windowed_residuals_are_the_unwindowed_ones_truncated(n, d):
    # F = F^(0) + s F^(1) at cap 5 (odd mode for (3,(2,2))): the window is
    # 2 for the ambient and first equation and 3 for the second
    desc, ring, F, _ = reduced_potential(n, d, 5)
    nt = desc.n + 1

    def check(F):
        pot = ReducedPotential(desc, F)
        window = pot.window
        res = wdvv_residuals(pot)
        full = _unwindowed(pot)
        for name in ("eq_mixed", "ambient"):
            assert res[name].keys() == full[name].keys()
            for key, series in res[name].items():
                assert series.degree_cap == window[name]
                assert series == full[name][key].truncate_degree(window[name])
        assert res["eq_pure"] == full["eq_pure"].truncate_degree(window["eq_pure"])
        return res, full

    assert ReducedPotential(desc, F).window == {
        "ambient": 2, "eq_mixed": 2, "eq_pure": 3}
    clean, clean_full = check(F)
    q = QPoly.q_power(1, 1)
    # F^(0) perturbed at degree deg + 3 moves the ambient and first
    # equation at degree deg; s F^(1) at degree deg + 2 moves the second
    for deg in range(3):
        res, _ = check(F.add_term(monomial(nt, (1, 2) + (n,) * (deg + 1)), q))
        low = _residual_degrees(res, clean)
        assert low["ambient"] == low["eq_mixed"] == deg
    for deg in range(4):
        res, _ = check(F.add_term(monomial(nt, (1,) * (deg + 1), 1), q))
        assert _residual_degrees(res, clean)["eq_pure"] == deg
    # s (t^2)^4 moves the residuals only above the window: the unwindowed
    # evaluation shows it, the report does not
    res, full = check(F.add_term(monomial(nt, (2,) * 4, 1), q))
    assert _residual_degrees(full, clean_full) == {"eq_mixed": 3, "eq_pure": 4}
    assert _residual_degrees(res, clean) == {}


def euler_operator(pot, cubic):
    """Residual of E F = (3-n) F + a(n,d) d/dt^1 c for the Euler field
    E = sum (1-i) t^i d/dt^i + (2-n) s d/ds + a(n,d) d/dt^1, written as
    sum (1-i) t^i F_i + (2-n) s F_s + a F_1 - (3-n) F - a c_1 with one
    monomial product per variable."""
    F, n, a = pot.F, pot.desc.n, pot.desc.a

    def var(i):  # t^i for i <= n, s for i = n + 1
        return F.like().add_term(
            tuple(int(k == i) for k in range(n + 2)), QPoly.const(1))

    acc = (var(n + 1) * diff(F, n + 1)).scale(2 - n)
    for i in range(n + 1):
        acc = acc + (var(i) * diff(F, i)).scale(1 - i)
    return (acc + diff(F, 1).scale(a) + F.scale(n - 3)
            + diff(cubic, 1).scale(-a))


def test_euler_residual_vanishes_and_detects():
    # the Euler identity sees the full potential, including the stable
    # one- and two-point quantum terms invisible to the WDVV equations
    desc, ring, F, f0_t = reduced_potential()
    Ffull = F + low_point_terms(ring, F.degree_cap)
    pot = ReducedPotential(desc, Ffull)
    cubic = f0_t.like()
    for key, c in f0_t.terms.items():
        if sum(key) == 3:
            c0 = c.coefficient(0)
            if c0 != 0:
                cubic = cubic.add_term(key, QPoly.const(c0))

    def window(series):
        # the jets determine the residual for t-degree <= 4 at s^0 (the
        # degree-5 jet feeds d/dt^1) and t-degree <= 1 at s^1
        kept = [key for key in series.terms
                if (key[-1] == 0 and sum(key) <= 4)
                or (key[-1] == 1 and sum(key[:-1]) <= 1)]
        return kept

    assert window(euler_operator(pot, cubic)) == []
    key = [0] * (desc.n + 2)
    key[2] = 1
    key[-1] = 1
    bad = ReducedPotential(desc, Ffull.add_term(tuple(key), QPoly.const(1)))
    assert window(euler_operator(bad, cubic)) != []


def test_expand_order_one_reproduces_square_zero_equations():
    desc, ring, origin = cubic4_data()
    f1 = f1_series(desc, ring)
    f0_tau = origin.jet_series(4)
    mixed, pure = expand_order_k([f0_tau, f1.tau_jet], 1, ring.ginv)
    for key, series in mixed.items():
        assert series.truncate_degree(1).is_zero(), key
    assert pure.truncate_degree(1).is_zero()


@pytest.mark.parametrize("n,d", [(3, (3,)), (4, (3,)), (5, (3,)),
                                 (3, (2, 2)), (5, (2, 2))])
def test_expand_order_one_reports_string_equation_rows(n, d):
    # the a = 0 rows of the first equation are reported too; the string
    # equation makes them vanish to the order the jets determine
    ring = _ring(n, d)
    f1 = f1_series(ring.desc, ring)
    mixed, _ = expand_order_k([ring.origin.jet_series(4), f1.tau_jet], 1,
                              ring.ginv)
    rows = [key for key in mixed if key[0] == 0]
    assert rows == [(0, b) for b in range(n + 1)]
    for key in rows:
        assert mixed[key].truncate_degree(1).is_zero(), key


def test_expand_order_one_detects_perturbation():
    desc, ring, origin = cubic4_data()
    f1 = f1_series(desc, ring)
    f0_tau = origin.jet_series(4)
    key = [0] * (desc.n + 2)
    key[1] = key[3] = 1
    bad = f1.tau_jet.add_term(tuple(key), QPoly.q_power(1, 1))
    mixed, _ = expand_order_k([f0_tau, bad], 1, ring.ginv)
    assert any(not s.truncate_degree(1).is_zero() for s in mixed.values())


def test_expand_order_two_is_the_f2_equation():
    # pure equation at order 2, evaluated at the origin, is twice the
    # equation g^{0f} F2_f + F2^2 = 0; it vanishes for each root
    desc, ring, origin = cubic4_data()
    f1 = f1_series(desc, ring)
    f0_tau = origin.jet_series(3)
    for f2 in f2_gradient(desc, ring):
        _, pure = expand_order_k([f0_tau, f1.tau_jet, f2.tau_jet], 2, ring.ginv)
        assert pure.coefficient({}).is_zero(), f2.root


# --- brute-force equivalence of full and reduced WDVV ----------------------


def random_reduced_poly(rng, nt, cap, max_deg, s_only_deg=1):
    s = TruncSeries(nt, cap, 0)
    for _ in range(8):
        key = [0] * (nt + 1)
        budget = rng.randrange(1, max_deg + 1)
        for _ in range(budget):
            key[rng.randrange(nt + 1)] += 1
        if key[-1] > s_only_deg:
            continue
        s = s.add_term(tuple(key), QPoly.const(Fraction(rng.randrange(-3, 4))))
    return s


def classical_toy_cubic(nt, cap):
    # associative toy: F = (t0^2 t2)/2 + (t0 t1^2)/2 over ambient t0,t1,t2
    s = TruncSeries(nt, cap, 0)
    s = s.add_term((2, 0, 1, 0), QPoly.const(Fraction(1, 2)))
    s = s.add_term((1, 2, 0, 0), QPoly.const(Fraction(1, 2)))
    return s


def reduced_residuals_zero(desc_n, F, deg):
    """Evaluate the reduced equations of an abstract even toy directly."""
    nt = desc_n + 1
    ginv = [[QPoly.zero() for _ in range(nt)] for _ in range(nt)]
    for e in range(nt):
        ginv[e][desc_n - e] = QPoly.const(1)

    Fs = diff(F, nt)
    Fss = diff(Fs, nt)
    skey = (0,) * nt + (1,)
    s_series = F.like().add_term(skey, QPoly.const(1))
    ok = True
    for a in range(nt):
        for b in range(a, nt):
            dab = diff(F, a, b)
            third = [diff(dab, e) for e in range(nt)]
            acc = dab.like()
            for e in range(nt):
                acc = acc + third[e] * diff(Fs, desc_n - e)
            acc = acc + (s_series * diff(dab, nt) * Fss).scale(2)
            acc = minus(acc, diff(Fs, a) * diff(Fs, b))
            ok = ok and acc.truncate_degree(deg).is_zero()
    acc = F.like()
    for e in range(nt):
        acc = acc + diff(Fs, e) * diff(Fs, desc_n - e)
    acc = acc + (s_series * Fss * Fss).scale(2)
    ok = ok and acc.truncate_degree(deg).is_zero()

    # ambient WDVV of the s = 0 slice
    f0 = F.s_slice(0)
    for a in range(nt):
        for b in range(nt):
            for c in range(nt):
                for d in range(nt):
                    lhs = F.like()
                    rhs = F.like()
                    for e in range(nt):
                        lhs = lhs + diff(f0, a, b, e) * diff(f0, desc_n - e, c, d)
                        rhs = rhs + diff(f0, a, c, e) * diff(f0, desc_n - e, b, d)
                    ok = ok and minus(lhs, rhs).truncate_degree(deg).is_zero()
    return ok


def test_full_vs_reduced_equivalence_synthetic_m3():
    """Brute-force oracle: expanding s = sum u^2/2 over m = 3 primitive
    variables, the full WDVV residuals vanish iff the reduced ones do."""
    n, m = 2, 3
    nt = n + 1
    cap = 4
    rng = random.Random(SEED)

    def full_zero(F_red, deg):
        F_full = expand_to_full(F_red, n, m)
        res = full_wdvv_residuals(F_full, n, m, Fraction(1))
        return all(series.truncate_degree(deg).is_zero()
                   for series in res.values())

    # a satisfying instance: s-independent associative classical cubic
    good = classical_toy_cubic(nt, cap)
    assert reduced_residuals_zero(n, good, cap - 3)
    assert full_zero(good, cap - 3)

    # the same cubic with an s-dependence no longer satisfies the system
    bad = good.add_term((0, 1, 0, 1), QPoly.const(1))
    assert not reduced_residuals_zero(n, bad, cap - 3)
    assert not full_zero(bad, cap - 3)

    # random perturbations: the two residual systems vanish together
    agree = 0
    for _ in range(12):
        F_red = good + random_reduced_poly(rng, nt, cap, 3)
        lhs = reduced_residuals_zero(n, F_red, 0)
        rhs = full_zero(F_red, 0)
        assert lhs == rhs
        agree += 1
    assert agree == 12


def test_full_expansion_of_s_powers():
    # (s)^2 expands to (sum u^2/2)^2 with the right multinomials
    n, m = 1, 3
    F = TruncSeries(n + 1, 4, 0)
    F = F.add_term((0, 0, 2), QPoly.const(1))
    full = expand_to_full(F, n, m)
    # coefficient of u1^4: 1/4; of u1^2 u2^2: 1/2
    assert full.coefficient({2: 4}) == QPoly.const(Fraction(1, 4))
    assert full.coefficient({2: 2, 3: 2}) == QPoly.const(Fraction(1, 2))


# --- J-recursion ------------------------------------------------------------


def test_primitive_layers_z1_coefficient_is_fs():
    # the z^{-1} coefficient of layer j of exp(F_s/z) is F^(j+1)/j!
    desc, ring, origin = cubic4_data()
    f1 = f1_series(desc, ring)
    f2 = f2_gradient(desc, ring)[0]
    assert f2.root == 1
    f3_placeholder = TruncSeries(desc.n + 1, 1, ring.qmax)
    jets = [origin.jet_series(3), f1.tau_jet, f2.tau_jet, f3_placeholder]
    layers = primitive_j_layers(desc, jets, 2, -3)
    f1r = f1.tau_jet.recap(3)
    assert layers[0][-1] == f1r
    assert layers[1][-1] == f2.tau_jet.recap(3)
    # layer 0, z^{-2}: (F^(1))^2/2
    assert layers[0][-2] == (f1r * f1r).scale(Fraction(1, 2))


def test_index_one_two_point_tower():
    # for index one the two-point primitive descendants
    # <gamma_a psi^k, gamma_b>_{0,2,k+1} / g_ab are (-ell)^{k+1}/(k+1)! q^{k+1}:
    # the constant terms of layer 0 of the primitive J-layers, exp(F^(1)/z)
    # with F^(1)(0) = -ell q
    ring = _ring(4, (3, 3))
    desc = ring.desc
    assert desc.a == 1
    f1 = f1_series(desc, ring)
    layer0 = primitive_j_layers(desc, [ring.origin.jet_series(3), f1.tau_jet],
                                0, -4)[0]
    ell = desc.ell
    for k in range(4):
        tower = Fraction((-ell) ** (k + 1), factorial(k + 1))
        assert layer0[-k - 1].coefficient({}) == QPoly.q_power(k + 1, tower), k


def test_j_recursion_layers_consistency():
    # ambient layer recursion on t-jets: layer 1 at z^{-1} must reproduce
    # F^(1)-gradient contractions of the layer-0 jet
    desc, ring, origin = cubic4_data()
    f1 = f1_series(desc, ring)
    f2 = f2_gradient(desc, ring)[0]
    assert f2.root == 1
    n = desc.n
    jets = [origin.jet_series(3), f1.tau_jet, f2.tau_jet]
    # layer 0 of J_a: take the t-linear seed g_{ac} tau^c at z^0
    seed = TruncSeries(n + 1, 3, ring.qmax)
    key = [0] * (n + 2)
    key[n] = 1
    seed = seed.add_term(tuple(key), QPoly.const(desc.degree))
    layers = j_recursion(desc, jets, {0: seed}, kmax=1, zmin=-3, ginv=ring.ginv)
    out = layers[1]
    # J^(1) = (1/z) F^(1)_b g^{bc} d_c J^(0): with J^(0) = g_{an} tau^n both
    # sides are computable directly
    expect = seed.like()
    f1r = f1.tau_jet.recap(seed.degree_cap)
    for bb in range(n + 1):
        for c in range(n + 1):
            if ring.ginv[bb][c].is_zero():
                continue
            expect = expect + (diff(f1r, bb) * diff(seed, c)).scale(
                ring.ginv[bb][c])
    assert out[-1] == expect


def test_odd_mode_residuals_truncated_below_nilpotency():
    # X_3(2,2): m = 4, so residuals are asserted only below s^2; the
    # reconstructed F = F^(0) + s F^(1) obeys the reduced system there
    desc, ring, F, _ = reduced_potential(3, (2, 2), 5)
    pot = ReducedPotential(desc, F)
    assert pot.F.s_cap == desc.m // 2 == 2
    assert pot.s_cutoff == 2
    res = wdvv_residuals(pot)
    for key in res["eq_mixed"]:
        # the reported residual carries no monomial at or above s^{m/2}
        assert all(k[-1] < 2 for k in res["eq_mixed"][key].terms)
        assert res["eq_mixed"][key].s_slice(0).truncate_degree(1).is_zero()
    assert all(k[-1] < 2 for k in res["eq_pure"].terms)
    assert res["eq_pure"].s_slice(0).truncate_degree(1).is_zero()


def test_reduced_residuals_other_descriptors():
    # same vanishing on an odd cubic and the odd two-quadrics case
    for n, d in [(5, (3,)), (3, (2, 2))]:
        desc, ring, F, _ = reduced_potential(n, d, 4)
        pot = ReducedPotential(desc, F)
        res = wdvv_residuals(pot)
        for key, series in res["eq_mixed"].items():
            assert series.s_slice(0).truncate_degree(1).is_zero(), (n, d, key)
        assert res["eq_pure"].s_slice(0).truncate_degree(1).is_zero(), (n, d)
