"""Substrate tests: exact arithmetic, truncated series, linear solving."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ciqc import exact
from ciqc.errors import DomainError, InternalConsistencyError
from ciqc.exact import (QPoly, TruncSeries, contract, monomial, parse_rat,
                        rat_str, solve_linear, substitute)
from oracles import coefficient, contract_series, dense_solve, diff

SEED = 20240811


def series_from_poly(nt, cap, qmax, terms, s_cap=None):
    s = TruncSeries(nt, cap, qmax, s_cap)
    for key, c in terms.items():
        s = s.add_term(key, QPoly.const(c))
    return s


def test_rational_round_trip():
    for s in ["3/4", "-7/2", "5", "0", "-12"]:
        assert rat_str(parse_rat(s)) == s
    assert parse_rat("6/4") == Fraction(3, 2)


def test_qpoly_truncation_and_eval():
    p = QPoly({0: 1, 2: Fraction(3, 2)})
    q3 = QPoly.q_power(3)
    assert (p * q3).coefficient(3) == 1
    assert (p * q3).coefficient(5) == Fraction(3, 2)  # QPoly itself is exact
    capped = TruncSeries(1, 0, 4)  # a stored series with qmax 4
    assert coefficient(capped.add_term((0, 0), p * q3), {}) == q3  # q^5 dropped
    assert capped.add_term((0, 0), q3 * q3).is_zero()
    assert p.eval_q1() == Fraction(5, 2)


def test_qpoly_results_store_no_zero_and_compare_with_scalars():
    # every arithmetic result drops its zeros (cancellations included) and
    # holds Fractions; == and != against an int or a Fraction, and bool,
    # agree with the comparison against QPoly.const of that scalar, also on
    # a monomial q^k with the same coefficient
    rng = random.Random(SEED + 6)
    scalars = [0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(0)]

    def poly():
        return QPoly({k: rng.choice(scalars) for k in rng.sample(range(4), rng.randrange(4))})

    for _ in range(200):
        p, q, c, k = poly(), poly(), rng.choice(scalars), rng.randrange(3)
        results = [p + q, p + (-p), p * q, p * c, c * p, -p, p.scale(c), p.scale(q),
                   QPoly.const(c), QPoly.q_power(k, c), QPoly.zero(), p * QPoly.zero()]
        for r in results:
            assert all(type(v) is Fraction and v != 0 for v in r.coeffs.values())
            assert min(r.coeffs, default=0) >= 0
            assert bool(r) == (r != QPoly.zero()) == (not r.is_zero())
            for x in scalars:
                assert (r == x) == (r == QPoly.const(x)), (r, x)
                assert (r != x) == (r != QPoly.const(x)), (r, x)
        for x in scalars:
            assert (QPoly.q_power(1 + k, x) == x) == (x == 0)
    with pytest.raises(DomainError, match="negative q exponent"):
        QPoly.q_power(-1, 2)
    with pytest.raises(DomainError, match="negative q exponent"):
        QPoly({-1: 2})


def test_mul_truncated_polynomial_identity():
    # (1+t)(1-t) with cap 2 -> 1 - t^2
    one_plus = series_from_poly(1, 2, 0, {(0, 0): 1, (1, 0): 1})
    one_minus = series_from_poly(1, 2, 0, {(0, 0): 1, (1, 0): -1})
    prod = one_plus * one_minus
    assert prod == series_from_poly(1, 2, 0, {(0, 0): 1, (2, 0): -1})


def test_mul_truncated_odd_s_nilpotency():
    # odd mode with m = 4: the s-cap is m/2 = 2, so s^2 * s = 0
    s2 = series_from_poly(1, 5, 0, {(0, 2): 1}, s_cap=2)
    s1 = series_from_poly(1, 5, 0, {(0, 1): 1}, s_cap=2)
    assert (s2 * s1).is_zero()


def test_mul_truncated_q_cap():
    a = series_from_poly(1, 4, 4, {(0, 0): 1})
    a = a.add_term((1, 0), QPoly.q_power(2))
    b = TruncSeries(1, 4, 4, terms={(1, 0): QPoly.q_power(3)})
    assert coefficient(a * b, {0: 2}).is_zero()  # q^5 dropped


def test_mul_insertion_order_independent():
    rng = random.Random(SEED + 1)
    keys = [(i, j, 0) for i in range(3) for j in range(3)]
    coeffs = {k: Fraction(rng.randrange(-5, 6)) for k in keys}
    fwd = TruncSeries(2, 4, 0)
    rev = TruncSeries(2, 4, 0)
    for k in keys:
        fwd = fwd.add_term(k, QPoly.const(coeffs[k]))
    for k in reversed(keys):
        rev = rev.add_term(k, QPoly.const(coeffs[k]))
    other = series_from_poly(2, 4, 0, {(1, 0, 0): 2, (0, 1, 0): -3})
    assert fwd * other == rev * other


def test_s_slice():
    s = series_from_poly(2, 3, 0, {(2, 1, 0): 6, (0, 0, 2): 4})
    assert s.s_slice(2) == series_from_poly(2, 3, 0, {(0, 0, 0): 4})


def test_series_json_round_trip():
    s = series_from_poly(2, 3, 2, {(1, 1, 0): Fraction(-7, 3), (0, 0, 1): 2})
    s = s.add_term((1, 0, 0), QPoly.q_power(2, Fraction(5, 2)))
    assert TruncSeries.from_json(s.to_json()) == s


def solve_rows(matrix, rhs):
    """``solve_linear`` on dense rows: row i of ``matrix`` is row key i."""
    cols = len(matrix[0]) if matrix else 0
    return solve_linear([{i: row[j] for i, row in enumerate(matrix)} for j in range(cols)],
                        dict(enumerate(rhs)))


def test_solve_identity():
    x, kernel, witness = solve_rows([[1, 0], [0, 1]], [1, 0])
    assert x == [1, 0] and kernel == [] and witness is None


def test_solve_tridiagonal_252_chain_n5():
    # chain with interior rows (2,5,2) and boundary rows matching the
    # degree-(2n-2) band at n = 5: unknowns y_0..y_2
    rows = [[2, 5, 2], [0, 2, 5]]
    x, kernel, witness = solve_rows(rows, [0, 0])
    assert witness is None
    assert len(kernel) == 1
    v = kernel[0]
    assert v[0] == 1  # normalized leading entry
    assert 2 * v[0] + 5 * v[1] + 2 * v[2] == 0
    assert 2 * v[1] + 5 * v[2] == 0


def test_solve_injectivity_chain_n5():
    # the degree-(2n-4) band at n = 5: rows 5y0+2y1 = 0, 2y0+5y1 = 0
    assert solve_rows([[5, 2], [2, 5]], [0, 0])[1] == []


def test_solve_inconsistent_reports_witness():
    x, kernel, witness = solve_rows([[1, 1], [2, 2]], [1, 3])
    assert x is None
    assert witness in (0, 1)  # a row participating in the contradiction
    assert len(kernel) == 1


def test_solution_substitutes_back():
    rng = random.Random(SEED + 2)
    for _ in range(20):
        rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(4)] for _ in range(3)]
        target = [Fraction(rng.randrange(-3, 4)) for _ in range(4)]
        rhs = [sum(r[j] * target[j] for j in range(4)) for r in rows]
        x, kernel, witness = solve_rows(rows, rhs)
        assert witness is None
        for r, b in zip(rows, rhs):
            assert sum(ri * xi for ri, xi in zip(r, x)) == b
        for v in kernel:
            for r in rows:
                assert sum(ri * vi for ri, vi in zip(r, v)) == 0


def _seeded_system(rng, kind):
    """A system as column dicts over shuffled string row keys.  ``kind``
    picks full rank, rank-deficient, inconsistent, all-zero columns, a
    duplicated row or an rhs key that no column has."""
    rows, cols = rng.randrange(1, 8), rng.randrange(0, 8)
    if kind == "full_rank":
        rows = cols = max(cols, 1)
    density = rng.choice([0.3, 0.6, 1.0])
    matrix = [[rng.randrange(-3, 4) if rng.random() < density else 0
               for _ in range(cols)] for _ in range(rows)]
    if kind in ("rank_deficient", "inconsistent") and rows >= 3:
        a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
        matrix[-1] = [a * x + b * y for x, y in zip(matrix[0], matrix[1])]
    if kind == "zero_columns":
        for j in rng.sample(range(cols), rng.randrange(0, cols + 1)):
            for row in matrix:
                row[j] = 0
    if kind == "duplicated_row":
        matrix.append(list(rng.choice(matrix)))
    target = [rng.randrange(-3, 4) for _ in range(cols)]
    rhs = [sum(x * y for x, y in zip(row, target)) for row in matrix]
    if kind == "inconsistent":
        rhs[-1] += rng.randrange(1, 4)
    keys = [f"r{i}" for i in rng.sample(range(len(matrix)), len(matrix))]
    # an explicit 0 is a missing key
    columns = [{k: row[j] for k, row in zip(keys, matrix) if row[j] or rng.random() < 0.2}
               for j in range(cols)]
    rhs = {k: b for k, b in zip(keys, rhs) if b or rng.random() < 0.2}
    if kind == "rhs_only_key":
        rhs["extra"] = rng.randrange(-1, 2)
    return columns, rhs


def _dense_rows(columns, rhs):
    """The system's rows as ``dense_solve`` takes them, keyed in reduction
    order: row keys in the order a nonzero entry first names them, the
    columns in order and then ``rhs``."""
    order = list(dict.fromkeys(k for column in [*columns, rhs] for k, c in column.items() if c))
    matrix = [[column.get(k, 0) for column in columns] for k in order]
    return order, matrix, [rhs.get(k, 0) for k in order]


def _first_inconsistent_key(columns, rhs):
    """The first row key, in reduction order, at which the rows so far have
    no solution, by ``dense_solve`` on each prefix; None if consistent."""
    order, matrix, b = _dense_rows(columns, rhs)
    for i in range(len(order)):
        if dense_solve(matrix[:i + 1], b[:i + 1])[0] is None:
            return order[i]
    return None


def test_solve_matches_the_dense_oracle_on_seeded_systems():
    rng = random.Random(SEED + 3)
    kinds = ("full_rank", "rank_deficient", "inconsistent", "zero_columns",
             "duplicated_row", "rhs_only_key")
    systems = [_seeded_system(rng, kinds[i % len(kinds)]) for i in range(600)]
    systems += [([], {}), ([], {"a": 1}), ([{}, {"x": 0}], {}), ([{}, {}], {"y": 2})]
    seen = {"kernel": 0, "witness": 0, "no_columns": 0}
    for columns, rhs in systems:
        x, kernel, witness = solve_linear(columns, rhs)
        order, matrix, b = _dense_rows(columns, rhs)
        if not order:  # no row: one zero row keeps dense_solve's column count
            matrix, b = [[0] * len(columns)], [0]
        dense_x, dense_kernel, dense_witness = dense_solve(matrix, b)
        assert (x, kernel) == (dense_x, dense_kernel), (columns, rhs)
        assert (witness is None) == (dense_witness is None), (columns, rhs)
        assert witness == _first_inconsistent_key(columns, rhs), (columns, rhs)
        seen["kernel"] += bool(kernel)
        seen["witness"] += witness is not None
        seen["no_columns"] += not columns
    assert min(seen.values()) >= 2, seen


def test_solve_tall_sparse_system_matches_the_oracle_quickly():
    # the shape of the reduced-WDVV slice systems: tall, about 2% dense
    rng = random.Random(SEED + 4)
    rows, cols = 300, 40
    matrix = [[rng.choice([-9, -5, -2, -1, 1, 2, 3, 7]) if rng.random() < 0.02 else 0
               for _ in range(cols)] for _ in range(rows)]
    target = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(cols)]
    rhs = [sum(x * y for x, y in zip(row, target)) for row in matrix]
    start = time.perf_counter()
    x, kernel, witness = solve_rows(matrix, rhs)
    assert (x, kernel, witness) == dense_solve(matrix, rhs)
    assert time.perf_counter() - start < 0.5
    assert witness is None


def test_corrupted_elimination_fails_the_self_check(monkeypatch):
    # the rhs entry of the first row an elimination touches, off by 1: the
    # reduced rows no longer describe the system, and substituting the
    # solution back into the rows says so
    rng = random.Random(SEED + 5)
    real = exact._eliminate
    raised = 0
    for _ in range(20):
        size = rng.randrange(2, 6)
        matrix = [[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(size)] for _ in range(size)]
        rhs = [rng.randrange(-3, 4) for _ in range(size)]
        if dense_solve(matrix, rhs)[1]:
            continue  # singular: the corrupted row might only add a witness
        calls = []

        def corrupt(row, c, pivot_row):
            real(row, c, pivot_row)
            if not calls:
                calls.append(c)
                row[size] = row.get(size, 0) + 1

        monkeypatch.setattr(exact, "_eliminate", corrupt)
        with pytest.raises(InternalConsistencyError, match="fails a row"):
            solve_rows(matrix, rhs)
        monkeypatch.setattr(exact, "_eliminate", real)
        assert solve_rows(matrix, rhs)[0] == dense_solve(matrix, rhs)[0]
        raised += 1
    assert raised >= 10


@st.composite
def _capped_operands(draw):
    """A q-cap Q with series A, B and a coefficient c that reach past it."""
    qmax = draw(st.integers(0, 3))
    qpoly = st.dictionaries(
        st.integers(0, qmax + 3),
        st.fractions(-3, 3, max_denominator=4), max_size=3).map(QPoly)
    monomial = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))

    def series():
        terms = draw(st.dictionaries(monomial, qpoly, max_size=5))
        return TruncSeries(2, 3, qmax + 3, terms=terms)

    return qmax, series(), series(), draw(qpoly)


@settings(derandomize=True, deadline=None)
@given(_capped_operands())
def test_store_time_truncation_equals_truncating_throughout(case):
    qmax, a, b, c = case

    def at(series, cap):
        return TruncSeries(series.nt, series.degree_cap, cap, series.s_cap,
                           series.terms)

    assert at(a * b, qmax) == at(a, qmax) * at(b, qmax)
    assert at(a.scale(c), qmax) == at(a, qmax).scale(c)


_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
_qpolys = st.dictionaries(st.integers(0, 2), _fractions, max_size=2).map(QPoly)


def _series(nt):
    monomial = st.tuples(*[st.integers(0, 2)] * (nt + 1))
    return st.dictionaries(monomial, _qpolys, max_size=3).map(
        lambda terms: TruncSeries(nt, 3, 3, terms=terms))


@st.composite
def _pairing_rows(draw):
    """A symmetric inverse pairing over QPoly with two QPoly rows and two
    TruncSeries rows of the same length."""
    size = draw(st.integers(1, 3))
    ginv = [[None] * size for _ in range(size)]
    for e in range(size):
        for f in range(e, size):
            ginv[e][f] = ginv[f][e] = draw(_qpolys)
    rows = [draw(st.lists(kind, min_size=size, max_size=size))
            for kind in (_qpolys, _qpolys, _series(2), _series(2))]
    return ginv, rows


@settings(derandomize=True, deadline=None)
@given(_pairing_rows())
def test_contract_is_symmetric_for_a_symmetric_pairing(case):
    # QPoly rows through ``contract``, series rows through one run of the
    # product kernel over every pair
    ginv, (p, q, u, v) = case
    assert contract(ginv, p, q) == contract(ginv, q, p)
    assert contract_series(ginv, u, v) == contract_series(ginv, v, u)


@settings(derandomize=True, deadline=None)
@given(_series(2), _series(2), st.integers(0, 2))
def test_reference_diff_obeys_leibniz(a, b, i):
    # the tests' term-by-term derivative (i = 2 is s): d(ab) = da b + a db
    # holds through degree cap - 1, since the product drops its terms above
    # the cap before it is differentiated
    lhs = diff(a * b, i).truncate_degree(a.degree_cap - 1)
    rhs = (diff(a, i) * b + a * diff(b, i)).truncate_degree(a.degree_cap - 1)
    assert lhs == rhs


@settings(derandomize=True, deadline=None)
@given(_series(2), _series(2), _series(2))
def test_series_ring_axioms_random(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


def _pairwise_product(left, g, right):
    """left * g * right term pair by term pair: the reference for the
    packed integer kernel of ``TruncSeries.__mul__`` and of a contraction
    summed in one accumulation."""
    out = {}
    for k1, c1 in left.terms.items():
        for k2, c2 in right.terms.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            if sum(key) > left.degree_cap or (
                    left.s_cap is not None and key[-1] > left.s_cap):
                continue
            for e1, v1 in (c1 * g).coeffs.items():
                for e2, v2 in c2.coeffs.items():
                    if e1 + e2 <= left.qmax:
                        coeff = out.setdefault(key, {})
                        coeff[e1 + e2] = coeff.get(e1 + e2, 0) + v1 * v2
    return out


def _reference_sum(triples):
    total = {}
    for left, g, right in triples:
        for key, coeff in _pairwise_product(left, g, right).items():
            for e, v in coeff.items():
                total.setdefault(key, {})
                total[key][e] = total[key].get(e, 0) + v
    terms = {key: QPoly(coeff) for key, coeff in total.items()}
    return {key: c for key, c in terms.items() if not c.is_zero()}


@st.composite
def _capped_rows(draw):
    """Two rows of series under random degree, s- and q-caps (the right row
    sometimes the left itself), and a square QPoly pairing between them."""
    nt = draw(st.integers(1, 3))
    cap, qmax = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    s_cap = draw(st.none() | st.integers(0, 3))
    coeff = st.dictionaries(st.integers(0, qmax + 2),
                            st.fractions(-5, 5, max_denominator=6),
                            max_size=3).map(QPoly)
    # a monomial inside the degree cap: a list of variables, s being nt
    mono = st.lists(st.integers(0, nt), max_size=cap).map(
        lambda v: monomial(nt, [i for i in v if i < nt], v.count(nt)))
    terms = st.dictionaries(mono, coeff, max_size=6)
    size = draw(st.integers(1, 3))
    left = [TruncSeries(nt, cap, qmax, s_cap, draw(terms)) for _ in range(size)]
    right = left if draw(st.booleans()) else [
        TruncSeries(nt, cap, qmax, s_cap, draw(terms)) for _ in range(size)]
    ginv = [[draw(coeff) for _ in range(size)] for _ in range(size)]
    return ginv, left, right


@settings(derandomize=True, deadline=None)
@given(_capped_rows())
def test_products_equal_the_pairwise_reference(case):
    ginv, left, right = case
    one = QPoly.const(1)
    for a in left:
        assert (a * a).terms == _reference_sum([(a, one, a)])
        for b in right:
            assert (a * b).terms == _reference_sum([(a, one, b)])
    assert contract_series(ginv, left, right).terms == _reference_sum([
        (le, ginv[e][f], right[f]) for e, le in enumerate(left)
        for f in range(len(right))])


def _linear_images(nt):
    """One homogeneous linear form in t^0..t^{nt-1}, s for each variable."""
    linear = st.sampled_from([monomial(nt, (i,)) for i in range(nt)]
                             + [monomial(nt, s=1)])
    return st.lists(st.dictionaries(linear, _qpolys, max_size=2).map(
        lambda terms: TruncSeries(nt, 3, 3, terms=terms)),
        min_size=nt + 1, max_size=nt + 1)


@settings(derandomize=True, deadline=None)
@given(_series(2), _series(2), _linear_images(2))
def test_substitute_linear_images_is_a_ring_homomorphism(a, b, images):
    # a homogeneous linear image keeps every degree, and no q-exponent is
    # negative, so the caps drop the same terms on both sides
    assert substitute(a * b, images) == substitute(a, images) * substitute(b, images)
    assert substitute(a + b, images) == substitute(a, images) + substitute(b, images)
