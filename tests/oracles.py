"""Reference computations the tests compare the package against.

None of these is reached by a ``ciqc`` command; each is an independent
route to a value the package computes another way, or a test input:

* ``reduced_potential`` -- F = F^(0) + s F^(1) in classical coordinates;
* ``low_point_terms`` -- the stable one- and two-point terms of F^(0);
* ``pack_s`` -- the invariant s on a primitive coordinate vector;
* ``j_recursion``/``primitive_j_layers`` -- the s-expansion of J;
* ``f2_gradient_closed_form``/``f2_origin_residuals`` -- the F^(2) origin
  data checked without the gradient solve;
* ``f2_tau_jet`` -- an F^(2) jet's constant + linear series in tau;
* ``schur_oracle_product`` -- Schubert products through Schur polynomials;
* ``galkin_shinder_betti`` -- Betti numbers of the variety of lines of a
  cubic from those of the cubic;
* ``small_j_reference`` -- the J-series expanded afresh at every q-degree;
* ``fraction_rows`` -- a GradedJet's rows as Fractions;
* ``ring_reference`` -- the flat-section recursion on Fractions and the
  ring's QPoly matrices filled at every position;
* ``one_point_descendant`` -- the one-point descendants read off the J-series;
* ``coefficient`` -- one monomial's coefficient in a series;
* ``diff``/``contract_series``/``minus`` -- term-by-term differentiation,
  the contraction of series rows by its definition, and subtraction;
* ``wdvv_reference``/``reduced_reference`` -- the ambient WDVV and the
  reduced residuals by their definitions, one contraction per term;
* ``two_point_induction`` -- the degree-one two-point descendants by the
  divisor/TRR induction from two seeds;
* ``poly_gcd_degree_euclid`` -- the degree of a polynomial gcd by Euclid;
* ``dense_solve`` -- Gauss--Jordan on dense rows, the reference for the
  sparse ``solve_linear`` (row i of ``matrix`` is row key i).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial
from typing import Dict, List, Optional, Sequence, Tuple

from ciqc.acceptance import _ring
from ciqc.errors import ConfigurationError, DomainError
from ciqc.exact import (ONE, ZERO, QPoly, Rational, TruncSeries, contract,
                        linear_substitute, monomial, rat)
from ciqc.fano_lines import SchubertVector
from ciqc.geometry import CIDescriptor, describe
from ciqc.reconstruct import F1Jet, F2Jet, _tau_to_t_forms, f1_series
from ciqc.smallqh import GradedJet, QuantumRingData, _unit_vector, small_j


def reduced_potential(n=4, d=(3,), deg0=5):
    """F = F^(0) + s F^(1) in classical coordinates, from the degree-``deg0``
    jet of F^(0) and the degree-2 jet of F^(1), stored under degree cap
    max(deg0, 3) and the q-cap of the F^(0) jet, so no term of either is
    dropped; by default for the cubic fourfold.

    Returns (desc, ring, F, f0_t) with f0_t the F^(0) jet alone."""
    ring = _ring(n, d)
    f0_t = linear_substitute(ring.origin.jet_series(deg0), _tau_to_t_forms(ring))
    f1 = f1_series(ring.desc, ring)
    terms = dict(f0_t.terms)
    terms.update({key[:-1] + (1,): c for key, c in f1.t_jet.terms.items()})
    F = TruncSeries(n + 1, max(deg0, 3), f0_t.qmax, terms=terms)
    return ring.desc, ring, F, f0_t


def low_point_terms(ring: QuantumRingData, degree_cap: int) -> TruncSeries:
    """Stable one- and two-point quantum terms of the ambient potential.

    The WDVV equations only see third derivatives, but the Euler/divisor
    identity holds for the full potential including the degree-positive
    one-point terms <H_i>_{0,1,d} and two-point terms <H_i, H_j>_{0,2,d}.
    Classical (degree-zero) low-point data is unstable and absent.
    """
    n = ring.desc.n
    terms = {monomial(n + 1, (i,)): ring.one_point(i, 0) for i in range(n + 1)}
    for i in range(n + 1):
        for j in range(i, n + 1):
            # Taylor coefficient: halved on the diagonal
            terms[monomial(n + 1, (i, j))] = ring.two_point(i, j).scale(
                Fraction(1, 2) if i == j else 1)
    return TruncSeries(n + 1, degree_cap, ring.qmax, terms={
        key: QPoly({k: c for k, c in v.coeffs.items() if k >= 1})
        for key, v in terms.items()})


def one_point_descendant(desc: CIDescriptor, jet: GradedJet, k: int, i: int) -> QPoly:
    """< psi^k H_i >_{0,1,*} as a polynomial in q: deg X times the z^{-k-1}
    H_{n-i} entry of the J-series ``jet`` (``small_j``)."""
    if not 0 <= i <= desc.n or k < 0:
        raise DomainError("descendant indices out of range")
    return jet.entry(-k - 1, desc.n - i).scale(desc.degree)


def pack_s(desc: CIDescriptor, values: Sequence[Rational]) -> Rational:
    """Evaluate the invariant s on a primitive coordinate vector.

    Even dimensions use an orthonormal basis, s = sum v_i^2 / 2; odd
    dimensions a symplectic basis, s = - sum v_i v_{i+m/2}.
    """
    vals = [Fraction(v) for v in values]
    if len(vals) != desc.m:
        raise DomainError(f"expected {desc.m} primitive coordinates, got {len(vals)}")
    if desc.n % 2 == 0:
        return sum((v * v for v in vals), Fraction(0)) / 2
    half = desc.m // 2
    return -sum((vals[i] * vals[i + half] for i in range(half)), Fraction(0))


def j_recursion(desc: CIDescriptor, f_jets: Sequence[TruncSeries],
                j0: Dict[int, TruncSeries], kmax: int, zmin: int,
                ginv) -> List[Dict[int, TruncSeries]]:
    """Reconstruct the s-expansion layers of an ambient J-component.

    ``f_jets[i]`` are t-jets of F^(i) (needed up to order kmax + 1) over the
    same coordinates as ``j0``, the s = 0 layer, and ``ginv`` is the inverse
    pairing in those coordinates.  Layer k+1 is built as

      J^(k+1) = (1/z) [ sum_i C(k,i) F^(i+1)_b g^{bc} d_c J^(k-i)
                        + 2k sum_i C(k-1,i) F^(i+2) J^(k-i) ].
    """
    if len(f_jets) < kmax + 2:
        raise DomainError(f"need F-jets to order {kmax + 1}")
    n = desc.n
    cap = max([j.degree_cap for j in f_jets] + [s.degree_cap for s in j0.values()])
    f_jets = [j.recap(cap) for j in f_jets]
    j0 = {zp: s.recap(cap) for zp, s in j0.items()}
    grads = [[diff(jet, i) for i in range(n + 1)] for jet in f_jets]
    layers = [dict(j0)]
    for k in range(0, kmax):
        new: Dict[int, TruncSeries] = {}

        def add(zp, series):
            if zp < zmin or series.is_zero():
                return
            new[zp] = new.get(zp, series.like()) + series

        for i in range(0, k + 1):
            cki = comb(k, i)
            for zp, series in layers[k - i].items():
                dseries = [diff(series, c) for c in range(n + 1)]
                add(zp - 1, contract_series(ginv, grads[i + 1], dseries).scale(cki))
        if k >= 1:
            for i in range(0, k):
                c2 = 2 * k * comb(k - 1, i)
                for zp, series in layers[k - i].items():
                    add(zp - 1, (f_jets[i + 2] * series).scale(c2))
        layers.append(new)
    return layers


def primitive_j_layers(desc: CIDescriptor, f_jets: Sequence[TruncSeries],
                       kmax: int, zmin: int) -> List[Dict[int, TruncSeries]]:
    """s-expansion layers of exp(F_s / z), the scalar factor of the
    primitive sector J_a = g_{ab} t^b exp(F_s / z).

    With F_s = sum_k s^k F^(k+1) / k!, layer 0 is exp(F^(1)/z) and the
    higher layers follow from d/ds exp(F_s/z) = (F_ss / z) exp(F_s/z):

        (j+1) E_{j+1} = (1/z) sum_{i=0}^{j} F^(i+2) E_{j-i} / i!.
    """
    cap = max(j.degree_cap for j in f_jets)
    f_jets = [j.recap(cap) for j in f_jets]
    one = f_jets[0].like({monomial(f_jets[0].nt): ONE})
    e0: Dict[int, TruncSeries] = {0: one}
    power = one
    r = 1
    while -r >= zmin:
        power = power * f_jets[1]
        if power.is_zero():
            break
        e0[-r] = power.scale(Fraction(1, factorial(r)))
        r += 1
    layers: List[Dict[int, TruncSeries]] = [e0]
    for j in range(0, kmax):
        new: Dict[int, TruncSeries] = {}
        for i in range(0, j + 1):
            if i + 2 >= len(f_jets):
                continue
            for zp, series in layers[j - i].items():
                if zp - 1 < zmin:
                    continue
                term = (f_jets[i + 2] * series).scale(Fraction(1, factorial(i)))
                if not term.is_zero():
                    new[zp - 1] = new.get(zp - 1, term.like()) + term
        layers.append({zp: s.scale(Fraction(1, j + 1)) for zp, s in new.items()})
    return layers


def f2_gradient_closed_form(desc: CIDescriptor, cval: Fraction) -> Dict[int, QPoly]:
    """Closed form for the gradient rows when F^(2)(0) = 0: the entry at b
    is c(n,d)^2/deg * b(d)^{(n+b-2)/a} q^{(n+b-2)/a} for b = 2-n mod a."""
    n, a = desc.n, desc.a
    out = {}
    for b in range(0, n + 1):
        if b >= 2 and (b - (2 - desc.n)) % a == 0:
            k = (desc.n + b - 2) // a
            out[b] = QPoly.q_power(k, cval * cval / desc.degree * Fraction(desc.b) ** k)
        else:
            out[b] = QPoly.zero()
    return out


def f2_origin_residuals(desc: CIDescriptor, ring: QuantumRingData,
                        f1: F1Jet, f2jet: F2Jet):
    """Origin residuals of the order-2 expansion equations.

    Returns (mixed, pure): ``mixed[(a,b)]`` is the residual of

      -F1_{ae} g^{ef} F1_{fb} + F0_{abe} g^{ef} F2_f + 2 F1_{ab} F2
        - F2_a F1_b - F1_a F2_b

    at the origin for 1 <= a <= b <= n, and ``pure`` the residual of
    g^{0f} F2_f + F2 * F2.  Both must vanish for each admissible root.
    """
    origin = ring.origin
    n = desc.n
    mixed = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            third = [origin.partial((a, b, e)) for e in range(n + 1)]
            mixed[(a, b)] = (contract(ring.ginv, third, f2jet.tau_grad)
                             + -contract(ring.ginv, f1.hessian[a], f1.hessian[b])
                             + (f1.hessian[a][b] * f2jet.value).scale(2))
    pure = f2jet.value * f2jet.value + contract(ring.ginv, _unit_vector(n, 0),
                                                f2jet.tau_grad)
    return mixed, pure


def f2_tau_jet(ring: QuantumRingData, jet: F2Jet) -> TruncSeries:
    """The constant + linear jet F^(2)(0) + sum_b F^(2)_b(0) tau^b of an
    F^(2) jet, in quantum-power coordinates, under the ring's q-cap."""
    nt = ring.desc.n + 1
    terms = {monomial(nt, (b,)): g for b, g in enumerate(jet.tau_grad)}
    return TruncSeries(nt, 1, ring.qmax, terms={monomial(nt): jet.value, **terms})


def schur_oracle_product(u: SchubertVector, v: SchubertVector) -> SchubertVector:
    """Independent product route through two-variable Schur polynomials.

    Classes map to s_{(a,b)}(x,y) = sum_{j=b}^{a} x^j y^{a+b-j}; the product
    polynomial is peeled back into Schur terms by leading monomials, and
    shapes with a > n vanish in the quotient (h_m = 0 for m > n kills both
    Jacobi-Trudi entries).
    """
    u._check(v)
    n = u.n

    def poly(vec):
        out: Dict[Tuple[int, int], Fraction] = {}
        for (a, b), c in vec.terms.items():
            for j in range(b, a + 1):
                key = (j, a + b - j)
                out[key] = out.get(key, Fraction(0)) + c
        return out

    pu, pv = poly(u), poly(v)
    prod: Dict[Tuple[int, int], Fraction] = {}
    for (x1, y1), c1 in pu.items():
        for (x2, y2), c2 in pv.items():
            key = (x1 + x2, y1 + y2)
            prod[key] = prod.get(key, Fraction(0)) + c1 * c2
    prod = {k: c for k, c in prod.items() if c != 0}

    out = SchubertVector(n)
    while prod:
        a, b = max((k for k in prod if k[0] >= k[1]), key=lambda k: k)
        c = prod[(a, b)]
        for j in range(b, a + 1):
            key = (j, a + b - j)
            cur = prod.get(key, Fraction(0)) - c
            if cur == 0:
                prod.pop(key, None)
            else:
                prod[key] = cur
        if a <= n:
            out._store((a, b), c)
    return out


def _poly_mul(u: Sequence[int], v: Sequence[int]) -> List[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def galkin_shinder_betti(n: int) -> List[int]:
    """b_0..b_{4n-8} of the variety of lines F of a smooth cubic n-fold X.

    Galkin--Shinder: [X^[2]] = [P^n][X] + L^2[F] and [X^[2]] = [Sym^2 X] +
    [X](L + ... + L^{n-1}) in K_0(Var).  On Poincare polynomials (L -> t^2)
    this gives t^4 P(F) = P(Sym^2 X) - (1 + t^{2n}) P(X), where Sym^2 is
    taken super-symmetrically: P(Sym^2 X)(t) = (P(t)^2 + sum_i (-1)^i b_i
    t^{2i}) / 2, so odd classes contribute their exterior square.
    """
    px = [1 if i % 2 == 0 else 0 for i in range(2 * n + 1)]
    px[n] += describe(n, (3,)).m  # the primitive classes, in the middle degree
    square = _poly_mul(px, px)
    for i, b in enumerate(px):
        square[2 * i] += (-1) ** i * b
    sym2 = [c // 2 for c in square]
    rest = _poly_mul(px, [1] + [0] * (2 * n - 1) + [1])
    diff = [a - b for a, b in zip(sym2, rest)]
    if any(diff[:4]) or any(diff[4 * n - 3:]):
        raise ArithmeticError("the Galkin-Shinder difference is not t^4 P(F)")
    return diff[4:4 * n - 3]


def small_j_reference(desc: CIDescriptor, qtop: int) -> List[List[Fraction]]:
    """The J-series' rows through q^qtop (``smallqh.small_j`` stores them
    through q^((n+1)//a)), without its recurrence in q: rows[delta][h] is
    the coefficient of q^delta H_h.

    Each q-degree delta expands prod_j prod_{m=1}^{d_j delta} (d_j H + m z)
    and prod_{m=1}^{delta} (H + m z)^{-(n+r+1)} from scratch, in {z-power:
    Fraction} dicts per power of H, and asserts that every term sits at its
    graded z-power 1 - a delta - h.  For index one every term of I is moved
    by each term of exp(-ell q / z) separately.
    """
    n, a = desc.n, desc.a
    rows = [[Fraction(0)] * (n + 1) for _ in range(qtop + 1)]
    for delta in range(qtop + 1):
        num = [{0: Fraction(1)}] + [dict() for _ in range(n)]
        for dj in desc.d:
            for m in range(1, dj * delta + 1):
                new = [dict() for _ in range(n + 1)]
                for h in range(n + 1):
                    for zp, c in num[h].items():
                        if h + 1 <= n:
                            new[h + 1][zp] = new[h + 1].get(zp, Fraction(0)) + dj * c
                        new[h][zp + 1] = new[h].get(zp + 1, Fraction(0)) + m * c
                num = new
        term = num
        top = n + desc.r + 1
        for m in range(1, delta + 1):
            inv = [{-(top + j): Fraction((-1) ** j * comb(top - 1 + j, j),
                                         m ** (top + j))} for j in range(n + 1)]
            new = [dict() for _ in range(n + 1)]
            for h1 in range(n + 1):
                for zp1, c1 in term[h1].items():
                    for h2 in range(n + 1 - h1):
                        for zp2, c2 in inv[h2].items():
                            d = new[h1 + h2]
                            d[zp1 + zp2] = d.get(zp1 + zp2, Fraction(0)) + c1 * c2
            term = new
        for h in range(n + 1):
            for zp, c in term[h].items():
                if c != 0:
                    assert zp + 1 == 1 - a * delta - h, (delta, h, zp + 1)
                    rows[delta][h] += c
    if a != 1:
        return rows
    # c q^delta z^{1-delta-h} H_h times (-ell q / z)^k / k! lands in row delta + k
    out = [[Fraction(0)] * (n + 1) for _ in range(qtop + 1)]
    for delta, row in enumerate(rows):
        for h, c in enumerate(row):
            for k in range(qtop + 1 - delta):
                out[delta + k][h] += c * Fraction((-desc.ell) ** k, factorial(k))
    return out


def fraction_rows(jet: GradedJet) -> List[List[Fraction]]:
    """rows[delta][h] / dens[delta] of a GradedJet: its coefficients of
    q^delta H_h as Fractions."""
    return [[Fraction(x, den) for x in row] for row, den in zip(jet.rows, jet.dens)]


def ring_reference(desc: CIDescriptor) -> Dict[str, list]:
    """The quantum ring's flat sections and matrices from ``small_j`` by
    the flat-section recursion D S_j = sum_c (H o H_j)^c S_c in Fractions,
    and every QPoly matrix (multH, powers, ginv) filled at every position,
    asserting that no nonzero entry sits off the grading.

    Returns {"smat": the rows of S_0..S_n, "multH", "powers", "M", "W",
    "ginv"}, for comparison with ``build_ring``."""
    n, a = desc.n, desc.a

    def graded(c, qdeg):
        if not c:
            return QPoly.zero()
        assert qdeg >= 0 and qdeg % a == 0, (c, qdeg)
        return QPoly.q_power(qdeg // a, c)

    smat = [fraction_rows(small_j(desc))]  # S_0 = J / z
    cols = []
    for j in range(n + 1):
        nxt = [[delta * row[0]] + [delta * row[h] + row[h - 1] for h in range(1, n + 1)]
               for delta, row in enumerate(smat[j])]
        col = [Fraction(0)] * (n + 1)
        for h in range((j + 1) % a, min(j + 1, n) + 1, a):
            col[h] = nxt[(j + 1 - h) // a][h]
        cols.append(col)
        for c, coeff in enumerate(col[:j + 1]):
            k = (j + 1 - c) // a
            for src, dst in zip(smat[c], nxt[k:]):
                for h, x in enumerate(src):
                    dst[h] -= coeff * x
        if j < n:
            smat.append(nxt)
        else:
            assert not any(any(row) for row in nxt)
    mult = [[cols[j][i] + (desc.ell if a == 1 and i == j else 0) for j in range(n + 1)]
            for i in range(n + 1)]
    pw = [[Fraction(int(i == 0)) for i in range(n + 1)]]
    for _ in range(n):
        pw.append([sum((pw[-1][k] * mult[i][k] for k in range(n + 1)), Fraction(0))
                   for i in range(n + 1)])
    minv = []
    for i in range(n + 1):  # W is unitriangular: solve row by row
        minv.append([Fraction(int(i == j)) - sum((pw[i][k] * minv[k][j] for k in range(i)),
                                                 Fraction(0)) for j in range(n + 1)])
    deg, b = desc.degree, desc.b
    ginv = [[graded(Fraction(1, deg), 0) if f == n - e else
             graded(Fraction(-b, deg), a) if f == n - a - e else QPoly.zero()
             for f in range(n + 1)] for e in range(n + 1)]
    return {"smat": smat,
            "multH": [[graded(mult[i][j], j + 1 - i) for j in range(n + 1)]
                      for i in range(n + 1)],
            "powers": [[graded(pw[j][i], j - i) for i in range(n + 1)] for j in range(n + 1)],
            "M": minv, "W": pw, "ginv": ginv}


def coefficient(series: TruncSeries, t_exps: dict, s_exp: int = 0) -> QPoly:
    """The coefficient of prod_i (t^i)^{t_exps[i]} s^{s_exp} in ``series``."""
    return series.terms.get(monomial(series.nt, Counter(t_exps).elements(), s_exp),
                            QPoly.zero())


def diff(series: TruncSeries, *variables) -> TruncSeries:
    """The partial derivative of ``series`` in each of ``variables`` in turn
    (index nt standing for s), term by term: x^e goes to e x^(e-1)."""
    for v in variables:
        series = series.like({key[:v] + (key[v] - 1,) + key[v + 1:]: c.scale(key[v])
                              for key, c in series.terms.items() if key[v]})
    return series


def contract_series(ginv, left, right) -> TruncSeries:
    """sum_{e,f} left[e] g^{ef} right[f] over rows of series with the caps
    of left[0], by definition: one series product per (e, f) with g^{ef}
    nonzero."""
    out = left[0].like()
    for e, le in enumerate(left):
        for f, g in enumerate(ginv[e]):
            if not g.is_zero():
                out = out + (le * right[f]).scale(g)
    return out


def minus(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a - b (``TruncSeries`` has no subtraction)."""
    return a + b.scale(-1)


def _third_rows(F: TruncSeries, cut):
    """row(a, b) = [F_{abe} for every e], each passed through ``cut``."""
    memo = {}

    def row(a, b):
        for e in range(F.nt):
            key = tuple(sorted((a, b, e)))
            if key not in memo:
                memo[key] = cut(diff(F, *key))
        return [memo[tuple(sorted((a, b, e)))] for e in range(F.nt)]
    return row


def wdvv_reference(F: TruncSeries, ginv, cap=None) -> Dict[tuple, TruncSeries]:
    """R(a,b,c,d) = F_{abe} g^{ef} F_{cdf} - F_{ace} g^{ef} F_{bdf} on the
    keys a <= b <= c, d free, by the definition: two contractions per key,
    over the third derivatives cut to total degree ``cap`` if given."""
    row = _third_rows(F, lambda s: s if cap is None else s.truncate_degree(cap))
    return {(a, b, c, d): minus(contract_series(ginv, row(a, b), row(c, d)),
                                contract_series(ginv, row(a, c), row(b, d)))
            for a, b, c in combinations_with_replacement(range(F.nt), 3)
            for d in range(F.nt)}


def reduced_reference(F: TruncSeries, ginv, mixed_cap: int, pure_cap: int,
                      s_cap: Optional[int]):
    """(mixed, pure) of the two reduced equations, F_{abe} g^{ef} F_{sf} +
    2 s F_{sab} F_{ss} - F_{sa} F_{sb} and F_{se} g^{ef} F_{sf} + 2 s
    F_{ss}^2, term by term: one contraction per residual and series
    products for the rest, every factor cut to its equation's caps."""
    n, s_var = F.nt - 1, F.nt
    s = F.like({monomial(F.nt, s=1): ONE})

    def cut(series, cap):
        return series.recap(cap, s_cap)

    Fss = diff(F, s_var, s_var)
    ds1 = [cut(diff(F, s_var, i), mixed_cap) for i in range(n + 1)]
    row = _third_rows(F, lambda series: cut(series, mixed_cap))
    mixed = {(a, b): minus(contract_series(ginv, row(a, b), ds1)
                           + (cut(s, mixed_cap) * cut(diff(F, s_var, a, b), mixed_cap)
                              * cut(Fss, mixed_cap)).scale(2), ds1[a] * ds1[b])
             for a, b in combinations_with_replacement(range(n + 1), 2)}
    ds1_p = [cut(diff(F, s_var, i), pure_cap) for i in range(n + 1)]
    pure = contract_series(ginv, ds1_p, ds1_p) + (cut(s, pure_cap) * cut(Fss, pure_cap)
                                                  * cut(Fss, pure_cap)).scale(2)
    return mixed, pure


def two_point_induction(n: int, s1: Rational, s2: Rational) -> Dict[Tuple[int, int], Rational]:
    """<psi^{2n-2-i-j} H_i, H_j>_{0,2,1} on the grid 0 <= i, j <= n, i + j <=
    2n - 2, by the induction f(i, j) = f(i, j+1) - f(i+1, j).  On the diagonal
    i + j = 2n - 2 only (n, n-2), (n-1, n-1), (n-2, n) survive, with the seeds
    s1 = <H_n, H_{n-2}>, s2 = <H_{n-1}, H_{n-1}>, s1; off the grid f is 0."""
    f: Dict[Tuple[int, int], Rational] = {}
    for total in range(2 * n - 2, -1, -1):
        for i in range(max(0, total - n), min(n, total) + 1):
            j = total - i
            if total == 2 * n - 2:
                f[i, j] = {n: s1, n - 1: s2, n - 2: s1}.get(i, Fraction(0))
            else:
                f[i, j] = f.get((i, j + 1), 0) - f.get((i + 1, j), 0)
    return f


def poly_gcd_degree_euclid(p: Sequence[Rational], q: Sequence[Rational]) -> int:
    """deg gcd(p, q) for coefficient lists (constant term first), by Euclid's
    remainder sequence over the rationals; q may be zero, p may not."""
    def norm(v):
        v = [Fraction(c) for c in v]
        while v and v[-1] == 0:
            v.pop()
        return v

    p, q = norm(p), norm(q)
    while q:
        r = list(p)
        while len(r) >= len(q):
            f, shift = r[-1] / q[-1], len(r) - len(q)
            for i, c in enumerate(q):
                r[shift + i] -= f * c
            r = norm(r)
        p, q = q, r
    return len(p) - 1


def dense_solve(matrix, rhs):
    """Exact reduced row echelon solve of the dense system matrix x = rhs.

    Returns (particular, kernel, witness): ``particular`` is one solution or
    None when the system is inconsistent, in which case ``witness`` is the
    index of an original row whose reduced form reads 0 = nonzero.  ``kernel``
    is a basis of the homogeneous solution space, each vector normalized so
    its first nonzero entry is 1.

    Pivots are chosen among the nonzero candidates by largest absolute
    numerator, which keeps intermediate entries modest; exactness does not
    depend on the choice.  Raises ConfigurationError when the matrix and
    rhs sizes differ or the matrix is ragged.
    """
    if len(matrix) != len(rhs):
        raise ConfigurationError("matrix and rhs sizes differ")
    if len({len(row) for row in matrix}) > 1:
        raise ConfigurationError("ragged matrix")
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [[rat(c) for c in matrix[i]] + [rat(rhs[i])] for i in range(rows)]
    origin = list(range(rows))

    pivot_cols = []
    r = 0
    for c in range(cols):
        best = None
        for i in range(r, rows):
            if aug[i][c] != 0:
                if best is None or abs(aug[i][c].numerator) > abs(aug[best][c].numerator):
                    best = i
        if best is None:
            continue
        aug[r], aug[best] = aug[best], aug[r]
        origin[r], origin[best] = origin[best], origin[r]
        piv = aug[r][c]
        aug[r] = [v / piv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break

    for i in range(r, rows):
        if aug[i][cols] != 0:
            return None, _kernel_basis(aug, pivot_cols, cols), origin[i]

    particular = [ZERO] * cols
    for i, c in enumerate(pivot_cols):
        particular[c] = aug[i][cols]
    return particular, _kernel_basis(aug, pivot_cols, cols), None


def _kernel_basis(aug, pivot_cols, cols):
    free = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for fc in free:
        vec = [ZERO] * cols
        vec[fc] = ONE
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -aug[i][fc]
        first = next((v for v in vec if v != 0), None)
        if first is not None and first != 1:
            vec = [v / first for v in vec]
        basis.append(vec)
    return basis
