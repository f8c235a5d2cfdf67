"""Monodromy-reduced WDVV system.

After packing the primitive coordinates into the single invariant s, the
genus-zero potential F(t^0..t^n, s) satisfies

    F_{abe} g^{ef} F_{sf} + 2 s F_{sab} F_{ss} = F_{sa} F_{sb},
    F_{se} g^{ef} F_{sf} + 2 s F_{ss}^2 = 0,

both read modulo s^{m/2} in odd dimensions.  This module evaluates the
residuals of these equations and of the ambient WDVV exactly, as integer
sums over one table of F's derivatives; it never solves them (their
s-expansions are s-slices of the same residuals) -- the reconstruction
module drives solving, this one is the trusted checker.
The Euler field E F = (3-n) F + a(n,d) d/dt^1 (classical cubic form)
does not enter here: the degree it forces on F^(k)(0) is
``reconstruct.euler_beta``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from typing import Dict, Optional, Sequence

from .errors import DomainError, InternalConsistencyError
from .exact import (ONE, DerivativeTable, QPoly, TruncSeries, _accumulate, _base,
                    _collect, _common_denominator, derivative_table, monomial,
                    substitute)
from .geometry import CIDescriptor

TWO, MINUS_ONE = QPoly.const(2), QPoly.const(-1)


def pairing_inverse(n: int, deg, m: int):
    """Inverse Poincare pairing on t^0..t^n, u^1..u^m: the ambient block in
    the classical basis H_0..H_n is anti-diagonal with entries 1/deg, the
    primitive block (even orthonormal mode) the m x m identity."""
    nt = n + 1 + m
    g = [[QPoly.zero() for _ in range(nt)] for _ in range(nt)]
    for e in range(n + 1):
        g[e][n - e] = QPoly.const(Fraction(1, deg))
    for mu in range(n + 1, nt):
        g[mu][mu] = QPoly.const(1)
    return g


class ReducedPotential:
    """A potential F(t^0..t^n, s) with its descriptor and parity mode."""

    def __init__(self, desc: CIDescriptor, F: TruncSeries):
        if F.nt != desc.n + 1:
            raise DomainError("potential has the wrong number of t-variables")
        self.desc = desc
        self.odd = desc.n % 2 == 1
        if self.odd:
            cap = desc.m // 2
            if F.s_cap is None or F.s_cap > cap:
                F = F.recap(F.degree_cap, cap)
        self.F = F
        self.ginv = pairing_inverse(desc.n, desc.degree, 0)

    @property
    def s_cutoff(self) -> Optional[int]:
        """Residuals are asserted only below this s-power in odd mode."""
        return self.desc.m // 2 if self.odd else None

    @property
    def window(self) -> Dict[str, int]:
        """The total degree through which F, known through its degree cap
        N, determines each residual.  F_{abe} is known through N - 3 and
        F_{abe}(0) != 0, so the ambient WDVV and the first reduced equation
        are determined through N - 3; the second has only the factors
        F_{se}, F_{sf}, F_{ss}, known through N - 2."""
        cap = self.F.degree_cap
        return {"ambient": cap - 3, "eq_mixed": cap - 3, "eq_pure": cap - 2}


def _derivative_table(F: TruncSeries) -> DerivativeTable:
    """The derivatives the residuals read, F_{abe}, F_{sa}, F_{ss}, s F_{sab}
    and s F_{ss}, as one ``exact.derivative_table`` of F (index nt standing
    for s); a zero derivative has no rows."""
    nt = F.nt
    t3, t2 = (combinations_with_replacement(range(nt), k) for k in (3, 2))
    return derivative_table(F, [*((idx, 0) for idx in t3), *((idx + (nt,), 1) for idx in t2),
                                *(((a, nt), 0) for a in range(nt + 1)), ((nt, nt), 1)])


def _contraction(ginv, left, right) -> list:
    """The triples (left[e], g^{ef}, right[f]) of three nonzero factors."""
    return [(le, g, right[f]) for e, le in enumerate(left) if le
            for f, g in enumerate(ginv[e]) if right[f] and not g.is_zero()]


def _wdvv(table: DerivativeTable, ginv, cap: int) -> Dict[tuple, TruncSeries]:
    """The WDVV residuals R(a,b,c,d) = F_{abe} g^{ef} F_{cdf} - F_{ace}
    g^{ef} F_{bdf} of the s^0 slice of the tabled F, for a <= b <= c and
    every d, through total degree ``cap``.

    These keys hold every relation up to sign.  R(a,b,c,d) is T(ab|cd) -
    T(ac|bd), where T(ab|cd) = F_{abe} g^{ef} F_{cdf} is symmetric within
    and (g being symmetric) between its pairs, so a relation is fixed up to
    sign by its indices and the pairing it leaves out, {ad|bc}: put the
    least index first, its partner last and the other pair sorted.  Sorting
    all four indices would miss relations such as R(1,1,2,0).

    So each T is accumulated once, as integers keyed on its unordered pair of
    pairs, and R by subtracting two: keys of one relation share their T, and
    a key whose sides are one T (b = c, or d = a) is identically zero and
    forms no product.  Raises InternalConsistencyError if g is asymmetric."""
    nt = table.F.nt
    if any(ginv[e][f] != ginv[f][e] for e in range(nt) for f in range(e)):
        raise InternalConsistencyError("the inverse pairing is not symmetric")
    third = {idx: [row for row in rows if row[1] == 0]
             for (idx, shift), rows in table.rows.items() if len(idx) == 3 and not shift}
    like, g_den = TruncSeries(nt, cap, table.F.qmax), _common_denominator(
        g for row in ginv for g in row)

    def row(a, b):
        return [third[tuple(sorted((a, b, e)))] for e in range(nt)]

    memo, out = {}, {}
    for a, b, c in combinations_with_replacement(range(nt), 3):
        for d in range(nt):
            sides = [tuple(sorted(((a, x), tuple(sorted((y, d))))))
                     for x, y in ((b, c), (c, b))]
            acc = {}
            for sign, key in zip((1, -1), sides) if sides[0] != sides[1] else ():
                if key not in memo:
                    memo[key] = _accumulate(like, _contraction(
                        ginv, row(*key[0]), row(*key[1])), g_den)
                for packed, num in memo[key].items():
                    acc[packed] = acc.get(packed, 0) + sign * num
            out[a, b, c, d] = _collect(like, acc, table.den ** 2 * g_den, _base(table.F))
    return out


def _reduced(table: DerivativeTable, ginv, mixed_cap: int, pure_cap: int,
             s_cap: Optional[int]):
    """Residuals (mixed, pure) of the two reduced equations on the tabled
    F(t, s): ``mixed[(a,b)]`` for 0 <= a <= b <= n is the first, through
    total degree ``mixed_cap``, and ``pure`` the second, through
    ``pure_cap``; both through s-degree ``s_cap`` unless it is None.  Each
    residual is one integer accumulation of its products (g-contraction,
    2 (s F_{sab}) F_{ss} and -F_{sa} F_{sb}), each formed only inside the
    caps; no exponent is negative, so the products inside the caps are
    exact."""
    rows, s = table.rows, table.F.nt  # s: the index of s in rows
    g_den = _common_denominator(g for row in ginv for g in row)
    den = table.den ** 2 * g_den
    Fs, Fss = [rows[(a, s), 0] for a in range(s)], rows[(s, s), 0]

    def residual(cap, triples):
        like = TruncSeries(s, cap, table.F.qmax, s_cap)
        return _collect(like, _accumulate(like, triples, g_den), den, _base(table.F))

    mixed = {(a, b): residual(mixed_cap, _contraction(
        ginv, [rows[tuple(sorted((a, b, e))), 0] for e in range(s)], Fs)
        + [(rows[(a, b, s), 1], TWO, Fss), (Fs[a], MINUS_ONE, Fs[b])])
        for a, b in combinations_with_replacement(range(s), 2)}
    pure = residual(pure_cap, _contraction(ginv, Fs, Fs) + [(rows[(s, s), 1], TWO, Fss)])
    return mixed, pure


def wdvv_residuals(pot: ReducedPotential) -> Dict[str, object]:
    """Residuals of the reduced system and of the ambient WDVV of F^(0),
    each through the total degree ``pot.window`` gives it; no term above
    that degree is formed, and F is differentiated once, into one table.

    Keys: 'eq_mixed' maps (a,b) to the residual of the first reduced
    equation, 'eq_pure' is the residual of the second, 'ambient' maps
    (a,b,c,d), a <= b <= c and d free (every relation up to sign, see
    ``_wdvv``), to the ambient WDVV residual of F at s = 0.  In odd mode the
    first two are truncated below s^{m/2}.
    """
    window = pot.window
    s_cap = None if pot.s_cutoff is None else pot.s_cutoff - 1
    table = _derivative_table(pot.F)
    mixed, pure = _reduced(table, pot.ginv, window["eq_mixed"],
                           window["eq_pure"], s_cap)
    ambient = _wdvv(table, pot.ginv, window["ambient"])
    return {"eq_mixed": mixed, "eq_pure": pure, "ambient": ambient}


def expand_order_k(jets: Sequence[TruncSeries], k: int, ginv):
    """Residuals of the s^{k-1}-coefficient equations of the reduced system.

    ``jets[i]`` is the t-jet of F^(i); k = 1 yields the square-zero pair
    (eigenvalue equation and isotropy of the gradient), k = 2 the equations
    governing F^(2).  No order is refused here: the one odd-mode rule is
    ``ReducedPotential``'s, which asserts the equations below s^{m/2} only.

    Returns (mixed, pure) of ``_reduced`` on F = sum_{i<=k} s^i F^(i) / i!,
    sliced at s^{k-1}.  F is stored to degree C + k, C the largest jet cap,
    so no term of F^(k) is dropped; the slices are cut back to t-degree C,
    so ``_reduced`` forms no term of total degree above C + k - 1 or of
    s-degree above k - 1.
    """
    if k < 1:
        raise DomainError("expansion order must be >= 1")
    if len(jets) < k + 1:
        raise DomainError(f"need jets F^(0)..F^({k})")
    cap = max(j.degree_cap for j in jets)
    F = TruncSeries(jets[0].nt, cap + k, jets[0].qmax, terms={
        key[:-1] + (i,): c.scale(Fraction(1, factorial(i)))
        for i, jet in enumerate(jets[:k + 1]) for key, c in jet.terms.items()})
    mixed, pure = _reduced(_derivative_table(F), ginv, cap + k - 1, cap + k - 1, k - 1)
    return ({key: res.s_slice(k - 1).truncate_degree(cap)
             for key, res in mixed.items()},
            pure.s_slice(k - 1).truncate_degree(cap))


# --- brute-force expansion over primitive variables (equivalence oracle) --


def expand_to_full(F_red: TruncSeries, n: int, m: int) -> TruncSeries:
    """Substitute s = sum u_mu^2 / 2 (even orthonormal mode) into a reduced
    potential, producing a polynomial in t^0..t^n, u^1..u^m."""
    nt_full = n + 1 + m
    full = TruncSeries(nt_full, F_red.degree_cap, F_red.qmax)
    s_full = full.like({monomial(nt_full, (n + 1 + mu,) * 2): Fraction(1, 2)
                        for mu in range(m)})
    return substitute(F_red, [full.like({monomial(nt_full, (i,)): ONE})
                              for i in range(n + 1)] + [s_full])


def full_wdvv_residuals(F: TruncSeries, n: int, m: int, deg: Fraction):
    """The nonzero WDVV residuals of a polynomial potential in full even-mode
    variables t^0..t^n, u^1..u^m, keyed as in ``_wdvv`` (every relation up
    to sign) under ``pairing_inverse(n, deg, m)``."""
    residuals = _wdvv(_derivative_table(F), pairing_inverse(n, deg, m), F.degree_cap)
    return {key: res for key, res in residuals.items() if not res.is_zero()}
