"""Small quantum cohomology of a Fano complete intersection.

The descendant series J(q, z) at the origin is the hypergeometric series

    z * sum_d q^d  prod_j prod_{m=1}^{d_j d} (d_j H + m z)
                   / prod_{m=1}^{d} (H + m z)^{n+r+1}

expanded exactly over the classical basis H_0..H_n (for index 1 the series
is corrected by exp(-ell q / z)).  The q^d layer is homogeneous of degree
-a d, so it is n + 1 numbers (H^h carries z^{-a d - h}), and it is the q^{d-1}
layer times the new numerator factors and (H + d z)^{-(n+r+1)}: the series
costs work linear in its q-orders.  Everything else is derived from it:

* quantum multiplication by the degree generator, via the flat-section
  recursion D S_j = sum_c (H~ o H_j)^c S_c with D = z q d/dq + (H cup .),
  which is the divisor and string equations in operator form, whose
  solutions S_0..S_n also carry the one- and two-point descendants;
* the quantum powers H^0..H^n, the triangular change-of-basis matrices M, W
  between classical and quantum powers, and the pairing in the quantum-power
  basis together with its inverse;
* the origin jet of the ambient generating function F^(0), i.e. all of its
  partial derivatives at 0 in quantum-power coordinates, by a divisor step
  plus an index-raising identity obtained from the once-differentiated
  associativity constraint;
* the constant c(n,d) governing the contracted fourth derivatives.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import DomainError, InternalConsistencyError
from .exact import ONE, ZERO, QPoly, Rational, TruncSeries, monomial
from .geometry import CIDescriptor, require_reconstruction_domain


def default_qmax(desc: CIDescriptor) -> int:
    """The ring's q-cap ``qmax``, ceil(2n/a) + 1: the cap of the F^(1) and
    F^(2) jets; ``jet_series`` stores F^(0) at the larger of it and the
    jet's own grading bound."""
    return -(-2 * desc.n // desc.a) + 1  # ceil(2n/a) + 1


class GradedJet(NamedTuple):
    """Graded vector-valued jet in z and q, stored by q-order as integers.

    With deg z = deg H = 1 and deg q = a the jet has one ``degree`` (the
    J-series has degree 1, the flat section S_j degree j).  The coefficient
    of q^delta H_h is rows[delta][h] / dens[delta], an integer numerator over
    the layer's denominator, and the grading puts it at z^{degree - h - a
    delta}, so only the numerator is stored.  The jets are built by z q d/dq,
    cup with H and multiplication by powers of q, none of which lowers the
    q-order, so every stored row is exact.  ``entry`` reads zero off the
    grading and raises beyond the stored q-orders.
    """
    a: int
    degree: int
    rows: List[List[int]]
    dens: List[int]

    def entry(self, zpow: int, h: int) -> QPoly:
        """The coefficient of z^zpow H_h, a single q-monomial."""
        qdeg = self.degree - h - zpow
        if qdeg < 0 or qdeg % self.a:
            return QPoly.zero()
        delta = qdeg // self.a
        if delta >= len(self.rows):
            raise InternalConsistencyError(
                f"q^{delta} lies beyond the jet, which is exact through "
                f"q^{len(self.rows) - 1}")
        return QPoly.q_power(delta, Fraction(self.rows[delta][h], self.dens[delta]))


def small_j(desc: CIDescriptor) -> GradedJet:
    """Hypergeometric small J-series of X at the origin, exact through q^R,
    R = (n + 1) // a: ``build_ring`` reads its z^0 columns at q^{(j+1-h)/a},
    j <= n, ``two_point(i, j, k)`` at q^{(i+j+k+1-n)/a}, with i+j+k <= 2n
    for every reader, and ``one_point(i, k)`` at q^{(i+k+2-n)/a}, with
    i+k <= 2n-3 for every reader, so none reads deeper.

    The q^delta term of I is z T_delta with T_delta = prod_j prod_{m=1}^{d_j
    delta} (d_j H + m z) / prod_{m=1}^{delta} (H + m z)^{n+r+1}.  T_delta is
    homogeneous of degree -a delta, so its H^h coefficient carries exactly
    z^{-a delta - h} and the layer is n + 1 integers over the common
    denominator D_delta = (delta!)^{2n+r+1}, the jet's ``dens``.  Each layer
    comes from the last: T_delta = T_{delta-1} prod_j prod_{m=d_j
    (delta-1)+1}^{d_j delta} (d_j H + m z) (H + delta z)^{-(n+r+1)}.  For
    index one J_delta = sum_k (-ell)^k / k! I_{delta-k}, i.e. J = exp(-ell q
    / z) I.

    The coefficient of z^{-k-1} H_{n-i} q^d, multiplied by deg X, is the
    one-point descendant < psi^k H_i >_{0,1,d} (``QuantumRingData.one_point``
    reads it off S_0 = J/z).
    """
    require_reconstruction_domain(desc)
    n, a = desc.n, desc.a
    top = n + desc.r + 1
    # T_delta = nums[delta] / dens[delta], with dens[delta] = (delta!)^{top+n}
    nums, dens = [[int(h == 0) for h in range(n + 1)]], [1]
    for delta in range(1, (n + 1) // a + 1):
        t = nums[-1]
        for dj in desc.d:
            for m in range(dj * (delta - 1) + 1, dj * delta + 1):
                t = [m * t[0]] + [dj * t[h - 1] + m * t[h] for h in range(1, n + 1)]
        # H^k coefficients of delta^{top+n} (H + delta z)^{-top}
        inv = [(-1) ** k * comb(top - 1 + k, k) * delta ** (n - k)
               for k in range(n + 1)]
        nums.append([sum(t[h - k] * inv[k] for k in range(h + 1))
                     for h in range(n + 1)])
        dens.append(dens[-1] * delta ** (top + n))
    if a == 1:  # J = exp(-ell q / z) I; k! dens[delta - k] divides dens[delta]
        nums = [[sum((-desc.ell) ** k * nums[delta - k][h]
                     * (dens[delta] // (factorial(k) * dens[delta - k]))
                     for k in range(delta + 1)) for h in range(n + 1)]
                for delta in range(len(nums))]
    return GradedJet(a, 1, nums, dens)


class QuantumRingData:
    """Quantum multiplication, power bases and pairings at the origin.

    multH is the matrix of quantum multiplication by the shifted degree
    generator (H, or H + ell q for index one) acting on the classical basis;
    powers[j] expresses the j-th quantum power in the classical basis; M and
    W are the mutually inverse triangular base-change matrices; g and ginv
    the pairing of quantum powers and its inverse.  ``origin`` is the
    descriptor's AmbientOrigin, built once so that every consumer of the
    ring shares its memo of the F^(0) derivatives; ``f1``, its F^(1) jet, is
    shared likewise, and ``f2``, its F^(2) jets, likewise.  The grading
    fixes the q-exponent of every entry, so the ring is computed on
    rationals: M and W are Rational, and multH, powers, g and ginv attach
    their q-power as exact QPoly entries.  ``smat`` holds the flat sections
    S_0..S_n as GradedJets of integers over ``small_j``'s denominators, exact
    through q^{(n+1)//a}, its reach; S_0 = J/z is the J-series, so the
    one-point descendants are read off it.  ``qmax`` only caps the series
    built from the ring (see ``default_qmax``).
    """

    def __init__(self, desc, qmax, multh, powers, mmat, wmat, g, ginv, smat):
        self.desc = desc
        self.qmax = qmax
        self.multH = multh
        self.powers = powers
        self.M = mmat
        self.W = wmat
        self.g = g
        self.ginv = ginv
        self.smat = smat

    @cached_property
    def origin(self) -> "AmbientOrigin":
        return AmbientOrigin(self.desc, self)

    @cached_property
    def f1(self):
        from .reconstruct import f1_series
        return f1_series(self.desc, self)

    @cached_property
    def f2(self):
        from .reconstruct import f2_gradient
        return f2_gradient(self.desc, self)

    def one_point(self, i: int, k: int) -> QPoly:
        """< psi^k H_i >_{0,1,*}: deg X times the z^{-k-2} H_{n-i} entry of
        S_0 = J/z."""
        if not 0 <= i <= self.desc.n or k < 0:
            raise DomainError("descendant indices out of range")
        return self.smat[0].entry(-k - 2, self.desc.n - i).scale(self.desc.degree)

    def two_point(self, i: int, j: int, k: int = 0) -> QPoly:
        """< psi^k H_i, H_j >_{0,2,*}: (-1)^k deg X times the z^{-k-1} H_{n-j}
        entry of the flat section S_i."""
        if not (0 <= i <= self.desc.n and 0 <= j <= self.desc.n) or k < 0:
            raise DomainError("descendant indices out of range")
        return self.smat[i].entry(-k - 1, self.desc.n - j).scale(
            (-1) ** k * self.desc.degree)


def build_ring(desc: CIDescriptor, qmax: Optional[int] = None) -> QuantumRingData:
    """The small quantum ring of X from ``small_j``, every identity checked
    exactly; ``qmax`` (default ``default_qmax``) caps only derived series.
    S_j's q^delta layer is kept as integers over small_j's denominator
    D_delta = (delta!)^{2n+r+1}, which D keeps; D_k D_delta divides
    D_{k+delta}, so (H o H_c) q^k S_c adds C(k+delta, k)^{2n+r+1} times an
    integer to layer k + delta."""
    require_reconstruction_domain(desc)
    if qmax is None:
        qmax = default_qmax(desc)
    n, a = desc.n, desc.a
    jet = small_j(desc)
    expo, dens = 2 * n + desc.r + 1, jet.dens
    binom = [[comb(k + delta, k) ** expo for delta in range(len(dens) - k)]
             for k in range(len(dens))]  # D_{k+delta} / (D_k D_delta)
    smat = [GradedJet(a, 0, jet.rows, dens)]  # S_0 = J / z
    # mult[i][j]: coefficient of H_i in H o H_j, at q^{(j+1-i)/a}
    mult = [[ZERO] * (n + 1) for _ in range(n + 1)]

    for j in range(n + 1):
        # D S_j, D = z q d/dq + (H cup .), row by row; it has degree j + 1
        nxt = [[delta * row[0]] + [delta * row[h] + row[h - 1] for h in range(1, n + 1)]
               for delta, row in enumerate(smat[j].rows)]
        # its z^0 column: H_h sits at q^{(j+1-h)/a}, over D_{(j+1-h)/a}
        hks = [(h, (j + 1 - h) // a) for h in range((j + 1) % a, min(j + 1, n) + 1, a)]
        for h, k in hks:
            mult[h][j] = Fraction(nxt[k][h], dens[k])
        terms = [(h, k, nxt[k][h]) for h, k in hks if h <= j and nxt[k][h]]
        if j < n and mult[j + 1][j] != 1:
            raise InternalConsistencyError("D S_j does not start at H_(j+1)")
        # S_{j+1} = D S_j - sum_{c <= j} mult[c][j] q^{(j+1-c)/a} S_c
        for c, k, num in terms:
            for delta, src in enumerate(smat[c].rows[:len(nxt) - k]):
                f = num * binom[k][delta]
                nxt[k + delta] = [y - f * x for y, x in zip(nxt[k + delta], src)]
        if j < n:
            smat.append(GradedJet(a, j + 1, nxt, dens))
        elif any(any(row) for row in nxt):
            raise InternalConsistencyError(
                "flat-section recursion failed to close at the top power")

    # multiplication by the shifted generator H~ (= H + ell q when a = 1)
    if a == 1:
        for i in range(n + 1):
            mult[i][i] += desc.ell

    # quantum powers: pw[j][i] = coefficient of H_i in H^j, at q^{(j-i)/a};
    # H^{j+1} = sum_k pw[j][k] (H~ o H_k) over the nonzero pw[j][k]
    mult_cols = [_nonzero(col) for col in zip(*mult)]
    pw = [[ONE] + [ZERO] * n]
    for _ in range(n + 1):
        row = [ZERO] * (n + 1)
        for k, x in _nonzero(pw[-1]):
            for i, y in mult_cols[k]:
                row[i] += x * y
        pw.append(row)

    # ring relation H^{n+1} = b q H^{n+1-a}
    if pw[n + 1] != [desc.b * c for c in pw[n + 1 - a]]:
        raise InternalConsistencyError(
            "quantum ring relation H^{n+1} = b q H^{n+1-a} failed")

    # the graded base change: W[i][j] = pw[i][j]; M is its exact inverse
    wmat = pw[: n + 1]
    mmat = _invert_unitriangular(wmat)
    _check_inverse(wmat, mmat, "W * M is not the identity")

    g, ginv = pairings(desc)

    # the pairing formula must agree with the classical pairing of powers:
    # g_ef = deg sum_i pw[e][i] pw[f][n-i], over the nonzero pw[e][i], at
    # each (e, f) the grading allows; elsewhere both sides vanish by grading
    pw_rows = [_nonzero(row) for row in wmat]
    for e in range(n + 1):
        for f in range(n - e, n + 1, a):
            acc = sum((x * pw[f][n - i] for i, x in pw_rows[e] if pw[f][n - i]), ZERO)
            if g[e][f] != QPoly.q_power((e + f - n) // a, acc * desc.degree):
                raise InternalConsistencyError(
                    f"pairing formula disagrees at ({e},{f})")

    multh = _graded_matrix(n, ((i, j, (j + 1 - i) // a, mult[i][j]) for j in range(n + 1)
                               for i in range((j + 1) % a, min(j + 1, n) + 1, a)))
    powers = _graded_matrix(n, ((j, i, (j - i) // a, pw[j][i]) for j in range(n + 1)
                                for i in range(j % a, j + 1, a)))
    return QuantumRingData(desc, qmax, multh, powers, mmat, wmat, g, ginv, smat)


def _graded_matrix(n: int, entries) -> List[List[QPoly]]:
    """The (n+1) x (n+1) QPoly matrix with c q^beta at each (i, j, beta, c) of
    ``entries``, the positions the grading allows, and one shared zero else."""
    zero = QPoly.zero()
    out = [[zero] * (n + 1) for _ in range(n + 1)]
    for i, j, beta, c in entries:
        if c:
            out[i][j] = QPoly.q_power(beta, c)
    return out


def _unit_vector(n, idx):
    return [QPoly.const(1 if i == idx else 0) for i in range(n + 1)]


def _mat_vec(mat, vec):
    return [sum((m * v for m, v in zip(row, vec) if m and v), QPoly.zero()) for row in mat]


def _nonzero(row):
    """The nonzero entries of a row, as (column, value) pairs."""
    return [(k, x) for k, x in enumerate(row) if x]


def _invert_unitriangular(w) -> List[List[Rational]]:
    """Inverse of a lower-unitriangular Rational matrix, by substitution:
    row i is e_i - sum_{k<i} w[i][k] (row k) over the nonzero w[i][k]."""
    n = len(w)
    if any(w[i][j] != (1 if i == j else 0) for i in range(n) for j in range(i, n)):
        raise InternalConsistencyError("base change is not unitriangular")
    out, out_rows = [], []
    for i in range(n):
        row = [ZERO] * i + [ONE] + [ZERO] * (n - 1 - i)
        for k, x in _nonzero(w[i][:i]):
            for j, y in out_rows[k]:
                row[j] -= x * y
        out.append(row)
        out_rows.append(_nonzero(row))
    return out


def _check_inverse(left, right, message):
    """Raise unless left * right is the identity, comparing every entry; a
    product with a zero factor is exactly zero and is not formed, so an
    entry that no product reaches is zero."""
    right_rows = [_nonzero(row) for row in right]
    for i, row in enumerate(left):
        acc = {}
        for k, x in _nonzero(row):
            for j, y in right_rows[k]:
                acc[j] = acc[j] + x * y if j in acc else x * y
        if acc.pop(i, 0) != 1 or any(acc.values()):
            raise InternalConsistencyError(message)


def reduce_power(n: int, a: int, x: int) -> Tuple[int, int]:
    """The power-basis rule H^x = (b q)^k H^{x-ka}, with x - ka in [0, n]:
    returns (x - ka, k)."""
    k = max(0, -(-(x - n) // a))
    return x - k * a, k


def pairings(desc: CIDescriptor):
    """Pairing g_{ef} of quantum powers and its inverse g^{ef}."""
    n, a, deg = desc.n, desc.a, desc.degree
    g = [[_pairing(desc, e, f) for f in range(n + 1)] for e in range(n + 1)]
    ginv = _graded_matrix(n, [(e, n - e, 0, Fraction(1, deg)) for e in range(n + 1)] + [
        (e, n - a - e, 1, Fraction(-desc.b, deg)) for e in range(n - a + 1)])
    _check_inverse(g, ginv, "pairing inverse check failed")
    return g, ginv


def _pairing(desc: CIDescriptor, e: int, f: int) -> QPoly:
    """< H^e, H^f >: H^{e+f} reduced by H^x = (b q)^k H^{x-ka}, integrated."""
    top, k = reduce_power(desc.n, desc.a, e + f)
    return QPoly.q_power(k, desc.degree * desc.b ** k) if top == desc.n else QPoly.zero()


def quantum_product_qp(desc: CIDescriptor, u, v):
    """Product of two vectors given in quantum-power coordinates."""
    out = [QPoly.zero()] * (desc.n + 1)
    for e, x in _nonzero(u):
        for f, y in _nonzero(v):
            c, k = reduce_power(desc.n, desc.a, e + f)
            out[c] = out[c] + x * y * QPoly.q_power(k, desc.b ** k)
    return out


def c_constant(desc: CIDescriptor, ring: QuantumRingData):
    """The constant c(n,d) from the M/W double sum, with the conjectured
    closed form sum_i (-1)^{i-1} (1/i!) (ell/b)^i reported alongside."""
    n, a = desc.n, desc.a
    b = Fraction(desc.b)
    M, W = ring.M, ring.W
    total = Fraction(1)
    for k in range(1, n // a + 1):
        for l in range(0, n // a + 1):
            if n - (k + l) * a >= 0:
                total += Fraction(k) / b ** (k + l) * M[n - l * a][n - (k + l) * a] * W[n][n - l * a]
            if n - (k + l + 1) * a >= 0:
                total -= Fraction(k) / b ** (k + l) * M[n - (l + 1) * a][n - (k + l + 1) * a] * W[n - a][n - (l + 1) * a]
    conj = Fraction(0)
    fact = 1
    ratio = Fraction(desc.ell, desc.b)
    for i in range(1, n // a + 1):
        fact *= i
        conj += (-1) ** (i - 1) * ratio ** i / fact
    return total, conj, total == conj


# --- origin jet of the ambient generating function ------------------------


class AmbientOrigin:
    """All partial derivatives of F^(0) at the origin, quantum-power basis.

    The grading puts F_key(0) at q^beta, beta = (sum(key) - n + 3 -
    len(key))/a, and makes it zero unless beta is a non-negative integer.
    So the memo maps a sorted key to one rational and holds no key off the
    grading, and q^beta is attached only to what ``partial``, ``contract0``
    and ``jet_series`` return.  Third derivatives are deg X b^beta (the
    pairing); an index 0 gives zero (string equation); an index 1 is removed
    by the divisor equation in the twisted coordinates; the remaining cases
    are raised from lower minimal index through the once-differentiated
    associativity constraint.
    """

    def __init__(self, desc: CIDescriptor, ring: QuantumRingData):
        self.desc = desc
        self.ring = ring
        self._cache: Dict[Tuple[int, ...], Rational] = {}
        n, a, M, W = desc.n, desc.a, ring.M, ring.W
        # the divisor vector field: the coefficient of tau^s d/d tau^i, at q^{(s-i)/a}
        self._phi = {(s, i): sum((k * M[i + k * a][i] * W[s][i + k * a]
                                  for k in range(1, (s - i) // a + 1)), Fraction(0))
                     for s in range(n + 1) for i in range(s % a, s, a)}
        # the ring's g^{ef} by row, nonzero entries only, as (f, k): the rational
        # of g^{ef} (at q^{(n-e-f)/a}) is the k-th of its distinct values _gvals
        rows = [_nonzero([x.coefficient((n - e - f) // a) for f, x in enumerate(row)])
                for e, row in enumerate(ring.ginv)]
        self._gvals = sorted({g for row in rows for _, g in row})
        self._ginv = [[(f, self._gvals.index(g)) for f, g in row] for row in rows]

    # Kept lazy: F_{f,right} is evaluated only where F_{left,e} is nonzero.
    def _pair_contract(self, left: Tuple[int, ...], right: Tuple[int, ...]) -> Rational:
        """sum_{e,f} F_{left,e} g^{ef} F_{f,right}, the q being the grading's; summed
        per distinct g^{ef}, so each value multiplies once per call, not per term."""
        sums = [Fraction(0)] * len(self._gvals)
        for e, row in enumerate(self._ginv):
            le = self._f(left + (e,))
            if le:
                for f, k in row:
                    r = self._f(right + (f,))
                    if r:
                        sums[k] += le * r
        return sum(s * g for s, g in zip(sums, self._gvals))

    def contract0(self, key: Tuple[int, ...]) -> QPoly:
        """sum_e F_{key,e}(0) g^{e0}: a derivative contracted with the unit,
        through the nonzero entries of the ring's g^{e0}."""
        return sum((self.partial(key + (e,)) * g for e, g in _nonzero(self.ring.ginv[0])),
                   QPoly.zero())

    def partial(self, indices) -> QPoly:
        """F^(0) partial derivative at 0 w.r.t. the given tau indices: the
        memo's rational times q^beta, or zero off the grading.  Indices are
        range-checked here, once; the recursion sorts only graded keys."""
        key = tuple(sorted(int(i) for i in indices))
        if any(i < 0 or i > self.desc.n for i in key):
            raise DomainError("tau index out of range")
        if len(key) < 3:
            raise DomainError("only derivatives of order >= 3 are defined")
        return self._qpoly(key, self._f(key))

    def _qpoly(self, key: Tuple[int, ...], val: Rational) -> QPoly:
        """F_key(0) = val q^beta as a QPoly (a nonzero val is on the grading)."""
        beta = (sum(key) - self.desc.n + 3 - len(key)) // self.desc.a
        return QPoly.q_power(beta, val) if val else QPoly.zero()

    def _f(self, key: Tuple[int, ...]) -> Rational:
        """The rational of F_key(0), for an in-range key in any order; a key
        already sorted and memoized is looked up before anything else."""
        val = self._cache.get(key)
        if val is not None:
            return val
        qdeg = sum(key) - self.desc.n + 3 - len(key)
        if qdeg < 0 or qdeg % self.desc.a:
            return ZERO
        key = tuple(sorted(key))
        val = self._cache.get(key)
        if val is None:
            if len(key) == 3:
                val = self.desc.degree * Fraction(self.desc.b) ** (qdeg // self.desc.a)
            elif key[0] == 0:
                val = Fraction(0)  # string equation
            elif key[0] == 1:
                val = self._divisor_step(key, qdeg // self.desc.a)
            else:
                val = self._raise_step(key)
            self._cache[key] = val
        return val

    def _divisor_step(self, key: Tuple[int, ...], beta: int) -> Rational:
        # q d/dq F_rest is beta F_rest: dropping the index 1 keeps q^beta
        rest = key[1:]
        val = beta * self._f(rest)
        for pos, s in enumerate(rest):
            reduced = rest[:pos] + rest[pos + 1:]
            for i in range(s % self.desc.a, s, self.desc.a):
                phi = self._phi[s, i]
                if phi:
                    val += phi * self._f(reduced + (i,))
        return val

    def _raise_step(self, key: Tuple[int, ...]) -> Rational:
        # key sorted ascending, min >= 2; lower the minimum through the
        # differentiated associativity identity
        A, C, D, P = key[0] - 1, key[1], key[2], key[3:]

        def ext(x: int, tail: Tuple[int, ...]) -> Rational:
            x0, k = reduce_power(self.desc.n, self.desc.a, x)  # H^x = (b q)^k H^x0
            return self.desc.b ** k * self._f(tail + (x0,))

        val = ext(A + C, (1, D) + P) + ext(1 + D, (A, C) + P) - ext(C + D, (A, 1) + P)
        # middle splits of P (both parts proper), each distinct one once,
        # weighted by the number of position subsets that give it
        if len(P) > 1:
            values = sorted(set(P))
            counts = [P.count(v) for v in values]
            for take in product(*(range(c + 1) for c in counts)):
                if 0 < sum(take) < len(P):
                    p1 = sum(((v,) * k for v, k in zip(values, take)), ())
                    p2 = sum(((v,) * (c - k) for v, c, k in zip(values, counts, take)), ())
                    val += prod(map(comb, counts, take)) * (
                        self._pair_contract((A, C) + p1, (1, D) + p2)
                        - self._pair_contract((A, 1) + p1, (C, D) + p2))
        return val

    def jet_series(self, degree: int) -> TruncSeries:
        """The tau-coordinate jet of F^(0), terms of total degree 3..degree
        (the classical quadratic part enters no equation used here), stored
        at q-cap max(ring.qmax, (3 - n + degree (n - 1)) // a).  The second
        is the largest beta of a key of that size, so no partial is dropped.
        """
        n = self.desc.n
        terms = {}
        for size in range(3, degree + 1):
            for key in combinations_with_replacement(range(n + 1), size):
                val = self._f(key)
                if val:
                    expo = monomial(n + 1, key)
                    terms[expo] = self._qpoly(key, val / prod(map(factorial, expo)))
        qmax = max(self.ring.qmax, (3 - n + degree * (n - 1)) // self.desc.a)
        return TruncSeries(n + 1, degree, qmax, terms=terms)
