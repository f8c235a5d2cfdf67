"""Small quantum cohomology of a Fano complete intersection.

The descendant series J(q, z) at the origin is the hypergeometric series

    z * sum_d q^d  prod_j prod_{m=1}^{d_j d} (d_j H + m z)
                   / prod_{m=1}^{d} (H + m z)^{n+r+1}

expanded exactly over the classical basis H_0..H_n (for index 1 the series
is corrected by exp(-ell q / z)).  Everything else is derived from it:

* quantum multiplication by the degree generator, via the flat-section
  recursion D S_j = sum_c (H~ o H_j)^c S_c with D = z q d/dq + (H cup .),
  which is the divisor and string equations in operator form;
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
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod
from typing import Dict, List, Optional, Tuple

from .errors import DomainError, InternalConsistencyError
from .exact import QPoly, Rational, TruncSeries, monomial
from .geometry import CIDescriptor, require_reconstruction_domain


def default_qmax(desc: CIDescriptor) -> int:
    """The q-cap of the series built from a ring: enough q-orders for every
    origin formula used downstream."""
    return -(-2 * desc.n // desc.a) + 1  # ceil(2n/a) + 1


class ZJet:
    """Graded vector-valued Laurent jet in z: {z-power: vector over H_0..H_n}.

    With deg z = deg H = 1 and deg q = a the jet has one ``degree`` (the
    J-series has degree 1), so the coefficient at z^p H_h is a rational c
    standing for c q^{(degree - h - p)/a}; only c is stored.  ``set_entry``
    raises on a term off that grading and jets of different degree cannot be
    added, so every entry is a single q-monomial fixed by its position;
    ``entry`` attaches the q-power.  ``zmin``/``zmax`` are hard caps;
    ``floor`` tracks down to which z-power the jet is actually reliable
    (operations that consume a z-order raise it).
    """

    __slots__ = ("n", "a", "degree", "zmin", "zmax", "floor", "coeffs")

    def __init__(self, n: int, a: int, degree: int, zmin: int, zmax: int,
                 floor: Optional[int] = None):
        self.n = n
        self.a = a
        self.degree = degree
        self.zmin = zmin
        self.zmax = zmax
        self.floor = zmin if floor is None else floor
        self.coeffs: Dict[int, List[Rational]] = {}

    def _like(self, degree: int, floor: int) -> "ZJet":
        return ZJet(self.n, self.a, degree, self.zmin, self.zmax, floor)

    def _zero_vec(self) -> List[Rational]:
        return [Fraction(0)] * (self.n + 1)

    def vec(self, zpow: int) -> List[Rational]:
        return self.coeffs.get(zpow, self._zero_vec())

    def set_entry(self, zpow: int, h: int, value: Rational, qpow: int) -> None:
        """Add value q^qpow at z^zpow H_h."""
        if zpow < self.zmin or zpow > self.zmax:
            return
        if zpow + h + self.a * qpow != self.degree:
            raise InternalConsistencyError(
                f"term z^{zpow} H_{h} q^{qpow} violates the grading of a "
                f"degree-{self.degree} jet")
        row = self.coeffs.setdefault(zpow, self._zero_vec())
        row[h] += value

    def entry(self, zpow: int, h: int) -> QPoly:
        return _graded(self.vec(zpow)[h], self.degree - h - zpow, self.a)

    def __add__(self, other: "ZJet") -> "ZJet":
        if other.degree != self.degree:
            raise InternalConsistencyError(
                f"adding jets of degree {self.degree} and {other.degree}")
        out = self._like(self.degree, max(self.floor, other.floor))
        out.coeffs = {z: list(v) for z, v in self.coeffs.items()}
        for z, v in other.coeffs.items():
            row = out.coeffs.setdefault(z, self._zero_vec())
            for h, c in enumerate(v):
                if c:
                    row[h] += c
        return out

    def __sub__(self, other: "ZJet") -> "ZJet":
        return self + other.scale(-1)

    def scale(self, c: Rational, qpow: int = 0) -> "ZJet":
        """Multiply by c q^qpow."""
        out = self._like(self.degree + self.a * qpow, self.floor)
        for z, v in self.coeffs.items():
            out.coeffs[z] = [x * c for x in v]
        return out

    def shift_z(self, k: int) -> "ZJet":
        """Multiply by z^k."""
        out = self._like(self.degree + k, max(self.floor + k, self.zmin))
        for z, v in self.coeffs.items():
            if self.zmin <= z + k <= self.zmax:
                out.coeffs[z + k] = list(v)
        return out

    def cup_h(self) -> "ZJet":
        """Cup product with the hyperplane class: H_i -> H_{i+1}."""
        out = self._like(self.degree + 1, self.floor)
        for z, v in self.coeffs.items():
            out.coeffs[z] = [Fraction(0)] + v[:-1]
        return out

    def q_d_q(self) -> "ZJet":
        """Apply q d/dq: each entry times its q-exponent."""
        out = self._like(self.degree, self.floor)
        for z, v in self.coeffs.items():
            out.coeffs[z] = [c * ((self.degree - h - z) // self.a) if c else c
                             for h, c in enumerate(v)]
        return out

    def is_zero_above(self, floor: int) -> bool:
        for z, v in self.coeffs.items():
            if z >= floor and any(v):
                return False
        return True


def _graded(c: Rational, qdeg: int, a: int) -> QPoly:
    """c q^{qdeg/a}: a rational at a position of q-degree qdeg, as a QPoly."""
    if not c:
        return QPoly.zero()
    if qdeg < 0 or qdeg % a:
        raise InternalConsistencyError(f"q-degree {qdeg} is off the grading")
    return QPoly.q_power(qdeg // a, c)


def small_j(desc: CIDescriptor, zorder: Optional[int] = None) -> ZJet:
    """Hypergeometric small J-series of X at the origin, exact in q down to
    z^{-zorder-1}.

    The coefficient of z^{-k-1} H_{n-i} q^d, multiplied by deg X, is the
    one-point descendant < psi^k H_i >_{0,1,d}.  Quadrics are allowed here;
    the other exceptional families and non-Fano inputs are refused.
    """
    require_reconstruction_domain(desc, allow_quadric=True)
    if zorder is None:
        zorder = desc.n + 3
    n = desc.n
    zmin = -(zorder + 1)
    jet = ZJet(n, desc.a, 1, zmin, 1)
    # J has degree 1 with deg z = deg H = 1 and deg q = a, so the term
    # z^p H_h q^delta has p = 1 - h - a delta: no delta beyond qtop reaches
    # the window
    qtop = (1 - zmin) // desc.a

    for delta in range(qtop + 1):
        # numerator: prod_j prod_{m=1}^{d_j delta} (d_j H + m z), as a
        # polynomial in H (truncated at H^n) with integer z-coefficients
        num = [{0: Fraction(1)}] + [dict() for _ in range(n)]
        for dj in desc.d:
            for m in range(1, dj * delta + 1):
                new = [dict() for _ in range(n + 1)]
                for h in range(n + 1):
                    for zp, c in num[h].items():
                        # (d_j H) part
                        if h + 1 <= n:
                            new[h + 1][zp] = new[h + 1].get(zp, Fraction(0)) + dj * c
                        # (m z) part
                        new[h][zp + 1] = new[h].get(zp + 1, Fraction(0)) + m * c
                num = new
        # denominator factors (H + m z)^{-(n+r+1)} expanded binomially
        term = num
        top = n + desc.r + 1
        for m in range(1, delta + 1):
            inv = [dict() for _ in range(n + 1)]
            for j in range(n + 1):
                c = Fraction((-1) ** j * comb(top - 1 + j, j), m ** (top + j))
                inv[j][-(top + j)] = c
            new = [dict() for _ in range(n + 1)]
            for h1 in range(n + 1):
                for zp1, c1 in term[h1].items():
                    for h2 in range(n + 1 - h1):
                        for zp2, c2 in inv[h2].items():
                            zp = zp1 + zp2
                            if zp + 1 >= zmin:  # final multiply by z below
                                d = new[h1 + h2]
                                d[zp] = d.get(zp, Fraction(0)) + c1 * c2
            term = new
        for h in range(n + 1):
            for zp, c in term[h].items():
                if zmin <= zp + 1 <= 1 and c != 0:
                    jet.set_entry(zp + 1, h, c, delta)

    if desc.a == 1:
        # J = exp(-ell q / z) * I
        out = ZJet(n, desc.a, 1, zmin, 1)
        fact = 1
        for k in range(qtop + 1):
            if k:
                fact *= k
            out = out + jet.scale(Fraction((-desc.ell) ** k, fact), k).shift_z(-k)
        out.floor = zmin
        jet = out
    return jet


def one_point_descendant(desc: CIDescriptor, jet: ZJet, k: int, i: int) -> QPoly:
    """< psi^k H_i >_{0,1,*} as a polynomial in q, read off the J-series."""
    if not 0 <= i <= desc.n or k < 0:
        raise DomainError("descendant indices out of range")
    return jet.entry(-k - 1, desc.n - i).scale(desc.degree)


class QuantumRingData:
    """Quantum multiplication, power bases and pairings at the origin.

    multH is the matrix of quantum multiplication by the shifted degree
    generator (H, or H + ell q for index one) acting on the classical basis;
    powers[j] expresses the j-th quantum power in the classical basis; M and
    W are the mutually inverse triangular base-change matrices; g and ginv
    the pairing of quantum powers and its inverse.  ``origin`` is the
    descriptor's AmbientOrigin, built once so that every consumer of the
    ring shares its memo of the F^(0) derivatives.  The grading fixes the
    q-exponent of every entry, so the ring is computed on rationals: M and
    W are Rational, and multH, powers, g and ginv attach their q-power as
    exact QPoly entries.  ``smat``/``jfun`` are graded ZJets (the flat
    sections and the J-series).  ``qmax`` is only the q-cap of the series
    built from the ring (``jet_series``, the F^(1)/F^(2) jets).
    """

    def __init__(self, desc, qmax, multh, powers, mmat, wmat, g, ginv, smat, jfun):
        self.desc = desc
        self.qmax = qmax
        self.multH = multh
        self.powers = powers
        self.M = mmat
        self.W = wmat
        self.g = g
        self.ginv = ginv
        self.smat = smat
        self.jfun = jfun

    @cached_property
    def origin(self) -> "AmbientOrigin":
        return AmbientOrigin(self.desc, self)

    def two_point(self, i: int, j: int) -> QPoly:
        """< H_i, H_j >_{0,2,*} from the stored flat sections."""
        return self.smat[i].entry(-1, self.desc.n - j).scale(self.desc.degree)


def build_ring(desc: CIDescriptor, qmax: Optional[int] = None) -> QuantumRingData:
    require_reconstruction_domain(desc)
    if qmax is None:
        qmax = default_qmax(desc)
    n, a = desc.n, desc.a
    jet = small_j(desc, zorder=n + 3)
    smat = [jet.shift_z(-1)]
    # cols[j][i]: coefficient of H_i in H o H_j, at q^{(j+1-i)/a}
    cols: List[List[Rational]] = []

    for j in range(n + 1):
        t = smat[j].q_d_q().shift_z(1) + smat[j].cup_h()
        col = t.vec(0)
        cols.append(col)
        nxt = t
        for c_idx in range(n + 1):
            coeff = col[c_idx] - int(c_idx == j + 1)
            if coeff:
                nxt = nxt - smat[c_idx].scale(coeff, (j + 1 - c_idx) // a)
        if j < n:
            nxt.floor = t.floor
            smat.append(nxt)
        elif not nxt.is_zero_above(nxt.floor):
            raise InternalConsistencyError(
                "flat-section recursion failed to close at the top power")

    # multiplication by the shifted generator H~ (= H + ell q when a = 1)
    mult = [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)]
    if a == 1:
        for i in range(n + 1):
            mult[i][i] += desc.ell

    # quantum powers: pw[j][i] = coefficient of H_i in H^j, at q^{(j-i)/a}
    pw = [[Fraction(int(i == 0)) for i in range(n + 1)]]
    for _ in range(n + 1):
        prev = pw[-1]
        pw.append([sum((mult[i][k] * prev[k] for k in range(n + 1) if prev[k]),
                       Fraction(0)) for i in range(n + 1)])

    # ring relation H^{n+1} = b q H^{n+1-a}
    if pw[n + 1] != [desc.b * c for c in pw[n + 1 - a]]:
        raise InternalConsistencyError(
            "quantum ring relation H^{n+1} = b q H^{n+1-a} failed")

    # the graded base change: W[i][j] = pw[i][j]; M is its exact inverse
    wmat = pw[: n + 1]
    mmat = _invert_unitriangular(wmat)
    _check_inverse_rational(wmat, mmat)

    g, ginv = pairings(desc)

    # the pairing formula must agree with the classical pairing of powers
    for e in range(n + 1):
        for f in range(n + 1):
            acc = sum((pw[e][i] * pw[f][n - i] for i in range(n + 1)), Fraction(0))
            if _graded(acc * desc.degree, e + f - n, a) != g[e][f]:
                raise InternalConsistencyError(
                    f"pairing formula disagrees at ({e},{f})")

    multh = [[_graded(mult[i][j], j + 1 - i, a) for j in range(n + 1)]
             for i in range(n + 1)]
    powers = [[_graded(pw[j][i], j - i, a) for i in range(n + 1)]
              for j in range(n + 1)]
    return QuantumRingData(desc, qmax, multh, powers, mmat, wmat,
                           g, ginv, smat, jet)


def _unit_vector(n, idx):
    return [QPoly.const(1 if i == idx else 0) for i in range(n + 1)]


def _mat_vec(mat, vec):
    n = len(vec)
    out = []
    for i in range(n):
        acc = QPoly.zero()
        for j in range(n):
            if not (mat[i][j].is_zero() or vec[j].is_zero()):
                acc = acc + mat[i][j] * vec[j]
        out.append(acc)
    return out


def _invert_unitriangular(w) -> List[List[Rational]]:
    """Inverse of a lower-unitriangular Rational matrix, by substitution."""
    n = len(w)
    if any(w[i][j] != (1 if i == j else 0) for i in range(n) for j in range(i, n)):
        raise InternalConsistencyError("base change is not unitriangular")
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            out[i][j] = -sum((w[i][k] * out[k][j] for k in range(j, i)), Fraction(0))
    return out


def _check_inverse_rational(wmat, mmat):
    n = len(wmat)
    for i in range(n):
        for j in range(n):
            acc = sum((wmat[i][k] * mmat[k][j] for k in range(n)), Fraction(0))
            if acc != (1 if i == j else 0):
                raise InternalConsistencyError("W * M is not the identity")


def reduce_power(desc: CIDescriptor, x: int) -> Tuple[int, QPoly]:
    """The power-basis rule H^x = (b q)^k H^{x-ka}, with x - ka in [0, n]:
    returns (x - ka, (b q)^k)."""
    k = max(0, -(-(x - desc.n) // desc.a))
    return x - k * desc.a, QPoly.q_power(k, Fraction(desc.b) ** k)


def pairings(desc: CIDescriptor):
    """Pairing g_{ef} of quantum powers and its inverse g^{ef}."""
    n, a, deg = desc.n, desc.a, desc.degree
    g = [[QPoly.zero() for _ in range(n + 1)] for _ in range(n + 1)]
    ginv = [[QPoly.zero() for _ in range(n + 1)] for _ in range(n + 1)]
    for e in range(n + 1):
        for f in range(n + 1):
            top, factor = reduce_power(desc, e + f)
            if top == n:
                g[e][f] = factor.scale(deg)
            if e + f == n:
                ginv[e][f] = QPoly.const(Fraction(1, deg))
            elif e + f == n - a:
                ginv[e][f] = QPoly.q_power(1, Fraction(-desc.b, deg))
    # exact inverse check
    for e in range(n + 1):
        for h in range(n + 1):
            acc = QPoly.zero()
            for f in range(n + 1):
                acc = acc + g[e][f] * ginv[f][h]
            if acc != (1 if e == h else 0):
                raise InternalConsistencyError("pairing inverse check failed")
    return g, ginv


def quantum_product_qp(desc: CIDescriptor, u, v):
    """Product of two vectors given in quantum-power coordinates."""
    n = desc.n
    out = [QPoly.zero() for _ in range(n + 1)]
    for e in range(n + 1):
        if u[e].is_zero():
            continue
        for f in range(n + 1):
            if v[f].is_zero():
                continue
            c, w = reduce_power(desc, e + f)
            out[c] = out[c] + u[e] * v[f] * w
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

    Third derivatives come from the ring structure; an index containing 0 is
    handled by the string equation; an index 1 is removed by the divisor
    equation in the twisted coordinates; the remaining cases are raised from
    lower minimal index through the once-differentiated associativity
    constraint.  All values are exact polynomials in q.
    """

    def __init__(self, desc: CIDescriptor, ring: QuantumRingData):
        self.desc = desc
        self.ring = ring
        self._cache: Dict[Tuple[int, ...], QPoly] = {}
        self._phi_cache: Dict[Tuple[int, int], QPoly] = {}

    # -- building blocks

    def _three_point(self, a: int, b: int, c: int) -> QPoly:
        top, factor = reduce_power(self.desc, a + b + c)
        return factor.scale(self.desc.degree) if top == self.desc.n else QPoly.zero()

    def _phi(self, s: int, i: int) -> QPoly:
        """Coefficient of tau^s d/d tau^i in the divisor vector field."""
        key = (s, i)
        if key in self._phi_cache:
            return self._phi_cache[key]
        n, a = self.desc.n, self.desc.a
        out = QPoly.zero()
        if s > i and (s - i) % a == 0:
            kl = (s - i) // a
            coeff = Fraction(0)
            for k in range(1, kl + 1):
                if i + k * a <= n:
                    coeff += k * self.ring.M[i + k * a][i] * self.ring.W[s][i + k * a]
            out = QPoly.q_power(kl, coeff)
        self._phi_cache[key] = out
        return out

    # Kept lazy: eager exact.contract rows evaluate 295 partials, not 193, on (8,(9)).
    def _pair_contract(self, left: Tuple[int, ...], right: Tuple[int, ...]) -> QPoly:
        """sum_{e,f} F_{left,e} g^{ef} F_{f,right} using the inverse pairing."""
        acc = QPoly.zero()
        for e, row in enumerate(self.ring.ginv):
            le = self.partial(left + (e,))
            if le.is_zero():
                continue
            for f, gef in enumerate(row):
                if not gef.is_zero():
                    acc = acc + le * gef * self.partial(right + (f,))
        return acc

    def contract0(self, key: Tuple[int, ...]) -> QPoly:
        """sum_e F_{key,e}(0) g^{e0}: a derivative contracted with the unit."""
        acc = QPoly.zero()
        for e, row in enumerate(self.ring.ginv):
            if not row[0].is_zero():
                acc = acc + self.partial(key + (e,)) * row[0]
        return acc

    # -- the jet itself

    def partial(self, indices) -> QPoly:
        """F^(0) partial derivative at 0 w.r.t. the given tau indices."""
        key = tuple(sorted(int(i) for i in indices))
        if any(i < 0 or i > self.desc.n for i in key):
            raise DomainError("tau index out of range")
        if len(key) < 3:
            raise DomainError("only derivatives of order >= 3 are defined")
        if key in self._cache:
            return self._cache[key]
        if len(key) == 3:
            val = self._three_point(*key)
        elif key[0] == 0:
            val = QPoly.zero()  # string equation
        elif key[0] == 1:
            val = self._divisor_step(key)
        else:
            val = self._raise_step(key)
        self._cache[key] = val
        return val

    def _divisor_step(self, key: Tuple[int, ...]) -> QPoly:
        rest = key[1:]
        val = self.partial(rest).q_d_q()
        for pos, s in enumerate(rest):
            reduced = rest[:pos] + rest[pos + 1:]
            for i in range(s % self.desc.a, s, self.desc.a):
                phi = self._phi(s, i)
                if not phi.is_zero():
                    val = val + phi * self.partial(tuple(sorted(reduced + (i,))))
        return val

    def _raise_step(self, key: Tuple[int, ...]) -> QPoly:
        # key sorted ascending, min >= 2; lower the minimum through the
        # differentiated associativity identity
        amin = key[0]
        rest = list(key[1:])
        C, D = rest[0], rest[1]
        P = tuple(rest[2:])
        A = amin - 1

        def ext(x: int, tail: Tuple[int, ...]) -> QPoly:
            x0, factor = reduce_power(self.desc, x)
            return factor * self.partial(tail + (x0,))

        val = ext(A + C, (1, D) + P)
        val = val + ext(1 + D, (A, C) + P)
        val = val - ext(C + D, (A, 1) + P)
        # middle splits of P (both parts proper)
        if P:
            idx = range(len(P))
            for rsize in range(1, len(P)):
                for subset in combinations(idx, rsize):
                    p1 = tuple(P[i] for i in subset)
                    p2 = tuple(P[i] for i in idx if i not in subset)
                    val = val + self._pair_contract((A, C) + p1, (1, D) + p2)
                    val = val - self._pair_contract((A, 1) + p1, (C, D) + p2)
        return val

    def jet_series(self, degree: int) -> TruncSeries:
        """Assemble the tau-coordinate jet of F^(0) as a TruncSeries.

        Only terms of total degree 3..degree are included (the classical
        quadratic part plays no role in any differential equation used here).
        The series is stored at the ring's q-cap.
        """
        n = self.desc.n
        terms = {}
        for key in _multisets(n, 3, degree):
            val = self.partial(key)
            if not val.is_zero():
                expo = monomial(n + 1, key)
                terms[expo] = val.scale(Fraction(1, prod(map(factorial, expo))))
        return TruncSeries(n + 1, degree, self.ring.qmax, terms=terms)


def _multisets(n: int, dmin: int, dmax: int):
    """All ascending index multisets over 0..n of sizes dmin..dmax."""
    return [key for size in range(dmin, dmax + 1)
            for key in combinations_with_replacement(range(n + 1), size)]
